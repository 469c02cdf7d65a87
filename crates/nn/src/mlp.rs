//! Multi-layer perceptron classifier.

use crate::scratch::Scratch;
use crate::{softmax_cross_entropy, softmax_cross_entropy_into, Activation, Dense, Model, Sgd};
use baffle_tensor::Matrix;
use rand::seq::SliceRandom;
use rand::Rng;

/// Architecture description for an [`Mlp`]: input dimension, hidden layer
/// widths and number of classes.
///
/// # Example
///
/// ```
/// use baffle_nn::MlpSpec;
/// let spec = MlpSpec::new(64, &[128, 64], 10);
/// assert_eq!(spec.num_params(), 64 * 128 + 128 + 128 * 64 + 64 + 64 * 10 + 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MlpSpec {
    input_dim: usize,
    hidden: Vec<usize>,
    num_classes: usize,
}

impl MlpSpec {
    /// Creates a spec with ReLU hidden activations.
    ///
    /// # Panics
    ///
    /// Panics if `input_dim == 0`, `num_classes < 2`, or any hidden width
    /// is zero.
    pub fn new(input_dim: usize, hidden: &[usize], num_classes: usize) -> Self {
        assert!(input_dim > 0, "MlpSpec: input_dim must be positive");
        assert!(num_classes >= 2, "MlpSpec: need at least two classes");
        assert!(hidden.iter().all(|&h| h > 0), "MlpSpec: hidden widths must be positive");
        Self { input_dim, hidden: hidden.to_vec(), num_classes }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hidden layer widths.
    pub fn hidden(&self) -> &[usize] {
        &self.hidden
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Total number of scalar parameters of an MLP with this architecture.
    pub fn num_params(&self) -> usize {
        let mut dims = vec![self.input_dim];
        dims.extend_from_slice(&self.hidden);
        dims.push(self.num_classes);
        dims.windows(2).map(|w| w[0] * w[1] + w[1]).sum()
    }
}

/// Persistent scratch for the allocation-free training hot path: the
/// per-layer activation chain, the ping-pong gradient pair and the
/// per-minibatch row/label staging buffers. All buffers are reused
/// across batches; contents are fully rewritten each use.
#[derive(Debug, Default)]
pub(crate) struct TrainScratch {
    /// `acts[i]` = activation of layer `i` (`acts.last()` = logits).
    pub acts: Vec<Matrix>,
    /// Gradient ping-pong pair for the backward chain.
    pub grad_a: Matrix,
    pub grad_b: Matrix,
    /// Mini-batch row staging for `train_epoch`.
    pub xb: Matrix,
    /// Mini-batch label staging for `train_epoch`.
    pub yb: Vec<usize>,
    /// Shuffled index order for `train_epoch`.
    pub order: Vec<usize>,
}

/// A multi-layer perceptron trained with mini-batch SGD on softmax
/// cross-entropy — the model substrate standing in for the paper's
/// ResNet18 (see `DESIGN.md` §2).
#[derive(Debug, Clone)]
pub struct Mlp {
    spec: MlpSpec,
    layers: Vec<Dense>,
    scratch: Scratch<TrainScratch>,
}

impl Mlp {
    /// Creates an MLP with He-initialised weights.
    pub fn new<R: Rng + ?Sized>(spec: &MlpSpec, rng: &mut R) -> Self {
        let mut dims = vec![spec.input_dim];
        dims.extend_from_slice(&spec.hidden);
        dims.push(spec.num_classes);
        let mut layers = Vec::with_capacity(dims.len() - 1);
        for (i, w) in dims.windows(2).enumerate() {
            let act = if i + 2 == dims.len() { Activation::Identity } else { Activation::Relu };
            layers.push(Dense::new(w[0], w[1], act, rng));
        }
        Self { spec: spec.clone(), layers, scratch: Scratch::default() }
    }

    /// The architecture of this model.
    pub fn spec(&self) -> &MlpSpec {
        &self.spec
    }

    /// Class logits for a batch (`batch × num_classes`).
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut h = self.layers[0].forward(x);
        for layer in &self.layers[1..] {
            h = layer.forward(&h);
        }
        h
    }

    /// Runs one SGD step on a single mini-batch, returning the batch loss.
    ///
    /// Every intermediate (activation chain, loss gradient, backward
    /// ping-pong pair, per-layer caches and gradients) lives in a
    /// persistent buffer, so at steady state — batch shape unchanged
    /// since the previous call — the step performs no allocation. The
    /// arithmetic is bit-identical to the retained allocating reference
    /// [`Mlp::train_batch_ref`].
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != y.len()` or shapes mismatch the architecture.
    pub fn train_batch(&mut self, x: &Matrix, y: &[usize], opt: &mut Sgd) -> f32 {
        assert_eq!(x.rows(), y.len(), "Mlp::train_batch: {} rows vs {} labels", x.rows(), y.len());
        let nl = self.layers.len();
        let scratch = &mut *self.scratch;
        scratch.acts.resize_with(nl, Matrix::default);
        // Forward with caching: layer i reads acts[i−1] (or x) and writes
        // acts[i]; split_at_mut keeps the read and write rows disjoint.
        for i in 0..nl {
            let (prev, cur) = scratch.acts.split_at_mut(i);
            let input = if i == 0 { x } else { &prev[i - 1] };
            self.layers[i].forward_train_into(input, &mut cur[0]);
        }
        let loss = softmax_cross_entropy_into(
            scratch.acts.last().expect("Mlp has at least one layer"),
            y,
            &mut scratch.grad_a,
        );
        // Backward: ping-pong the gradient between two persistent buffers.
        let mut ga = std::mem::take(&mut scratch.grad_a);
        let mut gb = std::mem::take(&mut scratch.grad_b);
        for layer in self.layers.iter_mut().rev() {
            layer.backward_into(&ga, &mut gb);
            std::mem::swap(&mut ga, &mut gb);
        }
        scratch.grad_a = ga;
        scratch.grad_b = gb;
        // Update. The count is summed over the layers because this step
        // must not allocate and `MlpSpec::num_params` builds a `Vec`.
        opt.begin_step(self.layers.iter().map(Dense::num_params).sum());
        for layer in &mut self.layers {
            layer.apply_grads_chunked(opt);
        }
        loss
    }

    /// The retained allocating implementation of [`Mlp::train_batch`] —
    /// fresh buffers every call, the pre-workspace hot path. Kept as the
    /// bit-identity reference for the workspace path (see the property
    /// tests); both walk the same layer order with the same arithmetic.
    pub fn train_batch_ref(&mut self, x: &Matrix, y: &[usize], opt: &mut Sgd) -> f32 {
        assert_eq!(x.rows(), y.len(), "Mlp::train_batch: {} rows vs {} labels", x.rows(), y.len());
        // Forward with caching.
        let mut h = x.clone();
        for layer in &mut self.layers {
            h = layer.forward_train(&h);
        }
        let (loss, mut grad) = softmax_cross_entropy(&h, y);
        // Backward.
        for layer in self.layers.iter_mut().rev() {
            grad = layer.backward(&grad);
        }
        // Update.
        opt.begin_step(self.num_params());
        for layer in &mut self.layers {
            layer.apply_grads(|p, g| opt.update(p, g));
        }
        loss
    }

    /// Runs one epoch of mini-batch SGD over `(x, y)` in a shuffled order,
    /// returning the mean batch loss.
    ///
    /// The shuffled order, mini-batch rows and labels are staged in
    /// persistent scratch buffers, so a steady-state epoch allocates
    /// nothing. The RNG consumption and arithmetic are identical to the
    /// retained [`Mlp::train_epoch_ref`].
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != y.len()` or `batch_size == 0`.
    pub fn train_epoch<R: Rng + ?Sized>(
        &mut self,
        x: &Matrix,
        y: &[usize],
        batch_size: usize,
        opt: &mut Sgd,
        rng: &mut R,
    ) -> f32 {
        assert!(batch_size > 0, "Mlp::train_epoch: batch_size must be positive");
        assert_eq!(x.rows(), y.len(), "Mlp::train_epoch: {} rows vs {} labels", x.rows(), y.len());
        if y.is_empty() {
            return 0.0;
        }
        // Take the staging buffers out of `self` so `train_batch` can
        // borrow the model mutably; restored below.
        let mut order = std::mem::take(&mut self.scratch.order);
        let mut xb = std::mem::take(&mut self.scratch.xb);
        let mut yb = std::mem::take(&mut self.scratch.yb);
        order.clear();
        order.extend(0..y.len());
        order.shuffle(rng);
        let mut total = 0.0;
        let mut batches = 0;
        for chunk in order.chunks(batch_size) {
            x.select_rows_into(chunk, &mut xb);
            yb.clear();
            yb.extend(chunk.iter().map(|&i| y[i]));
            total += self.train_batch(&xb, &yb, opt);
            batches += 1;
        }
        self.scratch.order = order;
        self.scratch.xb = xb;
        self.scratch.yb = yb;
        total / batches as f32
    }

    /// The retained allocating implementation of [`Mlp::train_epoch`],
    /// driving [`Mlp::train_batch_ref`]. The bit-identity reference for
    /// the workspace path; consumes the RNG identically.
    pub fn train_epoch_ref<R: Rng + ?Sized>(
        &mut self,
        x: &Matrix,
        y: &[usize],
        batch_size: usize,
        opt: &mut Sgd,
        rng: &mut R,
    ) -> f32 {
        assert!(batch_size > 0, "Mlp::train_epoch: batch_size must be positive");
        assert_eq!(x.rows(), y.len(), "Mlp::train_epoch: {} rows vs {} labels", x.rows(), y.len());
        if y.is_empty() {
            return 0.0;
        }
        let mut order: Vec<usize> = (0..y.len()).collect();
        order.shuffle(rng);
        let mut total = 0.0;
        let mut batches = 0;
        for chunk in order.chunks(batch_size) {
            let xb = x.select_rows(chunk);
            let yb: Vec<usize> = chunk.iter().map(|&i| y[i]).collect();
            total += self.train_batch_ref(&xb, &yb, opt);
            batches += 1;
        }
        total / batches as f32
    }

    /// Mean softmax cross-entropy loss over a dataset (no training).
    pub fn loss(&self, x: &Matrix, y: &[usize]) -> f32 {
        let logits = self.forward(x);
        softmax_cross_entropy(&logits, y).0
    }

    /// Fraction of correctly classified rows.
    pub fn accuracy(&self, x: &Matrix, y: &[usize]) -> f32 {
        if y.is_empty() {
            return 0.0;
        }
        let preds = self.predict_batch(x);
        let correct = preds.iter().zip(y).filter(|(p, t)| p == t).count();
        correct as f32 / y.len() as f32
    }
}

impl Model for Mlp {
    fn num_params(&self) -> usize {
        self.spec.num_params()
    }

    fn params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        for layer in &self.layers {
            layer.write_params(&mut out);
        }
        out
    }

    fn set_params(&mut self, p: &[f32]) {
        assert_eq!(
            p.len(),
            self.num_params(),
            "Mlp::set_params: expected {} params, got {}",
            self.num_params(),
            p.len()
        );
        let mut rest = p;
        for layer in &mut self.layers {
            rest = layer.read_params(rest);
        }
    }

    fn num_classes(&self) -> usize {
        self.spec.num_classes
    }

    fn predict_batch(&self, x: &Matrix) -> Vec<usize> {
        self.forward(x).argmax_rows()
    }

    fn predict_rows(&self, x: &Matrix, r0: usize, r1: usize) -> Vec<usize> {
        // Feed the first layer a borrowed row view — no copy of the rows.
        let mut h = self.layers[0].forward_view(x.view_rows(r0, r1));
        for layer in &self.layers[1..] {
            h = layer.forward(&h);
        }
        h.argmax_rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_blobs(rng: &mut StdRng, n_per_class: usize) -> (Matrix, Vec<usize>) {
        // Three well-separated Gaussian blobs in 2D.
        let centers = [(-3.0, 0.0), (3.0, 0.0), (0.0, 4.0)];
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for (c, &(cx, cy)) in centers.iter().enumerate() {
            for _ in 0..n_per_class {
                rows.push(vec![
                    cx + 0.5 * baffle_tensor::rng::standard_normal(rng),
                    cy + 0.5 * baffle_tensor::rng::standard_normal(rng),
                ]);
                labels.push(c);
            }
        }
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        (Matrix::from_rows(&refs), labels)
    }

    #[test]
    fn spec_param_count_matches_model() {
        let spec = MlpSpec::new(5, &[7, 3], 4);
        let mut rng = StdRng::seed_from_u64(0);
        let m = Mlp::new(&spec, &mut rng);
        assert_eq!(m.params().len(), spec.num_params());
    }

    #[test]
    fn params_roundtrip_exact() {
        let spec = MlpSpec::new(4, &[6], 3);
        let mut rng = StdRng::seed_from_u64(1);
        let a = Mlp::new(&spec, &mut rng);
        let mut b = Mlp::new(&spec, &mut rng);
        b.set_params(&a.params());
        assert_eq!(a.params(), b.params());
        // And they now predict identically.
        let x = Matrix::from_fn(5, 4, |r, c| (r as f32 - c as f32) * 0.3);
        assert_eq!(a.predict_batch(&x), b.predict_batch(&x));
    }

    #[test]
    fn learns_separable_blobs() {
        let mut rng = StdRng::seed_from_u64(2);
        let (x, y) = toy_blobs(&mut rng, 50);
        let mut model = Mlp::new(&MlpSpec::new(2, &[16], 3), &mut rng);
        let mut opt = Sgd::new(0.1).with_momentum(0.9);
        for _ in 0..30 {
            model.train_epoch(&x, &y, 16, &mut opt, &mut rng);
        }
        assert!(model.accuracy(&x, &y) > 0.95, "accuracy = {}", model.accuracy(&x, &y));
    }

    #[test]
    fn training_reduces_loss() {
        let mut rng = StdRng::seed_from_u64(3);
        let (x, y) = toy_blobs(&mut rng, 30);
        let mut model = Mlp::new(&MlpSpec::new(2, &[8], 3), &mut rng);
        let mut opt = Sgd::new(0.05);
        let before = model.loss(&x, &y);
        for _ in 0..10 {
            model.train_epoch(&x, &y, 8, &mut opt, &mut rng);
        }
        let after = model.loss(&x, &y);
        assert!(after < before, "loss went {before} -> {after}");
    }

    /// A clone of a warm model is the same model with an empty workspace,
    /// and taking it leaves the original's workspace in place. (That the
    /// two then train bit-identically is a property in
    /// `tests/properties.rs`; the workspace is private, so this is here.)
    #[test]
    fn warm_clone_has_the_parameters_and_an_empty_workspace() {
        let mut rng = StdRng::seed_from_u64(9);
        let (x, y) = toy_blobs(&mut rng, 50);
        let mut model = Mlp::new(&MlpSpec::new(2, &[8, 5], 3), &mut rng);
        let mut opt = Sgd::new(0.05).with_momentum(0.9);
        model.train_epoch(&x, &y, 16, &mut opt, &mut rng);
        let twin = model.clone();
        assert_eq!(model.params(), twin.params());
        assert_eq!(model.predict_batch(&x), twin.predict_batch(&x));
        assert!(twin.scratch.acts.is_empty() && twin.scratch.order.is_empty());
        assert_eq!(model.scratch.acts.len(), 3);
        assert_eq!(model.scratch.order.len(), y.len());
    }

    #[test]
    fn empty_epoch_is_noop() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut model = Mlp::new(&MlpSpec::new(2, &[4], 2), &mut rng);
        let before = model.params();
        let loss = model.train_epoch(&Matrix::zeros(0, 2), &[], 8, &mut Sgd::new(0.1), &mut rng);
        assert_eq!(loss, 0.0);
        assert_eq!(model.params(), before);
    }

    #[test]
    fn accuracy_on_empty_set_is_zero() {
        let mut rng = StdRng::seed_from_u64(5);
        let model = Mlp::new(&MlpSpec::new(2, &[], 2), &mut rng);
        assert_eq!(model.accuracy(&Matrix::zeros(0, 2), &[]), 0.0);
    }

    #[test]
    fn no_hidden_layers_is_linear_classifier() {
        let mut rng = StdRng::seed_from_u64(6);
        let spec = MlpSpec::new(3, &[], 2);
        let model = Mlp::new(&spec, &mut rng);
        assert_eq!(model.num_params(), 3 * 2 + 2);
        let x = Matrix::zeros(2, 3);
        assert_eq!(model.forward(&x).shape(), (2, 2));
    }

    #[test]
    #[should_panic(expected = "expected")]
    fn set_params_wrong_len_panics() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut model = Mlp::new(&MlpSpec::new(2, &[], 2), &mut rng);
        model.set_params(&[0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "at least two classes")]
    fn single_class_spec_panics() {
        let _ = MlpSpec::new(2, &[], 1);
    }

    #[test]
    fn predict_rows_matches_predict_batch_slice() {
        let mut rng = StdRng::seed_from_u64(8);
        let model = Mlp::new(&MlpSpec::new(3, &[5], 4), &mut rng);
        let x = Matrix::from_fn(10, 3, |r, c| ((r * 3 + c) as f32 * 0.41).sin());
        let full = model.predict_batch(&x);
        assert_eq!(model.predict_rows(&x, 3, 8), full[3..8]);
        assert_eq!(model.predict_rows(&x, 0, 10), full);
        assert!(model.predict_rows(&x, 4, 4).is_empty());
    }
}
