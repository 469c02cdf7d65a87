//! Fully-connected (dense) layer with manual backpropagation.

use crate::scratch::Scratch;
use crate::{Activation, Sgd};
use baffle_tensor::{rng, Matrix, MatrixView};
use rand::Rng;

/// A dense layer `y = act(x · W + b)` with cached forward state for
/// backpropagation.
///
/// Weights are stored as an `in_dim × out_dim` matrix so a batch
/// (`batch × in_dim`) multiplies on the left.
///
/// The training caches (`cached_input`, `cached_pre`, the gradients and
/// the δ scratch) are **persistent buffers**, not per-call allocations:
/// once the layer has seen a batch shape, every further
/// [`Dense::forward_train`] / [`Dense::backward`] cycle at that shape is
/// allocation-free. Validity is tracked by flags, so the panic behaviour
/// of calling `backward` before `forward_train` is unchanged. They are
/// workspace, not value: a clone starts with none of them.
#[derive(Debug, Clone)]
pub struct Dense {
    w: Matrix,
    b: Vec<f32>,
    activation: Activation,
    scratch: Scratch<DenseScratch>,
}

/// [`Dense`]'s training workspace.
#[derive(Debug, Default)]
struct DenseScratch {
    /// Input of the latest `forward_train` call (needed for dW).
    cached_input: Matrix,
    /// Pre-activation of the latest `forward_train` call (needed for dact).
    cached_pre: Matrix,
    /// Whether the forward caches hold the latest batch.
    has_cache: bool,
    /// Weight gradient from the latest `backward` call.
    grad_w: Matrix,
    /// Bias gradient from the latest `backward` call.
    grad_b: Vec<f32>,
    /// Whether the gradients are fresh (consumed by `apply_grads*`).
    has_grads: bool,
    /// δ = grad_out ⊙ act′(pre) scratch for `backward`.
    delta: Matrix,
}

impl Dense {
    /// Creates a dense layer with He-initialised weights and zero bias.
    pub fn new<R: Rng + ?Sized>(
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
        rng: &mut R,
    ) -> Self {
        Self {
            w: rng::he_init(rng, in_dim, out_dim),
            b: vec![0.0; out_dim],
            activation,
            scratch: Scratch::default(),
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }

    /// The layer's activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Number of scalar parameters (`in_dim * out_dim + out_dim`).
    pub fn num_params(&self) -> usize {
        self.w.len() + self.b.len()
    }

    /// Inference-only forward pass (no state is cached).
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.in_dim()`.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut pre = x.matmul(&self.w);
        pre.add_row_broadcast(&self.b);
        let act = self.activation;
        pre.map_assign(|v| act.apply(v));
        pre
    }

    /// Inference forward pass over a borrowed row view of the input (no
    /// copy of the rows is made).
    ///
    /// Bit-identical to [`Dense::forward`] on a matrix holding the same
    /// rows: the view dispatches into the same GEMM kernels.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.in_dim()`.
    pub fn forward_view(&self, x: MatrixView<'_>) -> Matrix {
        let mut pre = x.matmul(&self.w);
        pre.add_row_broadcast(&self.b);
        let act = self.activation;
        pre.map_assign(|v| act.apply(v));
        pre
    }

    /// Training forward pass; caches the input and pre-activation for a
    /// subsequent [`Dense::backward`].
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.in_dim()`.
    pub fn forward_train(&mut self, x: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.forward_train_into(x, &mut out);
        out
    }

    /// [`Dense::forward_train`] writing the activation into a caller-owned
    /// buffer. The input and pre-activation are copied into the layer's
    /// persistent caches, so at steady state (shapes unchanged since the
    /// previous batch) the call performs no allocation.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.in_dim()`.
    pub fn forward_train_into(&mut self, x: &Matrix, out: &mut Matrix) {
        let Self { w, b, activation: act, scratch } = self;
        scratch.cached_input.copy_from(x);
        x.matmul_into(w, &mut scratch.cached_pre);
        scratch.cached_pre.add_row_broadcast(b);
        scratch.cached_pre.map_into(|v| act.apply(v), out);
        scratch.has_cache = true;
    }

    /// Backward pass. `grad_out` is ∂L/∂y for the latest
    /// [`Dense::forward_train`] batch; returns ∂L/∂x and stores the weight
    /// and bias gradients for [`Dense::apply_grads`].
    ///
    /// # Panics
    ///
    /// Panics if called before `forward_train`, or if `grad_out` has the
    /// wrong shape.
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let mut dx = Matrix::default();
        self.backward_into(grad_out, &mut dx);
        dx
    }

    /// [`Dense::backward`] writing ∂L/∂x into a caller-owned buffer. The
    /// δ scratch and the weight/bias gradients live in persistent layer
    /// buffers, so at steady state the call performs no allocation.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward_train`, or if `grad_out` has the
    /// wrong shape.
    pub fn backward_into(&mut self, grad_out: &Matrix, dx: &mut Matrix) {
        assert!(self.scratch.has_cache, "Dense::backward called before forward_train");
        assert_eq!(
            grad_out.shape(),
            self.scratch.cached_pre.shape(),
            "Dense::backward: grad shape {:?} != output shape {:?}",
            grad_out.shape(),
            self.scratch.cached_pre.shape()
        );
        let act = self.activation;
        let DenseScratch { cached_input, cached_pre, delta, grad_w, grad_b, has_grads, .. } =
            &mut *self.scratch;

        // δ = grad_out ⊙ act'(pre)
        cached_pre.map_into(|v| act.derivative(v), delta);
        delta.hadamard_assign(grad_out);

        // dW = xᵀ δ, db = column sums of δ, dx = δ Wᵀ.
        cached_input.matmul_tn_into(delta, grad_w);
        delta.sum_rows_into(grad_b);
        delta.matmul_nt_into(&self.w, dx);
        *has_grads = true;
    }

    /// Applies the stored gradients with the given update rule
    /// (`param -= step(param, grad)` is handled by the caller through the
    /// closure; this method only exposes parameter/gradient pairs).
    ///
    /// # Panics
    ///
    /// Panics if called before [`Dense::backward`].
    pub fn apply_grads(&mut self, mut f: impl FnMut(&mut f32, f32)) {
        assert!(self.scratch.has_grads, "Dense::apply_grads called before backward");
        self.scratch.has_grads = false;
        let Self { w, b, scratch, .. } = self;
        for (p, &g) in w.as_mut_slice().iter_mut().zip(scratch.grad_w.as_slice()) {
            f(p, g);
        }
        for (p, &g) in b.iter_mut().zip(scratch.grad_b.iter()) {
            f(p, g);
        }
    }

    /// Applies the stored gradients through [`Sgd::update_chunk`] — the
    /// slice-wise (and allocation-free) form of
    /// `apply_grads(|p, g| opt.update(p, g))`, bit-identical to it because
    /// `update_chunk` is elementwise and walks the same weights-then-bias
    /// order against the same velocity slots.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Dense::backward`].
    pub fn apply_grads_chunked(&mut self, opt: &mut Sgd) {
        assert!(self.scratch.has_grads, "Dense::apply_grads called before backward");
        self.scratch.has_grads = false;
        opt.update_chunk(self.w.as_mut_slice(), self.scratch.grad_w.as_slice());
        opt.update_chunk(&mut self.b, &self.scratch.grad_b);
    }

    /// Appends this layer's parameters to `out` (weights row-major, then
    /// bias).
    pub fn write_params(&self, out: &mut Vec<f32>) {
        out.extend_from_slice(self.w.as_slice());
        out.extend_from_slice(&self.b);
    }

    /// Reads this layer's parameters from the front of `p`, returning the
    /// remainder.
    ///
    /// # Panics
    ///
    /// Panics if `p` is shorter than [`Dense::num_params`].
    pub fn read_params<'a>(&mut self, p: &'a [f32]) -> &'a [f32] {
        let nw = self.w.len();
        let nb = self.b.len();
        assert!(p.len() >= nw + nb, "Dense::read_params: need {} values, got {}", nw + nb, p.len());
        self.w.as_mut_slice().copy_from_slice(&p[..nw]);
        self.b.copy_from_slice(&p[nw..nw + nb]);
        &p[nw + nb..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn layer(in_dim: usize, out_dim: usize, act: Activation) -> Dense {
        let mut rng = StdRng::seed_from_u64(11);
        Dense::new(in_dim, out_dim, act, &mut rng)
    }

    #[test]
    fn forward_shapes() {
        let l = layer(4, 3, Activation::Relu);
        let x = Matrix::zeros(5, 4);
        assert_eq!(l.forward(&x).shape(), (5, 3));
    }

    #[test]
    fn forward_and_forward_train_agree() {
        let mut l = layer(4, 3, Activation::Tanh);
        let x = Matrix::from_fn(2, 4, |r, c| (r + c) as f32 * 0.1);
        let a = l.forward(&x);
        let b = l.forward_train(&x);
        assert_eq!(a, b);
    }

    #[test]
    fn param_roundtrip() {
        let l = layer(3, 2, Activation::Identity);
        let mut p = Vec::new();
        l.write_params(&mut p);
        assert_eq!(p.len(), l.num_params());
        let mut l2 = layer(3, 2, Activation::Identity);
        let rest = l2.read_params(&p);
        assert!(rest.is_empty());
        let mut p2 = Vec::new();
        l2.write_params(&mut p2);
        assert_eq!(p, p2);
    }

    /// Numerical gradient check: perturb each weight and compare the loss
    /// change against the analytic gradient.
    #[test]
    fn gradient_check_identity_activation() {
        gradient_check(Activation::Identity);
    }

    #[test]
    fn gradient_check_tanh_activation() {
        gradient_check(Activation::Tanh);
    }

    fn gradient_check(act: Activation) {
        let mut rng = StdRng::seed_from_u64(3);
        let mut l = Dense::new(3, 2, act, &mut rng);
        let x = Matrix::from_fn(4, 3, |r, c| ((r * 3 + c) as f32 * 0.17).sin());
        // Loss = sum of outputs, so grad_out = ones.
        let loss = |l: &Dense| l.forward(&x).as_slice().iter().sum::<f32>();

        l.forward_train(&x);
        let ones = Matrix::filled(4, 2, 1.0);
        let dx = l.backward(&ones);

        // Check weight gradients against finite differences.
        let mut analytic = Vec::new();
        analytic.extend_from_slice(l.scratch.grad_w.as_slice());
        analytic.extend_from_slice(&l.scratch.grad_b);
        let mut p = Vec::new();
        l.write_params(&mut p);
        let eps = 1e-3;
        for i in 0..p.len() {
            let mut plus = p.clone();
            plus[i] += eps;
            let mut minus = p.clone();
            minus[i] -= eps;
            let mut lp = l.clone();
            lp.read_params(&plus);
            let mut lm = l.clone();
            lm.read_params(&minus);
            let fd = (loss(&lp) - loss(&lm)) / (2.0 * eps);
            assert!(
                (fd - analytic[i]).abs() < 2e-2,
                "param {i}: finite diff {fd} vs analytic {}",
                analytic[i]
            );
        }

        // Check input gradient for one entry.
        let mut xp = x.clone();
        xp[(0, 0)] += eps;
        let mut xm = x.clone();
        xm[(0, 0)] -= eps;
        let fd = (l.forward(&xp).as_slice().iter().sum::<f32>()
            - l.forward(&xm).as_slice().iter().sum::<f32>())
            / (2.0 * eps);
        assert!((fd - dx[(0, 0)]).abs() < 2e-2, "dx finite diff {fd} vs {}", dx[(0, 0)]);
    }

    #[test]
    #[should_panic(expected = "before forward_train")]
    fn backward_without_forward_panics() {
        let mut l = layer(2, 2, Activation::Relu);
        let _ = l.backward(&Matrix::zeros(1, 2));
    }

    /// A clone is the layer's value — parameters and activation — with
    /// the workspace of a freshly built layer, not a copy of the warm one.
    #[test]
    fn clone_copies_parameters_not_workspace() {
        let mut l = layer(4, 3, Activation::Tanh);
        let x = Matrix::from_fn(5, 4, |r, c| ((r * 4 + c) as f32 * 0.23).sin());
        l.forward_train(&x);
        l.backward(&Matrix::filled(5, 3, 0.5));
        let c = l.clone();
        let (mut pl, mut pc) = (Vec::new(), Vec::new());
        l.write_params(&mut pl);
        c.write_params(&mut pc);
        assert_eq!(pl, pc);
        assert_eq!(l.forward(&x), c.forward(&x));
        assert!(l.scratch.has_cache && l.scratch.has_grads, "cloning must not touch the original");
        assert!(!c.scratch.has_cache && !c.scratch.has_grads);
        assert!(c.scratch.cached_input.is_empty() && c.scratch.grad_w.is_empty());
    }

    /// A clone taken between `forward_train` and `backward` holds no
    /// forward cache, so it refuses `backward` exactly like a new layer.
    #[test]
    #[should_panic(expected = "before forward_train")]
    fn backward_on_mid_cycle_clone_panics() {
        let mut l = layer(2, 2, Activation::Relu);
        l.forward_train(&Matrix::zeros(1, 2));
        let _ = l.clone().backward(&Matrix::zeros(1, 2));
    }

    #[test]
    #[should_panic(expected = "before backward")]
    fn apply_grads_without_backward_panics() {
        let mut l = layer(2, 2, Activation::Relu);
        l.apply_grads(|_, _| {});
    }

    /// The persistent caches must make repeated same-shape train cycles
    /// allocation-free, without changing any numeric result.
    #[test]
    fn train_buffers_are_reused_across_batches() {
        let mut l = layer(4, 3, Activation::Tanh);
        let x = Matrix::from_fn(5, 4, |r, c| ((r * 4 + c) as f32 * 0.23).sin());
        let g = Matrix::from_fn(5, 3, |r, c| ((r * 3 + c) as f32 * 0.11).cos());
        let (mut out, mut dx) = (Matrix::default(), Matrix::default());
        l.forward_train_into(&x, &mut out);
        l.backward_into(&g, &mut dx);
        let first = (out.clone(), dx.clone());
        let ptrs = [
            l.scratch.cached_input.as_slice().as_ptr(),
            l.scratch.cached_pre.as_slice().as_ptr(),
            l.scratch.grad_w.as_slice().as_ptr(),
            l.scratch.delta.as_slice().as_ptr(),
            out.as_slice().as_ptr(),
            dx.as_slice().as_ptr(),
        ];
        l.scratch.has_grads = false; // skip the update so weights stay put
        l.forward_train_into(&x, &mut out);
        l.backward_into(&g, &mut dx);
        assert_eq!((out.clone(), dx.clone()), first, "reuse changed the numbers");
        let again = [
            l.scratch.cached_input.as_slice().as_ptr(),
            l.scratch.cached_pre.as_slice().as_ptr(),
            l.scratch.grad_w.as_slice().as_ptr(),
            l.scratch.delta.as_slice().as_ptr(),
            out.as_slice().as_ptr(),
            dx.as_slice().as_ptr(),
        ];
        assert_eq!(ptrs, again, "steady-state train cycle must not reallocate");
    }

    /// `apply_grads_chunked` must walk the exact same (param, grad,
    /// velocity-slot) triplets as the per-scalar closure form.
    #[test]
    fn apply_grads_chunked_is_bit_identical_to_closure_form() {
        let mut a = layer(4, 3, Activation::Relu);
        let mut b = a.clone();
        let x = Matrix::from_fn(6, 4, |r, c| ((r * 4 + c) as f32 * 0.19).sin());
        let g = Matrix::filled(6, 3, 0.5);
        let mut opt_a = Sgd::new(0.1).with_momentum(0.9).with_weight_decay(1e-3);
        let mut opt_b = opt_a.clone();
        for _ in 0..3 {
            a.forward_train(&x);
            a.backward(&g);
            opt_a.begin_step(a.num_params());
            a.apply_grads(|p, grad| opt_a.update(p, grad));

            b.forward_train(&x);
            b.backward(&g);
            opt_b.begin_step(b.num_params());
            b.apply_grads_chunked(&mut opt_b);
        }
        let (mut pa, mut pb) = (Vec::new(), Vec::new());
        a.write_params(&mut pa);
        b.write_params(&mut pb);
        for (x, y) in pa.iter().zip(&pb) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
        }
    }

    #[test]
    fn forward_view_matches_forward_rows() {
        let l = layer(4, 3, Activation::Relu);
        let x = Matrix::from_fn(6, 4, |r, c| ((r * 4 + c) as f32 * 0.31).sin());
        let full = l.forward(&x);
        let part = l.forward_view(x.view_rows(2, 5));
        for r in 0..3 {
            assert_eq!(part.row(r), full.row(r + 2));
        }
    }
}
