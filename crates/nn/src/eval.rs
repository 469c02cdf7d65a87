//! Model evaluation: confusion matrices and per-class error rates.
//!
//! BaFFLe's validation function (Algorithm 2) is built entirely on
//! *per-class* error rates of the global model over a validation set:
//!
//! - the **source-focused error** `err_D(f)^{y→✱}` — the fraction of
//!   samples in `D` that belong to class `y` and are misclassified, and
//! - the **target-focused error** `err_D(f)^{✱→y}` — the fraction of
//!   samples in `D` that `f` wrongly assigns to class `y`.
//!
//! Both are derived from a [`ConfusionMatrix`].

use crate::Model;
use baffle_tensor::{pool, Matrix};

/// Rows per evaluation chunk when a dataset is split across the worker
/// pool; datasets shorter than twice this evaluate in a single call, so
/// the small validation sets of unit tests never change behaviour.
const EVAL_CHUNK_ROWS: usize = 512;

/// A `num_classes × num_classes` confusion matrix; entry `(t, p)` counts
/// samples with true class `t` predicted as class `p`.
///
/// # Example
///
/// ```
/// use baffle_nn::ConfusionMatrix;
///
/// let mut cm = ConfusionMatrix::new(2);
/// cm.record(0, 0);
/// cm.record(0, 1);
/// cm.record(1, 1);
/// assert_eq!(cm.total(), 3);
/// assert!((cm.accuracy() - 2.0 / 3.0).abs() < 1e-6);
/// assert!((cm.source_error(0) - 1.0 / 3.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    num_classes: usize,
    counts: Vec<u64>,
    total: u64,
}

impl ConfusionMatrix {
    /// An empty confusion matrix over `num_classes` classes.
    ///
    /// # Panics
    ///
    /// Panics if `num_classes == 0`.
    pub fn new(num_classes: usize) -> Self {
        assert!(num_classes > 0, "ConfusionMatrix: need at least one class");
        Self { num_classes, counts: vec![0; num_classes * num_classes], total: 0 }
    }

    /// Builds a confusion matrix by running `model` over a labelled set.
    ///
    /// Large sets (≥ `2 * EVAL_CHUNK_ROWS` rows, pool wider than one
    /// thread) are split into row chunks evaluated on the shared worker
    /// pool via [`Model::predict_rows`] and merged in chunk order;
    /// because predictions are row-wise and [`ConfusionMatrix::merge`]
    /// is plain integer addition, the result is identical to the
    /// single-call path.
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != y.len()` or a label is out of range.
    pub fn from_model<M: Model + Sync + ?Sized>(model: &M, x: &Matrix, y: &[usize]) -> Self {
        assert_eq!(
            x.rows(),
            y.len(),
            "ConfusionMatrix::from_model: {} rows vs {} labels",
            x.rows(),
            y.len()
        );
        if x.rows() >= 2 * EVAL_CHUNK_ROWS && pool::threads() > 1 {
            let chunk = x.rows().div_ceil(pool::threads()).max(EVAL_CHUNK_ROWS);
            return Self::from_model_chunked(model, x, y, chunk);
        }
        let mut cm = Self::new(model.num_classes());
        let preds = model.predict_batch(x);
        for (&t, &p) in y.iter().zip(&preds) {
            cm.record(t, p);
        }
        cm
    }

    /// The chunked path of [`ConfusionMatrix::from_model`]: evaluates
    /// `chunk_rows`-row slices on the worker pool via
    /// [`Model::predict_rows`] (which borrows the rows — no per-chunk
    /// copy of the data) and merges the partial matrices in chunk order.
    fn from_model_chunked<M: Model + Sync + ?Sized>(
        model: &M,
        x: &Matrix,
        y: &[usize],
        chunk_rows: usize,
    ) -> Self {
        let rows = x.rows();
        let ranges: Vec<(usize, usize)> =
            (0..rows).step_by(chunk_rows.max(1)).map(|s| (s, (s + chunk_rows).min(rows))).collect();
        let parts = pool::parallel_map(ranges, |_, (s, e)| {
            let preds = model.predict_rows(x, s, e);
            let mut part = Self::new(model.num_classes());
            for (&t, &p) in y[s..e].iter().zip(&preds) {
                part.record(t, p);
            }
            part
        });
        let mut cm = Self::new(model.num_classes());
        for part in &parts {
            cm.merge(part);
        }
        cm
    }

    /// Builds one confusion matrix per model over the same labelled set:
    /// [`ConfusionMatrix::from_model`] on each model in turn, in `models`
    /// order. This is the validation engine's cold path, where every
    /// history model must be scored on the same shard.
    ///
    /// Deliberately not a packed multi-model GEMM: measured, packing the
    /// operands cost more per model than the plain forward pass does
    /// (DESIGN.md §17 keeps the numbers).
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != y.len()`, the models disagree on the class
    /// count, or a label is out of range.
    pub fn from_models<M: Model + Sync>(models: &[&M], x: &Matrix, y: &[usize]) -> Vec<Self> {
        assert_eq!(
            x.rows(),
            y.len(),
            "ConfusionMatrix::from_models: {} rows vs {} labels",
            x.rows(),
            y.len()
        );
        if let Some(first) = models.first() {
            let nc = first.num_classes();
            for m in models {
                assert_eq!(
                    m.num_classes(),
                    nc,
                    "ConfusionMatrix::from_models: class count mismatch"
                );
            }
        }
        models.iter().map(|m| Self::from_model(*m, x, y)).collect()
    }

    /// Records one `(true, predicted)` observation.
    ///
    /// # Panics
    ///
    /// Panics if either class index is out of range.
    pub fn record(&mut self, true_class: usize, predicted: usize) {
        assert!(
            true_class < self.num_classes && predicted < self.num_classes,
            "ConfusionMatrix::record: ({true_class}, {predicted}) out of range for {} classes",
            self.num_classes
        );
        self.counts[true_class * self.num_classes + predicted] += 1;
        self.total += 1;
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Total number of recorded observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count of samples with true class `t` predicted as `p`.
    pub fn count(&self, t: usize, p: usize) -> u64 {
        self.counts[t * self.num_classes + p]
    }

    /// Overall empirical accuracy `acc_D(f)`; 0 if no observations.
    pub fn accuracy(&self) -> f32 {
        if self.total == 0 {
            return 0.0;
        }
        let correct: u64 = (0..self.num_classes).map(|c| self.count(c, c)).sum();
        correct as f32 / self.total as f32
    }

    /// Overall empirical error `err_D(f) = 1 − acc_D(f)`.
    pub fn error(&self) -> f32 {
        if self.total == 0 {
            return 0.0;
        }
        1.0 - self.accuracy()
    }

    /// Source-focused error `err_D(f)^{y→✱}`: fraction of **all** samples
    /// in `D` that belong to class `y` and are misclassified (paper §V).
    ///
    /// Note the denominator is `|D|`, not the class size — this matches the
    /// paper's definition ("the fraction of samples in `D` which belong to
    /// class `y` and are misclassified by `f`").
    pub fn source_error(&self, y: usize) -> f32 {
        if self.total == 0 {
            return 0.0;
        }
        let wrong: u64 = (0..self.num_classes).filter(|&p| p != y).map(|p| self.count(y, p)).sum();
        wrong as f32 / self.total as f32
    }

    /// Target-focused error `err_D(f)^{✱→y}`: fraction of all samples in
    /// `D` that `f` wrongly assigns to class `y` (paper §V).
    pub fn target_error(&self, y: usize) -> f32 {
        if self.total == 0 {
            return 0.0;
        }
        let wrong: u64 = (0..self.num_classes).filter(|&t| t != y).map(|t| self.count(t, y)).sum();
        wrong as f32 / self.total as f32
    }

    /// Per-class recall (within-class accuracy) for class `y`; 0 when the
    /// class has no samples.
    pub fn recall(&self, y: usize) -> f32 {
        let class_total: u64 = (0..self.num_classes).map(|p| self.count(y, p)).sum();
        if class_total == 0 {
            return 0.0;
        }
        self.count(y, y) as f32 / class_total as f32
    }

    /// All source-focused errors, indexed by class.
    pub fn source_errors(&self) -> Vec<f32> {
        (0..self.num_classes).map(|y| self.source_error(y)).collect()
    }

    /// All target-focused errors, indexed by class.
    pub fn target_errors(&self) -> Vec<f32> {
        (0..self.num_classes).map(|y| self.target_error(y)).collect()
    }

    /// Merges another confusion matrix into this one.
    ///
    /// # Panics
    ///
    /// Panics if the class counts differ.
    pub fn merge(&mut self, other: &ConfusionMatrix) {
        assert_eq!(
            self.num_classes, other.num_classes,
            "ConfusionMatrix::merge: class count mismatch {} vs {}",
            self.num_classes, other.num_classes
        );
        for (a, &b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }
}

/// Backdoor accuracy (eq. 1 of the paper): the fraction of backdoor
/// instances `x` that the model assigns to the attacker's target label.
///
/// # Panics
///
/// Panics if `backdoor_x` is empty.
pub fn backdoor_accuracy<M: Model + ?Sized>(model: &M, backdoor_x: &Matrix, target: usize) -> f32 {
    assert!(backdoor_x.rows() > 0, "backdoor_accuracy: empty backdoor set");
    let preds = model.predict_batch(backdoor_x);
    preds.iter().filter(|&&p| p == target).count() as f32 / preds.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mlp, MlpSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cm_3x3() -> ConfusionMatrix {
        // true 0: 3 correct, 1 -> class 1
        // true 1: 2 correct, 2 -> class 2
        // true 2: 2 correct
        let mut cm = ConfusionMatrix::new(3);
        for _ in 0..3 {
            cm.record(0, 0);
        }
        cm.record(0, 1);
        for _ in 0..2 {
            cm.record(1, 1);
        }
        cm.record(1, 2);
        cm.record(1, 2);
        cm.record(2, 2);
        cm.record(2, 2);
        cm
    }

    #[test]
    fn accuracy_and_error_sum_to_one() {
        let cm = cm_3x3();
        assert_eq!(cm.total(), 10);
        assert!((cm.accuracy() + cm.error() - 1.0).abs() < 1e-6);
        assert!((cm.accuracy() - 0.7).abs() < 1e-6);
    }

    #[test]
    fn source_error_uses_dataset_denominator() {
        let cm = cm_3x3();
        // Class 0 has 1 misclassified of 10 total samples.
        assert!((cm.source_error(0) - 0.1).abs() < 1e-6);
        // Class 1 has 2 misclassified.
        assert!((cm.source_error(1) - 0.2).abs() < 1e-6);
        assert_eq!(cm.source_error(2), 0.0);
    }

    #[test]
    fn target_error_counts_wrong_arrivals() {
        let cm = cm_3x3();
        // One sample wrongly arrives at class 1, two at class 2.
        assert!((cm.target_error(1) - 0.1).abs() < 1e-6);
        assert!((cm.target_error(2) - 0.2).abs() < 1e-6);
        assert_eq!(cm.target_error(0), 0.0);
    }

    #[test]
    fn source_and_target_errors_both_sum_to_total_error() {
        let cm = cm_3x3();
        let s: f32 = cm.source_errors().iter().sum();
        let t: f32 = cm.target_errors().iter().sum();
        assert!((s - cm.error()).abs() < 1e-6);
        assert!((t - cm.error()).abs() < 1e-6);
    }

    #[test]
    fn recall_per_class() {
        let cm = cm_3x3();
        assert!((cm.recall(0) - 0.75).abs() < 1e-6);
        assert!((cm.recall(1) - 0.5).abs() < 1e-6);
        assert!((cm.recall(2) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn recall_of_absent_class_is_zero() {
        let cm = ConfusionMatrix::new(4);
        assert_eq!(cm.recall(3), 0.0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = cm_3x3();
        let b = cm_3x3();
        a.merge(&b);
        assert_eq!(a.total(), 20);
        assert_eq!(a.count(1, 2), 4);
    }

    #[test]
    fn empty_matrix_rates_are_zero() {
        let cm = ConfusionMatrix::new(3);
        assert_eq!(cm.accuracy(), 0.0);
        assert_eq!(cm.error(), 0.0);
        assert_eq!(cm.source_error(0), 0.0);
        assert_eq!(cm.target_error(0), 0.0);
    }

    #[test]
    fn from_model_counts_every_row() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = Mlp::new(&MlpSpec::new(2, &[], 3), &mut rng);
        let x = Matrix::from_fn(7, 2, |r, c| (r + c) as f32);
        let y = vec![0, 1, 2, 0, 1, 2, 0];
        let cm = ConfusionMatrix::from_model(&model, &x, &y);
        assert_eq!(cm.total(), 7);
    }

    #[test]
    fn chunked_evaluation_matches_single_call_exactly() {
        let mut rng = StdRng::seed_from_u64(3);
        let model = Mlp::new(&MlpSpec::new(6, &[8], 4), &mut rng);
        let rows = 1500;
        let x = Matrix::from_fn(rows, 6, |r, c| ((r * 13 + c * 7) % 23) as f32 / 23.0 - 0.5);
        let y: Vec<usize> = (0..rows).map(|r| r % 4).collect();

        let mut serial = ConfusionMatrix::new(model.num_classes());
        for (&t, &p) in y.iter().zip(&model.predict_batch(&x)) {
            serial.record(t, p);
        }
        // Exercise the chunk/merge machinery directly (odd chunk size,
        // ragged tail) so the test is meaningful at any pool width.
        let chunked = ConfusionMatrix::from_model_chunked(&model, &x, &y, 377);
        assert_eq!(serial, chunked);
        // And the public entry point, whatever path it picks.
        assert_eq!(serial, ConfusionMatrix::from_model(&model, &x, &y));
    }

    #[test]
    fn backdoor_accuracy_counts_target_hits() {
        struct Fixed(Vec<usize>);
        impl Model for Fixed {
            fn num_params(&self) -> usize {
                0
            }
            fn params(&self) -> Vec<f32> {
                Vec::new()
            }
            fn set_params(&mut self, _: &[f32]) {}
            fn num_classes(&self) -> usize {
                3
            }
            fn predict_batch(&self, _: &Matrix) -> Vec<usize> {
                self.0.clone()
            }
        }
        let m = Fixed(vec![2, 2, 0, 2]);
        let x = Matrix::zeros(4, 1);
        assert!((backdoor_accuracy(&m, &x, 2) - 0.75).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn record_out_of_range_panics() {
        let mut cm = ConfusionMatrix::new(2);
        cm.record(0, 2);
    }

    #[test]
    fn from_models_matches_from_model() {
        let mut rng = StdRng::seed_from_u64(5);
        let spec = MlpSpec::new(4, &[6], 3);
        let models: Vec<Mlp> = (0..5).map(|_| Mlp::new(&spec, &mut rng)).collect();
        let x = Matrix::from_fn(40, 4, |r, c| ((r * 4 + c) as f32 * 0.37).sin());
        let y: Vec<usize> = (0..40).map(|r| r % 3).collect();
        let refs: Vec<&Mlp> = models.iter().collect();
        let cms = ConfusionMatrix::from_models(&refs, &x, &y);
        assert_eq!(cms.len(), models.len());
        for (i, cm) in cms.iter().enumerate() {
            assert_eq!(cm, &ConfusionMatrix::from_model(&models[i], &x, &y), "model {i}");
        }
    }

    #[test]
    fn from_models_on_empty_model_list_is_empty() {
        let x = Matrix::zeros(3, 2);
        let cms = ConfusionMatrix::from_models::<Mlp>(&[], &x, &[0, 1, 0]);
        assert!(cms.is_empty());
    }
}
