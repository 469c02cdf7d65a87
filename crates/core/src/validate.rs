//! The model-validation function (Algorithm 2, §V).
//!
//! Given the current global model `G`, a history of the last `ℓ+1`
//! accepted models and a local validation set `D`, the validator:
//!
//! 1. computes the error-variation vectors `v₁ … v_ℓ` between consecutive
//!    history models and `v_{ℓ+1} = v(𝒢^ℓ, G, D)` for the current model;
//! 2. scores the current variation with the Local Outlier Factor against
//!    the historical variations, `φ_{ℓ+1} = LOF_k(v_{ℓ+1}; v₁…v_ℓ)` with
//!    `k = ⌈ℓ/2⌉`;
//! 3. derives the rejection threshold `τ` as the mean outlier factor of
//!    the last `⌊ℓ/4⌋` *trusted* variations, each scored leave-one-out
//!    against the remaining historical variations;
//! 4. votes "poisoned" iff `φ_{ℓ+1} > τ`.
//!
//! The paper's pseudo-code is partially OCR-garbled; this reconstruction
//! follows the prose exactly (see `DESIGN.md` §6): `k = ⌈ℓ/2⌉`, τ from
//! the last `⌊ℓ/4⌋` trusted updates, decision by comparing the new
//! outlier factor against τ.

use crate::variation::variation_from_confusions;
use baffle_attack::voting::Vote;
use baffle_data::Dataset;
use baffle_lof::{LofError, LofModel};
use baffle_nn::{ConfusionMatrix, Model};
use std::borrow::Borrow;

/// Scores each of the last `tw` references leave-one-out against the
/// remaining ones, in index order (`refs.len() - tw` first); the first
/// probe that cannot be scored is the error.
fn leave_one_out_scores(refs: &[Vec<f32>], k: usize, tw: usize) -> Result<Vec<f64>, LofError> {
    (refs.len() - tw..refs.len())
        .map(|i| {
            let mut others = refs.to_vec();
            let probe = others.remove(i);
            LofModel::fit(others, k)?.score(&probe)
        })
        .collect()
}

/// Parameters of the validation function.
///
/// # Example
///
/// ```
/// use baffle_core::ValidationConfig;
///
/// let c = ValidationConfig::new(20);
/// assert_eq!(c.lookback(), 20);
/// assert_eq!(c.k(), 10);           // ⌈ℓ/2⌉
/// assert_eq!(c.trust_window(), 5); // ⌊ℓ/4⌋
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidationConfig {
    lookback: usize,
    margin: f64,
}

impl ValidationConfig {
    /// Creates the paper-default configuration for look-back window `ℓ`.
    ///
    /// # Panics
    ///
    /// Panics if `lookback < 3` (Algorithm 2 needs enough variations to
    /// form a LOF neighbourhood).
    pub fn new(lookback: usize) -> Self {
        assert!(lookback >= 3, "ValidationConfig: lookback must be at least 3, got {lookback}");
        Self { lookback, margin: 1.0 }
    }

    /// Sets a threshold margin: reject iff `φ > margin · τ`. The paper's
    /// algorithm corresponds to `margin = 1.0` (the default); values
    /// above 1 trade false positives for false negatives.
    pub fn with_margin(mut self, margin: f64) -> Self {
        assert!(margin.is_finite() && margin > 0.0, "margin must be positive");
        self.margin = margin;
        self
    }

    /// The look-back window `ℓ`.
    pub fn lookback(&self) -> usize {
        self.lookback
    }

    /// The LOF neighbourhood size `k = ⌈ℓ/2⌉`.
    pub fn k(&self) -> usize {
        self.lookback.div_ceil(2)
    }

    /// The trusted window `⌊ℓ/4⌋` (at least 1).
    pub fn trust_window(&self) -> usize {
        (self.lookback / 4).max(1)
    }

    /// The rejection-threshold margin.
    pub fn margin(&self) -> f64 {
        self.margin
    }

    /// Number of history models the validator wants: `ℓ + 1`.
    pub fn history_size(&self) -> usize {
        self.lookback + 1
    }
}

/// The outcome of validating one global model, exposing the intermediate
/// quantities so callers can analyse decisions (C-INTERMEDIATE).
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    vote: Vote,
    outlier_factor: f64,
    threshold: f64,
}

impl Verdict {
    /// The validator's vote.
    pub fn vote(&self) -> Vote {
        self.vote
    }

    /// Whether the validator flagged the model as poisoned.
    pub fn is_reject(&self) -> bool {
        matches!(self.vote, Vote::Reject)
    }

    /// `φ_{ℓ+1}`: the LOF of the current model's error variation.
    pub fn outlier_factor(&self) -> f64 {
        self.outlier_factor
    }

    /// `τ`: the rejection threshold derived from trusted updates.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }
}

/// Error cases of [`Validator::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum ValidateError {
    /// The history does not contain enough models to run the analysis.
    NotEnoughHistory {
        /// Models provided.
        got: usize,
        /// Minimum required.
        need: usize,
    },
    /// The validation dataset is empty — the client cannot judge.
    EmptyDataset,
    /// The LOF computation failed (degenerate geometry).
    Lof(LofError),
}

impl std::fmt::Display for ValidateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidateError::NotEnoughHistory { got, need } => {
                write!(f, "validation needs at least {need} history models, got {got}")
            }
            ValidateError::EmptyDataset => write!(f, "validation dataset is empty"),
            ValidateError::Lof(e) => write!(f, "LOF computation failed: {e}"),
        }
    }
}

impl std::error::Error for ValidateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ValidateError::Lof(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LofError> for ValidateError {
    fn from(e: LofError) -> Self {
        ValidateError::Lof(e)
    }
}

/// Minimum number of history models for a meaningful LOF comparison
/// (4 models → 3 variation vectors → 2 references + 1 trusted probe).
pub const MIN_HISTORY: usize = 4;

/// Maximum number of flipped predictions tolerated when the historical
/// variations are exact duplicates (see the quantisation guard in
/// [`Validator::validate`]).
pub const DUPLICATE_GUARD_FLIPS: f32 = 3.0;

/// The VALIDATE routine of Algorithm 2. Any entity holding labelled data
/// — a client or the server — can run it; the entity's data is the `data`
/// argument.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Validator {
    config: ValidationConfig,
}

impl Validator {
    /// Creates a validator with the given configuration.
    pub fn new(config: ValidationConfig) -> Self {
        Self { config }
    }

    /// The validator's configuration.
    pub fn config(&self) -> &ValidationConfig {
        &self.config
    }

    /// Validates `current` against the trusted `history` (oldest first)
    /// using the caller's validation set.
    ///
    /// Only the last `ℓ + 1` history models are used if more are given.
    ///
    /// # Errors
    ///
    /// - [`ValidateError::NotEnoughHistory`] if fewer than
    ///   [`MIN_HISTORY`] models are available;
    /// - [`ValidateError::EmptyDataset`] if `data` has no samples;
    /// - [`ValidateError::Lof`] if the LOF geometry is degenerate.
    pub fn validate<M: Model + Sync>(
        &self,
        current: &M,
        history: &[M],
        data: &Dataset,
    ) -> Result<Verdict, ValidateError> {
        self.validate_detailed(current, history, data).map(|d| d.verdict)
    }

    /// Like [`Validator::validate`], but also returns the intermediate
    /// quantities of Algorithm 2 — the error-variation vector of the
    /// candidate and the trusted outlier factors behind the threshold —
    /// for decision forensics and dashboards.
    ///
    /// # Errors
    ///
    /// Same as [`Validator::validate`].
    pub fn validate_detailed<M: Model + Sync>(
        &self,
        current: &M,
        history: &[M],
        data: &Dataset,
    ) -> Result<Diagnostics, ValidateError> {
        if history.len() < MIN_HISTORY {
            return Err(ValidateError::NotEnoughHistory { got: history.len(), need: MIN_HISTORY });
        }
        if data.is_empty() {
            return Err(ValidateError::EmptyDataset);
        }
        let start = history.len().saturating_sub(self.config.history_size());
        let window = &history[start..];

        // One confusion matrix per model (window + current).
        let confusions: Vec<ConfusionMatrix> = window
            .iter()
            .map(|m| ConfusionMatrix::from_model(m, data.features(), data.labels()))
            .collect();
        let current_cm = ConfusionMatrix::from_model(current, data.features(), data.labels());
        self.validate_confusions(&confusions, &current_cm, data.len())
    }

    /// The decision half of Algorithm 2, starting from precomputed
    /// confusion matrices — `history` holds one matrix, owned or
    /// borrowed, per accepted model (oldest first) over the caller's
    /// validation set, `current` the candidate's matrix over the same
    /// set, and `num_samples` the size of that set (used by the
    /// quantisation guard).
    ///
    /// This is the entry point for callers that cache confusion matrices
    /// across rounds (see [`crate::engine::ValidationEngine`]); the
    /// model-slice API [`Validator::validate_detailed`] delegates here,
    /// so cached and uncached validation share one code path and produce
    /// bit-identical results.
    ///
    /// # Errors
    ///
    /// Same as [`Validator::validate`].
    pub fn validate_confusions(
        &self,
        history: &[impl Borrow<ConfusionMatrix>],
        current: &ConfusionMatrix,
        num_samples: usize,
    ) -> Result<Diagnostics, ValidateError> {
        if history.len() < MIN_HISTORY {
            return Err(ValidateError::NotEnoughHistory { got: history.len(), need: MIN_HISTORY });
        }
        if num_samples == 0 {
            return Err(ValidateError::EmptyDataset);
        }
        let start = history.len().saturating_sub(self.config.history_size());
        let confusions = &history[start..];

        // Historical variations v_1..v_m and the candidate's v_{m+1}.
        let refs: Vec<Vec<f32>> = confusions
            .windows(2)
            .map(|w| variation_from_confusions(w[0].borrow(), w[1].borrow()))
            .collect();
        let v_new = variation_from_confusions(
            confusions.last().expect("window non-empty").borrow(),
            current,
        );

        let k = self.config.k();
        let mut phi_new = LofModel::fit(refs.clone(), k)?.score(&v_new)?;

        // Quantisation guard. On a very stable model, all historical
        // variations can be *exactly* zero (no prediction on `D` changed
        // across the whole window). LOF is then +inf for any non-zero new
        // variation, no matter how small — yet a variation worth a couple
        // of prediction flips on a finite validation set is plain sampling
        // granularity, not poisoning. In that degenerate case we only keep
        // the infinite score if the new variation amounts to more than
        // `DUPLICATE_GUARD_FLIPS` flipped predictions.
        if phi_new.is_infinite() {
            // One flipped prediction changes one source-focused and one
            // target-focused entry by 1/|D| each.
            let flips = v_new.iter().map(|x| x.abs()).sum::<f32>() * num_samples as f32 / 2.0;
            if flips <= DUPLICATE_GUARD_FLIPS {
                phi_new = 1.0;
            }
        }

        // Threshold: mean LOF of the last ⌊ℓ/4⌋ trusted variations, each
        // scored leave-one-out against the remaining references.
        let tw = self.config.trust_window().min(refs.len().saturating_sub(2)).max(1);
        let mut trusted = leave_one_out_scores(&refs, k, tw)?;
        trusted.retain(|phi| phi.is_finite());
        let threshold = if trusted.is_empty() {
            // Degenerate (e.g. duplicate variations): fall back to the
            // canonical LOF inlier level.
            1.0
        } else {
            trusted.iter().sum::<f64>() / trusted.len() as f64
        };

        let vote =
            if phi_new > self.config.margin * threshold { Vote::Reject } else { Vote::Accept };
        Ok(Diagnostics {
            verdict: Verdict { vote, outlier_factor: phi_new, threshold },
            variation: v_new,
            trusted_outlier_factors: trusted,
        })
    }
}

/// Full forensics of one validation decision (see
/// [`Validator::validate_detailed`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostics {
    /// The decision and its headline numbers.
    pub verdict: Verdict,
    /// The candidate's error-variation vector `v_{ℓ+1}` (length
    /// `2·|Y|`: source-focused entries first, then target-focused).
    pub variation: Vec<f32>,
    /// The leave-one-out LOF values of the trusted window that were
    /// averaged into the threshold `τ`.
    pub trusted_outlier_factors: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use baffle_tensor::Matrix;

    /// A scripted model: predicts `labels[i] + shift` (mod classes) for
    /// row `i`, where `wrong` marks rows predicted incorrectly.
    #[derive(Clone)]
    struct Scripted {
        preds: Vec<usize>,
        classes: usize,
    }

    impl Model for Scripted {
        fn num_params(&self) -> usize {
            0
        }
        fn params(&self) -> Vec<f32> {
            Vec::new()
        }
        fn set_params(&mut self, _: &[f32]) {}
        fn num_classes(&self) -> usize {
            self.classes
        }
        fn predict_batch(&self, _: &Matrix) -> Vec<usize> {
            self.preds.clone()
        }
    }

    /// Dataset of `n` samples over `c` classes, labels round-robin.
    fn dataset(n: usize, c: usize) -> Dataset {
        let x = Matrix::zeros(n, 1);
        let y = (0..n).map(|i| i % c).collect();
        Dataset::new(x, y, c)
    }

    /// A model that misclassifies exactly the rows in `wrong` (sending
    /// them to `(y+1) % c`).
    fn model_with_errors(data: &Dataset, wrong: &[usize]) -> Scripted {
        let c = data.num_classes();
        let preds = data
            .labels()
            .iter()
            .enumerate()
            .map(|(i, &y)| if wrong.contains(&i) { (y + 1) % c } else { y })
            .collect();
        Scripted { preds, classes: c }
    }

    /// History with a stable, small per-round error fluctuation: model t
    /// misclassifies rows {t % n, (t+1) % n}.
    fn stable_history(data: &Dataset, len: usize) -> Vec<Scripted> {
        (0..len).map(|t| model_with_errors(data, &[t % data.len(), (t + 1) % data.len()])).collect()
    }

    #[test]
    fn clean_drift_is_accepted() {
        let data = dataset(40, 4);
        let history = stable_history(&data, 12);
        // The next model continues the same gentle drift.
        let current = model_with_errors(&data, &[12, 13]);
        let validator = Validator::new(ValidationConfig::new(10));
        let verdict = validator.validate(&current, &history, &data).unwrap();
        assert!(
            !verdict.is_reject(),
            "clean model rejected: φ={} τ={}",
            verdict.outlier_factor(),
            verdict.threshold()
        );
    }

    #[test]
    fn backdoored_shift_is_rejected() {
        let data = dataset(40, 4);
        let history = stable_history(&data, 12);
        // Poisoned model: suddenly misclassifies every class-1 sample.
        let wrong: Vec<usize> = data.indices_of_class(1);
        let current = model_with_errors(&data, &wrong);
        let validator = Validator::new(ValidationConfig::new(10));
        let verdict = validator.validate(&current, &history, &data).unwrap();
        assert!(
            verdict.is_reject(),
            "poisoned model accepted: φ={} τ={}",
            verdict.outlier_factor(),
            verdict.threshold()
        );
        assert!(verdict.outlier_factor() > verdict.threshold());
    }

    #[test]
    fn identical_model_is_not_an_outlier() {
        let data = dataset(30, 3);
        let history = stable_history(&data, 10);
        let current = history.last().unwrap().clone();
        let validator = Validator::new(ValidationConfig::new(8));
        let verdict = validator.validate(&current, &history, &data).unwrap();
        assert!(!verdict.is_reject());
    }

    #[test]
    fn too_little_history_errors() {
        let data = dataset(10, 2);
        let history = stable_history(&data, 3);
        let current = history[0].clone();
        let validator = Validator::new(ValidationConfig::new(10));
        let err = validator.validate(&current, &history, &data).unwrap_err();
        assert!(matches!(err, ValidateError::NotEnoughHistory { got: 3, need: 4 }));
        assert!(err.to_string().contains("history"));
    }

    #[test]
    fn empty_dataset_errors() {
        let data = dataset(10, 2);
        let history = stable_history(&data, 6);
        let empty = Dataset::empty(1, 2);
        let validator = Validator::new(ValidationConfig::new(5));
        let err = validator.validate(&history[0], &history, &empty).unwrap_err();
        assert_eq!(err, ValidateError::EmptyDataset);
    }

    #[test]
    fn only_the_lookback_window_is_used() {
        let data = dataset(40, 4);
        // Long history whose *early* part is wild but whose recent part is
        // stable: a validator with a short window must ignore the early part.
        let mut history: Vec<Scripted> = (0..5)
            .map(|t| {
                let wrong: Vec<usize> = (0..(t * 7) % 15).map(|i| (i * 3) % 40).collect();
                model_with_errors(&data, &wrong)
            })
            .collect();
        history.extend(stable_history(&data, 12));
        let current = model_with_errors(&data, &[12, 13]);
        let validator = Validator::new(ValidationConfig::new(8));
        let verdict = validator.validate(&current, &history, &data).unwrap();
        assert!(!verdict.is_reject());
    }

    #[test]
    fn margin_trades_fp_for_fn() {
        let data = dataset(40, 4);
        let history = stable_history(&data, 12);
        let wrong: Vec<usize> = data.indices_of_class(1);
        let current = model_with_errors(&data, &wrong);
        // With an absurdly large margin, even the poisoned model passes.
        let lax = Validator::new(ValidationConfig::new(10).with_margin(1e9));
        assert!(!lax.validate(&current, &history, &data).unwrap().is_reject());
    }

    #[test]
    fn config_defaults_match_paper() {
        let c = ValidationConfig::new(20);
        assert_eq!(c.k(), 10);
        assert_eq!(c.trust_window(), 5);
        assert_eq!(c.history_size(), 21);
        assert_eq!(c.margin(), 1.0);
        let c = ValidationConfig::new(10);
        assert_eq!(c.k(), 5);
        assert_eq!(c.trust_window(), 2);
    }

    #[test]
    fn diagnostics_expose_the_decision_internals() {
        let data = dataset(40, 4);
        let history = stable_history(&data, 12);
        let wrong: Vec<usize> = data.indices_of_class(1);
        let poisoned = model_with_errors(&data, &wrong);
        let validator = Validator::new(ValidationConfig::new(10));
        let diag = validator.validate_detailed(&poisoned, &history, &data).unwrap();
        assert_eq!(
            diag.verdict.vote(),
            validator.validate(&poisoned, &history, &data).unwrap().vote()
        );
        assert_eq!(diag.variation.len(), 2 * data.num_classes());
        assert!(!diag.trusted_outlier_factors.is_empty());
        // The threshold is exactly the mean of the trusted factors.
        let mean = diag.trusted_outlier_factors.iter().sum::<f64>()
            / diag.trusted_outlier_factors.len() as f64;
        assert!((diag.verdict.threshold() - mean).abs() < 1e-12);
        // The poisoned model's source-class variation is strongly
        // negative (its error spiked).
        assert!(diag.variation[1] < -0.1, "variation = {:?}", diag.variation);
    }

    #[test]
    fn duplicate_history_falls_back_gracefully() {
        // All history models identical → all variations are zero vectors.
        let data = dataset(20, 2);
        let same = model_with_errors(&data, &[0]);
        let history = vec![same.clone(); 8];
        let validator = Validator::new(ValidationConfig::new(6));
        // A current model with a big shift should still be rejected (LOF
        // of a distinct point vs duplicate refs is +inf > fallback τ).
        let wrong: Vec<usize> = data.indices_of_class(0);
        let poisoned = model_with_errors(&data, &wrong);
        let verdict = validator.validate(&poisoned, &history, &data).unwrap();
        assert!(verdict.is_reject());
        // And the unchanged model is accepted.
        let verdict = validator.validate(&same, &history, &data).unwrap();
        assert!(!verdict.is_reject());
    }
}
