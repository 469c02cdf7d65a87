//! Incremental validation engine: confusion-matrix caching for
//! Algorithm 2.
//!
//! `Validator::validate` recomputes one confusion matrix per history model
//! on **every** call — O(ℓ·|D|) forward passes per validator per round —
//! even though the history window shifts by at most one model between
//! rounds. [`ValidationEngine`] wraps a [`Validator`] with a
//! [`ConfusionCache`] keyed by the history's [`ModelId`]s (the same
//! monotone ids [`baffle_fl::history_sync::HistorySync`] ships over the
//! wire), so a warm round evaluates only the candidate and whichever
//! history models it has not seen before — normally just the newest
//! accepted one: O(|D|) forward passes.
//!
//! Three invariants make the cache sound:
//!
//! 1. **Ids are monotone and never reused.** [`crate::ModelHistory`] and
//!    `HistorySync` both retire ids on rollback, so a stale entry can
//!    never alias a future model.
//! 2. **One engine per validation dataset.** A confusion matrix is a
//!    function of (model, dataset); entries computed against one shard
//!    are meaningless for another. Each client owns its engine; the
//!    server owns one for its holdout set.
//! 3. **Shared decision path.** The engine feeds cached matrices into
//!    [`Validator::validate_confusions`] — the same code the uncached
//!    path runs — so cached and uncached validation are bit-identical
//!    (property-tested in `tests/engine_coherence.rs`).
//!
//! The engine has one validation path,
//! [`ValidationEngine::validate_batched`]: the candidate and every
//! window model missing from the cache (all of them on a cold cache —
//! first round, or after a client re-syncs a long history delta) go
//! through one [`ConfusionMatrix::from_models`] call, which runs a
//! plain forward pass per model. Its oracle is the uncached
//! [`Validator::validate_detailed`], which evaluates the whole window
//! every time; results are keyed by id, so evaluation order cannot
//! affect the verdict.

use crate::validate::{Diagnostics, ValidateError, Validator, Verdict, MIN_HISTORY};
use baffle_attack::voting::Vote;
use baffle_data::Dataset;
use baffle_fl::history_sync::ModelId;
use baffle_nn::{ConfusionMatrix, Model};
use std::collections::HashMap;

/// Confusion matrices of already-evaluated history models, keyed by
/// [`ModelId`]. Bounded by the validator's window: every
/// [`ValidationEngine::validate_batched`] call evicts entries outside
/// the ids it was handed.
#[derive(Debug, Clone, Default)]
pub struct ConfusionCache {
    entries: HashMap<ModelId, ConfusionMatrix>,
}

impl ConfusionCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self { entries: HashMap::new() }
    }

    /// The cached matrix for `id`, if present.
    pub fn get(&self, id: ModelId) -> Option<&ConfusionMatrix> {
        self.entries.get(&id)
    }

    /// Whether `id` has a cached matrix.
    pub fn contains(&self, id: ModelId) -> bool {
        self.entries.contains_key(&id)
    }

    /// Stores the matrix for `id`, replacing any previous entry.
    pub fn insert(&mut self, id: ModelId, cm: ConfusionMatrix) {
        self.entries.insert(id, cm);
    }

    /// Drops the entry for `id`, returning whether one existed. Called on
    /// deferred-validation rollback, when an accepted model is popped
    /// from the history and its id retired.
    pub fn invalidate(&mut self, id: ModelId) -> bool {
        self.entries.remove(&id).is_some()
    }

    /// Evicts every entry whose id is not in `window` — the ids currently
    /// eligible for validation — keeping the cache at ≤ ℓ + 1 entries.
    pub fn retain_window(&mut self, window: &[ModelId]) {
        self.entries.retain(|id, _| window.contains(id));
    }

    /// Number of cached matrices.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no matrices.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

/// A [`Validator`] with per-round memory: caches history confusion
/// matrices across calls so each round costs one forward pass over the
/// validation set instead of ℓ + 1.
///
/// # Example
///
/// ```
/// use baffle_core::{ValidationConfig, ValidationEngine, Validator};
///
/// let mut engine = ValidationEngine::new(Validator::new(ValidationConfig::new(5)));
/// assert_eq!(engine.cache_len(), 0);
/// assert_eq!((engine.hits(), engine.misses()), (0, 0));
/// ```
#[derive(Debug, Clone)]
pub struct ValidationEngine {
    validator: Validator,
    cache: ConfusionCache,
    hits: u64,
    misses: u64,
}

impl ValidationEngine {
    /// Wraps `validator` with an empty cache.
    pub fn new(validator: Validator) -> Self {
        Self { validator, cache: ConfusionCache::new(), hits: 0, misses: 0 }
    }

    /// The wrapped validator.
    pub fn validator(&self) -> &Validator {
        &self.validator
    }

    /// Number of history models currently cached.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// History confusion matrices served from cache across all calls.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// History confusion matrices computed (cache misses) across all
    /// calls. The candidate's matrix is always computed fresh and counts
    /// toward neither.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Drops the cached matrix for `id`, returning whether one existed.
    /// Call this when the history rolls back (deferred-validation `pop`)
    /// and the id is retired.
    pub fn invalidate(&mut self, id: ModelId) -> bool {
        self.cache.invalidate(id)
    }

    /// Drops all cached matrices (e.g. when the validation dataset
    /// itself changes).
    pub fn clear(&mut self) {
        self.cache.clear();
    }

    /// Cached equivalent of [`Validator::validate`]: validates `current`
    /// against `history` (oldest first), where `ids[i]` is the stable id
    /// of `history[i]`. See [`ValidationEngine::validate_batched_detailed`].
    ///
    /// # Panics
    ///
    /// Panics if `ids.len() != history.len()`.
    ///
    /// # Errors
    ///
    /// Same as [`Validator::validate`].
    pub fn validate_batched<M: Model + Sync>(
        &mut self,
        current: &M,
        ids: &[ModelId],
        history: &[M],
        data: &Dataset,
    ) -> Result<Verdict, ValidateError> {
        self.validate_batched_detailed(current, ids, history, data).map(|d| d.verdict)
    }

    /// Cached equivalent of [`Validator::validate_detailed`]. The
    /// candidate and every window model missing from the cache are
    /// evaluated by one [`ConfusionMatrix::from_models`] call — one
    /// forward pass over the validation set per model, so a cold cache
    /// costs ℓ + 2 passes and a warm one two (the candidate plus the
    /// newest accepted model), independent of ℓ. Entries that left the
    /// window are evicted, and the decision runs through the shared
    /// [`Validator::validate_confusions`] over the cached matrices, by
    /// reference.
    ///
    /// The diagnostics are bit-identical to the uncached
    /// [`Validator::validate_detailed`] (property-tested in
    /// `tests/engine_coherence.rs`).
    ///
    /// # Panics
    ///
    /// Panics if `ids.len() != history.len()`.
    ///
    /// # Errors
    ///
    /// Same as [`Validator::validate`].
    pub fn validate_batched_detailed<M: Model + Sync>(
        &mut self,
        current: &M,
        ids: &[ModelId],
        history: &[M],
        data: &Dataset,
    ) -> Result<Diagnostics, ValidateError> {
        assert_eq!(
            ids.len(),
            history.len(),
            "ValidationEngine: ids and history must be parallel slices"
        );
        if history.len() < MIN_HISTORY {
            return Err(ValidateError::NotEnoughHistory { got: history.len(), need: MIN_HISTORY });
        }
        if data.is_empty() {
            return Err(ValidateError::EmptyDataset);
        }
        let start = history.len().saturating_sub(self.validator.config().history_size());
        let ids = &ids[start..];
        let window = &history[start..];

        let missing: Vec<usize> =
            (0..window.len()).filter(|&i| !self.cache.contains(ids[i])).collect();
        self.hits += (window.len() - missing.len()) as u64;
        self.misses += missing.len() as u64;

        // Every missing history model and the candidate are evaluated
        // in one call. The candidate rides in the batch but is never
        // cached: it has no id until (and unless) the quorum accepts
        // it, and caching speculative models would let a rejected
        // candidate poison a future lookup.
        let mut batch: Vec<&M> = missing.iter().map(|&i| &window[i]).collect();
        batch.push(current);
        let mut cms = ConfusionMatrix::from_models(&batch, data.features(), data.labels());
        let current_cm = cms.pop().expect("candidate confusion matrix");
        for (&i, cm) in missing.iter().zip(cms) {
            self.cache.insert(ids[i], cm);
        }

        // Entries that left the window go; the decision half of
        // Algorithm 2 runs over the cached window matrices.
        self.cache.retain_window(ids);
        let confusions: Vec<&ConfusionMatrix> =
            ids.iter().map(|&id| self.cache.get(id).expect("window cached")).collect();
        self.validator.validate_confusions(&confusions, &current_cm, data.len())
    }

    /// The vote an in-process validator casts on `current`: the verdict
    /// of [`ValidationEngine::validate_batched`], or
    /// [`Vote::Accept`] when the validator cannot judge (too little
    /// history, no data, degenerate analysis) — footnote 1 of the paper
    /// counts a validator without a verdict as an implicit accept.
    ///
    /// # Panics
    ///
    /// Panics if `ids.len() != history.len()`.
    pub fn vote<M: Model + Sync>(
        &mut self,
        current: &M,
        ids: &[ModelId],
        history: &[M],
        data: &Dataset,
    ) -> Vote {
        self.validate_batched(current, ids, history, data).map_or(Vote::Accept, |v| v.vote())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::ValidationConfig;
    use baffle_tensor::Matrix;

    /// A scripted model, as in `validate.rs` tests: fixed predictions.
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

    fn dataset(n: usize, c: usize) -> Dataset {
        let x = Matrix::zeros(n, 1);
        let y = (0..n).map(|i| i % c).collect();
        Dataset::new(x, y, c)
    }

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

    fn stable_history(data: &Dataset, len: usize) -> Vec<Scripted> {
        (0..len).map(|t| model_with_errors(data, &[t % data.len(), (t + 1) % data.len()])).collect()
    }

    #[test]
    fn cached_matches_uncached_and_counts_hits() {
        let data = dataset(40, 4);
        let history = stable_history(&data, 12);
        let ids: Vec<ModelId> = (0..12).collect();
        let current = model_with_errors(&data, &[12, 13]);
        let validator = Validator::new(ValidationConfig::new(10));
        let mut engine = ValidationEngine::new(validator);

        let plain = validator.validate_detailed(&current, &history, &data);
        let cold = engine.validate_batched_detailed(&current, &ids, &history, &data);
        assert_eq!(cold, plain);
        // Window is ℓ + 1 = 11 models, all cold.
        assert_eq!((engine.hits(), engine.misses()), (0, 11));
        assert_eq!(engine.cache_len(), 11);

        let warm = engine.validate_batched_detailed(&current, &ids, &history, &data);
        assert_eq!(warm, plain);
        assert_eq!((engine.hits(), engine.misses()), (11, 11));
    }

    #[test]
    fn window_shift_costs_one_miss() {
        let data = dataset(40, 4);
        let mut history = stable_history(&data, 11);
        let mut ids: Vec<ModelId> = (0..11).collect();
        let current = model_with_errors(&data, &[3, 4]);
        let mut engine = ValidationEngine::new(Validator::new(ValidationConfig::new(10)));

        engine.validate_batched_detailed(&current, &ids, &history, &data).unwrap();
        assert_eq!(engine.misses(), 11);

        // One acceptance: window slides by one model.
        history.remove(0);
        ids.remove(0);
        history.push(model_with_errors(&data, &[11, 12]));
        ids.push(11);
        engine.validate_batched_detailed(&current, &ids, &history, &data).unwrap();
        assert_eq!(engine.misses(), 12, "only the new model should be computed");
        assert_eq!(engine.hits(), 10);
        assert_eq!(engine.cache_len(), 11, "evicted entry must leave the cache");
    }

    #[test]
    fn invalidate_forces_recompute() {
        let data = dataset(30, 3);
        let history = stable_history(&data, 8);
        let ids: Vec<ModelId> = (0..8).collect();
        let current = model_with_errors(&data, &[5]);
        let mut engine = ValidationEngine::new(Validator::new(ValidationConfig::new(6)));

        engine.validate_batched_detailed(&current, &ids, &history, &data).unwrap();
        let misses = engine.misses();
        assert!(engine.invalidate(4));
        assert!(!engine.invalidate(4), "second invalidate finds nothing");
        engine.validate_batched_detailed(&current, &ids, &history, &data).unwrap();
        assert_eq!(engine.misses(), misses + 1);
    }

    #[test]
    fn errors_match_the_plain_validator_and_skip_the_cache() {
        let data = dataset(10, 2);
        let history = stable_history(&data, 3);
        let ids: Vec<ModelId> = (0..3).collect();
        let mut engine = ValidationEngine::new(Validator::new(ValidationConfig::new(10)));
        let err = engine.validate_batched(&history[0], &ids, &history, &data).unwrap_err();
        assert!(matches!(err, ValidateError::NotEnoughHistory { got: 3, need: 4 }));

        let history = stable_history(&data, 6);
        let ids: Vec<ModelId> = (0..6).collect();
        let empty = Dataset::empty(1, 2);
        let err = engine.validate_batched(&history[0], &ids, &history, &empty).unwrap_err();
        assert_eq!(err, ValidateError::EmptyDataset);
        assert_eq!(engine.cache_len(), 0, "errors must not populate the cache");
    }

    #[test]
    fn vote_is_the_verdict_or_an_accept_when_there_is_none() {
        let data = dataset(40, 4);
        let history = stable_history(&data, 12);
        let ids: Vec<ModelId> = (0..12).collect();
        let validator = Validator::new(ValidationConfig::new(10));
        let mut engine = ValidationEngine::new(validator);
        // An outlier (a quarter of the set newly wrong) and an inlier.
        let wrong: Vec<usize> = (0..10).collect();
        let cases = [
            (model_with_errors(&data, &wrong), Vote::Reject),
            (model_with_errors(&data, &[12, 13]), Vote::Accept),
        ];
        for (current, expected) in cases {
            let verdict = validator.validate(&current, &history, &data).unwrap();
            assert_eq!(verdict.vote(), expected);
            assert_eq!(engine.vote(&current, &ids, &history, &data), expected);
        }
        // Cannot judge (three models of history, then no data): accept.
        assert_eq!(engine.vote(&history[0], &ids[..3], &history[..3], &data), Vote::Accept);
        assert_eq!(engine.vote(&history[0], &ids, &history, &Dataset::empty(1, 4)), Vote::Accept);
    }

    #[test]
    #[should_panic(expected = "parallel slices")]
    fn mismatched_ids_panic() {
        let data = dataset(10, 2);
        let history = stable_history(&data, 6);
        let ids: Vec<ModelId> = (0..5).collect();
        let mut engine = ValidationEngine::new(Validator::new(ValidationConfig::new(4)));
        let _ = engine.validate_batched(&history[0], &ids, &history, &data);
    }
}
