//! Cache-coherence property: the incremental [`ValidationEngine`]
//! (evaluation of only the missing models over a confusion-matrix cache)
//! and the plain [`Validator`] (its oracle: the whole window evaluated
//! every time, nothing cached) must return **bit-identical** results — vote, outlier
//! factor φ, threshold τ, diagnostics, and errors — across arbitrary
//! sequences of accepted rounds, rejected rounds and deferred-validation
//! rollbacks. Both share the same decision code
//! (`Validator::validate_confusions`), so any divergence means the
//! cache served a wrong or stale confusion matrix, or a batch result
//! was filed under the wrong id.

use baffle_core::{ValidationConfig, ValidationEngine, Validator};
use baffle_data::Dataset;
use baffle_fl::history_sync::ModelId;
use baffle_nn::Model;
use baffle_tensor::Matrix;
use proptest::prelude::*;

/// A scripted model with fixed predictions (no parameters), mirroring
/// the unit-test substrate of `validate.rs`.
#[derive(Clone, Debug)]
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Ops: 0 = round accepted (validate, then push the candidate),
    /// 1 = round rejected (validate, window unchanged),
    /// 2 = deferred-validation rollback (pop + invalidate).
    /// The second byte seeds the candidate's error pattern.
    #[test]
    fn cached_and_uncached_validators_agree(
        ops in prop::collection::vec((0u8..3, 0u8..=255u8), 1..40),
    ) {
        let data = dataset(30, 3);
        let validator = Validator::new(ValidationConfig::new(6));
        let mut engine = ValidationEngine::new(validator);

        let mut next_id: ModelId = 0;
        let mut window: Vec<(ModelId, Scripted)> = Vec::new();
        for t in 0..4 {
            window.push((next_id, model_with_errors(&data, &[t % 30, (t + 1) % 30])));
            next_id += 1;
        }
        let cap = validator.config().history_size();

        for (op, x) in ops {
            let x = x as usize;
            match op {
                0 | 1 => {
                    let candidate = model_with_errors(&data, &[x % 30, (x / 7) % 30]);
                    let ids: Vec<ModelId> = window.iter().map(|(id, _)| *id).collect();
                    let models: Vec<Scripted> =
                        window.iter().map(|(_, m)| m.clone()).collect();
                    let cached =
                        engine.validate_batched_detailed(&candidate, &ids, &models, &data);
                    let plain = validator.validate_detailed(&candidate, &models, &data);
                    prop_assert_eq!(&cached, &plain, "cached and plain paths diverged");
                    if op == 0 {
                        window.push((next_id, candidate));
                        next_id += 1;
                        while window.len() > cap {
                            window.remove(0);
                        }
                    }
                }
                _ => {
                    // Rollback, keeping enough history for MIN_HISTORY.
                    if window.len() > 4 {
                        let (retired, _) = window.pop().unwrap();
                        engine.invalidate(retired);
                    }
                }
            }
        }
    }
}
