//! Model-replacement attack (Bagdasaryan et al., AISTATS 2020).

use crate::BackdoorSpec;
use baffle_data::Dataset;
use baffle_nn::{Mlp, Model, Sgd};
use baffle_tensor::ops;
use rand::rngs::StdRng;

/// The attacker's local training epochs: longer than honest clients
/// train, to embed the backdoor.
const EPOCHS: usize = 6;
/// The attacker's local learning rate: lower than the honest one, to
/// preserve main-task accuracy.
const LR: f32 = 0.05;
const BATCH_SIZE: usize = 32;

/// The train-and-scale model-replacement attack used as the paper's
/// benchmark (§III-B, §VI-A).
///
/// The attacker trains a local model `X` starting from the global model
/// `G` on a blend of **poisoned** backdoor samples (relabelled to the
/// target class) and its own **clean** data (multi-task learning: the
/// backdoor subtask plus main-task performance), then submits the boosted
/// update
///
/// ```text
/// U = γ · (X − G)
/// ```
///
/// with `γ = N / (λ·n)` so that FedAvg aggregation yields `G' ≈ X` even
/// when the other `n−1` updates are honest.
#[derive(Debug, Clone)]
pub struct ModelReplacement {
    spec: BackdoorSpec,
    boost: f32,
    poison_repeats: usize,
}

impl ModelReplacement {
    /// Creates the attack for a backdoor task with boost factor
    /// `γ = boost` (use [`baffle_fl::FlConfig::replacement_boost`]).
    ///
    /// # Panics
    ///
    /// Panics if `boost` is not finite and positive.
    pub fn new(spec: BackdoorSpec, boost: f32) -> Self {
        assert!(boost.is_finite() && boost > 0.0, "ModelReplacement: boost must be positive");
        Self { spec, boost, poison_repeats: 3 }
    }

    /// The backdoor task being injected.
    pub fn spec(&self) -> &BackdoorSpec {
        &self.spec
    }

    /// The boost factor γ.
    pub fn boost(&self) -> f32 {
        self.boost
    }

    /// How many times the (relabelled) backdoor set is repeated in the
    /// training blend (default 3), controlling the poison ratio.
    pub fn with_poison_repeats(mut self, repeats: usize) -> Self {
        assert!(repeats > 0, "poison_repeats must be positive");
        self.poison_repeats = repeats;
        self
    }

    /// Builds the attacker's local training blend: its clean data plus
    /// `poison_repeats` copies of the backdoor set relabelled to the
    /// target class.
    pub fn training_blend(&self, clean: &Dataset, backdoor: &Dataset) -> Dataset {
        let poisoned = self.spec.poison(backdoor);
        let mut blend = clean.clone();
        for _ in 0..self.poison_repeats {
            blend = blend.concat(&poisoned);
        }
        blend
    }

    /// Trains the backdoored local model `X` from the current global
    /// model (without boosting).
    pub fn train_backdoored(
        &self,
        global: &Mlp,
        clean: &Dataset,
        backdoor: &Dataset,
        rng: &mut StdRng,
    ) -> Mlp {
        let blend = self.training_blend(clean, backdoor);
        let mut local = global.clone();
        let mut opt = Sgd::new(LR).with_momentum(0.9);
        for _ in 0..EPOCHS {
            local.train_epoch(blend.features(), blend.labels(), BATCH_SIZE, &mut opt, rng);
        }
        local
    }

    /// The full attack: returns the boosted poisoned update
    /// `γ · (X − G)`.
    pub fn poisoned_update(
        &self,
        global: &Mlp,
        clean: &Dataset,
        backdoor: &Dataset,
        rng: &mut StdRng,
    ) -> Vec<f32> {
        let x = self.train_backdoored(global, clean, backdoor, rng);
        ops::scale(self.boost, &ops::sub(&x.params(), &global.params()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baffle_data::{SyntheticVision, VisionSpec};
    use baffle_fl::fedavg;
    use baffle_nn::{eval, MlpSpec};
    use rand::SeedableRng;

    struct Fixture {
        gen: SyntheticVision,
        global: Mlp,
        clean: Dataset,
        backdoor: Dataset,
        spec: BackdoorSpec,
        rng: StdRng,
    }

    fn fixture() -> Fixture {
        let mut rng = StdRng::seed_from_u64(21);
        let vspec = VisionSpec::new(5, 12, 3).with_label_noise(0.02);
        let gen = SyntheticVision::new(&vspec, &mut rng);
        let spec = BackdoorSpec::semantic(1, 2, 4);
        // Pre-train the global model on honest data so the attack starts
        // from a converged model, like the paper's stable scenario.
        let train = gen.generate_excluding(&mut rng, 1500, 1, 2);
        let mut global = Mlp::new(&MlpSpec::new(12, &[24], 5), &mut rng);
        let mut opt = Sgd::new(0.1).with_momentum(0.9);
        for _ in 0..20 {
            global.train_epoch(train.features(), train.labels(), 32, &mut opt, &mut rng);
        }
        let clean = gen.generate_excluding(&mut rng, 400, 1, 2);
        let backdoor = gen.generate_subgroup(&mut rng, 60, 1, 2);
        Fixture { gen, global, clean, backdoor, spec, rng }
    }

    #[test]
    fn blend_contains_repeated_poison() {
        let f = fixture();
        let attack = ModelReplacement::new(f.spec, 1.0).with_poison_repeats(2);
        let blend = attack.training_blend(&f.clean, &f.backdoor);
        assert_eq!(blend.len(), f.clean.len() + 2 * f.backdoor.len());
        // All backdoor copies are relabelled to the target class.
        let target_count = blend.labels().iter().filter(|&&y| y == 4).count();
        assert!(target_count >= 2 * f.backdoor.len());
    }

    #[test]
    fn backdoored_model_learns_the_subtask_and_keeps_main_task() {
        let mut f = fixture();
        let attack = ModelReplacement::new(f.spec, 1.0);
        let x = attack.train_backdoored(&f.global, &f.clean, &f.backdoor, &mut f.rng);

        // Backdoor accuracy on *fresh* backdoor instances.
        let mut rng2 = StdRng::seed_from_u64(777);
        let fresh_bd = f.gen.generate_subgroup(&mut rng2, 100, 1, 2);
        let bd_acc = eval::backdoor_accuracy(&x, fresh_bd.features(), 4);
        assert!(bd_acc > 0.8, "backdoor accuracy only {bd_acc}");

        // Main-task accuracy stays close to the clean model's.
        let testset = f.gen.generate_excluding(&mut rng2, 600, 1, 2);
        let clean_acc = f.global.accuracy(testset.features(), testset.labels());
        let poisoned_acc = x.accuracy(testset.features(), testset.labels());
        assert!(
            poisoned_acc > clean_acc - 0.12,
            "main task collapsed: {clean_acc} -> {poisoned_acc}"
        );
    }

    #[test]
    fn boosted_update_survives_fedavg_averaging() {
        let mut f = fixture();
        // FL setting: N = 40 total, λ = 1 ⇒ γ = N/λ = 40 for full replacement.
        let gamma = 40.0 / 1.0;
        let attack = ModelReplacement::new(f.spec, gamma);
        let poisoned = attack.poisoned_update(&f.global, &f.clean, &f.backdoor, &mut f.rng);

        // Three honest (zero) updates plus the poisoned one.
        let zeros = vec![0.0; poisoned.len()];
        let updates = vec![zeros.clone(), zeros.clone(), zeros, poisoned];
        let new_params = fedavg(&f.global.params(), &updates, 1.0, 40);

        let mut new_global = f.global.clone();
        new_global.set_params(&new_params);
        let mut rng2 = StdRng::seed_from_u64(778);
        let fresh_bd = f.gen.generate_subgroup(&mut rng2, 100, 1, 2);
        let bd_acc = eval::backdoor_accuracy(&new_global, fresh_bd.features(), 4);
        assert!(bd_acc > 0.7, "backdoor did not survive aggregation: {bd_acc}");
    }

    #[test]
    fn unboosted_update_is_diluted_by_aggregation() {
        let mut f = fixture();
        let attack = ModelReplacement::new(f.spec, 1.0);
        let poisoned = attack.poisoned_update(&f.global, &f.clean, &f.backdoor, &mut f.rng);
        let zeros = vec![0.0; poisoned.len()];
        let updates = vec![zeros.clone(), zeros.clone(), zeros, poisoned];
        // λ = 1, N = 40: the poisoned update contributes only 1/40 weight.
        let new_params = fedavg(&f.global.params(), &updates, 1.0, 40);
        let mut new_global = f.global.clone();
        new_global.set_params(&new_params);
        let mut rng2 = StdRng::seed_from_u64(779);
        let fresh_bd = f.gen.generate_subgroup(&mut rng2, 100, 1, 2);
        let bd_acc = eval::backdoor_accuracy(&new_global, fresh_bd.features(), 4);
        assert!(bd_acc < 0.5, "unboosted single-client backdoor should dilute: {bd_acc}");
    }

    #[test]
    #[should_panic(expected = "boost must be positive")]
    fn non_positive_boost_panics() {
        let _ = ModelReplacement::new(BackdoorSpec::label_flip(0, 1), 0.0);
    }
}
