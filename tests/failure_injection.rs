//! Failure-injection tests: the defense pipeline must degrade gracefully
//! under degenerate inputs — empty client shards, NaN-poisoned updates,
//! dropped validators and absurd parameters.

#[path = "../crates/net/tests/common/mod.rs"]
mod common;

use baffle::core::{Simulation, SimulationConfig, ValidateError, ValidationConfig, Validator};
use baffle::data::{Dataset, SyntheticVision, VisionSpec};
use baffle::fl::{fedavg, LocalTrainer};
use baffle::nn::{Mlp, MlpSpec, Model, Sgd};
use baffle::tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tiny_models(n: usize, seed: u64) -> (Vec<Mlp>, Dataset) {
    let mut rng = StdRng::seed_from_u64(seed);
    let gen = SyntheticVision::new(&VisionSpec::new(4, 8, 2), &mut rng);
    let data = gen.generate(&mut rng, 600);
    let mut model = Mlp::new(&MlpSpec::new(8, &[12], 4), &mut rng);
    let mut opt = Sgd::new(0.05).with_momentum(0.9);
    let mut history = Vec::new();
    for _ in 0..n {
        model.train_epoch(data.features(), data.labels(), 32, &mut opt, &mut rng);
        history.push(model.clone());
    }
    (history, data)
}

#[test]
fn empty_client_shards_contribute_zero_updates() {
    let mut rng = StdRng::seed_from_u64(1);
    let gen = SyntheticVision::new(&VisionSpec::new(3, 6, 1), &mut rng);
    let data = gen.generate(&mut rng, 50);
    let model = Mlp::new(&MlpSpec::new(6, &[8], 3), &mut rng);
    let trainer = LocalTrainer::new(2, 0.1, 16);
    let empty = Dataset::empty(6, 3);
    let update = trainer.train_update(&model, &empty, &mut rng);
    assert!(update.iter().all(|&u| u == 0.0));
    // Aggregating only empty-shard updates leaves the model untouched.
    let out = fedavg(&model.params(), &[update], 10.0, 10);
    assert_eq!(out, model.params());
    drop(data);
}

#[test]
fn validator_survives_a_nan_poisoned_candidate() {
    let (history, data) = tiny_models(10, 2);
    let mut nan_model = history.last().unwrap().clone();
    let mut params = nan_model.params();
    params[0] = f32::NAN;
    params[10] = f32::INFINITY;
    nan_model.set_params(&params);

    let validator = Validator::new(ValidationConfig::new(8));
    // Must not panic; a NaN model garbles its own predictions, which the
    // misclassification analysis is free to flag.
    let verdict = validator.validate(&nan_model, &history, &data);
    assert!(verdict.is_ok(), "validator crashed on NaN model: {verdict:?}");
}

#[test]
fn validator_reports_unusable_inputs_as_typed_errors() {
    let (history, data) = tiny_models(10, 3);
    let validator = Validator::new(ValidationConfig::new(8));

    let empty = Dataset::empty(data.input_dim(), data.num_classes());
    assert_eq!(
        validator.validate(history.last().unwrap(), &history, &empty),
        Err(ValidateError::EmptyDataset)
    );
    assert!(matches!(
        validator.validate(history.last().unwrap(), &history[..2], &data),
        Err(ValidateError::NotEnoughHistory { got: 2, need: 4 })
    ));
}

#[test]
fn simulation_tolerates_clients_with_no_data() {
    // A heavily skewed split leaves several clients empty; training and
    // validation must proceed (empty validators abstain).
    let mut config = SimulationConfig::cifar_like_small(4);
    config.total_train = 300; // 20 clients, many will be near-empty
    config.poison_rounds = vec![];
    config.rounds = 6;
    let report = Simulation::new(config).run();
    assert_eq!(report.rounds_run, 6);
}

#[test]
fn single_sample_validation_set_does_not_crash() {
    let (history, data) = tiny_models(10, 5);
    let one = data.subset(&[0]);
    let validator = Validator::new(ValidationConfig::new(8));
    let verdict = validator.validate(history.last().unwrap(), &history, &one);
    assert!(verdict.is_ok());
}

#[test]
fn lossy_network_round_keeps_straggler_tolerance_under_membership_checks() {
    common::on_each_transport(|transport| {
        // A lossy deployment: messages vanish, so some sampled contributors
        // and validators never answer. The server's intake membership checks
        // must not mistake those stragglers for intruders — nothing here is
        // outside its sampled set, so every rejection counter must stay 0
        // while the round machinery keeps running on partial responses.
        use baffle::net::deployment::{Deployment, DeploymentConfig};
        use std::time::Duration;

        let mut config = DeploymentConfig { transport, ..DeploymentConfig::small(17) };
        config.drop_prob = 0.2;
        config.rounds = 5;
        config.phase_timeout = Duration::from_millis(1500);

        let outcome = Deployment::run(config.clone());
        assert_eq!(outcome.rounds.len(), 5);
        assert!(outcome.messages_dropped > 0, "the lossy link must actually lose messages");
        let rejected: usize =
            outcome.rounds.iter().map(|r| r.rejected_submissions + r.rejected_votes).sum();
        assert_eq!(rejected, 0, "honest stragglers must never be counted as intake rejections");
        // Phase-ledger accounting: every sampled validator resolves to at
        // most one of {vote counted, rejected, abstained}; the rest are
        // silent stragglers (implicit accepts). Nothing can be counted
        // twice, so the per-round sum is bounded by the sample size.
        for r in &outcome.rounds {
            assert!(
                r.abstentions + r.votes_received + r.rejected_votes <= config.validators_per_round,
                "round {}: ledger over-counted ({} abstained + {} voted + {} rejected > {})",
                r.round,
                r.abstentions,
                r.votes_received,
                r.rejected_votes,
                config.validators_per_round,
            );
        }
    });
}

#[test]
fn zero_boost_attack_config_is_rejected_loudly() {
    let result = std::panic::catch_unwind(|| {
        baffle::attack::ModelReplacement::new(baffle::attack::BackdoorSpec::label_flip(0, 1), -1.0)
    });
    assert!(result.is_err());
}

#[test]
fn matrix_kernel_rejects_malformed_shapes() {
    let result = std::panic::catch_unwind(|| {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        a.matmul(&b)
    });
    assert!(result.is_err());
}
