//! Comparison harness: every defense against the same model-replacement
//! attack on the same non-IID substrate.
//!
//! One harness run fixes the synthetic problem, the client shards, the
//! warm-started global model and the injection schedule, then plays the
//! FL rounds with a pluggable [`DefenseUnderTest`]. The attacker is
//! allowed its best boost per defense (boosted replacement defeats
//! averaging; unboosted blending slips past norm- and distance-based
//! rules), mirroring a worst-case adaptive adversary.

use crate::aggregators;
use crate::filters::{clip_and_noise, FoolsGold};
use crate::flguard::FlGuard;
use baffle_attack::voting::Vote;
use baffle_attack::{BackdoorSpec, ModelReplacement};
use baffle_core::{tally, ValidationConfig, Validator};
use baffle_data::{partition, SyntheticVision, VisionSpec};
use baffle_fl::{sampling, LocalTrainer};
use baffle_nn::{eval, Mlp, MlpSpec, Model, Sgd};
use baffle_tensor::ops;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which defense aggregates (or vets) the round's updates.
#[derive(Debug, Clone, PartialEq)]
pub enum DefenseUnderTest {
    /// Plain FedAvg (mean of updates) — no defense.
    Mean,
    /// Krum selecting a single update, assuming `f` Byzantine clients.
    Krum {
        /// Assumed number of Byzantine clients.
        f: usize,
    },
    /// Multi-Krum averaging the best `m` updates.
    MultiKrum {
        /// Assumed number of Byzantine clients.
        f: usize,
        /// Number of selected updates.
        m: usize,
    },
    /// Coordinate-wise median.
    Median,
    /// Coordinate-wise trimmed mean dropping `beta` per side.
    TrimmedMean {
        /// Values trimmed per coordinate per side.
        beta: usize,
    },
    /// Robust Federated Aggregation (geometric median).
    GeometricMedian,
    /// Norm clipping plus Gaussian noise.
    ClipNoise {
        /// Norm bound applied to each update.
        max_norm: f32,
        /// Noise standard deviation added to the aggregate.
        noise_std: f32,
    },
    /// FoolsGold similarity re-weighting (stateful across rounds).
    FoolsGoldDefense,
    /// FLGuard/FLAME-style clustering + clipping + noising.
    FlGuardDefense {
        /// Noise scale relative to the clipping bound.
        noise_factor: f32,
    },
    /// The BaFFLe feedback loop with the given look-back and quorum.
    Baffle {
        /// Look-back window ℓ.
        lookback: usize,
        /// Quorum threshold q among the validators.
        quorum: usize,
    },
}

impl DefenseUnderTest {
    /// Short name for result tables.
    pub fn name(&self) -> &'static str {
        match self {
            DefenseUnderTest::Mean => "fedavg (none)",
            DefenseUnderTest::Krum { .. } => "krum",
            DefenseUnderTest::MultiKrum { .. } => "multi-krum",
            DefenseUnderTest::Median => "median",
            DefenseUnderTest::TrimmedMean { .. } => "trimmed-mean",
            DefenseUnderTest::GeometricMedian => "rfa (geo-median)",
            DefenseUnderTest::ClipNoise { .. } => "clip+noise",
            DefenseUnderTest::FoolsGoldDefense => "foolsgold",
            DefenseUnderTest::FlGuardDefense { .. } => "flguard",
            DefenseUnderTest::Baffle { .. } => "baffle",
        }
    }

    /// Whether the rule must see individual updates (incompatible with
    /// secure aggregation) — the paper's deployment argument.
    pub fn needs_individual_updates(&self) -> bool {
        !matches!(self, DefenseUnderTest::Mean | DefenseUnderTest::Baffle { .. })
    }
}

/// Outcome of one harness run.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonOutcome {
    /// Main-task accuracy after the final round.
    pub final_main_accuracy: f32,
    /// Highest backdoor accuracy observed right after any injection.
    pub peak_backdoor_accuracy: f32,
    /// Backdoor accuracy after the final round.
    pub final_backdoor_accuracy: f32,
    /// Rounds the defense rejected (BaFFLe only; 0 otherwise).
    pub rounds_rejected: usize,
    /// The attacker boost that produced this outcome.
    pub boost_used: f32,
}

/// Harness parameters (a scaled-down version of the paper's CIFAR-like
/// stable scenario, small enough to sweep every defense).
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonConfig {
    /// Master seed.
    pub seed: u64,
    /// Recorded FL rounds.
    pub rounds: usize,
    /// Rounds (1-based) with an injection.
    pub poison_rounds: Vec<usize>,
    /// Total clients.
    pub num_clients: usize,
    /// Contributors per round.
    pub clients_per_round: usize,
    /// Honest-pool size.
    pub total_train: usize,
}

impl Default for ComparisonConfig {
    fn default() -> Self {
        Self {
            seed: 1,
            rounds: 16,
            poison_rounds: vec![6, 11],
            num_clients: 40,
            clients_per_round: 8,
            total_train: 8_000,
        }
    }
}

/// Runs one defense against the attack with a fixed boost.
pub fn run_with_boost(
    defense: &DefenseUnderTest,
    config: &ComparisonConfig,
    boost: f32,
) -> ComparisonOutcome {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let spec = VisionSpec::cifar_like();
    let generator = SyntheticVision::new(&spec, &mut rng);
    let backdoor = BackdoorSpec::semantic(1, 0, 2);
    let pool = generator.generate_excluding(&mut rng, config.total_train, 1, 0);
    let (shards, server_data) =
        partition::client_server_split(&mut rng, &pool, config.num_clients, 0.9, 0.05);
    let test = generator.generate_excluding(&mut rng, 1_500, 1, 0);
    let backdoor_test = generator.generate_subgroup(&mut rng, 300, 1, 0);
    let attacker_backdoor = generator.generate_subgroup(&mut rng, 150, 1, 0);

    // Warm start to a stable model.
    let mut global = Mlp::new(&MlpSpec::new(spec.input_dim(), &[48], spec.num_classes()), &mut rng);
    {
        let mut pooled = server_data.clone();
        for s in &shards {
            if !s.is_empty() {
                pooled = pooled.concat(s);
            }
        }
        let mut opt = Sgd::new(0.1).with_momentum(0.9);
        for _ in 0..12 {
            global.train_epoch(pooled.features(), pooled.labels(), 32, &mut opt, &mut rng);
        }
    }

    let trainer = LocalTrainer::new(2, 0.1, 32);
    let attack = ModelReplacement::new(backdoor, boost);
    let validator = Validator::new(ValidationConfig::new(8).with_margin(1.2));
    let mut history: Vec<Mlp> = vec![global.clone()];
    let mut foolsgold = FoolsGold::new();

    // Warm-up rounds for the BaFFLe history (all defenses get them so
    // trajectories stay comparable).
    for _ in 0..10 {
        let contributors =
            sampling::select_clients(&mut rng, config.num_clients, config.clients_per_round);
        let updates: Vec<Vec<f32>> = contributors
            .iter()
            .map(|&c| trainer.train_update(&global, &shards[c], &mut rng))
            .collect();
        let agg = aggregators::mean(&updates).expect("non-empty round");
        let mut p = global.params();
        ops::axpy(1.0, &agg, &mut p);
        global.set_params(&p);
        history.push(global.clone());
        if history.len() > 9 {
            history.remove(0);
        }
    }

    let mut peak_bd = 0.0_f32;
    let mut rejected = 0usize;
    for round in 1..=config.rounds {
        let poisoned = config.poison_rounds.contains(&round);
        let mut contributors =
            sampling::select_clients(&mut rng, config.num_clients, config.clients_per_round);
        if poisoned && !contributors.contains(&0) {
            contributors[0] = 0;
        }
        let mut ids = Vec::new();
        let mut updates = Vec::new();
        for &c in &contributors {
            if poisoned && c == 0 {
                continue;
            }
            ids.push(c);
            updates.push(trainer.train_update(&global, &shards[c], &mut rng));
        }
        if poisoned {
            let mut atk_rng = StdRng::seed_from_u64(rng.gen());
            ids.push(0);
            updates.push(attack.poisoned_update(
                &global,
                &shards[0],
                &attacker_backdoor,
                &mut atk_rng,
            ));
        }

        let n = updates.len();
        let candidate_update = match defense {
            DefenseUnderTest::Mean | DefenseUnderTest::Baffle { .. } => {
                aggregators::mean(&updates).expect("non-empty")
            }
            DefenseUnderTest::Krum { f } => {
                aggregators::krum(&updates, (*f).min(n.saturating_sub(3) / 2)).expect("feasible")
            }
            DefenseUnderTest::MultiKrum { f, m } => {
                aggregators::multi_krum(&updates, (*f).min(n.saturating_sub(3) / 2), (*m).min(n))
                    .expect("feasible")
            }
            DefenseUnderTest::Median => aggregators::median(&updates).expect("non-empty"),
            DefenseUnderTest::TrimmedMean { beta } => {
                aggregators::trimmed_mean(&updates, (*beta).min((n - 1) / 2)).expect("feasible")
            }
            DefenseUnderTest::GeometricMedian => {
                aggregators::geometric_median(&updates, 40, 1e-6).expect("non-empty")
            }
            DefenseUnderTest::ClipNoise { max_norm, noise_std } => {
                clip_and_noise(&updates, *max_norm, *noise_std, &mut rng).expect("non-empty")
            }
            DefenseUnderTest::FoolsGoldDefense => {
                foolsgold.aggregate(&ids, &updates).expect("non-empty")
            }
            DefenseUnderTest::FlGuardDefense { noise_factor } => {
                FlGuard::new(*noise_factor)
                    .aggregate(&updates, &mut rng)
                    .expect("non-empty")
                    .aggregate
            }
        };

        let mut candidate = global.clone();
        let mut p = global.params();
        ops::axpy(1.0, &candidate_update, &mut p);
        candidate.set_params(&p);

        let accept = match defense {
            DefenseUnderTest::Baffle { quorum, .. } => {
                let validators = sampling::select_clients(&mut rng, config.num_clients, 8);
                let mut votes: Vec<Vote> = validators
                    .iter()
                    .map(|&v| match validator.validate(&candidate, &history, &shards[v]) {
                        Ok(verdict) => verdict.vote(),
                        Err(_) => Vote::Accept,
                    })
                    .collect();
                votes.push(match validator.validate(&candidate, &history, &server_data) {
                    Ok(verdict) => verdict.vote(),
                    Err(_) => Vote::Accept,
                });
                tally(&votes, votes.len(), *quorum).decision.is_accepted()
            }
            _ => true,
        };

        if accept {
            global = candidate;
            history.push(global.clone());
            if history.len() > 9 {
                history.remove(0);
            }
        } else {
            rejected += 1;
        }

        if poisoned {
            let bd = eval::backdoor_accuracy(&global, backdoor_test.features(), 2);
            peak_bd = peak_bd.max(bd);
        }
    }

    ComparisonOutcome {
        final_main_accuracy: global.accuracy(test.features(), test.labels()),
        peak_backdoor_accuracy: peak_bd,
        final_backdoor_accuracy: eval::backdoor_accuracy(&global, backdoor_test.features(), 2),
        rounds_rejected: rejected,
        boost_used: boost,
    }
}

/// Runs one defense letting the attacker pick its best boost (the one
/// maximising peak backdoor accuracy).
pub fn run_best_attack(defense: &DefenseUnderTest, config: &ComparisonConfig) -> ComparisonOutcome {
    // Full-replacement boost under mean-of-updates aggregation is the
    // number of reporting clients; 1.0 is the stealthy alternative.
    let boosts = [config.clients_per_round as f32, 1.0];
    boosts
        .iter()
        .map(|&b| run_with_boost(defense, config, b))
        .max_by(|a, b| {
            a.peak_backdoor_accuracy
                .partial_cmp(&b.peak_backdoor_accuracy)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .expect("at least one boost")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config(seed: u64) -> ComparisonConfig {
        ComparisonConfig {
            seed,
            rounds: 8,
            poison_rounds: vec![4],
            num_clients: 20,
            clients_per_round: 6,
            total_train: 3_000,
        }
    }

    #[test]
    fn undefended_mean_lets_the_boosted_backdoor_in() {
        let out = run_with_boost(&DefenseUnderTest::Mean, &quick_config(1), 6.0);
        assert!(out.peak_backdoor_accuracy > 0.5, "boosted attack failed: {out:?}");
        assert!(out.final_main_accuracy > 0.7);
    }

    #[test]
    fn baffle_blocks_what_mean_accepts() {
        let config = quick_config(2);
        let mean = run_with_boost(&DefenseUnderTest::Mean, &config, 6.0);
        let baffle =
            run_with_boost(&DefenseUnderTest::Baffle { lookback: 8, quorum: 4 }, &config, 6.0);
        assert!(baffle.rounds_rejected >= 1, "baffle rejected nothing");
        assert!(
            baffle.peak_backdoor_accuracy < mean.peak_backdoor_accuracy,
            "baffle {:?} vs mean {:?}",
            baffle.peak_backdoor_accuracy,
            mean.peak_backdoor_accuracy
        );
    }

    #[test]
    fn clipping_blunts_the_boosted_attack() {
        let config = quick_config(3);
        let out = run_with_boost(
            &DefenseUnderTest::ClipNoise { max_norm: 1.0, noise_std: 0.0 },
            &config,
            6.0,
        );
        assert!(out.peak_backdoor_accuracy < 0.5, "clipping failed: {out:?}");
    }

    #[test]
    fn best_attack_explores_both_boosts() {
        let config = quick_config(4);
        let out = run_best_attack(&DefenseUnderTest::Median, &config);
        assert!(out.boost_used == 1.0 || out.boost_used == 6.0);
    }

    #[test]
    fn defense_names_are_distinct() {
        let all = [
            DefenseUnderTest::Mean,
            DefenseUnderTest::Krum { f: 1 },
            DefenseUnderTest::MultiKrum { f: 1, m: 4 },
            DefenseUnderTest::Median,
            DefenseUnderTest::TrimmedMean { beta: 1 },
            DefenseUnderTest::GeometricMedian,
            DefenseUnderTest::ClipNoise { max_norm: 1.0, noise_std: 0.01 },
            DefenseUnderTest::FoolsGoldDefense,
            DefenseUnderTest::Baffle { lookback: 8, quorum: 4 },
        ];
        let mut names: Vec<&str> = all.iter().map(|d| d.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
        assert!(!DefenseUnderTest::Mean.needs_individual_updates());
        assert!(!DefenseUnderTest::Baffle { lookback: 8, quorum: 4 }.needs_individual_updates());
        assert!(DefenseUnderTest::Median.needs_individual_updates());
    }
}
