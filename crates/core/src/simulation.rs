//! End-to-end experiment driver combining the FL substrate, attacks and
//! the BaFFLe defense — the engine behind every table and figure of the
//! paper's evaluation (§VI).
//!
//! A [`Simulation`] owns a synthetic federated problem (clients, server
//! share, attacker data), runs the FL loop round by round, injects
//! model-replacement attacks on scripted rounds, applies the configured
//! defense, and records per-round ground truth vs decisions into a
//! [`SimulationReport`].

use crate::engine::ValidationEngine;
use crate::feedback::{tally, Decision, Tally};
use crate::history::ModelHistory;
use crate::metrics::DetectionCounts;
use crate::validate::{ValidationConfig, Validator, MIN_HISTORY};
use baffle_attack::adaptive::dampen_until_accepted;
use baffle_attack::voting::{Vote, VoterBehavior};
use baffle_attack::{BackdoorSpec, ModelReplacement};
use baffle_data::{partition, Dataset, SyntheticVision, VisionSpec};
use baffle_fl::secagg::SecAggSession;
use baffle_fl::{fedavg, sampling, FlConfig, LocalTrainer};
use baffle_nn::{eval, Mlp, MlpSpec, Model, Sgd};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which of the paper's two evaluation settings to emulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// 10 classes, semantic backdoor ("striped cars → birds").
    CifarLike,
    /// 62 classes, many clients, label-flip backdoor.
    FemnistLike,
}

/// Which entities validate the global model (paper §VI-A, "defender
/// configurations").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DefenseMode {
    /// No defense: every update is accepted.
    Off,
    /// BAFFLE-S: only the server validates, on its own data share.
    ServerOnly,
    /// BAFFLE-C: only randomly chosen clients validate.
    ClientsOnly,
    /// BAFFLE: clients validate and the server adds its own vote.
    #[default]
    Both,
}

/// How client datasets are materialised.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ClientDataModel {
    /// Partition one honest pool with a symmetric Dirichlet over clients
    /// (the paper's §VI-A setup). For the semantic backdoor, the honest
    /// pool *excludes* the backdoor subpopulation — the paper's
    /// worst-case assumption that no validating client holds backdoor
    /// data.
    #[default]
    Dirichlet,
    /// Every client is a distinct *writer* with its own style offset
    /// (FEMNIST's natural non-IID structure). Writers draw from the full
    /// distribution, so honest clients may hold correctly-labelled
    /// backdoor-feature samples — the strictly weaker attack setting of
    /// Sun et al. that the paper contrasts itself against (§VII).
    Writers {
        /// Style-offset scale; larger = more distinct writers.
        style_std: f32,
        /// Samples generated per client.
        samples_per_client: usize,
    },
}

/// The attacker's update-crafting strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AttackKind {
    /// Plain model replacement (train-and-scale).
    #[default]
    Replacement,
    /// Defense-aware: dampen the poisoned update until the attacker's
    /// local copy of VALIDATE accepts it (§VI-C).
    Adaptive,
}

/// Full configuration of one simulated experiment.
///
/// Fields are public: this is a passive experiment descriptor consumed by
/// [`Simulation::new`], which validates it. Use the presets
/// ([`SimulationConfig::cifar_like`], [`SimulationConfig::femnist_like`],
/// [`SimulationConfig::cifar_like_small`]) and adjust fields as needed.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationConfig {
    /// Master seed; every random choice derives from it.
    pub seed: u64,
    /// Which paper scenario to emulate.
    pub dataset: DatasetKind,
    /// Total training samples generated for the honest pool.
    pub total_train: usize,
    /// Samples in the held-out main-task test set.
    pub test_samples: usize,
    /// Total number of FL clients (`N`).
    pub num_clients: usize,
    /// Contributing clients per round (`n`).
    pub clients_per_round: usize,
    /// Fraction of all data held by the server (the `S` of the paper's
    /// C-S% splits).
    pub server_share: f64,
    /// Dirichlet concentration for the non-IID client split (paper: 0.9).
    pub dirichlet_alpha: f64,
    /// Hidden-layer widths of the model substrate.
    pub hidden: Vec<usize>,
    /// Local training epochs per contributor (paper: 2).
    pub local_epochs: usize,
    /// Local SGD learning rate (paper: 0.1).
    pub local_lr: f32,
    /// Local mini-batch size.
    pub batch_size: usize,
    /// Global learning rate λ; `None` uses the full-replacement `N/n`.
    pub global_lr: Option<f32>,
    /// Central pre-training epochs emulating the paper's long
    /// stabilisation phase (0 = train from scratch, as in Fig. 4).
    pub warmup_central_epochs: usize,
    /// Clean FL rounds run before round 1 to fill the model history.
    pub warmup_rounds: usize,
    /// Number of recorded FL rounds.
    pub rounds: usize,
    /// Defender configuration.
    pub defense: DefenseMode,
    /// Look-back window `ℓ`.
    pub lookback: usize,
    /// Quorum threshold `q`.
    pub quorum: usize,
    /// Validating clients per round (paper: 10).
    pub validators_per_round: usize,
    /// Rejection-threshold margin (1.0 = the paper's Algorithm 2).
    pub margin: f64,
    /// First recorded round at which the defense is active (1-based).
    pub defense_start_round: usize,
    /// Attack strategy.
    pub attack: AttackKind,
    /// Recorded rounds (1-based) in which the attacker injects.
    pub poison_rounds: Vec<usize>,
    /// Backdoor training samples held by the attacker.
    pub backdoor_samples: usize,
    /// Backdoor test samples used to measure backdoor accuracy.
    pub backdoor_test_samples: usize,
    /// Boost factor γ; `None` uses `N/λ` (full replacement).
    pub boost: Option<f32>,
    /// Number of attacker-controlled clients (they stealth-accept when
    /// selected as validators). The attacker itself is client 0.
    pub malicious_clients: usize,
    /// Voting behaviour of attacker-controlled validators.
    pub malicious_voter_behavior: VoterBehavior,
    /// Whether updates travel through the secure-aggregation simulation.
    pub use_secagg: bool,
    /// Whether to measure main/backdoor accuracy every round (adds one
    /// test-set evaluation per round).
    pub track_accuracy: bool,
    /// Overrides the synthetic-problem spec (defaults to the dataset's
    /// preset). Used by ablations that vary task difficulty.
    pub vision_override: Option<VisionSpec>,
    /// How client shards are materialised (Dirichlet split or per-writer
    /// generation).
    pub client_data: ClientDataModel,
    /// Deferred validation (§VI-D communication optimisation): the
    /// validating clients coincide with the round's contributors, who
    /// vote on the **previous** round's model before training. Detection
    /// lags one round — a poisoned model is live until the next round's
    /// contributors roll it back.
    pub deferred_validation: bool,
}

impl SimulationConfig {
    /// The paper's CIFAR-10 setting, scaled to laptop size: 100 clients,
    /// 10 per round, semantic backdoor, stable-model scenario of §VI-B
    /// (defense enabled after 20 warm-up rounds; injections at recorded
    /// rounds 10, 15 and 20 ≙ the paper's rounds 30, 35, 40).
    pub fn cifar_like(seed: u64) -> Self {
        Self {
            seed,
            dataset: DatasetKind::CifarLike,
            total_train: 20_000,
            test_samples: 2_000,
            num_clients: 100,
            clients_per_round: 10,
            server_share: 0.10,
            dirichlet_alpha: 0.9,
            hidden: vec![64],
            local_epochs: 2,
            local_lr: 0.1,
            batch_size: 32,
            global_lr: None,
            warmup_central_epochs: 15,
            warmup_rounds: 21,
            rounds: 30,
            defense: DefenseMode::Both,
            lookback: 20,
            quorum: 5,
            validators_per_round: 10,
            // The paper's literal mean-LOF threshold (margin 1.0) is a
            // coin flip on a low-noise substrate (DESIGN.md §6); the
            // presets apply the calibrated 20% margin, which reproduces
            // the paper's per-configuration FP ordering and magnitudes.
            margin: 1.2,
            defense_start_round: 1,
            attack: AttackKind::Replacement,
            poison_rounds: vec![10, 15, 20],
            backdoor_samples: 200,
            backdoor_test_samples: 300,
            boost: None,
            malicious_clients: 1,
            malicious_voter_behavior: VoterBehavior::StealthAccept,
            use_secagg: false,
            track_accuracy: false,
            vision_override: None,
            client_data: ClientDataModel::Dirichlet,
            deferred_validation: false,
        }
    }

    /// The paper's FEMNIST setting, scaled: 62 classes, 355 clients
    /// (×0.1 of the paper's 3550), label-flip backdoor.
    pub fn femnist_like(seed: u64) -> Self {
        Self {
            dataset: DatasetKind::FemnistLike,
            total_train: 30_000,
            test_samples: 3_000,
            num_clients: 355,
            clients_per_round: 10,
            server_share: 0.01,
            hidden: vec![96],
            backdoor_samples: 250,
            backdoor_test_samples: 300,
            warmup_central_epochs: 25,
            ..Self::cifar_like(seed)
        }
    }

    /// A miniature FEMNIST-like configuration (label-flip backdoor, many
    /// classes) that finishes in seconds — used by tests and examples.
    pub fn femnist_like_small(seed: u64) -> Self {
        Self {
            dataset: DatasetKind::FemnistLike,
            total_train: 3_000,
            test_samples: 500,
            num_clients: 30,
            clients_per_round: 6,
            server_share: 0.01,
            hidden: vec![48],
            warmup_central_epochs: 20,
            backdoor_samples: 150,
            backdoor_test_samples: 150,
            ..Self::cifar_like_small(seed)
        }
    }

    /// A miniature configuration that finishes in seconds even in debug
    /// builds — used by doctests, examples and integration tests.
    pub fn cifar_like_small(seed: u64) -> Self {
        Self {
            total_train: 1_200,
            test_samples: 300,
            num_clients: 20,
            clients_per_round: 5,
            hidden: vec![24],
            warmup_central_epochs: 12,
            warmup_rounds: 8,
            rounds: 10,
            lookback: 6,
            quorum: 3,
            validators_per_round: 6,
            poison_rounds: vec![6],
            backdoor_samples: 120,
            backdoor_test_samples: 150,
            ..Self::cifar_like(seed)
        }
    }

    fn vision_spec(&self) -> VisionSpec {
        if let Some(spec) = &self.vision_override {
            return spec.clone();
        }
        match self.dataset {
            DatasetKind::CifarLike => VisionSpec::cifar_like(),
            DatasetKind::FemnistLike => VisionSpec::femnist_like(),
        }
    }

    fn fl_config(&self) -> FlConfig {
        let mut c = FlConfig::new(self.num_clients, self.clients_per_round)
            .with_local_epochs(self.local_epochs)
            .with_local_lr(self.local_lr)
            .with_batch_size(self.batch_size);
        if let Some(lr) = self.global_lr {
            c = c.with_global_lr(lr);
        }
        c
    }

    fn validation_config(&self) -> ValidationConfig {
        ValidationConfig::new(self.lookback).with_margin(self.margin)
    }
}

/// What happened in one recorded FL round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// 1-based recorded round number.
    pub round: usize,
    /// Ground truth: did the attacker inject this round?
    pub poisoned: bool,
    /// Whether the defense evaluated this round's update.
    pub defense_active: bool,
    /// The server's decision (always `Accepted` when the defense is off).
    pub decision: Decision,
    /// Reject votes received (clients + server, depending on the mode).
    pub reject_votes: usize,
    /// Total votes cast.
    pub votes_cast: usize,
    /// The server's own vote, when it validates.
    pub server_vote: Option<Vote>,
    /// Main-task accuracy of the round's *resulting* global model (only
    /// if `track_accuracy`).
    pub main_accuracy: Option<f32>,
    /// Backdoor accuracy of the round's resulting global model (only if
    /// `track_accuracy`).
    pub backdoor_accuracy: Option<f32>,
    /// For adaptive injections: did the attacker's own validator accept
    /// its damped update?
    pub adaptive_self_accepted: Option<bool>,
    /// For poison rounds: backdoor accuracy the *candidate* model would
    /// have had (measured before the accept/reject decision). Used to
    /// separate effective injections from fizzled ones.
    pub candidate_backdoor_accuracy: Option<f32>,
}

impl RoundRecord {
    /// Whether this round carried an **effective** backdoor: the attacker
    /// injected and the candidate model actually classifies the majority
    /// of backdoor instances as the target (cf. Table II's "adaptive
    /// injections", which are counted only when the attack is live).
    pub fn effectively_backdoored(&self) -> bool {
        self.poisoned && self.candidate_backdoor_accuracy.is_none_or(|a| a >= 0.5)
    }

    /// A poison-round attempt whose damped update no longer carries the
    /// backdoor — excluded from both FP and FN accounting.
    pub fn fizzled_attack(&self) -> bool {
        self.poisoned && !self.effectively_backdoored()
    }
}

/// Aggregated outcome of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationReport {
    /// Number of recorded rounds.
    pub rounds_run: usize,
    /// Per-round records, in order.
    pub records: Vec<RoundRecord>,
    counts: DetectionCounts,
}

impl SimulationReport {
    /// Detection counts over rounds where the defense was active.
    pub fn counts(&self) -> &DetectionCounts {
        &self.counts
    }

    /// Clean updates wrongly rejected (defense-active rounds only).
    pub fn false_positives(&self) -> usize {
        self.counts.false_positives()
    }

    /// Poisoned updates wrongly accepted (defense-active rounds only).
    pub fn false_negatives(&self) -> usize {
        self.counts.false_negatives()
    }

    /// False-positive rate over defense-active clean rounds.
    pub fn fp_rate(&self) -> f64 {
        self.counts.false_positive_rate()
    }

    /// False-negative rate over defense-active poisoned rounds.
    pub fn fn_rate(&self) -> f64 {
        self.counts.false_negative_rate()
    }

    /// Reject-vote counts of the poisoned rounds (for Fig. 5's vote
    /// distribution).
    pub fn poison_vote_counts(&self) -> Vec<usize> {
        self.records
            .iter()
            .filter(|r| r.poisoned && r.defense_active)
            .map(|r| r.reject_votes)
            .collect()
    }

    /// Estimates ρ — the fraction of honest validators that judge a
    /// poisoned model correctly (§IV-B) — from the reject votes cast on
    /// effective injections. Returns `None` when no defended injection
    /// was observed.
    ///
    /// Plugging the estimate into
    /// [`crate::feedback::max_tolerable_malicious`] yields the §VI-C
    /// bound on tolerable malicious clients.
    pub fn estimate_rho(&self, validators_per_round: usize) -> Option<f64> {
        let counts: Vec<usize> = self
            .records
            .iter()
            .filter(|r| r.defense_active && r.effectively_backdoored())
            .map(|r| {
                let server_reject = matches!(r.server_vote, Some(Vote::Reject)) as usize;
                r.reject_votes.saturating_sub(server_reject)
            })
            .collect();
        if counts.is_empty() || validators_per_round == 0 {
            return None;
        }
        Some(counts.iter().sum::<usize>() as f64 / (counts.len() * validators_per_round) as f64)
    }
}

/// A fully materialised experiment: data, models, attacker and defense.
#[derive(Debug)]
pub struct Simulation {
    config: SimulationConfig,
    rng: StdRng,
    generator: SyntheticVision,
    client_shards: Vec<Dataset>,
    server_data: Dataset,
    test_data: Dataset,
    backdoor_train: Dataset,
    backdoor_test: Dataset,
    backdoor: BackdoorSpec,
    global: Mlp,
    history: ModelHistory,
    trainer: LocalTrainer,
    validator: Validator,
    /// One incremental validation engine per client shard: confusion
    /// matrices are a function of (model, dataset), so caches cannot be
    /// shared across shards. Mutex-wrapped because the validation phase
    /// fans out over scoped threads.
    client_engines: Vec<Mutex<ValidationEngine>>,
    /// The server's own engine over its holdout share.
    server_engine: ValidationEngine,
    fl: FlConfig,
    round_index: usize,
    /// Deferred mode: ground truth of the latest integrated, not yet
    /// voted-on candidate — whether it was injected, and its backdoor
    /// probe.
    pending: (bool, Option<f32>),
}

impl Simulation {
    /// Materialises the experiment: draws the synthetic problem, splits
    /// data between clients/server/attacker, pre-trains the global model
    /// (the paper's "stable model" precondition) and runs the clean
    /// warm-up rounds that fill the model history.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (e.g. quorum larger
    /// than the number of voters, more malicious clients than clients).
    pub fn new(config: SimulationConfig) -> Self {
        let voters = match config.defense {
            DefenseMode::Off | DefenseMode::ServerOnly => None,
            DefenseMode::ClientsOnly => Some(config.validators_per_round),
            DefenseMode::Both => Some(config.validators_per_round + 1),
        };
        if let Some(voters) = voters {
            assert!(
                config.quorum >= 1 && config.quorum <= voters,
                "SimulationConfig: quorum {} outside 1..={voters}",
                config.quorum
            );
        }
        assert!(
            config.malicious_clients <= config.num_clients,
            "SimulationConfig: more malicious clients than clients"
        );
        assert!(
            config.validators_per_round <= config.num_clients,
            "SimulationConfig: more validators than clients"
        );

        let mut rng = StdRng::seed_from_u64(config.seed);
        let spec = config.vision_spec();
        let generator = SyntheticVision::new(&spec, &mut rng);

        // Backdoor task. CIFAR-like: a fixed semantic subtask (class 1
        // "cars" with feature 0 "striped background" → class 2 "birds").
        // FEMNIST-like: label-flip of a class the attacker has lots of,
        // towards a random other class (paper §VI-A).
        let (backdoor, honest_pool) = match config.dataset {
            DatasetKind::CifarLike => {
                let spec = BackdoorSpec::semantic(1, 0, 2);
                // Honest participants hold no backdoor-feature data
                // (worst case, §I).
                let pool = generator.generate_excluding(&mut rng, config.total_train, 1, 0);
                (spec, pool)
            }
            DatasetKind::FemnistLike => {
                let source = rng.gen_range(0..spec.num_classes());
                let target = loop {
                    let t = rng.gen_range(0..spec.num_classes());
                    if t != source {
                        break t;
                    }
                };
                let pool = generator.generate(&mut rng, config.total_train);
                (BackdoorSpec::label_flip(source, target), pool)
            }
        };

        let (client_shards, server_data) = match config.client_data {
            ClientDataModel::Dirichlet => partition::client_server_split(
                &mut rng,
                &honest_pool,
                config.num_clients,
                config.dirichlet_alpha,
                config.server_share,
            ),
            ClientDataModel::Writers { style_std, samples_per_client } => {
                let styles = generator.writer_styles(&mut rng, config.num_clients, style_std);
                let shards: Vec<Dataset> = styles
                    .iter()
                    .map(|style| generator.generate_writer(&mut rng, samples_per_client, style))
                    .collect();
                let server_n = (config.server_share * config.total_train as f64).round() as usize;
                let (server, _) = honest_pool.split_random(&mut rng, server_n);
                (shards, server)
            }
        };

        let test_data = match config.dataset {
            DatasetKind::CifarLike => generator.generate_excluding(
                &mut rng,
                config.test_samples,
                backdoor.source_class(),
                backdoor.subgroup().unwrap_or(0),
            ),
            DatasetKind::FemnistLike => generator.generate(&mut rng, config.test_samples),
        };

        let backdoor_train = match backdoor.subgroup() {
            Some(sg) => generator.generate_subgroup(
                &mut rng,
                config.backdoor_samples,
                backdoor.source_class(),
                sg,
            ),
            None => {
                generator.generate_class(&mut rng, config.backdoor_samples, backdoor.source_class())
            }
        };
        let backdoor_test = match backdoor.subgroup() {
            Some(sg) => generator.generate_subgroup(
                &mut rng,
                config.backdoor_test_samples,
                backdoor.source_class(),
                sg,
            ),
            None => generator.generate_class(
                &mut rng,
                config.backdoor_test_samples,
                backdoor.source_class(),
            ),
        };

        let mlp_spec = MlpSpec::new(spec.input_dim(), &config.hidden, spec.num_classes());
        let mut global = Mlp::new(&mlp_spec, &mut rng);

        // Stable-model warm start: central training on the pooled honest
        // data stands in for the paper's 10 000 pre-stabilisation rounds.
        if config.warmup_central_epochs > 0 {
            let mut pooled = server_data.clone();
            for shard in &client_shards {
                if !shard.is_empty() {
                    pooled = pooled.concat(shard);
                }
            }
            let mut opt = Sgd::new(config.local_lr).with_momentum(0.9);
            for _ in 0..config.warmup_central_epochs {
                global.train_epoch(
                    pooled.features(),
                    pooled.labels(),
                    config.batch_size,
                    &mut opt,
                    &mut rng,
                );
            }
        }

        let fl = config.fl_config();
        let trainer = LocalTrainer::from_config(&fl);
        let validator = Validator::new(config.validation_config());
        let client_engines =
            client_shards.iter().map(|_| Mutex::new(ValidationEngine::new(validator))).collect();
        let server_engine = ValidationEngine::new(validator);
        let mut history = ModelHistory::new(config.lookback + 1);
        history.push(global.clone());

        let mut sim = Self {
            config,
            rng,
            generator,
            client_shards,
            server_data,
            test_data,
            backdoor_train,
            backdoor_test,
            backdoor,
            global,
            history,
            trainer,
            validator,
            client_engines,
            server_engine,
            fl,
            round_index: 0,
            pending: (false, None),
        };

        // Clean warm-up rounds: accepted unconditionally, filling the
        // history with genuine cross-round variations. Summed in the
        // clear whatever `use_secagg` says: these rounds precede the
        // protocol, so they have no round number to key a masking
        // session with, and masking them would move every seeded outcome
        // downstream of the warm start.
        for _ in 0..sim.config.warmup_rounds {
            let contributors = sampling::select_clients(
                &mut sim.rng,
                sim.config.num_clients,
                sim.fl.clients_per_round(),
            );
            (sim.global, _) = sim.candidate(&contributors, false, None);
            sim.history.push(sim.global.clone());
        }
        sim
    }

    /// The experiment configuration.
    pub fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// The backdoor task the attacker pursues.
    pub fn backdoor(&self) -> &BackdoorSpec {
        &self.backdoor
    }

    /// The current global model.
    pub fn global_model(&self) -> &Mlp {
        &self.global
    }

    /// The synthetic problem instance this experiment draws from.
    pub fn generator(&self) -> &SyntheticVision {
        &self.generator
    }

    /// The server's validation data share.
    pub fn server_data(&self) -> &Dataset {
        &self.server_data
    }

    /// The held-out main-task test set.
    pub fn test_data(&self) -> &Dataset {
        &self.test_data
    }

    /// The accepted-model history the validators currently see.
    pub fn history(&self) -> &ModelHistory {
        &self.history
    }

    /// Main-task accuracy of the current global model on the held-out
    /// test set.
    pub fn main_accuracy(&self) -> f32 {
        self.global.accuracy(self.test_data.features(), self.test_data.labels())
    }

    /// Backdoor accuracy (eq. 1) of the current global model.
    pub fn backdoor_accuracy(&self) -> f32 {
        eval::backdoor_accuracy(
            &self.global,
            self.backdoor_test.features(),
            self.backdoor.target_class(),
        )
    }

    /// Runs all configured rounds and returns the report.
    pub fn run(&mut self) -> SimulationReport {
        let mut records = Vec::with_capacity(self.config.rounds);
        let mut counts = DetectionCounts::default();
        for _ in 0..self.config.rounds {
            let record = self.step();
            // Fizzled attack attempts (the adaptive attacker damped its
            // update into harmlessness) are excluded from the FP/FN
            // accounting: they are neither genuine updates nor effective
            // injections.
            if record.defense_active && !record.fizzled_attack() {
                counts.record(record.effectively_backdoored(), !record.decision.is_accepted());
            }
            records.push(record);
        }
        SimulationReport { rounds_run: records.len(), records, counts }
    }

    /// Runs a single recorded round and returns its record.
    ///
    /// Immediate mode polls freshly sampled validators on the round's
    /// candidate **after** training and integrates it on accept.
    /// Deferred mode (§VI-D) polls the round's contributors on the
    /// previous round's model **before** training, rolls it back on
    /// reject, and integrates the new candidate unvoted — detection lags
    /// one round, and the record's ground truth (`poisoned`,
    /// `candidate_backdoor_accuracy`) refers to the model the vote was
    /// about.
    pub fn step(&mut self) -> RoundRecord {
        self.round_index += 1;
        let round = self.round_index;
        let deferred = self.config.deferred_validation;
        let injected = self.config.poison_rounds.contains(&round);
        let mut contributors = sampling::select_clients(
            &mut self.rng,
            self.config.num_clients,
            self.fl.clients_per_round(),
        );
        if injected && !contributors.contains(&0) {
            // The attacker makes sure its client is selected this round
            // (single-shot attacks assume participation).
            contributors[0] = 0;
        }

        let mut poll = None;
        if deferred {
            poll = self.poll(None, &contributors);
            if poll.is_some_and(|(tally, ..)| !tally.decision.is_accepted()) {
                let (retired, _) = self.history.pop().expect("the poll was about the newest entry");
                // The popped id is retired for good; drop its cache entries
                // everywhere so the engines never serve a rolled-back model.
                for engine in &self.client_engines {
                    engine.lock().invalidate(retired);
                }
                self.server_engine.invalidate(retired);
                self.global = self.history.latest().expect("history keeps its root").clone();
            }
        }

        let masked_round = self.config.use_secagg.then_some(round);
        let (candidate, adaptive_self_accepted) =
            self.candidate(&contributors, injected, masked_round);
        // Ground-truth probe: did the candidate actually pick up the
        // backdoor? (Measured on the attacker's objective, before the
        // accept/reject decision; the defense never sees this.)
        let probe = injected.then(|| {
            eval::backdoor_accuracy(
                &candidate,
                self.backdoor_test.features(),
                self.backdoor.target_class(),
            )
        });
        if !deferred {
            poll = self.poll(Some(&candidate), &contributors);
        }

        // --- Integration -------------------------------------------------
        // On rejection: G^r ← G^{r−1}; history unchanged (only accepted
        // models are trusted). A deferred candidate goes in unvoted; the
        // next round's contributors decide whether it stays.
        let (poisoned, candidate_backdoor_accuracy) = if deferred {
            std::mem::replace(&mut self.pending, (injected, probe))
        } else {
            (injected, probe)
        };
        if deferred || poll.is_none_or(|(tally, ..)| tally.decision.is_accepted()) {
            self.global = candidate;
            self.history.push(self.global.clone());
        }

        let (main_accuracy, backdoor_accuracy) = if self.config.track_accuracy {
            (Some(self.main_accuracy()), Some(self.backdoor_accuracy()))
        } else {
            (None, None)
        };
        let (decision, reject_votes, votes_cast, server_vote) = match poll {
            Some((tally, votes_cast, server_vote)) => {
                (tally.decision, tally.reject_votes, votes_cast, server_vote)
            }
            None => (Decision::Accepted, 0, 0, None),
        };

        RoundRecord {
            round,
            poisoned,
            defense_active: poll.is_some(),
            decision,
            reject_votes,
            votes_cast,
            server_vote,
            main_accuracy,
            backdoor_accuracy,
            adaptive_self_accepted,
            candidate_backdoor_accuracy,
        }
    }

    /// One round's candidate global model: the honest contributors train
    /// on their shards (in parallel), the attacker's update is appended
    /// when `injected` (its slot, client 0, is left out of the honest
    /// set), the updates are summed — through a secure-aggregation
    /// session keyed by `masked_round` when given, in the clear otherwise
    /// — and FedAvg applies the sum to the current global model. Also
    /// returns, for adaptive injections, whether the attacker's own
    /// validator accepted its damped update.
    fn candidate(
        &mut self,
        contributors: &[usize],
        injected: bool,
        masked_round: Option<usize>,
    ) -> (Mlp, Option<bool>) {
        let honest: Vec<&Dataset> = contributors
            .iter()
            .filter(|&&c| !(injected && c == 0))
            .map(|&c| &self.client_shards[c])
            .collect();
        let seed = self.rng.gen::<u64>();
        let mut updates =
            baffle_fl::train_clients_parallel(&self.global, &honest, &self.trainer, seed);
        let mut adaptive_self_accepted = None;
        if injected {
            let (update, self_accepted) = self.poisoned_update();
            adaptive_self_accepted = self_accepted;
            updates.push(update);
        }

        let summed: Vec<f32> = match masked_round {
            Some(round) => {
                let session = SecAggSession::new(
                    self.config.seed ^ round as u64,
                    updates.len(),
                    updates[0].len(),
                );
                let masked: Vec<Vec<f32>> =
                    updates.iter().enumerate().map(|(i, u)| session.mask(i, u)).collect();
                session.aggregate(&masked)
            }
            None => {
                let mut sum = vec![0.0; updates[0].len()];
                for u in &updates {
                    baffle_tensor::ops::axpy(1.0, u, &mut sum);
                }
                sum
            }
        };
        let params =
            fedavg(&self.global.params(), &[summed], self.fl.global_lr(), self.fl.num_clients());
        let mut candidate = self.global.clone();
        candidate.set_params(&params);
        (candidate, adaptive_self_accepted)
    }

    /// The decision step of Algorithm 1 for one model: client votes (in
    /// parallel), the server's own vote, and the quorum [`tally`] —
    /// returned with the number of votes cast and the server's vote.
    /// `Some(candidate)` polls freshly sampled validators on `candidate`
    /// against the whole history; `None` polls `contributors` on the
    /// newest history entry against its predecessors (deferred mode,
    /// where the validators coincide with the contributors).
    ///
    /// Returns `None` when the defense does not evaluate this round: it
    /// is off, has not started yet, or fewer than [`MIN_HISTORY`] models
    /// precede the one polled.
    fn poll(
        &mut self,
        candidate: Option<&Mlp>,
        contributors: &[usize],
    ) -> Option<(Tally, usize, Option<Vote>)> {
        let defense = self.config.defense;
        if matches!(defense, DefenseMode::Off) || self.round_index < self.config.defense_start_round
        {
            return None;
        }
        let (history, ids) = (self.history.models(), self.history.ids());
        let (model, history) = match candidate {
            Some(candidate) => (candidate, history),
            None => history.split_last()?,
        };
        let ids = &ids[..history.len()];
        if history.len() < MIN_HISTORY {
            return None;
        }

        let mut votes: Vec<Vote> = Vec::new();
        if matches!(defense, DefenseMode::ClientsOnly | DefenseMode::Both) {
            let validators = match candidate {
                Some(_) => sampling::select_clients(
                    &mut self.rng,
                    self.config.num_clients,
                    self.config.validators_per_round,
                ),
                None => contributors.to_vec(),
            };
            let engines = &self.client_engines;
            let shards = &self.client_shards;
            let malicious = self.config.malicious_clients;
            let behavior = self.config.malicious_voter_behavior;

            // One pool task per validator; `parallel_map` returns votes
            // in validator order, so tallies (and reports) are identical
            // at any thread count.
            votes = baffle_tensor::pool::parallel_map(validators, |_, v| {
                let honest = if v < malicious && !behavior.needs_validation() {
                    Vote::Accept
                } else {
                    engines[v].lock().vote(model, ids, history, &shards[v])
                };
                if v < malicious {
                    behavior.cast(honest)
                } else {
                    honest
                }
            });
        }
        let server_vote = matches!(defense, DefenseMode::ServerOnly | DefenseMode::Both)
            .then(|| self.server_engine.vote(model, ids, history, &self.server_data));
        votes.extend(server_vote);

        let quorum = match defense {
            DefenseMode::ServerOnly => 1,
            _ => self.config.quorum,
        };
        Some((tally(&votes, votes.len(), quorum), votes.len(), server_vote))
    }

    /// The attacker's update for a poison round. Returns the update and,
    /// for adaptive attacks, whether the attacker's local validator
    /// accepted it.
    fn poisoned_update(&mut self) -> (Vec<f32>, Option<bool>) {
        let boost = self.config.boost.unwrap_or_else(|| self.fl.replacement_boost());
        let attack = ModelReplacement::new(self.backdoor, boost);
        let attacker_clean = self.client_shards[0].clone();
        let mut atk_rng = StdRng::seed_from_u64(self.rng.gen());
        let poison = attack.poisoned_update(
            &self.global,
            &attacker_clean,
            &self.backdoor_train,
            &mut atk_rng,
        );

        match self.config.attack {
            AttackKind::Replacement => (poison, None),
            AttackKind::Adaptive => {
                // The attacker runs VALIDATE on its own data, assuming its
                // update dominates the round: candidate = G + (λ/N)·u.
                let benign = self.trainer.train_update(&self.global, &attacker_clean, &mut atk_rng);
                let validator = self.validator;
                let history = self.history.models().to_vec();
                let global = self.global.clone();
                let lambda_over_n = self.fl.global_lr() / self.fl.num_clients() as f32;
                let attacker_view = if attacker_clean.is_empty() {
                    self.backdoor_train.clone()
                } else {
                    attacker_clean.clone()
                };
                let accepts = |u: &[f32]| {
                    let params = {
                        let mut p = global.params();
                        baffle_tensor::ops::axpy(lambda_over_n, u, &mut p);
                        p
                    };
                    let mut m = global.clone();
                    m.set_params(&params);
                    match validator.validate(&m, &history, &attacker_view) {
                        Ok(v) => !v.is_reject(),
                        Err(_) => true,
                    }
                };
                let damped = dampen_until_accepted(&benign, &poison, accepts, 8);
                (damped.update, Some(damped.self_accepted))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_simulation_detects_the_injection() {
        let mut sim = Simulation::new(SimulationConfig::cifar_like_small(1));
        let report = sim.run();
        assert_eq!(report.rounds_run, 10);
        // The scripted poison round is rejected.
        let poison_record = report.records.iter().find(|r| r.poisoned).unwrap();
        assert!(poison_record.defense_active);
        assert_eq!(poison_record.decision, Decision::Rejected);
        assert_eq!(report.false_negatives(), 0);
    }

    #[test]
    fn defense_off_accepts_everything() {
        let mut config = SimulationConfig::cifar_like_small(2);
        config.defense = DefenseMode::Off;
        let mut sim = Simulation::new(config);
        let report = sim.run();
        assert!(report.records.iter().all(|r| r.decision.is_accepted()));
        assert!(report.records.iter().all(|r| !r.defense_active));
        assert_eq!(report.counts().total(), 0);
    }

    #[test]
    fn undefended_backdoor_sticks() {
        let mut config = SimulationConfig::cifar_like_small(3);
        config.defense = DefenseMode::Off;
        config.track_accuracy = true;
        let mut sim = Simulation::new(config);
        let report = sim.run();
        let after_poison = report.records.iter().find(|r| r.poisoned).unwrap();
        assert!(
            after_poison.backdoor_accuracy.unwrap() > 0.5,
            "backdoor accuracy after undefended injection: {:?}",
            after_poison.backdoor_accuracy
        );
    }

    #[test]
    fn defended_run_keeps_backdoor_accuracy_low() {
        let mut config = SimulationConfig::cifar_like_small(4);
        config.track_accuracy = true;
        let mut sim = Simulation::new(config);
        let report = sim.run();
        let last = report.records.last().unwrap();
        assert!(
            last.backdoor_accuracy.unwrap() < 0.5,
            "backdoor survived the defense: {:?}",
            last.backdoor_accuracy
        );
    }

    #[test]
    fn stable_model_has_reasonable_main_accuracy() {
        let sim = Simulation::new(SimulationConfig::cifar_like_small(5));
        let acc = sim.main_accuracy();
        assert!(acc > 0.6, "warm-started model accuracy only {acc}");
    }

    #[test]
    fn secagg_path_matches_plain_path_in_outcome() {
        let mut plain_cfg = SimulationConfig::cifar_like_small(6);
        plain_cfg.rounds = 3;
        plain_cfg.poison_rounds = vec![];
        let mut secagg_cfg = plain_cfg.clone();
        secagg_cfg.use_secagg = true;

        let mut plain = Simulation::new(plain_cfg);
        let mut masked = Simulation::new(secagg_cfg);
        let rp = plain.run();
        let rm = masked.run();
        // Secure aggregation is (numerically almost) transparent: same
        // decisions on the same seed.
        let dp: Vec<_> = rp.records.iter().map(|r| r.decision).collect();
        let dm: Vec<_> = rm.records.iter().map(|r| r.decision).collect();
        assert_eq!(dp, dm);
    }

    #[test]
    fn deferred_mode_aggregates_through_secagg_too() {
        let mut plain_cfg = SimulationConfig::cifar_like_small(6);
        plain_cfg.deferred_validation = true;
        plain_cfg.poison_rounds = vec![5];
        let mut secagg_cfg = plain_cfg.clone();
        secagg_cfg.use_secagg = true;

        let mut plain = Simulation::new(plain_cfg);
        let mut masked = Simulation::new(secagg_cfg);
        let rp = plain.run();
        let rm = masked.run();
        let dp: Vec<_> = rp.records.iter().map(|r| r.decision).collect();
        let dm: Vec<_> = rm.records.iter().map(|r| r.decision).collect();
        assert_eq!(dp, dm);
        assert_eq!((rp.false_negatives(), rm.false_negatives()), (0, 0));
        // Masks cancel up to float rounding: the two runs end within
        // 1e-5 of each other, and differ in bits only if a session
        // actually masked the updates.
        let (pp, pm) = (plain.global_model().params(), masked.global_model().params());
        assert!(pp.iter().zip(&pm).all(|(a, b)| (a - b).abs() < 1e-5));
        assert!(
            pp.iter().zip(&pm).any(|(a, b)| a.to_bits() != b.to_bits()),
            "use_secagg left the deferred aggregate bit-identical: no session was built"
        );
    }

    #[test]
    fn same_seed_reproduces_the_report() {
        let r1 = Simulation::new(SimulationConfig::cifar_like_small(7)).run();
        let r2 = Simulation::new(SimulationConfig::cifar_like_small(7)).run();
        assert_eq!(r1, r2);
    }

    #[test]
    fn estimate_rho_reflects_vote_counts() {
        let mut config = SimulationConfig::cifar_like_small(10);
        config.poison_rounds = vec![6, 8];
        let mut sim = Simulation::new(config.clone());
        let report = sim.run();
        let rho = report.estimate_rho(config.validators_per_round).unwrap();
        assert!((0.0..=1.0).contains(&rho));
        // In this scripted scenario most honest validators flag the
        // boosted injection.
        assert!(rho > 0.4, "rho = {rho}");
        // No injections → no estimate.
        let mut clean_config = SimulationConfig::cifar_like_small(10);
        clean_config.poison_rounds = vec![];
        let clean = Simulation::new(clean_config).run();
        assert!(clean.estimate_rho(6).is_none());
    }

    #[test]
    fn split_injection_is_invisible_at_the_aggregate() {
        // BaFFLe only sees the aggregated model, so an attacker splitting
        // its boosted update across k colluding contributors produces
        // the *identical* candidate model — multi-client injection adds
        // nothing against aggregate-level defenses (paper §VI-A: "this is
        // not to restrict the attacker's capabilities").
        let poison = vec![4.0_f32, -2.0, 8.0];
        let honest = vec![vec![0.1, 0.2, -0.1], vec![0.0, -0.2, 0.3]];
        let global = vec![1.0, 1.0, 1.0];

        let mut single = honest.clone();
        single.push(poison.clone());
        let one = baffle_fl::fedavg(&global, &single, 2.0, 10);

        let mut split = honest;
        split.push(baffle_tensor::ops::scale(0.5, &poison));
        split.push(baffle_tensor::ops::scale(0.5, &poison));
        let two = baffle_fl::fedavg(&global, &split, 2.0, 10);

        for (a, b) in one.iter().zip(&two) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn femnist_small_detects_label_flip() {
        let mut sim = Simulation::new(SimulationConfig::femnist_like_small(11));
        let report = sim.run();
        assert_eq!(report.false_negatives(), 0);
    }

    #[test]
    fn defense_start_round_delays_activation() {
        let mut config = SimulationConfig::cifar_like_small(12);
        config.defense_start_round = 5;
        config.poison_rounds = vec![3]; // injected before the defense starts
        let mut sim = Simulation::new(config);
        let report = sim.run();
        for r in &report.records {
            assert_eq!(r.defense_active, r.round >= 5, "round {}", r.round);
        }
        // The pre-defense injection is accepted (and excluded from counts).
        let injected = report.records.iter().find(|r| r.poisoned).unwrap();
        assert!(injected.decision.is_accepted());
        assert_eq!(report.counts().poisoned(), 0);
    }

    #[test]
    fn deferred_validation_detects_with_one_round_lag() {
        let mut config = SimulationConfig::cifar_like_small(13);
        config.deferred_validation = true;
        config.track_accuracy = true;
        config.poison_rounds = vec![5];
        config.rounds = 9;
        let mut sim = Simulation::new(config);
        let report = sim.run();

        // The injection of round 5 is decided at round 6.
        let decided = report.records.iter().find(|r| r.poisoned).expect("decided record");
        assert_eq!(decided.round, 6, "deferred decision must lag one round");
        assert_eq!(decided.decision, Decision::Rejected);
        // The backdoor was live during the lag …
        let lag = report.records.iter().find(|r| r.round == 5).unwrap();
        assert!(
            lag.backdoor_accuracy.unwrap() > 0.5,
            "backdoor not live during the lag: {:?}",
            lag.backdoor_accuracy
        );
        // … and gone after the rollback.
        let after = report.records.iter().find(|r| r.round == 6).unwrap();
        assert!(
            after.backdoor_accuracy.unwrap() < 0.5,
            "rollback did not remove the backdoor: {:?}",
            after.backdoor_accuracy
        );
        assert_eq!(report.false_negatives(), 0);
    }

    #[test]
    fn deferred_validation_accepts_clean_runs() {
        let mut config = SimulationConfig::cifar_like_small(14);
        config.deferred_validation = true;
        config.poison_rounds = vec![];
        let report = Simulation::new(config).run();
        let rejected = report.records.iter().filter(|r| !r.decision.is_accepted()).count();
        assert!(rejected <= 1, "clean deferred run rejected {rejected} rounds");
    }

    #[test]
    fn writer_partition_runs_and_detects() {
        let mut config = SimulationConfig::cifar_like_small(9);
        config.client_data = ClientDataModel::Writers { style_std: 0.5, samples_per_client: 60 };
        let mut sim = Simulation::new(config);
        let report = sim.run();
        assert_eq!(report.rounds_run, 10);
        // Writers hold backdoor-feature data (Sun et al.'s weaker
        // setting), but the boosted injection still shifts per-class
        // errors and is caught.
        assert_eq!(report.false_negatives(), 0);
    }

    #[test]
    #[should_panic(expected = "quorum")]
    fn invalid_quorum_panics() {
        let mut config = SimulationConfig::cifar_like_small(8);
        config.quorum = 99;
        let _ = Simulation::new(config);
    }
}
