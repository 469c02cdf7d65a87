//! End-to-end deployment harness.
//!
//! [`Deployment::build`] materialises data, models and the network and
//! returns [`DeploymentParts`] — the pieces a test can drive by hand
//! (run rounds, checkpoint the server, crash and restart clients).
//! [`Deployment::run`] is the turnkey path: it builds the parts, runs
//! every client as a state machine on the event-driven
//! [`crate::scheduler`] (one scheduler thread + the shared worker pool,
//! so 10k+ registered clients are cheap), executes the configured
//! rounds **including the fault plan's scripted crash/restart events**,
//! and reports. [`DeploymentParts::run_threaded`] retains the
//! thread-per-client path; the two are bit-identical on identical
//! configs (see `crates/net/tests/scheduler.rs`).

use crate::client::{Client, ClientReport, ClientRole};
use crate::fault::{FaultPlan, LinkPolicy};
use crate::message::NodeId;
use crate::scheduler::{ClientFactory, SchedulerHandle};
use crate::server::{Server, ServerConfig, ServerRound};
use crate::socket::TransportMode;
use crate::transport::{Endpoint, Network};
use crate::wal::{DurableServer, RecoveryInfo, RestoreKit, Standby};
use baffle_attack::voting::VoterBehavior;
use baffle_attack::{BackdoorSpec, ModelReplacement};
use baffle_core::{ValidationConfig, Validator};
use baffle_data::{partition, Dataset, SyntheticVision, VisionSpec};
use baffle_fl::{FlConfig, LocalTrainer, WireProfile};
use baffle_nn::{eval, Mlp, MlpSpec, Sgd};
use bytes::Bytes;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of a protocol deployment (CIFAR-like semantic
/// backdoor scenario).
#[derive(Debug, Clone)]
pub struct DeploymentConfig {
    /// Master seed.
    pub seed: u64,
    /// Total clients `N`.
    pub num_clients: usize,
    /// Contributors per round `n`.
    pub clients_per_round: usize,
    /// Validators per round.
    pub validators_per_round: usize,
    /// Quorum threshold `q`.
    pub quorum: usize,
    /// Look-back window ℓ.
    pub lookback: usize,
    /// Protocol rounds to run.
    pub rounds: u64,
    /// Number of attacker-controlled clients (ids `0..malicious`); they
    /// poison whenever selected as contributors and stealth-accept as
    /// validators.
    pub malicious_clients: usize,
    /// Honest-pool size.
    pub total_train: usize,
    /// Server's data share.
    pub server_share: f64,
    /// Hidden widths of the model substrate.
    pub hidden: Vec<usize>,
    /// Central warm-up epochs before the protocol starts.
    pub warmup_central_epochs: usize,
    /// Per-message drop probability of the simulated network. Ignored
    /// when `faults` is set.
    pub drop_prob: f64,
    /// Full chaos configuration: per-link fault policies plus scripted
    /// partitions and crash/restart events. `None` derives a plain
    /// uniform-loss plan from `drop_prob`.
    pub faults: Option<FaultPlan>,
    /// Per-phase server timeout.
    pub phase_timeout: Duration,
    /// Trust-bootstrapping rounds: contributors are drawn from the
    /// honest (operator-vetted) clients until the accepted-model history
    /// is deep enough for validation (paper §IV-B).
    pub bootstrap_rounds: u64,
    /// How envelopes reach endpoints: in-process channels or
    /// frame-encoded bytes over loopback sockets. Presets fill
    /// [`TransportMode::InProcess`]; this field is the only selector.
    pub transport: TransportMode,
    /// Wire codecs for models, updates and history shipping. Presets
    /// fill [`WireProfile::lossless`]; this field is the only selector.
    pub wire_profile: WireProfile,
}

impl DeploymentConfig {
    /// A miniature deployment that runs in seconds (used by doctests and
    /// integration tests): 8 clients, one attacker, 6 rounds.
    pub fn small(seed: u64) -> Self {
        Self {
            seed,
            num_clients: 8,
            clients_per_round: 4,
            validators_per_round: 4,
            quorum: 2,
            lookback: 4,
            rounds: 6,
            malicious_clients: 1,
            total_train: 800,
            server_share: 0.1,
            hidden: vec![16],
            warmup_central_epochs: 10,
            drop_prob: 0.0,
            faults: None,
            phase_timeout: Duration::from_secs(20),
            bootstrap_rounds: 5,
            transport: TransportMode::InProcess,
            wire_profile: WireProfile::lossless(),
        }
    }

    /// A registered-population scale benchmark: `num_clients` clients
    /// (10k+ intended) of which only a few hundred are sampled per round
    /// — the paper's FEMNIST regime, and the shape the event-driven
    /// scheduler exists for. All-honest, no warm-up, thin shards (most
    /// of the population is enrolled, not busy).
    pub fn at_scale(seed: u64, num_clients: usize) -> Self {
        let validators_per_round = (num_clients / 80).clamp(4, 128);
        Self {
            seed,
            num_clients,
            clients_per_round: (num_clients / 40).clamp(4, 256),
            validators_per_round,
            quorum: (validators_per_round / 2).max(1),
            lookback: 4,
            rounds: 3,
            malicious_clients: 0,
            total_train: 2 * num_clients,
            server_share: 0.02,
            hidden: vec![16],
            warmup_central_epochs: 0,
            drop_prob: 0.0,
            faults: None,
            phase_timeout: Duration::from_secs(60),
            bootstrap_rounds: 0,
            transport: TransportMode::InProcess,
            wire_profile: WireProfile::lossless(),
        }
    }
}

/// Outcome of a deployment run.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentOutcome {
    /// Per-round server observations.
    pub rounds: Vec<ServerRound>,
    /// Main-task accuracy of the final global model.
    pub final_main_accuracy: f32,
    /// Backdoor accuracy of the final global model.
    pub final_backdoor_accuracy: f32,
    /// Total messages handed to the transport.
    pub messages_sent: u64,
    /// Messages lost to the simulated network.
    pub messages_dropped: u64,
    /// Messages the link delivered twice.
    pub messages_duplicated: u64,
    /// Messages whose payload the link damaged.
    pub messages_corrupted: u64,
    /// Sends whose destination had no route (shutdown notices to
    /// crashed nodes, mid-round sends racing a crash). Kept apart from
    /// `messages_dropped` so loss assertions stay exact.
    pub messages_unroutable: u64,
    /// Frame bytes written to sockets (zero under the in-process
    /// transport). Equivalence comparisons across transports must
    /// normalise this along with the phase durations.
    pub wire_bytes: u64,
    /// Frames written to sockets (zero under the in-process transport).
    pub wire_frames: u64,
    /// Per-client lifetime reports, sorted by node id. A client that
    /// crashed and restarted contributes one report per incarnation.
    pub client_reports: Vec<ClientReport>,
}

/// Outcome of a [`DeploymentParts::run_with_failover`] run: the normal
/// deployment outcome plus the evidence the durability invariants are
/// asserted against.
#[derive(Debug)]
pub struct FailoverReport {
    /// The deployment outcome, rounds from both server incarnations
    /// merged in order. The torn round appears once — as the
    /// post-takeover re-run.
    pub outcome: DeploymentOutcome,
    /// What the doomed primary observed while running the round whose
    /// outcome it never journaled. Kept for diagnostics; protocol-wise
    /// this round never happened.
    pub torn_round: ServerRound,
    /// The primary's checkpoint taken just before the torn round ran —
    /// the state the standby must reconstruct bit-for-bit.
    pub pre_crash_checkpoint: Bytes,
    /// The promoted standby's checkpoint at takeover. Byte-equality
    /// with [`FailoverReport::pre_crash_checkpoint`] is the recovery
    /// correctness condition.
    pub promoted_checkpoint: Bytes,
    /// Wall-clock from the primary's crash to the first accepted round
    /// under the promoted standby. `None` if no later round accepted.
    pub recovery: Option<Duration>,
    /// What the standby replayed to get there.
    pub recovery_info: RecoveryInfo,
}

/// Everything needed to (re)create one client actor — kept around so
/// scripted restarts can respawn a crashed client from scratch (a real
/// restart loses in-memory state; the history cache starts empty and the
/// acknowledged-sync protocol refills it).
#[derive(Debug, Clone)]
pub struct ClientSpec {
    /// The client's id (also its [`NodeId`]).
    pub id: usize,
    /// Its local shard, shared read-only across incarnations.
    pub data: Arc<Dataset>,
    /// Honest or malicious.
    pub role: ClientRole,
    /// The actor's RNG seed.
    pub seed: u64,
}

/// The materialised pieces of a deployment, before any actor runs.
pub struct DeploymentParts {
    /// The shared transport.
    pub network: Network,
    /// The server actor (already registered on the network).
    pub server: Server,
    /// One spec per client, by id. Clients are **not** yet registered —
    /// [`DeploymentParts::client_actor`] and the scheduler factory do
    /// that when spawning.
    pub specs: Vec<ClientSpec>,
    /// The validation function every actor uses.
    pub validator: Validator,
    /// Architecture template for building actors, shared read-only.
    pub template: Arc<Mlp>,
    /// Server-side config (kept for [`Server::restore`] after a crash).
    pub server_config: ServerConfig,
    /// Server-side validation data (kept for [`Server::restore`]).
    pub server_data: Dataset,
    /// History window `ℓ + 1`.
    pub history_window: usize,
    /// Main-task test set.
    pub test: Dataset,
    /// Backdoor test set.
    pub backdoor_test: Dataset,
    /// The attacker's backdoor.
    pub backdoor: BackdoorSpec,
    /// The originating config.
    pub config: DeploymentConfig,
    fl: FlConfig,
}

impl std::fmt::Debug for DeploymentParts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeploymentParts")
            .field("clients", &self.specs.len())
            .field("history_window", &self.history_window)
            .finish_non_exhaustive()
    }
}

impl DeploymentParts {
    /// Registers client `id` on the network and builds its actor plus
    /// the dedicated endpoint its blocking loop drains — used by the
    /// thread-per-client path and by tests that drive one actor by hand.
    ///
    /// # Panics
    ///
    /// Panics if `id` has no spec or is currently registered.
    pub fn client_actor(&self, id: usize) -> (Endpoint, Client) {
        assert_eq!(self.specs[id].id, id, "specs must be indexed by id");
        let node = NodeId(id as u32);
        let endpoint = self.network.register(node);
        let client = self.client_factory()(node, endpoint.outbox());
        (endpoint, client)
    }

    /// Builds a client state machine from its spec — the one place a
    /// deployment constructs a [`Client`]: the scheduler calls it for the
    /// initial population and for every scripted restart,
    /// [`DeploymentParts::client_actor`] for a hand-driven actor. Owns
    /// clones of the (Arc-shared) specs so it can outlive `self` on the
    /// scheduler thread.
    fn client_factory(&self) -> ClientFactory {
        let specs = self.specs.clone();
        let trainer = LocalTrainer::from_config(&self.fl);
        let validator = self.validator;
        let history_window = self.history_window;
        let template = Arc::clone(&self.template);
        let wire = self.server_config.wire;
        Box::new(move |id, outbox| {
            let spec = &specs[id.0 as usize];
            Client::new(
                outbox,
                Arc::clone(&spec.data),
                trainer.clone(),
                validator,
                spec.role.clone(),
                history_window,
                Arc::clone(&template),
                wire,
                spec.seed,
            )
        })
    }

    /// Runs the deployment on the event-driven scheduler: every client
    /// is a state machine multiplexed over one inbound queue, stepped on
    /// the shared worker pool. Scripted crash/restart events map to
    /// [`SchedulerHandle::crash`] / [`SchedulerHandle::restart`]. This
    /// is the default path; outcomes are bit-identical to
    /// [`DeploymentParts::run_threaded`].
    pub fn run(mut self) -> DeploymentOutcome {
        let events: FaultPlan =
            self.config.faults.clone().unwrap_or_else(|| FaultPlan::lossless(0));
        let ids: Vec<NodeId> = self.specs.iter().map(|s| NodeId(s.id as u32)).collect();
        let scheduler = SchedulerHandle::launch(&self.network, ids, self.client_factory());

        let mut rounds = Vec::with_capacity(self.config.rounds as usize);
        for r in 1..=self.config.rounds {
            begin_round(&self.network, &scheduler, &events, r);
            rounds.push(self.server.run_round());
        }
        self.server.shutdown();
        let mut client_reports = scheduler.join();
        client_reports.sort_by_key(|r| r.id);
        self.outcome(rounds, client_reports)
    }

    /// Spawns every client on its own OS thread, runs the configured
    /// rounds while executing the fault plan's scripted crash/restart
    /// events, shuts down and reports. Retained as the reference
    /// implementation the scheduler is checked against; practical up to
    /// a few hundred clients.
    pub fn run_threaded(mut self) -> DeploymentOutcome {
        let events: FaultPlan =
            self.config.faults.clone().unwrap_or_else(|| FaultPlan::lossless(0));
        let mut rounds = Vec::with_capacity(self.config.rounds as usize);
        let reports: Mutex<Vec<ClientReport>> = Mutex::new(Vec::new());
        crossbeam::thread::scope(|scope| {
            for spec in &self.specs {
                let (endpoint, mut client) = self.client_actor(spec.id);
                let reports = &reports;
                scope.spawn(move |_| {
                    // Run first, lock after: a guard taken before `run`
                    // would park every other client until shutdown.
                    let report = client.run(&endpoint);
                    reports.lock().push(report);
                });
            }

            for r in 1..=self.config.rounds {
                self.network.begin_round(r);
                for node in events.crashes_at(r) {
                    // Crash-stop: the route disappears, the actor's
                    // blocking recv errors out and the thread exits.
                    self.network.disconnect(node);
                }
                for node in events.restarts_at(r) {
                    let (endpoint, mut client) = self.client_actor(node.0 as usize);
                    let reports = &reports;
                    scope.spawn(move |_| {
                        let report = client.run(&endpoint);
                        reports.lock().push(report);
                    });
                }
                rounds.push(self.server.run_round());
            }
            self.server.shutdown();
        })
        .expect("client actor panicked");

        let mut client_reports = reports.into_inner();
        client_reports.sort_by_key(|r| r.id);
        self.outcome(rounds, client_reports)
    }

    /// The [`RestoreKit`] a standby or recovery path needs to rebuild
    /// this deployment's server from any checkpoint it writes.
    pub fn restore_kit(&self) -> RestoreKit {
        RestoreKit {
            config: self.server_config.clone(),
            template: self.template.as_ref().clone(),
            history_window: self.history_window,
            validator: self.validator,
            server_data: self.server_data.clone(),
        }
    }

    /// Runs the deployment with the server under the durability
    /// protocol ([`DurableServer`]) and a hot [`Standby`] tailing its
    /// log in `dir` — then **crashes the primary mid-round** at
    /// `crash_round`: the round's `RoundStart` is journaled and the
    /// round runs, but the process dies before the outcome record, so
    /// the log is torn. The standby is promoted (route teardown →
    /// scheduler rendezvous → re-register → [`Standby::promote`]) and
    /// re-runs the torn round as a duplicate-safe re-ask, then finishes
    /// the schedule.
    ///
    /// Clients live on the scheduler throughout — from their side the
    /// failover is just a round that went quiet and was re-asked.
    ///
    /// # Panics
    ///
    /// Panics if `crash_round` is outside `1..=rounds`, or on
    /// durability-directory I/O failure.
    pub fn run_with_failover(mut self, dir: &Path, crash_round: u64) -> FailoverReport {
        assert!(
            (1..=self.config.rounds).contains(&crash_round),
            "crash_round {crash_round} outside 1..={}",
            self.config.rounds
        );
        let events: FaultPlan =
            self.config.faults.clone().unwrap_or_else(|| FaultPlan::lossless(0));
        let ids: Vec<NodeId> = self.specs.iter().map(|s| NodeId(s.id as u32)).collect();
        let scheduler = SchedulerHandle::launch(&self.network, ids, self.client_factory());
        let kit = self.restore_kit();

        let mut primary =
            DurableServer::create(dir, 0, self.server).expect("create durability directory");
        let mut standby = Standby::attach(dir, kit).expect("attach hot standby");

        let mut rounds = Vec::with_capacity(self.config.rounds as usize);
        for r in 1..crash_round {
            begin_round(&self.network, &scheduler, &events, r);
            rounds.push(primary.run_round().expect("journal round"));
            standby.catch_up().expect("standby catch-up");
        }

        // The doomed round: scripted events still fire (the crash does
        // not suspend the chaos plan), the pre-round state is captured
        // as the recovery target, and the outcome record never lands.
        begin_round(&self.network, &scheduler, &events, crash_round);
        let pre_crash_checkpoint = primary.server().checkpoint();
        let torn_round = primary.run_round_torn().expect("journal torn round start");
        let crash_at = Instant::now();

        // Primary dies: tear down its route first so replies already in
        // flight book as unroutable instead of racing the route swap,
        // then quiesce the scheduler so no client step straddles the
        // takeover.
        self.network.disconnect(NodeId::SERVER);
        drop(primary);
        scheduler.rendezvous();

        standby.catch_up().expect("standby catch-up at takeover");
        let endpoint = self.network.register(NodeId::SERVER);
        let (server, recovery_info) = standby.promote(endpoint);
        let promoted_checkpoint = server.checkpoint();
        // Takeover doubles as compaction: the promoted state becomes
        // the checkpoint and the torn log is superseded.
        let mut primary = DurableServer::create(dir, 0, server).expect("takeover compaction");

        let mut recovery = None;
        for r in crash_round..=self.config.rounds {
            if r == crash_round {
                // The torn round's scripted events already fired on the
                // first ask; the re-run must not apply them twice.
                self.network.begin_round(r);
            } else {
                begin_round(&self.network, &scheduler, &events, r);
            }
            let round = primary.run_round().expect("journal round");
            if recovery.is_none() && round.accepted {
                recovery = Some(crash_at.elapsed());
            }
            rounds.push(round);
        }

        self.server = primary.into_inner();
        self.server.shutdown();
        let mut client_reports = scheduler.join();
        client_reports.sort_by_key(|r| r.id);
        let outcome = self.outcome(rounds, client_reports);
        FailoverReport {
            outcome,
            torn_round,
            pre_crash_checkpoint,
            promoted_checkpoint,
            recovery,
            recovery_info,
        }
    }

    fn outcome(
        self,
        rounds: Vec<ServerRound>,
        client_reports: Vec<ClientReport>,
    ) -> DeploymentOutcome {
        DeploymentOutcome {
            final_main_accuracy: self
                .server
                .global_model()
                .accuracy(self.test.features(), self.test.labels()),
            final_backdoor_accuracy: eval::backdoor_accuracy(
                self.server.global_model(),
                self.backdoor_test.features(),
                self.backdoor.target_class(),
            ),
            rounds,
            messages_sent: self.network.messages_sent(),
            messages_dropped: self.network.messages_dropped(),
            messages_duplicated: self.network.messages_duplicated(),
            messages_corrupted: self.network.messages_corrupted(),
            messages_unroutable: self.network.messages_unroutable(),
            wire_bytes: self.network.wire_bytes(),
            wire_frames: self.network.wire_frames(),
            client_reports,
        }
    }
}

/// Opens round `r` on the scheduler path: scopes the fault plan's
/// scripted events to it and fires its crash/restart events.
fn begin_round(network: &Network, scheduler: &SchedulerHandle, events: &FaultPlan, r: u64) {
    network.begin_round(r);
    for node in events.crashes_at(r) {
        // Crash-stop: the machine is dropped after draining what was
        // already delivered, and the route disappears.
        scheduler.crash(node);
    }
    for node in events.restarts_at(r) {
        // A restarted client is a fresh process: empty history cache,
        // fresh RNG — only its shard survives.
        scheduler.restart(node);
    }
}

/// Runs a full deployment: one server thread (the caller's), the
/// scheduler thread, and the shared worker pool stepping client state
/// machines.
#[derive(Debug)]
pub struct Deployment;

impl Deployment {
    /// Materialises data and models, launches the scheduler, runs the
    /// configured number of rounds, shuts down and reports.
    pub fn run(config: DeploymentConfig) -> DeploymentOutcome {
        Self::build(config).run()
    }

    /// Materialises data, models, the network and the server actor —
    /// without running anything. Tests drive the returned parts by hand
    /// to interleave rounds with checkpoints, crashes and restarts.
    pub fn build(config: DeploymentConfig) -> DeploymentParts {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let spec = VisionSpec::cifar_like();
        let generator = SyntheticVision::new(&spec, &mut rng);
        let backdoor = BackdoorSpec::semantic(1, 0, 2);
        let pool = generator.generate_excluding(&mut rng, config.total_train, 1, 0);
        let (shards, server_data) = partition::client_server_split(
            &mut rng,
            &pool,
            config.num_clients,
            0.9,
            config.server_share,
        );
        let test = generator.generate_excluding(&mut rng, 400, 1, 0);
        let backdoor_test = generator.generate_subgroup(&mut rng, 150, 1, 0);
        let attacker_backdoor = Arc::new(generator.generate_subgroup(&mut rng, 120, 1, 0));

        let mlp_spec = MlpSpec::new(spec.input_dim(), &config.hidden, spec.num_classes());
        let mut initial = Mlp::new(&mlp_spec, &mut rng);
        if config.warmup_central_epochs > 0 {
            let mut pooled = server_data.clone();
            for s in &shards {
                if !s.is_empty() {
                    pooled = pooled.concat(s);
                }
            }
            let mut opt = Sgd::new(0.1).with_momentum(0.9);
            for _ in 0..config.warmup_central_epochs {
                initial.train_epoch(pooled.features(), pooled.labels(), 32, &mut opt, &mut rng);
            }
        }

        let fl = FlConfig::new(config.num_clients, config.clients_per_round);
        let boost = fl.replacement_boost();
        let validator = Validator::new(ValidationConfig::new(config.lookback).with_margin(1.2));
        let plan = match &config.faults {
            Some(plan) => plan.clone(),
            None => FaultPlan::uniform(
                LinkPolicy::lossless().with_drop(config.drop_prob),
                config.seed ^ 0x4E45_5400,
            ),
        };
        let network = Network::with_transport(plan, config.transport);

        let server_endpoint = network.register(NodeId::SERVER);
        let server_config = ServerConfig {
            fl: fl.clone(),
            validators_per_round: config.validators_per_round,
            quorum: config.quorum,
            phase_timeout: config.phase_timeout,
            server_votes: true,
            seed: config.seed,
            bootstrap_rounds: config.bootstrap_rounds,
            bootstrap_trusted: (config.malicious_clients..config.num_clients).collect(),
            wire: config.wire_profile,
        };
        let server = Server::new(
            server_endpoint,
            server_config.clone(),
            initial.clone(),
            config.lookback + 1,
            validator,
            server_data.clone(),
        );

        let specs: Vec<ClientSpec> = shards
            .into_iter()
            .enumerate()
            .map(|(i, shard)| {
                let role = if i < config.malicious_clients {
                    ClientRole::Malicious {
                        attack: ModelReplacement::new(backdoor, boost),
                        backdoor_data: Arc::clone(&attacker_backdoor),
                        voting: VoterBehavior::StealthAccept,
                    }
                } else {
                    ClientRole::Honest
                };
                ClientSpec {
                    id: i,
                    data: Arc::new(shard),
                    role,
                    seed: config.seed.wrapping_add(1 + i as u64),
                }
            })
            .collect();

        DeploymentParts {
            network,
            server,
            specs,
            validator,
            template: Arc::new(initial),
            server_config,
            server_data,
            history_window: config.lookback + 1,
            test,
            backdoor_test,
            backdoor,
            config,
            fl,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Transport and wire profile are config values, not ambient state:
    /// the two variables earlier versions read have no effect. (Nothing
    /// reads them, so setting them here cannot disturb sibling tests.)
    #[test]
    fn presets_and_networks_ignore_the_process_environment() {
        std::env::set_var("BAFFLE_TRANSPORT", "tcp");
        std::env::set_var("BAFFLE_WIRE_PROFILE", "q8");
        for config in [DeploymentConfig::small(1), DeploymentConfig::at_scale(1, 100)] {
            assert_eq!(config.transport, TransportMode::InProcess);
            assert_eq!(config.wire_profile, WireProfile::lossless());
        }
        assert_eq!(Network::new().transport(), TransportMode::InProcess);
    }
}
