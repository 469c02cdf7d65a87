//! End-to-end runs: one closed loop per workload, one round outstanding,
//! driven from this thread through the product's public API only.
//!
//! The protocol is synchronous per round, so "load" is a single driver
//! asking for the next round as soon as the previous one returned. The
//! product's worker pool keeps its default width and is recorded in the
//! machine block.

use crate::spec::{
    Workload, FAILOVER_EVERY, FP_CEILING, MAX_SETUP_REPEATS, MIN_EPISODES, WARMUP_ROUNDS,
};
use crate::stats::{median, ms_since, percentile};
use baffle_core::metrics::DetectionCounts;
use baffle_core::Simulation;
use baffle_fl::LocalTrainer;
use baffle_net::client::Client;
use baffle_net::deployment::{Deployment, DeploymentParts};
use baffle_net::message::NodeId;
use baffle_net::scheduler::{ClientFactory, SchedulerHandle};
use baffle_net::server::{Server, ServerRound};
use baffle_net::transport::Network;
use baffle_net::wal::{DurableServer, RestoreKit, Standby};
use baffle_tensor::gemm::{self, DispatchCounts};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long the timed part of a run lasts. A run is made of whole
/// episodes (see [`run`]), so either budget is rounded up to the next
/// episode boundary.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// This many rounds (`run`, `layers`).
    Rounds(u64),
    /// Rounds for this many seconds (the contract form) — and
    /// [`MIN_EPISODES`] episodes at least, however slow the machine, so
    /// the percentiles have the samples their definitions promise.
    Seconds(f64),
}

/// What the server saw of one protocol round, in milliseconds.
struct ServerTimes {
    update_ms: f64,
    vote_ms: f64,
    /// `run_round` wall-clock minus both collection waits: encode,
    /// decode, aggregate, the server's own vote, integration — and, under
    /// the durability protocol, the two WAL appends.
    self_ms: f64,
    evicted_resyncs: usize,
    duplicate_deliveries: usize,
    /// Protocol rounds behind this driven round: two on a failover (the
    /// torn round and the re-ask).
    protocol_rounds: u64,
    /// `ServerRound::history_bytes_shipped` over those.
    history_bytes: u64,
}

/// One driven round.
struct RoundObs {
    /// `Some((poisoned, rejected))` when the round counts towards the
    /// detection rates.
    detection: Option<(bool, bool)>,
    /// Why the round failed an output check, if it did.
    failure: Option<String>,
    /// Failover rounds run the torn round, the takeover and the re-ask;
    /// they are timed by `recovery_ms`, not by the round percentiles.
    ordinary: bool,
    recovery_ms: Option<f64>,
    server: Option<ServerTimes>,
}

/// Transport counters, read at both ends of the timed window.
#[derive(Clone, Copy, Default)]
struct NetCounters {
    messages: u64,
    wire_bytes: u64,
    wire_frames: u64,
}

/// End-of-run observations a driver hands back from its teardown.
#[derive(Default)]
struct Teardown {
    failures: Vec<String>,
    launch_ms: f64,
    rendezvous_us: Vec<f64>,
}

trait Driver {
    fn round(&mut self, round: u64) -> RoundObs;
    fn counters(&self) -> NetCounters {
        NetCounters::default()
    }
    /// Stops everything the set-up started and waits for it.
    fn finish(self: Box<Self>) -> Teardown;
}

// --- sim_* -------------------------------------------------------------

struct SimDriver {
    sim: Simulation,
}

impl Driver for SimDriver {
    fn round(&mut self, _round: u64) -> RoundObs {
        let record = self.sim.step();
        // Same accounting as `Simulation::run`: a fizzled injection is
        // neither a genuine update nor an effective attack.
        let detection = (record.defense_active && !record.fizzled_attack())
            .then(|| (record.effectively_backdoored(), !record.decision.is_accepted()));
        RoundObs { detection, failure: None, ordinary: true, recovery_ms: None, server: None }
    }

    fn finish(self: Box<Self>) -> Teardown {
        Teardown::default()
    }
}

// --- net_* -------------------------------------------------------------

/// The scheduler's state-machine factory, rebuilt from the public parts
/// (`DeploymentParts::client_factory` is private): same arguments, same
/// clients.
fn client_factory(parts: &DeploymentParts) -> ClientFactory {
    let specs = parts.specs.clone();
    let trainer = LocalTrainer::from_config(&parts.server_config.fl);
    let validator = parts.validator;
    let history_window = parts.history_window;
    let template = Arc::clone(&parts.template);
    let wire = parts.server_config.wire;
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

/// The server under the plain or the durable protocol. One exists per
/// run, so the size gap between the variants costs nothing.
#[allow(clippy::large_enum_variant)]
enum ServerSlot {
    Plain(Server),
    Durable {
        primary: DurableServer,
        standby: Standby,
        kit: RestoreKit,
        dir: PathBuf,
    },
    /// Mid-takeover; never observed outside `NetDriver::fail_over`.
    Vacant,
}

struct NetDriver {
    network: Network,
    scheduler: SchedulerHandle,
    server: ServerSlot,
    /// Contributors plus validators the server samples each round.
    sampled: usize,
    phase_timeout: Duration,
    /// Set when the primary was crashed and no round has been accepted
    /// since.
    crashed_at: Option<Instant>,
    teardown: Teardown,
}

impl NetDriver {
    fn build(workload: Workload, seed: u64, wal_dir: &Path) -> Self {
        let config = workload.deployment_config(seed);
        let sampled = config.clients_per_round + config.validators_per_round;
        let phase_timeout = config.phase_timeout;
        let parts = Deployment::build(config);
        let ids: Vec<NodeId> = parts.specs.iter().map(|s| NodeId(s.id as u32)).collect();
        let factory = client_factory(&parts);
        let launch = Instant::now();
        let scheduler = SchedulerHandle::launch(&parts.network, ids, factory);
        // `launch` returns once every id is routable; the machines are
        // built on the scheduler thread. The rendezvous returns after
        // they exist, so set-up time covers their construction.
        scheduler.rendezvous();
        let launch_ms = ms_since(launch);
        let kit = parts.restore_kit();
        let network = parts.network.clone();
        let server = match workload {
            Workload::NetDurableUnix => {
                let primary = DurableServer::create(wal_dir, 0, parts.server)
                    .expect("create durability directory");
                let standby = Standby::attach(wal_dir, kit.clone()).expect("attach hot standby");
                ServerSlot::Durable { primary, standby, kit, dir: wal_dir.to_path_buf() }
            }
            _ => ServerSlot::Plain(parts.server),
        };
        Self {
            network,
            scheduler,
            server,
            sampled,
            phase_timeout,
            crashed_at: None,
            teardown: Teardown { launch_ms, ..Teardown::default() },
        }
    }

    /// Output checks on one round: everyone sampled is accounted for
    /// (answered or abstained — thin shards abstain), nothing timed out,
    /// nothing was refused at intake, the transport held.
    fn judge(&self, round: &ServerRound) -> Option<String> {
        let accounted = round.updates_received + round.votes_received + round.abstentions;
        let complaint = if round.transport_lost {
            "transport lost"
        } else if round.update_phase >= self.phase_timeout || round.vote_phase >= self.phase_timeout
        {
            "a phase hit phase_timeout"
        } else if accounted < self.sampled {
            "fewer updates/votes than sampled"
        } else if round.rejected_submissions + round.rejected_votes + round.corrupted_payloads > 0 {
            "intake refused or found damaged an honest submission"
        } else {
            return None;
        };
        Some(format!("round {}: {complaint}", round.round))
    }

    /// Crashes the primary mid-round and promotes the standby, mirroring
    /// `DeploymentParts::run_with_failover`; returns the re-asked round.
    fn fail_over(&mut self, failures: &mut Vec<String>) -> (ServerRound, f64) {
        let ServerSlot::Durable { mut primary, mut standby, kit, dir } =
            std::mem::replace(&mut self.server, ServerSlot::Vacant)
        else {
            panic!("fail_over needs the durable protocol");
        };
        let pre_crash = primary.server().checkpoint();
        let torn = primary.run_round_torn().expect("journal torn round start");
        self.crashed_at = Some(Instant::now());
        self.network.disconnect(NodeId::SERVER);
        drop(primary);
        let t = Instant::now();
        self.scheduler.rendezvous();
        self.teardown.rendezvous_us.push(ms_since(t) * 1e3);

        standby.catch_up().expect("standby catch-up at takeover");
        let endpoint = self.network.register(NodeId::SERVER);
        let (server, info) = standby.promote(endpoint);
        if server.checkpoint() != pre_crash {
            failures.push(format!("round {}: promoted checkpoint differs", torn.round));
        }
        if info.torn_round != Some(torn.round) {
            failures.push(format!("round {}: torn round not detected", torn.round));
        }
        // Takeover doubles as compaction; the next failover needs a
        // fresh standby on the new log.
        let mut primary = DurableServer::create(&dir, 0, server).expect("takeover compaction");
        standby = Standby::attach(&dir, kit.clone()).expect("attach hot standby");
        let t = Instant::now();
        let mut round = primary.run_round().expect("journal round");
        let wall_ms = ms_since(t);
        // The wire checks account for both protocol rounds.
        round.history_bytes_shipped += torn.history_bytes_shipped;
        standby.catch_up().expect("standby catch-up");
        self.server = ServerSlot::Durable { primary, standby, kit, dir };
        (round, wall_ms)
    }
}

impl Driver for NetDriver {
    fn round(&mut self, round: u64) -> RoundObs {
        self.network.begin_round(round);
        let mut failures = Vec::new();
        let failover = matches!(self.server, ServerSlot::Durable { .. })
            && round.is_multiple_of(FAILOVER_EVERY);
        let (outcome, wall_ms) = if failover {
            self.fail_over(&mut failures)
        } else {
            let t = Instant::now();
            let outcome = match &mut self.server {
                ServerSlot::Plain(server) => server.run_round(),
                ServerSlot::Durable { primary, .. } => primary.run_round().expect("journal round"),
                ServerSlot::Vacant => unreachable!("takeover completes within fail_over"),
            };
            let wall_ms = ms_since(t);
            if let ServerSlot::Durable { standby, .. } = &mut self.server {
                standby.catch_up().expect("standby catch-up");
            }
            (outcome, wall_ms)
        };
        failures.extend(self.judge(&outcome));
        let recovery_ms = match self.crashed_at {
            Some(crash) if outcome.accepted => {
                self.crashed_at = None;
                Some(ms_since(crash))
            }
            _ => None,
        };
        let update_ms = outcome.update_phase.as_secs_f64() * 1e3;
        let vote_ms = outcome.vote_phase.as_secs_f64() * 1e3;
        RoundObs {
            // Every client is honest: a rejection is a false positive.
            detection: Some((false, !outcome.accepted)),
            failure: (!failures.is_empty()).then(|| failures.join("; ")),
            ordinary: !failover,
            recovery_ms,
            server: Some(ServerTimes {
                update_ms,
                vote_ms,
                self_ms: wall_ms - update_ms - vote_ms,
                evicted_resyncs: outcome.evicted_resyncs,
                duplicate_deliveries: outcome.duplicate_deliveries,
                protocol_rounds: if failover { 2 } else { 1 },
                history_bytes: outcome.history_bytes_shipped as u64,
            }),
        }
    }

    fn counters(&self) -> NetCounters {
        NetCounters {
            messages: self.network.messages_sent(),
            wire_bytes: self.network.wire_bytes(),
            wire_frames: self.network.wire_frames(),
        }
    }

    fn finish(self: Box<Self>) -> Teardown {
        let NetDriver { scheduler, server, mut teardown, .. } = *self;
        for _ in 0..20 {
            let t = Instant::now();
            scheduler.rendezvous();
            teardown.rendezvous_us.push(ms_since(t) * 1e3);
        }
        let (server, dir) = match server {
            ServerSlot::Plain(server) => (server, None),
            ServerSlot::Durable { primary, standby, dir, .. } => {
                drop(standby);
                (primary.into_inner(), Some(dir))
            }
            ServerSlot::Vacant => unreachable!("takeover completes within fail_over"),
        };
        server.shutdown();
        for report in scheduler.join() {
            if !report.window_contiguous {
                teardown.failures.push(format!("client {}: gapped history window", report.id));
            }
        }
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        teardown
    }
}

fn set_up(workload: Workload, seed: u64, scratch: &Path) -> Box<dyn Driver> {
    if workload.is_sim() {
        Box::new(SimDriver { sim: Simulation::new(workload.sim_config(seed)) })
    } else {
        let wal_dir = scratch.join(format!("wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&wal_dir);
        Box::new(NetDriver::build(workload, seed, &wal_dir))
    }
}

// --- process-level readings ---------------------------------------------

/// User + system CPU time of this process (all threads), in seconds.
/// `/proc/self/stat` counts in clock ticks; `USER_HZ` is 100 on every
/// Linux this runs on, and there is no libc crate to ask `sysconf`.
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14, 15.
    let after = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let ticks: u64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(|f| f.parse::<u64>().expect("tick count"))
        .sum();
    ticks as f64 / 100.0
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

// --- the run --------------------------------------------------------------

/// Everything one end-to-end run measured.
#[derive(Default)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub rounds: u64,
    pub wall_s: f64,
    pub cpu_ms_per_round: f64,
    pub peak_rss_mb: f64,
    /// Wall-clock of each ordinary timed round.
    pub round_ms: Vec<f64>,
    pub recovery_ms: Vec<f64>,
    pub messages_per_round: f64,
    pub wire_bytes_per_round: f64,
    pub frames_per_round: f64,
    pub detection: DetectionCounts,
    /// Honest rounds rejected / honest rounds, episode by episode.
    pub episode_fp_rates: Vec<f64>,
    pub failed_rounds: u64,
    /// Every failed output check, in order.
    pub failures: Vec<String>,
    pub dispatch_per_round: [f64; 5],
    pub update_phase_ms: Vec<f64>,
    pub vote_phase_ms: Vec<f64>,
    pub server_self_ms: Vec<f64>,
    pub evicted_resyncs_per_round: f64,
    pub history_bytes_per_round: f64,
    pub duplicate_deliveries: u64,
    pub launch_ms: f64,
    pub rendezvous_us: Vec<f64>,
}

impl EndToEnd {
    pub fn rounds_per_s(&self) -> f64 {
        self.rounds as f64 / self.wall_s
    }

    pub fn round_ms_p50(&self) -> f64 {
        median(&self.round_ms)
    }

    /// The percentile and how many samples lie beyond it.
    pub fn round_ms_p95(&self) -> (f64, usize) {
        percentile(&self.round_ms, 95.0)
    }

    pub fn recovery_ms_p50(&self) -> f64 {
        median(&self.recovery_ms)
    }

    pub fn fn_rate(&self) -> f64 {
        self.detection.false_negative_rate()
    }

    pub fn fp_rate(&self) -> f64 {
        self.detection.false_positive_rate()
    }

    pub fn failed_rounds_share(&self) -> f64 {
        self.failed_rounds as f64 / self.rounds as f64
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

/// What the timed windows of a run's episodes add up to.
#[derive(Default)]
struct Totals {
    cpu_s: f64,
    dispatch: [u64; 5],
    counters: NetCounters,
    evicted_resyncs: usize,
    protocol_rounds: u64,
    history_bytes: u64,
}

fn dispatch_tallies(counts: DispatchCounts) -> [u64; 5] {
    [counts.blocked, counts.simd, counts.banded, counts.batched, counts.fma]
}

/// The seed of a run's `episode`th system: the run's own for the first.
fn episode_seed(seed: u64, episode: u64) -> u64 {
    seed ^ episode.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Runs the workload in episodes until `budget` is spent, and checks the
/// outputs. An episode sets a fresh system up (timed: one `setup_s`
/// sample), runs [`WARMUP_ROUNDS`] untimed rounds, times
/// [`Workload::episode_rounds`] rounds and tears the system down.
///
/// Episodes keep every system inside the few hundred rounds the product
/// is evaluated for: driven for thousands of rounds, a converged history
/// window makes LOF reject honest rounds in streaks on some seeds
/// (`sim_cifar`, seed 22: 2 % rejected up to round 1500, 33 % by 2500),
/// and rejected rounds are cheaper, so both the output checks and the
/// timings would depend on the seed and on how fast the machine is.
pub fn run(workload: Workload, seed: u64, budget: Budget, scratch: &Path) -> EndToEnd {
    let mut out = EndToEnd::default();
    let mut totals = Totals::default();
    let mut setup_times = Vec::new();
    let mut launch_ms = Vec::new();
    let spent = |out: &EndToEnd| match budget {
        Budget::Rounds(n) => out.rounds >= n,
        Budget::Seconds(s) => out.wall_s >= s && out.episode_fp_rates.len() >= MIN_EPISODES,
    };

    let mut episode = 0;
    while !spent(&out) {
        let t = Instant::now();
        let mut driver = set_up(workload, episode_seed(seed, episode), scratch);
        setup_times.push(t.elapsed().as_secs_f64());
        episode += 1;
        for round in 1..=WARMUP_ROUNDS {
            driver.round(round);
        }

        let mut detection = DetectionCounts::default();
        let counters_before = driver.counters();
        let dispatch_before = dispatch_tallies(gemm::dispatch_counts());
        let cpu_before = cpu_seconds();
        for round in 1..=workload.episode_rounds() {
            out.rounds += 1;
            let t = Instant::now();
            let obs = driver.round(WARMUP_ROUNDS + round);
            let round_ms = ms_since(t);
            out.wall_s += round_ms / 1e3;
            if obs.ordinary {
                out.round_ms.push(round_ms);
            }
            if let Some((poisoned, rejected)) = obs.detection {
                detection.record(poisoned, rejected);
            }
            if let Some(why) = obs.failure {
                out.failed_rounds += 1;
                out.failures.push(why);
            }
            out.recovery_ms.extend(obs.recovery_ms);
            if let Some(server) = obs.server {
                totals.protocol_rounds += server.protocol_rounds;
                totals.history_bytes += server.history_bytes;
                if obs.ordinary {
                    out.update_phase_ms.push(server.update_ms);
                    out.vote_phase_ms.push(server.vote_ms);
                    out.server_self_ms.push(server.self_ms);
                    totals.evicted_resyncs += server.evicted_resyncs;
                    out.duplicate_deliveries += server.duplicate_deliveries as u64;
                }
            }
        }
        totals.cpu_s += cpu_seconds() - cpu_before;
        let dispatch_after = dispatch_tallies(gemm::dispatch_counts());
        for (total, (after, before)) in
            totals.dispatch.iter_mut().zip(dispatch_after.into_iter().zip(dispatch_before))
        {
            *total += after - before;
        }
        let counters = driver.counters();
        totals.counters.messages += counters.messages - counters_before.messages;
        totals.counters.wire_bytes += counters.wire_bytes - counters_before.wire_bytes;
        totals.counters.wire_frames += counters.wire_frames - counters_before.wire_frames;
        out.detection.merge(&detection);
        out.episode_fp_rates.push(detection.false_positive_rate());

        let teardown = driver.finish();
        out.failures.extend(teardown.failures);
        launch_ms.push(teardown.launch_ms);
        out.rendezvous_us.extend(teardown.rendezvous_us);
    }
    // `setup_s` is a median: it rests on [`MIN_EPISODES`] set-ups at
    // least, and a 30 ms set-up is repeated until a second has gone into
    // set-ups.
    while setup_times.len() < MIN_EPISODES
        || (setup_times.iter().sum::<f64>() < 1.0 && setup_times.len() < MAX_SETUP_REPEATS)
    {
        let t = Instant::now();
        let driver = set_up(workload, episode_seed(seed, episode), scratch);
        setup_times.push(t.elapsed().as_secs_f64());
        episode += 1;
        driver.finish();
    }

    let rounds = out.rounds as f64;
    out.setup_s = median(&setup_times);
    out.launch_ms = median(&launch_ms);
    out.cpu_ms_per_round = totals.cpu_s * 1e3 / rounds;
    out.dispatch_per_round = totals.dispatch.map(|n| n as f64 / rounds);
    out.messages_per_round = totals.counters.messages as f64 / rounds;
    out.wire_bytes_per_round = totals.counters.wire_bytes as f64 / rounds;
    out.frames_per_round = totals.counters.wire_frames as f64 / rounds;
    out.evicted_resyncs_per_round = totals.evicted_resyncs as f64 / rounds;
    out.history_bytes_per_round = totals.history_bytes as f64 / rounds;
    out.peak_rss_mb = peak_rss_mb();

    // The driver gates only what `BENCHMARK.json` lists end to end, and
    // that list cannot hold a metric that is zero on some workload. So
    // the count metrics' bounds are applied here, against what the
    // configuration fixes, and fail the run.
    if !workload.is_sim() {
        let config = workload.deployment_config(seed);
        let sampled = (config.clients_per_round + config.validators_per_round) as u64;
        let Totals { protocol_rounds, history_bytes, counters, .. } = totals;
        // Task, answer (update, vote or abstention) and round result.
        let expected = 3 * sampled * protocol_rounds;
        if counters.messages > expected {
            out.failures.push(format!(
                "{} messages over {protocol_rounds} protocol rounds, expected {expected}",
                counters.messages
            ));
        }
        if let Some(reference) = workload.wire_reference() {
            let per_round = |bytes: u64| bytes as f64 / protocol_rounds as f64;
            let fixed = per_round(counters.wire_bytes - history_bytes);
            let history = per_round(history_bytes);
            if fixed > reference.fixed * 1.01 {
                out.failures.push(format!(
                    "{fixed:.0} non-history wire bytes per protocol round, over {:.0} + 1 %",
                    reference.fixed
                ));
            }
            if history > reference.history * 1.05 {
                out.failures.push(format!(
                    "{history:.0} history bytes shipped per protocol round, over {:.0} + 5 %",
                    reference.history
                ));
            }
        }
    }

    // Detection checks: no poisoned round may pass (only the simulations
    // have an attacker), and honest rounds are rarely rejected.
    if out.detection.false_negatives() > 0 {
        out.failures.push(format!(
            "{} of {} poisoned rounds accepted",
            out.detection.false_negatives(),
            out.detection.poisoned()
        ));
    }
    let typical_fp = median(&out.episode_fp_rates);
    if typical_fp >= FP_CEILING {
        out.failures.push(format!(
            "median episode's false-positive rate {typical_fp:.4} not below {FP_CEILING}"
        ));
    }
    out
}
