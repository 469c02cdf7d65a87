//! Chaos soak suite: the full deployment (clients multiplexed on the
//! event-driven scheduler) under combined transport faults — i.i.d.
//! drop, delay+jitter, reordering, duplication, payload corruption —
//! plus scripted crash/restart and partition events.
//!
//! The standing invariants these runs must uphold, per DESIGN.md §14:
//!
//! - the server completes every configured round (faults cost wall-clock
//!   and participation, never liveness);
//! - phase-ledger counts stay bounded by the sampled sets;
//! - **zero** intake rejections: every fault an honest deployment
//!   suffers is booked as loss, corruption or duplication — never as
//!   sender misbehaviour;
//! - no client ever ends up holding a gapped history window (corrupted
//!   or lost deltas are repaired by truncation + acknowledged re-ship);
//! - with an attacker in the population, poisoned rounds are still
//!   rejected — the defense survives a faulty wire.
//!
//! The failover scenario extends the suite to the durability layer
//! (DESIGN.md §19): a scripted primary crash mid-round with hot-standby
//! takeover must uphold every invariant above, and the promoted
//! standby's state must be byte-identical to the primary's pre-crash
//! checkpoint.

#[path = "../crates/net/tests/common/mod.rs"]
mod common;

use baffle::net::deployment::{Deployment, DeploymentConfig, DeploymentOutcome};
use baffle::net::fault::{FaultEvent, FaultPlan, LinkPolicy};
use baffle::net::message::NodeId;
use baffle::net::socket::TransportMode;
use common::on_each_transport;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Runs `f` and, on panic, prints the seed and the full fault-plan
/// summary before resuming — a chaos failure reproduces from the log
/// alone, without reverse-engineering the plan from the seed.
fn with_plan_context<T>(seed: u64, plan: &FaultPlan, f: impl FnOnce() -> T) -> T {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(value) => value,
        Err(payload) => {
            eprintln!("chaos failure under seed {seed}; {}", plan.summary());
            resume_unwind(payload);
        }
    }
}

/// A per-test scratch directory for durability state, unique per
/// process so parallel test binaries never collide.
fn wal_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("baffle-chaos-{}-{}", tag, std::process::id()))
}

/// Every probabilistic fault at once, plus one crash/restart and one
/// round-long partition. Node 3 crashes at round 3 and rejoins with an
/// empty history cache at round 5; node 5 is unreachable during round 4.
fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan::uniform(
        LinkPolicy::lossless()
            .with_drop(0.03)
            .with_delay(Duration::from_millis(1), Duration::from_millis(2))
            .with_duplicate(0.05)
            .with_reorder(0.08, Duration::from_millis(4))
            .with_corrupt(0.03),
        seed ^ 0xC4A0_5EED,
    )
    .event(FaultEvent::Crash { node: NodeId(3), at_round: 3, restart_round: Some(5) })
    .event(FaultEvent::Partition { node: NodeId(5), rounds: 4..=4 })
}

/// An all-honest deployment under the chaos plan. The short phase
/// timeout keeps lost-message rounds cheap; everything else matches the
/// stock small deployment.
fn chaos_config(seed: u64, transport: TransportMode) -> DeploymentConfig {
    let mut config = DeploymentConfig { transport, ..DeploymentConfig::small(seed) };
    config.malicious_clients = 0;
    config.rounds = 7;
    config.phase_timeout = Duration::from_millis(1200);
    config.faults = Some(chaos_plan(seed));
    config
}

fn assert_invariants(seed: u64, config: &DeploymentConfig, outcome: &DeploymentOutcome) {
    // Liveness: every round completes, in order.
    assert_eq!(outcome.rounds.len(), config.rounds as usize, "seed {seed}: rounds missing");
    for (i, r) in outcome.rounds.iter().enumerate() {
        assert_eq!(r.round, i as u64 + 1, "seed {seed}: round sequence gapped");
        assert!(!r.transport_lost, "seed {seed}: the in-process transport never dies");

        // Ledger bounds: nothing is ever counted twice, so each phase's
        // tallies fit inside its sampled set.
        assert!(
            r.updates_received <= config.clients_per_round,
            "seed {seed} round {}: {} updates from {} contributors",
            r.round,
            r.updates_received,
            config.clients_per_round,
        );
        assert!(
            r.votes_received <= config.validators_per_round,
            "seed {seed} round {}: {} votes from {} validators",
            r.round,
            r.votes_received,
            config.validators_per_round,
        );
        assert!(
            r.abstentions + r.votes_received
                <= config.clients_per_round + config.validators_per_round,
            "seed {seed} round {}: ledger over-counted",
            r.round,
        );

        // The core taxonomy invariant: an all-honest deployment suffers
        // drops, corruption and duplication — but never an intake
        // rejection. An honest node must not be booked as misbehaving
        // because the network chewed its message.
        assert_eq!(
            r.rejected_submissions, 0,
            "seed {seed} round {}: honest contributor booked as rejected",
            r.round
        );
        assert_eq!(
            r.rejected_votes, 0,
            "seed {seed} round {}: honest validator booked as rejected",
            r.round
        );
    }

    // Every client incarnation — including the crashed one and its
    // restarted replacement — exits holding a contiguous history window.
    assert_eq!(
        outcome.client_reports.len(),
        config.num_clients + 1,
        "seed {seed}: one report per incarnation (8 clients + 1 restart)"
    );
    let crashed = outcome.client_reports.iter().filter(|r| r.id == NodeId(3)).count();
    assert_eq!(crashed, 2, "seed {seed}: node 3 must report twice (crash + restart)");
    for report in &outcome.client_reports {
        assert!(
            report.window_contiguous,
            "seed {seed}: client {:?} exited with a gapped history window: {report:?}",
            report.id
        );
    }
}

/// The main soak: three fixed seeds, all faults at once. Any invariant
/// violation names its seed so a failure reproduces deterministically.
#[test]
fn soak_all_faults_uphold_invariants_across_seeds() {
    on_each_transport(|transport| {
        let mut total_dropped = 0u64;
        let mut total_duplicated = 0u64;
        let mut total_corrupted = 0u64;
        for seed in [5u64, 6, 7] {
            let config = chaos_config(seed, transport);
            let outcome = with_plan_context(seed, &chaos_plan(seed), || {
                let outcome = Deployment::run(config.clone());
                assert_invariants(seed, &config, &outcome);
                outcome
            });
            total_dropped += outcome.messages_dropped;
            total_duplicated += outcome.messages_duplicated;
            total_corrupted += outcome.messages_corrupted;
        }
        // The chaos must actually have happened — a plan that injects
        // nothing would make the invariants above vacuous.
        assert!(total_dropped > 0, "drop faults never fired");
        assert!(total_duplicated > 0, "duplication faults never fired");
        assert!(total_corrupted > 0, "corruption faults never fired");
    });
}

/// The defense keeps working on a faulty wire: with an attacker in the
/// population and the transport delaying, reordering and duplicating
/// (but not losing) messages, poisoned rounds are still rejected and the
/// backdoor does not survive. Mirrors the lossless
/// `attacker_rounds_are_rejected_once_history_matures` test.
#[test]
fn poisoned_rounds_are_still_rejected_under_chaos() {
    on_each_transport(|transport| {
        let seed = 2u64;
        let mut config = DeploymentConfig { transport, ..DeploymentConfig::small(seed) };
        config.rounds = 14;
        let plan = FaultPlan::uniform(
            LinkPolicy::lossless()
                .with_delay(Duration::from_millis(1), Duration::from_millis(2))
                .with_duplicate(0.05)
                .with_reorder(0.1, Duration::from_millis(4)),
            0xFEED,
        );
        config.faults = Some(plan.clone());
        with_plan_context(seed, &plan, || {
            let outcome = Deployment::run(config.clone());
            assert_eq!(outcome.rounds.len(), 14, "seed {seed}: rounds missing");
            let rejected = outcome.rounds.iter().filter(|r| !r.accepted).count();
            assert!(rejected >= 1, "seed {seed}: no poisoned round was rejected under chaos");
            assert!(
                outcome.final_backdoor_accuracy < 0.5,
                "seed {seed}: backdoor persisted under chaos: {}",
                outcome.final_backdoor_accuracy
            );
            // No message was ever dropped or damaged, so rejections can only
            // be the defense's verdicts — and the intake must stay clean.
            assert_eq!(outcome.messages_dropped, 0, "seed {seed}: a lossless link loses nothing");
            assert_eq!(outcome.messages_corrupted, 0, "seed {seed}: nothing corrupts");
            for r in &outcome.rounds {
                assert_eq!(r.rejected_submissions, 0, "seed {seed} round {}", r.round);
                assert_eq!(r.rejected_votes, 0, "seed {seed} round {}", r.round);
            }
        });
    });
}

/// A crash without restart leaves the node's route gone for good: every
/// later send to it — protocol traffic while it is still sampled, the
/// final shutdown notice — is booked as **unroutable**, never as link
/// loss, so loss assertions on a lossless plan stay exact.
#[test]
fn crash_without_restart_books_unroutable_sends_not_drops() {
    on_each_transport(|transport| {
        let seed = 12u64;
        let mut config = DeploymentConfig { transport, ..DeploymentConfig::small(seed) };
        config.malicious_clients = 0;
        config.rounds = 5;
        config.phase_timeout = Duration::from_millis(1200);
        let plan = FaultPlan::lossless(seed).event(FaultEvent::Crash {
            node: NodeId(2),
            at_round: 2,
            restart_round: None,
        });
        config.faults = Some(plan.clone());
        with_plan_context(seed, &plan, || {
            let outcome = Deployment::run(config.clone());
            assert_eq!(
                outcome.rounds.len(),
                5,
                "seed {seed}: a crashed client must not stall the server"
            );
            // At minimum the shutdown notice to the dead node has no route.
            assert!(outcome.messages_unroutable > 0, "seed {seed}: no-route sends must be booked");
            assert_eq!(outcome.messages_dropped, 0, "seed {seed}: a lossless link loses nothing");
            assert_eq!(outcome.messages_corrupted, 0, "seed {seed}: nothing corrupts");
            // The crashed incarnation still exits with a (banked) report,
            // and nothing doubles it up.
            assert_eq!(outcome.client_reports.len(), config.num_clients, "seed {seed}");
            let crashed = outcome.client_reports.iter().filter(|r| r.id == NodeId(2)).count();
            assert_eq!(crashed, 1, "seed {seed}: a never-restarted node reports exactly once");
        });
    });
}

/// A total blackout towards one node is expressible (`drop_prob = 1.0`,
/// the closed-interval fix) and costs participation, not liveness.
#[test]
fn total_blackout_to_one_node_only_costs_participation() {
    on_each_transport(|transport| {
        use baffle::net::fault::LinkSelector;
        let seed = 9u64;
        let mut config = DeploymentConfig { transport, ..DeploymentConfig::small(seed) };
        config.malicious_clients = 0;
        config.rounds = 5;
        config.phase_timeout = Duration::from_millis(1200);
        let plan = FaultPlan::lossless(seed)
            .link(LinkSelector::to(NodeId(6)), LinkPolicy::lossless().with_drop(1.0));
        config.faults = Some(plan.clone());
        with_plan_context(seed, &plan, || {
            let outcome = Deployment::run(config.clone());
            assert_eq!(
                outcome.rounds.len(),
                5,
                "seed {seed}: a blackholed client must not stall the server"
            );
            for r in &outcome.rounds {
                assert_eq!(r.rejected_submissions, 0, "seed {seed} round {}", r.round);
                assert_eq!(r.rejected_votes, 0, "seed {seed} round {}", r.round);
            }
            // Node 6 heard no protocol traffic at all (only the fault-exempt
            // shutdown control message, which lets its actor exit cleanly).
            let report = outcome.client_reports.iter().find(|r| r.id == NodeId(6)).expect("report");
            assert_eq!(
                report.rounds_participated, 0,
                "seed {seed}: a blackholed node cannot participate"
            );
            assert!(report.window_contiguous, "seed {seed}: gapped window on node 6");
        });
    });
}

/// The durability tentpole end-to-end, under the full chaos plan: the
/// primary crashes **mid-round** — the torn round's `RoundStart` is
/// journaled and the round actually runs, but no outcome record ever
/// lands — and the hot standby that has been tailing the WAL takes
/// over. Every standing invariant must survive the failover: all seven
/// rounds complete in sequence (the torn round re-run by the new
/// server), zero honest-client rejections even though torn-round
/// traffic is still in flight during the re-ask, and no client exits
/// with a gapped history window. The recovery condition is exact: the
/// promoted standby's checkpoint must be byte-identical to the one the
/// primary cut immediately before the torn round.
#[test]
fn primary_crash_mid_round_fails_over_to_hot_standby() {
    on_each_transport(|transport| {
        for seed in [5u64, 6, 7] {
            let config = chaos_config(seed, transport);
            let plan = chaos_plan(seed);
            let dir = wal_dir(&format!("failover-{}-{seed}", transport.label()));
            let report = with_plan_context(seed, &plan, || {
                Deployment::build(config.clone()).run_with_failover(&dir, 4)
            });
            let _ = std::fs::remove_dir_all(&dir);
            assert_invariants(seed, &config, &report.outcome);
            assert_eq!(
                report.recovery_info.torn_round,
                Some(4),
                "seed {seed}: the torn round must be detected from the log"
            );
            assert_eq!(report.torn_round.round, 4, "seed {seed}: the doomed primary ran round 4");
            assert_eq!(
                report.recovery_info.checkpoint_round, 0,
                "seed {seed}: the standby restored from the launch checkpoint"
            );
            assert_eq!(
                report.recovery_info.replayed, 3,
                "seed {seed}: three journaled outcomes replayed on top of it"
            );
            assert_eq!(
                report.promoted_checkpoint, report.pre_crash_checkpoint,
                "seed {seed}: promoted standby must match the pre-crash state bit-for-bit"
            );
            assert!(
                report.recovery.is_some(),
                "seed {seed}: no round was accepted after the takeover"
            );
        }
    });
}
