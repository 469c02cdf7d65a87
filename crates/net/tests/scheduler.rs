//! Scheduler ↔ thread-per-client equivalence.
//!
//! The event-driven scheduler exists for scale, not for different
//! answers: on the same [`DeploymentConfig`], running every client as a
//! multiplexed state machine must produce the **bit-identical**
//! [`DeploymentOutcome`] the retained thread-per-client path produces —
//! same round decisions, same accuracies, same message tallies, same
//! per-client reports. Wall-clock phase durations are the only fields
//! allowed to differ.
//!
//! The equivalence holds regardless of worker-pool sizing (per-client
//! state is independent, `parallel_map` preserves order, the server
//! sorts updates by id, votes are order-free counts), so CI runs this
//! suite both with default threading and pinned to `BAFFLE_THREADS=1`
//! — the variable is read once per process, hence the two CI
//! invocations rather than two in-process tests. The transport, by
//! contrast, is a value: every test here runs over in-process channels
//! and over loopback TCP in one invocation (`common::on_each_transport`).

mod common;

use baffle_net::deployment::{Deployment, DeploymentConfig, DeploymentOutcome};
use baffle_net::fault::{FaultEvent, FaultPlan};
use baffle_net::message::NodeId;
use baffle_net::server::ServerRound;
use common::on_each_transport;
use std::time::Duration;

/// Zeroes the wall-clock fields — everything the protocol *decided*
/// stays, and must match bit-for-bit.
fn normalized(outcome: &DeploymentOutcome) -> DeploymentOutcome {
    DeploymentOutcome {
        rounds: outcome
            .rounds
            .iter()
            .map(|r| ServerRound {
                update_phase: Duration::ZERO,
                vote_phase: Duration::ZERO,
                ..r.clone()
            })
            .collect(),
        ..outcome.clone()
    }
}

#[test]
fn scheduler_outcome_is_bit_identical_to_threaded_path() {
    on_each_transport(|transport| {
        let config = DeploymentConfig { transport, ..DeploymentConfig::small(21) };
        let scheduled = Deployment::build(config.clone()).run();
        let threaded = Deployment::build(config).run_threaded();
        assert_eq!(
            normalized(&scheduled),
            normalized(&threaded),
            "the scheduler must replay the threaded deployment exactly"
        );
    });
}

/// Same check on an all-honest config with more rounds than the
/// bootstrap phase, so the equivalence also covers mature-history
/// validation rounds (real votes, not just abstentions).
#[test]
fn equivalence_holds_past_the_bootstrap_phase() {
    on_each_transport(|transport| {
        let mut config = DeploymentConfig { transport, ..DeploymentConfig::small(22) };
        config.malicious_clients = 0;
        config.rounds = 9;
        let scheduled = Deployment::build(config.clone()).run();
        let threaded = Deployment::build(config).run_threaded();
        assert_eq!(normalized(&scheduled), normalized(&threaded));
    });
}

/// A scripted crash/restart plan driven through the scheduler: the
/// crashed machine reports once, its restarted incarnation reports
/// again with a fresh (contiguous) history cache, and the server
/// completes every round. This mirrors the threaded chaos invariants —
/// crash timing is wall-clock-dependent, so this asserts invariants,
/// not bit-equality.
#[test]
fn scheduler_executes_scripted_crash_and_restart() {
    on_each_transport(|transport| {
        let mut config = DeploymentConfig { transport, ..DeploymentConfig::small(23) };
        config.malicious_clients = 0;
        config.rounds = 6;
        config.phase_timeout = Duration::from_millis(1500);
        config.faults = Some(FaultPlan::lossless(23).event(FaultEvent::Crash {
            node: NodeId(4),
            at_round: 2,
            restart_round: Some(4),
        }));
        let outcome = Deployment::build(config.clone()).run();

        assert_eq!(outcome.rounds.len(), 6, "a crashed client must not stall the server");
        assert!(outcome.rounds.iter().all(|r| !r.transport_lost));
        // One report per incarnation: 8 clients + the restarted one.
        assert_eq!(outcome.client_reports.len(), config.num_clients + 1);
        let incarnations: Vec<_> =
            outcome.client_reports.iter().filter(|r| r.id == NodeId(4)).collect();
        assert_eq!(incarnations.len(), 2, "node 4 reports for both incarnations");
        for report in &outcome.client_reports {
            assert!(
                report.window_contiguous,
                "client {:?} exited with a gapped history window",
                report.id
            );
        }
        // Lossless plan: the only unreceivable sends are those racing the
        // crash window, and none may be booked as link loss.
        assert_eq!(outcome.messages_dropped, 0);
        assert_eq!(outcome.messages_corrupted, 0);
    });
}

/// The scheduler at the scale it exists for: 2 000 registered clients,
/// 50 contributors and 25 validators sampled per round, thin shards.
/// Every round completes on a live transport with every sampled client
/// accounted for — it answered, or abstained (a shard of ~2 samples
/// cannot always validate).
#[test]
fn two_thousand_registered_clients_complete_every_round() {
    on_each_transport(|transport| {
        let config = DeploymentConfig { transport, ..DeploymentConfig::at_scale(77, 2_000) };
        let sampled = config.clients_per_round + config.validators_per_round;
        let rounds = config.rounds as usize;
        let outcome = Deployment::build(config).run();

        assert_eq!(outcome.rounds.len(), rounds, "deployment must finish every round");
        for r in &outcome.rounds {
            assert!(!r.transport_lost, "round {}: transport lost", r.round);
            let accounted = r.updates_received + r.votes_received + r.abstentions;
            assert!(
                accounted >= sampled,
                "round {}: {accounted} of {sampled} sampled clients accounted for",
                r.round
            );
        }
    });
}
