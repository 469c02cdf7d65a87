//! Integration tests for the protocol deployment, each on every
//! transport (`common::on_each_transport`).

mod common;

use baffle_net::deployment::{Deployment, DeploymentConfig};
use common::on_each_transport;
use std::time::Duration;

#[test]
fn small_deployment_completes_all_rounds() {
    on_each_transport(|transport| {
        let config = DeploymentConfig { transport, ..DeploymentConfig::small(1) };
        let phase_timeout = config.phase_timeout;
        let outcome = Deployment::run(config);
        assert_eq!(outcome.rounds.len(), 6);
        assert!(outcome.messages_sent > 0);
        assert_eq!(outcome.messages_dropped, 0);
        // Training proceeded: the final model is usable.
        assert!(outcome.final_main_accuracy > 0.5, "{}", outcome.final_main_accuracy);
        // Phase-ledger liveness accounting is populated end-to-end.
        for r in &outcome.rounds {
            assert!(!r.quorum_clamped, "round {}: q=2 over 5 voters cannot clamp", r.round);
            assert!(r.update_phase <= phase_timeout);
            assert!(r.vote_phase <= phase_timeout);
            assert!(r.vote_phase > std::time::Duration::ZERO, "vote phase must have run");
        }
        // Round 1 ships a single-model history — far below the VALIDATE
        // minimum — so every validator abstains (explicit implicit-accept)
        // rather than going silent and stalling the vote phase.
        assert_eq!(outcome.rounds[0].abstentions, 4, "round 1 validators must abstain");
        assert_eq!(outcome.rounds[0].votes_received, 0);
        assert!(outcome.rounds[0].accepted, "abstentions are implicit accepts");
        // On a lossless network, no phase should ever wait out its timeout:
        // every sampled node answers or abstains, and the ledger exits early.
        let slowest =
            outcome.rounds.iter().map(|r| r.update_phase.max(r.vote_phase)).max().unwrap();
        assert!(slowest < phase_timeout, "a phase burned its full timeout: {slowest:?}");
    });
}

#[test]
fn attacker_rounds_are_rejected_once_history_matures() {
    on_each_transport(|transport| {
        // Longer run: the attacker (client 0) poisons every round it is
        // selected for. Once validators have cached enough history, those
        // rounds must be rejected — and the backdoor must not persist.
        let mut config = DeploymentConfig { transport, ..DeploymentConfig::small(2) };
        config.rounds = 14;
        let outcome = Deployment::run(config);
        assert_eq!(outcome.rounds.len(), 14);
        let rejected = outcome.rounds.iter().filter(|r| !r.accepted).count();
        assert!(rejected >= 1, "no round was ever rejected");
        assert!(
            outcome.final_backdoor_accuracy < 0.5,
            "backdoor persisted: {}",
            outcome.final_backdoor_accuracy
        );
    });
}

#[test]
fn clean_deployment_accepts_most_rounds() {
    on_each_transport(|transport| {
        let mut config = DeploymentConfig { transport, ..DeploymentConfig::small(3) };
        config.malicious_clients = 0;
        config.rounds = 10;
        let outcome = Deployment::run(config);
        let accepted = outcome.rounds.iter().filter(|r| r.accepted).count();
        assert!(accepted >= 8, "clean deployment rejected too much: {accepted}/10");
        assert!(outcome.final_backdoor_accuracy < 0.3);
    });
}

#[test]
fn lossy_network_does_not_stall_the_protocol() {
    on_each_transport(|transport| {
        let mut config = DeploymentConfig { transport, ..DeploymentConfig::small(4) };
        config.drop_prob = 0.25;
        config.rounds = 8;
        config.phase_timeout = Duration::from_millis(1500);
        let outcome = Deployment::run(config);
        assert_eq!(outcome.rounds.len(), 8, "server must finish every round despite losses");
        assert!(outcome.messages_dropped > 0, "loss simulation inactive");
        // Some rounds proceed with fewer updates/votes than requested.
        assert!(
            outcome.rounds.iter().any(|r| r.updates_received < 4 || r.votes_received < 4),
            "no round observed a dropout: {:?}",
            outcome.rounds
        );
    });
}

#[test]
fn incremental_history_shipping_shrinks_over_time() {
    on_each_transport(|transport| {
        let mut config = DeploymentConfig { transport, ..DeploymentConfig::small(5) };
        config.malicious_clients = 0;
        config.rounds = 12;
        let outcome = Deployment::run(config);
        // Early rounds ship little (history is short); mid rounds ship the
        // full window to first-time validators; once every client has been a
        // validator, deltas shrink again. Check total shipped stays well
        // below the ship-everything-to-everyone worst case.
        let shipped: usize = outcome.rounds.iter().map(|r| r.history_bytes_shipped).sum();
        let model_bytes = 12 + 4 * (32 * 16 + 16 + 16 * 10 + 10);
        let worst_case = outcome.rounds.len() * 4 * 5 * model_bytes; // rounds × validators × window
        assert!(shipped > 0);
        assert!(
            shipped < worst_case,
            "incremental shipping saved nothing: {shipped} vs {worst_case}"
        );
    });
}

#[test]
fn bootstrap_phase_excludes_untrusted_contributors() {
    on_each_transport(|transport| {
        // With the trust-bootstrapping phase covering the whole run, the
        // attacker never contributes: no injections, no backdoor.
        let mut config = DeploymentConfig { transport, ..DeploymentConfig::small(7) };
        config.rounds = 8;
        config.bootstrap_rounds = 8;
        let outcome = Deployment::run(config);
        assert!(
            outcome.final_backdoor_accuracy < 0.3,
            "backdoor appeared during bootstrap: {}",
            outcome.final_backdoor_accuracy
        );
        let accepted = outcome.rounds.iter().filter(|r| r.accepted).count();
        assert!(accepted >= 7, "bootstrap rounds should be clean: {accepted}/8 accepted");
    });
}

#[test]
fn deployment_is_reproducible_for_a_fixed_seed() {
    on_each_transport(|transport| {
        let a = Deployment::run(DeploymentConfig { transport, ..DeploymentConfig::small(6) });
        let b = Deployment::run(DeploymentConfig { transport, ..DeploymentConfig::small(6) });
        let da: Vec<bool> = a.rounds.iter().map(|r| r.accepted).collect();
        let db: Vec<bool> = b.rounds.iter().map(|r| r.accepted).collect();
        assert_eq!(da, db, "decisions diverged across identical runs");
        assert_eq!(a.final_main_accuracy, b.final_main_accuracy);
    });
}
