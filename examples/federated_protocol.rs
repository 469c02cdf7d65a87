//! Runs BaFFLe as an actual message-passing protocol: one server thread
//! and a fleet of client threads exchanging wire-encoded models over a
//! (lossy) in-process network — the deployment view of the system, with
//! timeouts, dropouts and incremental history shipping.
//!
//! ```sh
//! cargo run --release --example federated_protocol
//! ```

use baffle::net::deployment::{Deployment, DeploymentConfig};
use std::time::Duration;

fn main() {
    let mut config = DeploymentConfig::small(11);
    config.num_clients = 16;
    config.clients_per_round = 6;
    config.validators_per_round = 6;
    config.quorum = 3;
    config.lookback = 8;
    config.rounds = 16;
    config.total_train = 3_000;
    config.warmup_central_epochs = 14;
    config.drop_prob = 0.05; // 5% message loss
    config.phase_timeout = Duration::from_secs(5);
    // Sockets instead of channels: `config.transport = TransportMode::Socket(SocketKind::Tcp);`

    println!(
        "deploying: {} clients ({} malicious), {} rounds, 5% message loss\n",
        config.num_clients, config.malicious_clients, config.rounds
    );
    let outcome = Deployment::run(config);

    println!(
        "round  accepted  updates  votes  rejects  abstain  upd-phase  vote-phase  history shipped"
    );
    for r in &outcome.rounds {
        println!(
            "{:>5}  {:>8}  {:>7}  {:>5}  {:>7}  {:>7}  {:>7.0?}  {:>8.0?}  {:>12} B{}",
            r.round,
            if r.accepted { "yes" } else { "NO" },
            r.updates_received,
            r.votes_received,
            r.reject_votes,
            r.abstentions,
            r.update_phase,
            r.vote_phase,
            r.history_bytes_shipped,
            if r.quorum_clamped { "  (quorum clamped!)" } else { "" },
        );
    }
    println!(
        "\nmessages: {} sent, {} dropped by the network",
        outcome.messages_sent, outcome.messages_dropped
    );
    println!(
        "final model: main accuracy {:.3}, backdoor accuracy {:.3}",
        outcome.final_main_accuracy, outcome.final_backdoor_accuracy
    );
}
