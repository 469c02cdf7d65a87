//! Phase-ledger liveness tests: a round must terminate as soon as every
//! sampled node is *accounted for* (answered, rejected at intake, or
//! explicitly abstained) — never burn the full `phase_timeout` on a node
//! that already responded badly. Only genuinely silent nodes may cost
//! wall-clock.
//!
//! The timing assertions use a deliberately huge `phase_timeout` (10 s)
//! and require completion in under 25% of it, so they fail loudly
//! against a server that waits out the clock while staying robust on
//! loaded CI runners.

mod common;

use baffle_core::{ValidationConfig, Validator, Vote};
use baffle_data::{Dataset, SyntheticVision, VisionSpec};
use baffle_fl::{FlConfig, LocalTrainer, WireProfile};
use baffle_net::client::{Client, ClientRole};
use baffle_net::fault::FaultPlan;
use baffle_net::message::{AbstainReason, Message, NodeId};
use baffle_net::server::{Server, ServerConfig};
use baffle_net::transport::{Endpoint, Network};
use baffle_nn::{wire, Mlp, MlpSpec, Model};
use bytes::Bytes;
use common::on_each_transport;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

const NUM_CLIENTS: usize = 3;
/// The deliberately huge per-phase budget the ledger must never burn.
const PHASE_TIMEOUT: Duration = Duration::from_secs(10);
/// The acceptance bar: a fully-accounted round finishes well under 25%
/// of the phase timeout (it actually takes milliseconds).
const EARLY_EXIT_BUDGET: Duration = Duration::from_millis(2_500);

fn tiny_model(seed: u64) -> Mlp {
    let mut rng = StdRng::seed_from_u64(seed);
    Mlp::new(&MlpSpec::new(2, &[], 2), &mut rng)
}

/// A server sampling every client as contributor and validator each
/// round, with the huge phase timeout the ledger must sidestep.
fn make_server(network: &Network, initial: &Mlp) -> Server {
    let endpoint = network.register(NodeId::SERVER);
    let config = ServerConfig {
        fl: FlConfig::new(NUM_CLIENTS, NUM_CLIENTS),
        validators_per_round: NUM_CLIENTS,
        quorum: 2,
        phase_timeout: PHASE_TIMEOUT,
        server_votes: false,
        seed: 7,
        bootstrap_rounds: 0,
        bootstrap_trusted: Vec::new(),
        wire: WireProfile::lossless(),
    };
    Server::new(
        endpoint,
        config,
        initial.clone(),
        5,
        Validator::new(ValidationConfig::new(3)),
        Dataset::empty(2, 2),
    )
}

/// Scripted actor: replies to train requests with `update`, to validate
/// requests with `on_validate`, exits on shutdown.
fn run_scripted_client(endpoint: Endpoint, update: Vec<f32>, on_validate: impl Fn(&Endpoint, u64)) {
    while let Ok(env) = endpoint.recv() {
        match env.message {
            Message::TrainRequest { round, .. } => {
                endpoint.send(
                    NodeId::SERVER,
                    Message::UpdateSubmission {
                        round,
                        from: endpoint.id(),
                        update: wire::encode_f32(&update),
                    },
                );
            }
            Message::ValidateRequest { round, .. } => on_validate(&endpoint, round),
            Message::Shutdown => break,
            _ => {}
        }
    }
}

fn accept_vote(endpoint: &Endpoint, round: u64) {
    endpoint.send(
        NodeId::SERVER,
        Message::VoteSubmission { round, from: endpoint.id(), vote: Vote::Accept },
    );
}

fn abstain(endpoint: &Endpoint, round: u64, reason: AbstainReason) {
    endpoint.send(NodeId::SERVER, Message::Abstain { round, from: endpoint.id(), reason });
}

/// The ISSUE's acceptance scenario: one contributor submits a
/// wrong-length update; the round must complete in a small fraction of
/// `phase_timeout` because the bad submitter is *accounted for*, not
/// waited on. Fails against a collector that compares `updates.len()`
/// to the sample size.
#[test]
fn wrong_length_update_round_completes_in_fraction_of_timeout() {
    on_each_transport(|transport| {
        let network = Network::with_transport(FaultPlan::lossless(0), transport);
        let initial = tiny_model(1);
        let mut server = make_server(&network, &initial);

        let (round, elapsed) = crossbeam::thread::scope(|scope| {
            for c in 0..NUM_CLIENTS {
                let endpoint = network.register(NodeId(c as u32));
                let update = if c == 2 {
                    vec![0.0f32; initial.num_params() / 2] // wrong length
                } else {
                    vec![0.0f32; initial.num_params()]
                };
                scope.spawn(move |_| run_scripted_client(endpoint, update, accept_vote));
            }
            let start = Instant::now();
            let round = server.run_round();
            let elapsed = start.elapsed();
            server.shutdown();
            (round, elapsed)
        })
        .expect("client thread panicked");

        assert!(
            elapsed < EARLY_EXIT_BUDGET,
            "round burned the phase timeout on a rejected update: {elapsed:?}"
        );
        assert_eq!(round.rejected_submissions, 1);
        assert_eq!(round.updates_received, NUM_CLIENTS - 1);
        assert!(round.accepted);
        assert!(round.update_phase < EARLY_EXIT_BUDGET, "update phase: {:?}", round.update_phase);
        assert!(round.vote_phase < EARLY_EXIT_BUDGET, "vote phase: {:?}", round.vote_phase);
    });
}

#[test]
fn all_contributors_rejected_skips_round_without_waiting() {
    on_each_transport(|transport| {
        let network = Network::with_transport(FaultPlan::lossless(0), transport);
        let initial = tiny_model(2);
        let mut server = make_server(&network, &initial);

        let (round, elapsed) = crossbeam::thread::scope(|scope| {
            for c in 0..NUM_CLIENTS {
                let endpoint = network.register(NodeId(c as u32));
                let wrong = vec![0.0f32; initial.num_params() + 1];
                scope.spawn(move |_| run_scripted_client(endpoint, wrong, accept_vote));
            }
            let start = Instant::now();
            let round = server.run_round();
            let elapsed = start.elapsed();
            server.shutdown();
            (round, elapsed)
        })
        .expect("client thread panicked");

        assert!(elapsed < EARLY_EXIT_BUDGET, "skipped round still waited: {elapsed:?}");
        assert_eq!(round.rejected_submissions, NUM_CLIENTS);
        assert_eq!(round.updates_received, 0);
        assert!(!round.accepted, "a round with no surviving updates is skipped");
        assert_eq!(round.vote_phase, Duration::ZERO, "the vote phase must never start");
    });
}

#[test]
fn abstaining_validator_ends_vote_phase_early() {
    on_each_transport(|transport| {
        let network = Network::with_transport(FaultPlan::lossless(0), transport);
        let initial = tiny_model(3);
        let mut server = make_server(&network, &initial);

        let (round, elapsed) = crossbeam::thread::scope(|scope| {
            for c in 0..NUM_CLIENTS {
                let endpoint = network.register(NodeId(c as u32));
                let zeros = vec![0.0f32; initial.num_params()];
                scope.spawn(move |_| {
                    run_scripted_client(endpoint, zeros, |endpoint, round| {
                        if endpoint.id() == NodeId(2) {
                            abstain(endpoint, round, AbstainReason::HistoryTooShort);
                        } else {
                            accept_vote(endpoint, round);
                        }
                    });
                });
            }
            let start = Instant::now();
            let round = server.run_round();
            let elapsed = start.elapsed();
            server.shutdown();
            (round, elapsed)
        })
        .expect("client thread panicked");

        assert!(elapsed < EARLY_EXIT_BUDGET, "round waited on an abstainer: {elapsed:?}");
        assert_eq!(round.abstentions, 1);
        assert_eq!(round.votes_received, NUM_CLIENTS - 1);
        assert_eq!(round.rejected_votes, 0, "an abstention is not an intake violation");
        assert!(round.accepted);
    });
}

/// Every validator abstains: the decision falls back to the paper's
/// implicit-accept semantics (no Reject votes → accept), and the phase
/// exits as soon as all abstentions are in.
#[test]
fn abstain_only_vote_phase_is_an_implicit_accept() {
    on_each_transport(|transport| {
        let network = Network::with_transport(FaultPlan::lossless(0), transport);
        let initial = tiny_model(4);
        let mut server = make_server(&network, &initial);

        let (round, elapsed) = crossbeam::thread::scope(|scope| {
            for c in 0..NUM_CLIENTS {
                let endpoint = network.register(NodeId(c as u32));
                let zeros = vec![0.0f32; initial.num_params()];
                scope.spawn(move |_| {
                    run_scripted_client(endpoint, zeros, |endpoint, round| {
                        abstain(endpoint, round, AbstainReason::NoValidationData);
                    });
                });
            }
            let start = Instant::now();
            let round = server.run_round();
            let elapsed = start.elapsed();
            server.shutdown();
            (round, elapsed)
        })
        .expect("client thread panicked");

        assert!(elapsed < EARLY_EXIT_BUDGET, "round waited on abstainers: {elapsed:?}");
        assert_eq!(round.abstentions, NUM_CLIENTS);
        assert_eq!(round.votes_received, 0);
        assert_eq!(round.reject_votes, 0);
        assert!(round.accepted, "abstentions are implicit accepts (footnote 1)");
    });
}

/// An abstention cannot be forged: a spoofed or unsolicited abstain is
/// rejected at intake and must not settle a sampled validator's slot
/// (otherwise a rogue could silence honest voters).
#[test]
fn spoofed_abstention_cannot_settle_an_honest_validator() {
    on_each_transport(|transport| {
        let network = Network::with_transport(FaultPlan::lossless(0), transport);
        let initial = tiny_model(5);
        let mut server = make_server(&network, &initial);

        // Queued before the round starts, so the server sees it first.
        let rogue = network.register(NodeId(9));
        rogue.send(
            NodeId::SERVER,
            Message::Abstain {
                round: 1,
                from: NodeId(0), // claims to be sampled validator 0
                reason: AbstainReason::HistoryTooShort,
            },
        );
        // Train-phase reasons must not leak into the vote ledger either.
        rogue.send(
            NodeId::SERVER,
            Message::Abstain { round: 1, from: NodeId(9), reason: AbstainReason::EmptyShard },
        );

        let round = crossbeam::thread::scope(|scope| {
            for c in 0..NUM_CLIENTS {
                let endpoint = network.register(NodeId(c as u32));
                let zeros = vec![0.0f32; initial.num_params()];
                scope.spawn(move |_| run_scripted_client(endpoint, zeros, accept_vote));
            }
            let round = server.run_round();
            server.shutdown();
            round
        })
        .expect("client thread panicked");

        assert_eq!(round.abstentions, 0, "no forged abstention may be counted");
        assert_eq!(round.votes_received, NUM_CLIENTS, "client 0's real vote still counts");
        assert!(round.accepted);
    });
}

// ---------------------------------------------------------------------
// Real-client abstention behaviour (the other half of the handshake).
// ---------------------------------------------------------------------

fn spawn_real_client(
    network: &Network,
    id: NodeId,
    data: Dataset,
    template: &Mlp,
) -> impl FnOnce() + Send {
    let endpoint = network.register(id);
    let mut client = Client::new(
        endpoint.outbox(),
        Arc::new(data),
        LocalTrainer::new(1, 0.1, 16),
        Validator::new(ValidationConfig::new(3)),
        ClientRole::Honest,
        5,
        Arc::new(template.clone()),
        WireProfile::lossless(),
        11,
    );
    move || {
        client.run(&endpoint);
    }
}

fn small_dataset(seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let gen = SyntheticVision::new(&VisionSpec::new(2, 2, 1), &mut rng);
    gen.generate(&mut rng, 30)
}

#[test]
fn real_client_abstains_instead_of_going_silent() {
    on_each_transport(|transport| {
        let network = Network::with_transport(FaultPlan::lossless(0), transport);
        let template = {
            let mut rng = StdRng::seed_from_u64(1);
            Mlp::new(&MlpSpec::new(2, &[], 2), &mut rng)
        };
        let server = network.register(NodeId::SERVER);
        let run = spawn_real_client(&network, NodeId(0), small_dataset(2), &template);

        crossbeam::thread::scope(|scope| {
            scope.spawn(move |_| run());
            let garbage = Bytes::from(vec![1u8, 2, 3]);

            // Undecodable global: previously the client just returned,
            // leaving the server to wait out the whole update phase.
            server.send(NodeId(0), Message::TrainRequest { round: 1, global: garbage.clone() });
            let env = server.recv_timeout(Duration::from_secs(5)).expect("client went silent");
            assert_eq!(
                env.message,
                Message::Abstain {
                    round: 1,
                    from: NodeId(0),
                    reason: AbstainReason::UndecodableGlobal
                }
            );

            // Undecodable candidate: same, for the vote phase.
            server.send(
                NodeId(0),
                Message::ValidateRequest { round: 2, candidate: garbage, history_delta: vec![] },
            );
            let env = server.recv_timeout(Duration::from_secs(5)).expect("client went silent");
            assert_eq!(
                env.message,
                Message::Abstain {
                    round: 2,
                    from: NodeId(0),
                    reason: AbstainReason::UndecodableCandidate
                }
            );

            // Decodable candidate but an empty history cache: the VALIDATE
            // function cannot run, so the client abstains explicitly.
            let candidate = wire::encode_f32(&template.params());
            server.send(
                NodeId(0),
                Message::ValidateRequest { round: 3, candidate, history_delta: vec![] },
            );
            let env = server.recv_timeout(Duration::from_secs(5)).expect("client went silent");
            assert_eq!(
                env.message,
                Message::Abstain {
                    round: 3,
                    from: NodeId(0),
                    reason: AbstainReason::HistoryTooShort
                }
            );

            server.send(NodeId(0), Message::Shutdown);
        })
        .expect("client thread panicked");
    });
}

#[test]
fn real_client_with_empty_shard_abstains_from_training() {
    on_each_transport(|transport| {
        let network = Network::with_transport(FaultPlan::lossless(0), transport);
        let template = {
            let mut rng = StdRng::seed_from_u64(1);
            Mlp::new(&MlpSpec::new(2, &[], 2), &mut rng)
        };
        let server = network.register(NodeId::SERVER);
        let run = spawn_real_client(&network, NodeId(0), Dataset::empty(2, 2), &template);

        crossbeam::thread::scope(|scope| {
            scope.spawn(move |_| run());
            let global = wire::encode_f32(&template.params());
            server.send(NodeId(0), Message::TrainRequest { round: 1, global });
            let env = server.recv_timeout(Duration::from_secs(5)).expect("client went silent");
            assert_eq!(
                env.message,
                Message::Abstain { round: 1, from: NodeId(0), reason: AbstainReason::EmptyShard }
            );
            server.send(NodeId(0), Message::Shutdown);
        })
        .expect("client thread panicked");
    });
}

/// End-to-end: real server, real clients. The validators' history caches
/// are empty in round 1, so every validator abstains — and the vote
/// phase must end early instead of waiting out the huge timeout.
#[test]
fn e2e_abstaining_validators_do_not_stall_the_round() {
    on_each_transport(|transport| {
        let network = Network::with_transport(FaultPlan::lossless(0), transport);
        let template = {
            let mut rng = StdRng::seed_from_u64(3);
            Mlp::new(&MlpSpec::new(2, &[], 2), &mut rng)
        };
        let mut server = make_server(&network, &template);

        let (round, elapsed) = crossbeam::thread::scope(|scope| {
            for c in 0..NUM_CLIENTS {
                let run = spawn_real_client(
                    &network,
                    NodeId(c as u32),
                    small_dataset(10 + c as u64),
                    &template,
                );
                scope.spawn(move |_| run());
            }
            let start = Instant::now();
            let round = server.run_round();
            let elapsed = start.elapsed();
            server.shutdown();
            (round, elapsed)
        })
        .expect("client thread panicked");

        assert!(
            elapsed < EARLY_EXIT_BUDGET,
            "abstaining validators stalled the round: {elapsed:?}"
        );
        assert_eq!(round.updates_received, NUM_CLIENTS);
        // Round 1 ships only the initial model, far below the VALIDATE
        // minimum — every validator abstains with HistoryTooShort.
        assert_eq!(round.abstentions, NUM_CLIENTS);
        assert_eq!(round.votes_received, 0);
        assert!(round.accepted, "abstentions are implicit accepts");
        assert!(!round.quorum_clamped);
    });
}
