//! Regression tests for server intake hardening: submissions from nodes
//! outside the round's sampled sets, spoofed sender ids and malformed
//! updates must be rejected at the door.
//!
//! Each test drives a real [`Server`] through scripted client threads
//! over the in-process [`Network`]. The transport delivers each node's
//! messages in send order, so a rogue message queued before the honest
//! replies is guaranteed to reach the server first — these tests fail on
//! the pre-fix server (corrupted aggregate, panic, stuffed quorum).
//!
//! The last test is a table over the server's one receive loop: every
//! intake rule, for a payload and for an abstention, must move the same
//! `ServerRound` counters whether it fires in the update phase or in the
//! vote phase.

mod common;

use baffle_core::{ValidationConfig, Validator, Vote};
use baffle_data::Dataset;
use baffle_fl::{FlConfig, WireProfile};
use baffle_net::fault::FaultPlan;
use baffle_net::message::{AbstainReason, Message, NodeId};
use baffle_net::server::{Server, ServerConfig, ServerRound};
use baffle_net::socket::TransportMode;
use baffle_net::transport::{Endpoint, Network};
use baffle_nn::{wire, Mlp, MlpSpec, Model};
use common::on_each_transport;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

const NUM_CLIENTS: usize = 3;

fn tiny_model(seed: u64) -> Mlp {
    let mut rng = StdRng::seed_from_u64(seed);
    Mlp::new(&MlpSpec::new(2, &[], 2), &mut rng)
}

/// A server where every client is sampled both as contributor and as
/// validator every round (3 of 3), so membership itself is never the
/// reason an honest submission would be missing.
fn make_server(network: &Network, quorum: usize, timeout_ms: u64, initial: &Mlp) -> Server {
    let endpoint = network.register(NodeId::SERVER);
    let config = ServerConfig {
        fl: FlConfig::new(NUM_CLIENTS, NUM_CLIENTS),
        validators_per_round: NUM_CLIENTS,
        quorum,
        phase_timeout: Duration::from_millis(timeout_ms),
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

/// Actor loop of a scripted client: answers every train request with the
/// fixed `update`, runs `on_validate` for every validate request, exits
/// on shutdown.
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

#[test]
fn unsolicited_update_cannot_reach_aggregation() {
    on_each_transport(|transport| {
        let network = Network::with_transport(FaultPlan::lossless(0), transport);
        let initial = tiny_model(1);
        let before = initial.params();
        let mut server = make_server(&network, 2, 2_000, &initial);

        // A node that was never sampled injects a boosted "update" before the
        // round even starts — it is the first thing the server dequeues.
        let rogue = network.register(NodeId(9));
        rogue.send(
            NodeId::SERVER,
            Message::UpdateSubmission {
                round: 1,
                from: NodeId(9),
                update: wire::encode_f32(&vec![1e6; initial.num_params()]),
            },
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

        assert_eq!(round.rejected_submissions, 1, "the rogue update must be counted as rejected");
        assert_eq!(round.updates_received, NUM_CLIENTS, "all honest updates still aggregate");
        assert!(round.accepted);
        // All honest updates were zero, so the global model must be exactly
        // unchanged: the 1e6-boosted injection never touched FedAvg.
        assert_eq!(server.global_model().params(), before);
    });
}

#[test]
fn wrong_length_update_is_discarded_not_fatal() {
    on_each_transport(|transport| {
        let network = Network::with_transport(FaultPlan::lossless(0), transport);
        let initial = tiny_model(2);
        let before = initial.params();
        let mut server = make_server(&network, 2, 600, &initial);

        let round = crossbeam::thread::scope(|scope| {
            for c in 0..NUM_CLIENTS {
                let endpoint = network.register(NodeId(c as u32));
                // Client 2 is sampled but buggy/malicious: its update has half
                // the parameters. Pre-fix this panicked the server inside the
                // aggregation kernel.
                let update = if c == 2 {
                    vec![0.0f32; initial.num_params() / 2]
                } else {
                    vec![0.0f32; initial.num_params()]
                };
                scope.spawn(move |_| run_scripted_client(endpoint, update, accept_vote));
            }
            let round = server.run_round();
            server.shutdown();
            round
        })
        .expect("client thread panicked");

        assert_eq!(round.rejected_submissions, 1);
        assert_eq!(round.updates_received, NUM_CLIENTS - 1);
        assert!(round.accepted);
        assert_eq!(server.global_model().params(), before);
    });
}

#[test]
fn duplicate_update_submissions_keep_the_first() {
    on_each_transport(|transport| {
        let network = Network::with_transport(FaultPlan::lossless(0), transport);
        let initial = tiny_model(4);
        let before = initial.params();
        let mut server = make_server(&network, 2, 600, &initial);

        let round = crossbeam::thread::scope(|scope| {
            // Client 0 double-submits: first a zero update, then a boosted
            // one. First wins; the duplicate must be rejected at intake.
            let dup = network.register(NodeId(0));
            let n_params = initial.num_params();
            scope.spawn(move |_| {
                while let Ok(env) = dup.recv() {
                    match env.message {
                        Message::TrainRequest { round, .. } => {
                            for update in [vec![0.0f32; n_params], vec![1e6; n_params]] {
                                dup.send(
                                    NodeId::SERVER,
                                    Message::UpdateSubmission {
                                        round,
                                        from: dup.id(),
                                        update: wire::encode_f32(&update),
                                    },
                                );
                            }
                        }
                        Message::ValidateRequest { round, .. } => accept_vote(&dup, round),
                        Message::Shutdown => break,
                        _ => {}
                    }
                }
            });
            let honest = network.register(NodeId(1));
            let zeros = vec![0.0f32; initial.num_params()];
            scope.spawn(move |_| run_scripted_client(honest, zeros, accept_vote));
            // Client 2 is mute: the phases run to their (short) timeout, so
            // the server is guaranteed to drain the duplicate submission.
            let mute = network.register(NodeId(2));
            scope.spawn(move |_| {
                while let Ok(env) = mute.recv() {
                    if env.message == Message::Shutdown {
                        break;
                    }
                }
            });

            let round = server.run_round();
            server.shutdown();
            round
        })
        .expect("client thread panicked");

        // A repeat to an already-settled slot is indistinguishable from a
        // link-level duplicate, so it lands in `duplicate_deliveries` — not
        // in `rejected_submissions`, which is reserved for sender misbehavior.
        assert_eq!(round.duplicate_deliveries, 1, "the duplicate must be counted as a duplicate");
        assert_eq!(round.rejected_submissions, 0, "a repeat is not an intake violation");
        assert_eq!(round.updates_received, 2, "clients 0 and 1 each contribute exactly once");
        assert!(round.accepted);
        // Both counted updates were zero: if the boosted duplicate had
        // overwritten the first submission, the global model would move.
        assert_eq!(server.global_model().params(), before);
    });
}

#[test]
fn quorum_clamping_is_surfaced_on_the_round() {
    on_each_transport(|transport| {
        for (configured_quorum, expect_clamped) in [(9, true), (2, false)] {
            let network = Network::with_transport(FaultPlan::lossless(0), transport);
            let initial = tiny_model(5);
            // 3 voters total (server does not vote): q = 9 cannot be met and
            // is silently lowered — the round must report the clamp.
            let mut server = make_server(&network, configured_quorum, 2_000, &initial);

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

            assert_eq!(
                round.quorum_clamped, expect_clamped,
                "q={configured_quorum} over {NUM_CLIENTS} voters"
            );
            assert!(round.accepted);
        }
    });
}

#[test]
fn votes_from_outside_the_validator_set_cannot_stuff_the_quorum() {
    on_each_transport(|transport| {
        let network = Network::with_transport(FaultPlan::lossless(0), transport);
        let initial = tiny_model(3);
        // Quorum 1: a single counted Reject kills the round — the easiest
        // possible target for a stuffing attack.
        let mut server = make_server(&network, 1, 2_000, &initial);

        let rogue_a = network.register(NodeId(50));
        let rogue_b = network.register(NodeId(51));
        let spoofer = network.register(NodeId(9));

        // Honest validators hold their votes until the coordinator saw the
        // rogue votes enter the server's queue first.
        let (signal_tx, signal_rx) = crossbeam::channel::unbounded::<u64>();
        let (gate_tx, gate_rx) = crossbeam::channel::unbounded::<()>();

        let round = crossbeam::thread::scope(|scope| {
            for c in 0..NUM_CLIENTS {
                let endpoint = network.register(NodeId(c as u32));
                let zeros = vec![0.0f32; initial.num_params()];
                let signal_tx = signal_tx.clone();
                let gate_rx = gate_rx.clone();
                scope.spawn(move |_| {
                    run_scripted_client(endpoint, zeros, |endpoint, round| {
                        // The coordinator only waits for the first signal; it
                        // may be gone by the time the others fire.
                        let _ = signal_tx.send(round);
                        gate_rx.recv().expect("gate open");
                        accept_vote(endpoint, round);
                    });
                });
            }
            scope.spawn(move |_| {
                // A validate request went out, so the update phase is over:
                // stuff three Reject votes, then release the honest voters.
                let round = signal_rx.recv().expect("a validator was asked");
                for rogue in [&rogue_a, &rogue_b] {
                    rogue.send(
                        NodeId::SERVER,
                        Message::VoteSubmission { round, from: rogue.id(), vote: Vote::Reject },
                    );
                }
                // Impersonation attempt: claims to be sampled validator 0.
                spoofer.send(
                    NodeId::SERVER,
                    Message::VoteSubmission { round, from: NodeId(0), vote: Vote::Reject },
                );
                for _ in 0..NUM_CLIENTS {
                    gate_tx.send(()).expect("clients alive");
                }
            });
            let round = server.run_round();
            server.shutdown();
            round
        })
        .expect("thread panicked");

        assert_eq!(round.rejected_votes, 3, "both outsiders and the spoofer must be rejected");
        assert_eq!(round.reject_votes, 0, "no rogue Reject may be counted");
        assert_eq!(round.votes_received, NUM_CLIENTS);
        assert!(round.accepted, "quorum stuffing must not veto the round");
    });
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Update,
    Vote,
}

/// Which kind of reply breaks the rule: the phase's payload message
/// (update or vote) or an abstention.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Payload,
    Abstain,
}

#[derive(Debug, Clone, Copy)]
enum Fault {
    WrongPhase,
    StaleRound,
    SpoofedFrom,
    UnsampledSender,
    RepeatAfterAnswer,
    RepeatAfterAbstain,
}

/// A node that is registered on the network but never sampled.
const ROGUE: u32 = 9;

/// A well-formed `kind` message for `phase` of `round`, claiming `from`.
fn reply(phase: Phase, kind: Kind, round: u64, from: u32, n_params: usize) -> Message {
    let from = NodeId(from);
    match (kind, phase) {
        (Kind::Payload, Phase::Update) => Message::UpdateSubmission {
            round,
            from,
            update: wire::encode_f32(&vec![0.0; n_params]),
        },
        (Kind::Payload, Phase::Vote) => Message::VoteSubmission { round, from, vote: Vote::Accept },
        (Kind::Abstain, Phase::Update) => {
            Message::Abstain { round, from, reason: AbstainReason::EmptyShard }
        }
        (Kind::Abstain, Phase::Vote) => {
            Message::Abstain { round, from, reason: AbstainReason::NoValidationData }
        }
    }
}

/// What reaches the server in `phase` of round 1, in order, as `(sending
/// endpoint, message)`: client 2 (or the rogue) breaks one rule with a
/// `kind` message, everybody else answers properly. The last message is
/// always one the phase has to wait for, so the ledger cannot close the
/// phase before the faulty message has been read.
fn traffic(phase: Phase, kind: Kind, fault: Option<Fault>, n: usize) -> Vec<(u32, Message)> {
    let other = if phase == Phase::Update { Phase::Vote } else { Phase::Update };
    let answer = |c: u32| (c, reply(phase, Kind::Payload, 1, c, n));
    let Some(fault) = fault else {
        return vec![answer(0), answer(1), answer(2)];
    };
    match fault {
        Fault::WrongPhase => {
            vec![(2, reply(other, kind, 1, 2, n)), answer(0), answer(1), answer(2)]
        }
        Fault::StaleRound => {
            vec![(2, reply(phase, kind, 0, 2, n)), answer(0), answer(1), answer(2)]
        }
        // Client 2 claims to be client 0. Its own slot settles as
        // rejected, so the phase ends without waiting for it.
        Fault::SpoofedFrom => vec![(2, reply(phase, kind, 1, 0, n)), answer(0), answer(1)],
        Fault::UnsampledSender => {
            vec![(ROGUE, reply(phase, kind, 1, ROGUE, n)), answer(0), answer(1), answer(2)]
        }
        Fault::RepeatAfterAnswer => {
            vec![answer(2), (2, reply(phase, kind, 1, 2, n)), answer(0), answer(1)]
        }
        Fault::RepeatAfterAbstain => vec![
            (2, reply(phase, Kind::Abstain, 1, 2, n)),
            (2, reply(phase, kind, 1, 2, n)),
            answer(0),
            answer(1),
        ],
    }
}

/// Runs round 1 with `fault` injected into `phase` and the other phase
/// clean. One thread plays every client over the in-process transport,
/// pinned here where the other tests loop over transports: a single
/// sender over channels is what makes the server's receive order the
/// scripted order.
fn run_faulty_round(phase: Phase, kind: Kind, fault: Fault) -> ServerRound {
    let network = Network::with_transport(FaultPlan::lossless(0), TransportMode::InProcess);
    let initial = tiny_model(6);
    let mut server = make_server(&network, 2, 10_000, &initial);
    let endpoints: Vec<(u32, Endpoint)> =
        (0..NUM_CLIENTS as u32).chain([ROGUE]).map(|c| (c, network.register(NodeId(c)))).collect();
    let n = initial.num_params();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for current in [Phase::Update, Phase::Vote] {
                // Every sampled client holds the phase's request before
                // anybody answers it.
                for (_, endpoint) in &endpoints[..NUM_CLIENTS] {
                    endpoint.recv().expect("phase request");
                }
                let fault = (current == phase).then_some(fault);
                for (via, message) in traffic(current, kind, fault, n) {
                    let (_, endpoint) = endpoints.iter().find(|(c, _)| *c == via).unwrap();
                    endpoint.send(NodeId::SERVER, message);
                }
            }
        });
        server.run_round()
    })
}

#[test]
fn both_phases_apply_the_same_intake_rules() {
    // (received, rejected at intake, abstentions, duplicate deliveries)
    let table = [
        (Fault::WrongPhase, (3, 0, 0, 0)),
        (Fault::StaleRound, (3, 0, 0, 0)),
        (Fault::SpoofedFrom, (2, 1, 0, 0)),
        (Fault::UnsampledSender, (3, 1, 0, 0)),
        (Fault::RepeatAfterAnswer, (3, 0, 0, 1)),
        (Fault::RepeatAfterAbstain, (2, 0, 1, 1)),
    ];
    for kind in [Kind::Payload, Kind::Abstain] {
        for (fault, expected) in table {
            let case = format!("{kind:?} / {fault:?}");
            let u = run_faulty_round(Phase::Update, kind, fault);
            let v = run_faulty_round(Phase::Vote, kind, fault);
            let in_update_phase =
                (u.updates_received, u.rejected_submissions, u.abstentions, u.duplicate_deliveries);
            let in_vote_phase =
                (v.votes_received, v.rejected_votes, v.abstentions, v.duplicate_deliveries);
            assert_eq!(in_update_phase, expected, "{case}, update phase");
            assert_eq!(in_vote_phase, expected, "{case}, vote phase");
            // The fault stayed in its phase, and no slot was left to the
            // timeout.
            assert_eq!((u.votes_received, u.rejected_votes), (NUM_CLIENTS, 0), "{case}");
            assert_eq!((v.updates_received, v.rejected_submissions), (NUM_CLIENTS, 0), "{case}");
            for r in [&u, &v] {
                assert!(r.accepted && !r.transport_lost, "{case}");
                assert_eq!((r.reject_votes, r.corrupted_payloads), (0, 0), "{case}");
                assert!(r.update_phase + r.vote_phase < Duration::from_secs(5), "{case}");
            }
        }
    }
}
