//! Recovery tests: the machinery that turns a fault into a repaired
//! state instead of a silent corruption.
//!
//! - **Acknowledged history sync**: a `ValidateRequest` lost in flight
//!   must be re-shipped at the validator's next selection (the server
//!   only advances a sync point when it hears back), and a validator
//!   declaring `HistoryTooShort` gets its sync state reset so the whole
//!   window goes out again.
//! - **Server checkpoint/restore**: an interrupted-and-restored server
//!   replays the exact `ServerRound` sequence of an uninterrupted run
//!   (selection randomness is a pure function of `(seed, round)` via
//!   the splitmix64 stream derivation).
//! - **Evicted sync points**: a validator unsampled for longer than the
//!   retained window gets one full contiguous window re-ship — never a
//!   gapped delta that would cost it a `HistoryTooShort` round-trip.
//! - **Transport loss**: a dead receive channel is surfaced as
//!   `transport_lost`, not mistaken for harmless stragglers.
//! - **The server's own vote**: cast before the wait for the validators,
//!   it alone decides a round in which no validator is reachable.

mod common;

use baffle_core::{ModelHistory, ValidationConfig, ValidationEngine, Validator, Vote};
use baffle_data::Dataset;
use baffle_fl::{fedavg, sampling, FlConfig, WireProfile};
use baffle_net::deployment::{Deployment, DeploymentConfig, DeploymentParts};
use baffle_net::fault::{FaultEvent, FaultPlan};
use baffle_net::message::{AbstainReason, Message, NodeId};
use baffle_net::server::{Server, ServerConfig, ServerRound};
use baffle_net::transport::{Endpoint, Network};
use baffle_nn::{wire, Mlp, MlpSpec, Model};
use baffle_tensor::rng::derive_stream;
use baffle_tensor::Matrix;
use common::on_each_transport;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;
use std::time::{Duration, Instant};

const NUM_CLIENTS: usize = 3;

fn tiny_model(seed: u64) -> Mlp {
    let mut rng = StdRng::seed_from_u64(seed);
    Mlp::new(&MlpSpec::new(2, &[], 2), &mut rng)
}

/// A server sampling every client as contributor and validator each
/// round, so re-selection happens immediately.
fn make_server(network: &Network, timeout_ms: u64, initial: &Mlp) -> Server {
    let endpoint = network.register(NodeId::SERVER);
    let config = ServerConfig {
        fl: FlConfig::new(NUM_CLIENTS, NUM_CLIENTS),
        validators_per_round: NUM_CLIENTS,
        quorum: 2,
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

/// Scripted client: zero update on every train request, records the
/// history-delta ids of every validate request into `deltas`, then asks
/// `on_validate` how to answer.
fn run_recording_client(
    endpoint: Endpoint,
    n_params: usize,
    deltas: &Mutex<Vec<(NodeId, u64, Vec<u64>)>>,
    on_validate: impl Fn(&Endpoint, u64),
) {
    while let Ok(env) = endpoint.recv() {
        match env.message {
            Message::TrainRequest { round, .. } => {
                endpoint.send(
                    NodeId::SERVER,
                    Message::UpdateSubmission {
                        round,
                        from: endpoint.id(),
                        update: wire::encode_f32(&vec![0.0f32; n_params]),
                    },
                );
            }
            Message::ValidateRequest { round, history_delta, .. } => {
                let ids: Vec<u64> = history_delta.iter().map(|e| e.id).collect();
                deltas.lock().unwrap().push((endpoint.id(), round, ids));
                on_validate(&endpoint, round);
            }
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

/// The delta ids client `who` received in `round`, or `None` if the
/// request never arrived.
fn delta_of(log: &[(NodeId, u64, Vec<u64>)], who: u32, round: u64) -> Option<Vec<u64>> {
    log.iter().find(|(id, r, _)| *id == NodeId(who) && *r == round).map(|(_, _, d)| d.clone())
}

/// The ISSUE's latent-bug scenario: before the acknowledged-sync fix the
/// server advanced a validator's sync point *before* sending, so one
/// lost `ValidateRequest` left a permanent hole in that validator's
/// window. Now the shipment stays unacknowledged and the very next
/// selection re-ships the lost delta.
#[test]
fn unacked_validate_request_is_reshipped_at_the_next_selection() {
    on_each_transport(|transport| {
        // Surgical fault: lose exactly round 2's ValidateRequest to client 2.
        let plan = FaultPlan::lossless(0).event(FaultEvent::DropKind {
            to: Some(NodeId(2)),
            rounds: 2..=2,
            kind: "validate-request",
        });
        let network = Network::with_transport(plan, transport);
        let initial = tiny_model(1);
        let mut server = make_server(&network, 400, &initial);
        let deltas = Mutex::new(Vec::new());

        let rounds = crossbeam::thread::scope(|scope| {
            for c in 0..NUM_CLIENTS {
                let endpoint = network.register(NodeId(c as u32));
                let n_params = initial.num_params();
                let deltas = &deltas;
                scope.spawn(move |_| run_recording_client(endpoint, n_params, deltas, accept_vote));
            }
            let mut rounds = Vec::new();
            for r in 1..=3 {
                network.begin_round(r);
                rounds.push(server.run_round());
            }
            server.shutdown();
            rounds
        })
        .expect("client thread panicked");

        let log = deltas.into_inner().unwrap();
        // Round 1: first contact, everyone gets the full (one-entry) window.
        for c in 0..NUM_CLIENTS as u32 {
            assert_eq!(delta_of(&log, c, 1), Some(vec![0]), "client {c} round 1");
        }
        // Round 2: the shipment to client 2 is lost on the wire.
        assert_eq!(delta_of(&log, 0, 2), Some(vec![1]));
        assert_eq!(delta_of(&log, 1, 2), Some(vec![1]));
        assert_eq!(delta_of(&log, 2, 2), None, "the drop filter must eat the request");
        assert_eq!(rounds[1].votes_received, NUM_CLIENTS - 1, "client 2 cannot vote in round 2");
        // Round 3: the unacknowledged entry 1 rides along with entry 2 —
        // client 2's window is whole again and it casts a real vote.
        assert_eq!(delta_of(&log, 0, 3), Some(vec![2]));
        assert_eq!(delta_of(&log, 1, 3), Some(vec![2]));
        assert_eq!(delta_of(&log, 2, 3), Some(vec![1, 2]), "lost delta must be re-shipped");
        assert_eq!(rounds[2].votes_received, NUM_CLIENTS, "client 2 votes again in round 3");
        assert!(rounds.iter().all(|r| r.accepted));
    });
}

/// A validator that declares `HistoryTooShort` (a restarted process, or
/// a corruption-gapped window it had to truncate) gets its sync state
/// reset: the next selection ships the **full** window, not a delta.
#[test]
fn history_too_short_abstention_forces_a_full_window_reship() {
    on_each_transport(|transport| {
        let network = Network::with_transport(FaultPlan::lossless(0), transport);
        let initial = tiny_model(2);
        let mut server = make_server(&network, 2_000, &initial);
        let deltas = Mutex::new(Vec::new());

        let rounds = crossbeam::thread::scope(|scope| {
            for c in 0..NUM_CLIENTS {
                let endpoint = network.register(NodeId(c as u32));
                let n_params = initial.num_params();
                let deltas = &deltas;
                scope.spawn(move |_| {
                    run_recording_client(endpoint, n_params, deltas, |endpoint, round| {
                        if endpoint.id() == NodeId(2) && round == 2 {
                            // "I lost my cache": the fresh-restart signal.
                            endpoint.send(
                                NodeId::SERVER,
                                Message::Abstain {
                                    round,
                                    from: endpoint.id(),
                                    reason: AbstainReason::HistoryTooShort,
                                },
                            );
                        } else {
                            accept_vote(endpoint, round);
                        }
                    });
                });
            }
            let mut rounds = Vec::new();
            for r in 1..=3 {
                network.begin_round(r);
                rounds.push(server.run_round());
            }
            server.shutdown();
            rounds
        })
        .expect("client thread panicked");

        let log = deltas.into_inner().unwrap();
        assert_eq!(rounds[1].abstentions, 1);
        assert!(rounds[1].accepted, "an abstention is an implicit accept");
        // Round 3: the abstainer gets everything again; the others only the
        // newest entry.
        assert_eq!(delta_of(&log, 0, 3), Some(vec![2]));
        assert_eq!(delta_of(&log, 1, 3), Some(vec![2]));
        assert_eq!(
            delta_of(&log, 2, 3),
            Some(vec![0, 1, 2]),
            "a reset validator must receive the full window"
        );
        assert_eq!(rounds[2].votes_received, NUM_CLIENTS);
    });
}

/// Replicates the server's per-round sampling so a test can search for
/// a seed producing a specific validator schedule without running the
/// protocol: the selection RNG is a pure function of
/// `(seed, round, server-id)`, and contributors are drawn from the same
/// stream before validators.
fn validators_for(seed: u64, round: u64, n_val: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(derive_stream(seed, round, NodeId::SERVER.0 as u64));
    let _contributors = sampling::select_clients(&mut rng, NUM_CLIENTS, NUM_CLIENTS);
    sampling::select_clients(&mut rng, NUM_CLIENTS, n_val)
}

/// A validator left unsampled for longer than the retained history
/// window has a committed sync point that predates everything the
/// server still holds. At re-selection the server must count the
/// eviction and ship the full contiguous window in one go — one
/// full-window re-ship, zero wasted `HistoryTooShort` round-trips.
#[test]
fn evicted_sync_point_gets_one_full_window_reship() {
    on_each_transport(|transport| {
        const WINDOW: usize = 2;
        const ROUNDS: u64 = 4;
        // Find a seed whose schedule makes some client a validator in
        // round 1, unsampled in every round in between, and re-selected in
        // round ROUNDS — by then the retained window has slid past its
        // committed sync point.
        let (seed, lagger) = (0u64..10_000)
            .find_map(|seed| {
                (0..NUM_CLIENTS).find_map(|c| {
                    let sampled = |r| validators_for(seed, r, 2).contains(&c);
                    (sampled(1) && (2..ROUNDS).all(|r| !sampled(r)) && sampled(ROUNDS))
                        .then_some((seed, c as u32))
                })
            })
            .expect("some seed under 10k must produce the lagging schedule");

        let network = Network::with_transport(FaultPlan::lossless(0), transport);
        let initial = tiny_model(5);
        let config = ServerConfig {
            fl: FlConfig::new(NUM_CLIENTS, NUM_CLIENTS),
            validators_per_round: 2,
            quorum: 1,
            phase_timeout: Duration::from_millis(2_000),
            server_votes: false,
            seed,
            bootstrap_rounds: 0,
            bootstrap_trusted: Vec::new(),
            wire: WireProfile::lossless(),
        };
        let mut server = Server::new(
            network.register(NodeId::SERVER),
            config,
            initial.clone(),
            WINDOW,
            Validator::new(ValidationConfig::new(3)),
            Dataset::empty(2, 2),
        );
        let deltas = Mutex::new(Vec::new());

        let rounds = crossbeam::thread::scope(|scope| {
            for c in 0..NUM_CLIENTS {
                let endpoint = network.register(NodeId(c as u32));
                let n_params = initial.num_params();
                let deltas = &deltas;
                scope.spawn(move |_| run_recording_client(endpoint, n_params, deltas, accept_vote));
            }
            let mut rounds = Vec::new();
            for r in 1..=ROUNDS {
                network.begin_round(r);
                rounds.push(server.run_round());
            }
            server.shutdown();
            rounds
        })
        .expect("client thread panicked");

        let log = deltas.into_inner().unwrap();
        // Round 1: first contact ships the (one-entry) window; the ack
        // commits the lagger's sync point at id 1.
        assert_eq!(delta_of(&log, lagger, 1), Some(vec![0]));
        // Unsampled in between: no validate requests reach it at all.
        for r in 2..ROUNDS {
            assert_eq!(delta_of(&log, lagger, r), None, "round {r} must not sample the lagger");
        }
        // Re-selection: the retained window is now (ROUNDS-2)..ROUNDS, past
        // the committed point — the full window arrives contiguous, in one
        // shipment.
        assert_eq!(
            delta_of(&log, lagger, ROUNDS),
            Some(vec![ROUNDS - 2, ROUNDS - 1]),
            "an evicted validator must receive the full retained window in one go"
        );
        // The eviction is detected exactly once, at re-selection time.
        let resyncs: Vec<usize> = rounds.iter().map(|r| r.evicted_resyncs).collect();
        let mut expected = vec![0; ROUNDS as usize];
        expected[ROUNDS as usize - 1] = 1;
        assert_eq!(resyncs, expected, "exactly one eviction repair, in the re-selection round");
        // Zero wasted round-trips: no HistoryTooShort abstentions anywhere,
        // and the repaired validator votes in the round it is re-selected.
        assert!(rounds.iter().all(|r| r.abstentions == 0), "no HistoryTooShort round-trips");
        assert!(rounds.iter().all(|r| r.votes_received == 2));
        assert!(rounds.iter().all(|r| r.accepted));
    });
}

/// What scripted client `client` submits in `round` of the server-vote
/// test: a small drift of the decision boundary for `round < flip_round`,
/// then an update that turns the classifier upside down.
fn scripted_update(round: u64, client: usize, flip_round: u64) -> Vec<f32> {
    if round == flip_round {
        return vec![-3.0, 3.0, 0.0, 0.0, 0.0, 0.0];
    }
    let drift = 0.05 * ((round * 3 + client as u64) as f32 * 0.9).sin();
    vec![0.0, 0.0, 0.0, 0.0, drift, -drift]
}

/// `server_votes: true` with every `ValidateRequest` lost: the server's
/// own verdict — computed before it starts waiting, from the candidate,
/// the trusted history and its holdout alone — is the only vote, and
/// with quorum 1 it decides the round. The wait itself is the plain
/// phase timeout. Each round is checked against a stand-alone
/// [`ValidationEngine`] fed the same candidate and window.
#[test]
fn server_vote_alone_decides_a_round_no_validator_hears_about() {
    on_each_transport(|transport| {
        const ROUNDS: u64 = 9;
        const WINDOW: usize = 5;
        let timeout = Duration::from_millis(150);
        let plan = FaultPlan::lossless(0).event(FaultEvent::DropKind {
            to: None,
            rounds: 1..=ROUNDS,
            kind: "validate-request",
        });
        let network = Network::with_transport(plan, transport);

        // Two classes split at x₀ = 0 with a thin band of near-boundary
        // points, so the honest drift flips a few predictions per round.
        let n = 200;
        let x = Matrix::from_fn(n, 2, |i, j| {
            let side = if i % 2 == 0 { 1.0 } else { -1.0 };
            if j == 0 {
                side * (0.01 + (i / 2) as f32 * 0.02)
            } else {
                (i as f32 * 0.37).sin()
            }
        });
        let holdout = Dataset::new(x, (0..n).map(|i| i % 2).collect(), 2);
        let mut initial = tiny_model(3);
        initial.set_params(&[1.0, -1.0, 0.0, 0.0, 0.0, 0.0]);

        let fl = FlConfig::new(NUM_CLIENTS, NUM_CLIENTS);
        let validator = Validator::new(ValidationConfig::new(3));
        let config = ServerConfig {
            fl: fl.clone(),
            validators_per_round: NUM_CLIENTS,
            quorum: 1,
            phase_timeout: timeout,
            server_votes: true,
            seed: 7,
            bootstrap_rounds: 0,
            bootstrap_trusted: Vec::new(),
            wire: WireProfile::lossless(),
        };
        let mut server = Server::new(
            network.register(NodeId::SERVER),
            config,
            initial.clone(),
            WINDOW,
            validator,
            holdout.clone(),
        );

        let rounds = crossbeam::thread::scope(|scope| {
            for c in 0..NUM_CLIENTS {
                let endpoint = network.register(NodeId(c as u32));
                scope.spawn(move |_| {
                    while let Ok(env) = endpoint.recv() {
                        match env.message {
                            Message::TrainRequest { round, .. } => endpoint.send(
                                NodeId::SERVER,
                                Message::UpdateSubmission {
                                    round,
                                    from: endpoint.id(),
                                    update: wire::encode_f32(&scripted_update(round, c, ROUNDS)),
                                },
                            ),
                            Message::ValidateRequest { .. } => {
                                panic!("the drop filter must eat every ValidateRequest")
                            }
                            Message::Shutdown => break,
                            _ => {}
                        }
                    }
                });
            }
            let mut rounds = Vec::new();
            for r in 1..=ROUNDS {
                network.begin_round(r);
                rounds.push(server.run_round());
            }
            server.shutdown();
            rounds
        })
        .expect("client thread panicked");

        // Mirror the server's trusted state and ask a fresh engine each round.
        let mut engine = ValidationEngine::new(validator);
        let mut history = ModelHistory::new(WINDOW);
        history.push(initial.clone());
        let mut global = initial;
        let mut real_verdicts = 0;
        for (r, round) in (1..=ROUNDS).zip(&rounds) {
            let updates: Vec<Vec<f32>> =
                (0..NUM_CLIENTS).map(|c| scripted_update(r, c, ROUNDS)).collect();
            let mut candidate = global.clone();
            candidate.set_params(&fedavg(&global.params(), &updates, fl.global_lr(), NUM_CLIENTS));
            let verdict =
                engine.validate_batched(&candidate, history.ids(), history.models(), &holdout);
            real_verdicts += usize::from(verdict.is_ok());
            let expected = verdict.map_or(Vote::Accept, |v| v.vote());

            assert_eq!(round.updates_received, NUM_CLIENTS, "round {r}");
            assert_eq!(round.votes_received, 0, "round {r}: no validator can have voted");
            assert_eq!(round.reject_votes, usize::from(expected == Vote::Reject), "round {r}");
            assert_eq!(round.accepted, expected == Vote::Accept, "round {r}");
            assert!(!round.quorum_clamped && !round.transport_lost, "round {r}");
            assert!(
                round.vote_phase >= timeout && round.vote_phase < 2 * timeout,
                "round {r}: silent validators cost the phase timeout and nothing more, got {:?}",
                round.vote_phase
            );
            if round.accepted {
                history.push(candidate.clone());
                global = candidate;
            }
        }
        assert!(real_verdicts >= 3, "the window must fill early enough for real verdicts");
        assert!(!rounds[ROUNDS as usize - 1].accepted, "the upside-down model must be voted out");
        assert_eq!(server.global_model().params(), global.params());
    });
}

/// Zeroes the wall-clock fields so two runs can be compared bit-for-bit
/// on everything the protocol actually decided.
fn normalized(r: &ServerRound) -> ServerRound {
    ServerRound { update_phase: Duration::ZERO, vote_phase: Duration::ZERO, ..r.clone() }
}

/// Drives a built deployment by hand for its configured rounds. If
/// `interrupt_before` is set, the server is checkpointed, torn down and
/// restored from the blob right before that round — the clients keep
/// running across the swap, as they would across a real server restart.
fn drive(parts: DeploymentParts, interrupt_before: Option<u64>) -> Vec<ServerRound> {
    let total = parts.config.rounds;
    let clients: Vec<_> = (0..parts.specs.len()).map(|i| parts.client_actor(i)).collect();
    let mut server = parts.server;
    let mut rounds = Vec::new();
    crossbeam::thread::scope(|scope| {
        for (endpoint, mut client) in clients {
            scope.spawn(move |_| {
                client.run(&endpoint);
            });
        }
        for r in 1..=total {
            if interrupt_before == Some(r) {
                let blob = server.checkpoint();
                let endpoint = server.into_endpoint();
                server = Server::restore(
                    endpoint,
                    parts.server_config.clone(),
                    parts.template.as_ref().clone(),
                    parts.history_window,
                    parts.validator,
                    parts.server_data.clone(),
                    &blob,
                )
                .expect("checkpoint must restore");
            }
            rounds.push(server.run_round());
        }
        server.shutdown();
    })
    .expect("client actor panicked");
    rounds
}

/// The tentpole's acceptance condition: a deployment interrupted by a
/// server checkpoint/restore produces **bit-identical** `ServerRound`s
/// to the uninterrupted run on the same seed (wall-clock aside).
#[test]
fn checkpoint_restore_replays_identical_rounds() {
    on_each_transport(|transport| {
        let config = DeploymentConfig { transport, ..DeploymentConfig::small(11) };
        let uninterrupted = drive(Deployment::build(config.clone()), None);
        let interrupted = drive(Deployment::build(config), Some(4));

        assert_eq!(uninterrupted.len(), interrupted.len());
        let a: Vec<ServerRound> = uninterrupted.iter().map(normalized).collect();
        let b: Vec<ServerRound> = interrupted.iter().map(normalized).collect();
        assert_eq!(a, b, "a restored server must replay the uninterrupted run exactly");
        assert!(!interrupted.iter().any(|r| r.transport_lost));
    });
}

#[test]
fn restore_rejects_damaged_checkpoints() {
    on_each_transport(|transport| {
        let network = Network::with_transport(FaultPlan::lossless(0), transport);
        let initial = tiny_model(3);
        let server = make_server(&network, 500, &initial);
        let blob = server.checkpoint();
        let validator = Validator::new(ValidationConfig::new(3));
        let config = ServerConfig {
            fl: FlConfig::new(NUM_CLIENTS, NUM_CLIENTS),
            validators_per_round: NUM_CLIENTS,
            quorum: 2,
            phase_timeout: Duration::from_millis(500),
            server_votes: false,
            seed: 7,
            bootstrap_rounds: 0,
            bootstrap_trusted: Vec::new(),
            wire: WireProfile::lossless(),
        };
        let attempt = |id: u32, blob: &[u8]| {
            Server::restore(
                network.register(NodeId(id)),
                config.clone(),
                initial.clone(),
                5,
                validator,
                Dataset::empty(2, 2),
                blob,
            )
        };

        // The pristine blob restores.
        assert!(attempt(90, &blob).is_ok());
        // Truncation, a damaged magic number and trailing garbage do not.
        assert!(attempt(91, &blob[..blob.len() / 2]).is_err());
        let mut bad_magic = blob.to_vec();
        bad_magic[0] ^= 0xFF;
        assert!(attempt(92, &bad_magic).is_err());
        let mut trailing = blob.to_vec();
        trailing.push(0);
        assert!(attempt(93, &trailing).is_err());
    });
}

/// A dead transport must be reported as such — not spend the phase
/// timeout and then masquerade as a round full of silent stragglers.
#[test]
fn transport_loss_is_surfaced_not_misread_as_stragglers() {
    on_each_transport(|transport| {
        let network = Network::with_transport(FaultPlan::lossless(0), transport);
        let initial = tiny_model(4);
        // Deliberately huge timeout: only the Disconnected path can explain
        // a fast exit.
        let mut server = make_server(&network, 10_000, &initial);

        let (round, elapsed) = crossbeam::thread::scope(|scope| {
            scope.spawn(|_| {
                std::thread::sleep(Duration::from_millis(150));
                assert!(network.disconnect(NodeId::SERVER), "server must be registered");
            });
            let start = Instant::now();
            let round = server.run_round();
            (round, start.elapsed())
        })
        .expect("thread panicked");

        assert!(round.transport_lost, "a disconnected channel must be surfaced");
        assert!(!round.accepted);
        assert_eq!(round.updates_received, 0);
        assert!(elapsed < Duration::from_secs(5), "disconnection must not burn the timeout");
    });
}
