//! Durability tests: the write-ahead log, mid-round crash recovery and
//! hot-standby failover (DESIGN.md §19).
//!
//! - **Record integrity**: every WAL record survives a roundtrip; any
//!   single-bit flip is caught by the checksum, and a truncated tail
//!   reads as *incomplete* (wait for more bytes), never as garbage.
//! - **Tailing**: a torn append is left unconsumed until the rest
//!   lands; a compaction (the log shrinking) is reported so the tailer
//!   reloads the checkpoint instead of replaying a stale tail.
//! - **Replay determinism** — the CI gate: a run interrupted and
//!   recovered from `checkpoint + WAL tail` replays the uninterrupted
//!   run's `ServerRound`s exactly and ends in a **byte-identical**
//!   checkpoint.
//! - **Replayed wire window**: under the quantised and top-k profiles a
//!   recovered server ships the byte-identical `ValidateRequest`s the
//!   uninterrupted server ships.
//! - **Torn rounds**: a crash after `RoundStart` but before the outcome
//!   record recovers to the pre-round state; the re-ask of the same
//!   round is duplicate-safe (fresh ledger, identical re-shipped
//!   history deltas, zero rejections).
//! - **Streamed standby**: a standby fed the log over a socket ends in
//!   the same byte-identical state as one tailing the file.
//! - **Checkpoint v2**: the whole-body checksum catches any damage, and
//!   pre-checksum v1 blobs are refused by name.

mod common;

use baffle_core::{ValidationConfig, Validator, Vote};
use baffle_data::Dataset;
use baffle_fl::{FlConfig, WireProfile};
use baffle_net::deployment::{Deployment, DeploymentConfig, DeploymentParts};
use baffle_net::fault::FaultPlan;
use baffle_net::message::{AbstainReason, Message, NodeId};
use baffle_net::server::{Server, ServerConfig, ServerRound};
use baffle_net::socket::TransportMode;
use baffle_net::transport::{Endpoint, Network};
use baffle_net::wal::{
    decode_record, encode_record, recover, DurableServer, RecoveryInfo, RestoreKit, Standby,
    WalRecord, WalTailer, WalWriter, CHECKPOINT_FILE, WAL_FILE,
};
use baffle_nn::{wire, Mlp, MlpSpec, Model};
use bytes::Bytes;
use common::on_each_transport;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

const NUM_CLIENTS: usize = 3;

fn test_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("baffle-durability-{}-{}", tag, std::process::id()))
}

fn tiny_model(seed: u64) -> Mlp {
    let mut rng = StdRng::seed_from_u64(seed);
    Mlp::new(&MlpSpec::new(2, &[], 2), &mut rng)
}

fn validator() -> Validator {
    Validator::new(ValidationConfig::new(3))
}

/// A server config sampling every client as contributor and validator
/// each round.
fn scripted_config(seed: u64, timeout_ms: u64) -> ServerConfig {
    ServerConfig {
        fl: FlConfig::new(NUM_CLIENTS, NUM_CLIENTS),
        validators_per_round: NUM_CLIENTS,
        quorum: 2,
        phase_timeout: Duration::from_millis(timeout_ms),
        server_votes: false,
        seed,
        bootstrap_rounds: 0,
        bootstrap_trusted: Vec::new(),
        wire: WireProfile::lossless(),
    }
}

fn scripted_server(network: &Network, config: &ServerConfig, initial: &Mlp) -> Server {
    Server::new(
        network.register(NodeId::SERVER),
        config.clone(),
        initial.clone(),
        5,
        validator(),
        Dataset::empty(2, 2),
    )
}

fn kit_for(config: &ServerConfig, initial: &Mlp) -> RestoreKit {
    RestoreKit {
        config: config.clone(),
        template: initial.clone(),
        history_window: 5,
        validator: validator(),
        server_data: Dataset::empty(2, 2),
    }
}

/// Scripted client: zero update on every train request, records the
/// history-delta ids of every validate request into `deltas`, votes
/// accept.
fn run_recording_client(
    endpoint: Endpoint,
    n_params: usize,
    deltas: &Mutex<Vec<(NodeId, u64, Vec<u64>)>>,
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
                endpoint.send(
                    NodeId::SERVER,
                    Message::VoteSubmission { round, from: endpoint.id(), vote: Vote::Accept },
                );
            }
            Message::Shutdown => break,
            _ => {}
        }
    }
}

#[test]
fn records_roundtrip_and_damage_is_detected() {
    let records = [
        WalRecord::RoundStart { round: 1, rng_stream: 0xDEAD_BEEF },
        WalRecord::RoundAccepted {
            round: 2,
            rng_stream: 42,
            model: wire::encode_f32(&[1.0, -2.5, 3.25]),
            sync_commits: vec![(0, 5), (7, 2)],
            sync_resets: vec![3],
        },
        WalRecord::RoundRejected {
            round: 3,
            rng_stream: 7,
            sync_commits: Vec::new(),
            sync_resets: vec![9],
        },
    ];
    for record in &records {
        let bytes = encode_record(record);
        let (decoded, consumed) = decode_record(&bytes).expect("decode").expect("complete");
        assert_eq!(&decoded, record);
        assert_eq!(consumed, bytes.len());
        // Truncation anywhere reads as incomplete — never as garbage,
        // so a torn append is retried rather than condemned.
        for cut in 0..bytes.len() {
            let prefix = decode_record(&bytes[..cut]).expect("a prefix is incomplete, not corrupt");
            assert!(prefix.is_none(), "cut at {cut} must read as incomplete");
        }
        // Any flip in the checksum word or the body trips validation.
        for at in 12..bytes.len() {
            let mut bad = bytes.to_vec();
            bad[at] ^= 0x01;
            assert!(decode_record(&bad).is_err(), "flip at {at} must not decode");
        }
        // Damaged magic and version words are refused outright.
        let mut bad_magic = bytes.to_vec();
        bad_magic[0] ^= 0xFF;
        assert!(decode_record(&bad_magic).is_err());
        let mut bad_version = bytes.to_vec();
        bad_version[4] ^= 0xFF;
        assert!(decode_record(&bad_version).is_err());
    }
}

#[test]
fn tailer_tolerates_torn_appends_and_detects_compaction() {
    let dir = test_dir("tailer");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(WAL_FILE);
    let mut tailer = WalTailer::new(&path);

    // No file yet: reads as empty (the writer may not have started).
    let poll = tailer.poll().expect("poll missing file");
    assert!(poll.records.is_empty() && !poll.truncated);

    let mut writer = WalWriter::create(&path).expect("create log");
    let a = WalRecord::RoundStart { round: 1, rng_stream: 11 };
    writer.append(&a).expect("append");
    let poll = tailer.poll().expect("poll");
    assert_eq!(poll.records, vec![a]);

    // A torn append: half a record lands, then the rest. The tailer
    // must neither surface nor skip it.
    let b = WalRecord::RoundRejected {
        round: 1,
        rng_stream: 11,
        sync_commits: vec![(2, 1)],
        sync_resets: Vec::new(),
    };
    let bytes = encode_record(&b);
    let half = bytes.len() / 2;
    let mut file = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
    file.write_all(&bytes[..half]).unwrap();
    file.sync_data().unwrap();
    let poll = tailer.poll().expect("poll with torn tail");
    assert!(poll.records.is_empty() && !poll.truncated, "a torn append must not surface");
    file.write_all(&bytes[half..]).unwrap();
    file.sync_data().unwrap();
    let poll = tailer.poll().expect("poll completed tail");
    assert_eq!(poll.records, vec![b]);

    // Compaction: the writer truncates the log. The tailer reports it
    // (so its owner reloads the checkpoint) and rewinds; the next poll
    // reads the fresh log from the start.
    let mut writer = WalWriter::create(&path).expect("truncate log");
    let c = WalRecord::RoundStart { round: 2, rng_stream: 22 };
    writer.append(&c).expect("append after compaction");
    let poll = tailer.poll().expect("poll after truncation");
    assert!(poll.truncated && poll.records.is_empty(), "truncation must be reported");
    let poll = tailer.poll().expect("re-poll");
    assert_eq!(poll.records, vec![c]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Zeroes the wall-clock fields so two runs can be compared bit-for-bit
/// on everything the protocol actually decided.
fn normalized(r: &ServerRound) -> ServerRound {
    ServerRound { update_phase: Duration::ZERO, vote_phase: Duration::ZERO, ..r.clone() }
}

/// Drives a built deployment by hand with the server under the
/// durability protocol. If `interrupt_before` is set, the server is
/// dropped right before that round and recovered from
/// `checkpoint + WAL tail` — the clients keep running across the swap,
/// as they would across a real server restart.
fn drive_durable(
    parts: DeploymentParts,
    dir: &Path,
    compact_every: u64,
    interrupt_before: Option<u64>,
) -> (Vec<ServerRound>, Bytes, Option<RecoveryInfo>) {
    let total = parts.config.rounds;
    let kit = parts.restore_kit();
    let clients: Vec<_> = (0..parts.specs.len()).map(|i| parts.client_actor(i)).collect();
    let mut durable =
        DurableServer::create(dir, compact_every, parts.server).expect("create durability dir");
    let mut info = None;
    let (rounds, blob) = crossbeam::thread::scope(|scope| {
        for (endpoint, mut client) in clients {
            scope.spawn(move |_| {
                client.run(&endpoint);
            });
        }
        let mut rounds = Vec::new();
        for r in 1..=total {
            if interrupt_before == Some(r) {
                // The primary dies between rounds; its endpoint survives
                // as the route and the recovered server adopts it.
                let endpoint = durable.into_inner().into_endpoint();
                let (server, ri) = recover(dir, endpoint, kit.clone()).expect("recover");
                info = Some(ri);
                durable =
                    DurableServer::create(dir, compact_every, server).expect("takeover compaction");
            }
            rounds.push(durable.run_round().expect("journal round"));
        }
        let server = durable.into_inner();
        let blob = server.checkpoint();
        server.shutdown();
        (rounds, blob)
    })
    .expect("client actor panicked");
    (rounds, blob, info)
}

/// The CI determinism gate: recovery from the latest compacted
/// checkpoint plus the WAL tail replays the uninterrupted run's rounds
/// exactly and the recovered server's next checkpoint is
/// **byte-identical** to the uninterrupted one.
#[test]
fn replayed_server_produces_byte_identical_next_checkpoint() {
    on_each_transport(|transport| {
        let config = DeploymentConfig { transport, ..DeploymentConfig::small(11) };
        let dir_a = test_dir(&format!("replay-a-{}", transport.label()));
        let dir_b = test_dir(&format!("replay-b-{}", transport.label()));
        let (rounds_a, blob_a, info_a) =
            drive_durable(Deployment::build(config.clone()), &dir_a, 0, None);
        let (rounds_b, blob_b, info_b) =
            drive_durable(Deployment::build(config), &dir_b, 2, Some(4));
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);

        assert!(info_a.is_none(), "the uninterrupted run never recovers");
        // Compaction ran after round 2, so recovery loads that checkpoint
        // and replays exactly round 3 from the tail. Nothing was torn.
        assert_eq!(
            info_b,
            Some(RecoveryInfo { checkpoint_round: 2, replayed: 1, torn_round: None })
        );
        let a: Vec<ServerRound> = rounds_a.iter().map(normalized).collect();
        let b: Vec<ServerRound> = rounds_b.iter().map(normalized).collect();
        assert_eq!(a, b, "a recovered server must replay the uninterrupted run exactly");
        assert_eq!(
            blob_a, blob_b,
            "replay from checkpoint + WAL tail must reproduce the state byte-for-byte"
        );
    });
}

/// Runs four scripted rounds under `profile` with the server journaled
/// (compaction after round 2) and returns what round 4 put on the wire:
/// its `ServerRound` and every `ValidateRequest`, by validator. With
/// `recover`, the server is dropped after round 3 and round 4 is run by
/// a server rebuilt from the checkpoint plus the WAL tail.
///
/// The clients make the wire window matter: their updates differ by
/// round and sender, so consecutive models differ, and client 2 declares
/// its window gapped in round 3, so round 4 re-ships it the whole window
/// (a dense head, then — under a top-k profile — chained deltas) while
/// clients 0 and 1 get the newest entry on their chain.
fn fourth_round_on_the_wire(
    transport: TransportMode,
    profile: WireProfile,
    recover_first: bool,
    tag: &str,
) -> (ServerRound, Vec<(NodeId, Message)>) {
    let dir = test_dir(&format!("{tag}-{}", transport.label()));
    let network = Network::with_transport(FaultPlan::lossless(0), transport);
    let mut rng = StdRng::seed_from_u64(5);
    let initial = Mlp::new(&MlpSpec::new(8, &[16], 4), &mut rng);
    let config = ServerConfig { wire: profile, ..scripted_config(5, 2_000) };
    let kit = RestoreKit { server_data: Dataset::empty(8, 4), ..kit_for(&config, &initial) };
    let server = Server::new(
        network.register(NodeId::SERVER),
        config.clone(),
        initial.clone(),
        kit.history_window,
        validator(),
        kit.server_data.clone(),
    );
    let requests = Mutex::new(Vec::new());

    let last = crossbeam::thread::scope(|scope| {
        for c in 0..NUM_CLIENTS {
            let endpoint = network.register(NodeId(c as u32));
            let (n_params, requests) = (initial.num_params(), &requests);
            scope.spawn(move |_| {
                while let Ok(env) = endpoint.recv() {
                    let from = endpoint.id();
                    let reply = match &env.message {
                        Message::TrainRequest { round, .. } => {
                            let step = 0.01 * *round as f32 * (c + 1) as f32;
                            let update: Vec<f32> =
                                (0..n_params).map(|i| step * (i % 7) as f32).collect();
                            let update = profile.update.encode(&update);
                            Message::UpdateSubmission { round: *round, from, update }
                        }
                        Message::ValidateRequest { round: 3, .. } if c == 2 => Message::Abstain {
                            round: 3,
                            from,
                            reason: AbstainReason::HistoryTooShort,
                        },
                        Message::ValidateRequest { round, .. } => {
                            if *round == 4 {
                                requests.lock().unwrap().push((from, env.message.clone()));
                            }
                            Message::VoteSubmission { round: *round, from, vote: Vote::Accept }
                        }
                        Message::Shutdown => break,
                        _ => continue,
                    };
                    endpoint.send(NodeId::SERVER, reply);
                }
            });
        }
        let mut durable = DurableServer::create(&dir, 2, server).expect("create durability dir");
        for r in 1..=3 {
            network.begin_round(r);
            assert!(durable.run_round().expect("journal round").accepted, "round {r}");
        }
        network.begin_round(4);
        let mut server = durable.into_inner();
        if recover_first {
            let (recovered, info) = recover(&dir, server.into_endpoint(), kit).expect("recover");
            assert_eq!(info, RecoveryInfo { checkpoint_round: 2, replayed: 1, torn_round: None });
            server = recovered;
        }
        let last = server.run_round();
        server.shutdown();
        last
    })
    .expect("client thread panicked");
    let _ = std::fs::remove_dir_all(&dir);
    let mut requests = requests.into_inner().unwrap();
    requests.sort_by_key(|(id, _)| *id);
    (last, requests)
}

/// Recovery rebuilds the **wire** window too, not just the trusted one:
/// under the quantised and the top-k profile, a server restored from a
/// checkpoint plus the WAL tail sends the byte-identical
/// `ValidateRequest`s — candidate and every `history_delta` entry — the
/// uninterrupted server sends, and books the same shipped bytes.
#[test]
fn recovered_server_ships_the_live_servers_wire_window() {
    on_each_transport(|transport| {
        for profile in [WireProfile::quantized(), WireProfile::compact()] {
            let label = profile.label();
            let (live, live_requests) =
                fourth_round_on_the_wire(transport, profile, false, &format!("wire-live-{label}"));
            let (replayed, replayed_requests) = fourth_round_on_the_wire(
                transport,
                profile,
                true,
                &format!("wire-replayed-{label}"),
            );

            // The scenario is the one described: everybody was asked, client
            // 2 got the whole window, the others one entry.
            let shipped: Vec<usize> = live_requests
                .iter()
                .map(|(_, m)| match m {
                    Message::ValidateRequest { history_delta, .. } => history_delta.len(),
                    other => panic!("recorded a {}", other.kind()),
                })
                .collect();
            assert_eq!(shipped, vec![1, 1, 4], "{label}");

            assert_eq!(replayed_requests, live_requests, "{label}: ValidateRequest bytes differ");
            assert_eq!(replayed.history_bytes_shipped, live.history_bytes_shipped, "{label}");
            assert!(live.history_bytes_shipped > 0, "{label}");
            assert_eq!(normalized(&replayed), normalized(&live), "{label}");
        }
    });
}

/// A crash *inside* a round — `RoundStart` journaled, outcome never —
/// recovers to the pre-round state and re-runs the round. The re-ask is
/// duplicate-safe: clients answer the same round twice, the re-shipped
/// history delta is identical to the torn ask's, and nobody is booked
/// as rejected.
#[test]
fn torn_round_is_re_asked_and_duplicate_safe() {
    on_each_transport(|transport| {
        let dir = test_dir(&format!("torn-{}", transport.label()));
        let network = Network::with_transport(FaultPlan::lossless(0), transport);
        let initial = tiny_model(7);
        let config = scripted_config(7, 2_000);
        let server = scripted_server(&network, &config, &initial);
        let kit = kit_for(&config, &initial);
        let deltas = Mutex::new(Vec::new());

        let (rounds, info) = crossbeam::thread::scope(|scope| {
            for c in 0..NUM_CLIENTS {
                let endpoint = network.register(NodeId(c as u32));
                let n_params = initial.num_params();
                let deltas = &deltas;
                scope.spawn(move |_| run_recording_client(endpoint, n_params, deltas));
            }
            let mut durable =
                DurableServer::create(&dir, 0, server).expect("create durability dir");
            let mut rounds = Vec::new();
            for r in 1..=2 {
                network.begin_round(r);
                rounds.push(durable.run_round().expect("journal round"));
            }
            // Round 3 runs to completion, but its outcome record never
            // lands — the process "dies" holding an undurable decision.
            network.begin_round(3);
            let torn = durable.run_round_torn().expect("journal torn start");
            assert_eq!(torn.round, 3);
            assert_eq!(torn.votes_received, NUM_CLIENTS, "the doomed round really ran");

            let endpoint = durable.into_inner().into_endpoint();
            let (mut server, info) = recover(&dir, endpoint, kit).expect("recover");
            assert_eq!(server.round(), 2, "recovered to the state entering the torn round");
            // Re-ask: same round number, fresh ledger, clients answer again.
            rounds.push(server.run_round());
            network.begin_round(4);
            rounds.push(server.run_round());
            server.shutdown();
            (rounds, info)
        })
        .expect("client thread panicked");
        let _ = std::fs::remove_dir_all(&dir);

        assert_eq!(info, RecoveryInfo { checkpoint_round: 0, replayed: 2, torn_round: Some(3) });
        let round_numbers: Vec<u64> = rounds.iter().map(|r| r.round).collect();
        assert_eq!(
            round_numbers,
            vec![1, 2, 3, 4],
            "the torn round is re-run under its own number"
        );
        for r in &rounds {
            assert!(r.accepted, "round {}: all-honest rounds accept", r.round);
            assert_eq!(r.votes_received, NUM_CLIENTS, "round {}", r.round);
            // The duplicate-safety condition: straggling or repeated
            // submissions from the torn ask are never booked as rejections.
            assert_eq!(r.rejected_submissions, 0, "round {}", r.round);
            assert_eq!(r.rejected_votes, 0, "round {}", r.round);
        }
        // Both asks of round 3 shipped the identical history delta: the
        // recovered sync state equals the pre-round state, so the re-ask
        // re-ships exactly what the torn ask shipped.
        let log = deltas.into_inner().unwrap();
        for c in 0..NUM_CLIENTS as u32 {
            let round3: Vec<Vec<u64>> = log
                .iter()
                .filter(|(id, r, _)| *id == NodeId(c) && *r == 3)
                .map(|(_, _, ids)| ids.clone())
                .collect();
            assert_eq!(
                round3,
                vec![vec![2], vec![2]],
                "client {c}: torn ask and re-ask must ship the same delta"
            );
        }
    });
}

/// A standby fed the primary's log **over a socket** — instead of
/// tailing the shared file — ends in the same byte-identical state.
#[test]
fn standby_ingests_wal_over_a_socket_stream() {
    on_each_transport(|transport| {
        let dir = test_dir(&format!("stream-src-{}", transport.label()));
        let dir2 = test_dir(&format!("stream-dst-{}", transport.label()));
        let network = Network::with_transport(FaultPlan::lossless(0), transport);
        let initial = tiny_model(7);
        let config = scripted_config(7, 2_000);
        let server = scripted_server(&network, &config, &initial);
        let kit = kit_for(&config, &initial);
        let deltas = Mutex::new(Vec::new());

        let final_blob = crossbeam::thread::scope(|scope| {
            for c in 0..NUM_CLIENTS {
                let endpoint = network.register(NodeId(c as u32));
                let n_params = initial.num_params();
                let deltas = &deltas;
                scope.spawn(move |_| run_recording_client(endpoint, n_params, deltas));
            }
            let mut durable =
                DurableServer::create(&dir, 0, server).expect("create durability dir");
            for r in 1..=3 {
                network.begin_round(r);
                durable.run_round().expect("journal round");
            }
            let server = durable.into_inner();
            let blob = server.checkpoint();
            server.shutdown();
            blob
        })
        .expect("client thread panicked");

        // The standby starts from the checkpoint as shipped (cut at launch —
        // the primary never compacted) and receives the log over loopback.
        std::fs::create_dir_all(&dir2).unwrap();
        std::fs::copy(dir.join(CHECKPOINT_FILE), dir2.join(CHECKPOINT_FILE)).unwrap();
        let mut standby = Standby::attach(&dir2, kit).expect("attach standby");
        assert_eq!(standby.round(), 0, "the shipped checkpoint predates every round");

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let wal_bytes = std::fs::read(dir.join(WAL_FILE)).unwrap();
        let writer = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            sock.write_all(&wal_bytes).unwrap();
        });
        let stream = TcpStream::connect(addr).unwrap();
        let applied = standby.ingest_stream(stream).expect("ingest log over socket");
        writer.join().unwrap();

        assert_eq!(applied, 6, "three round starts + three outcomes");
        assert_eq!(standby.round(), 3);
        assert_eq!(standby.torn_round(), None);
        let (server, info) = standby.promote(Network::new().register(NodeId::SERVER));
        assert_eq!(info.replayed, 3);
        assert_eq!(
            server.checkpoint(),
            final_blob,
            "a socket-fed standby must reproduce the primary's state byte-for-byte"
        );
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
    });
}

/// The checkpoint's whole-body checksum catches any damage, and the
/// unchecksummed v1 layout is refused with an error naming the version
/// instead of being misparsed.
#[test]
fn checkpoint_v2_rejects_damage_and_v1_blobs() {
    on_each_transport(|transport| {
        let network = Network::with_transport(FaultPlan::lossless(0), transport);
        let initial = tiny_model(3);
        let config = scripted_config(7, 500);
        let server = scripted_server(&network, &config, &initial);
        let blob = server.checkpoint();
        let attempt = |id: u32, blob: &[u8]| {
            Server::restore(
                network.register(NodeId(id)),
                config.clone(),
                initial.clone(),
                5,
                validator(),
                Dataset::empty(2, 2),
                blob,
            )
        };

        assert!(attempt(90, &blob).is_ok());
        // Any body flip trips the whole-blob checksum — including in fields
        // the v1 layout would have parsed without complaint.
        for (i, at) in [12usize, 16, blob.len() / 2, blob.len() - 1].into_iter().enumerate() {
            let mut bad = blob.to_vec();
            bad[at] ^= 0x01;
            let err = attempt(91 + i as u32, &bad)
                .expect_err("damaged blob must not restore")
                .to_string();
            assert!(err.contains("checksum"), "flip at {at}: {err}");
        }
        // A v1 blob (no checksum word) is refused by name.
        let mut v1 = Vec::new();
        v1.extend_from_slice(&blob[..4]);
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&blob[12..]);
        let err = attempt(99, &v1).expect_err("v1 blob must not restore").to_string();
        assert!(err.contains("version 1"), "{err}");
    });
}
