//! Per-module measurements: each product crate's public functions, timed
//! alone on inputs sized like the workload's (the state the traced
//! replay leaves behind — a trained model, a full history window, one
//! round's updates).

use crate::alloc::bytes_allocated;
use crate::replay::Replay;
use crate::stats::{median, ms_since, time_median};
use baffle_attack::ModelReplacement;
use baffle_core::variation::variation_from_confusions;
use baffle_core::ValidationEngine;
use baffle_fl::secagg::SecAggSession;
use baffle_fl::{fedavg, WireProfile};
use baffle_lof::LofModel;
use baffle_net::fault::FaultPlan;
use baffle_net::frame;
use baffle_net::message::{Message, NodeId};
use baffle_net::server::{Server, ServerConfig};
use baffle_net::socket::{SocketKind, TransportMode};
use baffle_net::transport::{Envelope, Network};
use baffle_net::wal::{DurableServer, RestoreKit, Standby, WalRecord, WalWriter, WAL_FILE};
use baffle_nn::{wire, ConfusionMatrix, Mlp, Model, Sgd};
use baffle_tensor::rng::{derive_stream, normal_matrix};
use baffle_tensor::{pool, Matrix};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Sampling time per measurement.
const BUDGET: Duration = Duration::from_millis(100);
/// Records in the log the WAL replay rate is measured on.
const REPLAY_RECORDS: u64 = 64;

struct Out(Vec<(String, f64)>);

impl Out {
    fn put(&mut self, name: impl Into<String>, value: f64) {
        self.0.push((name.into(), value));
    }
}

fn private_network(mode: TransportMode) -> Network {
    Network::with_transport(FaultPlan::lossless(0), mode)
}

/// Round trip of a model-sized message between two endpoints.
fn rtt_us(mode: TransportMode, payload: &Bytes) -> f64 {
    let network = private_network(mode);
    let near = network.register(NodeId(0));
    let far = network.register(NodeId(1));
    std::thread::scope(|scope| {
        scope.spawn(move || {
            while let Ok(envelope) = far.recv() {
                match envelope.message {
                    Message::Shutdown => break,
                    message => far.send(NodeId(0), message),
                }
            }
        });
        let seconds = time_median(BUDGET, || {
            near.send(NodeId(1), Message::TrainRequest { round: 1, global: payload.clone() });
            near.recv().expect("echo arrives")
        });
        near.send(NodeId(1), Message::Shutdown);
        seconds * 1e6
    })
}

/// Measures every per-module metric at the replay's shapes. `scratch` is
/// a directory this may create files under.
pub fn measure(replay: &Replay, seed: u64, scratch: &Path) -> Vec<(String, f64)> {
    let mut out = Out(Vec::new());
    let fx = &replay.fx;
    let shapes = &fx.shapes;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x001A_7E55);
    let shard = fx.typical_shard();
    let global = &fx.global;
    let params = global.params();
    let raw_mb = params.len() as f64 * 4.0 / 1e6;
    let models = replay.history.models();
    let ids = replay.history.ids();

    // --- tensor ----------------------------------------------------------
    // The first dense layer's three products, exactly as `Dense` issues
    // them: forward X·W, weight gradient Xᵀ·δ, input gradient δ·Wᵀ.
    let (batch, width_in, width_out) =
        (shapes.fl.batch_size(), shapes.vision.input_dim(), shapes.hidden[0]);
    let x = normal_matrix(&mut rng, batch, width_in, 1.0);
    let w = normal_matrix(&mut rng, width_in, width_out, 0.1);
    let delta = normal_matrix(&mut rng, batch, width_out, 0.1);
    let gflop = 2.0 * (batch * width_in * width_out) as f64 / 1e9;
    let mut buffer = Matrix::zeros(0, 0);
    out.put(
        "tensor.gemm.nn_gflops",
        gflop / time_median(BUDGET, || x.matmul_into(&w, &mut buffer)),
    );
    out.put(
        "tensor.gemm.tn_gflops",
        gflop / time_median(BUDGET, || x.matmul_tn_into(&delta, &mut buffer)),
    );
    out.put(
        "tensor.gemm.nt_gflops",
        gflop / time_median(BUDGET, || delta.matmul_nt_into(&w, &mut buffer)),
    );
    out.put(
        "tensor.pool.join_us",
        1e6 * time_median(BUDGET, || {
            pool::join_all(
                (0..pool::threads()).map(|_| Box::new(|| {}) as pool::ScopedTask<'_>).collect(),
            )
        }),
    );

    // --- nn ----------------------------------------------------------------
    let mut local = global.clone();
    let mut opt = Sgd::new(shapes.fl.local_lr());
    out.put(
        "nn.mlp.train_epoch_us",
        1e6 * time_median(BUDGET, || {
            local.train_epoch(
                shard.features(),
                shard.labels(),
                shapes.fl.batch_size(),
                &mut opt,
                &mut rng,
            )
        }),
    );
    out.put("nn.mlp.clone_us", 1e6 * time_median(BUDGET, || global.clone()));
    out.put("nn.mlp.clone_bytes", bytes_allocated(|| black_box(global.clone())).1 as f64);
    out.put(
        "nn.eval.confusion_us",
        1e6 * time_median(BUDGET, || {
            ConfusionMatrix::from_model(global, shard.features(), shard.labels())
        }),
    );
    // The cold-validation batch: the whole window plus the candidate.
    let mut window: Vec<&Mlp> = models.iter().collect();
    window.push(global);
    out.put(
        "nn.eval.confusion_multi_us",
        1e6 * time_median(BUDGET, || {
            ConfusionMatrix::from_models(&window, shard.features(), shard.labels())
        }),
    );

    // Codecs, rated in MB of raw `f32` parameters per second so they
    // compare with each other.
    let previous = models[models.len().saturating_sub(2)].params();
    let keep = WireProfile::compact().history_keep(params.len()).expect("compact profile chains");
    let f32_bytes = wire::encode_f32(&params);
    let mut codec = |name: &str, encoded: Bytes, encode_s: f64, decode_s: f64| {
        out.put(format!("nn.wire.encode_mb_s.{name}"), raw_mb / encode_s);
        out.put(format!("nn.wire.decode_mb_s.{name}"), raw_mb / decode_s);
        out.put(format!("nn.wire.bytes_per_model.{name}"), encoded.len() as f64);
    };
    codec(
        "f32",
        f32_bytes.clone(),
        time_median(BUDGET, || wire::encode_f32(&params)),
        time_median(BUDGET, || wire::decode_f32(&f32_bytes)),
    );
    let q8 = wire::encode_q8(&params).expect("finite parameters");
    codec(
        "q8",
        q8.clone(),
        time_median(BUDGET, || wire::encode_q8(&params)),
        time_median(BUDGET, || wire::decode_q8(&q8)),
    );
    let q4 = wire::encode_q4(&params).expect("finite parameters");
    codec(
        "q4",
        q4.clone(),
        time_median(BUDGET, || wire::encode_q4(&params)),
        time_median(BUDGET, || wire::decode_q4(&q4)),
    );
    let topk = wire::encode_topk(&previous, &params, keep).expect("finite parameters");
    codec(
        "topk",
        topk.clone(),
        time_median(BUDGET, || wire::encode_topk(&previous, &params, keep)),
        time_median(BUDGET, || wire::decode_topk(&topk).and_then(|d| d.apply(&previous))),
    );
    out.put(
        "nn.wire.fnv1a_mb_s",
        f32_bytes.len() as f64 / 1e6 / time_median(BUDGET, || wire::fnv1a(&f32_bytes)),
    );

    // --- data ---------------------------------------------------------------
    out.put("data.synth.samples_per_s", fx.synth_samples_per_s);
    out.put("data.partition.split_ms", fx.split_ms);

    // --- lof / core ---------------------------------------------------------
    // ℓ variation vectors of 2·classes dimensions, from real confusion
    // matrices of the window on the shard.
    let matrices = ConfusionMatrix::from_models(
        &models.iter().collect::<Vec<_>>(),
        shard.features(),
        shard.labels(),
    );
    let current = ConfusionMatrix::from_model(global, shard.features(), shard.labels());
    let variations: Vec<Vec<f32>> =
        matrices.windows(2).map(|w| variation_from_confusions(&w[0], &w[1])).collect();
    let newest = variation_from_confusions(matrices.last().expect("window is non-empty"), &current);
    let k = fx.validator.config().k();
    out.put("lof.fit_us", 1e6 * time_median(BUDGET, || LofModel::fit(variations.clone(), k)));
    match LofModel::fit(variations.clone(), k) {
        Ok(lof) => out.put("lof.score_us", 1e6 * time_median(BUDGET, || lof.score(&newest))),
        // A degenerate window (e.g. duplicate variations) has no score
        // to time; the zero says so.
        Err(_) => out.put("lof.score_us", 0.0),
    }
    out.put(
        "core.validate.variation_lof_us",
        1e6 * time_median(BUDGET, || {
            fx.validator.validate_confusions(&matrices, &current, shard.len())
        }),
    );
    out.put(
        "core.validate.cold_ms",
        1e3 * time_median(BUDGET, || {
            ValidationEngine::new(fx.validator).validate_batched(global, ids, models, shard)
        }),
    );
    let mut engine = ValidationEngine::new(fx.validator);
    let _ = engine.validate_batched(global, ids, models, shard);
    out.put(
        "core.validate.warm_ms",
        1e3 * time_median(BUDGET, || engine.validate_batched(global, ids, models, shard)),
    );

    // --- fl / attack ----------------------------------------------------------
    out.put(
        "fl.trainer.train_update_ms",
        1e3 * time_median(BUDGET, || fx.trainer.train_update(global, shard, &mut rng)),
    );
    let updates = &replay.last_updates;
    let (lambda, clients) = (shapes.fl.global_lr(), shapes.fl.num_clients());
    out.put(
        "fl.aggregate.fedavg_us",
        1e6 * time_median(BUDGET, || fedavg(&params, updates, lambda, clients)),
    );
    let session = SecAggSession::new(seed, updates.len(), params.len());
    out.put("fl.secagg.mask_us", 1e6 * time_median(BUDGET, || session.mask(0, &updates[0])));
    let masked: Vec<Vec<f32>> =
        updates.iter().enumerate().map(|(i, u)| session.mask(i, u)).collect();
    out.put("fl.secagg.aggregate_us", 1e6 * time_median(BUDGET, || session.aggregate(&masked)));
    let attack = ModelReplacement::new(fx.backdoor, shapes.fl.replacement_boost());
    out.put(
        "attack.poisoned_update_ms",
        1e3 * time_median(BUDGET, || {
            attack.poisoned_update(global, shard, &fx.backdoor_train, &mut rng)
        }),
    );

    // --- net: frames and transports ----------------------------------------------
    let profile = shapes.wire.unwrap_or_else(WireProfile::lossless);
    let model_bytes = profile.model.encode(&params);
    let envelope = Envelope {
        from: NodeId::SERVER,
        to: NodeId(0),
        message: Message::TrainRequest { round: 1, global: model_bytes.clone() },
    };
    let framed = frame::encode_frame(&envelope);
    let frame_mb = framed.len() as f64 / 1e6;
    out.put(
        "net.frame.encode_mb_s",
        frame_mb / time_median(BUDGET, || frame::encode_frame(&envelope)),
    );
    out.put(
        "net.frame.decode_mb_s",
        frame_mb / time_median(BUDGET, || frame::decode_frame(&framed)),
    );
    out.put("net.transport.rtt_us.channel", rtt_us(TransportMode::InProcess, &model_bytes));
    out.put(
        "net.transport.rtt_us.unix",
        rtt_us(TransportMode::Socket(SocketKind::Unix), &model_bytes),
    );

    // --- net: checkpoint, restore, WAL ----------------------------------------------
    // A server parked on a private network, brought to a full history
    // window through the replay entry point.
    let window_len = shapes.lookback + 1;
    let config = ServerConfig {
        fl: shapes.fl.clone(),
        validators_per_round: shapes.validators,
        quorum: shapes.quorum,
        phase_timeout: Duration::from_secs(1),
        server_votes: true,
        seed,
        bootstrap_rounds: 0,
        bootstrap_trusted: Vec::new(),
        wire: profile,
    };
    let endpoint = |network: &Network| network.register(NodeId::SERVER);
    let mut server = Server::new(
        endpoint(&private_network(TransportMode::InProcess)),
        config.clone(),
        models[0].clone(),
        window_len,
        fx.validator,
        fx.server_data.clone(),
    );
    for (i, model) in models[1..].iter().enumerate() {
        server.apply_replayed_outcome(i as u64 + 1, Some(&model.params()), &[], &[]);
    }
    let blob = server.checkpoint();
    out.put("net.server.checkpoint_bytes", blob.len() as f64);
    out.put("net.server.checkpoint_ms", 1e3 * time_median(BUDGET, || server.checkpoint()));
    let kit = RestoreKit {
        config,
        template: global.clone(),
        history_window: window_len,
        validator: fx.validator,
        server_data: fx.server_data.clone(),
    };
    out.put(
        "net.server.restore_ms",
        1e3 * time_median(BUDGET, || {
            Server::restore(
                endpoint(&private_network(TransportMode::InProcess)),
                kit.config.clone(),
                kit.template.clone(),
                kit.history_window,
                kit.validator,
                kit.server_data.clone(),
                &blob,
            )
            .expect("own checkpoint restores")
        }),
    );

    let record_for = |round: u64| {
        let rng_stream = derive_stream(seed, round, NodeId::SERVER.0 as u64);
        [
            WalRecord::RoundStart { round, rng_stream },
            WalRecord::RoundAccepted {
                round,
                rng_stream,
                model: wire::encode_f32(&params),
                sync_commits: (0..shapes.validators as u64).map(|v| (v, round)).collect(),
                sync_resets: Vec::new(),
            },
        ]
    };
    let outcome = &record_for(1)[1];
    out.put("net.wal.record_bytes", baffle_net::wal::encode_record(outcome).len() as f64);
    let dir = scratch.join(format!("layers-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    let mut writer = WalWriter::create(&dir.join("append.log")).expect("create log");
    out.put(
        "net.wal.append_us",
        1e6 * time_median(BUDGET, || writer.append(outcome).expect("append")),
    );
    drop(writer);

    // A durability directory whose log this file writes itself: the
    // server's checkpoint, then `REPLAY_RECORDS` journaled rounds for a
    // standby to replay, then two records per further round to tail.
    let first_round = server.round() + 1;
    let primary = DurableServer::create(&dir, 0, server).expect("create durability directory");
    drop(primary);
    let log_path = dir.join(WAL_FILE);
    let mut log = WalWriter::create(&log_path).expect("create log");
    for round in first_round..first_round + REPLAY_RECORDS {
        for record in record_for(round) {
            log.append(&record).expect("append");
        }
    }
    let log_mb = std::fs::metadata(&log_path).expect("stat log").len() as f64 / 1e6;
    let mut replay_s = Vec::new();
    let mut promote_ms = Vec::new();
    for _ in 0..5 {
        let mut standby = Standby::attach(&dir, kit.clone()).expect("attach standby");
        let t = Instant::now();
        standby.catch_up().expect("replay log");
        replay_s.push(t.elapsed().as_secs_f64());
        let network = private_network(TransportMode::InProcess);
        let t = Instant::now();
        black_box(standby.promote(endpoint(&network)));
        promote_ms.push(ms_since(t));
    }
    out.put("net.wal.replay_mb_s", log_mb / median(&replay_s));
    out.put("net.wal.promote_ms", median(&promote_ms));
    let mut standby = Standby::attach(&dir, kit).expect("attach standby");
    standby.catch_up().expect("replay log");
    let mut catch_up_us = Vec::new();
    for round in first_round + REPLAY_RECORDS..first_round + REPLAY_RECORDS + 20 {
        for record in record_for(round) {
            log.append(&record).expect("append");
        }
        let t = Instant::now();
        standby.catch_up().expect("tail log");
        catch_up_us.push(ms_since(t) * 1e3);
    }
    out.put("net.wal.catch_up_us", median(&catch_up_us));
    let _ = std::fs::remove_dir_all(&dir);

    out.0
}
