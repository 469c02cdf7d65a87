//! The traced pass: Algorithm 1 replayed from this file, serially, at a
//! workload's shapes, calling only public functions of the product
//! crates with a span around each call.
//!
//! The end-to-end run says how long a round takes; this says where a
//! round's *work* is. The replay follows the path the workload really
//! takes — a simulation never encodes a model, a channel deployment
//! never cuts a frame, only the durable one journals — so layers a
//! workload bypasses show zero self time here.
//!
//! Simplification, stated once: validators decode what the server would
//! ship them for the timing, but then validate on the server's lossless
//! history, so one `ModelHistory` serves all of them. History entries
//! ship dense — no workload uses a chained (top-k) history profile.
//!
//! Validation is spelled out here (`ConfusionMatrix::from_models`, then
//! `Validator::validate_confusions`) so evaluation and LOF get spans of
//! their own. Each voter's call is then repeated, with the span clock
//! stopped, on a `ValidationEngine` of its own: the product's cache, not
//! this file's copy of it, counts `core.validate.cache_hit_ratio`.

use crate::json::{obj, Value};
use crate::spec::{Workload, POISON_EVERY, TRACE_LAYERS};
use crate::stats::{median, ms_since};
use baffle_attack::voting::Vote;
use baffle_attack::{BackdoorSpec, ModelReplacement};
use baffle_core::validate::MIN_HISTORY;
use baffle_core::{
    ConfusionCache, Decision, ModelHistory, QuorumRule, ValidationConfig, ValidationEngine,
    Validator,
};
use baffle_data::{partition, Dataset, SyntheticVision, VisionSpec};
use baffle_fl::secagg::SecAggSession;
use baffle_fl::{fedavg, sampling, FlConfig, HistoryCodec, LocalTrainer, WireProfile};
use baffle_net::frame;
use baffle_net::message::{HistoryEntry, Message, NodeId};
use baffle_net::transport::Envelope;
use baffle_net::wal::{WalRecord, WalWriter};
use baffle_nn::{wire, ConfusionMatrix, Mlp, MlpSpec, Model, Sgd};
use baffle_tensor::rng::derive_stream;
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::time::{Duration, Instant};

/// Rounds recorded with spans.
pub const TRACED_ROUNDS: usize = 50;

/// The shape of a workload: everything the replay and the per-layer
/// measurements need to size their inputs like the end-to-end run does.
#[derive(Debug, Clone)]
pub struct Shapes {
    pub vision: VisionSpec,
    /// Label-flip backdoor over the full distribution (FEMNIST-like)
    /// instead of the semantic one that excludes the backdoor subgroup.
    pub label_flip: bool,
    pub total_train: usize,
    pub server_share: f64,
    pub hidden: Vec<usize>,
    /// Whether the workload pre-trains its model centrally — which also
    /// decides how much training scratch every model clone carries.
    pub warm_start: bool,
    pub fl: FlConfig,
    pub validators: usize,
    pub lookback: usize,
    pub quorum: usize,
    pub backdoor_samples: usize,
    /// The attacker injects every [`POISON_EVERY`]th round.
    pub poison: bool,
    pub secagg: bool,
    /// Codecs on the wire; `None` when models never leave memory.
    pub wire: Option<WireProfile>,
    /// Whether messages are framed (socket transport).
    pub frames: bool,
    /// Whether round outcomes are journaled.
    pub wal: bool,
}

impl Shapes {
    pub fn of(workload: Workload, seed: u64) -> Self {
        if workload.is_sim() {
            let c = workload.sim_config(seed);
            let label_flip = workload == Workload::SimFemnistSecagg;
            Self {
                vision: if label_flip {
                    VisionSpec::femnist_like()
                } else {
                    VisionSpec::cifar_like()
                },
                label_flip,
                total_train: c.total_train,
                server_share: c.server_share,
                hidden: c.hidden.clone(),
                warm_start: c.warmup_central_epochs > 0,
                fl: FlConfig::new(c.num_clients, c.clients_per_round)
                    .with_local_epochs(c.local_epochs)
                    .with_local_lr(c.local_lr)
                    .with_batch_size(c.batch_size),
                validators: c.validators_per_round,
                lookback: c.lookback,
                quorum: c.quorum,
                backdoor_samples: c.backdoor_samples,
                poison: true,
                secagg: c.use_secagg,
                wire: None,
                frames: false,
                wal: false,
            }
        } else {
            let c = workload.deployment_config(seed);
            Self {
                vision: VisionSpec::cifar_like(),
                label_flip: false,
                total_train: c.total_train,
                server_share: c.server_share,
                hidden: c.hidden.clone(),
                warm_start: c.warmup_central_epochs > 0,
                fl: FlConfig::new(c.num_clients, c.clients_per_round),
                validators: c.validators_per_round,
                lookback: c.lookback,
                quorum: c.quorum,
                backdoor_samples: 120,
                poison: false,
                secagg: false,
                wire: Some(c.wire_profile),
                frames: workload == Workload::NetDurableUnix,
                wal: workload == Workload::NetDurableUnix,
            }
        }
    }

    pub fn classes(&self) -> usize {
        self.vision.num_classes()
    }

    pub fn mlp_spec(&self) -> MlpSpec {
        MlpSpec::new(self.vision.input_dim(), &self.hidden, self.classes())
    }
}

/// Data and a pre-trained model at a workload's shapes, synthesised the
/// way `Simulation::new` / `Deployment::build` do it.
pub struct Fixture {
    pub shapes: Shapes,
    pub shards: Vec<Dataset>,
    pub server_data: Dataset,
    pub backdoor: BackdoorSpec,
    pub backdoor_train: Dataset,
    pub global: Mlp,
    pub trainer: LocalTrainer,
    pub validator: Validator,
    /// `data.synth.samples_per_s`: generating the honest pool.
    pub synth_samples_per_s: f64,
    /// `data.partition.split_ms`: server share + Dirichlet client split.
    pub split_ms: f64,
}

impl Fixture {
    pub fn build(shapes: Shapes, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let generator = SyntheticVision::new(&shapes.vision, &mut rng);
        let t = Instant::now();
        let pool = if shapes.label_flip {
            generator.generate(&mut rng, shapes.total_train)
        } else {
            generator.generate_excluding(&mut rng, shapes.total_train, 1, 0)
        };
        let synth_samples_per_s = shapes.total_train as f64 / t.elapsed().as_secs_f64();
        let t = Instant::now();
        let (shards, server_data) = partition::client_server_split(
            &mut rng,
            &pool,
            shapes.fl.num_clients(),
            0.9,
            shapes.server_share,
        );
        let split_ms = ms_since(t);
        let (backdoor, backdoor_train) = if shapes.label_flip {
            let spec = BackdoorSpec::label_flip(0, 1);
            (spec, generator.generate_class(&mut rng, shapes.backdoor_samples, 0))
        } else {
            let spec = BackdoorSpec::semantic(1, 0, 2);
            (spec, generator.generate_subgroup(&mut rng, shapes.backdoor_samples, 1, 0))
        };
        // A few central epochs over the pool stand in for the workload's
        // warm start, so the layers are timed on a model that classifies
        // and that carries the same training scratch as the workload's.
        let mut global = Mlp::new(&shapes.mlp_spec(), &mut rng);
        if shapes.warm_start {
            let mut opt = Sgd::new(shapes.fl.local_lr()).with_momentum(0.9);
            for _ in 0..3 {
                global.train_epoch(
                    pool.features(),
                    pool.labels(),
                    shapes.fl.batch_size(),
                    &mut opt,
                    &mut rng,
                );
            }
        }
        let trainer = LocalTrainer::from_config(&shapes.fl);
        let validator = Validator::new(ValidationConfig::new(shapes.lookback).with_margin(1.2));
        Self {
            shapes,
            shards,
            server_data,
            backdoor,
            backdoor_train,
            global,
            trainer,
            validator,
            synth_samples_per_s,
            split_ms,
        }
    }

    /// A shard of typical (median non-empty) size — the one the
    /// per-client layer timings run on.
    pub fn typical_shard(&self) -> &Dataset {
        let mut sized: Vec<&Dataset> = self.shards.iter().filter(|s| !s.is_empty()).collect();
        sized.sort_by_key(|s| s.len());
        sized[sized.len() / 2]
    }
}

/// One recorded interval.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    round: u64,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder; nothing is written until the pass ends.
struct Tracer {
    epoch: Instant,
    enabled: bool,
    round: u64,
    /// Time taken out of the span clock (see [`Tracer::skip`]).
    skipped_ns: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span; `None` while recording is off.
type Open = Option<usize>;

impl Tracer {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            enabled: false,
            round: 0,
            skipped_ns: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64 - self.skipped_ns
    }

    /// Stops the span clock for `elapsed`, which has just passed: work
    /// that is not part of the replayed round lengthens no span.
    fn skip(&mut self, elapsed: Duration) {
        self.skipped_ns += elapsed.as_nanos() as u64;
    }

    fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            round: self.round,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        Some(id)
    }

    fn exit(&mut self, span: Open) {
        if let Some(id) = span {
            self.spans[id].end_ns = self.now_ns();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
        }
    }
}

/// What the traced pass measured.
pub struct TraceSummary {
    /// Median wall-clock of a replayed round.
    pub replay_round_ms: f64,
    /// Mean self time per round of each span name in [`TRACE_LAYERS`].
    pub self_ms: Vec<(&'static str, f64)>,
    /// `ValidationEngine::hits` over hits + misses, summed over every
    /// voter's engine, across the traced rounds.
    pub cache_hit_ratio: f64,
}

/// The replay state: the fixture plus what Algorithm 1 carries from
/// round to round.
pub struct Replay {
    pub fx: Fixture,
    pub history: ModelHistory,
    /// The last round's honest updates — inputs for the aggregation
    /// layer timings.
    pub last_updates: Vec<Vec<f32>>,
    /// One cache per client, the server's last.
    caches: Vec<ConfusionCache>,
    /// The product's cached validator per voter, driven in step with
    /// `caches` for its hit and miss counters.
    engines: Vec<ValidationEngine>,
    /// The engines' (hits, misses) when tracing started.
    counted_from: (u64, u64),
    /// Newest history id each validator has been shipped.
    synced: Vec<Option<u64>>,
    /// The history window as the server ships it: `(id, encoded model)`.
    ship: Vec<HistoryEntry>,
    wal: Option<WalWriter>,
    rng: StdRng,
    seed: u64,
    round: u64,
    tracer: Tracer,
}

impl Replay {
    /// `wal_path` is where a journaling workload's replay appends.
    pub fn new(fx: Fixture, seed: u64, wal_path: &Path) -> Self {
        let clients = fx.shards.len();
        let mut history = ModelHistory::new(fx.shapes.lookback + 1);
        let first = history.push(fx.global.clone());
        let wal = fx.shapes.wal.then(|| WalWriter::create(wal_path).expect("create replay log"));
        let mut replay = Self {
            history,
            last_updates: Vec::new(),
            caches: vec![ConfusionCache::new(); clients + 1],
            engines: vec![ValidationEngine::new(fx.validator); clients + 1],
            counted_from: (0, 0),
            synced: vec![None; clients],
            ship: Vec::new(),
            wal,
            rng: StdRng::seed_from_u64(seed ^ 0x5EED_7ACE),
            seed,
            round: 0,
            tracer: Tracer::new(),
            fx,
        };
        replay.push_ship_entry(first);
        replay
    }

    /// Fills the history window untraced, then records
    /// [`TRACED_ROUNDS`] rounds.
    pub fn run(&mut self) -> TraceSummary {
        for _ in 0..=self.fx.shapes.lookback {
            self.step();
        }
        self.tracer.enabled = true;
        self.counted_from = self.engine_counts();
        for _ in 0..TRACED_ROUNDS {
            self.step();
        }
        self.tracer.enabled = false;
        self.summary()
    }

    fn push_ship_entry(&mut self, id: u64) {
        let Some(profile) = self.fx.shapes.wire else { return };
        let HistoryCodec::Dense(codec) = profile.history else {
            panic!("the replay ships dense history only");
        };
        let span = self.tracer.enter("nn.wire");
        let params = codec.encode(&self.fx.global.params());
        self.tracer.exit(span);
        self.ship.push(HistoryEntry { id, params });
        if self.ship.len() > self.history.capacity() {
            self.ship.remove(0);
        }
    }

    /// Encodes and decodes `message` as one frame, when the workload
    /// frames its messages.
    fn through_frame(&mut self, from: NodeId, to: NodeId, message: Message) {
        if !self.fx.shapes.frames {
            return;
        }
        let span = self.tracer.enter("net.frame");
        let bytes = frame::encode_frame(&Envelope { from, to, message });
        frame::decode_frame(&bytes).expect("own frame decodes");
        self.tracer.exit(span);
    }

    fn journal(&mut self, record: WalRecord) {
        if let Some(wal) = &mut self.wal {
            let span = self.tracer.enter("net.wal");
            wal.append(&record).expect("append to replay log");
            self.tracer.exit(span);
        }
    }

    /// One round of Algorithm 1.
    fn step(&mut self) {
        self.round += 1;
        let round = self.round;
        self.tracer.round = round;
        let root = self.tracer.enter("round");
        let shapes = self.fx.shapes.clone();
        let rng_stream = derive_stream(self.seed, round, NodeId::SERVER.0 as u64);
        self.journal(WalRecord::RoundStart { round, rng_stream });

        // --- contributors train ------------------------------------------
        let poisoned = shapes.poison && (round as usize).is_multiple_of(POISON_EVERY);
        let mut contributors = sampling::select_clients(
            &mut self.rng,
            shapes.fl.num_clients(),
            shapes.fl.clients_per_round(),
        );
        if poisoned && !contributors.contains(&0) {
            contributors[0] = 0;
        }
        let global_params = self.fx.global.params();
        let global_bytes = shapes.wire.map(|profile| {
            let span = self.tracer.enter("nn.wire");
            let bytes = profile.model.encode(&global_params);
            self.tracer.exit(span);
            bytes
        });
        let mut updates: Vec<Vec<f32>> = Vec::with_capacity(contributors.len());
        for &c in &contributors {
            let node = NodeId(c as u32);
            let mut local_global = self.fx.global.clone();
            if let Some(bytes) = &global_bytes {
                self.through_frame(
                    NodeId::SERVER,
                    node,
                    Message::TrainRequest { round, global: bytes.clone() },
                );
                let span = self.tracer.enter("nn.wire");
                local_global.set_params(&wire::decode_any(bytes).expect("own model decodes"));
                self.tracer.exit(span);
            }
            let mut client_rng = StdRng::seed_from_u64(self.rng.gen());
            let update = if poisoned && c == 0 {
                let boost = shapes.fl.replacement_boost();
                let span = self.tracer.enter("attack");
                let update = ModelReplacement::new(self.fx.backdoor, boost).poisoned_update(
                    &local_global,
                    &self.fx.shards[0],
                    &self.fx.backdoor_train,
                    &mut client_rng,
                );
                self.tracer.exit(span);
                update
            } else if self.fx.shards[c].is_empty() && shapes.wire.is_some() {
                // A deployed client with an empty shard abstains.
                continue;
            } else {
                let span = self.tracer.enter("fl.trainer");
                let update = self.fx.trainer.train_update(
                    &local_global,
                    &self.fx.shards[c],
                    &mut client_rng,
                );
                self.tracer.exit(span);
                update
            };
            let update = match shapes.wire {
                None => update,
                Some(profile) => {
                    let span = self.tracer.enter("nn.wire");
                    let bytes = profile.update.encode(&update);
                    self.tracer.exit(span);
                    self.through_frame(
                        node,
                        NodeId::SERVER,
                        Message::UpdateSubmission { round, from: node, update: bytes.clone() },
                    );
                    let span = self.tracer.enter("nn.wire");
                    let decoded = wire::decode_any(&bytes).expect("own update decodes");
                    self.tracer.exit(span);
                    decoded
                }
            };
            updates.push(update);
        }
        if updates.is_empty() {
            // Every sampled contributor abstained: the round is skipped.
            self.tracer.exit(root);
            return;
        }

        // --- aggregation ---------------------------------------------------
        let lambda = shapes.fl.global_lr();
        let clients = shapes.fl.num_clients();
        let candidate_params = if shapes.wire.is_some() {
            // The server averages the updates it received.
            let span = self.tracer.enter("fl.aggregate");
            let params = fedavg(&global_params, &updates, lambda, clients);
            self.tracer.exit(span);
            params
        } else {
            // The simulation sums first (through secure aggregation when
            // enabled) and applies the sum as a single update.
            let summed = if shapes.secagg {
                let span = self.tracer.enter("fl.secagg");
                let session =
                    SecAggSession::new(self.seed ^ round, updates.len(), global_params.len());
                let masked: Vec<Vec<f32>> =
                    updates.iter().enumerate().map(|(i, u)| session.mask(i, u)).collect();
                let summed = session.aggregate(&masked);
                self.tracer.exit(span);
                summed
            } else {
                let span = self.tracer.enter("fl.aggregate");
                let mut sum = vec![0.0; global_params.len()];
                for u in &updates {
                    baffle_tensor::ops::axpy(1.0, u, &mut sum);
                }
                self.tracer.exit(span);
                sum
            };
            let span = self.tracer.enter("fl.aggregate");
            let params = fedavg(&global_params, &[summed], lambda, clients);
            self.tracer.exit(span);
            params
        };
        let mut candidate = self.fx.global.clone();
        candidate.set_params(&candidate_params);
        self.last_updates = updates;

        // --- validation and quorum -----------------------------------------
        let validators =
            sampling::select_clients(&mut self.rng, clients, shapes.validators.min(clients));
        let candidate_bytes = shapes.wire.map(|profile| {
            let span = self.tracer.enter("nn.wire");
            let bytes = profile.model.encode(&candidate_params);
            self.tracer.exit(span);
            bytes
        });
        let mut votes = Vec::with_capacity(validators.len() + 1);
        for &v in &validators {
            if let Some(bytes) = &candidate_bytes {
                self.ship_to(v, round, bytes);
            }
            votes.push(self.validate(Some(v), &candidate));
        }
        votes.push(self.validate(None, &candidate));
        let rule = QuorumRule::new(votes.len(), shapes.quorum.min(votes.len()))
            .expect("quorum within the voters");
        let accepted = rule.decide(&votes) == Decision::Accepted;

        // --- integration -----------------------------------------------------
        if accepted {
            self.fx.global = candidate;
            let id = self.history.push(self.fx.global.clone());
            self.push_ship_entry(id);
            if self.wal.is_some() {
                let span = self.tracer.enter("nn.wire");
                let model = wire::encode_f32(&candidate_params);
                self.tracer.exit(span);
                self.journal(WalRecord::RoundAccepted {
                    round,
                    rng_stream,
                    model,
                    sync_commits: validators.iter().map(|&v| (v as u64, id)).collect(),
                    sync_resets: Vec::new(),
                });
            }
        } else {
            self.journal(WalRecord::RoundRejected {
                round,
                rng_stream,
                sync_commits: Vec::new(),
                sync_resets: Vec::new(),
            });
        }
        self.tracer.exit(root);
    }

    /// Ships validator `v` the candidate and the history entries it has
    /// not seen, and decodes them on its side.
    fn ship_to(&mut self, v: usize, round: u64, candidate: &Bytes) {
        let seen = self.synced[v];
        let history_delta: Vec<HistoryEntry> =
            self.ship.iter().filter(|e| seen.is_none_or(|s| e.id > s)).cloned().collect();
        self.synced[v] = self.ship.last().map(|e| e.id);
        self.through_frame(
            NodeId::SERVER,
            NodeId(v as u32),
            Message::ValidateRequest {
                round,
                candidate: candidate.clone(),
                history_delta: history_delta.clone(),
            },
        );
        let span = self.tracer.enter("nn.wire");
        wire::decode_any(candidate).expect("own candidate decodes");
        for entry in &history_delta {
            wire::decode_any(&entry.params).expect("own history entry decodes");
        }
        self.tracer.exit(span);
    }

    /// One voter's VALIDATE (Algorithm 2) with its confusion cache;
    /// `None` is the server on its own share.
    fn validate(&mut self, voter: Option<usize>, candidate: &Mlp) -> Vote {
        let slot = voter.unwrap_or(self.caches.len() - 1);
        let data = match voter {
            Some(v) => &self.fx.shards[v],
            None => &self.fx.server_data,
        };
        let models = self.history.models();
        let ids = self.history.ids();
        // A voter that cannot judge abstains, which counts as accept.
        if data.is_empty() || models.len() < MIN_HISTORY {
            return Vote::Accept;
        }
        let span = self.tracer.enter("core.validate");
        let cache = &mut self.caches[slot];
        let missing: Vec<usize> = (0..ids.len()).filter(|&i| !cache.contains(ids[i])).collect();
        let mut batch: Vec<&Mlp> = missing.iter().map(|&i| &models[i]).collect();
        batch.push(candidate);
        let eval = self.tracer.enter("nn.eval");
        let mut matrices = ConfusionMatrix::from_models(&batch, data.features(), data.labels());
        self.tracer.exit(eval);
        let current = matrices.pop().expect("candidate matrix");
        for (&i, cm) in missing.iter().zip(matrices) {
            cache.insert(ids[i], cm);
        }
        cache.retain_window(ids);
        let window: Vec<ConfusionMatrix> =
            ids.iter().map(|&id| cache.get(id).expect("window cached").clone()).collect();
        let lof = self.tracer.enter("lof");
        let verdict = self.fx.validator.validate_confusions(&window, &current, data.len());
        self.tracer.exit(lof);
        self.tracer.exit(span);
        let t = Instant::now();
        let _ = self.engines[slot].validate_batched(candidate, ids, models, data);
        self.tracer.skip(t.elapsed());
        verdict.map_or(Vote::Accept, |d| d.verdict.vote())
    }

    /// (hits, misses) over every voter's engine so far.
    fn engine_counts(&self) -> (u64, u64) {
        self.engines.iter().fold((0, 0), |(h, m), e| (h + e.hits(), m + e.misses()))
    }

    fn summary(&self) -> TraceSummary {
        let spans = &self.tracer.spans;
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let round_ms: Vec<f64> = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect();
        let self_ms = TRACE_LAYERS
            .iter()
            .map(|&name| {
                let total: u64 = spans
                    .iter()
                    .zip(&child_ns)
                    .filter(|(s, _)| s.name == name)
                    .map(|(s, &children)| (s.end_ns - s.start_ns).saturating_sub(children))
                    .sum();
                (name, total as f64 / 1e6 / TRACED_ROUNDS as f64)
            })
            .collect();
        let (hits, misses) = self.engine_counts();
        let (hits, misses) = (hits - self.counted_from.0, misses - self.counted_from.1);
        let needed = hits + misses;
        TraceSummary {
            replay_round_ms: median(&round_ms),
            self_ms,
            cache_hit_ratio: if needed == 0 { 0.0 } else { hits as f64 / needed as f64 },
        }
    }

    /// The recorded spans as a columnar JSON document.
    pub fn trace_json(&self, workload: Workload) -> Value {
        let rows: Vec<Value> = self
            .tracer
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Value::Arr(vec![
                    Value::from(id),
                    s.parent.map_or(Value::Null, Value::from),
                    Value::from(
                        TRACE_LAYERS.iter().position(|&n| n == s.name).expect("known span"),
                    ),
                    Value::from(s.round),
                    Value::from(s.start_ns),
                    Value::from(s.end_ns),
                ])
            })
            .collect();
        obj([
            ("workload", Value::from(workload.name())),
            ("names", Value::from(TRACE_LAYERS.to_vec())),
            ("columns", Value::from(vec!["id", "parent", "name", "round", "start_ns", "end_ns"])),
            ("spans", Value::Arr(rows)),
        ])
    }
}
