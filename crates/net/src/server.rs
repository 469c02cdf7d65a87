//! The coordinating server actor (Algorithm 1, server side).

use crate::frame::Cursor;
use crate::message::{AbstainReason, HistoryEntry, Message, NodeId};
use crate::phase::PhaseLedger;
use crate::transport::Endpoint;
use baffle_attack::voting::Vote;
use baffle_core::{tally, ModelHistory, Tally, ValidationEngine, Validator};
use baffle_data::Dataset;
use baffle_fl::history_sync::{HistorySync, ModelId};
use baffle_fl::{fedavg, sampling, FlConfig, HistoryCodec, WireProfile};
use baffle_nn::{wire, Mlp, Model};
use baffle_tensor::{pool, rng::derive_stream};
use bytes::Bytes;
use crossbeam::channel::RecvTimeoutError;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// Server-side protocol parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// FL hyperparameters (N, n, λ).
    pub fl: FlConfig,
    /// Validating clients per round.
    pub validators_per_round: usize,
    /// Quorum threshold `q`.
    pub quorum: usize,
    /// How long to wait for updates/votes before proceeding without the
    /// stragglers.
    pub phase_timeout: Duration,
    /// Whether the server casts its own vote (BAFFLE vs BAFFLE-C).
    pub server_votes: bool,
    /// Master seed for client selection. Each round's selection RNG is
    /// derived via [`baffle_tensor::rng::derive_stream`] over
    /// `(seed, round, server-id)` — a pure function, so a server
    /// restored from a checkpoint samples exactly the sets an
    /// uninterrupted run would have.
    pub seed: u64,
    /// Trust-bootstrapping phase (paper §IV-B, "bootstrapping trust
    /// across rounds"): for the first `bootstrap_rounds` rounds,
    /// contributors are sampled only from `bootstrap_trusted` (an
    /// operator-vetted set), so the initial model history is known
    /// clean. Empty = no restriction.
    pub bootstrap_rounds: u64,
    /// The vetted participant set used during bootstrapping.
    pub bootstrap_trusted: Vec<usize>,
    /// Which codec each payload class uses on the wire (models, updates,
    /// history shipping). The trusted state — checkpoints, the in-memory
    /// history — always stays lossless `f32`; the profile only shapes
    /// what crosses the network.
    pub wire: WireProfile,
}

/// What happened in one protocol round, as observed by the server.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServerRound {
    /// Round number (1-based).
    pub round: u64,
    /// Whether the aggregated update was integrated.
    pub accepted: bool,
    /// Updates received before the timeout.
    pub updates_received: usize,
    /// Votes received before the timeout (missing votes are implicit
    /// accepts per footnote 1).
    pub votes_received: usize,
    /// Reject votes among them.
    pub reject_votes: usize,
    /// Update submissions discarded at intake because the **sender
    /// misbehaved**: not in this round's sampled contributor set, claimed
    /// id not matching the transport envelope, undecodable-but-intact
    /// payload, or wrong parameter count. (Stale-round stragglers are
    /// silently dropped, not counted — losing a race is not an intake
    /// violation; link-corrupted payloads and repeat deliveries have
    /// their own counters below.)
    pub rejected_submissions: usize,
    /// Vote submissions discarded at intake: sender not in this round's
    /// sampled validator set, or claimed id not matching the envelope.
    pub rejected_votes: usize,
    /// Explicit [`Message::Abstain`] declarations counted this round
    /// (both phases). An abstaining validator is the paper's footnote-1
    /// implicit accept made explicit: it casts no vote, but the phase
    /// ledger stops waiting for it.
    pub abstentions: usize,
    /// Payloads that arrived damaged by the link (wire checksum
    /// mismatch). The *sender* did nothing wrong, so these are counted
    /// apart from `rejected_submissions` — an honest node must never be
    /// booked as misbehaving because the network chewed its message.
    pub corrupted_payloads: usize,
    /// Deliveries that repeated an already-settled ledger slot: a
    /// duplicated message (link-level duplication, or a client sending
    /// twice). First delivery wins; repeats are counted here, not as
    /// rejections, because the server cannot distinguish a duplicating
    /// link from a duplicating sender.
    pub duplicate_deliveries: usize,
    /// Validators whose committed sync point predated the retained
    /// history window this round (unsampled for more than a full window
    /// of accepted models). Each such validator is shipped the full
    /// contiguous window in one go — the sync bookkeeping clamps deltas
    /// to the window, so the absence costs bandwidth, never a
    /// `HistoryTooShort` round-trip. This counter makes those
    /// full-window re-ships observable in chaos runs.
    pub evicted_resyncs: usize,
    /// Whether a collection phase ended because the transport itself went
    /// away (the server's receive channel disconnected) rather than by
    /// timeout or full accounting.
    pub transport_lost: bool,
    /// Whether the effective quorum was silently lowered because fewer
    /// voters exist than the configured `q` — a misconfigured deployment
    /// that experiments should be able to detect.
    pub quorum_clamped: bool,
    /// Wall-clock spent collecting updates. With the phase ledger this
    /// approaches `phase_timeout` only when a sampled contributor is
    /// genuinely silent.
    pub update_phase: Duration,
    /// Wall-clock spent collecting votes (zero for skipped rounds).
    pub vote_phase: Duration,
    /// Bytes of history shipped to validators this round (the §VI-D
    /// overhead, measured).
    pub history_bytes_shipped: usize,
}

/// A malformed or truncated checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointError {
    message: String,
}

impl CheckpointError {
    fn new(message: impl Into<String>) -> Self {
        Self { message: message.into() }
    }
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid checkpoint: {}", self.message)
    }
}

impl std::error::Error for CheckpointError {}

const CHECKPOINT_MAGIC: u32 = 0xBAFF_C4C4;
/// v1 was versioned but unchecksummed: a bit-flipped blob could decode
/// into a plausible-but-wrong state (a damaged float still parses). v2
/// inserts a whole-body FNV-1a checksum after the version word, so any
/// single-bit damage is rejected before structural parsing begins. v1
/// blobs are refused with an error naming the version.
const CHECKPOINT_VERSION: u32 = 2;
/// Bytes before the checksummed body: magic, version, checksum.
const CHECKPOINT_HEADER: usize = 12;

/// One accepted model of the trusted window, in every encoding the
/// server hands out: the lossless one checkpoints are made of, and — so
/// that shipping the same entry to many validators encodes it once —
/// its wire forms under the profile's history codec.
#[derive(Debug, Clone)]
struct WindowEntry {
    id: ModelId,
    /// Lossless `f32` encoding — the checkpoint format. Trusted state is
    /// never quantised, whatever the wire profile.
    lossless: Bytes,
    /// Self-contained wire encoding (chain heads, full re-ships).
    full: Bytes,
    /// Sparse wire delta against model `id - 1`, when the profile chains
    /// and the delta was encodable.
    delta: Option<Bytes>,
}

/// Builds the window entry for an accepted model. `prev` is the previous
/// global model's parameters (`None` for the very first entry);
/// `lossless` is `params` in the `f32` wire format.
fn window_entry(
    wire_profile: &WireProfile,
    id: ModelId,
    prev: Option<&[f32]>,
    params: &[f32],
    lossless: Bytes,
) -> WindowEntry {
    let codec = match wire_profile.history {
        HistoryCodec::Dense(codec) => codec,
        HistoryCodec::TopKChain { codec, .. } => codec,
    };
    let delta = match (wire_profile.history, prev) {
        (HistoryCodec::TopKChain { .. }, Some(prev)) => {
            let k = wire_profile.history_keep(params.len()).expect("top-k profile keeps some");
            // A non-finite model (a poisoned candidate that slipped
            // through) cannot ride the chain; it ships dense instead.
            wire::encode_topk(prev, params, k).ok()
        }
        _ => None,
    };
    WindowEntry { id, lossless, full: codec.encode(params), delta }
}

/// The server actor: owns the global model, the trusted history and the
/// per-client history-sync bookkeeping.
#[derive(Debug)]
pub struct Server {
    endpoint: Endpoint,
    config: ServerConfig,
    global: Mlp,
    /// Number of parameters of the global model — the only update length
    /// accepted at intake (anything else would panic `fedavg`).
    param_len: usize,
    history: ModelHistory,
    /// The encodings of `history`'s models, entry for entry. Written by
    /// [`Server::new`], [`Server::restore`] and [`Server::integrate`]
    /// only.
    window: VecDeque<WindowEntry>,
    sync: HistorySync,
    engine: ValidationEngine,
    server_data: Dataset,
    round: u64,
}

impl Server {
    /// Creates the server actor with an initial (warm-started) global
    /// model. `history_window` is `ℓ + 1`.
    pub fn new(
        endpoint: Endpoint,
        config: ServerConfig,
        initial_model: Mlp,
        history_window: usize,
        validator: Validator,
        server_data: Dataset,
    ) -> Self {
        let mut history = ModelHistory::new(history_window);
        let hist_id = history.push(initial_model.clone());
        let mut sync = HistorySync::new(history_window);
        let first_id = sync.push_accepted();
        // The history's cache ids and the sync protocol's wire ids are
        // assigned in lockstep: both count acceptances from zero.
        debug_assert_eq!(hist_id, first_id);
        let initial_params = initial_model.params();
        let window = VecDeque::from([window_entry(
            &config.wire,
            first_id,
            None,
            &initial_params,
            wire::encode_f32(&initial_params),
        )]);
        Self {
            endpoint,
            config,
            param_len: initial_model.num_params(),
            global: initial_model,
            history,
            window,
            sync,
            engine: ValidationEngine::new(validator),
            server_data,
            round: 0,
        }
    }

    /// The current global model.
    pub fn global_model(&self) -> &Mlp {
        &self.global
    }

    /// Rounds completed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Consumes the server and returns its endpoint — the handle a
    /// restored replacement server reuses after a crash.
    pub fn into_endpoint(self) -> Endpoint {
        self.endpoint
    }

    /// The protocol configuration this server runs under.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The committed history-sync points, sorted by client — the same
    /// view [`Server::checkpoint`] serializes. The WAL journals each
    /// round's *change* to this map, so the durability layer snapshots
    /// it before and after every round.
    pub fn sync_committed(&self) -> Vec<(usize, ModelId)> {
        self.sync.committed()
    }

    /// Replaces the server's transport endpoint — the standby-promotion
    /// primitive: a warm replica built on a private network takes over
    /// the real `SERVER` route the moment the primary's registration is
    /// gone. The replica's private endpoint is dropped here; nothing was
    /// ever routed to it.
    pub(crate) fn set_endpoint(&mut self, endpoint: Endpoint) {
        self.endpoint = endpoint;
    }

    /// Integrates one journaled round outcome during WAL replay, without
    /// running the protocol: advances the round counter, installs an
    /// accepted round's journaled global model through
    /// [`Server::integrate`] — the live round's own integration step —
    /// and re-applies the round's sync-map commits and resets. The
    /// replay layer (`net::wal`) validates records before calling — this
    /// method only integrates.
    ///
    /// # Panics
    ///
    /// Panics if `round` is not the next round or if an accepted model's
    /// parameter count mismatches the architecture; both are validated
    /// by the caller, so a violation here is a replay-layer bug.
    pub fn apply_replayed_outcome(
        &mut self,
        round: u64,
        accepted_params: Option<&[f32]>,
        commits: &[(usize, ModelId)],
        resets: &[usize],
    ) {
        assert_eq!(round, self.round + 1, "replayed outcomes must arrive in round order");
        self.round = round;
        if let Some(params) = accepted_params {
            assert_eq!(params.len(), self.param_len, "replayed model must match architecture");
            self.integrate(params);
        }
        // Resets before commits: a round can reset a gapped validator it
        // never re-shipped, but it cannot commit and then reset the same
        // client, so the order only matters for distinct clients anyway.
        for &client in resets {
            self.sync.reset(client);
        }
        for &(client, id) in commits {
            self.sync.commit(client, id);
        }
    }

    /// `G^r ← G'`: installs accepted parameters as the global model and
    /// appends them to the trusted history, the window and the sync
    /// bookkeeping, evicting the oldest window entry with the oldest
    /// history model. The one function that extends the server's history
    /// — a live round and a replayed one reach the same state because
    /// they get there through the same code.
    fn integrate(&mut self, params: &[f32]) {
        let prev_params = self.global.params();
        self.global.set_params(params);
        let hist_id = self.history.push(self.global.clone());
        let id = self.sync.push_accepted();
        debug_assert_eq!(hist_id, id, "history and sync ids must stay in lockstep");
        self.window.push_back(window_entry(
            &self.config.wire,
            id,
            Some(&prev_params),
            params,
            wire::encode_f32(params),
        ));
        if self.window.len() > self.history.capacity() {
            self.window.pop_front();
        }
    }

    /// Serializes everything a replacement server needs to continue the
    /// protocol bit-for-bit: the round counter, the trusted history
    /// window (wire-encoded, newest entry = current global model), and
    /// the **committed** history-sync points. Unacknowledged shipments
    /// are deliberately absent — across a restore they must be treated as
    /// lost, and the acknowledged-sync protocol then re-ships them.
    ///
    /// Selection randomness needs no state: each round's RNG is
    /// re-derived as a pure function of `(seed, round, server-id)`.
    pub fn checkpoint(&self) -> Bytes {
        let mut buf = Vec::new();
        buf.extend_from_slice(&CHECKPOINT_MAGIC.to_le_bytes());
        buf.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        // Checksum placeholder — filled in over the body once it exists.
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&self.round.to_le_bytes());
        buf.extend_from_slice(&self.sync.accepted().to_le_bytes());
        buf.extend_from_slice(&(self.window.len() as u32).to_le_bytes());
        for entry in &self.window {
            buf.extend_from_slice(&entry.id.to_le_bytes());
            buf.extend_from_slice(&(entry.lossless.len() as u64).to_le_bytes());
            buf.extend_from_slice(&entry.lossless);
        }
        let committed = self.sync.committed();
        buf.extend_from_slice(&(committed.len() as u32).to_le_bytes());
        for (client, id) in committed {
            buf.extend_from_slice(&(client as u64).to_le_bytes());
            buf.extend_from_slice(&id.to_le_bytes());
        }
        let checksum = wire::fnv1a(&buf[CHECKPOINT_HEADER..]);
        buf[8..CHECKPOINT_HEADER].copy_from_slice(&checksum.to_le_bytes());
        Bytes::from(buf)
    }

    /// Rebuilds a server from a [`Server::checkpoint`] blob. `template`
    /// is any model with the right architecture; the global model is
    /// recovered from the newest checkpointed history entry.
    ///
    /// # Errors
    ///
    /// Returns an error for a truncated or corrupted blob, a version or
    /// architecture mismatch, an empty or gapped history window, or
    /// entries exceeding `history_window`.
    pub fn restore(
        endpoint: Endpoint,
        config: ServerConfig,
        template: Mlp,
        history_window: usize,
        validator: Validator,
        server_data: Dataset,
        checkpoint: &[u8],
    ) -> Result<Self, CheckpointError> {
        let mut r = Cursor::new(checkpoint, |what| {
            CheckpointError::new(format!("truncated reading {what}"))
        });
        if r.u32("magic")? != CHECKPOINT_MAGIC {
            return Err(CheckpointError::new("bad magic"));
        }
        let version = r.u32("version")?;
        if version == 1 {
            return Err(CheckpointError::new(
                "unsupported version 1: pre-checksum blobs cannot be integrity-verified, \
                 re-create the checkpoint with the current server",
            ));
        }
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::new(format!("unsupported version {version}")));
        }
        let checksum = r.u32("checksum")?;
        if wire::fnv1a(&checkpoint[CHECKPOINT_HEADER..]) != checksum {
            return Err(CheckpointError::new("body checksum mismatch"));
        }
        let round = r.u64("round")?;
        let accepted = r.u64("accepted count")?;
        let n_entries = r.u32("history length")? as usize;
        if n_entries == 0 || n_entries > history_window {
            return Err(CheckpointError::new(format!(
                "history length {n_entries} outside 1..={history_window}"
            )));
        }
        let param_len = template.num_params();
        // The wire-format walk is inherently serial (each entry's length
        // prefix locates the next), but everything per-entry after it —
        // float decode, `set_params`, window-entry encode — is independent
        // and fans out across the worker pool. A parse error at entry k
        // is held back until entries `0..k` pass their own checks, so the
        // surfaced error matches the old interleaved loop exactly.
        let mut raw: Vec<(u64, &[u8])> = Vec::with_capacity(n_entries);
        let mut parse_err = None;
        for _ in 0..n_entries {
            let entry = r.u64("entry id").and_then(|id| {
                let len = r.u64("entry length")? as usize;
                Ok((id, r.take(len, "entry params")?))
            });
            match entry {
                Ok(e) => raw.push(e),
                Err(e) => {
                    parse_err = Some(e);
                    break;
                }
            }
        }
        let decoded_results =
            pool::parallel_map(raw.clone(), |_, (_, params)| wire::decode_f32(params));
        let mut decoded = Vec::with_capacity(raw.len());
        for (i, result) in decoded_results.into_iter().enumerate() {
            let d = result.map_err(|e| CheckpointError::new(format!("entry {i}: {e}")))?;
            if d.len() != param_len {
                return Err(CheckpointError::new(format!(
                    "entry {i} has {} params, template has {param_len}",
                    d.len()
                )));
            }
            if i > 0 && raw[i - 1].0 + 1 != raw[i].0 {
                return Err(CheckpointError::new("gapped history ids"));
            }
            decoded.push(d);
        }
        if let Some(e) = parse_err {
            return Err(e);
        }
        // Every entry is now validated: rebuild the per-entry state in
        // one parallel sweep (window entry i only needs entry i−1's
        // decoded params, which are all in hand). The checkpoint's own
        // bytes are the lossless encoding — nothing is re-encoded.
        let rebuilt = pool::parallel_map((0..raw.len()).collect(), |_, i| {
            let (id, lossless) = raw[i];
            let mut model = template.clone();
            model.set_params(&decoded[i]);
            let prev = if i == 0 { None } else { Some(decoded[i - 1].as_slice()) };
            let lossless = Bytes::copy_from_slice(lossless);
            ((id, model), window_entry(&config.wire, id, prev, &decoded[i], lossless))
        });
        let (models, window): (Vec<(ModelId, Mlp)>, VecDeque<WindowEntry>) =
            rebuilt.into_iter().unzip();
        let newest = models.last().expect("n_entries >= 1").0;
        if newest + 1 != accepted {
            return Err(CheckpointError::new("history newest id inconsistent with accepted count"));
        }
        let n_committed = r.u32("sync map length")? as usize;
        let mut committed = Vec::with_capacity(n_committed);
        for _ in 0..n_committed {
            let client = r.u64("sync client")? as usize;
            let id = r.u64("sync point")?;
            committed.push((client, id));
        }
        if !r.is_empty() {
            return Err(CheckpointError::new("trailing bytes"));
        }
        let global = models.last().expect("n_entries >= 1").1.clone();
        Ok(Self {
            endpoint,
            config,
            param_len,
            global,
            history: ModelHistory::from_entries(history_window, models),
            window,
            sync: HistorySync::restore(history_window, accepted, committed),
            engine: ValidationEngine::new(validator),
            server_data,
            round,
        })
    }

    /// Runs one full protocol round and returns what happened.
    ///
    /// With `server_votes`, the server casts its own vote between sending
    /// the `ValidateRequest`s and waiting for the answers: the evaluation
    /// overlaps the validators' instead of extending the vote phase, and
    /// since votes are an order-free count the outcome is unchanged.
    pub fn run_round(&mut self) -> ServerRound {
        self.round += 1;
        let round = self.round;
        let n = self.config.fl.clients_per_round();
        // Selection randomness is a pure function of (seed, round, id),
        // so a restored server replays the uninterrupted run's samples.
        // The splitmix64 mixer (not `seed ^ round`) keeps adjacent seeds
        // from colliding across rounds.
        let mut rng =
            StdRng::seed_from_u64(derive_stream(self.config.seed, round, NodeId::SERVER.0 as u64));

        // --- Training phase ------------------------------------------------
        let contributors: Vec<usize> = if round <= self.config.bootstrap_rounds
            && !self.config.bootstrap_trusted.is_empty()
        {
            let pool = &self.config.bootstrap_trusted;
            let k = n.min(pool.len());
            sampling::select_clients(&mut rng, pool.len(), k).into_iter().map(|i| pool[i]).collect()
        } else {
            sampling::select_clients(&mut rng, self.config.fl.num_clients(), n)
        };
        let global_bytes = self.config.wire.model.encode(&self.global.params());
        for &c in &contributors {
            self.endpoint.send(
                NodeId(c as u32),
                Message::TrainRequest { round, global: global_bytes.clone() },
            );
        }
        let phase_start = Instant::now();
        let (updates, update_tally) = self.collect_updates(round, &contributors);
        let mut out = ServerRound {
            round,
            updates_received: updates.len(),
            rejected_submissions: update_tally.rejected,
            abstentions: update_tally.abstentions,
            corrupted_payloads: update_tally.corrupted,
            duplicate_deliveries: update_tally.duplicates,
            transport_lost: update_tally.lost,
            update_phase: phase_start.elapsed(),
            ..ServerRound::default()
        };

        // A round with no surviving updates is skipped entirely — and,
        // thanks to the phase ledger, without waiting out the timeout
        // when every contributor was rejected or abstained.
        if updates.is_empty() {
            return out;
        }

        // --- Aggregation ---------------------------------------------------
        // Sort by client id so float summation order is deterministic.
        let mut sorted: Vec<(NodeId, Vec<f32>)> = updates.into_iter().collect();
        sorted.sort_by_key(|(id, _)| *id);
        let update_vecs: Vec<Vec<f32>> = sorted.into_iter().map(|(_, u)| u).collect();
        let candidate_params = fedavg(
            &self.global.params(),
            &update_vecs,
            self.config.fl.global_lr(),
            self.config.fl.num_clients(),
        );

        // --- Validation phase (Algorithm 1) --------------------------------
        let validators = sampling::select_clients(
            &mut rng,
            self.config.fl.num_clients(),
            self.config.validators_per_round,
        );
        let candidate_bytes = self.config.wire.model.encode(&candidate_params);
        for &v in &validators {
            let (delta, resynced) = self.validator_delta(v);
            out.evicted_resyncs += usize::from(resynced);
            out.history_bytes_shipped += delta.iter().map(|e| e.params.len()).sum::<usize>();
            // Shipped, not yet committed: the sync point only advances
            // when this validator answers for this round (vote or
            // abstention). If the request vanishes in flight, the same
            // delta goes out again at the next selection.
            self.sync.mark_shipped(v);
            self.endpoint.send(
                NodeId(v as u32),
                Message::ValidateRequest {
                    round,
                    candidate: candidate_bytes.clone(),
                    history_delta: delta,
                },
            );
        }
        // The server's own verdict needs only the candidate, the trusted
        // history and its holdout, so it is computed while the validators
        // work rather than after the last of them has answered.
        let own = self.config.server_votes.then(|| {
            let mut candidate = self.global.clone();
            candidate.set_params(&candidate_params);
            self.engine.vote(
                &candidate,
                self.history.ids(),
                self.history.models(),
                &self.server_data,
            )
        });
        let phase_start = Instant::now();
        let (replies, vote_tally) = self.collect(round, &validators, Phase::Vote);
        out.vote_phase = phase_start.elapsed();
        let mut votes: Vec<Vote> = Vec::new();
        for (from, reply) in replies {
            let v = from.0 as usize;
            match reply {
                Reply::Vote(vote) => votes.push(vote),
                // The validator declared its cached window unusable
                // (crash/restart or a corruption-induced gap): forget its
                // sync state so the next selection re-ships everything.
                Reply::Abstain(AbstainReason::HistoryTooShort) => {
                    self.sync.reset(v);
                    continue;
                }
                Reply::Abstain(_) | Reply::Update(_) => {}
            }
            // Any other answer proves the ValidateRequest — and therefore
            // the history delta — arrived intact. Silent validators stay
            // unacknowledged: the shipment is treated as lost and re-sent
            // at their next selection.
            self.sync.ack(v);
        }
        out.votes_received = votes.len();
        out.rejected_votes = vote_tally.rejected;
        out.abstentions += vote_tally.abstentions;
        out.duplicate_deliveries += vote_tally.duplicates;
        out.transport_lost |= vote_tally.lost;

        votes.extend(own);
        let voters = validators.len() + usize::from(self.config.server_votes);
        let Tally { decision, reject_votes, quorum_clamped } =
            tally(&votes, voters, self.config.quorum);
        out.accepted = decision.is_accepted();
        out.reject_votes = reject_votes;
        out.quorum_clamped = quorum_clamped;

        // --- Integration ----------------------------------------------------
        if out.accepted {
            self.integrate(&candidate_params);
        }
        for &c in contributors.iter().chain(&validators) {
            self.endpoint
                .send(NodeId(c as u32), Message::RoundResult { round, accepted: out.accepted });
        }
        out
    }

    /// Builds validator `v`'s outgoing history delta. A committed sync
    /// point that predates the retained window means the validator has
    /// been absent so long that models it never saw were already
    /// evicted; `HistorySync::models_to_send` clamps to the window
    /// start, so such a validator is shipped the full contiguous window
    /// in one go — never a gapped delta. The eviction is detected here
    /// purely for observability ([`ServerRound::evicted_resyncs`]): a
    /// chaos run can assert that long absences cost one full-window
    /// re-ship and zero `HistoryTooShort` round-trips. The stale sync
    /// point needs no repair — the next ack overwrites it.
    ///
    /// Under a top-k profile each shipped entry is the sparse delta
    /// against its predecessor whenever that predecessor is available to
    /// the receiving validator: either confirmed held (the committed
    /// sync point sits exactly at the start of the outgoing range) or
    /// earlier in this same shipment. Anything else — a fresh validator,
    /// a reset one, a range clamped by eviction — starts the chain with
    /// a dense entry, so every shipment is applicable exactly as sent.
    fn validator_delta(&self, v: usize) -> (Vec<HistoryEntry>, bool) {
        let window = self.sync.window_ids();
        let evicted = self.sync.sync_point(v).is_some_and(|p| p < window.start);
        let wanted = self.sync.models_to_send(v);
        let mut on_chain = wanted.start > 0 && self.sync.sync_point(v) == Some(wanted.start);
        let delta: Vec<HistoryEntry> = wanted
            .clone()
            .filter_map(|id| self.window.iter().find(|e| e.id == id))
            .map(|e| {
                let params = if on_chain {
                    e.delta.clone().unwrap_or_else(|| e.full.clone())
                } else {
                    e.full.clone()
                };
                on_chain = true;
                HistoryEntry { id: e.id, params }
            })
            .collect();
        debug_assert_eq!(
            delta.len(),
            wanted.count(),
            "retained history must cover the whole outgoing delta"
        );
        (delta, evicted)
    }

    /// Tells every client to exit. Notices to crashed, never-restarted
    /// nodes have no route left; the transport books those under
    /// [`crate::transport::Network::messages_unroutable`], not as drops.
    pub fn shutdown(&self) {
        for c in 0..self.config.fl.num_clients() {
            self.endpoint.send(NodeId(c as u32), Message::Shutdown);
        }
    }

    /// Collects one phase's replies for `round` until every node in
    /// `expected` — the phase's sampled set — is **accounted for** in the
    /// phase ledger (answered, rejected at intake, or explicitly
    /// abstained) or the phase timeout expires. Returns the surviving
    /// replies in arrival order plus the phase tally. Both phases apply
    /// the same intake rules, in this order — the protocol's
    /// random-sampling defense is void without them:
    ///
    /// - the message is the phase's kind ([`Message::UpdateSubmission`]
    ///   or [`Message::VoteSubmission`]) or an [`Message::Abstain`] whose
    ///   reason belongs to the phase; anything else is ignored;
    /// - it is for this `round` — stale-round stragglers are dropped
    ///   silently (losing a race is not an intake violation);
    /// - the claimed `from` matches the transport envelope's sender (no
    ///   impersonating a sampled node) and is in the sampled set (an
    ///   unsolicited update must not reach FedAvg, an unsolicited vote
    ///   must not stuff the quorum). A violation is counted as rejected
    ///   and settles the **envelope** sender's slot, if it has one: a
    ///   misbehaving sampled node has been heard from, so the phase no
    ///   longer waits on it, while traffic from outside the sampled set
    ///   never touches the ledger — rogues cannot drain the phase;
    /// - the sender has not already settled its slot — the **first**
    ///   delivery wins; a repeat (a duplicated message, a vote after an
    ///   abstention) is counted as a duplicate delivery, not a rejection,
    ///   since a duplicating link is indistinguishable from a duplicating
    ///   sender.
    ///
    /// An explicit abstention settles the slot without a payload: in the
    /// vote phase it is the footnote-1 implicit accept, and the phase
    /// stops waiting for that validator.
    fn collect(
        &self,
        round: u64,
        expected: &[usize],
        phase: Phase,
    ) -> (Vec<(NodeId, Reply)>, PhaseTally) {
        let mut ledger = PhaseLedger::new(expected.iter().map(|&c| NodeId(c as u32)));
        let mut replies = Vec::new();
        let mut tally = PhaseTally::default();
        let deadline = Instant::now() + self.config.phase_timeout;
        while !ledger.all_accounted() {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                break;
            }
            let env = match self.endpoint.recv_timeout(remaining) {
                Ok(env) => env,
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => {
                    // Not a straggler problem: the transport itself is
                    // gone. Surface it instead of conflating it with a
                    // timeout.
                    tally.lost = true;
                    break;
                }
            };
            let (r, from, reply) = match env.message {
                Message::UpdateSubmission { round, from, update } if phase == Phase::Update => {
                    (round, from, Reply::Update(update))
                }
                Message::VoteSubmission { round, from, vote } if phase == Phase::Vote => {
                    (round, from, Reply::Vote(vote))
                }
                Message::Abstain { round, from, reason }
                    if reason.is_train_phase() == (phase == Phase::Update) =>
                {
                    (round, from, Reply::Abstain(reason))
                }
                _ => continue,
            };
            if r != round {
                continue;
            }
            if from != env.from || !ledger.contains(from) {
                tally.rejected += 1;
                ledger.mark_rejected(env.from);
                continue;
            }
            let abstained = matches!(reply, Reply::Abstain(_));
            let first =
                if abstained { ledger.mark_abstained(from) } else { ledger.mark_answered(from) };
            if !first {
                tally.duplicates += 1;
                continue;
            }
            tally.abstentions += usize::from(abstained);
            replies.push((from, reply));
        }
        (replies, tally)
    }

    /// The update phase: [`Server::collect`], then the payloads. An
    /// update survives only if it decodes to exactly `param_len` floats
    /// (a truncated update would panic the aggregation — a remote DoS).
    /// A payload whose wire **checksum** fails is booked as link
    /// corruption, not sender misbehaviour — the honest sender encoded
    /// it correctly.
    ///
    /// Payload decoding is deferred out of the receive loop: the loop
    /// only settles ledger slots and keeps the raw bytes in arrival
    /// order, then the decodes fan out across the worker pool and the
    /// verdicts are folded back serially in that same arrival order, so
    /// the tally is identical to an inline decode. (The ledger is
    /// phase-local, so whether a bad decode books its slot answered or
    /// rejected is unobservable.)
    fn collect_updates(
        &self,
        round: u64,
        contributors: &[usize],
    ) -> (HashMap<NodeId, Vec<f32>>, PhaseTally) {
        let (replies, mut tally) = self.collect(round, contributors, Phase::Update);
        let submissions: Vec<(NodeId, Bytes)> = replies
            .into_iter()
            .filter_map(|(from, reply)| match reply {
                Reply::Update(update) => Some((from, update)),
                _ => None,
            })
            .collect();
        let decoded = pool::parallel_map(submissions, |_, (from, update)| {
            let result = wire::decode_any(&update);
            (from, result)
        });
        let mut updates = HashMap::new();
        for (from, result) in decoded {
            match result {
                Ok(u) if u.len() == self.param_len => {
                    updates.insert(from, u);
                }
                Err(e) if e.is_corruption() => {
                    // The link damaged an honest payload: the sender is
                    // not blamed (it encoded correctly and will not
                    // resend).
                    tally.corrupted += 1;
                }
                _ => {
                    tally.rejected += 1;
                }
            }
        }
        (updates, tally)
    }
}

/// The two collection phases of a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Contributors answer a `TrainRequest`.
    Update,
    /// Validators answer a `ValidateRequest`.
    Vote,
}

/// What a sampled node answered in a collection phase.
#[derive(Debug)]
enum Reply {
    /// A raw update payload, not yet decoded.
    Update(Bytes),
    /// A validator's verdict.
    Vote(Vote),
    /// The node cannot act on the request.
    Abstain(AbstainReason),
}

/// What one collection phase observed besides its replies.
#[derive(Debug, Default)]
struct PhaseTally {
    /// Submissions discarded at intake because the sender misbehaved.
    rejected: usize,
    /// Explicit abstentions counted.
    abstentions: usize,
    /// Payloads damaged in flight (wire checksum mismatch).
    corrupted: usize,
    /// Repeat deliveries to already-settled ledger slots.
    duplicates: usize,
    /// Whether the phase ended because the receive channel disconnected.
    lost: bool,
}
