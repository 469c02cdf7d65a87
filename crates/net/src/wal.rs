//! Write-ahead log, crash recovery and hot-standby failover.
//!
//! [`crate::server::Server::checkpoint`] snapshots the whole trusted
//! state, but a snapshot-per-round durability story costs a full
//! serialization of the history window every round and still loses the
//! round in flight when the process dies between snapshots. This module
//! adds the production shape: a [`DurableServer`] journals every round
//! outcome to an append-only [`WalRecord`] log as it is decided, and
//! compacts the log into an atomically-replaced checkpoint every
//! `compact_every` outcomes. Recovery is `load latest checkpoint →
//! replay WAL tail` and reconstructs the pre-crash state bit-for-bit
//! (the replay-determinism test in `crates/net/tests/durability.rs`
//! pins the next checkpoint byte-identical to an uninterrupted run's).
//!
//! # Record format
//!
//! Records reuse the [`crate::frame`] framing discipline — magic,
//! version, length prefix, FNV-1a body checksum, little-endian integers:
//!
//! ```text
//! offset  size  field
//!      0     4  magic      0xBAFF_10D6 (LE)
//!      4     4  version    1
//!      8     4  body length in bytes
//!     12     4  FNV-1a checksum of the body
//!     16     —  body: kind u8 | round u64 | rng stream u64 | fields
//! ```
//!
//! Three kinds exist. `RoundStart` is appended before the round runs;
//! `RoundAccepted` / `RoundRejected` after it is decided, carrying the
//! wire-coded new global model (accepted rounds only) and the round's
//! **changes** to the committed history-sync map (commits and resets).
//! Every record also carries the round's derived selection-RNG stream
//! id — a pure function of `(seed, round, server id)` — so replay can
//! refuse a log journaled under a different seed instead of silently
//! diverging.
//!
//! # Torn rounds
//!
//! A crash between the `RoundStart` append and the outcome append
//! leaves the log **torn**: round `N` started but never decided.
//! Recovery detects this (a trailing `RoundStart` above the last
//! outcome) and restores to the state *entering* round `N`; the next
//! [`Server::run_round`] then re-runs round `N` from scratch. The
//! re-ask is duplicate-safe by construction: selection is re-derived
//! identically, each phase's [`crate::phase::PhaseLedger`] is fresh,
//! and first-submission-wins intake counts any straggling first-ask
//! deliveries as duplicates, never as rejections.
//!
//! # Hot standby
//!
//! A [`Standby`] is a warm replica: it restores from the primary's
//! checkpoint and then tails the log — by polling the file
//! ([`Standby::catch_up`]) or by ingesting a record stream such as a
//! socket ([`Standby::ingest_stream`]) — keeping a live
//! [`baffle_core::ModelHistory`] ready. On primary failure the driver
//! tears down the dead `SERVER` route, quiesces the scheduler
//! ([`crate::scheduler::SchedulerHandle::rendezvous`]), registers a
//! fresh endpoint and calls [`Standby::promote`]; the standby becomes
//! *the* server and re-runs the torn round, if any. Compaction shows up
//! to the tailer as the log shrinking; it then reloads the checkpoint
//! and resumes from offset zero.

use crate::frame::{read_body_chunked, read_header, Cursor, MAX_BODY};
use crate::message::NodeId;
use crate::server::{Server, ServerConfig, ServerRound};
use crate::transport::{Endpoint, Network};
use baffle_core::Validator;
use baffle_data::Dataset;
use baffle_fl::history_sync::ModelId;
use baffle_nn::{wire, Mlp, Model};
use baffle_tensor::rng::derive_stream;
use bytes::{BufMut, Bytes, BytesMut};
use std::collections::HashMap;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// WAL record magic; doubles as a log-desync detector.
pub const WAL_MAGIC: u32 = 0xBAFF_10D6;
/// Current WAL record format version.
pub const WAL_VERSION: u32 = 1;
/// Fixed record header size: magic + version + body length + checksum.
pub const WAL_HEADER: usize = 16;
/// The log file name inside a durability directory.
pub const WAL_FILE: &str = "wal.log";
/// The compacted checkpoint file name inside a durability directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.bin";
/// Checkpoint replacement staging name — written fully, synced, then
/// renamed over [`CHECKPOINT_FILE`] so a crash mid-write never leaves a
/// half checkpoint behind.
const CHECKPOINT_TMP: &str = "checkpoint.tmp";

/// An outcome record's change to the committed history-sync map, as
/// journaled: `(client, sync point)` commits and reset clients.
type SyncDiff = (Vec<(u64, ModelId)>, Vec<u64>);

const KIND_START: u8 = 0;
const KIND_ACCEPTED: u8 = 1;
const KIND_REJECTED: u8 = 2;

/// One journaled event in the write-ahead log.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Round `round` is about to run. Appended before any protocol
    /// message goes out, so a crash mid-round is detectable as a start
    /// with no matching outcome.
    RoundStart {
        /// The 1-based round number.
        round: u64,
        /// The round's derived selection-RNG stream id.
        rng_stream: u64,
    },
    /// Round `round` integrated its candidate.
    RoundAccepted {
        /// The 1-based round number.
        round: u64,
        /// The round's derived selection-RNG stream id.
        rng_stream: u64,
        /// The new global model, lossless wire-coded (`f32`) — the same
        /// encoding the trusted checkpoint window uses.
        model: Bytes,
        /// History-sync points committed this round (absolute values).
        sync_commits: Vec<(u64, ModelId)>,
        /// Clients whose sync state this round reset (gapped windows).
        sync_resets: Vec<u64>,
    },
    /// Round `round` rejected (or skipped) its candidate. The global
    /// model did not change, but sync points may still have moved.
    RoundRejected {
        /// The 1-based round number.
        round: u64,
        /// The round's derived selection-RNG stream id.
        rng_stream: u64,
        /// History-sync points committed this round (absolute values).
        sync_commits: Vec<(u64, ModelId)>,
        /// Clients whose sync state this round reset.
        sync_resets: Vec<u64>,
    },
}

impl WalRecord {
    /// The round this record belongs to.
    pub fn round(&self) -> u64 {
        match self {
            WalRecord::RoundStart { round, .. }
            | WalRecord::RoundAccepted { round, .. }
            | WalRecord::RoundRejected { round, .. } => *round,
        }
    }

    /// The derived selection-RNG stream id journaled with the record.
    pub fn rng_stream(&self) -> u64 {
        match self {
            WalRecord::RoundStart { rng_stream, .. }
            | WalRecord::RoundAccepted { rng_stream, .. }
            | WalRecord::RoundRejected { rng_stream, .. } => *rng_stream,
        }
    }
}

/// A damaged, truncated or inconsistent log / checkpoint, or the I/O
/// failing underneath it.
#[derive(Debug)]
pub enum WalError {
    /// The underlying file or stream operation failed.
    Io(std::io::Error),
    /// A record failed structural or checksum validation, or the log's
    /// contents are inconsistent (gapped rounds, wrong seed).
    Corrupt(String),
    /// The checkpoint blob was rejected by [`Server::restore`].
    State(crate::server::CheckpointError),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::Corrupt(what) => write!(f, "corrupt wal: {what}"),
            WalError::State(e) => write!(f, "wal recovery: {e}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// Encodes one record as a self-delimiting checksummed frame.
pub fn encode_record(record: &WalRecord) -> Bytes {
    let mut body = BytesMut::new();
    let put_sync_diff = |body: &mut BytesMut, commits: &[(u64, ModelId)], resets: &[u64]| {
        body.put_u32_le(commits.len() as u32);
        for &(client, id) in commits {
            body.put_u64_le(client);
            body.put_u64_le(id);
        }
        body.put_u32_le(resets.len() as u32);
        for &client in resets {
            body.put_u64_le(client);
        }
    };
    match record {
        WalRecord::RoundStart { round, rng_stream } => {
            body.put_u8(KIND_START);
            body.put_u64_le(*round);
            body.put_u64_le(*rng_stream);
        }
        WalRecord::RoundAccepted { round, rng_stream, model, sync_commits, sync_resets } => {
            body.put_u8(KIND_ACCEPTED);
            body.put_u64_le(*round);
            body.put_u64_le(*rng_stream);
            body.put_u32_le(model.len() as u32);
            body.extend_from_slice(model);
            put_sync_diff(&mut body, sync_commits, sync_resets);
        }
        WalRecord::RoundRejected { round, rng_stream, sync_commits, sync_resets } => {
            body.put_u8(KIND_REJECTED);
            body.put_u64_le(*round);
            body.put_u64_le(*rng_stream);
            put_sync_diff(&mut body, sync_commits, sync_resets);
        }
    }
    let mut buf = BytesMut::with_capacity(WAL_HEADER + body.len());
    buf.put_u32_le(WAL_MAGIC);
    buf.put_u32_le(WAL_VERSION);
    buf.put_u32_le(body.len() as u32);
    buf.put_u32_le(wire::fnv1a(&body));
    buf.extend_from_slice(&body);
    buf.freeze()
}

/// The sync-point diff both outcome records end with.
fn sync_diff(c: &mut Cursor<'_, WalError>) -> Result<SyncDiff, WalError> {
    let n_commits = c.u32("commit count")? as usize;
    let mut commits = Vec::with_capacity(n_commits.min(1 << 16));
    for _ in 0..n_commits {
        let client = c.u64("commit client")?;
        let id = c.u64("commit point")?;
        commits.push((client, id));
    }
    let n_resets = c.u32("reset count")? as usize;
    let mut resets = Vec::with_capacity(n_resets.min(1 << 16));
    for _ in 0..n_resets {
        resets.push(c.u64("reset client")?);
    }
    Ok((commits, resets))
}

/// Decodes the first record in `buf`, if a complete one is present.
/// Returns the record plus the bytes it consumed, or `Ok(None)` when
/// `buf` ends inside the record (a partially appended tail — wait for
/// more bytes).
///
/// # Errors
///
/// [`WalError::Corrupt`] for structural damage: bad magic or version,
/// oversized length, checksum mismatch, unknown kind, or body bytes
/// left over after the fields.
pub fn decode_record(buf: &[u8]) -> Result<Option<(WalRecord, usize)>, WalError> {
    if buf.len() < WAL_HEADER {
        return Ok(None);
    }
    let word = |at: usize| u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes"));
    if word(0) != WAL_MAGIC {
        return Err(WalError::Corrupt("bad record magic".into()));
    }
    if word(4) != WAL_VERSION {
        return Err(WalError::Corrupt(format!("unsupported record version {}", word(4))));
    }
    let body_len = word(8) as usize;
    if body_len > MAX_BODY {
        return Err(WalError::Corrupt("record body too large".into()));
    }
    if buf.len() < WAL_HEADER + body_len {
        return Ok(None);
    }
    let body = &buf[WAL_HEADER..WAL_HEADER + body_len];
    if wire::fnv1a(body) != word(12) {
        return Err(WalError::Corrupt("record checksum mismatch".into()));
    }
    let mut c = Cursor::new(body, |what| {
        WalError::Corrupt(format!("record body truncated reading {what}"))
    });
    let kind = c.u8("kind")?;
    let round = c.u64("round")?;
    let rng_stream = c.u64("rng stream")?;
    let record = match kind {
        KIND_START => WalRecord::RoundStart { round, rng_stream },
        KIND_ACCEPTED => {
            let model_len = c.u32("model length")? as usize;
            let model = Bytes::copy_from_slice(c.take(model_len, "model payload")?);
            let (sync_commits, sync_resets) = sync_diff(&mut c)?;
            WalRecord::RoundAccepted { round, rng_stream, model, sync_commits, sync_resets }
        }
        KIND_REJECTED => {
            let (sync_commits, sync_resets) = sync_diff(&mut c)?;
            WalRecord::RoundRejected { round, rng_stream, sync_commits, sync_resets }
        }
        other => return Err(WalError::Corrupt(format!("unknown record kind {other}"))),
    };
    if !c.is_empty() {
        return Err(WalError::Corrupt("trailing bytes inside record body".into()));
    }
    Ok(Some((record, WAL_HEADER + body_len)))
}

/// Cuts records off a byte stream — the standby's ingestion side when
/// the log is shipped over the socket transport instead of a shared
/// file. Same shape as [`crate::frame::FrameReader`].
pub struct RecordReader<R> {
    inner: R,
}

impl<R: Read> RecordReader<R> {
    /// Wraps a byte stream.
    pub fn new(inner: R) -> Self {
        Self { inner }
    }

    /// Reads the next record. Returns `Ok(None)` on a clean end of
    /// stream (EOF exactly on a record boundary).
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] for I/O failures (EOF mid-record surfaces as
    /// [`std::io::ErrorKind::UnexpectedEof`]), [`WalError::Corrupt`]
    /// for an undecodable record.
    pub fn read_record(&mut self) -> Result<Option<WalRecord>, WalError> {
        let header = match read_header::<_, WAL_HEADER>(&mut self.inner)? {
            Some(h) => h,
            None => return Ok(None),
        };
        let magic = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
        if magic != WAL_MAGIC {
            return Err(WalError::Corrupt("bad record magic".into()));
        }
        let body_len = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes")) as usize;
        if body_len > MAX_BODY {
            return Err(WalError::Corrupt("record body too large".into()));
        }
        let mut rec = Vec::with_capacity(WAL_HEADER + body_len.min(1 << 16));
        rec.extend_from_slice(&header);
        read_body_chunked(&mut self.inner, &mut rec, body_len)?;
        match decode_record(&rec)? {
            Some((record, consumed)) => {
                debug_assert_eq!(consumed, rec.len(), "exactly one record was read");
                Ok(Some(record))
            }
            None => Err(WalError::Corrupt("record shorter than its header claims".into())),
        }
    }
}

/// Appends records to the log file, flushing and syncing each one — an
/// outcome record that [`WalWriter::append`] returned `Ok` for survives
/// a process crash.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
}

impl WalWriter {
    /// Creates (or truncates) the log at `path`.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        Ok(Self { file: File::create(path)? })
    }

    /// Appends one record and syncs it to disk.
    pub fn append(&mut self, record: &WalRecord) -> std::io::Result<()> {
        self.file.write_all(&encode_record(record))?;
        self.file.sync_data()
    }
}

/// What one [`WalTailer::poll`] observed.
#[derive(Debug)]
pub struct TailPoll {
    /// Complete records appended since the previous poll, in order.
    pub records: Vec<WalRecord>,
    /// The log shrank below the tailer's offset — the primary compacted
    /// it. The caller must reload the checkpoint, then poll again (the
    /// offset has been rewound to zero).
    pub truncated: bool,
}

/// Follows a growing log file, returning only complete records. A
/// partial record at the tail — an append torn mid-write — is left
/// unconsumed and re-read once the rest arrives.
#[derive(Debug)]
pub struct WalTailer {
    path: PathBuf,
    offset: u64,
}

impl WalTailer {
    /// Tails the log at `path` from its beginning.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self { path: path.into(), offset: 0 }
    }

    /// Reads everything appended since the last poll. A missing file
    /// reads as empty (the writer may not have created it yet).
    ///
    /// # Errors
    ///
    /// [`WalError::Corrupt`] if the log's contents fail validation,
    /// [`WalError::Io`] if reading fails.
    pub fn poll(&mut self) -> Result<TailPoll, WalError> {
        let mut file = match File::open(&self.path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(TailPoll { records: Vec::new(), truncated: false })
            }
            Err(e) => return Err(e.into()),
        };
        let len = file.metadata().map_err(WalError::Io)?.len();
        if len < self.offset {
            self.offset = 0;
            return Ok(TailPoll { records: Vec::new(), truncated: true });
        }
        file.seek(SeekFrom::Start(self.offset))?;
        let mut buf = Vec::with_capacity((len - self.offset) as usize);
        file.read_to_end(&mut buf)?;
        let mut records = Vec::new();
        let mut consumed = 0usize;
        while let Some((record, n)) = decode_record(&buf[consumed..])? {
            records.push(record);
            consumed += n;
        }
        self.offset += consumed as u64;
        Ok(TailPoll { records, truncated: false })
    }
}

/// Writes `blob` as the directory's checkpoint, atomically: the bytes
/// go to a staging file first, are synced, and only then renamed over
/// the live checkpoint. A crash at any point leaves either the old or
/// the new checkpoint intact, never a torn one.
fn write_checkpoint_atomic(dir: &Path, blob: &[u8]) -> std::io::Result<()> {
    let tmp = dir.join(CHECKPOINT_TMP);
    let mut file = File::create(&tmp)?;
    file.write_all(blob)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, dir.join(CHECKPOINT_FILE))
}

/// Everything [`Server::restore`] needs besides the blob — kept by
/// recovery paths and standbys so they can rebuild a server from any
/// checkpoint the primary writes.
#[derive(Clone)]
pub struct RestoreKit {
    /// The server's protocol configuration.
    pub config: ServerConfig,
    /// Architecture template (any model of the right shape).
    pub template: Mlp,
    /// History window `ℓ + 1`.
    pub history_window: usize,
    /// The validation function.
    pub validator: Validator,
    /// Server-side validation data.
    pub server_data: Dataset,
}

impl std::fmt::Debug for RestoreKit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RestoreKit")
            .field("history_window", &self.history_window)
            .finish_non_exhaustive()
    }
}

/// What a recovery (or standby promotion) reconstructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// The round the loaded checkpoint was cut at.
    pub checkpoint_round: u64,
    /// Outcome records replayed from the log tail on top of it.
    pub replayed: usize,
    /// A round that started but never reached its outcome record — the
    /// recovered server will re-run it as a duplicate-safe re-ask.
    pub torn_round: Option<u64>,
}

/// Loads the directory's checkpoint into a server parked on a private
/// network (nothing routes to it; promotion swaps in the real
/// endpoint). Returns the server and the round it was cut at.
fn load_checkpoint(dir: &Path, kit: &RestoreKit) -> Result<(Server, u64), WalError> {
    let blob = std::fs::read(dir.join(CHECKPOINT_FILE))?;
    let endpoint = Network::new().register(NodeId::SERVER);
    let server = Server::restore(
        endpoint,
        kit.config.clone(),
        kit.template.clone(),
        kit.history_window,
        kit.validator,
        kit.server_data.clone(),
        &blob,
    )
    .map_err(WalError::State)?;
    let round = server.round();
    Ok((server, round))
}

/// A server wrapped in the durability protocol: every round is
/// journaled (`RoundStart` before, the outcome after), and the log is
/// compacted into a fresh atomic checkpoint every `compact_every`
/// outcomes.
#[derive(Debug)]
pub struct DurableServer {
    server: Server,
    wal: WalWriter,
    dir: PathBuf,
    compact_every: u64,
    outcomes_since_compact: u64,
    /// The committed sync map as of the last journaled outcome — the
    /// baseline each outcome record's commit/reset diff is taken from.
    committed_snapshot: Vec<(usize, ModelId)>,
}

impl DurableServer {
    /// Starts journaling `server` into `dir`: writes an initial
    /// checkpoint (so recovery always has one to load) and a fresh,
    /// empty log. `compact_every` of zero disables compaction — the
    /// whole run stays in the tail.
    ///
    /// Also the promotion path: a just-promoted standby wraps itself
    /// here, which naturally compacts (its state becomes the
    /// checkpoint, the old primary's log is superseded).
    pub fn create(dir: &Path, compact_every: u64, server: Server) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        write_checkpoint_atomic(dir, &server.checkpoint())?;
        let wal = WalWriter::create(&dir.join(WAL_FILE))?;
        let committed_snapshot = server.sync_committed();
        Ok(Self {
            server,
            wal,
            dir: dir.to_path_buf(),
            compact_every,
            outcomes_since_compact: 0,
            committed_snapshot,
        })
    }

    /// The wrapped server.
    pub fn server(&self) -> &Server {
        &self.server
    }

    /// Unwraps the server (for shutdown and final reporting).
    pub fn into_inner(self) -> Server {
        self.server
    }

    /// The directory holding the checkpoint and log.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn journal_start(&mut self) -> std::io::Result<(u64, u64)> {
        let round = self.server.round() + 1;
        let rng_stream = derive_stream(self.server.config().seed, round, NodeId::SERVER.0 as u64);
        self.wal.append(&WalRecord::RoundStart { round, rng_stream })?;
        Ok((round, rng_stream))
    }

    fn journal_outcome(
        &mut self,
        round: u64,
        rng_stream: u64,
        outcome: &ServerRound,
    ) -> std::io::Result<()> {
        debug_assert_eq!(outcome.round, round, "journaled outcome must match the started round");
        let now = self.server.sync_committed();
        let old: HashMap<usize, ModelId> = self.committed_snapshot.iter().copied().collect();
        let now_clients: HashMap<usize, ModelId> = now.iter().copied().collect();
        let sync_commits: Vec<(u64, ModelId)> = now
            .iter()
            .filter(|&&(client, id)| old.get(&client) != Some(&id))
            .map(|&(client, id)| (client as u64, id))
            .collect();
        let sync_resets: Vec<u64> = self
            .committed_snapshot
            .iter()
            .filter(|&&(client, _)| !now_clients.contains_key(&client))
            .map(|&(client, _)| client as u64)
            .collect();
        let record = if outcome.accepted {
            WalRecord::RoundAccepted {
                round,
                rng_stream,
                model: wire::encode_f32(&self.server.global_model().params()),
                sync_commits,
                sync_resets,
            }
        } else {
            WalRecord::RoundRejected { round, rng_stream, sync_commits, sync_resets }
        };
        self.wal.append(&record)?;
        self.committed_snapshot = now;
        Ok(())
    }

    /// Runs one protocol round under the durability protocol: journals
    /// the start, runs the round, journals the outcome, and compacts
    /// when due.
    ///
    /// # Errors
    ///
    /// Journal or compaction I/O failures. The round itself has already
    /// run when an outcome append fails; the caller should treat the
    /// instance as crashed (recovery will re-run the round as torn).
    pub fn run_round(&mut self) -> std::io::Result<ServerRound> {
        let (round, rng_stream) = self.journal_start()?;
        let outcome = self.server.run_round();
        self.journal_outcome(round, rng_stream, &outcome)?;
        if self.compact_every > 0 {
            self.outcomes_since_compact += 1;
            if self.outcomes_since_compact >= self.compact_every {
                self.compact()?;
            }
        }
        Ok(outcome)
    }

    /// Crash-scripting hook: journals the `RoundStart`, runs the round —
    /// **and never journals the outcome**, leaving the log torn exactly
    /// as a process death between the decision and the outcome append
    /// would. The instance must be discarded afterwards (its journal
    /// baseline is now stale); tests drop it to simulate the crash.
    pub fn run_round_torn(&mut self) -> std::io::Result<ServerRound> {
        self.journal_start()?;
        Ok(self.server.run_round())
    }

    /// Compacts now: atomically replaces the checkpoint with the
    /// current state and truncates the log. Tailing standbys observe
    /// the truncation and reload the checkpoint.
    pub fn compact(&mut self) -> std::io::Result<()> {
        write_checkpoint_atomic(&self.dir, &self.server.checkpoint())?;
        self.wal = WalWriter::create(&self.dir.join(WAL_FILE))?;
        self.outcomes_since_compact = 0;
        Ok(())
    }
}

/// A warm replica tailing a primary's durability directory, holding a
/// fully materialised server (decoded history window included) so
/// takeover costs a route swap, not a restore.
#[derive(Debug)]
pub struct Standby {
    kit: RestoreKit,
    dir: PathBuf,
    server: Server,
    tailer: WalTailer,
    checkpoint_round: u64,
    replayed: usize,
    /// Highest `RoundStart` seen; above the last applied outcome it
    /// marks a torn round.
    last_start: u64,
}

impl Standby {
    /// Restores from the directory's checkpoint and starts tailing its
    /// log. The replica's server sits on a private network until
    /// [`Standby::promote`] hands it the real endpoint.
    pub fn attach(dir: &Path, kit: RestoreKit) -> Result<Self, WalError> {
        let (server, checkpoint_round) = load_checkpoint(dir, &kit)?;
        Ok(Self {
            kit,
            dir: dir.to_path_buf(),
            server,
            tailer: WalTailer::new(dir.join(WAL_FILE)),
            checkpoint_round,
            replayed: 0,
            last_start: 0,
        })
    }

    /// The warm replica's server state (read-only until promotion).
    pub fn server(&self) -> &Server {
        &self.server
    }

    /// Rounds the replica has caught up to.
    pub fn round(&self) -> u64 {
        self.server.round()
    }

    /// A round the log shows started but never decided, if any.
    pub fn torn_round(&self) -> Option<u64> {
        (self.last_start > self.server.round()).then_some(self.last_start)
    }

    /// The current recovery bookkeeping.
    pub fn info(&self) -> RecoveryInfo {
        RecoveryInfo {
            checkpoint_round: self.checkpoint_round,
            replayed: self.replayed,
            torn_round: self.torn_round(),
        }
    }

    /// Polls the log file and applies everything new; on a compaction
    /// (the log shrank) reloads the checkpoint first. Returns how many
    /// records were applied.
    ///
    /// # Errors
    ///
    /// Log damage or inconsistency ([`WalError::Corrupt`]), checkpoint
    /// rejection ([`WalError::State`]), or I/O failure.
    pub fn catch_up(&mut self) -> Result<usize, WalError> {
        loop {
            let poll = self.tailer.poll()?;
            if poll.truncated {
                let (server, checkpoint_round) = load_checkpoint(&self.dir, &self.kit)?;
                self.server = server;
                self.checkpoint_round = checkpoint_round;
                self.replayed = 0;
                self.last_start = 0;
                continue;
            }
            for record in &poll.records {
                self.ingest_record(record)?;
            }
            return Ok(poll.records.len());
        }
    }

    /// Applies one log record to the replica, wherever it came from —
    /// the file tailer or a socket stream.
    ///
    /// # Errors
    ///
    /// [`WalError::Corrupt`] when the record does not fit the replica's
    /// lineage: journaled under a different selection seed, a gapped
    /// round sequence, or an undecodable / wrong-architecture model.
    /// Outcomes at or below the replica's round are skipped silently —
    /// they are pre-checkpoint remnants (a crash between checkpoint
    /// rename and log truncation leaves them behind).
    pub fn ingest_record(&mut self, record: &WalRecord) -> Result<(), WalError> {
        let round = record.round();
        let expect = derive_stream(self.kit.config.seed, round, NodeId::SERVER.0 as u64);
        if record.rng_stream() != expect {
            return Err(WalError::Corrupt(format!(
                "round {round} journaled under a different selection seed \
                 (stream {:#018x}, expected {:#018x})",
                record.rng_stream(),
                expect
            )));
        }
        match record {
            WalRecord::RoundStart { .. } => {
                self.last_start = self.last_start.max(round);
                Ok(())
            }
            WalRecord::RoundAccepted { model, sync_commits, sync_resets, .. } => {
                self.apply_outcome(round, Some(model), sync_commits, sync_resets)
            }
            WalRecord::RoundRejected { sync_commits, sync_resets, .. } => {
                self.apply_outcome(round, None, sync_commits, sync_resets)
            }
        }
    }

    /// Reads records off `reader` until EOF, applying each — the
    /// socket-transport tailing path: the primary (or a relay) streams
    /// its log bytes over a connection and the standby ingests them
    /// with the same validation as the file path. Returns how many
    /// records were applied.
    ///
    /// # Errors
    ///
    /// Same as [`Standby::ingest_record`], plus stream I/O failures.
    pub fn ingest_stream<R: Read>(&mut self, reader: R) -> Result<usize, WalError> {
        let mut reader = RecordReader::new(reader);
        let mut applied = 0;
        while let Some(record) = reader.read_record()? {
            self.ingest_record(&record)?;
            applied += 1;
        }
        Ok(applied)
    }

    fn apply_outcome(
        &mut self,
        round: u64,
        model: Option<&Bytes>,
        commits: &[(u64, ModelId)],
        resets: &[u64],
    ) -> Result<(), WalError> {
        if round <= self.server.round() {
            return Ok(());
        }
        if round != self.server.round() + 1 {
            return Err(WalError::Corrupt(format!(
                "gapped log: outcome for round {round} follows round {}",
                self.server.round()
            )));
        }
        let params = match model {
            Some(bytes) => Some(
                wire::decode_f32(bytes)
                    .map_err(|e| WalError::Corrupt(format!("round {round} model payload: {e}")))?,
            ),
            None => None,
        };
        if let Some(p) = &params {
            if p.len() != self.kit.template.num_params() {
                return Err(WalError::Corrupt(format!(
                    "round {round} model has {} params, architecture has {}",
                    p.len(),
                    self.kit.template.num_params()
                )));
            }
        }
        let commits: Vec<(usize, ModelId)> =
            commits.iter().map(|&(client, id)| (client as usize, id)).collect();
        let resets: Vec<usize> = resets.iter().map(|&client| client as usize).collect();
        self.server.apply_replayed_outcome(round, params.as_deref(), &commits, &resets);
        self.replayed += 1;
        Ok(())
    }

    /// Takes over: the replica's server adopts `endpoint` (the freshly
    /// re-registered `SERVER` route) and becomes the live server. The
    /// returned info says whether a torn round must be re-run — the
    /// server's round counter already sits just below it, so the next
    /// [`Server::run_round`] re-runs it automatically.
    pub fn promote(mut self, endpoint: Endpoint) -> (Server, RecoveryInfo) {
        let info = self.info();
        self.server.set_endpoint(endpoint);
        (self.server, info)
    }
}

/// One-shot crash recovery: load the directory's checkpoint, replay the
/// log tail, and hand the recovered server the given endpoint. The
/// returned [`RecoveryInfo`] reports a torn round, if the log shows
/// one; the recovered server re-runs it on its next
/// [`Server::run_round`].
///
/// # Errors
///
/// Checkpoint rejection, log damage, or I/O failure — see [`WalError`].
pub fn recover(
    dir: &Path,
    endpoint: Endpoint,
    kit: RestoreKit,
) -> Result<(Server, RecoveryInfo), WalError> {
    let mut standby = Standby::attach(dir, kit)?;
    standby.catch_up()?;
    Ok(standby.promote(endpoint))
}
