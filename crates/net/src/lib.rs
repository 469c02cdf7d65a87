//! Message-passing deployment of the BaFFLe protocol.
//!
//! The [`baffle_core::Simulation`] driver executes the protocol as a
//! single-process loop — ideal for experiments, but it hides the
//! distributed-systems concerns a real deployment faces. This crate runs
//! **Algorithm 1 as an actual protocol** between actors:
//!
//! - a [`server::Server`] actor orchestrating rounds: broadcasting the
//!   wire-encoded global model, collecting updates **with timeouts**,
//!   aggregating, requesting validation, applying the quorum rule with
//!   the paper's footnote-1 semantics (non-responding validators count
//!   as implicit accepts), and shipping **incremental history** (§VI-D,
//!   via [`baffle_fl::history_sync::HistorySync`]);
//! - [`client::Client`] state machines that train on their local shard,
//!   maintain a local cache of the accepted-model history, run the
//!   VALIDATE function (Algorithm 2) and vote — or, if malicious,
//!   inject model-replacement updates and lie in votes. By default all
//!   clients are multiplexed on the event-driven [`scheduler`] (one
//!   thread + the shared worker pool, so 10k+ registered clients are
//!   cheap); a thread-per-client path is retained and bit-identical;
//! - a per-phase [`phase::PhaseLedger`] tracking every sampled responder
//!   as pending / answered / rejected / abstained, so a collection phase
//!   ends as soon as everyone is **accounted for** — a malformed update
//!   or an explicit [`message::Message::Abstain`] never burns the full
//!   phase timeout; only genuinely silent nodes do;
//! - an in-process [`transport`] layer driven by a seeded [`fault`] plan
//!   — per-link drops, delay/jitter, reordering, duplication, payload
//!   corruption, plus round-scoped partitions and crash/restart scripts
//!   — so dropout *and recovery* handling are exercised for real. The
//!   server checkpoints its trusted state ([`server::Server::checkpoint`])
//!   and history shipping is acknowledged
//!   ([`baffle_fl::history_sync::HistorySync`]), so a lost delta is
//!   re-sent instead of leaving a validator with a gapped window.
//!
//! Models and updates travel as [`bytes::Bytes`] in the
//! [`baffle_nn::wire`] format — nothing crosses an actor boundary except
//! serialized messages.
//!
//! Durability lives in [`wal`]: a [`wal::DurableServer`] journals every
//! round outcome to a checksummed write-ahead log and compacts it into
//! atomic checkpoints, a [`wal::Standby`] tails the log as a warm
//! replica, and [`wal::recover`] rebuilds a crashed server —
//! bit-identically — from `checkpoint + log tail`, re-running any round
//! the crash tore mid-flight.
//!
//! # Example
//!
//! ```
//! use baffle_net::deployment::{Deployment, DeploymentConfig};
//!
//! let config = DeploymentConfig::small(3);
//! let outcome = Deployment::run(config);
//! // What holds for every seed: all six rounds ran to completion over a
//! // healthy transport, each with its four sampled updates. Whether the
//! // one attacker is sampled after the bootstrap rounds — and so whether
//! // a round is rejected — depends on the seed; the tests that force the
//! // attacker into the contributor set assert the rejection.
//! assert_eq!(outcome.rounds.len(), 6);
//! assert!(outcome.rounds.iter().all(|r| !r.transport_lost && r.updates_received == 4));
//! assert!(outcome.final_main_accuracy.is_finite() && outcome.final_backdoor_accuracy.is_finite());
//! ```

pub mod client;
pub mod deployment;
pub mod fault;
pub mod frame;
pub mod message;
pub mod phase;
pub mod scheduler;
pub mod server;
pub mod socket;
pub mod transport;
pub mod wal;
