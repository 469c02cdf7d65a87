//! **BaFFLe** — Backdoor detection via Feedback-based Federated Learning.
//!
//! This crate implements the paper's contribution (Andreina, Marson,
//! Möllering, Karame — ICDCS 2021):
//!
//! - [`variation`] — per-class **error-variation vectors** between
//!   consecutive global models (eqs. 2–3);
//! - [`Validator`] — the cross-round misclassification analysis of
//!   **Algorithm 2**: flag the current global model if its
//!   error-variation vector is a Local-Outlier-Factor outlier relative to
//!   the variations of recently accepted models;
//! - [`feedback::tally`] — the decision step of **Algorithm 1**: reject
//!   the round's update when at least `q` of the validators that exist
//!   flag it ([`QuorumRule`]), with the quorum-threshold calculus of
//!   §IV-B; [`ValidationEngine::vote`] is the vote an in-process
//!   validator casts, and every driver of the protocol — [`Simulation`],
//!   `baffle_net::server::Server` — decides a round through these two;
//! - [`Simulation`] — the end-to-end experiment driver that combines the
//!   FL substrate, attacks and defense to regenerate every table and
//!   figure of the paper's evaluation (§VI).
//!
//! # Quickstart
//!
//! ```
//! use baffle_core::{Simulation, SimulationConfig};
//!
//! let mut sim = Simulation::new(SimulationConfig::cifar_like_small(42));
//! let report = sim.run();
//! // The scripted injection is detected …
//! assert_eq!(report.false_negatives(), 0);
//! ```

pub mod engine;
pub mod exp;
pub mod feedback;
mod history;
pub mod metrics;
pub mod simulation;
pub mod validate;
pub mod variation;

pub use engine::{ConfusionCache, ValidationEngine};
pub use feedback::{tally, Decision, QuorumRule, Tally};
pub use history::ModelHistory;
pub use simulation::{
    AttackKind, ClientDataModel, DatasetKind, DefenseMode, RoundRecord, Simulation,
    SimulationConfig, SimulationReport,
};
pub use validate::{Diagnostics, ValidateError, ValidationConfig, Validator, Verdict};

/// Re-export of the vote type shared with the attack crate's malicious
/// voter models.
pub use baffle_attack::voting::Vote;
