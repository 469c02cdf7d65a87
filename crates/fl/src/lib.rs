//! Federated-learning substrate for the BaFFLe reproduction.
//!
//! Implements the standard FL loop of McMahan et al. exactly as the paper
//! describes it (§II-B): in round `r` the server selects `n ≪ N` clients,
//! ships them the current global model `G`, each client trains locally
//! for a few epochs and returns the update `U_i = L_i − G`, and the
//! server aggregates
//!
//! ```text
//! G' = G + (λ / N) · Σᵢ Uᵢ
//! ```
//!
//! where `λ` is the global learning rate (`λ = N/n` fully replaces `G`
//! with the average of the local models).
//!
//! The [`secagg`] module provides a pairwise-mask secure-aggregation
//! simulation in the style of Bonawitz et al.: per-pair PRG masks cancel
//! in the sum, so the server learns only the aggregate — which is all
//! BaFFLe ever needs, demonstrating the paper's compatibility claim.
//!
//! # Example
//!
//! ```
//! use baffle_fl::{fedavg, FlConfig};
//!
//! let config = FlConfig::new(100, 10); // N = 100 clients, n = 10 per round
//! let global = vec![0.0_f32; 4];
//! let updates = vec![vec![1.0; 4], vec![3.0; 4]];
//! // Default λ = N/n = 10, so G' = G + (10/100) · ΣᵢUᵢ = 0.1 · (1 + 3).
//! let new = fedavg(&global, &updates, config.global_lr(), config.num_clients());
//! assert_eq!(new, vec![0.4, 0.4, 0.4, 0.4]);
//! ```

mod aggregate;
mod config;
pub mod history_sync;
pub mod sampling;
pub mod secagg;
mod trainer;
mod wire_profile;

pub use aggregate::fedavg;
pub use config::FlConfig;
pub use trainer::{train_clients_parallel, LocalTrainer};
pub use wire_profile::{HistoryCodec, WireProfile};
