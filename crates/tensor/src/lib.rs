//! Dense matrix and flat-vector math kernels for the BaFFLe reproduction.
//!
//! This crate provides the minimal linear-algebra substrate needed to train
//! small neural networks entirely in Rust: a row-major [`Matrix`] of `f32`
//! with the multiply/transpose/broadcast kernels used by backpropagation,
//! plus flat `[f32]` vector helpers ([`ops`]) used by the federated-learning
//! layer to average, scale and mask model parameters.
//!
//! No external BLAS is used. Matrix products dispatch into [`gemm`]:
//! one serial kernel — the explicit 8-wide micro-kernel built on
//! [`simd`] lanes (AVX2 selected at runtime where available) — which
//! large products run row-banded across a process-wide worker pool
//! ([`pool`], sized by the `BAFFLE_THREADS` environment variable), while
//! products below a size threshold stay serial so small LOF/feedback
//! math pays zero overhead. The choice depends on the problem size
//! alone; nothing a user sets selects a kernel. Every path is
//! bit-identical to the one oracle, the naive serial loops
//! `gemm::naive_*`, so seeded experiments reproduce exactly at any
//! thread count and on any instruction set.
//!
//! # Example
//!
//! ```
//! use baffle_tensor::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! let c = a.matmul(&b);
//! assert_eq!(c, a);
//! ```

mod matrix;

pub mod gemm;
pub mod ops;
pub mod pool;
pub mod rng;
pub mod simd;

pub use matrix::{Matrix, MatrixView};
