//! Pure-Rust neural-network training substrate for the BaFFLe reproduction.
//!
//! The BaFFLe defense never inspects model internals — it only consumes the
//! per-class error rates of the *global* model on validation data. This
//! crate therefore provides the smallest trainable classifier family that
//! reproduces the dynamics the paper relies on: multi-layer perceptrons
//! ([`Mlp`]) trained with mini-batch SGD on a softmax cross-entropy loss,
//! with **flat parameter access** ([`Model::params`] / [`Model::set_params`])
//! so the federated-learning layer can average, scale and mask models as
//! plain `Vec<f32>`s — exactly how FedAvg treats a PyTorch state dict.
//!
//! # Example
//!
//! ```
//! use baffle_nn::{Mlp, MlpSpec, Sgd, Model};
//! use baffle_tensor::Matrix;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! // XOR-ish toy problem: 2 inputs, 2 classes.
//! let x = Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
//! let y = vec![0, 1, 1, 0];
//! let mut model = Mlp::new(&MlpSpec::new(2, &[16], 2), &mut rng);
//! let mut opt = Sgd::new(0.5);
//! for _ in 0..500 {
//!     model.train_epoch(&x, &y, 4, &mut opt, &mut rng);
//! }
//! assert_eq!(model.predict_batch(&x), y);
//! ```

mod activation;
mod cnn;
pub mod conv;
pub mod eval;
mod layer;
mod loss;
mod mlp;
mod optimizer;
mod scratch;
pub mod wire;

pub use activation::Activation;
pub use cnn::{Cnn, CnnSpec};
pub use eval::ConfusionMatrix;
pub use layer::Dense;
pub use loss::{softmax, softmax_cross_entropy, softmax_cross_entropy_into};
pub use mlp::{Mlp, MlpSpec};
pub use optimizer::Sgd;

use baffle_tensor::Matrix;

/// A trainable classifier whose parameters can be flattened to a single
/// `Vec<f32>` — the representation the federated-learning layer aggregates.
///
/// The trait is object-safe so heterogeneous experiment drivers can box
/// models.
pub trait Model: Send {
    /// Total number of scalar parameters.
    fn num_params(&self) -> usize;

    /// All parameters flattened into a single vector, in a stable order.
    fn params(&self) -> Vec<f32>;

    /// Overwrites all parameters from a flat vector (inverse of
    /// [`Model::params`]).
    ///
    /// # Panics
    ///
    /// Panics if `p.len() != self.num_params()`.
    fn set_params(&mut self, p: &[f32]);

    /// Number of output classes.
    fn num_classes(&self) -> usize;

    /// Predicted class index for each row of `x`.
    ///
    /// Implementations must be *row-wise*: the prediction for a row may
    /// not depend on which other rows share the batch. Parallel
    /// evaluation ([`ConfusionMatrix::from_model`]) relies on this to
    /// split large datasets into chunks without changing any result.
    fn predict_batch(&self, x: &Matrix) -> Vec<usize>;

    /// Predicted class index for rows `r0..r1` of `x`.
    ///
    /// Equivalent to `predict_batch` on a copy of those rows — the default
    /// does exactly that — but implementations may evaluate the row range
    /// in place (e.g. via [`baffle_tensor::MatrixView`]) to avoid the copy.
    /// Because predictions are row-wise, the result is bit-identical to
    /// the corresponding slice of `predict_batch(x)`.
    ///
    /// # Panics
    ///
    /// Panics if `r0 > r1` or `r1 > x.rows()`.
    fn predict_rows(&self, x: &Matrix, r0: usize, r1: usize) -> Vec<usize> {
        self.predict_batch(&x.view_rows(r0, r1).to_matrix())
    }
}
