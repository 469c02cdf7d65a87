//! Mini-batch SGD with momentum and weight decay.

/// Stochastic gradient descent with classical momentum and (decoupled)
/// weight decay, matching the optimiser used by the paper's FL setup
/// (`lr = 0.1` for local training).
///
/// The velocity buffer is keyed by parameter *position*, so one `Sgd`
/// instance must only ever be used with a single model.
///
/// # Example
///
/// ```
/// use baffle_nn::Sgd;
/// let opt = Sgd::new(0.1).with_momentum(0.9).with_weight_decay(1e-4);
/// assert_eq!(opt.learning_rate(), 0.1);
/// ```
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<f32>,
    cursor: usize,
}

impl Sgd {
    /// Creates plain SGD with the given learning rate (no momentum, no
    /// weight decay).
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not finite and positive.
    pub fn new(lr: f32) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "Sgd::new: learning rate must be positive, got {lr}");
        Self { lr, momentum: 0.0, weight_decay: 0.0, velocity: Vec::new(), cursor: 0 }
    }

    /// Sets the momentum coefficient (0 disables momentum).
    pub fn with_momentum(mut self, momentum: f32) -> Self {
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1), got {momentum}");
        self.momentum = momentum;
        self
    }

    /// Sets the L2 weight-decay coefficient.
    pub fn with_weight_decay(mut self, weight_decay: f32) -> Self {
        assert!(weight_decay >= 0.0, "weight decay must be non-negative, got {weight_decay}");
        self.weight_decay = weight_decay;
        self
    }

    /// Current learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.lr
    }

    /// Begins a new optimisation step over all parameters. Must be called
    /// once before the per-layer [`Sgd::update`] closures run for a batch.
    pub fn begin_step(&mut self, num_params: usize) {
        if self.velocity.len() != num_params {
            self.velocity = vec![0.0; num_params];
        }
        self.cursor = 0;
    }

    /// Updates a single parameter given its gradient. Parameters must be
    /// visited in the same order every step (the layer iteration order),
    /// which the model guarantees.
    ///
    /// # Panics
    ///
    /// Panics if more parameters are updated than announced to
    /// [`Sgd::begin_step`].
    #[inline]
    pub fn update(&mut self, param: &mut f32, grad: f32) {
        assert!(
            self.cursor < self.velocity.len(),
            "Sgd::update: more parameters than begin_step announced ({})",
            self.velocity.len()
        );
        let g = grad + self.weight_decay * *param;
        let v = &mut self.velocity[self.cursor];
        *v = self.momentum * *v + g;
        *param -= self.lr * *v;
        self.cursor += 1;
    }

    /// Updates a contiguous slice of parameters given their gradients —
    /// the slice-wise form of [`Sgd::update`], with elementwise-identical
    /// arithmetic (so a chunked walk over the parameter vector is
    /// bit-identical to the per-scalar one). The chunk occupies the next
    /// `params.len()` velocity slots, so chunks must be visited in the
    /// same order every step, which the model's layer order guarantees.
    ///
    /// # Panics
    ///
    /// Panics if `params` and `grads` differ in length, or the chunk
    /// overruns the count announced to [`Sgd::begin_step`].
    pub fn update_chunk(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(
            params.len(),
            grads.len(),
            "Sgd::update_chunk: {} params vs {} grads",
            params.len(),
            grads.len()
        );
        assert!(
            self.cursor + params.len() <= self.velocity.len(),
            "Sgd::update_chunk: more parameters than begin_step announced ({})",
            self.velocity.len()
        );
        let vel = &mut self.velocity[self.cursor..self.cursor + params.len()];
        for ((p, &grad), v) in params.iter_mut().zip(grads).zip(vel) {
            let g = grad + self.weight_decay * *p;
            *v = self.momentum * *v + g;
            *p -= self.lr * *v;
        }
        self.cursor += params.len();
    }

    /// Clears the momentum buffer (e.g. when reusing the optimiser for a
    /// freshly reset model).
    pub fn reset(&mut self) {
        self.velocity.clear();
        self.cursor = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_sgd_step() {
        let mut opt = Sgd::new(0.1);
        opt.begin_step(1);
        let mut p = 1.0;
        opt.update(&mut p, 2.0);
        assert!((p - 0.8).abs() < 1e-6);
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let mut opt = Sgd::new(0.1).with_momentum(0.9);
        let mut p = 0.0;
        opt.begin_step(1);
        opt.update(&mut p, 1.0); // v = 1, p = -0.1
        opt.begin_step(1);
        opt.update(&mut p, 1.0); // v = 1.9, p = -0.29
        assert!((p + 0.29).abs() < 1e-6, "p = {p}");
    }

    #[test]
    fn weight_decay_pulls_towards_zero() {
        let mut opt = Sgd::new(0.1).with_weight_decay(1.0);
        let mut p = 1.0;
        opt.begin_step(1);
        opt.update(&mut p, 0.0);
        assert!(p < 1.0);
    }

    #[test]
    fn begin_step_resizes_velocity_on_model_change() {
        let mut opt = Sgd::new(0.1).with_momentum(0.5);
        opt.begin_step(2);
        let mut a = 0.0;
        opt.update(&mut a, 1.0);
        opt.begin_step(3); // new model size: velocity must reset
        let mut b = 0.0;
        opt.update(&mut b, 1.0);
        assert!((b + 0.1).abs() < 1e-6, "velocity leaked across resize");
    }

    #[test]
    fn update_chunk_is_bit_identical_to_per_scalar_updates() {
        let mut scalar = Sgd::new(0.1).with_momentum(0.9).with_weight_decay(1e-3);
        let mut chunked = scalar.clone();
        let mut pa: Vec<f32> = (0..13).map(|i| (i as f32 * 0.7).sin()).collect();
        let mut pb = pa.clone();
        let grads: Vec<f32> = (0..13).map(|i| (i as f32 * 1.3).cos()).collect();
        for _ in 0..5 {
            scalar.begin_step(13);
            for (p, &g) in pa.iter_mut().zip(&grads) {
                scalar.update(p, g);
            }
            chunked.begin_step(13);
            // Uneven chunk split, as layer boundaries produce.
            let (lo, hi) = pb.split_at_mut(5);
            chunked.update_chunk(lo, &grads[..5]);
            chunked.update_chunk(hi, &grads[5..]);
        }
        for (a, b) in pa.iter().zip(&pb) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }

    /// Regression: `begin_step` with an unchanged parameter count must
    /// reuse the velocity buffer (no reallocation in the steady-state
    /// training loop), while `reset` forces the next step to re-zero it.
    #[test]
    fn begin_step_reuses_velocity_buffer_and_reset_rezeroes() {
        let mut opt = Sgd::new(0.1).with_momentum(0.9);
        opt.begin_step(8);
        let ptr = opt.velocity.as_ptr();
        let mut p = 1.0;
        opt.update(&mut p, 1.0);
        assert!(opt.velocity.iter().any(|&v| v != 0.0), "momentum must have accumulated");
        opt.begin_step(8);
        assert_eq!(opt.velocity.as_ptr(), ptr, "same-size begin_step must not reallocate");
        assert!(
            opt.velocity.iter().any(|&v| v != 0.0),
            "same-size begin_step must keep momentum (it is not a reset)"
        );
        opt.reset();
        opt.begin_step(8);
        assert!(opt.velocity.iter().all(|&v| v == 0.0), "reset must force re-zeroed velocity");
        assert_eq!(opt.velocity.len(), 8);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn zero_lr_panics() {
        let _ = Sgd::new(0.0);
    }

    #[test]
    #[should_panic(expected = "more parameters")]
    fn too_many_updates_panics() {
        let mut opt = Sgd::new(0.1);
        opt.begin_step(1);
        let mut p = 0.0;
        opt.update(&mut p, 1.0);
        opt.update(&mut p, 1.0);
    }
}
