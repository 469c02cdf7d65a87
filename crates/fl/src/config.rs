//! Federated-learning hyperparameters.

/// Hyperparameters of the FL process (paper §II-B and §VI-A).
///
/// Defaults follow the paper: 10 contributing clients per round, 2 local
/// epochs with learning rate 0.1, and global learning rate `λ = N/n`
/// (full model replacement by the mean local model).
///
/// # Example
///
/// ```
/// use baffle_fl::FlConfig;
///
/// let c = FlConfig::new(100, 10);
/// assert_eq!(c.global_lr(), 10.0); // λ = N/n by default
/// let c = c.with_global_lr(1.0);
/// assert_eq!(c.global_lr(), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FlConfig {
    num_clients: usize,
    clients_per_round: usize,
    global_lr: f32,
    local_epochs: usize,
    local_lr: f32,
    batch_size: usize,
}

impl FlConfig {
    /// Creates a config for `num_clients` total clients with
    /// `clients_per_round` sampled per round and paper-default local
    /// training parameters.
    ///
    /// # Panics
    ///
    /// Panics if `clients_per_round` is zero or exceeds `num_clients`.
    pub fn new(num_clients: usize, clients_per_round: usize) -> Self {
        assert!(clients_per_round > 0, "FlConfig: need at least one client per round");
        assert!(
            clients_per_round <= num_clients,
            "FlConfig: cannot select {clients_per_round} of {num_clients} clients"
        );
        Self {
            num_clients,
            clients_per_round,
            global_lr: num_clients as f32 / clients_per_round as f32,
            local_epochs: 2,
            local_lr: 0.1,
            batch_size: 32,
        }
    }

    /// Overrides the global learning rate `λ`.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not finite and positive.
    pub fn with_global_lr(mut self, lr: f32) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "global_lr must be positive, got {lr}");
        self.global_lr = lr;
        self
    }

    /// Overrides the number of local epochs.
    pub fn with_local_epochs(mut self, epochs: usize) -> Self {
        assert!(epochs > 0, "local_epochs must be positive");
        self.local_epochs = epochs;
        self
    }

    /// Overrides the local learning rate.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not finite and positive.
    pub fn with_local_lr(mut self, lr: f32) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "local_lr must be positive, got {lr}");
        self.local_lr = lr;
        self
    }

    /// Overrides the local mini-batch size.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch_size must be positive");
        self.batch_size = batch_size;
        self
    }

    /// Total number of participating clients (`N`).
    pub fn num_clients(&self) -> usize {
        self.num_clients
    }

    /// Clients selected per round (`n`).
    pub fn clients_per_round(&self) -> usize {
        self.clients_per_round
    }

    /// Global learning rate (`λ`).
    pub fn global_lr(&self) -> f32 {
        self.global_lr
    }

    /// Local training epochs per selected client.
    pub fn local_epochs(&self) -> usize {
        self.local_epochs
    }

    /// Local SGD learning rate.
    pub fn local_lr(&self) -> f32 {
        self.local_lr
    }

    /// Local mini-batch size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// The boost factor `γ = N / λ` with which a model-replacement
    /// attacker scales its poisoned update so that, under the aggregation
    /// rule `G' = G + (λ/N)·ΣᵢUᵢ`, its single update fully replaces the
    /// global model with its backdoored one (Bagdasaryan et al.; paper
    /// §III-B). With the default `λ = N/n` this reduces to `γ = n`.
    pub fn replacement_boost(&self) -> f32 {
        self.num_clients as f32 / self.global_lr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_lambda_boost_is_n() {
        let c = FlConfig::new(100, 10);
        assert_eq!(c.global_lr(), 10.0);
        // γ = N/λ = 100/10 = n = 10.
        assert_eq!(c.replacement_boost(), 10.0);
    }

    #[test]
    fn conservative_lambda_needs_bigger_boost() {
        let c = FlConfig::new(100, 10).with_global_lr(1.0);
        assert_eq!(c.replacement_boost(), 100.0);
    }

    #[test]
    fn builders_override_fields() {
        let c = FlConfig::new(50, 5).with_local_epochs(3).with_local_lr(0.05).with_batch_size(16);
        assert_eq!(c.local_epochs(), 3);
        assert_eq!(c.local_lr(), 0.05);
        assert_eq!(c.batch_size(), 16);
        assert_eq!(c.num_clients(), 50);
        assert_eq!(c.clients_per_round(), 5);
    }

    #[test]
    #[should_panic(expected = "cannot select")]
    fn oversampling_panics() {
        let _ = FlConfig::new(5, 10);
    }
}
