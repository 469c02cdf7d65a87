//! Pointwise activation functions.

/// A pointwise activation function applied after a dense layer.
///
/// # Example
///
/// ```
/// use baffle_nn::Activation;
///
/// assert_eq!(Activation::Relu.apply(-3.0), 0.0);
/// assert_eq!(Activation::Relu.apply(2.0), 2.0);
/// assert_eq!(Activation::Identity.derivative(123.0), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Activation {
    /// Rectified linear unit, `max(0, x)`.
    #[default]
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// No-op activation, used for the output (logits) layer.
    Identity,
}

impl Activation {
    /// Applies the activation to a single value.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Tanh => x.tanh(),
            Activation::Identity => x,
        }
    }

    /// Derivative of the activation expressed in terms of the
    /// *pre-activation* input `x`.
    #[inline]
    pub fn derivative(self, x: f32) -> f32 {
        match self {
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => {
                let t = x.tanh();
                1.0 - t * t
            }
            Activation::Identity => 1.0,
        }
    }
}

impl std::fmt::Display for Activation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Activation::Relu => "relu",
            Activation::Tanh => "tanh",
            Activation::Identity => "identity",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        assert_eq!(Activation::Relu.apply(-1.0), 0.0);
        assert_eq!(Activation::Relu.apply(0.0), 0.0);
        assert_eq!(Activation::Relu.apply(1.5), 1.5);
    }

    #[test]
    fn relu_derivative_is_step() {
        assert_eq!(Activation::Relu.derivative(-0.1), 0.0);
        assert_eq!(Activation::Relu.derivative(0.1), 1.0);
    }

    #[test]
    fn tanh_derivative_matches_finite_difference() {
        let x = 0.37_f32;
        let eps = 1e-3;
        let fd = (Activation::Tanh.apply(x + eps) - Activation::Tanh.apply(x - eps)) / (2.0 * eps);
        assert!((Activation::Tanh.derivative(x) - fd).abs() < 1e-4);
    }

    #[test]
    fn identity_is_noop() {
        assert_eq!(Activation::Identity.apply(7.0), 7.0);
        assert_eq!(Activation::Identity.derivative(7.0), 1.0);
    }

    #[test]
    fn display_names() {
        assert_eq!(Activation::Relu.to_string(), "relu");
        assert_eq!(Activation::Tanh.to_string(), "tanh");
    }
}
