//! Random initialisation helpers.
//!
//! All randomness in the workspace flows through explicitly seeded
//! [`rand::rngs::StdRng`] instances so that every experiment is
//! reproducible from a single `--seed` flag. Standard-normal samples are
//! produced with a Box–Muller transform (avoiding a `rand_distr`
//! dependency).

use crate::Matrix;
use rand::Rng;

/// Draws one standard-normal sample using the Box–Muller transform.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let z = baffle_tensor::rng::standard_normal(&mut rng);
/// assert!(z.is_finite());
/// ```
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    // u1 in (0, 1] so the log is finite.
    let u1: f32 = 1.0 - rng.gen::<f32>();
    let u2: f32 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// Fills a vector with `n` i.i.d. `N(mean, std²)` samples.
pub fn normal_vec<R: Rng + ?Sized>(rng: &mut R, n: usize, mean: f32, std: f32) -> Vec<f32> {
    (0..n).map(|_| mean + std * standard_normal(rng)).collect()
}

/// A matrix with i.i.d. `N(0, std²)` entries.
pub fn normal_matrix<R: Rng + ?Sized>(rng: &mut R, rows: usize, cols: usize, std: f32) -> Matrix {
    Matrix::from_vec(rows, cols, normal_vec(rng, rows * cols, 0.0, std))
}

/// He/Kaiming-style initialisation for a dense layer with `fan_in` inputs:
/// `N(0, 2 / fan_in)`.
///
/// # Panics
///
/// Panics if `fan_in == 0`.
pub fn he_init<R: Rng + ?Sized>(rng: &mut R, fan_in: usize, fan_out: usize) -> Matrix {
    assert!(fan_in > 0, "he_init: fan_in must be positive");
    let std = (2.0 / fan_in as f32).sqrt();
    normal_matrix(rng, fan_in, fan_out, std)
}

/// [`he_init`] materialised directly in the transposed orientation
/// (`fan_out × fan_in`): draws the identical sample sequence, so the
/// result is bit-for-bit equal to
/// `he_init(rng, fan_in, fan_out).transpose()` without building and
/// discarding the intermediate matrix.
///
/// # Panics
///
/// Panics if `fan_in == 0`.
pub fn he_init_transposed<R: Rng + ?Sized>(rng: &mut R, fan_in: usize, fan_out: usize) -> Matrix {
    assert!(fan_in > 0, "he_init_transposed: fan_in must be positive");
    let std = (2.0 / fan_in as f32).sqrt();
    let samples = normal_vec(rng, fan_in * fan_out, 0.0, std);
    let mut m = Matrix::zeros(fan_out, fan_in);
    for (t, v) in samples.into_iter().enumerate() {
        // The t-th draw lands at (t / fan_out, t % fan_out) in he_init's
        // row-major layout; write it to the mirrored position.
        m[(t % fan_out, t / fan_out)] = v;
    }
    m
}

/// One round of the splitmix64 output mixer: a bijective avalanche
/// function, so distinct inputs can never collide.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an independent RNG stream seed from a base seed, a round
/// number, and a node id.
///
/// XOR-folding (`seed ^ round`) is *not* a sound derivation: adjacent
/// base seeds collide across rounds (`seed ^ round == (seed ^ 1) ^
/// (round ^ 1)`), and a shared constant gives every node the same
/// stream. Chaining the splitmix64 mixer over each input instead
/// avalanches every bit, so any change to `(seed, round, node)`
/// produces an unrelated stream while staying a pure function — callers
/// that re-derive after a checkpoint restore replay the identical
/// sequence.
#[inline]
pub fn derive_stream(seed: u64, round: u64, node: u64) -> u64 {
    let mut z = splitmix64(seed);
    z = splitmix64(z ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = splitmix64(z ^ node.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.1, "var = {var}");
    }

    #[test]
    fn normal_vec_respects_mean_and_std() {
        let mut rng = StdRng::seed_from_u64(1);
        let v = normal_vec(&mut rng, 20_000, 3.0, 0.5);
        let mean = v.iter().sum::<f32>() / v.len() as f32;
        assert!((mean - 3.0).abs() < 0.05, "mean = {mean}");
    }

    #[test]
    fn he_init_scale_shrinks_with_fan_in() {
        let mut rng = StdRng::seed_from_u64(2);
        let wide = he_init(&mut rng, 1000, 50);
        let narrow = he_init(&mut rng, 10, 50);
        let wide_std = wide.frobenius_norm() / (wide.len() as f32).sqrt();
        let narrow_std = narrow.frobenius_norm() / (narrow.len() as f32).sqrt();
        assert!(wide_std < narrow_std, "{wide_std} !< {narrow_std}");
    }

    #[test]
    fn he_init_transposed_is_exactly_the_transpose() {
        for &(fan_in, fan_out) in &[(1usize, 1usize), (7, 5), (3, 12), (48, 96)] {
            let seed = (fan_in * 31 + fan_out) as u64;
            let via_transpose = he_init(&mut StdRng::seed_from_u64(seed), fan_in, fan_out);
            let direct = he_init_transposed(&mut StdRng::seed_from_u64(seed), fan_in, fan_out);
            assert_eq!(via_transpose.transpose(), direct, "{fan_in}x{fan_out}");
        }
    }

    #[test]
    fn seeded_rng_is_deterministic() {
        let a = normal_matrix(&mut StdRng::seed_from_u64(9), 3, 3, 1.0);
        let b = normal_matrix(&mut StdRng::seed_from_u64(9), 3, 3, 1.0);
        assert_eq!(a, b);
    }

    #[test]
    fn derive_stream_avoids_xor_fold_collisions() {
        // The classic failure of `seed ^ round`: (s, r) and (s^1, r^1)
        // collapse onto one stream. The mixer must keep them apart.
        assert_eq!(10u64 ^ 3, 11u64 ^ 2);
        assert_ne!(derive_stream(10, 3, 0), derive_stream(11, 2, 0));
        // Distinct nodes on the same (seed, round) get distinct streams.
        assert_ne!(derive_stream(0xBAD, 4, 1), derive_stream(0xBAD, 4, 2));
        // Pure function: re-derivation replays the same stream.
        assert_eq!(derive_stream(7, 9, 3), derive_stream(7, 9, 3));
    }

    #[test]
    fn derive_stream_spreads_over_small_inputs() {
        // Small consecutive inputs — the only kind this codebase feeds
        // it — must produce well-spread outputs, not a low-entropy band.
        let mut seen = std::collections::HashSet::new();
        for seed in 0..8u64 {
            for round in 0..8u64 {
                for node in 0..8u64 {
                    seen.insert(derive_stream(seed, round, node));
                }
            }
        }
        assert_eq!(seen.len(), 8 * 8 * 8, "stream collision on small inputs");
    }
}
