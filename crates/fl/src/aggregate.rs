//! FedAvg aggregation.

use baffle_tensor::{ops, pool};

/// Minimum `parameters × updates` product before the accumulation fans
/// out on the worker pool; below this the serial loop wins.
const PAR_MIN_WORK: usize = 1 << 16;

/// Accumulates `scale · Σᵢ updates[i]` into `out`, chunking `out` across
/// the worker pool when the work is large enough.
///
/// Bit-exactness: [`ops::axpy`] is elementwise (`out[j] += scale·u[j]`
/// with one rounding per update), so chunking the *output* changes
/// nothing about the value each element computes — every element still
/// accumulates the updates in the same client order as the serial loop.
/// The result is therefore bit-identical at any thread count.
///
/// # Panics
///
/// Panics if any update's length differs from `out.len()`.
pub(crate) fn scaled_accumulate(scale: f32, updates: &[Vec<f32>], out: &mut [f32]) {
    for (i, u) in updates.iter().enumerate() {
        assert_eq!(
            u.len(),
            out.len(),
            "aggregate: update {i} has {} params, expected {}",
            u.len(),
            out.len()
        );
    }
    if pool::threads() <= 1 || out.len().saturating_mul(updates.len()) < PAR_MIN_WORK {
        for u in updates {
            ops::axpy(scale, u, out);
        }
        return;
    }
    let chunk = out.len().div_ceil(pool::threads());
    let tasks: Vec<pool::ScopedTask<'_>> = out
        .chunks_mut(chunk)
        .enumerate()
        .map(|(ci, dst)| {
            let lo = ci * chunk;
            Box::new(move || {
                for u in updates {
                    ops::axpy(scale, &u[lo..lo + dst.len()], dst);
                }
            }) as pool::ScopedTask<'_>
        })
        .collect();
    pool::join_all(tasks);
}

/// FedAvg with a global learning rate (paper §II-B):
///
/// ```text
/// G' = G + (λ / N) · Σᵢ Uᵢ
/// ```
///
/// `updates` are the client deltas `Uᵢ = Lᵢ − G`. With `λ = N/n` and all
/// `n` selected clients reporting, `G'` is exactly the mean of the local
/// models.
///
/// # Panics
///
/// Panics if `updates` is empty, the lengths are inconsistent,
/// `num_clients == 0`, or `lambda` is not finite.
///
/// # Example
///
/// ```
/// use baffle_fl::fedavg;
/// let g = vec![1.0, 1.0];
/// let ups = vec![vec![2.0, 0.0], vec![0.0, 2.0]];
/// // λ/N = 1/2: move halfway along the summed update.
/// assert_eq!(fedavg(&g, &ups, 1.0, 2), vec![2.0, 2.0]);
/// ```
pub fn fedavg(global: &[f32], updates: &[Vec<f32>], lambda: f32, num_clients: usize) -> Vec<f32> {
    assert!(!updates.is_empty(), "fedavg: need at least one update");
    assert!(num_clients > 0, "fedavg: num_clients must be positive");
    assert!(lambda.is_finite(), "fedavg: lambda must be finite, got {lambda}");
    let scale = lambda / num_clients as f32;
    let mut out = global.to_vec();
    scaled_accumulate(scale, updates, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_replacement_with_lambda_n_over_n() {
        // N = 4, n = 2 selected, λ = N/n = 2: G' = mean of local models.
        let g = vec![0.0, 10.0];
        let l1 = vec![2.0, 12.0];
        let l2 = vec![4.0, 14.0];
        let ups = vec![ops_sub(&l1, &g), ops_sub(&l2, &g)];
        let out = fedavg(&g, &ups, 2.0, 4);
        assert_eq!(out, vec![3.0, 13.0]);
    }

    fn ops_sub(a: &[f32], b: &[f32]) -> Vec<f32> {
        baffle_tensor::ops::sub(a, b)
    }

    #[test]
    fn zero_updates_leave_global_unchanged() {
        let g = vec![1.0, -2.0, 3.0];
        let ups = vec![vec![0.0; 3]; 5];
        assert_eq!(fedavg(&g, &ups, 7.0, 100), g);
    }

    #[test]
    fn single_boosted_update_replaces_model() {
        // Model-replacement algebra: attacker submits γ·(X − G) with
        // γ = N/λ (single reporting client), yielding G' = X.
        let g = vec![1.0, 1.0];
        let x = vec![5.0, -3.0];
        let n_total = 100;
        let lambda = 10.0;
        let gamma = n_total as f32 / lambda;
        let poisoned: Vec<f32> = g.iter().zip(&x).map(|(&gi, &xi)| gamma * (xi - gi)).collect();
        let out = fedavg(&g, &[poisoned], lambda, n_total);
        for (o, e) in out.iter().zip(&x) {
            assert!((o - e).abs() < 1e-4, "{o} vs {e}");
        }
    }

    #[test]
    fn aggregation_is_linear_in_updates() {
        let g = vec![0.0; 3];
        let u1 = vec![1.0, 2.0, 3.0];
        let u2 = vec![-1.0, 0.5, 2.0];
        let joint = fedavg(&g, &[u1.clone(), u2.clone()], 3.0, 6);
        let seq = {
            let mid = fedavg(&g, &[u1], 3.0, 6);
            fedavg(&mid, &[u2], 3.0, 6)
        };
        for (a, b) in joint.iter().zip(&seq) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "at least one update")]
    fn empty_updates_panics() {
        let _ = fedavg(&[0.0], &[], 1.0, 1);
    }

    #[test]
    #[should_panic(expected = "update 1 has 2 params")]
    fn mismatched_update_length_panics() {
        let _ = fedavg(&[0.0, 0.0, 0.0], &[vec![0.0; 3], vec![0.0; 2]], 1.0, 1);
    }

    /// `fedavg` must be bit-identical to the plain client-order axpy loop
    /// on both sides of the pool fan-out threshold: 3 parameters stay
    /// serial, 50 000 × 3 updates chunk across the pool.
    #[test]
    fn fedavg_is_bit_identical_to_serial_axpy_loop() {
        const { assert!(3 * 3 < PAR_MIN_WORK && 50_000 * 3 >= PAR_MIN_WORK) };
        for n in [3, 50_000] {
            let global: Vec<f32> = (0..n).map(|i| ((i as f32) * 0.137).sin()).collect();
            let updates: Vec<Vec<f32>> = (0..3)
                .map(|u| (0..n).map(|i| ((u * n + i) as f32 * 0.291).cos() * 0.01).collect())
                .collect();
            let got = fedavg(&global, &updates, 1.7, 13);
            let mut want = global.clone();
            for u in &updates {
                ops::axpy(1.7 / 13.0, u, &mut want);
            }
            assert_eq!(got.len(), want.len());
            for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "n = {n}, param {i}: {a} vs {b}");
            }
        }
    }
}
