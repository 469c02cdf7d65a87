//! Property-based tests for the math kernels.

use baffle_tensor::{ops, Matrix};
use proptest::prelude::*;

fn matrix_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-10.0_f32..10.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

fn vec_strategy(len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-10.0_f32..10.0, len)
}

proptest! {
    /// (AB)ᵀ = BᵀAᵀ.
    #[test]
    fn matmul_transpose_identity(a in matrix_strategy(3, 4), b in matrix_strategy(4, 2)) {
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() <= 1e-3 * (1.0 + x.abs()));
        }
    }

    /// matmul_nt and matmul_tn agree with their explicit-transpose forms.
    #[test]
    fn fused_transpose_kernels_agree(a in matrix_strategy(3, 5), b in matrix_strategy(4, 5), c in matrix_strategy(3, 4)) {
        let nt = a.matmul_nt(&b);
        let explicit = a.matmul(&b.transpose());
        for (x, y) in nt.as_slice().iter().zip(explicit.as_slice()) {
            prop_assert!((x - y).abs() <= 1e-3 * (1.0 + x.abs()));
        }
        let tn = c.matmul_tn(&a);
        let explicit = c.transpose().matmul(&a);
        for (x, y) in tn.as_slice().iter().zip(explicit.as_slice()) {
            prop_assert!((x - y).abs() <= 1e-3 * (1.0 + x.abs()));
        }
    }

    /// Matrix multiplication distributes over addition: A(B + C) = AB + AC.
    #[test]
    fn matmul_distributes(a in matrix_strategy(2, 3), b in matrix_strategy(3, 2), c in matrix_strategy(3, 2)) {
        let mut bc = b.clone();
        bc.add_assign(&c);
        let left = a.matmul(&bc);
        let mut right = a.matmul(&b);
        right.add_assign(&a.matmul(&c));
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() <= 1e-3 * (1.0 + x.abs()));
        }
    }

    /// lerp(a, b, t) is between a and b coordinate-wise for t ∈ [0, 1].
    #[test]
    fn lerp_stays_in_segment(a in vec_strategy(6), b in vec_strategy(6), t in 0.0_f32..1.0) {
        let l = ops::lerp(&a, &b, t);
        for ((&x, &y), &z) in a.iter().zip(&b).zip(&l) {
            let (lo, hi) = (x.min(y), x.max(y));
            prop_assert!((lo - 1e-4..=hi + 1e-4).contains(&z));
        }
    }

    /// ‖a − b‖ satisfies the triangle inequality through any midpoint.
    #[test]
    fn distance_triangle(a in vec_strategy(5), b in vec_strategy(5), c in vec_strategy(5)) {
        let ab = ops::distance(&a, &b);
        let ac = ops::distance(&a, &c);
        let cb = ops::distance(&c, &b);
        prop_assert!(ab <= ac + cb + 1e-3);
    }

    /// clip_norm never increases the norm, and respects the bound.
    #[test]
    fn clip_norm_contract(mut v in vec_strategy(8), max_norm in 0.01_f32..20.0) {
        let before = ops::norm(&v);
        ops::clip_norm(&mut v, max_norm);
        let after = ops::norm(&v);
        prop_assert!(after <= before + 1e-4);
        prop_assert!(after <= max_norm * (1.0 + 1e-4) + 1e-6);
    }

    /// mean of k copies of v is v.
    #[test]
    fn mean_of_copies_is_identity(v in vec_strategy(4), k in 1usize..6) {
        let copies = vec![v.clone(); k];
        let m = ops::mean(&copies);
        for (x, y) in m.iter().zip(&v) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// argmax_rows returns indices of maximal entries.
    #[test]
    fn argmax_is_maximal(m in matrix_strategy(4, 6)) {
        for (r, &idx) in m.argmax_rows().iter().enumerate() {
            let row = m.row(r);
            for &v in row {
                prop_assert!(row[idx] >= v);
            }
        }
    }

    /// transpose preserves the multiset of entries and the Frobenius norm.
    #[test]
    fn transpose_preserves_norm(m in matrix_strategy(3, 7)) {
        prop_assert!((m.frobenius_norm() - m.transpose().frobenius_norm()).abs() < 1e-3);
    }
}

// ---------------------------------------------------------------------------
// Dispatched GEMM vs the naive oracle: the dispatchers must be BIT-identical
// (`to_bits` equality, not epsilon), at any shape — including 1×N / N×1 and
// non-multiple-of-tile dims — and at any thread count. Every dim here stays
// below the banding threshold, so these sweep the one serial kernel; large
// banded shapes and the baseline-ISA kernel bodies are covered by unit tests
// in `baffle_tensor::gemm`.
// ---------------------------------------------------------------------------

use baffle_tensor::gemm;

/// Random dims straddling the 8-lane edges, 1×N/N×1 included.
fn gemm_dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..=40, 1usize..=40, 1usize..=40)
}

/// Random data with ~10 % exact zeros — the removed zero-skip fast path
/// made zeros a historical edge case worth hammering.
fn gemm_data(len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-10.0_f32..10.0, len)
        .prop_map(|v| v.into_iter().map(|x| if x.abs() < 1.0 { 0.0 } else { x }).collect())
}

fn nn_problem() -> impl Strategy<Value = (usize, usize, usize, Vec<f32>, Vec<f32>)> {
    gemm_dims()
        .prop_flat_map(|(m, k, n)| (Just(m), Just(k), Just(n), gemm_data(m * k), gemm_data(k * n)))
}

fn tn_problem() -> impl Strategy<Value = (usize, usize, usize, Vec<f32>, Vec<f32>)> {
    gemm_dims()
        .prop_flat_map(|(m, k, n)| (Just(m), Just(k), Just(n), gemm_data(m * k), gemm_data(m * n)))
}

fn nt_problem() -> impl Strategy<Value = (usize, usize, usize, Vec<f32>, Vec<f32>)> {
    gemm_dims()
        .prop_flat_map(|(m, k, n)| (Just(m), Just(k), Just(n), gemm_data(m * k), gemm_data(n * k)))
}

proptest! {
    /// `Matrix::matmul` ≡ naive A·B, bitwise.
    #[test]
    fn matmul_is_bit_identical_to_naive((m, k, n, a, b) in nn_problem()) {
        let got = Matrix::from_vec(m, k, a.clone()).matmul(&Matrix::from_vec(k, n, b.clone()));
        let mut want = vec![0.0f32; m * n];
        gemm::naive_nn(m, k, n, &a, &b, &mut want);
        for (x, y) in got.as_slice().iter().zip(&want) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// `Matrix::matmul_tn` ≡ naive Aᵀ·B, bitwise (A is m×k, B is m×n;
    /// strided A reads in the kernel).
    #[test]
    fn matmul_tn_is_bit_identical_to_naive((m, k, n, a, b) in tn_problem()) {
        let got = Matrix::from_vec(m, k, a.clone()).matmul_tn(&Matrix::from_vec(m, n, b.clone()));
        let mut want = vec![0.0f32; k * n];
        gemm::naive_tn(m, k, n, &a, &b, &mut want);
        for (x, y) in got.as_slice().iter().zip(&want) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// `Matrix::matmul_nt` ≡ naive A·Bᵀ, bitwise (A is m×k, B is n×k).
    #[test]
    fn matmul_nt_is_bit_identical_to_naive((m, k, n, a, b) in nt_problem()) {
        let got = Matrix::from_vec(m, k, a.clone()).matmul_nt(&Matrix::from_vec(n, k, b.clone()));
        let mut want = vec![0.0f32; m * n];
        gemm::naive_nt(m, k, n, &a, &b, &mut want);
        for (x, y) in got.as_slice().iter().zip(&want) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// Wide-N problems exercise the full 64-column accumulator sweep and
    /// both tails in one shot; dims straddle the 64/8/1 boundaries.
    #[test]
    fn wide_rows_are_bit_identical(
        m in 1usize..=4,
        k in 1usize..=48,
        n in 57usize..=97,
        seed in any::<u64>(),
    ) {
        let mut s = seed | 1;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let v = ((s >> 33) as i32 % 2001 - 1000) as f32 / 100.0;
            if v.abs() < 1.0 { 0.0 } else { v }
        };
        let a: Vec<f32> = (0..m * k).map(|_| next()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| next()).collect();
        let mut got = vec![0.0f32; m * n];
        gemm::nn(m, k, n, &a, &b, &mut got);
        let mut want = vec![0.0f32; m * n];
        gemm::naive_nn(m, k, n, &a, &b, &mut want);
        for (x, y) in got.iter().zip(&want) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
