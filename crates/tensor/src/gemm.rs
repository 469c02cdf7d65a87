//! GEMM: one 8-wide serial kernel, one naive oracle, pool banding by size.
//!
//! All three matmul orientations used by backpropagation live here:
//!
//! - [`nn`]  — `C += A·B` (forward pass),
//! - [`tn`]  — `C += Aᵀ·B` (weight gradients),
//! - [`nt`]  — `C += A·Bᵀ` (input deltas),
//!
//! each as a *dispatcher* that picks, **by problem size only**, between
//! the serial kernel and a row-banded run of that same kernel on the
//! shared worker pool ([`crate::pool`]). There is exactly one serial
//! kernel — the explicit 8-wide micro-kernel built on
//! [`crate::simd::F32x8`] lanes — and exactly one oracle, the naive
//! triple loops [`naive_nn`] / [`naive_tn`] / [`naive_nt`], which every
//! test compares against bitwise. No environment variable, feature or
//! function selects a kernel. Every dispatcher call is tallied per path
//! ([`dispatch_counts`]) so a perf change can be attributed to dispatch
//! rather than to the kernel.
//!
//! # Bit-exactness
//!
//! Every path — naive, 8-wide, banded-parallel at any thread count —
//! produces **bit-identical** output: for each output element the
//! products are accumulated in strictly increasing `k` order, starting
//! from the element's prior value. Row bands touch disjoint outputs, and
//! the 8-wide kernel assigns each output element to exactly one lane of
//! one accumulator — lanes never mix and no FMA contraction is emitted,
//! so each lane performs the oracle's multiply-then-add sequence
//! verbatim (a block whose width is not a multiple of 8 computes a few
//! columns in two lanes, identically, and stores one of them). This is
//! what lets seeded experiments reproduce exactly regardless of
//! `BAFFLE_THREADS` or the CPU they run on.
//!
//! # Register blocking
//!
//! Output columns are walked in blocks of 64 — eight 8-lane
//! accumulators, enough independent dependency chains to hide add
//! latency — held in registers across a `KC = 256`-deep `k` sweep, so
//! the output is loaded and stored once per sweep instead of once per
//! `k`-step while `B` streams through in 64-wide rows; a block is
//! finished for every row before the next one starts, so its band of
//! `B` stays cache-resident. The `n mod 64` columns left over form one
//! more block under `⌈rem/8⌉` accumulators that advance through `k`
//! together; when the remainder is not a multiple of 8 the last
//! accumulator is loaded at columns `n−8..n`, overlapping its
//! neighbour, and stores only the lanes nothing else owns
//! (`simd_cols`). Only `n < 8` is scalar. On x86-64 the kernel body is
//! additionally compiled with AVX2 enabled and selected by a run-time
//! CPU check, so an [`F32x8`] is a single 256-bit register even when
//! the build targets baseline SSE2; both instantiations perform the
//! same IEEE operations, so which one runs is unobservable in the
//! output.
//!
//! # Why one kernel
//!
//! Until PR 12 a scalar cache-blocked tier and an FMA-contracted tier
//! sat beside this kernel, each behind an environment switch, and until
//! PR 13 two batched multi-model entry points sat on top of it. The
//! benchmark showed none of them paid for itself — DESIGN.md §12.1 and
//! §17 keep the end-to-end medians, the kernel table at the shapes the
//! system runs and the per-model evaluation cost. What is still
//! latency-bound is the narrowest output: `n = 10` has two accumulators
//! per row where the add latency wants eight; blocking two or four rows
//! of `A` against one `B` row is the recorded follow-up.

use crate::pool;
use crate::simd::{F32x8, LANES};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Depth of one register-resident `k` sweep in the kernel: a
/// 32-column band of `B` over `KC` depth steps is 32 KiB (L1-sized),
/// and accumulators reload from `C` only once per sweep.
const KC: usize = 256;

/// Minimum `m·k·n` before a product is row-banded across the pool;
/// below this, thread hand-off costs more than the multiply.
const PAR_MIN_WORK: usize = 1 << 20;

/// Minimum `m·k·n` before [`nt`] packs `Bᵀ` to reach the 8-wide
/// kernel; tiny products just run the direct dot-product loop.
const NT_PACK_MIN_WORK: usize = 1 << 16;

#[inline]
fn work(m: usize, k: usize, n: usize) -> usize {
    m.saturating_mul(k).saturating_mul(n)
}

#[inline]
fn check(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &[f32], what: &str) {
    assert_eq!(a.len(), m * k, "gemm::{what}: A is not {m}x{k}");
    assert_eq!(b.len(), k * n, "gemm::{what}: B is not {k}x{n}");
    assert_eq!(out.len(), m * n, "gemm::{what}: C is not {m}x{n}");
}

static HITS_BLOCKED: AtomicU64 = AtomicU64::new(0);
static HITS_SIMD: AtomicU64 = AtomicU64::new(0);
static HITS_BANDED: AtomicU64 = AtomicU64::new(0);

/// Per-path hit counts of the [`nn`]/[`tn`]/[`nt`] dispatchers (see
/// [`dispatch_counts`]). The field set is read by name by the
/// benchmark, so it outlives the tiers three of its names came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchCounts {
    /// [`nt`] products small enough to run its direct scalar
    /// dot-product loop instead of packing `Bᵀ` (the name dates from
    /// the scalar cache-blocked tier that used to share this counter).
    pub blocked: u64,
    /// Serial products on the 8-wide kernel.
    pub simd: u64,
    /// Products row-banded across the worker pool (each counted once,
    /// regardless of band count).
    pub banded: u64,
    /// Always 0: the multi-model batched entry points this counted are
    /// gone; validation's products tally under `simd` like any other.
    pub batched: u64,
    /// Always 0: the FMA tier this counted is gone.
    pub fma: u64,
}

/// Process-wide tally of which path each dispatcher call took since
/// start-up. Only the dispatchers count; calling `naive_*` directly
/// does not. Intended for perf forensics — the benchmark reports these
/// per round so a perf change can be attributed to dispatch vs kernel
/// changes.
pub fn dispatch_counts() -> DispatchCounts {
    DispatchCounts {
        blocked: HITS_BLOCKED.load(Ordering::Relaxed),
        simd: HITS_SIMD.load(Ordering::Relaxed),
        banded: HITS_BANDED.load(Ordering::Relaxed),
        batched: 0,
        fma: 0,
    }
}

/// Reference kernel `C += A·B` (`A` is `m×k`, `B` is `k×n`, row-major).
///
/// Branch-free i-k-j triple loop; the correctness oracle for the
/// 8-wide and parallel paths.
///
/// # Panics
///
/// Panics if a slice length does not match its shape.
pub fn naive_nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    check(m, k, n, a, b, out, "naive_nn");
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (kk, &av) in a_row.iter().enumerate() {
            let b_row = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// Reference kernel `C += Aᵀ·B` (`A` is `ra×ca`, `B` is `ra×n`, `C` is
/// `ca×n`), without materialising the transpose.
///
/// # Panics
///
/// Panics if a slice length does not match its shape.
pub fn naive_tn(ra: usize, ca: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), ra * ca, "gemm::naive_tn: A is not {ra}x{ca}");
    assert_eq!(b.len(), ra * n, "gemm::naive_tn: B is not {ra}x{n}");
    assert_eq!(out.len(), ca * n, "gemm::naive_tn: C is not {ca}x{n}");
    for kk in 0..ra {
        let a_row = &a[kk * ca..(kk + 1) * ca];
        let b_row = &b[kk * n..(kk + 1) * n];
        for (i, &av) in a_row.iter().enumerate() {
            let out_row = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// Reference kernel `C += A·Bᵀ` (`A` is `m×k`, `B` is `n×k`, `C` is
/// `m×n`), without materialising the transpose.
///
/// # Panics
///
/// Panics if a slice length does not match its shape.
pub fn naive_nt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm::naive_nt: A is not {m}x{k}");
    assert_eq!(b.len(), n * k, "gemm::naive_nt: B is not {n}x{k}");
    assert_eq!(out.len(), m * n, "gemm::naive_nt: C is not {m}x{n}");
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = out[i * n + j];
            for (&av, &bv) in a_row.iter().zip(b_row) {
                acc += av * bv;
            }
            out[i * n + j] = acc;
        }
    }
}

/// Whether the running CPU supports AVX2, checked once. The kernel
/// bodies are compiled twice — once with the AVX2 feature
/// enabled (so [`F32x8`] becomes one 256-bit register) and once at the
/// build's baseline ISA — and this picks between them at run time.
#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
}

/// The kernel: `out[i·n + j] += Σ_{kk<depth} a_at(i, kk) · b[kk·n + j]`
/// for every row `i < rows` and column `j < n`, in ascending-`kk` order
/// per element. Columns are walked in blocks of up to 64 — eight 8-lane
/// accumulators, enough independent add chains to hide FP-add latency —
/// and each block is finished for all rows before the next starts, so
/// its band of `B` stays cache-resident; the `n mod 64` columns left
/// over form one last, narrower block ([`simd_cols`] explains how a
/// width that is not a multiple of 8 is covered). Only `n < 8` runs
/// scalar.
#[inline(always)]
fn simd_rows(
    rows: usize,
    depth: usize,
    a_at: impl Fn(usize, usize) -> f32,
    b: &[f32],
    n: usize,
    out: &mut [f32],
) {
    const JW: usize = 8 * LANES;
    if n < LANES {
        for (i, out_row) in out.chunks_exact_mut(n.max(1)).enumerate() {
            for (j, o) in out_row.iter_mut().enumerate() {
                let mut acc = *o;
                for kk in 0..depth {
                    acc += a_at(i, kk) * b[kk * n + j];
                }
                *o = acc;
            }
        }
        return;
    }
    let mut j = 0;
    while j + JW <= n {
        simd_cols::<8>(rows, depth, &a_at, b, n, j, j + JW, out);
        j += JW;
    }
    // The accumulator count is a const parameter so the accumulators
    // are registers, not an indexed stack array.
    match (n - j).div_ceil(LANES) {
        0 => {}
        1 => simd_cols::<1>(rows, depth, &a_at, b, n, j, n, out),
        2 => simd_cols::<2>(rows, depth, &a_at, b, n, j, n, out),
        3 => simd_cols::<3>(rows, depth, &a_at, b, n, j, n, out),
        4 => simd_cols::<4>(rows, depth, &a_at, b, n, j, n, out),
        5 => simd_cols::<5>(rows, depth, &a_at, b, n, j, n, out),
        6 => simd_cols::<6>(rows, depth, &a_at, b, n, j, n, out),
        7 => simd_cols::<7>(rows, depth, &a_at, b, n, j, n, out),
        _ => simd_cols::<8>(rows, depth, &a_at, b, n, j, n, out),
    }
}

/// One column block of [`simd_rows`]: columns `j..end` (`end − j ≤ 64`,
/// `end ≥ 8`) of every row under `Q = ⌈(end−j)/8⌉` accumulators, held
/// in registers across a `KC`-deep `k` sweep so the output is loaded
/// and stored once per sweep while they advance through `k` together.
/// Accumulators `0..Q−1` sit at `j, j+8, …`; the last one is loaded at
/// columns `end−8..end`, so when the width is not a multiple of 8 it
/// *overlaps* its left neighbour (or, when fewer than 8 columns remain
/// behind a 64-block, columns that block already finished). An
/// overlapped lane is harmless to compute — lanes are independent —
/// but what it holds is either a duplicate of its neighbour's lane or
/// a double count of this sweep, so only the lanes from column
/// `j + 8(Q−1)` on are stored: every output element is written by
/// exactly one lane, which saw exactly the scalar multiply-then-add
/// sequence.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn simd_cols<const Q: usize>(
    rows: usize,
    depth: usize,
    a_at: &impl Fn(usize, usize) -> f32,
    b: &[f32],
    n: usize,
    j: usize,
    end: usize,
    out: &mut [f32],
) {
    let own = j + (Q - 1) * LANES; // first column only the last accumulator covers
    let lo = j.min(end - LANES);
    let w = end - lo;
    for i in 0..rows {
        let out_row = &mut out[i * n + lo..i * n + end];
        for k0 in (0..depth).step_by(KC) {
            let mut c = [F32x8::default(); Q];
            for (q, cq) in c[..Q - 1].iter_mut().enumerate() {
                *cq = F32x8::load(&out_row[q * LANES..]);
            }
            c[Q - 1] = F32x8::load(&out_row[w - LANES..]);
            for kk in k0..(k0 + KC).min(depth) {
                let av = F32x8::splat(a_at(i, kk));
                // One window per `B` row, then constant offsets into a
                // constant-length head: the bounds checks fold away.
                let r = &b[kk * n + lo..kk * n + end];
                let head = &r[..(Q - 1) * LANES];
                for (q, cq) in c[..Q - 1].iter_mut().enumerate() {
                    cq.mul_add_assign(av, F32x8::load(&head[q * LANES..]));
                }
                c[Q - 1].mul_add_assign(av, F32x8::load(&r[w - LANES..]));
            }
            for (q, cq) in c[..Q - 1].iter().enumerate() {
                cq.store(&mut out_row[q * LANES..]);
            }
            let mut lanes = [0.0f32; LANES];
            c[Q - 1].store(&mut lanes);
            out_row[own - lo..].copy_from_slice(&lanes[LANES - (end - own)..]);
        }
    }
}

/// The [`simd_nn`] loop body, generic over the target features of its
/// instantiation site (see [`avx2_available`]).
#[inline(always)]
fn simd_nn_body(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    simd_rows(m, k, |i, kk| a[i * k + kk], b, n, out);
}

/// [`simd_nn_body`] compiled with AVX2 enabled, regardless of the
/// build's baseline target features.
///
/// # Safety
///
/// The caller must have verified that the CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn simd_nn_avx2(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    simd_nn_body(m, k, n, a, b, out);
}

/// The serial 8-wide `C += A·B` kernel every `nn`-shaped dispatcher (and
/// each of its pool bands) runs. Bit-identical to
/// [`naive_nn`] for every shape (see the module docs on why lanes
/// preserve the per-element accumulation order). Callers have checked
/// the slice lengths.
fn simd_nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 support was just verified at run time.
        unsafe { simd_nn_avx2(m, k, n, a, b, out) };
        return;
    }
    simd_nn_body(m, k, n, a, b, out);
}

/// The [`simd_tn_cols`] loop body, generic over the target features of
/// its instantiation site.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn simd_tn_cols_body(
    ra: usize,
    ca: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    i0: usize,
    i1: usize,
    out: &mut [f32],
) {
    simd_rows(i1 - i0, ra, |i, kk| a[kk * ca + i0 + i], b, n, out);
}

/// [`simd_tn_cols_body`] compiled with AVX2 enabled.
///
/// # Safety
///
/// The caller must have verified that the CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn simd_tn_cols_avx2(
    ra: usize,
    ca: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    i0: usize,
    i1: usize,
    out: &mut [f32],
) {
    simd_tn_cols_body(ra, ca, n, a, b, i0, i1, out);
}

/// The serial 8-wide `C += Aᵀ·B` kernel over output rows (= `A` columns)
/// `i0..i1` only, writing into the `(i1-i0)×n` band `out`. The `A` value
/// for step `kk` is the strided load `a[kk·ca + i]`; per-element order is
/// unchanged, so it is bit-identical to [`naive_tn`] for every shape.
#[allow(clippy::too_many_arguments)]
fn simd_tn_cols(
    ra: usize,
    ca: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    i0: usize,
    i1: usize,
    out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 support was just verified at run time.
        unsafe { simd_tn_cols_avx2(ra, ca, n, a, b, i0, i1, out) };
        return;
    }
    simd_tn_cols_body(ra, ca, n, a, b, i0, i1, out);
}

/// Transposes the row-major `rows×cols` slice `src` into `dst`
/// (`cols×rows`). Used by [`nt`] to reach the 8-wide kernel.
fn transpose_into(rows: usize, cols: usize, src: &[f32], dst: &mut [f32]) {
    debug_assert_eq!(src.len(), rows * cols);
    debug_assert_eq!(dst.len(), rows * cols);
    for i in 0..rows {
        for j in 0..cols {
            dst[j * rows + i] = src[i * cols + j];
        }
    }
}

/// `C += A·B` dispatcher: the serial kernel for small products,
/// row-banded across the worker pool once `m·k·n` reaches the parallel
/// threshold. Always bit-identical to [`naive_nn`].
///
/// # Panics
///
/// Panics if a slice length does not match its shape.
pub fn nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    check(m, k, n, a, b, out, "nn");
    let t = pool::threads();
    if t > 1 && m >= 2 && work(m, k, n) >= PAR_MIN_WORK {
        HITS_BANDED.fetch_add(1, Ordering::Relaxed);
        let band_rows = m.div_ceil(t.min(m));
        let tasks: Vec<pool::ScopedTask<'_>> = out
            .chunks_mut(band_rows * n)
            .enumerate()
            .map(|(band, chunk)| {
                let i0 = band * band_rows;
                let rows = chunk.len() / n;
                let a_band = &a[i0 * k..(i0 + rows) * k];
                Box::new(move || simd_nn(rows, k, n, a_band, b, chunk)) as pool::ScopedTask<'_>
            })
            .collect();
        pool::join_all(tasks);
    } else {
        HITS_SIMD.fetch_add(1, Ordering::Relaxed);
        simd_nn(m, k, n, a, b, out);
    }
}

/// `C += Aᵀ·B` dispatcher: the serial kernel for small products,
/// output-row-banded across the worker pool for large ones. Always
/// bit-identical to [`naive_tn`].
///
/// # Panics
///
/// Panics if a slice length does not match its shape.
pub fn tn(ra: usize, ca: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), ra * ca, "gemm::tn: A is not {ra}x{ca}");
    assert_eq!(b.len(), ra * n, "gemm::tn: B is not {ra}x{n}");
    assert_eq!(out.len(), ca * n, "gemm::tn: C is not {ca}x{n}");
    let t = pool::threads();
    if t > 1 && ca >= 2 && work(ra, ca, n) >= PAR_MIN_WORK {
        HITS_BANDED.fetch_add(1, Ordering::Relaxed);
        let band_rows = ca.div_ceil(t.min(ca));
        let tasks: Vec<pool::ScopedTask<'_>> = out
            .chunks_mut(band_rows * n)
            .enumerate()
            .map(|(band, chunk)| {
                let i0 = band * band_rows;
                let i1 = i0 + chunk.len() / n;
                Box::new(move || simd_tn_cols(ra, ca, n, a, b, i0, i1, chunk))
                    as pool::ScopedTask<'_>
            })
            .collect();
        pool::join_all(tasks);
    } else {
        HITS_SIMD.fetch_add(1, Ordering::Relaxed);
        simd_tn_cols(ra, ca, n, a, b, 0, ca, out);
    }
}

/// `C += A·Bᵀ` dispatcher (`B` is `n×k`): tiny products run the direct
/// dot-product loop (tallied under `blocked`, see [`DispatchCounts`]);
/// larger ones pack `Bᵀ` once and go through [`nn`] (and so inherit its
/// kernel, banding and tally). Always bit-identical to
/// [`naive_nt`] — the packed path performs the same per-element adds in
/// the same k order.
///
/// # Panics
///
/// Panics if a slice length does not match its shape.
pub fn nt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm::nt: A is not {m}x{k}");
    assert_eq!(b.len(), n * k, "gemm::nt: B is not {n}x{k}");
    assert_eq!(out.len(), m * n, "gemm::nt: C is not {m}x{n}");
    if work(m, k, n) < NT_PACK_MIN_WORK {
        HITS_BLOCKED.fetch_add(1, Ordering::Relaxed);
        naive_nt(m, k, n, a, b, out);
    } else {
        // The Bᵀ pack scratch is thread-local so the training hot path
        // (Dense::backward's dx = δ·Wᵀ lands exactly at the pack
        // threshold for common shapes) stops heap-allocating per call.
        // `transpose_into` overwrites every element, so reuse cannot
        // change any result; nothing below re-enters `nt`, so the
        // RefCell can never be borrowed twice.
        NT_PACK_SCRATCH.with(|cell| {
            let mut bt = cell.borrow_mut();
            bt.resize(k * n, 0.0);
            transpose_into(n, k, b, &mut bt);
            nn(m, k, n, a, &bt, out);
        });
    }
}

thread_local! {
    /// Reusable Bᵀ pack buffer for [`nt`]'s packed path.
    static NT_PACK_SCRATCH: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random fill with a sprinkling of exact zeros
    /// (the seed kernel's zero-skip made zeros a historical edge case).
    fn fill(n: usize, seed: u64) -> Vec<f32> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let v = ((s >> 33) as i32 % 1000) as f32 / 250.0;
                if v.abs() < 0.01 {
                    0.0
                } else {
                    v
                }
            })
            .collect()
    }

    fn assert_bits_eq(x: &[f32], y: &[f32], what: &str) {
        assert_eq!(x.len(), y.len());
        for (i, (a, b)) in x.iter().zip(y).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: element {i}: {a} vs {b}");
        }
    }

    /// Shapes covering 1×N / N×1 degeneracies, non-multiple-of-tile
    /// edges, SIMD tail widths (n ≡ 1, 7, 17 mod 8/32), and one product
    /// large enough to band across the pool.
    const SHAPES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (1, 40, 1),
        (1, 7, 300),
        (300, 7, 1),
        (3, 5, 2),
        (33, 65, 17),
        (100, 130, 70),
        (31, 257, 129),
        (150, 70, 130),
    ];

    /// `(n, k)` pairs around every edge of `simd_rows`: each accumulator
    /// count of the remainder block with and without an overlapped last
    /// accumulator, a remainder of fewer than 8 columns behind a
    /// 64-block (`n` = 65..71), the scalar `n < 8` loop, and depths on
    /// both sides of the `KC` sweep boundary. The tests below accumulate
    /// into a non-zero `C`, so a lane stored twice, or a sweep counted
    /// twice, fails bitwise.
    fn edge_shapes() -> impl Iterator<Item = (usize, usize)> {
        let ns = (1..=72).chain([95, 96, 97, 126, 127, 129, 135]);
        ns.flat_map(|n| [1, KC - 1, KC, KC + 1, 2 * KC + 37].map(move |k| (n, k)))
    }

    #[test]
    fn kernel_and_dispatched_nn_match_naive_exactly() {
        let shapes = SHAPES.iter().copied().chain(edge_shapes().map(|(n, k)| (3, k, n)));
        for (m, k, n) in shapes {
            let a = fill(m * k, 1);
            let b = fill(k * n, 2);
            let c0 = fill(m * n, 24);
            let mut want = c0.clone();
            naive_nn(m, k, n, &a, &b, &mut want);
            let mut got = c0.clone();
            simd_nn(m, k, n, &a, &b, &mut got);
            assert_bits_eq(&want, &got, &format!("simd_nn {m}x{k}x{n}"));
            let mut got = c0;
            nn(m, k, n, &a, &b, &mut got);
            assert_bits_eq(&want, &got, &format!("nn {m}x{k}x{n}"));
        }
    }

    #[test]
    fn kernel_and_dispatched_tn_match_naive_exactly() {
        let shapes = SHAPES.iter().copied().chain(edge_shapes().map(|(n, k)| (k, 3, n)));
        for (ra, ca, n) in shapes {
            let a = fill(ra * ca, 3);
            let b = fill(ra * n, 4);
            let c0 = fill(ca * n, 25);
            let mut want = c0.clone();
            naive_tn(ra, ca, n, &a, &b, &mut want);
            let mut got = c0.clone();
            simd_tn_cols(ra, ca, n, &a, &b, 0, ca, &mut got);
            assert_bits_eq(&want, &got, &format!("simd_tn_cols {ra}x{ca}x{n}"));
            let mut got = c0;
            tn(ra, ca, n, &a, &b, &mut got);
            assert_bits_eq(&want, &got, &format!("tn {ra}x{ca}x{n}"));
        }
    }

    #[test]
    fn dispatched_nt_matches_naive_exactly() {
        // Enough rows that every edge shape takes the packed path into
        // the kernel rather than the direct dot-product loop.
        let packed = |(n, k): (usize, usize)| (NT_PACK_MIN_WORK.div_ceil(k * n).max(3), k, n);
        for (m, k, n) in SHAPES.iter().copied().chain(edge_shapes().map(packed)) {
            let a = fill(m * k, 5);
            let b = fill(n * k, 6);
            let mut want = fill(m * n, 26);
            let mut got = want.clone();
            naive_nt(m, k, n, &a, &b, &mut want);
            nt(m, k, n, &a, &b, &mut got);
            assert_bits_eq(&want, &got, &format!("nt {m}x{k}x{n}"));
        }
    }

    /// On an AVX2 host the dispatchers never execute the baseline-ISA
    /// instantiations, so they are called directly here over the same
    /// edge shapes, and for `tn` also over a band that starts and ends
    /// inside the output.
    #[test]
    fn baseline_isa_bodies_match_naive_exactly() {
        for (n, k) in edge_shapes() {
            let m = 3;
            let a = fill(m * k, 14);
            let b = fill(k * n, 15);
            let mut want = fill(m * n, 16);
            let mut got = want.clone();
            naive_nn(m, k, n, &a, &b, &mut want);
            simd_nn_body(m, k, n, &a, &b, &mut got);
            assert_bits_eq(&want, &got, &format!("simd_nn_body {m}x{k}x{n}"));

            // Aᵀ·B with A = k×5: the full product, then rows 1..4 of it.
            let ca = 5;
            let a = fill(k * ca, 17);
            let mut want = fill(ca * n, 18);
            let mut got = want.clone();
            naive_tn(k, ca, n, &a, &b, &mut want);
            simd_tn_cols_body(k, ca, n, &a, &b, 0, ca, &mut got);
            assert_bits_eq(&want, &got, &format!("simd_tn_cols_body {k}x{ca}x{n}"));
            let mut band = fill(ca * n, 18)[n..4 * n].to_vec();
            simd_tn_cols_body(k, ca, n, &a, &b, 1, 4, &mut band);
            assert_bits_eq(&want[n..4 * n], &band, &format!("tn band {k}x{ca}x{n}"));
        }
    }

    #[test]
    fn kernel_accumulates_into_existing_output() {
        let (m, k, n) = (5, 9, 11);
        let a = fill(m * k, 7);
        let b = fill(k * n, 8);
        let mut want = fill(m * n, 9);
        let mut simd = want.clone();
        naive_nn(m, k, n, &a, &b, &mut want);
        simd_nn(m, k, n, &a, &b, &mut simd);
        assert_bits_eq(&want, &simd, "accumulate simd");
    }

    #[test]
    fn parallel_band_boundaries_are_exact() {
        // Wide enough that every band split the pool can pick still has
        // non-multiple-of-tile rows at its edges.
        let (m, k, n) = (151, 71, 131);
        let a = fill(m * k, 10);
        let b = fill(k * n, 11);
        let mut want = vec![0.0f32; m * n];
        naive_nn(m, k, n, &a, &b, &mut want);
        let mut got = vec![0.0f32; m * n];
        nn(m, k, n, &a, &b, &mut got);
        assert_bits_eq(&want, &got, "banded nn 151x71x131");
    }

    #[test]
    fn deep_k_sweeps_are_exact_across_the_kc_boundary() {
        // k > KC forces the kernel to store and reload its accumulators
        // between sweeps; the round-trip must be invisible.
        let (m, k, n) = (3, 2 * KC + 37, 41);
        let a = fill(m * k, 12);
        let b = fill(k * n, 13);
        let mut want = vec![0.0f32; m * n];
        naive_nn(m, k, n, &a, &b, &mut want);
        let mut got = vec![0.0f32; m * n];
        simd_nn(m, k, n, &a, &b, &mut got);
        assert_bits_eq(&want, &got, "simd_nn deep k");
        let mut want = vec![0.0f32; n * m];
        naive_tn(k, n, m, &b, &a, &mut want);
        let mut got = vec![0.0f32; n * m];
        simd_tn_cols(k, n, m, &b, &a, 0, n, &mut got);
        assert_bits_eq(&want, &got, "simd_tn_cols deep k");
    }

    #[test]
    fn empty_dimensions_are_noops() {
        let mut out = vec![0.0f32; 0];
        nn(0, 3, 0, &[], &fill(0, 1), &mut out);
        let mut out = vec![1.5f32; 4];
        nn(2, 0, 2, &[], &[], &mut out);
        assert_eq!(out, vec![1.5; 4], "k = 0 leaves C untouched");
        let mut out = vec![2.5f32; 4];
        nt(2, 0, 2, &[], &[], &mut out);
        assert_eq!(out, vec![2.5; 4], "nt with k = 0 leaves C untouched");
    }

    #[test]
    fn dispatch_counters_are_monotone_and_attributed() {
        // Counters are process-global and other tests run concurrently,
        // so assert monotone growth of the expected counter only.
        let before = dispatch_counts();
        let (m, k, n) = (4, 6, 5);
        let a = fill(m * k, 20);
        let b = fill(k * n, 21);
        let mut out = vec![0.0f32; m * n];
        nn(m, k, n, &a, &b, &mut out);
        let after = dispatch_counts();
        assert!(after.simd > before.simd, "serial dispatch not counted");

        // `nt` below the pack threshold is the only path under `blocked`.
        nt(m, k, n, &a, &b, &mut out); // `b` read as the n×k operand
        let tiny_nt = dispatch_counts();
        assert!(tiny_nt.blocked > after.blocked, "tiny nt not counted");
        assert_eq!((tiny_nt.batched, tiny_nt.fma), (0, 0), "no path tallies here any more");

        let (m, k, n) = (64, 64, 1024); // m·k·n = 2^22 ≥ PAR_MIN_WORK
        let a = fill(m * k, 22);
        let b = fill(k * n, 23);
        let mut out = vec![0.0f32; m * n];
        nn(m, k, n, &a, &b, &mut out);
        let banded = dispatch_counts();
        if pool::threads() > 1 {
            assert!(banded.banded > after.banded, "banded dispatch not counted");
        } else {
            assert!(banded.simd > tiny_nt.simd);
        }
    }
}
