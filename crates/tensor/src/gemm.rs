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
//! The multi-model validation path adds two *batched* entry points on
//! top of the same kernel: [`concat_nn`] (one shared left operand
//! against horizontally-concatenated right operands — a plain wide
//! product, tallied separately) and [`batched_nn`] (a block-diagonal
//! product: `nb` independent same-shape products laid out
//! contiguously, parallelised across blocks). Both preserve the
//! per-element accumulation order of the equivalent per-model calls.
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
//! verbatim. This is what lets seeded experiments reproduce exactly
//! regardless of `BAFFLE_THREADS` or the CPU they run on.
//!
//! # Register blocking
//!
//! 64 output columns (eight 8-lane accumulators, enough independent
//! dependency chains to hide add latency) are held in registers across
//! a `KC = 256`-deep `k` sweep, so the output is loaded and stored once
//! per sweep instead of once per `k`-step while `B` streams through in
//! 64-wide rows. On x86-64 the kernel body is additionally compiled with
//! AVX2 enabled and selected by a run-time CPU check, so an [`F32x8`] is
//! a single 256-bit register even when the build targets baseline SSE2;
//! both instantiations perform the same IEEE operations, so which one
//! runs is unobservable in the output.
//!
//! # Why one kernel (and the known defect it carries)
//!
//! Until PR 12 a scalar cache-blocked tier and an FMA-contracted tier
//! sat beside this kernel, each behind an environment switch. The
//! benchmark showed neither paid for its switch — DESIGN.md §12 keeps
//! the end-to-end medians and the kernel table at the shapes the system
//! runs. The one place the deleted tiers were faster is a defect of
//! `simd_row`: the `n mod 64` remainder columns run as
//! single-accumulator chains (96×62: 13.6 GFLOP/s where the blocked
//! kernel reached 24.1). Fixing that loop is the recorded follow-up
//! (target: 96×62 ≥ 24 GFLOP/s), not a reason for a second kernel.

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
static HITS_BATCHED: AtomicU64 = AtomicU64::new(0);

/// Per-path hit counts of the [`nn`]/[`tn`]/[`nt`] dispatchers (see
/// [`dispatch_counts`]). The field set is read by name by the
/// benchmark, so it outlives the tiers two of its names came from.
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
    /// Multi-model batched products: [`concat_nn`] and [`batched_nn`]
    /// calls (each counted once; these calls do not additionally tally
    /// the serial/banded paths they run on).
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
        batched: HITS_BATCHED.load(Ordering::Relaxed),
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

/// One register-blocked sweep: `out_row[j] += Σ_{kk=k0..k1} a_at(kk) ·
/// b[kk·n + j]` for every column `j` of the full `n`-wide row, in
/// ascending-`kk` order per column. Columns are walked 64 at a time
/// (eight 8-lane accumulators held in registers across the whole sweep
/// — enough independent add chains to hide FP-add latency, with the
/// `B` row hoisted to a fixed-size array so the inner loop carries a
/// single bounds check), then 8 at a time, then a scalar tail. A column
/// only ever lives in one lane of one accumulator, so each output
/// element sees exactly the scalar multiply-then-add sequence.
#[inline(always)]
fn simd_row(
    k0: usize,
    k1: usize,
    a_at: impl Fn(usize) -> f32,
    b: &[f32],
    n: usize,
    out_row: &mut [f32],
) {
    const JW: usize = 8 * LANES;
    let mut j = 0;
    while j + JW <= n {
        let mut c = [F32x8::default(); 8];
        for (q, cq) in c.iter_mut().enumerate() {
            *cq = F32x8::load(&out_row[j + q * LANES..]);
        }
        for kk in k0..k1 {
            let av = F32x8::splat(a_at(kk));
            let r: &[f32; JW] = b[kk * n + j..kk * n + j + JW].try_into().unwrap();
            c[0].mul_add_assign(av, F32x8::load(&r[0..]));
            c[1].mul_add_assign(av, F32x8::load(&r[LANES..]));
            c[2].mul_add_assign(av, F32x8::load(&r[2 * LANES..]));
            c[3].mul_add_assign(av, F32x8::load(&r[3 * LANES..]));
            c[4].mul_add_assign(av, F32x8::load(&r[4 * LANES..]));
            c[5].mul_add_assign(av, F32x8::load(&r[5 * LANES..]));
            c[6].mul_add_assign(av, F32x8::load(&r[6 * LANES..]));
            c[7].mul_add_assign(av, F32x8::load(&r[7 * LANES..]));
        }
        for (q, cq) in c.iter().enumerate() {
            cq.store(&mut out_row[j + q * LANES..]);
        }
        j += JW;
    }
    while j + LANES <= n {
        let mut c = F32x8::load(&out_row[j..]);
        for kk in k0..k1 {
            c.mul_add_assign(F32x8::splat(a_at(kk)), F32x8::load(&b[kk * n + j..]));
        }
        c.store(&mut out_row[j..]);
        j += LANES;
    }
    while j < n {
        let mut acc = out_row[j];
        for kk in k0..k1 {
            acc += a_at(kk) * b[kk * n + j];
        }
        out_row[j] = acc;
        j += 1;
    }
}

/// The [`simd_nn`] loop body, generic over the target features of its
/// instantiation site (see [`avx2_available`]).
#[inline(always)]
fn simd_nn_body(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for kb in (0..k).step_by(KC) {
            let kend = (kb + KC).min(k);
            simd_row(kb, kend, |kk| a_row[kk], b, n, out_row);
        }
    }
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
/// each of its pool bands and batched blocks) runs. Bit-identical to
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
    for i in i0..i1 {
        let out_row = &mut out[(i - i0) * n..(i - i0 + 1) * n];
        for kb in (0..ra).step_by(KC) {
            let kend = (kb + KC).min(ra);
            simd_row(kb, kend, |kk| a[kk * ca + i], b, n, out_row);
        }
    }
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
    nn_dispatch(m, k, n, a, b, out, true);
}

/// The [`nn`] dispatch body; `tally` lets [`concat_nn`] reuse it while
/// counting the call under `batched` only.
fn nn_dispatch(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32], tally: bool) {
    let t = pool::threads();
    if t > 1 && m >= 2 && work(m, k, n) >= PAR_MIN_WORK {
        if tally {
            HITS_BANDED.fetch_add(1, Ordering::Relaxed);
        }
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
        if tally {
            HITS_SIMD.fetch_add(1, Ordering::Relaxed);
        }
        simd_nn(m, k, n, a, b, out);
    }
}

/// Fused multi-model product `C += A·[B₀ | B₁ | … ]`: one shared left
/// operand against `nb` horizontally-concatenated `k×(n/nb)` right
/// operands (the caller packs them; `n` is the concatenated width).
/// Mathematically this *is* [`nn`] — column `j` of `C` depends only on
/// column `j` of the concatenated `B`, accumulated in the same
/// ascending-`k` order as a per-model call — so per-model slices of the
/// output are bit-identical to `nb` separate [`nn`] calls. The point of
/// the separate entry is amortisation (the `A` traversal, cache traffic
/// and pool hand-off are paid once for all models) and attribution:
/// calls tally under `batched` in [`dispatch_counts`], not under the
/// serial/banded counters.
///
/// # Panics
///
/// Panics if a slice length does not match its shape.
pub fn concat_nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    check(m, k, n, a, b, out, "concat_nn");
    HITS_BATCHED.fetch_add(1, Ordering::Relaxed);
    nn_dispatch(m, k, n, a, b, out, false);
}

/// Block-diagonal multi-model product: `nb` independent `C_i += A_i·B_i`
/// products (`A_i` is `m×k`, `B_i` is `k×n`), with all `A_i`, `B_i` and
/// `C_i` laid out contiguously in their respective slices. Each block
/// is computed by the serial kernel in the same per-element
/// accumulation order as a standalone [`nn`] call, so every block is
/// bit-identical to its sequential counterpart; blocks are fanned out
/// across the worker pool when the total work clears the parallel
/// threshold (blocks touch disjoint output rows).
/// Tallies under `batched` in [`dispatch_counts`].
///
/// # Panics
///
/// Panics if a slice length does not match its shape.
pub fn batched_nn(nb: usize, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), nb * m * k, "gemm::batched_nn: A is not {nb}·{m}x{k}");
    assert_eq!(b.len(), nb * k * n, "gemm::batched_nn: B is not {nb}·{k}x{n}");
    assert_eq!(out.len(), nb * m * n, "gemm::batched_nn: C is not {nb}·{m}x{n}");
    HITS_BATCHED.fetch_add(1, Ordering::Relaxed);
    if nb == 0 || m * n == 0 {
        return;
    }
    let t = pool::threads();
    if t > 1 && nb >= 2 && work(m, k, n).saturating_mul(nb) >= PAR_MIN_WORK {
        let tasks: Vec<pool::ScopedTask<'_>> = out
            .chunks_mut(m * n)
            .enumerate()
            .map(|(bi, chunk)| {
                let a_blk = &a[bi * m * k..(bi + 1) * m * k];
                let b_blk = &b[bi * k * n..(bi + 1) * k * n];
                Box::new(move || simd_nn(m, k, n, a_blk, b_blk, chunk)) as pool::ScopedTask<'_>
            })
            .collect();
        pool::join_all(tasks);
    } else {
        for bi in 0..nb {
            simd_nn(
                m,
                k,
                n,
                &a[bi * m * k..(bi + 1) * m * k],
                &b[bi * k * n..(bi + 1) * k * n],
                &mut out[bi * m * n..(bi + 1) * m * n],
            );
        }
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

    #[test]
    fn kernel_and_dispatched_nn_match_naive_exactly() {
        for &(m, k, n) in SHAPES {
            let a = fill(m * k, 1);
            let b = fill(k * n, 2);
            let mut want = vec![0.0f32; m * n];
            naive_nn(m, k, n, &a, &b, &mut want);
            let mut got = vec![0.0f32; m * n];
            simd_nn(m, k, n, &a, &b, &mut got);
            assert_bits_eq(&want, &got, &format!("simd_nn {m}x{k}x{n}"));
            let mut got = vec![0.0f32; m * n];
            nn(m, k, n, &a, &b, &mut got);
            assert_bits_eq(&want, &got, &format!("nn {m}x{k}x{n}"));
        }
    }

    #[test]
    fn kernel_and_dispatched_tn_match_naive_exactly() {
        for &(ra, ca, n) in SHAPES {
            let a = fill(ra * ca, 3);
            let b = fill(ra * n, 4);
            let mut want = vec![0.0f32; ca * n];
            naive_tn(ra, ca, n, &a, &b, &mut want);
            let mut got = vec![0.0f32; ca * n];
            simd_tn_cols(ra, ca, n, &a, &b, 0, ca, &mut got);
            assert_bits_eq(&want, &got, &format!("simd_tn_cols {ra}x{ca}x{n}"));
            let mut got = vec![0.0f32; ca * n];
            tn(ra, ca, n, &a, &b, &mut got);
            assert_bits_eq(&want, &got, &format!("tn {ra}x{ca}x{n}"));
        }
    }

    #[test]
    fn dispatched_nt_matches_naive_exactly() {
        for &(m, k, n) in SHAPES {
            let a = fill(m * k, 5);
            let b = fill(n * k, 6);
            let mut want = vec![0.0f32; m * n];
            naive_nt(m, k, n, &a, &b, &mut want);
            let mut got = vec![0.0f32; m * n];
            nt(m, k, n, &a, &b, &mut got);
            assert_bits_eq(&want, &got, &format!("nt {m}x{k}x{n}"));
        }
    }

    /// On an AVX2 host the dispatchers never execute the baseline-ISA
    /// instantiations, so they are called directly here: column counts
    /// on both sides of the 64-wide, 8-wide and scalar loops of
    /// `simd_row`, depths on both sides of the `KC` sweep boundary, and
    /// for `tn` a band that starts and ends inside the output.
    #[test]
    fn baseline_isa_bodies_match_naive_exactly() {
        for &n in &[1usize, 7, 8, 10, 62, 64, 96, 130] {
            for &k in &[1usize, KC - 1, KC, KC + 1, 2 * KC + 37] {
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
        assert_eq!(tiny_nt.fma, 0);

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

    #[test]
    fn concat_nn_matches_per_model_products() {
        let (nb, m, k, ne) = (3usize, 7usize, 9usize, 11usize);
        let a = fill(m * k, 40);
        let bs: Vec<Vec<f32>> = (0..nb).map(|bi| fill(k * ne, 41 + bi as u64)).collect();
        // Pack the per-model B's side by side: row kk of the wide B is
        // [B₀[kk] | B₁[kk] | B₂[kk]].
        let n = nb * ne;
        let mut wide = vec![0.0f32; k * n];
        for kk in 0..k {
            for (bi, bm) in bs.iter().enumerate() {
                wide[kk * n + bi * ne..kk * n + (bi + 1) * ne]
                    .copy_from_slice(&bm[kk * ne..(kk + 1) * ne]);
            }
        }
        let mut got = vec![0.0f32; m * n];
        concat_nn(m, k, n, &a, &wide, &mut got);
        for (bi, bm) in bs.iter().enumerate() {
            let mut want = vec![0.0f32; m * ne];
            nn(m, k, ne, &a, bm, &mut want);
            for i in 0..m {
                for j in 0..ne {
                    assert_eq!(
                        got[i * n + bi * ne + j].to_bits(),
                        want[i * ne + j].to_bits(),
                        "concat_nn model {bi} elem ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_nn_blocks_match_standalone_products_exactly() {
        for &(nb, m, k, n) in &[(1usize, 5usize, 9usize, 11usize), (4, 33, 17, 40), (3, 1, 7, 1)] {
            let a = fill(nb * m * k, 50);
            let b = fill(nb * k * n, 51);
            let c0 = fill(nb * m * n, 52);
            let mut got = c0.clone();
            batched_nn(nb, m, k, n, &a, &b, &mut got);
            for bi in 0..nb {
                let mut want = c0[bi * m * n..(bi + 1) * m * n].to_vec();
                nn(
                    m,
                    k,
                    n,
                    &a[bi * m * k..(bi + 1) * m * k],
                    &b[bi * k * n..(bi + 1) * k * n],
                    &mut want,
                );
                assert_bits_eq(
                    &want,
                    &got[bi * m * n..(bi + 1) * m * n],
                    &format!("batched_nn block {bi}"),
                );
            }
        }
    }

    #[test]
    fn batched_nn_handles_degenerate_shapes() {
        let mut out = vec![0.0f32; 0];
        batched_nn(0, 3, 4, 5, &[], &[], &mut out);
        batched_nn(2, 0, 4, 5, &[], &fill(2 * 4 * 5, 1), &mut out);
        let mut out = vec![1.25f32; 2 * 3 * 2];
        batched_nn(2, 3, 0, 2, &[], &[], &mut out);
        assert_eq!(out, vec![1.25f32; 12], "k = 0 blocks leave C untouched");
    }

    #[test]
    fn batched_entry_points_tally_under_batched() {
        let before = dispatch_counts();
        let (m, k, ne) = (4, 6, 5);
        let a = fill(m * k, 60);
        let wide = fill(k * ne * 2, 61);
        let mut out = vec![0.0f32; m * ne * 2];
        concat_nn(m, k, ne * 2, &a, &wide, &mut out);
        let b = fill(2 * k * ne, 62);
        let a2 = fill(2 * m * k, 63);
        let mut out = vec![0.0f32; 2 * m * ne];
        batched_nn(2, m, k, ne, &a2, &b, &mut out);
        let after = dispatch_counts();
        assert!(after.batched >= before.batched + 2, "batched calls not tallied");
    }
}
