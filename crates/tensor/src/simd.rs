//! Explicit 8-wide `f32` lanes for the GEMM micro-kernels.
//!
//! [`F32x8`] is a plain `[f32; 8]` wrapper whose arithmetic is written as
//! fixed-count lane loops; rustc/LLVM lower those to the widest vector
//! unit the target offers (a pair of SSE2 registers on baseline x86-64,
//! one AVX register with `-C target-cpu=native`) without unstable
//! `portable_simd` or an external crate. Lanes never mix — there is no
//! horizontal reduction anywhere — so a kernel built on these lanes
//! performs, per output element, exactly the scalar operation sequence of
//! the naive reference and stays bit-identical to it. No fused
//! multiply-add is emitted either: [`F32x8::mul_add_assign`] is a
//! separate IEEE multiply then add, the same two roundings the naive
//! oracle performs.

/// Number of lanes in a [`F32x8`].
pub const LANES: usize = 8;

/// Eight independent `f32` lanes.
#[derive(Clone, Copy, Debug, Default)]
#[repr(transparent)]
pub struct F32x8([f32; LANES]);

impl F32x8 {
    /// Broadcasts `v` into every lane.
    #[inline(always)]
    pub fn splat(v: f32) -> Self {
        Self([v; LANES])
    }

    /// Loads the first eight values of `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s.len() < 8`.
    #[inline(always)]
    pub fn load(s: &[f32]) -> Self {
        let mut lanes = [0.0f32; LANES];
        lanes.copy_from_slice(&s[..LANES]);
        Self(lanes)
    }

    /// Stores the lanes into the first eight slots of `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d.len() < 8`.
    #[inline(always)]
    pub fn store(self, d: &mut [f32]) {
        d[..LANES].copy_from_slice(&self.0);
    }

    /// Per lane `self[l] += a[l] * b[l]` — multiply, then add, two
    /// roundings, exactly like the scalar `acc += av * bv`.
    #[inline(always)]
    pub fn mul_add_assign(&mut self, a: Self, b: Self) {
        for l in 0..LANES {
            self.0[l] += a.0[l] * b.0[l];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_are_independent_and_exact() {
        let a = [1.5f32, -2.0, 0.25, 3.0, -0.5, 8.0, 1e-3, -7.5];
        let b = [2.0f32, 0.5, -4.0, 1.0, 1.0, 0.125, 3.0, 2.0];
        let mut acc = F32x8::splat(1.0);
        acc.mul_add_assign(F32x8::load(&a), F32x8::load(&b));
        let mut out = [0.0f32; LANES];
        acc.store(&mut out);
        for l in 0..LANES {
            let want = 1.0f32 + a[l] * b[l];
            assert_eq!(out[l].to_bits(), want.to_bits(), "lane {l}");
        }
    }

    #[test]
    fn splat_fills_every_lane() {
        let mut out = [0.0f32; LANES];
        F32x8::splat(-3.25).store(&mut out);
        assert!(out.iter().all(|&v| v == -3.25));
    }
}
