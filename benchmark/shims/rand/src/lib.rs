//! Offline stand-in for `rand` 0.8, covering exactly what the BaFFLe
//! workspace calls: a seedable `StdRng` (xoshiro256++ seeded through
//! splitmix64), `Rng::{gen, gen_range, gen_bool}` and
//! `SliceRandom::shuffle`.
//!
//! The streams differ from the published crate's ChaCha12 `StdRng`, so
//! seeded results are reproducible against this shim only.

use std::ops::{Range, RangeInclusive};

/// The raw generator interface.
pub trait RngCore {
    /// The next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 uniformly distributed bits (the high half of a
    /// 64-bit draw — xoshiro's low bits are its weakest).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Generators constructible from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Builds the generator from `seed`; equal seeds give equal streams.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types `Rng::gen` can produce (the `Standard` distribution).
pub trait StandardSample: Sized {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

/// Uniform on `[0, 1)` with 24 bits of precision.
impl StandardSample for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Uniform on `[0, 1)` with 53 bits of precision.
impl StandardSample for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Uniform on `0..n` without modulo bias (Lemire's widening multiply
/// with rejection). `n == 0` stands for the full 2^64 span.
fn below<R: RngCore + ?Sized>(rng: &mut R, n: u64) -> u64 {
    if n == 0 {
        return rng.next_u64();
    }
    let mut m = rng.next_u64() as u128 * n as u128;
    if (m as u64) < n {
        let threshold = n.wrapping_neg() % n;
        while (m as u64) < threshold {
            m = rng.next_u64() as u128 * n as u128;
        }
    }
    (m >> 64) as u64
}

/// Types `Rng::gen_range` can sample uniformly.
pub trait SampleUniform: Sized + PartialOrd {
    /// Uniform on `lo..hi` (`inclusive == false`) or `lo..=hi`.
    fn sample_between<R: RngCore + ?Sized>(
        rng: &mut R,
        lo: Self,
        hi: Self,
        inclusive: bool,
    ) -> Self;
}

macro_rules! uniform_int {
    ($($t:ty => $wide:ty),* $(,)?) => {$(
        impl SampleUniform for $t {
            fn sample_between<R: RngCore + ?Sized>(
                rng: &mut R,
                lo: Self,
                hi: Self,
                inclusive: bool,
            ) -> Self {
                // Span as u64 via the same-width two's-complement
                // difference; an inclusive full range wraps to 0, which
                // `below` reads as the whole 2^64 span.
                let span = (hi.wrapping_sub(lo) as $wide as u64).wrapping_add(inclusive as u64);
                lo.wrapping_add(below(rng, span) as $t)
            }
        }
    )*};
}

uniform_int!(u16 => u16, u32 => u32, u64 => u64, usize => usize);

macro_rules! uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_between<R: RngCore + ?Sized>(
                rng: &mut R,
                lo: Self,
                hi: Self,
                inclusive: bool,
            ) -> Self {
                loop {
                    let x = lo + (hi - lo) * <$t as StandardSample>::sample(rng);
                    // Rounding can land exactly on `hi`; redraw to keep
                    // a half-open range half-open.
                    if inclusive || x < hi {
                        return x;
                    }
                }
            }
        }
    )*};
}

uniform_float!(f32, f64);

/// Range forms `Rng::gen_range` accepts.
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "cannot sample empty range");
        T::sample_between(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "cannot sample empty range");
        T::sample_between(rng, lo, hi, true)
    }
}

/// User-facing sampling methods, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// A value from the type's standard distribution.
    fn gen<T: StandardSample>(&mut self) -> T {
        T::sample(self)
    }

    /// A value uniform on `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, S>(&mut self, range: S) -> T
    where
        T: SampleUniform,
        S: SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p = {p} outside [0, 1]");
        if p >= 1.0 {
            return true;
        }
        // 2^64 · p fits a u64 for every p < 1.
        self.next_u64() < (p * 18_446_744_073_709_551_616.0) as u64
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Generator types.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256++.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // splitmix64 expands the seed, as the xoshiro authors
            // recommend; it never yields the all-zero state.
            let mut z = seed;
            let mut next = || {
                z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut x = z;
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                x ^ (x >> 31)
            };
            Self { s: [next(), next(), next(), next()] }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            out
        }
    }
}

/// Slice helpers.
pub mod seq {
    use super::Rng;

    /// Random operations on slices.
    pub trait SliceRandom {
        /// Shuffles in place (Fisher–Yates): every permutation is
        /// equally likely.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, rng.gen_range(0..=i));
            }
        }
    }
}
