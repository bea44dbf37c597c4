//! Offline stand-in for the [`rand`](https://crates.io/crates/rand) crate.
//!
//! The build environment for this workspace has no access to a cargo
//! registry, so the workspace vendors the *API surface it actually uses*
//! behind the same crate name: [`Rng`], [`SeedableRng`], [`rngs::StdRng`]
//! and [`rngs::SmallRng`]. The generator is xoshiro256** seeded through
//! SplitMix64 — deterministic, fast, and identical across platforms, which
//! is what the simulations need. The value streams do **not** match the
//! upstream `rand 0.8` streams; seeds only reproduce results within this
//! workspace.

use std::ops::{Range, RangeInclusive};

/// The low-level generator interface: a source of uniform `u64`s.
pub trait RngCore {
    /// Returns the next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 uniformly distributed bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types that can be sampled uniformly from the generator's raw output,
/// mirroring `rand`'s `Standard` distribution.
pub trait SampleStandard {
    /// Draws one value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_standard_int {
    ($($ty:ty),*) => {$(
        impl SampleStandard for $ty {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $ty
            }
        }
    )*};
}

impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleStandard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl SampleStandard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        unit_f64(rng.next_u64())
    }
}

impl SampleStandard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        unit_f64(rng.next_u64()) as f32
    }
}

/// Maps 64 random bits onto [0, 1) with 53 bits of precision.
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Ranges a value can be drawn from, mirroring `rand`'s `SampleRange`.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range. Panics on empty ranges.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_range_uint {
    ($($ty:ty),*) => {$(
        impl SampleRange<$ty> for Range<$ty> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $ty
            }
        }
        impl SampleRange<$ty> for RangeInclusive<$ty> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample empty range");
                let span = (end - start) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $ty;
                }
                start + (rng.next_u64() % (span + 1)) as $ty
            }
        }
    )*};
}

impl_range_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_range_int {
    ($($ty:ty),*) => {$(
        impl SampleRange<$ty> for Range<$ty> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i64).wrapping_sub(self.start as i64) as u64;
                self.start.wrapping_add((rng.next_u64() % span) as $ty)
            }
        }
        impl SampleRange<$ty> for RangeInclusive<$ty> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample empty range");
                let span = (end as i64).wrapping_sub(start as i64) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $ty;
                }
                start.wrapping_add((rng.next_u64() % (span + 1)) as $ty)
            }
        }
    )*};
}

impl_range_int!(i8, i16, i32, i64, isize);

macro_rules! impl_range_float {
    ($($ty:ty),*) => {$(
        impl SampleRange<$ty> for Range<$ty> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                assert!(self.start < self.end, "cannot sample empty range");
                let u = unit_f64(rng.next_u64()) as $ty;
                self.start + (self.end - self.start) * u
            }
        }
        impl SampleRange<$ty> for RangeInclusive<$ty> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample empty range");
                let u = unit_f64(rng.next_u64()) as $ty;
                start + (end - start) * u
            }
        }
    )*};
}

impl_range_float!(f32, f64);

/// The user-facing sampling interface, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a value from the standard (uniform) distribution of its type.
    fn gen<T: SampleStandard>(&mut self) -> T {
        T::sample(self)
    }

    /// Draws a value uniformly from `range`.
    fn gen_range<T, Ra: SampleRange<T>>(&mut self, range: Ra) -> T {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p` (clamped to [0, 1]).
    fn gen_bool(&mut self, p: f64) -> bool {
        unit_f64(self.next_u64()) < p.clamp(0.0, 1.0)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Generators that can be constructed from a seed.
pub trait SeedableRng: Sized {
    /// Creates a generator from a 64-bit seed via SplitMix64 expansion.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Mixes a base seed with a stream id and an index into an independent
/// sub-stream seed (SplitMix64-style finalizer over both inputs).
///
/// This is the canonical derivation every named per-entity stream in the
/// workspace routes through: same `(base, stream, index)` → same seed on
/// every platform, different streams/indices → decorrelated generators.
/// The simulation crates are not allowed to seed generators ad hoc — the
/// engine crate's clippy config bans `seed_from_u64` and points offenders
/// here (via the named constructors in `net::entities::streams`).
pub fn derive_stream_seed(base: u64, stream: u64, index: u64) -> u64 {
    let mut z = base
        .wrapping_add(stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The named stream-constructor surface: the one sanctioned way for
/// simulation code to build a generator for `(stream, index)`.
pub mod stream {
    use super::{derive_stream_seed, rngs::SmallRng, SeedableRng};

    /// A per-entity [`SmallRng`] on the given stream: byte-identical to
    /// `SmallRng::seed_from_u64(derive_stream_seed(base, stream, index))`,
    /// with the derivation spelled once, here.
    pub fn small_rng(base: u64, stream: u64, index: u64) -> SmallRng {
        SmallRng::seed_from_u64(derive_stream_seed(base, stream, index))
    }
}

/// SplitMix64 step, used to expand seeds into full generator state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// xoshiro256** core shared by [`rngs::StdRng`] and [`rngs::SmallRng`].
#[derive(Debug, Clone, PartialEq, Eq)]
struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // All-zero state would be a fixed point; SplitMix64 cannot produce
        // four zero outputs in a row, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E3779B97F4A7C15;
        }
        Xoshiro256 { s }
    }

    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// The concrete generators, under the same module path as upstream `rand`.
pub mod rngs {
    use super::{RngCore, SeedableRng, Xoshiro256};

    /// Stand-in for `rand::rngs::StdRng` (xoshiro256**, not ChaCha12).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng(Xoshiro256);

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng(Xoshiro256::seed_from_u64(seed))
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }
    }

    /// Stand-in for `rand::rngs::SmallRng` (xoshiro256**, per-entity use).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng(Xoshiro256);

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            // Decorrelate from StdRng streams seeded with the same value.
            SmallRng(Xoshiro256::seed_from_u64(seed ^ 0x5111_5111_5111_5111))
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::{SmallRng, StdRng};
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_across_instances() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x: f64 = rng.gen_range(0.0..1.0);
            assert!((0.0..1.0).contains(&x));
            let y = rng.gen_range(-0.3..0.3);
            assert!((-0.3..0.3).contains(&y));
            let z = rng.gen_range(0..32);
            assert!((0..32).contains(&z));
            let w = rng.gen_range(0..=1u8);
            assert!(w <= 1);
            let s = rng.gen_range(-5i32..=5);
            assert!((-5..=5).contains(&s));
        }
    }

    #[test]
    fn floats_cover_the_unit_interval() {
        let mut rng = StdRng::seed_from_u64(1);
        let draws: Vec<f64> = (0..2000).map(|_| rng.gen()).collect();
        let mean = draws.iter().sum::<f64>() / draws.len() as f64;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
        assert!(draws.iter().any(|&x| x < 0.1));
        assert!(draws.iter().any(|&x| x > 0.9));
    }

    #[test]
    fn gen_bool_respects_probability() {
        let mut rng = StdRng::seed_from_u64(3);
        let hits = (0..2000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((400..600).contains(&hits), "hits {hits}");
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn small_rng_differs_from_std_rng() {
        let mut small = SmallRng::seed_from_u64(42);
        let mut std = StdRng::seed_from_u64(42);
        assert_ne!(small.gen::<u64>(), std.gen::<u64>());
    }

    #[test]
    fn stream_seeds_separate_streams_and_indices() {
        let a = super::derive_stream_seed(1, 1, 0);
        let b = super::derive_stream_seed(1, 1, 1);
        let c = super::derive_stream_seed(1, 2, 0);
        let d = super::derive_stream_seed(2, 1, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_ne!(b, c);
    }

    #[test]
    fn stream_constructor_matches_manual_derivation() {
        let mut via_stream = super::stream::small_rng(42, 3, 7);
        let mut manual = SmallRng::seed_from_u64(super::derive_stream_seed(42, 3, 7));
        for _ in 0..16 {
            assert_eq!(via_stream.gen::<u64>(), manual.gen::<u64>());
        }
    }
}
