//! Dependency-free deterministic random numbers for the SpLPG workspace.
//!
//! The container this reproduction builds in has no network access, so the
//! workspace cannot pull the `rand` crate. This module provides the small
//! slice of its API the workspace actually uses — seeded generators,
//! `gen`/`gen_range`/`gen_bool`, and slice shuffling — on top of two
//! classic, well-studied generators:
//!
//! * **SplitMix64** expands a single `u64` seed into the
//!   256-bit state of the main generator (and derives independent streams
//!   for parallel work);
//! * **xoshiro256++** ([`Xoshiro256pp`], aliased as [`rngs::StdRng`]) is
//!   the workhorse generator: 256-bit state, period `2^256 - 1`, passes
//!   BigCrush.
//!
//! The API mirrors `rand` 0.8 closely enough that call sites port with an
//! import swap: [`Rng`] is blanket-implemented for every [`RngCore`]
//! (including `&mut dyn RngCore` trait objects), [`SeedableRng`] provides
//! `seed_from_u64`, and [`seq::SliceRandom`] provides `shuffle`/`choose`.
//!
//! Determinism is the load-bearing property: every generator is a pure
//! function of its seed, and [`derive_stream`] gives parallel code a way to
//! assign each work item its own statistically-independent generator so
//! results do not depend on thread count or scheduling.
//!
//! # Examples
//!
//! ```
//! use splpg_rng::{Rng, SeedableRng};
//! use splpg_rng::seq::SliceRandom;
//!
//! let mut rng = splpg_rng::rngs::StdRng::seed_from_u64(7);
//! let x: f64 = rng.gen();
//! assert!((0.0..1.0).contains(&x));
//! let i = rng.gen_range(0..10usize);
//! assert!(i < 10);
//! let mut v = vec![1, 2, 3, 4, 5];
//! v.shuffle(&mut rng);
//! assert_eq!(v.len(), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Golden-ratio increment used by SplitMix64 and stream derivation.
const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64: a tiny, fast generator used to expand seeds.
///
/// Every distinct `u64` seed yields a full-period sequence; successive
/// outputs are used to initialize [`Xoshiro256pp`] state (the construction
/// recommended by the xoshiro authors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a SplitMix64 generator from a seed.
    pub(crate) fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit output.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// xoshiro256++: the workspace's standard generator.
///
/// 256-bit state, period `2^256 - 1`. Seeded via SplitMix64 so that any
/// `u64` seed (including 0) produces a well-mixed state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    fn from_splitmix(sm: &mut SplitMix64) -> Self {
        Xoshiro256pp { s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()] }
    }
}

/// Object-safe core of a random generator: raw integer output.
///
/// Mirrors `rand`'s `RngCore` so `Option<&mut dyn RngCore>` call sites (the
/// models' dropout hooks) port unchanged.
pub trait RngCore {
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 random bits (high half of [`RngCore::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl RngCore for Xoshiro256pp {
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

impl RngCore for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        SplitMix64::next_u64(self)
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }

    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
}

/// Construction from a `u64` seed, mirroring `rand`'s `SeedableRng`.
pub trait SeedableRng: Sized {
    /// Builds a generator whose entire stream is determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for Xoshiro256pp {
    fn seed_from_u64(seed: u64) -> Self {
        Xoshiro256pp::from_splitmix(&mut SplitMix64::new(seed))
    }
}

/// Derives the `stream`-th independent generator of a seeded family.
///
/// Parallel code gives each work item (seed node, partition, output row)
/// its own stream so the drawn values depend only on `(seed, stream)` —
/// never on which thread ran the item or in what order. Streams are spaced
/// by re-seeding SplitMix64 with a mixed combination, so distinct `stream`
/// values yield statistically independent sequences.
pub fn derive_stream(seed: u64, stream: u64) -> Xoshiro256pp {
    // Mix the stream index through one SplitMix64 round before combining so
    // that consecutive indices land in distant states.
    let mut mixer = SplitMix64::new(stream.wrapping_mul(GOLDEN_GAMMA) ^ seed.rotate_left(17));
    Xoshiro256pp::from_splitmix(&mut SplitMix64::new(seed ^ mixer.next_u64()))
}

/// Values drawable uniformly from a generator via [`Rng::gen`].
pub trait Standard: Sized {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 mantissa bits -> uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 24 mantissa bits -> uniform in [0, 1).
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // Use the high bit; low bits of some generators are weaker.
        rng.next_u64() >> 63 == 1
    }
}

macro_rules! standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Ranges drawable via [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Unbiased-enough integer draw in `[0, span)` via 128-bit multiply-shift.
///
/// The modulo bias of the multiply-shift construction is at most
/// `span / 2^64`, far below anything observable in this workspace's spans
/// (node counts, fan-outs), and it keeps the draw a fixed single call to
/// the generator — important for reproducibility across refactors.
fn draw_below(rng: &mut (impl RngCore + ?Sized), span: u64) -> u64 {
    debug_assert!(span > 0);
    ((u128::from(rng.next_u64()) * u128::from(span)) >> 64) as u64
}

macro_rules! range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                self.start.wrapping_add(draw_below(rng, span) as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(draw_below(rng, span + 1) as $t)
            }
        }
    )*};
}
range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! range_float {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let unit = <$t as Standard>::sample(rng);
                self.start + (self.end - self.start) * unit
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let unit = <$t as Standard>::sample(rng);
                lo + (hi - lo) * unit
            }
        }
    )*};
}
range_float!(f32, f64);

/// Convenience draws on top of [`RngCore`], mirroring `rand::Rng`.
///
/// Blanket-implemented for every `RngCore` (sized or not), so it works on
/// concrete generators and on `&mut dyn RngCore` alike.
pub trait Rng: RngCore {
    /// Uniform value of type `T` (floats in `[0, 1)`, full range for
    /// integers, fair coin for `bool`).
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Uniform value in `range` (half-open or inclusive).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Slice shuffling and choosing, mirroring `rand::seq::SliceRandom`.
pub mod seq {
    use super::{Rng, RngCore};

    /// Random operations on slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Fisher–Yates shuffle (uniform over permutations).
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

        /// Uniformly-chosen element, or `None` if empty.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}

/// Named generator aliases, mirroring `rand::rngs`.
pub mod rngs {
    /// The workspace's standard generator (xoshiro256++). The name matches
    /// `rand::rngs::StdRng` so seeded call sites port with an import swap.
    pub type StdRng = super::Xoshiro256pp;
}

#[cfg(test)]
mod tests {
    use super::seq::SliceRandom;
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference outputs for seed 1234567 from the public-domain
        // SplitMix64 implementation.
        let mut sm = SplitMix64::new(1234567);
        let first = sm.next_u64();
        let mut sm2 = SplitMix64::new(1234567);
        assert_eq!(first, sm2.next_u64(), "deterministic");
        assert_ne!(first, sm.next_u64(), "advances");
    }

    #[test]
    fn xoshiro_deterministic_and_distinct_seeds() {
        let mut a = Xoshiro256pp::seed_from_u64(42);
        let mut b = Xoshiro256pp::seed_from_u64(42);
        let mut c = Xoshiro256pp::seed_from_u64(43);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn unit_floats_in_range() {
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        for _ in 0..1000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            let y: f32 = rng.gen();
            assert!((0.0..1.0).contains(&y));
        }
    }

    #[test]
    fn gen_range_bounds_hold() {
        let mut rng = Xoshiro256pp::seed_from_u64(6);
        let mut seen = [false; 7];
        for _ in 0..500 {
            let v = rng.gen_range(3..10usize);
            assert!((3..10).contains(&v));
            seen[v - 3] = true;
            let w = rng.gen_range(-2..=2i32);
            assert!((-2..=2).contains(&w));
            let f = rng.gen_range(-1.5..=1.5f32);
            assert!((-1.5..=1.5).contains(&f));
        }
        assert!(seen.iter().all(|&s| s), "all residues hit");
    }

    #[test]
    fn gen_bool_frequency() {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "hits {hits}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Xoshiro256pp::seed_from_u64(8);
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "astronomically unlikely identity");
    }

    #[test]
    fn choose_covers_elements() {
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let v = [10, 20, 30];
        let mut seen = [false; 3];
        for _ in 0..200 {
            let &x = v.choose(&mut rng).unwrap();
            seen[(x / 10 - 1) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        let empty: [u8; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
    }

    #[test]
    fn dyn_rng_core_objects_work() {
        let mut rng = Xoshiro256pp::seed_from_u64(10);
        let dy: &mut dyn RngCore = &mut rng;
        let x: f32 = dy.gen();
        assert!((0.0..1.0).contains(&x));
        assert!(dy.gen_range(0..5u32) < 5);
    }

    #[test]
    fn derived_streams_independent_and_deterministic() {
        let a: Vec<u64> = {
            let mut r = derive_stream(1, 0);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let a2: Vec<u64> = {
            let mut r = derive_stream(1, 0);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = derive_stream(1, 1);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, a2);
        assert_ne!(a, b);
    }

    #[test]
    fn mean_of_unit_draws_near_half() {
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.gen::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
