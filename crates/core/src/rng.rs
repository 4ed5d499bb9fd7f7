//! The workspace's seeded random number generator.
//!
//! Every randomized component (instance generators, H1 and H6, the search
//! strategies, the factory simulation) draws from one concrete generator,
//! [`StdRng`]: xoshiro256++ with its state expanded from a 64-bit seed by
//! [`splitmix64`]. The same seed yields the same stream on every platform and
//! under every thread count, which is what the experiment harness and the
//! served answers rely on.

use crate::seed::splitmix64;
use std::ops::{Range, RangeInclusive};

/// A deterministic xoshiro256++ generator.
///
/// Small (4 words of state), fast and of excellent statistical quality for
/// simulation. Its streams are pinned by the workspace's `rng_streams` test.
#[derive(Debug, Clone)]
pub struct StdRng {
    s: [u64; 4],
}

impl StdRng {
    /// Builds the generator from a 64-bit seed: word `k` of the state is
    /// `splitmix64(seed + k·0x9E37_79B9_7F4A_7C15)`, the SplitMix64 stream
    /// from `seed`, which is never all zero.
    pub fn seed_from_u64(seed: u64) -> Self {
        let word = |k: u64| splitmix64(seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        StdRng {
            s: [word(0), word(1), word(2), word(3)],
        }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform sample from `range` (half-open or inclusive, integer or
    /// `f64`).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_from(self)
    }

    /// `true` with probability `p`, which must lie in `[0, 1]`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        debug_assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability out of range: {p}"
        );
        self.next_unit() < p
    }

    /// A uniformly random element of `items`, or `None` if it is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        (!items.is_empty()).then(|| &items[self.gen_range(0..items.len())])
    }

    /// A uniform `f64` in `[0, 1)` from the top 53 bits of the next word.
    fn next_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform value in `[0, bound)` by widening multiply (bias below
    /// 2⁻⁶⁴·bound, and branch-free).
    fn next_below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }
}

/// A range [`StdRng::gen_range`] can sample a uniform `T` from.
pub trait SampleRange<T> {
    /// Draws one uniform sample.
    fn sample_from(self, rng: &mut StdRng) -> T;
}

macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from(self, rng: &mut StdRng) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start + rng.next_below(span) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from(self, rng: &mut StdRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample from empty range");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if span == 0 {
                    // Full-width inclusive range: every word is valid.
                    return rng.next_u64() as $t;
                }
                lo + rng.next_below(span) as $t
            }
        }
    )*};
}
int_ranges!(usize, u64, u32);

impl SampleRange<f64> for Range<f64> {
    fn sample_from(self, rng: &mut StdRng) -> f64 {
        assert!(self.start < self.end, "cannot sample from empty range");
        self.start + rng.next_unit() * (self.end - self.start)
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    fn sample_from(self, rng: &mut StdRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "cannot sample from empty range");
        lo + rng.next_unit() * (hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::StdRng;

    #[test]
    fn deterministic_across_instances() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(
                a.gen_range(0..1_000_000usize),
                b.gen_range(0..1_000_000usize)
            );
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = rng.gen_range(3..17usize);
            assert!((3..17).contains(&x));
            let y = rng.gen_range(2.5..=9.5f64);
            assert!((2.5..=9.5).contains(&y));
            let z = rng.gen_range(0..=0usize);
            assert_eq!(z, 0);
        }
    }

    #[test]
    fn gen_bool_hits_both_sides_and_respects_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2_500..3_500).contains(&hits), "≈30% expected, got {hits}");
        assert!(!(0..1_000).any(|_| rng.gen_bool(0.0)));
        assert!((0..1_000).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn float_ranges_are_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(3);
        let mean = (0..20_000).map(|_| rng.gen_range(0.0..1.0f64)).sum::<f64>() / 20_000.0;
        assert!((mean - 0.5).abs() < 0.02, "uniform mean ≈ 0.5, got {mean}");
    }

    #[test]
    fn choose_is_uniformish_and_total() {
        let mut rng = StdRng::seed_from_u64(9);
        let items = [1, 2, 3, 4];
        let empty: [i32; 0] = [];
        assert!(rng.choose(&empty).is_none());
        let mut counts = [0usize; 4];
        for _ in 0..8_000 {
            counts[*rng.choose(&items).unwrap() as usize - 1] += 1;
        }
        assert!(counts.iter().all(|&c| c > 1_500), "counts {counts:?}");
    }
}
