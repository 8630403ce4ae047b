//! Deterministic randomness for the simulator.
//!
//! Every source of randomness in the reproduction flows through [`SimRng`],
//! seeded explicitly, so that a run is exactly reproducible from its seed.
//! This is the invariant the determinism tests in `tests/` rely on.
//!
//! The generator is a self-contained xoshiro256** (Blackman & Vigna) seeded
//! through SplitMix64 — the offline build environment cannot fetch the `rand`
//! crate, and owning the generator also pins the random streams across
//! platforms and toolchain upgrades.

/// A seeded pseudo-random number generator.
///
/// Same seed → same stream, everywhere, forever; experiment reproducibility
/// depends on it. Provides the handful of draws the simulator needs so call
/// sites never touch raw generator state.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Create from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        let mut x = seed;
        SimRng {
            s: [
                splitmix64(&mut x),
                splitmix64(&mut x),
                splitmix64(&mut x),
                splitmix64(&mut x),
            ],
        }
    }

    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, n)` without modulo bias (rejection sampling).
    fn bounded(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        let threshold = n.wrapping_neg() % n;
        loop {
            let r = self.next_u64();
            if r >= threshold {
                return r % n;
            }
        }
    }

    /// Uniform draw from a (half-open or inclusive) range.
    pub fn range<T, R>(&mut self, r: R) -> T
    where
        R: RangeSample<T>,
    {
        r.sample(self)
    }

    /// Uniform f64 in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// Raw 64-bit draw.
    pub fn u64(&mut self) -> u64 {
        self.next_u64()
    }

    /// Shuffle a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.bounded(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Pick a uniformly random element index for a non-empty slice length.
    pub fn index(&mut self, len: usize) -> usize {
        assert!(len > 0, "cannot pick from empty range");
        self.bounded(len as u64) as usize
    }
}

/// Ranges [`SimRng::range`] can sample from, implemented for half-open and
/// inclusive ranges over the integer types the simulator uses.
pub trait RangeSample<T> {
    /// Draw a uniform sample from this range.
    fn sample(self, rng: &mut SimRng) -> T;
}

macro_rules! impl_range_sample {
    ($($t:ty),*) => {$(
        impl RangeSample<$t> for std::ops::Range<$t> {
            fn sample(self, rng: &mut SimRng) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = self.end.wrapping_sub(self.start) as u64;
                self.start.wrapping_add(rng.bounded(span) as $t)
            }
        }
        impl RangeSample<$t> for std::ops::RangeInclusive<$t> {
            fn sample(self, rng: &mut SimRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi.wrapping_sub(lo) as u64).wrapping_add(1);
                if span == 0 {
                    // Full-width range: every value is fair game.
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(rng.bounded(span) as $t)
            }
        }
    )*};
}

impl_range_sample!(u8, u16, u32, u64, usize, i32, i64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(42);
        let mut b = SimRng::seed_from(42);
        for _ in 0..100 {
            assert_eq!(a.u64(), b.u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..64).filter(|_| a.u64() == b.u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed_from(0);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        let hits = (0..10_000).filter(|_| r.chance(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn shuffle_permutes() {
        let mut r = SimRng::seed_from(5);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle should change order");
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = SimRng::seed_from(13);
        for _ in 0..1000 {
            let x = r.range(10..20u32);
            assert!((10..20).contains(&x));
            assert_eq!(r.range(5..=5u64), 5);
            let z = r.range(-4..4i32);
            assert!((-4..4).contains(&z));
        }
    }

    #[test]
    fn index_is_roughly_uniform() {
        let mut r = SimRng::seed_from(17);
        let mut buckets = [0u32; 8];
        for _ in 0..80_000 {
            buckets[r.index(8)] += 1;
        }
        for b in buckets {
            assert!((9_000..11_000).contains(&b), "bucket = {b}");
        }
    }
}
