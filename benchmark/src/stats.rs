//! Order statistics over repetition samples, and the FNV-1a digest used by
//! the determinism gate.

use serde::Serialize;

/// Median of a sample (mean of the two middle values for an even count).
/// Panics on an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method) gives
/// them — the rule the driver applies to this benchmark's outputs. A
/// single sample is its own quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    assert!(m > 0, "quartiles of an empty sample");
    if m == 1 {
        return (v[0], v[0]);
    }
    let q = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Nearest-rank percentile (`q` in 0..=1) of a sample.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    assert!(!v.is_empty(), "percentile of an empty sample");
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Summary of one metric over the timed repetitions.
#[derive(Debug, Clone, Serialize)]
pub struct Summary {
    /// Repetitions summarised.
    pub n: usize,
    /// Smallest value.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median — the reported value.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest value.
    pub max: f64,
}

impl Summary {
    /// Summarise a non-empty sample.
    pub fn of(xs: &[f64]) -> Summary {
        let (q1, q3) = quartiles(xs);
        Summary {
            n: xs.len(),
            min: xs.iter().copied().fold(f64::INFINITY, f64::min),
            q1,
            median: median(xs),
            q3,
            max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// Interquartile range as a share of the median (0 for a zero median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold bytes into an FNV-1a digest.
pub fn fnv_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h = (h ^ *b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Fold one word into an FNV-1a digest.
pub fn fnv_u64(h: u64, w: u64) -> u64 {
    fnv_bytes(h, &w.to_le_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 10.0);
        assert_eq!(percentile(&xs, 0.95), 19.0);
        assert_eq!(percentile(&xs, 1.0), 20.0);
        assert_eq!(percentile(&[4.0], 0.95), 4.0);
    }

    #[test]
    fn summary_and_spread() {
        let s = Summary::of(&[10.0, 11.0, 9.0, 10.5, 9.5]);
        assert_eq!((s.n, s.min, s.median, s.max), (5, 9.0, 10.0, 11.0));
        assert_eq!((s.q1, s.q3), (9.25, 10.75));
        assert!((s.spread() - 0.15).abs() < 1e-12);
    }

    #[test]
    fn fnv_known_vectors() {
        assert_eq!(fnv_bytes(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv_bytes(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv_u64(FNV_OFFSET, 1), fnv_u64(FNV_OFFSET, 2));
    }
}
