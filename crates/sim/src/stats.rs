//! Measurement primitives: meters and latency histograms.
//!
//! The regenerators in `adcp-bench` report packets/s, keys/s, Gbps, goodput,
//! and latency percentiles; all of those are computed from the types here.

use crate::time::{Duration, SimTime};
use serde::Serialize;

/// Tracks bytes and packets over simulated time and converts to rates.
#[derive(Debug, Default, Clone, Serialize)]
pub struct Meter {
    /// Packets observed.
    pub pkts: u64,
    /// Wire bytes observed.
    pub wire_bytes: u64,
    /// Application-payload bytes observed.
    pub goodput_bytes: u64,
    /// Application data elements (keys, weights, rows) observed — the unit
    /// the paper argues switches should be rated in (§3.2: "the performance
    /// of a switch is connected to the rate of *keys* rather than the
    /// packets it can process").
    pub elements: u64,
}

impl Meter {
    /// Record one packet's contribution.
    pub fn record(&mut self, wire_bytes: u32, goodput_bytes: u32, elements: u32) {
        self.pkts += 1;
        self.wire_bytes += wire_bytes as u64;
        self.goodput_bytes += goodput_bytes as u64;
        self.elements += elements as u64;
    }

    /// Packets per second over the elapsed simulated time.
    pub fn pps(&self, elapsed: Duration) -> f64 {
        per_sec(self.pkts, elapsed)
    }

    /// Wire throughput in Gbps.
    pub fn gbps(&self, elapsed: Duration) -> f64 {
        per_sec(self.wire_bytes * 8, elapsed) / 1e9
    }

    /// Goodput in Gbps.
    pub fn goodput_gbps(&self, elapsed: Duration) -> f64 {
        per_sec(self.goodput_bytes * 8, elapsed) / 1e9
    }

    /// Data elements (keys) per second.
    pub fn elements_per_sec(&self, elapsed: Duration) -> f64 {
        per_sec(self.elements, elapsed)
    }
}

fn per_sec(count: u64, elapsed: Duration) -> f64 {
    let s = elapsed.as_secs_f64();
    if s <= 0.0 {
        0.0
    } else {
        count as f64 / s
    }
}

/// Log-linear latency histogram over picosecond durations.
///
/// Buckets: 64 per power-of-two decade, covering 1 ps to ~18 s. Error per
/// recorded sample is under 1.6%, plenty for percentile reporting.
#[derive(Debug, Clone, Serialize)]
pub struct LatencyHist {
    counts: Vec<u64>,
    total: u64,
    min: u64,
    max: u64,
    sum: u128,
    /// Samples beyond the last bucket's range, clamped into it on `record`.
    /// A nonzero count means the top percentiles are range-limited.
    overflow: u64,
}

const SUB_BUCKETS: u64 = 64;
const SUB_BITS: u32 = 6;

impl Default for LatencyHist {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHist {
    /// Empty histogram.
    pub fn new() -> Self {
        LatencyHist {
            counts: vec![0; ((64 - SUB_BITS as usize) + 1) * SUB_BUCKETS as usize],
            total: 0,
            min: u64::MAX,
            max: 0,
            sum: 0,
            overflow: 0,
        }
    }

    fn bucket_of(v: u64) -> usize {
        if v < SUB_BUCKETS {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros();
        let decade = (msb - SUB_BITS + 1) as u64;
        let sub = v >> (decade - 1); // in [SUB_BUCKETS, 2*SUB_BUCKETS)
        (decade * SUB_BUCKETS + (sub - SUB_BUCKETS)) as usize
    }

    fn bucket_low(idx: usize) -> u64 {
        let idx = idx as u64;
        if idx < SUB_BUCKETS {
            return idx;
        }
        let decade = idx / SUB_BUCKETS;
        let sub = idx % SUB_BUCKETS;
        (SUB_BUCKETS + sub) << (decade - 1)
    }

    /// Largest value that lands in bucket `idx` (inclusive upper bound).
    fn bucket_high(idx: usize) -> u64 {
        if idx + 1 >= ((64 - SUB_BITS as usize) + 1) * SUB_BUCKETS as usize {
            return u64::MAX;
        }
        Self::bucket_low(idx + 1) - 1
    }

    /// Center of bucket `idx`: the unbiased point estimate for any sample
    /// that landed there. (The lower bound — what `percentile_ps` used to
    /// return — biases every reported percentile low by up to one bucket
    /// width, ~1.6%.)
    fn bucket_mid(idx: usize) -> u64 {
        let low = Self::bucket_low(idx);
        let high = Self::bucket_high(idx);
        low + (high - low) / 2
    }

    /// Record a duration.
    pub fn record(&mut self, d: Duration) {
        let v = d.as_ps();
        let idx = Self::bucket_of(v);
        if idx < self.counts.len() {
            self.counts[idx] += 1;
        } else {
            // Beyond the histogram's range: clamp into the last bucket, but
            // count the clamp so range saturation is visible instead of
            // silently folding into an apparently in-range percentile.
            *self.counts.last_mut().unwrap() += 1;
            self.overflow += 1;
        }
        self.total += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.sum += v as u128;
    }

    /// Record the time between two simulation points.
    ///
    /// `to` must not precede `from`: debug builds assert, release builds
    /// saturate the span to zero — either way a mis-ordered timestamp pair
    /// can never underflow into a garbage bucket.
    pub fn record_span(&mut self, from: SimTime, to: SimTime) {
        debug_assert!(
            to >= from,
            "record_span: to ({to}) precedes from ({from}); span would underflow"
        );
        self.record(to.saturating_since(from));
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Smallest sample (ps), 0 if empty.
    pub fn min_ps(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample (ps), 0 if empty (consistent with [`min_ps`]).
    ///
    /// [`min_ps`]: LatencyHist::min_ps
    pub fn max_ps(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.max
        }
    }

    /// Samples that exceeded the histogram's range and were clamped into
    /// the last bucket by [`record`]. Nonzero means the top percentiles are
    /// range-limited and should be read as lower bounds.
    ///
    /// [`record`]: LatencyHist::record
    pub fn overflow_count(&self) -> u64 {
        self.overflow
    }

    /// Mean sample (ps), 0 if empty.
    pub fn mean_ps(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Bucket index holding the sample at quantile `q`, or `None` if empty.
    fn percentile_bucket(&self, q: f64) -> Option<usize> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(i);
            }
        }
        None
    }

    /// Approximate percentile (`q` in `[0, 1]`), returned as picoseconds.
    ///
    /// Returns the *midpoint* of the bucket holding the rank-`q` sample,
    /// clamped to the observed `[min, max]` so the tails never report a
    /// value outside what was actually recorded. (Returning the bucket
    /// lower bound, as this used to, biased every percentile low by up to
    /// a full bucket width.)
    pub fn percentile_ps(&self, q: f64) -> u64 {
        match self.percentile_bucket(q) {
            None => 0,
            Some(i) => Self::bucket_mid(i).clamp(self.min, self.max),
        }
    }

    /// Conservative upper bound on the percentile: the inclusive upper edge
    /// of the bucket holding the rank-`q` sample, clamped to the observed
    /// maximum. The true quantile is never above this value.
    pub fn percentile_upper_ps(&self, q: f64) -> u64 {
        match self.percentile_bucket(q) {
            None => 0,
            Some(i) => Self::bucket_high(i).min(self.max),
        }
    }

    /// Fold another histogram into this one. Because both sides share the
    /// same fixed bucket layout the merge is exact: percentiles of the
    /// merged histogram equal percentiles over the union of the two sample
    /// streams (to within the usual one-bucket resolution). This is what
    /// makes sliding-window SLO tracking cheap — keep one histogram per
    /// time slice and merge the window's slices on demand.
    pub fn merge(&mut self, other: &LatencyHist) {
        debug_assert_eq!(self.counts.len(), other.counts.len());
        for (dst, src) in self.counts.iter_mut().zip(&other.counts) {
            *dst += src;
        }
        self.total += other.total;
        if other.total > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.sum += other.sum;
        self.overflow += other.overflow;
    }
}

/// A compact summary row suitable for JSON output from the regenerators.
#[derive(Debug, Clone, Serialize)]
pub struct LatencySummary {
    /// Sample count.
    pub count: u64,
    /// Minimum, in nanoseconds.
    pub min_ns: f64,
    /// Mean, in nanoseconds.
    pub mean_ns: f64,
    /// Median, in nanoseconds.
    pub p50_ns: f64,
    /// 99th percentile, in nanoseconds.
    pub p99_ns: f64,
    /// Maximum, in nanoseconds.
    pub max_ns: f64,
}

impl From<&LatencyHist> for LatencySummary {
    fn from(h: &LatencyHist) -> Self {
        LatencySummary {
            count: h.count(),
            min_ns: h.min_ps() as f64 / 1e3,
            mean_ns: h.mean_ps() / 1e3,
            p50_ns: h.percentile_ps(0.50) as f64 / 1e3,
            p99_ns: h.percentile_ps(0.99) as f64 / 1e3,
            max_ns: h.max_ps() as f64 / 1e3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_equals_union_of_streams() {
        let mut a = LatencyHist::new();
        let mut b = LatencyHist::new();
        let mut union = LatencyHist::new();
        for i in 0..5_000u64 {
            let d = Duration(1 + i * 37 % 900_000);
            if i % 3 == 0 {
                a.record(d);
            } else {
                b.record(d);
            }
            union.record(d);
        }
        a.merge(&b);
        assert_eq!(a.count(), union.count());
        assert_eq!(a.min_ps(), union.min_ps());
        assert_eq!(a.max_ps(), union.max_ps());
        assert_eq!(a.mean_ps(), union.mean_ps());
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.percentile_ps(q), union.percentile_ps(q), "q={q}");
        }
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = LatencyHist::new();
        a.record(Duration(123));
        a.record(Duration(456));
        let before = (a.count(), a.min_ps(), a.max_ps(), a.percentile_ps(0.5));
        a.merge(&LatencyHist::new());
        assert_eq!(
            before,
            (a.count(), a.min_ps(), a.max_ps(), a.percentile_ps(0.5))
        );
        let mut empty = LatencyHist::new();
        empty.merge(&a);
        assert_eq!(empty.count(), a.count());
        assert_eq!(empty.min_ps(), a.min_ps());
    }

    #[test]
    fn meter_rates() {
        let mut m = Meter::default();
        // 1000 packets of 84 wire bytes / 32 goodput bytes / 8 elements
        // over 1 microsecond.
        for _ in 0..1000 {
            m.record(84, 32, 8);
        }
        let dt = Duration::from_us(1);
        assert!((m.pps(dt) - 1e9).abs() < 1.0);
        assert!((m.gbps(dt) - 672.0).abs() < 0.01);
        assert!((m.elements_per_sec(dt) - 8e9).abs() < 1.0);
        assert_eq!(m.pps(Duration::ZERO), 0.0);
    }

    #[test]
    fn hist_percentiles_roughly_correct() {
        let mut h = LatencyHist::new();
        for i in 1..=10_000u64 {
            h.record(Duration(i));
        }
        assert_eq!(h.count(), 10_000);
        let p50 = h.percentile_ps(0.5);
        assert!(
            (4_500..=5_500).contains(&p50),
            "p50 = {p50}, expected ~5000"
        );
        let p99 = h.percentile_ps(0.99);
        assert!(
            (9_300..=10_000).contains(&p99),
            "p99 = {p99}, expected ~9900"
        );
        assert_eq!(h.min_ps(), 1);
        assert_eq!(h.max_ps(), 10_000);
        assert!((h.mean_ps() - 5_000.5).abs() < 1.0);
    }

    #[test]
    fn hist_handles_extremes() {
        let mut h = LatencyHist::new();
        h.record(Duration(0));
        h.record(Duration(u64::MAX / 2));
        assert_eq!(h.count(), 2);
        assert_eq!(h.min_ps(), 0);
        assert!(h.percentile_ps(1.0) > 0);
        assert!(h.percentile_ps(1.0) <= h.max_ps());
        // Full u64 range fits in the bucket table, so nothing clamps.
        assert_eq!(h.overflow_count(), 0);
    }

    #[test]
    fn empty_hist_is_safe() {
        let h = LatencyHist::new();
        assert_eq!(h.percentile_ps(0.5), 0);
        assert_eq!(h.percentile_upper_ps(0.5), 0);
        assert_eq!(h.min_ps(), 0);
        assert_eq!(h.max_ps(), 0);
        assert_eq!(h.mean_ps(), 0.0);
        assert_eq!(h.overflow_count(), 0);
        let s = LatencySummary::from(&h);
        assert_eq!(s.count, 0);
        assert_eq!(s.max_ns, 0.0);
    }

    #[test]
    fn percentile_uses_bucket_midpoint_clamped_to_samples() {
        // A single repeated value: min == max, so every percentile must be
        // exactly that value (the midpoint clamp pins it).
        let mut h = LatencyHist::new();
        for _ in 0..100 {
            h.record(Duration(9_000));
        }
        assert_eq!(h.percentile_ps(0.5), 9_000);
        assert_eq!(h.percentile_ps(0.99), 9_000);
        assert_eq!(h.percentile_upper_ps(0.5), 9_000);

        // Uniform samples: the midpoint estimate must not sit at the bucket
        // lower bound (the old bias) and must bracket the true quantile
        // within one bucket width.
        let mut h = LatencyHist::new();
        for i in 1..=10_000u64 {
            h.record(Duration(i));
        }
        let p50 = h.percentile_ps(0.5);
        let p50_hi = h.percentile_upper_ps(0.5);
        assert!(p50 <= p50_hi, "midpoint {p50} above upper bound {p50_hi}");
        // The rank-5000 sample is 5000; its bucket is [4992, 5056).
        assert!(p50 > 4_992, "p50 = {p50} still sits at bucket_low");
        assert!((5_000..=5_056).contains(&p50_hi));
    }

    #[test]
    fn record_counts_range_overflow() {
        // The full-size table covers all of u64, so force the clamp path by
        // shrinking the table the way a smaller build profile might.
        let mut h = LatencyHist::new();
        h.counts.truncate(2 * SUB_BUCKETS as usize);
        h.record(Duration(5));
        h.record(Duration(u64::MAX / 4));
        assert_eq!(h.count(), 2);
        assert_eq!(h.overflow_count(), 1);
        // The clamped sample still lands in the last bucket.
        assert_eq!(*h.counts.last().unwrap(), 1);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "record_span"))]
    fn reversed_span_asserts_in_debug_and_saturates_in_release() {
        let mut h = LatencyHist::new();
        // A mis-ordered timestamp pair: debug builds trip the assert
        // (caught here), release builds saturate to a zero-width span
        // instead of underflowing into the top bucket.
        h.record_span(SimTime(100), SimTime(40));
        assert_eq!(h.count(), 1);
        assert_eq!(h.max_ps(), 0);
        assert_eq!(h.overflow_count(), 0);
    }

    #[test]
    fn summary_converts_units() {
        let mut h = LatencyHist::new();
        h.record_span(SimTime::ZERO, SimTime::from_ns(1000));
        let s = LatencySummary::from(&h);
        assert_eq!(s.count, 1);
        assert!((s.max_ns - 1000.0).abs() < 20.0, "log-linear bucket error");
    }
}
