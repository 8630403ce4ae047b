//! Sliding-window SLO tracking: the daemon's eyes.
//!
//! Latency is aggregated per time slice into a [`LatencyHist`]; the
//! tracker keeps the last `window` slice histograms, merges them on
//! demand (exact — the log-linear histograms merge losslessly bucket by
//! bucket), and classifies each slice against the p50/p99 objectives.
//! The **burn rate** — the fraction of window slices in violation — is
//! the signal [`adcp_ctrl::Controller::tick_serving`] consumes: sustained
//! burn above the scale-up threshold grows the active central-pipe set,
//! sustained burn near zero shrinks it.
//!
//! Slices with no completed responses are counted in the window but are
//! never violations: an idle service is not missing its SLO, and a
//! drained window must decay the burn rate toward zero so the autoscaler
//! can release pipes during troughs.

use adcp_ctrl::SloSignal;
use adcp_sim::stats::LatencyHist;
use serde::Serialize;
use std::collections::VecDeque;

/// Latency objectives for one app, evaluated per slice.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct SloPolicy {
    /// Median objective, ns.
    pub p50_ns: u64,
    /// Tail objective, ns.
    pub p99_ns: u64,
    /// Sliding-window length, in slices.
    pub window: usize,
}

impl Default for SloPolicy {
    fn default() -> Self {
        SloPolicy {
            p50_ns: 2_000,
            p99_ns: 10_000,
            window: 8,
        }
    }
}

/// Verdict for one pushed slice.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct SliceVerdict {
    /// Responses completed in the slice.
    pub count: u64,
    /// Slice median, ns (0 when empty).
    pub p50_ns: u64,
    /// Slice tail, ns (0 when empty).
    pub p99_ns: u64,
    /// True when either objective was missed.
    pub violated: bool,
}

/// Sliding window of per-slice latency histograms with burn-rate math.
#[derive(Debug, Clone)]
pub struct SloTracker {
    policy: SloPolicy,
    window: VecDeque<(LatencyHist, bool)>,
    /// Lifetime latency across every slice ever pushed (exact merge).
    cumulative: LatencyHist,
    violations_total: u64,
    slices_total: u64,
}

impl SloTracker {
    /// Empty tracker for one app's policy.
    pub fn new(policy: SloPolicy) -> Self {
        assert!(policy.window > 0, "window must hold at least one slice");
        SloTracker {
            policy,
            window: VecDeque::with_capacity(policy.window + 1),
            cumulative: LatencyHist::new(),
            violations_total: 0,
            slices_total: 0,
        }
    }

    /// Push one slice's latency histogram; evicts the oldest slice once
    /// the window is full. Returns the slice verdict.
    pub fn push_slice(&mut self, h: LatencyHist) -> SliceVerdict {
        let count = h.count();
        let p50_ns = h.percentile_ps(0.50) / 1_000;
        let p99_ns = h.percentile_ps(0.99) / 1_000;
        let violated = count > 0 && (p50_ns > self.policy.p50_ns || p99_ns > self.policy.p99_ns);
        self.cumulative.merge(&h);
        self.window.push_back((h, violated));
        if self.window.len() > self.policy.window {
            self.window.pop_front();
        }
        self.slices_total += 1;
        if violated {
            self.violations_total += 1;
        }
        SliceVerdict {
            count,
            p50_ns,
            p99_ns,
            violated,
        }
    }

    /// Fraction of window slices currently in violation (0 when empty).
    pub fn burn_rate(&self) -> f64 {
        if self.window.is_empty() {
            return 0.0;
        }
        let v = self.window.iter().filter(|(_, bad)| *bad).count();
        v as f64 / self.window.len() as f64
    }

    /// True once the window holds its full complement of slices.
    pub fn window_full(&self) -> bool {
        self.window.len() >= self.policy.window
    }

    /// The autoscaler input for the current window.
    pub fn signal(&self) -> SloSignal {
        SloSignal {
            burn_rate: self.burn_rate(),
            window_full: self.window_full(),
        }
    }

    /// Lifetime latency histogram (all slices ever pushed).
    pub fn cumulative(&self) -> &LatencyHist {
        &self.cumulative
    }

    /// Slices pushed over the tracker's lifetime.
    pub fn slices_total(&self) -> u64 {
        self.slices_total
    }

    /// Violating slices over the tracker's lifetime.
    pub fn violations_total(&self) -> u64 {
        self.violations_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcp_sim::time::Duration;

    fn slice_at(ns: u64, n: u32) -> LatencyHist {
        let mut h = LatencyHist::new();
        for _ in 0..n {
            h.record(Duration::from_ns(ns));
        }
        h
    }

    fn policy() -> SloPolicy {
        SloPolicy {
            p50_ns: 1_000,
            p99_ns: 5_000,
            window: 4,
        }
    }

    #[test]
    fn burn_rate_tracks_violating_fraction_of_window() {
        let mut t = SloTracker::new(policy());
        assert_eq!(t.burn_rate(), 0.0);
        t.push_slice(slice_at(100, 10)); // fine
        t.push_slice(slice_at(100, 10)); // fine
        assert!(!t.window_full());
        let v = t.push_slice(slice_at(50_000, 10)); // way over tail
        assert!(v.violated);
        t.push_slice(slice_at(100, 10));
        assert!(t.window_full());
        assert!((t.burn_rate() - 0.25).abs() < 1e-9);
        // Violation rolls out of the window after 4 clean slices.
        for _ in 0..4 {
            t.push_slice(slice_at(100, 10));
        }
        assert_eq!(t.burn_rate(), 0.0);
        assert_eq!(t.violations_total(), 1);
        assert_eq!(t.slices_total(), 8);
    }

    #[test]
    fn empty_slices_fill_the_window_without_violating() {
        let mut t = SloTracker::new(policy());
        for _ in 0..4 {
            let v = t.push_slice(LatencyHist::new());
            assert!(!v.violated);
        }
        assert!(t.window_full());
        assert_eq!(t.burn_rate(), 0.0);
        assert!(t.signal().window_full);
    }
}
