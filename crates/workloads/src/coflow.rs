//! Coflow completion tracking.
//!
//! A coflow (Chowdhury & Stoica, the paper's [6]) is a set of flows with a
//! shared completion semantics: the application advances only when *all*
//! of them finish. [`CoflowTracker`] computes coflow completion times (CCT) —
//! the metric that matters to coflow applications, as opposed to per-flow
//! throughput.

use adcp_sim::packet::CoflowId;
use adcp_sim::time::SimTime;
use std::collections::HashMap;

/// Tracks coflow completion: feed it every expected packet, then record
/// deliveries; a coflow completes when its last packet lands.
#[derive(Debug, Default)]
pub struct CoflowTracker {
    expected: HashMap<CoflowId, u64>,
    seen: HashMap<CoflowId, u64>,
    started: HashMap<CoflowId, SimTime>,
    completed: HashMap<CoflowId, SimTime>,
}

impl CoflowTracker {
    /// Empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a coflow that will inject `packets` total packets starting
    /// at `start`.
    pub fn expect(&mut self, id: CoflowId, packets: u64, start: SimTime) {
        *self.expected.entry(id).or_insert(0) += packets;
        self.started
            .entry(id)
            .and_modify(|s| *s = (*s).min(start))
            .or_insert(start);
    }

    /// Record a delivered packet of coflow `id` at `t`. Returns `true` when
    /// this delivery completed the coflow.
    pub fn deliver(&mut self, id: CoflowId, t: SimTime) -> bool {
        let seen = self.seen.entry(id).or_insert(0);
        *seen += 1;
        let done = Some(*seen) == self.expected.get(&id).copied();
        if done {
            self.completed.insert(id, t);
        }
        done
    }

    /// Completion time of a coflow, if it finished.
    pub fn cct(&self, id: CoflowId) -> Option<adcp_sim::time::Duration> {
        let end = *self.completed.get(&id)?;
        let start = *self.started.get(&id)?;
        Some(end.saturating_since(start))
    }

    /// True when every expected coflow has completed.
    pub fn all_done(&self) -> bool {
        self.expected.len() == self.completed.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_computes_cct() {
        let mut t = CoflowTracker::new();
        t.expect(CoflowId(1), 3, SimTime::from_ns(100));
        assert!(!t.deliver(CoflowId(1), SimTime::from_ns(200)));
        assert!(!t.deliver(CoflowId(1), SimTime::from_ns(250)));
        assert!(!t.all_done());
        assert!(t.deliver(CoflowId(1), SimTime::from_ns(400)));
        assert!(t.all_done());
        assert_eq!(t.cct(CoflowId(1)).unwrap().as_ns_f64(), 300.0);
    }

    #[test]
    fn tracker_handles_multiple_coflows() {
        let mut t = CoflowTracker::new();
        t.expect(CoflowId(1), 1, SimTime::ZERO);
        t.expect(CoflowId(2), 2, SimTime::from_ns(50));
        t.deliver(CoflowId(2), SimTime::from_ns(100));
        assert!(t.deliver(CoflowId(1), SimTime::from_ns(150)));
        assert!(!t.all_done());
        assert!(t.deliver(CoflowId(2), SimTime::from_ns(250)));
        assert!(t.all_done());
        assert_eq!(t.cct(CoflowId(2)).unwrap().as_ns_f64(), 200.0);
    }
}
