//! Long-run memory bounds (the hours-long-soak guarantee): a run that
//! offers on the order of 10⁸ events to the metrics registry and the
//! journey tracer must leave both at a fixed, run-length-independent
//! footprint — decimating series, capped drop/ctrl logs, bounded hop ring.
//!
//! The asserted caps are identical in every build; only the event count is
//! scaled down in debug builds so `cargo test` stays fast (the bound being
//! regression-tested — retained state ≤ cap — does not depend on the
//! count, which release CI runs at the full 10⁸).

use adcp_sim::metrics::MetricsRegistry;
use adcp_sim::time::{Duration, SimTime};
use adcp_sim::trace::{DropReason, HopCtx, JourneyTracer, Site, CTRL_LOG_CAP, DROP_LOG_CAP};

/// Full soak scale in release; two orders smaller under debug profiles.
fn event_count() -> u64 {
    if cfg!(debug_assertions) {
        1_000_000
    } else {
        100_000_000
    }
}

#[test]
fn registry_series_footprint_is_bounded() {
    let mut m = MetricsRegistry::new_enabled();
    let scope = m.scope("tm1");
    let series_cap = 512;
    let qd = m.series(scope, "queue_depth", series_cap);
    let oc = m.series(scope, "occupancy", series_cap);
    let span = m.hist(scope, "span_ps");

    let n = event_count();
    for i in 0..n {
        let t = SimTime(i * 1_000);
        m.sample(qd, t, i % 513);
        if i % 2 == 0 {
            m.sample(oc, t, i % 131);
        }
        if i % 97 == 0 {
            m.record(span, Duration(i % 4096));
        }
    }

    // Decimation must keep every series strictly under its cap no matter
    // how many samples were offered, and the registry total under the sum
    // of caps.
    assert!(m.retained_series_points() < 2 * series_cap);
    // The samples were seen (not silently dropped): offered counts are
    // exact even though retention is decimated.
    let json = m.to_json();
    let offered = json
        .get("scopes")
        .and_then(|s| s.get("tm1"))
        .and_then(|s| s.get("series"))
        .and_then(|s| s.get("queue_depth"))
        .and_then(|s| s.get("offered"))
        .and_then(|v| v.as_u64())
        .unwrap();
    assert_eq!(offered, n);
}

#[test]
fn tracer_logs_are_bounded_with_exact_forensics() {
    // Serving-daemon configuration: hop ring off (capacity 0), forensics
    // always exact.
    let mut t = JourneyTracer::with_sample(0, 1);
    let n = event_count();
    for i in 0..n {
        let at = SimTime(i * 10);
        let reason = if i % 3 == 0 {
            DropReason::QueueTail { tm: 2, queue: 0 }
        } else {
            DropReason::BufferExhausted { tm: 1 }
        };
        t.record_drop(at, i, Site::CentralPipe(0), reason, HopCtx::NONE);
        if i % 64 == 0 {
            t.record_ctrl(at, adcp_sim::trace::CtrlEvent::EpochBump { epoch: i / 64 });
        }
    }

    // Detailed logs are capped...
    assert!(t.drops().len() <= DROP_LOG_CAP);
    assert!(t.ctrl_events().len() <= CTRL_LOG_CAP);
    assert_eq!(t.drops_truncated(), n - DROP_LOG_CAP as u64);
    // ...while the exact aggregation never loses a record.
    let totals = t.drop_totals_by_reason();
    let qt = totals.get(&("queue_tail", 2)).copied().unwrap_or(0);
    let be = totals.get(&("buffer_exhausted", 1)).copied().unwrap_or(0);
    assert_eq!(qt + be, n);
    assert_eq!(qt, n.div_ceil(3));
}

#[test]
fn hop_ring_evicts_instead_of_growing() {
    let cap = 4_096;
    let mut t = JourneyTracer::new(cap);
    let n = event_count() / 10; // hops are the pricier record; scale down
    for i in 0..n {
        let enter = SimTime(i * 100);
        let exit = SimTime(i * 100 + 40);
        t.record_hop(i, Site::IngressPipe(0), enter, exit, HopCtx::NONE);
    }
    assert!(t.len() <= cap);
    assert_eq!(t.evicted() + t.len() as u64, n);
}
