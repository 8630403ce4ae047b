//! Observers do not interfere: every simulated observable of a run is the
//! same with the three observability knobs forced off
//! (`ADCP_TRACE=off ADCP_INT=off ADCP_METRICS=off`) and forced on
//! (`1 / on / on`).
//!
//! One central pull body runs in every configuration, so hop tracing, INT
//! stamping and the metrics registry may only *record* — never steer. The
//! apps below are the central-state-heavy ones (aggregation, shuffle,
//! shared load estimates, live migration under attack, a repartitioning
//! controller, the six-switch fabric); for each seed the whole report
//! outside its `metrics` / `trace` blocks — counts, makespan, goodput,
//! lookups, `deparse_allocs`, latency summary, migration outcome, fabric
//! register and delivered-frame digests — must be byte-identical.
//!
//! The knobs are process-global environment variables, hence one `#[test]`
//! in its own test binary.

use adcp_apps::{dbshuffle, ddos, flowlet, migrate, paramserv, AppReport, TargetKind};
use serde::{Serialize, Value};

fn encode(v: Value) -> String {
    let mut s = String::new();
    v.encode(&mut s);
    s
}

/// The report with the two observer-owned blocks blanked — after checking
/// that they say the knobs took (`observed` is the state the caller set).
fn simulated(report: &AppReport, what: &str, observed: bool) -> String {
    assert!(report.correct, "{what} incorrect");
    let mut v = report.to_value();
    let fields = v.as_object_mut().expect("a report is an object");
    for observer in ["metrics", "trace"] {
        let block = fields.insert(observer.to_string(), Value::Null);
        let enabled = block.as_ref().and_then(|b| b.get("enabled")?.as_bool());
        assert_eq!(enabled, Some(observed), "{what}: {observer} knob ignored");
    }
    encode(v)
}

/// Every case's label and simulated-observable fingerprint, under the knob
/// state the environment holds (`observed`: on or off).
fn run_all(observed: bool) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for seed in [1u64, 9, 23] {
        let what = format!("paramserv seed {seed}");
        let cfg = paramserv::ParamServerCfg {
            seed,
            ..Default::default()
        };
        let print = simulated(&paramserv::run(TargetKind::Adcp, &cfg), &what, observed);
        out.push((what, print));
    }
    for seed in [3u64, 17] {
        let what = format!("dbshuffle seed {seed}");
        let cfg = dbshuffle::DbShuffleCfg {
            seed,
            ..Default::default()
        };
        let print = simulated(&dbshuffle::run(TargetKind::Adcp, &cfg), &what, observed);
        out.push((what, print));
    }
    // Shared per-uplink load estimates in central registers.
    for seed in [4u64, 19] {
        let what = format!("flowlet-ldf seed {seed}");
        let cfg = flowlet::LdfCfg {
            seed,
            ..Default::default()
        };
        let o = flowlet::run(TargetKind::Adcp, &cfg);
        let print = format!(
            "{}|{}|{}|{:?}",
            simulated(&o.report, &what, observed),
            o.repicks,
            o.wraps,
            o.per_uplink
        );
        out.push((what, print));
    }
    // The live mid-attack reshard is on by default: migration fences
    // interleave with stamping and hop recording.
    for seed in [11u64, 27] {
        let what = format!("ddos seed {seed}");
        let cfg = ddos::DdosCfg {
            seed,
            ..Default::default()
        };
        let o = ddos::run(TargetKind::Adcp, &cfg);
        let print = format!(
            "{}|{}|{}|{}|{}|{:?}|{}|{}|{}",
            simulated(&o.report, &what, observed),
            o.promotions,
            o.demotions,
            o.predicted_drops,
            o.rebalances,
            o.stats,
            o.final_epoch,
            o.skew_before,
            o.skew_after
        );
        out.push((what, print));
    }
    for seed in [31u64, 8] {
        let what = format!("partmigrate seed {seed}");
        let cfg = migrate::MigrateCfg {
            seed,
            packets: 2_000,
            gap_ns: 10,
            ..Default::default()
        };
        let o = migrate::run(TargetKind::Adcp, &cfg);
        let print = format!(
            "{}|{}|{}|{:?}|{}|{}",
            simulated(&o.report, &what, observed),
            o.rebalances,
            o.final_epoch,
            o.stats,
            o.skew_before,
            o.skew_after
        );
        out.push((what, print));
    }
    // Six switches coupled by links: per-device counters, per-link stats,
    // and digests over every delivered frame and central register cell.
    for seed in [5u64, 21] {
        let what = format!("fabric seed {seed}");
        let cfg = adcp_fabric::FabricConfig::default();
        let (demo, report) = adcp_fabric::run_demo_with_report(seed, 400, cfg);
        assert!(demo.correct, "{what} incorrect");
        out.push((what, encode(report.to_value())));
    }
    out
}

#[test]
fn every_simulated_observable_is_equal_with_observers_off_and_on() {
    let knobs = ["ADCP_TRACE", "ADCP_INT", "ADCP_METRICS"];
    for k in knobs {
        std::env::set_var(k, "off");
    }
    let off = run_all(false);
    for (k, v) in knobs.into_iter().zip(["1", "on", "on"]) {
        std::env::set_var(k, v);
    }
    let on = run_all(true);
    assert_eq!(off.len(), on.len());
    for ((what, off), (_, on)) in off.iter().zip(&on) {
        assert_eq!(off, on, "{what}: observers changed the simulation");
    }
}
