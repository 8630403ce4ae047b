//! The benchmark's declarations: workload names, end-to-end metrics with
//! their bounds, per-layer metric names. `BENCHMARK.json` at the repo root
//! is this module printed (`--spec`); a test keeps the two equal.

use crate::report::obj;
use crate::table1::APPS;
use serde::Value;

/// Seconds one driver run measures.
pub const RUN_SECONDS: u64 = 10;

/// Workload names and why each exists. Names are fixed: later issues cite
/// them.
pub const WORKLOADS: [(&str, &str); 7] = [
    (
        "fwd-min",
        "Bare forwarding of 64 B frames: per-hop fixed cost is nearly all the work and the stateful path idles, so it is the bypass for every stateful optimisation.",
    ),
    (
        "agg-zipf",
        "Central RMW into a 2^20-cell register under Zipf 0.99 keys: partition steering, TM1 queueing and paged register files dominate. A stateful-path change must move this.",
    ),
    (
        "agg-rmt",
        "The agg-zipf packet stream and program on RmtSwitch with recirculation: an ADCP-only gain must leave it flat, a merge of the two switch files must hold both flat.",
    ),
    (
        "kv-array",
        "Reads beside agg's writes: a 2^16-entry exact table matched by 16 keys per packet, registers idle; MAT lookup and array PHV handling dominate, set-up is install-bound.",
    ),
    (
        "fabric-agg",
        "agg placed onto the 2-spine x 4-leaf fabric, same key stream: tells six devices' work from link and lock-step glue (fabric.hop_cost_ratio against agg-zipf).",
    ),
    (
        "serve-diurnal",
        "The adcpd soak (diurnal x MMPP open loop in simulated time, faults, autoscaler, live migration): the only workload where ctrl, arrivals, SLO scoring and migration do work.",
    ),
    (
        "table1",
        "All nine apps on ADCP and on their RMT lowering, each point >=100 ms: continuity with BENCH_*.json, and covers multicast, locks, filters and reshard at app granularity.",
    ),
];

/// One end-to-end metric.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit. Simulated time carries a `sim_` unit: a fixed seed reproduces
    /// it exactly, it is not a host time.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen — across seeds,
    /// which is what the driver compares. On one seed the `sim_*` metrics
    /// repeat exactly and `--compare` holds them to bound 0.
    pub bound: f64,
    /// Reproduced exactly by a fixed seed.
    pub simulated: bool,
    /// `--compare` ignores a change smaller than this, in the metric's
    /// unit, whatever its share (a 75 µs set-up moving by 30 µs is timer
    /// and allocator noise, not a regression).
    pub floor: f64,
}

/// The end-to-end metrics every workload reports.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        simulated: false,
        floor: 0.002,
    },
    EndToEnd {
        name: "sim_pkts_per_s",
        unit: "pkts/s",
        better: "higher",
        bound: 0.25,
        simulated: false,
        floor: 0.0,
    },
    EndToEnd {
        name: "wall_s_per_sim_s",
        unit: "ratio",
        better: "lower",
        bound: 0.25,
        simulated: false,
        floor: 0.0,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.20,
        simulated: false,
        floor: 0.0,
    },
    EndToEnd {
        name: "sim_makespan_us",
        unit: "sim_us",
        better: "lower",
        bound: 0.05,
        simulated: true,
        floor: 0.0,
    },
    EndToEnd {
        name: "sim_latency_p50_ns",
        unit: "sim_ns",
        better: "lower",
        bound: 0.10,
        simulated: true,
        floor: 0.0,
    },
    EndToEnd {
        name: "sim_latency_p99_ns",
        unit: "sim_ns",
        better: "lower",
        bound: 0.10,
        simulated: true,
        floor: 0.0,
    },
    EndToEnd {
        name: "sim_delivered_share",
        unit: "ratio",
        better: "higher",
        bound: 0.02,
        simulated: true,
        floor: 0.0,
    },
];

/// One per-layer metric: name, unit, better.
pub type Layer = (String, &'static str, &'static str);

/// Per-switch metrics, emitted as `core.*` by the ADCP workloads and as
/// `rmt.*` by `agg-rmt`.
const SWITCH: [(&str, &str, &str); 22] = [
    ("new_ms", "ms/rep", "lower"),
    ("install_ms", "ms/rep", "lower"),
    ("inject_ns_per_pkt", "ns/pkt", "lower"),
    ("run_ns_per_pkt", "ns/pkt", "lower"),
    ("run_ns_per_hop", "ns/hop", "lower"),
    ("run_share", "ratio", "lower"),
    ("drain_ns_per_pkt", "ns/pkt", "lower"),
    ("report_ms", "ms/rep", "lower"),
    ("chunk_wall_us_p50", "us/chunk", "lower"),
    ("chunk_wall_us_p95", "us/chunk", "lower"),
    ("hops_per_pkt", "count", "lower"),
    ("mat_lookups_per_pkt", "count", "lower"),
    ("mat_hit_rate", "ratio", "higher"),
    ("deparse_allocs_per_pkt", "count", "lower"),
    ("drops_per_pkt", "count", "lower"),
    ("tm_buffer_hwm_cells", "count", "lower"),
    ("tm1_residency_p99_ns", "sim_ns", "lower"),
    ("tm2_residency_p99_ns", "sim_ns", "lower"),
    ("central_busy_max_share", "ratio", "lower"),
    ("run_unattributed_share", "ratio", "lower"),
    ("allocs_per_pkt", "count", "lower"),
    ("alloc_bytes_per_pkt", "B/pkt", "lower"),
];

const OTHER: [(&str, &str, &str); 48] = [
    ("workloads.gen_ns_per_pkt", "ns/pkt", "lower"),
    ("workloads.gen_share", "ratio", "lower"),
    ("workloads.zipf_sample_ns", "ns/op", "lower"),
    ("workloads.arrivals_ns_per_pkt", "ns/pkt", "lower"),
    ("lang.compile_ms", "ms/rep", "lower"),
    ("lang.place_fabric_ms", "ms/rep", "lower"),
    ("rmt.recirc_passes_per_pkt", "count", "lower"),
    ("fabric.new_ms", "ms/rep", "lower"),
    ("fabric.inject_ns_per_pkt", "ns/pkt", "lower"),
    ("fabric.run_ns_per_pkt", "ns/pkt", "lower"),
    ("fabric.run_ns_per_hop", "ns/hop", "lower"),
    ("fabric.drain_ns_per_pkt", "ns/pkt", "lower"),
    ("fabric.report_ms", "ms/rep", "lower"),
    ("fabric.hop_cost_ratio", "ratio", "lower"),
    ("fabric.forwarded_per_pkt", "count", "lower"),
    ("fabric.device_hops_per_pkt", "count", "lower"),
    ("adcpd.new_ms", "ms/rep", "lower"),
    ("adcpd.slice_wall_us_p50", "us/slice", "lower"),
    ("adcpd.slice_wall_us_p95", "us/slice", "lower"),
    ("adcpd.finish_ms", "ms/rep", "lower"),
    ("adcpd.slo_push_us_p50", "us/slice", "lower"),
    ("adcpd.sim_violation_share", "ratio", "lower"),
    ("adcpd.scale_ups", "count", "lower"),
    ("adcpd.scale_downs", "count", "lower"),
    ("ctrl.tick_us_p50", "us/tick", "lower"),
    ("ctrl.tick_us_max", "us/tick", "lower"),
    ("ctrl.tick_share", "ratio", "lower"),
    ("ctrl.plan_us", "us/op", "lower"),
    ("ctrl.migrations", "count", "lower"),
    ("ctrl.moved_keys", "count", "lower"),
    ("ctrl.redirected_pkts", "count", "lower"),
    ("ctrl.held_pkts", "count", "lower"),
    ("ctrl.paused_ns", "sim_ns", "lower"),
    ("ctrl.misroutes", "count", "lower"),
    ("sim.evq_ns_per_event", "ns/event", "lower"),
    ("sim.store_ns_per_frame", "ns/frame", "lower"),
    ("sim.seal_ns_per_pkt", "ns/pkt", "lower"),
    ("sim.hist_record_ns", "ns/op", "lower"),
    ("lang.parse_ns_per_pkt", "ns/pkt", "lower"),
    ("lang.deparse_ns_per_pkt", "ns/pkt", "lower"),
    ("lang.lookup_ns.exact", "ns/op", "lower"),
    ("lang.lookup_ns.lpm", "ns/op", "lower"),
    ("lang.lookup_ns.ternary", "ns/op", "lower"),
    ("lang.lookup_ns.range", "ns/op", "lower"),
    ("lang.exec_ns_per_pkt", "ns/pkt", "lower"),
    ("lang.reg_rmw_ns", "ns/op", "lower"),
    ("bench.verify_share", "ratio", "lower"),
    ("bench.trace_overhead_pct", "%", "lower"),
];

/// Every per-layer metric. A workload that does not exercise a layer
/// reports 0 for it: that layer did no work there.
pub fn per_layer() -> Vec<Layer> {
    let mut out: Vec<Layer> = Vec::new();
    for prefix in ["core", "rmt"] {
        for (n, u, b) in SWITCH {
            out.push((format!("{prefix}.{n}"), u, b));
        }
    }
    for (n, u, b) in OTHER {
        out.push((n.to_string(), u, b));
    }
    for app in APPS {
        for side in ["adcp", "rmt"] {
            out.push((format!("apps.{app}.{side}.pkts_per_s"), "pkts/s", "higher"));
        }
    }
    out
}

/// `BENCHMARK.json`, as a value.
pub fn benchmark_json() -> Value {
    let s = |v: &str| Value::String(v.into());
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    obj(vec![
        (
            "command",
            Value::Array(command.iter().map(|c| s(c)).collect()),
        ),
        ("paths", Value::Array(vec![s("benchmark")])),
        ("run_seconds", Value::U64(RUN_SECONDS)),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|(n, w)| obj(vec![("name", s(n)), ("why", s(w))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better)),
                            ("bound", Value::F64(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                per_layer()
                    .iter()
                    .map(|(n, u, b)| obj(vec![("name", s(n)), ("unit", s(u)), ("better", s(b))]))
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.as_bytes()[0].is_ascii_alphanumeric()
            && n.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn names_units_and_counts_are_within_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        let layers = per_layer();
        assert!((1..=128).contains(&layers.len()), "{}", layers.len());
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(layers.iter().map(|l| l.0.as_str()));
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{}", why.len());
        }
        for m in &END_TO_END {
            assert!(unit_ok(m.unit) && (0.0..=0.25).contains(&m.bound));
            assert!(m.better == "lower" || m.better == "higher");
        }
        for (n, u, b) in &layers {
            assert!(unit_ok(u), "bad unit {u} on {n}");
            assert!(*b == "lower" || *b == "higher");
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn benchmark_json_on_disk_is_this_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let on_disk = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        assert_eq!(on_disk, benchmark_json(), "regenerate with --spec");
    }
}
