//! Record a perf-trajectory snapshot: simulated packets per wall-second for
//! every row of `adcp_apps::suite::APPS` on ADCP and its RMT lowering,
//! written to `BENCH_<date>.json` (see EXPERIMENTS.md for the format).
//!
//! Usage: `cargo run --release -p adcp-bench --bin bench_snapshot
//!         [--quick] [--json] [--repeat N] [--out DIR]
//!         [--check BASELINE.json] [--write-baseline PATH]`
//!
//! `--json` prints rows to stdout instead of (in addition to) the file;
//! `--repeat` sets the number of timed wall-clock repetitions per point
//! (default 5; `--reps` is accepted as an alias). Each point first runs
//! once untimed as warmup, the reported time is the median repetition, and
//! every row carries the min-to-max spread so noisy points are visible.
//! `--quick` shrinks the workloads and skips the file write, so a sanity
//! run never clobbers the day's recorded trajectory point.
//!
//! `--check BASELINE.json` compares the measured rows against a previous
//! snapshot (same workload scale — check a `--quick` run against a
//! `--quick` baseline) and exits nonzero if any app x target falls more
//! than 25% below it: the CI perf-regression guard. `--write-baseline
//! PATH` records the rows for that purpose regardless of `--quick`.
//!
//! `--overhead` instead self-profiles the observability layer: the suite
//! is timed with each knob off, then on — the metrics registry
//! (`ADCP_METRICS`), the journey tracer at the production sampling rate
//! (`ADCP_TRACE=64`), and INT stamping at every packet (`ADCP_INT=on`) —
//! and the per-point and aggregate instrumentation overhead is written
//! to `BENCH_<date>_obs.json` (target: < 5 % aggregate per knob; the
//! off leg doubles as the zero-cost proof for each knob). The separate
//! file name keeps it from clobbering the day's throughput trajectory
//! point.

use adcp_bench::report::{eng, print_json, print_table, want_json, write_json_file};
use adcp_bench::snapshot::{
    check_against_baseline, measure_overhead, run_suite, today_utc, OverheadRow, SnapshotRow,
};
use std::path::{Path, PathBuf};

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// The journey-tracer sampling rate the overhead budget is stated at.
const TRACE_OVERHEAD_SAMPLE: u64 = 64;

fn overhead_main(quick: bool, reps: u32, out_dir: &Path) {
    let (metrics_rows, metrics_pct) =
        measure_overhead("ADCP_METRICS", "on", "metrics", quick, reps);
    let (trace_rows, trace_pct) = measure_overhead(
        "ADCP_TRACE",
        &TRACE_OVERHEAD_SAMPLE.to_string(),
        &format!("trace(sample={TRACE_OVERHEAD_SAMPLE})"),
        quick,
        reps,
    );
    let (int_rows, int_pct) = measure_overhead("ADCP_INT", "on", "int", quick, reps);
    let rows: Vec<OverheadRow> = metrics_rows
        .into_iter()
        .chain(trace_rows)
        .chain(int_rows)
        .collect();
    let date = today_utc();
    let path = (!quick).then(|| out_dir.join(format!("BENCH_{date}_obs.json")));
    if let Some(path) = &path {
        write_json_file(path, "bench_snapshot_overhead", &date, &rows)
            .expect("write overhead file");
    }
    if want_json() {
        print_json("bench_snapshot_overhead", &rows);
        return;
    }
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r: &OverheadRow| {
            vec![
                r.app.clone(),
                r.target.clone(),
                r.knob.clone(),
                format!("{:.2}", r.wall_ms_off),
                format!("{:.2}", r.wall_ms_on),
                format!("{:+.2}%", r.overhead_pct),
            ]
        })
        .collect();
    print_table(
        &format!("bench_snapshot {date} — instrumentation overhead (knob off vs on)"),
        &["app", "target", "knob", "off_ms", "on_ms", "overhead"],
        &cells,
    );
    println!(
        "\naggregate overhead: metrics {metrics_pct:+.2}%, \
         trace(sample={TRACE_OVERHEAD_SAMPLE}) {trace_pct:+.2}%, \
         int {int_pct:+.2}% (target < 5% each)"
    );
    match &path {
        Some(p) => println!("wrote {}", p.display()),
        None => println!("(quick run: overhead file not written)"),
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let reps: u32 = arg_value("--repeat")
        .or_else(|| arg_value("--reps"))
        .map(|v| v.parse().expect("--repeat takes a number"))
        .unwrap_or(5);
    let out_dir = arg_value("--out").map(PathBuf::from).unwrap_or_default();
    if std::env::args().any(|a| a == "--overhead") {
        overhead_main(quick, reps, &out_dir);
        return;
    }

    let rows = run_suite(quick, reps);
    let date = today_utc();
    if let Some(path) = arg_value("--write-baseline") {
        write_json_file(Path::new(&path), "bench_snapshot", &date, &rows)
            .expect("write baseline file");
        println!("wrote baseline {path}");
    }
    if let Some(baseline) = arg_value("--check") {
        let text = std::fs::read_to_string(&baseline)
            .unwrap_or_else(|e| panic!("read baseline {baseline}: {e}"));
        let checks = check_against_baseline(&rows, &text, 25.0).expect("baseline check");
        let cells: Vec<Vec<String>> = checks
            .iter()
            .map(|c| {
                vec![
                    c.app.clone(),
                    c.target.clone(),
                    eng(c.baseline_pkts_per_sec),
                    eng(c.current_pkts_per_sec),
                    format!("{:+.1}%", c.delta_pct),
                    if c.regressed {
                        "REGRESSED".into()
                    } else {
                        "ok".into()
                    },
                ]
            })
            .collect();
        print_table(
            &format!("bench_snapshot — regression check vs {baseline} (threshold -25%)"),
            &["app", "target", "baseline", "current", "delta", "status"],
            &cells,
        );
        let regressed: Vec<&str> = checks
            .iter()
            .filter(|c| c.regressed)
            .map(|c| c.app.as_str())
            .collect();
        if !regressed.is_empty() {
            eprintln!(
                "perf regression: {} row(s) > 25% below baseline",
                regressed.len()
            );
            std::process::exit(1);
        }
        println!("\nno row more than 25% below baseline");
        return;
    }
    // Quick runs are sanity checks, not trajectory points: never let one
    // overwrite the day's full `BENCH_<date>.json`.
    let path = (!quick).then(|| out_dir.join(format!("BENCH_{date}.json")));
    if let Some(path) = &path {
        write_json_file(path, "bench_snapshot", &date, &rows).expect("write snapshot file");
    }

    if want_json() {
        print_json("bench_snapshot", &rows);
        return;
    }
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r: &SnapshotRow| {
            vec![
                r.app.clone(),
                r.target.clone(),
                r.injected.to_string(),
                r.delivered.to_string(),
                format!("{:.2}", r.wall_ms),
                eng(r.sim_pkts_per_wall_sec),
                format!("{:.0}%", r.spread_pct),
                r.correct.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!("bench_snapshot {date} — simulated packets per wall-second"),
        &[
            "app",
            "target",
            "in",
            "out",
            "wall_ms",
            "sim_pkts/s",
            "spread",
            "correct",
        ],
        &cells,
    );
    match &path {
        Some(p) => println!("\nwrote {}", p.display()),
        None => println!("\n(quick run: snapshot file not written)"),
    }
}
