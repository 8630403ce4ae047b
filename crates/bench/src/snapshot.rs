//! Perf-trajectory snapshot: a fixed throughput suite behind the
//! `bench_snapshot` binary.
//!
//! Runs every row of `adcp_apps::suite::APPS` on ADCP and on the row's
//! preferred RMT lowering (plus one fabric and one `adcpd` point), measures
//! *wall-clock* time around each simulation, and reports simulated packets
//! per wall-second — i.e. how fast the simulator itself chews through
//! events, the number the hot-path work in this repo is trying to move.
//! `bench_snapshot` writes the rows to `BENCH_<date>.json` so successive
//! PRs accumulate a comparable perf history.

use adcp_apps::driver::{AppReport, TargetKind};
use adcp_apps::suite::{self, Scale};
use serde::Serialize;
use std::time::Instant;

/// One app × target throughput measurement.
#[derive(Debug, Clone, Serialize)]
pub struct SnapshotRow {
    /// Application name.
    pub app: String,
    /// Target label (`adcp`, `rmt/recirc`, `rmt/pinned`).
    pub target: String,
    /// Packets injected into the switch during the run.
    pub injected: u64,
    /// Packets delivered by the switch.
    pub delivered: u64,
    /// Median wall-clock time over the measurement repetitions (after one
    /// untimed warmup), milliseconds.
    pub wall_ms: f64,
    /// Simulated packets (injected) processed per wall-clock second, from
    /// the median repetition.
    pub sim_pkts_per_wall_sec: f64,
    /// Measurement spread: `(max - min) / median` over the timed
    /// repetitions, percent. Large values flag a noisy point whose
    /// `wall_ms` deserves suspicion.
    pub spread_pct: f64,
    /// Whether the app verified its own output during the measured run.
    pub correct: bool,
}

/// The slice of a run the snapshot suite actually measures — lets the
/// suite mix Table 1 app reports with fabric demo reports.
struct Measured {
    target: String,
    injected: u64,
    delivered: u64,
    correct: bool,
}

impl From<AppReport> for Measured {
    fn from(r: AppReport) -> Self {
        Measured {
            target: r.target,
            injected: r.injected,
            delivered: r.delivered,
            correct: r.correct,
        }
    }
}

type Job = (&'static str, Box<dyn Fn() -> Measured + Send + Sync>);

/// Every row of [`suite::APPS`] on the ADCP and on its preferred RMT
/// lowering, then the fabric and serving-daemon points.
fn suite_jobs(quick: bool) -> Vec<Job> {
    let scale = Scale::of(quick);
    let mut jobs: Vec<Job> = Vec::new();
    for app in &suite::APPS {
        for kind in [TargetKind::Adcp, app.rmt[0]] {
            jobs.push((app.name, Box::new(move || (app.run)(kind, scale).into())));
        }
    }

    // The leaf–spine fabric demo: six event loops coupled by modeled
    // links, the placement pass, and cross-switch steering. Tracks how
    // fast the simulator moves packets through a whole topology rather
    // than one device.
    let fab_pkts = if quick { 400 } else { 4_000 };
    jobs.push((
        "fabric",
        Box::new(move || {
            let r = adcp_fabric::run_demo(7, fab_pkts, adcp_fabric::FabricConfig::default());
            Measured {
                target: "fabric/2x4".into(),
                injected: r.injected,
                delivered: r.delivered,
                correct: r.correct,
            }
        }),
    ));

    // The serving daemon in steady state: open-loop diurnal+burst traffic,
    // per-slice SLO scoring, and the closed autoscaling loop all running —
    // how fast the simulator serves when the control plane is live.
    let daemon_slices = if quick { 64 } else { 256 };
    jobs.push((
        "adcpd",
        Box::new(move || {
            let mut cfg = adcpd::daemon::DaemonCfg::soak_quick(7);
            cfg.slices = daemon_slices;
            let r = adcpd::daemon::Daemon::new(cfg)
                .expect("daemon builds")
                .run();
            Measured {
                target: "daemon/serving".into(),
                injected: r.injected,
                delivered: r.delivered,
                correct: r.healthy,
            }
        }),
    ));
    jobs
}

/// Run the fixed suite. Each point runs once untimed (warmup: page in
/// code, fault the allocator, settle caches) and then `reps` timed
/// repetitions; the reported wall time is the **median of the fastest
/// third** of the sorted repetitions and the row carries that core's
/// min-to-max spread so noisy points are visible in the recorded
/// trajectory. Timing noise on a busy host is one-sided — scheduling,
/// page faults, and frequency drift only ever *add* time — so the fastest
/// repetitions are the closest estimate of the true cost; the raw
/// min-to-max spread used to exceed 30% on sub-millisecond quick points
/// and made the CI `--check` guard vacuous. Quick mode also floors the
/// repetition count at 15 so the kept core holds several samples, and
/// keeps sampling (up to a hard cap) while the core's spread is still
/// above the 15% noise flag — host noise is bursty, and a fixed rep
/// count can land entirely inside one burst. The points are timed
/// **sequentially**: concurrent points contend for cores and that
/// contention showed up directly as spread, which is exactly the noise
/// this suite exists to keep out of the recorded trajectory.
pub fn run_suite(quick: bool, reps: u32) -> Vec<SnapshotRow> {
    let min_reps = if quick { reps.max(15) } else { reps.max(1) };
    // Quick points run in milliseconds, so re-sampling a noisy one is
    // cheap; full points run for seconds, so they get their fixed count.
    let cap_reps = if quick { min_reps.max(180) } else { min_reps };
    crate::par::seq_map(suite_jobs(quick), move |(app, job)| {
        let report = job(); // warmup, untimed
        let mut times_ns: Vec<u128> = (0..min_reps)
            .map(|_| {
                let t0 = Instant::now();
                job();
                t0.elapsed().as_nanos()
            })
            .collect();
        let (median_ns, spread) = loop {
            times_ns.sort_unstable();
            // Keep at least two samples (when available) so the spread
            // flag never degenerates to a vacuous 0% on low-rep runs.
            let core_len = (times_ns.len() / 3).max(2).min(times_ns.len());
            let core = &times_ns[..core_len];
            let median_ns = core[core.len() / 2];
            let spread = (core[core.len() - 1] - core[0]) as f64 / median_ns as f64;
            if spread <= 0.15 || times_ns.len() >= cap_reps as usize {
                break (median_ns, spread);
            }
            for _ in 0..5 {
                let t0 = Instant::now();
                job();
                times_ns.push(t0.elapsed().as_nanos());
            }
        };
        let wall_s = median_ns as f64 / 1e9;
        SnapshotRow {
            app: app.to_string(),
            target: report.target.clone(),
            injected: report.injected,
            delivered: report.delivered,
            wall_ms: wall_s * 1e3,
            sim_pkts_per_wall_sec: report.injected as f64 / wall_s,
            spread_pct: spread * 100.0,
            correct: report.correct,
        }
    })
}

/// One app × target instrumentation-overhead measurement: the same job
/// timed with one observability knob disabled and enabled.
#[derive(Debug, Clone, Serialize)]
pub struct OverheadRow {
    /// Application name.
    pub app: String,
    /// Target label.
    pub target: String,
    /// Which knob was toggled: `"metrics"` or `"trace(sample=N)"`.
    pub knob: String,
    /// Median wall-clock with the knob off, milliseconds.
    pub wall_ms_off: f64,
    /// Median wall-clock with the knob on, milliseconds.
    pub wall_ms_on: f64,
    /// Overhead of instrumentation, percent (negative = within noise).
    pub overhead_pct: f64,
}

/// Time the suite with `var` set to `value`, restoring the caller's value
/// after. Every observability knob (`ADCP_METRICS`, `ADCP_TRACE`,
/// `ADCP_INT`) is read at switch construction, so the variable must be set process-wide before
/// the pass; call only from the main thread.
fn suite_with_env(var: &str, value: &str, quick: bool, reps: u32) -> Vec<SnapshotRow> {
    let saved = std::env::var(var).ok();
    std::env::set_var(var, value);
    let rows = run_suite(quick, reps);
    match saved {
        Some(v) => std::env::set_var(var, v),
        None => std::env::remove_var(var),
    }
    rows
}

/// Self-profiling hook for one observability knob: time the suite with
/// `var=off`, then with `var=on_value`, and report the per-point and
/// aggregate instrumentation overhead under `label`. The target is
/// **< 5 % aggregate** for each knob — the metrics registry
/// (`ADCP_METRICS=on`), the journey tracer at its production sampling rate
/// (`ADCP_TRACE=64`) and INT stamping at every packet (`ADCP_INT=on`, a
/// per-hop append into a pre-sized stack); the off leg doubles as the
/// knob's zero-cost proof.
pub fn measure_overhead(
    var: &str,
    on_value: &str,
    label: &str,
    quick: bool,
    reps: u32,
) -> (Vec<OverheadRow>, f64) {
    let off = suite_with_env(var, "off", quick, reps);
    let on = suite_with_env(var, on_value, quick, reps);
    let rows: Vec<OverheadRow> = off
        .iter()
        .zip(on.iter())
        .map(|(o, n)| {
            debug_assert_eq!((&o.app, &o.target), (&n.app, &n.target));
            OverheadRow {
                app: o.app.clone(),
                target: o.target.clone(),
                knob: label.to_string(),
                wall_ms_off: o.wall_ms,
                wall_ms_on: n.wall_ms,
                overhead_pct: (n.wall_ms / o.wall_ms - 1.0) * 100.0,
            }
        })
        .collect();
    let total_off: f64 = rows.iter().map(|r| r.wall_ms_off).sum();
    let total_on: f64 = rows.iter().map(|r| r.wall_ms_on).sum();
    (rows, (total_on / total_off - 1.0) * 100.0)
}

/// Outcome of comparing one measured row against the checked-in baseline.
#[derive(Debug, Clone, Serialize)]
pub struct CheckRow {
    /// Application name.
    pub app: String,
    /// Target label.
    pub target: String,
    /// Baseline throughput, simulated packets per wall-second.
    pub baseline_pkts_per_sec: f64,
    /// Measured throughput this run.
    pub current_pkts_per_sec: f64,
    /// Relative change, percent (positive = faster than baseline).
    pub delta_pct: f64,
    /// Whether the row breached the regression threshold.
    pub regressed: bool,
}

/// Compare measured rows against a `bench_snapshot` baseline document
/// (the JSON written by `--write-baseline` / the daily `BENCH_<date>.json`).
/// A row regresses when its throughput falls more than `threshold_pct`
/// below the baseline's row for the same app × target. Rows present on
/// only one side are ignored — adding an app must not fail the guard —
/// but a baseline with no overlap at all is an error (wrong file).
pub fn check_against_baseline(
    rows: &[SnapshotRow],
    baseline_text: &str,
    threshold_pct: f64,
) -> Result<Vec<CheckRow>, String> {
    let doc = serde_json::from_str(baseline_text).map_err(|e| format!("baseline parse: {e:?}"))?;
    let base_rows = doc
        .get("rows")
        .and_then(|r| r.as_array())
        .ok_or("baseline has no rows array")?;
    let mut baseline: Vec<(String, String, f64)> = Vec::new();
    for r in base_rows {
        let (Some(app), Some(target), Some(pps)) = (
            r.get("app").and_then(|v| v.as_str()),
            r.get("target").and_then(|v| v.as_str()),
            r.get("sim_pkts_per_wall_sec").and_then(|v| v.as_f64()),
        ) else {
            return Err("baseline row missing app/target/sim_pkts_per_wall_sec".into());
        };
        baseline.push((app.to_string(), target.to_string(), pps));
    }
    let mut out = Vec::new();
    for row in rows {
        let Some((_, _, base)) = baseline
            .iter()
            .find(|(a, t, _)| *a == row.app && *t == row.target)
        else {
            continue;
        };
        let delta_pct = (row.sim_pkts_per_wall_sec - base) / base * 100.0;
        out.push(CheckRow {
            app: row.app.clone(),
            target: row.target.clone(),
            baseline_pkts_per_sec: *base,
            current_pkts_per_sec: row.sim_pkts_per_wall_sec,
            delta_pct,
            regressed: delta_pct < -threshold_pct,
        });
    }
    if out.is_empty() {
        return Err("baseline shares no app x target rows with this run".into());
    }
    Ok(out)
}

/// Today's UTC date as `YYYY-MM-DD` (civil-from-days, Hinnant's algorithm).
pub fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after 1970")
        .as_secs();
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_suite_measures_every_point() {
        let rows = run_suite(true, 1);
        assert_eq!(rows.len(), 20);
        for r in &rows {
            assert!(r.wall_ms > 0.0, "{}/{} wall time", r.app, r.target);
            assert!(r.sim_pkts_per_wall_sec > 0.0, "{}/{} rate", r.app, r.target);
            assert!(r.injected > 0);
        }
        // Both architectures appear for every app, plus the fabric and
        // serving-daemon points.
        assert_eq!(rows.iter().filter(|r| r.target == "adcp").count(), 9);
        let fab = rows
            .iter()
            .find(|r| r.target == "fabric/2x4")
            .expect("fabric row present");
        assert!(fab.correct, "fabric demo must verify during measurement");
        let daemon = rows
            .iter()
            .find(|r| r.target == "daemon/serving")
            .expect("daemon row present");
        assert!(daemon.correct, "daemon must report healthy books");
    }

    #[test]
    fn date_is_well_formed() {
        let d = today_utc();
        assert_eq!(d.len(), 10);
        assert_eq!(d.as_bytes()[4], b'-');
        assert_eq!(d.as_bytes()[7], b'-');
        let year: u32 = d[..4].parse().unwrap();
        assert!((2020..2200).contains(&year), "{d}");
    }
}
