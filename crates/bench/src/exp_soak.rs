//! E-D1: the serving-daemon soak matrix (see `EXPERIMENTS.md`).
//!
//! Runs the compressed soak choreography — diurnal + MMPP open-loop
//! traffic through the drop/corrupt/delay fault schedule with the
//! SLO-driven autoscaler live — twice per serving application, and
//! distills each app's [`SoakReport`] into one row. Two properties carry
//! the experiment:
//!
//! * every run must end **healthy**: forensics ≡ registry with zero
//!   drift, serving-oracle clean, packet conservation exact,
//!   `misroutes == 0`, and the autoscaler must have scaled up *and*
//!   down at least once; and
//! * within an app, the second run's full report must be
//!   **byte-identical** to the first — a report is a pure function of the
//!   configuration.

use adcpd::daemon::{Daemon, DaemonCfg, SoakReport};
use adcpd::menu::ServeApp;
use serde::Serialize;

/// One app's soak distilled for the E-D1 table.
#[derive(Debug, Clone, Serialize)]
pub struct SoakRow {
    /// Serving application.
    pub app: String,
    /// Simulated time served, ns.
    pub sim_ns: u64,
    /// Open-loop arrivals generated.
    pub arrivals: u64,
    /// Responses delivered.
    pub delivered: u64,
    /// Lifetime p99 latency, ns.
    pub p99_ns: u64,
    /// SLO-violating slices over the run.
    pub violations: u64,
    /// Autoscaler actions: up / down / skew.
    pub scale_ups: u64,
    /// Scale-down actions.
    pub scale_downs: u64,
    /// Skew-driven rebalances.
    pub skew_rebalances: u64,
    /// Epoch-consistency violations (must be 0).
    pub misroutes: u64,
    /// All invariants held at drain.
    pub healthy: bool,
    /// A second run of the same configuration reported the same bytes.
    pub identical_rerun: bool,
}

fn row(app: ServeApp, r: &SoakReport, identical_rerun: bool) -> SoakRow {
    SoakRow {
        app: app.name().to_string(),
        sim_ns: r.sim_ns,
        arrivals: r.arrivals,
        delivered: r.delivered,
        p99_ns: r.slo.p99_ns,
        violations: r.slo.violations,
        scale_ups: r.scale_ups,
        scale_downs: r.scale_downs,
        skew_rebalances: r.skew_rebalances,
        misroutes: r.misroutes,
        healthy: r.healthy,
        identical_rerun,
    }
}

/// The daemon seed every run uses.
const SEED: u64 = 7;

/// Run the E-D1 matrix: `{shardcount, shardmax}`, each run twice, quick
/// (compressed) or full (4× sim time). Interruptible at run boundaries via
/// [`crate::shutdown`]; completed rows are still returned.
pub fn exp_soak(quick: bool) -> Vec<SoakRow> {
    let mut rows = Vec::new();
    for app in [ServeApp::ShardCount, ServeApp::ShardMax] {
        let mut runs = Vec::new();
        for _ in 0..2 {
            if crate::shutdown::requested() {
                return rows;
            }
            let mut cfg = if quick {
                DaemonCfg::soak_quick(SEED)
            } else {
                DaemonCfg::soak(SEED)
            };
            cfg.app = app;
            runs.push(Daemon::new(cfg).expect("daemon builds").run());
        }
        let identical = runs[0].to_json() == runs[1].to_json();
        rows.push(row(app, &runs[0], identical));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_matrix_is_healthy_and_rerun_identical() {
        let rows = exp_soak(true);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.healthy, "{} unhealthy", r.app);
            assert!(r.identical_rerun, "{} diverged on rerun", r.app);
            assert!(
                r.scale_ups >= 1 && r.scale_downs >= 1,
                "{} loop never closed",
                r.app
            );
            assert_eq!(r.misroutes, 0);
        }
    }
}
