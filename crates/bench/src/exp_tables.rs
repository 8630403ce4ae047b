//! Regenerators for the paper's tables.
//!
//! * Table 1 — the application matrix, run live: a loop over the Table-1
//!   rows of `adcp_apps::suite::APPS` × the targets each row lists, with
//!   correctness and the architectural costs.
//! * Table 2 — RMT port-multiplexing scaling (analytic, matches the paper
//!   row for row; the one inconsistent printed row is flagged).
//! * Table 3 — port demultiplexing examples (analytic).

use adcp_analytic::scaling::{self, ScalingRow, PAPER_TABLE2};
use adcp_apps::driver::{AppReport, TargetKind};
use adcp_apps::suite::{self, App, Scale};
use serde::Serialize;

/// One Table 1 row: an app on a variant.
#[derive(Debug, Clone, Serialize)]
pub struct Table1Row {
    /// The underlying app report.
    #[serde(flatten)]
    pub report: AppReport,
}

/// Run every Table 1 application on every architecture variant: the
/// first [`suite::TABLE1`] rows of [`suite::APPS`], each on the ADCP and on
/// every RMT lowering its row lists.
///
/// `quick` picks the rows' quick size (used by tests; the binary default
/// runs the full sizes). The 16 runs are independent simulations, so they
/// run on scoped threads ([`crate::par::par_map`]) and are collected in
/// table order.
pub fn table1(quick: bool) -> Vec<Table1Row> {
    table1_impl(quick, true)
}

fn table1_impl(quick: bool, parallel: bool) -> Vec<Table1Row> {
    let scale = Scale::of(quick);
    crate::par::map_points(parallel, table1_jobs(), |(app, kind)| Table1Row {
        report: (app.run)(kind, scale),
    })
}

fn table1_jobs() -> Vec<(&'static App, TargetKind)> {
    suite::APPS[..suite::TABLE1]
        .iter()
        .flat_map(|app| app.kinds().map(move |kind| (app, kind)))
        .collect()
}

/// A Table 2/3 row with its paper counterpart for the comparison column.
#[derive(Debug, Clone, Serialize)]
pub struct ScalingCmpRow {
    /// Derived row.
    #[serde(flatten)]
    pub derived: ScalingRow,
    /// The paper's printed (min packet B, freq GHz) for the same row.
    pub paper_min_packet: u32,
    /// Paper frequency, GHz.
    pub paper_freq_ghz: f64,
    /// Whether the derived row matches the printed one (±1 B, ±0.011 GHz).
    pub matches_paper: bool,
}

/// Regenerate Table 2.
pub fn table2() -> Vec<ScalingCmpRow> {
    scaling::table2()
        .into_iter()
        .zip(PAPER_TABLE2)
        .map(|(derived, paper)| {
            let matches_paper = (derived.min_packet_bytes as i64 - paper.4 as i64).abs() <= 1
                && (derived.pipeline_freq_ghz - paper.5).abs() < 0.011;
            ScalingCmpRow {
                derived,
                paper_min_packet: paper.4,
                paper_freq_ghz: paper.5,
                matches_paper,
            }
        })
        .collect()
}

/// The paper's printed Table 3 (ports/pipe, min packet B, freq GHz).
pub const PAPER_TABLE3: [(f64, u32, f64); 4] = [
    (8.0, 495, 1.62),
    (0.5, 84, 0.60),
    (4.0, 495, 1.62),
    (0.5, 84, 1.19),
];

/// Regenerate Table 3.
pub fn table3() -> Vec<ScalingCmpRow> {
    scaling::table3()
        .into_iter()
        .zip(PAPER_TABLE3)
        .map(|(derived, paper)| {
            let matches_paper = (derived.min_packet_bytes as i64 - paper.1 as i64).abs() <= 1
                && (derived.pipeline_freq_ghz - paper.2).abs() < 0.011;
            ScalingCmpRow {
                derived,
                paper_min_packet: paper.1,
                paper_freq_ghz: paper.2,
                matches_paper,
            }
        })
        .collect()
}

/// Render Table 2/3 comparison rows for the console.
pub fn scaling_cells(rows: &[ScalingCmpRow]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|r| {
            vec![
                format!("{}", r.derived.throughput_gbps),
                format!("{}", r.derived.port_speed_gbps),
                format!("{}", r.derived.num_pipelines),
                format!("{}", r.derived.ports_per_pipeline),
                format!("{}", r.derived.min_packet_bytes),
                format!("{:.2}", r.derived.pipeline_freq_ghz),
                format!("{}B/{:.2}GHz", r.paper_min_packet, r.paper_freq_ghz),
                if r.matches_paper {
                    "yes".into()
                } else {
                    "NO".into()
                },
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_rows_match_paper() {
        let rows = table2();
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().all(|r| r.matches_paper), "{rows:#?}");
    }

    #[test]
    fn table3_rows_match_paper() {
        let rows = table3();
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.matches_paper), "{rows:#?}");
    }

    #[test]
    fn table1_par_matches_seq() {
        let par = serde_json::to_string(&table1_impl(true, true)).unwrap();
        let seq = serde_json::to_string(&table1_impl(true, false)).unwrap();
        assert_eq!(par, seq, "table1 rows must not depend on scheduling");
    }

    #[test]
    fn table1_quick_all_correct() {
        let rows = table1(true);
        assert_eq!(rows.len(), 3 + 3 + 3 + 3 + 2 + 2);
        for r in &rows {
            // netlock on rmt/pinned is *expected* to fail: the release
            // broadcast cannot leave the pinned pipeline (Fig. 2).
            let expected_failure = r.report.app == "netlock" && r.report.target == "rmt/pinned";
            assert_eq!(
                r.report.correct, !expected_failure,
                "{} on {}",
                r.report.app, r.report.target
            );
        }
        // The architectural signatures: recirc variants recirculate,
        // ADCP never does.
        assert!(rows
            .iter()
            .filter(|r| r.report.target == "rmt/recirc")
            .all(|r| r.report.recirc_passes > 0));
        assert!(rows
            .iter()
            .filter(|r| r.report.target == "adcp")
            .all(|r| r.report.recirc_passes == 0));
    }
}
