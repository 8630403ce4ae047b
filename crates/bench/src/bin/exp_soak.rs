//! E-D1: the serving-daemon soak matrix — both serving apps through the
//! compressed fault choreography, each run twice and graded on invariant
//! health and byte-identity of the rerun.
//!
//! Usage: `exp_soak [--quick] [--seed N] [--json]`
//! Exit status 1 if any run is unhealthy, misses a scale direction, or
//! diverges on rerun.

use adcp_bench::exp_soak::exp_soak;
use adcp_bench::report::{print_json, print_table, want_json};

fn main() {
    adcp_bench::shutdown::install();
    let quick = std::env::args().any(|a| a == "--quick");
    let seed = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--seed")
            .and_then(|i| args.get(i + 1))
            .map(|v| v.parse().expect("--seed: not a number"))
            .unwrap_or(7)
    };
    let rows = exp_soak(quick, seed);
    let ok = rows
        .iter()
        .all(|r| r.healthy && r.identical_rerun && r.scale_ups >= 1 && r.scale_downs >= 1);
    if want_json() {
        print_json("exp_soak", &rows);
    } else {
        let cells: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.app.clone(),
                    format!("{:.1}", r.sim_ns as f64 / 1e6),
                    r.arrivals.to_string(),
                    r.delivered.to_string(),
                    r.p99_ns.to_string(),
                    format!("{}+{}+{}", r.scale_ups, r.scale_downs, r.skew_rebalances),
                    r.misroutes.to_string(),
                    r.healthy.to_string(),
                    r.identical_rerun.to_string(),
                ]
            })
            .collect();
        print_table(
            "E-D1 — serving-daemon soak: SLO autoscaling under faults",
            &[
                "app",
                "sim_ms",
                "arrivals",
                "delivered",
                "p99_ns",
                "up+down+skew",
                "misroutes",
                "healthy",
                "identical_rerun",
            ],
            &cells,
        );
        println!(
            "\nreading: every run drains with forensics == registry (zero drift),\n\
             a clean serving oracle, exact conservation, and zero misroutes; the\n\
             burn-rate loop scales up at every diurnal peak and releases pipes in\n\
             the troughs; and a second run of the same configuration reports\n\
             the same bytes."
        );
    }
    std::process::exit(if ok { 0 } else { 1 });
}
