//! Distributed group-by with in-network filter–aggregate–reshuffle
//! (Table 1's database analytics row).
//!
//! ```sh
//! cargo run --release --example database_shuffle -- [mappers] [reducers] [rows] [selectivity%]
//! # e.g. 8 mappers, 4 reducers, 2000 rows each, 40% filter pass rate:
//! cargo run --release --example database_shuffle -- 8 4 2000 40
//! ```

use adcp::apps::dbshuffle::{run, DbShuffleCfg};
use adcp::apps::driver::TargetKind;
use adcp::workloads::shuffle::ShuffleWorkload;

fn arg(n: usize, default: u32) -> u32 {
    std::env::args()
        .nth(n)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let cfg = DbShuffleCfg {
        workload: ShuffleWorkload {
            mappers: arg(1, 4),
            reducers: arg(2, 4),
            rows_per_mapper: arg(3, 1000),
            selectivity: arg(4, 60) as f64 / 100.0,
            distinct_keys: 64,
            skew: 0.9,
        },
        coordinator_port: 15,
        seed: 9,
    };
    println!(
        "db shuffle: {} mappers x {} rows -> {} reducers, filter keeps {:.0}%\n",
        cfg.workload.mappers,
        cfg.workload.rows_per_mapper,
        cfg.workload.reducers,
        cfg.workload.selectivity * 100.0
    );
    for kind in [
        TargetKind::Adcp,
        TargetKind::RmtPinned,
        TargetKind::RmtRecirc,
    ] {
        let r = run(kind, &cfg);
        println!("{}", r.summary_line());
        for n in &r.notes {
            println!("    note: {n}");
        }
    }
    println!(
        "\nreading: all variants compute correct group-by sums; only the ADCP\n\
         also streams each running total to the coordinator port (a second\n\
         destination — impossible under egress pinning without recirculating)."
    );
}
