//! In-network ML parameter aggregation across all three architecture
//! variants — the paper's running example (§3.1), end to end.
//!
//! ```sh
//! cargo run --release --example parameter_server -- [workers] [model] [width]
//! # e.g. 16 workers, 4096-weight model, 16 weights per packet:
//! cargo run --release --example parameter_server -- 16 4096 16
//! ```
//!
//! Prints the per-variant report: correctness, recirculation tax,
//! element (weight) rate, latency — the quantities behind Figs. 2 and 6.

use adcp::apps::driver::TargetKind;
use adcp::apps::paramserv::{run, ParamServerCfg};

fn arg(n: usize, default: u32) -> u32 {
    std::env::args()
        .nth(n)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let cfg = ParamServerCfg {
        workers: arg(1, 8),
        model_size: arg(2, 1024),
        width: arg(3, 16),
        seed: 42,
    };
    println!(
        "parameter server: {} workers, {} weights, width {} (RMT variants go scalar)\n",
        cfg.workers, cfg.model_size, cfg.width
    );
    for kind in [
        TargetKind::Adcp,
        TargetKind::RmtRecirc,
        TargetKind::RmtPinned,
    ] {
        let r = run(kind, &cfg);
        println!("{}", r.summary_line());
        for n in &r.notes {
            println!("    note: {n}");
        }
    }
    println!(
        "\nreading: the ADCP aggregates {}x more weights per packet and never\n\
         recirculates; rmt/recirc pays one extra pipeline pass per packet;\n\
         rmt/pinned cannot distribute results (Fig. 2).",
        arg(3, 16)
    );
}
