//! `adcpd` — the long-running ADCP serving daemon.
//!
//! Modes:
//!
//! * `--soak-quick` — the compressed CI soak (fault schedule, autoscaler
//!   must demonstrably scale up AND down, books must balance). Exit code
//!   0 only when the report meets the soak bar.
//! * `--soak` — the same choreography over 4× the sim time.
//! * `--serve` — serve until SIGINT/SIGTERM (or `--slices N`), then
//!   drain gracefully and report. Exit code reflects invariant health.
//!
//! Common flags: `--seed N`, `--app shardcount|shardmax`,
//! `--out DIR` (rotating metrics/trace stream), `--json` (report as JSON
//! on stdout instead of the human summary).

use adcpd::daemon::{Daemon, DaemonCfg, SoakReport};
use adcpd::menu::ServeApp;
use adcpd::stream::StreamCfg;
use std::path::PathBuf;
use std::process::ExitCode;

struct Cli {
    mode: Mode,
    seed: u64,
    app: Option<ServeApp>,
    out: Option<PathBuf>,
    json: bool,
    slices: Option<u64>,
    int: bool,
}

#[derive(PartialEq)]
enum Mode {
    SoakQuick,
    Soak,
    Serve,
}

fn parse_args() -> Result<Cli, String> {
    let mut cli = Cli {
        mode: Mode::Serve,
        seed: 7,
        app: None,
        out: None,
        json: false,
        slices: None,
        int: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut grab = |what: &str| {
            args.next()
                .ok_or_else(|| format!("{what} requires a value"))
        };
        match a.as_str() {
            "--soak-quick" => cli.mode = Mode::SoakQuick,
            "--soak" => cli.mode = Mode::Soak,
            "--serve" => cli.mode = Mode::Serve,
            "--seed" => {
                cli.seed = grab("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--app" => {
                let v = grab("--app")?;
                cli.app = Some(ServeApp::parse(&v).ok_or_else(|| format!("unknown app {v:?}"))?);
            }
            "--out" => cli.out = Some(PathBuf::from(grab("--out")?)),
            "--json" => cli.json = true,
            "--int" => cli.int = true,
            "--slices" => {
                cli.slices = Some(
                    grab("--slices")?
                        .parse()
                        .map_err(|e| format!("--slices: {e}"))?,
                )
            }
            "--help" | "-h" => {
                print!("{}", HELP);
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    Ok(cli)
}

const HELP: &str = "\
adcpd - ADCP serving daemon with SLO tracking and a closed-loop autoscaler

USAGE:
    adcpd [--soak-quick | --soak | --serve] [FLAGS]

FLAGS:
    --soak-quick       compressed CI soak; exit 0 iff healthy AND the
                       autoscaler scaled up and down at least once
    --soak             full soak (4x the sim time of --soak-quick)
    --serve            serve until SIGINT/SIGTERM (default mode)
    --seed N           master seed (default 7)
    --app NAME         shardcount | shardmax (default shardcount)
    --out DIR          stream rotating metrics-/trace-*.json into DIR
    --int              stamp INT telemetry and stream telemetry-*.json
                       reports (microbursts, path changes, flow paths);
                       correlated microburst/SLO alerts land in the trace
    --json             print the report as JSON instead of a summary
    --slices N         override the slice budget (u64::MAX-like = forever)
    -h, --help         this text
";

fn human_summary(r: &SoakReport) {
    println!("adcpd soak report — app={} seed={}", r.app, r.seed);
    println!(
        "  sim time      {:.3} ms over {} slices{}",
        r.sim_ns as f64 / 1e6,
        r.slices_run,
        if r.shutdown_requested {
            " (shutdown requested)"
        } else {
            ""
        }
    );
    println!(
        "  traffic       {} arrivals, {} wire-dropped, {} injected, {} delivered",
        r.arrivals, r.wire_dropped, r.injected, r.delivered
    );
    for d in &r.drops {
        println!("  drop          {} (tm{}) = {}", d.reason, d.tm, d.count);
    }
    println!(
        "  latency       p50 {} ns / p99 {} ns (objectives {} / {}); {}/{} slices violated",
        r.slo.p50_ns,
        r.slo.p99_ns,
        r.slo.objective_p50_ns,
        r.slo.objective_p99_ns,
        r.slo.violations,
        r.slo.slices
    );
    println!(
        "  autoscaler    {} up / {} down / {} skew; final pipes {} epoch {}",
        r.scale_ups, r.scale_downs, r.skew_rebalances, r.final_pipes, r.final_epoch
    );
    println!(
        "  migration     {} migrations, {} keys moved, {} misroutes",
        r.migrations, r.moved_keys, r.misroutes
    );
    if let Some(t) = &r.telemetry {
        println!(
            "  telemetry     {} postcards / {} stamps over {} pkts; {} microbursts \
             ({} burst slices), {} path changes, {} SLO alerts",
            t.postcards,
            t.stamps,
            t.pkts,
            t.microbursts,
            t.microburst_slices,
            t.path_changes,
            t.alerts
        );
    }
    if r.snapshots_written > 0 {
        println!("  stream        {} snapshots written", r.snapshots_written);
    }
    for line in &r.drift {
        println!("  DRIFT         {line}");
    }
    for line in &r.oracle {
        println!("  ORACLE        {line}");
    }
    println!(
        "  verdict       conservation={} healthy={}",
        r.conservation_ok, r.healthy
    );
}

fn main() -> ExitCode {
    let cli = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("adcpd: {e}");
            return ExitCode::from(2);
        }
    };
    adcp_sim::shutdown::install();
    let mut cfg = match cli.mode {
        Mode::SoakQuick => DaemonCfg::soak_quick(cli.seed),
        Mode::Soak => DaemonCfg::soak(cli.seed),
        Mode::Serve => DaemonCfg {
            slices: u64::MAX,
            ..DaemonCfg::soak_quick(cli.seed)
        },
    };
    if let Some(app) = cli.app {
        cfg.app = app;
    }
    if let Some(n) = cli.slices {
        cfg.slices = n;
    }
    if let Some(dir) = cli.out {
        cfg.stream = Some(StreamCfg { dir, keep: 8 });
    }
    cfg.int = cli.int;
    let daemon = match Daemon::new(cfg) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("adcpd: {e}");
            return ExitCode::from(2);
        }
    };
    let report = daemon.run();
    if cli.json {
        println!("{}", report.to_json());
    } else {
        human_summary(&report);
    }
    let ok = match cli.mode {
        Mode::SoakQuick | Mode::Soak => report.meets_soak_bar(),
        Mode::Serve => report.healthy,
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
