//! `adcp-trace` — run one application and dump its per-stage breakdown.
//!
//! Usage: `cargo run --release -p adcp-bench --bin adcp-trace --
//!         [--app NAME|table1] [--target adcp|rmt-pinned|rmt-recirc]
//!         [--quick] [--json] [--validate]
//!         [--migrate drain|incremental|off]
//!         [--sample N] [--chrome OUT.json] [--journeys [PKT]]
//!         [--forensics]`
//!        `adcp-trace --fabric --chrome OUT.json [--quick]`
//!        `adcp-trace --diff A.json B.json`
//!
//! Default output is a per-stage table of every counter, gauge, span
//! histogram, and queue-depth series the switch recorded. `--json` prints
//! the full `AppReport` (metrics block included) instead. `--validate`
//! checks the exported metrics block against
//! `schemas/metrics.schema.json` and exits non-zero on any violation —
//! CI runs this on a quick regenerator.
//!
//! The journey-tracer consumers (any of them force-enables tracing for
//! the run; `--sample N` keeps hop spans for packet ids where
//! `fnv(id) % N == 0`, default 1 = every packet):
//!
//! * `--chrome OUT.json` writes a Chrome trace-event document loadable in
//!   Perfetto / `chrome://tracing` — one track per pipe/TM, journey spans
//!   as duration events, drops and control-plane actions as instants.
//!   The document is validated against `schemas/chrome_trace.schema.json`
//!   before it is written.
//! * `--journeys [PKT]` pretty-prints reconstructed packet walks (all
//!   sampled packets, or just `PKT`).
//! * `--forensics` groups every recorded drop by site+reason with the
//!   queue state at the moment of death and cross-checks the per-reason
//!   totals against the metrics registry's drop counters, exiting
//!   non-zero on any mismatch. Drops are captured at every sampling
//!   rate, so the check is exact even under `--sample 64`.
//!
//! `--app table1` is a pseudo-app: every application of the paper's
//! Table 1, each run on both the ADCP and the RMT baseline — the
//! configuration under which the forensics invariant is asserted across
//! the whole matrix.
//!
//! `--fabric --chrome OUT.json` runs the 2-spine × 4-leaf demo fabric
//! with tracing and INT stamping on and writes ONE Chrome trace for the
//! whole topology: `pid` = device, flow events (`ph:s`/`ph:f`, bound by
//! packet id) for every inter-switch link crossing, and the INT
//! collector's microburst / path-change anomalies overlaid per device.
//!
//! `--migrate` sets the control-plane policy of `partmigrate`, the one
//! app that carries one: pick the migration strategy or turn the
//! controller off entirely. It applies to `--app partmigrate` and to the
//! `partmigrate` row of an `--app table1` sweep; with any other single
//! `--app` it is a usage error (exit 2).
//!
//! `--diff A.json B.json` compares two saved metrics exports (raw blocks
//! or `--json` AppReports) and prints changed counters/gauges plus scopes
//! present on only one side — the quickest way to see what a code or
//! config change did to the per-stage picture.

use adcp_apps::driver::{AppReport, TargetKind};
use adcp_apps::suite;
use adcp_bench::journey::{
    chrome_trace, fabric_chrome_trace, forensics, format_journeys, ChromeRun, FabricChromeDevice,
};
use adcp_bench::report::{print_json, print_table};
use adcp_bench::trace::{diff_metrics, flatten, metrics_block, parse_target, run_one_with};
use adcp_sim::schema::{load_chrome_trace_schema, load_metrics_schema, validate};
use adcp_sim::telemetry::Collector;

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn diff_main(path_a: &str, path_b: &str) -> ! {
    let load = |path: &str| -> serde::Value {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        });
        serde_json::from_str(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse {path}: {e}");
            std::process::exit(2);
        })
    };
    let doc_a = load(path_a);
    let doc_b = load(path_b);
    let a = metrics_block(&doc_a).unwrap_or_else(|| {
        eprintln!("{path_a}: no metrics block found (want a raw export or an AppReport)");
        std::process::exit(2);
    });
    let b = metrics_block(&doc_b).unwrap_or_else(|| {
        eprintln!("{path_b}: no metrics block found (want a raw export or an AppReport)");
        std::process::exit(2);
    });
    let rows = diff_metrics(a, b);
    if rows.is_empty() {
        println!("no metric differences between {path_a} and {path_b}");
        std::process::exit(0);
    }
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scope.clone(),
                r.name.clone(),
                r.a.clone(),
                r.b.clone(),
                r.delta.clone(),
            ]
        })
        .collect();
    print_table(
        &format!("adcp-trace --diff {path_a} {path_b}"),
        &["stage", "metric", "a", "b", "delta"],
        &cells,
    );
    std::process::exit(0);
}

/// `--fabric --chrome OUT.json`: run the 2-spine × 4-leaf demo fabric
/// with journey tracing and INT stamping on every device, then write ONE
/// Chrome trace for the whole fabric — `pid` = device (leaves then
/// spines), journey spans on each device's tracks, `ph:s`/`ph:f` flow
/// events for every inter-switch link crossing (bound by packet id), and
/// the INT collector's microburst / path-change instants overlaid on a
/// per-device `telemetry` track.
fn fabric_main(chrome: Option<&str>, quick: bool) -> ! {
    let Some(path) = chrome else {
        eprintln!("--fabric needs --chrome OUT.json (it is a trace exporter)");
        std::process::exit(2);
    };
    let packets = if quick { 400 } else { 4000 };
    let mut cfg = adcp_fabric::FabricConfig::default();
    cfg.switch.trace = true;
    cfg.switch.int = true;
    let (demo, mut fabric) = adcp_fabric::run_demo_keep(7, packets, cfg);
    if !demo.correct {
        eprintln!("fabric demo run diverged from its oracle: {demo:?}");
        std::process::exit(1);
    }

    let mut coll = Collector::default();
    for d in 0..fabric.n_devices() {
        coll.set_device_name(d, fabric.device_name(d));
    }
    for pc in fabric.drain_postcards() {
        coll.ingest(&pc);
    }
    for d in 0..fabric.n_devices() {
        coll.ingest_drops(d, &fabric.device_trace_json(d));
    }

    let devices: Vec<FabricChromeDevice> = (0..fabric.n_devices())
        .map(|d| FabricChromeDevice {
            device: d,
            name: fabric.device_name(d),
            trace: fabric.device_trace_json(d),
        })
        .collect();
    let overlay = coll.chrome_overlay_events(950);
    let doc = fabric_chrome_trace(&devices, fabric.crossings(), overlay);
    let schema = load_chrome_trace_schema().unwrap_or_else(|e| {
        eprintln!("cannot load chrome trace schema: {e}");
        std::process::exit(2);
    });
    if let Err(errors) = validate(&doc, &schema) {
        eprintln!("fabric chrome export violates schemas/chrome_trace.schema.json:");
        for e in &errors {
            eprintln!("  {e}");
        }
        std::process::exit(1);
    }
    let n_events = doc
        .get("traceEvents")
        .and_then(serde::Value::as_array)
        .map_or(0, |a| a.len());
    let text = serde_json::to_string_pretty(&doc).expect("chrome doc serializes");
    std::fs::write(path, text).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(2);
    });
    let (stamps, postcards, truncated) = fabric.int_totals();
    let (bursts, _) = coll.microbursts();
    let (changes, _) = coll.path_changes();
    println!(
        "fabric: {} devices, {}/{} pkts delivered, {} link crossings{}",
        fabric.n_devices(),
        demo.delivered,
        demo.injected,
        fabric.crossings().len(),
        if fabric.crossings_truncated() > 0 {
            " (truncated)"
        } else {
            ""
        }
    );
    println!(
        "int: {stamps} stamps / {postcards} postcards / {truncated} truncated; \
         collector saw {} microbursts, {} path changes",
        bursts.len(),
        changes.len()
    );
    println!(
        "wrote {n_events} trace events to {path} (schema-valid; load in \
         https://ui.perfetto.dev or chrome://tracing)"
    );
    std::process::exit(0);
}

/// `--journeys` takes an optional packet id: present when the next token
/// parses as one, absent when the flag is last or followed by a flag.
fn journeys_arg() -> Option<Option<u64>> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == "--journeys")?;
    Some(args.get(i + 1).and_then(|v| v.parse::<u64>().ok()))
}

fn print_forensics(name: &str, report: &AppReport) -> bool {
    let Some(f) = forensics(&report.trace, &report.metrics) else {
        eprintln!(
            "{name}: forensics skipped — tracing or metrics disabled \
             (is ADCP_METRICS=off set?)"
        );
        return false;
    };
    let check_cells: Vec<Vec<String>> = f
        .checks
        .iter()
        .map(|c| {
            vec![
                c.reason.clone(),
                if c.tm == 0 {
                    "-".into()
                } else {
                    format!("tm{}", c.tm)
                },
                c.forensic.to_string(),
                c.counter.to_string(),
                c.counter_name.clone(),
                if c.ok { "ok".into() } else { "MISMATCH".into() },
            ]
        })
        .collect();
    print_table(
        &format!("{name}: drop forensics vs metrics registry"),
        &[
            "reason",
            "tm",
            "forensic",
            "counter",
            "counter name",
            "check",
        ],
        &check_cells,
    );
    if !f.rows.is_empty() {
        let site_cells: Vec<Vec<String>> = f
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.site.clone(),
                    r.reason.clone(),
                    r.queue
                        .map(|q| format!("q{q}"))
                        .unwrap_or_else(|| "-".into()),
                    r.count.to_string(),
                    r.detail.clone(),
                ]
            })
            .collect();
        print_table(
            &format!("{name}: drops by site (queue state at death)"),
            &["site", "reason", "queue", "count", "state at death"],
            &site_cells,
        );
    }
    for m in &f.mismatches {
        eprintln!("{name}: FORENSICS MISMATCH: {m}");
    }
    f.ok()
}

fn main() {
    if let Some(a) = arg_value("--diff") {
        let args: Vec<String> = std::env::args().collect();
        let b = args
            .iter()
            .position(|x| x == "--diff")
            .and_then(|i| args.get(i + 2).cloned())
            .unwrap_or_else(|| {
                eprintln!("--diff needs two file arguments: --diff A.json B.json");
                std::process::exit(2);
            });
        diff_main(&a, &b);
    }
    if std::env::args().any(|a| a == "--fabric") {
        let chrome = arg_value("--chrome");
        let quick = std::env::args().any(|a| a == "--quick");
        fabric_main(chrome.as_deref(), quick);
    }
    let app = arg_value("--app").unwrap_or_else(|| "paramserv".into());
    let target = match arg_value("--target") {
        None => TargetKind::Adcp,
        Some(s) => parse_target(&s).unwrap_or_else(|| {
            eprintln!("unknown --target {s:?} (want adcp, rmt-pinned, or rmt-recirc)");
            std::process::exit(2);
        }),
    };
    let migrate = arg_value("--migrate").map(|s| {
        adcp_apps::migrate::parse_strategy(&s).unwrap_or_else(|| {
            eprintln!("unknown --migrate {s:?} (want drain, incremental, or off)");
            std::process::exit(2);
        })
    });
    let quick = std::env::args().any(|a| a == "--quick");
    let json = std::env::args().any(|a| a == "--json");
    let do_validate = std::env::args().any(|a| a == "--validate");
    let chrome = arg_value("--chrome");
    let journeys = journeys_arg();
    let do_forensics = std::env::args().any(|a| a == "--forensics");
    let sample = arg_value("--sample").map(|s| {
        s.parse::<u64>()
            .ok()
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| {
                eprintln!("--sample wants an integer N >= 1, got {s:?}");
                std::process::exit(2);
            })
    });

    // Any journey consumer force-enables tracing for the run (the env
    // override both switch models read at construction).
    if sample.is_some() || chrome.is_some() || journeys.is_some() || do_forensics {
        std::env::set_var("ADCP_TRACE", sample.unwrap_or(1).to_string());
    }

    // SIGINT/SIGTERM finish the app run in progress, then fall through to
    // the consumers below with whatever completed — a partial table1 sweep
    // still validates, exports, and prints its forensics.
    adcp_bench::shutdown::install();

    let runs: Vec<(String, AppReport)> = if app == "table1" {
        let mut v = Vec::new();
        'sweep: for a in suite::names() {
            for kind in [TargetKind::Adcp, TargetKind::RmtPinned] {
                if adcp_bench::shutdown::requested() {
                    eprintln!(
                        "adcp-trace: interrupted by signal — flushing the {} completed run(s)",
                        v.len()
                    );
                    break 'sweep;
                }
                let r = run_one_with(a, kind, quick, migrate).expect("known app");
                v.push((format!("{a} on {}", kind.label()), r));
            }
        }
        if v.is_empty() {
            eprintln!("adcp-trace: no runs completed before the signal");
            std::process::exit(130);
        }
        v
    } else {
        if suite::app(&app).is_none() {
            let names: Vec<&str> = suite::names().collect();
            eprintln!(
                "unknown --app {app:?} (want table1 or one of: {})",
                names.join(", ")
            );
            std::process::exit(2);
        }
        if migrate.is_some() && app != suite::PARTMIGRATE {
            eprintln!(
                "--migrate sets the controller policy of --app {0} (or of the {0} row of \
                 --app table1); {app} has no control-plane knob",
                suite::PARTMIGRATE
            );
            std::process::exit(2);
        }
        let report = run_one_with(&app, target, quick, migrate).expect("known app");
        vec![(format!("{app} on {}", target.label()), report)]
    };

    if do_validate {
        let schema = load_metrics_schema().unwrap_or_else(|e| {
            eprintln!("cannot load metrics schema: {e}");
            std::process::exit(2);
        });
        for (name, report) in &runs {
            match validate(&report.metrics, &schema) {
                Ok(()) => println!("{name}: metrics block conforms to schemas/metrics.schema.json"),
                Err(errors) => {
                    eprintln!("{name}: metrics block violates schemas/metrics.schema.json:");
                    for e in &errors {
                        eprintln!("  {e}");
                    }
                    std::process::exit(1);
                }
            }
        }
    }

    if let Some(path) = &chrome {
        let chrome_runs: Vec<ChromeRun> = runs
            .iter()
            .map(|(name, r)| ChromeRun {
                name: name.clone(),
                trace: r.trace.clone(),
            })
            .collect();
        let doc = chrome_trace(&chrome_runs);
        let schema = load_chrome_trace_schema().unwrap_or_else(|e| {
            eprintln!("cannot load chrome trace schema: {e}");
            std::process::exit(2);
        });
        if let Err(errors) = validate(&doc, &schema) {
            eprintln!("chrome export violates schemas/chrome_trace.schema.json:");
            for e in &errors {
                eprintln!("  {e}");
            }
            std::process::exit(1);
        }
        let n_events = doc
            .get("traceEvents")
            .and_then(serde::Value::as_array)
            .map_or(0, |a| a.len());
        let text = serde_json::to_string_pretty(&doc).expect("chrome doc serializes");
        std::fs::write(path, text).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        });
        println!(
            "wrote {n_events} trace events to {path} (schema-valid; load in \
             https://ui.perfetto.dev or chrome://tracing)"
        );
    }

    if let Some(pkt) = journeys {
        for (name, report) in &runs {
            println!("── journeys: {name}");
            print!("{}", format_journeys(&report.trace, pkt, 8));
        }
    }

    if do_forensics {
        let mut all_ok = true;
        for (name, report) in &runs {
            all_ok &= print_forensics(name, report);
        }
        if !all_ok {
            eprintln!("forensic drop counts disagree with the metrics registry");
            std::process::exit(1);
        }
        println!(
            "forensics: every recorded drop reason matches its registry counter \
             across {} run(s)",
            runs.len()
        );
    }

    if json {
        let reports: Vec<AppReport> = runs.iter().map(|(_, r)| r.clone()).collect();
        print_json("adcp_trace", &reports);
        return;
    }

    if chrome.is_some() || journeys.is_some() || do_forensics {
        return; // journey consumers replace the default metrics table
    }

    let (_, report) = &runs[0];
    let rows = flatten(&report.metrics);
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scope.clone(),
                r.kind.to_string(),
                r.name.clone(),
                r.value.clone(),
                r.detail.clone(),
            ]
        })
        .collect();
    print_table(
        &format!(
            "adcp-trace — {} on {} ({} run): per-stage metrics",
            report.app,
            report.target,
            if quick { "quick" } else { "full" },
        ),
        &["stage", "kind", "metric", "value", "detail"],
        &cells,
    );
    println!(
        "\n{} | end-to-end p99 {:.1}ns over {} delivered packets",
        report.summary_line(),
        report.latency.p99_ns,
        report.delivered,
    );
    if !report
        .metrics
        .get("enabled")
        .and_then(serde::Value::as_bool)
        .unwrap_or(false)
    {
        println!("note: metrics registry disabled (ADCP_METRICS=off) — nothing was recorded");
    }
}
