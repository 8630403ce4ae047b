//! `adcp trace` — run one application and dump its per-stage breakdown.
//!
//! Usage: `adcp trace [--app NAME|table1] [--target adcp|rmt-pinned|rmt-recirc]
//!         [--quick] [--json] [--validate]
//!         [--migrate drain|incremental|off]
//!         [--sample N] [--chrome OUT.json] [--journeys [PKT]]
//!         [--forensics]`
//!        `adcp trace --fabric --chrome OUT.json [--quick]`
//!        `adcp trace --diff A.json B.json`
//!
//! Default output is a per-stage table of every counter, gauge, span
//! histogram, and queue-depth series the switch recorded. `--json` prints
//! the full `AppReport` instead, and `--validate` checks each exported
//! metrics block against `schemas/metrics.schema.json` (exit 1 on a
//! violation). The journey consumers — `--chrome` (a schema-checked
//! Chrome trace-event document), `--journeys` (packet walks) and
//! `--forensics` (drops by site and reason, cross-checked against the
//! registry's drop counters; exit 1 on a mismatch) — force tracing on,
//! keeping hop spans for packet ids with `fnv(id) % N == 0` under
//! `--sample N` (default 1; drops are always kept).
//!
//! `--app table1` runs every app of the suite on the ADCP and the RMT
//! baseline. `--migrate` sets the controller policy of `partmigrate`, the
//! one app with a control-plane knob (alone or as that row of `table1`);
//! with any other `--app` it exits 2. `--diff` compares two saved metrics
//! exports (raw blocks or `--json` AppReports) and prints what changed per
//! stage. EXPERIMENTS.md ("Per-stage observability") walks through each.

use adcp_apps::driver::{AppReport, TargetKind};
use adcp_apps::suite;
use adcp_bench::journey::{
    chrome_trace, fabric_chrome_trace, forensics, format_journeys, ChromeRun, FabricChromeDevice,
};
use adcp_bench::report::{print_json, print_table};
use adcp_bench::trace::{diff_metrics, flatten, metrics_block, parse_target, run_one_with};
use adcp_sim::schema::{load_chrome_trace_schema, load_metrics_schema, validate};
use adcp_sim::telemetry::Collector;

fn arg_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn has(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Report a usage or input error and exit with `code`.
fn die(code: i32, msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(code)
}

/// Validate a Chrome trace document against its schema and write it to
/// `path`; returns its event count. `what` names the export in errors.
fn write_chrome(doc: &serde::Value, path: &str, what: &str) -> usize {
    let schema = load_chrome_trace_schema()
        .unwrap_or_else(|e| die(2, format!("cannot load chrome trace schema: {e}")));
    if let Err(errors) = validate(doc, &schema) {
        eprintln!("{what} violates schemas/chrome_trace.schema.json:");
        for e in &errors {
            eprintln!("  {e}");
        }
        std::process::exit(1);
    }
    let text = serde_json::to_string_pretty(doc).expect("chrome doc serializes");
    std::fs::write(path, text).unwrap_or_else(|e| die(2, format!("cannot write {path}: {e}")));
    (doc.get("traceEvents").and_then(serde::Value::as_array)).map_or(0, |a| a.len())
}

fn diff_main(path_a: &str, path_b: &str) -> ! {
    let load = |path: &str| -> serde::Value {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(2, format!("cannot read {path}: {e}")));
        serde_json::from_str(&text).unwrap_or_else(|e| die(2, format!("cannot parse {path}: {e}")))
    };
    let (doc_a, doc_b) = (load(path_a), load(path_b));
    let block = |doc, path| {
        metrics_block(doc).unwrap_or_else(|| {
            let want = "want a raw export or an AppReport";
            die(2, format!("{path}: no metrics block found ({want})"))
        })
    };
    let (a, b) = (block(&doc_a, path_a), block(&doc_b, path_b));
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
        &format!("adcp trace --diff {path_a} {path_b}"),
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
        die(
            2,
            "--fabric needs --chrome OUT.json (it is a trace exporter)",
        )
    };
    let packets = if quick { 400 } else { 4000 };
    let mut cfg = adcp_fabric::FabricConfig::default();
    cfg.switch.trace = true;
    cfg.switch.int = true;
    let (demo, mut fabric) = adcp_fabric::run_demo_keep(7, packets, cfg);
    if !demo.correct {
        die(
            1,
            format!("fabric demo run diverged from its oracle: {demo:?}"),
        );
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
    let n_events = write_chrome(&doc, path, "fabric chrome export");
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
fn journeys_arg(args: &[String]) -> Option<Option<u64>> {
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
                if c.ok { "ok" } else { "MISMATCH" }.into(),
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

/// Run `adcp trace` with the arguments after `trace`.
pub fn main(args: &[String]) {
    if let Some(a) = arg_value(args, "--diff") {
        let b = args
            .iter()
            .position(|x| x == "--diff")
            .and_then(|i| args.get(i + 2).cloned())
            .unwrap_or_else(|| die(2, "--diff needs two file arguments: --diff A.json B.json"));
        diff_main(&a, &b);
    }
    if has(args, "--fabric") {
        fabric_main(arg_value(args, "--chrome").as_deref(), has(args, "--quick"));
    }
    let app = arg_value(args, "--app").unwrap_or_else(|| "paramserv".into());
    let target = match arg_value(args, "--target") {
        None => TargetKind::Adcp,
        Some(s) => parse_target(&s).unwrap_or_else(|| {
            die(
                2,
                format!("unknown --target {s:?} (want adcp, rmt-pinned, or rmt-recirc)"),
            )
        }),
    };
    let migrate = arg_value(args, "--migrate").map(|s| {
        adcp_apps::migrate::parse_strategy(&s).unwrap_or_else(|| {
            die(
                2,
                format!("unknown --migrate {s:?} (want drain, incremental, or off)"),
            )
        })
    });
    let quick = has(args, "--quick");
    let json = has(args, "--json");
    let do_validate = has(args, "--validate");
    let chrome = arg_value(args, "--chrome");
    let journeys = journeys_arg(args);
    let do_forensics = has(args, "--forensics");
    let sample = arg_value(args, "--sample").map(|s| {
        s.parse::<u64>()
            .ok()
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| die(2, format!("--sample wants an integer N >= 1, got {s:?}")))
    });

    // Any journey consumer force-enables tracing for the run (the env
    // override both switch models read at construction).
    if sample.is_some() || chrome.is_some() || journeys.is_some() || do_forensics {
        std::env::set_var("ADCP_TRACE", sample.unwrap_or(1).to_string());
    }

    let runs: Vec<(String, AppReport)> = if app == "table1" {
        // SIGINT/SIGTERM finish the app run in progress, then fall through
        // to the consumers below with whatever completed — a partial sweep
        // still validates, exports, and prints its forensics.
        adcp_bench::shutdown::install();
        let mut v = Vec::new();
        'sweep: for a in suite::names() {
            for kind in [TargetKind::Adcp, TargetKind::RmtPinned] {
                if adcp_bench::shutdown::requested() {
                    eprintln!(
                        "adcp trace: interrupted by signal — flushing the {} completed run(s)",
                        v.len()
                    );
                    break 'sweep;
                }
                let r = run_one_with(a, kind, quick, migrate).expect("known app");
                v.push((format!("{a} on {}", kind.label()), r));
            }
        }
        if v.is_empty() {
            die(130, "adcp trace: no runs completed before the signal");
        }
        v
    } else {
        if suite::app(&app).is_none() {
            let names: Vec<&str> = suite::names().collect();
            let names = names.join(", ");
            die(
                2,
                format!("unknown --app {app:?} (want table1 or one of: {names})"),
            );
        }
        if migrate.is_some() && app != suite::PARTMIGRATE {
            let msg = format!(
                "--migrate sets the controller policy of --app {0} (or of the {0} row of \
                 --app table1); {app} has no control-plane knob",
                suite::PARTMIGRATE
            );
            die(2, msg);
        }
        let report = run_one_with(&app, target, quick, migrate).expect("known app");
        vec![(format!("{app} on {}", target.label()), report)]
    };

    if do_validate {
        let schema = load_metrics_schema()
            .unwrap_or_else(|e| die(2, format!("cannot load metrics schema: {e}")));
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
        let n_events = write_chrome(&chrome_trace(&chrome_runs), path, "chrome export");
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
            die(1, "forensic drop counts disagree with the metrics registry");
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
            "adcp trace — {} on {} ({} run): per-stage metrics",
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
