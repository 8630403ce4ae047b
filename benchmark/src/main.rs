//! The repo benchmark: seven named workloads, end-to-end and per-layer
//! metrics, timed from outside the crates. See `benchmark/README.md`.
//!
//! ```text
//! adcp-benchmark --workload W --seed N --seconds S --trace 0|1   one workload (the driver's call)
//! adcp-benchmark --all [--seed N] [--smoke] [--out FILE]         every workload, each in a child
//! adcp-benchmark --repeat-check [--seed N] [--smoke]             --all twice, held to the bounds
//! adcp-benchmark --compare A.json B.json                         verdict per metric x workload
//! adcp-benchmark --spec                                          print BENCHMARK.json
//! ```

mod alloc;
mod driven;
mod env;
mod probes;
mod programs;
mod report;
mod run;
mod serve;
mod spans;
mod spec;
mod stats;
mod table1;

use run::{Budget, RunCfg, Workload};
use serde::Value;
use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Timed repetitions per workload under `--all`.
const ALL_REPS: u32 = 5;
/// Untraced/traced repetition pairs per workload under `--all`: the trace
/// overhead is a difference of two walls, so one pair is mostly noise.
const ALL_TRACED_PAIRS: u32 = 3;
/// Input shrink under `--smoke`.
const SMOKE_SHRINK: u64 = 100;
/// The simulator's observability knobs, pinned so the caller's environment
/// cannot leak into a measurement.
const PINNED_ENV: [(&str, &str); 3] = [
    ("ADCP_METRICS", "on"),
    ("ADCP_TRACE", "off"),
    ("ADCP_INT", "off"),
];

struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }
    fn value(&self, name: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == name)?;
        self.0.get(i + 1).map(String::as_str)
    }
    fn num<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| v.parse().map_err(|_| format!("{name}: cannot read `{v}`")))
            .transpose()
    }
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("adcp-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(args: &Args) -> Result<ExitCode, String> {
    let seed: u64 = args.num("--seed")?.unwrap_or(1);
    let shrink = if args.flag("--smoke") {
        SMOKE_SHRINK
    } else {
        1
    };
    if args.flag("--spec") {
        println!(
            "{}",
            serde_json::to_string_pretty(&spec::benchmark_json()).map_err(|e| format!("{e:?}"))?
        );
        return Ok(ExitCode::SUCCESS);
    }
    if let Some(a) = args.value("--compare") {
        let i = args
            .0
            .iter()
            .position(|x| x == "--compare")
            .expect("found above");
        let b = args.0.get(i + 2).ok_or("--compare takes two files")?;
        let (regressed, unresolved) = report::compare(&load(a)?, &load(b)?)?;
        println!("{regressed} regressed, {unresolved} unresolved");
        return Ok(exit_if(regressed + unresolved > 0));
    }
    if args.flag("--repeat-check") {
        let first = all(seed, shrink, None)?;
        let second = all(seed, shrink, None)?;
        let (regressed, unresolved) = report::compare(&first.0, &second.0)?;
        println!("repeat-check: {regressed} regressed, {unresolved} unresolved");
        return Ok(exit_if(regressed + unresolved > 0 || !first.1 || !second.1));
    }
    if args.flag("--all") {
        let (_, ok) = all(seed, shrink, args.value("--out"))?;
        return Ok(exit_if(!ok));
    }
    let name = args
        .value("--workload")
        .ok_or("give --workload, --all, --repeat-check, --compare or --spec")?;
    let (name, _) = *spec::WORKLOADS
        .iter()
        .find(|w| w.0 == name)
        .ok_or_else(|| format!("no workload named `{name}`"))?;
    let budget = match args.num("--reps")? {
        Some(n) => Budget::Reps(n),
        None => Budget::Seconds(args.num("--seconds")?.unwrap_or(spec::RUN_SECONDS as f64)),
    };
    let trace = match args.value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace: `{v}` is neither 0 nor 1")),
    };
    // Single-threaded here: nothing else reads the environment yet.
    for (k, v) in PINNED_ENV {
        std::env::set_var(k, v);
    }
    let fingerprint = env::Fingerprint::before();
    let result = run::run(RunCfg {
        workload: Workload::parse(name).expect("every declared workload parses"),
        name,
        seed,
        budget,
        trace,
        shrink,
    });
    let fingerprint = fingerprint.after();
    let detail = report::detail(&result, &fingerprint);
    report::print_detail(&detail);
    let mut line = String::new();
    detail.encode(&mut line);
    println!("detail: {line}");
    println!("{}", report::contract_line(&result));
    Ok(ExitCode::SUCCESS)
}

fn exit_if(bad: bool) -> ExitCode {
    if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e:?}"))
}

/// Run one workload in a child process of this binary and read back its
/// `detail:` line. A child is what makes `peak_rss_mb` per workload.
fn child(name: &str, seed: u64, shrink: u64, trace: bool, reps: u32) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--reps", &reps.to_string()])
        .envs(PINNED_ENV);
    if shrink > 1 {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("{name}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{name}: child exited with {}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("detail: "))
        .ok_or_else(|| format!("{name}: child printed no detail line"))?;
    serde_json::from_str(line).map_err(|e| format!("{name}: {e:?}"))
}

/// A child run, re-run once if it was noisy: its two calibration readings
/// disagree, or its timed repetitions' throughput spreads by more than the
/// same share (a neighbour that thrashes memory slows the simulator but not
/// the integer loop).
fn steady_child(
    name: &str,
    seed: u64,
    shrink: u64,
    trace: bool,
    reps: u32,
) -> Result<Value, String> {
    let noisy = |d: &Value| {
        let calibration = d
            .get("fingerprint")
            .and_then(|f| f.get("noisy"))
            .and_then(Value::as_bool)
            .unwrap_or(false);
        let f = |k: &str| {
            d.get("end_to_end")
                .and_then(|e| e.get("sim_pkts_per_s"))
                .and_then(|m| m.get(k))
                .and_then(Value::as_f64)
        };
        let spread = match (f("q1"), f("median"), f("q3")) {
            (Some(q1), Some(median), Some(q3)) if median > 0.0 => (q3 - q1) / median,
            _ => 0.0,
        };
        calibration || spread > env::NOISY_SHARE
    };
    let first = child(name, seed, shrink, trace, reps)?;
    if !noisy(&first) {
        return Ok(first);
    }
    eprintln!(
        "{name}: noisy run (calibration or repetition spread above 10 %); running it once more"
    );
    child(name, seed, shrink, trace, reps)
}

/// `--all`: every workload, sequentially, each in its own child — one
/// untraced run (warm-up, 5 timed repetitions) and one traced run (warm-up,
/// 3 untraced/traced pairs). Prints
/// every metric by name with its unit; returns the document and whether
/// every gate passed.
fn all(seed: u64, shrink: u64, out: Option<&str>) -> Result<(Value, bool), String> {
    let mut workloads = serde::Map::new();
    let mut ok = true;
    let mut fingerprint = Value::Null;
    for (name, _) in spec::WORKLOADS {
        let timed = steady_child(name, seed, shrink, false, ALL_REPS)?;
        let traced = steady_child(name, seed, shrink, true, ALL_TRACED_PAIRS)?;
        let failed = |d: &Value| d.get("failed").and_then(Value::as_u64).unwrap_or(1);
        let total_failed = failed(&timed) + failed(&traced);
        ok &= total_failed == 0;
        println!("== {name}  failed={total_failed}");
        report::print_detail(&timed);
        report::print_detail(&traced);
        fingerprint = timed.get("fingerprint").cloned().unwrap_or(Value::Null);
        let mut w = serde::Map::new();
        for key in [
            "reps",
            "attempted",
            "rep_wall_s",
            "end_to_end",
            "fingerprint",
        ] {
            w.insert(key.into(), timed.get(key).cloned().unwrap_or(Value::Null));
        }
        w.insert("failed".into(), Value::U64(total_failed));
        w.insert(
            "per_layer".into(),
            traced.get("per_layer").cloned().unwrap_or(Value::Null),
        );
        workloads.insert(name.into(), Value::Object(w));
    }
    let mut doc = serde::Map::new();
    doc.insert("benchmark".into(), Value::String("adcp-benchmark".into()));
    doc.insert("seed".into(), Value::U64(seed));
    doc.insert("shrink".into(), Value::U64(shrink));
    doc.insert("fingerprint".into(), fingerprint);
    doc.insert("workloads".into(), Value::Object(workloads));
    let doc = Value::Object(doc);
    if let Some(path) = out {
        let text = serde_json::to_string_pretty(&doc).map_err(|e| format!("{e:?}"))?;
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("== {}", if ok { "all gates passed" } else { "FAILED" });
    Ok((doc, ok))
}
