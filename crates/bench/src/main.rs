//! `adcp` — the command line of the experiment harness.
//!
//! ```text
//! adcp exp <name> [--quick] [--json]
//! adcp conformance [--cases N] [--seed S] [--quick] [--migrate] [--fabric] [--out DIR]
//! adcp conformance --replay PATH
//! adcp trace [--app NAME|table1] [...]     (see trace_cli.rs)
//! ```
//!
//! `exp` runs one row of [`experiments::ROWS`] and prints its text or,
//! with `--json`, one JSON line per table row tagged with the table's
//! name; an unknown name exits 2 and lists the rows, and a row that fails
//! the experiment's own check exits 1. `conformance` is the E-C1
//! differential harness (EXPERIMENTS.md): failures are shrunk into
//! replayable `CONFORMANCE_FAIL_<seed>.json` artifacts in `--out DIR`,
//! exit 1 on any; `CONFORMANCE_BUG` arms one of
//! [`conformance::BUG_HOOKS`], and an unknown name exits 2. An unknown
//! flag, or a flag with a missing or unparsable value, prints the usage
//! and exits 2 under `exp` and `conformance` alike.

mod trace_cli;

use std::path::PathBuf;
use std::process::ExitCode;

use adcp_apps::suite::Scale;
use adcp_bench::conformance::{self, replay, run, CaseError, RunConfig};
use adcp_bench::experiments::{self, ROWS};
use adcp_bench::report::print_json;
use adcp_bench::shutdown;

const USAGE: &str = "usage: adcp exp <name> [--quick] [--json]\n       \
                     adcp conformance [--cases N] [--seed S] [--quick] [--migrate] [--fabric] [--out DIR] [--replay PATH]\n       \
                     adcp trace [--app NAME|table1] [--target T] [--quick] [--json] [...]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    match args.first().map(String::as_str) {
        Some("exp") => exp(rest),
        Some("conformance") => conformance(rest),
        Some("trace") => {
            trace_cli::main(rest);
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn exp(args: &[String]) -> ExitCode {
    let (mut name, mut quick, mut json) = (None, false, false);
    for arg in args {
        match arg.as_str() {
            "--quick" => quick = true,
            "--json" => json = true,
            other if name.is_none() && !other.starts_with('-') => name = Some(other),
            other => {
                eprintln!("adcp exp: unexpected argument {other:?}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(exp) = name.and_then(experiments::find) else {
        let name = name.unwrap_or_default();
        eprintln!("adcp exp: no experiment named {name:?}; the experiments are:");
        for e in &ROWS {
            eprintln!("  {:<20} {}", e.name, e.paper_ref);
        }
        return ExitCode::from(2);
    };
    if exp.name == "exp_soak" {
        // The soak polls the latch between daemon runs and still prints
        // the rows it finished.
        shutdown::install();
    }
    let rendered = (exp.run)(Scale::of(quick));
    if json && !rendered.tables.is_empty() {
        for (table, rows) in &rendered.tables {
            print_json(table, rows.as_array().unwrap_or_default());
        }
    } else {
        print!("{}", rendered.text);
    }
    if rendered.ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("adcp exp {}: at least one row failed its check", exp.name);
        ExitCode::FAILURE
    }
}

/// Parse `adcp conformance`'s flags: the run's configuration and the
/// artifact to replay, if any. A missing or unparsable value, or an
/// unknown flag, is an error naming it.
fn parse_conformance(args: &[String]) -> Result<(RunConfig, Option<PathBuf>), String> {
    let mut cfg = RunConfig::default();
    let mut replay_path: Option<PathBuf> = None;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--cases" => {
                let v = value()?;
                cfg.cases = v
                    .parse()
                    .map_err(|_| format!("--cases: {v:?} is not a number"))?;
            }
            "--seed" => {
                let v = value()?;
                cfg.master_seed = v
                    .strip_prefix("0x")
                    .map(|h| u64::from_str_radix(h, 16))
                    .unwrap_or_else(|| v.parse())
                    .map_err(|_| format!("--seed: {v:?} is not a number"))?;
            }
            "--quick" => cfg.quick = true,
            "--migrate" => cfg.migrate = true,
            "--fabric" => cfg.fabric = true,
            "--out" => cfg.out_dir = PathBuf::from(value()?),
            "--replay" => replay_path = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok((cfg, replay_path))
}

fn conformance(args: &[String]) -> ExitCode {
    let (mut cfg, replay_path) = match parse_conformance(args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("adcp conformance: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    cfg.bug = match conformance::bug_from_env() {
        Ok(bug) => bug,
        Err(e) => {
            eprintln!("conformance: {e}");
            return ExitCode::from(2);
        }
    };
    // SIGINT/SIGTERM stop the run at the next case boundary; the partial
    // report (every case actually attempted) is still printed below.
    shutdown::install();

    if let Some(path) = replay_path {
        let verdict = replay(&path, cfg.bug);
        let path = path.display();
        match &verdict {
            Ok(()) => println!("replay {path}: PASS"),
            Err(CaseError::Skip(e)) => eprintln!("replay {path}: could not run: {e}"),
            Err(CaseError::Mismatch(e)) => eprintln!("replay {path}: FAIL: {e}"),
        }
        return ExitCode::from(u8::from(verdict.is_err()));
    }

    let report = run(&cfg);
    println!("{}", serde_json::to_string_pretty(&report).unwrap());
    eprintln!(
        "conformance: {} cases, {} passed, {} failed, {} compile-skips, {} fault-soaked",
        report.cases, report.passed, report.failed, report.skipped_compile, report.fault_cases
    );
    if report.interrupted {
        eprintln!(
            "conformance: interrupted by signal — partial report above covers every case attempted"
        );
    }
    for f in &report.failures {
        eprintln!(
            "  case {} (seed {:#x}, {} phase): {} -> {}",
            f.case_index, f.seed, f.phase, f.error, f.artifact
        );
    }
    ExitCode::from(u8::from(report.failed > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(RunConfig, Option<PathBuf>), String> {
        parse_conformance(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn conformance_flags_parse() {
        let (cfg, replay) = parse(&[
            "--cases", "7", "--seed", "0x1f", "--quick", "--fabric", "--out", "d",
        ])
        .unwrap();
        assert_eq!((cfg.cases, cfg.master_seed), (7, 0x1f));
        assert!(cfg.quick && cfg.fabric && !cfg.migrate);
        assert_eq!(cfg.out_dir, PathBuf::from("d"));
        assert_eq!(replay, None);
        let (cfg, replay) = parse(&["--seed", "12", "--replay", "f.json"]).unwrap();
        assert_eq!(cfg.master_seed, 12);
        assert_eq!(replay, Some(PathBuf::from("f.json")));
    }

    #[test]
    fn bad_conformance_flags_are_errors_not_panics() {
        for bad in [
            &["--cases"][..],
            &["--cases", "x"],
            &["--seed", "zz"],
            &["--seed", "0xzz"],
            &["--seed"],
            &["--out"],
            &["--replay"],
            &["--frobnicate"],
            &["--quick", "7"],
        ] {
            let err = parse(bad).expect_err(&format!("{bad:?} parsed"));
            assert!(
                err.contains(bad[bad.len() - 1]) || err.contains(bad[0]),
                "{bad:?}: {err}"
            );
        }
    }
}
