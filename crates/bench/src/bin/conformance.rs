//! E-C1 — the differential conformance harness (see `EXPERIMENTS.md`).
//!
//! ```text
//! conformance [--cases N] [--seed S] [--quick] [--migrate] [--fabric] [--out DIR]
//! conformance --replay PATH
//! ```
//!
//! Generates `N` random program/workload cases and checks RMT ↔ ADCP ↔
//! reference equivalence plus fault-degradation invariants; failures are
//! shrunk and written as replayable `CONFORMANCE_FAIL_<seed>.json`
//! artifacts in `--out DIR` (default: current directory). `--replay PATH`
//! re-runs one artifact's shrunk spec. Exit status 1 on any failure.
//!
//! `--migrate` soaks the §3.1 control plane instead: every case runs on a
//! partitioned ADCP switch and is live-repartitioned mid-workload (both
//! drain and incremental strategies, staggered reconfiguration points);
//! delivered frames, filtered counts, and merged register state must stay
//! byte-identical to the never-migrated reference. The fault phase then
//! repeats the migration under drop/corrupt/delay faults.
//!
//! `--fabric` runs every case on a 2-spine × 4-leaf fabric of ADCP switches
//! as well: the program's global partitioned area is split across the
//! leaves by key range, and delivered frames, filtered counts, and the
//! merged register state must agree with the one-big-switch reference
//! bit-for-bit (see `EXPERIMENTS.md` E-F1).
//!
//! `CONFORMANCE_BUG=swap-add-max` arms the test-only sabotage hook (the
//! ADCP target's register Adds and Maxes are swapped) to prove the harness
//! catches and shrinks a real semantic bug.
//! `CONFORMANCE_BUG=lose-drop-forensics` instead loses every other drop's
//! journey-tracer forensic record on the ADCP target, which the
//! forensics↔counter cross-check must flag.
//! `CONFORMANCE_BUG=misroute-boundary-key` (with `--fabric`) makes the
//! fabric steer every key at an ownership boundary to the wrong leaf (an
//! off-by-one range split), which the register merge/leak checks must flag.
//! `CONFORMANCE_BUG=lie-int-stamp` makes the ADCP target's INT stamps
//! report one more than the observed TM queue depth while the journey
//! tracer keeps the truth, which the INT honesty check must flag.
//! Any other non-empty value is a usage error (exit 2, listing the four
//! names) — never a silent unsabotaged run.

use std::path::PathBuf;
use std::process::ExitCode;

use adcp_bench::conformance::{replay, run, BugHook, CaseError, RunConfig};

/// The sabotage hooks `CONFORMANCE_BUG` can arm, by name.
const BUG_HOOKS: [(&str, BugHook); 4] = [
    ("swap-add-max", BugHook::SwapAddMax),
    ("lose-drop-forensics", BugHook::LoseDropForensics),
    ("misroute-boundary-key", BugHook::MisrouteBoundaryKey),
    ("lie-int-stamp", BugHook::LieIntStamp),
];

/// The hook `CONFORMANCE_BUG` names; unset or empty is no sabotage. An
/// unknown name is an error: running unsabotaged to `PASS` would read as
/// "the harness missed the bug".
fn parse_bug() -> Result<BugHook, String> {
    match std::env::var("CONFORMANCE_BUG") {
        Ok(name) if !name.is_empty() => BUG_HOOKS
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, hook)| hook)
            .ok_or_else(|| {
                let names: Vec<&str> = BUG_HOOKS.iter().map(|&(n, _)| n).collect();
                format!(
                    "unknown CONFORMANCE_BUG {name:?} (want one of: {})",
                    names.join(", ")
                )
            }),
        _ => Ok(BugHook::None),
    }
}

fn main() -> ExitCode {
    let mut cfg = RunConfig::default();
    let mut replay_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("conformance: {name} needs a value"))
        };
        match arg.as_str() {
            "--cases" => cfg.cases = value("--cases").parse().expect("--cases: not a number"),
            "--seed" => {
                let v = value("--seed");
                cfg.master_seed = v
                    .strip_prefix("0x")
                    .map(|h| u64::from_str_radix(h, 16))
                    .unwrap_or_else(|| v.parse())
                    .expect("--seed: not a number");
            }
            "--quick" => cfg.quick = true,
            "--migrate" => cfg.migrate = true,
            "--fabric" => cfg.fabric = true,
            "--out" => cfg.out_dir = PathBuf::from(value("--out")),
            "--replay" => replay_path = Some(PathBuf::from(value("--replay"))),
            other => {
                eprintln!("conformance: unknown argument {other:?}");
                eprintln!("usage: conformance [--cases N] [--seed S] [--quick] [--migrate] [--fabric] [--out DIR] [--replay PATH]");
                return ExitCode::FAILURE;
            }
        }
    }
    cfg.bug = match parse_bug() {
        Ok(bug) => bug,
        Err(e) => {
            eprintln!("conformance: {e}");
            return ExitCode::from(2);
        }
    };
    // SIGINT/SIGTERM stop the run at the next case boundary; the partial
    // report (every case actually attempted) is still printed below.
    adcp_bench::shutdown::install();

    if let Some(path) = replay_path {
        return match replay(&path, cfg.bug) {
            Ok(()) => {
                println!("replay {}: PASS", path.display());
                ExitCode::SUCCESS
            }
            Err(CaseError::Skip(e)) => {
                eprintln!("replay {}: could not run: {e}", path.display());
                ExitCode::FAILURE
            }
            Err(CaseError::Mismatch(e)) => {
                eprintln!("replay {}: FAIL: {e}", path.display());
                ExitCode::FAILURE
            }
        };
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
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
