//! Running cases: one spec across its rows ([`run_spec`]), and the harness
//! loop that generates, soaks, shrinks and records ([`run`]).

use std::path::PathBuf;

use serde::Serialize;

use super::checks::{compare, degradation_invariants};
use super::gen::{gen_case, prepare_workload};
use super::legs::{legs_for, Leg, LegCfg, Reject};
use super::reference::{run_reference, Outcome};
use super::shrink::{shrink, write_artifact};
use super::{BugHook, CaseError, CaseSpec, FaultKnobs, MigrateKnobs};

/// What each row made of a case, the reference first: the outcome it
/// observed, or its own reason for sitting the case out.
pub(super) type Seen = Vec<(&'static str, Result<Outcome, String>)>;

/// Run one spec on the given rows: generate, run the reference, check the
/// degradation invariants, then for each row ask `accepts`, `run` it and
/// `compare` what it observed against the reference.
pub(super) fn run_legs(spec: &CaseSpec, bug: BugHook, legs: &[Leg]) -> Result<Seen, CaseError> {
    if spec.fabric && spec.migrate.is_some() {
        return Err(CaseError::Skip(
            "fabric and migrate modes are mutually exclusive".into(),
        ));
    }
    let case = gen_case(spec);
    let errs = case.program.validate();
    if !errs.is_empty() {
        return Err(CaseError::Skip(format!(
            "generated invalid program: {errs:?}"
        )));
    }
    let prepared = prepare_workload(&case, spec);
    let reference = run_reference(&case, &prepared).map_err(CaseError::Mismatch)?;
    degradation_invariants(&prepared, &reference).map_err(CaseError::Mismatch)?;

    let cfg = LegCfg { spec: *spec, bug };
    let mut seen = Vec::with_capacity(legs.len() + 1);
    for leg in legs {
        match (leg.accepts)(&case) {
            Ok(()) => {
                let got = (leg.run)(&case, &prepared, &cfg)?;
                compare(leg.name, &reference, &got, leg.compare).map_err(CaseError::Mismatch)?;
                seen.push((leg.name, Ok(got)));
            }
            Err(Reject::Unsupported(why)) => seen.push((leg.name, Err(why))),
            Err(Reject::Mismatch(e)) => return Err(CaseError::Mismatch(e)),
        }
    }
    seen.insert(0, ("reference", Ok(reference)));
    Ok(seen)
}

/// Run one spec end to end on every row its mode names, and (under faults)
/// check the degradation invariants.
pub fn run_spec(spec: &CaseSpec, bug: BugHook) -> Result<(), CaseError> {
    run_legs(spec, bug, &legs_for(spec)).map(drop)
}

/// Everything every leg of `spec` observed, as text: per leg its whole
/// outcome (delivered frames, counts, register snapshots) or the reason the
/// target gave for rejecting the case, or else why the case gave no
/// verdict. Exists for `tests/conformance_pin.rs`, which holds a refactor
/// of this module to the same verdicts and bytes.
#[doc(hidden)]
pub fn pin_text(spec: &CaseSpec) -> String {
    format!("{:?}", run_legs(spec, BugHook::None, &legs_for(spec)))
}

/// Harness configuration (one run = one [`Report`]).
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Master seed; case `i` derives its own seed from it.
    pub master_seed: u64,
    /// Number of generated cases.
    pub cases: u32,
    /// Smaller caps per case (CI-friendly).
    pub quick: bool,
    /// Test-only sabotage hook (see [`BugHook`]).
    pub bug: BugHook,
    /// Soak the §3.1 control plane: every case runs partitioned, with a
    /// seeded mid-workload repartitioning under both strategies.
    pub migrate: bool,
    /// Soak the leaf–spine fabric: every case also runs split across a
    /// 2-spine × 4-leaf fabric and must agree with the one-big-switch
    /// reference. Mutually exclusive with `migrate` (fabric wins).
    pub fabric: bool,
    /// Where failure artifacts are written.
    pub out_dir: PathBuf,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            master_seed: 0xC04F_0041,
            cases: 1000,
            quick: false,
            bug: BugHook::None,
            migrate: false,
            fabric: false,
            out_dir: PathBuf::from("."),
        }
    }
}

/// One recorded failure (post-shrink).
#[derive(Debug, Clone, Serialize)]
pub struct FailureRecord {
    /// Which case failed.
    pub case_index: u32,
    /// Its derived seed.
    pub seed: u64,
    /// `"clean"` or `"fault"`.
    pub phase: String,
    /// The (post-shrink) mismatch message.
    pub error: String,
    /// The shrunk spec that still reproduces.
    pub shrunk: CaseSpec,
    /// Artifact file name inside the output directory.
    pub artifact: String,
}

/// Aggregate result of a harness run. Contains no timestamps or paths, so
/// the same seed and configuration serialize byte-identically.
#[derive(Debug, Clone, Serialize)]
pub struct Report {
    /// The master seed the run derived everything from.
    pub master_seed: u64,
    /// Cases attempted.
    pub cases: u32,
    /// Cases that passed both the clean and the fault phase.
    pub passed: u64,
    /// Cases with at least one mismatch.
    pub failed: u64,
    /// Cases skipped because a draw did not compile on some target.
    pub skipped_compile: u64,
    /// Fault-phase runs executed (passed clean first).
    pub fault_cases: u64,
    /// True when a shutdown signal stopped the run at a case boundary;
    /// `cases` then reflects the cases actually attempted, and the report
    /// is a valid partial result for them.
    pub interrupted: bool,
    /// Every failure, post-shrink.
    pub failures: Vec<FailureRecord>,
}

/// The spec for case `i` of a run. Migrate-mode cases exercise both
/// strategies and stagger the reconfiguration point across the workload
/// (early / midpoint / late).
pub(super) fn case_spec(cfg: &RunConfig, i: u32) -> CaseSpec {
    CaseSpec {
        seed: cfg
            .master_seed
            .wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        max_packets: if cfg.quick { 10 } else { 20 },
        max_entries: 8,
        max_array: 8,
        max_tables: 3,
        fault: None,
        migrate: (cfg.migrate && !cfg.fabric).then(|| MigrateKnobs {
            strategy_sel: 2,
            at_pm: 250 + (i % 3) * 250,
        }),
        fabric: cfg.fabric,
    }
}

/// Fault knobs for the soak phase (fixed: ~5% drop, ~5% corrupt, ~10%
/// delay — enough to exercise every outcome on every case).
pub(super) fn soak_knobs() -> FaultKnobs {
    FaultKnobs {
        drop_pm: 50,
        corrupt_pm: 50,
        delay_pm: 100,
    }
}

/// Run the harness: `cfg.cases` generated cases, each executed clean and
/// (if clean passes) again under the fault schedule; a failing phase is
/// shrunk and written as a replayable artifact.
pub fn run(cfg: &RunConfig) -> Report {
    let mut report = Report {
        master_seed: cfg.master_seed,
        cases: cfg.cases,
        passed: 0,
        failed: 0,
        skipped_compile: 0,
        fault_cases: 0,
        interrupted: false,
        failures: Vec::new(),
    };
    for i in 0..cfg.cases {
        // Graceful exit: finish the case in progress, never start another.
        if crate::shutdown::requested() {
            report.interrupted = true;
            report.cases = i;
            break;
        }
        let (mut phase, mut spec) = ("clean", case_spec(cfg, i));
        let mut verdict = run_spec(&spec, cfg.bug);
        if let Err(CaseError::Skip(_)) = verdict {
            report.skipped_compile += 1;
            continue;
        }
        if verdict.is_ok() {
            report.fault_cases += 1;
            phase = "fault";
            spec.fault = Some(soak_knobs());
            verdict = run_spec(&spec, cfg.bug);
        }
        match verdict {
            Ok(()) => report.passed += 1,
            Err(CaseError::Skip(_)) => {
                report.skipped_compile += 1;
                report.passed += 1;
            }
            Err(CaseError::Mismatch(err)) => {
                report.failed += 1;
                let (shrunk, final_err) = shrink(&spec, cfg.bug, err);
                let artifact = write_artifact(&cfg.out_dir, &spec, &shrunk, &final_err)
                    .unwrap_or_else(|e| format!("<artifact write failed: {e}>"));
                report.failures.push(FailureRecord {
                    case_index: i,
                    seed: spec.seed,
                    phase: phase.to_string(),
                    error: final_err,
                    shrunk,
                    artifact,
                });
            }
        }
    }
    report
}
