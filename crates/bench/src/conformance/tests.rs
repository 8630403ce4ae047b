//! Unit tests of the harness: generation, the three modes, the sabotage
//! hooks, and the leg table itself.

use super::checks::Mask;
use super::gen::gen_case;
use super::legs::{legs_for, Leg, FABRIC};
use super::reference::run_reference;
use super::run::{case_spec, run_legs, soak_knobs};
use super::shrink::{spec_to_value, write_artifact};
use super::*;

fn tiny_cfg(seed: u64, cases: u32, bug: BugHook) -> RunConfig {
    RunConfig {
        master_seed: seed,
        cases,
        quick: true,
        bug,
        migrate: false,
        fabric: false,
        out_dir: std::env::temp_dir().join("conformance-unit"),
    }
}

#[test]
fn generation_is_deterministic() {
    let spec = case_spec(&tiny_cfg(42, 1, BugHook::None), 0);
    let a = gen_case(&spec);
    let b = gen_case(&spec);
    assert_eq!(a.packets.len(), b.packets.len());
    for ((pa, ka), (pb, kb)) in a.packets.iter().zip(b.packets.iter()) {
        assert_eq!(pa, pb);
        assert_eq!(&ka.data[..], &kb.data[..]);
    }
    assert_eq!(a.installs.len(), b.installs.len());
    assert_eq!(a.program.tables.len(), b.program.tables.len());
}

#[test]
fn generated_programs_validate() {
    for i in 0..25 {
        let spec = case_spec(&tiny_cfg(7, 25, BugHook::None), i);
        let case = gen_case(&spec);
        assert!(
            case.program.validate().is_empty(),
            "case {i} generated an invalid program"
        );
        assert!(case.program_recirc.validate().is_empty());
    }
}

#[test]
fn a_handful_of_cases_pass() {
    for i in 0..6 {
        let spec = case_spec(&tiny_cfg(0xA11CE, 6, BugHook::None), i);
        if let Err(CaseError::Mismatch(e)) = run_spec(&spec, BugHook::None) {
            panic!("case {i} (seed {:#x}) mismatched: {e}", spec.seed);
        }
        let fault_spec = CaseSpec {
            fault: Some(soak_knobs()),
            ..spec
        };
        if let Err(CaseError::Mismatch(e)) = run_spec(&fault_spec, BugHook::None) {
            panic!(
                "case {i} (seed {:#x}) fault phase mismatched: {e}",
                spec.seed
            );
        }
    }
}

#[test]
fn spec_round_trips_through_json() {
    let spec = CaseSpec {
        seed: 0xDEAD_BEEF_0042,
        max_packets: 20,
        max_entries: 8,
        max_array: 4,
        max_tables: 3,
        fault: Some(soak_knobs()),
        migrate: Some(MigrateKnobs {
            strategy_sel: 2,
            at_pm: 500,
        }),
        fabric: false,
    };
    let text = serde_json::to_string(&spec_to_value(&spec)).unwrap();
    let back = spec_from_value(&serde_json::from_str(&text).unwrap()).unwrap();
    assert_eq!(back, spec);
    let fab = CaseSpec {
        migrate: None,
        fabric: true,
        ..spec
    };
    let text = serde_json::to_string(&spec_to_value(&fab)).unwrap();
    assert_eq!(
        spec_from_value(&serde_json::from_str(&text).unwrap()).unwrap(),
        fab
    );
    let clean = CaseSpec {
        fault: None,
        migrate: None,
        ..spec
    };
    let text = serde_json::to_string(&spec_to_value(&clean)).unwrap();
    assert_eq!(
        spec_from_value(&serde_json::from_str(&text).unwrap()).unwrap(),
        clean
    );
}

#[test]
fn migrate_cases_pass_clean_and_under_faults() {
    let cfg = RunConfig {
        migrate: true,
        ..tiny_cfg(0x716_AB1E, 4, BugHook::None)
    };
    for i in 0..4 {
        let spec = case_spec(&cfg, i);
        assert!(spec.migrate.is_some());
        if let Err(CaseError::Mismatch(e)) = run_spec(&spec, BugHook::None) {
            panic!("migrate case {i} (seed {:#x}) mismatched: {e}", spec.seed);
        }
        let fault_spec = CaseSpec {
            fault: Some(soak_knobs()),
            ..spec
        };
        if let Err(CaseError::Mismatch(e)) = run_spec(&fault_spec, BugHook::None) {
            panic!(
                "migrate case {i} (seed {:#x}) fault phase mismatched: {e}",
                spec.seed
            );
        }
    }
}

#[test]
fn fabric_cases_pass_clean_and_under_faults() {
    let cfg = RunConfig {
        fabric: true,
        ..tiny_cfg(0xFAB_C0DE, 4, BugHook::None)
    };
    for i in 0..4 {
        let spec = case_spec(&cfg, i);
        assert!(spec.fabric && spec.migrate.is_none());
        if let Err(CaseError::Mismatch(e)) = run_spec(&spec, BugHook::None) {
            panic!("fabric case {i} (seed {:#x}) mismatched: {e}", spec.seed);
        }
        let fault_spec = CaseSpec {
            fault: Some(soak_knobs()),
            ..spec
        };
        if let Err(CaseError::Mismatch(e)) = run_spec(&fault_spec, BugHook::None) {
            panic!(
                "fabric case {i} (seed {:#x}) fault phase mismatched: {e}",
                spec.seed
            );
        }
    }
}

#[test]
fn fabric_mode_catches_misrouted_boundary_keys() {
    // Mis-steering a single boundary key must surface as a register
    // mismatch or a leak onto a non-owner leaf, and the shrinker must
    // keep a fabric spec that still reproduces it. A workload only
    // trips the bug when some packet's `idx` hits the flipped key, so
    // scan a few cases.
    let cfg = RunConfig {
        fabric: true,
        ..tiny_cfg(0xFAB_BAD5EED, 24, BugHook::MisrouteBoundaryKey)
    };
    let mut caught = None;
    for i in 0..24 {
        let spec = case_spec(&cfg, i);
        if let Err(CaseError::Mismatch(e)) = run_spec(&spec, BugHook::MisrouteBoundaryKey) {
            caught = Some((spec, e));
            break;
        }
    }
    let (spec, err) = caught.expect("misrouted boundary key must surface within a few cases");
    assert!(
        err.contains("fabric"),
        "sabotage must be flagged on the fabric target: {err}"
    );
    let (shrunk, final_err) = shrink(&spec, BugHook::MisrouteBoundaryKey, err);
    assert!(shrunk.fabric, "shrinking must preserve the fabric mode");
    assert!(matches!(
        run_spec(&shrunk, BugHook::MisrouteBoundaryKey),
        Err(CaseError::Mismatch(_))
    ));
    assert!(!final_err.is_empty());
    assert!(shrunk.max_packets <= spec.max_packets);
    // The identical spec is clean without the sabotage.
    assert!(!matches!(
        run_spec(&shrunk, BugHook::None),
        Err(CaseError::Mismatch(_))
    ));
}

#[test]
fn migrate_mode_catches_sabotage() {
    // The swapped-ALU bug must still be visible through a migrated run:
    // the register-state comparison flags it and the shrinker keeps a
    // reproducing spec.
    let cfg = RunConfig {
        migrate: true,
        ..tiny_cfg(0xBAD_5EED, 8, BugHook::SwapAddMax)
    };
    let mut caught = None;
    for i in 0..8 {
        let spec = case_spec(&cfg, i);
        if let Err(CaseError::Mismatch(e)) = run_spec(&spec, BugHook::SwapAddMax) {
            caught = Some((spec, e));
            break;
        }
    }
    let (spec, err) = caught.expect("sabotage must surface within a few migrate cases");
    let (shrunk, final_err) = shrink(&spec, BugHook::SwapAddMax, err);
    assert!(matches!(
        run_spec(&shrunk, BugHook::SwapAddMax),
        Err(CaseError::Mismatch(_))
    ));
    assert!(!final_err.is_empty());
    assert!(shrunk.max_packets <= spec.max_packets);
}

#[test]
fn forensics_catches_lost_drop_records() {
    // A target that drops packets without recording them must not pass:
    // arm the forensic-loss sabotage and run under a fault schedule
    // (corrupted frames guarantee drops), expecting the journey
    // tracer's forensics↔counter cross-check to flag the skew. The
    // check is skipped when the registry or tracer is env-disabled, so
    // a hostile environment can only make this test vacuous, not red —
    // guard against that by requiring both to be on.
    let m = adcp_sim::metrics::MetricsRegistry::from_env();
    let t = adcp_sim::trace::JourneyTracer::from_env(true, 8);
    if !m.enabled() || !t.is_enabled() {
        eprintln!("metrics/trace disabled via env; skipping");
        return;
    }
    let cfg = tiny_cfg(0xF04E_51C5, 12, BugHook::LoseDropForensics);
    let mut caught = None;
    for i in 0..12 {
        let spec = CaseSpec {
            fault: Some(soak_knobs()),
            ..case_spec(&cfg, i)
        };
        match run_spec(&spec, BugHook::LoseDropForensics) {
            Err(CaseError::Mismatch(e)) => {
                caught = Some(e);
                break;
            }
            _ => continue,
        }
    }
    let err = caught.expect("lost drop forensics must surface within a few fault cases");
    assert!(
        err.contains("drop forensics disagree"),
        "wrong failure: {err}"
    );
    // And the same specs are clean without the sabotage.
    let spec = CaseSpec {
        fault: Some(soak_knobs()),
        ..case_spec(&cfg, 0)
    };
    assert!(!matches!(
        run_spec(&spec, BugHook::None),
        Err(CaseError::Mismatch(_))
    ));
}

#[test]
fn int_honesty_catches_a_lying_stamp() {
    // A datapath whose INT stamps flatter the TM queue depth must not
    // pass: arm the lying-stamp sabotage, expecting the INT↔tracer
    // honesty check to flag the skew, then shrink the witness and
    // prove the failure artifact replays. The check is skipped when
    // the tracer, the registry, or INT itself is env-disabled, so a
    // hostile environment can only make this test vacuous, not red —
    // guard against that by requiring all three to be on.
    let m = adcp_sim::metrics::MetricsRegistry::from_env();
    let t = adcp_sim::trace::JourneyTracer::from_env(true, 8);
    let k = adcp_sim::int::IntKnob::from_env(true);
    if !m.enabled() || !t.is_enabled() || !k.on() {
        eprintln!("metrics/trace/int disabled via env; skipping");
        return;
    }
    let cfg = tiny_cfg(0x11E_57A4, 8, BugHook::LieIntStamp);
    let mut caught = None;
    for i in 0..8 {
        let spec = case_spec(&cfg, i);
        match run_spec(&spec, BugHook::LieIntStamp) {
            Err(CaseError::Mismatch(e)) => {
                caught = Some((spec, e));
                break;
            }
            _ => continue,
        }
    }
    let (spec, err) = caught.expect("a lying INT stamp must surface within a few cases");
    assert!(err.contains("INT stamp"), "wrong failure: {err}");
    // The shrunk witness still fails, for the same reason class.
    let (shrunk, final_err) = shrink(&spec, BugHook::LieIntStamp, err);
    assert!(final_err.contains("INT stamp"), "{final_err}");
    assert!(matches!(
        run_spec(&shrunk, BugHook::LieIntStamp),
        Err(CaseError::Mismatch(_))
    ));
    // The artifact replays to the same verdict through the file.
    let dir = std::env::temp_dir().join(format!("adcp_int_lie_{}", std::process::id()));
    let name = write_artifact(&dir, &spec, &shrunk, &final_err).expect("artifact writes");
    let verdict = replay(&dir.join(&name), BugHook::LieIntStamp);
    std::fs::remove_dir_all(&dir).ok();
    assert!(matches!(verdict, Err(CaseError::Mismatch(_))));
    // And the same spec is clean without the sabotage.
    assert!(!matches!(
        run_spec(&shrunk, BugHook::None),
        Err(CaseError::Mismatch(_))
    ));
}

#[test]
fn a_new_target_is_one_row() {
    // The executable form of "adding a target is adding a row": the
    // reference interpreter, run a second time, as a throwaway leg.
    let again = Leg {
        name: "reference-again",
        accepts: |_| Ok(()),
        run: |case, prepared, _| run_reference(case, prepared).map_err(CaseError::Mismatch),
        compare: Mask::ALL,
    };
    for i in 0..25 {
        let spec = case_spec(&tiny_cfg(0xA1E6, 25, BugHook::None), i);
        let mut legs = legs_for(&spec);
        legs.push(again);
        let seen = run_legs(&spec, BugHook::None, &legs).expect("every row agrees");
        let last = seen.last().expect("rows ran");
        assert_eq!(last.0, "reference-again");
        assert_eq!(last.1.as_ref().ok(), seen[0].1.as_ref().ok());
    }
}

#[test]
fn rmt_rows_sit_array_programs_out_in_the_compilers_words() {
    // §3.2 separation: on a program with array action ops the ADCP row
    // runs and both RMT rows reject, each with the compiler's reason.
    let cfg = tiny_cfg(0xA44A7, 40, BugHook::None);
    let spec = (0..40)
        .map(|i| case_spec(&cfg, i))
        .find(|s| gen_case(s).has_array_actions)
        .expect("an array-action program within 40 draws");
    let seen = run_legs(&spec, BugHook::None, &legs_for(&spec)).expect("case passes");
    let verdicts: Vec<_> = seen.iter().map(|(leg, saw)| (*leg, saw.is_ok())).collect();
    assert_eq!(
        verdicts,
        [
            ("reference", true),
            ("adcp", true),
            ("rmt-pinned", false),
            ("rmt-recirc", false)
        ]
    );
    for (leg, saw) in &seen[2..] {
        let why = saw.as_ref().expect_err("rejected");
        assert!(
            why.contains("Array"),
            "{leg}: not the compiler's reason: {why}"
        );
    }
}

#[test]
fn fabric_row_alone_catches_lost_drop_forensics() {
    // Every leaf and spine answers to `check_device`, so a leaf that drops
    // without recording is caught on the fabric row itself — run only
    // that row, so nothing upstream can flag it first. Same env guard as
    // `forensics_catches_lost_drop_records`.
    let m = adcp_sim::metrics::MetricsRegistry::from_env();
    let t = adcp_sim::trace::JourneyTracer::from_env(true, 8);
    if !m.enabled() || !t.is_enabled() {
        eprintln!("metrics/trace disabled via env; skipping");
        return;
    }
    let cfg = RunConfig {
        fabric: true,
        ..tiny_cfg(0xFAB_F04E, 12, BugHook::LoseDropForensics)
    };
    let fault_spec = |i| CaseSpec {
        fault: Some(soak_knobs()),
        ..case_spec(&cfg, i)
    };
    let err = (0..12)
        .find_map(
            |i| match run_legs(&fault_spec(i), BugHook::LoseDropForensics, &[FABRIC]) {
                Err(CaseError::Mismatch(e)) => Some(e),
                _ => None,
            },
        )
        .expect("lost drop forensics must surface on the fabric within a few fault cases");
    assert!(
        err.starts_with("fabric leaf") && err.contains("drop forensics disagree"),
        "wrong failure: {err}"
    );
    // And the same row is clean without the sabotage.
    assert!(run_legs(&fault_spec(0), BugHook::None, &[FABRIC]).is_ok());
}
