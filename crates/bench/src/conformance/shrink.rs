//! Shrinking a failing spec, and the replayable failure artifact.

use std::path::Path;

use super::run::run_spec;
use super::{BugHook, CaseError, CaseSpec, FaultKnobs, MigrateKnobs};

/// Shrink a failing spec: greedily try smaller caps (and dropping the fault
/// schedule), keeping any reduction that still fails. Returns the minimal
/// spec found and its failure message.
pub fn shrink(spec: &CaseSpec, bug: BugHook, original_error: String) -> (CaseSpec, String) {
    let mut cur = *spec;
    let mut err = original_error;
    for _ in 0..64 {
        let mut candidates: Vec<CaseSpec> = Vec::new();
        if cur.fault.is_some() {
            candidates.push(CaseSpec { fault: None, ..cur });
        }
        if let Some(mk) = cur.migrate {
            // A migrate failure may not need the migration at all; if it
            // does, one strategy is a smaller witness than both.
            candidates.push(CaseSpec {
                migrate: None,
                ..cur
            });
            if mk.strategy_sel >= 2 {
                for sel in [0u32, 1] {
                    candidates.push(CaseSpec {
                        migrate: Some(MigrateKnobs {
                            strategy_sel: sel,
                            ..mk
                        }),
                        ..cur
                    });
                }
            }
        }
        if cur.max_packets > 1 {
            candidates.push(CaseSpec {
                max_packets: cur.max_packets / 2,
                ..cur
            });
            candidates.push(CaseSpec {
                max_packets: cur.max_packets - 1,
                ..cur
            });
        }
        if cur.max_entries > 0 {
            candidates.push(CaseSpec {
                max_entries: cur.max_entries / 2,
                ..cur
            });
        }
        if cur.max_tables > 1 {
            candidates.push(CaseSpec {
                max_tables: cur.max_tables - 1,
                ..cur
            });
        }
        if cur.max_array > 1 {
            candidates.push(CaseSpec {
                max_array: cur.max_array / 2,
                ..cur
            });
        }
        let mut improved = false;
        for cand in candidates {
            if let Err(CaseError::Mismatch(e)) = run_spec(&cand, bug) {
                cur = cand;
                err = e;
                improved = true;
                break;
            }
        }
        if !improved {
            break;
        }
    }
    (cur, err)
}

pub(super) fn spec_to_value(spec: &CaseSpec) -> serde_json::Value {
    serde_json::to_value(spec).expect("specs serialize")
}

/// Field `k` of one artifact object (`what` names it in the error).
fn u64_of(v: &serde_json::Value, what: &str, k: &str) -> Result<u64, String> {
    v.get(k)
        .and_then(|x| x.as_u64())
        .ok_or_else(|| format!("artifact {what} missing field {k}"))
}

/// Parse a spec back from artifact JSON (the `--replay` path).
pub fn spec_from_value(v: &serde_json::Value) -> Result<CaseSpec, String> {
    let fault = match v.get("fault") {
        None | Some(serde_json::Value::Null) => None,
        Some(f) => Some(FaultKnobs {
            drop_pm: u64_of(f, "fault", "drop_pm")? as u32,
            corrupt_pm: u64_of(f, "fault", "corrupt_pm")? as u32,
            delay_pm: u64_of(f, "fault", "delay_pm")? as u32,
        }),
    };
    let migrate = match v.get("migrate") {
        None | Some(serde_json::Value::Null) => None,
        Some(m) => Some(MigrateKnobs {
            strategy_sel: u64_of(m, "migrate", "strategy_sel")? as u32,
            at_pm: u64_of(m, "migrate", "at_pm")? as u32,
        }),
    };
    Ok(CaseSpec {
        seed: u64_of(v, "spec", "seed")?,
        max_packets: u64_of(v, "spec", "max_packets")? as u32,
        max_entries: u64_of(v, "spec", "max_entries")? as u32,
        max_array: u64_of(v, "spec", "max_array")? as u16,
        max_tables: u64_of(v, "spec", "max_tables")? as u32,
        fault,
        migrate,
        // Absent in pre-fabric artifacts: default to the one-switch mode.
        fabric: v.get("fabric").and_then(|x| x.as_bool()).unwrap_or(false),
    })
}

/// Write the replayable failure artifact; returns its file name.
pub(super) fn write_artifact(
    dir: &Path,
    original: &CaseSpec,
    shrunk: &CaseSpec,
    error: &str,
) -> std::io::Result<String> {
    std::fs::create_dir_all(dir)?;
    let mut doc = serde_json::Map::new();
    doc.insert("version".into(), serde_json::Value::U64(1));
    doc.insert("error".into(), serde_json::Value::String(error.to_string()));
    doc.insert("spec".into(), spec_to_value(shrunk));
    doc.insert("original".into(), spec_to_value(original));
    let name = format!("CONFORMANCE_FAIL_{:016x}.json", original.seed);
    let text =
        serde_json::to_string_pretty(&serde_json::Value::Object(doc)).expect("artifact encodes");
    std::fs::write(dir.join(&name), text + "\n")?;
    Ok(name)
}

/// Reload a failure artifact and re-run its shrunk spec.
pub fn replay(path: &Path, bug: BugHook) -> Result<(), CaseError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CaseError::Skip(format!("cannot read {}: {e}", path.display())))?;
    let doc = serde_json::from_str(&text)
        .map_err(|e| CaseError::Skip(format!("cannot parse {}: {e}", path.display())))?;
    let spec = doc
        .get("spec")
        .ok_or_else(|| CaseError::Skip("artifact has no spec".into()))
        .and_then(|s| spec_from_value(s).map_err(CaseError::Skip))?;
    run_spec(&spec, bug)
}
