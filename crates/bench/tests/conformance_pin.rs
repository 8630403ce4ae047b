//! Exact pin of what every conformance leg observes.
//!
//! For the first 300 cases of each mode (plain, `--fabric`, `--migrate`),
//! clean and under the soak fault schedule, `conformance::pin_text` spells
//! out what each leg observed — delivered `(id, port, bytes)`, `filtered`,
//! `fcs_drops`, lookups/hits, register snapshots — or the reason a target
//! gave for rejecting the case. This test digests that text per case (FNV-1a
//! 64) and compares against `tests/golden/conformance_pin.json`,
//! so a change to the harness that is meant to change nothing (a split, a
//! new leg table, a shared check) has to drive every target to the same
//! frames, counters and registers, seed for seed.
//!
//! Never regenerate in a refactor. Only a deliberate change to the
//! generator, a target model or the reference interpreter re-blesses:
//!
//! ```text
//! CONFORMANCE_PIN_UPDATE=1 cargo test -p adcp-bench --test conformance_pin
//! ```

use adcp_bench::conformance::{pin_text, CaseSpec, FaultKnobs, MigrateKnobs, RunConfig};
use serde_json::Value;
use std::path::PathBuf;

const CASES: u32 = 300;

fn fnv64(bytes: &[u8]) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Case `i` of `conformance [--fabric | --migrate]` at the default seed.
fn spec(mode: &str, i: u32, fault: bool) -> CaseSpec {
    CaseSpec {
        seed: RunConfig::default()
            .master_seed
            .wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        max_packets: 20,
        max_entries: 8,
        max_array: 8,
        max_tables: 3,
        fault: fault.then_some(FaultKnobs {
            drop_pm: 50,
            corrupt_pm: 50,
            delay_pm: 100,
        }),
        migrate: (mode == "migrate").then_some(MigrateKnobs {
            strategy_sel: 2,
            at_pm: 250 + (i % 3) * 250,
        }),
        fabric: mode == "fabric",
    }
}

#[test]
fn every_leg_of_every_mode_is_pinned() {
    let mut got: Vec<(String, Vec<String>)> = Vec::new();
    for mode in ["plain", "fabric", "migrate"] {
        for (phase, fault) in [("clean", false), ("fault", true)] {
            let lines = (0..CASES)
                .map(|i| pin_text(&spec(mode, i, fault)))
                .collect();
            got.push((format!("{mode}/{phase}"), lines));
        }
    }
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/conformance_pin.json");
    if std::env::var_os("CONFORMANCE_PIN_UPDATE").is_some() {
        let mut doc = serde::Map::new();
        for (key, texts) in &got {
            let row = texts.iter().map(|t| Value::String(fnv64(t.as_bytes())));
            doc.insert(key.clone(), Value::Array(row.collect()));
        }
        let text = serde_json::to_string_pretty(&Value::Object(doc)).expect("serializable");
        std::fs::write(&path, text + "\n").expect("write golden");
        return;
    }
    let want: Value = serde_json::from_str(&std::fs::read_to_string(&path).expect("read golden"))
        .expect("golden parses");
    let mut bad = Vec::new();
    for (key, texts) in &got {
        let Some(Value::Array(want)) = want.get(key) else {
            panic!("{key}: golden row is an array of case digests");
        };
        assert_eq!(texts.len(), want.len(), "{key}: case count changed");
        for (i, (text, want)) in texts.iter().zip(want).enumerate() {
            if text.starts_with("Err(Mismatch") || want.as_str() != Some(&fnv64(text.as_bytes())) {
                let head: String = text.chars().take(400).collect();
                bad.push(format!("{key} case {i}: now `{head}…`"));
            }
        }
    }
    assert!(
        bad.is_empty(),
        "conformance pin broken in {} cases:\n{}",
        bad.len(),
        bad[..bad.len().min(20)].join("\n")
    );
}
