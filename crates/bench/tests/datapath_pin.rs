//! Exact, knobs-on pin of everything a switch run can be observed to do.
//!
//! For every app in the trace menu on every target variant, with hop
//! tracing at sample stride 1, INT stamping and the metrics registry all
//! on, this test digests (FNV-1a 64) the serialized `AppReport.metrics`
//! block (every span histogram, series point, drop class and `int/*`
//! total) and `AppReport.trace` block (every hop's site, enter, exit and
//! context, every forensic drop) and compares them, together with the
//! report's scalar fields, against `tests/golden/datapath_pin.json`.
//!
//! The other goldens compare with a 1e-6 tolerance and run with the knobs
//! off; this one is exact and knobs-on, so a datapath refactor that is
//! meant to change nothing has to reproduce the hop sequence bit for bit.
//! Regenerate only for an intentional model change:
//!
//! ```text
//! DATAPATH_PIN_UPDATE=1 cargo test -p adcp-bench --test datapath_pin
//! ```
//!
//! It is its own test binary because the three knobs are set process-wide
//! (both switch models read them at construction).

use adcp_apps::{suite, TargetKind};
use adcp_bench::trace::run_one;
use serde_json::Value;
use std::path::PathBuf;

fn fnv64(bytes: &[u8]) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

fn digest(v: &Value) -> Value {
    Value::String(fnv64(
        serde_json::to_string(v).expect("serializable").as_bytes(),
    ))
}

#[test]
fn every_observable_of_every_app_run_is_pinned() {
    std::env::set_var("ADCP_TRACE", "1");
    std::env::set_var("ADCP_INT", "on");
    std::env::set_var("ADCP_METRICS", "on");
    let mut got = serde::Map::new();
    for app in suite::names() {
        for kind in [
            TargetKind::Adcp,
            TargetKind::RmtPinned,
            TargetKind::RmtRecirc,
        ] {
            let report = run_one(app, kind, true).expect("known app");
            let Value::Object(fields) = serde_json::to_value(&report).expect("serializable") else {
                panic!("an AppReport serializes to an object");
            };
            let mut row = serde::Map::new();
            let mut scalars = serde::Map::new();
            for (name, v) in fields.iter() {
                if matches!(name.as_str(), "metrics" | "trace") {
                    row.insert(name.clone(), digest(v));
                } else {
                    scalars.insert(name.clone(), v.clone());
                }
            }
            row.insert("scalars".into(), Value::Object(scalars));
            got.insert(format!("{app}/{}", kind.label()), Value::Object(row));
        }
    }
    let got = Value::Object(got);
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/datapath_pin.json");
    if std::env::var_os("DATAPATH_PIN_UPDATE").is_some() {
        let text = serde_json::to_string_pretty(&got).expect("serializable");
        std::fs::write(&path, text + "\n").expect("write golden");
        return;
    }
    let want = serde_json::from_str(&std::fs::read_to_string(&path).expect("read golden"))
        .expect("golden parses");
    let (Value::Object(got), Value::Object(want)) = (&got, &want) else {
        panic!("golden is an object keyed by app/target");
    };
    assert_eq!(got.len(), want.len(), "app x target rows changed");
    let mut bad = Vec::new();
    for (key, w) in want.iter() {
        let g = got.get(key).unwrap_or(&Value::Null);
        // Compared as serialized text: a parsed golden reads `0` back as an
        // integer where the live report holds the float 0.0.
        for field in ["metrics", "trace", "scalars"] {
            let text = |v: &Value| serde_json::to_string(&v.get(field)).unwrap_or_default();
            if text(g) != text(w) {
                bad.push(format!("{key}.{field}: {} != {}", text(g), text(w)));
            }
        }
    }
    assert!(bad.is_empty(), "datapath pin broken:\n{}", bad.join("\n"));
}
