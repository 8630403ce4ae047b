//! Golden snapshots of every experiment in quick mode.
//!
//! Every row of `experiments::ROWS` runs at `Scale::Quick`, and each table
//! it renders is compared against the committed snapshot in
//! `tests/golden/<table>.json` (repo root). Numeric
//! fields compare with a small relative tolerance so harmless float
//! formatting/platform noise does not fail the build, while any real model
//! change does.
//!
//! To bless new snapshots after an intentional model change:
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test -p adcp-bench --test golden_snapshots
//! ```
//!
//! then review and commit the diff under `tests/golden/`.

use std::path::PathBuf;

use adcp_apps::suite::Scale;
use adcp_bench::experiments::ROWS;
use serde_json::Value;

/// Relative tolerance for numeric comparisons.
const REL_TOL: f64 = 1e-6;
/// Absolute floor so values near zero don't blow up the relative check.
const ABS_TOL: f64 = 1e-9;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn as_number(v: &Value) -> Option<f64> {
    match v {
        Value::U64(_) | Value::U128(_) | Value::I64(_) | Value::F64(_) => v.as_f64(),
        _ => None,
    }
}

/// Recursively diff `got` against `want`, collecting human-readable
/// mismatch locations.
fn diff(path: &str, got: &Value, want: &Value, errs: &mut Vec<String>) {
    if errs.len() > 20 {
        return; // enough to act on
    }
    match (as_number(got), as_number(want)) {
        (Some(g), Some(w)) => {
            let scale = g.abs().max(w.abs()).max(ABS_TOL);
            if (g - w).abs() > REL_TOL * scale {
                errs.push(format!("{path}: {g} != {w}"));
            }
            return;
        }
        (None, None) => {}
        _ => {
            errs.push(format!("{path}: type changed ({got:?} vs {want:?})"));
            return;
        }
    }
    match (got, want) {
        (Value::Array(g), Value::Array(w)) => {
            if g.len() != w.len() {
                errs.push(format!("{path}: {} rows != {} rows", g.len(), w.len()));
                return;
            }
            for (i, (gi, wi)) in g.iter().zip(w.iter()).enumerate() {
                diff(&format!("{path}[{i}]"), gi, wi, errs);
            }
        }
        (Value::Object(g), Value::Object(w)) => {
            for (k, wv) in w.iter() {
                match g.get(k) {
                    Some(gv) => diff(&format!("{path}.{k}"), gv, wv, errs),
                    None => errs.push(format!("{path}.{k}: field disappeared")),
                }
            }
            for (k, _) in g.iter() {
                if w.get(k).is_none() {
                    errs.push(format!("{path}.{k}: new field (bless the snapshot)"));
                }
            }
        }
        _ => {
            if got != want {
                errs.push(format!("{path}: {got:?} != {want:?}"));
            }
        }
    }
}

/// Metrics time-series points are deterministic but bulky (hundreds of
/// `[t_ps, v]` pairs per queue per row): in goldens, replace each series
/// `points` array with a compact digest — kept length plus an FNV-1a hash
/// over the pairs — which still locks the exact contents without tens of
/// thousands of committed lines.
fn digest_series_points(v: &mut Value) {
    let Some(obj) = v.as_object_mut() else {
        if let Value::Array(items) = v {
            for item in items {
                digest_series_points(item);
            }
        }
        return;
    };
    if let (Some(_), Some(_), Some(Value::Array(points))) =
        (obj.get("offered"), obj.get("stride"), obj.get("points"))
    {
        let mut fnv: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |x: u64| {
            for b in x.to_le_bytes() {
                fnv ^= u64::from(b);
                fnv = fnv.wrapping_mul(0x100_0000_01b3);
            }
        };
        let kept = points.len() as u64;
        for p in points {
            for n in p.as_array().unwrap_or_default() {
                mix(n.as_u64().unwrap_or(u64::MAX));
            }
        }
        let mut digest = serde_json::Map::new();
        digest.insert("kept".into(), Value::U64(kept));
        digest.insert("fnv".into(), Value::String(format!("{fnv:016x}")));
        obj.insert("points".into(), Value::Object(digest));
        return;
    }
    // Collect keys first: the map iterator borrows obj immutably.
    let keys: Vec<String> = obj.iter().map(|(k, _)| k.clone()).collect();
    for k in keys {
        if let Some(child) = obj.get(&k) {
            let mut child = child.clone();
            digest_series_points(&mut child);
            obj.insert(k, child);
        }
    }
}

/// Compare (or, with `GOLDEN_UPDATE=1`, bless) one table's rows, adding
/// what drifted to `errs`.
fn check(name: &str, mut got: Value, errs: &mut Vec<String>) {
    if got.as_array().is_none_or(|rows| rows.is_empty()) {
        return errs.push(format!("{name}: experiment produced no rows"));
    }
    digest_series_points(&mut got);
    let path = golden_dir().join(format!("{name}.json"));
    if std::env::var("GOLDEN_UPDATE").is_ok() {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        let text = serde_json::to_string_pretty(&got).expect("encode snapshot");
        return std::fs::write(&path, text + "\n").expect("write snapshot");
    }
    match std::fs::read_to_string(&path) {
        Ok(text) => diff(
            name,
            &got,
            &serde_json::from_str(&text).expect("parse golden"),
            errs,
        ),
        Err(e) => errs.push(format!(
            "{name}: missing golden snapshot {} ({e}); run with GOLDEN_UPDATE=1 to create it",
            path.display()
        )),
    }
}

#[test]
fn every_experiment_matches_its_goldens() {
    let runs = adcp_bench::par::par_map(ROWS.iter().collect(), |e| (e.name, (e.run)(Scale::Quick)));
    let mut errs = Vec::new();
    for (name, rendered) in runs {
        if !rendered.ok {
            errs.push(format!("{name}: a row failed the experiment's own check"));
        }
        for (table, rows) in rendered.tables {
            check(table, rows, &mut errs);
        }
    }
    assert!(
        errs.is_empty(),
        "output drifted from tests/golden/ (GOLDEN_UPDATE=1 blesses intentional changes):\n  {}",
        errs.join("\n  ")
    );
}
