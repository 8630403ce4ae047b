//! Per-stage trace support for the `adcp-trace` binary.
//!
//! Runs one named application on one architecture variant and flattens the
//! [`AppReport`]'s embedded metrics block into printable per-stage rows.
//! The heavy lifting (registration, spans, export) lives in
//! `adcp_sim::metrics` and the app menu in `adcp_apps::suite::APPS`; this
//! module is presentation plus a lookup by name.

use adcp_apps::driver::{AppReport, TargetKind};
use adcp_apps::suite::{self, Scale};
use serde::Value;

/// Parse a `--target` argument. Accepts the report labels (`adcp`,
/// `rmt/pinned`, `rmt/recirc`) and dash-friendly aliases.
pub fn parse_target(s: &str) -> Option<TargetKind> {
    match s {
        "adcp" => Some(TargetKind::Adcp),
        "rmt/pinned" | "rmt-pinned" | "pinned" => Some(TargetKind::RmtPinned),
        "rmt/recirc" | "rmt-recirc" | "recirc" => Some(TargetKind::RmtRecirc),
        _ => None,
    }
}

/// Run one application — a row of [`suite::APPS`], looked up by name — on
/// one target at the row's quick or full size. Returns `None` for an
/// unknown app name.
pub fn run_one(app: &str, kind: TargetKind, quick: bool) -> Option<AppReport> {
    run_one_with(app, kind, quick, None)
}

/// [`run_one`] with the driver's `--migrate` policy applied to the one row
/// that has a control-plane knob, `partmigrate`: `Some(Some(s))` picks the
/// controller's strategy, `Some(None)` disables the controller. Every other
/// row runs as it always does (the `adcp-trace` binary refuses `--migrate`
/// with a single `--app` that would ignore it).
pub fn run_one_with(
    app: &str,
    kind: TargetKind,
    quick: bool,
    strategy: Option<Option<adcp_core::MigrationStrategy>>,
) -> Option<AppReport> {
    let row = suite::app(app)?;
    let scale = Scale::of(quick);
    Some(match strategy {
        Some(policy) if row.name == suite::PARTMIGRATE => {
            suite::partmigrate_with(kind, scale, policy)
        }
        _ => (row.run)(kind, scale),
    })
}

/// One flattened metric for the console table.
#[derive(Debug, Clone)]
pub struct TraceRow {
    /// Stage scope (`parser`, `tm1`, …).
    pub scope: String,
    /// Metric kind (`counter`, `gauge`, `hist`, `series`).
    pub kind: &'static str,
    /// Metric name within the scope.
    pub name: String,
    /// Headline value (count for hists, offered samples for series).
    pub value: String,
    /// Kind-specific detail column.
    pub detail: String,
}

fn ns(ps: u64) -> String {
    format!("{:.1}ns", ps as f64 / 1e3)
}

fn u(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_u64).unwrap_or(0)
}

/// Flatten an exported metrics block (`MetricsRegistry::to_json` shape)
/// into per-stage rows, preserving registration order.
pub fn flatten(metrics: &Value) -> Vec<TraceRow> {
    let mut rows = Vec::new();
    let Some(scopes) = metrics.get("scopes").and_then(Value::as_object) else {
        return rows;
    };
    for (scope, body) in scopes.iter() {
        for (kind, key) in [
            ("counter", "counters"),
            ("gauge", "gauges"),
            ("hist", "hists"),
            ("series", "series"),
        ] {
            let Some(group) = body.get(key).and_then(Value::as_object) else {
                continue;
            };
            for (name, v) in group.iter() {
                let (value, detail) = match kind {
                    "counter" => (v.as_u64().unwrap_or(0).to_string(), String::new()),
                    "gauge" => (u(v, "value").to_string(), format!("hwm={}", u(v, "hwm"))),
                    "hist" => (
                        u(v, "count").to_string(),
                        format!(
                            "p50={} p99={} max={}",
                            ns(u(v, "p50_ps")),
                            ns(u(v, "p99_ps")),
                            ns(u(v, "max_ps")),
                        ),
                    ),
                    _ => (
                        u(v, "offered").to_string(),
                        format!(
                            "kept={} stride={} max={}",
                            v.get("points")
                                .and_then(Value::as_array)
                                .map_or(0, <[Value]>::len),
                            u(v, "stride"),
                            v.get("points")
                                .and_then(Value::as_array)
                                .into_iter()
                                .flatten()
                                .filter_map(|p| p.as_array()?.get(1)?.as_u64())
                                .max()
                                .unwrap_or(0),
                        ),
                    ),
                };
                rows.push(TraceRow {
                    scope: scope.clone(),
                    kind,
                    name: name.clone(),
                    value,
                    detail,
                });
            }
        }
    }
    rows
}

/// One line of a metrics diff (`adcp-trace --diff a.json b.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Stage scope.
    pub scope: String,
    /// Metric name (empty for whole-scope additions/removals).
    pub name: String,
    /// `a`'s value, printed (`-` when absent).
    pub a: String,
    /// `b`'s value, printed (`-` when absent).
    pub b: String,
    /// Signed delta for numeric pairs, empty otherwise.
    pub delta: String,
}

/// Pull the metrics block out of a loaded JSON document: accepts either a
/// raw `MetricsRegistry::to_json` export, a full `AppReport` (which embeds
/// one under `metrics`), or the `--json` wrapper (`{"name": [report]}`).
pub fn metrics_block(doc: &Value) -> Option<&Value> {
    if doc.get("scopes").is_some() {
        return Some(doc);
    }
    if let Some(m) = doc.get("metrics") {
        if m.get("scopes").is_some() {
            return Some(m);
        }
    }
    if let Some(obj) = doc.as_object() {
        for (_, v) in obj.iter() {
            if let Some(arr) = v.as_array() {
                if let Some(first) = arr.first() {
                    if let Some(m) = metrics_block(first) {
                        return Some(m);
                    }
                }
            }
        }
    }
    None
}

fn counter_like(v: &Value) -> Option<u64> {
    v.as_u64()
        .or_else(|| v.get("value").and_then(Value::as_u64))
}

/// Diff two metrics blocks: counter/gauge value changes plus scopes and
/// metrics present on only one side. Unchanged values are omitted; hists
/// and series are compared by their headline count only.
pub fn diff_metrics(a: &Value, b: &Value) -> Vec<DiffRow> {
    let empty = serde_json::Map::new();
    let scopes_of = |v: &Value| {
        v.get("scopes")
            .and_then(Value::as_object)
            .cloned()
            .unwrap_or_default()
    };
    let sa = scopes_of(a);
    let sb = scopes_of(b);
    let mut names: Vec<&String> = sa.iter().chain(sb.iter()).map(|(k, _)| k).collect();
    names.sort();
    names.dedup();
    let mut rows = Vec::new();
    for scope in names {
        match (sa.get(scope.as_str()), sb.get(scope.as_str())) {
            (Some(_), None) => rows.push(DiffRow {
                scope: scope.clone(),
                name: String::new(),
                a: "present".into(),
                b: "-".into(),
                delta: "scope removed".into(),
            }),
            (None, Some(_)) => rows.push(DiffRow {
                scope: scope.clone(),
                name: String::new(),
                a: "-".into(),
                b: "present".into(),
                delta: "scope added".into(),
            }),
            (Some(ba), Some(bb)) => {
                for key in ["counters", "gauges", "hists", "series"] {
                    let ga = ba.get(key).and_then(Value::as_object).unwrap_or(&empty);
                    let gb = bb.get(key).and_then(Value::as_object).unwrap_or(&empty);
                    let mut metric_names: Vec<&String> =
                        ga.iter().chain(gb.iter()).map(|(k, _)| k).collect();
                    metric_names.sort();
                    metric_names.dedup();
                    for name in metric_names {
                        let va = ga.get(name.as_str()).and_then(|v| match key {
                            "hists" => v.get("count").and_then(Value::as_u64),
                            "series" => v.get("offered").and_then(Value::as_u64),
                            _ => counter_like(v),
                        });
                        let vb = gb.get(name.as_str()).and_then(|v| match key {
                            "hists" => v.get("count").and_then(Value::as_u64),
                            "series" => v.get("offered").and_then(Value::as_u64),
                            _ => counter_like(v),
                        });
                        if va == vb {
                            continue;
                        }
                        let show =
                            |v: Option<u64>| v.map_or_else(|| "-".to_string(), |x| x.to_string());
                        let delta = match (va, vb) {
                            (Some(x), Some(y)) => format!("{:+}", y as i128 - x as i128),
                            _ => "only one side".into(),
                        };
                        rows.push(DiffRow {
                            scope: scope.clone(),
                            name: name.clone(),
                            a: show(va),
                            b: show(vb),
                            delta,
                        });
                    }
                }
            }
            (None, None) => unreachable!("name came from one of the maps"),
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_exports_nonempty_metrics() {
        let r = run_one("groupcomm", TargetKind::Adcp, true).expect("known app");
        assert!(r.metrics.get("enabled").and_then(Value::as_bool).unwrap());
        let rows = flatten(&r.metrics);
        assert!(
            rows.iter().any(|r| r.scope == "tx" && r.name == "packets"),
            "tx.packets missing from {rows:?}"
        );
        assert!(rows.iter().any(|r| r.kind == "hist" && r.name == "span_ps"));
    }

    #[test]
    fn unknown_app_is_none() {
        assert!(run_one("nosuchapp", TargetKind::Adcp, true).is_none());
        assert!(parse_target("tofino").is_none());
        assert_eq!(parse_target("rmt-recirc"), Some(TargetKind::RmtRecirc));
    }

    #[test]
    fn partmigrate_trace_exports_the_ctrl_scope() {
        let r = run_one("partmigrate", TargetKind::Adcp, true).expect("known app");
        let rows = flatten(&r.metrics);
        assert!(
            rows.iter().any(|r| r.scope == "ctrl"
                && r.name == "migrations"
                && r.value.parse::<u64>().unwrap_or(0) >= 1),
            "ctrl.migrations missing or zero in {rows:?}"
        );
        assert!(rows
            .iter()
            .any(|r| r.scope == "ctrl" && r.name == "moved_keys"));
    }

    #[test]
    fn migrate_off_policy_disables_the_controller() {
        let r = run_one_with("partmigrate", TargetKind::Adcp, true, Some(None)).expect("known app");
        let rows = flatten(&r.metrics);
        for row in rows.iter().filter(|r| r.scope == "ctrl") {
            if row.kind == "counter" {
                assert_eq!(
                    row.value, "0",
                    "ctrl.{} recorded without a controller",
                    row.name
                );
            }
        }
    }

    #[test]
    fn diff_flags_changed_added_and_removed_metrics() {
        let a: Value = serde_json::from_str(
            r#"{"scopes": {
                "tx": {"counters": {"packets": 10}},
                "old": {"counters": {"x": 1}}
            }}"#,
        )
        .unwrap();
        let b: Value = serde_json::from_str(
            r#"{"scopes": {
                "tx": {"counters": {"packets": 12}},
                "ctrl": {"counters": {"migrations": 1}}
            }}"#,
        )
        .unwrap();
        let rows = diff_metrics(&a, &b);
        assert!(rows
            .iter()
            .any(|r| r.scope == "ctrl" && r.delta == "scope added"));
        assert!(rows
            .iter()
            .any(|r| r.scope == "old" && r.delta == "scope removed"));
        let tx = rows
            .iter()
            .find(|r| r.scope == "tx" && r.name == "packets")
            .expect("changed counter appears");
        assert_eq!(tx.delta, "+2");
        // Identical blocks diff to nothing.
        assert!(diff_metrics(&a, &a).is_empty());
    }

    #[test]
    fn diff_calls_out_the_int_scope_instead_of_silently_skipping_it() {
        // An export from a build that stamps INT gains a whole `int/*`
        // scope. Diffing it against a pre-INT export must say so
        // explicitly in both directions — not skip the one-sided scope.
        let pre: Value =
            serde_json::from_str(r#"{"scopes": {"tx": {"counters": {"packets": 10}}}}"#).unwrap();
        let post: Value = serde_json::from_str(
            r#"{"scopes": {
                "tx": {"counters": {"packets": 10}},
                "int": {"counters": {"stamps": 120, "postcards": 40, "truncated": 0}}
            }}"#,
        )
        .unwrap();
        let added = diff_metrics(&pre, &post);
        assert_eq!(added.len(), 1, "only the int scope differs: {added:?}");
        assert_eq!(
            (added[0].scope.as_str(), added[0].delta.as_str()),
            ("int", "scope added")
        );
        let removed = diff_metrics(&post, &pre);
        assert_eq!(removed.len(), 1);
        assert_eq!(
            (removed[0].scope.as_str(), removed[0].delta.as_str()),
            ("int", "scope removed")
        );
    }

    #[test]
    fn metrics_block_unwraps_reports() {
        let raw: Value = serde_json::from_str(r#"{"scopes": {}}"#).unwrap();
        assert!(metrics_block(&raw).is_some());
        let report: Value =
            serde_json::from_str(r#"{"app": "x", "metrics": {"scopes": {}}}"#).unwrap();
        assert!(metrics_block(&report).is_some());
        let wrapped: Value =
            serde_json::from_str(r#"{"adcp_trace": [{"metrics": {"scopes": {}}}]}"#).unwrap();
        assert!(metrics_block(&wrapped).is_some());
        let nothing: Value = serde_json::from_str(r#"{"a": 1}"#).unwrap();
        assert!(metrics_block(&nothing).is_none());
    }
}
