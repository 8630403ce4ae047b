//! Consumers of the journey-tracer export: Chrome-trace conversion, drop
//! forensics with the metrics cross-check, and packet-walk printing.
//!
//! All three work on the JSON block a switch exports via `trace_json()`
//! (embedded in every [`adcp_apps::driver::AppReport`] as `trace`), so they
//! compose with saved reports as well as live runs:
//!
//! * [`chrome_trace`] — convert one or more runs into a Chrome trace-event
//!   JSON document loadable in Perfetto / `chrome://tracing`: one track
//!   (tid) per pipe/TM, journey spans as duration events, drops and
//!   control-plane actions as instants.
//! * [`forensics`] — group every recorded drop by site+reason with the
//!   queue state at the moment of death, and cross-check the per-reason
//!   totals against the metrics registry's drop counters. The aggregated
//!   forensic counts are exact at *any* sampling rate (drops are always
//!   captured), so any disagreement means a switch dropped a packet
//!   without recording why — the bug class the check exists to catch.
//! * [`format_journeys`] — pretty-print reconstructed packet walks.

use crate::report::eng;
use serde::{Map, Value};
use std::collections::BTreeMap;

/// One run's trace block plus a display name, for multi-run exports
/// (`pid` in the Chrome trace is the run's index in the slice).
pub struct ChromeRun {
    /// Process name shown in the timeline (e.g. `"paramserv/adcp"`).
    pub name: String,
    /// The switch's `trace_json()` block.
    pub trace: Value,
}

/// Stable track (thread) ids inside one Chrome-trace process. Pipes get
/// `base + index`; the bases are spaced so tracks sort in pipeline order.
fn track_of(site: &str) -> (String, u64) {
    let indexed = |base: u64, prefix: &str| {
        let i: u64 = site[prefix.len()..site.len() - 1].parse().unwrap_or(0);
        (site.to_string(), base + i)
    };
    if site.starts_with("rx(") {
        ("rx".into(), 0)
    } else if site.starts_with("ingress[") {
        indexed(100, "ingress[")
    } else if site == "tm1" {
        ("tm1".into(), 200)
    } else if site.starts_with("central[") {
        indexed(300, "central[")
    } else if site == "tm2" {
        ("tm2".into(), 400)
    } else if site.starts_with("egress[") {
        indexed(500, "egress[")
    } else if site == "recirculate" {
        ("recirculate".into(), 600)
    } else if site.starts_with("tx(") {
        ("tx".into(), 700)
    } else {
        (site.to_string(), 900)
    }
}

/// Track id of the control-plane instants.
const CTRL_TID: u64 = 800;

fn event_base(ph: &str, name: &str, cat: &str, pid: u64, tid: u64, ts_us: f64) -> Map {
    let mut o = Map::new();
    o.insert("name".into(), Value::String(name.into()));
    o.insert("cat".into(), Value::String(cat.into()));
    o.insert("ph".into(), Value::String(ph.into()));
    o.insert("ts".into(), Value::F64(ts_us));
    o.insert("pid".into(), Value::U64(pid));
    o.insert("tid".into(), Value::U64(tid));
    o
}

fn copy_ctx(args: &mut Map, from: &Value) {
    for key in ["queue_depth", "buffer_cells", "epoch"] {
        if let Some(v) = from.get(key) {
            args.insert(key.into(), v.clone());
        }
    }
}

const PS_PER_US: f64 = 1e6;

/// Convert trace blocks into one Chrome trace-event JSON document
/// (`{"traceEvents": [...], "displayTimeUnit": "ns"}`). Journey hop spans
/// become `ph:"X"` duration events on the track of their site; drops and
/// control-plane actions become `ph:"i"` instants. Terminal `drop` ring
/// hops are skipped — the forensic drop records (complete at any sampling
/// rate) carry the instants instead.
pub fn chrome_trace(runs: &[ChromeRun]) -> Value {
    let mut events: Vec<Value> = Vec::new();
    for (pid, run) in runs.iter().enumerate() {
        push_run_events(&mut events, pid as u64, &run.name, &run.trace);
    }
    let mut root = Map::new();
    root.insert("traceEvents".into(), Value::Array(events));
    root.insert("displayTimeUnit".into(), Value::String("ns".into()));
    Value::Object(root)
}

/// Emit one process's worth of events (metadata, hop spans, drop and
/// control instants) for a trace block, under the given `pid`.
fn push_run_events(events: &mut Vec<Value>, pid: u64, name: &str, trace: &Value) {
    {
        let mut meta = event_base("M", "process_name", "__metadata", pid, 0, 0.0);
        let mut args = Map::new();
        args.insert("name".into(), Value::String(name.into()));
        meta.insert("args".into(), Value::Object(args));
        events.push(Value::Object(meta));
        if trace.get("enabled").and_then(Value::as_bool) != Some(true) {
            return;
        }
        let mut tracks: BTreeMap<u64, String> = BTreeMap::new();
        let empty = Vec::new();
        let hops = trace
            .get("hops")
            .and_then(Value::as_array)
            .unwrap_or(&empty);
        for h in hops {
            let site = h.get("site").and_then(Value::as_str).unwrap_or("?");
            if site == "drop" {
                continue;
            }
            let (track, tid) = track_of(site);
            tracks.entry(tid).or_insert(track);
            let pkt = h.get("pkt").and_then(Value::as_u64).unwrap_or(0);
            let enter = h.get("enter_ps").and_then(Value::as_u64).unwrap_or(0);
            let exit = h.get("exit_ps").and_then(Value::as_u64).unwrap_or(enter);
            let mut ev = event_base(
                "X",
                &format!("pkt {pkt}"),
                "journey",
                pid,
                tid,
                enter as f64 / PS_PER_US,
            );
            ev.insert(
                "dur".into(),
                Value::F64(exit.saturating_sub(enter) as f64 / PS_PER_US),
            );
            let mut args = Map::new();
            args.insert("pkt".into(), Value::U64(pkt));
            args.insert("site".into(), Value::String(site.into()));
            copy_ctx(&mut args, h);
            ev.insert("args".into(), Value::Object(args));
            events.push(Value::Object(ev));
        }
        let drops = trace
            .get("drops")
            .and_then(Value::as_array)
            .unwrap_or(&empty);
        for d in drops {
            let site = d.get("site").and_then(Value::as_str).unwrap_or("?");
            let reason = d.get("reason").and_then(Value::as_str).unwrap_or("?");
            let (track, tid) = track_of(site);
            tracks.entry(tid).or_insert(track);
            let ts = d.get("time_ps").and_then(Value::as_u64).unwrap_or(0);
            let mut ev = event_base(
                "i",
                &format!("drop: {reason}"),
                "drop",
                pid,
                tid,
                ts as f64 / PS_PER_US,
            );
            ev.insert("s".into(), Value::String("t".into()));
            let mut args = Map::new();
            for key in ["pkt", "site", "reason", "tm", "queue"] {
                if let Some(v) = d.get(key) {
                    args.insert(key.into(), v.clone());
                }
            }
            copy_ctx(&mut args, d);
            ev.insert("args".into(), Value::Object(args));
            events.push(Value::Object(ev));
        }
        let ctrl = trace
            .get("ctrl")
            .and_then(Value::as_array)
            .unwrap_or(&empty);
        if !ctrl.is_empty() {
            tracks.entry(CTRL_TID).or_insert("ctrl".into());
        }
        for c in ctrl {
            let name = c.get("event").and_then(Value::as_str).unwrap_or("?");
            let ts = c.get("time_ps").and_then(Value::as_u64).unwrap_or(0);
            let mut ev = event_base("i", name, "ctrl", pid, CTRL_TID, ts as f64 / PS_PER_US);
            ev.insert("s".into(), Value::String("p".into()));
            let mut args = Map::new();
            for key in ["epoch", "strategy", "moved_keys"] {
                if let Some(v) = c.get(key) {
                    args.insert(key.into(), v.clone());
                }
            }
            ev.insert("args".into(), Value::Object(args));
            events.push(Value::Object(ev));
        }
        for (tid, track) in tracks {
            let mut meta = event_base("M", "thread_name", "__metadata", pid, tid, 0.0);
            let mut args = Map::new();
            args.insert("name".into(), Value::String(track));
            meta.insert("args".into(), Value::Object(args));
            events.push(Value::Object(meta));
        }
    }
}

/// One device of a fabric run for the unified Chrome export.
pub struct FabricChromeDevice {
    /// Fabric device id (leaf `l` = `l`, spine `s` = `n_leaves + s`).
    pub device: u16,
    /// Display name (`"leaf0"`, `"spine1"`, ...).
    pub name: String,
    /// That switch's `trace_json()` block.
    pub trace: Value,
}

/// Convert one fabric run into a single Chrome trace-event document:
/// `pid` = fabric device id (process per leaf and spine), every device's
/// journey spans/drops/ctrl instants on its own tracks, inter-switch
/// link crossings as `ph:"s"`/`ph:"f"` flow events bound by packet id
/// (start on the transmitter's `tx` track, finish on the receiver's `rx`
/// track), and any collector overlay instants appended as-is.
pub fn fabric_chrome_trace(
    devices: &[FabricChromeDevice],
    crossings: &[adcp_fabric::Crossing],
    overlay: Vec<Value>,
) -> Value {
    let mut events: Vec<Value> = Vec::new();
    for d in devices {
        push_run_events(&mut events, d.device as u64, &d.name, &d.trace);
    }
    const TX_TID: u64 = 700;
    const RX_TID: u64 = 0;
    for c in crossings {
        let name = format!("pkt {}", c.pkt);
        let mut s = event_base(
            "s",
            &name,
            "link",
            c.from_device as u64,
            TX_TID,
            c.depart.0 as f64 / PS_PER_US,
        );
        s.insert("id".into(), Value::U64(c.pkt));
        let mut args = Map::new();
        args.insert("flow".into(), Value::U64(c.flow));
        args.insert("to_device".into(), Value::U64(c.to_device as u64));
        s.insert("args".into(), Value::Object(args));
        events.push(Value::Object(s));
        let mut f = event_base(
            "f",
            &name,
            "link",
            c.to_device as u64,
            RX_TID,
            c.arrive.0 as f64 / PS_PER_US,
        );
        f.insert("id".into(), Value::U64(c.pkt));
        f.insert("bp".into(), Value::String("e".into()));
        events.push(Value::Object(f));
    }
    events.extend(overlay);
    let mut root = Map::new();
    root.insert("traceEvents".into(), Value::Array(events));
    root.insert("displayTimeUnit".into(), Value::String("ns".into()));
    Value::Object(root)
}

/// One forensic group: every drop recorded at a `(site, reason)` pair, with
/// the observed queue state at the moments of death.
pub struct ForensicsRow {
    /// Death site (e.g. `"tm2"`).
    pub site: String,
    /// Typed reason label (e.g. `"queue_tail"`).
    pub reason: String,
    /// Traffic manager involved (0 for non-TM reasons).
    pub tm: u64,
    /// Destination queue, for queue-tail drops.
    pub queue: Option<u64>,
    /// Exact drop count (immune to detail-log truncation).
    pub count: u64,
    /// Queue-depth / buffer-occupancy ranges at death, from the detailed
    /// log (empty when the reason carries no queue state).
    pub detail: String,
}

/// One cross-check line: the forensic total for a `(reason, tm)` against
/// the matching metrics-registry counter.
pub struct CheckRow {
    /// Reason label.
    pub reason: String,
    /// Traffic manager (0 for non-TM reasons).
    pub tm: u64,
    /// Total from the tracer's exact drop aggregation.
    pub forensic: u64,
    /// Value of the matching registry counter (`scope/name`).
    pub counter: u64,
    /// Which counter was compared, as `scope/name`.
    pub counter_name: String,
    /// Did they match exactly?
    pub ok: bool,
}

/// The forensics report for one run.
pub struct Forensics {
    /// Per-`(site, reason)` groups, largest first.
    pub rows: Vec<ForensicsRow>,
    /// Per-`(reason, tm)` cross-check against the metrics counters.
    pub checks: Vec<CheckRow>,
    /// Human-readable mismatch descriptions; empty means the invariant
    /// held (every drop the switch counted has a recorded reason, and
    /// vice versa).
    pub mismatches: Vec<String>,
}

impl Forensics {
    /// Did every forensic total match its registry counter?
    pub fn ok(&self) -> bool {
        self.mismatches.is_empty()
    }
}

// The reason → counter mapping moved into the substrate
// (`adcp_sim::trace`) so the serving daemon's native zero-drift check and
// this JSON-level report share one source of truth.
use adcp_sim::trace::{drop_counter_candidates as counter_candidates, DROP_CHECK_REASONS};

fn counter_lookup(metrics: &Value, scope: &str, name: &str) -> Option<u64> {
    metrics
        .get("scopes")?
        .get(scope)?
        .get("counters")?
        .get(name)?
        .as_u64()
}

/// Build the drop-forensics report for one run: group the recorded drops
/// by site+reason (with queue state at death) and cross-check the exact
/// per-reason totals against the metrics registry's counters.
///
/// Returns `None` when the trace or metrics block is disabled — there is
/// nothing to check (not a pass, not a failure).
pub fn forensics(trace: &Value, metrics: &Value) -> Option<Forensics> {
    if trace.get("enabled").and_then(Value::as_bool) != Some(true)
        || metrics.get("enabled").and_then(Value::as_bool) != Some(true)
    {
        return None;
    }
    let empty = Vec::new();
    let counts = trace
        .get("drop_counts")
        .and_then(Value::as_array)
        .unwrap_or(&empty);
    let log = trace
        .get("drops")
        .and_then(Value::as_array)
        .unwrap_or(&empty);

    // Site+reason groups with ctx ranges from the detailed log.
    let mut rows: Vec<ForensicsRow> = Vec::new();
    for c in counts {
        let site = c.get("site").and_then(Value::as_str).unwrap_or("?");
        let reason = c.get("reason").and_then(Value::as_str).unwrap_or("?");
        let queue = c.get("queue").and_then(Value::as_u64);
        let mut depth: Option<(u64, u64)> = None;
        let mut buf: Option<(u64, u64)> = None;
        for d in log.iter().filter(|d| {
            d.get("site").and_then(Value::as_str) == Some(site)
                && d.get("reason").and_then(Value::as_str) == Some(reason)
                && d.get("queue").and_then(Value::as_u64) == queue
        }) {
            if let Some(v) = d.get("queue_depth").and_then(Value::as_u64) {
                depth = Some(depth.map_or((v, v), |(lo, hi)| (lo.min(v), hi.max(v))));
            }
            if let Some(v) = d.get("buffer_cells").and_then(Value::as_u64) {
                buf = Some(buf.map_or((v, v), |(lo, hi)| (lo.min(v), hi.max(v))));
            }
        }
        let mut detail = String::new();
        if let Some((lo, hi)) = depth {
            detail.push_str(&format!("depth {lo}..{hi}"));
        }
        if let Some((lo, hi)) = buf {
            if !detail.is_empty() {
                detail.push_str(", ");
            }
            detail.push_str(&format!("buf {}..{} cells", eng(lo as f64), eng(hi as f64)));
        }
        rows.push(ForensicsRow {
            site: site.into(),
            reason: reason.into(),
            tm: c.get("tm").and_then(Value::as_u64).unwrap_or(0),
            queue,
            count: c.get("count").and_then(Value::as_u64).unwrap_or(0),
            detail,
        });
    }
    rows.sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.site.cmp(&b.site)));

    // Per-(reason, tm) totals from the exact aggregation.
    let mut totals: BTreeMap<(String, u64), u64> = BTreeMap::new();
    for c in counts {
        let reason = c.get("reason").and_then(Value::as_str).unwrap_or("?");
        let tm = c.get("tm").and_then(Value::as_u64).unwrap_or(0);
        let n = c.get("count").and_then(Value::as_u64).unwrap_or(0);
        *totals.entry((reason.to_string(), tm)).or_insert(0) += n;
    }

    let mut checks = Vec::new();
    let mut mismatches = Vec::new();
    for &(reason, tm) in DROP_CHECK_REASONS {
        let forensic = totals.remove(&(reason.to_string(), tm)).unwrap_or(0);
        let candidates = counter_candidates(reason, tm);
        let found = candidates
            .iter()
            .find_map(|&(s, n)| counter_lookup(metrics, s, n).map(|v| (s, n, v)));
        let Some((scope, name, counter)) = found else {
            // Counter absent on this target (e.g. no tm2 on RMT): the
            // forensic side must be silent too.
            if forensic != 0 {
                mismatches.push(format!(
                    "{reason} (tm{tm}): {forensic} forensic drops but no matching counter"
                ));
            }
            continue;
        };
        let ok = forensic == counter;
        if !ok {
            mismatches.push(format!(
                "{reason} (tm{tm}): forensics recorded {forensic} but {scope}/{name} = {counter}"
            ));
        }
        checks.push(CheckRow {
            reason: reason.into(),
            tm,
            forensic,
            counter,
            counter_name: format!("{scope}/{name}"),
            ok,
        });
    }
    // Anything the tracer recorded beyond the known reason set.
    for ((reason, tm), n) in totals {
        mismatches.push(format!(
            "unknown drop reason {reason:?} (tm{tm}) with {n} forensic drops"
        ));
    }
    Some(Forensics {
        rows,
        checks,
        mismatches,
    })
}

fn fmt_ns(ps: u64) -> String {
    format!("{:.3}ns", ps as f64 / 1e3)
}

/// Pretty-print reconstructed packet walks from a trace block. With
/// `only`, prints that packet's journey (or why it has none); otherwise
/// prints up to `limit` sampled packets and notes how many were omitted.
pub fn format_journeys(trace: &Value, only: Option<u64>, limit: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    if trace.get("enabled").and_then(Value::as_bool) != Some(true) {
        out.push_str("journey tracing disabled (ADCP_TRACE=off and cfg.trace=false)\n");
        return out;
    }
    let empty = Vec::new();
    let hops = trace
        .get("hops")
        .and_then(Value::as_array)
        .unwrap_or(&empty);
    let drops = trace
        .get("drops")
        .and_then(Value::as_array)
        .unwrap_or(&empty);
    let mut by_pkt: BTreeMap<u64, Vec<&Value>> = BTreeMap::new();
    for h in hops {
        let pkt = h.get("pkt").and_then(Value::as_u64).unwrap_or(0);
        if only.is_none_or(|p| p == pkt) {
            by_pkt.entry(pkt).or_default().push(h);
        }
    }
    if let Some(p) = only {
        if !by_pkt.contains_key(&p) {
            let sample = trace.get("sample").and_then(Value::as_u64).unwrap_or(1);
            let _ = writeln!(
                out,
                "pkt {p}: no retained hops (not sampled at N={sample}, evicted, or never seen)"
            );
            return out;
        }
    }
    let total = by_pkt.len();
    for (pkt, mut phops) in by_pkt.into_iter().take(limit) {
        phops.sort_by_key(|h| {
            (
                h.get("enter_ps").and_then(Value::as_u64).unwrap_or(0),
                h.get("exit_ps").and_then(Value::as_u64).unwrap_or(0),
            )
        });
        let _ = writeln!(out, "pkt {pkt}:");
        for h in phops {
            let site = h.get("site").and_then(Value::as_str).unwrap_or("?");
            let enter = h.get("enter_ps").and_then(Value::as_u64).unwrap_or(0);
            let exit = h.get("exit_ps").and_then(Value::as_u64).unwrap_or(enter);
            let mut ctx = String::new();
            if let Some(d) = h.get("queue_depth").and_then(Value::as_u64) {
                let _ = write!(ctx, "  depth={d}");
            }
            if let Some(b) = h.get("buffer_cells").and_then(Value::as_u64) {
                let _ = write!(ctx, "  buf={b}");
            }
            if let Some(e) = h.get("epoch").and_then(Value::as_u64) {
                let _ = write!(ctx, "  epoch={e}");
            }
            if site == "drop" {
                let verdict = drops
                    .iter()
                    .find(|d| {
                        d.get("pkt").and_then(Value::as_u64) == Some(pkt)
                            && d.get("time_ps").and_then(Value::as_u64) == Some(enter)
                    })
                    .map(|d| {
                        format!(
                            "  {} @ {}",
                            d.get("reason").and_then(Value::as_str).unwrap_or("?"),
                            d.get("site").and_then(Value::as_str).unwrap_or("?"),
                        )
                    })
                    .unwrap_or_default();
                let _ = writeln!(
                    out,
                    "  {:<14} {}{}{}",
                    "DROPPED",
                    fmt_ns(enter),
                    verdict,
                    ctx
                );
            } else {
                let _ = writeln!(
                    out,
                    "  {site:<14} {} .. {}{ctx}",
                    fmt_ns(enter),
                    fmt_ns(exit)
                );
            }
        }
    }
    if total > limit {
        let _ = writeln!(
            out,
            "... {} more sampled packets (pass a packet id to --journeys)",
            total - limit
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcp_sim::time::SimTime;
    use adcp_sim::trace::{CtrlEvent, DropReason, HopCtx, JourneyTracer, Site};
    use adcp_sim::PortId;

    fn sample_trace() -> Value {
        let mut t = JourneyTracer::new(64);
        t.record_hop(
            1,
            Site::Rx(PortId(0)),
            SimTime(0),
            SimTime(500),
            HopCtx::NONE,
        );
        t.record_hop(
            1,
            Site::IngressPipe(0),
            SimTime(500),
            SimTime(900),
            HopCtx::NONE,
        );
        t.record_hop(
            1,
            Site::Tm1,
            SimTime(900),
            SimTime(1_500),
            HopCtx {
                queue_depth: Some(3),
                buffer_cells: Some(12),
                epoch: Some(1),
            },
        );
        t.record_hop(
            1,
            Site::Tx(PortId(2)),
            SimTime(1_500),
            SimTime(2_000),
            HopCtx::NONE,
        );
        t.record_drop(
            SimTime(950),
            2,
            Site::Tm1,
            DropReason::QueueTail { tm: 1, queue: 0 },
            HopCtx {
                queue_depth: Some(8),
                buffer_cells: Some(64),
                epoch: None,
            },
        );
        t.record_ctrl(
            SimTime(1_000),
            CtrlEvent::MigrationBegin {
                strategy: "drain",
                epoch: 2,
            },
        );
        t.to_json()
    }

    fn metrics_with(pairs: &[(&str, &str, u64)]) -> Value {
        let mut grouped: std::collections::BTreeMap<&str, Map> = Default::default();
        for &(scope, name, v) in pairs {
            grouped
                .entry(scope)
                .or_default()
                .insert(name.into(), Value::U64(v));
        }
        let mut scopes = Map::new();
        for (scope, counters) in grouped {
            let mut s = Map::new();
            s.insert("counters".into(), Value::Object(counters));
            scopes.insert(scope.into(), Value::Object(s));
        }
        let mut root = Map::new();
        root.insert("enabled".into(), Value::Bool(true));
        root.insert("scopes".into(), Value::Object(scopes));
        Value::Object(root)
    }

    #[test]
    fn chrome_export_has_tracks_spans_and_instants() {
        let doc = chrome_trace(&[ChromeRun {
            name: "paramserv/adcp".into(),
            trace: sample_trace(),
        }]);
        assert_eq!(
            doc.get("displayTimeUnit").and_then(Value::as_str),
            Some("ns")
        );
        let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
        let ph = |e: &Value| e.get("ph").and_then(Value::as_str).unwrap().to_string();
        let spans: Vec<&Value> = events.iter().filter(|e| ph(e) == "X").collect();
        assert_eq!(spans.len(), 4, "one duration event per non-drop hop");
        let tm1 = spans
            .iter()
            .find(|e| {
                e.get("args")
                    .and_then(|a| a.get("site"))
                    .and_then(Value::as_str)
                    == Some("tm1")
            })
            .unwrap();
        // 900ps enter -> 0.0009us, 600ps residency -> 0.0006us.
        assert!((tm1.get("ts").and_then(Value::as_f64).unwrap() - 0.0009).abs() < 1e-12);
        assert!((tm1.get("dur").and_then(Value::as_f64).unwrap() - 0.0006).abs() < 1e-12);
        let instants: Vec<&Value> = events.iter().filter(|e| ph(e) == "i").collect();
        assert_eq!(instants.len(), 2, "one drop + one ctrl instant");
        let names: Vec<&str> = events
            .iter()
            .filter(|e| ph(e) == "M")
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        assert!(names.contains(&"paramserv/adcp"));
        assert!(names.contains(&"tm1"));
        assert!(names.contains(&"ctrl"));
        assert!(names.contains(&"rx"));
    }

    #[test]
    fn fabric_chrome_export_binds_crossings_and_validates() {
        let devices = vec![
            FabricChromeDevice {
                device: 0,
                name: "leaf0".into(),
                trace: sample_trace(),
            },
            FabricChromeDevice {
                device: 4,
                name: "spine0".into(),
                trace: sample_trace(),
            },
        ];
        let crossings = vec![adcp_fabric::Crossing {
            pkt: 1,
            flow: 1001,
            from_device: 0,
            to_device: 4,
            depart: SimTime(2_000),
            arrive: SimTime(204_000),
        }];
        let overlay = vec![{
            let mut o = Map::new();
            o.insert(
                "name".into(),
                Value::String("microburst: tm1 depth 9".into()),
            );
            o.insert("cat".into(), Value::String("telemetry".into()));
            o.insert("ph".into(), Value::String("i".into()));
            o.insert("ts".into(), Value::F64(0.5));
            o.insert("pid".into(), Value::U64(4));
            o.insert("tid".into(), Value::U64(950));
            o.insert("s".into(), Value::String("p".into()));
            Value::Object(o)
        }];
        let doc = fabric_chrome_trace(&devices, &crossings, overlay);
        let schema = adcp_sim::schema::load_chrome_trace_schema().unwrap();
        adcp_sim::schema::validate(&doc, &schema)
            .expect("fabric doc conforms to the chrome schema");
        let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
        let ph = |e: &Value, want: &str| e.get("ph").and_then(Value::as_str) == Some(want);
        let start = events.iter().find(|e| ph(e, "s")).expect("flow start");
        let finish = events.iter().find(|e| ph(e, "f")).expect("flow finish");
        // Start leaves the transmitter's tx track; finish lands on the
        // receiver's rx track; the Chrome viewer binds them by id.
        assert_eq!(start.get("pid").and_then(Value::as_u64), Some(0));
        assert_eq!(finish.get("pid").and_then(Value::as_u64), Some(4));
        assert_eq!(start.get("id"), finish.get("id"));
        assert_eq!(finish.get("bp").and_then(Value::as_str), Some("e"));
        // Both devices' journey spans and the overlay instant survive.
        let names: Vec<&str> = events
            .iter()
            .filter(|e| ph(e, "M"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        assert!(names.contains(&"leaf0"));
        assert!(names.contains(&"spine0"));
        assert!(events
            .iter()
            .any(|e| e.get("cat").and_then(Value::as_str) == Some("telemetry")));
    }

    #[test]
    fn forensics_cross_check_passes_on_agreeing_counters() {
        let trace = sample_trace();
        let metrics = metrics_with(&[
            ("tm1", "queue_drops", 1),
            ("tm1", "buffer_drops", 0),
            ("tm2", "queue_drops", 0),
            ("tm2", "buffer_drops", 0),
            ("mac", "fcs_drops", 0),
            ("parser", "errors", 0),
            ("drops", "filtered", 0),
            ("drops", "no_decision", 0),
            ("drops", "bad_port", 0),
        ]);
        let f = forensics(&trace, &metrics).unwrap();
        assert!(f.ok(), "mismatches: {:?}", f.mismatches);
        assert_eq!(f.rows.len(), 1);
        assert_eq!(f.rows[0].reason, "queue_tail");
        assert!(
            f.rows[0].detail.contains("depth 8..8"),
            "{}",
            f.rows[0].detail
        );
        let qt = f
            .checks
            .iter()
            .find(|c| c.reason == "queue_tail" && c.tm == 1)
            .unwrap();
        assert_eq!((qt.forensic, qt.counter), (1, 1));
    }

    #[test]
    fn forensics_cross_check_catches_unrecorded_drops() {
        // The switch counted two queue drops but forensics only saw one —
        // a drop happened without being recorded.
        let trace = sample_trace();
        let metrics = metrics_with(&[("tm1", "queue_drops", 2)]);
        let f = forensics(&trace, &metrics).unwrap();
        assert!(!f.ok());
        assert!(f.mismatches[0].contains("queue_tail"), "{:?}", f.mismatches);
    }

    #[test]
    fn forensics_skips_when_tracing_disabled() {
        let t = JourneyTracer::disabled();
        assert!(forensics(&t.to_json(), &metrics_with(&[])).is_none());
    }

    #[test]
    fn rmt_single_tm_counter_fallback() {
        // RMT scopes its only TM as `tm`; the tm1-keyed forensics must
        // find it through the candidate fallback.
        let trace = sample_trace();
        let metrics = metrics_with(&[
            ("tm", "queue_drops", 1),
            ("tm", "buffer_drops", 0),
            ("mac", "fcs_drops", 0),
            ("parser", "errors", 0),
            ("drops", "filtered", 0),
            ("drops", "no_decision", 0),
            ("drops", "bad_port", 0),
        ]);
        let f = forensics(&trace, &metrics).unwrap();
        assert!(f.ok(), "mismatches: {:?}", f.mismatches);
        let qt = f
            .checks
            .iter()
            .find(|c| c.reason == "queue_tail" && c.tm == 1)
            .unwrap();
        assert_eq!(qt.counter_name, "tm/queue_drops");
    }

    #[test]
    fn journey_printing_walks_and_terminates() {
        let trace = sample_trace();
        let s = format_journeys(&trace, Some(1), 10);
        assert!(s.contains("pkt 1:"), "{s}");
        assert!(s.contains("rx(p0)"), "{s}");
        assert!(s.contains("tx(p2)"), "{s}");
        assert!(s.contains("epoch=1"), "{s}");
        let missing = format_journeys(&trace, Some(99), 10);
        assert!(missing.contains("no retained hops"), "{missing}");
    }
}
