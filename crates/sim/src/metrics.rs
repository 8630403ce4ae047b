//! Per-stage metrics registry: one uniform path for every number a switch
//! model reports.
//!
//! The paper's claims are *per-stage* latency/throughput arguments (central
//! pipelines, §3.1; key-rate vs packet-rate, §3.2), so the simulator needs
//! per-stage visibility: which stage a packet spent its time in, how deep
//! each queue ran, how full each buffer pool was. This module provides a
//! lightweight registry of named scopes (parser, MAU stages, TM1/TM2,
//! central pipelines, queues, deparser), each holding:
//!
//! * **histograms** — the fixed [`LatencyHist`], for span-style stage
//!   timing recorded on every packet;
//! * **time series** — bounded, self-decimating `(time, value)` samples for
//!   queue-depth and buffer-occupancy traces.
//!
//! Counters and gauges have owners elsewhere (the switch shell's ledger,
//! the buffer pools): the export reads them when asked and lists them as
//! derived rows ([`MetricsRegistry::to_json_with`]), so the registry holds
//! no second copy.
//!
//! Handles ([`HistId`], [`SeriesId`]) are plain vector indices, so the hot
//! path is an array index plus an integer add — no string hashing per
//! event. The whole registry can be disabled (the
//! `ADCP_METRICS=off` environment variable, or
//! [`MetricsRegistry::new_disabled`]) so a run can measure the
//! instrumentation overhead itself; recording into a disabled registry is a
//! branch and a return.
//!
//! [`MetricsRegistry::to_json`] exports everything as one JSON object with
//! a stable shape (validated against `schemas/metrics.schema.json` in CI),
//! embedded in every `--json` AppReport and dumped by the `adcp-trace`
//! binary.

use crate::stats::LatencyHist;
use crate::time::{Duration, SimTime};
use serde::{Map, Value};

/// Handle to a named scope (a pipeline stage or other component).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScopeId(usize);

/// Handle to a latency histogram registered in some scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(usize);

/// Handle to a time series registered in some scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesId(usize);

/// A bounded `(time, value)` series that decimates itself under pressure.
///
/// The series keeps every `stride`-th offered sample; when the buffer
/// reaches capacity it drops every other retained point and doubles the
/// stride, so memory stays bounded while the full simulated time range
/// remains covered (at progressively coarser resolution).
#[derive(Debug, Clone)]
pub struct TimeSeries {
    cap: usize,
    stride: u64,
    seen: u64,
    hwm: u64,
    points: Vec<(u64, u64)>,
}

impl TimeSeries {
    /// Series bounded to at most `cap` retained points (`cap >= 2`).
    pub fn new(cap: usize) -> Self {
        TimeSeries {
            cap: cap.max(2),
            stride: 1,
            seen: 0,
            hwm: 0,
            points: Vec::new(),
        }
    }

    /// Offer a sample at simulated time `t`.
    pub fn offer(&mut self, t: SimTime, v: u64) {
        self.hwm = self.hwm.max(v);
        if self.seen.is_multiple_of(self.stride) {
            self.points.push((t.as_ps(), v));
            if self.points.len() >= self.cap {
                // Halve resolution: keep even-indexed points, double stride.
                let mut i = 0u32;
                self.points.retain(|_| {
                    let keep = i.is_multiple_of(2);
                    i += 1;
                    keep
                });
                self.stride *= 2;
            }
        }
        self.seen += 1;
    }

    /// Samples offered (not all are retained).
    pub fn offered(&self) -> u64 {
        self.seen
    }

    /// Retained `(time_ps, value)` points, oldest first.
    pub fn points(&self) -> &[(u64, u64)] {
        &self.points
    }

    /// Current decimation stride (1 = every offered sample retained).
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// Largest value ever offered, 0 if none. Tracked exactly, independent
    /// of decimation.
    pub fn max_value(&self) -> u64 {
        self.hwm
    }
}

#[derive(Debug, Clone)]
struct Named<T> {
    scope: usize,
    name: String,
    value: T,
}

/// Registry of per-stage metrics for one switch instance.
///
/// See the [module docs](self) for the model. Typical use:
///
/// ```
/// use adcp_sim::metrics::MetricsRegistry;
/// use adcp_sim::time::{Duration, SimTime};
///
/// let mut m = MetricsRegistry::new_enabled();
/// let parser = m.scope("parser");
/// let span = m.hist(parser, "span_ps");
/// m.record(span, Duration(1500));
/// let json = m.to_json_with(&[("parser", "errors", 1)], &[]);
/// assert!(json.get("scopes").is_some());
/// ```
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    enabled: bool,
    scopes: Vec<String>,
    hists: Vec<Named<LatencyHist>>,
    series: Vec<Named<TimeSeries>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::from_env()
    }
}

impl MetricsRegistry {
    /// Registry with collection on.
    pub fn new_enabled() -> Self {
        MetricsRegistry {
            enabled: true,
            scopes: Vec::new(),
            hists: Vec::new(),
            series: Vec::new(),
        }
    }

    /// Registry with collection off: registration still hands out valid
    /// handles, but every record call is a branch-and-return: the off leg
    /// of an instrumentation-overhead measurement.
    pub fn new_disabled() -> Self {
        MetricsRegistry {
            enabled: false,
            ..Self::new_enabled()
        }
    }

    /// Registry honoring the `ADCP_METRICS` environment variable:
    /// `off`, `0`, or `false` disable collection; anything else (including
    /// unset) enables it.
    pub fn from_env() -> Self {
        match std::env::var("ADCP_METRICS") {
            Ok(v) if matches!(v.as_str(), "off" | "0" | "false") => Self::new_disabled(),
            _ => Self::new_enabled(),
        }
    }

    /// Is collection on? Hot paths branch on this before computing sample
    /// values (queue depths walk every queue), so a disabled registry costs
    /// one predictable branch per call site.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Find or create the scope named `name`.
    pub fn scope(&mut self, name: &str) -> ScopeId {
        if let Some(i) = self.scopes.iter().position(|s| s == name) {
            return ScopeId(i);
        }
        self.scopes.push(name.to_string());
        ScopeId(self.scopes.len() - 1)
    }

    /// Find or create a latency histogram in `scope`.
    pub fn hist(&mut self, scope: ScopeId, name: &str) -> HistId {
        if let Some(i) = self
            .hists
            .iter()
            .position(|h| h.scope == scope.0 && h.name == name)
        {
            return HistId(i);
        }
        self.hists.push(Named {
            scope: scope.0,
            name: name.to_string(),
            value: LatencyHist::new(),
        });
        HistId(self.hists.len() - 1)
    }

    /// Find or create a time series in `scope`, bounded to `cap` points.
    pub fn series(&mut self, scope: ScopeId, name: &str, cap: usize) -> SeriesId {
        if let Some(i) = self
            .series
            .iter()
            .position(|s| s.scope == scope.0 && s.name == name)
        {
            return SeriesId(i);
        }
        self.series.push(Named {
            scope: scope.0,
            name: name.to_string(),
            value: TimeSeries::new(cap),
        });
        SeriesId(self.series.len() - 1)
    }

    /// Record a duration into a histogram.
    #[inline]
    pub fn record(&mut self, id: HistId, d: Duration) {
        if self.enabled {
            self.hists[id.0].value.record(d);
        }
    }

    /// Record the span between two simulation points into a histogram.
    ///
    /// `to` must not precede `from`: debug builds assert (also enforced in
    /// [`LatencyHist::record_span`]), release builds saturate to zero —
    /// checked here as well so a disabled registry still catches the
    /// mis-ordered pair in debug runs.
    #[inline]
    pub fn record_span(&mut self, id: HistId, from: SimTime, to: SimTime) {
        debug_assert!(
            to >= from,
            "record_span: to ({to}) precedes from ({from}); span would underflow"
        );
        if self.enabled {
            self.hists[id.0].value.record_span(from, to);
        }
    }

    /// Offer a `(time, value)` sample to a series.
    #[inline]
    pub fn sample(&mut self, id: SeriesId, t: SimTime, v: u64) {
        if self.enabled {
            self.series[id.0].value.offer(t, v);
        }
    }

    /// Total `(t, v)` points currently retained across every registered
    /// series — the only part of the registry whose size could depend on
    /// run length. Histograms are fixed-size at registration and every
    /// series self-decimates at its cap, so this number (and hence the
    /// registry's footprint) must hold steady over an arbitrarily long
    /// soak; the memory-bound regression test pins that down.
    pub fn retained_series_points(&self) -> usize {
        self.series.iter().map(|s| s.value.points().len()).sum()
    }

    /// Shared access to a histogram by scope and name (slow path).
    pub fn hist_ref(&self, scope: &str, name: &str) -> Option<&LatencyHist> {
        let si = self.scopes.iter().position(|s| s == scope)?;
        self.hists
            .iter()
            .find(|h| h.scope == si && h.name == name)
            .map(|h| &h.value)
    }

    /// Export the registry as one JSON object:
    ///
    /// ```json
    /// {
    ///   "enabled": true,
    ///   "scopes": {
    ///     "<scope>": {
    ///       "counters": {"<name>": 7},
    ///       "gauges":   {"<name>": {"value": 3, "hwm": 9}},
    ///       "hists":    {"<name>": {"count": …, "min_ps": …, "mean_ps": …,
    ///                                "p50_ps": …, "p99_ps": …,
    ///                                "p99_upper_ps": …, "max_ps": …,
    ///                                "overflow": …}},
    ///       "series":   {"<name>": {"offered": …, "stride": …,
    ///                                "points": [[t_ps, v], …]}}
    ///     }
    ///   }
    /// }
    /// ```
    ///
    /// Scope and metric order is registration order (deterministic), so the
    /// encoded JSON is byte-stable for a given simulation.
    pub fn to_json(&self) -> Value {
        self.to_json_with(&[], &[])
    }

    /// [`MetricsRegistry::to_json`] plus values whose owner is not the
    /// registry, read by the caller at this moment: `counters` rows are
    /// `(scope, name, value)`, `gauges` rows `(scope, name, value, hwm)`.
    /// Each lands in its (already registered) scope, in slice order. A disabled registry reports nothing,
    /// so the rows keep their names and read 0.
    pub fn to_json_with(
        &self,
        derived_counters: &[(&str, &str, u64)],
        derived_gauges: &[(&str, &str, u64, u64)],
    ) -> Value {
        let known = |s: &str| self.scopes.iter().any(|n| n == s);
        debug_assert!(
            derived_counters.iter().all(|&(s, ..)| known(s))
                && derived_gauges.iter().all(|&(s, ..)| known(s)),
            "derived metric in an unregistered scope"
        );
        let on = |v: u64| if self.enabled { v } else { 0 };
        let gauge_json = |value: u64, hwm: u64| {
            let mut o = Map::new();
            o.insert("value".into(), Value::U64(value));
            o.insert("hwm".into(), Value::U64(hwm));
            Value::Object(o)
        };
        let mut scopes = Map::new();
        for (si, sname) in self.scopes.iter().enumerate() {
            let mut counters = Map::new();
            for &(_, name, v) in derived_counters.iter().filter(|&&(s, ..)| s == sname) {
                counters.insert(name.into(), Value::U64(on(v)));
            }
            let mut gauges = Map::new();
            for &(_, name, v, hwm) in derived_gauges.iter().filter(|&&(s, ..)| s == sname) {
                gauges.insert(name.into(), gauge_json(on(v), on(hwm)));
            }
            let mut hists = Map::new();
            for h in self.hists.iter().filter(|h| h.scope == si) {
                hists.insert(h.name.clone(), hist_json(&h.value));
            }
            let mut series = Map::new();
            for s in self.series.iter().filter(|s| s.scope == si) {
                let mut o = Map::new();
                o.insert("offered".into(), Value::U64(s.value.offered()));
                o.insert("stride".into(), Value::U64(s.value.stride()));
                o.insert(
                    "points".into(),
                    Value::Array(
                        s.value
                            .points()
                            .iter()
                            .map(|&(t, v)| Value::Array(vec![Value::U64(t), Value::U64(v)]))
                            .collect(),
                    ),
                );
                series.insert(s.name.clone(), Value::Object(o));
            }
            let mut scope = Map::new();
            scope.insert("counters".into(), Value::Object(counters));
            scope.insert("gauges".into(), Value::Object(gauges));
            scope.insert("hists".into(), Value::Object(hists));
            scope.insert("series".into(), Value::Object(series));
            scopes.insert(sname.clone(), Value::Object(scope));
        }
        let mut root = Map::new();
        root.insert("enabled".into(), Value::Bool(self.enabled));
        root.insert("scopes".into(), Value::Object(scopes));
        Value::Object(root)
    }
}

fn hist_json(h: &LatencyHist) -> Value {
    let mut o = Map::new();
    o.insert("count".into(), Value::U64(h.count()));
    o.insert("min_ps".into(), Value::U64(h.min_ps()));
    o.insert("mean_ps".into(), Value::F64(h.mean_ps()));
    o.insert("p50_ps".into(), Value::U64(h.percentile_ps(0.50)));
    o.insert("p99_ps".into(), Value::U64(h.percentile_ps(0.99)));
    o.insert(
        "p99_upper_ps".into(),
        Value::U64(h.percentile_upper_ps(0.99)),
    );
    o.insert("max_ps".into(), Value::U64(h.max_ps()));
    o.insert("overflow".into(), Value::U64(h.overflow_count()));
    Value::Object(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_stable_and_idempotent() {
        let mut m = MetricsRegistry::new_enabled();
        let a = m.scope("parser");
        let b = m.scope("tm1");
        assert_eq!(m.scope("parser"), a);
        let h1 = m.hist(a, "span_ps");
        let h2 = m.hist(b, "span_ps");
        assert_ne!(h1, h2, "same name in different scopes is distinct");
        assert_eq!(m.hist(a, "span_ps"), h1);
        m.record(h1, Duration(100));
        m.record(h1, Duration(200));
        assert_eq!(m.hist_ref("parser", "span_ps").unwrap().count(), 2);
        assert_eq!(m.hist_ref("tm1", "span_ps").unwrap().count(), 0);
        assert!(m.hist_ref("nope", "span_ps").is_none());
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let mut m = MetricsRegistry::new_disabled();
        let s = m.scope("tm1");
        let h = m.hist(s, "span_ps");
        let ts = m.series(s, "depth", 8);
        m.record(h, Duration(100));
        m.sample(ts, SimTime(1), 5);
        assert_eq!(m.hist_ref("tm1", "span_ps").unwrap().count(), 0);
        assert_eq!(m.retained_series_points(), 0);
        let json = m.to_json();
        assert_eq!(json.get("enabled").and_then(|v| v.as_bool()), Some(false));
    }

    #[test]
    fn derived_rows_land_in_their_scope_and_a_disabled_registry_reports_zero() {
        let export = |mut m: MetricsRegistry| {
            m.scope("tm");
            let json = m.to_json_with(&[("tm", "drops", 7)], &[("tm", "cells", 3, 9)]);
            serde_json::to_string(&json).unwrap()
        };
        let on = export(MetricsRegistry::new_enabled());
        assert!(on.contains(r#""counters":{"drops":7}"#), "{on}");
        assert!(on.contains(r#""cells":{"value":3,"hwm":9}"#), "{on}");
        let off = export(MetricsRegistry::new_disabled());
        assert!(off.contains(r#""counters":{"drops":0}"#), "{off}");
        assert!(off.contains(r#""cells":{"value":0,"hwm":0}"#), "{off}");
    }

    #[test]
    fn series_decimates_under_pressure() {
        let mut ts = TimeSeries::new(8);
        for i in 0..1000u64 {
            ts.offer(SimTime(i), i);
        }
        assert_eq!(ts.offered(), 1000);
        assert!(ts.points().len() < 8, "stays under capacity");
        assert!(ts.stride() > 1, "stride doubled under pressure");
        assert_eq!(ts.max_value(), 999, "hwm exact despite decimation");
        // Points remain in time order and span the range.
        let pts = ts.points();
        assert!(pts.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(pts[0].0, 0);
    }

    #[test]
    fn json_shape_is_stable() {
        let mut m = MetricsRegistry::new_enabled();
        let s = m.scope("egress");
        let h = m.hist(s, "span_ps");
        let ts = m.series(s, "depth", 16);
        m.record(h, Duration(5000));
        m.sample(ts, SimTime(10), 1);
        let json = m.to_json_with(&[("egress", "tx_pkts", 2)], &[]);
        let scope = json
            .get("scopes")
            .and_then(|v| v.get("egress"))
            .expect("scope present");
        assert_eq!(
            scope
                .get("counters")
                .and_then(|v| v.get("tx_pkts"))
                .and_then(|v| v.as_u64()),
            Some(2)
        );
        let hist = scope.get("hists").and_then(|v| v.get("span_ps")).unwrap();
        for key in [
            "count",
            "min_ps",
            "mean_ps",
            "p50_ps",
            "p99_ps",
            "p99_upper_ps",
            "max_ps",
            "overflow",
        ] {
            assert!(hist.get(key).is_some(), "hist field {key} present");
        }
        let series = scope.get("series").and_then(|v| v.get("depth")).unwrap();
        assert_eq!(series.get("offered").and_then(|v| v.as_u64()), Some(1));
    }
}
