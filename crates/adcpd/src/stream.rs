//! Rotating, schema-validated observability streams.
//!
//! A long-running daemon cannot accumulate observability in memory or in
//! one ever-growing file; it emits **rotating generations** and deletes
//! the oldest, so disk use is bounded by `keep` regardless of uptime.
//! Each snapshot generation writes two files into the stream directory:
//!
//! * `metrics-<seq>.json` — the switch's full metrics-registry export,
//!   validated against `schemas/metrics.schema.json` **before** it
//!   touches disk (a malformed snapshot is a bug, not a log line).
//! * `trace-<seq>.json` — a Chrome trace-event timeline of the slices,
//!   SLO verdicts, counter deltas, and control-plane actions since the
//!   previous snapshot, validated against
//!   `schemas/chrome_trace.schema.json`. Load it in `about:tracing` /
//!   Perfetto.
//! * `telemetry-<seq>.json` — when the daemon runs with INT stamping on,
//!   the collector's report (per-flow paths, queue-depth series,
//!   microbursts, path changes), validated against
//!   `schemas/telemetry.schema.json`.
//!
//! Counter deltas are computed stream-side: the stream remembers the
//! previous snapshot's flattened `scope/name` counters and emits one
//! Chrome `ph:"C"` counter event carrying only the counters that moved —
//! the compact diff a dashboard tails, while the full snapshot stays
//! available for state reconstruction.
//!
//! Every file lands via write-to-temp + rename, so a flush interrupted
//! mid-write (crash, SIGKILL, full disk) can never leave a truncated
//! generation under a final name: readers see either the previous
//! complete file set or the new one, and stale `*.tmp` residue is
//! harmless and overwritten by the next flush.

use adcp_sim::schema::{
    load_chrome_trace_schema, load_metrics_schema, load_telemetry_schema, validate,
};
use adcp_sim::time::SimTime;
use serde::{Map, Value};
use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};

/// Where and how much to stream.
#[derive(Debug, Clone)]
pub struct StreamCfg {
    /// Directory for the rotating files (created if absent).
    pub dir: PathBuf,
    /// Generations to retain per stream; older files are deleted.
    pub keep: usize,
}

/// One scalar argument on a trace event.
pub type Arg = (&'static str, u64);

/// Accumulates Chrome trace events between snapshots.
///
/// Timestamps are microseconds of **simulation** time (the daemon's whole
/// observable output is wall-clock-free); `pid` 1 is the daemon, `tid` 1
/// the serving loop, `tid` 2 the control plane.
#[derive(Debug, Default)]
pub struct TraceBuilder {
    events: Vec<Value>,
}

fn us(t: SimTime) -> f64 {
    t.as_ps() as f64 / 1e6
}

fn event(name: &str, cat: &str, ph: &str, ts: f64, tid: u64, args: &[Arg]) -> Value {
    let mut m = Map::new();
    m.insert("name".into(), Value::String(name.into()));
    m.insert("cat".into(), Value::String(cat.into()));
    m.insert("ph".into(), Value::String(ph.into()));
    m.insert("ts".into(), Value::F64(ts));
    m.insert("pid".into(), Value::U64(1));
    m.insert("tid".into(), Value::U64(tid));
    if !args.is_empty() {
        let mut a = Map::new();
        for &(k, v) in args {
            a.insert(k.into(), Value::U64(v));
        }
        m.insert("args".into(), Value::Object(a));
    }
    Value::Object(m)
}

impl TraceBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        TraceBuilder::default()
    }

    /// Events accumulated so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded since the last build.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// A completed time slice (`ph:"X"` span on the serving track).
    pub fn slice(&mut self, name: &str, start: SimTime, end: SimTime, args: &[Arg]) {
        let mut ev = event(name, "slice", "X", us(start), 1, args);
        if let Value::Object(m) = &mut ev {
            m.insert("dur".into(), Value::F64(us(end) - us(start)));
        }
        self.events.push(ev);
    }

    /// A control-plane action (`ph:"i"` instant on the control track).
    pub fn instant(&mut self, name: &str, at: SimTime, args: &[Arg]) {
        let mut ev = event(name, "ctrl", "i", us(at), 2, args);
        if let Value::Object(m) = &mut ev {
            m.insert("s".into(), Value::String("p".into()));
        }
        self.events.push(ev);
    }

    /// Drain into a complete Chrome trace document.
    pub fn build(&mut self) -> Value {
        let mut root = Map::new();
        root.insert(
            "traceEvents".into(),
            Value::Array(std::mem::take(&mut self.events)),
        );
        root.insert("displayTimeUnit".into(), Value::String("ms".into()));
        Value::Object(root)
    }
}

/// Flatten a metrics export into `scope/name -> value` counters.
fn flatten_counters(metrics: &Value) -> BTreeMap<String, u64> {
    let mut flat = BTreeMap::new();
    let Some(Value::Object(scopes)) = metrics.get("scopes") else {
        return flat;
    };
    for (scope, block) in scopes.iter() {
        if let Some(Value::Object(counters)) = block.get("counters") {
            for (name, v) in counters.iter() {
                if let Some(n) = v.as_u64() {
                    flat.insert(format!("{scope}/{name}"), n);
                }
            }
        }
    }
    flat
}

/// The rotating writer. One instance per daemon.
#[derive(Debug)]
pub struct MetricsStream {
    cfg: StreamCfg,
    seq: u64,
    metrics_files: VecDeque<PathBuf>,
    trace_files: VecDeque<PathBuf>,
    telemetry_files: VecDeque<PathBuf>,
    prev: BTreeMap<String, u64>,
    metrics_schema: Value,
    chrome_schema: Value,
    telemetry_schema: Value,
    /// Snapshots validated and written over the stream's lifetime.
    pub written: u64,
}

/// Write `text` under `path` atomically: flush to `<path>.tmp`, then
/// rename. An interrupted flush leaves at worst a stale temp file the
/// next flush overwrites — never a truncated final generation.
fn write_atomic(path: &Path, text: &str) -> Result<(), String> {
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, text).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| format!("rename {} -> {}: {e}", tmp.display(), path.display()))
}

impl MetricsStream {
    /// Open (and create) the stream directory and load both schemas.
    pub fn new(cfg: StreamCfg) -> Result<Self, String> {
        assert!(cfg.keep > 0, "must retain at least one generation");
        std::fs::create_dir_all(&cfg.dir)
            .map_err(|e| format!("create {}: {e}", cfg.dir.display()))?;
        Ok(MetricsStream {
            cfg,
            seq: 0,
            metrics_files: VecDeque::new(),
            trace_files: VecDeque::new(),
            telemetry_files: VecDeque::new(),
            prev: BTreeMap::new(),
            metrics_schema: load_metrics_schema()?,
            chrome_schema: load_chrome_trace_schema()?,
            telemetry_schema: load_telemetry_schema()?,
            written: 0,
        })
    }

    /// Validate and write one generation: the full metrics snapshot, the
    /// accumulated trace (the builder is drained; the counter-delta event
    /// is appended to it first), and — when given — the current telemetry
    /// report. Rotates every stream to `keep` generations. Returns the
    /// sequence number written.
    pub fn snapshot(
        &mut self,
        at: SimTime,
        metrics: &Value,
        trace: &mut TraceBuilder,
        telemetry: Option<&Value>,
    ) -> Result<u64, String> {
        validate(metrics, &self.metrics_schema)
            .map_err(|e| format!("metrics snapshot invalid: {}", e.join("; ")))?;
        if let Some(t) = telemetry {
            validate(t, &self.telemetry_schema)
                .map_err(|e| format!("telemetry snapshot invalid: {}", e.join("; ")))?;
        }

        // Delta event: only the counters that moved since last snapshot.
        let flat = flatten_counters(metrics);
        let moved: Vec<(String, u64)> = flat
            .iter()
            .filter(|(k, v)| self.prev.get(*k) != Some(v))
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        if !moved.is_empty() {
            // Args are built inline (TraceBuilder::counter takes &'static
            // names; delta keys are dynamic).
            let mut a = Map::new();
            for (k, v) in &moved {
                a.insert(k.clone(), Value::U64(*v));
            }
            let mut ev = event("counter-deltas", "metrics", "C", us(at), 1, &[]);
            if let Value::Object(m) = &mut ev {
                m.insert("args".into(), Value::Object(a));
            }
            trace.events.push(ev);
        }
        self.prev = flat;

        let doc = trace.build();
        validate(&doc, &self.chrome_schema)
            .map_err(|e| format!("chrome trace invalid: {}", e.join("; ")))?;

        let seq = self.seq;
        let mpath = self.cfg.dir.join(format!("metrics-{seq:06}.json"));
        let tpath = self.cfg.dir.join(format!("trace-{seq:06}.json"));
        let mtxt = serde_json::to_string_pretty(metrics).map_err(|e| e.to_string())?;
        let ttxt = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
        write_atomic(&mpath, &mtxt)?;
        write_atomic(&tpath, &ttxt)?;
        self.metrics_files.push_back(mpath);
        self.trace_files.push_back(tpath);
        if let Some(t) = telemetry {
            let ypath = self.cfg.dir.join(format!("telemetry-{seq:06}.json"));
            let ytxt = serde_json::to_string_pretty(t).map_err(|e| e.to_string())?;
            write_atomic(&ypath, &ytxt)?;
            self.telemetry_files.push_back(ypath);
        }
        for files in [
            &mut self.metrics_files,
            &mut self.trace_files,
            &mut self.telemetry_files,
        ] {
            while files.len() > self.cfg.keep {
                let old = files.pop_front().expect("non-empty");
                let _ = std::fs::remove_file(old);
            }
        }
        self.seq += 1;
        self.written += 1;
        Ok(seq)
    }

    /// Paths currently on disk (oldest first), metrics then trace.
    pub fn live_files(&self) -> (Vec<PathBuf>, Vec<PathBuf>) {
        (
            self.metrics_files.iter().cloned().collect(),
            self.trace_files.iter().cloned().collect(),
        )
    }

    /// Telemetry generations currently on disk (oldest first; empty when
    /// the daemon never passed a report).
    pub fn live_telemetry_files(&self) -> Vec<PathBuf> {
        self.telemetry_files.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcp_sim::metrics::MetricsRegistry;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("adcpd-stream-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn registry_json(bump: u64) -> Value {
        let mut m = MetricsRegistry::new_enabled();
        m.scope("tx");
        m.to_json_with(&[("tx", "packets", bump)], &[])
    }

    #[test]
    fn snapshots_rotate_and_stay_schema_valid() {
        let dir = tmpdir("rotate");
        let mut st = MetricsStream::new(StreamCfg {
            dir: dir.clone(),
            keep: 3,
        })
        .unwrap();
        let mut tb = TraceBuilder::new();
        for i in 0..7u64 {
            tb.slice(
                "slice",
                SimTime(i * 1_000_000),
                SimTime((i + 1) * 1_000_000),
                &[("delivered", i * 10)],
            );
            st.snapshot(
                SimTime((i + 1) * 1_000_000),
                &registry_json(i * 10),
                &mut tb,
                None,
            )
            .unwrap();
        }
        let (m, t) = st.live_files();
        assert_eq!(m.len(), 3);
        assert_eq!(t.len(), 3);
        assert_eq!(st.written, 7);
        // Oldest generations are gone; newest exist and re-validate.
        assert!(!dir.join("metrics-000000.json").exists());
        let schema = load_metrics_schema().unwrap();
        for p in &m {
            let v = serde_json::from_str(&std::fs::read_to_string(p).unwrap()).unwrap();
            validate(&v, &schema).unwrap();
        }
        let chrome = load_chrome_trace_schema().unwrap();
        for p in &t {
            let v = serde_json::from_str(&std::fs::read_to_string(p).unwrap()).unwrap();
            validate(&v, &chrome).unwrap();
            assert!(v.get("traceEvents").is_some());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A minimal telemetry report: one postcard through one collector.
    fn telemetry_json(pkt: u64, depth: u32) -> Value {
        use adcp_sim::int::{IntStack, IntStamp, Postcard};
        use adcp_sim::telemetry::Collector;
        use adcp_sim::trace::{HopCtx, Site};
        let mut stack = IntStack::default();
        stack.push(IntStamp {
            device: 0,
            site: Site::Tm1,
            enter: SimTime(1_000),
            exit: SimTime(1_100),
            ctx: HopCtx {
                queue_depth: Some(depth),
                buffer_cells: None,
                epoch: None,
            },
        });
        let mut c = Collector::default();
        c.ingest(&Postcard {
            device: 0,
            pkt,
            flow: 1,
            port: 0,
            time: SimTime(2_000),
            stack,
        });
        c.report()
    }

    /// Rotation must bound the *whole directory*, telemetry generations
    /// included, and every retained generation must re-validate against
    /// its schema across the rotation boundary.
    #[test]
    fn telemetry_generations_rotate_and_bound_the_directory() {
        let dir = tmpdir("telemetry");
        let mut st = MetricsStream::new(StreamCfg {
            dir: dir.clone(),
            keep: 2,
        })
        .unwrap();
        let mut tb = TraceBuilder::new();
        for i in 0..5u64 {
            st.snapshot(
                SimTime((i + 1) * 1_000),
                &registry_json(i),
                &mut tb,
                Some(&telemetry_json(i, i as u32 + 1)),
            )
            .unwrap();
        }
        let y = st.live_telemetry_files();
        assert_eq!(y.len(), 2);
        assert!(!dir.join("telemetry-000000.json").exists());
        let schema = load_telemetry_schema().unwrap();
        for p in &y {
            let v = serde_json::from_str(&std::fs::read_to_string(p).unwrap()).unwrap();
            validate(&v, &schema).unwrap();
        }
        // Disk use is bounded: keep generations × 3 streams, nothing else
        // (no temp residue, no unrotated strays).
        let entries = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(entries, 2 * 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A flush interrupted mid-write (simulated by stale truncated `.tmp`
    /// residue from a dead process) must not corrupt the stream: the next
    /// snapshot overwrites the residue and every final-name file on disk
    /// parses and validates.
    #[test]
    fn interrupted_flush_leaves_only_well_formed_generations() {
        let dir = tmpdir("interrupt");
        let mut st = MetricsStream::new(StreamCfg {
            dir: dir.clone(),
            keep: 4,
        })
        .unwrap();
        // Residue as a crashed writer would leave it: truncated JSON under
        // the temp names of the very next generation.
        for stem in ["metrics-000000", "trace-000000", "telemetry-000000"] {
            std::fs::write(dir.join(format!("{stem}.json.tmp")), "{\"trunc").unwrap();
        }
        let mut tb = TraceBuilder::new();
        tb.slice("s", SimTime(0), SimTime(1_000), &[("delivered", 1)]);
        st.snapshot(
            SimTime(1_000),
            &registry_json(1),
            &mut tb,
            Some(&telemetry_json(0, 3)),
        )
        .unwrap();
        let mschema = load_metrics_schema().unwrap();
        let cschema = load_chrome_trace_schema().unwrap();
        let yschema = load_telemetry_schema().unwrap();
        let mut finals = 0;
        for e in std::fs::read_dir(&dir).unwrap() {
            let p = e.unwrap().path();
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            assert!(!name.ends_with(".tmp"), "stale temp survived: {name}");
            let v: Value = serde_json::from_str(&std::fs::read_to_string(&p).unwrap())
                .unwrap_or_else(|e| panic!("{name} is not valid JSON: {e:?}"));
            let schema = if name.starts_with("metrics-") {
                &mschema
            } else if name.starts_with("trace-") {
                &cschema
            } else {
                &yschema
            };
            validate(&v, schema).unwrap_or_else(|e| panic!("{name}: {e:?}"));
            finals += 1;
        }
        assert_eq!(finals, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn counter_deltas_only_report_movement() {
        let dir = tmpdir("delta");
        let mut st = MetricsStream::new(StreamCfg {
            dir: dir.clone(),
            keep: 2,
        })
        .unwrap();
        let mut tb = TraceBuilder::new();
        st.snapshot(SimTime(1), &registry_json(5), &mut tb, None)
            .unwrap();
        // Unchanged snapshot: no delta event in the next trace file.
        st.snapshot(SimTime(2), &registry_json(5), &mut tb, None)
            .unwrap();
        let (_, traces) = st.live_files();
        let last = std::fs::read_to_string(traces.last().unwrap()).unwrap();
        let v = serde_json::from_str(&last).unwrap();
        assert_eq!(v.get("traceEvents").unwrap().as_array().unwrap().len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
