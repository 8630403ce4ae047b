//! Timing from outside: every call into a crate is bracketed by an
//! `Instant` pair taken here, in the benchmark's own code.
//!
//! Every repetition accumulates the phase totals the end-to-end metrics
//! are made of. A traced repetition additionally keeps one [`Span`] per
//! call, with its parent, in memory; self time (span − children) per name
//! gives the per-layer shares, and the spans are written out at exit as a
//! Chrome trace.

use serde::Value;
use std::time::Instant;

/// What a span's time counts towards in the end-to-end arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Program build, compile, `*::new`, installs, generator construction.
    Setup,
    /// Generate + inject + run + drain + report: the throughput denominator.
    Work,
    /// Oracle checks and digests: excluded from every denominator.
    Verify,
    /// Grouping spans (repetition, chunk): counted through their children.
    Group,
}

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<crate>.<call>`.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Repetition the span belongs to.
    pub rep: u32,
    /// Chunk or slice index, −1 outside the chunk loop.
    pub chunk: i64,
}

/// Token returned by [`Recorder::enter`]; hand it back to [`Recorder::exit`].
pub struct Tok {
    phase: Phase,
    started: Instant,
    index: Option<usize>,
}

/// Phase accumulator and (when tracing) span store.
pub struct Recorder {
    origin: Instant,
    tracing: bool,
    rep: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Seconds per phase for the current repetition: setup, work, verify.
    totals: [f64; 3],
}

impl Recorder {
    /// New recorder; `tracing` keeps spans.
    pub fn new(tracing: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            tracing,
            rep: 0,
            spans: Vec::new(),
            stack: Vec::new(),
            totals: [0.0; 3],
        }
    }

    /// Are spans being kept?
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Start a repetition: clears the phase totals, turns span keeping on
    /// or off, and returns the index its spans start at.
    pub fn begin_rep(&mut self, rep: u32, tracing: bool) -> usize {
        assert!(self.stack.is_empty(), "unbalanced spans");
        self.rep = rep;
        self.tracing = tracing;
        self.totals = [0.0; 3];
        self.spans.len()
    }

    /// Open a span.
    pub fn enter(&mut self, name: &'static str, phase: Phase, chunk: i64) -> Tok {
        let started = Instant::now();
        let index = self.tracing.then(|| {
            let at = started.duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: at,
                parent: self.stack.last().copied(),
                rep: self.rep,
                chunk,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Tok {
            phase,
            started,
            index,
        }
    }

    /// Close a span; returns its duration in seconds.
    pub fn exit(&mut self, tok: Tok) -> f64 {
        let now = Instant::now();
        let secs = now.duration_since(tok.started).as_secs_f64();
        match tok.phase {
            Phase::Setup => self.totals[0] += secs,
            Phase::Work => self.totals[1] += secs,
            Phase::Verify => self.totals[2] += secs,
            Phase::Group => {}
        }
        if let Some(i) = tok.index {
            assert_eq!(self.stack.pop(), Some(i), "spans must nest");
            self.spans[i].end_ns = now.duration_since(self.origin).as_nanos() as u64;
        }
        secs
    }

    /// Seconds of (setup, work, verify) accumulated this repetition.
    pub fn totals(&self) -> (f64, f64, f64) {
        (self.totals[0], self.totals[1], self.totals[2])
    }

    /// Spans recorded from index `from` on.
    pub fn spans_from(&self, from: usize) -> &[Span] {
        &self.spans[from..]
    }

    /// Every span kept so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span name, ns: each span's duration minus the part its
/// direct children cover. `spans` must be a contiguous slice taken from one
/// recorder starting at `base` (parents are absolute indices).
pub fn self_times(spans: &[Span], base: usize) -> Vec<(&'static str, u64)> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| p.checked_sub(base)) {
            if p < own.len() {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
    }
    let mut out: Vec<(&'static str, u64)> = Vec::new();
    for (s, t) in spans.iter().zip(own) {
        match out.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, acc)) => *acc += t,
            None => out.push((s.name, t)),
        }
    }
    out
}

/// Self time (ns) of the spans called `name`, 0 if there are none.
pub fn self_ns(self_times: &[(&'static str, u64)], name: &str) -> f64 {
    self_times
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |s| s.1 as f64)
}

/// Durations (µs) of every span called `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect()
}

/// Per chunk, the summed duration (µs) of the spans called any of `names`.
pub fn chunk_walls_us(spans: &[Span], names: &[&str]) -> Vec<f64> {
    let mut walls: Vec<f64> = Vec::new();
    for s in spans
        .iter()
        .filter(|s| s.chunk >= 0 && names.contains(&s.name))
    {
        let c = s.chunk as usize;
        if walls.len() <= c {
            walls.resize(c + 1, 0.0);
        }
        walls[c] += (s.end_ns - s.start_ns) as f64 / 1e3;
    }
    walls
}

/// The spans as a Chrome trace-event document (`ph:X`, times in µs).
pub fn chrome_trace(spans: &[Span]) -> Value {
    let events = spans
        .iter()
        .map(|s| {
            let mut args = serde::Map::new();
            args.insert(
                "parent".into(),
                Value::I64(s.parent.map_or(-1, |p| p as i64)),
            );
            args.insert("rep".into(), Value::U64(s.rep as u64));
            args.insert("chunk".into(), Value::I64(s.chunk));
            let mut e = serde::Map::new();
            e.insert("name".into(), Value::String(s.name.into()));
            e.insert(
                "cat".into(),
                Value::String(s.name.split('.').next().unwrap_or("bench").into()),
            );
            e.insert("ph".into(), Value::String("X".into()));
            e.insert("ts".into(), Value::F64(s.start_ns as f64 / 1e3));
            e.insert(
                "dur".into(),
                Value::F64((s.end_ns - s.start_ns) as f64 / 1e3),
            );
            e.insert("pid".into(), Value::U64(1));
            e.insert("tid".into(), Value::U64(1));
            e.insert("args".into(), Value::Object(args));
            Value::Object(e)
        })
        .collect();
    let mut doc = serde::Map::new();
    doc.insert("traceEvents".into(), Value::Array(events));
    doc.insert("displayTimeUnit".into(), Value::String("ns".into()));
    Value::Object(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            rep: 0,
            chunk: -1,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        // rep [0,100] > chunk [10,90] > run [20,60], drain [60,80]; a second
        // run [92,98] directly under rep.
        let spans = vec![
            span("rep", 0, 100, None),
            span("chunk", 10, 90, Some(0)),
            span("run", 20, 60, Some(1)),
            span("drain", 60, 80, Some(1)),
            span("run", 92, 98, Some(0)),
        ];
        let st = self_times(&spans, 0);
        let get = |n: &str| st.iter().find(|(k, _)| *k == n).unwrap().1;
        assert_eq!(get("rep"), 100 - 80 - 6);
        assert_eq!(get("chunk"), 80 - 40 - 20);
        assert_eq!(get("run"), 40 + 6);
        assert_eq!(get("drain"), 20);
        // Self times partition the root span exactly.
        assert_eq!(st.iter().map(|(_, t)| t).sum::<u64>(), 100);
    }

    #[test]
    fn chunk_walls_sum_the_named_spans_per_chunk() {
        let mut spans = vec![
            span("inject", 0, 1_000, None),
            span("run", 1_000, 5_000, None),
            span("verify", 5_000, 9_000, None),
            span("run", 9_000, 12_000, None),
        ];
        for (s, c) in spans.iter_mut().zip([0, 0, 0, 1]) {
            s.chunk = c;
        }
        assert_eq!(chunk_walls_us(&spans, &["inject", "run"]), vec![5.0, 3.0]);
    }

    #[test]
    fn self_time_with_a_base_offset() {
        // The same tree stored after 7 earlier spans of the recorder.
        let spans = vec![span("rep", 0, 50, None), span("run", 5, 45, Some(7))];
        let st = self_times(&spans, 7);
        assert_eq!(st, vec![("rep", 10), ("run", 40)]);
    }

    #[test]
    fn recorder_accumulates_phases_and_nests() {
        let mut r = Recorder::new(true);
        let from = r.begin_rep(3, true);
        let rep = r.enter("bench.rep", Phase::Group, -1);
        let a = r.enter("core.run", Phase::Work, 0);
        r.exit(a);
        let b = r.enter("bench.verify", Phase::Verify, 0);
        r.exit(b);
        r.exit(rep);
        let spans = r.spans_from(from);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(from));
        assert_eq!(spans[1].rep, 3);
        let (setup, work, verify) = r.totals();
        assert_eq!(setup, 0.0);
        assert!(work > 0.0 && verify > 0.0);
        // Untraced repetitions keep totals but no spans.
        let from = r.begin_rep(4, false);
        let a = r.enter("core.run", Phase::Work, 0);
        r.exit(a);
        assert!(r.spans_from(from).is_empty());
        assert!(r.totals().1 > 0.0);
    }

    #[test]
    fn chrome_trace_shape() {
        let doc = chrome_trace(&[span("core.run", 1_000, 3_500, None)]);
        let ev = &doc.get("traceEvents").unwrap().as_array().unwrap()[0];
        assert_eq!(ev.get("cat").unwrap().as_str(), Some("core"));
        assert_eq!(ev.get("ts").unwrap().as_f64(), Some(1.0));
        assert_eq!(ev.get("dur").unwrap().as_f64(), Some(2.5));
        assert_eq!(
            ev.get("args").unwrap().get("parent").unwrap().as_i64(),
            Some(-1)
        );
    }
}
