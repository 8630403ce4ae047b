//! The INT collector: turn datapath postcards into operator-facing
//! telemetry.
//!
//! Switches stamp per-hop INT records into transiting packets (see
//! [`crate::int`]) and emit a [`Postcard`] at every TX for sampled
//! packets. Because the stamp stack rides packet metadata across fabric
//! links, a packet crossing leaf→spine→leaf produces three postcards whose
//! stacks are *prefixes of each other* — the final host-delivery postcard
//! carries the whole end-to-end chain. The collector exploits exactly that
//! structure:
//!
//! * **dedup by suffix** — per packet it only processes stamps beyond the
//!   longest stack seen so far, so drain order (leaves before spines, or
//!   any other) never double-counts a hop;
//! * **per-flow paths** — the final (longest) stack per packet yields the
//!   path digest and hop chain; folding packets per flow in delivery order
//!   detects **path changes** (digest flips) with the before/after chains;
//! * **per-queue series** — every TM-residency stamp contributes its queue
//!   depth to a per-`(device, site)` series; an EWMA baseline flags
//!   **microbursts** (depth ≥ `BURST_FACTOR`× the baseline and above an
//!   absolute floor);
//! * **drop hotspots** — exact per-`(site, reason)` drop totals ingested
//!   from each device's trace block, ranked.
//!
//! [`Collector::report`] emits one JSON document validated against
//! `schemas/telemetry.schema.json` before anyone writes it;
//! [`Collector::chrome_overlay_events`] emits the same anomalies as
//! Chrome-trace instants (pid = device) to overlay on a fabric trace.

use serde::{Map, Value};
use std::collections::BTreeMap;

use crate::int::Postcard;
use crate::time::SimTime;

/// EWMA smoothing factor for the per-queue depth baseline.
pub const EWMA_ALPHA: f64 = 0.3;
/// A sample is a microburst when `depth >= BURST_FACTOR * ewma` and it
/// clears [`MIN_BURST_DEPTH`]. Deliberately conservative: an idle queue's
/// first packet (EWMA 0) is never an anomaly.
pub const BURST_FACTOR: f64 = 4.0;
/// The absolute depth floor of a microburst.
pub const MIN_BURST_DEPTH: u32 = 8;
/// Cap on retained events per category (excess is counted, not kept).
const MAX_EVENTS: usize = 4096;
/// Cap on per-flow summaries in the report (largest flows win).
const MAX_FLOW_SUMMARIES: usize = 64;

/// One microburst: a queue-depth sample far above its EWMA baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Microburst {
    /// Stamping device.
    pub device: u16,
    /// Site within the device (e.g. `"tm1"`).
    pub site: String,
    /// When the packet entered the queue.
    pub time: SimTime,
    /// The packet that observed the burst.
    pub pkt: u64,
    /// Observed depth.
    pub depth: u32,
    /// Baseline at the moment of observation.
    pub ewma: f64,
}

/// One path change: a flow whose packets started taking a different route.
#[derive(Debug, Clone, PartialEq)]
pub struct PathChange {
    /// The flow that moved.
    pub flow: u64,
    /// The device that delivered the first packet on the new path.
    pub device: u16,
    /// First packet seen on the new path.
    pub pkt: u64,
    /// Delivery time of that packet.
    pub time: SimTime,
    /// Digest of the old route.
    pub old_digest: u64,
    /// Digest of the new route.
    pub new_digest: u64,
    /// The new hop chain, as `"dev/site"` strings.
    pub path: Vec<String>,
}

/// Exact drop total at one `(device, site, reason)`.
#[derive(Debug, Clone, PartialEq)]
pub struct DropHotspot {
    /// Device the drops happened on.
    pub device: u16,
    /// Death site.
    pub site: String,
    /// Typed reason label.
    pub reason: String,
    /// Exact count (from the tracer's always-on drop aggregation).
    pub count: u64,
}

/// Per-packet record: the longest stack seen so far and what it implies.
struct PktRecord {
    flow: u64,
    stamps_seen: usize,
    truncated: u16,
    digest: u64,
    path: Vec<String>,
    max_queue_depth: u32,
    final_time: SimTime,
    last_device: u16,
}

/// Per-`(device, site)` queue-depth series (kept sorted at report time).
#[derive(Default)]
struct QueueSeries {
    /// `(enter, pkt, depth)` samples.
    samples: Vec<(SimTime, u64, u32)>,
}

/// Per-flow aggregate built at report time from delivered packets.
struct FlowAgg {
    packets: u64,
    hop_count: usize,
    max_queue_depth: u32,
    digest: u64,
    path: Vec<String>,
}

/// The collector. Feed it postcards (and optionally trace blocks for drop
/// hotspots), then ask for [`report`](Collector::report) /
/// [`chrome_overlay_events`](Collector::chrome_overlay_events).
#[derive(Default)]
pub struct Collector {
    names: BTreeMap<u16, String>,
    pkts: BTreeMap<u64, PktRecord>,
    queues: BTreeMap<(u16, String), QueueSeries>,
    drops: BTreeMap<(u16, String, String), u64>,
    postcards: u64,
    stamps: u64,
}

impl Collector {
    /// Register a display name for a device (e.g. `"leaf0"`, `"spine1"`).
    /// Unnamed devices render as `"dev<N>"`.
    pub fn set_device_name(&mut self, device: u16, name: impl Into<String>) {
        self.names.insert(device, name.into());
    }

    fn device_name(&self, device: u16) -> String {
        self.names
            .get(&device)
            .cloned()
            .unwrap_or_else(|| format!("dev{device}"))
    }

    /// Ingest one postcard. Stamps already seen for this packet (a shorter
    /// prefix stack from an upstream device's TX) are skipped, so every
    /// hop is counted exactly once regardless of drain order.
    pub fn ingest(&mut self, pc: &Postcard) {
        self.postcards += 1;
        let rec = self.pkts.entry(pc.pkt).or_insert_with(|| PktRecord {
            flow: pc.flow,
            stamps_seen: 0,
            truncated: 0,
            digest: 0,
            path: Vec::new(),
            max_queue_depth: 0,
            final_time: SimTime(0),
            last_device: pc.device,
        });
        let stamps = &pc.stack.stamps;
        if stamps.len() > rec.stamps_seen {
            for s in &stamps[rec.stamps_seen..] {
                self.stamps += 1;
                rec.path.push(format!(
                    "{}/{}",
                    self.names
                        .get(&s.device)
                        .cloned()
                        .unwrap_or_else(|| format!("dev{}", s.device)),
                    s.site
                ));
                if let Some(d) = s.ctx.queue_depth {
                    rec.max_queue_depth = rec.max_queue_depth.max(d);
                    self.queues
                        .entry((s.device, s.site.to_string()))
                        .or_default()
                        .samples
                        .push((s.enter, pc.pkt, d));
                }
            }
            rec.stamps_seen = stamps.len();
            rec.digest = pc.stack.path_digest();
            rec.truncated = rec.truncated.max(pc.stack.truncated);
        }
        if pc.time > rec.final_time {
            rec.final_time = pc.time;
            rec.last_device = pc.device;
        }
    }

    /// Ingest the drop side of one device's `trace_json()` block: the
    /// exact per-`(site, reason)` totals (complete at any sampling rate).
    pub fn ingest_drops(&mut self, device: u16, trace: &Value) {
        let empty = Vec::new();
        let counts = trace
            .get("drop_counts")
            .and_then(Value::as_array)
            .unwrap_or(&empty);
        for c in counts {
            let site = c.get("site").and_then(Value::as_str).unwrap_or("?");
            let reason = c.get("reason").and_then(Value::as_str).unwrap_or("?");
            let n = c.get("count").and_then(Value::as_u64).unwrap_or(0);
            *self
                .drops
                .entry((device, site.to_string(), reason.to_string()))
                .or_insert(0) += n;
        }
    }

    /// `(stamps, postcards, truncated)` ingested so far, deduplicated —
    /// the numbers the honesty conformance compares against the datapath's
    /// `int/*` counters.
    pub fn totals(&self) -> (u64, u64, u64) {
        let truncated: u64 = self.pkts.values().map(|r| r.truncated as u64).sum();
        (self.stamps, self.postcards, truncated)
    }

    /// Distinct packets with at least one ingested postcard.
    pub fn pkts(&self) -> usize {
        self.pkts.len()
    }

    /// Detect microbursts: per `(device, site)` series in time order, flag
    /// samples ≥ [`BURST_FACTOR`]× the running EWMA (and above the floor).
    pub fn microbursts(&self) -> (Vec<Microburst>, u64) {
        let mut out = Vec::new();
        let mut suppressed = 0u64;
        for ((device, site), series) in &self.queues {
            let mut samples = series.samples.clone();
            samples.sort_by_key(|&(t, pkt, _)| (t, pkt));
            let mut ewma: Option<f64> = None;
            for (t, pkt, depth) in samples {
                if let Some(base) = ewma {
                    if depth >= MIN_BURST_DEPTH && (depth as f64) >= BURST_FACTOR * base {
                        if out.len() < MAX_EVENTS {
                            out.push(Microburst {
                                device: *device,
                                site: site.clone(),
                                time: t,
                                pkt,
                                depth,
                                ewma: base,
                            });
                        } else {
                            suppressed += 1;
                        }
                    }
                }
                let a = EWMA_ALPHA;
                ewma = Some(match ewma {
                    None => depth as f64,
                    Some(base) => a * depth as f64 + (1.0 - a) * base,
                });
            }
        }
        out.sort_by_key(|m| (m.time, m.device, m.pkt));
        (out, suppressed)
    }

    /// Detect path changes: fold each flow's packets in delivery order and
    /// flag digest flips.
    pub fn path_changes(&self) -> (Vec<PathChange>, u64) {
        let mut by_time: Vec<(&u64, &PktRecord)> = self.pkts.iter().collect();
        by_time.sort_by_key(|(pkt, r)| (r.final_time, **pkt));
        let mut last: BTreeMap<u64, u64> = BTreeMap::new();
        let mut out = Vec::new();
        let mut suppressed = 0u64;
        for (pkt, r) in by_time {
            match last.insert(r.flow, r.digest) {
                Some(prev) if prev != r.digest => {
                    if out.len() < MAX_EVENTS {
                        out.push(PathChange {
                            flow: r.flow,
                            device: r.last_device,
                            pkt: *pkt,
                            time: r.final_time,
                            old_digest: prev,
                            new_digest: r.digest,
                            path: r.path.clone(),
                        });
                    } else {
                        suppressed += 1;
                    }
                }
                _ => {}
            }
        }
        (out, suppressed)
    }

    /// Drop hotspots, largest first.
    pub fn drop_hotspots(&self) -> Vec<DropHotspot> {
        let mut out: Vec<DropHotspot> = self
            .drops
            .iter()
            .filter(|(_, &n)| n > 0)
            .map(|((device, site, reason), &count)| DropHotspot {
                device: *device,
                site: site.clone(),
                reason: reason.clone(),
                count,
            })
            .collect();
        out.sort_by(|a, b| {
            b.count
                .cmp(&a.count)
                .then_with(|| (a.device, &a.site, &a.reason).cmp(&(b.device, &b.site, &b.reason)))
        });
        out
    }

    fn flow_aggs(&self) -> BTreeMap<u64, FlowAgg> {
        let mut by_time: Vec<&PktRecord> = self.pkts.values().collect();
        by_time.sort_by_key(|r| (r.final_time, r.flow));
        let mut flows: BTreeMap<u64, FlowAgg> = BTreeMap::new();
        for r in by_time {
            let agg = flows.entry(r.flow).or_insert_with(|| FlowAgg {
                packets: 0,
                hop_count: 0,
                max_queue_depth: 0,
                digest: 0,
                path: Vec::new(),
            });
            agg.packets += 1;
            agg.hop_count = r.stamps_seen;
            agg.max_queue_depth = agg.max_queue_depth.max(r.max_queue_depth);
            agg.digest = r.digest;
            agg.path = r.path.clone();
        }
        flows
    }

    /// The telemetry report, shaped to `schemas/telemetry.schema.json`.
    pub fn report(&self) -> Value {
        let (stamps, postcards, truncated) = self.totals();
        let (bursts, bursts_suppressed) = self.microbursts();
        let (changes, changes_suppressed) = self.path_changes();
        let flows = self.flow_aggs();

        let mut root = Map::new();
        root.insert("version".into(), Value::U64(1));
        root.insert("postcards".into(), Value::U64(postcards));
        root.insert("stamps".into(), Value::U64(stamps));
        root.insert("truncated".into(), Value::U64(truncated));
        root.insert("pkts".into(), Value::U64(self.pkts.len() as u64));
        root.insert("flows".into(), Value::U64(flows.len() as u64));

        let mut queues = Vec::new();
        for ((device, site), series) in &self.queues {
            let n = series.samples.len() as u64;
            let max = series.samples.iter().map(|&(_, _, d)| d).max().unwrap_or(0);
            let sum: u64 = series.samples.iter().map(|&(_, _, d)| d as u64).sum();
            let mut q = Map::new();
            q.insert("device".into(), Value::U64(*device as u64));
            q.insert("name".into(), Value::String(self.device_name(*device)));
            q.insert("site".into(), Value::String(site.clone()));
            q.insert("samples".into(), Value::U64(n));
            q.insert("max_depth".into(), Value::U64(max as u64));
            q.insert(
                "mean_depth".into(),
                Value::F64(if n == 0 { 0.0 } else { sum as f64 / n as f64 }),
            );
            queues.push(Value::Object(q));
        }
        root.insert("queues".into(), Value::Array(queues));

        let mut mb = Vec::new();
        for b in &bursts {
            let mut o = Map::new();
            o.insert("device".into(), Value::U64(b.device as u64));
            o.insert("name".into(), Value::String(self.device_name(b.device)));
            o.insert("site".into(), Value::String(b.site.clone()));
            o.insert("time_ps".into(), Value::U64(b.time.0));
            o.insert("pkt".into(), Value::U64(b.pkt));
            o.insert("depth".into(), Value::U64(b.depth as u64));
            o.insert("ewma".into(), Value::F64(b.ewma));
            mb.push(Value::Object(o));
        }
        root.insert("microbursts".into(), Value::Array(mb));
        root.insert(
            "microbursts_suppressed".into(),
            Value::U64(bursts_suppressed),
        );

        let mut pc = Vec::new();
        for c in &changes {
            let mut o = Map::new();
            o.insert("flow".into(), Value::U64(c.flow));
            o.insert("pkt".into(), Value::U64(c.pkt));
            o.insert("time_ps".into(), Value::U64(c.time.0));
            o.insert("old_digest".into(), Value::U64(c.old_digest));
            o.insert("new_digest".into(), Value::U64(c.new_digest));
            o.insert(
                "path".into(),
                Value::Array(c.path.iter().map(|s| Value::String(s.clone())).collect()),
            );
            pc.push(Value::Object(o));
        }
        root.insert("path_changes".into(), Value::Array(pc));
        root.insert(
            "path_changes_suppressed".into(),
            Value::U64(changes_suppressed),
        );

        let mut hs = Vec::new();
        for h in self.drop_hotspots() {
            let mut o = Map::new();
            o.insert("device".into(), Value::U64(h.device as u64));
            o.insert("name".into(), Value::String(self.device_name(h.device)));
            o.insert("site".into(), Value::String(h.site.clone()));
            o.insert("reason".into(), Value::String(h.reason.clone()));
            o.insert("count".into(), Value::U64(h.count));
            hs.push(Value::Object(o));
        }
        root.insert("drop_hotspots".into(), Value::Array(hs));

        let mut rows: Vec<(u64, FlowAgg)> = flows.into_iter().collect();
        rows.sort_by(|a, b| b.1.packets.cmp(&a.1.packets).then_with(|| a.0.cmp(&b.0)));
        rows.truncate(MAX_FLOW_SUMMARIES);
        let mut fs = Vec::new();
        for (flow, agg) in rows {
            let mut o = Map::new();
            o.insert("flow".into(), Value::U64(flow));
            o.insert("packets".into(), Value::U64(agg.packets));
            o.insert("hop_count".into(), Value::U64(agg.hop_count as u64));
            o.insert(
                "max_queue_depth".into(),
                Value::U64(agg.max_queue_depth as u64),
            );
            o.insert("path_digest".into(), Value::U64(agg.digest));
            o.insert(
                "path".into(),
                Value::Array(agg.path.iter().map(|s| Value::String(s.clone())).collect()),
            );
            fs.push(Value::Object(o));
        }
        root.insert("flow_summaries".into(), Value::Array(fs));

        Value::Object(root)
    }

    /// The detected anomalies as Chrome-trace instants (pid = device, one
    /// `telemetry` track per device) for overlaying on a fabric trace.
    pub fn chrome_overlay_events(&self, tid: u64) -> Vec<Value> {
        const PS_PER_US: f64 = 1e6;
        let mut events = Vec::new();
        let (bursts, _) = self.microbursts();
        for b in &bursts {
            let mut o = Map::new();
            o.insert(
                "name".into(),
                Value::String(format!("microburst: {} depth {}", b.site, b.depth)),
            );
            o.insert("cat".into(), Value::String("telemetry".into()));
            o.insert("ph".into(), Value::String("i".into()));
            o.insert("ts".into(), Value::F64(b.time.0 as f64 / PS_PER_US));
            o.insert("pid".into(), Value::U64(b.device as u64));
            o.insert("tid".into(), Value::U64(tid));
            o.insert("s".into(), Value::String("p".into()));
            let mut args = Map::new();
            args.insert("pkt".into(), Value::U64(b.pkt));
            args.insert("depth".into(), Value::U64(b.depth as u64));
            args.insert("ewma".into(), Value::F64(b.ewma));
            o.insert("args".into(), Value::Object(args));
            events.push(Value::Object(o));
        }
        let (changes, _) = self.path_changes();
        for c in &changes {
            let mut o = Map::new();
            o.insert(
                "name".into(),
                Value::String(format!("path change: flow {}", c.flow)),
            );
            o.insert("cat".into(), Value::String("telemetry".into()));
            o.insert("ph".into(), Value::String("i".into()));
            o.insert("ts".into(), Value::F64(c.time.0 as f64 / PS_PER_US));
            o.insert("pid".into(), Value::U64(c.device as u64));
            o.insert("tid".into(), Value::U64(tid));
            o.insert("s".into(), Value::String("g".into()));
            let mut args = Map::new();
            args.insert("flow".into(), Value::U64(c.flow));
            args.insert("pkt".into(), Value::U64(c.pkt));
            o.insert("args".into(), Value::Object(args));
            events.push(Value::Object(o));
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::int::{IntStack, IntStamp};
    use crate::trace::{HopCtx, Site};
    use crate::PortId;

    fn stamp(device: u16, site: Site, enter: u64, depth: Option<u32>) -> IntStamp {
        IntStamp {
            device,
            site,
            enter: SimTime(enter),
            exit: SimTime(enter + 100),
            ctx: HopCtx {
                queue_depth: depth,
                buffer_cells: None,
                epoch: None,
            },
        }
    }

    fn postcard(device: u16, pkt: u64, flow: u64, time: u64, stamps: Vec<IntStamp>) -> Postcard {
        let mut stack = IntStack::default();
        for s in stamps {
            stack.push(s);
        }
        Postcard {
            device,
            pkt,
            flow,
            port: 0,
            time: SimTime(time),
            stack,
        }
    }

    /// Two postcards for one packet — the spine's stack extends the
    /// leaf's — must count each hop once, whatever the drain order.
    #[test]
    fn prefix_stacks_dedupe_in_any_order() {
        let leaf_stamps = vec![
            stamp(0, Site::Rx(PortId(0)), 0, None),
            stamp(0, Site::Tm1, 200, Some(3)),
        ];
        let mut spine_stamps = leaf_stamps.clone();
        spine_stamps.push(stamp(4, Site::Tm1, 900, Some(5)));
        for order in [[0usize, 1], [1, 0]] {
            let cards = [
                postcard(0, 7, 42, 500, leaf_stamps.clone()),
                postcard(4, 7, 42, 1_200, spine_stamps.clone()),
            ];
            let mut c = Collector::default();
            for &i in &order {
                c.ingest(&cards[i]);
            }
            let (stamps, postcards, truncated) = c.totals();
            assert_eq!((stamps, postcards, truncated), (3, 2, 0), "order {order:?}");
            assert_eq!(c.pkts(), 1);
            let report = c.report();
            let q = report.get("queues").and_then(Value::as_array).unwrap();
            assert_eq!(q.len(), 2, "tm1 on device 0 and device 4");
        }
    }

    #[test]
    fn microburst_needs_a_baseline_and_a_floor() {
        let mut c = Collector::default();
        // A steady series of depth 2 then one spike to 20: one burst.
        for (i, depth) in [2u32, 2, 2, 2, 20, 2].iter().enumerate() {
            c.ingest(&postcard(
                0,
                i as u64,
                1,
                1_000 * (i as u64 + 1),
                vec![stamp(0, Site::Tm1, 1_000 * (i as u64 + 1), Some(*depth))],
            ));
        }
        let (bursts, suppressed) = c.microbursts();
        assert_eq!(suppressed, 0);
        assert_eq!(bursts.len(), 1, "{bursts:?}");
        assert_eq!(bursts[0].depth, 20);
        assert!(bursts[0].ewma < 3.0);
        // The first sample of an idle queue is never a burst, however deep.
        let mut c = Collector::default();
        c.ingest(&postcard(
            0,
            0,
            1,
            1_000,
            vec![stamp(0, Site::Tm1, 1_000, Some(100))],
        ));
        assert!(c.microbursts().0.is_empty());
    }

    #[test]
    fn path_change_fires_on_digest_flip_only() {
        let mut c = Collector::default();
        c.set_device_name(0, "leaf0");
        c.set_device_name(4, "spine0");
        c.set_device_name(5, "spine1");
        let via = |spine: u16, pkt: u64, t: u64| {
            postcard(
                1,
                pkt,
                9,
                t,
                vec![
                    stamp(0, Site::Rx(PortId(0)), t - 900, None),
                    stamp(spine, Site::Tm1, t - 500, None),
                    stamp(1, Site::Tx(PortId(1)), t - 100, None),
                ],
            )
        };
        c.ingest(&via(4, 1, 1_000));
        c.ingest(&via(4, 2, 2_000));
        c.ingest(&via(5, 3, 3_000)); // flow moves to the other spine
        c.ingest(&via(5, 4, 4_000));
        let (changes, _) = c.path_changes();
        assert_eq!(changes.len(), 1, "{changes:?}");
        assert_eq!(changes[0].flow, 9);
        assert_eq!(changes[0].pkt, 3);
        assert_ne!(changes[0].old_digest, changes[0].new_digest);
        assert!(changes[0].path.iter().any(|h| h == "spine1/tm1"));
    }

    #[test]
    fn report_validates_against_the_checked_in_schema() {
        let mut c = Collector::default();
        c.set_device_name(0, "leaf0");
        c.ingest(&postcard(
            0,
            1,
            5,
            2_000,
            vec![
                stamp(0, Site::Rx(PortId(0)), 0, None),
                stamp(0, Site::Tm1, 500, Some(4)),
                stamp(0, Site::Tx(PortId(2)), 1_500, None),
            ],
        ));
        let trace: Value = serde_json::from_str(
            r#"{"enabled": true, "drop_counts": [
                {"site": "tm1", "reason": "queue_tail", "tm": 1, "queue": 0, "count": 3}
            ]}"#,
        )
        .unwrap();
        c.ingest_drops(0, &trace);
        let report = c.report();
        let schema = crate::schema::load_telemetry_schema().unwrap();
        crate::schema::validate(&report, &schema).expect("telemetry report conforms");
        let hs = report
            .get("drop_hotspots")
            .and_then(Value::as_array)
            .unwrap();
        assert_eq!(hs.len(), 1);
        assert_eq!(hs[0].get("count").and_then(Value::as_u64), Some(3));
        let fs = report
            .get("flow_summaries")
            .and_then(Value::as_array)
            .unwrap();
        assert_eq!(fs[0].get("hop_count").and_then(Value::as_u64), Some(3));
    }

    #[test]
    fn chrome_overlay_events_fit_the_trace_schema() {
        let mut c = Collector::default();
        for (i, depth) in [1u32, 1, 1, 16].iter().enumerate() {
            c.ingest(&postcard(
                2,
                i as u64,
                1,
                1_000 * (i as u64 + 1),
                vec![stamp(2, Site::Tm2, 1_000 * (i as u64 + 1), Some(*depth))],
            ));
        }
        let events = c.chrome_overlay_events(900);
        assert!(!events.is_empty());
        let mut root = Map::new();
        root.insert("traceEvents".into(), Value::Array(events));
        root.insert("displayTimeUnit".into(), Value::String("ns".into()));
        let schema = crate::schema::load_chrome_trace_schema().unwrap();
        crate::schema::validate(&Value::Object(root), &schema).expect("overlay conforms");
    }
}
