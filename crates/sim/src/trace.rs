//! Causal packet-journey tracing: a sampled flight recorder.
//!
//! A [`JourneyTracer`] records, per sampled packet, the full causal chain of
//! hops through a switch — each hop a span with enter/exit [`SimTime`], the
//! pipe/queue identity ([`Site`]), and the queue depth / buffer-pool
//! occupancy / partition-map epoch observed at enqueue ([`HopCtx`]). Drops
//! carry a typed [`DropReason`] and are *always* captured (aggregated
//! exactly, and logged in detail up to [`DROP_LOG_CAP`]) regardless of the
//! sampling rate, so drop forensics stay complete at bounded overhead.
//! Control-plane actions (migration begin/commit/finalize, epoch bumps)
//! land as instant [`CtrlEvent`]s on a dedicated `ctrl` track.
//!
//! Sampling is deterministic and hash-based: with sampling rate `N`, packet
//! ids where `fnv(id) % N == 0` keep their hop spans ([`sample_hash`], a
//! fixed FNV-1a, so the kept set is stable across runs, targets, and
//! processes). `N = 1` keeps everything — the setting under which the
//! forensic drop counts are asserted byte-identical to the metrics
//! registry's drop counters.
//!
//! The tracer is enabled per switch config, or externally via the
//! `ADCP_TRACE` environment variable: unset defers to the config flag,
//! `off`/`0`/`false` force-disables, and a number `N >= 1` force-enables
//! with sampling rate `N` (mirroring `ADCP_METRICS`).

use crate::packet::PortId;
use crate::time::SimTime;
use serde::{Map, Value};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// Hard upper bound on the hop-ring capacity, enforced (and documented)
/// here and nowhere else. [`JourneyTracer::new`] preallocates the full
/// requested capacity up to this bound — the previous implementation
/// silently preallocated at most 4096 slots while claiming more, paying
/// reallocation churn on the hot path.
pub const MAX_RING_CAPACITY: usize = 1 << 20;

/// Detailed drop records kept before truncation. Aggregated per-site/reason
/// drop *counts* are exact regardless of this cap.
pub const DROP_LOG_CAP: usize = 65_536;

/// Control-plane events kept before truncation.
pub const CTRL_LOG_CAP: usize = 4_096;

/// Where in the switch an event happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Site {
    /// Received on an RX port.
    Rx(PortId),
    /// Entered an ingress pipeline.
    IngressPipe(usize),
    /// Resident in the (first) traffic manager.
    Tm1,
    /// Entered a central pipeline (ADCP only).
    CentralPipe(usize),
    /// Resident in the second traffic manager (ADCP only).
    Tm2,
    /// Entered an egress pipeline.
    EgressPipe(usize),
    /// Transmitted on a TX port.
    Tx(PortId),
    /// Sent around the recirculation path (RMT only).
    Recirculated,
    /// Dropped; the reason and death site live in the drop record.
    Dropped,
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Site::Rx(p) => write!(f, "rx({p})"),
            Site::IngressPipe(i) => write!(f, "ingress[{i}]"),
            Site::Tm1 => write!(f, "tm1"),
            Site::CentralPipe(i) => write!(f, "central[{i}]"),
            Site::Tm2 => write!(f, "tm2"),
            Site::EgressPipe(i) => write!(f, "egress[{i}]"),
            Site::Tx(p) => write!(f, "tx({p})"),
            Site::Recirculated => write!(f, "recirculate"),
            Site::Dropped => write!(f, "drop"),
        }
    }
}

/// Why a packet died. Every drop a switch counts maps to exactly one
/// variant, which is what lets the forensic aggregation be cross-checked
/// against the metrics registry's drop counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DropReason {
    /// Frame-check mismatch at the MAC — discarded before any parser,
    /// table, or register could be touched.
    FcsBad,
    /// The parser rejected the frame.
    ParseError,
    /// The shared buffer pool of traffic manager `tm` was out of cells at
    /// admission. RMT's single TM is `tm = 1`.
    BufferExhausted {
        /// Which traffic manager (1 or 2).
        tm: u8,
    },
    /// The destination queue of traffic manager `tm` was at its depth
    /// bound at admission.
    QueueTail {
        /// Which traffic manager (1 or 2).
        tm: u8,
        /// Destination queue index (central pipe for ADCP TM1, egress pipe
        /// for ADCP TM2, local port queue for RMT).
        queue: u32,
    },
    /// The program decided `Drop`.
    Filtered,
    /// No forwarding decision was made (or an empty multicast set).
    NoDecision,
    /// The forwarding decision named a port that does not exist.
    BadPort,
}

impl DropReason {
    /// Stable machine-readable label (JSON `reason` field).
    pub fn label(&self) -> &'static str {
        match self {
            DropReason::FcsBad => "fcs_bad",
            DropReason::ParseError => "parse_error",
            DropReason::BufferExhausted { .. } => "buffer_exhausted",
            DropReason::QueueTail { .. } => "queue_tail",
            DropReason::Filtered => "filtered",
            DropReason::NoDecision => "no_decision",
            DropReason::BadPort => "bad_port",
        }
    }

    /// The traffic manager involved, for TM-scoped reasons.
    pub fn tm(&self) -> Option<u8> {
        match self {
            DropReason::BufferExhausted { tm } | DropReason::QueueTail { tm, .. } => Some(*tm),
            _ => None,
        }
    }

    /// The destination queue, for queue-tail drops.
    pub fn queue(&self) -> Option<u32> {
        match self {
            DropReason::QueueTail { queue, .. } => Some(*queue),
            _ => None,
        }
    }
}

impl fmt::Display for DropReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DropReason::BufferExhausted { tm } => write!(f, "buffer_exhausted(tm{tm})"),
            DropReason::QueueTail { tm, queue } => write!(f, "queue_tail(tm{tm},q{queue})"),
            other => f.write_str(other.label()),
        }
    }
}

/// Queue/buffer/epoch context sampled where a hop (or drop) happened.
/// All fields optional: hops outside a traffic manager have none.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HopCtx {
    /// Queue depth (packets across the TM's queues) observed at enqueue.
    pub queue_depth: Option<u32>,
    /// Buffer-pool occupancy (cells) observed at enqueue.
    pub buffer_cells: Option<u64>,
    /// Partition-map epoch the packet was routed under.
    pub epoch: Option<u64>,
}

impl HopCtx {
    /// No context.
    pub const NONE: HopCtx = HopCtx {
        queue_depth: None,
        buffer_cells: None,
        epoch: None,
    };
}

/// One hop of a sampled packet's journey: a span at a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// Which packet.
    pub pkt: u64,
    /// Where.
    pub site: Site,
    /// When the packet entered the site.
    pub enter: SimTime,
    /// When it left (equal to `enter` for instantaneous hops).
    pub exit: SimTime,
    /// Queue/buffer/epoch context at the hop.
    pub ctx: HopCtx,
}

impl fmt::Display for Hop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}..{}] pkt {} @ {}",
            self.enter, self.exit, self.pkt, self.site
        )
    }
}

/// One recorded drop, with the queue state at the moment of death.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DropRecord {
    /// Which packet.
    pub pkt: u64,
    /// When it died.
    pub time: SimTime,
    /// Where it died.
    pub site: Site,
    /// Why.
    pub reason: DropReason,
    /// Queue/buffer/epoch context at death.
    pub ctx: HopCtx,
}

impl fmt::Display for DropRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] pkt {} dropped @ {}: {}",
            self.time, self.pkt, self.site, self.reason
        )
    }
}

/// A control-plane action, recorded as an instant on the `ctrl` track.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtrlEvent {
    /// A live migration started.
    MigrationBegin {
        /// `"drain"` or `"incremental"`.
        strategy: &'static str,
        /// The epoch the migration installs.
        epoch: u64,
    },
    /// The partition map's epoch advanced (new map in force).
    EpochBump {
        /// The epoch now in force.
        epoch: u64,
    },
    /// A drain migration committed (state moved, held packets released).
    MigrationCommit {
        /// The epoch now in force.
        epoch: u64,
        /// Register cells moved at commit.
        moved_keys: u64,
    },
    /// An incremental migration finalized (cold buckets bulk-copied).
    MigrationFinalize {
        /// The epoch in force.
        epoch: u64,
        /// Register cells moved at finalize.
        moved_keys: u64,
    },
}

impl CtrlEvent {
    /// Stable machine-readable label (JSON `event` field).
    pub fn label(&self) -> &'static str {
        match self {
            CtrlEvent::MigrationBegin { .. } => "migration_begin",
            CtrlEvent::EpochBump { .. } => "epoch_bump",
            CtrlEvent::MigrationCommit { .. } => "migration_commit",
            CtrlEvent::MigrationFinalize { .. } => "migration_finalize",
        }
    }

    /// The epoch the event refers to.
    pub fn epoch(&self) -> u64 {
        match self {
            CtrlEvent::MigrationBegin { epoch, .. }
            | CtrlEvent::EpochBump { epoch }
            | CtrlEvent::MigrationCommit { epoch, .. }
            | CtrlEvent::MigrationFinalize { epoch, .. } => *epoch,
        }
    }
}

/// The deterministic sampling hash: byte-serial 64-bit FNV-1a over the
/// packet id's little-endian bytes. It picks the traced and INT-stamped
/// packets and a flow's `IntFlowTable` cell, so every trace and INT golden
/// depends on its exact values; it is its own function, not the frame
/// check's, so that the frame check can change without moving them.
pub fn sample_hash(id: u64) -> u64 {
    id.to_le_bytes()
        .iter()
        .fold(0xCBF2_9CE4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
        })
}

/// Span-based flight recorder with always-on drop forensics.
///
/// Three stores with different retention policies:
/// * hop spans of sampled packets — bounded ring, oldest evicted;
/// * drops — exact per-`(site, reason)` aggregation (never truncated) plus
///   a detailed log capped at [`DROP_LOG_CAP`];
/// * control-plane events — capped at [`CTRL_LOG_CAP`].
///
/// Disabled tracers cost one branch per record call.
#[derive(Debug)]
pub struct JourneyTracer {
    hops: VecDeque<Hop>,
    capacity: usize,
    sample: u64,
    enabled: bool,
    /// Hop spans offered (including ones since evicted from the ring).
    pub offered: u64,
    evicted: u64,
    drop_counts: BTreeMap<(Site, DropReason), u64>,
    drop_log: Vec<DropRecord>,
    drops_truncated: u64,
    ctrl: Vec<(SimTime, CtrlEvent)>,
    ctrl_truncated: u64,
    // Test-only sabotage: lose every other drop's forensic record while
    // the switch's counters keep incrementing (what the conformance
    // cross-check must catch).
    lose_drop_forensics: bool,
    lose_toggle: bool,
}

impl JourneyTracer {
    /// A tracer keeping the last `capacity` hop spans at sampling rate 1
    /// (every packet). Capacity above [`MAX_RING_CAPACITY`] is clamped;
    /// whatever is granted is preallocated in full.
    pub fn new(capacity: usize) -> Self {
        Self::with_sample(capacity, 1)
    }

    /// A tracer keeping hop spans only for packet ids where
    /// `fnv(id) % sample == 0`. A `sample` of 0 is treated as 1.
    pub fn with_sample(capacity: usize, sample: u64) -> Self {
        let capacity = capacity.min(MAX_RING_CAPACITY);
        JourneyTracer {
            hops: VecDeque::with_capacity(capacity),
            capacity,
            sample: sample.max(1),
            enabled: true,
            offered: 0,
            evicted: 0,
            drop_counts: BTreeMap::new(),
            drop_log: Vec::new(),
            drops_truncated: 0,
            ctrl: Vec::new(),
            ctrl_truncated: 0,
            lose_drop_forensics: false,
            lose_toggle: false,
        }
    }

    /// A disabled tracer (records nothing).
    pub fn disabled() -> Self {
        JourneyTracer {
            hops: VecDeque::new(),
            capacity: 0,
            sample: 1,
            enabled: false,
            offered: 0,
            evicted: 0,
            drop_counts: BTreeMap::new(),
            drop_log: Vec::new(),
            drops_truncated: 0,
            ctrl: Vec::new(),
            ctrl_truncated: 0,
            lose_drop_forensics: false,
            lose_toggle: false,
        }
    }

    /// Build from the `ADCP_TRACE` environment variable, deferring to the
    /// switch config flag when unset: `off`/`0`/`false` force-disables,
    /// a number `N >= 1` force-enables with sampling rate `N`, anything
    /// else falls back to `cfg_trace` at sampling rate 1.
    pub fn from_env(cfg_trace: bool, capacity: usize) -> Self {
        match std::env::var("ADCP_TRACE") {
            Ok(v) => {
                let v = v.trim();
                if v.eq_ignore_ascii_case("off") || v == "0" || v.eq_ignore_ascii_case("false") {
                    Self::disabled()
                } else if let Ok(n) = v.parse::<u64>() {
                    Self::with_sample(capacity, n)
                } else if cfg_trace {
                    Self::new(capacity)
                } else {
                    Self::disabled()
                }
            }
            Err(_) if cfg_trace => Self::new(capacity),
            Err(_) => Self::disabled(),
        }
    }

    /// Is this tracer recording?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The sampling rate `N` (hop spans kept where `fnv(id) % N == 0`).
    pub fn sample(&self) -> u64 {
        self.sample
    }

    /// The hop ring's granted capacity (post-clamp).
    pub fn ring_capacity(&self) -> usize {
        self.capacity
    }

    /// Does this tracer keep hop spans for packet `pkt`?
    pub fn samples(&self, pkt: u64) -> bool {
        self.enabled && sample_hash(pkt).is_multiple_of(self.sample)
    }

    /// Can hop-span recording retain anything at all? Hot paths branch on
    /// this before computing per-hop context (queue depths, buffer
    /// occupancy), making a disabled tracer cost one predictable branch
    /// per call site instead of the context computation.
    #[inline]
    pub fn hops_on(&self) -> bool {
        self.enabled && self.capacity > 0
    }

    /// Record one hop span for a packet (kept only if sampled).
    pub fn record_hop(&mut self, pkt: u64, site: Site, enter: SimTime, exit: SimTime, ctx: HopCtx) {
        if !self.samples(pkt) || self.capacity == 0 {
            return;
        }
        self.offered += 1;
        if self.hops.len() == self.capacity {
            self.hops.pop_front();
            self.evicted += 1;
        }
        self.hops.push_back(Hop {
            pkt,
            site,
            enter,
            exit,
            ctx,
        });
    }

    /// Record an instantaneous hop (enter == exit).
    pub fn record_instant(&mut self, pkt: u64, site: Site, t: SimTime, ctx: HopCtx) {
        self.record_hop(pkt, site, t, t, ctx);
    }

    /// Record a drop. Forensics (exact aggregation + detailed log) are
    /// captured for *every* drop regardless of sampling; sampled packets
    /// additionally get a terminal `Dropped` hop in the ring so their
    /// journey ends explicitly.
    pub fn record_drop(
        &mut self,
        now: SimTime,
        pkt: u64,
        site: Site,
        reason: DropReason,
        ctx: HopCtx,
    ) {
        if !self.enabled {
            return;
        }
        if self.lose_drop_forensics {
            self.lose_toggle = !self.lose_toggle;
            if self.lose_toggle {
                return;
            }
        }
        *self.drop_counts.entry((site, reason)).or_insert(0) += 1;
        if self.drop_log.len() < DROP_LOG_CAP {
            self.drop_log.push(DropRecord {
                pkt,
                time: now,
                site,
                reason,
                ctx,
            });
        } else {
            self.drops_truncated += 1;
        }
        self.record_instant(pkt, Site::Dropped, now, ctx);
    }

    /// Record a control-plane event on the `ctrl` track (always captured).
    pub fn record_ctrl(&mut self, now: SimTime, ev: CtrlEvent) {
        if !self.enabled {
            return;
        }
        if self.ctrl.len() < CTRL_LOG_CAP {
            self.ctrl.push((now, ev));
        } else {
            self.ctrl_truncated += 1;
        }
    }

    /// All retained hop spans, in record order.
    pub fn hops(&self) -> impl Iterator<Item = &Hop> {
        self.hops.iter()
    }

    /// The reconstructed journey of one packet: its retained hop spans
    /// sorted by enter time (stable, so simultaneous hops keep record
    /// order). Ends in a `Tx` or `Dropped` hop unless the terminal was
    /// evicted or the packet is still in flight.
    pub fn journey_of(&self, pkt: u64) -> Vec<Hop> {
        let mut hops: Vec<Hop> = self.hops.iter().filter(|h| h.pkt == pkt).copied().collect();
        hops.sort_by_key(|h| (h.enter, h.exit));
        hops
    }

    /// The hop-site sequence of one packet (journey order).
    pub fn path_of(&self, pkt: u64) -> Vec<Site> {
        self.journey_of(pkt).iter().map(|h| h.site).collect()
    }

    /// Sampled packet ids with at least one retained hop, ascending.
    pub fn traced_packets(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.hops.iter().map(|h| h.pkt).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Detailed drop records (first [`DROP_LOG_CAP`]; see
    /// [`JourneyTracer::drops_truncated`]).
    pub fn drops(&self) -> &[DropRecord] {
        &self.drop_log
    }

    /// Drops whose detailed record was truncated (aggregated counts still
    /// include them).
    pub fn drops_truncated(&self) -> u64 {
        self.drops_truncated
    }

    /// Total drops recorded in this tracer (from the exact aggregation,
    /// so unaffected by log truncation).
    pub fn total_drops(&self) -> u64 {
        self.drop_counts.values().sum()
    }

    /// Exact drop totals aggregated per `(reason label, tm)` — what the
    /// forensics report cross-checks against the switch's counters (which
    /// count per reason and TM, not per queue or site). See
    /// [`drop_counter_candidates`] for the counter each pair must equal.
    pub fn drop_totals_by_reason(&self) -> BTreeMap<(&'static str, u8), u64> {
        let mut out: BTreeMap<(&'static str, u8), u64> = BTreeMap::new();
        for (&(_, reason), &n) in &self.drop_counts {
            *out.entry((reason.label(), reason.tm().unwrap_or(0)))
                .or_insert(0) += n;
        }
        out
    }

    /// Control-plane events in record order.
    pub fn ctrl_events(&self) -> &[(SimTime, CtrlEvent)] {
        &self.ctrl
    }

    /// Number of retained hop spans.
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// True if no hop spans retained.
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }

    /// Hop spans evicted from the ring.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Test-only sabotage hook for the conformance harness: when set, the
    /// forensic record of every other drop is silently lost while the
    /// switch's drop counters keep incrementing — exactly the skew the
    /// forensics↔counter cross-check exists to catch.
    #[doc(hidden)]
    pub fn set_drop_forensics_loss(&mut self, lose: bool) {
        self.lose_drop_forensics = lose;
        self.lose_toggle = false;
    }

    /// Pretty-print one packet's journey (hop table plus terminal verdict).
    pub fn format_journey(&self, pkt: u64) -> String {
        use std::fmt::Write as _;
        let hops = self.journey_of(pkt);
        let mut out = String::new();
        if hops.is_empty() {
            if self.samples(pkt) {
                let _ = writeln!(out, "pkt {pkt}: no retained hops (evicted or never seen)");
            } else {
                let _ = writeln!(
                    out,
                    "pkt {pkt}: not sampled (fnv(id) % {} != 0)",
                    self.sample
                );
            }
            return out;
        }
        let _ = writeln!(out, "pkt {pkt}:");
        for h in &hops {
            let mut ctx = String::new();
            if let Some(d) = h.ctx.queue_depth {
                let _ = write!(ctx, "  depth={d}");
            }
            if let Some(b) = h.ctx.buffer_cells {
                let _ = write!(ctx, "  buf={b}");
            }
            if let Some(e) = h.ctx.epoch {
                let _ = write!(ctx, "  epoch={e}");
            }
            if h.site == Site::Dropped {
                let reason = self
                    .drop_log
                    .iter()
                    .find(|d| d.pkt == pkt && d.time == h.enter)
                    .map(|d| format!("  {} @ {}", d.reason, d.site))
                    .unwrap_or_default();
                let _ = writeln!(out, "  {:<14} {}{}{}", "DROPPED", h.enter, reason, ctx);
            } else {
                let _ = writeln!(
                    out,
                    "  {:<14} {} .. {}{}",
                    h.site.to_string(),
                    h.enter,
                    h.exit,
                    ctx
                );
            }
        }
        out
    }

    /// Export the tracer state as JSON. Disabled tracers export a minimal
    /// `{"enabled": false}` so embedding the block in every report stays
    /// cheap. All times are picoseconds; optional context fields are
    /// omitted when absent.
    pub fn to_json(&self) -> Value {
        let mut root = Map::new();
        root.insert("enabled".into(), Value::Bool(self.enabled));
        if !self.enabled {
            return Value::Object(root);
        }
        root.insert("sample".into(), Value::U64(self.sample));
        root.insert("ring_capacity".into(), Value::U64(self.capacity as u64));
        root.insert("hops_offered".into(), Value::U64(self.offered));
        root.insert("hops_evicted".into(), Value::U64(self.evicted));
        let hops: Vec<Value> = self
            .hops
            .iter()
            .map(|h| {
                let mut o = Map::new();
                o.insert("pkt".into(), Value::U64(h.pkt));
                o.insert("site".into(), Value::String(h.site.to_string()));
                o.insert("enter_ps".into(), Value::U64(h.enter.as_ps()));
                o.insert("exit_ps".into(), Value::U64(h.exit.as_ps()));
                ctx_json(&mut o, &h.ctx);
                Value::Object(o)
            })
            .collect();
        root.insert("hops".into(), Value::Array(hops));
        let drops: Vec<Value> = self
            .drop_log
            .iter()
            .map(|d| {
                let mut o = Map::new();
                o.insert("pkt".into(), Value::U64(d.pkt));
                o.insert("time_ps".into(), Value::U64(d.time.as_ps()));
                o.insert("site".into(), Value::String(d.site.to_string()));
                o.insert("reason".into(), Value::String(d.reason.label().into()));
                if let Some(tm) = d.reason.tm() {
                    o.insert("tm".into(), Value::U64(tm as u64));
                }
                if let Some(q) = d.reason.queue() {
                    o.insert("queue".into(), Value::U64(q as u64));
                }
                ctx_json(&mut o, &d.ctx);
                Value::Object(o)
            })
            .collect();
        root.insert("drops".into(), Value::Array(drops));
        root.insert("drops_truncated".into(), Value::U64(self.drops_truncated));
        let counts: Vec<Value> = self
            .drop_counts
            .iter()
            .map(|(&(site, reason), &n)| {
                let mut o = Map::new();
                o.insert("site".into(), Value::String(site.to_string()));
                o.insert("reason".into(), Value::String(reason.label().into()));
                o.insert("tm".into(), Value::U64(reason.tm().unwrap_or(0) as u64));
                if let Some(q) = reason.queue() {
                    o.insert("queue".into(), Value::U64(q as u64));
                }
                o.insert("count".into(), Value::U64(n));
                Value::Object(o)
            })
            .collect();
        root.insert("drop_counts".into(), Value::Array(counts));
        let ctrl: Vec<Value> = self
            .ctrl
            .iter()
            .map(|&(t, ev)| {
                let mut o = Map::new();
                o.insert("time_ps".into(), Value::U64(t.as_ps()));
                o.insert("event".into(), Value::String(ev.label().into()));
                o.insert("epoch".into(), Value::U64(ev.epoch()));
                match ev {
                    CtrlEvent::MigrationBegin { strategy, .. } => {
                        o.insert("strategy".into(), Value::String(strategy.into()));
                    }
                    CtrlEvent::MigrationCommit { moved_keys, .. }
                    | CtrlEvent::MigrationFinalize { moved_keys, .. } => {
                        o.insert("moved_keys".into(), Value::U64(moved_keys));
                    }
                    CtrlEvent::EpochBump { .. } => {}
                }
                Value::Object(o)
            })
            .collect();
        root.insert("ctrl".into(), Value::Array(ctrl));
        root.insert("ctrl_truncated".into(), Value::U64(self.ctrl_truncated));
        Value::Object(root)
    }
}

fn ctx_json(o: &mut Map, ctx: &HopCtx) {
    if let Some(d) = ctx.queue_depth {
        o.insert("queue_depth".into(), Value::U64(d as u64));
    }
    if let Some(b) = ctx.buffer_cells {
        o.insert("buffer_cells".into(), Value::U64(b));
    }
    if let Some(e) = ctx.epoch {
        o.insert("epoch".into(), Value::U64(e));
    }
}

/// The exported counter each forensic drop reason must equal, as `(reason,
/// tm) -> [(scope, name)]` candidates — the first scope present in a
/// metrics block wins (ADCP scopes its TMs `tm1`/`tm2`; the RMT
/// baseline's single TM is scoped `tm` and mapped onto tm 1). The bench
/// harness's JSON-level forensics report reads it.
pub fn drop_counter_candidates(reason: &str, tm: u64) -> &'static [(&'static str, &'static str)] {
    match (reason, tm) {
        ("fcs_bad", _) => &[("mac", "fcs_drops")],
        ("parse_error", _) => &[("parser", "errors")],
        ("filtered", _) => &[("drops", "filtered")],
        ("no_decision", _) => &[("drops", "no_decision")],
        ("bad_port", _) => &[("drops", "bad_port")],
        ("queue_tail", 1) => &[("tm1", "queue_drops"), ("tm", "queue_drops")],
        ("queue_tail", 2) => &[("tm2", "queue_drops")],
        ("buffer_exhausted", 1) => &[("tm1", "buffer_drops"), ("tm", "buffer_drops")],
        ("buffer_exhausted", 2) => &[("tm2", "buffer_drops")],
        _ => &[],
    }
}

/// Every `(reason, tm)` a forensics ≡ counters cross-check must consider
/// even when the forensic side recorded nothing — a counter that moved
/// without a matching forensic record is exactly the failure mode to
/// catch.
pub const DROP_CHECK_REASONS: &[(&str, u64)] = &[
    ("fcs_bad", 0),
    ("parse_error", 0),
    ("filtered", 0),
    ("no_decision", 0),
    ("bad_port", 0),
    ("queue_tail", 1),
    ("queue_tail", 2),
    ("buffer_exhausted", 1),
    ("buffer_exhausted", 2),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn hop(t: &mut JourneyTracer, pkt: u64, site: Site, enter: u64, exit: u64) {
        t.record_hop(pkt, site, SimTime(enter), SimTime(exit), HopCtx::NONE);
    }

    #[test]
    fn records_and_replays_journeys() {
        let mut t = JourneyTracer::new(16);
        hop(&mut t, 1, Site::Rx(PortId(0)), 0, 5);
        hop(&mut t, 1, Site::IngressPipe(0), 5, 9);
        hop(&mut t, 2, Site::Rx(PortId(1)), 6, 8);
        hop(&mut t, 1, Site::Tm1, 9, 11);
        hop(&mut t, 1, Site::Tx(PortId(3)), 11, 12);
        let path = t.path_of(1);
        assert_eq!(
            path,
            vec![
                Site::Rx(PortId(0)),
                Site::IngressPipe(0),
                Site::Tm1,
                Site::Tx(PortId(3))
            ]
        );
        assert_eq!(t.path_of(2), vec![Site::Rx(PortId(1))]);
        assert_eq!(t.len(), 5);
        let j = t.journey_of(1);
        assert!(j.windows(2).all(|w| w[0].enter <= w[1].enter));
        assert!(j.iter().all(|h| h.enter <= h.exit));
    }

    #[test]
    fn ring_evicts_oldest_and_reports_eviction() {
        let mut t = JourneyTracer::new(3);
        for i in 0..5 {
            hop(&mut t, i, Site::Tm1, i, i);
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.offered, 5);
        assert_eq!(t.evicted(), 2);
        let ids: Vec<u64> = t.hops().map(|h| h.pkt).collect();
        assert_eq!(ids, vec![2, 3, 4]);
    }

    #[test]
    fn ring_preallocates_honestly_up_to_the_cap() {
        // The satellite fix: the stated capacity is granted (and
        // preallocated) in full below MAX_RING_CAPACITY...
        let t = JourneyTracer::new(65_536);
        assert_eq!(t.ring_capacity(), 65_536);
        assert!(t.hops.capacity() >= 65_536);
        // ...and clamped (visibly, via ring_capacity) above it.
        let t = JourneyTracer::new(MAX_RING_CAPACITY + 1);
        assert_eq!(t.ring_capacity(), MAX_RING_CAPACITY);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = JourneyTracer::disabled();
        hop(&mut t, 1, Site::Tm1, 0, 0);
        t.record_drop(SimTime(1), 2, Site::Tm1, DropReason::Filtered, HopCtx::NONE);
        t.record_ctrl(SimTime(2), CtrlEvent::EpochBump { epoch: 1 });
        assert!(t.is_empty());
        assert!(!t.is_enabled());
        assert_eq!(t.offered, 0);
        assert_eq!(t.total_drops(), 0);
        assert!(t.ctrl_events().is_empty());
        let v = t.to_json();
        assert_eq!(v.get("enabled").and_then(|x| x.as_bool()), Some(false));
        assert!(v.get("hops").is_none(), "disabled export stays minimal");
    }

    #[test]
    fn sampling_is_deterministic_and_drops_are_always_captured() {
        let n = 64;
        let mut t = JourneyTracer::with_sample(1024, n);
        let mut kept = Vec::new();
        for id in 0..1000u64 {
            hop(&mut t, id, Site::Rx(PortId(0)), id, id);
            if sample_hash(id).is_multiple_of(n) {
                kept.push(id);
            }
        }
        assert!(!kept.is_empty(), "some ids must hash into the sample");
        assert!(kept.len() < 1000, "sampling must actually thin the ring");
        assert_eq!(t.traced_packets(), kept);
        // Drops of unsampled packets still reach the forensics stores.
        let unsampled = (0..1000u64)
            .find(|id| !sample_hash(*id).is_multiple_of(n))
            .unwrap();
        t.record_drop(
            SimTime(7),
            unsampled,
            Site::Tm2,
            DropReason::QueueTail { tm: 2, queue: 3 },
            HopCtx {
                queue_depth: Some(512),
                buffer_cells: Some(4096),
                epoch: None,
            },
        );
        assert_eq!(t.total_drops(), 1);
        assert_eq!(t.drops().len(), 1);
        assert_eq!(
            t.drops()[0].reason,
            DropReason::QueueTail { tm: 2, queue: 3 }
        );
        // But no hop span is burned on them.
        assert!(t.journey_of(unsampled).is_empty());
    }

    #[test]
    fn drop_aggregation_survives_log_truncation() {
        let mut t = JourneyTracer::with_sample(4, u64::MAX); // sample ~nothing
        for i in 0..(DROP_LOG_CAP as u64 + 10) {
            t.record_drop(
                SimTime(i),
                i,
                Site::Tm1,
                DropReason::BufferExhausted { tm: 1 },
                HopCtx::NONE,
            );
        }
        assert_eq!(t.drops().len(), DROP_LOG_CAP);
        assert_eq!(t.drops_truncated(), 10);
        assert_eq!(t.total_drops(), DROP_LOG_CAP as u64 + 10);
        let totals = t.drop_totals_by_reason();
        assert_eq!(totals[&("buffer_exhausted", 1)], DROP_LOG_CAP as u64 + 10);
    }

    #[test]
    fn reason_and_site_display_are_readable() {
        assert_eq!(Site::Rx(PortId(2)).to_string(), "rx(p2)");
        assert_eq!(Site::CentralPipe(1).to_string(), "central[1]");
        assert_eq!(Site::Recirculated.to_string(), "recirculate");
        assert_eq!(DropReason::FcsBad.to_string(), "fcs_bad");
        assert_eq!(
            DropReason::QueueTail { tm: 1, queue: 3 }.to_string(),
            "queue_tail(tm1,q3)"
        );
        assert_eq!(
            DropReason::BufferExhausted { tm: 2 }.to_string(),
            "buffer_exhausted(tm2)"
        );
        let h = Hop {
            pkt: 42,
            site: Site::Tm2,
            enter: SimTime(1500),
            exit: SimTime(2000),
            ctx: HopCtx::NONE,
        };
        assert_eq!(h.to_string(), "[1.500ns..2.000ns] pkt 42 @ tm2");
    }

    #[test]
    fn json_export_has_stable_shape() {
        let mut t = JourneyTracer::new(8);
        hop(&mut t, 1, Site::Rx(PortId(0)), 0, 5);
        t.record_drop(
            SimTime(9),
            1,
            Site::Tm1,
            DropReason::QueueTail { tm: 1, queue: 0 },
            HopCtx {
                queue_depth: Some(8),
                buffer_cells: Some(64),
                epoch: Some(2),
            },
        );
        t.record_ctrl(
            SimTime(10),
            CtrlEvent::MigrationBegin {
                strategy: "drain",
                epoch: 3,
            },
        );
        let v = t.to_json();
        assert_eq!(v.get("enabled").and_then(|x| x.as_bool()), Some(true));
        assert_eq!(v.get("sample").and_then(|x| x.as_u64()), Some(1));
        let hops = v.get("hops").and_then(|x| x.as_array()).unwrap();
        assert_eq!(hops[0].get("site").and_then(|x| x.as_str()), Some("rx(p0)"));
        let drops = v.get("drops").and_then(|x| x.as_array()).unwrap();
        assert_eq!(
            drops[0].get("reason").and_then(|x| x.as_str()),
            Some("queue_tail")
        );
        assert_eq!(
            drops[0].get("queue_depth").and_then(|x| x.as_u64()),
            Some(8)
        );
        let counts = v.get("drop_counts").and_then(|x| x.as_array()).unwrap();
        assert_eq!(counts[0].get("count").and_then(|x| x.as_u64()), Some(1));
        assert_eq!(counts[0].get("tm").and_then(|x| x.as_u64()), Some(1));
        let ctrl = v.get("ctrl").and_then(|x| x.as_array()).unwrap();
        assert_eq!(
            ctrl[0].get("event").and_then(|x| x.as_str()),
            Some("migration_begin")
        );
        assert_eq!(
            ctrl[0].get("strategy").and_then(|x| x.as_str()),
            Some("drain")
        );
    }

    #[test]
    fn forensics_loss_sabotage_skews_counts() {
        let mut t = JourneyTracer::new(8);
        t.set_drop_forensics_loss(true);
        for i in 0..10 {
            t.record_drop(SimTime(i), i, Site::Tm1, DropReason::Filtered, HopCtx::NONE);
        }
        assert_eq!(t.total_drops(), 5, "half the forensics silently lost");
    }

    #[test]
    fn env_override_controls_enablement_and_sampling() {
        // Serialized through a lock-free dance: std::env is process-global,
        // so touch a variable no other test uses.
        std::env::set_var("ADCP_TRACE", "64");
        let t = JourneyTracer::from_env(false, 128);
        assert!(t.is_enabled());
        assert_eq!(t.sample(), 64);
        std::env::set_var("ADCP_TRACE", "off");
        let t = JourneyTracer::from_env(true, 128);
        assert!(!t.is_enabled());
        std::env::remove_var("ADCP_TRACE");
        let t = JourneyTracer::from_env(true, 128);
        assert!(t.is_enabled());
        assert_eq!(t.sample(), 1);
        let t = JourneyTracer::from_env(false, 128);
        assert!(!t.is_enabled());
    }
}
