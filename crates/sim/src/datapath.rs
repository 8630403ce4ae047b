//! The parts the RMT (Fig. 1) and ADCP (Fig. 4) switch models share:
//! everything that moves a packet without reading it.
//!
//! * [`Shell`] — the device around the pipelines: RX/TX ports, the traffic
//!   managers' buffers, the frame arena, and every observer (journey
//!   tracer, INT, metrics registry, delivery record). Each packet–stage
//!   crossing is reported through [`Shell::hop`] and each death through
//!   [`Shell::drop_pkt`] or a refused [`Shell::tm_admit`], so a counter
//!   bump, an in-flight decrement and a forensic record cannot be written
//!   apart.
//! * [`Slot`] — one pipeline's cycle bookkeeping (one PHV per clock).
//! * [`Agenda`] — the event queue and the same-timestamp batch loop.
//!
//! A target is a wiring of these: `adcp-rmt` puts one TM between two
//! slots per pipe and adds a recirculation edge; `adcp-core` adds a second
//! TM, a central slot set and a 1:m port demux. DESIGN.md §15 ("One
//! datapath, two wirings") lists what stays target-only and why.

use crate::event::EventQueue;
use crate::int::{IntFlowTable, IntKnob, IntStack, IntStamp, Postcard, POSTCARDS_CAP};
use crate::metrics::{CounterId, GaugeId, HistId, MetricsRegistry, SeriesId};
use crate::packet::{EgressSpec, FrameBuf, Packet, PacketMeta, PacketStore, PortId};
use crate::port::{LinkSpeed, RxPort, TxPort};
use crate::queue::BufferPool;
use crate::sched::ScheduledQueues;
use crate::stats::{LatencyHist, Meter};
use crate::time::{Duration, SimTime};
use crate::trace::{DropReason, HopCtx, JourneyTracer, Site};

/// Retained points per queue-depth/buffer-occupancy time series.
const SERIES_CAP: usize = 512;

/// Flow and drop accounting common to both targets; each target's counter
/// struct embeds one and adds its own traffic-manager drop classes. The
/// conservation invariant is `injected + mcast_copies == delivered +
/// Σ drops + in_flight` (see [`Shell::assert_conserved`]).
#[derive(Debug, Clone, Default)]
pub struct FlowCounters {
    /// Packets handed to the switch's `inject`.
    pub injected: u64,
    /// Extra packet copies created by multicast replication.
    pub mcast_copies: u64,
    /// Packets delivered out TX ports.
    pub delivered: u64,
    /// Parse failures (any pipeline).
    pub parse_errors: u64,
    /// Sealed frames whose check sequence failed on injection (corrupted
    /// on the wire); discarded before touching any table or register.
    pub fcs_drops: u64,
    /// Dropped by a program `Drop` action.
    pub filtered: u64,
    /// Reached a forwarding point with no forwarding decision.
    pub no_decision: u64,
    /// Forwarding decision named a nonexistent port.
    pub bad_port: u64,
    /// Match-table key lookups executed, all regions and lanes (refreshed
    /// from the per-table counters whenever a run returns).
    pub mat_lookups: u64,
    /// Match-table lookups that hit an installed entry.
    pub mat_hits: u64,
    /// Frame buffers rebuilt by the deparser — the hot path's remaining
    /// per-pass allocation (delivery and multicast copies share payload
    /// buffers instead of allocating).
    pub deparse_allocs: u64,
}

impl FlowCounters {
    /// Fraction of match-table lookups that hit (0 when none ran).
    pub fn mat_hit_rate(&self) -> f64 {
        if self.mat_lookups == 0 {
            0.0
        } else {
            self.mat_hits as f64 / self.mat_lookups as f64
        }
    }

    /// Sum of the drop classes no traffic manager is charged for.
    pub fn drops(&self) -> u64 {
        self.parse_errors + self.fcs_drops + self.filtered + self.no_decision + self.bad_port
    }
}

/// A packet that left the switch.
#[derive(Debug, Clone)]
pub struct Delivered {
    /// TX port it left on.
    pub port: PortId,
    /// Time its last bit left.
    pub time: SimTime,
    /// Final frame contents (post-deparse; moved from the in-switch
    /// packet — taking delivery does not copy the payload).
    pub data: FrameBuf,
    /// Final metadata.
    pub meta: PacketMeta,
}

/// One pipeline's cycle bookkeeping: a pipeline retires at most one PHV
/// per clock, and at most one pull event per pipeline is outstanding.
#[derive(Debug, Default)]
pub struct Slot {
    next_slot: SimTime,
    busy_cycles: u64,
    pull_scheduled: bool,
}

impl Slot {
    /// Occupy the first free cycle at or after `now`; returns its start.
    #[inline]
    pub fn claim(&mut self, now: SimTime, period: Duration) -> SimTime {
        let entry = now.max(self.next_slot);
        self.next_slot = entry + period;
        self.busy_cycles += 1;
        entry
    }

    /// Keep the pipeline occupied for `d` from `now` (or from the end of
    /// the work already claimed, whichever is later).
    pub fn stall(&mut self, now: SimTime, d: Duration) {
        self.next_slot = self.next_slot.max(now) + d;
    }

    /// Arm the pipeline's pull for `now` (or a later retry time): the time
    /// to schedule the pull event at — not before the first free cycle —
    /// or `None` when one is outstanding.
    #[inline]
    pub fn arm_pull(&mut self, now: SimTime) -> Option<SimTime> {
        if self.pull_scheduled {
            return None;
        }
        self.pull_scheduled = true;
        Some(now.max(self.next_slot))
    }

    /// A pull event fired: disarm. `Some(t)` when the pipeline is still
    /// occupied until `t` and the pull must be re-armed there.
    #[inline]
    pub fn begin_pull(&mut self, now: SimTime) -> Option<SimTime> {
        self.pull_scheduled = false;
        (now < self.next_slot).then_some(self.next_slot)
    }

    /// Cycles this pipeline has been occupied.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Busy cycles over the cycles elapsed by `now`.
    pub fn utilization(&self, now: SimTime, period: Duration) -> f64 {
        let total = now.as_ps() / period.as_ps().max(1);
        if total == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / total as f64
        }
    }
}

/// Registry handles of one pipeline region (`ingress`, `central`,
/// `egress`): the stage-span histogram, and the occupancy totals exported
/// by [`Shell::export_busy`].
#[derive(Debug, Clone, Copy)]
pub struct RegionMetrics {
    /// Stage span (`span_ps`), recorded by the target where the span ends.
    pub span: HistId,
    busy: CounterId,
    busy_max: GaugeId,
}

/// One traffic manager as the shell sees it: a shared-memory cell pool,
/// the site and TM number its hops and drops are attributed to, and its
/// registry handles. The queues themselves belong to the pipelines the TM
/// feeds, because which queue a packet joins is the target's wiring.
struct Tm {
    pool: BufferPool,
    site: Site,
    number: u8,
    buffer_drops: CounterId,
    queue_drops: CounterId,
    residency: HistId,
    queue_depth: SeriesId,
    buffer: SeriesId,
    buffer_gauge: GaugeId,
}

/// Everything [`Shell::new`] needs from a target's model and config.
pub struct ShellSpec<'a> {
    /// Front-panel ports.
    pub ports: u16,
    /// Native port speed.
    pub speed: LinkSpeed,
    /// Per-port speed overrides (port, speed).
    pub port_speeds: &'a [(u16, LinkSpeed)],
    /// Config default for hop tracing (`ADCP_TRACE` overrides).
    pub trace: bool,
    /// Config default for INT stamping (`ADCP_INT` overrides).
    pub int: bool,
    /// Device id written into INT stamps and postcards.
    pub device: u16,
    /// Cells in each TM's shared buffer.
    pub tm_cells: u64,
    /// Bytes per buffer cell.
    pub cell_bytes: u32,
    /// Every registry scope of the target, in export order. The JSON
    /// export lists scopes in creation order, so they are created up
    /// front and everything registered later only looks them up.
    pub scopes: &'a [&'a str],
    /// Registry scope of each traffic manager, in datapath order: the
    /// first is the journey model's TM1, the second its TM2. The last one
    /// is the one that replicates multicast.
    pub tms: &'a [&'a str],
}

/// (scope, counter name, reader) of one mirrored [`FlowCounters`] class.
type Mirror = (&'static str, &'static str, fn(&FlowCounters) -> u64);

/// Where each [`FlowCounters`] class is mirrored in the registry, and how
/// to read it: the one list both registration and export walk.
const MIRRORED: [Mirror; 10] = [
    ("rx", "packets", |c| c.injected),
    ("mac", "fcs_drops", |c| c.fcs_drops),
    ("parser", "errors", |c| c.parse_errors),
    ("deparser", "allocs", |c| c.deparse_allocs),
    ("mat", "lookups", |c| c.mat_lookups),
    ("mat", "hits", |c| c.mat_hits),
    ("drops", "filtered", |c| c.filtered),
    ("drops", "no_decision", |c| c.no_decision),
    ("drops", "bad_port", |c| c.bad_port),
    ("tx", "packets", |c| c.delivered),
];

/// `int` scope counters, in the order [`Shell::int_totals`]' fields and
/// then the shed-postcard count are exported.
const INT_MIRRORED: [&str; 4] = [
    "stamps",
    "postcards",
    "stack_truncated",
    "postcards_dropped",
];

/// The device around the pipelines. Targets embed one and `Deref` to it,
/// so its observers (`tracer`, `latency`, `out_meter`) and accessors are
/// the switch's own.
pub struct Shell {
    rx: Vec<RxPort>,
    tx: Vec<TxPort>,
    tms: Vec<Tm>,
    /// Recycling arena for deparse frame buffers.
    pub store: PacketStore,
    /// Throughput/goodput/keys meter over delivered packets.
    pub out_meter: Meter,
    /// End-to-end latency (created -> last bit out).
    pub latency: LatencyHist,
    /// Sampled packet-journey flight recorder with always-on drop
    /// forensics and control-plane instants (see [`JourneyTracer`]).
    pub tracer: JourneyTracer,
    int: IntKnob,
    device: u16,
    /// Postcards emitted at TX for sampled packets, awaiting a collector.
    postcards: Vec<Postcard>,
    int_stamps: u64,
    int_postcards: u64,
    int_truncated: u64,
    int_postcards_dropped: u64,
    /// Sabotage hook: report TM queue depths one higher than observed.
    int_lie_queue_depth: bool,
    metrics: MetricsRegistry,
    mirrors: [CounterId; MIRRORED.len()],
    int_mirrors: [CounterId; INT_MIRRORED.len()],
    /// Registered under the last TM's scope: that is the one replicating.
    mcast_copies: CounterId,
    parse_span: HistId,
    tx_latency: HistId,
    delivered: Vec<Delivered>,
    in_flight: u64,
    last_delivery: SimTime,
}

impl Shell {
    /// Build the shell and register the handles every target shares.
    pub fn new(spec: ShellSpec<'_>) -> Self {
        let speed_of = |p: u16| {
            let over = spec.port_speeds.iter().find(|(port, _)| *port == p);
            over.map_or(spec.speed, |(_, s)| *s)
        };
        let mut m = MetricsRegistry::from_env();
        for s in spec.scopes {
            m.scope(s);
        }
        let tms: Vec<Tm> = (spec.tms.iter().zip([(Site::Tm1, 1), (Site::Tm2, 2)]))
            .map(|(scope, (site, number))| {
                let s = m.scope(scope);
                Tm {
                    pool: BufferPool::new(spec.tm_cells, spec.cell_bytes),
                    site,
                    number,
                    buffer_drops: m.counter(s, "buffer_drops"),
                    queue_drops: m.counter(s, "queue_drops"),
                    residency: m.hist(s, "residency_ps"),
                    queue_depth: m.series(s, "queue_pkts", SERIES_CAP),
                    buffer: m.series(s, "buffer_cells", SERIES_CAP),
                    buffer_gauge: m.gauge(s, "buffer_cells"),
                }
            })
            .collect();
        let last_tm = m.scope(spec.tms.last().expect("a switch has a TM"));
        let mcast_copies = m.counter(last_tm, "mcast_copies");
        let mirrors = MIRRORED.map(|(scope, name, _)| {
            let s = m.scope(scope);
            m.counter(s, name)
        });
        let (parser, tx, int) = (m.scope("parser"), m.scope("tx"), m.scope("int"));
        Shell {
            rx: (0..spec.ports)
                .map(|p| RxPort::new(PortId(p), speed_of(p)))
                .collect(),
            tx: (0..spec.ports)
                .map(|p| TxPort::new(PortId(p), speed_of(p)))
                .collect(),
            tms,
            store: PacketStore::new(),
            out_meter: Meter::default(),
            latency: LatencyHist::new(),
            tracer: JourneyTracer::from_env(spec.trace, 65_536),
            int: IntKnob::from_env(spec.int),
            device: spec.device,
            postcards: Vec::new(),
            int_stamps: 0,
            int_postcards: 0,
            int_truncated: 0,
            int_postcards_dropped: 0,
            int_lie_queue_depth: false,
            mirrors,
            int_mirrors: INT_MIRRORED.map(|name| m.counter(int, name)),
            mcast_copies,
            parse_span: m.hist(parser, "span_ps"),
            tx_latency: m.hist(tx, "latency_ps"),
            metrics: m,
            delivered: Vec::new(),
            in_flight: 0,
            last_delivery: SimTime::ZERO,
        }
    }

    /// Register a pipeline region's handles under `scope`.
    pub fn region_metrics(&mut self, scope: &str) -> RegionMetrics {
        let m = &mut self.metrics;
        let s = m.scope(scope);
        RegionMetrics {
            span: m.hist(s, "span_ps"),
            busy: m.counter(s, "busy_cycles"),
            busy_max: m.gauge(s, "busy_cycles_max_pipe"),
        }
    }

    // ---------------- the datapath ----------------

    /// Account a packet offered to RX `port` at `t` (its first bit arrives
    /// then); the target schedules the arrival.
    #[inline]
    pub fn accept(&mut self, flow: &mut FlowCounters, port: PortId, pkt: &mut Packet, t: SimTime) {
        assert!(
            (port.0 as usize) < self.rx.len(),
            "inject on nonexistent {port}"
        );
        if pkt.meta.created == SimTime::ZERO {
            pkt.meta.created = t;
        }
        flow.injected += 1;
        self.in_flight += 1;
    }

    /// MAC + RX serialization: `None` when the frame check failed (the
    /// packet is dropped before it can reach a parser, table or register),
    /// else the time its last bit arrived.
    #[inline]
    pub fn receive(
        &mut self,
        flow: &mut FlowCounters,
        now: SimTime,
        port: u16,
        pkt: &mut Packet,
    ) -> Option<SimTime> {
        let site = Site::Rx(PortId(port));
        if !pkt.fcs_ok() {
            self.drop_pkt(flow, now, pkt.meta.id, site, DropReason::FcsBad);
            return None;
        }
        let done = self.rx[port as usize].receive(pkt, now);
        self.hop(pkt, site, now, done, HopCtx::NONE);
        Some(done)
    }

    /// Report one packet–stage crossing to the journey tracer and, for a
    /// sampled packet, stamp it in-band. One call site per crossing hands
    /// both the same `ctx`, which is what the INT honesty conformance check
    /// compares byte for byte.
    #[inline]
    pub fn hop(
        &mut self,
        pkt: &mut Packet,
        site: Site,
        enter: SimTime,
        exit: SimTime,
        ctx: HopCtx,
    ) {
        if self.tracer.hops_on() {
            self.tracer.record_hop(pkt.meta.id, site, enter, exit, ctx);
        }
        if self.int.samples(pkt.meta.id) {
            self.stamp(pkt, site, enter, exit, ctx);
        }
    }

    /// Append one INT stamp to a sampled packet's bounded header region.
    fn stamp(&mut self, pkt: &mut Packet, site: Site, enter: SimTime, exit: SimTime, ctx: HopCtx) {
        let ctx = if self.int_lie_queue_depth {
            HopCtx {
                queue_depth: ctx.queue_depth.map(|d| d + 1),
                ..ctx
            }
        } else {
            ctx
        };
        let stack = pkt
            .meta
            .int
            .get_or_insert_with(|| Box::new(IntStack::with_typical_capacity()));
        let stamp = IntStamp {
            device: self.device,
            site,
            enter,
            exit,
            ctx,
        };
        if stack.push(stamp) {
            self.int_stamps += 1;
        } else {
            self.int_truncated += 1;
        }
    }

    /// Drop packet `id` at `site` for a reason no traffic manager is
    /// charged for; the reason picks the [`FlowCounters`] class, so the two
    /// cannot disagree.
    #[inline]
    pub fn drop_pkt(
        &mut self,
        flow: &mut FlowCounters,
        now: SimTime,
        id: u64,
        site: Site,
        reason: DropReason,
    ) {
        let counter = match reason {
            DropReason::FcsBad => &mut flow.fcs_drops,
            DropReason::ParseError => &mut flow.parse_errors,
            DropReason::Filtered => &mut flow.filtered,
            DropReason::NoDecision => &mut flow.no_decision,
            DropReason::BadPort => &mut flow.bad_port,
            DropReason::BufferExhausted { .. }
            | DropReason::QueueTail { .. }
            | DropReason::MigrationFence => unreachable!("{reason} is charged by a TM admission"),
        };
        self.account_drop(counter, now, id, site, reason, HopCtx::NONE);
    }

    /// Account one dropped packet: bump its class `counter`, decrement
    /// in-flight, and hand the typed reason (plus queue state at the moment
    /// of death) to the journey tracer's forensics — in one place, so the
    /// forensics↔counter cross-check holds by construction.
    #[inline]
    fn account_drop(
        &mut self,
        counter: &mut u64,
        now: SimTime,
        id: u64,
        site: Site,
        reason: DropReason,
        ctx: HopCtx,
    ) {
        *counter += 1;
        self.in_flight -= 1;
        self.tracer.record_drop(now, id, site, reason, ctx);
    }

    /// Resolve a forwarding decision in front of traffic manager `tm` into
    /// the copies to admit: none (dropped here, typed), the packet itself,
    /// or one refcounted copy per multicast port. Replication is accounted
    /// up front; the caller admits each copy (its queue choice is wiring).
    #[inline]
    pub fn fan_out(
        &mut self,
        flow: &mut FlowCounters,
        tm: usize,
        now: SimTime,
        mut pkt: Packet,
    ) -> Copies {
        // Move the decision out rather than cloning it (a Multicast spec
        // owns a port list).
        let reason = match std::mem::take(&mut pkt.meta.egress) {
            EgressSpec::Drop => DropReason::Filtered,
            EgressSpec::Unicast(p) => {
                pkt.meta.egress = EgressSpec::Unicast(p);
                return Copies::One(p, pkt);
            }
            EgressSpec::Multicast(ports) if !ports.is_empty() => {
                flow.mcast_copies += ports.len() as u64 - 1;
                self.in_flight += ports.len() as u64 - 1;
                // Share the frame bytes once, so each copy bumps the
                // payload refcount instead of copying the buffer.
                pkt.data.make_shared();
                return Copies::Many(ports.into_iter(), pkt);
            }
            _ => DropReason::NoDecision,
        };
        self.drop_pkt(flow, now, pkt.meta.id, self.tms[tm].site, reason);
        Copies::None
    }

    /// Number of front-panel ports.
    #[inline]
    pub fn n_ports(&self) -> usize {
        self.tx.len()
    }

    /// Admit `pkt` to queue `q` of `queues` under traffic manager `tm`:
    /// queue-room check, cell allocation, typed drop (charged to the
    /// matching one of `drops` = (queue tail, buffer exhausted), with the
    /// queue reported as `qid`), enqueue-time context, occupancy samples.
    /// Returns whether the packet was enqueued.
    #[inline]
    #[allow(clippy::too_many_arguments)] // one packet, one queue address, one TM
    pub fn tm_admit(
        &mut self,
        tm: usize,
        drops: (&mut u64, &mut u64),
        queues: &mut ScheduledQueues,
        q: usize,
        qid: u32,
        mut pkt: Packet,
        now: SimTime,
    ) -> bool {
        let t = &mut self.tms[tm];
        let site = t.site;
        let tail = DropReason::QueueTail {
            tm: t.number,
            queue: qid,
        };
        let exhausted = DropReason::BufferExhausted { tm: t.number };
        let refused = if !queues.queue(q).has_room(&pkt) {
            Some((drops.0, tail))
        } else if !t.pool.try_alloc(&mut pkt) {
            Some((drops.1, exhausted))
        } else {
            None
        };
        let used = t.pool.used();
        if let Some((counter, reason)) = refused {
            let ctx = HopCtx {
                queue_depth: Some(queues.len() as u32),
                buffer_cells: Some(used),
                epoch: pkt.meta.map_epoch,
            };
            self.account_drop(counter, now, pkt.meta.id, site, reason, ctx);
            return false;
        }
        pkt.meta.tm_enqueued = now;
        // Enqueue-time context rides the metadata to the residency hop at
        // dequeue. `ScheduledQueues::len` walks every queue, so only pay
        // for it when a knob will consume the value.
        if self.tracer.hops_on() || self.int.samples(pkt.meta.id) {
            pkt.meta.tm_q_depth = Some(queues.len() as u32 + 1);
            pkt.meta.tm_buf_used = Some(used);
        }
        let accepted = queues.enqueue(q, pkt).is_ok();
        debug_assert!(accepted, "room was checked above");
        if self.metrics.enabled() {
            let t = &self.tms[tm];
            self.metrics.sample(t.queue_depth, now, queues.len() as u64);
            self.metrics.sample(t.buffer, now, used);
            self.metrics.set_gauge(t.buffer_gauge, used);
        }
        true
    }

    /// `pkt` left traffic manager `tm` at `now`: release its cells, record
    /// the residency span and hop (with the context observed at enqueue),
    /// and restart `tm_enqueued` as the next stage's entry time.
    #[inline]
    pub fn tm_depart(&mut self, tm: usize, pkt: &mut Packet, now: SimTime) {
        let t = &mut self.tms[tm];
        t.pool.release(pkt);
        let (site, enq) = (t.site, pkt.meta.tm_enqueued);
        if self.metrics.enabled() {
            self.metrics.record_span(t.residency, enq, now);
            self.metrics.sample(t.buffer, now, t.pool.used());
        }
        if self.tracer.hops_on() || self.int.on() {
            let ctx = HopCtx {
                queue_depth: pkt.meta.tm_q_depth.take(),
                buffer_cells: pkt.meta.tm_buf_used.take(),
                epoch: pkt.meta.map_epoch,
            };
            self.hop(pkt, site, enq, now, ctx);
        }
        pkt.meta.tm_enqueued = now;
    }

    /// Earliest time TX `port` could start serializing a new packet.
    #[inline]
    pub fn tx_ready_at(&self, port: usize) -> SimTime {
        self.tx[port].ready_at()
    }

    /// TX: serialize `pkt` out `port` and deliver it — the `egress_span`
    /// and end-to-end spans, the TX hop, the sink export of a sampled
    /// packet's INT stack (folded into `flows` first when the device keeps
    /// per-flow INT state), delivery accounting, and the FCS re-stamp.
    #[inline]
    pub fn transmit(
        &mut self,
        flow: &mut FlowCounters,
        egress_span: HistId,
        now: SimTime,
        port: PortId,
        mut pkt: Packet,
        flows: Option<&mut IntFlowTable>,
    ) {
        let done = self.tx[port.0 as usize].transmit(&pkt, now);
        if self.metrics.enabled() {
            self.metrics
                .record_span(egress_span, pkt.meta.tm_enqueued, now);
            self.metrics
                .record_span(self.tx_latency, pkt.meta.created, done);
        }
        self.hop(&mut pkt, Site::Tx(port), now, done, HopCtx::NONE);
        if self.int.samples(pkt.meta.id) {
            // The stack stays on the packet — in a fabric it rides the
            // frame to the next device, which keeps appending (INT-XD
            // style: every device postcards, the last carries the full
            // chain). The sink FIFO is bounded: an undrained collector
            // sheds postcards (counted), and the shed path skips the stack
            // clone so a full FIFO costs no allocation.
            const EMPTY: &IntStack = &IntStack {
                stamps: Vec::new(),
                truncated: 0,
            };
            let stack = pkt.meta.int.as_deref().unwrap_or(EMPTY);
            if let Some(flows) = flows {
                flows.fold(pkt.meta.flow.0, stack);
            }
            if self.postcards.len() < POSTCARDS_CAP {
                self.postcards.push(Postcard {
                    device: self.device,
                    pkt: pkt.meta.id,
                    flow: pkt.meta.flow.0,
                    port: port.0,
                    time: done,
                    stack: stack.clone(),
                });
                self.int_postcards += 1;
            } else {
                self.int_postcards_dropped += 1;
            }
        }
        flow.delivered += 1;
        self.in_flight -= 1;
        self.out_meter
            .record(pkt.wire_bytes(), pkt.meta.goodput_bytes, pkt.meta.elements);
        self.latency.record(done.saturating_since(pkt.meta.created));
        self.last_delivery = self.last_delivery.max(done);
        if pkt.meta.fcs.is_some() {
            // Deparse writebacks changed the bytes on purpose; re-stamp the
            // frame check like a NIC recomputing the CRC on transmit.
            pkt.reseal();
        }
        self.delivered.push(Delivered {
            port,
            time: done,
            data: pkt.data,
            meta: pkt.meta,
        });
    }

    // ---------------- export ----------------

    /// Mirror the counters both targets keep into the registry, so the
    /// JSON export is the one complete metrics path. Values are monotone
    /// totals; re-assigning is idempotent. Targets call this (and their
    /// own tail) whenever a run or a control-plane call returns.
    pub fn export(&mut self, c: &FlowCounters) {
        let m = &mut self.metrics;
        for (id, (_, _, read)) in self.mirrors.iter().zip(MIRRORED) {
            m.set_counter(*id, read(c));
        }
        m.set_counter(self.mcast_copies, c.mcast_copies);
        let (stamps, postcards, truncated) = self.int_totals();
        let int = [stamps, postcards, truncated, self.int_postcards_dropped];
        for (id, v) in self.int_mirrors.iter().zip(int) {
            self.metrics.set_counter(*id, v);
        }
    }

    /// Mirror traffic manager `tm`'s drop classes and buffer occupancy.
    pub fn export_tm(&mut self, tm: usize, buffer_drops: u64, queue_drops: u64) {
        let t = &self.tms[tm];
        self.metrics.set_counter(t.buffer_drops, buffer_drops);
        self.metrics.set_counter(t.queue_drops, queue_drops);
        self.metrics.set_gauge(t.buffer_gauge, t.pool.used());
    }

    /// Mirror one region's pipeline occupancy, aggregated (per-pipe
    /// cardinality would bloat every report on 64-port targets): total
    /// busy cycles plus the busiest pipe.
    pub fn export_busy<'a>(&mut self, rm: RegionMetrics, slots: impl Iterator<Item = &'a Slot>) {
        let (total, max) = slots.fold((0, 0), |(t, m), s| {
            (t + s.busy_cycles, s.busy_cycles.max(m))
        });
        self.metrics.set_counter(rm.busy, total);
        self.metrics.set_gauge(rm.busy_max, max);
    }

    /// Record a parse's span: parse latency scales with structural depth,
    /// not port speed (§3.3).
    #[inline]
    pub fn record_parse(&mut self, cost: Duration) {
        if self.metrics.enabled() {
            self.metrics.record(self.parse_span, cost);
        }
    }

    /// Record a stage span ending at `to`.
    #[inline]
    pub fn record_span(&mut self, id: HistId, from: SimTime, to: SimTime) {
        if self.metrics.enabled() {
            self.metrics.record_span(id, from, to);
        }
    }

    // ---------------- accessors ----------------

    /// Shared access to the per-stage metrics registry. Mirrored counters
    /// are as of the last run or control-plane call.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Registry access for a target's own handles (registration at build,
    /// its export tail).
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// Export the per-stage metrics block (see
    /// [`MetricsRegistry::to_json`]).
    pub fn metrics_json(&self) -> serde::Value {
        self.metrics.to_json()
    }

    /// Export the journey tracer's state (sampled hops, drop forensics,
    /// control-plane instants) as JSON. See [`JourneyTracer::to_json`].
    pub fn trace_json(&self) -> serde::Value {
        self.tracer.to_json()
    }

    /// The in-band telemetry knob in force (resolved from `ADCP_INT` at
    /// construction, falling back to the switch config's `int`).
    pub fn int_knob(&self) -> IntKnob {
        self.int
    }

    /// Device id this switch writes into its INT stamps.
    pub fn device(&self) -> u16 {
        self.device
    }

    /// Drain the postcards emitted since the last call (sink exports of
    /// sampled packets' INT stacks at TX).
    pub fn take_postcards(&mut self) -> Vec<Postcard> {
        std::mem::take(&mut self.postcards)
    }

    /// INT totals: (stamps written, postcards emitted, stamps truncated).
    pub fn int_totals(&self) -> (u64, u64, u64) {
        (self.int_stamps, self.int_postcards, self.int_truncated)
    }

    /// Postcards shed because the sink FIFO was full — nonzero only when
    /// nothing drained [`Shell::take_postcards`] for [`POSTCARDS_CAP`]
    /// sampled transmissions.
    pub fn int_postcards_dropped(&self) -> u64 {
        self.int_postcards_dropped
    }

    /// Sabotage hook for the conformance harness: when set, every INT
    /// stamp reports a TM queue depth one higher than actually observed —
    /// a plausible-but-lying datapath the honesty check must catch.
    #[doc(hidden)]
    pub fn set_int_lie_queue_depth(&mut self, lie: bool) {
        self.int_lie_queue_depth = lie;
    }

    /// Drain packets delivered so far.
    pub fn take_delivered(&mut self) -> Vec<Delivered> {
        std::mem::take(&mut self.delivered)
    }

    /// Packets currently inside the switch.
    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }

    /// Quiescence time of a run whose last event was at `last`: the later
    /// of that and the last bit serialized out a TX port.
    pub fn quiescence(&self, last: SimTime) -> SimTime {
        last.max(self.last_delivery)
    }

    /// High-water mark across the TM buffers, in cells.
    pub fn tm_buffer_hwm(&self) -> u64 {
        self.tms.iter().map(|t| t.pool.hwm_cells).max().unwrap_or(0)
    }

    /// Panic unless everything that entered (injected + replicated) either
    /// left (delivered, or dropped: `total_drops` over every class, the
    /// target's TM classes included) or is still in flight. `counters` is
    /// printed on failure.
    pub fn assert_conserved(
        &self,
        counters: &dyn std::fmt::Debug,
        c: &FlowCounters,
        total_drops: u64,
    ) {
        assert_eq!(
            c.injected + c.mcast_copies,
            c.delivered + total_drops + self.in_flight,
            "conservation violated: {counters:?} in_flight={}",
            self.in_flight
        );
    }
}

/// The copies [`Shell::fan_out`] resolved a forwarding decision into, as
/// `(port, packet)` pairs. Multicast copies are cloned lazily, one per
/// iteration, each with its decision narrowed to its own port.
pub enum Copies {
    /// Dropped at the forwarding point.
    None,
    /// Unicast: the packet itself.
    One(PortId, Packet),
    /// Multicast: the remaining ports and the shared original.
    Many(std::vec::IntoIter<PortId>, Packet),
}

impl Iterator for Copies {
    type Item = (PortId, Packet);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if let Copies::Many(ports, pkt) = self {
            let p = ports.next()?;
            let mut copy = pkt.clone();
            copy.meta.egress = EgressSpec::Unicast(p);
            return Some((p, copy));
        }
        match std::mem::replace(self, Copies::None) {
            Copies::One(p, pkt) => Some((p, pkt)),
            _ => None,
        }
    }
}

/// A switch's event queue plus the reusable same-timestamp dispatch batch.
pub struct Agenda<E> {
    /// Pending events.
    pub events: EventQueue<E>,
    batch: Vec<E>,
}

impl<E> Default for Agenda<E> {
    fn default() -> Self {
        Agenda {
            events: EventQueue::new(),
            batch: Vec::new(),
        }
    }
}

impl<E> Agenda<E> {
    /// The run loop of switch `sw`, whose agenda `agenda` projects out:
    /// hand every event scheduled at or before `until` (every event, when
    /// `None`) to `handle` and return the time of the last one.
    ///
    /// Every event sharing the minimal timestamp is drained in one
    /// calendar-queue operation into a reusable buffer. Handlers that push
    /// more work at the same timestamp get a later seq, so those land in
    /// the *next* batch — the order is identical to a one-event-at-a-time
    /// loop, and a run cut into `until`-slices handles the same events in
    /// the same order.
    pub fn run<S>(
        sw: &mut S,
        until: Option<SimTime>,
        agenda: impl Fn(&mut S) -> &mut Agenda<E>,
        mut handle: impl FnMut(&mut S, SimTime, E),
    ) -> SimTime {
        let mut last = agenda(sw).events.now();
        let mut batch = std::mem::take(&mut agenda(sw).batch);
        loop {
            let events = &mut agenda(sw).events;
            if until.is_some_and(|t| events.peek_time().is_none_or(|pt| pt > t)) {
                break;
            }
            let Some(t) = events.pop_batch(&mut batch) else {
                break;
            };
            for ev in batch.drain(..) {
                handle(sw, t, ev);
            }
            last = t;
        }
        agenda(sw).batch = batch;
        last
    }
}
