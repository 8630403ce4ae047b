//! The parts the RMT (Fig. 1) and ADCP (Fig. 4) switch models share:
//! everything that moves a packet without reading it.
//!
//! * [`Shell`] — the device around the pipelines: RX/TX ports, the traffic
//!   managers' buffers, and every observer (journey tracer, INT, metrics
//!   registry, delivery record). Each packet–stage
//!   crossing is reported through [`Shell::hop`] and each death through
//!   [`Shell::drop_pkt`] or a refused [`Shell::tm_admit`], so a counter
//!   bump and a forensic record cannot be written apart.
//! * [`Slot`] — one pipeline's cycle bookkeeping (one PHV per clock).
//! * [`Agenda`] — the event queue, the same-timestamp batch loop, and the
//!   slab every packet inside the switch lives in, named by a [`Parked`]
//!   handle from `inject` to delivery or drop.
//!
//! A target is a wiring of these: `adcp-rmt` puts one TM between two
//! slots per pipe and adds a recirculation edge; `adcp-core` adds a second
//! TM, a central slot set and a 1:m port demux. DESIGN.md §15 ("One
//! datapath, two wirings") lists what stays target-only and why.

use crate::event::EventQueue;
use crate::int::{IntFlowTable, IntKnob, IntStack, IntStamp, Postcard, POSTCARDS_CAP};
use crate::metrics::{HistId, MetricsRegistry, SeriesId};
use crate::packet::{EgressSpec, FrameBuf, Packet, PacketMeta, PortId};
use crate::port::{LinkSpeed, RxPort, TxPort};
use crate::queue::{BufferPool, Held};
use crate::sched::ScheduledQueues;
use crate::stats::{LatencyHist, Meter};
use crate::time::{Duration, SimTime};
use crate::trace::{DropReason, HopCtx, JourneyTracer, Site};

/// Retained points per queue-depth/buffer-occupancy time series.
const SERIES_CAP: usize = 512;

/// Bytes per TM buffer cell, on every target.
const CELL_BYTES: u32 = 80;

/// One traffic manager's drop classes.
#[derive(Debug, Clone, Copy, Default)]
pub struct TmDrops {
    /// Per-queue tail drops.
    pub queue: u64,
    /// Shared-buffer exhaustion.
    pub buffer: u64,
}

impl TmDrops {
    /// Both classes.
    pub fn total(&self) -> u64 {
        self.queue + self.buffer
    }
}

/// Every flow and drop count of a switch: the single ledger, owned by the
/// [`Shell`] and bumped where the event happens. Conservation is
/// `injected + mcast_copies == delivered + total_drops() + in_flight`,
/// where `in_flight` is the packets parked in the switch's [`Agenda`] (see
/// [`Shell::assert_conserved`]); the metrics export reads these fields
/// when it is asked, it keeps no copy.
#[derive(Debug, Clone, Default)]
pub struct Counters {
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
    /// Match-table key lookups executed, all regions and lanes.
    pub mat_lookups: u64,
    /// Match-table lookups that hit an installed entry.
    pub mat_hits: u64,
    /// Writeback passes: one per pipeline traversal that reached its
    /// deparser. A count of passes, not of buffers — a pass patches the
    /// frame in place and allocates nothing; the name stays because every
    /// golden and the frozen benchmark read the count under it.
    pub deparse_allocs: u64,
    /// Recirculation passes taken (always 0 on a target without the edge).
    pub recirc_passes: u64,
    /// Drop classes of each traffic manager, in datapath order (a
    /// single-TM target leaves the second pair at 0).
    pub tm: [TmDrops; 2],
}

impl Counters {
    /// Fraction of match-table lookups that hit (0 when none ran).
    pub fn mat_hit_rate(&self) -> f64 {
        if self.mat_lookups == 0 {
            0.0
        } else {
            self.mat_hits as f64 / self.mat_lookups as f64
        }
    }

    /// Sum of all drop classes.
    pub fn total_drops(&self) -> u64 {
        let tm = self.tm[0].total() + self.tm[1].total();
        self.parse_errors + self.fcs_drops + self.filtered + self.no_decision + self.bad_port + tm
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

    /// A region's occupancy as the metrics export reports it, aggregated
    /// (per-pipe cardinality would bloat every report on 64-port targets):
    /// (total busy cycles, the busiest pipe's).
    pub fn busy_total_and_max<'a>(slots: impl Iterator<Item = &'a Slot>) -> (u64, u64) {
        slots.fold((0, 0), |(t, m), s| {
            (t + s.busy_cycles, s.busy_cycles.max(m))
        })
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

/// One traffic manager as the shell sees it: a shared-memory cell pool,
/// the site and TM number its hops and drops are attributed to, its
/// registry scope and handles. The queues themselves belong to the
/// pipelines the TM feeds, because which queue a packet joins is the
/// target's wiring.
struct Tm {
    pool: BufferPool,
    site: Site,
    number: u8,
    scope: &'static str,
    residency: HistId,
    queue_depth: SeriesId,
    buffer: SeriesId,
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
    /// Every registry scope of the target, in export order. The JSON
    /// export lists scopes in creation order, so they are created up
    /// front and everything registered later only looks them up.
    pub scopes: &'a [&'a str],
    /// Registry scope of each traffic manager, in datapath order: the
    /// first is the journey model's TM1, the second its TM2. The last one
    /// is the one that replicates multicast.
    pub tms: &'a [&'static str],
}

/// The device around the pipelines. Targets embed one and `Deref` to it,
/// so its ledger (`counters`), observers (`tracer`, `latency`,
/// `out_meter`) and accessors are the switch's own.
pub struct Shell {
    rx: Vec<RxPort>,
    tx: Vec<TxPort>,
    tms: Vec<Tm>,
    /// Flow and drop accounting.
    pub counters: Counters,
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
    parse_span: HistId,
    tx_latency: HistId,
    delivered: Vec<Delivered>,
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
            .map(|(&scope, (site, number))| {
                let s = m.scope(scope);
                Tm {
                    pool: BufferPool::new(spec.tm_cells, CELL_BYTES),
                    site,
                    number,
                    scope,
                    residency: m.hist(s, "residency_ps"),
                    queue_depth: m.series(s, "queue_pkts", SERIES_CAP),
                    buffer: m.series(s, "buffer_cells", SERIES_CAP),
                }
            })
            .collect();
        assert!(!tms.is_empty(), "a switch has a TM");
        let (parser, tx) = (m.scope("parser"), m.scope("tx"));
        Shell {
            rx: (0..spec.ports)
                .map(|p| RxPort::new(PortId(p), speed_of(p)))
                .collect(),
            tx: (0..spec.ports).map(|p| TxPort::new(speed_of(p))).collect(),
            tms,
            counters: Counters::default(),
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
            parse_span: m.hist(parser, "span_ps"),
            tx_latency: m.hist(tx, "latency_ps"),
            metrics: m,
            delivered: Vec::new(),
            last_delivery: SimTime::ZERO,
        }
    }

    // ---------------- the datapath ----------------

    /// Account a packet offered to RX `port` at `t` (its first bit arrives
    /// then); the target schedules the arrival.
    #[inline]
    pub fn accept(&mut self, port: PortId, pkt: &mut Packet, t: SimTime) {
        assert!(
            (port.0 as usize) < self.rx.len(),
            "inject on nonexistent {port}"
        );
        if pkt.meta.created == SimTime::ZERO {
            pkt.meta.created = t;
        }
        self.counters.injected += 1;
    }

    /// MAC + RX serialization: `None` when the frame check failed (the
    /// packet is dropped before it can reach a parser, table or register),
    /// else the time its last bit arrived.
    #[inline]
    pub fn receive(&mut self, now: SimTime, port: u16, pkt: &mut Packet) -> Option<SimTime> {
        let site = Site::Rx(PortId(port));
        if !pkt.fcs_ok() {
            self.drop_pkt(now, pkt.meta.id, site, DropReason::FcsBad);
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
    /// charged for.
    #[inline]
    pub fn drop_pkt(&mut self, now: SimTime, id: u64, site: Site, reason: DropReason) {
        self.account_drop(now, id, site, reason, HopCtx::NONE);
    }

    /// Account one dropped packet: bump the [`Counters`] class its reason
    /// names and hand the typed reason (plus queue state at the moment of
    /// death) to the journey tracer's forensics — in one place, so the
    /// forensics↔counter cross-check holds by construction. The caller
    /// frees the packet's slot.
    #[inline]
    fn account_drop(&mut self, now: SimTime, id: u64, site: Site, reason: DropReason, ctx: HopCtx) {
        let c = &mut self.counters;
        *match reason {
            DropReason::FcsBad => &mut c.fcs_drops,
            DropReason::ParseError => &mut c.parse_errors,
            DropReason::Filtered => &mut c.filtered,
            DropReason::NoDecision => &mut c.no_decision,
            DropReason::BadPort => &mut c.bad_port,
            DropReason::QueueTail { tm, .. } => &mut c.tm[tm as usize - 1].queue,
            DropReason::BufferExhausted { tm } => &mut c.tm[tm as usize - 1].buffer,
        } += 1;
        self.tracer.record_drop(now, id, site, reason, ctx);
    }

    /// Resolve the forwarding decision of `pkt`, in front of traffic
    /// manager `tm`, into where its copies go: nowhere (dropped here, typed;
    /// the caller frees the slot), the packet itself to one port, or one
    /// copy per multicast port. Replication is accounted up front and the
    /// frame shared, so each copy the caller parks ([`Agenda::copy`]) bumps
    /// the payload refcount instead of copying the buffer; the caller admits
    /// each copy (its queue choice is wiring) and then frees the original.
    #[inline]
    pub fn fan_out(&mut self, tm: usize, now: SimTime, pkt: &mut Packet) -> Fanout {
        // Move the decision out rather than cloning it (a Multicast spec
        // owns a port list).
        let reason = match std::mem::take(&mut pkt.meta.egress) {
            EgressSpec::Drop => DropReason::Filtered,
            EgressSpec::Unicast(p) => {
                pkt.meta.egress = EgressSpec::Unicast(p);
                return Fanout::One(p);
            }
            EgressSpec::Multicast(ports) if !ports.is_empty() => {
                self.counters.mcast_copies += ports.len() as u64 - 1;
                pkt.data.make_shared();
                return Fanout::Many(ports);
            }
            _ => DropReason::NoDecision,
        };
        self.drop_pkt(now, pkt.meta.id, self.tms[tm].site, reason);
        Fanout::Dropped
    }

    /// Number of front-panel ports.
    #[inline]
    pub fn n_ports(&self) -> usize {
        self.tx.len()
    }

    /// Admit the packet `h` names (`pkt`, borrowed from the slab) to queue
    /// `q` of `queues` under traffic manager `tm`: queue-room check, cell
    /// allocation, typed drop (charged to that TM's queue-tail or buffer
    /// class, with the queue reported as `qid`), enqueue-time context,
    /// occupancy samples. The queue holds the handle; the packet stays
    /// where it is. A refused packet is accounted here and its handle given
    /// back for the caller to free.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn tm_admit(
        &mut self,
        tm: usize,
        queues: &mut ScheduledQueues,
        q: usize,
        qid: u32,
        pkt: &mut Packet,
        h: Parked,
        now: SimTime,
    ) -> Result<(), Parked> {
        let t = &mut self.tms[tm];
        let site = t.site;
        let tail = DropReason::QueueTail {
            tm: t.number,
            queue: qid,
        };
        let exhausted = DropReason::BufferExhausted { tm: t.number };
        let refused = if !queues.queue(q).has_room(pkt.frame_bytes()) {
            Some(tail)
        } else if !t.pool.try_alloc(pkt) {
            Some(exhausted)
        } else {
            None
        };
        let used = t.pool.used();
        if let Some(reason) = refused {
            let ctx = HopCtx {
                queue_depth: Some(queues.len() as u32),
                buffer_cells: Some(used),
                epoch: pkt.meta.map_epoch,
            };
            self.account_drop(now, pkt.meta.id, site, reason, ctx);
            return Err(h);
        }
        pkt.meta.tm_enqueued = now;
        // Enqueue-time context rides the metadata to the residency hop at
        // dequeue. `ScheduledQueues::len` walks every queue, so only pay
        // for it when a knob will consume the value.
        if self.tracer.hops_on() || self.int.samples(pkt.meta.id) {
            pkt.meta.tm_q_depth = Some(queues.len() as u32 + 1);
            pkt.meta.tm_buf_used = Some(used);
        }
        queues
            .enqueue(q, Held::new(pkt, h))
            .expect("room was checked above");
        if self.metrics.enabled() {
            let t = &self.tms[tm];
            self.metrics.sample(t.queue_depth, now, queues.len() as u64);
            self.metrics.sample(t.buffer, now, used);
        }
        Ok(())
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
        self.counters.delivered += 1;
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

    /// Export the per-stage metrics block (see
    /// [`MetricsRegistry::to_json_with`]): what the registry alone observes
    /// (span histograms, occupancy series) plus every counter and gauge,
    /// read from its owner now — the ledger, the INT totals, the TM pools,
    /// then the target's own `counters` and `gauges` rows `(scope, name,
    /// value)`. A target's gauges never fall, so each one's high-water
    /// mark is its value.
    pub fn metrics_json(
        &self,
        counters: &[(&str, &str, u64)],
        gauges: &[(&str, &str, u64)],
    ) -> serde::Value {
        let c = &self.counters;
        let mut cs = vec![
            ("rx", "packets", c.injected),
            ("mac", "fcs_drops", c.fcs_drops),
            ("parser", "errors", c.parse_errors),
            ("deparser", "allocs", c.deparse_allocs),
            ("mat", "lookups", c.mat_lookups),
            ("mat", "hits", c.mat_hits),
            ("drops", "filtered", c.filtered),
            ("drops", "no_decision", c.no_decision),
            ("drops", "bad_port", c.bad_port),
            ("tx", "packets", c.delivered),
            ("int", "stamps", self.int_stamps),
            ("int", "postcards", self.int_postcards),
            ("int", "stack_truncated", self.int_truncated),
            ("int", "postcards_dropped", self.int_postcards_dropped),
        ];
        let mut gs = Vec::new();
        for (t, drops) in self.tms.iter().zip(&c.tm) {
            cs.push((t.scope, "buffer_drops", drops.buffer));
            cs.push((t.scope, "queue_drops", drops.queue));
            gs.push((t.scope, "buffer_cells", t.pool.used(), t.pool.hwm_cells));
        }
        // The last TM is the one that replicates.
        let last_tm = self.tms[self.tms.len() - 1].scope;
        cs.push((last_tm, "mcast_copies", c.mcast_copies));
        cs.extend_from_slice(counters);
        gs.extend(gauges.iter().map(|&(s, n, v)| (s, n, v, v)));
        self.metrics.to_json_with(&cs, &gs)
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

    /// Shared access to the per-stage metrics registry: the span
    /// histograms and occupancy series only it observes.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Registry access for a target to register its own handles at build.
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
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

    /// Move packets delivered so far onto the end of `out`. Unlike
    /// [`Shell::take_delivered`], the shell keeps its buffer's capacity,
    /// so a caller that drains every round allocates nothing.
    pub fn drain_delivered(&mut self, out: &mut Vec<Delivered>) {
        out.append(&mut self.delivered);
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
    /// left (delivered, or dropped in some class) or is one of the
    /// `in_flight` packets still parked in the switch's [`Agenda`].
    pub fn assert_conserved(&self, in_flight: u64) {
        let c = &self.counters;
        assert_eq!(
            c.injected + c.mcast_copies,
            c.delivered + c.total_drops() + in_flight,
            "conservation violated: {c:?} in_flight={in_flight}"
        );
    }
}

/// Where [`Shell::fan_out`] sends a packet's copies.
#[derive(Debug)]
pub enum Fanout {
    /// Dropped at the forwarding point (accounted; the slot is the
    /// caller's to free).
    Dropped,
    /// Unicast: the packet itself, to this port.
    One(PortId),
    /// Multicast: one copy per port, in this order; then the original is
    /// freed.
    Many(Vec<PortId>),
}

/// A packet parked in an [`Agenda`]'s slab: what an event or a TM queue
/// carries in place of the packet itself. Not `Clone`, so a slot is freed
/// at most once; `#[must_use]`, so it is not dropped with its packet still
/// parked.
#[must_use = "a parked packet stays in the slab until its handle is taken or freed"]
#[derive(Debug)]
pub struct Parked(u32);

/// One entry of an [`Agenda`]'s packet slab.
#[allow(clippy::large_enum_variant)] // packets inline: boxing would allocate per park
enum SlabEntry {
    /// The packet a handle names.
    Parked(Packet),
    /// Free: the next slot on the free list (`slab.len()` ends it).
    Free(u32),
}

/// A switch's event queue, the reusable same-timestamp dispatch batch, and
/// the slab every packet inside the switch lives in.
///
/// A packet is parked once, at `inject` (a multicast copy, at its fan-out),
/// and stays in its slot until it is taken out to be delivered or freed
/// where its drop is accounted. Events and TM queues ([`Held`]) carry its
/// 4-byte [`Parked`] handle, and every handler borrows the packet in place
/// ([`Agenda::pkt`]) beside the shell, the codec and the pipes — sibling
/// fields of the switch — so no hop, queue, fan-out or parse moves a
/// 216-byte `Packet`, and an event-queue entry is 32 bytes. The slab
/// grows on demand and reuses freed slots last-in first-out through a free
/// list threaded through the free slots themselves (no second buffer to
/// grow), so its storage follows the high-water mark of packets in flight,
/// not the number ever parked — and its occupancy *is* the switch's
/// in-flight count.
pub struct Agenda<E> {
    /// Pending events.
    pub events: EventQueue<E>,
    batch: Vec<E>,
    slab: Vec<SlabEntry>,
    /// Head of the free list; `slab.len()` when no slot is free.
    free: u32,
    parked: usize,
}

impl<E> Default for Agenda<E> {
    fn default() -> Self {
        Agenda {
            events: EventQueue::new(),
            batch: Vec::new(),
            slab: Vec::new(),
            free: 0,
            parked: 0,
        }
    }
}

impl<E> Agenda<E> {
    /// Move `pkt` into the slab.
    #[inline]
    pub fn park(&mut self, pkt: Packet) -> Parked {
        let i = self.free;
        match self.slab.get_mut(i as usize) {
            Some(slot) => {
                let SlabEntry::Free(next) = *slot else {
                    unreachable!("the free list links free slots")
                };
                self.free = next;
                *slot = SlabEntry::Parked(pkt);
            }
            None => {
                self.slab.push(SlabEntry::Parked(pkt));
                self.free = u32::try_from(self.slab.len()).expect("fewer than 2^32 packets parked");
            }
        }
        self.parked += 1;
        Parked(i)
    }

    /// The packet `h` names, where it is.
    #[inline]
    pub fn pkt(&mut self, h: &Parked) -> &mut Packet {
        match &mut self.slab[h.0 as usize] {
            SlabEntry::Parked(pkt) => pkt,
            SlabEntry::Free(_) => unreachable!("a handle names a parked packet"),
        }
    }

    /// Move the packet `h` names out of the slab.
    #[inline]
    pub fn take(&mut self, h: Parked) -> Packet {
        let slot = std::mem::replace(&mut self.slab[h.0 as usize], SlabEntry::Free(self.free));
        self.free = h.0;
        self.parked -= 1;
        match slot {
            SlabEntry::Parked(pkt) => pkt,
            SlabEntry::Free(_) => unreachable!("a handle names a parked packet"),
        }
    }

    /// Free the slot of a packet that leaves the switch without being
    /// delivered (its drop already accounted).
    #[inline]
    pub fn free(&mut self, h: Parked) {
        drop(self.take(h));
    }

    /// Park a copy of the packet `h` names, its forwarding decision
    /// narrowed to `port`: one multicast copy of a [`Fanout::Many`].
    #[inline]
    pub fn copy(&mut self, h: &Parked, port: PortId) -> Parked {
        let mut copy = self.pkt(h).clone();
        copy.meta.egress = EgressSpec::Unicast(port);
        self.park(copy)
    }

    /// Packets parked now: the switch's in-flight count, zero once it is
    /// idle.
    pub fn parked(&self) -> usize {
        self.parked
    }

    /// The run loop of switch `sw`, whose agenda `agenda` projects out:
    /// hand every event scheduled at or before `until` (every event, when
    /// `None`) to `handle` and return the time of the last one.
    ///
    /// Every event sharing the minimal timestamp is drained in one
    /// `pop_batch` call into a reusable buffer. Handlers that push
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{synthetic_packet, FlowId};
    use crate::rng::SimRng;
    use crate::sched::Policy;
    use std::collections::VecDeque;

    /// The slab's storage follows the in-flight high-water mark, not the
    /// packets ever parked (the analogue of the event queue's
    /// `million_event_run_keeps_storage_bounded`), with half the handles
    /// dwelling in TM queues between park and take.
    #[test]
    fn million_parks_keep_the_slab_bounded() {
        const TOTAL: u64 = 1_000_000;
        const OUTSTANDING: usize = 1024;
        let mut agenda: Agenda<()> = Agenda::default();
        let mut rng = SimRng::seed_from(5);
        // Packets circulate between `spare` and the slab, so at most
        // OUTSTANDING are ever parked at once.
        let mut spare: Vec<Packet> = (0..OUTSTANDING as u64)
            .map(|id| synthetic_packet(id, FlowId(0), 64 + id as usize % 64))
            .collect();
        let mut parked: Vec<(Parked, u64)> = Vec::new();
        // FIFO serves the queues in global arrival order: `queued` is it.
        let mut tm = ScheduledQueues::new(4, OUTSTANDING, Policy::Fifo);
        let mut queued: VecDeque<u64> = VecDeque::new();
        let mut taken = 0u64;
        while taken < TOTAL || agenda.parked() > 0 {
            let outstanding = parked.len() + queued.len();
            let park = taken < TOTAL && !spare.is_empty();
            if park && (outstanding == 0 || rng.chance(0.5)) {
                let pkt = spare.pop().expect("checked");
                let id = pkt.meta.id;
                let h = agenda.park(pkt);
                if rng.chance(0.5) {
                    let held = Held::new(agenda.pkt(&h), h);
                    assert_eq!(held.bytes, 64 + id as u32 % 64);
                    tm.enqueue(rng.index(4), held)
                        .expect("room for every packet");
                    queued.push_back(id);
                } else {
                    parked.push((h, id));
                }
            } else {
                let (h, id) = if !queued.is_empty() && (parked.is_empty() || rng.chance(0.5)) {
                    let (_, held) = tm.dequeue().expect("a queued handle");
                    (held.h, queued.pop_front().expect("checked"))
                } else {
                    parked.swap_remove(rng.index(parked.len()))
                };
                let pkt = agenda.take(h);
                assert_eq!(pkt.meta.id, id, "a handle takes back its own packet");
                spare.push(pkt);
                taken += 1;
            }
            assert_eq!(agenda.parked(), parked.len() + queued.len());
        }
        let cap = agenda.slab.capacity();
        assert!(
            cap <= 2 * OUTSTANDING,
            "slab capacity {cap} grew past twice the {OUTSTANDING}-packet high-water mark"
        );
    }
}
