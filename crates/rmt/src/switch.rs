//! The event-driven RMT switch model (the paper's Figure 1).
//!
//! One wiring of the shared datapath parts (`adcp_sim::datapath`,
//! `adcp_lang::codec`; see DESIGN.md §15, "One datapath, two wirings"):
//!
//! ```text
//! inject -> RX port -> ingress slot (parse, ingress region)
//!        -> [recirculation edge: central region in an ingress slot]
//!        -> the TM (per-port queues, round-robin pull)
//!        -> egress slot (parse, pinned-central + egress regions) -> TX port
//! ```
//!
//! This file holds only what is RMT's own: the recirculation edge, the
//! egress-pinned central tables, and the per-port round-robin pull. The
//! architectural constraints the paper criticizes are *enforced*, not
//! merely documented:
//!
//! * ports are statically multiplexed `ports_per_pipe` to an ingress
//!   pipeline — coflows arriving on different pipelines cannot meet in
//!   ingress state (Fig. 2);
//! * every pipeline retires at most one PHV per clock cycle (line rate);
//! * pipeline state is shared-nothing — each pipeline has its own
//!   [`RegionState`];
//! * a packet reaches egress state only in the pipeline that owns its
//!   TX port (egress pinning);
//! * the only way to reshuffle flows is recirculation, which consumes an
//!   ingress slot per extra pass (the bandwidth tax of §1).

use adcp_lang::target::TargetModel;
use adcp_lang::{
    compile, CentralImpl, CompileError, CompileOptions, Entry, PacketCodec, Placement, Program,
    RegId, Region, RegionRunStats, RegionState, RegisterFile, TableError,
};
use adcp_sim::datapath::{Agenda, Fanout, Parked, Shell, ShellSpec, Slot};
use adcp_sim::metrics::HistId;
use adcp_sim::packet::{EgressSpec, Packet, PortId};
use adcp_sim::queue::Held;
use adcp_sim::sched::ScheduledQueues;
use adcp_sim::time::{Duration, SimTime, PS_PER_NS};
use adcp_sim::trace::{DropReason, HopCtx, Site};

/// The one traffic manager, mapped onto the journey model's TM1.
const TM: usize = 0;

/// Loop latency of the recirculation path.
const RECIRC_LATENCY: Duration = Duration(400 * PS_PER_NS);

/// Tuning knobs for an [`RmtSwitch`].
#[derive(Debug, Clone)]
pub struct RmtConfig {
    /// Shared TM buffer: number of cells.
    pub tm_cells: u64,
    /// Per-egress-queue depth in packets.
    pub queue_depth: usize,
    /// Retain a packet-walk trace (costs memory; used by tests/examples).
    pub trace: bool,
    /// Stamp in-band telemetry ([`adcp_sim::int`]) onto transiting
    /// packets. The `ADCP_INT` environment variable overrides it (`off`
    /// disables, `on` enables at rate 1, a number `N` samples 1-in-`N`).
    pub int: bool,
    /// Device id written into every INT stamp this switch produces.
    pub device: u16,
    /// Per-port speed overrides (port, speed) — models hosts with slower
    /// NICs than the switch's native port rate.
    pub port_speeds: Vec<(u16, adcp_sim::port::LinkSpeed)>,
}

impl Default for RmtConfig {
    fn default() -> Self {
        RmtConfig {
            tm_cells: 65_536,
            queue_depth: 512,
            trace: false,
            int: false,
            device: 0,
            port_speeds: Vec::new(),
        }
    }
}

/// Per-ingress-pipeline state.
struct IngressPipe {
    slot: Slot,
    /// Ingress-region tables (pass 0).
    state: RegionState,
    /// Central-region tables executed on recirculation passes.
    central: RegionState,
}

/// Per-egress-pipeline state.
struct EgressPipe {
    slot: Slot,
    /// Round-robin cursor over the pipe's local ports.
    port_cursor: usize,
    /// Central tables when the compiler egress-pinned them.
    central: RegionState,
    /// Egress-region tables.
    state: RegionState,
    /// The TM's queues towards this pipe, one per local port.
    queues: ScheduledQueues,
}

/// An event. A packet rides as a handle into the agenda's slab, where it
/// stays from `inject` to delivery or drop (DESIGN.md §10), so an event is
/// two words however large a `Packet` grows.
enum Ev {
    Inject { port: u16, pkt: Parked },
    IngressEnter { pipe: usize, pkt: Parked, pass: u8 },
    IngressOut { pipe: usize, pkt: Parked, pass: u8 },
    PullEgress { pipe: usize },
    EgressOut { pipe: usize, pkt: Parked },
}

const _: () = assert!(size_of::<Ev>() <= 16);
const _: () = assert!(size_of::<Held>() <= 24);

/// The RMT switch. Derefs to its [`Shell`] for the ledger (`counters`),
/// the observers (`tracer`, `latency`, `out_meter`) and the INT and
/// delivery accessors.
pub struct RmtSwitch {
    target: TargetModel,
    codec: PacketCodec,
    /// Compilation result the switch was built from.
    pub placement: Placement,
    shell: Shell,
    ingress: Vec<IngressPipe>,
    egress: Vec<EgressPipe>,
    /// Shared match-table copies, one per region. Tables are installed
    /// identically into every pipeline (`install_all` is the only install
    /// path), so pipes run against a single copy; register state — the
    /// shared-nothing part the paper's Fig. 2 argument depends on — stays
    /// per-pipe in `IngressPipe`/`EgressPipe`.
    ing_tables: RegionState,
    central_tables: RegionState,
    eg_tables: RegionState,
    agenda: Agenda<Ev>,
    period: Duration,
    /// Stage-span histograms of the two regions.
    ingress_span: HistId,
    egress_span: HistId,
}

impl std::ops::Deref for RmtSwitch {
    type Target = Shell;
    fn deref(&self) -> &Shell {
        &self.shell
    }
}

impl std::ops::DerefMut for RmtSwitch {
    fn deref_mut(&mut self) -> &mut Shell {
        &mut self.shell
    }
}

impl RmtSwitch {
    /// Build a switch for `program` on `target`, compiling with `opts`.
    pub fn new(
        program: Program,
        target: TargetModel,
        opts: CompileOptions,
        cfg: RmtConfig,
    ) -> Result<Self, CompileError> {
        let placement = compile(&program, &target, opts)?;
        let n_pipes = target.num_pipes() as usize;
        let ingress = (0..n_pipes)
            .map(|_| IngressPipe {
                slot: Slot::default(),
                state: RegionState::new(&program, Region::Ingress),
                central: RegionState::striped(&program, Region::Central, n_pipes),
            })
            .collect();
        let ppp = target.ports_per_pipe as usize;
        let egress = (0..n_pipes)
            .map(|_| EgressPipe {
                slot: Slot::default(),
                port_cursor: 0,
                central: RegionState::striped(&program, Region::Central, n_pipes),
                state: RegionState::new(&program, Region::Egress),
                queues: ScheduledQueues::new(ppp, cfg.queue_depth, program.tm2.policy),
            })
            .collect();
        let mut shell = Shell::new(ShellSpec {
            ports: target.ports,
            speed: target.port_speed(),
            port_speeds: &cfg.port_speeds,
            trace: cfg.trace,
            int: cfg.int,
            device: cfg.device,
            tm_cells: cfg.tm_cells,
            scopes: &[
                "rx", "mac", "parser", "ingress", "recirc", "tm", "egress", "deparser", "mat",
                "drops", "tx", "int",
            ],
            tms: &["tm"],
        });
        let m = shell.metrics_mut();
        let [ingress_span, egress_span] = ["ingress", "egress"].map(|s| {
            let s = m.scope(s);
            m.hist(s, "span_ps")
        });
        Ok(RmtSwitch {
            ingress_span,
            egress_span,
            ing_tables: RegionState::new(&program, Region::Ingress),
            central_tables: RegionState::new(&program, Region::Central),
            eg_tables: RegionState::new(&program, Region::Egress),
            period: target.pipe_freq().period(),
            target,
            codec: PacketCodec::new(program),
            placement,
            shell,
            ingress,
            egress,
            agenda: Agenda::default(),
        })
    }

    /// The target this switch models.
    pub fn target(&self) -> &TargetModel {
        &self.target
    }

    /// The program it runs.
    pub fn program(&self) -> &Program {
        &self.codec.program
    }

    /// Ingress pipeline serving a port.
    pub fn pipe_of_port(&self, port: PortId) -> usize {
        (port.0 / self.target.ports_per_pipe) as usize
    }

    // ---------------- control plane ----------------

    /// Install a table entry into every pipeline that hosts the table.
    pub fn install_all(&mut self, table: &str, entry: Entry) -> Result<(), TableError> {
        let gi = self.codec.table_index(table);
        let program = &self.codec.program;
        // One shared copy per region serves every pipe (the same entries
        // went everywhere before), making installs O(1) in the pipe count.
        // The central copy serves both lowerings: recirculation passes in
        // the ingress pipes and `CentralImpl::EgressPinned` egress runs.
        match program.tables[gi].region {
            Region::Ingress => self.ing_tables.install(program, gi, entry),
            Region::Central => self.central_tables.install(program, gi, entry),
            Region::Egress => self.eg_tables.install(program, gi, entry),
        }
    }

    /// Read a central-region register file as seen by one pipeline. With
    /// `CentralImpl::EgressPinned` the live copy is in the egress pipes;
    /// with `Recirculated` it is in the ingress pipes.
    pub fn central_register(&self, pipe: usize, reg: RegId) -> &RegisterFile {
        match self.placement.central_impl {
            CentralImpl::EgressPinned => self.egress[pipe].central.register(reg),
            _ => self.ingress[pipe].central.register(reg),
        }
    }

    // ---------------- data plane ----------------

    /// Offer a packet to an RX port at `t` (its first bit arrives then).
    pub fn inject(&mut self, port: PortId, mut pkt: Packet, t: SimTime) {
        self.shell.accept(port, &mut pkt, t);
        let pkt = self.agenda.park(pkt);
        self.agenda.events.push(t, Ev::Inject { port: port.0, pkt });
    }

    /// Run until no events remain; returns quiescence time — the later of
    /// the last event and the last bit serialized out a TX port.
    pub fn run_until_idle(&mut self) -> SimTime {
        let last = self.run(None);
        debug_assert_eq!(self.agenda.parked(), 0, "a packet parked past its event");
        self.shell.quiescence(last)
    }

    /// Run every event scheduled at or before `t`, then stop — lets a
    /// driver interleave chunked injection (or observation) with live
    /// traffic. Returns the time of the last handled event.
    pub fn run_until(&mut self, t: SimTime) -> SimTime {
        self.run(Some(t))
    }

    fn run(&mut self, until: Option<SimTime>) -> SimTime {
        let last = Agenda::run(self, until, |s| &mut s.agenda, Self::handle);
        // The per-pipe region stats are the truth for match-table work;
        // the ledger's two totals are their fold.
        let ingress = self
            .ingress
            .iter()
            .map(|p| [&p.state.stats, &p.central.stats]);
        let egress = self
            .egress
            .iter()
            .map(|p| [&p.central.stats, &p.state.stats]);
        let c = &mut self.shell.counters;
        (c.mat_lookups, c.mat_hits) =
            RegionRunStats::lookup_totals(ingress.chain(egress).flatten());
        last
    }

    /// Time of the switch's next pending event, if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.agenda.events.peek_time()
    }

    /// Export the per-stage metrics block: the shell's (see
    /// [`Shell::metrics_json`]) plus what only RMT has — pipeline
    /// occupancy of its two regions and the recirculation passes — each
    /// read from its owner now.
    pub fn metrics_json(&self) -> serde::Value {
        let ingress = Slot::busy_total_and_max(self.ingress.iter().map(|p| &p.slot));
        let egress = Slot::busy_total_and_max(self.egress.iter().map(|p| &p.slot));
        let counters = [
            ("ingress", "busy_cycles", ingress.0),
            ("recirc", "passes", self.shell.counters.recirc_passes),
            ("egress", "busy_cycles", egress.0),
        ];
        let gauges = [
            ("ingress", "busy_cycles_max_pipe", ingress.1),
            ("egress", "busy_cycles_max_pipe", egress.1),
        ];
        self.shell.metrics_json(&counters, &gauges)
    }

    /// Packets inside the switch: the occupancy of its packet slab.
    pub fn in_flight(&self) -> u64 {
        self.agenda.parked() as u64
    }

    /// Panic unless every injected packet is accounted for.
    pub fn check_conservation(&self) {
        self.shell.assert_conserved(self.in_flight());
    }

    /// Utilization (busy cycles / elapsed cycles) of an ingress pipeline.
    pub fn ingress_utilization(&self, pipe: usize, now: SimTime) -> f64 {
        self.ingress[pipe].slot.utilization(now, self.period)
    }

    fn handle(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::Inject { port, pkt } => self.on_inject(now, port, pkt),
            Ev::IngressEnter { pipe, pkt, pass } => self.on_ingress_enter(now, pipe, pkt, pass),
            Ev::IngressOut { pipe, pkt, pass } => self.on_ingress_out(now, pipe, pkt, pass),
            Ev::PullEgress { pipe } => self.on_pull_egress(now, pipe),
            Ev::EgressOut { pipe, pkt } => self.on_egress_out(now, pipe, pkt),
        }
    }

    /// Drop the packet `h` names at `site`: account it, free its slot.
    fn drop_at(&mut self, now: SimTime, h: Parked, site: Site, reason: DropReason) {
        let id = self.agenda.pkt(&h).meta.id;
        self.shell.drop_pkt(now, id, site, reason);
        self.agenda.free(h);
    }

    fn on_inject(&mut self, now: SimTime, port: u16, h: Parked) {
        let Some(done) = self.shell.receive(now, port, self.agenda.pkt(&h)) else {
            return self.agenda.free(h);
        };
        let pipe = self.pipe_of_port(PortId(port));
        let ev = Ev::IngressEnter {
            pipe,
            pkt: h,
            pass: 0,
        };
        self.agenda.events.push(done, ev);
    }

    /// Parse and run the pass's region, then occupy a pipeline slot.
    fn on_ingress_enter(&mut self, now: SimTime, pipe: usize, h: Parked, pass: u8) {
        let site = Site::IngressPipe(pipe);
        let Ok(depth) = self.codec.parse(self.agenda.pkt(&h)) else {
            return self.drop_at(now, h, site, DropReason::ParseError);
        };
        let parse_cost = Duration(depth as u64 * self.period.as_ps());
        self.shell.record_parse(parse_cost);
        let p = &mut self.ingress[pipe];
        let entry = p.slot.claim(now + parse_cost, self.period);
        // Run the region at entry (stage traversal is a fixed latency; the
        // state mutation order equals the slot order).
        let (state, tables, plan) = if pass == 0 {
            (&mut p.state, &self.ing_tables, &self.placement.ingress)
        } else {
            (
                &mut p.central,
                &self.central_tables,
                &self.placement.central,
            )
        };
        let c = &mut self.codec;
        state.run_with_tables(tables, &c.program, &c.layout, &mut c.phv);
        self.shell.counters.deparse_allocs += 1;
        let pkt = self.agenda.pkt(&h);
        let (central_pipe, recirculate) = c.writeback(pkt);
        // The pass's choices replace the metadata's (the ADCP keeps an
        // upstream `central_pipe`): only the recirculation edge right after
        // pass 0 reads them here, and delivered metadata shows which.
        pkt.meta.central_pipe = central_pipe;
        pkt.meta.recirculate = recirculate;
        let exit = entry + Duration(plan.depth().max(1) as u64 * self.period.as_ps());
        self.shell.hop(pkt, site, entry, exit, HopCtx::NONE);
        let ev = Ev::IngressOut { pipe, pkt: h, pass };
        self.agenda.events.push(exit, ev);
    }

    fn on_ingress_out(&mut self, now: SimTime, pipe: usize, h: Parked, pass: u8) {
        let pkt = self.agenda.pkt(&h);
        if pass == 0 {
            // Stage span: RX handoff -> first ingress pass exit (parse
            // included; recirculation passes are counted separately).
            self.shell
                .record_span(self.ingress_span, pkt.meta.arrived, now);
        }
        if pkt.meta.recirculate && pass == 0 {
            // Recirculation: loop back into the ingress pipeline that hosts
            // the coflow state (chosen by the program via central_pipe),
            // consuming one of its slots — the bandwidth tax.
            let central = pkt.meta.central_pipe;
            let pipe = central.map_or(pipe, |c| c as usize % self.ingress.len());
            pkt.meta.recirculate = false;
            pkt.meta.recirc_count += 1;
            self.shell.counters.recirc_passes += 1;
            self.shell
                .hop(pkt, Site::Recirculated, now, now, HopCtx::NONE);
            let ev = Ev::IngressEnter {
                pipe,
                pkt: h,
                pass: 1,
            };
            return self.agenda.events.push(now + RECIRC_LATENCY, ev);
        }
        // The TM replicates multicast; each copy is accounted separately.
        match self.shell.fan_out(TM, now, pkt) {
            Fanout::Dropped => self.agenda.free(h),
            Fanout::One(port) => self.tm_admit_one(now, port, h),
            Fanout::Many(ports) => {
                for port in ports {
                    let copy = self.agenda.copy(&h, port);
                    self.tm_admit_one(now, port, copy);
                }
                self.agenda.free(h);
            }
        }
    }

    fn tm_admit_one(&mut self, now: SimTime, port: PortId, h: Parked) {
        if port.0 as usize >= self.shell.n_ports() {
            return self.drop_at(now, h, Site::Tm1, DropReason::BadPort);
        }
        let pipe = self.pipe_of_port(port);
        let local = (port.0 % self.target.ports_per_pipe) as usize;
        let queues = &mut self.egress[pipe].queues;
        let pkt = self.agenda.pkt(&h);
        match self
            .shell
            .tm_admit(TM, queues, local, port.0 as u32, pkt, h, now)
        {
            Ok(()) => self.schedule_pull(now, pipe),
            Err(h) => self.agenda.free(h),
        }
    }

    fn schedule_pull(&mut self, now: SimTime, pipe: usize) {
        if let Some(at) = self.egress[pipe].slot.arm_pull(now) {
            self.agenda.events.push(at, Ev::PullEgress { pipe });
        }
    }

    fn on_pull_egress(&mut self, now: SimTime, pipe: usize) {
        if let Some(at) = self.egress[pipe].slot.begin_pull(now) {
            return self.schedule_pull(at, pipe);
        }
        // A queue may only depart when its TX port can accept the packet:
        // busy links backpressure into the TM buffer (which is where the
        // buffering physically lives). Round-robin over ready ports.
        // Overlap pipeline flight with the link: the port must be free by
        // the time the packet exits the egress stages.
        let ppp = self.target.ports_per_pipe as usize;
        let stages = self.placement.central.depth() + self.placement.egress.depth();
        let flight = stages.max(1) as u64 * self.period.as_ps();
        let p = &mut self.egress[pipe];
        let mut chosen: Option<usize> = None;
        let mut earliest_ready = SimTime::NEVER;
        for k in 0..ppp {
            let i = (p.port_cursor + k) % ppp;
            if p.queues.queue(i).is_empty() {
                continue;
            }
            let ready = self.shell.tx_ready_at(pipe * ppp + i);
            if ready.as_ps() <= now.as_ps() + flight {
                chosen = Some(i);
                break;
            }
            earliest_ready = earliest_ready.min(SimTime(ready.as_ps() - flight));
        }
        let Some(local) = chosen else {
            // Every backlogged port is mid-serialization; retry when the
            // first frees up.
            if earliest_ready != SimTime::NEVER {
                self.schedule_pull(earliest_ready, pipe);
            }
            return;
        };
        p.port_cursor = (local + 1) % ppp;
        let Some(Held { h, .. }) = p.queues.dequeue_queue(local) else {
            return;
        };
        let pkt = self.agenda.pkt(&h);
        self.shell.tm_depart(TM, pkt, now);
        // The slot is claimed here; the regions run (and mutate state) at
        // exit, in `on_egress_out`.
        let entry = p.slot.claim(now, self.period);
        let exit = entry + Duration(flight);
        let backlog = !p.queues.is_empty();
        self.shell
            .hop(pkt, Site::EgressPipe(pipe), entry, exit, HopCtx::NONE);
        self.agenda
            .events
            .push(exit, Ev::EgressOut { pipe, pkt: h });
        if backlog {
            self.schedule_pull(now, pipe);
        }
    }

    fn on_egress_out(&mut self, now: SimTime, pipe: usize, h: Parked) {
        let site = Site::EgressPipe(pipe);
        // Egress parse + region execution (no parser span: `parser.span_ps`
        // counts ingress passes only on this target).
        let pkt = self.agenda.pkt(&h);
        let c = &mut self.codec;
        if c.parse(pkt).is_err() {
            return self.drop_at(now, h, site, DropReason::ParseError);
        }
        // The TM's forwarding decision picks the TX port; the egress region
        // sees it (and may turn it into a drop) but cannot redirect.
        let dest = match pkt.meta.egress {
            EgressSpec::Unicast(p) => Some(p),
            _ => None,
        };
        c.phv.intr.egress = std::mem::take(&mut pkt.meta.egress);
        let (program, layout, phv) = (&c.program, &c.layout, &mut c.phv);
        let p = &mut self.egress[pipe];
        // Egress-pinned central tables run first (Fig. 2 lowering).
        if self.placement.central_impl == CentralImpl::EgressPinned {
            p.central
                .run_with_tables(&self.central_tables, program, layout, phv);
        }
        p.state
            .run_with_tables(&self.eg_tables, program, layout, phv);
        if phv.intr.egress == EgressSpec::Drop {
            return self.drop_at(now, h, site, DropReason::Filtered);
        }
        // Only the frame is written back: the forwarding decision was made
        // at the TM and stays `dest`.
        c.deparse(pkt);
        self.shell.counters.deparse_allocs += 1;
        let Some(port) = dest else {
            return self.drop_at(now, h, site, DropReason::NoDecision);
        };
        pkt.meta.egress = EgressSpec::Unicast(port);
        let pkt = self.agenda.take(h);
        // Egress pinning invariant: the port belongs to this pipeline.
        debug_assert_eq!(self.pipe_of_port(port), pipe, "egress pinning violated");
        self.shell.transmit(self.egress_span, now, port, pkt, None);
    }
}
