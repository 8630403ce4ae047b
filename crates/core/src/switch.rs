//! The event-driven ADCP switch model (the paper's Figure 4).
//!
//! The second wiring of the shared datapath parts (`adcp_sim::datapath`,
//! `adcp_lang::codec`; see DESIGN.md §15, "One datapath, two wirings") — RMT's
//! plus a 1:m demux, a second TM and the central slot set between the two:
//!
//! ```text
//! inject -> RX port -> 1:m demux -> ingress slot (port_rate/m clock)
//!        -> TM1 (application-defined partition + schedule)
//!        -> central slot  (the global partitioned area, §3.1)
//!        -> TM2 (classic any-port scheduler, multicast-capable)
//!        -> egress slot -> m:1 mux -> TX port -> delivered
//! ```
//!
//! This file holds only what is the ADCP's own: the demux, TM1 routing,
//! merge gating and the per-flow INT table. It wires live repartitioning
//! but does not hold it: the protocol is the `Repartitioner` in
//! `partition.rs`, called at TM1 routing, the central dequeue and the
//! drain commit; the switch keeps only the packets it holds. Each part
//! lifts one RMT limitation:
//!
//! * **Two traffic managers** create the central pipelines. State placed
//!   there by TM1 (by hash, range, or merge order — the program decides via
//!   `SetCentralPipe`/`SetSortKey`) can still be forwarded to *any* egress
//!   port by TM2, including multicast (fixes Fig. 2).
//! * **Array MAUs**: stages match array fields natively, one lane per
//!   element, against a single shared table copy (fixes Fig. 3); wide
//!   register ops aggregate whole arrays in one traversal (§3.2).
//! * **Port demultiplexing**: each port feeds `m` pipelines, so the
//!   pipeline clock is `port_rate/m` — Table 3's scaling story (§3.3).

use crate::partition::{
    MigrateError, MigrationStats, MigrationStrategy, Move, PartitionMap, Repartitioner, Route,
    Stamp,
};
use adcp_lang::target::TargetModel;
use adcp_lang::{
    compile, CompileError, CompileOptions, Entry, PacketCodec, Placement, Program, RegId, Region,
    RegionRunStats, RegionState, RegisterFile, TableError,
};
use adcp_sim::datapath::{Agenda, Fanout, Parked, Shell, ShellSpec, Slot};
use adcp_sim::int::IntFlowTable;
use adcp_sim::metrics::HistId;
use adcp_sim::packet::{EgressSpec, Packet, PortId};
use adcp_sim::queue::Held;
use adcp_sim::sched::ScheduledQueues;
use adcp_sim::time::{Duration, SimTime};
use adcp_sim::trace::{CtrlEvent, DropReason, HopCtx, Site};

/// Shell indices of the two traffic managers.
const TM1: usize = 0;
const TM2: usize = 1;

/// Slots in the central-register-resident per-flow INT aggregation table
/// (flows hash onto slots; collisions merge, as real register state would).
const INT_FLOW_CELLS: usize = 1024;

/// How the RX side spreads a port's packets over its `m` pipelines (§3.3:
/// "an application must define how to separate the packet contents").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DemuxPolicy {
    /// Alternate pipelines packet by packet (maximum load spread).
    #[default]
    RoundRobin,
    /// Pin each flow to one pipeline (preserves per-flow order end-to-end).
    FlowHash,
}

/// Tuning knobs for an [`AdcpSwitch`].
#[derive(Debug, Clone)]
pub struct AdcpConfig {
    /// Cells in each TM's shared buffer.
    pub tm_cells: u64,
    /// Per-queue depth in packets (both TMs).
    pub queue_depth: usize,
    /// RX demultiplexing policy.
    pub demux: DemuxPolicy,
    /// Retain a packet-walk trace.
    pub trace: bool,
    /// Stamp in-band telemetry ([`adcp_sim::int`]) onto transiting
    /// packets. Like `trace`, this is the config default — the `ADCP_INT`
    /// environment variable overrides it (`off` disables, `on` enables at
    /// rate 1, a number `N` enables with 1-in-`N` sampling).
    pub int: bool,
    /// Device id written into every INT stamp this switch produces. A
    /// standalone switch is device 0; a fabric assigns leaf `l` = `l` and
    /// spine `s` = `n_leaves + s`.
    pub device: u16,
    /// Per-port speed overrides (port, speed) — models hosts with slower
    /// NICs than the switch's native port rate (the Table 1 group-
    /// communication scenario).
    pub port_speeds: Vec<(u16, adcp_sim::port::LinkSpeed)>,
    /// With a `MergeOrder` TM1: how long a central pipeline may stall
    /// waiting for every un-ended input queue to present a head (the
    /// exact-merge precondition) before proceeding with the streaming
    /// approximation. Applications that want exact merges mark unused
    /// inputs ended and terminate streams with end-of-stream records.
    pub merge_patience: Duration,
    /// Inert, as are the switch's setter of the same name and
    /// `DaemonCfg::workers` in `adcpd`: central pulls always run inline on
    /// the event loop (DESIGN §10 has the measurements). The three names
    /// remain only because the frozen `benchmark/` package spells them
    /// (`driven.rs:914`, `serve.rs:47,171,288`); nothing under `crates/`
    /// reads them, and the next `benchmark` PR removes them together with
    /// those four lines.
    #[doc(hidden)]
    pub central_workers: usize,
}

impl Default for AdcpConfig {
    fn default() -> Self {
        AdcpConfig {
            tm_cells: 65_536,
            queue_depth: 512,
            demux: DemuxPolicy::default(),
            trace: false,
            int: false,
            device: 0,
            port_speeds: Vec::new(),
            merge_patience: Duration::from_us(2),
            central_workers: 1,
        }
    }
}

struct IngressPipe {
    slot: Slot,
    state: RegionState,
}

struct CentralPipe {
    slot: Slot,
    /// MergeOrder: when the current wait-for-merge-ready began.
    merge_wait_since: Option<SimTime>,
    state: RegionState,
    /// TM1's queues towards this pipe, one per ingress pipeline, so the
    /// order-preserving merge has per-input streams to merge (§3.1).
    queues: ScheduledQueues,
}

struct EgressPipe {
    slot: Slot,
    state: RegionState,
    /// TM2's queue towards this egress lane.
    queues: ScheduledQueues,
}

/// An event. A packet rides as a handle into the agenda's slab, where it
/// stays from `inject` to delivery or drop (DESIGN.md §10), so an event is
/// two words however large a `Packet` grows.
enum Ev {
    Inject {
        port: u16,
        pkt: Parked,
    },
    IngressEnter {
        pipe: usize,
        pkt: Parked,
    },
    IngressOut {
        pipe: usize,
        pkt: Parked,
    },
    PullCentral {
        cpipe: usize,
    },
    CentralOut {
        pkt: Parked,
    },
    PullEgress {
        epipe: usize,
    },
    EgressOut {
        epipe: usize,
        pkt: Parked,
    },
    /// Drain-strategy commit point: the in-flight fence has drained and the
    /// bulk copy window has elapsed — move state, install the next map,
    /// release held packets.
    MigrateCommit,
}

const _: () = assert!(size_of::<Ev>() <= 16);
const _: () = assert!(size_of::<Held>() <= 24);

/// The Application-Defined Coflow Processor. Derefs to its [`Shell`] for
/// the ledger (`counters`), the observers (`tracer`, `latency`,
/// `out_meter`) and the INT and delivery accessors.
pub struct AdcpSwitch {
    target: TargetModel,
    codec: PacketCodec,
    /// Compilation result the switch was built from.
    pub placement: Placement,
    cfg: AdcpConfig,
    shell: Shell,
    ingress: Vec<IngressPipe>,
    central: Vec<CentralPipe>,
    egress: Vec<EgressPipe>,
    /// One shared copy of the ingress-region match tables. Every ingress
    /// pipeline runs against it (tables are installed identically into all
    /// pipes, so duplicating the entries per pipe only multiplied install
    /// cost and memory); register state stays per-pipe in `IngressPipe`.
    ing_tables: RegionState,
    /// Shared egress-region match tables (same reasoning).
    eg_tables: RegionState,
    agenda: Agenda<Ev>,
    period: Duration,
    demux_rr: Vec<u16>,
    /// Central-register-resident per-flow INT aggregation (§3.1: the
    /// stateful summary the central pipes hold in register state).
    int_flows: IntFlowTable,
    /// Stage-span histograms of the three regions.
    ingress_span: HistId,
    central_span: HistId,
    egress_span: HistId,
    /// Partition-map routing and live repartitioning; `None` keeps the
    /// legacy modulo routing (and zero per-packet overhead).
    part: Option<Repartitioner>,
    /// Packets the repartitioner held at TM1, with their ingress pipe,
    /// parked until it releases them (in arrival order).
    held: Vec<(usize, Parked)>,
}

impl std::ops::Deref for AdcpSwitch {
    type Target = Shell;
    fn deref(&self) -> &Shell {
        &self.shell
    }
}

impl std::ops::DerefMut for AdcpSwitch {
    fn deref_mut(&mut self) -> &mut Shell {
        &mut self.shell
    }
}

impl AdcpSwitch {
    /// Build a switch for `program` on `target` (must be an ADCP target).
    pub fn new(
        program: Program,
        target: TargetModel,
        opts: CompileOptions,
        cfg: AdcpConfig,
    ) -> Result<Self, CompileError> {
        assert!(
            target.has_central() || !program.uses_central(),
            "ADCP targets should declare central pipelines"
        );
        let placement = compile(&program, &target, opts)?;
        let n_ing = target.num_pipes() as usize;
        let n_central = target.central_pipes.max(1) as usize;
        let ingress = (0..n_ing)
            .map(|_| IngressPipe {
                slot: Slot::default(),
                state: RegionState::new(&program, Region::Ingress),
            })
            .collect();
        let central = (0..n_central)
            .map(|_| CentralPipe {
                slot: Slot::default(),
                merge_wait_since: None,
                state: RegionState::new(&program, Region::Central),
                queues: ScheduledQueues::new(n_ing, cfg.queue_depth, program.tm1.policy),
            })
            .collect();
        let egress = (0..n_ing)
            .map(|_| EgressPipe {
                slot: Slot::default(),
                state: RegionState::new(&program, Region::Egress),
                queues: ScheduledQueues::new(1, cfg.queue_depth, program.tm2.policy),
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
                "rx", "mac", "parser", "ingress", "tm1", "central", "tm2", "egress", "deparser",
                "mat", "drops", "tx", "ctrl", "int",
            ],
            tms: &["tm1", "tm2"],
        });
        let m = shell.metrics_mut();
        let [ingress_span, central_span, egress_span] = ["ingress", "central", "egress"].map(|s| {
            let s = m.scope(s);
            m.hist(s, "span_ps")
        });
        Ok(AdcpSwitch {
            ing_tables: RegionState::new(&program, Region::Ingress),
            eg_tables: RegionState::new(&program, Region::Egress),
            period: target.pipe_freq().period(),
            demux_rr: vec![0; target.ports as usize],
            target,
            codec: PacketCodec::new(program),
            placement,
            cfg,
            shell,
            ingress,
            central,
            egress,
            agenda: Agenda::default(),
            int_flows: IntFlowTable::new(INT_FLOW_CELLS),
            ingress_span,
            central_span,
            egress_span,
            part: None,
            held: Vec::new(),
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

    /// Number of central pipelines.
    pub fn num_central(&self) -> usize {
        self.central.len()
    }

    /// The `m` ingress pipelines fed by a port (1:m demux, §3.3).
    pub fn pipes_of_port(&self, port: PortId) -> std::ops::Range<usize> {
        let m = self.target.demux_factor as usize;
        let base = port.0 as usize * m;
        base..base + m
    }

    // ---------------- control plane ----------------

    /// Install a table entry into every pipeline hosting the table.
    pub fn install_all(&mut self, table: &str, entry: Entry) -> Result<(), TableError> {
        let gi = self.codec.table_index(table);
        let program = &self.codec.program;
        match program.tables[gi].region {
            // Ingress/egress tables are installed identically everywhere, so
            // one shared copy serves every pipe — a control-plane install is
            // O(1) in the pipe count instead of cloning the entry per pipe.
            Region::Ingress => self.ing_tables.install(program, gi, entry)?,
            Region::Central => {
                // Central tables stay per-pipe: §3.1 partitions this state.
                for p in self.central.iter_mut() {
                    p.state.install(program, gi, entry.clone())?;
                }
            }
            Region::Egress => self.eg_tables.install(program, gi, entry)?,
        }
        Ok(())
    }

    /// Install an entry into a single central pipeline (the partitioned
    /// placement of §3.1: each central pipe owns a shard of the state).
    /// Out-of-range pipe indices return [`TableError::NoSuchPipe`].
    pub fn install_central_at(
        &mut self,
        cpipe: usize,
        table: &str,
        entry: Entry,
    ) -> Result<(), TableError> {
        let gi = self.codec.table_index(table);
        let have = self.central.len();
        let Some(pipe) = self.central.get_mut(cpipe) else {
            return Err(TableError::NoSuchPipe { pipe: cpipe, have });
        };
        pipe.state.install(&self.codec.program, gi, entry)
    }

    /// Read a central pipeline's register file. `None` when `cpipe` is out
    /// of range.
    pub fn central_register(&self, cpipe: usize, reg: RegId) -> Option<&RegisterFile> {
        self.central.get(cpipe).map(|p| p.state.register(reg))
    }

    /// Mutable access to a central register file (epoch resets). `None`
    /// when `cpipe` is out of range.
    pub fn central_register_mut(&mut self, cpipe: usize, reg: RegId) -> Option<&mut RegisterFile> {
        self.central
            .get_mut(cpipe)
            .map(|p| p.state.register_mut(reg))
    }

    // ---------------- partition control plane ----------------

    /// Install a partition map, switching TM1 from the legacy
    /// `key % n_central` fold to epoch-versioned bucket routing. Must be
    /// called while the switch is idle so the in-flight fence accounting
    /// starts complete; [`crate::partition::PartitionMap::uniform`] with a
    /// bucket count divisible by `num_central` reproduces the legacy
    /// routing exactly. The installed map starts at epoch 0.
    pub fn install_partition_map(&mut self, map: PartitionMap) -> Result<(), MigrateError> {
        let pipes = self.central.len() as u32;
        let mut part = Repartitioner::new(map, pipes, &self.codec.program, self.period)?;
        if self.in_flight() != 0 {
            return Err(MigrateError::NotIdle);
        }
        if let Some(old) = self.part.take() {
            // A re-installed map keeps counting the switch's totals.
            part.stats = old.stats;
        }
        self.part = Some(part);
        Ok(())
    }

    /// The installed partition map, if any.
    pub fn partition_map(&self) -> Option<&PartitionMap> {
        self.part.as_ref().map(Repartitioner::map)
    }

    /// Epoch of the map in force (0 when no map is installed).
    pub fn partition_epoch(&self) -> u64 {
        self.partition_map().map_or(0, |m| m.epoch)
    }

    /// Packets routed per bucket since the current map took effect — the
    /// per-shard load signal a controller rebalances on.
    pub fn bucket_loads(&self) -> Option<&[u64]> {
        self.part.as_ref().map(Repartitioner::bucket_loads)
    }

    /// True while a migration is in progress (drain awaiting commit, or
    /// incremental awaiting `finalize_migration`).
    pub fn migration_active(&self) -> bool {
        self.part.as_ref().is_some_and(Repartitioner::active)
    }

    /// Inert; the last field of [`AdcpConfig`] says why it is still here.
    #[doc(hidden)]
    pub fn set_central_workers(&mut self, _n: usize) {}

    /// Distinct central pipes owning at least one partition bucket under
    /// the map in force — the autoscaler's "active" pipe count. Falls back
    /// to the physical pipe count when no map is installed (every pipe is
    /// addressable then).
    pub fn active_central_pipes(&self) -> usize {
        (self.partition_map()).map_or(self.num_central(), |m| m.active_pipes() as usize)
    }

    /// Migration totals (the `ctrl` scope of the metrics export).
    pub fn migration_stats(&self) -> &MigrationStats {
        self.part
            .as_ref()
            .map_or(&MigrationStats::NONE, Repartitioner::stats)
    }

    /// Begin migrating to `next` under live traffic.
    ///
    /// **Drain**: packets for moving buckets are held at TM1; once every
    /// already-queued packet of those buckets has been processed by its old
    /// owner (the in-flight *fence*) and the bulk copy window has elapsed,
    /// state moves, the new map (epoch + 1) takes effect, and held packets
    /// are released in arrival order. Completion is event-driven — just
    /// keep running the switch.
    ///
    /// **Incremental**: the new map takes effect immediately; packets for
    /// not-yet-copied buckets are held only while the fence drains, after
    /// which the first packet to touch a bucket pays that bucket's copy
    /// cost (copy-on-first-touch against the redirect table). Call
    /// [`AdcpSwitch::finalize_migration`] to bulk-copy whatever was never
    /// touched.
    pub fn begin_migration(
        &mut self,
        next: PartitionMap,
        strategy: MigrationStrategy,
    ) -> Result<(), MigrateError> {
        let now = self.agenda.events.now();
        let part = self.part.as_mut().ok_or(MigrateError::NoMap)?;
        let epoch = part.map().epoch + 1;
        if let Some(at) = part.begin(next, strategy, now)? {
            self.agenda.events.push(at, Ev::MigrateCommit);
        }
        // Control-plane instants on the `ctrl` track. For the incremental
        // strategy the new map (and its epoch) takes effect immediately;
        // drain bumps the epoch only at commit time.
        let incremental = strategy == MigrationStrategy::Incremental;
        let strategy = if incremental { "incremental" } else { "drain" };
        let tracer = &mut self.shell.tracer;
        tracer.record_ctrl(now, CtrlEvent::MigrationBegin { strategy, epoch });
        if incremental {
            tracer.record_ctrl(now, CtrlEvent::EpochBump { epoch });
        }
        Ok(())
    }

    /// Complete an incremental migration by bulk-copying every bucket that
    /// was never touched. Errors: [`MigrateError::Busy`] while the fence is
    /// still draining (keep running), [`MigrateError::InProgress`] for a
    /// drain migration (its commit is event-driven), and
    /// [`MigrateError::NoMigration`] when nothing is in progress.
    pub fn finalize_migration(&mut self) -> Result<(), MigrateError> {
        let moves = self.part.as_mut().ok_or(MigrateError::NoMap)?.finalize()?;
        let now = self.agenda.events.now();
        self.apply_moves(&moves);
        // Defensive: a pending release is normally drained by the event
        // loop before control-plane code can run, but never strand a held
        // packet — the cells just moved, so plain routing is consistent.
        self.release_held(now);
        let (epoch, moved_keys) = (self.partition_epoch(), moves.len() as u64);
        let finalize = CtrlEvent::MigrationFinalize { epoch, moved_keys };
        self.shell.tracer.record_ctrl(now, finalize);
        Ok(())
    }

    /// Move cells between central pipes via the control-plane
    /// extract/restore path (does not count as data-plane register ops).
    fn apply_moves(&mut self, moves: &[Move]) {
        let central = &mut self.central;
        for &(reg, cell, from, to) in moves {
            let v = central[from as usize].state.register_mut(reg).extract(cell);
            central[to as usize]
                .state
                .register_mut(reg)
                .restore(cell, v);
        }
    }

    /// Route every held packet through TM1 again, in arrival order.
    fn release_held(&mut self, now: SimTime) {
        for (pipe, h) in std::mem::take(&mut self.held) {
            self.tm1_route(now, pipe, h);
        }
    }

    /// Declare that ingress pipe `ipipe` will send no more packets to
    /// central pipe `cpipe` (releases an exact order-preserving merge).
    pub fn tm1_mark_ended(&mut self, cpipe: usize, ipipe: usize) {
        self.central[cpipe].queues.mark_ended(ipipe);
    }

    // ---------------- data plane ----------------

    /// Offer a packet to an RX port at `t`.
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

    /// Run every event scheduled at or before `t`, then stop — the hook a
    /// control loop uses to interleave observation and reconfiguration
    /// with live traffic. Returns the time of the last handled event.
    pub fn run_until(&mut self, t: SimTime) -> SimTime {
        self.run(Some(t))
    }

    fn run(&mut self, until: Option<SimTime>) -> SimTime {
        let last = Agenda::run(self, until, |s| &mut s.agenda, Self::handle);
        // The per-pipe region stats are the truth for match-table work;
        // the ledger's two totals are their fold.
        let stats = (self.ingress.iter().map(|p| &p.state.stats))
            .chain(self.central.iter().map(|p| &p.state.stats))
            .chain(self.egress.iter().map(|p| &p.state.stats));
        let c = &mut self.shell.counters;
        (c.mat_lookups, c.mat_hits) = RegionRunStats::lookup_totals(stats);
        last
    }

    /// Export the per-stage metrics block: the shell's (see
    /// [`Shell::metrics_json`]) plus what only the ADCP has — pipeline
    /// occupancy of the three regions, the `ctrl` scope and the per-flow
    /// INT aggregation — each read from its owner now.
    pub fn metrics_json(&self) -> serde::Value {
        let ingress = Slot::busy_total_and_max(self.ingress.iter().map(|p| &p.slot));
        let central = Slot::busy_total_and_max(self.central.iter().map(|p| &p.slot));
        let egress = Slot::busy_total_and_max(self.egress.iter().map(|p| &p.slot));
        let mig = self.migration_stats();
        let counters = [
            ("ingress", "busy_cycles", ingress.0),
            ("central", "busy_cycles", central.0),
            ("egress", "busy_cycles", egress.0),
            ("ctrl", "migrations", mig.migrations),
            ("ctrl", "moved_keys", mig.moved_keys),
            ("ctrl", "paused_ns", mig.paused_ns),
            ("ctrl", "redirected_pkts", mig.redirected_pkts),
            ("ctrl", "held_pkts", mig.held_pkts),
            ("ctrl", "misroutes", mig.misroutes),
            ("int", "path_changes", self.int_flows.total_path_changes()),
        ];
        let gauges = [
            ("ingress", "busy_cycles_max_pipe", ingress.1),
            ("central", "busy_cycles_max_pipe", central.1),
            ("egress", "busy_cycles_max_pipe", egress.1),
            ("ctrl", "epoch", self.partition_epoch()),
            ("int", "active_flow_cells", self.int_flows.active_cells()),
        ];
        self.shell.metrics_json(&counters, &gauges)
    }

    /// Time of the switch's next pending event, if any. A fabric driving
    /// loop takes the minimum of these to open its next lookahead window
    /// (see the `adcp-fabric` crate).
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.agenda.events.peek_time()
    }

    /// Events scheduled on the switch's queue since it was built.
    pub fn events_scheduled(&self) -> u64 {
        self.agenda.events.scheduled
    }

    /// Packets inside the switch: the occupancy of its packet slab.
    pub fn in_flight(&self) -> u64 {
        self.agenda.parked() as u64
    }

    /// Panic unless every packet is accounted for.
    pub fn check_conservation(&self) {
        self.shell.assert_conserved(self.in_flight());
    }

    /// Busy cycles of one ingress pipeline (demux spread checks).
    pub fn ingress_busy_cycles(&self, pipe: usize) -> u64 {
        self.ingress[pipe].slot.busy_cycles()
    }

    /// Busy cycles of one central pipeline (partition balance checks).
    pub fn central_busy_cycles(&self, cpipe: usize) -> u64 {
        self.central[cpipe].slot.busy_cycles()
    }

    fn handle(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::Inject { port, pkt } => self.on_inject(now, port, pkt),
            Ev::IngressEnter { pipe, pkt } => self.on_ingress_enter(now, pipe, pkt),
            Ev::IngressOut { pipe, pkt } => self.on_ingress_out(now, pipe, pkt),
            Ev::PullCentral { cpipe } => self.on_pull_central(now, cpipe),
            Ev::CentralOut { pkt } => self.on_central_out(now, pkt),
            Ev::PullEgress { epipe } => self.on_pull_egress(now, epipe),
            Ev::EgressOut { epipe, pkt } => self.on_egress_out(now, epipe, pkt),
            Ev::MigrateCommit => self.on_migrate_commit(now),
        }
    }

    /// Drop the packet `h` names at `site`: account it, free its slot.
    fn drop_at(&mut self, now: SimTime, h: Parked, site: Site, reason: DropReason) {
        let id = self.agenda.pkt(&h).meta.id;
        self.shell.drop_pkt(now, id, site, reason);
        self.agenda.free(h);
    }

    fn on_inject(&mut self, now: SimTime, port: u16, h: Parked) {
        let pkt = self.agenda.pkt(&h);
        let Some(done) = self.shell.receive(now, port, pkt) else {
            return self.agenda.free(h);
        };
        // 1:m demultiplex (§3.3).
        let m = self.target.demux_factor as usize;
        let lane = match self.cfg.demux {
            DemuxPolicy::RoundRobin => {
                let l = self.demux_rr[port as usize] as usize % m;
                self.demux_rr[port as usize] = self.demux_rr[port as usize].wrapping_add(1);
                l
            }
            DemuxPolicy::FlowHash => (adcp_lang::fold_hash([pkt.meta.flow.0]) % m as u64) as usize,
        };
        let pipe = port as usize * m + lane;
        let ev = Ev::IngressEnter { pipe, pkt: h };
        self.agenda.events.push(done, ev);
    }

    /// Parse, run ingress region, occupy a slot, deparse.
    fn on_ingress_enter(&mut self, now: SimTime, pipe: usize, h: Parked) {
        let site = Site::IngressPipe(pipe);
        let Ok(depth) = self.codec.parse(self.agenda.pkt(&h)) else {
            return self.drop_at(now, h, site, DropReason::ParseError);
        };
        let parse_cost = Duration(depth as u64 * self.period.as_ps());
        self.shell.record_parse(parse_cost);
        let p = &mut self.ingress[pipe];
        let entry = p.slot.claim(now + parse_cost, self.period);
        let c = &mut self.codec;
        p.state
            .run_with_tables(&self.ing_tables, &c.program, &c.layout, &mut c.phv);
        let pkt = self.agenda.pkt(&h);
        writeback(&mut self.shell, c, pkt);
        let stages = self.placement.ingress.depth().max(1) as u64;
        let exit = entry + Duration(stages * self.period.as_ps());
        self.shell.hop(pkt, site, entry, exit, HopCtx::NONE);
        self.agenda
            .events
            .push(exit, Ev::IngressOut { pipe, pkt: h });
    }

    /// TM1: application-defined partitioning into central pipelines.
    fn on_ingress_out(&mut self, now: SimTime, pipe: usize, h: Parked) {
        let pkt = self.agenda.pkt(&h);
        // Stage span: RX handoff -> ingress pipeline exit (parse included).
        self.shell
            .record_span(self.ingress_span, pkt.meta.arrived, now);
        if pkt.meta.egress == EgressSpec::Drop {
            return self.drop_at(now, h, Site::Tm1, DropReason::Filtered);
        }
        self.tm1_route(now, pipe, h);
    }

    /// Route one packet through TM1 into a central queue. Split out of
    /// [`AdcpSwitch::on_ingress_out`] because migrations re-enter it when
    /// held packets are released.
    fn tm1_route(&mut self, now: SimTime, pipe: usize, h: Parked) {
        // Partition criterion: the program's `SetCentralPipe` value
        // (pre-modulo) is the logical partition key, else the flow hash.
        // This is the "reshuffle by ranges or hashes" role of the first TM.
        let meta = &self.agenda.pkt(&h).meta;
        let key = meta
            .central_pipe
            .map(u64::from)
            .unwrap_or_else(|| adcp_lang::fold_hash([meta.flow.0]));
        let (cpipe, stamp) = match self.part.as_mut().map(|p| p.route(key)) {
            None => ((key % self.central.len() as u64) as usize, None),
            Some(Route::Hold) => return self.held.push((pipe, h)),
            Some(Route::To { owner, stamp }) => (owner as usize, Some(stamp)),
            // The new owner's pipe pays the copy window: the triggering
            // packet, and anything behind it, waits it out in-queue, so
            // per-key order is preserved.
            Some(Route::FirstTouch {
                owner,
                stamp,
                moves,
                stall,
            }) => {
                self.apply_moves(&moves);
                self.central[owner as usize].slot.stall(now, stall);
                (owner as usize, Some(stamp))
            }
        };
        let pkt = self.agenda.pkt(&h);
        if let Some(Stamp { bucket, epoch }) = stamp {
            pkt.meta.part_bucket = Some(bucket);
            pkt.meta.map_epoch = Some(epoch);
        }
        let queues = &mut self.central[cpipe].queues;
        match self
            .shell
            .tm_admit(TM1, queues, pipe, cpipe as u32, pkt, h, now)
        {
            Ok(()) => {
                if let (Some(part), Some(stamp)) = (&mut self.part, stamp) {
                    part.admitted(stamp);
                }
                self.schedule_pull_central(now, cpipe)
            }
            Err(h) => self.agenda.free(h),
        }
    }

    /// Drain-strategy commit: move all cells, install the next map
    /// (epoch + 1), release held packets.
    fn on_migrate_commit(&mut self, now: SimTime) {
        let Some(moves) = self.part.as_mut().and_then(|p| p.commit(now)) else {
            return;
        };
        self.apply_moves(&moves);
        let (epoch, moved_keys) = (self.partition_epoch(), moves.len() as u64);
        let tracer = &mut self.shell.tracer;
        tracer.record_ctrl(now, CtrlEvent::MigrationCommit { epoch, moved_keys });
        tracer.record_ctrl(now, CtrlEvent::EpochBump { epoch });
        // Release inline, in arrival order, before any later event can
        // route — preserves per-key FIFO through the pause.
        self.release_held(now);
    }

    fn schedule_pull_central(&mut self, now: SimTime, cpipe: usize) {
        if let Some(at) = self.central[cpipe].slot.arm_pull(now) {
            self.agenda.events.push(at, Ev::PullCentral { cpipe });
        }
    }

    /// Pull from TM1 into a central pipe; the pipe parses and runs its
    /// region here, at slot entry.
    fn on_pull_central(&mut self, now: SimTime, cpipe: usize) {
        let p = &mut self.central[cpipe];
        if let Some(at) = p.slot.begin_pull(now) {
            return self.schedule_pull_central(at, cpipe);
        }
        // Exact-merge gating (§3.1): under MergeOrder, wait (bounded) for
        // every un-ended input queue to have a head before departing the
        // global minimum. Streams signal completion via mark_ended or by
        // ending with a max-key record.
        if self.codec.program.tm1.policy == adcp_sim::sched::Policy::MergeOrder
            && !p.queues.is_empty()
            && !p.queues.merge_ready()
        {
            let since = *p.merge_wait_since.get_or_insert(now);
            if now.saturating_since(since) < self.cfg.merge_patience {
                return self.schedule_pull_central(now + self.period, cpipe);
            }
            // Patience exhausted: fall through to the streaming
            // approximation so the switch can never deadlock.
        }
        p.merge_wait_since = None;
        let Some((_, Held { h, .. })) = p.queues.dequeue() else {
            return;
        };
        let pkt = self.agenda.pkt(&h);
        self.shell.tm_depart(TM1, pkt, now);
        // Fence/epoch accounting happens exactly when the old owner consumes
        // the packet (its register updates land in this event). A fence
        // this drains releases the held packets only once those updates
        // are in — after the region run, or before the drop on a parse
        // error: a released packet's first-touch copy must not move the
        // cells under this packet's pending update.
        let release = match (&mut self.part, pkt.meta.part_bucket, pkt.meta.map_epoch) {
            (Some(part), Some(bucket), Some(epoch)) => {
                let d = part.on_dequeue(Stamp { bucket, epoch }, cpipe as u32, now);
                if let Some(at) = d.commit_at {
                    self.agenda.events.push(at, Ev::MigrateCommit);
                }
                d.release
            }
            _ => false,
        };
        let site = Site::CentralPipe(cpipe);
        let pkt = self.agenda.pkt(&h);
        let Ok(depth) = self.codec.parse(pkt) else {
            // No slot claimed, no region run.
            if release {
                self.release_held(now);
            }
            return self.drop_at(now, h, site, DropReason::ParseError);
        };
        // Move (not clone) the forwarding decision into the PHV; writeback
        // moves it back.
        self.codec.phv.intr.egress = std::mem::take(&mut pkt.meta.egress);
        let p = &mut self.central[cpipe];
        let entry = p.slot.claim(now, self.period);
        let c = &mut self.codec;
        p.state.run(&c.program, &c.layout, &mut c.phv);
        // Releasing routes through TM1 and parses nothing, so the codec's
        // PHV is still this packet's.
        if release {
            self.release_held(now);
        }
        self.shell
            .record_parse(Duration(depth as u64 * self.period.as_ps()));
        let pkt = self.agenda.pkt(&h);
        writeback(&mut self.shell, &mut self.codec, pkt);
        let stages = self.placement.central.depth().max(1) as u64;
        let exit = entry + Duration(stages * self.period.as_ps());
        let ctx = HopCtx {
            epoch: pkt.meta.map_epoch,
            ..HopCtx::NONE
        };
        self.shell.hop(pkt, site, entry, exit, ctx);
        self.agenda.events.push(exit, Ev::CentralOut { pkt: h });
        if !self.central[cpipe].queues.is_empty() {
            self.schedule_pull_central(now, cpipe);
        }
    }

    /// TM2: classic scheduler; any egress port reachable, multicast native.
    fn on_central_out(&mut self, now: SimTime, h: Parked) {
        let pkt = self.agenda.pkt(&h);
        // Stage span: central pipeline entry -> exit.
        self.shell
            .record_span(self.central_span, pkt.meta.tm_enqueued, now);
        match self.shell.fan_out(TM2, now, pkt) {
            Fanout::Dropped => self.agenda.free(h),
            Fanout::One(port) => self.tm2_admit_one(now, port, h),
            Fanout::Many(ports) => {
                for port in ports {
                    let copy = self.agenda.copy(&h, port);
                    self.tm2_admit_one(now, port, copy);
                }
                self.agenda.free(h);
            }
        }
    }

    fn tm2_admit_one(&mut self, now: SimTime, port: PortId, h: Parked) {
        if port.0 as usize >= self.shell.n_ports() {
            return self.drop_at(now, h, Site::Tm2, DropReason::BadPort);
        }
        // The m:1 mux at TX must preserve ordering (§3.3's symmetry with
        // the RX demux). Per-flow traffic stays ordered by pinning each
        // flow to one of the port's m egress pipelines; a stream that TM1
        // merge-ordered (it carries a sort key) is ordered *across* flows,
        // so the whole coflow shares one lane.
        let pkt = self.agenda.pkt(&h);
        let m = self.target.demux_factor as usize;
        let lane_key = if pkt.meta.sort_key.is_some() {
            pkt.meta.coflow.map(|c| c.0 as u64).unwrap_or(0)
        } else {
            pkt.meta.flow.0
        };
        let lane = (adcp_lang::fold_hash([lane_key]) % m as u64) as usize;
        let epipe = port.0 as usize * m + lane;
        let queues = &mut self.egress[epipe].queues;
        match self
            .shell
            .tm_admit(TM2, queues, 0, epipe as u32, pkt, h, now)
        {
            Ok(()) => self.schedule_pull_egress(now, epipe),
            Err(h) => self.agenda.free(h),
        }
    }

    fn schedule_pull_egress(&mut self, now: SimTime, epipe: usize) {
        if let Some(at) = self.egress[epipe].slot.arm_pull(now) {
            self.agenda.events.push(at, Ev::PullEgress { epipe });
        }
    }

    /// Pull from TM2 into an egress lane; the lane parses and runs its
    /// region here, at slot entry.
    fn on_pull_egress(&mut self, now: SimTime, epipe: usize) {
        if let Some(at) = self.egress[epipe].slot.begin_pull(now) {
            return self.schedule_pull_egress(at, epipe);
        }
        // Busy links backpressure into TM2: the pipe only pulls when its
        // port will be able to accept the packet by the time it has
        // traversed the egress stages (pipeline/serialization overlap).
        let port = epipe / self.target.demux_factor as usize;
        let flight = Duration(self.placement.egress.depth().max(1) as u64 * self.period.as_ps());
        let ready = self.shell.tx_ready_at(port);
        let p = &mut self.egress[epipe];
        if !p.queues.is_empty() && ready > now + flight {
            return self.schedule_pull_egress(SimTime(ready.as_ps() - flight.as_ps()), epipe);
        }
        let Some((_, Held { h, .. })) = p.queues.dequeue() else {
            return;
        };
        let pkt = self.agenda.pkt(&h);
        self.shell.tm_depart(TM2, pkt, now);
        let site = Site::EgressPipe(epipe);
        let Ok(depth) = self.codec.parse(pkt) else {
            return self.drop_at(now, h, site, DropReason::ParseError);
        };
        self.shell
            .record_parse(Duration(depth as u64 * self.period.as_ps()));
        let c = &mut self.codec;
        c.phv.intr.egress = std::mem::take(&mut pkt.meta.egress);
        let p = &mut self.egress[epipe];
        let entry = p.slot.claim(now, self.period);
        p.state
            .run_with_tables(&self.eg_tables, &c.program, &c.layout, &mut c.phv);
        writeback(&mut self.shell, c, pkt);
        let exit = entry + flight;
        self.shell.hop(pkt, site, entry, exit, HopCtx::NONE);
        self.agenda
            .events
            .push(exit, Ev::EgressOut { epipe, pkt: h });
        if !self.egress[epipe].queues.is_empty() {
            self.schedule_pull_egress(now, epipe);
        }
    }

    fn on_egress_out(&mut self, now: SimTime, epipe: usize, h: Parked) {
        let site = Site::EgressPipe(epipe);
        let port = match self.agenda.pkt(&h).meta.egress {
            EgressSpec::Unicast(port) => port,
            EgressSpec::Drop => return self.drop_at(now, h, site, DropReason::Filtered),
            _ => return self.drop_at(now, h, site, DropReason::NoDecision),
        };
        // Sink side of INT: fold the completed stack into the per-flow
        // aggregation cell before the postcard leaves.
        let pkt = self.agenda.take(h);
        let flows = &mut self.int_flows;
        self.shell
            .transmit(self.egress_span, now, port, pkt, Some(flows));
    }
}

/// Write a traversal back into `pkt` (counted as a writeback pass). A
/// pipeline that names no central pipe keeps the one chosen upstream: TM1
/// routed on it, and later stages must not erase it.
fn writeback(shell: &mut Shell, codec: &mut PacketCodec, pkt: &mut Packet) {
    shell.counters.deparse_allocs += 1;
    let (central_pipe, _) = codec.writeback(pkt);
    pkt.meta.central_pipe = central_pipe.or(pkt.meta.central_pipe);
}
