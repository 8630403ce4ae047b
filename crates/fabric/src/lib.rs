//! # adcp-fabric — a leaf–spine network of ADCP switches
//!
//! Every experiment below this crate runs **one** switch in isolation; the
//! paper's ambition (and ROADMAP item 2) is a network. This crate wires
//! [`adcp_core::AdcpSwitch`] instances into a leaf–spine fabric:
//!
//! * **Topology** — `n_leaves` leaf switches host the endpoints (ports
//!   `0..hosts_per_leaf` per leaf) and connect to every one of `n_spines`
//!   spine switches; the spines are stateless gk-range routers.
//! * **Links** — [`adcp_sim::Link`]: store-and-forward serialization at the
//!   link rate plus strictly positive propagation latency, with FCS-sealed
//!   frames re-verified by the receiving switch's RX stage.
//! * **Placement** — [`adcp_lang::fabric::place`] splits one logical
//!   program's global partitioned area across the leaves by steer-key
//!   range; ownership comes from the same `adcp-ctrl` planners that
//!   balance central pipelines inside a single switch ([`plan_owners`]).
//! * **Driving loop** — each member switch keeps its own calendar queue;
//!   [`Fabric::run_until_idle`] runs in conservative windows. A round
//!   takes `t0`, the earliest pending event or held arrival, advances
//!   every switch to `t0 + L − 1 ps` (`L` the link latency: nothing sent
//!   at or after `t0` arrives sooner), then exchanges link traffic once.
//!   A crossing waits in its receiver's inbox and enters after every
//!   event before its arrival time and ahead of any at it, same-time
//!   arrivals in link order, so where windows or `run_until` slices fall
//!   never reorders a switch's events.
//!
//! The conformance harness (`adcp-bench`) runs every seeded random program
//! on this fabric *and* on a single big switch and requires bit-identical
//! delivered frames, counters, and merged register state.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use adcp_core::{AdcpConfig, AdcpSwitch, Delivered, PartitionMap};
use adcp_ctrl::plan_scale_to;
use adcp_lang::compile::{CompileError, CompileOptions};
use adcp_lang::fabric::{place, FabricSpec, PlaceError};
use adcp_lang::registers::RegId;
use adcp_lang::table::{Entry, TableError};
use adcp_lang::{fold_hash, Program, TargetModel};
use adcp_sim::int::Postcard;
use adcp_sim::time::{Duration, SimTime};
use adcp_sim::{FlowId, Link, LinkSpeed, Packet, PortId, SimRng};

pub use adcp_lang::fabric as placement;

/// Knobs for a fabric instance.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Rate of every inter-switch link.
    pub link_speed: LinkSpeed,
    /// Propagation latency of every inter-switch link (must be > 0).
    pub link_latency: Duration,
    /// Per-switch configuration (buffering, demux, tracing, INT, …).
    pub switch: AdcpConfig,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            link_speed: LinkSpeed::gbps(400),
            link_latency: Duration::from_ns(200),
            switch: AdcpConfig::default(),
        }
    }
}

/// Why a fabric could not be built.
#[derive(Debug)]
pub enum FabricError {
    /// The placement pass rejected the program or the fabric shape.
    Place(PlaceError),
    /// A per-device program did not compile for its target.
    Compile(CompileError),
    /// A synthesized steering entry failed to install.
    Install {
        /// Device it failed on (`leaf N` / `spine N`).
        device: String,
        /// Table the entry targeted.
        table: String,
        /// The underlying error.
        error: TableError,
    },
}

impl From<PlaceError> for FabricError {
    fn from(e: PlaceError) -> Self {
        FabricError::Place(e)
    }
}

impl From<CompileError> for FabricError {
    fn from(e: CompileError) -> Self {
        FabricError::Compile(e)
    }
}

/// Deterministic per-switch counter summary (serialized in reports).
#[derive(Debug, Clone, serde::Serialize)]
pub struct SwitchReport {
    /// Device name (`leaf0`, `spine1`, …).
    pub device: String,
    /// Frames offered to RX ports.
    pub injected: u64,
    /// Frames fully serialized out of TX ports.
    pub delivered: u64,
    /// Every typed drop, summed.
    pub drops: u64,
    /// FCS verification failures.
    pub fcs_drops: u64,
    /// Frames dropped by an explicit program decision.
    pub filtered: u64,
    /// Frames that reached egress with no forwarding decision.
    pub no_decision: u64,
    /// MAT lookups (lanes count individually).
    pub mat_lookups: u64,
    /// MAT lookups that hit.
    pub mat_hits: u64,
}

/// Retained link-crossing records per fabric run (bounded; the count of
/// crossings past the cap is kept so nothing truncates silently).
const CROSSINGS_CAP: usize = 65_536;

/// One frame crossing an inter-switch link — the raw material for
/// Chrome-trace flow events and collector path edges. Recorded only while
/// the journey tracer or INT stamping is active (zero cost otherwise).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crossing {
    /// Packet id.
    pub pkt: u64,
    /// Flow id.
    pub flow: u64,
    /// Transmitting device (leaf `l` = `l`, spine `s` = `n_leaves + s`).
    pub from_device: u16,
    /// Receiving device.
    pub to_device: u16,
    /// Last bit out of the transmitting switch.
    pub depart: SimTime,
    /// First instant the receiving switch may see the frame.
    pub arrive: SimTime,
}

/// One direction of one cable, for reports.
#[derive(Debug, Clone, serde::Serialize)]
pub struct LinkReport {
    /// `leafN->spineM` or `spineM->leafN`.
    pub name: String,
    /// Frames carried.
    pub frames: u64,
    /// Wire bytes carried.
    pub wire_bytes: u64,
}

/// Everything observable about a finished fabric run, in a deterministic
/// serialization order (the observer-noninterference test compares these
/// byte for byte with every observability knob off and on).
#[derive(Debug, Clone, serde::Serialize)]
pub struct FabricReport {
    /// Frames injected at host ports.
    pub host_injected: u64,
    /// Frames delivered to host ports.
    pub host_delivered: u64,
    /// Frames that crossed an inter-switch link.
    pub forwarded: u64,
    /// Per-leaf counters.
    pub leaves: Vec<SwitchReport>,
    /// Per-spine counters.
    pub spines: Vec<SwitchReport>,
    /// Per-link traffic.
    pub links: Vec<LinkReport>,
    /// Order-sensitive digest of every host-delivered frame
    /// (port, time, id, payload bytes).
    pub delivered_digest: u64,
    /// Digest of every central register cell on every leaf.
    pub register_digest: u64,
}

/// A frame on a link, held until its receiver is advanced to it. The link
/// is named by its sending device, `c.from_device`.
struct Arrival {
    c: Crossing,
    /// The receiver's RX port.
    port: PortId,
    pkt: Packet,
}

/// A leaf–spine fabric of ADCP switches running one placed program.
pub struct Fabric {
    spec: FabricSpec,
    leaves: Vec<AdcpSwitch>,
    spines: Vec<AdcpSwitch>,
    /// `up[l][s]`: leaf `l` → spine `s`. `down[s][l]`: spine `s` → leaf `l`.
    up: Vec<Vec<Link>>,
    down: Vec<Vec<Link>>,
    /// The minimum link latency: what a device sends at `t` reaches no
    /// peer before `t + lookahead`.
    lookahead: Duration,
    /// Per device (leaves, then spines): arrivals still on their link,
    /// sorted by `(arrive, link)`.
    inbox: Vec<Vec<Arrival>>,
    /// The one buffer every device's deliveries are drained through.
    outbox: Vec<Delivered>,
    host_injected: u64,
    host_delivered: u64,
    forwarded: u64,
    delivered: Vec<Delivered>,
    /// Record link crossings (true while tracing or INT stamping is on).
    record_crossings: bool,
    crossings: Vec<Crossing>,
    crossings_truncated: u64,
}

impl Fabric {
    /// Build the fabric: place `program` onto `spec`, instantiate one ADCP
    /// switch per leaf and spine (leaf ports = host slots + uplinks; spine
    /// port `l` faces leaf `l`), connect every leaf–spine pair with a pair
    /// of directed links, and install the synthesized steering entries.
    ///
    /// The *original* program's entries still need to be installed with
    /// [`Fabric::install_all`], verbatim, exactly as on a single switch.
    pub fn new(
        program: &Program,
        spec: FabricSpec,
        cfg: FabricConfig,
    ) -> Result<Self, FabricError> {
        let placed = place(program, &spec)?;
        let leaf_target = TargetModel {
            ports: spec.leaf_ports() as u16,
            name: "adcp-leaf".into(),
            ..TargetModel::adcp_reference()
        };
        let spine_target = TargetModel {
            ports: spec.n_leaves as u16,
            name: "adcp-spine".into(),
            ..TargetModel::adcp_reference()
        };
        let mut leaves = Vec::new();
        for (l, installs) in placed.leaf_installs.iter().enumerate() {
            // Fabric-unique INT device ids: leaf `l` = `l`,
            // spine `s` = `n_leaves + s`.
            let mut swcfg = cfg.switch.clone();
            swcfg.device = l as u16;
            let mut sw = AdcpSwitch::new(
                placed.leaf_program.clone(),
                leaf_target.clone(),
                CompileOptions::default(),
                swcfg,
            )?;
            for (table, entry) in installs {
                sw.install_all(table, entry.clone())
                    .map_err(|error| FabricError::Install {
                        device: format!("leaf{l}"),
                        table: table.clone(),
                        error,
                    })?;
            }
            leaves.push(sw);
        }
        let mut spines = Vec::new();
        for s in 0..spec.n_spines {
            let mut swcfg = cfg.switch.clone();
            swcfg.device = (spec.n_leaves + s) as u16;
            let mut sw = AdcpSwitch::new(
                placed.spine_program.clone(),
                spine_target.clone(),
                CompileOptions::default(),
                swcfg,
            )?;
            for (table, entry) in &placed.spine_installs {
                sw.install_all(table, entry.clone())
                    .map_err(|error| FabricError::Install {
                        device: format!("spine{s}"),
                        table: table.clone(),
                        error,
                    })?;
            }
            spines.push(sw);
        }
        let up = (0..spec.n_leaves)
            .map(|_| {
                (0..spec.n_spines)
                    .map(|_| Link::new(cfg.link_speed, cfg.link_latency))
                    .collect()
            })
            .collect();
        let down = (0..spec.n_spines)
            .map(|_| {
                (0..spec.n_leaves)
                    .map(|_| Link::new(cfg.link_speed, cfg.link_latency))
                    .collect()
            })
            .collect();
        // Crossings feed Chrome-trace flow events and collector path
        // edges; both consumers are driven by the (env-resolved) tracer
        // and INT knobs, so record only when one of them is live.
        let record_crossings = leaves
            .iter()
            .any(|sw| sw.tracer.hops_on() || sw.int_knob().on());
        let inbox = (0..leaves.len() + spines.len())
            .map(|_| Vec::new())
            .collect();
        Ok(Fabric {
            spec,
            leaves,
            spines,
            up,
            down,
            lookahead: cfg.link_latency,
            inbox,
            outbox: Vec::new(),
            host_injected: 0,
            host_delivered: 0,
            forwarded: 0,
            delivered: Vec::new(),
            record_crossings,
            crossings: Vec::new(),
            crossings_truncated: 0,
        })
    }

    /// The fabric shape and ownership this instance was built with.
    pub fn spec(&self) -> &FabricSpec {
        &self.spec
    }

    /// Leaf switch `l`.
    pub fn leaf(&self, l: usize) -> &AdcpSwitch {
        &self.leaves[l]
    }

    /// Spine switch `s`.
    pub fn spine(&self, s: usize) -> &AdcpSwitch {
        &self.spines[s]
    }

    /// Mutable leaf access (control-plane experiments).
    pub fn leaf_mut(&mut self, l: usize) -> &mut AdcpSwitch {
        &mut self.leaves[l]
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.leaves.len()
    }

    /// Number of spines.
    pub fn n_spines(&self) -> usize {
        self.spines.len()
    }

    /// Frames injected at host ports so far.
    pub fn host_injected(&self) -> u64 {
        self.host_injected
    }

    /// Frames delivered to host ports so far.
    pub fn host_delivered(&self) -> u64 {
        self.host_delivered
    }

    /// Frames that crossed an inter-switch link so far.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    /// Install an entry of the *original* program on every leaf — the
    /// fabric analogue of one-big-switch [`AdcpSwitch::install_all`].
    pub fn install_all(&mut self, table: &str, entry: Entry) -> Result<(), TableError> {
        for sw in &mut self.leaves {
            sw.install_all(table, entry.clone())?;
        }
        Ok(())
    }

    /// Offer a packet to a logical host port at `t` (logical port `p` is
    /// slot `p / n_leaves` on leaf `p % n_leaves`).
    pub fn inject(&mut self, logical_port: u32, pkt: Packet, t: SimTime) {
        assert!(
            logical_port < self.spec.logical_ports(),
            "logical port {logical_port} out of range"
        );
        let leaf = self.spec.leaf_of(logical_port) as usize;
        let slot = self.spec.slot_of(logical_port);
        self.host_injected += 1;
        self.leaves[leaf].inject(PortId(slot as u16), pkt, t);
    }

    /// Hand a delivered frame to the next hop as a fresh packet, keeping
    /// identity, creation time and the TX stamp: the receiving RX stage
    /// verifies the stamp the transmitting TX made, so a reseal here would
    /// hide corruption on the link.
    fn relay(d: Delivered) -> Packet {
        let mut p = Packet::new(d.meta.id, d.meta.flow, d.data);
        p.meta.created = d.meta.created;
        p.meta.coflow = d.meta.coflow;
        p.meta.goodput_bytes = d.meta.goodput_bytes;
        p.meta.fcs = d.meta.fcs;
        // The INT header region rides the frame across the link, so the
        // next device appends to the same stack (the end-to-end chain).
        p.meta.int = d.meta.int;
        p
    }

    /// Drain every device's deliveries, in device order: host-slot frames
    /// are recorded (remapped to logical ports); the others cross their
    /// link into the peer's inbox, arriving at least `lookahead` after
    /// they left.
    fn exchange(&mut self) {
        let n = self.leaves.len();
        let hosts = self.spec.hosts_per_leaf;
        let mut out = std::mem::take(&mut self.outbox);
        for from in 0..self.inbox.len() {
            match self.leaves.get_mut(from) {
                Some(leaf) => leaf.drain_delivered(&mut out),
                None => self.spines[from - n].drain_delivered(&mut out),
            }
            for d in out.drain(..) {
                let port = d.port.0 as u32;
                let (link, to, rx) = if from >= n {
                    let s = from - n;
                    let uplink = self.spec.uplink_port(s as u32);
                    (&mut self.down[s][port as usize], port as usize, uplink)
                } else if port >= hosts {
                    let s = (port - hosts) as usize;
                    (&mut self.up[from][s], n + s, from as u32)
                } else {
                    let logical = self.spec.logical_of(from as u32, port);
                    self.host_delivered += 1;
                    self.delivered.push(Delivered {
                        port: PortId(logical as u16),
                        ..d
                    });
                    continue;
                };
                let depart = d.time;
                let pkt = Self::relay(d);
                let c = Crossing {
                    pkt: pkt.meta.id,
                    flow: pkt.meta.flow.0,
                    from_device: from as u16,
                    to_device: to as u16,
                    depart,
                    arrive: link.transfer(&pkt, depart),
                };
                self.forwarded += 1;
                let port = PortId(rx as u16);
                self.inbox[to].push(Arrival { c, port, pkt });
            }
        }
        self.outbox = out;
        for inbox in &mut self.inbox {
            // The key is unique: one link's arrivals strictly increase.
            inbox.sort_unstable_by_key(|a| (a.c.arrive, a.c.from_device));
        }
    }

    /// Advance device `d` to `h`. Each arrival due by then enters after
    /// every event before its time and ahead of any at it, so no window
    /// or slice boundary can reorder the device's pushes. Returns the
    /// time of the last event handled, if any.
    fn advance(&mut self, d: usize, h: SimTime) -> Option<SimTime> {
        let n = self.leaves.len();
        let sw = match self.leaves.get_mut(d) {
            Some(leaf) => leaf,
            None => &mut self.spines[d - n],
        };
        let due = self.inbox[d].partition_point(|a| a.c.arrive <= h);
        let mut last = None;
        for Arrival { c, port, pkt } in self.inbox[d].drain(..due) {
            last = last.max(run_device(sw, SimTime(c.arrive.0 - 1)));
            if self.record_crossings {
                self.crossings.push(c);
            }
            sw.inject(port, pkt, c.arrive);
        }
        last.max(run_device(sw, h))
    }

    /// Link crossings recorded so far (empty unless the journey tracer or
    /// INT stamping was active when the fabric was built), in `(arrive,
    /// to_device, from_device)` order.
    pub fn crossings(&self) -> &[Crossing] {
        &self.crossings
    }

    /// Crossings that did not fit the bounded record.
    pub fn crossings_truncated(&self) -> u64 {
        self.crossings_truncated
    }

    /// The INT device id of leaf `l`.
    pub fn device_of_leaf(&self, l: usize) -> u16 {
        l as u16
    }

    /// The INT device id of spine `s`.
    pub fn device_of_spine(&self, s: usize) -> u16 {
        (self.spec.n_leaves as usize + s) as u16
    }

    /// Human name of an INT device id (`leaf0`, `spine1`, …).
    /// Total device count: leaves first, then spines.
    pub fn n_devices(&self) -> u16 {
        (self.leaves.len() + self.spines.len()) as u16
    }

    /// The journey-trace JSON of one device — per-device input for the
    /// fabric-wide Chrome export (empty unless the switch config traced).
    pub fn device_trace_json(&self, device: u16) -> serde::Value {
        let n = self.spec.n_leaves as usize;
        let d = device as usize;
        if d < n {
            self.leaves[d].trace_json()
        } else {
            self.spines[d - n].trace_json()
        }
    }

    /// Human-readable name of a device id (`leaf3`, `spine0`, ...).
    pub fn device_name(&self, device: u16) -> String {
        let n = self.spec.n_leaves as usize;
        if (device as usize) < n {
            format!("leaf{device}")
        } else {
            format!("spine{}", device as usize - n)
        }
    }

    /// Drain every device's INT postcards, in device-id order (leaves then
    /// spines). Each postcard already names its device.
    pub fn drain_postcards(&mut self) -> Vec<Postcard> {
        let mut out = Vec::new();
        for sw in self.leaves.iter_mut().chain(self.spines.iter_mut()) {
            out.append(&mut sw.take_postcards());
        }
        out
    }

    /// Fabric-wide INT totals: (stamps, postcards, truncated), summed over
    /// every device.
    pub fn int_totals(&self) -> (u64, u64, u64) {
        let mut t = (0, 0, 0);
        for sw in self.leaves.iter().chain(self.spines.iter()) {
            let (s, p, tr) = sw.int_totals();
            t = (t.0 + s, t.1 + p, t.2 + tr);
        }
        t
    }

    /// Next pending event time across the whole fabric: the earliest event
    /// a device holds or arrival still on a link.
    pub fn next_event_time(&self) -> Option<SimTime> {
        let held = self.inbox.iter().filter_map(|i| Some(i.first()?.c.arrive));
        self.leaves
            .iter()
            .chain(self.spines.iter())
            .filter_map(|s| s.next_event_time())
            .chain(held)
            .min()
    }

    /// Run the fabric to quiescence in lookahead windows (see the module
    /// doc). Returns the time of the last event handled. Unlike
    /// [`AdcpSwitch::run_until_idle`] it does not extend that to the last
    /// bit out of a TX port.
    pub fn run_until_idle(&mut self) -> SimTime {
        self.run(None)
    }

    /// Run every event at or before `t`, then stop. Windows are capped at
    /// `t`, and a window edge cannot reorder any device's events, so a run
    /// cut into slices ends exactly where the uncut run does.
    pub fn run_until(&mut self, t: SimTime) -> SimTime {
        self.run(Some(t))
    }

    fn run(&mut self, until: Option<SimTime>) -> SimTime {
        let mut last = None;
        while let Some(t0) = self.next_event_time() {
            if until.is_some_and(|u| t0 > u) {
                break;
            }
            // What a device sends at or after `t0` arrives at or after
            // `t0 + lookahead`, past `h`: each device can run to `h` alone.
            let h = SimTime(t0.0.saturating_add(self.lookahead.as_ps() - 1));
            let h = until.map_or(h, |u| h.min(u));
            let entered = self.crossings.len();
            for d in 0..self.inbox.len() {
                last = last.max(self.advance(d, h));
            }
            if self.record_crossings {
                // Devices enter their arrivals one after another; sorting
                // the window's crossings keeps the record, too, free of
                // where windows fall.
                self.crossings[entered..]
                    .sort_unstable_by_key(|c| (c.arrive, c.to_device, c.from_device));
                let over = self.crossings.len().saturating_sub(CROSSINGS_CAP);
                self.crossings_truncated += over as u64;
                self.crossings.truncate(CROSSINGS_CAP);
            }
            self.exchange();
        }
        last.unwrap_or(SimTime::ZERO)
    }

    /// Take every host-delivered frame harvested so far, in deterministic
    /// harvest order, with `port` remapped to the logical host port.
    pub fn take_delivered(&mut self) -> Vec<Delivered> {
        std::mem::take(&mut self.delivered)
    }

    /// Panic unless flow accounting balances: per switch (the usual
    /// single-switch identity) and fabric-wide — every frame injected at a
    /// host port was either delivered to a host port or shows up in some
    /// switch's typed drop counters. Links never drop.
    pub fn check_conservation(&self) {
        for sw in self.leaves.iter().chain(self.spines.iter()) {
            sw.check_conservation();
        }
        let drops: u64 = self
            .leaves
            .iter()
            .chain(self.spines.iter())
            .map(|s| s.counters.total_drops())
            .sum();
        assert_eq!(
            self.host_injected,
            self.host_delivered + drops,
            "fabric conservation: injected {} != delivered {} + drops {}",
            self.host_injected,
            self.host_delivered,
            drops
        );
    }

    /// The value of central register cell `cell` according to its owner
    /// leaf (`owners[cell]`), reading the central pipeline the cell's
    /// steer key maps onto (`cell % central_pipes` — the same modulo the
    /// data plane applies to `SetCentralPipe`).
    fn owner_cell(&self, owners: &[u32], reg: RegId, cell: usize) -> u64 {
        let leaf = &self.leaves[owners[cell] as usize];
        let cpipe = cell % leaf.num_central();
        leaf.central_register(cpipe, reg)
            .map(|r| r.peek(cell as u64))
            .unwrap_or(0)
    }

    /// Merge the partitioned register back into one logical array: cell
    /// `c` is read from leaf `owners[c]`. Pass the *true* ownership here —
    /// the conformance harness steers by a possibly-sabotaged copy.
    pub fn merged_register_with(&self, owners: &[u32], reg: RegId, cells: usize) -> Vec<u64> {
        (0..cells)
            .map(|c| self.owner_cell(owners, reg, c))
            .collect()
    }

    /// [`Fabric::merged_register_with`] using the spec's own ownership.
    pub fn merged_register(&self, reg: RegId, cells: usize) -> Vec<u64> {
        self.merged_register_with(&self.spec.owners.clone(), reg, cells)
    }

    /// Non-zero register cells living on a leaf that does **not** own
    /// them: `(leaf, cell, value)` triples. Any entry here means a packet
    /// mutated state on the wrong device — the loud, deterministic symptom
    /// of mis-steering.
    pub fn register_leaks_with(
        &self,
        owners: &[u32],
        reg: RegId,
        cells: usize,
    ) -> Vec<(usize, usize, u64)> {
        let mut leaks = Vec::new();
        for (l, leaf) in self.leaves.iter().enumerate() {
            for (c, &owner) in owners.iter().enumerate().take(cells) {
                if owner as usize == l {
                    continue;
                }
                let cpipe = c % leaf.num_central();
                let v = leaf
                    .central_register(cpipe, reg)
                    .map(|r| r.peek(c as u64))
                    .unwrap_or(0);
                if v != 0 {
                    leaks.push((l, c, v));
                }
            }
        }
        leaks
    }

    /// [`Fabric::register_leaks_with`] using the spec's own ownership.
    pub fn register_leaks(&self, reg: RegId, cells: usize) -> Vec<(usize, usize, u64)> {
        self.register_leaks_with(&self.spec.owners.clone(), reg, cells)
    }

    fn switch_report(device: String, sw: &AdcpSwitch) -> SwitchReport {
        let c = &sw.counters;
        SwitchReport {
            device,
            injected: c.injected,
            delivered: c.delivered,
            drops: c.total_drops(),
            fcs_drops: c.fcs_drops,
            filtered: c.filtered,
            no_decision: c.no_decision,
            mat_lookups: c.mat_lookups,
            mat_hits: c.mat_hits,
        }
    }

    /// Deterministic end-of-run report (see [`FabricReport`]). Does not
    /// drain the delivered list — call before [`Fabric::take_delivered`]
    /// when both are needed.
    pub fn report(&self) -> FabricReport {
        let leaves = self
            .leaves
            .iter()
            .enumerate()
            .map(|(l, sw)| Self::switch_report(format!("leaf{l}"), sw))
            .collect();
        let spines = self
            .spines
            .iter()
            .enumerate()
            .map(|(s, sw)| Self::switch_report(format!("spine{s}"), sw))
            .collect();
        let mut links = Vec::new();
        for (l, row) in self.up.iter().enumerate() {
            for (s, link) in row.iter().enumerate() {
                links.push(LinkReport {
                    name: format!("leaf{l}->spine{s}"),
                    frames: link.frames,
                    wire_bytes: link.wire_bytes,
                });
            }
        }
        for (s, row) in self.down.iter().enumerate() {
            for (l, link) in row.iter().enumerate() {
                links.push(LinkReport {
                    name: format!("spine{s}->leaf{l}"),
                    frames: link.frames,
                    wire_bytes: link.wire_bytes,
                });
            }
        }
        let delivered_digest = fold_hash(self.delivered.iter().flat_map(|d| {
            [d.port.0 as u64, d.time.0, d.meta.id]
                .into_iter()
                .chain(d.data.iter().map(|b| *b as u64))
        }));
        let mut reg_words = Vec::new();
        for leaf in &self.leaves {
            for cpipe in 0..leaf.num_central() {
                for r in 0..leaf.program().registers.len() {
                    if let Some(file) = leaf.central_register(cpipe, RegId(r as u16)) {
                        reg_words.extend(file.snapshot());
                    }
                }
            }
        }
        let register_digest = fold_hash(reg_words);
        FabricReport {
            host_injected: self.host_injected,
            host_delivered: self.host_delivered,
            forwarded: self.forwarded,
            leaves,
            spines,
            links,
            delivered_digest,
            register_digest,
        }
    }
}

/// Run `sw` to `t`: the time of the last event it handled, or `None` when
/// nothing was due.
fn run_device(sw: &mut AdcpSwitch, t: SimTime) -> Option<SimTime> {
    sw.next_event_time()
        .is_some_and(|e| e <= t)
        .then(|| sw.run_until(t))
}

/// Plan cross-switch state ownership with the `adcp-ctrl` planners:
/// longest-processing-time-first packing of per-key loads onto `n_leaves`
/// devices (the same [`plan_scale_to`] that balances central pipelines
/// inside one switch).
pub fn plan_owners(key_space: u64, n_leaves: u32, loads: &[u64]) -> Vec<u32> {
    assert_eq!(loads.len() as u64, key_space, "one load per steer key");
    let seedmap = PartitionMap::uniform(key_space as u32, n_leaves);
    let planned = plan_scale_to(&seedmap, loads, n_leaves);
    (0..key_space as u32)
        .map(|b| planned.owner_of_bucket(b))
        .collect()
}

// ---------------- demo: fabric-wide partitioned counter ----------------

/// Steer-key space of the demo program (matches the conformance harness).
pub const DEMO_CELLS: usize = 64;

/// What [`run_demo_with_report`] measured.
#[derive(Debug, Clone, serde::Serialize)]
pub struct DemoReport {
    /// Frames injected at host ports.
    pub injected: u64,
    /// Frames delivered to host ports.
    pub delivered: u64,
    /// Frames that crossed an inter-switch link.
    pub forwarded: u64,
    /// Quiescence time of the run.
    pub quiesce_ns: u64,
    /// Merged registers matched the host-side oracle, every frame was
    /// delivered, and no state leaked onto a non-owner leaf.
    pub correct: bool,
}

mod demo {
    use super::*;
    use adcp_lang::action::{ActionDef, ActionOp, BinOp, Operand};
    use adcp_lang::header::{FieldDef, FieldRef, HeaderDef};
    use adcp_lang::parser::ParserSpec;
    use adcp_lang::program::ProgramBuilder;
    use adcp_lang::registers::{RegAluOp, RegisterDef};
    use adcp_lang::table::{Region, TableDef};
    use adcp_lang::{deposit_bits, FieldId, HeaderId};

    pub(super) fn fr(f: u16) -> FieldRef {
        FieldRef::new(HeaderId(0), FieldId(f))
    }

    /// The demo's logical one-big-switch program: a partitioned counter.
    /// Header: op:8 key:32 idx:16 val:32 fphase:8 fgk:16 (14 bytes).
    /// Ingress routes by `idx` (central pipe) and targets logical port 0;
    /// the central region accumulates `val` into register cell `idx`.
    pub(super) fn program() -> Program {
        let mut b = ProgramBuilder::new("fab-counter");
        let h = b.header(HeaderDef::new(
            "ctr",
            vec![
                FieldDef::scalar("op", 8),
                FieldDef::scalar("key", 32),
                FieldDef::scalar("idx", 16),
                FieldDef::scalar("val", 32),
                FieldDef::scalar("fphase", 8),
                FieldDef::scalar("fgk", 16),
            ],
        ));
        b.parser(ParserSpec::single(h));
        let reg = b.register(RegisterDef::new("cnt", DEMO_CELLS as u32, 64));
        b.table(TableDef {
            name: "route".into(),
            region: Region::Ingress,
            key: None,
            actions: vec![ActionDef::new(
                "steer",
                vec![
                    ActionOp::Bin {
                        dst: fr(2),
                        op: BinOp::And,
                        a: Operand::Field(fr(2)),
                        b: Operand::Const(DEMO_CELLS as u64 - 1),
                    },
                    ActionOp::SetCentralPipe(Operand::Field(fr(2))),
                    ActionOp::SetEgress(Operand::Const(0)),
                ],
            )],
            default_action: 0,
            default_params: vec![],
            size: 1,
        });
        b.table(TableDef {
            name: "count".into(),
            region: Region::Central,
            key: None,
            actions: vec![ActionDef::new(
                "bump",
                vec![ActionOp::RegRmw {
                    reg,
                    index: Operand::Field(fr(2)),
                    op: RegAluOp::Add,
                    value: Operand::Field(fr(3)),
                    fetch: None,
                }],
            )],
            default_action: 0,
            default_params: vec![],
            size: 1,
        });
        b.build()
    }

    pub(super) fn frame(key: u64, idx: u64, val: u64) -> Vec<u8> {
        let mut buf = vec![0u8; 14];
        deposit_bits(&mut buf, 0, 8, 1);
        deposit_bits(&mut buf, 8, 32, key);
        deposit_bits(&mut buf, 40, 16, idx);
        deposit_bits(&mut buf, 56, 32, val);
        // fphase / fgk stay 0: the wire format of the one-big-switch run.
        buf
    }
}

/// Build the standard 2-spine × 4-leaf demo fabric (2 hosts per leaf)
/// around the partitioned-counter program, with ownership planned from
/// seeded per-key loads. Returns the fabric and its logical program.
pub fn demo_fabric(seed: u64, cfg: FabricConfig) -> (Fabric, Program) {
    let program = demo::program();
    let mut rng = SimRng::seed_from(seed ^ 0xFAB0_0001);
    let loads: Vec<u64> = (0..DEMO_CELLS).map(|_| rng.range(1u64..100)).collect();
    let owners = plan_owners(DEMO_CELLS as u64, 4, &loads);
    let spec = FabricSpec {
        n_leaves: 4,
        n_spines: 2,
        hosts_per_leaf: 2,
        phase_field: demo::fr(4),
        gk_field: demo::fr(5),
        steer_field: demo::fr(2),
        key_space: DEMO_CELLS as u64,
        owners,
        delivery_port: 0,
    };
    let fabric = Fabric::new(&program, spec, cfg).expect("demo program must place");
    (fabric, program)
}

/// Run the partitioned-counter demo: `packets` frames with seeded random
/// (key, idx, val) from round-robin host ports, verified against a
/// host-side oracle (merged registers, full delivery, no state leaks).
/// Returns the verdict and the full serializable [`FabricReport`] — the
/// byte-comparison surface for determinism tests: per-device counters,
/// per-link stats, and digests over every delivered frame and every
/// central register cell in the fabric.
pub fn run_demo_with_report(
    seed: u64,
    packets: u64,
    cfg: FabricConfig,
) -> (DemoReport, FabricReport) {
    let (demo, fabric) = run_demo_keep(seed, packets, cfg);
    let report = fabric.report();
    (demo, report)
}

/// [`run_demo_with_report`] but hands back the still-warm [`Fabric`] so
/// observability consumers can drain what a run left behind: per-device
/// journey traces, link [`Crossing`]s, and INT postcards (when the switch
/// config stamps).
pub fn run_demo_keep(seed: u64, packets: u64, cfg: FabricConfig) -> (DemoReport, Fabric) {
    let (mut fabric, _program) = demo_fabric(seed, cfg);
    let mut rng = SimRng::seed_from(seed ^ 0xFAB0_0002);
    let mut expected = vec![0u64; DEMO_CELLS];
    let ports = fabric.spec().logical_ports() as u64;
    for i in 0..packets {
        let key = rng.range(0u64..1 << 32);
        let idx = rng.range(0u64..DEMO_CELLS as u64);
        let val = rng.range(1u64..1000);
        expected[idx as usize] += val;
        let pkt = Packet::new(i, FlowId(1000 + i), demo::frame(key, idx, val)).seal();
        fabric.inject((i % ports) as u32, pkt, SimTime::from_ns(1 + i * 600));
    }
    let quiesce = fabric.run_until_idle();
    fabric.check_conservation();
    let merged = fabric.merged_register(RegId(0), DEMO_CELLS);
    let leaks = fabric.register_leaks(RegId(0), DEMO_CELLS);
    let correct = merged == expected && fabric.host_delivered() == packets && leaks.is_empty();
    let demo = DemoReport {
        injected: fabric.host_injected(),
        delivered: fabric.host_delivered(),
        forwarded: fabric.forwarded(),
        quiesce_ns: quiesce.0 / 1_000,
        correct,
    };
    (demo, fabric)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_counter_agrees_with_oracle() {
        let r = run_demo_with_report(7, 200, FabricConfig::default()).0;
        assert!(r.correct, "demo run diverged: {r:?}");
        assert_eq!(r.injected, 200);
        assert_eq!(r.delivered, 200);
        assert!(r.forwarded > 0, "a 4-leaf fabric must forward something");
    }

    #[test]
    fn demo_is_deterministic_per_seed() {
        let a = run_demo_with_report(11, 120, FabricConfig::default()).0;
        let b = run_demo_with_report(11, 120, FabricConfig::default()).0;
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c = run_demo_with_report(12, 120, FabricConfig::default()).0;
        assert!(c.correct);
    }

    #[test]
    fn delivered_frames_carry_reference_wire_bytes() {
        // phase/gk scratch fields must be cleared on delivery: every
        // delivered frame ends with the two scratch fields zeroed.
        let (mut fabric, _) = demo_fabric(3, FabricConfig::default());
        let mut rng = SimRng::seed_from(99);
        for i in 0..40u64 {
            let idx = rng.range(0u64..DEMO_CELLS as u64);
            let pkt = Packet::new(i, FlowId(1), demo::frame(7, idx, 5)).seal();
            fabric.inject((i % 8) as u32, pkt, SimTime::from_ns(1 + i * 600));
        }
        fabric.run_until_idle();
        let out = fabric.take_delivered();
        assert_eq!(out.len(), 40);
        for d in &out {
            assert_eq!(d.port, PortId(0), "demo delivers on logical port 0");
            // fphase is byte 11, fgk bytes 12..14 of the 14-byte header.
            assert_eq!(&d.data[11..14], &[0, 0, 0], "scratch fields leaked");
        }
    }

    #[test]
    fn a_frame_on_a_link_is_pending_work() {
        let (mut fabric, _) = demo_fabric(3, FabricConfig::default());
        // Logical port 0 is on leaf 0: a key another leaf owns must cross.
        let idx = (0..DEMO_CELLS).find(|&c| fabric.spec().owners[c] != 0);
        let frame = demo::frame(7, idx.unwrap() as u64, 5);
        fabric.inject(0, Packet::new(0, FlowId(1), frame).seal(), SimTime(1));
        // Step until the frame has left leaf 0.
        let mut t = SimTime(1);
        while fabric.forwarded() == 0 {
            t += Duration::from_ns(1);
            fabric.run_until(t);
        }
        let devices = (0..4)
            .map(|l| fabric.leaf(l))
            .chain((0..2).map(|s| fabric.spine(s)));
        for sw in devices {
            assert_eq!(sw.next_event_time(), None, "only the link holds work");
        }
        let held = fabric
            .next_event_time()
            .expect("the held arrival is pending");
        assert!(held > t, "arrival {held:?} not after the cut {t:?}");
        fabric.run_until_idle();
        assert_eq!(fabric.host_delivered(), 1);
        fabric.check_conservation();
    }

    #[test]
    fn zero_latency_links_rejected() {
        let (program, spec) = {
            let (f, p) = demo_fabric(1, FabricConfig::default());
            (p, f.spec().clone())
        };
        let cfg = FabricConfig {
            link_latency: Duration::from_ns(0),
            ..FabricConfig::default()
        };
        let r = std::panic::catch_unwind(|| Fabric::new(&program, spec, cfg));
        assert!(r.is_err(), "zero link latency must be rejected");
    }

    #[test]
    fn planned_owners_use_every_leaf() {
        let mut rng = SimRng::seed_from(5);
        let loads: Vec<u64> = (0..64).map(|_| rng.range(0u64..50)).collect();
        let owners = plan_owners(64, 4, &loads);
        assert_eq!(owners.len(), 64);
        for l in 0..4 {
            assert!(owners.contains(&l), "leaf {l} owns nothing");
        }
        // LPT packing: per-leaf load within 2x of the mean.
        let mut per = [0u64; 4];
        for (k, &o) in owners.iter().enumerate() {
            per[o as usize] += loads[k];
        }
        let total: u64 = loads.iter().sum();
        for p in per {
            assert!(p <= total / 2, "grossly unbalanced: {per:?}");
        }
    }
}
