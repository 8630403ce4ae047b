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
//! * **Driving loop** — each member switch keeps its own event queue;
//!   [`Fabric::run_until_idle`] runs in conservative windows. A round
//!   takes `t0`, the earliest pending event or held arrival, advances
//!   every switch to `t0 + L − 1 ps` (`L` the link latency: nothing sent
//!   at or after `t0` arrives sooner), then exchanges link traffic once.
//!   A crossing waits in its receiver's inbox and enters after every
//!   event before its arrival time and ahead of any at it, same-time
//!   arrivals in link order, so where windows or `run_until` slices fall
//!   never reorders a switch's events. Inside a window no device touches
//!   another, so the calling thread and one worker advance disjoint
//!   devices, each sending on its own links; the exchange gathers their
//!   output in device order, so the thread count changes no output.
//!
//! The conformance harness (`adcp-bench`) runs every seeded random program
//! on this fabric *and* on a single big switch and requires bit-identical
//! delivered frames, counters, and merged register state.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::cmp::Reverse;
use std::hint;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::thread::{self, Thread};
use std::time::Instant;

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
    /// Propagation latency of every inter-switch link (must be > 0).
    pub link_latency: Duration,
    /// Per-switch configuration (buffering, demux, tracing, INT, …).
    pub switch: AdcpConfig,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
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

/// Rate of every inter-switch link.
const LINK_SPEED: LinkSpeed = LinkSpeed::G400;

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

/// One member switch with everything only it touches inside a window: the
/// links it sends on, the arrivals still on links into it, and its part of
/// the window's output, which the exchange gathers. Every buffer keeps its
/// capacity from window to window.
struct Device {
    sw: AdcpSwitch,
    /// The links it sends on: a leaf's uplinks by spine, a spine's
    /// downlinks by leaf.
    links: Vec<Link>,
    /// Arrivals still on their link, sorted by `(arrive, link)`.
    inbox: Vec<Arrival>,
    /// The buffer its deliveries are drained through.
    outbox: Vec<Delivered>,
    /// Frames it put on its links this window, for the receivers' inboxes.
    sent: Vec<Arrival>,
    /// Frames it delivered to hosts this window, ports already logical.
    hosted: Vec<Delivered>,
    /// Crossings it entered this window (only while they are recorded).
    entered: Vec<Crossing>,
    /// Time of the last event it handled this window.
    last: Option<SimTime>,
    /// The horizon of the window it is advanced in next.
    horizon: SimTime,
}

impl Device {
    fn new(sw: AdcpSwitch, links: Vec<Link>) -> Self {
        Device {
            sw,
            links,
            inbox: Vec::new(),
            outbox: Vec::new(),
            sent: Vec::new(),
            hosted: Vec::new(),
            entered: Vec::new(),
            last: None,
            horizon: SimTime::ZERO,
        }
    }

    /// The earliest event it holds or arrival still on a link into it.
    fn next_event_time(&self) -> Option<SimTime> {
        let held = self.inbox.first().map(|a| a.c.arrive);
        self.sw.next_event_time().into_iter().chain(held).min()
    }

    /// Advance device `d` to its horizon `h`, then route what it
    /// delivered. Each arrival due by `h` enters after every event before
    /// its time and ahead of any at it, so no window or slice boundary can
    /// reorder the device's pushes.
    fn window(&mut self, d: usize, spec: &FabricSpec, record: bool) {
        let h = self.horizon;
        let due = self.inbox.partition_point(|a| a.c.arrive <= h);
        for Arrival { c, port, pkt } in self.inbox.drain(..due) {
            let before = run_device(&mut self.sw, SimTime(c.arrive.0 - 1));
            self.last = self.last.max(before);
            if record {
                self.entered.push(c);
            }
            self.sw.inject(port, pkt, c.arrive);
        }
        self.last = self.last.max(run_device(&mut self.sw, h));
        self.route(d, spec);
    }

    /// Drain device `from`'s deliveries: host-slot frames go to `hosted`
    /// (remapped to logical ports); the others cross its own links into
    /// `sent`, arriving at least one link latency after they left.
    fn route(&mut self, from: usize, spec: &FabricSpec) {
        let n = spec.n_leaves as usize;
        let hosts = spec.hosts_per_leaf;
        self.sw.drain_delivered(&mut self.outbox);
        for d in self.outbox.drain(..) {
            let port = d.port.0 as u32;
            let (link, to, rx) = if from >= n {
                let uplink = spec.uplink_port((from - n) as u32);
                (&mut self.links[port as usize], port as usize, uplink)
            } else if port >= hosts {
                let s = (port - hosts) as usize;
                (&mut self.links[s], n + s, from as u32)
            } else {
                let logical = spec.logical_of(from as u32, port);
                self.hosted.push(Delivered {
                    port: PortId(logical as u16),
                    ..d
                });
                continue;
            };
            let depart = d.time;
            let pkt = relay(d);
            let c = Crossing {
                pkt: pkt.meta.id,
                flow: pkt.meta.flow.0,
                from_device: from as u16,
                to_device: to as u16,
                depart,
                arrive: link.transfer(&pkt, depart),
            };
            let port = PortId(rx as u16);
            self.sent.push(Arrival { c, port, pkt });
        }
    }
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

/// A device as the run holds it: either thread may lock it, and the window
/// handshake keeps the two from ever wanting the same one at once.
type DeviceLock<'a> = Mutex<&'a mut Device>;

fn lock<'c, 'a>(cell: &'c DeviceLock<'a>) -> MutexGuard<'c, &'a mut Device> {
    cell.lock().expect("a fabric device panicked")
}

/// What the fabric keeps of its runs besides the devices.
struct Harvest {
    host_delivered: u64,
    forwarded: u64,
    delivered: Vec<Delivered>,
    /// Record link crossings (true while tracing or INT stamping is on).
    record_crossings: bool,
    crossings: Vec<Crossing>,
    crossings_truncated: u64,
}

impl Harvest {
    /// The exchange: gather every device's window output in device order —
    /// host frames onto `delivered`, link frames into their receivers'
    /// inboxes, entered crossings onto the record. Returns the time of the
    /// last event any device handled.
    fn exchange(&mut self, all: &mut [MutexGuard<'_, &mut Device>]) -> Option<SimTime> {
        let entered = self.crossings.len();
        let mut last = None;
        for from in 0..all.len() {
            let dev = &mut **all[from];
            last = last.max(dev.last.take());
            self.crossings.append(&mut dev.entered);
            self.host_delivered += dev.hosted.len() as u64;
            self.delivered.append(&mut dev.hosted);
            self.forwarded += dev.sent.len() as u64;
            let mut sent = std::mem::take(&mut dev.sent);
            for a in sent.drain(..) {
                all[a.c.to_device as usize].inbox.push(a);
            }
            all[from].sent = sent;
        }
        if self.record_crossings {
            // Devices enter their arrivals one after another; sorting the
            // window's crossings keeps the record, too, free of where
            // windows fall.
            self.crossings[entered..]
                .sort_unstable_by_key(|c| (c.arrive, c.to_device, c.from_device));
            let over = self.crossings.len().saturating_sub(CROSSINGS_CAP);
            self.crossings_truncated += over as u64;
            self.crossings.truncate(CROSSINGS_CAP);
        }
        for dev in all.iter_mut() {
            // The key is unique: one link's arrivals strictly increase.
            dev.inbox
                .sort_unstable_by_key(|a| (a.c.arrive, a.c.from_device));
        }
        last
    }
}

/// Windows between two re-splits of the devices over the threads.
const RESPLIT_WINDOWS: u64 = 64;

/// What both threads read during a window: which thread is each device's
/// home and the order devices are taken in, which the calling thread
/// writes between windows, and the window's claims, which both make. No
/// output depends on it.
struct Board {
    /// Devices, heaviest first by the last re-split's measure.
    rank: Vec<AtomicUsize>,
    /// Per device: its home is the worker, not the calling thread.
    on_worker: Vec<AtomicBool>,
    /// Per device: the last window it was claimed in. A device with no
    /// work due is claimed by the calling thread as it plans the window.
    claimed: Vec<AtomicU64>,
    /// Due devices of the window under way not yet advanced.
    left: AtomicUsize,
}

impl Board {
    /// Advance every due device of window `w` this thread can claim: its
    /// own, heaviest first, then those of the other thread that it has not
    /// started, lightest first. A device so stays on its home thread unless
    /// the other runs out of work first, and a late or descheduled worker
    /// costs the window nothing but the device it is in the middle of.
    /// Returns whether this thread advanced the window's last device.
    fn take_turn(
        &self,
        cells: &[DeviceLock<'_>],
        spec: &FabricSpec,
        record: bool,
        w: u64,
        worker: bool,
    ) -> bool {
        let n = cells.len();
        let rank = |i: usize| self.rank[i].load(Ordering::Relaxed);
        let home = |d: usize| self.on_worker[d].load(Ordering::Relaxed) == worker;
        let own = (0..n).map(rank).filter(|&d| home(d));
        let others = (0..n).rev().map(rank).filter(|&d| !home(d));
        let mut finished = false;
        for d in own.chain(others) {
            // A claim for a window already closed always fails: every
            // device then carries that window's number or a later one.
            if self.claimed[d].fetch_max(w, Ordering::AcqRel) < w {
                lock(&cells[d]).window(d, spec, record);
                finished = self.left.fetch_sub(1, Ordering::AcqRel) == 1;
            }
        }
        finished
    }
}

/// Which thread advances which device: the board both threads read, and
/// the calling thread's tally for the next re-split.
struct Split {
    board: Board,
    tally: Tally,
}

impl Split {
    fn new(n: usize) -> Self {
        Split {
            board: Board {
                rank: (0..n).map(AtomicUsize::new).collect(),
                on_worker: (0..n).map(|_| AtomicBool::new(false)).collect(),
                claimed: (0..n).map(|_| AtomicU64::new(0)).collect(),
                left: AtomicUsize::new(0),
            },
            tally: Tally {
                base: vec![0; n],
                load: vec![0; n],
                order: (0..n).collect(),
                windows: 0,
                #[cfg(test)]
                shared: 0,
            },
        }
    }
}

/// What the calling thread keeps between re-splits.
struct Tally {
    /// Per device: `events_scheduled` at the last re-split.
    base: Vec<u64>,
    /// Per device: events scheduled since the last re-split, plus one.
    load: Vec<u64>,
    /// Scratch for the re-split's sort.
    order: Vec<usize>,
    /// Windows planned so far; a window's number is its count.
    windows: u64,
    /// Windows offered to the worker so far.
    #[cfg(test)]
    shared: u64,
}

impl Tally {
    /// Re-split the devices between the two threads by the events each has
    /// scheduled since the last re-split: longest first, each onto the
    /// lighter side, and the lighter side to the calling thread, which runs
    /// the exchange as well. Allocates nothing.
    fn resplit(&mut self, board: &Board, all: &[MutexGuard<'_, &mut Device>]) {
        let Tally {
            base, load, order, ..
        } = self;
        for (d, dev) in all.iter().enumerate() {
            let now = dev.sw.events_scheduled();
            // Plus one: a device that has scheduled nothing yet still counts.
            load[d] = now - base[d] + 1;
            base[d] = now;
        }
        order.sort_unstable_by_key(|&d| (Reverse(load[d]), d));
        let mut sides = [0u64; 2];
        for (i, &d) in order.iter().enumerate() {
            let side = usize::from(sides[1] < sides[0]);
            sides[side] += load[d];
            board.rank[i].store(d, Ordering::Relaxed);
            board.on_worker[d].store(side == 1, Ordering::Relaxed);
        }
        if sides[1] < sides[0] {
            for flag in &board.on_worker {
                flag.store(!flag.load(Ordering::Relaxed), Ordering::Relaxed);
            }
        }
    }
}

/// How long a thread waiting on the other spins before it parks: longer
/// than the exchange between two windows, well short of a window's device
/// work.
const SPIN: std::time::Duration = std::time::Duration::from_micros(50);

/// Return once `ready()` holds: spin for [`SPIN`], then park. The thread
/// that makes it true unparks this one afterwards.
fn wait_until(ready: impl Fn() -> bool) {
    let start = Instant::now();
    while !ready() {
        if start.elapsed() < SPIN {
            hint::spin_loop();
        } else {
            thread::park();
        }
    }
}

/// The window handshake between the calling thread and its worker.
#[derive(Default)]
struct Baton {
    /// Number of the last window posted to the worker.
    posted: AtomicU64,
    /// No more windows: the run is over or unwinding.
    stop: AtomicBool,
    /// The worker has returned, or is unwinding.
    gone: AtomicBool,
}

/// The calling thread's end of the handshake. Dropping it, at the end of
/// the run or in an unwind, stops the worker, so the scope can join it.
struct Caller<'b> {
    baton: &'b Baton,
    worker: Option<Thread>,
}

impl Caller<'_> {
    /// Offer window `w` to the worker.
    fn post(&self, w: u64) {
        self.baton.posted.store(w, Ordering::Release);
        self.worker.as_ref().expect("spawned").unpark();
    }

    /// Wait until the window's devices the worker claimed are advanced.
    fn join_window(&self, board: &Board) {
        let b = self.baton;
        wait_until(|| board.left.load(Ordering::Acquire) == 0 || b.gone.load(Ordering::Acquire));
        assert_eq!(
            board.left.load(Ordering::Acquire),
            0,
            "the fabric's worker thread panicked"
        );
    }
}

impl Drop for Caller<'_> {
    fn drop(&mut self) {
        if let Some(w) = &self.worker {
            self.baton.stop.store(true, Ordering::Release);
            w.unpark();
        }
    }
}

/// Marks the worker gone, and wakes the caller, however the worker leaves.
struct Gone<'b>(&'b Baton, Thread);

impl Drop for Gone<'_> {
    fn drop(&mut self) {
        self.0.gone.store(true, Ordering::Release);
        self.1.unpark();
    }
}

/// The worker: take its turn in every window the caller posts, until it
/// stops.
fn work(
    cells: &[DeviceLock<'_>],
    board: &Board,
    spec: &FabricSpec,
    record: bool,
    baton: &Baton,
    caller: Thread,
) {
    let _gone = Gone(baton, caller.clone());
    let mut seen = 0;
    loop {
        wait_until(|| {
            baton.stop.load(Ordering::Acquire) || baton.posted.load(Ordering::Acquire) != seen
        });
        if baton.stop.load(Ordering::Acquire) {
            return;
        }
        seen = baton.posted.load(Ordering::Acquire);
        if board.take_turn(cells, spec, record, seen, true) {
            caller.unpark();
        }
    }
}

/// A leaf–spine fabric of ADCP switches running one placed program.
pub struct Fabric {
    spec: FabricSpec,
    /// Leaves, then spines: device `d` is INT device id `d`.
    devices: Vec<Device>,
    /// The minimum link latency: what a device sends at `t` reaches no
    /// peer before `t + lookahead`.
    lookahead: Duration,
    host_injected: u64,
    harvest: Harvest,
    /// Threads a run advances devices on: `available_parallelism()`, at
    /// most two. In-crate tests pin it.
    pub(crate) threads: usize,
    split: Split,
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
        let links = |n: u32| -> Vec<Link> {
            (0..n)
                .map(|_| Link::new(LINK_SPEED, cfg.link_latency))
                .collect()
        };
        let mut devices = Vec::new();
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
            devices.push(Device::new(sw, links(spec.n_spines)));
        }
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
            devices.push(Device::new(sw, links(spec.n_leaves)));
        }
        // Crossings feed Chrome-trace flow events and collector path
        // edges; both consumers are driven by the (env-resolved) tracer
        // and INT knobs, so record only when one of them is live.
        let record_crossings = devices[..spec.n_leaves as usize]
            .iter()
            .any(|d| d.sw.tracer.hops_on() || d.sw.int_knob().on());
        let threads = thread::available_parallelism().map_or(1, |n| n.get().min(2));
        let split = Split::new(devices.len());
        Ok(Fabric {
            spec,
            devices,
            lookahead: cfg.link_latency,
            host_injected: 0,
            harvest: Harvest {
                host_delivered: 0,
                forwarded: 0,
                delivered: Vec::new(),
                record_crossings,
                crossings: Vec::new(),
                crossings_truncated: 0,
            },
            threads,
            split,
        })
    }

    /// The fabric shape and ownership this instance was built with.
    pub fn spec(&self) -> &FabricSpec {
        &self.spec
    }

    /// Leaf switch `l`.
    pub fn leaf(&self, l: usize) -> &AdcpSwitch {
        &self.leaves()[l].sw
    }

    /// Spine switch `s`.
    pub fn spine(&self, s: usize) -> &AdcpSwitch {
        &self.devices[self.n_leaves() + s].sw
    }

    /// Mutable leaf access (control-plane experiments).
    pub fn leaf_mut(&mut self, l: usize) -> &mut AdcpSwitch {
        &mut self.devices[..self.spec.n_leaves as usize][l].sw
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.spec.n_leaves as usize
    }

    /// Number of spines.
    pub fn n_spines(&self) -> usize {
        self.devices.len() - self.n_leaves()
    }

    fn leaves(&self) -> &[Device] {
        &self.devices[..self.n_leaves()]
    }

    /// Every member switch, leaves then spines.
    fn switches(&self) -> impl Iterator<Item = &AdcpSwitch> {
        self.devices.iter().map(|d| &d.sw)
    }

    /// Frames injected at host ports so far.
    pub fn host_injected(&self) -> u64 {
        self.host_injected
    }

    /// Frames delivered to host ports so far.
    pub fn host_delivered(&self) -> u64 {
        self.harvest.host_delivered
    }

    /// Frames that crossed an inter-switch link so far.
    pub fn forwarded(&self) -> u64 {
        self.harvest.forwarded
    }

    /// Install an entry of the *original* program on every leaf — the
    /// fabric analogue of one-big-switch [`AdcpSwitch::install_all`].
    pub fn install_all(&mut self, table: &str, entry: Entry) -> Result<(), TableError> {
        let n = self.n_leaves();
        for dev in &mut self.devices[..n] {
            dev.sw.install_all(table, entry.clone())?;
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
        self.leaf_mut(leaf).inject(PortId(slot as u16), pkt, t);
    }

    /// Link crossings recorded so far (empty unless the journey tracer or
    /// INT stamping was active when the fabric was built), in `(arrive,
    /// to_device, from_device)` order.
    pub fn crossings(&self) -> &[Crossing] {
        &self.harvest.crossings
    }

    /// Crossings that did not fit the bounded record.
    pub fn crossings_truncated(&self) -> u64 {
        self.harvest.crossings_truncated
    }

    /// Total device count: leaves first, then spines.
    pub fn n_devices(&self) -> u16 {
        self.devices.len() as u16
    }

    /// The journey-trace JSON of one device — per-device input for the
    /// fabric-wide Chrome export (empty unless the switch config traced).
    pub fn device_trace_json(&self, device: u16) -> serde::Value {
        self.devices[device as usize].sw.trace_json()
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
        for dev in &mut self.devices {
            out.append(&mut dev.sw.take_postcards());
        }
        out
    }

    /// Fabric-wide INT totals: (stamps, postcards, truncated), summed over
    /// every device.
    pub fn int_totals(&self) -> (u64, u64, u64) {
        let mut t = (0, 0, 0);
        for sw in self.switches() {
            let (s, p, tr) = sw.int_totals();
            t = (t.0 + s, t.1 + p, t.2 + tr);
        }
        t
    }

    /// Next pending event time across the whole fabric: the earliest event
    /// a device holds or arrival still on a link.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.devices
            .iter()
            .filter_map(Device::next_event_time)
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

    /// The window loop. Each round the calling thread, holding every
    /// device, runs the exchange and plans the next window; then it and the
    /// worker advance the devices with work due to the window's horizon
    /// ([`Board::take_turn`]). The worker is spawned at the first window in
    /// which two devices have work due, so a run that touches one device
    /// never spawns; a window with one device due runs on the calling
    /// thread alone.
    fn run(&mut self, until: Option<SimTime>) -> SimTime {
        let Fabric {
            spec,
            devices,
            lookahead,
            harvest,
            threads,
            split,
            ..
        } = self;
        let (spec, threads, record) = (&*spec, *threads, harvest.record_crossings);
        let Split { board, tally } = split;
        let board = &*board;
        let cells: Vec<DeviceLock<'_>> = devices.iter_mut().map(Mutex::new).collect();
        let baton = Baton::default();
        thread::scope(|scope| {
            let mut caller = Caller {
                baton: &baton,
                worker: None,
            };
            let mut all = Vec::with_capacity(cells.len());
            let mut last = None;
            loop {
                all.extend(cells.iter().map(lock));
                last = last.max(harvest.exchange(&mut all));
                let t0 = all.iter().filter_map(|d| d.next_event_time()).min();
                let Some(t0) = t0.filter(|&t0| until.is_none_or(|u| t0 <= u)) else {
                    break;
                };
                // What a device sends at or after `t0` arrives at or after
                // `t0 + lookahead`, past `h`: each device can run to `h`
                // alone.
                let h = SimTime(t0.0.saturating_add(lookahead.as_ps() - 1));
                let h = until.map_or(h, |u| h.min(u));
                if threads > 1 && tally.windows % RESPLIT_WINDOWS == 0 {
                    tally.resplit(board, &all);
                }
                tally.windows += 1;
                let w = tally.windows;
                let mut due = 0;
                for (d, dev) in all.iter_mut().enumerate() {
                    if dev.next_event_time().is_some_and(|t| t <= h) {
                        dev.horizon = h;
                        due += 1;
                    } else {
                        board.claimed[d].store(w, Ordering::Relaxed);
                    }
                }
                board.left.store(due, Ordering::Relaxed);
                all.clear();
                if threads > 1 && due > 1 {
                    if caller.worker.is_none() {
                        let me = thread::current();
                        let cells = &cells;
                        let baton = &baton;
                        let w = scope.spawn(move || work(cells, board, spec, record, baton, me));
                        caller.worker = Some(w.thread().clone());
                    }
                    #[cfg(test)]
                    {
                        tally.shared += 1;
                    }
                    caller.post(w);
                }
                board.take_turn(&cells, spec, record, w, false);
                caller.join_window(board);
            }
            last.unwrap_or(SimTime::ZERO)
        })
    }

    /// Take every host-delivered frame harvested so far, in deterministic
    /// harvest order, with `port` remapped to the logical host port.
    pub fn take_delivered(&mut self) -> Vec<Delivered> {
        std::mem::take(&mut self.harvest.delivered)
    }

    /// Panic unless flow accounting balances: per switch (the usual
    /// single-switch identity) and fabric-wide — every frame injected at a
    /// host port was either delivered to a host port or shows up in some
    /// switch's typed drop counters. Links never drop.
    pub fn check_conservation(&self) {
        for sw in self.switches() {
            sw.check_conservation();
        }
        let drops: u64 = self.switches().map(|s| s.counters.total_drops()).sum();
        let delivered = self.harvest.host_delivered;
        assert_eq!(
            self.host_injected,
            delivered + drops,
            "fabric conservation: injected {} != delivered {} + drops {}",
            self.host_injected,
            delivered,
            drops
        );
    }

    /// The value of central register cell `cell` according to its owner
    /// leaf (`owners[cell]`), reading the central pipeline the cell's
    /// steer key maps onto (`cell % central_pipes` — the same modulo the
    /// data plane applies to `SetCentralPipe`).
    fn owner_cell(&self, owners: &[u32], reg: RegId, cell: usize) -> u64 {
        let leaf = self.leaf(owners[cell] as usize);
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
        self.merged_register_with(&self.spec.owners, reg, cells)
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
        for (l, leaf) in self.leaves().iter().map(|d| &d.sw).enumerate() {
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
        self.register_leaks_with(&self.spec.owners, reg, cells)
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
        let n = self.n_leaves();
        let name = |d: usize| self.device_name(d as u16);
        let mut leaves = Vec::new();
        let mut spines = Vec::new();
        let mut links = Vec::new();
        for (d, dev) in self.devices.iter().enumerate() {
            let tier = if d < n { &mut leaves } else { &mut spines };
            tier.push(Self::switch_report(name(d), &dev.sw));
            // A leaf's links go to the spines, a spine's to the leaves.
            let peer = if d < n { n } else { 0 };
            for (p, link) in dev.links.iter().enumerate() {
                links.push(LinkReport {
                    name: format!("{}->{}", name(d), name(peer + p)),
                    frames: link.frames,
                    wire_bytes: link.wire_bytes,
                });
            }
        }
        let delivered_digest = fold_hash(self.harvest.delivered.iter().flat_map(|d| {
            [d.port.0 as u64, d.time.0, d.meta.id]
                .into_iter()
                .chain(d.data.iter().map(|b| *b as u64))
        }));
        let mut reg_words = Vec::new();
        for leaf in self.leaves().iter().map(|d| &d.sw) {
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
            host_delivered: self.harvest.host_delivered,
            forwarded: self.harvest.forwarded,
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

    /// The demo fabric on `threads` threads with INT stamping, hop tracing
    /// and host-link faults on, dense enough that most windows have work on
    /// several devices, and cut into slices so a worker is spawned and
    /// joined more than once. Returns everything the run left behind, as
    /// text, and the windows offered to the worker.
    fn observed(threads: usize) -> (Vec<String>, u64) {
        use adcp_sim::{FaultConfig, FaultInjector, FaultOutcome};
        let cfg = FabricConfig {
            switch: AdcpConfig {
                trace: true,
                int: true,
                ..AdcpConfig::default()
            },
            ..FabricConfig::default()
        };
        let (mut fabric, _) = demo_fabric(5, cfg);
        fabric.threads = threads;
        let mut rng = SimRng::seed_from(9);
        let mut faults = FaultInjector::new(
            FaultConfig {
                drop_chance: 0.05,
                corrupt_chance: 0.05,
                delay_chance: 0.1,
                max_delay: Duration::from_ns(500),
            },
            SimRng::seed_from(10),
        );
        let ports = u64::from(fabric.spec().logical_ports());
        for i in 0..600u64 {
            let frame = demo::frame(rng.range(0u64..1 << 32), rng.range(0..64), 3);
            let mut pkt = Packet::new(i, FlowId(1000 + i), frame).seal();
            let base = SimTime::from_ns(1 + i * 20);
            let at = match faults.apply(&mut pkt) {
                FaultOutcome::Dropped => continue,
                FaultOutcome::Delayed(d) => base + d,
                FaultOutcome::Corrupted | FaultOutcome::Pass => base,
            };
            fabric.inject((i % ports) as u32, pkt, at);
        }
        for k in 1..=4 {
            fabric.run_until(SimTime::from_ns(k * 2_500));
        }
        fabric.run_until_idle();
        fabric.check_conservation();
        let mut seen = vec![
            format!("{:?}", fabric.report()),
            format!("{:?}", fabric.crossings()),
            format!("{:?}", fabric.drain_postcards()),
            format!("{:?}", fabric.take_delivered()),
        ];
        seen.extend((0..fabric.n_devices()).map(|d| format!("{:?}", fabric.device_trace_json(d))));
        (seen, fabric.split.tally.shared)
    }

    #[test]
    fn thread_count_changes_nothing() {
        let (one, offered) = observed(1);
        assert_eq!(offered, 0, "one thread never offers a window");
        let (two, offered) = observed(2);
        assert!(offered > 10, "two threads shared only {offered} windows");
        assert_eq!(one.len(), two.len());
        for (a, b) in one.iter().zip(&two) {
            assert!(a == b, "the thread count changed the run:\n{a}\n{b}");
        }
        assert!(one[1].len() > 2, "no crossings recorded");
        assert!(one[2].len() > 2, "no postcards");
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
