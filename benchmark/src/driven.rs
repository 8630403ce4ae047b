//! The five workloads the harness drives packet by packet — `fwd-min`,
//! `agg-zipf`, `agg-rmt`, `kv-array`, `fabric-agg` — through one chunk
//! loop: generate 4096 frames → inject → run to the chunk's last arrival →
//! take the deliveries → verify them. Only public functions of the crates
//! are called, and every call is timed from here.

use crate::probes::ProbeInput;
use crate::programs::*;
use crate::spans::{chunk_walls_us, self_ns, self_times, Phase, Recorder};
use crate::stats::{fnv_bytes, fnv_u64, percentile, FNV_OFFSET};
use adcp_core::{AdcpConfig, AdcpSwitch};
use adcp_fabric::{Fabric, FabricConfig};
use adcp_lang::fabric::{place, FabricSpec};
use adcp_lang::{compile, CompileOptions, Program, RmtCentralStrategy, TargetModel};
use adcp_rmt::{RmtConfig, RmtSwitch};
use adcp_sim::metrics::MetricsRegistry;
use adcp_sim::packet::{FlowId, Packet, PortId};
use adcp_sim::rng::SimRng;
use adcp_sim::stats::LatencyHist;
use adcp_sim::time::SimTime;
use adcp_workloads::keys::ZipfKeys;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Packets per chunk.
pub const CHUNK: u64 = 4096;

/// Packets per repetition. Constants, chosen so one repetition is 1–2 s of
/// wall on the merge commit; never calibrated at run time, so both sides of
/// a later A/B execute identical inputs.
pub const FWD_PKTS: u64 = 420_000;
/// `agg-zipf` and `agg-rmt` packets per repetition.
pub const AGG_PKTS: u64 = 240_000;
/// `kv-array` packets per repetition (16 keys each).
pub const KV_PKTS: u64 = 72_000;
/// `fabric-agg` packets per repetition.
pub const FABRIC_PKTS: u64 = 36_000;

/// Arrival spacing, ps. `fwd-min`: 1.44 Gpps, 60 % of the 2.4 Gpps the four
/// 0.6 GHz central pipes let the reference ADCP sustain at any frame size
/// (so below 60 % of the 8 × 800G line rate at 64 B, which the central
/// region cannot carry).
const FWD_GAP_PS: u64 = 694;
/// `agg-*`: 1 Gpps — the hot key's central pipe runs about half busy on the
/// ADCP, and the one RMT ingress pipe that owns ports 0–7 stays below its
/// 1.62 Gpps with the recirculated passes added.
const AGG_GAP_PS: u64 = 1_000;
/// `kv-array`: 0.4 Gpps, 60 % of what the single server port drains.
const KV_GAP_PS: u64 = 2_500;
/// `fabric-agg`: 0.25 Gpps — three quarters of it crosses the one 400G
/// spine→leaf link that feeds the delivery leaf.
const FABRIC_GAP_PS: u64 = 4_000;

/// Key space `fabric-agg` folds the stream onto: the placement's range
/// tables are sized `key_space + 8` and 2¹⁷ entries no longer compile for
/// the leaf target (`TableTooLarge`), so the fabric runs the same program
/// and Zipf stream with keys masked to 2¹⁶.
pub const FABRIC_KEYS: u64 = 1 << 16;

const ZIPF_SKEW: f64 = 0.99;
const IN_PORTS: u64 = 8;

/// A delivered frame, whichever device produced it.
pub struct Out<'a> {
    /// TX port (logical host port on the fabric).
    pub port: u16,
    /// Time its last bit left, ps.
    pub time: u64,
    /// Time it was created, ps.
    pub created: u64,
    /// Packet id.
    pub id: u64,
    /// Frame bytes.
    pub data: &'a [u8],
}

/// Exact counts read back through public accessors after a run. Summed
/// over the devices of a fabric, except the last four, which take the
/// maximum.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// Frames offered to RX ports.
    pub injected: u64,
    /// Frames serialized out of TX ports.
    pub delivered: u64,
    /// Every typed drop.
    pub drops: u64,
    /// Σ `count()` of the parser/ingress/central/egress `span_ps` and TM
    /// `residency_ps` histograms: the unit of simulator work, since no
    /// event counter is public.
    pub hops: u64,
    /// `count()` of the parser `span_ps` histogram.
    pub parses: u64,
    /// MAT lookups, lanes counted individually.
    pub mat_lookups: u64,
    /// MAT lookups that hit.
    pub mat_hits: u64,
    /// Frame buffers the deparser rebuilt.
    pub deparse_allocs: u64,
    /// RMT recirculation passes.
    pub recirc_passes: u64,
    /// High-water mark of the TM buffers, cells.
    pub tm_hwm_cells: u64,
    /// p99 of TM1 (on RMT: the one TM) residency, ns.
    pub tm1_p99_ns: f64,
    /// p99 of TM2 residency, ns.
    pub tm2_p99_ns: f64,
    /// Busiest central pipe's busy cycles as a share of the makespan (on
    /// RMT: busiest ingress pipe, where recirculated central tables run).
    pub busy_max_share: f64,
}

impl Counts {
    fn merge(&mut self, o: &Counts) {
        self.injected += o.injected;
        self.delivered += o.delivered;
        self.drops += o.drops;
        self.hops += o.hops;
        self.parses += o.parses;
        self.mat_lookups += o.mat_lookups;
        self.mat_hits += o.mat_hits;
        self.deparse_allocs += o.deparse_allocs;
        self.recirc_passes += o.recirc_passes;
        self.tm_hwm_cells = self.tm_hwm_cells.max(o.tm_hwm_cells);
        self.tm1_p99_ns = self.tm1_p99_ns.max(o.tm1_p99_ns);
        self.tm2_p99_ns = self.tm2_p99_ns.max(o.tm2_p99_ns);
        self.busy_max_share = self.busy_max_share.max(o.busy_max_share);
    }
}

fn hist_count(m: &MetricsRegistry, scope: &str, name: &str) -> u64 {
    m.hist_ref(scope, name).map_or(0, |h| h.count())
}

fn hist_p99_ns(m: &MetricsRegistry, scope: &str) -> f64 {
    m.hist_ref(scope, "residency_ps")
        .filter(|h| h.count() > 0)
        .map_or(0.0, |h| h.percentile_ps(0.99) as f64 / 1e3)
}

/// (hops, parses) from a switch's registry; scopes a target does not have
/// count 0.
fn hop_counts(m: &MetricsRegistry) -> (u64, u64) {
    let parses = hist_count(m, "parser", "span_ps");
    let stages: u64 = ["ingress", "central", "egress"]
        .iter()
        .map(|s| hist_count(m, s, "span_ps"))
        .sum();
    let tms: u64 = ["tm", "tm1", "tm2"]
        .iter()
        .map(|s| hist_count(m, s, "residency_ps"))
        .sum();
    (parses + stages + tms, parses)
}

fn adcp_counts(sw: &AdcpSwitch, makespan: SimTime) -> Counts {
    let c = &sw.counters;
    let m = sw.metrics();
    let (hops, parses) = hop_counts(m);
    let period_ps = sw.target().pipe_freq().period().as_ps();
    let busiest = (0..sw.num_central())
        .map(|p| sw.central_busy_cycles(p))
        .max()
        .unwrap_or(0);
    Counts {
        injected: c.injected,
        delivered: c.delivered,
        drops: c.total_drops(),
        hops,
        parses,
        mat_lookups: c.mat_lookups,
        mat_hits: c.mat_hits,
        deparse_allocs: c.deparse_allocs,
        recirc_passes: 0,
        tm_hwm_cells: sw.tm_buffer_hwm(),
        tm1_p99_ns: hist_p99_ns(m, "tm1"),
        tm2_p99_ns: hist_p99_ns(m, "tm2"),
        busy_max_share: (busiest * period_ps) as f64 / makespan.as_ps().max(1) as f64,
    }
}

/// The span names one kind of device is timed under.
pub struct Names {
    /// Prefix of the timing metrics: `core`, `rmt` or `fabric`.
    pub layer: &'static str,
    /// Prefix of the exact counts: the switch crate's name (the fabric's
    /// are summed over its six `core` switches).
    counts: &'static str,
    new: &'static str,
    install: &'static str,
    inject: &'static str,
    run: &'static str,
    drain: &'static str,
    report: &'static str,
}

/// A device under test: one switch of either kind, or the fabric.
pub trait Dut {
    /// Its delivery record.
    type Rec;
    /// Span names.
    const NAMES: Names;
    /// Offer a packet to a port at `t`.
    fn inject(&mut self, port: u32, pkt: Packet, t: SimTime);
    /// Run every event at or before `t`.
    fn run_to(&mut self, t: SimTime);
    /// Run to quiescence; returns the quiescence time.
    fn run_idle(&mut self) -> SimTime;
    /// Drain the deliveries.
    fn take(&mut self) -> Vec<Self::Rec>;
    /// Look at one delivery.
    fn view(r: &Self::Rec) -> Out<'_>;
    /// Does packet conservation hold? (`check_conservation` panics if not.)
    fn conserved(&self) -> bool;
    /// Exact counts at quiescence.
    fn counts(&self, makespan: SimTime) -> Counts;
    /// (p50, p99) ns of the device's own delivered-latency histogram.
    fn latency_ns(&self) -> Option<(f64, f64)>;
    /// Cell `key` of the `agg` register, read from whichever pipe or leaf
    /// owns it.
    fn agg_cell(&self, key: u64) -> u64;
    /// Frames that crossed an inter-switch link (`None` on one switch).
    fn forwarded(&self) -> Option<u64> {
        None
    }
}

fn hist_p50_p99(h: &LatencyHist) -> (f64, f64) {
    (
        h.percentile_ps(0.50) as f64 / 1e3,
        h.percentile_ps(0.99) as f64 / 1e3,
    )
}

impl Dut for AdcpSwitch {
    type Rec = adcp_core::Delivered;
    const NAMES: Names = Names {
        layer: "core",
        counts: "core",
        new: "core.new",
        install: "core.install",
        inject: "core.inject",
        run: "core.run",
        drain: "core.drain",
        report: "core.report",
    };
    fn inject(&mut self, port: u32, pkt: Packet, t: SimTime) {
        AdcpSwitch::inject(self, PortId(port as u16), pkt, t)
    }
    fn run_to(&mut self, t: SimTime) {
        self.run_until(t);
    }
    fn run_idle(&mut self) -> SimTime {
        self.run_until_idle()
    }
    fn take(&mut self) -> Vec<Self::Rec> {
        self.take_delivered()
    }
    fn view(r: &Self::Rec) -> Out<'_> {
        Out {
            port: r.port.0,
            time: r.time.as_ps(),
            created: r.meta.created.as_ps(),
            id: r.meta.id,
            data: &r.data,
        }
    }
    fn conserved(&self) -> bool {
        catch_unwind(AssertUnwindSafe(|| self.check_conservation())).is_ok()
    }
    fn counts(&self, makespan: SimTime) -> Counts {
        adcp_counts(self, makespan)
    }
    fn latency_ns(&self) -> Option<(f64, f64)> {
        Some(hist_p50_p99(&self.latency))
    }
    fn agg_cell(&self, key: u64) -> u64 {
        let pipe = (key % self.num_central() as u64) as usize;
        self.central_register(pipe, AGG_REG)
            .map_or(0, |r| r.peek(key))
    }
}

impl Dut for RmtSwitch {
    type Rec = adcp_rmt::Delivered;
    const NAMES: Names = Names {
        layer: "rmt",
        counts: "rmt",
        new: "rmt.new",
        install: "rmt.install",
        inject: "rmt.inject",
        run: "rmt.run",
        drain: "rmt.drain",
        report: "rmt.report",
    };
    fn inject(&mut self, port: u32, pkt: Packet, t: SimTime) {
        RmtSwitch::inject(self, PortId(port as u16), pkt, t)
    }
    fn run_to(&mut self, t: SimTime) {
        self.run_until(t);
    }
    fn run_idle(&mut self) -> SimTime {
        self.run_until_idle()
    }
    fn take(&mut self) -> Vec<Self::Rec> {
        self.take_delivered()
    }
    fn view(r: &Self::Rec) -> Out<'_> {
        Out {
            port: r.port.0,
            time: r.time.as_ps(),
            created: r.meta.created.as_ps(),
            id: r.meta.id,
            data: &r.data,
        }
    }
    fn conserved(&self) -> bool {
        catch_unwind(AssertUnwindSafe(|| self.check_conservation())).is_ok()
    }
    fn counts(&self, makespan: SimTime) -> Counts {
        let c = &self.counters;
        let m = self.metrics();
        let (hops, parses) = hop_counts(m);
        let pipes = self.target().num_pipes() as usize;
        Counts {
            injected: c.injected,
            delivered: c.delivered,
            drops: c.total_drops(),
            hops,
            parses,
            mat_lookups: c.mat_lookups,
            mat_hits: c.mat_hits,
            deparse_allocs: c.deparse_allocs,
            recirc_passes: c.recirc_passes,
            tm_hwm_cells: self.tm_buffer_hwm(),
            tm1_p99_ns: hist_p99_ns(m, "tm"),
            tm2_p99_ns: 0.0,
            busy_max_share: (0..pipes)
                .map(|p| self.ingress_utilization(p, makespan))
                .fold(0.0, f64::max),
        }
    }
    fn latency_ns(&self) -> Option<(f64, f64)> {
        Some(hist_p50_p99(&self.latency))
    }
    fn agg_cell(&self, key: u64) -> u64 {
        let pipe = (key % self.target().num_pipes() as u64) as usize;
        self.central_register(pipe, AGG_REG).peek(key)
    }
}

impl Dut for Fabric {
    type Rec = adcp_core::Delivered;
    const NAMES: Names = Names {
        layer: "fabric",
        counts: "core",
        new: "fabric.new",
        install: "fabric.install",
        inject: "fabric.inject",
        run: "fabric.run",
        drain: "fabric.drain",
        report: "fabric.report",
    };
    fn inject(&mut self, port: u32, pkt: Packet, t: SimTime) {
        Fabric::inject(self, port, pkt, t)
    }
    /// The fabric has no `run_until`: each chunk runs to quiescence.
    fn run_to(&mut self, _t: SimTime) {
        self.run_until_idle();
    }
    fn run_idle(&mut self) -> SimTime {
        self.run_until_idle()
    }
    fn take(&mut self) -> Vec<Self::Rec> {
        self.take_delivered()
    }
    fn view(r: &Self::Rec) -> Out<'_> {
        <AdcpSwitch as Dut>::view(r)
    }
    fn conserved(&self) -> bool {
        catch_unwind(AssertUnwindSafe(|| self.check_conservation())).is_ok()
    }
    fn counts(&self, makespan: SimTime) -> Counts {
        let mut all = Counts::default();
        for l in 0..self.n_leaves() {
            all.merge(&adcp_counts(self.leaf(l), makespan));
        }
        for s in 0..self.n_spines() {
            all.merge(&adcp_counts(self.spine(s), makespan));
        }
        // Host-facing totals, not the per-device sums.
        all.injected = self.host_injected();
        all.delivered = self.host_delivered();
        all
    }
    fn latency_ns(&self) -> Option<(f64, f64)> {
        None
    }
    fn agg_cell(&self, key: u64) -> u64 {
        // Keys beyond the fabric's key space are never sent.
        let Some(&owner) = self.spec().owners.get(key as usize) else {
            return 0;
        };
        let leaf = self.leaf(owner as usize);
        let pipe = (key % leaf.num_central() as u64) as usize;
        leaf.central_register(pipe, AGG_REG)
            .map_or(0, |r| r.peek(key))
    }
    fn forwarded(&self) -> Option<u64> {
        Some(Fabric::forwarded(self))
    }
}

/// A seeded packet source with the oracle for what it sent.
pub trait Traffic {
    /// Append packets `first..first + n` with their port and arrival time.
    fn chunk(&mut self, first: u64, n: u64, out: &mut Vec<(u32, Packet, SimTime)>);
    /// Check one delivered frame against what was sent.
    fn check(&mut self, d: &Out<'_>) -> bool;
    /// End-of-run audit of device state; returns (mismatches, digest of the
    /// final register contents).
    fn audit<D: Dut>(&self, _dut: &D) -> (u64, u64) {
        (0, FNV_OFFSET)
    }
    /// The program, its entries and the first `n` frames, for the probes.
    fn probe_input(&self, seed: u64, n: u64) -> ProbeInput;
}

/// `fwd-min` traffic: uniform `dst` over 8 ports, ingress ports round
/// robin, one flow per packet so the flow hash spreads the frames over the
/// central pipes.
pub struct FwdTraffic {
    rng: SimRng,
    dst: Vec<u8>,
}

impl FwdTraffic {
    fn new(seed: u64) -> Self {
        FwdTraffic {
            rng: SimRng::seed_from(seed),
            dst: Vec::new(),
        }
    }
}

impl Traffic for FwdTraffic {
    fn chunk(&mut self, first: u64, n: u64, out: &mut Vec<(u32, Packet, SimTime)>) {
        for i in first..first + n {
            let dst = self.rng.range(0u64..FWD_PORTS);
            self.dst.push(dst as u8);
            let pkt = Packet::new(i, FlowId(i), fwd_frame(dst, i)).seal();
            out.push(((i % IN_PORTS) as u32, pkt, SimTime(1_000 + i * FWD_GAP_PS)));
        }
    }
    fn check(&mut self, d: &Out<'_>) -> bool {
        self.dst
            .get(d.id as usize)
            .is_some_and(|&dst| fwd_check(d.port, d.data, dst as u64, d.id))
    }
    fn probe_input(&self, seed: u64, n: u64) -> ProbeInput {
        let mut rng = SimRng::seed_from(seed);
        ProbeInput {
            program: fwd_program(),
            installs: fwd_entries()
                .into_iter()
                .map(|e| ("route".to_string(), e))
                .collect(),
            frames: (0..n)
                .map(|i| fwd_frame(rng.range(0u64..FWD_PORTS), i))
                .collect(),
            gap_ps: FWD_GAP_PS,
            reg_indices: Vec::new(),
            reg_cells: 0,
            zipf: None,
        }
    }
}

/// `agg` traffic: Zipf 0.99 ranks over 2²⁰, scrambled onto keys.
pub struct AggTraffic {
    zipf: ZipfKeys,
    rng: SimRng,
    oracle: AggOracle,
    /// Keys are masked to this many.
    keys: u64,
    gap_ps: u64,
    /// Replies go to ports `reply_base + i % reply_ports`.
    reply_base: u64,
    reply_ports: u64,
    /// The program the device runs (for the probes).
    program: fn() -> Program,
}

impl AggTraffic {
    fn single_switch(seed: u64, program: fn() -> Program) -> Self {
        AggTraffic {
            zipf: ZipfKeys::new(AGG_KEYS as usize, ZIPF_SKEW),
            rng: SimRng::seed_from(seed),
            oracle: AggOracle::new(),
            keys: AGG_KEYS,
            gap_ps: AGG_GAP_PS,
            reply_base: IN_PORTS,
            reply_ports: 8,
            program,
        }
    }

    /// The fabric delivers everything to logical host port 0.
    fn fabric(seed: u64, program: fn() -> Program) -> Self {
        AggTraffic {
            keys: FABRIC_KEYS,
            gap_ps: FABRIC_GAP_PS,
            reply_base: 0,
            reply_ports: 1,
            ..Self::single_switch(seed, program)
        }
    }

    fn dst(&self, id: u64) -> u64 {
        self.reply_base + id % self.reply_ports
    }

    fn next_key(&mut self) -> u64 {
        agg_key_of_rank(self.zipf.sample(&mut self.rng)) & (self.keys - 1)
    }
}

impl Traffic for AggTraffic {
    fn chunk(&mut self, first: u64, n: u64, out: &mut Vec<(u32, Packet, SimTime)>) {
        for i in first..first + n {
            let key = self.next_key();
            self.oracle.on_inject(key);
            let pkt = Packet::new(i, FlowId(key), agg_frame(self.dst(i), key)).seal();
            out.push(((i % IN_PORTS) as u32, pkt, SimTime(1_000 + i * self.gap_ps)));
        }
    }
    fn check(&mut self, d: &Out<'_>) -> bool {
        let dst = self.dst(d.id);
        self.oracle.on_deliver(d.port, d.data, dst)
    }
    fn audit<D: Dut>(&self, dut: &D) -> (u64, u64) {
        self.oracle.finish(|k| dut.agg_cell(k))
    }
    fn probe_input(&self, seed: u64, n: u64) -> ProbeInput {
        let mut rng = SimRng::seed_from(seed);
        let keys: Vec<u64> = (0..n)
            .map(|_| agg_key_of_rank(self.zipf.sample(&mut rng)) & (self.keys - 1))
            .collect();
        ProbeInput {
            program: (self.program)(),
            installs: Vec::new(),
            frames: keys
                .iter()
                .enumerate()
                .map(|(i, k)| agg_frame(self.dst(i as u64), *k))
                .collect(),
            gap_ps: self.gap_ps,
            reg_indices: keys,
            reg_cells: AGG_KEYS as u32,
            zipf: Some(self.zipf),
        }
    }
}

/// `kv-array` traffic: 16 Zipf 0.99 keys over 2¹⁸ per packet.
pub struct KvTraffic {
    zipf: ZipfKeys,
    rng: SimRng,
    /// Digest of the keys of every packet sent, by id.
    sent: Vec<u64>,
    entries: u64,
}

fn kv_keys_digest(keys: &[u64; KV_WIDTH]) -> u64 {
    keys.iter().fold(FNV_OFFSET, |h, k| fnv_u64(h, *k))
}

impl KvTraffic {
    fn new(seed: u64, entries: u64) -> Self {
        KvTraffic {
            zipf: ZipfKeys::new(KV_KEYS as usize, ZIPF_SKEW),
            rng: SimRng::seed_from(seed),
            sent: Vec::new(),
            entries,
        }
    }

    fn next_keys(&mut self) -> [u64; KV_WIDTH] {
        let mut keys = [0u64; KV_WIDTH];
        for k in keys.iter_mut() {
            *k = self.zipf.sample(&mut self.rng);
        }
        keys
    }
}

impl Traffic for KvTraffic {
    fn chunk(&mut self, first: u64, n: u64, out: &mut Vec<(u32, Packet, SimTime)>) {
        for i in first..first + n {
            let keys = self.next_keys();
            self.sent.push(kv_keys_digest(&keys));
            let pkt = Packet::new(i, FlowId(i), kv_frame(&keys)).seal();
            out.push(((i % IN_PORTS) as u32, pkt, SimTime(1_000 + i * KV_GAP_PS)));
        }
    }
    fn check(&mut self, d: &Out<'_>) -> bool {
        if d.data.len() != KV_FRAME {
            return false;
        }
        let mut keys = [0u64; KV_WIDTH];
        for (i, k) in keys.iter_mut().enumerate() {
            *k = u32::from_be_bytes(d.data[1 + i * 4..5 + i * 4].try_into().unwrap()) as u64;
        }
        self.sent.get(d.id as usize) == Some(&kv_keys_digest(&keys))
            && kv_check(d.port, d.data, &keys, self.entries)
    }
    fn probe_input(&self, seed: u64, n: u64) -> ProbeInput {
        let mut t = KvTraffic::new(seed, self.entries);
        ProbeInput {
            program: kv_program(),
            installs: kv_entries(self.entries)
                .map(|e| ("cache".to_string(), e))
                .collect(),
            frames: (0..n).map(|_| kv_frame(&t.next_keys())).collect(),
            gap_ps: KV_GAP_PS,
            reg_indices: Vec::new(),
            reg_cells: 0,
            zipf: Some(self.zipf),
        }
    }
}

/// What one repetition measured.
#[derive(Debug, Clone, Default)]
pub struct RepOut {
    /// Program build + compile + `*::new` + installs + generator, s.
    pub setup_s: f64,
    /// Generate + inject + run + drain + report, s: the denominator of
    /// `sim_pkts_per_s` and the numerator of `wall_s_per_sim_s`.
    pub work_s: f64,
    /// Oracle checks and digests, s (excluded from every denominator).
    pub verify_s: f64,
    /// The whole repetition, s.
    pub rep_s: f64,
    /// Packets injected.
    pub pkts: u64,
    /// Deliveries the oracle expects.
    pub expected: u64,
    /// Deliveries seen.
    pub delivered: u64,
    /// Oracle mismatches + unexpected drops + failed conservation checks.
    pub failed: u64,
    /// Simulated quiescence time, ps.
    pub makespan_ps: u64,
    /// Delivered-packet latency, ns.
    pub p50_ns: f64,
    /// Same, 99th percentile.
    pub p99_ns: f64,
    /// FNV digest over the delivered frames in order, the final register
    /// contents and the simulated results: equal across repetitions.
    pub digest: u64,
    /// Per-layer metrics (traced repetitions only).
    pub layer: Vec<(String, f64)>,
    /// Exact counts at quiescence (driven workloads).
    pub counts: Counts,
    /// Share of a traced repetition's wall that no span inside it claims:
    /// the harness's own glue.
    pub rep_self_share: f64,
}

impl RepOut {
    /// Fold the simulated results into the digest.
    pub fn seal_digest(&mut self) {
        for w in [
            self.pkts,
            self.delivered,
            self.makespan_ps,
            self.p50_ns.to_bits(),
            self.p99_ns.to_bits(),
        ] {
            self.digest = fnv_u64(self.digest, w);
        }
    }
}

/// The value of `name` in a list of measured metrics, 0 if absent.
pub fn metric(values: &[(String, f64)], name: &str) -> f64 {
    values.iter().find(|(n, _)| n == name).map_or(0.0, |v| v.1)
}

/// The exact-count metrics of one repetition, named under `prefix`.
pub fn count_metrics(prefix: &str, c: &Counts, pkts: f64) -> Vec<(String, f64)> {
    let p = prefix;
    vec![
        (format!("{p}.hops_per_pkt"), c.hops as f64 / pkts),
        (
            format!("{p}.mat_lookups_per_pkt"),
            c.mat_lookups as f64 / pkts,
        ),
        (
            format!("{p}.mat_hit_rate"),
            c.mat_hits as f64 / c.mat_lookups.max(1) as f64,
        ),
        (
            format!("{p}.deparse_allocs_per_pkt"),
            c.deparse_allocs as f64 / pkts,
        ),
        (format!("{p}.drops_per_pkt"), c.drops as f64 / pkts),
        (format!("{p}.tm_buffer_hwm_cells"), c.tm_hwm_cells as f64),
        (format!("{p}.tm1_residency_p99_ns"), c.tm1_p99_ns),
        (format!("{p}.tm2_residency_p99_ns"), c.tm2_p99_ns),
        (format!("{p}.central_busy_max_share"), c.busy_max_share),
    ]
}

/// Drive `pkts` packets from `traffic` through `dut` and verify them.
/// `setup` builds both inside its own spans.
fn drive<D: Dut, T: Traffic>(
    rec: &mut Recorder,
    rep: u32,
    traced: bool,
    pkts: u64,
    setup: impl FnOnce(&mut Recorder) -> (D, T),
) -> RepOut {
    let from = rec.begin_rep(rep, traced);
    let root = rec.enter("bench.rep", Phase::Group, -1);
    let (mut dut, mut traffic) = setup(rec);
    let names = D::NAMES;

    let mut digest = FNV_OFFSET;
    let mut mismatches = 0u64;
    let mut delivered = 0u64;
    let mut own_latency = LatencyHist::new();
    let (mut allocs, mut alloc_bytes) = (0u64, 0u64);
    let mut batch: Vec<(u32, Packet, SimTime)> = Vec::with_capacity(CHUNK as usize);
    let mut makespan = SimTime::ZERO;

    let chunks = pkts.div_ceil(CHUNK);
    for c in 0..chunks {
        let first = c * CHUNK;
        let n = CHUNK.min(pkts - first);
        let chunk_span = rec.enter("bench.chunk", Phase::Group, c as i64);

        let t = rec.enter("workloads.gen", Phase::Work, c as i64);
        traffic.chunk(first, n, &mut batch);
        rec.exit(t);
        let until = batch.last().map_or(SimTime::ZERO, |b| b.2);

        let t = rec.enter(names.inject, Phase::Work, c as i64);
        for (port, pkt, at) in batch.drain(..) {
            dut.inject(port, pkt, at);
        }
        rec.exit(t);

        let t = rec.enter(names.run, Phase::Work, c as i64);
        let last = c + 1 == chunks;
        let mut run = || {
            if last {
                makespan = dut.run_idle();
            } else {
                dut.run_to(until);
            }
        };
        if traced {
            let ((), a, b) = crate::alloc::count(run);
            allocs += a;
            alloc_bytes += b;
        } else {
            run();
        }
        rec.exit(t);

        let t = rec.enter(names.drain, Phase::Work, c as i64);
        let out = dut.take();
        rec.exit(t);

        let t = rec.enter("bench.verify", Phase::Verify, c as i64);
        for r in &out {
            let d = D::view(r);
            mismatches += !traffic.check(&d) as u64;
            digest = fnv_u64(digest, d.port as u64);
            digest = fnv_u64(digest, d.time);
            digest = fnv_u64(digest, d.id);
            digest = fnv_bytes(digest, d.data);
            own_latency.record_span(SimTime(d.created), SimTime(d.time));
        }
        delivered += out.len() as u64;
        drop(out);
        rec.exit(t);
        rec.exit(chunk_span);
    }

    let t = rec.enter(names.report, Phase::Work, -1);
    let counts = dut.counts(makespan);
    let conserved = dut.conserved();
    let (p50_ns, p99_ns) = dut
        .latency_ns()
        .unwrap_or_else(|| hist_p50_p99(&own_latency));
    let forwarded = dut.forwarded();
    rec.exit(t);

    let t = rec.enter("bench.verify", Phase::Verify, -1);
    let (audit_bad, reg_digest) = traffic.audit(&dut);
    rec.exit(t);
    // Freeing the device (register pages, queues) is part of a repetition's
    // wall but of none of its denominators.
    let t = rec.enter("bench.teardown", Phase::Group, -1);
    drop(dut);
    rec.exit(t);
    let rep_s = rec.exit(root);

    let (setup_s, work_s, verify_s) = rec.totals();
    let (drops, injected) = (counts.drops, counts.injected);
    let mut out = RepOut {
        setup_s,
        work_s,
        verify_s,
        rep_s,
        pkts,
        expected: pkts,
        delivered,
        failed: mismatches
            + audit_bad
            + drops
            + !conserved as u64
            + (delivered != pkts) as u64
            + (injected != pkts) as u64,
        makespan_ps: makespan.as_ps(),
        p50_ns,
        p99_ns,
        digest: fnv_u64(digest, reg_digest),
        layer: Vec::new(),
        counts,
        rep_self_share: 0.0,
    };
    out.seal_digest();

    if traced {
        let spans = rec.spans_from(from);
        let st = self_times(spans, from);
        let rep_ns = rep_s * 1e9;
        let n = pkts as f64;
        let counts = out.counts.clone();
        let hops = counts.hops.max(1) as f64;
        let p = names.layer;
        let mut layer = Vec::new();
        let mut put = |name: String, v: f64| layer.push((name, v));
        let run_ns = self_ns(&st, names.run);
        put(
            "workloads.gen_ns_per_pkt".into(),
            self_ns(&st, "workloads.gen") / n,
        );
        put(
            "workloads.gen_share".into(),
            self_ns(&st, "workloads.gen") / rep_ns,
        );
        put("lang.compile_ms".into(), self_ns(&st, "lang.compile") / 1e6);
        put(
            "lang.place_fabric_ms".into(),
            self_ns(&st, "lang.place_fabric") / 1e6,
        );
        put(format!("{p}.new_ms"), self_ns(&st, names.new) / 1e6);
        put(
            format!("{p}.inject_ns_per_pkt"),
            self_ns(&st, names.inject) / n,
        );
        put(format!("{p}.run_ns_per_pkt"), run_ns / n);
        put(format!("{p}.run_ns_per_hop"), run_ns / hops);
        put(
            format!("{p}.drain_ns_per_pkt"),
            self_ns(&st, names.drain) / n,
        );
        put(format!("{p}.report_ms"), self_ns(&st, names.report) / 1e6);
        match forwarded {
            Some(forwarded) => {
                put("fabric.forwarded_per_pkt".into(), forwarded as f64 / n);
                put(
                    "fabric.device_hops_per_pkt".into(),
                    (forwarded as f64 + n) / n,
                );
            }
            None => {
                let chunk_us = chunk_walls_us(spans, &[names.inject, names.run, names.drain]);
                put(format!("{p}.install_ms"), self_ns(&st, names.install) / 1e6);
                put(format!("{p}.run_share"), run_ns / rep_ns);
                put(
                    format!("{p}.chunk_wall_us_p50"),
                    percentile(&chunk_us, 0.50),
                );
                put(
                    format!("{p}.chunk_wall_us_p95"),
                    percentile(&chunk_us, 0.95),
                );
            }
        }
        let c = names.counts;
        put(format!("{c}.allocs_per_pkt"), allocs as f64 / n);
        put(format!("{c}.alloc_bytes_per_pkt"), alloc_bytes as f64 / n);
        if counts.recirc_passes > 0 {
            put(
                format!("{c}.recirc_passes_per_pkt"),
                counts.recirc_passes as f64 / n,
            );
        }
        put("bench.verify_share".into(), verify_s / rep_s);
        layer.extend(count_metrics(c, &counts, n));
        out.layer = layer;
        out.rep_self_share = self_ns(&st, "bench.rep") / rep_ns;
    }
    out
}

fn adcp_cfg() -> AdcpConfig {
    AdcpConfig {
        central_workers: 1,
        ..AdcpConfig::default()
    }
}

/// Build the program, and in traced repetitions time a stand-alone
/// `compile` of it (`*::new` compiles again inside, under its own span).
fn program_span(
    rec: &mut Recorder,
    build: fn() -> Program,
    target: &TargetModel,
    opts: CompileOptions,
) -> Program {
    let t = rec.enter("lang.program", Phase::Setup, -1);
    let program = build();
    rec.exit(t);
    if rec.tracing() {
        let t = rec.enter("lang.compile", Phase::Setup, -1);
        compile(&program, target, opts).expect("benchmark program compiles");
        rec.exit(t);
    }
    program
}

fn new_adcp(rec: &mut Recorder, build: fn() -> Program) -> AdcpSwitch {
    let target = TargetModel::adcp_reference();
    let program = program_span(rec, build, &target, CompileOptions::default());
    let t = rec.enter("core.new", Phase::Setup, -1);
    let sw = AdcpSwitch::new(program, target, CompileOptions::default(), adcp_cfg())
        .expect("benchmark program compiles for the ADCP");
    rec.exit(t);
    sw
}

fn traffic_span<T>(rec: &mut Recorder, make: impl FnOnce() -> T) -> T {
    let t = rec.enter("workloads.new", Phase::Setup, -1);
    let traffic = make();
    rec.exit(t);
    traffic
}

fn agg_adcp_program() -> Program {
    agg_program(false)
}

fn agg_rmt_program() -> Program {
    agg_program(true)
}

/// One single-switch reference run of the `agg` stream, used by
/// `fabric-agg` to put its per-hop cost next to one switch's.
fn agg_reference(seed: u64, pkts: u64) -> RepOut {
    drive(&mut Recorder::new(true), 0, true, pkts, |rec| {
        let sw = new_adcp(rec, agg_adcp_program);
        (sw, AggTraffic::fabric(seed, agg_adcp_program))
    })
}

/// The driven workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driven {
    /// `fwd` on `AdcpSwitch`.
    FwdMin,
    /// `agg` on `AdcpSwitch`.
    AggZipf,
    /// `agg` on `RmtSwitch`, recirculating.
    AggRmt,
    /// `kv` on `AdcpSwitch`.
    KvArray,
    /// `agg` placed on the 2 × 4 fabric.
    FabricAgg,
}

impl Driven {
    /// Packets per repetition, divided by `shrink`.
    pub fn pkts(self, shrink: u64) -> u64 {
        let full = match self {
            Driven::FwdMin => FWD_PKTS,
            Driven::AggZipf | Driven::AggRmt => AGG_PKTS,
            Driven::KvArray => KV_PKTS,
            Driven::FabricAgg => FABRIC_PKTS,
        };
        (full / shrink.max(1)).max(1)
    }

    /// Run one repetition.
    pub fn rep(self, rec: &mut Recorder, rep: u32, traced: bool, seed: u64, shrink: u64) -> RepOut {
        let pkts = self.pkts(shrink);
        let entries = kv_entries_installed(shrink);
        match self {
            Driven::FwdMin => drive(rec, rep, traced, pkts, |rec| {
                let mut sw = new_adcp(rec, fwd_program);
                let s = rec.enter("core.install", Phase::Setup, -1);
                for e in fwd_entries() {
                    sw.install_all("route", e).expect("route entry installs");
                }
                rec.exit(s);
                (sw, traffic_span(rec, || FwdTraffic::new(seed)))
            }),
            Driven::AggZipf => drive(rec, rep, traced, pkts, |rec| {
                let sw = new_adcp(rec, agg_adcp_program);
                let t = traffic_span(rec, || AggTraffic::single_switch(seed, agg_adcp_program));
                (sw, t)
            }),
            Driven::AggRmt => drive(rec, rep, traced, pkts, |rec| {
                // The 64 Mbit accumulator does not fit the 12.8T
                // preset's 10 × 2 Mbit of register SRAM (RMT gets no
                // partition discount), so this target has 8 Mbit per
                // stage; nothing else differs from `rmt_12t`.
                let target = TargetModel {
                    stage_reg_bits: 8 * 1_024 * 1_024,
                    ..TargetModel::rmt_12t()
                };
                let opts = CompileOptions {
                    rmt_central: RmtCentralStrategy::Recirculate,
                };
                let program = program_span(rec, agg_rmt_program, &target, opts);
                let s = rec.enter("rmt.new", Phase::Setup, -1);
                let sw = RmtSwitch::new(program, target, opts, RmtConfig::default())
                    .expect("agg compiles for the RMT target");
                rec.exit(s);
                let t = traffic_span(rec, || AggTraffic::single_switch(seed, agg_rmt_program));
                (sw, t)
            }),
            Driven::KvArray => drive(rec, rep, traced, pkts, |rec| {
                let mut sw = new_adcp(rec, kv_program);
                let s = rec.enter("core.install", Phase::Setup, -1);
                for e in kv_entries(entries) {
                    sw.install_all("cache", e).expect("cache entry installs");
                }
                rec.exit(s);
                (sw, traffic_span(rec, || KvTraffic::new(seed, entries)))
            }),
            Driven::FabricAgg => {
                let mut out = drive(rec, rep, traced, pkts, |rec| {
                    let s = rec.enter("lang.program", Phase::Setup, -1);
                    let program = agg_adcp_program();
                    let spec = fabric_spec();
                    rec.exit(s);
                    if rec.tracing() {
                        let s = rec.enter("lang.place_fabric", Phase::Setup, -1);
                        place(&program, &spec).expect("agg places onto the fabric");
                        rec.exit(s);
                    }
                    let s = rec.enter("fabric.new", Phase::Setup, -1);
                    let cfg = FabricConfig {
                        switch: adcp_cfg(),
                        ..FabricConfig::default()
                    };
                    let fabric =
                        Fabric::new(&program, spec, cfg).expect("agg places onto the fabric");
                    rec.exit(s);
                    let t = traffic_span(rec, || AggTraffic::fabric(seed, agg_adcp_program));
                    (fabric, t)
                });
                if traced {
                    // Outside the timed repetition: the same stream's first
                    // packets through one switch, for the per-hop ratio.
                    let reference = agg_reference(seed, pkts.min(8 * CHUNK));
                    let one = metric(&reference.layer, "core.run_ns_per_hop");
                    let six = metric(&out.layer, "fabric.run_ns_per_hop");
                    out.failed += reference.failed;
                    out.layer.push((
                        "fabric.hop_cost_ratio".into(),
                        six / one.max(f64::MIN_POSITIVE),
                    ));
                }
                out
            }
        }
    }

    /// What the probes need: the program a device of this workload runs,
    /// its entries, and the first `n` frames of the seeded stream.
    pub fn probe_input(self, seed: u64, shrink: u64, n: u64) -> ProbeInput {
        match self {
            Driven::FwdMin => FwdTraffic::new(seed).probe_input(seed, n),
            Driven::AggZipf => {
                AggTraffic::single_switch(seed, agg_adcp_program).probe_input(seed, n)
            }
            Driven::AggRmt => AggTraffic::single_switch(seed, agg_rmt_program).probe_input(seed, n),
            Driven::KvArray => {
                KvTraffic::new(seed, kv_entries_installed(shrink)).probe_input(seed, n)
            }
            // What leaf 0 runs.
            Driven::FabricAgg => {
                let input = AggTraffic::fabric(seed, agg_adcp_program).probe_input(seed, n);
                let mut placed =
                    place(&input.program, &fabric_spec()).expect("agg places onto the fabric");
                ProbeInput {
                    program: placed.leaf_program,
                    installs: placed.leaf_installs.swap_remove(0),
                    ..input
                }
            }
        }
    }
}

fn kv_entries_installed(shrink: u64) -> u64 {
    (KV_ENTRIES / shrink.max(1)).max(16)
}

/// The 2-spine × 4-leaf fabric, two hosts per leaf, everything delivered
/// to logical host port 0.
fn fabric_spec() -> FabricSpec {
    FabricSpec {
        n_leaves: 4,
        n_spines: 2,
        hosts_per_leaf: 2,
        phase_field: agg_phase_field(),
        gk_field: agg_gk_field(),
        steer_field: agg_steer_field(),
        key_space: FABRIC_KEYS,
        // Four contiguous quarters: the key scramble already spreads the
        // popular ranks over them.
        owners: (0..FABRIC_KEYS)
            .map(|k| (k * 4 / FABRIC_KEYS) as u32)
            .collect(),
        delivery_port: 0,
    }
}
