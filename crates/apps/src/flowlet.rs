//! Load-driven flowlet forwarding ("flowlet-ldf", HULA/Cascone-style).
//!
//! The original seed app was the paper's §1 control case: per-flow state
//! only, no shared structure, native on classic RMT. This grown version is
//! the thing real traffic engineering wants and the reason the flowlet
//! example stops being boring: the uplink choice is **load-driven**. The
//! switch keeps, per flow slot, the last-seen timestamp and the chosen
//! uplink, plus a *shared* per-uplink load estimate fed by two sources:
//!
//! * every data packet increments the load of the uplink it takes, and
//! * periodic **probe packets** decay each uplink's estimate by half —
//!   an EWMA (α = ½) over probe windows.
//!
//! A packet whose inter-arrival delta reaches the flowlet gap re-picks its
//! uplink as the **argmin of the load estimates** (ties to the highest
//! index); otherwise it sticks, keeping the flowlet on one path. The
//! inter-arrival delta is a wrapping 32-bit subtraction, so a wrapped
//! timestamp yields a huge delta and deliberately opens a new flowlet —
//! wraparound can only ever *reset* a path, never pin one.
//!
//! The shared load state is what moves the app out of RMT's comfort zone:
//! it lives in the central region (the ADCP's global partitioned area),
//! and on RMT it pays the paper's lowering tax — recirculation passes or
//! egress pinning, where results can only leave via the pinned pipeline's
//! ports and the chosen uplink is observable only from the packet bytes.
//! At 10⁶ flows the per-slot registers exceed a single stage's register
//! budget; the compiler's Cascone-style spanning/partitioning (DESIGN.md
//! §12) makes the footprint an explicit placement fact on both targets.
//!
//! Each central replica (ADCP central pipe; RMT recirculation pipe; the
//! single pinned egress pipe) holds its own load table fed only by the
//! flows it owns — the honest distributed-state behavior, modeled exactly
//! by the host reference. Every injected event is predicted by that
//! reference and every delivered packet is checked against it.

use crate::driver::{self, AppReport, TargetKind};
use crate::suite::Scale;
use adcp_core::{AdcpConfig, DemuxPolicy};
use adcp_lang::{
    ActionDef, ActionOp, BinOp, Entry, FieldDef, FieldId, FieldRef, HeaderDef, HeaderId, KeySpec,
    MatchKind, MatchValue, Operand, ParserSpec, Program, ProgramBuilder, RegAluOp, Region,
    RegisterDef, TableDef,
};
use adcp_rmt::RmtConfig;
use adcp_sim::packet::{FlowId, Packet, PortId};
use adcp_sim::rng::SimRng;
use adcp_sim::time::SimTime;
use adcp_workloads::keys::ZipfKeys;

/// Parameters of one load-driven forwarding run.
#[derive(Debug, Clone)]
pub struct LdfCfg {
    /// Live-flow keyspace (slots are the next power of two; RMT folds to
    /// at most [`MAX_RMT_SLOTS`]).
    pub flows: u64,
    /// Data packets to send (Zipf-distributed over the flows).
    pub pkts: u64,
    /// Uplink ports to balance across (ports 8..8+uplinks).
    pub uplinks: u16,
    /// Flowlet gap, in timestamp ticks (4096 ps each).
    pub gap_ticks: u32,
    /// Probe windows across the run; each window boundary injects one
    /// decay probe per (central replica × uplink).
    pub windows: u32,
    /// Zipf skew of flow popularity.
    pub skew: f64,
    /// Base added to every packet timestamp — lets tests start the clock
    /// near `u32::MAX` to exercise wraparound.
    pub time_base: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LdfCfg {
    fn default() -> Self {
        LdfCfg {
            flows: 4096,
            pkts: 6_000,
            uplinks: 4,
            gap_ticks: 16,
            windows: 8,
            skew: 0.9,
            time_base: 0,
            seed: 4,
        }
    }
}

impl LdfCfg {
    /// The size the suite runs at `scale` ([`crate::suite`]). Full is a
    /// million live flows — the scale the paged register files and the O(1)
    /// Zipf sampler exist for; quick keeps the same program at sanity size.
    pub fn sized(scale: Scale) -> Self {
        let (flows, pkts) = match scale {
            Scale::Quick => (256, 1_500),
            Scale::Full => (1_000_000, 40_000),
        };
        LdfCfg {
            flows,
            pkts,
            ..Self::default()
        }
    }
}

fn fr(f: u16) -> FieldRef {
    FieldRef::new(HeaderId(0), FieldId(f))
}

const F_KIND: u16 = 0; // 8b: 0 = data, 1 = probe
const F_FLOW: u16 = 1; // 32b flow id
const F_NOW: u16 = 2; // 32b arrival timestamp, ticks (wraps)
const F_SLOT: u16 = 3; // 32b state slot / probe target replica
const F_DELTA: u16 = 4; // scratch: now - last_seen (wrapping)
const F_NEW: u16 = 5; // 8b: 1 when a new flowlet opens
const F_UPLINK: u16 = 6; // chosen uplink port (filled centrally)
const F_PUP: u16 = 7; // probe: uplink index to decay
const F_BEST: u16 = 8; // argmin scratch: best load so far
const F_BIDX: u16 = 9; // argmin scratch: best uplink index
const F_LU: u16 = 10; // scratch: load of the uplink under test
const F_FLAG: u16 = 11; // scratch: Ge comparison result
const F_MASK: u16 = 12; // scratch: 0 or all-ones select mask
const F_TMP: u16 = 13; // scratch: xor-select temporary

/// Header bytes (fields above, byte-aligned, in order).
const HDR_BYTES: usize = 50;
const OFF_NOW: usize = 5;
const OFF_SLOT: usize = 9;
const OFF_NEW: usize = 17;
const OFF_UPLINK: usize = 18;
const OFF_PUP: usize = 22;

/// First uplink port.
pub const UPLINK_BASE: u16 = 8;
/// Port probes leave from (where redirection is possible at all).
pub const PROBE_SINK: u16 = 12;
/// RMT folds the per-flow state to at most this many slots — the honest
/// structural contrast: 10⁶ exact flows fit the ADCP's partitioned
/// central area, the RMT lowering hash-folds and accepts collisions.
pub const MAX_RMT_SLOTS: u64 = 1 << 18;

/// Picoseconds per timestamp tick.
const TICK_SHIFT: u32 = 12;
/// Injection pacing: one event per 5 ns keeps every queue empty, so the
/// per-replica processing order equals injection order and the host
/// reference is exact on every target.
const INJECT_GAP_PS: u64 = 5_000;

/// State slots for a target: exact per-flow on the ADCP, hash-folded on
/// the RMT lowerings.
pub fn slots_for(kind: TargetKind, flows: u64) -> u64 {
    let exact = flows.next_power_of_two();
    match kind {
        TargetKind::Adcp => exact,
        _ => exact.min(MAX_RMT_SLOTS),
    }
}

/// Build the load-driven forwarding program.
///
/// Ingress classifies on `kind` and steers; the central `ldf` table holds
/// all the stateful work: the flowlet-gap test (`Ge` on a wrapping
/// delta), the argmin re-pick over the load registers, the per-packet
/// load increment, and the probe decay.
pub fn program(
    kind: TargetKind,
    uplinks: u16,
    n_slots: u64,
    gap_ticks: u32,
    collector: PortId,
) -> Program {
    let mut b = ProgramBuilder::new("flowlet-ldf");
    let h = b.header(HeaderDef::new(
        "ldf",
        vec![
            FieldDef::scalar("kind", 8),
            FieldDef::scalar("flow", 32),
            FieldDef::scalar("now", 32),
            FieldDef::scalar("slot", 32),
            FieldDef::scalar("delta", 32),
            FieldDef::scalar("new", 8),
            FieldDef::scalar("uplink", 32),
            FieldDef::scalar("pup", 32),
            FieldDef::scalar("best", 32),
            FieldDef::scalar("bidx", 32),
            FieldDef::scalar("lu", 32),
            FieldDef::scalar("flag", 32),
            FieldDef::scalar("mask", 32),
            FieldDef::scalar("tmp", 32),
        ],
    ));
    b.parser(ParserSpec::single(h));
    let last_seen = b.register(RegisterDef::new("last_seen", n_slots as u32, 32));
    let chosen = b.register(RegisterDef::new("chosen_uplink", n_slots as u32, 32));
    let load = b.register(RegisterDef::new("uplink_load", uplinks as u32, 32));

    // Ingress: fold the flow into a slot and steer toward the central
    // state. Probes carry their target replica in `slot` already.
    let steer = |probe: bool| -> Vec<ActionOp> {
        let mut ops = Vec::new();
        if !probe {
            ops.push(ActionOp::Bin {
                dst: fr(F_SLOT),
                op: BinOp::And,
                a: Operand::Field(fr(F_FLOW)),
                b: Operand::Const(n_slots - 1),
            });
        }
        match kind {
            TargetKind::Adcp => ops.push(ActionOp::SetCentralPipe(Operand::Field(fr(F_SLOT)))),
            TargetKind::RmtRecirc => {
                ops.push(ActionOp::SetCentralPipe(Operand::Field(fr(F_SLOT))));
                ops.push(ActionOp::Recirculate);
            }
            // Pinned: funnel everything to the collector's egress pipe,
            // where the pinned central state lives. The egress region
            // cannot redirect, so results leave on the collector port and
            // the chosen uplink is only visible in the packet bytes —
            // exactly the Fig. 2 limitation the paper describes.
            TargetKind::RmtPinned => {
                ops.push(ActionOp::SetEgress(Operand::Const(collector.0 as u64)))
            }
        }
        if !probe {
            ops.push(ActionOp::CountElements(Operand::Const(1)));
        }
        ops
    };
    b.table(TableDef {
        name: "classify".into(),
        region: Region::Ingress,
        key: Some(KeySpec {
            field: fr(F_KIND),
            kind: MatchKind::Exact,
            bits: 8,
        }),
        actions: vec![
            ActionDef::new("fold_data", steer(false)),
            ActionDef::new("steer_probe", steer(true)),
        ],
        default_action: 0,
        default_params: vec![],
        size: 2,
    });

    // Central data path: gap test, argmin re-pick, load accounting.
    let mut data = vec![
        // delta = now - last_seen[slot]; update last_seen. The Sub wraps
        // at the field's 32 bits, so a wrapped clock yields a huge delta.
        ActionOp::RegRmw {
            reg: last_seen,
            index: Operand::Field(fr(F_SLOT)),
            op: RegAluOp::Write,
            value: Operand::Field(fr(F_NOW)),
            fetch: Some(fr(F_DELTA)),
        },
        ActionOp::Bin {
            dst: fr(F_DELTA),
            op: BinOp::Sub,
            a: Operand::Field(fr(F_NOW)),
            b: Operand::Field(fr(F_DELTA)),
        },
        // The first-class comparison the flowlet decision always wanted:
        // new = (delta >= gap).
        ActionOp::Bin {
            dst: fr(F_NEW),
            op: BinOp::Ge,
            a: Operand::Field(fr(F_DELTA)),
            b: Operand::Const(gap_ticks as u64),
        },
        // Sticky path: the recorded uplink index.
        ActionOp::RegRead {
            reg: chosen,
            index: Operand::Field(fr(F_SLOT)),
            dst: fr(F_BIDX),
        },
    ];
    // On a new flowlet: branch-free argmin over the load registers.
    // best/bidx start at uplink 0; each candidate u replaces them when
    // load[u] <= best (so ties go to the highest index), via the xor
    // select x ^= (x ^ y) & mask with mask = 0 - (best >= load[u]).
    let mut repick = vec![
        ActionOp::RegRead {
            reg: load,
            index: Operand::Const(0),
            dst: fr(F_BEST),
        },
        ActionOp::Set {
            dst: fr(F_BIDX),
            src: Operand::Const(0),
        },
    ];
    for u in 1..uplinks as u64 {
        repick.extend([
            ActionOp::RegRead {
                reg: load,
                index: Operand::Const(u),
                dst: fr(F_LU),
            },
            ActionOp::Bin {
                dst: fr(F_FLAG),
                op: BinOp::Ge,
                a: Operand::Field(fr(F_BEST)),
                b: Operand::Field(fr(F_LU)),
            },
            ActionOp::Bin {
                dst: fr(F_MASK),
                op: BinOp::Sub,
                a: Operand::Const(0),
                b: Operand::Field(fr(F_FLAG)),
            },
            ActionOp::Bin {
                dst: fr(F_TMP),
                op: BinOp::Xor,
                a: Operand::Field(fr(F_BEST)),
                b: Operand::Field(fr(F_LU)),
            },
            ActionOp::Bin {
                dst: fr(F_TMP),
                op: BinOp::And,
                a: Operand::Field(fr(F_TMP)),
                b: Operand::Field(fr(F_MASK)),
            },
            ActionOp::Bin {
                dst: fr(F_BEST),
                op: BinOp::Xor,
                a: Operand::Field(fr(F_BEST)),
                b: Operand::Field(fr(F_TMP)),
            },
            ActionOp::Bin {
                dst: fr(F_TMP),
                op: BinOp::Xor,
                a: Operand::Field(fr(F_BIDX)),
                b: Operand::Const(u),
            },
            ActionOp::Bin {
                dst: fr(F_TMP),
                op: BinOp::And,
                a: Operand::Field(fr(F_TMP)),
                b: Operand::Field(fr(F_MASK)),
            },
            ActionOp::Bin {
                dst: fr(F_BIDX),
                op: BinOp::Xor,
                a: Operand::Field(fr(F_BIDX)),
                b: Operand::Field(fr(F_TMP)),
            },
        ]);
    }
    repick.push(ActionOp::RegRmw {
        reg: chosen,
        index: Operand::Field(fr(F_SLOT)),
        op: RegAluOp::Write,
        value: Operand::Field(fr(F_BIDX)),
        fetch: None,
    });
    data.push(ActionOp::IfEq {
        a: Operand::Field(fr(F_NEW)),
        b: Operand::Const(1),
        then: repick,
    });
    data.extend([
        // This packet's contribution to the load it rides on.
        ActionOp::RegRmw {
            reg: load,
            index: Operand::Field(fr(F_BIDX)),
            op: RegAluOp::Add,
            value: Operand::Const(1),
            fetch: None,
        },
        ActionOp::Bin {
            dst: fr(F_UPLINK),
            op: BinOp::Add,
            a: Operand::Field(fr(F_BIDX)),
            b: Operand::Const(UPLINK_BASE as u64),
        },
        ActionOp::SetEgress(Operand::Field(fr(F_UPLINK))),
    ]);

    // Central probe path: halve one uplink's estimate — the EWMA window
    // roll (α = ½ over whatever accumulated since the last probe).
    let probe = vec![
        ActionOp::RegRead {
            reg: load,
            index: Operand::Field(fr(F_PUP)),
            dst: fr(F_LU),
        },
        ActionOp::Bin {
            dst: fr(F_TMP),
            op: BinOp::Shr,
            a: Operand::Field(fr(F_LU)),
            b: Operand::Const(1),
        },
        ActionOp::RegRmw {
            reg: load,
            index: Operand::Field(fr(F_PUP)),
            op: RegAluOp::Write,
            value: Operand::Field(fr(F_TMP)),
            fetch: None,
        },
        ActionOp::SetEgress(Operand::Const(PROBE_SINK as u64)),
    ];

    b.table(TableDef {
        name: "ldf".into(),
        region: Region::Central,
        key: Some(KeySpec {
            field: fr(F_KIND),
            kind: MatchKind::Exact,
            bits: 8,
        }),
        actions: vec![ActionDef::new("data", data), ActionDef::new("probe", probe)],
        default_action: 0,
        default_params: vec![],
        size: 2,
    });
    b.build()
}

fn data_pkt(id: u64, flow: u64, now: u32) -> Packet {
    let mut d = vec![0u8; HDR_BYTES + 6];
    d[1..5].copy_from_slice(&(flow as u32).to_be_bytes());
    d[OFF_NOW..OFF_NOW + 4].copy_from_slice(&now.to_be_bytes());
    Packet::new(id, FlowId(flow), d)
        .with_goodput(8)
        .with_elements(1)
}

fn probe_pkt(id: u64, rep: u16, up: u16) -> Packet {
    let mut d = vec![0u8; HDR_BYTES + 6];
    d[0] = 1;
    d[OFF_SLOT..OFF_SLOT + 4].copy_from_slice(&(rep as u32).to_be_bytes());
    d[OFF_PUP..OFF_PUP + 4].copy_from_slice(&(up as u32).to_be_bytes());
    Packet::new(id, FlowId(u64::MAX), d).with_goodput(8)
}

/// Host reference: the exact per-replica state machine the switch runs.
struct LdfRef {
    slot_mask: u64,
    replicas: usize,
    gap: u32,
    last_seen: Vec<u32>,
    chosen: Vec<u8>,
    /// Per-replica per-uplink load estimate.
    load: Vec<Vec<u64>>,
    wraps: u64,
    repicks: u64,
}

impl LdfRef {
    fn new(n_slots: u64, replicas: usize, uplinks: u16, gap: u32) -> Self {
        LdfRef {
            slot_mask: n_slots - 1,
            replicas,
            gap,
            last_seen: vec![0; n_slots as usize],
            chosen: vec![0; n_slots as usize],
            load: vec![vec![0; uplinks as usize]; replicas],
            wraps: 0,
            repicks: 0,
        }
    }

    /// Process one data packet; returns (uplink index, new-flowlet flag).
    fn data(&mut self, flow: u64, now: u32) -> (u8, u8) {
        let slot = (flow & self.slot_mask) as usize;
        let rep = slot % self.replicas;
        let delta = now.wrapping_sub(self.last_seen[slot]);
        self.last_seen[slot] = now;
        let mut idx = self.chosen[slot];
        let new = u8::from(delta >= self.gap);
        if new == 1 {
            if delta > u32::MAX / 2 {
                self.wraps += 1;
            }
            self.repicks += 1;
            // argmin, ties to the highest index (the switch scans
            // ascending and replaces on load[u] <= best).
            let loads = &self.load[rep];
            let mut best = loads[0];
            idx = 0;
            for (u, &l) in loads.iter().enumerate().skip(1) {
                if l <= best {
                    best = l;
                    idx = u as u8;
                }
            }
            self.chosen[slot] = idx;
        }
        self.load[rep][idx as usize] += 1;
        (idx, new)
    }

    fn probe(&mut self, rep: u16, up: u16) {
        self.load[rep as usize][up as usize] >>= 1;
    }
}

/// Everything a flowlet-ldf run produced, beyond the standard report.
#[derive(Debug)]
pub struct LdfOutcome {
    /// Standard app report (`correct` = every delivered packet matched
    /// the host reference's prediction).
    pub report: AppReport,
    /// Flowlet re-picks the reference predicted.
    pub repicks: u64,
    /// Re-picks forced by a wrapped timestamp delta.
    pub wraps: u64,
    /// Delivered data packets per uplink index.
    pub per_uplink: Vec<u64>,
}

/// Run load-driven forwarding on a target; verify every delivered packet
/// against the host reference.
pub fn run(kind: TargetKind, cfg: &LdfCfg) -> LdfOutcome {
    let collector = PortId(6);
    let n_slots = slots_for(kind, cfg.flows);
    let prog = program(kind, cfg.uplinks, n_slots, cfg.gap_ticks, collector);
    let mut sw = driver::build_with(
        kind,
        AdcpConfig {
            demux: DemuxPolicy::FlowHash,
            ..Default::default()
        },
        RmtConfig::default(),
        |_| prog,
    )
    .expect("flowlet-ldf compiles on every target");
    let notes = sw.placement().notes.clone();
    let replicas = match kind {
        TargetKind::RmtPinned => 1,
        _ => driver::state_pipes(sw.target()) as usize,
    };
    for (k, a) in [(0u64, 0usize), (1, 1)] {
        for table in ["classify", "ldf"] {
            sw.install_all(
                table,
                Entry {
                    value: MatchValue::Exact(k),
                    action: a,
                    params: vec![],
                },
            )
            .expect("install");
        }
    }

    // Drive the run: Zipf data stream with probe batches at window
    // boundaries, everything on port 0 with strictly increasing times.
    // Injection is chunked so a million-flow run never materializes the
    // whole packet list.
    let mut reference = LdfRef::new(n_slots, replicas, cfg.uplinks, cfg.gap_ticks);
    // Per event id: (uplink index, new flag), or (0xFF, _) for probes.
    let mut expected: Vec<(u8, u8)> = Vec::new();
    let zipf = ZipfKeys::new(cfg.flows as usize, cfg.skew);
    let mut rng = SimRng::seed_from(cfg.seed);
    let window_every = (cfg.pkts / cfg.windows.max(1) as u64).max(1);
    let mut t_ps = 0u64;
    let mut pending = 0u64;
    let mut n_probes = 0u64;
    for i in 0..cfg.pkts {
        if i > 0 && i % window_every == 0 {
            for rep in 0..replicas as u16 {
                for up in 0..cfg.uplinks {
                    t_ps += INJECT_GAP_PS;
                    sw.inject(
                        PortId(0),
                        probe_pkt(expected.len() as u64, rep, up),
                        SimTime(t_ps),
                    );
                    reference.probe(rep, up);
                    expected.push((0xFF, 0));
                    n_probes += 1;
                }
            }
        }
        t_ps += INJECT_GAP_PS;
        let flow = zipf.sample(&mut rng);
        let now = cfg.time_base.wrapping_add((t_ps >> TICK_SHIFT) as u32);
        sw.inject(
            PortId(0),
            data_pkt(expected.len() as u64, flow, now),
            SimTime(t_ps),
        );
        expected.push(reference.data(flow, now));
        pending += 1;
        if pending >= 50_000 {
            sw.run_until(SimTime(t_ps));
            pending = 0;
        }
    }
    let makespan = sw.run_until_idle();
    sw.check_conservation();

    // Every delivered packet against the reference's prediction.
    let delivered = sw.take_delivered();
    let mut correct = true;
    let mut data_seen = 0u64;
    let mut probe_seen = 0u64;
    let mut per_uplink = vec![0u64; cfg.uplinks as usize];
    for d in &delivered {
        let (exp_idx, exp_new) = expected[d.meta.id as usize];
        if d.data[0] == 1 {
            probe_seen += 1;
            let want_port = if kind == TargetKind::RmtPinned {
                collector.0
            } else {
                PROBE_SINK
            };
            if exp_idx != 0xFF || d.port.0 != want_port {
                correct = false;
            }
            continue;
        }
        data_seen += 1;
        if exp_idx == 0xFF {
            correct = false;
            continue;
        }
        let up = u32::from_be_bytes(d.data[OFF_UPLINK..OFF_UPLINK + 4].try_into().unwrap());
        if up != (UPLINK_BASE + exp_idx as u16) as u32 || d.data[OFF_NEW] != exp_new {
            correct = false;
            continue;
        }
        per_uplink[exp_idx as usize] += 1;
        // Where redirection is architecturally possible the packet must
        // actually leave on its uplink; pinned RMT can only use the
        // collector's ports.
        let want_port = if kind == TargetKind::RmtPinned {
            collector.0
        } else {
            UPLINK_BASE + exp_idx as u16
        };
        if d.port.0 != want_port {
            correct = false;
        }
    }
    if data_seen != cfg.pkts || probe_seen != n_probes {
        correct = false;
    }

    let mut notes = notes;
    notes.push(format!(
        "slots={n_slots} replicas={replicas} repicks={} wrapped_deltas={} uplink loads: {per_uplink:?}",
        reference.repicks, reference.wraps
    ));
    LdfOutcome {
        report: AppReport::from_switch("flowlet-ldf", kind, &sw, makespan, correct, notes),
        repicks: reference.repicks,
        wraps: reference.wraps,
        per_uplink,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adcp_matches_reference() {
        let o = run(TargetKind::Adcp, &LdfCfg::default());
        assert!(o.report.correct, "{:?}", o.report.notes);
        assert!(o.repicks > 0);
        assert!(
            o.per_uplink.iter().all(|&c| c > 0),
            "all uplinks carry load: {:?}",
            o.per_uplink
        );
    }

    #[test]
    fn rmt_pinned_matches_reference() {
        let o = run(TargetKind::RmtPinned, &LdfCfg::default());
        assert!(o.report.correct, "{:?}", o.report.notes);
        assert_eq!(o.report.recirc_passes, 0);
    }

    #[test]
    fn rmt_recirc_matches_reference_and_pays_the_tax() {
        let o = run(TargetKind::RmtRecirc, &LdfCfg::default());
        assert!(o.report.correct, "{:?}", o.report.notes);
        assert!(
            o.report.recirc_passes >= o.report.injected,
            "every packet recirculates once: {} passes / {} injected",
            o.report.recirc_passes,
            o.report.injected
        );
    }

    #[test]
    fn wrapped_timestamps_open_new_flowlets() {
        // Start the clock just below u32::MAX: mid-run every live flow's
        // delta wraps, and a wrapped delta must *re-pick*, never stick.
        let cfg = LdfCfg {
            time_base: u32::MAX - 2_000,
            ..LdfCfg::default()
        };
        let o = run(TargetKind::Adcp, &cfg);
        assert!(o.report.correct, "{:?}", o.report.notes);
        assert!(
            o.wraps > 0,
            "the run must cross the wrap: {:?}",
            o.report.notes
        );
    }

    #[test]
    fn probes_rebalance_a_skewed_start() {
        // Strong skew concentrates early flowlets; decay probes + load
        // feedback must still pull every uplink into use.
        let cfg = LdfCfg {
            skew: 1.3,
            windows: 16,
            ..LdfCfg::default()
        };
        let o = run(TargetKind::Adcp, &cfg);
        assert!(o.report.correct);
        assert!(o.per_uplink.iter().all(|&c| c > 0), "{:?}", o.per_uplink);
    }

    #[test]
    fn million_flow_state_partitions_and_spans() {
        // Compile-only at 2^20 flows: the ADCP partitions the per-flow
        // registers across central pipes and spans stages; the RMT
        // lowering folds to MAX_RMT_SLOTS and still spans. (Paged
        // register files make constructing these switches cheap.)
        let flows = 1u64 << 20;
        let n = slots_for(TargetKind::Adcp, flows);
        assert_eq!(n, 1 << 20);
        let sw = driver::build(TargetKind::Adcp, |_| {
            program(TargetKind::Adcp, 4, n, 16, PortId(6))
        })
        .expect("million-flow state compiles on ADCP");
        let notes = &sw.placement().notes;
        assert!(
            notes.iter().any(|n| n.contains("partitioned across")),
            "{notes:?}"
        );
        assert!(notes.iter().any(|n| n.contains("spans")), "{notes:?}");

        let nr = slots_for(TargetKind::RmtPinned, flows);
        assert_eq!(nr, MAX_RMT_SLOTS);
        let sw = driver::build(TargetKind::RmtPinned, |_| {
            program(TargetKind::RmtPinned, 4, nr, 16, PortId(6))
        })
        .expect("folded million-flow state compiles on RMT");
        let notes = &sw.placement().notes;
        assert!(notes.iter().any(|n| n.contains("spans")), "{notes:?}");
    }
}
