//! In-network ML parameter aggregation (Table 1, row 1; §3.1's running
//! example).
//!
//! Workers stream gradient chunks to the switch; the switch sums each
//! weight slot across workers and, when the last contribution for a chunk
//! arrives, sends the aggregated chunk back out. The three variants show
//! the paper's architectural spectrum:
//!
//! * **ADCP**: chunks carry a 16-wide weight array; the first TM places
//!   each chunk on a central pipeline by slot hash; a wide register op
//!   aggregates all 16 weights in one traversal; the completed aggregate
//!   is *multicast to every worker* by the second TM (Fig. 5).
//! * **RMT/recirc**: the application is restructured to scalar (1 weight
//!   per packet) and every packet takes a recirculation pass to reach the
//!   pipeline holding the aggregation state — 2× traversals per packet.
//! * **RMT/pinned**: all workers send to one parameter-server port; the
//!   aggregation state lives in that port's egress pipeline; results can
//!   only leave via that port, so distribution back to the workers needs
//!   an extra host-level hop (the Fig. 2 restriction).

use crate::driver::{self, AppReport, TargetKind};
use crate::suite::Scale;
use adcp_lang::{
    ActionDef, ActionOp, BinOp, FieldDef, FieldId, FieldRef, HeaderDef, HeaderId, Operand,
    ParserSpec, Program, ProgramBuilder, RegAluOp, Region, RegisterDef, TableDef,
};
use adcp_sim::packet::{FlowId, Packet, PortId};
use adcp_sim::rng::SimRng;
use adcp_sim::time::SimTime;
use adcp_workloads::gradient::GradientWorkload;
use std::collections::HashMap;

/// Parameters of one parameter-server run.
#[derive(Debug, Clone)]
pub struct ParamServerCfg {
    /// Number of workers (each on its own port).
    pub workers: u32,
    /// Total model weights.
    pub model_size: u32,
    /// Weights per packet (array width; 1 for the RMT variants).
    pub width: u32,
    /// RNG seed for the chunk interleaving.
    pub seed: u64,
}

impl Default for ParamServerCfg {
    fn default() -> Self {
        ParamServerCfg {
            workers: 8,
            model_size: 256,
            width: 16,
            seed: 1,
        }
    }
}

impl ParamServerCfg {
    /// The size the suite runs at `scale` ([`crate::suite`]).
    pub fn sized(scale: Scale) -> Self {
        match scale {
            Scale::Full => Self::default(),
            Scale::Quick => ParamServerCfg {
                workers: 4,
                model_size: 64,
                ..Self::default()
            },
        }
    }
}

fn fr(f: u16) -> FieldRef {
    FieldRef::new(HeaderId(0), FieldId(f))
}

const F_WID: u16 = 0; // worker id / scratch for the count fetch
const F_SLOT: u16 = 1; // base weight slot of the chunk
const F_SCRATCH: u16 = 2; // chunk index scratch
const F_W: u16 = 3; // the weight array

/// Build the switch program for a variant.
///
/// `central_pipes` sizes the partition hash; `worker_ports` become the
/// result multicast group; `ps_port` is the pinned variant's server port.
pub fn program(
    cfg: &ParamServerCfg,
    kind: TargetKind,
    central_pipes: u32,
    worker_ports: &[PortId],
    ps_port: PortId,
) -> Program {
    let width = match kind {
        TargetKind::Adcp => cfg.width,
        _ => 1, // RMT forces the application to go scalar (§2 ②)
    };
    assert!(width.is_power_of_two());
    let log_w = width.trailing_zeros() as u64;
    let chunks = cfg.model_size / width;

    let mut b = ProgramBuilder::new(format!("paramserv-{}", kind.label()));
    let h = b.header(HeaderDef::new(
        "ps",
        vec![
            FieldDef::scalar("wid", 16),
            FieldDef::scalar("slot", 32),
            FieldDef::scalar("scratch", 16),
            FieldDef::array("w", 32, width as u16),
        ],
    ));
    b.parser(ParserSpec::single(h));
    let acc = b.register(RegisterDef::new("acc", cfg.model_size, 32));
    let cnt = b.register(RegisterDef::new("cnt", chunks.max(1), 32));
    let group = b.mcast_group(worker_ports.to_vec());

    // Ingress: choose where the chunk's state lives.
    let ingress_ops = match kind {
        TargetKind::Adcp => vec![
            ActionOp::Hash {
                dst: fr(F_SCRATCH),
                fields: vec![fr(F_SLOT)],
                modulo: central_pipes as u64,
            },
            ActionOp::SetCentralPipe(Operand::Field(fr(F_SCRATCH))),
            ActionOp::CountElements(Operand::Const(width as u64)),
        ],
        TargetKind::RmtRecirc => vec![
            ActionOp::Hash {
                dst: fr(F_SCRATCH),
                fields: vec![fr(F_SLOT)],
                modulo: central_pipes as u64,
            },
            ActionOp::SetCentralPipe(Operand::Field(fr(F_SCRATCH))),
            ActionOp::Recirculate,
            ActionOp::CountElements(Operand::Const(1)),
        ],
        TargetKind::RmtPinned => vec![
            // Everything funnels to the parameter-server port; the
            // aggregation state lives in its egress pipeline.
            ActionOp::SetEgress(Operand::Const(ps_port.0 as u64)),
            ActionOp::CountElements(Operand::Const(1)),
        ],
    };
    b.table(TableDef {
        name: "place".into(),
        region: Region::Ingress,
        key: None,
        actions: vec![ActionDef::new("place", ingress_ops)],
        default_action: 0,
        default_params: vec![],
        size: 1,
    });

    // Central: aggregate; the worker that completes a chunk releases it.
    let release = match kind {
        // Fig. 5: TM2 multicasts the aggregate to every worker.
        TargetKind::Adcp | TargetKind::RmtRecirc => {
            ActionOp::SetMulticast(Operand::Const(group as u64))
        }
        // Fig. 2: egress pinning — the aggregate can only exit ps_port.
        TargetKind::RmtPinned => ActionOp::SetEgress(Operand::Const(ps_port.0 as u64)),
    };
    b.table(TableDef {
        name: "aggregate".into(),
        region: Region::Central,
        key: None,
        actions: vec![ActionDef::new(
            "agg",
            vec![
                ActionOp::RegArray {
                    reg: acc,
                    base: Operand::Field(fr(F_SLOT)),
                    op: RegAluOp::Add,
                    values: fr(F_W),
                    readback: true,
                },
                // chunk index = slot >> log2(width)
                ActionOp::Bin {
                    dst: fr(F_SCRATCH),
                    op: BinOp::Shr,
                    a: Operand::Field(fr(F_SLOT)),
                    b: Operand::Const(log_w),
                },
                ActionOp::RegRmw {
                    reg: cnt,
                    index: Operand::Field(fr(F_SCRATCH)),
                    op: RegAluOp::Add,
                    value: Operand::Const(1),
                    fetch: Some(fr(F_WID)),
                },
                // Contributions are consumed; only the completing packet
                // (previous count == workers-1) carries the result out.
                ActionOp::MarkDrop,
                ActionOp::IfEq {
                    a: Operand::Field(fr(F_WID)),
                    b: Operand::Const(cfg.workers as u64 - 1),
                    then: vec![release],
                },
            ],
        )],
        default_action: 0,
        default_params: vec![],
        size: 1,
    });
    b.build()
}

fn chunk_packet(id: u64, worker: u32, base_slot: u32, values: &[u32]) -> Packet {
    let mut data = Vec::with_capacity(8 + values.len() * 4);
    data.extend_from_slice(&(worker as u16).to_be_bytes());
    data.extend_from_slice(&base_slot.to_be_bytes());
    data.extend_from_slice(&0u16.to_be_bytes());
    for v in values {
        data.extend_from_slice(&v.to_be_bytes());
    }
    let goodput = (values.len() * 4) as u32;
    Packet::new(id, FlowId(worker as u64), data)
        .with_goodput(goodput)
        .with_elements(values.len() as u32)
}

fn read_slot_and_values(data: &[u8], width: usize) -> (u32, Vec<u64>) {
    let slot = u32::from_be_bytes(data[2..6].try_into().unwrap());
    let mut vals = Vec::with_capacity(width);
    for i in 0..width {
        let s = 8 + i * 4;
        vals.push(u32::from_be_bytes(data[s..s + 4].try_into().unwrap()) as u64);
    }
    (slot, vals)
}

/// Run one parameter-server variant end to end and verify the aggregates.
pub fn run(kind: TargetKind, cfg: &ParamServerCfg) -> AppReport {
    let width = match kind {
        TargetKind::Adcp => cfg.width,
        _ => 1,
    };
    let wl = GradientWorkload::new(cfg.workers, cfg.model_size, width);
    let worker_ports: Vec<PortId> = (0..cfg.workers as u16).map(PortId).collect();
    let ps_port = PortId(cfg.workers as u16); // one past the workers

    let mut sw = driver::build(kind, |target| {
        let pipes = driver::state_pipes(target);
        program(cfg, kind, pipes, &worker_ports, ps_port)
    })
    .expect("paramserv compiles on every target");
    let notes = sw.placement().notes.clone();

    // Inject every worker's chunk stream, interleaved.
    let mut rng = SimRng::seed_from(cfg.seed);
    let chunks = wl.all_chunks_shuffled(&mut rng);
    for (i, ch) in chunks.iter().enumerate() {
        let pkt = chunk_packet(i as u64, ch.worker, ch.base_slot, &ch.values);
        sw.inject(PortId(ch.worker as u16), pkt, SimTime::ZERO);
    }
    let makespan = sw.run_until_idle();
    sw.check_conservation();

    // Verify: every chunk's aggregate seen with the expected totals, at
    // the expected destinations.
    let delivered = sw.take_delivered();
    let num_chunks = (cfg.model_size / width) as usize;
    let mut per_slot: HashMap<u32, Vec<&crate::driver::Delivered>> = HashMap::new();
    for d in &delivered {
        let (slot, _) = read_slot_and_values(&d.data, width as usize);
        per_slot.entry(slot).or_default().push(d);
    }
    let expected_copies = match kind {
        TargetKind::Adcp | TargetKind::RmtRecirc => cfg.workers as usize,
        TargetKind::RmtPinned => 1,
    };
    let mut correct = per_slot.len() == num_chunks;
    for (slot, pkts) in &per_slot {
        if pkts.len() != expected_copies {
            correct = false;
        }
        for d in pkts {
            let (_, vals) = read_slot_and_values(&d.data, width as usize);
            for (i, v) in vals.iter().enumerate() {
                if *v != wl.expected_sum(slot + i as u32) {
                    correct = false;
                }
            }
            if kind == TargetKind::RmtPinned && d.port != ps_port {
                correct = false;
            }
        }
    }
    let mut notes = notes;
    if kind == TargetKind::RmtPinned {
        notes.push(format!(
            "results reachable only via {ps_port}; worker distribution needs an extra host hop"
        ));
    }
    AppReport::from_switch("paramserv", kind, &sw, makespan, correct, notes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ParamServerCfg {
        ParamServerCfg {
            workers: 4,
            model_size: 64,
            width: 16,
            seed: 7,
        }
    }

    #[test]
    fn adcp_aggregates_and_multicasts() {
        let r = run(TargetKind::Adcp, &small());
        assert!(r.correct, "{r:?}");
        // 4 workers x 4 chunks in; 4 chunks x 4 group members out.
        assert_eq!(r.injected, 16);
        assert_eq!(r.delivered, 16);
        assert!(r.recirc_passes == 0);
    }

    #[test]
    fn rmt_recirc_is_correct_but_pays_passes() {
        let r = run(TargetKind::RmtRecirc, &small());
        assert!(r.correct, "{r:?}");
        // Scalar restructuring: 4 workers x 64 slots in.
        assert_eq!(r.injected, 256);
        assert_eq!(r.recirc_passes, 256, "every packet loops once");
    }

    #[test]
    fn rmt_pinned_is_correct_but_restricted() {
        let r = run(TargetKind::RmtPinned, &small());
        assert!(r.correct, "{r:?}");
        assert_eq!(r.injected, 256);
        // One result per slot, only at the PS port.
        assert_eq!(r.delivered, 64);
        assert!(r.notes.iter().any(|n| n.contains("extra host hop")));
    }

    #[test]
    fn adcp_element_rate_dwarfs_scalar_rmt() {
        let a = run(TargetKind::Adcp, &small());
        let r = run(TargetKind::RmtRecirc, &small());
        // Same model aggregated; ADCP moves 16x the elements per packet
        // and skips the recirculation pass. The keys/s gap must be large.
        assert!(
            a.elements_per_sec > 4.0 * r.elements_per_sec,
            "adcp {:.3e} vs rmt {:.3e}",
            a.elements_per_sec,
            r.elements_per_sec
        );
    }

    #[test]
    fn widths_2_and_4_also_aggregate_correctly() {
        for width in [2u32, 4] {
            let r = run(
                TargetKind::Adcp,
                &ParamServerCfg {
                    workers: 3,
                    model_size: 32,
                    width,
                    seed: 9,
                },
            );
            assert!(r.correct, "width {width}: {r:?}");
        }
    }

    #[test]
    fn single_worker_degenerates_gracefully() {
        let r = run(
            TargetKind::Adcp,
            &ParamServerCfg {
                workers: 1,
                model_size: 32,
                width: 16,
                seed: 1,
            },
        );
        // With one worker every chunk completes on its first packet.
        assert!(r.correct, "{r:?}");
        assert_eq!(r.injected, 2);
        assert_eq!(r.delivered, 2);
    }

    #[test]
    fn deterministic_reports() {
        let a = run(TargetKind::Adcp, &small());
        let b = run(TargetKind::Adcp, &small());
        assert_eq!(a.makespan_ns, b.makespan_ns);
        assert_eq!(a.delivered, b.delivered);
    }
}
