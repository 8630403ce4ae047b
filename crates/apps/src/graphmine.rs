//! Graph pattern mining: BSP supersteps with an in-switch barrier
//! (Table 1, row 3; GraphINC-style).
//!
//! Each superstep, every partition sends candidate-count messages along
//! its cut edges. The switch aggregates the superstep's total candidate
//! count and detects the barrier (all expected messages arrived); the
//! completing message is turned into a *barrier release* carrying the
//! global total, multicast to every partition — which then starts the next
//! superstep. This is a closed loop: superstep `s+1` cannot be injected
//! until the release for `s` is observed, so switch latency directly
//! stretches job runtime.
//!
//! Variants mirror `paramserv`: ADCP holds the barrier state in the global
//! area and multicasts releases; RMT needs recirculation for the same
//! behaviour, or pins the barrier to one port (requiring a host-level
//! relay for the release).

use crate::driver::{self, AppReport, TargetKind};
use crate::suite::Scale;
use adcp_lang::{
    ActionDef, ActionOp, FieldDef, FieldId, FieldRef, HeaderDef, HeaderId, Operand, ParserSpec,
    Program, ProgramBuilder, RegAluOp, Region, RegisterDef, TableDef,
};
use adcp_sim::packet::{FlowId, Packet, PortId};
use adcp_sim::rng::SimRng;
use adcp_sim::time::SimTime;
use adcp_workloads::graph::{BspJob, BspWorkload};

/// Parameters of one mining run.
#[derive(Debug, Clone)]
pub struct GraphMineCfg {
    /// Workload shape.
    pub workload: BspWorkload,
    /// Candidates carried per message at scale 1.
    pub base_candidates: u32,
    /// RNG seed for graph synthesis.
    pub seed: u64,
}

impl Default for GraphMineCfg {
    fn default() -> Self {
        GraphMineCfg {
            workload: BspWorkload {
                partitions: 8,
                vertices: 2000,
                edges: 8000,
                supersteps: 9,
            },
            base_candidates: 4,
            seed: 5,
        }
    }
}

impl GraphMineCfg {
    /// The size the suite runs at `scale` ([`crate::suite`]).
    pub fn sized(scale: Scale) -> Self {
        let mut cfg = Self::default();
        if scale == Scale::Quick {
            cfg.workload.supersteps = 5;
            cfg.workload.edges = 3000;
        }
        cfg
    }
}

fn fr(f: u16) -> FieldRef {
    FieldRef::new(HeaderId(0), FieldId(f))
}

const F_KIND: u16 = 0; // 0 = message, 1 = barrier release
#[allow(dead_code)]
const F_PART: u16 = 1; // sending partition (diagnostic field)
const F_STEP: u16 = 2; // superstep index
const F_COUNT: u16 = 3; // candidates (message) / global total (release)
const F_SCRATCH: u16 = 4;

/// Build the mining program. `expected_msgs` is the per-superstep message
/// count (constant: the cut structure does not change between steps).
pub fn program(
    kind: TargetKind,
    expected_msgs: u32,
    supersteps: u32,
    barrier_port: PortId,
    partition_ports: &[PortId],
) -> Program {
    let mut b = ProgramBuilder::new(format!("graphmine-{}", kind.label()));
    let h = b.header(HeaderDef::new(
        "bsp",
        vec![
            FieldDef::scalar("kind", 8),
            FieldDef::scalar("part", 8),
            FieldDef::scalar("step", 16),
            FieldDef::scalar("count", 32),
            FieldDef::scalar("scratch", 32),
        ],
    ));
    b.parser(ParserSpec::single(h));
    let sums = b.register(RegisterDef::new("step_sum", supersteps, 64));
    let cnts = b.register(RegisterDef::new("step_msgs", supersteps, 32));
    let group = b.mcast_group(partition_ports.to_vec());

    // Ingress: send every superstep's messages to one state location.
    let ingress_ops = match kind {
        TargetKind::Adcp => vec![ActionOp::SetCentralPipe(Operand::Field(fr(F_STEP)))],
        TargetKind::RmtRecirc => vec![
            ActionOp::SetCentralPipe(Operand::Field(fr(F_STEP))),
            ActionOp::Recirculate,
        ],
        TargetKind::RmtPinned => {
            vec![ActionOp::SetEgress(Operand::Const(barrier_port.0 as u64))]
        }
    };
    b.table(TableDef {
        name: "steer".into(),
        region: Region::Ingress,
        key: None,
        actions: vec![ActionDef::new(
            "steer",
            [
                ingress_ops,
                vec![ActionOp::CountElements(Operand::Const(1))],
            ]
            .concat(),
        )],
        default_action: 0,
        default_params: vec![],
        size: 1,
    });

    // Central: aggregate candidates and detect the barrier.
    let release = match kind {
        TargetKind::Adcp | TargetKind::RmtRecirc => {
            ActionOp::SetMulticast(Operand::Const(group as u64))
        }
        TargetKind::RmtPinned => ActionOp::SetEgress(Operand::Const(barrier_port.0 as u64)),
    };
    b.table(TableDef {
        name: "barrier".into(),
        region: Region::Central,
        key: None,
        actions: vec![ActionDef::new(
            "barrier",
            vec![
                ActionOp::RegRmw {
                    reg: sums,
                    index: Operand::Field(fr(F_STEP)),
                    op: RegAluOp::Add,
                    value: Operand::Field(fr(F_COUNT)),
                    fetch: None,
                },
                ActionOp::RegRmw {
                    reg: cnts,
                    index: Operand::Field(fr(F_STEP)),
                    op: RegAluOp::Add,
                    value: Operand::Const(1),
                    fetch: Some(fr(F_SCRATCH)),
                },
                ActionOp::MarkDrop,
                ActionOp::IfEq {
                    a: Operand::Field(fr(F_SCRATCH)),
                    b: Operand::Const(expected_msgs as u64 - 1),
                    then: vec![
                        // The completing message becomes the release,
                        // carrying the superstep's global total.
                        ActionOp::RegRead {
                            reg: sums,
                            index: Operand::Field(fr(F_STEP)),
                            dst: fr(F_COUNT),
                        },
                        ActionOp::Set {
                            dst: fr(F_KIND),
                            src: Operand::Const(1),
                        },
                        release,
                    ],
                },
            ],
        )],
        default_action: 0,
        default_params: vec![],
        size: 1,
    });
    b.build()
}

fn msg_packet(id: u64, part: u32, step: u32, count: u32) -> Packet {
    let mut data = Vec::with_capacity(12);
    data.push(0u8);
    data.push(part as u8);
    data.extend_from_slice(&(step as u16).to_be_bytes());
    data.extend_from_slice(&count.to_be_bytes());
    data.extend_from_slice(&0u32.to_be_bytes());
    Packet::new(id, FlowId(part as u64), data)
        .with_goodput(8)
        .with_elements(1)
}

fn read_release(data: &[u8]) -> Option<(u32, u64)> {
    if data[0] != 1 {
        return None;
    }
    let step = u16::from_be_bytes(data[2..4].try_into().unwrap()) as u32;
    let total = u32::from_be_bytes(data[4..8].try_into().unwrap()) as u64;
    Some((step, total))
}

/// Run the BSP job closed-loop; verify every barrier and total.
pub fn run(kind: TargetKind, cfg: &GraphMineCfg) -> AppReport {
    let mut rng = SimRng::seed_from(cfg.seed);
    let job: BspJob = cfg.workload.generate(&mut rng);
    let expected_msgs = job.superstep_messages(0, 1).len() as u32;
    assert!(
        expected_msgs > 0,
        "degenerate workload: a single partition exchanges no messages"
    );
    let partition_ports: Vec<PortId> = (0..cfg.workload.partitions as u16).map(PortId).collect();
    let barrier_port = PortId(cfg.workload.partitions as u16);

    let mut sw = driver::build(kind, |_| {
        program(
            kind,
            expected_msgs,
            cfg.workload.supersteps,
            barrier_port,
            &partition_ports,
        )
    })
    .expect("graphmine compiles on every target");
    let notes = sw.placement().notes.clone();

    let mut correct = true;
    let mut now = SimTime::ZERO;
    let mut next_id = 0u64;
    for step in 0..cfg.workload.supersteps as usize {
        // Inject this superstep's messages (released by the previous
        // barrier; in the real system partitions compute for a while
        // first — we start them immediately).
        for m in job.superstep_messages(step, cfg.base_candidates) {
            sw.inject(
                PortId(m.src_part as u16),
                msg_packet(next_id, m.src_part, step as u32, m.candidates),
                now,
            );
            next_id += 1;
        }
        now = sw.run_until_idle();
        // Collect the barrier release(s).
        let delivered = sw.take_delivered();
        let releases: Vec<(PortId, u32, u64)> = delivered
            .iter()
            .filter_map(|d| read_release(&d.data).map(|(s, t)| (d.port, s, t)))
            .collect();
        let expected_total = job.superstep_volume(step, cfg.base_candidates);
        let expected_copies = match kind {
            TargetKind::Adcp | TargetKind::RmtRecirc => partition_ports.len(),
            TargetKind::RmtPinned => 1,
        };
        if releases.len() != expected_copies {
            correct = false;
        }
        for (port, s, total) in &releases {
            if *s as usize != step || *total != expected_total {
                correct = false;
            }
            if kind == TargetKind::RmtPinned && *port != barrier_port {
                correct = false;
            }
        }
    }
    sw.check_conservation();
    let mut notes = notes;
    notes.push(format!(
        "{} supersteps, {} messages/step, barrier detected in-switch",
        cfg.workload.supersteps, expected_msgs
    ));
    if kind == TargetKind::RmtPinned {
        notes.push("release visible only at the barrier port; host relay needed".into());
    }
    AppReport::from_switch("graphmine", kind, &sw, now, correct, notes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> GraphMineCfg {
        GraphMineCfg {
            workload: BspWorkload {
                partitions: 4,
                vertices: 500,
                edges: 3000,
                supersteps: 6,
            },
            base_candidates: 2,
            seed: 13,
        }
    }

    #[test]
    fn adcp_barriers_release_every_partition() {
        let r = run(TargetKind::Adcp, &small());
        assert!(r.correct, "{r:?}");
        // 6 steps x 12 cut pairs in, 6 releases x 4 partitions out.
        assert_eq!(r.injected, 72);
        assert_eq!(r.delivered, 24);
    }

    #[test]
    fn rmt_recirc_barriers_work_with_extra_passes() {
        let r = run(TargetKind::RmtRecirc, &small());
        assert!(r.correct, "{r:?}");
        assert_eq!(r.recirc_passes, 72, "one pass per message");
    }

    #[test]
    fn rmt_pinned_release_is_port_restricted() {
        let r = run(TargetKind::RmtPinned, &small());
        assert!(r.correct, "{r:?}");
        assert_eq!(r.delivered, 6, "one release per step, one port");
        assert!(r.notes.iter().any(|n| n.contains("host relay")));
    }

    #[test]
    fn closed_loop_makespan_grows_with_supersteps() {
        let mut cfg = small();
        let short = run(TargetKind::Adcp, &cfg);
        cfg.workload.supersteps = 12;
        let long = run(TargetKind::Adcp, &cfg);
        assert!(long.makespan_ns > short.makespan_ns * 1.5);
    }
}
