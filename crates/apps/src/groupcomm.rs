//! Group communication with heterogeneous NICs (Table 1, row 4;
//! zero-sided-RDMA style).
//!
//! A source streams a data object once; the switch replicates it to a
//! receiver group "even if some of the servers have different NIC
//! capabilities". Receivers with slower NICs drain their egress queues
//! more slowly; the shared-memory TM absorbs the rate mismatch. The run
//! verifies per-receiver completeness and in-order delivery, and reports
//! the completion-time skew between the fastest and slowest receiver.

use crate::driver::{self, AppReport, TargetKind};
use crate::suite::Scale;
use adcp_core::AdcpConfig;
use adcp_lang::{
    ActionDef, ActionOp, FieldDef, HeaderDef, Operand, ParserSpec, Program, ProgramBuilder, Region,
    TableDef,
};
use adcp_rmt::RmtConfig;
use adcp_sim::packet::{FlowId, Packet, PortId};
use adcp_sim::port::LinkSpeed;
use adcp_sim::time::SimTime;
use std::collections::HashMap;

/// Parameters of one group transfer.
#[derive(Debug, Clone)]
pub struct GroupCommCfg {
    /// Receivers in the group.
    pub receivers: u16,
    /// Every second receiver runs at this reduced NIC speed (Gbps).
    pub slow_nic_gbps: u32,
    /// Packets in the object.
    pub packets: u32,
    /// Frame bytes per packet.
    pub frame_bytes: usize,
    /// Source pacing rate in Gbps (token bucket); `None` sends at line
    /// rate and lets the TM buffer absorb the slow receivers.
    pub pace_gbps: Option<u32>,
}

impl Default for GroupCommCfg {
    fn default() -> Self {
        GroupCommCfg {
            receivers: 6,
            slow_nic_gbps: 100,
            packets: 400,
            frame_bytes: 1024,
            pace_gbps: None,
        }
    }
}

impl GroupCommCfg {
    /// The size the suite runs at `scale` ([`crate::suite`]).
    pub fn sized(scale: Scale) -> Self {
        let mut cfg = Self::default();
        if scale == Scale::Quick {
            cfg.packets = 120;
        }
        cfg
    }
}

/// Build the one-table replication program.
pub fn program(kind: TargetKind) -> Program {
    let mut b = ProgramBuilder::new(format!("groupcomm-{}", kind.label()));
    let h = b.header(HeaderDef::new(
        "gc",
        vec![FieldDef::scalar("seq", 32), FieldDef::scalar("pad", 32)],
    ));
    b.parser(ParserSpec::single(h));
    // Group 0 is filled in by the runner before building the switch.
    b.table(TableDef {
        name: "replicate".into(),
        region: Region::Ingress,
        key: None,
        actions: vec![ActionDef::new(
            "replicate",
            vec![
                ActionOp::SetMulticast(Operand::Const(0)),
                ActionOp::CountElements(Operand::Const(1)),
            ],
        )],
        default_action: 0,
        default_params: vec![],
        size: 1,
    });
    b.build()
}

fn data_packet(id: u64, seq: u32, frame: usize) -> Packet {
    let mut data = vec![0u8; frame.max(8)];
    data[..4].copy_from_slice(&seq.to_be_bytes());
    Packet::new(id, FlowId(0), data)
        .with_goodput(frame as u32 - 8)
        .with_elements(1)
}

/// Run the transfer; verify completeness/order; report skew in the notes.
pub fn run(kind: TargetKind, cfg: &GroupCommCfg) -> AppReport {
    let src = PortId(0);
    let receivers: Vec<PortId> = (1..=cfg.receivers).map(PortId).collect();
    // Every second receiver has a slow NIC.
    let slow: Vec<(u16, LinkSpeed)> = receivers
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 2 == 1)
        .map(|(_, p)| (p.0, LinkSpeed::gbps(cfg.slow_nic_gbps)))
        .collect();

    let mut prog = program(kind);
    prog.mcast_groups.push(receivers.clone());

    let mut sw = driver::build_with(
        kind,
        AdcpConfig {
            port_speeds: slow.clone(),
            ..Default::default()
        },
        RmtConfig {
            port_speeds: slow,
            ..Default::default()
        },
        |_| prog,
    )
    .expect("groupcomm compiles on every target");
    let notes = sw.placement().notes.clone();

    let mut bucket = cfg
        .pace_gbps
        .map(|g| adcp_sim::shaper::TokenBucket::new(g as u64 * 1_000_000_000, 2 * 1520));
    let mut t = SimTime::ZERO;
    for i in 0..cfg.packets {
        let pkt = data_packet(i as u64, i, cfg.frame_bytes);
        if let Some(b) = bucket.as_mut() {
            t = b.admit(&pkt, t);
        }
        sw.inject(src, pkt, t);
    }
    let makespan = sw.run_until_idle();
    sw.check_conservation();

    // Verify: each receiver saw the full, in-order sequence.
    let delivered = sw.take_delivered();
    let mut per_port: HashMap<PortId, Vec<(SimTime, u32)>> = HashMap::new();
    for d in &delivered {
        let seq = u32::from_be_bytes(d.data[..4].try_into().unwrap());
        per_port.entry(d.port).or_default().push((d.time, seq));
    }
    let mut correct = per_port.len() == receivers.len();
    let mut completion: Vec<(PortId, SimTime)> = Vec::new();
    for r in &receivers {
        match per_port.get(r) {
            Some(seqs) if seqs.len() == cfg.packets as usize => {
                // Delivery times are recorded in TX order; the sequence
                // numbers must be monotone per receiver.
                if !seqs.windows(2).all(|w| w[0].1 < w[1].1) {
                    correct = false;
                }
                completion.push((*r, seqs.last().unwrap().0));
            }
            _ => correct = false,
        }
    }
    let mut notes = notes;
    notes.push(format!(
        "tm buffer high-water: {} cells",
        sw.tm_buffer_hwm()
    ));
    if let (Some(min), Some(max)) = (
        completion.iter().map(|(_, t)| *t).min(),
        completion.iter().map(|(_, t)| *t).max(),
    ) {
        notes.push(format!(
            "completion skew fast->slow receivers: {:.1}ns",
            (max - min).as_ns_f64()
        ));
    }
    AppReport::from_switch("groupcomm", kind, &sw, makespan, correct, notes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> GroupCommCfg {
        GroupCommCfg {
            receivers: 4,
            slow_nic_gbps: 100,
            packets: 100,
            frame_bytes: 1024,
            pace_gbps: None,
        }
    }

    #[test]
    fn adcp_group_transfer_complete_and_ordered() {
        let r = run(TargetKind::Adcp, &small());
        assert!(r.correct, "{r:?}");
        assert_eq!(r.injected, 100);
        assert_eq!(r.delivered, 400, "4 receivers x 100 packets");
    }

    #[test]
    fn rmt_group_transfer_also_works() {
        // Plain replication is a classic TM feature: RMT handles it too.
        let r = run(TargetKind::RmtPinned, &small());
        assert!(r.correct, "{r:?}");
        assert_eq!(r.delivered, 400);
    }

    #[test]
    fn slow_nics_create_completion_skew() {
        let r = run(TargetKind::Adcp, &small());
        let note = r
            .notes
            .iter()
            .find(|n| n.contains("completion skew"))
            .expect("skew note present");
        let skew: f64 = note
            .split("skew fast->slow receivers: ")
            .nth(1)
            .unwrap()
            .trim_end_matches("ns")
            .parse()
            .unwrap();
        // 100 packets x 1044 wire bytes: 800G drains in ~1us, 100G in
        // ~8.4us — the skew must be microseconds.
        assert!(skew > 1_000.0, "skew = {skew}ns");
    }

    #[test]
    fn pacing_shrinks_switch_buffering() {
        // An unpaced sender dumps at 800G; slow receivers buffer in the
        // TM. Pacing the source to the slow NIC rate keeps the buffer
        // nearly empty — end-host shaping trades time for switch memory.
        let unpaced = run(TargetKind::Adcp, &small());
        let paced = run(
            TargetKind::Adcp,
            &GroupCommCfg {
                pace_gbps: Some(100),
                ..small()
            },
        );
        assert!(unpaced.correct && paced.correct);
        let hwm = |r: &crate::driver::AppReport| -> u64 {
            r.notes
                .iter()
                .find_map(|n| {
                    n.strip_prefix("tm buffer high-water: ")
                        .and_then(|x| x.split(' ').next())
                        .and_then(|x| x.parse().ok())
                })
                .unwrap()
        };
        assert!(
            hwm(&paced) * 4 < hwm(&unpaced),
            "paced {} vs unpaced {} cells",
            hwm(&paced),
            hwm(&unpaced)
        );
        // Either way the transfer finishes when the slow NICs drain: the
        // makespans are within 25% of each other — pacing trades switch
        // memory for source-side waiting, not for total time.
        assert!(
            (paced.makespan_ns / unpaced.makespan_ns - 1.0).abs() < 0.25,
            "paced {:.0}ns vs unpaced {:.0}ns",
            paced.makespan_ns,
            unpaced.makespan_ns
        );
    }

    #[test]
    fn faster_object_on_faster_nics() {
        let slow = run(TargetKind::Adcp, &small());
        let fast = run(
            TargetKind::Adcp,
            &GroupCommCfg {
                slow_nic_gbps: 800,
                ..small()
            },
        );
        assert!(fast.makespan_ns < slow.makespan_ns);
    }
}
