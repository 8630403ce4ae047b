//! # adcp-rmt — the baseline RMT switch model
//!
//! A cycle-level, event-driven model of a classic RMT switch (Bosshart et
//! al.; the paper's Figure 1): `n` ports multiplexed `n/p` per ingress
//! pipeline, shared-nothing pipelines of match-action stages, one
//! shared-memory traffic manager, egress pipelines pinned to their ports,
//! and a recirculation path as the only way to reshuffle flows.
//!
//! This is the comparison baseline for every experiment: the limitations
//! the paper numbers ① – ③ in §2 are enforced by construction here, and the
//! ADCP model in `adcp-core` lifts them one by one.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod switch;

pub use adcp_sim::datapath::Delivered;
pub use switch::{RmtConfig, RmtSwitch};

#[cfg(test)]
mod tests {
    use super::*;
    use adcp_lang::{
        ActionDef, ActionOp, CompileOptions, Entry, FieldDef, FieldId, FieldRef, HeaderDef,
        KeySpec, MatchKind, MatchValue, Operand, ParserSpec, Program, ProgramBuilder, RegAluOp,
        RegId, Region, RegisterDef, RmtCentralStrategy, TableDef, TargetModel,
    };
    use adcp_sim::packet::{FlowId, Packet, PortId};
    use adcp_sim::time::SimTime;

    fn fr(h: u16, f: u16) -> FieldRef {
        FieldRef::new(adcp_lang::HeaderId(h), FieldId(f))
    }

    /// Minimal L2-ish program: header {dst:16, pad:16}; exact-match route
    /// table (dst -> egress port or multicast group); miss drops.
    fn route_program(mcast: Vec<Vec<PortId>>) -> Program {
        let mut b = ProgramBuilder::new("route");
        let h = b.header(HeaderDef::new(
            "fwd",
            vec![FieldDef::scalar("dst", 16), FieldDef::scalar("pad", 16)],
        ));
        b.parser(ParserSpec::single(h));
        let mut actions = vec![
            ActionDef::new("fwd", vec![ActionOp::SetEgress(Operand::Param(0))]),
            ActionDef::new("drop", vec![ActionOp::Drop]),
        ];
        for g in 0..mcast.len() {
            actions.push(ActionDef::new(
                format!("mcast{g}"),
                vec![ActionOp::SetMulticast(Operand::Const(g as u64))],
            ));
        }
        for g in mcast {
            b.mcast_group(g);
        }
        b.table(TableDef {
            name: "route".into(),
            region: Region::Ingress,
            key: Some(KeySpec {
                field: fr(0, 0),
                kind: MatchKind::Exact,
                bits: 16,
            }),
            actions,
            default_action: 1,
            default_params: vec![],
            size: 1024,
        });
        b.build()
    }

    fn pkt(id: u64, dst: u16, len: usize) -> Packet {
        let mut data = vec![0u8; len.max(4)];
        data[..2].copy_from_slice(&dst.to_be_bytes());
        Packet::new(id, FlowId(dst as u64), data)
    }

    fn route_entry(dst: u16, port: u16) -> Entry {
        Entry {
            value: MatchValue::Exact(dst as u64),
            action: 0,
            params: vec![port as u64],
        }
    }

    fn build(program: Program) -> RmtSwitch {
        RmtSwitch::new(
            program,
            TargetModel::rmt_12t(),
            CompileOptions::default(),
            RmtConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn unicast_end_to_end() {
        let mut sw = build(route_program(vec![]));
        sw.install_all("route", route_entry(7, 13)).unwrap();
        sw.inject(PortId(0), pkt(1, 7, 128), SimTime::ZERO);
        sw.run_until_idle();
        let out = sw.take_delivered();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].port, PortId(13));
        assert!(out[0].time > SimTime::ZERO);
        assert_eq!(sw.counters.delivered, 1);
        sw.check_conservation();
        // dst field survives the two deparse/parse round trips.
        assert_eq!(&out[0].data[..2], &7u16.to_be_bytes());
    }

    #[test]
    fn unmatched_packets_filtered() {
        let mut sw = build(route_program(vec![]));
        sw.inject(PortId(0), pkt(1, 99, 64), SimTime::ZERO);
        sw.run_until_idle();
        assert_eq!(sw.counters.filtered, 1);
        assert_eq!(sw.counters.delivered, 0);
        sw.check_conservation();
    }

    #[test]
    fn multicast_replicates_at_tm() {
        let group = vec![PortId(1), PortId(9), PortId(17)]; // 3 pipes
        let mut sw = build(route_program(vec![group.clone()]));
        sw.install_all(
            "route",
            Entry {
                value: MatchValue::Exact(5),
                action: 2, // mcast0
                params: vec![],
            },
        )
        .unwrap();
        sw.inject(PortId(0), pkt(1, 5, 200), SimTime::ZERO);
        sw.run_until_idle();
        let mut ports: Vec<_> = sw.take_delivered().iter().map(|d| d.port).collect();
        ports.sort();
        assert_eq!(ports, group);
        assert_eq!(sw.counters.mcast_copies, 2);
        assert_eq!(sw.counters.delivered, 3);
        sw.check_conservation();
    }

    #[test]
    fn pipeline_retires_one_phv_per_cycle() {
        let mut sw = build(route_program(vec![]));
        sw.install_all("route", route_entry(1, 31)).unwrap();
        // 64 packets on 8 ports of pipe 0, all arriving "at once":
        // the pipeline must serialize them one per 617 ps cycle.
        for i in 0..64u64 {
            sw.inject(PortId((i % 8) as u16), pkt(i, 1, 64), SimTime::ZERO);
        }
        let end = sw.run_until_idle();
        assert_eq!(sw.counters.delivered, 64);
        // 64 slots at 617 ps each is a hard lower bound on the makespan.
        assert!(
            end.as_ps() >= 63 * 617,
            "makespan {end} too short for line-rate pacing"
        );
        assert!(sw.ingress_utilization(0, end) > 0.0);
        sw.check_conservation();
    }

    #[test]
    fn latency_accounts_pipeline_depth() {
        let mut sw = build(route_program(vec![]));
        sw.install_all("route", route_entry(2, 8)).unwrap();
        sw.inject(PortId(0), pkt(1, 2, 64), SimTime::ZERO);
        sw.run_until_idle();
        let out = sw.take_delivered();
        let d = &out[0];
        // RX serialization (84B at 400G = 1.68ns) + parse + 1-stage ingress
        // + 1-stage egress + TX: strictly more than two pipeline periods.
        assert!(d.time.as_ps() > 2 * 617, "latency = {}", d.time);
        assert_eq!(sw.latency.count(), 1);
    }

    /// A packet lives in one slab slot from `inject` until it is delivered
    /// or dropped: a run through every drop class and a multicast fan-out
    /// leaves nothing parked and closes the ledger.
    #[test]
    fn every_drop_class_frees_its_slot() {
        // Header {dst:16, key:16}. By `key`: 1 is dropped at ingress
        // (filtered at the TM), 2 gets no forwarding decision, 3 multicasts
        // to ports 0..4, 4 is dropped at egress; any other key forwards to
        // `dst`.
        let mut b = ProgramBuilder::new("slots");
        let fields = vec![FieldDef::scalar("dst", 16), FieldDef::scalar("key", 16)];
        let h = b.header(HeaderDef::new("h", fields));
        b.parser(ParserSpec::single(h));
        let g = b.mcast_group((0..4).map(PortId).collect());
        let by_key = |name: &str, region, actions| TableDef {
            name: name.into(),
            region,
            key: Some(KeySpec {
                field: fr(0, 1),
                kind: MatchKind::Exact,
                bits: 16,
            }),
            actions,
            default_action: 0,
            default_params: vec![],
            size: 16,
        };
        let fwd = ActionDef::new("fwd", vec![ActionOp::SetEgress(Operand::Field(fr(0, 0)))]);
        let drop = || ActionDef::new("d", vec![ActionOp::Drop]);
        let mcast = ActionDef::new("m", vec![ActionOp::SetMulticast(Operand::Const(g as u64))]);
        let ingress = vec![fwd, drop(), ActionDef::nop(), mcast];
        b.table(by_key("in", Region::Ingress, ingress));
        b.table(by_key(
            "out",
            Region::Egress,
            vec![ActionDef::nop(), drop()],
        ));
        let cfg = RmtConfig {
            tm_cells: 12,
            queue_depth: 2,
            ..Default::default()
        };
        let target = TargetModel::rmt_12t();
        let mut sw = RmtSwitch::new(b.build(), target, CompileOptions::default(), cfg).unwrap();
        for (table, key, action) in [("in", 1, 1), ("in", 2, 2), ("in", 3, 3), ("out", 4, 1)] {
            let value = MatchValue::Exact(key);
            let params = vec![];
            sw.install_all(
                table,
                Entry {
                    value,
                    action,
                    params,
                },
            )
            .unwrap();
        }
        let frame = |id: u64, dst: u16, key: u16, len: usize| {
            let mut data = vec![0u8; len];
            data[..2].copy_from_slice(&dst.to_be_bytes());
            data[2..4].copy_from_slice(&key.to_be_bytes());
            Packet::new(id, FlowId(id), data)
        };
        let at = |i: u64| SimTime::from_us(i);
        let mut corrupt = frame(1, 5, 0, 64).seal();
        corrupt.data.make_mut()[0] ^= 1;
        sw.inject(PortId(0), corrupt, at(0));
        sw.inject(PortId(0), Packet::new(2, FlowId(2), vec![0u8; 3]), at(1));
        for key in 1..=4 {
            sw.inject(PortId(0), frame(2 + key as u64, 5, key, 64), at(2));
        }
        sw.inject(PortId(0), frame(7, 999, 0, 64), at(3));
        // 13 cells in a 12-cell buffer.
        sw.inject(PortId(1), frame(8, 5, 0, 1000), at(4));
        // Every port at once into port 6's two-deep queue.
        for p in 0..32 {
            sw.inject(PortId(p), frame(100 + p as u64, 6, 0, 64), at(5));
        }
        sw.run_until_idle();
        let c = &sw.counters;
        let classes = [c.fcs_drops, c.parse_errors, c.no_decision, c.bad_port];
        assert!(classes.iter().all(|&n| n == 1), "{c:?}");
        assert_eq!(c.filtered, 2, "at the TM and at egress: {c:?}");
        assert!(c.tm[0].buffer > 0 && c.tm[0].queue > 0, "{c:?}");
        assert_eq!(c.mcast_copies, 3);
        assert_eq!(sw.in_flight(), 0);
        sw.check_conservation();
    }

    /// Program whose packets all take one recirculation pass: ingress
    /// marks Recirculate; the central table (pass 1) counts and forwards.
    fn recirc_program() -> Program {
        let mut b = ProgramBuilder::new("recirc");
        let h = b.header(HeaderDef::new(
            "fwd",
            vec![FieldDef::scalar("dst", 16), FieldDef::scalar("pad", 16)],
        ));
        b.parser(ParserSpec::single(h));
        let ctr = b.register(RegisterDef::new("coflow_ctr", 16, 64));
        b.table(TableDef {
            name: "mark".into(),
            region: Region::Ingress,
            key: None,
            actions: vec![ActionDef::new(
                "mark",
                vec![
                    ActionOp::SetCentralPipe(Operand::Const(2)),
                    ActionOp::Recirculate,
                ],
            )],
            default_action: 0,
            default_params: vec![],
            size: 1,
        });
        b.table(TableDef {
            name: "coflow_count".into(),
            region: Region::Central,
            key: None,
            actions: vec![ActionDef::new(
                "count_and_fwd",
                vec![
                    ActionOp::RegRmw {
                        reg: ctr,
                        index: Operand::Const(0),
                        op: RegAluOp::Add,
                        value: Operand::Const(1),
                        fetch: None,
                    },
                    ActionOp::SetEgress(Operand::Field(fr(0, 0))),
                ],
            )],
            default_action: 0,
            default_params: vec![],
            size: 1,
        });
        b.build()
    }

    #[test]
    fn recirculation_converges_coflow_state_at_a_cost() {
        let opts = CompileOptions {
            rmt_central: RmtCentralStrategy::Recirculate,
        };
        let mut sw = RmtSwitch::new(
            recirc_program(),
            TargetModel::rmt_12t(),
            opts,
            RmtConfig::default(),
        )
        .unwrap();
        // Packets from ports on *different* ingress pipelines; dst=3.
        for (i, port) in [0u16, 8, 16, 24].iter().enumerate() {
            sw.inject(PortId(*port), pkt(i as u64, 3, 64), SimTime::ZERO);
        }
        sw.run_until_idle();
        assert_eq!(sw.counters.delivered, 4);
        assert_eq!(sw.counters.recirc_passes, 4, "every packet looped once");
        // All four converged on pipe 2's central state despite arriving on
        // four different pipelines — recirculation pays for convergence.
        assert_eq!(sw.central_register(2, RegId(0)).peek(0), 4);
        for p in [0usize, 1, 3] {
            assert_eq!(sw.central_register(p, RegId(0)).peek(0), 0);
        }
        sw.check_conservation();
    }

    /// Same central counter, default (egress-pin) lowering: state splits
    /// across egress pipelines — the Fig. 2 limitation, observable.
    #[test]
    fn egress_pinning_splits_coflow_state() {
        let mut b = ProgramBuilder::new("pinned");
        let h = b.header(HeaderDef::new(
            "fwd",
            vec![FieldDef::scalar("dst", 16), FieldDef::scalar("pad", 16)],
        ));
        b.parser(ParserSpec::single(h));
        let ctr = b.register(RegisterDef::new("coflow_ctr", 16, 64));
        b.table(TableDef {
            name: "route".into(),
            region: Region::Ingress,
            key: None,
            actions: vec![ActionDef::new(
                "fwd",
                vec![ActionOp::SetEgress(Operand::Field(fr(0, 0)))],
            )],
            default_action: 0,
            default_params: vec![],
            size: 1,
        });
        b.table(TableDef {
            name: "coflow_count".into(),
            region: Region::Central,
            key: None,
            actions: vec![ActionDef::new(
                "count",
                vec![ActionOp::RegRmw {
                    reg: ctr,
                    index: Operand::Const(0),
                    op: RegAluOp::Add,
                    value: Operand::Const(1),
                    fetch: None,
                }],
            )],
            default_action: 0,
            default_params: vec![],
            size: 1,
        });
        let mut sw = build(b.build());
        assert_eq!(
            sw.placement.central_impl,
            adcp_lang::CentralImpl::EgressPinned
        );
        // Two packets to port 0 (egress pipe 0), two to port 8 (pipe 1).
        sw.inject(PortId(0), pkt(1, 0, 64), SimTime::ZERO);
        sw.inject(PortId(1), pkt(2, 0, 64), SimTime::ZERO);
        sw.inject(PortId(2), pkt(3, 8, 64), SimTime::ZERO);
        sw.inject(PortId(3), pkt(4, 8, 64), SimTime::ZERO);
        sw.run_until_idle();
        assert_eq!(sw.counters.delivered, 4);
        // The coflow counter never reaches 4 anywhere: it split 2/2.
        assert_eq!(sw.central_register(0, RegId(0)).peek(0), 2);
        assert_eq!(sw.central_register(1, RegId(0)).peek(0), 2);
        sw.check_conservation();
    }

    #[test]
    fn tm_pool_exhaustion_drops_and_conserves() {
        let cfg = RmtConfig {
            tm_cells: 4, // tiny shared buffer
            ..Default::default()
        };
        let mut sw = RmtSwitch::new(
            route_program(vec![]),
            TargetModel::rmt_12t(),
            CompileOptions::default(),
            cfg,
        )
        .unwrap();
        sw.install_all("route", route_entry(1, 0)).unwrap();
        // 24 ports across 3 ingress pipelines all target port 0: arrivals
        // (~3.7 pkts/ns) outpace the egress pipeline drain (1.62 pkts/ns),
        // so the 4-cell pool must refuse admissions.
        for i in 0..240u64 {
            sw.inject(PortId((i % 24) as u16 + 8), pkt(i, 1, 300), SimTime::ZERO);
        }
        sw.run_until_idle();
        assert!(sw.counters.tm[0].buffer > 0, "tiny pool must drop");
        assert!(sw.counters.delivered > 0, "but some get through");
        sw.check_conservation();
    }

    #[test]
    fn queue_overflow_drops_and_conserves() {
        let cfg = RmtConfig {
            queue_depth: 1,
            ..Default::default()
        };
        let mut sw = RmtSwitch::new(
            route_program(vec![]),
            TargetModel::rmt_12t(),
            CompileOptions::default(),
            cfg,
        )
        .unwrap();
        sw.install_all("route", route_entry(1, 0)).unwrap();
        // Everything funnels to one TX port; its queue holds one packet.
        for i in 0..40u64 {
            sw.inject(PortId((i % 32) as u16), pkt(i, 1, 1500), SimTime::ZERO);
        }
        sw.run_until_idle();
        assert!(sw.counters.tm[0].queue > 0);
        sw.check_conservation();
    }

    #[test]
    fn recirculation_doubles_ingress_slot_usage() {
        // The §1 bandwidth tax, measured at the pipeline: N packets that
        // each recirculate once consume 2N ingress slots.
        let opts = CompileOptions {
            rmt_central: RmtCentralStrategy::Recirculate,
        };
        let mut sw = RmtSwitch::new(
            recirc_program(),
            TargetModel::rmt_12t(),
            opts,
            RmtConfig::default(),
        )
        .unwrap();
        let n = 100u64;
        for i in 0..n {
            // All from pipe 0; program sends the second pass to pipe 2.
            sw.inject(PortId((i % 8) as u16), pkt(i, 3, 64), SimTime::ZERO);
        }
        let end = sw.run_until_idle();
        assert_eq!(sw.counters.delivered, n);
        let slots: u64 = (0..4)
            .map(|p| (sw.ingress_utilization(p, end) * (end.as_ps() / 617) as f64) as u64)
            .sum();
        assert!(
            (2 * n - 4..=2 * n + 4).contains(&slots),
            "2 ingress slots per packet, got {slots} for {n} packets"
        );
        sw.check_conservation();
    }

    #[test]
    fn bad_port_decision_is_counted() {
        let mut sw = build(route_program(vec![]));
        sw.install_all("route", route_entry(1, 999)).unwrap(); // no port 999
        sw.inject(PortId(0), pkt(1, 1, 64), SimTime::ZERO);
        sw.run_until_idle();
        assert_eq!(sw.counters.bad_port, 1);
        assert_eq!(sw.counters.delivered, 0);
        sw.check_conservation();
    }

    #[test]
    fn runt_packet_fails_parsing() {
        let mut sw = build(route_program(vec![]));
        // The fwd header needs 4 bytes; send 2.
        let runt = Packet::new(1, FlowId(0), vec![0u8; 2]);
        sw.inject(PortId(0), runt, SimTime::ZERO);
        sw.run_until_idle();
        assert_eq!(sw.counters.parse_errors, 1);
        sw.check_conservation();
    }

    #[test]
    fn empty_multicast_group_counts_no_decision() {
        let mut sw = build(route_program(vec![vec![]]));
        sw.install_all(
            "route",
            Entry {
                value: MatchValue::Exact(5),
                action: 2,
                params: vec![],
            },
        )
        .unwrap();
        sw.inject(PortId(0), pkt(1, 5, 64), SimTime::ZERO);
        sw.run_until_idle();
        assert_eq!(sw.counters.no_decision, 1);
        sw.check_conservation();
    }

    #[test]
    fn tx_port_serializes_back_to_back_deliveries() {
        let mut sw = build(route_program(vec![]));
        sw.install_all("route", route_entry(1, 5)).unwrap();
        for i in 0..10u64 {
            sw.inject(PortId((i % 4) as u16 + 8), pkt(i, 1, 1500), SimTime::ZERO);
        }
        sw.run_until_idle();
        let out = sw.take_delivered();
        assert_eq!(out.len(), 10);
        // 1520 wire bytes at 400G = 30.4 ns per packet on the TX port.
        let mut times: Vec<u64> = out.iter().map(|d| d.time.as_ps()).collect();
        times.sort_unstable();
        for w in times.windows(2) {
            assert!(w[1] - w[0] >= 30_400, "TX pacing violated: {w:?}");
        }
    }

    #[test]
    fn deterministic_given_same_input() {
        let run = || {
            let mut sw = build(route_program(vec![]));
            sw.install_all("route", route_entry(4, 20)).unwrap();
            for i in 0..100u64 {
                sw.inject(
                    PortId((i % 32) as u16),
                    pkt(i, 4, 64 + (i as usize % 9) * 100),
                    SimTime(i * 100),
                );
            }
            let end = sw.run_until_idle();
            let out = sw.take_delivered();
            (
                end,
                out.len(),
                out.iter().map(|d| d.time.as_ps()).sum::<u64>(),
            )
        };
        assert_eq!(run(), run());
    }
}
