//! # adcp-core — the Application-Defined Coflow Processor
//!
//! The paper's proposed switch architecture (Figure 4), executable:
//!
//! * a second traffic manager creating **central pipelines** — the *global
//!   partitioned area* where coflow state can be arranged by application
//!   criteria without giving up forwarding freedom (§3.1);
//! * **array-capable match-action stages**: one shared table copy serves a
//!   whole array of keys per packet, and wide register ops aggregate
//!   arrays in a single traversal (§3.2);
//! * **port demultiplexing**: each port feeds `m` slower pipelines, so
//!   clock frequency scales down as port speed scales up (§3.3).
//!
//! The model is event-driven and cycle-level, built on `adcp-sim`, and runs
//! the same `adcp-lang` programs as the RMT baseline in `adcp-rmt`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod partition;
pub mod switch;

pub use adcp_sim::datapath::Delivered;
pub use partition::{
    MigrateError, MigrationStats, MigrationStrategy, PartitionMap, PartitionScheme,
};
pub use switch::{AdcpConfig, AdcpSwitch, DemuxPolicy};

#[cfg(test)]
mod tests {
    use super::*;
    use adcp_lang::{
        ActionDef, ActionOp, CompileOptions, Entry, FieldDef, FieldId, FieldRef, HeaderDef,
        KeySpec, MatchKind, MatchValue, Operand, ParserSpec, Program, ProgramBuilder, RegAluOp,
        RegId, Region, RegisterDef, TableDef, TargetModel, TmSpec,
    };
    use adcp_sim::packet::{FlowId, Packet, PortId};
    use adcp_sim::sched::Policy as SchedPolicy;
    use adcp_sim::time::SimTime;

    fn fr(h: u16, f: u16) -> FieldRef {
        FieldRef::new(adcp_lang::HeaderId(h), FieldId(f))
    }

    /// Header {dst:16, key:16, slot:32, vals: 4x32} — 24 bytes.
    fn header() -> HeaderDef {
        HeaderDef::new(
            "co",
            vec![
                FieldDef::scalar("dst", 16),
                FieldDef::scalar("key", 16),
                FieldDef::scalar("slot", 32),
                FieldDef::array("vals", 32, 4),
            ],
        )
    }

    fn pkt_with(id: u64, flow: u64, dst: u16, key: u16, slot: u32, vals: [u32; 4]) -> Packet {
        let mut data = Vec::with_capacity(24 + 8);
        data.extend_from_slice(&dst.to_be_bytes());
        data.extend_from_slice(&key.to_be_bytes());
        data.extend_from_slice(&slot.to_be_bytes());
        for v in vals {
            data.extend_from_slice(&v.to_be_bytes());
        }
        data.extend_from_slice(&[0u8; 8]); // payload
        Packet::new(id, FlowId(flow), data)
    }

    fn read_vals(data: &[u8]) -> [u32; 4] {
        let mut out = [0u32; 4];
        for (i, o) in out.iter_mut().enumerate() {
            let s = 8 + i * 4;
            *o = u32::from_be_bytes(data[s..s + 4].try_into().unwrap());
        }
        out
    }

    /// Coflow aggregation program: ingress hashes key -> central pipe and
    /// sets sort key; central aggregates vals into a register array with
    /// readback and forwards to dst; egress empty.
    fn aggregate_program(tm1: SchedPolicy) -> Program {
        let mut b = ProgramBuilder::new("aggregate");
        let h = b.header(header());
        b.parser(ParserSpec::single(h));
        b.tm1(TmSpec { policy: tm1 });
        let acc = b.register(RegisterDef::new("acc", 4096, 32));
        b.table(TableDef {
            name: "partition".into(),
            region: Region::Ingress,
            key: None,
            actions: vec![ActionDef::new(
                "part",
                vec![
                    ActionOp::Hash {
                        dst: fr(0, 1),
                        fields: vec![fr(0, 1)],
                        modulo: 4,
                    },
                    ActionOp::SetCentralPipe(Operand::Field(fr(0, 1))),
                    ActionOp::SetSortKey(Operand::Field(fr(0, 2))),
                ],
            )],
            default_action: 0,
            default_params: vec![],
            size: 1,
        });
        b.table(TableDef {
            name: "aggregate".into(),
            region: Region::Central,
            key: None,
            actions: vec![ActionDef::new(
                "agg",
                vec![
                    ActionOp::RegArray {
                        reg: acc,
                        base: Operand::Field(fr(0, 2)),
                        op: RegAluOp::Add,
                        values: fr(0, 3),
                        readback: true,
                    },
                    ActionOp::CountElements(Operand::Const(4)),
                    ActionOp::SetEgress(Operand::Field(fr(0, 0))),
                ],
            )],
            default_action: 0,
            default_params: vec![],
            size: 1,
        });
        b.build()
    }

    fn build(p: Program) -> AdcpSwitch {
        AdcpSwitch::new(
            p,
            TargetModel::adcp_reference(),
            CompileOptions::default(),
            AdcpConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn end_to_end_through_central() {
        let mut sw = build(aggregate_program(SchedPolicy::Fifo));
        sw.inject(
            PortId(0),
            pkt_with(1, 1, 9, 5, 0, [1, 2, 3, 4]),
            SimTime::ZERO,
        );
        sw.run_until_idle();
        let out = sw.take_delivered();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].port, PortId(9));
        assert_eq!(read_vals(&out[0].data), [1, 2, 3, 4]);
        assert_eq!(out[0].meta.elements, 4);
        sw.check_conservation();
    }

    #[test]
    fn coflow_state_converges_globally() {
        // Packets from EVERY port, same key -> same central pipe: the
        // aggregate converges without recirculation (unlike RMT).
        let mut sw = build(aggregate_program(SchedPolicy::Fifo));
        let n_ports = sw.target().ports;
        for p in 0..n_ports {
            sw.inject(
                PortId(p),
                pkt_with(p as u64, p as u64, 0, 42, 100, [1, 1, 1, 1]),
                SimTime::ZERO,
            );
        }
        sw.run_until_idle();
        assert_eq!(sw.counters.delivered, n_ports as u64);
        // All contributions landed on one central pipe's register shard.
        let total: u64 = (0..sw.num_central())
            .map(|c| sw.central_register(c, RegId(0)).unwrap().peek(100))
            .sum();
        assert_eq!(total, n_ports as u64);
        let max: u64 = (0..sw.num_central())
            .map(|c| sw.central_register(c, RegId(0)).unwrap().peek(100))
            .max()
            .unwrap();
        assert_eq!(max, n_ports as u64, "single shard holds the whole coflow");
        sw.check_conservation();
    }

    #[test]
    fn any_port_reachable_from_central() {
        // Same key (same central pipe), but results leave via every port —
        // impossible under RMT egress pinning, native here (Fig. 5).
        let mut sw = build(aggregate_program(SchedPolicy::Fifo));
        let n_ports = sw.target().ports;
        for dst in 0..n_ports {
            sw.inject(
                PortId(0),
                pkt_with(dst as u64, dst as u64, dst, 7, 0, [0; 4]),
                SimTime::ZERO,
            );
        }
        sw.run_until_idle();
        let mut ports: Vec<u16> = sw.take_delivered().iter().map(|d| d.port.0).collect();
        ports.sort_unstable();
        assert_eq!(ports, (0..n_ports).collect::<Vec<_>>());
        sw.check_conservation();
    }

    #[test]
    fn array_aggregation_reads_back_running_sums() {
        let mut sw = build(aggregate_program(SchedPolicy::Fifo));
        // Two workers aggregate into slot 8 — space injections so the
        // first fully traverses before the second (readback order).
        sw.inject(
            PortId(0),
            pkt_with(1, 1, 3, 0, 8, [1, 2, 3, 4]),
            SimTime::ZERO,
        );
        sw.inject(
            PortId(1),
            pkt_with(2, 1, 3, 0, 8, [10, 20, 30, 40]),
            SimTime::from_us(1),
        );
        sw.run_until_idle();
        let out = sw.take_delivered();
        assert_eq!(out.len(), 2);
        assert_eq!(read_vals(&out[0].data), [1, 2, 3, 4]);
        assert_eq!(read_vals(&out[1].data), [11, 22, 33, 44]);
        sw.check_conservation();
    }

    #[test]
    fn tm1_merge_emits_globally_sorted_stream() {
        // Two ports send streams sorted by slot; TM1 MergeOrder interleaves
        // them into one globally sorted stream (§3.1).
        let prog = aggregate_program(SchedPolicy::MergeOrder);
        let mut sw = AdcpSwitch::new(
            prog,
            TargetModel::adcp_reference(),
            CompileOptions::default(),
            AdcpConfig {
                demux: DemuxPolicy::FlowHash,
                ..Default::default()
            },
        )
        .unwrap();
        // Same key => same central pipe; slots interleave across ports.
        let a = [1u32, 4, 7, 10, 13];
        let b_ = [2u32, 5, 8, 11, 14];
        for (i, s) in a.iter().enumerate() {
            sw.inject(
                PortId(0),
                pkt_with(i as u64, 1, 3, 9, *s, [0; 4]),
                SimTime(i as u64 * 10),
            );
        }
        for (i, s) in b_.iter().enumerate() {
            sw.inject(
                PortId(1),
                pkt_with(100 + i as u64, 2, 3, 9, *s, [0; 4]),
                SimTime(i as u64 * 10),
            );
        }
        sw.run_until_idle();
        let out = sw.take_delivered();
        assert_eq!(out.len(), 10);
        let keys: Vec<u64> = out.iter().map(|d| d.meta.sort_key.unwrap()).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "merge order violated: {keys:?}");
        sw.check_conservation();
    }

    #[test]
    fn demux_spreads_a_port_over_its_pipelines() {
        let mut sw = build(aggregate_program(SchedPolicy::Fifo));
        for i in 0..100u64 {
            sw.inject(
                PortId(0),
                pkt_with(i, i, 1, i as u16, 0, [0; 4]),
                SimTime::ZERO,
            );
        }
        sw.run_until_idle();
        let pipes: Vec<usize> = sw.pipes_of_port(PortId(0)).collect();
        assert_eq!(pipes.len(), 2, "1:2 demux");
        for p in &pipes {
            assert!(
                sw.ingress_busy_cycles(*p) >= 40,
                "pipe {p} underused: {}",
                sw.ingress_busy_cycles(*p)
            );
        }
        sw.check_conservation();
    }

    #[test]
    fn multicast_from_central_to_every_port() {
        // Central table multicasts the result to a declared group.
        let mut b = ProgramBuilder::new("mcast");
        let h = b.header(header());
        b.parser(ParserSpec::single(h));
        let every: Vec<PortId> = (0..16).map(PortId).collect();
        let g = b.mcast_group(every.clone());
        b.table(TableDef {
            name: "bcast".into(),
            region: Region::Central,
            key: None,
            actions: vec![ActionDef::new(
                "bcast",
                vec![ActionOp::SetMulticast(Operand::Const(g as u64))],
            )],
            default_action: 0,
            default_params: vec![],
            size: 1,
        });
        let mut sw = build(b.build());
        sw.inject(PortId(5), pkt_with(1, 1, 0, 0, 0, [9; 4]), SimTime::ZERO);
        sw.run_until_idle();
        let out = sw.take_delivered();
        assert_eq!(out.len(), 16);
        assert_eq!(sw.counters.mcast_copies, 15);
        let mut ports: Vec<u16> = out.iter().map(|d| d.port.0).collect();
        ports.sort_unstable();
        assert_eq!(ports, (0..16).collect::<Vec<_>>());
        sw.check_conservation();
    }

    #[test]
    fn partitioned_table_entries_per_central_pipe() {
        // install_central_at shards a lookup table across central pipes.
        let mut b = ProgramBuilder::new("shard");
        let h = b.header(header());
        b.parser(ParserSpec::single(h));
        b.table(TableDef {
            name: "part".into(),
            region: Region::Ingress,
            key: None,
            actions: vec![ActionDef::new(
                "p",
                vec![ActionOp::SetCentralPipe(Operand::Field(fr(0, 1)))],
            )],
            default_action: 0,
            default_params: vec![],
            size: 1,
        });
        b.table(TableDef {
            name: "lookup".into(),
            region: Region::Central,
            key: Some(KeySpec {
                field: fr(0, 1),
                kind: MatchKind::Exact,
                bits: 16,
            }),
            actions: vec![
                ActionDef::new("hit", vec![ActionOp::SetEgress(Operand::Param(0))]),
                ActionDef::new("miss", vec![ActionOp::Drop]),
            ],
            default_action: 1,
            default_params: vec![],
            size: 64,
        });
        let mut sw = build(b.build());
        // Shard: key k lives only on central pipe k % 4 — which is exactly
        // where the partition action sends it, so every lookup hits.
        for k in 0..8u16 {
            sw.install_central_at(
                (k % 4) as usize,
                "lookup",
                Entry {
                    value: MatchValue::Exact(k as u64),
                    action: 0,
                    params: vec![(k % 16) as u64],
                },
            )
            .unwrap();
        }
        for k in 0..8u16 {
            sw.inject(
                PortId(0),
                pkt_with(k as u64, k as u64, 0, k, 0, [0; 4]),
                SimTime::ZERO,
            );
        }
        sw.run_until_idle();
        assert_eq!(sw.counters.delivered, 8);
        assert_eq!(sw.counters.filtered, 0);
        sw.check_conservation();
    }

    #[test]
    fn flow_hash_demux_keeps_flow_order() {
        // FlowHash demux pins a flow to one ingress pipeline, so per-flow
        // delivery order matches injection order even under load.
        let mut sw = AdcpSwitch::new(
            aggregate_program(SchedPolicy::Fifo),
            TargetModel::adcp_reference(),
            CompileOptions::default(),
            AdcpConfig {
                demux: DemuxPolicy::FlowHash,
                ..Default::default()
            },
        )
        .unwrap();
        for i in 0..200u64 {
            // Two flows interleaved; slot encodes per-flow sequence.
            let flow = i % 2;
            sw.inject(
                PortId(flow as u16),
                pkt_with(i, flow, 3, 9, (i / 2) as u32, [0; 4]),
                SimTime(i * 10),
            );
        }
        sw.run_until_idle();
        let out = sw.take_delivered();
        let mut last_slot = [0i64; 2];
        for d in &out {
            let flow = (d.meta.flow.0 % 2) as usize;
            let slot = d.meta.sort_key.unwrap() as i64;
            assert!(slot >= last_slot[flow], "flow {flow} reordered");
            last_slot[flow] = slot;
        }
        sw.check_conservation();
    }

    #[test]
    fn parse_error_counted_and_conserved() {
        let mut sw = build(aggregate_program(SchedPolicy::Fifo));
        sw.inject(
            PortId(0),
            Packet::new(1, FlowId(0), vec![0u8; 3]),
            SimTime::ZERO,
        );
        sw.run_until_idle();
        assert_eq!(sw.counters.parse_errors, 1);
        sw.check_conservation();
    }

    #[test]
    fn filtered_in_central_counted() {
        // A program whose central region drops everything.
        let mut b = ProgramBuilder::new("dropper");
        let h = b.header(header());
        b.parser(ParserSpec::single(h));
        b.table(TableDef {
            name: "drop_all".into(),
            region: Region::Central,
            key: None,
            actions: vec![ActionDef::new("d", vec![ActionOp::Drop])],
            default_action: 0,
            default_params: vec![],
            size: 1,
        });
        let mut sw = build(b.build());
        for i in 0..10u64 {
            sw.inject(PortId(0), pkt_with(i, i, 1, 0, 0, [0; 4]), SimTime::ZERO);
        }
        sw.run_until_idle();
        assert_eq!(sw.counters.filtered, 10);
        assert_eq!(sw.counters.delivered, 0);
        sw.check_conservation();
    }

    /// A packet lives in one slab slot from `inject` until it is delivered
    /// or dropped: a run through every drop class, at both traffic
    /// managers, and a multicast fan-out leaves nothing parked and closes
    /// the ledger.
    #[test]
    fn every_drop_class_frees_its_slot() {
        // By `key`: 1 is dropped at ingress (filtered at TM1), 2 gets no
        // forwarding decision, 3 multicasts to ports 0..4, 4 is dropped at
        // egress; any other key forwards to `dst`.
        let mut b = ProgramBuilder::new("slots");
        let h = b.header(header());
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
        let mcast = ActionDef::new("m", vec![ActionOp::SetMulticast(Operand::Const(g as u64))]);
        let drop = || ActionDef::new("d", vec![ActionOp::Drop]);
        b.table(by_key(
            "in",
            Region::Ingress,
            vec![ActionDef::nop(), drop()],
        ));
        b.table(by_key(
            "route",
            Region::Central,
            vec![fwd, ActionDef::nop(), mcast],
        ));
        b.table(by_key(
            "out",
            Region::Egress,
            vec![ActionDef::nop(), drop()],
        ));
        let cfg = AdcpConfig {
            tm_cells: 12,
            queue_depth: 2,
            ..Default::default()
        };
        let target = TargetModel::adcp_reference();
        let mut sw = AdcpSwitch::new(b.build(), target, CompileOptions::default(), cfg).unwrap();
        for (table, key, action) in [
            ("in", 1, 1),
            ("route", 2, 1),
            ("route", 3, 2),
            ("out", 4, 1),
        ] {
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
        let at = |i: u64| SimTime::from_us(i);
        let mut corrupt = pkt_with(1, 1, 5, 0, 0, [0; 4]).seal();
        corrupt.data.make_mut()[0] ^= 1;
        sw.inject(PortId(0), corrupt, at(0));
        sw.inject(PortId(0), Packet::new(2, FlowId(2), vec![0u8; 3]), at(1));
        for key in 1..=4 {
            sw.inject(
                PortId(0),
                pkt_with(2 + key as u64, 3, 5, key, 0, [0; 4]),
                at(2),
            );
        }
        sw.inject(PortId(0), pkt_with(7, 7, 999, 0, 0, [0; 4]), at(3));
        // 13 cells in a 12-cell buffer.
        let mut big = pkt_with(8, 8, 5, 0, 0, [0; 4]);
        big.data = vec![0u8; 1000].into();
        sw.inject(PortId(1), big, at(4));
        // A flow from every port at once, all to port 6: more cells than
        // TM1 holds, then four central pipes into two two-deep TM2 lanes.
        for p in 0..16 {
            let id = 100 + p as u64;
            sw.inject(PortId(p), pkt_with(id, id, 6, 0, 0, [0; 4]), at(5));
        }
        sw.run_until_idle();
        let c = &sw.counters;
        let classes = [c.fcs_drops, c.parse_errors, c.no_decision, c.bad_port];
        assert!(classes.iter().all(|&n| n == 1), "{c:?}");
        assert_eq!(c.filtered, 2, "at TM1 and at egress: {c:?}");
        assert!(c.tm[0].buffer > 0 && c.tm[1].queue > 0, "{c:?}");
        assert_eq!(c.mcast_copies, 3);
        assert_eq!(sw.in_flight(), 0);
        sw.check_conservation();
    }

    /// Shard-keyed counting program for migration tests: ingress partitions
    /// on the key field itself, central counts per key (cell == key, the
    /// partitioned-area convention) and exposes the pre-op count in the
    /// slot field, so delivered frames witness per-key update order.
    fn migrate_program() -> Program {
        let mut b = ProgramBuilder::new("migrate");
        let h = b.header(header());
        b.parser(ParserSpec::single(h));
        let cnt = b.register(RegisterDef::new("cnt", 64, 32));
        b.table(TableDef {
            name: "route".into(),
            region: Region::Ingress,
            key: None,
            actions: vec![ActionDef::new(
                "r",
                vec![ActionOp::SetCentralPipe(Operand::Field(fr(0, 1)))],
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
                "c",
                vec![
                    ActionOp::RegRmw {
                        reg: cnt,
                        index: Operand::Field(fr(0, 1)),
                        op: RegAluOp::Add,
                        value: Operand::Const(1),
                        fetch: Some(fr(0, 2)),
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

    /// Per-pipe cell values, and the merged (summed) view.
    fn cell_views(sw: &AdcpSwitch, cell: u64) -> (Vec<u64>, u64) {
        let per: Vec<u64> = (0..sw.num_central())
            .map(|c| sw.central_register(c, RegId(0)).unwrap().peek(cell))
            .collect();
        let sum = per.iter().sum();
        (per, sum)
    }

    #[test]
    fn central_control_plane_is_bounds_checked() {
        let mut sw = build(aggregate_program(SchedPolicy::Fifo));
        let n = sw.num_central();
        assert!(sw.central_register(n, RegId(0)).is_none());
        assert!(sw.central_register_mut(n + 3, RegId(0)).is_none());
        assert!(sw.central_register(0, RegId(0)).is_some());
        let mut sw2 = build(migrate_program());
        let entry = Entry {
            value: MatchValue::Exact(0),
            action: 0,
            params: vec![],
        };
        assert_eq!(
            sw2.install_central_at(99, "count", entry),
            Err(adcp_lang::TableError::NoSuchPipe { pipe: 99, have: n }),
        );
    }

    #[test]
    fn uniform_partition_map_reproduces_legacy_routing() {
        let run = |with_map: bool| {
            let mut sw = build(migrate_program());
            if with_map {
                sw.install_partition_map(PartitionMap::uniform(64, 4))
                    .unwrap();
            }
            for i in 0..64u64 {
                let key = (i % 8) as u16;
                sw.inject(
                    PortId((i % 4) as u16),
                    pkt_with(i, key as u64, 1, key, 0, [0; 4]),
                    SimTime(i * 100_000),
                );
            }
            sw.run_until_idle();
            let regs: Vec<Vec<u64>> = (0..sw.num_central())
                .map(|c| sw.central_register(c, RegId(0)).unwrap().snapshot())
                .collect();
            let frames: Vec<(u64, Vec<u8>)> = sw
                .take_delivered()
                .iter()
                .map(|d| (d.meta.id, d.data.to_vec()))
                .collect();
            (regs, frames)
        };
        assert_eq!(run(false), run(true));
    }

    fn run_migration(strategy: MigrationStrategy) -> AdcpSwitch {
        let mut sw = build(migrate_program());
        sw.install_partition_map(PartitionMap::uniform(64, 4))
            .unwrap();
        // 8 hot keys, packets spaced closely enough that some are in
        // flight when the migration begins mid-stream.
        let n = 256u64;
        for i in 0..n {
            let key = (i % 8) as u16;
            sw.inject(
                PortId((i % 4) as u16),
                pkt_with(i, key as u64, 1, key, 0, [0; 4]),
                SimTime(i * 20_000),
            );
        }
        sw.run_until(SimTime(n * 20_000 / 2));
        // Rotate every bucket's owner: all 64 cells move.
        let next = PartitionMap::from_buckets((0..64u32).map(|b| (b % 4 + 1) % 4).collect());
        sw.begin_migration(next, strategy).unwrap();
        sw.run_until_idle();
        if strategy == MigrationStrategy::Incremental {
            sw.finalize_migration().unwrap();
        }
        sw.run_until_idle();
        sw.check_conservation();
        sw
    }

    #[test]
    fn drain_migration_preserves_counts_and_moves_state() {
        let mut sw = run_migration(MigrationStrategy::Drain);
        assert_eq!(sw.counters.delivered, 256);
        let stats = sw.migration_stats().clone();
        assert_eq!(stats.migrations, 1);
        assert_eq!(stats.misroutes, 0);
        assert_eq!(stats.moved_keys, 64);
        assert_eq!(sw.partition_epoch(), 1);
        for key in 0..8u64 {
            let (per, sum) = cell_views(&sw, key);
            assert_eq!(sum, 32, "every update for key {key} applied once");
            // State ended up at the NEW owner only.
            let owner = ((key % 4 + 1) % 4) as usize;
            assert_eq!(per[owner], 32, "key {key} lives at its new owner");
        }
        // Per-key fetch sequence in delivered frames is 0,1,2,... — no
        // update lost, duplicated, or reordered across the migration.
        let mut next_count = [0u64; 8];
        let mut out = sw.take_delivered();
        out.sort_by_key(|d| d.meta.id);
        for d in &out {
            let key = u16::from_be_bytes(d.data[2..4].try_into().unwrap()) as usize;
            let fetched = u32::from_be_bytes(d.data[4..8].try_into().unwrap()) as u64;
            assert_eq!(fetched, next_count[key], "key {key} update order");
            next_count[key] += 1;
        }
    }

    #[test]
    fn incremental_migration_preserves_counts_and_moves_state() {
        let mut sw = run_migration(MigrationStrategy::Incremental);
        assert_eq!(sw.counters.delivered, 256);
        let stats = sw.migration_stats().clone();
        assert_eq!(stats.migrations, 1);
        assert_eq!(stats.misroutes, 0);
        assert_eq!(stats.moved_keys, 64);
        assert!(
            stats.redirected_pkts > 0,
            "mid-stream traffic must trigger first-touch copies"
        );
        assert_eq!(sw.partition_epoch(), 1);
        for key in 0..8u64 {
            let (per, sum) = cell_views(&sw, key);
            assert_eq!(sum, 32, "every update for key {key} applied once");
            let owner = ((key % 4 + 1) % 4) as usize;
            assert_eq!(per[owner], 32, "key {key} lives at its new owner");
        }
        let mut next_count = [0u64; 8];
        let mut out = sw.take_delivered();
        out.sort_by_key(|d| d.meta.id);
        for d in &out {
            let key = u16::from_be_bytes(d.data[2..4].try_into().unwrap()) as usize;
            let fetched = u32::from_be_bytes(d.data[4..8].try_into().unwrap()) as u64;
            assert_eq!(fetched, next_count[key], "key {key} update order");
            next_count[key] += 1;
        }
    }

    #[test]
    fn migration_guards() {
        let mut sw = build(migrate_program());
        let next = PartitionMap::uniform(64, 4);
        assert_eq!(
            sw.begin_migration(next.clone(), MigrationStrategy::Drain),
            Err(MigrateError::NoMap)
        );
        sw.install_partition_map(PartitionMap::uniform(64, 4))
            .unwrap();
        assert_eq!(sw.finalize_migration(), Err(MigrateError::NoMigration));
        assert_eq!(
            sw.begin_migration(
                PartitionMap::from_buckets(vec![7]),
                MigrationStrategy::Drain
            ),
            Err(MigrateError::BadOwner { owner: 7, pipes: 4 })
        );
        let rotated = PartitionMap::from_buckets((0..64u32).map(|b| (b % 4 + 1) % 4).collect());
        sw.begin_migration(rotated.clone(), MigrationStrategy::Incremental)
            .unwrap();
        assert!(sw.migration_active());
        assert_eq!(
            sw.begin_migration(rotated.clone(), MigrationStrategy::Drain),
            Err(MigrateError::InProgress)
        );
        sw.finalize_migration().unwrap();
        assert!(!sw.migration_active());
        assert_eq!(sw.partition_epoch(), 1);

        // The install checks owners, then idleness.
        let mut sw = build(migrate_program());
        let uniform = PartitionMap::uniform(64, 4);
        assert_eq!(
            sw.install_partition_map(PartitionMap::from_buckets(vec![0, 9])),
            Err(MigrateError::BadOwner { owner: 9, pipes: 4 })
        );
        sw.inject(PortId(0), pkt_with(0, 0, 1, 0, 0, [0; 4]), SimTime::ZERO);
        assert_eq!(
            sw.install_partition_map(uniform.clone()),
            Err(MigrateError::NotIdle)
        );
        sw.run_until_idle();
        sw.install_partition_map(uniform.clone()).unwrap();
        // A drain commits on the event loop, never by a finalize.
        sw.begin_migration(rotated, MigrationStrategy::Drain)
            .unwrap();
        assert_eq!(sw.finalize_migration(), Err(MigrateError::InProgress));
        sw.run_until_idle();
        assert!(!sw.migration_active());
        // A burst on key 0 (bucket 0), caught while queued at its owner.
        let burst = |sw: &mut AdcpSwitch| {
            let t = sw.run_until_idle() + adcp_sim::time::Duration::from_us(1);
            for i in 0..32u64 {
                let p = pkt_with(100 + i, i, 1, 0, 0, [0; 4]);
                sw.inject(PortId(i as u16 % 16), p, t);
            }
            sw.run_until(t + adcp_sim::time::Duration::from_ns(40));
        };
        // Moving bucket 0 fences the burst: finalize waits for it.
        burst(&mut sw);
        sw.begin_migration(uniform.clone(), MigrationStrategy::Incremental)
            .unwrap();
        assert_eq!(sw.finalize_migration(), Err(MigrateError::Busy));
        sw.run_until_idle();
        sw.finalize_migration().unwrap();
        // Moving only bucket 63 leaves the fence empty, so finalize
        // completes at once, but the burst is still queued under the old
        // epoch and no migration may stack on it.
        burst(&mut sw);
        let mut owners = uniform.owners().to_vec();
        owners[63] = 0;
        let one_moved = PartitionMap::from_buckets(owners);
        sw.begin_migration(one_moved, MigrationStrategy::Incremental)
            .unwrap();
        sw.finalize_migration().unwrap();
        assert_eq!(
            sw.begin_migration(uniform.clone(), MigrationStrategy::Drain),
            Err(MigrateError::Busy)
        );
        sw.run_until_idle();
        sw.begin_migration(uniform, MigrationStrategy::Drain)
            .unwrap();
        sw.run_until_idle();
        assert_eq!(sw.partition_epoch(), 4);
        assert_eq!(sw.migration_stats().misroutes, 0);
        sw.check_conservation();
    }

    #[test]
    fn deterministic_given_same_input() {
        let run = || {
            let mut sw = build(aggregate_program(SchedPolicy::Fifo));
            for i in 0..200u64 {
                sw.inject(
                    PortId((i % 16) as u16),
                    pkt_with(
                        i,
                        i % 7,
                        (i % 16) as u16,
                        (i % 32) as u16,
                        (i % 64) as u32,
                        [i as u32, 1, 2, 3],
                    ),
                    SimTime(i * 50),
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
