//! Case generation: a seeded random program with its entry installs and
//! workload, the fault schedule applied to that workload, and the seeded
//! ownership plans of the partitioned modes. Everything derives from the
//! [`CaseSpec`], so shrinking is re-generating with lower caps.

use adcp_core::PartitionMap;
use adcp_fabric::plan_owners;
use adcp_lang::{
    ActionDef, ActionOp, BinOp, Entry, FieldDef, FieldId, FieldRef, HeaderDef, HeaderId, KeySpec,
    MatchKind, MatchValue, Operand, ParserSpec, Program, ProgramBuilder, RegAluOp, RegId, Region,
    RegisterDef, TableDef,
};
use adcp_sim::fault::{FaultInjector, FaultOutcome};
use adcp_sim::packet::{FlowId, Packet};
use adcp_sim::rng::SimRng;
use adcp_sim::time::SimTime;

use super::{CaseSpec, FABRIC_LEAVES, GAP_NS, REG_CELLS, WORKLOAD_PORTS};

/// Field handles of the generated header.
#[derive(Clone, Copy)]
struct Fields {
    op: FieldRef,
    key: FieldRef,
    idx: FieldRef,
    val: FieldRef,
    arr: FieldRef,
}

/// One generated program (plus its recirculating twin) with its entry
/// installs, stateful registers, and workload.
pub(super) struct GenCase {
    /// Program for the reference, ADCP, and RMT egress-pinned targets.
    pub(super) program: Program,
    /// Same program with `Recirculate` in the ingress route action, for the
    /// RMT recirculating target (RMT needs the explicit second pass; the
    /// op is a no-op on the other targets so the twin keeps them identical).
    pub(super) program_recirc: Program,
    /// Registers owned by central stateful tables (compared at the end).
    pub(super) state_regs: Vec<RegId>,
    /// The program uses array action ops: ADCP-only territory (§3.2). The
    /// RMT targets must *reject* it at compile time instead of running it.
    pub(super) has_array_actions: bool,
    /// Entries to install, `(table name, entry)` in a deterministic order.
    pub(super) installs: Vec<(String, Entry)>,
    /// Workload: `(ingress port, sealed packet)` in injection order.
    pub(super) packets: Vec<(u16, Packet)>,
}

fn bitmask(bits: u8) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// A random stateless operand over the scalar fields.
fn gen_operand(rng: &mut SimRng, f: &Fields) -> Operand {
    match rng.index(6) {
        0 => Operand::Const(rng.range(0u64..=0xFFFF_FFFF)),
        1 => Operand::Field(f.val),
        2 => Operand::Field(f.key),
        3 => Operand::Field(f.idx),
        4 => Operand::Field(f.op),
        _ => Operand::Param(rng.range(0u8..2)),
    }
}

fn gen_binop(rng: &mut SimRng) -> BinOp {
    [
        BinOp::Add,
        BinOp::Sub,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Min,
        BinOp::Max,
        BinOp::Shl,
        BinOp::Shr,
        BinOp::Ge,
    ][rng.index(10)]
}

fn gen_regop(rng: &mut SimRng) -> RegAluOp {
    [RegAluOp::Write, RegAluOp::Add, RegAluOp::Max, RegAluOp::Min][rng.index(4)]
}

/// A random stateless op. Drop/MarkDrop/IfEq are only legal in ingress
/// match tables (they run before the route table asserts the forwarding
/// decision, so a drop consistently short-circuits on every target).
/// `keep_steer` (fabric mode, pre-egress regions) redirects the `idx`
/// rewrite onto `val`: the placement pass steers on `idx`, so nothing may
/// rewrite it before the forwarding decision is made.
fn gen_stateless_op(rng: &mut SimRng, f: &Fields, allow_drop: bool, keep_steer: bool) -> ActionOp {
    if allow_drop && rng.chance(0.15) {
        return if rng.chance(0.5) {
            ActionOp::Drop
        } else {
            ActionOp::MarkDrop
        };
    }
    match rng.index(5) {
        0 => ActionOp::Set {
            dst: f.val,
            src: gen_operand(rng, f),
        },
        1 => ActionOp::Bin {
            dst: f.val,
            op: gen_binop(rng),
            a: Operand::Field(f.val),
            b: gen_operand(rng, f),
        },
        2 => {
            let dst = if keep_steer { f.val } else { f.idx };
            ActionOp::Bin {
                dst,
                op: gen_binop(rng),
                a: Operand::Field(dst),
                b: Operand::Const(rng.range(0u64..16)),
            }
        }
        3 => ActionOp::Hash {
            dst: f.val,
            fields: vec![f.key, f.op],
            modulo: 1 << 16,
        },
        _ if allow_drop => ActionOp::IfEq {
            a: Operand::Field(f.op),
            b: Operand::Const(rng.range(0u64..4)),
            then: vec![ActionOp::Set {
                dst: f.val,
                src: gen_operand(rng, f),
            }],
        },
        _ => ActionOp::Set {
            dst: f.op,
            src: gen_operand(rng, f),
        },
    }
}

/// A random stateful op over `reg` (central region only). In migrate and
/// fabric modes the index is always `idx` — the partitioned-area convention
/// that cell `c` belongs to partition key `c`, which is what lets a
/// migration (or the fabric's key-range split) know where cells live.
fn gen_register_op(rng: &mut SimRng, f: &Fields, reg: RegId, partitioned: bool) -> ActionOp {
    let index = if partitioned || rng.chance(0.7) {
        Operand::Field(f.idx)
    } else {
        Operand::Const(rng.range(0u64..REG_CELLS as u64))
    };
    if rng.chance(0.25) {
        ActionOp::RegRead {
            reg,
            index,
            dst: f.val,
        }
    } else {
        let value = match rng.index(3) {
            0 => Operand::Field(f.val),
            1 => Operand::Const(rng.range(0u64..=0xFFFF)),
            _ => Operand::Param(0),
        };
        ActionOp::RegRmw {
            reg,
            index,
            op: gen_regop(rng),
            value,
            fetch: if rng.chance(0.3) { Some(f.val) } else { None },
        }
    }
}

/// Entries for a keyed table: collision-free by construction so installs
/// never fail (exact keys deduplicated, ranges from sorted distinct cut
/// points; LPM/ternary accept anything).
fn gen_entries(
    rng: &mut SimRng,
    kind: MatchKind,
    key_bits: u8,
    n: u32,
    actions: &[ActionDef],
    interesting: &mut Vec<u64>,
) -> Vec<Entry> {
    let mask = bitmask(key_bits);
    let mut entries = Vec::new();
    let mut values: Vec<MatchValue> = Vec::new();
    match kind {
        MatchKind::Exact => {
            let mut seen = Vec::new();
            let mut attempts = 0;
            while (seen.len() as u32) < n && attempts < 4 * n + 8 {
                attempts += 1;
                let k = rng.u64() & mask;
                if !seen.contains(&k) {
                    seen.push(k);
                    interesting.push(k);
                    values.push(MatchValue::Exact(k));
                }
            }
        }
        MatchKind::Lpm => {
            for _ in 0..n {
                let len = rng.range(1u8..=key_bits);
                let v = rng.u64() & mask;
                interesting.push(v);
                values.push(MatchValue::Lpm { value: v, len });
            }
        }
        MatchKind::Ternary => {
            for _ in 0..n {
                let v = rng.u64() & mask;
                interesting.push(v);
                values.push(MatchValue::Ternary {
                    value: v,
                    mask: rng.u64() & mask,
                    priority: rng.range(0u16..8),
                });
            }
        }
        MatchKind::Range => {
            // 2n distinct sorted cut points pair into n disjoint intervals.
            let mut cuts = Vec::new();
            let mut attempts = 0;
            while (cuts.len() as u32) < 2 * n && attempts < 8 * n + 16 {
                attempts += 1;
                let c = rng.u64() & mask;
                if !cuts.contains(&c) {
                    cuts.push(c);
                }
            }
            cuts.sort_unstable();
            for pair in cuts.chunks_exact(2) {
                interesting.push(pair[0]);
                values.push(MatchValue::Range {
                    lo: pair[0],
                    hi: pair[1],
                });
            }
        }
    }
    for value in values {
        let action = rng.index(actions.len());
        let params = (0..actions[action].params_used())
            .map(|_| rng.range(0u64..1024))
            .collect();
        entries.push(Entry {
            value,
            action,
            params,
        });
    }
    entries
}

fn gen_match_kind(rng: &mut SimRng) -> MatchKind {
    [
        MatchKind::Exact,
        MatchKind::Lpm,
        MatchKind::Ternary,
        MatchKind::Range,
    ][rng.index(4)]
}

/// A keyless single-action table: its one action runs on every packet.
fn keyless(name: &str, region: Region, action: &str, ops: Vec<ActionOp>) -> TableDef {
    TableDef {
        name: name.into(),
        region,
        key: None,
        actions: vec![ActionDef::new(action, ops)],
        default_action: 0,
        default_params: vec![],
        size: 1,
    }
}

/// Generate the full case from a spec. Deterministic: every draw comes from
/// `SimRng::seed_from(spec.seed)` and the caps in the spec.
pub(super) fn gen_case(spec: &CaseSpec) -> GenCase {
    let mut rng = SimRng::seed_from(spec.seed);

    // -- Header: op:8, key:kb, idx:16, val:32, arr: aw×32. All widths are
    //    multiples of 8, so the header is always byte aligned.
    let key_bits = [8u8, 16, 24, 32][rng.index(4)];
    let widths: Vec<u16> = [1u16, 2, 4, 8]
        .into_iter()
        .filter(|w| *w <= spec.max_array.max(1))
        .collect();
    let arr_width = widths[rng.index(widths.len())];
    // Fabric cases carry two extra scratch fields the placement pass owns:
    // the hop phase and the composite steering key. The workload leaves them
    // zero and the fabric clears them again before delivery, so frames stay
    // byte-comparable with the non-fabric targets.
    let mut field_defs = vec![
        FieldDef::scalar("op", 8),
        FieldDef::scalar("key", key_bits),
        FieldDef::scalar("idx", 16),
        FieldDef::scalar("val", 32),
        FieldDef::array("arr", 32, arr_width),
    ];
    if spec.fabric {
        field_defs.push(FieldDef::scalar("fphase", 8));
        field_defs.push(FieldDef::scalar("fgk", 16));
    }
    let header = HeaderDef::new("h", field_defs);
    let fr = |i: u16| FieldRef::new(HeaderId(0), FieldId(i));
    let fields = Fields {
        op: fr(0),
        key: fr(1),
        idx: fr(2),
        val: fr(3),
        arr: fr(4),
    };

    // -- Shape draws. Migrate and fabric modes forbid the array table:
    //    array ops span `[base, base+w)` cells, which breaks the
    //    cell-per-partition-key convention a migration (or a cross-leaf
    //    key-range split) relies on to know where cells live.
    let partitioned = spec.migrate.is_some() || spec.fabric;
    let n_ingress = rng.range(1usize..=(spec.max_tables.clamp(1, 3) as usize));
    let n_state = rng.range(1usize..=2);
    let use_array_table = arr_width > 1 && rng.chance(0.7) && !partitioned;
    let use_egress_table = rng.chance(0.6);

    let mut b = ProgramBuilder::new("conformance");
    let h = b.header(header.clone());
    b.parser(ParserSpec::single(h));

    let mut installs: Vec<(String, Entry)> = Vec::new();
    let mut interesting: Vec<u64> = Vec::new();
    let mut state_regs: Vec<RegId> = Vec::new();
    let mut route_table_index = 0usize;
    // Key a table on `key`: draw its entries, queue their installs.
    let mut keyed = |rng: &mut SimRng, name: &str, kind: MatchKind, actions: &[ActionDef]| {
        let n = rng.range(0u32..=spec.max_entries.min(8));
        for e in gen_entries(rng, kind, key_bits, n, actions, &mut interesting) {
            installs.push((name.to_string(), e));
        }
        KeySpec {
            field: fields.key,
            kind,
            bits: key_bits,
        }
    };

    // -- Ingress match tables: stateless, may drop.
    for t in 0..n_ingress {
        let kind = gen_match_kind(&mut rng);
        let n_actions = rng.range(1usize..=3);
        let mut actions: Vec<ActionDef> = (0..n_actions)
            .map(|a| {
                let n_ops = rng.range(1usize..=3);
                let ops = (0..n_ops)
                    .map(|_| gen_stateless_op(&mut rng, &fields, true, spec.fabric))
                    .collect();
                ActionDef::new(format!("i{t}a{a}"), ops)
            })
            .collect();
        actions.push(ActionDef::nop());
        let name = format!("ing{t}");
        let key = Some(keyed(&mut rng, &name, kind, &actions));
        let default_action = actions.len() - 1;
        b.table(TableDef {
            name,
            region: Region::Ingress,
            key,
            actions,
            default_action,
            default_params: vec![],
            size: 64,
        });
        route_table_index += 1;
    }

    // -- Route table, last in ingress. Normally every surviving packet is
    //    pinned to central pipe 0; in migrate mode the packet instead
    //    partitions on `idx` (masked into the bucket/cell range) so state
    //    spreads across pipes and a live map change has something to move.
    //    Either way egress is port 0. (The recirculating twin appends
    //    `Recirculate` here.)
    let route_ops = if partitioned {
        vec![
            ActionOp::Bin {
                dst: fields.idx,
                op: BinOp::And,
                a: Operand::Field(fields.idx),
                b: Operand::Const(REG_CELLS as u64 - 1),
            },
            ActionOp::SetCentralPipe(Operand::Field(fields.idx)),
            ActionOp::SetEgress(Operand::Const(0)),
        ]
    } else {
        vec![
            ActionOp::SetCentralPipe(Operand::Const(0)),
            ActionOp::SetEgress(Operand::Const(0)),
        ]
    };
    b.table(keyless("route", Region::Ingress, "route", route_ops));

    // -- Central region. The keyless route-refresh table runs FIRST: on the
    //    RMT recirculation pass the packet is re-parsed, so the PHV's egress
    //    intrinsic restarts Unset and the central region must re-assert the
    //    decision (idempotent on the other targets).
    let refresh = vec![ActionOp::SetEgress(Operand::Const(0))];
    b.table(keyless("central_route", Region::Central, "cfwd", refresh));

    // -- Central stateful tables: each owns its register (single-owner
    //    validation), key on `key` or keyless, actions mutate the register.
    for t in 0..n_state {
        let reg_bits = [16u8, 32][rng.index(2)];
        let reg = b.register(RegisterDef::new(format!("r{t}"), REG_CELLS, reg_bits));
        state_regs.push(reg);
        let keyless = rng.chance(0.3);
        let n_actions = rng.range(1usize..=2);
        let actions: Vec<ActionDef> = (0..n_actions)
            .map(|a| {
                let n_ops = rng.range(1usize..=2);
                let ops = (0..n_ops)
                    .map(|_| gen_register_op(&mut rng, &fields, reg, partitioned))
                    .collect();
                ActionDef::new(format!("s{t}a{a}"), ops)
            })
            .collect();
        let name = format!("state{t}");
        let kind = gen_match_kind(&mut rng);
        let key = (!keyless).then(|| keyed(&mut rng, &name, kind, &actions));
        let default_action = rng.index(actions.len());
        b.table(TableDef {
            name,
            region: Region::Central,
            key,
            actions,
            default_action,
            default_params: vec![],
            size: 64,
        });
    }

    // -- Optional §3.2 array table: keyless, array-wide register ops.
    if use_array_table {
        let reg = b.register(RegisterDef::new("ra", REG_CELLS, 32));
        state_regs.push(reg);
        let base = if rng.chance(0.6) {
            Operand::Field(fields.idx)
        } else {
            Operand::Const(rng.range(0u64..(REG_CELLS as u64 - arr_width as u64)))
        };
        let mut ops = vec![ActionOp::RegArray {
            reg,
            base,
            op: gen_regop(&mut rng),
            values: fields.arr,
            readback: rng.chance(0.5),
        }];
        if rng.chance(0.5) {
            ops.push(ActionOp::ArrayReduce {
                dst: fields.val,
                src: fields.arr,
                op: gen_binop(&mut rng),
            });
        }
        b.table(keyless("arrt", Region::Central, "agg", ops));
    }

    // -- Optional stateless egress table (no drops: egress rewrites only).
    if use_egress_table {
        let n_ops = rng.range(1usize..=2);
        let ops = (0..n_ops)
            .map(|_| gen_stateless_op(&mut rng, &fields, false, false))
            .collect();
        b.table(keyless("etbl", Region::Egress, "erw", ops));
    }

    let program = b.build();
    // The recirculating twin: identical except the route action additionally
    // requests the second ingress pass RMT needs to reach central tables.
    let mut program_recirc = program.clone();
    program_recirc.tables[route_table_index].actions[0]
        .ops
        .push(ActionOp::Recirculate);

    // -- Workload.
    let n_packets = rng.range(1usize..=(spec.max_packets.max(1) as usize));
    let mut packets = Vec::with_capacity(n_packets);
    for i in 0..n_packets {
        let port = rng.range(0u16..WORKLOAD_PORTS);
        let key = if !interesting.is_empty() && rng.chance(0.5) {
            interesting[rng.index(interesting.len())]
        } else {
            rng.u64() & bitmask(key_bits)
        };
        let mut buf = vec![0u8; header.total_bytes() as usize];
        let dep = |buf: &mut [u8], fid: u16, elem: u16, bits: u8, v: u64| {
            let off = header.bit_offset(FieldId(fid), elem);
            assert!(adcp_lang::deposit_bits(buf, off, bits, v));
        };
        dep(&mut buf, 0, 0, 8, rng.range(0u64..4));
        dep(&mut buf, 1, 0, key_bits, key);
        // Fabric cases keep `idx` inside the steering key space: the
        // composite key is computed from the raw field at the first hop,
        // before the route table's mask runs.
        let idx_cap = if spec.fabric { REG_CELLS as u64 } else { 80 };
        dep(&mut buf, 2, 0, 16, rng.range(0u64..idx_cap));
        dep(&mut buf, 3, 0, 32, rng.u64() & 0xFFFF_FFFF);
        for e in 0..arr_width {
            dep(&mut buf, 4, e, 32, rng.u64() & 0xFFFF_FFFF);
        }
        let payload_len = rng.range(0usize..16);
        for _ in 0..payload_len {
            buf.push(rng.range(0u64..256) as u8);
        }
        packets.push((
            port,
            Packet::new(i as u64, FlowId(1000 + i as u64), buf).seal(),
        ));
    }

    GenCase {
        program,
        program_recirc,
        state_regs,
        has_array_actions: use_array_table,
        installs,
        packets,
    }
}

/// A seeded owner perturbation of `map`, guaranteed to move at least one
/// bucket: the migration target for migrate-mode cases.
pub(super) fn perturb_owners(map: &PartitionMap, seed: u64, n_pipes: u32) -> PartitionMap {
    if n_pipes < 2 {
        return map.clone();
    }
    let mut rng = SimRng::seed_from(seed ^ 0x0061_6272_A7E5_EED5);
    let mut owners: Vec<u32> = (0..map.num_buckets())
        .map(|b| map.owner_of_bucket(b))
        .collect();
    let mut moved = false;
    for o in owners.iter_mut() {
        if rng.chance(0.3) {
            *o = (*o + rng.range(1u64..n_pipes as u64) as u32) % n_pipes;
            moved = true;
        }
    }
    if !moved {
        owners[0] = (owners[0] + 1) % n_pipes;
    }
    PartitionMap::from_buckets(owners)
}

/// Seeded per-key load profile → leaf ownership for a fabric case, through
/// the same LPT planner the §3.1 control plane uses: key ranges split
/// unevenly but deterministically per seed.
pub(super) fn fabric_owners(seed: u64) -> Vec<u32> {
    let mut rng = SimRng::seed_from(seed ^ 0xFAB5_EED5);
    let loads: Vec<u64> = (0..REG_CELLS).map(|_| rng.range(1u64..100)).collect();
    plan_owners(REG_CELLS as u64, FABRIC_LEAVES, &loads)
}

/// One workload packet after the (optional) fault schedule was applied.
pub(super) struct PreparedPacket {
    pub(super) port: u16,
    pub(super) pkt: Packet,
    /// Injection time (base gap plus any fault delay).
    pub(super) at: SimTime,
    /// Lost on the link: never injected anywhere.
    pub(super) link_dropped: bool,
    /// Bit-flipped on the link: injected, must be rejected by the FCS.
    pub(super) corrupted: bool,
}

/// Apply the fault schedule (or pass everything through when `knobs` is
/// `None`). The same prepared list feeds every target, so the comparison
/// stays exact under faults.
pub(super) fn prepare_workload(case: &GenCase, spec: &CaseSpec) -> Vec<PreparedPacket> {
    let mut injector = match spec.fault {
        Some(k) => FaultInjector::new(k.config(), SimRng::seed_from(spec.seed ^ 0x5EED_FA17)),
        None => FaultInjector::transparent(),
    };
    case.packets
        .iter()
        .enumerate()
        .map(|(i, (port, pkt))| {
            let mut pkt = pkt.clone();
            let base = SimTime::from_ns((i as u64 + 1) * GAP_NS);
            let outcome = injector.apply(&mut pkt);
            PreparedPacket {
                port: *port,
                pkt,
                at: match outcome {
                    FaultOutcome::Delayed(d) => base + d,
                    _ => base,
                },
                link_dropped: outcome == FaultOutcome::Dropped,
                corrupted: outcome == FaultOutcome::Corrupted,
            }
        })
        .collect()
}
