//! Differential conformance harness (E-C1).
//!
//! The paper's central claim is that ADCP runs the *same stateful programs*
//! as RMT while lifting placement/array/multicast restrictions (§3.1–§3.3).
//! This module turns that claim into a generative test: it draws
//! random-but-valid programs and workloads from a seeded [`SimRng`], executes
//! each case on four targets —
//!
//! 1. the plain **reference interpreter** (chained `RegionState` runs with
//!    explicit parse → run → deparse between regions, no timing model),
//! 2. the **ADCP switch** model,
//! 3. the **RMT switch** with egress-pinned central tables, and
//! 4. the **RMT switch** with recirculated central tables,
//!
//! and asserts semantic equivalence: identical delivered frames, identical
//! filtered counts, identical final register state, identical
//! `mat_lookups`/`mat_hits`, and per-packet conservation on every switch.
//! Cases whose programs use array *action* ops (`RegArray`/`ArrayReduce`)
//! are the §3.2 separation witnesses: RMT's scalar MAUs cannot run them, so
//! for those cases the harness instead asserts that the compiler *rejects*
//! the program on both RMT strategies while ADCP still matches the
//! reference bit-for-bit.
//! Surviving cases are re-run under a fault-injection schedule
//! (drop/corrupt/delay) and the documented degradation invariants are
//! checked: every link drop is accounted, corrupted frames are rejected by
//! the frame check before they can touch register state, and the remaining
//! traffic still agrees with the reference bit-for-bit.
//!
//! The `--migrate` mode ([`MigrateKnobs`]) additionally soaks the §3.1
//! control plane: generation is constrained to the partitioned-area
//! convention (partition on `idx`, register cells indexed by `idx` only),
//! the ADCP run starts under a uniform [`PartitionMap`] and a seeded
//! mid-workload `begin_migration` reassigns bucket owners under live
//! traffic. For every requested strategy the delivered frames, filtered
//! counts, and merged final register state must stay byte-identical to the
//! never-migrated reference, every cell must end on the pipe the final map
//! owns it to, and no packet may be dequeued at a stale-epoch pipe. RMT
//! targets are skipped in migrate mode (they have no partitioned area).
//!
//! The `--fabric` mode stretches the same differential check across a
//! *leaf–spine fabric*: generation is constrained to the partitioned-area
//! convention (steer on `idx`, register cells indexed by `idx` only, two
//! scratch header fields for the placement pass), and each case additionally
//! runs on a 2-spine × 4-leaf [`Fabric`] of ADCP switches whose global
//! partitioned area is split across the leaves by key range. Delivered
//! frames, filtered counts, FCS rejections, and the *merged* final register
//! state must agree with the one-big-switch reference bit-for-bit, no cell
//! may leak onto a non-owner leaf, and packet conservation must hold
//! fabric-wide (MAT lookup counts are excluded: transit hops look tables up
//! by design). RMT targets are skipped in fabric mode.
//!
//! On a mismatch the failing [`CaseSpec`] is *shrunk* (fewer packets, fewer
//! entries, fewer tables, narrower arrays, no faults) while the failure
//! reproduces, and the minimal spec is written to a replayable
//! `CONFORMANCE_FAIL_<seed>.json` artifact.
//!
//! Everything derives deterministically from the case seed: the same seed
//! produces a byte-identical [`Report`].

use std::path::{Path, PathBuf};

use adcp_core::{AdcpConfig, AdcpSwitch, MigrationStrategy, PartitionMap};
use adcp_fabric::{plan_owners, Fabric, FabricConfig, FabricError};
use adcp_lang::{
    deparse, ActionDef, ActionOp, BinOp, CompileOptions, Entry, FabricSpec, FieldDef, FieldId,
    FieldRef, HeaderDef, HeaderId, KeySpec, MatchKind, MatchValue, Operand, ParserSpec, Program,
    ProgramBuilder, RegAluOp, RegId, Region, RegionState, RegisterDef, RmtCentralStrategy,
    TableDef, TargetModel,
};
use adcp_rmt::{RmtConfig, RmtSwitch};
use adcp_sim::datapath::Shell;
use adcp_sim::fault::{FaultConfig, FaultInjector, FaultOutcome};
use adcp_sim::packet::{EgressSpec, FlowId, Packet, PortId};
use adcp_sim::rng::SimRng;
use adcp_sim::time::SimTime;
use serde::Serialize;

/// Register cells per generated stateful table.
const REG_CELLS: u32 = 64;
/// Inter-packet injection gap: large enough that every packet fully drains
/// (including recirculation and fault delays) before the next one enters,
/// so execution order equals injection order on every target.
const GAP_NS: u64 = 10_000;
/// Ports the workload draws from (all < the smallest target's port count,
/// and all in RMT pipe 0 so recirculated state stays on one pipe).
const WORKLOAD_PORTS: u16 = 8;
/// Fabric shape for `--fabric` cases: 4 leaves × 2 spines × 2 host ports
/// per leaf = exactly [`WORKLOAD_PORTS`] logical host ports.
const FABRIC_LEAVES: u32 = 4;
const FABRIC_SPINES: u32 = 2;
const FABRIC_HOSTS_PER_LEAF: u32 = 2;

// ---------------------------------------------------------------------------
// Case specification (the shrink surface)
// ---------------------------------------------------------------------------

/// Per-mille fault probabilities for the soak phase; integers so specs
/// round-trip exactly through JSON artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct FaultKnobs {
    /// Link-drop probability, per mille.
    pub drop_pm: u32,
    /// Bit-corruption probability, per mille.
    pub corrupt_pm: u32,
    /// Delay probability, per mille.
    pub delay_pm: u32,
}

impl FaultKnobs {
    fn config(&self) -> FaultConfig {
        FaultConfig {
            drop_chance: self.drop_pm as f64 / 1000.0,
            corrupt_chance: self.corrupt_pm as f64 / 1000.0,
            delay_chance: self.delay_pm as f64 / 1000.0,
            ..Default::default()
        }
    }
}

/// Mid-workload repartitioning knobs for the `--migrate` mode. With these
/// set, generation is constrained to the partitioned-area convention
/// (partition on `idx`, register cells indexed by `idx` only, no array
/// table) and the ADCP runs are compared against a never-migrated
/// reference: delivered frames, filtered counts, and final (merged)
/// register state must be byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct MigrateKnobs {
    /// Which strategies to exercise: 0 = drain, 1 = incremental, 2 = both.
    pub strategy_sel: u32,
    /// When the migration begins, as per-mille of the workload span.
    pub at_pm: u32,
}

/// A fully reproducible conformance case: a seed plus the generation caps
/// the shrinker lowers. Generation re-derives everything from these fields,
/// so shrinking = re-generating with smaller caps and checking the failure
/// still reproduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CaseSpec {
    /// Seed for every random draw in the case.
    pub seed: u64,
    /// Upper bound on workload packets (≥ 1).
    pub max_packets: u32,
    /// Upper bound on installed entries per table.
    pub max_entries: u32,
    /// Upper bound on the array-field width (1, 2, 4 or 8).
    pub max_array: u16,
    /// Upper bound on ingress match tables (≥ 1).
    pub max_tables: u32,
    /// Fault schedule for the soak phase; `None` = clean run.
    pub fault: Option<FaultKnobs>,
    /// Mid-workload live repartitioning; `None` = no migration.
    pub migrate: Option<MigrateKnobs>,
    /// Also run the case on a leaf–spine fabric and require agreement with
    /// the one-big-switch reference. Mutually exclusive with `migrate`.
    pub fabric: bool,
}

/// Why a case did not produce a verdict.
#[derive(Debug, Clone)]
pub enum CaseError {
    /// The draw did not compile on some target (counted, not a failure).
    Skip(String),
    /// The targets disagreed — a genuine conformance failure.
    Mismatch(String),
}

// ---------------------------------------------------------------------------
// Program + workload generation
// ---------------------------------------------------------------------------

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
struct GenCase {
    /// Program for the reference, ADCP, and RMT egress-pinned targets.
    program: Program,
    /// Same program with `Recirculate` in the ingress route action, for the
    /// RMT recirculating target (RMT needs the explicit second pass; the
    /// op is a no-op on the other targets so the twin keeps them identical).
    program_recirc: Program,
    /// Registers owned by central stateful tables (compared at the end).
    state_regs: Vec<RegId>,
    /// The program uses array action ops: ADCP-only territory (§3.2). The
    /// RMT targets must *reject* it at compile time instead of running it.
    has_array_actions: bool,
    /// Entries to install, `(table name, entry)` in a deterministic order.
    installs: Vec<(String, Entry)>,
    /// Workload: `(ingress port, sealed packet)` in injection order.
    packets: Vec<(u16, Packet)>,
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

/// Generate the full case from a spec. Deterministic: every draw comes from
/// `SimRng::seed_from(spec.seed)` and the caps in the spec.
fn gen_case(spec: &CaseSpec) -> GenCase {
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
        let n_entries = rng.range(0u32..=spec.max_entries.min(8));
        for e in gen_entries(
            &mut rng,
            kind,
            key_bits,
            n_entries,
            &actions,
            &mut interesting,
        ) {
            installs.push((name.clone(), e));
        }
        let default_action = actions.len() - 1;
        b.table(TableDef {
            name,
            region: Region::Ingress,
            key: Some(KeySpec {
                field: fields.key,
                kind,
                bits: key_bits,
            }),
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
    b.table(TableDef {
        name: "route".into(),
        region: Region::Ingress,
        key: None,
        actions: vec![ActionDef::new("route", route_ops)],
        default_action: 0,
        default_params: vec![],
        size: 1,
    });

    // -- Central region. The keyless route-refresh table runs FIRST: on the
    //    RMT recirculation pass the packet is re-parsed, so the PHV's egress
    //    intrinsic restarts Unset and the central region must re-assert the
    //    decision (idempotent on the other targets).
    b.table(TableDef {
        name: "central_route".into(),
        region: Region::Central,
        key: None,
        actions: vec![ActionDef::new(
            "cfwd",
            vec![ActionOp::SetEgress(Operand::Const(0))],
        )],
        default_action: 0,
        default_params: vec![],
        size: 1,
    });

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
        let key = if keyless {
            None
        } else {
            let n_entries = rng.range(0u32..=spec.max_entries.min(8));
            for e in gen_entries(
                &mut rng,
                kind,
                key_bits,
                n_entries,
                &actions,
                &mut interesting,
            ) {
                installs.push((name.clone(), e));
            }
            Some(KeySpec {
                field: fields.key,
                kind,
                bits: key_bits,
            })
        };
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
        b.table(TableDef {
            name: "arrt".into(),
            region: Region::Central,
            key: None,
            actions: vec![ActionDef::new("agg", ops)],
            default_action: 0,
            default_params: vec![],
            size: 1,
        });
    }

    // -- Optional stateless egress table (no drops: egress rewrites only).
    if use_egress_table {
        let n_ops = rng.range(1usize..=2);
        let ops = (0..n_ops)
            .map(|_| gen_stateless_op(&mut rng, &fields, false, false))
            .collect();
        b.table(TableDef {
            name: "etbl".into(),
            region: Region::Egress,
            key: None,
            actions: vec![ActionDef::new("erw", ops)],
            default_action: 0,
            default_params: vec![],
            size: 1,
        });
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

// ---------------------------------------------------------------------------
// Fault schedule preparation
// ---------------------------------------------------------------------------

/// One workload packet after the (optional) fault schedule was applied.
struct PreparedPacket {
    port: u16,
    pkt: Packet,
    /// Injection time (base gap plus any fault delay).
    at: SimTime,
    /// Lost on the link: never injected anywhere.
    link_dropped: bool,
    /// Bit-flipped on the link: injected, must be rejected by the FCS.
    corrupted: bool,
}

/// Apply the fault schedule (or pass everything through when `knobs` is
/// `None`). The same prepared list feeds every target, so the comparison
/// stays exact under faults.
fn prepare_workload(case: &GenCase, spec: &CaseSpec) -> Vec<PreparedPacket> {
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

// ---------------------------------------------------------------------------
// Execution: reference interpreter + the three switch models
// ---------------------------------------------------------------------------

/// What one target observed; equivalence means all four agree.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    /// Delivered frames `(id, port, bytes)`, sorted by packet id.
    delivered: Vec<(u64, u16, Vec<u8>)>,
    /// Packets dropped by a program `Drop`/`MarkDrop` action.
    filtered: u64,
    /// Corrupted frames rejected by the frame check.
    fcs_drops: u64,
    /// Match-table key lookups (all regions, all lanes).
    lookups: u64,
    /// Lookups that hit an installed entry.
    hits: u64,
    /// Final cells of every stateful register, in `state_regs` order.
    regs: Vec<Vec<u64>>,
}

/// Parse → run one region → deparse; the reference's per-region step,
/// mirroring the switch models' writeback semantics exactly (the forwarding
/// decision rides in `EgressSpec`, moved into the PHV intrinsics before the
/// region runs and moved back out after).
fn ref_stage(
    program: &Program,
    layout: &adcp_lang::PhvLayout,
    state: &mut RegionState,
    data: &[u8],
    carried: EgressSpec,
    port: u16,
) -> Result<(Vec<u8>, EgressSpec), String> {
    let out = program
        .parser
        .parse(&program.headers, layout, data)
        .map_err(|e| format!("reference parse error: {e:?}"))?;
    let mut phv = out.phv;
    phv.intr.ingress_port = Some(PortId(port));
    phv.intr.egress = carried;
    state.run(program, layout, &mut phv);
    let payload = &data[out.consumed.min(data.len())..];
    let new_data = deparse(&program.headers, layout, &phv, &out.extracted, payload);
    Ok((new_data, std::mem::take(&mut phv.intr.egress)))
}

/// Run the case on the reference interpreter: one packet at a time through
/// ingress → central → egress with explicit deparse/re-parse between
/// regions (the ADCP flow with the timing model removed).
fn run_reference(case: &GenCase, prepared: &[PreparedPacket]) -> Result<Outcome, String> {
    let program = &case.program;
    let layout = program.layout();
    let mut ing = RegionState::new(program, Region::Ingress);
    let mut cen = RegionState::new(program, Region::Central);
    let mut egr = RegionState::new(program, Region::Egress);
    for (name, entry) in &case.installs {
        let region = program
            .tables
            .iter()
            .find(|t| &t.name == name)
            .map(|t| t.region)
            .ok_or_else(|| format!("reference: no table {name}"))?;
        let state = match region {
            Region::Ingress => &mut ing,
            Region::Central => &mut cen,
            Region::Egress => &mut egr,
        };
        state
            .install_by_name(program, name, entry.clone())
            .map_err(|e| format!("reference install into {name}: {e:?}"))?;
    }

    let mut delivered = Vec::new();
    let mut filtered = 0u64;
    let mut fcs_drops = 0u64;
    for p in prepared {
        if p.link_dropped {
            continue;
        }
        if p.corrupted {
            fcs_drops += 1;
            continue;
        }
        let (data, egress) = ref_stage(
            program,
            &layout,
            &mut ing,
            &p.pkt.data,
            EgressSpec::Unset,
            p.port,
        )?;
        if egress == EgressSpec::Drop {
            filtered += 1;
            continue;
        }
        let (data, egress) = ref_stage(program, &layout, &mut cen, &data, egress, p.port)?;
        if egress == EgressSpec::Drop {
            filtered += 1;
            continue;
        }
        let EgressSpec::Unicast(out_port) = egress else {
            return Err(format!(
                "reference: packet {} left central with no decision ({egress:?})",
                p.pkt.meta.id
            ));
        };
        let (data, egress) = ref_stage(
            program,
            &layout,
            &mut egr,
            &data,
            EgressSpec::Unicast(out_port),
            p.port,
        )?;
        if egress == EgressSpec::Drop {
            filtered += 1;
            continue;
        }
        delivered.push((p.pkt.meta.id, out_port.0, data));
    }
    delivered.sort_by_key(|(id, _, _)| *id);

    Ok(Outcome {
        delivered,
        filtered,
        fcs_drops,
        lookups: ing.stats.lookups + cen.stats.lookups + egr.stats.lookups,
        hits: ing.stats.hits + cen.stats.hits + egr.stats.hits,
        regs: case
            .state_regs
            .iter()
            .map(|r| cen.register(*r).snapshot())
            .collect(),
    })
}

/// Which RMT lowering a run targets (ADCP runs via [`run_adcp`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SwitchTarget {
    RmtPinned,
    RmtRecirc,
}

impl SwitchTarget {
    fn name(&self) -> &'static str {
        match self {
            SwitchTarget::RmtPinned => "rmt-pinned",
            SwitchTarget::RmtRecirc => "rmt-recirc",
        }
    }
}

/// Test-only semantic sabotage, for proving the harness catches bugs: the
/// hook perturbs the *program handed to one target* (product code is never
/// touched), which the differential comparison must then flag and shrink.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BugHook {
    /// No sabotage (the normal mode).
    #[default]
    None,
    /// Swap `RegAluOp::Add` and `RegAluOp::Max` in every register op of the
    /// program given to the ADCP target.
    SwapAddMax,
    /// Silently lose every other drop's forensic record on the ADCP
    /// target while the switch's drop counters keep counting — the
    /// "drops without recording" bug the journey tracer's forensics↔
    /// counter cross-check exists to catch.
    LoseDropForensics,
    /// Shift every ownership boundary by one key in the map the *fabric*
    /// steers by (the merge/leak checks keep the true map) — the classic
    /// off-by-one range-split bug. Only fabric cases can see it; the
    /// register merge and leak checks must flag it.
    MisrouteBoundaryKey,
    /// Make the ADCP target's INT stamps lie about TM queue depth (report
    /// one more than observed) while the journey tracer keeps the truth —
    /// the "telemetry that flatters the datapath" bug the INT honesty
    /// check exists to catch.
    LieIntStamp,
}

fn swap_add_max_ops(ops: &mut [ActionOp]) {
    let flip = |op: &mut RegAluOp| {
        *op = match *op {
            RegAluOp::Add => RegAluOp::Max,
            RegAluOp::Max => RegAluOp::Add,
            other => other,
        }
    };
    for op in ops {
        match op {
            ActionOp::RegRmw { op, .. } | ActionOp::RegArray { op, .. } => flip(op),
            ActionOp::IfEq { then, .. } => swap_add_max_ops(then),
            _ => {}
        }
    }
}

fn apply_bug(mut program: Program, bug: BugHook) -> Program {
    if bug == BugHook::SwapAddMax {
        for t in &mut program.tables {
            for a in &mut t.actions {
                swap_add_max_ops(&mut a.ops);
            }
        }
    }
    program
}

/// Cross-check the journey tracer's forensic drop aggregation against the
/// exported drop counters, through the same exporter/cross-check path the
/// `adcp-trace --forensics` CLI uses. Drop forensics are exact at any
/// sampling rate, so this holds whenever both the tracer and the registry
/// are on; when either is disabled (`ADCP_TRACE=off` / `ADCP_METRICS=off`)
/// there is nothing to check and the run proceeds.
fn forensics_check(name: &str, trace: &serde::Value, metrics: &serde::Value) -> Result<(), String> {
    match crate::journey::forensics(trace, metrics) {
        None => Ok(()),
        Some(f) if f.ok() => Ok(()),
        Some(f) => Err(format!(
            "{name}: drop forensics disagree with the exported counters: {}",
            f.mismatches.join("; ")
        )),
    }
}

/// The INT honesty keystone: every hop chain and queue depth the datapath
/// stamped into a postcard must match the journey tracer's ground truth
/// byte-for-byte, and the collector's deduplicated drain must agree with
/// the datapath's own `int/*` totals.
///
/// The final (longest) stack per packet is split into consecutive
/// per-device segments; each segment must equal — site, enter, exit, and
/// hop context, all compared exactly — that device's non-drop journey for
/// the packet. `journey_of` returns `None` for a device the harness does
/// not know (an error: a stamp is lying about where it came from) and an
/// empty journey when the tracer did not retain the packet (sampled out
/// or ring-evicted — skipped, not failed). Truncated stacks are skipped
/// too: the chain cannot be reconstructed once hops were shed.
fn int_honesty_check(
    name: &str,
    postcards: &[adcp_sim::int::Postcard],
    raw: (u64, u64, u64),
    journey_of: &mut dyn FnMut(u16, u64) -> Option<Vec<adcp_sim::trace::Hop>>,
) -> Result<(), String> {
    use adcp_sim::trace::Site;

    // The collector must account for exactly the postcards the datapath
    // emitted, and can never have seen more stamps or truncations than the
    // datapath recorded (fewer is legal: stamps on packets that were later
    // filtered or dropped never reach a postcard).
    let mut collector = adcp_sim::telemetry::Collector::default();
    for pc in postcards {
        collector.ingest(pc);
    }
    let (c_stamps, c_postcards, c_trunc) = collector.totals();
    let (r_stamps, r_postcards, r_trunc) = raw;
    if c_postcards != r_postcards {
        return Err(format!(
            "{name}: collector drained {c_postcards} postcards but the datapath counted {r_postcards}"
        ));
    }
    if c_stamps > r_stamps || c_trunc > r_trunc {
        return Err(format!(
            "{name}: collector saw {c_stamps} stamps / {c_trunc} truncations, more than the \
             datapath recorded ({r_stamps} / {r_trunc})"
        ));
    }

    // Longest stack per packet = the full end-to-end chain (shorter ones
    // are transit-hop prefixes of it).
    let mut best: std::collections::BTreeMap<u64, &adcp_sim::int::Postcard> = Default::default();
    for pc in postcards {
        let cur = best.entry(pc.pkt).or_insert(pc);
        if pc.stack.stamps.len() > cur.stack.stamps.len() {
            *cur = pc;
        }
    }
    for (pkt, pc) in best {
        if pc.stack.truncated > 0 {
            continue;
        }
        let stamps = &pc.stack.stamps;
        let mut i = 0;
        while i < stamps.len() {
            let device = stamps[i].device;
            let mut j = i;
            while j < stamps.len() && stamps[j].device == device {
                j += 1;
            }
            let seg = &stamps[i..j];
            let Some(journey) = journey_of(device, pkt) else {
                return Err(format!(
                    "{name}: pkt {pkt} carries a stamp from unknown device {device}"
                ));
            };
            let hops: Vec<_> = journey.iter().filter(|h| h.site != Site::Dropped).collect();
            let retained = hops.first().is_some_and(|h| matches!(h.site, Site::Rx(_)));
            if retained {
                if hops.len() != seg.len() {
                    return Err(format!(
                        "{name}: pkt {pkt} device {device}: INT reports {} hops but the \
                         tracer recorded {}",
                        seg.len(),
                        hops.len()
                    ));
                }
                for (s, h) in seg.iter().zip(&hops) {
                    if s.site != h.site || s.enter != h.enter || s.exit != h.exit || s.ctx != h.ctx
                    {
                        return Err(format!(
                            "{name}: pkt {pkt} device {device}: INT stamp at {} \
                             (enter={}, exit={}, ctx={:?}) != tracer hop at {} \
                             (enter={}, exit={}, ctx={:?})",
                            s.site, s.enter.0, s.exit.0, s.ctx, h.site, h.enter.0, h.exit.0, h.ctx
                        ));
                    }
                }
            }
            i = j;
        }
    }
    Ok(())
}

/// The tail both single-switch runners share, read from the switch's
/// [`Shell`]: drain deliveries and postcards, run the forensics and INT
/// honesty lanes, and hold the run to the workload's invariants.
fn finish_outcome(name: &str, sw: &mut Shell, regs: Vec<Vec<u64>>) -> Result<Outcome, String> {
    let postcards = sw.take_postcards();
    let delivered_raw = sw.take_delivered();
    let c = &sw.counters;
    // The drop classes forensics reads are all the shell's: no target tail.
    forensics_check(name, &sw.trace_json(), &sw.metrics_json(&[], &[]))?;
    if sw.int_knob().on() {
        let device = sw.device();
        int_honesty_check(name, &postcards, sw.int_totals(), &mut |d, pkt| {
            (d == device).then(|| sw.tracer.journey_of(pkt))
        })?;
    }
    if c.parse_errors != 0 {
        return Err(format!(
            "{name}: {} unexpected parse errors",
            c.parse_errors
        ));
    }
    if c.no_decision != 0 || c.bad_port != 0 {
        return Err(format!(
            "{name}: forwarding fell through (no_decision={}, bad_port={})",
            c.no_decision, c.bad_port
        ));
    }
    let tm_drops = c.tm[0].total() + c.tm[1].total();
    if tm_drops != 0 {
        return Err(format!("{name}: {tm_drops} unexpected TM/queue drops"));
    }
    if c.mcast_copies != 0 {
        return Err(format!(
            "{name}: {} unexpected multicast copies",
            c.mcast_copies
        ));
    }
    // Conservation: with no in-flight packets after run_until_idle, every
    // injected packet is either delivered or in a counted drop class.
    let total_drops = c.total_drops();
    if c.injected != c.delivered + total_drops {
        return Err(format!(
            "{name}: conservation violated: injected={} != delivered={} + drops={total_drops}",
            c.injected, c.delivered
        ));
    }
    let mut delivered = Vec::with_capacity(delivered_raw.len());
    for d in delivered_raw {
        let (id, port) = (d.meta.id, d.port.0);
        let bytes = d.data.to_vec();
        let pkt = Packet {
            data: d.data,
            meta: d.meta,
        };
        if !pkt.fcs_ok() {
            return Err(format!("{name}: delivered packet {id} was not re-sealed"));
        }
        delivered.push((id, port, bytes));
    }
    delivered.sort_by_key(|(id, _, _)| *id);
    if delivered.len() as u64 != c.delivered {
        return Err(format!("{name}: delivered count disagrees with counter"));
    }
    Ok(Outcome {
        delivered,
        filtered: c.filtered,
        fcs_drops: c.fcs_drops,
        lookups: c.mat_lookups,
        hits: c.mat_hits,
        regs,
    })
}

/// Partition-map plan for a migrate-mode ADCP run: the map traffic starts
/// under, plus (optionally) a mid-workload migration step.
struct MigratePlan<'a> {
    /// Map installed (while idle) before any traffic.
    initial: &'a PartitionMap,
    /// `(target map, strategy, begin time)`; `None` = never migrate.
    step: Option<(&'a PartitionMap, MigrationStrategy, SimTime)>,
}

/// Run the case on the ADCP switch model. With a [`MigratePlan`] the run
/// exercises the §3.1 control plane: traffic starts under `plan.initial`
/// and (with a step) is live-repartitioned mid-workload; the final register
/// state is then the per-cell merge across pipes, checked against the
/// single-owner placement the final map dictates.
fn run_adcp(
    case: &GenCase,
    prepared: &[PreparedPacket],
    bug: BugHook,
    plan: Option<&MigratePlan<'_>>,
) -> Result<Outcome, CaseError> {
    let target = TargetModel::adcp_reference();
    let central_pipes = target.central_pipes as usize;
    let mut sw = AdcpSwitch::new(
        apply_bug(case.program.clone(), bug),
        target,
        CompileOptions::default(),
        AdcpConfig {
            // Journey tracing on (sample=1 unless ADCP_TRACE overrides):
            // every run doubles as a forensics↔counter cross-check lane.
            trace: true,
            // INT stamping on (unless ADCP_INT overrides): every run also
            // doubles as an INT↔tracer honesty cross-check lane.
            int: true,
            ..Default::default()
        },
    )
    .map_err(|e| CaseError::Skip(format!("adcp compile: {e:?}")))?;
    if bug == BugHook::LoseDropForensics {
        sw.tracer.set_drop_forensics_loss(true);
    }
    if bug == BugHook::LieIntStamp {
        sw.set_int_lie_queue_depth(true);
    }
    for (name, entry) in &case.installs {
        sw.install_all(name, entry.clone())
            .map_err(|e| CaseError::Mismatch(format!("adcp install into {name}: {e:?}")))?;
    }
    if let Some(p) = plan {
        sw.install_partition_map(p.initial.clone())
            .map_err(|e| CaseError::Mismatch(format!("adcp: partition map install: {e}")))?;
    }
    for p in prepared {
        if !p.link_dropped {
            sw.inject(PortId(p.port), p.pkt.clone(), p.at);
        }
    }
    if let Some((next, strategy, at)) = plan.and_then(|p| p.step) {
        sw.run_until(at);
        sw.begin_migration(next.clone(), strategy)
            .map_err(|e| CaseError::Mismatch(format!("adcp: begin_migration: {e}")))?;
    }
    sw.run_until_idle();
    if sw.migration_active() {
        sw.finalize_migration()
            .map_err(|e| CaseError::Mismatch(format!("adcp: finalize_migration: {e}")))?;
    }
    sw.check_conservation();

    let regs = match plan {
        None => {
            // All state must live on central pipe 0 (the route table pins it).
            for pipe in 1..central_pipes {
                for reg in &case.state_regs {
                    if sw
                        .central_register(pipe, *reg)
                        .unwrap()
                        .snapshot()
                        .iter()
                        .any(|c| *c != 0)
                    {
                        return Err(CaseError::Mismatch(format!(
                            "adcp: register {reg:?} leaked onto central pipe {pipe}"
                        )));
                    }
                }
            }
            case.state_regs
                .iter()
                .map(|r| sw.central_register(0, *r).unwrap().snapshot())
                .collect()
        }
        Some(p) => {
            // Partitioned run: every nonzero cell must sit on the pipe the
            // *final* map owns it to (a migration that leaves state behind
            // fails here), and the comparison value is the per-cell merge.
            let final_map = p.step.map(|(next, _, _)| next).unwrap_or(p.initial);
            let stats = sw.migration_stats();
            if stats.misroutes != 0 {
                return Err(CaseError::Mismatch(format!(
                    "adcp: {} packets dequeued at a stale-epoch pipe",
                    stats.misroutes
                )));
            }
            let want_migrations = u64::from(p.step.is_some());
            if stats.migrations != want_migrations {
                return Err(CaseError::Mismatch(format!(
                    "adcp: {} migrations completed, expected {want_migrations}",
                    stats.migrations
                )));
            }
            let mut merged = Vec::with_capacity(case.state_regs.len());
            for reg in &case.state_regs {
                let mut cells = vec![0u64; REG_CELLS as usize];
                for pipe in 0..central_pipes {
                    let snap = sw.central_register(pipe, *reg).unwrap().snapshot();
                    for (cell, v) in snap.iter().enumerate() {
                        if *v != 0 && final_map.owner(cell as u64) != pipe as u32 {
                            return Err(CaseError::Mismatch(format!(
                                "adcp: register {reg:?} cell {cell} ended on pipe {pipe}, \
                                 but the final map owns it to pipe {}",
                                final_map.owner(cell as u64)
                            )));
                        }
                        cells[cell] += *v;
                    }
                }
                merged.push(cells);
            }
            merged
        }
    };
    finish_outcome("adcp", &mut sw, regs).map_err(CaseError::Mismatch)
}

/// Run the case on the RMT switch model with the given central strategy.
fn run_rmt(
    case: &GenCase,
    prepared: &[PreparedPacket],
    which: SwitchTarget,
) -> Result<Outcome, CaseError> {
    let name = which.name();
    let (program, strategy) = match which {
        SwitchTarget::RmtPinned => (&case.program, RmtCentralStrategy::EgressPin),
        SwitchTarget::RmtRecirc => (&case.program_recirc, RmtCentralStrategy::Recirculate),
    };
    let target = TargetModel::rmt_12t();
    let pipes = (target.ports / target.ports_per_pipe) as usize;
    let mut sw = RmtSwitch::new(
        program.clone(),
        target,
        CompileOptions {
            rmt_central: strategy,
        },
        RmtConfig {
            // Same forensics + INT honesty lanes as `run_adcp`.
            trace: true,
            int: true,
            ..Default::default()
        },
    )
    .map_err(|e| CaseError::Skip(format!("{name} compile: {e:?}")))?;
    for (tname, entry) in &case.installs {
        sw.install_all(tname, entry.clone())
            .map_err(|e| CaseError::Mismatch(format!("{name} install into {tname}: {e:?}")))?;
    }
    for p in prepared {
        if !p.link_dropped {
            sw.inject(PortId(p.port), p.pkt.clone(), p.at);
        }
    }
    sw.run_until_idle();
    sw.check_conservation();

    // The workload only uses ports in pipe 0 and routes to port 0, so
    // central state — egress-pinned or recirculated — must stay on pipe 0.
    for pipe in 1..pipes {
        for reg in &case.state_regs {
            if sw
                .central_register(pipe, *reg)
                .snapshot()
                .iter()
                .any(|c| *c != 0)
            {
                return Err(CaseError::Mismatch(format!(
                    "{name}: register {reg:?} leaked onto pipe {pipe}"
                )));
            }
        }
    }
    let regs = case
        .state_regs
        .iter()
        .map(|r| sw.central_register(0, *r).snapshot())
        .collect();
    finish_outcome(name, &mut sw, regs).map_err(CaseError::Mismatch)
}

/// Seeded per-key load profile → leaf ownership for a fabric case, through
/// the same LPT planner the §3.1 control plane uses: key ranges split
/// unevenly but deterministically per seed.
fn fabric_owners(seed: u64) -> Vec<u32> {
    let mut rng = SimRng::seed_from(seed ^ 0xFAB5_EED5);
    let loads: Vec<u64> = (0..REG_CELLS).map(|_| rng.range(1u64..100)).collect();
    plan_owners(REG_CELLS as u64, FABRIC_LEAVES, &loads)
}

/// The `MisrouteBoundaryKey` sabotage: every key whose owner differs from
/// its predecessor's keeps the predecessor's owner instead — the range
/// split's off-by-one, applied at every boundary. Falls back to flipping
/// key 0 on a single-owner map.
fn misrouted(owners: &[u32]) -> Vec<u32> {
    let mut bad = owners.to_vec();
    let mut moved = false;
    for i in 1..bad.len() {
        if owners[i] != owners[i - 1] {
            bad[i] = owners[i - 1];
            moved = true;
        }
    }
    if !moved {
        bad[0] = (bad[0] + 1) % FABRIC_LEAVES;
    }
    bad
}

/// Run the case on the leaf–spine fabric: the one logical program is split
/// across [`FABRIC_LEAVES`] leaves by key range on `idx` (spines forward
/// between them), the workload enters at the leaf owning each logical host
/// port, and the outcome is assembled fabric-wide — delivered host frames,
/// summed filtered/FCS counts, and the per-cell register merge across the
/// owner leaves. Under [`BugHook::MisrouteBoundaryKey`] the fabric *steers*
/// by a perturbed ownership map while the merge and leak checks keep the
/// true one, so the sabotage must surface as a register mismatch or leak.
fn run_fabric(
    case: &GenCase,
    prepared: &[PreparedPacket],
    spec: &CaseSpec,
    bug: BugHook,
) -> Result<Outcome, CaseError> {
    let fr = |i: u16| FieldRef::new(HeaderId(0), FieldId(i));
    let owners = fabric_owners(spec.seed);
    let steer_owners = if bug == BugHook::MisrouteBoundaryKey {
        misrouted(&owners)
    } else {
        owners.clone()
    };
    let fspec = FabricSpec {
        n_leaves: FABRIC_LEAVES,
        n_spines: FABRIC_SPINES,
        hosts_per_leaf: FABRIC_HOSTS_PER_LEAF,
        phase_field: fr(5),
        gk_field: fr(6),
        steer_field: fr(2),
        key_space: REG_CELLS as u64,
        owners: steer_owners,
        delivery_port: 0,
    };
    let program = apply_bug(case.program.clone(), bug);
    let fabric_cfg = FabricConfig {
        // Same forensics + INT honesty lanes as the single-switch targets,
        // on every device: the stamp stack rides the links, so the fabric
        // case is where multi-device chains get checked.
        switch: AdcpConfig {
            trace: true,
            int: true,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut fabric = Fabric::new(&program, fspec, fabric_cfg).map_err(|e| match e {
        // A placement rejection means the fabric-mode generator constraints
        // slipped — a harness bug, not a skip.
        FabricError::Place(p) => CaseError::Mismatch(format!("fabric: placement rejected: {p:?}")),
        FabricError::Compile(c) => CaseError::Skip(format!("fabric compile: {c:?}")),
        FabricError::Install {
            device,
            table,
            error,
        } => CaseError::Mismatch(format!("fabric: install of {table} on {device}: {error:?}")),
    })?;
    for (name, entry) in &case.installs {
        fabric
            .install_all(name, entry.clone())
            .map_err(|e| CaseError::Mismatch(format!("fabric install into {name}: {e:?}")))?;
    }
    for p in prepared {
        if !p.link_dropped {
            fabric.inject(p.port as u32, p.pkt.clone(), p.at);
        }
    }
    fabric.run_until_idle();
    fabric.check_conservation();

    // Per-device sanity, plus the fabric-wide sums the comparison uses.
    let (mut filtered, mut fcs_drops, mut lookups, mut hits, mut total_drops) = (0, 0, 0, 0, 0);
    let n_leaves = fabric.n_leaves();
    for i in 0..n_leaves + fabric.n_spines() {
        let (name, sw) = if i < n_leaves {
            (format!("leaf{i}"), fabric.leaf(i))
        } else {
            (format!("spine{}", i - n_leaves), fabric.spine(i - n_leaves))
        };
        let c = &sw.counters;
        if c.parse_errors != 0 {
            return Err(CaseError::Mismatch(format!(
                "fabric {name}: {} unexpected parse errors",
                c.parse_errors
            )));
        }
        if c.no_decision != 0 || c.bad_port != 0 {
            return Err(CaseError::Mismatch(format!(
                "fabric {name}: forwarding fell through (no_decision={}, bad_port={})",
                c.no_decision, c.bad_port
            )));
        }
        if c.tm[0].total() + c.tm[1].total() != 0 {
            return Err(CaseError::Mismatch(format!(
                "fabric {name}: unexpected TM/queue drops"
            )));
        }
        if c.mcast_copies != 0 {
            return Err(CaseError::Mismatch(format!(
                "fabric {name}: {} unexpected multicast copies",
                c.mcast_copies
            )));
        }
        filtered += c.filtered;
        fcs_drops += c.fcs_drops;
        lookups += c.mat_lookups;
        hits += c.mat_hits;
        total_drops += c.total_drops();
    }
    // INT honesty, fabric-wide: postcards from every device's TX, hop
    // chains split per device and compared against that device's tracer.
    if fabric.leaf(0).int_knob().on() {
        let postcards = fabric.drain_postcards();
        let n_spines = fabric.n_spines();
        int_honesty_check("fabric", &postcards, fabric.int_totals(), &mut |d, pkt| {
            let d = d as usize;
            if d < n_leaves {
                Some(fabric.leaf(d).tracer.journey_of(pkt))
            } else if d < n_leaves + n_spines {
                Some(fabric.spine(d - n_leaves).tracer.journey_of(pkt))
            } else {
                None
            }
        })
        .map_err(CaseError::Mismatch)?;
    }
    // Host-level conservation: every transit crossing adds one delivery on
    // the sender and one injection on the receiver, so the per-hop terms
    // cancel and the host-port identity holds fabric-wide.
    if fabric.host_injected() != fabric.host_delivered() + total_drops {
        return Err(CaseError::Mismatch(format!(
            "fabric: conservation violated: host_injected={} != host_delivered={} + drops={}",
            fabric.host_injected(),
            fabric.host_delivered(),
            total_drops
        )));
    }

    // Register state: no cell may hold a nonzero value on a non-owner leaf
    // (by the *true* map), and the comparison value is the per-cell merge
    // read from each cell's true owner.
    for reg in &case.state_regs {
        if let Some((leaf, cell, v)) = fabric
            .register_leaks_with(&owners, *reg, REG_CELLS as usize)
            .first()
        {
            return Err(CaseError::Mismatch(format!(
                "fabric: register {reg:?} cell {cell} has value {v} on non-owner leaf{leaf}"
            )));
        }
    }
    let regs = case
        .state_regs
        .iter()
        .map(|r| fabric.merged_register_with(&owners, *r, REG_CELLS as usize))
        .collect();

    let mut delivered = Vec::new();
    for d in fabric.take_delivered() {
        let pkt = Packet {
            data: d.data.clone(),
            meta: d.meta.clone(),
        };
        if !pkt.fcs_ok() {
            return Err(CaseError::Mismatch(format!(
                "fabric: delivered packet {} was not re-sealed",
                d.meta.id
            )));
        }
        delivered.push((d.meta.id, d.port.0, d.data.to_vec()));
    }
    delivered.sort_by_key(|(id, _, _)| *id);
    if delivered.len() as u64 != fabric.host_delivered() {
        return Err(CaseError::Mismatch(
            "fabric: delivered count disagrees with counter".into(),
        ));
    }
    Ok(Outcome {
        delivered,
        filtered,
        fcs_drops,
        lookups,
        hits,
        regs,
    })
}

/// Diff two outcomes; `Err` pinpoints the first disagreement. `check_mat`
/// is off for the fabric target: transit hops perform extra (inert) table
/// lookups on every device, so lookup/hit counts legitimately differ from
/// the one-big-switch targets.
fn compare(name: &str, reference: &Outcome, got: &Outcome, check_mat: bool) -> Result<(), String> {
    if got.filtered != reference.filtered {
        return Err(format!(
            "{name}: filtered {} != reference {}",
            got.filtered, reference.filtered
        ));
    }
    if got.fcs_drops != reference.fcs_drops {
        return Err(format!(
            "{name}: fcs_drops {} != reference {}",
            got.fcs_drops, reference.fcs_drops
        ));
    }
    if check_mat && (got.lookups != reference.lookups || got.hits != reference.hits) {
        return Err(format!(
            "{name}: mat lookups/hits {}/{} != reference {}/{}",
            got.lookups, got.hits, reference.lookups, reference.hits
        ));
    }
    if got.delivered.len() != reference.delivered.len() {
        return Err(format!(
            "{name}: delivered {} packets != reference {}",
            got.delivered.len(),
            reference.delivered.len()
        ));
    }
    for ((gid, gport, gdata), (rid, rport, rdata)) in
        got.delivered.iter().zip(reference.delivered.iter())
    {
        if gid != rid || gport != rport {
            return Err(format!(
                "{name}: delivered (id={gid}, port={gport}) != reference (id={rid}, port={rport})"
            ));
        }
        if gdata != rdata {
            return Err(format!("{name}: packet {gid} frame bytes diverge"));
        }
    }
    for (i, (g, r)) in got.regs.iter().zip(reference.regs.iter()).enumerate() {
        if g != r {
            let cell = g.iter().zip(r.iter()).position(|(a, b)| a != b);
            return Err(format!(
                "{name}: register {i} diverges at cell {cell:?} (got {:?}, want {:?})",
                cell.map(|c| g[c]),
                cell.map(|c| r[c]),
            ));
        }
    }
    Ok(())
}

/// Run one spec end to end: generate, execute on all four targets, compare,
/// and (under faults) check the degradation invariants.
pub fn run_spec(spec: &CaseSpec, bug: BugHook) -> Result<(), CaseError> {
    run_spec_seen(spec, bug).map(drop)
}

/// What each leg made of a case, the reference first: the outcome it
/// observed, or the target's own reason for rejecting the case.
type Seen = Vec<(String, Result<Outcome, String>)>;

/// [`run_spec`], keeping what every leg observed for [`pin_text`].
fn run_spec_seen(spec: &CaseSpec, bug: BugHook) -> Result<Seen, CaseError> {
    let mut seen = Seen::new();
    if spec.fabric && spec.migrate.is_some() {
        return Err(CaseError::Skip(
            "fabric and migrate modes are mutually exclusive".into(),
        ));
    }
    let case = gen_case(spec);
    let errs = case.program.validate();
    if !errs.is_empty() {
        return Err(CaseError::Skip(format!(
            "generated invalid program: {errs:?}"
        )));
    }
    let prepared = prepare_workload(&case, spec);
    let total = prepared.len() as u64;
    let link_dropped = prepared.iter().filter(|p| p.link_dropped).count() as u64;
    let corrupted = prepared.iter().filter(|p| p.corrupted).count() as u64;

    let reference = run_reference(&case, &prepared).map_err(CaseError::Mismatch)?;

    // Degradation invariants (trivially true in the clean phase): every
    // packet is accounted to exactly one fate, and corrupted frames are all
    // rejected by the frame check.
    if reference.fcs_drops != corrupted {
        return Err(CaseError::Mismatch(format!(
            "reference: fcs_drops {} != corrupted {corrupted}",
            reference.fcs_drops
        )));
    }
    if total != link_dropped + corrupted + reference.filtered + reference.delivered.len() as u64 {
        return Err(CaseError::Mismatch(format!(
            "accounting leak: {total} packets != {link_dropped} link-dropped + {corrupted} \
             corrupted + {} filtered + {} delivered",
            reference.filtered,
            reference.delivered.len()
        )));
    }

    if let Some(mk) = spec.migrate {
        // Migrate mode: the partitioned ADCP switch must reproduce the
        // reference with no migration, and again with a seeded mid-workload
        // owner reassignment under every requested strategy. RMT targets
        // are skipped — they have no global partitioned area to migrate.
        let n_pipes = u32::from(TargetModel::adcp_reference().central_pipes);
        let initial = PartitionMap::uniform(REG_CELLS, n_pipes);
        let next = perturb_owners(&initial, spec.seed, n_pipes);
        let at = SimTime::from_ns(((total + 1) * GAP_NS * mk.at_pm as u64 / 1000).max(1));
        let base = run_adcp(
            &case,
            &prepared,
            bug,
            Some(&MigratePlan {
                initial: &initial,
                step: None,
            }),
        )?;
        compare("adcp-partitioned", &reference, &base, true).map_err(CaseError::Mismatch)?;
        seen.push(("adcp-partitioned".into(), Ok(base)));
        for strategy in strategies(mk.strategy_sel) {
            let plan = MigratePlan {
                initial: &initial,
                step: Some((&next, strategy, at)),
            };
            let got = run_adcp(&case, &prepared, bug, Some(&plan))?;
            compare(
                &format!("adcp-migrate-{strategy:?}"),
                &reference,
                &got,
                true,
            )
            .map_err(CaseError::Mismatch)?;
            seen.push((format!("adcp-migrate-{strategy:?}"), Ok(got)));
        }
        seen.insert(0, ("reference".into(), Ok(reference)));
        return Ok(seen);
    }

    if spec.fabric {
        // Fabric mode: the partitioned route spreads state across central
        // pipes, so the single-big-switch ADCP run carries a uniform
        // partition map (never migrated); the fabric must then agree with
        // the same reference — minus the MAT counters that transit hops
        // inflate by design. RMT targets are skipped (no partitioned area
        // to split, and the scratch fields are meaningless to them).
        let n_pipes = u32::from(TargetModel::adcp_reference().central_pipes);
        let initial = PartitionMap::uniform(REG_CELLS, n_pipes);
        let single = run_adcp(
            &case,
            &prepared,
            bug,
            Some(&MigratePlan {
                initial: &initial,
                step: None,
            }),
        )?;
        compare("adcp-partitioned", &reference, &single, true).map_err(CaseError::Mismatch)?;
        seen.push(("adcp-partitioned".into(), Ok(single)));
        let fab = run_fabric(&case, &prepared, spec, bug)?;
        compare("fabric", &reference, &fab, false).map_err(CaseError::Mismatch)?;
        seen.push(("fabric".into(), Ok(fab)));
        seen.insert(0, ("reference".into(), Ok(reference)));
        return Ok(seen);
    }

    let adcp = run_adcp(&case, &prepared, bug, None)?;
    compare("adcp", &reference, &adcp, true).map_err(CaseError::Mismatch)?;
    seen.push(("adcp".into(), Ok(adcp)));
    if case.has_array_actions {
        // §3.2 separation: scalar MAUs must refuse array action ops.
        let [pinned, recirc] = assert_rmt_rejects(&case)?;
        seen.push(("rmt-pinned".into(), Err(pinned)));
        seen.push(("rmt-recirc".into(), Err(recirc)));
    } else {
        let pinned = run_rmt(&case, &prepared, SwitchTarget::RmtPinned)?;
        compare("rmt-pinned", &reference, &pinned, true).map_err(CaseError::Mismatch)?;
        seen.push(("rmt-pinned".into(), Ok(pinned)));
        let recirc = run_rmt(&case, &prepared, SwitchTarget::RmtRecirc)?;
        compare("rmt-recirc", &reference, &recirc, true).map_err(CaseError::Mismatch)?;
        seen.push(("rmt-recirc".into(), Ok(recirc)));
    }
    seen.insert(0, ("reference".into(), Ok(reference)));
    Ok(seen)
}

/// Everything every leg of `spec` observed, as text: per leg its whole
/// outcome (delivered frames, counts, register snapshots) or the reason the
/// target gave for rejecting the case, or else why the case gave no
/// verdict. Exists for `tests/conformance_pin.rs`, which holds a refactor
/// of this module to the same verdicts and bytes.
#[doc(hidden)]
pub fn pin_text(spec: &CaseSpec) -> String {
    format!("{:?}", run_spec_seen(spec, BugHook::None))
}

/// The strategies a `strategy_sel` knob requests (2 = both).
fn strategies(sel: u32) -> Vec<MigrationStrategy> {
    match sel {
        0 => vec![MigrationStrategy::Drain],
        1 => vec![MigrationStrategy::Incremental],
        _ => vec![MigrationStrategy::Drain, MigrationStrategy::Incremental],
    }
}

/// A seeded owner perturbation of `map`, guaranteed to move at least one
/// bucket: the migration target for migrate-mode cases.
fn perturb_owners(map: &PartitionMap, seed: u64, n_pipes: u32) -> PartitionMap {
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

/// An array-action program must fail RMT compilation under *both* central
/// strategies; RMT silently accepting one is itself a conformance bug.
/// Returns the two rejections in the compiler's words.
fn assert_rmt_rejects(case: &GenCase) -> Result<[String; 2], CaseError> {
    let mut reasons = [String::new(), String::new()];
    for (i, (program, strategy)) in [
        (&case.program, RmtCentralStrategy::EgressPin),
        (&case.program_recirc, RmtCentralStrategy::Recirculate),
    ]
    .into_iter()
    .enumerate()
    {
        match RmtSwitch::new(
            program.clone(),
            TargetModel::rmt_12t(),
            CompileOptions {
                rmt_central: strategy,
            },
            RmtConfig::default(),
        ) {
            Err(e) => reasons[i] = format!("{e:?}"),
            Ok(_) => {
                return Err(CaseError::Mismatch(format!(
                    "rmt ({strategy:?}) compiled an array-action program it must reject (§3.2)"
                )))
            }
        }
    }
    Ok(reasons)
}

// ---------------------------------------------------------------------------
// Shrinking + artifacts
// ---------------------------------------------------------------------------

/// Shrink a failing spec: greedily try smaller caps (and dropping the fault
/// schedule), keeping any reduction that still fails. Returns the minimal
/// spec found and its failure message.
pub fn shrink(spec: &CaseSpec, bug: BugHook, original_error: String) -> (CaseSpec, String) {
    let mut cur = *spec;
    let mut err = original_error;
    for _ in 0..64 {
        let mut candidates: Vec<CaseSpec> = Vec::new();
        if cur.fault.is_some() {
            candidates.push(CaseSpec { fault: None, ..cur });
        }
        if let Some(mk) = cur.migrate {
            // A migrate failure may not need the migration at all; if it
            // does, one strategy is a smaller witness than both.
            candidates.push(CaseSpec {
                migrate: None,
                ..cur
            });
            if mk.strategy_sel >= 2 {
                for sel in [0u32, 1] {
                    candidates.push(CaseSpec {
                        migrate: Some(MigrateKnobs {
                            strategy_sel: sel,
                            ..mk
                        }),
                        ..cur
                    });
                }
            }
        }
        if cur.max_packets > 1 {
            candidates.push(CaseSpec {
                max_packets: cur.max_packets / 2,
                ..cur
            });
            candidates.push(CaseSpec {
                max_packets: cur.max_packets - 1,
                ..cur
            });
        }
        if cur.max_entries > 0 {
            candidates.push(CaseSpec {
                max_entries: cur.max_entries / 2,
                ..cur
            });
        }
        if cur.max_tables > 1 {
            candidates.push(CaseSpec {
                max_tables: cur.max_tables - 1,
                ..cur
            });
        }
        if cur.max_array > 1 {
            candidates.push(CaseSpec {
                max_array: cur.max_array / 2,
                ..cur
            });
        }
        let mut improved = false;
        for cand in candidates {
            if let Err(CaseError::Mismatch(e)) = run_spec(&cand, bug) {
                cur = cand;
                err = e;
                improved = true;
                break;
            }
        }
        if !improved {
            break;
        }
    }
    (cur, err)
}

fn spec_to_value(spec: &CaseSpec) -> serde_json::Value {
    serde_json::to_value(spec).expect("specs serialize")
}

/// Parse a spec back from artifact JSON (the `--replay` path).
pub fn spec_from_value(v: &serde_json::Value) -> Result<CaseSpec, String> {
    let field = |k: &str| {
        v.get(k)
            .and_then(|x| x.as_u64())
            .ok_or_else(|| format!("artifact spec missing field {k}"))
    };
    let fault = match v.get("fault") {
        None | Some(serde_json::Value::Null) => None,
        Some(f) => {
            let sub = |k: &str| {
                f.get(k)
                    .and_then(|x| x.as_u64())
                    .ok_or_else(|| format!("artifact fault missing field {k}"))
            };
            Some(FaultKnobs {
                drop_pm: sub("drop_pm")? as u32,
                corrupt_pm: sub("corrupt_pm")? as u32,
                delay_pm: sub("delay_pm")? as u32,
            })
        }
    };
    let migrate = match v.get("migrate") {
        None | Some(serde_json::Value::Null) => None,
        Some(m) => {
            let sub = |k: &str| {
                m.get(k)
                    .and_then(|x| x.as_u64())
                    .ok_or_else(|| format!("artifact migrate missing field {k}"))
            };
            Some(MigrateKnobs {
                strategy_sel: sub("strategy_sel")? as u32,
                at_pm: sub("at_pm")? as u32,
            })
        }
    };
    Ok(CaseSpec {
        seed: field("seed")?,
        max_packets: field("max_packets")? as u32,
        max_entries: field("max_entries")? as u32,
        max_array: field("max_array")? as u16,
        max_tables: field("max_tables")? as u32,
        fault,
        migrate,
        // Absent in pre-fabric artifacts: default to the one-switch mode.
        fabric: v.get("fabric").and_then(|x| x.as_bool()).unwrap_or(false),
    })
}

/// Write the replayable failure artifact; returns its file name.
fn write_artifact(
    dir: &Path,
    original: &CaseSpec,
    shrunk: &CaseSpec,
    error: &str,
) -> std::io::Result<String> {
    std::fs::create_dir_all(dir)?;
    let mut doc = serde_json::Map::new();
    doc.insert("version".into(), serde_json::Value::U64(1));
    doc.insert("error".into(), serde_json::Value::String(error.to_string()));
    doc.insert("spec".into(), spec_to_value(shrunk));
    doc.insert("original".into(), spec_to_value(original));
    let name = format!("CONFORMANCE_FAIL_{:016x}.json", original.seed);
    let text =
        serde_json::to_string_pretty(&serde_json::Value::Object(doc)).expect("artifact encodes");
    std::fs::write(dir.join(&name), text + "\n")?;
    Ok(name)
}

/// Reload a failure artifact and re-run its shrunk spec.
pub fn replay(path: &Path, bug: BugHook) -> Result<(), CaseError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CaseError::Skip(format!("cannot read {}: {e}", path.display())))?;
    let doc = serde_json::from_str(&text)
        .map_err(|e| CaseError::Skip(format!("cannot parse {}: {e}", path.display())))?;
    let spec = doc
        .get("spec")
        .ok_or_else(|| CaseError::Skip("artifact has no spec".into()))
        .and_then(|s| spec_from_value(s).map_err(CaseError::Skip))?;
    run_spec(&spec, bug)
}

// ---------------------------------------------------------------------------
// Harness driver
// ---------------------------------------------------------------------------

/// Harness configuration (one run = one [`Report`]).
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Master seed; case `i` derives its own seed from it.
    pub master_seed: u64,
    /// Number of generated cases.
    pub cases: u32,
    /// Smaller caps per case (CI-friendly).
    pub quick: bool,
    /// Test-only sabotage hook (see [`BugHook`]).
    pub bug: BugHook,
    /// Soak the §3.1 control plane: every case runs partitioned, with a
    /// seeded mid-workload repartitioning under both strategies.
    pub migrate: bool,
    /// Soak the leaf–spine fabric: every case also runs split across a
    /// 2-spine × 4-leaf fabric and must agree with the one-big-switch
    /// reference. Mutually exclusive with `migrate` (fabric wins).
    pub fabric: bool,
    /// Where failure artifacts are written.
    pub out_dir: PathBuf,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            master_seed: 0xC04F_0041,
            cases: 1000,
            quick: false,
            bug: BugHook::None,
            migrate: false,
            fabric: false,
            out_dir: PathBuf::from("."),
        }
    }
}

/// One recorded failure (post-shrink).
#[derive(Debug, Clone, Serialize)]
pub struct FailureRecord {
    /// Which case failed.
    pub case_index: u32,
    /// Its derived seed.
    pub seed: u64,
    /// `"clean"` or `"fault"`.
    pub phase: String,
    /// The (post-shrink) mismatch message.
    pub error: String,
    /// The shrunk spec that still reproduces.
    pub shrunk: CaseSpec,
    /// Artifact file name inside the output directory.
    pub artifact: String,
}

/// Aggregate result of a harness run. Contains no timestamps or paths, so
/// the same seed and configuration serialize byte-identically.
#[derive(Debug, Clone, Serialize)]
pub struct Report {
    /// The master seed the run derived everything from.
    pub master_seed: u64,
    /// Cases attempted.
    pub cases: u32,
    /// Cases that passed both the clean and the fault phase.
    pub passed: u64,
    /// Cases with at least one mismatch.
    pub failed: u64,
    /// Cases skipped because a draw did not compile on some target.
    pub skipped_compile: u64,
    /// Fault-phase runs executed (passed clean first).
    pub fault_cases: u64,
    /// True when a shutdown signal stopped the run at a case boundary;
    /// `cases` then reflects the cases actually attempted, and the report
    /// is a valid partial result for them.
    pub interrupted: bool,
    /// Every failure, post-shrink.
    pub failures: Vec<FailureRecord>,
}

/// The spec for case `i` of a run. Migrate-mode cases exercise both
/// strategies and stagger the reconfiguration point across the workload
/// (early / midpoint / late).
fn case_spec(cfg: &RunConfig, i: u32) -> CaseSpec {
    CaseSpec {
        seed: cfg
            .master_seed
            .wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        max_packets: if cfg.quick { 10 } else { 20 },
        max_entries: 8,
        max_array: 8,
        max_tables: 3,
        fault: None,
        migrate: (cfg.migrate && !cfg.fabric).then(|| MigrateKnobs {
            strategy_sel: 2,
            at_pm: 250 + (i % 3) * 250,
        }),
        fabric: cfg.fabric,
    }
}

/// Fault knobs for the soak phase (fixed: ~5% drop, ~5% corrupt, ~10%
/// delay — enough to exercise every outcome on every case).
fn soak_knobs() -> FaultKnobs {
    FaultKnobs {
        drop_pm: 50,
        corrupt_pm: 50,
        delay_pm: 100,
    }
}

/// Run the harness: `cfg.cases` generated cases, each executed clean and
/// (if clean passes) again under the fault schedule; failures are shrunk
/// and written as replayable artifacts.
pub fn run(cfg: &RunConfig) -> Report {
    let mut report = Report {
        master_seed: cfg.master_seed,
        cases: cfg.cases,
        passed: 0,
        failed: 0,
        skipped_compile: 0,
        fault_cases: 0,
        interrupted: false,
        failures: Vec::new(),
    };
    for i in 0..cfg.cases {
        // Graceful exit: finish the case in progress, never start another.
        if crate::shutdown::requested() {
            report.interrupted = true;
            report.cases = i;
            break;
        }
        let clean_spec = case_spec(cfg, i);
        let mut phases = vec![("clean", clean_spec)];
        match run_spec(&clean_spec, cfg.bug) {
            Ok(()) => {
                report.fault_cases += 1;
                phases.push((
                    "fault",
                    CaseSpec {
                        fault: Some(soak_knobs()),
                        ..clean_spec
                    },
                ));
                phases.remove(0); // clean already passed
            }
            Err(CaseError::Skip(_)) => {
                report.skipped_compile += 1;
                continue;
            }
            Err(CaseError::Mismatch(_)) => {
                // fall through: the clean phase below re-runs and records it
            }
        }
        let mut case_failed = false;
        for (phase, spec) in phases {
            match run_spec(&spec, cfg.bug) {
                Ok(()) => {}
                Err(CaseError::Skip(_)) => {
                    report.skipped_compile += 1;
                }
                Err(CaseError::Mismatch(err)) => {
                    case_failed = true;
                    let (shrunk, final_err) = shrink(&spec, cfg.bug, err);
                    let artifact = write_artifact(&cfg.out_dir, &spec, &shrunk, &final_err)
                        .unwrap_or_else(|e| format!("<artifact write failed: {e}>"));
                    report.failures.push(FailureRecord {
                        case_index: i,
                        seed: spec.seed,
                        phase: phase.to_string(),
                        error: final_err,
                        shrunk,
                        artifact,
                    });
                }
            }
        }
        if case_failed {
            report.failed += 1;
        } else {
            report.passed += 1;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg(seed: u64, cases: u32, bug: BugHook) -> RunConfig {
        RunConfig {
            master_seed: seed,
            cases,
            quick: true,
            bug,
            migrate: false,
            fabric: false,
            out_dir: std::env::temp_dir().join("conformance-unit"),
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = case_spec(&tiny_cfg(42, 1, BugHook::None), 0);
        let a = gen_case(&spec);
        let b = gen_case(&spec);
        assert_eq!(a.packets.len(), b.packets.len());
        for ((pa, ka), (pb, kb)) in a.packets.iter().zip(b.packets.iter()) {
            assert_eq!(pa, pb);
            assert_eq!(&ka.data[..], &kb.data[..]);
        }
        assert_eq!(a.installs.len(), b.installs.len());
        assert_eq!(a.program.tables.len(), b.program.tables.len());
    }

    #[test]
    fn generated_programs_validate() {
        for i in 0..25 {
            let spec = case_spec(&tiny_cfg(7, 25, BugHook::None), i);
            let case = gen_case(&spec);
            assert!(
                case.program.validate().is_empty(),
                "case {i} generated an invalid program"
            );
            assert!(case.program_recirc.validate().is_empty());
        }
    }

    #[test]
    fn a_handful_of_cases_pass() {
        for i in 0..6 {
            let spec = case_spec(&tiny_cfg(0xA11CE, 6, BugHook::None), i);
            if let Err(CaseError::Mismatch(e)) = run_spec(&spec, BugHook::None) {
                panic!("case {i} (seed {:#x}) mismatched: {e}", spec.seed);
            }
            let fault_spec = CaseSpec {
                fault: Some(soak_knobs()),
                ..spec
            };
            if let Err(CaseError::Mismatch(e)) = run_spec(&fault_spec, BugHook::None) {
                panic!(
                    "case {i} (seed {:#x}) fault phase mismatched: {e}",
                    spec.seed
                );
            }
        }
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = CaseSpec {
            seed: 0xDEAD_BEEF_0042,
            max_packets: 20,
            max_entries: 8,
            max_array: 4,
            max_tables: 3,
            fault: Some(soak_knobs()),
            migrate: Some(MigrateKnobs {
                strategy_sel: 2,
                at_pm: 500,
            }),
            fabric: false,
        };
        let text = serde_json::to_string(&spec_to_value(&spec)).unwrap();
        let back = spec_from_value(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, spec);
        let fab = CaseSpec {
            migrate: None,
            fabric: true,
            ..spec
        };
        let text = serde_json::to_string(&spec_to_value(&fab)).unwrap();
        assert_eq!(
            spec_from_value(&serde_json::from_str(&text).unwrap()).unwrap(),
            fab
        );
        let clean = CaseSpec {
            fault: None,
            migrate: None,
            ..spec
        };
        let text = serde_json::to_string(&spec_to_value(&clean)).unwrap();
        assert_eq!(
            spec_from_value(&serde_json::from_str(&text).unwrap()).unwrap(),
            clean
        );
    }

    #[test]
    fn migrate_cases_pass_clean_and_under_faults() {
        let cfg = RunConfig {
            migrate: true,
            ..tiny_cfg(0x716_AB1E, 4, BugHook::None)
        };
        for i in 0..4 {
            let spec = case_spec(&cfg, i);
            assert!(spec.migrate.is_some());
            if let Err(CaseError::Mismatch(e)) = run_spec(&spec, BugHook::None) {
                panic!("migrate case {i} (seed {:#x}) mismatched: {e}", spec.seed);
            }
            let fault_spec = CaseSpec {
                fault: Some(soak_knobs()),
                ..spec
            };
            if let Err(CaseError::Mismatch(e)) = run_spec(&fault_spec, BugHook::None) {
                panic!(
                    "migrate case {i} (seed {:#x}) fault phase mismatched: {e}",
                    spec.seed
                );
            }
        }
    }

    #[test]
    fn fabric_cases_pass_clean_and_under_faults() {
        let cfg = RunConfig {
            fabric: true,
            ..tiny_cfg(0xFAB_C0DE, 4, BugHook::None)
        };
        for i in 0..4 {
            let spec = case_spec(&cfg, i);
            assert!(spec.fabric && spec.migrate.is_none());
            if let Err(CaseError::Mismatch(e)) = run_spec(&spec, BugHook::None) {
                panic!("fabric case {i} (seed {:#x}) mismatched: {e}", spec.seed);
            }
            let fault_spec = CaseSpec {
                fault: Some(soak_knobs()),
                ..spec
            };
            if let Err(CaseError::Mismatch(e)) = run_spec(&fault_spec, BugHook::None) {
                panic!(
                    "fabric case {i} (seed {:#x}) fault phase mismatched: {e}",
                    spec.seed
                );
            }
        }
    }

    #[test]
    fn fabric_mode_catches_misrouted_boundary_keys() {
        // Mis-steering a single boundary key must surface as a register
        // mismatch or a leak onto a non-owner leaf, and the shrinker must
        // keep a fabric spec that still reproduces it. A workload only
        // trips the bug when some packet's `idx` hits the flipped key, so
        // scan a few cases.
        let cfg = RunConfig {
            fabric: true,
            ..tiny_cfg(0xFAB_BAD5EED, 24, BugHook::MisrouteBoundaryKey)
        };
        let mut caught = None;
        for i in 0..24 {
            let spec = case_spec(&cfg, i);
            if let Err(CaseError::Mismatch(e)) = run_spec(&spec, BugHook::MisrouteBoundaryKey) {
                caught = Some((spec, e));
                break;
            }
        }
        let (spec, err) = caught.expect("misrouted boundary key must surface within a few cases");
        assert!(
            err.contains("fabric"),
            "sabotage must be flagged on the fabric target: {err}"
        );
        let (shrunk, final_err) = shrink(&spec, BugHook::MisrouteBoundaryKey, err);
        assert!(shrunk.fabric, "shrinking must preserve the fabric mode");
        assert!(matches!(
            run_spec(&shrunk, BugHook::MisrouteBoundaryKey),
            Err(CaseError::Mismatch(_))
        ));
        assert!(!final_err.is_empty());
        assert!(shrunk.max_packets <= spec.max_packets);
        // The identical spec is clean without the sabotage.
        assert!(!matches!(
            run_spec(&shrunk, BugHook::None),
            Err(CaseError::Mismatch(_))
        ));
    }

    #[test]
    fn migrate_mode_catches_sabotage() {
        // The swapped-ALU bug must still be visible through a migrated run:
        // the register-state comparison flags it and the shrinker keeps a
        // reproducing spec.
        let cfg = RunConfig {
            migrate: true,
            ..tiny_cfg(0xBAD_5EED, 8, BugHook::SwapAddMax)
        };
        let mut caught = None;
        for i in 0..8 {
            let spec = case_spec(&cfg, i);
            if let Err(CaseError::Mismatch(e)) = run_spec(&spec, BugHook::SwapAddMax) {
                caught = Some((spec, e));
                break;
            }
        }
        let (spec, err) = caught.expect("sabotage must surface within a few migrate cases");
        let (shrunk, final_err) = shrink(&spec, BugHook::SwapAddMax, err);
        assert!(matches!(
            run_spec(&shrunk, BugHook::SwapAddMax),
            Err(CaseError::Mismatch(_))
        ));
        assert!(!final_err.is_empty());
        assert!(shrunk.max_packets <= spec.max_packets);
    }

    #[test]
    fn forensics_catches_lost_drop_records() {
        // A target that drops packets without recording them must not pass:
        // arm the forensic-loss sabotage and run under a fault schedule
        // (corrupted frames guarantee drops), expecting the journey
        // tracer's forensics↔counter cross-check to flag the skew. The
        // check is skipped when the registry or tracer is env-disabled, so
        // a hostile environment can only make this test vacuous, not red —
        // guard against that by requiring both to be on.
        let m = adcp_sim::metrics::MetricsRegistry::from_env();
        let t = adcp_sim::trace::JourneyTracer::from_env(true, 8);
        if !m.enabled() || !t.is_enabled() {
            eprintln!("metrics/trace disabled via env; skipping");
            return;
        }
        let cfg = tiny_cfg(0xF04E_51C5, 12, BugHook::LoseDropForensics);
        let mut caught = None;
        for i in 0..12 {
            let spec = CaseSpec {
                fault: Some(soak_knobs()),
                ..case_spec(&cfg, i)
            };
            match run_spec(&spec, BugHook::LoseDropForensics) {
                Err(CaseError::Mismatch(e)) => {
                    caught = Some(e);
                    break;
                }
                _ => continue,
            }
        }
        let err = caught.expect("lost drop forensics must surface within a few fault cases");
        assert!(
            err.contains("drop forensics disagree"),
            "wrong failure: {err}"
        );
        // And the same specs are clean without the sabotage.
        let spec = CaseSpec {
            fault: Some(soak_knobs()),
            ..case_spec(&cfg, 0)
        };
        assert!(!matches!(
            run_spec(&spec, BugHook::None),
            Err(CaseError::Mismatch(_))
        ));
    }

    #[test]
    fn int_honesty_catches_a_lying_stamp() {
        // A datapath whose INT stamps flatter the TM queue depth must not
        // pass: arm the lying-stamp sabotage, expecting the INT↔tracer
        // honesty check to flag the skew, then shrink the witness and
        // prove the failure artifact replays. The check is skipped when
        // the tracer, the registry, or INT itself is env-disabled, so a
        // hostile environment can only make this test vacuous, not red —
        // guard against that by requiring all three to be on.
        let m = adcp_sim::metrics::MetricsRegistry::from_env();
        let t = adcp_sim::trace::JourneyTracer::from_env(true, 8);
        let k = adcp_sim::int::IntKnob::from_env(true);
        if !m.enabled() || !t.is_enabled() || !k.on() {
            eprintln!("metrics/trace/int disabled via env; skipping");
            return;
        }
        let cfg = tiny_cfg(0x11E_57A4, 8, BugHook::LieIntStamp);
        let mut caught = None;
        for i in 0..8 {
            let spec = case_spec(&cfg, i);
            match run_spec(&spec, BugHook::LieIntStamp) {
                Err(CaseError::Mismatch(e)) => {
                    caught = Some((spec, e));
                    break;
                }
                _ => continue,
            }
        }
        let (spec, err) = caught.expect("a lying INT stamp must surface within a few cases");
        assert!(err.contains("INT stamp"), "wrong failure: {err}");
        // The shrunk witness still fails, for the same reason class.
        let (shrunk, final_err) = shrink(&spec, BugHook::LieIntStamp, err);
        assert!(final_err.contains("INT stamp"), "{final_err}");
        assert!(matches!(
            run_spec(&shrunk, BugHook::LieIntStamp),
            Err(CaseError::Mismatch(_))
        ));
        // The artifact replays to the same verdict through the file.
        let dir = std::env::temp_dir().join(format!("adcp_int_lie_{}", std::process::id()));
        let name = write_artifact(&dir, &spec, &shrunk, &final_err).expect("artifact writes");
        let verdict = replay(&dir.join(&name), BugHook::LieIntStamp);
        std::fs::remove_dir_all(&dir).ok();
        assert!(matches!(verdict, Err(CaseError::Mismatch(_))));
        // And the same spec is clean without the sabotage.
        assert!(!matches!(
            run_spec(&shrunk, BugHook::None),
            Err(CaseError::Mismatch(_))
        ));
    }
}
