//! Executing programs: the match-action interpreter.
//!
//! A [`RegionState`] is the runtime state of **one region of one pipeline**:
//! installed table entries plus register file contents. Pipelines are
//! shared-nothing (in both architectures), so each pipeline instantiates
//! its own `RegionState` — which is precisely how the Fig. 2 problem
//! manifests in this model: coflow state accumulated in pipeline 0's
//! registers is invisible to pipeline 1.
//!
//! Lane semantics (§3.2): a table keyed on a width-`w` array field performs
//! `w` lookups, one per element, and runs the matched action in that
//! element's *lane* — array-field accesses inside the action address the
//! lane's element. Wide ops ([`ActionOp::RegArray`], [`ActionOp::
//! ArrayReduce`]) consume the whole array and execute once.

use crate::action::{fold_hash, ActionDef, ActionOp, Operand};
use crate::header::FieldRef;
use crate::phv::{Phv, PhvLayout};
use crate::program::Program;
use crate::registers::{RegId, RegisterFile};
use crate::table::{Entry, Region, TableError, TableRuntime};
use adcp_sim::packet::{EgressSpec, PortId};

/// Aggregate statistics from running packets through a region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionRunStats {
    /// Packets processed.
    pub packets: u64,
    /// Tables executed (skipped-after-drop tables not counted).
    pub tables_executed: u64,
    /// Individual key lookups (lanes count separately).
    pub lookups: u64,
    /// Lookups that hit.
    pub hits: u64,
    /// Register ALU operations performed.
    pub reg_ops: u64,
}

impl RegionRunStats {
    /// (lookups, hits) summed over `stats` — a switch's match-table totals
    /// over all its pipelines' regions.
    pub fn lookup_totals<'a>(stats: impl Iterator<Item = &'a RegionRunStats>) -> (u64, u64) {
        stats.fold((0, 0), |(l, h), s| (l + s.lookups, h + s.hits))
    }
}

/// Runtime state of one region of one pipeline.
#[derive(Debug, Clone)]
pub struct RegionState {
    region: Region,
    /// (global table index, runtime storage), in program order.
    tables: Vec<(usize, TableRuntime)>,
    /// All program registers (only this region's tables touch their own).
    registers: Vec<RegisterFile>,
    /// Statistics accumulated by [`RegionState::run`].
    pub stats: RegionRunStats,
}

impl RegionState {
    /// Fresh state for `region` of `program`, registers in one stripe.
    pub fn new(program: &Program, region: Region) -> Self {
        Self::striped(program, region, 1)
    }

    /// Fresh state whose registers are laid out residue-major over
    /// `stripes` ([`RegisterFile::striped`]): one of `stripes` sibling
    /// pipelines that split the register keys by residue.
    pub fn striped(program: &Program, region: Region, stripes: usize) -> Self {
        RegionState {
            region,
            tables: program
                .region_tables(region)
                .into_iter()
                .map(|(gi, def)| (gi, TableRuntime::new(def)))
                .collect(),
            registers: program
                .registers
                .iter()
                .map(|def| RegisterFile::striped(def, stripes))
                .collect(),
            stats: RegionRunStats::default(),
        }
    }

    /// The region this state serves.
    pub fn region(&self) -> Region {
        self.region
    }

    /// Install an entry into the table with global index `gi`.
    pub fn install(
        &mut self,
        program: &Program,
        gi: usize,
        entry: Entry,
    ) -> Result<(), TableError> {
        let def = &program.tables[gi];
        let rt = self
            .tables
            .iter_mut()
            .find(|(i, _)| *i == gi)
            .map(|(_, rt)| rt)
            .unwrap_or_else(|| panic!("table {gi} is not in region {:?}", def.region));
        rt.insert(def, entry)
    }

    /// Install an entry by table name (builder/test convenience).
    pub fn install_by_name(
        &mut self,
        program: &Program,
        name: &str,
        entry: Entry,
    ) -> Result<(), TableError> {
        let gi = program
            .tables
            .iter()
            .position(|t| t.name == name)
            .unwrap_or_else(|| panic!("no table named {name}"));
        self.install(program, gi, entry)
    }

    /// Read access to a register file (assertions, control-plane readout).
    pub fn register(&self, r: RegId) -> &RegisterFile {
        &self.registers[r.0 as usize]
    }

    /// Mutable access to a register file (control plane: clear epochs).
    pub fn register_mut(&mut self, r: RegId) -> &mut RegisterFile {
        &mut self.registers[r.0 as usize]
    }

    /// Lookup/hit counters of the table with global index `gi`.
    pub fn table_counters(&self, gi: usize) -> Option<(u64, u64)> {
        self.tables
            .iter()
            .find(|(i, _)| *i == gi)
            .map(|(_, rt)| (rt.lookups(), rt.hits()))
    }

    /// Run one PHV through every table of this region, in program order.
    /// Stops early if an action drops the packet.
    pub fn run(&mut self, program: &Program, layout: &PhvLayout, phv: &mut Phv) {
        let RegionState {
            tables,
            registers,
            stats,
            ..
        } = self;
        run_tables(tables, registers, stats, program, layout, phv);
    }

    /// Like [`RegionState::run`], but the match tables come from `tables`
    /// (typically one shared, control-plane-owned copy) while the register
    /// files and stats are this pipeline's own. Stateless regions (ingress
    /// and egress match tables are installed identically into every
    /// pipeline) can then share one table copy instead of duplicating
    /// every entry per pipe; register state — the part the paper's Fig. 2
    /// argument is about — stays strictly per-pipeline.
    pub fn run_with_tables(
        &mut self,
        tables: &RegionState,
        program: &Program,
        layout: &PhvLayout,
        phv: &mut Phv,
    ) {
        run_tables(
            &tables.tables,
            &mut self.registers,
            &mut self.stats,
            program,
            layout,
            phv,
        );
    }
}

/// Shared body of [`RegionState::run`]/[`RegionState::run_with_tables`]:
/// tables and mutable state are passed separately so the tables may belong
/// to a different (shared) `RegionState` than the registers.
fn run_tables(
    tables: &[(usize, TableRuntime)],
    registers: &mut [RegisterFile],
    stats: &mut RegionRunStats,
    program: &Program,
    layout: &PhvLayout,
    phv: &mut Phv,
) {
    stats.packets += 1;
    let reg_ops_before: u64 = registers.iter().map(|r| r.ops).sum();
    for (gi, rt) in tables {
        if phv.intr.egress == EgressSpec::Drop {
            break;
        }
        let def = &program.tables[*gi];
        stats.tables_executed += 1;
        match def.key {
            None => {
                // Unconditional action stage.
                let action = &def.actions[def.default_action];
                exec_action(
                    action,
                    &def.default_params,
                    0,
                    layout,
                    phv,
                    registers,
                    &program.mcast_groups,
                );
            }
            Some(k) => {
                let lanes = layout
                    .array_dims_of(k.field)
                    .map(|(_, c)| c as usize)
                    .unwrap_or(1);
                for lane in 0..lanes {
                    let key = phv.get_elem(layout, k.field, lane);
                    stats.lookups += 1;
                    // `lookup` takes `&self`, so the entry's action and
                    // params are borrowed in place — no per-lookup
                    // allocation — while the registers (a disjoint
                    // borrow) stay mutable.
                    let (ai, params): (usize, &[u64]) = match rt.lookup(key) {
                        Some(e) => {
                            stats.hits += 1;
                            (e.action, &e.params)
                        }
                        None => (def.default_action, &def.default_params),
                    };
                    let action = &def.actions[ai];
                    exec_action(
                        action,
                        params,
                        lane,
                        layout,
                        phv,
                        registers,
                        &program.mcast_groups,
                    );
                    if phv.intr.egress == EgressSpec::Drop {
                        break;
                    }
                }
            }
        }
    }
    let reg_ops_after: u64 = registers.iter().map(|r| r.ops).sum();
    stats.reg_ops += reg_ops_after - reg_ops_before;
}

/// Element index a field access uses in a given lane.
fn lane_elem(layout: &PhvLayout, f: FieldRef, lane: usize) -> usize {
    match layout.array_dims_of(f) {
        Some((_, count)) => lane.min(count as usize - 1),
        None => 0,
    }
}

fn eval(o: &Operand, params: &[u64], lane: usize, layout: &PhvLayout, phv: &Phv) -> u64 {
    match o {
        Operand::Const(c) => *c,
        Operand::Field(f) => phv.get_elem(layout, *f, lane_elem(layout, *f, lane)),
        Operand::Param(i) => params.get(*i as usize).copied().unwrap_or(0),
    }
}

/// Execute one action in one lane.
fn exec_action(
    action: &ActionDef,
    params: &[u64],
    lane: usize,
    layout: &PhvLayout,
    phv: &mut Phv,
    registers: &mut [RegisterFile],
    mcast_groups: &[Vec<PortId>],
) {
    exec_ops(
        &action.ops,
        params,
        lane,
        layout,
        phv,
        registers,
        mcast_groups,
    );
}

/// Execute a straight-line op sequence in one lane. Returns early on
/// [`ActionOp::Drop`]; a nested sequence ([`ActionOp::IfEq`]) that drops
/// only terminates itself, matching the previous recursive-action
/// semantics.
#[allow(clippy::too_many_arguments)]
fn exec_ops(
    ops: &[ActionOp],
    params: &[u64],
    lane: usize,
    layout: &PhvLayout,
    phv: &mut Phv,
    registers: &mut [RegisterFile],
    mcast_groups: &[Vec<PortId>],
) {
    for op in ops {
        match op {
            ActionOp::Set { dst, src } => {
                let v = eval(src, params, lane, layout, phv);
                let e = lane_elem(layout, *dst, lane);
                phv.set_elem(layout, *dst, e, v);
            }
            ActionOp::Bin { dst, op, a, b } => {
                let va = eval(a, params, lane, layout, phv);
                let vb = eval(b, params, lane, layout, phv);
                let e = lane_elem(layout, *dst, lane);
                phv.set_elem(layout, *dst, e, op.eval(va, vb));
            }
            ActionOp::Hash {
                dst,
                fields,
                modulo,
            } => {
                let h = fold_hash(
                    fields
                        .iter()
                        .map(|f| phv.get_elem(layout, *f, lane_elem(layout, *f, lane))),
                );
                let v = if *modulo == 0 { h } else { h % *modulo };
                let e = lane_elem(layout, *dst, lane);
                phv.set_elem(layout, *dst, e, v);
            }
            ActionOp::RegRead { reg, index, dst } => {
                let idx = eval(index, params, lane, layout, phv);
                let v = registers[reg.0 as usize].read(idx);
                let e = lane_elem(layout, *dst, lane);
                phv.set_elem(layout, *dst, e, v);
            }
            ActionOp::RegRmw {
                reg,
                index,
                op,
                value,
                fetch,
            } => {
                let idx = eval(index, params, lane, layout, phv);
                let v = eval(value, params, lane, layout, phv);
                let old = registers[reg.0 as usize].rmw(idx, *op, v);
                if let Some(f) = fetch {
                    let e = lane_elem(layout, *f, lane);
                    phv.set_elem(layout, *f, e, old);
                }
            }
            ActionOp::RegArray {
                reg,
                base,
                op,
                values,
                readback,
            } => {
                // Wide op: execute once (lane 0 of an array-keyed table
                // would otherwise repeat it per lane).
                if lane != 0 {
                    continue;
                }
                let b = eval(base, params, lane, layout, phv);
                let count = layout
                    .array_dims_of(*values)
                    .map(|(_, c)| c as usize)
                    .unwrap_or(1);
                let rf = &mut registers[reg.0 as usize];
                for i in 0..count {
                    let v = phv.get_elem(layout, *values, i);
                    rf.rmw(b + i as u64, *op, v);
                    if *readback {
                        let post = rf.peek(b + i as u64);
                        phv.set_elem(layout, *values, i, post);
                    }
                }
            }
            ActionOp::ArrayReduce { dst, src, op } => {
                if lane != 0 {
                    continue;
                }
                let vals = phv.get_array(layout, *src);
                let acc = vals[1..].iter().fold(vals[0], |acc, v| op.eval(acc, *v));
                phv.set(layout, *dst, acc);
            }
            ActionOp::SetEgress(o) => {
                let v = eval(o, params, lane, layout, phv);
                phv.intr.egress = EgressSpec::Unicast(PortId(v as u16));
            }
            ActionOp::SetMulticast(o) => {
                let g = eval(o, params, lane, layout, phv) as usize;
                phv.intr.egress = match mcast_groups.get(g) {
                    Some(ports) => EgressSpec::Multicast(ports.clone()),
                    // An out-of-range group id (bad action data) drops.
                    None => EgressSpec::Drop,
                };
            }
            ActionOp::SetCentralPipe(o) => {
                let v = eval(o, params, lane, layout, phv);
                phv.intr.central_pipe = Some(v as u32);
            }
            ActionOp::SetSortKey(o) => {
                let v = eval(o, params, lane, layout, phv);
                phv.intr.sort_key = Some(v);
            }
            ActionOp::CountElements(o) => {
                let v = eval(o, params, lane, layout, phv);
                phv.intr.elements = phv.intr.elements.saturating_add(v as u32);
            }
            ActionOp::Drop => {
                phv.intr.egress = EgressSpec::Drop;
                return;
            }
            ActionOp::MarkDrop => {
                phv.intr.egress = EgressSpec::Drop;
            }
            ActionOp::IfEq { a, b, then } => {
                let va = eval(a, params, lane, layout, phv);
                let vb = eval(b, params, lane, layout, phv);
                if va == vb {
                    // Predicated body: runs in the same lane; a matched
                    // predicate may override an earlier MarkDrop.
                    if phv.intr.egress == EgressSpec::Drop {
                        phv.intr.egress = EgressSpec::Unset;
                    }
                    exec_ops(then, params, lane, layout, phv, registers, mcast_groups);
                }
            }
            ActionOp::Recirculate => {
                phv.intr.recirculate = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::{FieldDef, FieldId, HeaderDef, HeaderId};
    use crate::parser::ParserSpec;
    use crate::program::ProgramBuilder;
    use crate::registers::{RegAluOp, RegisterDef};
    use crate::table::{KeySpec, MatchKind, MatchValue, TableDef};

    fn fr(h: u16, f: u16) -> FieldRef {
        FieldRef::new(HeaderId(h), FieldId(f))
    }

    /// Program: header {dst:16, slot:32, vals: 4×32}; ingress table
    /// `route` (exact on dst -> SetEgress(param0)); central keyless table
    /// `agg` (RegArray add + readback); egress table keyless `count`.
    fn program() -> Program {
        let mut b = ProgramBuilder::new("exec-test");
        let h = b.header(HeaderDef::new(
            "m",
            vec![
                FieldDef::scalar("dst", 16),
                FieldDef::scalar("slot", 32),
                FieldDef::array("vals", 32, 4),
            ],
        ));
        b.parser(ParserSpec::single(h));
        let acc = b.register(RegisterDef::new("acc", 64, 32));
        let ctr = b.register(RegisterDef::new("ctr", 4, 64));
        b.table(TableDef {
            name: "route".into(),
            region: Region::Ingress,
            key: Some(KeySpec {
                field: fr(0, 0),
                kind: MatchKind::Exact,
                bits: 16,
            }),
            actions: vec![
                ActionDef::new("fwd", vec![ActionOp::SetEgress(Operand::Param(0))]),
                ActionDef::new("drop", vec![ActionOp::Drop]),
            ],
            default_action: 1,
            default_params: vec![],
            size: 16,
        });
        b.table(TableDef {
            name: "agg".into(),
            region: Region::Central,
            key: None,
            actions: vec![ActionDef::new(
                "agg",
                vec![ActionOp::RegArray {
                    reg: acc,
                    base: Operand::Field(fr(0, 1)),
                    op: RegAluOp::Add,
                    values: fr(0, 2),
                    readback: true,
                }],
            )],
            default_action: 0,
            default_params: vec![],
            size: 1,
        });
        b.table(TableDef {
            name: "count".into(),
            region: Region::Egress,
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
        b.build()
    }

    fn phv_with(p: &Program, dst: u64, slot: u64, vals: [u64; 4]) -> (PhvLayout, Phv) {
        let layout = p.layout();
        let mut phv = layout.instantiate();
        phv.set(&layout, fr(0, 0), dst);
        phv.set(&layout, fr(0, 1), slot);
        for (i, v) in vals.iter().enumerate() {
            phv.set_elem(&layout, fr(0, 2), i, *v);
        }
        (layout, phv)
    }

    #[test]
    fn miss_runs_default_action() {
        let p = program();
        let mut ing = RegionState::new(&p, Region::Ingress);
        let (layout, mut phv) = phv_with(&p, 99, 0, [0; 4]);
        ing.run(&p, &layout, &mut phv);
        assert_eq!(phv.intr.egress, EgressSpec::Drop);
        assert_eq!(ing.stats.lookups, 1);
        assert_eq!(ing.stats.hits, 0);
    }

    #[test]
    fn hit_executes_entry_action_with_params() {
        let p = program();
        let mut ing = RegionState::new(&p, Region::Ingress);
        ing.install_by_name(
            &p,
            "route",
            Entry {
                value: MatchValue::Exact(7),
                action: 0,
                params: vec![3],
            },
        )
        .unwrap();
        let (layout, mut phv) = phv_with(&p, 7, 0, [0; 4]);
        ing.run(&p, &layout, &mut phv);
        assert_eq!(phv.intr.egress, EgressSpec::Unicast(PortId(3)));
        assert_eq!(ing.stats.hits, 1);
        assert_eq!(ing.table_counters(0), Some((1, 1)));
    }

    #[test]
    fn reg_array_aggregates_and_reads_back() {
        let p = program();
        let mut central = RegionState::new(&p, Region::Central);
        let layout = p.layout();

        // Two "workers" contribute to slots 8..12.
        let (_, mut phv1) = phv_with(&p, 0, 8, [1, 2, 3, 4]);
        central.run(&p, &layout, &mut phv1);
        assert_eq!(phv1.get_array(&layout, fr(0, 2)), &[1, 2, 3, 4]);

        let (_, mut phv2) = phv_with(&p, 0, 8, [10, 20, 30, 40]);
        central.run(&p, &layout, &mut phv2);
        // Readback returns the running sums.
        assert_eq!(phv2.get_array(&layout, fr(0, 2)), &[11, 22, 33, 44]);

        let acc = central.register(RegId(0));
        assert_eq!(&acc.snapshot()[8..12], &[11, 22, 33, 44]);
        assert_eq!(central.stats.reg_ops, 8, "4 lanes × 2 packets");
    }

    #[test]
    fn per_pipeline_state_is_isolated() {
        // Two RegionStates = two pipelines: aggregation does NOT converge,
        // which is exactly the Fig. 2 limitation.
        let p = program();
        let layout = p.layout();
        let mut pipe_a = RegionState::new(&p, Region::Central);
        let mut pipe_b = RegionState::new(&p, Region::Central);
        let (_, mut phv1) = phv_with(&p, 0, 0, [5, 5, 5, 5]);
        let (_, mut phv2) = phv_with(&p, 0, 0, [7, 7, 7, 7]);
        pipe_a.run(&p, &layout, &mut phv1);
        pipe_b.run(&p, &layout, &mut phv2);
        assert_eq!(pipe_a.register(RegId(0)).peek(0), 5);
        assert_eq!(pipe_b.register(RegId(0)).peek(0), 7);
        // Neither pipeline holds the coflow total (12).
    }

    #[test]
    fn drop_short_circuits_later_tables() {
        let p = program();
        // Run ingress (default = drop) then egress in one region state
        // chain; the egress counter must not advance for dropped packets.
        let layout = p.layout();
        let mut ing = RegionState::new(&p, Region::Ingress);
        let mut eg = RegionState::new(&p, Region::Egress);
        let (_, mut phv) = phv_with(&p, 1, 0, [0; 4]);
        ing.run(&p, &layout, &mut phv);
        assert_eq!(phv.intr.egress, EgressSpec::Drop);
        if phv.intr.egress != EgressSpec::Drop {
            eg.run(&p, &layout, &mut phv);
        }
        assert_eq!(eg.register(RegId(1)).peek(0), 0);
    }

    #[test]
    fn egress_counter_counts_forwarded() {
        let p = program();
        let layout = p.layout();
        let mut eg = RegionState::new(&p, Region::Egress);
        for _ in 0..5 {
            let (_, mut phv) = phv_with(&p, 0, 0, [0; 4]);
            eg.run(&p, &layout, &mut phv);
        }
        assert_eq!(eg.register(RegId(1)).peek(0), 5);
        assert_eq!(eg.stats.packets, 5);
    }

    #[test]
    fn array_lane_matching_runs_one_action_per_element() {
        // A table keyed on the vals array: each element looks up
        // independently; hits rewrite that element (lane semantics).
        let mut b = ProgramBuilder::new("lanes");
        let h = b.header(HeaderDef::new("m", vec![FieldDef::array("keys", 32, 4)]));
        b.parser(ParserSpec::single(h));
        b.table(TableDef {
            name: "cache".into(),
            region: Region::Ingress,
            key: Some(KeySpec {
                field: fr(0, 0),
                kind: MatchKind::Exact,
                bits: 32,
            }),
            actions: vec![
                ActionDef::new(
                    "found",
                    vec![ActionOp::Set {
                        dst: fr(0, 0),
                        src: Operand::Param(0),
                    }],
                ),
                ActionDef::nop(),
            ],
            default_action: 1,
            default_params: vec![],
            size: 8,
        });
        let p = b.build();
        let layout = p.layout();
        let mut st = RegionState::new(&p, Region::Ingress);
        // keys 100 and 300 are cached, mapping to 1000 and 3000.
        for (k, v) in [(100u64, 1000u64), (300, 3000)] {
            st.install_by_name(
                &p,
                "cache",
                Entry {
                    value: MatchValue::Exact(k),
                    action: 0,
                    params: vec![v],
                },
            )
            .unwrap();
        }
        let mut phv = layout.instantiate();
        for (i, k) in [100u64, 200, 300, 400].iter().enumerate() {
            phv.set_elem(&layout, fr(0, 0), i, *k);
        }
        st.run(&p, &layout, &mut phv);
        assert_eq!(st.stats.lookups, 4, "one lookup per lane");
        assert_eq!(st.stats.hits, 2);
        assert_eq!(phv.get_array(&layout, fr(0, 0)), &[1000, 200, 3000, 400]);
    }

    #[test]
    fn array_reduce_and_count_elements() {
        let mut b = ProgramBuilder::new("reduce");
        let h = b.header(HeaderDef::new(
            "m",
            vec![FieldDef::scalar("sum", 64), FieldDef::array("xs", 32, 4)],
        ));
        b.parser(ParserSpec::single(h));
        b.table(TableDef {
            name: "reduce".into(),
            region: Region::Ingress,
            key: None,
            actions: vec![ActionDef::new(
                "r",
                vec![
                    ActionOp::ArrayReduce {
                        dst: fr(0, 0),
                        src: fr(0, 1),
                        op: crate::action::BinOp::Add,
                    },
                    ActionOp::CountElements(Operand::Const(4)),
                ],
            )],
            default_action: 0,
            default_params: vec![],
            size: 1,
        });
        let p = b.build();
        let layout = p.layout();
        let mut st = RegionState::new(&p, Region::Ingress);
        let mut phv = layout.instantiate();
        for (i, v) in [10u64, 20, 30, 40].iter().enumerate() {
            phv.set_elem(&layout, fr(0, 1), i, *v);
        }
        st.run(&p, &layout, &mut phv);
        assert_eq!(phv.get(&layout, fr(0, 0)), 100);
        assert_eq!(phv.intr.elements, 4);
    }
}
