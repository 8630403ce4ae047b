//! Placing programs onto targets.
//!
//! The compiler turns a target-independent [`Program`] into a [`Placement`]:
//! an assignment of tables to pipeline stages that honors the target's
//! stage count, MAUs per stage, table memory, register memory, and PHV
//! budgets. Two rules encode the paper's core claims:
//!
//! * **Array tables** (§3.2 / Fig. 3): a table keyed on a width-`w` array
//!   costs `w` *replicas* — `w×` the memory — on an RMT target, but one
//!   shared copy spread over `w` interconnected MAUs on an ADCP target.
//! * **Central tables** (§3.1 / Fig. 2): tables in [`Region::Central`]
//!   place natively on an ADCP. On RMT they must be *lowered*: either
//!   pinned into the egress pipelines (restricting which ports results can
//!   leave from) or pushed through recirculation (halving usable
//!   bandwidth per extra pass). The chosen lowering is recorded so the
//!   switch model and the Fig. 2 experiment can charge the real cost.

use crate::phv::PhvLayout;
use crate::program::{Program, ValidateError};
use crate::table::{Region, TableDef};
use crate::target::TargetModel;
use serde::Serialize;
use std::collections::HashMap;

/// How RMT should lower central-region tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub enum RmtCentralStrategy {
    /// Send all coflow traffic to one egress pipeline and run the central
    /// tables there. Results can then only exit via that pipeline's ports.
    #[default]
    EgressPin,
    /// Run central tables on a second ingress pass via recirculation,
    /// spending front-panel bandwidth for each pass.
    Recirculate,
}

/// Compilation knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileOptions {
    /// Lowering for central tables on RMT targets.
    pub rmt_central: RmtCentralStrategy,
}

/// How the program's central region ended up implemented.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum CentralImpl {
    /// The program has no central tables.
    None,
    /// Placed in the target's native central pipelines (ADCP).
    Native,
    /// Lowered into the egress pipelines (RMT). Output ports are pinned.
    EgressPinned,
    /// Lowered onto extra ingress passes via recirculation (RMT).
    Recirculated,
}

/// One table placed into a stage.
#[derive(Debug, Clone, Serialize)]
pub struct PlacedTable {
    /// Global table index in the program.
    pub table: usize,
    /// Table name (reporting convenience).
    pub name: String,
    /// Array width of the table (1 = scalar).
    pub width: u16,
    /// Number of physical table copies (RMT replication; 1 on ADCP).
    pub replicas: u16,
    /// MAU slots consumed in the stage.
    pub mau_slots: u16,
    /// Table memory consumed, in bits (counts all replicas).
    pub mem_bits: u64,
    /// Register memory consumed in the stage, in bits.
    pub reg_bits: u64,
}

/// Resource usage of one stage.
#[derive(Debug, Clone, Default, Serialize)]
pub struct StagePlan {
    /// Tables in this stage (execute in parallel).
    pub tables: Vec<PlacedTable>,
    /// MAU slots used.
    pub mau_slots_used: u16,
    /// Table memory used, bits.
    pub mem_bits_used: u64,
    /// Register memory used, bits.
    pub reg_bits_used: u64,
}

/// Placement of one region's tables onto one pipeline's stages.
#[derive(Debug, Clone, Default, Serialize)]
pub struct RegionPlan {
    /// Stage-by-stage usage. `stages.len()` ≤ the region's stage budget.
    pub stages: Vec<StagePlan>,
}

impl RegionPlan {
    /// Stages actually occupied.
    pub fn depth(&self) -> u16 {
        self.stages.len() as u16
    }

    /// Total table memory, bits.
    pub fn mem_bits(&self) -> u64 {
        self.stages.iter().map(|s| s.mem_bits_used).sum()
    }

    fn find(&self, table: usize) -> Option<(usize, &PlacedTable)> {
        for (si, st) in self.stages.iter().enumerate() {
            if let Some(t) = st.tables.iter().find(|t| t.table == table) {
                return Some((si, t));
            }
        }
        None
    }
}

/// A successful compilation.
#[derive(Debug, Clone, Serialize)]
pub struct Placement {
    /// Target name (reporting).
    pub target: String,
    /// Program name (reporting).
    pub program: String,
    /// Ingress placement (first pass).
    pub ingress: RegionPlan,
    /// Central placement — native, pinned, or recirculated per
    /// `central_impl`.
    pub central: RegionPlan,
    /// Egress placement.
    pub egress: RegionPlan,
    /// How central tables were implemented.
    pub central_impl: CentralImpl,
    /// Extra ingress passes needed (0 unless `Recirculated`).
    pub recirc_passes: u16,
    /// PHV bits the program needs.
    pub phv_bits_used: u32,
    /// Total table memory across all regions, in bits.
    pub total_mem_bits: u64,
    /// Human-readable compilation notes.
    pub notes: Vec<String>,
}

impl Placement {
    /// Where a table landed: (implementing region, stage index).
    pub fn table_location(&self, table: usize) -> Option<(CentralImpl, Region, usize)> {
        for (region, plan) in [
            (Region::Ingress, &self.ingress),
            (Region::Central, &self.central),
            (Region::Egress, &self.egress),
        ] {
            if let Some((stage, _)) = plan.find(table) {
                return Some((self.central_impl, region, stage));
            }
        }
        None
    }

    /// Pipeline latency, in cycles, of one pass through a region (stage
    /// traversal; the switch models multiply by the clock period).
    pub fn region_cycles(&self, region: Region) -> u64 {
        match region {
            Region::Ingress => self.ingress.depth() as u64,
            Region::Central => self.central.depth() as u64,
            Region::Egress => self.egress.depth() as u64,
        }
    }
}

/// Why compilation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// The program failed validation.
    Invalid(Vec<ValidateError>),
    /// The program's fields exceed the target's PHV.
    PhvOverflow {
        /// Bits the program needs.
        needed: u32,
        /// Bits the target offers.
        budget: u32,
    },
    /// An array table is wider than the target supports natively and
    /// replication was not applicable (array *action* ops can't be
    /// replicated).
    ArrayOpUnsupported {
        /// Offending table.
        table: String,
        /// Its array width.
        width: u16,
    },
    /// A single table (with replication) does not fit in any one stage.
    TableTooLarge {
        /// Offending table.
        table: String,
        /// MAU slots it needs.
        slots_needed: u32,
        /// MAU slots a stage has.
        slots_available: u16,
    },
    /// A region ran out of stages.
    OutOfStages {
        /// The region that overflowed.
        region: Region,
        /// Its stage budget.
        budget: u16,
    },
    /// The chip-wide table memory pool was exceeded (dRMT-style targets).
    PoolOverflow {
        /// Bits the program needs.
        needed: u64,
        /// Bits the pool offers.
        budget: u64,
    },
    /// A stage's register memory was exceeded by a single table.
    RegisterOverflow {
        /// Offending table.
        table: String,
        /// Bits it needs.
        needed: u64,
        /// Bits a stage offers.
        budget: u64,
    },
}

/// Compile `program` for `target`.
///
/// ```
/// use adcp_lang::*;
///
/// // A one-table forwarding program...
/// let mut b = ProgramBuilder::new("demo");
/// let h = b.header(HeaderDef::new(
///     "fwd",
///     vec![FieldDef::scalar("dst", 16), FieldDef::scalar("pad", 16)],
/// ));
/// b.parser(ParserSpec::single(h));
/// b.table(TableDef {
///     name: "route".into(),
///     region: Region::Ingress,
///     key: Some(KeySpec {
///         field: FieldRef::new(h, FieldId(0)),
///         kind: MatchKind::Exact,
///         bits: 16,
///     }),
///     actions: vec![ActionDef::new(
///         "fwd",
///         vec![ActionOp::SetEgress(Operand::Param(0))],
///     )],
///     default_action: 0,
///     default_params: vec![],
///     size: 256,
/// });
/// let program = b.build();
///
/// // ...places on both architectures.
/// let rmt = compile(&program, &TargetModel::rmt_12t(), CompileOptions::default()).unwrap();
/// let adcp = compile(&program, &TargetModel::adcp_reference(), CompileOptions::default()).unwrap();
/// assert_eq!(rmt.ingress.depth(), 1);
/// assert_eq!(adcp.ingress.depth(), 1);
/// ```
pub fn compile(
    program: &Program,
    target: &TargetModel,
    opts: CompileOptions,
) -> Result<Placement, CompileError> {
    let errs = program.validate();
    if !errs.is_empty() {
        return Err(CompileError::Invalid(errs));
    }
    let layout = program.layout();
    if layout.total_bits() > target.phv_bits {
        return Err(CompileError::PhvOverflow {
            needed: layout.total_bits(),
            budget: target.phv_bits,
        });
    }

    let mut notes = Vec::new();

    // Decide where central tables go.
    let central_impl = if !program.uses_central() {
        CentralImpl::None
    } else if target.has_central() {
        CentralImpl::Native
    } else {
        match opts.rmt_central {
            RmtCentralStrategy::EgressPin => {
                notes.push(
                    "central tables egress-pinned: coflow results can only leave \
                     via the pinned pipeline's ports (Fig. 2 limitation)"
                        .into(),
                );
                CentralImpl::EgressPinned
            }
            RmtCentralStrategy::Recirculate => {
                notes.push(
                    "central tables lowered to a recirculation pass: each pass \
                     consumes front-panel bandwidth"
                        .into(),
                );
                CentralImpl::Recirculated
            }
        }
    };

    // The stage budget each lowered region gets.
    let central_budget = match central_impl {
        CentralImpl::Native => target.central_stages,
        CentralImpl::EgressPinned => target.egress_stages,
        CentralImpl::Recirculated => target.ingress_stages,
        CentralImpl::None => 0,
    };

    let ingress = place_region(
        program,
        &layout,
        target,
        Region::Ingress,
        target.ingress_stages,
        &mut notes,
    )?;
    let central = if central_impl == CentralImpl::None {
        RegionPlan::default()
    } else {
        place_region(
            program,
            &layout,
            target,
            Region::Central,
            central_budget,
            &mut notes,
        )?
    };
    // When central tables are egress-pinned they share the egress stage
    // budget with the egress tables proper: charge the egress region the
    // stages central already consumed.
    let egress_budget = if central_impl == CentralImpl::EgressPinned {
        target.egress_stages.saturating_sub(central.depth())
    } else {
        target.egress_stages
    };
    let egress = place_region(
        program,
        &layout,
        target,
        Region::Egress,
        egress_budget,
        &mut notes,
    )?;

    let recirc_passes = if central_impl == CentralImpl::Recirculated {
        1
    } else {
        0
    };
    let total_mem_bits = ingress.mem_bits() + central.mem_bits() + egress.mem_bits();
    if target.pooled_table_memory && total_mem_bits > target.pool_bits() {
        return Err(CompileError::PoolOverflow {
            needed: total_mem_bits,
            budget: target.pool_bits(),
        });
    }

    Ok(Placement {
        target: target.name.clone(),
        program: program.name.clone(),
        ingress,
        central,
        egress,
        central_impl,
        recirc_passes,
        phv_bits_used: layout.total_bits(),
        total_mem_bits,
        notes,
    })
}

/// Greedy list-scheduling of one region's tables into stages.
fn place_region(
    program: &Program,
    layout: &PhvLayout,
    target: &TargetModel,
    region: Region,
    stage_budget: u16,
    notes: &mut Vec<String>,
) -> Result<RegionPlan, CompileError> {
    let tables = program.region_tables(region);
    let mut plan = RegionPlan::default();
    if tables.is_empty() {
        return Ok(plan);
    }
    // stage index each already-placed table landed in (for dependencies).
    let mut placed_stage: HashMap<usize, usize> = HashMap::new();

    for (gi, def) in tables {
        let width = program.table_width(layout, def);
        let cost = table_cost(program, layout, target, def, width, notes)?;

        if cost.mau_slots as u32 > target.maus_per_stage as u32 {
            return Err(CompileError::TableTooLarge {
                table: def.name.clone(),
                slots_needed: cost.mau_slots as u32,
                slots_available: target.maus_per_stage,
            });
        }
        // Cascone-style relaxed state layout ("Relaxing state-access
        // constraints"): a register file bigger than one stage's stateful
        // budget is not an automatic error. On the ADCP's central region
        // the cells are partitioned across the central pipes — the TM
        // already steers each key to its owning pipe, so each pipe holds
        // only `1/central_pipes` of the cells. Whatever remains may span
        // several *consecutive* stages, buying capacity with pipeline
        // depth and a documented per-packet RMW hazard window (the read
        // in the first spanned stage and the write in the last are not
        // atomic w.r.t. packets in flight between them). RMT replicates
        // register state per pipe, so it gets no partition discount:
        // million-flow exact state overflows there unless the program
        // folds its key space.
        let (stage_reg, span) = if cost.reg_bits > target.stage_reg_bits {
            let partitioned =
                region == Region::Central && target.has_central() && target.central_pipes > 1;
            let resident = if partitioned {
                cost.reg_bits.div_ceil(target.central_pipes as u64)
            } else {
                cost.reg_bits
            };
            let span = resident.div_ceil(target.stage_reg_bits).max(1);
            if span > stage_budget as u64 {
                return Err(CompileError::RegisterOverflow {
                    table: def.name.clone(),
                    needed: resident,
                    budget: target.stage_reg_bits * stage_budget as u64,
                });
            }
            if partitioned {
                notes.push(format!(
                    "table {}: {} register bits partitioned across {} central pipes \
                     ({resident} bits resident per pipe)",
                    def.name, cost.reg_bits, target.central_pipes
                ));
            }
            if span > 1 {
                notes.push(format!(
                    "table {}: register state spans {span} consecutive stages \
                     ({resident} bits vs {} per stage); per-packet RMW is non-atomic \
                     across the span — relaxed state-access hazard window of {} \
                     extra stage(s)",
                    def.name,
                    target.stage_reg_bits,
                    span - 1
                ));
            }
            (resident.div_ceil(span), span as usize)
        } else {
            (cost.reg_bits, 1)
        };

        // Earliest stage: strictly after every same-region table this one
        // depends on.
        let earliest = dependency_floor(program, region, gi, def, &placed_stage);

        // First stage from `earliest` with room (for a spanning table: with
        // register room in every stage of the span).
        let mut chosen = None;
        for s in earliest.. {
            if s + span > stage_budget as usize {
                return Err(CompileError::OutOfStages {
                    region,
                    budget: stage_budget,
                });
            }
            while plan.stages.len() < s + span {
                plan.stages.push(StagePlan::default());
            }
            let st = &plan.stages[s];
            let slots_ok =
                st.mau_slots_used as u32 + cost.mau_slots as u32 <= target.maus_per_stage as u32;
            // Disaggregated memory has no per-stage table bound — the
            // chip-wide pool is checked once at the end of compilation.
            let mem_ok = target.pooled_table_memory
                || st.mem_bits_used + cost.mem_bits <= target.stage_mem_bits();
            let reg_ok = (s..s + span)
                .all(|i| plan.stages[i].reg_bits_used + stage_reg <= target.stage_reg_bits);
            if slots_ok && mem_ok && reg_ok {
                chosen = Some(s);
                break;
            }
        }
        let s = chosen.expect("loop either chooses or errors");
        let st = &mut plan.stages[s];
        st.mau_slots_used += cost.mau_slots;
        st.mem_bits_used += cost.mem_bits;
        st.tables.push(PlacedTable {
            table: gi,
            name: def.name.clone(),
            width,
            replicas: cost.replicas,
            mau_slots: cost.mau_slots,
            mem_bits: cost.mem_bits,
            reg_bits: cost.reg_bits,
        });
        for i in s..s + span {
            plan.stages[i].reg_bits_used += stage_reg;
        }
        // A spanning table's result is only coherent after its last stage,
        // so dependents schedule past the whole span.
        placed_stage.insert(gi, s + span - 1);
    }
    Ok(plan)
}

struct TableCost {
    replicas: u16,
    mau_slots: u16,
    mem_bits: u64,
    reg_bits: u64,
}

/// Resource cost of one table on one target — the Fig. 3 arithmetic.
fn table_cost(
    program: &Program,
    layout: &PhvLayout,
    target: &TargetModel,
    def: &TableDef,
    width: u16,
    notes: &mut Vec<String>,
) -> Result<TableCost, CompileError> {
    let base_mem = def.mem_bits();
    let has_array_action = def.actions.iter().any(|a| a.has_array_ops());
    // The width that matters for resources is the wider of the key's array
    // width and any array the actions operate on.
    let width = width.max(program.action_array_width(layout, def));
    // A register is provisioned once no matter how many ops (or actions)
    // touch it — dedupe before summing.
    let mut regs: Vec<_> = def.actions.iter().flat_map(|a| a.registers()).collect();
    regs.sort_unstable_by_key(|r| r.0);
    regs.dedup();
    let reg_bits: u64 = regs
        .iter()
        .map(|r| program.registers[r.0 as usize].total_bits())
        .sum();

    // MAU slots express lookup bandwidth. With per-stage SRAM a table also
    // occupies the MAUs whose memory it fills; with a disaggregated pool
    // the match capacity alone binds.
    let mau_of = |mem: u64| -> u16 {
        if target.pooled_table_memory {
            1
        } else {
            mem.div_ceil(target.mau_mem_bits).max(1) as u16
        }
    };

    if width <= 1 && !has_array_action {
        // Plain scalar table.
        return Ok(TableCost {
            replicas: 1,
            mau_slots: mau_of(base_mem),
            mem_bits: base_mem,
            reg_bits,
        });
    }

    if width <= target.max_array_width && (width > 1 || has_array_action) {
        // Native array support: one shared copy across `width`
        // interconnected MAUs (§3.2 / Fig. 6).
        let slots = width.max(mau_of(base_mem));
        return Ok(TableCost {
            replicas: 1,
            mau_slots: slots,
            mem_bits: base_mem,
            reg_bits,
        });
    }

    // Target cannot match the array natively.
    if has_array_action {
        // Array ALU ops cannot be replicated — the application would have
        // to be restructured (which is the paper's point).
        return Err(CompileError::ArrayOpUnsupported {
            table: def.name.clone(),
            width,
        });
    }
    // Match-only array table: replicate the table `width` times (Fig. 3).
    let per_copy = mau_of(base_mem);
    notes.push(format!(
        "table '{}' replicated {}x on {} ({} KiB -> {} KiB)",
        def.name,
        width,
        target.name,
        base_mem / 8 / 1024,
        base_mem * width as u64 / 8 / 1024,
    ));
    Ok(TableCost {
        replicas: width,
        mau_slots: per_copy * width,
        mem_bits: base_mem * width as u64,
        reg_bits: reg_bits * width as u64,
    })
}

/// Strictly-after floor from read/write dependencies on earlier tables in
/// the same region.
fn dependency_floor(
    program: &Program,
    region: Region,
    gi: usize,
    def: &TableDef,
    placed_stage: &HashMap<usize, usize>,
) -> usize {
    let mut reads: Vec<_> = def.actions.iter().flat_map(|a| a.reads()).collect();
    if let Some(k) = def.key {
        reads.push(k.field);
    }
    let writes: Vec<_> = def.actions.iter().flat_map(|a| a.writes()).collect();

    let mut floor = 0usize;
    for (pj, prev) in program.region_tables(region) {
        if pj >= gi {
            break;
        }
        let Some(&ps) = placed_stage.get(&pj) else {
            continue;
        };
        let prev_writes: Vec<_> = prev.actions.iter().flat_map(|a| a.writes()).collect();
        let raw = reads.iter().any(|f| prev_writes.contains(f));
        let waw = writes.iter().any(|f| prev_writes.contains(f));
        if raw || waw {
            floor = floor.max(ps + 1);
        }
    }
    floor
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{ActionDef, ActionOp, Operand};
    use crate::header::{FieldDef, FieldId, FieldRef, HeaderDef, HeaderId};
    use crate::parser::ParserSpec;
    use crate::program::ProgramBuilder;
    use crate::registers::{RegAluOp, RegisterDef};
    use crate::table::{KeySpec, MatchKind};

    fn fr(h: u16, f: u16) -> FieldRef {
        FieldRef::new(HeaderId(h), FieldId(f))
    }

    /// Program with one scalar table and one width-8 array table.
    fn array_program(region: Region, size: u32) -> Program {
        let mut b = ProgramBuilder::new("arr");
        let h = b.header(HeaderDef::new(
            "kv",
            vec![
                FieldDef::scalar("op", 8),
                FieldDef::scalar("dst", 16),
                FieldDef::array("keys", 32, 8),
            ],
        ));
        b.parser(ParserSpec::single(h));
        b.table(TableDef {
            name: "route".into(),
            region: Region::Ingress,
            key: Some(KeySpec {
                field: fr(0, 1),
                kind: MatchKind::Exact,
                bits: 16,
            }),
            actions: vec![ActionDef::nop()],
            default_action: 0,
            default_params: vec![],
            size: 256,
        });
        b.table(TableDef {
            name: "kv_lookup".into(),
            region,
            key: Some(KeySpec {
                field: fr(0, 2),
                kind: MatchKind::Exact,
                bits: 32,
            }),
            actions: vec![ActionDef::nop()],
            default_action: 0,
            default_params: vec![],
            size,
        });
        b.build()
    }

    #[test]
    fn scalar_table_costs_one_mau() {
        let p = array_program(Region::Ingress, 64);
        let pl = compile(&p, &TargetModel::rmt_12t(), CompileOptions::default()).unwrap();
        let route = pl.ingress.stages[0]
            .tables
            .iter()
            .find(|t| t.name == "route")
            .unwrap();
        assert_eq!(route.replicas, 1);
        assert_eq!(route.mau_slots, 1);
    }

    #[test]
    fn rmt_replicates_array_table_8x() {
        let p = array_program(Region::Ingress, 64);
        let pl = compile(&p, &TargetModel::rmt_12t(), CompileOptions::default()).unwrap();
        let (_, _, _stage) = pl.table_location(1).unwrap();
        let kv = pl
            .ingress
            .stages
            .iter()
            .flat_map(|s| &s.tables)
            .find(|t| t.name == "kv_lookup")
            .unwrap();
        assert_eq!(kv.replicas, 8, "Fig. 3: one copy per array element");
        assert_eq!(kv.mem_bits, 8 * 64 * (32 + 8 + 64));
        assert!(pl.notes.iter().any(|n| n.contains("replicated 8x")));
    }

    #[test]
    fn adcp_places_array_table_once() {
        let p = array_program(Region::Ingress, 64);
        let pl = compile(
            &p,
            &TargetModel::adcp_reference(),
            CompileOptions::default(),
        )
        .unwrap();
        let kv = pl
            .ingress
            .stages
            .iter()
            .flat_map(|s| &s.tables)
            .find(|t| t.name == "kv_lookup")
            .unwrap();
        assert_eq!(kv.replicas, 1, "§3.2: shared memory, no replication");
        assert_eq!(kv.mau_slots, 8, "8 interconnected MAUs");
        assert_eq!(kv.mem_bits, 64 * (32 + 8 + 64));
    }

    #[test]
    fn central_native_on_adcp() {
        let p = array_program(Region::Central, 64);
        let pl = compile(
            &p,
            &TargetModel::adcp_reference(),
            CompileOptions::default(),
        )
        .unwrap();
        assert_eq!(pl.central_impl, CentralImpl::Native);
        assert_eq!(pl.recirc_passes, 0);
        assert!(pl.central.depth() >= 1);
        let (_, region, _) = pl.table_location(1).unwrap();
        assert_eq!(region, Region::Central);
    }

    #[test]
    fn central_egress_pinned_on_rmt() {
        let p = array_program(Region::Central, 64);
        let pl = compile(&p, &TargetModel::rmt_12t(), CompileOptions::default()).unwrap();
        assert_eq!(pl.central_impl, CentralImpl::EgressPinned);
        assert_eq!(pl.recirc_passes, 0);
        assert!(pl.notes.iter().any(|n| n.contains("egress-pinned")));
    }

    #[test]
    fn central_recirculated_on_rmt() {
        let p = array_program(Region::Central, 64);
        let opts = CompileOptions {
            rmt_central: RmtCentralStrategy::Recirculate,
        };
        let pl = compile(&p, &TargetModel::rmt_12t(), opts).unwrap();
        assert_eq!(pl.central_impl, CentralImpl::Recirculated);
        assert_eq!(pl.recirc_passes, 1);
    }

    #[test]
    fn phv_overflow_detected() {
        let mut b = ProgramBuilder::new("wide");
        let h = b.header(HeaderDef::new(
            "huge",
            vec![FieldDef::array("x", 64, 200)], // 12,800 bits
        ));
        b.parser(ParserSpec::single(h));
        let p = b.build();
        match compile(&p, &TargetModel::rmt_12t(), CompileOptions::default()) {
            Err(CompileError::PhvOverflow { needed, budget }) => {
                assert_eq!(needed, 12_800);
                assert_eq!(budget, 4_096);
            }
            other => panic!("expected PhvOverflow, got {other:?}"),
        }
    }

    #[test]
    fn array_action_op_rejected_on_rmt() {
        let mut b = ProgramBuilder::new("agg");
        let h = b.header(HeaderDef::new(
            "g",
            vec![FieldDef::scalar("slot", 32), FieldDef::array("w", 32, 8)],
        ));
        b.parser(ParserSpec::single(h));
        let r = b.register(RegisterDef::new("acc", 1024, 32));
        b.table(TableDef {
            name: "aggregate".into(),
            region: Region::Ingress,
            key: None,
            actions: vec![ActionDef::new(
                "agg",
                vec![ActionOp::RegArray {
                    reg: r,
                    base: Operand::Field(fr(0, 0)),
                    op: RegAluOp::Add,
                    values: fr(0, 1),
                    readback: false,
                }],
            )],
            default_action: 0,
            default_params: vec![],
            size: 1,
        });
        let p = b.build();
        match compile(&p, &TargetModel::rmt_12t(), CompileOptions::default()) {
            Err(CompileError::ArrayOpUnsupported { width, .. }) => assert_eq!(width, 8),
            other => panic!("expected ArrayOpUnsupported, got {other:?}"),
        }
        // The same program compiles on the ADCP.
        assert!(compile(
            &p,
            &TargetModel::adcp_reference(),
            CompileOptions::default()
        )
        .is_ok());
    }

    #[test]
    fn dependent_tables_get_later_stages() {
        let mut b = ProgramBuilder::new("dep");
        let h = b.header(HeaderDef::new(
            "m",
            vec![FieldDef::scalar("a", 32), FieldDef::scalar("b", 32)],
        ));
        b.parser(ParserSpec::single(h));
        // t0 writes field b; t1 keys on field b -> must be a later stage.
        b.table(TableDef {
            name: "writer".into(),
            region: Region::Ingress,
            key: None,
            actions: vec![ActionDef::new(
                "w",
                vec![ActionOp::Set {
                    dst: fr(0, 1),
                    src: Operand::Const(7),
                }],
            )],
            default_action: 0,
            default_params: vec![],
            size: 1,
        });
        b.table(TableDef {
            name: "reader".into(),
            region: Region::Ingress,
            key: Some(KeySpec {
                field: fr(0, 1),
                kind: MatchKind::Exact,
                bits: 32,
            }),
            actions: vec![ActionDef::nop()],
            default_action: 0,
            default_params: vec![],
            size: 4,
        });
        let p = b.build();
        let pl = compile(&p, &TargetModel::rmt_12t(), CompileOptions::default()).unwrap();
        let (_, _, s0) = pl.table_location(0).unwrap();
        let (_, _, s1) = pl.table_location(1).unwrap();
        assert!(s1 > s0, "reader must follow writer: {s0} vs {s1}");
        assert_eq!(pl.region_cycles(Region::Ingress), 2);
    }

    #[test]
    fn out_of_stages_detected() {
        // Chain of dependent tables longer than the stage budget.
        let mut b = ProgramBuilder::new("chain");
        let h = b.header(HeaderDef::new("m", vec![FieldDef::scalar("x", 32)]));
        b.parser(ParserSpec::single(h));
        for i in 0..20 {
            b.table(TableDef {
                name: format!("t{i}"),
                region: Region::Ingress,
                key: None,
                actions: vec![ActionDef::new(
                    "bump",
                    vec![ActionOp::Bin {
                        dst: fr(0, 0),
                        op: crate::action::BinOp::Add,
                        a: Operand::Field(fr(0, 0)),
                        b: Operand::Const(1),
                    }],
                )],
                default_action: 0,
                default_params: vec![],
                size: 1,
            });
        }
        let p = b.build();
        // rmt_12t has 10 ingress stages; 20 chained tables cannot fit.
        match compile(&p, &TargetModel::rmt_12t(), CompileOptions::default()) {
            Err(CompileError::OutOfStages { region, budget }) => {
                assert_eq!(region, Region::Ingress);
                assert_eq!(budget, 10);
            }
            other => panic!("expected OutOfStages, got {other:?}"),
        }
    }

    #[test]
    fn huge_table_spans_maus_and_overflows() {
        // A table so large a stage cannot hold it.
        let mut b = ProgramBuilder::new("huge");
        let h = b.header(HeaderDef::new("m", vec![FieldDef::scalar("k", 32)]));
        b.parser(ParserSpec::single(h));
        b.table(TableDef {
            name: "big".into(),
            region: Region::Ingress,
            key: Some(KeySpec {
                field: fr(0, 0),
                kind: MatchKind::Exact,
                bits: 32,
            }),
            actions: vec![ActionDef::nop()],
            default_action: 0,
            default_params: vec![],
            size: 2_000_000, // 2M entries × 104 bits ≈ 208 Mbit >> 16 Mbit/stage
        });
        let p = b.build();
        match compile(&p, &TargetModel::rmt_12t(), CompileOptions::default()) {
            Err(CompileError::TableTooLarge { slots_needed, .. }) => {
                assert!(slots_needed > 16);
            }
            other => panic!("expected TableTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn drmt_pool_admits_tables_too_big_for_a_stage() {
        // 2M entries x 104 bits ~ 208 Mibit: far beyond one 16 Mibit RMT
        // stage, comfortably inside dRMT's 320 Mibit pool.
        let mut b = ProgramBuilder::new("big");
        let h = b.header(HeaderDef::new("m", vec![FieldDef::scalar("k", 32)]));
        b.parser(ParserSpec::single(h));
        b.table(TableDef {
            name: "big".into(),
            region: Region::Ingress,
            key: Some(KeySpec {
                field: fr(0, 0),
                kind: MatchKind::Exact,
                bits: 32,
            }),
            actions: vec![ActionDef::nop()],
            default_action: 0,
            default_params: vec![],
            size: 2_000_000,
        });
        let p = b.build();
        assert!(matches!(
            compile(&p, &TargetModel::rmt_12t(), CompileOptions::default()),
            Err(CompileError::TableTooLarge { .. })
        ));
        let pl = compile(&p, &TargetModel::drmt_12t(), CompileOptions::default()).unwrap();
        assert_eq!(pl.ingress.depth(), 1);
        assert_eq!(pl.total_mem_bits, 2_000_000 * 104);
    }

    #[test]
    fn drmt_pool_overflow_detected() {
        let mut b = ProgramBuilder::new("toobig");
        let h = b.header(HeaderDef::new("m", vec![FieldDef::scalar("k", 32)]));
        b.parser(ParserSpec::single(h));
        b.table(TableDef {
            name: "huge".into(),
            region: Region::Ingress,
            key: Some(KeySpec {
                field: fr(0, 0),
                kind: MatchKind::Exact,
                bits: 32,
            }),
            actions: vec![ActionDef::nop()],
            default_action: 0,
            default_params: vec![],
            size: 4_000_000, // ~416 Mibit > 320 Mibit pool
        });
        let p = b.build();
        match compile(&p, &TargetModel::drmt_12t(), CompileOptions::default()) {
            Err(CompileError::PoolOverflow { needed, budget }) => {
                assert!(needed > budget);
            }
            other => panic!("expected PoolOverflow, got {other:?}"),
        }
    }

    #[test]
    fn drmt_still_pays_the_replication_tax() {
        // Disaggregated memory relieves stage pressure, but the scalar-MAU
        // model still forces w replicas for a width-w array table — the
        // Fig. 3 tax survives dRMT, which is the paper's point about
        // "fundamentally offering the same packet-based abstraction".
        let p = array_program(Region::Ingress, 1024);
        let pl = compile(&p, &TargetModel::drmt_12t(), CompileOptions::default()).unwrap();
        let kv = pl
            .ingress
            .stages
            .iter()
            .flat_map(|s| &s.tables)
            .find(|t| t.name == "kv_lookup")
            .unwrap();
        assert_eq!(kv.replicas, 8);
        let pl_adcp = compile(
            &p,
            &TargetModel::adcp_reference(),
            CompileOptions::default(),
        )
        .unwrap();
        let kv_adcp = pl_adcp
            .ingress
            .stages
            .iter()
            .flat_map(|s| &s.tables)
            .find(|t| t.name == "kv_lookup")
            .unwrap();
        assert_eq!(kv.mem_bits, kv_adcp.mem_bits * 8);
    }

    /// Program with a central per-flow register of `entries` 32-bit cells,
    /// indexed by a packet field (the million-flow state shape).
    fn stateful_program(entries: u32) -> Program {
        let mut b = ProgramBuilder::new("stateful");
        let h = b.header(HeaderDef::new(
            "m",
            vec![FieldDef::scalar("dst", 16), FieldDef::scalar("key", 32)],
        ));
        b.parser(ParserSpec::single(h));
        let r = b.register(RegisterDef::new("flows", entries, 32));
        b.table(TableDef {
            name: "route".into(),
            region: Region::Ingress,
            key: None,
            actions: vec![ActionDef::new(
                "fwd",
                vec![ActionOp::SetEgress(Operand::Const(0))],
            )],
            default_action: 0,
            default_params: vec![],
            size: 1,
        });
        b.table(TableDef {
            name: "flow_state".into(),
            region: Region::Central,
            key: None,
            actions: vec![ActionDef::new(
                "touch",
                vec![ActionOp::RegRmw {
                    reg: r,
                    index: Operand::Field(fr(0, 1)),
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

    #[test]
    fn million_flow_register_partitions_and_spans_on_adcp() {
        // 10⁶ × 32 b = 32 Mbit of exact per-flow state. The ADCP partitions
        // it across 4 central pipes (8 Mbit resident each), which still
        // exceeds the 4 Mibit stage budget — so it spans 2 consecutive
        // central stages, paying depth plus a recorded RMW hazard window.
        let p = stateful_program(1_000_000);
        let pl = compile(
            &p,
            &TargetModel::adcp_reference(),
            CompileOptions::default(),
        )
        .unwrap();
        assert_eq!(pl.central_impl, CentralImpl::Native);
        assert_eq!(pl.central.depth(), 2, "8 Mbit / 4 Mibit per stage");
        assert_eq!(pl.region_cycles(Region::Central), 2, "depth is charged");
        assert!(pl
            .notes
            .iter()
            .any(|n| n.contains("partitioned across 4 central pipes")));
        assert!(pl
            .notes
            .iter()
            .any(|n| n.contains("spans 2 consecutive stages")));
    }

    #[test]
    fn million_flow_register_overflows_rmt() {
        // RMT gets no partition discount (per-pipe-replicated state): the
        // full 32 Mbit would span 16 > 10 stages — a structural overflow.
        let p = stateful_program(1_000_000);
        match compile(&p, &TargetModel::rmt_12t(), CompileOptions::default()) {
            Err(CompileError::RegisterOverflow { needed, budget, .. }) => {
                assert_eq!(needed, 32_000_000);
                assert_eq!(budget, 10 * 2 * 1024 * 1024, "whole-region capacity");
            }
            other => panic!("expected RegisterOverflow, got {other:?}"),
        }
    }

    #[test]
    fn folded_register_spans_on_rmt() {
        // A hash-folded 2^18-slot table (8 Mibit) does fit RMT — across 4
        // consecutive stages with the hazard note. This is the honest RMT
        // fallback: collisions + spanning instead of exact state.
        let p = stateful_program(1 << 18);
        let pl = compile(&p, &TargetModel::rmt_12t(), CompileOptions::default()).unwrap();
        assert_eq!(pl.central.depth(), 4, "8 Mibit / 2 Mibit per stage");
        assert!(pl
            .notes
            .iter()
            .any(|n| n.contains("spans 4 consecutive stages")));
        assert!(
            !pl.notes.iter().any(|n| n.contains("partitioned across")),
            "no partition discount off the ADCP central region"
        );
    }

    #[test]
    fn small_registers_place_exactly_as_before() {
        // The relaxed path only engages past one stage's budget: small
        // registers keep the legacy single-stage accounting and no notes.
        let p = stateful_program(4096);
        let pl = compile(
            &p,
            &TargetModel::adcp_reference(),
            CompileOptions::default(),
        )
        .unwrap();
        assert_eq!(pl.central.depth(), 1);
        assert_eq!(pl.central.stages[0].reg_bits_used, 4096 * 32);
        assert!(!pl.notes.iter().any(|n| n.contains("spans")));
        assert!(!pl.notes.iter().any(|n| n.contains("partitioned")));
    }

    #[test]
    fn independent_tables_share_a_stage() {
        let p = array_program(Region::Ingress, 64);
        let pl = compile(
            &p,
            &TargetModel::adcp_reference(),
            CompileOptions::default(),
        )
        .unwrap();
        // route (1 slot) and kv_lookup (8 slots) are independent: same stage.
        assert_eq!(pl.ingress.depth(), 1);
        assert_eq!(pl.ingress.stages[0].tables.len(), 2);
        assert_eq!(pl.ingress.stages[0].mau_slots_used, 9);
    }
}
