//! Complete switch programs.
//!
//! A [`Program`] bundles everything a switch needs to process an
//! application's coflows: header formats, a parse graph, match-action
//! tables assigned to regions (ingress / central / egress), register
//! declarations, multicast groups, and the service policies of the two
//! traffic managers. Programs are target-independent; `compile` maps them
//! onto a concrete [`crate::target::TargetModel`].

use crate::header::{FieldRef, HeaderDef};
use crate::parser::ParserSpec;
use crate::phv::PhvLayout;
use crate::registers::{RegId, RegisterDef};
use crate::table::{Region, TableDef};
use adcp_sim::packet::PortId;
use adcp_sim::sched::Policy;
use std::collections::HashMap;

/// Service policy of one traffic manager, as declared by the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TmSpec {
    /// Scheduling discipline across the TM's queues.
    pub policy: Policy,
}

impl Default for TmSpec {
    fn default() -> Self {
        TmSpec {
            policy: Policy::Fifo,
        }
    }
}

/// A complete, target-independent switch program.
#[derive(Debug, Clone)]
pub struct Program {
    /// Program name (diagnostics).
    pub name: String,
    /// Declared header types ([`crate::header::HeaderId`] = index).
    pub headers: Vec<HeaderDef>,
    /// Parse graph.
    pub parser: ParserSpec,
    /// Tables in execution order. Region tags partition them; within a
    /// region, list order is program order.
    pub tables: Vec<TableDef>,
    /// Register arrays ([`RegId`] = index).
    pub registers: Vec<RegisterDef>,
    /// Multicast groups (`SetMulticast(i)` refers to index `i`).
    pub mcast_groups: Vec<Vec<PortId>>,
    /// First traffic manager policy (the "application-defined" one, §3.1).
    pub tm1: TmSpec,
    /// Second traffic manager policy (the classic scheduler).
    pub tm2: TmSpec,
}

/// Program validation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateError {
    /// A field reference names a header or field that does not exist.
    BadFieldRef {
        /// Where it was found.
        table: String,
        /// The offending reference.
        field: FieldRef,
    },
    /// A key's declared width disagrees with the field's width.
    KeyWidthMismatch {
        /// Table name.
        table: String,
        /// Declared key bits.
        declared: u8,
        /// Field element bits.
        actual: u8,
    },
    /// A table's default action index is out of range.
    BadDefaultAction {
        /// Table name.
        table: String,
    },
    /// A register is used by more than one table (registers are pinned to a
    /// single stage/table in these architectures).
    RegisterShared {
        /// Register id.
        reg: RegId,
        /// The tables that both use it.
        tables: (String, String),
    },
    /// An action references an undeclared register.
    BadRegister {
        /// Table name.
        table: String,
        /// The offending id.
        reg: RegId,
    },
    /// A multicast action references an undeclared group.
    BadMulticastGroup {
        /// Table name.
        table: String,
        /// The offending group index.
        group: u32,
    },
    /// A parser state extracts an undeclared header.
    BadParserHeader {
        /// State index.
        state: usize,
    },
    /// A header's width is not byte-aligned (unparseable).
    UnalignedHeader {
        /// Header name.
        header: String,
        /// Its width in bits.
        bits: u32,
    },
}

impl Program {
    /// Compute the PHV layout for this program's headers.
    pub fn layout(&self) -> PhvLayout {
        PhvLayout::build(&self.headers)
    }

    /// The tables of one region, in program order, with their global index.
    pub fn region_tables(&self, region: Region) -> Vec<(usize, &TableDef)> {
        self.tables
            .iter()
            .enumerate()
            .filter(|(_, t)| t.region == region)
            .collect()
    }

    /// True if the program has central-region tables — i.e. it needs the
    /// global partitioned area of §3.1 (or a lowering on RMT).
    pub fn uses_central(&self) -> bool {
        self.tables.iter().any(|t| t.region == Region::Central)
    }

    /// The array width of a table: element count of its key field (1 for
    /// scalar keys and keyless tables).
    pub fn table_width(&self, layout: &PhvLayout, t: &TableDef) -> u16 {
        t.key
            .and_then(|k| layout.array_dims_of(k.field))
            .map(|(_, c)| c)
            .unwrap_or(1)
    }

    /// The widest array any of `t`'s actions operates on (1 if none).
    /// Array ALU ops need this many lanes of stateful hardware, regardless
    /// of the table's key width.
    pub fn action_array_width(&self, layout: &PhvLayout, t: &TableDef) -> u16 {
        t.actions
            .iter()
            .flat_map(|a| a.ops.iter())
            .filter_map(|op| match op {
                crate::action::ActionOp::RegArray { values, .. } => {
                    layout.array_dims_of(*values).map(|(_, c)| c)
                }
                crate::action::ActionOp::ArrayReduce { src, .. } => {
                    layout.array_dims_of(*src).map(|(_, c)| c)
                }
                _ => None,
            })
            .max()
            .unwrap_or(1)
    }

    /// Validate internal consistency. Returns every error found.
    pub fn validate(&self) -> Vec<ValidateError> {
        let mut errs = Vec::new();

        for h in &self.headers {
            if h.total_bits() % 8 != 0 {
                errs.push(ValidateError::UnalignedHeader {
                    header: h.name.clone(),
                    bits: h.total_bits(),
                });
            }
        }

        for (i, st) in self.parser.states.iter().enumerate() {
            if st.extracts.0 as usize >= self.headers.len() {
                errs.push(ValidateError::BadParserHeader { state: i });
            }
        }

        let field_ok = |f: FieldRef| -> bool {
            self.headers
                .get(f.header.0 as usize)
                .map(|h| (f.field.0 as usize) < h.fields.len())
                .unwrap_or(false)
        };

        let mut reg_owner: HashMap<RegId, String> = HashMap::new();
        for t in &self.tables {
            if t.default_action >= t.actions.len() {
                errs.push(ValidateError::BadDefaultAction {
                    table: t.name.clone(),
                });
            }
            if let Some(k) = t.key {
                if !field_ok(k.field) {
                    errs.push(ValidateError::BadFieldRef {
                        table: t.name.clone(),
                        field: k.field,
                    });
                } else {
                    let h = &self.headers[k.field.header.0 as usize];
                    let actual = h.field(k.field.field).bits;
                    if actual != k.bits {
                        errs.push(ValidateError::KeyWidthMismatch {
                            table: t.name.clone(),
                            declared: k.bits,
                            actual,
                        });
                    }
                }
            }
            for a in &t.actions {
                for f in a.reads().into_iter().chain(a.writes()) {
                    if !field_ok(f) {
                        errs.push(ValidateError::BadFieldRef {
                            table: t.name.clone(),
                            field: f,
                        });
                    }
                }
                for r in a.registers() {
                    if r.0 as usize >= self.registers.len() {
                        errs.push(ValidateError::BadRegister {
                            table: t.name.clone(),
                            reg: r,
                        });
                        continue;
                    }
                    match reg_owner.get(&r) {
                        Some(owner) if owner != &t.name => {
                            errs.push(ValidateError::RegisterShared {
                                reg: r,
                                tables: (owner.clone(), t.name.clone()),
                            });
                        }
                        _ => {
                            reg_owner.insert(r, t.name.clone());
                        }
                    }
                }
                for op in &a.ops {
                    if let crate::action::ActionOp::SetMulticast(crate::action::Operand::Const(g)) =
                        op
                    {
                        if *g as usize >= self.mcast_groups.len() {
                            errs.push(ValidateError::BadMulticastGroup {
                                table: t.name.clone(),
                                group: *g as u32,
                            });
                        }
                    }
                }
            }
        }
        // Deduplicate repeated identical errors (same register flagged per
        // action, etc.) while preserving order.
        let mut seen = Vec::new();
        errs.retain(|e| {
            if seen.contains(e) {
                false
            } else {
                seen.push(e.clone());
                true
            }
        });
        errs
    }
}

/// Fluent builder for programs (keeps example/app code readable).
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    name: String,
    headers: Vec<HeaderDef>,
    parser: Option<ParserSpec>,
    tables: Vec<TableDef>,
    registers: Vec<RegisterDef>,
    mcast_groups: Vec<Vec<PortId>>,
    tm1: TmSpec,
    tm2: TmSpec,
}

impl ProgramBuilder {
    /// Start a program with a name.
    pub fn new(name: impl Into<String>) -> Self {
        ProgramBuilder {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Declare a header; returns its id.
    pub fn header(&mut self, h: HeaderDef) -> crate::header::HeaderId {
        self.headers.push(h);
        crate::header::HeaderId(self.headers.len() as u16 - 1)
    }

    /// Set the parse graph.
    pub fn parser(&mut self, p: ParserSpec) -> &mut Self {
        self.parser = Some(p);
        self
    }

    /// Add a table; returns its global index.
    pub fn table(&mut self, t: TableDef) -> usize {
        self.tables.push(t);
        self.tables.len() - 1
    }

    /// Declare a register array; returns its id.
    pub fn register(&mut self, r: RegisterDef) -> RegId {
        self.registers.push(r);
        RegId(self.registers.len() as u16 - 1)
    }

    /// Declare a multicast group; returns its index.
    pub fn mcast_group(&mut self, ports: Vec<PortId>) -> u32 {
        self.mcast_groups.push(ports);
        self.mcast_groups.len() as u32 - 1
    }

    /// Set TM1 policy.
    pub fn tm1(&mut self, spec: TmSpec) -> &mut Self {
        self.tm1 = spec;
        self
    }

    /// Finish. Panics if no parser was set (programmer error, not input).
    pub fn build(self) -> Program {
        Program {
            name: self.name,
            headers: self.headers,
            parser: self.parser.expect("program needs a parser"),
            tables: self.tables,
            registers: self.registers,
            mcast_groups: self.mcast_groups,
            tm1: self.tm1,
            tm2: self.tm2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{ActionDef, ActionOp, Operand};
    use crate::header::{FieldDef, FieldId, HeaderId};
    use crate::registers::RegAluOp;
    use crate::table::{KeySpec, MatchKind};

    fn fr(h: u16, f: u16) -> FieldRef {
        FieldRef::new(HeaderId(h), FieldId(f))
    }

    fn minimal() -> ProgramBuilder {
        let mut b = ProgramBuilder::new("test");
        let h = b.header(HeaderDef::new(
            "kv",
            vec![
                FieldDef::scalar("op", 8),
                FieldDef::scalar("key", 32),
                FieldDef::array("vals", 32, 4),
            ],
        ));
        b.parser(ParserSpec::single(h));
        b
    }

    fn table_on(key_field: FieldRef, bits: u8, region: Region) -> TableDef {
        TableDef {
            name: format!("t_{key_field}"),
            region,
            key: Some(KeySpec {
                field: key_field,
                kind: MatchKind::Exact,
                bits,
            }),
            actions: vec![ActionDef::nop()],
            default_action: 0,
            default_params: vec![],
            size: 16,
        }
    }

    #[test]
    fn valid_program_passes() {
        let mut b = minimal();
        b.table(table_on(fr(0, 1), 32, Region::Ingress));
        let p = b.build();
        assert!(p.validate().is_empty());
        assert!(!p.uses_central());
    }

    #[test]
    fn array_key_detected() {
        let mut b = minimal();
        b.table(table_on(fr(0, 2), 32, Region::Central));
        let p = b.build();
        assert!(p.uses_central());
        let layout = p.layout();
        assert_eq!(p.table_width(&layout, &p.tables[0]), 4);
    }

    #[test]
    fn bad_field_ref_caught() {
        let mut b = minimal();
        b.table(table_on(fr(0, 9), 32, Region::Ingress));
        let p = b.build();
        let errs = p.validate();
        assert!(matches!(errs[0], ValidateError::BadFieldRef { .. }));
    }

    #[test]
    fn key_width_mismatch_caught() {
        let mut b = minimal();
        b.table(table_on(fr(0, 1), 16, Region::Ingress)); // field is 32b
        let p = b.build();
        assert!(p.validate().iter().any(|e| matches!(
            e,
            ValidateError::KeyWidthMismatch {
                declared: 16,
                actual: 32,
                ..
            }
        )));
    }

    #[test]
    fn shared_register_caught() {
        let mut b = minimal();
        let r = b.register(RegisterDef::new("agg", 64, 32));
        let act = |name: &str| {
            ActionDef::new(
                name,
                vec![ActionOp::RegRmw {
                    reg: r,
                    index: Operand::Const(0),
                    op: RegAluOp::Add,
                    value: Operand::Const(1),
                    fetch: None,
                }],
            )
        };
        for n in ["a", "b"] {
            b.table(TableDef {
                name: n.into(),
                region: Region::Ingress,
                key: None,
                actions: vec![act(n)],
                default_action: 0,
                default_params: vec![],
                size: 1,
            });
        }
        let p = b.build();
        assert!(p
            .validate()
            .iter()
            .any(|e| matches!(e, ValidateError::RegisterShared { .. })));
    }

    #[test]
    fn undeclared_register_and_group_caught() {
        let mut b = minimal();
        b.table(TableDef {
            name: "bad".into(),
            region: Region::Ingress,
            key: None,
            actions: vec![ActionDef::new(
                "boom",
                vec![
                    ActionOp::RegRead {
                        reg: RegId(5),
                        index: Operand::Const(0),
                        dst: fr(0, 1),
                    },
                    ActionOp::SetMulticast(Operand::Const(3)),
                ],
            )],
            default_action: 0,
            default_params: vec![],
            size: 1,
        });
        let p = b.build();
        let errs = p.validate();
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidateError::BadRegister { reg: RegId(5), .. })));
        assert!(errs
            .iter()
            .any(|e| matches!(e, ValidateError::BadMulticastGroup { group: 3, .. })));
    }

    #[test]
    fn unaligned_header_caught() {
        let mut b = ProgramBuilder::new("x");
        let h = b.header(HeaderDef::new("odd", vec![FieldDef::scalar("f", 7)]));
        b.parser(ParserSpec::single(h));
        let p = b.build();
        assert!(matches!(
            p.validate()[0],
            ValidateError::UnalignedHeader { bits: 7, .. }
        ));
    }

    #[test]
    fn region_tables_filters_in_order() {
        let mut b = minimal();
        b.table(table_on(fr(0, 1), 32, Region::Ingress));
        b.table(table_on(fr(0, 0), 8, Region::Egress));
        b.table(table_on(fr(0, 2), 32, Region::Ingress));
        let p = b.build();
        let ing = p.region_tables(Region::Ingress);
        assert_eq!(ing.iter().map(|(i, _)| *i).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(p.region_tables(Region::Egress).len(), 1);
        assert!(p.region_tables(Region::Central).is_empty());
    }
}
