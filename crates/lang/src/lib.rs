//! # adcp-lang — match-action program IR and compiler
//!
//! A small, P4-flavoured intermediate representation for switch programs,
//! shared by the RMT baseline and the ADCP model:
//!
//! * [`header`] — packet formats with scalar **and array** fields (§3.2).
//! * [`parser`] — parse graphs and the parsing engine.
//! * [`phv`] — packet header vectors with array slots and intrinsic
//!   metadata (egress decision, central-pipeline choice, merge sort key);
//!   the layout indexes every field and holds each header's extraction
//!   plan.
//! * [`table`] / [`action`] / [`registers`] — match-action tables, action
//!   primitives (including wide register ops), stateful register files.
//! * [`program`] — complete programs + validation + a fluent builder.
//! * [`target`] — per-architecture resource models (Table 2/3 presets).
//! * [`fabric`] — one-big-switch → leaf–spine placement: phase-gated
//!   program splitting with key-range state ownership (SNAP/LOADER-style).
//! * [`compile`] — placement onto targets. Array tables replicate on RMT
//!   (Fig. 3) and share interconnected MAU memory on ADCP (Fig. 6);
//!   central tables lower to egress-pinning or recirculation on RMT
//!   (Fig. 2) and place natively on ADCP (§3.1).
//! * [`codec`] — parse at a pipeline's head, deparse + metadata writeback
//!   at its tail; the one pair both switch models call.
//! * [`exec`] — the interpreter: per-pipeline region state with lane
//!   (SIMD-style) semantics for array tables.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod action;
pub mod codec;
pub mod compile;
pub mod describe;
pub mod exec;
pub mod fabric;
pub mod header;
pub mod parser;
pub mod phv;
pub mod program;
pub mod protocols;
pub mod registers;
pub mod table;
pub mod target;

pub use action::{fold_hash, ActionDef, ActionOp, BinOp, Operand};
pub use codec::PacketCodec;
pub use compile::{
    compile, CentralImpl, CompileError, CompileOptions, PlacedTable, Placement, RegionPlan,
    RmtCentralStrategy, StagePlan,
};
pub use describe::{describe_placement, describe_program};
pub use exec::{RegionRunStats, RegionState};
pub use fabric::{place, FabricPlacement, FabricSpec, PlaceError};
pub use header::{deposit_bits, extract_bits, FieldDef, FieldId, FieldRef, HeaderDef, HeaderId};
pub use parser::{
    deparse, deparse_into, ParseError, ParseOutcome, ParserSpec, ParserState, StateId, Transition,
};
pub use phv::{Intrinsics, Phv, PhvLayout};
pub use program::{Program, ProgramBuilder, TmSpec, ValidateError};
pub use registers::{RegAluOp, RegId, RegisterDef, RegisterFile};
pub use table::{
    Entry, KeySpec, MatchKind, MatchValue, Region, TableDef, TableError, TableRuntime,
};
pub use target::{Arch, TargetModel};
