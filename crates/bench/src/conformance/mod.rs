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

use adcp_sim::fault::FaultConfig;
use serde::Serialize;

mod checks;
mod gen;
mod legs;
mod reference;
mod run;
mod shrink;
#[cfg(test)]
mod tests;

pub use run::{pin_text, run, run_spec, FailureRecord, Report, RunConfig};
pub use shrink::{replay, shrink, spec_from_value};

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

/// Test-only semantic sabotage, for proving the harness catches bugs: the
/// hook perturbs what *one kind of target* is handed or built from (product
/// code is never touched), which the differential comparison must then flag
/// and shrink. RMT rows are never sabotaged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BugHook {
    /// No sabotage (the normal mode).
    #[default]
    None,
    /// Swap `RegAluOp::Add` and `RegAluOp::Max` in every register op of the
    /// program given to the ADCP target.
    SwapAddMax,
    /// Silently lose every other drop's forensic record on the ADCP
    /// target (and on every leaf of the fabric) while the switch's drop
    /// counters keep counting — the "drops without recording" bug the
    /// journey tracer's forensics↔counter cross-check exists to catch.
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
