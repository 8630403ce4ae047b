//! # adcp-bench — the experiment harness
//!
//! Library behind the `adcp` command (`src/main.rs`):
//!
//! * [`experiments`] — the regenerators as rows: one `Experiment` per
//!   paper table or figure, each rendering its tables' rows and console
//!   text; `adcp exp <name>` runs one.
//! * [`exp_tables`] — Table 1 (live application matrix: a loop over the
//!   Table-1 rows of `adcp_apps::suite::APPS` × each row's targets),
//!   Tables 2/3 (scaling arithmetic vs the paper's printed rows).
//! * [`exp_figs`] — Fig. 2 (coflow convergence costs), Fig. 3 (table
//!   replication + hit-rate consequence), Fig. 5 (global-area balance and
//!   forwarding freedom), Fig. 6 (key-rate vs array width).
//! * [`exp_ablations`] — demux ratio, TM floorplan congestion, multi-clock
//!   MAT envelope.
//! * [`exp_sched`] — the §5 extension: a programmable (PIFO) first TM
//!   running shortest-coflow-first.
//! * [`exp_faults`] — aggregation completion vs per-link loss.
//! * [`exp_load`] — offered load vs latency on both architectures (the
//!   honest cost of the central hop).
//! * [`exp_tse`] — E-TS1: the stateful TE/security workloads (load-driven
//!   flowlet forwarding, DDoS detection with live hot-range isolation) at
//!   up to a million live flows per target.
//! * [`exp_soak`] — E-D1: the `adcpd` serving-daemon soak matrix — both
//!   serving apps through the fault choreography, each run twice, graded
//!   on invariant health and byte-identity of the rerun.
//! * [`conformance`] — the E-C1 differential conformance harness behind
//!   `adcp conformance`, a module directory: `gen` (random program and
//!   workload, fault schedule), `reference` (the plain interpreter),
//!   `legs` (one row per target — ADCP, both RMT lowerings, partitioned
//!   and migrated ADCP, the fabric — and the sabotage hooks), `checks`
//!   (per-device sanity, INT honesty, outcome comparison), `run` (a spec
//!   over its rows, cases over their clean and fault phases) and `shrink`
//!   (minimise a failure, write and replay its artifact).
//! * [`journey`] — journey-tracer consumers: Chrome-trace/Perfetto export,
//!   drop forensics cross-checked against the exported counters, and
//!   packet-walk printing (behind `adcp trace --chrome/--forensics/
//!   --journeys`).
//! * [`par`] — order-preserving scoped-thread map; every sweep above runs
//!   its config points through it.
//! * [`report`] — console tables and `--json` output.
//! * [`trace`] — lookup of a `suite::APPS` row by name and per-stage
//!   flattening for `adcp trace`.
//! * [`shutdown`] — SIGINT/SIGTERM latch (re-exported from `adcp-sim`)
//!   behind the graceful-exit paths of `adcp trace --app table1`,
//!   `adcp conformance`, and `adcp exp exp_soak`: long sweeps stop at the
//!   next case boundary and still flush a partial report.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod conformance;
pub mod exp_ablations;
pub mod exp_faults;
pub mod exp_figs;
pub mod exp_load;
pub mod exp_migrate;
pub mod exp_sched;
pub mod exp_soak;
pub mod exp_tables;
pub mod exp_tse;
pub mod experiments;
pub mod journey;
pub mod par;
pub mod report;
pub mod trace;

pub use adcp_sim::shutdown;
