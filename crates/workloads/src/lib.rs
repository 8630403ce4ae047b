//! # adcp-workloads — synthetic workload generators
//!
//! The paper's Table 1 applications run on proprietary clusters and
//! datasets; these generators synthesize the *communication structure*
//! that matters to the switch (see DESIGN.md's substitution table):
//!
//! * [`keys`] — Zipf key popularity.
//! * [`coflow`] — coflow-completion-time tracking.
//! * [`gradient`] — ML parameter-aggregation steps with closed-form
//!   expected aggregates.
//! * [`shuffle`] — database filter–aggregate–reshuffle row streams.
//! * [`graph`] — BSP graph-pattern-mining supersteps (grow-then-collapse).
//! * [`arrival`] — open-loop arrivals: a diurnal profile with an MMPP burst
//!   overlay.
//! * [`traffic`] — million-flow TE/security mixes: heavy-tailed benign
//!   traffic, bursty arrivals, and an adversarial attack ramp.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arrival;
pub mod coflow;
pub mod gradient;
pub mod graph;
pub mod keys;
pub mod shuffle;
pub mod traffic;

pub use coflow::CoflowTracker;
pub use gradient::{GradientChunk, GradientWorkload};
pub use graph::{BspJob, BspWorkload, StepMessage};
pub use keys::{ZipfCdf, ZipfKeys};
pub use shuffle::{Row, ShuffleWorkload};
pub use traffic::{AttackRamp, FlowEvent, TrafficCfg, TrafficGen};
