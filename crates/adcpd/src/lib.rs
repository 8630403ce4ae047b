//! # adcpd — the ADCP serving daemon
//!
//! Everything else in this repository runs a workload to completion and
//! exits; real switches do neither. `adcpd` models the missing regime:
//! a **continuously running** ADCP serving an open-loop population of
//! clients whose offered load breathes (diurnal sinusoid) and spikes
//! (Markov-modulated bursts), while a control loop watches per-app
//! latency SLOs and **scales the central pipeline allocation up and
//! down** — the paper's §3.1 repartitioning machinery promoted from a
//! one-shot demo to a closed loop.
//!
//! The crate is a library plus a thin `adcpd` binary:
//!
//! * [`menu`] — the serving programs (shard counting / shard max) with
//!   bounded-memory correctness oracles.
//! * [`slo`] — sliding-window p50/p99 SLO tracking and burn rate, the
//!   signal the autoscaler consumes.
//! * [`stream`] — rotating, schema-validated metrics snapshots and
//!   Chrome-trace slice timelines.
//! * [`daemon`] — the event loop: bounded time slices, fault schedules,
//!   graceful drain, and the zero-drift soak report.
//!
//! Determinism is load-bearing: a soak report is a pure function of the
//! [`daemon::DaemonCfg`] — it contains no wall-clock times, and the daemon
//! runs on one thread, so the same config must produce **byte-identical**
//! reports on every run (CI reruns it, plain and with INT on). The daemon
//! keeps the journey tracer in drops-only mode
//! (`JourneyTracer::with_sample(0, 1)`) so forensics stay exact at zero
//! hop-ring cost.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod daemon;
pub mod menu;
pub mod slo;
pub mod stream;
