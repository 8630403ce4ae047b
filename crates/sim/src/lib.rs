//! # adcp-sim — simulation substrate
//!
//! Cycle-level simulation primitives shared by the RMT baseline
//! (`adcp-rmt`) and the ADCP switch model (`adcp-core`):
//!
//! * [`time`] — picosecond timestamps and frequencies turned into clock
//!   periods (the currency of the paper's Tables 2 and 3).
//! * [`packet`] — packets, flows, coflows, and forwarding specs.
//! * [`port`] — RX/TX link models with exact serialization timing.
//! * [`link`] — inter-switch cables (store-and-forward serialization plus
//!   propagation latency) for multi-switch fabrics.
//! * [`queue`] — bounded queues and shared-memory buffer pools.
//! * [`sched`] — FIFO / strict-priority / DRR / order-preserving-merge
//!   schedulers (the last is the §3.1 "expanded TM semantics").
//! * [`fault`] — drop/corrupt/delay fault injection.
//! * [`stats`] — throughput meters, latency histograms.
//! * [`metrics`] — per-stage metrics registry (span histograms,
//!   queue-depth series; counters and gauges exported as derived rows)
//!   with uniform JSON export.
//! * [`trace`] — sampled packet-journey flight recorder with always-on
//!   drop forensics and control-plane instants.
//! * [`int`] — in-band network telemetry: per-hop stamps the datapath
//!   writes onto transiting packets, postcards for collectors, and the
//!   per-flow aggregation cells ADCP keeps in central register state.
//! * [`telemetry`] — the INT collector: drain postcards into per-flow
//!   paths and per-queue depth series, detect microbursts, path changes
//!   and drop hotspots, and emit schema-validated reports.
//! * [`datapath`] — the device shell, pipeline slot, TM admit/depart and
//!   batch run loop that both switch models are wired from.
//! * [`rng`] — deterministic, forkable randomness.
//! * [`shutdown`] — cooperative SIGINT/SIGTERM shutdown flag for the
//!   long-running commands (`adcpd`, `adcp trace`, `adcp conformance`).
//!
//! Everything is synchronous, allocation-light, and deterministic given a
//! seed; the models that build on it are CPU-bound state machines, so there
//! is deliberately no async runtime here.

#![warn(missing_docs)]
// `deny` rather than `forbid`: the `shutdown` module registers POSIX
// signal handlers through one audited `unsafe extern` block (std links
// libc but exposes no safe wrapper, and the build environment is offline
// so no signal-handling crate can be added). Everything else stays safe.
#![deny(unsafe_code)]

pub mod datapath;
pub mod event;
pub mod fault;
pub mod int;
pub mod link;
pub mod metrics;
pub mod packet;
pub mod port;
pub mod queue;
pub mod rng;
pub mod sched;
pub mod schema;
pub mod shaper;
pub mod shutdown;
pub mod stats;
pub mod telemetry;
pub mod time;
pub mod trace;

pub use event::EventQueue;
pub use fault::{FaultConfig, FaultInjector, FaultOutcome};
pub use int::{IntFlowTable, IntKnob, IntStack, IntStamp, Postcard, INT_MAX_HOPS};
pub use link::Link;
pub use metrics::{HistId, MetricsRegistry, ScopeId, SeriesId, TimeSeries};
pub use packet::{
    synthetic_packet, CoflowId, EgressSpec, FlowId, Packet, PacketMeta, PortId, MIN_WIRE_BYTES,
};
pub use port::{LinkSpeed, RxPort, TxPort};
pub use queue::{BoundedQueue, BufferPool, Held};
pub use rng::SimRng;
pub use sched::{Policy, ScheduledQueues};
pub use shaper::TokenBucket;
pub use stats::{LatencyHist, LatencySummary, Meter};
pub use time::{Duration, Freq, SimTime};
pub use trace::{CtrlEvent, DropReason, Hop, HopCtx, JourneyTracer, Site};
