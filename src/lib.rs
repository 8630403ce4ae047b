//! # adcp — Application-Defined Coflow Processor (facade crate)
//!
//! Umbrella crate re-exporting the workspace that reproduces
//! *"Rethinking the Switch Architecture for Stateful In-network
//! Computing"* (HotNets '24):
//!
//! * [`sim`] — simulation substrate (time, packets, ports, queues,
//!   schedulers, stats, fault injection).
//! * [`lang`] — the match-action program IR, per-target compiler, and
//!   interpreter.
//! * [`rmt`] — the baseline RMT switch model (paper Fig. 1).
//! * [`core`] — the ADCP switch model (paper Fig. 4): dual traffic
//!   managers, global partitioned area, array MAUs, port demultiplexing.
//! * [`ctrl`] — the control plane for the global partitioned area: load
//!   observation, repartition planning, live state migration.
//! * [`fabric`] — leaf–spine fabric of ADCP switches: modeled links, the
//!   one-big-switch placement pass, cross-switch state ownership.
//! * [`workloads`] — coflow/zipf/gradient/shuffle/BSP generators.
//! * [`apps`] — the Table 1 applications on both architectures.
//! * [`analytic`] — the paper's Tables 2/3 arithmetic and §4 feasibility
//!   models.
//!
//! See `README.md` for a quickstart, `DESIGN.md` for the system
//! inventory, and `EXPERIMENTS.md` for paper-vs-measured results. The
//! regenerators are rows of the `adcp-bench` crate's `experiments::ROWS`,
//! run by its one command (`cargo run -p adcp-bench -- exp table1`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use adcp_analytic as analytic;
pub use adcp_apps as apps;
pub use adcp_core as core;
pub use adcp_ctrl as ctrl;
pub use adcp_fabric as fabric;
pub use adcp_lang as lang;
pub use adcp_rmt as rmt;
pub use adcp_sim as sim;
pub use adcp_workloads as workloads;
