//! # adcp-apps — the Table 1 applications, executable
//!
//! Each module implements one coflow application class from the paper's
//! Table 1 on both switch models, with the per-architecture restructuring
//! the paper describes (scalar packets and recirculation or egress pinning
//! on RMT; array processing and the global partitioned area on ADCP):
//!
//! * [`paramserv`] — ML parameter aggregation (SwitchML-style).
//! * [`dbshuffle`] — database filter–aggregate–reshuffle.
//! * [`graphmine`] — BSP graph pattern mining with in-switch barriers.
//! * [`groupcomm`] — switch-initiated group transfer, heterogeneous NICs.
//! * [`kvcache`] — key/value cache with array lookups (exercises Fig. 3).
//! * [`netlock`] — in-network ticket-lock service (the coordination class
//!   of §1), with a packet-record mutual-exclusion proof.
//! * [`flowlet`] — load-driven flowlet forwarding (HULA-style): per-flow
//!   state plus shared per-uplink load estimates fed by decay probes.
//! * [`ddos`] — per-source DDoS detection with threshold promotion /
//!   demotion and a mid-attack live reshard of the hot key range.
//!
//! * [`migrate`] — partitioned shard counting under live repartitioning
//!   ("partmigrate").
//!
//! [`driver`] holds the shared switch abstraction, the one function that
//! turns a [`TargetKind`] into a switch, and the [`driver::AppReport`] all
//! apps produce. [`suite`] is the table of apps every driver loops over.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dbshuffle;
pub mod ddos;
pub mod driver;
pub mod flowlet;
pub mod graphmine;
pub mod groupcomm;
pub mod kvcache;
pub mod migrate;
pub mod netlock;
pub mod paramserv;
pub mod suite;

pub use driver::{AnySwitch, AppReport, Delivered, TargetKind};
