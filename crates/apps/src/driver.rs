//! Shared plumbing for running one application on either switch model.
//!
//! Each app module builds per-architecture program variants (the paper's
//! point is precisely that RMT forces restructuring), drives the switch
//! with a workload, verifies results against a closed-form reference, and
//! returns an [`AppReport`] the benches print.

use adcp_core::{AdcpConfig, AdcpSwitch};
use adcp_lang::{
    CompileError, CompileOptions, Entry, Placement, Program, RmtCentralStrategy, TableError,
    TargetModel,
};
use adcp_rmt::{RmtConfig, RmtSwitch};
use adcp_sim::datapath::Shell;
use adcp_sim::packet::{Packet, PortId};
use adcp_sim::stats::LatencySummary;
use adcp_sim::time::{Duration, SimTime};
use serde::Serialize;

pub use adcp_sim::datapath::Delivered;

/// Which architecture (and, for RMT, which central-table lowering) an app
/// variant targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum TargetKind {
    /// Classic RMT, central tables egress-pinned.
    RmtPinned,
    /// Classic RMT, central tables via recirculation.
    RmtRecirc,
    /// The ADCP.
    Adcp,
}

impl TargetKind {
    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            TargetKind::RmtPinned => "rmt/pinned",
            TargetKind::RmtRecirc => "rmt/recirc",
            TargetKind::Adcp => "adcp",
        }
    }
}

/// Either switch model behind one interface. Derefs to the [`Shell`] of
/// whichever it holds, so everything that is shell state — `counters`,
/// deliveries, `out_meter`, `latency`, `trace_json`, `tm_buffer_hwm` — is
/// reached without a per-model forward.
pub enum AnySwitch {
    /// The RMT baseline.
    Rmt(Box<RmtSwitch>),
    /// The coflow processor.
    Adcp(Box<AdcpSwitch>),
}

impl std::ops::Deref for AnySwitch {
    type Target = Shell;
    fn deref(&self) -> &Shell {
        match self {
            AnySwitch::Rmt(s) => s,
            AnySwitch::Adcp(s) => s,
        }
    }
}

impl std::ops::DerefMut for AnySwitch {
    fn deref_mut(&mut self) -> &mut Shell {
        match self {
            AnySwitch::Rmt(s) => s,
            AnySwitch::Adcp(s) => s,
        }
    }
}

impl TargetKind {
    /// The target preset this kind compiles for.
    pub fn target_model(self) -> TargetModel {
        match self {
            TargetKind::Adcp => TargetModel::adcp_reference(),
            TargetKind::RmtPinned | TargetKind::RmtRecirc => TargetModel::rmt_12t(),
        }
    }
}

/// Compile a program for `kind` and build its switch. This and
/// [`TargetKind::target_model`] are the one place that knows which target
/// preset, central-table lowering and constructor a [`TargetKind`] stands
/// for; a new kind is one arm in each.
///
/// `program` builds the program for the preset it is handed (apps size
/// their partition hash from it, see [`state_pipes`]). Of the two device
/// configs only the one for `kind`'s model is used.
pub fn build_with(
    kind: TargetKind,
    adcp: AdcpConfig,
    rmt: RmtConfig,
    program: impl FnOnce(&TargetModel) -> Program,
) -> Result<AnySwitch, CompileError> {
    let target = kind.target_model();
    let program = program(&target);
    Ok(match kind {
        TargetKind::Adcp => {
            let opts = CompileOptions::default();
            AnySwitch::Adcp(Box::new(AdcpSwitch::new(program, target, opts, adcp)?))
        }
        TargetKind::RmtPinned | TargetKind::RmtRecirc => {
            let opts = CompileOptions {
                rmt_central: if kind == TargetKind::RmtRecirc {
                    RmtCentralStrategy::Recirculate
                } else {
                    RmtCentralStrategy::EgressPin
                },
            };
            AnySwitch::Rmt(Box::new(RmtSwitch::new(program, target, opts, rmt)?))
        }
    })
}

/// [`build_with`] under both models' default device config.
pub fn build(
    kind: TargetKind,
    program: impl FnOnce(&TargetModel) -> Program,
) -> Result<AnySwitch, CompileError> {
    build_with(kind, AdcpConfig::default(), RmtConfig::default(), program)
}

/// How many pipelines a program can spread central state across on
/// `target`: its central pipelines where it has a global partitioned area,
/// else every ingress pipeline (where a recirculating lowering keeps it).
pub fn state_pipes(target: &TargetModel) -> u32 {
    u32::from(if target.has_central() {
        target.central_pipes
    } else {
        target.num_pipes()
    })
}

impl AnySwitch {
    /// The target model the switch was built for.
    pub fn target(&self) -> &TargetModel {
        match self {
            AnySwitch::Rmt(s) => s.target(),
            AnySwitch::Adcp(s) => s.target(),
        }
    }

    /// What the compiler made of the program (stages, lowering, notes).
    pub fn placement(&self) -> &Placement {
        match self {
            AnySwitch::Rmt(s) => &s.placement,
            AnySwitch::Adcp(s) => &s.placement,
        }
    }

    /// The concrete ADCP, for the control-plane steps only it has (the
    /// partition map, live migration). Panics on an RMT switch: it has no
    /// global partitioned area to repartition.
    pub fn adcp_mut(&mut self) -> &mut AdcpSwitch {
        match self {
            AnySwitch::Adcp(s) => s,
            AnySwitch::Rmt(_) => unreachable!("only the ADCP has a partitioned area"),
        }
    }

    /// Install a table entry into every pipeline hosting the table.
    pub fn install_all(&mut self, table: &str, entry: Entry) -> Result<(), TableError> {
        match self {
            AnySwitch::Rmt(s) => s.install_all(table, entry),
            AnySwitch::Adcp(s) => s.install_all(table, entry),
        }
    }

    /// Offer a packet to an RX port.
    pub fn inject(&mut self, port: PortId, pkt: Packet, t: SimTime) {
        match self {
            AnySwitch::Rmt(s) => s.inject(port, pkt, t),
            AnySwitch::Adcp(s) => s.inject(port, pkt, t),
        }
    }

    /// Run to quiescence.
    pub fn run_until_idle(&mut self) -> SimTime {
        match self {
            AnySwitch::Rmt(s) => s.run_until_idle(),
            AnySwitch::Adcp(s) => s.run_until_idle(),
        }
    }

    /// Run every event scheduled at or before `t`, then stop.
    pub fn run_until(&mut self, t: SimTime) -> SimTime {
        match self {
            AnySwitch::Rmt(s) => s.run_until(t),
            AnySwitch::Adcp(s) => s.run_until(t),
        }
    }

    /// Assert packet conservation.
    pub fn check_conservation(&self) {
        match self {
            AnySwitch::Rmt(s) => s.check_conservation(),
            AnySwitch::Adcp(s) => s.check_conservation(),
        }
    }

    /// Export the per-stage metrics block, each value read from its owner
    /// now.
    pub fn metrics_json(&self) -> serde::Value {
        match self {
            AnySwitch::Rmt(s) => s.metrics_json(),
            AnySwitch::Adcp(s) => s.metrics_json(),
        }
    }
}

/// The result of running one app variant.
#[derive(Debug, Clone, Serialize)]
pub struct AppReport {
    /// Application name.
    pub app: String,
    /// Architecture variant.
    pub target: String,
    /// Did the application produce exactly the reference results?
    pub correct: bool,
    /// Packets injected.
    pub injected: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Packets dropped (all classes; includes intentional consumption).
    pub drops: u64,
    /// Recirculation passes (RMT only).
    pub recirc_passes: u64,
    /// Wall-clock (simulated) duration of the run, ns.
    pub makespan_ns: f64,
    /// Delivered goodput, Gbps.
    pub goodput_gbps: f64,
    /// Application data elements per second.
    pub elements_per_sec: f64,
    /// Match-table key lookups executed (all regions, all lanes).
    pub mat_lookups: u64,
    /// Fraction of lookups that hit an installed entry.
    pub mat_hit_rate: f64,
    /// Writeback passes (pipeline traversals that reached their deparser;
    /// see `Counters::deparse_allocs` — a count of passes, not of buffers).
    pub deparse_allocs: u64,
    /// Latency summary of delivered packets.
    pub latency: LatencySummary,
    /// Per-stage metrics block exported by the switch's metrics registry
    /// (counters, gauges, span histograms, queue-depth series by scope).
    pub metrics: serde::Value,
    /// Journey-tracer block (sampled hops, drop forensics, control
    /// instants); `{"enabled": false}` when tracing was off for the run.
    pub trace: serde::Value,
    /// Free-form observations (compiler notes, feature restrictions).
    pub notes: Vec<String>,
}

impl AppReport {
    /// Assemble a report from a finished switch run.
    pub fn from_switch(
        app: &str,
        target: TargetKind,
        sw: &AnySwitch,
        makespan: SimTime,
        correct: bool,
        notes: Vec<String>,
    ) -> Self {
        let c = &sw.counters;
        let elapsed = Duration(makespan.as_ps().max(1));
        AppReport {
            app: app.to_string(),
            target: target.label().to_string(),
            correct,
            injected: c.injected,
            delivered: c.delivered,
            drops: c.total_drops(),
            recirc_passes: c.recirc_passes,
            makespan_ns: makespan.as_ps() as f64 / 1e3,
            goodput_gbps: sw.out_meter.goodput_gbps(elapsed),
            elements_per_sec: sw.out_meter.elements_per_sec(elapsed),
            mat_lookups: c.mat_lookups,
            mat_hit_rate: c.mat_hit_rate(),
            deparse_allocs: c.deparse_allocs,
            latency: LatencySummary::from(&sw.latency),
            metrics: sw.metrics_json(),
            trace: sw.trace_json(),
            notes,
        }
    }

    /// One fixed-width summary line for console tables.
    pub fn summary_line(&self) -> String {
        format!(
            "{:<22} {:<11} ok={:<5} in={:<7} out={:<7} drop={:<6} recirc={:<6} mkspan={:>10.1}ns gp={:>7.2}Gbps elems/s={:>10.3e} p99={:>8.1}ns",
            self.app,
            self.target,
            self.correct,
            self.injected,
            self.delivered,
            self.drops,
            self.recirc_passes,
            self.makespan_ns,
            self.goodput_gbps,
            self.elements_per_sec,
            self.latency.p99_ns,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_returns_the_compilers_own_rejection() {
        // paramserv's ADCP variant sums a 16-wide array in one action —
        // scalar MAUs cannot, and both RMT kinds must say so as an `Err`
        // (conformance's `rmt_accepts` reports it), not panic.
        let ports: Vec<PortId> = (0..4).map(PortId).collect();
        for kind in [TargetKind::RmtPinned, TargetKind::RmtRecirc] {
            let built = build(kind, |target| {
                let cfg = crate::paramserv::ParamServerCfg::default();
                let pipes = state_pipes(target);
                crate::paramserv::program(&cfg, TargetKind::Adcp, pipes, &ports, PortId(4))
            });
            assert!(
                matches!(
                    built,
                    Err(CompileError::ArrayOpUnsupported { width: 16, .. })
                ),
                "{kind:?}: {:?}",
                built.err()
            );
        }
    }

    #[test]
    fn target_labels() {
        assert_eq!(TargetKind::Adcp.label(), "adcp");
        assert_eq!(TargetKind::RmtPinned.label(), "rmt/pinned");
        assert_eq!(TargetKind::RmtRecirc.label(), "rmt/recirc");
    }
}
