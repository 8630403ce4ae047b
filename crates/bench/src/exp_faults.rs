//! Fault-injection sweep: how in-network aggregation degrades on lossy
//! links.
//!
//! SwitchML-style aggregation is all-or-nothing per chunk: a chunk whose
//! contribution was lost never completes (the switch holds a partial sum
//! forever — in real deployments an end-host timeout retransmits). The
//! sweep quantifies the blast radius: at per-link drop probability `p`, a
//! chunk needs all `W` contributions, so its completion probability is
//! `(1-p)^W` — the measured completion fraction should track that curve.

use adcp_apps::driver::TargetKind;
use adcp_apps::paramserv::{self, ParamServerCfg};
use adcp_core::{AdcpConfig, AdcpSwitch};
use adcp_lang::{CompileOptions, TargetModel};
use adcp_sim::fault::{FaultConfig, FaultInjector, FaultOutcome};
use adcp_sim::packet::{FlowId, Packet, PortId};
use adcp_sim::rng::SimRng;
use adcp_sim::time::SimTime;
use adcp_workloads::gradient::GradientWorkload;
use serde::Serialize;

/// One fault-sweep row.
#[derive(Debug, Clone, Serialize)]
pub struct FaultRow {
    /// Per-link drop probability.
    pub drop_chance: f64,
    /// Contributions actually lost.
    pub dropped: u64,
    /// Chunks that completed (all workers contributed).
    pub completed_chunks: u64,
    /// Total chunks in the model.
    pub total_chunks: u64,
    /// Measured completion fraction.
    pub completion: f64,
    /// The analytic expectation `(1-p)^workers`.
    pub expected_completion: f64,
}

/// Sweep drop probabilities over the ADCP parameter server.
pub fn ablate_faults(quick: bool) -> Vec<FaultRow> {
    // Quick mode still models 128 chunks: the completion-vs-loss comparison
    // is statistical, and fewer chunks puts honest RNG draws outside the
    // test tolerance (~1.6σ at 32 chunks).
    let cfg = ParamServerCfg {
        workers: 8,
        model_size: if quick { 2048 } else { 4096 },
        width: 16,
        seed: 77,
    };
    [0.0, 0.01, 0.05, 0.1, 0.2]
        .into_iter()
        .map(|p| run_with_loss(&cfg, p))
        .collect()
}

fn run_with_loss(cfg: &ParamServerCfg, drop_chance: f64) -> FaultRow {
    let target = TargetModel::adcp_reference();
    let worker_ports: Vec<PortId> = (0..cfg.workers as u16).map(PortId).collect();
    let prog = paramserv::program(
        cfg,
        TargetKind::Adcp,
        target.central_pipes as u32,
        &worker_ports,
        PortId(cfg.workers as u16),
    );
    let mut sw = AdcpSwitch::new(
        prog,
        target,
        CompileOptions::default(),
        AdcpConfig::default(),
    )
    .expect("compiles");
    let wl = GradientWorkload::new(cfg.workers, cfg.model_size, cfg.width);
    let mut inj = FaultInjector::new(FaultConfig::lossy(drop_chance), SimRng::seed_from(5));
    let mut rng = SimRng::seed_from(cfg.seed);
    for (i, ch) in wl.all_chunks_shuffled(&mut rng).iter().enumerate() {
        let mut data = Vec::with_capacity(8 + ch.values.len() * 4);
        data.extend_from_slice(&(ch.worker as u16).to_be_bytes());
        data.extend_from_slice(&ch.base_slot.to_be_bytes());
        data.extend_from_slice(&0u16.to_be_bytes());
        for v in &ch.values {
            data.extend_from_slice(&v.to_be_bytes());
        }
        let mut pkt = Packet::new(i as u64, FlowId(ch.worker as u64), data);
        if inj.apply(&mut pkt) == FaultOutcome::Dropped {
            continue;
        }
        sw.inject(PortId(ch.worker as u16), pkt, SimTime::ZERO);
    }
    sw.run_until_idle();
    sw.check_conservation();
    let total_chunks = (cfg.model_size / cfg.width) as u64;
    let completed = sw.counters.delivered / cfg.workers as u64;
    FaultRow {
        drop_chance,
        dropped: inj.dropped,
        completed_chunks: completed,
        total_chunks,
        completion: completed as f64 / total_chunks as f64,
        expected_completion: (1.0 - drop_chance).powi(cfg.workers as i32),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_completes_everything() {
        let rows = ablate_faults(true);
        assert_eq!(rows[0].drop_chance, 0.0);
        assert_eq!(rows[0].completion, 1.0);
        assert_eq!(rows[0].dropped, 0);
    }

    #[test]
    fn completion_tracks_the_analytic_curve() {
        for r in ablate_faults(true) {
            assert!(
                (r.completion - r.expected_completion).abs() < 0.12,
                "p={}: measured {:.3} vs expected {:.3}",
                r.drop_chance,
                r.completion,
                r.expected_completion
            );
        }
    }

    #[test]
    fn completion_is_monotone_in_loss() {
        let rows = ablate_faults(true);
        for w in rows.windows(2) {
            assert!(
                w[1].completion <= w[0].completion + 0.05,
                "more loss should not complete more chunks: {w:?}"
            );
        }
    }
}
