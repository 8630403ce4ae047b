//! Regenerators for the paper's figures.
//!
//! Figures 1 and 4 are the architectures themselves (exercised by every
//! run); Figures 2, 3, 5 and 6 each make a claim we measure.

use adcp_apps::driver::TargetKind;
use adcp_apps::{kvcache, paramserv};
use adcp_core::{AdcpConfig, AdcpSwitch};
use adcp_lang::{compile, CompileOptions, TargetModel};
use adcp_sim::packet::PortId;
use adcp_sim::rng::SimRng;
use adcp_sim::time::SimTime;
use adcp_workloads::gradient::GradientWorkload;
use serde::Serialize;

// -------------------------------------------------------------------
// Figure 2 — coflow convergence restrictions
// -------------------------------------------------------------------

/// One Fig. 2 row: what it costs each variant to converge one coflow and
/// distribute its results.
#[derive(Debug, Clone, Serialize)]
pub struct Fig2Row {
    /// Architecture variant.
    pub target: String,
    /// Did the aggregation produce correct results?
    pub correct: bool,
    /// Ports the coflow's results can reach.
    pub reachable_ports: u16,
    /// Total switch ports.
    pub total_ports: u16,
    /// Extra pipeline traversals per packet (the recirculation tax).
    pub recirc_per_packet: f64,
    /// Makespan, ns.
    pub makespan_ns: f64,
    /// p99 latency, ns.
    pub p99_ns: f64,
}

/// Measure the Fig. 2 claim: a coflow arriving on every pipeline must
/// converge and then reach arbitrary ports. Width is pinned to 1 on all
/// variants so only the *convergence* cost differs (Fig. 6 isolates
/// arrays).
pub fn fig2(quick: bool) -> Vec<Fig2Row> {
    fig2_impl(quick, true)
}

fn fig2_impl(quick: bool, parallel: bool) -> Vec<Fig2Row> {
    let cfg = paramserv::ParamServerCfg {
        workers: 8,
        model_size: if quick { 64 } else { 256 },
        width: 1,
        seed: 2,
    };
    let kinds = vec![
        TargetKind::Adcp,
        TargetKind::RmtRecirc,
        TargetKind::RmtPinned,
    ];
    crate::par::map_points(parallel, kinds, |kind| {
        // Force scalar on ADCP too for the like-for-like convergence
        // comparison.
        let r = paramserv::run(kind, &cfg);
        let t = kind.target_model();
        Fig2Row {
            target: kind.label().into(),
            correct: r.correct,
            // Egress pinning: only the pinned pipeline's ports.
            reachable_ports: if kind == TargetKind::RmtPinned {
                t.ports_per_pipe
            } else {
                t.ports
            },
            total_ports: t.ports,
            recirc_per_packet: r.recirc_passes as f64 / r.injected.max(1) as f64,
            makespan_ns: r.makespan_ns,
            p99_ns: r.latency.p99_ns,
        }
    })
}

// -------------------------------------------------------------------
// Figure 3 — replication due to scalar processing
// -------------------------------------------------------------------

/// One Fig. 3 row: the cost of a `width`-keyed table on each target.
#[derive(Debug, Clone, Serialize)]
pub struct Fig3Row {
    /// Keys per packet.
    pub width: u16,
    /// Physical table copies on RMT.
    pub rmt_replicas: u16,
    /// RMT table memory for 1024 entries, KiB.
    pub rmt_mem_kib: u64,
    /// ADCP table memory for the same table, KiB.
    pub adcp_mem_kib: u64,
    /// Largest cache that compiles on RMT, entries.
    pub rmt_max_entries: u32,
    /// Largest cache that compiles on a dRMT-style pooled-memory target.
    /// Bigger than RMT's (no per-stage bound) but still divided by the
    /// replication factor — pooling does not lift the Fig. 3 tax.
    pub drmt_max_entries: u32,
    /// Largest cache that compiles on ADCP, entries.
    pub adcp_max_entries: u32,
    /// ADCP/RMT capacity ratio (≈ width).
    pub capacity_ratio: f64,
}

/// Compile the kv-cache table at several widths on both targets and read
/// the replication factors and memory budgets off the placements.
pub fn fig3() -> Vec<Fig3Row> {
    let rmt = TargetModel::rmt_12t();
    let drmt = TargetModel::drmt_12t();
    let adcp = TargetModel::adcp_reference();
    crate::par::par_map(vec![1u16, 2, 4, 8, 16], |width| {
        let prog = kvcache::program(width, 1024, PortId(0));
        let p_rmt = compile(&prog, &rmt, CompileOptions::default())
            .expect("1024-entry cache fits both targets");
        let p_adcp = compile(&prog, &adcp, CompileOptions::default()).expect("fits");
        let cache_rmt = p_rmt
            .ingress
            .stages
            .iter()
            .flat_map(|s| &s.tables)
            .find(|t| t.name == "cache")
            .expect("cache placed");
        let cache_adcp = p_adcp
            .ingress
            .stages
            .iter()
            .flat_map(|s| &s.tables)
            .find(|t| t.name == "cache")
            .expect("cache placed");
        let rmt_max = kvcache::max_cache_entries(&rmt, width);
        let drmt_max = kvcache::max_cache_entries(&drmt, width);
        let adcp_max = kvcache::max_cache_entries(&adcp, width);
        Fig3Row {
            width,
            rmt_replicas: cache_rmt.replicas,
            rmt_mem_kib: cache_rmt.mem_bits / 8 / 1024,
            adcp_mem_kib: cache_adcp.mem_bits / 8 / 1024,
            rmt_max_entries: rmt_max,
            drmt_max_entries: drmt_max,
            adcp_max_entries: adcp_max,
            capacity_ratio: adcp_max as f64 / rmt_max.max(1) as f64,
        }
    })
}

/// Fig. 3 follow-through: the hit rate consequence under a Zipf workload.
#[derive(Debug, Clone, Serialize)]
pub struct Fig3HitRow {
    /// Architecture.
    pub target: String,
    /// Keys per packet.
    pub width: u16,
    /// Cache entries installed.
    pub cache_entries: u32,
    /// Observed lane hit rate.
    pub hit_rate: f64,
}

/// Measure cache hit rates at width 8 on both targets.
pub fn fig3_hit_rates(quick: bool) -> Vec<Fig3HitRow> {
    let cfg = kvcache::KvCacheCfg {
        requests: if quick { 300 } else { 2_000 },
        ..Default::default()
    };
    crate::par::par_map(vec![TargetKind::Adcp, TargetKind::RmtPinned], |kind| {
        let out = kvcache::run(kind, &cfg);
        Fig3HitRow {
            target: kind.label().into(),
            width: cfg.width,
            cache_entries: out.cache_entries,
            hit_rate: out.hit_rate,
        }
    })
}

// -------------------------------------------------------------------
// Figure 5 — independent processing and forwarding via the global area
// -------------------------------------------------------------------

/// One Fig. 5 row: a central pipeline's share of the coflow work, and the
/// forwarding freedom of its results.
#[derive(Debug, Clone, Serialize)]
pub struct Fig5Row {
    /// Central pipeline index.
    pub central_pipe: usize,
    /// Packets the pipeline processed (hash placement balance).
    pub busy_cycles: u64,
    /// Distinct egress ports reached by results from this run (same for
    /// every row — the point is it equals *all* worker ports).
    pub distinct_output_ports: usize,
}

/// Run the ADCP parameter server and read placement balance + output
/// freedom directly off the switch.
pub fn fig5(quick: bool) -> Vec<Fig5Row> {
    let cfg = paramserv::ParamServerCfg {
        workers: 8,
        model_size: if quick { 256 } else { 1024 },
        width: 16,
        seed: 3,
    };
    let target = TargetModel::adcp_reference();
    let worker_ports: Vec<PortId> = (0..cfg.workers as u16).map(PortId).collect();
    let prog = paramserv::program(
        &cfg,
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
    let mut rng = SimRng::seed_from(cfg.seed);
    for (i, ch) in wl.all_chunks_shuffled(&mut rng).iter().enumerate() {
        let mut data = Vec::with_capacity(8 + ch.values.len() * 4);
        data.extend_from_slice(&(ch.worker as u16).to_be_bytes());
        data.extend_from_slice(&ch.base_slot.to_be_bytes());
        data.extend_from_slice(&0u16.to_be_bytes());
        for v in &ch.values {
            data.extend_from_slice(&v.to_be_bytes());
        }
        sw.inject(
            PortId(ch.worker as u16),
            adcp_sim::packet::Packet::new(
                i as u64,
                adcp_sim::packet::FlowId(ch.worker as u64),
                data,
            ),
            SimTime::ZERO,
        );
    }
    sw.run_until_idle();
    let delivered = sw.take_delivered();
    let mut ports: Vec<u16> = delivered.iter().map(|d| d.port.0).collect();
    ports.sort_unstable();
    ports.dedup();
    (0..sw.num_central())
        .map(|c| Fig5Row {
            central_pipe: c,
            busy_cycles: sw.central_busy_cycles(c),
            distinct_output_ports: ports.len(),
        })
        .collect()
}

// -------------------------------------------------------------------
// Figure 6 — array matching lifts the key rate
// -------------------------------------------------------------------

/// One Fig. 6 row: analytic and measured key rates at an array width.
#[derive(Debug, Clone, Serialize)]
pub struct Fig6Row {
    /// Keys per packet.
    pub width: u16,
    /// Analytic keys/s (the §3.2 model at RMT's 5.5 Gpps cap).
    pub analytic_keys_per_sec: f64,
    /// Measured elements/s through the simulated ADCP.
    pub measured_elements_per_sec: f64,
    /// Measured speedup over width 1.
    pub measured_speedup: f64,
}

/// Sweep array widths on the simulated ADCP cache and compare to the
/// analytic model's shape.
pub fn fig6(quick: bool) -> Vec<Fig6Row> {
    fig6_impl(quick, true)
}

fn fig6_impl(quick: bool, parallel: bool) -> Vec<Fig6Row> {
    let widths: [u16; 5] = [1, 2, 4, 8, 16];
    let analytic =
        adcp_analytic::keyrate::width_sweep(5.5e9, 12_800.0, 8, &widths.map(|w| w as u32));
    // Each width is an independent run; the speedup baseline (the width-1
    // row) is only known once all points are back, so it is applied after
    // the map rather than threaded through it.
    let measured = crate::par::map_points(parallel, widths.to_vec(), |width| {
        kvcache::run(
            TargetKind::Adcp,
            &kvcache::KvCacheCfg {
                width,
                requests: if quick { 300 } else { 1_500 },
                ..Default::default()
            },
        )
        .report
        .elements_per_sec
    });
    let base = measured[0];
    widths
        .iter()
        .zip(analytic)
        .zip(measured)
        .map(|((&width, a), meas)| Fig6Row {
            width,
            analytic_keys_per_sec: a.keys_per_sec,
            measured_elements_per_sec: meas,
            measured_speedup: meas / base.max(1.0),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_shapes_hold() {
        let rows = fig2(true);
        assert_eq!(rows.len(), 3);
        let adcp = &rows[0];
        let recirc = &rows[1];
        let pinned = &rows[2];
        assert!(rows.iter().all(|r| r.correct));
        // ADCP: full reach, no recirculation.
        assert_eq!(adcp.reachable_ports, adcp.total_ports);
        assert_eq!(adcp.recirc_per_packet, 0.0);
        // RMT recirc: full reach but ~1 extra pass per packet.
        assert_eq!(recirc.reachable_ports, recirc.total_ports);
        assert!(recirc.recirc_per_packet > 0.9);
        // RMT pinned: no recirculation but restricted reach.
        assert_eq!(pinned.recirc_per_packet, 0.0);
        assert!(pinned.reachable_ports < pinned.total_ports);
    }

    #[test]
    fn fig3_replication_grows_with_width() {
        let rows = fig3();
        for r in &rows {
            assert_eq!(r.rmt_replicas, r.width, "one copy per lane on RMT");
            assert_eq!(
                r.rmt_mem_kib,
                r.adcp_mem_kib * r.width as u64,
                "memory scales with replicas"
            );
            if r.width > 1 {
                assert!(
                    r.capacity_ratio > r.width as f64 * 0.7,
                    "capacity ratio ~width: {r:?}"
                );
                // dRMT pooling raises absolute capacity but the width-w
                // division survives: drmt(w) ~ drmt(1)/w.
                assert!(r.drmt_max_entries > r.rmt_max_entries);
            }
        }
        let d1 = rows[0].drmt_max_entries as f64;
        let d8 = rows[3].drmt_max_entries as f64;
        assert!(
            (d1 / d8 / 8.0 - 1.0).abs() < 0.1,
            "dRMT still divides by width: {d1} vs {d8}"
        );
    }

    #[test]
    fn fig5_balanced_and_unrestricted() {
        let rows = fig5(true);
        assert_eq!(rows.len(), 4, "adcp_reference has 4 central pipes");
        // Hash placement touches every central pipeline.
        assert!(rows.iter().all(|r| r.busy_cycles > 0), "{rows:?}");
        // Results reached all 8 worker ports.
        assert!(rows.iter().all(|r| r.distinct_output_ports == 8));
    }

    /// The parallel sweeps must be bit-identical to their sequential
    /// reference: every point owns its switch and seeded RNG, so thread
    /// scheduling cannot leak into the rows.
    #[test]
    fn fig_sweeps_par_matches_seq() {
        let par = serde_json::to_string(&fig2_impl(true, true)).unwrap();
        let seq = serde_json::to_string(&fig2_impl(true, false)).unwrap();
        assert_eq!(par, seq, "fig2 rows must not depend on scheduling");
        let par = serde_json::to_string(&fig6_impl(true, true)).unwrap();
        let seq = serde_json::to_string(&fig6_impl(true, false)).unwrap();
        assert_eq!(par, seq, "fig6 rows must not depend on scheduling");
    }

    #[test]
    fn fig6_order_of_magnitude() {
        let rows = fig6(true);
        let last = rows.last().unwrap();
        assert_eq!(last.width, 16);
        assert!(
            last.measured_speedup > 8.0,
            "§3.2 promises ~an order of magnitude; got {:.1}x",
            last.measured_speedup
        );
        // Analytic and measured speedups agree in shape (within 2x).
        for r in &rows {
            let analytic_speedup = r.analytic_keys_per_sec / rows[0].analytic_keys_per_sec;
            assert!(
                r.measured_speedup > analytic_speedup / 2.0
                    && r.measured_speedup < analytic_speedup * 2.0,
                "width {}: measured {:.1}x vs analytic {:.1}x",
                r.width,
                r.measured_speedup,
                analytic_speedup
            );
        }
    }
}
