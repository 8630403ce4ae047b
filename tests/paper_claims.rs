//! The paper's headline claims, as executable assertions across the whole
//! stack. Each test names the section/figure it reproduces.

use adcp::analytic::scaling;
use adcp::apps::driver::TargetKind;
use adcp::apps::{kvcache, paramserv};

/// §2 ②: a 12.8 Tbps RMT processes 5–6 Gpps, so scalar applications are
/// capped near 6 G key-ops/s.
#[test]
fn scalar_rmt_key_rate_capped() {
    let t = adcp::lang::TargetModel::rmt_12t();
    let bpps = t.max_pps() / 1e9;
    assert!((5.0..7.0).contains(&bpps), "bpps = {bpps}");
    let p = adcp::analytic::keyrate::key_rate(t.max_pps(), 12_800.0, 8, 1);
    assert!(p.keys_per_sec <= 6.5e9);
}

/// §3.2: "By supporting 8- or 16-wide array processing, the ADCP
/// architecture can push that limit by one order of magnitude."
#[test]
fn array_processing_order_of_magnitude() {
    let narrow = kvcache::run(
        TargetKind::Adcp,
        &kvcache::KvCacheCfg {
            width: 1,
            requests: 400,
            ..Default::default()
        },
    );
    let wide = kvcache::run(
        TargetKind::Adcp,
        &kvcache::KvCacheCfg {
            width: 16,
            requests: 400,
            ..Default::default()
        },
    );
    let boost = wide.report.elements_per_sec / narrow.report.elements_per_sec;
    assert!(
        boost >= 10.0,
        "16-wide should be ~an order of magnitude: {boost:.1}x"
    );
}

/// §1/§2 ①: recirculation converges coflows "at a great bandwidth cost" —
/// every packet consumes a second ingress slot.
#[test]
fn recirculation_bandwidth_tax() {
    let cfg = paramserv::ParamServerCfg {
        workers: 8,
        model_size: 128,
        width: 1,
        seed: 11,
    };
    let adcp = paramserv::run(TargetKind::Adcp, &cfg);
    let recirc = paramserv::run(TargetKind::RmtRecirc, &cfg);
    assert!(adcp.correct && recirc.correct);
    assert_eq!(recirc.recirc_passes, recirc.injected, "1 extra pass/packet");
    assert_eq!(adcp.recirc_passes, 0);
    // The tax shows up as a longer makespan at equal work.
    assert!(
        recirc.makespan_ns > adcp.makespan_ns,
        "recirc {:.0}ns vs adcp {:.0}ns",
        recirc.makespan_ns,
        adcp.makespan_ns
    );
}

/// Fig. 2: egress-pinned coflow results can only leave via the pinned
/// pipeline's ports.
#[test]
fn egress_pinning_restricts_output() {
    let cfg = paramserv::ParamServerCfg {
        workers: 8,
        model_size: 64,
        width: 1,
        seed: 12,
    };
    let pinned = paramserv::run(TargetKind::RmtPinned, &cfg);
    assert!(pinned.correct);
    // 8 workers contributed, but only one port (the PS port) saw results:
    // 64 chunks delivered once each rather than once per worker.
    assert_eq!(pinned.delivered, 64);
    let adcp = paramserv::run(TargetKind::Adcp, &cfg);
    assert_eq!(adcp.delivered, 64 * 8, "ADCP multicasts to every worker");
}

/// Tables 2 and 3 are arithmetic; they must match the paper exactly
/// (modulo the documented row-4 throughput label and ±1 B rounding).
#[test]
fn tables_2_and_3_reproduce() {
    let t2 = scaling::table2();
    for (row, paper) in t2.iter().zip(scaling::PAPER_TABLE2) {
        assert_eq!(row.num_pipelines, paper.2);
        assert!((row.ports_per_pipeline - paper.3).abs() < 1e-9);
        assert!((row.min_packet_bytes as i64 - paper.4 as i64).abs() <= 1);
        assert!((row.pipeline_freq_ghz - paper.5).abs() < 0.011);
    }
    let t3 = scaling::table3();
    assert!((t3[1].pipeline_freq_ghz - 0.60).abs() < 0.011);
    assert!((t3[3].pipeline_freq_ghz - 1.19).abs() < 0.011);
}

/// Fig. 3: an 8-wide table costs RMT ~8× the capacity at equal memory.
#[test]
fn replication_costs_capacity() {
    let rmt = kvcache::max_cache_entries(&adcp::lang::TargetModel::rmt_12t(), 8);
    let adcp_e = kvcache::max_cache_entries(&adcp::lang::TargetModel::adcp_reference(), 8);
    let ratio = adcp_e as f64 / rmt as f64;
    assert!((6.0..10.0).contains(&ratio), "ratio = {ratio:.1}");
}

/// §4: the TM floorplan must be interleaved once demultiplexing drives
/// pipeline counts to 64+.
#[test]
fn tm_floorplan_claim() {
    use adcp::analytic::feasibility::{estimate_congestion, CongestionInput, TmFloorplan};
    let input = CongestionInput {
        pipelines: 64,
        phv_bits: 4096,
        tracks_per_gcell: 200,
        gcells_per_block_edge: 40,
    };
    let mono = estimate_congestion(&input, TmFloorplan::Monolithic);
    let inter = estimate_congestion(&input, TmFloorplan::Interleaved { banks: 16 });
    assert!(mono.peak_utilization > 1.0);
    assert!(inter.peak_utilization < 0.8);
}
