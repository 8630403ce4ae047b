//! Ablations over the design choices DESIGN.md calls out.
//!
//! * demux ratio (§3.3): how far does splitting a port drive the pipeline
//!   clock down, and what does it cost the TM in pipeline count?
//! * TM floorplan (§4): monolithic vs interleaved g-cell congestion.
//! * multi-clock MAT (§4): how wide an array can SRAM frequency serve?

use adcp_analytic::feasibility::{
    estimate_congestion, multiclock_sweep, relative_dynamic_power, relative_logic_area,
    CongestionInput, TmFloorplan,
};
use adcp_analytic::scaling::{required_freq_ghz, tm_pipeline_count, MIN_WIRE_BYTES};
use serde::Serialize;

/// One demux-sweep row.
#[derive(Debug, Clone, Serialize)]
pub struct DemuxRow {
    /// Port speed, Gbps.
    pub port_gbps: u32,
    /// Demux factor m (1 = classic, one port per pipeline).
    pub demux: u32,
    /// Required pipeline frequency at 84 B packets, GHz.
    pub pipe_ghz: f64,
    /// Relative dynamic power vs the m=1 design.
    pub rel_power: f64,
    /// Relative logic area vs the m=1 design.
    pub rel_area: f64,
    /// Pipelines a 51.2 Tbps switch's TM must serve at this design point.
    pub tm_pipelines_51t: u32,
}

/// Sweep port speeds × demux factors.
pub fn ablate_demux() -> Vec<DemuxRow> {
    ablate_demux_impl(true)
}

fn ablate_demux_impl(parallel: bool) -> Vec<DemuxRow> {
    // One worker per port speed; each produces its four demux rows, and
    // the flatten keeps (port, m) order identical to the nested loops.
    let per_port = crate::par::map_points(parallel, vec![100u32, 400, 800, 1600], |port| {
        let base = required_freq_ghz(port as f64, MIN_WIRE_BYTES);
        [1u32, 2, 4, 8]
            .into_iter()
            .map(|m| {
                let f = required_freq_ghz(port as f64 / m as f64, MIN_WIRE_BYTES);
                DemuxRow {
                    port_gbps: port,
                    demux: m,
                    pipe_ghz: (f * 100.0).round() / 100.0,
                    rel_power: relative_dynamic_power(base, f),
                    rel_area: relative_logic_area(base, f),
                    tm_pipelines_51t: tm_pipeline_count(51_200, port, m),
                }
            })
            .collect::<Vec<_>>()
    });
    per_port.into_iter().flatten().collect()
}

/// One TM-floorplan row.
#[derive(Debug, Clone, Serialize)]
pub struct FloorplanRow {
    /// Pipelines connected to the TM.
    pub pipelines: u32,
    /// Monolithic peak g-cell utilization (demand/capacity).
    pub monolithic_util: f64,
    /// Interleaved (16 banks) peak utilization.
    pub interleaved_util: f64,
    /// Is the monolithic plan routable (< 0.8 utilization)?
    pub monolithic_routable: bool,
    /// Is the interleaved plan routable?
    pub interleaved_routable: bool,
}

/// Sweep TM pipeline counts (the §3.3 projection says 64 then 128).
pub fn ablate_tm_floorplan() -> Vec<FloorplanRow> {
    crate::par::par_map(vec![8u32, 16, 32, 64, 128], |pipelines| {
        let input = CongestionInput {
            pipelines,
            phv_bits: 4096,
            tracks_per_gcell: 200,
            gcells_per_block_edge: 40,
        };
        let mono = estimate_congestion(&input, TmFloorplan::Monolithic);
        let inter = estimate_congestion(&input, TmFloorplan::Interleaved { banks: 16 });
        FloorplanRow {
            pipelines,
            monolithic_util: mono.peak_utilization,
            interleaved_util: inter.peak_utilization,
            monolithic_routable: mono.peak_utilization < 0.8,
            interleaved_routable: inter.peak_utilization < 0.8,
        }
    })
}

/// One multi-clock row.
#[derive(Debug, Clone, Serialize)]
pub struct MultiClockRow {
    /// Pipeline frequency, GHz.
    pub pipe_ghz: f64,
    /// Array width served.
    pub width: u32,
    /// Required SRAM frequency, GHz.
    pub mem_ghz: f64,
    /// Feasible under a 4 GHz SRAM?
    pub feasible: bool,
}

/// Sweep the §4 multi-clock MAT envelope across the design space:
/// RMT's 1.62 GHz, the original 0.95 GHz, and ADCP demuxed clocks.
pub fn ablate_multiclock() -> Vec<MultiClockRow> {
    let per_clock = crate::par::par_map(vec![1.62f64, 0.95, 0.60, 0.30], |pipe| {
        multiclock_sweep(pipe, &[1, 2, 4, 8, 16, 32], 4.0)
            .into_iter()
            .map(|pt| MultiClockRow {
                pipe_ghz: pipe,
                width: pt.width,
                mem_ghz: (pt.mem_ghz * 100.0).round() / 100.0,
                feasible: pt.feasible,
            })
            .collect::<Vec<_>>()
    });
    per_clock.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demux_sweep_par_matches_seq() {
        let par = serde_json::to_string(&ablate_demux_impl(true)).unwrap();
        let seq = serde_json::to_string(&ablate_demux_impl(false)).unwrap();
        assert_eq!(par, seq, "demux rows must not depend on scheduling");
    }

    #[test]
    fn demux_sweep_monotone_in_m() {
        let rows = ablate_demux();
        for port in [100u32, 400, 800, 1600] {
            let series: Vec<&DemuxRow> = rows.iter().filter(|r| r.port_gbps == port).collect();
            for w in series.windows(2) {
                assert!(w[1].pipe_ghz < w[0].pipe_ghz, "freq falls with m");
                assert!(w[1].rel_power < w[0].rel_power);
                assert!(w[1].tm_pipelines_51t > w[0].tm_pipelines_51t);
            }
        }
        // Table 3's demuxed design point sits in the sweep.
        assert!(rows
            .iter()
            .any(|r| r.port_gbps == 800 && r.demux == 2 && (r.pipe_ghz - 0.60).abs() < 0.011));
    }

    #[test]
    fn floorplan_crossover() {
        let rows = ablate_tm_floorplan();
        // Small TMs route either way; the 64+-pipeline future does not
        // route monolithically but does interleaved (the §4 mitigation).
        let big = rows.iter().find(|r| r.pipelines == 64).unwrap();
        assert!(!big.monolithic_routable, "{big:?}");
        assert!(big.interleaved_routable, "{big:?}");
        let small = rows.iter().find(|r| r.pipelines == 8).unwrap();
        assert!(small.interleaved_routable);
    }

    #[test]
    fn multiclock_envelope() {
        let rows = ablate_multiclock();
        // RMT clock can only multi-clock a width-2 array; the demuxed
        // 0.30 GHz design reaches width 8+.
        let rmt16 = rows
            .iter()
            .find(|r| r.pipe_ghz == 1.62 && r.width == 16)
            .unwrap();
        assert!(!rmt16.feasible);
        let adcp8 = rows
            .iter()
            .find(|r| r.pipe_ghz == 0.30 && r.width == 8)
            .unwrap();
        assert!(adcp8.feasible);
    }
}
