//! Offered-load vs latency: the classic switch queueing curve, for both
//! architectures on identical forwarding work.
//!
//! A fixed fan-in (4 source ports → 4 distinct sinks) is driven at a
//! fraction of the bottleneck rate; p50/p99 latency is recorded. Every
//! ADCP packet takes the extra TM1 → central pipeline → TM2 hop — the
//! honest cost of the global partitioned area — but its 800 G ports also
//! serialize twice as fast as the RMT baseline's 400 G ports, so absolute
//! latencies end up comparable at light load. Load is normalized to each
//! target's own port rate; past 1.0 the source links themselves are the
//! bottleneck and delay grows with the backlog (the sources block rather
//! than drop, so the overload point shows delay, not loss).

use adcp_apps::driver::{self, AnySwitch, TargetKind};
use adcp_lang::{
    ActionDef, ActionOp, FieldDef, FieldId, FieldRef, HeaderDef, HeaderId, Operand, ParserSpec,
    Program, ProgramBuilder, Region, TableDef,
};
use adcp_sim::packet::{FlowId, Packet, PortId};
use adcp_sim::stats::LatencySummary;
use adcp_sim::time::SimTime;
use serde::Serialize;

fn fr(f: u16) -> FieldRef {
    FieldRef::new(HeaderId(0), FieldId(f))
}

/// Forward to the port named in the packet (plus the ADCP central hop).
fn forward_program(via_central: bool) -> Program {
    let mut b = ProgramBuilder::new("fwd");
    let h = b.header(HeaderDef::new(
        "m",
        vec![FieldDef::scalar("dst", 16), FieldDef::scalar("pad", 16)],
    ));
    b.parser(ParserSpec::single(h));
    b.table(TableDef {
        name: "fwd".into(),
        region: if via_central {
            Region::Central
        } else {
            Region::Ingress
        },
        key: None,
        actions: vec![ActionDef::new(
            "fwd",
            vec![ActionOp::SetEgress(Operand::Field(fr(0)))],
        )],
        default_action: 0,
        default_params: vec![],
        size: 1,
    });
    b.build()
}

/// One load point.
#[derive(Debug, Clone, Serialize)]
pub struct LoadRow {
    /// Architecture.
    pub target: String,
    /// Offered load as a fraction of the per-source line rate.
    pub load: f64,
    /// Delivered packets.
    pub delivered: u64,
    /// Drops (buffer pressure at saturation).
    pub drops: u64,
    /// Latency summary.
    pub latency: LatencySummary,
}

fn drive(
    sw: &mut AnySwitch,
    load: f64,
    pkts_per_src: u32,
    frame: usize,
) -> (u64, u64, LatencySummary) {
    // Per-source inter-arrival: this target's wire time / load.
    let port_gbps = f64::from(sw.target().port_speed_gbps);
    let wire_ps = ((frame.max(64) + 20) as f64 * 8.0 * 1000.0 / port_gbps) as u64;
    let gap = (wire_ps as f64 / load) as u64;
    let mut id = 0u64;
    for i in 0..pkts_per_src {
        for src in 0..4u16 {
            let mut data = vec![0u8; frame];
            let dst = 4 + src; // distinct sink per source: no cross-contention
            data[..2].copy_from_slice(&dst.to_be_bytes());
            sw.inject(
                PortId(src),
                Packet::new(id, FlowId(src as u64), data),
                SimTime(i as u64 * gap),
            );
            id += 1;
        }
    }
    sw.run_until_idle();
    sw.check_conservation();
    (
        sw.counters.delivered,
        sw.counters.total_drops(),
        LatencySummary::from(&sw.latency),
    )
}

/// Sweep offered load on both architectures.
pub fn ablate_load(quick: bool) -> Vec<LoadRow> {
    ablate_load_impl(quick, true)
}

fn ablate_load_impl(quick: bool, parallel: bool) -> Vec<LoadRow> {
    let pkts = if quick { 500 } else { 3_000 };
    let frame = 256usize;
    // One point per (load, target), in the original row order: each point
    // builds its own switch, so they run independently on worker threads.
    let mut points: Vec<(f64, TargetKind)> = Vec::new();
    for load in [0.2, 0.5, 0.8, 0.95, 1.2] {
        points.push((load, TargetKind::RmtPinned));
        points.push((load, TargetKind::Adcp));
    }
    crate::par::map_points(parallel, points, |(load, kind)| {
        let adcp = kind == TargetKind::Adcp;
        let mut sw = driver::build(kind, |_| forward_program(adcp))
            .expect("forwarding compiles on every target");
        let (delivered, drops, latency) = drive(&mut sw, load, pkts, frame);
        LoadRow {
            target: if adcp { "adcp" } else { "rmt" }.into(),
            load,
            delivered,
            drops,
            latency,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_sweep_par_matches_seq() {
        let par = serde_json::to_string(&ablate_load_impl(true, true)).unwrap();
        let seq = serde_json::to_string(&ablate_load_impl(true, false)).unwrap();
        assert_eq!(par, seq, "load rows must not depend on scheduling");
    }

    #[test]
    fn load_sweep_shapes() {
        let rows = ablate_load(true);
        for t in ["rmt", "adcp"] {
            let series: Vec<&LoadRow> = rows.iter().filter(|r| r.target == t).collect();
            // Everything is delivered at every load (sources block, never
            // drop), and underloaded latency stays flat.
            for r in &series {
                assert_eq!(r.drops, 0, "{t} at {}", r.load);
                assert_eq!(r.delivered, 2_000, "{t} at {}", r.load);
            }
            let light = series.first().unwrap();
            let mid = series.iter().find(|r| r.load == 0.8).unwrap();
            assert!(
                mid.latency.p99_ns < light.latency.p99_ns * 3.0,
                "{t}: flat below saturation ({:.1} -> {:.1})",
                light.latency.p99_ns,
                mid.latency.p99_ns
            );
            // Overload (1.2x the line) backlogs: p99 far above light load.
            let over = series.last().unwrap();
            assert!(
                over.latency.p99_ns > light.latency.p99_ns * 3.0,
                "{t}: overload must backlog ({:.1} -> {:.1})",
                light.latency.p99_ns,
                over.latency.p99_ns
            );
        }
        // The ADCP's extra hop is visible in *cycles*: at light load its
        // p50 exceeds the pure pipeline+wire floor by at least the central
        // traversal (one pipeline period), even though its faster ports
        // keep the absolute number close to RMT's.
        let adcp0 = rows.iter().find(|r| r.target == "adcp").unwrap();
        assert!(adcp0.latency.p50_ns > 5.0, "{adcp0:?}");
    }
}
