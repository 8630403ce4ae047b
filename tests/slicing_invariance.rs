//! Slicing invariance (ROADMAP 4c): `adcpd` and every chunked driver rely
//! on `run_until` slices composing. For both switch models — the ADCP with
//! an incremental migration in flight — and for the 2×4 fabric, any random
//! sequence of `run_until(t_i)` followed by `run_until_idle` must leave
//! exactly what a single `run_until_idle` leaves: the delivered frames,
//! every register cell, the counters, the journey trace, the postcards,
//! the exported metrics block and, on the fabric, the link crossings,
//! compared as serialized text. The fabric is also cut hundreds of times
//! and run at a second link latency, so the cuts land inside its
//! lookahead windows.
//!
//! Slice points come from the simulator's own seeded [`SimRng`] (the
//! offline build cannot fetch proptest), so failures reproduce exactly.
//!
//! The zero-slice edge rides along: the metrics export must be current
//! when *no* run has happened since the last inject or control-plane call.

use adcp::core::{AdcpConfig, AdcpSwitch, MigrationStrategy, PartitionMap};
use adcp::fabric::{demo_fabric, FabricConfig, DEMO_CELLS};
use adcp::lang::{
    deposit_bits, ActionDef, ActionOp, CompileOptions, FieldDef, FieldId, FieldRef, HeaderDef,
    HeaderId, Operand, ParserSpec, Program, ProgramBuilder, RegAluOp, RegId, Region, RegisterDef,
    RmtCentralStrategy, TableDef, TargetModel,
};
use adcp::rmt::{RmtConfig, RmtSwitch};
use adcp::sim::datapath::{Delivered, Shell};
use adcp::sim::packet::{FlowId, Packet, PortId};
use adcp::sim::rng::SimRng;
use adcp::sim::time::{Duration, SimTime};
use std::ops::Range;

const CASES: u64 = 12;
const PACKETS: u64 = 160;
const GAP_NS: u64 = 40;
const CELLS: u32 = 64;
/// When the ADCP run begins its migration: mid-workload.
const MIGRATE_AT: SimTime = SimTime(PACKETS * GAP_NS * 500);

/// header {dst:16, key:16, cnt:32}: ingress partitions on `key` (and, for
/// the RMT lowering, asks for the recirculation pass), central counts into
/// cell `key` fetching the old count, and forwards to `dst`.
fn counting_program(recirculate: bool) -> Program {
    let mut b = ProgramBuilder::new("slicing");
    let h = b.header(HeaderDef::new(
        "sl",
        vec![
            FieldDef::scalar("dst", 16),
            FieldDef::scalar("key", 16),
            FieldDef::scalar("cnt", 32),
        ],
    ));
    b.parser(ParserSpec::single(h));
    let reg = b.register(RegisterDef::new("cnt", CELLS, 32));
    let fr = |i: u16| FieldRef::new(HeaderId(0), FieldId(i));
    let mut table = |name: &str, region, ops| {
        b.table(TableDef {
            name: name.into(),
            region,
            key: None,
            actions: vec![ActionDef::new("act", ops)],
            default_action: 0,
            default_params: vec![],
            size: 1,
        });
    };
    let mut steer = vec![ActionOp::SetCentralPipe(Operand::Field(fr(1)))];
    if recirculate {
        steer.push(ActionOp::Recirculate);
    }
    table("shard", Region::Ingress, steer);
    table(
        "count",
        Region::Central,
        vec![
            ActionOp::RegRmw {
                reg,
                index: Operand::Field(fr(1)),
                op: RegAluOp::Add,
                value: Operand::Const(1),
                fetch: Some(fr(2)),
            },
            ActionOp::SetEgress(Operand::Field(fr(0))),
        ],
    );
    b.build()
}

/// The seeded workload: (port, packet, arrival).
fn workload(seed: u64) -> Vec<(u16, Packet, SimTime)> {
    let mut rng = SimRng::seed_from(seed);
    (0..PACKETS)
        .map(|i| {
            let key = rng.range(0u64..CELLS as u64) as u16;
            let mut data = vec![0u8; 16];
            data[..2].copy_from_slice(&((i % 4) as u16).to_be_bytes());
            data[2..4].copy_from_slice(&key.to_be_bytes());
            let pkt = Packet::new(i, FlowId(key as u64), data).seal();
            ((i % 8) as u16, pkt, SimTime::from_ns(1 + i * GAP_NS))
        })
        .collect()
}

/// A few cuts, as a control loop makes them.
const FEW: Range<u64> = 1..10;
/// Enough picosecond-granular cuts that most fabric windows are cut short.
const MANY: Range<u64> = 100..300;

/// Sorted random slice points over the workload's horizon (and a bit
/// beyond, so some slices fall after the last arrival), `count` of them,
/// always including `must` so a mid-run control action lands at the same
/// simulated time.
fn slices(rng: &mut SimRng, must: Option<SimTime>, count: Range<u64>) -> Vec<SimTime> {
    let horizon = PACKETS * GAP_NS * 1_200;
    let n = rng.range(count);
    let mut ts: Vec<SimTime> = (0..n).map(|_| SimTime(rng.range(0..horizon))).collect();
    ts.extend(must);
    ts.sort();
    ts
}

fn frames(delivered: &[Delivered]) -> String {
    let rows: Vec<_> = delivered
        .iter()
        .map(|d| (d.port.0, d.time.0, d.meta.id, d.data.to_vec()))
        .collect();
    format!("{rows:?}")
}

/// Everything the shell of a finished switch can show, after the switch's
/// own `metrics` export.
fn shell_state(sw: &mut Shell, metrics: String) -> String {
    format!(
        "{}\n{metrics}\n{}\n{:?}",
        frames(&sw.take_delivered()),
        serde_json::to_string(&sw.trace_json()).unwrap(),
        sw.take_postcards(),
    )
}

fn run_adcp(seed: u64, cuts: &[SimTime]) -> String {
    let mut sw = AdcpSwitch::new(
        counting_program(false),
        TargetModel::adcp_reference(),
        CompileOptions::default(),
        AdcpConfig {
            trace: true,
            int: true,
            ..Default::default()
        },
    )
    .unwrap();
    let pipes = sw.num_central() as u32;
    let uniform = PartitionMap::uniform(CELLS, pipes);
    let rotated = PartitionMap::from_buckets(
        (0..CELLS)
            .map(|b| (uniform.owner_of_bucket(b) + 1) % pipes)
            .collect(),
    );
    sw.install_partition_map(uniform).unwrap();
    for (port, pkt, at) in workload(seed) {
        sw.inject(PortId(port), pkt, at);
    }
    for &t in cuts {
        sw.run_until(t);
        if t == MIGRATE_AT && !sw.migration_active() {
            sw.begin_migration(rotated.clone(), MigrationStrategy::Incremental)
                .unwrap();
        }
    }
    sw.run_until_idle();
    sw.finalize_migration().unwrap();
    sw.check_conservation();
    let regs: Vec<_> = (0..pipes as usize)
        .map(|p| sw.central_register(p, RegId(0)).unwrap().snapshot())
        .collect();
    let metrics = serde_json::to_string(&sw.metrics_json()).unwrap();
    let shell = shell_state(&mut sw, metrics);
    format!(
        "{regs:?}\n{:?}\n{:?}\n{shell}",
        sw.counters,
        sw.migration_stats()
    )
}

fn run_rmt(seed: u64, cuts: &[SimTime]) -> String {
    let target = TargetModel::rmt_12t();
    let pipes = target.num_pipes() as usize;
    let mut sw = RmtSwitch::new(
        counting_program(true),
        target,
        CompileOptions {
            rmt_central: RmtCentralStrategy::Recirculate,
        },
        RmtConfig {
            trace: true,
            int: true,
            ..Default::default()
        },
    )
    .unwrap();
    for (port, pkt, at) in workload(seed) {
        sw.inject(PortId(port), pkt, at);
    }
    for &t in cuts {
        sw.run_until(t);
    }
    sw.run_until_idle();
    sw.check_conservation();
    let regs: Vec<_> = (0..pipes)
        .map(|p| sw.central_register(p, RegId(0)).snapshot())
        .collect();
    let metrics = serde_json::to_string(&sw.metrics_json()).unwrap();
    let shell = shell_state(&mut sw, metrics);
    format!("{regs:?}\n{:?}\n{shell}", sw.counters)
}

/// The fabric at link latency `latency`, which is also its window width:
/// a second latency moves every window edge and arrival. Every demo frame is
/// delivered to logical port 0, so host-delivery order is that one port's
/// TX order under any schedule; the crossings add every device's arrival
/// order.
fn run_fabric(seed: u64, latency: Duration, cuts: &[SimTime]) -> String {
    let cfg = FabricConfig {
        link_latency: latency,
        switch: AdcpConfig {
            trace: true,
            int: true,
            ..Default::default()
        },
    };
    let (mut fabric, _program) = demo_fabric(seed, cfg);
    let mut rng = SimRng::seed_from(seed);
    let ports = fabric.spec().logical_ports() as u64;
    for i in 0..PACKETS {
        // The demo partitioned-counter wire format: op:8 key:32 idx:16
        // val:32 fphase:8 fgk:16 (scratch fields left zero).
        let mut buf = vec![0u8; 14];
        deposit_bits(&mut buf, 0, 8, 1);
        deposit_bits(&mut buf, 8, 32, rng.range(0u64..1 << 32));
        deposit_bits(&mut buf, 40, 16, rng.range(0u64..DEMO_CELLS as u64));
        deposit_bits(&mut buf, 56, 32, rng.range(1u64..1000));
        let pkt = Packet::new(i, FlowId(1000 + i), buf).seal();
        // Frames enter in pairs, at one instant on two leaves, so many meet
        // at a spine at the same instant from two links.
        let at = SimTime::from_ns(1 + i / 2 * GAP_NS);
        fabric.inject((i % ports) as u32, pkt, at);
    }
    for &t in cuts {
        fabric.run_until(t);
    }
    fabric.run_until_idle();
    fabric.check_conservation();
    let mut out = serde_json::to_string(&fabric.report()).unwrap();
    out += &frames(&fabric.take_delivered());
    out += &format!("{:?}", fabric.drain_postcards());
    out += &format!("{:?}", fabric.crossings());
    for d in 0..fabric.n_devices() {
        out += &serde_json::to_string(&fabric.device_trace_json(d)).unwrap();
    }
    let (leaves, spines) = (fabric.n_leaves(), fabric.n_spines());
    let devices = (0..leaves)
        .map(|l| fabric.leaf(l))
        .chain((0..spines).map(|s| fabric.spine(s)));
    for sw in devices {
        out += &serde_json::to_string(&sw.metrics_json()).unwrap();
    }
    out
}

fn any_slicing_equals_one_run(
    salt: u64,
    must: Option<SimTime>,
    count: Range<u64>,
    run: impl Fn(u64, &[SimTime]) -> String,
) {
    let mut rng = SimRng::seed_from(0x51_1CE5 ^ salt);
    for seed in 0..CASES {
        let whole = run(seed, must.as_slice());
        let cuts = slices(&mut rng, must, count.clone());
        assert!(
            run(seed, &cuts) == whole,
            "seed {seed}: slicing at {cuts:?} changed the run"
        );
    }
}

#[test]
fn adcp_with_a_migration_in_flight_is_slicing_invariant() {
    any_slicing_equals_one_run(1, Some(MIGRATE_AT), FEW, run_adcp);
}

#[test]
fn rmt_is_slicing_invariant() {
    any_slicing_equals_one_run(2, None, FEW, run_rmt);
}

#[test]
fn fabric_is_slicing_invariant() {
    for (salt, ns) in [(3, 200), (4, 1)] {
        let latency = Duration::from_ns(ns);
        for count in [FEW, MANY] {
            any_slicing_equals_one_run(salt, None, count, |seed, cuts| {
                run_fabric(seed, latency, cuts)
            });
        }
    }
}

/// One exported counter, or gauge value when `kind` is `"gauges"`.
fn exported(metrics: &serde_json::Value, scope: &str, kind: &str, name: &str) -> u64 {
    let mut path = vec!["scopes", scope, kind, name];
    if kind == "gauges" {
        path.push("value");
    }
    path.iter()
        .try_fold(metrics, |v, k| v.get(k))
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| panic!("no {scope}.{name} in the export"))
}

#[test]
fn export_is_current_before_any_run() {
    let (port, pkt, at) = workload(0).swap_remove(0);
    let mut adcp = AdcpSwitch::new(
        counting_program(false),
        TargetModel::adcp_reference(),
        CompileOptions::default(),
        AdcpConfig::default(),
    )
    .unwrap();
    let mut rmt = RmtSwitch::new(
        counting_program(true),
        TargetModel::rmt_12t(),
        CompileOptions::default(),
        RmtConfig::default(),
    )
    .unwrap();
    if !adcp.metrics().enabled() {
        eprintln!("metrics disabled via env; skipping");
        return;
    }
    adcp.inject(PortId(port), pkt.clone(), at);
    rmt.inject(PortId(port), pkt, at);
    assert_eq!((adcp.counters.injected, rmt.counters.injected), (1, 1));
    for metrics in [adcp.metrics_json(), rmt.metrics_json()] {
        assert_eq!(exported(&metrics, "rx", "counters", "packets"), 1);
    }
}

#[test]
fn ctrl_scope_follows_an_idle_migration_with_no_run_between() {
    let mut sw = AdcpSwitch::new(
        counting_program(false),
        TargetModel::adcp_reference(),
        CompileOptions::default(),
        AdcpConfig::default(),
    )
    .unwrap();
    if !sw.metrics().enabled() {
        eprintln!("metrics disabled via env; skipping");
        return;
    }
    let pipes = sw.num_central() as u32;
    let uniform = PartitionMap::uniform(CELLS, pipes);
    let rotated = PartitionMap::from_buckets(
        (0..CELLS)
            .map(|b| (uniform.owner_of_bucket(b) + 1) % pipes)
            .collect(),
    );
    sw.install_partition_map(uniform).unwrap();
    let ctrl = |sw: &AdcpSwitch| {
        let m = sw.metrics_json();
        (
            exported(&m, "ctrl", "counters", "migrations"),
            exported(&m, "ctrl", "counters", "moved_keys"),
            exported(&m, "ctrl", "gauges", "epoch"),
        )
    };
    let owners = |sw: &AdcpSwitch| {
        let stats = sw.migration_stats();
        (stats.migrations, stats.moved_keys, sw.partition_epoch())
    };
    sw.begin_migration(rotated, MigrationStrategy::Incremental)
        .unwrap();
    assert_eq!(
        owners(&sw),
        (0, 0, 1),
        "incremental: the epoch moves at begin"
    );
    assert_eq!(ctrl(&sw), owners(&sw));
    sw.finalize_migration().unwrap();
    assert_eq!(
        owners(&sw),
        (1, CELLS as u64, 1),
        "every cell changed owner"
    );
    assert_eq!(ctrl(&sw), owners(&sw));
}
