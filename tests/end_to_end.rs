//! Cross-crate integration: whole-stack determinism, conservation under
//! stress and faults, and closed-loop behaviour.

use adcp::apps::driver::TargetKind;
use adcp::apps::{dbshuffle, graphmine, groupcomm, kvcache, paramserv};
use adcp::core::{AdcpConfig, AdcpSwitch};
use adcp::lang::{
    ActionDef, ActionOp, CompileOptions, FieldDef, HeaderDef, Operand, ParserSpec, ProgramBuilder,
    Region, TableDef, TargetModel,
};
use adcp::sim::fault::{FaultConfig, FaultInjector, FaultOutcome};
use adcp::sim::packet::{FlowId, Packet, PortId};
use adcp::sim::rng::SimRng;
use adcp::sim::time::SimTime;

/// Every app, every variant, one assertion: it is correct and conserves
/// packets (conservation is asserted inside each `run`).
#[test]
fn all_apps_all_variants_correct() {
    let kinds = [
        TargetKind::Adcp,
        TargetKind::RmtRecirc,
        TargetKind::RmtPinned,
    ];
    let ps = paramserv::ParamServerCfg {
        workers: 4,
        model_size: 64,
        width: 8,
        seed: 1,
    };
    for k in kinds {
        assert!(paramserv::run(k, &ps).correct, "paramserv {k:?}");
    }
    let mut db = dbshuffle::DbShuffleCfg::default();
    db.workload.rows_per_mapper = 100;
    for k in kinds {
        assert!(dbshuffle::run(k, &db).correct, "dbshuffle {k:?}");
    }
    let mut gm = graphmine::GraphMineCfg::default();
    gm.workload.supersteps = 4;
    for k in kinds {
        assert!(graphmine::run(k, &gm).correct, "graphmine {k:?}");
    }
    let gc = groupcomm::GroupCommCfg {
        packets: 80,
        ..Default::default()
    };
    for k in [TargetKind::Adcp, TargetKind::RmtPinned] {
        assert!(groupcomm::run(k, &gc).correct, "groupcomm {k:?}");
    }
    let kv = kvcache::KvCacheCfg {
        requests: 200,
        ..Default::default()
    };
    for k in [TargetKind::Adcp, TargetKind::RmtPinned] {
        assert!(kvcache::run(k, &kv).report.correct, "kvcache {k:?}");
    }
}

/// Whole-stack determinism: two identical complex runs produce identical
/// reports, across both architectures.
#[test]
fn whole_stack_determinism() {
    let cfg = dbshuffle::DbShuffleCfg::default();
    for kind in [TargetKind::Adcp, TargetKind::RmtRecirc] {
        let a = dbshuffle::run(kind, &cfg);
        let b = dbshuffle::run(kind, &cfg);
        assert_eq!(a.makespan_ns, b.makespan_ns, "{kind:?}");
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.drops, b.drops);
    }
}

/// End-host-side fault injection: lossy links drop contributions; the
/// switch must stay conservative and the app must degrade gracefully
/// (missing chunks, never wrong ones).
#[test]
fn paramserv_tolerates_lossy_links() {
    // Build the ADCP parameter-server manually so we can drop packets
    // before injection (the injector models the worker->switch link).
    let cfg = paramserv::ParamServerCfg {
        workers: 8,
        model_size: 256,
        width: 16,
        seed: 33,
    };
    let worker_ports: Vec<PortId> = (0..cfg.workers as u16).map(PortId).collect();
    let target = TargetModel::adcp_reference();
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
    .unwrap();
    let wl =
        adcp::workloads::gradient::GradientWorkload::new(cfg.workers, cfg.model_size, cfg.width);
    let mut inj = FaultInjector::new(FaultConfig::lossy(0.2), SimRng::seed_from(7));
    let mut rng = SimRng::seed_from(cfg.seed);
    let mut sent = 0u64;
    for (i, ch) in wl.all_chunks_shuffled(&mut rng).iter().enumerate() {
        let mut data = Vec::new();
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
        sent += 1;
        sw.inject(PortId(ch.worker as u16), pkt, SimTime::ZERO);
    }
    sw.run_until_idle();
    sw.check_conservation();
    assert!(inj.dropped > 0, "the lossy link must actually drop");
    assert_eq!(sw.counters.injected, sent);
    // Chunks that lost a contribution never complete; completed ones are
    // exactly (workers copies each), and fewer than the lossless total.
    let total_chunks = (cfg.model_size / cfg.width) as u64;
    let delivered = sw.counters.delivered;
    assert!(delivered < total_chunks * cfg.workers as u64);
    assert_eq!(
        delivered % cfg.workers as u64,
        0,
        "complete chunks multicast to all"
    );
}

/// Overload: a many-to-one incast with a tiny TM buffer must drop but
/// never lose accounting, on both switches.
#[test]
fn incast_overload_conserves() {
    let mut b = ProgramBuilder::new("incast");
    let h = b.header(HeaderDef::new(
        "m",
        vec![FieldDef::scalar("x", 32), FieldDef::scalar("y", 32)],
    ));
    b.parser(ParserSpec::single(h));
    b.table(TableDef {
        name: "to_zero".into(),
        region: Region::Ingress,
        key: None,
        actions: vec![ActionDef::new(
            "fwd",
            vec![ActionOp::SetEgress(Operand::Const(0))],
        )],
        default_action: 0,
        default_params: vec![],
        size: 1,
    });
    let prog = b.build();

    let mut sw = AdcpSwitch::new(
        prog,
        TargetModel::adcp_reference(),
        CompileOptions::default(),
        AdcpConfig {
            tm_cells: 16,
            queue_depth: 4,
            ..Default::default()
        },
    )
    .unwrap();
    for i in 0..2_000u64 {
        let pkt = Packet::new(i, FlowId(i % 16), vec![0u8; 512]);
        sw.inject(PortId((i % 15 + 1) as u16), pkt, SimTime::ZERO);
    }
    sw.run_until_idle();
    sw.check_conservation();
    assert!(sw.counters.delivered > 0);
    assert!(
        sw.counters.tm[0].total() + sw.counters.tm[1].total() > 0,
        "a 16-cell buffer must overflow under a 2000-packet incast"
    );
}

/// The closed-loop graphmine job stretches with switch latency: the RMT
/// recirculating variant takes longer than the ADCP for the same job.
#[test]
fn closed_loop_latency_compounds() {
    let cfg = graphmine::GraphMineCfg::default();
    let a = graphmine::run(TargetKind::Adcp, &cfg);
    let r = graphmine::run(TargetKind::RmtRecirc, &cfg);
    assert!(a.correct && r.correct);
    assert!(
        r.makespan_ns > a.makespan_ns,
        "adcp {:.0}ns vs rmt/recirc {:.0}ns",
        a.makespan_ns,
        r.makespan_ns
    );
}
