//! Cross-target compiler invariants: the same programs placed on every
//! target honor every resource budget, and the per-architecture costs
//! differ exactly the way the paper says.

use adcp::apps::driver::TargetKind;
use adcp::apps::{dbshuffle, graphmine, kvcache, paramserv};
use adcp::lang::{compile, CompileOptions, Placement, Program, RmtCentralStrategy, TargetModel};
use adcp::sim::packet::PortId;

fn targets() -> Vec<TargetModel> {
    vec![
        TargetModel::rmt_640g(),
        TargetModel::rmt_12t(),
        TargetModel::adcp_reference(),
        TargetModel::adcp_like_rmt_12t(),
    ]
}

fn all_programs() -> Vec<Program> {
    let ps = paramserv::ParamServerCfg {
        workers: 8,
        model_size: 256,
        width: 1, // scalar so it compiles everywhere
        seed: 1,
    };
    let ports: Vec<PortId> = (0..8).map(PortId).collect();
    let db = dbshuffle::DbShuffleCfg::default();
    vec![
        paramserv::program(&ps, TargetKind::RmtRecirc, 4, &ports, PortId(8)),
        dbshuffle::program(&db, TargetKind::RmtPinned, 4),
        graphmine::program(TargetKind::RmtRecirc, 12, 8, PortId(8), &ports),
        kvcache::program(1, 512, PortId(8)),
    ]
}

/// A placement never exceeds the stage, MAU, memory, or register budget
/// of its target.
fn check_budgets(pl: &Placement, t: &TargetModel) {
    for (plan, budget) in [
        (&pl.ingress, t.ingress_stages),
        (&pl.egress, t.egress_stages),
    ] {
        assert!(plan.depth() <= budget, "{}: stage overflow", t.name);
        for st in &plan.stages {
            assert!(st.mau_slots_used <= t.maus_per_stage);
            assert!(st.mem_bits_used <= t.stage_mem_bits());
            assert!(st.reg_bits_used <= t.stage_reg_bits);
        }
    }
    for st in &pl.central.stages {
        assert!(st.mau_slots_used <= t.maus_per_stage);
        assert!(st.mem_bits_used <= t.stage_mem_bits());
        assert!(st.reg_bits_used <= t.stage_reg_bits);
    }
}

#[test]
fn every_program_places_on_every_target() {
    for prog in all_programs() {
        for t in targets() {
            for strategy in [
                RmtCentralStrategy::EgressPin,
                RmtCentralStrategy::Recirculate,
            ] {
                let pl = compile(
                    &prog,
                    &t,
                    CompileOptions {
                        rmt_central: strategy,
                    },
                )
                .unwrap_or_else(|e| panic!("{} on {}: {:?}", prog.name, t.name, e));
                check_budgets(&pl, &t);
            }
        }
    }
}

#[test]
fn central_impl_depends_on_target_not_strategy_when_native() {
    let ps = paramserv::ParamServerCfg {
        workers: 4,
        model_size: 64,
        width: 1,
        seed: 1,
    };
    let ports: Vec<PortId> = (0..4).map(PortId).collect();
    let prog = paramserv::program(&ps, TargetKind::Adcp, 4, &ports, PortId(4));
    // On an ADCP target both strategies yield Native — the option only
    // matters where there is no central hardware.
    for strategy in [
        RmtCentralStrategy::EgressPin,
        RmtCentralStrategy::Recirculate,
    ] {
        let pl = compile(
            &prog,
            &TargetModel::adcp_reference(),
            CompileOptions {
                rmt_central: strategy,
            },
        )
        .unwrap();
        assert_eq!(pl.central_impl, adcp::lang::CentralImpl::Native);
        assert_eq!(pl.recirc_passes, 0);
    }
}

#[test]
fn array_width_capacity_scales_inversely_on_rmt() {
    // Fig. 3 as a monotone property: RMT max cache entries shrink ~1/w.
    let rmt = TargetModel::rmt_12t();
    let mut last = u32::MAX;
    for w in [1u16, 2, 4, 8, 16] {
        let e = kvcache::max_cache_entries(&rmt, w);
        assert!(e < last, "width {w}: {e} !< {last}");
        last = e;
    }
    // And ADCP capacity is flat until MAU slots bind.
    let adcp = TargetModel::adcp_reference();
    let e1 = kvcache::max_cache_entries(&adcp, 1);
    let e16 = kvcache::max_cache_entries(&adcp, 16);
    assert!(
        e16 as f64 > e1 as f64 * 0.9,
        "ADCP capacity ~flat with width: {e1} -> {e16}"
    );
}

#[test]
fn placement_reports_total_memory() {
    let prog = kvcache::program(8, 1024, PortId(0));
    let rmt = compile(&prog, &TargetModel::rmt_12t(), CompileOptions::default()).unwrap();
    let adcp = compile(
        &prog,
        &TargetModel::adcp_reference(),
        CompileOptions::default(),
    )
    .unwrap();
    assert!(
        rmt.total_mem_bits > adcp.total_mem_bits * 7,
        "8-wide table: rmt {} vs adcp {}",
        rmt.total_mem_bits,
        adcp.total_mem_bits
    );
    assert_eq!(rmt.phv_bits_used, adcp.phv_bits_used);
}

#[test]
fn compile_is_deterministic() {
    let prog = all_programs().remove(1);
    let a = compile(&prog, &TargetModel::rmt_12t(), CompileOptions::default()).unwrap();
    let b = compile(&prog, &TargetModel::rmt_12t(), CompileOptions::default()).unwrap();
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap()
    );
}
