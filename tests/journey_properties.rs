//! Property tests for the journey tracer (DESIGN.md §9): for any sampled
//! packet, on either architecture, under randomized drop/corrupt/delay
//! fault schedules, the reconstructed journey is a time-monotonic chain
//! that ends in exactly one terminal hop (`Tx` or `Dropped`) — and under
//! ring eviction the retained journey is still a well-formed suffix with
//! the terminal, if retained, last.
//!
//! Inputs are generated with the simulator's own deterministic [`SimRng`]
//! (the offline build cannot fetch proptest), so failures reproduce
//! exactly from the printed seed.

use std::collections::BTreeSet;

use adcp::core::{AdcpConfig, AdcpSwitch};
use adcp::lang::{
    ActionDef, ActionOp, CompileOptions, Entry, FieldDef, FieldId, FieldRef, HeaderDef, HeaderId,
    KeySpec, MatchKind, MatchValue, Operand, ParserSpec, Program, ProgramBuilder, Region, TableDef,
    TargetModel,
};
use adcp::rmt::{RmtConfig, RmtSwitch};
use adcp::sim::fault::{FaultConfig, FaultInjector, FaultOutcome};
use adcp::sim::packet::{FlowId, Packet, PortId};
use adcp::sim::rng::SimRng;
use adcp::sim::time::{Duration, SimTime};
use adcp::sim::trace::{Hop, JourneyTracer, Site};

const PKTS: u64 = 300;
const INSTALLED_DSTS: u16 = 6;

fn fr(f: u16) -> FieldRef {
    FieldRef::new(HeaderId(0), FieldId(f))
}

/// Exact-match forwarder: installed dsts forward, everything else hits the
/// default `drop` action — a deliberate `filtered` drop source.
fn program() -> Program {
    let mut b = ProgramBuilder::new("journey_props");
    let h = b.header(HeaderDef::new(
        "fwd",
        vec![FieldDef::scalar("dst", 16), FieldDef::scalar("pad", 16)],
    ));
    b.parser(ParserSpec::single(h));
    b.table(TableDef {
        name: "route".into(),
        region: Region::Ingress,
        key: Some(KeySpec {
            field: fr(0),
            kind: MatchKind::Exact,
            bits: 16,
        }),
        actions: vec![
            ActionDef::new("fwd", vec![ActionOp::SetEgress(Operand::Param(0))]),
            ActionDef::new("drop", vec![ActionOp::Drop]),
        ],
        default_action: 1,
        default_params: vec![],
        size: 64,
    });
    b.build()
}

fn pkt(id: u64, dst: u16) -> Packet {
    let mut data = vec![0u8; 64];
    data[..2].copy_from_slice(&dst.to_be_bytes());
    Packet::new(id, FlowId(dst as u64), data).seal()
}

fn is_terminal(site: Site) -> bool {
    matches!(site, Site::Tx(_) | Site::Dropped)
}

/// The chain invariants every retained journey must satisfy, eviction or
/// not: spans are internally ordered (`enter <= exit`), hops never run
/// backwards in time, and nothing follows a terminal hop.
fn check_chain(hops: &[Hop], what: &str) {
    for w in hops.windows(2) {
        assert!(
            w[0].enter <= w[1].enter,
            "{what}: journey not time-sorted: {:?} then {:?}",
            w[0],
            w[1]
        );
        assert!(
            w[0].exit <= w[1].exit,
            "{what}: span ends run backwards: {:?} then {:?}",
            w[0],
            w[1]
        );
        assert!(
            !is_terminal(w[0].site),
            "{what}: hop after terminal: {:?} then {:?}",
            w[0],
            w[1]
        );
    }
    for h in hops {
        assert!(h.enter <= h.exit, "{what}: reversed span {h:?}");
    }
    let terminals = hops.iter().filter(|h| is_terminal(h.site)).count();
    assert!(
        terminals <= 1,
        "{what}: {terminals} terminal hops in one journey: {hops:?}"
    );
}

/// A fault schedule drawn from one seed.
fn fault_cfg(rng: &mut SimRng) -> FaultConfig {
    FaultConfig {
        drop_chance: rng.range(0u32..20) as f64 / 100.0,
        corrupt_chance: rng.range(0u32..20) as f64 / 100.0,
        delay_chance: rng.range(0u32..50) as f64 / 100.0,
        max_delay: Duration::from_ns(rng.range(100u64..5_000)),
    }
}

enum Target {
    Adcp,
    Rmt,
}

/// Drive one switch through a faulty workload and return
/// `(tracer, delivered ids, injected ids)`.
fn run_one(
    target: &Target,
    seed: u64,
    sample: u64,
    ring: usize,
    tight_tm: bool,
) -> (JourneyTracer, BTreeSet<u64>, BTreeSet<u64>) {
    let mut rng = SimRng::seed_from(seed);
    let mut inj = FaultInjector::new(fault_cfg(&mut rng), SimRng::seed_from(seed ^ 0xFA17));

    let entries: Vec<(u16, u16)> = (0..INSTALLED_DSTS).map(|d| (d, d % 8)).collect();
    let install = |name: &str, install_into: &mut dyn FnMut(&str, Entry)| {
        for &(dst, port) in &entries {
            install_into(
                name,
                Entry {
                    value: MatchValue::Exact(dst.into()),
                    action: 0,
                    params: vec![port as u64],
                },
            );
        }
    };

    let mut delivered = BTreeSet::new();
    let mut injected = BTreeSet::new();

    let mut drive = |inject: &mut dyn FnMut(PortId, Packet, SimTime)| {
        for i in 0..PKTS {
            // Half the dst space is uninstalled — guaranteed filtered drops.
            let dst = rng.range(0u16..INSTALLED_DSTS * 2);
            let mut p = pkt(i, dst);
            if inj.apply(&mut p) == FaultOutcome::Dropped {
                continue; // lost on the wire, never reached the switch
            }
            injected.insert(i);
            let t = SimTime::from_ns(i * rng.range(5u64..400));
            inject(PortId((i % 8) as u16), p, t);
        }
    };

    match target {
        Target::Adcp => {
            let cfg = if tight_tm {
                AdcpConfig {
                    tm_cells: 24,
                    queue_depth: 3,
                    ..Default::default()
                }
            } else {
                AdcpConfig::default()
            };
            let mut sw = AdcpSwitch::new(
                program(),
                TargetModel::adcp_reference(),
                CompileOptions::default(),
                cfg,
            )
            .unwrap();
            install("route", &mut |n, e| {
                sw.install_all(n, e).unwrap();
            });
            sw.tracer = JourneyTracer::with_sample(ring, sample);
            drive(&mut |p, k, t| sw.inject(p, k, t));
            sw.run_until_idle();
            sw.check_conservation();
            for out in sw.take_delivered() {
                delivered.insert(out.meta.id);
            }
            let tracer = std::mem::replace(&mut sw.tracer, JourneyTracer::disabled());
            (tracer, delivered, injected)
        }
        Target::Rmt => {
            let cfg = if tight_tm {
                RmtConfig {
                    tm_cells: 24,
                    queue_depth: 3,
                    ..Default::default()
                }
            } else {
                RmtConfig::default()
            };
            let mut sw = RmtSwitch::new(
                program(),
                TargetModel::rmt_12t(),
                CompileOptions::default(),
                cfg,
            )
            .unwrap();
            install("route", &mut |n, e| {
                sw.install_all(n, e).unwrap();
            });
            sw.tracer = JourneyTracer::with_sample(ring, sample);
            drive(&mut |p, k, t| sw.inject(p, k, t));
            sw.run_until_idle();
            sw.check_conservation();
            for out in sw.take_delivered() {
                delivered.insert(out.meta.id);
            }
            let tracer = std::mem::replace(&mut sw.tracer, JourneyTracer::disabled());
            (tracer, delivered, injected)
        }
    }
}

/// With a ring big enough to hold everything and sample=1, every injected
/// packet's journey is a monotonic chain ending in exactly one terminal
/// hop — `Tx` iff delivered, `Dropped` iff the switch recorded a drop —
/// on both architectures, across random fault schedules.
#[test]
fn full_journeys_end_in_exactly_one_terminal() {
    for (ti, target) in [Target::Adcp, Target::Rmt].iter().enumerate() {
        for seed in 0..6u64 {
            let (tracer, delivered, injected) = run_one(target, 0x10AD + seed, 1, 1 << 16, false);
            assert_eq!(tracer.evicted(), 0, "ring must hold the full run");
            let dropped: BTreeSet<u64> = tracer.drops().iter().map(|d| d.pkt).collect();
            let mut saw_drop = false;
            for &id in &injected {
                let what = format!("target {ti} seed {seed} pkt {id}");
                let hops = tracer.journey_of(id);
                assert!(!hops.is_empty(), "{what}: injected but no journey");
                check_chain(&hops, &what);
                let last = hops.last().unwrap();
                if delivered.contains(&id) {
                    assert!(
                        matches!(last.site, Site::Tx(_)),
                        "{what}: delivered but journey ends at {:?}",
                        last.site
                    );
                } else {
                    saw_drop = true;
                    assert!(
                        dropped.contains(&id),
                        "{what}: neither delivered nor in the drop log"
                    );
                    assert_eq!(
                        last.site,
                        Site::Dropped,
                        "{what}: dropped but journey ends at {:?}",
                        last.site
                    );
                }
            }
            assert!(
                saw_drop,
                "target {ti} seed {seed}: schedule produced no in-switch drops; \
                 the property was not exercised"
            );
        }
    }
}

/// Sampling keeps exactly the `fnv(id) % N == 0` packets' hop spans, and
/// every kept journey still satisfies the chain invariants. Drops stay
/// exact for *all* packets regardless of sampling.
#[test]
fn sampled_journeys_are_chains_and_drops_stay_exact() {
    for target in [Target::Adcp, Target::Rmt] {
        let seed = 0x5A3D;
        let (full, _, injected) = run_one(&target, seed, 1, 1 << 16, false);
        let (sampled, _, injected2) = run_one(&target, seed, 7, 1 << 16, false);
        assert_eq!(injected, injected2, "same seed, same wire faults");
        // Forensic aggregation is sampling-independent.
        assert_eq!(
            full.drop_totals_by_reason(),
            sampled.drop_totals_by_reason()
        );
        for &id in &injected {
            let hops = sampled.journey_of(id);
            if sampled.samples(id) {
                assert_eq!(hops, full.journey_of(id), "sampling must not edit hops");
                check_chain(&hops, &format!("sampled pkt {id}"));
            } else {
                assert!(hops.is_empty(), "unsampled pkt {id} has hop spans");
            }
        }
    }
}

/// Under a tiny ring the oldest spans are evicted, but whatever remains of
/// each journey is still a monotonic chain with at most one terminal hop,
/// and that terminal — when retained — is last. Tight TM limits add
/// queue/buffer drop terminals to the mix.
#[test]
fn evicted_journeys_remain_wellformed_suffixes() {
    for (ti, target) in [Target::Adcp, Target::Rmt].iter().enumerate() {
        for seed in 0..4u64 {
            let (tracer, _, injected) = run_one(target, 0xE51C + seed, 1, 96, true);
            assert!(
                tracer.evicted() > 0,
                "target {ti} seed {seed}: a 96-span ring must evict under {PKTS} packets"
            );
            for &id in &injected {
                let hops = tracer.journey_of(id);
                check_chain(
                    &hops,
                    &format!("target {ti} seed {seed} pkt {id} (evicting)"),
                );
            }
        }
    }
}
