//! Property tests for the leaf–spine fabric (DESIGN.md §11), under
//! randomized drop/corrupt/delay fault schedules on the host links:
//!
//! 1. **Conservation across links**: every frame injected at a host port
//!    is either delivered at a host port or sits in exactly one typed drop
//!    class on exactly one switch — inter-switch link crossings cancel out
//!    of the identity because links never drop.
//! 2. **Cross-switch journeys**: a packet's per-switch journey segments
//!    are each time-monotonic chains ending in one terminal hop, and the
//!    segments chain monotonically across switches (a frame cannot enter
//!    the next device before it left the previous one).
//! 3. **Forensics ≡ registry**: on every device, the journey tracer's
//!    forensic drop aggregation agrees with the metrics registry, through
//!    the same exporter path `adcp trace --forensics` uses.
//! 4. **Links queue and count**: frames sent back to back onto a 400G
//!    link leave at least one frame time apart, and each link's reported
//!    `wire_bytes` is the sum over the frames that crossed it.
//!
//! Inputs are generated with the simulator's own deterministic [`SimRng`]
//! (the offline build cannot fetch proptest), so failures reproduce
//! exactly from the printed seed.

use std::collections::{BTreeMap, BTreeSet};

use adcp::core::{AdcpConfig, AdcpSwitch};
use adcp::fabric::{demo_fabric, Fabric, FabricConfig, DEMO_CELLS};
use adcp::lang::deposit_bits;
use adcp::sim::fault::{FaultConfig, FaultInjector, FaultOutcome};
use adcp::sim::packet::{FlowId, Packet};
use adcp::sim::port::LinkSpeed;
use adcp::sim::rng::SimRng;
use adcp::sim::time::{Duration, SimTime};
use adcp::sim::trace::{Hop, Site};
use adcp_bench::journey::forensics;

const PKTS: u64 = 300;
/// Injection gap, comfortably above the fault injector's max delay so the
/// workload arrives in id order at every device.
const GAP_NS: u64 = 3_000;

/// The demo partitioned-counter wire format: op:8 key:32 idx:16 val:32
/// fphase:8 fgk:16 (scratch fields left zero).
fn frame(key: u64, idx: u64, val: u64) -> Vec<u8> {
    let mut buf = vec![0u8; 14];
    assert!(deposit_bits(&mut buf, 0, 8, 1));
    assert!(deposit_bits(&mut buf, 8, 32, key));
    assert!(deposit_bits(&mut buf, 40, 16, idx));
    assert!(deposit_bits(&mut buf, 56, 32, val));
    buf
}

/// What one faulty run observed, fabric plus host-side bookkeeping.
struct Run {
    fabric: Fabric,
    /// Ids that reached a host RX port (survived the wire).
    injected: BTreeSet<u64>,
    /// Ids delivered back out of a host TX port.
    delivered: BTreeSet<u64>,
    /// Frames that were bit-flipped on the wire but still injected.
    corrupted: u64,
}

/// Drive the 2-spine × 4-leaf demo fabric (journey tracing on) through a
/// seeded workload with host-link faults applied before injection.
fn run_faulty(seed: u64) -> Run {
    let cfg = FabricConfig {
        switch: AdcpConfig {
            trace: true,
            ..Default::default()
        },
        ..Default::default()
    };
    let (mut fabric, _program) = demo_fabric(seed, cfg);
    let mut rng = SimRng::seed_from(seed);
    let mut inj = FaultInjector::new(
        FaultConfig {
            drop_chance: 0.06,
            corrupt_chance: 0.08,
            delay_chance: 0.15,
            max_delay: Duration::from_ns(2_000),
        },
        SimRng::seed_from(seed ^ 0xFA17),
    );
    let ports = fabric.spec().logical_ports() as u64;
    let mut injected = BTreeSet::new();
    let mut corrupted = 0u64;
    for i in 0..PKTS {
        let key = rng.range(0u64..1 << 32);
        let idx = rng.range(0u64..DEMO_CELLS as u64);
        let val = rng.range(1u64..1000);
        let mut p = Packet::new(i, FlowId(1000 + i), frame(key, idx, val)).seal();
        let base = SimTime::from_ns(1 + i * GAP_NS);
        let at = match inj.apply(&mut p) {
            FaultOutcome::Dropped => continue, // lost on the wire
            FaultOutcome::Corrupted => {
                corrupted += 1;
                base
            }
            FaultOutcome::Delayed(d) => base + d,
            FaultOutcome::Pass => base,
        };
        injected.insert(i);
        fabric.inject((i % ports) as u32, p, at);
    }
    fabric.run_until_idle();
    fabric.check_conservation();
    let delivered: BTreeSet<u64> = fabric.take_delivered().iter().map(|d| d.meta.id).collect();
    Run {
        fabric,
        injected,
        delivered,
        corrupted,
    }
}

/// Every switch in the fabric, named.
fn devices(fabric: &Fabric) -> Vec<(String, &AdcpSwitch)> {
    let mut out = Vec::new();
    for l in 0..fabric.n_leaves() {
        out.push((format!("leaf{l}"), fabric.leaf(l)));
    }
    for s in 0..fabric.n_spines() {
        out.push((format!("spine{s}"), fabric.spine(s)));
    }
    out
}

fn is_terminal(site: Site) -> bool {
    matches!(site, Site::Tx(_) | Site::Dropped)
}

/// The per-segment chain invariants (same as the single-switch journey
/// properties): time-sorted spans, internally ordered, at most one
/// terminal hop and nothing after it.
fn check_chain(hops: &[Hop], what: &str) {
    for w in hops.windows(2) {
        assert!(
            w[0].enter <= w[1].enter && w[0].exit <= w[1].exit,
            "{what}: journey not time-sorted: {:?} then {:?}",
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
    assert!(
        hops.iter().filter(|h| is_terminal(h.site)).count() <= 1,
        "{what}: multiple terminal hops: {hops:?}"
    );
}

/// Injected == delivered + Σ typed drops, summed over every switch in the
/// fabric; the only populated drop class is the MAC's FCS rejection of the
/// wire-corrupted frames, and it matches the host-side corruption count
/// exactly.
#[test]
fn conservation_holds_fabric_wide_under_faults() {
    for seed in [0xFAB1u64, 0xFAB2, 0xFAB3] {
        let run = run_faulty(seed);
        let f = &run.fabric;
        assert_eq!(f.host_injected(), run.injected.len() as u64);
        assert_eq!(f.host_delivered(), run.delivered.len() as u64);
        assert!(f.forwarded() > 0, "seed {seed:#x}: nothing crossed a link");
        assert!(
            run.corrupted > 0,
            "seed {seed:#x}: schedule exercised no corruption"
        );
        let (mut total_drops, mut fcs_drops) = (0u64, 0u64);
        for (name, sw) in devices(f) {
            let c = &sw.counters;
            assert_eq!(c.parse_errors, 0, "seed {seed:#x} {name}: parse errors");
            assert_eq!(c.no_decision, 0, "seed {seed:#x} {name}: no_decision");
            assert_eq!(c.bad_port, 0, "seed {seed:#x} {name}: bad_port");
            assert_eq!(c.filtered, 0, "seed {seed:#x} {name}: filtered");
            assert_eq!(
                c.tm[0].total() + c.tm[1].total(),
                0,
                "seed {seed:#x} {name}: TM/queue drops"
            );
            total_drops += c.total_drops();
            fcs_drops += c.fcs_drops;
        }
        assert_eq!(
            f.host_injected(),
            f.host_delivered() + total_drops,
            "seed {seed:#x}: fabric-wide conservation violated"
        );
        assert_eq!(
            fcs_drops, run.corrupted,
            "seed {seed:#x}: every wire-corrupted frame must die at an FCS check"
        );
    }
}

/// Split one device's journey into visits: a packet can transit the same
/// switch more than once (a spine carries it toward the owner leaf in
/// phase 2 and back toward the delivery leaf in phase 3), and each
/// traversal is its own Rx→…→Tx chain. A new visit starts after every
/// terminal hop.
fn visits(hops: Vec<Hop>) -> Vec<Vec<Hop>> {
    let mut out = Vec::new();
    let mut cur = Vec::new();
    for h in hops {
        let terminal = is_terminal(h.site);
        cur.push(h);
        if terminal {
            out.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// Each sampled packet's journey splits into visits — one per switch
/// traversal — each a monotonic chain with one terminal hop; the visits
/// order by entry time and never overlap backwards (the link latency
/// separates them); every non-final visit ends in a `Tx` (the frame left
/// over a link), and the final one ends in `Tx` iff the packet reached a
/// host port, `Dropped` otherwise.
#[test]
fn journeys_chain_across_switches() {
    let run = run_faulty(0x10AD_FAB5);
    let devs = devices(&run.fabric);
    if !devs[0].1.tracer.is_enabled() {
        eprintln!("journey tracer disabled via env; skipping");
        return;
    }
    for (name, sw) in &devs {
        assert_eq!(sw.tracer.evicted(), 0, "{name}: ring must hold the run");
    }
    let mut multi_hop = 0u64;
    for &id in &run.injected {
        if !devs[0].1.tracer.samples(id) {
            continue;
        }
        let mut segs: Vec<(String, Vec<Hop>)> = devs
            .iter()
            .flat_map(|(name, sw)| {
                visits(sw.tracer.journey_of(id))
                    .into_iter()
                    .map(|v| (name.clone(), v))
            })
            .collect();
        assert!(!segs.is_empty(), "pkt {id}: injected but traced nowhere");
        segs.sort_by_key(|(_, hops)| hops[0].enter);
        if segs.len() > 1 {
            multi_hop += 1;
        }
        for (name, hops) in &segs {
            check_chain(hops, &format!("pkt {id} on {name}"));
        }
        for w in segs.windows(2) {
            let (prev_name, prev) = &w[0];
            let (next_name, next) = &w[1];
            assert!(
                prev.last().unwrap().exit <= next[0].enter,
                "pkt {id}: entered {next_name} before leaving {prev_name}"
            );
            assert!(
                matches!(prev.last().unwrap().site, Site::Tx(_)),
                "pkt {id}: left {prev_name} without a Tx terminal"
            );
        }
        let (last_name, last_hops) = segs.last().unwrap();
        let last = last_hops.last().unwrap();
        if run.delivered.contains(&id) {
            assert!(
                matches!(last.site, Site::Tx(_)),
                "pkt {id}: delivered but its journey ends at {:?} on {last_name}",
                last.site
            );
        } else {
            assert_eq!(
                last.site,
                Site::Dropped,
                "pkt {id}: never delivered but its journey ends at {:?} on {last_name}",
                last.site
            );
        }
    }
    assert!(
        multi_hop > 0,
        "no sampled packet crossed a switch boundary; the property was not exercised"
    );
}

/// On every device, forensic drop totals reconstructed from the journey
/// trace agree with the exported counters (skipped per device only when the
/// tracer/registry is env-disabled, in which case there is nothing to
/// check — same contract as the conformance harness).
#[test]
fn forensics_agree_with_metrics_on_every_switch() {
    let run = run_faulty(0xF0E5_FAB5);
    for (name, sw) in devices(&run.fabric) {
        match forensics(&sw.trace_json(), &sw.metrics_json()) {
            None => {}
            Some(f) => assert!(
                f.ok(),
                "{name}: forensics disagree with the counters: {}",
                f.mismatches.join("; ")
            ),
        }
    }
}

/// The switch ports run at 800G and the links at 400G, so a burst that
/// leaves a switch onto one link faster than the wire drains must queue
/// there. From the fabric's own record: consecutive arrivals on each link
/// are at least the later frame's 400G serialization time apart, some
/// frames did wait for the wire, and every link's reported `wire_bytes`
/// is the sum of the wire bytes of the frames that crossed it.
#[test]
fn links_queue_frames_and_count_their_wire_bytes() {
    let cfg = FabricConfig {
        switch: AdcpConfig {
            trace: true, // the crossing record is kept while tracing
            ..Default::default()
        },
        ..Default::default()
    };
    let latency = cfg.link_latency;
    let (mut fabric, _program) = demo_fabric(0x11AC, cfg);
    let mut rng = SimRng::seed_from(0x11AC);
    let ports = fabric.spec().logical_ports() as u64;
    let mut wire_bytes = BTreeMap::new();
    for i in 0..PKTS {
        let mut data = frame(
            rng.range(0u64..1 << 32),
            rng.range(0u64..DEMO_CELLS as u64),
            rng.range(1u64..1000),
        );
        // Frame lengths vary, so a byte count is not a frame count.
        data.resize(64 + 96 * (i as usize % 4), 0);
        let p = Packet::new(i, FlowId(1000 + i), data).seal();
        wire_bytes.insert(i, p.wire_bytes() as u64);
        // Bursts of 32 frames at one instant over all host ports.
        fabric.inject((i % ports) as u32, p, SimTime::from_ns(1 + i / 32 * GAP_NS));
    }
    fabric.run_until_idle();
    fabric.check_conservation();
    assert_eq!(fabric.crossings_truncated(), 0);

    let leaves = fabric.n_leaves() as u16;
    let link_name = |from: u16, to: u16| {
        if from < leaves {
            format!("leaf{from}->spine{}", to - leaves)
        } else {
            format!("spine{}->leaf{to}", from - leaves)
        }
    };
    let mut per_link: BTreeMap<String, Vec<(SimTime, SimTime, u64)>> = BTreeMap::new();
    for c in fabric.crossings() {
        per_link
            .entry(link_name(c.from_device, c.to_device))
            .or_default()
            .push((c.arrive, c.depart, wire_bytes[&c.pkt]));
    }
    let report = fabric.report();
    let frame_time = |bytes: u64| LinkSpeed::gbps(400).serialize(bytes * 8);
    let mut queued = 0;
    for link in &report.links {
        let mut crossed = per_link.remove(&link.name).unwrap_or_default();
        let bytes: u64 = crossed.iter().map(|&(.., b)| b).sum();
        assert_eq!(link.wire_bytes, bytes, "{}: wire_bytes", link.name);
        assert_eq!(link.frames, crossed.len() as u64, "{}: frames", link.name);
        crossed.sort();
        for w in crossed.windows(2) {
            let ((a0, ..), (a1, _, b1)) = (w[0], w[1]);
            assert!(
                a1 >= a0 + frame_time(b1),
                "{}: arrivals {a0} and {a1} closer than one 400G frame time",
                link.name
            );
        }
        // A frame that found the wire idle arrives one frame time plus the
        // propagation latency after its last bit left the switch.
        queued += (crossed.iter())
            .filter(|&&(arrive, depart, b)| arrive > depart + frame_time(b) + latency)
            .count();
    }
    assert!(
        per_link.is_empty(),
        "crossings on unreported links: {per_link:?}"
    );
    assert!(
        queued > 0,
        "no frame waited for a busy wire; the burst queued nothing"
    );
}
