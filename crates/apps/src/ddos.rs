//! In-network DDoS detection with threshold promotion/demotion ("ddos").
//!
//! Per-source packet counters over tumbling windows, entirely in the
//! switch: each source slot keeps the window id it last counted in, the
//! count inside that window, and a one-bit mitigation state. A source
//! whose in-window count reaches `t_hi` is **promoted** (its traffic is
//! dropped at line rate); when a later window closes below `t_lo` — or a
//! window passes with no traffic at all — the source is **demoted** and
//! its traffic flows again. The hysteresis gap (`t_lo < t_hi`) keeps a
//! source from flapping at the threshold.
//!
//! Traffic is the million-flow TE/security mix from `adcp-workloads`: a
//! Zipf-heavy benign edge plus an adversarial ramp — a compact range of
//! attack sources whose share climbs mid-run to a configured peak, then
//! falls back in a cooldown phase so demotion is exercised too.
//!
//! The security twist on the paper's §3.1 control-plane story: the attack
//! range is *hot state*, and on the ADCP it lands — like any compact key
//! range — in one range bucket of the partitioned central area. A small
//! security controller watches per-bucket load, and when the attack skews
//! a pipe past threshold it reads the detector's own promotion bits out
//! of the central registers, carves the promoted slots into singleton
//! range buckets, and migrates them round-robin across all central pipes
//! **mid-attack** (the epoch-versioned incremental protocol; zero
//! misroutes demanded). RMT has no partitioned area: the same program
//! runs pinned or recirculating, and the skew stays where it lands.
//!
//! Every packet's fate (delivered to the server port vs dropped by the
//! mitigation) is predicted by an exact host reference and every
//! delivered packet is checked against it — across the live migrations.

use crate::driver::{self, AnySwitch, AppReport, TargetKind};
use crate::flowlet::MAX_RMT_SLOTS;
use crate::suite::Scale;
use adcp_core::{
    AdcpConfig, AdcpSwitch, DemuxPolicy, MigrationStats, MigrationStrategy, PartitionMap,
    PartitionScheme,
};
use adcp_ctrl::{plan_rebalance, LoadSnapshot};
use adcp_lang::{
    ActionDef, ActionOp, BinOp, FieldDef, FieldId, FieldRef, HeaderDef, HeaderId, Operand,
    ParserSpec, Program, ProgramBuilder, RegAluOp, RegId, Region, RegisterDef, TableDef,
};
use adcp_rmt::RmtConfig;
use adcp_sim::packet::{FlowId, Packet, PortId};
use adcp_sim::time::SimTime;
use adcp_workloads::{AttackRamp, TrafficCfg, TrafficGen};

/// Parameters of one DDoS-detection run.
#[derive(Debug, Clone)]
pub struct DdosCfg {
    /// Benign live-flow keyspace (sources `0..flows`).
    pub flows: u64,
    /// Attack sources (the compact range `flows..flows + attackers`).
    pub attackers: u64,
    /// Packets in the attack phase (ramp to peak, then flat).
    pub pkts: u64,
    /// Packets in the cooldown phase (attack share drops to
    /// `COOL_SHARE`, so windows close under `t_lo` and demotion fires).
    pub cool_pkts: u64,
    /// Packets per tumbling window (the window id is stamped into the
    /// header by the edge, so window semantics are exact).
    pub window_pkts: u64,
    /// Zipf skew of benign source popularity.
    pub skew: f64,
    /// Attack share of the mix at the ramp's peak.
    pub peak_share: f64,
    /// Promote when a source's in-window count reaches this.
    pub t_hi: u32,
    /// Demote when a closed window stayed strictly below this.
    pub t_lo: u32,
    /// Client RX ports (source `s` arrives on port `s % clients`).
    pub clients: u16,
    /// ADCP: install the range-partition map and run the security
    /// controller (live mid-attack rebalance). Off = skew persists.
    pub rebalance: bool,
    /// Controller ticks spread evenly across the run.
    pub ticks: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DdosCfg {
    fn default() -> Self {
        DdosCfg {
            flows: 50_000,
            attackers: 8,
            pkts: 8_000,
            cool_pkts: 4_000,
            window_pkts: 500,
            skew: 0.9,
            peak_share: 0.6,
            t_hi: 25,
            t_lo: 8,
            clients: 4,
            rebalance: true,
            ticks: 12,
            seed: 11,
        }
    }
}

impl DdosCfg {
    /// The size the suite runs at `scale` ([`crate::suite`]): a million
    /// live sources at full, the same program at sanity size when quick.
    pub fn sized(scale: Scale) -> Self {
        match scale {
            Scale::Quick => DdosCfg {
                flows: 4_000,
                attackers: 4,
                pkts: 2_000,
                cool_pkts: 1_000,
                window_pkts: 200,
                ..Self::default()
            },
            Scale::Full => DdosCfg {
                flows: 1_000_000,
                attackers: 32,
                pkts: 40_000,
                cool_pkts: 10_000,
                window_pkts: 2_000,
                ..Self::default()
            },
        }
    }
}

fn fr(f: u16) -> FieldRef {
    FieldRef::new(HeaderId(0), FieldId(f))
}

const F_SRC: u16 = 0; // 32b source id
const F_WIN: u16 = 1; // 32b window id (edge-stamped)
const F_SLOT: u16 = 2; // 32b state slot
const F_OLDW: u16 = 3; // scratch: window the slot last counted in
const F_ROLL: u16 = 4; // scratch: win - oldw (wrapping)
const F_FRESH: u16 = 5; // 8b: 1 when the window rolled
const F_OLDC: u16 = 6; // scratch: the closed window's count
const F_UNDER: u16 = 7; // scratch: closed window under t_lo?
const F_U2: u16 = 8; // scratch: >= 1 empty window elapsed?
const F_ST: u16 = 9; // scratch: mitigation state
const F_KEEP: u16 = 10; // scratch: 1 - under
const F_PREV: u16 = 11; // scratch: pre-increment count
const F_OVER: u16 = 12; // scratch: count reached t_hi?

/// Header bytes (fields above, byte-aligned, in order).
const HDR_BYTES: usize = 49;

/// Injection pacing (see `flowlet`): one event per 5 ns keeps every
/// queue empty, so per-slot processing order equals injection order and
/// the host reference is exact on every target.
const INJECT_GAP_PS: u64 = 5_000;

/// Attack share during cooldown (must sit below the demote rate).
const COOL_SHARE: f64 = 0.05;

/// State slots for a target: exact per-source on the ADCP, hash-folded
/// on the RMT lowerings (collisions accepted — the structural contrast).
pub fn slots_for(kind: TargetKind, sources: u64) -> u64 {
    let exact = sources.next_power_of_two();
    match kind {
        TargetKind::Adcp => exact,
        _ => exact.min(MAX_RMT_SLOTS),
    }
}

/// Build the detector program. Returns the program and the `RegId` of
/// the mitigation-state register (the promotion bits the security
/// controller reads back out of the live switch).
pub fn program(
    kind: TargetKind,
    n_slots: u64,
    t_hi: u32,
    t_lo: u32,
    server: PortId,
    collector: PortId,
) -> (Program, RegId) {
    assert!(t_lo >= 1 && t_hi >= t_lo);
    let mut b = ProgramBuilder::new("ddos");
    let h = b.header(HeaderDef::new(
        "ddos",
        vec![
            FieldDef::scalar("src", 32),
            FieldDef::scalar("win", 32),
            FieldDef::scalar("slot", 32),
            FieldDef::scalar("oldw", 32),
            FieldDef::scalar("roll", 32),
            FieldDef::scalar("fresh", 8),
            FieldDef::scalar("oldc", 32),
            FieldDef::scalar("under", 32),
            FieldDef::scalar("u2", 32),
            FieldDef::scalar("st", 32),
            FieldDef::scalar("keep", 32),
            FieldDef::scalar("prev", 32),
            FieldDef::scalar("over", 32),
        ],
    ));
    b.parser(ParserSpec::single(h));
    let lastwin = b.register(RegisterDef::new("last_window", n_slots as u32, 32));
    let cnt = b.register(RegisterDef::new("window_count", n_slots as u32, 32));
    let state = b.register(RegisterDef::new("mitigation", n_slots as u32, 8));

    // Ingress: fold the source into a slot and steer toward the state.
    let fold = ActionOp::Bin {
        dst: fr(F_SLOT),
        op: BinOp::And,
        a: Operand::Field(fr(F_SRC)),
        b: Operand::Const(n_slots - 1),
    };
    let steer = match kind {
        TargetKind::Adcp => vec![ActionOp::SetCentralPipe(Operand::Field(fr(F_SLOT)))],
        TargetKind::RmtRecirc => vec![
            ActionOp::SetCentralPipe(Operand::Field(fr(F_SLOT))),
            ActionOp::Recirculate,
        ],
        // Pinned: funnel everything to the collector's egress pipeline,
        // where all detector state lives; survivors can only leave on
        // the collector port (the egress region cannot redirect).
        TargetKind::RmtPinned => vec![ActionOp::SetEgress(Operand::Const(collector.0 as u64))],
    };
    b.table(TableDef {
        name: "classify".into(),
        region: Region::Ingress,
        key: None,
        actions: vec![ActionDef::new(
            "fold",
            [
                vec![fold],
                steer,
                vec![ActionOp::CountElements(Operand::Const(1))],
            ]
            .concat(),
        )],
        default_action: 0,
        default_params: vec![],
        size: 1,
    });

    // Central detector: window roll (with demotion), count, promote,
    // verdict. `MarkDrop` continues execution, so it must come last.
    let mut detect = vec![
        // Which window did this slot last count in?
        ActionOp::RegRmw {
            reg: lastwin,
            index: Operand::Field(fr(F_SLOT)),
            op: RegAluOp::Write,
            value: Operand::Field(fr(F_WIN)),
            fetch: Some(fr(F_OLDW)),
        },
        ActionOp::Bin {
            dst: fr(F_ROLL),
            op: BinOp::Sub,
            a: Operand::Field(fr(F_WIN)),
            b: Operand::Field(fr(F_OLDW)),
        },
        ActionOp::Bin {
            dst: fr(F_FRESH),
            op: BinOp::Ge,
            a: Operand::Field(fr(F_ROLL)),
            b: Operand::Const(1),
        },
    ];
    // The window rolled: close the old one. Demote when it ended under
    // t_lo, or when at least one whole window passed with no traffic.
    detect.push(ActionOp::IfEq {
        a: Operand::Field(fr(F_FRESH)),
        b: Operand::Const(1),
        then: vec![
            ActionOp::RegRmw {
                reg: cnt,
                index: Operand::Field(fr(F_SLOT)),
                op: RegAluOp::Write,
                value: Operand::Const(0),
                fetch: Some(fr(F_OLDC)),
            },
            ActionOp::Bin {
                dst: fr(F_UNDER),
                op: BinOp::Ge,
                a: Operand::Const(t_lo as u64 - 1),
                b: Operand::Field(fr(F_OLDC)),
            },
            ActionOp::Bin {
                dst: fr(F_U2),
                op: BinOp::Ge,
                a: Operand::Field(fr(F_ROLL)),
                b: Operand::Const(2),
            },
            ActionOp::Bin {
                dst: fr(F_UNDER),
                op: BinOp::Or,
                a: Operand::Field(fr(F_UNDER)),
                b: Operand::Field(fr(F_U2)),
            },
            // state &= (1 - under): branch-free demotion (no And ALU op
            // on registers, so read-modify-write through the PHV).
            ActionOp::RegRead {
                reg: state,
                index: Operand::Field(fr(F_SLOT)),
                dst: fr(F_ST),
            },
            ActionOp::Bin {
                dst: fr(F_KEEP),
                op: BinOp::Sub,
                a: Operand::Const(1),
                b: Operand::Field(fr(F_UNDER)),
            },
            ActionOp::Bin {
                dst: fr(F_ST),
                op: BinOp::And,
                a: Operand::Field(fr(F_ST)),
                b: Operand::Field(fr(F_KEEP)),
            },
            ActionOp::RegRmw {
                reg: state,
                index: Operand::Field(fr(F_SLOT)),
                op: RegAluOp::Write,
                value: Operand::Field(fr(F_ST)),
                fetch: None,
            },
        ],
    });
    detect.extend([
        // Count this packet; promote when the window reaches t_hi.
        ActionOp::RegRmw {
            reg: cnt,
            index: Operand::Field(fr(F_SLOT)),
            op: RegAluOp::Add,
            value: Operand::Const(1),
            fetch: Some(fr(F_PREV)),
        },
        ActionOp::Bin {
            dst: fr(F_OVER),
            op: BinOp::Ge,
            a: Operand::Field(fr(F_PREV)),
            b: Operand::Const(t_hi as u64 - 1),
        },
        ActionOp::IfEq {
            a: Operand::Field(fr(F_OVER)),
            b: Operand::Const(1),
            then: vec![ActionOp::RegRmw {
                reg: state,
                index: Operand::Field(fr(F_SLOT)),
                op: RegAluOp::Write,
                value: Operand::Const(1),
                fetch: None,
            }],
        },
        // Verdict: promoted sources are dropped at line rate.
        ActionOp::RegRead {
            reg: state,
            index: Operand::Field(fr(F_SLOT)),
            dst: fr(F_ST),
        },
        ActionOp::SetEgress(Operand::Const(server.0 as u64)),
        ActionOp::IfEq {
            a: Operand::Field(fr(F_ST)),
            b: Operand::Const(1),
            then: vec![ActionOp::MarkDrop],
        },
    ]);
    b.table(TableDef {
        name: "detect".into(),
        region: Region::Central,
        key: None,
        actions: vec![ActionDef::new("detect", detect)],
        default_action: 0,
        default_params: vec![],
        size: 1,
    });
    (b.build(), state)
}

fn pkt(id: u64, src: u64, win: u32) -> Packet {
    let mut d = vec![0u8; HDR_BYTES + 6];
    d[0..4].copy_from_slice(&(src as u32).to_be_bytes());
    d[4..8].copy_from_slice(&win.to_be_bytes());
    Packet::new(id, FlowId(src), d)
        .with_goodput(8)
        .with_elements(1)
}

/// Host reference: the exact per-slot state machine the switch runs.
struct DdosRef {
    slot_mask: u64,
    t_hi: u32,
    t_lo: u32,
    lastwin: Vec<u32>,
    cnt: Vec<u32>,
    state: Vec<u8>,
    promoted_ever: Vec<bool>,
    promotions: u64,
    demotions: u64,
}

impl DdosRef {
    fn new(n_slots: u64, t_hi: u32, t_lo: u32) -> Self {
        DdosRef {
            slot_mask: n_slots - 1,
            t_hi,
            t_lo,
            lastwin: vec![0; n_slots as usize],
            cnt: vec![0; n_slots as usize],
            state: vec![0; n_slots as usize],
            promoted_ever: vec![false; n_slots as usize],
            promotions: 0,
            demotions: 0,
        }
    }

    /// Process one packet; returns true when the mitigation drops it.
    fn step(&mut self, src: u64, win: u32) -> bool {
        let s = (src & self.slot_mask) as usize;
        let oldw = self.lastwin[s];
        self.lastwin[s] = win;
        let roll = win.wrapping_sub(oldw);
        if roll >= 1 {
            let oldc = self.cnt[s];
            self.cnt[s] = 0;
            if oldc < self.t_lo || roll >= 2 {
                if self.state[s] == 1 {
                    self.demotions += 1;
                }
                self.state[s] = 0;
            }
        }
        let prev = self.cnt[s];
        self.cnt[s] = prev.wrapping_add(1);
        if prev >= self.t_hi - 1 {
            if self.state[s] == 0 {
                self.promotions += 1;
                self.promoted_ever[s] = true;
            }
            self.state[s] = 1;
        }
        self.state[s] == 1
    }
}

/// The initial range-partition map: per-key singleton buckets over the
/// Zipf head (so the benign hot keys interleave across pipes), then
/// doubling-width ranges over the tail — under a Zipf popularity each
/// doubling carries roughly equal mass, so round-robin owners balance
/// the benign load. A compact hot range in the tail — the attack —
/// still lands in *one* coarse bucket on one pipe.
pub fn initial_map(n_slots: u64, pipes: u32) -> PartitionMap {
    let head = 256u64.min(n_slots / 4).max(1);
    let mut bounds: Vec<u64> = (1..=head).collect();
    let mut w = head;
    let mut x = head + w;
    while x < n_slots {
        bounds.push(x);
        w *= 2;
        x += w;
    }
    let owners = (0..bounds.len() as u32 + 1).map(|b| b % pipes).collect();
    PartitionMap::from_ranges(bounds, owners)
}

/// The range bucket of `key` under a range map, as `[lo, hi)`.
fn bucket_span(map: &PartitionMap, key: u64) -> (u64, u64) {
    let PartitionScheme::Range { bounds, .. } = map.scheme() else {
        return (0, u64::MAX);
    };
    let b = bounds.partition_point(|&x| x <= key);
    let lo = if b == 0 { 0 } else { bounds[b - 1] };
    let hi = bounds.get(b).copied().unwrap_or(u64::MAX);
    (lo, hi)
}

/// Carve every `hot` slot (sorted) into its own singleton range bucket
/// and spread those buckets round-robin across the pipes; every other
/// range keeps its current owner.
fn isolate_slots(map: &PartitionMap, hot: &[u64], pipes: u32) -> PartitionMap {
    let PartitionScheme::Range { bounds, .. } = map.scheme() else {
        unreachable!("the security controller only runs on range maps");
    };
    let mut nb: Vec<u64> = bounds.clone();
    for &s in hot {
        nb.push(s);
        nb.push(s + 1);
    }
    nb.sort_unstable();
    nb.dedup();
    let mut owners = Vec::with_capacity(nb.len() + 1);
    let mut rr = 0u32;
    let mut lo = 0u64;
    for i in 0..=nb.len() {
        let hi = nb.get(i).copied().unwrap_or(u64::MAX);
        if hi == lo.wrapping_add(1) && hot.binary_search(&lo).is_ok() {
            owners.push(rr % pipes);
            rr += 1;
        } else {
            owners.push(map.owner(lo));
        }
        lo = hi;
    }
    PartitionMap::from_ranges(nb, owners)
}

/// Everything a ddos run produced, beyond the standard report.
#[derive(Debug)]
pub struct DdosOutcome {
    /// Standard app report (`correct` = every packet's delivered/dropped
    /// fate and exit port matched the host reference's prediction).
    pub report: AppReport,
    /// Promotion events (0 → 1 transitions) the reference predicted.
    pub promotions: u64,
    /// Demotion events (1 → 0 transitions) the reference predicted.
    pub demotions: u64,
    /// Distinct attack-source slots that were ever promoted.
    pub attackers_promoted: u64,
    /// Packets the mitigation drops.
    pub predicted_drops: u64,
    /// Attack-source packets delivered during the cooldown phase —
    /// nonzero means the mitigation actually lifted after demotion.
    pub cooldown_attack_delivered: u64,
    /// Migrations the security controller actuated (ADCP only).
    pub rebalances: usize,
    /// Migration protocol stats (zeroes on RMT / controller off).
    pub stats: MigrationStats,
    /// Partition-map epoch at the end of the run.
    pub final_epoch: u64,
    /// Pipe-load skew (max/mean) observed before the first migration.
    pub skew_before: f64,
    /// Pipe-load skew over the traffic after the last map change.
    pub skew_after: f64,
}

/// The security controller's per-tick decision against a live switch.
/// Returns a human-readable note when it actuated a migration.
#[allow(clippy::too_many_arguments)]
fn security_tick(
    sw: &mut AdcpSwitch,
    state_reg: RegId,
    n_slots: u64,
    now: SimTime,
    threshold: f64,
    min_samples: u64,
    skew_before: &mut f64,
    rebalances: &mut usize,
) -> Option<String> {
    if sw.migration_active() {
        // Drain migrations self-commit; incremental ones stay open until
        // finalized. Busy / InProgress just mean "not yet".
        let _ = sw.finalize_migration();
        return None;
    }
    let snap = LoadSnapshot::from_switch(sw)?;
    if snap.total < min_samples {
        return None;
    }
    if *rebalances == 0 {
        *skew_before = skew_before.max(snap.skew());
    }
    let skew = snap.skew();
    if skew < threshold {
        return None;
    }
    let map = sw.partition_map()?.clone();
    let pipes = sw.num_central() as u32;
    // The detector's own output is the control signal: promoted slots,
    // read out of the live mitigation register on each cell's owner, one
    // owner run at a time and only where that register has resident pages.
    let mut hot: Vec<u64> = Vec::new();
    for (keys, owner) in map.owner_runs(n_slots) {
        let Some(reg) = sw.central_register(owner as usize, state_reg) else {
            continue;
        };
        let cells = reg.iter_resident(keys.start as usize..keys.end as usize);
        hot.extend(cells.filter(|&(_, v)| v == 1).map(|(s, _)| s as u64));
    }
    let unisolated = hot.iter().any(|&s| {
        let (lo, hi) = bucket_span(&map, s);
        hi.wrapping_sub(lo) != 1
    });
    let (next, what) = if !hot.is_empty() && unisolated {
        (
            isolate_slots(&map, &hot, pipes),
            format!("isolated {} promoted slots", hot.len()),
        )
    } else {
        let next = plan_rebalance(&map, &snap.bucket_pkts, pipes)?;
        let moved = map.moved_buckets(&next).len();
        (next, format!("rebalanced {moved} buckets"))
    };
    let to_epoch = map.epoch + 1;
    match sw.begin_migration(next, MigrationStrategy::Incremental) {
        Ok(()) => {
            *rebalances += 1;
            Some(format!(
                "security ctl at {} ns: skew {skew:.2}, {what} -> epoch {to_epoch}",
                now.as_ps() / 1000
            ))
        }
        // Old-epoch packets still in flight: retry on a later tick.
        Err(_) => None,
    }
}

/// Run the DDoS detector on a target; verify every packet's fate
/// against the host reference.
pub fn run(kind: TargetKind, cfg: &DdosCfg) -> DdosOutcome {
    let collector = PortId(6);
    let server = PortId(10);
    let sources = cfg.flows + cfg.attackers;
    let n_slots = slots_for(kind, sources);
    let (prog, state_reg) = program(kind, n_slots, cfg.t_hi, cfg.t_lo, server, collector);

    // The two-phase traffic mix: ramp to peak, then a low-share cooldown
    // (time is re-paced at injection; the generators supply the exact
    // source/attack sequence, deterministic per seed).
    let main = TrafficGen::new(TrafficCfg {
        flows: cfg.flows,
        pkts: cfg.pkts,
        skew: cfg.skew,
        attack: Some(AttackRamp {
            attackers: cfg.attackers,
            start_frac: 0.2,
            full_frac: 0.5,
            peak_share: cfg.peak_share,
        }),
        seed: cfg.seed,
        ..TrafficCfg::default()
    });
    let cool = TrafficGen::new(TrafficCfg {
        flows: cfg.flows,
        pkts: cfg.cool_pkts.max(1),
        skew: cfg.skew,
        attack: Some(AttackRamp {
            attackers: cfg.attackers,
            start_frac: 0.0,
            full_frac: 0.01,
            peak_share: COOL_SHARE,
        }),
        seed: cfg.seed + 1,
        ..TrafficCfg::default()
    });
    let events: Vec<(u64, bool)> = main.chain(cool).map(|e| (e.src, e.attack)).collect();
    let total = events.len() as u64;

    // The reference predicts every packet's fate up front.
    let mut reference = DdosRef::new(n_slots, cfg.t_hi, cfg.t_lo);
    let mut predicted_drops = 0u64;
    let mut cooldown_attack_delivered = 0u64;
    let predicted: Vec<bool> = events
        .iter()
        .enumerate()
        .map(|(i, &(src, attack))| {
            let win = (i as u64 / cfg.window_pkts.max(1)) as u32;
            let dropped = reference.step(src, win);
            if dropped {
                predicted_drops += 1;
            } else if attack && i as u64 >= cfg.pkts {
                cooldown_attack_delivered += 1;
            }
            dropped
        })
        .collect();
    let attackers_promoted = (cfg.flows..sources)
        .filter(|&s| reference.promoted_ever[(s & reference.slot_mask) as usize])
        .count() as u64;

    let inject_one = |sw: &mut AnySwitch, i: u64, src: u64| {
        sw.inject(
            PortId((src % cfg.clients as u64) as u16),
            pkt(i, src, (i / cfg.window_pkts.max(1)) as u32),
            SimTime((i + 1) * INJECT_GAP_PS),
        );
    };

    let span_ps = (total + 1) * INJECT_GAP_PS;
    let mut sw = driver::build_with(
        kind,
        AdcpConfig {
            demux: DemuxPolicy::FlowHash,
            ..Default::default()
        },
        RmtConfig::default(),
        |_| prog,
    )
    .expect("ddos compiles on every target");
    let mut notes = sw.placement().notes.clone();
    let (rebalances, stats, final_epoch, skew_before, skew_after) =
        if kind == TargetKind::Adcp && cfg.rebalance {
            let mut rebalances = 0usize;
            let mut skew_before = 0.0f64;
            let adcp = sw.adcp_mut();
            let pipes = adcp.num_central() as u32;
            adcp.install_partition_map(initial_map(n_slots, pipes))
                .expect("map installs on the idle switch");
            let ticks = cfg.ticks.max(1) as u64;
            let min_samples = (total / 6).max(64);
            let mut i = 0u64;
            for k in 1..=ticks {
                let bound = SimTime(span_ps * k / ticks);
                while i < total && (i + 1) * INJECT_GAP_PS <= bound.as_ps() {
                    inject_one(&mut sw, i, events[i as usize].0);
                    i += 1;
                }
                let now = sw.run_until(bound);
                if let Some(note) = security_tick(
                    sw.adcp_mut(),
                    state_reg,
                    n_slots,
                    now,
                    1.4,
                    min_samples,
                    &mut skew_before,
                    &mut rebalances,
                ) {
                    notes.push(note);
                }
            }
            while i < total {
                inject_one(&mut sw, i, events[i as usize].0);
                i += 1;
            }
            let end = sw.run_until_idle();
            let adcp = sw.adcp_mut();
            // Finalize a trailing incremental migration.
            security_tick(
                adcp,
                state_reg,
                n_slots,
                end,
                f64::INFINITY,
                u64::MAX,
                &mut skew_before,
                &mut rebalances,
            );
            let skew_after = LoadSnapshot::from_switch(adcp).map_or(1.0, |s| s.skew());
            let stats = adcp.migration_stats().clone();
            (
                rebalances,
                stats,
                adcp.partition_epoch(),
                skew_before,
                skew_after,
            )
        } else {
            notes.push(
                if kind == TargetKind::Adcp {
                    "control plane off: skew persists"
                } else {
                    "no global partitioned area: the attack skew stays where it lands"
                }
                .into(),
            );
            for (i, &(src, _)) in events.iter().enumerate() {
                inject_one(&mut sw, i as u64, src);
                if i % 50_000 == 49_999 {
                    sw.run_until(SimTime((i as u64 + 1) * INJECT_GAP_PS));
                }
            }
            (0, MigrationStats::default(), 0, 1.0, 1.0)
        };

    let makespan = sw.run_until_idle();
    sw.check_conservation();

    // Every delivered packet must be one the reference let through, on
    // the right port; together with the count matching the predicted
    // survivor total, the delivered set equals the prediction exactly.
    let delivered = sw.take_delivered();
    let mut correct = delivered.len() as u64 == total - predicted_drops;
    let want_port = if kind == TargetKind::RmtPinned {
        collector
    } else {
        server
    };
    for d in &delivered {
        if predicted[d.meta.id as usize] || d.port != want_port {
            correct = false;
        }
    }
    if stats.misroutes != 0 {
        correct = false;
    }

    notes.push(format!(
        "slots={n_slots} promotions={} demotions={} attackers_promoted={attackers_promoted} \
         predicted_drops={predicted_drops} migrations={} moved_keys={} misroutes={} \
         skew {skew_before:.2} -> {skew_after:.2}",
        reference.promotions,
        reference.demotions,
        stats.migrations,
        stats.moved_keys,
        stats.misroutes
    ));
    DdosOutcome {
        report: AppReport::from_switch("ddos", kind, &sw, makespan, correct, notes),
        promotions: reference.promotions,
        demotions: reference.demotions,
        attackers_promoted,
        predicted_drops,
        cooldown_attack_delivered,
        rebalances,
        stats,
        final_epoch,
        skew_before,
        skew_after,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_ctl() -> DdosCfg {
        DdosCfg {
            rebalance: false,
            ..DdosCfg::default()
        }
    }

    #[test]
    fn adcp_matches_reference_and_mitigates() {
        let o = run(TargetKind::Adcp, &no_ctl());
        assert!(o.report.correct, "{:?}", o.report.notes);
        assert!(
            o.attackers_promoted == DdosCfg::default().attackers,
            "every attacker promoted: {:?}",
            o.report.notes
        );
        assert!(o.predicted_drops > 0);
        assert!(
            o.report.delivered == o.report.injected - o.predicted_drops,
            "{:?}",
            o.report.notes
        );
    }

    #[test]
    fn cooldown_demotes_and_traffic_flows_again() {
        let o = run(TargetKind::Adcp, &no_ctl());
        assert!(o.report.correct);
        assert!(o.demotions >= 1, "{:?}", o.report.notes);
        assert!(
            o.cooldown_attack_delivered > 0,
            "mitigation must lift after demotion: {:?}",
            o.report.notes
        );
    }

    #[test]
    fn rmt_pinned_matches_reference() {
        let o = run(TargetKind::RmtPinned, &no_ctl());
        assert!(o.report.correct, "{:?}", o.report.notes);
        assert_eq!(o.report.recirc_passes, 0);
    }

    #[test]
    fn rmt_recirc_matches_reference_and_pays_the_tax() {
        let o = run(TargetKind::RmtRecirc, &no_ctl());
        assert!(o.report.correct, "{:?}", o.report.notes);
        assert!(
            o.report.recirc_passes >= o.report.injected,
            "every packet recirculates once: {} passes / {} injected",
            o.report.recirc_passes,
            o.report.injected
        );
    }

    #[test]
    fn live_reshard_spreads_the_attack_with_zero_misroutes() {
        let o = run(TargetKind::Adcp, &DdosCfg::default());
        assert!(o.report.correct, "{:?}", o.report.notes);
        assert!(
            o.rebalances >= 1,
            "the security controller must react mid-attack: {:?}",
            o.report.notes
        );
        assert_eq!(o.stats.misroutes, 0);
        assert!(o.stats.moved_keys > 0, "{:?}", o.report.notes);
        assert!(o.final_epoch >= 1);
        assert!(
            o.skew_after < o.skew_before,
            "skew {:.2} -> {:.2}: {:?}",
            o.skew_before,
            o.skew_after,
            o.report.notes
        );
    }

    #[test]
    fn million_source_state_partitions_and_spans() {
        // Compile-only at 2^20 sources: the ADCP partitions the detector
        // registers across central pipes and spans stages; the RMT
        // lowering folds to MAX_RMT_SLOTS and still spans.
        let sources = 1u64 << 20;
        let n = slots_for(TargetKind::Adcp, sources);
        assert_eq!(n, 1 << 20);
        let sw = driver::build(TargetKind::Adcp, |_| {
            program(TargetKind::Adcp, n, 25, 8, PortId(10), PortId(6)).0
        })
        .expect("million-source detector compiles on ADCP");
        let notes = &sw.placement().notes;
        assert!(
            notes.iter().any(|n| n.contains("partitioned across")),
            "{notes:?}"
        );

        let nr = slots_for(TargetKind::RmtPinned, sources);
        assert_eq!(nr, MAX_RMT_SLOTS);
        let sw = driver::build(TargetKind::RmtPinned, |_| {
            program(TargetKind::RmtPinned, nr, 25, 8, PortId(10), PortId(6)).0
        })
        .expect("folded million-source detector compiles on RMT");
        let notes = &sw.placement().notes;
        assert!(notes.iter().any(|n| n.contains("spans")), "{notes:?}");
    }

    #[test]
    fn initial_map_isolates_head_and_coarsens_tail() {
        let map = initial_map(1 << 16, 4);
        // Head keys are singleton buckets interleaved across pipes.
        for k in 0..256u64 {
            let (lo, hi) = bucket_span(&map, k);
            assert_eq!((lo, hi), (k, k + 1));
            assert_eq!(map.owner(k), (k % 4) as u32);
        }
        // A compact tail range shares one coarse bucket (and one pipe).
        let (lo, hi) = bucket_span(&map, 50_000);
        assert!(hi - lo > 1_000);
        assert_eq!(map.owner(50_000), map.owner(50_007));
        // Isolating hot slots carves singletons spread round-robin.
        let hot: Vec<u64> = (50_000..50_008).collect();
        let next = isolate_slots(&map, &hot, 4);
        for (i, &s) in hot.iter().enumerate() {
            let (lo, hi) = bucket_span(&next, s);
            assert_eq!((lo, hi), (s, s + 1));
            assert_eq!(next.owner(s), (i % 4) as u32);
        }
        // Everything else keeps its owner.
        assert_eq!(next.owner(40_000), map.owner(40_000));
        assert_eq!(next.owner(123), map.owner(123));
    }
}
