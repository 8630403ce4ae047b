//! Partitioned shard counting under live repartitioning ("partmigrate").
//!
//! A Zipf-skewed keyed workload updates per-shard counters in the global
//! partitioned area. The key-to-shard fold is deliberately "unlucky": hot
//! keys collide onto the same central pipeline (`stride`), so the initial
//! uniform partition map concentrates the load. On the ADCP a
//! [`Controller`] watches per-bucket load mid-run, plans a rebalance and
//! migrates the register shards live (drain or incremental strategy);
//! correctness demands that **no counter update is lost, duplicated, or
//! misrouted across the migration** — every delivered packet carries the
//! pre-increment counter value it observed, so the multiset of observed
//! values per shard must be exactly `0..n-1`.
//!
//! RMT has no global partitioned area to repartition: the same program
//! runs (pinned or recirculating), but the skew stays where it lands —
//! the run is the no-control-plane baseline the paper's §3.1 argues
//! against.

use crate::driver::{self, AppReport, TargetKind};
use crate::suite::Scale;
use adcp_core::{MigrationStats, MigrationStrategy, PartitionMap};
use adcp_ctrl::{Controller, LoadSnapshot, SkewPolicy};
use adcp_lang::{
    ActionDef, ActionOp, BinOp, FieldDef, FieldId, FieldRef, HeaderDef, HeaderId, Operand,
    ParserSpec, Program, ProgramBuilder, RegAluOp, Region, RegisterDef, TableDef,
};
use adcp_sim::packet::{FlowId, Packet, PortId};
use adcp_sim::rng::SimRng;
use adcp_sim::time::SimTime;
use adcp_workloads::keys::ZipfKeys;

/// Shards in the partitioned area (also the partition-map bucket count
/// and the counter register size — the cell == partition-key convention).
pub const SHARDS: u64 = 64;

/// Parameters of one partmigrate run.
#[derive(Debug, Clone)]
pub struct MigrateCfg {
    /// Distinct keys in the keyspace (folded into [`SHARDS`] shards).
    pub keyspace: usize,
    /// Zipf skew of key popularity.
    pub skew: f64,
    /// Packets to send.
    pub packets: u32,
    /// Client ports used round-robin.
    pub clients: u16,
    /// Inter-packet gap, ns.
    pub gap_ns: u64,
    /// Popularity-rank-to-key multiplier. With the default 4, the hottest
    /// keys all fold onto the same central pipeline under the initial
    /// uniform map — the "unlucky hash" the control plane must fix.
    pub stride: u64,
    /// Migration strategy for the controller; `None` runs without a
    /// control plane (the skew persists — baseline).
    pub strategy: Option<MigrationStrategy>,
    /// Controller ticks spread evenly across the run.
    pub ticks: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MigrateCfg {
    fn default() -> Self {
        MigrateCfg {
            keyspace: 4096,
            skew: 1.1,
            packets: 4_000,
            clients: 4,
            gap_ns: 200,
            stride: 4,
            strategy: Some(MigrationStrategy::Incremental),
            ticks: 8,
            seed: 31,
        }
    }
}

impl MigrateCfg {
    /// The size the suite runs at `scale` ([`crate::suite`]).
    pub fn sized(scale: Scale) -> Self {
        let mut cfg = Self::default();
        if scale == Scale::Quick {
            cfg.packets = 800;
        }
        cfg
    }
}

/// Parse a `--migrate` flag value: `drain`, `incremental`, or `off`.
/// Outer `None` means the string is not a recognised mode.
pub fn parse_strategy(s: &str) -> Option<Option<MigrationStrategy>> {
    match s {
        "drain" => Some(Some(MigrationStrategy::Drain)),
        "incremental" | "inc" => Some(Some(MigrationStrategy::Incremental)),
        "off" | "none" => Some(None),
        _ => None,
    }
}

fn fr(f: u16) -> FieldRef {
    FieldRef::new(HeaderId(0), FieldId(f))
}

const F_DST: u16 = 0;
const F_KEY: u16 = 1;
const F_IDX: u16 = 2;
const F_COUNT: u16 = 3;

/// Build the shard-counting program. Header: {dst:16, key:16, idx:16,
/// count:32}. Ingress folds `key` into a shard index and steers; the
/// central table increments the shard counter and echoes the
/// pre-increment value into `count`.
pub fn program(kind: TargetKind, collector: PortId) -> Program {
    let mut b = ProgramBuilder::new("partmigrate");
    let h = b.header(HeaderDef::new(
        "pm",
        vec![
            FieldDef::scalar("dst", 16),
            FieldDef::scalar("key", 16),
            FieldDef::scalar("idx", 16),
            FieldDef::scalar("count", 32),
        ],
    ));
    b.parser(ParserSpec::single(h));
    let cnt = b.register(RegisterDef::new("shard_cnt", SHARDS as u32, 32));
    let fold = ActionOp::Bin {
        dst: fr(F_IDX),
        op: BinOp::And,
        a: Operand::Field(fr(F_KEY)),
        b: Operand::Const(SHARDS - 1),
    };
    let steer = match kind {
        TargetKind::Adcp => vec![ActionOp::SetCentralPipe(Operand::Field(fr(F_IDX)))],
        TargetKind::RmtRecirc => vec![
            ActionOp::SetCentralPipe(Operand::Field(fr(F_IDX))),
            ActionOp::Recirculate,
        ],
        // Pinned: funnel everything to the collector's egress pipeline,
        // where the pinned central table (and all shard state) lives.
        TargetKind::RmtPinned => vec![ActionOp::SetEgress(Operand::Const(collector.0 as u64))],
    };
    b.table(TableDef {
        name: "shard".into(),
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
    b.table(TableDef {
        name: "count".into(),
        region: Region::Central,
        key: None,
        actions: vec![ActionDef::new(
            "bump",
            vec![
                ActionOp::RegRmw {
                    reg: cnt,
                    index: Operand::Field(fr(F_IDX)),
                    op: RegAluOp::Add,
                    value: Operand::Const(1),
                    fetch: Some(fr(F_COUNT)),
                },
                ActionOp::SetEgress(Operand::Field(fr(F_DST))),
            ],
        )],
        default_action: 0,
        default_params: vec![],
        size: 1,
    });
    b.build()
}

fn pkt(id: u64, dst: u16, key: u16) -> Packet {
    let mut data = Vec::with_capacity(10 + 8);
    data.extend_from_slice(&dst.to_be_bytes());
    data.extend_from_slice(&key.to_be_bytes());
    data.extend_from_slice(&[0u8; 2]); // idx (computed in ingress)
    data.extend_from_slice(&[0u8; 4]); // count (filled centrally)
    data.extend_from_slice(&[0u8; 8]); // payload
    Packet::new(id, FlowId(key as u64), data)
        .with_goodput(8)
        .with_elements(1)
}

/// Outcome of a partmigrate run.
#[derive(Debug, Clone)]
pub struct MigrateOutcome {
    /// Standard app report.
    pub report: AppReport,
    /// Rebalances the controller actuated (ADCP only).
    pub rebalances: usize,
    /// Migration protocol stats (zeroes on RMT / with the controller off).
    pub stats: MigrationStats,
    /// Partition-map epoch at the end of the run.
    pub final_epoch: u64,
    /// Pipe-load skew (max/mean) observed before the first rebalance.
    pub skew_before: f64,
    /// Pipe-load skew over the traffic after the last map change.
    pub skew_after: f64,
}

/// Correctness oracle shared by every target: each delivered packet
/// carries the pre-increment counter it observed, so per shard the
/// observed values must be exactly the multiset `{0, 1, ..., n-1}` —
/// any lost, duplicated, or misordered-on-one-cell update breaks it.
fn check_counts(delivered: &[crate::driver::Delivered], packets: u32) -> bool {
    if delivered.len() != packets as usize {
        return false;
    }
    let mut per_shard: Vec<Vec<u64>> = vec![Vec::new(); SHARDS as usize];
    for d in delivered {
        let key = u16::from_be_bytes(d.data[2..4].try_into().unwrap()) as u64;
        let count = u32::from_be_bytes(d.data[6..10].try_into().unwrap()) as u64;
        per_shard[(key & (SHARDS - 1)) as usize].push(count);
    }
    per_shard.iter_mut().all(|obs| {
        obs.sort_unstable();
        obs.iter().enumerate().all(|(i, &c)| c == i as u64)
    })
}

/// Run partmigrate on a target.
pub fn run(kind: TargetKind, cfg: &MigrateCfg) -> MigrateOutcome {
    let collector = PortId(cfg.clients); // one past the clients
    let zipf = ZipfKeys::new(cfg.keyspace, cfg.skew);
    let mut rng = SimRng::seed_from(cfg.seed);
    let keys: Vec<u16> = (0..cfg.packets)
        .map(|_| ((zipf.sample(&mut rng) * cfg.stride) % cfg.keyspace as u64) as u16)
        .collect();
    let gap_ps = cfg.gap_ns * 1_000;
    let span_ps = cfg.packets as u64 * gap_ps;

    let mut sw = driver::build(kind, |_| program(kind, collector))
        .expect("partmigrate compiles on every target");
    let mut notes = sw.placement().notes.clone();
    if kind == TargetKind::Adcp {
        let adcp = sw.adcp_mut();
        let n_pipes = adcp.num_central() as u32;
        adcp.install_partition_map(PartitionMap::uniform(SHARDS as u32, n_pipes))
            .expect("map installs on the idle switch");
    }
    for (i, &key) in keys.iter().enumerate() {
        sw.inject(
            PortId(i as u16 % cfg.clients),
            pkt(i as u64, collector.0, key),
            SimTime(i as u64 * gap_ps),
        );
    }
    let (rebalances, stats, final_epoch, skew_before, skew_after) = if kind == TargetKind::Adcp {
        let sw = sw.adcp_mut();
        let mut ctl = cfg.strategy.map(|strategy| {
            Controller::new(SkewPolicy {
                max_over_mean: 1.25,
                min_samples: (cfg.packets as u64 / 10).max(32),
                strategy,
            })
        });
        let mut skew_before = 0.0f64;
        for k in 1..=cfg.ticks.max(1) as u64 {
            let now = sw.run_until(SimTime(span_ps * k / cfg.ticks.max(1) as u64));
            if let Some(ctl) = ctl.as_mut() {
                if ctl.events().is_empty() {
                    if let Some(snap) = LoadSnapshot::from_switch(sw) {
                        skew_before = skew_before.max(snap.skew());
                    }
                }
                ctl.tick(sw, now);
            }
        }
        let end = sw.run_until_idle();
        if let Some(ctl) = ctl.as_mut() {
            ctl.tick(sw, end); // finalize a trailing incremental migration
        }
        let skew_after = LoadSnapshot::from_switch(sw).map_or(1.0, |s| s.skew());
        let rebalances = ctl.as_ref().map_or(0, |c| c.events().len());
        if let Some(ctl) = &ctl {
            for ev in ctl.events() {
                notes.push(format!(
                    "rebalance at {} ns: skew {:.2}, {} buckets -> epoch {} ({:?})",
                    ev.at_ns, ev.skew, ev.moved_buckets, ev.to_epoch, ev.strategy
                ));
            }
        } else {
            notes.push("control plane off: skew persists".into());
        }
        (
            rebalances,
            sw.migration_stats().clone(),
            sw.partition_epoch(),
            skew_before,
            skew_after,
        )
    } else {
        notes.push("no global partitioned area: runs without repartitioning".into());
        (0, MigrationStats::default(), 0, 1.0, 1.0)
    };

    let makespan = sw.run_until_idle();
    sw.check_conservation();
    let delivered = sw.take_delivered();
    let mut correct = check_counts(&delivered, cfg.packets);
    if stats.misroutes != 0 {
        correct = false;
    }
    notes.push(format!(
        "migrations={} moved_keys={} paused_ns={} redirected={} skew {:.2} -> {:.2}",
        stats.migrations,
        stats.moved_keys,
        stats.paused_ns,
        stats.redirected_pkts,
        skew_before,
        skew_after
    ));
    MigrateOutcome {
        report: AppReport::from_switch("partmigrate", kind, &sw, makespan, correct, notes),
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

    fn small(strategy: Option<MigrationStrategy>) -> MigrateCfg {
        MigrateCfg {
            packets: 1_200,
            strategy,
            seed: 77,
            ..MigrateCfg::default()
        }
    }

    #[test]
    fn incremental_rebalance_is_correct_and_reduces_skew() {
        let o = run(
            TargetKind::Adcp,
            &small(Some(MigrationStrategy::Incremental)),
        );
        assert!(o.report.correct, "{:?}", o.report.notes);
        assert!(
            o.rebalances >= 1,
            "controller must react: {:?}",
            o.report.notes
        );
        assert!(o.final_epoch >= 1);
        assert_eq!(o.stats.misroutes, 0);
        assert!(o.stats.moved_keys > 0);
        assert!(
            o.skew_after < o.skew_before,
            "skew {:.2} -> {:.2}",
            o.skew_before,
            o.skew_after
        );
    }

    #[test]
    fn drain_rebalance_is_correct() {
        let o = run(TargetKind::Adcp, &small(Some(MigrationStrategy::Drain)));
        assert!(o.report.correct, "{:?}", o.report.notes);
        assert!(o.rebalances >= 1);
        assert_eq!(o.stats.misroutes, 0);
        assert!(o.stats.paused_ns > 0, "drain must pause");
    }

    #[test]
    fn baseline_without_controller_keeps_the_skew() {
        let o = run(TargetKind::Adcp, &small(None));
        assert!(o.report.correct);
        assert_eq!(o.rebalances, 0);
        assert_eq!(o.final_epoch, 0);
        assert_eq!(o.stats.migrations, 0);
    }

    #[test]
    fn rmt_targets_run_without_migration() {
        for kind in [TargetKind::RmtRecirc, TargetKind::RmtPinned] {
            let o = run(kind, &small(Some(MigrationStrategy::Incremental)));
            assert!(o.report.correct, "{kind:?}: {:?}", o.report.notes);
            assert_eq!(o.rebalances, 0);
            assert_eq!(o.stats.migrations, 0);
        }
    }
}
