//! Control plane for the global partitioned area.
//!
//! The data plane (`adcp-core`) executes whatever partition map it is
//! given; this crate decides *which* map and *when*. A [`Controller`]
//! periodically observes per-bucket load on a live [`AdcpSwitch`], detects
//! skew against a [`SkewPolicy`], plans a better owner assignment
//! ([`plan_rebalance`], [`plan_scale_to`]) and drives the switch's
//! epoch-versioned migration protocol (`begin_migration` /
//! `finalize_migration`) to make it take effect under traffic.
//!
//! Planning is deliberately separated from actuation: the planners are
//! pure functions from `(map, loads)` to a candidate map, so they can be
//! unit-tested and reused by experiments that want a precomputed plan
//! (equal final balance across strategies) rather than a closed loop.
//!
//! Every actuation the controller drives also lands on the journey
//! tracer's control-plane track (`adcp_sim::trace::CtrlEvent`: migration
//! begin / epoch bump / commit / finalize, with strategy and moved-key
//! counts), so a rebalance can be laid over the per-packet journeys it
//! fenced — `adcp-trace --chrome` renders both on one timeline.

use adcp_core::{AdcpSwitch, MigrateError, MigrationStrategy, PartitionMap, PartitionScheme};
use adcp_sim::time::SimTime;
use serde::Serialize;

/// A point-in-time view of partitioned-area load, read off the switch's
/// per-bucket packet counters (which reset whenever a new map takes
/// effect, so the snapshot always describes the *current* epoch).
#[derive(Debug, Clone)]
pub struct LoadSnapshot {
    /// Packets routed per partition bucket since the current map took effect.
    pub bucket_pkts: Vec<u64>,
    /// The same traffic aggregated by owning central pipe.
    pub pipe_pkts: Vec<u64>,
    /// Total packets observed.
    pub total: u64,
}

impl LoadSnapshot {
    /// Read the current snapshot. `None` when no partition map is installed.
    pub fn from_switch(sw: &AdcpSwitch) -> Option<Self> {
        let map = sw.partition_map()?;
        let bucket_pkts = sw.bucket_loads()?.to_vec();
        let mut pipe_pkts = vec![0u64; sw.num_central()];
        for (b, &n) in bucket_pkts.iter().enumerate() {
            pipe_pkts[map.owner_of_bucket(b as u32) as usize] += n;
        }
        let total = bucket_pkts.iter().sum();
        Some(LoadSnapshot {
            bucket_pkts,
            pipe_pkts,
            total,
        })
    }

    /// Load skew: hottest pipe over mean pipe load. `1.0` is perfectly
    /// balanced; `n_pipes` means one pipe takes everything. Returns `1.0`
    /// when no traffic has been observed.
    pub fn skew(&self) -> f64 {
        if self.total == 0 || self.pipe_pkts.is_empty() {
            return 1.0;
        }
        let max = *self.pipe_pkts.iter().max().unwrap() as f64;
        let mean = self.total as f64 / self.pipe_pkts.len() as f64;
        max / mean
    }
}

/// When and how the controller reacts to load skew.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct SkewPolicy {
    /// Trigger threshold: rebalance when hottest-pipe load exceeds this
    /// multiple of the mean.
    pub max_over_mean: f64,
    /// Minimum packets observed in the current epoch before the skew
    /// estimate is trusted (avoids thrashing on startup noise).
    pub min_samples: u64,
    /// How state follows the new map.
    pub strategy: MigrationStrategy,
}

impl Default for SkewPolicy {
    fn default() -> Self {
        SkewPolicy {
            max_over_mean: 1.25,
            min_samples: 64,
            strategy: MigrationStrategy::Incremental,
        }
    }
}

/// Why the controller actuated a migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum RebalanceKind {
    /// Same pipe count, load skew crossed the policy threshold.
    Skew,
    /// SLO burn rate demanded another central pipe.
    ScaleUp,
    /// Sustained headroom allowed retiring a central pipe.
    ScaleDown,
}

/// Record of one rebalance decision the controller actuated.
#[derive(Debug, Clone, Serialize)]
pub struct RebalanceEvent {
    /// Simulated time (ns) of the decision.
    pub at_ns: u64,
    /// Epoch of the map the migration installs.
    pub to_epoch: u64,
    /// Skew observed at decision time.
    pub skew: f64,
    /// Buckets whose owner changes.
    pub moved_buckets: usize,
    /// Strategy used.
    pub strategy: MigrationStrategy,
    /// What triggered the move.
    pub kind: RebalanceKind,
    /// Distinct central pipes owning buckets once the new map is in force.
    pub pipes: u32,
}

fn with_owners(map: &PartitionMap, owners: Vec<u32>) -> PartitionMap {
    match map.scheme() {
        PartitionScheme::Hash { .. } => PartitionMap::from_buckets(owners),
        PartitionScheme::Range { bounds, .. } => PartitionMap::from_ranges(bounds.clone(), owners),
    }
}

/// Plan a minimal-movement rebalance: repeatedly hand the heaviest
/// movable bucket of the hottest pipe to the coldest pipe, as long as
/// that strictly narrows the hot/cold gap. Keeps the bucket structure
/// (hash or range) and moves as few buckets as the load shape allows.
///
/// Returns `None` when no single move improves the imbalance (already
/// balanced, or one bucket alone is the hotspot and splitting — not
/// reassignment — would be needed).
pub fn plan_rebalance(
    map: &PartitionMap,
    bucket_load: &[u64],
    n_pipes: u32,
) -> Option<PartitionMap> {
    assert!(n_pipes > 0);
    let mut owners = map.owners().to_vec();
    assert_eq!(owners.len(), bucket_load.len());
    let mut pipe_load = vec![0u64; n_pipes as usize];
    for (b, &o) in owners.iter().enumerate() {
        pipe_load[o as usize] += bucket_load[b];
    }
    let mut moved_any = false;
    loop {
        let hot = (0..pipe_load.len()).max_by_key(|&p| pipe_load[p]).unwrap();
        let cold = (0..pipe_load.len()).min_by_key(|&p| pipe_load[p]).unwrap();
        let gap = pipe_load[hot] - pipe_load[cold];
        // Heaviest bucket on the hot pipe whose move strictly shrinks the
        // gap: after moving load l the pair differs by |gap - 2l|, so any
        // 0 < l < gap improves it.
        let best = owners
            .iter()
            .enumerate()
            .filter(|&(b, &o)| o as usize == hot && bucket_load[b] > 0 && bucket_load[b] < gap)
            .max_by_key(|&(b, _)| bucket_load[b])
            .map(|(b, _)| b);
        let Some(b) = best else { break };
        owners[b] = cold as u32;
        pipe_load[hot] -= bucket_load[b];
        pipe_load[cold] += bucket_load[b];
        moved_any = true;
    }
    moved_any.then(|| with_owners(map, owners))
}

/// Plan a scale-up/scale-down: repack every bucket onto `n_pipes` pipes
/// with longest-processing-time-first packing (heaviest bucket to the
/// currently lightest pipe). Produces a near-balanced assignment
/// regardless of the old owner layout — use [`plan_rebalance`] when
/// minimizing movement matters more than the pipe count changing.
pub fn plan_scale_to(map: &PartitionMap, bucket_load: &[u64], n_pipes: u32) -> PartitionMap {
    assert!(n_pipes > 0);
    let n_buckets = map.owners().len();
    assert_eq!(n_buckets, bucket_load.len());
    let mut order: Vec<usize> = (0..n_buckets).collect();
    order.sort_by_key(|&b| (std::cmp::Reverse(bucket_load[b]), b));
    let mut owners = vec![0u32; n_buckets];
    let mut pipe_load = vec![0u64; n_pipes as usize];
    let mut rr = 0usize; // spread zero-load buckets round-robin
    for b in order {
        let p = if bucket_load[b] == 0 {
            let p = rr % n_pipes as usize;
            rr += 1;
            p
        } else {
            (0..pipe_load.len()).min_by_key(|&p| pipe_load[p]).unwrap()
        };
        owners[b] = p as u32;
        pipe_load[p] += bucket_load[b];
    }
    with_owners(map, owners)
}

/// SLO-aware autoscaling policy: when to grow or shrink the set of
/// active central pipes in response to the observed burn rate.
///
/// Hysteresis comes from three sides: distinct up/down thresholds, a
/// cooldown between scale actions, and the migration fence itself (no new
/// plan while one is in flight), so a noisy burn signal cannot thrash the
/// partition map.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ScalePolicy {
    /// Never shrink below this many active pipes.
    pub min_pipes: u32,
    /// Never grow beyond this many (additionally clamped to the switch's
    /// physical central pipe count).
    pub max_pipes: u32,
    /// Scale up when the SLO burn rate reaches this fraction.
    pub burn_up: f64,
    /// Scale down when the burn rate is at or below this fraction.
    pub burn_down: f64,
    /// Serving ticks that must pass after a scale action before the next
    /// one is considered.
    pub cooldown_ticks: u64,
    /// How state follows a scale migration.
    pub strategy: MigrationStrategy,
}

impl Default for ScalePolicy {
    fn default() -> Self {
        ScalePolicy {
            min_pipes: 1,
            max_pipes: 4,
            burn_up: 0.5,
            burn_down: 0.05,
            cooldown_ticks: 8,
            strategy: MigrationStrategy::Incremental,
        }
    }
}

/// What the serving layer observed about its SLO over the sliding window,
/// fed into [`Controller::tick_serving`] each slice.
#[derive(Debug, Clone, Copy)]
pub struct SloSignal {
    /// Fraction of recent window slices that violated the latency SLO,
    /// in `[0, 1]` — the burn rate of the error budget.
    pub burn_rate: f64,
    /// True once the window holds enough slices to trust the burn rate.
    pub window_full: bool,
}

/// Retained [`RebalanceEvent`] cap: hours-long soaks must hold
/// steady-state memory, so the in-controller log keeps the most recent
/// decisions and [`Controller::events_total`] keeps the exact count.
pub const EVENT_LOG_CAP: usize = 1_024;

/// Closed-loop controller: observe, plan, actuate.
///
/// Call [`Controller::tick`] between traffic batches (e.g. after every
/// `run_until`). Each tick does one of three things: finalizes an
/// in-flight incremental migration, starts a rebalance when the policy's
/// skew threshold is crossed, or nothing. A serving loop calls
/// [`Controller::tick_serving`] instead, which adds the SLO-driven
/// scale-up/scale-down decision in front of the skew check.
#[derive(Debug, Clone)]
pub struct Controller {
    /// Trigger policy.
    pub policy: SkewPolicy,
    /// Autoscaling policy for [`Controller::tick_serving`].
    pub scale: ScalePolicy,
    events: Vec<RebalanceEvent>,
    events_total: u64,
    ticks: u64,
    last_scale_tick: Option<u64>,
}

impl Controller {
    /// Controller with the given skew policy and default scale policy.
    pub fn new(policy: SkewPolicy) -> Self {
        Self::with_scale(policy, ScalePolicy::default())
    }

    /// Controller with explicit skew and scale policies.
    pub fn with_scale(policy: SkewPolicy, scale: ScalePolicy) -> Self {
        Controller {
            policy,
            scale,
            events: Vec::new(),
            events_total: 0,
            ticks: 0,
            last_scale_tick: None,
        }
    }

    /// The most recent rebalances actuated (capped at [`EVENT_LOG_CAP`]),
    /// in order.
    pub fn events(&self) -> &[RebalanceEvent] {
        &self.events
    }

    /// Exact number of rebalances actuated over the controller's lifetime,
    /// unaffected by the event-log cap.
    pub fn events_total(&self) -> u64 {
        self.events_total
    }

    fn push_event(&mut self, ev: RebalanceEvent) {
        if self.events.len() == EVENT_LOG_CAP {
            self.events.remove(0);
        }
        self.events.push(ev);
        self.events_total += 1;
    }

    /// One control-loop iteration against a live switch. Returns the
    /// event if this tick *started* a migration.
    pub fn tick(&mut self, sw: &mut AdcpSwitch, now: SimTime) -> Option<RebalanceEvent> {
        self.skew_tick(sw, now, None)
    }

    /// The skew check behind [`Controller::tick`]. `within_pipes` limits
    /// the pipes a rebalance may spread onto; `None` allows every
    /// physical central pipe. The serving loop passes the active set so a
    /// skew fix cannot silently undo an SLO-driven scale-down.
    fn skew_tick(
        &mut self,
        sw: &mut AdcpSwitch,
        now: SimTime,
        within_pipes: Option<u32>,
    ) -> Option<RebalanceEvent> {
        if sw.migration_active() {
            // Drain migrations self-commit; incremental ones stay open
            // until finalized. Busy/InProgress just mean "not yet".
            match sw.finalize_migration() {
                Ok(()) | Err(MigrateError::InProgress) | Err(MigrateError::Busy) => {}
                Err(e) => debug_assert!(false, "unexpected finalize error: {e}"),
            }
            return None;
        }
        let snap = LoadSnapshot::from_switch(sw)?;
        if snap.total < self.policy.min_samples {
            return None;
        }
        let skew = snap.skew();
        if skew < self.policy.max_over_mean {
            return None;
        }
        let map = sw.partition_map()?;
        let n_pipes = within_pipes.unwrap_or(sw.num_central() as u32);
        let next = plan_rebalance(map, &snap.bucket_pkts, n_pipes)?;
        let moved = map.moved_buckets(&next).len();
        let ev = RebalanceEvent {
            at_ns: now.as_ps() / 1000,
            to_epoch: map.epoch + 1,
            skew,
            moved_buckets: moved,
            strategy: self.policy.strategy,
            kind: RebalanceKind::Skew,
            pipes: next.active_pipes(),
        };
        match sw.begin_migration(next, self.policy.strategy) {
            Ok(()) => {
                self.push_event(ev.clone());
                Some(ev)
            }
            // Old-epoch packets still in flight: retry on a later tick.
            Err(MigrateError::Busy) => None,
            Err(e) => {
                debug_assert!(false, "unexpected begin error: {e}");
                None
            }
        }
    }

    /// One serving-loop iteration: the SLO-driven autoscaler in front of
    /// the skew rebalancer.
    ///
    /// Decision order each tick:
    ///
    /// 1. **In-flight migration** → try to finalize, decide nothing. This
    ///    is the scale-down safety story: a shrink can never start while
    ///    packets are fenced behind a previous map change, because
    ///    planning only happens on a quiescent partition map.
    /// 2. **Burn rate ≥ `burn_up`** and below the pipe ceiling, cooldown
    ///    elapsed → repack onto one more pipe ([`plan_scale_to`]).
    /// 3. **Burn rate ≤ `burn_down`** and above the floor, cooldown
    ///    elapsed → repack onto one fewer pipe.
    /// 4. Otherwise fall through to the plain skew check of
    ///    [`Controller::tick`].
    ///
    /// Scale decisions are driven by the SLO signal, not by load volume,
    /// so they are *not* gated on `SkewPolicy::min_samples`; the window
    /// must simply be full enough to trust (`SloSignal::window_full`).
    pub fn tick_serving(
        &mut self,
        sw: &mut AdcpSwitch,
        now: SimTime,
        slo: &SloSignal,
    ) -> Option<RebalanceEvent> {
        self.ticks += 1;
        if sw.migration_active() {
            match sw.finalize_migration() {
                Ok(()) | Err(MigrateError::InProgress) | Err(MigrateError::Busy) => {}
                Err(e) => debug_assert!(false, "unexpected finalize error: {e}"),
            }
            return None;
        }
        let cooled = self
            .last_scale_tick
            .is_none_or(|t| self.ticks - t >= self.scale.cooldown_ticks);
        if slo.window_full && cooled {
            let map = sw.partition_map()?;
            let active = map.active_pipes();
            let ceiling = self.scale.max_pipes.min(sw.num_central() as u32);
            let target = if slo.burn_rate >= self.scale.burn_up && active < ceiling {
                Some((active + 1, RebalanceKind::ScaleUp))
            } else if slo.burn_rate <= self.scale.burn_down && active > self.scale.min_pipes {
                Some((active - 1, RebalanceKind::ScaleDown))
            } else {
                None
            };
            if let Some((pipes, kind)) = target {
                let snap = LoadSnapshot::from_switch(sw)?;
                let next = plan_scale_to(map, &snap.bucket_pkts, pipes);
                let ev = RebalanceEvent {
                    at_ns: now.as_ps() / 1000,
                    to_epoch: map.epoch + 1,
                    skew: snap.skew(),
                    moved_buckets: map.moved_buckets(&next).len(),
                    strategy: self.scale.strategy,
                    kind,
                    pipes,
                };
                return match sw.begin_migration(next, self.scale.strategy) {
                    Ok(()) => {
                        self.last_scale_tick = Some(self.ticks);
                        self.push_event(ev.clone());
                        Some(ev)
                    }
                    // Old-epoch packets still draining: retry next slice.
                    Err(MigrateError::Busy) => None,
                    Err(e) => {
                        debug_assert!(false, "unexpected begin error: {e}");
                        None
                    }
                };
            }
        }
        // No scale action: let the skew rebalancer look at the same tick,
        // constrained to the pipes that are currently active (owner sets
        // are kept contiguous by `plan_scale_to`, so `max_owner + 1` is
        // exactly the active set).
        let within = sw.partition_map().map(|m| m.max_owner() + 1);
        self.skew_tick(sw, now, within)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcp_core::{AdcpConfig, AdcpSwitch};
    use adcp_lang::{
        ActionDef, ActionOp, CompileOptions, FieldDef, FieldId, FieldRef, HeaderDef, HeaderId,
        Operand, ParserSpec, ProgramBuilder, RegAluOp, RegId, Region, RegisterDef, TableDef,
        TargetModel,
    };
    use adcp_sim::packet::{FlowId, Packet, PortId};

    fn fr(f: u16) -> FieldRef {
        FieldRef::new(HeaderId(0), FieldId(f))
    }

    /// Minimal shard-counting program: ingress partitions on the key
    /// field, central counts per key (cell == key).
    fn counting_switch() -> AdcpSwitch {
        let mut b = ProgramBuilder::new("ctrl-test");
        let h = b.header(HeaderDef::new(
            "k",
            vec![FieldDef::scalar("dst", 16), FieldDef::scalar("key", 16)],
        ));
        b.parser(ParserSpec::single(h));
        let cnt = b.register(RegisterDef::new("cnt", 64, 32));
        b.table(TableDef {
            name: "route".into(),
            region: Region::Ingress,
            key: None,
            actions: vec![ActionDef::new(
                "r",
                vec![ActionOp::SetCentralPipe(Operand::Field(fr(1)))],
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
                "c",
                vec![
                    ActionOp::RegRmw {
                        reg: cnt,
                        index: Operand::Field(fr(1)),
                        op: RegAluOp::Add,
                        value: Operand::Const(1),
                        fetch: None,
                    },
                    ActionOp::SetEgress(Operand::Field(fr(0))),
                ],
            )],
            default_action: 0,
            default_params: vec![],
            size: 1,
        });
        AdcpSwitch::new(
            b.build(),
            TargetModel::adcp_reference(),
            CompileOptions::default(),
            AdcpConfig::default(),
        )
        .unwrap()
    }

    fn pkt(id: u64, key: u16) -> Packet {
        let mut data = Vec::with_capacity(12);
        data.extend_from_slice(&1u16.to_be_bytes());
        data.extend_from_slice(&key.to_be_bytes());
        data.extend_from_slice(&[0u8; 8]);
        Packet::new(id, FlowId(key as u64), data)
    }

    #[test]
    fn rebalance_moves_hot_buckets_to_cold_pipes() {
        let map = PartitionMap::from_buckets(vec![0, 0, 1, 1]);
        // Pipe 0 holds 90% of the load, split across two buckets.
        let load = [450, 450, 50, 50];
        let next = plan_rebalance(&map, &load, 2).expect("imbalance is fixable");
        let moved = map.moved_buckets(&next);
        assert!(moved.len() <= 2, "few moves suffice: {moved:?}");
        let mut pipe = [0u64; 2];
        for b in 0..4u32 {
            pipe[next.owner_of_bucket(b) as usize] += load[b as usize];
        }
        assert_eq!(pipe, [500, 500], "greedy reaches the perfect split");
    }

    #[test]
    fn rebalance_of_balanced_load_is_none() {
        let map = PartitionMap::from_buckets(vec![0, 1, 0, 1]);
        assert!(plan_rebalance(&map, &[10, 10, 10, 10], 2).is_none());
        // A single hot bucket cannot be improved by reassignment either.
        assert!(plan_rebalance(&map, &[100, 0, 0, 0], 2).is_none());
    }

    #[test]
    fn scale_to_packs_onto_new_pipe_count() {
        let map = PartitionMap::uniform(8, 4);
        let load = [8, 7, 6, 5, 4, 3, 2, 1];
        let two = plan_scale_to(&map, &load, 2);
        assert_eq!(two.max_owner(), 1);
        let mut pipe = [0u64; 2];
        for b in 0..8u32 {
            pipe[two.owner_of_bucket(b) as usize] += load[b as usize];
        }
        assert_eq!(pipe[0] + pipe[1], 36);
        assert!(pipe[0].abs_diff(pipe[1]) <= 2, "LPT packs evenly: {pipe:?}");
        // Scale back up to 6 pipes: every pipe gets something.
        let six = plan_scale_to(&map, &load, 6);
        let used: std::collections::BTreeSet<u32> =
            (0..8u32).map(|b| six.owner_of_bucket(b)).collect();
        assert_eq!(used.len(), 6);
    }

    #[test]
    fn serving_autoscaler_scales_up_then_down() {
        let mut sw = counting_switch();
        sw.install_partition_map(PartitionMap::uniform(64, 1))
            .unwrap();
        let mut ctl = Controller::with_scale(
            SkewPolicy::default(),
            ScalePolicy {
                min_pipes: 1,
                max_pipes: 4,
                burn_up: 0.5,
                burn_down: 0.05,
                cooldown_ticks: 2,
                strategy: MigrationStrategy::Incremental,
            },
        );
        // A little traffic so the load snapshot has something to pack on.
        let mut t = 0u64;
        for i in 0..32u64 {
            sw.inject(PortId((i % 4) as u16), pkt(i, (i % 16) as u16), SimTime(t));
            t += 20_000;
        }
        sw.run_until_idle();

        let hot = SloSignal {
            burn_rate: 1.0,
            window_full: true,
        };
        let ev = ctl
            .tick_serving(&mut sw, SimTime(t), &hot)
            .expect("burning SLO must scale up");
        assert_eq!(ev.kind, RebalanceKind::ScaleUp);
        assert_eq!(ev.pipes, 2);
        // Within the cooldown no further scale action fires, even hot.
        assert!(ctl.tick_serving(&mut sw, SimTime(t), &hot).is_none());
        sw.run_until_idle();
        // Let the incremental migration finalize (first call finalizes,
        // then the cooldown expires tick by tick). A burn rate between the
        // two thresholds asks for no scale action either way.
        let steady = SloSignal {
            burn_rate: 0.2,
            window_full: true,
        };
        for _ in 0..3 {
            assert!(ctl.tick_serving(&mut sw, SimTime(t), &steady).is_none());
            sw.run_until_idle();
        }
        assert!(!sw.migration_active());
        assert_eq!(sw.partition_map().unwrap().active_pipes(), 2);

        let idle = SloSignal {
            burn_rate: 0.0,
            window_full: true,
        };
        let ev = ctl
            .tick_serving(&mut sw, SimTime(t), &idle)
            .expect("sustained headroom must scale down");
        assert_eq!(ev.kind, RebalanceKind::ScaleDown);
        assert_eq!(ev.pipes, 1);
        assert_eq!(ctl.events_total(), 2);
        assert_eq!(sw.migration_stats().misroutes, 0);
    }

    #[test]
    fn serving_respects_floor_ceiling_and_fences() {
        let mut sw = counting_switch();
        sw.install_partition_map(PartitionMap::uniform(64, 1))
            .unwrap();
        let mut ctl = Controller::with_scale(
            SkewPolicy::default(),
            ScalePolicy {
                min_pipes: 1,
                max_pipes: 1, // floor == ceiling: no scale action possible
                burn_up: 0.5,
                burn_down: 0.05,
                cooldown_ticks: 0,
                strategy: MigrationStrategy::Drain,
            },
        );
        let hot = SloSignal {
            burn_rate: 1.0,
            window_full: true,
        };
        let idle = SloSignal {
            burn_rate: 0.0,
            window_full: true,
        };
        assert!(ctl.tick_serving(&mut sw, SimTime::ZERO, &hot).is_none());
        assert!(ctl.tick_serving(&mut sw, SimTime::ZERO, &idle).is_none());
        assert_eq!(ctl.events_total(), 0);

        // An un-full window never drives a scale decision.
        ctl.scale.max_pipes = 4;
        let blind = SloSignal {
            burn_rate: 1.0,
            window_full: false,
        };
        assert!(ctl.tick_serving(&mut sw, SimTime::ZERO, &blind).is_none());

        // While a migration is in flight, a tick only tries to finalize —
        // scale-down safety around the fence.
        let ev = ctl.tick_serving(&mut sw, SimTime::ZERO, &hot).unwrap();
        assert_eq!(ev.kind, RebalanceKind::ScaleUp);
        if sw.migration_active() {
            assert!(ctl.tick_serving(&mut sw, SimTime::ZERO, &idle).is_none());
        }
    }

    #[test]
    fn event_log_is_bounded_with_exact_total() {
        let mut ctl = Controller::new(SkewPolicy::default());
        for i in 0..(EVENT_LOG_CAP as u64 + 100) {
            ctl.push_event(RebalanceEvent {
                at_ns: i,
                to_epoch: i,
                skew: 1.0,
                moved_buckets: 0,
                strategy: MigrationStrategy::Drain,
                kind: RebalanceKind::Skew,
                pipes: 1,
            });
        }
        assert_eq!(ctl.events().len(), EVENT_LOG_CAP);
        assert_eq!(ctl.events_total(), EVENT_LOG_CAP as u64 + 100);
        // Oldest entries were evicted: the log starts at event 100.
        assert_eq!(ctl.events()[0].at_ns, 100);
    }

    #[test]
    fn controller_detects_skew_and_rebalances_live_switch() {
        let mut sw = counting_switch();
        sw.install_partition_map(PartitionMap::uniform(64, 4))
            .unwrap();
        let mut ctl = Controller::new(SkewPolicy {
            max_over_mean: 1.5,
            min_samples: 32,
            strategy: MigrationStrategy::Incremental,
        });
        // Skewed phase: keys 0, 4, 8, 12 all land on pipe 0.
        let mut id = 0u64;
        let mut t = 0u64;
        for round in 0..64u64 {
            let key = ((round % 4) * 4) as u16;
            sw.inject(PortId((round % 4) as u16), pkt(id, key), SimTime(t));
            id += 1;
            t += 20_000;
        }
        let now = sw.run_until(SimTime(t));
        let before = LoadSnapshot::from_switch(&sw).unwrap();
        assert!(
            before.skew() > 3.0,
            "all load on one pipe: {}",
            before.skew()
        );
        let ev = ctl.tick(&mut sw, now).expect("controller must react");
        assert!(ev.moved_buckets > 0);
        assert_eq!(ev.to_epoch, 1);
        // Keep traffic flowing on the same keys, then let the controller
        // finalize the incremental migration.
        for round in 0..64u64 {
            let key = ((round % 4) * 4) as u16;
            sw.inject(PortId((round % 4) as u16), pkt(id, key), SimTime(t));
            id += 1;
            t += 20_000;
        }
        sw.run_until_idle();
        ctl.tick(&mut sw, SimTime(t));
        assert!(!sw.migration_active(), "tick finalizes the migration");
        assert_eq!(sw.partition_epoch(), 1);
        let stats = sw.migration_stats();
        assert_eq!(stats.migrations, 1);
        assert_eq!(stats.misroutes, 0);
        // No update lost: the four hot keys absorbed 32 adds each.
        let sum: u64 = (0..4)
            .map(|c| {
                (0..4u64)
                    .map(|k| sw.central_register(c, RegId(0)).unwrap().peek(k * 4))
                    .sum::<u64>()
            })
            .sum();
        assert_eq!(sum, 128);
        // And the post-migration placement actually spreads the hot keys.
        let after = LoadSnapshot::from_switch(&sw).unwrap();
        assert!(
            after.skew() < before.skew(),
            "skew {} -> {}",
            before.skew(),
            after.skew()
        );
        assert_eq!(ctl.events().len(), 1);
    }
}
