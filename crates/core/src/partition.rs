//! Epoch-versioned partition maps for the global partitioned area (§3.1).
//!
//! TM1 places packets (and therefore the register state they touch) onto
//! central pipelines. At program-install time the placement is whatever the
//! program computes (`SetCentralPipe`) folded modulo the pipe count; a
//! [`PartitionMap`] makes that placement a first-class, *versioned* control
//! plane object so it can be changed under live traffic:
//!
//! * the **logical partition key** of a packet is the program's
//!   `SetCentralPipe` value (pre-modulo), else its flow hash;
//! * keys fold into **buckets** (hash scheme: `key % B`; range scheme:
//!   binary search over sorted bounds) and every bucket has one owning
//!   central pipe;
//! * each map carries an **epoch**. TM1 stamps every packet with the epoch
//!   it routed under, so a central pipe can always tell whether a dequeued
//!   packet predates the current map — no packet ever observes a
//!   half-applied map.
//!
//! State association: the partitioned-area convention is that register
//! cell `c` belongs to partition key `c` (programs index their shard state
//! by the same value they partition on), so the cells a migration must
//! move are exactly those whose owner differs between two maps
//! ([`PartitionMap::moved_cells`]).
//!
//! Changing the map under traffic is the `Repartitioner`: the whole
//! live-migration protocol (DESIGN.md §8) as one state machine with no
//! packets, events or register files in it. A switch calls it when TM1
//! routes, when a central pipe dequeues and when a drain commits; it
//! answers with where to send the packet, whether to hold or release, and
//! which cells to move.

use adcp_lang::{ActionOp, Program, RegId, Region};
use adcp_sim::time::{Duration, SimTime};
use serde::Serialize;

/// Default bucket count for [`PartitionMap::uniform`]. 64 matches the
/// register-file sizes the conformance harness exercises, but any count
/// works — buckets are a routing-granularity choice, not a state size.
pub const DEFAULT_BUCKETS: u32 = 64;

/// How keys fold into buckets.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum PartitionScheme {
    /// `bucket = key % weights.len()`; `weights[b]` is the owning pipe.
    Hash {
        /// Owning central pipe per bucket.
        owners: Vec<u32>,
    },
    /// Contiguous key ranges: bucket `b` covers keys in
    /// `[bounds[b-1], bounds[b])` (bucket 0 starts at 0, the last bucket
    /// is unbounded above). `bounds` is strictly increasing and one
    /// shorter than `owners`.
    Range {
        /// Upper (exclusive) bounds of every bucket but the last.
        bounds: Vec<u64>,
        /// Owning central pipe per range bucket.
        owners: Vec<u32>,
    },
}

/// Errors from partition-map construction and migration control calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MigrateError {
    /// A bucket names an owner pipe the switch does not have.
    BadOwner {
        /// The offending owner.
        owner: u32,
        /// Central pipes available.
        pipes: u32,
    },
    /// No partition map is installed (call `install_partition_map` first).
    NoMap,
    /// A migration is already in progress.
    InProgress,
    /// No migration is in progress.
    NoMigration,
    /// Packets routed under an older epoch are still in flight; retry once
    /// they drain (the switch refuses to stack migrations).
    Busy,
    /// The map can only be installed on an idle switch (no packets in
    /// flight), so the in-flight fence accounting starts complete.
    NotIdle,
}

impl std::fmt::Display for MigrateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrateError::BadOwner { owner, pipes } => {
                write!(
                    f,
                    "bucket owner {owner} out of range (have {pipes} central pipes)"
                )
            }
            MigrateError::NoMap => write!(f, "no partition map installed"),
            MigrateError::InProgress => write!(f, "a migration is already in progress"),
            MigrateError::NoMigration => write!(f, "no migration in progress"),
            MigrateError::Busy => write!(f, "older-epoch packets still in flight"),
            MigrateError::NotIdle => write!(f, "partition map must be installed while idle"),
        }
    }
}

/// How register state follows a map change (see `AdcpSwitch::begin_migration`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub enum MigrationStrategy {
    /// Pause–drain–copy–resume: hold moving-shard packets at TM1, wait for
    /// in-flight packets of moving buckets to drain, copy all moving cells,
    /// install the new map, release. Simple, but the pause covers the whole
    /// copy window.
    #[default]
    Drain,
    /// Install the new map immediately and copy shards on first touch: a
    /// small redirect table lists the not-yet-copied buckets, and the first
    /// packet to hit one pays the copy cost for just that bucket.
    /// `finalize_migration` bulk-copies whatever was never touched. The
    /// pause is only the in-flight fence drain.
    Incremental,
}

/// An epoch-versioned assignment of partition buckets to central pipes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct PartitionMap {
    /// Version counter; bumped by the switch whenever a new map takes
    /// effect. Packets are stamped with the epoch they were routed under.
    pub epoch: u64,
    scheme: PartitionScheme,
}

impl PartitionMap {
    /// A hash map with `n_buckets` buckets dealt round-robin over
    /// `n_pipes` pipes: `owner(key) = (key % n_buckets) % n_pipes`. When
    /// `n_pipes` divides `n_buckets` this reproduces the legacy
    /// (map-less) TM1 routing `key % n_pipes` exactly.
    pub fn uniform(n_buckets: u32, n_pipes: u32) -> Self {
        assert!(n_buckets > 0 && n_pipes > 0);
        PartitionMap {
            epoch: 0,
            scheme: PartitionScheme::Hash {
                owners: (0..n_buckets).map(|b| b % n_pipes).collect(),
            },
        }
    }

    /// A hash map with an explicit per-bucket owner assignment.
    pub fn from_buckets(owners: Vec<u32>) -> Self {
        assert!(!owners.is_empty());
        PartitionMap {
            epoch: 0,
            scheme: PartitionScheme::Hash { owners },
        }
    }

    /// A range map: bucket `b` covers `[bounds[b-1], bounds[b])`, the last
    /// bucket is unbounded. `bounds` must be strictly increasing and one
    /// shorter than `owners`.
    pub fn from_ranges(bounds: Vec<u64>, owners: Vec<u32>) -> Self {
        assert_eq!(bounds.len() + 1, owners.len());
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        PartitionMap {
            epoch: 0,
            scheme: PartitionScheme::Range { bounds, owners },
        }
    }

    /// The scheme (bucket structure + owners).
    pub fn scheme(&self) -> &PartitionScheme {
        &self.scheme
    }

    /// Owning central pipe per bucket.
    pub fn owners(&self) -> &[u32] {
        match &self.scheme {
            PartitionScheme::Hash { owners } | PartitionScheme::Range { owners, .. } => owners,
        }
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> u32 {
        self.owners().len() as u32
    }

    /// Bucket a logical partition key folds into.
    pub fn bucket_of(&self, key: u64) -> u32 {
        match &self.scheme {
            PartitionScheme::Hash { owners } => (key % owners.len() as u64) as u32,
            PartitionScheme::Range { bounds, .. } => bounds.partition_point(|&b| b <= key) as u32,
        }
    }

    /// Owning central pipe of a bucket.
    pub fn owner_of_bucket(&self, bucket: u32) -> u32 {
        self.owners()[bucket as usize]
    }

    /// Owning central pipe of a logical partition key.
    pub fn owner(&self, key: u64) -> u32 {
        self.owner_of_bucket(self.bucket_of(key))
    }

    /// Largest owner index referenced (for validation against the switch's
    /// central-pipe count).
    pub fn max_owner(&self) -> u32 {
        self.owners().iter().copied().max().unwrap_or(0)
    }

    /// Number of distinct central pipes that own at least one bucket — the
    /// "active" pipe count the autoscaler grows and shrinks.
    pub fn active_pipes(&self) -> u32 {
        let mut owners = self.owners().to_vec();
        owners.sort_unstable();
        owners.dedup();
        owners.len() as u32
    }

    /// Buckets (in *this* map's numbering) whose keys change owner when
    /// `next` takes effect: the owner diff when both maps share bucket
    /// structure (same scheme kind, same bucket count, same range bounds),
    /// conservatively every bucket when it differs.
    pub fn moved_buckets(&self, next: &PartitionMap) -> Vec<u32> {
        let same_structure = match (&self.scheme, &next.scheme) {
            (PartitionScheme::Hash { owners: a }, PartitionScheme::Hash { owners: b }) => {
                a.len() == b.len()
            }
            (
                PartitionScheme::Range { bounds: a, .. },
                PartitionScheme::Range { bounds: b, .. },
            ) => a == b,
            _ => false,
        };
        (0..self.num_buckets())
            .filter(|&b| !same_structure || self.owner_of_bucket(b) != next.owner_of_bucket(b))
            .collect()
    }

    /// Cells of an `n_cells` register that change owner when `next` takes
    /// effect (cell `c` belongs to partition key `c`). Returns
    /// `(cell, from, to)` triples.
    pub fn moved_cells(&self, next: &PartitionMap, n_cells: usize) -> Vec<(usize, u32, u32)> {
        (0..n_cells)
            .filter_map(|c| {
                let from = self.owner(c as u64);
                let to = next.owner(c as u64);
                (from != to).then_some((c, from, to))
            })
            .collect()
    }
}

/// Pipe cycles charged per register cell copied during a state migration.
/// Both strategies pay it — drain as one bulk window at commit, incremental
/// spread over first touches — so the exp_migrate comparison is apples to
/// apples.
const CELL_COPY_CYCLES: u64 = 8;

/// A register cell changing owner: `(register, cell, from_pipe, to_pipe)`.
/// The caller moves the value (extract at `from`, restore at `to`).
pub(crate) type Move = (RegId, usize, u32, u32);

/// What TM1 stamps on a packet it routes under a map: the bucket, in the
/// routing map's numbering, and that map's epoch.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stamp {
    pub(crate) bucket: u32,
    pub(crate) epoch: u64,
}

/// Where TM1 sends a packet ([`Repartitioner::route`]).
#[derive(Debug)]
pub(crate) enum Route {
    /// Enqueue at central pipe `owner`, stamped.
    To { owner: u32, stamp: Stamp },
    /// The packet's shard is unavailable: keep it until a release.
    Hold,
    /// Incremental copy-on-first-touch: apply the touched bucket's
    /// `moves`, stall pipe `owner` for their copy window, then enqueue as
    /// for `To`.
    FirstTouch {
        owner: u32,
        stamp: Stamp,
        moves: Vec<Move>,
        stall: Duration,
    },
}

/// What a central dequeue means for the protocol
/// ([`Repartitioner::on_dequeue`]).
#[derive(Debug, Default)]
pub(crate) struct Dequeued {
    /// A drain's fence just drained: commit at this time.
    pub(crate) commit_at: Option<SimTime>,
    /// An incremental fence just drained: release the held packets, but
    /// only once this packet's register updates have landed.
    pub(crate) release: bool,
}

/// Control-plane migration totals, exported as the `ctrl` metrics scope.
#[derive(Debug, Clone, Default)]
pub struct MigrationStats {
    /// Completed migrations.
    pub migrations: u64,
    /// Register cells moved between central pipes.
    pub moved_keys: u64,
    /// Nanoseconds during which moving shards were unavailable (packets
    /// held at TM1): fence-drain plus copy window for drain, fence-drain
    /// only for incremental.
    pub paused_ns: u64,
    /// Incremental first touches: packets that hit a not-yet-copied bucket
    /// and triggered its copy.
    pub redirected_pkts: u64,
    /// Packets held at TM1 during migrations.
    pub held_pkts: u64,
    /// Packets dequeued by a central pipe that the epoch-consistent map
    /// says should not own them. Always zero unless the protocol is broken;
    /// exported so tests and conformance can assert on it.
    pub misroutes: u64,
}

impl MigrationStats {
    /// All zero: the totals of a switch that never installed a map.
    pub(crate) const NONE: MigrationStats = MigrationStats {
        migrations: 0,
        moved_keys: 0,
        paused_ns: 0,
        redirected_pkts: 0,
        held_pkts: 0,
        misroutes: 0,
    };
}

/// The live-repartition protocol (DESIGN.md §8) as one state machine:
/// epoch-versioned routing, the in-flight fence, drain commit and
/// incremental copy-on-first-touch. It holds no packets and no register
/// files: the caller keeps held packets and applies the [`Move`]s it is
/// handed, and calls it at three points — TM1 routing ([`Self::route`],
/// [`Self::admitted`]), the central dequeue ([`Self::on_dequeue`]) and the
/// drain commit ([`Self::commit`]).
#[derive(Debug)]
pub(crate) struct Repartitioner {
    map: PartitionMap,
    pipes: u32,
    /// TM1-admitted, not yet centrally dequeued, per current-map bucket
    /// (current epoch stamps only).
    inflight: Vec<u64>,
    /// Same, for packets stamped with an older epoch (bucket numbering may
    /// no longer apply, so they are counted in aggregate).
    inflight_old: u64,
    /// Packets routed per bucket since this map took effect (the load
    /// signal a controller rebalances on).
    bucket_pkts: Vec<u64>,
    mig: Option<Migration>,
    pub(crate) stats: MigrationStats,
    /// Registers referenced by central-region tables with their cell
    /// counts — the state a migration moves.
    regs: Vec<(RegId, usize)>,
    period: Duration,
}

/// One in-progress migration.
#[derive(Debug)]
struct Migration {
    begun: SimTime,
    /// Moving buckets in the numbering of the map in force at `begun`,
    /// sorted — the in-flight fence.
    fence: Vec<u32>,
    /// Packets of fence buckets still queued at their old owner.
    fence_left: u64,
    /// Cells still to move.
    moving: Vec<Move>,
    phase: Phase,
}

#[derive(Debug)]
enum Phase {
    /// The old map routes until commit installs `next`.
    Drain { next: PartitionMap },
    /// The new map routes; `prev` decodes old-epoch stamps and `dirty` is
    /// the redirect table: next-map buckets not yet copied, sorted.
    Incremental { prev: PartitionMap, dirty: Vec<u32> },
}

impl Migration {
    /// Count a dequeued packet of `bucket` out of the fence; true when it
    /// was the last one.
    fn leave_fence(&mut self, bucket: u32) -> bool {
        let inside = self.fence_left > 0 && self.fence.binary_search(&bucket).is_ok();
        if inside {
            self.fence_left -= 1;
        }
        inside && self.fence_left == 0
    }
}

/// Simulated time to copy `cells` register cells between pipes.
fn copy_cost(period: Duration, cells: usize) -> Duration {
    Duration(cells as u64 * CELL_COPY_CYCLES * period.as_ps())
}

fn check_owners(map: &PartitionMap, pipes: u32) -> Result<(), MigrateError> {
    let owner = map.max_owner();
    if owner >= pipes {
        return Err(MigrateError::BadOwner { owner, pipes });
    }
    Ok(())
}

/// Registers referenced by central-region table actions, with cell counts:
/// the state the global partitioned area shards, and therefore the state a
/// migration must move.
fn central_registers(program: &Program) -> Vec<(RegId, usize)> {
    fn collect(ops: &[ActionOp], out: &mut Vec<RegId>) {
        for op in ops {
            match op {
                ActionOp::RegRead { reg, .. }
                | ActionOp::RegRmw { reg, .. }
                | ActionOp::RegArray { reg, .. } => out.push(*reg),
                ActionOp::IfEq { then, .. } => collect(then, out),
                _ => {}
            }
        }
    }
    let mut regs = Vec::new();
    let central = program
        .tables
        .iter()
        .filter(|t| t.region == Region::Central);
    for a in central.flat_map(|t| &t.actions) {
        collect(&a.ops, &mut regs);
    }
    regs.sort_unstable();
    regs.dedup();
    regs.into_iter()
        .map(|r| (r, program.registers[r.0 as usize].entries as usize))
        .collect()
}

impl Repartitioner {
    /// Route by `map` (at epoch 0) over `pipes` central pipes running
    /// `program`, whose clock `period` prices a cell copy.
    pub(crate) fn new(
        mut map: PartitionMap,
        pipes: u32,
        program: &Program,
        period: Duration,
    ) -> Result<Self, MigrateError> {
        check_owners(&map, pipes)?;
        map.epoch = 0;
        let b = map.num_buckets() as usize;
        Ok(Repartitioner {
            map,
            pipes,
            inflight: vec![0; b],
            inflight_old: 0,
            bucket_pkts: vec![0; b],
            mig: None,
            stats: MigrationStats::default(),
            regs: central_registers(program),
            period,
        })
    }

    /// The map in force.
    pub(crate) fn map(&self) -> &PartitionMap {
        &self.map
    }

    /// Packets routed per bucket since the map in force took effect.
    pub(crate) fn bucket_loads(&self) -> &[u64] {
        &self.bucket_pkts
    }

    /// True while a migration is in progress.
    pub(crate) fn active(&self) -> bool {
        self.mig.is_some()
    }

    /// Migration totals.
    pub(crate) fn stats(&self) -> &MigrationStats {
        &self.stats
    }

    /// Put `next` in force and return the map it replaces. Everything
    /// still queued was stamped under the previous epoch.
    fn install(&mut self, next: PartitionMap) -> PartitionMap {
        let b = next.num_buckets() as usize;
        self.inflight_old += self.inflight.iter().sum::<u64>();
        self.inflight = vec![0; b];
        self.bucket_pkts = vec![0; b];
        std::mem::replace(&mut self.map, next)
    }

    /// TM1's decision for a packet with logical partition key `key`.
    pub(crate) fn route(&mut self, key: u64) -> Route {
        let bucket = self.map.bucket_of(key);
        let mut touched = None;
        let hold = match &mut self.mig {
            None => false,
            // Drain: the moving shard is unavailable until commit.
            Some(Migration {
                fence,
                phase: Phase::Drain { .. },
                ..
            }) => fence.binary_search(&bucket).is_ok(),
            // Incremental: unavailable only while old-epoch packets could
            // still update moving cells; after that, the first touch
            // takes the bucket out of the redirect table and copies it.
            Some(Migration {
                fence_left,
                moving,
                phase: Phase::Incremental { dirty, .. },
                ..
            }) => match dirty.binary_search(&bucket) {
                Ok(_) if *fence_left > 0 => true,
                Ok(i) => {
                    dirty.remove(i);
                    let map = &self.map;
                    let of_bucket = |m: &mut Move| map.bucket_of(m.1 as u64) == bucket;
                    touched = Some(moving.extract_if(.., of_bucket).collect::<Vec<_>>());
                    false
                }
                Err(_) => false,
            },
        };
        if hold {
            self.stats.held_pkts += 1;
            return Route::Hold;
        }
        let (owner, epoch) = (self.map.owner_of_bucket(bucket), self.map.epoch);
        let stamp = Stamp { bucket, epoch };
        self.bucket_pkts[bucket as usize] += 1;
        let Some(moves) = touched else {
            return Route::To { owner, stamp };
        };
        self.stats.redirected_pkts += 1;
        self.stats.moved_keys += moves.len() as u64;
        let stall = copy_cost(self.period, moves.len());
        Route::FirstTouch {
            owner,
            stamp,
            moves,
            stall,
        }
    }

    /// TM1 admitted a packet routed with `stamp`. Only admitted packets
    /// join the in-flight count, so a refused one needs no undo.
    pub(crate) fn admitted(&mut self, stamp: Stamp) {
        self.inflight[stamp.bucket as usize] += 1;
    }

    /// Central pipe `by` dequeued a packet stamped `stamp` at `now`; its
    /// register updates happen in this same event, so "the old owner has
    /// applied it" and "dequeued" coincide. Counts it out of the in-flight
    /// fence and checks the epoch-consistent owner.
    pub(crate) fn on_dequeue(&mut self, stamp: Stamp, by: u32, now: SimTime) -> Dequeued {
        let Stamp { bucket, epoch } = stamp;
        let mut out = Dequeued::default();
        let current = epoch == self.map.epoch;
        // The map that routed the packet decodes its stamp.
        let routed_by = if current {
            self.inflight[bucket as usize] -= 1;
            &self.map
        } else {
            self.inflight_old -= 1;
            // Old-epoch packets meet a migration only when it is incremental
            // (a drain begins with none in flight). With no migration active
            // the previous map is gone; stragglers of non-moving buckets
            // route to the same owner under either map, so there is nothing
            // left to check.
            match &self.mig {
                Some(Migration {
                    phase: Phase::Incremental { prev, .. },
                    ..
                }) => prev,
                _ => return out,
            }
        };
        if routed_by.owner_of_bucket(bucket) != by {
            self.stats.misroutes += 1;
        }
        // A drain fences current-epoch packets, an incremental migration
        // old-epoch ones.
        let Some(mig) = &mut self.mig else { return out };
        let drain = matches!(mig.phase, Phase::Drain { .. });
        if drain != current || !mig.leave_fence(bucket) {
            return out;
        }
        if drain {
            out.commit_at = Some(now + copy_cost(self.period, mig.moving.len()));
        } else {
            // The hold window ends with this packet — but its register
            // updates are still pending, so the caller releases (and any
            // first-touch copy that triggers runs) after they land.
            self.stats.paused_ns += now.saturating_since(mig.begun).as_ps() / 1000;
            out.release = true;
        }
        out
    }

    /// Begin migrating to `next` at `now` (see
    /// `AdcpSwitch::begin_migration`). Returns the commit time of a drain
    /// whose fence is already empty; any other drain's commit time comes
    /// from [`Self::on_dequeue`].
    pub(crate) fn begin(
        &mut self,
        mut next: PartitionMap,
        strategy: MigrationStrategy,
        now: SimTime,
    ) -> Result<Option<SimTime>, MigrateError> {
        check_owners(&next, self.pipes)?;
        if self.mig.is_some() {
            return Err(MigrateError::InProgress);
        }
        if self.inflight_old > 0 {
            return Err(MigrateError::Busy);
        }
        next.epoch = self.map.epoch + 1;
        let fence = self.map.moved_buckets(&next);
        let fence_left = fence.iter().map(|&b| self.inflight[b as usize]).sum();
        let moving: Vec<Move> = (self.regs.iter())
            .flat_map(|&(r, n)| {
                let cells = self.map.moved_cells(&next, n).into_iter();
                cells.map(move |(c, from, to)| (r, c, from, to))
            })
            .collect();
        let drain = strategy == MigrationStrategy::Drain;
        let commit_at =
            (drain && fence_left == 0).then(|| now + copy_cost(self.period, moving.len()));
        let phase = match strategy {
            MigrationStrategy::Drain => Phase::Drain { next },
            MigrationStrategy::Incremental => {
                let mut dirty: Vec<u32> = (moving.iter())
                    .map(|&(_, c, _, _)| next.bucket_of(c as u64))
                    .collect();
                dirty.sort_unstable();
                dirty.dedup();
                let prev = self.install(next);
                Phase::Incremental { prev, dirty }
            }
        };
        self.mig = Some(Migration {
            begun: now,
            fence,
            fence_left,
            moving,
            phase,
        });
        Ok(commit_at)
    }

    /// A drain's commit time has come (the fence drained and the bulk copy
    /// window elapsed): install the next map at epoch + 1 and return every
    /// moving cell. `None` when no drain is in progress.
    pub(crate) fn commit(&mut self, now: SimTime) -> Option<Vec<Move>> {
        let mig = (self.mig).take_if(|m| matches!(m.phase, Phase::Drain { .. }))?;
        let Phase::Drain { next } = mig.phase else {
            return None;
        };
        self.install(next);
        self.stats.moved_keys += mig.moving.len() as u64;
        self.stats.migrations += 1;
        self.stats.paused_ns += now.saturating_since(mig.begun).as_ps() / 1000;
        Some(mig.moving)
    }

    /// Complete an incremental migration: return every cell no first
    /// touch copied. Errors: [`MigrateError::Busy`] while the fence still
    /// holds packets, [`MigrateError::InProgress`] for a drain (its commit
    /// is event-driven), [`MigrateError::NoMigration`] when nothing is in
    /// progress.
    pub(crate) fn finalize(&mut self) -> Result<Vec<Move>, MigrateError> {
        let mig = self.mig.as_ref().ok_or(MigrateError::NoMigration)?;
        if matches!(mig.phase, Phase::Drain { .. }) {
            return Err(MigrateError::InProgress);
        }
        if mig.fence_left > 0 {
            return Err(MigrateError::Busy);
        }
        let moves = self.mig.take().map_or_else(Vec::new, |m| m.moving);
        self.stats.moved_keys += moves.len() as u64;
        self.stats.migrations += 1;
        Ok(moves)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_matches_legacy_modulo_routing() {
        let m = PartitionMap::uniform(64, 4);
        for key in 0..1000u64 {
            assert_eq!(m.owner(key), (key % 4) as u32, "key {key}");
        }
        assert_eq!(m.num_buckets(), 64);
        assert_eq!(m.max_owner(), 3);
    }

    #[test]
    fn range_scheme_buckets_by_bounds() {
        let m = PartitionMap::from_ranges(vec![10, 100], vec![2, 0, 1]);
        assert_eq!(m.bucket_of(0), 0);
        assert_eq!(m.bucket_of(9), 0);
        assert_eq!(m.bucket_of(10), 1);
        assert_eq!(m.bucket_of(99), 1);
        assert_eq!(m.bucket_of(100), 2);
        assert_eq!(m.bucket_of(u64::MAX), 2);
        assert_eq!(m.owner(5), 2);
        assert_eq!(m.owner(50), 0);
        assert_eq!(m.owner(1000), 1);
    }

    #[test]
    fn moved_buckets_same_structure_is_owner_diff() {
        let a = PartitionMap::from_buckets(vec![0, 1, 0, 1]);
        let b = PartitionMap::from_buckets(vec![0, 1, 1, 1]);
        assert_eq!(a.moved_buckets(&b), vec![2]);
        assert_eq!(a.moved_cells(&b, 8), vec![(2, 0, 1), (6, 0, 1)]);
    }

    #[test]
    fn moved_buckets_structural_change_moves_everything() {
        let a = PartitionMap::from_buckets(vec![0, 1]);
        let b = PartitionMap::from_ranges(vec![1], vec![0, 1]);
        assert_eq!(a.moved_buckets(&b), vec![0, 1]);
        // But per-cell the owner may coincide: cell 0 -> pipe 0 and cell 1
        // -> pipe 1 under both, so nothing actually copies.
        assert!(a.moved_cells(&b, 2).is_empty());
        let c = PartitionMap::from_ranges(vec![1], vec![1, 0]);
        assert_eq!(a.moved_cells(&c, 2), vec![(0, 0, 1), (1, 1, 0)]);
    }

    #[test]
    fn scale_down_moves_orphaned_buckets() {
        let a = PartitionMap::uniform(8, 4);
        // Scale to 2 pipes: owners 2 and 3 disappear.
        let b = PartitionMap::from_buckets((0..8u32).map(|i| (i % 4) % 2).collect());
        assert_eq!(b.max_owner(), 1);
        let moved = a.moved_buckets(&b);
        assert_eq!(moved, vec![2, 3, 6, 7]);
    }

    /// Seeded property test of the bare machine over a toy switch:
    /// per-pipe FIFOs of stamped packets and per-pipe register cells,
    /// called at the ADCP's three points. Every packet that reaches a
    /// central pipe fetches its cells and adds one, as the migration
    /// programs do, so a lost, doubled or misplaced update shows in the
    /// fetched values (`tests/migrate_properties.rs` checks the same
    /// oracle through the whole switch).
    mod protocol {
        use super::*;
        use adcp_lang::{
            ActionDef, FieldDef, FieldId, FieldRef, HeaderDef, HeaderId, Operand, ParserSpec,
            ProgramBuilder, RegAluOp, RegisterDef, TableDef,
        };
        use std::collections::VecDeque;

        const PIPES: u32 = 4;
        /// Cells of the two central registers; keys are `0..CELLS[0]`.
        const CELLS: [usize; 2] = [24, 16];

        struct Rng(u64);

        impl Rng {
            /// SplitMix64, reduced to `0..n`.
            fn below(&mut self, n: u64) -> u64 {
                self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) % n
            }
        }

        /// Two central registers, both indexed by the key.
        fn program() -> Program {
            let mut b = ProgramBuilder::new("toy");
            let h = b.header(HeaderDef::new("t", vec![FieldDef::scalar("key", 16)]));
            b.parser(ParserSpec::single(h));
            let key = Operand::Field(FieldRef::new(HeaderId(0), FieldId(0)));
            let ops = CELLS.map(|n| {
                let reg = b.register(RegisterDef::new("r", n as u32, 32));
                ActionOp::RegRmw {
                    reg,
                    index: key,
                    op: RegAluOp::Add,
                    value: Operand::Const(1),
                    fetch: None,
                }
            });
            b.table(TableDef {
                name: "count".into(),
                region: Region::Central,
                key: None,
                actions: vec![ActionDef::new("c", ops.to_vec())],
                default_action: 0,
                default_params: vec![],
                size: 1,
            });
            b.build()
        }

        /// A map over `PIPES` pipes: `like`'s bucket structure with new
        /// owners, or (with `like` `None`) a fresh hash or range structure.
        fn random_map(rng: &mut Rng, like: Option<&PartitionMap>) -> PartitionMap {
            let owners = |rng: &mut Rng, n: usize| -> Vec<u32> {
                (0..n).map(|_| rng.below(PIPES as u64) as u32).collect()
            };
            match like.map(PartitionMap::scheme) {
                Some(PartitionScheme::Hash { owners: o }) => {
                    PartitionMap::from_buckets(owners(rng, o.len()))
                }
                Some(PartitionScheme::Range { bounds, .. }) => {
                    PartitionMap::from_ranges(bounds.clone(), owners(rng, bounds.len() + 1))
                }
                None if rng.below(2) == 0 => {
                    let n = 1 + rng.below(12) as usize;
                    PartitionMap::from_buckets(owners(rng, n))
                }
                None => {
                    let mut bounds: Vec<u64> =
                        (0..rng.below(6)).map(|_| 1 + rng.below(30)).collect();
                    bounds.sort_unstable();
                    bounds.dedup();
                    let n = bounds.len() + 1;
                    PartitionMap::from_ranges(bounds, owners(rng, n))
                }
            }
        }

        struct Toy {
            part: Repartitioner,
            now: SimTime,
            /// TM1's queue towards each central pipe: `(key, stamp)`.
            fifos: Vec<VecDeque<(u64, Stamp)>>,
            /// `cells[pipe][reg][cell]`.
            cells: Vec<[Vec<u64>; 2]>,
            /// Keys of held packets, in arrival order.
            held: Vec<u64>,
            /// `fetched[reg][cell]`: every value a packet fetched.
            fetched: [Vec<Vec<u64>>; 2],
            commit_at: Option<SimTime>,
            moved: u64,
            /// Completed migrations: drain commits, incremental finalizes.
            done: [u64; 2],
        }

        impl Toy {
            fn new(map: PartitionMap) -> Self {
                let period = Duration(1_000);
                Toy {
                    part: Repartitioner::new(map, PIPES, &program(), period).unwrap(),
                    now: SimTime::ZERO,
                    fifos: vec![VecDeque::new(); PIPES as usize],
                    cells: vec![CELLS.map(|n| vec![0; n]); PIPES as usize],
                    held: Vec::new(),
                    fetched: CELLS.map(|n| vec![Vec::new(); n]),
                    commit_at: None,
                    moved: 0,
                    done: [0; 2],
                }
            }

            fn apply(&mut self, moves: &[Move]) {
                for &(reg, cell, from, to) in moves {
                    let r = reg.0 as usize;
                    let v = std::mem::take(&mut self.cells[from as usize][r][cell]);
                    self.cells[to as usize][r][cell] = v;
                }
                self.moved += moves.len() as u64;
            }

            /// TM1: route, then admit unless the TM refuses.
            fn route(&mut self, key: u64, refused: bool) {
                let (owner, stamp) = match self.part.route(key) {
                    Route::Hold => return self.held.push(key),
                    Route::To { owner, stamp } => (owner, stamp),
                    Route::FirstTouch {
                        owner,
                        stamp,
                        moves,
                        stall,
                    } => {
                        assert!(!moves.is_empty(), "a first touch copies its bucket");
                        assert_eq!(stall, copy_cost(Duration(1_000), moves.len()));
                        self.apply(&moves);
                        (owner, stamp)
                    }
                };
                if !refused {
                    self.part.admitted(stamp);
                    self.fifos[owner as usize].push_back((key, stamp));
                }
            }

            fn release(&mut self) {
                for key in std::mem::take(&mut self.held) {
                    self.route(key, false);
                }
            }

            /// A central pull: dequeue, then the region run (skipped on a
            /// parse error), then any release the dequeue called for.
            fn pull(&mut self, pipe: usize, parse_error: bool) {
                let Some((key, stamp)) = self.fifos[pipe].pop_front() else {
                    return;
                };
                let d = self.part.on_dequeue(stamp, pipe as u32, self.now);
                if let Some(at) = d.commit_at {
                    assert!(self.commit_at.replace(at).is_none(), "one commit per drain");
                }
                if !parse_error {
                    for (r, n) in CELLS.iter().enumerate() {
                        let key = key as usize;
                        if key < *n {
                            let cell = &mut self.cells[pipe][r][key];
                            self.fetched[r][key].push(*cell);
                            *cell += 1;
                        }
                    }
                }
                if d.release {
                    self.release();
                }
            }

            /// The `MigrateCommit` event, once its time has come.
            fn commit_if_due(&mut self) {
                if self.commit_at.is_some_and(|at| at <= self.now) {
                    self.commit_at = None;
                    let moves = self.part.commit(self.now).expect("a drain awaits commit");
                    self.apply(&moves);
                    self.release();
                    self.done[0] += 1;
                }
            }

            fn finalize(&mut self) -> Result<(), MigrateError> {
                let moves = self.part.finalize()?;
                self.apply(&moves);
                self.release();
                self.done[1] += 1;
                Ok(())
            }

            /// Run to quiescence, then check the oracle.
            fn settle_and_check(mut self, seed: u64) -> (MigrationStats, [u64; 2]) {
                loop {
                    if let Some(at) = self.commit_at {
                        self.now = self.now.max(at);
                        self.commit_if_due();
                    } else if let Some(p) = self.fifos.iter().position(|f| !f.is_empty()) {
                        self.pull(p, false);
                    } else if self.part.active() {
                        let done = self.finalize();
                        assert_eq!(done, Ok(()), "seed {seed}: a quiescent migration completes");
                    } else {
                        break;
                    }
                }
                assert!(self.held.is_empty(), "seed {seed}: a handle is left held");
                let stats = self.part.stats().clone();
                assert_eq!(stats.misroutes, 0, "seed {seed}");
                assert_eq!(stats.moved_keys, self.moved, "seed {seed}");
                let map = self.part.map();
                for (r, per_cell) in self.fetched.iter_mut().enumerate() {
                    for (cell, seq) in per_cell.iter_mut().enumerate() {
                        seq.sort_unstable();
                        let n = seq.len() as u64;
                        assert!(
                            seq.iter().copied().eq(0..n),
                            "seed {seed}: reg {r} cell {cell} fetched {seq:?}"
                        );
                        for (pipe, regs) in self.cells.iter().enumerate() {
                            let v = regs[r][cell];
                            let owner = map.owner(cell as u64) as usize;
                            assert_eq!(
                                v,
                                if pipe == owner { n } else { 0 },
                                "seed {seed}: reg {r} cell {cell} on pipe {pipe}"
                            );
                        }
                    }
                }
                (stats, self.done)
            }
        }

        #[test]
        fn random_protocol_runs_lose_no_update() {
            let (mut total, mut done) = (MigrationStats::default(), [0; 2]);
            for seed in 0..300u64 {
                let rng = &mut Rng(seed);
                let first = random_map(rng, None);
                let mut toy = Toy::new(first);
                for _ in 0..300 {
                    toy.now += Duration(rng.below(3_000));
                    toy.commit_if_due();
                    match rng.below(100) {
                        0..40 => toy.route(rng.below(CELLS[0] as u64), rng.below(20) == 0),
                        40..75 => toy.pull(rng.below(PIPES as u64) as usize, rng.below(20) == 0),
                        75..83 => {
                            let like = rng.below(2) == 0;
                            let next = random_map(rng, like.then(|| toy.part.map()));
                            let strategy = match rng.below(2) {
                                0 => MigrationStrategy::Drain,
                                _ => MigrationStrategy::Incremental,
                            };
                            let active = toy.part.active();
                            match toy.part.begin(next, strategy, toy.now) {
                                Ok(at) => toy.commit_at = at,
                                Err(MigrateError::InProgress) => assert!(active),
                                Err(MigrateError::Busy) => assert!(!active),
                                Err(e) => panic!("seed {seed}: {e}"),
                            }
                        }
                        83..90 => match toy.finalize() {
                            Ok(()) | Err(MigrateError::Busy) => {}
                            Err(MigrateError::InProgress | MigrateError::NoMigration) => {}
                            Err(e) => panic!("seed {seed}: {e}"),
                        },
                        _ => {}
                    }
                }
                let (s, [drains, incrementals]) = toy.settle_and_check(seed);
                total.redirected_pkts += s.redirected_pkts;
                total.held_pkts += s.held_pkts;
                total.paused_ns += s.paused_ns;
                done[0] += drains;
                done[1] += incrementals;
            }
            // The runs reach every branch: both strategies complete, and
            // packets are held, paused for and first-touch copied.
            assert!(done.iter().all(|&n| n > 100), "{done:?}");
            assert!(total.held_pkts > 0 && total.paused_ns > 0, "{total:?}");
            assert!(total.redirected_pkts > 0, "{total:?}");
        }
    }
}
