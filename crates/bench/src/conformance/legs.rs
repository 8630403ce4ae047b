//! The legs: every target a case runs on is one [`Leg`] row, and
//! [`legs_for`] is the only place that knows which rows a mode runs.
//!
//! A row says whether it takes the case (`accepts`), how to run it (`run`)
//! and which outcome fields it answers for (`compare`); `run_spec` loops
//! over rows and knows no target. Every row goes through the same
//! [`drive`] (install, inject, run, conservation), every device through
//! the same `check_device`, and a [`BugHook`] reaches a row only through
//! [`sabotage`]. Adding a target is adding a row.

use adcp_apps::driver::{self, AnySwitch, TargetKind};
use adcp_core::{AdcpConfig, AdcpSwitch, MigrateError, MigrationStrategy, PartitionMap};
use adcp_fabric::{Fabric, FabricConfig, FabricError};
use adcp_lang::{
    ActionOp, CompileError, Entry, FabricSpec, FieldId, FieldRef, HeaderId, Program, RegAluOp,
    RegId, TableError,
};
use adcp_rmt::RmtConfig;
use adcp_sim::datapath::Shell;
use adcp_sim::packet::{Packet, PortId};
use adcp_sim::time::SimTime;

use super::checks::{check_device, int_honesty_check, sealed_frames, Mask};
use super::gen::{fabric_owners, perturb_owners, GenCase, PreparedPacket};
use super::reference::Outcome;
use super::{
    BugHook, CaseError, CaseSpec, FABRIC_HOSTS_PER_LEAF, FABRIC_LEAVES, FABRIC_SPINES, GAP_NS,
    REG_CELLS,
};
use MigrationStrategy::{Drain, Incremental};
use Placement::{Migrated, Partitioned, Pinned};
use TargetKind::{Adcp, RmtPinned, RmtRecirc};

/// What a row's `run` is told beside the case itself.
pub(super) struct LegCfg {
    /// The spec the case was generated from (seed, mode knobs).
    pub(super) spec: CaseSpec,
    /// The sabotage armed for this run.
    pub(super) bug: BugHook,
}

/// Why a row does not take a case.
pub(super) enum Reject {
    /// The target cannot run it and says so: the row sits this case out.
    /// Carries the target's own rejection.
    Unsupported(String),
    /// The target took a case it must refuse — a conformance failure.
    Mismatch(String),
}

/// One target of the differential check.
#[derive(Clone, Copy)]
pub(super) struct Leg {
    /// The name its comparison reports under.
    pub(super) name: &'static str,
    /// Does the target take this case?
    pub(super) accepts: fn(&GenCase) -> Result<(), Reject>,
    /// Drive the case on the target and report what it observed.
    pub(super) run: fn(&GenCase, &[PreparedPacket], &LegCfg) -> Result<Outcome, CaseError>,
    /// The outcome fields it must match the reference on.
    pub(super) compare: Mask,
}

/// A row that takes every case and answers for every outcome field.
const fn leg(
    name: &'static str,
    run: fn(&GenCase, &[PreparedPacket], &LegCfg) -> Result<Outcome, CaseError>,
) -> Leg {
    Leg {
        name,
        accepts: |_| Ok(()),
        run,
        compare: Mask::ALL,
    }
}

const ADCP: Leg = leg("adcp", |c, p, cfg| switch_leg(c, p, cfg, Adcp, Pinned));
const RMT_PINNED: Leg = Leg {
    accepts: |c| rmt_accepts(c, RmtPinned),
    ..leg("rmt-pinned", |c, p, cfg| {
        switch_leg(c, p, cfg, RmtPinned, Pinned)
    })
};
const RMT_RECIRC: Leg = Leg {
    accepts: |c| rmt_accepts(c, RmtRecirc),
    ..leg("rmt-recirc", |c, p, cfg| {
        switch_leg(c, p, cfg, RmtRecirc, Pinned)
    })
};
const ADCP_PARTITIONED: Leg = leg("adcp-partitioned", |c, p, cfg| {
    switch_leg(c, p, cfg, Adcp, Partitioned)
});
const ADCP_MIGRATE_DRAIN: Leg = leg("adcp-migrate-Drain", |c, p, cfg| {
    switch_leg(c, p, cfg, Adcp, Migrated(Drain))
});
const ADCP_MIGRATE_INCREMENTAL: Leg = leg("adcp-migrate-Incremental", |c, p, cfg| {
    switch_leg(c, p, cfg, Adcp, Migrated(Incremental))
});
pub(super) const FABRIC: Leg = Leg {
    // Transit hops perform extra (inert) table lookups on every device, so
    // lookup/hit counts legitimately differ from the one-big-switch rows.
    compare: Mask { mat: false },
    ..leg("fabric", fabric_leg)
};

/// The rows a spec's mode runs, in order. Plain: the ADCP and both RMT
/// lowerings. `--migrate`: the partitioned ADCP never migrated, then once
/// per requested strategy (0 = drain, 1 = incremental, 2 = both). `--fabric`:
/// the partitioned ADCP as one big switch, then the fabric. RMT sits the
/// partitioned modes out: it has no global partitioned area to migrate or
/// split, and the fabric's scratch fields mean nothing to it.
pub(super) fn legs_for(spec: &CaseSpec) -> Vec<Leg> {
    if let Some(mk) = spec.migrate {
        let strategies: &[Leg] = match mk.strategy_sel {
            0 => &[ADCP_MIGRATE_DRAIN],
            1 => &[ADCP_MIGRATE_INCREMENTAL],
            _ => &[ADCP_MIGRATE_DRAIN, ADCP_MIGRATE_INCREMENTAL],
        };
        [&[ADCP_PARTITIONED][..], strategies].concat()
    } else if spec.fabric {
        vec![ADCP_PARTITIONED, FABRIC]
    } else {
        vec![ADCP, RMT_PINNED, RMT_RECIRC]
    }
}

/// Where a hook can reach into an ADCP or fabric row as it sets up.
enum Hooked<'a> {
    /// The program about to be compiled.
    Program(&'a mut Program),
    /// A switch just built (the single ADCP, or one leaf of the fabric).
    Switch(&'a mut Shell),
    /// The ownership map the fabric is about to steer by.
    Steering(&'a mut Vec<u32>),
}

/// The one place a hook acts: each hook names the site it perturbs, and is
/// a no-op everywhere else.
fn sabotage(bug: BugHook, site: Hooked<'_>) {
    match (bug, site) {
        (BugHook::SwapAddMax, Hooked::Program(program)) => {
            for t in &mut program.tables {
                for a in &mut t.actions {
                    swap_add_max_ops(&mut a.ops);
                }
            }
        }
        (BugHook::LoseDropForensics, Hooked::Switch(sw)) => sw.tracer.set_drop_forensics_loss(true),
        (BugHook::LieIntStamp, Hooked::Switch(sw)) => sw.set_int_lie_queue_depth(true),
        (BugHook::MisrouteBoundaryKey, Hooked::Steering(owners)) => *owners = misrouted(owners),
        _ => {}
    }
}

fn swap_add_max_ops(ops: &mut [ActionOp]) {
    let flip = |op: &mut RegAluOp| {
        *op = match *op {
            RegAluOp::Add => RegAluOp::Max,
            RegAluOp::Max => RegAluOp::Add,
            other => other,
        }
    };
    for op in ops {
        match op {
            ActionOp::RegRmw { op, .. } | ActionOp::RegArray { op, .. } => flip(op),
            ActionOp::IfEq { then, .. } => swap_add_max_ops(then),
            _ => {}
        }
    }
}

/// The `MisrouteBoundaryKey` sabotage: every key whose owner differs from
/// its predecessor's keeps the predecessor's owner instead — the range
/// split's off-by-one, applied at every boundary. Falls back to flipping
/// key 0 on a single-owner map.
fn misrouted(owners: &[u32]) -> Vec<u32> {
    let mut bad = owners.to_vec();
    let mut moved = false;
    for i in 1..bad.len() {
        if owners[i] != owners[i - 1] {
            bad[i] = owners[i - 1];
            moved = true;
        }
    }
    if !moved {
        bad[0] = (bad[0] + 1) % FABRIC_LEAVES;
    }
    bad
}

/// What [`drive`] needs of a rig: one switch of either model, or a fabric.
trait Rig {
    fn install_all(&mut self, table: &str, entry: Entry) -> Result<(), TableError>;
    fn inject(&mut self, port: u16, pkt: Packet, at: SimTime);
    fn run_until_idle(&mut self);
    fn check_conservation(&self);
}

impl Rig for AnySwitch {
    fn install_all(&mut self, table: &str, entry: Entry) -> Result<(), TableError> {
        AnySwitch::install_all(self, table, entry)
    }
    fn inject(&mut self, port: u16, pkt: Packet, at: SimTime) {
        AnySwitch::inject(self, PortId(port), pkt, at)
    }
    fn run_until_idle(&mut self) {
        AnySwitch::run_until_idle(self);
    }
    fn check_conservation(&self) {
        AnySwitch::check_conservation(self)
    }
}

impl Rig for Fabric {
    fn install_all(&mut self, table: &str, entry: Entry) -> Result<(), TableError> {
        Fabric::install_all(self, table, entry)
    }
    fn inject(&mut self, port: u16, pkt: Packet, at: SimTime) {
        Fabric::inject(self, port as u32, pkt, at)
    }
    fn run_until_idle(&mut self) {
        Fabric::run_until_idle(self);
    }
    fn check_conservation(&self) {
        Fabric::check_conservation(self)
    }
}

/// Drive a case through a rig: install every entry, inject every packet
/// the link did not lose, let `mid` act once the workload is queued (a
/// migration row runs to its reconfiguration point and begins migrating
/// there), run to quiescence, and assert packet conservation.
fn drive<R: Rig>(
    name: &str,
    rig: &mut R,
    case: &GenCase,
    prepared: &[PreparedPacket],
    mid: impl FnOnce(&mut R) -> Result<(), CaseError>,
) -> Result<(), CaseError> {
    for (table, entry) in &case.installs {
        rig.install_all(table, entry.clone())
            .map_err(|e| CaseError::Mismatch(format!("{name} install into {table}: {e:?}")))?;
    }
    for p in prepared {
        if !p.link_dropped {
            rig.inject(p.port, p.pkt.clone(), p.at);
        }
    }
    mid(rig)?;
    rig.run_until_idle();
    rig.check_conservation();
    Ok(())
}

/// The name a single-switch row's own checks report under (migrate and
/// partitioned rows included: it names the device, not the row).
fn wire_name(kind: TargetKind) -> &'static str {
    match kind {
        Adcp => "adcp",
        RmtPinned => "rmt-pinned",
        RmtRecirc => "rmt-recirc",
    }
}

/// Journey tracing and INT stamping on (unless `ADCP_TRACE` / `ADCP_INT`
/// override): every run of every ADCP device doubles as a
/// forensics↔counter and an INT↔tracer cross-check lane.
fn adcp_lanes_on() -> AdcpConfig {
    AdcpConfig {
        trace: true,
        int: true,
        ..Default::default()
    }
}

/// Build the switch of one kind for a case, with the same two lanes on.
/// The recirculating lowering compiles the twin program that asks for the
/// second pass; only the ADCP takes sabotage.
fn build(kind: TargetKind, case: &GenCase, bug: BugHook) -> Result<AnySwitch, CompileError> {
    let rmt_lanes_on = RmtConfig {
        trace: true,
        int: true,
        ..Default::default()
    };
    let mut sw = driver::build_with(kind, adcp_lanes_on(), rmt_lanes_on, |_| match kind {
        RmtRecirc => case.program_recirc.clone(),
        RmtPinned => case.program.clone(),
        Adcp => {
            let mut program = case.program.clone();
            sabotage(bug, Hooked::Program(&mut program));
            program
        }
    })?;
    if let AnySwitch::Adcp(sw) = &mut sw {
        sabotage(bug, Hooked::Switch(sw));
    }
    Ok(sw)
}

/// An RMT row takes every scalar program. A program with array action ops
/// (`RegArray` / `ArrayReduce`) is a §3.2 separation witness: scalar MAUs
/// must refuse it at compile time, and RMT silently accepting one is
/// itself a conformance bug.
fn rmt_accepts(case: &GenCase, kind: TargetKind) -> Result<(), Reject> {
    if !case.has_array_actions {
        return Ok(());
    }
    match build(kind, case, BugHook::None) {
        Err(e) => Err(Reject::Unsupported(format!("{e:?}"))),
        Ok(_) => Err(Reject::Mismatch(format!(
            "{} compiled an array-action program it must reject (§3.2)",
            wire_name(kind)
        ))),
    }
}

/// Where a single-switch row keeps central state.
#[derive(Clone, Copy, PartialEq)]
enum Placement {
    /// The route table pins everything to central pipe 0.
    Pinned,
    /// Partitioned on `idx` under a uniform [`PartitionMap`] (ADCP only).
    Partitioned,
    /// Partitioned, and live-repartitioned mid-workload.
    Migrated(MigrationStrategy),
}

/// `reg` as every central pipe holds it, pipe 0 first.
fn central_snapshots(sw: &AnySwitch, reg: RegId) -> Vec<Vec<u64>> {
    match sw {
        AnySwitch::Adcp(s) => (0..s.num_central())
            .map(|p| {
                s.central_register(p, reg)
                    .expect("pipe in range")
                    .snapshot()
            })
            .collect(),
        AnySwitch::Rmt(s) => (0..s.target().num_pipes() as usize)
            .map(|p| s.central_register(p, reg).snapshot())
            .collect(),
    }
}

/// Run the case on one switch. A partitioned row exercises the §3.1
/// control plane: traffic starts under a uniform map and (when migrated) a
/// seeded owner reassignment begins mid-workload. Either way the final
/// register state is the per-cell merge across central pipes, every
/// nonzero cell on the pipe that owns it: pipe 0 when pinned (the workload
/// only uses ports in pipe 0 and the route table pins central pipe 0), the
/// final map's owner when partitioned (a migration that leaves state
/// behind fails here).
fn switch_leg(
    case: &GenCase,
    prepared: &[PreparedPacket],
    cfg: &LegCfg,
    kind: TargetKind,
    placement: Placement,
) -> Result<Outcome, CaseError> {
    let name = wire_name(kind);
    let mismatch =
        |what: &str, e: MigrateError| CaseError::Mismatch(format!("{name}: {what}: {e}"));
    let mut sw = build(kind, case, cfg.bug)
        .map_err(|e| CaseError::Skip(format!("{name} compile: {e:?}")))?;

    let n_pipes = u32::from(Adcp.target_model().central_pipes);
    let initial = (placement != Pinned).then(|| PartitionMap::uniform(REG_CELLS, n_pipes));
    let step = match (placement, &initial) {
        (Migrated(strategy), Some(initial)) => {
            let mk = cfg
                .spec
                .migrate
                .expect("a migration row runs on a migrate spec");
            let span = (prepared.len() as u64 + 1) * GAP_NS;
            let at = SimTime::from_ns((span * mk.at_pm as u64 / 1000).max(1));
            Some((
                perturb_owners(initial, cfg.spec.seed, n_pipes),
                strategy,
                at,
            ))
        }
        _ => None,
    };
    if let Some(map) = &initial {
        sw.adcp_mut()
            .install_partition_map(map.clone())
            .map_err(|e| mismatch("partition map install", e))?;
    }
    drive(name, &mut sw, case, prepared, |sw| {
        let Some((next, strategy, at)) = &step else {
            return Ok(());
        };
        sw.run_until(*at);
        sw.adcp_mut()
            .begin_migration(next.clone(), *strategy)
            .map_err(|e| mismatch("begin_migration", e))
    })?;
    if initial.is_some() {
        let adcp = sw.adcp_mut();
        if adcp.migration_active() {
            adcp.finalize_migration()
                .map_err(|e| mismatch("finalize_migration", e))?;
        }
        let stats = adcp.migration_stats();
        if stats.misroutes != 0 {
            return Err(CaseError::Mismatch(format!(
                "{name}: {} packets dequeued at a stale-epoch pipe",
                stats.misroutes
            )));
        }
        let want_migrations = u64::from(step.is_some());
        if stats.migrations != want_migrations {
            return Err(CaseError::Mismatch(format!(
                "{name}: {} migrations completed, expected {want_migrations}",
                stats.migrations
            )));
        }
    }

    let final_map = step.as_ref().map(|(next, ..)| next).or(initial.as_ref());
    let owner = |cell: usize| final_map.map_or(0, |m| m.owner(cell as u64));
    let by = if final_map.is_some() {
        "the final map"
    } else {
        "the route table"
    };
    let mut regs = Vec::with_capacity(case.state_regs.len());
    for reg in &case.state_regs {
        let mut cells = vec![0u64; REG_CELLS as usize];
        for (pipe, snap) in central_snapshots(&sw, *reg).iter().enumerate() {
            for (cell, v) in snap.iter().enumerate() {
                if *v != 0 && owner(cell) != pipe as u32 {
                    return Err(CaseError::Mismatch(format!(
                        "{name}: register {reg:?} cell {cell} ended on pipe {pipe}, \
                         but {by} owns it to pipe {}",
                        owner(cell)
                    )));
                }
                cells[cell] += *v;
            }
        }
        regs.push(cells);
    }
    finish_outcome(name, &mut sw, regs).map_err(CaseError::Mismatch)
}

/// The tail of every single-switch row, read from the switch's [`Shell`]:
/// drain deliveries and postcards, hold the device to `check_device` and
/// its stamps to the INT honesty lane, and report what it observed.
fn finish_outcome(name: &str, sw: &mut Shell, regs: Vec<Vec<u64>>) -> Result<Outcome, String> {
    let postcards = sw.take_postcards();
    let delivered = sw.take_delivered();
    check_device(name, sw)?;
    if sw.int_knob().on() {
        let device = sw.device();
        int_honesty_check(name, &postcards, sw.int_totals(), |d, pkt| {
            (d == device).then(|| sw.tracer.journey_of(pkt))
        })?;
    }
    let c = &sw.counters;
    Ok(Outcome {
        delivered: sealed_frames(name, delivered, c.delivered)?,
        filtered: c.filtered,
        fcs_drops: c.fcs_drops,
        lookups: c.mat_lookups,
        hits: c.mat_hits,
        regs,
    })
}

/// Run the case on the leaf–spine fabric: the one logical program is split
/// across [`FABRIC_LEAVES`] leaves by key range on `idx` (spines forward
/// between them), the workload enters at the leaf owning each logical host
/// port, and the outcome is assembled fabric-wide — delivered host frames,
/// summed filtered/FCS counts, and the per-cell register merge across the
/// owner leaves. Under [`BugHook::MisrouteBoundaryKey`] the fabric *steers*
/// by a perturbed ownership map while the merge and leak checks keep the
/// true one, so the sabotage must surface as a register mismatch or leak.
fn fabric_leg(
    case: &GenCase,
    prepared: &[PreparedPacket],
    cfg: &LegCfg,
) -> Result<Outcome, CaseError> {
    let fr = |i: u16| FieldRef::new(HeaderId(0), FieldId(i));
    let owners = fabric_owners(cfg.spec.seed);
    let mut steer_owners = owners.clone();
    sabotage(cfg.bug, Hooked::Steering(&mut steer_owners));
    let fspec = FabricSpec {
        n_leaves: FABRIC_LEAVES,
        n_spines: FABRIC_SPINES,
        hosts_per_leaf: FABRIC_HOSTS_PER_LEAF,
        phase_field: fr(5),
        gk_field: fr(6),
        steer_field: fr(2),
        key_space: REG_CELLS as u64,
        owners: steer_owners,
        delivery_port: 0,
    };
    let mut program = case.program.clone();
    sabotage(cfg.bug, Hooked::Program(&mut program));
    let fabric_cfg = FabricConfig {
        // On every device: the stamp stack rides the links, so the fabric
        // case is where multi-device chains get checked.
        switch: adcp_lanes_on(),
        ..Default::default()
    };
    let mut fabric = Fabric::new(&program, fspec, fabric_cfg).map_err(|e| match e {
        // A placement rejection means the fabric-mode generator constraints
        // slipped — a harness bug, not a skip.
        FabricError::Place(p) => CaseError::Mismatch(format!("fabric: placement rejected: {p:?}")),
        FabricError::Compile(c) => CaseError::Skip(format!("fabric compile: {c:?}")),
        FabricError::Install {
            device,
            table,
            error,
        } => CaseError::Mismatch(format!("fabric: install of {table} on {device}: {error:?}")),
    })?;
    for l in 0..fabric.n_leaves() {
        sabotage(cfg.bug, Hooked::Switch(fabric.leaf_mut(l)));
    }
    // The drive's conservation assert is fabric-wide here: host_injected =
    // host_delivered + every device's typed drops, link crossings cancelling.
    drive("fabric", &mut fabric, case, prepared, |_| Ok(()))?;

    // Every device answers to the same checks a switch on its own does;
    // the comparison uses the fabric-wide sums.
    fn device(fabric: &Fabric, d: usize) -> Option<&AdcpSwitch> {
        let n_leaves = fabric.n_leaves();
        if d < n_leaves {
            Some(fabric.leaf(d))
        } else {
            (d < n_leaves + fabric.n_spines()).then(|| fabric.spine(d - n_leaves))
        }
    }
    let (mut filtered, mut fcs_drops, mut lookups, mut hits) = (0, 0, 0, 0);
    for d in 0..fabric.n_devices() {
        let sw = device(&fabric, d as usize).expect("a device id in range");
        check_device(&format!("fabric {}", fabric.device_name(d)), sw)
            .map_err(CaseError::Mismatch)?;
        let c = &sw.counters;
        filtered += c.filtered;
        fcs_drops += c.fcs_drops;
        lookups += c.mat_lookups;
        hits += c.mat_hits;
    }
    // INT honesty, fabric-wide: postcards from every device's TX, hop
    // chains split per device and compared against that device's tracer.
    if fabric.leaf(0).int_knob().on() {
        let postcards = fabric.drain_postcards();
        int_honesty_check("fabric", &postcards, fabric.int_totals(), |d, pkt| {
            device(&fabric, d as usize).map(|sw| sw.tracer.journey_of(pkt))
        })
        .map_err(CaseError::Mismatch)?;
    }

    // Register state: no cell may hold a nonzero value on a non-owner leaf
    // (by the *true* map), and the comparison value is the per-cell merge
    // read from each cell's true owner.
    for reg in &case.state_regs {
        if let Some((leaf, cell, v)) = fabric
            .register_leaks_with(&owners, *reg, REG_CELLS as usize)
            .first()
        {
            return Err(CaseError::Mismatch(format!(
                "fabric: register {reg:?} cell {cell} has value {v} on non-owner leaf{leaf}"
            )));
        }
    }
    let regs = case
        .state_regs
        .iter()
        .map(|r| fabric.merged_register_with(&owners, *r, REG_CELLS as usize))
        .collect();
    let host_delivered = fabric.host_delivered();
    Ok(Outcome {
        delivered: sealed_frames("fabric", fabric.take_delivered(), host_delivered)
            .map_err(CaseError::Mismatch)?,
        filtered,
        fcs_drops,
        lookups,
        hits,
        regs,
    })
}
