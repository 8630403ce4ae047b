//! Database analytics: in-network filter–aggregate–reshuffle (Table 1).
//!
//! Mappers stream `(key, value)` rows; the switch (a) drops rows the
//! query's filter rejects, (b) repartitions survivors to the reducer that
//! owns `hash(key)`, and (c) keeps a per-key running sum whose latest
//! value rides in each forwarded row — so the reducer's final answer for a
//! key is simply the last value it receives (sums are monotone).
//!
//! Variants:
//! * **ADCP**: the first TM shards keys across central pipelines; the
//!   per-key sums live in the global area; TM2 can also copy each
//!   completed total to a *coordinator* port for query progress tracking —
//!   a second destination, which egress-pinned RMT cannot produce.
//! * **RMT/pinned**: aggregation state lives in each reducer's egress
//!   pipeline. Functional for plain shuffles (state is per-key and keys
//!   are pinned to reducers), but totals are visible *only* to the owning
//!   reducer, and half the stages (ingress) do no aggregation work.

use crate::driver::{self, AppReport, TargetKind};
use crate::suite::Scale;
use adcp_lang::{
    fold_hash, ActionDef, ActionOp, Entry, FieldDef, FieldId, FieldRef, HeaderDef, HeaderId,
    KeySpec, MatchKind, MatchValue, Operand, ParserSpec, Program, ProgramBuilder, RegAluOp, Region,
    RegisterDef, TableDef,
};
use adcp_sim::packet::{FlowId, Packet, PortId};
use adcp_sim::rng::SimRng;
use adcp_sim::time::SimTime;
use adcp_workloads::shuffle::{Row, ShuffleWorkload};
use std::collections::HashMap;

/// Parameters of one shuffle run.
#[derive(Debug, Clone)]
pub struct DbShuffleCfg {
    /// Underlying workload shape.
    pub workload: ShuffleWorkload,
    /// Port carrying the coordinator copy (ADCP only).
    pub coordinator_port: u16,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DbShuffleCfg {
    fn default() -> Self {
        DbShuffleCfg {
            workload: ShuffleWorkload {
                mappers: 4,
                reducers: 4,
                rows_per_mapper: 500,
                selectivity: 0.6,
                distinct_keys: 64,
                skew: 0.9,
            },
            coordinator_port: 15,
            seed: 3,
        }
    }
}

impl DbShuffleCfg {
    /// The size the suite runs at `scale` ([`crate::suite`]).
    pub fn sized(scale: Scale) -> Self {
        let mut cfg = Self::default();
        if scale == Scale::Quick {
            cfg.workload.rows_per_mapper = 150;
        }
        cfg
    }
}

fn fr(f: u16) -> FieldRef {
    FieldRef::new(HeaderId(0), FieldId(f))
}

const F_FILTER: u16 = 0; // 8b: 1 = row passes the query filter
const F_KEY: u16 = 1; // 32b group-by key
const F_VALUE: u16 = 2; // 32b value / running sum
const F_SCRATCH: u16 = 3; // 32b reducer index scratch

/// Build the shuffle program for a variant.
pub fn program(cfg: &DbShuffleCfg, kind: TargetKind, _central_pipes: u32) -> Program {
    let reducers = cfg.workload.reducers as u64;
    let mut b = ProgramBuilder::new(format!("dbshuffle-{}", kind.label()));
    let h = b.header(HeaderDef::new(
        "row",
        vec![
            FieldDef::scalar("filter", 8),
            FieldDef::scalar("key", 32),
            FieldDef::scalar("value", 32),
            FieldDef::scalar("scratch", 32),
        ],
    ));
    b.parser(ParserSpec::single(h));
    let sums = b.register(RegisterDef::new(
        "group_sums",
        cfg.workload.distinct_keys as u32,
        64,
    ));

    // Ingress 1: the query filter (exact match on the filter flag).
    b.table(TableDef {
        name: "filter".into(),
        region: Region::Ingress,
        key: Some(KeySpec {
            field: fr(F_FILTER),
            kind: MatchKind::Exact,
            bits: 8,
        }),
        actions: vec![
            ActionDef::nop(),
            ActionDef::new("reject", vec![ActionOp::Drop]),
        ],
        default_action: 1, // anything unlisted is filtered out
        default_params: vec![],
        size: 4,
    });

    // Ingress 2: compute the owning reducer = hash(key) % reducers, and
    // the state placement.
    let mut partition_ops = vec![ActionOp::Hash {
        dst: fr(F_SCRATCH),
        fields: vec![fr(F_KEY)],
        modulo: reducers,
    }];
    match kind {
        TargetKind::Adcp => {
            // Shard aggregation state across central pipelines by key.
            partition_ops.push(ActionOp::SetCentralPipe(Operand::Field(fr(F_SCRATCH))));
        }
        TargetKind::RmtRecirc => {
            partition_ops.push(ActionOp::SetCentralPipe(Operand::Field(fr(F_SCRATCH))));
            partition_ops.push(ActionOp::Recirculate);
        }
        TargetKind::RmtPinned => {}
    }
    partition_ops.push(ActionOp::CountElements(Operand::Const(1)));
    b.table(TableDef {
        name: "partition".into(),
        region: Region::Ingress,
        key: None,
        actions: vec![ActionDef::new("partition", partition_ops)],
        default_action: 0,
        default_params: vec![],
        size: 1,
    });

    // Central: per-key running sum; the running total replaces the value.
    b.table(TableDef {
        name: "groupby".into(),
        region: Region::Central,
        key: None,
        actions: vec![ActionDef::new(
            "sum",
            vec![
                ActionOp::RegRmw {
                    reg: sums,
                    index: Operand::Field(fr(F_KEY)),
                    op: RegAluOp::Add,
                    value: Operand::Field(fr(F_VALUE)),
                    fetch: None,
                },
                // Re-read the cell so the row carries the post-add total.
                ActionOp::RegRead {
                    reg: sums,
                    index: Operand::Field(fr(F_KEY)),
                    dst: fr(F_VALUE),
                },
            ],
        )],
        default_action: 0,
        default_params: vec![],
        size: 1,
    });

    // Route to the owning reducer's port (+ coordinator copy on ADCP).
    // Entries installed by the control plane. On the egress-pinned RMT
    // variant the routing decision must be made at INGRESS (the TM needs
    // the port before the pinned egress pipeline runs); elsewhere it runs
    // in the central region after the group-by.
    let route_region = if kind == TargetKind::RmtPinned {
        Region::Ingress
    } else {
        Region::Central
    };
    b.table(TableDef {
        name: "route".into(),
        region: route_region,
        key: Some(KeySpec {
            field: fr(F_SCRATCH),
            kind: MatchKind::Exact,
            bits: 32,
        }),
        actions: vec![
            ActionDef::new("to_reducer", vec![ActionOp::SetEgress(Operand::Param(0))]),
            ActionDef::new("to_group", vec![ActionOp::SetMulticast(Operand::Param(1))]),
            ActionDef::new("drop", vec![ActionOp::Drop]),
        ],
        default_action: 2,
        default_params: vec![],
        size: 64,
    });
    // Multicast groups are appended per-reducer by the control plane setup
    // below (group g = {reducer_port(g), coordinator}).
    for r in 0..cfg.workload.reducers {
        let ports = vec![
            PortId(reducer_port(cfg, r) as u16),
            PortId(cfg.coordinator_port),
        ];
        b.mcast_group(ports);
    }
    b.build()
}

/// Mapper m sends from port m; reducer r receives on port mappers + r.
pub fn reducer_port(cfg: &DbShuffleCfg, r: u32) -> u32 {
    cfg.workload.mappers + r
}

fn row_packet(id: u64, row: &Row) -> Packet {
    let mut data = Vec::with_capacity(13);
    data.push(u8::from(row.keep));
    data.extend_from_slice(&(row.key as u32).to_be_bytes());
    data.extend_from_slice(&(row.value as u32).to_be_bytes());
    data.extend_from_slice(&0u32.to_be_bytes());
    Packet::new(id, FlowId(row.mapper as u64), data)
        .with_goodput(8)
        .with_elements(1)
}

fn read_key_value(data: &[u8]) -> (u64, u64) {
    let key = u32::from_be_bytes(data[1..5].try_into().unwrap()) as u64;
    let value = u32::from_be_bytes(data[5..9].try_into().unwrap()) as u64;
    (key, value)
}

/// Run one shuffle variant end to end; verify per-key totals and routing.
pub fn run(kind: TargetKind, cfg: &DbShuffleCfg) -> AppReport {
    let mut sw = driver::build(kind, |target| {
        program(cfg, kind, driver::state_pipes(target))
    })
    .expect("dbshuffle compiles on every target");
    let notes = sw.placement().notes.clone();

    // Control plane: route entries. ADCP multicasts each reducer's rows to
    // {reducer, coordinator}; RMT unicasts (pinning makes the coordinator
    // copy impossible without recirculation).
    for r in 0..cfg.workload.reducers {
        let (action, params) = match kind {
            // param0 unused, param1 = multicast group index (= reducer).
            TargetKind::Adcp => (1usize, vec![0, r as u64]),
            _ => (0usize, vec![reducer_port(cfg, r) as u64]),
        };
        let entry = Entry {
            value: MatchValue::Exact(r as u64),
            action,
            params,
        };
        sw.install_all("route", entry).expect("install");
    }
    // Filter: flag==1 passes.
    sw.install_all(
        "filter",
        Entry {
            value: MatchValue::Exact(1),
            action: 0,
            params: vec![],
        },
    )
    .expect("install");

    // Data plane: inject every mapper's rows.
    let mut rng = SimRng::seed_from(cfg.seed);
    let rows = cfg.workload.generate(&mut rng);
    for (i, row) in rows.iter().enumerate() {
        sw.inject(
            PortId(row.mapper as u16),
            row_packet(i as u64, row),
            SimTime::ZERO,
        );
    }
    let makespan = sw.run_until_idle();
    sw.check_conservation();

    // Verify: per key, the *latest* value seen at the owning reducer port
    // equals the reference group-by sum, and rows landed on the right
    // reducer.
    let reference = ShuffleWorkload::reference_sums(&rows);
    let delivered = sw.take_delivered();
    let mut last_at_reducer: HashMap<u64, u64> = HashMap::new();
    let mut coordinator_rows = 0u64;
    let mut misrouted = 0u64;
    for d in &delivered {
        let (key, value) = read_key_value(&d.data);
        if d.port == PortId(cfg.coordinator_port) && kind == TargetKind::Adcp {
            coordinator_rows += 1;
            continue;
        }
        let owner = (fold_hash([key]) % cfg.workload.reducers as u64) as u32;
        if d.port != PortId(reducer_port(cfg, owner) as u16) {
            misrouted += 1;
            continue;
        }
        // Running sums are monotone: the max is the latest/final value.
        let e = last_at_reducer.entry(key).or_insert(0);
        *e = (*e).max(value);
    }
    let mut correct = misrouted == 0 && last_at_reducer.len() == reference.len();
    for (key, total) in &reference {
        if last_at_reducer.get(key) != Some(total) {
            correct = false;
        }
    }
    if kind == TargetKind::Adcp && coordinator_rows == 0 && !delivered.is_empty() {
        correct = false;
    }
    let mut notes = notes;
    notes.push(format!(
        "coordinator copies: {coordinator_rows} (ADCP-only capability)"
    ));
    AppReport::from_switch("dbshuffle", kind, &sw, makespan, correct, notes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> DbShuffleCfg {
        DbShuffleCfg {
            workload: ShuffleWorkload {
                mappers: 4,
                reducers: 4,
                rows_per_mapper: 200,
                selectivity: 0.5,
                distinct_keys: 32,
                skew: 0.8,
            },
            coordinator_port: 15,
            seed: 21,
        }
    }

    #[test]
    fn adcp_shuffle_is_correct_with_coordinator() {
        let r = run(TargetKind::Adcp, &small());
        assert!(r.correct, "{r:?}");
        assert_eq!(r.injected, 800);
        assert!(r.notes.iter().any(|n| n.contains("coordinator copies")));
    }

    #[test]
    fn rmt_pinned_shuffle_is_correct_without_coordinator() {
        let r = run(TargetKind::RmtPinned, &small());
        assert!(r.correct, "{r:?}");
        assert_eq!(r.recirc_passes, 0);
    }

    #[test]
    fn rmt_recirc_shuffle_pays_a_pass_per_row() {
        let r = run(TargetKind::RmtRecirc, &small());
        assert!(r.correct, "{r:?}");
        // Only filtered-in rows recirculate (filter runs first).
        assert!(r.recirc_passes > 300, "recirc = {}", r.recirc_passes);
        assert!(r.recirc_passes < 500);
    }

    #[test]
    fn selectivity_extremes() {
        // Filter keeps nothing: everything drops, nothing delivered.
        let mut cfg = small();
        cfg.workload.selectivity = 0.0;
        let r = run(TargetKind::Adcp, &cfg);
        assert!(r.correct, "{r:?}");
        assert_eq!(r.delivered, 0);
        assert_eq!(r.drops, r.injected);
        // Filter keeps everything: every row reaches a reducer (plus the
        // coordinator copies).
        cfg.workload.selectivity = 1.0;
        let r = run(TargetKind::Adcp, &cfg);
        assert!(r.correct, "{r:?}");
        assert_eq!(r.delivered, 2 * r.injected, "reducer + coordinator");
    }

    #[test]
    fn filter_drops_rejected_rows() {
        let r = run(TargetKind::Adcp, &small());
        // ~half the rows are filtered in-switch.
        assert!(r.drops > 300, "drops = {}", r.drops);
    }
}
