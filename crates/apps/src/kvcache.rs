//! Key/value cache with array lookups (NetCache-style; the §3.2 / Fig. 3
//! economics made measurable).
//!
//! Clients send GET batches carrying `W` keys per packet. The switch looks
//! every key up in an exact-match cache table: hits fill the corresponding
//! value lane in place; the packet then continues to the storage server,
//! which only has to serve the missing lanes.
//!
//! The architectural point: the cache table is keyed on an **array
//! field**. On the ADCP it occupies one copy across `W` interconnected MAU
//! memories; on RMT it must be **replicated W times** (Fig. 3), so for the
//! same per-stage memory budget the RMT cache holds ~`1/W` as many
//! entries — and its hit rate drops accordingly under a Zipf workload.
//! [`max_cache_entries`] finds each target's largest compilable cache, and
//! [`run`] measures the resulting hit rates.

use crate::driver::{self, AppReport, TargetKind};
use crate::suite::Scale;
use adcp_lang::{
    compile, ActionDef, ActionOp, CompileOptions, Entry, FieldDef, FieldId, FieldRef, HeaderDef,
    HeaderId, KeySpec, MatchKind, MatchValue, Operand, ParserSpec, Program, ProgramBuilder, Region,
    TableDef, TargetModel,
};
use adcp_sim::packet::{FlowId, Packet, PortId};
use adcp_sim::rng::SimRng;
use adcp_sim::time::SimTime;
use adcp_workloads::keys::ZipfKeys;

/// Parameters of one cache run.
#[derive(Debug, Clone)]
pub struct KvCacheCfg {
    /// Keys per GET packet (array width).
    pub width: u16,
    /// Distinct keys in the keyspace.
    pub keyspace: usize,
    /// Zipf skew.
    pub skew: f64,
    /// GET packets to send.
    pub requests: u32,
    /// Client ports used round-robin.
    pub clients: u16,
    /// Divide the compiled maximum cache size by this factor (keeps the
    /// control-plane install time reasonable while preserving the RMT/ADCP
    /// size *ratio*, which is the Fig. 3 quantity).
    pub scale_down: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for KvCacheCfg {
    fn default() -> Self {
        KvCacheCfg {
            width: 8,
            keyspace: 50_000,
            skew: 0.99,
            requests: 2_000,
            clients: 4,
            scale_down: 8,
            seed: 17,
        }
    }
}

impl KvCacheCfg {
    /// The size the suite runs at `scale` ([`crate::suite`]).
    pub fn sized(scale: Scale) -> Self {
        let mut cfg = Self::default();
        if scale == Scale::Quick {
            cfg.requests = 300;
        }
        cfg
    }
}

fn fr(f: u16) -> FieldRef {
    FieldRef::new(HeaderId(0), FieldId(f))
}

#[allow(dead_code)]
const F_OP: u16 = 0; // reserved for GET/SET distinction
const F_KEYS: u16 = 1;
const F_VALS: u16 = 2;

/// Value the cache stores for key `k` (nonzero so hits are observable).
pub fn cached_value(k: u64) -> u64 {
    (k + 1) & 0xFFFF_FFFF
}

/// Build the cache program with a cache table of `entries`.
pub fn program(width: u16, entries: u32, server_port: PortId) -> Program {
    let mut b = ProgramBuilder::new(format!("kvcache-w{width}"));
    let h = b.header(HeaderDef::new(
        "kv",
        vec![
            FieldDef::scalar("op", 8),
            FieldDef::array("keys", 32, width),
            FieldDef::array("vals", 32, width),
        ],
    ));
    b.parser(ParserSpec::single(h));
    b.table(TableDef {
        name: "cache".into(),
        region: Region::Ingress,
        key: Some(KeySpec {
            field: fr(F_KEYS),
            kind: MatchKind::Exact,
            bits: 32,
        }),
        actions: vec![
            // Lane semantics: a hit on keys[i] fills vals[i].
            ActionDef::new(
                "hit",
                vec![ActionOp::Set {
                    dst: fr(F_VALS),
                    src: Operand::Param(0),
                }],
            ),
            ActionDef::nop(),
        ],
        default_action: 1,
        default_params: vec![],
        size: entries,
    });
    b.table(TableDef {
        name: "fwd".into(),
        region: Region::Ingress,
        key: None,
        actions: vec![ActionDef::new(
            "fwd",
            vec![
                ActionOp::SetEgress(Operand::Const(server_port.0 as u64)),
                ActionOp::CountElements(Operand::Const(width as u64)),
            ],
        )],
        default_action: 0,
        default_params: vec![],
        size: 1,
    });
    b.build()
}

/// Largest cache (entries) that compiles on `target` at array width
/// `width` — binary search over the compiler. On RMT the table replicates
/// `width`× (Fig. 3), so this comes out ~`width`× smaller.
pub fn max_cache_entries(target: &TargetModel, width: u16) -> u32 {
    let fits = |entries: u32| -> bool {
        if entries == 0 {
            return true;
        }
        let prog = program(width, entries, PortId(0));
        compile(&prog, target, CompileOptions::default()).is_ok()
    };
    let mut lo = 0u32; // always fits
    let mut hi = 4_000_000u32;
    if fits(hi) {
        return hi;
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if fits(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

fn get_packet(id: u64, client: u16, keys: &[u64]) -> Packet {
    let w = keys.len();
    let mut data = Vec::with_capacity(1 + w * 8);
    data.push(0u8); // GET
    for k in keys {
        data.extend_from_slice(&(*k as u32).to_be_bytes());
    }
    data.extend_from_slice(&vec![0u8; w * 4]); // empty value lanes
    Packet::new(id, FlowId(client as u64), data)
        .with_goodput((w * 8) as u32)
        .with_elements(w as u32)
}

fn read_lanes(data: &[u8], width: usize) -> Vec<(u64, u64)> {
    (0..width)
        .map(|i| {
            let ks = 1 + i * 4;
            let vs = 1 + width * 4 + i * 4;
            (
                u32::from_be_bytes(data[ks..ks + 4].try_into().unwrap()) as u64,
                u32::from_be_bytes(data[vs..vs + 4].try_into().unwrap()) as u64,
            )
        })
        .collect()
}

/// Outcome of a cache run (wrapped in the report's notes, plus returned
/// for the benches).
#[derive(Debug, Clone)]
pub struct CacheOutcome {
    /// Standard app report.
    pub report: AppReport,
    /// Cache entries installed.
    pub cache_entries: u32,
    /// Lane hit rate observed at the server.
    pub hit_rate: f64,
}

/// Run the cache on a target; the cache is sized to the largest table the
/// target can compile (the Fig. 3 economics).
pub fn run(kind: TargetKind, cfg: &KvCacheCfg) -> CacheOutcome {
    let server_port = PortId(cfg.clients); // one past the clients
    let mut target_entries = 0;
    let mut sw = driver::build(kind, |target| {
        target_entries = (max_cache_entries(target, cfg.width) / cfg.scale_down.max(1))
            .min(cfg.keyspace as u32)
            .max(1);
        program(cfg.width, target_entries, server_port)
    })
    .expect("kvcache compiles on every target");
    let notes = sw.placement().notes.clone();

    // Control plane: cache the `entries` most popular keys (Zipf key 0 is
    // the hottest).
    for k in 0..target_entries as u64 {
        sw.install_all(
            "cache",
            Entry {
                value: MatchValue::Exact(k),
                action: 0,
                params: vec![cached_value(k)],
            },
        )
        .expect("install");
    }

    // Data plane: Zipf GET batches. Clients pace themselves — all
    // requests funnel into one server port, so an unpaced burst would be
    // a pure incast test rather than a cache test (2 ns between requests
    // keeps the aggregate well under the server port's drain rate).
    let zipf = ZipfKeys::new(cfg.keyspace, cfg.skew);
    let mut rng = SimRng::seed_from(cfg.seed);
    let mut sent_lanes = 0u64;
    for i in 0..cfg.requests {
        let keys: Vec<u64> = (0..cfg.width).map(|_| zipf.sample(&mut rng)).collect();
        sent_lanes += keys.len() as u64;
        sw.inject(
            PortId(i as u16 % cfg.clients),
            get_packet(i as u64, i as u16 % cfg.clients, &keys),
            SimTime(i as u64 * 2_000),
        );
    }
    let makespan = sw.run_until_idle();
    sw.check_conservation();

    // Server side: count hit lanes (value lane filled with cached_value).
    let delivered = sw.take_delivered();
    let mut hit_lanes = 0u64;
    let mut seen_lanes = 0u64;
    let mut correct = delivered.len() == cfg.requests as usize;
    for d in &delivered {
        if d.port != server_port {
            correct = false;
        }
        for (k, v) in read_lanes(&d.data, cfg.width as usize) {
            seen_lanes += 1;
            if v == cached_value(k) {
                hit_lanes += 1;
            } else if v != 0 {
                correct = false; // a miss lane must be untouched
            } else if k < target_entries as u64 {
                correct = false; // a cached key must have hit
            }
        }
    }
    if seen_lanes != sent_lanes {
        correct = false;
    }
    let hit_rate = hit_lanes as f64 / seen_lanes.max(1) as f64;
    let mut notes = notes;
    notes.push(format!(
        "cache entries = {target_entries}, lane hit rate = {:.3}",
        hit_rate
    ));
    CacheOutcome {
        report: AppReport::from_switch("kvcache", kind, &sw, makespan, correct, notes),
        cache_entries: target_entries,
        hit_rate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> KvCacheCfg {
        KvCacheCfg {
            width: 8,
            keyspace: 50_000,
            skew: 0.99,
            requests: 300,
            clients: 4,
            scale_down: 8,
            seed: 23,
        }
    }

    #[test]
    fn rmt_cache_is_roughly_width_times_smaller() {
        let rmt = max_cache_entries(&TargetModel::rmt_12t(), 8);
        let adcp = max_cache_entries(&TargetModel::adcp_reference(), 8);
        let ratio = adcp as f64 / rmt as f64;
        assert!(
            (6.0..=10.0).contains(&ratio),
            "Fig. 3: ~8x replication tax; got adcp={adcp} rmt={rmt} ratio={ratio}"
        );
    }

    #[test]
    fn adcp_hit_rate_beats_rmt() {
        let a = run(TargetKind::Adcp, &small());
        let r = run(TargetKind::RmtPinned, &small());
        assert!(a.report.correct, "{:?}", a.report);
        assert!(r.report.correct, "{:?}", r.report);
        assert!(
            a.hit_rate > r.hit_rate + 0.03,
            "adcp {:.3} vs rmt {:.3}",
            a.hit_rate,
            r.hit_rate
        );
        assert!(a.cache_entries > r.cache_entries);
    }

    #[test]
    fn scalar_caches_are_equal_sized() {
        let rmt = max_cache_entries(&TargetModel::rmt_12t(), 1);
        let adcp = max_cache_entries(&TargetModel::adcp_reference(), 1);
        // Same memory model, no replication at width 1.
        assert_eq!(rmt, adcp);
    }

    #[test]
    fn wider_batches_raise_element_rate() {
        let narrow = run(
            TargetKind::Adcp,
            &KvCacheCfg {
                width: 1,
                ..small()
            },
        );
        let wide = run(TargetKind::Adcp, &small());
        assert!(
            wide.report.elements_per_sec > 4.0 * narrow.report.elements_per_sec,
            "wide {:.3e} vs narrow {:.3e}",
            wide.report.elements_per_sec,
            narrow.report.elements_per_sec
        );
    }
}
