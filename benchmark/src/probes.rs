//! Isolated probes: what one call of each low layer costs on the workload's
//! own inputs (its first 65 536 frames and keys), measured on their own
//! after the repetitions, outside every timed region. Each probe's cost,
//! weighted by how often a packet pays it, is set against
//! `core.run_ns_per_pkt`; what is left over is switch-file glue
//! (`core.run_unattributed_share`).

use crate::driven::{metric, Counts};
use adcp_lang::{
    deparse_into, ActionDef, ActionOp, Entry, KeySpec, MatchKind, MatchValue, Operand, Phv,
    Program, RegAluOp, Region, RegionState, RegisterDef, RegisterFile, TableDef, TableRuntime,
};
use adcp_sim::event::EventQueue;
use adcp_sim::packet::{FlowId, Packet, PacketStore};
use adcp_sim::rng::SimRng;
use adcp_sim::stats::LatencyHist;
use adcp_sim::time::{Duration, SimTime};
use adcp_workloads::keys::ZipfKeys;
use std::hint::black_box;
use std::time::Instant;

/// Frames the probes use.
pub const PROBE_FRAMES: u64 = 65_536;
/// Frames pre-parsed for the exec probe (PHVs are kept in memory).
const EXEC_FRAMES: usize = 8_192;
/// Entries in each `lang.lookup_ns.*` table.
const LOOKUP_ENTRIES: u64 = 4_096;

/// What a workload hands the probes.
pub struct ProbeInput {
    /// The program a device of the workload runs.
    pub program: Program,
    /// Entries installed into it, by table name.
    pub installs: Vec<(String, Entry)>,
    /// The workload's first frames.
    pub frames: Vec<Vec<u8>>,
    /// Arrival spacing, ps.
    pub gap_ps: u64,
    /// Register index stream (empty when the program has no registers).
    pub reg_indices: Vec<u64>,
    /// Cells of the register the stream indexes.
    pub reg_cells: u32,
    /// The workload's key sampler, if it has one.
    pub zipf: Option<ZipfKeys>,
}

fn per_item(t0: Instant, n: usize) -> f64 {
    t0.elapsed().as_nanos() as f64 / n.max(1) as f64
}

/// Probes that need no workload input.
pub fn generic(seed: u64, gap_ps: u64) -> Vec<(String, f64)> {
    let n = PROBE_FRAMES as usize;
    let mut out = Vec::new();
    let mut rng = SimRng::seed_from(seed ^ 0x70_726f_6265);

    // Event queue: schedule at the arrival spacing, then drain by batch.
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut batch = Vec::new();
    let t0 = Instant::now();
    for i in 0..n as u64 {
        q.push(SimTime(1_000 + i * gap_ps.max(1)), i);
    }
    while q.pop_batch(&mut batch).is_some() {
        black_box(&batch);
    }
    out.push(("sim.evq_ns_per_event".into(), per_item(t0, n)));

    // Frame arena: take, fill, recycle.
    let mut store = PacketStore::new();
    let t0 = Instant::now();
    for _ in 0..n {
        let mut buf = store.take();
        buf.resize(128, 0);
        store.recycle(black_box(buf));
    }
    out.push(("sim.store_ns_per_frame".into(), per_item(t0, n)));

    // Latency histogram.
    let values: Vec<u64> = (0..n).map(|_| rng.range(1_000u64..50_000_000)).collect();
    let mut h = LatencyHist::new();
    let t0 = Instant::now();
    for v in &values {
        h.record(Duration(*v));
    }
    black_box(h.count());
    out.push(("sim.hist_record_ns".into(), per_item(t0, n)));

    // Table lookups, one table of each match kind, 4096 entries, keys drawn
    // uniformly over twice the installed span (about half of them hit).
    let kinds = [
        ("exact", MatchKind::Exact),
        ("lpm", MatchKind::Lpm),
        ("ternary", MatchKind::Ternary),
        ("range", MatchKind::Range),
    ];
    for (label, kind) in kinds {
        let def = TableDef {
            name: format!("probe_{label}"),
            region: Region::Ingress,
            key: Some(KeySpec {
                field: adcp_lang::FieldRef::new(adcp_lang::HeaderId(0), adcp_lang::FieldId(0)),
                kind,
                bits: 32,
            }),
            actions: vec![ActionDef::new(
                "hit",
                vec![ActionOp::SetEgress(Operand::Param(0))],
            )],
            default_action: 0,
            default_params: vec![0],
            size: LOOKUP_ENTRIES as u32,
        };
        let mut rt = TableRuntime::new(&def);
        for k in 0..LOOKUP_ENTRIES {
            let value = match kind {
                MatchKind::Exact => MatchValue::Exact(k),
                // /24 prefixes over a 32-bit key.
                MatchKind::Lpm => MatchValue::Lpm {
                    value: k << 8,
                    len: 24,
                },
                MatchKind::Ternary => MatchValue::Ternary {
                    value: k << 8,
                    mask: 0xFFFF_FF00,
                    priority: (k % 8) as u16,
                },
                MatchKind::Range => MatchValue::Range {
                    lo: k << 8,
                    hi: (k << 8) | 0xFF,
                },
            };
            rt.insert(
                &def,
                Entry {
                    value,
                    action: 0,
                    params: vec![k],
                },
            )
            .expect("probe entry installs");
        }
        let span = if kind == MatchKind::Exact {
            2 * LOOKUP_ENTRIES
        } else {
            (2 * LOOKUP_ENTRIES) << 8
        };
        // Ternary lookup is a linear scan: fewer keys keep the probe short.
        let m = if kind == MatchKind::Ternary {
            n / 16
        } else {
            n
        };
        let keys: Vec<u64> = (0..m).map(|_| rng.range(0..span)).collect();
        let t0 = Instant::now();
        let mut hits = 0u64;
        for k in &keys {
            hits += rt.lookup(*k).is_some() as u64;
        }
        black_box(hits);
        out.push((format!("lang.lookup_ns.{label}"), per_item(t0, m)));
    }
    out
}

/// Probes on the workload's own program, frames and keys.
pub fn on_workload(input: &ProbeInput, seed: u64) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let p = &input.program;
    let layout = p.layout();
    let frames = &input.frames;
    let n = frames.len();

    if let Some(zipf) = input.zipf {
        let mut rng = SimRng::seed_from(seed);
        let t0 = Instant::now();
        let mut acc = 0u64;
        for _ in 0..PROBE_FRAMES {
            acc = acc.wrapping_add(zipf.sample(&mut rng));
        }
        black_box(acc);
        out.push((
            "workloads.zipf_sample_ns".into(),
            per_item(t0, PROBE_FRAMES as usize),
        ));
    }

    // Seal at the sender + check at the MAC.
    let mut pkts: Vec<Packet> = frames
        .iter()
        .enumerate()
        .map(|(i, f)| Packet::new(i as u64, FlowId(i as u64), f.clone()))
        .collect();
    let t0 = Instant::now();
    let mut ok = 0u64;
    for pkt in pkts.iter_mut() {
        pkt.reseal();
        ok += pkt.fcs_ok() as u64;
    }
    black_box(ok);
    out.push(("sim.seal_ns_per_pkt".into(), per_item(t0, n)));
    drop(pkts);

    // Parse, recycling the scratch PHV the way the switches do.
    let mut scratch = (Phv::empty(), Vec::new());
    let t0 = Instant::now();
    for f in frames {
        let o = p
            .parser
            .parse_reusing(&p.headers, &layout, f, scratch.0, scratch.1)
            .expect("benchmark frames parse");
        scratch = (o.phv, o.extracted);
    }
    out.push(("lang.parse_ns_per_pkt".into(), per_item(t0, n)));

    // Deparse into a recycled buffer.
    let parsed = p
        .parser
        .parse(&p.headers, &layout, &frames[0])
        .expect("benchmark frames parse");
    let payload = &frames[0][parsed.consumed..];
    let mut buf = Vec::new();
    let t0 = Instant::now();
    for _ in 0..n {
        deparse_into(
            &mut buf,
            &p.headers,
            &layout,
            &parsed.phv,
            &parsed.extracted,
            payload,
        );
        black_box(&buf);
    }
    out.push(("lang.deparse_ns_per_pkt".into(), per_item(t0, n)));

    // Region execution: ingress, central and egress `RegionState::run` over
    // pre-parsed PHVs (table lookups and register RMWs included).
    let mut regions: Vec<RegionState> = [Region::Ingress, Region::Central, Region::Egress]
        .into_iter()
        .map(|r| RegionState::new(p, r))
        .collect();
    for (table, entry) in &input.installs {
        let gi = p
            .tables
            .iter()
            .position(|t| t.name == *table)
            .expect("probe install names a program table");
        let state = regions
            .iter_mut()
            .find(|s| s.region() == p.tables[gi].region)
            .expect("all three regions built");
        state
            .install(p, gi, entry.clone())
            .expect("probe entry installs");
    }
    let mut phvs: Vec<Phv> = frames
        .iter()
        .take(EXEC_FRAMES)
        .map(|f| {
            p.parser
                .parse(&p.headers, &layout, f)
                .expect("benchmark frames parse")
                .phv
        })
        .collect();
    let t0 = Instant::now();
    for phv in phvs.iter_mut() {
        for state in regions.iter_mut() {
            state.run(p, &layout, phv);
        }
    }
    out.push(("lang.exec_ns_per_pkt".into(), per_item(t0, phvs.len())));

    // Register read-modify-write over the workload's index stream.
    if !input.reg_indices.is_empty() {
        let mut file = RegisterFile::new(&RegisterDef::new("probe", input.reg_cells, 64));
        let t0 = Instant::now();
        let mut acc = 0u64;
        for idx in &input.reg_indices {
            acc = acc.wrapping_add(file.rmw(*idx, RegAluOp::Add, 1));
        }
        black_box(acc);
        out.push((
            "lang.reg_rmw_ns".into(),
            per_item(t0, input.reg_indices.len()),
        ));
    }
    out
}

/// The share of `run_ns_per_pkt` the probes do not account for. Each probe
/// cost is weighted by an exact per-packet count: one event and one
/// histogram record per hop (plus the delivery latency record), one arena
/// round trip and one deparse per rebuilt frame, one parse per parser span,
/// and per device visited (`visits`: 1 on a switch, ~4 on the fabric) one
/// seal + check and one pass through the three regions.
pub fn unattributed_share(
    probe: &[(String, f64)],
    counts: &Counts,
    pkts: u64,
    visits: f64,
    run_ns_per_pkt: f64,
) -> f64 {
    let get = |n: &str| metric(probe, n);
    let per_pkt = |c: u64| c as f64 / pkts.max(1) as f64;
    let hops = per_pkt(counts.hops);
    let rebuilt = per_pkt(counts.deparse_allocs);
    let attributed = hops * get("sim.evq_ns_per_event")
        + (hops + 1.0) * get("sim.hist_record_ns")
        + rebuilt * (get("sim.store_ns_per_frame") + get("lang.deparse_ns_per_pkt"))
        + per_pkt(counts.parses) * get("lang.parse_ns_per_pkt")
        + visits * (get("sim.seal_ns_per_pkt") + get("lang.exec_ns_per_pkt"));
    if run_ns_per_pkt > 0.0 {
        1.0 - attributed / run_ns_per_pkt
    } else {
        0.0
    }
}
