//! `table1`: all nine `adcp_apps::*::run` on ADCP and on their RMT lowering
//! — the 18 `bench_snapshot` points — each sized to ≥100 ms of wall by its
//! cfg, or by looping the cfg where growing it breaks the app's own oracle.
//!
//! The apps are opaque (`run` builds, drives and verifies in one call), so
//! the only timing taken from outside is the wall of each point.

use crate::driven::RepOut;
use crate::spans::{self_ns, self_times, Phase, Recorder};
use crate::stats::{fnv_u64, FNV_OFFSET};
use adcp_apps::driver::{AppReport, TargetKind};
use adcp_apps::{
    dbshuffle, ddos, flowlet, graphmine, groupcomm, kvcache, migrate, netlock, paramserv,
};
use std::time::Instant;

/// The nine apps, in `bench_snapshot` order.
pub const APPS: [&str; 9] = [
    "paramserv",
    "dbshuffle",
    "graphmine",
    "groupcomm",
    "netlock",
    "kvcache",
    "partmigrate",
    "flowlet-ldf",
    "ddos",
];

/// One app × target point.
pub struct Point {
    /// App name (one of [`APPS`]).
    pub app: &'static str,
    /// `adcp` or `rmt` (the metric-name segment).
    pub side: &'static str,
    /// How many times the cfg is run back to back in one repetition.
    pub loops: u32,
    run: Box<dyn Fn(u64) -> AppReport>,
}

/// What one point did in one repetition.
pub struct PointResult {
    /// Host wall of the point's `loops` runs.
    pub wall_s: f64,
    /// Packets injected over the loops.
    pub injected: u64,
    /// Packets delivered over the loops.
    pub delivered: u64,
    /// Runs whose `AppReport.correct` was false.
    pub incorrect: u64,
    /// Simulated makespan summed over the loops, ns.
    pub makespan_ns: f64,
    /// Delivered-packet latency of the last loop, ns.
    pub p50_ns: f64,
    /// Same, 99th percentile.
    pub p99_ns: f64,
    /// Digest of the deterministic parts of every loop's report.
    pub digest: u64,
}

impl Point {
    /// Run the point once (all its loops) with inputs made from `seed`.
    pub fn run(&self, seed: u64) -> PointResult {
        let mut r = PointResult {
            wall_s: 0.0,
            injected: 0,
            delivered: 0,
            incorrect: 0,
            makespan_ns: 0.0,
            p50_ns: 0.0,
            p99_ns: 0.0,
            digest: FNV_OFFSET,
        };
        for l in 0..self.loops {
            let t0 = Instant::now();
            let rep = (self.run)(seed.wrapping_add(l as u64));
            r.wall_s += t0.elapsed().as_secs_f64();
            r.injected += rep.injected;
            r.delivered += rep.delivered;
            r.incorrect += !rep.correct as u64;
            r.makespan_ns += rep.makespan_ns;
            r.p50_ns = rep.latency.p50_ns;
            r.p99_ns = rep.latency.p99_ns;
            for w in [
                rep.injected,
                rep.delivered,
                rep.drops,
                rep.recirc_passes,
                rep.makespan_ns.to_bits(),
                rep.mat_lookups,
                rep.latency.p50_ns.to_bits(),
                rep.latency.p99_ns.to_bits(),
            ] {
                r.digest = fnv_u64(r.digest, w);
            }
        }
        r
    }
}

fn point(
    app: &'static str,
    kind: TargetKind,
    loops: u32,
    run: impl Fn(u64) -> AppReport + 'static,
) -> Point {
    Point {
        app,
        side: if kind == TargetKind::Adcp {
            "adcp"
        } else {
            "rmt"
        },
        loops,
        run: Box::new(run),
    }
}

/// The 18 points. `shrink` divides every size and loop count (1 = full,
/// 100 = `--smoke`). Sizes are constants chosen on the merge commit so that
/// every point is ≥100 ms of wall; a point whose oracle breaks when its cfg
/// grows (TM overflow at the slow receivers of `groupcomm`, incast loss on
/// the RMT lowerings of `paramserv` and `dbshuffle`) or whose cfg does not
/// scale (`graphmine`'s message count is partitions² × supersteps) loops a
/// size that stays correct on every seed instead.
pub fn points(shrink: u32) -> Vec<Point> {
    let s = shrink.max(1);
    let sz = |full: u32| (full / s).max(1);
    let mut out = Vec::new();
    use TargetKind::{Adcp, RmtPinned, RmtRecirc};

    // The ADCP variant carries 16 weights per packet, the RMT lowering one.
    for (k, model, loops) in [(Adcp, 20_480, 1), (RmtRecirc, 512, 8)] {
        let cfg = paramserv::ParamServerCfg {
            model_size: (sz(model) / 16).max(1) * 16,
            ..Default::default()
        };
        out.push(point("paramserv", k, sz(loops), move |seed| {
            paramserv::run(
                k,
                &paramserv::ParamServerCfg {
                    seed,
                    ..cfg.clone()
                },
            )
        }));
    }
    for k in [Adcp, RmtRecirc] {
        let mut cfg = dbshuffle::DbShuffleCfg::default();
        cfg.workload.rows_per_mapper = sz(2_000).max(50);
        out.push(point("dbshuffle", k, sz(5), move |seed| {
            dbshuffle::run(
                k,
                &dbshuffle::DbShuffleCfg {
                    seed,
                    ..cfg.clone()
                },
            )
        }));
    }
    for k in [Adcp, RmtRecirc] {
        let cfg = graphmine::GraphMineCfg::default();
        out.push(point("graphmine", k, sz(80), move |seed| {
            graphmine::run(
                k,
                &graphmine::GraphMineCfg {
                    seed,
                    ..cfg.clone()
                },
            )
        }));
    }
    for k in [Adcp, RmtPinned] {
        let cfg = groupcomm::GroupCommCfg::default();
        out.push(point("groupcomm", k, sz(36), move |_| {
            groupcomm::run(k, &cfg)
        }));
    }
    for k in [Adcp, RmtRecirc] {
        let cfg = netlock::NetLockCfg {
            rounds: sz(1_100),
            ..Default::default()
        };
        out.push(point("netlock", k, 1, move |_| netlock::run(k, &cfg)));
    }
    for (k, requests) in [(Adcp, 12_000), (RmtPinned, 18_000)] {
        let cfg = kvcache::KvCacheCfg {
            requests: sz(requests),
            ..Default::default()
        };
        out.push(point("kvcache", k, 1, move |seed| {
            kvcache::run(
                k,
                &kvcache::KvCacheCfg {
                    seed,
                    ..cfg.clone()
                },
            )
            .report
        }));
    }
    for k in [Adcp, RmtRecirc] {
        let cfg = migrate::MigrateCfg {
            packets: sz(40_000).max(400),
            ..Default::default()
        };
        out.push(point("partmigrate", k, 1, move |seed| {
            migrate::run(
                k,
                &migrate::MigrateCfg {
                    seed,
                    ..cfg.clone()
                },
            )
            .report
        }));
    }
    for k in [Adcp, RmtRecirc] {
        let cfg = flowlet::LdfCfg {
            flows: sz(1_000_000).max(256) as u64,
            pkts: sz(10_000).max(200) as u64,
            ..Default::default()
        };
        out.push(point("flowlet-ldf", k, 1, move |seed| {
            flowlet::run(
                k,
                &flowlet::LdfCfg {
                    seed,
                    ..cfg.clone()
                },
            )
            .report
        }));
    }
    for (k, pkts) in [(Adcp, 3_000), (RmtRecirc, 11_000)] {
        let cfg = ddos::DdosCfg {
            flows: sz(1_000_000).max(4_000) as u64,
            attackers: sz(32).max(4) as u64,
            pkts: sz(pkts).max(400) as u64,
            cool_pkts: sz(pkts / 4).max(200) as u64,
            window_pkts: sz(pkts / 20).max(40) as u64,
            ..Default::default()
        };
        out.push(point("ddos", k, 1, move |seed| {
            ddos::run(
                k,
                &ddos::DdosCfg {
                    seed,
                    ..cfg.clone()
                },
            )
            .report
        }));
    }
    out
}

/// One repetition of `table1`: every point once, in order.
///
/// The apps build, compile and install inside `run`, so set-up cannot be
/// bracketed on its own. `setup_s` is instead the wall of one pass over all
/// 18 points at 1/100 size, where construction is nearly all the work: a
/// change that moves work into set-up still shows.
pub fn rep(rec: &mut Recorder, rep: u32, traced: bool, seed: u64, shrink: u64) -> RepOut {
    let from = rec.begin_rep(rep, traced);
    let root = rec.enter("bench.rep", Phase::Group, -1);
    let t = rec.enter("apps.setup_pass", Phase::Setup, -1);
    let mut failed = 0;
    for p in points(shrink as u32 * 100) {
        failed += p.run(seed).incorrect;
    }
    rec.exit(t);

    let mut out = RepOut {
        digest: FNV_OFFSET,
        ..RepOut::default()
    };
    let (mut w50, mut w99, mut makespan_ns) = (0.0, 0.0, 0.0);
    for (i, p) in points(shrink as u32).iter().enumerate() {
        let t = rec.enter("apps.run", Phase::Work, i as i64);
        let r = p.run(seed);
        rec.exit(t);
        let t = rec.enter("bench.verify", Phase::Verify, i as i64);
        failed += r.incorrect;
        out.pkts += r.injected;
        out.expected += p.loops as u64;
        out.delivered += p.loops as u64 - r.incorrect;
        makespan_ns += r.makespan_ns;
        w50 += r.p50_ns * r.delivered as f64;
        w99 += r.p99_ns * r.delivered as f64;
        out.counts.delivered += r.delivered;
        out.digest = fnv_u64(out.digest, r.digest);
        out.layer.push((
            format!("apps.{}.{}.pkts_per_s", p.app, p.side),
            r.injected as f64 / r.wall_s,
        ));
        rec.exit(t);
    }
    out.rep_s = rec.exit(root);
    (out.setup_s, out.work_s, out.verify_s) = rec.totals();
    out.failed = failed;
    out.makespan_ps = (makespan_ns * 1e3) as u64;
    let delivered = out.counts.delivered.max(1) as f64;
    out.p50_ns = w50 / delivered;
    out.p99_ns = w99 / delivered;
    out.seal_digest();
    if traced {
        let st = self_times(rec.spans_from(from), from);
        out.rep_self_share = self_ns(&st, "bench.rep") / (out.rep_s * 1e9);
        out.layer
            .push(("bench.verify_share".into(), out.verify_s / out.rep_s));
    }
    out
}
