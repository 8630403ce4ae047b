//! One workload in one process: warm-up, repetitions, gates, metrics.

use crate::driven::{metric, Driven, RepOut};
use crate::env::peak_rss_mib;
use crate::probes::{self, PROBE_FRAMES};
use crate::spans::{chrome_trace, Recorder};
use crate::spec::{per_layer, END_TO_END};
use crate::stats::{median, Summary};
use crate::{serve, table1};
use adcpd::daemon::SoakReport;
use std::time::Instant;

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One of the five packet-driven workloads.
    Driven(Driven),
    /// `serve-diurnal`.
    Serve,
    /// `table1`.
    Table1,
}

impl Workload {
    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "fwd-min" => Workload::Driven(Driven::FwdMin),
            "agg-zipf" => Workload::Driven(Driven::AggZipf),
            "agg-rmt" => Workload::Driven(Driven::AggRmt),
            "kv-array" => Workload::Driven(Driven::KvArray),
            "fabric-agg" => Workload::Driven(Driven::FabricAgg),
            "serve-diurnal" => Workload::Serve,
            "table1" => Workload::Table1,
            _ => return None,
        })
    }
}

/// How long to measure.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Start repetitions until this many seconds have passed (the driver's
    /// `--seconds`); at least [`MIN_REPS`].
    Seconds(f64),
    /// Exactly this many timed repetitions (`--all` uses 5).
    Reps(u32),
}

/// Fewest timed repetitions a run reports a median of.
pub const MIN_REPS: u32 = 3;

/// Largest share of a traced repetition's wall that may sit outside every
/// span before attribution is refused — or [`MAX_GLUE_S`], whichever is
/// larger: one scheduler preemption between two spans must not fail a
/// 30 ms `--smoke` repetition.
const MAX_GLUE_SHARE: f64 = 0.02;
const MAX_GLUE_S: f64 = 0.002;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    /// The workload.
    pub workload: Workload,
    /// Its name.
    pub name: &'static str,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget.
    pub budget: Budget,
    /// Report per-layer metrics (traced repetitions) instead of end-to-end.
    pub trace: bool,
    /// Divide every input size by this (1, or 100 for `--smoke`).
    pub shrink: u64,
}

/// What a run produced.
pub struct RunResult {
    /// The configuration.
    pub cfg: RunCfg,
    /// Timed repetitions.
    pub reps: usize,
    /// Packets (or arrivals) attempted over the timed repetitions.
    pub attempted: u64,
    /// Oracle mismatches, unexpected drops, failed ledger, determinism or
    /// attribution checks.
    pub failed: u64,
    /// End-to-end metrics (untraced runs), in `spec::END_TO_END` order.
    pub end_to_end: Vec<(&'static str, Summary)>,
    /// Per-layer metrics (traced runs), in `spec::per_layer` order.
    pub per_layer: Vec<(String, f64)>,
    /// Whole-repetition wall over the timed repetitions.
    pub rep_wall_s: Summary,
    /// Why `failed` is not 0.
    pub complaints: Vec<String>,
}

impl RunResult {
    /// All gates passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// One repetition of any workload. `last_real` carries the latest real
/// daemon report to the `serve-diurnal` mirror.
fn one_rep(
    cfg: &RunCfg,
    rec: &mut Recorder,
    rep: u32,
    traced: bool,
    last_real: &mut Option<SoakReport>,
) -> RepOut {
    match cfg.workload {
        Workload::Driven(d) => d.rep(rec, rep, traced, cfg.seed, cfg.shrink),
        Workload::Table1 => table1::rep(rec, rep, traced, cfg.seed, cfg.shrink),
        Workload::Serve => {
            if traced {
                let real = last_real.as_ref().expect("a real run precedes the mirror");
                serve::mirror(rec, rep, cfg.shrink, real)
            } else {
                let (out, report) = serve::real(rec, rep, cfg.shrink);
                *last_real = Some(report);
                out
            }
        }
    }
}

/// Run the workload.
pub fn run(cfg: RunCfg) -> RunResult {
    let mut rec = Recorder::new(false);
    let mut last_real = None;
    let mut complaints = Vec::new();

    // Warm-up, untimed: page in code, fault the allocator, fill caches.
    let warm = one_rep(&cfg, &mut rec, 0, false, &mut last_real);
    let mut failed = warm.failed;
    if warm.failed > 0 {
        complaints.push(format!("warm-up: {} failed checks", warm.failed));
    }

    let mut timed: Vec<RepOut> = Vec::new();
    let mut traced: Vec<RepOut> = Vec::new();
    let started = Instant::now();
    let mut rep = 1;
    // A traced run measures untraced/traced pairs; one pair is enough.
    let min_reps = if cfg.trace { 1 } else { MIN_REPS };
    loop {
        let done = timed.len() as u32;
        let go = match cfg.budget {
            Budget::Reps(n) => done < n,
            Budget::Seconds(s) => done < min_reps || started.elapsed().as_secs_f64() < s,
        };
        if !go {
            break;
        }
        timed.push(one_rep(&cfg, &mut rec, rep, false, &mut last_real));
        rep += 1;
        if cfg.trace {
            traced.push(one_rep(&cfg, &mut rec, rep, true, &mut last_real));
            rep += 1;
        }
    }

    // Determinism and correctness gate over every repetition.
    for (kind, r) in timed
        .iter()
        .map(|r| ("timed", r))
        .chain(traced.iter().map(|r| ("traced", r)))
    {
        if r.failed > 0 {
            complaints.push(format!("{kind} repetition: {} failed checks", r.failed));
        }
        failed += r.failed;
        if r.digest != 0 && r.digest != warm.digest {
            complaints.push(format!(
                "{kind} repetition digest {:016x} differs from the warm-up's {:016x}",
                r.digest, warm.digest
            ));
            failed += 1;
        }
        if r.rep_self_share > MAX_GLUE_SHARE && r.rep_self_share * r.rep_s > MAX_GLUE_S {
            complaints.push(format!(
                "span self-times leave {:.1} % of the traced repetition unaccounted",
                r.rep_self_share * 100.0
            ));
            failed += 1;
        }
    }

    let col = |f: &dyn Fn(&RepOut) -> f64| -> Vec<f64> { timed.iter().map(f).collect() };
    let rep_wall_s = Summary::of(&col(&|r| r.rep_s));
    let attempted: u64 = timed.iter().chain(traced.iter()).map(|r| r.pkts).sum();

    let mut end_to_end = Vec::new();
    let mut layer = Vec::new();
    if cfg.trace {
        layer = per_layer_metrics(
            &cfg,
            &mut rec,
            &timed,
            &traced,
            &mut failed,
            &mut complaints,
        );
    } else {
        let rss = peak_rss_mib();
        for m in &END_TO_END {
            let xs = match m.name {
                "setup_s" => col(&|r| r.setup_s),
                "sim_pkts_per_s" => col(&|r| r.pkts as f64 / r.work_s),
                "wall_s_per_sim_s" => col(&|r| r.work_s / (r.makespan_ps as f64 * 1e-12)),
                "peak_rss_mb" => vec![rss],
                "sim_makespan_us" => col(&|r| r.makespan_ps as f64 / 1e6),
                "sim_latency_p50_ns" => col(&|r| r.p50_ns),
                "sim_latency_p99_ns" => col(&|r| r.p99_ns),
                "sim_delivered_share" => col(&|r| r.delivered as f64 / r.expected.max(1) as f64),
                other => unreachable!("end-to-end metric {other} has no definition"),
            };
            end_to_end.push((m.name, Summary::of(&xs)));
        }
    }

    RunResult {
        cfg,
        reps: timed.len(),
        attempted: attempted.max(1),
        failed,
        end_to_end,
        per_layer: layer,
        rep_wall_s,
        complaints,
    }
}

/// Per-layer metrics of a traced run: medians over the repetitions that
/// measured each name, the probes, the trace overhead; then the trace file.
fn per_layer_metrics(
    cfg: &RunCfg,
    rec: &mut Recorder,
    timed: &[RepOut],
    traced: &[RepOut],
    failed: &mut u64,
    complaints: &mut Vec<String>,
) -> Vec<(String, f64)> {
    let mut measured: Vec<(String, Vec<f64>)> = Vec::new();
    for r in timed.iter().chain(traced.iter()) {
        for (name, v) in &r.layer {
            match measured.iter_mut().find(|(n, _)| n == name) {
                Some((_, xs)) => xs.push(*v),
                None => measured.push((name.clone(), vec![*v])),
            }
        }
    }
    let mut values: Vec<(String, f64)> = measured
        .into_iter()
        .map(|(n, xs)| (n, median(&xs)))
        .collect();

    let work = |rs: &[RepOut]| median(&rs.iter().map(|r| r.work_s).collect::<Vec<_>>());
    values.push((
        "bench.trace_overhead_pct".into(),
        (work(traced) / work(timed) - 1.0) * 100.0,
    ));

    // Probes: after the repetitions, outside every timed region.
    let input = match cfg.workload {
        Workload::Driven(d) => Some(d.probe_input(cfg.seed, cfg.shrink, PROBE_FRAMES / cfg.shrink)),
        Workload::Serve => Some(serve::probe_input(PROBE_FRAMES / cfg.shrink)),
        Workload::Table1 => None,
    };
    let gap_ps = input.as_ref().map_or(1_000, |i| i.gap_ps);
    let mut probe = probes::generic(cfg.seed, gap_ps);
    if let Some(input) = &input {
        probe.extend(probes::on_workload(input, cfg.seed));
        // Weigh the probe costs by the traced repetition's exact counts.
        if let Some(r) = traced.last() {
            // (timing prefix, exact-count prefix) of this workload.
            let (timing, prefix) = match cfg.workload {
                Workload::Driven(Driven::AggRmt) => ("rmt", "rmt"),
                Workload::Driven(Driven::FabricAgg) => ("fabric", "core"),
                _ => ("core", "core"),
            };
            let run = metric(&values, &format!("{timing}.run_ns_per_pkt"));
            let visits = metric(&values, "fabric.device_hops_per_pkt").max(1.0);
            values.push((
                format!("{prefix}.run_unattributed_share"),
                probes::unattributed_share(&probe, &r.counts, r.pkts, visits, run),
            ));
        }
    }
    values.extend(probe);

    match write_trace(cfg.name, rec) {
        Ok(()) => {}
        Err(e) => {
            complaints.push(format!("trace file: {e}"));
            *failed += 1;
        }
    }

    // Every declared name, in declared order; a layer that did no work in
    // this workload reports 0.
    per_layer()
        .into_iter()
        .map(|(name, _, _)| {
            let v = metric(&values, &name);
            (name, v)
        })
        .collect()
}

/// Write the spans kept so far to `benchmark/out/<workload>.trace.json`
/// (next to the sources this binary was built from) after validating them
/// against the repo's Chrome-trace schema.
fn write_trace(workload: &str, rec: &Recorder) -> Result<(), String> {
    let doc = chrome_trace(rec.spans());
    let schema = adcp_sim::schema::load_chrome_trace_schema()?;
    adcp_sim::schema::validate(&doc, &schema)
        .map_err(|errs| format!("trace does not validate: {}", errs.join("; ")))?;
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}.trace.json"));
    let mut text = String::new();
    doc.encode(&mut text);
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::contract_line;
    use crate::spec::WORKLOADS;

    /// Every workload, at 1/100 size, untraced and traced: all gates pass
    /// and the line the driver reads carries exactly the declared names.
    #[test]
    fn every_workload_emits_every_declared_metric() {
        for (name, _) in WORKLOADS {
            for trace in [false, true] {
                let r = run(RunCfg {
                    workload: Workload::parse(name).expect("declared workloads parse"),
                    name,
                    seed: 7,
                    budget: Budget::Reps(1),
                    trace,
                    shrink: 100,
                });
                assert_eq!(r.failed, 0, "{name} trace={trace}: {:?}", r.complaints);
                let line = serde_json::from_str(&contract_line(&r)).expect("contract line parses");
                let keys: Vec<&str> = line
                    .as_object()
                    .expect("an object")
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                assert_eq!(line.get("correct").and_then(|v| v.as_bool()), Some(true));
                let got: Vec<String> = line
                    .get("metrics")
                    .and_then(|m| m.as_object())
                    .expect("metrics object")
                    .iter()
                    .map(|(k, _)| k.clone())
                    .collect();
                let want: Vec<String> = if trace {
                    per_layer().into_iter().map(|l| l.0).collect()
                } else {
                    END_TO_END.iter().map(|m| m.name.to_string()).collect()
                };
                assert_eq!(got, want, "{name} trace={trace}");
                if !trace {
                    for (m, s) in &r.end_to_end {
                        assert!(s.median > 0.0, "{name}: {m} must never be 0");
                    }
                }
            }
        }
    }
}
