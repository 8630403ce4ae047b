//! Result documents, the metric table printed for people, and `--compare`.

use crate::env::Fingerprint;
use crate::run::RunResult;
use crate::spec::{per_layer, END_TO_END};
use crate::stats::Summary;
use serde::{Serialize, Value};

/// A JSON object from key/value pairs, in order.
pub fn obj(kv: Vec<(&str, Value)>) -> Value {
    let mut m = serde::Map::new();
    for (k, v) in kv {
        m.insert(k.into(), v);
    }
    Value::Object(m)
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
pub fn contract_line(r: &RunResult) -> String {
    let metric = |value: f64, unit: &str| {
        obj(vec![
            ("value", Value::F64(value)),
            ("unit", Value::String(unit.into())),
        ])
    };
    let mut metrics = serde::Map::new();
    if r.cfg.trace {
        for ((name, v), (_, unit, _)) in r.per_layer.iter().zip(per_layer()) {
            metrics.insert(name.clone(), metric(*v, unit));
        }
    } else {
        for ((name, s), m) in r.end_to_end.iter().zip(&END_TO_END) {
            metrics.insert(name.to_string(), metric(s.median, m.unit));
        }
    }
    let mut line = String::new();
    obj(vec![
        ("correct", Value::Bool(r.correct())),
        ("attempted", Value::U64(r.attempted)),
        ("failed", Value::U64(r.failed)),
        ("metrics", Value::Object(metrics)),
    ])
    .encode(&mut line);
    line
}

/// Everything one run measured, for `--all` to collect.
pub fn detail(r: &RunResult, fingerprint: &Fingerprint) -> Value {
    let mut e2e = serde::Map::new();
    for ((name, s), m) in r.end_to_end.iter().zip(&END_TO_END) {
        let mut v = s.to_value();
        if let Some(o) = v.as_object_mut() {
            o.insert("unit".into(), Value::String(m.unit.into()));
        }
        e2e.insert(name.to_string(), v);
    }
    let mut layers = serde::Map::new();
    for ((name, v), (_, unit, _)) in r.per_layer.iter().zip(per_layer()) {
        layers.insert(
            name.clone(),
            obj(vec![
                ("value", Value::F64(*v)),
                ("unit", Value::String(unit.into())),
            ]),
        );
    }
    obj(vec![
        ("workload", Value::String(r.cfg.name.into())),
        ("seed", Value::U64(r.cfg.seed)),
        ("trace", Value::Bool(r.cfg.trace)),
        ("shrink", Value::U64(r.cfg.shrink)),
        ("reps", Value::U64(r.reps as u64)),
        ("attempted", Value::U64(r.attempted)),
        ("failed", Value::U64(r.failed)),
        ("correct", Value::Bool(r.correct())),
        (
            "complaints",
            Value::Array(
                r.complaints
                    .iter()
                    .map(|c| Value::String(c.clone()))
                    .collect(),
            ),
        ),
        ("fingerprint", fingerprint.to_value()),
        ("rep_wall_s", r.rep_wall_s.to_value()),
        ("end_to_end", Value::Object(e2e)),
        ("per_layer", Value::Object(layers)),
    ])
}

/// Print every metric of one run's [`detail`] document by name, with its
/// unit.
pub fn print_detail(d: &Value) {
    let text = |v: Option<&Value>| v.and_then(Value::as_str).unwrap_or("?").to_string();
    let num = |v: Option<&Value>| v.and_then(Value::as_f64).unwrap_or(f64::NAN);
    let wall = d.get("rep_wall_s");
    println!(
        "# {} seed={} trace={} reps={} failed={} rep_wall_s median={:.3} min={:.3}",
        text(d.get("workload")),
        num(d.get("seed")),
        d.get("trace").and_then(Value::as_bool).unwrap_or(false) as u8,
        num(d.get("reps")),
        num(d.get("failed")),
        num(wall.and_then(|w| w.get("median"))),
        num(wall.and_then(|w| w.get("min"))),
    );
    if let Some(f) = d.get("fingerprint") {
        println!(
            "# env nproc={} rustc=\"{}\" commit={} calibration_ns={}→{}{}",
            num(f.get("nproc")),
            text(f.get("rustc")),
            text(f.get("commit")),
            num(f.get("calibration_before_ns")),
            num(f.get("calibration_after_ns")),
            if f.get("noisy").and_then(Value::as_bool) == Some(true) {
                " NOISY"
            } else {
                ""
            }
        );
    }
    for (name, m) in d
        .get("end_to_end")
        .and_then(Value::as_object)
        .into_iter()
        .flat_map(|m| m.iter())
    {
        let f = |k: &str| num(m.get(k));
        println!(
            "{name:<40} {:>16.6} {:<8} n={} min={:.6} q1={:.6} q3={:.6} max={:.6} spread={:.2}%",
            f("median"),
            text(m.get("unit")),
            f("n"),
            f("min"),
            f("q1"),
            f("q3"),
            f("max"),
            (f("q3") - f("q1")) / f("median") * 100.0
        );
    }
    for (name, m) in d
        .get("per_layer")
        .and_then(Value::as_object)
        .into_iter()
        .flat_map(|m| m.iter())
    {
        println!(
            "{name:<40} {:>16.4} {}",
            num(m.get("value")),
            text(m.get("unit"))
        );
    }
    for c in d.get("complaints").and_then(Value::as_array).unwrap_or(&[]) {
        println!("! {}", c.as_str().unwrap_or("?"));
    }
}

/// How one metric of one workload moved from result set A to B.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the runs' own spread.
    Improved,
    /// Not worse by more than the bound.
    Within,
    /// Worse by more than the bound.
    Regressed,
    /// The spread between runs exceeds the bound, so neither can be said.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Within => "within bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Classify B against A. `worse` is how much worse B's median is than A's
/// as a share of A's (negative = better). A simulated metric on the same
/// seed repeats exactly, so with bound 0 any change is a verdict. A change
/// smaller than `floor` (in the metric's unit) is within bound whatever its
/// share.
pub fn verdict(
    a: &Summary,
    b: &Summary,
    lower_is_better: bool,
    bound: f64,
    floor: f64,
) -> (Verdict, f64) {
    let base = a.median;
    let worse = if base == 0.0 {
        0.0
    } else if lower_is_better {
        (b.median - base) / base.abs()
    } else {
        (base - b.median) / base.abs()
    };
    let spread = a.spread().max(b.spread());
    let all_better = if lower_is_better {
        b.max < a.min
    } else {
        b.min > a.max
    };
    // One reading per side (peak RSS) says nothing about spread, so it
    // cannot carry a gain.
    let repeated = a.n > 1 && b.n > 1;
    let v = if (b.median - base).abs() < floor {
        Verdict::Within
    } else if repeated && (all_better || (worse < 0.0 && -worse > spread && spread <= bound)) {
        Verdict::Improved
    } else if spread > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Within
    };
    (v, worse)
}

fn summary_of(v: &Value) -> Option<Summary> {
    let f = |k: &str| v.get(k).and_then(Value::as_f64);
    Some(Summary {
        n: v.get("n")?.as_u64()? as usize,
        min: f("min")?,
        q1: f("q1")?,
        median: f("median")?,
        q3: f("q3")?,
        max: f("max")?,
    })
}

/// Compare two `--all` documents; prints one row per metric × workload and
/// returns how many regressed or stayed unresolved. Simulated metrics and
/// the failure count are held to bound 0 when both sets ran the same seed.
pub fn compare(a: &Value, b: &Value) -> Result<(u64, u64), String> {
    let seed = |d: &Value| d.get("seed").and_then(Value::as_u64);
    let same_seed = seed(a).is_some() && seed(a) == seed(b);
    let wa = a
        .get("workloads")
        .and_then(Value::as_object)
        .ok_or("A has no workloads object")?;
    let wb = b
        .get("workloads")
        .and_then(Value::as_object)
        .ok_or("B has no workloads object")?;
    let (mut regressed, mut unresolved) = (0, 0);
    println!(
        "{:<14} {:<22} {:>14} {:>14} {:>9} {:>8}  verdict",
        "workload", "metric", "A (base)", "B", "B/A", "bound"
    );
    for (name, ra) in wa.iter() {
        let Some(rb) = wb.get(name) else {
            println!("{name:<14} missing from B");
            unresolved += 1;
            continue;
        };
        for m in &END_TO_END {
            let get = |r: &Value| {
                r.get("end_to_end")
                    .and_then(|e| e.get(m.name))
                    .and_then(summary_of)
            };
            let (Some(sa), Some(sb)) = (get(ra), get(rb)) else {
                println!("{name:<14} {:<22} missing", m.name);
                unresolved += 1;
                continue;
            };
            let bound = if m.simulated && same_seed {
                0.0
            } else {
                m.bound
            };
            let (v, _) = verdict(&sa, &sb, m.better == "lower", bound, m.floor);
            regressed += (v == Verdict::Regressed) as u64;
            unresolved += (v == Verdict::Unresolved) as u64;
            println!(
                "{:<14} {:<22} {:>14.6} {:>14.6} {:>9.4} {:>8.2}  {}",
                name,
                m.name,
                sa.median,
                sb.median,
                sb.median / sa.median,
                bound,
                v.label()
            );
        }
        let failed = |r: &Value| r.get("failed").and_then(Value::as_u64).unwrap_or(u64::MAX);
        if failed(rb) > failed(ra) || failed(rb) > 0 {
            println!(
                "{name:<14} {:<22} {:>14} {:>14}  regressed",
                "failed",
                failed(ra),
                failed(rb)
            );
            regressed += 1;
        }
    }
    Ok((regressed, unresolved))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(xs: &[f64]) -> Summary {
        Summary::of(xs)
    }

    #[test]
    fn verdicts() {
        let a = s(&[10.0, 10.1, 9.9, 10.0, 10.05]);
        // 5 % worse, bound 10 %: within.
        let (v, w) = verdict(&a, &s(&[10.5, 10.6, 10.4, 10.5, 10.5]), true, 0.10, 0.0);
        assert_eq!(v, Verdict::Within);
        assert!((w - 0.05).abs() < 1e-9);
        // 20 % worse: regressed.
        let b = s(&[12.0, 12.1, 11.9, 12.0, 12.0]);
        assert_eq!(verdict(&a, &b, true, 0.10, 0.0).0, Verdict::Regressed);
        // The same numbers for a higher-is-better metric: improved.
        assert_eq!(verdict(&a, &b, false, 0.10, 0.0).0, Verdict::Improved);
        // Noisy B (spread > bound) that overlaps A: unresolved.
        let noisy = s(&[8.0, 12.0, 10.0, 14.0, 9.0]);
        assert_eq!(verdict(&a, &noisy, true, 0.10, 0.0).0, Verdict::Unresolved);
        // Noisy, but every run of B beats every run of A: improved.
        let fast = s(&[5.0, 8.0, 6.0, 9.0, 7.0]);
        assert_eq!(verdict(&a, &fast, true, 0.10, 0.0).0, Verdict::Improved);
        // Exact metric (bound 0): identical is within, any loss regresses.
        let exact = s(&[7.0; 5]);
        assert_eq!(verdict(&exact, &exact, true, 0.0, 0.0).0, Verdict::Within);
        assert_eq!(
            verdict(&exact, &s(&[7.5; 5]), true, 0.0, 0.0).0,
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&exact, &s(&[6.5; 5]), true, 0.0, 0.0).0,
            Verdict::Improved
        );
        // Single readings never claim a gain.
        assert_eq!(
            verdict(&s(&[7.0]), &s(&[6.9]), true, 0.15, 0.0).0,
            Verdict::Within
        );
        assert_eq!(
            verdict(&s(&[7.0]), &s(&[9.0]), true, 0.15, 0.0).0,
            Verdict::Regressed
        );
        // A 75 µs set-up that doubles is below the 2 ms floor: within.
        let tiny = s(&[75e-6, 70e-6, 90e-6, 72e-6, 200e-6]);
        let twice = s(&[150e-6; 5]);
        assert_eq!(verdict(&tiny, &twice, true, 0.25, 0.002).0, Verdict::Within);
        assert_eq!(
            verdict(&tiny, &twice, true, 0.25, 0.0).0,
            Verdict::Unresolved
        );
    }
}
