//! Console/JSON reporting for the regenerators.
//!
//! Every experiment returns serializable rows; the binaries print an
//! aligned text table (what EXPERIMENTS.md quotes) and, with `--json`,
//! machine-readable lines for downstream plotting.

use serde::Serialize;

/// Print a titled, aligned table from header + rows of strings.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&head));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Tag a serialized row with its experiment name.
fn tagged_row<T: Serialize>(experiment: &str, row: &T) -> serde_json::Value {
    let mut v = serde_json::to_value(row).expect("rows serialize");
    if let Some(obj) = v.as_object_mut() {
        obj.insert(
            "experiment".into(),
            serde_json::Value::String(experiment.into()),
        );
    }
    v
}

/// Emit one JSON line per row through a locked, buffered stdout handle,
/// flushing once at the end (rows can number in the thousands; per-row
/// unbuffered writes dominated the old profile).
pub fn print_json<T: Serialize>(experiment: &str, rows: &[T]) {
    use std::io::Write;
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    for r in rows {
        let v = tagged_row(experiment, r);
        writeln!(out, "{}", serde_json::to_string(&v).expect("json encodes"))
            .expect("stdout write");
    }
    out.flush().expect("stdout flush");
}

/// True when the process args ask for JSON output.
pub fn want_json() -> bool {
    std::env::args().any(|a| a == "--json")
}

/// Format a float with engineering-style precision.
pub fn eng(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 1e9 {
        format!("{:.2}G", x / 1e9)
    } else if x.abs() >= 1e6 {
        format!("{:.2}M", x / 1e6)
    } else if x.abs() >= 1e3 {
        format!("{:.2}k", x / 1e3)
    } else {
        format!("{x:.2}")
    }
}
