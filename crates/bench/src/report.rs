//! Console/JSON reporting for the regenerators.
//!
//! Every experiment returns serializable rows; `adcp exp` prints an
//! aligned text table (what EXPERIMENTS.md quotes) and, with `--json`,
//! machine-readable lines for downstream plotting.

use serde::Serialize;

/// A titled, aligned table from header + rows of strings, as the
/// console shows it: a blank line, the title, the header, a rule, the rows.
pub fn table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    use std::fmt::Write;
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
    let mut out = format!("\n== {title} ==\n{}\n", fmt_row(&head));
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        writeln!(out, "{}", fmt_row(row)).expect("writing to a String");
    }
    out
}

/// Print [`table`] to stdout.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    print!("{}", table(title, header, rows));
}

/// Emit one JSON line per row, tagged with its experiment name, through a
/// locked, buffered stdout handle flushed once at the end (rows can number
/// in the thousands; per-row unbuffered writes dominated the old profile).
pub fn print_json<T: Serialize>(experiment: &str, rows: &[T]) {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    for r in rows {
        let mut v = serde_json::to_value(r).expect("rows serialize");
        if let Some(obj) = v.as_object_mut() {
            obj.insert(
                "experiment".into(),
                serde_json::Value::String(experiment.into()),
            );
        }
        writeln!(out, "{}", serde_json::to_string(&v).expect("json encodes"))
            .expect("stdout write");
    }
    out.flush().expect("stdout flush");
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
