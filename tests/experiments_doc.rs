//! EXPERIMENTS.md quotes what `adcp exp` prints, and this test holds it to
//! that: every fenced `text` block that follows an `adcp exp <name>
//! [--quick]` command line is rendered from `experiments::ROWS` at the
//! command's scale and must match byte for byte, and every row must be
//! quoted at least once. Command lines start with `` `adcp exp ``; lines
//! inside other fenced blocks (shell snippets) are not commands.
//!
//! After a change that moves a quoted number, re-render the blocks with
//! `DOC_UPDATE=1 cargo test --test experiments_doc`, then fix by hand any
//! prose around them that quotes the moved numbers.

use adcp::apps::suite::Scale;
use adcp_bench::experiments::{self, Experiment, ROWS};

#[test]
fn experiments_md_quotes_what_adcp_exp_prints() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("EXPERIMENTS.md");
    let doc = std::fs::read_to_string(&path).expect("read EXPERIMENTS.md");
    let mut lines: Vec<&str> = doc.split('\n').collect();

    // (command line, experiment, scale, the block's lines start..end)
    let mut blocks = Vec::new();
    let mut pending: Option<(usize, &Experiment, Scale)> = None;
    let mut i = 0;
    while i < lines.len() {
        if let Some(cmd) = lines[i].strip_prefix("`adcp exp ") {
            if let Some((at, ..)) = pending {
                panic!("EXPERIMENTS.md:{}: command quotes no output", at + 1);
            }
            let mut words = cmd.split('`').next().unwrap_or_default().split_whitespace();
            let name = words.next().unwrap_or_default();
            let exp = experiments::find(name)
                .unwrap_or_else(|| panic!("EXPERIMENTS.md:{}: no experiment {name:?}", i + 1));
            pending = Some((i, exp, Scale::of(words.any(|w| w == "--quick"))));
        } else if lines[i].starts_with("```") {
            let body = (lines[i + 1..].iter()).position(|l| l.starts_with("```"));
            let end = i + 1 + body.expect("every fence closes");
            if let (true, Some((at, exp, scale))) = (lines[i] == "```text", pending) {
                blocks.push((at, exp, scale, i + 1, end));
                pending = None;
            }
            i = end;
        }
        i += 1;
    }
    if let Some((at, ..)) = pending {
        panic!("EXPERIMENTS.md:{}: command quotes no output", at + 1);
    }
    let unquoted: Vec<&str> = (ROWS.iter().map(|e| e.name))
        .filter(|name| !blocks.iter().any(|b| b.1.name == *name))
        .collect();
    assert!(
        unquoted.is_empty(),
        "EXPERIMENTS.md quotes no output of {unquoted:?}"
    );

    let texts =
        adcp_bench::par::par_map(blocks.clone(), |(_, exp, scale, ..)| (exp.run)(scale).text);
    let mut drift = Vec::new();
    // Back to front, so a rewrite leaves the earlier blocks' line numbers.
    for ((at, exp, _, start, end), text) in blocks.into_iter().zip(&texts).rev() {
        let want: Vec<&str> = text.trim_start_matches('\n').lines().collect();
        let got = &lines[start..end];
        if got == want.as_slice() {
            continue;
        }
        let first = (got.iter().zip(&want)).take_while(|(g, w)| g == w).count();
        drift.push(format!(
            "EXPERIMENTS.md:{}: the block after `adcp exp {}` (line {}) quotes {:?}, renders {:?}",
            start + first + 1,
            exp.name,
            at + 1,
            got.get(first).copied().unwrap_or("<end of block>"),
            want.get(first).copied().unwrap_or("<end of block>"),
        ));
        lines.splice(start..end, want);
    }
    if std::env::var("DOC_UPDATE").is_ok() {
        std::fs::write(&path, lines.join("\n")).expect("write EXPERIMENTS.md");
        return;
    }
    assert!(
        drift.is_empty(),
        "EXPERIMENTS.md drifted from `adcp exp` (DOC_UPDATE=1 re-renders the blocks):\n  {}",
        drift.join("\n  ")
    );
}
