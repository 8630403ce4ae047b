//! Property tests pinning the indexed match-table lookups to a brute-force
//! linear reference.
//!
//! `TableRuntime` replaced its original scan-all-entries lookup with
//! per-kind indexes (per-length exact maps for LPM, a priority-sorted
//! vector for ternary, a sorted non-overlapping interval list for range).
//! These tests re-state the *semantics* as a direct linear scan — longest
//! prefix wins, ties to the latest install; highest priority wins, ties to
//! the latest install; ranges never overlap — and check the index against
//! it over randomized tables and probes.
//!
//! Inputs come from the simulator's own deterministic [`SimRng`] (the
//! offline build cannot fetch proptest), so any failure reproduces exactly
//! from the printed seed.

use adcp::lang::{
    ActionDef, Entry, FieldId, FieldRef, HeaderId, KeySpec, MatchKind, MatchValue, Region,
    TableDef, TableError, TableRuntime,
};
use adcp::sim::rng::SimRng;

const TABLES: usize = 24;
const ENTRIES: usize = 96;
const PROBES: usize = 256;
const KEY_BITS: u8 = 32;

fn def(kind: MatchKind) -> TableDef {
    def_bits(kind, KEY_BITS)
}

fn def_bits(kind: MatchKind, bits: u8) -> TableDef {
    TableDef {
        name: "t".into(),
        region: Region::Ingress,
        key: Some(KeySpec {
            field: FieldRef::new(HeaderId(0), FieldId(0)),
            kind,
            bits,
        }),
        actions: vec![ActionDef::nop()],
        default_action: 0,
        default_params: vec![],
        size: 8192,
    }
}

/// Tag entries through `params[0]` so a lookup result identifies which
/// installed entry won.
fn entry(value: MatchValue, tag: u64) -> Entry {
    Entry {
        value,
        action: 0,
        params: vec![tag],
    }
}

fn lpm_matches(bits: u8, key: u64, value: u64, len: u8) -> bool {
    if len == 0 {
        return true;
    }
    if len >= bits {
        return key == value;
    }
    (key >> (bits - len)) == (value >> (bits - len))
}

/// Longest prefix wins; among matches of equal length (necessarily the
/// same prefix) the latest install wins — scanned linearly over the full
/// install history, which is exactly what the indexed table's
/// replace-on-reinstall must reproduce.
fn lpm_reference(bits: u8, history: &[(u64, u8, u64)], key: u64) -> Option<u64> {
    let mut best: Option<(u8, u64)> = None;
    for &(value, len, tag) in history {
        if lpm_matches(bits, key, value, len) && best.map(|(l, _)| len >= l).unwrap_or(true) {
            best = Some((len, tag));
        }
    }
    best.map(|(_, tag)| tag)
}

#[test]
fn lpm_index_matches_linear_reference() {
    let mut rng = SimRng::seed_from(0x1B31);
    for case in 0..TABLES {
        let d = def(MatchKind::Lpm);
        let mut rt = TableRuntime::new(&d);
        let mut history: Vec<(u64, u8, u64)> = Vec::new();
        for i in 0..ENTRIES {
            // Cluster prefixes into a small value space so probes hit, and
            // force plenty of equal-(len, prefix) reinstalls and
            // equal-length ties.
            let value = (rng.range(0u64..32) << 27) | (rng.u64() & 0x07FF_FFFF);
            let len = rng.range(0u8..=KEY_BITS);
            rt.insert(&d, entry(MatchValue::Lpm { value, len }, i as u64))
                .unwrap();
            history.push((value & 0xFFFF_FFFF, len, i as u64));
        }
        for _ in 0..PROBES {
            // Half the probes reuse an installed prefix with a random
            // suffix (guaranteed matches); half are uniform.
            let key = if rng.chance(0.5) {
                let (value, len, _) = history[rng.index(history.len())];
                let suffix_bits = KEY_BITS - len.min(KEY_BITS);
                let mask = if suffix_bits >= 64 {
                    u64::MAX
                } else {
                    (1u64 << suffix_bits) - 1
                };
                (value & !mask) | (rng.u64() & mask)
            } else {
                rng.u64() & 0xFFFF_FFFF
            };
            let got = rt.lookup(key).map(|e| e.params[0]);
            let want = lpm_reference(KEY_BITS, &history, key);
            assert_eq!(got, want, "case {case}, key {key:#x}");
        }
    }
}

fn ternary_matches(key: u64, value: u64, mask: u64) -> bool {
    key & mask == value & mask
}

/// Highest priority wins; among equal-priority matches the latest install
/// wins (`>=` keeps the later entry on ties during the forward scan).
fn ternary_reference(history: &[(u64, u64, u16, u64)], key: u64) -> Option<u64> {
    let mut best: Option<(u16, u64)> = None;
    for &(value, mask, priority, tag) in history {
        if ternary_matches(key, value, mask) && best.map(|(p, _)| priority >= p).unwrap_or(true) {
            best = Some((priority, tag));
        }
    }
    best.map(|(_, tag)| tag)
}

#[test]
fn ternary_index_matches_linear_reference() {
    let mut rng = SimRng::seed_from(0x7E43);
    for case in 0..TABLES {
        let d = def(MatchKind::Ternary);
        let mut rt = TableRuntime::new(&d);
        let mut history: Vec<(u64, u64, u16, u64)> = Vec::new();
        for i in 0..ENTRIES {
            let value = rng.u64() & 0xFFFF_FFFF;
            // Coarse masks so distinct entries overlap, and only 4
            // priority levels so ties are the common case.
            let mask = match rng.index(4) {
                0 => 0xFFFF_0000,
                1 => 0xFF00_FF00,
                2 => 0x0000_FFFF,
                _ => 0xFFFF_FFFF,
            };
            let priority = rng.range(0u16..4);
            rt.insert(
                &d,
                entry(
                    MatchValue::Ternary {
                        value,
                        mask,
                        priority,
                    },
                    i as u64,
                ),
            )
            .unwrap();
            history.push((value, mask, priority, i as u64));
        }
        for _ in 0..PROBES {
            let key = if rng.chance(0.5) {
                // Agree with an installed entry on its masked bits.
                let (value, mask, _, _) = history[rng.index(history.len())];
                (value & mask) | (rng.u64() & !mask & 0xFFFF_FFFF)
            } else {
                rng.u64() & 0xFFFF_FFFF
            };
            let got = rt.lookup(key).map(|e| e.params[0]);
            let want = ternary_reference(&history, key);
            assert_eq!(got, want, "case {case}, key {key:#x}");
        }
    }
}

#[test]
fn range_index_matches_linear_reference_and_rejects_overlap() {
    let mut rng = SimRng::seed_from(0x4A6E);
    for case in 0..TABLES {
        let d = def(MatchKind::Range);
        let mut rt = TableRuntime::new(&d);
        let mut accepted: Vec<(u64, u64, u64)> = Vec::new();
        for i in 0..ENTRIES {
            let lo = rng.range(0u64..20_000);
            let hi = lo + rng.range(0u64..200);
            let overlaps = accepted.iter().any(|&(alo, ahi, _)| lo <= ahi && alo <= hi);
            match rt.insert(&d, entry(MatchValue::Range { lo, hi }, i as u64)) {
                Ok(()) => {
                    assert!(
                        !overlaps,
                        "case {case}: [{lo}, {hi}] accepted but overlaps {accepted:?}"
                    );
                    accepted.push((lo, hi, i as u64));
                }
                Err(TableError::Overlap { .. }) => {
                    assert!(overlaps, "case {case}: [{lo}, {hi}] rejected but disjoint");
                }
                Err(e) => panic!("case {case}: unexpected error {e:?}"),
            }
        }
        for _ in 0..PROBES {
            let key = rng.range(0u64..21_000);
            let got = rt.lookup(key).map(|e| e.params[0]);
            let want = accepted
                .iter()
                .find(|&&(lo, hi, _)| lo <= key && key <= hi)
                .map(|&(_, _, tag)| tag);
            assert_eq!(got, want, "case {case}, key {key}");
        }
    }
}

/// The exact-match index is a plain hash map; pin its reject-duplicates
/// install semantics alongside the others for completeness.
#[test]
fn exact_index_matches_linear_reference() {
    let mut rng = SimRng::seed_from(0xE4AC);
    for case in 0..TABLES {
        let d = def(MatchKind::Exact);
        let mut rt = TableRuntime::new(&d);
        let mut accepted: Vec<(u64, u64)> = Vec::new();
        for i in 0..ENTRIES {
            // Small key space: duplicate installs are the common case.
            let value = rng.range(0u64..64);
            let dup = accepted.iter().any(|&(v, _)| v == value);
            match rt.insert(&d, entry(MatchValue::Exact(value), i as u64)) {
                Ok(()) => {
                    assert!(!dup, "case {case}: key {value} accepted twice");
                    accepted.push((value, i as u64));
                }
                Err(TableError::Duplicate) => {
                    assert!(dup, "case {case}: fresh key {value} rejected");
                }
                Err(e) => panic!("case {case}: unexpected error {e:?}"),
            }
        }
        for _ in 0..PROBES {
            let key = rng.range(0u64..96);
            let got = rt.lookup(key).map(|e| e.params[0]);
            let want = accepted
                .iter()
                .find(|&&(v, _)| v == key)
                .map(|&(_, tag)| tag);
            assert_eq!(got, want, "case {case}, key {key}");
        }
    }
}

type Family = (&'static str, fn(u64) -> u64);

/// Structured key families: keys that differ only in a few bits, at the
/// bottom, the middle or the top of the word, which is where a weak hash
/// function collides. The exact and LPM indexes must still answer like the
/// linear model over 64-bit keys.
const FAMILIES: [Family; 6] = [
    ("sequential", |k| k),
    ("k << 16", |k| k << 16),
    ("k << 32", |k| k << 32),
    ("k << 48", |k| k << 48),
    ("high bits only", |k| (1 << 63) | (k << 47)),
    ("k * 1000", |k| k * 1000),
];

#[test]
fn exact_index_matches_model_on_structured_keys() {
    const INSTALLED: u64 = 4096;
    for (name, key) in FAMILIES {
        let d = def_bits(MatchKind::Exact, 64);
        let mut rt = TableRuntime::new(&d);
        for k in 0..INSTALLED {
            rt.insert(&d, entry(MatchValue::Exact(key(k)), k)).unwrap();
        }
        assert_eq!(
            rt.insert(&d, entry(MatchValue::Exact(key(7)), 0)),
            Err(TableError::Duplicate),
            "{name}"
        );
        assert_eq!(rt.len() as u64, INSTALLED, "{name}");
        for k in 0..2 * INSTALLED {
            let got = rt.lookup(key(k)).map(|e| e.params[0]);
            let want = (k < INSTALLED).then_some(k);
            assert_eq!(got, want, "{name}, k {k}");
        }
    }
}

#[test]
fn lpm_index_matches_model_on_structured_keys() {
    const INSTALLED: u64 = 1024;
    const LENS: [u8; 5] = [64, 48, 32, 16, 8];
    for (name, key) in FAMILIES {
        let d = def_bits(MatchKind::Lpm, 64);
        let mut rt = TableRuntime::new(&d);
        let mut history: Vec<(u64, u8, u64)> = Vec::new();
        for k in 0..INSTALLED {
            let (value, len) = (key(k), LENS[k as usize % LENS.len()]);
            rt.insert(&d, entry(MatchValue::Lpm { value, len }, k))
                .unwrap();
            history.push((value, len, k));
        }
        for k in 0..2 * INSTALLED {
            for probe in [key(k), key(k) ^ 1, key(k) ^ (1 << 40)] {
                let got = rt.lookup(probe).map(|e| e.params[0]);
                let want = lpm_reference(64, &history, probe);
                assert_eq!(got, want, "{name}, probe {probe:#x}");
            }
        }
    }
}
