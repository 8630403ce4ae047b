//! Match-action tables: definitions and runtime storage.
//!
//! A [`TableDef`] declares the match key, the candidate actions, and the
//! capacity; a [`TableRuntime`] holds the installed entries. A table keyed
//! on an **array field** performs one lookup per element ("lane"); whether
//! that costs one table copy per lane (RMT, Fig. 3) or one shared copy
//! across interconnected MAU memories (ADCP, Fig. 6) is decided by the
//! compiler, not here — the runtime semantics are identical.

use crate::action::ActionDef;
use crate::header::FieldRef;
use serde::Serialize;
use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The hasher of the exact and LPM indexes: the splitmix64 finalizer over
/// the `u64` key, two xor-shift-multiply rounds. Keys come from the
/// simulator's own generators and control-plane installs, never from an
/// adversary, so a fixed function replaces SipHash's per-map random keys.
/// It must spread low and high key bits alike: hashbrown takes the bucket
/// from the low bits and the control tag from the top seven, and keys like
/// `k << 32` differ only in bits a single multiply leaves unmixed below.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("the indexes are keyed by u64, hashed through write_u64")
    }

    fn write_u64(&mut self, k: u64) {
        self.0 ^= k;
    }

    fn finish(&self) -> u64 {
        let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// An exact-match index from key to entry.
type KeyMap = HashMap<u64, Entry, BuildHasherDefault<KeyHasher>>;

/// Which pipeline region a table executes in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum Region {
    /// Ingress pipelines (before the first TM).
    Ingress,
    /// Central pipelines — the ADCP global partitioned area (§3.1).
    /// On RMT targets the compiler must lower these tables somewhere else.
    Central,
    /// Egress pipelines (after the last TM).
    Egress,
}

/// How keys are matched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum MatchKind {
    /// Exact match (hash table in hardware).
    Exact,
    /// Longest-prefix match.
    Lpm,
    /// Value/mask with priority (TCAM).
    Ternary,
    /// Inclusive range match.
    Range,
}

/// The match key of a table.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct KeySpec {
    /// Field the key is read from. If it is an array field, the table is an
    /// array table and matches every element (one lane each).
    pub field: FieldRef,
    /// Match discipline.
    pub kind: MatchKind,
    /// Width of the key in bits (must equal the field element width).
    pub bits: u8,
}

/// A table declaration.
#[derive(Debug, Clone, Serialize)]
pub struct TableDef {
    /// Human-readable name.
    pub name: String,
    /// Region this table executes in.
    pub region: Region,
    /// Match key; `None` makes this an unconditional action stage (the
    /// default action always runs — used for pure compute steps).
    pub key: Option<KeySpec>,
    /// Candidate actions; entries refer to them by index.
    pub actions: Vec<ActionDef>,
    /// Action index executed on a miss (or always, for keyless tables).
    pub default_action: usize,
    /// Action-data parameters for the default action.
    pub default_params: Vec<u64>,
    /// Capacity in entries.
    pub size: u32,
}

impl TableDef {
    /// Estimated bits per installed entry: key bits plus action-selector and
    /// action-data overhead. This is the quantity that gets multiplied by
    /// the replication factor on RMT (Fig. 3).
    pub fn entry_bits(&self) -> u32 {
        let key_bits = self.key.map(|k| k.bits as u32).unwrap_or(0);
        // Match kind overhead: ternary stores a mask (2× key), LPM a length.
        let match_overhead = match self.key.map(|k| k.kind) {
            Some(MatchKind::Ternary) => key_bits,
            Some(MatchKind::Range) => key_bits, // second bound
            Some(MatchKind::Lpm) => 8,
            _ => 0,
        };
        // Action selector + 2 × 32b action data words, a typical budget.
        key_bits + match_overhead + 8 + 64
    }

    /// Total memory footprint of one copy of this table, in bits.
    pub fn mem_bits(&self) -> u64 {
        self.entry_bits() as u64 * self.size as u64
    }
}

/// The key pattern of one installed entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum MatchValue {
    /// Exact value.
    Exact(u64),
    /// Prefix of `len` bits (counted from the MSB of the key width).
    Lpm {
        /// Prefix value (low bits beyond `len` ignored).
        value: u64,
        /// Prefix length in bits.
        len: u8,
    },
    /// Value/mask with priority (higher wins).
    Ternary {
        /// Pattern.
        value: u64,
        /// Care mask (1 = must match).
        mask: u64,
        /// Priority; ties broken by insertion order.
        priority: u16,
    },
    /// Inclusive range.
    Range {
        /// Low bound.
        lo: u64,
        /// High bound.
        hi: u64,
    },
}

/// An installed entry: a key pattern bound to an action and its data.
#[derive(Debug, Clone, Serialize)]
pub struct Entry {
    /// Key pattern.
    pub value: MatchValue,
    /// Index into the table's action list.
    pub action: usize,
    /// Action-data parameters (`Operand::Param(i)`).
    pub params: Vec<u64>,
}

/// Errors installing entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// The table is at capacity.
    Full {
        /// Capacity in entries.
        capacity: u32,
    },
    /// Entry kind does not match the table's declared `MatchKind`.
    KindMismatch,
    /// Action index out of range.
    BadAction {
        /// The offending index.
        action: usize,
    },
    /// A duplicate exact key.
    Duplicate,
    /// A range entry overlapping an already-installed interval. Ranges are
    /// kept in a sorted index; overlap would make "which entry wins"
    /// insertion-order dependent, so it is rejected at install time.
    Overlap {
        /// Low bound of the conflicting installed interval.
        lo: u64,
        /// High bound of the conflicting installed interval.
        hi: u64,
    },
    /// A control-plane call addressed a pipeline the target does not have
    /// (e.g. `install_central_at` beyond the central-pipe count).
    NoSuchPipe {
        /// The requested pipeline index.
        pipe: usize,
        /// How many pipelines of that kind exist.
        have: usize,
    },
}

/// Runtime storage for one table in one pipeline.
///
/// Entries are held in per-kind **indexes** rather than a linear scan list:
///
/// * Exact — a hash map keyed on the value, under the fixed `KeyHasher`.
/// * LPM — one exact map per installed prefix length, probed
///   longest-length-first; the first probe that hits is the longest match.
///   Re-installing an identical prefix replaces the previous entry.
/// * Ternary — entries sorted by (priority descending, insertion order
///   descending), scanned with first-match early exit, so the winner is
///   found without visiting lower-priority entries.
/// * Range — intervals sorted by low bound and validated non-overlapping at
///   install, so one `partition_point` binary search answers a lookup.
///
/// `lookup` takes `&self`; the hit/lookup counters live in [`Cell`]s so a
/// returned entry can borrow the table while stats still accumulate.
#[derive(Debug, Clone)]
pub struct TableRuntime {
    kind: Option<MatchKind>,
    key_bits: u8,
    capacity: u32,
    exact: KeyMap,
    /// LPM index: (prefix length, normalized-prefix → entry), kept sorted by
    /// length descending so probes go longest-first.
    lpm: Vec<(u8, KeyMap)>,
    /// Ternary index: (priority, insertion sequence, entry), sorted by
    /// (priority, sequence) descending. Later installs win priority ties.
    ternary: Vec<(u16, u64, Entry)>,
    ternary_seq: u64,
    /// Range index: non-overlapping intervals sorted by low bound.
    range: Vec<(u64, u64, Entry)>,
    /// Lookups performed (lanes count individually).
    lookups: Cell<u64>,
    /// Lookups that hit an installed entry.
    hits: Cell<u64>,
}

impl TableRuntime {
    /// Empty runtime for a definition.
    pub fn new(def: &TableDef) -> Self {
        TableRuntime {
            kind: def.key.map(|k| k.kind),
            key_bits: def.key.map(|k| k.bits).unwrap_or(0),
            capacity: def.size,
            exact: KeyMap::default(),
            lpm: Vec::new(),
            ternary: Vec::new(),
            ternary_seq: 0,
            range: Vec::new(),
            lookups: Cell::new(0),
            hits: Cell::new(0),
        }
    }

    /// Number of installed entries.
    pub fn len(&self) -> usize {
        self.exact.len()
            + self.lpm.iter().map(|(_, m)| m.len()).sum::<usize>()
            + self.ternary.len()
            + self.range.len()
    }

    /// True when no entries are installed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bucket key an LPM entry/lookup uses for a given prefix length:
    /// the prefix bits only, so entries whose don't-care bits differ still
    /// land on the same slot.
    fn lpm_bucket_key(&self, value: u64, len: u8) -> u64 {
        let w = self.key_bits as u32;
        let len = len as u32;
        if len == 0 {
            0
        } else if len >= w {
            value
        } else {
            value >> (w - len)
        }
    }

    /// Install an entry, validating kind, capacity, and action index
    /// against the definition.
    pub fn insert(&mut self, def: &TableDef, e: Entry) -> Result<(), TableError> {
        if self.len() as u32 >= self.capacity {
            return Err(TableError::Full {
                capacity: self.capacity,
            });
        }
        if e.action >= def.actions.len() {
            return Err(TableError::BadAction { action: e.action });
        }
        let kind_ok = matches!(
            (self.kind, &e.value),
            (Some(MatchKind::Exact), MatchValue::Exact(_))
                | (Some(MatchKind::Lpm), MatchValue::Lpm { .. })
                | (Some(MatchKind::Ternary), MatchValue::Ternary { .. })
                | (Some(MatchKind::Range), MatchValue::Range { .. })
        );
        if !kind_ok {
            return Err(TableError::KindMismatch);
        }
        match e.value {
            MatchValue::Exact(k) => {
                if self.exact.contains_key(&k) {
                    return Err(TableError::Duplicate);
                }
                self.exact.insert(k, e);
            }
            MatchValue::Lpm { value, len } => {
                let bk = self.lpm_bucket_key(value, len);
                match self.lpm.iter_mut().find(|(l, _)| *l == len) {
                    Some((_, m)) => {
                        m.insert(bk, e);
                    }
                    None => {
                        let mut m = KeyMap::default();
                        m.insert(bk, e);
                        // Keep lengths sorted descending: probe order is
                        // longest-first, so the first hit is the answer.
                        let pos = self.lpm.partition_point(|(l, _)| *l > len);
                        self.lpm.insert(pos, (len, m));
                    }
                }
            }
            MatchValue::Ternary { priority, .. } => {
                let seq = self.ternary_seq;
                self.ternary_seq += 1;
                // Sorted by (priority, seq) descending; later installs win
                // priority ties (matching the old last-max-wins scan).
                let pos = self
                    .ternary
                    .partition_point(|(p, s, _)| (*p, *s) > (priority, seq));
                self.ternary.insert(pos, (priority, seq, e));
            }
            MatchValue::Range { lo, hi } => {
                let pos = self.range.partition_point(|(l, _, _)| *l < lo);
                // Overlap check against both neighbors in the sorted order.
                if let Some(&(plo, phi, _)) = pos.checked_sub(1).and_then(|i| self.range.get(i)) {
                    if phi >= lo {
                        return Err(TableError::Overlap { lo: plo, hi: phi });
                    }
                }
                if let Some(&(nlo, nhi, _)) = self.range.get(pos) {
                    if nlo <= hi {
                        return Err(TableError::Overlap { lo: nlo, hi: nhi });
                    }
                }
                self.range.insert(pos, (lo, hi, e));
            }
        }
        Ok(())
    }

    /// Look up one key (one lane). Returns the winning entry, if any.
    pub fn lookup(&self, key: u64) -> Option<&Entry> {
        self.lookups.set(self.lookups.get() + 1);
        let kind = self.kind?;
        let found: Option<&Entry> = match kind {
            MatchKind::Exact => self.exact.get(&key),
            MatchKind::Lpm => self
                .lpm
                .iter()
                .find_map(|(len, m)| m.get(&self.lpm_bucket_key(key, *len))),
            MatchKind::Ternary => self.ternary.iter().find_map(|(_, _, e)| match e.value {
                MatchValue::Ternary { value, mask, .. } if key & mask == value & mask => Some(e),
                _ => None,
            }),
            MatchKind::Range => {
                let i = self.range.partition_point(|(lo, _, _)| *lo <= key);
                i.checked_sub(1)
                    .and_then(|i| self.range.get(i))
                    .filter(|(_, hi, _)| *hi >= key)
                    .map(|(_, _, e)| e)
            }
        };
        if found.is_some() {
            self.hits.set(self.hits.get() + 1);
        }
        found
    }

    /// Lookups performed so far (lanes count individually).
    pub fn lookups(&self) -> u64 {
        self.lookups.get()
    }

    /// Lookups that hit an installed entry.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Hit fraction over all lookups so far.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups.get() == 0 {
            0.0
        } else {
            self.hits.get() as f64 / self.lookups.get() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::{FieldId, HeaderId};

    fn def(kind: MatchKind, size: u32) -> TableDef {
        TableDef {
            name: "t".into(),
            region: Region::Ingress,
            key: Some(KeySpec {
                field: FieldRef::new(HeaderId(0), FieldId(0)),
                kind,
                bits: 32,
            }),
            actions: vec![ActionDef::nop(), ActionDef::nop()],
            default_action: 0,
            default_params: vec![],
            size,
        }
    }

    fn entry(v: MatchValue, action: usize) -> Entry {
        Entry {
            value: v,
            action,
            params: vec![],
        }
    }

    #[test]
    fn exact_match_hits_and_misses() {
        let d = def(MatchKind::Exact, 8);
        let mut t = TableRuntime::new(&d);
        t.insert(&d, entry(MatchValue::Exact(42), 1)).unwrap();
        assert_eq!(t.lookup(42).map(|e| e.action), Some(1));
        assert!(t.lookup(43).is_none());
        assert_eq!(t.lookups(), 2);
        assert_eq!(t.hits(), 1);
        assert!((t.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn capacity_enforced() {
        let d = def(MatchKind::Exact, 2);
        let mut t = TableRuntime::new(&d);
        t.insert(&d, entry(MatchValue::Exact(1), 0)).unwrap();
        t.insert(&d, entry(MatchValue::Exact(2), 0)).unwrap();
        assert_eq!(
            t.insert(&d, entry(MatchValue::Exact(3), 0)),
            Err(TableError::Full { capacity: 2 })
        );
    }

    #[test]
    fn duplicates_and_bad_actions_rejected() {
        let d = def(MatchKind::Exact, 8);
        let mut t = TableRuntime::new(&d);
        t.insert(&d, entry(MatchValue::Exact(1), 0)).unwrap();
        assert_eq!(
            t.insert(&d, entry(MatchValue::Exact(1), 0)),
            Err(TableError::Duplicate)
        );
        assert_eq!(
            t.insert(&d, entry(MatchValue::Exact(2), 7)),
            Err(TableError::BadAction { action: 7 })
        );
        assert_eq!(
            t.insert(&d, entry(MatchValue::Lpm { value: 0, len: 8 }, 0)),
            Err(TableError::KindMismatch)
        );
    }

    #[test]
    fn lpm_prefers_longest_prefix() {
        let d = def(MatchKind::Lpm, 8);
        let mut t = TableRuntime::new(&d);
        // 10.0.0.0/8 -> action 0; 10.1.0.0/16 -> action 1.
        t.insert(
            &d,
            entry(
                MatchValue::Lpm {
                    value: 0x0A00_0000,
                    len: 8,
                },
                0,
            ),
        )
        .unwrap();
        t.insert(
            &d,
            entry(
                MatchValue::Lpm {
                    value: 0x0A01_0000,
                    len: 16,
                },
                1,
            ),
        )
        .unwrap();
        assert_eq!(t.lookup(0x0A01_0203).map(|e| e.action), Some(1));
        assert_eq!(t.lookup(0x0A02_0000).map(|e| e.action), Some(0));
        assert!(t.lookup(0x0B00_0000).is_none());
    }

    #[test]
    fn lpm_default_route_len_zero() {
        let d = def(MatchKind::Lpm, 8);
        let mut t = TableRuntime::new(&d);
        t.insert(&d, entry(MatchValue::Lpm { value: 0, len: 0 }, 1))
            .unwrap();
        assert_eq!(t.lookup(0xFFFF_FFFF).map(|e| e.action), Some(1));
    }

    #[test]
    fn ternary_respects_priority() {
        let d = def(MatchKind::Ternary, 8);
        let mut t = TableRuntime::new(&d);
        t.insert(
            &d,
            entry(
                MatchValue::Ternary {
                    value: 0x10,
                    mask: 0xF0,
                    priority: 1,
                },
                0,
            ),
        )
        .unwrap();
        t.insert(
            &d,
            entry(
                MatchValue::Ternary {
                    value: 0x12,
                    mask: 0xFF,
                    priority: 9,
                },
                1,
            ),
        )
        .unwrap();
        assert_eq!(t.lookup(0x12).map(|e| e.action), Some(1), "higher priority");
        assert_eq!(t.lookup(0x15).map(|e| e.action), Some(0));
        assert!(t.lookup(0x25).is_none());
    }

    #[test]
    fn range_match_inclusive() {
        let d = def(MatchKind::Range, 8);
        let mut t = TableRuntime::new(&d);
        t.insert(&d, entry(MatchValue::Range { lo: 10, hi: 20 }, 1))
            .unwrap();
        assert!(t.lookup(9).is_none());
        assert_eq!(t.lookup(10).map(|e| e.action), Some(1));
        assert_eq!(t.lookup(20).map(|e| e.action), Some(1));
        assert!(t.lookup(21).is_none());
    }

    #[test]
    fn overlapping_ranges_rejected() {
        let d = def(MatchKind::Range, 8);
        let mut t = TableRuntime::new(&d);
        t.insert(&d, entry(MatchValue::Range { lo: 10, hi: 20 }, 0))
            .unwrap();
        t.insert(&d, entry(MatchValue::Range { lo: 30, hi: 40 }, 0))
            .unwrap();
        // Overlaps the first interval from either side, or spans both.
        for (lo, hi) in [(20, 25), (5, 10), (15, 18), (0, 100)] {
            assert!(
                matches!(
                    t.insert(&d, entry(MatchValue::Range { lo, hi }, 0)),
                    Err(TableError::Overlap { .. })
                ),
                "[{lo}, {hi}] should be rejected"
            );
        }
        // Touching but disjoint is fine.
        t.insert(&d, entry(MatchValue::Range { lo: 21, hi: 29 }, 0))
            .unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.lookup(25).map(|e| e.action), Some(0));
    }

    #[test]
    fn lpm_equal_length_reinstall_replaces() {
        let d = def(MatchKind::Lpm, 8);
        let mut t = TableRuntime::new(&d);
        // Same /8 prefix (don't-care bits differ): the second install
        // replaces the first, mirroring the old scan's last-wins tie-break.
        t.insert(
            &d,
            entry(
                MatchValue::Lpm {
                    value: 0x0A00_0000,
                    len: 8,
                },
                0,
            ),
        )
        .unwrap();
        t.insert(
            &d,
            entry(
                MatchValue::Lpm {
                    value: 0x0A00_0001,
                    len: 8,
                },
                1,
            ),
        )
        .unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(0x0A33_4455).map(|e| e.action), Some(1));
    }

    /// hashbrown indexes buckets with the hash's low bits and tags them
    /// with its top seven. For structured key families, 2¹⁶ keys must fill
    /// at least 55 % of 2¹⁶ low-16-bit values (a random function fills
    /// 63 %) and reach all 128 tags.
    #[test]
    fn key_hasher_spreads_structured_keys() {
        use std::hash::BuildHasher;
        type Family = (&'static str, fn(u64) -> u64);
        let families: [Family; 6] = [
            ("sequential", |k| k),
            ("k << 16", |k| k << 16),
            ("k << 32", |k| k << 32),
            ("k << 48", |k| k << 48),
            ("high bits only", |k| (1 << 63) | (k << 47)),
            ("k * 1000", |k| k * 1000),
        ];
        let build = BuildHasherDefault::<KeyHasher>::default();
        for (name, key) in families {
            let mut low = vec![false; 1 << 16];
            let mut tags = [false; 128];
            for k in 0..1u64 << 16 {
                let h = build.hash_one(key(k));
                low[(h & 0xFFFF) as usize] = true;
                tags[(h >> 57) as usize] = true;
            }
            let distinct = low.iter().filter(|&&b| b).count();
            assert!(
                distinct * 100 >= 55 << 16,
                "{name}: {distinct} distinct low-16-bit hashes"
            );
            assert!(tags.iter().all(|&b| b), "{name}: a top-7-bit tag unused");
        }
    }

    #[test]
    fn entry_bits_accounting() {
        let exact = def(MatchKind::Exact, 1024);
        assert_eq!(exact.entry_bits(), 32 + 8 + 64);
        let ternary = def(MatchKind::Ternary, 1024);
        assert_eq!(ternary.entry_bits(), 32 + 32 + 8 + 64);
        assert_eq!(exact.mem_bits(), 104 * 1024);
    }
}
