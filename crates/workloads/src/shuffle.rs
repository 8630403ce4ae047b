//! Database analytics workloads: filter–aggregate–reshuffle.
//!
//! Table 1's database row: "servers with local storage engage in a pattern
//! of filter-aggregate-reshuffle of data to solve queries over large
//! amounts of data in parallel". A [`ShuffleWorkload`] synthesizes the
//! mapper-side row streams: each mapper emits `(key, value)` rows; a
//! filter keeps a configurable fraction; rows are destined to the reducer
//! that owns the key's hash partition. Group-by sums per key are known in
//! closed form for verification.

use adcp_sim::rng::SimRng;

use crate::keys::ZipfKeys;

/// One row a mapper emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    /// Mapper that produced it.
    pub mapper: u32,
    /// Group-by key.
    pub key: u64,
    /// Value (the aggregand).
    pub value: u64,
    /// Whether the filter keeps this row.
    pub keep: bool,
}

/// A synthetic distributed group-by query.
#[derive(Debug, Clone)]
pub struct ShuffleWorkload {
    /// Number of mapper servers.
    pub mappers: u32,
    /// Number of reducer servers.
    pub reducers: u32,
    /// Rows each mapper scans.
    pub rows_per_mapper: u32,
    /// Filter selectivity in `[0, 1]` (fraction kept).
    pub selectivity: f64,
    /// Distinct group-by keys.
    pub distinct_keys: usize,
    /// Key skew (Zipf exponent).
    pub skew: f64,
}

impl ShuffleWorkload {
    /// Generate every mapper's row stream. Deterministic for a given rng.
    pub fn generate(&self, rng: &mut SimRng) -> Vec<Row> {
        let keys = ZipfKeys::new(self.distinct_keys, self.skew);
        let mut rows = Vec::with_capacity((self.mappers * self.rows_per_mapper) as usize);
        for m in 0..self.mappers {
            for _ in 0..self.rows_per_mapper {
                let key = keys.sample(rng);
                let value = rng.range(1..1000u64);
                let keep = rng.chance(self.selectivity);
                rows.push(Row {
                    mapper: m,
                    key,
                    value,
                    keep,
                });
            }
        }
        rows
    }

    /// The correct group-by sums over the kept rows (reference answer).
    pub fn reference_sums(rows: &[Row]) -> std::collections::HashMap<u64, u64> {
        let mut out = std::collections::HashMap::new();
        for r in rows.iter().filter(|r| r.keep) {
            *out.entry(r.key).or_insert(0) += r.value;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wl() -> ShuffleWorkload {
        ShuffleWorkload {
            mappers: 4,
            reducers: 3,
            rows_per_mapper: 1000,
            selectivity: 0.5,
            distinct_keys: 64,
            skew: 0.9,
        }
    }

    #[test]
    fn generates_expected_row_count() {
        let mut r = SimRng::seed_from(1);
        let rows = wl().generate(&mut r);
        assert_eq!(rows.len(), 4000);
        let kept = rows.iter().filter(|r| r.keep).count() as f64 / 4000.0;
        assert!((0.45..0.55).contains(&kept), "selectivity = {kept}");
    }

    #[test]
    fn reference_sums_only_count_kept_rows() {
        let rows = vec![
            Row {
                mapper: 0,
                key: 1,
                value: 10,
                keep: true,
            },
            Row {
                mapper: 1,
                key: 1,
                value: 5,
                keep: false,
            },
            Row {
                mapper: 2,
                key: 1,
                value: 7,
                keep: true,
            },
            Row {
                mapper: 0,
                key: 2,
                value: 3,
                keep: true,
            },
        ];
        let sums = ShuffleWorkload::reference_sums(&rows);
        assert_eq!(sums[&1], 17);
        assert_eq!(sums[&2], 3);
        assert_eq!(sums.len(), 2);
    }

    #[test]
    fn skewed_keys_concentrate() {
        let mut r = SimRng::seed_from(2);
        let rows = wl().generate(&mut r);
        let mut counts = vec![0u32; 64];
        for row in &rows {
            counts[row.key as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(
            max > 10 * min.max(1),
            "skew not visible: max={max} min={min}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let gen = |seed| {
            let mut r = SimRng::seed_from(seed);
            wl().generate(&mut r)
        };
        assert_eq!(gen(7), gen(7));
        assert_ne!(gen(7), gen(8));
    }
}
