//! Stateful register files.
//!
//! Registers are the "stateful processing" of the paper's §1: data lifted
//! from prior packets that later packets can read and modify. In RMT each
//! register array lives in one stage and a packet gets **one**
//! read-modify-write per register (the stateful-ALU constraint); the ADCP
//! array MAU relaxes this to one RMW *per lane*, i.e. a width-w array op
//! performs w independent RMWs on consecutive cells (§3.2).

use serde::Serialize;
use std::ops::Range;

/// Identifies a register array declared by a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct RegId(pub u16);

/// Declaration of a register array.
#[derive(Debug, Clone, Serialize)]
pub struct RegisterDef {
    /// Human-readable name.
    pub name: String,
    /// Number of cells.
    pub entries: u32,
    /// Width of each cell in bits (1..=64); arithmetic wraps at this width.
    pub bits: u8,
}

impl RegisterDef {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, entries: u32, bits: u8) -> Self {
        assert!((1..=64).contains(&bits));
        assert!(entries > 0);
        RegisterDef {
            name: name.into(),
            entries,
            bits,
        }
    }

    /// Total storage in bits (counts against the stage register budget).
    pub fn total_bits(&self) -> u64 {
        self.entries as u64 * self.bits as u64
    }
}

/// Cells per lazily-allocated page. 4096 × 8 B = 32 KiB per resident page.
const PAGE_CELLS: usize = 4096;

/// Runtime instance of a register array (one per pipeline that hosts it —
/// pipelines are shared-nothing, which is exactly the Fig. 2 limitation).
///
/// Storage is paged and lazy: every `RegionState` of every pipeline
/// instantiates every program register, so a dense `Vec<u64>` would cost
/// `cells × 8 B × pipelines × regions` up front — ~80 MB per instance at
/// the 10⁷-flow scale. Pages materialize on first write; untouched cells
/// read as zero, which is also their architectural reset value.
#[derive(Debug, Clone)]
pub struct RegisterFile {
    pages: Vec<Option<Box<[u64; PAGE_CELLS]>>>,
    len: usize,
    bits: u8,
    /// Total single-cell read-modify-write operations performed.
    pub ops: u64,
}

/// The read-modify-write operations a stateful ALU supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum RegAluOp {
    /// `cell = value`.
    Write,
    /// `cell += value` (wrapping at cell width).
    Add,
    /// `cell = max(cell, value)`.
    Max,
    /// `cell = min(cell, value)`.
    Min,
}

impl RegisterFile {
    /// Zero-initialized instance of a definition. Allocates only the page
    /// table (one pointer-sized slot per 4096 cells); no cell storage.
    pub fn new(def: &RegisterDef) -> Self {
        let len = def.entries as usize;
        RegisterFile {
            pages: vec![None; len.div_ceil(PAGE_CELLS)],
            len,
            bits: def.bits,
            ops: 0,
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the file has no cells (cannot happen via `RegisterDef`).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes of cell storage currently resident (allocated pages plus the
    /// page table). Lets tests assert the lazy layout holds: a fresh
    /// 10⁷-cell file costs ~20 KB of page table, not 80 MB of cells.
    pub fn resident_bytes(&self) -> usize {
        let pages = self.pages.iter().filter(|p| p.is_some()).count();
        pages * PAGE_CELLS * std::mem::size_of::<u64>()
            + self.pages.capacity() * std::mem::size_of::<Option<Box<[u64; PAGE_CELLS]>>>()
    }

    fn mask(&self, v: u64) -> u64 {
        if self.bits >= 64 {
            v
        } else {
            v & ((1u64 << self.bits) - 1)
        }
    }

    fn get(&self, idx: usize) -> u64 {
        if idx >= self.len {
            return 0;
        }
        match &self.pages[idx / PAGE_CELLS] {
            Some(p) => p[idx % PAGE_CELLS],
            None => 0,
        }
    }

    fn cell_mut(&mut self, idx: usize) -> &mut u64 {
        let page = self.pages[idx / PAGE_CELLS].get_or_insert_with(|| Box::new([0; PAGE_CELLS]));
        &mut page[idx % PAGE_CELLS]
    }

    /// Read a cell. Out-of-range indices read as 0 (and are counted as an
    /// op — hardware would wrap; we saturate to a benign value and let the
    /// program validator reject static out-of-range indices).
    pub fn read(&mut self, idx: u64) -> u64 {
        self.ops += 1;
        self.get(idx as usize)
    }

    /// Read without counting an op (stats/tests).
    pub fn peek(&self, idx: u64) -> u64 {
        self.get(idx as usize)
    }

    /// Perform a read-modify-write; returns the value the cell held
    /// *before* the operation (fetch-op semantics).
    pub fn rmw(&mut self, idx: u64, op: RegAluOp, value: u64) -> u64 {
        self.ops += 1;
        if idx as usize >= self.len {
            return 0;
        }
        let mask = if self.bits >= 64 {
            u64::MAX
        } else {
            (1u64 << self.bits) - 1
        };
        let c = self.cell_mut(idx as usize);
        let old = *c;
        let v = match op {
            RegAluOp::Write => value,
            RegAluOp::Add => old.wrapping_add(value),
            RegAluOp::Max => old.max(value),
            RegAluOp::Min => old.min(value),
        };
        *c = v & mask;
        old
    }

    /// Reset every cell to zero (control-plane operation between epochs).
    /// Drops all resident pages, returning the file to its fresh footprint.
    pub fn clear(&mut self) {
        self.pages.iter_mut().for_each(|p| *p = None);
    }

    /// Control-plane state migration: take one cell's value and zero the
    /// cell (the source side of a shard move). Unlike [`RegisterFile::rmw`]
    /// this is not a data-plane operation, so it does not count toward
    /// `ops`. Out-of-range indices extract 0.
    pub fn extract(&mut self, idx: usize) -> u64 {
        if idx >= self.len {
            return 0;
        }
        match &mut self.pages[idx / PAGE_CELLS] {
            Some(p) => std::mem::take(&mut p[idx % PAGE_CELLS]),
            None => 0,
        }
    }

    /// Control-plane state migration: set one cell to a previously
    /// extracted value (the destination side of a shard move). Masked to
    /// the cell width; does not count toward `ops`. Out-of-range indices
    /// are ignored. Restoring zero into an unallocated page stays lazy.
    pub fn restore(&mut self, idx: usize, value: u64) {
        let masked = self.mask(value);
        if idx >= self.len {
            return;
        }
        if masked == 0 && self.pages[idx / PAGE_CELLS].is_none() {
            return;
        }
        *self.cell_mut(idx) = masked;
    }

    /// Control-plane state migration: extract every cell selected by
    /// `select`, returning `(index, value)` pairs for the nonzero ones.
    /// Selected cells are zeroed; does not count toward `ops`. Only
    /// resident pages are visited, so the cost is O(occupied), not O(cells).
    pub fn drain(&mut self, mut select: impl FnMut(usize) -> bool) -> Vec<(usize, u64)> {
        let mut out = Vec::new();
        for (pi, page) in self.pages.iter_mut().enumerate() {
            let Some(p) = page else { continue };
            let base = pi * PAGE_CELLS;
            for (o, c) in p.iter_mut().enumerate() {
                if *c != 0 && select(base + o) {
                    out.push((base + o, std::mem::take(c)));
                }
            }
        }
        out
    }

    /// Snapshot of all cells (control-plane readout). Materializes a dense
    /// vector — intended for small registers and test assertions, not for
    /// million-cell files on the hot path.
    pub fn snapshot(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.len];
        for (pi, page) in self.pages.iter().enumerate() {
            let Some(p) = page else { continue };
            let base = pi * PAGE_CELLS;
            let n = PAGE_CELLS.min(self.len - base);
            out[base..base + n].copy_from_slice(&p[..n]);
        }
        out
    }

    /// Iterate the nonzero cells as `(index, value)` pairs, visiting only
    /// resident pages (control-plane readout at scale).
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.iter_resident(0..self.len).filter(|&(_, c)| c != 0)
    }

    /// Iterate the cells of `cells` (clipped to the file) that lie on
    /// resident pages, as `(index, value)` pairs in ascending order. A cell
    /// on an absent page reads zero and is skipped, so a scan costs one
    /// check per page plus the resident cells in range.
    pub fn iter_resident(&self, cells: Range<usize>) -> impl Iterator<Item = (usize, u64)> + '_ {
        let end = cells.end.min(self.len);
        let start = cells.start.min(end);
        (start / PAGE_CELLS..end.div_ceil(PAGE_CELLS)).flat_map(move |pi| {
            let base = pi * PAGE_CELLS;
            let span = start.max(base)..end.min(base + PAGE_CELLS);
            self.pages[pi]
                .iter()
                .flat_map(move |p| span.clone().map(move |i| (i, p[i - base])))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(entries: u32, bits: u8) -> RegisterFile {
        RegisterFile::new(&RegisterDef::new("r", entries, bits))
    }

    #[test]
    fn def_sizes() {
        let d = RegisterDef::new("agg", 1024, 32);
        assert_eq!(d.total_bits(), 32 * 1024);
    }

    #[test]
    fn rmw_semantics() {
        let mut f = file(8, 32);
        assert_eq!(f.rmw(3, RegAluOp::Write, 10), 0);
        assert_eq!(f.rmw(3, RegAluOp::Add, 5), 10);
        assert_eq!(f.peek(3), 15);
        assert_eq!(f.rmw(3, RegAluOp::Max, 7), 15);
        assert_eq!(f.peek(3), 15);
        assert_eq!(f.rmw(3, RegAluOp::Max, 99), 15);
        assert_eq!(f.peek(3), 99);
        assert_eq!(f.rmw(3, RegAluOp::Min, 50), 99);
        assert_eq!(f.peek(3), 50);
        assert_eq!(f.ops, 5);
    }

    #[test]
    fn arithmetic_wraps_at_cell_width() {
        let mut f = file(2, 8);
        f.rmw(0, RegAluOp::Write, 250);
        f.rmw(0, RegAluOp::Add, 10);
        assert_eq!(f.peek(0), (250 + 10) % 256);
        // Write is masked too.
        f.rmw(1, RegAluOp::Write, 0x1FF);
        assert_eq!(f.peek(1), 0xFF);
    }

    #[test]
    fn out_of_range_is_benign() {
        let mut f = file(4, 32);
        assert_eq!(f.read(99), 0);
        assert_eq!(f.rmw(99, RegAluOp::Add, 5), 0);
        assert_eq!(f.len(), 4);
        assert!(f.snapshot().iter().all(|&c| c == 0));
    }

    #[test]
    fn clear_resets() {
        let mut f = file(4, 64);
        for i in 0..4 {
            f.rmw(i, RegAluOp::Write, i + 1);
        }
        f.clear();
        assert!(f.snapshot().iter().all(|&c| c == 0));
    }

    #[test]
    fn extract_restore_round_trip() {
        let mut src = file(8, 32);
        let mut dst = file(8, 32);
        src.rmw(2, RegAluOp::Write, 7);
        src.rmw(5, RegAluOp::Write, 11);
        let ops_before = src.ops;
        let moved = src.drain(|i| i % 2 == 1);
        assert_eq!(moved, vec![(5, 11)]);
        assert_eq!(src.peek(5), 0, "drained cell is zeroed at the source");
        assert_eq!(src.peek(2), 7, "unselected cell untouched");
        for (i, v) in moved {
            dst.restore(i, v);
        }
        assert_eq!(dst.peek(5), 11);
        let v = src.extract(2);
        assert_eq!(v, 7);
        assert_eq!(src.peek(2), 0);
        dst.restore(2, v);
        assert_eq!(dst.peek(2), 7);
        assert_eq!(src.ops, ops_before, "migration is not a data-plane op");
        assert_eq!(dst.ops, 0, "restore is not a data-plane op");
        // Out-of-range moves are benign, like the data-plane accessors.
        assert_eq!(src.extract(99), 0);
        dst.restore(99, 5);
    }

    #[test]
    fn restore_masks_to_cell_width() {
        let mut f = file(2, 8);
        f.restore(0, 0x1FF);
        assert_eq!(f.peek(0), 0xFF);
    }

    #[test]
    fn full_width_cells() {
        let mut f = file(1, 64);
        f.rmw(0, RegAluOp::Write, u64::MAX);
        assert_eq!(f.peek(0), u64::MAX);
        f.rmw(0, RegAluOp::Add, 1);
        assert_eq!(f.peek(0), 0, "wraps at 64 bits");
    }

    #[test]
    fn ten_million_cells_allocate_lazily() {
        // A fresh 10⁷-cell file must cost page-table bytes (~20 KB), not
        // dense cell storage (80 MB) — the property that makes million-flow
        // register state affordable across every pipeline's RegionState.
        let mut f = file(10_000_000, 32);
        assert_eq!(f.len(), 10_000_000);
        let fresh = f.resident_bytes();
        assert!(
            fresh < 64 * 1024,
            "fresh footprint {fresh} B, want < 64 KiB"
        );
        // Touch a handful of scattered cells: one 32 KiB page each.
        for idx in [0u64, 5_000_000, 9_999_999] {
            f.rmw(idx, RegAluOp::Add, idx + 1);
        }
        assert_eq!(f.peek(5_000_000), 5_000_001);
        assert_eq!(f.peek(5_000_001), 0, "neighbors in a fresh page read 0");
        let touched = f.resident_bytes();
        assert!(
            touched < fresh + 4 * 32 * 1024,
            "3 touched pages cost {touched} B"
        );
        // clear() returns to the lazy footprint.
        f.clear();
        assert_eq!(f.resident_bytes(), fresh);
        assert_eq!(f.peek(5_000_000), 0);
    }

    #[test]
    fn paged_drain_and_snapshot_cross_page_boundaries() {
        let mut f = file(10_000, 32);
        // Straddle the page boundary at 4096.
        for idx in [4095u64, 4096, 8191, 8192, 9999] {
            f.rmw(idx, RegAluOp::Write, idx);
        }
        let snap = f.snapshot();
        assert_eq!(snap.len(), 10_000);
        assert_eq!(snap[4095], 4095);
        assert_eq!(snap[4096], 4096);
        assert_eq!(snap[9999], 9999);
        assert_eq!(snap.iter().filter(|&&c| c != 0).count(), 5);
        let nz: Vec<_> = f.iter_nonzero().collect();
        assert_eq!(
            nz,
            vec![
                (4095, 4095),
                (4096, 4096),
                (8191, 8191),
                (8192, 8192),
                (9999, 9999)
            ]
        );
        let moved = f.drain(|i| i >= 4096);
        assert_eq!(
            moved,
            vec![(4096, 4096), (8191, 8191), (8192, 8192), (9999, 9999)]
        );
        assert_eq!(f.peek(4095), 4095, "unselected cell untouched");
        assert_eq!(f.iter_nonzero().count(), 1);
    }

    #[test]
    fn restore_zero_stays_lazy() {
        let mut f = file(1_000_000, 32);
        let fresh = f.resident_bytes();
        f.restore(999_999, 0);
        assert_eq!(f.resident_bytes(), fresh, "restoring 0 allocates nothing");
        f.restore(999_999, 42);
        assert_eq!(f.peek(999_999), 42);
        assert!(f.resident_bytes() > fresh);
    }

    #[test]
    fn resident_iteration_matches_per_cell_peek() {
        let mut seed = 11u64;
        let mut below = |n: u64| {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (seed ^ (seed >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        };
        // A partial last page, exact pages, and a single cell.
        for len in [1usize, 4095, 4096, 4097, 3 * PAGE_CELLS + 17] {
            let mut f = file(len as u32, 8);
            // The model: pages a write touched are resident, the rest absent.
            let mut resident = vec![false; len.div_ceil(PAGE_CELLS)];
            // Rounds 0, 1 and 3 write; round 2 resets the file.
            for round in 0..4 {
                if round == 2 {
                    f.clear();
                    resident.fill(false);
                } else {
                    for _ in 0..1 + below(5) {
                        let idx = below(len as u64);
                        f.rmw(idx, RegAluOp::Write, below(3));
                        resident[idx as usize / PAGE_CELLS] = true;
                    }
                }
                let ranges = [
                    0..len,
                    0..len + 100,
                    below(len as u64) as usize..len + below(5000) as usize,
                    len..len + 10,
                    // Empty: starts past its end.
                    len / 2 + 1..len / 2,
                ];
                for cells in ranges {
                    let got: Vec<_> = f.iter_resident(cells.clone()).collect();
                    let want: Vec<_> = (cells.start..cells.end.min(len))
                        .filter(|&i| resident[i / PAGE_CELLS])
                        .map(|i| (i, f.peek(i as u64)))
                        .collect();
                    assert_eq!(got, want, "len {len}, cells {cells:?}, round {round}");
                    // Every cell it skips reads zero.
                    let mut nonzero =
                        (cells.start..cells.end.min(len)).filter(|&i| f.peek(i as u64) != 0);
                    assert!(nonzero.all(|i| got.iter().any(|&(j, _)| j == i)));
                }
            }
        }
    }
}
