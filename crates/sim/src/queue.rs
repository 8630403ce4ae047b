//! Bounded queues and shared-memory buffer pools.
//!
//! The traffic managers in both switch models are *output-buffered
//! shared-memory* schedulers (the paper cites Arpaci & Copeland's survey for
//! this). Packets admitted to a TM take buffer *cells* from a shared
//! [`BufferPool`] and stay where they are, in the switch's packet slab;
//! per-destination [`BoundedQueue`]s hold their descriptors ([`Held`])
//! until the scheduler releases them. Exhaustion of either bound is a tail
//! drop, and every drop is counted — the conservation tests check
//! `in = out + drops + in-flight` across the whole switch.

use crate::datapath::Parked;
use crate::packet::Packet;
use std::collections::VecDeque;

/// A TM queue entry: the handle of a packet parked in the switch's slab
/// ([`crate::datapath::Agenda`]) plus what admission and the schedulers
/// read of it — its frame bytes (byte bound, DRR) and its sort key
/// (merge order, PIFO rank). Both are snapshots taken at admission; a
/// queued packet is not touched until it departs.
#[derive(Debug)]
pub struct Held {
    /// The packet.
    pub h: Parked,
    /// Its frame bytes.
    pub bytes: u32,
    /// Its `meta.sort_key`.
    pub key: Option<u64>,
}

impl Held {
    /// The entry for `pkt`, parked under `h`.
    #[inline]
    pub fn new(pkt: &Packet, h: Parked) -> Self {
        Held {
            h,
            bytes: pkt.frame_bytes(),
            key: pkt.meta.sort_key,
        }
    }

    /// Rank under merge order and PIFO: unkeyed packets sort last.
    #[inline]
    pub fn rank(&self) -> u64 {
        self.key.unwrap_or(u64::MAX)
    }
}

/// A FIFO bounded in packets and (optionally) bytes.
#[derive(Debug, Default)]
pub struct BoundedQueue {
    items: VecDeque<Held>,
    max_pkts: usize,
    max_bytes: Option<u64>,
    cur_bytes: u64,
    /// Packets dropped because this queue was full.
    pub drops: u64,
    /// Packets that have ever been enqueued successfully.
    pub enqueued: u64,
    /// Packets dequeued.
    pub dequeued: u64,
    /// High-water mark in packets.
    pub hwm_pkts: usize,
}

impl BoundedQueue {
    /// Queue bounded to `max_pkts` packets.
    pub fn new(max_pkts: usize) -> Self {
        BoundedQueue {
            max_pkts,
            ..Default::default()
        }
    }

    /// Additionally bound the queue in frame bytes.
    pub fn with_byte_limit(mut self, max_bytes: u64) -> Self {
        self.max_bytes = Some(max_bytes);
        self
    }

    /// Packets currently queued.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Frame bytes currently queued.
    pub fn bytes(&self) -> u64 {
        self.cur_bytes
    }

    /// Would an enqueue of a `bytes`-byte frame be admitted?
    pub fn has_room(&self, bytes: u32) -> bool {
        if self.items.len() >= self.max_pkts {
            return false;
        }
        if let Some(mb) = self.max_bytes {
            if self.cur_bytes + bytes as u64 > mb {
                return false;
            }
        }
        true
    }

    /// Enqueue, tail-dropping when full: a refused entry is handed back,
    /// so its packet's slot can be freed.
    pub fn push(&mut self, p: Held) -> Result<(), Held> {
        if !self.has_room(p.bytes) {
            self.drops += 1;
            return Err(p);
        }
        self.cur_bytes += p.bytes as u64;
        self.items.push_back(p);
        self.enqueued += 1;
        self.hwm_pkts = self.hwm_pkts.max(self.items.len());
        Ok(())
    }

    /// Dequeue the head.
    pub fn pop(&mut self) -> Option<Held> {
        let p = self.items.pop_front()?;
        self.cur_bytes -= p.bytes as u64;
        self.dequeued += 1;
        Some(p)
    }

    /// Peek the head without removing it.
    pub fn peek(&self) -> Option<&Held> {
        self.items.front()
    }

    /// Remove and return the first entry matching a predicate (used by
    /// rank-ordered schedulers that depart from queue interiors).
    pub fn take_first(&mut self, pred: impl Fn(&Held) -> bool) -> Option<Held> {
        let idx = self.items.iter().position(pred)?;
        let p = self.items.remove(idx).expect("index from position");
        self.cur_bytes -= p.bytes as u64;
        self.dequeued += 1;
        Some(p)
    }
}

/// Shared-memory cell accounting for a traffic manager.
///
/// A pool of `total_cells` fixed-size cells; a packet of `n` frame bytes
/// consumes `ceil(n / cell_bytes)` cells while buffered.
#[derive(Debug, Clone)]
pub struct BufferPool {
    total_cells: u64,
    cell_bytes: u32,
    used_cells: u64,
    /// Admissions refused for lack of cells.
    pub refusals: u64,
    /// High-water mark of used cells.
    pub hwm_cells: u64,
}

impl BufferPool {
    /// Pool with `total_cells` cells of `cell_bytes` each.
    pub fn new(total_cells: u64, cell_bytes: u32) -> Self {
        assert!(cell_bytes > 0);
        BufferPool {
            total_cells,
            cell_bytes,
            used_cells: 0,
            refusals: 0,
            hwm_cells: 0,
        }
    }

    /// Cells needed to hold a packet.
    pub fn cells_for(&self, p: &Packet) -> u64 {
        let b = p.frame_bytes().max(1) as u64;
        b.div_ceil(self.cell_bytes as u64)
    }

    /// Cells currently allocated.
    pub fn used(&self) -> u64 {
        self.used_cells
    }

    /// Cells free.
    pub fn free(&self) -> u64 {
        self.total_cells - self.used_cells
    }

    /// Total capacity in cells.
    pub fn capacity(&self) -> u64 {
        self.total_cells
    }

    /// Try to allocate cells for a packet. Returns `false` (and counts a
    /// refusal) when the pool cannot hold it. On success the charged cell
    /// count is snapshotted into `p.meta.buf_cells` so [`release`] returns
    /// exactly what was taken, even if the frame is rewritten (re-sealed,
    /// header grown or shrunk) while buffered.
    ///
    /// [`release`]: BufferPool::release
    pub fn try_alloc(&mut self, p: &mut Packet) -> bool {
        debug_assert!(
            p.meta.buf_cells.is_none(),
            "double alloc: packet already holds cells"
        );
        let need = self.cells_for(p);
        if self.used_cells + need > self.total_cells {
            self.refusals += 1;
            return false;
        }
        self.used_cells += need;
        self.hwm_cells = self.hwm_cells.max(self.used_cells);
        p.meta.buf_cells = Some(need as u32);
        true
    }

    /// Release the cells held by a packet, consuming its allocation token.
    ///
    /// Recomputing `cells_for(p)` here — what this used to do — silently
    /// leaked cells when a buffered frame shrank and underflowed the pool
    /// when it grew.
    pub fn release(&mut self, p: &mut Packet) {
        let held = match p.meta.buf_cells.take() {
            Some(n) => n as u64,
            None => {
                debug_assert!(false, "release without an allocation token");
                self.cells_for(p)
            }
        };
        debug_assert!(self.used_cells >= held, "buffer pool underflow");
        self.used_cells = self.used_cells.saturating_sub(held);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datapath::Agenda;
    use crate::packet::{synthetic_packet, FlowId};

    fn pkt(id: u64, len: usize) -> Packet {
        synthetic_packet(id, FlowId(1), len)
    }

    /// Park a `len`-byte packet `id` and describe it for a queue.
    fn held(slab: &mut Agenda<()>, id: u64, len: usize) -> Held {
        let h = slab.park(pkt(id, len));
        Held::new(slab.pkt(&h), h)
    }

    #[test]
    fn fifo_order_and_counters() {
        let slab = &mut Agenda::default();
        let mut q = BoundedQueue::new(4);
        for i in 0..3 {
            assert!(q.push(held(slab, i, 100)).is_ok());
        }
        assert_eq!(q.len(), 3);
        assert_eq!(q.bytes(), 300);
        assert_eq!(slab.take(q.pop().unwrap().h).meta.id, 0);
        assert_eq!(slab.take(q.pop().unwrap().h).meta.id, 1);
        assert_eq!(q.dequeued, 2);
        assert_eq!(q.enqueued, 3);
        assert_eq!(q.hwm_pkts, 3);
    }

    #[test]
    fn packet_bound_tail_drops() {
        let slab = &mut Agenda::default();
        let mut q = BoundedQueue::new(2);
        assert!(q.push(held(slab, 0, 64)).is_ok());
        assert!(q.push(held(slab, 1, 64)).is_ok());
        let refused = q.push(held(slab, 2, 64)).expect_err("queue full");
        assert_eq!(
            slab.take(refused.h).meta.id,
            2,
            "a refused handle comes back"
        );
        assert_eq!(q.drops, 1);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn byte_bound_tail_drops() {
        let slab = &mut Agenda::default();
        let mut q = BoundedQueue::new(100).with_byte_limit(200);
        assert!(q.push(held(slab, 0, 150)).is_ok());
        assert!(q.push(held(slab, 1, 100)).is_err());
        assert!(q.push(held(slab, 2, 50)).is_ok());
        assert_eq!(q.bytes(), 200);
    }

    #[test]
    fn pool_allocates_in_cells() {
        let mut pool = BufferPool::new(10, 80);
        let mut p = pkt(0, 100); // 2 cells of 80 B
        assert_eq!(pool.cells_for(&p), 2);
        assert!(pool.try_alloc(&mut p));
        assert_eq!(p.meta.buf_cells, Some(2));
        assert_eq!(pool.used(), 2);
        pool.release(&mut p);
        assert_eq!(p.meta.buf_cells, None, "token consumed on release");
        assert_eq!(pool.used(), 0);
        assert_eq!(pool.free(), 10);
    }

    #[test]
    fn pool_refuses_when_exhausted() {
        let mut pool = BufferPool::new(3, 64);
        let mut big = pkt(0, 200); // 4 cells — never fits
        assert!(!pool.try_alloc(&mut big));
        assert_eq!(big.meta.buf_cells, None, "refused alloc leaves no token");
        assert_eq!(pool.refusals, 1);
        for id in 1..=3 {
            assert!(pool.try_alloc(&mut pkt(id, 64)));
        }
        assert!(!pool.try_alloc(&mut pkt(4, 64)));
        assert_eq!(pool.refusals, 2);
        assert_eq!(pool.hwm_cells, 3);
    }

    #[test]
    fn pool_release_matches_alloc_for_rewritten_frames() {
        // Regression: `release` used to recompute `cells_for` from the frame
        // length at release time, so a frame rewritten while buffered leaked
        // cells (shrink) or underflowed the pool (grow).
        let mut pool = BufferPool::new(100, 64);

        // Shrink in flight: alloc 2 cells, rewrite to a 1-cell frame.
        let mut p = pkt(0, 128); // 2 cells
        assert!(pool.try_alloc(&mut p));
        assert_eq!(pool.used(), 2);
        p.data = vec![0u8; 60].into();
        p.reseal();
        pool.release(&mut p);
        assert_eq!(pool.used(), 0, "shrunk frame must not leak cells");

        // Grow in flight: alloc 1 cell, rewrite to a 3-cell frame.
        let mut p = pkt(1, 60); // 1 cell
        assert!(pool.try_alloc(&mut p));
        assert_eq!(pool.used(), 1);
        p.data = vec![0u8; 180].into();
        p.reseal();
        pool.release(&mut p);
        assert_eq!(pool.used(), 0, "grown frame must not underflow the pool");
        assert_eq!(pool.free(), 100);
    }
}
