//! A deterministic discrete-event queue.
//!
//! Both switch models are event-driven simulations: packets move between
//! resources (ports, pipelines, traffic managers) at computed times. The
//! queue orders events by `(time, sequence)` so that simultaneous events
//! fire in insertion order — which, combined with [`crate::rng::SimRng`],
//! makes whole runs reproducible bit-for-bit.
//!
//! # Calendar-queue scheduler
//!
//! The implementation is a calendar queue (Brown 1988) tuned for the event
//! mass a switch simulation produces: almost everything is scheduled within
//! a few pipeline periods or one packet serialization time of `now`, with a
//! thin tail of far-future timers (merge-order patience, control-plane
//! ticks) — plus, ahead of both, the arrivals a driver injects a chunk at a
//! time. One `push` routes each event to one of four places:
//!
//! * **Lane** — a FIFO that takes every push not earlier than its tail
//!   (every push, when it is empty), so it is sorted by `(time, seq)` with
//!   no search: a chunk of injections laid out at line rate is a run of
//!   `push_back`s that stays out of the open day. Pops merge the lane head
//!   with the calendar head by `(time, seq)`.
//! * **Ring buckets** — the near horizon is divided into `DAYS` "days" of
//!   `1 << DAY_SHIFT` picoseconds each; the day of a timestamp is a shift,
//!   and each day maps to one ring slot, so a push into the window is an
//!   O(1) `Vec::push`. A two-level occupancy bitmap (one bit per slot plus
//!   a summary word with one bit per bitmap word) finds the next non-empty
//!   day in O(1) — two `trailing_zeros` — and an empty ring skips even
//!   that via a ring-resident event count.
//! * **Current-day drain** — entering a day moves its bucket (plus any
//!   overflow events that matured into it) into a reusable deque, sorted
//!   once, ascending, by `(time, seq)`: a pop is `pop_front`. A push into
//!   the open day is a follow-up a few nanoseconds out that usually lands
//!   before events pending later in the day (70 % of a minimum-size
//!   forwarding run's pushes): a short scan from the tail and an insert.
//!   A day is not opened while the lane head lies in an earlier one, so
//!   it never runs ahead of `now`.
//! * **Overflow heap** — events beyond the ring window go to a binary heap
//!   keyed by `(time, seq)`. They are merged into the drain when their day
//!   opens. Only far-future outliers pay the O(log n) heap cost.
//!
//! Unlike the original `BinaryHeap` + slab design, nothing here retains a
//! slot per popped event. A drained bucket's buffer goes to a pool bounded
//! by the pending-event high-water mark, and the first push into an empty
//! slot takes its buffer from there: a fresh day allocates nothing, and
//! retained storage follows the *simultaneously pending* events, not the
//! total ever scheduled (`million_event_run_keeps_storage_bounded`,
//! `fresh_days_reuse_drained_buckets`).

use crate::time::SimTime;
use std::collections::{BinaryHeap, VecDeque};

/// log2 of the width of one calendar day, in picoseconds. 2^16 ps ≈ 65.5 ns
/// is about one MTU serialization time at 100 Gb/s, so a day typically
/// holds a batch of pipeline events worth sorting together.
const DAY_SHIFT: u32 = 16;
/// Number of ring days (power of two). Window = DAYS << DAY_SHIFT ≈ 268 µs,
/// wide enough that arrivals pushed out of order behind the lane's tail stay
/// in the ring instead of spilling to the overflow heap.
const DAYS: u64 = 4096;
const DAY_MASK: u64 = DAYS - 1;
const WORDS: usize = (DAYS / 64) as usize;
// The two-level occupancy bitmap keeps one summary bit per word, so the
// summary must itself fit one word.
const _: () = assert!(WORDS == 64);

#[inline]
fn day_of(t: SimTime) -> u64 {
    t.0 >> DAY_SHIFT
}

/// A far-future event parked in the overflow heap. Ordered by `(time, seq)`
/// inverted, so the `BinaryHeap` max is the earliest event; `seq` is
/// unique, which makes the ordering total without requiring `E: Ord`.
#[derive(Debug)]
struct Far<E> {
    t: SimTime,
    seq: u64,
    ev: E,
}

impl<E> PartialEq for Far<E> {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl<E> Eq for Far<E> {}
impl<E> PartialOrd for Far<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Far<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.t, other.seq).cmp(&(self.t, self.seq))
    }
}

/// A time-ordered event queue with FIFO tie-breaking.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Ring of day buckets; slot `d & DAY_MASK` holds day `d`'s events,
    /// unsorted. A slot only ever holds events of a single absolute day:
    /// pushes beyond the window go to `overflow`, and a day's slot cannot
    /// be reused until the drain has moved past that day.
    ring: Vec<Vec<(SimTime, u64, E)>>,
    /// Occupancy bitmap over ring slots.
    occ: [u64; WORDS],
    /// Summary bitmap: bit `w` set iff `occ[w] != 0`. Makes the next-day
    /// scan O(1) instead of a walk over all words.
    occ_sum: u64,
    /// Events currently stored in ring buckets (excludes `drain` and
    /// `overflow`); lets an empty ring skip the bitmap scan entirely.
    ring_len: usize,
    /// The day currently being drained. Never ahead of `now`'s day.
    cur_day: u64,
    /// Events of `cur_day`, sorted ascending by `(time, seq)`; the
    /// calendar's next event is `drain.front()`. Pushes into the open day
    /// insert at their sorted position.
    drain: VecDeque<(SimTime, u64, E)>,
    /// Events beyond the ring window, earliest on top.
    overflow: BinaryHeap<Far<E>>,
    /// The lane: pushes not earlier than its tail, in push order — hence
    /// ascending by `(time, seq)` — beside the calendar tiers above.
    lane: VecDeque<(SimTime, u64, E)>,
    /// Drained bucket buffers, for the first push into an empty slot.
    spare: Vec<Vec<(SimTime, u64, E)>>,
    /// Total capacity of the `spare` buffers; kept ≤ `hwm.max(64)`.
    spare_cap: usize,
    /// Pending-event count across all tiers, the lane included.
    len: usize,
    /// High-water mark of `len`; budgets the pool.
    hwm: usize,
    seq: u64,
    now: SimTime,
    /// Total events ever scheduled.
    pub scheduled: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Empty queue at t = 0.
    pub fn new() -> Self {
        EventQueue {
            ring: (0..DAYS).map(|_| Vec::new()).collect(),
            occ: [0; WORDS],
            occ_sum: 0,
            ring_len: 0,
            cur_day: 0,
            drain: VecDeque::new(),
            overflow: BinaryHeap::new(),
            lane: VecDeque::new(),
            spare: Vec::new(),
            spare_cap: 0,
            len: 0,
            hwm: 0,
            seq: 0,
            now: SimTime::ZERO,
            scheduled: 0,
        }
    }

    /// Current simulation time (time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `ev` at `t`. Scheduling in the past is clamped to `now`
    /// (a resource that frees up "already" fires immediately).
    pub fn push(&mut self, t: SimTime, ev: E) {
        let t = t.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.scheduled += 1;
        self.len += 1;
        self.hwm = self.hwm.max(self.len);
        if self.lane.back().is_none_or(|&(bt, _, _)| t >= bt) {
            // `seq` is the largest ever issued, so the lane stays sorted.
            self.lane.push_back((t, seq, ev));
            return;
        }
        let d = day_of(t);
        if d == self.cur_day {
            // The open day. `seq` is the largest ever issued, so unless an
            // event *later in the day* is already pending this is a plain
            // append; otherwise insert at the (ascending) sorted position,
            // found from the tail: an insert jumps a handful of events.
            match self.drain.back() {
                Some(&(bt, _, _)) if bt > t => {
                    let at = self
                        .drain
                        .iter()
                        .rposition(|e| e.0 <= t)
                        .map_or(0, |i| i + 1);
                    self.drain.insert(at, (t, seq, ev));
                }
                _ => self.drain.push_back((t, seq, ev)),
            }
        } else if d.wrapping_sub(self.cur_day) < DAYS {
            let slot = (d & DAY_MASK) as usize;
            let bucket = &mut self.ring[slot];
            if bucket.capacity() == 0 {
                if let Some(b) = self.spare.pop() {
                    self.spare_cap -= b.capacity();
                    *bucket = b;
                }
            }
            bucket.push((t, seq, ev));
            self.ring_len += 1;
            self.occ[slot / 64] |= 1 << (slot % 64);
            self.occ_sum |= 1 << (slot / 64);
        } else {
            self.overflow.push(Far { t, seq, ev });
        }
    }

    /// Absolute day of the next non-empty ring slot at or after `cur_day`,
    /// if any. O(1): a masked probe of the starting word, then the summary
    /// bitmap picks the next occupied word in one `trailing_zeros`.
    fn next_ring_day(&self) -> Option<u64> {
        if self.ring_len == 0 {
            return None;
        }
        let start = (self.cur_day & DAY_MASK) as usize;
        let w0 = start / 64;
        let head = self.occ[w0] & (!0u64 << (start % 64));
        let slot = if head != 0 {
            w0 * 64 + head.trailing_zeros() as usize
        } else {
            // Rotate the summary so bit k maps to word (w0 + 1 + k) % 64;
            // the search order then matches the ring's wrap-around order,
            // ending back at w0 itself (whose remaining bits are all below
            // `start`, i.e. logically a full window ahead).
            let rot = self.occ_sum.rotate_right((w0 as u32 + 1) % 64);
            debug_assert!(rot != 0, "ring_len > 0 but no occupied word");
            let w = (w0 + 1 + rot.trailing_zeros() as usize) % WORDS;
            w * 64 + self.occ[w].trailing_zeros() as usize
        };
        let off = (slot as u64).wrapping_sub(self.cur_day) & DAY_MASK;
        Some(self.cur_day + off)
    }

    /// With the drain empty: the day of the calendar's next event, if any.
    fn next_calendar_day(&self) -> Option<u64> {
        let over_day = self.overflow.peek().map(|f| day_of(f.t));
        match (self.next_ring_day(), over_day) {
            (Some(r), Some(o)) => Some(r.min(o)),
            (r, o) => r.or(o),
        }
    }

    /// Open the next calendar day that has events, filling the (empty)
    /// `drain` — unless the lane head lies in an earlier day. Opening the
    /// day then would put `cur_day` ahead of `now`, and a later push into
    /// a day between the two would land in overflow, behind the open
    /// drain; the lane head fires first instead.
    fn refill(&mut self) {
        let Some(d) = self.next_calendar_day() else {
            return;
        };
        if self.lane.front().is_some_and(|&(lt, _, _)| day_of(lt) < d) {
            return;
        }
        self.cur_day = d;
        let slot = (d & DAY_MASK) as usize;
        if self.occ[slot / 64] & (1 << (slot % 64)) != 0 {
            // Move the bucket's events out and pool the emptied buffer for
            // the next slot that fills from empty, up to the pending-event
            // high-water mark, so retained storage follows peak concurrency
            // and a fresh day reuses a buffer instead of allocating one.
            let mut bucket = std::mem::take(&mut self.ring[slot]);
            self.ring_len -= bucket.len();
            self.drain.extend(bucket.drain(..));
            if self.spare_cap + bucket.capacity() <= self.hwm.max(64) {
                self.spare_cap += bucket.capacity();
                self.spare.push(bucket);
            }
            self.occ[slot / 64] &= !(1 << (slot % 64));
            if self.occ[slot / 64] == 0 {
                self.occ_sum &= !(1 << (slot / 64));
            }
        }
        while let Some(top) = self.overflow.peek() {
            if day_of(top.t) != d {
                break;
            }
            let Far { t, seq, ev } = self.overflow.pop().unwrap();
            self.drain.push_back((t, seq, ev));
        }
        self.drain
            .make_contiguous()
            .sort_unstable_by_key(|e| (e.0, e.1));
    }

    /// Bring the calendar's next event to the drain head if it may fire
    /// before the lane head, and say which head fires first: `Some(true)`
    /// for the lane, `None` when nothing is pending. Calendar events of
    /// `cur_day` are all in the drain, so an empty drain with the lane head
    /// in `cur_day` needs no refill.
    fn lane_first(&mut self) -> Option<bool> {
        let lane_day = self.lane.front().map(|&(lt, _, _)| day_of(lt));
        if self.drain.is_empty() && lane_day != Some(self.cur_day) {
            self.refill();
        }
        match (self.lane.front(), self.drain.front()) {
            (None, None) => None,
            (Some(l), Some(c)) => Some((l.0, l.1) < (c.0, c.1)),
            (l, _) => Some(l.is_some()),
        }
    }

    /// Pop the next event, advancing `now` to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let head = if self.lane_first()? {
            &mut self.lane
        } else {
            &mut self.drain
        };
        let (t, _, ev) = head.pop_front().expect("the first head is pending");
        self.now = t;
        self.len -= 1;
        Some((t, ev))
    }

    /// Pop every event sharing the next (minimal) timestamp into `batch`,
    /// advancing `now` to that time. The batch is cleared first; events
    /// appear in FIFO `seq` order. Handlers may push new events while the
    /// batch is being consumed — a push at the same timestamp gets a larger
    /// `seq`, lands after the current batch, and is returned by the *next*
    /// call, which is exactly the order the one-at-a-time loop produces.
    ///
    /// Multi-queue use (fabrics): several switches each own a queue and
    /// hand events to each other with a latency of at least `L`. A driving
    /// loop may advance every queue by a whole window — up to `t0 + L − 1`
    /// from the earliest pending time `t0` — before exchanging, because no
    /// hand-off made in the window can land inside it. Each hand-off waits
    /// in its receiver's inbox and is pushed at its time `A` only once
    /// every event before `A` has popped, ahead of any event at `A`, ties
    /// between senders in sender order; each queue's pop sequence then
    /// does not depend on the window width. Pinned in
    /// `windowed_queues_pop_the_same_sequence_at_any_width`.
    pub fn pop_batch(&mut self, batch: &mut Vec<E>) -> Option<SimTime> {
        batch.clear();
        let t = if self.lane_first()? {
            self.lane[0].0
        } else {
            self.drain[0].0
        };
        self.now = t;
        // Both heads are ascending, so each one's run of events at `t` is
        // its prefix, in `seq` order: merge the two runs by `seq`.
        let at_t = |q: &VecDeque<(SimTime, u64, E)>| q.front().filter(|e| e.0 == t).map(|e| e.1);
        loop {
            let head = match (at_t(&self.lane), at_t(&self.drain)) {
                (None, None) => break,
                (Some(l), Some(d)) if d < l => &mut self.drain,
                (Some(_), _) => &mut self.lane,
                (None, Some(_)) => &mut self.drain,
            };
            batch.push(head.pop_front().expect("a head at `t`").2);
        }
        self.len -= batch.len();
        Some(t)
    }

    /// Time of the next pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        let lane_t = self.lane.front().map(|&(t, _, _)| t);
        let calendar_t = match self.drain.front() {
            Some(&(t, _, _)) => Some(t),
            // Day `d` is looked into only when the lane head is not earlier.
            None => self
                .next_calendar_day()
                .filter(|&d| lane_t.is_none_or(|lt| day_of(lt) >= d))
                .and_then(|d| {
                    let ring = self.ring[(d & DAY_MASK) as usize].iter().map(|e| e.0);
                    let over = self.overflow.peek().map(|f| f.t);
                    ring.chain(over.filter(|&ot| day_of(ot) == d)).min()
                }),
        };
        lane_t.into_iter().chain(calendar_t).min()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total event-storage capacity currently retained (ring buckets, the
    /// drain buffer, the overflow heap, the lane and the pool). Bounded by
    /// the high-water mark of *concurrently pending* events — not by
    /// `scheduled` — which the slab regression test asserts.
    pub fn storage_capacity(&self) -> usize {
        self.ring.iter().map(|b| b.capacity()).sum::<usize>()
            + self.drain.capacity()
            + self.overflow.capacity()
            + self.lane.capacity()
            + self.spare_cap
    }
}

/// The original `BinaryHeap` + slab implementation, kept as a test oracle:
/// the calendar queue must reproduce its `(time, seq)` pop sequence
/// bit-for-bit (see `calendar_queue_matches_heap_oracle`).
#[cfg(test)]
pub mod oracle {
    use crate::time::SimTime;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
    struct Key(SimTime, u64);

    /// Reference queue: `BinaryHeap` keyed by `(time, seq)` over a slab.
    #[derive(Debug)]
    pub struct HeapQueue<E> {
        heap: BinaryHeap<Reverse<(Key, usize)>>,
        slots: Vec<Option<E>>,
        free: Vec<usize>,
        seq: u64,
        now: SimTime,
    }

    impl<E> Default for HeapQueue<E> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<E> HeapQueue<E> {
        /// An empty oracle queue.
        pub fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                slots: Vec::new(),
                free: Vec::new(),
                seq: 0,
                now: SimTime::ZERO,
            }
        }

        /// Schedule `ev` at `t` (clamped to now), FIFO among ties.
        pub fn push(&mut self, t: SimTime, ev: E) {
            let t = t.max(self.now);
            let idx = match self.free.pop() {
                Some(i) => {
                    self.slots[i] = Some(ev);
                    i
                }
                None => {
                    self.slots.push(Some(ev));
                    self.slots.len() - 1
                }
            };
            self.heap.push(Reverse((Key(t, self.seq), idx)));
            self.seq += 1;
        }

        /// Pop the earliest `(time, seq)` event.
        pub fn pop(&mut self) -> Option<(SimTime, E)> {
            let Reverse((Key(t, _), idx)) = self.heap.pop()?;
            self.now = t;
            let ev = self.slots[idx]
                .take()
                .expect("slot holds a scheduled event");
            self.free.push(idx);
            Some((t, ev))
        }

        /// Slab footprint: one slot per event ever scheduled (the leak the
        /// calendar queue designs away).
        pub fn slab_len(&self) -> usize {
            self.slots.len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::time::Duration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(30), "c");
        q.push(SimTime(10), "a");
        q.push(SimTime(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(SimTime(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn now_advances_and_past_clamps() {
        let mut q = EventQueue::new();
        q.push(SimTime(100), 1);
        assert_eq!(q.pop().unwrap().0, SimTime(100));
        assert_eq!(q.now(), SimTime(100));
        // Scheduling "in the past" fires at now.
        q.push(SimTime(50), 2);
        let (t, e) = q.pop().unwrap();
        assert_eq!(t, SimTime(100));
        assert_eq!(e, 2);
    }

    #[test]
    fn interleaved_push_pop_keeps_payloads_straight() {
        let mut q = EventQueue::new();
        q.push(SimTime(1), "x");
        q.pop();
        q.push(SimTime(2), "y");
        q.push(SimTime(3), "z");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().1, "y");
        assert_eq!(q.pop().unwrap().1, "z");
        assert!(q.is_empty());
        assert_eq!(q.scheduled, 3);
    }

    #[test]
    fn peek_time() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime(7), 0);
        assert_eq!(q.peek_time(), Some(SimTime(7)));
    }

    #[test]
    fn peek_time_across_tiers() {
        let mut q: EventQueue<u8> = EventQueue::new();
        // Far-future event (overflow tier).
        q.push(SimTime(500_000_000_000), 9);
        assert_eq!(q.peek_time(), Some(SimTime(500_000_000_000)));
        // Nearer event in a ring bucket beats it.
        q.push(SimTime(40_000), 1);
        assert_eq!(q.peek_time(), Some(SimTime(40_000)));
        // Same-day event in the open drain beats both.
        q.push(SimTime(3), 0);
        assert_eq!(q.peek_time(), Some(SimTime(3)));
        assert_eq!(q.pop().unwrap(), (SimTime(3), 0));
        assert_eq!(q.pop().unwrap(), (SimTime(40_000), 1));
        assert_eq!(q.pop().unwrap(), (SimTime(500_000_000_000), 9));
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_and_window_wrap() {
        let mut q = EventQueue::new();
        let window = DAYS << DAY_SHIFT;
        // One event far past the ring window, one just inside, one now.
        q.push(SimTime(window * 3 + 17), "far");
        q.push(SimTime(window - 1), "edge");
        q.push(SimTime(0), "now");
        assert_eq!(q.pop().unwrap().1, "now");
        assert_eq!(q.pop().unwrap().1, "edge");
        // After advancing, pushing within the new window lands in the ring.
        q.push(SimTime(window + 5), "next");
        assert_eq!(q.pop().unwrap().1, "next");
        assert_eq!(q.pop().unwrap().1, "far");
        assert!(q.is_empty());
    }

    #[test]
    fn pop_batch_matches_single_pop_order() {
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        let mut rng = SimRng::seed_from(11);
        for i in 0..500u32 {
            let t = SimTime(rng.range(0..50u64) * 1000);
            a.push(t, i);
            b.push(t, i);
        }
        let mut singles = Vec::new();
        while let Some((t, e)) = a.pop() {
            singles.push((t, e));
        }
        let mut batched = Vec::new();
        let mut batch = Vec::new();
        while let Some(t) = b.pop_batch(&mut batch) {
            for e in batch.drain(..) {
                batched.push((t, e));
            }
        }
        assert_eq!(singles, batched);
        assert_eq!(tie_run(false), tie_run(true));
    }

    /// Same-instant lane/drain ties: four arrivals per nanosecond ride the
    /// lane, and each popped event pushes follow-ups (a pure function of
    /// its id) at the same instant or a nanosecond or two later, into the
    /// open day. Returns the pop sequence, by `pop` or by `pop_batch`.
    fn tie_run(batched: bool) -> Vec<(SimTime, u32)> {
        let mut q = EventQueue::new();
        for i in 0..200u32 {
            q.push(SimTime(u64::from(i / 4) * 1000), i);
        }
        let mut next = 200u32;
        let mut follow_up = |q: &mut EventQueue<u32>, t: SimTime, e: u32| {
            for k in 0..u64::from(e % 3) * u64::from(next < 800) {
                q.push(SimTime(t.0 + (u64::from(e % 2) + k) * 1000), next);
                next += 1;
            }
        };
        let (mut pops, mut ties, mut batch) = (Vec::new(), 0, Vec::new());
        loop {
            let heads = (q.lane.front(), q.drain.front());
            ties += matches!(heads, (Some(l), Some(d)) if l.0 == d.0) as usize;
            if batched {
                let Some(t) = q.pop_batch(&mut batch) else {
                    break;
                };
                for e in batch.drain(..) {
                    pops.push((t, e));
                    follow_up(&mut q, t, e);
                }
            } else {
                let Some((t, e)) = q.pop() else {
                    break;
                };
                pops.push((t, e));
                follow_up(&mut q, t, e);
            }
        }
        assert!(ties > 10, "only {ties} same-instant lane/drain ties");
        pops
    }

    #[test]
    fn pop_batch_only_drains_one_timestamp() {
        let mut q = EventQueue::new();
        q.push(SimTime(10), 1);
        q.push(SimTime(10), 2);
        q.push(SimTime(20), 3);
        let mut batch = Vec::new();
        assert_eq!(q.pop_batch(&mut batch), Some(SimTime(10)));
        assert_eq!(batch, vec![1, 2]);
        // A same-time push made while consuming the batch fires in the
        // next batch — the same order the one-at-a-time loop yields.
        q.push(SimTime(10), 4);
        assert_eq!(q.pop_batch(&mut batch), Some(SimTime(10)));
        assert_eq!(batch, vec![4]);
        assert_eq!(q.pop_batch(&mut batch), Some(SimTime(20)));
        assert_eq!(batch, vec![3]);
        assert_eq!(q.pop_batch(&mut batch), None);
    }

    /// Hand-off latency floor of the windowed two-queue test, in ps.
    const LINK: u64 = 30_000;

    /// An event of the windowed test: `(tag, generation)`.
    type Ev = (u64, u8);

    /// Two queues ("switches") driven in conservative windows, the way the
    /// fabric drives its devices; hand-offs are held in per-queue inboxes
    /// as `(arrival, sending queue, event)`.
    #[derive(Default)]
    struct Windowed {
        qs: [EventQueue<Ev>; 2],
        inbox: [Vec<(SimTime, usize, Ev)>; 2],
        pops: [Vec<(SimTime, u64)>; 2],
    }

    impl Windowed {
        /// Pop queue `q` through `t`. What each popped event does is a
        /// pure function of its tag, never of the order the queues happen
        /// to run in: sometimes a local follow-up (at the same time or
        /// later, on the 10 ns grid every time here sits on, so ties
        /// abound), sometimes a hand-off to the other queue at least
        /// `LINK` later.
        fn pop_through(&mut self, q: usize, t: SimTime) {
            while self.qs[q].peek_time().is_some_and(|pt| pt <= t) {
                let (at, (tag, generation)) = self.qs[q].pop().unwrap();
                self.pops[q].push((at, tag));
                let m = SimRng::seed_from(tag).u64();
                let later = SimTime(at.0 + (m >> 8) % 3 * 10_000);
                let child = (m >> 16, generation + 1);
                match m % 4 {
                    0 if generation < 3 => self.qs[q].push(later, child),
                    1 if generation < 3 => {
                        self.inbox[1 - q].push((later + Duration(LINK), q, child))
                    }
                    _ => {}
                }
            }
        }

        /// Run to quiescence in windows `w` ps wide (`1 <= w <= LINK`):
        /// each round advances both queues to `t0 + w - 1`, pushing each
        /// held hand-off at `A` after every event before `A` and ahead of
        /// any at `A`.
        fn run(mut self, w: u64) -> [Vec<(SimTime, u64)>; 2] {
            loop {
                let held = self.inbox.iter().filter_map(|i| i.first().map(|a| a.0));
                let pending = self.qs.iter().filter_map(|q| q.peek_time());
                let Some(t0) = pending.chain(held).min() else {
                    return self.pops;
                };
                let h = SimTime(t0.0 + w - 1);
                for q in 0..2 {
                    let due = self.inbox[q].partition_point(|a| a.0 <= h);
                    for (at, _, ev) in self.inbox[q].drain(..due).collect::<Vec<_>>() {
                        self.pop_through(q, SimTime(at.0 - 1));
                        self.qs[q].push(at, ev);
                    }
                    self.pop_through(q, h);
                }
                // Hand-offs made this round join the held ones; a stable
                // sort keeps one sender's same-time hand-offs in send order.
                for inbox in &mut self.inbox {
                    inbox.sort_by_key(|a| (a.0, a.1));
                }
            }
        }
    }

    /// Multi-switch interleavings. Each queue's pop sequence —
    /// times, same-time tie order, and what hand-offs it received — is
    /// identical whether the two queues run in 1 ps windows, `LINK / 3`
    /// windows or full `LINK` lookahead windows.
    #[test]
    fn windowed_queues_pop_the_same_sequence_at_any_width() {
        for seed in [2u64, 13, 77, 123, 2026] {
            let runs = [1, LINK / 3, LINK].map(|w| {
                let mut rng = SimRng::seed_from(seed);
                let mut pair = Windowed::default();
                for tag in 0..200 {
                    let t = SimTime(rng.range(0..50u64) * 10_000);
                    pair.qs[rng.index(2)].push(t, (tag, 0));
                }
                pair.run(w)
            });
            let follow_ups = runs[0].iter().map(Vec::len).sum::<usize>() - 200;
            assert!(
                follow_ups > 100,
                "seed {seed}: only {follow_ups} follow-ups"
            );
            assert_eq!(runs[0], runs[1], "seed {seed}: 1 ps vs LINK/3 windows");
            assert_eq!(runs[0], runs[2], "seed {seed}: 1 ps vs LINK windows");
        }
    }

    /// A 64 B frame plus 20 B of preamble and inter-frame gap at 800 Gb/s,
    /// in ps: the spacing of line-rate arrivals.
    const GAP_64B: u64 = 840;

    /// Satellite: scheduler equivalence. The calendar queue must produce
    /// exactly the oracle heap's `(time, seq)` pop sequence for seeded
    /// random schedules, including same-timestamp bursts and far-future
    /// outliers, under interleaved push/pop — and with chunks of line-rate
    /// arrivals pushed ahead, which ride the lane while the near-horizon
    /// follow-ups and out-of-order arrivals fall back to the calendar.
    #[test]
    fn calendar_queue_matches_heap_oracle() {
        for seed in [1u64, 7, 42, 99, 2026] {
            oracle_run(seed, false);
            let (lane_max, mixed) = oracle_run(seed, true);
            assert!(lane_max > 50, "seed {seed}: lane peaked at {lane_max}");
            assert!(
                mixed > 5_000,
                "seed {seed}: lane and calendar both pending at only {mixed} pops"
            );
        }
    }

    /// One seeded schedule against the oracle heap; returns the lane's peak
    /// length and the number of pops made while both the lane and the
    /// calendar held events.
    fn oracle_run(seed: u64, arrivals: bool) -> (usize, usize) {
        let mut rng = SimRng::seed_from(seed);
        let mut cal: EventQueue<u32> = EventQueue::new();
        let mut ora: oracle::HeapQueue<u32> = oracle::HeapQueue::new();
        let mut id = 0u32;
        let mut push = |cal: &mut EventQueue<u32>, ora: &mut oracle::HeapQueue<u32>, t| {
            cal.push(t, id);
            ora.push(t, id);
            id += 1;
        };
        let (mut base, mut next_arrival, mut pushed) = (0u64, 0u64, 0u64);
        let (mut lane_max, mut mixed) = (0, 0);
        for _round in 0..200 {
            let first = pushed;
            if arrivals && rng.range(0..3) == 0 {
                // A driver's injection chunk, pushed ahead in time order.
                next_arrival = next_arrival.max(base);
                for _ in 0..rng.range(1..200) {
                    next_arrival += GAP_64B;
                    push(&mut cal, &mut ora, SimTime(next_arrival));
                    pushed += 1;
                }
            }
            // A burst of pushes around the current time...
            for _ in 0..rng.range(1..20) {
                let t = match rng.range(0..10 + 2 * arrivals as u64) {
                    // same-timestamp burst
                    0..=3 => SimTime(base),
                    // near horizon (a few days out)
                    4..=7 => SimTime(base + rng.range(0..100_000u64)),
                    // window edge
                    8 => SimTime(base + (DAYS << DAY_SHIFT) - rng.range(0..3u64)),
                    // far-future outlier, well past the ring window
                    9 => SimTime(base + (DAYS << DAY_SHIFT) * rng.range(1..5u64) + 13),
                    // an arrival out of order, behind the chunk's tail
                    _ => SimTime(next_arrival.saturating_sub(rng.range(0..20_000u64))),
                };
                push(&mut cal, &mut ora, t);
                pushed += 1;
            }
            lane_max = lane_max.max(cal.lane.len());
            // ...then a few interleaved pops.
            let pops = if arrivals {
                rng.range(0..2 * (pushed - first))
            } else {
                rng.range(0..15)
            };
            for _ in 0..pops {
                mixed += (!cal.lane.is_empty() && cal.len() > cal.lane.len()) as usize;
                let c = cal.pop();
                let o = ora.pop();
                assert_eq!(c, o, "seed {seed}: pop diverged");
                if let Some((t, _)) = c {
                    base = t.0;
                } else {
                    break;
                }
            }
        }
        // Drain both to the end.
        loop {
            let c = cal.pop();
            let o = ora.pop();
            assert_eq!(c, o, "seed {seed}: drain diverged");
            if c.is_none() {
                break;
            }
        }
        (lane_max, mixed)
    }

    /// The refill guard. The lane head (day 1) is due before the
    /// calendar's next day (day 5). Popping it must not open day 5: a push
    /// into day 2 made afterwards would then land in overflow, behind day
    /// 5's drain, and fire after it.
    #[test]
    fn lane_head_before_next_day_keeps_order() {
        let day = 1u64 << DAY_SHIFT;
        let mut q = EventQueue::new();
        let mut ora = oracle::HeapQueue::new();
        for (t, ev) in [
            (day + 100, "lane head"),
            (7 * day, "lane tail"),
            (5 * day, "day 5"),
        ] {
            q.push(SimTime(t), ev);
            ora.push(SimTime(t), ev);
        }
        assert_eq!(q.lane.len(), 2, "day 5 is earlier than the lane tail");
        assert_eq!(q.pop(), ora.pop());
        q.push(SimTime(2 * day + 3), "day 2");
        ora.push(SimTime(2 * day + 3), "day 2");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        let want: Vec<_> = std::iter::from_fn(|| ora.pop()).collect();
        assert_eq!(order, want);
        assert_eq!(order[0].1, "day 2");
    }

    /// Structural pin for the lane: a driver's injection chunk — 4 096
    /// arrivals at 64 B line rate, pushed up front, each scheduling a
    /// fixed-latency follow-up when it pops — never enters the open day,
    /// which holds at most the follow-ups in flight (48; an open day that
    /// held the injections too reached 126).
    #[test]
    fn injection_chunk_stays_out_of_the_open_day() {
        const N: u64 = 4096;
        const LATENCY: Duration = Duration(40_000);
        let bound = (LATENCY.0 / GAP_64B) as usize + 1;
        let mut q = EventQueue::new();
        for i in 0..N {
            q.push(SimTime(1_000 + i * GAP_64B), true);
        }
        let (mut max_drain, mut batch) = (0, Vec::new());
        while let Some(t) = q.pop_batch(&mut batch) {
            for &injection in &batch {
                if injection {
                    q.push(t + LATENCY, false);
                }
            }
            assert!(
                q.drain.iter().all(|e| !e.2),
                "an injection entered the open day"
            );
            max_drain = max_drain.max(q.drain.len());
        }
        assert_eq!(q.scheduled, 2 * N);
        assert!(max_drain <= bound, "open day reached {max_drain} > {bound}");
    }

    /// Structural pin for the pool: after a warm-up, a stream that walks
    /// more than a ring's worth of fresh days keeps bucket capacity only in
    /// occupied slots — each drained bucket goes to the pool and each first
    /// push into an empty slot takes from it — and the pool stays within
    /// `hwm.max(64)`.
    #[test]
    fn fresh_days_reuse_drained_buckets() {
        let mut q = EventQueue::new();
        let mut rng = SimRng::seed_from(5);
        let mut pops = 0u64;
        while q.now().0 < (DAYS + DAYS / 4) << DAY_SHIFT {
            while q.len() < 256 {
                q.push(SimTime(q.now().0 + rng.range(0..4_000_000u64)), pops);
            }
            q.pop();
            pops += 1;
            if pops > 2_000 && pops.is_multiple_of(16) {
                let with_cap = q.ring.iter().filter(|b| b.capacity() > 0).count();
                let occupied = q.occ.iter().map(|w| w.count_ones() as usize).sum();
                assert!(
                    with_cap <= occupied,
                    "{with_cap} slots hold capacity, {occupied} events"
                );
                assert!(q.spare_cap <= q.hwm.max(64), "pool holds {}", q.spare_cap);
            }
        }
    }

    /// Satellite: the slab-growth pathology regression. The old design
    /// retained one slab slot per event *ever scheduled*; the calendar
    /// queue must keep retained storage proportional to the high-water
    /// mark of pending events across a 10⁶-event run.
    #[test]
    fn million_event_run_keeps_storage_bounded() {
        const TOTAL: u64 = 1_000_000;
        const OUTSTANDING: usize = 1024;
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut rng = SimRng::seed_from(3);
        let mut pushed = 0u64;
        while pushed < TOTAL || !q.is_empty() {
            while pushed < TOTAL && q.len() < OUTSTANDING {
                let t = q.now().0 + rng.range(0..200_000u64);
                q.push(SimTime(t), pushed);
                pushed += 1;
            }
            for _ in 0..rng.range(1..OUTSTANDING as u64) {
                if q.pop().is_none() {
                    break;
                }
            }
        }
        assert_eq!(q.scheduled, TOTAL);
        // Retained capacity must track the pending high-water mark (with
        // slack for per-bucket rounding), not the million-event total.
        let cap = q.storage_capacity();
        assert!(
            cap < 64 * OUTSTANDING,
            "storage capacity {cap} grew far past the {OUTSTANDING}-event high-water mark"
        );
    }
}
