//! A deterministic discrete-event queue.
//!
//! Both switch models are event-driven simulations: packets move between
//! resources (ports, pipelines, traffic managers) at computed times. The
//! queue orders events by `(time, sequence)` so that simultaneous events
//! fire in insertion order — which, combined with [`crate::rng::SimRng`],
//! makes whole runs reproducible bit-for-bit.
//!
//! The queue has two parts. A push not earlier than the **lane**'s tail
//! (every push, when it is empty) joins that FIFO, which therefore stays
//! sorted by `(time, seq)` with no search: a chunk of injections laid out
//! at line rate is a run of `push_back`s. Every other push — follow-ups
//! and timers due before the lane's tail — goes to one **heap** keyed by
//! `(time, seq)`. Pops merge the two heads by `(time, seq)`, so the pop
//! sequence is that of a single heap (`lane_and_heap_match_heap_oracle`),
//! and storage follows the pending high-water mark, not the total ever
//! scheduled.

use crate::time::SimTime;
use std::collections::{BinaryHeap, VecDeque};

/// A pending event, ordered by `(time, seq)` inverted so that the earliest
/// is the greatest (the `BinaryHeap` max); `seq` is unique, so no `E: Ord`.
/// The key is one `u128`: one compare, where a tuple branches per field.
#[derive(Debug)]
struct Entry<E> {
    t: SimTime,
    seq: u64,
    ev: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let key = |e: &Self| (u128::from(e.t.0) << 64) | u128::from(e.seq);
        key(other).cmp(&key(self))
    }
}

/// A time-ordered event queue with FIFO tie-breaking.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// The lane: pushes not earlier than its tail, in push order — hence
    /// ascending by `(time, seq)`.
    lane: VecDeque<Entry<E>>,
    /// Every other pending event, earliest on top.
    heap: BinaryHeap<Entry<E>>,
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
            lane: VecDeque::new(),
            heap: BinaryHeap::new(),
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
        let entry = Entry { t, seq, ev };
        if self.lane.back().is_none_or(|b| t >= b.t) {
            // `seq` is the largest ever issued, so the lane stays sorted.
            self.lane.push_back(entry);
        } else {
            self.heap.push(entry);
        }
    }

    /// Pop the next event, advancing `now` to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        // The earlier head is the greater `Entry`, and any head beats `None`.
        let Entry { t, ev, .. } = if self.lane.front() > self.heap.peek() {
            self.lane.pop_front()
        } else {
            self.heap.pop()
        }?;
        self.now = t;
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
        let t = self.peek_time()?;
        self.now = t;
        // Each head's run of events at `t` is in `seq` order: merge the two.
        loop {
            let lane = self.lane.front().filter(|e| e.t == t);
            let heap = self.heap.peek().filter(|e| e.t == t);
            let head = match (lane, heap) {
                (None, None) => break,
                (l, h) if l > h => self.lane.pop_front(),
                _ => self.heap.pop(),
            };
            batch.push(head.expect("a head at `t`").ev);
        }
        Some(t)
    }

    /// Time of the next pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.lane.front().max(self.heap.peek()).map(|e| e.t)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.lane.len() + self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.lane.is_empty() && self.heap.is_empty()
    }

    /// Event storage retained: it follows *pending* events, not `scheduled`.
    pub fn storage_capacity(&self) -> usize {
        self.lane.capacity() + self.heap.capacity()
    }
}

#[cfg(test)]
/// The original `BinaryHeap` + slab implementation, kept as a test oracle:
/// the lane and heap must reproduce its `(time, seq)` pop sequence
/// bit-for-bit (see `lane_and_heap_match_heap_oracle`).
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
        /// lane and heap design away).
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

    /// Heads on both sides: a push earlier than the lane's tail goes to the
    /// heap, and `peek_time` and `pop` take whichever head is earlier.
    #[test]
    fn peek_time_across_lane_and_heap() {
        let mut q: EventQueue<u8> = EventQueue::new();
        // A far-future event sets the lane's tail.
        q.push(SimTime(500_000_000_000), 9);
        assert_eq!(q.peek_time(), Some(SimTime(500_000_000_000)));
        // Nearer events go to the heap, whose head beats the lane's.
        q.push(SimTime(40_000), 1);
        assert_eq!(q.peek_time(), Some(SimTime(40_000)));
        q.push(SimTime(3), 0);
        assert_eq!(q.peek_time(), Some(SimTime(3)));
        assert_eq!((q.lane.len(), q.heap.len()), (1, 2));
        assert_eq!(q.pop().unwrap(), (SimTime(3), 0));
        assert_eq!(q.pop().unwrap(), (SimTime(40_000), 1));
        assert_eq!(q.pop().unwrap(), (SimTime(500_000_000_000), 9));
        assert!(q.is_empty());
    }

    /// Lane and heap ordering: pushes behind the lane's tail interleave
    /// with the lane by `(time, seq)`, a push tying the tail joins the lane
    /// behind it, and the lane empties only after the heap (every heap
    /// event was due before some lane tail), so the next push starts a
    /// fresh lane.
    #[test]
    fn lane_and_heap_interleave_in_time_order() {
        let far = 500_000_000_000;
        let mut q = EventQueue::new();
        for (t, ev) in [(0, "a"), (far, "d"), (7, "c"), (far, "e"), (0, "b")] {
            q.push(SimTime(t), ev);
        }
        assert_eq!((q.lane.len(), q.heap.len()), (3, 2));
        let order: Vec<_> = (0..4).map(|_| q.pop().unwrap().1).collect();
        assert_eq!(order, ["a", "b", "c", "d"]);
        assert!(q.heap.is_empty());
        q.push(SimTime(far), "f");
        q.push(SimTime(far + 5), "g");
        assert_eq!((q.lane.len(), q.heap.len()), (3, 0));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["e", "f", "g"]);
        q.push(SimTime(3), "h");
        assert_eq!((q.now(), q.lane.len()), (SimTime(far + 5), 1));
        assert_eq!(q.pop(), Some((SimTime(far + 5), "h")));
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

    /// Same-instant lane/heap ties: four arrivals per nanosecond ride the
    /// lane, and each popped event pushes follow-ups (a pure function of
    /// its id) at the same instant or a nanosecond or two later, into the
    /// heap. Returns the pop sequence, by `pop` or by `pop_batch`.
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
            let heads = (q.lane.front(), q.heap.peek());
            ties += matches!(heads, (Some(l), Some(h)) if l.t == h.t) as usize;
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
        assert!(ties > 10, "only {ties} same-instant lane/heap ties");
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

    /// A far horizon in ps (≈ 268 µs): the schedules below push some events
    /// just short of it and some well past it.
    const HORIZON: u64 = 1 << 28;

    /// Scheduler equivalence. The lane and heap must produce exactly the
    /// oracle heap's `(time, seq)` pop sequence for seeded random
    /// schedules, including same-timestamp bursts and far-future outliers,
    /// under interleaved push/pop — with chunks of line-rate arrivals
    /// pushed ahead, which ride the lane while the near-horizon follow-ups
    /// and out-of-order arrivals go to the heap, and with a backlog of
    /// more than 256 events in the heap behind a lane tail.
    #[test]
    fn lane_and_heap_match_heap_oracle() {
        for seed in [1u64, 7, 42, 99, 2026] {
            oracle_run(seed, false);
            let (lane_max, mixed) = oracle_run(seed, true);
            assert!(lane_max > 50, "seed {seed}: lane peaked at {lane_max}");
            assert!(
                mixed > 5_000,
                "seed {seed}: lane and heap both pending at only {mixed} pops"
            );
            let depth = backlog_run(seed);
            assert!(depth > 256, "seed {seed}: heap peaked at {depth}");
        }
    }

    /// One seeded schedule against the oracle heap; returns the lane's peak
    /// length and the number of pops made while both the lane and the heap
    /// held events.
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
                    // near horizon (up to 100 ns out)
                    4..=7 => SimTime(base + rng.range(0..100_000u64)),
                    // just short of the far horizon
                    8 => SimTime(base + HORIZON - rng.range(0..3u64)),
                    // far-future outlier, well past it
                    9 => SimTime(base + HORIZON * rng.range(1..5u64) + 13),
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
            assert_eq!(c, o, "seed {seed}: final drain diverged");
            if c.is_none() {
                break;
            }
        }
        (lane_max, mixed)
    }

    /// The `agg-rmt` shape against the oracle heap: a chunk of line-rate
    /// arrivals sets the lane's tail a few µs out, and recirculating
    /// packets back up behind it — each pop schedules two follow-ups up to
    /// 100 ns later until 6 000 events have been pushed — so the heap holds
    /// hundreds of events. Returns the heap's peak depth.
    fn backlog_run(seed: u64) -> usize {
        let mut rng = SimRng::seed_from(seed);
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut ora = oracle::HeapQueue::new();
        for id in 0..4096u32 {
            let t = SimTime(1_000 + u64::from(id) * GAP_64B);
            q.push(t, id);
            ora.push(t, id);
        }
        let (mut id, mut depth) = (4096u32, 0);
        loop {
            let popped = q.pop();
            assert_eq!(popped, ora.pop(), "seed {seed}: backlog pop diverged");
            let Some((t, _)) = popped else {
                return depth;
            };
            for _ in 0..2 * u64::from(id < 6_000) {
                let later = SimTime(t.0 + rng.range(0..100_000u64));
                q.push(later, id);
                ora.push(later, id);
                id += 1;
            }
            depth = depth.max(q.heap.len());
        }
    }

    /// Structural pin for the lane: a driver's injection chunk — 4 096
    /// arrivals at 64 B line rate, pushed up front, each scheduling a
    /// fixed-latency follow-up when it pops — never enters the heap, which
    /// holds at most the follow-ups in flight (48).
    #[test]
    fn injection_chunk_stays_out_of_the_heap() {
        const N: u64 = 4096;
        const LATENCY: Duration = Duration(40_000);
        let bound = (LATENCY.0 / GAP_64B) as usize + 1;
        let mut q = EventQueue::new();
        for i in 0..N {
            q.push(SimTime(1_000 + i * GAP_64B), true);
        }
        let (mut max_heap, mut batch) = (0, Vec::new());
        while let Some(t) = q.pop_batch(&mut batch) {
            for &injection in &batch {
                if injection {
                    q.push(t + LATENCY, false);
                }
            }
            assert!(
                q.heap.iter().all(|e| !e.ev),
                "an injection entered the heap"
            );
            max_heap = max_heap.max(q.heap.len());
        }
        assert_eq!(q.scheduled, 2 * N);
        assert!(max_heap <= bound, "heap reached {max_heap} > {bound}");
    }

    /// The slab-growth pathology regression. The old design retained one
    /// slab slot per event *ever scheduled*; the queue must keep retained storage proportional to the high-water
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
