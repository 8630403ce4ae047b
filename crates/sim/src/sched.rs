//! Schedulers over sets of queues.
//!
//! Both traffic managers are built from a [`ScheduledQueues`]: a vector of
//! bounded FIFOs plus a service discipline. The classic disciplines (FIFO,
//! strict priority, deficit round-robin) cover what the paper calls the
//! "classic scheduler" role of the second TM; [`Policy::MergeOrder`]
//! implements the expanded semantics §3.1 proposes for the *first* TM — "it
//! could keep a sort order while it merges flows that are themselves
//! sorted" — a k-way streaming merge by each packet's `sort_key`. The
//! queues hold [`Held`] descriptors, never packets: every policy reads only
//! the frame bytes and sort key a descriptor carries.

use crate::queue::{BoundedQueue, Held};
use std::collections::VecDeque;

/// Service discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Serve packets in global arrival order regardless of queue.
    Fifo,
    /// Always serve the lowest-indexed non-empty queue.
    StrictPriority,
    /// Deficit round-robin with the given per-round byte quantum.
    Drr {
        /// Bytes of credit a queue earns per scheduling round.
        quantum: u32,
    },
    /// Order-preserving k-way merge by `meta.sort_key` (§3.1). Exact when
    /// every input queue is backlogged or has been [`ScheduledQueues::
    /// mark_ended`]; a streaming approximation otherwise.
    MergeOrder,
    /// A push-in-first-out queue (Sivaraman et al., the paper's [27] and
    /// its §5 call for programmable schedulers): every buffered packet is
    /// ranked by `meta.sort_key` and the global minimum departs first,
    /// regardless of arrival order or input queue. The rank is computed by
    /// the program (`SetSortKey`), which makes the scheduling policy
    /// itself programmable — e.g. coflow-aware shortest-coflow-first.
    Pifo,
}

/// A set of bounded queues served by one scheduler.
#[derive(Debug)]
pub struct ScheduledQueues {
    queues: Vec<BoundedQueue>,
    policy: Policy,
    /// Arrival order of queue indices (FIFO policy).
    arrivals: VecDeque<usize>,
    /// DRR state.
    deficits: Vec<u64>,
    cursor: usize,
    /// DRR: has the cursor queue received its quantum for this visit?
    topped_up: bool,
    /// MergeOrder: queues whose input flow has finished.
    ended: Vec<bool>,
    /// Pifo: (rank, seq, source queue) heap over every buffered packet.
    /// The queue membership is still tracked by the per-queue FIFOs so
    /// byte accounting and bounds behave identically; the heap only
    /// decides departure order.
    pifo: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u64, usize)>>,
    pifo_seq: u64,
}

impl ScheduledQueues {
    /// `n` queues, each bounded to `per_queue_pkts` packets.
    pub fn new(n: usize, per_queue_pkts: usize, policy: Policy) -> Self {
        ScheduledQueues {
            queues: (0..n).map(|_| BoundedQueue::new(per_queue_pkts)).collect(),
            policy,
            arrivals: VecDeque::new(),
            deficits: vec![0; n],
            cursor: 0,
            topped_up: false,
            ended: vec![false; n],
            pifo: std::collections::BinaryHeap::new(),
            pifo_seq: 0,
        }
    }

    /// Direct read access to one queue (for stats / assertions).
    pub fn queue(&self, i: usize) -> &BoundedQueue {
        &self.queues[i]
    }

    /// Total packets buffered across queues.
    pub fn len(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// True when every queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queues.iter().all(|q| q.is_empty())
    }

    /// Total tail drops across queues.
    pub fn drops(&self) -> u64 {
        self.queues.iter().map(|q| q.drops).sum()
    }

    /// Enqueue into queue `i`; a refused entry (queue full) is handed back.
    pub fn enqueue(&mut self, i: usize, p: Held) -> Result<(), Held> {
        let rank = p.rank();
        self.queues[i].push(p)?;
        self.arrivals.push_back(i);
        if self.policy == Policy::Pifo {
            self.pifo.push(std::cmp::Reverse((rank, self.pifo_seq, i)));
            self.pifo_seq += 1;
        }
        Ok(())
    }

    /// Declare that queue `i` will receive no further packets (MergeOrder
    /// uses this to release the merge when a flow finishes).
    pub fn mark_ended(&mut self, i: usize) {
        self.ended[i] = true;
    }

    /// Dequeue the next packet under the active policy. Returns the queue it
    /// came from and the packet.
    pub fn dequeue(&mut self) -> Option<(usize, Held)> {
        match self.policy {
            Policy::Fifo => self.dequeue_fifo(),
            Policy::StrictPriority => self.dequeue_priority(),
            Policy::Drr { quantum } => self.dequeue_drr(quantum),
            Policy::MergeOrder => self.dequeue_merge(),
            Policy::Pifo => self.dequeue_pifo(),
        }
    }

    fn dequeue_fifo(&mut self) -> Option<(usize, Held)> {
        let i = self.arrivals.pop_front()?;
        // The arrival list and the queues are kept in lockstep: an entry is
        // pushed only on successful enqueue and popped exactly once here.
        let p = self.queues[i]
            .pop()
            .expect("arrival list out of sync with queues");
        Some((i, p))
    }

    fn dequeue_priority(&mut self) -> Option<(usize, Held)> {
        // Consume the arrival entry belonging to the queue we pop so FIFO
        // bookkeeping stays consistent if the policy were switched.
        let i = (0..self.queues.len()).find(|&i| !self.queues[i].is_empty())?;
        self.remove_arrival(i);
        Some((i, self.queues[i].pop().unwrap()))
    }

    fn dequeue_drr(&mut self, quantum: u32) -> Option<(usize, Held)> {
        if self.is_empty() {
            return None;
        }
        let n = self.queues.len();
        // Classic DRR: each *visit* to a queue tops its deficit up by one
        // quantum; the queue is then served while the deficit covers its
        // head. `topped_up` distinguishes "still serving the cursor queue
        // within this visit" from "arriving at it fresh".
        //
        // The visit bound covers the worst case of a head many quanta large:
        // each revisit adds one quantum, so `max_head/quantum` extra rounds
        // suffice. Cap generously and fall back to plain round-robin so a
        // mis-configured (tiny) quantum can never wedge the scheduler.
        let max_head = self
            .queues
            .iter()
            .filter_map(|q| q.peek().map(|p| p.bytes as u64))
            .max()
            .unwrap_or(0);
        let rounds_needed = max_head / quantum.max(1) as u64 + 2;
        let visit_budget = rounds_needed.saturating_mul(n as u64).min(1_000_000);
        for _ in 0..visit_budget {
            let i = self.cursor;
            match self.queues[i].peek() {
                Some(head) => {
                    if !self.topped_up {
                        self.deficits[i] += quantum as u64;
                        self.topped_up = true;
                    }
                    let need = head.bytes as u64;
                    if self.deficits[i] >= need {
                        self.deficits[i] -= need;
                        self.remove_arrival(i);
                        return Some((i, self.queues[i].pop().unwrap()));
                    }
                }
                None => {
                    // Idle queues do not accumulate credit.
                    self.deficits[i] = 0;
                }
            }
            self.cursor = (self.cursor + 1) % n;
            self.topped_up = false;
        }
        // Pathological quantum: serve the next non-empty queue round-robin.
        let i = (0..n)
            .map(|k| (self.cursor + k) % n)
            .find(|&i| !self.queues[i].is_empty())?;
        self.deficits[i] = 0;
        self.cursor = (i + 1) % n;
        self.topped_up = false;
        self.remove_arrival(i);
        Some((i, self.queues[i].pop().unwrap()))
    }

    fn dequeue_merge(&mut self) -> Option<(usize, Held)> {
        // Exact merge requires every un-ended queue to be non-empty;
        // otherwise we serve the minimum among available heads (streaming
        // approximation, documented in DESIGN.md).
        let mut best: Option<(usize, u64)> = None;
        for (i, q) in self.queues.iter().enumerate() {
            if let Some(head) = q.peek() {
                let key = head.rank();
                match best {
                    Some((_, bk)) if bk <= key => {}
                    _ => best = Some((i, key)),
                }
            }
        }
        let (i, _) = best?;
        self.remove_arrival(i);
        Some((i, self.queues[i].pop().unwrap()))
    }

    fn dequeue_pifo(&mut self) -> Option<(usize, Held)> {
        // The heap orders departures; the per-queue FIFO still stores the
        // packets. Entries can go stale when a packet leaves through
        // [`ScheduledQueues::dequeue_queue`] (TM port gating); stale
        // entries are skipped lazily.
        while let Some(std::cmp::Reverse((rank, _, qi))) = self.pifo.pop() {
            if let Some(p) = self.queues[qi].take_first(|p| p.rank() == rank) {
                self.remove_arrival(qi);
                return Some((qi, p));
            }
        }
        None
    }

    /// Pop the head of one specific queue, bypassing the cross-queue
    /// policy. Traffic managers use this when the *port* behind a queue
    /// gates departure (a busy link cannot accept the policy's pick);
    /// within the queue FIFO order is preserved.
    pub fn dequeue_queue(&mut self, i: usize) -> Option<Held> {
        let p = self.queues[i].pop()?;
        self.remove_arrival(i);
        Some(p)
    }

    /// True when a MergeOrder dequeue would be *exact*: every queue either
    /// has a head or has been marked ended.
    pub fn merge_ready(&self) -> bool {
        self.queues
            .iter()
            .zip(&self.ended)
            .all(|(q, &e)| e || !q.is_empty())
    }

    fn remove_arrival(&mut self, i: usize) {
        if let Some(pos) = self.arrivals.iter().position(|&x| x == i) {
            self.arrivals.remove(pos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datapath::Agenda;
    use crate::packet::{synthetic_packet, FlowId, Packet};

    fn pkt(id: u64, len: usize) -> Packet {
        synthetic_packet(id, FlowId(id), len)
    }

    fn keyed(id: u64, key: u64) -> Packet {
        synthetic_packet(id, FlowId(id), 64).with_sort_key(key)
    }

    /// Queues plus the slab their handles name: packets go in parked and
    /// come out taken back, as a traffic manager moves them.
    struct Rig {
        s: ScheduledQueues,
        slab: Agenda<()>,
    }

    impl Rig {
        fn new(n: usize, per_queue_pkts: usize, policy: Policy) -> Self {
            let s = ScheduledQueues::new(n, per_queue_pkts, policy);
            Rig {
                s,
                slab: Agenda::default(),
            }
        }

        /// Whether `p` was admitted (a refused packet's slot is freed).
        fn enqueue(&mut self, i: usize, p: Packet) -> bool {
            let h = self.slab.park(p);
            let held = Held::new(self.slab.pkt(&h), h);
            match self.s.enqueue(i, held) {
                Ok(()) => true,
                Err(held) => {
                    self.slab.free(held.h);
                    false
                }
            }
        }

        fn dequeue(&mut self) -> Option<(usize, Packet)> {
            let (i, held) = self.s.dequeue()?;
            Some((i, self.slab.take(held.h)))
        }
    }

    impl std::ops::Deref for Rig {
        type Target = ScheduledQueues;
        fn deref(&self) -> &ScheduledQueues {
            &self.s
        }
    }

    impl std::ops::DerefMut for Rig {
        fn deref_mut(&mut self) -> &mut ScheduledQueues {
            &mut self.s
        }
    }

    #[test]
    fn fifo_preserves_global_arrival_order() {
        let mut s = Rig::new(3, 16, Policy::Fifo);
        assert!(s.enqueue(2, pkt(0, 64)));
        s.enqueue(0, pkt(1, 64));
        s.enqueue(1, pkt(2, 64));
        s.enqueue(0, pkt(3, 64));
        let order: Vec<u64> = std::iter::from_fn(|| s.dequeue())
            .map(|(_, p)| p.meta.id)
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn strict_priority_prefers_low_queues() {
        let mut s = Rig::new(2, 16, Policy::StrictPriority);
        s.enqueue(1, pkt(0, 64));
        s.enqueue(0, pkt(1, 64));
        s.enqueue(1, pkt(2, 64));
        assert_eq!(s.dequeue().unwrap().1.meta.id, 1);
        assert_eq!(s.dequeue().unwrap().1.meta.id, 0);
        assert_eq!(s.dequeue().unwrap().1.meta.id, 2);
    }

    #[test]
    fn drr_shares_bandwidth_fairly() {
        let mut s = Rig::new(2, 1024, Policy::Drr { quantum: 1500 });
        // Queue 0 sends 1500 B packets, queue 1 sends 500 B packets.
        for i in 0..30 {
            s.enqueue(0, pkt(i, 1500));
            s.enqueue(1, pkt(100 + i * 3, 500));
            s.enqueue(1, pkt(101 + i * 3, 500));
            s.enqueue(1, pkt(102 + i * 3, 500));
        }
        let mut bytes = [0u64; 2];
        for _ in 0..40 {
            let (q, p) = s.dequeue().unwrap();
            bytes[q] += p.frame_bytes() as u64;
        }
        let ratio = bytes[0] as f64 / bytes[1] as f64;
        assert!(
            (0.7..1.4).contains(&ratio),
            "DRR byte shares should be near-equal, got {bytes:?}"
        );
    }

    #[test]
    fn drr_makes_progress_on_oversized_heads() {
        let mut s = Rig::new(1, 8, Policy::Drr { quantum: 10 });
        s.enqueue(0, pkt(0, 1500));
        assert!(s.dequeue().is_some(), "oversized head must still be served");
    }

    #[test]
    fn merge_emits_sorted_union_of_sorted_inputs() {
        let mut s = Rig::new(3, 64, Policy::MergeOrder);
        // Three flows, each sorted by key.
        for (q, keys) in [(0usize, [1u64, 5, 9]), (1, [2, 6, 10]), (2, [3, 4, 11])] {
            for (j, k) in keys.iter().enumerate() {
                s.enqueue(q, keyed(q as u64 * 10 + j as u64, *k));
            }
        }
        assert!(s.merge_ready());
        let keys: Vec<u64> = std::iter::from_fn(|| s.dequeue())
            .map(|(_, p)| p.meta.sort_key.unwrap())
            .collect();
        assert_eq!(keys, vec![1, 2, 3, 4, 5, 6, 9, 10, 11]);
    }

    #[test]
    fn merge_ready_respects_ended_queues() {
        let mut s = Rig::new(2, 8, Policy::MergeOrder);
        s.enqueue(0, keyed(0, 5));
        assert!(!s.merge_ready(), "queue 1 empty and not ended");
        s.mark_ended(1);
        assert!(s.merge_ready());
    }

    #[test]
    fn pifo_departs_by_global_rank() {
        let mut s = Rig::new(3, 64, Policy::Pifo);
        // Ranks arrive thoroughly out of order, across queues.
        for (q, id, rank) in [
            (0usize, 1u64, 50u64),
            (1, 2, 10),
            (2, 3, 99),
            (0, 4, 5),
            (1, 5, 70),
            (2, 6, 10), // tie with id 2: arrival order breaks it
        ] {
            s.enqueue(q, keyed(id, rank));
        }
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| s.dequeue())
            .map(|(_, p)| (p.meta.sort_key.unwrap(), p.meta.id))
            .collect();
        assert_eq!(
            order,
            vec![(5, 4), (10, 2), (10, 6), (50, 1), (70, 5), (99, 3)]
        );
    }

    #[test]
    fn pifo_unranked_packets_depart_last() {
        let mut s = Rig::new(1, 8, Policy::Pifo);
        s.enqueue(0, pkt(1, 64)); // no sort key -> rank MAX
        s.enqueue(0, keyed(2, 3));
        assert_eq!(s.dequeue().unwrap().1.meta.id, 2);
        assert_eq!(s.dequeue().unwrap().1.meta.id, 1);
        assert!(s.dequeue().is_none());
    }

    #[test]
    fn pifo_byte_accounting_stays_exact() {
        let mut s = Rig::new(2, 64, Policy::Pifo);
        s.enqueue(0, synthetic_packet(1, FlowId(1), 100).with_sort_key(9));
        s.enqueue(0, synthetic_packet(2, FlowId(1), 200).with_sort_key(1));
        s.enqueue(1, synthetic_packet(3, FlowId(2), 300).with_sort_key(5));
        assert_eq!(s.queue(0).bytes(), 300);
        // Rank 1 departs from the *interior* of queue 0.
        let (q, p) = s.dequeue().unwrap();
        assert_eq!((q, p.meta.id), (0, 2));
        assert_eq!(s.queue(0).bytes(), 100);
        assert_eq!(s.dequeue().unwrap().1.meta.id, 3);
        assert_eq!(s.dequeue().unwrap().1.meta.id, 1);
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn drops_counted_across_queues() {
        let mut s = Rig::new(2, 1, Policy::Fifo);
        s.enqueue(0, pkt(0, 64));
        s.enqueue(0, pkt(1, 64)); // dropped
        s.enqueue(1, pkt(2, 64));
        assert_eq!(s.drops(), 1);
        assert_eq!(s.len(), 2);
    }
}
