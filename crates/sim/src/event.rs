//! Deterministic event queue.
//!
//! The event loop is single-threaded and deterministic: events scheduled
//! for the same virtual instant fire in FIFO scheduling order (a strictly
//! increasing sequence number breaks ties).  Concurrency-sensitive *data
//! structures* in the reproduction (io_uring rings, blk-mq tag sets) are
//! separately validated with real threads; the *timing* model stays
//! sequential so that every figure of the paper regenerates bit-identically.
//!
//! # Hot-path layout
//!
//! The queue is an index-based **4-ary min-heap** over `(SimTime, seq)`
//! keys.  Heap entries are small `(key, slot)` records ordered in the
//! heap vector; payloads live out-of-line in a slot arena whose entries
//! are recycled through a free list, so a steady schedule/pop workload
//! reaches a fixed memory footprint and stops calling the allocator
//! altogether.  Compared with the former `BinaryHeap<Scheduled<E>>`:
//!
//! * sift operations move 24-byte entries instead of whole payloads;
//! * the 4-ary shape halves the tree depth, trading two extra key
//!   compares per level (branch-predictable, same cache line) for half
//!   the cache-missing level hops;
//! * keys stay inline in the heap vector, so comparisons never chase a
//!   pointer into the arena.
//!
//! Pop order is a pure function of `(at, seq)`, so the replacement is
//! bit-identical to the old queue for every schedule history.

use crate::time::SimTime;

/// One heap record: the ordering key pair plus the arena slot holding
/// the payload.
#[derive(Clone, Copy)]
struct Entry {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl Entry {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// Heap arity.  4 keeps parent+children inside one or two cache lines
/// (4 × 24 B) and halves the depth of the binary layout.
const ARITY: usize = 4;

/// A min-ordered queue of timestamped events with deterministic FIFO
/// tie-breaking.
pub struct EventQueue<E> {
    /// Implicit 4-ary heap of `(key, slot)` records.
    heap: Vec<Entry>,
    /// Slot arena: payload storage indexed by `Entry::slot`.
    slots: Vec<Option<E>>,
    /// Recycled arena slots.
    free: Vec<u32>,
    next_seq: u64,
    now: SimTime,
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
            heap: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Empty queue with room for `n` pending events before reallocating.
    pub fn with_capacity(n: usize) -> Self {
        EventQueue {
            heap: Vec::with_capacity(n),
            slots: Vec::with_capacity(n),
            free: Vec::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current virtual time (the timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Arena capacity currently allocated (slots live + recycled).  The
    /// steady-state footprint of a schedule/pop loop: stops growing once
    /// the high-water mark of concurrently pending events is reached.
    pub fn arena_slots(&self) -> usize {
        self.slots.len()
    }

    /// Schedule `payload` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` lies in the past — scheduling into the past is
    /// always a modelling bug.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) {
        assert!(at >= self.now, "event scheduled in the past: {at} < {}", self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(payload);
                s
            }
            None => {
                let s = self.slots.len() as u32;
                self.slots.push(Some(payload));
                s
            }
        };
        self.heap.push(Entry { at, seq, slot });
        self.sift_up(self.heap.len() - 1);
    }

    /// Pop the next event, advancing virtual time to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.heap.is_empty() {
            return None;
        }
        Some(self.pop_root())
    }

    /// Timestamp of the next pending event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|e| e.at)
    }

    /// Semantically `schedule_at(at, payload)` followed by
    /// `pop().unwrap()`, fused.  When the current root pops (it does
    /// whenever `root.at <= at` — the incoming event carries the
    /// largest seq, so it never wins a tie), the new payload reuses the
    /// root's arena slot and a single `sift_down` replaces the push's
    /// `sift_up` plus the pop's `swap_remove` + free-list round trip.
    ///
    /// # Panics
    /// Panics if `at` lies in the past.
    pub fn schedule_at_then_pop(&mut self, at: SimTime, payload: E) -> (SimTime, E) {
        assert!(at >= self.now, "event scheduled in the past: {at} < {}", self.now);
        match self.heap.first() {
            Some(root) if root.at <= at => {
                let root = *root;
                let seq = self.next_seq;
                self.next_seq += 1;
                let out = self.slots[root.slot as usize]
                    .replace(payload)
                    .expect("heap entry points at a live slot");
                self.heap[0] = Entry { at, seq, slot: root.slot };
                self.sift_down(0);
                debug_assert!(root.at >= self.now, "clock went backwards");
                self.now = root.at;
                (root.at, out)
            }
            _ => {
                // The new event is the global minimum (or the queue is
                // empty): it comes straight back without entering the
                // heap.  A seq is still consumed to keep numbering in
                // step with the unfused schedule + pop pair.
                self.next_seq += 1;
                self.now = at;
                (at, payload)
            }
        }
    }

    fn pop_root(&mut self) -> (SimTime, E) {
        let root = self.heap.swap_remove(0);
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        debug_assert!(root.at >= self.now, "clock went backwards");
        self.now = root.at;
        let payload = self.slots[root.slot as usize]
            .take()
            .expect("heap entry points at a live slot");
        self.free.push(root.slot);
        (root.at, payload)
    }

    #[inline]
    fn sift_up(&mut self, mut i: usize) {
        let moved = self.heap[i];
        let key = moved.key();
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.heap[parent].key() <= key {
                break;
            }
            self.heap[i] = self.heap[parent];
            i = parent;
        }
        self.heap[i] = moved;
    }

    #[inline]
    fn sift_down(&mut self, mut i: usize) {
        let moved = self.heap[i];
        let key = moved.key();
        let len = self.heap.len();
        loop {
            let first = i * ARITY + 1;
            if first >= len {
                break;
            }
            // Smallest of up to four children.
            let end = (first + ARITY).min(len);
            let mut min_c = first;
            let mut min_key = self.heap[first].key();
            for c in first + 1..end {
                let k = self.heap[c].key();
                if k < min_key {
                    min_c = c;
                    min_key = k;
                }
            }
            if key <= min_key {
                break;
            }
            self.heap[i] = self.heap[min_c];
            i = min_c;
        }
        self.heap[i] = moved;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn events_pop_in_time_order() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule_at(SimTime(30), 3);
        q.schedule_at(SimTime(10), 1);
        q.schedule_at(SimTime(20), 2);
        assert_eq!(q.pop().unwrap(), (SimTime(10), 1));
        assert_eq!(q.pop().unwrap(), (SimTime(20), 2));
        assert_eq!(q.pop().unwrap(), (SimTime(30), 3));
        assert!(q.pop().is_none());
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut q: EventQueue<u32> = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(SimTime(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i, "FIFO order for equal timestamps");
        }
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.schedule_at(SimTime(10), ());
        q.pop();
        assert_eq!(q.now(), SimTime(10));
        q.schedule_at(q.now() + SimDuration(5), ());
        assert_eq!(q.peek_time(), Some(SimTime(15)));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.schedule_at(SimTime(10), ());
        q.pop();
        q.schedule_at(SimTime(5), ());
    }

    #[test]
    fn matches_reference_model_on_random_history() {
        // Differential test: the 4-ary arena heap must pop in exactly the
        // order a sorted reference model predicts, across interleaved
        // schedule/pop batches with heavy timestamp collisions.
        use crate::rng::{SimRng, Xoshiro256};
        let mut rng = Xoshiro256::seed_from_u64(0x4A11);
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut model: std::collections::BTreeSet<(SimTime, u64)> = Default::default();
        let mut seq = 0u64;
        for _round in 0..200 {
            for _ in 0..rng.gen_range(8) + 1 {
                // Few distinct timestamps → many FIFO ties.
                let at = q.now() + SimDuration(rng.gen_range(4));
                q.schedule_at(at, seq);
                model.insert((at, seq));
                seq += 1;
            }
            for _ in 0..rng.gen_range(8) {
                let expect = model.pop_first();
                let got = q.pop();
                assert_eq!(got, expect);
                if got.is_none() {
                    break;
                }
            }
        }
        while let Some((t, p)) = q.pop() {
            assert_eq!(model.pop_first(), Some((t, p)));
        }
        assert!(model.is_empty());
    }

    #[test]
    fn arena_recycles_slots() {
        let mut q: EventQueue<u64> = EventQueue::new();
        // Steady-state schedule/pop with at most 8 pending events: the
        // arena must not grow past the high-water mark.
        for i in 0..8u64 {
            q.schedule_at(SimTime(i), i);
        }
        for i in 8..10_000u64 {
            let (_, p) = q.pop().unwrap();
            assert_eq!(p, i - 8);
            q.schedule_at(SimTime(i), i);
        }
        assert_eq!(q.arena_slots(), 8, "slots recycled, not leaked");
        assert_eq!(q.len(), 8);
    }

    #[test]
    fn schedule_at_then_pop_matches_unfused_pair() {
        use crate::rng::{SimRng, Xoshiro256};
        let mut rng = Xoshiro256::seed_from_u64(0xF05E);
        let mut fused: EventQueue<u64> = EventQueue::new();
        let mut plain: EventQueue<u64> = EventQueue::new();
        let mut id = 0u64;
        for i in 0..8u64 {
            fused.schedule_at(SimTime(i * 3), id);
            plain.schedule_at(SimTime(i * 3), id);
            id += 1;
        }
        for _ in 0..2000 {
            let at = plain.now() + SimDuration(rng.gen_range(6));
            let a = fused.schedule_at_then_pop(at, id);
            plain.schedule_at(at, id);
            let b = plain.pop().unwrap();
            assert_eq!(a, b);
            id += 1;
        }
        loop {
            let (a, b) = (fused.pop(), plain.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
