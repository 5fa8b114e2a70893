//! The engine's event queue: the single-heap [`EventQueue`] plus
//! conservative time-window accounting.
//!
//! # Window accounting
//!
//! The queue carries a **lookahead** `L` — in the engine, the minimum
//! link propagation plus the service-time floor, re-derived whenever a
//! fault plane or OsdMap mutation can change either.  The conservative
//! PDES rule: an event executing at `t ∈ [m, m + L)` (where `m` is the
//! earliest pending time) can only schedule successors at `t' ≥ t + L ≥
//! m + L`, so every event strictly below the **horizon** `m + L` is
//! committed — no in-flight event can preempt it.  Each pop is counted
//! against that rule ([`WindowStats`]: windows opened, events popped
//! below the open window's horizon), so the engine can report how much
//! commit-ahead the model's timing floors would allow.  The queue never
//! *acts* on the horizon: pop order is a pure function of the global
//! `(at, seq)` key, so a stale or conservative lookahead can cost
//! statistics fidelity but never correctness.

use crate::event::EventQueue;
use crate::time::{SimDuration, SimTime};

/// Conservative time-window accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Windows opened: pops at or above the cached horizon, each of
    /// which re-anchors the horizon at `at + lookahead`.
    pub windows: u64,
    /// Events popped strictly below an already-open window's horizon —
    /// pops the conservative rule had pre-committed.
    pub drained: u64,
    /// Sum of window widths in nanoseconds (the lookahead in force when
    /// each window opened).
    pub width_ns: u64,
}

/// The engine-facing queue: an [`EventQueue`] whose pops are counted
/// into [`WindowStats`] against the configured lookahead.
pub struct LaneQueue<E> {
    queue: EventQueue<E>,
    lookahead: SimDuration,
    /// Horizon of the currently open window.
    horizon: SimTime,
    stats: WindowStats,
}

impl<E> LaneQueue<E> {
    /// Empty queue with room for `capacity` pending events, zero
    /// lookahead (every pop opens its own window until one is set).
    pub fn with_capacity(capacity: usize) -> Self {
        LaneQueue {
            queue: EventQueue::with_capacity(capacity),
            lookahead: SimDuration::ZERO,
            horizon: SimTime::ZERO,
            stats: WindowStats::default(),
        }
    }

    /// [`with_capacity`](Self::with_capacity); `_lanes` is unused.
    /// Kept only for `perfbench/src/*.rs`; goes with the next change to
    /// the benchmark.
    pub fn new(_lanes: usize, capacity: usize) -> Self {
        Self::with_capacity(capacity)
    }

    /// Current virtual time (the timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Timestamp of the next pending event.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Schedule `payload` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` lies in the past.
    #[inline]
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        self.queue.schedule_at(at, payload);
    }

    /// [`schedule`](Self::schedule); `_lane` is unused.  Kept only for
    /// `perfbench/src/*.rs`; goes with the next change to the benchmark.
    #[inline]
    pub fn schedule_at(&mut self, _lane: usize, at: SimTime, payload: E) {
        self.schedule(at, payload);
    }

    /// Pop the globally next event.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let popped = self.queue.pop();
        if let Some((at, _)) = &popped {
            self.note_pop(*at);
        }
        popped
    }

    /// Semantically `schedule(at, payload)` followed by
    /// `pop().unwrap()`, fused (see [`EventQueue::schedule_at_then_pop`]).
    #[inline]
    pub fn schedule_at_then_pop(&mut self, at: SimTime, payload: E) -> (SimTime, E) {
        let popped = self.queue.schedule_at_then_pop(at, payload);
        self.note_pop(popped.0);
        popped
    }

    /// Set the conservative lookahead and close the open window (the
    /// next pop re-anchors the horizon under the new bound).  Called
    /// whenever a fault-plane or map mutation changes the minimum
    /// propagation + service floor the lookahead was derived from.
    pub fn set_lookahead(&mut self, lookahead: SimDuration) {
        self.lookahead = lookahead;
        self.horizon = self.queue.now();
    }

    /// Window accounting so far.
    #[inline]
    pub fn window_stats(&self) -> WindowStats {
        self.stats
    }

    /// Window accounting for one pop at `at`.
    #[inline]
    fn note_pop(&mut self, at: SimTime) {
        if at < self.horizon {
            self.stats.drained += 1;
        } else {
            self.stats.windows += 1;
            self.stats.width_ns += self.lookahead.as_nanos();
            self.horizon = at + self.lookahead;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(windows: u64, drained: u64, width_ns: u64) -> WindowStats {
        WindowStats {
            windows,
            drained,
            width_ns,
        }
    }

    #[test]
    fn window_stats_count_drained_pops() {
        let mut q: LaneQueue<u32> = LaneQueue::with_capacity(8);
        q.set_lookahead(SimDuration(10));
        for (i, t) in [100u64, 104, 108, 200, 205].into_iter().enumerate() {
            q.schedule(SimTime(t), i as u32);
        }
        while q.pop().is_some() {}
        // 100 opens (horizon 110), 104 + 108 drain, 200 opens
        // (horizon 210), 205 drains.
        assert_eq!(q.window_stats(), stats(2, 3, 20));
    }

    #[test]
    fn set_lookahead_closes_the_open_window() {
        let mut q: LaneQueue<u32> = LaneQueue::with_capacity(8);
        q.set_lookahead(SimDuration(10));
        q.schedule(SimTime(100), 0);
        q.schedule(SimTime(104), 1);
        q.schedule(SimTime(106), 2);
        assert_eq!(q.pop(), Some((SimTime(100), 0)));
        assert_eq!(q.window_stats(), stats(1, 0, 10));
        // Without the re-derivation 104 would drain under horizon 110;
        // the new lookahead closes the window, so 104 opens its own.
        q.set_lookahead(SimDuration(3));
        assert_eq!(q.pop(), Some((SimTime(104), 1)));
        assert_eq!(q.window_stats(), stats(2, 0, 13));
        // 106 is under the new horizon 107 and drains (fused pop path).
        assert_eq!(q.schedule_at_then_pop(SimTime(120), 3), (SimTime(106), 2));
        assert_eq!(q.window_stats(), stats(2, 1, 13));
        assert_eq!(q.len(), 1);
    }
}
