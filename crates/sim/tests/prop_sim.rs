//! Property tests for the simulation substrate: clock monotonicity,
//! queueing-resource conservation, histogram accuracy bounds, and the
//! engine queue's window accounting.

use deliba_sim::{
    Bandwidth, EventQueue, Histogram, LaneQueue, Server, SimDuration, SimTime, WindowStats,
};
use proptest::prelude::*;

/// One step of a mixed queue history thrown at both the engine queue
/// and the plain heap.
#[derive(Debug, Clone)]
enum QOp {
    /// Schedule `now + delta`.
    Schedule { delta: u64 },
    /// Pop the global minimum from both queues.
    Pop,
    /// Fused schedule + pop (the closed loop's hot call).
    Fused { delta: u64 },
    /// Change the lookahead mid-run — including shrinking it to zero.
    /// The plain heap has no lookahead at all, so agreement after this
    /// step proves ordering never depends on it.
    SetLookahead { l: u64 },
}

fn qop() -> impl Strategy<Value = QOp> {
    prop_oneof![
        (0u64..50).prop_map(|delta| QOp::Schedule { delta }),
        Just(QOp::Pop),
        (0u64..50).prop_map(|delta| QOp::Fused { delta }),
        (0u64..200).prop_map(|l| QOp::SetLookahead { l }),
    ]
}

/// What the window accounting sees: a pop at a time, or a lookahead
/// change at the current clock.
#[derive(Debug, Clone, Copy)]
enum Seen {
    Popped(SimTime),
    Lookahead { l: SimDuration, now: SimTime },
}

/// Reference window accounting, folded over the history: a pop opens a
/// window unless it lies strictly below the horizon of the window still
/// open; a lookahead change closes the open window at the current clock.
fn window_fold(history: &[Seen]) -> WindowStats {
    let (mut l, mut horizon) = (SimDuration::ZERO, SimTime::ZERO);
    history.iter().fold(WindowStats::default(), |mut s, step| {
        match *step {
            Seen::Lookahead { l: new, now } => {
                l = new;
                horizon = now;
            }
            Seen::Popped(t) if t < horizon => s.drained += 1,
            Seen::Popped(t) => {
                s.windows += 1;
                s.width_ns += l.as_nanos();
                horizon = t + l;
            }
        }
        s
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Events always pop in nondecreasing time order, FIFO on ties.
    #[test]
    fn event_queue_monotone(
        times in proptest::collection::vec(0u64..1_000, 1..200),
    ) {
        let mut q: EventQueue<usize> = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_nanos(t), i);
        }
        let mut last_t = 0;
        let mut last_seq_at_t = 0;
        let mut popped = 0;
        while let Some((t, idx)) = q.pop() {
            prop_assert!(t.as_nanos() >= last_t);
            if t.as_nanos() == last_t {
                prop_assert!(idx > last_seq_at_t || popped == 0, "FIFO tie-break");
            }
            last_t = t.as_nanos();
            last_seq_at_t = idx;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// A FIFO server never overlaps requests and never idles while work
    /// is queued (work-conserving): total busy time == Σ service.
    #[test]
    fn server_work_conserving(
        jobs in proptest::collection::vec((0u64..10_000, 1u64..1_000), 1..100),
    ) {
        let mut s = Server::new();
        let mut jobs = jobs;
        jobs.sort_by_key(|&(a, _)| a); // arrivals in time order
        let mut total = 0u64;
        let mut prev_finish = 0u64;
        for (arrive, service) in jobs {
            let (start, finish) = s.begin(
                SimTime::from_nanos(arrive),
                SimDuration::from_nanos(service),
            );
            // No overlap with the previous job, no start before arrival.
            prop_assert!(start.as_nanos() >= arrive);
            prop_assert!(start.as_nanos() >= prev_finish);
            // Work conserving: starts exactly at max(arrival, prev end).
            prop_assert_eq!(start.as_nanos(), arrive.max(prev_finish));
            prop_assert_eq!(finish.as_nanos() - start.as_nanos(), service);
            prev_finish = finish.as_nanos();
            total += service;
        }
        prop_assert_eq!(s.busy_time().as_nanos(), total);
    }

    /// Bandwidth transfers conserve bytes and never beat the line rate.
    #[test]
    fn bandwidth_never_beats_line_rate(
        transfers in proptest::collection::vec(1u64..100_000, 1..50),
    ) {
        let rate = 1e9; // 1 GB/s
        let mut bw = Bandwidth::new(rate, SimDuration::ZERO);
        let mut last = SimTime::ZERO;
        let mut total = 0u64;
        for &bytes in &transfers {
            last = bw.transfer(SimTime::ZERO, bytes);
            total += bytes;
        }
        prop_assert_eq!(bw.bytes_moved(), total);
        let min_ns = (total as f64 / rate * 1e9).floor() as u64;
        prop_assert!(last.as_nanos() + 1 >= min_ns,
            "finished {} < physical minimum {}", last.as_nanos(), min_ns);
    }

    /// Histogram quantiles stay within the documented ~3.1 % relative
    /// error for any sample set.
    #[test]
    fn histogram_error_bounded(
        samples in proptest::collection::vec(1u64..1_000_000, 1..300),
    ) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(SimDuration::from_nanos(s));
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let exact_max = *sorted.last().unwrap();
        prop_assert_eq!(h.max_ns(), exact_max);
        let exact_median = sorted[(sorted.len() - 1) / 2];
        let got = h.quantile_ns(0.5);
        let err = (got as f64 - exact_median as f64).abs() / exact_median as f64;
        prop_assert!(err < 0.05, "median {} vs {} (err {})", got, exact_median, err);
        // Mean is exact (tracked outside the buckets).
        let exact_mean: f64 = samples.iter().map(|&s| s as f64).sum::<f64>() / samples.len() as f64;
        prop_assert!((h.mean_ns() - exact_mean).abs() < 1e-6);
    }

    /// The interpolated `Histogram::quantile` stays within one
    /// sub-bucket (`exact/32 + 1` ns) of a sorted-vector reference
    /// model at every quantile the reports use, and is monotone in `q`.
    #[test]
    fn interpolated_quantile_matches_reference_model(
        samples in proptest::collection::vec(1u64..10_000_000, 1..400),
    ) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(SimDuration::from_nanos(s));
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let n = sorted.len() as f64;
        let mut last = f64::NEG_INFINITY;
        for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0] {
            // Same rank convention as the histogram: ceil(q·n), 1-based.
            let rank = ((q * n).ceil() as usize).max(1);
            let exact = sorted[rank - 1] as f64;
            let est = h.quantile(q);
            let bound = exact / 32.0 + 1.0;
            prop_assert!(
                (est - exact).abs() <= bound,
                "q={} est={} exact={} bound={}", q, est, exact, bound
            );
            prop_assert!(est >= last, "quantile must be monotone in q");
            prop_assert!(
                est >= *sorted.first().unwrap() as f64
                    && est <= *sorted.last().unwrap() as f64,
                "estimate clamped to the observed range"
            );
            last = est;
        }
    }

    /// For any mixed history — schedules, plain and fused pops, and
    /// mid-run lookahead changes (growth and shrinkage alike) — the
    /// engine queue pops exactly the plain heap's `(at, seq)` order,
    /// and its window accounting equals the reference fold over the
    /// popped times.
    #[test]
    fn lane_queue_matches_heap_and_window_fold(
        ops in proptest::collection::vec(qop(), 1..160),
    ) {
        let mut lane: LaneQueue<u64> = LaneQueue::with_capacity(16);
        let mut heap: EventQueue<u64> = EventQueue::new();
        let mut history: Vec<Seen> = Vec::new();
        let mut id = 0u64;
        for op in ops {
            let popped = match op {
                QOp::Schedule { delta } => {
                    let at = heap.now() + SimDuration::from_nanos(delta);
                    lane.schedule(at, id);
                    heap.schedule_at(at, id);
                    id += 1;
                    None
                }
                QOp::Pop => {
                    let e = heap.pop();
                    prop_assert_eq!(lane.pop(), e);
                    e
                }
                QOp::Fused { delta } => {
                    let at = heap.now() + SimDuration::from_nanos(delta);
                    let e = heap.schedule_at_then_pop(at, id);
                    prop_assert_eq!(lane.schedule_at_then_pop(at, id), e);
                    id += 1;
                    Some(e)
                }
                QOp::SetLookahead { l } => {
                    let l = SimDuration::from_nanos(l);
                    lane.set_lookahead(l);
                    history.push(Seen::Lookahead { l, now: heap.now() });
                    None
                }
            };
            if let Some((t, _)) = popped {
                history.push(Seen::Popped(t));
            }
            prop_assert_eq!(lane.len(), heap.len());
            prop_assert_eq!(lane.peek_time(), heap.peek_time());
            prop_assert_eq!(lane.now(), heap.now());
            prop_assert_eq!(lane.window_stats(), window_fold(&history));
        }
        while let Some(e) = heap.pop() {
            prop_assert_eq!(lane.pop(), Some(e));
            history.push(Seen::Popped(e.0));
        }
        prop_assert!(lane.is_empty());
        let stats = lane.window_stats();
        prop_assert_eq!(stats, window_fold(&history));
        let pops = history.iter().filter(|s| matches!(s, Seen::Popped(_))).count() as u64;
        prop_assert_eq!(stats.windows + stats.drained, pops, "every pop is counted once");
    }
}
