//! One observation handle over every per-run sink.
//!
//! A run can be observed three ways: the per-stage latency fold behind
//! `StageBreakdown` ([`StageTracer`]), the per-I/O flight-recorder ring
//! ([`TraceSink`]) and the windowed telemetry series
//! ([`MetricsRecorder`]).  The engine and every layer below it record
//! through one cloneable [`Observer`], and each typed event is emitted
//! once: a stage walk feeds both the fold and the ring, a fault firing
//! both the ring and the series.
//!
//! Each sink is allocated only when its level is armed — the fold from
//! [`TraceDepth::Stages`], the ring from [`TraceDepth::Spans`], the
//! series when a [`TelemetryConfig`] is given — and with nothing armed
//! the handle is `None`, so every emit is a single branch with no
//! allocation or arithmetic behind it.  The trace depth is copied into
//! the handle itself, so layers test [`Observer::full`] without
//! touching the shared cell.

use crate::stage::{Stage, StageTracer};
use crate::time::{SimDuration, SimTime};
use crate::timeseries::{GaugeSnapshot, MetricsRecorder, SloSummary, TelemetryConfig};
use crate::trace::{InstantKind, TraceDepth, TraceLayer, TraceSink};
use std::cell::RefCell;
use std::rc::Rc;

/// The sinks behind an armed [`Observer`]; each is `None` unless armed.
#[derive(Debug)]
struct Sinks {
    stages: Option<StageTracer>,
    ring: Option<TraceSink>,
    series: Option<MetricsRecorder>,
}

/// The shared observation handle.  Clones record into the same sinks;
/// the default handle has every sink off.
#[derive(Debug, Clone, Default)]
pub struct Observer {
    sinks: Option<Rc<RefCell<Sinks>>>,
    depth: TraceDepth,
}

impl Observer {
    /// Arm the sinks `depth` and `telemetry` ask for; the ring holds at
    /// most `ring_cap` events.  Nothing armed yields the off handle.
    pub fn new(depth: TraceDepth, ring_cap: usize, telemetry: Option<TelemetryConfig>) -> Self {
        let sinks = Sinks {
            stages: (depth >= TraceDepth::Stages).then(StageTracer::new),
            ring: (depth >= TraceDepth::Spans).then(|| TraceSink::new(depth, ring_cap)),
            series: telemetry.map(MetricsRecorder::new),
        };
        let armed = sinks.stages.is_some() || sinks.series.is_some();
        Observer { sinks: armed.then(|| Rc::new(RefCell::new(sinks))), depth }
    }

    /// Is any sink armed?
    pub fn is_on(&self) -> bool {
        self.sinks.is_some()
    }

    /// The trace depth the handle was armed at.
    pub fn depth(&self) -> TraceDepth {
        self.depth
    }

    /// Is the ring capturing per-layer events and counters?  Reads the
    /// handle's own copy of the depth, so it costs no borrow.
    pub fn full(&self) -> bool {
        self.depth == TraceDepth::Full
    }

    fn ring_mut(&self, f: impl FnOnce(&mut TraceSink)) {
        let Some(sinks) = &self.sinks else { return };
        if let Some(r) = sinks.borrow_mut().ring.as_mut() {
            f(r);
        }
    }

    fn series_mut<R>(&self, f: impl FnOnce(&mut MetricsRecorder) -> R) -> Option<R> {
        self.sinks.as_ref().and_then(|s| s.borrow_mut().series.as_mut().map(f))
    }

    /// Tag subsequent ring events with the I/O id and queue-slot lane
    /// the engine is executing.
    pub fn set_ctx(&self, io: u64, lane: u32) {
        self.ring_mut(|r| r.set_ctx(io, lane));
    }

    /// One I/O's stage walk: `spans` telescope from `start` in
    /// critical-path order.  Folds every span (zeros included) into
    /// the stage histograms and, with the ring on, records a begin/end
    /// pair per span on the current lane.
    pub fn op_spans(&self, start: SimTime, spans: &[(Stage, SimDuration)]) {
        let Some(sinks) = &self.sinks else { return };
        let mut s = sinks.borrow_mut();
        if let Some(t) = s.stages.as_mut() {
            for &(stage, span) in spans {
                t.record(stage, span);
            }
            t.record_op();
        }
        if let Some(r) = s.ring.as_mut() {
            r.op_spans(start, spans);
        }
    }

    /// A fault-plane firing: pins it to its telemetry window and
    /// records it as a fault-layer instant on `lane`.
    pub fn fault(&self, at: SimTime, lane: u32, kind: InstantKind, detail: u64) {
        let Some(sinks) = &self.sinks else { return };
        let mut s = sinks.borrow_mut();
        if let Some(series) = s.series.as_mut() {
            series.annotate(at, kind, detail);
        }
        if let Some(r) = s.ring.as_mut() {
            r.instant(at, TraceLayer::Fault, Some(lane), kind, detail);
        }
    }

    /// A ring instant on the current I/O's lane.
    pub fn instant(&self, at: SimTime, layer: TraceLayer, kind: InstantKind, detail: u64) {
        self.ring_mut(|r| r.instant(at, layer, None, kind, detail));
    }

    /// A ring instant on an explicit lane (OSD id, queue id, ring id).
    pub fn instant_lane(
        &self,
        at: SimTime,
        layer: TraceLayer,
        lane: u32,
        kind: InstantKind,
        detail: u64,
    ) {
        self.ring_mut(|r| r.instant(at, layer, Some(lane), kind, detail));
    }

    /// A ring counter sample.
    pub fn counter(&self, at: SimTime, name: &'static str, value: u64) {
        self.ring_mut(|r| r.counter(at, name, value));
    }

    /// One completed op into the series (see [`MetricsRecorder::op`]).
    pub fn op(&self, complete: SimTime, latency: SimDuration, bytes: u64) {
        self.series_mut(|r| r.op(complete, latency, bytes));
    }

    /// One admission drop into the series.
    pub fn drop_op(&self, at: SimTime) {
        self.series_mut(|r| r.drop_op(at));
    }

    /// Should the engine take a gauge snapshot at `now`?
    pub fn needs_sample(&self, now: SimTime) -> bool {
        let Some(sinks) = &self.sinks else { return false };
        sinks.borrow().series.as_ref().is_some_and(|r| r.needs_sample(now))
    }

    /// Close series windows up to `now`'s with `snap`'s gauges.
    pub fn sample(&self, now: SimTime, snap: GaugeSnapshot) {
        self.series_mut(|r| r.sample(now, snap));
    }

    /// Close every remaining series window at run end, taking the
    /// final gauges from `snap` (called only when the series is on).
    /// Returns the SLO verdict and the series' configuration; `None`
    /// when the series is off.
    pub fn finish(
        &self,
        end: SimTime,
        snap: impl FnOnce() -> GaugeSnapshot,
    ) -> Option<(SloSummary, TelemetryConfig)> {
        self.series_mut(|r| {
            r.finish(end, snap());
            (r.slo(), r.config())
        })
    }

    /// Run `f` against the stage fold; `None` when it is off.
    pub fn stages<R>(&self, f: impl FnOnce(&StageTracer) -> R) -> Option<R> {
        self.sinks.as_ref().and_then(|s| s.borrow().stages.as_ref().map(f))
    }

    /// Run `f` against the ring; `None` when it is off.
    pub fn ring<R>(&self, f: impl FnOnce(&TraceSink) -> R) -> Option<R> {
        self.sinks.as_ref().and_then(|s| s.borrow().ring.as_ref().map(f))
    }

    /// Run `f` against the series; `None` when it is off.
    pub fn series<R>(&self, f: impl FnOnce(&MetricsRecorder) -> R) -> Option<R> {
        self.sinks.as_ref().and_then(|s| s.borrow().series.as_ref().map(f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimTime {
        SimTime::from_nanos(n * 1_000)
    }

    fn emit_everything(o: &Observer) {
        o.set_ctx(7, 2);
        o.op_spans(
            us(1),
            &[(Stage::Submit, SimDuration::from_micros(3)), (Stage::BlkMq, SimDuration::ZERO)],
        );
        o.fault(us(2), 5, InstantKind::OsdCrash, 5);
        o.instant(us(3), TraceLayer::Engine, InstantKind::Retry, 1);
        o.instant_lane(us(3), TraceLayer::Fault, 5, InstantKind::CacheInvalidation, 9);
        o.counter(us(4), "inflight_ops", 1);
        o.op(us(4), SimDuration::from_micros(3), 4096);
        o.drop_op(us(5));
        o.sample(us(600), GaugeSnapshot::default());
    }

    #[test]
    fn off_handle_is_inert() {
        let o = Observer::new(TraceDepth::Off, 16, None);
        assert!(!o.is_on() && !o.full());
        emit_everything(&o);
        assert!(!o.needs_sample(us(1_000_000)));
        assert!(o.finish(us(1), || unreachable!("no series, no snapshot")).is_none());
        assert!(o.stages(|_| ()).is_none() && o.ring(|_| ()).is_none());
        assert!(o.series(|_| ()).is_none());
    }

    #[test]
    fn each_level_arms_only_its_sinks() {
        let stages = Observer::new(TraceDepth::Stages, 16, None);
        emit_everything(&stages);
        assert_eq!(stages.stages(|t| t.ops()), Some(1));
        assert!(stages.ring(|_| ()).is_none() && stages.series(|_| ()).is_none());

        let tele = Observer::new(TraceDepth::Off, 16, Some(TelemetryConfig::default()));
        emit_everything(&tele);
        assert!(tele.is_on() && !tele.full());
        assert!(tele.stages(|_| ()).is_none() && tele.ring(|_| ()).is_none());
        assert_eq!(tele.series(|r| (r.total_ops(), r.total_drops())), Some((1, 1)));

        let full = Observer::new(TraceDepth::Full, 16, None);
        emit_everything(&full);
        assert!(full.full());
        assert_eq!(full.stages(|t| t.ops()), Some(1));
        // 2 spans × begin/end + fault + retry + invalidation + counter.
        assert_eq!(full.ring(|r| r.events().count()), Some(8));
        assert_eq!(full.ring(|r| r.span_chains()[0].io), Some(7));
    }

    #[test]
    fn a_fault_reaches_ring_and_series_once() {
        let o = Observer::new(TraceDepth::Spans, 16, Some(TelemetryConfig::default()));
        o.fault(us(2), 5, InstantKind::OsdCrash, 5);
        let anns = o.series(|r| r.annotations()).unwrap();
        assert_eq!(anns.len(), 1);
        assert_eq!((anns[0].at, anns[0].kind, anns[0].detail), (us(2), InstantKind::OsdCrash, 5));
        let events: Vec<_> = o.ring(|r| r.events().copied().collect()).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!((events[0].layer, events[0].lane), (TraceLayer::Fault, 5));
        let (slo, cfg) = o.finish(us(10), GaugeSnapshot::default).unwrap();
        assert_eq!((slo.total_ops, cfg), (0, TelemetryConfig::default()));
    }
}
