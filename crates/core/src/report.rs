//! Serializable run reports — the rows of every figure and table.

use deliba_sim::{Counter, Histogram, SimDuration, Stage, StageTracer};
use serde::{Deserialize, Error, Serialize, Value};

/// One stage's row of a latency breakdown.
///
/// Fields are declared — and therefore serialized — in the stable key
/// order `stage, mean_us, p50_us, p95_us, p99_us, p999_us, share_pct`;
/// the quantile columns come from the histogram's interpolated
/// [`Histogram::quantile`], so they resolve within one sub-bucket.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct StageSpanReport {
    /// Stage label (`Stage::label()` — stable JSON key).
    pub stage: String,
    /// Mean span over all traced ops (zeros included), µs.
    pub mean_us: f64,
    /// Median span, µs (interpolated).
    pub p50_us: f64,
    /// 95th-percentile span, µs (interpolated).
    pub p95_us: f64,
    /// 99th-percentile span, µs.
    pub p99_us: f64,
    /// 99.9th-percentile span, µs (interpolated).
    pub p999_us: f64,
    /// This stage's share of the end-to-end mean, percent.
    pub share_pct: f64,
}

/// Table-II-style per-stage latency decomposition of a run.
///
/// Stage rows are in critical-path order and their means sum to
/// `stage_sum_us`, which equals the run's mean end-to-end latency
/// (the tracer records every stage for every op, so spans telescope).
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct StageBreakdown {
    /// Fully traced operations.
    pub ops: u64,
    /// Per-stage rows, in [`Stage::ALL`] order.
    pub stages: Vec<StageSpanReport>,
    /// Sum of per-stage means, µs (== end-to-end mean latency).
    pub stage_sum_us: f64,
}

impl StageBreakdown {
    /// Snapshot a tracer into serializable rows.
    pub fn from_tracer(tracer: &StageTracer) -> Self {
        let sum = tracer.stage_sum_us();
        let stages = Stage::ALL
            .iter()
            .map(|&s| {
                let mean = tracer.mean_us(s);
                let hist = tracer.histogram(s);
                let q_us = |q: f64| hist.quantile(q) / 1_000.0;
                StageSpanReport {
                    stage: s.label().to_string(),
                    mean_us: mean,
                    p50_us: q_us(0.5),
                    p95_us: q_us(0.95),
                    p99_us: q_us(0.99),
                    p999_us: q_us(0.999),
                    share_pct: if sum > 0.0 { 100.0 * mean / sum } else { 0.0 },
                }
            })
            .collect();
        StageBreakdown {
            ops: tracer.ops(),
            stages,
            stage_sum_us: sum,
        }
    }

    /// The row for a stage, by label.
    pub fn stage(&self, stage: Stage) -> &StageSpanReport {
        self.stages
            .iter()
            .find(|r| r.stage == stage.label())
            .expect("breakdown carries every stage")
    }

    /// Multi-line human-readable table (µs, share).
    pub fn table(&self) -> String {
        let mut out = String::new();
        for row in &self.stages {
            out.push_str(&format!(
                "    {:<12} {:>9.2} µs  ({:>5.1} %)  p50 {:>9.2}  p95 {:>9.2}  p99 {:>9.2}  p99.9 {:>9.2} µs\n",
                row.stage, row.mean_us, row.share_pct, row.p50_us, row.p95_us, row.p99_us, row.p999_us
            ));
        }
        out.push_str(&format!(
            "    {:<12} {:>9.2} µs  (over {} ops)\n",
            "total", self.stage_sum_us, self.ops
        ));
        out
    }
}

/// Engine-internal hot-path counters attached to every run.  These are
/// diagnostics about how the simulator executed (cache effectiveness,
/// fused-event share), never inputs to any figure — the modeled timing
/// is identical whether or not the fast paths fire.
#[derive(Debug, Clone, Copy, Default, Serialize, PartialEq, Eq)]
pub struct PerfCounters {
    /// Closed-loop events executed (completion tokens consumed).
    pub events: u64,
    /// Events consumed by the fused submit→dispatch→post fast path
    /// instead of an event-queue schedule/pop round trip.
    pub fused_events: u64,
    /// Placement-cache hits on the run's cluster map.
    pub cache_hits: u64,
    /// Placement-cache misses (CRUSH walks actually executed).
    pub cache_misses: u64,
    /// Misses caused by a map-epoch bump over a live entry.
    pub cache_invalidations: u64,
    /// Conservative time-windows the event queue opened.
    /// Raw totals (not means) so the counters stay exactly summable
    /// and `Eq`; the means are the accessor methods below and the
    /// Prometheus gauges.
    pub windows: u64,
    /// Events drained strictly below an already-open window's horizon
    /// (the window-opening pop itself counts under `windows`).
    pub window_events: u64,
    /// Summed window widths (the lookahead in force at each opening),
    /// in nanoseconds.
    pub window_width_ns: u64,
}

// Hand-written so the window fields default to zero when absent:
// baseline JSON written before those counters existed must keep
// loading (the perf ratchet feeds old reports back through here).
impl Deserialize for PerfCounters {
    fn deserialize_value(value: &Value) -> Result<Self, Error> {
        let field = |key: &str| -> Result<u64, Error> {
            match value.get(key) {
                None => Ok(0),
                Some(v) => Deserialize::deserialize_value(v)
                    .map_err(|e| Error::new(format!("field {key}: {}", e.0))),
            }
        };
        Ok(PerfCounters {
            events: field("events")?,
            fused_events: field("fused_events")?,
            cache_hits: field("cache_hits")?,
            cache_misses: field("cache_misses")?,
            cache_invalidations: field("cache_invalidations")?,
            windows: field("windows")?,
            window_events: field("window_events")?,
            window_width_ns: field("window_width_ns")?,
        })
    }
}

impl PerfCounters {
    /// Placement-cache hit rate in [0, 1].
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Mean conservative-window width in nanoseconds (0 when the run
    /// never opened a window — single-heap mode or an empty schedule).
    pub fn window_mean_width_ns(&self) -> f64 {
        if self.windows == 0 {
            0.0
        } else {
            self.window_width_ns as f64 / self.windows as f64
        }
    }

    /// Mean events committed per conservative window: the opening pop
    /// plus everything drained under its horizon.
    pub fn window_mean_events(&self) -> f64 {
        if self.windows == 0 {
            0.0
        } else {
            (self.windows + self.window_events) as f64 / self.windows as f64
        }
    }
}

/// Resilience counters: what the fault plane injected and how the
/// engine's retry/timeout/failover policy answered.  Attached to
/// [`RunReport`] only when a fault schedule or a resilience policy is
/// active, so baseline report JSON is unchanged byte for byte.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize, PartialEq)]
pub struct ResilienceCounters {
    /// Attempts re-issued after a failed attempt.
    pub retries: u64,
    /// Deadline expiries: silent failures detected by timeout, plus
    /// completed ops that overran their deadline.
    pub timeouts: u64,
    /// Ops that failed at least once and then completed on a retry
    /// (re-placed through the epoch-bumped CRUSH path when the failure
    /// was an OSD death).
    pub failovers: u64,
    /// Ops abandoned after exhausting the retry budget.
    pub exhausted: u64,
    /// Reads served degraded (fewer than `width` healthy positions).
    pub degraded_reads: u64,
    /// FPGA→software path switches (card faults while the config wanted
    /// the hardware path).
    pub fpga_failovers: u64,
    /// Ops routed over the software host path while the card was down.
    pub degraded_path_ops: u64,
    /// OSDs crashed by the schedule.
    pub osd_crashes: u64,
    /// Mid-flight DFX swaps started by the schedule.
    pub dfx_swaps: u64,
    /// Request frames dropped by the link injector.
    pub dropped_frames: u64,
    /// Response frames corrupted by the link injector.
    pub corrupt_frames: u64,
    /// H2C + C2H DMA completion errors.
    pub dma_errors: u64,
    /// Descriptor-exhaustion stalls (latency, not failures).
    pub dma_stalls: u64,
    /// Cumulative card-fault → card-recover spans, µs.
    pub recovery_time_us: f64,
}

impl ResilienceCounters {
    /// Fraction of ops that completed (possibly after retries) rather
    /// than being abandoned, in [0, 1].
    pub fn availability(&self, ops: u64) -> f64 {
        if ops == 0 {
            1.0
        } else {
            1.0 - self.exhausted as f64 / ops as f64
        }
    }
}

/// Background-traffic counters: what recovery, backfill, and scrub did
/// to the cluster during the run.  Attached to [`RunReport`] only when
/// the engine ran with a [`deliba_cluster::RecoveryPolicy`] armed, so
/// every pre-existing report's JSON is unchanged byte for byte.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize, PartialEq)]
pub struct RecoveryCounters {
    /// Objects (or EC shard sets) re-replicated by backfill.
    pub objects_recovered: u64,
    /// Objects repaired after scrub detected corruption.
    pub objects_repaired: u64,
    /// Objects with no readable source copy at last scan (data loss).
    pub unrecoverable: u64,
    /// Backfill/repair operations dispatched onto the event queue.
    pub recovery_ops: u64,
    /// Bytes moved by background traffic (reads + writes + transfers).
    pub background_bytes: u64,
    /// Objects walked by the scrubber (all passes summed).
    pub scrub_objects: u64,
    /// Silent-corruption events injected by the fault plane.
    pub bitrot_injected: u64,
    /// Corrupt copies scrub detected via digest/parity compare.
    pub bitrot_detected: u64,
    /// Corrupt copies scrub repaired (rewrite from a good source).
    pub bitrot_repaired: u64,
    /// Reads that skipped a stale or corrupt copy (served degraded).
    pub degraded_reads: u64,
    /// Cumulative degraded → clean spans, µs of virtual time.
    pub time_to_clean_us: f64,
}

/// One offered-load point of a latency-under-load sweep.
///
/// Every latency column is measured from the op's *intended arrival
/// time* (the open-loop clock), not from submission — a stalled engine
/// cannot make the numbers look better by admitting late (coordinated
/// omission is impossible by construction).
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq)]
pub struct LoadPoint {
    /// Offered load: intended arrivals per second, in thousands.
    pub offered_kiops: f64,
    /// Achieved completion rate over the run window, in thousands.
    pub achieved_kiops: f64,
    /// Mean latency from intended arrival, µs.
    pub mean_us: f64,
    /// Median latency from intended arrival, µs (interpolated).
    pub p50_us: f64,
    /// 99th-percentile latency from intended arrival, µs.
    pub p99_us: f64,
    /// 99.9th-percentile latency from intended arrival, µs.
    pub p999_us: f64,
    /// Ops admitted (intended arrivals that found admission-queue room).
    pub admitted: u64,
    /// Ops dropped at the admission queue (cap reached).
    pub dropped: u64,
}

/// A throughput-vs-latency curve from an open-loop offered-load sweep.
///
/// Attached to [`RunReport`] only by the `loadcurve` experiment, so
/// every other report's JSON is unchanged byte for byte.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct LoadCurve {
    /// Arrival-process label (e.g. `"poisson"`).
    pub arrival: String,
    /// Zipf skew parameter of object selection (0 = uniform).
    pub zipf_s: f64,
    /// Admission-queue cap (max in-flight ops before drops).
    pub admission_cap: u64,
    /// Sweep points in offered-load order.
    pub points: Vec<LoadPoint>,
}

/// One burn-rate alert episode from the telemetry plane's SLO monitor.
///
/// Times are virtual-time µs; window indices refer to the run's fixed
/// telemetry windows.  `cleared_*` stay `null` when the alert was still
/// firing at end-of-run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq)]
pub struct SloAlertReport {
    /// When the alert fired (a window-close boundary), µs.
    pub fired_us: f64,
    /// Index of the window whose close fired the alert.
    pub fired_window: u64,
    /// When the alert cleared, µs (`null` if still firing at run end).
    pub cleared_us: Option<f64>,
    /// Index of the window whose close cleared the alert.
    pub cleared_window: Option<u64>,
    /// Highest short-window burn rate seen while firing.
    pub peak_burn: f64,
}

/// SLO attainment summary from the telemetry plane.  Attached to
/// [`RunReport`] only when the engine ran with telemetry armed, so
/// every pre-existing report's JSON is unchanged byte for byte.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct SloReport {
    /// Telemetry window width, µs.
    pub window_us: f64,
    /// SLO latency target (p99-style threshold), µs.
    pub target_p99_us: f64,
    /// Attainment objective (fraction of ops under target), in [0, 1].
    pub objective: f64,
    /// Burn-rate alert threshold (multiple of the error budget).
    pub burn_threshold: f64,
    /// Telemetry windows the run spanned.
    pub windows: u64,
    /// Windows whose burn rate stayed within budget (burn ≤ 1).
    pub attained_windows: u64,
    /// Fraction of windows attained, in [0, 1].
    pub attainment: f64,
    /// Ops over target plus admission drops, run total.
    pub bad_ops: u64,
    /// Ops plus drops, run total.
    pub total_ops: u64,
    /// Burn-rate alert episodes, in firing order.
    pub alerts: Vec<SloAlertReport>,
}

impl SloReport {
    /// Package a recorder's [`deliba_sim::SloSummary`] for the report.
    pub fn from_summary(s: &deliba_sim::SloSummary, cfg: &deliba_sim::TelemetryConfig) -> Self {
        SloReport {
            window_us: cfg.window.as_nanos() as f64 / 1_000.0,
            target_p99_us: cfg.slo_p99.as_nanos() as f64 / 1_000.0,
            objective: cfg.objective,
            burn_threshold: cfg.burn_threshold,
            windows: s.windows,
            attained_windows: s.attained_windows,
            attainment: s.attainment,
            bad_ops: s.bad_ops,
            total_ops: s.total_ops,
            alerts: s
                .alerts
                .iter()
                .map(|a| SloAlertReport {
                    fired_us: a.fired.as_nanos() as f64 / 1_000.0,
                    fired_window: a.fired_window,
                    cleared_us: a.cleared.map(|t| t.as_nanos() as f64 / 1_000.0),
                    cleared_window: a.cleared_window,
                    peak_burn: a.peak_burn,
                })
                .collect(),
        }
    }
}

/// The outcome of one engine run (one bar in one figure).
///
/// `Serialize`/`Deserialize` are hand-written (mirroring exactly what
/// the derive generates for the other fields) so the optional sections
/// (`breakdown`, `counters`, `resilience`, `load_curve`) are emitted
/// only when present: baseline runs must serialize byte-identically to
/// reports that predate each feature.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Configuration label, e.g. `"DeLiBA-K (HW, replication)"`.
    pub config: String,
    /// Workload label, e.g. `"rand-write 4k"`.
    pub workload: String,
    /// Mean latency, µs.
    pub mean_latency_us: f64,
    /// 99th-percentile latency, µs.
    pub p99_latency_us: f64,
    /// Throughput, MB/s (decimal, fio convention).
    pub throughput_mbps: f64,
    /// Thousands of IOPS.
    pub kiops: f64,
    /// Operations completed.
    pub ops: u64,
    /// Operations that ran degraded (failure injection).
    pub degraded_ops: u64,
    /// Data-integrity mismatches (must be 0).
    pub verify_failures: u64,
    /// Measurement window, seconds of virtual time.
    pub window_s: f64,
    /// Per-stage latency decomposition (present when the engine ran
    /// with `trace_stages`).
    pub breakdown: Option<StageBreakdown>,
    /// Engine hot-path counters (present on engine-produced reports).
    pub counters: Option<PerfCounters>,
    /// Fault-plane / resilience counters (present only when a fault
    /// schedule or resilience policy was active).
    pub resilience: Option<ResilienceCounters>,
    /// Background recovery/backfill/scrub counters (present only when
    /// the engine ran with a recovery policy armed).
    pub recovery: Option<RecoveryCounters>,
    /// Open-loop offered-load sweep (present only on `loadcurve` runs).
    pub load_curve: Option<LoadCurve>,
    /// SLO attainment + burn-rate alerts (present only when the engine
    /// ran with the telemetry plane armed).
    pub slo: Option<SloReport>,
}

impl Serialize for RunReport {
    fn serialize_value(&self) -> Value {
        let mut fields: Vec<(String, Value)> = vec![
            ("config".to_string(), self.config.serialize_value()),
            ("workload".to_string(), self.workload.serialize_value()),
            ("mean_latency_us".to_string(), self.mean_latency_us.serialize_value()),
            ("p99_latency_us".to_string(), self.p99_latency_us.serialize_value()),
            ("throughput_mbps".to_string(), self.throughput_mbps.serialize_value()),
            ("kiops".to_string(), self.kiops.serialize_value()),
            ("ops".to_string(), self.ops.serialize_value()),
            ("degraded_ops".to_string(), self.degraded_ops.serialize_value()),
            ("verify_failures".to_string(), self.verify_failures.serialize_value()),
            ("window_s".to_string(), self.window_s.serialize_value()),
        ];
        // Optional sections are omitted — not `null` — when absent, so a
        // baseline report serializes to exactly its pre-feature bytes and
        // every optional key follows the one convention.
        if self.breakdown.is_some() {
            fields.push(("breakdown".to_string(), self.breakdown.serialize_value()));
        }
        if self.counters.is_some() {
            fields.push(("counters".to_string(), self.counters.serialize_value()));
        }
        if self.resilience.is_some() {
            fields.push(("resilience".to_string(), self.resilience.serialize_value()));
        }
        if self.recovery.is_some() {
            fields.push(("recovery".to_string(), self.recovery.serialize_value()));
        }
        if self.load_curve.is_some() {
            fields.push(("load_curve".to_string(), self.load_curve.serialize_value()));
        }
        if self.slo.is_some() {
            fields.push(("slo".to_string(), self.slo.serialize_value()));
        }
        Value::Object(fields)
    }
}

impl Deserialize for RunReport {
    fn deserialize_value(value: &Value) -> Result<Self, Error> {
        let field = |name: &str| value.get(name).unwrap_or(&Value::Null);
        Ok(RunReport {
            config: Deserialize::deserialize_value(field("config"))?,
            workload: Deserialize::deserialize_value(field("workload"))?,
            mean_latency_us: Deserialize::deserialize_value(field("mean_latency_us"))?,
            p99_latency_us: Deserialize::deserialize_value(field("p99_latency_us"))?,
            throughput_mbps: Deserialize::deserialize_value(field("throughput_mbps"))?,
            kiops: Deserialize::deserialize_value(field("kiops"))?,
            ops: Deserialize::deserialize_value(field("ops"))?,
            degraded_ops: Deserialize::deserialize_value(field("degraded_ops"))?,
            verify_failures: Deserialize::deserialize_value(field("verify_failures"))?,
            window_s: Deserialize::deserialize_value(field("window_s"))?,
            breakdown: Deserialize::deserialize_value(field("breakdown"))?,
            counters: Deserialize::deserialize_value(field("counters"))?,
            resilience: Deserialize::deserialize_value(field("resilience"))?,
            recovery: Deserialize::deserialize_value(field("recovery"))?,
            load_curve: Deserialize::deserialize_value(field("load_curve"))?,
            slo: Deserialize::deserialize_value(field("slo"))?,
        })
    }
}

impl RunReport {
    /// Assemble from measurement primitives.
    pub fn new(
        config: String,
        workload: String,
        hist: &Histogram,
        counter: &Counter,
        window: SimDuration,
        degraded_ops: u64,
        verify_failures: u64,
    ) -> Self {
        RunReport {
            config,
            workload,
            mean_latency_us: hist.mean_us(),
            p99_latency_us: hist.p99_us(),
            throughput_mbps: counter.mbps(window),
            kiops: counter.iops(window) / 1_000.0,
            ops: counter.ops(),
            degraded_ops,
            verify_failures,
            window_s: window.as_secs_f64(),
            breakdown: None,
            counters: None,
            resilience: None,
            recovery: None,
            load_curve: None,
            slo: None,
        }
    }

    /// One-line human-readable form used by the harness.
    pub fn row(&self) -> String {
        format!(
            "{:<32} {:<18} lat {:>9.1} µs  p99 {:>9.1} µs  {:>9.1} MB/s  {:>8.2} KIOPS  ({} ops{})",
            self.config,
            self.workload,
            self.mean_latency_us,
            self.p99_latency_us,
            self.throughput_mbps,
            self.kiops,
            self.ops,
            if self.degraded_ops > 0 {
                format!(", {} degraded", self.degraded_ops)
            } else {
                String::new()
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_assembly_and_serde() {
        let mut hist = Histogram::new();
        let mut counter = Counter::new();
        for _ in 0..1000 {
            hist.record(SimDuration::from_micros(64));
            counter.record(4096);
        }
        let r = RunReport::new(
            "DeLiBA-K (HW, replication)".into(),
            "rand-read 4k".into(),
            &hist,
            &counter,
            SimDuration::from_secs(1),
            0,
            0,
        );
        assert!((r.mean_latency_us - 64.0).abs() < 1.0);
        assert!((r.kiops - 1.0).abs() < 1e-9);
        let json = serde_json::to_string(&r).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        assert!(r.row().contains("rand-read 4k"));
    }

    fn sample_report() -> RunReport {
        let mut hist = Histogram::new();
        let mut counter = Counter::new();
        for _ in 0..10 {
            hist.record(SimDuration::from_micros(64));
            counter.record(4096);
        }
        RunReport::new(
            "cfg".into(),
            "wl".into(),
            &hist,
            &counter,
            SimDuration::from_secs(1),
            0,
            0,
        )
    }

    #[test]
    fn optional_sections_omitted_when_absent_and_round_trip_when_present() {
        let r = sample_report();
        let json = serde_json::to_string(&r).unwrap();
        for key in ["breakdown", "counters", "resilience", "recovery", "load_curve", "slo"] {
            assert!(
                !json.contains(key),
                "absent {key} must not appear in baseline JSON: {json}"
            );
        }
        assert!(!json.contains("null"), "no optional key may degrade to null: {json}");
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);

        let mut with = sample_report();
        with.resilience = Some(ResilienceCounters {
            retries: 7,
            timeouts: 2,
            failovers: 5,
            recovery_time_us: 1234.5,
            ..Default::default()
        });
        let json = serde_json::to_string(&with).unwrap();
        assert!(json.contains("\"resilience\""));
        assert!(json.contains("\"retries\""));
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, with);

        let mut with = sample_report();
        with.recovery = Some(RecoveryCounters {
            objects_recovered: 12,
            bitrot_detected: 3,
            bitrot_repaired: 3,
            time_to_clean_us: 875.25,
            ..Default::default()
        });
        let json = serde_json::to_string(&with).unwrap();
        assert!(json.contains("\"recovery\""));
        assert!(json.contains("\"objects_recovered\""));
        // The recovery section sits between resilience and load_curve in
        // declaration (and therefore serialization) order.
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, with);
    }

    #[test]
    fn breakdown_quantile_columns_are_ordered_and_keys_stable() {
        let mut tracer = StageTracer::new();
        for i in 0..200u64 {
            // A ramp so the quantiles actually spread out.
            tracer.record(Stage::Submit, SimDuration::from_nanos(1_000 + 10 * i));
            for &s in Stage::ALL.iter().skip(1) {
                tracer.record(s, SimDuration::from_nanos(500));
            }
            tracer.record_op();
        }
        let b = StageBreakdown::from_tracer(&tracer);
        for row in &b.stages {
            assert!(row.p50_us <= row.p95_us, "{}: p50 > p95", row.stage);
            assert!(row.p95_us <= row.p99_us, "{}: p95 > p99", row.stage);
            assert!(row.p99_us <= row.p999_us, "{}: p99 > p999", row.stage);
        }
        let submit = b.stage(Stage::Submit);
        assert!(submit.p50_us > 0.0 && submit.p999_us > submit.p50_us);
        // Serialized key order is the declaration order, stable.
        let json = serde_json::to_string(&b.stages[0]).unwrap();
        let order = ["stage", "mean_us", "p50_us", "p95_us", "p99_us", "p999_us", "share_pct"];
        let mut last = 0;
        for key in order {
            let pos = json.find(&format!("\"{key}\"")).expect(key);
            assert!(pos >= last, "{key} out of order in {json}");
            last = pos;
        }
        let back: StageBreakdown = serde_json::from_str(&serde_json::to_string(&b).unwrap()).unwrap();
        assert_eq!(back, b);
    }

    #[test]
    fn load_curve_round_trip_and_key_order() {
        let mut r = sample_report();
        r.load_curve = Some(LoadCurve {
            arrival: "poisson".into(),
            zipf_s: 0.9,
            admission_cap: 256,
            points: vec![LoadPoint {
                offered_kiops: 8.0,
                achieved_kiops: 7.9,
                mean_us: 70.0,
                p50_us: 66.0,
                p99_us: 120.0,
                p999_us: 180.0,
                admitted: 2000,
                dropped: 0,
            }],
        });
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("\"load_curve\""));
        // Key order is declaration order, stable — and the section comes
        // after every other optional section.
        let order = [
            "window_s", "load_curve", "arrival", "zipf_s", "admission_cap", "points",
            "offered_kiops", "achieved_kiops", "mean_us", "p50_us", "p99_us", "p999_us",
            "admitted", "dropped",
        ];
        let mut last = 0;
        for key in order {
            let pos = json.find(&format!("\"{key}\"")).expect(key);
            assert!(pos >= last, "{key} out of order in {json}");
            last = pos;
        }
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn slo_section_round_trips_and_orders_last() {
        let mut r = sample_report();
        r.slo = Some(SloReport {
            window_us: 500.0,
            target_p99_us: 400.0,
            objective: 0.99,
            burn_threshold: 2.0,
            windows: 40,
            attained_windows: 36,
            attainment: 0.9,
            bad_ops: 120,
            total_ops: 4000,
            alerts: vec![
                SloAlertReport {
                    fired_us: 2_000.0,
                    fired_window: 4,
                    cleared_us: Some(4_500.0),
                    cleared_window: Some(9),
                    peak_burn: 7.5,
                },
                SloAlertReport {
                    fired_us: 18_000.0,
                    fired_window: 36,
                    cleared_us: None,
                    cleared_window: None,
                    peak_burn: 3.0,
                },
            ],
        });
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("\"slo\""));
        // The slo section serializes after every other optional section.
        let order = [
            "window_s", "slo", "window_us", "target_p99_us", "objective", "burn_threshold",
            "windows", "attained_windows", "attainment", "bad_ops", "total_ops", "alerts",
            "fired_us", "fired_window", "cleared_us", "cleared_window", "peak_burn",
        ];
        let mut last = 0;
        for key in order {
            let pos = json.find(&format!("\"{key}\"")).expect(key);
            assert!(pos >= last, "{key} out of order in {json}");
            last = pos;
        }
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn availability_floor_math() {
        let mut c = ResilienceCounters::default();
        assert_eq!(c.availability(0), 1.0);
        assert_eq!(c.availability(1000), 1.0);
        c.exhausted = 5;
        assert!((c.availability(1000) - 0.995).abs() < 1e-12);
    }

    #[test]
    fn perf_counters_round_trip_and_rate() {
        let c = PerfCounters {
            events: 100,
            fused_events: 80,
            cache_hits: 95,
            cache_misses: 5,
            cache_invalidations: 2,
            windows: 10,
            window_events: 30,
            window_width_ns: 25_000,
        };
        assert!((c.cache_hit_rate() - 0.95).abs() < 1e-12);
        assert_eq!(PerfCounters::default().cache_hit_rate(), 0.0);
        assert!((c.window_mean_width_ns() - 2_500.0).abs() < 1e-12);
        assert!((c.window_mean_events() - 4.0).abs() < 1e-12);
        assert_eq!(PerfCounters::default().window_mean_events(), 0.0);
        let json = serde_json::to_string(&c).unwrap();
        let back: PerfCounters = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
        // Window fields default, so pre-existing counters JSON (older
        // baselines) still deserializes.
        let old: PerfCounters = serde_json::from_str(
            r#"{"events":1,"fused_events":1,"cache_hits":0,"cache_misses":0,"cache_invalidations":0}"#,
        )
        .unwrap();
        assert_eq!(old.windows, 0);
    }
}
