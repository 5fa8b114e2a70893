//! Engine-level gates for the telemetry plane.
//!
//! Three contracts: (1) the windowed series telescopes exactly to the
//! run's own accounting — window ops sum to the report's completions,
//! merged window histograms equal the run histogram, and annotations
//! mirror the fault plane's firings; (2) recording telemetry never
//! perturbs the simulation — a telemetry-on report minus its SLO
//! section is byte-identical to the telemetry-off report; (3) the
//! exported series replays byte-identically from the same seed,
//! because windows key off completion instants and gauges sample at
//! monotone pop times.

use deliba_core::{ArrivalOp, Engine, EngineConfig, Generation, Mode, TraceOp};
use deliba_fault::{FaultSchedule, ResiliencePolicy};
use deliba_net::LinkFaultProfile;
use deliba_sim::{InstantKind, SimDuration, SimTime, TelemetryConfig};

fn ms(n: u64) -> SimTime {
    SimTime::from_nanos(n * 1_000_000)
}

fn chaos_trace() -> Vec<TraceOp> {
    let mut ops = Vec::new();
    for i in 0..600u64 {
        ops.push(TraceOp::write(i * 4096, 4096, true));
        if i % 3 == 0 {
            ops.push(TraceOp::read(i * 4096, 4096, true));
        }
    }
    ops
}

fn chaos_schedule() -> FaultSchedule {
    FaultSchedule::new()
        .osd_flap(ms(1), 9, SimDuration::from_millis(2))
        .link_degrade(ms(2), LinkFaultProfile { drop_p: 0.1, corrupt_p: 0.02 })
        .link_restore(ms(4))
}

fn chaos_engine(telemetry: bool) -> Engine {
    let mut cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication)
        .with_resilience(ResiliencePolicy::default());
    if telemetry {
        cfg = cfg.with_telemetry(TelemetryConfig::default());
    }
    let mut e = Engine::new(cfg);
    e.set_fault_schedule(chaos_schedule());
    e
}

/// Window counters telescope to the run's own accounting, and the
/// annotation stream mirrors the fault schedule's firings exactly.
#[test]
fn windows_telescope_to_report_totals() {
    let mut e = chaos_engine(true);
    let report = e.run_trace(vec![chaos_trace()], 8);
    assert_eq!(report.verify_failures, 0);

    let run_hist = e.last_histogram().expect("telemetry retains the run histogram").clone();
    e.telemetry()
        .with(|r| {
            let win_ops: u64 = r.windows().iter().map(|w| w.ops).sum();
            assert_eq!(win_ops, r.total_ops(), "window ops must telescope");
            assert_eq!(r.total_ops(), run_hist.count(), "telemetry ops == report ops");
            assert_eq!(r.total_drops(), 0, "closed loops never drop at admission");
            assert_eq!(r.merged_histogram(), run_hist, "merged window hists == run hist");

            // The schedule fires exactly four instants, in firing
            // order: crash (1 ms), degrade (2 ms), the flap's revive
            // (3 ms), restore (4 ms).
            let kinds: Vec<InstantKind> = r.annotations().iter().map(|a| a.kind).collect();
            assert_eq!(
                kinds,
                vec![
                    InstantKind::OsdCrash,
                    InstantKind::LinkDegrade,
                    InstantKind::OsdRevive,
                    InstantKind::LinkRestore,
                ],
                "annotations mirror the fault plane's firings in order"
            );
            // Faults apply at the first event popped at-or-after
            // their scheduled instant, so the annotation stamps the
            // actual application time, not the schedule's.
            let crash = r.annotations()[0];
            assert!(crash.at >= ms(1) && crash.at < ms(2), "crash applied near 1 ms: {crash:?}");
            assert_eq!(crash.detail, 9, "the crash annotation carries the OSD id");
        })
        .expect("telemetry is on");

    let slo = report.slo.expect("telemetry-on runs report an SLO section");
    assert!(slo.windows > 0);
    assert_eq!(slo.total_ops, run_hist.count(), "no drops: SLO total == completions");
}

/// Recording telemetry is observation only: the report with its SLO
/// section stripped is byte-identical to a telemetry-off run.
#[test]
fn telemetry_never_perturbs_the_run() {
    let off = chaos_engine(false).run_trace(vec![chaos_trace()], 8);
    let mut on = chaos_engine(true).run_trace(vec![chaos_trace()], 8);
    assert!(off.slo.is_none(), "telemetry defaults off");
    assert!(on.slo.is_some(), "telemetry-on runs must report an SLO section");
    on.slo = None;
    assert_eq!(
        serde_json::to_string(&on).unwrap(),
        serde_json::to_string(&off).unwrap(),
        "telemetry changed the simulation"
    );
}

/// The exported series — timeline JSON, CSV, Prometheus, and the SLO
/// section — replays byte-identically from the same seed, for both run
/// loops.
#[test]
fn series_replays_bit_identically() {
    let stream: Vec<ArrivalOp> = (0..1_500u64)
        .map(|i| ArrivalOp {
            at: SimTime::from_nanos(i * 600),
            op: if i % 4 == 3 {
                TraceOp::read((i % 256) * 4096, 4096, true)
            } else {
                TraceOp::write((i % 256) * 4096, 4096, true)
            },
        })
        .collect();
    let run = || {
        // Closed loop under chaos.
        let mut e = chaos_engine(true);
        let report = e.run_trace(vec![chaos_trace()], 8);
        let mut series = e
            .telemetry()
            .with(|r| (r.timeline_json(), r.csv(), r.prom_series("cfg", "closed")))
            .expect("telemetry is on");
        let closed_slo = serde_json::to_string(&report.slo).unwrap();
        // Open loop with admission drops.
        let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication)
            .with_telemetry(TelemetryConfig::default());
        let mut e = Engine::new(cfg);
        let out = e.run_open_loop(&stream, 8);
        assert!(out.point.dropped > 0, "the cap must actually drop arrivals");
        let open = e
            .telemetry()
            .with(|r| r.timeline_json())
            .expect("telemetry is on");
        series.0.push_str(&closed_slo);
        series.0.push_str(&open);
        series
    };
    assert_eq!(run(), run(), "same seed, different series");
}
