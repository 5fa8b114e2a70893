//! Golden `RunReport` digests: small engine runs whose whole
//! serialized report — latencies, counters, resilience and recovery
//! sections, and the event queue's window accounting in
//! `PerfCounters` — must not move by a byte, plus the flight
//! recorder's and the telemetry plane's exports.
//!
//! The constants are FNV-1a digests of `serde_json::to_string(&report)`
//! (or of the export text).  The first three were computed on the
//! commit that still carried the sharded event queue and the prepare
//! pool, before the engine moved onto the single serial event core; the
//! next two (every fault, the recovery and scrub arms and both
//! observers, closed- and open-loop) before the closed- and open-loop
//! drivers merged into one run loop; the export digests before the
//! stage tracer, the flight recorder and the telemetry plane moved
//! behind one observation handle.  So these tests pin those refactors
//! (and any later one) to byte-identical output.  A deliberate model
//! change updates them, and says so.

use deliba_k::cluster::RecoveryPolicy;
use deliba_k::core::{Engine, EngineConfig, Generation, Mode, RunReport, TraceOp, IMAGE_BYTES};
use deliba_k::fault::{FaultSchedule, ResiliencePolicy};
use deliba_k::net::LinkFaultProfile;
use deliba_k::sim::{SimDuration, SimRng, SimTime, TelemetryConfig, Xoshiro256};
use deliba_k::workload::{ArrivalKind, OpenLoopSpec};

fn ms(n: u64) -> SimTime {
    SimTime::from_nanos(n * 1_000_000)
}

fn us(n: u64) -> SimTime {
    SimTime::from_nanos(n * 1_000)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Digest of the whole serialized report, after checking that the
/// sections this file exists to pin are actually present.
fn digest(report: &RunReport) -> String {
    let counters = report.counters.expect("engine reports carry counters");
    assert!(
        counters.windows > 0,
        "window accounting must be live: {counters:?}"
    );
    assert!(
        counters.window_width_ns > 0,
        "a lookahead must be in force: {counters:?}"
    );
    assert_eq!(report.verify_failures, 0);
    let text = serde_json::to_string(report).expect("reports serialize");
    format!("{:016x}", fnv1a(text.as_bytes()))
}

#[test]
fn closed_loop_randread_4k_replication() {
    let bs = 4096u32;
    let blocks = IMAGE_BYTES / bs as u64;
    let mut rng = Xoshiro256::seed_from_u64(0x601D_0001);
    let jobs: Vec<Vec<TraceOp>> = (0..3)
        .map(|_| {
            (0..400)
                .map(|_| TraceOp::read(rng.gen_range(blocks) * bs as u64, bs, true))
                .collect()
        })
        .collect();
    let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication);
    let report = Engine::new(cfg).run_trace(jobs, 32);
    assert_eq!(report.ops, 1200);
    assert_eq!(digest(&report), "48d3d0d2e480e363");
}

#[test]
fn closed_loop_seqwrite_128k_erasure_coded() {
    let bs = 128 * 1024u32;
    let blocks = IMAGE_BYTES / bs as u64;
    let job: Vec<TraceOp> = (0..48u64)
        .map(|k| TraceOp::write(((17 + k) % blocks) * bs as u64, bs, false))
        .collect();
    let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::ErasureCoding);
    let report = Engine::new(cfg).run_trace(vec![job], 32);
    assert_eq!(report.ops, 48);
    assert_eq!(digest(&report), "1a728cece6668aa4");
}

#[test]
fn open_loop_poisson_with_faults_and_recovery() {
    let stream = OpenLoopSpec {
        rate_kiops: 24.0,
        ops: 1_500,
        block_size: 4096,
        write_frac: 0.5,
        arrival: ArrivalKind::Poisson,
        zipf_s: 0.9,
        seed: 0x601D_0003,
    }
    .generate();
    let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication)
        .with_resilience(ResiliencePolicy::default())
        .with_recovery(RecoveryPolicy::with_max_active(4));
    let mut engine = Engine::new(cfg);
    // The lossy link window shrinks the lookahead while it lasts, so
    // the window counters also pin its re-derivation.
    engine.set_fault_schedule(
        FaultSchedule::new()
            .osd_flap(ms(20), 5, SimDuration::from_millis(10))
            .link_degrade(
                ms(40),
                LinkFaultProfile {
                    drop_p: 0.02,
                    corrupt_p: 0.0,
                },
            )
            .link_restore(ms(45)),
    );
    let run = engine.run_open_loop(&stream, 1024);
    assert_eq!(run.point.admitted + run.point.dropped, 1_500);
    let report = &run.report;
    assert!(report.resilience.is_some() && report.recovery.is_some());
    assert_eq!(digest(report), "187898a53a2a5898");
}

/// Every arm of the run loop at once, closed-loop: an OSD crash, a
/// lossy link window, a card outage and bit-rot under the retry policy,
/// with backfill, periodic deep scrub and its end-of-run drain, the
/// stage tracer and the telemetry plane all armed — so the
/// `breakdown`, `resilience`, `recovery` and `slo` sections are pinned
/// along with the latency columns and window counters.
#[test]
fn closed_loop_faults_recovery_scrub_and_observers() {
    // Each job writes its own distinct 4 MiB objects once, then reads
    // them back: an injected flip persists until scrub repairs it.
    let job = |j: u64| -> Vec<TraceOp> {
        let obj = |i: u64| (j * 48 + i) * (4 << 20);
        let writes = (0..48).map(|i| TraceOp::write(obj(i), 4096, true));
        let reads = (0..48).map(|i| TraceOp::read(obj(i), 4096, true));
        writes.chain(reads).collect()
    };
    let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication)
        .with_resilience(ResiliencePolicy::default())
        .with_recovery(RecoveryPolicy::default().with_scrub(SimDuration::from_micros(200), 16))
        .with_tracing()
        .with_telemetry(TelemetryConfig::default().with_window(SimDuration::from_micros(250)));
    let mut engine = Engine::new(cfg);
    engine.set_fault_schedule(
        FaultSchedule::new()
            .bit_rot(us(400), 4)
            .osd_crash(us(600), 7)
            .link_degrade(
                us(800),
                LinkFaultProfile {
                    drop_p: 0.05,
                    corrupt_p: 0.02,
                },
            )
            .link_restore(us(1_400))
            .card_outage(us(1_000), SimDuration::from_micros(500)),
    );
    let report = engine.run_trace((0..3).map(job).collect(), 8);
    assert_eq!(report.ops, 288);
    assert!(report.breakdown.is_some() && report.slo.is_some());
    let res = report.resilience.expect("faults armed");
    assert!(res.retries > 0 && res.osd_crashes > 0 && res.fpga_failovers > 0, "{res:?}");
    let rec = report.recovery.expect("recovery armed");
    assert!(rec.bitrot_injected > 0 && rec.scrub_objects > 0, "{rec:?}");
    assert_eq!(digest(&report), "38de47a17f644f61");
}

/// The open loop with the stage tracer and the telemetry plane on: the
/// report (with its `breakdown` and `slo` sections) and the exported
/// window timeline are both pinned.
#[test]
fn open_loop_with_tracing_and_telemetry() {
    let stream = OpenLoopSpec {
        rate_kiops: 60.0,
        ops: 1_200,
        block_size: 4096,
        write_frac: 0.3,
        arrival: ArrivalKind::Poisson,
        zipf_s: 0.9,
        seed: 0x601D_0005,
    }
    .generate();
    let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication)
        .with_tracing()
        .with_telemetry(TelemetryConfig::default().with_window(SimDuration::from_micros(250)));
    let mut engine = Engine::new(cfg);
    let run = engine.run_open_loop(&stream, 64);
    assert_eq!(run.point.admitted + run.point.dropped, 1_200);
    let report = &run.report;
    assert!(report.breakdown.is_some() && report.slo.is_some());
    assert_eq!(digest(report), "1d8790daae0eaa27");
    let timeline = engine
        .observer()
        .series(|r| r.timeline_json())
        .expect("telemetry armed");
    assert_eq!(
        format!("{:016x}", fnv1a(timeline.as_bytes())),
        "5cec96e0e5f8ab7d"
    );
}

/// The flight recorder's and the telemetry plane's exports for a
/// faulted closed loop at full trace depth with telemetry on: the
/// Chrome trace, the trace with the telemetry counter tracks merged
/// in, the window CSV and the Prometheus dump.  Each fault firing must
/// reach both sinks exactly once: the ring's fault-layer instants (less
/// the cache invalidations that follow an OSD crash or revive) equal
/// the telemetry annotations, in order.
#[test]
fn full_depth_exports_and_single_emit_faults() {
    use deliba_k::core::prometheus_dump;
    use deliba_k::qdma::DmaFaultProfile;
    use deliba_k::sim::trace::TraceEventKind;
    use deliba_k::sim::{InstantKind, TraceDepth, TraceLayer};
    let job = |j: u64| -> Vec<TraceOp> {
        let obj = |i: u64| (j * 32 + i) * (4 << 20);
        let writes = (0..32).map(|i| TraceOp::write(obj(i), 4096, true));
        let reads = (0..32).map(|i| TraceOp::read(obj(i), 4096, true));
        writes.chain(reads).collect()
    };
    let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication)
        .with_resilience(ResiliencePolicy::default())
        .with_trace_depth(TraceDepth::Full)
        .with_telemetry(TelemetryConfig::default().with_window(SimDuration::from_micros(250)));
    let mut engine = Engine::new(cfg);
    engine.set_fault_schedule(
        FaultSchedule::new()
            .bit_rot(us(200), 2)
            .osd_flap(us(300), 11, SimDuration::from_micros(400))
            .link_degrade(
                us(500),
                LinkFaultProfile {
                    drop_p: 0.05,
                    corrupt_p: 0.02,
                },
            )
            .link_restore(us(900))
            .dma_degrade(
                us(600),
                DmaFaultProfile {
                    h2c_error_p: 0.05,
                    c2h_error_p: 0.05,
                    exhaust_p: 0.1,
                },
            )
            .dma_restore(us(800))
            .card_outage(us(1_000), SimDuration::from_micros(300)),
    );
    let report = engine.run_trace((0..2).map(job).collect(), 4);
    assert_eq!(report.ops, 128);
    assert_eq!(report.verify_failures, 0);
    let obs = engine.observer();
    let (chrome, stats) = obs.ring(|r| (r.chrome_json(), r.stats())).expect("recorder on");
    let prom = prometheus_dump(&report, Some(&stats));
    let faults: Vec<(SimTime, InstantKind, u64)> = obs
        .ring(|s| {
            s.events()
                .filter(|e| e.layer == TraceLayer::Fault)
                .filter_map(|e| match e.kind {
                    TraceEventKind::Instant { kind, detail }
                        if kind != InstantKind::CacheInvalidation =>
                    {
                        Some((e.at, kind, detail))
                    }
                    _ => None,
                })
                .collect()
        })
        .expect("recorder on");
    let (merged, csv, annotations) = obs
        .series(|r| {
            let anns = r.annotations().iter().map(|a| (a.at, a.kind, a.detail)).collect::<Vec<_>>();
            (r.merge_into_chrome(&chrome), r.csv(), anns)
        })
        .expect("telemetry armed");
    assert_eq!(faults.len(), 9, "{faults:?}");
    assert_eq!(faults, annotations);
    let hex = |s: &str| format!("{:016x}", fnv1a(s.as_bytes()));
    assert_eq!(
        [hex(&chrome), hex(&merged), hex(&csv), hex(&prom)],
        ["97e1515d5058c841", "8830412042ef5773", "af198458974917d5", "aef06463da5ef024"]
    );
}
