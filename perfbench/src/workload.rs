//! The three benchmark workloads: their pinned engine knobs, their
//! seeded inputs and one end-to-end engine run over them.

use deliba_cluster::RecoveryPolicy;
use deliba_core::{
    ArrivalOp, Engine, EngineConfig, Generation, Mode, RunReport, TraceOp, IMAGE_BYTES,
};
use deliba_fault::{FaultSchedule, ResiliencePolicy};
use deliba_sim::{SimDuration, SimRng, SimTime, TelemetryConfig, Xoshiro256};
use deliba_workload::{ArrivalKind, OpenLoopSpec};
use std::time::{Duration, Instant};

/// §VI's rand-read 4 KiB anchor for DeLiBA-K with the card on.
pub const PAPER_RANDREAD_KIOPS: f64 = 59.0;

/// Open-loop offered rate, below DeLiBA-K's ≈60 KIOPS knee.
const OPEN_RATE_KIOPS: f64 = 24.0;
/// Open-loop admission cap (in-flight ops): room for the backlog a
/// flap's backfill burst builds, so no arrival is dropped.
const OPEN_ADMISSION_CAP: u32 = 1024;
/// One OSD flaps every period, for `FLAP_DOWN`, in virtual time.
const FLAP_PERIOD: SimDuration = SimDuration::from_millis(500);
const FLAP_DOWN: SimDuration = SimDuration::from_millis(10);
/// Backfill concurrency while a flapped OSD catches up.
const RECOVERY_MAX_ACTIVE: u32 = 4;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// fio rand-read 4 KiB, qd 32 × 3 jobs, replication (Fig. 7 / §VI).
    RandRead4k,
    /// fio seq-write 128 KiB, qd 32 × 1 job, EC RS(4,2) (a Fig. 8 cell).
    SeqWrite128kEc,
    /// Poisson 24 KIOPS, 4 KiB, 50 % writes, Zipf 0.9, replication,
    /// periodic OSD flaps with resilience and backfill armed.
    OpenLoopMixedFlap,
}

/// The generated inputs of one run.
pub enum Inputs {
    /// Per-job closed-loop op lists and their queue depth.
    Closed {
        jobs: Vec<Vec<TraceOp>>,
        iodepth: u32,
    },
    /// A time-sorted arrival stream, its admission cap and fault schedule.
    Open {
        stream: Vec<ArrivalOp>,
        cap: u32,
        flaps: Vec<Flap>,
    },
}

/// One scheduled OSD flap.
#[derive(Debug, Clone, Copy)]
pub struct Flap {
    pub at: SimTime,
    pub osd: i32,
    pub down_for: SimDuration,
}

/// What one end-to-end run produced, with its host timings.
pub struct Run {
    pub report: RunReport,
    /// Ops offered: closed-loop ops, or open-loop arrivals.
    pub attempted: u64,
    /// Open-loop admission drops (0 for closed loops).
    pub dropped: u64,
    /// Open-loop admitted ops (equal to `attempted` for closed loops).
    pub admitted: u64,
    /// User bytes of the attempted ops.
    pub user_bytes: u64,
    /// `Engine::new`, fault-schedule build and op generation.
    pub setup: Duration,
    /// Of `setup`, the op/arrival generation alone.
    pub generate: Duration,
    /// The engine's run call.
    pub run: Duration,
    /// p99 latency interpolated within its histogram bucket, µs
    /// (`Probe::Telemetry` runs only).
    pub p99_us: Option<f64>,
}

/// Instrumentation for one engine run.  Neither probe changes the
/// simulated outputs; both cost host time, so timed runs use `Off`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    Off,
    /// Per-I/O stage spans (`RunReport::breakdown`).
    Stages,
    /// The telemetry plane, which keeps the run's latency histogram.
    Telemetry,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::RandRead4k,
        Workload::SeqWrite128kEc,
        Workload::OpenLoopMixedFlap,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RandRead4k => "randread-4k",
            Workload::SeqWrite128kEc => "seqwrite-128k-ec",
            Workload::OpenLoopMixedFlap => "openloop-mixed-flap",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Ops (or arrivals) per run at full size.
    pub fn full_ops(self) -> u64 {
        match self {
            Workload::RandRead4k => 60_000,
            Workload::SeqWrite128kEc => 400,
            Workload::OpenLoopMixedFlap => 40_000,
        }
    }

    pub fn mode(self) -> Mode {
        match self {
            Workload::SeqWrite128kEc => Mode::ErasureCoding,
            _ => Mode::Replication,
        }
    }

    /// The paper's anchor for this cell, where the repository holds one.
    pub fn paper_kiops(self) -> Option<f64> {
        (self == Workload::RandRead4k).then_some(PAPER_RANDREAD_KIOPS)
    }

    /// The engine's event-queue shape for this workload: (shards,
    /// tokens in flight).  Closed loops run one shard and one token per
    /// queue-depth slot; the open loop runs the three submission
    /// contexts, the arrival cursor and the background shard.
    pub fn queue_shape(self) -> (usize, usize) {
        match self {
            Workload::RandRead4k => (96, 96),
            Workload::SeqWrite128kEc => (32, 32),
            Workload::OpenLoopMixedFlap => (5, 4),
        }
    }

    /// DeLiBA-K with the card on, one sim thread, telemetry and the
    /// flight recorder off (the `EngineConfig::new` defaults).
    pub fn config(self, seed: u64) -> EngineConfig {
        let mut cfg = EngineConfig::new(Generation::DeLiBAK, true, self.mode()).with_sim_threads(1);
        cfg.seed = seed;
        if self == Workload::OpenLoopMixedFlap {
            cfg = cfg
                .with_resilience(ResiliencePolicy::default())
                .with_recovery(RecoveryPolicy::with_max_active(RECOVERY_MAX_ACTIVE));
        }
        cfg
    }

    /// The pinned knobs, for the provenance line.
    pub fn knobs(self) -> String {
        let base = format!(
            "generation=DeLiBA-K fpga=on mode={} sim_threads=1 telemetry=off trace_depth=off",
            self.mode().label()
        );
        match self {
            Workload::RandRead4k => format!("{base} closed-loop bs=4096 qd=32 jobs=3 rand-read"),
            Workload::SeqWrite128kEc => {
                format!("{base} closed-loop bs=131072 qd=32 jobs=1 seq-write ec=rs(4,2)")
            }
            Workload::OpenLoopMixedFlap => format!(
                "{base} open-loop poisson rate_kiops={OPEN_RATE_KIOPS} bs=4096 write_frac=0.5 \
                 zipf_s=0.9 admission_cap={OPEN_ADMISSION_CAP} resilience=default \
                 recovery_max_active={RECOVERY_MAX_ACTIVE} flap_period_ms={} flap_down_ms={}",
                FLAP_PERIOD.as_nanos() / 1_000_000,
                FLAP_DOWN.as_nanos() / 1_000_000
            ),
        }
    }

    /// Generate `ops` ops (arrivals) from `seed`.
    pub fn generate(self, seed: u64, ops: u64) -> Inputs {
        match self {
            Workload::RandRead4k => closed_fio(seed, ops, false, 4096, 3),
            Workload::SeqWrite128kEc => closed_fio(seed, ops, true, 128 * 1024, 1),
            Workload::OpenLoopMixedFlap => {
                let stream = OpenLoopSpec {
                    rate_kiops: OPEN_RATE_KIOPS,
                    ops,
                    block_size: 4096,
                    write_frac: 0.5,
                    arrival: ArrivalKind::Poisson,
                    zipf_s: 0.9,
                    seed: seed ^ 0x0FE7_100F,
                }
                .generate();
                let horizon = stream.last().map_or(SimTime::ZERO, |a| a.at);
                Inputs::Open {
                    stream,
                    cap: OPEN_ADMISSION_CAP,
                    flaps: flaps(horizon),
                }
            }
        }
    }

    /// Set up and run once at `ops`, timing set-up and run apart.
    pub fn run(self, seed: u64, ops: u64, probe: Probe) -> Run {
        let t0 = Instant::now();
        let inputs = self.generate(seed, ops);
        let generate = t0.elapsed();
        let cfg = match probe {
            Probe::Off => self.config(seed),
            Probe::Stages => self.config(seed).with_tracing(),
            Probe::Telemetry => self.config(seed).with_telemetry(TelemetryConfig::default()),
        };
        let mut engine = Engine::new(cfg);
        if let Inputs::Open { flaps, .. } = &inputs {
            engine.set_fault_schedule(schedule(flaps));
        }
        let setup = t0.elapsed();
        let t1 = Instant::now();
        let (report, attempted, admitted, dropped, user_bytes) = match inputs {
            Inputs::Closed { jobs, iodepth } => {
                let n = jobs.iter().map(Vec::len).sum::<usize>() as u64;
                let bytes = jobs.iter().flatten().map(|op| op.len as u64).sum();
                let report = engine.run_trace(jobs, iodepth);
                (report, n, n, 0, bytes)
            }
            Inputs::Open { stream, cap, .. } => {
                let bytes = stream.iter().map(|a| a.op.len as u64).sum();
                let run = engine.run_open_loop(&stream, cap);
                (
                    run.report,
                    stream.len() as u64,
                    run.point.admitted,
                    run.point.dropped,
                    bytes,
                )
            }
        };
        let run = t1.elapsed();
        let p99_us = engine.last_histogram().map(|h| h.quantile(0.99) / 1e3);
        Run {
            report,
            attempted,
            dropped,
            admitted,
            user_bytes,
            setup,
            generate,
            run,
            p99_us,
        }
    }
}

/// A fio-style closed loop: `jobs` jobs at qd 32, each streaming its own
/// slice of the image (sequential) or drawing uniform blocks (random).
fn closed_fio(seed: u64, ops: u64, seq_write: bool, bs: u32, jobs: u64) -> Inputs {
    let blocks = IMAGE_BYTES / bs as u64;
    let per_job = (ops / jobs).max(1);
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xF10_5EED);
    let region = blocks / jobs;
    let jobs = (0..jobs)
        .map(|j| {
            let base = (j * region + rng.gen_range(region)) % blocks;
            (0..per_job)
                .map(|k| {
                    if seq_write {
                        TraceOp::write(((base + k) % blocks) * bs as u64, bs, false)
                    } else {
                        TraceOp::read(rng.gen_range(blocks) * bs as u64, bs, true)
                    }
                })
                .collect()
        })
        .collect();
    Inputs::Closed { jobs, iodepth: 32 }
}

/// One flap per period on a rotating OSD, up to `horizon`.
fn flaps(horizon: SimTime) -> Vec<Flap> {
    let mut out = Vec::new();
    let mut at = SimTime::ZERO + FLAP_PERIOD;
    let mut k = 0i32;
    while at < horizon {
        out.push(Flap {
            at,
            osd: (5 + 11 * k) % 32,
            down_for: FLAP_DOWN,
        });
        at += FLAP_PERIOD;
        k += 1;
    }
    out
}

fn schedule(flaps: &[Flap]) -> FaultSchedule {
    flaps.iter().fold(FaultSchedule::new(), |s, f| {
        s.osd_flap(f.at, f.osd, f.down_for)
    })
}
