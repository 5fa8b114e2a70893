#![warn(missing_docs)]

//! # deliba-sim — deterministic discrete-event simulation substrate
//!
//! Every timing experiment in the DeLiBA-K reproduction runs on a virtual
//! clock.  The paper's testbed (Alveo U280 behind PCIe Gen3 x16, a 10 GbE
//! Ceph cluster with 32 OSDs, RHEL 9.4 client) is replaced by a
//! discrete-event simulation so that results are exactly reproducible and
//! independent of the host the reproduction runs on.
//!
//! The crate provides:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time;
//! * [`EventQueue`] — a deterministic event queue with stable FIFO
//!   ordering for simultaneous events;
//! * [`lane`] — the engine's queue ([`LaneQueue`]): the single heap
//!   plus conservative time-window accounting ([`WindowStats`]) that
//!   counts how much commit-ahead the lookahead would allow, without
//!   ever changing pop order;
//! * [`rng`] — small, fast, seedable PRNGs (`SplitMix64`, `Xoshiro256`)
//!   used wherever the simulation needs randomness that must not depend on
//!   platform or `std` hash ordering;
//! * [`metrics`] — latency histograms, counters and summary statistics used
//!   by the benchmark harness to print the paper's tables and figures;
//! * [`stage`] — per-I/O stage-span tracing ([`Stage`] taxonomy +
//!   [`StageTracer`]) behind the engine's latency-breakdown reports;
//! * [`trace`] — the opt-in per-I/O flight recorder ([`TraceHandle`] /
//!   [`trace::TraceSink`]): a bounded ring of typed events with
//!   Chrome-trace export and worst-K span-chain reconstruction;
//! * [`resource`] — queueing-theory building blocks (single/multi servers,
//!   bandwidth pipes, token buckets) shared by the network, OSD, PCIe and
//!   host-CPU models;
//! * [`timeseries`] — the opt-in time-resolved telemetry plane
//!   ([`TelemetryHandle`] / [`timeseries::MetricsRecorder`]):
//!   fixed-width virtual-time windows of ops/latency/gauge series with
//!   SLO burn-rate alerts and CSV/JSON/Prometheus/Chrome exporters.

pub mod event;
pub mod lane;
pub mod metrics;
pub mod resource;
pub mod rng;
pub mod stage;
pub mod time;
pub mod timeseries;
pub mod trace;

pub use event::EventQueue;
pub use lane::{LaneQueue, WindowStats};
pub use metrics::{Counter, Histogram, Summary};
pub use stage::{Stage, StageTracer};
pub use timeseries::{GaugeSnapshot, SloAlert, SloSummary, TelemetryConfig, TelemetryHandle};
pub use trace::{InstantKind, TraceDepth, TraceHandle, TraceLayer};
pub use resource::{Bandwidth, MultiServer, Server, TokenBucket};
pub use rng::{SimRng, SplitMix64, Xoshiro256};
pub use time::{round_nonneg, SimDuration, SimTime};
