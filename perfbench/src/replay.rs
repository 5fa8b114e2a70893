//! The traced replay: a workload's own op stream driven through each
//! layer's public entry point in the order the engine calls them, with
//! one span per call recorded from here, outside the program.
//!
//! The replay owns its own cluster, card, PCIe pipes and event queue,
//! built exactly as `Engine::new` builds them, and carries each op's
//! virtual time from call to call the way the engine's attempt path
//! does.  It runs the calls serially (one op at a time), so queueing
//! inside the simulated cluster is lighter than in the closed loop; the
//! host work per call is the same code.

use crate::workload::{Flap, Inputs, Workload};
use deliba_cluster::cluster::{RULE_EC_OSD, RULE_REPLICATED_OSD};
use deliba_cluster::{Cluster, ObjectId, RbdImage};
use deliba_core::generation::PathFeatures;
use deliba_core::hostpath::host_costs;
use deliba_core::{calib, Generation, Mode, TraceOp, IMAGE_BYTES};
use deliba_ec::ReedSolomon;
use deliba_fpga::AlveoU280;
use deliba_net::{FrameConfig, TcpStack};
use deliba_qdma::PciePipes;
use deliba_sim::{LaneQueue, SimDuration, SimRng, SimTime, Xoshiro256};
use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

/// A layer boundary the replay times.  `Op` is the per-op parent span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Op,
    CoreHostCosts,
    QdmaDma,
    CrushPlace,
    FpgaPlace,
    FpgaEncode,
    EcEncode,
    NetTcp,
    ClusterRead,
    ClusterWrite,
    SimQueue,
}

impl Layer {
    pub const CALLS: [Layer; 10] = [
        Layer::CoreHostCosts,
        Layer::QdmaDma,
        Layer::CrushPlace,
        Layer::FpgaPlace,
        Layer::FpgaEncode,
        Layer::EcEncode,
        Layer::NetTcp,
        Layer::ClusterRead,
        Layer::ClusterWrite,
        Layer::SimQueue,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Op => "op",
            Layer::CoreHostCosts => "core.host_costs",
            Layer::QdmaDma => "qdma.dma",
            Layer::CrushPlace => "crush.place",
            Layer::FpgaPlace => "fpga.place",
            Layer::FpgaEncode => "fpga.encode",
            Layer::EcEncode => "ec.encode",
            Layer::NetTcp => "net.tcp",
            Layer::ClusterRead => "cluster.read",
            Layer::ClusterWrite => "cluster.write",
            Layer::SimQueue => "sim.queue",
        }
    }

    /// The engine runs the RS codec inside `AlveoU280::encode`, so the
    /// standalone `ec.encode` call is a second measurement of work the
    /// `fpga.encode` span already holds, not an extra engine cost.
    pub fn in_engine_sum(self) -> bool {
        !matches!(self, Layer::Op | Layer::EcEncode | Layer::SimQueue)
    }
}

/// One recorded call.  `parent` is the index of the op's `Op` span
/// (`u32::MAX` on the `Op` span itself); times are host ns since the
/// pass began.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    pub op: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Where the replay's calls go: straight through, or timed into spans.
pub trait Recorder {
    fn span<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T;
    fn begin_op(&mut self, op: u32);
    fn end_op(&mut self);
}

/// Calls straight through: the untraced baseline of the overhead figure.
pub struct Untimed;

impl Recorder for Untimed {
    #[inline]
    fn span<T>(&mut self, _: Layer, f: impl FnOnce() -> T) -> T {
        f()
    }
    fn begin_op(&mut self, _: u32) {}
    fn end_op(&mut self) {}
}

/// Keeps every span in memory until the pass ends.
pub struct Spans {
    origin: Instant,
    op: u32,
    parent: u32,
    pub spans: Vec<Span>,
    /// Back-to-back clock reads taken once per op: what an empty span
    /// reads at this point of the pass.
    clock_ns: u64,
    clock_reads: u64,
}

impl Spans {
    pub fn with_capacity(n: usize) -> Self {
        Spans {
            origin: Instant::now(),
            op: 0,
            parent: u32::MAX,
            spans: Vec::with_capacity(n),
            clock_ns: 0,
            clock_reads: 0,
        }
    }

    #[inline]
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Mean host ns an empty span read during this pass, so per-call
    /// figures can be net of the clock reads that bracket every call.
    pub fn clock_cost_ns(&self) -> f64 {
        self.clock_ns as f64 / self.clock_reads.max(1) as f64
    }

    /// Write the spans as CSV: one line per call.
    pub fn write_csv(&self, out: &mut impl Write, header: &str) -> std::io::Result<()> {
        writeln!(out, "# {header}")?;
        writeln!(out, "span_id,parent_id,op_id,layer,start_ns,end_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == u32::MAX {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i},{parent},{},{},{},{}",
                s.op,
                s.layer.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
        Ok(())
    }
}

impl Recorder for Spans {
    #[inline]
    fn span<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        self.spans.push(Span {
            layer,
            op: self.op,
            parent: self.parent,
            start_ns,
            end_ns,
        });
        out
    }

    fn begin_op(&mut self, op: u32) {
        let (a, b) = (self.now(), self.now());
        self.clock_ns += b - a;
        self.clock_reads += 1;
        self.op = op;
        self.parent = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            layer: Layer::Op,
            op,
            parent: u32::MAX,
            start_ns,
            end_ns: 0,
        });
    }

    fn end_op(&mut self) {
        let end = self.now();
        self.spans[self.parent as usize].end_ns = end;
        self.parent = u32::MAX;
    }
}

/// Work a replay pass did, for the per-byte and per-op denominators.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub ops: u64,
    pub read_ops: u64,
    pub write_bytes: u64,
    pub encode_bytes: u64,
}

/// An op in replay order: its intended arrival (open loop) or `None`
/// (closed loop: send when the previous op completes).
pub type ReplayOp = (Option<SimTime>, TraceOp);

/// Flatten a workload's inputs into replay order: closed-loop jobs
/// interleaved round-robin, open-loop arrivals as generated.  Returns
/// the ops and the flaps to apply on the way.
pub fn replay_ops(inputs: Inputs, limit: usize) -> (Vec<ReplayOp>, Vec<Flap>) {
    match inputs {
        Inputs::Closed { jobs, .. } => {
            let longest = jobs.iter().map(Vec::len).max().unwrap_or(0);
            let ops = (0..longest)
                .flat_map(|k| jobs.iter().filter_map(move |j| j.get(k).copied()))
                .take(limit)
                .map(|op| (None, op))
                .collect();
            (ops, Vec::new())
        }
        Inputs::Open { stream, flaps, .. } => {
            let ops = stream
                .iter()
                .take(limit)
                .map(|a| (Some(a.at), a.op))
                .collect();
            (ops, flaps)
        }
    }
}

/// The replay's private testbed.
pub struct Replay {
    mode: Mode,
    features: PathFeatures,
    cluster: Cluster,
    card: AlveoU280,
    pcie: PciePipes,
    image: RbdImage,
    codec: ReedSolomon,
    queue: LaneQueue<u32>,
    lanes: usize,
    payload_rng: Xoshiro256,
    payload: Vec<u8>,
    read_buf: Vec<u8>,
    devs: Vec<i32>,
    /// (instant, osd, goes down) in time order.
    flaps: Vec<(SimTime, i32, bool)>,
    next_flap: usize,
    pub counts: Counts,
}

impl Replay {
    /// Build as `Engine::new` builds its testbed.  The event queue gets
    /// `lanes` shards and `inflight` tokens, the run's own shape.
    pub fn new(
        workload: Workload,
        seed: u64,
        flaps: &[Flap],
        lanes: usize,
        inflight: usize,
    ) -> Self {
        let mut cluster = Cluster::paper_testbed_with_frames(seed, FrameConfig::standard());
        if workload.config(seed).recovery.is_some() {
            cluster.set_dynamics(true);
        }
        let mut events: Vec<(SimTime, i32, bool)> = flaps
            .iter()
            .flat_map(|f| [(f.at, f.osd, true), (f.at + f.down_for, f.osd, false)])
            .collect();
        events.sort_by_key(|e| e.0);
        let lanes = lanes.max(1);
        let mut queue = LaneQueue::new(lanes, inflight + 8);
        for k in 0..inflight.max(1) {
            queue.schedule_at(k % lanes, SimTime::from_nanos(k as u64), k as u32);
        }
        let mode = workload.mode();
        Replay {
            mode,
            features: Generation::DeLiBAK.features(),
            cluster,
            card: AlveoU280::deliba_k_default(),
            pcie: PciePipes::new(calib::PCIE_GBYTES_PER_SEC),
            image: RbdImage::new(
                match mode {
                    Mode::Replication => 1,
                    Mode::ErasureCoding => 2,
                },
                0xD3B5,
                IMAGE_BYTES,
            ),
            codec: ReedSolomon::new(4, 2),
            queue,
            lanes,
            payload_rng: Xoshiro256::seed_from_u64(seed ^ 0xBA7_10AD),
            payload: Vec::new(),
            read_buf: Vec::new(),
            devs: Vec::new(),
            flaps: events,
            next_flap: 0,
            counts: Counts::default(),
        }
    }

    /// Replay every op through the layers, recording into `rec`.
    pub fn run<R: Recorder>(&mut self, ops: &[ReplayOp], rec: &mut R) {
        let mut prev_complete = SimTime::ZERO;
        for (i, &(at, op)) in ops.iter().enumerate() {
            let ready = at.unwrap_or(prev_complete);
            self.apply_flaps(ready);
            rec.begin_op(i as u32);
            prev_complete = self.one(ready, op, rec);
            rec.end_op();
        }
    }

    fn apply_flaps(&mut self, now: SimTime) {
        while let Some(&(at, osd, down)) = self.flaps.get(self.next_flap) {
            if at > now {
                return;
            }
            if down {
                self.cluster.fail_osd(osd);
            } else {
                self.cluster.revive_osd(osd);
            }
            self.next_flap += 1;
        }
    }

    /// One op, in the engine's call order; returns its completion.
    fn one<R: Recorder>(&mut self, ready: SimTime, op: TraceOp, rec: &mut R) -> SimTime {
        let write = op.write;
        let bytes = op.len as u64;
        let (mode, features) = (self.mode, self.features);
        let costs = rec.span(Layer::CoreHostCosts, || {
            host_costs(&features, true, write, op.random, bytes, mode)
        });
        let mut t = ready + costs.submit_latency;
        if write {
            // Payload generation is engine glue, not a layer: untimed.
            self.payload.clear();
            self.payload.resize(op.len as usize, 0);
            for chunk in self.payload.chunks_mut(8) {
                let word = self.payload_rng.next_u64().to_le_bytes();
                let n = chunk.len();
                chunk.copy_from_slice(&word[..n]);
            }
        }
        let dma_bytes = if write { bytes } else { 256 };
        let pcie = &mut self.pcie;
        t = rec.span(Layer::QdmaDma, || pcie.h2c_transfer(t, dma_bytes));

        let (rule, width, pool_id) = match mode {
            Mode::Replication => (RULE_REPLICATED_OSD, 3, 1u32),
            Mode::ErasureCoding => (RULE_EC_OSD, 6, 2u32),
        };
        let (obj, obj_off) = self.image.object_of(op.offset);
        let map = self.cluster.map();
        let pool = map.pool(pool_id).expect("testbed pool exists");
        let seed = pool.pg_seed(pool.pg_of(ObjectId::new(pool_id, obj.name)));
        let devs = &mut self.devs;
        rec.span(Layer::CrushPlace, || {
            map.do_rule_cached(rule, seed, width, devs)
        });
        let card = &mut self.card;
        let (place_t, _) = rec.span(Layer::FpgaPlace, || card.place_prefetched(t, None));
        t += place_t;

        let mut shards = None;
        if write && mode == Mode::ErasureCoding {
            let data = &self.payload;
            let (s, enc_t) = rec.span(Layer::FpgaEncode, || card.encode(data));
            t += enc_t;
            shards = Some(s);
            let codec = &self.codec;
            black_box(rec.span(Layer::EcEncode, || codec.encode(data)));
            self.counts.encode_bytes += bytes;
        }
        let stack = TcpStack::new(features.hw_tcp);
        if stack.is_offloaded() {
            t += rec.span(Layer::NetTcp, || stack.latency(bytes));
        }

        let cluster = &mut self.cluster;
        let data = &self.payload;
        let outcome = match (mode, write) {
            (Mode::Replication, true) => rec.span(Layer::ClusterWrite, || {
                cluster.write_replicated_at(t, obj, obj_off as usize, data, op.random)
            }),
            (Mode::ErasureCoding, true) => {
                let oid = ec_oid(self.image.pool, obj.name, op.offset);
                let shards = shards.expect("EC write encoded");
                rec.span(Layer::ClusterWrite, || {
                    cluster.write_ec_shards(t, oid, data.len(), shards, op.random)
                })
            }
            (Mode::Replication, false) => {
                let buf = &mut self.read_buf;
                rec.span(Layer::ClusterRead, || {
                    cluster.read_replicated_into(
                        t,
                        obj,
                        obj_off as usize,
                        op.len as usize,
                        op.random,
                        buf,
                    )
                })
            }
            (Mode::ErasureCoding, false) => {
                unreachable!("no benchmark workload reads an EC pool")
            }
        };
        if write {
            self.counts.write_bytes += bytes;
        } else {
            self.counts.read_ops += 1;
        }
        self.counts.ops += 1;
        let mut complete = outcome.map_or(t, |o| o.complete);
        if !write {
            let pcie = &mut self.pcie;
            complete = rec.span(Layer::QdmaDma, || pcie.c2h_transfer(complete, bytes));
        }
        complete += costs.complete_latency;

        // One event-queue round trip, spaced by this op's latency.
        let (queue, lanes) = (&mut self.queue, self.lanes);
        let lat = complete
            .saturating_since(ready)
            .max(SimDuration::from_nanos(1));
        rec.span(Layer::SimQueue, || {
            let (now, token) = queue.pop().expect("queue holds the in-flight tokens");
            queue.schedule_at(token as usize % lanes, now + lat, token);
        });
        complete
    }
}

/// The engine's per-extent EC object id (each block-sized extent of an
/// RBD object is its own EC object).
fn ec_oid(pool: u32, obj_name: u64, offset: u64) -> ObjectId {
    let mut z = obj_name ^ offset.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    ObjectId::new(pool, z ^ (z >> 31))
}
