//! OSDs: object storage daemons with service-time profiles.
//!
//! Each OSD stores real objects (integrity is checkable end-to-end) and
//! charges virtual time per operation through a small queueing model:
//! a bank of internal service threads in front of a flash device with
//! distinct sequential/random and read/write characteristics.

use crate::object::{ObjectId, ObjectStore};
use bytes::Bytes;
use deliba_sim::{MultiServer, SimDuration, SimRng, SimTime, Xoshiro256};

/// Service-time parameters of one OSD.
#[derive(Debug, Clone, Copy)]
pub struct OsdProfile {
    /// Fixed software path per op (PG lock, messenger, journal) in ns.
    pub op_overhead_ns: u64,
    /// Media read latency in ns.
    pub read_media_ns: u64,
    /// Media write latency in ns (flash program + WAL).
    pub write_media_ns: u64,
    /// Per-byte read cost in ns (media bandwidth term).
    pub read_ns_per_kib: u64,
    /// Per-byte write cost in ns.
    pub write_ns_per_kib: u64,
    /// Extra latency for a random (non-contiguous) read (cache miss in
    /// the OSD's read path).
    pub random_read_penalty_ns: u64,
    /// Extra latency for a random write (allocator/WAL locality loss).
    pub random_write_penalty_ns: u64,
    /// Internal parallelism (op threads).
    pub parallelism: usize,
    /// Exponential jitter fraction of the mean (0 disables jitter).
    pub jitter_frac: f64,
}

impl OsdProfile {
    /// The lab's OSDs: datacenter SATA/SAS SSDs behind the Ceph OSD
    /// daemon.  Values produce the per-OSD service times the paper's
    /// cluster-level numbers imply.
    pub fn lab_ssd() -> Self {
        OsdProfile {
            op_overhead_ns: 6_000,
            read_media_ns: 5_000,
            write_media_ns: 8_000,
            read_ns_per_kib: 260,
            write_ns_per_kib: 340,
            random_read_penalty_ns: 24_000,
            random_write_penalty_ns: 14_000,
            parallelism: 8,
            jitter_frac: 0.10,
        }
    }

    /// Service time for one op before queueing.
    pub fn service(&self, write: bool, random: bool, bytes: u64, jitter: f64) -> SimDuration {
        let media = if write {
            self.write_media_ns
        } else {
            self.read_media_ns
        };
        let per_kib = if write {
            self.write_ns_per_kib
        } else {
            self.read_ns_per_kib
        };
        let mut ns = self.op_overhead_ns + media + per_kib * bytes.div_ceil(1024);
        if random {
            ns += if write {
                self.random_write_penalty_ns
            } else {
                self.random_read_penalty_ns
            };
        }
        SimDuration::from_nanos(deliba_sim::round_nonneg(ns as f64 * (1.0 + jitter)))
    }

    /// Lower bound on any service time this profile can produce: the
    /// fixed software overhead plus the cheaper media latency (jitter is
    /// nonnegative and every other term only adds).  The cluster's
    /// contribution to the conservative event-queue lookahead.
    pub fn service_floor(&self) -> SimDuration {
        SimDuration::from_nanos(self.op_overhead_ns + self.read_media_ns.min(self.write_media_ns))
    }
}

/// One OSD.
#[derive(Debug)]
pub struct Osd {
    /// OSD id (matches the CRUSH device id).
    pub id: i32,
    /// Which storage server hosts this OSD (network locality).
    pub server: usize,
    store: ObjectStore,
    profile: OsdProfile,
    threads: MultiServer,
    rng: Xoshiro256,
    up: bool,
}

impl Osd {
    /// A fresh OSD.
    pub fn new(id: i32, server: usize, profile: OsdProfile, rng: Xoshiro256) -> Self {
        Osd {
            id,
            server,
            store: ObjectStore::new(),
            threads: MultiServer::new(profile.parallelism),
            profile,
            rng,
            up: true,
        }
    }

    /// Is the OSD serving?
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// The service-time profile.
    pub fn profile(&self) -> &OsdProfile {
        &self.profile
    }

    /// Mark the daemon down (failure injection).
    pub fn set_up(&mut self, up: bool) {
        self.up = up;
    }

    /// Direct store access (scrub, recovery).
    pub fn store(&self) -> &ObjectStore {
        &self.store
    }

    /// Mutable store access (recovery backfill).
    pub fn store_mut(&mut self) -> &mut ObjectStore {
        &mut self.store
    }

    fn jitter(&mut self) -> f64 {
        if self.profile.jitter_frac == 0.0 {
            0.0
        } else {
            self.rng.exp_sample(self.profile.jitter_frac)
        }
    }

    /// Write a full object arriving at `arrive`; returns the ack time.
    /// Returns `None` when the OSD is down.
    pub fn write_object(
        &mut self,
        arrive: SimTime,
        id: ObjectId,
        data: Bytes,
        random: bool,
    ) -> Option<SimTime> {
        if !self.up {
            return None;
        }
        let j = self.jitter();
        let service = self.profile.service(true, random, data.len() as u64, j);
        self.store.write(id, data);
        let (_, fin) = self.threads.begin(arrive, service);
        Some(fin)
    }

    /// Partial object write at `offset`.
    pub fn write_object_at(
        &mut self,
        arrive: SimTime,
        id: ObjectId,
        offset: usize,
        data: &[u8],
        random: bool,
    ) -> Option<SimTime> {
        if !self.up {
            return None;
        }
        let j = self.jitter();
        let service = self.profile.service(true, random, data.len() as u64, j);
        self.store.write_at(id, offset, data);
        let (_, fin) = self.threads.begin(arrive, service);
        Some(fin)
    }

    /// Read `len` bytes at `offset`; returns data and completion time,
    /// or `None` when down.
    pub fn read_object_at(
        &mut self,
        arrive: SimTime,
        id: ObjectId,
        offset: usize,
        len: usize,
        random: bool,
    ) -> Option<(Bytes, SimTime)> {
        let mut out = Vec::new();
        let fin = self.read_object_at_into(arrive, id, offset, len, random, &mut out)?;
        Some((Bytes::from(out), fin))
    }

    /// [`Osd::read_object_at`] into a caller-supplied buffer (resized to
    /// `len`) — identical timing and RNG stream, no allocation.
    pub fn read_object_at_into(
        &mut self,
        arrive: SimTime,
        id: ObjectId,
        offset: usize,
        len: usize,
        random: bool,
        out: &mut Vec<u8>,
    ) -> Option<SimTime> {
        if !self.up {
            return None;
        }
        let j = self.jitter();
        let service = self.profile.service(false, random, len as u64, j);
        self.store.read_at_into(id, offset, len, out);
        let (_, fin) = self.threads.begin(arrive, service);
        Some(fin)
    }

    /// Ops served so far.
    pub fn ops_served(&self) -> u64 {
        self.threads.served()
    }

    /// Utilization over `[0, horizon]`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        self.threads.utilization(horizon)
    }

    /// Cumulative busy time across this OSD's service threads.
    pub fn busy_time(&self) -> SimDuration {
        self.threads.busy_time()
    }

    /// Service threads still occupied at `at` — the OSD's instantaneous
    /// queue depth for the telemetry plane.
    pub fn busy_threads_at(&self, at: SimTime) -> u32 {
        self.threads.busy_at(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn osd() -> Osd {
        let mut p = OsdProfile::lab_ssd();
        p.jitter_frac = 0.0; // deterministic for unit tests
        Osd::new(0, 0, p, Xoshiro256::seed_from_u64(1))
    }

    #[test]
    fn write_then_read_round_trip() {
        let mut o = osd();
        let id = ObjectId::new(0, 7);
        let data = Bytes::from(vec![9u8; 4096]);
        let ack = o.write_object(SimTime::ZERO, id, data.clone(), true).unwrap();
        assert!(ack.as_nanos() > 0);
        let (read, fin) = o.read_object_at(ack, id, 0, 4096, true).unwrap();
        assert_eq!(read, data);
        assert!(fin > ack);
    }

    #[test]
    fn sequential_writes_cost_more_than_sequential_reads() {
        // Media program + WAL makes writes dearer; random *reads* carry
        // the larger locality penalty (cache miss), so the comparison is
        // meaningful only at equal locality.
        let p = OsdProfile::lab_ssd();
        let w = p.service(true, false, 4096, 0.0);
        let r = p.service(false, false, 4096, 0.0);
        assert!(w > r);
        let wr = p.service(true, true, 4096, 0.0);
        let ws = p.service(true, false, 4096, 0.0);
        assert!(wr > ws, "random write penalty applies");
    }

    #[test]
    fn random_penalty_applies() {
        let p = OsdProfile::lab_ssd();
        let rand = p.service(false, true, 4096, 0.0);
        let seq = p.service(false, false, 4096, 0.0);
        assert_eq!(
            (rand - seq).as_nanos(),
            p.random_read_penalty_ns,
            "penalty is additive"
        );
    }

    #[test]
    fn large_io_scales_with_size() {
        let p = OsdProfile::lab_ssd();
        let small = p.service(false, false, 4096, 0.0);
        let large = p.service(false, false, 128 * 1024, 0.0);
        assert!(large.as_nanos() > small.as_nanos() + 100 * p.read_ns_per_kib);
    }

    #[test]
    fn down_osd_refuses_io() {
        let mut o = osd();
        o.set_up(false);
        assert!(o
            .write_object(SimTime::ZERO, ObjectId::new(0, 1), Bytes::new(), true)
            .is_none());
        assert!(o.read_object_at(SimTime::ZERO, ObjectId::new(0, 1), 0, 8, true).is_none());
        o.set_up(true);
        assert!(o
            .write_object(SimTime::ZERO, ObjectId::new(0, 1), Bytes::from_static(b"x"), true)
            .is_some());
    }

    #[test]
    fn parallelism_overlaps_service() {
        let mut o = osd();
        let id = ObjectId::new(0, 1);
        // 8 simultaneous ops with parallelism 8 all finish at the same
        // time; a 9th queues.
        let mut finishes = Vec::new();
        for i in 0..9 {
            let f = o
                .write_object(SimTime::ZERO, ObjectId::new(0, i), Bytes::from(vec![0; 4096]), true)
                .unwrap();
            finishes.push(f);
        }
        assert_eq!(finishes[0], finishes[7]);
        assert!(finishes[8] > finishes[7]);
        let _ = id;
    }

    #[test]
    fn jitter_varies_but_bounded() {
        let mut p = OsdProfile::lab_ssd();
        p.jitter_frac = 0.1;
        let mut o = Osd::new(0, 0, p, Xoshiro256::seed_from_u64(3));
        let mut times: Vec<u64> = Vec::new();
        for i in 0..200 {
            let f = o
                .write_object(SimTime::ZERO, ObjectId::new(0, i), Bytes::from(vec![0; 4096]), true)
                .unwrap();
            times.push(f.as_nanos());
        }
        let min = *times.iter().min().unwrap();
        let max = *times.iter().max().unwrap();
        assert!(max > min, "jitter must vary");
    }
}
