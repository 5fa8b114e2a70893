//! The multi-queue fabric: per-CPU software queues → hardware contexts.
//!
//! In the DMQ configuration every submitting core maps 1:1 onto a
//! hardware context that in turn drives one QDMA queue set, "reducing
//! overhead from queue contention and inter-core communication"
//! (§III-B).  With fewer hardware queues than CPUs the kernel maps
//! several software queues onto each context — both shapes are
//! supported here.

use crate::request::BlockRequest;
use crate::sched::{SchedPolicy, Scheduler};
use crate::tag::TagSet;
use parking_lot::Mutex;
use std::sync::Arc;

/// Counters exposed per hardware context.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Requests inserted.
    pub inserted: u64,
    /// Requests dispatched to the driver.
    pub dispatched: u64,
    /// Requests merged away by the scheduler.
    pub merged: u64,
    /// Dispatch attempts that found no free driver tag.
    pub tag_starved: u64,
}

/// One hardware queue context.
#[derive(Debug)]
pub struct HardwareCtx {
    /// Context index.
    pub index: usize,
    sched: Scheduler,
    stats: QueueStats,
    /// Recycled candidate buffer for [`MultiQueue::dispatch_into`].
    scratch: Vec<BlockRequest>,
}

impl HardwareCtx {
    fn new(index: usize, policy: SchedPolicy) -> Self {
        HardwareCtx {
            index,
            sched: Scheduler::new(policy),
            stats: QueueStats::default(),
            scratch: Vec::new(),
        }
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> QueueStats {
        let mut s = self.stats;
        s.merged = self.sched.merged();
        s
    }

    /// Pending (not yet dispatched) requests.
    pub fn pending(&self) -> usize {
        self.sched.pending()
    }
}

/// The multi-queue block device instance.
pub struct MultiQueue {
    hctxs: Vec<Mutex<HardwareCtx>>,
    tags: Arc<TagSet>,
    nr_cpus: usize,
}

impl MultiQueue {
    /// A queue fabric for `nr_cpus` submitting CPUs, `nr_hw` hardware
    /// contexts, `tag_depth` driver tags shared across contexts, and the
    /// given scheduler policy.
    pub fn new(nr_cpus: usize, nr_hw: usize, tag_depth: u16, policy: SchedPolicy) -> Self {
        assert!(nr_cpus > 0 && nr_hw > 0);
        let hctxs = (0..nr_hw)
            .map(|i| Mutex::new(HardwareCtx::new(i, policy)))
            .collect();
        MultiQueue {
            hctxs,
            tags: Arc::new(TagSet::new(tag_depth)),
            nr_cpus,
        }
    }

    /// Number of hardware contexts.
    pub fn nr_hw_queues(&self) -> usize {
        self.hctxs.len()
    }

    /// Number of submitting CPUs this fabric was sized for.
    pub fn nr_cpus(&self) -> usize {
        self.nr_cpus
    }

    /// Shared driver tag set.
    pub fn tags(&self) -> &Arc<TagSet> {
        &self.tags
    }

    /// The hardware context a CPU's software queue maps onto
    /// (the kernel's default spread map).
    pub fn hctx_of_cpu(&self, cpu: usize) -> usize {
        cpu * self.hctxs.len() / self.nr_cpus.max(1) % self.hctxs.len()
    }

    /// Insert a request from its submitting CPU.  Returns `true` if the
    /// request merged into an existing one.
    pub fn insert(&self, req: BlockRequest) -> bool {
        let hctx_idx = self.hctx_of_cpu(req.cpu);
        let mut hctx = self.hctxs[hctx_idx].lock();
        hctx.stats.inserted += 1;
        hctx.sched.insert(req)
    }

    /// Dispatch up to `max` requests from hardware context `hctx_idx`,
    /// assigning driver tags.  Requests that cannot get a tag are
    /// returned to the scheduler (all-or-nothing per request).
    pub fn dispatch(&self, hctx_idx: usize, now_ns: u64, max: usize) -> Vec<BlockRequest> {
        let mut out = Vec::new();
        self.dispatch_into(hctx_idx, now_ns, max, &mut out);
        out
    }

    /// [`dispatch`](Self::dispatch) into caller scratch: `out` is cleared
    /// and filled.  Returns the count; the candidate buffer lives inside
    /// the hardware context, so an idle queue allocates nothing.
    pub fn dispatch_into(
        &self,
        hctx_idx: usize,
        now_ns: u64,
        max: usize,
        out: &mut Vec<BlockRequest>,
    ) -> usize {
        out.clear();
        let mut hctx = self.hctxs[hctx_idx].lock();
        let mut candidates = std::mem::take(&mut hctx.scratch);
        hctx.sched.dispatch_into(now_ns, max, &mut candidates);
        let mut iter = candidates.drain(..);
        for mut req in iter.by_ref() {
            match self.tags.alloc(req.cpu) {
                Some(tag) => {
                    req.tag = Some(tag);
                    hctx.stats.dispatched += 1;
                    out.push(req);
                }
                None => {
                    hctx.stats.tag_starved += 1;
                    // Requeue this and every remaining candidate;
                    // scheduler keeps FIFO order within the op class.
                    hctx.sched.insert(req);
                    break;
                }
            }
        }
        for req in iter {
            hctx.sched.insert(req);
        }
        hctx.scratch = candidates;
        out.len()
    }

    /// Complete a request: release its driver tag.
    pub fn complete(&self, req: &BlockRequest) {
        if let Some(tag) = req.tag {
            self.tags.free(tag);
        }
    }

    /// Statistics for one hardware context.
    pub fn hctx_stats(&self, hctx_idx: usize) -> QueueStats {
        self.hctxs[hctx_idx].lock().stats()
    }

    /// Total pending requests across all contexts.
    pub fn total_pending(&self) -> usize {
        self.hctxs.iter().map(|h| h.lock().pending()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ReqOp;

    fn req(cpu: usize, sector: u64, t: u64) -> BlockRequest {
        BlockRequest::new(ReqOp::Read, sector, 4096, cpu, t, 0)
    }

    #[test]
    fn cpu_to_hctx_map_is_balanced() {
        let mq = MultiQueue::new(8, 4, 64, SchedPolicy::None);
        let mut counts = [0; 4];
        for cpu in 0..8 {
            counts[mq.hctx_of_cpu(cpu)] += 1;
        }
        assert_eq!(counts, [2, 2, 2, 2]);
    }

    #[test]
    fn one_to_one_map_when_equal() {
        // The DeLiBA-K shape: 3 pinned cores, 3 hardware queues.
        let mq = MultiQueue::new(3, 3, 256, SchedPolicy::None);
        for cpu in 0..3 {
            assert_eq!(mq.hctx_of_cpu(cpu), cpu);
        }
    }

    #[test]
    fn insert_dispatch_complete_cycle() {
        let mq = MultiQueue::new(2, 2, 4, SchedPolicy::Fifo);
        for i in 0..3 {
            mq.insert(req(0, i * 1000, i));
        }
        let batch = mq.dispatch(0, 100, 10);
        assert_eq!(batch.len(), 3);
        assert!(batch.iter().all(|r| r.tag.is_some()));
        assert_eq!(mq.tags().in_use(), 3);
        for r in &batch {
            mq.complete(r);
        }
        assert_eq!(mq.tags().in_use(), 0);
        let stats = mq.hctx_stats(0);
        assert_eq!(stats.inserted, 3);
        assert_eq!(stats.dispatched, 3);
    }

    #[test]
    fn tag_exhaustion_requeues() {
        let mq = MultiQueue::new(1, 1, 2, SchedPolicy::Fifo);
        for i in 0..5 {
            mq.insert(req(0, i * 1000, i));
        }
        let batch = mq.dispatch(0, 0, 10);
        assert_eq!(batch.len(), 2, "only 2 tags available");
        assert_eq!(mq.total_pending(), 3);
        assert!(mq.hctx_stats(0).tag_starved >= 1);
        // Complete one → another dispatch becomes possible.
        mq.complete(&batch[0]);
        let more = mq.dispatch(0, 0, 10);
        assert_eq!(more.len(), 1);
    }

    #[test]
    fn dispatch_into_matches_dispatch_under_tag_pressure() {
        let mq = MultiQueue::new(1, 1, 2, SchedPolicy::Fifo);
        for i in 0..5 {
            mq.insert(req(0, i * 1000, i));
        }
        let mut out = vec![req(0, 999, 999)]; // stale contents must be cleared
        assert_eq!(mq.dispatch_into(0, 0, 10, &mut out), 2, "only 2 tags");
        assert!(out.iter().all(|r| r.tag.is_some()));
        assert_eq!(mq.total_pending(), 3);
        for r in &out {
            mq.complete(r);
        }
        // Drain the rest; scratch reuse must not leak stale requests.
        assert_eq!(mq.dispatch_into(0, 0, 10, &mut out), 2);
        for r in &out {
            mq.complete(r);
        }
        assert_eq!(mq.dispatch_into(0, 0, 10, &mut out), 1);
        mq.complete(&out[0]);
        assert_eq!(mq.dispatch_into(0, 0, 10, &mut out), 0);
        assert!(out.is_empty());
    }

    #[test]
    fn requests_route_by_cpu() {
        let mq = MultiQueue::new(4, 2, 64, SchedPolicy::Fifo);
        mq.insert(req(0, 0, 0)); // → hctx 0
        mq.insert(req(3, 8, 1)); // → hctx 1
        assert_eq!(mq.dispatch(0, 10, 10).len(), 1);
        assert_eq!(mq.dispatch(1, 10, 10).len(), 1);
    }

    #[test]
    fn concurrent_inserts_from_many_cpus() {
        let mq = Arc::new(MultiQueue::new(4, 4, 512, SchedPolicy::Fifo));
        let mut handles = Vec::new();
        for cpu in 0..4 {
            let mq = Arc::clone(&mq);
            handles.push(std::thread::spawn(move || {
                for i in 0..1000u64 {
                    // Non-contiguous so nothing merges.
                    mq.insert(req(cpu, (cpu as u64) << 32 | (i * 100), i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let total: u64 = (0..4).map(|i| mq.hctx_stats(i).inserted).sum();
        assert_eq!(total, 4000);
        // Everything dispatches (512 tags, drain in waves).
        let mut seen = 0;
        while seen < 4000 {
            let mut progressed = false;
            for h in 0..4 {
                let batch = mq.dispatch(h, 0, 64);
                for r in &batch {
                    mq.complete(r);
                }
                seen += batch.len();
                progressed |= !batch.is_empty();
            }
            assert!(progressed, "stalled at {seen}");
        }
    }
}
