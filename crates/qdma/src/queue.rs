//! Queue sets: the unit of QDMA configuration.
//!
//! "Each of the 2048 queue sets in the QDMA includes a complete set of
//! three rings: the H2C descriptor ring, the C2H descriptor ring, and
//! the C2H completion ring" (§IV-A), and each is typed as a replication
//! or erasure-coding queue and assigned to a PCIe function.

use crate::descriptor::IfType;
use crate::ring::DescriptorRing;
use std::collections::VecDeque;

/// Hardware limit on queue sets (§IV-A).
pub const MAX_QUEUE_SETS: usize = 2048;

/// Default ring depth per direction.
pub const DEFAULT_RING_DEPTH: u16 = 64;

/// An entry in the C2H completion ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CmptEntry {
    /// Originating queue id.
    pub qid: u16,
    /// Bytes transferred.
    pub len: u32,
    /// 0 = success; non-zero = error code.
    pub status: u8,
    /// Opaque token copied from the descriptor chain (correlates with the
    /// driver request).
    pub user: u64,
}

impl CmptEntry {
    /// Successful completion.
    pub fn ok(qid: u16, len: u32, user: u64) -> Self {
        CmptEntry {
            qid,
            len,
            status: 0,
            user,
        }
    }
}

/// One queue set (H2C + C2H + CMPT).
#[derive(Debug)]
pub struct QueueSet {
    /// Queue id (0..2048).
    pub qid: u16,
    /// Replication or erasure coding.
    pub if_type: IfType,
    /// Owning PCIe function.
    pub function: u16,
    /// Host-to-card descriptor ring.
    pub h2c: DescriptorRing,
    /// Card-to-host descriptor ring.
    pub c2h: DescriptorRing,
    cmpt: VecDeque<CmptEntry>,
    cmpt_capacity: usize,
    completions_posted: u64,
    completions_dropped: u64,
}

impl QueueSet {
    /// A queue set with default ring depths.
    pub fn new(qid: u16, if_type: IfType, function: u16) -> Self {
        Self::with_depth(qid, if_type, function, DEFAULT_RING_DEPTH)
    }

    /// A queue set with explicit ring depth.
    pub fn with_depth(qid: u16, if_type: IfType, function: u16, depth: u16) -> Self {
        assert!((qid as usize) < MAX_QUEUE_SETS, "qid {qid} out of range");
        QueueSet {
            qid,
            if_type,
            function,
            h2c: DescriptorRing::new(depth),
            c2h: DescriptorRing::new(depth),
            cmpt: VecDeque::new(),
            cmpt_capacity: depth as usize * 2,
            completions_posted: 0,
            completions_dropped: 0,
        }
    }

    /// Hardware side: post a completion.  Returns `false` (and counts a
    /// drop) when the completion ring overflows — the driver is expected
    /// to size CMPT rings so this never happens.
    pub fn post_completion(&mut self, entry: CmptEntry) -> bool {
        if self.cmpt.len() >= self.cmpt_capacity {
            self.completions_dropped += 1;
            return false;
        }
        self.cmpt.push_back(entry);
        self.completions_posted += 1;
        true
    }

    /// Driver side: reap up to `max` completions.
    pub fn reap_completions(&mut self, max: usize) -> Vec<CmptEntry> {
        let n = max.min(self.cmpt.len());
        self.cmpt.drain(..n).collect()
    }

    /// Completions waiting for the driver.
    pub fn completions_pending(&self) -> usize {
        self.cmpt.len()
    }

    /// Lifetime counters: (posted, dropped).
    pub fn completion_counters(&self) -> (u64, u64) {
        (self.completions_posted, self.completions_dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::Descriptor;

    #[test]
    fn queue_set_construction() {
        let q = QueueSet::new(5, IfType::ErasureCoding, 2);
        assert_eq!(q.qid, 5);
        assert_eq!(q.if_type, IfType::ErasureCoding);
        assert_eq!(q.h2c.capacity(), DEFAULT_RING_DEPTH as usize - 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn qid_limit_enforced() {
        QueueSet::new(2048, IfType::Replication, 0);
    }

    #[test]
    fn completion_flow() {
        let mut q = QueueSet::new(0, IfType::Replication, 0);
        for i in 0..5 {
            assert!(q.post_completion(CmptEntry::ok(0, 4096, i)));
        }
        assert_eq!(q.completions_pending(), 5);
        let batch = q.reap_completions(3);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch[0].user, 0);
        assert_eq!(q.completions_pending(), 2);
        assert_eq!(q.completion_counters(), (5, 0));
    }

    #[test]
    fn completion_overflow_counts_drops() {
        let mut q = QueueSet::with_depth(0, IfType::Replication, 0, 2);
        // capacity = 2 * depth = 4
        for i in 0..4 {
            assert!(q.post_completion(CmptEntry::ok(0, 512, i)));
        }
        assert!(!q.post_completion(CmptEntry::ok(0, 512, 99)));
        assert_eq!(q.completion_counters(), (4, 1));
    }

    #[test]
    fn h2c_and_c2h_are_independent() {
        let mut q = QueueSet::with_depth(1, IfType::Replication, 0, 4);
        q.h2c
            .post(Descriptor::h2c(0x1000, 4096, IfType::Replication, 0))
            .unwrap();
        assert_eq!(q.h2c.pending(), 1);
        assert_eq!(q.c2h.pending(), 0);
    }
}
