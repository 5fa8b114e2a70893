//! Pools and placement groups.

use crate::object::ObjectId;
use deliba_crush::hash::hash32_2;

/// Placement-group identifier within a pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PgId {
    /// Owning pool.
    pub pool: u32,
    /// PG sequence number (`0..pg_num`).
    pub seq: u32,
}

/// Data-durability scheme of a pool — the two modes every DeLiBA
/// evaluation benchmarks side by side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolKind {
    /// Primary-copy replication with `size` total copies.
    Replicated {
        /// Copies including the primary.
        size: usize,
    },
    /// Reed-Solomon erasure coding with `k` data + `m` parity chunks.
    Erasure {
        /// Data chunks.
        k: usize,
        /// Parity chunks.
        m: usize,
    },
}

impl PoolKind {
    /// Number of placement positions a PG needs.
    pub fn width(&self) -> usize {
        match *self {
            PoolKind::Replicated { size } => size,
            PoolKind::Erasure { k, m } => k + m,
        }
    }

    /// Storage amplification (stored bytes / logical bytes).
    pub fn amplification(&self) -> f64 {
        match *self {
            PoolKind::Replicated { size } => size as f64,
            PoolKind::Erasure { k, m } => (k + m) as f64 / k as f64,
        }
    }

    /// Minimum surviving positions that still allow reads.
    pub fn min_size(&self) -> usize {
        match *self {
            PoolKind::Replicated { .. } => 1,
            PoolKind::Erasure { k, .. } => k,
        }
    }
}

/// Pool configuration.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Pool id.
    pub id: u32,
    /// Human-readable name.
    pub name: String,
    /// Durability scheme.
    pub kind: PoolKind,
    /// Number of placement groups (power of two).
    pub pg_num: u32,
    /// CRUSH rule executed for this pool's PGs.
    pub crush_rule: u32,
    /// Precomputed [`PoolConfig::pg_seed`] per PG sequence number.  The
    /// seed depends only on `(seq, id)`, both fixed at construction, so
    /// the hash is evaluated once here instead of per placement lookup
    /// on the engine's hot path.  Entries are produced by the same
    /// `hash32_2` call the accessor used to make inline — bit-identical
    /// by construction.
    pg_seeds: Vec<u32>,
}

fn seed_table(id: u32, pg_num: u32) -> Vec<u32> {
    (0..pg_num)
        .map(|seq| hash32_2(seq, id.wrapping_mul(0x9E37_79B9)))
        .collect()
}

impl PoolConfig {
    /// A replicated pool.
    pub fn replicated(id: u32, name: &str, size: usize, pg_num: u32, crush_rule: u32) -> Self {
        assert!(pg_num.is_power_of_two(), "pg_num must be a power of two");
        assert!(size >= 1);
        PoolConfig {
            id,
            name: name.into(),
            kind: PoolKind::Replicated { size },
            pg_num,
            crush_rule,
            pg_seeds: seed_table(id, pg_num),
        }
    }

    /// An erasure-coded pool.
    pub fn erasure(id: u32, name: &str, k: usize, m: usize, pg_num: u32, crush_rule: u32) -> Self {
        assert!(pg_num.is_power_of_two());
        assert!(k >= 2 && m >= 1);
        PoolConfig {
            id,
            name: name.into(),
            kind: PoolKind::Erasure { k, m },
            pg_num,
            crush_rule,
            pg_seeds: seed_table(id, pg_num),
        }
    }

    /// Map an object to its placement group (stable modulo hashing, as
    /// Ceph's `ceph_stable_mod`).
    pub fn pg_of(&self, oid: ObjectId) -> PgId {
        debug_assert_eq!(oid.pool, self.id);
        let h = hash32_2(oid.placement_seed(), self.id);
        PgId {
            pool: self.id,
            seq: h & (self.pg_num - 1),
        }
    }

    /// The CRUSH input for a PG: mixes pool and PG so distinct pools'
    /// PGs decorrelate.
    pub fn pg_seed(&self, pg: PgId) -> u32 {
        match self.pg_seeds.get(pg.seq as usize) {
            Some(&s) => s,
            // Out-of-range seq (a foreign or corrupted PgId) falls back
            // to the defining hash so behaviour is unchanged.
            None => hash32_2(pg.seq, self.id.wrapping_mul(0x9E37_79B9)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_and_amplification() {
        let r = PoolKind::Replicated { size: 3 };
        assert_eq!(r.width(), 3);
        assert_eq!(r.amplification(), 3.0);
        assert_eq!(r.min_size(), 1);
        let e = PoolKind::Erasure { k: 4, m: 2 };
        assert_eq!(e.width(), 6);
        assert_eq!(e.amplification(), 1.5);
        assert_eq!(e.min_size(), 4);
    }

    #[test]
    fn pg_mapping_stable_and_in_range() {
        let pool = PoolConfig::replicated(3, "rbd", 3, 128, 0);
        for name in 0..1000u64 {
            let oid = ObjectId::new(3, name);
            let pg = pool.pg_of(oid);
            assert!(pg.seq < 128);
            assert_eq!(pg, pool.pg_of(oid), "stable");
        }
    }

    #[test]
    fn pgs_spread_across_range() {
        let pool = PoolConfig::replicated(1, "rbd", 3, 64, 0);
        let mut counts = vec![0u32; 64];
        for name in 0..12_800u64 {
            counts[pool.pg_of(ObjectId::new(1, name)).seq as usize] += 1;
        }
        let expect = 200.0;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expect).abs() / expect < 0.35,
                "pg {i}: {c} objects"
            );
        }
    }

    #[test]
    fn distinct_pools_decorrelate() {
        let a = PoolConfig::replicated(1, "a", 3, 64, 0);
        let b = PoolConfig::replicated(2, "b", 3, 64, 0);
        let same = (0..64u32)
            .filter(|&s| {
                a.pg_seed(PgId { pool: 1, seq: s }) == b.pg_seed(PgId { pool: 2, seq: s })
            })
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn pg_num_validated() {
        PoolConfig::replicated(0, "x", 3, 100, 0);
    }

    #[test]
    fn seed_table_matches_hash() {
        let pool = PoolConfig::erasure(5, "ec", 4, 2, 256, 1);
        for seq in 0..300u32 {
            // In-range seqs hit the table, out-of-range the fallback;
            // both must equal the defining hash.
            assert_eq!(
                pool.pg_seed(PgId { pool: 5, seq }),
                hash32_2(seq, 5u32.wrapping_mul(0x9E37_79B9))
            );
        }
    }
}
