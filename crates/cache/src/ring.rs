//! Consistent-hash placement ring with virtual nodes.
//!
//! The placement function behind every task cache's chunk partition
//! (DESIGN.md §13). The ring hashes every (node, replica) pair onto a
//! 64-bit circle; a chunk is owned by the first virtual node clockwise of
//! the chunk's own hash. A task's node set is fixed when its cache is
//! built, so the ring is built once, over `0..n`.
//!
//! Determinism: the ring is a pure function of the *membership set* —
//! hash functions are fixed (FNV-1a folded through a SplitMix64
//! finalizer), ties break on node id, and member order does not matter —
//! so independently built rings on different peers agree on every owner
//! without a directory service (§4.2 "no directory, no extra hop").

use diesel_chunk::ChunkId;

use crate::{CacheError, Result};

/// Virtual nodes per physical node. More virtual nodes flatten the load
/// spread (stddev ≈ 1/√v of the mean share) at the cost of a larger
/// sorted point array; 128 keeps per-node shares within a few percent
/// while an 8-node ring still fits in a few cache lines of binary
/// search.
pub const DEFAULT_VNODES: usize = 128;

/// SplitMix64 finalizer: a cheap, statistically strong 64-bit mixer.
/// FNV alone clusters structured input (chunk IDs share their machine
/// and pid bytes); the finalizer spreads those clusters over the whole
/// circle.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a 64-bit over raw bytes.
fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Position of a chunk on the circle.
fn chunk_point(chunk: ChunkId) -> u64 {
    mix64(fnv1a(&chunk.0))
}

/// Position of virtual node `replica` of `node` on the circle.
fn vnode_point(node: usize, replica: usize) -> u64 {
    mix64((node as u64).wrapping_shl(32) ^ replica as u64 ^ 0x9e37_79b9_7f4a_7c15)
}

/// A consistent-hash ring over a set of cache node ids.
///
/// Build one with [`HashRing::new`] (arbitrary member ids) or
/// [`HashRing::contiguous`] (ids `0..n`, the task layout). The ring is
/// immutable and membership is its sole input, so peers that build it
/// over the same nodes agree on every owner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashRing {
    /// (point, node), sorted by point then node (the tie-break keeps
    /// lookup deterministic even under a hash collision).
    points: Vec<(u64, usize)>,
}

impl HashRing {
    /// Ring over `members` with [`DEFAULT_VNODES`] virtual nodes each.
    pub fn new(members: &[usize]) -> Result<Self> {
        Self::with_vnodes(members, DEFAULT_VNODES)
    }

    /// Ring over the contiguous membership `0..nodes`.
    pub fn contiguous(nodes: usize) -> Result<Self> {
        let members: Vec<usize> = (0..nodes).collect();
        Self::new(&members)
    }

    /// Ring with an explicit virtual-node count (tests, ablations).
    pub fn with_vnodes(members: &[usize], vnodes: usize) -> Result<Self> {
        // diesel-lint: allow(R6) member id list, not payload bytes
        let mut sorted: Vec<usize> = members.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.is_empty() {
            return Err(CacheError::InvalidMembership("a ring needs at least one node".into()));
        }
        if vnodes == 0 {
            return Err(CacheError::InvalidMembership(
                "a ring needs at least one virtual node per member".into(),
            ));
        }
        let mut points = Vec::with_capacity(sorted.len() * vnodes);
        for &node in &sorted {
            for replica in 0..vnodes {
                points.push((vnode_point(node, replica), node));
            }
        }
        points.sort_unstable();
        Ok(HashRing { points })
    }

    /// The member owning `chunk`: the first virtual node clockwise of
    /// the chunk's point, wrapping at the top of the circle.
    pub fn owner_of(&self, chunk: ChunkId) -> usize {
        let p = chunk_point(chunk);
        let idx = self.points.partition_point(|&(point, _)| point < p);
        match self.points.get(idx).or_else(|| self.points.first()) {
            Some(&(_, node)) => node,
            // Unreachable: construction rejects empty memberships.
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diesel_chunk::ChunkIdGenerator;
    use proptest::prelude::*;

    fn chunks(n: usize) -> Vec<ChunkId> {
        let g = ChunkIdGenerator::deterministic(1, 1, 10);
        (0..n).map(|_| g.next_id()).collect()
    }

    #[test]
    fn empty_membership_rejected() {
        assert!(matches!(HashRing::new(&[]), Err(CacheError::InvalidMembership(_))));
        assert!(matches!(HashRing::contiguous(0), Err(CacheError::InvalidMembership(_))));
        assert!(matches!(HashRing::with_vnodes(&[0], 0), Err(CacheError::InvalidMembership(_))));
    }

    #[test]
    fn owners_are_members() {
        let ring = HashRing::new(&[3, 7, 11]).unwrap();
        for c in chunks(500) {
            assert!([3, 7, 11].contains(&ring.owner_of(c)));
        }
    }

    #[test]
    fn member_order_does_not_matter() {
        let a = HashRing::new(&[0, 1, 2, 3]).unwrap();
        let b = HashRing::new(&[3, 1, 0, 2, 2]).unwrap();
        assert_eq!(a, b);
        for c in chunks(300) {
            assert_eq!(a.owner_of(c), b.owner_of(c));
        }
    }

    #[test]
    fn load_is_roughly_balanced() {
        let ring = HashRing::contiguous(4).unwrap();
        let mut counts = [0usize; 4];
        for c in chunks(4000) {
            if let Some(slot) = counts.get_mut(ring.owner_of(c)) {
                *slot += 1;
            }
        }
        for &count in &counts {
            // Mean share is 1000; 128 vnodes keep the skew well inside
            // ±50 % even for structured (sequential-counter) chunk ids.
            assert!((500..=1500).contains(&count), "skewed ring load: {counts:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Cross-peer agreement: two independently built rings over the
        /// same membership (any insertion order, duplicates included)
        /// agree on every owner — the `peers must agree` property of the
        /// old round-robin partition, generalized to the ring.
        #[test]
        fn independent_rings_agree_on_every_owner(
            members in proptest::collection::vec(0usize..32, 1..10),
            seed in 0u64..50,
        ) {
            let g = ChunkIdGenerator::deterministic(seed + 3, 2, 20);
            let cs: Vec<ChunkId> = (0..200).map(|_| g.next_id()).collect();
            let a = HashRing::new(&members).unwrap();
            let mut reversed = members.clone();
            reversed.reverse();
            let b = HashRing::new(&reversed).unwrap();
            for &c in &cs {
                prop_assert_eq!(a.owner_of(c), b.owner_of(c));
            }
        }
    }
}
