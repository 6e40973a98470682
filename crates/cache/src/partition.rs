//! Dataset partitioning: assigning chunks to the task's cache nodes.
//!
//! The master clients "participate in dataset partitioning" (§4.2): every
//! client computes the owner of any chunk locally — no directory service,
//! no extra hop. Placement is delegated to the consistent-hash
//! [`HashRing`], so the partition is a pure
//! function of (chunk set, membership set) and a membership change moves
//! only ≈ 1/n of the chunks (DESIGN.md §13). The materialized owner map
//! and per-node lists here are a lookup cache over the ring plus the
//! dataset-scoping filter (`owner_of` answers `None` for chunks outside
//! the dataset, which the bare ring cannot).

use std::collections::HashMap;

use diesel_chunk::ChunkId;

use crate::ring::HashRing;
use crate::Result;

/// One chunk relocation between two memberships: `chunk` leaves `from`'s
/// cache and must become resident on `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ChunkMove {
    /// The relocated chunk.
    pub chunk: ChunkId,
    /// Owner under the old membership — the warm-handoff source peer.
    pub from: usize,
    /// Owner under the new membership.
    pub to: usize,
}

/// The chunk → node assignment for one dataset in one task.
#[derive(Debug, Clone)]
pub(crate) struct ChunkPartition {
    ring: HashRing,
    owner: HashMap<ChunkId, usize>,
    per_node: HashMap<usize, Vec<ChunkId>>,
    chunks: Vec<ChunkId>,
}

impl ChunkPartition {
    /// Partition `chunks` (any order; they are sorted internally so that
    /// all peers agree) over the contiguous membership `0..nodes`.
    pub fn new(chunks: Vec<ChunkId>, nodes: usize) -> Result<Self> {
        Ok(Self::with_ring(chunks, HashRing::contiguous(nodes)?))
    }

    /// Partition `chunks` over an explicit ring membership.
    pub fn with_ring(mut chunks: Vec<ChunkId>, ring: HashRing) -> Self {
        chunks.sort_unstable();
        chunks.dedup();
        let mut owner = HashMap::with_capacity(chunks.len());
        let mut per_node: HashMap<usize, Vec<ChunkId>> = HashMap::new();
        for &m in ring.members() {
            per_node.insert(m, Vec::new());
        }
        for &c in &chunks {
            let node = ring.owner_of(c);
            owner.insert(c, node);
            if let Some(list) = per_node.get_mut(&node) {
                list.push(c);
            }
        }
        ChunkPartition { ring, owner, per_node, chunks }
    }

    /// The same chunk set partitioned over a different ring.
    pub fn with_membership(&self, ring: HashRing) -> Self {
        Self::with_ring(self.chunks.clone(), ring)
    }

    /// The placement ring underlying this partition.
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// The node owning `chunk`, if it belongs to the dataset.
    pub fn owner_of(&self, chunk: ChunkId) -> Option<usize> {
        self.owner.get(&chunk).copied()
    }

    /// The chunks assigned to `node` (empty for non-members).
    pub fn chunks_of(&self, node: usize) -> &[ChunkId] {
        self.per_node.get(&node).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Member node ids (sorted).
    pub fn members(&self) -> &[usize] {
        self.ring.members()
    }

    /// Total number of chunks.
    pub fn chunk_count(&self) -> usize {
        self.owner.len()
    }

    /// The chunks whose owner differs between `self` and `new`, in
    /// sorted chunk order (deterministic sweep order for the rebalance).
    /// The consistent-hash ring bounds this at ≈ Δnodes/n_new of the
    /// dataset.
    pub fn moved_to(&self, new: &ChunkPartition) -> Vec<ChunkMove> {
        let mut moves = Vec::new();
        for &c in &self.chunks {
            if let (Some(from), Some(to)) = (self.owner_of(c), new.owner_of(c)) {
                if from != to {
                    moves.push(ChunkMove { chunk: c, from, to });
                }
            }
        }
        moves
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diesel_chunk::ChunkIdGenerator;

    fn chunks(n: usize) -> Vec<ChunkId> {
        let g = ChunkIdGenerator::deterministic(1, 1, 10);
        (0..n).map(|_| g.next_id()).collect()
    }

    #[test]
    fn zero_nodes_rejected() {
        assert!(ChunkPartition::new(chunks(4), 0).is_err());
    }

    #[test]
    fn assignment_is_roughly_balanced() {
        let p = ChunkPartition::new(chunks(1000), 4).unwrap();
        assert_eq!(p.chunk_count(), 1000);
        let mut total = 0;
        for node in 0..4 {
            let share = p.chunks_of(node).len();
            // Ring placement balances statistically, not exactly: with
            // 128 vnodes each share lands near 250 ± a few tens.
            assert!((125..=375).contains(&share), "node {node} holds {share} of 1000");
            total += share;
        }
        assert_eq!(total, 1000, "every chunk is owned exactly once");
    }

    #[test]
    fn owner_lookup_agrees_with_per_node_lists() {
        let p = ChunkPartition::new(chunks(37), 5).unwrap();
        for node in 0..5 {
            for &c in p.chunks_of(node) {
                assert_eq!(p.owner_of(c), Some(node));
            }
        }
    }

    #[test]
    fn assignment_is_order_independent() {
        let mut cs = chunks(50);
        let p1 = ChunkPartition::new(cs.clone(), 4).unwrap();
        cs.reverse();
        let p2 = ChunkPartition::new(cs.clone(), 4).unwrap();
        for c in &cs {
            assert_eq!(p1.owner_of(*c), p2.owner_of(*c), "peers must agree on owners");
        }
    }

    #[test]
    fn duplicates_are_ignored() {
        let mut cs = chunks(10);
        cs.extend(cs.clone());
        let p = ChunkPartition::new(cs, 2).unwrap();
        assert_eq!(p.chunk_count(), 10);
    }

    #[test]
    fn unknown_chunk_has_no_owner() {
        let p = ChunkPartition::new(chunks(5), 2).unwrap();
        let foreign = ChunkIdGenerator::deterministic(99, 99, 99).next_id();
        assert_eq!(p.owner_of(foreign), None);
    }

    #[test]
    fn moved_to_lists_exactly_the_ownership_diffs() {
        let old = ChunkPartition::new(chunks(600), 4).unwrap();
        let new = old.with_membership(HashRing::contiguous(5).unwrap());
        let moves = old.moved_to(&new);
        assert!(!moves.is_empty(), "a join must claim some chunks");
        assert!(
            moves.len() <= 2 * old.chunk_count() / 5,
            "join moved {}/600, beyond the 2/n consistency bound",
            moves.len()
        );
        for m in &moves {
            assert_eq!(old.owner_of(m.chunk), Some(m.from));
            assert_eq!(new.owner_of(m.chunk), Some(m.to));
            assert_eq!(m.to, 4, "a join only moves chunks to the joiner");
        }
        let moved: std::collections::HashSet<ChunkId> = moves.iter().map(|m| m.chunk).collect();
        for &c in &old.chunks {
            if !moved.contains(&c) {
                assert_eq!(old.owner_of(c), new.owner_of(c), "unmoved chunk changed owner");
            }
        }
    }

    #[test]
    fn shrink_returns_the_leavers_chunks() {
        let big = ChunkPartition::new(chunks(300), 5).unwrap();
        let small = big.with_membership(HashRing::contiguous(4).unwrap());
        assert_eq!(small.chunks_of(4), &[] as &[ChunkId], "leaver owns nothing");
        for m in big.moved_to(&small) {
            assert_eq!(m.from, 4, "only the leaver's chunks move on a shrink");
        }
    }
}
