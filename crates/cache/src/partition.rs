//! Dataset partitioning: assigning chunks to the task's cache nodes.
//!
//! The master clients "participate in dataset partitioning" (§4.2): every
//! client computes the owner of any chunk locally — no directory service,
//! no extra hop. Placement is the consistent-hash [`HashRing`] over the
//! task's fixed nodes `0..n`, so the partition is a pure function of
//! (chunk set, node count). The materialized owner map and per-node lists
//! here are a lookup cache over the ring plus the dataset-scoping filter
//! (`owner_of` answers `None` for chunks outside the dataset, which the
//! bare ring cannot).

use std::collections::HashMap;

use diesel_chunk::ChunkId;

use crate::ring::HashRing;
use crate::Result;

/// The chunk → node assignment for one dataset in one task.
#[derive(Debug)]
pub(crate) struct ChunkPartition {
    owner: HashMap<ChunkId, usize>,
    /// Each node's chunks, sorted, indexed by node id.
    per_node: Vec<Vec<ChunkId>>,
}

impl ChunkPartition {
    /// Partition `chunks` (any order; they are sorted internally so that
    /// all peers agree) over the contiguous ring `0..nodes`.
    pub fn new(mut chunks: Vec<ChunkId>, nodes: usize) -> Result<Self> {
        let ring = HashRing::contiguous(nodes)?;
        chunks.sort_unstable();
        chunks.dedup();
        let mut owner = HashMap::with_capacity(chunks.len());
        let mut per_node: Vec<Vec<ChunkId>> = vec![Vec::new(); nodes];
        for c in chunks {
            let node = ring.owner_of(c);
            owner.insert(c, node);
            if let Some(list) = per_node.get_mut(node) {
                list.push(c);
            }
        }
        Ok(ChunkPartition { owner, per_node })
    }

    /// The node owning `chunk`, if it belongs to the dataset.
    pub fn owner_of(&self, chunk: ChunkId) -> Option<usize> {
        self.owner.get(&chunk).copied()
    }

    /// The chunks assigned to `node` (empty for non-members).
    pub fn chunks_of(&self, node: usize) -> &[ChunkId] {
        self.per_node.get(node).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total number of chunks.
    pub fn chunk_count(&self) -> usize {
        self.owner.len()
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
}
