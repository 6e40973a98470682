//! Dataset partitioning: assigning chunks to the task's cache nodes.
//!
//! The master clients "participate in dataset partitioning" (§4.2): every
//! client computes the owner of any chunk locally — no directory service,
//! no extra hop. A task's nodes `0..n` are fixed when its cache is built,
//! and every node gets the same byte budget, so the chunk of rank `r` in
//! sorted, deduplicated chunk-id order goes to node `r % n`: a pure
//! function of (chunk set, node count) whose per-node counts differ by at
//! most one. The materialized owner map answers `None` for chunks outside
//! the dataset.

use std::collections::HashMap;

use diesel_chunk::ChunkId;

use crate::{CacheError, Result};

/// The chunk → node assignment for one dataset in one task.
#[derive(Debug)]
pub(crate) struct ChunkPartition {
    owner: HashMap<ChunkId, usize>,
    /// Each node's chunks, sorted, indexed by node id.
    per_node: Vec<Vec<ChunkId>>,
}

impl ChunkPartition {
    /// Partition `chunks` (any order; they are sorted internally so that
    /// all peers agree) over the nodes `0..nodes`, round-robin by rank.
    pub fn new(mut chunks: Vec<ChunkId>, nodes: usize) -> Result<Self> {
        if nodes == 0 {
            return Err(CacheError::InvalidMembership(
                "a partition needs at least one node".into(),
            ));
        }
        chunks.sort_unstable();
        chunks.dedup();
        let mut owner = HashMap::with_capacity(chunks.len());
        let mut per_node: Vec<Vec<ChunkId>> = vec![Vec::new(); nodes];
        for (rank, c) in chunks.into_iter().enumerate() {
            let node = rank % nodes;
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
        assert!(matches!(ChunkPartition::new(chunks(4), 0), Err(CacheError::InvalidMembership(_))));
    }

    #[test]
    fn shares_differ_by_at_most_one() {
        for (count, nodes) in [(1000, 4), (37, 5), (3, 8), (0, 3), (101, 1)] {
            let p = ChunkPartition::new(chunks(count), nodes).unwrap();
            let shares: Vec<usize> = (0..nodes).map(|n| p.chunks_of(n).len()).collect();
            let (lo, hi) = (shares.iter().min().unwrap(), shares.iter().max().unwrap());
            assert!(hi - lo <= 1, "{count} chunks over {nodes} nodes: {shares:?}");
            assert_eq!(shares.iter().sum::<usize>(), count, "every chunk is owned exactly once");
            assert_eq!(p.chunk_count(), count);
        }
    }

    #[test]
    fn owner_lookup_agrees_with_per_node_lists() {
        let p = ChunkPartition::new(chunks(37), 5).unwrap();
        for node in 0..5 {
            for &c in p.chunks_of(node) {
                assert_eq!(p.owner_of(c), Some(node));
            }
        }
        assert_eq!(p.chunks_of(5), &[] as &[ChunkId], "no node past the last");
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
        // The owner is the chunk's rank in sorted id order, mod n.
        cs.sort_unstable();
        for (rank, c) in cs.iter().enumerate() {
            assert_eq!(p1.owner_of(*c), Some(rank % 4));
        }
    }

    #[test]
    fn duplicates_are_ignored() {
        let mut cs = chunks(10);
        cs.extend(cs.clone());
        let p = ChunkPartition::new(cs, 2).unwrap();
        assert_eq!(p.chunk_count(), 10);
        assert_eq!(
            (p.chunks_of(0).len(), p.chunks_of(1).len()),
            (5, 5),
            "a duplicate takes no rank"
        );
    }

    #[test]
    fn unknown_chunk_has_no_owner() {
        let p = ChunkPartition::new(chunks(5), 2).unwrap();
        let foreign = ChunkIdGenerator::deterministic(99, 99, 99).next_id();
        assert_eq!(p.owner_of(foreign), None);
    }
}
