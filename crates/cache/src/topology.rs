//! Client ranks, master election and connection topology (§4.2, Fig. 7).

use crate::{CacheError, Result};

/// Identity of one DIESEL client instance: which physical node it runs
/// on and its global rank within the task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PeerId {
    /// Physical node index (0-based).
    pub node: usize,
    /// Global rank of this client across the task (0-based, unique).
    pub rank: usize,
}

/// The task's client layout: which clients exist, which are masters.
#[derive(Debug, Clone)]
pub struct Topology {
    clients: Vec<PeerId>,
    /// Master rank per node: the smallest rank on that node.
    masters: Vec<usize>,
}

impl Topology {
    /// A uniform layout: `nodes` physical nodes, `clients_per_node` I/O
    /// workers each (e.g. PyTorch `num_workers`), ranked node-major.
    pub fn uniform(nodes: usize, clients_per_node: usize) -> Result<Self> {
        if nodes < 1 || clients_per_node < 1 {
            return Err(CacheError::InvalidMembership(format!(
                "a uniform topology needs at least one node and one client per node \
                 (got {nodes} nodes × {clients_per_node} clients)"
            )));
        }
        let clients: Vec<PeerId> = (0..nodes)
            .flat_map(|node| {
                (0..clients_per_node)
                    .map(move |i| PeerId { node, rank: node * clients_per_node + i })
            })
            .collect();
        Self::from_clients(clients)
    }

    /// Build from an explicit client list (ranks must be unique).
    pub fn from_clients(clients: Vec<PeerId>) -> Result<Self> {
        if clients.is_empty() {
            return Err(CacheError::InvalidMembership("a task needs at least one client".into()));
        }
        // Non-empty is checked above, so the fold has a base case.
        let max_node = clients.iter().map(|c| c.node).fold(0, usize::max);
        let mut masters = vec![usize::MAX; max_node + 1];
        for c in &clients {
            if let Some(m) = masters.get_mut(c.node) {
                *m = (*m).min(c.rank);
            }
        }
        if let Some(hole) = masters.iter().position(|&m| m == usize::MAX) {
            return Err(CacheError::InvalidMembership(format!(
                "node {hole} hosts no client but smaller-indexed nodes exist up to {max_node}"
            )));
        }
        Ok(Topology { clients, masters })
    }

    /// Number of physical nodes (p).
    pub fn node_count(&self) -> usize {
        self.masters.len()
    }

    /// Number of clients (n).
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// All clients.
    pub fn clients(&self) -> &[PeerId] {
        &self.clients
    }

    /// The master client's rank on `node` (the smallest rank there;
    /// `usize::MAX` for out-of-range nodes).
    pub fn master_of(&self, node: usize) -> usize {
        self.masters.get(node).copied().unwrap_or(usize::MAX)
    }

    /// Connection count under DIESEL's master-client scheme: every
    /// client holds a connection to every master except itself —
    /// `p × (n − 1)` in total (§4.2).
    pub fn diesel_connection_count(&self) -> usize {
        let p = self.node_count();
        let n = self.client_count();
        // `from_clients` rejects empty client lists, but that invariant
        // lives far from this arithmetic — saturate so the formula is
        // locally total instead of resting on a distant constructor.
        p * n.saturating_sub(1)
    }

    /// Connection count under a full mesh of clients: `n × (n − 1)`.
    pub fn full_mesh_connection_count(&self) -> usize {
        let n = self.client_count();
        n * (n - 1)
    }

    /// Enumerate the DIESEL connections as (client, master-rank) pairs.
    pub fn diesel_connections(&self) -> Vec<(PeerId, usize)> {
        let mut out = Vec::with_capacity(self.diesel_connection_count());
        for &c in &self.clients {
            for node in 0..self.node_count() {
                let m = self.master_of(node);
                if m != c.rank {
                    out.push((c, m));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_layout_elects_smallest_ranks() {
        let t = Topology::uniform(4, 8).unwrap();
        assert_eq!(t.node_count(), 4);
        assert_eq!(t.client_count(), 32);
        for node in 0..4 {
            assert_eq!(t.master_of(node), node * 8);
        }
    }

    #[test]
    fn connection_counts_match_paper_formulas() {
        // Fig. 7's example halves the connections; with p=10, n=160
        // (paper's read tests: 10 nodes × 16 threads) the saving is 16×.
        let t = Topology::uniform(10, 16).unwrap();
        assert_eq!(t.diesel_connection_count(), 10 * (160 - 1));
        assert_eq!(t.full_mesh_connection_count(), 160 * 159);
        assert_eq!(
            t.diesel_connections().len(),
            t.diesel_connection_count(),
            "enumeration must agree with the closed form"
        );
    }

    #[test]
    fn every_file_is_one_hop_away() {
        // Every client must hold a connection to every master (or be that
        // master) — the one-hop property the paper contrasts with
        // DeltaFS's multi-hop routing.
        let t = Topology::uniform(3, 4).unwrap();
        let conns = t.diesel_connections();
        for &c in t.clients() {
            for node in 0..t.node_count() {
                let m = t.master_of(node);
                assert!(
                    m == c.rank || conns.contains(&(c, m)),
                    "client {c:?} cannot reach master {m} in one hop"
                );
            }
        }
    }

    #[test]
    fn single_node_single_client() {
        let t = Topology::uniform(1, 1).unwrap();
        assert_eq!(t.diesel_connection_count(), 0);
        assert_eq!(t.full_mesh_connection_count(), 0);
        assert_eq!(t.master_of(0), 0);
    }

    #[test]
    fn explicit_uneven_layout() {
        let t = Topology::from_clients(vec![
            PeerId { node: 0, rank: 3 },
            PeerId { node: 0, rank: 7 },
            PeerId { node: 1, rank: 1 },
        ])
        .unwrap();
        assert_eq!(t.master_of(0), 3, "smallest rank on the node is master");
        assert_eq!(t.master_of(1), 1);
        assert_eq!(t.diesel_connection_count(), 2 * 2);
    }

    #[test]
    fn empty_topology_rejected() {
        assert!(matches!(Topology::from_clients(vec![]), Err(CacheError::InvalidMembership(_))));
        assert!(Topology::uniform(0, 4).is_err());
        assert!(Topology::uniform(4, 0).is_err());
    }

    #[test]
    fn node_coverage_holes_rejected() {
        // Node 0 hosts no client while node 1 does: the dense master
        // table would have a hole, so construction must fail.
        let r = Topology::from_clients(vec![PeerId { node: 1, rank: 0 }]);
        assert!(matches!(r, Err(CacheError::InvalidMembership(_))));
    }

    #[test]
    fn connection_count_is_total_even_for_degenerate_layouts() {
        // Regression: `p * (n - 1)` underflowed for n = 0. The public
        // constructors reject that layout, but the arithmetic must not
        // depend on it — build the degenerate value directly.
        let t = Topology { clients: vec![], masters: vec![usize::MAX] };
        assert_eq!(t.diesel_connection_count(), 0, "no clients ⇒ no connections");
    }
}
