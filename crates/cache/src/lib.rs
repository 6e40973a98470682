//! # diesel-cache — the task-grained distributed cache (paper §4.2)
//!
//! A DLT task reads one dataset many times, so DIESEL caches that dataset
//! in the aggregate memory of *the task's own worker nodes* — not in a
//! global cluster cache. The consequences the paper highlights:
//!
//! * **Failure containment** — a node failure takes down only its own
//!   task's cache, never other tenants' (contrast with the Memcached
//!   cluster collapse of Fig. 6).
//! * **Chunk-granular loading** — warm-up and recovery read ≥ 4 MB chunks
//!   from the backing store, so they run at full storage bandwidth
//!   (Fig. 11b: DIESEL reloads ImageNet-1K in seconds, Memcached takes
//!   minutes at file granularity).
//! * **Master-client topology** — one *master client* per physical node
//!   (the smallest rank on that node) participates in dataset
//!   partitioning; the other I/O workers on the node fetch through it.
//!   Connections drop from `n × (n − 1)` (full mesh over all clients) to
//!   `p × (n − 1)` (p physical nodes), and any file is still one hop
//!   away.
//!
//! Modules:
//!
//! * [`topology`] — ranks, master election, connection counting.
//! * `partition` — chunk → owner-node assignment over the task's fixed
//!   nodes `0..n`, computed once per cache: a chunk's owner is its rank
//!   in sorted chunk-id order mod n.
//! * [`task_cache`] — [`TaskCache`]: the cache itself and the only
//!   owner of residency, byte budget and store loading, over a node set
//!   fixed at construction, with [`CachePolicy::Oneshot`] prefetch and
//!   [`CachePolicy::OnDemand`] fill over single-flight chunk loads,
//!   node-failure injection and chunk-wise recovery. Where a node
//!   cannot hold its share of the dataset, the epoch's shuffle plan
//!   ([`TaskCache::follow_plan`]) is its fill and eviction order: a
//!   budget-bounded lookahead one shuffle group wide on the work pool's
//!   blocking lane, next-use eviction, release on the last planned
//!   read. Without a plan eviction is install order, and a
//!   node whose share fits never evicts at all. The per-node byte
//!   budget, like the node set, is fixed when the cache is built.
//!
//! Tenants are isolated the paper's way: one `TaskCache` per task, each
//! evicting only against its own budget.

mod partition;
pub mod task_cache;
pub mod topology;

pub use task_cache::{
    CacheConfig, CacheMetrics, CachePolicy, LoadReport, PlanGuard, PlannedChunk, TaskCache,
};
pub use topology::{PeerId, Topology};

/// Errors from the distributed cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheError {
    /// The owner node of the requested chunk is down; the caller should
    /// fall back to the DIESEL server path (Fig. 4) — or, if this task's
    /// computation ran on that node, the task has failed anyway
    /// (containment).
    NodeDown {
        /// Index of the failed node.
        node: usize,
    },
    /// The chunk is not in the dataset's partition map.
    UnknownChunk(String),
    /// The backing object store failed.
    Backing(String),
    /// The cached chunk bytes could not be parsed.
    Corrupt(String),
    /// A membership set was structurally invalid (no nodes, a node
    /// index with no clients, …).
    InvalidMembership(String),
    /// The serving plane's admission controller rejected the request —
    /// the tenant's token bucket is empty or its queue overflowed. The
    /// client should back off for `retry_after_ms` and retry
    /// (`DieselClient` obeys this automatically).
    Throttled {
        /// How long to back off before retrying, in milliseconds.
        retry_after_ms: u64,
    },
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::NodeDown { node } => write!(f, "cache node {node} is down"),
            CacheError::UnknownChunk(id) => write!(f, "chunk not in partition map: {id}"),
            CacheError::Backing(e) => write!(f, "backing store error: {e}"),
            CacheError::Corrupt(e) => write!(f, "corrupt cached chunk: {e}"),
            CacheError::InvalidMembership(e) => write!(f, "invalid cache membership: {e}"),
            CacheError::Throttled { retry_after_ms } => {
                write!(f, "tenant throttled; retry after {retry_after_ms} ms")
            }
        }
    }
}

impl std::error::Error for CacheError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CacheError>;
