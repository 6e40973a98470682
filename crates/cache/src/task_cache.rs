//! The task-grained distributed cache proper.
//!
//! One [`TaskCache`] exists per DLT task. It holds the task's dataset in
//! per-node chunk caches: any client resolves a file's chunk owner from
//! the shared chunk partition and fetches the file in one hop. Chunks
//! are loaded from the backing object store *whole* — the property that
//! makes warm-up and recovery fast (Fig. 11b).
//!
//! Membership is *elastic* (DESIGN.md §13): the partition rides a
//! consistent-hash ring, and [`TaskCache::resize`] installs a new
//! membership epoch, then runs a rebalance sweep that fills each moved
//! chunk on its new owner — **from the previous owner's memory when the
//! chunk is still resident there** (peer warm handoff), falling back to
//! the backing store only when it is not. Reads that race a rebalance
//! re-validate ownership before filling: a fill routed to a node that
//! no longer owns the chunk gets [`CacheError::StaleOwner`] and the
//! read re-resolves.
//!
//! Lock order (runtime lockdep classes, see also `LOCK_RANKS` in
//! diesel-lint): `cache.rebalance` → `cache.membership` → `cache.node`,
//! and never two `cache.node` guards at once — warm handoff copies out
//! of the source node's guard before taking the destination's.
//!
//! Counters live in a `diesel-obs` registry under `cache.*`; related
//! updates (a read and its hit, a load and its bytes) go through
//! [`diesel_obs::Registry::batch`] so a snapshot never shows one without
//! the other.

use diesel_exec::{CancelToken, TaskHandle, WorkPool};
use diesel_obs::{trace, Counter, Gauge, Registry, RegistrySnapshot};
use diesel_util::{Condvar, Mutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use diesel_chunk::{ChunkId, ChunkView};
use diesel_meta::recovery::chunk_object_key;
use diesel_meta::FileMeta;
use diesel_store::{Bytes, ObjectStore};

use crate::partition::ChunkPartition;
use crate::ring::HashRing;
use crate::topology::Topology;
use crate::{CacheError, Result};

/// When the cache pulls chunks from the backing store (§4.2 "Cache
/// Policies").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePolicy {
    /// Pull the whole partition right after registration, while the user
    /// is still loading checkpoints — hides first-epoch latency.
    Oneshot,
    /// Pull each chunk on its first miss; the first epoch is slower, the
    /// rest are fully cached.
    OnDemand,
}

/// Cache construction parameters.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Memory budget per node for cached chunks. This is the *initial*
    /// budget; a [`TenantCacheMap`](crate::TenantCacheMap) re-partitions
    /// it at runtime via [`TaskCache::set_capacity_bytes_per_node`].
    pub capacity_bytes_per_node: u64,
    /// Fill policy — descriptive only: nothing in the cache reads it.
    /// A cache is `Oneshot` iff its owner calls
    /// [`TaskCache::prefetch_all`] after construction; otherwise every
    /// chunk fills on its first miss (`OnDemand`).
    pub policy: CachePolicy,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig { capacity_bytes_per_node: 8 << 30, policy: CachePolicy::OnDemand }
    }
}

/// Handles into the registry for the cache's `cache.*` counters.
#[derive(Debug, Clone)]
pub struct CacheMetrics {
    file_reads: Counter,
    chunk_hits: Counter,
    chunk_loads: Counter,
    bytes_loaded: Counter,
    evictions: Counter,
    recoveries: Counter,
    rebalance_moves: Counter,
    rebalance_warm_hits: Counter,
    rebalance_fallbacks: Counter,
    rebalance_bytes: Counter,
    stale_owner_retries: Counter,
    membership_epoch: Gauge,
}

impl CacheMetrics {
    /// Register the cache counters (`cache.file_reads`,
    /// `cache.chunk_hits`, `cache.chunk_loads`, `cache.bytes_loaded`,
    /// `cache.evictions`, `cache.recoveries`, the
    /// `cache.rebalance.*` family, `cache.stale_owner_retries`) and the
    /// `cache.membership_epoch` gauge in `registry`, each carrying a
    /// `{dataset=…}` label so that tenants sharing one registry stay
    /// separable (snapshot merge sums per labelled id, so per-tenant
    /// cells never double-count; cross-tenant totals come from
    /// [`diesel_obs::RegistrySnapshot::sum_counter`]).
    pub fn new(registry: &Registry, dataset: &str) -> Self {
        let labels = &[("dataset", dataset)];
        CacheMetrics {
            file_reads: registry.counter("cache.file_reads", labels),
            chunk_hits: registry.counter("cache.chunk_hits", labels),
            chunk_loads: registry.counter("cache.chunk_loads", labels),
            bytes_loaded: registry.counter("cache.bytes_loaded", labels),
            evictions: registry.counter("cache.evictions", labels),
            recoveries: registry.counter("cache.recoveries", labels),
            rebalance_moves: registry.counter("cache.rebalance.chunks_moved", labels),
            rebalance_warm_hits: registry.counter("cache.rebalance.peer_warm_hits", labels),
            rebalance_fallbacks: registry.counter("cache.rebalance.store_fallbacks", labels),
            rebalance_bytes: registry.counter("cache.rebalance.bytes_moved", labels),
            stale_owner_retries: registry.counter("cache.stale_owner_retries", labels),
            membership_epoch: registry.gauge("cache.membership_epoch", labels),
        }
    }

    /// File reads served.
    pub fn file_reads(&self) -> u64 {
        self.file_reads.get()
    }

    /// File reads whose chunk was already resident on its owner.
    pub fn chunk_hits(&self) -> u64 {
        self.chunk_hits.get()
    }

    /// Chunks loaded from the backing store.
    pub fn chunk_loads(&self) -> u64 {
        self.chunk_loads.get()
    }

    /// Bytes loaded from the backing store.
    pub fn bytes_loaded(&self) -> u64 {
        self.bytes_loaded.get()
    }

    /// Chunks evicted for capacity.
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }

    /// Node recoveries completed (Fig. 11b sweeps).
    pub fn recoveries(&self) -> u64 {
        self.recoveries.get()
    }

    /// Chunks whose owner changed in a membership transition.
    pub fn rebalance_moves(&self) -> u64 {
        self.rebalance_moves.get()
    }

    /// Moved chunks filled from their previous owner's memory.
    pub fn rebalance_warm_hits(&self) -> u64 {
        self.rebalance_warm_hits.get()
    }

    /// Moved chunks that had to re-read the backing store.
    pub fn rebalance_fallbacks(&self) -> u64 {
        self.rebalance_fallbacks.get()
    }

    /// Bytes relocated across membership transitions (warm + fallback).
    pub fn rebalance_bytes(&self) -> u64 {
        self.rebalance_bytes.get()
    }

    /// Requests rejected with [`CacheError::StaleOwner`].
    pub fn stale_owner_retries(&self) -> u64 {
        self.stale_owner_retries.get()
    }
}

/// Result of a prefetch/recovery sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Chunks loaded.
    pub chunks_loaded: u64,
    /// Bytes loaded.
    pub bytes_loaded: u64,
}

/// Result of one membership transition ([`TaskCache::resize`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RebalanceReport {
    /// The epoch installed by this transition.
    pub epoch: u64,
    /// Chunks whose owner changed (the ring bounds this at ≈ Δ/n of the
    /// dataset).
    pub chunks_moved: u64,
    /// Moved chunks filled from the previous owner's memory.
    pub peer_warm_hits: u64,
    /// Moved chunks re-read from the backing store.
    pub store_fallbacks: u64,
    /// Bytes relocated (warm + fallback).
    pub bytes_moved: u64,
}

/// A file fetched through the cache, with routing info for accounting.
#[derive(Debug, Clone)]
pub struct Fetched {
    /// The file content.
    pub data: Bytes,
    /// Node that served it.
    pub owner_node: usize,
    /// Whether the chunk was already resident (false ⇒ a chunk fill
    /// happened on this access).
    pub chunk_hit: bool,
}

#[derive(Debug, Default)]
struct NodeInner {
    /// Resident chunks, each an owned [`ChunkView`] over the loaded
    /// buffer. Every file served from one is a `Bytes` sub-slice of the
    /// chunk's one allocation — cache hits never copy payload
    /// (DESIGN.md §11).
    chunks: HashMap<ChunkId, ChunkView>,
    /// Resident chunks in install order, oldest first — the eviction
    /// order. A hit never refreshes a chunk's slot (the hit path writes
    /// nothing), so this is install-order eviction, not LRU.
    evict_queue: VecDeque<ChunkId>,
    resident_bytes: u64,
}

#[derive(Debug)]
struct NodeState {
    down: AtomicBool,
    inner: Mutex<NodeInner>,
}

impl Default for NodeState {
    fn default() -> Self {
        NodeState {
            down: AtomicBool::new(false),
            inner: Mutex::named("cache.node", NodeInner::default()),
        }
    }
}

/// The mutable placement plane: which nodes exist, which chunks they
/// own, and which moved-out chunks are still warm on their previous
/// owner (the overlap window of an in-flight rebalance).
#[derive(Debug)]
struct Membership {
    partition: ChunkPartition,
    nodes: HashMap<usize, Arc<NodeState>>,
    /// chunk → its *previous* owner's state, for every chunk whose
    /// relocation has not completed yet. The entry keeps a removed
    /// node's memory alive exactly until its chunks are handed off.
    handoff: HashMap<ChunkId, Arc<NodeState>>,
    epoch: u64,
}

/// The distributed cache of one DLT task.
pub struct TaskCache<S> {
    topology: Topology,
    membership: RwLock<Membership>,
    /// Serializes membership transitions; held across the whole sweep so
    /// two resizes can never interleave their handoff windows.
    rebalance_lock: Mutex<()>,
    /// Signal for the post-sweep drain: [`TaskCache::complete_handoff`]
    /// notifies under this mutex after removing a handoff entry, so the
    /// rebalance coordinator sleeps instead of spinning while racing
    /// on-demand fillers finish counting.
    drain_mutex: Mutex<()>,
    drain_cv: Condvar,
    backing: Arc<S>,
    dataset: String,
    config: CacheConfig,
    /// The live per-node byte budget. Starts at
    /// `config.capacity_bytes_per_node`; a tenant map re-partitions it
    /// at runtime, and `install_chunk`'s eviction loop reads it fresh on
    /// every install so shrinks take effect immediately.
    capacity_bytes: AtomicU64,
    verify_on_load: AtomicBool,
    registry: Arc<Registry>,
    metrics: CacheMetrics,
    pool: WorkPool,
}

impl<S: ObjectStore> TaskCache<S> {
    /// Build the cache for `dataset`, whose chunks are `chunks`, across
    /// the nodes of `topology`, with a private registry.
    pub fn new(
        topology: Topology,
        backing: Arc<S>,
        dataset: impl Into<String>,
        chunks: Vec<ChunkId>,
        config: CacheConfig,
    ) -> Result<Self> {
        Self::with_registry(
            topology,
            backing,
            dataset,
            chunks,
            config,
            Arc::new(Registry::default()),
        )
    }

    /// Build the cache with its counters in a shared `registry`.
    pub fn with_registry(
        topology: Topology,
        backing: Arc<S>,
        dataset: impl Into<String>,
        chunks: Vec<ChunkId>,
        config: CacheConfig,
        registry: Arc<Registry>,
    ) -> Result<Self> {
        let p = topology.node_count();
        let dataset = dataset.into();
        let metrics = CacheMetrics::new(&registry, &dataset);
        let partition = ChunkPartition::new(chunks, p)?;
        let nodes = partition.members().iter().map(|&id| (id, Arc::default())).collect();
        Ok(TaskCache {
            topology,
            membership: RwLock::named(
                "cache.membership",
                Membership { partition, nodes, handoff: HashMap::new(), epoch: 0 },
            ),
            rebalance_lock: Mutex::named("cache.rebalance", ()),
            drain_mutex: Mutex::named("cache.rebalance_drain", ()),
            drain_cv: Condvar::new(),
            backing,
            dataset,
            capacity_bytes: AtomicU64::new(config.capacity_bytes_per_node),
            config,
            verify_on_load: AtomicBool::new(false),
            registry,
            metrics,
            pool: diesel_exec::global().clone(),
        })
    }

    /// Run this cache's prefetch/recovery sweeps on `pool` instead of
    /// the process-wide [`diesel_exec::global()`] pool (e.g. an inline
    /// pool for deterministic tests).
    pub fn with_pool(mut self, pool: WorkPool) -> Self {
        self.pool = pool;
        self
    }

    /// Verify every per-file CRC when a chunk is loaded from the
    /// backing store (catches storage-layer corruption at the cost of
    /// one checksum pass per load). Off by default: the header CRC is
    /// always checked.
    pub fn set_verify_on_load(&self, on: bool) {
        self.verify_on_load.store(on, Ordering::Release);
    }

    /// The task topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The dataset (tenant) this cache serves.
    pub fn dataset(&self) -> &str {
        &self.dataset
    }

    /// The construction-time configuration (the *initial* budget; the
    /// live one is [`TaskCache::capacity_bytes_per_node`]).
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The live per-node byte budget.
    pub fn capacity_bytes_per_node(&self) -> u64 {
        self.capacity_bytes.load(Ordering::Acquire)
    }

    /// Re-point the per-node byte budget (a tenant map re-partitioning
    /// weighted shares) and immediately shrink every node's residency
    /// down to it, oldest install first. Growing never evicts; shrinking
    /// evicts synchronously so one tenant's new cap can never be violated
    /// by residency installed under the old one.
    pub fn set_capacity_bytes_per_node(&self, bytes: u64) {
        self.capacity_bytes.store(bytes, Ordering::Release);
        let states: Vec<Arc<NodeState>> = {
            let m = self.membership.read();
            m.nodes.values().cloned().collect()
        };
        for st in states {
            self.evict_down_to(&mut st.inner.lock(), bytes);
        }
    }

    /// Evict `inner`'s oldest installs until at most `limit` bytes stay
    /// resident — the one place the byte budget is enforced.
    fn evict_down_to(&self, inner: &mut NodeInner, limit: u64) {
        while inner.resident_bytes > limit {
            let Some(victim) = inner.evict_queue.pop_front() else { break };
            if let Some(v) = inner.chunks.remove(&victim) {
                inner.resident_bytes -= v.chunk_len() as u64;
                self.metrics.evictions.inc();
            }
        }
    }

    /// A snapshot of the current chunk partition map (a copy: sweeps
    /// plan from it, and `fill_chunk` re-validates each route).
    fn partition(&self) -> ChunkPartition {
        self.membership.read().partition.clone()
    }

    /// The current membership epoch (bumped by every transition).
    pub fn membership_epoch(&self) -> u64 {
        self.membership.read().epoch
    }

    /// The current member node ids, sorted.
    pub fn members(&self) -> Vec<usize> {
        // diesel-lint: allow(R6) member id list, not payload bytes
        self.membership.read().partition.members().to_vec()
    }

    /// Oneshot prefetch: fan chunk loads across the work pool, every
    /// node's partition at once (call right after task registration;
    /// §4.2). The report — and the first error, if any — is identical
    /// to the serial node-by-node, chunk-by-chunk sweep for any worker
    /// count; concurrent on-demand readers de-duplicate against the
    /// sweep chunk-wise.
    pub fn prefetch_all(&self) -> Result<LoadReport> {
        self.prefetch_sweep(None)
    }

    fn prefetch_sweep(&self, cancel: Option<&CancelToken>) -> Result<LoadReport> {
        let partition = self.partition();
        // Fail fast on downed nodes, like the serial sweep did at the
        // start of each node's partition.
        for &node in partition.members() {
            if self.is_node_down(node) {
                return Err(CacheError::NodeDown { node });
            }
        }
        let pairs: Vec<(usize, ChunkId)> = partition
            .members()
            .iter()
            .flat_map(|&node| partition.chunks_of(node).iter().map(move |&c| (node, c)))
            .collect();
        self.load_sweep(pairs, cancel)
    }

    /// Fill every `(node, chunk)` pair across the pool and fold what was
    /// made resident into one report (the shape shared by prefetch and
    /// recovery). A cancelled sweep stops issuing loads.
    fn load_sweep(
        &self,
        pairs: Vec<(usize, ChunkId)>,
        cancel: Option<&CancelToken>,
    ) -> Result<LoadReport> {
        let fills = self.pool.try_map(pairs, |_, (node, chunk)| {
            if cancel.is_some_and(CancelToken::is_cancelled) {
                return Ok(0);
            }
            match self.fill_chunk(node, chunk) {
                // A rebalance re-owned the chunk after the sweep
                // snapshotted the partition; its new owner is filled by
                // the rebalance sweep (or on demand), not by us.
                Err(CacheError::StaleOwner { .. }) => Ok(0),
                other => other,
            }
        })?;
        let mut report = LoadReport::default();
        for bytes in fills.into_iter().filter(|&b| b > 0) {
            report.chunks_loaded += 1;
            report.bytes_loaded += bytes;
        }
        Ok(report)
    }

    /// Oneshot prefetch in the background: "the DIESEL client caches the
    /// dataset in the background when the user loads the training models
    /// from disk" (§4.2). Reads proceed concurrently (misses load on
    /// demand and de-duplicate against the sweep). Unlike a raw
    /// `JoinHandle`, dropping the returned handle cancels the sweep
    /// cooperatively instead of leaking it.
    pub fn prefetch_background(self: &Arc<Self>) -> PrefetchHandle
    where
        S: 'static,
    {
        let me = Arc::clone(self);
        let task = self.pool.spawn_cancellable(move |token| me.prefetch_sweep(Some(token)));
        PrefetchHandle {
            task: Some(task),
            registry: Arc::clone(&self.registry),
            dataset: self.dataset.clone(),
        }
    }

    /// Fraction of the dataset's chunks currently resident (the "cache
    /// hit ratio" axis of Figs. 6/11b). During a rebalance overlap
    /// window a moved chunk can be resident on both its old and new
    /// owner; the fraction counts residencies, so it can exceed 1.
    /// That excess is normally transient, but after a rebalance sweep
    /// *fails* partway it persists — the unfinished chunks' warm copies
    /// stay pinned on their previous owners until the transition is retried,
    /// a later transition supersedes it, or the chunks are read on
    /// demand.
    pub fn resident_fraction(&self) -> f64 {
        let m = self.membership.read();
        let total = m.partition.chunk_count();
        if total == 0 {
            return 1.0;
        }
        let states: Vec<Arc<NodeState>> = m.nodes.values().cloned().collect();
        drop(m);
        let resident: usize = states.iter().map(|n| n.inner.lock().chunks.len()).sum();
        resident as f64 / total as f64
    }

    /// The node state for `node`, or a `NodeDown` error when no such
    /// node exists in the current membership.
    fn node_state(&self, node: usize) -> Result<Arc<NodeState>> {
        self.membership.read().nodes.get(&node).cloned().ok_or(CacheError::NodeDown { node })
    }

    /// Bytes resident on one node (0 for non-members).
    pub fn node_resident_bytes(&self, node: usize) -> u64 {
        match self.node_state(node) {
            Ok(st) => st.inner.lock().resident_bytes,
            Err(_) => 0,
        }
    }

    /// Kill a node: its cached chunks are gone and requests routed to it
    /// fail until [`TaskCache::recover_node`].
    pub fn kill_node(&self, node: usize) {
        if let Ok(st) = self.node_state(node) {
            st.down.store(true, Ordering::Release);
            *st.inner.lock() = NodeInner::default();
            self.registry.event(
                "cache.kill_node",
                &[("dataset", &self.dataset), ("node", &node.to_string())],
            );
        }
    }

    /// Is `node` down?
    pub fn is_node_down(&self, node: usize) -> bool {
        self.node_state(node).is_ok_and(|st| st.down.load(Ordering::Acquire))
    }

    /// Bring a node back and reload its partition chunk-wise from the
    /// backing store. Returns what was loaded (the Fig. 11b recovery
    /// measurement).
    pub fn recover_node(&self, node: usize) -> Result<LoadReport> {
        self.node_state(node)?.down.store(false, Ordering::Release);
        let report = self.load_partition(node)?;
        self.metrics.recoveries.inc();
        self.registry.event(
            "cache.recover_node",
            &[
                ("dataset", &self.dataset),
                ("node", &node.to_string()),
                ("chunks", &report.chunks_loaded.to_string()),
            ],
        );
        Ok(report)
    }

    /// Reload one node's partition, chunk loads fanned across the pool
    /// (the Fig. 11b chunk-wise recovery sweep).
    fn load_partition(&self, node: usize) -> Result<LoadReport> {
        if self.is_node_down(node) {
            return Err(CacheError::NodeDown { node });
        }
        let pairs = self.partition().chunks_of(node).iter().map(|&c| (node, c)).collect();
        self.load_sweep(pairs, None)
    }

    /// Grow/shrink to the contiguous membership `0..nodes` and rebalance.
    pub fn resize(&self, nodes: usize) -> Result<RebalanceReport> {
        self.rebalance_to(HashRing::contiguous(nodes)?)
    }

    /// Install `ring` as the new membership (epoch bump) and run the
    /// rebalance sweep on the work pool: every moved chunk is filled on
    /// its new owner from the previous owner's memory when still
    /// resident there, else from the backing store. On-demand misses of
    /// moved chunks run inline on the reader's thread (they don't queue
    /// behind the sweep) and de-duplicate against it chunk-wise.
    ///
    /// # Failure and repair
    ///
    /// If the sweep errors partway (e.g. a transient backing-store
    /// failure on a cold fallback), the new epoch stays installed and
    /// the unfinished chunks keep their handoff windows open: their
    /// warm copies stay resident on the previous owners (so
    /// [`TaskCache::resident_fraction`] can exceed 1 until they drain)
    /// and each window is closed by whichever comes first — an
    /// on-demand read of the chunk, a later membership transition, or a
    /// *retry*: calling `rebalance_to`/[`resize`](TaskCache::resize)
    /// again with the **same** ring runs a repair sweep over the open
    /// windows instead of returning early, and its report counts
    /// exactly the chunks it finished.
    pub fn rebalance_to(&self, ring: HashRing) -> Result<RebalanceReport> {
        let _serial = self.rebalance_lock.lock();
        // Snapshot the handoff counters before the epoch is visible:
        // once Phase 1 publishes the handoff map, a concurrent on-demand
        // miss can complete a warm handoff before the sweep reaches that
        // chunk, and its fill must count into this report's window.
        let warm0 = self.metrics.rebalance_warm_hits();
        let fallback0 = self.metrics.rebalance_fallbacks();
        let bytes0 = self.metrics.rebalance_bytes();
        // Phase 1: swing the placement plane in one write-locked step.
        // `moves` comes out as `(chunk, destination)` pairs: a fresh
        // transition's moved-chunk delta, or — when `ring` is already
        // installed — the repair set of still-open handoff windows.
        let (epoch, repair, moves) = {
            let mut m = self.membership.write();
            let mm = &mut *m;
            if ring == *mm.partition.ring() {
                // Same membership: nothing to move, but an earlier
                // sweep that failed partway may have left handoff
                // windows open. Finish those instead of returning
                // early, so a failed `resize` can simply be retried.
                let mut pending: Vec<(ChunkId, usize)> = mm
                    .handoff
                    .keys()
                    .filter_map(|&chunk| {
                        // Windows whose destination is down stay parked
                        // for `recover_node`; repairing them here would
                        // report moves that never happened.
                        let to = mm.partition.owner_of(chunk)?;
                        let up = mm.nodes.get(&to).is_some_and(|n| !n.down.load(Ordering::Acquire));
                        up.then_some((chunk, to))
                    })
                    .collect();
                if pending.is_empty() {
                    return Ok(RebalanceReport { epoch: mm.epoch, ..RebalanceReport::default() });
                }
                pending.sort();
                (mm.epoch, true, pending)
            } else {
                let next = mm.partition.with_membership(ring);
                let moves = mm.partition.moved_to(&next);
                let mut nodes: HashMap<usize, Arc<NodeState>> = HashMap::new();
                for &id in next.members() {
                    nodes.insert(id, mm.nodes.get(&id).cloned().unwrap_or_default());
                }
                for mv in &moves {
                    // Normalize this chunk's window before opening a new
                    // one. A pre-existing entry is an unfinished window
                    // from an earlier transition (failed sweep, downed
                    // destination); stacking a fresh entry on top of it
                    // blindly would leak its warm copy — or worse, leave
                    // an entry that no fill will ever complete.
                    let dest = nodes.get(&mv.to);
                    let resident =
                        dest.is_some_and(|d| d.inner.lock().chunks.contains_key(&mv.chunk));
                    let prev = mm.handoff.remove(&mv.chunk);
                    if resident {
                        // The destination already holds the bytes (a
                        // chunk moving back onto a node whose earlier
                        // move-out never completed). Close the window
                        // here, under the write lock: the sweep's fill
                        // will return `Resident`, so nothing downstream
                        // would ever complete it — the old drain loop
                        // deadlocked on exactly this state.
                        let Some(dest) = dest else { continue };
                        for stale in prev.iter().chain(mm.nodes.get(&mv.from)) {
                            if !Arc::ptr_eq(stale, dest) {
                                evict_residency(stale, mv.chunk);
                            }
                        }
                        continue;
                    }
                    // Pick the warm source: an open window's source
                    // still holds the bytes (chained handoff across two
                    // transitions) — unless it *is* the new destination,
                    // in which case only the store can fill it. With no
                    // history, the outgoing owner is the source.
                    let src = match prev {
                        Some(p) if dest.is_some_and(|d| Arc::ptr_eq(&p, d)) => None,
                        Some(p) => Some(p),
                        None => mm.nodes.get(&mv.from).cloned(),
                    };
                    if let Some(src) = src {
                        mm.handoff.insert(mv.chunk, src);
                    }
                }
                mm.nodes = nodes;
                mm.partition = next;
                mm.epoch += 1;
                let keys = moves.iter().map(|mv| (mv.chunk, mv.to)).collect();
                (mm.epoch, false, keys)
            }
        };
        if !repair {
            self.metrics.membership_epoch.set(epoch);
            self.metrics.rebalance_moves.add(moves.len() as u64);
        }
        let mut span = if trace::active() {
            trace::span("cache.rebalance", &[("epoch", epoch.to_string().as_str())])
        } else {
            trace::SpanGuard::default()
        };
        let chunks_moved = moves.len() as u64;
        let move_keys = moves.clone();
        // Phase 2: the sweep. `try_map` keeps the first error and a
        // deterministic result order at any worker count.
        let sweep = self.pool.try_map(moves, |_, (chunk, to)| {
            if self.is_node_down(to) {
                // The sweep skips downed destinations; `recover_node`
                // will reload their partition when they return.
                return Ok(0);
            }
            self.fill_chunk(to, chunk)
        });
        if let Err(e) = sweep {
            // The unfinished windows stay open (see "Failure and
            // repair" above); surface the first error so the caller
            // can retry the same transition.
            self.registry.event(
                "cache.rebalance_failed",
                &[
                    ("dataset", &self.dataset),
                    ("epoch", &epoch.to_string()),
                    ("error", &e.to_string()),
                ],
            );
            return Err(e);
        }
        self.drain_moved(&move_keys);
        let report = RebalanceReport {
            epoch,
            chunks_moved,
            peer_warm_hits: self.metrics.rebalance_warm_hits() - warm0,
            store_fallbacks: self.metrics.rebalance_fallbacks() - fallback0,
            bytes_moved: self.metrics.rebalance_bytes() - bytes0,
        };
        span.label("moved", &report.chunks_moved.to_string());
        span.label("warm", &report.peer_warm_hits.to_string());
        self.registry.event(
            "cache.rebalance",
            &[
                ("dataset", &self.dataset),
                ("epoch", &epoch.to_string()),
                ("nodes", &self.members().len().to_string()),
                ("moved", &report.chunks_moved.to_string()),
                ("warm", &report.peer_warm_hits.to_string()),
                ("fallback", &report.store_fallbacks.to_string()),
            ],
        );
        Ok(report)
    }

    /// Wait out racing on-demand fills before reading the report
    /// counters: a reader that won an install race may still sit
    /// between its install (which made the sweep's own fill return
    /// `Resident`) and its counter increments. Each winner removes its
    /// handoff entry only *after* counting, so once every moved chunk
    /// with a live destination has its entry gone the window is
    /// complete. Downed destinations are skipped: nothing fills them,
    /// their entries persist for recovery.
    ///
    /// Waiters park on `drain_cv` (notified by every
    /// [`TaskCache::complete_handoff`]) instead of spinning; the
    /// bounded `wait_timeout` re-checks the `down` flags, and if no
    /// entry completes across many consecutive timeouts the drain gives
    /// up with a `cache.rebalance.drain_stalled` event rather than
    /// wedging every future membership transition — the stragglers'
    /// fills still complete their windows, only the report's counter
    /// window closes early.
    fn drain_moved(&self, move_keys: &[(ChunkId, usize)]) {
        let mut stalled_rounds = 0u32;
        let mut last_pending = usize::MAX;
        let mut guard = self.drain_mutex.lock();
        loop {
            let pending = {
                let m = self.membership.read();
                move_keys
                    .iter()
                    .filter(|&&(chunk, to)| {
                        m.handoff.contains_key(&chunk)
                            && m.nodes.get(&to).is_some_and(|n| !n.down.load(Ordering::Acquire))
                    })
                    .count()
            };
            if pending == 0 {
                return;
            }
            if pending < last_pending {
                last_pending = pending;
                stalled_rounds = 0;
            }
            let (g, timed_out) = self.drain_cv.wait_timeout(guard, Duration::from_millis(50));
            guard = g;
            if timed_out {
                stalled_rounds += 1;
                // ~5 s with zero completions: a filler is wedged (or an
                // unforeseen state slipped in). Give up on the exact
                // counter window instead of holding `rebalance_lock`
                // forever.
                if stalled_rounds >= 100 {
                    self.registry.event(
                        "cache.rebalance.drain_stalled",
                        &[("dataset", &self.dataset), ("pending", &pending.to_string())],
                    );
                    return;
                }
            }
        }
    }

    /// Handoff windows still open: moved chunks whose relocation has
    /// not completed yet (their warm copies are still pinned on the
    /// previous owners). Nonzero after a failed or partially-drained
    /// transition; retrying the same transition (or any later one, or
    /// an on-demand read of each chunk) closes them.
    #[cfg(test)]
    fn pending_handoffs(&self) -> usize {
        self.membership.read().handoff.len()
    }

    /// Read a whole file through the cache, re-resolving the owner if a
    /// membership transition invalidates the route mid-flight.
    pub fn get_file(&self, meta: &FileMeta) -> Result<Fetched> {
        retry_stale(|| self.read_file(meta))
    }

    /// The one read path. The owner is resolved under a single
    /// membership read acquisition; the warm hit then takes one node
    /// lock and nothing else. `trace::active()` only decides whether
    /// the `cache.get` span records — traced and untraced reads run the
    /// same code.
    fn read_file(&self, meta: &FileMeta) -> Result<Fetched> {
        let mut span = if trace::active() {
            let chunk = meta.chunk.encode();
            trace::span("cache.get", &[("chunk", chunk.as_str())])
        } else {
            trace::SpanGuard::default()
        };
        // The membership guard is dropped before the node probe: the
        // hit itself needs no further route validation (chunk bytes are
        // immutable, so a hit on a just-retired owner still serves the
        // right data), and keeping the guard would nest every hot-path
        // lock under it — one lockdep graph round per acquisition
        // instead of per miss.
        let (owner, dest) = {
            let m = self.membership.read();
            let Some(owner) = m.partition.owner_of(meta.chunk) else {
                self.metrics.file_reads.inc();
                span.label("outcome", "unknown_chunk");
                return Err(CacheError::UnknownChunk(meta.chunk.encode()));
            };
            (owner, m.nodes.get(&owner).cloned())
        };
        let Some(dest) = dest.filter(|d| !d.down.load(Ordering::Acquire)) else {
            self.metrics.file_reads.inc();
            span.label("outcome", "node_down");
            return Err(CacheError::NodeDown { node: owner });
        };
        // Hit: chunk resident on its owner. The read and its hit are
        // one batch so a snapshot never sees hits > reads.
        {
            let inner = dest.inner.lock();
            if let Some(c) = inner.chunks.get(&meta.chunk) {
                self.registry.batch(|| {
                    self.metrics.file_reads.inc();
                    self.metrics.chunk_hits.inc();
                });
                let data = slice_file(c, meta)?;
                span.label("outcome", "hit");
                return Ok(Fetched { data, owner_node: owner, chunk_hit: true });
            }
        }
        // Miss: fill the whole chunk (any policy — Oneshot may have
        // evicted under memory pressure), then serve. During a rebalance
        // overlap this runs inline on the reader's thread and fills warm
        // from the previous owner — the on-demand-miss-priority path.
        self.metrics.file_reads.inc();
        span.label("outcome", "miss");
        if let Err(e) = self.fill_chunk(owner, meta.chunk) {
            if matches!(e, CacheError::StaleOwner { .. }) {
                // A rebalance landed between route validation and the
                // fill; surface the typed error so the caller re-routes.
                self.metrics.stale_owner_retries.inc();
                span.label("outcome", "stale_owner");
            }
            return Err(e);
        }
        let inner = dest.inner.lock();
        let c = inner
            .chunks
            .get(&meta.chunk)
            .ok_or_else(|| CacheError::UnknownChunk(meta.chunk.encode()))?;
        let data = slice_file(c, meta)?;
        Ok(Fetched { data, owner_node: owner, chunk_hit: false })
    }

    /// Make `chunk` resident on `node`, preferring the previous owner's
    /// memory (warm handoff) when the chunk is mid-relocation, else the
    /// backing store.
    ///
    /// Route validation, the residency check, and the handoff lookup
    /// happen under one membership read guard: a rebalance's Phase 1
    /// (which bumps the epoch and rewires the handoff map under the
    /// write lock) cannot interleave between them. Without this, a
    /// reader that resolved its route before a rebalance could fill the
    /// *old* owner from the store after the sweep already drained it —
    /// a ghost residency that a later resize mistakes for a completed
    /// move (its fill finds the chunk resident, silently skipping the
    /// warm handoff).
    ///
    /// Returns the bytes this call made resident: 0 when the chunk was
    /// already there or a racing fill won the install.
    fn fill_chunk(&self, node: usize, chunk: ChunkId) -> Result<u64> {
        let (dest, src, warm) = {
            let m = self.membership.read();
            if m.partition.owner_of(chunk) != Some(node) {
                // The route is stale: `node` no longer owns `chunk`.
                // Callers re-resolve; filling anyway would plant the
                // chunk on a non-owner.
                return Err(CacheError::StaleOwner { epoch: m.epoch });
            }
            let Some(dest) = m.nodes.get(&node).cloned() else {
                return Err(CacheError::NodeDown { node });
            };
            if dest.inner.lock().chunks.contains_key(&chunk) {
                return Ok(0);
            }
            // Warm handoff: if this chunk is mid-relocation, its
            // previous owner may still hold it — a refcounted view
            // clone, no store read, no payload copy.
            let src = m.handoff.get(&chunk).cloned();
            let warm = src.as_ref().and_then(|s| s.inner.lock().chunks.get(&chunk).cloned());
            (dest, src, warm)
        };
        let (size, counter) = match warm {
            Some(view) => {
                (self.install_chunk(&dest, chunk, view), &self.metrics.rebalance_warm_hits)
            }
            // No window, or the previous owner no longer holds the
            // chunk (evicted, killed): the authoritative store fills it
            // and the window, if any, still closes below.
            None => (self.load_from_store(&dest, chunk)?, &self.metrics.rebalance_fallbacks),
        };
        // Exactly one racing filler wins the install; only the winner
        // counts the fill and completes the handoff, and it counts
        // *before* completing. The handoff entry's removal is therefore
        // ordered after the winner's counters, which is what lets
        // `rebalance_to` treat "every moved chunk's entry is gone" as
        // "every fill in this window has been counted".
        if let Some(src) = src.filter(|_| size > 0) {
            self.registry.batch(|| {
                counter.inc();
                self.metrics.rebalance_bytes.add(size);
            });
            self.complete_handoff(chunk, &src);
        }
        Ok(size)
    }

    /// Load `chunk` from the backing store into `dest`. Returns the
    /// chunk size (0 when a racing fill installed it first).
    fn load_from_store(&self, dest: &Arc<NodeState>, chunk: ChunkId) -> Result<u64> {
        let key = chunk_object_key(&self.dataset, chunk);
        // The miss path's fetch from the backing store (the peer/load
        // leg of a cache read) is its own child span.
        let bytes = {
            let _span = if trace::active() {
                trace::span("store.get", &[("key", key.as_str())])
            } else {
                trace::SpanGuard::default()
            };
            self.backing.get(&key).map_err(|e| CacheError::Backing(e.to_string()))?
        };
        // Parse once per load; the view serves every read from this
        // residency off the decoded header.
        let view = ChunkView::parse(bytes).map_err(|e| CacheError::Corrupt(e.to_string()))?;
        if self.verify_on_load.load(Ordering::Acquire) {
            let bad = view.verify_all();
            if !bad.is_empty() {
                return Err(CacheError::Corrupt(format!(
                    "chunk {chunk} holds corrupt files: {bad:?}"
                )));
            }
        }
        let size = self.install_chunk(dest, chunk, view);
        if size == 0 {
            return Ok(0); // raced with another client
        }
        // A load and its bytes are one batch: a snapshot never shows a
        // chunk counted without its bytes (the tearing the old
        // `CacheStats::snapshot` allowed).
        self.registry.batch(|| {
            self.metrics.chunk_loads.inc();
            self.metrics.bytes_loaded.add(size);
        });
        Ok(size)
    }

    /// Insert a resident chunk into `dest` under the node byte budget.
    /// Returns the bytes installed: 0 when the chunk was already there
    /// (racing fill).
    fn install_chunk(&self, dest: &Arc<NodeState>, chunk: ChunkId, view: ChunkView) -> u64 {
        let size = view.chunk_len() as u64;
        let mut inner = dest.inner.lock();
        if inner.chunks.contains_key(&chunk) {
            return 0;
        }
        // Make room under the node budget (read fresh: a tenant map may
        // have re-partitioned it since the last install).
        let capacity = self.capacity_bytes.load(Ordering::Acquire);
        self.evict_down_to(&mut inner, capacity.saturating_sub(size));
        inner.chunks.insert(chunk, view);
        inner.evict_queue.push_back(chunk);
        inner.resident_bytes += size;
        size
    }

    /// Close one chunk's overlap window: forget the handoff entry, then
    /// evict the moved-out residency from the previous owner. Idempotent
    /// (racing fills of the same chunk may both get here). Counters for
    /// the fill must be incremented *before* calling this — the removal
    /// is what releases [`TaskCache::drain_moved`]'s wait.
    fn complete_handoff(&self, chunk: ChunkId, src: &Arc<NodeState>) {
        {
            let mut m = self.membership.write();
            m.handoff.remove(&chunk);
        }
        evict_residency(src, chunk);
        // Taken empty-handed (both guards above released): pairs with
        // the drain waiter's predicate check under the same mutex so a
        // completion can never slip between its check and its park.
        let _g = self.drain_mutex.lock();
        self.drain_cv.notify_all();
    }
}

/// Drop `chunk`'s residency on `st`, retiring its eviction-queue slot
/// and byte accounting. No-op when the chunk is not resident there.
fn evict_residency(st: &NodeState, chunk: ChunkId) {
    let mut inner = st.inner.lock();
    if let Some(v) = inner.chunks.remove(&chunk) {
        inner.resident_bytes -= v.chunk_len() as u64;
        if let Some(pos) = inner.evict_queue.iter().position(|&c| c == chunk) {
            inner.evict_queue.remove(pos);
        }
    }
}

/// Run `read` again while it reports a route resolved under a stale
/// epoch — bounded, so a membership that churns faster than reads
/// complete surfaces [`CacheError::StaleOwner`] instead of spinning.
fn retry_stale<T>(mut read: impl FnMut() -> Result<T>) -> Result<T> {
    let mut attempts = 0;
    loop {
        match read() {
            Err(CacheError::StaleOwner { .. }) if attempts < 2 => attempts += 1,
            other => return other,
        }
    }
}

fn slice_file(view: &ChunkView, meta: &FileMeta) -> Result<Bytes> {
    view.slice_payload(meta.offset, meta.length).map_err(|e| CacheError::Corrupt(e.to_string()))
}

/// Handle to a background prefetch sweep started by
/// [`TaskCache::prefetch_background`].
///
/// Dropping the handle without joining cancels the sweep cooperatively
/// (the sweep stops issuing chunk loads at the next opportunity) and
/// records a `cache.prefetch_cancelled` event in the cache's registry —
/// an abandoned handle can no longer leak a runaway warm-up thread.
pub struct PrefetchHandle {
    task: Option<TaskHandle<Result<LoadReport>>>,
    registry: Arc<Registry>,
    dataset: String,
}

impl PrefetchHandle {
    /// Wait for the sweep and take its report.
    pub fn join(mut self) -> Result<LoadReport> {
        match self.task.take() {
            Some(task) => match task.join() {
                Ok(report) => report,
                Err(e) => Err(CacheError::Backing(format!("prefetch sweep failed: {e}"))),
            },
            None => Ok(LoadReport::default()),
        }
    }

    /// Ask the sweep to stop at the next chunk boundary, without
    /// waiting. [`join`](PrefetchHandle::join) then returns the partial
    /// report.
    pub fn cancel(&self) {
        if let Some(task) = &self.task {
            task.cancel();
        }
    }

    /// Has the sweep finished (successfully or not)?
    pub fn is_finished(&self) -> bool {
        self.task.as_ref().is_some_and(TaskHandle::is_finished)
    }
}

impl Drop for PrefetchHandle {
    fn drop(&mut self) {
        if let Some(task) = self.task.take() {
            if !task.is_finished() {
                self.registry.event("cache.prefetch_cancelled", &[("dataset", &self.dataset)]);
            }
            // `TaskHandle`'s drop flips the cancel token; the sweep
            // winds down at its next chunk boundary.
            drop(task);
        }
    }
}

impl std::fmt::Debug for PrefetchHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrefetchHandle").field("finished", &self.is_finished()).finish()
    }
}

impl<S> TaskCache<S> {
    /// Counter handles (cheap reads of individual metrics).
    pub fn metrics(&self) -> &CacheMetrics {
        &self.metrics
    }

    /// The registry holding this cache's counters and events.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// A consistent point-in-time snapshot of every `cache.*` metric.
    pub fn stats(&self) -> RegistrySnapshot {
        self.registry.snapshot()
    }
}

impl<S> std::fmt::Debug for TaskCache<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let m = self.membership.read();
        f.debug_struct("TaskCache")
            .field("dataset", &self.dataset)
            .field("nodes", &m.nodes.len())
            .field("epoch", &m.epoch)
            .field("chunks", &m.partition.chunk_count())
            .field("file_reads", &self.metrics.file_reads())
            .field("chunk_loads", &self.metrics.chunk_loads())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diesel_chunk::{ChunkBuilderConfig, ChunkIdGenerator, ChunkWriter};
    use diesel_kv::ShardedKv;
    use diesel_meta::MetaService;
    use diesel_store::MemObjectStore;

    /// Build a dataset of `files` files of `file_size` bytes in small
    /// chunks; returns (store, metadata service, file metas by name).
    fn dataset(
        files: usize,
        file_size: usize,
        chunk_size: usize,
    ) -> (Arc<MemObjectStore>, Vec<(String, FileMeta)>, Vec<ChunkId>) {
        let store = Arc::new(MemObjectStore::new());
        let svc = MetaService::new(Arc::new(ShardedKv::new()));
        let ids = ChunkIdGenerator::deterministic(1, 1, 100);
        let cfg = ChunkBuilderConfig { target_chunk_size: chunk_size, ..Default::default() };
        let mut w = ChunkWriter::new(cfg, &ids).with_clock(|| 1);
        for i in 0..files {
            w.add_file(&format!("f{i:04}"), &vec![(i % 251) as u8; file_size]).unwrap();
        }
        for sealed in w.finish() {
            svc.ingest_chunk("ds", &sealed.header, sealed.bytes.len() as u64).unwrap();
            store.put(&chunk_object_key("ds", sealed.header.id), sealed.bytes).unwrap();
        }
        let snap = svc.build_snapshot("ds").unwrap();
        let metas = snap.files.iter().map(|f| (f.path.clone(), f.meta)).collect();
        (store, metas, snap.chunks)
    }

    fn cache(
        store: Arc<MemObjectStore>,
        chunks: Vec<ChunkId>,
        nodes: usize,
        cap: u64,
        policy: CachePolicy,
    ) -> TaskCache<MemObjectStore> {
        TaskCache::new(
            Topology::uniform(nodes, 4).unwrap(),
            store,
            "ds",
            chunks,
            CacheConfig { capacity_bytes_per_node: cap, policy },
        )
        .unwrap()
    }

    #[test]
    fn oneshot_prefetch_then_all_hits() {
        let (store, metas, chunks) = dataset(60, 200, 2048);
        let c = cache(store, chunks.clone(), 3, 1 << 30, CachePolicy::Oneshot);
        let report = c.prefetch_all().unwrap();
        assert_eq!(report.chunks_loaded as usize, chunks.len());
        assert!((c.resident_fraction() - 1.0).abs() < 1e-9);
        for (name, meta) in &metas {
            let f = c.get_file(meta).unwrap();
            assert!(f.chunk_hit, "{name} should hit after prefetch");
            assert_eq!(f.data.len(), 200);
        }
        let snap = c.stats();
        assert_eq!(snap.counter("cache.file_reads{dataset=ds}"), 60);
        assert_eq!(snap.counter("cache.chunk_hits{dataset=ds}"), 60);
        assert_eq!(snap.counter("cache.chunk_loads{dataset=ds}") as usize, chunks.len());
    }

    #[test]
    fn on_demand_fills_during_first_epoch() {
        let (store, metas, chunks) = dataset(40, 100, 1024);
        let c = cache(store, chunks.clone(), 2, 1 << 30, CachePolicy::OnDemand);
        assert_eq!(c.resident_fraction(), 0.0);
        let mut first_epoch_misses = 0;
        for (_, meta) in &metas {
            if !c.get_file(meta).unwrap().chunk_hit {
                first_epoch_misses += 1;
            }
        }
        assert_eq!(first_epoch_misses as usize, chunks.len(), "one miss per chunk");
        // Second epoch: everything hits.
        for (_, meta) in &metas {
            assert!(c.get_file(meta).unwrap().chunk_hit);
        }
        assert_eq!(c.metrics().chunk_loads() as usize, chunks.len());
    }

    #[test]
    fn file_bytes_are_correct() {
        let (store, metas, chunks) = dataset(10, 333, 4096);
        let c = cache(store, chunks, 2, 1 << 30, CachePolicy::OnDemand);
        for (name, meta) in &metas {
            let i: usize = name[1..].parse().unwrap();
            let f = c.get_file(meta).unwrap();
            assert_eq!(f.data.as_ref(), &vec![(i % 251) as u8; 333][..], "content of {name}");
        }
    }

    #[test]
    fn node_failure_is_contained_and_recoverable() {
        let (store, metas, chunks) = dataset(60, 200, 2048);
        let c = cache(store, chunks.clone(), 3, 1 << 30, CachePolicy::Oneshot);
        c.prefetch_all().unwrap();
        c.kill_node(1);
        assert!(c.is_node_down(1));
        assert!(c.resident_fraction() < 1.0, "killed node dropped its chunks");

        let mut down_errors = 0;
        let mut served = 0;
        for (_, meta) in &metas {
            match c.get_file(meta) {
                Ok(_) => served += 1,
                Err(CacheError::NodeDown { node: 1 }) => down_errors += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(down_errors > 0, "node 1's share must fail");
        assert!(served > 0, "other nodes keep serving (containment)");

        // Chunk-wise recovery reloads exactly node 1's partition.
        let report = c.recover_node(1).unwrap();
        assert_eq!(report.chunks_loaded as usize, c.partition().chunks_of(1).len());
        for (_, meta) in &metas {
            assert!(c.get_file(meta).is_ok());
        }
        assert!((c.resident_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn memory_constrained_node_evicts_oldest_installs() {
        let (store, metas, chunks) = dataset(64, 512, 2048);
        // Budget fits only ~2 chunks per node.
        let c = cache(store, chunks.clone(), 2, 6000, CachePolicy::OnDemand);
        for (_, meta) in &metas {
            c.get_file(meta).unwrap();
        }
        assert!(c.metrics().evictions() > 0, "capacity pressure must evict");
        for node in 0..2 {
            assert!(c.node_resident_bytes(node) <= 6000);
        }
        // Reads still correct under thrashing.
        for (_, meta) in metas.iter().take(5) {
            assert_eq!(c.get_file(meta).unwrap().data.len(), 512);
        }
    }

    #[test]
    fn unknown_chunk_rejected() {
        let (store, _, chunks) = dataset(4, 64, 4096);
        let c = cache(store, chunks, 1, 1 << 30, CachePolicy::OnDemand);
        let foreign = FileMeta {
            chunk: ChunkIdGenerator::deterministic(9, 9, 9).next_id(),
            index_in_chunk: 0,
            offset: 0,
            length: 1,
            uploaded_ms: 0,
        };
        assert!(matches!(c.get_file(&foreign), Err(CacheError::UnknownChunk(_))));
    }

    #[test]
    fn corrupt_meta_range_rejected() {
        let (store, metas, chunks) = dataset(4, 64, 4096);
        let c = cache(store, chunks, 1, 1 << 30, CachePolicy::OnDemand);
        // Metadata comes from a snapshot loaded off disk: out-of-range
        // and overflowing ranges are typed errors on miss and on hit,
        // never a panic and never bytes from outside the payload.
        for (offset, length) in
            [(metas[0].1.offset, 1 << 30), (u64::MAX, 1), (u64::MAX, u64::MAX), (1, u64::MAX)]
        {
            let meta = FileMeta { offset, length, ..metas[0].1 };
            let got = c.get_file(&meta);
            assert!(matches!(got, Err(CacheError::Corrupt(_))), "{offset}+{length}: {got:?}");
        }
        assert_eq!(c.get_file(&metas[0].1).unwrap().data, vec![0u8; 64]);
    }

    #[test]
    fn concurrent_readers_share_one_chunk_load() {
        let (store, metas, chunks) = dataset(32, 256, 1 << 20);
        assert_eq!(chunks.len(), 1, "one big chunk expected");
        let c = Arc::new(cache(store, chunks, 1, 1 << 30, CachePolicy::OnDemand));
        let metas = Arc::new(metas);
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                let metas = metas.clone();
                std::thread::spawn(move || {
                    for (_, meta) in metas.iter() {
                        c.get_file(meta).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.metrics().chunk_loads(), 1, "chunk must be loaded exactly once");
        assert_eq!(c.metrics().file_reads(), 8 * 32);
    }

    #[test]
    fn background_prefetch_overlaps_with_reads() {
        let (store, metas, chunks) = dataset(80, 300, 2048);
        let c = Arc::new(cache(store, chunks.clone(), 2, 1 << 30, CachePolicy::Oneshot));
        let handle = c.prefetch_background();
        // Reads during warm-up: every one must succeed (miss ⇒ on-demand
        // load that de-duplicates with the prefetcher).
        for (_, meta) in &metas {
            assert_eq!(c.get_file(meta).unwrap().data.len(), 300);
        }
        let report = handle.join().unwrap();
        // The prefetcher and readers together load each chunk exactly once.
        assert_eq!(c.metrics().chunk_loads() as usize, chunks.len());
        assert!(report.chunks_loaded as usize <= chunks.len());
        assert!((c.resident_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dropping_prefetch_handle_cancels_and_logs() {
        let (store, _, chunks) = dataset(40, 300, 1024);
        // Inline pool: the spawn runs synchronously, so the sweep is
        // finished by the time we drop — no cancel event.
        let c = Arc::new(
            cache(store.clone(), chunks.clone(), 2, 1 << 30, CachePolicy::Oneshot)
                .with_pool(diesel_exec::WorkPool::inline("t")),
        );
        let h = c.prefetch_background();
        assert!(h.is_finished());
        drop(h);
        assert!(c.stats().events.iter().all(|e| e.scope != "cache.prefetch_cancelled"));

        // Cancelling early stops the sweep at a chunk boundary; the
        // partial report never exceeds the partition.
        let c2 = Arc::new(cache(store, chunks, 2, 1 << 30, CachePolicy::Oneshot));
        let h = c2.prefetch_background();
        h.cancel();
        let report = h.join().unwrap();
        assert!(report.chunks_loaded <= c2.partition().chunk_count() as u64);

        // And a drop of an unfinished sweep logs the cancel event.
        let h = c2.prefetch_background();
        let was_finished = h.is_finished();
        drop(h);
        let logged = c2.stats().events.iter().any(|e| e.scope == "cache.prefetch_cancelled");
        assert!(
            was_finished || logged,
            "an unfinished sweep dropped without join must log cancellation"
        );
    }

    #[test]
    fn snapshot_batches_loads_with_bytes_and_logs_recovery() {
        let (store, metas, chunks) = dataset(30, 200, 2048);
        let c = cache(store, chunks, 2, 1 << 30, CachePolicy::OnDemand);
        for (_, meta) in &metas {
            c.get_file(meta).unwrap();
        }
        let snap = c.stats();
        assert!(
            snap.counter("cache.chunk_hits{dataset=ds}")
                <= snap.counter("cache.file_reads{dataset=ds}")
        );
        assert!(snap.counter("cache.chunk_loads{dataset=ds}") > 0);
        assert!(snap.counter("cache.bytes_loaded{dataset=ds}") > 0);
        c.kill_node(0);
        c.recover_node(0).unwrap();
        let snap = c.stats();
        assert_eq!(snap.counter("cache.recoveries{dataset=ds}"), 1);
        let scopes: Vec<&str> = snap.events.iter().map(|e| e.scope.as_str()).collect();
        assert_eq!(scopes, vec!["cache.kill_node", "cache.recover_node"]);
    }

    #[test]
    fn prefetch_counts_bytes() {
        let (store, _, chunks) = dataset(20, 100, 1024);
        let total_backing: u64 = store.total_bytes();
        let c = cache(store, chunks, 2, 1 << 30, CachePolicy::Oneshot);
        let report = c.prefetch_all().unwrap();
        assert_eq!(report.bytes_loaded, total_backing);
        // Prefetch again: nothing new to load.
        let again = c.prefetch_all().unwrap();
        assert_eq!(again, LoadReport::default());
    }

    #[test]
    fn grow_hands_off_warm_without_touching_the_store() {
        let (store, metas, chunks) = dataset(60, 200, 1024);
        let c = cache(store, chunks.clone(), 4, 1 << 30, CachePolicy::Oneshot);
        c.prefetch_all().unwrap();
        let loads_before = c.metrics().chunk_loads();
        assert_eq!(c.membership_epoch(), 0);

        let report = c.resize(8).unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(c.membership_epoch(), 1);
        assert_eq!(c.members(), (0..8).collect::<Vec<_>>());
        assert!(report.chunks_moved > 0, "a doubling must move chunks");
        assert!(report.chunks_moved as usize <= chunks.len(), "movement bounded by the dataset");
        assert_eq!(
            report.peer_warm_hits, report.chunks_moved,
            "fully warm cache: every move is a peer handoff"
        );
        assert_eq!(report.store_fallbacks, 0);
        assert_eq!(
            c.metrics().chunk_loads(),
            loads_before,
            "warm handoff must not touch the backing store"
        );
        // The cache still serves every file, all hits, from the new
        // placement.
        for (_, meta) in &metas {
            assert!(c.get_file(meta).unwrap().chunk_hit);
        }
        assert!((c.resident_fraction() - 1.0).abs() < 1e-9, "overlap windows all closed");
    }

    #[test]
    fn shrink_drains_the_leavers_chunks_to_survivors() {
        let (store, metas, chunks) = dataset(60, 200, 1024);
        let c = cache(store, chunks, 4, 1 << 30, CachePolicy::Oneshot);
        c.prefetch_all().unwrap();
        let leaver_share = c.partition().chunks_of(3).len() as u64;
        let report = c.resize(3).unwrap();
        assert_eq!(c.members(), vec![0, 1, 2]);
        assert_eq!(report.chunks_moved, leaver_share, "a shrink moves exactly the leaver's share");
        assert_eq!(report.peer_warm_hits, report.chunks_moved, "drained from the leaver's memory");
        for (_, meta) in &metas {
            let f = c.get_file(meta).unwrap();
            assert!(f.chunk_hit);
            assert!(f.owner_node < 3, "nothing routes to the retired node");
        }
        // The retired node is gone from the membership entirely.
        assert_eq!(c.node_resident_bytes(3), 0);
    }

    #[test]
    fn cold_moves_fall_back_to_the_store() {
        let (store, metas, chunks) = dataset(60, 200, 1024);
        // OnDemand and never read: nothing is resident anywhere.
        let c = cache(store, chunks, 4, 1 << 30, CachePolicy::OnDemand);
        let report = c.resize(8).unwrap();
        assert!(report.chunks_moved > 0);
        assert_eq!(report.peer_warm_hits, 0, "cold cache has no warm source");
        assert_eq!(
            report.store_fallbacks, report.chunks_moved,
            "every move falls back to the authoritative store"
        );
        for (_, meta) in &metas {
            assert!(c.get_file(meta).is_ok());
        }
    }

    #[test]
    fn stale_route_retry_is_bounded() {
        let stale = || Err::<(), _>(CacheError::StaleOwner { epoch: 9 });
        let mut calls = 0;
        let healed = retry_stale(|| {
            calls += 1;
            if calls < 3 {
                stale()
            } else {
                Ok(())
            }
        });
        assert_eq!((healed, calls), (Ok(()), 3), "two re-resolutions are absorbed");
        let mut calls = 0;
        let churning = retry_stale(|| {
            calls += 1;
            stale()
        });
        assert_eq!((churning, calls), (stale(), 3), "the third stale answer surfaces");
    }

    #[test]
    fn traced_and_untraced_reads_are_the_same_reads() {
        type Outcome = Result<(Bytes, usize, bool)>;
        /// One access sequence over a fresh cache — miss-then-fill, hit,
        /// unknown chunk, killed owner, then a full pass after a resize
        /// — with or without an ambient tracer. Returns every
        /// outcome, the counter totals, and how many `cache.get` spans
        /// the run recorded.
        fn run(traced: bool) -> (Vec<Outcome>, [u64; 4], usize) {
            let (store, metas, chunks) = dataset(40, 100, 1024);
            let c = cache(store, chunks, 4, 1 << 30, CachePolicy::OnDemand);
            let tracer = diesel_obs::Tracer::enabled(c.registry());
            let _ambient = traced.then(|| trace::install_tracer(&tracer));
            assert_eq!(trace::active(), traced);
            let mut out: Vec<Outcome> = Vec::new();
            let mut rec = |r: Result<Fetched>| {
                out.push(r.map(|f| (f.data, f.owner_node, f.chunk_hit)));
            };
            let meta = &metas[0].1;
            rec(c.get_file(meta)); // miss, filled from the store
            rec(c.get_file(meta)); // hit
            let foreign = FileMeta {
                chunk: ChunkIdGenerator::deterministic(9, 9, 9).next_id(),
                index_in_chunk: 0,
                offset: 0,
                length: 1,
                uploaded_ms: 0,
            };
            rec(c.get_file(&foreign)); // unknown chunk
            let part = c.partition();
            let owner_of = |m: &FileMeta| part.owner_of(m.chunk).unwrap();
            let (_, other) = metas
                .iter()
                .find(|(_, m)| owner_of(m) != owner_of(meta))
                .expect("four nodes share the chunks");
            c.kill_node(owner_of(other));
            rec(c.get_file(other)); // killed owner
            c.resize(8).unwrap();
            for (_, m) in &metas {
                rec(c.get_file(m));
            }
            let m = c.metrics();
            let counters =
                [m.file_reads(), m.chunk_hits(), m.chunk_loads(), m.stale_owner_retries()];
            let spans = tracer.drain().iter().filter(|s| s.name == "cache.get").count();
            (out, counters, spans)
        }
        let (plain, plain_counters, plain_spans) = run(false);
        let (traced, traced_counters, traced_spans) = run(true);
        assert_eq!(plain_spans, 0);
        assert_eq!(traced_spans, plain.len(), "the traced run really traced every read");
        assert_eq!(plain, traced, "same bytes, owners, hit flags and typed errors");
        assert_eq!(plain_counters, traced_counters);
        assert!(plain.iter().any(|o| matches!(o, Err(CacheError::UnknownChunk(_)))));
        assert!(plain.iter().any(|o| matches!(o, Err(CacheError::NodeDown { .. }))));
        assert!(plain.iter().any(|o| matches!(o, Ok((_, _, false)))));
    }

    #[test]
    fn rebalance_installs_respect_the_node_byte_budget() {
        // Regression: a rebalance must not grow a node past its budget.
        // The budget holds ~2 chunks; a 2→4 grow hands each joiner far
        // more.
        let (store, metas, chunks) = dataset(96, 512, 2048);
        let mut sizes: Vec<u64> = chunks
            .iter()
            .map(|&c| store.size_of(&chunk_object_key("ds", c)).unwrap() as u64)
            .collect();
        sizes.sort_unstable();
        let budget = sizes[sizes.len() - 1] + sizes[sizes.len() - 2];
        let c = cache(store, chunks, 2, budget, CachePolicy::OnDemand);
        for (_, meta) in &metas {
            c.get_file(meta).unwrap(); // warm, thrashing within the budget
        }
        let evicted_before = c.metrics().evictions();
        let report = c.resize(4).unwrap();
        assert!(report.chunks_moved > 8, "each joiner is handed more than it can hold");
        assert!(report.peer_warm_hits > 0, "what the sources still held moved warm");
        assert_eq!(report.peer_warm_hits + report.store_fallbacks, report.chunks_moved);
        assert!(c.metrics().evictions() > evicted_before, "over-budget installs evict, and count");
        for node in 0..4 {
            let resident = c.node_resident_bytes(node);
            assert!(resident <= budget, "node {node} holds {resident} B over budget {budget} B");
        }
        for (name, meta) in metas.iter().take(12) {
            let i: usize = name[1..].parse().unwrap();
            assert_eq!(c.get_file(meta).unwrap().data.as_ref(), &vec![(i % 251) as u8; 512][..]);
        }
    }

    #[test]
    fn identical_membership_is_a_noop() {
        let (store, _, chunks) = dataset(10, 100, 1024);
        let c = cache(store, chunks, 4, 1 << 30, CachePolicy::Oneshot);
        c.prefetch_all().unwrap();
        let report = c.resize(4).unwrap();
        assert_eq!(report.epoch, 0, "same ring ⇒ no epoch bump");
        assert_eq!(report.chunks_moved, 0);
    }

    #[test]
    fn grow_shrink_roundtrip_restores_placement() {
        let (store, metas, chunks) = dataset(60, 200, 1024);
        let chunk_count = chunks.len() as u64;
        let c = cache(store, chunks, 4, 1 << 30, CachePolicy::Oneshot);
        c.prefetch_all().unwrap();
        let before = c.partition();
        let up = c.resize(8).unwrap();
        let down = c.resize(4).unwrap();
        assert_eq!(down.epoch, 2);
        let after = c.partition();
        for (_, meta) in &metas {
            assert_eq!(before.owner_of(meta.chunk), after.owner_of(meta.chunk));
            assert!(c.get_file(meta).unwrap().chunk_hit, "roundtrip keeps the cache warm");
        }
        assert_eq!(up.chunks_moved, down.chunks_moved, "the same chunks move back");
        assert_eq!(down.peer_warm_hits, down.chunks_moved);
        assert!((c.resident_fraction() - 1.0).abs() < 1e-9);
        let snap = c.stats();
        let warm = snap.counter("cache.rebalance.peer_warm_hits{dataset=ds}");
        assert_eq!(warm, up.chunks_moved + down.chunks_moved);
        assert_eq!(snap.counter("cache.rebalance.store_fallbacks{dataset=ds}"), 0);
        assert_eq!(snap.gauge("cache.membership_epoch{dataset=ds}"), 2);
        // Warm-up + grow + shrink read each chunk from the store once, ever.
        assert_eq!(c.metrics().chunk_loads(), chunk_count);
    }

    /// A `MemObjectStore` whose read path can be switched to fail — the
    /// deterministic stand-in for a transient backing-store outage mid
    /// rebalance sweep.
    struct TogglingStore {
        inner: Arc<MemObjectStore>,
        fail: AtomicBool,
    }

    impl TogglingStore {
        fn new(inner: Arc<MemObjectStore>) -> Self {
            TogglingStore { inner, fail: AtomicBool::new(false) }
        }

        fn set_fail(&self, on: bool) {
            self.fail.store(on, Ordering::Release);
        }
    }

    impl diesel_store::ObjectStore for TogglingStore {
        fn put(&self, key: &str, value: Bytes) -> diesel_store::Result<()> {
            self.inner.put(key, value)
        }
        fn get(&self, key: &str) -> diesel_store::Result<Bytes> {
            if self.fail.load(Ordering::Acquire) {
                return Err(diesel_store::StoreError::Io(format!("injected outage reading {key}")));
            }
            self.inner.get(key)
        }
        fn delete(&self, key: &str) -> diesel_store::Result<bool> {
            self.inner.delete(key)
        }
        fn contains(&self, key: &str) -> bool {
            self.inner.contains(key)
        }
        fn list_prefix(&self, prefix: &str) -> Vec<String> {
            self.inner.list_prefix(prefix)
        }
        fn size_of(&self, key: &str) -> Option<usize> {
            self.inner.size_of(key)
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn total_bytes(&self) -> u64 {
            self.inner.total_bytes()
        }
    }

    #[test]
    fn stale_handoff_window_cannot_wedge_the_next_resize() {
        // Regression: an interrupted transition can leave a chunk with
        // an open handoff window *and* bytes already resident on the
        // node a later transition moves it back to. The sweep's fill
        // then returns `Resident` without ever completing the window,
        // and the old drain loop spun forever on the orphaned entry
        // (holding `cache.rebalance`, wedging every future transition).
        let (store, metas, chunks) = dataset(60, 200, 1024);
        let c = cache(store, chunks.clone(), 4, 1 << 30, CachePolicy::Oneshot);
        c.prefetch_all().unwrap();
        let before = c.partition();
        c.resize(8).unwrap();
        // Pick a chunk the coming shrink will move back: owner differs
        // between the 4-node and 8-node rings (the roundtrip property
        // returns it to its 4-node owner).
        let (chunk, back_to) = chunks
            .iter()
            .map(|&ch| (ch, before.owner_of(ch).unwrap()))
            .find(|&(ch, owner)| c.partition().owner_of(ch) != Some(owner))
            .expect("a 4→8 grow must move some chunk");
        // Forge the interrupted state: the chunk's bytes already sit on
        // the future destination, and a leftover handoff entry points
        // at some third node that no fill will ever touch.
        {
            let m = c.membership.read();
            let cur_owner = m.partition.owner_of(chunk).unwrap();
            let view = m.nodes[&cur_owner].inner.lock().chunks[&chunk].clone();
            let dest = Arc::clone(&m.nodes[&back_to]);
            let orphan_src = Arc::clone(&m.nodes[&7]);
            drop(m);
            assert!(c.install_chunk(&dest, chunk, view) > 0);
            c.membership.write().handoff.insert(chunk, orphan_src);
        }
        // Old code: this call never returns. New code: Phase 1 closes
        // the window under the write lock and the shrink completes.
        let report = c.resize(4).unwrap();
        assert!(report.chunks_moved > 0);
        assert_eq!(c.pending_handoffs(), 0, "no orphaned handoff windows survive");
        assert!((c.resident_fraction() - 1.0).abs() < 1e-9, "no double residency either");
        for (_, meta) in &metas {
            assert!(c.get_file(meta).unwrap().chunk_hit);
        }
        // And the membership plane still transitions freely afterwards.
        c.resize(8).unwrap();
        c.resize(4).unwrap();
        assert_eq!(c.pending_handoffs(), 0);
    }

    #[test]
    fn failed_sweep_is_repaired_by_retrying_the_same_resize() {
        let (mem, metas, chunks) = dataset(60, 200, 1024);
        let store = Arc::new(TogglingStore::new(mem));
        let c = TaskCache::new(
            Topology::uniform(2, 4).unwrap(),
            Arc::clone(&store),
            "ds",
            chunks.clone(),
            CacheConfig { capacity_bytes_per_node: 1 << 30, policy: CachePolicy::OnDemand },
        )
        .unwrap();
        // Warm half the chunks so the failing sweep is mixed: warm
        // moves succeed peer-to-peer, cold moves hit the dead store.
        let warm: std::collections::HashSet<ChunkId> =
            chunks.iter().copied().take(chunks.len() / 2).collect();
        for (_, meta) in &metas {
            if warm.contains(&meta.chunk) {
                c.get_file(meta).unwrap();
            }
        }
        store.set_fail(true);
        let err = c.resize(4).expect_err("cold fallbacks must surface the store outage");
        assert!(matches!(err, CacheError::Backing(_)), "got {err:?}");
        // The epoch is installed; the unfinished chunks keep their
        // windows open and are reported by `pending_handoffs`.
        assert_eq!(c.membership_epoch(), 1);
        let open = c.pending_handoffs();
        assert!(open > 0, "a failed sweep leaves its unfinished windows open");
        // Retrying the *same* membership repairs instead of no-opping.
        store.set_fail(false);
        let report = c.resize(4).unwrap();
        assert_eq!(report.epoch, 1, "repair does not bump the epoch");
        assert_eq!(report.chunks_moved as usize, open, "repair covers exactly the open windows");
        assert_eq!(report.store_fallbacks, report.chunks_moved, "unfinished chunks were all cold");
        assert_eq!(c.pending_handoffs(), 0);
        assert!(c.resident_fraction() <= 1.0 + 1e-9, "no ghost residencies after repair");
        // A second retry is a true no-op.
        let again = c.resize(4).unwrap();
        assert_eq!(again.chunks_moved, 0);
        for (name, meta) in &metas {
            let i: usize = name[1..].parse().unwrap();
            assert_eq!(c.get_file(meta).unwrap().data.as_ref(), &vec![(i % 251) as u8; 200][..]);
        }
    }

    #[test]
    fn failed_sweep_windows_also_heal_through_later_transitions() {
        // The other two repair routes: a failed grow's windows are
        // absorbed by a subsequent shrink (the chunks move back onto
        // nodes still holding them), and on-demand reads complete
        // windows chunk-wise.
        let (mem, metas, chunks) = dataset(60, 200, 1024);
        let store = Arc::new(TogglingStore::new(mem));
        let c = TaskCache::new(
            Topology::uniform(2, 4).unwrap(),
            Arc::clone(&store),
            "ds",
            chunks,
            CacheConfig { capacity_bytes_per_node: 1 << 30, policy: CachePolicy::OnDemand },
        )
        .unwrap();
        store.set_fail(true);
        assert!(c.resize(4).is_err(), "fully cold grow against a dead store must fail");
        assert!(c.pending_handoffs() > 0);
        store.set_fail(false);
        // Shrinking back moves every unfinished chunk onto its original
        // owner; the open windows must not wedge or double-count.
        let report = c.resize(2).unwrap();
        assert_eq!(report.epoch, 2);
        assert_eq!(c.pending_handoffs(), 0, "the shrink absorbs the failed grow's windows");
        for (_, meta) in &metas {
            c.get_file(meta).unwrap();
        }
        assert!(c.resident_fraction() <= 1.0 + 1e-9);
    }
}
