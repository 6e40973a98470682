//! The task-grained distributed cache proper.
//!
//! One [`TaskCache`] exists per DLT task. It holds the task's dataset in
//! per-node chunk caches: any client resolves a file's chunk owner from
//! the shared chunk partition and fetches the file in one hop. Chunks
//! are loaded from the backing object store *whole* — the property that
//! makes warm-up and recovery fast (Fig. 11b).
//!
//! Membership is fixed when the cache is built (DESIGN.md §13): the
//! nodes are `0..topology.node_count()` for the cache's whole life, and
//! the chunk partition over them — a chunk's rank in sorted chunk-id
//! order mod n, which every client computes alike — never changes. So is
//! the per-node byte budget ([`CacheConfig::capacity_bytes_per_node`]). A
//! warm hit therefore finds its owner in immutable state: a partition
//! lookup, then that node's lock. The only membership events are the
//! paper's: a node fails ([`TaskCache::kill_node`]) and is recovered
//! chunk-wise ([`TaskCache::recover_node`]).
//!
//! Chunk loads are *single-flight*: at most one store read per (node,
//! chunk) is in progress at a time, whoever asks — a miss, a sweep, the
//! lookahead. A reader that misses a chunk already in flight parks on
//! the node until the flight ends, and every reader is served from the
//! view it filled or found, whatever happens to residency afterwards.
//!
//! Where a node cannot hold its share of the dataset, the epoch's
//! shuffle plan drives it ([`TaskCache::follow_plan`]): eviction takes
//! the chunk whose next planned read is farthest away, a chunk is
//! released on its last planned read, and a budget-bounded lookahead
//! loads ahead of the readers in plan order, on the blocking lane of
//! the cache's work pool, as many chunks at once as the plan's widest
//! group places on streaming nodes.
//! A node whose share fits is left alone, and with no plan installed —
//! or on such a node — the hit path is what it always was plus one
//! `Option` test under the node lock it already holds.
//!
//! Lock order (runtime lockdep classes, see also `LOCK_RANKS` in
//! diesel-lint): `cache.lookahead` → `cache.node`, and never two
//! `cache.node` guards at once. `cache.lookahead` (the plan's load
//! queue) is taken with no other cache lock held, and readers pump it
//! only after dropping their node guard. No store read and no park
//! happens under a node guard other than the wait on the node's own
//! condvar.
//!
//! Counters live in a `diesel-obs` registry under `cache.*`; related
//! updates (a read and its hit, a load and its bytes) go through
//! [`diesel_obs::Registry::batch`] so a snapshot never shows one without
//! the other.

use diesel_exec::WorkPool;
use diesel_obs::{trace, Counter, Registry, RegistrySnapshot};
use diesel_util::{Condvar, Mutex, MutexGuard};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};

use diesel_chunk::{ChunkId, ChunkView};
use diesel_meta::recovery::chunk_object_key;
use diesel_meta::FileMeta;
use diesel_store::{Bytes, ObjectStore};

use crate::partition::ChunkPartition;
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
    /// Memory budget per node for cached chunks, fixed for the cache's
    /// life.
    pub capacity_bytes_per_node: u64,
    /// Fill policy — descriptive only: nothing in the cache reads it.
    /// A cache is `Oneshot` iff its owner calls
    /// [`TaskCache::prefetch_all`] after construction; otherwise every
    /// chunk fills on its first miss (`OnDemand`) — or ahead of it,
    /// where a node follows an epoch plan
    /// ([`TaskCache::follow_plan`]).
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
}

impl CacheMetrics {
    /// Register the cache counters (`cache.file_reads`,
    /// `cache.chunk_hits`, `cache.chunk_loads`, `cache.bytes_loaded`,
    /// `cache.evictions`, `cache.recoveries`) in `registry`, each
    /// carrying a `{dataset=…}` label so that tenants sharing one registry stay
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

    /// Chunks given up: evicted for capacity, or released on their last
    /// planned read.
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }

    /// Node recoveries completed (Fig. 11b sweeps).
    pub fn recoveries(&self) -> u64 {
        self.recoveries.get()
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

/// One chunk's place in an epoch plan handed to
/// [`TaskCache::follow_plan`]. Chunk-wise shuffle (§4.3) reads all of a
/// chunk's files inside one group and the groups in ascending order, so
/// `(group, reads)` is the chunk's whole future for the epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedChunk {
    /// The chunk.
    pub chunk: ChunkId,
    /// The shuffle group its reads fall in.
    pub group: u32,
    /// File reads the epoch makes of it.
    pub reads: u32,
}

/// What a node's plan still expects of one chunk.
#[derive(Debug, Clone, Copy)]
struct PlannedUse {
    group: u32,
    reads_left: u32,
    /// The stored chunk's size, as the backing store reports it.
    bytes: u64,
}

/// Next planned read of a chunk the plan is finished with or never
/// named: later than every group.
const NEVER: u32 = u32::MAX;

#[derive(Debug, Default)]
struct NodeInner {
    /// Resident chunks, each an owned [`ChunkView`] over the loaded
    /// buffer. Every file served from one is a `Bytes` sub-slice of the
    /// chunk's one allocation — cache hits never copy payload
    /// (DESIGN.md §11).
    chunks: HashMap<ChunkId, ChunkView>,
    /// Resident chunks in install order, oldest first. Eviction takes
    /// the chunk whose next planned read is farthest away and, among
    /// equals, the oldest install — so a node without a plan evicts in
    /// install order (a hit never refreshes a slot).
    evict_queue: VecDeque<ChunkId>,
    resident_bytes: u64,
    /// Chunks being read from the backing store for this node right
    /// now, each with the bytes it is expected to land (0 for a chunk
    /// no plan names). At most one
    /// flight per chunk: a reader that misses one parks on
    /// [`NodeState::landed`] instead of reading the store again.
    flights: HashMap<ChunkId, u64>,
    /// This node's share of the installed epoch plan. `None` — nothing
    /// counted, nothing released — unless that share exceeds the node's
    /// byte budget.
    plan: Option<HashMap<ChunkId, PlannedUse>>,
}

impl NodeInner {
    /// The group of `chunk`'s next planned read; [`NEVER`] once the plan
    /// is finished with it, or never named it.
    fn next_use(&self, chunk: ChunkId) -> u32 {
        let planned = self.plan.as_ref().and_then(|p| p.get(&chunk));
        planned.filter(|u| u.reads_left > 0).map_or(NEVER, |u| u.group)
    }

    /// The eviction victim: the resident chunk read farthest in the
    /// future, oldest install first among equals.
    fn victim(&self) -> Option<(ChunkId, u32)> {
        let mut best: Option<(ChunkId, u32)> = None;
        for &chunk in &self.evict_queue {
            let next = self.next_use(chunk);
            if best.is_none_or(|(_, farthest)| next > farthest) {
                best = Some((chunk, next));
            }
            if next == NEVER {
                break;
            }
        }
        best
    }

    /// Drop `chunk`'s residency, retiring its eviction-queue slot and
    /// byte accounting. False when it was not resident.
    fn remove(&mut self, chunk: ChunkId) -> bool {
        let Some(view) = self.chunks.remove(&chunk) else { return false };
        self.resident_bytes -= view.chunk_len() as u64;
        if let Some(pos) = self.evict_queue.iter().position(|&c| c == chunk) {
            self.evict_queue.remove(pos);
        }
        true
    }

    /// Count `reads` planned reads of `chunk`. True when they were the
    /// last the plan had for it — the moment the node gives it up.
    fn note_reads(&mut self, chunk: ChunkId, reads: u32) -> bool {
        let Some(planned) = self.plan.as_mut().and_then(|p| p.get_mut(&chunk)) else {
            return false;
        };
        let before = planned.reads_left;
        planned.reads_left = before.saturating_sub(reads);
        before > 0 && planned.reads_left == 0
    }
}

#[derive(Debug)]
struct NodeState {
    down: AtomicBool,
    inner: Mutex<NodeInner>,
    /// Notified whenever a flight on this node ends, however it ends,
    /// and when the node is killed.
    landed: Condvar,
}

impl Default for NodeState {
    fn default() -> Self {
        NodeState {
            down: AtomicBool::new(false),
            inner: Mutex::named("cache.node", NodeInner::default()),
            landed: Condvar::new(),
        }
    }
}

/// A registered flight: the one store read of `chunk` for node `dest`.
/// Dropping it — landed, failed, or unwinding — retires the entry and
/// wakes every reader parked on it, so no exit path leaves one behind.
struct Flight<'a> {
    dest: &'a NodeState,
    chunk: ChunkId,
}

impl Drop for Flight<'_> {
    fn drop(&mut self) {
        self.dest.inner.lock().flights.remove(&self.chunk);
        self.dest.landed.notify_all();
    }
}

/// A chunk load the lookahead has not started yet.
#[derive(Debug, Clone, Copy)]
struct PlannedLoad {
    node: usize,
    chunk: ChunkId,
    group: u32,
    bytes: u64,
}

/// What the admission rule says of one planned load right now.
enum Admission {
    /// Room was made and the flight is registered.
    Admitted,
    /// Its owner has no room that the plan allows it to take, yet.
    Full,
    /// Nothing left to fly: resident, in flight, or no longer planned.
    Moot,
}

/// The cache-wide half of the installed epoch plan: what the lookahead
/// has left to load and how many loads it has running. The per-chunk
/// half lives on the nodes ([`NodeInner::plan`]).
struct Lookahead<S> {
    /// Bumped by every install and clear, so a [`PlanGuard`] that
    /// outlived its plan clears nothing.
    generation: u64,
    /// The cache itself, for handing to a pool worker.
    cache: Weak<TaskCache<S>>,
    /// Loads not started yet, in plan order — only those owned by nodes
    /// that carry a plan, and none at all on an inline pool.
    queue: VecDeque<PlannedLoad>,
    /// Nodes carrying a plan: once each has been seen full, a scan of
    /// `queue` can stop.
    plan_nodes: usize,
    /// Lookahead workers allowed at once: the most chunks any one group
    /// of the plan places on nodes that carry it.
    width: usize,
    /// Lookahead workers alive; each flies one load at a time.
    running: usize,
}

/// The distributed cache of one DLT task.
pub struct TaskCache<S> {
    topology: Topology,
    /// Which node owns each chunk, fixed at construction.
    partition: ChunkPartition,
    /// One state per node, indexed by node id: `0..topology.node_count()`.
    nodes: Vec<NodeState>,
    /// The installed epoch plan's load queue ([`TaskCache::follow_plan`]).
    lookahead: Mutex<Lookahead<S>>,
    /// Notified when the last lookahead worker exits; clearing a plan
    /// waits on it.
    lookahead_idle: Condvar,
    backing: Arc<S>,
    dataset: String,
    config: CacheConfig,
    verify_on_load: AtomicBool,
    registry: Arc<Registry>,
    metrics: CacheMetrics,
    pool: WorkPool,
}

impl<S: ObjectStore + 'static> TaskCache<S> {
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
        Ok(TaskCache {
            topology,
            partition,
            nodes: (0..p).map(|_| NodeState::default()).collect(),
            lookahead: Mutex::named(
                "cache.lookahead",
                Lookahead {
                    generation: 0,
                    cache: Weak::new(),
                    queue: VecDeque::new(),
                    plan_nodes: 0,
                    width: 0,
                    running: 0,
                },
            ),
            lookahead_idle: Condvar::new(),
            backing,
            dataset,
            config,
            verify_on_load: AtomicBool::new(false),
            registry,
            metrics,
            pool: diesel_exec::global().clone(),
        })
    }

    /// Run this cache's prefetch/recovery sweeps and its plan
    /// lookahead on `pool` instead of the process-wide
    /// [`diesel_exec::global()`] pool (e.g. an inline pool for
    /// deterministic tests — an inline pool runs no lookahead).
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

    /// The construction-time configuration, byte budget included.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Evict from `inner` until at most `limit` bytes stay resident —
    /// the chunk read farthest in the future first, which is install
    /// order on a node without a plan.
    fn evict_down_to(&self, inner: &mut NodeInner, limit: u64) {
        while inner.resident_bytes > limit {
            let Some((victim, _)) = inner.victim() else { break };
            self.evict(inner, victim);
        }
    }

    /// Give up one resident chunk and count the eviction. False when
    /// it was not resident.
    fn evict(&self, inner: &mut NodeInner, chunk: ChunkId) -> bool {
        let resident = inner.remove(chunk);
        if resident {
            self.metrics.evictions.inc();
        }
        resident
    }

    /// Oneshot prefetch: fan chunk loads across the work pool, every
    /// node's partition at once (call right after task registration;
    /// §4.2). The report — and the first error, if any — is identical
    /// to the serial node-by-node, chunk-by-chunk sweep for any worker
    /// count; concurrent on-demand readers share the sweep's flights
    /// chunk-wise.
    pub fn prefetch_all(&self) -> Result<LoadReport> {
        let nodes = 0..self.nodes.len();
        // Fail fast on downed nodes, like the serial sweep did at the
        // start of each node's partition.
        if let Some(node) = nodes.clone().find(|&node| self.is_node_down(node)) {
            return Err(CacheError::NodeDown { node });
        }
        let pairs: Vec<(usize, ChunkId)> = nodes
            .flat_map(|node| self.partition.chunks_of(node).iter().map(move |&c| (node, c)))
            .collect();
        self.load_sweep(pairs)
    }

    /// Fill every `(node, chunk)` pair across the pool and fold what was
    /// made resident into one report (the shape shared by prefetch and
    /// recovery).
    fn load_sweep(&self, pairs: Vec<(usize, ChunkId)>) -> Result<LoadReport> {
        let fills = self.pool.try_map(pairs, |_, (node, chunk)| {
            self.fill_chunk(node, chunk, 0, |_| ()).map(|((), bytes)| bytes)
        })?;
        let mut report = LoadReport::default();
        for bytes in fills.into_iter().filter(|&b| b > 0) {
            report.chunks_loaded += 1;
            report.bytes_loaded += bytes;
        }
        Ok(report)
    }

    /// Fraction of the dataset's chunks currently resident (the "cache
    /// hit ratio" axis of Figs. 6/11b).
    pub fn resident_fraction(&self) -> f64 {
        let total = self.partition.chunk_count();
        if total == 0 {
            return 1.0;
        }
        let resident: usize = self.nodes.iter().map(|n| n.inner.lock().chunks.len()).sum();
        resident as f64 / total as f64
    }

    /// The node state for `node`, or a `NodeDown` error when the task
    /// has no such node.
    fn node_state(&self, node: usize) -> Result<&NodeState> {
        self.nodes.get(node).ok_or(CacheError::NodeDown { node })
    }

    /// Bytes resident on one node (0 for a node the task does not have).
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
            {
                // Flights stay registered: each is retired by the load
                // that owns it. Their parked readers wake now and find
                // the node down.
                let mut inner = st.inner.lock();
                let flights = std::mem::take(&mut inner.flights);
                *inner = NodeInner { flights, ..NodeInner::default() };
            }
            st.landed.notify_all();
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
        Ok(report)
    }

    /// Reload one node's partition, chunk loads fanned across the pool
    /// (the Fig. 11b chunk-wise recovery sweep).
    fn load_partition(&self, node: usize) -> Result<LoadReport> {
        if self.is_node_down(node) {
            return Err(CacheError::NodeDown { node });
        }
        let pairs = self.partition.chunks_of(node).iter().map(|&c| (node, c)).collect();
        self.load_sweep(pairs)
    }

    /// Read a whole file through the cache.
    pub fn get_file(&self, meta: &FileMeta) -> Result<Fetched> {
        let (data, owner_node, chunk_hit) =
            self.read_chunk(meta.chunk, 1, |view| slice_file(view, meta))?;
        Ok(Fetched { data: data?, owner_node, chunk_hit })
    }

    /// Read a batch of files through the cache, chunk by chunk in order
    /// of first appearance (as the server's `plan_chunk_reads` groups a
    /// merged batch — Fig. 2). All of a chunk's files are cut from one
    /// view of it, so however tight the node budget, a batch loads a
    /// chunk at most once. Results are per file, in request order.
    pub fn get_files(&self, metas: &[FileMeta]) -> Vec<Result<Bytes>> {
        let mut rank: HashMap<ChunkId, usize> = HashMap::new();
        let mut order: Vec<(usize, usize, &FileMeta)> = Vec::with_capacity(metas.len());
        for (at, meta) in metas.iter().enumerate() {
            let next = rank.len();
            order.push((*rank.entry(meta.chunk).or_insert(next), at, meta));
        }
        order.sort_unstable_by_key(|&(rank, at, _)| (rank, at));
        let mut out: Vec<(usize, Result<Bytes>)> = Vec::with_capacity(metas.len());
        for run in order.chunk_by(|a, b| a.0 == b.0) {
            let Some(&(_, _, first)) = run.first() else { continue };
            let slices = |view: &ChunkView| -> Vec<Result<Bytes>> {
                run.iter().map(|&(_, _, meta)| slice_file(view, meta)).collect()
            };
            let requests = run.iter().map(|&(_, at, _)| at);
            match self.read_chunk(first.chunk, run.len() as u32, slices) {
                Ok((files, _, _)) => out.extend(requests.zip(files)),
                Err(e) => out.extend(requests.map(|at| (at, Err(e.clone())))),
            }
        }
        out.sort_unstable_by_key(|&(at, _)| at);
        out.into_iter().map(|(_, read)| read).collect()
    }

    /// The one read path: serve `reads` files of `chunk` by handing
    /// `serve` one view of it. The owner comes from the partition, which
    /// never changes, so a warm hit takes one lock — its owner's node
    /// lock — and nothing else; on a node that follows a plan it also
    /// counts the reads there, under that same lock.
    /// `trace::active()` only decides whether the `cache.get` span
    /// records — traced and untraced reads run the same code. Returns
    /// what `serve` made, the owner, and whether the chunk was resident.
    fn read_chunk<T>(
        &self,
        chunk: ChunkId,
        reads: u32,
        serve: impl FnOnce(&ChunkView) -> T,
    ) -> Result<(T, usize, bool)> {
        let mut span = if trace::active() {
            let chunk = chunk.encode();
            trace::span("cache.get", &[("chunk", chunk.as_str())])
        } else {
            trace::SpanGuard::default()
        };
        let files = u64::from(reads);
        let Some(owner) = self.partition.owner_of(chunk) else {
            self.metrics.file_reads.add(files);
            span.label("outcome", "unknown_chunk");
            return Err(CacheError::UnknownChunk(chunk.encode()));
        };
        let Some(dest) = self.nodes.get(owner).filter(|d| !d.down.load(Ordering::Acquire)) else {
            self.metrics.file_reads.add(files);
            span.label("outcome", "node_down");
            return Err(CacheError::NodeDown { node: owner });
        };
        // Hit: chunk resident on its owner. The reads and their hits
        // are one batch so a snapshot never sees hits > reads.
        {
            let mut inner = dest.inner.lock();
            if let Some(view) = inner.chunks.get(&chunk) {
                self.registry.batch(|| {
                    self.metrics.file_reads.add(files);
                    self.metrics.chunk_hits.add(files);
                });
                let out = serve(view);
                span.label("outcome", "hit");
                let released = inner.plan.is_some() && self.count_reads(&mut inner, chunk, reads);
                drop(inner);
                if released {
                    self.pump();
                }
                return Ok((out, owner, true));
            }
        }
        // Miss: fill the whole chunk (any policy — Oneshot may have
        // evicted under memory pressure) and serve from the view that
        // filled it.
        self.metrics.file_reads.add(files);
        span.label("outcome", "miss");
        let (out, _) = self.fill_chunk(owner, chunk, reads, serve)?;
        Ok((out, owner, false))
    }

    /// Count `reads` planned reads of `chunk` on a node that follows a
    /// plan. On the last one the node releases the chunk — memory goes
    /// back the moment the plan has no further use for it — which
    /// counts as an eviction. True when room was freed: the caller
    /// pumps the lookahead once its node guard is gone.
    fn count_reads(&self, inner: &mut NodeInner, chunk: ChunkId, reads: u32) -> bool {
        inner.note_reads(chunk, reads) && self.evict(inner, chunk)
    }

    /// Make `chunk` resident on `node` with one read from the backing
    /// store, and hand `serve` the view that did it. `reads` is how many
    /// planned file reads `serve` stands for (0 for the sweeps, which
    /// also never pass a chunk by — see [`TaskCache::land`]).
    ///
    /// **Single flight.** At most one store read per (node, chunk) is
    /// in progress at a time. Whoever finds the chunk neither resident
    /// nor in flight registers the flight and reads; everyone else
    /// parks on the node until that flight ends, then looks again — at
    /// the chunk if it landed, at the store themselves if the flight
    /// failed. A reader is served from the view it filled or found, so
    /// nothing that happens to residency afterwards can lose it the
    /// chunk.
    ///
    /// Returns what `serve` made and the bytes this call made resident:
    /// 0 when the chunk was already there, or was served but not kept.
    fn fill_chunk<T>(
        &self,
        node: usize,
        chunk: ChunkId,
        reads: u32,
        serve: impl FnOnce(&ChunkView) -> T,
    ) -> Result<(T, u64)> {
        let dest = self.node_state(node)?;
        let mut inner = dest.inner.lock();
        while inner.flights.contains_key(&chunk) && !inner.chunks.contains_key(&chunk) {
            if dest.down.load(Ordering::Acquire) {
                return Err(CacheError::NodeDown { node });
            }
            inner = dest.landed.wait(inner);
        }
        if let Some(view) = inner.chunks.get(&chunk) {
            let out = serve(view);
            let freed = self.count_reads(&mut inner, chunk, reads);
            drop(inner);
            if freed {
                self.pump();
            }
            return Ok((out, 0));
        }
        let planned = inner.plan.as_ref().and_then(|p| p.get(&chunk));
        let expected = planned.map_or(0, |u| u.bytes);
        inner.flights.insert(chunk, expected);
        drop(inner);
        self.load_from_store(Flight { dest, chunk }, reads, reads > 0, serve)
    }

    /// Fly `flight`: read its chunk from the backing store, hand the
    /// parsed view to `serve`, and land it on the flight's node. The
    /// flight ends when this returns, whichever way. Returns what
    /// `serve` made and the bytes made resident (0 when the chunk was
    /// served but not kept).
    fn load_from_store<T>(
        &self,
        flight: Flight<'_>,
        reads: u32,
        may_pass: bool,
        serve: impl FnOnce(&ChunkView) -> T,
    ) -> Result<(T, u64)> {
        let chunk = flight.chunk;
        let key = chunk_object_key(&self.dataset, chunk);
        // The fetch from the backing store is its own child span — under
        // a sampled ambient trace only: a load the lookahead flies for
        // no request in particular must not mint a root of its own.
        let bytes = {
            let _span = if trace::active() && trace::current_context().is_some() {
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
        // A load and its bytes are one batch: a snapshot never shows a
        // chunk counted without its bytes. Counted per store read, not
        // per install — with one flight per chunk the two only differ
        // for a chunk that is served and not kept.
        let size = view.chunk_len() as u64;
        self.registry.batch(|| {
            self.metrics.chunk_loads.inc();
            self.metrics.bytes_loaded.add(size);
        });
        let out = serve(&view);
        let landed = {
            let mut inner = flight.dest.inner.lock();
            // Reads that are the plan's last for the chunk leave nothing
            // worth keeping.
            if inner.note_reads(chunk, reads) {
                0
            } else {
                self.land(&mut inner, chunk, view, may_pass)
            }
        };
        // The node guard is gone; ending the flight takes it again.
        drop(flight);
        Ok((out, landed))
    }

    /// Make `view` resident on its node under the node byte budget,
    /// evicting in eviction order. With `may_pass`, a
    /// planned chunk never displaces one the plan reads no later than
    /// itself: it has been served to whoever loaded it and is not
    /// kept. So the lookahead never evicts what is needed sooner, and
    /// a node whose share of one group overflows its budget reloads
    /// the overflow once per batch instead of thrashing the group.
    /// Returns the bytes installed: 0 when the chunk was already there
    /// or was passed by.
    fn land(&self, inner: &mut NodeInner, chunk: ChunkId, view: ChunkView, may_pass: bool) -> u64 {
        if inner.chunks.contains_key(&chunk) {
            return 0;
        }
        let size = view.chunk_len() as u64;
        let capacity = self.config.capacity_bytes_per_node;
        let incoming = inner.next_use(chunk);
        while inner.resident_bytes.saturating_add(size) > capacity {
            let Some((victim, next)) = inner.victim() else { break };
            if may_pass && incoming != NEVER && next <= incoming {
                return 0;
            }
            self.evict(inner, victim);
        }
        inner.chunks.insert(chunk, view);
        inner.evict_queue.push_back(chunk);
        inner.resident_bytes += size;
        size
    }

    /// Make `plan` — this epoch's chunks in order of first read — the
    /// cache's fill and eviction order on every node whose share of it
    /// exceeds the node's byte budget (the streaming regime of
    /// §4.3), until the returned guard drops or another plan replaces
    /// it. On such a node:
    ///
    /// * eviction takes the chunk whose next planned read is farthest
    ///   away (Belady over the plan; finished and unplanned chunks
    ///   count as never);
    /// * a chunk is released on its last planned read;
    /// * loads run ahead of the readers in plan order, each admitted on
    ///   its owner only into free room or by evicting chunks read later
    ///   than itself. As many run at once as the plan's widest group
    ///   has chunks on such nodes — a group's first batch reads all of
    ///   them, so all of them must have landed by the group boundary —
    ///   or as many as the byte budget admits, whichever is smaller.
    ///   They run on the pool's blocking lane
    ///   ([`WorkPool::spawn_blocking`]), so a load waiting on the store
    ///   holds no CPU worker. A load is submitted when it becomes
    ///   admissible (here, on a release, when a lookahead load ends);
    ///   nothing parks a thread waiting for room, and an inline pool
    ///   runs no lookahead at all. An on-demand miss never waits for
    ///   admission.
    ///
    /// A node whose share fits — the paper's fully-cached mode — is
    /// left alone: it evicts nothing, counts nothing and runs no
    /// lookahead. The plan is advice: reads that depart from it are
    /// served all the same.
    pub fn follow_plan(self: &Arc<Self>, plan: &[PlannedChunk]) -> PlanGuard<S> {
        let capacity = self.config.capacity_bytes_per_node;
        // What each chunk will weigh once resident: the store knows (a
        // metadata lookup, not a read), the shuffle plan does not.
        let stored = |chunk| self.backing.size_of(&chunk_object_key(&self.dataset, chunk));
        let sizes: Vec<u64> =
            plan.iter().map(|p| stored(p.chunk).map_or(0, |n| n as u64)).collect();
        let generation = {
            // The previous plan goes, and its lookahead is joined, first.
            let mut la = self.retire_plan(self.lookahead.lock());
            let mut shares: HashMap<usize, (u64, HashMap<ChunkId, PlannedUse>)> = HashMap::new();
            let mut loads: VecDeque<PlannedLoad> = VecDeque::with_capacity(plan.len());
            for (p, &bytes) in plan.iter().zip(&sizes) {
                let Some(node) = self.partition.owner_of(p.chunk) else { continue };
                let (share, uses) = shares.entry(node).or_default();
                *share = share.saturating_add(bytes);
                uses.insert(p.chunk, PlannedUse { group: p.group, reads_left: p.reads, bytes });
                loads.push_back(PlannedLoad { node, chunk: p.chunk, group: p.group, bytes });
            }
            shares.retain(|_, (share, _)| *share > capacity);
            if self.pool.workers() > 1 {
                loads.retain(|load| shares.contains_key(&load.node));
                let mut per_group: HashMap<u32, usize> = HashMap::new();
                for load in &loads {
                    *per_group.entry(load.group).or_default() += 1;
                }
                la.width = per_group.into_values().max().unwrap_or(0);
                la.queue = loads;
            }
            for (node, (_, uses)) in shares {
                if let Some(st) = self.nodes.get(node) {
                    st.inner.lock().plan = Some(uses);
                    la.plan_nodes += 1;
                }
            }
            la.cache = Arc::downgrade(self);
            la.generation
        };
        self.pump();
        PlanGuard { cache: Arc::clone(self), generation }
    }

    /// Start lookahead workers on the pool's blocking lane while the
    /// plan's width has room and some planned load is admissible.
    fn pump(&self) {
        loop {
            let (cache, load) = {
                let mut la = self.lookahead.lock();
                if la.running >= la.width {
                    return;
                }
                let Some(cache) = la.cache.upgrade() else { return };
                let Some(load) = self.next_load(&mut la) else { return };
                la.running += 1;
                (cache, load)
            };
            self.pool.spawn_blocking(move || cache.run_lookahead(load));
        }
    }

    /// One lookahead worker: fly `first`, then whatever is admissible
    /// next, and exit — rather than wait — when nothing is. Each load
    /// comes from [`TaskCache::next_load`] with its flight registered;
    /// the worker owns that flight from here on.
    fn run_lookahead(&self, first: PlannedLoad) {
        let mut next = Some(first);
        while let Some(load) = next {
            // A failed (or panicking) load is dropped whole — never
            // cached, never converted: the demand read re-reads the
            // store and fails in its own name.
            if let Some(dest) = self.nodes.get(load.node) {
                let flight = Flight { dest, chunk: load.chunk };
                let _ = catch_unwind(AssertUnwindSafe(|| {
                    self.load_from_store(flight, 0, true, |_| ()).is_ok()
                }));
            }
            let mut la = self.lookahead.lock();
            next = self.next_load(&mut la);
            if next.is_none() {
                la.running -= 1;
                self.lookahead_idle.notify_all();
            }
        }
    }

    /// Register a flight for the earliest queued load that is
    /// admissible right now, and take it off the queue: the caller owns
    /// that flight. A node found full is skipped for the rest of the
    /// scan — its later loads are no easier to admit — and loads that
    /// no longer need flying (resident, in flight, read out, owner
    /// down) are dropped on the way.
    fn next_load(&self, la: &mut Lookahead<S>) -> Option<PlannedLoad> {
        let capacity = self.config.capacity_bytes_per_node;
        let mut full: Vec<usize> = Vec::new();
        let mut at = 0;
        while let Some(&load) = la.queue.get(at) {
            if full.contains(&load.node) {
                at += 1;
                continue;
            }
            let dest = self.nodes.get(load.node).filter(|d| !d.down.load(Ordering::Acquire));
            let Some(dest) = dest else {
                la.queue.remove(at);
                continue;
            };
            match self.admit(&mut dest.inner.lock(), load, capacity) {
                Admission::Admitted => {
                    la.queue.remove(at);
                    return Some(load);
                }
                Admission::Full => {
                    full.push(load.node);
                    if full.len() >= la.plan_nodes {
                        break;
                    }
                    at += 1;
                }
                Admission::Moot => {
                    la.queue.remove(at);
                }
            }
        }
        None
    }

    /// The admission rule: a planned load goes ahead on its owner only
    /// into free room — counting what flights already in progress will
    /// land — or by evicting chunks the plan reads *later* than it. On
    /// [`Admission::Admitted`] the room has been made and the flight is
    /// registered.
    fn admit(&self, inner: &mut NodeInner, load: PlannedLoad, capacity: u64) -> Admission {
        if inner.next_use(load.chunk) == NEVER
            || inner.chunks.contains_key(&load.chunk)
            || inner.flights.contains_key(&load.chunk)
        {
            return Admission::Moot;
        }
        let landing: u64 = inner.flights.values().sum::<u64>().saturating_add(load.bytes);
        let later: u64 = inner
            .chunks
            .iter()
            .filter(|(&resident, _)| inner.next_use(resident) > load.group)
            .map(|(_, view)| view.chunk_len() as u64)
            .sum();
        if inner.resident_bytes.saturating_sub(later).saturating_add(landing) > capacity {
            return Admission::Full;
        }
        // Farthest first, so every victim is one of the `later` chunks.
        self.evict_down_to(inner, capacity.saturating_sub(landing));
        inner.flights.insert(load.chunk, load.bytes);
        Admission::Admitted
    }
}

fn slice_file(view: &ChunkView, meta: &FileMeta) -> Result<Bytes> {
    view.slice_payload(meta.offset, meta.length).map_err(|e| CacheError::Corrupt(e.to_string()))
}

/// Keeps an epoch plan installed ([`TaskCache::follow_plan`]).
/// Dropping it retires the plan — unless a newer one already replaced
/// it — and returns once no lookahead load is in flight, which is at
/// most one store read away.
pub struct PlanGuard<S> {
    cache: Arc<TaskCache<S>>,
    generation: u64,
}

impl<S> Drop for PlanGuard<S> {
    fn drop(&mut self) {
        let la = self.cache.lookahead.lock();
        if la.generation == self.generation {
            drop(self.cache.retire_plan(la));
        }
    }
}

impl<S> std::fmt::Debug for PlanGuard<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanGuard").field("generation", &self.generation).finish_non_exhaustive()
    }
}

impl<S> TaskCache<S> {
    /// Retire the installed plan: empty the load queue, take the plan
    /// off every node, and wait out the lookahead loads in flight (the
    /// queue is empty, so each worker exits after its current load).
    fn retire_plan<'a>(
        &'a self,
        mut la: MutexGuard<'a, Lookahead<S>>,
    ) -> MutexGuard<'a, Lookahead<S>> {
        la.generation += 1;
        la.queue.clear();
        la.plan_nodes = 0;
        la.width = 0;
        la.cache = Weak::new();
        for st in &self.nodes {
            st.inner.lock().plan = None;
        }
        while la.running > 0 {
            la = self.lookahead_idle.wait(la);
        }
        la
    }

    /// Counter handles (cheap reads of individual metrics).
    pub fn metrics(&self) -> &CacheMetrics {
        &self.metrics
    }

    /// The registry holding this cache's counters.
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
        f.debug_struct("TaskCache")
            .field("dataset", &self.dataset)
            .field("nodes", &self.nodes.len())
            .field("chunks", &self.partition.chunk_count())
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
    use std::sync::atomic::AtomicU64;

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

    fn cache<S: ObjectStore + 'static>(
        store: Arc<S>,
        chunks: Vec<ChunkId>,
        nodes: usize,
        cap: u64,
        policy: CachePolicy,
    ) -> TaskCache<S> {
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
            let i: usize = name.strip_prefix('f').unwrap().parse().unwrap();
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
        assert_eq!(report.chunks_loaded as usize, c.partition.chunks_of(1).len());
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
        let (mem, metas, chunks) = dataset(32, 256, 1 << 20);
        assert_eq!(chunks.len(), 1, "one big chunk expected");
        let store = Arc::new(TestStore::new(mem));
        store.set_gate(false);
        let c = Arc::new(cache(store.clone(), chunks, 1, 1 << 30, CachePolicy::OnDemand));
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
        // Every reader has missed, and the store answers none of them
        // yet: whoever is going to read it is at the gate by now.
        until(|| c.metrics().file_reads() == 8);
        store.set_gate(true);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.gets(), 1, "eight racing readers, one store read");
        assert_eq!(c.metrics().chunk_loads(), 1, "chunk must be loaded exactly once");
        assert_eq!(c.metrics().file_reads(), 8 * 32);
    }

    #[test]
    fn snapshot_batches_loads_with_bytes_and_counts_recovery() {
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
    fn traced_and_untraced_reads_are_the_same_reads() {
        type Outcome = Result<(Bytes, usize, bool)>;
        /// One access sequence over a fresh cache — miss-then-fill, hit,
        /// unknown chunk, killed owner, then a full pass after that
        /// owner's recovery — with or without an ambient tracer.
        /// Returns every outcome, the counter totals, and how many
        /// `cache.get` spans the run recorded.
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

            let owner = |m: &FileMeta| c.partition.owner_of(m.chunk);
            let (_, other) = metas
                .iter()
                .find(|(_, m)| owner(m) != owner(meta))
                .expect("four nodes share the chunks");
            let killed = owner(other).unwrap();
            c.kill_node(killed);
            rec(c.get_file(other)); // killed owner
            c.recover_node(killed).unwrap();
            for (_, m) in &metas {
                let got = c.get_file(m);
                assert_eq!(got.as_ref().map(|f| f.owner_node).ok(), owner(m));
                rec(got);
            }
            let m = c.metrics();
            let counters = [m.file_reads(), m.chunk_hits(), m.chunk_loads(), m.recoveries()];
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

    /// A `MemObjectStore` the test drives: it counts whole-object reads,
    /// can hold every read at a gate until the test opens it, and can be
    /// switched to fail — the deterministic stand-in for a slow store
    /// and for a transient outage.
    struct TestStore {
        inner: Arc<MemObjectStore>,
        fail: AtomicBool,
        gets: AtomicU64,
        reader_threads: Mutex<Vec<String>>,
        gate_open: Mutex<bool>,
        gate_moved: Condvar,
    }

    impl TestStore {
        fn new(inner: Arc<MemObjectStore>) -> Self {
            TestStore {
                inner,
                fail: AtomicBool::new(false),
                gets: AtomicU64::new(0),
                reader_threads: Mutex::new(Vec::new()),
                gate_open: Mutex::new(true),
                gate_moved: Condvar::new(),
            }
        }

        fn set_fail(&self, on: bool) {
            self.fail.store(on, Ordering::Release);
        }

        fn set_gate(&self, open: bool) {
            *self.gate_open.lock() = open;
            self.gate_moved.notify_all();
        }

        /// Reads that have reached the store, held at the gate or not.
        fn gets(&self) -> u64 {
            self.gets.load(Ordering::Acquire)
        }
    }

    impl diesel_store::ObjectStore for TestStore {
        fn put(&self, key: &str, value: Bytes) -> diesel_store::Result<()> {
            self.inner.put(key, value)
        }
        fn get(&self, key: &str) -> diesel_store::Result<Bytes> {
            self.reader_threads.lock().push(std::thread::current().name().unwrap_or("").into());
            self.gets.fetch_add(1, Ordering::AcqRel);
            let mut open = self.gate_open.lock();
            while !*open {
                open = self.gate_moved.wait(open);
            }
            drop(open);
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

    /// Spin (yielding, never sleeping) until `reached` holds: tests wait
    /// for a state the code under test is bound to reach, not for time.
    fn until(reached: impl Fn() -> bool) {
        while !reached() {
            std::thread::yield_now();
        }
    }

    /// The only node of a one-node cache.
    fn only_node<S: ObjectStore + 'static>(c: &TaskCache<S>) -> &NodeState {
        c.node_state(0).unwrap()
    }

    /// `chunks` as an epoch plan: `group_size` chunks per group, in
    /// order, every file of a chunk read once.
    fn plan_of(
        chunks: &[ChunkId],
        metas: &[(String, FileMeta)],
        group_size: usize,
    ) -> Vec<PlannedChunk> {
        chunks
            .iter()
            .enumerate()
            .map(|(i, &chunk)| {
                let reads = metas.iter().filter(|(_, m)| m.chunk == chunk).count() as u32;
                PlannedChunk { chunk, group: (i / group_size) as u32, reads }
            })
            .collect()
    }

    /// Read every file of `chunk` once.
    fn read_all<S: ObjectStore + 'static>(
        c: &TaskCache<S>,
        metas: &[(String, FileMeta)],
        chunk: ChunkId,
    ) {
        for (_, meta) in metas.iter().filter(|(_, m)| m.chunk == chunk) {
            c.get_file(meta).unwrap();
        }
    }

    /// A byte budget that holds `n` of the dataset's chunks and not one
    /// more.
    fn budget_for(store: &MemObjectStore, chunks: &[ChunkId], n: u64) -> u64 {
        let sizes = chunks.iter().map(|&c| store.size_of(&chunk_object_key("ds", c)).unwrap());
        let (min, max) = sizes.fold((usize::MAX, 0), |(lo, hi), s| (lo.min(s), hi.max(s)));
        assert!((n + 1) * min as u64 > n * max as u64, "chunk sizes too uneven for the test");
        n * max as u64
    }

    #[test]
    fn a_failed_flight_wakes_its_waiters_to_fail_in_their_own_name() {
        let (mem, metas, chunks) = dataset(8, 256, 1 << 20);
        let store = Arc::new(TestStore::new(mem));
        store.set_fail(true);
        store.set_gate(false);
        let c = Arc::new(cache(store.clone(), chunks, 1, 1 << 30, CachePolicy::OnDemand));
        let meta = metas[0].1;
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || c.get_file(&meta).map(|f| f.data))
            })
            .collect();
        // All three have missed; one holds the flight, at the gate.
        until(|| c.metrics().file_reads() == 3);
        assert_eq!(store.gets(), 1);
        store.set_gate(true);
        for r in readers {
            let got = r.join().unwrap();
            assert!(matches!(got, Err(CacheError::Backing(_))), "{got:?}");
        }
        // The failure was neither shared nor cached: each waiter woke,
        // read the store itself and reports what *it* saw.
        assert_eq!(store.gets(), 3);
        assert_eq!(c.metrics().chunk_loads(), 0);
        assert!(only_node(&c).inner.lock().flights.is_empty());
        store.set_fail(false);
        assert_eq!(c.get_file(&meta).unwrap().data.len(), 256);
    }

    #[test]
    fn killing_a_node_mid_flight_frees_the_waiter_and_the_entry() {
        let (mem, metas, chunks) = dataset(8, 256, 1 << 20);
        let store = Arc::new(TestStore::new(mem));
        store.set_gate(false);
        let c = Arc::new(cache(store.clone(), chunks, 1, 1 << 30, CachePolicy::OnDemand));
        let meta = metas[0].1;
        let read = |c: &Arc<TaskCache<TestStore>>| {
            let c = c.clone();
            std::thread::spawn(move || c.get_file(&meta).map(|f| f.data.len()))
        };
        let flyer = read(&c);
        until(|| store.gets() == 1);
        let waiter = read(&c);
        until(|| c.metrics().file_reads() == 2);
        c.kill_node(0);
        // The gate is still shut: the waiter comes back on the kill, not
        // on the flight.
        assert_eq!(waiter.join().unwrap(), Err(CacheError::NodeDown { node: 0 }));
        store.set_gate(true);
        assert_eq!(flyer.join().unwrap(), Ok(256), "the flyer is served from what it loaded");
        assert!(only_node(&c).inner.lock().flights.is_empty(), "the flight retired itself");
        assert_eq!(store.gets(), 1);
    }

    #[test]
    fn a_read_never_loses_the_chunk_it_just_filled() {
        // One node that holds one chunk, two threads alternating the
        // node's two chunks in opposite phase: every install evicts the
        // chunk the other thread just filled. A read is served from the
        // view it filled (or found), so it never sees that.
        let (store, metas, chunks) = dataset(2, 256, 256);
        assert_eq!(chunks.len(), 2);
        let cap = budget_for(&store, &chunks, 1);
        let c = Arc::new(cache(store, chunks, 1, cap, CachePolicy::OnDemand));
        let start = Arc::new(std::sync::Barrier::new(2));
        let threads: Vec<_> = (0..2usize)
            .map(|t| {
                let (c, start) = (c.clone(), start.clone());
                let pair = [metas[0].1, metas[1].1];
                std::thread::spawn(move || {
                    start.wait();
                    for i in 0..4_000usize {
                        let got = c.get_file(&pair[(i + t) % 2]);
                        assert_eq!(got.map(|f| f.data.len()), Ok(256), "read {i} of thread {t}");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(c.node_resident_bytes(0) <= cap);
    }

    #[test]
    fn a_plan_that_fits_is_installed_on_no_node() {
        let (store, metas, chunks) = dataset(60, 200, 2048);
        let pool = WorkPool::new("fits", diesel_exec::ExecConfig::workers(2));
        let c = Arc::new(
            cache(store, chunks.clone(), 3, 1 << 30, CachePolicy::Oneshot).with_pool(pool),
        );
        c.prefetch_all().unwrap();
        let loads = c.metrics().chunk_loads();
        for _epoch in 0..3 {
            let _following = c.follow_plan(&plan_of(&chunks, &metas, 2));
            for node in 0..3 {
                assert!(c.node_state(node).unwrap().inner.lock().plan.is_none());
            }
            assert!(c.lookahead.lock().queue.is_empty(), "nothing to look ahead for");
            for (_, meta) in &metas {
                assert!(c.get_file(meta).unwrap().chunk_hit);
            }
        }
        // The paper's fully-cached mode: nothing counted, nothing
        // released, nothing re-read.
        assert_eq!(c.metrics().chunk_loads(), loads);
        assert_eq!(c.metrics().evictions(), 0);
        assert!((c.resident_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn planned_eviction_takes_the_farthest_next_use_and_never_a_sooner_one() {
        // An inline pool runs no lookahead, so residency here is the
        // demand reads' doing alone.
        let (store, metas, chunks) = dataset(18, 512, 2048);
        let cap = budget_for(&store, &chunks, 2);
        let c = Arc::new(
            cache(store, chunks.clone(), 1, cap, CachePolicy::OnDemand)
                .with_pool(WorkPool::inline("belady")),
        );
        let [a, b, far, farther] = [chunks[0], chunks[1], chunks[2], chunks[3]];
        let plan: Vec<PlannedChunk> = plan_of(&chunks, &metas, 1)
            .into_iter()
            .map(|p| PlannedChunk { group: if p.chunk == b { 0 } else { p.group }, ..p })
            .collect();
        // a and b are read in group 0, `far` in 2, `farther` in 3.
        let _following = c.follow_plan(&plan);
        assert!(c.lookahead.lock().queue.is_empty(), "an inline pool looks ahead for nothing");
        let first_of = |chunk| metas.iter().find(|(_, m)| m.chunk == chunk).unwrap().1;
        let resident = || {
            let mut ids: Vec<ChunkId> = only_node(&c).inner.lock().chunks.keys().copied().collect();
            ids.sort();
            ids
        };
        let sorted = |mut ids: Vec<ChunkId>| {
            ids.sort();
            ids
        };
        c.get_file(&first_of(far)).unwrap();
        c.get_file(&first_of(farther)).unwrap();
        assert_eq!(resident(), sorted(vec![far, farther]));
        // Not install order (`far` is the older install): the farthest
        // next use goes first.
        c.get_file(&first_of(a)).unwrap();
        assert_eq!(resident(), sorted(vec![a, far]));
        c.get_file(&first_of(b)).unwrap();
        assert_eq!(resident(), sorted(vec![a, b]));
        // Both residents are read no later than `far`: it is served and
        // passed by, not kept.
        let loads = c.metrics().chunk_loads();
        assert!(!c.get_file(&first_of(far)).unwrap().chunk_hit);
        assert_eq!(resident(), sorted(vec![a, b]));
        assert_eq!(c.metrics().chunk_loads(), loads + 1);
        // The last planned read of a chunk releases it.
        let evictions = c.metrics().evictions();
        for (_, meta) in metas.iter().filter(|(_, m)| m.chunk == a).skip(1) {
            assert!(c.get_file(meta).unwrap().chunk_hit);
        }
        assert_eq!(resident(), vec![b]);
        assert_eq!(c.metrics().evictions(), evictions + 1);
    }

    #[test]
    fn the_lookahead_fills_the_budget_in_plan_order_and_never_past_a_sooner_read() {
        let (mem, metas, chunks) = dataset(18, 512, 2048);
        let cap = budget_for(&mem, &chunks, 4);
        let store = Arc::new(TestStore::new(mem));
        let pool = WorkPool::new("ahead", diesel_exec::ExecConfig::workers(2));
        let c = Arc::new(
            cache(store.clone(), chunks.clone(), 1, cap, CachePolicy::OnDemand).with_pool(pool),
        );
        let (group, next) = (&chunks[..4], chunks[4]);
        // Groups of four: the first group is read first, `next` after it.
        let _following = c.follow_plan(&plan_of(&chunks, &metas, 4));
        let idle = || c.lookahead.lock().running == 0;
        let resident = |chunk| only_node(&c).inner.lock().chunks.contains_key(&chunk);
        // Four loads fill the budget; `next` is admissible only by
        // evicting a chunk read sooner than itself, so the workers exit.
        until(|| group.iter().all(|&chunk| resident(chunk)) && idle());
        assert_eq!(store.gets(), 4);
        assert_eq!(c.metrics().evictions(), 0);
        assert_eq!(c.lookahead.lock().queue.front().map(|l| l.chunk), Some(next));
        // The first chunk's last planned read releases it, and that
        // admits `next`.
        read_all(&c, &metas, group[0]);
        until(|| resident(next) && idle());
        assert!(group[1..].iter().all(|&chunk| resident(chunk)) && !resident(group[0]));
        assert_eq!(store.gets(), 5, "each chunk read from the store once");
        assert!(c.node_resident_bytes(0) <= cap);
    }

    #[test]
    fn dropping_the_plan_guard_joins_the_lookahead_within_one_store_read() {
        let (mem, metas, chunks) = dataset(63, 512, 2048);
        let cap = budget_for(&mem, &chunks, 2);
        let store = Arc::new(TestStore::new(mem));
        store.set_gate(false);
        let pool = WorkPool::new("drop", diesel_exec::ExecConfig::workers(2));
        let c = Arc::new(
            cache(store.clone(), chunks.clone(), 2, cap, CachePolicy::OnDemand).with_pool(pool),
        );
        // Groups of four make the lookahead four wide, and each node's
        // budget admits two loads: four loads reach the gate.
        let following = c.follow_plan(&plan_of(&chunks, &metas, 4));
        let four = within_10s(|| store.gets() == 4);
        if !four {
            // Let the loads end, so the plan guard can drop.
            store.set_gate(true);
        }
        assert!(four, "{} loads at the gate, not four", store.gets());
        let dropper = std::thread::spawn(move || drop(following));
        // The drop has emptied the queue and waits for the four loads at
        // the gate; nothing further can start.
        until(|| c.lookahead.lock().queue.is_empty());
        store.set_gate(true);
        dropper.join().unwrap();
        assert_eq!(store.gets(), 4, "the drop waited out the loads in flight and no more");
        assert_eq!(c.lookahead.lock().running, 0);
        for node in 0..2 {
            let st = c.node_state(node).unwrap();
            let inner = st.inner.lock();
            assert!(inner.plan.is_none() && inner.flights.is_empty());
            assert!(inner.resident_bytes <= cap);
        }
    }

    /// Yield until `reached` holds or ten seconds have passed; false on
    /// the latter. For a state a regression could keep the code from
    /// ever reaching, where [`until`] would hang.
    fn within_10s(reached: impl Fn() -> bool) -> bool {
        use diesel_util::{Clock, SystemClock};
        let clock = SystemClock::new();
        while !reached() {
            if clock.now_ns() > 10_000_000_000 {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }

    #[test]
    fn a_whole_group_loads_at_once_and_leaves_the_cpu_workers_free() {
        let (mem, metas, chunks) = dataset(36, 512, 2048);
        let cap = budget_for(&mem, &chunks, 4);
        let store = Arc::new(TestStore::new(mem));
        store.set_gate(false);
        let pool = WorkPool::new("group", diesel_exec::ExecConfig::workers(2));
        let c = Arc::new(
            cache(store.clone(), chunks.clone(), 1, cap, CachePolicy::OnDemand).with_pool(pool),
        );
        let following = c.follow_plan(&plan_of(&chunks, &metas, 4));
        // (a) The whole first group is read from the store at once, on
        // a two-worker pool; (b) each load waits on a `group-io-<n>` lane
        // thread, leaving both `group-<n>` CPU workers free.
        let whole_group = within_10s(|| store.gets() == 4);
        let at_gate = store.gets();
        let readers = store.reader_threads.lock().clone();
        let on_the_lane = readers.iter().all(|name| name.starts_with("group-io-"));
        if !(whole_group && on_the_lane) {
            // Let the loads end, so the plan guard can drop.
            store.set_gate(true);
        }
        assert!(whole_group, "{at_gate} loads at the gate, not the group's four");
        assert!(on_the_lane, "a load at the gate holds a CPU worker: {readers:?}");
        assert_eq!(at_gate, 4, "a fifth load started past the budget");
        assert_eq!(readers.len(), 4);
        assert_eq!(c.lookahead.lock().running, 4);
        // (c) Dropping the guard waits for exactly those four loads and
        // starts no other.
        let dropper = std::thread::spawn(move || drop(following));
        until(|| c.lookahead.lock().queue.is_empty());
        assert!(!dropper.is_finished(), "the drop returned with loads at the gate");
        store.set_gate(true);
        dropper.join().unwrap();
        assert_eq!(store.gets(), 4);
        assert_eq!(c.metrics().chunk_loads(), 4);
        assert_eq!(c.lookahead.lock().running, 0);
        let inner = only_node(&c).inner.lock();
        assert!(inner.flights.is_empty() && inner.plan.is_none());
        assert_eq!(inner.chunks.len(), 4, "the four loads landed");
    }
}
