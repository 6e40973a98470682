//! Concurrency determinism: the `diesel-exec` refactor's contract is
//! that worker count is a *performance* knob, never a *behaviour* knob.
//! Every test here runs the same workload at workers = 1 (inline), 2
//! and 8 and demands identical observable results — byte-identical
//! training batches, identical prefetch `LoadReport`s — including under
//! a lingering store and injected storage faults.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use diesel_dlt::cache::{CacheConfig, CachePolicy, LoadReport, TaskCache, Topology};
use diesel_dlt::chunk::{ChunkBuilderConfig, ChunkId};
use diesel_dlt::core::{ClientConfig, DieselClient, DieselServer};
use diesel_dlt::exec::{ExecConfig, WorkPool};
use diesel_dlt::kv::ShardedKv;
use diesel_dlt::store::{Bytes, FaultConfig, FaultyStore, MemObjectStore, ObjectStore};
use diesel_dlt::train::loader::upload_samples;
use diesel_dlt::train::{DataLoader, SyntheticSpec};
use diesel_util::MockClock;

const WORKER_GRID: [usize; 3] = [1, 2, 8];

fn pool(workers: usize) -> WorkPool {
    if workers <= 1 {
        WorkPool::inline("determinism")
    } else {
        WorkPool::new("determinism", ExecConfig::workers(workers))
    }
}

/// A server + loader stack over `store`, with `pool` wired through both
/// the server's request executor and the loader's read pipeline.
fn loader_over<S: ObjectStore + 'static>(
    store: Arc<S>,
    pool: WorkPool,
) -> DataLoader<ShardedKv, S> {
    loader_with(store, pool, 83, 2, 8, 17)
}

/// [`loader_over`] with the dataset size, shuffle group size, batch
/// size and shuffle seed spelled out.
fn loader_with<S: ObjectStore + 'static>(
    store: Arc<S>,
    pool: WorkPool,
    samples: usize,
    group_size: usize,
    batch: usize,
    seed: u64,
) -> DataLoader<ShardedKv, S> {
    let server =
        Arc::new(DieselServer::new(Arc::new(ShardedKv::new()), store).with_pool(pool.clone()));
    let client = DieselClient::connect_with(
        server,
        "synth",
        ClientConfig {
            chunk: ChunkBuilderConfig { target_chunk_size: 4096, ..Default::default() },
        },
    )
    .with_deterministic_identity(1, 1, 100);
    let samples = SyntheticSpec::cifar_like().generate(samples);
    upload_samples(&client, &samples).unwrap();
    client.download_meta().unwrap();
    client.enable_shuffle(diesel_dlt::shuffle::ShuffleKind::ChunkWise { group_size });
    DataLoader::new(Arc::new(client), batch, seed).with_pool(pool).with_prefetch_depth(3)
}

/// Like [`loader_over`], but with a fully prefetched [`TaskCache`]
/// attached to the client — every epoch read below is a cache hit
/// served as a zero-copy `Bytes` view of the resident chunk.
fn cached_loader_over(pool: WorkPool) -> DataLoader<ShardedKv, MemObjectStore> {
    let store = Arc::new(MemObjectStore::new());
    let server =
        Arc::new(DieselServer::new(Arc::new(ShardedKv::new()), store).with_pool(pool.clone()));
    let client = DieselClient::connect_with(
        server.clone(),
        "synth",
        ClientConfig {
            chunk: ChunkBuilderConfig { target_chunk_size: 4096, ..Default::default() },
        },
    )
    .with_deterministic_identity(1, 1, 100);
    let samples = SyntheticSpec::cifar_like().generate(83);
    upload_samples(&client, &samples).unwrap();
    client.download_meta().unwrap();
    client.enable_shuffle(diesel_dlt::shuffle::ShuffleKind::ChunkWise { group_size: 2 });
    let chunks = server.meta().chunk_ids("synth").unwrap();
    let cache = Arc::new(
        TaskCache::new(
            Topology::uniform(1, 1).unwrap(),
            server.store().clone(),
            "synth",
            chunks,
            CacheConfig { capacity_bytes_per_node: 1 << 30, policy: CachePolicy::Oneshot },
        )
        .unwrap()
        .with_pool(pool.clone()),
    );
    cache.prefetch_all().unwrap();
    client.attach_cache(cache);
    DataLoader::new(Arc::new(client), 8, 17).with_pool(pool).with_prefetch_depth(3)
}

/// One epoch's observable output: per-batch `(labels, tensor bits)`.
type Fingerprint = Vec<(Vec<usize>, Vec<u32>)>;

fn epoch_fingerprint<S: ObjectStore + 'static>(
    loader: &DataLoader<ShardedKv, S>,
    epoch: u64,
) -> Fingerprint {
    loader
        .epoch_iter(epoch)
        .unwrap()
        .map(|b| {
            let (x, labels) = b.unwrap();
            (labels, x.data.iter().map(|f| f.to_bits()).collect())
        })
        .collect()
}

#[test]
fn epoch_batches_are_byte_identical_across_worker_counts() {
    let baseline = {
        let loader = loader_over(Arc::new(MemObjectStore::new()), pool(1));
        (0..3).map(|e| epoch_fingerprint(&loader, e)).collect::<Vec<_>>()
    };
    assert!(baseline[0].len() > 5, "expect a multi-batch epoch");
    for workers in WORKER_GRID {
        let loader = loader_over(Arc::new(MemObjectStore::new()), pool(workers));
        for (epoch, want) in baseline.iter().enumerate() {
            let got = epoch_fingerprint(&loader, epoch as u64);
            assert_eq!(&got, want, "epoch {epoch} diverges at workers={workers}");
        }
    }
}

#[test]
fn cache_hit_epoch_batches_are_byte_identical_across_worker_counts() {
    // The zero-copy cache path must be invisible to training: batches
    // decoded from `Bytes` views of resident chunks are byte-identical
    // to batches read through the server, at every worker count.
    let baseline = {
        let loader = loader_over(Arc::new(MemObjectStore::new()), pool(1));
        (0..2).map(|e| epoch_fingerprint(&loader, e)).collect::<Vec<_>>()
    };
    for workers in WORKER_GRID {
        let loader = cached_loader_over(pool(workers));
        for (epoch, want) in baseline.iter().enumerate() {
            let got = epoch_fingerprint(&loader, epoch as u64);
            assert_eq!(&got, want, "cached epoch {epoch} diverges at workers={workers}");
        }
    }
}

#[test]
fn epoch_batches_are_byte_identical_under_real_storage_delay() {
    // A store that lingers in every read hands the CPU to whoever else
    // is runnable, perturbing thread interleaving the way a slow store
    // would; the reorder buffer must still deliver source order with
    // identical bytes.
    let baseline = epoch_fingerprint(&loader_over(Arc::new(MemObjectStore::new()), pool(1)), 0);
    for workers in WORKER_GRID {
        let lingering = Arc::new(CountingStore::default());
        let got = epoch_fingerprint(&loader_over(lingering.clone(), pool(workers)), 0);
        assert_eq!(got, baseline, "lingering batches diverge at workers={workers}");
        assert!(lingering.range_reads.load(Ordering::SeqCst) > 0, "reads reach the store");
    }
}

/// One fully traced two-epoch run over a MockClock'd, single-worker
/// stack, exported as chrome-trace JSON.
fn traced_epochs_json() -> String {
    use diesel_dlt::obs::{chrome_trace_json, Registry, Tracer};
    let registry = Arc::new(Registry::new(Arc::new(MockClock::new())));
    let server = DieselServer::with_registry(
        Arc::new(ShardedKv::new()),
        Arc::new(MemObjectStore::new()),
        registry.clone(),
    )
    .with_pool(pool(1));
    // One always-on tracer across server, client, and loader, stamped
    // by the mock clock: ids, order, and timestamps are all replayable.
    let tracer = Tracer::enabled(&registry);
    let server = Arc::new(server.with_tracer(tracer.clone()));
    let client = DieselClient::connect_with(
        server,
        "synth",
        ClientConfig {
            chunk: ChunkBuilderConfig { target_chunk_size: 4096, ..Default::default() },
        },
    )
    .with_deterministic_identity(1, 1, 100)
    .with_tracer(tracer.clone());
    let samples = SyntheticSpec::cifar_like().generate(83);
    upload_samples(&client, &samples).unwrap();
    client.download_meta().unwrap();
    client.enable_shuffle(diesel_dlt::shuffle::ShuffleKind::ChunkWise { group_size: 2 });
    let loader = DataLoader::new(Arc::new(client), 8, 17)
        .with_pool(pool(1))
        .with_prefetch_depth(3)
        .with_tracer(tracer.clone());
    tracer.drain(); // trace only the epochs, not the upload
    for epoch in 0..2 {
        for batch in loader.epoch_iter(epoch).unwrap() {
            batch.unwrap();
        }
    }
    chrome_trace_json(&tracer.drain())
}

#[test]
fn traced_epochs_export_byte_identical_chrome_json() {
    // Tracing obeys the same contract as the data path: an identical
    // run replays to byte-identical export output.
    let a = traced_epochs_json();
    let b = traced_epochs_json();
    assert!(a.contains("client.get_many"), "epochs must produce client read spans");
    assert!(a.contains("server.handle"), "reads must reach the server");
    assert!(a.contains("loader.decode"), "pipeline stages must be traced");
    assert_eq!(a, b, "trace export diverges between identical runs");
}

/// Pack a dataset, then build a task cache over its chunks with the
/// given pool.
fn cache_over<S: ObjectStore + 'static>(
    store: Arc<S>,
    seed_store: &Arc<MemObjectStore>,
    pool: WorkPool,
) -> TaskCache<S> {
    let server = Arc::new(DieselServer::new(Arc::new(ShardedKv::new()), seed_store.clone()));
    let client = DieselClient::connect_with(
        server.clone(),
        "ds",
        ClientConfig {
            chunk: ChunkBuilderConfig { target_chunk_size: 4096, ..Default::default() },
        },
    )
    .with_deterministic_identity(1, 1, 300);
    for i in 0..60 {
        client.put(&format!("f{i:04}"), &[(i % 251) as u8; 256]).unwrap();
    }
    client.flush().unwrap();
    let chunks = server.meta().chunk_ids("ds").unwrap();
    TaskCache::new(
        Topology::uniform(2, 2).unwrap(),
        store,
        "ds",
        chunks,
        CacheConfig { capacity_bytes_per_node: 1 << 30, policy: CachePolicy::Oneshot },
    )
    .unwrap()
    .with_pool(pool)
}

#[test]
fn prefetch_reports_are_identical_across_worker_counts() {
    let mut reports: Vec<(LoadReport, LoadReport)> = Vec::new();
    for workers in WORKER_GRID {
        let store = Arc::new(MemObjectStore::new());
        let cache = cache_over(store.clone(), &store, pool(workers));
        // Recovery reload first (Fig. 11b is pooled too): node 0's
        // partition loads, then the full sweep fills in the rest —
        // revisiting node 0's chunks must hit, not re-load.
        let node0 = cache.recover_node(0).unwrap();
        assert!(node0.chunks_loaded > 0, "node 0 owns chunks");
        let rest = cache.prefetch_all().unwrap();
        assert_eq!(
            cache.metrics().chunk_loads(),
            node0.chunks_loaded + rest.chunks_loaded,
            "sweep must not re-load node 0's chunks at workers={workers}"
        );
        reports.push((node0, rest));
    }
    assert!(reports[0].1.chunks_loaded > 1, "expect a multi-chunk dataset");
    for (w, r) in WORKER_GRID.iter().zip(&reports) {
        assert_eq!(r, &reports[0], "LoadReport diverges at workers={w}");
    }
}

#[test]
fn total_backing_failure_is_reported_identically_for_any_worker_count() {
    // FaultyStore draws per-call from a seeded RNG, so *which* chunk
    // fails first is interleaving-dependent. With every read failing the
    // outcome is order-robust: prefetch errors and caches nothing,
    // identically for every worker count.
    for workers in WORKER_GRID {
        let seed_store = Arc::new(MemObjectStore::new());
        let faulty = Arc::new(FaultyStore::new(
            seed_store.clone(),
            FaultConfig { io_error_rate: 1.0, corruption_rate: 0.0, seed: 11 },
        ));
        let cache = cache_over(faulty, &seed_store, pool(workers));
        let err = cache.prefetch_all().unwrap_err();
        assert!(
            matches!(err, diesel_dlt::cache::CacheError::Backing(_)),
            "workers={workers}: {err}"
        );
        assert_eq!(cache.metrics().chunk_loads(), 0, "workers={workers}");
        assert_eq!(cache.metrics().bytes_loaded(), 0, "workers={workers}");
    }
}

/// Like [`cached_loader_over`], but on a `nodes`-wide cache that holds
/// the whole dataset, prefetched, and handing back the cache so the test
/// can watch what the epochs' plans do to it.
fn fitting_cached_stack(
    pool: WorkPool,
    nodes: usize,
) -> (DataLoader<ShardedKv, MemObjectStore>, Arc<TaskCache<MemObjectStore>>) {
    let store = Arc::new(MemObjectStore::new());
    let server =
        Arc::new(DieselServer::new(Arc::new(ShardedKv::new()), store).with_pool(pool.clone()));
    let client = DieselClient::connect_with(
        server.clone(),
        "synth",
        ClientConfig {
            chunk: ChunkBuilderConfig { target_chunk_size: 4096, ..Default::default() },
        },
    )
    .with_deterministic_identity(1, 1, 100);
    let samples = SyntheticSpec::cifar_like().generate(83);
    upload_samples(&client, &samples).unwrap();
    client.download_meta().unwrap();
    client.enable_shuffle(diesel_dlt::shuffle::ShuffleKind::ChunkWise { group_size: 2 });
    let chunks = server.meta().chunk_ids("synth").unwrap();
    let cache = Arc::new(
        TaskCache::new(
            Topology::uniform(nodes, 1).unwrap(),
            server.store().clone(),
            "synth",
            chunks,
            CacheConfig { capacity_bytes_per_node: 1 << 30, policy: CachePolicy::Oneshot },
        )
        .unwrap()
        .with_pool(pool.clone()),
    );
    cache.prefetch_all().unwrap();
    client.attach_cache(cache.clone());
    (DataLoader::new(Arc::new(client), 8, 17).with_pool(pool).with_prefetch_depth(3), cache)
}

/// Loaders for tenants A and B plus tenant A's cache handle (the one
/// the test kills and recovers mid-epoch).
type TwoTenantStack = (
    DataLoader<ShardedKv, MemObjectStore>,
    DataLoader<ShardedKv, MemObjectStore>,
    Arc<diesel_dlt::cache::TaskCache<MemObjectStore>>,
);

/// Two tenants, one `TaskCache` each over one shared store and
/// registry: independent synthetic datasets, one loader each, both
/// caches fully prefetched.
fn two_tenant_stack(pool: WorkPool) -> TwoTenantStack {
    let store = Arc::new(MemObjectStore::new());
    let server =
        Arc::new(DieselServer::new(Arc::new(ShardedKv::new()), store).with_pool(pool.clone()));
    let registry = Arc::new(diesel_dlt::obs::Registry::default());
    let mut loaders = Vec::new();
    let mut caches = Vec::new();
    for (idx, (ds, sample_seed)) in [("synth-a", 83usize), ("synth-b", 29)].into_iter().enumerate()
    {
        let client = DieselClient::connect_with(
            server.clone(),
            ds,
            ClientConfig {
                chunk: ChunkBuilderConfig { target_chunk_size: 4096, ..Default::default() },
            },
        )
        .with_deterministic_identity(
            idx as u64 + 1,
            idx as u32 + 1,
            100 * (idx as u32 + 1),
        );
        let samples = SyntheticSpec::cifar_like().generate(sample_seed);
        upload_samples(&client, &samples).unwrap();
        client.download_meta().unwrap();
        client.enable_shuffle(diesel_dlt::shuffle::ShuffleKind::ChunkWise { group_size: 2 });
        let cache = Arc::new(
            TaskCache::with_registry(
                Topology::uniform(2, 2).unwrap(),
                server.store().clone(),
                ds,
                server.meta().chunk_ids(ds).unwrap(),
                CacheConfig { capacity_bytes_per_node: 1 << 30, policy: CachePolicy::Oneshot },
                registry.clone(),
            )
            .unwrap()
            .with_pool(pool.clone()),
        );
        cache.prefetch_all().unwrap();
        client.attach_cache(cache.clone());
        caches.push(cache);
        loaders.push(
            DataLoader::new(Arc::new(client), 8, 17).with_pool(pool.clone()).with_prefetch_depth(3),
        );
    }
    let cache_a = caches.swap_remove(0);
    let loader_b = loaders.pop().unwrap();
    let loader_a = loaders.pop().unwrap();
    (loader_a, loader_b, cache_a)
}

#[test]
fn two_tenant_epochs_are_byte_identical_across_worker_counts() {
    // Tenant isolation × determinism: two tenants, one cache each over
    // one shared store; tenant A's cache nodes are killed and
    // recovered *while tenant B's epoch streams*. B's batches must equal
    // its workers=1 run bit-for-bit at every worker count — and A's too,
    // once its nodes are back.
    let (base_a, base_b) = {
        let (loader_a, loader_b, _) = two_tenant_stack(pool(1));
        (
            (0..2).map(|e| epoch_fingerprint(&loader_a, e)).collect::<Vec<_>>(),
            (0..2).map(|e| epoch_fingerprint(&loader_b, e)).collect::<Vec<_>>(),
        )
    };
    assert!(base_a[0].len() > 5, "expect a multi-batch epoch");
    assert_ne!(base_a[0], base_b[0], "tenants train on different data");
    for workers in WORKER_GRID {
        let (loader_a, loader_b, cache_a) = two_tenant_stack(pool(workers));
        // Epoch 0 for B, with tenant A churning mid-epoch.
        let mut got = Vec::new();
        for (i, b) in loader_b.epoch_iter(0).unwrap().enumerate() {
            if i == 2 {
                cache_a.kill_node(0);
            }
            if i == 4 {
                cache_a.recover_node(0).unwrap();
            }
            let (x, labels) = b.unwrap();
            got.push((labels, x.data.iter().map(|f| f.to_bits()).collect::<Vec<u32>>()));
        }
        assert_eq!(got, base_b[0], "B's epoch 0 diverges under A churn at workers={workers}");
        assert_eq!(
            epoch_fingerprint(&loader_b, 1),
            base_b[1],
            "B's epoch 1 diverges at workers={workers}"
        );
        for (e, want) in base_a.iter().enumerate() {
            let got = epoch_fingerprint(&loader_a, e as u64);
            assert_eq!(&got, want, "A's epoch {e} diverges at workers={workers}");
        }
    }
}

/// A `MemObjectStore` that counts whole-object reads — what a task
/// cache's chunk loads cost the backing store — and ranged reads, and
/// lingers in both (yielding, not sleeping), so that readers who can
/// race for a chunk do.
#[derive(Default)]
struct CountingStore {
    inner: MemObjectStore,
    gets: AtomicU64,
    range_reads: AtomicU64,
}

fn linger() {
    for _ in 0..64 {
        std::thread::yield_now();
    }
}

impl ObjectStore for CountingStore {
    fn put(&self, key: &str, value: Bytes) -> diesel_dlt::store::Result<()> {
        self.inner.put(key, value)
    }
    fn get(&self, key: &str) -> diesel_dlt::store::Result<Bytes> {
        self.gets.fetch_add(1, Ordering::SeqCst);
        linger();
        self.inner.get(key)
    }
    fn get_range(&self, key: &str, offset: u64, len: usize) -> diesel_dlt::store::Result<Bytes> {
        self.range_reads.fetch_add(1, Ordering::SeqCst);
        linger();
        self.inner.get_range(key, offset, len)
    }
    fn delete(&self, key: &str) -> diesel_dlt::store::Result<bool> {
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

const CONSTRAINED_NODES: usize = 4;
const CONSTRAINED_GROUP: usize = 8;
const CONSTRAINED_BATCH: usize = 8;
const CONSTRAINED_SAMPLES: usize = 2_400;

/// The cache-less reference for [`Constrained`]: same samples, shuffle
/// and batches, every read served by the server, inline.
fn constrained_baseline(seed: u64, epochs: u64) -> Vec<Fingerprint> {
    let loader = loader_with(
        Arc::new(MemObjectStore::new()),
        pool(1),
        CONSTRAINED_SAMPLES,
        CONSTRAINED_GROUP,
        CONSTRAINED_BATCH,
        seed,
    );
    (0..epochs).map(|e| epoch_fingerprint(&loader, e)).collect()
}

/// The `constrained_loader` geometry in small: ≈ 93 chunks of ≈ 26
/// samples over a counting store, shuffled in groups of 8, read through
/// a 4-node task cache built with a per-node budget of `cap` bytes.
struct Constrained {
    loader: DataLoader<ShardedKv, CountingStore>,
    cache: Arc<TaskCache<CountingStore>>,
    store: Arc<CountingStore>,
    /// Stored size and owner node of every chunk.
    chunks: HashMap<ChunkId, (u64, usize)>,
    seed: u64,
    cap: u64,
}

/// One shuffle group as the cache sees it: how many batches read from
/// it, and per node the stored sizes of the group's chunks it owns.
type GroupShares = (u64, [Vec<u64>; CONSTRAINED_NODES]);

impl Constrained {
    /// `fetch` runs the loader's pipeline, `ahead` the cache's lookahead
    /// (and sweeps). With an inline `fetch` the reads follow the plan
    /// one batch at a time, whatever the lookahead does beside them.
    /// `cap` is the per-node budget; `None` gives each node a quarter of
    /// the stored dataset's per-node share, like the benchmark's
    /// `constrained_loader`.
    fn new(fetch: WorkPool, ahead: WorkPool, seed: u64, cap: Option<u64>) -> Self {
        let store = Arc::new(CountingStore::default());
        let loader = loader_with(
            store.clone(),
            fetch,
            CONSTRAINED_SAMPLES,
            CONSTRAINED_GROUP,
            CONSTRAINED_BATCH,
            seed,
        );
        let ids = loader.client().server().meta().chunk_ids("synth").unwrap();
        // The placement rule, as a reference: a chunk's owner is its rank
        // in sorted chunk-id order mod the node count.
        let mut ranked = ids.clone();
        ranked.sort_unstable();
        ranked.dedup();
        let chunks = ranked
            .iter()
            .enumerate()
            .map(|(rank, &id)| {
                let key = diesel_dlt::meta::recovery::chunk_object_key("synth", id);
                (id, (store.size_of(&key).unwrap() as u64, rank % CONSTRAINED_NODES))
            })
            .collect();
        let cap = cap.unwrap_or(store.total_bytes() / 4 / CONSTRAINED_NODES as u64);
        let cache = Arc::new(
            TaskCache::new(
                Topology::uniform(CONSTRAINED_NODES, 1).unwrap(),
                store.clone(),
                "synth",
                ids,
                CacheConfig { capacity_bytes_per_node: cap, policy: CachePolicy::OnDemand },
            )
            .unwrap()
            .with_pool(ahead),
        );
        loader.client().attach_cache(cache.clone());
        Constrained { loader, cache, store, chunks, seed, cap }
    }

    fn groups(&self, epoch: u64) -> Vec<GroupShares> {
        let client = self.loader.client();
        let order = client.epoch_file_list(self.seed, epoch).unwrap();
        let starts = client.epoch_plan(self.seed, epoch).unwrap().group_starts;
        let bounds: Vec<usize> = starts.into_iter().chain([order.len()]).collect();
        bounds
            .windows(2)
            .map(|w| {
                let mut shares: [Vec<u64>; CONSTRAINED_NODES] = Default::default();
                let mut seen: Vec<ChunkId> =
                    order[w[0]..w[1]].iter().map(|p| client.stat(p).unwrap().chunk).collect();
                seen.sort();
                seen.dedup();
                for chunk in seen {
                    let (bytes, owner) = self.chunks[&chunk];
                    shares[owner].push(bytes);
                }
                // Batches are cut from the whole order: a group is read
                // by every batch its range overlaps.
                let batches = w[1].div_ceil(CONSTRAINED_BATCH) - w[0] / CONSTRAINED_BATCH;
                (batches as u64, shares)
            })
            .collect()
    }

    /// Read `epoch` through the loader. Its batches must be `want`, and
    /// no node may hold more than the budget after any of them. Returns
    /// the store reads the epoch cost.
    fn read_epoch(&self, epoch: u64, want: &Fingerprint, workers: usize) -> u64 {
        let before = self.store.gets.load(Ordering::SeqCst);
        let mut batches = 0;
        for (i, b) in self.loader.epoch_iter(epoch).unwrap().enumerate() {
            let (x, labels) = b.unwrap();
            let got = (labels, x.data.iter().map(|f| f.to_bits()).collect::<Vec<u32>>());
            assert_eq!(got, want[i], "batch {i} of epoch {epoch} diverges at workers={workers}");
            for node in 0..CONSTRAINED_NODES {
                let held = self.cache.node_resident_bytes(node);
                assert!(held <= self.cap, "node {node} holds {held} B over budget at batch {i}");
            }
            batches += 1;
        }
        assert_eq!(batches, want.len());
        self.store.gets.load(Ordering::SeqCst) - before
    }
}

#[test]
fn a_streaming_cache_reads_every_chunk_exactly_once_per_epoch() {
    // The budget is constructed: the largest share any node has of two
    // consecutive groups. A batch can straddle a group boundary, so
    // that is the transient working set — with room for it, a cache
    // that follows the plan needs no chunk twice and, releasing each on
    // its last planned read, carries none into the next epoch: one
    // store read per chunk per epoch, however many lookahead workers
    // race ahead of the reader. (The fetch stage is inline: a threaded
    // one reads as far ahead of a stalled batch as the scheduler lets
    // it, and no budget short of the dataset covers that.)
    const SEED: u64 = 17;
    let baseline = constrained_baseline(SEED, 3);
    let probe = Constrained::new(pool(1), pool(1), SEED, None);
    let cap = (0..3)
        .flat_map(|epoch| {
            let groups = probe.groups(epoch);
            let of_node = |n: usize| -> Vec<u64> {
                groups.iter().map(|(_, shares)| shares[n].iter().sum()).collect()
            };
            (0..CONSTRAINED_NODES)
                .flat_map(|n| of_node(n).windows(2).map(|w| w[0] + w[1]).collect::<Vec<_>>())
                .collect::<Vec<_>>()
        })
        .max()
        .unwrap();
    for node in 0..CONSTRAINED_NODES {
        let share: u64 = probe.chunks.values().filter(|c| c.1 == node).map(|c| c.0).sum();
        assert!(share > cap, "node {node} must stream: {share} B vs budget {cap} B");
    }
    for workers in WORKER_GRID {
        let stack = Constrained::new(pool(1), pool(workers), SEED, Some(cap));
        let chunks = stack.chunks.len() as u64;
        for (epoch, want) in baseline.iter().enumerate() {
            let gets = stack.read_epoch(epoch as u64, want, workers);
            assert_eq!(gets, chunks, "epoch {epoch} at workers={workers}: one read per chunk");
        }
        assert_eq!(stack.cache.metrics().chunk_loads(), 3 * chunks);
    }
}

#[test]
fn a_quarter_size_cache_reloads_only_what_one_group_cannot_hold() {
    // The benchmark's geometry (≈ 99 chunks, 4 nodes × a sixteenth of
    // the dataset, G = 8) over twelve shuffles. Where every node can
    // hold its share of each single group, an epoch costs one store
    // read per chunk; where one cannot, the chunks that do not fit are
    // re-read at most once per batch of that group — never the whole
    // group, batch after batch. Fetch stage inline, as above.
    let mut overflowed = 0;
    for seed in 1..=12u64 {
        let baseline = constrained_baseline(seed, 3);
        for workers in WORKER_GRID {
            let stack = Constrained::new(pool(1), pool(workers), seed, None);
            let cap = stack.cap;
            let chunks = stack.chunks.len() as u64;
            for (epoch, want) in baseline.iter().enumerate() {
                // Chunks of one group beyond what their node can hold,
                // times the batches that read the group.
                let overflow: u64 = stack
                    .groups(epoch as u64)
                    .iter()
                    .map(|(batches, shares)| {
                        let beyond = |sizes: &Vec<u64>| {
                            let mut sizes = sizes.clone();
                            sizes.sort_unstable();
                            let mut room = cap;
                            let fits = |&s: &u64| room.checked_sub(s).map(|left| room = left);
                            sizes.len() - sizes.iter().map_while(fits).count()
                        };
                        batches * shares.iter().map(beyond).sum::<usize>() as u64
                    })
                    .sum();
                let gets = stack.read_epoch(epoch as u64, want, workers);
                assert!(
                    (chunks..=chunks + overflow).contains(&gets),
                    "seed {seed} epoch {epoch} workers={workers}: {gets} store reads for \
                     {chunks} chunks, {overflow} allowed on top"
                );
                overflowed += u64::from(overflow > 0);
            }
        }
    }
    assert!(overflowed > 0, "no shuffle over-subscribed a node: the bound above went untested");
}

#[test]
fn racing_fetch_threads_share_every_chunk_load() {
    // The benchmark's arrangement: the loader's fetch stage and the
    // cache's lookahead on one pool, a quarter-size cache. Threaded
    // fetch reads ahead of a stalled batch without bound, so how often
    // a chunk is re-read is the scheduler's doing — but every store
    // read is one flight: no two readers, and no reader and the
    // lookahead, ever read the same chunk for the same node at once,
    // so the store's count and the cache's agree. (At the parent each
    // racing filler read the store and all but one threw the bytes
    // away.) Batches stay byte-identical and residency under budget.
    const SEED: u64 = 11;
    let baseline = constrained_baseline(SEED, 3);
    for workers in WORKER_GRID {
        let stack = Constrained::new(pool(workers), pool(workers), SEED, None);
        for (epoch, want) in baseline.iter().enumerate() {
            let loads = stack.cache.metrics().chunk_loads();
            let gets = stack.read_epoch(epoch as u64, want, workers);
            assert_eq!(
                stack.cache.metrics().chunk_loads() - loads,
                gets,
                "epoch {epoch} at workers={workers}: a store read the cache did not use"
            );
        }
    }
}

#[test]
fn a_cache_that_fits_is_left_alone_by_the_plan() {
    // The paper's fully-cached mode: the loader hands every epoch's
    // plan to the cache, and a cache whose partition fits does nothing
    // with it — no loads, no evictions, nothing released.
    for workers in WORKER_GRID {
        let (loader, cache) = fitting_cached_stack(pool(workers), 4);
        let loads = cache.metrics().chunk_loads();
        let first = epoch_fingerprint(&loader, 0);
        for epoch in 1..3 {
            assert_ne!(epoch_fingerprint(&loader, epoch), first, "another epoch, another order");
        }
        assert_eq!(cache.metrics().chunk_loads(), loads, "workers={workers}");
        assert_eq!(cache.metrics().evictions(), 0, "workers={workers}");
        assert!((cache.resident_fraction() - 1.0).abs() < 1e-9);
    }
}
