//! Set-up: generate a workload's dataset, upload it through the client,
//! take the metadata snapshot, and assemble exactly the stack that
//! workload drives (see the crate README for why each looks the way
//! it does).

use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;

use diesel_cache::{CacheConfig, CachePolicy, TaskCache, Topology};
use diesel_chunk::ChunkBuilderConfig;
use diesel_core::{
    AdmissionConfig, ClientConfig, DieselClient, DieselServer, ServerConn, ServerReply,
    ServerRequest,
};
use diesel_exec::{ExecConfig, WorkPool};
use diesel_kv::ShardedKv;
use diesel_net::{Endpoint, EndpointMetrics, Instrumented, Retry, RetryPolicy, ThreadServer};
use diesel_obs::{Registry, Sampling, Tracer};
use diesel_shuffle::ShuffleKind;
use diesel_store::{DeviceModel, ObjectStore};
use diesel_util::{Clock, SystemClock};

use crate::decor::{ConnMeter, Ctl, MeteredConn, MeteredKv, MeteredStore};
use crate::gen::{Dataset, Sizes};

/// The dataset every read workload reads.
pub const DATASET: &str = "train";
/// The dataset the writer fills and drops.
pub const INGEST: &str = "ingest";
/// Chunk-wise shuffle group size (chunks per group), everywhere.
pub const GROUP_SIZE: usize = 8;
/// Cache nodes of the task-grained cache.
pub const CACHE_NODES: usize = 4;
/// Machine seed of every client's chunk-id generator.
const IDENTITY: u64 = 0xD1E5E1;
/// Worker threads of the work pool the cache and the loader share,
/// fixed rather than derived from the machine.
pub const POOL_WORKERS: usize = 2;

/// The four workloads; names are the ones `BENCHMARK.json` declares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `small` resident in the task cache, read with `get` per file.
    WarmGet,
    /// `small` behind a slow store and a cache a quarter its size,
    /// read through the pipelined `DataLoader`.
    ConstrainedLoader,
    /// `mixed` read with `get_many` over the thread transport into an
    /// admission-controlled server, no cache.
    ServerMerged,
    /// A writer cycling put/flush/delete beside a `get_many` reader.
    IngestBesideReads,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::WarmGet,
        Workload::ConstrainedLoader,
        Workload::ServerMerged,
        Workload::IngestBesideReads,
    ];

    /// The declared name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmGet => "warm_get",
            Workload::ConstrainedLoader => "constrained_loader",
            Workload::ServerMerged => "server_merged",
            Workload::IngestBesideReads => "ingest_beside_reads",
        }
    }

    /// Look a workload up by its declared name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Does this workload read the `small` dataset (else `mixed`)?
    pub fn reads_small(self) -> bool {
        matches!(self, Workload::WarmGet | Workload::ConstrainedLoader)
    }
}

/// Input sizes: the full benchmark, or the ≈1 % smoke test.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Files in `small`.
    pub small_files: usize,
    /// Bytes per `small` file.
    pub small_bytes: u32,
    /// Files of `small` the `constrained_loader` workload reads.
    pub loader_files: usize,
    /// Its chunk size; shrunk with the file count, so the dataset
    /// still spans ≈100 chunks and the cache a quarter of them.
    pub loader_chunk_bytes: usize,
    /// Files in `mixed`.
    pub mixed_files: usize,
    /// `mixed` sizes are log-uniform in `[lo, hi]` bytes.
    pub mixed_range: (u32, u32),
    /// Files the concurrent writer puts per cycle.
    pub ingest_files: usize,
    /// Files per cycle of the ingest-alone probe on read workloads.
    pub probe_files: usize,
    /// Target chunk size.
    pub chunk_bytes: usize,
    /// Modelled consumer compute per loader batch, nanoseconds.
    pub compute_ns: u64,
}

impl Scale {
    /// The sizes `BENCHMARK.json` runs.
    pub fn full() -> Self {
        Scale {
            small_files: 100_000,
            small_bytes: 4094,
            // Half of `small`: an epoch takes under a second, so a run
            // sees enough of them for a steady mean (which chunks an
            // epoch re-fetches differs from shuffle to shuffle).
            loader_files: 50_000,
            loader_chunk_bytes: 2 << 20,
            mixed_files: 12_000,
            mixed_range: (4 << 10, 128 << 10),
            ingest_files: 4_000,
            probe_files: 1_000,
            chunk_bytes: 4 << 20,
            compute_ns: 500_000,
        }
    }

    /// About one percent of [`Scale::full`], with chunks shrunk to
    /// match so every workload still spans dozens of chunks.
    pub fn smoke() -> Self {
        Scale {
            small_files: 1_000,
            small_bytes: 4094,
            loader_files: 1_000,
            loader_chunk_bytes: 64 << 10,
            mixed_files: 240,
            mixed_range: (1 << 10, 16 << 10),
            ingest_files: 80,
            probe_files: 40,
            chunk_bytes: 64 << 10,
            compute_ns: 20_000,
        }
    }
}

/// What one set-up cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Everything: generation, upload, snapshot, prefetch.
    pub total_s: f64,
    /// `download_meta` alone.
    pub snapshot_ms: f64,
}

/// The metered store every rig runs on.
pub type Store<B> = MeteredStore<B>;
/// The metered KV every rig runs on.
pub type Kv = MeteredKv<ShardedKv>;
/// The server type.
pub type Server<B> = DieselServer<Kv, Store<B>>;
/// The client type.
pub type Client<B> = DieselClient<Kv, Store<B>>;
/// The task cache type.
pub type Cache<B> = TaskCache<Store<B>>;

/// One assembled stack plus the inputs the verifier checks against.
pub struct Rig<B: ObjectStore + 'static> {
    /// Which workload this stack serves.
    pub workload: Workload,
    /// The input sizes it was built at.
    pub scale: Scale,
    /// Seeds shuffle orders.
    pub seed: u64,
    /// The one clock: decorators, tracer and consumers all read it.
    pub clock: Arc<dyn Clock>,
    /// Registry shared by server, pool, cache and transport metrics.
    pub registry: Arc<Registry>,
    /// Decorator switches.
    pub ctl: Arc<Ctl>,
    /// The metered object store.
    pub store: Arc<Store<B>>,
    /// The metered KV.
    pub kv: Arc<Kv>,
    /// The server (for its counters and direct probes).
    pub server: Arc<Server<B>>,
    /// The metered channel the clients call through.
    pub conn: ServerConn,
    /// Channel-inclusive call meter.
    pub conn_meter: Arc<ConnMeter>,
    /// Handler-inclusive call meter (thread transport only).
    pub handler_meter: Option<Arc<ConnMeter>>,
    /// Retry/timeout counters (thread transport only).
    pub net: Option<EndpointMetrics>,
    /// The reading client.
    pub client: Arc<Client<B>>,
    /// The writing client, on [`INGEST`].
    pub writer: Client<B>,
    /// The task cache, when the workload has one.
    pub cache: Option<Arc<Cache<B>>>,
    /// The one work pool.
    pub pool: WorkPool,
    /// Always-on for a traced rig, off otherwise.
    pub tracer: Tracer,
    /// Whether this rig times calls and records spans.
    pub traced: bool,
    /// Specs of the dataset being read.
    pub data: Arc<Dataset>,
    /// Specs of the files the writer puts.
    pub ingest: Dataset,
    /// The writer's files, generated once so a write cycle is pure
    /// system time.
    pub ingest_bytes: Vec<Vec<u8>>,
    /// What this set-up cost.
    pub setup: SetupTimes,
    // Serving thread of the thread transport; declared last so the
    // clients above drop first.
    _thread: Option<ThreadServer<ServerRequest, ServerReply>>,
    _awake: Option<KeepAwake>,
}

/// A thread that is always runnable, for as long as the value lives.
///
/// The thread transport hands every request to the serving thread and
/// blocks for the reply, so with one closed-loop client a CPU goes idle
/// twice per call. On a virtual machine waking a halted CPU costs
/// anything from a few to ≈60 µs depending on what the host is doing
/// (measured: the same binary read 270 k or 470 k files/s, for minutes
/// at a time). With this thread yielding in a loop no CPU ever halts,
/// and a hand-off costs what the program's own scheduling costs — as
/// on a training node, whose CPUs are never idle.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl KeepAwake {
    /// Start the thread.
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            while !flag.load(Relaxed) {
                std::thread::yield_now();
            }
        });
        KeepAwake { stop, thread: Some(thread) }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Relaxed);
        if let Some(thread) = self.thread.take() {
            // The loop cannot panic; nothing to report.
            let _ = thread.join();
        }
    }
}

fn step<T, E: std::fmt::Display>(what: &str, r: Result<T, E>) -> Result<T, String> {
    r.map_err(|e| format!("set-up: {what}: {e}"))
}

impl<B: ObjectStore + 'static> Rig<B> {
    /// Build the stack for `workload` over `backing` and fill it.
    pub fn build(
        workload: Workload,
        scale: Scale,
        seed: u64,
        traced: bool,
        backing: B,
    ) -> Result<Self, String> {
        let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
        let t0 = clock.now_ns();
        let registry = Arc::new(Registry::new(Arc::clone(&clock)));
        let ctl = Ctl::new(Arc::clone(&clock), traced);
        let device = (workload == Workload::ConstrainedLoader).then(DeviceModel::hdd_array);
        let store = Arc::new(MeteredStore::new(Arc::new(backing), Arc::clone(&ctl), device));
        let kv = Arc::new(MeteredKv::new(Arc::new(ShardedKv::new()), Arc::clone(&ctl)));
        let pool = WorkPool::with_registry(
            "bench",
            ExecConfig::workers(POOL_WORKERS),
            Arc::clone(&registry),
        );
        let tracer = if traced {
            Tracer::enabled(&registry)
        } else {
            Tracer::with_sampling(&registry, Sampling::Off)
        };

        let mut server =
            DieselServer::with_registry(Arc::clone(&kv), Arc::clone(&store), Arc::clone(&registry))
                // Merged read plans run inline on the serving thread: the
                // per-plan work is a zero-copy slice, and fanning it out
                // only adds wake-ups whose latency the host decides.
                .with_pool(WorkPool::inline("bench-server"))
                .with_tracer(tracer.clone());
        if workload == Workload::ServerMerged {
            // Admission is on the path but never the bottleneck: the
            // bucket refills far faster than one closed-loop client asks.
            server = server.with_admission(AdmissionConfig {
                tenant_rate_per_sec: 1e9,
                tenant_burst: 1e9,
                ..AdmissionConfig::default()
            });
        }
        let server = Arc::new(server);

        let conn_meter = Arc::new(ConnMeter::default());
        let (conn, handler_meter, net, thread): (ServerConn, _, _, _) = if workload
            == Workload::ServerMerged
        {
            let handler = Arc::new(ConnMeter::default());
            let (srv, meter, hctl) = (Arc::clone(&server), Arc::clone(&handler), Arc::clone(&ctl));
            let endpoint = Endpoint::new("server", 0);
            let thread = ThreadServer::spawn(endpoint.clone(), move |req| {
                meter.observe(&hctl, req, |req| srv.handle(req))
            });
            let metrics = EndpointMetrics::new(&registry, &endpoint);
            let channel = Retry::new(
                Instrumented::new(thread.channel(), metrics.clone(), Arc::clone(&clock)),
                RetryPolicy::default(),
                Arc::clone(&clock),
            )
            .with_metrics(metrics.clone());
            let conn = MeteredConn::new(channel, Arc::clone(&ctl), Arc::clone(&conn_meter));
            (Arc::new(conn), Some(handler), Some(metrics), Some(thread))
        } else {
            let direct = server.direct_channel(0);
            let conn = MeteredConn::new(direct, Arc::clone(&ctl), Arc::clone(&conn_meter));
            (Arc::new(conn), None, None, None)
        };

        let mixed = Sizes::LogUniform(scale.mixed_range.0, scale.mixed_range.1);
        let (files, sizes, chunk_bytes) = match workload {
            Workload::WarmGet => {
                (scale.small_files, Sizes::Fixed(scale.small_bytes), scale.chunk_bytes)
            }
            Workload::ConstrainedLoader => {
                (scale.loader_files, Sizes::Fixed(scale.small_bytes), scale.loader_chunk_bytes)
            }
            Workload::ServerMerged | Workload::IngestBesideReads => {
                (scale.mixed_files, mixed, scale.chunk_bytes)
            }
        };
        let connect = |dataset: &str, identity: u32, chunk_bytes: usize| {
            let config = ClientConfig {
                chunk: ChunkBuilderConfig { target_chunk_size: chunk_bytes, ..Default::default() },
            };
            let client = DieselClient::connect_channel_with(Arc::clone(&conn), dataset, config)
                // Chunk ids place chunks on cache nodes; a fixed identity
                // keeps that placement the same for every seed.
                .with_deterministic_identity(IDENTITY, identity, 1_000 * identity);
            if traced {
                client.with_tracer(tracer.clone())
            } else {
                client
            }
        };
        let client: Client<B> = connect(DATASET, 1, chunk_bytes);
        let writer: Client<B> = connect(INGEST, 2, scale.chunk_bytes);

        // Generate and upload the dataset one file at a time, exactly
        // as a data-preparation job would.
        let data =
            Dataset::generate(seed, if workload.reads_small() { 1 } else { 2 }, files, sizes);
        let mut buf = Vec::new();
        for (index, spec) in data.files.iter().enumerate() {
            data.fill(index, &mut buf);
            step("put", client.put(&spec.path, &buf))?;
        }
        step("flush", client.flush())?;

        let s0 = clock.now_ns();
        step("download_meta", client.download_meta())?;
        let snapshot_ms = (clock.now_ns() - s0) as f64 / 1e6;
        client.enable_shuffle(ShuffleKind::ChunkWise { group_size: GROUP_SIZE });

        let cache = if workload.reads_small() {
            let chunks = step("chunk_ids", server.meta().chunk_ids(DATASET))?;
            let resident = workload != Workload::ConstrainedLoader;
            let config = if resident {
                CacheConfig { capacity_bytes_per_node: 8 << 30, policy: CachePolicy::Oneshot }
            } else {
                // A quarter of the stored dataset across all nodes, so
                // every epoch refills and evicts.
                CacheConfig {
                    capacity_bytes_per_node: store.total_bytes() / 4 / CACHE_NODES as u64,
                    policy: CachePolicy::OnDemand,
                }
            };
            let topology = step("topology", Topology::uniform(CACHE_NODES, 1))?;
            let cache = TaskCache::with_registry(
                topology,
                Arc::clone(&store),
                DATASET,
                chunks,
                config,
                Arc::clone(&registry),
            );
            let cache = Arc::new(step("cache", cache)?.with_pool(pool.clone()));
            if resident {
                step("prefetch_all", cache.prefetch_all())?;
            }
            client.attach_cache(Arc::clone(&cache));
            Some(cache)
        } else {
            None
        };

        let ingest_files = if workload == Workload::IngestBesideReads {
            scale.ingest_files
        } else {
            scale.probe_files
        };
        let ingest = Dataset::generate(seed, 3, ingest_files, mixed);
        let ingest_bytes = (0..ingest_files)
            .map(|index| {
                let mut bytes = Vec::new();
                ingest.fill(index, &mut bytes);
                bytes
            })
            .collect();

        // Set-up is over: from here on the slow store is slow, and the
        // spans of set-up requests are not part of any measurement.
        ctl.delay.store(true, Relaxed);
        tracer.drain();
        let setup = SetupTimes { total_s: (clock.now_ns() - t0) as f64 / 1e9, snapshot_ms };
        Ok(Rig {
            workload,
            scale,
            seed,
            clock,
            registry,
            ctl,
            store,
            kv,
            server,
            conn,
            conn_meter,
            handler_meter,
            net,
            client: Arc::new(client),
            writer,
            cache,
            pool,
            tracer,
            traced,
            data: Arc::new(data),
            ingest,
            ingest_bytes,
            setup,
            _awake: thread.is_some().then(KeepAwake::start),
            _thread: thread,
        })
    }
}
