//! Payload-plane benchmark gate: the fixed suite behind `BENCH_6.json`.
//!
//! DIESEL's cache-hit economics (§4.2, Fig. 10/14) only hold if a hit is
//! pointer-handoff cheap, so this bench pins the hot payload path with
//! five fixed measurements:
//!
//! * `chunk_parse_ns` — [`ChunkView::parse`] over a ~1000-file chunk
//! * `cache_hit_read_ns` — [`TaskCache::get_file`] on a fully prefetched
//!   cache (the zero-copy fast path)
//! * `merged_read_us_per_file` — `client.get_many` through the server's
//!   `read_files_merged` plan (no cache attached)
//! * `loader_epoch_ms` — a full [`DataLoader`] epoch over a cache-hit
//!   stack (fetch + decode pipeline)
//! * `kv_put_ns` / `kv_get_ns` — [`ShardedKv`] point ops
//!
//! plus tracer-derived span means (`span_cache_get_hit_us`,
//! `span_loader_fetch_us`) from traced cache-hit epochs, so the PR 5
//! tracer's view of the read path is recorded alongside the wall times.
//! Every key is a best-of over repetitions: the epochs here last a
//! fraction of a millisecond, and a single one measures the host's
//! scheduler as much as the code.
//!
//! Results land in the [`diesel_bench::ledger`] file `BENCH_6.json`
//! (`baseline` holds the pre-refactor numbers). All keys are wall-clock
//! times, so `--check` records them without gating.

use std::sync::Arc;
use std::time::Instant;

use diesel_bench::ledger::Ledger;
use diesel_cache::{CacheConfig, CachePolicy, TaskCache, Topology};
use diesel_chunk::{ChunkBuilderConfig, ChunkIdGenerator, ChunkView, ChunkWriter};
use diesel_core::{ClientConfig, DieselClient, DieselServer};
use diesel_kv::{KvStore, ShardedKv};
use diesel_meta::FileMeta;
use diesel_obs::{Span, Tracer};
use diesel_shuffle::ShuffleKind;
use diesel_store::MemObjectStore;
use diesel_train::loader::upload_samples;
use diesel_train::{DataLoader, SyntheticSpec};

const SAMPLES: usize = 256;
const BATCH: usize = 16;
const SEED: u64 = 61;

/// Best-of-`reps` wall time for `iters` runs of `f`, in ns per iter.
fn best_ns_per_iter(reps: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

/// One sealed ~1000-file chunk, as raw bytes.
fn chunk_parse_ns() -> f64 {
    let ids = ChunkIdGenerator::deterministic(7, 7, 77);
    let cfg = ChunkBuilderConfig { target_chunk_size: 1 << 22, ..Default::default() };
    let mut w = ChunkWriter::new(cfg, &ids).with_clock(|| 1);
    for i in 0..1000 {
        w.add_file(&format!("file-{i:05}"), &[(i % 251) as u8; 100]).unwrap();
    }
    let sealed = w.finish();
    assert_eq!(sealed.len(), 1, "suite expects one chunk");
    let bytes = &sealed[0].bytes;
    best_ns_per_iter(3, 500, || {
        let v = ChunkView::parse(bytes.clone()).unwrap();
        assert_eq!(v.file_count(), 1000);
    })
}

type Stack =
    (Arc<DieselServer<ShardedKv, MemObjectStore>>, DieselClient<ShardedKv, MemObjectStore>);

/// Server + client over a plain memory store with the synthetic dataset
/// uploaded and meta downloaded.
fn stack() -> Stack {
    let server =
        Arc::new(DieselServer::new(Arc::new(ShardedKv::new()), Arc::new(MemObjectStore::new())));
    let client = DieselClient::connect_with(
        server.clone(),
        "synth",
        ClientConfig {
            chunk: ChunkBuilderConfig { target_chunk_size: 1 << 16, ..Default::default() },
        },
    )
    .with_deterministic_identity(1, 1, 100);
    let samples = SyntheticSpec::cifar_like().generate(SAMPLES);
    upload_samples(&client, &samples).expect("upload");
    client.download_meta().expect("meta");
    (server, client)
}

/// `(path, meta)` for every file in the dataset.
fn file_metas(server: &DieselServer<ShardedKv, MemObjectStore>) -> Vec<(String, FileMeta)> {
    let snap = server.meta().build_snapshot("synth").expect("snapshot");
    snap.files.iter().map(|f| (f.path.clone(), f.meta)).collect()
}

/// A fully prefetched single-node cache over the server's store.
fn prefetched_cache(
    server: &Arc<DieselServer<ShardedKv, MemObjectStore>>,
) -> Arc<TaskCache<MemObjectStore>> {
    let chunks = server.meta().chunk_ids("synth").expect("chunks");
    let cache = Arc::new(
        TaskCache::new(
            Topology::uniform(1, 1).unwrap(),
            server.store().clone(),
            "synth",
            chunks,
            CacheConfig { capacity_bytes_per_node: 1 << 30, policy: CachePolicy::Oneshot },
        )
        .unwrap(),
    );
    cache.prefetch_all().expect("prefetch");
    cache
}

fn cache_hit_read_ns() -> f64 {
    let (server, _client) = stack();
    let metas = file_metas(&server);
    let cache = prefetched_cache(&server);
    best_ns_per_iter(3, 50, || {
        for (_, meta) in &metas {
            let f = cache.get_file(meta).unwrap();
            assert!(!f.data.is_empty());
        }
    }) / metas.len() as f64
}

fn merged_read_us_per_file() -> f64 {
    let (server, client) = stack();
    let paths: Vec<String> = file_metas(&server).into_iter().map(|(p, _)| p).collect();
    let ns = best_ns_per_iter(3, 20, || {
        let got = client.get_many(&paths).unwrap();
        assert_eq!(got.len(), paths.len());
    });
    ns / 1e3 / paths.len() as f64
}

fn kv_ops_ns() -> (f64, f64) {
    let keys: Vec<String> = (0..4096).map(|i| format!("bench/key/{i:06}")).collect();
    let value = vec![0xa5u8; 1024];
    let kv = ShardedKv::new();
    let put = best_ns_per_iter(3, 4, || {
        for k in &keys {
            kv.put(k, value.clone().into()).unwrap();
        }
    }) / keys.len() as f64;
    let get = best_ns_per_iter(3, 8, || {
        for k in &keys {
            assert_eq!(kv.get(k).unwrap().expect("present").len(), 1024);
        }
    }) / keys.len() as f64;
    (put, get)
}

fn loader_epoch_ms() -> f64 {
    let (server, client) = stack();
    client.enable_shuffle(ShuffleKind::ChunkWise { group_size: 2 });
    client.attach_cache(prefetched_cache(&server));
    let loader = DataLoader::new(Arc::new(client), BATCH, SEED);
    best_ns_per_iter(7, 2, || {
        for batch in loader.epoch_iter(0).expect("epoch") {
            batch.expect("batch");
        }
    }) / 1e6
}

/// Mean duration (µs) of spans selected by `pick`.
fn span_mean_us(spans: &[Span], pick: impl Fn(&Span) -> bool) -> f64 {
    let durs: Vec<u64> = spans.iter().filter(|s| pick(s)).map(|s| s.duration_ns()).collect();
    if durs.is_empty() {
        return 0.0;
    }
    durs.iter().sum::<u64>() as f64 / durs.len() as f64 / 1e3
}

/// Traced cache-hit epochs; returns the best-of-7 per-epoch
/// (cache.get{outcome=hit} mean µs, loader.fetch mean µs).
fn traced_span_means() -> (f64, f64) {
    let (server, client) = stack();
    let tracer = Tracer::enabled(server.registry());
    client.enable_shuffle(ShuffleKind::ChunkWise { group_size: 2 });
    client.attach_cache(prefetched_cache(&server));
    let client = client.with_tracer(tracer.clone());
    let loader = DataLoader::new(Arc::new(client), BATCH, SEED).with_tracer(tracer.clone());
    tracer.drain(); // spans from the epochs only
    let (mut best_hit, mut best_fetch) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..7 {
        for batch in loader.epoch_iter(0).expect("epoch") {
            batch.expect("batch");
        }
        let spans = tracer.drain();
        let hit = span_mean_us(&spans, |s| {
            s.name == "cache.get" && s.labels.iter().any(|(k, v)| k == "outcome" && v == "hit")
        });
        let fetch = span_mean_us(&spans, |s| s.name == "loader.fetch");
        assert!(fetch > 0.0, "traced epoch must produce loader.fetch spans");
        best_hit = best_hit.min(hit);
        best_fetch = best_fetch.min(fetch);
    }
    (best_hit, best_fetch)
}

fn main() {
    let ledger = Ledger::from_args("payload_bench", "BENCH_6.json");

    let parse = chunk_parse_ns();
    let hit = cache_hit_read_ns();
    let merged = merged_read_us_per_file();
    let epoch = loader_epoch_ms();
    let (kv_put, kv_get) = kv_ops_ns();
    let (span_hit, span_fetch) = traced_span_means();

    let current = [
        ("chunk_parse_ns", parse),
        ("cache_hit_read_ns", hit),
        ("merged_read_us_per_file", merged),
        ("loader_epoch_ms", epoch),
        ("kv_put_ns", kv_put),
        ("kv_get_ns", kv_get),
        ("span_cache_get_hit_us", span_hit),
        ("span_loader_fetch_us", span_fetch),
    ];
    // Wall-clock time on a shared host is not gated against an absolute
    // baseline; BENCHMARK.json's `per_layer` metrics compare the same
    // paths paired against the parent commit.
    ledger.record(&current, 26, |_| false);
}
