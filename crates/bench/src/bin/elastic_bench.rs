//! Elastic-membership benchmark gate: the fixed suite behind
//! `BENCH_8.json`.
//!
//! The elastic cache plane (DESIGN.md §13) earns its keep on three
//! numbers, pinned here:
//!
//! * `ring_lookup_ns` — [`HashRing::owner_of`], the per-read placement
//!   cost every `get_file` now pays instead of a `HashMap` probe
//! * `rebalance_4_to_8_ms` — wall time for a warm 4-node cache to grow
//!   to 8 (peer warm handoff for every moved chunk)
//! * `rebalance_8_to_4_ms` — the matching shrink: leavers drain into
//!   survivors
//! * `store_read_amplification` — backing-store chunk reads for
//!   warmup + grow + shrink, divided by the dataset's chunk count.
//!   The peer-to-peer handoff keeps this at 1.0 (each chunk read once,
//!   ever); the `naive_rewarm_amplification` key records what
//!   re-warming moved chunks from the store would have cost instead.
//!
//! Results land in the [`diesel_bench::ledger`] file `BENCH_8.json`;
//! `--check` ratchets the two amplification keys against `baseline`.

use std::sync::Arc;
use std::time::Instant;

use diesel_bench::ledger::Ledger;
use diesel_cache::{CacheConfig, CachePolicy, HashRing, TaskCache, Topology};
use diesel_chunk::{ChunkBuilderConfig, ChunkId, ChunkIdGenerator, ChunkWriter};
use diesel_kv::ShardedKv;
use diesel_meta::recovery::chunk_object_key;
use diesel_meta::MetaService;
use diesel_store::{MemObjectStore, ObjectStore};

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

fn ring_lookup_ns() -> f64 {
    let ring = HashRing::contiguous(8).unwrap();
    let gen = ChunkIdGenerator::deterministic(3, 3, 33);
    let chunks: Vec<ChunkId> = (0..4096).map(|_| gen.next_id()).collect();
    best_ns_per_iter(5, 50, || {
        let mut acc = 0usize;
        for &c in &chunks {
            acc = acc.wrapping_add(ring.owner_of(c));
        }
        assert!(acc < usize::MAX);
    }) / 4096.0
}

/// A packed synthetic dataset: store + its chunk ids.
fn packed_dataset(files: usize) -> (Arc<MemObjectStore>, Vec<ChunkId>) {
    let store = Arc::new(MemObjectStore::new());
    let svc = MetaService::new(Arc::new(ShardedKv::new()));
    let ids = ChunkIdGenerator::deterministic(8, 8, 88);
    let cfg = ChunkBuilderConfig { target_chunk_size: 64 << 10, ..Default::default() };
    let mut w = ChunkWriter::new(cfg, &ids).with_clock(|| 1);
    for i in 0..files {
        w.add_file(&format!("f{i:05}"), &[(i % 251) as u8; 4096]).unwrap();
    }
    for sealed in w.finish() {
        store.put(&chunk_object_key("ds", sealed.header.id), sealed.bytes.clone()).unwrap();
        svc.ingest_chunk("ds", &sealed.header, sealed.bytes.len() as u64).unwrap();
    }
    let snap = svc.build_snapshot("ds").unwrap();
    (store, snap.chunks)
}

fn warm_cache(
    store: &Arc<MemObjectStore>,
    chunks: &[ChunkId],
    nodes: usize,
) -> TaskCache<MemObjectStore> {
    let cache = TaskCache::new(
        Topology::uniform(nodes, 1).unwrap(),
        store.clone(),
        "ds",
        chunks.to_vec(),
        CacheConfig { capacity_bytes_per_node: 1 << 30, policy: CachePolicy::Oneshot },
    )
    .unwrap();
    cache.prefetch_all().unwrap();
    cache
}

/// `(grow_ms, shrink_ms, amplification, naive_amplification)` for the
/// 4→8→4 membership dance over a warm cache.
fn rebalance_suite() -> (f64, f64, f64, f64) {
    let (store, chunks) = packed_dataset(2048);
    let mut grow_ms = f64::INFINITY;
    let mut shrink_ms = f64::INFINITY;
    let mut amp = 0.0;
    let mut naive_amp = 0.0;
    for _ in 0..3 {
        let cache = warm_cache(&store, &chunks, 4);
        let warm_loads = cache.metrics().chunk_loads();
        assert_eq!(warm_loads, chunks.len() as u64);

        let t0 = Instant::now();
        let up = cache.resize(8).unwrap();
        grow_ms = grow_ms.min(t0.elapsed().as_nanos() as f64 / 1e6);
        assert_eq!(up.store_fallbacks, 0, "warm grow must be all peer handoffs");

        let t0 = Instant::now();
        let down = cache.resize(4).unwrap();
        shrink_ms = shrink_ms.min(t0.elapsed().as_nanos() as f64 / 1e6);
        assert_eq!(down.store_fallbacks, 0);

        // Store reads over warmup + both rebalances, per unique chunk.
        amp = cache.metrics().chunk_loads() as f64 / chunks.len() as f64;
        // A naive rebalance re-warms every moved chunk from the store.
        naive_amp = (warm_loads + up.chunks_moved + down.chunks_moved) as f64 / chunks.len() as f64;
    }
    (grow_ms, shrink_ms, amp, naive_amp)
}

fn main() {
    let ledger = Ledger::from_args("elastic_bench", "BENCH_8.json");

    let lookup = ring_lookup_ns();
    let (grow, shrink, amp, naive_amp) = rebalance_suite();

    let current = [
        ("ring_lookup_ns", lookup),
        ("rebalance_4_to_8_ms", grow),
        ("rebalance_8_to_4_ms", shrink),
        ("store_read_amplification", amp),
        ("naive_rewarm_amplification", naive_amp),
    ];
    // The amplification ratios are deterministic counts and ratchet;
    // the wall-clock keys are recorded, not gated.
    ledger.record(&current, 28, |k| k.ends_with("_amplification"));
}
