//! Direct timed calls into public functions, on a quiescent untraced
//! rig. These pin the signatures listed in the crate README.
//!
//! Every probe times *groups* of calls (one clock pair per group) and
//! reports the median group, so the clock read does not pollute
//! nanosecond-scale numbers.

use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use diesel_cache::{CacheConfig, CachePolicy, TaskCache, Topology};
use diesel_chunk::{ChunkBuilder, ChunkBuilderConfig, ChunkIdGenerator, ChunkView};
use diesel_core::plan_chunk_reads;
use diesel_exec::WorkPool;
use diesel_meta::recovery::chunk_object_key;
use diesel_meta::FileMeta;
use diesel_store::ObjectStore;
use diesel_train::DataLoader;

use crate::gen::BATCH;
use crate::stack::{Cache, Rig, Workload, CACHE_NODES, DATASET};
use crate::stats::{median, Stat};
use crate::workloads::{read_loader, Stop};

/// Everything the probes measured; `Stat::NONE` where a probe does not
/// apply to the workload's stack.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probes {
    /// `DieselClient::epoch_file_list`, milliseconds per call.
    pub epoch_plan_ms: Stat,
    /// `DieselClient::stat` against the snapshot, ns per call.
    pub stat_ns: Stat,
    /// `DieselServer::stat` against the KV, ns per call.
    pub server_lookup_ns: Stat,
    /// `TaskCache::get_file` on a resident chunk, one thread.
    pub hit_ns: Stat,
    /// The same from two threads at once.
    pub hit_ns_2t: Stat,
    /// `TaskCache::get_file` on a non-resident chunk, undelayed store.
    pub fill_ms_per_chunk: Stat,
    /// `ChunkView::parse` of one stored chunk, microseconds.
    pub parse_us: Stat,
    /// `ChunkBuilder::add_file` × N + `seal`, MB/s.
    pub build_mb_per_s: Stat,
    /// `plan_chunk_reads` over one batch, ns per file.
    pub plan_ns_per_file: Stat,
    /// `AdmissionController::admit` + permit drop, ns.
    pub admit_ns: Stat,
    /// Loader epoch rate on resident data: inline pool ÷ 2-worker pool.
    pub pipeline_overhead_ratio: Stat,
}

/// Calls per timed group.
const GROUP: usize = 1_000;

/// Time `call(i)` for `i in 0..n` in groups of [`GROUP`]; the median
/// group's nanoseconds per call.
fn per_call_ns<B: ObjectStore + 'static>(
    rig: &Rig<B>,
    n: usize,
    mut call: impl FnMut(usize),
) -> Stat {
    let mut groups = Vec::new();
    let mut i = 0;
    while i < n {
        let len = GROUP.min(n - i);
        let t0 = rig.clock.now_ns();
        (i..i + len).for_each(&mut call);
        groups.push((rig.clock.now_ns() - t0) as f64 / len as f64);
        i += len;
    }
    median(&groups)
}

/// A cache over the rig's store with room for everything (`resident`)
/// or for about one chunk per node.
fn cache_over<B: ObjectStore + 'static>(rig: &Rig<B>, resident: bool) -> Option<Arc<Cache<B>>> {
    let chunks = rig.server.meta().chunk_ids(DATASET).ok()?;
    let one_chunk = rig.store.total_bytes() / chunks.len().max(1) as u64;
    let config = if resident {
        CacheConfig { capacity_bytes_per_node: 8 << 30, policy: CachePolicy::Oneshot }
    } else {
        CacheConfig { capacity_bytes_per_node: one_chunk * 3 / 2, policy: CachePolicy::OnDemand }
    };
    let cache = TaskCache::with_registry(
        Topology::uniform(CACHE_NODES, 1).ok()?,
        Arc::clone(&rig.store),
        DATASET,
        chunks,
        config,
        // A private registry: probe traffic must not show up in the
        // workload's own `cache.*` counters.
        Arc::default(),
    )
    .ok()?
    .with_pool(rig.pool.clone());
    if resident {
        cache.prefetch_all().ok()?;
    }
    Some(Arc::new(cache))
}

/// Run every probe the rig's stack supports. Leaves the rig with the
/// store's modelled delay switched off and, for the loader workload, a
/// resident cache attached — call it last.
pub fn run<B: ObjectStore + 'static>(rig: &Rig<B>) -> Probes {
    let mut out = Probes::default();
    rig.ctl.delay.store(false, Relaxed);
    let clock = &rig.clock;
    let timed_ms = |call: &mut dyn FnMut()| {
        let t0 = clock.now_ns();
        call();
        (clock.now_ns() - t0) as f64 / 1e6
    };

    // One epoch order doubles as the sample of paths every probe uses.
    let mut order = Vec::new();
    let plans: Vec<f64> = (0..3)
        .map(|e| {
            timed_ms(&mut || {
                order = rig.client.epoch_file_list(rig.seed, 900 + e).unwrap_or_default()
            })
        })
        .collect();
    out.epoch_plan_ms = median(&plans);
    let sample = &order[..order.len().min(16 * GROUP)];
    if sample.is_empty() {
        return out;
    }
    let metas: Vec<FileMeta> = sample.iter().filter_map(|p| rig.client.stat(p).ok()).collect();

    let has_cache = rig.cache.is_some();
    if has_cache {
        out.stat_ns = per_call_ns(rig, sample.len(), |i| {
            std::hint::black_box(rig.client.stat(&sample[i]).is_ok());
        });
    } else {
        out.server_lookup_ns = per_call_ns(rig, sample.len(), |i| {
            std::hint::black_box(rig.server.stat(DATASET, &sample[i]).is_ok());
        });
        let batch = &metas[..metas.len().min(BATCH)];
        out.plan_ns_per_file = per_call_ns(rig, 4 * GROUP, |_| {
            std::hint::black_box(plan_chunk_reads(batch).len());
        })
        .scaled(1.0 / batch.len() as f64);
    }
    if let Some(admission) = rig.server.admission() {
        out.admit_ns = per_call_ns(rig, 16 * GROUP, |_| {
            std::hint::black_box(admission.admit(DATASET).is_ok());
        });
    }

    if has_cache {
        let resident = if rig.workload == Workload::ConstrainedLoader {
            cache_over(rig, true)
        } else {
            rig.cache.clone()
        };
        if let Some(cache) = &resident {
            let hit = |i: usize| {
                std::hint::black_box(cache.get_file(&metas[i % metas.len()]).is_ok());
            };
            out.hit_ns = per_call_ns(rig, 4 * metas.len(), hit);
            let both = std::thread::scope(|s| {
                let other =
                    s.spawn(|| per_call_ns(rig, 4 * metas.len(), |i| hit(i + metas.len() / 2)));
                let mine = per_call_ns(rig, 4 * metas.len(), hit);
                [mine, other.join().unwrap_or(Stat::NONE)]
            });
            out.hit_ns_2t =
                Stat { value: (both[0].value + both[1].value) / 2.0, n: both[0].n + both[1].n };
        }
        if let Some(cold) = cache_over(rig, false) {
            // One file per chunk, chunk after chunk: every call is a
            // miss that loads, parses, installs and (soon) evicts.
            let mut firsts: Vec<FileMeta> = Vec::new();
            for meta in &metas {
                if !firsts.iter().any(|f| f.chunk == meta.chunk) {
                    firsts.push(*meta);
                }
            }
            let fills: Vec<f64> = firsts
                .iter()
                .take(64)
                .map(|meta| timed_ms(&mut || drop(std::hint::black_box(cold.get_file(meta)))))
                .collect();
            out.fill_ms_per_chunk = median(&fills);
        }
        if let Ok(bytes) = rig.store.get(&chunk_object_key(DATASET, metas[0].chunk)) {
            let parses: Vec<f64> = (0..20)
                .map(|_| {
                    1e3 * timed_ms(&mut || {
                        drop(std::hint::black_box(ChunkView::parse(bytes.clone())))
                    })
                })
                .collect();
            out.parse_us = median(&parses);
        }
        if let (Workload::ConstrainedLoader, Some(cache)) = (rig.workload, resident) {
            rig.client.attach_cache(cache);
            let rate = |pool: WorkPool| {
                let loader = DataLoader::new(Arc::clone(&rig.client), BATCH, rig.seed)
                    .with_pool(pool)
                    .with_prefetch_depth(4);
                let stats = read_loader(rig, &loader, 800, 0, &Stop::epochs(2));
                stats.epochs.last().map_or(0.0, |e| e.files as f64 / e.wall_ns.max(1) as f64)
            };
            let (inline, pooled) = (rate(WorkPool::inline("bench-inline")), rate(rig.pool.clone()));
            if pooled > 0.0 {
                out.pipeline_overhead_ratio = Stat::one(inline / pooled);
            }
        }
    }

    if rig.workload == Workload::IngestBesideReads {
        let ids = ChunkIdGenerator::deterministic(rig.seed, 3, 3_000);
        let config =
            ChunkBuilderConfig { target_chunk_size: rig.scale.chunk_bytes, ..Default::default() };
        let mut files = rig.ingest.files.iter().zip(&rig.ingest_bytes).cycle();
        let builds: Vec<f64> = (0..8)
            .map(|_| {
                let mut builder = ChunkBuilder::new(config.clone());
                let mut bytes = 0usize;
                let ms = timed_ms(&mut || {
                    for (spec, data) in files.by_ref() {
                        if builder.would_overflow(spec.path.len(), data.len()) {
                            break;
                        }
                        if builder.add_file(&spec.path, data).is_ok() {
                            bytes += data.len();
                        }
                    }
                    let full = std::mem::replace(&mut builder, ChunkBuilder::new(config.clone()));
                    std::hint::black_box(full.seal(ids.next_id(), 0).1.len());
                });
                bytes as f64 / 1e6 / (ms / 1e3).max(1e-9)
            })
            .collect();
        out.build_mb_per_s = median(&builds);
    }
    out
}
