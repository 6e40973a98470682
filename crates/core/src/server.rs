//! The DIESEL server: unified data + metadata front over the object
//! store and the KV database (Fig. 2).

use std::collections::HashMap;
use std::sync::Arc;

use diesel_chunk::format::HEADER_LEN_PREFIX;
use diesel_chunk::{
    compact_chunk, mark_deleted, ChunkHeader, ChunkIdGenerator, ChunkView, SealedChunk,
};
use diesel_exec::WorkPool;
use diesel_kv::KvStore;
use diesel_meta::recovery::{
    chunk_object_key, recover_from_timestamp, recover_full, RecoveryReport,
};
use diesel_meta::{FileMeta, MetaService, MetaSnapshot};
use diesel_obs::{trace, Counter, Registry, RegistrySnapshot, Tracer};
use diesel_store::{Bytes, ObjectStore};
use diesel_util::Mutex;

use crate::admission::{AdmissionConfig, AdmissionController};
use crate::executor::plan_chunk_reads;
use crate::{DieselError, Result};

/// Statistics of a purge (`DL_purge`) sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PurgeReport {
    /// Chunks rewritten.
    pub chunks_compacted: u64,
    /// Chunks removed entirely (all files deleted).
    pub chunks_removed: u64,
    /// Payload bytes reclaimed.
    pub bytes_reclaimed: u64,
}

/// Per-server executor counters, registered under `server.*`. The
/// read-path counter `server.file_reads` is *not* held here: it carries
/// a `{dataset=…}` label per tenant and is resolved from the registry at
/// the call site, so per-tenant QPS is attributable and cluster totals
/// come from `sum_counter`.
struct Metrics {
    chunks_ingested: Counter,
    merged_reads: Counter,
    merged_requests: Counter,
    purge_chunks_compacted: Counter,
    purge_chunks_removed: Counter,
    purge_bytes_reclaimed: Counter,
}

impl Metrics {
    fn new(registry: &Registry) -> Self {
        Metrics {
            chunks_ingested: registry.counter("server.chunks_ingested", &[]),
            merged_reads: registry.counter("server.merged_reads", &[]),
            merged_requests: registry.counter("server.merged_requests", &[]),
            purge_chunks_compacted: registry.counter("server.purge.chunks_compacted", &[]),
            purge_chunks_removed: registry.counter("server.purge.chunks_removed", &[]),
            purge_bytes_reclaimed: registry.counter("server.purge.bytes_reclaimed", &[]),
        }
    }
}

/// The DIESEL server.
pub struct DieselServer<K, S> {
    meta: MetaService<K>,
    store: Arc<S>,
    ids: ChunkIdGenerator,
    // Chunk header lengths by object key. A chunk's header length is
    // immutable for the object's lifetime (bitmap flips rewrite bytes in
    // place without resizing the header), so caching it removes the
    // 4-byte probe read that used to precede every payload read.
    header_lens: Mutex<HashMap<String, u64>>,
    registry: Arc<Registry>,
    metrics: Metrics,
    pool: WorkPool,
    tracer: Tracer,
    admission: Option<AdmissionController>,
}

impl<K: KvStore, S: ObjectStore> DieselServer<K, S> {
    /// Deploy a server over the given KV database and object store, with
    /// a private metrics registry.
    pub fn new(kv: Arc<K>, store: Arc<S>) -> Self {
        Self::with_registry(kv, store, Arc::new(Registry::default()))
    }

    /// Deploy a server whose `server.*` counters land in `registry`.
    pub fn with_registry(kv: Arc<K>, store: Arc<S>, registry: Arc<Registry>) -> Self {
        let metrics = Metrics::new(&registry);
        let tracer = Tracer::new(&registry);
        DieselServer {
            meta: MetaService::new(kv),
            store,
            ids: ChunkIdGenerator::new(),
            header_lens: Mutex::named("core.server_headers", HashMap::new()),
            registry,
            metrics,
            pool: diesel_exec::global().clone(),
            tracer,
            admission: None,
        }
    }

    /// Gate tenant-carrying requests behind an admission controller
    /// (per-tenant token bucket + global concurrency cap + DRR
    /// fair-share queue, DESIGN.md §14) whose `server.tenant.*` metrics
    /// land in this server's registry.
    pub fn with_admission(mut self, cfg: AdmissionConfig) -> Self {
        self.admission = Some(AdmissionController::with_registry(cfg, Arc::clone(&self.registry)));
        self
    }

    /// The admission controller gating this server's tenant requests,
    /// if one is installed.
    pub fn admission(&self) -> Option<&AdmissionController> {
        self.admission.as_ref()
    }

    /// Execute merged read plans on `pool` instead of the process-wide
    /// [`diesel_exec::global()`] pool (e.g. an inline pool for
    /// deterministic tests, or a pool sharing this server's registry
    /// for unified `exec.*` metrics).
    pub fn with_pool(mut self, pool: WorkPool) -> Self {
        self.pool = pool;
        self
    }

    /// Record request handling into `tracer` instead of the default
    /// `DIESEL_TRACE`-configured one — e.g. a [`Tracer::enabled`] shared
    /// with the client side so one drain yields the whole request tree.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// The tracer recording this server's `server.*` spans; drained
    /// remotely via `ServerRequest::Trace`.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The metadata service.
    pub fn meta(&self) -> &MetaService<K> {
        &self.meta
    }

    /// The backing object store.
    pub fn store(&self) -> &Arc<S> {
        &self.store
    }

    /// The registry holding this server's `server.*` counters.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The full observability picture through this server: its own
    /// `server.*` counters merged with the KV database's `kv.*` and the
    /// object store's `store.*` metrics, when those layers keep
    /// registries. Served remotely as `ServerRequest::Stats`.
    pub fn stats_snapshot(&self) -> RegistrySnapshot {
        let mut snap = self.registry.snapshot();
        if let Some(kv) = self.meta.kv().obs_snapshot() {
            snap.merge(&kv);
        }
        if let Some(store) = self.store.obs_snapshot() {
            snap.merge(&store);
        }
        snap
    }

    // ---- write flow (Fig. 3) ----

    /// Receive one sealed chunk from a client: persist the chunk bytes
    /// and extract its metadata into the KV database. Takes the chunk
    /// by value so the payload moves straight into the store's
    /// refcounted [`Bytes`] without a copy. This is how a dataset comes
    /// into being, so a name that is empty or contains `/` is refused
    /// here ([`DieselError::BadDataset`]) before anything is written.
    pub fn ingest_chunk(&self, dataset: &str, chunk: SealedChunk) -> Result<()> {
        check_dataset(dataset)?;
        let SealedChunk { header, bytes } = chunk;
        let key = chunk_object_key(dataset, header.id);
        let size = bytes.len() as u64;
        self.store.put(&key, bytes)?;
        self.meta.ingest_chunk(dataset, &header, size)?;
        self.header_lens.lock().insert(key, header.header_len as u64);
        self.metrics.chunks_ingested.inc();
        Ok(())
    }

    /// The header length of the chunk object at `key`, probed once and
    /// cached (the chunk format owns where in the prefix it sits).
    fn chunk_header_len(&self, key: &str) -> Result<u64> {
        if let Some(&len) = self.header_lens.lock().get(key) {
            return Ok(len);
        }
        let prefix = self.store.get_range(key, 0, HEADER_LEN_PREFIX)?;
        let len = u64::from(ChunkHeader::peek_header_len(&prefix)?);
        self.header_lens.lock().insert(key.to_owned(), len);
        Ok(len)
    }

    // ---- read flow (Fig. 4) ----

    /// Read one file by path (metadata lookup + range read).
    pub fn read_file(&self, dataset: &str, path: &str) -> Result<Bytes> {
        let meta = self.meta.file_meta(dataset, path)?;
        self.read_by_meta(dataset, &meta)
    }

    /// Read one file when the caller already holds its metadata (clients
    /// with a snapshot skip the server-side lookup entirely).
    pub fn read_by_meta(&self, dataset: &str, meta: &FileMeta) -> Result<Bytes> {
        self.registry.counter("server.file_reads", &[("dataset", dataset)]).inc();
        let key = chunk_object_key(dataset, meta.chunk);
        // The payload offset is relative to the chunk payload; the chunk
        // header precedes it.
        let header_len = self.chunk_header_len(&key)?;
        let _span = if trace::active() {
            trace::span("store.get_range", &[("key", key.as_str())])
        } else {
            trace::SpanGuard::default()
        };
        let (start, len) = object_range(header_len, meta.offset, meta.length)
            .ok_or_else(|| DieselError::Client(format!("file range overflows chunk {key}")))?;
        Ok(self.store.get_range(&key, start, len)?)
    }

    /// Batched read with the request executor: requests are sorted and
    /// merged into one ranged read per chunk (Fig. 2). The paths resolve
    /// with one KV `mget` for the whole batch. Results come back in the
    /// original request order.
    pub fn read_files_merged(&self, dataset: &str, paths: &[&str]) -> Result<Vec<Bytes>> {
        // One batch: a merged read is never visible without its request
        // count, so `merged_requests / merged_reads` is a sound average.
        self.registry.batch(|| {
            self.metrics.merged_reads.inc();
            self.metrics.merged_requests.add(paths.len() as u64);
        });
        let metas = self.meta.file_metas(dataset, paths)?;
        let plans = plan_chunk_reads(&metas);
        // Execute the per-chunk plans concurrently on the work pool; the
        // slices land in request-order slots, so the response (and the
        // first error, if any, in plan order) is identical to the serial
        // loop for any worker count.
        let plan_slices = self.pool.try_map(plans, |_, plan| {
            let key = chunk_object_key(dataset, plan.chunk);
            // Per-plan span: the work pool carries the handler's trace
            // context onto whichever worker runs this plan.
            let _span = if trace::active() {
                let n = plan.requests.len().to_string();
                trace::span("server.plan_read", &[("key", key.as_str()), ("files", n.as_str())])
            } else {
                trace::SpanGuard::default()
            };
            let header_len = self.chunk_header_len(&key)?;
            // One merged read covering every requested byte in the chunk.
            let base = plan.min_offset();
            let (start, span) = plan
                .merged_span()
                .and_then(|span| object_range(header_len, base, span))
                .ok_or_else(|| DieselError::Client(format!("file range overflows chunk {key}")))?;
            let merged = self.store.get_range(&key, start, span)?;
            let mut slices = Vec::with_capacity(plan.requests.len());
            for (idx, meta) in &plan.requests {
                let start = (meta.offset - base) as usize;
                let end = start + meta.length as usize;
                if end > merged.len() {
                    return Err(DieselError::Client(format!(
                        "merged read short for request {idx}"
                    )));
                }
                slices.push((*idx, merged.slice(start..end)));
            }
            Ok(slices)
        })?;
        let mut out: Vec<Option<Bytes>> = vec![None; paths.len()];
        for (idx, bytes) in plan_slices.into_iter().flatten() {
            if let Some(slot) = out.get_mut(idx) {
                *slot = Some(bytes);
            }
        }
        out.into_iter()
            .enumerate()
            .map(|(idx, b)| {
                b.ok_or_else(|| {
                    DieselError::Client(format!("request {idx} not covered by any read plan"))
                })
            })
            .collect()
    }

    // ---- metadata passthrough ----

    /// `stat` by path.
    pub fn stat(&self, dataset: &str, path: &str) -> Result<FileMeta> {
        Ok(self.meta.file_meta(dataset, path)?)
    }

    /// Materialize the dataset's metadata snapshot (what clients
    /// download).
    pub fn build_snapshot(&self, dataset: &str) -> Result<MetaSnapshot> {
        Ok(self.meta.build_snapshot(dataset)?)
    }

    // ---- mutation & housekeeping ----

    /// Delete one file: metadata removal + in-place bitmap flip in the
    /// stored chunk (so chunks stay self-contained for recovery).
    pub fn delete_file(&self, dataset: &str, path: &str, now_ms: u64) -> Result<()> {
        let meta = self.meta.delete_file(dataset, path, now_ms)?;
        let key = chunk_object_key(dataset, meta.chunk);
        // The store keeps its own reference, so `into_vec` materialises a
        // private copy of the chunk for the in-place bitmap flip — a
        // deliberate write-path copy, ledgered as such.
        let shared = self.store.get(&key)?;
        diesel_obs::record_copy("delete_rewrite", shared.len() as u64);
        let mut bytes = shared.into_vec();
        mark_deleted(&mut bytes, path)?;
        self.store.put(&key, Bytes::from(bytes))?;
        Ok(())
    }

    /// `DL_purge`: rewrite chunks with deletion holes, dropping dead
    /// bytes; fully-deleted chunks are removed.
    pub fn purge_dataset(&self, dataset: &str, now_ms: u64) -> Result<PurgeReport> {
        let mut report = PurgeReport::default();
        for id in self.meta.chunk_ids(dataset)? {
            let record = self.meta.chunk_record(dataset, id)?;
            if record.deleted_count() == 0 {
                continue;
            }
            let key = chunk_object_key(dataset, id);
            let old = ChunkView::parse(self.store.get(&key)?)?;
            let Some((new_header, new_bytes, stats)) = compact_chunk(&old, &self.ids, now_ms)?
            else {
                continue;
            };
            report.bytes_reclaimed += stats.reclaimed_bytes;
            // Remove the old chunk's contribution to the dataset counters;
            // the re-ingest below adds the rewritten chunk's back.
            self.meta.adjust_dataset_counters(
                dataset,
                -1,
                -(stats.live_files as i64),
                // The compacted payload is exactly the old chunk's live bytes.
                -(new_header.payload_len as i64),
                now_ms,
            )?;
            // Remove the old chunk object and record. File records were
            // already removed at delete time; live files need re-pointing
            // to the new chunk, which re-ingest performs.
            self.store.delete(&key)?;
            self.header_lens.lock().remove(&key);
            self.meta
                .kv()
                .delete(&diesel_meta::keys::chunk_key(dataset, id))
                .map_err(diesel_meta::MetaError::Kv)?;
            if new_header.file_count() == 0 {
                report.chunks_removed += 1;
                // Nothing left to store; adjust the dataset chunk count.
                continue;
            }
            let new_key = chunk_object_key(dataset, new_header.id);
            let new_len = new_bytes.len() as u64;
            self.store.put(&new_key, Bytes::from(new_bytes))?;
            self.meta.ingest_chunk(dataset, &new_header, new_len)?;
            report.chunks_compacted += 1;
        }
        self.registry.batch(|| {
            self.metrics.purge_chunks_compacted.add(report.chunks_compacted);
            self.metrics.purge_chunks_removed.add(report.chunks_removed);
            self.metrics.purge_bytes_reclaimed.add(report.bytes_reclaimed);
        });
        Ok(report)
    }

    /// `DL_delete_dataset`: drop every chunk object and metadata key.
    pub fn delete_dataset(&self, dataset: &str) -> Result<u64> {
        let mut removed = 0u64;
        let prefix = format!("{dataset}/");
        for key in self.store.list_prefix(&prefix) {
            if self.store.delete(&key)? {
                removed += 1;
            }
        }
        self.header_lens.lock().retain(|k, _| !k.starts_with(&prefix));
        self.meta.delete_dataset(dataset)?;
        Ok(removed)
    }

    // ---- fault recovery (§4.1.2) ----

    /// Rebuild all of `dataset`'s metadata from chunk headers (power
    /// loss, scenario b).
    pub fn recover_metadata_full(&self, dataset: &str) -> Result<RecoveryReport> {
        Ok(recover_full(&self.meta, self.store.as_ref(), dataset)?)
    }

    /// Rebuild metadata for chunks written at/after `since_secs`
    /// (scenario a).
    pub fn recover_metadata_since(&self, dataset: &str, since_secs: u32) -> Result<RecoveryReport> {
        Ok(recover_from_timestamp(&self.meta, self.store.as_ref(), dataset, since_secs)?)
    }
}

/// Refuse a dataset name that would alias another dataset's keys: every
/// KV key and chunk object is named `…/{dataset}/…`, so dataset `a/b`'s
/// file `y` and dataset `a`'s file `b/y` would share one, and dropping
/// `a` would drop `a/b` too. [`DieselServer::handle`] applies it to every
/// request that names a dataset, and [`DieselServer::ingest_chunk`] to
/// every chunk, since a dataset comes into being there.
pub(crate) fn check_dataset(dataset: &str) -> Result<()> {
    if dataset.is_empty() || dataset.contains('/') {
        return Err(DieselError::BadDataset(dataset.to_owned()));
    }
    Ok(())
}

/// The object range `header_len + offset ‖ length` of a payload read.
/// `None` when the arithmetic overflows: file metadata arrives from
/// snapshots loaded off disk and is not trusted to describe a real range.
fn object_range(header_len: u64, offset: u64, length: u64) -> Option<(u64, usize)> {
    let start = header_len.checked_add(offset)?;
    start.checked_add(length)?;
    Some((start, usize::try_from(length).ok()?))
}

impl<K, S> std::fmt::Debug for DieselServer<K, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DieselServer").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diesel_chunk::{ChunkBuilder, ChunkBuilderConfig, ChunkWriter};
    use diesel_kv::ShardedKv;
    use diesel_store::MemObjectStore;

    type Server = DieselServer<ShardedKv, MemObjectStore>;

    fn server() -> Server {
        DieselServer::new(Arc::new(ShardedKv::new()), Arc::new(MemObjectStore::new()))
    }

    /// Seal `files` into chunks whose ids are unique to `writer`.
    fn seal(files: &[(&str, Vec<u8>)], chunk_size: usize, writer: u32) -> Vec<SealedChunk> {
        let ids = ChunkIdGenerator::deterministic(1, writer, 1_000);
        let cfg = ChunkBuilderConfig { target_chunk_size: chunk_size, ..Default::default() };
        let mut w = ChunkWriter::new(cfg, &ids).with_clock(|| 1_000_000);
        for (n, d) in files {
            w.add_file(n, d).unwrap();
        }
        w.finish()
    }

    fn ingest_files<K: KvStore>(
        s: &DieselServer<K, MemObjectStore>,
        dataset: &str,
        files: &[(&str, Vec<u8>)],
        chunk_size: usize,
    ) {
        for sealed in seal(files, chunk_size, 1) {
            s.ingest_chunk(dataset, sealed).unwrap();
        }
    }

    fn file(i: usize, len: usize) -> (String, Vec<u8>) {
        (format!("d{}/f{i:03}", i % 3), vec![(i % 251) as u8; len])
    }

    #[test]
    fn write_then_read_roundtrip() {
        let s = server();
        let files: Vec<(String, Vec<u8>)> = (0..30).map(|i| file(i, 100)).collect();
        let refs: Vec<(&str, Vec<u8>)> =
            files.iter().map(|(n, d)| (n.as_str(), d.clone())).collect();
        ingest_files(&s, "ds", &refs, 1024);
        for (n, d) in &files {
            assert_eq!(s.read_file("ds", n).unwrap().as_ref(), &d[..], "{n}");
        }
        assert!(matches!(s.read_file("ds", "ghost"), Err(DieselError::Meta(_))));
        let rec = s.meta().dataset_record("ds").unwrap();
        assert_eq!(rec.file_count, 30);
        assert!(rec.chunk_count > 1);
    }

    #[test]
    fn a_dataset_named_with_a_slash_cannot_repoint_another_datasets_file() {
        let s = server();
        ingest_files(&s, "a", &[("b/y.bin", vec![1; 40])], 1024);
        // `a/b`'s `y.bin` would be keyed `f/a/b/y.bin`, which is `a`'s `b/y.bin`.
        for sealed in seal(&[("y.bin", vec![2; 40])], 1024, 2) {
            let got = s.ingest_chunk("a/b", sealed);
            assert!(matches!(&got, Err(DieselError::BadDataset(d)) if d == "a/b"), "{got:?}");
        }
        assert_eq!(s.read_file("a", "b/y.bin").unwrap().as_ref(), &[1; 40][..]);
    }

    #[test]
    fn deleting_a_dataset_cannot_reach_a_slash_named_one() {
        use crate::api::ServerRequest;
        let s = server();
        ingest_files(&s, "a", &[("x.bin", vec![1; 40])], 1024);
        for sealed in seal(&[("z.bin", vec![2; 40])], 1024, 2) {
            let got = s.handle(ServerRequest::IngestChunk { dataset: "a/b".into(), chunk: sealed });
            assert!(matches!(&got, Err(DieselError::BadDataset(d)) if d == "a/b"), "{got:?}");
        }
        // `a`'s delete scans the prefix `a/`, so it would also take every
        // chunk and key `a/b` had: only `a`'s own chunk may go.
        assert_eq!(s.delete_dataset("a").unwrap(), 1);
        assert!(s.meta().kv().is_empty());
        for dataset in ["a/b", ""] {
            let got =
                s.handle(ServerRequest::Stat { dataset: dataset.into(), path: "z.bin".into() });
            assert!(matches!(&got, Err(DieselError::BadDataset(d)) if d == dataset), "{got:?}");
        }
    }

    #[test]
    fn merged_reads_equal_individual_reads() {
        let s = server();
        let files: Vec<(String, Vec<u8>)> = (0..40).map(|i| file(i, 64)).collect();
        let refs: Vec<(&str, Vec<u8>)> =
            files.iter().map(|(n, d)| (n.as_str(), d.clone())).collect();
        ingest_files(&s, "ds", &refs, 2048);
        let paths: Vec<&str> = files.iter().map(|(n, _)| n.as_str()).collect();
        let merged = s.read_files_merged("ds", &paths).unwrap();
        assert_eq!(merged.len(), 40);
        for (i, (n, d)) in files.iter().enumerate() {
            assert_eq!(merged[i].as_ref(), &d[..], "merged read of {n}");
        }
    }

    /// Forwards to a [`ShardedKv`], counting point reads and the key
    /// count of every batched read.
    #[derive(Default)]
    struct CountingKv {
        inner: ShardedKv,
        gets: Mutex<usize>,
        mgets: Mutex<Vec<usize>>,
    }

    impl KvStore for CountingKv {
        fn get(&self, key: &str) -> diesel_kv::Result<Option<Bytes>> {
            *self.gets.lock() += 1;
            self.inner.get(key)
        }
        fn mget(&self, keys: &[&str]) -> diesel_kv::Result<Vec<Option<Bytes>>> {
            self.mgets.lock().push(keys.len());
            self.inner.mget(keys)
        }
        fn put(&self, key: &str, value: Bytes) -> diesel_kv::Result<()> {
            self.inner.put(key, value)
        }
        fn delete(&self, key: &str) -> diesel_kv::Result<bool> {
            self.inner.delete(key)
        }
        fn pscan(&self, prefix: &str) -> diesel_kv::Result<Vec<(String, Bytes)>> {
            self.inner.pscan(prefix)
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
    }

    #[test]
    fn a_merged_read_is_one_kv_round() {
        let kv = Arc::new(CountingKv::default());
        let s = DieselServer::new(kv.clone(), Arc::new(MemObjectStore::new()));
        let files: Vec<(String, Vec<u8>)> = (0..64).map(|i| file(i, 64 + i)).collect();
        let refs: Vec<(&str, Vec<u8>)> =
            files.iter().map(|(n, d)| (n.as_str(), d.clone())).collect();
        ingest_files(&s, "ds", &refs, 1024);
        *kv.gets.lock() = 0; // ingest's read-modify-writes
        let paths: Vec<&str> = files.iter().rev().map(|(n, _)| n.as_str()).collect();
        let merged = s.read_files_merged("ds", &paths).unwrap();
        for (got, (n, d)) in merged.iter().zip(files.iter().rev()) {
            assert_eq!(got.as_ref(), &d[..], "{n}");
        }
        assert_eq!((*kv.gets.lock(), kv.mgets.lock().clone()), (0, vec![64]));

        // Two missing paths: the earlier one in request order is reported.
        let got = s.read_files_merged("ds", &[paths[0], "ghost-b", paths[1], "ghost-a"]);
        assert!(
            matches!(&got, Err(DieselError::Meta(diesel_meta::MetaError::NoSuchFile(p))) if p == "ghost-b"),
            "{got:?}"
        );
    }

    #[test]
    fn ingested_chunk_is_stored_self_contained() {
        let s = server();
        ingest_files(&s, "ds", &[("a", vec![1; 10]), ("b", vec![2; 20])], 1 << 20);
        let ids = s.meta().chunk_ids("ds").unwrap();
        assert_eq!(ids.len(), 1);
        let chunk = s.store().get(&chunk_object_key("ds", ids[0])).unwrap();
        let v = ChunkView::parse(chunk).unwrap();
        assert_eq!(v.read_file("a").unwrap(), [1u8; 10][..]);
    }

    #[test]
    fn hostile_file_meta_is_a_typed_error() {
        let s = server();
        ingest_files(&s, "ds", &[("a", vec![1; 10]), ("b", vec![2; 20])], 1 << 20);
        let good = s.stat("ds", "a").unwrap();
        // A second front-end over the same backends starts with no cached
        // header lengths, so its reads also cover the format-owned probe.
        let fresh: Server = DieselServer::new(s.meta().kv().clone(), s.store().clone());
        assert_eq!(fresh.read_by_meta("ds", &good).unwrap(), [1u8; 10][..]);
        // Metadata as a corrupt KV record or snapshot would supply it:
        // neither an overflow panic nor header bytes served as content.
        for (i, (offset, length)) in
            [(u64::MAX, 1), (u64::MAX - 60, 8), (1, u64::MAX), (u64::MAX, u64::MAX)]
                .into_iter()
                .enumerate()
        {
            let bad = FileMeta { offset, length, ..good };
            for srv in [&s, &fresh] {
                let got = srv.read_by_meta("ds", &bad);
                assert!(matches!(got, Err(DieselError::Client(_))), "{offset}+{length}: {got:?}");
            }
            let path = format!("evil{i}");
            let key = diesel_meta::keys::file_key("ds", &path);
            s.meta().kv().put(&key, bad.encode().into()).unwrap();
            let got = fresh.read_files_merged("ds", &["a", &path, "b"]);
            assert!(matches!(got, Err(DieselError::Client(_))), "{offset}+{length}: {got:?}");
        }
        let both = fresh.read_files_merged("ds", &["b", "a"]).unwrap();
        assert_eq!((both[0].len(), both[1].len()), (20, 10));
    }

    #[test]
    fn delete_then_purge_reclaims_space() {
        let s = server();
        let files: Vec<(String, Vec<u8>)> = (0..12).map(|i| file(i, 500)).collect();
        let refs: Vec<(&str, Vec<u8>)> =
            files.iter().map(|(n, d)| (n.as_str(), d.clone())).collect();
        ingest_files(&s, "ds", &refs, 2048);
        let before_bytes = s.store().total_bytes();

        s.delete_file("ds", &files[0].0, 2_000_000).unwrap();
        s.delete_file("ds", &files[1].0, 2_000_001).unwrap();
        assert!(s.read_file("ds", &files[0].0).is_err());

        let report = s.purge_dataset("ds", 2_000_002).unwrap();
        assert!(report.chunks_compacted >= 1);
        assert_eq!(report.bytes_reclaimed, 1000);
        assert!(s.store().total_bytes() < before_bytes);

        // Remaining files still readable after compaction re-pointing.
        for (n, d) in files.iter().skip(2) {
            assert_eq!(s.read_file("ds", n).unwrap().as_ref(), &d[..], "{n} after purge");
        }
        // Purge again: nothing to do.
        let again = s.purge_dataset("ds", 2_000_003).unwrap();
        assert_eq!(again, PurgeReport::default());
    }

    #[test]
    fn purge_removes_fully_deleted_chunks() {
        let s = server();
        // One chunk with exactly two files; delete both.
        let ids = ChunkIdGenerator::deterministic(2, 2, 500);
        let mut b = ChunkBuilder::with_default_config();
        b.add_file("x", b"xx").unwrap();
        b.add_file("y", b"yy").unwrap();
        let (header, bytes) = b.seal(ids.next_id(), 1);
        s.ingest_chunk("ds", SealedChunk { header, bytes: bytes.into() }).unwrap();
        s.delete_file("ds", "x", 2).unwrap();
        s.delete_file("ds", "y", 3).unwrap();
        let report = s.purge_dataset("ds", 4).unwrap();
        assert_eq!(report.chunks_removed, 1);
        assert_eq!(s.store().len(), 0, "empty chunk object must be gone");
    }

    #[test]
    fn delete_dataset_clears_store_and_meta() {
        let s = server();
        ingest_files(&s, "ds", &[("a", vec![0; 10])], 1024);
        ingest_files(&s, "other", &[("b", vec![0; 10])], 1024);
        let removed = s.delete_dataset("ds").unwrap();
        assert_eq!(removed, 1);
        assert!(s.meta().dataset_record("ds").is_err());
        assert!(s.read_file("other", "b").is_ok());
    }

    #[test]
    fn metadata_recovery_after_power_loss() {
        let s = server();
        let files: Vec<(String, Vec<u8>)> = (0..25).map(|i| file(i, 200)).collect();
        let refs: Vec<(&str, Vec<u8>)> =
            files.iter().map(|(n, d)| (n.as_str(), d.clone())).collect();
        ingest_files(&s, "ds", &refs, 2048);
        s.delete_file("ds", &files[5].0, 9_999_999).unwrap();

        s.meta().kv().clear();
        let report = s.recover_metadata_full("ds").unwrap();
        assert_eq!(report.files_recovered, 24, "deleted file must stay deleted");
        for (i, (n, d)) in files.iter().enumerate() {
            if i == 5 {
                assert!(s.read_file("ds", n).is_err());
            } else {
                assert_eq!(s.read_file("ds", n).unwrap().as_ref(), &d[..]);
            }
        }
    }

    #[test]
    fn snapshot_served_by_server() {
        let s = server();
        ingest_files(&s, "ds", &[("p/q", vec![9; 40])], 1024);
        let snap = s.build_snapshot("ds").unwrap();
        assert_eq!(snap.files.len(), 1);
        let table = diesel_meta::FileTable::new(snap);
        assert_eq!(table.stat("p/q").unwrap().length, 40);
        assert_eq!(table.readdir("p").unwrap().len(), 1);
    }
}
