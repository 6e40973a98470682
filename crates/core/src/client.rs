//! libDIESEL — the client library (paper Table 3).
//!
//! | paper API        | here                                  |
//! |------------------|---------------------------------------|
//! | `DL_connect`     | [`DieselClient::connect`]             |
//! | `DL_put`         | [`DieselClient::put`]                 |
//! | `DL_flush`       | [`DieselClient::flush`]               |
//! | `DL_get`         | [`DieselClient::get`]                 |
//! | `DL_stat`        | [`DieselClient::stat`]                |
//! | `DL_delete`      | [`DieselClient::delete`]              |
//! | `DL_ls`          | [`DieselClient::ls`]                  |
//! | `DL_save_meta`   | [`DieselClient::save_meta`]           |
//! | `DL_load_meta`   | [`DieselClient::load_meta`]           |
//! | `DL_shuffle`     | [`DieselClient::enable_shuffle`]      |
//! | `DL_close`       | [`DieselClient::close`]               |
//!
//! The client buffers written files into ≥ 4 MB chunks (write flow,
//! Fig. 3), serves metadata from a locally loaded snapshot held as one
//! [`FileTable`] (the "metadata cache and interpreter"), optionally joins
//! a task-grained distributed cache, and generates chunk-wise shuffled
//! epoch orders over that table. A mutation swaps in a rebuilt table, so
//! a plan keeps reading the table it was built from.

use diesel_util::{Clock, Mutex, RwLock};
use std::collections::VecDeque;
use std::sync::Arc;

use diesel_cache::{CacheError, PlanGuard, PlannedChunk, TaskCache};
use diesel_chunk::{ChunkBuilder, ChunkBuilderConfig, ChunkIdGenerator, SealedChunk};
use diesel_kv::KvStore;
use diesel_meta::{DirEntry, FileMeta, FileTable, MetaSnapshot};
use diesel_net::Service;
use diesel_obs::{trace, Span, Tracer};
use diesel_shuffle::{epoch_order, ShuffleKind, ShufflePlan};
use diesel_store::{Bytes, ObjectStore};

use crate::api::{ServerConn, ServerRequest, ServerResponse};
use crate::server::DieselServer;
use crate::{DieselError, Result};

/// How many [`CacheError::Throttled`] replies one request obeys (sleep
/// for the server-advised back-off, then retry) before surfacing the
/// error.
const THROTTLE_RETRIES: u32 = 8;

/// Client construction parameters.
#[derive(Debug, Clone, Default)]
pub struct ClientConfig {
    /// Chunk aggregation settings for the write path.
    pub chunk: ChunkBuilderConfig,
}

/// The write path's buffered state: files answered `Ok(())` by `put` live
/// in exactly one of the two fields until the server acknowledges their
/// chunk.
struct WriteBuffer {
    open: ChunkBuilder,
    /// Sealed chunks whose ingest failed, oldest first; the next
    /// `put`/`flush` re-ships them before anything newer.
    unshipped: VecDeque<SealedChunk>,
}

/// One epoch cut into batches ([`DieselClient::epoch_batches`]).
#[derive(Debug)]
pub struct EpochBatches<S> {
    /// The epoch's shuffled file list, one batch of paths at a time.
    pub batches: Vec<Vec<String>>,
    /// Keeps the attached cache, if any, following this epoch's plan.
    /// Hold it for as long as the batches are being read.
    pub following: Option<PlanGuard<S>>,
}

/// One libDIESEL client instance.
///
/// All server traffic goes through a [`ServerConn`] — a `diesel-net`
/// channel carrying [`ServerRequest`]s. [`connect`](Self::connect)
/// builds a direct in-process channel (zero overhead, as before);
/// [`connect_channel`](Self::connect_channel) accepts any channel — a
/// thread transport, a retrying or fault-injected stack.
pub struct DieselClient<K, S> {
    conn: ServerConn,
    // Kept for co-located deployments so `server()` still hands out the
    // concrete server (cache attachment, tests). Channel-connected
    // clients have no such handle.
    direct: Option<Arc<DieselServer<K, S>>>,
    dataset: String,
    config: ClientConfig,
    ids: ChunkIdGenerator,
    write: Mutex<WriteBuffer>,
    meta: RwLock<Option<Arc<FileTable>>>,
    cache: RwLock<Option<Arc<TaskCache<S>>>>,
    shuffle: RwLock<Option<ShuffleKind>>,
    clock_ms: Box<dyn Fn() -> u64 + Send + Sync>,
    /// Back-off sleeper for obeying [`CacheError::Throttled`] replies.
    clock: Arc<dyn Clock>,
    tracer: Option<Tracer>,
}

impl<K: KvStore + 'static, S: ObjectStore + 'static> DieselClient<K, S> {
    /// `DL_connect`: open a client against a co-located server for one
    /// dataset (direct in-process dispatch).
    pub fn connect(server: Arc<DieselServer<K, S>>, dataset: impl Into<String>) -> Self {
        Self::connect_with(server, dataset, ClientConfig::default())
    }

    /// `DL_connect` with explicit configuration.
    pub fn connect_with(
        server: Arc<DieselServer<K, S>>,
        dataset: impl Into<String>,
        config: ClientConfig,
    ) -> Self {
        let conn = server.direct_channel(0);
        Self::build(conn, Some(server), dataset.into(), config)
    }

    /// `DL_connect` over an arbitrary `diesel-net` channel (thread
    /// transport, instrumented/fault-injected stack).
    pub fn connect_channel(conn: ServerConn, dataset: impl Into<String>) -> Self {
        Self::connect_channel_with(conn, dataset, ClientConfig::default())
    }

    /// [`connect_channel`](Self::connect_channel) with explicit
    /// configuration.
    pub fn connect_channel_with(
        conn: ServerConn,
        dataset: impl Into<String>,
        config: ClientConfig,
    ) -> Self {
        Self::build(conn, None, dataset.into(), config)
    }

    fn build(
        conn: ServerConn,
        direct: Option<Arc<DieselServer<K, S>>>,
        dataset: String,
        config: ClientConfig,
    ) -> Self {
        let write = WriteBuffer {
            open: ChunkBuilder::new(config.chunk.clone()),
            unshipped: VecDeque::new(),
        };
        DieselClient {
            conn,
            direct,
            dataset,
            config,
            ids: ChunkIdGenerator::new(),
            write: Mutex::named("core.client_builder", write),
            meta: RwLock::named("core.client_meta", None),
            cache: RwLock::named("core.client_cache", None),
            shuffle: RwLock::named("core.client_shuffle", None),
            clock_ms: {
                let clock = diesel_util::SystemClock::new();
                Box::new(move || clock.epoch_ms())
            },
            clock: Arc::new(diesel_util::SystemClock::new()),
            tracer: None,
        }
    }

    /// Sleep throttle back-offs on `clock` (a
    /// [`MockClock`](diesel_util::MockClock) makes retry schedules
    /// instant and exactly assertable).
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Deterministic identity and clock (tests / simulations).
    pub fn with_deterministic_identity(mut self, machine_seed: u64, pid: u32, ts: u32) -> Self {
        self.ids = ChunkIdGenerator::deterministic(machine_seed, pid, ts);
        let fixed_ms = ts as u64 * 1000;
        self.clock_ms = Box::new(move || fixed_ms);
        self
    }

    /// Trace read requests into `tracer`: [`get`](Self::get) and
    /// [`get_many`](Self::get_many) open `client.read` spans whose
    /// context flows through the channel to the server side.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// The dataset this client works on.
    pub fn dataset(&self) -> &str {
        &self.dataset
    }

    /// The server handle (co-located deployments only).
    ///
    /// # Panics
    /// Panics for clients built with
    /// [`connect_channel`](Self::connect_channel), which hold no direct
    /// server reference.
    #[expect(clippy::expect_used, reason = "documented panic: a direct-only accessor")]
    pub fn server(&self) -> &Arc<DieselServer<K, S>> {
        self.direct.as_ref().expect("client was connected over a channel, not a direct server")
    }

    /// One request over the server channel. Transport failures surface
    /// as [`DieselError::Net`]; application errors pass through — except
    /// [`CacheError::Throttled`], which the client *obeys*: it sleeps
    /// for the server-advised back-off and retries, up to
    /// [`THROTTLE_RETRIES`] times.
    /// (The net layer's `Retry` only re-sends on retryable transport
    /// errors; an admission rejection is an application reply, so the
    /// back-off loop lives here.)
    fn call(&self, req: ServerRequest) -> Result<ServerResponse> {
        let mut attempts = 0u32;
        loop {
            // Read requests hold refcounted payloads and path lists, so
            // the per-attempt clone is pointer-sized per field. An
            // `IngestChunk` shares its chunk bytes, but its header's
            // file table is deep-cloned.
            match self.conn.call(req.clone()).map_err(DieselError::Net)? {
                Err(DieselError::Cache(CacheError::Throttled { retry_after_ms }))
                    if attempts < THROTTLE_RETRIES =>
                {
                    attempts += 1;
                    self.clock.sleep_ns(retry_after_ms.saturating_mul(1_000_000));
                }
                other => return other,
            }
        }
    }

    // ---- write path ----

    /// `DL_put`: buffer one file; ships a sealed chunk when the buffer
    /// reaches the target chunk size.
    pub fn put(&self, path: &str, data: &[u8]) -> Result<()> {
        let mut w = self.write.lock();
        // A file the builder would refuse must not ship the open chunk.
        w.open.check_file(path, data.len())?;
        let overflow = w.open.would_overflow(path.len(), data.len());
        if overflow || !w.unshipped.is_empty() {
            let full = overflow.then(|| self.take_open(&mut w));
            drop(w);
            self.ship(full)?;
            w = self.write.lock();
        }
        w.open.add_file(path, data)?;
        Ok(())
    }

    /// `DL_flush`: seal and ship any buffered files. Returns the number
    /// of chunks shipped by this call.
    pub fn flush(&self) -> Result<usize> {
        let mut w = self.write.lock();
        let full = (!w.open.is_empty()).then(|| self.take_open(&mut w));
        drop(w);
        self.ship(full)
    }

    fn take_open(&self, w: &mut WriteBuffer) -> ChunkBuilder {
        std::mem::replace(&mut w.open, ChunkBuilder::new(self.config.chunk.clone()))
    }

    /// Seal `full` behind the chunks an earlier failed ship left, then
    /// ship them all, oldest first. A chunk leaves the buffer only once
    /// the server acknowledged it: on error it goes back to the front,
    /// so files already answered `Ok(())` are never dropped.
    fn ship(&self, full: Option<ChunkBuilder>) -> Result<usize> {
        if let Some(builder) = full {
            let (header, bytes) = builder.seal(self.ids.next_id(), (self.clock_ms)());
            self.write.lock().unshipped.push_back(SealedChunk { header, bytes: bytes.into() });
        }
        let mut shipped = 0;
        loop {
            let Some(chunk) = self.write.lock().unshipped.pop_front() else { return Ok(shipped) };
            let sent = self.call(ServerRequest::IngestChunk {
                dataset: self.dataset.clone(),
                chunk: chunk.clone(),
            });
            if let Err(e) = sent {
                self.write.lock().unshipped.push_front(chunk);
                return Err(e);
            }
            shipped += 1;
        }
    }

    // ---- metadata ----

    /// Download a fresh snapshot from the server and install it as the
    /// local metadata cache.
    pub fn download_meta(&self) -> Result<()> {
        let snapshot = self
            .call(ServerRequest::BuildSnapshot { dataset: self.dataset.clone() })?
            .into_snapshot()?;
        self.install_snapshot(snapshot);
        Ok(())
    }

    /// `DL_save_meta`: materialize the dataset snapshot to a local file.
    pub fn save_meta(&self, path: impl AsRef<std::path::Path>) -> Result<()> {
        let snapshot = self
            .call(ServerRequest::BuildSnapshot { dataset: self.dataset.clone() })?
            .into_snapshot()?;
        snapshot.save_to(path)?;
        Ok(())
    }

    /// `DL_load_meta`: load a snapshot file and install it — after
    /// verifying it is fresh against the server's dataset record
    /// (§4.1.3). A stale or foreign snapshot is rejected.
    pub fn load_meta(&self, path: impl AsRef<std::path::Path>) -> Result<()> {
        let snapshot = MetaSnapshot::load_from(path)?;
        let authority = self
            .call(ServerRequest::DatasetRecord { dataset: self.dataset.clone() })?
            .into_record()?;
        if !snapshot.is_fresh(&self.dataset, authority.updated_ms) {
            return Err(DieselError::Client(format!(
                "snapshot is stale (snapshot ts {} vs dataset ts {}); download a new one",
                snapshot.updated_ms, authority.updated_ms
            )));
        }
        self.install_snapshot(snapshot);
        Ok(())
    }

    fn install_snapshot(&self, snapshot: MetaSnapshot) {
        *self.meta.write() = Some(Arc::new(FileTable::new(snapshot)));
    }

    /// Is a metadata snapshot loaded?
    pub fn has_meta(&self) -> bool {
        self.meta.read().is_some()
    }

    /// `DL_stat`: O(1) from the local table when loaded, otherwise one
    /// server round trip.
    pub fn stat(&self, path: &str) -> Result<FileMeta> {
        if let Some(table) = self.meta.read().as_ref() {
            return table
                .stat(path)
                .copied()
                .ok_or_else(|| DieselError::Meta(diesel_meta::MetaError::NoSuchFile(path.into())));
        }
        self.call(ServerRequest::Stat { dataset: self.dataset.clone(), path: path.to_owned() })?
            .into_meta()
    }

    /// `DL_ls`: list a directory of the loaded table, as a client lists
    /// from its snapshot (§4.1.3). With no snapshot loaded it is the
    /// same error [`file_list`](Self::file_list) returns.
    pub fn ls(&self, path: &str) -> Result<Vec<DirEntry>> {
        Ok(self.table()?.readdir(path)?)
    }

    /// All file paths in the loaded snapshot, sorted (training file
    /// lists).
    pub fn file_list(&self) -> Result<Vec<String>> {
        Ok(self.table()?.paths().map(str::to_owned).collect())
    }

    // ---- read path (Fig. 4) ----

    /// Join a task-grained distributed cache.
    pub fn attach_cache(&self, cache: Arc<TaskCache<S>>) {
        *self.cache.write() = Some(cache);
    }

    /// `DL_get`: read one file. Resolution order is the read flow of
    /// Fig. 4 — task-grained cache first (one hop), then the server. A
    /// cache node failure falls back to the server path transparently.
    pub fn get(&self, path: &str) -> Result<Bytes> {
        let _tracer = self.tracer.as_ref().map(trace::install_tracer);
        let _span = if trace::active() {
            trace::span("client.read", &[("path", path)])
        } else {
            trace::SpanGuard::default()
        };
        let meta = self.stat(path)?;
        // Not read under the guard: a miss waits on the store, and a
        // queued `attach_cache` would stall every other reader behind it.
        let cache = self.cache.read().clone();
        if let Some(cache) = cache {
            match cache.get_file(&meta) {
                Ok(f) => return Ok(f.data),
                Err(e) if server_serves(&e) => {}
                Err(e) => return Err(e.into()),
            }
        }
        self.read_from_server(path, meta)
    }

    /// The server leg of a read whose metadata is already resolved.
    fn read_from_server(&self, path: &str, meta: FileMeta) -> Result<Bytes> {
        let read = self
            .call(ServerRequest::ReadByMeta { dataset: self.dataset.clone(), meta })
            .and_then(ServerResponse::into_bytes);
        match read {
            Ok(data) => Ok(data),
            // A chunk that vanished under a snapshot-directed read means
            // the local snapshot went stale (e.g. `DL_purge` compacted
            // the chunk away). Retry with authoritative server-side
            // metadata; the caller should re-download the snapshot.
            Err(DieselError::Store(diesel_store::StoreError::NotFound(_))) if self.has_meta() => {
                self.call(ServerRequest::ReadFile {
                    dataset: self.dataset.clone(),
                    path: path.to_owned(),
                })?
                .into_bytes()
            }
            Err(e) => Err(e),
        }
    }

    /// Read a batch of files in one round trip via the server's request
    /// executor (`read_files_merged`, Fig. 2): requests are merged into
    /// one ranged read per chunk — the paper's answer to the small-file
    /// anti-pattern of one `get` per sample. Results come back in
    /// request order.
    ///
    /// When a task-grained cache is attached the batch is served
    /// through it instead (one-hop chunk-resident reads beat a merged
    /// server read): one `stat` per file, then chunk by chunk in order
    /// of first appearance, each chunk's files cut from one view of it;
    /// any per-file fallback matches [`get`](Self::get).
    pub fn get_many(&self, paths: &[String]) -> Result<Vec<Bytes>> {
        if paths.is_empty() {
            return Ok(Vec::new());
        }
        let _tracer = self.tracer.as_ref().map(trace::install_tracer);
        let _span = if trace::active() {
            let n = paths.len().to_string();
            trace::span("client.get_many", &[("files", n.as_str())])
        } else {
            trace::SpanGuard::default()
        };
        let cache = self.cache.read().clone();
        if let Some(cache) = cache {
            let metas = paths.iter().map(|p| self.stat(p)).collect::<Result<Vec<_>>>()?;
            let reads = cache.get_files(&metas);
            return paths
                .iter()
                .zip(metas)
                .zip(reads)
                .map(|((path, meta), read)| match read {
                    Ok(data) => Ok(data),
                    Err(e) if server_serves(&e) => self.read_from_server(path, meta),
                    Err(e) => Err(e.into()),
                })
                .collect();
        }
        let merged = self
            .call(ServerRequest::ReadFilesMerged {
                dataset: self.dataset.clone(),
                // The one copy of the path list; every later clone of
                // the request shares it.
                paths: paths.into(),
            })
            .and_then(ServerResponse::into_bytes_vec);
        match merged {
            // A stale snapshot (purge race, a single missing file)
            // degrades to per-file reads, which recover the way `get`
            // does. Everything else propagates: after `Throttled` or a
            // transport failure, one more request per file would only
            // amplify the overload that rejected the batch.
            Err(
                DieselError::Store(diesel_store::StoreError::NotFound(_))
                | DieselError::Meta(diesel_meta::MetaError::NoSuchFile(_)),
            ) => paths.iter().map(|p| self.get(p)).collect(),
            other => other,
        }
    }

    /// Drain the spans recorded by the *server side* of this
    /// connection ([`ServerRequest::Trace`]). With a tracer shared
    /// between client and server this also returns the client spans —
    /// they live in the same buffer.
    pub fn drain_trace(&self) -> Result<Vec<Span>> {
        self.call(ServerRequest::Trace)?.into_trace()
    }

    /// `DL_delete`: remove a file (server-side) and drop it from the
    /// local metadata.
    pub fn delete(&self, path: &str) -> Result<()> {
        self.call(ServerRequest::DeleteFile {
            dataset: self.dataset.clone(),
            path: path.to_owned(),
            now_ms: (self.clock_ms)(),
        })?;
        self.edit_meta(path, None);
        Ok(())
    }

    /// Modify a file: DIESEL "supports modifying/deleting files by first
    /// deleting the old file and then writing a new file" (§4.1.1). The
    /// old copy becomes a deletion-bitmap hole (reclaimed by
    /// `DL_purge`); the new copy is flushed immediately so it is
    /// readable on return.
    pub fn overwrite(&self, path: &str, data: &[u8]) -> Result<()> {
        match self.delete(path) {
            Ok(()) => {}
            Err(DieselError::Meta(diesel_meta::MetaError::NoSuchFile(_))) => {}
            Err(e) => return Err(e),
        }
        self.put(path, data)?;
        self.flush()?;
        if self.has_meta() {
            // Keep the local metadata usable without a full re-download
            // (a saved snapshot file is now stale, as after any mutation).
            // The local row is gone, so a failed lookup must not be `Ok`.
            let meta = self
                .call(ServerRequest::Stat { dataset: self.dataset.clone(), path: path.to_owned() })?
                .into_meta()?;
            self.edit_meta(path, Some(meta));
        }
        Ok(())
    }

    /// Swap in the loaded table with `path`'s row dropped and, given
    /// `meta`, re-added.
    fn edit_meta(&self, path: &str, meta: Option<FileMeta>) {
        let mut guard = self.meta.write();
        if let Some(table) = guard.as_mut() {
            if meta.is_some() || table.stat(path).is_some() {
                *table = Arc::new(table.with_file(path, meta));
            }
        }
    }

    /// The loaded table.
    fn table(&self) -> Result<Arc<FileTable>> {
        let table = self.meta.read().clone();
        table.ok_or_else(|| DieselError::Client("no metadata snapshot loaded".into()))
    }

    // ---- chunk-wise shuffle (§4.3) ----

    /// `DL_shuffle`: enable chunk-wise shuffle (or the baseline) for
    /// epoch-order generation.
    pub fn enable_shuffle(&self, kind: ShuffleKind) {
        *self.shuffle.write() = Some(kind);
    }

    /// Generate this epoch's shuffled file list (the list the training
    /// framework reads).
    pub fn epoch_file_list(&self, seed: u64, epoch: u64) -> Result<Vec<String>> {
        self.with_epoch_plan(seed, epoch, |table, plan| {
            plan.items.iter().filter_map(|i| table.path(i.file)).map(str::to_owned).collect()
        })
    }

    /// This epoch's shuffled file list cut into `batch_size` path groups
    /// — what a loader's fetch stage reads, batch by batch. A
    /// `batch_size` of 0 is a [`DieselError::Client`].
    ///
    /// With a task cache attached, the same pass over the plan also
    /// derives the cache's schedule — every chunk's shuffle group and read
    /// count, in order of first read — and hands it to
    /// [`TaskCache::follow_plan`].
    pub fn epoch_batches(
        &self,
        seed: u64,
        epoch: u64,
        batch_size: usize,
    ) -> Result<EpochBatches<S>> {
        if batch_size == 0 {
            return Err(DieselError::Client("epoch batches need batch_size >= 1".into()));
        }
        let cache = self.cache.read().clone();
        let (batches, schedule) = self.with_epoch_plan(seed, epoch, |table, plan| {
            let mut batches: Vec<Vec<String>> = Vec::with_capacity(plan.len().div_ceil(batch_size));
            let mut batch: Vec<String> = Vec::with_capacity(batch_size);
            let mut schedule: Vec<PlannedChunk> = Vec::new();
            // Chunk index → its position in `schedule`, once read.
            let mut seen: Vec<Option<usize>> = vec![None; table.chunks().len()];
            let mut group = 0u32;
            let mut later_groups = plan.group_starts.iter().skip(1).peekable();
            for (at, item) in plan.items.iter().enumerate() {
                while later_groups.next_if(|&&start| start <= at).is_some() {
                    group += 1;
                }
                let at_chunk = item.chunk_index as usize;
                let Some(&chunk) = table.chunks().get(at_chunk) else { continue };
                let Some(path) = table.path(item.file) else { continue };
                batch.push(path.to_owned());
                if batch.len() == batch_size {
                    batches.push(std::mem::replace(&mut batch, Vec::with_capacity(batch_size)));
                }
                let Some(slot) = seen.get_mut(at_chunk).filter(|_| cache.is_some()) else {
                    continue;
                };
                match slot.and_then(|pos| schedule.get_mut(pos)) {
                    Some(planned) => planned.reads += 1,
                    None => {
                        *slot = Some(schedule.len());
                        schedule.push(PlannedChunk { chunk, group, reads: 1 });
                    }
                }
            }
            if !batch.is_empty() {
                batches.push(batch);
            }
            (batches, schedule)
        })?;
        // Replacing a plan waits out the previous one's loads in flight.
        Ok(EpochBatches { batches, following: cache.map(|cache| cache.follow_plan(&schedule)) })
    }

    /// The raw shuffle plan (group boundaries included), for working-set
    /// accounting and chunk-prefetch decisions.
    pub fn epoch_plan(&self, seed: u64, epoch: u64) -> Result<ShufflePlan> {
        self.with_epoch_plan(seed, epoch, |_, plan| plan)
    }

    /// Build the epoch's plan and hand it to `f` beside the table it was
    /// built from: plan items are rows of that table, and a
    /// `delete`/`overwrite`/`download_meta` swaps in a new table rather
    /// than changing this one.
    fn with_epoch_plan<T>(
        &self,
        seed: u64,
        epoch: u64,
        f: impl FnOnce(&FileTable, ShufflePlan) -> T,
    ) -> Result<T> {
        let kind = (*self.shuffle.read())
            .ok_or_else(|| DieselError::Client("call enable_shuffle first".into()))?;
        if kind == (ShuffleKind::ChunkWise { group_size: 0 }) {
            return Err(DieselError::Client("chunk-wise shuffle needs group_size >= 1".into()));
        }
        let table = self.table()?;
        Ok(f(&table, epoch_order(&table, kind, seed, epoch)))
    }

    /// `DL_close`: flush outstanding writes and drop local state.
    pub fn close(self) -> Result<()> {
        self.flush()?;
        Ok(())
    }
}

/// Cache errors a read answers by going to the server instead (Fig. 4):
/// the owner node is down, or the snapshot is staler than the cache's
/// partition map — the server is still authoritative, so serve from
/// there rather than failing the read.
fn server_serves(e: &CacheError) -> bool {
    matches!(e, CacheError::NodeDown { .. } | CacheError::UnknownChunk(_))
}

impl<K, S> std::fmt::Debug for DieselClient<K, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DieselClient").field("dataset", &self.dataset).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionConfig;
    use crate::api::ServerReply;
    use diesel_cache::{CacheConfig, CachePolicy, Topology};
    use diesel_kv::ShardedKv;
    use diesel_meta::EntryKind;
    use diesel_store::MemObjectStore;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    type Server = DieselServer<ShardedKv, MemObjectStore>;
    type Client = DieselClient<ShardedKv, MemObjectStore>;

    fn server() -> Arc<Server> {
        Arc::new(DieselServer::new(Arc::new(ShardedKv::new()), Arc::new(MemObjectStore::new())))
    }

    fn small_chunk_client<S: ObjectStore + 'static>(
        server: &Arc<DieselServer<ShardedKv, S>>,
        seed: u64,
    ) -> DieselClient<ShardedKv, S> {
        let config = ClientConfig {
            chunk: ChunkBuilderConfig { target_chunk_size: 2048, ..Default::default() },
        };
        DieselClient::connect_with(server.clone(), "ds", config).with_deterministic_identity(
            seed,
            seed as u32,
            1000 + seed as u32,
        )
    }

    fn populate<S: ObjectStore + 'static>(
        client: &DieselClient<ShardedKv, S>,
        files: usize,
        size: usize,
    ) -> Vec<(String, Vec<u8>)> {
        let mut out = Vec::new();
        for i in 0..files {
            let name = format!("cls{}/img{i:04}", i % 5);
            let data = vec![(i % 251) as u8; size];
            client.put(&name, &data).unwrap();
            out.push((name, data));
        }
        client.flush().unwrap();
        out
    }

    #[test]
    fn put_flush_get_roundtrip() {
        let s = server();
        let c = small_chunk_client(&s, 1);
        let files = populate(&c, 30, 300);
        for (n, d) in &files {
            assert_eq!(c.get(n).unwrap().as_ref(), &d[..], "{n}");
        }
        // Several chunks were auto-shipped before the final flush.
        assert!(s.meta().chunk_ids("ds").unwrap().len() > 1);
    }

    #[test]
    fn an_overlong_name_is_a_typed_error_and_buffers_nothing() {
        let s = server();
        let c = small_chunk_client(&s, 2);
        c.put("keep", b"k").unwrap();
        let long = "x".repeat(usize::from(u16::MAX) + 1);
        let err = c.put(&long, b"lost").unwrap_err();
        assert!(
            matches!(err, DieselError::Chunk(diesel_chunk::ChunkError::NameTooLong { .. })),
            "{err:?}"
        );
        assert_eq!(c.flush().unwrap(), 1);
        assert_eq!(s.meta().dataset_record("ds").unwrap().file_count, 1);
        assert_eq!(c.get("keep").unwrap().as_ref(), b"k");
    }

    /// A channel that loses the first request `drops` picks in transit
    /// and forwards everything else.
    struct DropFirst {
        inner: ServerConn,
        drops: fn(&ServerRequest) -> bool,
        dropped: AtomicBool,
    }

    impl DropFirst {
        fn conn(server: &Arc<Server>, drops: fn(&ServerRequest) -> bool) -> ServerConn {
            Arc::new(DropFirst { inner: server.direct_channel(0), drops, dropped: false.into() })
        }
    }

    impl Service<ServerRequest, ServerReply> for DropFirst {
        fn call(&self, req: ServerRequest) -> diesel_net::Result<ServerReply> {
            let first = (self.drops)(&req) && !self.dropped.swap(true, Ordering::SeqCst);
            if first {
                return Err(diesel_net::NetError::Disconnected { endpoint: self.endpoint() });
            }
            self.inner.call(req)
        }

        fn endpoint(&self) -> diesel_net::Endpoint {
            self.inner.endpoint()
        }
    }

    #[test]
    fn a_failed_ship_keeps_the_acknowledged_files_for_the_next_flush() {
        let s = server();
        let conn = DropFirst::conn(&s, |req| matches!(req, ServerRequest::IngestChunk { .. }));
        let c: Client = DieselClient::connect_channel(conn, "ds");
        let files: Vec<(String, Vec<u8>)> =
            (0..5u8).map(|i| (format!("f{i}"), vec![i; 64])).collect();
        for (n, d) in &files {
            c.put(n, d).unwrap(); // answered Ok(()): the client owns these bytes now
        }
        assert!(matches!(c.flush(), Err(DieselError::Net(_))));
        assert_eq!(c.flush().unwrap(), 1, "the sealed chunk was kept and re-shipped");
        assert_eq!(c.flush().unwrap(), 0);
        for (n, d) in &files {
            assert_eq!(c.get(n).unwrap().as_ref(), &d[..], "{n}");
        }
        assert_eq!(s.meta().chunk_ids("ds").unwrap().len(), 1, "shipped exactly once");
    }

    #[test]
    fn an_overwrite_whose_lookup_fails_is_an_error_not_a_lost_file() {
        let s = server();
        let conn = DropFirst::conn(&s, |req| matches!(req, ServerRequest::Stat { .. }));
        let c: Client = DieselClient::connect_channel(conn, "ds");
        c.put("a", b"old").unwrap();
        c.flush().unwrap();
        c.download_meta().unwrap();
        // The new copy is stored, but the local row is gone and the
        // lookup that would restore it was lost: say so.
        assert!(matches!(c.overwrite("a", b"new"), Err(DieselError::Net(_))));
        assert!(c.get("a").is_err());
        c.overwrite("a", b"newer").unwrap();
        assert_eq!(c.get("a").unwrap().as_ref(), b"newer");
    }

    #[test]
    fn a_file_whose_chunk_the_snapshot_omits_exists_nowhere() {
        // `build_snapshot` scans chunk ids before files, and ingest puts
        // the chunk key before the file keys, so a snapshot can list a
        // file of a chunk it does not list.
        let s = server();
        let c = small_chunk_client(&s, 14);
        populate(&c, 30, 150);
        let mut snap = s.build_snapshot("ds").unwrap();
        let unlisted = snap.chunks.pop().unwrap();
        let orphan = snap.files.iter().find(|f| f.meta.chunk == unlisted).unwrap().path.clone();
        c.install_snapshot(snap);
        assert!(matches!(
            c.stat(&orphan),
            Err(DieselError::Meta(diesel_meta::MetaError::NoSuchFile(_)))
        ));
        let listed = c.file_list().unwrap();
        assert!(!listed.contains(&orphan));
        for kind in [ShuffleKind::DatasetShuffle, ShuffleKind::ChunkWise { group_size: 2 }] {
            c.enable_shuffle(kind);
            let mut epoch = c.epoch_file_list(5, 0).unwrap();
            epoch.sort();
            assert_eq!(epoch, listed, "{kind:?}");
        }
    }

    #[test]
    fn ls_lists_the_loaded_table() {
        // As full paths `b.x/…` and `b.txt` sort before `b/…`, and `b0`
        // after; as names `b` sorts first.
        let s = server();
        let c = small_chunk_client(&s, 15);
        assert!(matches!(c.ls(""), Err(DieselError::Client(_))), "no snapshot loaded");
        let paths = ["b/1", "b/c/2", "b/c/d/3", "b.x/4", "b.x/c/5", "b0", "b.txt", "b0x/6", "a"];
        for (i, path) in paths.iter().enumerate() {
            c.put(path, &vec![i as u8; 100 + i]).unwrap();
        }
        c.flush().unwrap();
        c.download_meta().unwrap();
        let d = |name: &str| DirEntry { name: name.into(), kind: EntryKind::Dir, size: 0 };
        let f = |name: &str, size| DirEntry { name: name.into(), kind: EntryKind::File, size };
        let listings = [
            ("", vec![d("b"), d("b.x"), d("b0x"), f("a", 108), f("b.txt", 106), f("b0", 105)]),
            ("b", vec![d("c"), f("1", 100)]),
            ("b/c", vec![d("d"), f("2", 101)]),
            ("b/c/d", vec![f("3", 102)]),
            ("b.x", vec![d("c"), f("4", 103)]),
            ("b.x/c", vec![f("5", 104)]),
            ("b0x", vec![f("6", 107)]),
        ];
        for (dir, listing) in listings {
            assert_eq!(c.ls(dir).unwrap(), listing, "ls {dir:?}");
        }
        assert!(c.ls("b/x").is_err(), "a missing directory");
        assert!(c.ls("b0").is_err(), "a file is not a directory");

        // Deleting a directory's last file leaves no ghost directory.
        c.delete("b/c/d/3").unwrap();
        c.download_meta().unwrap();
        assert_eq!(c.ls("b/c").unwrap(), [f("2", 101)]);
        let gone = c.ls("b/c/d");
        assert!(
            matches!(&gone, Err(DieselError::Meta(diesel_meta::MetaError::NoSuchFile(p))) if p == "b/c/d"),
            "{gone:?}"
        );
    }

    #[test]
    fn epoch_lists_stay_permutations_while_a_writer_overwrites() {
        let s = server();
        let c = small_chunk_client(&s, 11);
        let files = populate(&c, 40, 150);
        c.download_meta().unwrap();
        c.enable_shuffle(ShuffleKind::ChunkWise { group_size: 2 });
        // `overwrite` is delete-then-insert, so at any instant the file
        // list is every file, or every file but the one being rewritten.
        let target = "cls0/img0000";
        let mut all: Vec<String> = files.iter().map(|(n, _)| n.clone()).collect();
        all.sort();
        let without: Vec<String> = all.iter().filter(|n| *n != target).cloned().collect();
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for round in 0..300u32 {
                    c.overwrite(target, &round.to_le_bytes()).unwrap();
                }
                done.store(true, Ordering::SeqCst);
            });
            let mut epoch = 0;
            while !done.load(Ordering::SeqCst) {
                epoch += 1;
                let mut list = c.epoch_file_list(7, epoch).unwrap();
                list.sort();
                assert!(list == all || list == without, "epoch {epoch} is not a permutation");
            }
        });
    }

    #[test]
    fn a_zero_group_size_is_a_typed_error_not_a_panic() {
        let s = server();
        let c = small_chunk_client(&s, 12);
        populate(&c, 8, 64);
        c.download_meta().unwrap();
        c.enable_shuffle(ShuffleKind::ChunkWise { group_size: 0 });
        assert!(matches!(c.epoch_file_list(1, 0), Err(DieselError::Client(_))));
        assert!(matches!(c.epoch_plan(1, 0), Err(DieselError::Client(_))));
        assert!(matches!(c.epoch_batches(1, 0, 4), Err(DieselError::Client(_))));
        c.enable_shuffle(ShuffleKind::ChunkWise { group_size: 2 });
        assert!(matches!(c.epoch_batches(1, 0, 0), Err(DieselError::Client(_))));
        // The client stays usable: valid sizes plan as before.
        assert_eq!(c.epoch_batches(1, 0, 4).unwrap().batches.len(), 2);
        assert_eq!(c.epoch_file_list(1, 0).unwrap().len(), 8);
    }

    #[test]
    fn snapshot_workflow_save_load_fresh_and_stale() {
        let s = server();
        let c = small_chunk_client(&s, 2);
        populate(&c, 10, 100);
        let path =
            std::env::temp_dir().join(format!("diesel-client-snap-{}.bin", std::process::id()));
        c.save_meta(&path).unwrap();
        c.load_meta(&path).unwrap();
        assert!(c.has_meta());
        // Local (O(1)) stat and ls now work without the server.
        assert_eq!(c.stat("cls0/img0000").unwrap().length, 100);
        assert!(!c.ls("cls1").unwrap().is_empty());
        assert_eq!(c.file_list().unwrap().len(), 10);

        // Mutate the dataset (with a later timestamp than the client's
        // frozen clock): the snapshot goes stale and must be rejected on
        // the next load.
        s.delete_file("ds", "cls0/img0005", 9_999_999_000).unwrap();
        let c2 = small_chunk_client(&s, 3);
        let err = c2.load_meta(&path).unwrap_err();
        assert!(matches!(err, DieselError::Client(_)), "stale snapshot must be rejected");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn get_without_snapshot_uses_server_metadata() {
        let s = server();
        let c = small_chunk_client(&s, 4);
        populate(&c, 5, 50);
        assert!(!c.has_meta());
        assert_eq!(c.get("cls0/img0000").unwrap().len(), 50);
        assert!(matches!(c.get("missing"), Err(DieselError::Meta(_))));
    }

    #[test]
    fn delete_updates_local_namespace() {
        let s = server();
        let c = small_chunk_client(&s, 5);
        let mut files = populate(&c, 6, 40);
        files.sort();
        c.download_meta().unwrap();
        c.enable_shuffle(ShuffleKind::ChunkWise { group_size: 2 });
        // The sorted list, the epoch order and a full read over that
        // order all describe exactly `files`.
        let views_agree = |files: &[(String, Vec<u8>)]| {
            let names: Vec<String> = files.iter().map(|(n, _)| n.clone()).collect();
            assert_eq!(c.file_list().unwrap(), names);
            let epoch = c.epoch_file_list(3, 1).unwrap();
            let data = c.get_many(&epoch).unwrap();
            let mut read: Vec<_> = epoch.into_iter().zip(data.iter().map(|b| b.to_vec())).collect();
            read.sort();
            assert_eq!(read, files);
        };
        c.delete("cls2/img0002").unwrap();
        assert!(c.stat("cls2/img0002").is_err());
        assert!(c.get("cls2/img0002").is_err());
        files.retain(|(n, _)| n != "cls2/img0002");
        views_agree(&files);
        c.overwrite("cls0/img0000", b"rewritten").unwrap();
        assert_eq!(files[0].0, "cls0/img0000");
        files[0].1 = b"rewritten".to_vec();
        views_agree(&files);
    }

    #[test]
    fn throttled_requests_back_off_on_the_clock_and_never_fan_out() {
        // A zero-burst bucket never holds a token: every tenant request
        // is rejected with a 250 ms back-off (one token at 4/s).
        let admission =
            AdmissionConfig { tenant_rate_per_sec: 4.0, tenant_burst: 0.0, ..Default::default() };
        let s = Arc::new(
            DieselServer::new(Arc::new(ShardedKv::new()), Arc::new(MemObjectStore::new()))
                .with_admission(admission),
        );
        let clock = Arc::new(diesel_util::MockClock::new());
        let rejected = || s.stats_snapshot().counter("server.tenant.throttled{dataset=ds}");
        let throttled = |r: Result<()>| {
            assert!(matches!(
                r,
                Err(DieselError::Cache(CacheError::Throttled { retry_after_ms: 250 }))
            ));
        };
        let c = DieselClient::connect(s.clone(), "ds").with_clock(clock.clone());
        let paths: Vec<String> = (0..5).map(|i| format!("f{i}")).collect();
        // 1 request + 8 obeyed back-offs each — for a batch too, not
        // 1 + 8 per file on top of the rejected batch.
        throttled(c.get("f0").map(drop));
        assert_eq!((rejected(), clock.now_ns()), (9, 8 * 250_000_000));
        throttled(c.get_many(&paths).map(drop));
        assert_eq!((rejected(), clock.now_ns()), (18, 16 * 250_000_000));
    }

    #[test]
    fn reads_through_task_cache_with_failover() {
        let s = server();
        let c = small_chunk_client(&s, 6);
        let files = populate(&c, 40, 200);
        c.download_meta().unwrap();

        let chunks = s.meta().chunk_ids("ds").unwrap();
        let cache = Arc::new(
            TaskCache::new(
                Topology::uniform(2, 2).unwrap(),
                s.store().clone(),
                "ds",
                chunks,
                CacheConfig { capacity_bytes_per_node: 1 << 30, policy: CachePolicy::Oneshot },
            )
            .unwrap(),
        );
        cache.prefetch_all().unwrap();
        c.attach_cache(cache.clone());

        for (n, d) in &files {
            assert_eq!(c.get(n).unwrap().as_ref(), &d[..]);
        }
        assert_eq!(cache.metrics().file_reads(), 40);

        // Kill a cache node: reads transparently fall back to the server.
        cache.kill_node(0);
        for (n, d) in &files {
            assert_eq!(c.get(n).unwrap().as_ref(), &d[..], "failover read of {n}");
        }
        // A batch is served chunk by chunk and answered in request
        // order, each file of the dead node's chunks falling back alone.
        let names: Vec<String> = files.iter().rev().map(|(n, _)| n.clone()).collect();
        let reads = cache.metrics().file_reads();
        let batch = c.get_many(&names).unwrap();
        assert_eq!(cache.metrics().file_reads() - reads, 40, "one cache read per file");
        for ((_, d), got) in files.iter().rev().zip(&batch) {
            assert_eq!(got.as_ref(), &d[..]);
        }
    }

    /// A `MemObjectStore` whose whole-object reads — the cache's miss
    /// fills — wait while the test holds its gate closed.
    #[derive(Default)]
    struct GatedStore {
        inner: MemObjectStore,
        closed: Mutex<bool>,
        moved: diesel_util::Condvar,
        parked: AtomicUsize,
    }

    impl GatedStore {
        fn set_closed(&self, closed: bool) {
            *self.closed.lock() = closed;
            self.moved.notify_all();
        }
    }

    impl ObjectStore for GatedStore {
        fn put(&self, key: &str, value: Bytes) -> diesel_store::Result<()> {
            self.inner.put(key, value)
        }
        fn get(&self, key: &str) -> diesel_store::Result<Bytes> {
            let mut closed = self.closed.lock();
            if *closed {
                self.parked.fetch_add(1, Ordering::SeqCst);
            }
            while *closed {
                closed = self.moved.wait(closed);
            }
            drop(closed);
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
    fn a_slow_miss_stalls_neither_attach_cache_nor_other_readers() {
        let store = Arc::new(GatedStore::default());
        let s = Arc::new(DieselServer::new(Arc::new(ShardedKv::new()), store.clone()));
        let c = small_chunk_client(&s, 13);
        let files = populate(&c, 20, 300);
        c.download_meta().unwrap();
        let cache = Arc::new(
            TaskCache::new(
                Topology::uniform(1, 1).unwrap(),
                store.clone(),
                "ds",
                s.meta().chunk_ids("ds").unwrap(),
                CacheConfig { capacity_bytes_per_node: 1 << 30, policy: CachePolicy::OnDemand },
            )
            .unwrap(),
        );
        c.attach_cache(cache.clone());
        let (resident, resident_data) = &files[0];
        c.get(resident).unwrap(); // its chunk is resident from here on
        let chunk_of = |path: &str| c.stat(path).unwrap().chunk;
        let (missing, missing_data) =
            files.iter().find(|(n, _)| chunk_of(n) != chunk_of(resident)).unwrap();

        store.set_closed(true);
        let (done, finished) = std::sync::mpsc::channel();
        let (c, cache) = (&c, &cache);
        std::thread::scope(|scope| {
            let a = scope.spawn(|| c.get(missing));
            while store.parked.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now(); // A is bound to reach the gate
            }
            let attached = done.clone();
            scope.spawn(move || {
                c.attach_cache(cache.clone());
                attached.send("attach_cache").unwrap();
            });
            scope.spawn(move || {
                assert_eq!(c.get(resident).unwrap().as_ref(), &resident_data[..]);
                done.send("get").unwrap();
            });
            // The timeout only bounds a failure; nothing here waits on time.
            let wait = std::time::Duration::from_secs(10);
            let returned = [finished.recv_timeout(wait), finished.recv_timeout(wait)];
            let a_parked = !a.is_finished();
            store.set_closed(false);
            assert!(returned.iter().all(|r| r.is_ok()), "stalled behind the miss: {returned:?}");
            assert!(a_parked, "both returned while the miss was still in the store");
            assert_eq!(a.join().unwrap().unwrap().as_ref(), &missing_data[..]);
        });
    }

    #[test]
    fn epoch_batches_cut_the_epoch_list_and_hand_a_cache_its_plan() {
        let s = server();
        let c = small_chunk_client(&s, 12);
        populate(&c, 50, 150);
        c.download_meta().unwrap();
        c.enable_shuffle(ShuffleKind::ChunkWise { group_size: 2 });
        let epoch = c.epoch_batches(9, 1, 8).unwrap();
        assert!(epoch.following.is_none(), "no cache, no plan");
        assert_eq!(epoch.batches.len(), 7, "50 files in eights");
        assert!(epoch.batches.iter().take(6).all(|b| b.len() == 8));
        assert_eq!(epoch.batches.concat(), c.epoch_file_list(9, 1).unwrap());

        let cache_of = |budget| {
            TaskCache::new(
                Topology::uniform(2, 2).unwrap(),
                s.store().clone(),
                "ds",
                s.meta().chunk_ids("ds").unwrap(),
                CacheConfig { capacity_bytes_per_node: budget, policy: CachePolicy::OnDemand },
            )
            .unwrap()
        };
        // The plan leaves a node whose share fits alone, so the budget
        // must sit below every node's stored share.
        const BUDGET: u64 = 3072;
        let whole = cache_of(1 << 30);
        whole.prefetch_all().unwrap();
        for node in 0..2 {
            let share = whole.node_resident_bytes(node);
            assert!(share > BUDGET, "node {node} must stream: {share} B vs budget {BUDGET} B");
        }
        let cache = Arc::new(cache_of(BUDGET));
        c.attach_cache(cache.clone());
        let epoch = c.epoch_batches(9, 1, 8).unwrap();
        assert!(epoch.following.is_some());
        for batch in &epoch.batches {
            assert_eq!(c.get_many(batch).unwrap().len(), batch.len());
        }
        // The schedule named every chunk with its read count: on nodes
        // that cannot hold their share, each chunk's last planned read
        // released it, and the epoch ends with nothing resident.
        assert!(cache.metrics().evictions() > 0);
        assert_eq!(cache.resident_fraction(), 0.0);
    }

    #[test]
    fn shuffle_epoch_lists_are_permutations() {
        let s = server();
        let c = small_chunk_client(&s, 7);
        let files = populate(&c, 50, 150);
        c.download_meta().unwrap();
        assert!(c.epoch_plan(1, 1).is_err(), "shuffle must be enabled first");
        c.enable_shuffle(ShuffleKind::ChunkWise { group_size: 2 });
        let e1 = c.epoch_file_list(9, 1).unwrap();
        let e2 = c.epoch_file_list(9, 2).unwrap();
        assert_eq!(e1.len(), files.len());
        assert_ne!(e1, e2);
        let mut sorted1 = e1.clone();
        sorted1.sort();
        let mut expect: Vec<String> = files.iter().map(|(n, _)| n.clone()).collect();
        expect.sort();
        assert_eq!(sorted1, expect);
        // Plan accounting: working set bounded by group size.
        let plan = c.epoch_plan(9, 1).unwrap();
        for set in plan.group_chunk_sets() {
            assert!(set.len() <= 2);
        }
    }

    #[test]
    fn overwrite_replaces_content_and_leaves_hole() {
        let s = server();
        let c = small_chunk_client(&s, 10);
        populate(&c, 8, 100);
        c.download_meta().unwrap();
        c.overwrite("cls0/img0000", b"brand-new-content").unwrap();
        assert_eq!(c.get("cls0/img0000").unwrap().as_ref(), b"brand-new-content");
        assert_eq!(c.stat("cls0/img0000").unwrap().length, 17);
        // The old copy is a deletion hole; purge reclaims it.
        let report = s.purge_dataset("ds", u64::MAX).unwrap();
        assert_eq!(report.bytes_reclaimed, 100);
        assert_eq!(c.get("cls0/img0000").unwrap().as_ref(), b"brand-new-content");
        // Overwriting a file that never existed behaves like put+flush.
        c.overwrite("fresh/file", b"abc").unwrap();
        assert_eq!(c.get("fresh/file").unwrap().as_ref(), b"abc");
    }

    #[test]
    fn close_flushes_pending_writes() {
        let s = server();
        let c = small_chunk_client(&s, 8);
        c.put("pending", b"data").unwrap();
        c.close().unwrap();
        let c2 = small_chunk_client(&s, 9);
        assert_eq!(c2.get("pending").unwrap().as_ref(), b"data");
    }
}
