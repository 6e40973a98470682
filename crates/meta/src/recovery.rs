//! Fault recovery of the in-memory metadata database (§4.1.2).
//!
//! Chunks are self-contained (headers embed all file metadata) and their
//! IDs sort by creation time, so the KV database is derived state:
//!
//! * **Scenario (a)** — some recently written pairs were lost (a KV node
//!   died): [`recover_from_timestamp`] re-scans only chunks whose ID
//!   timestamp is at or after a known-good point.
//! * **Scenario (b)** — all pairs were lost (power failure):
//!   [`recover_full`] scans every chunk **in ID order**, which replays
//!   the original write order so later updates win.
//!
//! A torn chunk — an object shorter than the header and payload it
//! declares, as a crash mid-write leaves it — or a key under the
//! dataset's prefix that names no chunk is skipped, left in place and
//! counted in [`RecoveryReport::chunks_quarantined`], so one bad object
//! cannot take the whole dataset down. A complete object whose header
//! fails its checksum is still an error: that is corruption, not a
//! crash.

use diesel_chunk::{ChunkError, ChunkHeader, ChunkId};
use diesel_kv::KvStore;
use diesel_store::ObjectStore;

use crate::service::MetaService;
use crate::{MetaError, Result};

/// Outcome of a recovery pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Chunks scanned from the object store.
    pub chunks_scanned: u64,
    /// Live files re-registered.
    pub files_recovered: u64,
    /// Bytes of chunk data read to perform the scan (headers only would
    /// be `header_bytes`; we also report it to show the benefit of
    /// header-prefix reads).
    pub header_bytes: u64,
    /// Torn chunks and non-chunk keys skipped (left in place).
    pub chunks_quarantined: u64,
}

/// Key prefix under which a dataset's chunks live in the object store.
pub fn chunk_object_prefix(dataset: &str) -> String {
    format!("{dataset}/")
}

/// Object-store key of one chunk.
pub fn chunk_object_key(dataset: &str, id: ChunkId) -> String {
    format!("{dataset}/{}", id.encode())
}

/// Parse the chunk ID out of an object key produced by
/// [`chunk_object_key`].
pub fn parse_chunk_object_key<'a>(dataset: &str, key: &'a str) -> Option<&'a str> {
    key.strip_prefix(&chunk_object_prefix(dataset))
}

/// Scenario (b): rebuild all metadata of `dataset` from scratch.
///
/// Chunks are listed in key order — the order-preserving ID encoding
/// makes that the original write order — and each self-contained header
/// is re-ingested.
pub fn recover_full<K: KvStore, S: ObjectStore>(
    service: &MetaService<K>,
    store: &S,
    dataset: &str,
) -> Result<RecoveryReport> {
    recover_from_timestamp(service, store, dataset, 0)
}

/// Scenario (a): rebuild metadata for chunks created at or after
/// `since_secs` (chunk-ID timestamp seconds).
pub fn recover_from_timestamp<K: KvStore, S: ObjectStore>(
    service: &MetaService<K>,
    store: &S,
    dataset: &str,
    since_secs: u32,
) -> Result<RecoveryReport> {
    let mut report = RecoveryReport::default();
    for key in store.list_prefix(&chunk_object_prefix(dataset)) {
        let Some(encoded) = parse_chunk_object_key(dataset, &key) else { continue };
        let Ok(id) = ChunkId::decode(encoded) else {
            report.chunks_quarantined += 1;
            continue;
        };
        if id.timestamp_secs() < since_secs {
            continue;
        }
        // Self-contained headers let recovery read only the chunk prefix.
        // We don't know the header length up front; read a generous
        // prefix and fall back to the whole object when the file table is
        // longer.
        let size = store.size_of(&key).unwrap_or(0);
        let probe = store
            .get_range(&key, 0, (64 << 10).min(size))
            .map_err(|e| MetaError::Store(e.to_string()))?;
        let (header, bytes_read, chunk_size) = match ChunkHeader::decode(&probe) {
            Ok(h) => (Some(h), probe.len(), size),
            Err(_) => {
                let whole = store.get(&key).map_err(|e| MetaError::Store(e.to_string()))?;
                match ChunkHeader::decode(&whole) {
                    Ok(h) => (Some(h), whole.len(), whole.len()),
                    Err(ChunkError::Truncated { .. }) => (None, whole.len(), whole.len()),
                    Err(e) => return Err(e.into()),
                }
            }
        };
        report.header_bytes += bytes_read as u64;
        // Torn: too short for its own header, or for its payload.
        let Some(header) = header.filter(|h| chunk_size >= h.chunk_len()) else {
            report.chunks_quarantined += 1;
            continue;
        };
        service.ingest_chunk(dataset, &header, chunk_size as u64)?;
        report.chunks_scanned += 1;
        report.files_recovered += header.bitmap.live_count() as u64;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use diesel_chunk::{ChunkBuilder, ChunkBuilderConfig, ChunkIdGenerator, ChunkWriter};
    use diesel_kv::{ClusterConfig, KvCluster, ShardedKv};
    use diesel_store::{Bytes, MemObjectStore};

    use crate::FileTable;
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
    use std::sync::Arc;

    /// Write a small dataset: returns (service, store, file names).
    fn populate(ts: u32) -> (MetaService<ShardedKv>, MemObjectStore, Vec<String>) {
        let svc = MetaService::new(Arc::new(ShardedKv::new()));
        let store = MemObjectStore::new();
        let ids = ChunkIdGenerator::deterministic(1, 1, ts);
        let cfg = ChunkBuilderConfig { target_chunk_size: 4096, ..Default::default() };
        let mut w = ChunkWriter::new(cfg, &ids).with_clock(move || ts as u64 * 1000);
        let mut names = Vec::new();
        for i in 0..40 {
            let name = format!("cls{}/img{i:03}.bin", i % 4);
            w.add_file(&name, &[i as u8; 300]).unwrap();
            names.push(name);
        }
        for sealed in w.finish() {
            store.put(&chunk_object_key("ds", sealed.header.id), sealed.bytes.clone()).unwrap();
            svc.ingest_chunk("ds", &sealed.header, sealed.bytes.len() as u64).unwrap();
        }
        (svc, store, names)
    }

    #[test]
    fn full_recovery_rebuilds_identical_metadata() {
        let (svc, store, names) = populate(100);
        let snap_before = svc.build_snapshot("ds").unwrap();

        // Power loss: wipe the KV store, then recover from chunks.
        svc.kv().clear();
        assert!(svc.dataset_record("ds").is_err());
        let report = recover_full(&svc, &store, "ds").unwrap();
        assert_eq!(report.files_recovered, 40);
        assert!(report.chunks_scanned > 1);

        let snap_after = svc.build_snapshot("ds").unwrap();
        assert_eq!(snap_after.chunks, snap_before.chunks);
        assert_eq!(snap_after.files, snap_before.files);
        for n in &names {
            assert!(svc.file_meta("ds", n).is_ok(), "missing {n} after recovery");
        }
    }

    #[test]
    fn partial_recovery_scans_only_recent_chunks() {
        // Two write sessions at t=100 and t=200.
        let svc = MetaService::new(Arc::new(ShardedKv::new()));
        let store = MemObjectStore::new();
        for ts in [100u32, 200] {
            let ids = ChunkIdGenerator::deterministic(1, 1, ts);
            let cfg = ChunkBuilderConfig { target_chunk_size: 2048, ..Default::default() };
            let mut w = ChunkWriter::new(cfg, &ids).with_clock(move || ts as u64);
            for i in 0..10 {
                w.add_file(&format!("t{ts}/f{i}"), &[0u8; 256]).unwrap();
            }
            for sealed in w.finish() {
                store.put(&chunk_object_key("ds", sealed.header.id), sealed.bytes.clone()).unwrap();
                svc.ingest_chunk("ds", &sealed.header, sealed.bytes.len() as u64).unwrap();
            }
        }
        // Simulate losing only the second session's metadata.
        let kv = svc.kv();
        kv.retain(|k, _| !k.contains("t200/"));
        assert!(svc.file_meta("ds", "t200/f0").is_err());
        assert!(svc.file_meta("ds", "t100/f0").is_ok());

        let report = recover_from_timestamp(&svc, &store, "ds", 150).unwrap();
        assert_eq!(report.files_recovered, 10, "only the t=200 chunks rescanned");
        assert!(svc.file_meta("ds", "t200/f9").is_ok());
    }

    #[test]
    fn recovery_works_against_a_cluster_after_power_loss() {
        let cluster =
            Arc::new(KvCluster::new(ClusterConfig { instances: 4, shards_per_instance: 8 }));
        let svc = MetaService::new(cluster.clone());
        let store = MemObjectStore::new();
        let ids = ChunkIdGenerator::deterministic(2, 2, 77);
        let cfg = ChunkBuilderConfig { target_chunk_size: 4096, ..Default::default() };
        let mut w = ChunkWriter::new(cfg, &ids).with_clock(|| 77_000);
        for i in 0..30 {
            w.add_file(&format!("f/{i}"), &[1u8; 200]).unwrap();
        }
        for sealed in w.finish() {
            store.put(&chunk_object_key("ds", sealed.header.id), sealed.bytes.clone()).unwrap();
            svc.ingest_chunk("ds", &sealed.header, sealed.bytes.len() as u64).unwrap();
        }
        cluster.power_loss();
        let report = recover_full(&svc, &store, "ds").unwrap();
        assert_eq!(report.files_recovered, 30);
        assert_eq!(svc.dataset_record("ds").unwrap().file_count, 30);
    }

    #[test]
    fn recovery_skips_foreign_datasets() {
        let (svc, store, _) = populate(50);
        // Another dataset's chunks in the same store.
        store.put("otherds/zzz", Bytes::from_static(b"not-a-chunk")).unwrap();
        svc.kv().clear();
        let report = recover_full(&svc, &store, "ds").unwrap();
        assert_eq!(report.files_recovered, 40);
    }

    #[test]
    fn recovery_reads_only_header_prefixes() {
        let (svc, store, _) = populate(60);
        let total: u64 = store.total_bytes();
        svc.kv().clear();
        let report = recover_full(&svc, &store, "ds").unwrap();
        assert!(report.header_bytes <= total, "recovery must not read more than the dataset");
    }

    /// Forwards to a [`ShardedKv`], counting single-key writes (each
    /// `mput` pair is one) apart from read-modify-writes.
    #[derive(Default)]
    struct CountingKv {
        inner: ShardedKv,
        puts: AtomicUsize,
        updates: AtomicUsize,
    }

    impl KvStore for CountingKv {
        fn get(&self, key: &str) -> diesel_kv::Result<Option<Bytes>> {
            self.inner.get(key)
        }
        fn put(&self, key: &str, value: Bytes) -> diesel_kv::Result<()> {
            self.puts.fetch_add(1, Relaxed);
            self.inner.put(key, value)
        }
        fn delete(&self, key: &str) -> diesel_kv::Result<bool> {
            self.inner.delete(key)
        }
        fn update(
            &self,
            key: &str,
            f: &mut dyn FnMut(Option<Bytes>) -> Option<Bytes>,
        ) -> diesel_kv::Result<()> {
            self.updates.fetch_add(1, Relaxed);
            self.inner.update(key, f)
        }
        fn pscan(&self, prefix: &str) -> diesel_kv::Result<Vec<(String, Bytes)>> {
            self.inner.pscan(prefix)
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
    }

    #[test]
    fn ingest_puts_one_record_per_live_file() {
        let kv = Arc::new(CountingKv::default());
        let svc = MetaService::new(kv.clone());
        let store = MemObjectStore::new();
        let names: Vec<String> = (0..24)
            .map(|i| match i % 4 {
                0 => format!("a/b/c/{i}"),
                1 => format!("a/b/d/{i}"),
                2 => format!("a/e/{i}"),
                _ => format!("top{i}"),
            })
            .collect();
        let n = names.len();
        let mut b = ChunkBuilder::with_default_config();
        for name in &names {
            b.add_file(name, name.as_bytes()).unwrap();
        }
        let (header, bytes) = b.seal(ChunkIdGenerator::deterministic(4, 4, 40).next_id(), 40_000);
        let size = bytes.len() as u64;
        store.put(&chunk_object_key("ds", header.id), bytes.into()).unwrap();

        let ingest_counts = || (kv.puts.swap(0, Relaxed), kv.updates.swap(0, Relaxed));
        svc.ingest_chunk("ds", &header, size).unwrap();
        assert_eq!(ingest_counts(), (1 + n, 1));
        let dirs = ["", "a", "a/b", "a/b/c", "a/b/d", "a/e"];
        let listings = || {
            let table = FileTable::new(svc.build_snapshot("ds").unwrap());
            dirs.map(|dir| table.readdir(dir).unwrap())
        };
        let (state, listed) = (kv.pscan("").unwrap(), listings());
        assert_eq!(state.len(), 2 + n, "the chunk, each file and the dataset record");
        let root: Vec<&str> = listed[0].iter().map(|e| e.name.as_str()).collect();
        assert_eq!(root, ["a", "top11", "top15", "top19", "top23", "top3", "top7"]);

        kv.inner.clear();
        recover_full(&svc, &store, "ds").unwrap();
        assert_eq!(ingest_counts(), (1 + n, 1));
        assert_eq!(kv.pscan("").unwrap(), state);
        assert_eq!(listings(), listed);
    }

    #[test]
    fn garbage_keys_and_torn_chunks_are_quarantined_in_place() {
        let (svc, store, names) = populate(70);
        let keys = store.list_prefix("ds/");
        let victim = keys.last().unwrap();
        let whole = store.get(victim).unwrap();
        let lost = ChunkHeader::decode(&whole).unwrap().bitmap.live_count() as u64;
        store.put(victim, whole.slice(..whole.len() - 1)).unwrap();
        store.put("ds/NOT-A-VALID-ID!!", Bytes::from_static(b"junk")).unwrap();
        svc.kv().clear();
        let report = recover_full(&svc, &store, "ds").unwrap();
        assert_eq!(report.chunks_quarantined, 2);
        assert_eq!(report.chunks_scanned as usize, keys.len() - 1);
        assert_eq!(report.files_recovered, names.len() as u64 - lost);
        assert_eq!(store.size_of(victim), Some(whole.len() - 1), "nothing is deleted");
        assert!(store.get("ds/NOT-A-VALID-ID!!").is_ok(), "nothing is deleted");
    }
}
