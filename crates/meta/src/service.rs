//! The server-side metadata path.
//!
//! `MetaService` performs the metadata *processing* that the paper
//! deliberately keeps out of the KV database (§4.1.1): extracting
//! key-value pairs from chunk headers on ingest, translating file-system
//! operations into KV operations, and materializing snapshots.

use std::sync::Arc;

use diesel_chunk::{ChunkHeader, ChunkId};
use diesel_kv::{Bytes, KvStore};

use crate::keys;
use crate::records::{ChunkRecord, DatasetRecord, FileMeta};
use crate::snapshot::{MetaSnapshot, SnapshotFile};
use crate::{MetaError, Result};

/// Metadata processing over a KV storage backend.
///
/// Dataset and chunk record counters are maintained with
/// [`KvStore::update`] — an atomic read-modify-write *in the store* —
/// because pooled front-end servers share one KV cluster, so no lock
/// local to a single service instance could serialize them.
pub struct MetaService<K> {
    kv: Arc<K>,
}

impl<K: KvStore> MetaService<K> {
    /// A service over `kv`.
    pub fn new(kv: Arc<K>) -> Self {
        MetaService { kv }
    }

    /// The underlying KV handle.
    pub fn kv(&self) -> &Arc<K> {
        &self.kv
    }

    /// Ingest one chunk's header: "the server extracts the metadata to
    /// construct key-value pairs and writes them to the key-value
    /// database" (Fig. 3). `chunk_size` is the full chunk length.
    pub fn ingest_chunk(&self, dataset: &str, header: &ChunkHeader, chunk_size: u64) -> Result<()> {
        let mut pairs: Vec<(String, Bytes)> = Vec::with_capacity(1 + header.files.len());
        let record = ChunkRecord {
            updated_ms: header.updated_ms,
            size: chunk_size,
            file_count: header.files.len() as u32,
            bitmap: header.bitmap.clone(),
        };
        pairs.push((keys::chunk_key(dataset, header.id), record.encode().into()));

        let mut live_files = 0u64;
        let mut live_bytes = 0u64;
        for (i, f) in header.files.iter().enumerate() {
            if header.bitmap.is_deleted(i) {
                continue;
            }
            live_files += 1;
            live_bytes += f.length;
            let meta = FileMeta {
                chunk: header.id,
                index_in_chunk: i as u32,
                offset: f.offset,
                length: f.length,
                uploaded_ms: header.updated_ms,
            };
            pairs.push((keys::file_key(dataset, &f.name), meta.encode().into()));
        }
        self.kv.mput(pairs)?;

        // Fold this chunk's contribution into the dataset record with an
        // atomic store-side update (concurrent ingest through *other*
        // servers over the same KV races on the same record).
        let mut decode_err = None;
        self.kv.update(&keys::dataset_key(dataset), &mut |cur| {
            let mut rec = match cur {
                Some(raw) => match DatasetRecord::decode(&raw) {
                    Ok(rec) => rec,
                    Err(e) => {
                        decode_err = Some(e);
                        return Some(raw); // leave the record untouched
                    }
                },
                None => {
                    DatasetRecord { updated_ms: 0, chunk_count: 0, file_count: 0, total_bytes: 0 }
                }
            };
            rec.updated_ms = rec.updated_ms.max(header.updated_ms);
            rec.chunk_count += 1;
            rec.file_count += live_files;
            rec.total_bytes += live_bytes;
            Some(rec.encode().into())
        })?;
        match decode_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// The dataset record (freshness authority).
    pub fn dataset_record(&self, dataset: &str) -> Result<DatasetRecord> {
        match self.kv.get(&keys::dataset_key(dataset))? {
            Some(raw) => DatasetRecord::decode(&raw),
            None => Err(MetaError::NoSuchDataset(dataset.to_owned())),
        }
    }

    /// Point lookup of one file's metadata ("retrieved by a single get").
    pub fn file_meta(&self, dataset: &str, path: &str) -> Result<FileMeta> {
        match self.kv.get(&keys::file_key(dataset, path))? {
            Some(raw) => FileMeta::decode(&raw),
            None => Err(MetaError::NoSuchFile(path.to_owned())),
        }
    }

    /// Batched [`file_meta`](Self::file_meta): one [`KvStore::mget`] for
    /// every path, whose keys share one buffer. Results are in request
    /// order, and the first missing or undecodable path in request order
    /// is the error the per-path loop would have returned.
    pub fn file_metas(&self, dataset: &str, paths: &[&str]) -> Result<Vec<FileMeta>> {
        if paths.is_empty() {
            return Ok(Vec::new());
        }
        let prefix = keys::file_prefix(dataset);
        let mut buf = String::with_capacity(paths.iter().map(|p| prefix.len() + p.len()).sum());
        let mut ends = Vec::with_capacity(paths.len());
        for path in paths {
            buf.push_str(&prefix);
            buf.push_str(path);
            ends.push(buf.len());
        }
        let mut start = 0;
        let kv_keys: Vec<&str> = ends
            .iter()
            .map(|&end| {
                let key = buf.get(start..end).unwrap_or_default();
                start = end;
                key
            })
            .collect();
        let values = self.kv.mget(&kv_keys)?;
        paths
            .iter()
            .zip(values)
            .map(|(path, value)| match value {
                Some(raw) => FileMeta::decode(&raw),
                None => Err(MetaError::NoSuchFile((*path).to_owned())),
            })
            .collect()
    }

    /// Chunk record lookup.
    pub fn chunk_record(&self, dataset: &str, id: ChunkId) -> Result<ChunkRecord> {
        match self.kv.get(&keys::chunk_key(dataset, id))? {
            Some(raw) => ChunkRecord::decode(&raw),
            None => Err(MetaError::NoSuchDataset(format!("{dataset}:{id}"))),
        }
    }

    /// All chunk IDs of a dataset, in write (ID) order.
    pub fn chunk_ids(&self, dataset: &str) -> Result<Vec<ChunkId>> {
        let prefix = keys::chunk_prefix(dataset);
        let mut ids = Vec::new();
        for (k, _) in self.kv.pscan(&prefix)? {
            let enc = k.get(prefix.len()..).unwrap_or_default();
            ids.push(ChunkId::decode(enc).map_err(|_| MetaError::BadRecord { key: k.clone() })?);
        }
        Ok(ids) // pscan is sorted; the encoding is order-preserving
    }

    /// Delete a file: remove its file record and flip its bit in the
    /// chunk record. Returns the removed meta (the caller updates the chunk
    /// bytes in object storage via `mark_deleted`).
    pub fn delete_file(&self, dataset: &str, path: &str, now_ms: u64) -> Result<FileMeta> {
        let meta = self.file_meta(dataset, path)?;
        // Flip the file's bit in the chunk record (atomically — deleters
        // of sibling files in the same chunk race on the bitmap).
        let ck = keys::chunk_key(dataset, meta.chunk);
        let mut found = false;
        let mut decode_err = None;
        self.kv.update(&ck, &mut |cur| {
            let raw = cur?;
            match ChunkRecord::decode(&raw) {
                Ok(mut rec) => {
                    found = true;
                    rec.bitmap.set_deleted(meta.index_in_chunk as usize);
                    rec.updated_ms = now_ms;
                    Some(rec.encode().into())
                }
                Err(e) => {
                    decode_err = Some(e);
                    Some(raw)
                }
            }
        })?;
        if let Some(e) = decode_err {
            return Err(e);
        }
        if !found {
            return Err(MetaError::BadRecord { key: ck });
        }
        self.kv.delete(&keys::file_key(dataset, path))?;
        // Subtract the file from the dataset counters.
        let mut decode_err = None;
        self.kv.update(&keys::dataset_key(dataset), &mut |cur| {
            let raw = cur?;
            match DatasetRecord::decode(&raw) {
                Ok(mut ds) => {
                    ds.file_count = ds.file_count.saturating_sub(1);
                    ds.total_bytes = ds.total_bytes.saturating_sub(meta.length);
                    ds.updated_ms = now_ms;
                    Some(ds.encode().into())
                }
                Err(e) => {
                    decode_err = Some(e);
                    Some(raw)
                }
            }
        })?;
        match decode_err {
            Some(e) => Err(e),
            None => Ok(meta),
        }
    }

    /// Apply signed deltas to the dataset counters (used by compaction,
    /// which removes a chunk's contribution before re-ingesting its
    /// rewritten replacement).
    pub fn adjust_dataset_counters(
        &self,
        dataset: &str,
        d_chunks: i64,
        d_files: i64,
        d_bytes: i64,
        now_ms: u64,
    ) -> Result<()> {
        let mut found = false;
        let mut decode_err = None;
        self.kv.update(&keys::dataset_key(dataset), &mut |cur| {
            let raw = cur?;
            match DatasetRecord::decode(&raw) {
                Ok(mut rec) => {
                    found = true;
                    rec.chunk_count = rec.chunk_count.saturating_add_signed(d_chunks);
                    rec.file_count = rec.file_count.saturating_add_signed(d_files);
                    rec.total_bytes = rec.total_bytes.saturating_add_signed(d_bytes);
                    rec.updated_ms = rec.updated_ms.max(now_ms);
                    Some(rec.encode().into())
                }
                Err(e) => {
                    decode_err = Some(e);
                    Some(raw)
                }
            }
        })?;
        if let Some(e) = decode_err {
            return Err(e);
        }
        if !found {
            return Err(MetaError::NoSuchDataset(dataset.to_owned()));
        }
        Ok(())
    }

    /// Remove every key belonging to `dataset` (`DL_delete_dataset`).
    /// Returns the number of deleted keys.
    pub fn delete_dataset(&self, dataset: &str) -> Result<u64> {
        let mut deleted = 0u64;
        for prefix in [keys::chunk_prefix(dataset), keys::file_prefix(dataset)] {
            for (k, _) in self.kv.pscan(&prefix)? {
                if self.kv.delete(&k)? {
                    deleted += 1;
                }
            }
        }
        if self.kv.delete(&keys::dataset_key(dataset))? {
            deleted += 1;
        }
        Ok(deleted)
    }

    /// Materialize the metadata snapshot of `dataset` (§4.1.3).
    pub fn build_snapshot(&self, dataset: &str) -> Result<MetaSnapshot> {
        let record = self.dataset_record(dataset)?;
        let chunks = self.chunk_ids(dataset)?;
        let fprefix = keys::file_prefix(dataset);
        let mut files = Vec::new();
        for (k, v) in self.kv.pscan(&fprefix)? {
            files.push(SnapshotFile {
                path: k.get(fprefix.len()..).unwrap_or_default().to_owned(),
                meta: FileMeta::decode(&v)?,
            });
        }
        Ok(MetaSnapshot {
            dataset: dataset.to_owned(),
            updated_ms: record.updated_ms,
            chunks,
            files,
        })
    }
}

impl<K> std::fmt::Debug for MetaService<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetaService").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diesel_chunk::{ChunkBuilder, ChunkIdGenerator};
    use diesel_kv::ShardedKv;

    use crate::FileTable;

    fn service() -> MetaService<ShardedKv> {
        MetaService::new(Arc::new(ShardedKv::new()))
    }

    fn make_chunk(files: &[(&str, &[u8])], ts: u32) -> (ChunkHeader, Vec<u8>) {
        let mut b = ChunkBuilder::with_default_config();
        for (n, d) in files {
            b.add_file(n, d).unwrap();
        }
        let ids = ChunkIdGenerator::deterministic(1, 1, ts);
        b.seal(ids.next_id(), ts as u64 * 1000)
    }

    #[test]
    fn ingest_then_lookup() {
        let svc = service();
        let (h, bytes) =
            make_chunk(&[("train/cat/1.jpg", b"xx"), ("train/dog/2.jpg", b"yyy")], 100);
        svc.ingest_chunk("ds", &h, bytes.len() as u64).unwrap();

        let meta = svc.file_meta("ds", "train/cat/1.jpg").unwrap();
        assert_eq!(meta.length, 2);
        assert_eq!(meta.chunk, h.id);
        assert!(matches!(svc.file_meta("ds", "nope"), Err(MetaError::NoSuchFile(_))));
        let both = ["train/dog/2.jpg", "train/cat/1.jpg"];
        let batched = svc.file_metas("ds", &both).unwrap();
        assert_eq!(batched, both.map(|p| svc.file_meta("ds", p).unwrap()));
        let missing = svc.file_metas("ds", &["train/cat/1.jpg", "nope", "gone"]);
        assert!(matches!(missing, Err(MetaError::NoSuchFile(p)) if p == "nope"));

        let rec = svc.dataset_record("ds").unwrap();
        assert_eq!(rec.chunk_count, 1);
        assert_eq!(rec.file_count, 2);
        assert_eq!(rec.total_bytes, 5);
        assert_eq!(rec.updated_ms, 100_000);

        let cr = svc.chunk_record("ds", h.id).unwrap();
        assert_eq!(cr.file_count, 2);
        assert_eq!(cr.size, bytes.len() as u64);
    }

    #[test]
    fn multiple_chunks_accumulate_and_sort() {
        let svc = service();
        let ids = ChunkIdGenerator::deterministic(1, 1, 50);
        let mut expected_ids = Vec::new();
        for i in 0..5 {
            let mut b = ChunkBuilder::with_default_config();
            b.add_file(&format!("f{i}"), b"data").unwrap();
            let (h, bytes) = b.seal(ids.next_id(), 50_000 + i);
            expected_ids.push(h.id);
            svc.ingest_chunk("ds", &h, bytes.len() as u64).unwrap();
        }
        let got = svc.chunk_ids("ds").unwrap();
        assert_eq!(got, expected_ids, "chunk scan must be in write order");
        assert_eq!(svc.dataset_record("ds").unwrap().chunk_count, 5);
    }

    #[test]
    fn delete_file_updates_everything() {
        let svc = service();
        let (h, b) = make_chunk(&[("a/x", b"1234"), ("a/y", b"56")], 9);
        svc.ingest_chunk("ds", &h, b.len() as u64).unwrap();

        let meta = svc.delete_file("ds", "a/x", 99_000).unwrap();
        assert_eq!(meta.length, 4);
        assert!(svc.file_meta("ds", "a/x").is_err());
        // Chunk record bitmap updated.
        let cr = svc.chunk_record("ds", h.id).unwrap();
        assert_eq!(cr.deleted_count(), 1);
        assert_eq!(cr.updated_ms, 99_000);
        // A fresh snapshot no longer lists it.
        let table = FileTable::new(svc.build_snapshot("ds").unwrap());
        let names: Vec<String> = table.readdir("a").unwrap().into_iter().map(|e| e.name).collect();
        assert_eq!(names, ["y"]);
        // Dataset counters updated.
        let ds = svc.dataset_record("ds").unwrap();
        assert_eq!(ds.file_count, 1);
        assert_eq!(ds.total_bytes, 2);
        assert_eq!(ds.updated_ms, 99_000);
    }

    #[test]
    fn snapshot_matches_service_state() {
        let svc = service();
        let (h, b) = make_chunk(&[("p/a", b"12"), ("p/b", b"345")], 33);
        svc.ingest_chunk("ds", &h, b.len() as u64).unwrap();
        let snap = svc.build_snapshot("ds").unwrap();
        assert_eq!(snap.dataset, "ds");
        assert_eq!(snap.chunks, vec![h.id]);
        assert_eq!(snap.files.len(), 2);
        assert!(snap.is_fresh("ds", svc.dataset_record("ds").unwrap().updated_ms));

        // After a delete the old snapshot is stale.
        svc.delete_file("ds", "p/a", 999_999).unwrap();
        assert!(!snap.is_fresh("ds", svc.dataset_record("ds").unwrap().updated_ms));
    }

    #[test]
    fn deleted_files_in_ingested_chunk_are_skipped() {
        let svc = service();
        let (mut h, b) = make_chunk(&[("keep", b"k"), ("gone", b"g")], 1);
        h.bitmap.set_deleted(1);
        svc.ingest_chunk("ds", &h, b.len() as u64).unwrap();
        assert!(svc.file_meta("ds", "keep").is_ok());
        assert!(svc.file_meta("ds", "gone").is_err());
        assert_eq!(svc.dataset_record("ds").unwrap().file_count, 1);
    }

    #[test]
    fn delete_dataset_removes_all_keys() {
        let svc = service();
        let (h, b) = make_chunk(&[("a/b/c", b"1"), ("a/d", b"2")], 7);
        svc.ingest_chunk("ds", &h, b.len() as u64).unwrap();
        let (h2, b2) = make_chunk(&[("other", b"3")], 8);
        svc.ingest_chunk("keepme", &h2, b2.len() as u64).unwrap();
        let kept = svc.kv().pscan("").unwrap();
        let kept: Vec<_> = kept.into_iter().filter(|(k, _)| k.contains("keepme")).collect();
        assert_eq!(kept.len(), 3, "keepme: chunk, file and dataset record");

        let removed = svc.delete_dataset("ds").unwrap();
        assert_eq!(removed, 4, "1 chunk + 2 files + the dataset record");
        assert!(svc.dataset_record("ds").is_err());
        assert!(svc.file_meta("ds", "a/d").is_err());
        // Other datasets untouched.
        assert_eq!(svc.kv().pscan("").unwrap(), kept);
    }

    #[test]
    fn no_such_dataset() {
        let svc = service();
        assert!(matches!(svc.dataset_record("ghost"), Err(MetaError::NoSuchDataset(_))));
        assert!(svc.build_snapshot("ghost").is_err());
        assert_eq!(svc.chunk_ids("ghost").unwrap(), vec![]);
    }
}
