//! Per-dataset metadata snapshots (§4.1.3).
//!
//! "The metadata snapshot is kept simple to reduce the download time and
//! the snapshot size, containing the dataset update timestamp, the chunk
//! ID lists and the file metadata (chunk ID, offset, length and full
//! name)."
//!
//! The binary layout is versioned and CRC-protected. Chunk IDs appear
//! once in a table; each file references its chunk by table index, so a
//! 1.28 M-file dataset costs ≈ 40 B + name length per file.
//!
//! Freshness: a client compares `(dataset, updated_ms)` against the
//! dataset record in the KV database; a stale snapshot must be
//! re-downloaded (`DL_save_meta` / `DL_load_meta`).

use diesel_chunk::crc::crc32;
use diesel_chunk::ChunkId;

use crate::records::{put_string, Cursor, FileMeta};
use crate::{MetaError, Result};

const SNAPSHOT_MAGIC: [u8; 4] = *b"DSLS";
const SNAPSHOT_VERSION: u16 = 1;

/// One file row inside a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotFile {
    /// Full path within the dataset.
    pub path: String,
    /// The file's location and stat info.
    pub meta: FileMeta,
}

/// A materialized metadata snapshot of one dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetaSnapshot {
    /// Dataset name.
    pub dataset: String,
    /// Dataset update timestamp (ms) at materialization time.
    pub updated_ms: u64,
    /// All chunk IDs, sorted (write order).
    pub chunks: Vec<ChunkId>,
    /// All live files.
    pub files: Vec<SnapshotFile>,
}

impl MetaSnapshot {
    /// Serialize to the on-disk format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.chunks.len() * 16 + self.files.len() * 56);
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        let crc_pos = out.len();
        out.extend_from_slice(&0u32.to_le_bytes());
        put_string(&mut out, &self.dataset);
        out.extend_from_slice(&self.updated_ms.to_le_bytes());
        out.extend_from_slice(&(self.chunks.len() as u32).to_le_bytes());
        for c in &self.chunks {
            out.extend_from_slice(&c.0);
        }
        out.extend_from_slice(&(self.files.len() as u32).to_le_bytes());
        for f in &self.files {
            put_string(&mut out, &f.path);
            f.meta.encode_into(&mut out);
        }
        let crc = crc32(&out);
        #[expect(clippy::indexing_slicing, reason = "the CRC placeholder was pushed above")]
        let field = &mut out[crc_pos..crc_pos + 4];
        field.copy_from_slice(&crc.to_le_bytes());
        out
    }

    /// Deserialize and verify.
    pub fn decode(data: &[u8]) -> Result<Self> {
        let fail = |why: &str| MetaError::BadSnapshot(why.to_owned());
        let Some((&[m0, m1, m2, m3, v0, v1, c0, c1, c2, c3], body)) = data.split_first_chunk()
        else {
            return Err(fail("bad magic"));
        };
        if [m0, m1, m2, m3] != SNAPSHOT_MAGIC {
            return Err(fail("bad magic"));
        }
        if u16::from_le_bytes([v0, v1]) > SNAPSHOT_VERSION {
            return Err(fail("unsupported version"));
        }
        let mut hasher = diesel_chunk::crc::Hasher::new();
        hasher.update(&[m0, m1, m2, m3, v0, v1, 0, 0, 0, 0]);
        hasher.update(body);
        if hasher.finalize() != u32::from_le_bytes([c0, c1, c2, c3]) {
            return Err(fail("checksum mismatch"));
        }
        let mut c = Cursor::new(body);
        let dataset = c.string().ok_or_else(|| fail("dataset name"))?;
        let updated_ms = c.u64().ok_or_else(|| fail("timestamp"))?;
        let n_chunks = c.u32().ok_or_else(|| fail("chunk count"))? as usize;
        let mut chunks = Vec::with_capacity(n_chunks.min(1 << 20));
        for _ in 0..n_chunks {
            chunks.push(c.chunk_id().ok_or_else(|| fail("chunk id"))?);
        }
        let n_files = c.u32().ok_or_else(|| fail("file count"))? as usize;
        let mut files = Vec::with_capacity(n_files.min(1 << 22));
        for _ in 0..n_files {
            let path = c.string().ok_or_else(|| fail("file path"))?;
            let meta = FileMeta::decode_from(&mut c).ok_or_else(|| fail("file meta"))?;
            files.push(SnapshotFile { path, meta });
        }
        if c.remaining() != 0 {
            return Err(fail("trailing bytes"));
        }
        Ok(MetaSnapshot { dataset, updated_ms, chunks, files })
    }

    /// Write to a local file (`DL_save_meta`).
    pub fn save_to(&self, path: impl AsRef<std::path::Path>) -> Result<()> {
        std::fs::write(path, self.encode()).map_err(|e| MetaError::Store(e.to_string()))
    }

    /// Load from a local file (`DL_load_meta`).
    pub fn load_from(path: impl AsRef<std::path::Path>) -> Result<Self> {
        let data = std::fs::read(path).map_err(|e| MetaError::Store(e.to_string()))?;
        Self::decode(&data)
    }

    /// Is this snapshot current w.r.t. the authority's `(dataset,
    /// updated_ms)`? (§4.1.3's up-to-date check.)
    pub fn is_fresh(&self, dataset: &str, authority_updated_ms: u64) -> bool {
        self.dataset == dataset && self.updated_ms == authority_updated_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diesel_chunk::MachineId;
    use proptest::prelude::*;

    fn cid(n: u32) -> ChunkId {
        ChunkId::new(n, MachineId::from_seed(3), 9, n)
    }

    fn sample() -> MetaSnapshot {
        let chunks = vec![cid(1), cid(2)];
        let files = (0..100)
            .map(|i| SnapshotFile {
                path: format!("train/class{}/img{i}.jpg", i % 7),
                meta: FileMeta {
                    chunk: chunks[i % 2],
                    index_in_chunk: i as u32,
                    offset: (i * 1000) as u64,
                    length: 997,
                    uploaded_ms: 1234,
                },
            })
            .collect();
        MetaSnapshot { dataset: "imagenet-mini".into(), updated_ms: 777, chunks, files }
    }

    #[test]
    fn roundtrip() {
        let s = sample();
        let enc = s.encode();
        let back = MetaSnapshot::decode(&enc).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn corruption_detected() {
        let s = sample();
        let mut enc = s.encode();
        let n = enc.len();
        enc[n / 2] ^= 0x40;
        assert!(matches!(MetaSnapshot::decode(&enc), Err(MetaError::BadSnapshot(_))));
        assert!(MetaSnapshot::decode(&enc[..n - 1]).is_err());
        assert!(MetaSnapshot::decode(b"????").is_err());
    }

    #[test]
    fn freshness_check() {
        let s = sample();
        assert!(s.is_fresh("imagenet-mini", 777));
        assert!(!s.is_fresh("imagenet-mini", 778), "stale timestamp");
        assert!(!s.is_fresh("other", 777), "wrong dataset");
    }

    #[test]
    fn save_load_file() {
        let s = sample();
        let path = std::env::temp_dir().join(format!("diesel-snap-{}.bin", std::process::id()));
        s.save_to(&path).unwrap();
        let back = MetaSnapshot::load_from(&path).unwrap();
        assert_eq!(back, s);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn snapshot_is_compact() {
        // The paper: ImageNet-1K snapshot stays small. Check bytes/file
        // stays near name-length + ~48 B of fixed cost.
        let s = sample();
        let per_file = s.encode().len() as f64 / s.files.len() as f64;
        assert!(per_file < 80.0, "snapshot too fat: {per_file:.1} B/file");
    }

    #[test]
    fn empty_snapshot() {
        let s =
            MetaSnapshot { dataset: "empty".into(), updated_ms: 0, chunks: vec![], files: vec![] };
        let back = MetaSnapshot::decode(&s.encode()).unwrap();
        assert_eq!(back, s);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = MetaSnapshot::decode(&data);
        }
    }
}
