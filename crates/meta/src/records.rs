//! Binary codecs for the metadata records stored in the KV database.
//!
//! Records are versioned (one leading version byte) and little-endian.
//! Codecs are hand-rolled: the approved dependency set has no serde
//! *format* crate, and the records are simple enough that explicit
//! layouts double as documentation.

use diesel_chunk::{ChunkId, DeletionBitmap};

use crate::{MetaError, Result};

const RECORD_VERSION: u8 = 1;

/// Cursor-style reader with bounds checking.
pub(crate) struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(data: &'a [u8]) -> Self {
        Cursor { data, pos: 0 }
    }

    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.data.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(s)
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        self.take(1).and_then(|s| s.first().copied())
    }
    pub(crate) fn u32(&mut self) -> Option<u32> {
        self.take(4).and_then(|s| s.try_into().ok()).map(u32::from_le_bytes)
    }
    pub(crate) fn u64(&mut self) -> Option<u64> {
        self.take(8).and_then(|s| s.try_into().ok()).map(u64::from_le_bytes)
    }
    pub(crate) fn string(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        // diesel-lint: allow(R6) tiny metadata string, not chunk payload
        String::from_utf8(bytes.to_vec()).ok()
    }
    pub(crate) fn chunk_id(&mut self) -> Option<ChunkId> {
        self.take(16).and_then(|s| s.try_into().ok()).map(ChunkId)
    }
    pub(crate) fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }
}

pub(crate) fn put_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn bad(key_hint: &str) -> MetaError {
    MetaError::BadRecord { key: key_hint.to_owned() }
}

/// Per-dataset record (`ds/<dataset>`): the freshness authority a client
/// compares its snapshot against (§4.1.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetRecord {
    /// Millisecond timestamp of the latest chunk ingest/delete.
    pub updated_ms: u64,
    /// Number of chunks in the dataset.
    pub chunk_count: u64,
    /// Number of live files across chunks.
    pub file_count: u64,
    /// Total payload bytes across chunks.
    pub total_bytes: u64,
}

impl DatasetRecord {
    /// Serialize.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(33);
        out.push(RECORD_VERSION);
        out.extend_from_slice(&self.updated_ms.to_le_bytes());
        out.extend_from_slice(&self.chunk_count.to_le_bytes());
        out.extend_from_slice(&self.file_count.to_le_bytes());
        out.extend_from_slice(&self.total_bytes.to_le_bytes());
        out
    }

    /// Deserialize.
    pub fn decode(data: &[u8]) -> Result<Self> {
        let mut c = Cursor::new(data);
        if c.u8() != Some(RECORD_VERSION) {
            return Err(bad("DatasetRecord"));
        }
        Ok(DatasetRecord {
            updated_ms: c.u64().ok_or_else(|| bad("DatasetRecord"))?,
            chunk_count: c.u64().ok_or_else(|| bad("DatasetRecord"))?,
            file_count: c.u64().ok_or_else(|| bad("DatasetRecord"))?,
            total_bytes: c.u64().ok_or_else(|| bad("DatasetRecord"))?,
        })
    }
}

/// Per-chunk record (`ck/<dataset>/<id>`): Fig. 5b lists "the update
/// timestamp, size, number of files it contains, number of deleted files
/// and the deletion bitmap".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkRecord {
    /// Update timestamp (ms).
    pub updated_ms: u64,
    /// Total chunk size in bytes (header + payload).
    pub size: u64,
    /// Files in the chunk (live + deleted).
    pub file_count: u32,
    /// Deletion state.
    pub bitmap: DeletionBitmap,
}

impl ChunkRecord {
    /// Number of deleted files (from the bitmap).
    pub fn deleted_count(&self) -> u32 {
        self.bitmap.deleted_count() as u32
    }

    /// Serialize.
    pub fn encode(&self) -> Vec<u8> {
        let bm = self.bitmap.to_bytes();
        let mut out = Vec::with_capacity(1 + 8 + 8 + 4 + 4 + bm.len());
        out.push(RECORD_VERSION);
        out.extend_from_slice(&self.updated_ms.to_le_bytes());
        out.extend_from_slice(&self.size.to_le_bytes());
        out.extend_from_slice(&self.file_count.to_le_bytes());
        out.extend_from_slice(&self.deleted_count().to_le_bytes());
        out.extend_from_slice(&bm);
        out
    }

    /// Deserialize.
    pub fn decode(data: &[u8]) -> Result<Self> {
        let mut c = Cursor::new(data);
        if c.u8() != Some(RECORD_VERSION) {
            return Err(bad("ChunkRecord"));
        }
        let updated_ms = c.u64().ok_or_else(|| bad("ChunkRecord"))?;
        let size = c.u64().ok_or_else(|| bad("ChunkRecord"))?;
        let file_count = c.u32().ok_or_else(|| bad("ChunkRecord"))?;
        let deleted_count = c.u32().ok_or_else(|| bad("ChunkRecord"))?;
        let bm_len = DeletionBitmap::wire_len(file_count as usize);
        let bm_bytes = c.take(bm_len).ok_or_else(|| bad("ChunkRecord"))?;
        let bitmap = DeletionBitmap::from_bytes(bm_bytes, file_count as usize)
            .ok_or_else(|| bad("ChunkRecord"))?;
        if bitmap.deleted_count() as u32 != deleted_count {
            return Err(bad("ChunkRecord"));
        }
        Ok(ChunkRecord { updated_ms, size, file_count, bitmap })
    }
}

/// Per-file record (`f/<dataset>/<path>` and `dir/.../f/<name>`): where
/// the file's bytes live. This is also the per-file payload of the
/// metadata snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileMeta {
    /// The chunk holding the file.
    pub chunk: ChunkId,
    /// Index of the file within the chunk's file table (needed for
    /// bitmap updates on delete).
    pub index_in_chunk: u32,
    /// Byte offset within the chunk payload.
    pub offset: u64,
    /// File length in bytes.
    pub length: u64,
    /// Upload timestamp (ms) — `DL_stat` reports it.
    pub uploaded_ms: u64,
}

impl FileMeta {
    /// Serialize.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1 + 16 + 4 + 8 + 8 + 8);
        out.push(RECORD_VERSION);
        self.encode_into(&mut out);
        out
    }

    /// Serialize without the version byte (snapshot uses a file-level
    /// version instead).
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.chunk.0);
        out.extend_from_slice(&self.index_in_chunk.to_le_bytes());
        out.extend_from_slice(&self.offset.to_le_bytes());
        out.extend_from_slice(&self.length.to_le_bytes());
        out.extend_from_slice(&self.uploaded_ms.to_le_bytes());
    }

    pub(crate) fn decode_from(c: &mut Cursor<'_>) -> Option<Self> {
        Some(FileMeta {
            chunk: c.chunk_id()?,
            index_in_chunk: c.u32()?,
            offset: c.u64()?,
            length: c.u64()?,
            uploaded_ms: c.u64()?,
        })
    }

    /// Deserialize.
    pub fn decode(data: &[u8]) -> Result<Self> {
        let mut c = Cursor::new(data);
        if c.u8() != Some(RECORD_VERSION) {
            return Err(bad("FileMeta"));
        }
        Self::decode_from(&mut c).ok_or_else(|| bad("FileMeta"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diesel_chunk::MachineId;
    use proptest::prelude::*;

    fn cid(seed: u64) -> ChunkId {
        ChunkId::new(seed as u32, MachineId::from_seed(seed), seed as u32 % 999, 7)
    }

    #[test]
    fn dataset_record_roundtrip() {
        let r =
            DatasetRecord { updated_ms: 123, chunk_count: 4, file_count: 99, total_bytes: 1 << 40 };
        assert_eq!(DatasetRecord::decode(&r.encode()).unwrap(), r);
    }

    #[test]
    fn chunk_record_roundtrip_with_bitmap() {
        let mut bitmap = DeletionBitmap::new(77);
        bitmap.set_deleted(5);
        bitmap.set_deleted(76);
        let r = ChunkRecord { updated_ms: 9, size: 4 << 20, file_count: 77, bitmap };
        let back = ChunkRecord::decode(&r.encode()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.deleted_count(), 2);
    }

    #[test]
    fn file_meta_roundtrip() {
        let f = FileMeta {
            chunk: cid(11),
            index_in_chunk: 3,
            offset: 4096,
            length: 1234,
            uploaded_ms: 55,
        };
        assert_eq!(FileMeta::decode(&f.encode()).unwrap(), f);
    }

    #[test]
    fn decoders_reject_garbage() {
        assert!(DatasetRecord::decode(&[]).is_err());
        assert!(DatasetRecord::decode(&[9, 0, 0]).is_err());
        assert!(ChunkRecord::decode(&[1, 2, 3]).is_err());
        assert!(FileMeta::decode(&[1]).is_err());
        // Wrong version byte.
        let good =
            FileMeta { chunk: cid(1), index_in_chunk: 0, offset: 0, length: 0, uploaded_ms: 0 }
                .encode();
        let mut wrong = good.clone();
        wrong[0] = 99;
        assert!(FileMeta::decode(&wrong).is_err());
    }

    #[test]
    fn chunk_record_rejects_count_bitmap_mismatch() {
        let bitmap = DeletionBitmap::new(8);
        let r = ChunkRecord { updated_ms: 1, size: 2, file_count: 8, bitmap };
        let mut enc = r.encode();
        // Corrupt the deleted_count field (bytes 17..21 → offset 1+8+8+4 = 21..25).
        enc[21] = 5;
        assert!(ChunkRecord::decode(&enc).is_err());
    }

    proptest! {
        #[test]
        fn file_meta_roundtrip_prop(idx in any::<u32>(), off in any::<u64>(), len in any::<u64>(), up in any::<u64>(), seed in any::<u64>()) {
            let f = FileMeta { chunk: cid(seed), index_in_chunk: idx, offset: off, length: len, uploaded_ms: up };
            prop_assert_eq!(FileMeta::decode(&f.encode()).unwrap(), f);
        }

        #[test]
        fn record_decoders_never_panic(data in proptest::collection::vec(any::<u8>(), 0..128)) {
            let _ = DatasetRecord::decode(&data);
            let _ = ChunkRecord::decode(&data);
            let _ = FileMeta::decode(&data);
        }
    }
}
