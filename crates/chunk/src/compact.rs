//! Chunk compaction — the `DL_purge` housekeeping operation (§5).
//!
//! File modification/deletion in DIESEL marks entries in a chunk's
//! deletion bitmap, leaving holes in the payload. `compact_chunk` rewrites
//! a chunk keeping only live files, assigning a fresh chunk ID (the
//! compacted chunk is a new write, so it must sort after existing chunks
//! for recovery correctness).

use crate::builder::ChunkBuilder;
use crate::format::ChunkHeader;
use crate::id::ChunkIdGenerator;
use crate::view::ChunkView;
use crate::{ChunkBuilderConfig, ChunkError, Result};

/// Statistics from one compaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionStats {
    /// Files kept (live before compaction).
    pub live_files: usize,
    /// Files dropped (deleted before compaction).
    pub dropped_files: usize,
    /// Payload bytes reclaimed.
    pub reclaimed_bytes: u64,
}

/// Rewrite `chunk` without its deleted files.
///
/// Returns `None` when the chunk has no deleted files (nothing to do) —
/// callers should keep the original chunk in that case. Returns the new
/// chunk bytes, its header, and stats otherwise. If every file is deleted
/// the resulting chunk is empty (zero files) and callers typically delete
/// the object instead of storing it; the empty chunk is still returned so
/// the decision stays with the caller.
pub fn compact_chunk(
    chunk: &ChunkView,
    ids: &ChunkIdGenerator,
    updated_ms: u64,
) -> Result<Option<(ChunkHeader, Vec<u8>, CompactionStats)>> {
    let header = chunk.header();
    let dropped = header.deleted_count();
    if dropped == 0 {
        return Ok(None);
    }
    let mut builder = ChunkBuilder::new(ChunkBuilderConfig {
        // A builder never splits a chunk, so the target only sizes its
        // one allocation: the original chunk bounds the rewrite.
        target_chunk_size: header.chunk_len(),
        max_file_size: usize::MAX,
    });
    let mut reclaimed = 0u64;
    for (i, f) in header.files.iter().enumerate() {
        if header.bitmap.is_deleted(i) {
            reclaimed += f.length;
        } else {
            builder.add_file(&f.name, &chunk.read_file_at(i)?)?;
        }
    }
    let live = builder.file_count();
    let (new_header, bytes) = builder.seal(ids.next_id(), updated_ms);
    Ok(Some((
        new_header,
        bytes,
        CompactionStats { live_files: live, dropped_files: dropped, reclaimed_bytes: reclaimed },
    )))
}

/// Mark a file deleted inside a sealed chunk, in place.
///
/// Rewrites only the deletion bitmap, the deleted-count field and the
/// header CRC; payload bytes are untouched, so this is O(header).
/// Returns `true` if the file existed and was live.
pub fn mark_deleted(chunk: &mut [u8], name: &str) -> Result<bool> {
    let mut header = ChunkHeader::decode(chunk)?;
    let Some(idx) = header.files.iter().position(|f| f.name == name) else {
        return Ok(false);
    };
    if header.bitmap.is_deleted(idx) {
        return Ok(false);
    }
    header.bitmap.set_deleted(idx);
    // Re-encode the header; its length is unchanged because only bit
    // content changed.
    let hlen = header.header_len as usize;
    let mut buf = Vec::with_capacity(hlen);
    header.encode(&mut buf);
    debug_assert_eq!(buf.len(), hlen);
    let have = chunk.len();
    chunk.get_mut(..hlen).ok_or(ChunkError::Truncated { need: hlen, have })?.copy_from_slice(&buf);
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ChunkBuilder;

    fn gen() -> ChunkIdGenerator {
        ChunkIdGenerator::deterministic(4, 4, 400)
    }

    fn chunk_with(files: &[(&str, &[u8])]) -> Vec<u8> {
        let mut b = ChunkBuilder::with_default_config();
        for (n, d) in files {
            b.add_file(n, d).unwrap();
        }
        b.seal(gen().next_id(), 1).1
    }

    fn view(chunk: Vec<u8>) -> ChunkView {
        ChunkView::parse(chunk.into()).unwrap()
    }

    #[test]
    fn mark_deleted_flips_bitmap_only() {
        let mut chunk = chunk_with(&[("a", b"111"), ("b", b"222")]);
        let before_len = chunk.len();
        assert!(mark_deleted(&mut chunk, "a").unwrap());
        assert_eq!(chunk.len(), before_len);
        let v = view(chunk.clone());
        assert!(matches!(v.read_file("a"), Err(crate::ChunkError::FileDeleted(_))));
        assert_eq!(v.read_file("b").unwrap(), b"222"[..]);
        // Deleting again or deleting a missing file is a no-op.
        assert!(!mark_deleted(&mut chunk, "a").unwrap());
        assert!(!mark_deleted(&mut chunk, "zz").unwrap());
    }

    #[test]
    fn compact_drops_deleted_files() {
        let mut chunk = chunk_with(&[("a", b"aaaa"), ("b", b"bbbbbbbb"), ("c", b"cc")]);
        mark_deleted(&mut chunk, "b").unwrap();
        let ids = gen();
        let chunk_len = chunk.len();
        let (header, bytes, stats) = compact_chunk(&view(chunk), &ids, 99).unwrap().unwrap();
        assert_eq!(stats.live_files, 2);
        assert_eq!(stats.dropped_files, 1);
        assert_eq!(stats.reclaimed_bytes, 8);
        assert_eq!(header.updated_ms, 99);
        assert_eq!(header.deleted_count(), 0);
        assert!(bytes.len() < chunk_len);
        // The output is itself a well-formed chunk holding exactly the
        // live files, and compacting it again is a no-op.
        let out = view(bytes);
        assert_eq!(out.header(), &header);
        assert!(out.verify_all().is_empty());
        assert_eq!(out.read_file("a").unwrap(), b"aaaa"[..]);
        assert_eq!(out.read_file("c").unwrap(), b"cc"[..]);
        assert!(matches!(out.read_file("b"), Err(crate::ChunkError::NoSuchFile(_))));
        assert!(compact_chunk(&out, &ids, 100).unwrap().is_none());
    }

    #[test]
    fn compact_noop_without_deletions() {
        let chunk = chunk_with(&[("a", b"x")]);
        let ids = gen();
        assert!(compact_chunk(&view(chunk), &ids, 1).unwrap().is_none());
    }

    #[test]
    fn compact_all_deleted_yields_empty_chunk() {
        let mut chunk = chunk_with(&[("a", b"x"), ("b", b"y")]);
        mark_deleted(&mut chunk, "a").unwrap();
        mark_deleted(&mut chunk, "b").unwrap();
        let ids = gen();
        let (header, bytes, stats) = compact_chunk(&view(chunk), &ids, 1).unwrap().unwrap();
        assert_eq!(stats.live_files, 0);
        assert_eq!(header.file_count(), 0);
        assert_eq!(view(bytes).file_count(), 0);
    }

    #[test]
    fn compacted_chunk_id_sorts_after_original() {
        let ids = gen();
        let mut b = ChunkBuilder::with_default_config();
        b.add_file("a", b"1").unwrap();
        b.add_file("b", b"2").unwrap();
        let (orig_header, mut chunk) = b.seal(ids.next_id(), 1);
        mark_deleted(&mut chunk, "a").unwrap();
        let (new_header, _, _) = compact_chunk(&view(chunk), &ids, 2).unwrap().unwrap();
        assert!(new_header.id > orig_header.id, "compaction must sort later for recovery");
    }
}
