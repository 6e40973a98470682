//! The chunk parser: an owned, zero-copy view over one sealed chunk.
//!
//! [`ChunkView`] wraps the chunk's [`Bytes`] plus its decoded header,
//! and every file/range read is a refcount bump plus offset arithmetic,
//! yielding `Bytes` sub-slices that share the chunk's one allocation. A
//! cache hit is therefore pointer handoff, never memcpy — the invariant
//! the `bytes.copied{site=…}` ledger asserts.
//!
//! Reads by name scan the header's file table; the serving paths never
//! do that — they slice by [`ChunkView::slice_payload`] from offsets
//! they already hold in metadata.

use diesel_util::Bytes;

use crate::format::ChunkHeader;
use crate::{ChunkError, Result};

/// A parsed, owned view over one chunk (`header ‖ payload`).
#[derive(Debug, Clone)]
pub struct ChunkView {
    bytes: Bytes,
    header: ChunkHeader,
}

impl ChunkView {
    /// Parse a chunk buffer. Verifies header integrity and that the
    /// payload is fully present, without copying any payload bytes.
    pub fn parse(bytes: Bytes) -> Result<Self> {
        let header = ChunkHeader::decode(&bytes)?;
        let need = u64::from(header.header_len)
            .checked_add(header.payload_len)
            .and_then(|n| usize::try_from(n).ok());
        if need.is_none_or(|n| bytes.len() < n) {
            return Err(ChunkError::Truncated {
                need: need.unwrap_or(usize::MAX),
                have: bytes.len(),
            });
        }
        Ok(ChunkView { bytes, header })
    }

    /// The decoded header.
    pub fn header(&self) -> &ChunkHeader {
        &self.header
    }

    /// Serialized header length (the payload starts here).
    pub fn header_len(&self) -> u32 {
        self.header.header_len
    }

    /// The whole chunk buffer (`header ‖ payload`), shared not copied.
    pub fn chunk_bytes(&self) -> Bytes {
        self.bytes.clone()
    }

    /// Total chunk size in bytes (what the cache accounts against its
    /// capacity).
    pub fn chunk_len(&self) -> usize {
        self.bytes.len()
    }

    /// Number of files (live + deleted).
    pub fn file_count(&self) -> usize {
        self.header.files.len()
    }

    /// Find a file's index by exact name, whether live or deleted.
    pub fn find(&self, name: &str) -> Option<usize> {
        self.header.files.iter().position(|f| f.name == name)
    }

    /// Slice `offset ‖ length` out of the payload region — the
    /// `FileMeta`-driven read the task cache serves hits from. Bounds
    /// are checked against the payload, not trusted from the caller.
    pub fn slice_payload(&self, offset: u64, length: u64) -> Result<Bytes> {
        // `parse` proved `header_len + payload_len` fits the buffer, so
        // once `end` is inside the payload the casts below are exact.
        let base = self.header.header_len as usize;
        match offset.checked_add(length) {
            Some(end) if end <= self.header.payload_len => {
                Ok(self.bytes.slice(base + offset as usize..base + end as usize))
            }
            _ => Err(ChunkError::Truncated {
                need: usize::try_from(offset.saturating_add(length))
                    .unwrap_or(usize::MAX)
                    .saturating_add(base),
                have: self.header.chunk_len(),
            }),
        }
    }

    /// The content of the file at `idx` without checksum verification.
    pub fn file_bytes(&self, idx: usize) -> Result<Bytes> {
        let f =
            self.header.files.get(idx).ok_or_else(|| ChunkError::NoSuchFile(format!("#{idx}")))?;
        self.slice_payload(f.offset, f.length)
            .map_err(|_| ChunkError::CorruptEntry { file: f.name.clone() })
    }

    /// Read a live file by name, verifying its CRC.
    pub fn read_file(&self, name: &str) -> Result<Bytes> {
        let idx = self.find(name).ok_or_else(|| ChunkError::NoSuchFile(name.to_owned()))?;
        if self.header.bitmap.is_deleted(idx) {
            return Err(ChunkError::FileDeleted(name.to_owned()));
        }
        self.read_file_at(idx)
    }

    /// Read the file at `idx` (even if deleted), verifying its CRC.
    pub fn read_file_at(&self, idx: usize) -> Result<Bytes> {
        let bytes = self.file_bytes(idx)?;
        let f =
            self.header.files.get(idx).ok_or_else(|| ChunkError::NoSuchFile(format!("#{idx}")))?;
        if crate::crc::crc32(&bytes) != f.crc32 {
            return Err(ChunkError::ChecksumMismatch { file: f.name.clone() });
        }
        Ok(bytes)
    }

    /// Verify every file checksum; returns names of corrupt files.
    pub fn verify_all(&self) -> Vec<String> {
        let mut bad = Vec::new();
        for (i, f) in self.header.files.iter().enumerate() {
            match self.file_bytes(i) {
                Ok(b) if crate::crc::crc32(&b) == f.crc32 => {}
                _ => bad.push(f.name.clone()),
            }
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ChunkBuilder;
    use crate::id::ChunkIdGenerator;
    use proptest::prelude::*;

    fn build(files: &[(&str, &[u8])]) -> Bytes {
        let mut b = ChunkBuilder::with_default_config();
        for (n, d) in files {
            b.add_file(n, d).unwrap();
        }
        let ids = ChunkIdGenerator::deterministic(1, 1, 10);
        Bytes::from(b.seal(ids.next_id(), 1).1)
    }

    #[test]
    fn reads_by_name_and_index_share_the_allocation() {
        let bytes = build(&[("a", b"one"), ("b/c", b"two"), ("d", b"three")]);
        let v = ChunkView::parse(bytes.clone()).unwrap();
        let got = v.read_file("b/c").unwrap();
        assert_eq!(got, b"two"[..]);
        assert!(got.shares_allocation(&bytes), "file read must be a view, not a copy");
        assert_eq!(v.read_file_at(2).unwrap(), b"three"[..]);
        assert!(matches!(v.read_file("zzz"), Err(ChunkError::NoSuchFile(_))));
        assert_eq!(v.chunk_len(), bytes.len());
        assert!(v.chunk_bytes().shares_allocation(&bytes));
    }

    #[test]
    fn payload_corruption_detected_by_crc() {
        let mut raw = build(&[("f", b"sensitive-data")]).into_vec();
        let n = raw.len();
        raw[n - 2] ^= 0x01;
        let v = ChunkView::parse(Bytes::from(raw)).unwrap();
        assert!(matches!(v.read_file("f"), Err(ChunkError::ChecksumMismatch { .. })));
        assert_eq!(v.verify_all(), vec!["f".to_string()]);
    }

    #[test]
    fn truncated_payload_rejected_at_parse() {
        let bytes = build(&[("f", b"0123456789")]);
        assert!(matches!(
            ChunkView::parse(bytes.slice(..bytes.len() - 4)),
            Err(ChunkError::Truncated { .. })
        ));
    }

    #[test]
    fn slice_payload_bounds_checked() {
        let bytes = build(&[("f", b"0123456789")]);
        let v = ChunkView::parse(bytes.clone()).unwrap();
        let whole = v.slice_payload(0, 10).unwrap();
        assert_eq!(whole, b"0123456789"[..]);
        assert!(whole.shares_allocation(&bytes));
        // Offsets come from metadata loaded off disk: a hostile value
        // must be a typed error, never a wrapped start that lands in the
        // header, and never an overflow panic.
        for (offset, length) in
            [(5, 100), (u64::MAX, 1), (u64::MAX, 0), (1, u64::MAX), (11, 0), (u64::MAX, u64::MAX)]
        {
            assert!(
                matches!(v.slice_payload(offset, length), Err(ChunkError::Truncated { .. })),
                "offset {offset} length {length}"
            );
        }
        assert_eq!(v.slice_payload(10, 0).unwrap(), b""[..]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn roundtrip_arbitrary_files_zero_copy(
            files in proptest::collection::vec(
                ("[a-z]{1,12}(/[a-z]{1,8}){0,3}", proptest::collection::vec(any::<u8>(), 0..2000)),
                1..20
            ),
        ) {
            // De-duplicate names (chunk semantics assume unique names).
            let mut seen = std::collections::HashSet::new();
            let files: Vec<(String, Vec<u8>)> = files
                .into_iter()
                .filter(|(n, _)| seen.insert(n.clone()))
                .collect();
            let mut b = ChunkBuilder::with_default_config();
            for (n, d) in &files {
                b.add_file(n, d).unwrap();
            }
            let ids = ChunkIdGenerator::deterministic(2, 2, 20);
            let (header, raw) = b.seal(ids.next_id(), 5);
            let bytes = Bytes::from(raw);
            let v = ChunkView::parse(bytes.clone()).unwrap();
            prop_assert!(v.verify_all().is_empty());
            prop_assert_eq!(v.header(), &header);
            for (i, (n, d)) in files.iter().enumerate() {
                prop_assert_eq!(v.find(n), Some(i));
                // Whole-file reads return exactly what was added…
                let owned = v.read_file(n).unwrap();
                prop_assert_eq!(owned.as_slice(), &d[..]);
                // …as a true view: it shares the parent allocation and
                // its pointers land inside the parent's buffer (never a
                // fresh copy).
                prop_assert!(owned.shares_allocation(&bytes));
                let parent = bytes.as_slice().as_ptr_range();
                let sub = owned.as_slice().as_ptr_range();
                prop_assert!(sub.start >= parent.start && sub.end <= parent.end);
                // Unverified index reads agree too.
                prop_assert_eq!(v.file_bytes(i).unwrap().as_slice(), &d[..]);
            }
        }

        #[test]
        fn arbitrary_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..600)) {
            // Hostile input must yield a typed error from the one parser.
            let _ = ChunkView::parse(Bytes::from(data));
        }
    }
}
