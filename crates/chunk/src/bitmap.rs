//! Deletion bitmap for files inside a chunk.
//!
//! The chunk metadata (Fig. 5b) records "the number of deleted files and
//! the deletion bitmap". DIESEL deletes/modifies a file by marking it
//! deleted in its old chunk and (for modify) writing a new copy; the
//! `DL_purge` housekeeping call later compacts chunks with holes.

/// A fixed-capacity bitmap with one bit per file slot in a chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeletionBitmap {
    bits: Vec<u64>,
    len: usize,
}

impl DeletionBitmap {
    /// A bitmap for `len` files, all live.
    pub fn new(len: usize) -> Self {
        DeletionBitmap { bits: vec![0u64; len.div_ceil(64)], len }
    }

    /// Number of file slots covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap covers zero slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Mark file `idx` deleted. Returns the previous state.
    ///
    /// # Panics
    /// Panics if `idx >= len`.
    pub fn set_deleted(&mut self, idx: usize) -> bool {
        assert!(idx < self.len, "bitmap index {idx} out of range {}", self.len);
        let mask = 1u64 << (idx % 64);
        #[expect(clippy::indexing_slicing, reason = "idx < len is asserted above")]
        let word = &mut self.bits[idx / 64];
        let was = *word & mask != 0;
        *word |= mask;
        was
    }

    /// Is file `idx` deleted?
    pub fn is_deleted(&self, idx: usize) -> bool {
        assert!(idx < self.len, "bitmap index {idx} out of range {}", self.len);
        self.bits.get(idx / 64).is_some_and(|w| w & (1u64 << (idx % 64)) != 0)
    }

    /// Number of deleted files.
    pub fn deleted_count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of live files.
    pub fn live_count(&self) -> usize {
        self.len - self.deleted_count()
    }

    /// Serialize to the on-chunk wire form (little-endian u64 words).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.bits.len() * 8);
        for w in &self.bits {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Wire length in bytes for a bitmap covering `len` slots.
    pub fn wire_len(len: usize) -> usize {
        len.div_ceil(64) * 8
    }

    /// Deserialize from the wire form.
    pub fn from_bytes(data: &[u8], len: usize) -> Option<Self> {
        let words = len.div_ceil(64);
        if data.len() < words * 8 {
            return None;
        }
        let bits: Vec<u64> = data
            .chunks_exact(8)
            .take(words)
            .filter_map(|w| w.try_into().ok())
            .map(u64::from_le_bytes)
            .collect();
        // Bits past `len` must be zero for equality/count invariants.
        if !len.is_multiple_of(64) {
            if let Some(last) = bits.last() {
                if last >> (len % 64) != 0 {
                    return None;
                }
            }
        }
        Some(DeletionBitmap { bits, len })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_set_and_query() {
        let mut bm = DeletionBitmap::new(130);
        assert_eq!(bm.len(), 130);
        assert_eq!(bm.deleted_count(), 0);
        assert!(!bm.set_deleted(0));
        assert!(bm.set_deleted(0), "second delete reports prior state");
        bm.set_deleted(64);
        bm.set_deleted(129);
        assert!(bm.is_deleted(0));
        assert!(bm.is_deleted(64));
        assert!(bm.is_deleted(129));
        assert!(!bm.is_deleted(1));
        assert_eq!(bm.deleted_count(), 3);
        assert_eq!(bm.live_count(), 127);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let mut bm = DeletionBitmap::new(8);
        bm.set_deleted(8);
    }

    #[test]
    fn empty_bitmap() {
        let bm = DeletionBitmap::new(0);
        assert!(bm.is_empty());
        assert_eq!(bm.to_bytes().len(), 0);
        assert_eq!(DeletionBitmap::wire_len(0), 0);
        assert_eq!(DeletionBitmap::from_bytes(&[], 0).unwrap(), bm);
    }

    #[test]
    fn from_bytes_rejects_trailing_garbage_bits() {
        // 1 slot but high bits set in the word.
        let mut raw = [0u8; 8];
        raw[0] = 0b10; // bit 1 set, but len == 1
        assert!(DeletionBitmap::from_bytes(&raw, 1).is_none());
    }

    proptest! {
        #[test]
        fn roundtrip(len in 0usize..500, dels in proptest::collection::vec(0usize..500, 0..64)) {
            let mut bm = DeletionBitmap::new(len);
            for d in dels {
                if d < len { bm.set_deleted(d); }
            }
            let bytes = bm.to_bytes();
            prop_assert_eq!(bytes.len(), DeletionBitmap::wire_len(len));
            let back = DeletionBitmap::from_bytes(&bytes, len).unwrap();
            prop_assert_eq!(back, bm);
        }

        #[test]
        fn counts_are_consistent(len in 1usize..300, dels in proptest::collection::vec(0usize..300, 0..300)) {
            let mut bm = DeletionBitmap::new(len);
            for d in dels {
                if d < len { bm.set_deleted(d); }
            }
            prop_assert_eq!(bm.deleted_count() + bm.live_count(), len);
            prop_assert_eq!((0..len).filter(|&i| !bm.is_deleted(i)).count(), bm.live_count());
        }
    }
}
