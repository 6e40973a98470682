//! Binary layout of a DIESEL data chunk (paper Fig. 5a).
//!
//! A chunk is `header ‖ payload`. The header is fully self-describing so
//! that the metadata KV database can be rebuilt from chunks alone
//! (§4.1.2). All integers are little-endian.
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------
//!      0     4  magic "DSLC"
//!      4     2  format version (currently 1)
//!      6     4  header length H (bytes 0..H are the header)
//!     10     4  header CRC-32 (over bytes 0..H with this field zeroed)
//!     14    16  chunk id (Table 1 layout, raw bytes)
//!     30     8  update timestamp (unix milliseconds)
//!     38     4  file count N
//!     42     4  deleted count (must equal bitmap popcount)
//!     46     8  payload length P
//!     54     *  deletion bitmap (ceil(N/64) × 8 bytes)
//!      *     *  file table: N × { name_len u16, name, offset u64,
//!                                 length u64, crc32 u32 }
//!      H     P  payload (file contents back to back)
//! ```

use crate::bitmap::DeletionBitmap;
use crate::crc::crc32;
use crate::id::ChunkId;
use crate::{ChunkError, Result};

/// Magic bytes at the start of every chunk.
const CHUNK_MAGIC: [u8; 4] = *b"DSLC";
/// Current chunk format version.
const FORMAT_VERSION: u16 = 1;
/// Byte offset of the fixed part described above.
const FIXED_HEADER_LEN: usize = 54;
/// Longest file name the file table can hold (its length is a `u16`).
pub(crate) const MAX_NAME_LEN: usize = u16::MAX as usize;
/// Length of the chunk prefix that ends with the header-length field —
/// what a reader must fetch before [`ChunkHeader::peek_header_len`] can
/// tell it where the payload starts.
pub const HEADER_LEN_PREFIX: usize = 10;

/// Fixed-width read at `at`. Every offset `decode` passes is pre-checked
/// against the lengths, but a typed error beats a panic if that
/// invariant ever slips.
fn fixed<const N: usize>(data: &[u8], at: usize) -> Result<[u8; N]> {
    data.get(at..at + N)
        .and_then(|s| s.try_into().ok())
        .ok_or(ChunkError::Truncated { need: at + N, have: data.len() })
}

/// `data[lo..hi]`, or `Truncated` when `data` is shorter.
fn span(data: &[u8], lo: usize, hi: usize) -> Result<&[u8]> {
    data.get(lo..hi).ok_or(ChunkError::Truncated { need: hi, have: data.len() })
}

/// Metadata of one file stored inside a chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileEntry {
    /// Full path of the file inside the dataset (e.g. `train/cat/001.jpg`).
    pub name: String,
    /// Byte offset of the file content within the chunk *payload*.
    pub offset: u64,
    /// Length of the file content in bytes.
    pub length: u64,
    /// CRC-32 of the file content.
    pub crc32: u32,
}

impl FileEntry {
    fn wire_len(&self) -> usize {
        2 + self.name.len() + 8 + 8 + 4
    }
}

/// Decoded chunk header: everything the server needs to construct the
/// key-value metadata for this chunk and its files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkHeader {
    /// The chunk's sortable identifier.
    pub id: ChunkId,
    /// Update timestamp (unix milliseconds).
    pub updated_ms: u64,
    /// Per-file deletion state.
    pub bitmap: DeletionBitmap,
    /// File table, in payload order.
    pub files: Vec<FileEntry>,
    /// Payload length in bytes.
    pub payload_len: u64,
    /// Total header length in bytes (== payload start offset).
    pub header_len: u32,
}

impl ChunkHeader {
    /// Number of files (live + deleted) in the chunk.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Number of deleted files.
    pub fn deleted_count(&self) -> usize {
        self.bitmap.deleted_count()
    }

    /// Total chunk length (header + payload).
    pub fn chunk_len(&self) -> usize {
        self.header_len as usize + self.payload_len as usize
    }

    /// Serialized wire length of a header with these files.
    pub fn wire_len(files: &[FileEntry]) -> usize {
        FIXED_HEADER_LEN
            + DeletionBitmap::wire_len(files.len())
            + files.iter().map(FileEntry::wire_len).sum::<usize>()
    }

    /// Encode this header into `out` (which should be empty). `header_len`
    /// is recomputed; the CRC field is filled in.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let hlen = Self::wire_len(&self.files);
        out.reserve(hlen);
        out.extend_from_slice(&CHUNK_MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(hlen as u32).to_le_bytes());
        let crc_pos = out.len();
        out.extend_from_slice(&0u32.to_le_bytes()); // placeholder CRC
        out.extend_from_slice(&self.id.0);
        out.extend_from_slice(&self.updated_ms.to_le_bytes());
        out.extend_from_slice(&(self.files.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.bitmap.deleted_count() as u32).to_le_bytes());
        out.extend_from_slice(&self.payload_len.to_le_bytes());
        out.extend_from_slice(&self.bitmap.to_bytes());
        for f in &self.files {
            out.extend_from_slice(&(f.name.len() as u16).to_le_bytes());
            out.extend_from_slice(f.name.as_bytes());
            out.extend_from_slice(&f.offset.to_le_bytes());
            out.extend_from_slice(&f.length.to_le_bytes());
            out.extend_from_slice(&f.crc32.to_le_bytes());
        }
        debug_assert_eq!(out.len(), hlen);
        let crc = crc32(out);
        #[expect(clippy::indexing_slicing, reason = "the CRC placeholder was pushed above")]
        let field = &mut out[crc_pos..crc_pos + 4];
        field.copy_from_slice(&crc.to_le_bytes());
    }

    /// Read only the header length (== payload start offset) from the
    /// first [`HEADER_LEN_PREFIX`] bytes of a chunk, checking the magic —
    /// how a ranged reader finds the payload without fetching the header.
    pub fn peek_header_len(prefix: &[u8]) -> Result<u32> {
        if fixed::<4>(prefix, 0)? != CHUNK_MAGIC {
            return Err(ChunkError::BadMagic);
        }
        Ok(u32::from_le_bytes(fixed(prefix, 6)?))
    }

    /// Decode a header from the front of `data` (a whole chunk or at least
    /// its header bytes). Verifies magic, version, structural bounds, the
    /// header CRC and the bitmap/deleted-count consistency.
    pub fn decode(data: &[u8]) -> Result<ChunkHeader> {
        if data.len() < FIXED_HEADER_LEN {
            return Err(ChunkError::Truncated { need: FIXED_HEADER_LEN, have: data.len() });
        }
        let hlen = Self::peek_header_len(data)? as usize;
        let version = u16::from_le_bytes(fixed(data, 4)?);
        if version > FORMAT_VERSION {
            return Err(ChunkError::UnsupportedVersion(version));
        }
        if hlen < FIXED_HEADER_LEN {
            return Err(ChunkError::Truncated { need: FIXED_HEADER_LEN, have: hlen });
        }
        if data.len() < hlen {
            return Err(ChunkError::Truncated { need: hlen, have: data.len() });
        }
        let stored_crc = u32::from_le_bytes(fixed(data, 10)?);
        // Recompute with the CRC field zeroed.
        let mut hasher = crate::crc::Hasher::new();
        hasher.update(span(data, 0, 10)?);
        hasher.update(&[0u8; 4]);
        hasher.update(span(data, 14, hlen)?);
        if hasher.finalize() != stored_crc {
            return Err(ChunkError::HeaderChecksumMismatch);
        }

        let id = ChunkId(fixed(data, 14)?);
        let updated_ms = u64::from_le_bytes(fixed(data, 30)?);
        let file_count = u32::from_le_bytes(fixed(data, 38)?) as usize;
        let deleted_count = u32::from_le_bytes(fixed(data, 42)?) as usize;
        let payload_len = u64::from_le_bytes(fixed(data, 46)?);

        let bm_len = DeletionBitmap::wire_len(file_count);
        let mut pos = FIXED_HEADER_LEN;
        if hlen < pos + bm_len {
            return Err(ChunkError::Truncated { need: pos + bm_len, have: hlen });
        }
        let bitmap = DeletionBitmap::from_bytes(span(data, pos, pos + bm_len)?, file_count)
            .ok_or(ChunkError::Truncated { need: pos + bm_len, have: data.len() })?;
        pos += bm_len;
        if bitmap.deleted_count() != deleted_count {
            return Err(ChunkError::HeaderChecksumMismatch);
        }

        let mut files = Vec::with_capacity(file_count);
        for _ in 0..file_count {
            if hlen < pos + 2 {
                return Err(ChunkError::Truncated { need: pos + 2, have: hlen });
            }
            let nlen = u16::from_le_bytes(fixed(data, pos)?) as usize;
            pos += 2;
            if hlen < pos + nlen + 20 {
                return Err(ChunkError::Truncated { need: pos + nlen + 20, have: hlen });
            }
            let name = std::str::from_utf8(span(data, pos, pos + nlen)?)
                .map_err(|_| ChunkError::BadFileName)?
                .to_owned();
            pos += nlen;
            let offset = u64::from_le_bytes(fixed(data, pos)?);
            let length = u64::from_le_bytes(fixed(data, pos + 8)?);
            let crc = u32::from_le_bytes(fixed(data, pos + 16)?);
            pos += 20;
            if offset.checked_add(length).is_none_or(|end| end > payload_len) {
                return Err(ChunkError::CorruptEntry { file: name });
            }
            files.push(FileEntry { name, offset, length, crc32: crc });
        }

        Ok(ChunkHeader { id, updated_ms, bitmap, files, payload_len, header_len: hlen as u32 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::MachineId;

    fn sample_header() -> ChunkHeader {
        let files = vec![
            FileEntry { name: "a/b/one.bin".into(), offset: 0, length: 10, crc32: 1 },
            FileEntry { name: "a/two.bin".into(), offset: 10, length: 20, crc32: 2 },
            FileEntry { name: "three.bin".into(), offset: 30, length: 5, crc32: 3 },
        ];
        let mut bitmap = DeletionBitmap::new(3);
        bitmap.set_deleted(1);
        let hlen = ChunkHeader::wire_len(&files) as u32;
        ChunkHeader {
            id: ChunkId::new(1234, MachineId::from_seed(9), 77, 5),
            updated_ms: 1_600_000_000_123,
            bitmap,
            files,
            payload_len: 35,
            header_len: hlen,
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let h = sample_header();
        let mut buf = Vec::new();
        h.encode(&mut buf);
        assert_eq!(buf.len(), h.header_len as usize);
        assert_eq!(ChunkHeader::peek_header_len(&buf[..HEADER_LEN_PREFIX]), Ok(h.header_len));
        let back = ChunkHeader::decode(&buf).unwrap();
        assert_eq!(back, h);
        assert_eq!(back.deleted_count(), 1);
        assert_eq!(back.file_count(), 3);
    }

    #[test]
    fn rejects_bad_magic() {
        let h = sample_header();
        let mut buf = Vec::new();
        h.encode(&mut buf);
        buf[0] = b'X';
        assert_eq!(ChunkHeader::decode(&buf), Err(ChunkError::BadMagic));
        assert_eq!(ChunkHeader::peek_header_len(&buf), Err(ChunkError::BadMagic));
    }

    #[test]
    fn rejects_future_version() {
        let h = sample_header();
        let mut buf = Vec::new();
        h.encode(&mut buf);
        buf[4..6].copy_from_slice(&99u16.to_le_bytes());
        assert!(matches!(
            ChunkHeader::decode(&buf),
            Err(ChunkError::UnsupportedVersion(99)) | Err(ChunkError::HeaderChecksumMismatch)
        ));
    }

    #[test]
    fn rejects_header_corruption() {
        let h = sample_header();
        let mut buf = Vec::new();
        h.encode(&mut buf);
        // Flip a byte inside the file table.
        let n = buf.len();
        buf[n - 3] ^= 0xff;
        assert_eq!(ChunkHeader::decode(&buf), Err(ChunkError::HeaderChecksumMismatch));
    }

    #[test]
    fn rejects_truncation() {
        let h = sample_header();
        let mut buf = Vec::new();
        h.encode(&mut buf);
        for cut in [0, 4, 13, FIXED_HEADER_LEN, buf.len() - 1] {
            let res = ChunkHeader::decode(&buf[..cut]);
            assert!(res.is_err(), "cut at {cut} must fail");
            if cut < HEADER_LEN_PREFIX {
                let peek = ChunkHeader::peek_header_len(&buf[..cut]);
                assert!(matches!(peek, Err(ChunkError::Truncated { .. })), "peek at {cut}");
            }
        }
    }

    #[test]
    fn rejects_entry_past_payload() {
        let mut h = sample_header();
        h.files[2].length = 1000; // extends past payload_len 35
        let mut buf = Vec::new();
        h.encode(&mut buf);
        assert!(matches!(ChunkHeader::decode(&buf), Err(ChunkError::CorruptEntry { .. })));
    }

    #[test]
    fn empty_chunk_header() {
        let h = ChunkHeader {
            id: ChunkId::new(1, MachineId::from_seed(1), 1, 0),
            updated_ms: 42,
            bitmap: DeletionBitmap::new(0),
            files: vec![],
            payload_len: 0,
            header_len: ChunkHeader::wire_len(&[]) as u32,
        };
        let mut buf = Vec::new();
        h.encode(&mut buf);
        let back = ChunkHeader::decode(&buf).unwrap();
        assert_eq!(back, h);
    }
}
