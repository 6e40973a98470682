//! CRC-32 (IEEE 802.3 polynomial, reflected) used for per-file and header
//! checksums in the chunk format.
//!
//! Implemented in-crate to avoid an external dependency; uses the classic
//! 256-entry lookup table built at first use. Matches the `crc32` of zlib /
//! `cksum -o 3`-style tools (polynomial 0xEDB88320, init 0xFFFFFFFF,
//! final xor 0xFFFFFFFF).

use std::sync::OnceLock;

fn table() -> &'static [u32; 256] {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, entry) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *entry = c;
        }
        t
    })
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Hasher::new();
    h.update(data);
    h.finalize()
}

/// Incremental CRC-32 hasher.
#[derive(Debug, Clone)]
pub struct Hasher {
    state: u32,
}

impl Hasher {
    /// A fresh hasher (state = all ones).
    pub fn new() -> Self {
        Hasher { state: 0xFFFF_FFFF }
    }

    /// Feed bytes.
    pub fn update(&mut self, data: &[u8]) {
        let t = table();
        let mut c = self.state;
        for &b in data {
            #[expect(clippy::indexing_slicing, reason = "the index is masked to 0..256")]
            let entry = t[((c ^ b as u32) & 0xff) as usize];
            c = entry ^ (c >> 8);
        }
        self.state = c;
    }

    /// Finish and return the checksum.
    pub fn finalize(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Hasher {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard test vectors for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..10_000u32).map(|i| i.wrapping_mul(2654435761) as u8).collect();
        let mut h = Hasher::new();
        for part in data.chunks(97) {
            h.update(part);
        }
        assert_eq!(h.finalize(), crc32(&data));
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0u8; 4096];
        for (i, b) in data.iter_mut().enumerate() {
            *b = i as u8;
        }
        let orig = crc32(&data);
        data[1234] ^= 0x10;
        assert_ne!(crc32(&data), orig);
    }
}
