//! CRC-32 (IEEE 802.3 polynomial, reflected) used for per-file and header
//! checksums in the chunk format.
//!
//! Implemented in-crate to avoid an external dependency. Matches the
//! `crc32` of zlib / `cksum -o 3`-style tools (polynomial 0xEDB88320,
//! init 0xFFFFFFFF, final xor 0xFFFFFFFF).
//!
//! [`Hasher::update`] is *slicing-by-16*: sixteen 256-entry tables, built
//! at compile time by a `const fn`, fold sixteen input bytes per step
//! with sixteen independent lookups, so the write path's CRC (every
//! `add_file`) runs near memory speed instead of one dependent table
//! lookup per byte. Table 0 is the classic bytewise table; it alone
//! finishes the tail of fewer than sixteen bytes. Every caller — chunk
//! building, header and snapshot encode/decode, verify-on-load — gets
//! the same checksum either way.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the bytewise table; `TABLES[k][b]` is the CRC of byte
/// `b` followed by `k` zero bytes, so sixteen lookups advance the state
/// over a sixteen-byte block.
static TABLES: [[u32; 256]; 16] = tables();

#[expect(clippy::indexing_slicing, reason = "every index is bounded by its loop")]
const fn tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 16 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

/// `TABLES[K][b]`.
#[inline(always)]
fn lookup<const K: usize>(b: u8) -> u32 {
    const { assert!(K < 16) };
    #[expect(clippy::indexing_slicing, reason = "K < 16 is asserted at compile time; a u8 < 256")]
    let entry = TABLES[K][usize::from(b)];
    entry
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
        let (blocks, tail) = data.as_chunks::<16>();
        let mut c = self.state;
        for b in blocks {
            let [x0, x1, x2, x3] = (c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]])).to_le_bytes();
            c = lookup::<15>(x0)
                ^ lookup::<14>(x1)
                ^ lookup::<13>(x2)
                ^ lookup::<12>(x3)
                ^ lookup::<11>(b[4])
                ^ lookup::<10>(b[5])
                ^ lookup::<9>(b[6])
                ^ lookup::<8>(b[7])
                ^ lookup::<7>(b[8])
                ^ lookup::<6>(b[9])
                ^ lookup::<5>(b[10])
                ^ lookup::<4>(b[11])
                ^ lookup::<3>(b[12])
                ^ lookup::<2>(b[13])
                ^ lookup::<1>(b[14])
                ^ lookup::<0>(b[15]);
        }
        for &b in tail {
            c = lookup::<0>(c as u8 ^ b) ^ (c >> 8);
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
    use proptest::prelude::*;

    /// The oracle: the textbook CRC, one byte and one bit at a time,
    /// sharing nothing with the tables above.
    fn reference(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // Standard test vectors for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn oneshot_and_split_updates_match_the_reference(
            data in proptest::collection::vec(any::<u8>(), 0..4096),
            cuts in proptest::collection::vec(0usize..4096, 0..8),
        ) {
            let want = reference(&data);
            prop_assert_eq!(crc32(&data), want);
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (data.len() + 1)).collect();
            cuts.sort_unstable();
            let mut h = Hasher::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain([data.len()]) {
                h.update(&data[from..cut]);
                from = cut;
            }
            prop_assert_eq!(h.finalize(), want);
        }
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
