//! Hash functions for key routing.
//!
//! * [`crc16`] — CRC-16/CCITT (XModem), the function Redis Cluster uses to
//!   map keys to its 16384 hash slots. Implemented here so `KvCluster`
//!   routes exactly like the system the paper deployed.
//! * [`fnv1a_64`] — FNV-1a, used for shard striping inside one instance
//!   and for the `hash(dir)` component of metadata keys.

/// CRC-16/XMODEM (poly 0x1021, init 0): the Redis Cluster slot hash.
pub fn crc16(data: &[u8]) -> u16 {
    let mut crc: u16 = 0;
    for &b in data {
        crc ^= (b as u16) << 8;
        for _ in 0..8 {
            crc = if crc & 0x8000 != 0 { (crc << 1) ^ 0x1021 } else { crc << 1 };
        }
    }
    crc
}

/// Number of hash slots in a cluster (Redis constant).
pub const NUM_SLOTS: u16 = 16384;

/// Map a key to its hash slot, honoring Redis "hash tags": if the key
/// contains a `{...}` section, only the bytes inside the braces are
/// hashed, letting callers co-locate related keys on one instance.
pub fn key_slot(key: &str) -> u16 {
    let hashed = match key.split_once('{').and_then(|(_, rest)| rest.split_once('}')) {
        Some((tag, _)) if !tag.is_empty() => tag,
        _ => key,
    }
    .as_bytes();
    crc16(hashed) % NUM_SLOTS
}

/// FNV-1a 64-bit hash.
pub fn fnv1a_64(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc16_known_vector() {
        // CRC-16/XMODEM of "123456789" is 0x31C3 (Redis documents this).
        assert_eq!(crc16(b"123456789"), 0x31C3);
        assert_eq!(crc16(b""), 0);
    }

    #[test]
    fn key_slot_in_range_and_stable() {
        for key in ["a", "foo/bar", "ds/imagenet/chunk/000", ""] {
            let s = key_slot(key);
            assert!(s < NUM_SLOTS);
            assert_eq!(s, key_slot(key), "slot must be deterministic");
        }
    }

    #[test]
    fn hash_tags_colocate_keys() {
        assert_eq!(key_slot("{user1}.a"), key_slot("{user1}.b"));
        assert_eq!(key_slot("{user1}.a"), key_slot("user1"));
        // Empty tag `{}` hashes the whole key.
        assert_eq!(key_slot("{}.a"), crc16(b"{}.a") % NUM_SLOTS);
        // Unclosed brace hashes the whole key.
        assert_eq!(key_slot("{abc"), crc16(b"{abc") % NUM_SLOTS);
    }

    #[test]
    fn fnv_distinguishes_inputs() {
        assert_ne!(fnv1a_64(b"a"), fnv1a_64(b"b"));
        assert_eq!(fnv1a_64(b"abc"), fnv1a_64(b"abc"));
    }

    #[test]
    fn slot_distribution_is_roughly_uniform() {
        let n = 4;
        let mut counts = vec![0usize; n];
        for i in 0..40_000 {
            let key = format!("file/{i}.jpg");
            counts[(key_slot(&key) as usize * n) / NUM_SLOTS as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "skewed slot distribution: {counts:?}");
        }
    }
}
