//! Sortable chunk identifiers (paper Table 1).
//!
//! A chunk ID is 16 bytes:
//!
//! | field              | bytes  |
//! |--------------------|--------|
//! | timestamp (secs)   | 0–3    |
//! | machine identifier | 4–9    |
//! | process id         | 10–12  |
//! | counter            | 13–15  |
//!
//! Because the timestamp is the most significant field, sorting IDs
//! byte-lexicographically sorts chunks by creation time — the property the
//! recovery path (§4.1.2) relies on: "the data chunks can be sorted by
//! their IDs in their written order".
//!
//! The paper stores the *printable* form of the ID in the object store
//! ("converted into printable characters (e.g., using base64)"). Standard
//! base64 is **not** order-preserving (`'+' < '/' < digits < upper < lower`
//! in ASCII does not match the alphabet order), so [`ChunkId::encode`] uses
//! an order-preserving 64-character alphabet (`-`, `0-9`, `A-Z`, `_`,
//! `a-z`) in which alphabet order equals ASCII order. Sorting encoded
//! strings therefore equals sorting raw IDs. A standard-base64 codec is
//! also provided for interoperability tests.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use diesel_util::{Clock, MockClock, SystemClock};

use crate::ChunkError;

/// Six-byte machine identifier (the paper uses the MAC address of the
/// Ethernet interface).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MachineId(pub [u8; 6]);

impl MachineId {
    /// Derive a machine ID from an arbitrary seed (useful in tests and in
    /// simulated clusters where no NIC exists).
    pub fn from_seed(seed: u64) -> Self {
        let mut b = [0u8; 6];
        b.copy_from_slice(&seed.to_be_bytes()[2..8]);
        MachineId(b)
    }

    /// Derive a machine ID for the current host. Without access to a NIC we
    /// hash the hostname-ish identity sources available to a pure-Rust
    /// library; collisions across simulated nodes are avoided by
    /// [`MachineId::from_seed`].
    pub fn local() -> Self {
        let pid = std::process::id() as u64;
        // FNV-1a over the pid and a fixed salt; deterministic per process.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in pid.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        MachineId::from_seed(h)
    }
}

/// A 16-byte sortable chunk identifier (Table 1 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChunkId(pub [u8; 16]);

impl ChunkId {
    /// Length of the textual encoding: ceil(16 × 4 / 3) = 22 characters
    /// (no padding).
    pub const ENCODED_LEN: usize = 22;

    /// Construct from raw parts.
    pub fn new(timestamp_secs: u32, machine: MachineId, pid: u32, counter: u32) -> Self {
        let mut b = [0u8; 16];
        b[0..4].copy_from_slice(&timestamp_secs.to_be_bytes());
        b[4..10].copy_from_slice(&machine.0);
        b[10..13].copy_from_slice(&pid.to_be_bytes()[1..4]);
        b[13..16].copy_from_slice(&counter.to_be_bytes()[1..4]);
        ChunkId(b)
    }

    /// Creation timestamp in seconds (big-endian bytes 0–3).
    pub fn timestamp_secs(&self) -> u32 {
        let [t0, t1, t2, t3, ..] = self.0;
        u32::from_be_bytes([t0, t1, t2, t3])
    }

    /// Machine identifier (bytes 4–9).
    pub fn machine(&self) -> MachineId {
        let [_, _, _, _, m0, m1, m2, m3, m4, m5, ..] = self.0;
        MachineId([m0, m1, m2, m3, m4, m5])
    }

    /// Process id (bytes 10–12, 24-bit).
    pub fn pid(&self) -> u32 {
        let [.., p0, p1, p2, _, _, _] = self.0;
        u32::from_be_bytes([0, p0, p1, p2])
    }

    /// Per-process counter (bytes 13–15, 24-bit).
    pub fn counter(&self) -> u32 {
        let [.., c0, c1, c2] = self.0;
        u32::from_be_bytes([0, c0, c1, c2])
    }

    /// Encode with the order-preserving alphabet. Sorting the resulting
    /// strings lexicographically sorts the IDs by their raw bytes, i.e. by
    /// creation time first.
    pub fn encode(&self) -> String {
        encode_sort64(&self.0)
    }

    /// Decode a string produced by [`ChunkId::encode`].
    pub fn decode(s: &str) -> crate::Result<Self> {
        let raw = decode_sort64(s)?;
        Ok(ChunkId(raw))
    }
}

impl fmt::Debug for ChunkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ChunkId(ts={}, pid={}, ctr={}, {})",
            self.timestamp_secs(),
            self.pid(),
            self.counter(),
            self.encode()
        )
    }
}

impl fmt::Display for ChunkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.encode())
    }
}

const ORD64: &[u8; 64] = b"-0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ_abcdefghijklmnopqrstuvwxyz";

fn encode_base64_alphabet(bytes: &[u8; 16], alphabet: &[u8; 64]) -> String {
    let mut out = String::with_capacity(ChunkId::ENCODED_LEN);
    let mut acc: u32 = 0;
    let mut nbits = 0u32;
    for &b in bytes.iter() {
        acc = (acc << 8) | b as u32;
        nbits += 8;
        while nbits >= 6 {
            nbits -= 6;
            #[expect(clippy::indexing_slicing, reason = "the index is masked to 0..64")]
            let digit = alphabet[((acc >> nbits) & 0x3f) as usize];
            out.push(char::from(digit));
        }
    }
    if nbits > 0 {
        // Left-align the remaining bits, as standard base64 does. For
        // order preservation the padding bits must be zero (they are).
        #[expect(clippy::indexing_slicing, reason = "the index is masked to 0..64")]
        let digit = alphabet[((acc << (6 - nbits)) & 0x3f) as usize];
        out.push(char::from(digit));
    }
    out
}

fn encode_sort64(bytes: &[u8; 16]) -> String {
    encode_base64_alphabet(bytes, ORD64)
}

/// The value of `c` in [`ORD64`].
fn sort64_digit(c: u8) -> Option<u32> {
    let d = match c {
        b'-' => 0,
        b'0'..=b'9' => c - b'0' + 1,
        b'A'..=b'Z' => c - b'A' + 11,
        b'_' => 37,
        b'a'..=b'z' => c - b'a' + 38,
        _ => return None,
    };
    Some(d.into())
}

fn decode_sort64(s: &str) -> crate::Result<[u8; 16]> {
    if s.len() != ChunkId::ENCODED_LEN {
        return Err(ChunkError::BadChunkId);
    }
    let mut acc: u32 = 0;
    let mut nbits = 0u32;
    let mut out = [0u8; 16];
    let mut oi = 0usize;
    for c in s.bytes() {
        acc = (acc << 6) | sort64_digit(c).ok_or(ChunkError::BadChunkId)?;
        nbits += 6;
        if nbits >= 8 {
            nbits -= 8;
            *out.get_mut(oi).ok_or(ChunkError::BadChunkId)? = ((acc >> nbits) & 0xff) as u8;
            oi += 1;
        }
    }
    if oi != 16 {
        return Err(ChunkError::BadChunkId);
    }
    Ok(out)
}

/// Generates unique, time-sortable chunk IDs for one process.
///
/// The 24-bit counter lets each process mint ~16.7 M unique IDs per second
/// (paper §4.1.2). The counter is a single atomic; generation is lock-free
/// and safe to share across threads.
pub struct ChunkIdGenerator {
    machine: MachineId,
    pid: u32,
    /// Packs (timestamp_secs << 24 | counter) so that a compare-exchange can
    /// atomically roll the counter over into the next second.
    state: AtomicU64,
    /// Timestamp source. Production generators use [`SystemClock`];
    /// tests and simulations inject a mock so two builds of the same
    /// dataset mint identical IDs (recovery-scan ordering, §4.1.2).
    clock: Arc<dyn Clock>,
}

impl fmt::Debug for ChunkIdGenerator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChunkIdGenerator")
            .field("machine", &self.machine)
            .field("pid", &self.pid)
            .field("state", &self.state)
            .finish_non_exhaustive()
    }
}

impl ChunkIdGenerator {
    /// A generator using the wall clock and the local machine identity.
    ///
    /// The 24-bit process-id field is split: the low 12 bits come from
    /// the OS process id, the high 12 bits from a per-process generator
    /// sequence number. The paper's field disambiguates *processes* on a
    /// machine; a library must also disambiguate multiple generator
    /// instances (one per client) inside one process, or concurrent
    /// clients started in the same second would mint colliding IDs and
    /// silently overwrite each other's chunks.
    pub fn new() -> Self {
        static GENERATOR_SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = GENERATOR_SEQ.fetch_add(1, Ordering::Relaxed) as u32;
        let pid = (std::process::id() & 0x0fff) | ((seq & 0x0fff) << 12);
        Self::with_identity(MachineId::local(), pid)
    }

    /// A generator with an explicit machine identity and pid (pid is
    /// truncated to 24 bits, as in the on-disk format).
    pub fn with_identity(machine: MachineId, pid: u32) -> Self {
        Self::with_clock(machine, pid, Arc::new(SystemClock::new()))
    }

    /// A generator taking timestamps from an explicit [`Clock`].
    ///
    /// This is the determinism seam: with a shared `MockClock`
    /// two generators with the same identity mint identical ID
    /// sequences, which is what makes chunk builds reproducible.
    pub fn with_clock(machine: MachineId, pid: u32, clock: Arc<dyn Clock>) -> Self {
        ChunkIdGenerator { machine, pid: pid & 0x00ff_ffff, state: AtomicU64::new(0), clock }
    }

    /// A deterministic generator whose timestamp field is frozen at
    /// `timestamp_secs`. Useful for tests and simulations.
    pub fn deterministic(machine_seed: u64, pid: u32, timestamp_secs: u32) -> Self {
        // A mock clock that is never advanced reads a constant time.
        let clock = Arc::new(MockClock::at_epoch_ms(timestamp_secs as u64 * 1000));
        Self::with_clock(MachineId::from_seed(machine_seed), pid, clock)
    }

    fn now_secs(&self) -> u32 {
        (self.clock.epoch_ms() / 1000) as u32
    }

    /// Mint the next unique chunk ID.
    ///
    /// IDs from one generator are strictly increasing. If the 24-bit counter
    /// overflows within one second the timestamp field is advanced by one
    /// second (logically borrowing from the future) so uniqueness and
    /// monotonicity are preserved even past 16.7 M IDs/sec.
    pub fn next_id(&self) -> ChunkId {
        let wall = self.now_secs() as u64;
        let mut cur = self.state.load(Ordering::Relaxed);
        loop {
            let ts = cur >> 24;
            let ctr = cur & 0x00ff_ffff;
            let (new_ts, new_ctr) = if wall > ts {
                (wall, 0u64)
            } else if ctr < 0x00ff_ffff {
                (ts, ctr + 1)
            } else {
                (ts + 1, 0)
            };
            let new = (new_ts << 24) | new_ctr;
            match self.state.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => {
                    return ChunkId::new(new_ts as u32, self.machine, self.pid, new_ctr as u32)
                }
                Err(actual) => cur = actual,
            }
        }
    }
}

impl Default for ChunkIdGenerator {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn id_field_roundtrip() {
        let id = ChunkId::new(0x1234_5678, MachineId::from_seed(42), 0x00ab_cdef, 0x0012_3456);
        assert_eq!(id.timestamp_secs(), 0x1234_5678);
        assert_eq!(id.machine(), MachineId::from_seed(42));
        assert_eq!(id.pid(), 0x00ab_cdef);
        assert_eq!(id.counter(), 0x0012_3456);
    }

    #[test]
    fn pid_truncated_to_24_bits() {
        let id = ChunkId::new(1, MachineId::from_seed(1), 0xffff_ffff, 0);
        assert_eq!(id.pid(), 0x00ff_ffff);
    }

    #[test]
    fn encode_roundtrip() {
        let id = ChunkId::new(1_600_000_000, MachineId::from_seed(7), 4242, 99);
        let s = id.encode();
        assert_eq!(s.len(), ChunkId::ENCODED_LEN);
        assert_eq!(ChunkId::decode(&s).unwrap(), id);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(ChunkId::decode("").is_err());
        assert!(ChunkId::decode("!!!!!!!!!!!!!!!!!!!!!!").is_err());
        assert!(ChunkId::decode("abc").is_err());
        // correct length, invalid char
        assert!(ChunkId::decode("++++++++++++++++++++++").is_err());
    }

    #[test]
    fn sort_order_preserving_encoding() {
        // Encoded order must equal raw byte order (and thus time order).
        let gen = ChunkIdGenerator::deterministic(1, 1, 100);
        let mut ids: Vec<ChunkId> = (0..1000).map(|_| gen.next_id()).collect();
        let later = ChunkIdGenerator::deterministic(1, 1, 200);
        ids.extend((0..100).map(|_| later.next_id()));
        let mut encoded: Vec<String> = ids.iter().map(|i| i.encode()).collect();
        let mut raw_sorted = ids.clone();
        raw_sorted.sort();
        encoded.sort();
        let decoded: Vec<ChunkId> = encoded.iter().map(|s| ChunkId::decode(s).unwrap()).collect();
        assert_eq!(decoded, raw_sorted);
    }

    #[test]
    fn generator_unique_and_monotone() {
        let gen = ChunkIdGenerator::deterministic(9, 77, 1000);
        let ids: Vec<ChunkId> = (0..10_000).map(|_| gen.next_id()).collect();
        let set: HashSet<ChunkId> = ids.iter().copied().collect();
        assert_eq!(set.len(), ids.len());
        for w in ids.windows(2) {
            assert!(w[0] < w[1], "ids must be strictly increasing");
        }
    }

    #[test]
    fn generator_unique_across_threads() {
        let gen = std::sync::Arc::new(ChunkIdGenerator::deterministic(3, 5, 50));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let g = gen.clone();
            handles.push(std::thread::spawn(move || {
                (0..5000).map(|_| g.next_id()).collect::<Vec<_>>()
            }));
        }
        let mut all = Vec::new();
        for h in handles {
            all.extend(h.join().unwrap());
        }
        let set: HashSet<ChunkId> = all.iter().copied().collect();
        assert_eq!(set.len(), all.len(), "ids must be unique across threads");
    }

    #[test]
    fn counter_overflow_borrows_next_second() {
        let gen = ChunkIdGenerator::deterministic(1, 1, 10);
        // Force the internal state near overflow.
        gen.state.store((10u64 << 24) | 0x00ff_fffe, Ordering::Relaxed);
        let a = gen.next_id();
        let b = gen.next_id();
        assert_eq!(a.timestamp_secs(), 10);
        assert_eq!(a.counter(), 0x00ff_ffff);
        assert_eq!(b.timestamp_secs(), 11);
        assert_eq!(b.counter(), 0);
        assert!(a < b);
    }

    #[test]
    fn distinct_generators_in_one_process_never_collide() {
        // Regression test: two clients in one process, created in the
        // same wall-clock second, must not mint overlapping IDs.
        let a = ChunkIdGenerator::new();
        let b = ChunkIdGenerator::new();
        let mut all = HashSet::new();
        for _ in 0..1000 {
            assert!(all.insert(a.next_id()));
            assert!(all.insert(b.next_id()));
        }
    }

    #[test]
    fn machine_id_from_seed_is_stable() {
        assert_eq!(MachineId::from_seed(123), MachineId::from_seed(123));
        assert_ne!(MachineId::from_seed(1), MachineId::from_seed(2));
    }
}
