//! Failure-injecting [`ObjectStore`] wrapper.
//!
//! Wraps any store and injects deterministic, seeded faults on the read
//! path: transient I/O errors and payload bit-flips. Used by tests to
//! show that DIESEL's checksums catch corruption end-to-end and that
//! retry/fallback paths behave (chunks are CRC-protected per file, so a
//! flipped bit surfaces as `ChecksumMismatch`, never as silent wrong
//! data).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Bytes, ObjectStore, Result, StoreError};

/// Fault configuration (probabilities per read operation).
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Probability a `get`/`get_range` fails with a transient I/O error.
    pub io_error_rate: f64,
    /// Probability a returned payload has one bit flipped.
    pub corruption_rate: f64,
    /// RNG seed (faults are deterministic given the op sequence).
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig { io_error_rate: 0.0, corruption_rate: 0.0, seed: 0 }
    }
}

/// A store that misbehaves on purpose.
pub struct FaultyStore<S> {
    inner: Arc<S>,
    config: FaultConfig,
    ops: AtomicU64,
    injected_errors: AtomicU64,
    injected_corruptions: AtomicU64,
}

impl<S: ObjectStore> FaultyStore<S> {
    /// Wrap `inner`.
    pub fn new(inner: Arc<S>, config: FaultConfig) -> Self {
        FaultyStore {
            inner,
            config,
            ops: AtomicU64::new(0),
            injected_errors: AtomicU64::new(0),
            injected_corruptions: AtomicU64::new(0),
        }
    }

    /// (errors, corruptions) injected so far.
    pub fn injected(&self) -> (u64, u64) {
        (
            self.injected_errors.load(Ordering::Relaxed),
            self.injected_corruptions.load(Ordering::Relaxed),
        )
    }

    fn roll(&self) -> StdRng {
        let n = self.ops.fetch_add(1, Ordering::Relaxed);
        StdRng::seed_from_u64(self.config.seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    fn maybe_fault(&self, key: &str, data: Bytes) -> Result<Bytes> {
        let mut rng = self.roll();
        if rng.gen_bool(self.config.io_error_rate.clamp(0.0, 1.0)) {
            self.injected_errors.fetch_add(1, Ordering::Relaxed);
            return Err(StoreError::Io(format!("injected transient error reading {key}")));
        }
        if !data.is_empty() && rng.gen_bool(self.config.corruption_rate.clamp(0.0, 1.0)) {
            self.injected_corruptions.fetch_add(1, Ordering::Relaxed);
            // The only copy in this store: flipping a bit needs a private
            // buffer. The clean path below returns `data` untouched.
            diesel_obs::record_copy("corruption", data.len() as u64);
            let mut v = data.to_vec();
            let pos = rng.gen_range(0..v.len());
            let bit = 1u8 << rng.gen_range(0..8u32);
            if let Some(b) = v.get_mut(pos) {
                *b ^= bit;
            }
            return Ok(Bytes::from(v));
        }
        Ok(data)
    }
}

impl<S: ObjectStore> ObjectStore for FaultyStore<S> {
    fn put(&self, key: &str, value: Bytes) -> Result<()> {
        self.inner.put(key, value)
    }

    fn get(&self, key: &str) -> Result<Bytes> {
        let data = self.inner.get(key)?;
        self.maybe_fault(key, data)
    }

    fn get_range(&self, key: &str, offset: u64, len: usize) -> Result<Bytes> {
        let data = self.inner.get_range(key, offset, len)?;
        self.maybe_fault(key, data)
    }

    fn delete(&self, key: &str) -> Result<bool> {
        self.inner.delete(key)
    }

    fn contains(&self, key: &str) -> bool {
        self.inner.contains(key)
    }

    fn list_prefix(&self, prefix: &str) -> Vec<String> {
        self.inner.list_prefix(prefix)
    }

    fn size_of(&self, key: &str) -> Option<usize> {
        self.inner.size_of(key)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn total_bytes(&self) -> u64 {
        self.inner.total_bytes()
    }
}

impl<S> std::fmt::Debug for FaultyStore<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyStore").field("config", &self.config).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemObjectStore;

    fn store(io: f64, corrupt: f64) -> FaultyStore<MemObjectStore> {
        let inner = Arc::new(MemObjectStore::new());
        inner.put("k", Bytes::from(vec![0u8; 1024])).unwrap();
        FaultyStore::new(
            inner,
            FaultConfig { io_error_rate: io, corruption_rate: corrupt, seed: 42 },
        )
    }

    #[test]
    fn no_faults_means_passthrough() {
        let s = store(0.0, 0.0);
        for _ in 0..100 {
            assert_eq!(s.get("k").unwrap().len(), 1024);
        }
        assert_eq!(s.injected(), (0, 0));
    }

    #[test]
    fn io_errors_injected_at_configured_rate() {
        let s = store(0.3, 0.0);
        let mut errors = 0;
        for _ in 0..1000 {
            if s.get("k").is_err() {
                errors += 1;
            }
        }
        assert!((200..420).contains(&errors), "rate off: {errors}/1000");
        assert_eq!(s.injected().0, errors);
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let s = store(0.0, 1.0);
        let data = s.get("k").unwrap();
        let diff: u32 = data.iter().map(|&b| b.count_ones()).sum();
        assert_eq!(diff, 1, "exactly one bit must differ from all-zeros");
        assert_eq!(s.injected().1, 1);
    }

    #[test]
    fn faults_are_deterministic_per_sequence() {
        let a = store(0.5, 0.0);
        let b = store(0.5, 0.0);
        let pat_a: Vec<bool> = (0..200).map(|_| a.get("k").is_err()).collect();
        let pat_b: Vec<bool> = (0..200).map(|_| b.get("k").is_err()).collect();
        assert_eq!(pat_a, pat_b);
    }

    #[test]
    fn writes_and_metadata_ops_are_never_faulted() {
        let s = store(1.0, 0.0);
        s.put("new", Bytes::from_static(b"x")).unwrap();
        assert!(s.contains("new"));
        assert_eq!(s.len(), 2);
        assert!(s.delete("new").unwrap());
    }
}
