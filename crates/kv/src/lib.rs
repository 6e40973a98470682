//! # diesel-kv — distributed key-value metadata store
//!
//! DIESEL stores file/chunk metadata in a distributed in-memory key-value
//! database (a Redis cluster in the paper, §4/§5). This crate provides the
//! substitute substrate:
//!
//! * [`KvStore`] — the operation surface DIESEL needs: `get`, `put`,
//!   `delete`, batched `mget`/`mput`, and `pscan` (prefix scan — a
//!   snapshot is one scan of a dataset's file records).
//!   A server's merged read resolves its whole batch of paths with one
//!   `mget`, not one `get` per file.
//! * [`ShardedKv`] — a single "instance": an in-memory store sharded
//!   across lock-striped hash maps, so a point lookup is one hash probe
//!   and a prefix scan filters every key, then sorts the matches; an
//!   `mget` visits each shard once.
//! * [`KvCluster`] — N instances with Redis-style slot routing
//!   (CRC-16 of the key modulo 16384 slots, slots striped over
//!   instances), per-instance failure injection (node kill) and whole-
//!   cluster power-loss, mirroring the fault scenarios of §4.1.2.
//!   Batched calls reach each owning instance once.
//! * [`KvMetrics`] — operation-counter handles into a shared
//!   `diesel-obs` registry, used by the benchmarks to report QPS
//!   against the measured ceiling of the paper's Redis setup.
//!
//! The store is deliberately *not* persistent: the whole point of DIESEL's
//! self-contained chunks is that this database can be lost and rebuilt.

pub mod cluster;
pub mod hash;
pub mod shard;
pub mod stats;

pub use cluster::{ClusterConfig, KvCluster};
pub use diesel_util::Bytes;
pub use shard::ShardedKv;
pub use stats::KvMetrics;

/// Errors surfaced by KV operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvError {
    /// The instance owning this key is down (simulated node failure).
    InstanceDown { instance: usize },
    /// The key does not exist. Batched calls report per-key misses as
    /// `None` instead.
    NotFound(String),
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::InstanceDown { instance } => write!(f, "kv instance {instance} is down"),
            KvError::NotFound(k) => write!(f, "key not found: {k:?}"),
        }
    }
}

impl std::error::Error for KvError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, KvError>;

/// The key-value operation surface used by the DIESEL metadata layer.
///
/// Implementations must be safe for concurrent use (`&self` methods).
///
/// Values are [`Bytes`]: the payload plane's single currency. A `get`
/// is a refcount bump on the stored buffer, never a copy, and `put`
/// takes ownership of a buffer the caller usually just encoded (so
/// `record.encode().into()` moves, copying nothing).
pub trait KvStore: Send + Sync {
    /// Fetch the value for `key`, or `Ok(None)` when absent.
    fn get(&self, key: &str) -> Result<Option<Bytes>>;

    /// Store `value` under `key`, overwriting any previous value.
    fn put(&self, key: &str, value: Bytes) -> Result<()>;

    /// Remove `key`. Returns whether it existed.
    fn delete(&self, key: &str) -> Result<bool>;

    /// Batched get: one entry per requested key, `None` on miss. An error
    /// is the one the per-key loop would meet first.
    fn mget(&self, keys: &[&str]) -> Result<Vec<Option<Bytes>>> {
        keys.iter().map(|k| self.get(k)).collect()
    }

    /// Batched put.
    fn mput(&self, pairs: Vec<(String, Bytes)>) -> Result<()> {
        for (k, v) in pairs {
            self.put(&k, v)?;
        }
        Ok(())
    }

    /// Atomically read-modify-write one key: `f` receives the current
    /// value (`None` when absent) and returns the replacement (`None`
    /// deletes the key). Implementations run `f` under the key's lock so
    /// concurrent updaters — including other front-end servers sharing
    /// the store — never lose writes (Redis would do this with a Lua
    /// script or `MULTI`/`EXEC`).
    ///
    /// The default implementation is a get-then-put and is *not* atomic;
    /// any store reachable from more than one thread must override it.
    fn update(&self, key: &str, f: &mut dyn FnMut(Option<Bytes>) -> Option<Bytes>) -> Result<()> {
        match f(self.get(key)?) {
            Some(v) => self.put(key, v),
            None => {
                self.delete(key)?;
                Ok(())
            }
        }
    }

    /// Scan all keys starting with `prefix`, in lexicographic key order.
    fn pscan(&self, prefix: &str) -> Result<Vec<(String, Bytes)>>;

    /// Number of stored keys (diagnostics; O(shards)).
    fn len(&self) -> usize;

    /// True when no keys are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of this store's metric registry, when it keeps one.
    /// Front-end servers merge it into their own snapshot so one read
    /// shows the whole pipeline.
    fn obs_snapshot(&self) -> Option<diesel_obs::RegistrySnapshot> {
        None
    }
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    /// Exercise the default batched implementations through a tiny adapter.
    struct Tiny(diesel_util::Mutex<std::collections::BTreeMap<String, Bytes>>);

    impl KvStore for Tiny {
        fn get(&self, key: &str) -> Result<Option<Bytes>> {
            Ok(self.0.lock().get(key).cloned())
        }
        fn put(&self, key: &str, value: Bytes) -> Result<()> {
            self.0.lock().insert(key.to_owned(), value);
            Ok(())
        }
        fn delete(&self, key: &str) -> Result<bool> {
            Ok(self.0.lock().remove(key).is_some())
        }
        fn pscan(&self, prefix: &str) -> Result<Vec<(String, Bytes)>> {
            Ok(self
                .0
                .lock()
                .range(prefix.to_owned()..)
                .take_while(|(k, _)| k.starts_with(prefix))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect())
        }
        fn len(&self) -> usize {
            self.0.lock().len()
        }
    }

    #[test]
    fn default_mget_mput() {
        let kv = Tiny(diesel_util::Mutex::new(Default::default()));
        kv.mput(vec![("a".into(), vec![1].into()), ("b".into(), vec![2].into())]).unwrap();
        let got = kv.mget(&["a", "zz", "b"]).unwrap();
        assert_eq!(got, vec![Some(Bytes::from(vec![1])), None, Some(Bytes::from(vec![2]))]);
        assert!(!kv.is_empty());
    }
}
