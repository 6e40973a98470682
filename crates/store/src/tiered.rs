//! The DIESEL server-side cache: a fast (SSD) tier over a slow (HDD)
//! tier (read flow of Fig. 4).
//!
//! "If the server cache is enabled and the corresponding data chunks are
//! cached in the fast object-storage, the file read requests will be sent
//! to the fast object-store system. Otherwise the slower object-storage
//! system will handle the requests. If a cache miss occurs on the
//! server-side, the server will start to cache the dataset in the
//! background."
//!
//! Chunk-granular promotion with LRU eviction bounded by a fast-tier
//! capacity. Promotion here is synchronous, on the miss that triggers
//! it (the simulated-time layer charges its cost separately). Read-path
//! counters live in a `diesel-obs` registry under `store.*`.

use diesel_obs::{trace, Counter, Gauge, Registry, RegistrySnapshot};
use diesel_util::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

use crate::{Bytes, ObjectStore, Result};

/// Handles into the registry for the tiered read path.
#[derive(Debug, Clone)]
pub struct TierMetrics {
    fast_hits: Counter,
    slow_hits: Counter,
    promotions: Counter,
    evictions: Counter,
    resident_bytes: Gauge,
}

impl TierMetrics {
    /// Register the tier counters (`store.fast_hits`, `store.slow_hits`,
    /// `store.promotions`, `store.evictions`) and the
    /// `store.fast_resident_bytes` gauge in `registry`.
    pub fn new(registry: &Registry) -> Self {
        TierMetrics {
            fast_hits: registry.counter("store.fast_hits", &[]),
            slow_hits: registry.counter("store.slow_hits", &[]),
            promotions: registry.counter("store.promotions", &[]),
            evictions: registry.counter("store.evictions", &[]),
            resident_bytes: registry.gauge("store.fast_resident_bytes", &[]),
        }
    }

    /// Reads served by the fast tier.
    pub fn fast_hits(&self) -> u64 {
        self.fast_hits.get()
    }

    /// Reads served by the slow tier.
    pub fn slow_hits(&self) -> u64 {
        self.slow_hits.get()
    }

    /// Chunks promoted into the fast tier.
    pub fn promotions(&self) -> u64 {
        self.promotions.get()
    }

    /// Chunks evicted from the fast tier.
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }
}

/// A two-tier object store with LRU promotion.
pub struct TieredStore<F, S> {
    fast: Arc<F>,
    slow: Arc<S>,
    fast_capacity_bytes: u64,
    state: Mutex<LruState>,
    registry: Arc<Registry>,
    metrics: TierMetrics,
}

#[derive(Debug, Default)]
struct LruState {
    /// Keys resident in the fast tier, least-recently-used first.
    lru: VecDeque<String>,
    resident_bytes: u64,
}

impl<F: ObjectStore, S: ObjectStore> TieredStore<F, S> {
    /// Build a tiered store with a private registry;
    /// `fast_capacity_bytes` bounds the fast tier.
    pub fn new(fast: Arc<F>, slow: Arc<S>, fast_capacity_bytes: u64) -> Self {
        Self::with_registry(fast, slow, fast_capacity_bytes, Arc::new(Registry::default()))
    }

    /// Build a tiered store whose counters land in a shared `registry`.
    pub fn with_registry(
        fast: Arc<F>,
        slow: Arc<S>,
        fast_capacity_bytes: u64,
        registry: Arc<Registry>,
    ) -> Self {
        let metrics = TierMetrics::new(&registry);
        TieredStore {
            fast,
            slow,
            fast_capacity_bytes,
            state: Mutex::named("store.tiered_lru", LruState::default()),
            registry,
            metrics,
        }
    }

    /// Write-through put: new objects land in the slow (authoritative)
    /// tier; the fast tier fills on read.
    pub fn put(&self, key: &str, value: Bytes) -> Result<()> {
        self.slow.put(key, value)
    }

    /// Read an object, promoting it into the fast tier.
    pub fn get(&self, key: &str) -> Result<Bytes> {
        let mut span = if trace::active() {
            trace::span("store.get", &[("key", key)])
        } else {
            trace::SpanGuard::default()
        };
        if let Ok(data) = self.fast.get(key) {
            touch(&mut self.state.lock().lru, key);
            self.metrics.fast_hits.inc();
            span.label("tier", "fast");
            return Ok(data);
        }
        let data = self.slow.get(key)?;
        self.metrics.slow_hits.inc();
        span.label("tier", "slow");
        self.promote(key, data.clone())?;
        Ok(data)
    }

    /// Which tier would serve `key` right now? (`true` = fast.)
    #[cfg(test)]
    fn is_fast_resident(&self, key: &str) -> bool {
        self.fast.contains(key)
    }

    /// Copy one object into the fast tier (evicting LRU victims as
    /// needed). Idempotent.
    pub fn promote(&self, key: &str, data: Bytes) -> Result<()> {
        if self.fast.contains(key) {
            return Ok(());
        }
        let size = data.len() as u64;
        if size > self.fast_capacity_bytes {
            return Ok(()); // cannot ever fit; serve from slow tier
        }
        let mut st = self.state.lock();
        while st.resident_bytes + size > self.fast_capacity_bytes {
            let Some(victim) = st.lru.pop_front() else { break };
            if let Some(vsize) = self.fast.size_of(&victim) {
                self.fast.delete(&victim)?;
                st.resident_bytes -= vsize as u64;
                self.metrics.evictions.inc();
            }
        }
        self.fast.put(key, data)?;
        st.lru.push_back(key.to_owned());
        st.resident_bytes += size;
        self.metrics.resident_bytes.set(st.resident_bytes);
        self.metrics.promotions.inc();
        Ok(())
    }

    /// Delete from both tiers.
    pub fn delete(&self, key: &str) -> Result<bool> {
        let mut st = self.state.lock();
        if let Some(pos) = st.lru.iter().position(|k| k == key) {
            st.lru.remove(pos);
            if let Some(size) = self.fast.size_of(key) {
                st.resident_bytes -= size as u64;
            }
            self.metrics.resident_bytes.set(st.resident_bytes);
        }
        drop(st);
        self.fast.delete(key)?;
        self.slow.delete(key)
    }

    /// Read-path counter handles.
    pub fn metrics(&self) -> &TierMetrics {
        &self.metrics
    }

    /// The registry holding this store's counters.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Bytes currently resident in the fast tier.
    pub fn fast_resident_bytes(&self) -> u64 {
        self.state.lock().resident_bytes
    }

    /// The slow (authoritative) tier.
    pub fn slow(&self) -> &Arc<S> {
        &self.slow
    }

    /// The fast tier.
    pub fn fast(&self) -> &Arc<F> {
        &self.fast
    }
}

fn touch(lru: &mut VecDeque<String>, key: &str) {
    if let Some(pos) = lru.iter().position(|k| k == key) {
        if let Some(k) = lru.remove(pos) {
            lru.push_back(k);
        }
    }
}

/// `TieredStore` is itself an [`ObjectStore`], so a `DieselServer` can
/// run directly on top of an SSD/HDD pair (the server cache of Fig. 4):
/// reads promote chunks into the fast tier transparently.
impl<F: ObjectStore, S: ObjectStore> ObjectStore for TieredStore<F, S> {
    fn put(&self, key: &str, value: Bytes) -> Result<()> {
        TieredStore::put(self, key, value)
    }

    fn get(&self, key: &str) -> Result<Bytes> {
        TieredStore::get(self, key)
    }

    fn get_range(&self, key: &str, offset: u64, len: usize) -> Result<Bytes> {
        // Serve ranges from whichever tier holds the object; a fast-tier
        // range read must not force a whole-object promotion.
        if self.fast.contains(key) {
            touch(&mut self.state.lock().lru, key);
            self.metrics.fast_hits.inc();
            return self.fast.get_range(key, offset, len);
        }
        let out = self.slow.get_range(key, offset, len)?;
        self.metrics.slow_hits.inc();
        Ok(out)
    }

    fn delete(&self, key: &str) -> Result<bool> {
        TieredStore::delete(self, key)
    }

    fn contains(&self, key: &str) -> bool {
        self.fast.contains(key) || self.slow.contains(key)
    }

    fn list_prefix(&self, prefix: &str) -> Vec<String> {
        // The slow tier is authoritative.
        self.slow.list_prefix(prefix)
    }

    fn size_of(&self, key: &str) -> Option<usize> {
        self.slow.size_of(key).or_else(|| self.fast.size_of(key))
    }

    fn len(&self) -> usize {
        self.slow.len()
    }

    fn total_bytes(&self) -> u64 {
        self.slow.total_bytes()
    }

    fn obs_snapshot(&self) -> Option<RegistrySnapshot> {
        Some(self.registry.snapshot())
    }
}

impl<F: ObjectStore, S: ObjectStore> std::fmt::Debug for TieredStore<F, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TieredStore")
            .field("fast_capacity_bytes", &self.fast_capacity_bytes)
            .field("resident_bytes", &self.fast_resident_bytes())
            .field("fast_hits", &self.metrics.fast_hits())
            .field("slow_hits", &self.metrics.slow_hits())
            .field("promotions", &self.metrics.promotions())
            .field("evictions", &self.metrics.evictions())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemObjectStore;

    fn tiered(cap: u64) -> TieredStore<MemObjectStore, MemObjectStore> {
        TieredStore::new(Arc::new(MemObjectStore::new()), Arc::new(MemObjectStore::new()), cap)
    }

    #[test]
    fn read_promotes_to_fast_tier() {
        let t = tiered(1024);
        t.put("a", Bytes::from(vec![1u8; 100])).unwrap();
        assert!(!t.is_fast_resident("a"));
        t.get("a").unwrap();
        assert!(t.is_fast_resident("a"));
        let m = t.metrics();
        assert_eq!((m.fast_hits(), m.slow_hits(), m.promotions()), (0, 1, 1));
        t.get("a").unwrap();
        assert_eq!(t.metrics().fast_hits(), 1);
    }

    #[test]
    fn lru_eviction_respects_capacity() {
        let t = tiered(250);
        for k in ["a", "b", "c"] {
            t.put(k, Bytes::from(vec![0u8; 100])).unwrap();
        }
        t.get("a").unwrap();
        t.get("b").unwrap();
        assert_eq!(t.fast_resident_bytes(), 200);
        // Touch "a" so "b" is LRU, then promote "c".
        t.get("a").unwrap();
        t.get("c").unwrap();
        assert!(t.is_fast_resident("a"), "recently-used object must stay");
        assert!(!t.is_fast_resident("b"), "LRU object must be evicted");
        assert!(t.is_fast_resident("c"));
        assert_eq!(t.metrics().evictions(), 1);
        assert!(t.fast_resident_bytes() <= 250);
    }

    #[test]
    fn oversized_object_never_promoted() {
        let t = tiered(100);
        t.put("big", Bytes::from(vec![0u8; 500])).unwrap();
        t.get("big").unwrap();
        assert!(!t.is_fast_resident("big"));
        assert_eq!(t.metrics().promotions(), 0);
    }

    #[test]
    fn delete_removes_from_both_tiers() {
        let t = tiered(1024);
        t.put("a", Bytes::from(vec![0u8; 10])).unwrap();
        t.get("a").unwrap();
        assert!(t.delete("a").unwrap());
        assert!(!t.is_fast_resident("a"));
        assert!(t.get("a").is_err());
        assert_eq!(t.fast_resident_bytes(), 0);
    }

    #[test]
    fn miss_errors_propagate() {
        let t = tiered(10);
        assert!(matches!(t.get("nope"), Err(crate::StoreError::NotFound(_))));
    }

    #[test]
    fn object_store_impl_serves_through_tiers() {
        let t = tiered(1 << 20);
        let store: &dyn ObjectStore = &t;
        store.put("k", Bytes::from(vec![5u8; 200])).unwrap();
        assert!(store.contains("k"));
        assert_eq!(store.size_of("k"), Some(200));
        // Range read from the slow tier does not promote.
        assert_eq!(store.get_range("k", 10, 5).unwrap().len(), 5);
        assert!(!t.is_fast_resident("k"));
        // Whole-object get promotes; subsequent range reads hit fast.
        store.get("k").unwrap();
        assert!(t.is_fast_resident("k"));
        assert_eq!(store.get_range("k", 0, 4).unwrap(), Bytes::from(vec![5u8; 4]));
        assert!(t.metrics().fast_hits() >= 1 && t.metrics().slow_hits() >= 1);
        assert_eq!(store.list_prefix("k"), vec!["k"]);
        assert_eq!(store.len(), 1);
        assert!(store.delete("k").unwrap());
        assert!(!store.contains("k"));
    }

    #[test]
    fn snapshot_exposes_tier_counters_and_resident_gauge() {
        let t = tiered(1024);
        t.put("a", Bytes::from(vec![0u8; 64])).unwrap();
        t.get("a").unwrap();
        t.get("a").unwrap();
        let store: &dyn ObjectStore = &t;
        let snap = store.obs_snapshot().expect("tiered store keeps a registry");
        assert_eq!(snap.counter("store.slow_hits"), 1);
        assert_eq!(snap.counter("store.fast_hits"), 1);
        assert_eq!(snap.counter("store.promotions"), 1);
        assert_eq!(snap.gauge("store.fast_resident_bytes"), 64);
    }
}
