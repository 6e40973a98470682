//! One KV *instance*: a lock-striped, in-memory hash store.
//!
//! Keys are distributed over `S` shards by FNV hash; each shard is a
//! `RwLock<HashMap>`, so a point op is one hash probe that contends only
//! within its shard. A prefix scan filters every key of every shard and
//! sorts what matched. This mirrors one Redis process: fast point ops,
//! `SCAN`-style prefix iteration that visits the whole keyspace, and
//! zero durability.

use std::collections::HashMap;
use std::sync::Arc;

use diesel_obs::{trace, Registry, RegistrySnapshot};
use diesel_util::RwLock;

use crate::hash::fnv1a_64;
use crate::stats::KvMetrics;
use crate::{Bytes, KvStore, Result};

/// A single in-memory KV instance.
#[derive(Debug)]
pub struct ShardedKv {
    // Each map hashes with std's randomly keyed default hasher, not the
    // FNV routing hash: that hash's low bits pick the shard, so every key
    // in one shard would share them.
    shards: Vec<RwLock<HashMap<String, Bytes>>>,
    registry: Arc<Registry>,
    metrics: KvMetrics,
}

impl ShardedKv {
    /// Default shard count: enough stripes that 16-thread writers rarely
    /// collide. A scan visits every key whatever the count, so it costs
    /// only one more read guard per shard.
    pub const DEFAULT_SHARDS: usize = 64;

    /// An empty instance with [`Self::DEFAULT_SHARDS`] stripes.
    pub fn new() -> Self {
        Self::with_shards(Self::DEFAULT_SHARDS)
    }

    /// An empty instance with an explicit stripe count (≥ 1) and its own
    /// metric registry.
    pub fn with_shards(shards: usize) -> Self {
        Self::with_registry(shards, Arc::new(Registry::default()), &[])
    }

    /// An empty instance recording into a shared `registry`, its metric
    /// cells dimensioned by `labels` (how [`crate::KvCluster`] gives
    /// each instance an `{instance=N}` identity in one registry).
    pub fn with_registry(shards: usize, registry: Arc<Registry>, labels: &[(&str, &str)]) -> Self {
        assert!(shards >= 1, "need at least one shard");
        let metrics = KvMetrics::new(&registry, labels);
        ShardedKv {
            shards: (0..shards).map(|_| RwLock::named("kv.shard", HashMap::new())).collect(),
            registry,
            metrics,
        }
    }

    fn shard_index(&self, key: &str) -> usize {
        (fnv1a_64(key.as_bytes()) as usize) % self.shards.len()
    }

    #[expect(clippy::indexing_slicing, reason = "shard_index is reduced modulo shards.len()")]
    fn shard_for(&self, key: &str) -> &RwLock<HashMap<String, Bytes>> {
        &self.shards[self.shard_index(key)]
    }

    /// Operation-counter handles for this instance.
    pub fn metrics(&self) -> &KvMetrics {
        &self.metrics
    }

    /// The registry this instance records into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Drop every key (simulated power loss / `FLUSHALL`).
    pub fn clear(&self) {
        for s in &self.shards {
            s.write().clear();
        }
    }

    /// Remove all keys whose value fails `keep` — used by failure
    /// injection to model partial loss of recent writes.
    pub fn retain(&self, mut keep: impl FnMut(&str, &[u8]) -> bool) {
        for s in &self.shards {
            s.write().retain(|k, v| keep(k, v));
        }
    }
}

impl Default for ShardedKv {
    fn default() -> Self {
        Self::new()
    }
}

impl KvStore for ShardedKv {
    fn get(&self, key: &str) -> Result<Option<Bytes>> {
        self.metrics.record_gets(1);
        let _span = if trace::active() {
            trace::span("kv.get", &[("key", key)])
        } else {
            trace::SpanGuard::default()
        };
        // `Bytes` values make this clone a refcount bump, not a copy.
        Ok(self.shard_for(key).read().get(key).cloned())
    }

    /// One pass per shard: the keys are grouped by shard, and each shard
    /// serves its whole group under one read guard.
    fn mget(&self, keys: &[&str]) -> Result<Vec<Option<Bytes>>> {
        self.metrics.record_gets(keys.len() as u64);
        let _span = if trace::active() {
            let n = keys.len().to_string();
            trace::span("kv.mget", &[("keys", n.as_str())])
        } else {
            trace::SpanGuard::default()
        };
        let mut by_shard: Vec<(usize, usize)> =
            keys.iter().enumerate().map(|(i, key)| (self.shard_index(key), i)).collect();
        by_shard.sort_unstable();
        let mut out = vec![None; keys.len()];
        for group in by_shard.chunk_by(|a, b| a.0 == b.0) {
            let Some(shard) = group.first().and_then(|&(s, _)| self.shards.get(s)) else {
                continue;
            };
            let guard = shard.read();
            for &(_, i) in group {
                if let (Some(slot), Some(key)) = (out.get_mut(i), keys.get(i)) {
                    *slot = guard.get(*key).cloned();
                }
            }
        }
        Ok(out)
    }

    fn put(&self, key: &str, value: Bytes) -> Result<()> {
        self.metrics.record_put();
        self.shard_for(key).write().insert(key.to_owned(), value);
        Ok(())
    }

    fn delete(&self, key: &str) -> Result<bool> {
        self.metrics.record_delete();
        Ok(self.shard_for(key).write().remove(key).is_some())
    }

    fn update(&self, key: &str, f: &mut dyn FnMut(Option<Bytes>) -> Option<Bytes>) -> Result<()> {
        self.metrics.record_put();
        let mut shard = self.shard_for(key).write();
        match f(shard.get(key).cloned()) {
            Some(v) => {
                shard.insert(key.to_owned(), v);
            }
            None => {
                shard.remove(key);
            }
        }
        Ok(())
    }

    fn pscan(&self, prefix: &str) -> Result<Vec<(String, Bytes)>> {
        self.metrics.record_scan();
        let _span = if trace::active() {
            trace::span("kv.scan", &[("prefix", prefix)])
        } else {
            trace::SpanGuard::default()
        };
        // No shard keeps its keys in order: filter them all, then sort.
        let mut out = Vec::new();
        for s in &self.shards {
            let guard = s.read();
            out.extend(
                guard
                    .iter()
                    .filter(|(k, _)| k.starts_with(prefix))
                    .map(|(k, v)| (k.clone(), v.clone())),
            );
        }
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        Ok(out)
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    fn obs_snapshot(&self) -> Option<RegistrySnapshot> {
        Some(self.registry.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    #[test]
    fn point_ops() {
        let kv = ShardedKv::new();
        assert_eq!(kv.get("k").unwrap(), None);
        kv.put("k", vec![1, 2, 3].into()).unwrap();
        assert_eq!(kv.get("k").unwrap(), Some(Bytes::from(vec![1, 2, 3])));
        kv.put("k", vec![9].into()).unwrap();
        assert_eq!(kv.get("k").unwrap(), Some(Bytes::from(vec![9])), "put overwrites");
        assert!(kv.delete("k").unwrap());
        assert!(!kv.delete("k").unwrap());
        assert_eq!(kv.len(), 0);
    }

    #[test]
    fn pscan_is_sorted_and_prefix_exact() {
        let kv = ShardedKv::with_shards(8);
        for k in ["a/1", "a/2", "a/10", "ab", "b/1", "a"] {
            kv.put(k, k.as_bytes().to_vec().into()).unwrap();
        }
        let hits = kv.pscan("a/").unwrap();
        let keys: Vec<&str> = hits.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["a/1", "a/10", "a/2"]);
        // Prefix "a" also matches "ab" and "a" itself.
        assert_eq!(kv.pscan("a").unwrap().len(), 5);
        assert_eq!(kv.pscan("zzz").unwrap(), vec![]);
        // Empty prefix scans everything, sorted.
        let all = kv.pscan("").unwrap();
        assert_eq!(all.len(), 6);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn clear_and_retain() {
        let kv = ShardedKv::new();
        for i in 0..100 {
            kv.put(&format!("k{i}"), vec![i as u8].into()).unwrap();
        }
        kv.retain(|_, v| v[0] % 2 == 0);
        assert_eq!(kv.len(), 50);
        kv.clear();
        assert!(kv.is_empty());
    }

    #[test]
    fn stats_count_operations() {
        let kv = ShardedKv::new();
        kv.put("a", Bytes::new()).unwrap();
        kv.get("a").unwrap();
        kv.get("b").unwrap();
        kv.pscan("").unwrap();
        kv.delete("a").unwrap();
        let m = kv.metrics();
        assert_eq!((m.gets(), m.puts(), m.deletes(), m.scans()), (2, 1, 1, 1));
        let snap = kv.obs_snapshot().expect("sharded kv exposes its registry");
        assert_eq!(snap.counter("kv.gets"), 2);
        assert_eq!(snap.counter("kv.puts"), 1);
    }

    #[test]
    fn concurrent_writers_do_not_lose_keys() {
        let kv = Arc::new(ShardedKv::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let kv = kv.clone();
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        kv.put(&format!("t{t}/k{i}"), vec![t as u8].into()).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(kv.len(), 8000);
        for t in 0..8 {
            assert_eq!(kv.pscan(&format!("t{t}/")).unwrap().len(), 1000);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn matches_model_btreemap(
            ops in proptest::collection::vec(
                (0u8..3, "[a-c]{1,4}", proptest::collection::vec(any::<u8>(), 0..4)),
                1..200
            ),
            prefix in "[a-c]{0,2}",
            // Small alphabet: duplicates are common; keys with a `d` miss.
            probe in proptest::collection::vec("[a-d]{1,3}", 0..24),
        ) {
            let kv = ShardedKv::with_shards(4);
            let mut model: BTreeMap<String, Vec<u8>> = BTreeMap::new();
            for (op, key, val) in ops {
                match op {
                    0 => {
                        kv.put(&key, val.clone().into()).unwrap();
                        model.insert(key, val);
                    }
                    1 => {
                        prop_assert_eq!(kv.delete(&key).unwrap(), model.remove(&key).is_some());
                    }
                    _ => {
                        prop_assert_eq!(kv.get(&key).unwrap(), model.get(&key).cloned().map(Bytes::from));
                    }
                }
            }
            let scanned = kv.pscan(&prefix).unwrap();
            let expect: Vec<(String, Bytes)> = model
                .range(prefix.clone()..)
                .take_while(|(k, _)| k.starts_with(&prefix))
                .map(|(k, v)| (k.clone(), v.clone().into()))
                .collect();
            prop_assert_eq!(scanned, expect);
            prop_assert_eq!(kv.len(), model.len());

            let keys: Vec<&str> = probe.iter().map(String::as_str).collect();
            let gets_before = kv.metrics().gets();
            let batched = kv.mget(&keys).unwrap();
            prop_assert_eq!(kv.metrics().gets() - gets_before, keys.len() as u64);
            let one_by_one: Vec<Option<Bytes>> =
                keys.iter().map(|k| kv.get(k).unwrap()).collect();
            prop_assert_eq!(batched, one_by_one);
        }
    }
}
