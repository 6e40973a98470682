//! A cluster of KV instances with Redis-style slot routing and failure
//! injection.
//!
//! Keys map to one of 16384 slots via CRC-16 (see [`crate::hash`]); slots
//! are assigned to instances in contiguous ranges, exactly like Redis
//! Cluster's default layout. The two §4.1.2 failure scenarios are exposed
//! directly:
//!
//! * **(a) node failure** — [`KvCluster::fail_instance`] marks one
//!   instance down; operations routed to it error with
//!   [`KvError::InstanceDown`]. [`KvCluster::recover_instance`] brings it
//!   back *empty* (its recent writes are lost), which is what the
//!   chunk-scan recovery then repairs.
//! * **(b) power loss** — [`KvCluster::power_loss`] clears every
//!   instance.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use diesel_obs::{Gauge, Registry, RegistrySnapshot};

use crate::hash::{key_slot, NUM_SLOTS};
use crate::shard::ShardedKv;
use crate::{Bytes, KvError, KvStore, Result};

/// Measured per-instance ceiling of the paper's Redis deployment
/// (§6.2: 16 instances saturate at ~0.97 M QPS ⇒ ~60 k each). Snapshot
/// readers divide observed op rates by `kv.qps_ceiling` to report
/// saturation.
pub const PAPER_QPS_PER_INSTANCE: u64 = 60_000;

/// Construction parameters for [`KvCluster`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of instances (the paper runs 16 Redis instances on 4 nodes).
    pub instances: usize,
    /// Lock stripes inside each instance.
    pub shards_per_instance: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig { instances: 16, shards_per_instance: ShardedKv::DEFAULT_SHARDS }
    }
}

/// A slot-routed cluster of [`ShardedKv`] instances.
///
/// # Examples
///
/// ```
/// use diesel_kv::{ClusterConfig, KvCluster, KvStore};
///
/// let cluster = KvCluster::new(ClusterConfig { instances: 4, shards_per_instance: 8 });
/// cluster.put("f/ds/train/cat/1.jpg", vec![1, 2, 3].into()).unwrap();
/// assert_eq!(cluster.get("f/ds/train/cat/1.jpg").unwrap(), Some(vec![1, 2, 3].into()));
///
/// // Kill the owning instance: its keys error, others keep working.
/// let owner = cluster.route("f/ds/train/cat/1.jpg");
/// cluster.fail_instance(owner);
/// assert!(cluster.get("f/ds/train/cat/1.jpg").is_err());
/// cluster.recover_instance(owner); // back, but empty — recovery rescans chunks
/// assert_eq!(cluster.get("f/ds/train/cat/1.jpg").unwrap(), None);
/// ```
pub struct KvCluster {
    instances: Vec<Arc<ShardedKv>>,
    down: Vec<AtomicBool>,
    registry: Arc<Registry>,
    instances_down: Gauge,
}

impl std::fmt::Debug for KvCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvCluster")
            .field("instances", &self.instances.len())
            .field("down", &self.down_instances())
            .finish()
    }
}

impl KvCluster {
    /// Build a cluster with its own metric registry.
    pub fn new(config: ClusterConfig) -> Self {
        Self::with_registry(config, Arc::new(Registry::default()))
    }

    /// Build a cluster recording into `registry`: every instance gets
    /// `kv.*{instance=N}` cells, and the cluster publishes its size and
    /// QPS ceiling as gauges.
    pub fn with_registry(config: ClusterConfig, registry: Arc<Registry>) -> Self {
        assert!(config.instances >= 1, "cluster needs at least one instance");
        let instances = (0..config.instances)
            .map(|i| {
                let label = i.to_string();
                Arc::new(ShardedKv::with_registry(
                    config.shards_per_instance,
                    registry.clone(),
                    &[("instance", label.as_str())],
                ))
            })
            .collect();
        registry.gauge("kv.instances", &[]).set(config.instances as u64);
        registry.gauge("kv.qps_ceiling", &[]).set(config.instances as u64 * PAPER_QPS_PER_INSTANCE);
        let instances_down = registry.gauge("kv.instances_down", &[]);
        KvCluster {
            instances,
            down: (0..config.instances).map(|_| AtomicBool::new(false)).collect(),
            registry,
            instances_down,
        }
    }

    /// The registry every instance records into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Which instance owns `key` (contiguous slot ranges, Redis-style).
    pub fn route(&self, key: &str) -> usize {
        let slot = key_slot(key) as usize;
        (slot * self.instances.len()) / NUM_SLOTS as usize
    }

    fn instance(&self, idx: usize) -> Result<&ShardedKv> {
        match (self.instances.get(idx), self.down.get(idx)) {
            (Some(inst), Some(down)) if !down.load(Ordering::Acquire) => Ok(inst),
            _ => Err(KvError::InstanceDown { instance: idx }),
        }
    }

    /// Take instance `idx` down; subsequent ops routed to it fail.
    #[expect(clippy::indexing_slicing, reason = "fault injection names one of its instances")]
    pub fn fail_instance(&self, idx: usize) {
        if !self.down[idx].swap(true, Ordering::Release) {
            self.instances_down.add(1);
        }
    }

    /// Bring instance `idx` back up **empty** (its in-memory state was
    /// lost with the node).
    #[expect(clippy::indexing_slicing, reason = "fault injection names one of its instances")]
    pub fn recover_instance(&self, idx: usize) {
        self.instances[idx].clear();
        if self.down[idx].swap(false, Ordering::Release) {
            self.instances_down.sub(1);
        }
    }

    /// Clear every instance (data-center power failure, scenario b).
    pub fn power_loss(&self) {
        for (inst, down) in self.instances.iter().zip(&self.down) {
            inst.clear();
            if down.swap(false, Ordering::Release) {
                self.instances_down.sub(1);
            }
        }
    }

    /// Indices of currently-down instances.
    pub fn down_instances(&self) -> Vec<usize> {
        self.down
            .iter()
            .enumerate()
            .filter(|(_, d)| d.load(Ordering::Acquire))
            .map(|(i, _)| i)
            .collect()
    }
}

impl KvStore for KvCluster {
    fn get(&self, key: &str) -> Result<Option<Bytes>> {
        self.instance(self.route(key))?.get(key)
    }

    fn put(&self, key: &str, value: Bytes) -> Result<()> {
        self.instance(self.route(key))?.put(key, value)
    }

    fn delete(&self, key: &str) -> Result<bool> {
        self.instance(self.route(key))?.delete(key)
    }

    fn update(&self, key: &str, f: &mut dyn FnMut(Option<Bytes>) -> Option<Bytes>) -> Result<()> {
        // The owning instance applies `f` under its shard lock, so the
        // update is atomic cluster-wide (each key has one owner).
        self.instance(self.route(key))?.update(key, f)
    }

    fn mput(&self, pairs: Vec<(String, Bytes)>) -> Result<()> {
        // Group by owning instance so each instance sees one batch — the
        // cluster-level analogue of Redis pipelining.
        let n = self.instances.len();
        let mut grouped: Vec<Vec<(String, Bytes)>> = (0..n).map(|_| Vec::new()).collect();
        for (k, v) in pairs {
            #[expect(clippy::indexing_slicing, reason = "route() is below instances.len()")]
            let group = &mut grouped[self.route(&k)];
            group.push((k, v));
        }
        for (idx, batch) in grouped.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            self.instance(idx)?.mput(batch)?;
        }
        Ok(())
    }

    fn mget(&self, keys: &[&str]) -> Result<Vec<Option<Bytes>>> {
        // Grouped by owning instance like `mput`. Owners are checked in
        // request order first, so a down instance fails the batch with
        // the error the per-key loop would have returned.
        let mut by_instance = keys
            .iter()
            .enumerate()
            .map(|(i, key)| {
                let idx = self.route(key);
                self.instance(idx).map(|_| (idx, i))
            })
            .collect::<Result<Vec<(usize, usize)>>>()?;
        by_instance.sort_unstable();
        let mut out = vec![None; keys.len()];
        for group in by_instance.chunk_by(|a, b| a.0 == b.0) {
            let Some(&(idx, _)) = group.first() else { continue };
            let batch: Vec<&str> =
                group.iter().filter_map(|&(_, i)| keys.get(i).copied()).collect();
            let values = self.instance(idx)?.mget(&batch)?;
            for (&(_, i), value) in group.iter().zip(values) {
                if let Some(slot) = out.get_mut(i) {
                    *slot = value;
                }
            }
        }
        Ok(out)
    }

    fn pscan(&self, prefix: &str) -> Result<Vec<(String, Bytes)>> {
        // A prefix scan must see every owning instance; any down instance
        // makes the result incomplete, so surface the failure.
        let mut out = Vec::new();
        for idx in 0..self.instances.len() {
            out.extend(self.instance(idx)?.pscan(prefix)?);
        }
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        Ok(out)
    }

    fn len(&self) -> usize {
        self.instances.iter().map(|i| i.len()).sum()
    }

    fn obs_snapshot(&self) -> Option<RegistrySnapshot> {
        // Every instance records into the cluster's shared registry, so
        // one snapshot covers them all (no double counting).
        Some(self.registry.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(n: usize) -> KvCluster {
        KvCluster::new(ClusterConfig { instances: n, shards_per_instance: 8 })
    }

    #[test]
    fn routes_are_stable_and_in_range() {
        let c = cluster(5);
        for i in 0..1000 {
            let key = format!("k/{i}");
            let r = c.route(&key);
            assert!(r < 5);
            assert_eq!(r, c.route(&key));
        }
    }

    #[test]
    fn keys_spread_across_instances() {
        let c = cluster(4);
        for i in 0..10_000 {
            c.put(&format!("file/{i}"), vec![0].into()).unwrap();
        }
        let dist: Vec<usize> = c.instances.iter().map(|i| i.len()).collect();
        assert_eq!(dist.iter().sum::<usize>(), 10_000);
        for &d in &dist {
            assert!(d > 1500, "instance starved: {dist:?}");
        }
    }

    #[test]
    fn cluster_ops_roundtrip() {
        let c = cluster(3);
        c.put("x", vec![1].into()).unwrap();
        assert_eq!(c.get("x").unwrap(), Some(vec![1].into()));
        assert!(c.delete("x").unwrap());
        assert_eq!(c.get("x").unwrap(), None);
    }

    #[test]
    fn pscan_unions_instances_sorted() {
        let c = cluster(4);
        let mut keys: Vec<String> = (0..500).map(|i| format!("p/{i:04}")).collect();
        for k in &keys {
            c.put(k, Bytes::new()).unwrap();
        }
        c.put("q/other", Bytes::new()).unwrap();
        let hits = c.pscan("p/").unwrap();
        keys.sort();
        assert_eq!(hits.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(), keys);
    }

    #[test]
    fn failed_instance_errors_only_its_keys() {
        let c = cluster(4);
        for i in 0..2000 {
            c.put(&format!("k/{i}"), Bytes::new()).unwrap();
        }
        c.fail_instance(2);
        let mut down_errors = 0;
        let mut ok = 0;
        for i in 0..2000 {
            match c.get(&format!("k/{i}")) {
                Ok(Some(_)) => ok += 1,
                Err(KvError::InstanceDown { instance: 2 }) => down_errors += 1,
                other => panic!("unexpected: {other:?}"),
            }
        }
        assert!(down_errors > 300, "instance 2 should own a fair share");
        assert_eq!(ok + down_errors, 2000);
        // pscan cannot complete with a down instance.
        assert!(c.pscan("k/").is_err());
        assert_eq!(c.down_instances(), vec![2]);
    }

    #[test]
    fn recovery_brings_instance_back_empty() {
        let c = cluster(2);
        for i in 0..100 {
            c.put(&format!("k/{i}"), vec![1].into()).unwrap();
        }
        let before = c.len();
        c.fail_instance(1);
        c.recover_instance(1);
        assert!(c.down_instances().is_empty());
        let after = c.len();
        assert!(after < before, "recovered instance must come back empty");
        // Writes to the recovered instance work again.
        c.put("fresh", vec![2].into()).unwrap();
        assert_eq!(c.get("fresh").unwrap(), Some(vec![2].into()));
    }

    #[test]
    fn power_loss_clears_everything() {
        let c = cluster(3);
        for i in 0..100 {
            c.put(&format!("k/{i}"), vec![1].into()).unwrap();
        }
        c.fail_instance(0);
        c.power_loss();
        assert_eq!(c.len(), 0);
        assert!(c.down_instances().is_empty(), "power cycle restarts all instances");
    }

    #[test]
    fn mput_batches_per_instance() {
        let c = cluster(4);
        let pairs: Vec<(String, Bytes)> =
            (0..1000).map(|i| (format!("b/{i}"), vec![i as u8].into())).collect();
        c.mput(pairs).unwrap();
        assert_eq!(c.len(), 1000);
        assert_eq!(c.get("b/500").unwrap(), Some(vec![244].into()));
    }

    #[test]
    fn metrics_are_labelled_per_instance_in_one_registry() {
        let c = cluster(4);
        for i in 0..1000 {
            c.put(&format!("m/{i}"), Bytes::new()).unwrap();
            c.get(&format!("m/{i}")).unwrap();
        }
        let snap = c.obs_snapshot().expect("cluster exposes its registry");
        assert_eq!(snap.sum_counter("kv.puts"), 1000);
        assert_eq!(snap.sum_counter("kv.gets"), 1000);
        // Each instance owns a share of the keyspace, so each has its
        // own labelled cell with a non-trivial count.
        for i in 0..4 {
            assert!(snap.counter(&format!("kv.puts{{instance={i}}}")) > 100, "{:?}", snap.counters);
        }
        assert_eq!(snap.gauge("kv.instances"), 4);
        assert_eq!(snap.gauge("kv.qps_ceiling"), 4 * PAPER_QPS_PER_INSTANCE);
    }

    #[test]
    fn failure_injection_moves_the_down_gauge() {
        let c = cluster(3);
        c.fail_instance(1);
        c.fail_instance(1); // idempotent: gauge must not double-count
        assert_eq!(c.registry().snapshot().gauge("kv.instances_down"), 1);
        c.recover_instance(1);
        let snap = c.obs_snapshot().expect("registry");
        assert_eq!(snap.gauge("kv.instances_down"), 0);
    }

    #[test]
    fn mget_reports_misses_as_none() {
        let c = cluster(2);
        c.put("a", vec![1].into()).unwrap();
        let got = c.mget(&["a", "missing"]).unwrap();
        assert_eq!(got, vec![Some(Bytes::from(vec![1])), None]);
    }

    #[test]
    fn mget_batches_per_instance_in_request_order() {
        let c = cluster(4);
        for i in (0..200).step_by(2) {
            c.put(&format!("g/{i}"), vec![i as u8].into()).unwrap();
        }
        let names: Vec<String> = (0..200).rev().map(|i| format!("g/{i}")).collect();
        let keys: Vec<&str> = names.iter().map(String::as_str).collect();
        let got = c.mget(&keys).unwrap();
        let expect: Vec<Option<Bytes>> =
            (0..200u32).rev().map(|i| (i % 2 == 0).then(|| vec![i as u8].into())).collect();
        assert_eq!(got, expect, "index-aligned, misses as None");
        let snap = c.obs_snapshot().expect("cluster exposes its registry");
        let per_instance: Vec<u64> =
            (0..4).map(|i| snap.counter(&format!("kv.gets{{instance={i}}}"))).collect();
        assert!(per_instance.iter().all(|&n| n > 0), "{per_instance:?}");
        assert_eq!(per_instance.iter().sum::<u64>(), 200);
    }

    #[test]
    fn mget_fails_with_the_first_down_owner_in_request_order() {
        let c = cluster(4);
        let names: Vec<String> = (0..64).map(|i| format!("d/{i}")).collect();
        let mut keys: Vec<&str> = names.iter().map(String::as_str).collect();
        // Lead with a key of the highest instance and take instance 0 down
        // too: checking owners in instance order would report 0.
        let lead = keys.iter().position(|k| c.route(k) == 3).unwrap();
        keys.swap(0, lead);
        assert!(keys.iter().any(|k| c.route(k) == 0));
        c.fail_instance(3);
        c.fail_instance(0);
        assert_eq!(c.mget(&keys), Err(KvError::InstanceDown { instance: 3 }));
        let serial: Result<Vec<Option<Bytes>>> = keys.iter().map(|k| c.get(k)).collect();
        assert_eq!(serial, Err(KvError::InstanceDown { instance: 3 }));
    }
}
