//! Multi-tenant ownership of the cache plane (DESIGN.md §14).
//!
//! DIESEL's failure-containment pillar (§4.2) is *per-dataset* task
//! caches; a shared serving fleet therefore hosts many of them at once.
//! [`TenantCacheMap`] is the registry of record for that arrangement:
//! one [`TaskCache`] per tenant (tenant ≡ dataset name), all over the
//! same node plane and backing store, with the node byte budget
//! partitioned across tenants by **weighted shares with a hard cap** —
//! tenant A filling or churning its cache can never evict tenant B's
//! residency, because A's `TaskCache` evicts only against A's own
//! budget.
//!
//! Budgets are re-partitioned on every register: each tenant
//! gets `node_budget × weight / Σweights` bytes per node, applied via
//! [`TaskCache::set_capacity_bytes_per_node`] (which shrinks residency
//! synchronously, so a cap is never violated by bytes installed under
//! an older, larger share).
//!
//! Lock order: the tenant map's `tenants` RwLock ranks *below* every
//! `TaskCache` lock (`LOCK_RANKS` in diesel-lint), but the map never
//! holds its guard across a cache call — entries are cloned out first,
//! so the guard is leaf-only in practice.

use std::collections::BTreeMap;
use std::sync::Arc;

use diesel_chunk::ChunkId;
use diesel_exec::WorkPool;
use diesel_obs::Registry;
use diesel_store::ObjectStore;
use diesel_util::RwLock;

use crate::task_cache::{CacheConfig, CachePolicy, TaskCache};
use crate::topology::Topology;
use crate::{CacheError, Result};

struct TenantEntry<S> {
    cache: Arc<TaskCache<S>>,
    weight: u64,
}

/// Point-in-time accounting for one tenant (see
/// [`TenantCacheMap::usage`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantUsage {
    /// The tenant (dataset name).
    pub dataset: String,
    /// Fair-share weight.
    pub weight: u64,
    /// Hard per-node byte cap currently assigned.
    pub budget_bytes_per_node: u64,
    /// Bytes resident across all nodes.
    pub resident_bytes: u64,
    /// File reads served.
    pub file_reads: u64,
    /// Reads whose chunk was already resident.
    pub chunk_hits: u64,
    /// Chunks evicted for capacity.
    pub evictions: u64,
}

/// One `TaskCache` per tenant over a shared node plane, with weighted
/// per-tenant byte budgets carved out of the node byte budget.
pub struct TenantCacheMap<S> {
    topology: Topology,
    backing: Arc<S>,
    /// Total per-node byte budget shared by all tenants.
    node_budget_bytes: u64,
    policy: CachePolicy,
    registry: Arc<Registry>,
    pool: WorkPool,
    tenants: RwLock<BTreeMap<String, TenantEntry<S>>>,
}

impl<S: ObjectStore + 'static> TenantCacheMap<S> {
    /// A tenant map over `topology`/`backing` with `node_budget_bytes`
    /// of cache memory per node to share, and a private registry.
    pub fn new(
        topology: Topology,
        backing: Arc<S>,
        node_budget_bytes: u64,
        policy: CachePolicy,
    ) -> Self {
        Self::with_registry(topology, backing, node_budget_bytes, policy, Arc::default())
    }

    /// A tenant map whose tenants all register their `{dataset=…}`
    /// labelled counters in one shared `registry`.
    pub fn with_registry(
        topology: Topology,
        backing: Arc<S>,
        node_budget_bytes: u64,
        policy: CachePolicy,
        registry: Arc<Registry>,
    ) -> Self {
        TenantCacheMap {
            topology,
            backing,
            node_budget_bytes,
            policy,
            registry,
            pool: diesel_exec::global().clone(),
            tenants: RwLock::named("cache.tenant_map", BTreeMap::new()),
        }
    }

    /// Run every tenant cache's sweeps on `pool` (e.g. an inline pool
    /// for deterministic tests).
    pub fn with_pool(mut self, pool: WorkPool) -> Self {
        self.pool = pool;
        self
    }

    /// The shared registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The total per-node byte budget being partitioned.
    pub fn node_budget_bytes(&self) -> u64 {
        self.node_budget_bytes
    }

    /// Register `dataset` as a tenant with fair-share `weight` (≥ 1) and
    /// build its cache over the shared plane. Re-partitions every
    /// tenant's budget. Errors on a duplicate registration or a zero
    /// weight.
    pub fn register(
        &self,
        dataset: impl Into<String>,
        chunks: Vec<ChunkId>,
        weight: u64,
    ) -> Result<Arc<TaskCache<S>>> {
        let dataset = dataset.into();
        if weight == 0 {
            return Err(CacheError::InvalidMembership(format!(
                "tenant {dataset}: weight must be >= 1"
            )));
        }
        let cache = Arc::new(
            TaskCache::with_registry(
                self.topology.clone(),
                Arc::clone(&self.backing),
                dataset.clone(),
                chunks,
                CacheConfig {
                    capacity_bytes_per_node: self.node_budget_bytes,
                    policy: self.policy,
                },
                Arc::clone(&self.registry),
            )?
            .with_pool(self.pool.clone()),
        );
        {
            let mut t = self.tenants.write();
            if t.contains_key(&dataset) {
                return Err(CacheError::InvalidMembership(format!(
                    "tenant {dataset} already registered"
                )));
            }
            t.insert(dataset.clone(), TenantEntry { cache: Arc::clone(&cache), weight });
        }
        self.registry.event(
            "cache.tenant.registered",
            &[("dataset", &dataset), ("weight", &weight.to_string())],
        );
        self.repartition();
        Ok(cache)
    }

    /// The cache serving `dataset`, if registered.
    pub fn get(&self, dataset: &str) -> Option<Arc<TaskCache<S>>> {
        self.tenants.read().get(dataset).map(|e| Arc::clone(&e.cache))
    }

    /// Registered tenants, sorted.
    pub fn tenants(&self) -> Vec<String> {
        self.tenants.read().keys().cloned().collect()
    }

    /// The hard per-node byte cap currently assigned to `dataset`.
    pub fn budget_of(&self, dataset: &str) -> Option<u64> {
        self.tenants.read().get(dataset).map(|e| e.cache.capacity_bytes_per_node())
    }

    /// Per-tenant accounting (dataset order).
    pub fn usage(&self) -> Vec<TenantUsage> {
        let entries: Vec<(String, u64, Arc<TaskCache<S>>)> = {
            let t = self.tenants.read();
            t.iter().map(|(ds, e)| (ds.clone(), e.weight, Arc::clone(&e.cache))).collect()
        };
        entries
            .into_iter()
            .map(|(dataset, weight, cache)| {
                let nodes = 0..cache.topology().node_count();
                let resident_bytes = nodes.map(|n| cache.node_resident_bytes(n)).sum();
                let m = cache.metrics();
                TenantUsage {
                    dataset,
                    weight,
                    budget_bytes_per_node: cache.capacity_bytes_per_node(),
                    resident_bytes,
                    file_reads: m.file_reads(),
                    chunk_hits: m.chunk_hits(),
                    evictions: m.evictions(),
                }
            })
            .collect()
    }

    /// Recompute every tenant's weighted share of the node budget and
    /// apply it as that tenant's hard cap. Shares are
    /// `node_budget × weight / Σweights`, so they always sum to at most
    /// the node budget — the plane as a whole can never over-commit.
    fn repartition(&self) {
        let entries: Vec<(String, u64, Arc<TaskCache<S>>)> = {
            let t = self.tenants.read();
            t.iter().map(|(ds, e)| (ds.clone(), e.weight, Arc::clone(&e.cache))).collect()
        };
        let total_weight: u64 = entries.iter().map(|(_, w, _)| *w).sum();
        if total_weight == 0 {
            return;
        }
        for (dataset, weight, cache) in entries {
            let share =
                ((self.node_budget_bytes as u128 * weight as u128) / total_weight as u128) as u64;
            cache.set_capacity_bytes_per_node(share);
            self.registry.gauge("cache.tenant.budget_bytes", &[("dataset", &dataset)]).set(share);
            self.registry.gauge("cache.tenant.weight", &[("dataset", &dataset)]).set(weight);
        }
    }
}

impl<S> std::fmt::Debug for TenantCacheMap<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantCacheMap")
            .field("tenants", &self.tenants.read().len())
            .field("node_budget_bytes", &self.node_budget_bytes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diesel_chunk::{ChunkBuilderConfig, ChunkIdGenerator, ChunkWriter};
    use diesel_kv::ShardedKv;
    use diesel_meta::recovery::chunk_object_key;
    use diesel_meta::{FileMeta, MetaService};
    use diesel_store::MemObjectStore;

    /// Write `files` small files for `dataset` into `store` as chunks;
    /// returns the file metas and chunk ids. `seed` keeps chunk ids
    /// distinct across tenants.
    fn seed_dataset(
        store: &Arc<MemObjectStore>,
        dataset: &str,
        files: usize,
        seed: u64,
    ) -> (Vec<FileMeta>, Vec<ChunkId>) {
        let svc = MetaService::new(Arc::new(ShardedKv::new()));
        let ids = ChunkIdGenerator::deterministic(seed, seed as u32, 100);
        let cfg = ChunkBuilderConfig { target_chunk_size: 2048, ..Default::default() };
        let mut w = ChunkWriter::new(cfg, &ids).with_clock(|| 1);
        for i in 0..files {
            w.add_file(&format!("f{i:04}"), &[(i % 251) as u8; 200]).unwrap();
        }
        for sealed in w.finish() {
            svc.ingest_chunk(dataset, &sealed.header, sealed.bytes.len() as u64).unwrap();
            store.put(&chunk_object_key(dataset, sealed.header.id), sealed.bytes).unwrap();
        }
        let snap = svc.build_snapshot(dataset).unwrap();
        (snap.files.iter().map(|f| f.meta).collect(), snap.chunks)
    }

    fn plane(budget: u64) -> (Arc<MemObjectStore>, TenantCacheMap<MemObjectStore>) {
        let store = Arc::new(MemObjectStore::new());
        let map = TenantCacheMap::new(
            Topology::uniform(2, 2).unwrap(),
            Arc::clone(&store),
            budget,
            CachePolicy::OnDemand,
        )
        .with_pool(WorkPool::inline("tenant-test"));
        (store, map)
    }

    #[test]
    fn budgets_partition_by_weight_and_repartition_on_register() {
        let (store, map) = plane(90_000);
        let (_, a_chunks) = seed_dataset(&store, "a", 10, 1);
        let (_, b_chunks) = seed_dataset(&store, "b", 10, 2);
        map.register("a", a_chunks, 2).unwrap();
        assert_eq!(map.budget_of("a"), Some(90_000));
        map.register("b", b_chunks, 1).unwrap();
        assert_eq!(map.budget_of("a"), Some(60_000));
        assert_eq!(map.budget_of("b"), Some(30_000));
        assert_eq!(map.tenants(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn duplicate_and_zero_weight_registrations_are_rejected() {
        let (store, map) = plane(1 << 20);
        let (_, chunks) = seed_dataset(&store, "a", 4, 1);
        map.register("a", chunks.clone(), 1).unwrap();
        assert!(matches!(
            map.register("a", chunks.clone(), 1),
            Err(CacheError::InvalidMembership(_))
        ));
        assert!(matches!(map.register("z", chunks, 0), Err(CacheError::InvalidMembership(_))));
    }

    #[test]
    fn tenant_a_churn_never_evicts_tenant_b() {
        // Budget fits both tenants' data comfortably; each gets half.
        let (store, map) = plane(1 << 20);
        let (a_metas, a_chunks) = seed_dataset(&store, "a", 40, 1);
        let (b_metas, b_chunks) = seed_dataset(&store, "b", 40, 2);
        let a = map.register("a", a_chunks, 1).unwrap();
        let b = map.register("b", b_chunks, 1).unwrap();
        for m in &b_metas {
            b.get_file(m).unwrap();
        }
        let resident = |c: &TaskCache<MemObjectStore>| -> u64 {
            (0..c.topology().node_count()).map(|n| c.node_resident_bytes(n)).sum()
        };
        let b_resident = resident(&b);
        assert!(b_resident > 0);
        // Tenant A hammers its cache (fills everything, repeatedly).
        for _ in 0..3 {
            for m in &a_metas {
                a.get_file(m).unwrap();
            }
        }
        // B's residency and hit path are untouched: A evicts only
        // against A's own budget.
        assert_eq!(b_resident, resident(&b));
        assert_eq!(b.metrics().evictions(), 0);
    }

    #[test]
    fn shrinking_a_share_evicts_synchronously() {
        let (store, map) = plane(1 << 20);
        let (a_metas, a_chunks) = seed_dataset(&store, "a", 40, 1);
        let a = map.register("a", a_chunks, 1).unwrap();
        for m in &a_metas {
            a.get_file(m).unwrap();
        }
        let nodes = 0..a.topology().node_count();
        assert!(nodes.map(|n| a.node_resident_bytes(n)).sum::<u64>() > 0);
        // A heavy new tenant squeezes A's share down to a sliver; A's
        // residency must shrink under the new cap immediately.
        let (_, b_chunks) = seed_dataset(&store, "b", 4, 2);
        map.register("b", b_chunks, 255).unwrap();
        let cap = map.budget_of("a").unwrap();
        for n in 0..a.topology().node_count() {
            assert!(a.node_resident_bytes(n) <= cap);
        }
    }

    #[test]
    fn usage_reports_per_tenant_accounting() {
        let (store, map) = plane(1 << 20);
        let (a_metas, a_chunks) = seed_dataset(&store, "a", 8, 1);
        let (_, b_chunks) = seed_dataset(&store, "b", 8, 2);
        let a = map.register("a", a_chunks, 3).unwrap();
        map.register("b", b_chunks, 1).unwrap();
        for m in &a_metas {
            a.get_file(m).unwrap();
        }
        let usage = map.usage();
        assert_eq!(usage.len(), 2);
        assert_eq!(usage[0].dataset, "a");
        assert_eq!(usage[0].weight, 3);
        assert_eq!(usage[0].file_reads, a_metas.len() as u64);
        assert!(usage[0].resident_bytes > 0);
        assert_eq!(usage[1].dataset, "b");
        assert_eq!(usage[1].file_reads, 0);
        assert_eq!(usage[1].resident_bytes, 0);
    }
}
