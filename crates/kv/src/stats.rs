//! Operation metrics for KV instances, backed by `diesel-obs`.
//!
//! Counters are registry cells updated with relaxed atomics: they feed
//! throughput reports, not synchronization. Inside a [`crate::KvCluster`]
//! every instance shares one registry and rides an `{instance=N}` label,
//! so a single snapshot shows both the per-instance spread and (via
//! [`diesel_obs::RegistrySnapshot::sum_counter`]) cluster totals.

use diesel_obs::{Counter, Registry};

/// Counter handles for one KV instance (`kv.gets` … `kv.scans`).
/// Cheap to clone; clones share the registry cells.
#[derive(Clone, Debug)]
pub struct KvMetrics {
    gets: Counter,
    puts: Counter,
    deletes: Counter,
    scans: Counter,
}

impl KvMetrics {
    /// Handles in `registry`, dimensioned by `labels` (e.g.
    /// `[("instance", "3")]` inside a cluster).
    pub fn new(registry: &Registry, labels: &[(&str, &str)]) -> Self {
        KvMetrics {
            gets: registry.counter("kv.gets", labels),
            puts: registry.counter("kv.puts", labels),
            deletes: registry.counter("kv.deletes", labels),
            scans: registry.counter("kv.scans", labels),
        }
    }

    /// Count `n` key reads: one per `get`, one per key of an `mget`.
    pub(crate) fn record_gets(&self, n: u64) {
        self.gets.add(n);
    }
    pub(crate) fn record_put(&self) {
        self.puts.inc();
    }
    pub(crate) fn record_delete(&self) {
        self.deletes.inc();
    }
    pub(crate) fn record_scan(&self) {
        self.scans.inc();
    }

    /// Number of keys read by `get` and `mget` (including misses).
    pub fn gets(&self) -> u64 {
        self.gets.get()
    }

    /// Number of `put`/`update` calls.
    pub fn puts(&self) -> u64 {
        self.puts.get()
    }

    /// Number of `delete` calls.
    pub fn deletes(&self) -> u64 {
        self.deletes.get()
    }

    /// Number of `pscan` calls.
    pub fn scans(&self) -> u64 {
        self.scans.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn records_flow_into_the_registry() {
        let reg = Registry::new(Arc::new(diesel_util::MockClock::new()));
        let m = KvMetrics::new(&reg, &[("instance", "0")]);
        m.record_gets(1);
        m.record_gets(1);
        m.record_put();
        m.record_scan();
        m.record_delete();
        assert_eq!(m.gets(), 2);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("kv.gets{instance=0}"), 2);
        assert_eq!(snap.sum_counter("kv.puts"), 1);
    }
}
