//! The metric registry: named handles and consistent snapshots.
//!
//! # Consistency semantics
//!
//! Handles update raw atomics with `Relaxed` ordering — the hot path
//! takes no lock. Consistency is opt-in and batch-grained:
//!
//! * [`Registry::batch`] runs a closure under the registry's *read*
//!   gate. Any number of batches run concurrently.
//! * [`Registry::snapshot`] takes the *write* gate, so it observes
//!   **all or none** of every `batch` — related counters updated inside
//!   one batch can never tear apart in a snapshot.
//! * Metrics updated outside a batch are only guaranteed to be
//!   monotonic (a snapshot may land between two bare increments).
//!
//! The gate handoff (read-release → write-acquire) establishes the
//! happens-before edge that makes the `Relaxed` stores visible to the
//! snapshot loads.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use diesel_util::{Clock, Mutex, RwLock, SystemClock};

use crate::histogram::{Histogram, Summary};

/// A monotonically increasing counter handle. Cheap to clone; all
/// clones share one cell registered in the [`Registry`].
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A detached counter not registered anywhere (placeholder/testing).
    pub fn detached() -> Self {
        Counter::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A point-in-time value handle (set/add/sub).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtract `n`, saturating at zero.
    pub fn sub(&self, n: u64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(v.saturating_sub(n)));
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A histogram handle. Recording takes the histogram's own mutex — a
/// few nanoseconds uncontended, never the registry gate.
#[derive(Clone, Debug)]
pub struct HistogramHandle(Arc<Mutex<Histogram>>);

impl HistogramHandle {
    /// Record one duration in nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        self.0.lock().record_ns(ns);
    }

    /// Copy out the current histogram.
    pub fn read(&self) -> Histogram {
        self.0.lock().clone()
    }

    /// Point statistics for the samples so far.
    pub fn summary(&self) -> Summary {
        self.0.lock().summary()
    }
}

struct Inner {
    counters: BTreeMap<String, Arc<AtomicU64>>,
    gauges: BTreeMap<String, Arc<AtomicU64>>,
    histograms: BTreeMap<String, Arc<Mutex<Histogram>>>,
}

/// The registry: a namespace of metric cells.
///
/// Metric identity is the full id `name{label=value,…}` with labels
/// sorted by key; requesting the same id twice returns a handle to the
/// same cell.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use diesel_obs::Registry;
///
/// let reg = Registry::new(Arc::new(diesel_util::MockClock::new()));
/// let hits = reg.counter("cache.chunk_hits", &[]);
/// let loads = reg.counter("cache.chunk_loads", &[]);
/// reg.batch(|| {
///     hits.inc();
///     loads.inc();
/// });
/// let snap = reg.snapshot();
/// assert_eq!(snap.counter("cache.chunk_hits"), 1);
/// assert_eq!(snap.counter("cache.chunk_loads"), 1);
/// ```
pub struct Registry {
    clock: Arc<dyn Clock>,
    gate: RwLock<()>,
    inner: Mutex<Inner>,
}

impl Registry {
    /// An empty registry timing against `clock`.
    pub fn new(clock: Arc<dyn Clock>) -> Self {
        // Every serving component builds a registry, so this is the
        // natural choke point to wire the lockdep→obs bridge.
        crate::lockdep::install();
        Registry {
            clock,
            // snapshot() nests gate → inner; the class ranks
            // in crates/lint/src/rules.rs encode the same order.
            gate: RwLock::named("obs.gate", ()),
            inner: Mutex::named(
                "obs.metrics",
                Inner {
                    counters: BTreeMap::new(),
                    gauges: BTreeMap::new(),
                    histograms: BTreeMap::new(),
                },
            ),
        }
    }

    /// The injected time source (for callers that time around calls).
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Counter handle for `name` with static label dimensions.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let id = metric_id(name, labels);
        Counter(self.inner.lock().counters.entry(id).or_default().clone())
    }

    /// Gauge handle for `name` with static label dimensions.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let id = metric_id(name, labels);
        Gauge(self.inner.lock().gauges.entry(id).or_default().clone())
    }

    /// Histogram handle for `name` with static label dimensions.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> HistogramHandle {
        let id = metric_id(name, labels);
        HistogramHandle(self.inner.lock().histograms.entry(id).or_default().clone())
    }

    /// Run `f` atomically with respect to [`snapshot`](Self::snapshot):
    /// a snapshot sees all of the closure's metric updates or none.
    /// Batches do not exclude each other — only snapshots.
    pub fn batch<R>(&self, f: impl FnOnce() -> R) -> R {
        let _gate = self.gate.read();
        f()
    }

    /// A consistent point-in-time copy of every metric. Excludes all
    /// in-flight [`batch`](Self::batch)es.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let _gate = self.gate.write();
        let inner = self.inner.lock();
        let counters =
            inner.counters.iter().map(|(k, c)| (k.clone(), c.load(Ordering::Acquire))).collect();
        let gauges =
            inner.gauges.iter().map(|(k, g)| (k.clone(), g.load(Ordering::Acquire))).collect();
        let histograms = inner
            .histograms
            .iter()
            // diesel-lint: allow(R5) histogram cells are leaf locks taken only under obs.metrics
            .map(|(k, h)| (k.clone(), h.lock().clone()))
            .collect();
        RegistrySnapshot { counters, gauges, histograms }
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new(Arc::new(SystemClock::new()))
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Registry")
            .field("counters", &inner.counters.len())
            .field("gauges", &inner.gauges.len())
            .field("histograms", &inner.histograms.len())
            .finish()
    }
}

/// Canonical metric id: `name{k=v,…}` with labels sorted by key.
fn metric_id(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_owned();
    }
    let mut sorted: Vec<&(&str, &str)> = labels.iter().collect();
    sorted.sort_by_key(|(k, _)| *k);
    let dims: Vec<String> = sorted.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("{name}{{{}}}", dims.join(","))
}

/// True when `id` is `name` itself or a labelled variant `name{…}`.
fn name_matches(id: &str, name: &str) -> bool {
    match id.strip_prefix(name) {
        Some(rest) => rest.is_empty() || rest.starts_with('{'),
        None => false,
    }
}

/// The dotted-prefix section a metric renders under (`net.requests` →
/// `net`).
fn section_of(id: &str) -> &str {
    id.split(['.', '{']).next().unwrap_or(id)
}

/// A point-in-time copy of a [`Registry`]. Mergeable, so aggregating
/// several registries is just `merge` over their snapshots.
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    /// Counter values keyed by full metric id.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values keyed by full metric id.
    pub gauges: BTreeMap<String, u64>,
    /// Full histograms keyed by full metric id (kept whole so merges
    /// stay exact).
    pub histograms: BTreeMap<String, Histogram>,
}

impl RegistrySnapshot {
    /// Counter value for a full metric id; 0 when absent.
    pub fn counter(&self, id: &str) -> u64 {
        self.counters.get(id).copied().unwrap_or(0)
    }

    /// Gauge value for a full metric id; 0 when absent.
    pub fn gauge(&self, id: &str) -> u64 {
        self.gauges.get(id).copied().unwrap_or(0)
    }

    /// Histogram for a full metric id.
    pub fn histogram(&self, id: &str) -> Option<&Histogram> {
        self.histograms.get(id)
    }

    /// Summary for a histogram id (empty summary when absent).
    pub fn histogram_summary(&self, id: &str) -> Summary {
        self.histograms.get(id).map(|h| h.summary()).unwrap_or_default()
    }

    /// Sum of a counter across all its label sets (`name` plus every
    /// `name{…}` variant) — e.g. total KV gets over per-instance cells.
    pub fn sum_counter(&self, name: &str) -> u64 {
        self.counters.iter().filter(|(id, _)| name_matches(id, name)).map(|(_, v)| v).sum()
    }

    /// Fold another snapshot into this one: counters and gauges add,
    /// histograms merge bucket-wise.
    pub fn merge(&mut self, other: &RegistrySnapshot) {
        for (id, v) in &other.counters {
            *self.counters.entry(id.clone()).or_insert(0) += v;
        }
        for (id, v) in &other.gauges {
            *self.gauges.entry(id.clone()).or_insert(0) += v;
        }
        for (id, h) in &other.histograms {
            self.histograms.entry(id.clone()).or_default().merge(h);
        }
    }

    /// Human-readable rendering grouped by leading dotted segment.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut sections: BTreeMap<&str, Vec<String>> = BTreeMap::new();
        for (id, v) in &self.counters {
            sections.entry(section_of(id)).or_default().push(format!("{id:<44} {v}"));
        }
        for (id, v) in &self.gauges {
            sections.entry(section_of(id)).or_default().push(format!("{id:<44} {v} (gauge)"));
        }
        for (id, h) in &self.histograms {
            sections.entry(section_of(id)).or_default().push(format!("{id:<44} {}", h.summary()));
        }
        let mut out = String::new();
        for (section, mut lines) in sections {
            let _ = writeln!(out, "[{section}]");
            lines.sort();
            for line in lines {
                let _ = writeln!(out, "  {line}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diesel_util::MockClock;

    fn registry() -> Registry {
        Registry::new(Arc::new(MockClock::new()))
    }

    #[test]
    fn handles_share_cells_by_id() {
        let reg = registry();
        let a = reg.counter("x.ops", &[]);
        let b = reg.counter("x.ops", &[]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(reg.snapshot().counter("x.ops"), 3);
    }

    #[test]
    fn label_order_does_not_split_cells() {
        let reg = registry();
        let a = reg.counter("net.requests", &[("node", "0"), ("endpoint", "peer")]);
        let b = reg.counter("net.requests", &[("endpoint", "peer"), ("node", "0")]);
        a.inc();
        b.inc();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("net.requests{endpoint=peer,node=0}"), 2);
        assert_eq!(snap.counters.len(), 1);
    }

    #[test]
    fn sum_counter_spans_label_sets() {
        let reg = registry();
        reg.counter("kv.gets", &[("instance", "0")]).add(3);
        reg.counter("kv.gets", &[("instance", "1")]).add(4);
        reg.counter("kv.gets_total", &[]).add(100); // must NOT match "kv.gets"
        let snap = reg.snapshot();
        assert_eq!(snap.sum_counter("kv.gets"), 7);
    }

    #[test]
    fn gauges_set_add_sub() {
        let reg = registry();
        let g = reg.gauge("cache.bytes_resident", &[]);
        g.set(100);
        g.add(50);
        g.sub(200); // saturates
        assert_eq!(g.get(), 0);
        g.set(7);
        assert_eq!(reg.snapshot().gauge("cache.bytes_resident"), 7);
    }

    #[test]
    fn snapshot_is_atomic_with_respect_to_batches() {
        let reg = registry();
        let a = reg.counter("pair.first", &[]);
        let b = reg.counter("pair.second", &[]);
        reg.batch(|| {
            a.inc();
            b.inc();
        });
        let snap = reg.snapshot();
        assert_eq!(snap.counter("pair.first"), snap.counter("pair.second"));
    }

    #[test]
    fn merge_adds_counters_and_histograms() {
        let reg1 = registry();
        let reg2 = registry();
        reg1.counter("server.reads", &[]).add(2);
        reg2.counter("server.reads", &[]).add(3);
        reg1.histogram("server.latency", &[]).record_ns(1_000);
        reg2.histogram("server.latency", &[]).record_ns(9_000);
        let mut total = reg1.snapshot();
        total.merge(&reg2.snapshot());
        assert_eq!(total.counter("server.reads"), 5);
        let s = total.histogram_summary("server.latency");
        assert_eq!(s.count, 2);
        assert_eq!(s.max_ns, 9_000);
    }

    #[test]
    fn render_groups_by_leading_segment() {
        let reg = registry();
        reg.counter("cache.chunk_hits", &[]).inc();
        reg.counter("net.requests", &[("endpoint", "s@0")]).inc();
        reg.histogram("net.latency", &[("endpoint", "s@0")]).record_ns(5_000);
        let text = reg.snapshot().render();
        assert!(text.contains("[cache]"), "{text}");
        assert!(text.contains("[net]"), "{text}");
        assert!(text.contains("cache.chunk_hits"), "{text}");
        assert!(text.contains("net.requests{endpoint=s@0}"), "{text}");
    }
}
