//! DLCMD — the dataset management tool (§5: "a separate command-line
//! tool (DLCMD, similar to s3cmd in Amazon S3) is provided to write and
//! manage the datasets in DIESEL").
//!
//! These functions are the tool's verbs; the `dlcmd` binary wires them
//! to a CLI.

use std::path::Path;
use std::sync::Arc;

use diesel_kv::KvStore;
use diesel_store::ObjectStore;

use crate::client::DieselClient;
use crate::server::DieselServer;
use crate::{DieselError, Result};

/// Outcome of an import.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImportReport {
    /// Files uploaded.
    pub files: u64,
    /// Bytes uploaded.
    pub bytes: u64,
}

/// `dlcmd put -r <dir> diesel://<dataset>/` — walk a local directory
/// tree and upload every regular file, preserving relative paths.
pub fn import_directory<K: KvStore + 'static, S: ObjectStore + 'static>(
    client: &DieselClient<K, S>,
    root: impl AsRef<Path>,
) -> Result<ImportReport> {
    let root = root.as_ref();
    let mut report = ImportReport::default();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = std::fs::read_dir(&dir)
            .map_err(|e| DieselError::Client(format!("read_dir {dir:?}: {e}")))?;
        // Sort for deterministic chunk packing.
        let mut entries: Vec<_> = entries.filter_map(|e| e.ok()).map(|e| e.path()).collect();
        entries.sort();
        for path in entries {
            if path.is_dir() {
                stack.push(path);
            } else if path.is_file() {
                let rel = path
                    .strip_prefix(root)
                    .map_err(|e| DieselError::Client(e.to_string()))?
                    .to_string_lossy()
                    .replace('\\', "/");
                let data = std::fs::read(&path)
                    .map_err(|e| DieselError::Client(format!("read {path:?}: {e}")))?;
                report.bytes += data.len() as u64;
                report.files += 1;
                client.put(&rel, &data)?;
            }
        }
    }
    client.flush()?;
    Ok(report)
}

/// `dlcmd get -r diesel://<dataset>/ <dir>` — download every file of the
/// dataset into a local directory tree.
pub fn export_directory<K: KvStore + 'static, S: ObjectStore + 'static>(
    client: &DieselClient<K, S>,
    dest: impl AsRef<Path>,
) -> Result<u64> {
    let dest = dest.as_ref();
    let mut count = 0;
    for path in client.file_list()? {
        let data = client.get(&path)?;
        let target = dest.join(&path);
        if let Some(parent) = target.parent() {
            std::fs::create_dir_all(parent)
                .map_err(|e| DieselError::Client(format!("mkdir {parent:?}: {e}")))?;
        }
        std::fs::write(&target, &data)
            .map_err(|e| DieselError::Client(format!("write {target:?}: {e}")))?;
        count += 1;
    }
    Ok(count)
}

/// `dlcmd purge diesel://<dataset>` — compact chunks with deletion holes.
pub fn purge<K: KvStore, S: ObjectStore>(
    server: &DieselServer<K, S>,
    dataset: &str,
    now_ms: u64,
) -> Result<crate::server::PurgeReport> {
    server.purge_dataset(dataset, now_ms)
}

/// `dlcmd du diesel://<dataset>` — dataset usage summary.
pub fn usage<K: KvStore, S: ObjectStore>(
    server: &Arc<DieselServer<K, S>>,
    dataset: &str,
) -> Result<(u64, u64, u64)> {
    let rec = server.meta().dataset_record(dataset)?;
    Ok((rec.chunk_count, rec.file_count, rec.total_bytes))
}

/// The `dataset` label of a canonical metric id (`name{…,dataset=x,…}`),
/// if present.
pub fn dataset_label(id: &str) -> Option<&str> {
    let open = id.find('{')?;
    let inner = id.get(open + 1..)?.strip_suffix('}')?;
    inner.split(',').find_map(|kv| kv.strip_prefix("dataset="))
}

/// `dlcmd stats --dataset <name>` — restrict a stats snapshot to the
/// metrics and events carrying `{dataset=<name>}`. Unlabelled
/// (cluster-wide) metrics are dropped, so the view shows exactly one
/// tenant's slice.
pub fn filter_stats(
    snap: &diesel_obs::RegistrySnapshot,
    dataset: &str,
) -> diesel_obs::RegistrySnapshot {
    let keep = |id: &str| dataset_label(id) == Some(dataset);
    let mut out = diesel_obs::RegistrySnapshot {
        counters: snap
            .counters
            .iter()
            .filter(|(id, _)| keep(id))
            .map(|(k, v)| (k.clone(), *v))
            .collect(),
        gauges: snap
            .gauges
            .iter()
            .filter(|(id, _)| keep(id))
            .map(|(k, v)| (k.clone(), *v))
            .collect(),
        histograms: snap
            .histograms
            .iter()
            .filter(|(id, _)| keep(id))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect(),
        events: Vec::new(),
        dropped_events: snap.dropped_events,
    };
    out.events = snap
        .events
        .iter()
        .filter(|e| e.kv.iter().any(|(k, v)| k == "dataset" && v == dataset))
        .cloned()
        .collect();
    out
}

/// One tenant's line in `dlcmd tenants`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantStatsRow {
    /// Tenant name (the dataset).
    pub dataset: String,
    /// Bytes loaded into the tenant's cache so far.
    pub bytes_loaded: u64,
    /// File reads served through the tenant's cache.
    pub file_reads: u64,
    /// Reads satisfied by a resident chunk.
    pub chunk_hits: u64,
    /// Requests admitted by the server's admission controller.
    pub admitted: u64,
    /// Requests rejected with `Throttled`.
    pub throttled: u64,
}

impl TenantStatsRow {
    /// Cache hit rate over file reads, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.file_reads == 0 {
            0.0
        } else {
            self.chunk_hits as f64 / self.file_reads as f64
        }
    }
}

/// `dlcmd tenants` — collect every dataset that appears as a
/// `{dataset=…}` label anywhere in the snapshot and summarise its
/// cache footprint, hit rate and throttle counts.
pub fn tenant_stats(snap: &diesel_obs::RegistrySnapshot) -> Vec<TenantStatsRow> {
    let mut names: Vec<String> = snap
        .counters
        .keys()
        .chain(snap.gauges.keys())
        .filter_map(|id| dataset_label(id))
        .map(|d| d.to_owned())
        .collect();
    names.sort();
    names.dedup();
    names
        .into_iter()
        .map(|dataset| {
            let c = |name: &str| snap.counter(&format!("{name}{{dataset={dataset}}}"));
            TenantStatsRow {
                bytes_loaded: c("cache.bytes_loaded"),
                file_reads: c("cache.file_reads"),
                chunk_hits: c("cache.chunk_hits"),
                admitted: c("server.tenant.admitted"),
                throttled: c("server.tenant.throttled"),
                dataset,
            }
        })
        .collect()
}

/// One tenant's line in `dlcmd top`: live rates and SLO posture from the
/// flight recorder over one query window.
#[derive(Debug, Clone, PartialEq)]
pub struct TopRow {
    /// Tenant name (the dataset).
    pub dataset: String,
    /// File reads per second served over the window.
    pub qps: f64,
    /// p99 read latency over the window, in nanoseconds (0 = no reads).
    pub p99_ns: u64,
    /// Cache hit rate over the window's file reads, in `[0, 1]`.
    pub hit_rate: f64,
    /// Worst fast-window burn rate across the tenant's objectives
    /// (1.0 = exactly at target).
    pub burn: f64,
    /// True when every objective is in the `Ok` state.
    pub healthy: bool,
}

/// `dlcmd top` — join recorder window queries with the latest SLO
/// reports into one row per tenant, busiest first.
pub fn top_rows(
    recorder: &diesel_obs::FlightRecorder,
    reports: &[diesel_obs::SloReport],
    window_ns: u64,
) -> Vec<TopRow> {
    let mut rows: Vec<TopRow> = reports
        .iter()
        .map(|report| {
            let d = &report.dataset;
            let hits = recorder.delta(&format!("cache.chunk_hits{{dataset={d}}}"), window_ns);
            let cached = recorder.delta(&format!("cache.file_reads{{dataset={d}}}"), window_ns);
            TopRow {
                dataset: d.clone(),
                qps: recorder.rate(&format!("server.file_reads{{dataset={d}}}"), window_ns),
                p99_ns: recorder.percentile_over(
                    &format!("server.read_latency{{dataset={d}}}"),
                    0.99,
                    window_ns,
                ),
                hit_rate: if cached == 0 { 0.0 } else { hits as f64 / cached as f64 },
                burn: report.objectives.iter().map(|o| o.fast_burn).fold(0.0, f64::max),
                healthy: report.healthy(),
            }
        })
        .collect();
    rows.sort_by(|a, b| {
        b.qps
            .partial_cmp(&a.qps)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.dataset.cmp(&b.dataset))
    });
    rows
}

/// Render `dlcmd top` rows as an aligned text table.
pub fn render_top(rows: &[TopRow]) -> String {
    let mut out = String::from("DATASET              QPS     P99_READ   HIT%   BURN  HEALTH\n");
    for r in rows {
        out.push_str(&format!(
            "{:<18} {:>7.1} {:>12} {:>5.1} {:>6.2}  {}\n",
            r.dataset,
            r.qps,
            diesel_obs::fmt_ns(r.p99_ns),
            r.hit_rate * 100.0,
            r.burn,
            if r.healthy { "ok" } else { "BREACH" },
        ));
    }
    out
}

/// Render one tenant's SLO report (`dlcmd slo <dataset>`): one line per
/// objective with both burn windows and the current state.
pub fn render_slo(report: &diesel_obs::SloReport) -> String {
    let mut out = format!(
        "dataset {}: {}\n",
        report.dataset,
        if report.healthy() { "healthy" } else { "BREACHED" }
    );
    for o in &report.objectives {
        out.push_str(&format!(
            "  {:<16} fast_burn={:>7.2} slow_burn={:>7.2}  {}\n",
            o.slo,
            o.fast_burn,
            o.slow_burn,
            match o.state {
                diesel_obs::SloState::Ok => "ok",
                diesel_obs::SloState::Breached => "BREACH",
            },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientConfig;
    use diesel_chunk::ChunkBuilderConfig;
    use diesel_kv::ShardedKv;
    use diesel_store::MemObjectStore;

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("dlcmd-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn import_export_roundtrip() {
        // Build a little tree on disk.
        let src = tempdir("src");
        std::fs::create_dir_all(src.join("a/b")).unwrap();
        std::fs::write(src.join("top.bin"), b"top").unwrap();
        std::fs::write(src.join("a/one.bin"), vec![1u8; 500]).unwrap();
        std::fs::write(src.join("a/b/two.bin"), vec![2u8; 999]).unwrap();

        let server = Arc::new(DieselServer::new(
            Arc::new(ShardedKv::new()),
            Arc::new(MemObjectStore::new()),
        ));
        let client = DieselClient::connect_with(
            server.clone(),
            "ds",
            ClientConfig {
                chunk: ChunkBuilderConfig { target_chunk_size: 1024, ..Default::default() },
            },
        )
        .with_deterministic_identity(1, 1, 100);

        let report = import_directory(&client, &src).unwrap();
        assert_eq!(report.files, 3);
        assert_eq!(report.bytes, 3 + 500 + 999);
        let (chunks, files, bytes) = usage(&server, "ds").unwrap();
        assert_eq!(files, 3);
        assert_eq!(bytes, 1502);
        assert!(chunks >= 2, "1 KB chunks force a split");

        client.download_meta().unwrap();
        assert_eq!(client.get("a/b/two.bin").unwrap().as_ref(), &vec![2u8; 999][..]);

        let dst = tempdir("dst");
        let n = export_directory(&client, &dst).unwrap();
        assert_eq!(n, 3);
        assert_eq!(std::fs::read(dst.join("top.bin")).unwrap(), b"top");
        assert_eq!(std::fs::read(dst.join("a/one.bin")).unwrap(), vec![1u8; 500]);

        let _ = std::fs::remove_dir_all(&src);
        let _ = std::fs::remove_dir_all(&dst);
    }

    #[test]
    fn dataset_label_parses_canonical_ids() {
        assert_eq!(dataset_label("cache.chunk_hits{dataset=imagenet}"), Some("imagenet"));
        assert_eq!(dataset_label("kv.gets{dataset=a,instance=3}"), Some("a"));
        assert_eq!(dataset_label("server.reads"), None);
        assert_eq!(dataset_label("kv.gets{instance=3}"), None);
    }

    #[test]
    fn filter_and_tenant_stats_slice_by_dataset() {
        let reg = diesel_obs::Registry::new(Arc::new(diesel_util::MockClock::new()));
        reg.counter("cache.file_reads", &[("dataset", "a")]).add(10);
        reg.counter("cache.chunk_hits", &[("dataset", "a")]).add(8);
        reg.counter("cache.bytes_loaded", &[("dataset", "a")]).add(4096);
        reg.gauge("server.tenant.qps_ceiling", &[("dataset", "a")]).set(50);
        reg.counter("server.tenant.throttled", &[("dataset", "a")]).add(3);
        reg.counter("cache.file_reads", &[("dataset", "b")]).add(2);
        reg.counter("server.reads", &[]).add(99);
        reg.event("cache.kill_node", &[("dataset", "a"), ("node", "1")]);
        reg.event("cache.kill_node", &[("dataset", "b"), ("node", "0")]);
        let snap = reg.snapshot();

        let only_a = filter_stats(&snap, "a");
        assert_eq!(only_a.counter("cache.file_reads{dataset=a}"), 10);
        assert_eq!(only_a.counter("cache.file_reads{dataset=b}"), 0);
        assert_eq!(only_a.counter("server.reads"), 0, "unlabelled metrics are dropped");
        assert_eq!(only_a.gauge("server.tenant.qps_ceiling{dataset=a}"), 50);
        assert_eq!(only_a.events.len(), 1);

        let rows = tenant_stats(&snap);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].dataset, "a");
        assert_eq!(rows[0].file_reads, 10);
        assert_eq!(rows[0].chunk_hits, 8);
        assert_eq!(rows[0].bytes_loaded, 4096);
        assert_eq!(rows[0].throttled, 3);
        assert!((rows[0].hit_rate() - 0.8).abs() < 1e-9);
        assert_eq!(rows[1].dataset, "b");
        assert_eq!(rows[1].hit_rate(), 0.0);
    }

    #[test]
    fn filter_stats_slices_histograms_and_drops_no_match() {
        let reg = diesel_obs::Registry::new(Arc::new(diesel_util::MockClock::new()));
        reg.histogram("server.read_latency", &[("dataset", "a")]).record_ns(1_000);
        reg.histogram("server.read_latency", &[("dataset", "a")]).record_ns(3_000);
        reg.histogram("server.read_latency", &[("dataset", "b")]).record_ns(9_000);
        reg.histogram("exec.queue_wait", &[]).record_ns(50);
        let snap = reg.snapshot();

        let only_a = filter_stats(&snap, "a");
        assert_eq!(only_a.histograms.len(), 1, "only tenant a's latency series survives");
        let h = only_a.histogram("server.read_latency{dataset=a}").expect("a's histogram kept");
        assert_eq!(h.count(), 2);
        assert!(only_a.histogram("server.read_latency{dataset=b}").is_none());
        assert!(only_a.histogram("exec.queue_wait").is_none(), "unlabelled series dropped");

        // A dataset that appears nowhere filters to an empty view — not
        // an error, and not someone else's metrics.
        let nothing = filter_stats(&snap, "ghost");
        assert!(nothing.counters.is_empty());
        assert!(nothing.gauges.is_empty());
        assert!(nothing.histograms.is_empty());
        assert!(nothing.events.is_empty());
    }

    #[test]
    fn filter_stats_and_prom_renderer_agree_on_label_escaping() {
        // The dataset label travels two paths out of a snapshot: the
        // dlcmd slice (raw metric ids) and the Prometheus renderer
        // (escaped label values). A hostile-but-representable dataset
        // name (quotes, backslashes — `,`/`=` can't appear in a metric
        // id's label values) must round-trip identically through both.
        let hostile = "train\"v2\\final";
        let reg = diesel_obs::Registry::new(Arc::new(diesel_util::MockClock::new()));
        reg.counter("cache.file_reads", &[("dataset", hostile)]).add(7);
        reg.counter("cache.file_reads", &[("dataset", "other")]).add(3);
        let snap = reg.snapshot();

        // dlcmd path: the raw id keeps the literal value.
        let sliced = filter_stats(&snap, hostile);
        assert_eq!(sliced.counters.len(), 1);
        assert_eq!(sliced.counter(&format!("cache.file_reads{{dataset={hostile}}}")), 7);

        // Prometheus path: render the slice, parse it back, and recover
        // the identical literal value through the escape rules.
        let text = diesel_obs::render_prometheus(&sliced);
        let samples = diesel_obs::parse_prometheus(&text).expect("renderer output parses");
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].name, "cache_file_reads");
        assert_eq!(samples[0].label("dataset"), Some(hostile));
        assert_eq!(samples[0].value, 7.0);
    }

    #[test]
    fn top_rows_and_renderers() {
        use diesel_obs::{FlightRecorder, RecorderConfig, SloMonitor, SloTarget};
        let clock = Arc::new(diesel_util::MockClock::new());
        let reg = Arc::new(diesel_obs::Registry::new(clock.clone()));
        let rec = Arc::new(FlightRecorder::new(reg.clone(), RecorderConfig::default()));
        let monitor = SloMonitor::with_windows(
            reg.clone(),
            rec.clone(),
            vec![
                SloTarget { min_hit_rate: Some(0.5), ..SloTarget::new("hot") },
                SloTarget::new("cold"),
            ],
            2_000_000_000,
            4_000_000_000,
        );
        rec.tick();
        for _ in 0..20 {
            reg.counter("server.file_reads", &[("dataset", "hot")]).inc();
            reg.histogram("server.read_latency", &[("dataset", "hot")]).record_ns(2_000_000);
        }
        reg.counter("cache.file_reads", &[("dataset", "hot")]).add(20);
        reg.counter("cache.chunk_hits", &[("dataset", "hot")]).add(15);
        reg.counter("server.file_reads", &[("dataset", "cold")]).inc();
        clock.advance(1_000_000_000);
        rec.tick();
        let reports = monitor.evaluate();

        let rows = top_rows(&rec, &reports, 2_000_000_000);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].dataset, "hot", "busiest tenant sorts first");
        assert!(rows[0].qps > rows[1].qps);
        assert!((rows[0].hit_rate - 0.75).abs() < 1e-9);
        assert_eq!(
            rows[0].p99_ns,
            rec.percentile_over("server.read_latency{dataset=hot}", 0.99, 2_000_000_000,)
        );
        assert!(rows[0].healthy && rows[1].healthy);

        let table = render_top(&rows);
        assert!(table.contains("DATASET"));
        assert!(table.contains("hot"));
        assert!(table.contains("ok"));

        let slo_text = render_slo(reports.iter().find(|r| r.dataset == "hot").unwrap());
        assert!(slo_text.starts_with("dataset hot: healthy"));
        assert!(slo_text.contains("hit_rate"));
    }

    #[test]
    fn import_missing_directory_errors() {
        let server = Arc::new(DieselServer::new(
            Arc::new(ShardedKv::new()),
            Arc::new(MemObjectStore::new()),
        ));
        let client = DieselClient::connect(server, "ds");
        assert!(import_directory(&client, "/definitely/not/here").is_err());
    }
}
