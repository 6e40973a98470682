//! The metric catalogue (`BENCHMARK.json` is checked against it), the
//! result line, and the human-readable tables.

use crate::json::Json;
use crate::stats::Stat;

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name, as printed and as declared.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better, bound: None }
}

/// What a user of the system sees; every workload reports every one.
pub const END_TO_END: [MetricDef; 8] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("read_files_per_s", "1/s", "higher", 0.25),
    e2e("read_mb_per_s", "MB/s", "higher", 0.25),
    e2e("batch_wait_us", "us", "lower", 0.25),
    e2e("stall_share", "ratio", "lower", 0.20),
    e2e("write_files_per_s", "1/s", "higher", 0.25),
    e2e("write_mb_per_s", "MB/s", "higher", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.10),
];

/// Single-layer metrics from the traced run, grouped by module.
pub const PER_LAYER: [MetricDef; 73] = [
    layer("loader.fetch_us_per_batch", "us", "lower"),
    layer("loader.decode_us_per_batch", "us", "lower"),
    layer("loader.epoch_start_ms", "ms", "lower"),
    layer("loader.batch_wait_us_p99", "us", "lower"),
    layer("loader.self_share", "ratio", "lower"),
    layer("shuffle.epoch_plan_ms", "ms", "lower"),
    layer("shuffle.self_share", "ratio", "lower"),
    layer("client.get_ns", "ns", "lower"),
    layer("client.self_ns", "ns", "lower"),
    layer("client.batch_us_p50", "us", "lower"),
    layer("client.batch_us_p99", "us", "lower"),
    layer("client.self_share", "ratio", "lower"),
    layer("meta.stat_ns", "ns", "lower"),
    layer("meta.server_lookup_ns", "ns", "lower"),
    layer("meta.snapshot_ms", "ms", "lower"),
    layer("cache.hit_ns", "ns", "lower"),
    layer("cache.hit_ns_2t", "ns", "lower"),
    layer("cache.fill_ms_per_chunk", "ms", "lower"),
    layer("cache.hit_ratio", "ratio", "higher"),
    layer("cache.chunk_loads", "1/epoch", "lower"),
    layer("cache.bytes_loaded", "MB/epoch", "lower"),
    layer("cache.evictions", "1/epoch", "lower"),
    layer("cache.resident_mb", "MB", "lower"),
    layer("cache.self_share", "ratio", "lower"),
    layer("net.calls", "1/epoch", "lower"),
    layer("net.self_us_per_call", "us", "lower"),
    layer("net.retries", "count", "lower"),
    layer("net.timeouts", "count", "lower"),
    layer("net.self_share", "ratio", "lower"),
    layer("admission.admit_ns", "ns", "lower"),
    layer("admission.queue_wait_us", "us", "lower"),
    layer("admission.queued", "count", "lower"),
    layer("admission.throttled", "count", "lower"),
    layer("server.handle_self_us_per_call", "us", "lower"),
    layer("server.plan_ns_per_file", "ns", "lower"),
    layer("server.files_per_merged_read", "ratio", "higher"),
    layer("server.range_reads_per_batch", "ratio", "lower"),
    layer("server.ingest_ms_per_chunk", "ms", "lower"),
    layer("server.self_share", "ratio", "lower"),
    layer("kv.gets", "1/file", "lower"),
    layer("kv.puts", "1/file", "lower"),
    layer("kv.get_ns", "ns", "lower"),
    layer("kv.put_ns", "ns", "lower"),
    layer("kv.self_share", "ratio", "lower"),
    layer("store.gets", "1/epoch", "lower"),
    layer("store.range_reads", "1/epoch", "lower"),
    layer("store.puts", "1/epoch", "lower"),
    layer("store.bytes_read", "MB/epoch", "lower"),
    layer("store.bytes_written", "MB/epoch", "lower"),
    layer("store.range_span_ratio", "ratio", "lower"),
    layer("store.busy_ms_per_epoch", "ms", "lower"),
    layer("store.self_share", "ratio", "lower"),
    layer("chunk.build_mb_per_s", "MB/s", "higher"),
    layer("chunk.parse_us", "us", "lower"),
    layer("exec.task_us_p50", "us", "lower"),
    layer("exec.queue_depth_max", "count", "lower"),
    layer("exec.pipeline_overhead_ratio", "ratio", "lower"),
    layer("exec.self_share", "ratio", "lower"),
    layer("bench.self_share", "ratio", "lower"),
    layer("unattributed_share", "ratio", "lower"),
    layer("obs.trace_overhead_ratio", "ratio", "higher"),
    layer("obs.traced_wall_ms", "ms", "lower"),
    layer("obs.spans", "count", "lower"),
    layer("obs.spans_dropped", "count", "lower"),
    layer("thread_scaling", "ratio", "higher"),
    layer("store_read_amp", "ratio", "lower"),
    layer("failed_op_ratio", "ratio", "lower"),
    layer("first_batch_ms", "ms", "lower"),
    layer("batch_wait_us_p50", "us", "lower"),
    layer("batch_wait_us_p99", "us", "lower"),
    layer("epochs_measured", "count", "higher"),
    layer("write_cycles_measured", "count", "higher"),
    layer("untraced_read_files_per_s", "1/s", "higher"),
];

/// One run's result: every metric of the mode it ran in.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// `(name, value and sample count)`, in catalogue order.
    pub metrics: Vec<(&'static str, Stat)>,
    /// Operations attempted (file reads + file writes).
    pub attempted: u64,
    /// Operations that failed, were throttled out or mismatched.
    pub failed: u64,
}

impl Outcome {
    /// The value of metric `name`, if reported.
    #[cfg(test)]
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|(_, s)| s.value)
    }

    /// Fill in `catalogue` order from `values`; a metric `values` lacks
    /// reads 0 with no samples.
    pub fn from_values(
        catalogue: &[MetricDef],
        values: &[(&'static str, Stat)],
    ) -> Vec<(&'static str, Stat)> {
        catalogue
            .iter()
            .map(|def| {
                let stat =
                    values.iter().find(|(n, _)| *n == def.name).map_or(Stat::NONE, |(_, s)| *s);
                (def.name, stat)
            })
            .collect()
    }

    /// The contract's result object.
    pub fn result_json(&self, catalogue: &[MetricDef]) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, stat)| {
                let unit = catalogue.iter().find(|d| d.name == *name).map_or("", |d| d.unit);
                let fields = vec![
                    ("value".to_owned(), Json::Num(stat.value)),
                    ("unit".to_owned(), Json::Str(unit.to_owned())),
                ];
                ((*name).to_owned(), Json::Obj(fields))
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.failed == 0)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }

    /// A fixed-width table: name, value, unit, sample count.
    pub fn table(&self, catalogue: &[MetricDef], title: &str) -> String {
        let mut out = format!("== {title} ==\n");
        for (name, stat) in &self.metrics {
            let unit = catalogue.iter().find(|d| d.name == *name).map_or("", |d| d.unit);
            out.push_str(&format!("{name:<34} {:>16.4} {unit:<9} n={}\n", stat.value, stat.n));
        }
        out.push_str(&format!(
            "{:<34} {:>16} {:<9} of {} attempted\n",
            "failed operations", self.failed, "count", self.attempted
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|d| d.name).collect();
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(def.name.len() <= 64 && def.unit.len() <= 16, "{def:?}");
            assert!(def.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(matches!(def.better, "higher" | "lower"));
        }
        assert!(END_TO_END.iter().all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "a metric name is used once");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            metrics: Outcome::from_values(&END_TO_END, &[("setup_s", Stat::one(0.5))]),
            attempted: 10,
            failed: 0,
        };
        let json = outcome.result_json(&END_TO_END);
        let keys: Vec<&str> = json.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = json.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(outcome.value("setup_s"), Some(0.5));
        assert!(json.render().contains(r#""setup_s": {"value": 0.5, "unit": "s"}"#));
    }
}
