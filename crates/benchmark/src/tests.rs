//! Whole-benchmark tests at smoke scale (≈1 % sizes, fixed epoch
//! counts): every workload in both modes, failure accounting, count
//! repeatability, the accounting identity, and `BENCHMARK.json`
//! agreeing with the catalogue the binary prints.

use std::sync::Arc;

use diesel_store::{FaultConfig, FaultyStore, MemObjectStore};

use crate::json::{self, Json};
use crate::report::{MetricDef, Outcome, END_TO_END, PER_LAYER};
use crate::run::{run, run_over, Budget, Plan};
use crate::stack::{Rig, Scale, Workload};

fn plan(workload: Workload, trace: bool) -> Plan {
    Plan { workload, scale: Scale::smoke(), seed: 11, budget: Budget::Epochs(2), trace }
}

fn value(outcome: &Outcome, name: &str) -> f64 {
    outcome.value(name).unwrap_or_else(|| panic!("{name} not reported"))
}

fn names(outcome: &Outcome) -> Vec<&'static str> {
    outcome.metrics.iter().map(|(n, _)| *n).collect()
}

#[test]
fn a_clean_run_fails_nothing_and_reports_every_declared_metric() {
    for workload in Workload::ALL {
        let e2e = run(&plan(workload, false)).unwrap();
        assert_eq!(e2e.failed, 0, "{}: clean run must fail nothing", workload.name());
        assert!(e2e.attempted > 0);
        assert_eq!(names(&e2e), END_TO_END.map(|d| d.name));
        for (name, stat) in &e2e.metrics {
            assert!(
                stat.value.is_finite() && stat.value > 0.0,
                "{name} @ {} is {stat:?}",
                workload.name()
            );
            assert!(stat.n > 0, "{name} reports its sample count");
        }

        let layers = run(&plan(workload, true)).unwrap();
        assert_eq!(layers.failed, 0);
        assert_eq!(names(&layers), PER_LAYER.map(|d| d.name));
        assert_eq!(value(&layers, "failed_op_ratio"), 0.0);
        assert_eq!(value(&layers, "admission.throttled"), 0.0);
        assert_eq!(value(&layers, "obs.spans_dropped"), 0.0);
        assert!(value(&layers, "obs.trace_overhead_ratio") > 0.0);
    }
}

#[test]
fn layer_shares_and_unattributed_sum_to_the_traced_wall_time() {
    for workload in Workload::ALL {
        let layers = run(&plan(workload, true)).unwrap();
        let shares: f64 = PER_LAYER
            .iter()
            .filter(|d| d.name.ends_with(".self_share"))
            .map(|d| value(&layers, d.name))
            .sum();
        let unattributed = value(&layers, "unattributed_share");
        assert!(
            (shares + unattributed - 1.0).abs() < 1e-9,
            "{}: {shares} + {unattributed}",
            workload.name()
        );
        assert!(value(&layers, "obs.traced_wall_ms") > 0.0);
        assert!(
            (-1e-9..0.5).contains(&unattributed),
            "{}: unattributed share {unattributed}",
            workload.name()
        );
    }
}

#[test]
fn each_workload_exercises_the_layers_it_claims_and_bypasses_the_rest() {
    let warm = run(&plan(Workload::WarmGet, true)).unwrap();
    for idle in [
        "net.calls",
        "kv.gets",
        "store.gets",
        "store.range_reads",
        "store.puts",
        "cache.chunk_loads",
    ] {
        assert_eq!(value(&warm, idle), 0.0, "warm_get must not touch {idle}");
    }
    assert_eq!(value(&warm, "cache.hit_ratio"), 1.0);
    assert_eq!(value(&warm, "store_read_amp"), 0.0);
    assert!(value(&warm, "thread_scaling") > 0.0);
    assert!(value(&warm, "cache.hit_ns") > 0.0 && value(&warm, "cache.hit_ns_2t") > 0.0);
    let system = 1.0 - value(&warm, "bench.self_share");
    let hit_path = ["client.self_share", "cache.self_share", "shuffle.self_share"];
    assert!(
        hit_path.iter().map(|n| value(&warm, n)).sum::<f64>() > 0.5 * system,
        "client + cache + shuffle must be the majority of warm_get's own time"
    );

    let constrained = run(&plan(Workload::ConstrainedLoader, true)).unwrap();
    assert!(
        value(&constrained, "cache.chunk_loads") > 0.0
            && value(&constrained, "cache.evictions") > 0.0
    );
    assert!(
        value(&constrained, "store_read_amp") >= 1.0,
        "a quarter-size cache refills every epoch"
    );
    assert!(value(&constrained, "loader.fetch_us_per_batch") > 0.0);
    assert!(value(&constrained, "exec.pipeline_overhead_ratio") > 0.0);

    for workload in [Workload::ServerMerged, Workload::IngestBesideReads] {
        let layers = run(&plan(workload, true)).unwrap();
        for (name, _) in layers.metrics.iter().filter(|(n, _)| n.starts_with("cache.")) {
            assert_eq!(value(&layers, name), 0.0, "{} has no cache: {name}", workload.name());
        }
        // The writer's read-back adds lookups the reader's files do not count.
        assert!(value(&layers, "kv.gets") >= 1.0, "one KV lookup per file read");
        assert!(value(&layers, "store.range_reads") > 0.0 && value(&layers, "net.calls") > 0.0);
    }
    let ingest = run(&plan(Workload::IngestBesideReads, true)).unwrap();
    assert!(value(&ingest, "kv.puts") > 0.0 && value(&ingest, "server.ingest_ms_per_chunk") > 0.0);
    assert!(value(&ingest, "chunk.build_mb_per_s") > 0.0);
    let merged = run(&plan(Workload::ServerMerged, true)).unwrap();
    assert_eq!(value(&merged, "kv.gets"), 1.0, "exactly one KV lookup per file read");
    assert!(
        value(&merged, "net.self_us_per_call") > 0.0 && value(&merged, "admission.admit_ns") > 0.0
    );
}

#[test]
fn bit_flips_in_the_store_show_up_as_failed_operations() {
    let faulty = || {
        let config = FaultConfig { corruption_rate: 0.2, io_error_rate: 0.0, seed: 7 };
        FaultyStore::new(Arc::new(MemObjectStore::new()), config)
    };
    for workload in [Workload::ServerMerged, Workload::ConstrainedLoader] {
        let outcome = run_over(&plan(workload, false), faulty).unwrap();
        assert!(outcome.failed > 0, "{}: corruption must be caught", workload.name());
        assert!(outcome.failed <= outcome.attempted);
        let line = outcome.result_json(&END_TO_END);
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
    }
    let traced = run_over(&plan(Workload::ServerMerged, true), faulty).unwrap();
    assert!(traced.value("failed_op_ratio").is_some_and(|r| r > 0.0));
}

#[test]
fn count_metrics_repeat_exactly_on_single_reader_workloads() {
    const COUNTS: [&str; 9] = [
        "store.gets",
        "store.range_reads",
        "store.puts",
        "store.bytes_read",
        "store.bytes_written",
        "kv.gets",
        "kv.puts",
        "cache.chunk_loads",
        "net.calls",
    ];
    for workload in [Workload::WarmGet, Workload::ServerMerged] {
        let (a, b) = (run(&plan(workload, true)).unwrap(), run(&plan(workload, true)).unwrap());
        for name in COUNTS {
            assert_eq!(value(&a, name), value(&b, name), "{name} @ {}", workload.name());
        }
        assert_eq!(a.attempted, b.attempted);
    }
}

#[test]
fn the_seed_fixes_the_inputs_and_the_shuffle_order() {
    let rig = |seed| {
        Rig::build(Workload::ServerMerged, Scale::smoke(), seed, false, MemObjectStore::new())
            .unwrap()
    };
    let (a, b, c) = (rig(11), rig(11), rig(12));
    assert_eq!(a.data.files, b.data.files);
    assert_ne!(a.data.files, c.data.files);
    let order = |r: &Rig<MemObjectStore>, epoch| r.client.epoch_file_list(r.seed, epoch).unwrap();
    assert_eq!(order(&a, 1), order(&b, 1), "same seed, same epoch: same order");
    assert_ne!(order(&a, 1), order(&a, 2), "another epoch is another shuffle");
    assert_ne!(order(&a, 1), order(&c, 1), "another seed is another shuffle");
}

fn declared(spec: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
    spec.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            let text = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or_default().to_owned();
            (text("name"), text("unit"), text("better"), m.get("bound").and_then(Json::as_f64))
        })
        .collect()
}

fn catalogue(defs: &[MetricDef]) -> Vec<(String, String, String, Option<f64>)> {
    defs.iter().map(|d| (d.name.into(), d.unit.into(), d.better.into(), d.bound)).collect()
}

#[test]
fn benchmark_json_declares_exactly_what_the_binary_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let spec = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));
    assert_eq!(declared(&spec, "end_to_end"), catalogue(&END_TO_END));
    assert_eq!(declared(&spec, "per_layer"), catalogue(&PER_LAYER));
    assert_eq!(spec.get("paths"), Some(&Json::Arr(vec![Json::Str("crates/benchmark".into())])));
    let keys: Vec<&str> = spec.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);
}
