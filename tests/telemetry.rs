//! Telemetry-plane integration (DESIGN.md §15): the flight recorder,
//! SLO monitor and Prometheus exposition driven end to end —
//! deterministically on `MockClock` via the simnet replay, and over the
//! wire via `ServerRequest::Scrape`.
//!
//! ci.sh runs this file under `DIESEL_LOCKDEP=fail`, so the telemetry
//! plane's two new locks (the recorder's frame ring, the monitor's
//! state map) are also witnessed against the registry's lock order on
//! every path exercised here.

use std::sync::Arc;

use diesel_dlt::chunk::ChunkBuilderConfig;
use diesel_dlt::core::{ClientConfig, DieselClient, DieselServer, ServerPool, ServerRequest};
use diesel_dlt::kv::ShardedKv;
use diesel_dlt::obs::{
    parse_prometheus, FlightRecorder, PromSample, RecorderConfig, SloMonitor, SloTarget,
};
use diesel_dlt::simnet::{
    noisy_neighbour_config, run_telemetry, MultiTenantConfig, ServiceModel, SimTime,
    TelemetryConfig, TenantSpec,
};
use diesel_dlt::store::MemObjectStore;

type Server = DieselServer<ShardedKv, MemObjectStore>;

fn small_chunks() -> ClientConfig {
    ClientConfig { chunk: ChunkBuilderConfig { target_chunk_size: 2048, ..Default::default() } }
}

/// Two runs of the same MockClock'd scenario must produce byte-identical
/// recordings — the recorder is part of the replayability contract, not
/// an approximation of it.
#[test]
fn recorder_sessions_are_byte_identical() {
    let cfg = noisy_neighbour_config(true);
    let a = run_telemetry(&cfg);
    let b = run_telemetry(&cfg);
    assert_eq!(a.recording, b.recording);
    assert_eq!(a.scrape, b.scrape);
    assert_eq!(a.transitions, b.transitions);
    // The recording is non-trivial: a header plus many delta frames.
    assert!(a.recording.starts_with("diesel-recorder v1"));
    assert!(a.recording.lines().filter(|l| l.starts_with("frame ")).count() > 10);
}

/// Admission control is the difference between a green and a red light
/// tenant beside a 10× neighbour — the §15 acceptance scenario.
#[test]
fn admission_flips_light_tenant_health() {
    let fair = run_telemetry(&noisy_neighbour_config(true));
    assert!(fair.healthy("light"), "light tenant green under admission");
    assert!(
        !fair.transitions.iter().any(|t| t.dataset == "light"),
        "no SLO transitions at all for the protected tenant"
    );

    let open = run_telemetry(&noisy_neighbour_config(false));
    assert!(!open.healthy("light"), "light tenant red without admission");
    let light: Vec<&str> = open
        .transitions
        .iter()
        .filter(|t| t.dataset == "light")
        .map(|t| t.scope.as_str())
        .collect();
    assert_eq!(light, ["slo.breach"], "exactly one breach, never recovered");
}

/// A bursty neighbour that stops mid-run produces the exact sequence
/// breach → recovered for the light tenant: the fast window burns while
/// the queue is backed up and clears once the backlog drains.
#[test]
fn breach_then_recover_sequence_is_exact() {
    let slo = SimTime::from_millis(20);
    let cfg = TelemetryConfig {
        sim: MultiTenantConfig {
            tenants: vec![
                // Light tenant runs the whole 5 s.
                TenantSpec::new("light", 800.0, 4_000),
                // Heavy neighbour bursts 10× for the first ~2 s only.
                TenantSpec::new("heavy", 8_000.0, 16_000),
            ],
            servers: 4,
            service: ServiceModel::default(),
            slo,
            admission: None,
            seed: 11,
        },
        tick: SimTime::from_millis(250),
        fast_window: SimTime::from_millis(1_000),
        slow_window: SimTime::from_millis(3_000),
        targets: vec![SloTarget { read_p99_ns: Some(slo.as_nanos()), ..SloTarget::new("light") }],
    };
    let out = run_telemetry(&cfg);
    let light: Vec<(&str, &str)> = out
        .transitions
        .iter()
        .filter(|t| t.dataset == "light")
        .map(|t| (t.scope.as_str(), t.slo.as_str()))
        .collect();
    assert_eq!(
        light,
        [("slo.breach", "read_p99"), ("slo.recovered", "read_p99")],
        "exact breach→recover sequence; transitions: {:?}",
        out.transitions
    );
    assert!(out.healthy("light"), "recovered by end of run");
    // And the sequence replays identically.
    assert_eq!(out.transitions, run_telemetry(&cfg).transitions);
}

fn sample<'a>(samples: &'a [PromSample], name: &str, dataset: &str) -> &'a PromSample {
    samples
        .iter()
        .find(|s| s.name == name && s.label("dataset") == Some(dataset))
        .unwrap_or_else(|| panic!("sample {name}{{dataset={dataset}}} missing"))
}

/// `ServerRequest::Scrape` over the wire: the reply is valid Prometheus
/// text whose values agree with the `Stats` snapshot.
#[test]
fn scrape_request_round_trips_over_the_wire() {
    let server: Arc<Server> =
        Arc::new(DieselServer::new(Arc::new(ShardedKv::new()), Arc::new(MemObjectStore::new())));
    let client = DieselClient::connect_with(server.clone(), "ds", small_chunks());
    for i in 0..20 {
        client.put(&format!("f{i:02}"), &[i as u8; 200]).unwrap();
    }
    client.flush().unwrap();
    client.download_meta().unwrap();
    for i in 0..7 {
        client.get(&format!("f{i:02}")).unwrap();
    }

    let text = server.handle(ServerRequest::Scrape).unwrap().into_text().unwrap();
    let samples = parse_prometheus(&text).expect("wire scrape parses");
    assert_eq!(sample(&samples, "server_file_reads", "ds").value, 7.0);

    // The same numbers the Stats snapshot carries.
    let stats = server.handle(ServerRequest::Stats).unwrap().into_stats().unwrap();
    assert_eq!(stats.sum_counter("server.file_reads"), 7);
    // Read latency was recorded per-tenant on the wire path.
    let lat = sample(&samples, "server_read_latency_count", "ds");
    assert_eq!(lat.value, 7.0, "one latency sample per wire read");
}

/// The pool-wide scrape merges front-ends without double-counting the
/// shared backend, exactly like `stats()`.
#[test]
fn pool_scrape_merges_once() {
    let pool = Arc::new(ServerPool::deploy(
        3,
        Arc::new(ShardedKv::new()),
        Arc::new(MemObjectStore::new()),
    ));
    let writer = DieselClient::connect_with(pool.server(0).clone(), "ds", small_chunks());
    for i in 0..12 {
        writer.put(&format!("f{i:02}"), &[i as u8; 100]).unwrap();
    }
    writer.flush().unwrap();
    for i in 0..3 {
        let reader = DieselClient::connect(pool.server(i).clone(), "ds");
        reader.download_meta().unwrap();
        for j in 0..=i {
            reader.get(&format!("f{j:02}")).unwrap();
        }
    }

    let samples = parse_prometheus(&pool.scrape()).expect("pool scrape parses");
    assert_eq!(sample(&samples, "server_file_reads", "ds").value, 6.0, "1+2+3 across front-ends");
    let kv_puts: f64 = samples.iter().filter(|s| s.name == "kv_puts").map(|s| s.value).sum();
    let stats_puts = pool.stats().sum_counter("kv.puts") as f64;
    assert_eq!(kv_puts, stats_puts, "backend counted exactly once");
}

/// A recorder and SLO monitor over a live server's registry see the
/// wire traffic `handle` records.
#[test]
fn deployed_telemetry_records_wire_traffic() {
    let server: Arc<Server> =
        Arc::new(DieselServer::new(Arc::new(ShardedKv::new()), Arc::new(MemObjectStore::new())));
    let rec = Arc::new(FlightRecorder::new(server.registry().clone(), RecorderConfig::default()));
    let monitor = SloMonitor::new(
        server.registry().clone(),
        rec.clone(),
        vec![SloTarget { read_p99_ns: Some(60_000_000_000), ..SloTarget::new("ds") }],
    );
    let client = DieselClient::connect_with(server.clone(), "ds", small_chunks());
    for i in 0..10 {
        client.put(&format!("f{i:02}"), &[i as u8; 100]).unwrap();
    }
    client.flush().unwrap();
    client.download_meta().unwrap();

    rec.tick();
    for i in 0..10 {
        client.get(&format!("f{i:02}")).unwrap();
    }
    rec.tick();
    let window = 60_000_000_000;
    assert_eq!(rec.delta("server.file_reads{dataset=ds}", window), 10);
    assert!(rec.percentile_over("server.read_latency{dataset=ds}", 0.99, window) > 0);
    let report = monitor.evaluate().into_iter().find(|r| r.dataset == "ds").expect("report for ds");
    assert!(report.healthy(), "a 60 s p99 target cannot burn on an in-memory read");
}
