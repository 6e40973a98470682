//! Telemetry integration (DESIGN.md §15): the flight recorder, SLO
//! monitor and Prometheus exposition `dlcmd top/slo/scrape` use, driven
//! by a live server — deterministically on `MockClock`, and over the
//! wire via `ServerRequest::Scrape`.
//!
//! ci.sh runs this file under `DIESEL_LOCKDEP=fail`, so the recorder's
//! frame ring and the monitor's state map are also witnessed against
//! the registry's lock order on every path exercised here.

use std::sync::Arc;

use diesel_dlt::chunk::ChunkBuilderConfig;
use diesel_dlt::core::{ClientConfig, DieselClient, DieselServer, ServerRequest};
use diesel_dlt::exec::WorkPool;
use diesel_dlt::kv::ShardedKv;
use diesel_dlt::obs::{
    parse_prometheus, FlightRecorder, PromSample, RecorderConfig, Registry, SloMonitor, SloTarget,
};
use diesel_dlt::store::MemObjectStore;
use diesel_util::MockClock;

type Server = DieselServer<ShardedKv, MemObjectStore>;

fn small_chunks() -> ClientConfig {
    ClientConfig { chunk: ChunkBuilderConfig { target_chunk_size: 2048, ..Default::default() } }
}

/// Two identical MockClock'd sessions against a live server record
/// byte-identical flight recordings — the recorder is part of the
/// replayability contract, not an approximation of it.
#[test]
fn recorder_sessions_are_byte_identical() {
    let session = || {
        let clock = Arc::new(MockClock::new());
        let registry = Arc::new(Registry::new(clock.clone()));
        let server: Arc<Server> = Arc::new(
            DieselServer::with_registry(
                Arc::new(ShardedKv::new()),
                Arc::new(MemObjectStore::new()),
                registry.clone(),
            )
            .with_pool(WorkPool::inline("telemetry")),
        );
        let rec = FlightRecorder::new(registry, RecorderConfig::default());
        let client = DieselClient::connect_with(server, "ds", small_chunks())
            .with_deterministic_identity(1, 1, 100);
        for i in 0..20 {
            client.put(&format!("f{i:02}"), &[i as u8; 200]).unwrap();
        }
        client.flush().unwrap();
        client.download_meta().unwrap();
        for tick in 0..12 {
            for i in 0..=tick {
                client.get(&format!("f{i:02}")).unwrap();
            }
            clock.advance(250_000_000);
            rec.tick();
        }
        rec.encode()
    };
    let a = session();
    assert_eq!(a, session());
    // The recording is non-trivial: a header plus a delta frame per tick.
    assert!(a.starts_with("diesel-recorder v1"));
    assert_eq!(a.lines().filter(|l| l.starts_with("frame ")).count(), 12);
    assert!(a.contains("server.file_reads{dataset=ds}"), "{a}");
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
