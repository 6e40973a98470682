//! Cross-layer RPC integration: a libDIESEL client talking to a
//! DIESEL server over the real `diesel-net` stack — serving thread,
//! retry, and per-endpoint stats — instead of direct in-process
//! dispatch. The paper runs this boundary over Thrift; here every
//! transport failure mode is driven deterministically.

use std::sync::Arc;

use diesel_dlt::chunk::ChunkBuilderConfig;
use diesel_dlt::core::{
    ClientConfig, DieselClient, DieselError, DieselServer, ServerReply, ServerRequest,
};
use diesel_dlt::kv::ShardedKv;
use diesel_dlt::net::{
    Channel, Endpoint, EndpointMetrics, Instrumented, NetError, Retry, RetryPolicy, ThreadServer,
};
use diesel_dlt::obs::Registry;
use diesel_dlt::store::MemObjectStore;
use diesel_util::clock::SystemClock;

type Server = DieselServer<ShardedKv, MemObjectStore>;

fn server() -> Arc<Server> {
    Arc::new(DieselServer::new(Arc::new(ShardedKv::new()), Arc::new(MemObjectStore::new())))
}

fn small_chunks() -> ClientConfig {
    ClientConfig { chunk: ChunkBuilderConfig { target_chunk_size: 2048, ..Default::default() } }
}

/// Wrap a server in a serving thread and return the full client-side
/// stack: Retry(Instrumented(ThreadChannel)).
fn serve(
    srv: Arc<Server>,
    node: usize,
    registry: &Registry,
) -> (ThreadServer<ServerRequest, ServerReply>, Channel<ServerRequest, ServerReply>) {
    let thread = ThreadServer::spawn(Endpoint::new("server", node), move |req| srv.handle(req));
    let clock = Arc::new(SystemClock::new());
    let metrics = EndpointMetrics::new(registry, thread.endpoint());
    let measured = Instrumented::new(thread.channel(), metrics, clock.clone());
    let chan: Channel<ServerRequest, ServerReply> =
        Arc::new(Retry::new(measured, RetryPolicy::default(), clock));
    (thread, chan)
}

#[test]
fn full_client_api_over_thread_transport() {
    let srv = server();
    let registry = Registry::default();
    let (thread, chan) = serve(srv.clone(), 0, &registry);
    let c: DieselClient<ShardedKv, MemObjectStore> =
        DieselClient::connect_channel_with(chan, "ds", small_chunks());

    // Write path: every chunk ships over the serving thread.
    for i in 0..30 {
        c.put(&format!("cls{}/img{i:03}", i % 3), &[i as u8; 150]).unwrap();
    }
    c.flush().unwrap();

    // Metadata + read path, all RPC.
    c.download_meta().unwrap();
    assert_eq!(c.file_list().unwrap().len(), 30);
    assert_eq!(c.stat("cls0/img000").unwrap().length, 150);
    assert_eq!(c.ls("cls1").unwrap().len(), 10);
    for i in 0..30 {
        let name = format!("cls{}/img{i:03}", i % 3);
        assert_eq!(c.get(&name).unwrap().as_ref(), &vec![i as u8; 150][..], "{name}");
    }
    c.delete("cls0/img000").unwrap();
    assert!(c.get("cls0/img000").is_err());

    // The endpoint accounted for every round trip, with no failures.
    let snap = registry.snapshot();
    let requests = snap.counter("net.requests{endpoint=server@0}");
    // 30 ReadByMeta + chunk ships + snapshot + delete; stat/ls are
    // answered from the local snapshot without an RPC.
    assert!(requests >= 33, "expected ≥ 33 RPCs, saw {requests}");
    assert_eq!(snap.counter("net.errors{endpoint=server@0}"), 0);
    assert_eq!(snap.counter("net.retries{endpoint=server@0}"), 0);
    assert_eq!(snap.histogram_summary("net.latency{endpoint=server@0}").count, requests);

    drop(thread);
}

#[test]
fn killed_server_surfaces_as_net_error() {
    let srv = server();
    let registry = Registry::default();
    let (thread, chan) = serve(srv.clone(), 3, &registry);
    let c: DieselClient<ShardedKv, MemObjectStore> =
        DieselClient::connect_channel_with(chan, "ds", small_chunks());
    c.put("a", b"payload").unwrap();
    c.flush().unwrap();

    drop(thread);
    let err = c.flush_probe();
    assert_eq!(
        err,
        DieselError::Net(NetError::Disconnected { endpoint: Endpoint::new("server", 3) })
    );
}

// -- helper: probe a transport failure without panicking mid-API ------

trait FlushProbe {
    fn flush_probe(&self) -> DieselError;
}

impl FlushProbe for DieselClient<ShardedKv, MemObjectStore> {
    fn flush_probe(&self) -> DieselError {
        self.put("probe", b"x").unwrap();
        self.flush().unwrap_err()
    }
}
