//! Multiple DIESEL servers over one storage deployment.
//!
//! Fig. 10a scales metadata throughput by running 1/3/5 DIESEL servers
//! against the same KV cluster and object store — servers are stateless
//! front-ends (all state lives in the KV database and the chunks), so
//! adding one is just adding a process. [`ServerPool`] models that
//! deployment: N [`DieselServer`]s sharing the backing stores, with two
//! load-balancing modes:
//!
//! * connect-time: [`assign`](ServerPool::assign) hands each new client
//!   one server round-robin (the original behavior);
//! * request-time: the pool itself is a `diesel-net`
//!   [`Service`] — every request is routed round-robin across the
//!   servers, with automatic failover past disconnected backends. Use
//!   [`channel`](ServerPool::channel) with
//!   [`DieselClient::connect_channel`](crate::DieselClient::connect_channel).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use diesel_kv::KvStore;
use diesel_net::{BalancedChannel, Channel, Endpoint, Service};
use diesel_obs::{Span, Tracer};
use diesel_store::ObjectStore;

use crate::api::{ServerConn, ServerReply, ServerRequest};
use crate::server::DieselServer;

/// A pool of stateless DIESEL servers over shared backends.
pub struct ServerPool<K, S> {
    servers: Vec<Arc<DieselServer<K, S>>>,
    balance: BalancedChannel<ServerRequest, ServerReply>,
    next: AtomicUsize,
}

impl<K: KvStore + 'static, S: ObjectStore + 'static> ServerPool<K, S> {
    /// Deploy `n` servers over the same KV store and object store.
    pub fn deploy(n: usize, kv: Arc<K>, store: Arc<S>) -> Self {
        assert!(n >= 1, "need at least one server");
        // Part-namespaced tracers keep span/trace ids disjoint across
        // the pool, so a pool-wide drain merges without collisions.
        let servers: Vec<Arc<DieselServer<K, S>>> = (0..n)
            .map(|i| {
                let server = DieselServer::new(kv.clone(), store.clone());
                let tracer = Tracer::new(server.registry()).with_part((i + 1) as u16);
                Arc::new(server.with_tracer(tracer))
            })
            .collect();
        let backends: Vec<Channel<ServerRequest, ServerReply>> =
            servers.iter().enumerate().map(|(i, s)| s.direct_channel(i)).collect();
        ServerPool { servers, balance: BalancedChannel::new(backends), next: AtomicUsize::new(0) }
    }

    /// Number of servers.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// True when the pool is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// The server a new client should connect to (round-robin, the
    /// load-balancing a deployment would do at connect time).
    pub fn assign(&self) -> Arc<DieselServer<K, S>> {
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.servers.len();
        self.servers[i].clone()
    }

    /// A specific server (tests / targeted operations).
    pub fn server(&self, i: usize) -> &Arc<DieselServer<K, S>> {
        &self.servers[i]
    }

    /// The pool as a client connection: each request load-balances
    /// across all servers.
    pub fn channel(self: &Arc<Self>) -> ServerConn {
        self.clone()
    }

    /// One merged observability snapshot for the whole deployment: every
    /// front-end's own `server.*` counters summed together, plus the
    /// *shared* KV and store backends counted exactly once (merging each
    /// server's [`DieselServer::stats_snapshot`] would multiply the
    /// backend counters by the pool size).
    pub fn stats(&self) -> diesel_obs::RegistrySnapshot {
        let mut merged = diesel_obs::RegistrySnapshot::default();
        for s in &self.servers {
            merged.merge(&s.own_snapshot());
        }
        if let Some(first) = self.servers.first() {
            if let Some(kv) = first.meta().kv().obs_snapshot() {
                merged.merge(&kv);
            }
            if let Some(store) = first.store().obs_snapshot() {
                merged.merge(&store);
            }
        }
        merged
    }

    /// The pool-wide Prometheus scrape: the merged [`stats`](Self::stats)
    /// snapshot rendered in text exposition format. Same double-count-free
    /// merge as `stats()`, so backend series appear exactly once.
    pub fn scrape(&self) -> String {
        diesel_obs::render_prometheus(&self.stats())
    }

    /// Drain every front-end's recorded spans into one list, ordered
    /// like a single tracer's drain (by trace id then span id — part
    /// namespacing keeps ids disjoint across servers).
    pub fn drain_trace(&self) -> Vec<Span> {
        let mut spans: Vec<Span> = Vec::new();
        for s in &self.servers {
            spans.extend(s.tracer().drain());
        }
        spans.sort_by_key(|s| (s.trace, s.id));
        spans
    }
}

impl<K: KvStore + 'static, S: ObjectStore + 'static> Service<ServerRequest, ServerReply>
    for ServerPool<K, S>
{
    fn call(&self, req: ServerRequest) -> diesel_net::Result<ServerReply> {
        self.balance.call(req)
    }

    fn endpoint(&self) -> Endpoint {
        self.balance.endpoint()
    }
}

impl<K, S> std::fmt::Debug for ServerPool<K, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerPool").field("servers", &self.servers.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ClientConfig, DieselClient};
    use diesel_chunk::ChunkBuilderConfig;
    use diesel_kv::ShardedKv;
    use diesel_store::MemObjectStore;

    fn pool(n: usize) -> ServerPool<ShardedKv, MemObjectStore> {
        ServerPool::deploy(n, Arc::new(ShardedKv::new()), Arc::new(MemObjectStore::new()))
    }

    #[test]
    fn round_robin_assignment() {
        let p = pool(3);
        assert_eq!(p.len(), 3);
        // Six clients spread 2-2-2 across servers (by Arc identity).
        let mut counts = [0usize; 3];
        for _ in 0..6 {
            let s = p.assign();
            for (i, srv) in (0..3).map(|i| (i, p.server(i))) {
                if Arc::ptr_eq(&s, srv) {
                    counts[i] += 1;
                }
            }
        }
        assert_eq!(counts, [2, 2, 2]);
    }

    #[test]
    fn writes_through_one_server_visible_through_all() {
        // The servers share the KV + store, so they are interchangeable —
        // the statelessness Fig. 10a relies on.
        let p = pool(3);
        let writer = DieselClient::connect_with(
            p.assign(),
            "ds",
            ClientConfig {
                chunk: ChunkBuilderConfig { target_chunk_size: 2048, ..Default::default() },
            },
        );
        for i in 0..40 {
            writer.put(&format!("f{i:02}"), &[i as u8; 100]).unwrap();
        }
        writer.flush().unwrap();

        for i in 0..3 {
            let reader = DieselClient::connect(p.server(i).clone(), "ds");
            reader.download_meta().unwrap();
            assert_eq!(reader.get("f07").unwrap().as_ref(), &vec![7u8; 100][..]);
            assert_eq!(reader.file_list().unwrap().len(), 40);
        }
    }

    #[test]
    fn concurrent_clients_across_servers() {
        let p = Arc::new(pool(5));
        let handles: Vec<_> = (0..10)
            .map(|t| {
                let p = p.clone();
                std::thread::spawn(move || {
                    let c = DieselClient::connect_with(
                        p.assign(),
                        "ds",
                        ClientConfig {
                            chunk: ChunkBuilderConfig {
                                target_chunk_size: 2048,
                                ..Default::default()
                            },
                        },
                    );
                    for i in 0..50 {
                        c.put(&format!("t{t}/f{i}"), &[t as u8; 64]).unwrap();
                    }
                    c.flush().unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let check = DieselClient::connect(p.assign(), "ds");
        check.download_meta().unwrap();
        assert_eq!(check.file_list().unwrap().len(), 500);
        let rec = p.server(0).meta().dataset_record("ds").unwrap();
        assert_eq!(rec.file_count, 500);
    }

    #[test]
    fn stats_request_per_server_and_pool_aggregation() {
        // Three front-ends over one backend: each server's own executor
        // counters are disjoint, every `ServerRequest::Stats` reply merges
        // the shared KV exactly once, and the pool-level aggregate sums
        // the front-ends without multiplying the backend.
        let p = pool(3);
        let writer = DieselClient::connect_with(
            p.server(0).clone(),
            "ds",
            ClientConfig {
                chunk: ChunkBuilderConfig { target_chunk_size: 2048, ..Default::default() },
            },
        );
        for i in 0..12 {
            writer.put(&format!("f{i:02}"), &[i as u8; 100]).unwrap();
        }
        writer.flush().unwrap();

        // Server i serves i+1 file reads — distinct per-node counters.
        for i in 0..3 {
            let reader = DieselClient::connect(p.server(i).clone(), "ds");
            reader.download_meta().unwrap();
            for j in 0..=i {
                reader.get(&format!("f{j:02}")).unwrap();
            }
        }
        for i in 0..3u64 {
            let own = p.server(i as usize).own_snapshot();
            assert_eq!(own.sum_counter("server.file_reads"), i + 1, "server {i} front-end counter");
        }

        // The wire endpoint on each server reports its own front-end
        // counters plus the shared backend, merged into one snapshot.
        let via_rpc =
            p.server(1).handle(crate::api::ServerRequest::Stats).unwrap().into_stats().unwrap();
        assert_eq!(via_rpc.sum_counter("server.file_reads"), 2);
        let backend_puts = via_rpc.sum_counter("kv.puts");
        assert!(backend_puts > 0, "shared KV metrics ride along in the reply");

        // Pool aggregate: front-end counters sum, backend counted once.
        let agg = p.stats();
        assert_eq!(agg.sum_counter("server.file_reads"), 1 + 2 + 3);
        assert_eq!(agg.sum_counter("kv.puts"), backend_puts, "backend must not be multiplied");
    }

    #[test]
    fn pool_channel_spreads_requests_across_servers() {
        // One client, per-request balancing: every server in the pool
        // sees traffic from the same connection.
        let p = Arc::new(pool(3));
        let c: DieselClient<ShardedKv, MemObjectStore> = DieselClient::connect_channel_with(
            p.channel(),
            "ds",
            ClientConfig {
                chunk: ChunkBuilderConfig { target_chunk_size: 2048, ..Default::default() },
            },
        );
        for i in 0..30 {
            c.put(&format!("f{i:02}"), &[i as u8; 120]).unwrap();
        }
        c.flush().unwrap();
        c.download_meta().unwrap();
        for i in 0..30 {
            assert_eq!(c.get(&format!("f{i:02}")).unwrap().as_ref(), &vec![i as u8; 120][..]);
        }
        assert_eq!(c.file_list().unwrap().len(), 30);
        // Round-robin actually rotated: the balance index moved well past
        // the pool size.
        assert_eq!(p.balance.len(), 3);
    }
}
