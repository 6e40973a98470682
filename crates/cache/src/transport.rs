//! The RPC front of the task cache: peers exchange data over `diesel-net`.
//!
//! The real DIESEL uses Apache Thrift between clients ("Peers in the
//! task-grained distributed caching system also use Thrift to exchange
//! data", §5). This module is the in-process equivalent, and it is only
//! a *front*: one [`TaskCache`] core owns membership, residency, the
//! byte budget, store loading and rebalance, and an [`RpcCache`] puts
//! one `diesel-net` [`ThreadServer`] per member node in front of it.
//! A peer's handler serves [`PeerRequest::FetchFile`] by calling
//! [`TaskCache::get_file_routed`] for its own node, so a remote read
//! gets exactly the shared-memory read's route validation
//! ([`CacheError::StaleOwner`] on an outdated epoch), fill, handoff and
//! eviction behaviour — there is no second implementation to keep in
//! step. Deadlines, retries, fault injection and per-endpoint stats all
//! come from `diesel-net` middleware; this module only maps transport
//! failures to cache semantics ([`CacheError::NodeDown`] with the
//! *correct* node id) and spawns or retires peer threads as the core's
//! membership changes (DESIGN.md §13).

use std::collections::HashMap;
use std::sync::Arc;

use diesel_chunk::ChunkId;
use diesel_meta::FileMeta;
use diesel_net::{
    Channel, Clock, Endpoint, EndpointMetrics, FaultChannel, FaultPolicy, Instrumented, Retry,
    RetryPolicy, Service, SystemClock, ThreadServer,
};
use diesel_obs::Registry;
use diesel_store::{Bytes, ObjectStore};

use crate::partition::ChunkPartition;
use crate::task_cache::{retry_stale, CacheConfig, RebalanceReport, TaskCache};
use crate::topology::Topology;
use crate::{CacheError, Result};

/// A fetch request to a peer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PeerRequest {
    /// Read one file out of a chunk the peer owned at membership
    /// `epoch` (the caller's routing decision, validated by the peer).
    FetchFile {
        /// The file to read.
        meta: FileMeta,
        /// The epoch the caller resolved the peer as owner under.
        epoch: u64,
    },
}

/// A peer's application-level reply (transport errors live in
/// [`diesel_net::NetError`], below this layer).
pub type PeerReply = Result<Bytes>;

/// A connection to one peer (clone per client; channels are MPMC).
#[derive(Clone)]
pub struct PeerHandle {
    node: usize,
    chan: Channel<PeerRequest, PeerReply>,
}

impl PeerHandle {
    /// Wrap an arbitrary channel (possibly layered with retry, fault
    /// injection or stats middleware) as a connection to `node`.
    pub fn new(node: usize, chan: Channel<PeerRequest, PeerReply>) -> Self {
        PeerHandle { node, chan }
    }

    /// The node this handle connects to.
    pub fn node(&self) -> usize {
        self.node
    }

    /// Fetch a file from the peer (one hop, blocking), routed under
    /// `epoch`. A transport failure is the peer being down.
    pub fn fetch_file(&self, meta: &FileMeta, epoch: u64) -> Result<Bytes> {
        match self.chan.call(PeerRequest::FetchFile { meta: *meta, epoch }) {
            Ok(reply) => reply,
            Err(_) => Err(CacheError::NodeDown { node: self.node }),
        }
    }
}

impl std::fmt::Debug for PeerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PeerHandle").field("node", &self.node).finish_non_exhaustive()
    }
}

/// Transport knobs for an [`RpcCache`]: deadline, retry schedule, clock
/// and (for tests) a fault policy targeting one node.
#[derive(Clone)]
pub struct NetOptions {
    /// Per-call reply deadline, if any.
    pub timeout_ns: Option<u64>,
    /// Retry schedule for timed-out calls.
    pub retry: RetryPolicy,
    /// Clock driving backoff, fault delays and latency measurement.
    pub clock: Arc<dyn Clock>,
    /// Inject faults on calls to one node: `(node, policy)`.
    pub fault_node: Option<(usize, FaultPolicy)>,
}

impl Default for NetOptions {
    /// No deadline, no retries, no faults, real time.
    fn default() -> Self {
        NetOptions {
            timeout_ns: None,
            retry: RetryPolicy::none(),
            clock: Arc::new(SystemClock::new()),
            fault_node: None,
        }
    }
}

impl std::fmt::Debug for NetOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetOptions")
            .field("timeout_ns", &self.timeout_ns)
            .field("retry", &self.retry)
            .field("fault_node", &self.fault_node)
            .finish_non_exhaustive()
    }
}

/// One member's serving thread and the instrumented connection to it.
struct Peer {
    server: ThreadServer<PeerRequest, PeerReply>,
    handle: PeerHandle,
}

/// A task cache whose one-hop reads really cross threads: one serving
/// thread per member node in front of a shared [`TaskCache`] core,
/// clients routing via the core's partition. Membership is elastic:
/// [`RpcCache::resize`] rebalances the core and spawns/retires peer
/// threads to match.
pub struct RpcCache<S> {
    core: Arc<TaskCache<S>>,
    opts: NetOptions,
    peers: HashMap<usize, Peer>,
}

impl<S: ObjectStore + 'static> RpcCache<S> {
    /// Spawn `nodes` peer servers for `dataset` with default transport
    /// options (no deadline, no retries).
    pub fn spawn(
        nodes: usize,
        dataset: &str,
        backing: Arc<S>,
        chunks: Vec<ChunkId>,
    ) -> Result<Self> {
        Self::spawn_with(nodes, dataset, backing, chunks, NetOptions::default())
    }

    /// Spawn with explicit transport options over a default-configured
    /// core whose registry runs on `opts.clock`.
    pub fn spawn_with(
        nodes: usize,
        dataset: &str,
        backing: Arc<S>,
        chunks: Vec<ChunkId>,
        opts: NetOptions,
    ) -> Result<Self> {
        let core = TaskCache::with_registry(
            Topology::uniform(nodes, 1)?,
            backing,
            dataset,
            chunks,
            CacheConfig::default(),
            Arc::new(Registry::new(opts.clock.clone())),
        )?;
        Ok(Self::front(Arc::new(core), opts))
    }

    /// Put peer servers in front of an existing `core` (whose
    /// [`CacheConfig`] states the per-node byte budget, once). Every
    /// peer channel is stacked as
    /// `Retry(Instrumented(Fault?(ThreadChannel)))`, with per-endpoint
    /// metric labels in the core's registry.
    pub fn front(core: Arc<TaskCache<S>>, opts: NetOptions) -> Self {
        let mut cache = RpcCache { core, opts, peers: HashMap::new() };
        cache.sync_peers();
        cache
    }

    /// Make the peer set match the core's membership: spawn a serving
    /// thread and middleware stack for every member without one, retire
    /// the threads of nodes that left.
    fn sync_peers(&mut self) {
        let members = self.core.members();
        self.peers.retain(|node, _| members.contains(node));
        for node in members {
            if !self.peers.contains_key(&node) {
                let peer = self.spawn_peer(node);
                self.peers.insert(node, peer);
            }
        }
    }

    fn spawn_peer(&self, node: usize) -> Peer {
        let core = Arc::clone(&self.core);
        let server = ThreadServer::spawn(Endpoint::new("peer", node), move |req| match req {
            PeerRequest::FetchFile { meta, epoch } => {
                core.get_file_routed(&meta, node, epoch).map(|fetched| fetched.data)
            }
        });
        let mut raw = server.channel();
        if let Some(ns) = self.opts.timeout_ns {
            raw = raw.with_timeout_ns(ns);
        }
        let clock = &self.opts.clock;
        let metrics = EndpointMetrics::new(self.core.registry(), &raw.endpoint());
        let link: Channel<PeerRequest, PeerReply> = match &self.opts.fault_node {
            Some((fault, policy)) if *fault == node => {
                Arc::new(FaultChannel::new(raw, policy.clone(), clock.clone()))
            }
            _ => Arc::new(raw),
        };
        let measured = Instrumented::new(link, metrics.clone(), clock.clone());
        let chan =
            Retry::new(measured, self.opts.retry.clone(), clock.clone()).with_metrics(metrics);
        Peer { server, handle: PeerHandle::new(node, Arc::new(chan)) }
    }

    /// The cache core behind the peers: counters, residency, handoff
    /// state — everything but the transport. Change membership through
    /// [`RpcCache::resize`], not on the core, or members lack peers.
    pub fn core(&self) -> &Arc<TaskCache<S>> {
        &self.core
    }

    /// A snapshot of the core's partition map (all clients share it, so
    /// owner lookup is local — no directory hop).
    pub fn partition(&self) -> ChunkPartition {
        self.core.partition()
    }

    /// The core's current membership epoch (bumped by every
    /// [`RpcCache::resize`]).
    pub fn epoch(&self) -> u64 {
        self.core.membership_epoch()
    }

    /// The registry holding per-endpoint transport metrics
    /// (`net.requests{endpoint=peer@N}` and friends) beside the core's
    /// `cache.*` counters.
    pub fn registry(&self) -> &Arc<Registry> {
        self.core.registry()
    }

    /// The instrumented connection to `node`, or a `NodeDown` error for
    /// non-member nodes.
    pub fn handle(&self, node: usize) -> Result<PeerHandle> {
        self.peers.get(&node).map(|p| p.handle.clone()).ok_or(CacheError::NodeDown { node })
    }

    /// Read a file via its owner peer (one message round trip),
    /// re-resolving the owner if the peer reports the route stale.
    pub fn get_file(&self, meta: &FileMeta) -> Result<Bytes> {
        retry_stale(|| {
            let (owner, epoch) = self.core.resolve_owner(meta.chunk)?;
            self.handle(owner)?.fetch_file(meta, epoch)
        })
    }

    /// Kill one node: its residency is dropped in the core and its peer
    /// server stops answering.
    pub fn kill_node(&mut self, node: usize) {
        self.core.kill_node(node);
        if let Some(peer) = self.peers.get_mut(&node) {
            peer.server.kill();
        }
    }

    /// Swing the membership to `0..nodes`: the core installs the epoch
    /// and relocates moved chunks (warm from the previous owner's
    /// memory, else from the store); the front then spawns peers for
    /// joiners and retires leavers' threads. If the core's sweep fails,
    /// the peer set still follows the installed membership, and calling
    /// `resize` again with the same `nodes` runs the core's repair sweep
    /// (see [`TaskCache::rebalance_to`]).
    pub fn resize(&mut self, nodes: usize) -> Result<RebalanceReport> {
        let report = self.core.resize(nodes);
        self.sync_peers();
        report
    }
}

impl<S> std::fmt::Debug for RpcCache<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RpcCache")
            .field("nodes", &self.peers.len())
            .field("core", &self.core)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task_cache::tests::{cache, TogglingStore};
    use crate::task_cache::CachePolicy;
    use diesel_net::MockClock;
    use diesel_store::MemObjectStore;

    fn dataset(files: usize) -> (Arc<MemObjectStore>, Vec<(String, FileMeta)>, Vec<ChunkId>) {
        crate::task_cache::tests::dataset(files, 300, 2048)
    }

    fn expected(name: &str) -> Vec<u8> {
        let i: usize = name[1..].parse().unwrap();
        vec![(i % 251) as u8; 300]
    }

    /// The shared-memory cache the RPC front is compared against.
    fn shared_memory_cache(
        store: Arc<MemObjectStore>,
        chunks: Vec<ChunkId>,
        nodes: usize,
    ) -> TaskCache<MemObjectStore> {
        cache(store, chunks, nodes, 1 << 30, CachePolicy::OnDemand)
    }

    #[test]
    fn rpc_reads_cross_real_threads() {
        let (store, metas, chunks) = dataset(60);
        let rpc = RpcCache::spawn(3, "ds", store, chunks).unwrap();
        for (name, meta) in &metas {
            assert_eq!(rpc.get_file(meta).unwrap().as_ref(), &expected(name)[..]);
        }
    }

    #[test]
    fn rpc_and_shared_memory_caches_agree() {
        let (store, metas, chunks) = dataset(50);
        let rpc = RpcCache::spawn(2, "ds", store.clone(), chunks.clone()).unwrap();
        let shm = shared_memory_cache(store, chunks, 2);
        for (_, meta) in &metas {
            assert_eq!(rpc.get_file(meta).unwrap(), shm.get_file(meta).unwrap().data);
        }
    }

    #[test]
    fn reads_through_the_front_obey_the_cores_byte_budget() {
        let (store, metas, chunks) = dataset(60);
        let budget = 2 * chunks
            .iter()
            .map(|&c| {
                store.size_of(&diesel_meta::recovery::chunk_object_key("ds", c)).unwrap() as u64
            })
            .max()
            .unwrap();
        let core = cache(store, chunks, 2, budget, CachePolicy::OnDemand);
        let rpc = RpcCache::front(Arc::new(core), NetOptions::default());
        for (name, meta) in &metas {
            assert_eq!(rpc.get_file(meta).unwrap().as_ref(), &expected(name)[..]);
        }
        assert!(rpc.core().metrics().evictions() > 0, "~2 chunks per node cannot hold the set");
        for node in 0..2 {
            assert!(rpc.core().node_resident_bytes(node) <= budget);
        }
    }

    #[test]
    fn concurrent_clients_share_peers() {
        let (store, metas, chunks) = dataset(80);
        let rpc = Arc::new(RpcCache::spawn(4, "ds", store, chunks).unwrap());
        let metas = Arc::new(metas);
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let rpc = rpc.clone();
                let metas = metas.clone();
                std::thread::spawn(move || {
                    for (i, (_, meta)) in metas.iter().enumerate() {
                        if i % 8 == t {
                            rpc.get_file(meta).unwrap();
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn killed_peer_fails_its_partition_only() {
        let (store, metas, chunks) = dataset(60);
        let mut rpc = RpcCache::spawn(3, "ds", store, chunks).unwrap();
        rpc.kill_node(1);
        let mut down = 0;
        let mut ok = 0;
        for (_, meta) in &metas {
            match rpc.get_file(meta) {
                Ok(_) => ok += 1,
                Err(CacheError::NodeDown { node: 1 }) => down += 1,
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        assert!(down > 0, "node 1's share must fail");
        assert!(ok > 0, "other partitions keep serving");
    }

    #[test]
    fn peer_handles_report_their_own_node_id() {
        // Regression: handles used to lose the peer identity and report
        // `node: usize::MAX` on any transport failure.
        let (store, metas, chunks) = dataset(30);
        let mut rpc = RpcCache::spawn(3, "ds", store, chunks).unwrap();
        for node in 0..3 {
            rpc.kill_node(node);
            let h = rpc.handle(node).unwrap();
            assert_eq!(h.node(), node);
            assert_eq!(h.fetch_file(&metas[0].1, 0).unwrap_err(), CacheError::NodeDown { node });
        }
    }

    #[test]
    fn drop_shuts_peers_down_cleanly() {
        let (store, metas, chunks) = dataset(20);
        let handle = {
            let rpc = RpcCache::spawn(2, "ds", store, chunks).unwrap();
            rpc.get_file(&metas[0].1).unwrap();
            rpc.handle(0).unwrap()
        }; // rpc dropped here: threads joined
        assert!(handle.fetch_file(&metas[0].1, 0).is_err(), "dead peer must error");
    }

    #[test]
    fn resize_relocates_warm_chunks_peer_to_peer() {
        let (store, metas, chunks) = dataset(80);
        let mut rpc = RpcCache::spawn(2, "ds", store, chunks.clone()).unwrap();
        // Warm every owner by reading the whole dataset once.
        for (_, meta) in &metas {
            rpc.get_file(meta).unwrap();
        }
        let report = rpc.resize(4).unwrap();
        assert_eq!(rpc.epoch(), 1);
        assert!(report.chunks_moved > 0, "a doubling must move chunks");
        assert_eq!(
            report.peer_warm_hits, report.chunks_moved,
            "warm cluster: every relocation is peer-to-peer"
        );
        assert_eq!(report.store_fallbacks, 0);
        // Reads still agree with the file contents from the new owners.
        for (name, meta) in &metas {
            assert_eq!(rpc.get_file(meta).unwrap().as_ref(), &expected(name)[..]);
        }
        // Shrink back: the departing peers drain into the survivors.
        let report = rpc.resize(2).unwrap();
        assert_eq!(rpc.epoch(), 2);
        assert_eq!(report.peer_warm_hits, report.chunks_moved);
        assert!(rpc.handle(3).is_err(), "retired peer is gone from the membership");
        for (_, meta) in &metas {
            rpc.get_file(meta).unwrap();
        }
        let snap = rpc.registry().snapshot();
        assert!(snap.counter("cache.rebalance.peer_warm_hits{dataset=ds}") >= report.chunks_moved);
        assert_eq!(snap.counter("cache.rebalance.store_fallbacks{dataset=ds}"), 0);
        assert_eq!(snap.gauge("cache.membership_epoch{dataset=ds}"), 2);
    }

    #[test]
    fn cold_resize_falls_back_to_the_store() {
        let (store, metas, chunks) = dataset(60);
        let mut rpc = RpcCache::spawn(2, "ds", store, chunks).unwrap();
        // Nothing has been read: every peer is cold.
        let report = rpc.resize(4).unwrap();
        assert!(report.chunks_moved > 0);
        assert_eq!(report.peer_warm_hits, 0);
        assert_eq!(report.store_fallbacks, report.chunks_moved);
        for (_, meta) in &metas {
            rpc.get_file(meta).unwrap();
        }
    }

    #[test]
    fn stale_route_is_rejected_by_the_peer_and_rerouted_by_get_file() {
        let (store, metas, chunks) = dataset(80);
        let mut rpc = RpcCache::spawn(2, "ds", store, chunks).unwrap();
        for (_, meta) in &metas {
            rpc.get_file(meta).unwrap();
        }
        // Routes resolved before the resize…
        let before = rpc.partition();
        rpc.resize(4).unwrap();
        let after = rpc.partition();
        let (name, moved) = metas
            .iter()
            .find(|(_, m)| before.owner_of(m.chunk) != after.owner_of(m.chunk))
            .expect("a doubling must move some chunk");
        let old_owner = before.owner_of(moved.chunk).unwrap();
        // …come back as a typed error from the peer thread itself: the
        // old owner is still a live member, it just no longer owns the
        // chunk — and an unmoved chunk's epoch-0 route is just as stale.
        let stale = CacheError::StaleOwner { epoch: 1 };
        assert_eq!(rpc.handle(old_owner).unwrap().fetch_file(moved, 0).unwrap_err(), stale);
        let (_, kept) = metas
            .iter()
            .find(|(_, m)| before.owner_of(m.chunk) == after.owner_of(m.chunk))
            .expect("a doubling keeps some chunk in place");
        let kept_owner = after.owner_of(kept.chunk).unwrap();
        assert_eq!(rpc.handle(kept_owner).unwrap().fetch_file(kept, 0).unwrap_err(), stale);
        assert_eq!(rpc.core().metrics().stale_owner_retries(), 2);
        // The self-resolving read routes under the current epoch.
        assert_eq!(rpc.get_file(moved).unwrap().as_ref(), &expected(name)[..]);
        assert!(rpc.handle(kept_owner).unwrap().fetch_file(kept, 1).is_ok());
    }

    #[test]
    fn stale_route_retry_is_bounded() {
        let stale = || Err::<(), _>(CacheError::StaleOwner { epoch: 9 });
        let mut calls = 0;
        let healed = retry_stale(|| {
            calls += 1;
            if calls < 3 {
                stale()
            } else {
                Ok(())
            }
        });
        assert_eq!((healed, calls), (Ok(()), 3), "two re-resolutions are absorbed");
        let mut calls = 0;
        let churning = retry_stale(|| {
            calls += 1;
            stale()
        });
        assert_eq!((churning, calls), (stale(), 3), "the third stale answer surfaces");
    }

    #[test]
    fn failed_resize_is_repaired_by_calling_it_again() {
        let (mem, metas, chunks) = dataset(60);
        let store = Arc::new(TogglingStore::new(mem));
        let mut rpc = RpcCache::spawn(2, "ds", Arc::clone(&store), chunks.clone()).unwrap();
        // Warm half the chunks so the failing sweep is mixed: warm
        // moves succeed from memory, cold moves hit the dead store.
        let warm: std::collections::HashSet<ChunkId> =
            chunks.iter().copied().take(chunks.len() / 2).collect();
        for (_, meta) in metas.iter().filter(|(_, m)| warm.contains(&m.chunk)) {
            rpc.get_file(meta).unwrap();
        }
        store.set_fail(true);
        let err = rpc.resize(4).expect_err("cold fallbacks must surface the store outage");
        assert!(matches!(err, CacheError::Backing(_)), "got {err:?}");
        // The core installed the epoch and the front followed it: the
        // joiners have live peers, nothing is half-spawned.
        assert_eq!(rpc.epoch(), 1);
        let open = rpc.core().pending_handoffs();
        assert!(open > 0, "a failed sweep leaves its unfinished windows open");
        for node in 0..4 {
            assert!(rpc.handle(node).is_ok(), "member {node} must have a peer");
        }
        store.set_fail(false);
        let report = rpc.resize(4).unwrap();
        assert_eq!(report.epoch, 1, "repair does not bump the epoch");
        assert_eq!(report.chunks_moved as usize, open, "repair covers exactly the open windows");
        assert_eq!(rpc.core().pending_handoffs(), 0);
        assert!(rpc.core().resident_fraction() <= 1.0 + 1e-9, "no half-installed leftovers");
        for (name, meta) in &metas {
            assert_eq!(rpc.get_file(meta).unwrap().as_ref(), &expected(name)[..]);
        }
    }

    #[test]
    fn dropped_requests_escalate_to_node_down_after_retries() {
        // End-to-end fault path: every request to node 0 is dropped →
        // each attempt times out on the mock clock → the retry layer
        // makes 3 attempts → the caller sees NodeDown with the correct
        // node id — and the per-endpoint stats recorded every attempt.
        let (store, metas, chunks) = dataset(40);
        let clock = Arc::new(MockClock::new());
        let opts = NetOptions {
            timeout_ns: Some(5_000_000),
            retry: RetryPolicy::default(), // 3 attempts
            clock: clock.clone(),
            fault_node: Some((0, FaultPolicy::drops(21, 1.0, 5_000_000))),
        };
        let rpc = RpcCache::spawn_with(2, "ds", store, chunks, opts).unwrap();
        let partition = rpc.partition();
        let (of_node0, of_node1): (Vec<_>, Vec<_>) =
            metas.iter().partition(|(_, m)| partition.owner_of(m.chunk).unwrap() == 0);
        assert!(!of_node0.is_empty() && !of_node1.is_empty());

        // Node 0's partition fails with its own node id after retries.
        let (_, meta) = of_node0[0];
        assert_eq!(rpc.get_file(meta).unwrap_err(), CacheError::NodeDown { node: 0 });
        let snap = rpc.registry().snapshot();
        assert_eq!(snap.counter("net.requests{endpoint=peer@0}"), 3, "one per attempt");
        assert_eq!(snap.counter("net.errors{endpoint=peer@0}"), 3);
        assert_eq!(snap.counter("net.timeouts{endpoint=peer@0}"), 3);
        assert_eq!(snap.counter("net.retries{endpoint=peer@0}"), 2);

        // Node 1 is healthy: same cache, same options, zero errors.
        for (_, meta) in &of_node1 {
            rpc.get_file(meta).unwrap();
        }
        let snap = rpc.registry().snapshot();
        assert_eq!(snap.counter("net.requests{endpoint=peer@1}"), of_node1.len() as u64);
        assert_eq!(snap.counter("net.errors{endpoint=peer@1}"), 0);
        assert_eq!(snap.counter("net.retries{endpoint=peer@1}"), 0);
    }

    #[test]
    fn transient_drops_are_hidden_by_retries_and_match_task_cache() {
        // ~40 % of requests to node 0 are dropped, but 5 attempts make
        // end-to-end failure vanishingly rare: the RpcCache still agrees
        // byte-for-byte with the shared-memory TaskCache.
        let (store, metas, chunks) = dataset(50);
        let clock = Arc::new(MockClock::new());
        let opts = NetOptions {
            timeout_ns: Some(1_000_000),
            retry: RetryPolicy { max_attempts: 5, ..Default::default() },
            clock: clock.clone(),
            fault_node: Some((0, FaultPolicy::drops(7, 0.4, 1_000_000))),
        };
        let rpc = RpcCache::spawn_with(2, "ds", store.clone(), chunks.clone(), opts).unwrap();
        let shm = shared_memory_cache(store, chunks, 2);
        for (_, meta) in &metas {
            assert_eq!(rpc.get_file(meta).unwrap(), shm.get_file(meta).unwrap().data);
        }
        let snap = rpc.registry().snapshot();
        assert!(snap.counter("net.retries{endpoint=peer@0}") > 0, "drops must have forced retries");
        assert_eq!(snap.counter("net.errors{endpoint=peer@1}"), 0);
    }

    #[test]
    fn killed_peer_and_task_cache_agree_on_failure_semantics() {
        // Under a dead node, both caches fail that node's partition with
        // NodeDown{node} and keep serving the rest identically.
        let (store, metas, chunks) = dataset(60);
        let mut rpc = RpcCache::spawn(3, "ds", store.clone(), chunks.clone()).unwrap();
        let shm = shared_memory_cache(store, chunks, 3);
        rpc.kill_node(2);
        shm.kill_node(2);
        for (_, meta) in &metas {
            match (rpc.get_file(meta), shm.get_file(meta)) {
                (Ok(a), Ok(b)) => assert_eq!(a, b.data),
                (Err(ea), Err(eb)) => {
                    assert_eq!(ea, CacheError::NodeDown { node: 2 });
                    assert_eq!(eb, CacheError::NodeDown { node: 2 });
                }
                (a, b) => panic!("caches disagree: rpc={a:?} shm={b:?}"),
            }
        }
    }
}
