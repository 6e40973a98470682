//! Memcached + twemproxy cluster timing model.
//!
//! Structure follows the paper's deployment (§6.1): per-node Memcached
//! servers with a thread pool, twemproxy providing consistent hashing and
//! a unified namespace, and libMemcached clients. The behaviours the
//! evaluation depends on:
//!
//! * **Per-op RPC cost on reads** — every `get` is one round trip through
//!   the proxy; with hundreds of clients this caps aggregate QPS well
//!   below DIESEL's local/one-hop path (Fig. 11a: ≈ 0.56 M QPS).
//! * **Pipelined writes** — twemproxy merges requests from multiple
//!   clients, so bulk loads amortize the round trip (Fig. 9's write
//!   rates), but each value still crosses the wire individually —
//!   file-granular cache fill is what makes Fig. 11b recovery slow.
//! * **Node failure ⇒ misses** — a dead server's key range misses and
//!   the read falls back to the backing store (Fig. 6).

use diesel_util::RwLock;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};

use diesel_simnet::{Resource, SimTime};

use crate::ring::ConsistentHashRing;

/// Where a read was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadSource {
    /// Served from a live Memcached server holding the key.
    Hit,
    /// Key absent or its server dead — the caller must fetch from the
    /// backing store (and usually re-`set` the key).
    Miss,
}

/// Tunables for [`MemcachedSim`].
#[derive(Debug, Clone)]
pub struct MemcachedConfig {
    /// Number of server instances (the paper uses one per node).
    pub servers: usize,
    /// Worker threads per server (paper: 16).
    pub threads_per_server: usize,
    /// Server-side CPU time per op (hash lookup + kernel send).
    pub service_per_op: SimTime,
    /// Client-observed round trip through twemproxy for one op.
    pub rpc_round_trip: SimTime,
    /// Write pipelining factor: twemproxy merges roughly this many
    /// client requests per upstream round trip.
    pub write_pipeline_depth: u32,
    /// Per-server value-transfer bandwidth (bytes/s) shared by its
    /// threads.
    pub value_bytes_per_sec: f64,
    /// Virtual nodes per server on the hash ring.
    pub vnodes: usize,
}

impl Default for MemcachedConfig {
    fn default() -> Self {
        MemcachedConfig {
            servers: 10,
            threads_per_server: 16,
            service_per_op: SimTime::from_micros(15),
            rpc_round_trip: SimTime::from_micros(260),
            write_pipeline_depth: 8,
            value_bytes_per_sec: 1.6e9,
            vnodes: 160,
        }
    }
}

struct ServerState {
    alive: AtomicBool,
    keys: RwLock<HashSet<String>>,
    cpu: Resource,
}

/// The Memcached-cluster baseline.
pub struct MemcachedSim {
    config: MemcachedConfig,
    ring: ConsistentHashRing,
    servers: Vec<ServerState>,
}

impl MemcachedSim {
    /// Build a cluster.
    pub fn new(config: MemcachedConfig) -> Self {
        let ring = ConsistentHashRing::new(config.servers, config.vnodes);
        let servers = (0..config.servers)
            .map(|_| ServerState {
                alive: AtomicBool::new(true),
                keys: RwLock::named("baselines.memcached_keys", HashSet::new()),
                cpu: Resource::new("memcached-cpu", config.threads_per_server),
            })
            .collect();
        MemcachedSim { config, ring, servers }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MemcachedConfig {
        &self.config
    }

    /// The server index a key routes to.
    pub fn server_of(&self, key: &str) -> usize {
        self.ring.lookup(key)
    }

    fn transfer_time(&self, bytes: u64) -> SimTime {
        SimTime::for_bytes(bytes, self.config.value_bytes_per_sec)
    }

    /// `set` one key of `bytes` (pipelined path). Returns completion
    /// time; the key becomes resident if its server is alive.
    pub fn write_at(&self, now: SimTime, key: &str, bytes: u64) -> SimTime {
        let s = &self.servers[self.server_of(key)];
        let amortized_rtt = SimTime::from_nanos(
            self.config.rpc_round_trip.as_nanos() / self.config.write_pipeline_depth as u64,
        );
        if !s.alive.load(Ordering::Acquire) {
            // Proxy timeout/ejection path: charge the round trip only.
            return now + self.config.rpc_round_trip;
        }
        let service = self.config.service_per_op + self.transfer_time(bytes);
        let done = s.cpu.acquire(now + amortized_rtt, service).end;
        s.keys.write().insert(key.to_owned());
        done
    }

    /// `get` one key of `bytes`. On [`ReadSource::Miss`] the returned
    /// time covers only the failed lookup; the caller adds its fallback.
    pub fn read_at(&self, now: SimTime, key: &str, bytes: u64) -> (SimTime, ReadSource) {
        let s = &self.servers[self.server_of(key)];
        if !s.alive.load(Ordering::Acquire) {
            // Connection refused / proxy ejection: quick failure.
            return (now + self.config.rpc_round_trip, ReadSource::Miss);
        }
        if !s.keys.read().contains(key) {
            let service = self.config.service_per_op;
            let done = s.cpu.acquire(now + self.config.rpc_round_trip, service).end;
            return (done, ReadSource::Miss);
        }
        let service = self.config.service_per_op + self.transfer_time(bytes);
        let done = s.cpu.acquire(now + self.config.rpc_round_trip, service).end;
        (done, ReadSource::Hit)
    }

    /// Kill a server: its keys are lost immediately.
    pub fn kill_server(&self, idx: usize) {
        self.servers[idx].alive.store(false, Ordering::Release);
        self.servers[idx].keys.write().clear();
    }

    /// Total resident keys.
    pub fn cached_keys(&self) -> usize {
        self.servers.iter().map(|s| s.keys.read().len()).sum()
    }

    /// Fraction of `universe` keys that would hit right now.
    pub fn hit_fraction(&self, universe: &[String]) -> f64 {
        if universe.is_empty() {
            return 1.0;
        }
        let hits = universe
            .iter()
            .filter(|k| {
                let s = &self.servers[self.server_of(k)];
                s.alive.load(Ordering::Acquire) && s.keys.read().contains(*k)
            })
            .count();
        hits as f64 / universe.len() as f64
    }

    /// Reset all resource clocks (between experiment phases).
    pub fn reset_clocks(&self) {
        for s in &self.servers {
            s.cpu.reset();
        }
    }
}

impl std::fmt::Debug for MemcachedSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemcachedSim")
            .field("servers", &self.servers.len())
            .field("cached_keys", &self.cached_keys())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diesel_simnet::{run_actors, SimActor};

    fn keys(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("file/{i:06}")).collect()
    }

    fn load_all(mc: &MemcachedSim, ks: &[String], size: u64) -> SimTime {
        let mut t = SimTime::ZERO;
        for k in ks {
            t = mc.write_at(t, k, size).max_of(t);
        }
        t
    }

    #[test]
    fn write_then_read_hits() {
        let mc = MemcachedSim::new(MemcachedConfig::default());
        mc.write_at(SimTime::ZERO, "k1", 4096);
        let (_, src) = mc.read_at(SimTime::ZERO, "k1", 4096);
        assert_eq!(src, ReadSource::Hit);
        let (_, src) = mc.read_at(SimTime::ZERO, "absent", 4096);
        assert_eq!(src, ReadSource::Miss);
    }

    #[test]
    fn dead_server_causes_misses_for_its_share_only() {
        let mc = MemcachedSim::new(MemcachedConfig::default());
        let ks = keys(5000);
        load_all(&mc, &ks, 4096);
        assert!((mc.hit_fraction(&ks) - 1.0).abs() < 1e-9);
        mc.kill_server(3);
        let frac = mc.hit_fraction(&ks);
        assert!(
            (0.80..0.95).contains(&frac),
            "one of ten servers dead should cost ≈10% hits, got {frac:.3}"
        );
        for k in &ks {
            let (_, src) = mc.read_at(SimTime::ZERO, k, 4096);
            let expect = if mc.server_of(k) == 3 { ReadSource::Miss } else { ReadSource::Hit };
            assert_eq!(src, expect);
        }
    }

    #[test]
    fn read_qps_matches_fig11a_ballpark() {
        // 160 clients reading cached 4 KB values → ≈ 0.5-0.7 M QPS.
        let mc = MemcachedSim::new(MemcachedConfig::default());
        let ks = keys(20_000);
        load_all(&mc, &ks, 4096);
        mc.reset_clocks();
        let n_reads = 200;
        let mut actors: Vec<Box<dyn FnMut(SimTime) -> Option<SimTime>>> = (0..160)
            .map(|c| {
                let mut i = 0usize;
                let mc = &mc;
                let ks = &ks;
                Box::new(move |now: SimTime| {
                    if i == n_reads {
                        return None;
                    }
                    let k = &ks[(c * 7919 + i * 104729) % ks.len()];
                    i += 1;
                    Some(mc.read_at(now, k, 4096).0)
                }) as Box<dyn FnMut(SimTime) -> Option<SimTime>>
            })
            .collect();
        let mut refs: Vec<&mut dyn SimActor> =
            actors.iter_mut().map(|b| b as &mut dyn SimActor).collect();
        let report = run_actors(&mut refs);
        let qps = (160 * n_reads) as f64 / report.makespan().as_secs_f64();
        assert!(
            (400_000.0..750_000.0).contains(&qps),
            "memcached read QPS {qps:.0} out of Fig. 11a's ballpark"
        );
    }

    #[test]
    fn pipelined_writes_are_faster_than_reads() {
        // Fig. 9 vs Fig. 11a: bulk writes outpace random reads thanks to
        // proxy pipelining.
        let mc = MemcachedSim::new(MemcachedConfig::default());
        let per_write = {
            let t = mc.write_at(SimTime::ZERO, "w", 4096);
            t.as_nanos()
        };
        let per_read = {
            let (t, _) = mc.read_at(SimTime::ZERO, "w", 4096);
            t.as_nanos()
        };
        assert!(per_write < per_read, "write {per_write}ns vs read {per_read}ns");
    }

    #[test]
    fn large_values_pay_transfer_time() {
        let mc = MemcachedSim::new(MemcachedConfig::default());
        mc.write_at(SimTime::ZERO, "small", 4 << 10);
        mc.write_at(SimTime::ZERO, "big", 1 << 20);
        mc.reset_clocks();
        let (t_small, _) = mc.read_at(SimTime::ZERO, "small", 4 << 10);
        let (t_big, _) = mc.read_at(SimTime::ZERO, "big", 1 << 20);
        assert!(t_big.as_nanos() > t_small.as_nanos() + 500_000, "1 MiB ≈ +625 µs transfer");
    }

    #[test]
    fn writes_to_dead_server_are_dropped() {
        let mc = MemcachedSim::new(MemcachedConfig::default());
        let ks = keys(2000);
        mc.kill_server(0);
        load_all(&mc, &ks, 128);
        let frac = mc.hit_fraction(&ks);
        assert!(frac < 1.0, "dead server's keys cannot be resident");
        assert!(mc.cached_keys() < ks.len());
    }
}
