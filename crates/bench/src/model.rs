//! Calibrated timing model of the DIESEL read/write paths at cluster
//! scale.
//!
//! Calibration anchors (paper §6):
//!
//! * Fig. 11a — DIESEL-API ≈ 1.2 M QPS and DIESEL-FUSE ≈ 0.8 M QPS on
//!   4 KB cached reads with 10 nodes × 16 clients.
//! * Fig. 12 — with chunk-wise shuffle, DIESEL-API ≈ 4.3 GB/s on 4 KB
//!   files and ≈ 10.1 GB/s on 128 KB files (160 threads).
//! * Fig. 9 — 64 processes write > 2 M 4 KB files/s (client-side chunk
//!   aggregation; the ImageNet write completes in seconds).
//!
//! The model: a client's read is served either locally (its node owns
//! the chunk) or by the owner node's master client — one hop. Each
//! master is a single-threaded data-plane [`Resource`] moving bytes at
//! Thrift-copy speed; remote requests additionally pay a client-side
//! round trip. A DIESEL-FUSE read also pays `fuse_per_request` per
//! kernel crossing, `fuse_max_read` bytes at a time.

use diesel_simnet::{Resource, SimTime};

/// Timing model for one DIESEL task's cluster.
pub struct DieselClusterModel {
    /// Physical nodes in the task.
    pub nodes: usize,
    /// One-hop client-observed RPC round trip (Thrift over IB).
    pub client_rtt: SimTime,
    /// Cost of a local fetch through the node's master client
    /// (loopback RPC; non-master I/O workers do not share its address
    /// space).
    pub local_service: SimTime,
    /// Per-kernel-crossing FUSE overhead.
    pub fuse_per_request: SimTime,
    /// Kernel FUSE request size (read splitting).
    pub fuse_max_read: u64,
    /// Master data-plane base cost per request.
    pub master_base: SimTime,
    /// Master data-plane copy bandwidth (bytes/s).
    pub master_bytes_per_sec: f64,
    /// Client-side write-path cost per file (CRC + builder append).
    pub write_per_file: SimTime,
    /// Client-side write-path copy bandwidth.
    pub write_bytes_per_sec: f64,
    masters: Vec<Resource>,
}

impl DieselClusterModel {
    /// The calibrated defaults for the paper's 10-node testbed.
    pub fn new(nodes: usize) -> Self {
        DieselClusterModel {
            nodes,
            client_rtt: SimTime::from_micros(100),
            local_service: SimTime::from_micros(45),
            fuse_per_request: SimTime::from_micros(90),
            fuse_max_read: 128 << 10,
            master_base: SimTime::from_micros(6),
            master_bytes_per_sec: 1.3e9,
            write_per_file: SimTime::from_micros(28),
            write_bytes_per_sec: 3.0e9,
            masters: (0..nodes).map(|_| Resource::new("diesel-master", 1)).collect(),
        }
    }

    /// Which node owns a file, given a stable per-file key. The key is
    /// avalanche-mixed first so structured keys (client*i arithmetic)
    /// still spread uniformly over masters.
    pub fn owner_of(&self, file_key: u64) -> usize {
        let mut x = file_key;
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        (x as usize) % self.nodes
    }

    /// Completion time of one cached read issued at `now` by a client on
    /// `client_node` for a file owned by `owner_node`.
    pub fn read_at(
        &self,
        now: SimTime,
        client_node: usize,
        owner_node: usize,
        bytes: u64,
        fuse: bool,
    ) -> SimTime {
        let mut done = if owner_node == client_node {
            now + self.local_service
        } else {
            let service = self.master_base + SimTime::for_bytes(bytes, self.master_bytes_per_sec);
            let grant = self.masters[owner_node].acquire(now, service);
            grant.end + self.client_rtt
        };
        if fuse {
            let crossings = bytes.div_ceil(self.fuse_max_read).max(1);
            done += SimTime::from_nanos(crossings * self.fuse_per_request.as_nanos());
        }
        done
    }

    /// Completion time of one `DL_put` of `bytes` issued at `now`
    /// (client-side aggregation: chunk shipping is asynchronous and
    /// overlaps, so the per-file cost dominates — Fig. 9).
    pub fn write_at(&self, now: SimTime, bytes: u64) -> SimTime {
        now + self.write_per_file + SimTime::for_bytes(bytes, self.write_bytes_per_sec)
    }

    /// Reset master clocks between phases.
    pub fn reset(&self) {
        for m in &self.masters {
            m.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_uniform_clients;

    #[test]
    fn api_read_qps_matches_fig11a() {
        // 10 nodes × 16 clients, 4 KB cached reads → ≈ 1.1–1.3 M QPS.
        let m = DieselClusterModel::new(10);
        let outcome = run_uniform_clients(160, 300, |client, op, now| {
            let node = client % 10;
            let owner = m.owner_of((client * 7919 + op * 104729) as u64);
            m.read_at(now, node, owner, 4 << 10, false)
        });
        assert!((0.9e6..1.5e6).contains(&outcome.qps), "DIESEL-API 4 KB QPS {:.0}", outcome.qps);
    }

    #[test]
    fn fuse_costs_roughly_a_third() {
        let run = |fuse: bool| {
            let m = DieselClusterModel::new(10);
            run_uniform_clients(160, 300, |client, op, now| {
                let node = client % 10;
                let owner = m.owner_of((client * 31 + op * 7) as u64);
                m.read_at(now, node, owner, 4 << 10, fuse)
            })
            .qps
        };
        let api = run(false);
        let fuse = run(true);
        let ratio = fuse / api;
        assert!((0.5..0.85).contains(&ratio), "FUSE/API = {ratio:.2}");
    }

    #[test]
    fn large_reads_are_bandwidth_bound() {
        // Fig. 12: 128 KB reads ≈ 10 GB/s aggregate.
        let m = DieselClusterModel::new(10);
        let outcome = run_uniform_clients(160, 120, |client, op, now| {
            let node = client % 10;
            let owner = m.owner_of((client * 13 + op * 3) as u64);
            m.read_at(now, node, owner, 128 << 10, false)
        });
        let gbps = outcome.qps * (128 << 10) as f64 / 1e9;
        assert!((7.0..15.0).contains(&gbps), "128 KB bandwidth {gbps:.1} GB/s");
    }

    #[test]
    fn writes_hit_two_million_per_second() {
        // Fig. 9: 64 processes, 4 KB files, > 2 M files/s.
        let m = DieselClusterModel::new(4);
        let outcome = run_uniform_clients(64, 2000, |_, _, now| m.write_at(now, 4 << 10));
        assert!((1.6e6..3.0e6).contains(&outcome.qps), "DIESEL 4 KB write rate {:.0}", outcome.qps);
    }
}
