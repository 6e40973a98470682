//! k-server FIFO resources over simulated time.
//!
//! A [`Resource`] models a contended component — an MDS, one Redis
//! instance, a NIC, an NVMe device — as `k` identical servers. A request
//! arriving at simulated time `now` with service time `s` is granted the
//! earliest-free server: it starts at `max(now, earliest_free)` and ends
//! `s` later. With one server this is an M/D/1-style queue; with `k` it
//! approximates a thread pool or a striped device.
//!
//! The grant operation is O(log k) (binary heap of server-free times) and
//! internally synchronized, so resources can be shared by both the
//! deterministic event-loop driver and real-thread drivers.

use diesel_util::Mutex;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::time::SimTime;

/// The time window granted to one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// When service began (≥ the requested `now`).
    pub start: SimTime,
    /// When service completed.
    pub end: SimTime,
}

/// A k-server FIFO queueing resource.
///
/// # Examples
///
/// ```
/// use diesel_simnet::{Resource, SimTime};
///
/// // A metadata server handling one request at a time, 1 ms each.
/// let mds = Resource::new("mds", 1);
/// let g1 = mds.acquire(SimTime::ZERO, SimTime::from_millis(1));
/// let g2 = mds.acquire(SimTime::ZERO, SimTime::from_millis(1));
/// assert_eq!(g1.end, SimTime::from_millis(1));
/// assert_eq!(g2.start, g1.end, "second request queues behind the first");
/// ```
#[derive(Debug)]
pub struct Resource {
    name: &'static str,
    free_at: Mutex<BinaryHeap<Reverse<SimTime>>>,
    served: AtomicU64,
}

impl Resource {
    /// A resource with `servers` identical servers, all free at t=0.
    pub fn new(name: &'static str, servers: usize) -> Self {
        assert!(servers >= 1, "resource {name} needs at least one server");
        let mut heap = BinaryHeap::with_capacity(servers);
        for _ in 0..servers {
            heap.push(Reverse(SimTime::ZERO));
        }
        Resource {
            name,
            free_at: Mutex::named("simnet.resource_free", heap),
            served: AtomicU64::new(0),
        }
    }

    /// The resource's diagnostic name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Request `service` time starting no earlier than `now`.
    pub fn acquire(&self, now: SimTime, service: SimTime) -> Grant {
        let mut heap = self.free_at.lock();
        let Reverse(free) = heap.pop().expect("heap always holds k entries");
        let start = now.max_of(free);
        let end = start + service;
        heap.push(Reverse(end));
        drop(heap);
        self.served.fetch_add(1, Ordering::Relaxed);
        Grant { start, end }
    }

    /// Total requests served.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Reset all servers to free-at-zero and clear counters.
    pub fn reset(&self) {
        let mut heap = self.free_at.lock();
        let k = heap.len();
        heap.clear();
        for _ in 0..k {
            heap.push(Reverse(SimTime::ZERO));
        }
        drop(heap);
        self.served.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_server_serializes() {
        let r = Resource::new("disk", 1);
        let s = SimTime::from_millis(10);
        let g1 = r.acquire(SimTime::ZERO, s);
        let g2 = r.acquire(SimTime::ZERO, s);
        let g3 = r.acquire(SimTime::ZERO, s);
        assert_eq!(g1.start, SimTime::ZERO);
        assert_eq!(g1.end, SimTime::from_millis(10));
        assert_eq!(g2.start, SimTime::from_millis(10));
        assert_eq!(g3.end, SimTime::from_millis(30));
        assert_eq!(g3.start, SimTime::from_millis(20));
    }

    #[test]
    fn k_servers_run_in_parallel() {
        let r = Resource::new("pool", 4);
        let s = SimTime::from_millis(10);
        let grants: Vec<Grant> = (0..4).map(|_| r.acquire(SimTime::ZERO, s)).collect();
        assert!(grants.iter().all(|g| g.start == SimTime::ZERO));
        // Fifth waits for a server.
        let g5 = r.acquire(SimTime::ZERO, s);
        assert_eq!(g5.start, SimTime::from_millis(10));
    }

    #[test]
    fn idle_server_starts_at_now() {
        let r = Resource::new("disk", 1);
        let g = r.acquire(SimTime::from_secs(5), SimTime::from_millis(1));
        assert_eq!(g.start, SimTime::from_secs(5));
    }

    #[test]
    fn throughput_matches_capacity() {
        // One server, 1 ms per op ⇒ 1000 ops/s regardless of arrival rate.
        let r = Resource::new("mds", 1);
        let mut end = SimTime::ZERO;
        for _ in 0..5000 {
            end = r.acquire(SimTime::ZERO, SimTime::from_millis(1)).end;
        }
        let qps = 5000.0 / end.as_secs_f64();
        assert!((qps - 1000.0).abs() < 1.0, "qps={qps}");
    }

    #[test]
    fn stats_and_reset() {
        let r = Resource::new("x", 2);
        r.acquire(SimTime::ZERO, SimTime::from_millis(4));
        r.acquire(SimTime::ZERO, SimTime::from_millis(6));
        assert_eq!(r.served(), 2);
        r.reset();
        assert_eq!(r.served(), 0);
        let g = r.acquire(SimTime::ZERO, SimTime::from_millis(1));
        assert_eq!(g.start, SimTime::ZERO);
    }

    #[test]
    fn concurrent_acquires_never_overbook() {
        // With k servers and uniform service s, N requests arriving at 0
        // must finish exactly at ceil(N/k)*s — regardless of thread
        // interleaving.
        let r = Resource::new("c", 3);
        let acquire = || r.acquire(SimTime::ZERO, SimTime::from_micros(10)).end;
        let max_end = std::thread::scope(|s| {
            let threads: Vec<_> =
                (0..6).map(|_| s.spawn(|| (0..500).map(|_| acquire()).max().unwrap())).collect();
            threads.into_iter().map(|t| t.join().unwrap()).max().unwrap()
        });
        let expect = SimTime::from_micros(10 * 3000 / 3);
        assert_eq!(max_end, expect);
    }
}
