//! Consistent hashing with virtual nodes — the key-placement scheme of
//! the Memcached/twemproxy cluster (Karger et al., referenced by the
//! paper as reference 6).

use diesel_kv::hash::fnv1a_64;

/// splitmix64 finalizer: FNV-1a alone clusters on short structured
/// strings (poor high-bit avalanche), which skews ring placement; this
/// mixer restores uniformity.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn point_hash(s: &str) -> u64 {
    mix64(fnv1a_64(s.as_bytes()))
}

/// A consistent-hash ring mapping keys to server indices.
#[derive(Debug, Clone)]
pub struct ConsistentHashRing {
    /// Sorted (point, server) pairs.
    points: Vec<(u64, usize)>,
}

impl ConsistentHashRing {
    /// A ring over `servers` servers with `vnodes` virtual nodes each
    /// (twemproxy defaults to a few hundred; 160 is the ketama classic).
    pub fn new(servers: usize, vnodes: usize) -> Self {
        assert!(servers >= 1 && vnodes >= 1);
        let mut points = Vec::with_capacity(servers * vnodes);
        for s in 0..servers {
            for v in 0..vnodes {
                let h = point_hash(&format!("server-{s}#vnode-{v}"));
                points.push((h, s));
            }
        }
        points.sort_unstable();
        ConsistentHashRing { points }
    }

    /// The server owning `key`: the first ring point at or after the
    /// key's hash, wrapping around.
    pub fn lookup(&self, key: &str) -> usize {
        let h = point_hash(key);
        match self.points.binary_search_by(|&(p, _)| p.cmp(&h)) {
            Ok(i) => self.points[i].1,
            Err(i) if i == self.points.len() => self.points[0].1,
            Err(i) => self.points[i].1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fraction of sampled keys owned by each of `servers` servers.
    fn load_distribution(ring: &ConsistentHashRing, servers: usize, keys: usize) -> Vec<f64> {
        let mut counts = vec![0usize; servers];
        for i in 0..keys {
            counts[ring.lookup(&format!("sample/{i}"))] += 1;
        }
        counts.into_iter().map(|c| c as f64 / keys as f64).collect()
    }

    #[test]
    fn lookup_is_stable() {
        let ring = ConsistentHashRing::new(10, 160);
        for i in 0..100 {
            let k = format!("file/{i}");
            assert_eq!(ring.lookup(&k), ring.lookup(&k));
            assert!(ring.lookup(&k) < 10);
        }
    }

    #[test]
    fn distribution_is_roughly_uniform() {
        let ring = ConsistentHashRing::new(8, 160);
        let dist = load_distribution(&ring, 8, 40_000);
        for (s, share) in dist.iter().enumerate() {
            assert!((0.06..0.20).contains(share), "server {s} holds {:.1}% of keys", share * 100.0);
        }
        let total: f64 = dist.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn removing_a_server_moves_only_its_keys() {
        // Consistent hashing's defining property: with server s removed
        // (rebuilt ring of n−1), keys previously owned by others keep
        // their owner index modulo renumbering. We test via ownership
        // *sets*: keys that did not map to the removed server must not
        // shuffle among the survivors.
        let before = ConsistentHashRing::new(5, 200);
        // Build an "after" ring reusing the same vnode labels for servers
        // 0..4 minus server 4 (so labels are unchanged for survivors).
        let after = {
            let mut points: Vec<(u64, usize)> = Vec::new();
            for s in 0..4 {
                for v in 0..200 {
                    points.push((point_hash(&format!("server-{s}#vnode-{v}")), s));
                }
            }
            points.sort_unstable();
            ConsistentHashRing { points }
        };
        let mut moved = 0;
        let mut total = 0;
        for i in 0..20_000 {
            let k = format!("k/{i}");
            let b = before.lookup(&k);
            if b == 4 {
                continue; // its keys must move, by definition
            }
            total += 1;
            if after.lookup(&k) != b {
                moved += 1;
            }
        }
        assert_eq!(moved, 0, "{moved}/{total} surviving keys moved");
    }

    #[test]
    fn more_vnodes_smooth_the_distribution() {
        let rough = ConsistentHashRing::new(8, 4);
        let smooth = ConsistentHashRing::new(8, 512);
        let spread = |r: &ConsistentHashRing| {
            let d = load_distribution(r, 8, 20_000);
            let max = d.iter().cloned().fold(0.0, f64::max);
            let min = d.iter().cloned().fold(1.0, f64::min);
            max - min
        };
        assert!(spread(&smooth) < spread(&rough));
    }
}
