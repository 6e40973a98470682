//! Round-robin load balancing over N backend channels.
//!
//! `diesel-core`'s `ServerPool` is this: spread stateless calls across
//! equivalent servers, skipping ones that have disconnected. Each call
//! starts at the next backend in rotation; on
//! [`NetError::Disconnected`](crate::NetError) it fails over to the
//! following backend (a disconnected backend never saw the request, so
//! re-sending is safe), giving up only after all have refused.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::{Channel, Endpoint, NetError, Result, Service};

/// A channel that fans calls out round-robin over its backends.
pub struct BalancedChannel<Req, Resp> {
    backends: Vec<Channel<Req, Resp>>,
    next: AtomicUsize,
}

impl<Req, Resp> BalancedChannel<Req, Resp> {
    /// Balance over `backends` (must be non-empty).
    pub fn new(backends: Vec<Channel<Req, Resp>>) -> Self {
        assert!(!backends.is_empty(), "balanced channel needs at least one backend");
        BalancedChannel { backends, next: AtomicUsize::new(0) }
    }

    /// Number of backends.
    pub fn len(&self) -> usize {
        self.backends.len()
    }

    /// Always false: construction requires ≥ 1 backend.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Direct access to backend `i` (for targeted calls or inspection).
    pub fn backend(&self, i: usize) -> &Channel<Req, Resp> {
        &self.backends[i]
    }
}

impl<Req: Clone, Resp> Service<Req, Resp> for BalancedChannel<Req, Resp> {
    fn call(&self, req: Req) -> Result<Resp> {
        let n = self.backends.len();
        let start = self.next.fetch_add(1, Ordering::Relaxed);
        let mut last = NetError::Disconnected { endpoint: self.endpoint() };
        for i in 0..n {
            match self.backends[(start + i) % n].call(req.clone()) {
                Err(e @ NetError::Disconnected { .. }) => last = e,
                other => return other,
            }
        }
        Err(last)
    }

    fn endpoint(&self) -> Endpoint {
        Endpoint::new("balanced", self.backends.len())
    }
}

impl<Req, Resp> std::fmt::Debug for BalancedChannel<Req, Resp> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BalancedChannel").field("backends", &self.backends.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::DirectChannel;
    use std::sync::Arc;

    fn backend(node: usize) -> Channel<u64, usize> {
        Arc::new(DirectChannel::new(Endpoint::new("server", node), move |_: u64| Ok(node)))
    }

    fn dead(node: usize) -> Channel<u64, usize> {
        Arc::new(DirectChannel::new(Endpoint::new("server", node), move |_: u64| {
            Err(NetError::Disconnected { endpoint: Endpoint::new("server", node) })
        }))
    }

    #[test]
    fn round_robin_cycles_evenly() {
        let chan = BalancedChannel::new(vec![backend(0), backend(1), backend(2)]);
        let mut hits = [0u32; 3];
        for _ in 0..6 {
            hits[chan.call(0).unwrap()] += 1;
        }
        assert_eq!(hits, [2, 2, 2]);
        assert_eq!(chan.len(), 3);
        assert!(!chan.is_empty());
    }

    #[test]
    fn disconnected_backend_is_skipped() {
        let chan = BalancedChannel::new(vec![backend(0), dead(1), backend(2)]);
        // Every call succeeds even when the rotation lands on the dead
        // backend; it fails over to the next live one.
        let served: Vec<usize> = (0..6).map(|_| chan.call(0).unwrap()).collect();
        assert!(served.iter().all(|&n| n == 0 || n == 2), "{served:?}");
        assert!(served.contains(&0) && served.contains(&2));
    }

    #[test]
    fn all_dead_reports_last_disconnect() {
        let chan = BalancedChannel::new(vec![dead(0), dead(1)]);
        let err = chan.call(0).unwrap_err();
        assert!(matches!(err, NetError::Disconnected { .. }));
    }

    #[test]
    fn non_disconnect_errors_do_not_fail_over() {
        let rejecting: Channel<u64, usize> =
            Arc::new(DirectChannel::new(Endpoint::new("server", 0), move |_: u64| {
                Err(NetError::Rejected {
                    endpoint: Endpoint::new("server", 0),
                    reason: "busy".into(),
                })
            }));
        let chan = BalancedChannel::new(vec![rejecting, backend(1)]);
        // First call starts at backend 0 and must surface its rejection
        // rather than silently retrying elsewhere.
        let err = chan.call(0).unwrap_err();
        assert!(matches!(err, NetError::Rejected { .. }));
        assert_eq!(chan.call(0).unwrap(), 1, "rotation still advances");
    }

    #[test]
    #[should_panic(expected = "at least one backend")]
    fn empty_backend_list_panics() {
        let _ = BalancedChannel::<u64, usize>::new(vec![]);
    }
}
