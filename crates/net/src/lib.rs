//! `diesel-net`: the RPC layer for client↔server traffic.
//!
//! DIESEL's clients talk request/reply to servers (ingest, read,
//! metadata) through one typed [`Service`] abstraction, and every
//! deployment shape composes the same middleware around it. The task
//! cache is an in-process library and does not come through here.
//!
//! # Pieces
//!
//! - [`Service<Req, Resp>`] — the calling convention: synchronous typed
//!   request/reply, transport errors surfaced as [`NetError`].
//! - [`Channel<Req, Resp>`] — an `Arc<dyn Service>`; what call sites hold.
//! - [`DirectChannel`] — in-process dispatch with no thread hop. Used by
//!   `DieselClient` when connected to a co-located server; preserves the
//!   zero-copy, zero-queue behavior of calling the server directly.
//! - [`ThreadServer`]/[`ThreadChannel`] — a serving thread fed by an
//!   mpsc channel, one reply channel per call.
//! - [`Retry`] — bounded retries with exponential backoff on retryable
//!   errors, driven by an injectable [`Clock`](diesel_util::Clock) so tests never sleep.
//! - [`FaultChannel`] — seeded fault injection (drop → timeout, delay,
//!   reject, permanent disconnect) for exercising failure paths
//!   deterministically.
//! - [`Instrumented`] + [`EndpointMetrics`] — per-endpoint request/
//!   error/retry/timeout counters and a latency histogram, living in a
//!   shared [`diesel_obs::Registry`] for one-snapshot observability.

pub mod direct;
pub mod fault;
pub mod retry;
pub mod stats;
pub mod thread;

pub use direct::DirectChannel;
pub use fault::{FaultChannel, FaultPolicy};
pub use retry::{Retry, RetryPolicy};
pub use stats::{EndpointMetrics, Instrumented};
pub use thread::{ThreadChannel, ThreadServer};

use std::sync::Arc;

/// Identity of the far side of a channel: a human-readable service name
/// plus the node id it lives on. Carried inside every [`NetError`] so
/// callers can report *which* endpoint failed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Endpoint {
    /// Service name, e.g. `"peer"` or `"server"`.
    pub name: &'static str,
    /// Node the service runs on.
    pub node: usize,
}

impl Endpoint {
    /// An endpoint `name` on `node`.
    pub fn new(name: &'static str, node: usize) -> Self {
        Endpoint { name, node }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@{}", self.name, self.node)
    }
}

/// Transport-level failures. Application-level errors travel inside
/// `Resp` (typically a `Result`), not here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// No reply within the deadline (an injected drop burns it).
    Timeout {
        /// Who we were calling.
        endpoint: Endpoint,
        /// The deadline that expired, in nanoseconds.
        after_ns: u64,
    },
    /// The far side is gone (serving thread exited, channel closed).
    Disconnected {
        /// Who we were calling.
        endpoint: Endpoint,
    },
    /// The request was rejected before reaching the service.
    Rejected {
        /// Who we were calling.
        endpoint: Endpoint,
        /// Why it was rejected.
        reason: String,
    },
}

impl NetError {
    /// The endpoint this error is about.
    pub fn endpoint(&self) -> &Endpoint {
        match self {
            NetError::Timeout { endpoint, .. }
            | NetError::Disconnected { endpoint }
            | NetError::Rejected { endpoint, .. } => endpoint,
        }
    }

    /// Whether a retry can plausibly succeed. Timeouts are retryable
    /// (the reply may have been lost); disconnects and rejections are
    /// not — the far side is gone or refusing.
    pub fn is_retryable(&self) -> bool {
        matches!(self, NetError::Timeout { .. })
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Timeout { endpoint, after_ns } => {
                write!(f, "rpc to {endpoint} timed out after {after_ns}ns")
            }
            NetError::Disconnected { endpoint } => {
                write!(f, "rpc to {endpoint}: endpoint disconnected")
            }
            NetError::Rejected { endpoint, reason } => {
                write!(f, "rpc to {endpoint} rejected: {reason}")
            }
        }
    }
}

impl std::error::Error for NetError {}

/// Result of one RPC attempt.
pub type Result<T> = std::result::Result<T, NetError>;

/// A synchronous typed request/reply service.
///
/// `call` either delivers the request and returns the service's reply,
/// or fails with a transport-level [`NetError`]. Implementations must be
/// safe to call from many threads at once.
pub trait Service<Req, Resp>: Send + Sync {
    /// Issue one request and wait for its reply.
    fn call(&self, req: Req) -> Result<Resp>;

    /// The endpoint this service represents (for errors and stats).
    fn endpoint(&self) -> Endpoint;
}

/// What call sites hold: a shareable, type-erased service.
pub type Channel<Req, Resp> = Arc<dyn Service<Req, Resp>>;

impl<Req, Resp, S: Service<Req, Resp> + ?Sized> Service<Req, Resp> for Arc<S> {
    fn call(&self, req: Req) -> Result<Resp> {
        (**self).call(req)
    }
    fn endpoint(&self) -> Endpoint {
        (**self).endpoint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_display_and_error_accessors() {
        let ep = Endpoint::new("peer", 3);
        assert_eq!(format!("{ep}"), "peer@3");
        let t = NetError::Timeout { endpoint: ep.clone(), after_ns: 5 };
        let d = NetError::Disconnected { endpoint: ep.clone() };
        let r = NetError::Rejected { endpoint: ep.clone(), reason: "full".into() };
        assert_eq!(t.endpoint(), &ep);
        assert_eq!(d.endpoint(), &ep);
        assert_eq!(r.endpoint(), &ep);
        assert!(t.is_retryable());
        assert!(!d.is_retryable());
        assert!(!r.is_retryable());
        assert!(format!("{t}").contains("timed out"));
        assert!(format!("{d}").contains("disconnected"));
        assert!(format!("{r}").contains("full"));
    }

    #[test]
    fn channels_are_object_safe_and_shareable() {
        let chan: Channel<u32, u32> =
            Arc::new(DirectChannel::new(Endpoint::new("echo", 0), |x: u32| Ok(x + 1)));
        let c2 = chan.clone();
        assert_eq!(chan.call(1).unwrap(), 2);
        assert_eq!(c2.call(41).unwrap(), 42);
        assert_eq!(chan.endpoint(), Endpoint::new("echo", 0));
    }
}
