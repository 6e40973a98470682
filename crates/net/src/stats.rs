//! Per-endpoint RPC metrics, backed by the `diesel-obs` registry.
//!
//! Every instrumented channel feeds an [`EndpointMetrics`]: a bundle of
//! handles into a shared [`Registry`] — monotonic request/error/retry/
//! timeout counters plus a latency histogram (~4 % log buckets), all
//! labelled `{endpoint=name@node}`. Snapshot the registry to see every
//! channel of a process at once; merge snapshots to aggregate across
//! processes.

use std::sync::Arc;

use diesel_obs::trace;
use diesel_obs::{Counter, HistogramHandle, Registry, Summary};

use crate::{Endpoint, NetError, Result, Service};
use diesel_util::clock::Clock;

/// Metric handles for one endpoint. Cheap to clone; clones share the
/// registry cells.
#[derive(Clone, Debug)]
pub struct EndpointMetrics {
    requests: Counter,
    errors: Counter,
    retries: Counter,
    timeouts: Counter,
    latency: HistogramHandle,
}

impl EndpointMetrics {
    /// The handles for `endpoint` inside `registry`, created on first
    /// use. Requesting the same endpoint twice yields the same cells.
    pub fn new(registry: &Registry, endpoint: &Endpoint) -> Self {
        let ep = endpoint.to_string();
        let labels = [("endpoint", ep.as_str())];
        EndpointMetrics {
            requests: registry.counter("net.requests", &labels),
            errors: registry.counter("net.errors", &labels),
            retries: registry.counter("net.retries", &labels),
            timeouts: registry.counter("net.timeouts", &labels),
            latency: registry.histogram("net.latency", &labels),
        }
    }

    /// The full metric id `metric{endpoint=…}` — how these cells appear
    /// in a [`diesel_obs::RegistrySnapshot`].
    pub fn id(metric: &str, endpoint: &Endpoint) -> String {
        format!("{metric}{{endpoint={endpoint}}}")
    }

    /// Record one completed call (success or failure) and its latency.
    pub fn record_call(&self, latency_ns: u64, outcome: &Result<()>) {
        self.requests.inc();
        if let Err(e) = outcome {
            self.errors.inc();
            if matches!(e, NetError::Timeout { .. }) {
                self.timeouts.inc();
            }
        }
        self.latency.record_ns(latency_ns);
    }

    /// Record one retry attempt (called by the retry middleware).
    pub fn record_retry(&self) {
        self.retries.inc();
    }

    /// Completed calls (including failed ones).
    pub fn requests(&self) -> u64 {
        self.requests.get()
    }

    /// Calls that returned a transport error.
    pub fn errors(&self) -> u64 {
        self.errors.get()
    }

    /// Retry attempts made on top of first attempts.
    pub fn retries(&self) -> u64 {
        self.retries.get()
    }

    /// Errors that were specifically timeouts.
    pub fn timeouts(&self) -> u64 {
        self.timeouts.get()
    }

    /// Latency distribution of completed calls so far.
    pub fn latency(&self) -> Summary {
        self.latency.summary()
    }
}

/// Middleware that counts and times every call through `inner`.
pub struct Instrumented<S> {
    inner: S,
    metrics: EndpointMetrics,
    clock: Arc<dyn Clock>,
}

impl<S> Instrumented<S> {
    /// Wrap `inner`, feeding `metrics` using `clock` for latency.
    pub fn new(inner: S, metrics: EndpointMetrics, clock: Arc<dyn Clock>) -> Self {
        Instrumented { inner, metrics, clock }
    }

    /// The metric handles this wrapper feeds.
    pub fn metrics(&self) -> &EndpointMetrics {
        &self.metrics
    }
}

impl<Req, Resp, S: Service<Req, Resp>> Service<Req, Resp> for Instrumented<S> {
    fn call(&self, req: Req) -> Result<Resp> {
        // Endpoint label built only when a tracer is ambient.
        let _span = if trace::active() {
            let ep = self.inner.endpoint().to_string();
            trace::span("net.call", &[("endpoint", ep.as_str())])
        } else {
            trace::SpanGuard::default()
        };
        let t0 = self.clock.now_ns();
        let out = self.inner.call(req);
        let latency = self.clock.now_ns().saturating_sub(t0);
        let probe = match &out {
            Ok(_) => Ok(()),
            Err(e) => Err(e.clone()),
        };
        self.metrics.record_call(latency, &probe);
        out
    }

    fn endpoint(&self) -> Endpoint {
        self.inner.endpoint()
    }
}

impl<S> std::fmt::Debug for Instrumented<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Instrumented").field("metrics", &self.metrics).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::DirectChannel;
    use diesel_util::clock::MockClock;

    fn registry() -> Registry {
        Registry::new(Arc::new(MockClock::new()))
    }

    #[test]
    fn counts_successes_and_errors_separately() {
        let ep = Endpoint::new("svc", 0);
        let inner = DirectChannel::new(ep.clone(), move |x: u64| {
            if x.is_multiple_of(2) {
                Ok(x)
            } else {
                Err(NetError::Timeout { endpoint: Endpoint::new("svc", 0), after_ns: 1 })
            }
        });
        let reg = registry();
        let clock = Arc::new(MockClock::new());
        let chan = Instrumented::new(inner, EndpointMetrics::new(&reg, &ep), clock);
        for x in 0..10u64 {
            let _ = chan.call(x);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("net.requests{endpoint=svc@0}"), 10);
        assert_eq!(snap.counter("net.errors{endpoint=svc@0}"), 5);
        assert_eq!(snap.counter("net.timeouts{endpoint=svc@0}"), 5);
        assert_eq!(snap.counter("net.retries{endpoint=svc@0}"), 0);
        assert_eq!(snap.histogram_summary("net.latency{endpoint=svc@0}").count, 10);
    }

    #[test]
    fn latency_is_measured_with_the_injected_clock() {
        let ep = Endpoint::new("svc", 1);
        let clock = Arc::new(MockClock::new());
        let c2 = clock.clone();
        let inner = DirectChannel::new(ep.clone(), move |_: ()| {
            c2.advance(2_000_000); // handler "takes" 2 ms
            Ok(())
        });
        let reg = registry();
        let chan = Instrumented::new(inner, EndpointMetrics::new(&reg, &ep), clock);
        chan.call(()).unwrap();
        let s = chan.metrics().latency();
        assert_eq!(s.max_ns, 2_000_000);
    }

    #[test]
    fn same_endpoint_shares_registry_cells() {
        let reg = registry();
        let a1 = EndpointMetrics::new(&reg, &Endpoint::new("peer", 0));
        let a2 = EndpointMetrics::new(&reg, &Endpoint::new("peer", 0));
        let b = EndpointMetrics::new(&reg, &Endpoint::new("peer", 1));
        a1.record_call(10, &Ok(()));
        a2.record_call(10, &Ok(()));
        b.record_retry();
        assert_eq!(a1.requests(), 2, "clones share one cell");
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter(&EndpointMetrics::id("net.requests", &Endpoint::new("peer", 0))),
            2
        );
        assert_eq!(snap.counter("net.retries{endpoint=peer@1}"), 1);
        assert_eq!(snap.sum_counter("net.requests"), 2);
    }
}
