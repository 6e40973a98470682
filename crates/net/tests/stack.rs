//! The full middleware stack, composed the way production code uses it:
//! `Retry( Instrumented( FaultChannel( ThreadChannel ) ) )`, all driven
//! by one shared mock clock — no wall-clock sleeps anywhere. Metrics
//! flow into one `diesel_obs::Registry` and are read back as snapshots.

use std::sync::Arc;

use diesel_net::{
    Channel, Endpoint, EndpointMetrics, FaultChannel, FaultPolicy, Instrumented, NetError, Retry,
    RetryPolicy, Service, ThreadServer,
};
use diesel_obs::Registry;
use diesel_util::clock::{Clock, MockClock};

struct Stack {
    chan: Channel<u64, u64>,
    metrics: EndpointMetrics,
    clock: Arc<MockClock>,
    _server: ThreadServer<u64, u64>,
}

/// Build the production-shaped stack over a live serving thread.
fn stack(policy: FaultPolicy, retry: RetryPolicy) -> Stack {
    let clock = Arc::new(MockClock::new());
    let server = ThreadServer::spawn(Endpoint::new("peer", 2), |x: u64| x + 100);
    let reg = Registry::new(clock.clone());
    let metrics = EndpointMetrics::new(&reg, server.endpoint());
    let faulty = FaultChannel::new(server.channel(), policy, clock.clone());
    let measured = Instrumented::new(faulty, metrics.clone(), clock.clone());
    let chan: Channel<u64, u64> =
        Arc::new(Retry::new(measured, retry, clock.clone()).with_metrics(metrics.clone()));
    Stack { chan, metrics, clock, _server: server }
}

#[test]
fn clean_stack_is_transparent() {
    let s = stack(FaultPolicy::default(), RetryPolicy::default());
    for i in 0..50 {
        assert_eq!(s.chan.call(i).unwrap(), i + 100);
    }
    assert_eq!(s.metrics.requests(), 50);
    assert_eq!(s.metrics.errors(), 0);
    assert_eq!(s.metrics.retries(), 0);
    assert_eq!(s.metrics.latency().count, 50);
}

#[test]
fn every_request_dropped_escalates_after_retries() {
    // drop_prob = 1.0: each attempt burns the 50 ms drop timeout on the
    // mock clock and fails with Timeout. The retry layer makes 3
    // attempts with 1 ms + 2 ms backoff, then surfaces the timeout.
    let s = stack(
        FaultPolicy::drops(11, 1.0, 50_000_000),
        RetryPolicy::default(), // 3 attempts, 1 ms base, x2
    );
    let err = s.chan.call(7).unwrap_err();
    assert_eq!(err, NetError::Timeout { endpoint: Endpoint::new("peer", 2), after_ns: 50_000_000 });
    assert_eq!(s.metrics.requests(), 3, "one per attempt");
    assert_eq!(s.metrics.errors(), 3);
    assert_eq!(s.metrics.timeouts(), 3);
    assert_eq!(s.metrics.retries(), 2);
    // 3 drops at 50 ms + backoffs 1 ms + 2 ms — all on the mock clock.
    assert_eq!(s.clock.now_ns(), 153_000_000);
}

#[test]
fn transient_drops_are_absorbed_by_retries() {
    // ~30 % drops: with 3 attempts per call, the chance all three drop
    // is ~2.7 %; over 200 calls a handful may still escalate, but most
    // succeed, and every success went through the real serving thread.
    let s = stack(FaultPolicy::drops(5, 0.3, 1_000_000), RetryPolicy::default());
    let mut ok = 0u64;
    for i in 0..200 {
        match s.chan.call(i) {
            Ok(v) => {
                assert_eq!(v, i + 100);
                ok += 1;
            }
            Err(e) => assert!(e.is_retryable(), "only timeouts escape: {e:?}"),
        }
    }
    assert!(ok >= 180, "retries should absorb most drops: ok={ok}");
    assert!(s.metrics.retries() > 0, "some retries must have fired");
    assert_eq!(s.metrics.requests(), s.metrics.errors() + ok, "attempts = failures + successes");
}

#[test]
fn fault_sequences_are_deterministic_end_to_end() {
    let run = || {
        let s = stack(FaultPolicy::drops(99, 0.4, 1_000), RetryPolicy::none());
        let pattern: Vec<bool> = (0..300).map(|i| s.chan.call(i).is_ok()).collect();
        (pattern, s.clock.now_ns())
    };
    assert_eq!(run(), run());
}

#[test]
fn disconnected_server_is_not_retried() {
    let clock = Arc::new(MockClock::new());
    let server = ThreadServer::spawn(Endpoint::new("peer", 4), |x: u64| x);
    let reg = Registry::new(clock.clone());
    let metrics = EndpointMetrics::new(&reg, server.endpoint());
    let measured = Instrumented::new(server.channel(), metrics.clone(), clock.clone());
    let chan =
        Retry::new(measured, RetryPolicy::default(), clock.clone()).with_metrics(metrics.clone());
    assert_eq!(chan.call(1).unwrap(), 1);
    drop(server);
    let err = chan.call(2).unwrap_err();
    assert_eq!(err, NetError::Disconnected { endpoint: Endpoint::new("peer", 4) });
    // The registry snapshot carries the same story as the live handles.
    let snap = reg.snapshot();
    assert_eq!(snap.counter("net.requests{endpoint=peer@4}"), 2);
    assert_eq!(snap.counter("net.errors{endpoint=peer@4}"), 1);
    assert_eq!(snap.counter("net.retries{endpoint=peer@4}"), 0, "disconnects fail fast");
    assert_eq!(clock.now_ns(), 0, "no backoff burned");
}
