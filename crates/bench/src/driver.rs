//! Deterministic simulated-client drivers shared by the experiment
//! binaries.
//!
//! The driver reports through `diesel-obs` rather than hand-carried
//! counters: every operation lands in a `bench.ops` counter and a
//! `bench.op_latency` histogram, and [`ClientOutcome`] is read back
//! from one registry snapshot.

use std::sync::Arc;

use diesel_obs::{Registry, Summary};
use diesel_simnet::{run_actors, SimActor, SimTime};
use diesel_util::MockClock;

/// Aggregate outcome of one driven workload.
#[derive(Debug, Clone, Copy)]
pub struct ClientOutcome {
    /// Total operations completed.
    pub ops: u64,
    /// Simulation makespan.
    pub makespan: SimTime,
    /// Operations per simulated second.
    pub qps: f64,
    /// Per-operation simulated service-time distribution (ns).
    pub latency: Summary,
}

/// Drive `clients` simulated clients, each performing `ops_each`
/// operations; `op(client, op_index, now) -> completion` computes one
/// operation's completion time. Deterministic (least-clock-first).
pub fn run_uniform_clients(
    clients: usize,
    ops_each: usize,
    op: impl Fn(usize, usize, SimTime) -> SimTime + Sync,
) -> ClientOutcome {
    // MockClock keeps the registry deterministic: event
    // timestamps never read the wall clock.
    let registry = Registry::new(Arc::new(MockClock::new()));
    let ops_counter = registry.counter("bench.ops", &[]);
    let latency = registry.histogram("bench.op_latency", &[]);
    let mut actors: Vec<Box<dyn FnMut(SimTime) -> Option<SimTime> + '_>> = (0..clients)
        .map(|c| {
            let mut i = 0usize;
            let op = &op;
            let ops_counter = ops_counter.clone();
            let latency = latency.clone();
            Box::new(move |now: SimTime| {
                if i == ops_each {
                    return None;
                }
                let done = op(c, i, now);
                i += 1;
                ops_counter.inc();
                latency.record_ns((done - now).as_nanos());
                Some(done)
            }) as Box<dyn FnMut(SimTime) -> Option<SimTime> + '_>
        })
        .collect();
    let mut refs: Vec<&mut dyn SimActor> =
        actors.iter_mut().map(|b| b as &mut dyn SimActor).collect();
    let report = run_actors(&mut refs);
    let snap = registry.snapshot();
    let ops = snap.counter("bench.ops");
    let makespan = report.makespan();
    let qps = if makespan == SimTime::ZERO { 0.0 } else { ops as f64 / makespan.as_secs_f64() };
    ClientOutcome { ops, makespan, qps, latency: snap.histogram_summary("bench.op_latency") }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_cost_ops_give_exact_qps() {
        let out = run_uniform_clients(4, 100, |_, _, now| now + SimTime::from_millis(1));
        assert_eq!(out.ops, 400);
        assert_eq!(out.makespan, SimTime::from_millis(100));
        assert!((out.qps - 4000.0).abs() < 1.0);
        // The latency distribution comes from the obs registry and sees
        // every op at its exact (constant) cost.
        assert_eq!(out.latency.count, 400);
        assert_eq!(out.latency.max_ns, 1_000_000);
    }

    #[test]
    fn zero_clients() {
        let out = run_uniform_clients(0, 100, |_, _, now| now);
        assert_eq!(out.ops, 0);
        assert_eq!(out.qps, 0.0);
        assert_eq!(out.latency.count, 0);
    }
}
