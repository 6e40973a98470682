//! Deterministic event-loop driver for simulated actors.
//!
//! [`run_actors`] repeatedly advances the actor with the smallest clock
//! (ties broken by actor index), so a simulation's outcome is independent
//! of host scheduling — the property that makes the benchmark harness
//! reproducible. This is the standard "next-event" loop of a discrete-
//! event simulator, specialized to actors that compute their own next
//! completion time by acquiring grants from shared [`Resource`]s.
//!
//! The loop ordering matters: because resources grant FIFO *in call
//! order*, always stepping the least-advanced actor first yields
//! arrival-order-consistent queueing.
//!
//! [`Resource`]: crate::resource::Resource

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// An actor in a simulation: one I/O worker, one training process, …
pub trait SimActor {
    /// Perform the next operation starting at `now`. Return the simulated
    /// completion time of that operation, or `None` when the actor is
    /// done.
    ///
    /// The returned time must be ≥ `now` (time cannot run backwards);
    /// the driver panics otherwise, as that is a modeling bug.
    fn step(&mut self, now: SimTime) -> Option<SimTime>;
}

impl<F> SimActor for F
where
    F: FnMut(SimTime) -> Option<SimTime>,
{
    fn step(&mut self, now: SimTime) -> Option<SimTime> {
        self(now)
    }
}

/// Result of driving a set of actors to completion.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Completion time of each actor (index-aligned with the input).
    pub finish_times: Vec<SimTime>,
    /// Total steps executed across actors.
    pub steps: u64,
}

impl SimReport {
    /// The simulation makespan (latest actor finish).
    pub fn makespan(&self) -> SimTime {
        self.finish_times.iter().copied().max().unwrap_or(SimTime::ZERO)
    }

    /// Aggregate throughput in steps per simulated second.
    pub fn throughput(&self) -> f64 {
        let m = self.makespan().as_secs_f64();
        if m == 0.0 {
            0.0
        } else {
            self.steps as f64 / m
        }
    }
}

/// Drive `actors` to completion with the least-clock-first policy.
pub fn run_actors(actors: &mut [&mut dyn SimActor]) -> SimReport {
    let n = actors.len();
    let mut finish = vec![SimTime::ZERO; n];
    let mut heap: BinaryHeap<Reverse<(SimTime, usize)>> = BinaryHeap::with_capacity(n);
    for i in 0..n {
        heap.push(Reverse((SimTime::ZERO, i)));
    }
    let mut steps = 0u64;
    while let Some(Reverse((now, idx))) = heap.pop() {
        match actors[idx].step(now) {
            Some(next) => {
                assert!(next >= now, "actor {idx} moved time backwards: {next} < {now}");
                steps += 1;
                heap.push(Reverse((next, idx)));
            }
            None => {
                finish[idx] = now;
            }
        }
    }
    SimReport { finish_times: finish, steps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::Resource;

    #[test]
    fn actors_finish_and_report_makespan() {
        // Two actors: one does 3 × 10 ms, the other 2 × 25 ms.
        let mut a_ops = 3;
        let mut a = move |now: SimTime| {
            if a_ops == 0 {
                return None;
            }
            a_ops -= 1;
            Some(now + SimTime::from_millis(10))
        };
        let mut b_ops = 2;
        let mut b = move |now: SimTime| {
            if b_ops == 0 {
                return None;
            }
            b_ops -= 1;
            Some(now + SimTime::from_millis(25))
        };
        let report = run_actors(&mut [&mut a, &mut b]);
        assert_eq!(report.finish_times[0], SimTime::from_millis(30));
        assert_eq!(report.finish_times[1], SimTime::from_millis(50));
        assert_eq!(report.makespan(), SimTime::from_millis(50));
        assert_eq!(report.steps, 5);
        let tput = report.throughput();
        assert!((tput - 100.0).abs() < 1.0, "tput={tput}");
    }

    #[test]
    fn shared_resource_contention_is_deterministic() {
        // 8 actors × 100 ops through a 2-server resource with 1 ms service:
        // makespan must be exactly 800/2 ms, every run.
        let run = || {
            let res = Resource::new("shared", 2);
            let mut actors: Vec<Box<dyn FnMut(SimTime) -> Option<SimTime>>> = (0..8)
                .map(|_| {
                    let mut left = 100;
                    let res = &res;
                    Box::new(move |now: SimTime| {
                        if left == 0 {
                            return None;
                        }
                        left -= 1;
                        Some(res.acquire(now, SimTime::from_millis(1)).end)
                    }) as Box<dyn FnMut(SimTime) -> Option<SimTime>>
                })
                .collect();
            let mut refs: Vec<&mut dyn SimActor> =
                actors.iter_mut().map(|b| b as &mut dyn SimActor).collect();
            run_actors(&mut refs).makespan()
        };
        let m1 = run();
        let m2 = run();
        assert_eq!(m1, m2, "simulation must be deterministic");
        assert_eq!(m1, SimTime::from_millis(400));
    }

    #[test]
    fn least_clock_first_fairness() {
        // A fast actor (1 ms ops) and a slow actor (10 ms ops) sharing a
        // single-server resource: the fast actor must not be starved —
        // its ops interleave between the slow ones.
        let res = Resource::new("r", 1);
        let mut fast_done = Vec::new();
        let mut fast_left = 5;
        let mut fast = |now: SimTime| {
            if fast_left == 0 {
                return None;
            }
            fast_left -= 1;
            let g = res.acquire(now, SimTime::from_millis(1));
            fast_done.push(g.end);
            Some(g.end)
        };
        let mut slow_left = 5;
        let mut slow = |now: SimTime| {
            if slow_left == 0 {
                return None;
            }
            slow_left -= 1;
            Some(res.acquire(now, SimTime::from_millis(10)).end)
        };
        let report = run_actors(&mut [&mut fast, &mut slow]);
        // Total service = 5×1 + 5×10 = 55 ms on one server.
        assert_eq!(report.makespan(), SimTime::from_millis(55));
    }

    #[test]
    #[should_panic(expected = "moved time backwards")]
    fn backwards_time_is_a_bug() {
        let mut first = true;
        let mut bad = move |_now: SimTime| {
            if first {
                first = false;
                Some(SimTime::from_secs(100))
            } else {
                Some(SimTime::from_secs(1)) // earlier than 100s: bug
            }
        };
        run_actors(&mut [&mut bad]);
    }

    #[test]
    fn empty_actor_set() {
        let report = run_actors(&mut []);
        assert_eq!(report.makespan(), SimTime::ZERO);
        assert_eq!(report.steps, 0);
    }
}
