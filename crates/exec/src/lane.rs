//! The pool's blocking lane: threads for jobs that wait on I/O instead
//! of computing ([`WorkPool::spawn_blocking`](crate::WorkPool::spawn_blocking)).
//!
//! A CPU worker that waits on a device does no work meanwhile, and a
//! pool of two workers overlaps at most two such waits. The lane keeps
//! those waits off the workers. A job handed to it starts on an idle
//! lane thread, or on a new one when no lane thread is idle. The lane
//! has no width setting: it is as wide as its callers keep it busy.
//!
//! Idle lane threads park for reuse until the pool drops, and the drop
//! joins them. They are reused rather than started per job because
//! glibc gives each thread that allocates a malloc arena of its own: a
//! fresh thread per job grows the process's resident memory.

use diesel_util::{Clock, Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::pool::{run_job, Job, PoolMetrics};

struct LaneState {
    /// Jobs handed to parked threads and not taken yet.
    jobs: VecDeque<Job>,
    /// Threads parked on [`Lane::ready`], woken or not.
    idle: usize,
    closed: bool,
    threads: Vec<JoinHandle<()>>,
}

/// One pool's blocking lane.
pub(crate) struct Lane {
    name: String,
    state: Mutex<LaneState>,
    ready: Condvar,
    metrics: PoolMetrics,
    clock: Arc<dyn Clock>,
}

impl Lane {
    pub(crate) fn new(name: &str, metrics: PoolMetrics, clock: Arc<dyn Clock>) -> Self {
        Lane {
            name: name.to_owned(),
            state: Mutex::named(
                "exec.lane",
                LaneState { jobs: VecDeque::new(), idle: 0, closed: false, threads: Vec::new() },
            ),
            ready: Condvar::new(),
            metrics,
            clock,
        }
    }

    /// Start `job` on a lane thread: a parked one if some parked thread
    /// has no job yet, else a new one. Hands the job back when no thread
    /// could be spawned, so the caller runs it itself. (The lane closes
    /// only when its pool drops, and then nobody can submit.)
    pub(crate) fn submit(self: &Arc<Self>, job: Job) -> Result<(), Job> {
        let mut st = self.state.lock();
        st.jobs.push_back(job);
        if st.idle >= st.jobs.len() {
            drop(st);
            self.ready.notify_one();
            return Ok(());
        }
        let lane = Arc::clone(self);
        let spawned = std::thread::Builder::new()
            .name(format!("{}-io-{}", self.name, st.threads.len()))
            .spawn(move || lane.run());
        match spawned {
            Ok(thread) => {
                st.threads.push(thread);
                Ok(())
            }
            // Nobody took the job meanwhile: the lock is still held.
            Err(_) => st.jobs.pop_back().map_or(Ok(()), Err),
        }
    }

    /// A lane thread: run queued jobs, park while there are none, and
    /// exit once the lane is closed and drained.
    fn run(&self) {
        let mut st = self.state.lock();
        loop {
            if let Some(job) = st.jobs.pop_front() {
                drop(st);
                run_job(&self.metrics, &self.clock, job);
                st = self.state.lock();
            } else if st.closed {
                return;
            } else {
                st.idle += 1;
                st = self.ready.wait(st);
                st.idle -= 1;
            }
        }
    }

    /// Close the lane and join its threads once each has drained the
    /// queue. A lane thread that drops the last handle to its own pool
    /// is left to exit by itself: it cannot join itself.
    pub(crate) fn close(&self) {
        let threads = {
            let mut st = self.state.lock();
            st.closed = true;
            std::mem::take(&mut st.threads)
        };
        self.ready.notify_all();
        let me = std::thread::current().id();
        for thread in threads.into_iter().filter(|t| t.thread().id() != me) {
            // `run_job` contains every job's panic; nothing to report.
            let _ = thread.join();
        }
    }

    /// Lane threads started so far, and how many of them are parked.
    #[cfg(test)]
    pub(crate) fn threads(&self) -> (usize, usize) {
        let st = self.state.lock();
        (st.threads.len(), st.idle)
    }
}
