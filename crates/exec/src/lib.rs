//! # diesel-exec — the workspace's one way to run work in the background
//!
//! DIESEL's throughput story is overlap: the oneshot cache "prefetches
//! in the background" while the task trains (§4.2, Figs. 10a/11b), the
//! request executor merges and issues chunk reads concurrently, and the
//! data loader hides storage latency behind compute. All of it runs on
//! one executor with bounded queues, contained panics and
//! observability. The system makes four calls into it:
//!
//! * [`WorkPool::try_map`] — structured fan-out over borrowed data.
//!   Results are written into per-item slots, so the output order and
//!   the first error are deterministic regardless of worker count or
//!   scheduling. A job that finds the pool queue full runs inline on the
//!   submitter instead of blocking, and a waiter helps drain the queue,
//!   so nested fan-out cannot deadlock.
//! * [`WorkPool::for_each_chunk_mut`] — chunked data parallelism over a
//!   mutable slice (GEMM).
//! * [`WorkPool::pipeline`] ([`PipelineIter`]) — a bounded-channel
//!   pipeline stage: N workers pull `(seq, item)` records from a shared
//!   source, apply the stage function, and the consumer reorders by
//!   sequence number, so the stream is byte-identical to the serial
//!   loop for any worker count. Stages chain by using one pipeline as
//!   the next one's source.
//! * [`WorkPool::spawn_blocking`] — fire-and-forget, for a job that
//!   waits on I/O rather than computes. It runs on a lane thread, never
//!   on one of the pool's CPU workers: an idle lane thread if there is
//!   one, else a new one. Idle lane threads are kept for reuse until the
//!   pool drops, and the drop joins them. The lane has no width
//!   setting; it is as wide as its callers keep it busy, so a cache can
//!   keep as many store reads in flight as its plan asks for while the
//!   CPU workers stay free to decode.
//!
//! There are no task handles and no cancellation: a fan-out returns
//! when its items have run, a pipeline stops when its iterator drops,
//! and a blocking job's caller tracks the job's end itself. A job's
//! panic is contained and counted in `exec.tasks_panicked`; a fan-out
//! or pipeline re-raises it on the caller.
//!
//! ## Determinism mode
//!
//! A pool built with `workers <= 1` runs everything inline on the
//! calling thread, in submission order — no threads, no interleaving,
//! and no lane threads either: `spawn_blocking` runs on the caller too.
//! [`ExecConfig::from_env`] reads `DIESEL_EXEC_WORKERS`, so
//! `DIESEL_EXEC_WORKERS=1 cargo test` exercises the whole tree in
//! deterministic mode, the same way an injected
//! [`MockClock`](diesel_util::MockClock) controls time.
//!
//! ## Observability
//!
//! Pools registered with a shared [`Registry`](diesel_obs::Registry)
//! export `exec.tasks_submitted`/`completed`/`panicked` counters, an
//! `exec.queue_depth` gauge, and an `exec.task_ns` latency histogram,
//! all labelled `{pool=<name>}`.

mod lane;
mod pipeline;
mod pool;
mod queue;

pub use pipeline::PipelineIter;
pub use pool::{global, WorkPool};

/// Pool construction parameters.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Worker threads. `<= 1` selects the deterministic inline mode:
    /// every submission runs on the calling thread, in order.
    pub(crate) workers: usize,
}

impl ExecConfig {
    /// A pool of exactly `workers` threads, fed by a queue of
    /// `4 × workers` jobs.
    pub fn workers(workers: usize) -> Self {
        ExecConfig { workers }
    }

    /// Deterministic inline mode (no worker threads).
    pub fn inline() -> Self {
        Self::workers(1)
    }

    /// Read `DIESEL_EXEC_WORKERS` from the environment; unset or
    /// unparsable falls back to the hardware default (capped at 8 so
    /// test machines with many cores don't fan out hundreds of
    /// threads).
    pub fn from_env() -> Self {
        let workers = std::env::var("DIESEL_EXEC_WORKERS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&w| w >= 1)
            .unwrap_or_else(default_workers);
        Self::workers(workers)
    }
}

fn default_workers() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1).min(8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_constructors() {
        assert_eq!(ExecConfig::inline().workers, 1);
        assert_eq!(ExecConfig::workers(5).workers, 5);
    }
}
