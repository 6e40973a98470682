//! # diesel-exec — the workspace's one way to run work in the background
//!
//! DIESEL's throughput story is overlap: the oneshot cache "prefetches
//! in the background" while the task trains (§4.2, Figs. 10a/11b), the
//! request executor merges and issues chunk reads concurrently, and the
//! data loader hides storage latency behind compute. Before this crate,
//! each of those used its own ad-hoc `std::thread::spawn`; now they all
//! share one executor with bounded queues, backpressure, panic
//! propagation, cancellation, and observability.
//!
//! Pieces:
//!
//! * [`WorkPool`] — a named pool of worker threads fed by a bounded
//!   queue ([`queue::Bounded`]). Submitting past the queue capacity
//!   blocks (backpressure) or runs inline (scoped fan-out), never grows
//!   an unbounded buffer.
//! * [`TaskHandle`] / [`CancelToken`] — detached background tasks
//!   ([`WorkPool::spawn`]): panics are captured and surface as
//!   [`ExecError::Panicked`] at [`TaskHandle::join`]; dropping an
//!   unjoined handle flips the task's [`CancelToken`] so cooperative
//!   sweeps stop instead of leaking.
//! * The blocking lane ([`WorkPool::spawn_blocking`]) — for a job that
//!   waits on I/O rather than computes. It runs on a lane thread, never
//!   on one of the pool's CPU workers: an idle lane thread if there is
//!   one, else a new one. Idle lane threads are kept for reuse until the
//!   pool drops, and the drop joins them. The lane has no width
//!   setting; it is as wide as its callers keep it busy, so a cache can
//!   keep as many store reads in flight as its plan asks for while the
//!   CPU workers stay free to decode. Handles, panics and the ambient
//!   trace behave as with [`WorkPool::spawn`].
//! * [`Scope`] + [`WorkPool::map`]/[`WorkPool::try_map`] — structured
//!   fan-out over borrowed data. Results are written into per-item
//!   slots, so the output order (and the first error, for `try_map`) is
//!   deterministic regardless of worker count or scheduling.
//! * [`PipelineIter`] ([`WorkPool::pipeline`]) — a bounded-channel
//!   pipeline stage: N workers pull `(seq, item)` records from a shared
//!   source, apply the stage function, and the consumer reorders by
//!   sequence number, so the stream is byte-identical to the serial
//!   loop for any worker count. Stages chain by using one pipeline as
//!   the next one's source.
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
//! export `exec.tasks_submitted`/`completed`/`panicked`/`cancelled`
//! counters, an `exec.queue_depth` gauge, and an `exec.task_ns`
//! latency histogram, all labelled `{pool=<name>}`.

mod lane;
pub mod pipeline;
pub mod pool;
pub mod queue;

pub use pipeline::PipelineIter;
pub use pool::{global, CancelToken, Scope, TaskHandle, WorkPool};
pub use queue::Bounded;

/// Errors surfaced by the executor itself (task bodies carry their own
/// error types through [`WorkPool::try_map`] and pipeline items).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The task panicked; the payload message is preserved.
    Panicked(String),
    /// The task was cancelled before it produced a result.
    Cancelled,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Panicked(msg) => write!(f, "task panicked: {msg}"),
            ExecError::Cancelled => write!(f, "task cancelled"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ExecError>;

/// Pool construction parameters.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Worker threads. `<= 1` selects the deterministic inline mode:
    /// every submission runs on the calling thread, in order.
    pub workers: usize,
    /// Bounded queue capacity; submissions past it block (backpressure)
    /// or run inline (scoped fan-out). `0` picks `4 × workers`.
    pub queue_capacity: usize,
}

impl ExecConfig {
    /// A pool of exactly `workers` threads.
    pub fn workers(workers: usize) -> Self {
        ExecConfig { workers, queue_capacity: 0 }
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

    /// The effective queue capacity for this configuration.
    pub(crate) fn capacity(&self) -> usize {
        if self.queue_capacity > 0 {
            self.queue_capacity
        } else {
            (self.workers.max(1)) * 4
        }
    }
}

impl Default for ExecConfig {
    fn default() -> Self {
        Self::from_env()
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
        assert_eq!(ExecConfig::workers(3).capacity(), 12);
        assert_eq!(ExecConfig { workers: 2, queue_capacity: 7 }.capacity(), 7);
        // Zero workers still yields a sane capacity.
        assert_eq!(ExecConfig { workers: 0, queue_capacity: 0 }.capacity(), 4);
    }

    #[test]
    fn error_display() {
        assert_eq!(ExecError::Cancelled.to_string(), "task cancelled");
        assert!(ExecError::Panicked("boom".into()).to_string().contains("boom"));
    }
}
