//! # diesel-obs — the workspace's observability core
//!
//! DIESEL's evaluation is counter-driven: cache hit ratios (Fig. 11),
//! metadata QPS against the Redis ceiling (Fig. 10), per-iteration I/O
//! time (Fig. 14/15). This crate is the single substrate those numbers
//! flow through:
//!
//! * [`Registry`] — a namespace of named [`Counter`]/[`Gauge`]/
//!   [`HistogramHandle`] cells. Handles are cheap clones of shared
//!   atomics; the hot path takes no lock.
//! * [`RegistrySnapshot`] — a consistent point-in-time copy. Updates
//!   grouped in [`Registry::batch`] appear all-or-nothing; snapshots
//!   merge, so a server's `Stats` reply folds the KV and store
//!   registries into its own exactly.
//! * [`Histogram`] — log-bucketed latencies (~4 % relative error),
//!   shared with the simulator's measurement layer.
//! * [`copies`] — the process-global `bytes.copied{site=…}` ledger
//!   every deliberate payload copy reports to, making the zero-copy
//!   read path an asserted invariant (DESIGN.md §11).
//! * [`lockdep`] — the `lockdep.cycles{a=…,b=…}` bridge: every
//!   lock-order cycle detected by `diesel_util::lockdep` is counted in
//!   a process-global ledger registry (DESIGN.md §12).
//!
//! # Metric naming
//!
//! Names are dotted, `crate.metric` (`cache.chunk_hits`,
//! `net.requests`); static dimensions ride as sorted labels in the id:
//! `net.requests{endpoint=server@0}`. Renderers group on the leading
//! segment, and [`RegistrySnapshot::sum_counter`] folds a name across
//! its label sets.
//!
//! # Tracing
//!
//! Aggregates answer "how fast on average"; the [`trace`] module
//! answers "where did *this* request spend its time". A [`Tracer`]
//! records clock-stamped [`Span`]s with parent links, context
//! propagates across RPC envelopes and work-pool submissions via
//! [`TraceContext`]/[`AmbientTrace`], and [`export`] renders drained
//! spans as chrome-trace JSON or a critical-path text summary.

pub mod copies;
pub mod export;
pub mod histogram;
pub mod lockdep;
pub mod registry;
pub mod trace;

pub use copies::{copied_at, copied_total, record_copy, BYTES_COPIED};
pub use export::{chrome_trace_json, critical_path};
pub use histogram::{fmt_ns, Histogram, Summary};
pub use lockdep::{cycles_reported, LOCKDEP_CYCLES};
pub use registry::{Counter, Gauge, HistogramHandle, Registry, RegistrySnapshot};
pub use trace::{
    AmbientTrace, Sampling, Span, SpanGuard, TraceContext, Tracer, DEFAULT_SPAN_CAPACITY,
};
