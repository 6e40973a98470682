//! Span-based request tracing (the per-request complement to the
//! aggregate [`Registry`] counters).
//!
//! # Span model
//!
//! A [`Tracer`] mints trace/span ids from per-tracer atomic counters —
//! never from time or entropy, so identical runs mint identical ids —
//! and records finished [`Span`]s (name, labels, parent, start/end
//! nanoseconds from the registry's injected [`Clock`]) into a bounded,
//! lock-sharded buffer. [`Tracer::drain`] empties the buffer in a
//! deterministic `(trace, id)` order for export
//! (see [`crate::export`]).
//!
//! # Ambient propagation
//!
//! Instrumented code never threads a tracer through call signatures.
//! Instead the current tracer and span context live in thread-locals:
//!
//! * [`install_tracer`] makes a tracer ambient for a scope (a client or
//!   server installs its own around a request).
//! * [`span`] opens a child of the ambient context — or a new sampled
//!   root when there is none — and makes itself the ambient context
//!   until the returned [`SpanGuard`] drops.
//! * [`current_context`] / [`install_context`] move a compact
//!   [`TraceContext`] across a transport envelope (diesel-net).
//! * [`AmbientTrace`] captures both halves at task-submission time and
//!   restores them on a worker thread (diesel-exec).
//!
//! With no ambient tracer, [`span`] is a single thread-local load —
//! the instrumented hot paths cost nothing when tracing is off.
//!
//! # Sampling
//!
//! Roots are sampled per [`Sampling`], parsed from `DIESEL_TRACE`
//! (`off`, `always`, or an integer `n` for 1-in-n). Children of a
//! propagated context always record: the root's sampling decision rides
//! the context, exactly like a sampled bit in a real RPC header.

use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use diesel_util::{Clock, Mutex};

use crate::registry::{Counter, Registry};

/// Compact propagation context: which trace a unit of work belongs to
/// and which span is its parent. Copies across RPC envelopes and
/// work-pool submissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The trace (request tree) this context belongs to.
    pub trace: u64,
    /// The span that is the parent of work done under this context.
    pub span: u64,
}

/// One finished span: a named, labelled interval within a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Trace this span belongs to.
    pub trace: u64,
    /// This span's id, unique within the tracer.
    pub id: u64,
    /// Parent span id, `None` for a trace root.
    pub parent: Option<u64>,
    /// Dotted operation name, e.g. `client.read`.
    pub name: String,
    /// Free-form dimensions, in insertion order.
    pub labels: Vec<(String, String)>,
    /// Start, in nanoseconds on the tracer's clock.
    pub start_ns: u64,
    /// End, in nanoseconds on the tracer's clock.
    pub end_ns: u64,
}

impl Span {
    /// Wall time covered by the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// `name{k=v,…}` rendering (labels in insertion order).
    pub fn display_name(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let dims: Vec<String> = self.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
        format!("{}{{{}}}", self.name, dims.join(","))
    }
}

/// How trace roots are sampled. Children of an existing context always
/// record regardless of the local setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sampling {
    /// Record every root.
    Always,
    /// Record every n-th root (deterministic counter, not random).
    OneIn(u64),
    /// Never start a root locally.
    Off,
}

impl Sampling {
    /// Parse the `DIESEL_TRACE` environment variable (unset = off).
    pub fn from_env() -> Self {
        match std::env::var("DIESEL_TRACE") {
            Ok(v) => Sampling::parse(&v),
            Err(_) => Sampling::Off,
        }
    }

    /// Parse a `DIESEL_TRACE`-style value: `off`/`0`/`false` disables,
    /// `always`/`on`/`1`/`true` records everything, an integer `n ≥ 2`
    /// records one root in `n`. Anything else is off.
    pub fn parse(v: &str) -> Self {
        match v.trim().to_ascii_lowercase().as_str() {
            "" | "off" | "0" | "false" | "none" => Sampling::Off,
            "always" | "on" | "1" | "true" => Sampling::Always,
            other => match other.parse::<u64>() {
                Ok(n) if n >= 2 => Sampling::OneIn(n),
                _ => Sampling::Off,
            },
        }
    }
}

/// Default bound on buffered spans per tracer (across all shards).
pub const DEFAULT_SPAN_CAPACITY: usize = 16_384;

const SPAN_SHARDS: usize = 8;

struct TracerInner {
    clock: Arc<dyn Clock>,
    sampling: Sampling,
    next_trace: AtomicU64,
    next_span: AtomicU64,
    root_seq: AtomicU64,
    shards: Vec<Mutex<Vec<Span>>>,
    shard_capacity: usize,
    recorded: Counter,
    dropped: Counter,
}

/// A span recorder bound to a [`Registry`]'s clock. Cheap to clone;
/// clones share the buffer and id counters.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Tracer {
    /// A tracer sampling per the `DIESEL_TRACE` environment variable.
    pub fn new(registry: &Arc<Registry>) -> Self {
        Tracer::with_sampling(registry, Sampling::from_env())
    }

    /// A tracer that records every root (benches, tests, `dlcmd trace`).
    pub fn enabled(registry: &Arc<Registry>) -> Self {
        Tracer::with_sampling(registry, Sampling::Always)
    }

    /// A tracer with an explicit sampling mode.
    pub fn with_sampling(registry: &Arc<Registry>, sampling: Sampling) -> Self {
        let (recorded, dropped) = if sampling == Sampling::Off {
            // Keep disabled tracers out of the metric namespace so an
            // untraced process renders exactly the same stats as before.
            (Counter::detached(), Counter::detached())
        } else {
            (
                registry.counter("obs.spans_recorded", &[]),
                registry.counter("obs.spans_dropped", &[]),
            )
        };
        Tracer {
            inner: Arc::new(TracerInner {
                clock: Arc::clone(registry.clock()),
                sampling,
                next_trace: AtomicU64::new(1),
                next_span: AtomicU64::new(1),
                root_seq: AtomicU64::new(0),
                shards: (0..SPAN_SHARDS)
                    .map(|_| Mutex::named("obs.trace_shard", Vec::new()))
                    .collect(),
                shard_capacity: DEFAULT_SPAN_CAPACITY / SPAN_SHARDS,
                recorded,
                dropped,
            }),
        }
    }

    /// The sampling mode this tracer was built with.
    pub fn sampling(&self) -> Sampling {
        self.inner.sampling
    }

    /// Drain every buffered span, sorted by `(trace, id)` — a
    /// deterministic order for byte-stable export.
    pub fn drain(&self) -> Vec<Span> {
        let mut out = Vec::new();
        for shard in &self.inner.shards {
            out.append(&mut shard.lock());
        }
        out.sort_by_key(|s| (s.trace, s.id));
        out
    }

    /// Spans recorded (buffered) so far.
    pub fn spans_recorded(&self) -> u64 {
        self.inner.recorded.get()
    }

    /// Spans discarded because the buffer was full.
    pub fn spans_dropped(&self) -> u64 {
        self.inner.dropped.get()
    }

    fn sample_root(&self) -> bool {
        match self.inner.sampling {
            Sampling::Always => true,
            Sampling::Off => false,
            Sampling::OneIn(n) => {
                self.inner.root_seq.fetch_add(1, Ordering::Relaxed).is_multiple_of(n.max(1))
            }
        }
    }

    fn mint_trace(&self) -> u64 {
        self.inner.next_trace.fetch_add(1, Ordering::Relaxed)
    }

    fn mint_span(&self) -> u64 {
        self.inner.next_span.fetch_add(1, Ordering::Relaxed)
    }

    fn finish(&self, span: Span) {
        let idx = (span.id as usize) % self.inner.shards.len();
        if let Some(shard) = self.inner.shards.get(idx) {
            let mut buf = shard.lock();
            if buf.len() >= self.inner.shard_capacity {
                drop(buf);
                self.inner.dropped.inc();
            } else {
                buf.push(span);
                drop(buf);
                self.inner.recorded.inc();
            }
        }
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("sampling", &self.inner.sampling)
            .field("recorded", &self.inner.recorded.get())
            .finish_non_exhaustive()
    }
}

thread_local! {
    /// Fast gate: true iff TRACER holds a tracer.
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
    static CONTEXT: Cell<Option<TraceContext>> = const { Cell::new(None) };
}

/// Is a tracer currently ambient on this thread? Use to skip building
/// span labels on hot paths when tracing is off.
pub fn active() -> bool {
    ENABLED.with(Cell::get)
}

/// The ambient span context, if any (what a transport puts in its
/// request envelope).
pub fn current_context() -> Option<TraceContext> {
    CONTEXT.with(Cell::get)
}

/// Make `tracer` ambient on this thread until the guard drops. A
/// no-op (keeping whatever was ambient) when the tracer samples
/// nothing and no propagated context is live — so installing a
/// disabled tracer around every request costs one thread-local read.
pub fn install_tracer(tracer: &Tracer) -> TracerGuard {
    if tracer.sampling() == Sampling::Off && CONTEXT.with(Cell::get).is_none() {
        return TracerGuard { prev: None, _not_send: PhantomData };
    }
    let prev = TRACER.with(|cell| cell.borrow_mut().replace(tracer.clone()));
    ENABLED.with(|e| e.set(true));
    TracerGuard { prev: Some(prev), _not_send: PhantomData }
}

/// Restores the previously ambient tracer on drop.
#[derive(Debug)]
pub struct TracerGuard {
    /// `Some(previous)` when an install actually happened.
    prev: Option<Option<Tracer>>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for TracerGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            ENABLED.with(|e| e.set(prev.is_some()));
            TRACER.with(|cell| *cell.borrow_mut() = prev);
        }
    }
}

/// Replace the ambient span context (e.g. with one received in a
/// transport envelope) until the guard drops.
pub fn install_context(ctx: Option<TraceContext>) -> ContextGuard {
    let prev = CONTEXT.with(|c| c.replace(ctx));
    ContextGuard { prev, _not_send: PhantomData }
}

/// Restores the previously ambient context on drop.
#[derive(Debug)]
pub struct ContextGuard {
    prev: Option<TraceContext>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CONTEXT.with(|c| c.set(self.prev));
    }
}

/// Both halves of the ambient state, captured on one thread and
/// restorable on another (work-pool submission → worker).
#[derive(Clone, Debug, Default)]
pub struct AmbientTrace {
    tracer: Option<Tracer>,
    ctx: Option<TraceContext>,
}

impl AmbientTrace {
    /// Capture this thread's ambient tracer and context.
    pub fn capture() -> Self {
        if !ENABLED.with(Cell::get) {
            // No tracer ⇒ nothing worth carrying (a bare context can
            // only have leaked from a mis-nested guard).
            return AmbientTrace::default();
        }
        AmbientTrace { tracer: TRACER.with(|t| t.borrow().clone()), ctx: CONTEXT.with(Cell::get) }
    }

    /// True when there is nothing to restore.
    pub fn is_empty(&self) -> bool {
        self.tracer.is_none() && self.ctx.is_none()
    }

    /// Install the captured state on the current thread until the guard
    /// drops. Near-free when both the capture and the thread's current
    /// state are empty.
    pub fn install(&self) -> AmbientGuard {
        if self.is_empty() && !ENABLED.with(Cell::get) && CONTEXT.with(Cell::get).is_none() {
            return AmbientGuard { prev: None, _not_send: PhantomData };
        }
        let prev_tracer = TRACER.with(|t| t.borrow_mut().take());
        TRACER.with(|t| *t.borrow_mut() = self.tracer.clone());
        ENABLED.with(|e| e.set(self.tracer.is_some()));
        let prev_ctx = CONTEXT.with(|c| c.replace(self.ctx));
        AmbientGuard { prev: Some((prev_tracer, prev_ctx)), _not_send: PhantomData }
    }
}

/// Restores the pre-install ambient state on drop.
#[derive(Debug)]
pub struct AmbientGuard {
    prev: Option<(Option<Tracer>, Option<TraceContext>)>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for AmbientGuard {
    fn drop(&mut self) {
        if let Some((tracer, ctx)) = self.prev.take() {
            ENABLED.with(|e| e.set(tracer.is_some()));
            TRACER.with(|t| *t.borrow_mut() = tracer);
            CONTEXT.with(|c| c.set(ctx));
        }
    }
}

struct ActiveSpan {
    tracer: Tracer,
    trace: u64,
    id: u64,
    parent: Option<u64>,
    name: String,
    labels: Vec<(String, String)>,
    start_ns: u64,
    prev_ctx: Option<TraceContext>,
}

/// An open span. While it lives, it is the ambient context on its
/// thread; dropping it stamps the end time, records the span, and
/// restores the previous context.
#[derive(Debug, Default)]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl SpanGuard {
    /// This span's propagation context; `None` for a disabled span.
    pub fn context(&self) -> Option<TraceContext> {
        self.active.as_ref().map(|a| TraceContext { trace: a.trace, span: a.id })
    }

    /// Is this span actually recording?
    pub fn enabled(&self) -> bool {
        self.active.is_some()
    }

    /// Attach a label decided after the span opened (e.g. hit/miss).
    pub fn label(&mut self, key: &str, value: &str) {
        if let Some(a) = self.active.as_mut() {
            a.labels.push((key.to_owned(), value.to_owned()));
        }
    }
}

impl std::fmt::Debug for ActiveSpan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActiveSpan").field("name", &self.name).field("id", &self.id).finish()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(a) = self.active.take() {
            CONTEXT.with(|c| c.set(a.prev_ctx));
            let end_ns = a.tracer.inner.clock.now_ns();
            a.tracer.finish(Span {
                trace: a.trace,
                id: a.id,
                parent: a.parent,
                name: a.name,
                labels: a.labels,
                start_ns: a.start_ns,
                end_ns,
            });
        }
    }
}

/// Open a span named `name` under the ambient tracer: a child of the
/// ambient context when one is live, otherwise a new root subject to
/// the tracer's sampling. Disabled (a cheap no-op guard) when no
/// tracer is ambient or the root is not sampled.
pub fn span(name: &str, labels: &[(&str, &str)]) -> SpanGuard {
    if !ENABLED.with(Cell::get) {
        return SpanGuard::default();
    }
    let Some(tracer) = TRACER.with(|t| t.borrow().clone()) else {
        return SpanGuard::default();
    };
    let (trace, parent) = match CONTEXT.with(Cell::get) {
        Some(ctx) => (ctx.trace, Some(ctx.span)),
        None => {
            if !tracer.sample_root() {
                return SpanGuard::default();
            }
            (tracer.mint_trace(), None)
        }
    };
    let id = tracer.mint_span();
    let prev_ctx = CONTEXT.with(|c| c.replace(Some(TraceContext { trace, span: id })));
    let start_ns = tracer.inner.clock.now_ns();
    SpanGuard {
        active: Some(ActiveSpan {
            tracer,
            trace,
            id,
            parent,
            name: name.to_owned(),
            labels: labels.iter().map(|(k, v)| ((*k).to_owned(), (*v).to_owned())).collect(),
            start_ns,
            prev_ctx,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diesel_util::MockClock;

    fn rig(sampling: Sampling) -> (Arc<MockClock>, Arc<Registry>, Tracer) {
        let clock = Arc::new(MockClock::new());
        let registry = Arc::new(Registry::new(clock.clone()));
        let tracer = Tracer::with_sampling(&registry, sampling);
        (clock, registry, tracer)
    }

    #[test]
    fn spans_nest_via_ambient_context() {
        let (clock, _reg, tracer) = rig(Sampling::Always);
        {
            let _t = install_tracer(&tracer);
            let root = span("client.read", &[("path", "a")]);
            assert!(root.enabled());
            clock.advance(10);
            {
                let child = span("kv.get", &[]);
                assert_eq!(child.context().map(|c| c.trace), root.context().map(|c| c.trace));
                clock.advance(5);
            }
            clock.advance(1);
        }
        let spans = tracer.drain();
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|s| s.name == "client.read").unwrap();
        let child = spans.iter().find(|s| s.name == "kv.get").unwrap();
        assert_eq!(root.parent, None);
        assert_eq!(child.parent, Some(root.id));
        assert_eq!(child.trace, root.trace);
        assert_eq!(root.duration_ns(), 16);
        assert_eq!(child.duration_ns(), 5);
        assert_eq!(root.labels, vec![("path".to_owned(), "a".to_owned())]);
        assert_eq!(tracer.spans_recorded(), 2);
    }

    #[test]
    fn no_ambient_tracer_means_no_spans() {
        let (_, _, tracer) = rig(Sampling::Always);
        let g = span("orphan", &[]);
        assert!(!g.enabled());
        drop(g);
        assert!(tracer.drain().is_empty());
    }

    #[test]
    fn off_sampling_roots_nothing_but_children_of_contexts_record() {
        let (_, _, tracer) = rig(Sampling::Off);
        {
            let _t = install_tracer(&tracer);
            // install_tracer is a no-op for Off with no live context.
            assert!(!active());
        }
        // A propagated context forces recording even at Off.
        let ctx = TraceContext { trace: 7, span: 3 };
        {
            let _c = install_context(Some(ctx));
            let _t = install_tracer(&tracer);
            assert!(active());
            let s = span("server.handle", &[]);
            assert!(s.enabled());
        }
        let spans = tracer.drain();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans.first().map(|s| (s.trace, s.parent)), Some((7, Some(3))));
    }

    #[test]
    fn one_in_n_sampling_is_a_deterministic_counter() {
        let (_, _, tracer) = rig(Sampling::OneIn(3));
        let _t = install_tracer(&tracer);
        for _ in 0..9 {
            let _s = span("root", &[]);
        }
        drop(_t);
        assert_eq!(tracer.drain().len(), 3, "every 3rd root records");
    }

    #[test]
    fn ids_are_deterministic_across_identical_runs() {
        let run = || {
            let (_, _, tracer) = rig(Sampling::Always);
            let _t = install_tracer(&tracer);
            for i in 0..4 {
                let mut s = span("op", &[]);
                s.label("i", &i.to_string());
                let _child = span("inner", &[]);
            }
            drop(_t);
            tracer.drain()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn buffer_bound_drops_and_counts() {
        let (_, registry, tracer) = rig(Sampling::Always);
        let _t = install_tracer(&tracer);
        for _ in 0..(DEFAULT_SPAN_CAPACITY + 100) {
            let _s = span("tiny", &[]);
        }
        drop(_t);
        assert_eq!(tracer.spans_recorded(), DEFAULT_SPAN_CAPACITY as u64);
        assert_eq!(tracer.spans_dropped(), 100);
        assert_eq!(registry.snapshot().counter("obs.spans_dropped"), 100);
        assert_eq!(tracer.drain().len(), DEFAULT_SPAN_CAPACITY);
    }

    #[test]
    fn ambient_capture_restores_on_another_scope() {
        let (_, _, tracer) = rig(Sampling::Always);
        let captured = {
            let _t = install_tracer(&tracer);
            let root = span("root", &[]);
            let amb = AmbientTrace::capture();
            assert!(!amb.is_empty());
            drop(root);
            amb
        };
        // Simulates a worker thread: nothing ambient until installed.
        assert!(!active());
        {
            let _g = captured.install();
            assert!(active());
            let child = span("worker.task", &[]);
            assert!(child.enabled());
        }
        assert!(!active());
        let spans = tracer.drain();
        let root = spans.iter().find(|s| s.name == "root").unwrap();
        let child = spans.iter().find(|s| s.name == "worker.task").unwrap();
        assert_eq!(child.parent, Some(root.id));
    }

    #[test]
    fn empty_ambient_install_is_a_noop() {
        let amb = AmbientTrace::capture();
        assert!(amb.is_empty());
        let _g = amb.install();
        assert!(!active());
    }

    #[test]
    fn sampling_parse_table() {
        assert_eq!(Sampling::parse("off"), Sampling::Off);
        assert_eq!(Sampling::parse("0"), Sampling::Off);
        assert_eq!(Sampling::parse(""), Sampling::Off);
        assert_eq!(Sampling::parse("junk"), Sampling::Off);
        assert_eq!(Sampling::parse("always"), Sampling::Always);
        assert_eq!(Sampling::parse("1"), Sampling::Always);
        assert_eq!(Sampling::parse("ON"), Sampling::Always);
        assert_eq!(Sampling::parse("8"), Sampling::OneIn(8));
    }

    #[test]
    fn display_name_includes_labels() {
        let s = Span {
            trace: 1,
            id: 2,
            parent: None,
            name: "net.call".into(),
            labels: vec![("endpoint".into(), "server@0".into())],
            start_ns: 0,
            end_ns: 0,
        };
        assert_eq!(s.display_name(), "net.call{endpoint=server@0}");
    }
}
