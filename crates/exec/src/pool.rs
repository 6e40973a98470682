//! [`WorkPool`]: named worker threads over a bounded queue, plus the
//! structured fan-out built on it — over borrowed data
//! ([`WorkPool::try_map`]) and over a mutable slice's chunks
//! ([`WorkPool::for_each_chunk_mut`]). Jobs that wait on I/O go to the
//! pool's blocking lane instead ([`WorkPool::spawn_blocking`]), fire
//! and forget: there are no task handles and no cancellation.
//!
//! Two properties hold everywhere:
//!
//! * **Determinism** — results land in per-item slots, so fan-out
//!   output (and the first error of a fallible fan-out) is identical
//!   for any worker count, including the inline (`workers <= 1`) mode
//!   that runs everything on the calling thread.
//! * **No idle deadlock** — a job that finds the pool queue full runs
//!   inline on the submitter instead of blocking, and a thread waiting
//!   for a scope *helps*: it drains jobs from the pool queue while it
//!   waits, so nested fan-out (a pooled task that itself fans out on
//!   the same pool) cannot starve even when every worker is busy.

use diesel_obs::{AmbientTrace, Counter, Gauge, HistogramHandle, Registry};
use diesel_util::{Clock, Condvar, Mutex};
use std::any::Any;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use crate::lane::Lane;
use crate::queue::Bounded;
use crate::ExecConfig;

pub(crate) type Job = Box<dyn FnOnce() + Send + 'static>;

/// Registry handles for one pool's `exec.*` metrics, labelled
/// `{pool=<name>}`.
#[derive(Clone)]
pub(crate) struct PoolMetrics {
    submitted: Counter,
    completed: Counter,
    panicked: Counter,
    queue_depth: Gauge,
    task_ns: HistogramHandle,
}

impl PoolMetrics {
    fn new(registry: &Registry, name: &str) -> Self {
        let labels = [("pool", name)];
        PoolMetrics {
            submitted: registry.counter("exec.tasks_submitted", &labels),
            completed: registry.counter("exec.tasks_completed", &labels),
            panicked: registry.counter("exec.tasks_panicked", &labels),
            queue_depth: registry.gauge("exec.queue_depth", &labels),
            task_ns: registry.histogram("exec.task_ns", &labels),
        }
    }
}

/// Run one job: time it, count it, and contain its panic, counting it
/// in `exec.tasks_panicked` (a scope's jobs catch their own panics to
/// deliver the payload; this outer catch keeps worker and lane threads
/// alive no matter what).
pub(crate) fn run_job(metrics: &PoolMetrics, clock: &Arc<dyn Clock>, job: Job) {
    let t0 = clock.now_ns();
    let out = catch_unwind(AssertUnwindSafe(job));
    metrics.task_ns.record_ns(clock.now_ns().saturating_sub(t0));
    metrics.completed.inc();
    if out.is_err() {
        metrics.panicked.inc();
    }
}

struct WorkerCtx {
    queue: Arc<Bounded<Job>>,
    metrics: PoolMetrics,
    clock: Arc<dyn Clock>,
}

fn worker_loop(ctx: WorkerCtx) {
    while let Some(job) = ctx.queue.pop() {
        ctx.metrics.queue_depth.set(ctx.queue.len() as u64);
        run_job(&ctx.metrics, &ctx.clock, job);
    }
}

struct PoolInner {
    name: String,
    workers: usize,
    queue: Arc<Bounded<Job>>,
    started: AtomicBool,
    spawned: AtomicUsize,
    start_lock: Mutex<()>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    lane: Arc<Lane>,
    registry: Arc<Registry>,
    clock: Arc<dyn Clock>,
    metrics: PoolMetrics,
}

impl PoolInner {
    /// Whether submissions must run on the calling thread right now:
    /// the pool is configured inline, or every worker failed to spawn.
    fn inline_now(&self) -> bool {
        self.workers <= 1
            || (self.started.load(Ordering::Acquire) && self.spawned.load(Ordering::Acquire) == 0)
    }

    /// Spawn the worker threads on first use (lazily, so pools embedded
    /// in servers and caches cost nothing until work arrives).
    fn ensure_started(&self) {
        if self.workers <= 1 || self.started.load(Ordering::Acquire) {
            return;
        }
        let _g = self.start_lock.lock();
        if self.started.load(Ordering::Acquire) {
            return;
        }
        let mut handles = self.handles.lock();
        for i in 0..self.workers {
            let ctx = WorkerCtx {
                queue: Arc::clone(&self.queue),
                metrics: self.metrics.clone(),
                clock: Arc::clone(&self.clock),
            };
            let spawned = std::thread::Builder::new()
                .name(format!("{}-{i}", self.name))
                .spawn(move || worker_loop(ctx));
            if let Ok(h) = spawned {
                handles.push(h);
                self.spawned.fetch_add(1, Ordering::AcqRel);
            }
        }
        drop(handles);
        self.started.store(true, Ordering::Release);
    }

    /// Queue `job` for the workers, or run it on the calling thread when
    /// the queue is full (or closed): a pooled task that fans out on its
    /// own pool can never deadlock on its own queue.
    fn submit_or_run(&self, job: Job) {
        self.metrics.submitted.inc();
        if self.inline_now() {
            run_job(&self.metrics, &self.clock, job);
            return;
        }
        self.ensure_started();
        match self.queue.try_push(job) {
            Ok(()) => self.metrics.queue_depth.set(self.queue.len() as u64),
            Err(job) => run_job(&self.metrics, &self.clock, job),
        }
    }
}

impl Drop for PoolInner {
    fn drop(&mut self) {
        self.queue.close();
        for h in self.handles.get_mut().drain(..) {
            let _ = h.join();
        }
        self.lane.close();
    }
}

/// A named, shared worker pool with a bounded submission queue.
///
/// `WorkPool` is cheap to clone (all clones share the workers); inject
/// it the way a [`Clock`] is injected — construct
/// once per deployment (or take [`global()`]) and hand copies to every
/// layer that runs background work.
#[derive(Clone)]
pub struct WorkPool {
    inner: Arc<PoolInner>,
}

impl WorkPool {
    /// A pool with a private metrics registry.
    pub fn new(name: &str, config: ExecConfig) -> Self {
        Self::with_registry(name, config, Arc::new(Registry::default()))
    }

    /// A pool whose `exec.*` metrics land in a shared `registry`.
    pub fn with_registry(name: &str, config: ExecConfig, registry: Arc<Registry>) -> Self {
        let metrics = PoolMetrics::new(&registry, name);
        let clock = Arc::clone(registry.clock());
        let lane = Arc::new(Lane::new(name, metrics.clone(), Arc::clone(&clock)));
        let workers = config.workers.max(1);
        WorkPool {
            inner: Arc::new(PoolInner {
                name: name.to_owned(),
                workers,
                queue: Arc::new(Bounded::new(4 * workers)),
                started: AtomicBool::new(false),
                spawned: AtomicUsize::new(0),
                start_lock: Mutex::named("exec.pool_start", ()),
                handles: Mutex::named("exec.pool_handles", Vec::new()),
                lane,
                registry,
                clock,
                metrics,
            }),
        }
    }

    /// A deterministic single-threaded pool: everything runs inline on
    /// the calling thread, in submission order.
    pub fn inline(name: &str) -> Self {
        Self::new(name, ExecConfig::inline())
    }

    /// The pool's name (its `{pool=…}` metric label).
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Configured worker count.
    pub fn workers(&self) -> usize {
        self.inner.workers
    }

    /// The registry holding this pool's `exec.*` metrics.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.inner.registry
    }

    pub(crate) fn clock(&self) -> &Arc<dyn Clock> {
        &self.inner.clock
    }

    /// Run `f`, a job that may wait on I/O, on the pool's blocking lane
    /// rather than on one of its CPU workers: on an idle lane thread, or
    /// on a new one when no lane thread is idle. Lane threads are kept
    /// for reuse until the pool drops, and the drop joins them. The
    /// lane has no width setting; it is as wide as its callers keep it
    /// busy. Fire and forget: the submitter's ambient trace is carried
    /// into the job, a panic is contained and counted in
    /// `exec.tasks_panicked`, and a caller that must know when `f` ends
    /// has `f` tell it. An inline pool runs `f` on the calling thread.
    pub fn spawn_blocking(&self, f: impl FnOnce() + Send + 'static) {
        let inner = &self.inner;
        inner.metrics.submitted.inc();
        // Spans opened by the job parent the span that submitted it.
        let ambient = AmbientTrace::capture();
        let job: Job = Box::new(move || {
            let _trace = ambient.install();
            f();
        });
        let refused = if inner.workers <= 1 { Err(job) } else { inner.lane.submit(job) };
        if let Err(job) = refused {
            run_job(&inner.metrics, &inner.clock, job);
        }
    }

    /// Structured fan-out over borrowed data, like `std::thread::scope`
    /// but on the pool: every job spawned inside `f` completes before
    /// `scope` returns, and the first captured panic is re-raised on
    /// the caller.
    fn scope<'env, F, R>(&'env self, f: F) -> R
    where
        F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
    {
        let state = Arc::new(ScopeState {
            core: Mutex::named("exec.scope", ScopeCore { pending: 0, panic: None }),
            done: Condvar::new(),
        });
        let scope = Scope { pool: self, state: Arc::clone(&state), _env: PhantomData };
        let result = {
            // Wait for every spawned job even if `f` itself unwinds, so
            // borrows captured by the jobs stay alive long enough.
            struct WaitGuard<'a> {
                pool: &'a WorkPool,
                state: &'a Arc<ScopeState>,
            }
            impl Drop for WaitGuard<'_> {
                fn drop(&mut self) {
                    self.pool.wait_scope(self.state);
                }
            }
            let _guard = WaitGuard { pool: self, state: &state };
            f(&scope)
        };
        if let Some(payload) = state.core.lock().panic.take() {
            std::panic::resume_unwind(payload);
        }
        result
    }

    /// Block until `state.pending` reaches zero, draining pool jobs
    /// while waiting ("helping"), so scopes opened from inside pooled
    /// tasks make progress even when every worker is occupied.
    fn wait_scope(&self, state: &Arc<ScopeState>) {
        loop {
            if state.core.lock().pending == 0 {
                return;
            }
            if let Some(job) = self.inner.queue.try_pop() {
                self.inner.metrics.queue_depth.set(self.inner.queue.len() as u64);
                run_job(&self.inner.metrics, &self.inner.clock, job);
                continue;
            }
            let core = state.core.lock();
            if core.pending == 0 {
                return;
            }
            // The timeout re-checks the queue periodically; completion of
            // our own jobs notifies `done` directly.
            let (guard, _timed_out) = state.done.wait_timeout(core, Duration::from_millis(2));
            drop(guard);
        }
    }

    /// Fallible fan-out: runs `f` over every item, returns the results
    /// in input order, or the error of the *lowest-indexed* failing
    /// item — the same error the serial loop would have returned first,
    /// for any worker count. A panic in `f` is re-raised on the caller
    /// once every item has run.
    ///
    /// On an inline pool this *is* the serial loop on the caller: no
    /// scope, no boxed job, no clock read. It still counts each item in
    /// `exec.tasks_submitted` / `exec.tasks_completed` (and
    /// `exec.tasks_panicked`); `exec.task_ns` is not recorded.
    pub fn try_map<I, T, E, F>(&self, items: Vec<I>, f: F) -> Result<Vec<T>, E>
    where
        I: Send,
        T: Send,
        E: Send,
        F: Fn(usize, I) -> Result<T, E> + Sync,
    {
        if self.inner.inline_now() {
            return self.try_map_inline(items, f);
        }
        let n = items.len();
        let mut slots: Vec<Option<Result<T, E>>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        self.scope(|s| {
            let f = &f;
            for ((i, item), slot) in items.into_iter().enumerate().zip(slots.iter_mut()) {
                s.spawn(move || {
                    *slot = Some(f(i, item));
                });
            }
        });
        // Every slot is filled once the scope has waited; a panic would
        // have resumed above.
        let mut out = Vec::with_capacity(n);
        for r in slots.into_iter().flatten() {
            out.push(r?);
        }
        Ok(out)
    }

    fn try_map_inline<I, T, E, F>(&self, items: Vec<I>, f: F) -> Result<Vec<T>, E>
    where
        F: Fn(usize, I) -> Result<T, E>,
    {
        let metrics = &self.inner.metrics;
        let n = items.len() as u64;
        metrics.submitted.add(n);
        let mut out = Vec::with_capacity(items.len());
        let mut first_err = None;
        let mut first_panic = None;
        for (i, item) in items.into_iter().enumerate() {
            match catch_unwind(AssertUnwindSafe(|| f(i, item))) {
                Ok(Ok(v)) => out.push(v),
                Ok(Err(e)) => {
                    first_err.get_or_insert(e);
                }
                Err(p) => {
                    metrics.panicked.inc();
                    first_panic.get_or_insert(p);
                }
            }
        }
        metrics.completed.add(n);
        if let Some(p) = first_panic {
            std::panic::resume_unwind(p);
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }

    /// Apply `f(chunk_index, chunk)` to every `size`-sized chunk of
    /// `data` (last chunk may be shorter) across the pool. Chunk
    /// indices are global and each chunk is exactly what `chunks_mut`
    /// would produce, so the result is identical to the serial loop.
    ///
    /// Panics if `size` is zero (same contract as `chunks_mut`).
    pub fn for_each_chunk_mut<T, F>(&self, data: &mut [T], size: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(size > 0, "for_each_chunk_mut: chunk size must be non-zero");
        let n_chunks = data.len().div_ceil(size);
        let workers = self.workers().min(n_chunks);
        if workers <= 1 {
            for (i, chunk) in data.chunks_mut(size).enumerate() {
                f(i, chunk);
            }
            return;
        }
        // One contiguous run of whole chunks per worker.
        let chunks_per_worker = n_chunks.div_ceil(workers);
        let stride = chunks_per_worker * size;
        self.scope(|s| {
            let f = &f;
            let mut rest = data;
            let mut base = 0usize;
            while !rest.is_empty() {
                let take = stride.min(rest.len());
                let (head, tail) = rest.split_at_mut(take);
                rest = tail;
                let first = base;
                s.spawn(move || {
                    for (i, chunk) in head.chunks_mut(size).enumerate() {
                        f(first + i, chunk);
                    }
                });
                base += chunks_per_worker;
            }
        });
    }
}

impl std::fmt::Debug for WorkPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkPool")
            .field("name", &self.inner.name)
            .field("workers", &self.inner.workers)
            .field("queued", &self.inner.queue.len())
            .finish()
    }
}

/// The process-wide default pool, sized by `DIESEL_EXEC_WORKERS` (see
/// [`ExecConfig::from_env`]). Created lazily; layers that are not
/// handed an explicit pool share this one.
pub fn global() -> &'static WorkPool {
    static GLOBAL: OnceLock<WorkPool> = OnceLock::new();
    GLOBAL.get_or_init(|| WorkPool::new("global", ExecConfig::from_env()))
}

// ---- scopes ----

struct ScopeCore {
    pending: usize,
    /// The first job panic's payload, re-raised when the scope ends.
    panic: Option<Box<dyn Any + Send>>,
}

struct ScopeState {
    core: Mutex<ScopeCore>,
    done: Condvar,
}

/// A fan-out scope created by [`WorkPool::scope`]. Jobs may borrow
/// anything that outlives the scope (`'env`).
struct Scope<'scope, 'env: 'scope> {
    pool: &'scope WorkPool,
    state: Arc<ScopeState>,
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Run `f` on the pool (or inline when the queue is full — the
    /// backpressure path). The closure may borrow from `'env`.
    fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        self.state.core.lock().pending += 1;
        let state = Arc::clone(&self.state);
        let panicked = self.pool.inner.metrics.panicked.clone();
        // Restore the submitter's trace state in the worker (or inline
        // on the full-queue path — install is idempotent there).
        let ambient = AmbientTrace::capture();
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            let _trace = ambient.install();
            let out = catch_unwind(AssertUnwindSafe(f));
            let mut core = state.core.lock();
            if let Err(p) = out {
                panicked.inc();
                core.panic.get_or_insert(p);
            }
            core.pending -= 1;
            drop(core);
            state.done.notify_all();
        });
        // SAFETY: `WorkPool::scope` does not return (or resume an
        // unwind) until `pending` reaches zero, so every `'env` borrow
        // captured by the job strictly outlives its execution; the
        // transmute only erases that lifetime.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(job)
        };
        self.pool.inner.submit_or_run(job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{channel, RecvTimeoutError};
    use std::thread::Thread;

    fn pool(workers: usize) -> WorkPool {
        WorkPool::new("t", ExecConfig::workers(workers))
    }

    /// A panic payload's message.
    fn panic_text(p: &(dyn Any + Send)) -> &str {
        let text = p.downcast_ref::<&str>().copied();
        text.or_else(|| p.downcast_ref::<String>().map(String::as_str)).unwrap_or("")
    }

    #[test]
    fn the_pool_queue_holds_four_jobs_per_worker() {
        assert_eq!(pool(3).inner.queue.capacity, 12);
        // Zero workers still yields a sane capacity.
        assert_eq!(pool(0).inner.queue.capacity, 4);
    }

    #[test]
    fn scope_borrows_and_waits() {
        let p = pool(4);
        let mut hits = [0u8; 16];
        p.scope(|s| {
            for slot in hits.iter_mut() {
                s.spawn(move || *slot = 1);
            }
        });
        assert!(hits.iter().all(|&h| h == 1));
    }

    #[test]
    fn scope_propagates_panics() {
        let p = pool(3);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            p.scope(|s| {
                s.spawn(|| panic!("inner failure"));
            });
        }));
        let payload = caught.unwrap_err();
        assert!(panic_text(payload.as_ref()).contains("inner failure"));
    }

    #[test]
    fn try_map_is_index_aligned_for_any_worker_count() {
        let items: Vec<u64> = (0..100).collect();
        let reference: Vec<u64> = items.iter().map(|&x| x * x).collect();
        for w in [1, 2, 8] {
            let p = pool(w);
            let out = p.try_map(items.clone(), |_, x| Ok::<_, ()>(x * x));
            assert_eq!(out, Ok(reference.clone()), "workers={w}");
        }
    }

    #[test]
    fn try_map_returns_lowest_index_error() {
        for w in [1, 2, 8] {
            let p = pool(w);
            let out: Result<Vec<u32>, String> = p.try_map((0..50).collect(), |i, x: u32| {
                if x % 7 == 3 {
                    Err(format!("bad {i}"))
                } else {
                    Ok(x)
                }
            });
            // Items 3, 10, 17… fail; index 3 must win for every worker count.
            assert_eq!(out.unwrap_err(), "bad 3", "workers={w}");
        }
    }

    #[test]
    fn nested_fan_out_does_not_deadlock() {
        // Tasks that themselves fan out on the same (small) pool: the
        // scope helper drains the queue while waiting.
        let p = pool(2);
        let outer = p.try_map((0..4u64).collect(), |_, x| {
            let inner = p.try_map((0..8u64).collect(), |_, y| Ok::<_, ()>(x * 100 + y))?;
            Ok::<u64, ()>(inner.iter().sum())
        });
        let expect: Vec<u64> = (0..4u64).map(|x| (0..8u64).map(|y| x * 100 + y).sum()).collect();
        assert_eq!(outer, Ok(expect));
    }

    #[test]
    fn inline_try_map_is_a_counted_loop_on_the_caller() {
        let p = pool(1);
        let caller = std::thread::current().id();
        let seen = Mutex::new(Vec::new());
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            p.try_map((0..6).collect::<Vec<u32>>(), |i, x| {
                assert_eq!(std::thread::current().id(), caller, "item {i} left the caller");
                seen.lock().push(i);
                if x == 2 {
                    panic!("item {x} failed");
                }
                Ok::<_, ()>(x)
            })
        }));
        let payload = caught.unwrap_err();
        assert!(panic_text(payload.as_ref()).contains("item 2 failed"));
        assert_eq!(*seen.lock(), vec![0, 1, 2, 3, 4, 5], "in index order, past the panic");
        let snap = p.registry().snapshot();
        assert_eq!(snap.counter("exec.tasks_submitted{pool=t}"), 6);
        assert_eq!(snap.counter("exec.tasks_completed{pool=t}"), 6);
        assert_eq!(snap.counter("exec.tasks_panicked{pool=t}"), 1);
    }

    #[test]
    fn for_each_chunk_mut_matches_serial() {
        for len in [0usize, 1, 7, 64, 1003] {
            for size in [1usize, 3, 64, 2000] {
                for w in [1usize, 4] {
                    let p = pool(w);
                    let mut par: Vec<u64> = (0..len as u64).collect();
                    let mut ser = par.clone();
                    p.for_each_chunk_mut(&mut par, size, |i, c| {
                        for v in c.iter_mut() {
                            *v = v.wrapping_mul(31).wrapping_add(i as u64);
                        }
                    });
                    for (i, c) in ser.chunks_mut(size).enumerate() {
                        for v in c.iter_mut() {
                            *v = v.wrapping_mul(31).wrapping_add(i as u64);
                        }
                    }
                    assert_eq!(par, ser, "len={len} size={size} workers={w}");
                }
            }
        }
    }

    #[test]
    fn metrics_flow_into_the_shared_registry() {
        let registry = Arc::new(Registry::default());
        let p = WorkPool::with_registry("svc", ExecConfig::workers(2), registry.clone());
        p.try_map((0..10).collect::<Vec<u32>>(), |_, x| Ok::<_, ()>(x + 1)).unwrap();
        // A worker counts a job once it has returned, which can be after
        // `try_map` has: the drop joins the workers.
        drop(p);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("exec.tasks_submitted{pool=svc}"), 10);
        assert_eq!(snap.counter("exec.tasks_completed{pool=svc}"), 10);
        assert_eq!(snap.counter("exec.tasks_panicked{pool=svc}"), 0);
    }

    #[test]
    fn global_pool_is_shared() {
        let a = global();
        let b = global();
        assert!(Arc::ptr_eq(&a.inner, &b.inner));
        assert!(a.workers() >= 1);
    }

    #[test]
    fn fanned_out_tasks_inherit_the_submitters_trace() {
        use diesel_obs::{trace, Tracer};
        for w in [1, 4] {
            let p = pool(w);
            let tracer = Tracer::enabled(p.registry());
            let _t = trace::install_tracer(&tracer);
            {
                let _root = trace::span("fanout", &[]);
                p.try_map((0..4).collect::<Vec<u32>>(), |_, _| {
                    let _s = trace::span("task", &[]);
                    Ok::<_, ()>(())
                })
                .unwrap();
            }
            let spans = tracer.drain();
            let root = spans.iter().find(|s| s.name == "fanout").unwrap();
            let tasks: Vec<_> = spans.iter().filter(|s| s.name == "task").collect();
            assert_eq!(tasks.len(), 4, "workers={w}");
            assert!(
                tasks.iter().all(|s| s.trace == root.trace && s.parent == Some(root.id)),
                "workers={w}: every task span hangs under the fanout span"
            );
        }
    }

    /// Run `n` blocking jobs that can only finish together, so each
    /// holds a lane thread of its own; returns the threads they ran on.
    fn blocking_wave(p: &WorkPool, n: usize) -> Vec<Thread> {
        let all_in = Arc::new(std::sync::Barrier::new(n));
        let (tx, rx) = channel();
        for _ in 0..n {
            let (all_in, tx) = (Arc::clone(&all_in), tx.clone());
            p.spawn_blocking(move || {
                all_in.wait();
                tx.send(std::thread::current()).unwrap();
            });
        }
        rx.iter().take(n).collect()
    }

    /// Whether `thread` is one of pool `t`'s lane threads (`t-io-<n>`),
    /// not one of its CPU workers (`t-<n>`).
    fn on_the_lane(thread: &Thread) -> bool {
        thread.name().is_some_and(|name| name.starts_with("t-io-"))
    }

    /// Yield until every lane thread started so far is parked.
    fn lane_parked(p: &WorkPool) -> usize {
        loop {
            let (threads, idle) = p.inner.lane.threads();
            if threads == idle {
                return threads;
            }
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_second_blocking_wave_reuses_the_first_waves_threads() {
        const N: usize = 5;
        let p = pool(2);
        let first = blocking_wave(&p, N);
        assert!(first.iter().all(on_the_lane), "a blocking job ran on a CPU worker");
        let first: Vec<_> = first.iter().map(Thread::id).collect();
        let mut distinct = first.clone();
        distinct.sort_by_key(|t| format!("{t:?}"));
        distinct.dedup();
        assert_eq!(distinct.len(), N, "the lane is as wide as the wave keeps it busy");
        assert_eq!(lane_parked(&p), N);
        let second = blocking_wave(&p, N);
        assert!(second.iter().all(on_the_lane), "a blocking job ran on a CPU worker");
        assert!(second.iter().all(|t| first.contains(&t.id())), "a parked thread was not reused");
        assert_eq!(lane_parked(&p), N, "no thread was started for the second wave");
        let snap = p.registry().snapshot();
        assert_eq!(snap.counter("exec.tasks_submitted{pool=t}"), 2 * N as u64);
        assert_eq!(snap.counter("exec.tasks_completed{pool=t}"), 2 * N as u64);
    }

    #[test]
    fn a_blocking_job_keeps_the_workers_free() {
        // Four jobs wait on the gate, more than the pool has workers:
        // all four start, each on a lane thread and none on a worker.
        let p = pool(2);
        let gate = Arc::new(Bounded::<()>::new(4));
        let (tx, rx) = channel();
        for _ in 0..4 {
            let (gate, tx) = (Arc::clone(&gate), tx.clone());
            p.spawn_blocking(move || {
                tx.send(std::thread::current()).unwrap();
                gate.pop();
            });
        }
        let ten_s = Duration::from_secs(10);
        let started: Vec<Result<Thread, RecvTimeoutError>> =
            (0..4).map(|_| rx.recv_timeout(ten_s)).collect();
        for _ in 0..4 {
            gate.push(()).unwrap();
        }
        for thread in started {
            let thread = thread.expect("a gated job never started");
            assert!(on_the_lane(&thread), "a blocking job ran on {:?}", thread.name());
        }
    }

    #[test]
    fn a_blocking_job_panic_is_counted_and_the_lane_runs_the_next_job() {
        let p = pool(2);
        p.spawn_blocking(|| panic!("kaboom {}", 9));
        let panicked = || p.registry().snapshot().counter("exec.tasks_panicked{pool=t}");
        while panicked() == 0 {
            std::thread::yield_now();
        }
        assert_eq!(lane_parked(&p), 1, "the lane thread outlived the panic");
        let (tx, rx) = channel();
        p.spawn_blocking(move || tx.send(std::thread::current()).unwrap());
        let next = rx.recv().unwrap();
        assert_eq!(next.name(), Some("t-io-0"), "the next job ran on the same lane thread");
        let snap = p.registry().snapshot();
        assert_eq!(snap.counter("exec.tasks_panicked{pool=t}"), 1);
        assert_eq!(snap.counter("exec.tasks_submitted{pool=t}"), 2);
    }

    #[test]
    fn dropping_the_pool_joins_its_lane_threads() {
        // Counts a lane thread's exit, slowly: a drop that returned
        // without joining would see the count short.
        struct OnExit(Arc<AtomicUsize>);
        impl Drop for OnExit {
            fn drop(&mut self) {
                std::thread::sleep(Duration::from_millis(20));
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        thread_local! {
            static EXIT: std::cell::RefCell<Option<OnExit>> = const { std::cell::RefCell::new(None) };
        }
        let exited = Arc::new(AtomicUsize::new(0));
        let p = pool(2);
        let all_in = Arc::new(std::sync::Barrier::new(3));
        let (tx, rx) = channel();
        for _ in 0..3 {
            let (exited, all_in, tx) = (Arc::clone(&exited), Arc::clone(&all_in), tx.clone());
            p.spawn_blocking(move || {
                // Counted when the thread itself exits.
                EXIT.with(|e| *e.borrow_mut() = Some(OnExit(exited)));
                all_in.wait();
                tx.send(()).unwrap();
            });
        }
        assert_eq!(rx.iter().take(3).count(), 3);
        assert_eq!(exited.load(Ordering::SeqCst), 0, "lane threads park between jobs");
        drop(p);
        assert_eq!(exited.load(Ordering::SeqCst), 3, "the drop returned before a thread ended");
    }

    #[test]
    fn an_inline_pool_runs_a_blocking_job_on_the_caller() {
        let p = pool(1);
        let tid = std::thread::current().id();
        let (tx, rx) = channel();
        p.spawn_blocking(move || tx.send(std::thread::current().id() == tid).unwrap());
        assert_eq!(rx.try_recv(), Ok(true), "inline spawn_blocking completes synchronously");
        assert_eq!(p.inner.lane.threads(), (0, 0));
    }

    #[test]
    fn a_blocking_job_inherits_the_submitters_trace() {
        use diesel_obs::{trace, Tracer};
        for w in [1, 2] {
            let p = pool(w);
            let tracer = Tracer::enabled(p.registry());
            let _t = trace::install_tracer(&tracer);
            let (tx, rx) = channel();
            {
                let _root = trace::span("submit", &[]);
                p.spawn_blocking(move || {
                    drop(trace::span("load", &[]));
                    tx.send(()).unwrap();
                });
            }
            rx.recv().unwrap();
            let spans = tracer.drain();
            let root = spans.iter().find(|s| s.name == "submit").unwrap();
            let load = spans.iter().find(|s| s.name == "load").unwrap();
            assert_eq!((load.trace, load.parent), (root.trace, Some(root.id)), "workers={w}");
        }
    }

    #[test]
    fn pool_debug_format() {
        let p = pool(3);
        let s = format!("{p:?}");
        assert!(s.contains("workers: 3"), "{s}");
    }
}
