//! [`PipelineIter`]: a pull-based pipeline stage that overlaps the
//! stage function with the consumer.
//!
//! [`WorkPool::pipeline`] turns any `Iterator` into a concurrently
//! produced one: stage workers pull `(seq, item)` records from the
//! shared source, apply the stage function, and push results into a
//! bounded channel; the consumer reorders by sequence number. Because
//! sequence numbers are assigned under the source lock and the consumer
//! yields strictly in order, the output stream is **identical to the
//! serial loop for any worker count** — concurrency changes wall-clock,
//! never bytes.
//!
//! Stages chain naturally: a `PipelineIter` is `Send`, so it can be the
//! source of the next `pipeline` call (fetch → decode → train). The
//! bounded channel between stages is the backpressure: a fast producer
//! blocks once `depth` results are waiting.
//!
//! Dropping the iterator mid-stream shuts the stage down gracefully —
//! workers observe the cancel flag / closed channel, stop pulling from
//! the source, and are joined before the drop returns.

use diesel_obs::{AmbientTrace, Counter, HistogramHandle};
use diesel_util::{Clock, Mutex};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::pool::WorkPool;
use crate::queue::Bounded;

type StageResult<T> = std::result::Result<T, Box<dyn std::any::Any + Send>>;

struct SourceState<I> {
    iter: Box<dyn Iterator<Item = I> + Send>,
    seq: u64,
}

/// What every application of a stage's function records.
#[derive(Clone)]
struct Instruments {
    clock: Arc<dyn Clock>,
    items: Counter,
    stage_ns: HistogramHandle,
    /// Trace state captured when the pipeline was built, restored where
    /// the stage function runs so it runs under the submitter's tracer.
    ambient: AmbientTrace,
}

impl Instruments {
    /// Run `apply`, one item's pass through the stage: time and count it.
    fn timed<R>(&self, apply: impl FnOnce() -> R) -> R {
        let t0 = self.clock.now_ns();
        let out = apply();
        self.stage_ns.record_ns(self.clock.now_ns().saturating_sub(t0));
        self.items.inc();
        out
    }
}

struct StageCtx<I, T> {
    source: Arc<Mutex<SourceState<I>>>,
    out: Arc<Bounded<(u64, StageResult<T>)>>,
    f: Arc<dyn Fn(I) -> T + Send + Sync>,
    cancel: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    m: Instruments,
}

fn stage_loop<I, T>(ctx: StageCtx<I, T>) {
    let _trace = ctx.m.ambient.install();
    loop {
        if ctx.cancel.load(Ordering::Acquire) {
            break;
        }
        // Assign the sequence number under the same lock as the pull so
        // item order and numbering always agree.
        let next = {
            let mut g = ctx.source.lock();
            let item = g.iter.next();
            item.map(|it| {
                let seq = g.seq;
                g.seq += 1;
                (seq, it)
            })
        };
        let Some((seq, item)) = next else { break };
        let out = ctx.m.timed(|| catch_unwind(AssertUnwindSafe(|| (ctx.f)(item))));
        if ctx.out.push((seq, out)).is_err() {
            // Consumer dropped the iterator; stop producing.
            break;
        }
    }
    if ctx.active.fetch_sub(1, Ordering::AcqRel) == 1 {
        ctx.out.close();
    }
}

/// A stage run on the consumer's thread: each `next()` pulls one item
/// and applies `f` there, lazily.
fn inline<I, T: 'static>(
    mut pull: impl FnMut() -> Option<I> + Send + 'static,
    f: impl Fn(I) -> T + Send + 'static,
    m: Instruments,
) -> PipelineIter<T> {
    let next = Box::new(move || {
        let item = pull()?;
        let _trace = m.ambient.install();
        Some(m.timed(|| f(item)))
    });
    PipelineIter { inner: Inner::Inline(next) }
}

struct Threaded<T> {
    out: Arc<Bounded<(u64, StageResult<T>)>>,
    cancel: Arc<AtomicBool>,
    handles: Vec<std::thread::JoinHandle<()>>,
    /// Results that arrived ahead of `next_seq`, awaiting their turn.
    buf: BTreeMap<u64, StageResult<T>>,
    next_seq: u64,
}

impl<T> Drop for Threaded<T> {
    fn drop(&mut self) {
        self.cancel.store(true, Ordering::Release);
        self.out.close();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

enum Inner<T> {
    /// Deterministic mode: pull + apply lazily on the consumer thread.
    Inline(Box<dyn FnMut() -> Option<T> + Send>),
    Threaded(Threaded<T>),
}

/// A pipeline stage's output stream; see [`WorkPool::pipeline`].
pub struct PipelineIter<T> {
    inner: Inner<T>,
}

impl<T> Iterator for PipelineIter<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        match &mut self.inner {
            Inner::Inline(pull) => pull(),
            Inner::Threaded(t) => loop {
                if let Some(r) = t.buf.remove(&t.next_seq) {
                    t.next_seq += 1;
                    match r {
                        Ok(v) => return Some(v),
                        Err(payload) => std::panic::resume_unwind(payload),
                    }
                }
                match t.out.pop() {
                    Some((seq, r)) => {
                        t.buf.insert(seq, r);
                    }
                    // Closed and the next sequence number never arrived:
                    // the stage has shut down; end the stream.
                    None => return None,
                }
            },
        }
    }
}

impl<T> std::fmt::Debug for PipelineIter<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Inner::Inline(_) => f.debug_struct("PipelineIter").field("mode", &"inline").finish(),
            Inner::Threaded(t) => f
                .debug_struct("PipelineIter")
                .field("mode", &"threaded")
                .field("workers", &t.handles.len())
                .field("buffered", &t.buf.len())
                .finish(),
        }
    }
}

impl WorkPool {
    /// Run `f` over `source` concurrently, yielding results in source
    /// order. `stage` names the stage in metrics
    /// (`exec.pipeline_items{pool=…,stage=…}`); `depth` bounds how many
    /// finished results may wait for the consumer (the inter-stage
    /// backpressure).
    ///
    /// On an inline pool (`workers <= 1`) no threads are spawned: each
    /// `next()` pulls one item and applies `f` on the calling thread,
    /// which keeps the stream — and everything downstream of it —
    /// deterministic.
    ///
    /// Stage workers are dedicated threads (the stage lives as long as
    /// the returned iterator, which must not tie up pool workers), but
    /// their count follows the pool's configured width.
    pub fn pipeline<SRC, I, T, F>(
        &self,
        stage: &str,
        depth: usize,
        source: SRC,
        f: F,
    ) -> PipelineIter<T>
    where
        SRC: Iterator<Item = I> + Send + 'static,
        I: Send + 'static,
        T: Send + 'static,
        F: Fn(I) -> T + Send + Sync + 'static,
    {
        let labels = [("pool", self.name()), ("stage", stage)];
        let m = Instruments {
            clock: Arc::clone(self.clock()),
            items: self.registry().counter("exec.pipeline_items", &labels),
            stage_ns: self.registry().histogram("exec.pipeline_stage_ns", &labels),
            // Captured here (at build time) rather than at pull time: the
            // iterator may be consumed on a thread with no ambient tracer.
            ambient: AmbientTrace::capture(),
        };

        if self.workers() <= 1 {
            let mut source = source;
            return inline(move || source.next(), f, m);
        }

        let workers = self.workers();
        let out: Arc<Bounded<(u64, StageResult<T>)>> = Arc::new(Bounded::new(depth.max(1)));
        let source: Arc<Mutex<SourceState<I>>> = Arc::new(Mutex::named(
            "exec.pipeline_source",
            SourceState { iter: Box::new(source), seq: 0 },
        ));
        let cancel = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicUsize::new(workers));
        let f: Arc<dyn Fn(I) -> T + Send + Sync> = Arc::new(f);

        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let ctx = StageCtx {
                source: Arc::clone(&source),
                out: Arc::clone(&out),
                f: Arc::clone(&f),
                cancel: Arc::clone(&cancel),
                active: Arc::clone(&active),
                m: m.clone(),
            };
            let spawned = std::thread::Builder::new()
                .name(format!("{}-{stage}-{i}", self.name()))
                .spawn(move || stage_loop(ctx));
            match spawned {
                Ok(h) => handles.push(h),
                Err(_) => {
                    if active.fetch_sub(1, Ordering::AcqRel) == 1 {
                        out.close();
                    }
                }
            }
        }

        if handles.is_empty() {
            // Could not spawn a single stage thread (resource
            // exhaustion): degrade to pulling inline so no item is lost.
            return inline(move || source.lock().iter.next(), move |item| f(item), m);
        }

        PipelineIter {
            inner: Inner::Threaded(Threaded {
                out,
                cancel,
                handles,
                buf: BTreeMap::new(),
                next_seq: 0,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExecConfig;
    use std::time::Duration;

    fn pool(workers: usize) -> WorkPool {
        WorkPool::new("p", ExecConfig::workers(workers))
    }

    #[test]
    fn output_order_matches_source_for_any_worker_count() {
        let reference: Vec<u64> = (0..200u64).map(|x| x * 3 + 1).collect();
        for w in [1, 2, 8] {
            let p = pool(w);
            let got: Vec<u64> = p.pipeline("triple", 4, 0..200u64, |x| x * 3 + 1).collect();
            assert_eq!(got, reference, "workers={w}");
        }
    }

    #[test]
    fn order_survives_adversarial_stage_latency() {
        // Early items take longest, so completion order inverts arrival
        // order; the reorder buffer must restore it.
        let p = pool(4);
        let got: Vec<u64> = p
            .pipeline("slow", 8, 0..32u64, |x| {
                std::thread::sleep(Duration::from_millis(32 - x));
                x
            })
            .collect();
        assert_eq!(got, (0..32u64).collect::<Vec<_>>());
    }

    #[test]
    fn stages_chain() {
        for w in [1, 4] {
            let p = pool(w);
            let fetch = p.pipeline("fetch", 4, 0..50u64, |x| x + 1);
            let decode = p.pipeline("decode", 4, fetch, |x| x * 2);
            let got: Vec<u64> = decode.collect();
            let want: Vec<u64> = (0..50u64).map(|x| (x + 1) * 2).collect();
            assert_eq!(got, want, "workers={w}");
        }
    }

    #[test]
    fn drop_mid_stream_shuts_down_and_stops_pulling() {
        let p = pool(4);
        let pulled = Arc::new(AtomicUsize::new(0));
        let pulled2 = pulled.clone();
        let source = (0..10_000u64).inspect(move |_| {
            pulled2.fetch_add(1, Ordering::SeqCst);
        });
        let mut it = p.pipeline("partial", 2, source, |x| x);
        assert!(it.next().is_some());
        drop(it); // must join workers without hanging
        let seen = pulled.load(Ordering::SeqCst);
        assert!(seen < 10_000, "drop stopped the source early (pulled {seen})");
    }

    #[test]
    fn stage_panic_resumes_on_consumer_at_the_right_position() {
        for w in [1, 4] {
            let p = pool(w);
            let mut it = p.pipeline("explode", 4, 0..10u64, |x| {
                if x == 3 {
                    panic!("stage blew up on {x}");
                }
                x
            });
            let mut got = Vec::new();
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                for v in it.by_ref() {
                    got.push(v);
                }
            }));
            assert!(caught.is_err(), "workers={w}");
            // Everything before the faulty item was yielded in order.
            assert_eq!(got, vec![0, 1, 2], "workers={w}");
        }
    }

    #[test]
    fn inline_pipeline_is_lazy() {
        let p = pool(1);
        let pulled = Arc::new(AtomicUsize::new(0));
        let pulled2 = pulled.clone();
        let source = (0..100u64).inspect(move |_| {
            pulled2.fetch_add(1, Ordering::SeqCst);
        });
        let mut it = p.pipeline("lazy", 4, source, |x| x);
        assert_eq!(pulled.load(Ordering::SeqCst), 0, "nothing pulled before first next()");
        assert_eq!(it.next(), Some(0));
        assert_eq!(pulled.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn depth_bounds_readahead() {
        // With depth 2 and a stalled consumer, workers can complete at
        // most depth + workers items (depth queued + one in flight each).
        let p = pool(2);
        let done = Arc::new(AtomicUsize::new(0));
        let done2 = done.clone();
        let mut it = p.pipeline("bounded", 2, 0..1000u64, move |x| {
            done2.fetch_add(1, Ordering::SeqCst);
            x
        });
        assert_eq!(it.next(), Some(0));
        std::thread::sleep(Duration::from_millis(30));
        let completed = done.load(Ordering::SeqCst);
        assert!(completed <= 2 + 2 + 1, "readahead ran away: {completed}");
        drop(it);
    }

    #[test]
    fn pipeline_metrics_count_items() {
        let p = pool(2);
        let n: usize = p.pipeline("m", 4, 0..25u64, |x| x).count();
        assert_eq!(n, 25);
        let snap = p.registry().snapshot();
        assert_eq!(snap.counter("exec.pipeline_items{pool=p,stage=m}"), 25);
    }

    #[test]
    fn stage_spans_parent_the_span_that_built_the_pipeline() {
        use diesel_obs::{trace, Tracer};
        for w in [1, 4] {
            let p = pool(w);
            let tracer = Tracer::enabled(p.registry());
            let _t = trace::install_tracer(&tracer);
            let it = {
                let _epoch = trace::span("epoch", &[]);
                p.pipeline("traced", 4, 0..6u64, |x| {
                    let _s = trace::span("stage", &[]);
                    x
                })
            };
            assert_eq!(it.count(), 6);
            let spans = tracer.drain();
            let epoch = spans.iter().find(|s| s.name == "epoch").unwrap();
            let stages: Vec<_> = spans.iter().filter(|s| s.name == "stage").collect();
            assert_eq!(stages.len(), 6, "workers={w}");
            assert!(
                stages.iter().all(|s| s.trace == epoch.trace && s.parent == Some(epoch.id)),
                "workers={w}: stage spans belong to the builder's trace"
            );
        }
    }

    #[test]
    fn debug_formats() {
        let inline = pool(1).pipeline("d", 1, 0..1u64, |x| x);
        assert!(format!("{inline:?}").contains("inline"));
        let threaded = pool(2).pipeline("d", 1, 0..1u64, |x| x);
        assert!(format!("{threaded:?}").contains("threaded"));
    }
}
