//! Span collection and per-layer attribution of a traced phase.
//!
//! The program's tracer keeps a small bounded buffer, so consumers
//! drain it after every batch into a [`SpanSink`], which keeps spans in
//! a compact form until the phase ends.
//!
//! Attribution answers "where did the consumers' wall time go?":
//!
//! * A consumer's timeline is its epochs; inside them it records *plan*
//!   segments (the call that produces the epoch order, charged to the
//!   layer that call enters) and *own* segments (verification, modelled
//!   compute, span draining — the `bench` layer), and it wraps every
//!   call that obtains or writes data in a root span `bench.wait` /
//!   `bench.write`.
//! * Inside a root span, every instant is split equally among the spans
//!   of that trace whose **self interval** (own interval minus their
//!   children's) covers it — so parallel children never count twice and
//!   the shares of one root sum to its duration.
//! * Instants of a `bench.write` root no child covers are the client's
//!   own work (chunk building has no span of its own). Instants of a
//!   `bench.wait` root no child covers are charged to whatever
//!   *detached* traces (pipeline workers fetching ahead) were doing at
//!   that instant, and are **unattributed** when nothing was.
//! * `unattributed = wall − Σ layers`, so the table always sums to the
//!   traced wall time; the check worth making is that it is small.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Mutex;

use diesel_obs::{Span, Tracer};

use crate::json::Json;

/// Layers of the attribution table, in report order.
pub const LAYERS: [&str; 10] =
    ["loader", "shuffle", "client", "cache", "net", "server", "kv", "store", "exec", "bench"];

/// Index of `layer` in [`LAYERS`].
pub fn layer_index(layer: &str) -> usize {
    LAYERS.iter().position(|l| *l == layer).unwrap_or(LAYERS.len() - 2)
}

/// The layer a span belongs to: the module prefix of its name;
/// executor-internal spans have bare names.
fn layer_of(name: &str) -> usize {
    layer_index(name.split('.').next().unwrap_or(name))
}

/// A span without its strings.
#[derive(Debug, Clone, Copy)]
struct Compact {
    trace: u64,
    id: u64,
    parent: u64,
    start: u64,
    end: u64,
    name: u16,
}

#[derive(Default)]
struct SinkInner {
    spans: Vec<Compact>,
    names: Vec<String>,
    by_name: HashMap<String, u16>,
}

impl SinkInner {
    /// The index of `name` in `names`, added on first sight.
    fn intern(&mut self, name: &str) -> u16 {
        if let Some(&n) = self.by_name.get(name) {
            return n;
        }
        let n = self.names.len() as u16;
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), n);
        n
    }
}

/// In-memory store of every span of a traced phase.
pub struct SpanSink {
    inner: Mutex<SinkInner>,
    full: AtomicBool,
    capacity: usize,
}

impl SpanSink {
    /// A sink that reports [`is_full`](Self::is_full) after `capacity`
    /// spans, so a fast workload ends its traced phase on memory, not
    /// only on time.
    pub fn new(capacity: usize) -> Self {
        SpanSink { inner: Mutex::default(), full: AtomicBool::new(false), capacity }
    }

    /// Move everything the tracer has buffered into the sink.
    pub fn absorb(&self, tracer: &Tracer) {
        let drained = tracer.drain();
        if drained.is_empty() {
            return;
        }
        let mut inner = self.inner.lock().expect("span sink poisoned");
        for span in drained {
            let Span { trace, id, parent, name, start_ns, end_ns, .. } = span;
            let name = inner.intern(&name);
            inner.spans.push(Compact {
                trace,
                id,
                parent: parent.unwrap_or(0),
                start: start_ns,
                end: end_ns,
                name,
            });
        }
        if inner.spans.len() >= self.capacity {
            self.full.store(true, Relaxed);
        }
    }

    /// Has the sink reached its capacity?
    pub fn is_full(&self) -> bool {
        self.full.load(Relaxed)
    }
}

/// One consumer thread's view of a traced phase.
#[derive(Debug, Default, Clone)]
pub struct Timeline {
    /// `[start, end)` of every epoch or write cycle, abandoned ones
    /// included.
    pub epochs: Vec<(u64, u64)>,
    /// `(layer, start, end)` of calls that produce an epoch's order.
    pub plans: Vec<(usize, u64, u64)>,
    /// `[start, end)` of the consumer's own work.
    pub own: Vec<(u64, u64)>,
}

/// Count and total duration of the spans sharing one name.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct NameStat {
    /// Spans seen.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
}

/// The per-layer table of a traced phase.
#[derive(Debug, Default, Clone)]
pub struct Attribution {
    /// Σ epoch durations over all consumer threads.
    pub wall_ns: f64,
    /// Time charged to each of [`LAYERS`].
    pub layer_ns: [f64; LAYERS.len()],
    /// `wall_ns − Σ layer_ns`.
    pub unattributed_ns: f64,
    /// Spans analysed.
    pub spans: usize,
    /// Per span name: count and total duration.
    pub names: HashMap<String, NameStat>,
}

impl Attribution {
    /// Share of the traced wall time charged to `layer`.
    pub fn share(&self, layer: &str) -> f64 {
        if self.wall_ns > 0.0 {
            self.layer_ns[layer_index(layer)] / self.wall_ns
        } else {
            0.0
        }
    }

    /// Share of the traced wall time no layer accounts for.
    pub fn unattributed_share(&self) -> f64 {
        if self.wall_ns > 0.0 {
            self.unattributed_ns / self.wall_ns
        } else {
            0.0
        }
    }

    /// Mean duration in nanoseconds of the spans named `name`.
    pub fn mean_ns(&self, name: &str) -> f64 {
        self.names.get(name).map_or(0.0, |s| s.total_ns as f64 / s.count.max(1) as f64)
    }
}

/// The pieces of `[start, end)` not covered by `children`, which must
/// be sorted by start.
fn uncovered(start: u64, end: u64, children: impl Iterator<Item = (u64, u64)>) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    let mut cursor = start;
    for (cs, ce) in children {
        let (cs, ce) = (cs.clamp(start, end), ce.clamp(start, end));
        if cs > cursor {
            out.push((cursor, cs));
        }
        cursor = cursor.max(ce);
    }
    if end > cursor {
        out.push((cursor, end));
    }
    out
}

/// Self intervals `(start, end, span index)` of every span of one
/// trace. `group` must be sorted by `(parent, start)`.
fn self_intervals(group: &[Compact]) -> Vec<(u64, u64, usize)> {
    let mut out = Vec::new();
    for (i, span) in group.iter().enumerate() {
        let lo = group.partition_point(|c| c.parent < span.id);
        let hi = group.partition_point(|c| c.parent <= span.id);
        let children = group[lo..hi].iter().map(|c| (c.start, c.end));
        out.extend(uncovered(span.start, span.end, children).into_iter().map(|(s, e)| (s, e, i)));
    }
    out
}

/// Sweep `pieces` (`(start, end, layer)`) across `windows`: every
/// instant of a window goes in equal parts to the pieces covering it;
/// instants no piece covers are returned.
fn sweep(
    windows: &[(u64, u64)],
    pieces: &[(u64, u64, usize)],
    layer_ns: &mut [f64; LAYERS.len()],
) -> Vec<(u64, u64)> {
    // (time, kind, layer): kind 0 closes, 1 opens; windows use layer
    // usize::MAX. Closing before opening at equal times keeps
    // zero-length overlaps out.
    let mut events: Vec<(u64, u8, usize)> = Vec::with_capacity(2 * (windows.len() + pieces.len()));
    for &(s, e) in windows.iter().filter(|(s, e)| e > s) {
        events.push((s, 1, usize::MAX));
        events.push((e, 0, usize::MAX));
    }
    for &(s, e, layer) in pieces.iter().filter(|(s, e, _)| e > s) {
        events.push((s, 1, layer));
        events.push((e, 0, layer));
    }
    events.sort_unstable();
    let mut active = [0u32; LAYERS.len()];
    let (mut total, mut open_windows, mut last) = (0u32, 0u32, 0u64);
    let mut gaps: Vec<(u64, u64)> = Vec::new();
    for (t, kind, layer) in events {
        if open_windows > 0 && t > last {
            let dt = (t - last) as f64 * f64::from(open_windows);
            if total == 0 {
                match gaps.last_mut() {
                    Some(gap) if gap.1 == last => gap.1 = t,
                    _ => gaps.push((last, t)),
                }
            } else {
                for (ns, &n) in layer_ns.iter_mut().zip(&active) {
                    *ns += dt * f64::from(n) / f64::from(total);
                }
            }
        }
        last = t;
        let delta = if kind == 1 { 1i64 } else { -1 };
        if layer == usize::MAX {
            open_windows = (i64::from(open_windows) + delta) as u32;
        } else {
            active[layer] = (i64::from(active[layer]) + delta) as u32;
            total = (i64::from(total) + delta) as u32;
        }
    }
    gaps
}

/// Build the per-layer table from everything the sink holds and the
/// consumers' timelines.
pub fn attribute(sink: &SpanSink, timelines: &[Timeline]) -> Attribution {
    let mut inner = sink.inner.lock().expect("span sink poisoned");
    let SinkInner { spans, names, .. } = &mut *inner;
    let mut out = Attribution { spans: spans.len(), ..Attribution::default() };
    for span in spans.iter() {
        let stat = out.names.entry(names[span.name as usize].clone()).or_default();
        stat.count += 1;
        stat.total_ns += span.end.saturating_sub(span.start);
    }
    let layers: Vec<usize> = names.iter().map(|n| layer_of(n)).collect();
    let root_kind: Vec<u8> = names
        .iter()
        .map(|n| match n.as_str() {
            "bench.wait" => 1,
            "bench.write" => 2,
            _ => 0,
        })
        .collect();

    spans.sort_unstable_by_key(|s| (s.trace, s.parent, s.start));
    let mut detached: Vec<(u64, u64, usize)> = Vec::new();
    let mut waiting: Vec<(u64, u64)> = Vec::new();
    let mut at = 0;
    while at < spans.len() {
        let len = spans[at..].partition_point(|s| s.trace == spans[at].trace);
        let group = &spans[at..at + len];
        at += len;
        let pieces = self_intervals(group);
        let layer = |i: usize| layers[group[i].name as usize];
        // Parent 0 sorts first, so a trace's root leads its group.
        let kind = if group[0].parent == 0 { root_kind[group[0].name as usize] } else { 0 };
        if kind == 0 {
            detached.extend(pieces.iter().map(|&(s, e, i)| (s, e, layer(i))));
            continue;
        }
        let inside: Vec<_> =
            pieces.iter().filter(|p| p.2 != 0).map(|&(s, e, i)| (s, e, layer(i))).collect();
        let gaps = sweep(&[(group[0].start, group[0].end)], &inside, &mut out.layer_ns);
        if kind == 1 {
            waiting.extend(gaps);
        } else {
            let own: u64 = gaps.iter().map(|(s, e)| e - s).sum();
            out.layer_ns[layer_index("client")] += own as f64;
        }
    }
    sweep(&waiting, &detached, &mut out.layer_ns);

    for timeline in timelines {
        out.wall_ns += timeline.epochs.iter().map(|(s, e)| (e - s) as f64).sum::<f64>();
        for &(layer, s, e) in &timeline.plans {
            out.layer_ns[layer] += (e - s) as f64;
        }
        out.layer_ns[layer_index("bench")] +=
            timeline.own.iter().map(|(s, e)| (e - s) as f64).sum::<f64>();
    }
    out.unattributed_ns = out.wall_ns - out.layer_ns.iter().sum::<f64>();
    out
}

/// Write the trace file: the table plus the first `limit` spans.
pub fn trace_file(sink: &SpanSink, table: &Attribution, workload: &str, limit: usize) -> Json {
    let inner = sink.inner.lock().expect("span sink poisoned");
    let spans = inner
        .spans
        .iter()
        .take(limit)
        .map(|s| {
            Json::Obj(vec![
                ("name".into(), Json::Str(inner.names[s.name as usize].clone())),
                ("request".into(), Json::Num(s.trace as f64)),
                ("id".into(), Json::Num(s.id as f64)),
                (
                    "parent".into(),
                    if s.parent == 0 { Json::Null } else { Json::Num(s.parent as f64) },
                ),
                ("start_ns".into(), Json::Num(s.start as f64)),
                ("end_ns".into(), Json::Num(s.end as f64)),
            ])
        })
        .collect();
    let layers = LAYERS
        .iter()
        .zip(&table.layer_ns)
        .map(|(l, ns)| ((*l).to_owned(), Json::Num(ns / 1e6)))
        .collect();
    Json::Obj(vec![
        ("workload".into(), Json::Str(workload.into())),
        ("traced_wall_ms".into(), Json::Num(table.wall_ns / 1e6)),
        ("layer_self_ms".into(), Json::Obj(layers)),
        ("unattributed_ms".into(), Json::Num(table.unattributed_ns / 1e6)),
        ("spans_recorded".into(), Json::Num(table.spans as f64)),
        ("spans".into(), Json::Arr(spans)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sink_of(spans: &[(u64, u64, u64, &str, u64, u64)]) -> SpanSink {
        let sink = SpanSink::new(usize::MAX);
        {
            let mut inner = sink.inner.lock().unwrap();
            for &(trace, id, parent, name, start, end) in spans {
                let n = inner.intern(name);
                inner.spans.push(Compact { trace, id, parent, start, end, name: n });
            }
        }
        sink
    }

    fn ns(table: &Attribution, layer: &str) -> f64 {
        table.layer_ns[layer_index(layer)]
    }

    #[test]
    fn nested_spans_get_their_self_time_and_the_table_sums_to_the_wall() {
        // wait[0,100) > client.read[10,90) > cache.get[20,50) ; store.get[60,80)
        let sink = sink_of(&[
            (1, 1, 0, "bench.wait", 0, 100),
            (1, 2, 1, "client.read", 10, 90),
            (1, 3, 2, "cache.get", 20, 50),
            (1, 4, 2, "store.get", 60, 80),
        ]);
        let timeline = Timeline {
            epochs: vec![(0, 150)],
            plans: vec![(layer_index("shuffle"), 100, 120)],
            own: vec![(120, 145)],
        };
        let table = attribute(&sink, &[timeline]);
        assert_eq!(ns(&table, "client"), 30.0);
        assert_eq!(ns(&table, "cache"), 30.0);
        assert_eq!(ns(&table, "store"), 20.0);
        assert_eq!(ns(&table, "shuffle"), 20.0);
        assert_eq!(ns(&table, "bench"), 25.0);
        // 20 ns of the wait no child covers + a 5 ns gap in the epoch.
        assert_eq!(table.unattributed_ns, 25.0);
        let total: f64 = table.layer_ns.iter().sum::<f64>() + table.unattributed_ns;
        assert_eq!(total, table.wall_ns);
        assert_eq!(table.names["cache.get"], NameStat { count: 1, total_ns: 30 });
    }

    #[test]
    fn parallel_children_split_the_instant_instead_of_counting_twice() {
        // Two plan reads overlap on [10,30) under one handler.
        let sink = sink_of(&[
            (1, 1, 0, "bench.wait", 0, 40),
            (1, 2, 1, "server.handle", 0, 40),
            (1, 3, 2, "store.get_range", 10, 30),
            (1, 4, 2, "kv.get", 10, 30),
        ]);
        let table = attribute(&sink, &[Timeline { epochs: vec![(0, 40)], ..Default::default() }]);
        assert_eq!(ns(&table, "server"), 20.0);
        assert_eq!(ns(&table, "store"), 10.0);
        assert_eq!(ns(&table, "kv"), 10.0);
        assert_eq!(table.unattributed_ns, 0.0);
    }

    #[test]
    fn a_blocked_wait_is_charged_to_what_the_pipeline_was_doing() {
        // The consumer waits on [0,100) with no children; a detached
        // fetch runs [0,60) with a store read on [10,50); its decode
        // child runs after it on [60,80).
        let sink = sink_of(&[
            (1, 1, 0, "bench.wait", 0, 100),
            (2, 2, 0, "loader.fetch", 0, 60),
            (2, 3, 2, "store.get", 10, 50),
            (2, 4, 2, "loader.decode", 60, 80),
        ]);
        let table = attribute(&sink, &[Timeline { epochs: vec![(0, 100)], ..Default::default() }]);
        assert_eq!(ns(&table, "loader"), 40.0);
        assert_eq!(ns(&table, "store"), 40.0);
        assert_eq!(table.unattributed_ns, 20.0, "nothing ran on [80,100)");
    }

    #[test]
    fn an_uncovered_write_is_the_clients_own_work() {
        let sink = sink_of(&[
            (1, 1, 0, "bench.write", 0, 100),
            (1, 2, 1, "server.handle", 70, 100),
            (1, 3, 2, "kv.put", 80, 90),
        ]);
        let table = attribute(&sink, &[Timeline { epochs: vec![(0, 100)], ..Default::default() }]);
        assert_eq!(ns(&table, "client"), 70.0);
        assert_eq!(ns(&table, "server"), 20.0);
        assert_eq!(ns(&table, "kv"), 10.0);
        assert_eq!(table.unattributed_ns, 0.0);
    }
}
