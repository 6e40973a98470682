//! One run of one workload: set-up, warm-up, the measured phase(s),
//! and the metrics of the mode it ran in.
//!
//! * **Untraced run** (`--trace 0`): [`ROUNDS`] rounds of set-up (the
//!   median is `setup_s`), ingest-alone probe on read workloads,
//!   warm-up and a share of the measuring budget; every end-to-end
//!   metric is computed over the epochs of all rounds.
//! * **Traced run** (`--trace 1`): an untraced rig gives the baseline
//!   rate, the exact layer counts and the direct probes; a second,
//!   traced rig (timed decorators, `Tracer::enabled`) gives layer
//!   timings and the span table. Both share the run's budget.

use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use diesel_obs::RegistrySnapshot;
use diesel_store::{MemObjectStore, ObjectStore};
use diesel_train::DataLoader;

use crate::decor::MeterSnap;
use crate::gen::BATCH;
use crate::probe::{self, Probes};
use crate::report::{Outcome, END_TO_END, PER_LAYER};
use crate::spans::{attribute, trace_file, Attribution, SpanSink, Timeline, LAYERS};
use crate::stack::{Kv, Rig, Scale, Store, Workload, CACHE_NODES};
use crate::stats::{median, supported_tail, Stat};
use crate::workloads::{
    loader_for, read_loader, read_sync, write_cycles, CycleRec, EpochRec, ReadStats, Stop,
    WriteStats,
};

/// Rounds of an untraced run. Each builds a fresh stack (`setup_s` is
/// the median build) and measures for its share of the budget, so
/// every metric samples the whole run instead of one stretch of it:
/// the host's speed drifts by several percent over tens of seconds.
pub const ROUNDS: usize = 3;
/// Write cycles per round of the ingest-alone probe on read workloads.
const PROBE_CYCLES: usize = 8;
/// Spans a traced phase keeps before it stops early.
const SPAN_CAPACITY: usize = 1_500_000;
/// Spans written to the trace file.
const TRACE_FILE_SPANS: usize = 20_000;

/// How long the measured phase lasts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Wall-clock seconds (the benchmark contract).
    Seconds(f64),
    /// A fixed number of epochs or write cycles: identical work on
    /// every run, so counts repeat exactly (tests and `--smoke`).
    Epochs(usize),
}

/// Everything that defines one run.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Which workload.
    pub workload: Workload,
    /// At what sizes.
    pub scale: Scale,
    /// Seeds file sizes, file bytes and shuffle orders.
    pub seed: u64,
    /// How long to measure.
    pub budget: Budget,
    /// Traced run (per-layer metrics) or untraced (end-to-end).
    pub trace: bool,
}

/// What the consumers of one phase measured.
#[derive(Default)]
struct Phase {
    read: ReadStats,
    write: Option<WriteStats>,
    timelines: Vec<Timeline>,
}

impl Phase {
    fn attempted(&self) -> u64 {
        self.read.attempted + self.write.as_ref().map_or(0, |w| w.attempted)
    }

    fn failed(&self) -> u64 {
        self.read.failed + self.write.as_ref().map_or(0, |w| w.failed)
    }
}

/// Run the workload's consumers on `rig` until `stop`.
fn consume<B: ObjectStore + 'static>(
    rig: &Rig<B>,
    loader: Option<&DataLoader<Kv, Store<B>>>,
    readers: usize,
    first_epoch: u64,
    stop: &Stop,
) -> Phase {
    let mut phase = Phase::default();
    if let Some(loader) = loader {
        phase.read = read_loader(rig, loader, first_epoch, rig.scale.compute_ns, stop);
        phase.timelines.push(std::mem::take(&mut phase.read.timeline));
        return phase;
    }
    std::thread::scope(|s| {
        let writer = (rig.workload == Workload::IngestBesideReads)
            .then(|| s.spawn(|| write_cycles(rig, stop)));
        let others: Vec<_> = (1..readers)
            .map(|r| s.spawn(move || read_sync(rig, r, readers, first_epoch, stop)))
            .collect();
        phase.read = read_sync(rig, 0, readers, first_epoch, stop);
        phase.timelines.push(std::mem::take(&mut phase.read.timeline));
        for other in others {
            let mut stats = other.join().expect("reader thread panicked");
            phase.timelines.push(std::mem::take(&mut stats.timeline));
            phase.read.merge(stats);
        }
        if let Some(writer) = writer {
            let mut stats = writer.join().expect("writer thread panicked");
            phase.timelines.push(std::mem::take(&mut stats.timeline));
            phase.write = Some(stats);
        }
    });
    phase
}

/// The consumer-side numbers of a phase.
struct ReadSummary {
    files_per_s: Stat,
    mb_per_s: Stat,
    batch_wait_us: Stat,
    first_batch_ms: Stat,
    stall_share: Stat,
}

/// The median over per-epoch values.
///
/// The epoch clock excludes the benchmark's own verification on the
/// synchronous workloads; on the pipelined loader verification is part
/// of the modelled compute and the epoch clock is the wall clock.
fn summarise(read: &ReadStats, readers: usize, pipelined: bool) -> ReadSummary {
    let system_ns =
        |e: &EpochRec| (if pipelined { e.wall_ns } else { e.wall_ns - e.own_ns }).max(1) as f64;
    let per_epoch =
        |f: &dyn Fn(&EpochRec) -> f64| median(&read.epochs.iter().map(f).collect::<Vec<_>>());
    ReadSummary {
        files_per_s: per_epoch(&|e| e.files as f64 * 1e9 / system_ns(e)).scaled(readers as f64),
        mb_per_s: per_epoch(&|e| e.bytes as f64 * 1e3 / system_ns(e)).scaled(readers as f64),
        batch_wait_us: per_epoch(&|e| e.wait_ns as f64 / 1e3 / e.batches.max(1) as f64),
        first_batch_ms: per_epoch(&|e| e.first_ns as f64 / 1e6),
        stall_share: per_epoch(&|e| e.wait_ns as f64 / system_ns(e)),
    }
}

/// Median over per-cycle write rates.
fn write_rates(write: &WriteStats) -> (Stat, Stat) {
    let per_cycle =
        |f: &dyn Fn(&CycleRec) -> f64| median(&write.cycles.iter().map(f).collect::<Vec<_>>());
    (
        per_cycle(&|c| c.files as f64 * 1e9 / c.write_ns.max(1) as f64),
        per_cycle(&|c| c.bytes as f64 * 1e3 / c.write_ns.max(1) as f64),
    )
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1e3)
}

fn stop_for<B: ObjectStore + 'static>(rig: &Rig<B>, budget: Budget, share: f64) -> Stop {
    match budget {
        Budget::Seconds(s) => Stop::until(rig.clock.now_ns() + (s * share * 1e9) as u64),
        Budget::Epochs(n) => Stop::epochs(n),
    }
}

/// One untimed epoch (cut short at a tenth of a round's budget) so
/// caches, lazily spawned threads and the allocator are warm.
fn warm_up<B: ObjectStore + 'static>(
    rig: &Rig<B>,
    loader: Option<&DataLoader<Kv, Store<B>>>,
    budget: Budget,
) -> Phase {
    let stop = match budget {
        Budget::Seconds(s) => Stop {
            deadline_ns: Some(rig.clock.now_ns() + (s * 0.1 / ROUNDS as f64 * 1e9) as u64),
            max_epochs: Some(1),
            ..Stop::default()
        },
        Budget::Epochs(_) => Stop::epochs(1),
    };
    consume(rig, loader, 1, 0, &stop)
}

/// Run `plan` over in-memory object stores.
pub fn run(plan: &Plan) -> Result<Outcome, String> {
    run_over(plan, MemObjectStore::new)
}

/// Run `plan` over stores made by `backing` (tests wrap them in
/// fault injectors).
pub fn run_over<B: ObjectStore + 'static>(
    plan: &Plan,
    backing: impl Fn() -> B,
) -> Result<Outcome, String> {
    if plan.trace {
        run_traced(plan, backing)
    } else {
        run_untraced(plan, backing)
    }
}

fn run_untraced<B: ObjectStore + 'static>(
    plan: &Plan,
    backing: impl Fn() -> B,
) -> Result<Outcome, String> {
    let Plan { workload, scale, seed, budget, .. } = *plan;
    let mut setups = Vec::new();
    let mut read = ReadStats::default();
    let mut write = WriteStats::default();
    let (mut attempted, mut failed) = (0, 0);
    for round in 0..ROUNDS {
        // Scoped to the round: the stack goes before the next one is
        // built, so at most one is alive.
        let rig = Rig::build(workload, scale, seed, false, backing())?;
        setups.push(rig.setup.total_s);
        let loader = (workload == Workload::ConstrainedLoader).then(|| loader_for(&rig));

        // Read workloads have no writer; their write metrics are the
        // write path of the same stack with nothing beside it, half
        // the cycles before the reads and half after.
        let alone = |write: &mut WriteStats| {
            if workload != Workload::IngestBesideReads {
                rig.ctl.delay.store(false, Relaxed);
                write.merge(write_cycles(&rig, &Stop::epochs(PROBE_CYCLES / 2)));
                rig.ctl.delay.store(true, Relaxed);
            }
        };
        alone(&mut write);

        let warm = warm_up(&rig, loader.as_ref(), budget);
        // Another stretch of epoch numbers each round, so the rounds
        // see different shuffles.
        let first_epoch = 1 + 1_000 * round as u64;
        let stop = stop_for(&rig, budget, 1.0 / ROUNDS as f64);
        let mut phase = consume(&rig, loader.as_ref(), 1, first_epoch, &stop);
        alone(&mut write);
        attempted += warm.attempted() + phase.read.attempted;
        failed += warm.failed() + phase.read.failed;
        if rig.registry.snapshot().sum_counter("server.tenant.throttled") > 0 {
            return Err("admission throttled a request; the workload must never throttle".into());
        }
        read.merge(phase.read);
        if let Some(beside) = phase.write.take() {
            write.merge(beside);
        }
    }

    attempted += write.attempted;
    failed += write.failed;
    let read = summarise(&read, 1, workload == Workload::ConstrainedLoader);
    let (write_files, write_mb) = write_rates(&write);
    let values = [
        ("setup_s", median(&setups)),
        ("read_files_per_s", read.files_per_s),
        ("read_mb_per_s", read.mb_per_s),
        ("batch_wait_us", read.batch_wait_us),
        ("stall_share", read.stall_share),
        ("write_files_per_s", write_files),
        ("write_mb_per_s", write_mb),
        ("peak_rss_mb", Stat::one(peak_rss_mb())),
    ];
    Ok(Outcome { metrics: Outcome::from_values(&END_TO_END, &values), attempted, failed })
}

/// A reading of every counter the per-layer metrics are built from.
struct Counters {
    store_get: MeterSnap,
    store_range: MeterSnap,
    store_put: MeterSnap,
    kv_get: MeterSnap,
    kv_put: MeterSnap,
    conn: MeterSnap,
    ingest: MeterSnap,
    handler: MeterSnap,
    cache_reads: u64,
    cache_hits: u64,
    cache_loads: u64,
    cache_bytes: u64,
    cache_evictions: u64,
    registry: RegistrySnapshot,
}

impl Counters {
    fn read<B: ObjectStore + 'static>(rig: &Rig<B>) -> Self {
        let cache = rig.cache.as_ref().map(|c| c.metrics());
        Counters {
            store_get: rig.store.gets.snap(),
            store_range: rig.store.ranges.snap(),
            store_put: rig.store.puts.snap(),
            kv_get: rig.kv.gets.snap(),
            kv_put: rig.kv.puts.snap(),
            conn: rig.conn_meter.all.snap(),
            ingest: rig.conn_meter.ingest.snap(),
            handler: rig.handler_meter.as_ref().map_or(MeterSnap::default(), |m| m.all.snap()),
            cache_reads: cache.map_or(0, |m| m.file_reads()),
            cache_hits: cache.map_or(0, |m| m.chunk_hits()),
            cache_loads: cache.map_or(0, |m| m.chunk_loads()),
            cache_bytes: cache.map_or(0, |m| m.bytes_loaded()),
            cache_evictions: cache.map_or(0, |m| m.evictions()),
            registry: rig.server.stats_snapshot(),
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn run_traced<B: ObjectStore + 'static>(
    plan: &Plan,
    backing: impl Fn() -> B,
) -> Result<Outcome, String> {
    let Plan { workload, scale, seed, budget, .. } = *plan;
    let pipelined = workload == Workload::ConstrainedLoader;
    let (mut attempted, mut failed) = (0, 0);
    let mut v: Vec<(&'static str, Stat)> = Vec::new();

    // ---- untraced rig: baseline rate, exact counts, direct probes ----
    let rig = Rig::build(workload, scale, seed, false, backing())?;
    let files_per_epoch = rig.data.files.len();
    let loader = pipelined.then(|| loader_for(&rig));
    let warm = warm_up(&rig, loader.as_ref(), budget);
    let before = Counters::read(&rig);
    let base = consume(&rig, loader.as_ref(), 1, 1, &stop_for(&rig, budget, 0.35));
    let after = Counters::read(&rig);
    let base_read = summarise(&base.read, 1, pipelined);
    for p in [&warm, &base] {
        attempted += p.attempted();
        failed += p.failed();
    }
    if workload == Workload::WarmGet {
        // Two readers sharing one client and one cache: the only place
        // lock sharing on the hit path can show.
        let pair = consume(&rig, None, 2, 500, &stop_for(&rig, budget, 0.15));
        attempted += pair.attempted();
        failed += pair.failed();
        let pair = summarise(&pair.read, 2, false);
        v.push((
            "thread_scaling",
            Stat::one(ratio(pair.files_per_s.value, base_read.files_per_s.value)),
        ));
    }

    // Layer counts of the untraced phase, per epoch's worth of files.
    let epochs = ratio(base.read.delivered_files as f64, files_per_epoch as f64);
    let per_epoch = |count: u64| Stat::one(ratio(count as f64, epochs));
    let (gets, ranges, puts) = (
        after.store_get - before.store_get,
        after.store_range - before.store_range,
        after.store_put - before.store_put,
    );
    let delivered_bytes = base.read.delivered_bytes as f64;
    let counter = |name: &str| after.registry.sum_counter(name) - before.registry.sum_counter(name);
    let files_written =
        base.write.as_ref().map_or(0, |w| w.cycles.iter().map(|c| c.files).sum::<u64>());
    v.extend([
        ("store.gets", per_epoch(gets.ops)),
        ("store.range_reads", per_epoch(ranges.ops)),
        ("store.puts", per_epoch(puts.ops)),
        ("store.bytes_read", per_epoch(gets.bytes + ranges.bytes).scaled(1e-6)),
        ("store.bytes_written", per_epoch(puts.bytes).scaled(1e-6)),
        ("store.range_span_ratio", Stat::one(ratio(ranges.bytes as f64, delivered_bytes))),
        ("store_read_amp", Stat::one(ratio((gets.bytes + ranges.bytes) as f64, delivered_bytes))),
        (
            "kv.gets",
            Stat::one(ratio(
                (after.kv_get - before.kv_get).ops as f64,
                base.read.delivered_files as f64,
            )),
        ),
        (
            "kv.puts",
            Stat::one(ratio((after.kv_put - before.kv_put).ops as f64, files_written as f64)),
        ),
        ("net.calls", per_epoch((after.conn - before.conn).ops)),
        ("cache.chunk_loads", per_epoch(after.cache_loads - before.cache_loads)),
        ("cache.bytes_loaded", per_epoch(after.cache_bytes - before.cache_bytes).scaled(1e-6)),
        ("cache.evictions", per_epoch(after.cache_evictions - before.cache_evictions)),
        (
            "cache.hit_ratio",
            Stat::one(ratio(
                (after.cache_hits - before.cache_hits) as f64,
                (after.cache_reads - before.cache_reads) as f64,
            )),
        ),
        (
            "server.files_per_merged_read",
            Stat::one(ratio(counter("server.merged_requests") as f64, ranges.ops as f64)),
        ),
        (
            "server.range_reads_per_batch",
            Stat::one(ratio(ranges.ops as f64, counter("server.merged_reads") as f64)),
        ),
    ]);
    let resident: u64 =
        rig.cache.as_ref().map_or(0, |c| (0..CACHE_NODES).map(|n| c.node_resident_bytes(n)).sum());
    let queued = after.registry.sum_counter("server.tenant.queued");
    v.extend([
        ("cache.resident_mb", Stat::one(resident as f64 / 1e6)),
        ("net.retries", Stat::one(rig.net.as_ref().map_or(0, |m| m.retries()) as f64)),
        ("net.timeouts", Stat::one(rig.net.as_ref().map_or(0, |m| m.timeouts()) as f64)),
        ("admission.queued", Stat::one(queued as f64)),
        // Time parked in the admission queue cannot be seen from
        // outside the server: exactly 0 when nothing parked, else -1.
        ("admission.queue_wait_us", Stat::one(if queued == 0 { 0.0 } else { -1.0 })),
        (
            "admission.throttled",
            Stat::one(after.registry.sum_counter("server.tenant.throttled") as f64),
        ),
        ("meta.snapshot_ms", Stat::one(rig.setup.snapshot_ms)),
        ("exec.queue_depth_max", Stat::one(base.read.queue_depth_max as f64)),
        ("first_batch_ms", base_read.first_batch_ms),
        ("batch_wait_us_p50", median(&base.read.waits_ns).scaled(1e-3)),
        ("batch_wait_us_p99", supported_tail(&base.read.waits_ns).scaled(1e-3)),
        ("epochs_measured", Stat::one(base.read.epochs.len() as f64)),
        (
            "write_cycles_measured",
            Stat::one(base.write.as_ref().map_or(0, |w| w.cycles.len()) as f64),
        ),
        ("untraced_read_files_per_s", base_read.files_per_s),
    ]);
    let pool = [("pool", rig.pool.name())];
    let exec = if pipelined {
        rig.registry
            .histogram("exec.pipeline_stage_ns", &[pool[0], ("stage", "loader.fetch")])
            .summary()
    } else {
        rig.registry.histogram("exec.task_ns", &pool).summary()
    };
    v.push(("exec.task_us_p50", Stat { value: exec.p50_ns as f64 / 1e3, n: exec.count as usize }));
    if pipelined {
        v.push(("loader.epoch_start_ms", median(&base.read.plan_ns).scaled(1e-6)));
        v.push(("loader.batch_wait_us_p99", supported_tail(&base.read.waits_ns).scaled(1e-3)));
    } else {
        v.push(("client.batch_us_p50", median(&base.read.waits_ns).scaled(1e-3)));
        v.push(("client.batch_us_p99", supported_tail(&base.read.waits_ns).scaled(1e-3)));
    }

    let probes: Probes = probe::run(&rig);
    v.extend([
        ("shuffle.epoch_plan_ms", probes.epoch_plan_ms),
        ("meta.stat_ns", probes.stat_ns),
        ("meta.server_lookup_ns", probes.server_lookup_ns),
        ("cache.hit_ns", probes.hit_ns),
        ("cache.hit_ns_2t", probes.hit_ns_2t),
        ("cache.fill_ms_per_chunk", probes.fill_ms_per_chunk),
        ("chunk.parse_us", probes.parse_us),
        ("chunk.build_mb_per_s", probes.build_mb_per_s),
        ("server.plan_ns_per_file", probes.plan_ns_per_file),
        ("admission.admit_ns", probes.admit_ns),
        ("exec.pipeline_overhead_ratio", probes.pipeline_overhead_ratio),
    ]);
    drop(loader);
    drop(rig);

    // ---- traced rig: layer timings and the span table ----
    let rig = Rig::build(workload, scale, seed, true, backing())?;
    let loader = pipelined.then(|| loader_for(&rig));
    let warm = warm_up(&rig, loader.as_ref(), budget);
    rig.ctl.spans.store(true, Relaxed);
    rig.tracer.drain();
    let dropped_before = rig.tracer.spans_dropped();
    let sink = Arc::new(SpanSink::new(SPAN_CAPACITY));
    let stop = Stop { sink: Some(Arc::clone(&sink)), ..stop_for(&rig, budget, 0.4) };
    let before = Counters::read(&rig);
    let traced = consume(&rig, loader.as_ref(), 1, 1, &stop);
    sink.absorb(&rig.tracer);
    let after = Counters::read(&rig);
    for p in [&warm, &traced] {
        attempted += p.attempted();
        failed += p.failed();
    }
    let table: Attribution = attribute(&sink, &traced.timelines);
    let traced_read = summarise(&traced.read, 1, pipelined);
    let traced_files = traced.read.delivered_files as f64;
    let traced_epochs = ratio(traced_files, files_per_epoch as f64);
    let calls = (after.conn - before.conn).ops as f64;
    let layer_ns = |layer: &str| table.layer_ns[crate::spans::layer_index(layer)];
    let mean_ns =
        |m: MeterSnap| Stat { value: ratio(m.ns as f64, m.ops as f64), n: m.ops as usize };
    let (kv_get, kv_put, ingest) =
        (after.kv_get - before.kv_get, after.kv_put - before.kv_put, after.ingest - before.ingest);
    let store_ns = (after.store_get - before.store_get).ns
        + (after.store_range - before.store_range).ns
        + (after.store_put - before.store_put).ns;
    let net_ns = (after.conn - before.conn).ns.saturating_sub((after.handler - before.handler).ns);
    v.extend([
        ("kv.get_ns", mean_ns(kv_get)),
        ("kv.put_ns", mean_ns(kv_put)),
        ("server.ingest_ms_per_chunk", mean_ns(ingest).scaled(1e-6)),
        ("store.busy_ms_per_epoch", Stat::one(ratio(store_ns as f64 / 1e6, traced_epochs))),
        (
            "net.self_us_per_call",
            Stat::one(if rig.handler_meter.is_some() {
                ratio(net_ns as f64 / 1e3, calls)
            } else {
                0.0
            }),
        ),
        ("server.handle_self_us_per_call", Stat::one(ratio(layer_ns("server") / 1e3, calls))),
        ("loader.fetch_us_per_batch", Stat::one(table.mean_ns("loader.fetch") / 1e3)),
        ("loader.decode_us_per_batch", Stat::one(table.mean_ns("loader.decode") / 1e3)),
        ("unattributed_share", Stat::one(table.unattributed_share())),
        ("obs.traced_wall_ms", Stat::one(table.wall_ns / 1e6)),
        ("obs.spans", Stat::one(table.spans as f64)),
        ("obs.spans_dropped", Stat::one((rig.tracer.spans_dropped() - dropped_before) as f64)),
        (
            "obs.trace_overhead_ratio",
            Stat::one(ratio(traced_read.files_per_s.value, base_read.files_per_s.value)),
        ),
    ]);
    for (layer, name) in LAYERS.iter().zip([
        "loader.self_share",
        "shuffle.self_share",
        "client.self_share",
        "cache.self_share",
        "net.self_share",
        "server.self_share",
        "kv.self_share",
        "store.self_share",
        "exec.self_share",
        "bench.self_share",
    ]) {
        v.push((name, Stat::one(table.share(layer))));
    }
    // What one file costs the client: with a resident cache the three
    // untraced probes say it exactly; otherwise the span table does.
    let get_ns = if pipelined {
        table.mean_ns("client.get_many") / BATCH as f64
    } else {
        median(&base.read.waits_ns).value / BATCH as f64
    };
    let self_ns = if rig.cache.is_some() && !pipelined {
        get_ns - probes.stat_ns.value - probes.hit_ns.value
    } else {
        ratio(layer_ns("client"), traced_files)
    };
    v.push(("client.get_ns", Stat::one(get_ns)));
    v.push(("client.self_ns", Stat::one(self_ns)));
    v.push(("failed_op_ratio", Stat::one(ratio(failed as f64, attempted as f64))));

    let file = trace_file(&sink, &table, workload.name(), TRACE_FILE_SPANS).render();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("trace-{}.json", workload.name())), file))
        .map_err(|e| format!("writing the trace file: {e}"))?;

    Ok(Outcome { metrics: Outcome::from_values(&PER_LAYER, &v), attempted, failed })
}
