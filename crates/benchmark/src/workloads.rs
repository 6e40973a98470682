//! The closed-loop consumers: a synchronous reader (`get` per file or
//! `get_many` per batch), the pipelined-loader consumer, and the
//! put/flush/delete writer. Each waits for its reply before asking
//! again, like a data-loader worker, verifies every byte it is handed,
//! and keeps one record per epoch (or write cycle).

use std::sync::Arc;

use diesel_core::{DieselError, ServerRequest};
use diesel_obs::trace;
use diesel_store::{Bytes, ObjectStore};
use diesel_train::DataLoader;

use crate::gen::{index_of, Seen, BATCH};
use crate::spans::{layer_index, SpanSink, Timeline};
use crate::stack::{Kv, Rig, Store, INGEST};

/// When a consumer stops.
#[derive(Clone, Default)]
pub struct Stop {
    /// Start no epoch that would still be running at this clock
    /// reading, judging by how long the previous one took.
    pub deadline_ns: Option<u64>,
    /// Start no more than this many epochs.
    pub max_epochs: Option<usize>,
    /// Complete at least this many epochs whatever the deadline says;
    /// past that, an epoch the deadline overtakes is abandoned and does
    /// not count.
    pub min_complete: usize,
    /// Traced phase: drain spans here after every batch, and stop when
    /// it is full.
    pub sink: Option<Arc<SpanSink>>,
}

impl Stop {
    /// Run exactly `n` epochs.
    pub fn epochs(n: usize) -> Self {
        Stop { max_epochs: Some(n), min_complete: n, ..Stop::default() }
    }

    /// Run until `deadline_ns`, completing at least one epoch.
    pub fn until(deadline_ns: u64) -> Self {
        Stop { deadline_ns: Some(deadline_ns), min_complete: 1, ..Stop::default() }
    }

    fn out_of_time(&self, now: u64) -> bool {
        self.deadline_ns.is_some_and(|d| now >= d)
            || self.sink.as_ref().is_some_and(|s| s.is_full())
    }

    fn start_epoch(&self, done: usize, now: u64, last_ns: u64) -> bool {
        self.max_epochs.is_none_or(|m| done < m)
            && (done < self.min_complete || !self.out_of_time(now.saturating_add(last_ns)))
    }

    fn abandon(&self, done: usize, now: u64) -> bool {
        done >= self.min_complete && self.out_of_time(now)
    }
}

/// One complete epoch as its consumer saw it.
#[derive(Debug, Default, Clone, Copy)]
pub struct EpochRec {
    /// Epoch start to end on the consumer's clock.
    pub wall_ns: u64,
    /// Of that, the benchmark's own work (verification, draining).
    pub own_ns: u64,
    /// Of that, time blocked obtaining batches.
    pub wait_ns: u64,
    /// Epoch start until the first batch was in hand.
    pub first_ns: u64,
    /// Files delivered intact.
    pub files: u64,
    /// Their bytes.
    pub bytes: u64,
    /// Batches obtained.
    pub batches: u64,
}

/// What one reader thread measured.
#[derive(Debug, Default)]
pub struct ReadStats {
    /// Complete epochs, in order.
    pub epochs: Vec<EpochRec>,
    /// Every batch wait, nanoseconds.
    pub waits_ns: Vec<f64>,
    /// Per epoch: the call that produced its order.
    pub plan_ns: Vec<f64>,
    /// File reads attempted.
    pub attempted: u64,
    /// Reads that failed, mismatched, went missing or came twice.
    pub failed: u64,
    /// Files delivered intact, abandoned epochs included (what the
    /// layer counters of the same phase are normalised by).
    pub delivered_files: u64,
    /// Their bytes.
    pub delivered_bytes: u64,
    /// Highest work-pool queue depth seen between batches.
    pub queue_depth_max: u64,
    /// Traced phase only: where this thread's time went.
    pub timeline: Timeline,
}

impl ReadStats {
    /// Fold another reader's results into this one.
    pub fn merge(&mut self, other: ReadStats) {
        self.epochs.extend(other.epochs);
        self.waits_ns.extend(other.waits_ns);
        self.plan_ns.extend(other.plan_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.delivered_files += other.delivered_files;
        self.delivered_bytes += other.delivered_bytes;
        self.queue_depth_max = self.queue_depth_max.max(other.queue_depth_max);
    }
}

/// Bookkeeping shared by both readers for the epoch in flight.
struct EpochInFlight {
    start: u64,
    rec: EpochRec,
}

impl EpochInFlight {
    fn batch(&mut self, stats: &mut ReadStats, wait_from: u64, wait_to: u64) {
        if self.rec.batches == 0 {
            self.rec.first_ns = wait_to - self.start;
        }
        self.rec.batches += 1;
        self.rec.wait_ns += wait_to - wait_from;
        stats.waits_ns.push((wait_to - wait_from) as f64);
    }

    fn own(&mut self, stats: &mut ReadStats, traced: bool, from: u64, to: u64) {
        self.rec.own_ns += to - from;
        if traced {
            stats.timeline.own.push((from, to));
        }
    }

    fn finish(
        mut self,
        stats: &mut ReadStats,
        traced: bool,
        seen: &mut Seen,
        files: usize,
        end: u64,
        complete: bool,
    ) {
        let wrong = seen.finish_epoch(files);
        if traced {
            stats.timeline.epochs.push((self.start, end));
        }
        stats.delivered_files += self.rec.files;
        stats.delivered_bytes += self.rec.bytes;
        if complete {
            stats.failed += wrong;
            self.rec.wall_ns = end - self.start;
            stats.epochs.push(self.rec);
        }
    }
}

/// Read epochs synchronously: `get` per file when a cache is attached,
/// `get_many` per batch otherwise. Reader `reader` of `readers` takes
/// epoch numbers `first_epoch + reader`, `+ readers`, ….
pub fn read_sync<B: ObjectStore + 'static>(
    rig: &Rig<B>,
    reader: usize,
    readers: usize,
    first_epoch: u64,
    stop: &Stop,
) -> ReadStats {
    let traced = stop.sink.is_some();
    let _tracer = traced.then(|| trace::install_tracer(&rig.tracer));
    let (clock, data) = (&rig.clock, &rig.data);
    let per_file = rig.cache.is_some();
    let mut seen = Seen::new(data.files.len());
    let mut stats = ReadStats::default();
    let mut epoch_no = first_epoch + reader as u64;
    loop {
        let start = clock.now_ns();
        let last_ns = stats.epochs.last().map_or(0, |e| e.wall_ns);
        if !stop.start_epoch(stats.epochs.len(), start, last_ns) {
            break;
        }
        let Ok(order) = rig.client.epoch_file_list(rig.seed, epoch_no) else {
            stats.attempted += 1;
            stats.failed += 1;
            break;
        };
        let planned = clock.now_ns();
        stats.plan_ns.push((planned - start) as f64);
        if traced {
            stats.timeline.plans.push((layer_index("shuffle"), start, planned));
        }
        let mut epoch = EpochInFlight { start, rec: EpochRec::default() };
        let mut complete = true;
        for batch in order.chunks(BATCH) {
            let w0 = clock.now_ns();
            let fetched: Vec<Result<Bytes, DieselError>> = {
                let _root = trace::span("bench.wait", &[]);
                if per_file {
                    batch.iter().map(|path| rig.client.get(path)).collect()
                } else {
                    match rig.client.get_many(batch) {
                        Ok(all) => all.into_iter().map(Ok).collect(),
                        Err(e) => vec![Err(e); batch.len()],
                    }
                }
            };
            let w1 = clock.now_ns();
            epoch.batch(&mut stats, w0, w1);
            for (path, result) in batch.iter().zip(&fetched) {
                stats.attempted += 1;
                match (index_of(path), result) {
                    (Some(index), Ok(bytes)) if data.check(index, bytes) => {
                        seen.mark(index);
                        epoch.rec.files += 1;
                        epoch.rec.bytes += bytes.len() as u64;
                    }
                    _ => stats.failed += 1,
                }
            }
            if let Some(sink) = &stop.sink {
                sink.absorb(&rig.tracer);
            }
            let v1 = clock.now_ns();
            epoch.own(&mut stats, traced, w1, v1);
            if stop.abandon(stats.epochs.len(), v1) {
                complete = false;
                break;
            }
        }
        epoch.finish(&mut stats, traced, &mut seen, data.files.len(), clock.now_ns(), complete);
        epoch_no += readers as u64;
    }
    stats
}

/// The loader the `constrained_loader` workload drives.
pub fn loader_for<B: ObjectStore + 'static>(rig: &Rig<B>) -> DataLoader<Kv, Store<B>> {
    let loader = DataLoader::new(Arc::clone(&rig.client), BATCH, rig.seed)
        .with_pool(rig.pool.clone())
        .with_prefetch_depth(4);
    if rig.traced {
        loader.with_tracer(rig.tracer.clone())
    } else {
        loader
    }
}

/// Consume epochs from `loader`, spending `compute_ns` of modelled
/// compute per batch; verification (and span draining) count toward
/// that compute, as a trainer's first touch of the data would.
pub fn read_loader<B: ObjectStore + 'static>(
    rig: &Rig<B>,
    loader: &DataLoader<Kv, Store<B>>,
    first_epoch: u64,
    compute_ns: u64,
    stop: &Stop,
) -> ReadStats {
    let traced = stop.sink.is_some();
    let _tracer = traced.then(|| trace::install_tracer(&rig.tracer));
    let (clock, data) = (&rig.clock, &rig.data);
    let queue_depth = rig.registry.gauge("exec.queue_depth", &[("pool", rig.pool.name())]);
    let mut seen = Seen::new(data.files.len());
    let mut stats = ReadStats::default();
    let mut epoch_no = first_epoch;
    loop {
        let start = clock.now_ns();
        let last_ns = stats.epochs.last().map_or(0, |e| e.wall_ns);
        if !stop.start_epoch(stats.epochs.len(), start, last_ns) {
            break;
        }
        // Called outside any span: the pipeline captures the ambient
        // trace context, and fetches must stay detached from the waits.
        let Ok(mut batches) = loader.epoch_iter(epoch_no) else {
            stats.attempted += 1;
            stats.failed += 1;
            break;
        };
        let planned = clock.now_ns();
        stats.plan_ns.push((planned - start) as f64);
        if traced {
            stats.timeline.plans.push((layer_index("loader"), start, planned));
        }
        let mut epoch = EpochInFlight { start, rec: EpochRec::default() };
        let mut complete = true;
        loop {
            let w0 = clock.now_ns();
            let next = {
                let _root = trace::span("bench.wait", &[]);
                batches.next()
            };
            let w1 = clock.now_ns();
            let Some(batch) = next else {
                epoch.rec.wait_ns += w1 - w0;
                break;
            };
            epoch.batch(&mut stats, w0, w1);
            match batch {
                Ok((x, labels)) => {
                    for (row, &label) in labels.iter().enumerate() {
                        stats.attempted += 1;
                        match data.check_row(label, x.row(row)) {
                            Some(index) => {
                                seen.mark(index);
                                epoch.rec.files += 1;
                                epoch.rec.bytes += 2 + 4 * x.cols as u64;
                            }
                            None => stats.failed += 1,
                        }
                    }
                }
                Err(_) => {
                    stats.attempted += BATCH as u64;
                    stats.failed += BATCH as u64;
                }
            }
            stats.queue_depth_max = stats.queue_depth_max.max(queue_depth.get());
            if let Some(sink) = &stop.sink {
                sink.absorb(&rig.tracer);
            }
            let busy = clock.now_ns() - w1;
            if busy < compute_ns {
                clock.sleep_ns(compute_ns - busy);
            }
            let v1 = clock.now_ns();
            epoch.own(&mut stats, traced, w1, v1);
            if stop.abandon(stats.epochs.len(), v1) {
                complete = false;
                break;
            }
        }
        // Dropping the iterator cancels and joins the stage threads;
        // that is part of what an epoch costs.
        drop(batches);
        epoch.finish(&mut stats, traced, &mut seen, data.files.len(), clock.now_ns(), complete);
        epoch_no += 1;
    }
    stats
}

/// One write cycle.
#[derive(Debug, Default, Clone, Copy)]
pub struct CycleRec {
    /// `put` × files + `flush`.
    pub write_ns: u64,
    /// Files written.
    pub files: u64,
    /// Their bytes.
    pub bytes: u64,
}

/// What the writer thread measured.
#[derive(Debug, Default)]
pub struct WriteStats {
    /// Complete cycles, in order.
    pub cycles: Vec<CycleRec>,
    /// Files put plus files read back.
    pub attempted: u64,
    /// Puts that failed plus read-backs that mismatched.
    pub failed: u64,
    /// Traced phase only.
    pub timeline: Timeline,
}

impl WriteStats {
    /// Fold another stretch of cycles into this one.
    pub fn merge(&mut self, other: WriteStats) {
        self.cycles.extend(other.cycles);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Cycle `put` × N + `flush` into [`INGEST`], read one batch back and
/// verify it, then drop the dataset so memory stays bounded.
pub fn write_cycles<B: ObjectStore + 'static>(rig: &Rig<B>, stop: &Stop) -> WriteStats {
    let traced = stop.sink.is_some();
    let _tracer = traced.then(|| trace::install_tracer(&rig.tracer));
    let clock = &rig.clock;
    let files = &rig.ingest.files;
    let mut stats = WriteStats::default();
    let mut last_ns = 0;
    loop {
        let start = clock.now_ns();
        if !stop.start_epoch(stats.cycles.len(), start, last_ns) {
            break;
        }
        let mut rec = CycleRec::default();
        {
            let _root = trace::span("bench.write", &[]);
            for (spec, bytes) in files.iter().zip(&rig.ingest_bytes) {
                stats.attempted += 1;
                match rig.writer.put(&spec.path, bytes) {
                    Ok(()) => {
                        rec.files += 1;
                        rec.bytes += bytes.len() as u64;
                    }
                    Err(_) => stats.failed += 1,
                }
            }
            if rig.writer.flush().is_err() {
                stats.failed += rec.files;
            }
        }
        rec.write_ns = clock.now_ns() - start;
        // A different batch each cycle, so over a run every file the
        // writer puts is read back and checked.
        let offset = stats.cycles.len() * BATCH;
        let paths: Vec<String> = (0..BATCH.min(files.len()))
            .map(|i| files[(offset + i) % files.len()].path.clone())
            .collect();
        let back = {
            let _root = trace::span("bench.wait", &[]);
            rig.writer.get_many(&paths)
        };
        let verify_from = clock.now_ns();
        stats.attempted += paths.len() as u64;
        match back {
            Ok(all) => {
                for (path, bytes) in paths.iter().zip(&all) {
                    if !index_of(path).is_some_and(|index| rig.ingest.check(index, bytes)) {
                        stats.failed += 1;
                    }
                }
            }
            Err(_) => stats.failed += paths.len() as u64,
        }
        if let Some(sink) = &stop.sink {
            sink.absorb(&rig.tracer);
        }
        let verify_to = clock.now_ns();
        let dropped = {
            let _root = trace::span("bench.write", &[]);
            rig.conn.call(ServerRequest::DeleteDataset { dataset: INGEST.into() })
        };
        if !matches!(dropped, Ok(Ok(_))) {
            stats.attempted += 1;
            stats.failed += 1;
        }
        let end = clock.now_ns();
        if traced {
            stats.timeline.own.push((verify_from, verify_to));
            stats.timeline.epochs.push((start, end));
        }
        last_ns = end - start;
        stats.cycles.push(rec);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stop_rules() {
        let fixed = Stop::epochs(2);
        assert!(fixed.start_epoch(0, u64::MAX, 0) && fixed.start_epoch(1, u64::MAX, 0));
        assert!(!fixed.start_epoch(2, 0, 0));
        assert!(!fixed.abandon(1, u64::MAX), "a fixed-epoch run never abandons");
        let timed = Stop::until(100);
        assert!(timed.start_epoch(0, 500, 0), "the first epoch always runs");
        assert!(!timed.abandon(0, 500), "and always completes");
        assert!(timed.start_epoch(1, 99, 0) && !timed.start_epoch(1, 100, 0));
        assert!(timed.start_epoch(1, 60, 39) && !timed.start_epoch(1, 60, 40), "an epoch must fit");
        assert!(timed.abandon(1, 100) && !timed.abandon(1, 99));
        let warm_up = Stop { deadline_ns: Some(100), max_epochs: Some(1), ..Stop::default() };
        assert!(warm_up.start_epoch(0, 0, 0) && warm_up.abandon(0, 100));
    }
}
