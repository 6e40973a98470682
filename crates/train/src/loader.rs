//! A data loader that reads training samples *through DIESEL*.
//!
//! Mirrors a PyTorch `DataLoader` over an image folder: the file list
//! comes from the client's metadata snapshot, the per-epoch order from
//! the configured shuffle strategy (`DL_shuffle`), and every sample is a
//! file read through the client (task cache → server → object store).
//!
//! Reads are pipelined (paper §4.2: I/O overlaps computation). Each
//! epoch runs a two-stage [`WorkPool::pipeline`]:
//!
//! 1. `loader.fetch` — the shuffled order is cut into batch-sized path
//!    groups ([`DieselClient::epoch_batches`], which also hands an
//!    attached task cache the epoch's plan) and each group is read with
//!    [`DieselClient::get_many`]: chunk by chunk through the cache, or
//!    merged by the server into one ranged read per chunk (Fig. 2).
//! 2. `loader.decode` — fetched bytes are decoded and assembled into a
//!    `(Matrix, labels)` mini-batch.
//!
//! Batch *contents and order* are byte-identical for any worker count —
//! the pipeline reorders completions back to source order — so an
//! inline pool (`DIESEL_EXEC_WORKERS=1`) reproduces a threaded run
//! exactly.

use std::sync::Arc;

use diesel_core::{DieselClient, DieselError};
use diesel_exec::{PipelineIter, WorkPool};
use diesel_kv::KvStore;
use diesel_obs::{trace, Tracer};
use diesel_store::ObjectStore;
use diesel_util::Bytes;

use crate::data::{sample_path, split_wire, Sample};
use crate::tensor::Matrix;

/// Upload a sample set as one-file-per-sample through the client
/// (the data-preparation step of §2.1).
pub fn upload_samples<K: KvStore + 'static, S: ObjectStore + 'static>(
    client: &DieselClient<K, S>,
    samples: &[Sample],
) -> diesel_core::Result<()> {
    for (i, s) in samples.iter().enumerate() {
        client.put(&sample_path(s.label, i), &s.encode())?;
    }
    client.flush()?;
    Ok(())
}

/// One decoded mini-batch: features and labels, or the first error hit
/// while fetching/decoding it.
pub type BatchResult = diesel_core::Result<(Matrix, Vec<usize>)>;

/// Mini-batch iterator over a DIESEL-resident dataset.
pub struct DataLoader<K, S> {
    client: Arc<DieselClient<K, S>>,
    batch_size: usize,
    seed: u64,
    pool: WorkPool,
    prefetch_depth: usize,
    tracer: Option<Tracer>,
}

impl<K: KvStore + 'static, S: ObjectStore + 'static> DataLoader<K, S> {
    /// Build a loader. The client must have a snapshot loaded and a
    /// shuffle strategy enabled. Uses the process-wide work pool
    /// (`DIESEL_EXEC_WORKERS`); override with [`with_pool`](Self::with_pool).
    /// A `batch_size` of 0 fails every [`epoch_iter`](Self::epoch_iter).
    pub fn new(client: Arc<DieselClient<K, S>>, batch_size: usize, seed: u64) -> Self {
        DataLoader {
            client,
            batch_size,
            seed,
            pool: diesel_exec::global().clone(),
            prefetch_depth: 2,
            tracer: None,
        }
    }

    /// Run the read pipeline on `pool` instead of the global one. An
    /// inline pool (`WorkPool::inline`) makes every epoch fully
    /// deterministic single-threaded execution.
    #[must_use]
    pub fn with_pool(mut self, pool: WorkPool) -> Self {
        self.pool = pool;
        self
    }

    /// Bound the read-ahead: at most `depth` finished batches buffer
    /// between pipeline stages before fetching blocks (backpressure).
    #[must_use]
    pub fn with_prefetch_depth(mut self, depth: usize) -> Self {
        self.prefetch_depth = depth.max(1);
        self
    }

    /// Record spans into `tracer` while reading: each batch gets a
    /// `loader.fetch{batch=i}` span (parenting the client/net/server
    /// spans of its reads) and a `loader.decode` child span, so one
    /// batch's whole journey shares a trace.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// The wrapped client.
    pub fn client(&self) -> &Arc<DieselClient<K, S>> {
        &self.client
    }

    /// Stream one epoch as mini-batches in this epoch's shuffled order.
    ///
    /// Fetching and decoding run ahead of the consumer on the loader's
    /// work pool (bounded by the prefetch depth), so storage latency
    /// overlaps training compute. Yielded batches are identical — same
    /// order, same bytes — for any worker count.
    pub fn epoch_iter(&self, epoch: u64) -> diesel_core::Result<PipelineIter<BatchResult>> {
        let epoch = self.client.epoch_batches(self.seed, epoch, self.batch_size)?;
        let following = epoch.following;
        let client = Arc::clone(&self.client);
        let tracer = self.tracer.clone();
        let fetched = self.pool.pipeline(
            "loader.fetch",
            self.prefetch_depth,
            epoch.batches.into_iter().enumerate(),
            move |(i, paths): (usize, Vec<String>)| {
                // An attached cache follows this epoch's plan for as long
                // as the fetch stage lives: dropping the iterator joins
                // the stage, which drops the guard, which cancels and
                // joins whatever the cache's lookahead has in flight.
                let _following = &following;
                let _tracer = tracer.as_ref().map(trace::install_tracer);
                let span = if trace::active() {
                    let batch = i.to_string();
                    trace::span("loader.fetch", &[("batch", batch.as_str())])
                } else {
                    trace::SpanGuard::default()
                };
                // The fetch span's context rides along to the decode
                // stage, which may run on a different worker thread.
                let ctx = span.context();
                client.get_many(&paths).map(|bytes| (paths, bytes, ctx))
            },
        );
        let tracer = self.tracer.clone();
        Ok(self.pool.pipeline("loader.decode", self.prefetch_depth, fetched, move |fetch| {
            let (paths, bytes, ctx) = fetch?;
            let _tracer = tracer.as_ref().map(trace::install_tracer);
            let _ctx = trace::install_context(ctx);
            // Decode only under a sampled fetch — an unsampled batch
            // must not mint a decode-only root trace.
            let _span = if ctx.is_some() && trace::active() {
                trace::span("loader.decode", &[])
            } else {
                trace::SpanGuard::default()
            };
            decode_batch(&paths, &bytes)
        }))
    }
}

/// Decode one fetched path group into a training batch, writing every
/// sample's features straight into the batch matrix. A sample that is
/// not in the wire format, or whose feature count differs from the
/// batch's first sample, fails the batch with its path.
fn decode_batch(paths: &[String], bytes: &[Bytes]) -> BatchResult {
    // Decoding samples into tensors is the pipeline's one deliberate
    // transform copy; everything upstream of here is `Bytes` handoff.
    diesel_obs::record_copy("decode", bytes.iter().map(|b| b.len() as u64).sum());
    let dim = bytes.first().map_or(0, |b| b.len().saturating_sub(2) / 4);
    let mut x = Matrix::zeros(bytes.len(), dim);
    let mut labels = Vec::with_capacity(bytes.len());
    for (r, (path, b)) in paths.iter().zip(bytes).enumerate() {
        let (label, features) = split_wire(b)
            .ok_or_else(|| DieselError::Client(format!("undecodable sample {path}")))?;
        if features.len() != dim {
            return Err(DieselError::Client(format!(
                "sample {path} has {} features where its batch has {dim}",
                features.len()
            )));
        }
        for (to, &from) in x.row_mut(r).iter_mut().zip(features) {
            *to = f32::from_le_bytes(from);
        }
        labels.push(label);
    }
    Ok((x, labels))
}

impl<K, S> std::fmt::Debug for DataLoader<K, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DataLoader")
            .field("batch_size", &self.batch_size)
            .field("prefetch_depth", &self.prefetch_depth)
            .field("pool", &self.pool.name())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticSpec;
    use diesel_core::DieselServer;
    use diesel_kv::ShardedKv;
    use diesel_shuffle::ShuffleKind;
    use diesel_store::MemObjectStore;

    type Client = DieselClient<ShardedKv, MemObjectStore>;

    fn setup(n: usize) -> (Arc<Client>, Vec<Sample>) {
        let samples = SyntheticSpec::cifar_like().generate(n);
        (setup_with(&samples), samples)
    }

    fn setup_with(samples: &[Sample]) -> Arc<Client> {
        let server = Arc::new(DieselServer::new(
            Arc::new(ShardedKv::new()),
            Arc::new(MemObjectStore::new()),
        ));
        let client = DieselClient::connect_with(
            server,
            "synth",
            diesel_core::ClientConfig {
                chunk: diesel_chunk::ChunkBuilderConfig {
                    target_chunk_size: 4096,
                    ..Default::default()
                },
            },
        )
        .with_deterministic_identity(1, 1, 100);
        upload_samples(&client, samples).unwrap();
        client.download_meta().unwrap();
        client.enable_shuffle(ShuffleKind::ChunkWise { group_size: 2 });
        Arc::new(client)
    }

    fn collect(
        loader: &DataLoader<ShardedKv, MemObjectStore>,
        epoch: u64,
    ) -> Vec<(Matrix, Vec<usize>)> {
        loader.epoch_iter(epoch).unwrap().collect::<diesel_core::Result<Vec<_>>>().unwrap()
    }

    #[test]
    fn epoch_covers_every_sample_once() {
        let (client, samples) = setup(57);
        let loader = DataLoader::new(client, 8, 3);
        let batches = collect(&loader, 0);
        assert_eq!(batches.len(), 8, "57 / 8 → 8 batches (last partial)");
        let total: usize = batches.iter().map(|(x, _)| x.rows).sum();
        assert_eq!(total, 57);
        // Label histogram must match the generated set.
        let mut want = vec![0usize; 10];
        for s in &samples {
            want[s.label] += 1;
        }
        let mut got = vec![0usize; 10];
        for (_, labels) in &batches {
            for &l in labels {
                got[l] += 1;
            }
        }
        assert_eq!(got, want);
    }

    #[test]
    fn different_epochs_have_different_orders() {
        let (client, _) = setup(40);
        let loader = DataLoader::new(client, 40, 5);
        let e0 = collect(&loader, 0);
        let e1 = collect(&loader, 1);
        assert_ne!(e0[0].1, e1[0].1, "epoch label orders should differ");
    }

    #[test]
    fn feature_payloads_survive_the_trip() {
        let (client, samples) = setup(20);
        let loader = DataLoader::new(client, 20, 7);
        let batches = collect(&loader, 0);
        let (x, labels) = &batches[0];
        // Find a known sample by label + features.
        let s0 = &samples[0];
        let found = (0..x.rows).any(|r| labels[r] == s0.label && x.row(r) == &s0.features[..]);
        assert!(found, "sample 0 must come back bit-identical");
    }

    #[test]
    fn pipelined_batches_match_inline_for_any_worker_count() {
        let (client, _) = setup(41);
        let inline =
            DataLoader::new(Arc::clone(&client), 8, 11).with_pool(WorkPool::inline("loader-test"));
        let baseline = collect(&inline, 0);
        for workers in [2usize, 8] {
            let pool = WorkPool::new("loader-test", diesel_exec::ExecConfig::workers(workers));
            let loader =
                DataLoader::new(Arc::clone(&client), 8, 11).with_pool(pool).with_prefetch_depth(3);
            let got = collect(&loader, 0);
            assert_eq!(got.len(), baseline.len());
            for (g, b) in got.iter().zip(&baseline) {
                assert_eq!(g.1, b.1, "labels diverge at workers={workers}");
                assert_eq!(g.0.data, b.0.data, "features diverge at workers={workers}");
            }
        }
    }

    #[test]
    fn traced_epoch_links_fetch_client_server_and_decode_spans() {
        use std::collections::HashMap;
        let server = DieselServer::new(Arc::new(ShardedKv::new()), Arc::new(MemObjectStore::new()));
        // One shared tracer across server, client, and loader: every
        // span of a batch's journey lands in one buffer.
        let tracer = diesel_obs::Tracer::enabled(server.registry());
        let server = Arc::new(server.with_tracer(tracer.clone()));
        let client = DieselClient::connect_with(
            server,
            "synth",
            diesel_core::ClientConfig {
                chunk: diesel_chunk::ChunkBuilderConfig {
                    target_chunk_size: 4096,
                    ..Default::default()
                },
            },
        )
        .with_deterministic_identity(1, 1, 100)
        .with_tracer(tracer.clone());
        let samples = SyntheticSpec::cifar_like().generate(12);
        upload_samples(&client, &samples).unwrap();
        client.download_meta().unwrap();
        client.enable_shuffle(ShuffleKind::ChunkWise { group_size: 2 });
        tracer.drain(); // keep only the epoch's spans

        let pool = WorkPool::new("loader-trace", diesel_exec::ExecConfig::workers(2));
        let loader =
            DataLoader::new(Arc::new(client), 4, 3).with_pool(pool).with_tracer(tracer.clone());
        let batches = collect(&loader, 0);
        assert_eq!(batches.len(), 3);

        let spans = tracer.drain();
        let by_id: HashMap<u64, &diesel_obs::Span> = spans.iter().map(|s| (s.id, s)).collect();
        let fetches: Vec<_> = spans.iter().filter(|s| s.name == "loader.fetch").collect();
        assert_eq!(fetches.len(), 3, "one fetch span per batch");
        let decodes: Vec<_> = spans.iter().filter(|s| s.name == "loader.decode").collect();
        assert_eq!(decodes.len(), 3);
        for d in &decodes {
            let parent = by_id[&d.parent.unwrap()];
            assert_eq!(parent.name, "loader.fetch", "decode parents its batch's fetch span");
        }
        // Every batch's read reached the server as a descendant of its
        // fetch span: the parent chain is unbroken across the channel.
        let descends_from = |s: &diesel_obs::Span, root: u64| {
            std::iter::successors(s.parent, |p| by_id.get(p).and_then(|s| s.parent))
                .any(|p| p == root)
        };
        for f in &fetches {
            assert!(
                spans.iter().any(|s| s.name == "server.handle" && descends_from(s, f.id)),
                "fetch span {} has no server.handle descendant",
                f.id
            );
        }
    }

    #[test]
    fn a_short_sample_fails_its_batch_by_name_and_leaves_the_rest_alone() {
        const SHORT: usize = 13;
        let samples = SyntheticSpec::cifar_like().generate(41);
        let mut short = samples.clone();
        short[SHORT].features.pop();
        let (whole, cut) = (setup_with(&samples), setup_with(&short));
        let order = whole.epoch_file_list(5, 0).unwrap();
        assert_eq!(cut.epoch_file_list(5, 0).unwrap(), order, "one file shorter, same shuffle");
        let want = collect(&DataLoader::new(whole, 8, 5), 0);
        let got: Vec<BatchResult> = DataLoader::new(cut, 8, 5).epoch_iter(0).unwrap().collect();
        assert_eq!(got.len(), want.len());
        let path = sample_path(short[SHORT].label, SHORT);
        let mut failed = 0;
        for ((got, want), paths) in got.iter().zip(&want).zip(order.chunks(8)) {
            if paths.contains(&path) {
                failed += 1;
                let err = got.as_ref().unwrap_err().to_string();
                assert!(err.contains(&path) && err.contains("23 features"), "{err}");
            } else {
                assert_eq!(got.as_ref().ok(), Some(want), "a batch without the short sample");
            }
        }
        assert_eq!(failed, 1);
    }

    #[test]
    fn a_zero_batch_size_is_a_typed_error_not_a_panic() {
        let (client, _) = setup(8);
        let err = DataLoader::new(client, 0, 3).epoch_iter(0).err();
        assert!(matches!(err, Some(DieselError::Client(_))), "{err:?}");
    }

    #[test]
    fn mid_epoch_drop_is_clean() {
        let (client, _) = setup(30);
        let loader = DataLoader::new(client, 4, 9).with_prefetch_depth(2);
        let mut iter = loader.epoch_iter(0).unwrap();
        let first = iter.next().unwrap().unwrap();
        assert_eq!(first.1.len(), 4);
        drop(iter); // pipeline must cancel and join without hanging
    }
}
