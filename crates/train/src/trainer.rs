//! Epoch loop and evaluation — the engine of the Fig. 13 experiment.

use diesel_kv::KvStore;
use diesel_store::ObjectStore;

use crate::data::{to_batch, Sample};
use crate::loader::DataLoader;
use crate::mlp::Mlp;

/// Training-run parameters.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of epochs.
    pub epochs: u64,
    /// Top-k values to report (Fig. 13 uses top-1 and top-5).
    pub topk: (usize, usize),
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig { epochs: 20, topk: (1, 5) }
    }
}

/// Per-epoch measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochMetrics {
    /// Epoch index (0-based).
    pub epoch: u64,
    /// Mean training loss over the epoch.
    pub loss: f32,
    /// Top-1 eval accuracy after the epoch.
    pub top1: f64,
    /// Top-k (default 5) eval accuracy after the epoch.
    pub topk: f64,
}

/// Top-k accuracy of `model` on `samples`. A label the model has no
/// class for counts as a miss.
pub fn topk_accuracy(model: &Mlp, samples: &[Sample], k: usize) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let refs: Vec<&Sample> = samples.iter().collect();
    let (x, labels) = to_batch(&refs);
    let logits = model.forward(&x);
    let mut correct = 0usize;
    for (r, &label) in labels.iter().enumerate() {
        let row = logits.row(r);
        let Some(&own) = row.get(label) else { continue };
        // Rank of the true class = #logits strictly greater.
        let better = row.iter().filter(|&&v| v > own).count();
        if better < k {
            correct += 1;
        }
    }
    correct as f64 / samples.len() as f64
}

/// Train `model` for `config.epochs` epochs, reading data through the
/// loader (and therefore through DIESEL with whatever shuffle strategy
/// the client has enabled). Returns per-epoch metrics; a sample whose
/// label is not below the model's class count, or whose feature count
/// is not the model's input width, fails the run.
pub fn train<K: KvStore + 'static, S: ObjectStore + 'static>(
    model: &mut Mlp,
    loader: &DataLoader<K, S>,
    eval: &[Sample],
    config: &TrainConfig,
) -> diesel_core::Result<Vec<EpochMetrics>> {
    let mut out = Vec::with_capacity(config.epochs as usize);
    for epoch in 0..config.epochs {
        let mut loss_sum = 0.0f64;
        let mut n = 0u64;
        // Stream batches: the loader's pipeline fetches and decodes the
        // next batches while `train_batch` runs on this one (§4.2's
        // compute/I-O overlap).
        for batch in loader.epoch_iter(epoch)? {
            let (x, labels) = batch?;
            let width = model.config.input_dim;
            if x.cols != width {
                return Err(diesel_core::DieselError::Client(format!(
                    "epoch {epoch}: samples have {} features where the model takes {width}",
                    x.cols
                )));
            }
            let loss = model.train_batch(&x, &labels).ok_or_else(|| {
                diesel_core::DieselError::Client(format!(
                    "epoch {epoch}: a sample's label is not below the model's class count"
                ))
            })?;
            loss_sum += loss as f64;
            n += 1;
        }
        out.push(EpochMetrics {
            epoch,
            loss: (loss_sum / n.max(1) as f64) as f32,
            top1: topk_accuracy(model, eval, config.topk.0),
            topk: topk_accuracy(model, eval, config.topk.1),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticSpec;
    use crate::loader::upload_samples;
    use crate::mlp::MlpConfig;
    use diesel_core::{ClientConfig, DieselClient, DieselServer};
    use diesel_kv::ShardedKv;
    use diesel_shuffle::ShuffleKind;
    use diesel_store::MemObjectStore;
    use std::sync::Arc;

    fn run(kind: ShuffleKind, epochs: u64) -> Vec<EpochMetrics> {
        let spec = SyntheticSpec::cifar_like();
        let train_set = spec.generate(600);
        let eval_set = spec.generate_eval(200);
        let server = Arc::new(DieselServer::new(
            Arc::new(ShardedKv::new()),
            Arc::new(MemObjectStore::new()),
        ));
        let client = DieselClient::connect_with(
            server,
            "synth",
            ClientConfig {
                chunk: diesel_chunk::ChunkBuilderConfig {
                    target_chunk_size: 8192,
                    ..Default::default()
                },
            },
        )
        .with_deterministic_identity(1, 1, 100);
        upload_samples(&client, &train_set).unwrap();
        client.download_meta().unwrap();
        client.enable_shuffle(kind);
        let loader = DataLoader::new(Arc::new(client), 32, 99);
        let mut model = Mlp::new(
            MlpConfig {
                input_dim: spec.dim,
                hidden: vec![48],
                classes: spec.classes,
                lr: 0.08,
                momentum: 0.9,
            },
            7,
        );
        train(&mut model, &loader, &eval_set, &TrainConfig { epochs, topk: (1, 5) }).unwrap()
    }

    #[test]
    fn training_converges_with_dataset_shuffle() {
        let metrics = run(ShuffleKind::DatasetShuffle, 8);
        assert_eq!(metrics.len(), 8);
        let first = metrics.first().unwrap();
        let last = metrics.last().unwrap();
        assert!(last.loss < first.loss, "loss must decrease");
        assert!(last.top1 > 0.5, "top-1 {:.2} too low", last.top1);
        assert!(last.topk >= last.top1, "top-5 ≥ top-1");
        assert!(last.topk > 0.85, "top-5 {:.2} too low", last.topk);
    }

    #[test]
    fn chunk_wise_shuffle_converges_equivalently() {
        // The Fig. 13 claim, in miniature: final accuracy within a few
        // points of the dataset-shuffle baseline.
        let base = run(ShuffleKind::DatasetShuffle, 8);
        let cw = run(ShuffleKind::ChunkWise { group_size: 4 }, 8);
        let b = base.last().unwrap().top1;
        let c = cw.last().unwrap().top1;
        assert!((b - c).abs() < 0.08, "chunk-wise top-1 {c:.3} deviates from baseline {b:.3}");
    }

    /// A loader over `samples`, stored one file each, chunk-wise shuffled.
    fn loader_of(samples: &[Sample]) -> DataLoader<ShardedKv, MemObjectStore> {
        let server = Arc::new(DieselServer::new(
            Arc::new(ShardedKv::new()),
            Arc::new(MemObjectStore::new()),
        ));
        let client = DieselClient::connect(server, "stray").with_deterministic_identity(1, 1, 100);
        upload_samples(&client, samples).unwrap();
        client.download_meta().unwrap();
        client.enable_shuffle(ShuffleKind::ChunkWise { group_size: 2 });
        DataLoader::new(Arc::new(client), 32, 99)
    }

    #[test]
    fn a_label_past_the_last_class_is_an_error_and_a_miss() {
        let spec = SyntheticSpec { dim: 4, classes: 3, separation: 1.0, noise: 0.5, seed: 5 };
        let mut samples = spec.generate(20);
        samples.push(Sample { label: spec.classes, features: vec![0.0; spec.dim] });
        let model = Mlp::new(
            MlpConfig { input_dim: 4, hidden: vec![], classes: 3, lr: 0.1, momentum: 0.0 },
            1,
        );
        // The stray label is always a miss, so even top-#classes misses it.
        let acc = topk_accuracy(&model, &samples, spec.classes);
        assert!((acc - 20.0 / 21.0).abs() < 1e-9, "{acc}");

        let mut model = model;
        let config = TrainConfig { epochs: 1, topk: (1, 5) };
        let err = train(&mut model, &loader_of(&samples), &[], &config).unwrap_err();
        assert!(matches!(err, diesel_core::DieselError::Client(_)), "{err}");
        assert!(err.to_string().contains("epoch 0: a sample's label"), "{err}");
    }

    #[test]
    fn samples_narrower_than_the_model_are_an_error_not_a_panic() {
        let spec = SyntheticSpec { dim: 4, classes: 3, separation: 1.0, noise: 0.5, seed: 5 };
        let mut model = Mlp::new(
            MlpConfig { input_dim: 5, hidden: vec![], classes: 3, lr: 0.1, momentum: 0.0 },
            1,
        );
        let config = TrainConfig { epochs: 1, topk: (1, 5) };
        let err = train(&mut model, &loader_of(&spec.generate(20)), &[], &config).unwrap_err();
        assert!(matches!(err, diesel_core::DieselError::Client(_)), "{err}");
        assert!(err
            .to_string()
            .contains("epoch 0: samples have 4 features where the model takes 5"));
    }

    #[test]
    fn topk_accuracy_edge_cases() {
        let model = Mlp::new(
            MlpConfig { input_dim: 4, hidden: vec![], classes: 3, lr: 0.1, momentum: 0.0 },
            1,
        );
        assert_eq!(topk_accuracy(&model, &[], 1), 0.0);
        let samples =
            SyntheticSpec { dim: 4, classes: 3, separation: 1.0, noise: 0.5, seed: 5 }.generate(30);
        let a1 = topk_accuracy(&model, &samples, 1);
        let a3 = topk_accuracy(&model, &samples, 3);
        assert!(a1 <= a3);
        assert!((a3 - 1.0).abs() < 1e-9, "top-k = #classes must be 100%");
    }
}
