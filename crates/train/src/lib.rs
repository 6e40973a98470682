//! # diesel-train — deep-learning training substrate
//!
//! The paper's Fig. 13 claims chunk-wise shuffle "affects neither the
//! model accuracy nor convergence speed". That is a property of SGD and
//! the data *order*, not of any particular network, so we verify it with
//! a real (small) trainer instead of pretending to run ResNet-50:
//!
//! * [`tensor`] — row-major `f32` matrices; GEMM fans out over the
//!   `diesel-exec` work pool.
//! * [`mlp`] — a configurable multi-layer perceptron with softmax cross
//!   entropy and momentum SGD; deterministic initialization.
//! * [`data`] — seeded synthetic classification datasets (gaussian class
//!   clusters), serialized as one small binary file per sample so the
//!   dataset stresses DIESEL exactly like an image folder; plus an
//!   in-memory view for pure-algorithm tests.
//! * [`loader`] — a `DataLoader` that reads samples *through a
//!   DieselClient* in the order produced by either shuffle strategy,
//!   pipelining batched fetch and decode stages ahead of the consumer.
//! * [`trainer`] — epoch loop + top-k evaluation, the engine behind the
//!   Fig. 13 experiment.
//! * [`profiles`] — per-iteration cost profiles of the paper's four
//!   models (AlexNet, VGG-11, ResNet-18, ResNet-50) on the paper's
//!   4-node × 8-GPU testbed, calibrated from the paper's own numbers
//!   (e.g. ResNet-50 saves ≈ 80 ms/iteration with DIESEL, §6.6); these
//!   drive the time-domain experiments of Figs. 14/15.

pub mod data;
pub mod loader;
pub mod mlp;
pub mod profiles;
pub mod tensor;
pub mod trainer;

pub use data::{Sample, SyntheticSpec};
pub use loader::DataLoader;
pub use mlp::{Mlp, MlpConfig};
pub use profiles::{ModelProfile, MODEL_PROFILES};
pub use tensor::Matrix;
pub use trainer::{topk_accuracy, train, EpochMetrics, TrainConfig};
