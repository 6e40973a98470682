//! Seeded synthetic classification datasets.
//!
//! Substitutes for ImageNet-1K / CIFAR-10 (DESIGN.md §2): `classes`
//! gaussian clusters in `dim` dimensions, one small binary file per
//! sample — so reading the dataset through DIESEL exercises exactly the
//! many-small-files pattern of an image folder, while the learning
//! problem is hard enough that convergence differences between shuffle
//! strategies would show.
//!
//! Sample wire format: `label u16 ‖ dim × f32 (LE)`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::tensor::Matrix;

/// One labelled sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Class label.
    pub label: usize,
    /// Feature vector.
    pub features: Vec<f32>,
}

impl Sample {
    /// Serialize to the wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(2 + self.features.len() * 4);
        out.extend_from_slice(&(self.label as u16).to_le_bytes());
        for f in &self.features {
            out.extend_from_slice(&f.to_le_bytes());
        }
        out
    }

    /// Deserialize.
    pub fn decode(data: &[u8]) -> Option<Sample> {
        let (label, features) = split_wire(data)?;
        Some(Sample { label, features: features.iter().map(|&f| f32::from_le_bytes(f)).collect() })
    }
}

/// Split one sample's wire bytes into its label and its little-endian
/// features, without copying; `None` when the bytes are no sample.
pub(crate) fn split_wire(data: &[u8]) -> Option<(usize, &[[u8; 4]])> {
    let (&label, body) = data.split_first_chunk::<2>()?;
    match body.as_chunks::<4>() {
        (features, []) => Some((usize::from(u16::from_le_bytes(label)), features)),
        _ => None,
    }
}

/// Generator parameters for a synthetic dataset.
#[derive(Debug, Clone)]
pub struct SyntheticSpec {
    /// Feature dimensionality.
    pub dim: usize,
    /// Number of classes.
    pub classes: usize,
    /// Distance scale between class centers (larger = easier).
    pub separation: f32,
    /// Per-sample gaussian noise σ.
    pub noise: f32,
    /// RNG seed (class centers and samples both derive from it).
    pub seed: u64,
}

impl SyntheticSpec {
    /// An "ImageNet-like" spec: many classes, moderate difficulty.
    pub fn imagenet_like() -> Self {
        SyntheticSpec { dim: 48, classes: 20, separation: 2.2, noise: 1.0, seed: 11 }
    }

    /// A "CIFAR-like" spec: 10 classes.
    pub fn cifar_like() -> Self {
        SyntheticSpec { dim: 24, classes: 10, separation: 2.0, noise: 1.0, seed: 13 }
    }

    fn centers(&self) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..self.classes)
            .map(|_| {
                let v: Vec<f32> = (0..self.dim).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect();
                let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-6);
                v.into_iter().map(|x| x / norm * self.separation).collect()
            })
            .collect()
    }

    /// Generate `n` samples (round-robin over classes, seeded noise).
    pub fn generate(&self, n: usize) -> Vec<Sample> {
        let centers = self.centers();
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
        (0..n)
            .map(|i| {
                let label = i % self.classes;
                #[expect(clippy::indexing_slicing, reason = "there is one center per class")]
                let features =
                    centers[label].iter().map(|&c| c + gauss(&mut rng) * self.noise).collect();
                Sample { label, features }
            })
            .collect()
    }

    /// Generate a disjoint evaluation set (different noise stream).
    pub fn generate_eval(&self, n: usize) -> Vec<Sample> {
        let centers = self.centers();
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_mul(0x2545_F491).wrapping_add(7));
        (0..n)
            .map(|i| {
                let label = (i * 7 + 3) % self.classes;
                #[expect(clippy::indexing_slicing, reason = "there is one center per class")]
                let features =
                    centers[label].iter().map(|&c| c + gauss(&mut rng) * self.noise).collect();
                Sample { label, features }
            })
            .collect()
    }
}

/// Box–Muller standard normal.
fn gauss(rng: &mut StdRng) -> f32 {
    let u1: f32 = rng.gen::<f32>().max(1e-7);
    let u2: f32 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// Stack samples into a feature matrix and label vector.
pub fn to_batch(samples: &[&Sample]) -> (Matrix, Vec<usize>) {
    assert!(!samples.is_empty());
    let dim = samples.first().map_or(0, |s| s.features.len());
    let mut x = Matrix::zeros(samples.len(), dim);
    let mut labels = Vec::with_capacity(samples.len());
    for (r, s) in samples.iter().enumerate() {
        x.row_mut(r).copy_from_slice(&s.features);
        labels.push(s.label);
    }
    (x, labels)
}

/// The dataset path of sample `i` (an image-folder-like layout:
/// `train/class<label>/sample<i>.bin`).
pub fn sample_path(label: usize, i: usize) -> String {
    format!("train/class{label:03}/sample{i:06}.bin")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_roundtrip() {
        let s = Sample { label: 7, features: vec![1.5, -2.25, 0.0] };
        assert_eq!(Sample::decode(&s.encode()).unwrap(), s);
        assert!(Sample::decode(&[1]).is_none());
        assert!(Sample::decode(&[0, 0, 1, 2, 3]).is_none(), "misaligned payload");
    }

    #[test]
    fn generation_is_deterministic_and_balanced() {
        let spec = SyntheticSpec::cifar_like();
        let a = spec.generate(100);
        let b = spec.generate(100);
        assert_eq!(a, b);
        let mut counts = vec![0; spec.classes];
        for s in &a {
            counts[s.label] += 1;
        }
        assert!(counts.iter().all(|&c| c == 10), "{counts:?}");
    }

    #[test]
    fn eval_set_differs_from_train() {
        let spec = SyntheticSpec::cifar_like();
        let train = spec.generate(50);
        let eval = spec.generate_eval(50);
        assert_ne!(train, eval);
    }

    #[test]
    fn classes_are_actually_separated() {
        // Nearest-center classification should beat chance easily.
        let spec = SyntheticSpec::imagenet_like();
        let centers = spec.centers();
        let eval = spec.generate_eval(400);
        let correct = eval
            .iter()
            .filter(|s| {
                let nearest = centers
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| {
                        dist(&s.features, a).partial_cmp(&dist(&s.features, b)).unwrap()
                    })
                    .unwrap()
                    .0;
                nearest == s.label
            })
            .count();
        let acc = correct as f64 / eval.len() as f64;
        assert!(acc > 0.3, "nearest-center accuracy {acc} barely above chance");
        assert!(acc < 0.999, "dataset too easy to show convergence curves");
    }

    fn dist(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }

    #[test]
    fn batching() {
        let spec = SyntheticSpec::cifar_like();
        let samples = spec.generate(8);
        let refs: Vec<&Sample> = samples.iter().collect();
        let (x, labels) = to_batch(&refs);
        assert_eq!(x.rows, 8);
        assert_eq!(x.cols, spec.dim);
        assert_eq!(labels.len(), 8);
        assert_eq!(x.row(3), &samples[3].features[..]);
    }

    #[test]
    fn paths_look_like_an_image_folder() {
        assert_eq!(sample_path(3, 17), "train/class003/sample000017.bin");
    }
}
