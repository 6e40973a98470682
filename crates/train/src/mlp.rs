//! A multi-layer perceptron with momentum SGD.
//!
//! Architecture: `input → [hidden ReLU]* → logits`, softmax cross
//! entropy. Deterministic He-style initialization from a seed so
//! training runs are exactly reproducible — the Fig. 13 experiment
//! compares *shuffle strategies* with everything else held fixed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::tensor::{softmax_cross_entropy, Matrix};

/// MLP shape and optimizer hyper-parameters.
#[derive(Debug, Clone)]
pub struct MlpConfig {
    /// Input dimensionality.
    pub input_dim: usize,
    /// Hidden layer widths (empty = linear model).
    pub hidden: Vec<usize>,
    /// Number of classes.
    pub classes: usize,
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient.
    pub momentum: f32,
}

impl Default for MlpConfig {
    fn default() -> Self {
        MlpConfig { input_dim: 32, hidden: vec![64], classes: 10, lr: 0.05, momentum: 0.9 }
    }
}

struct Layer {
    w: Matrix,
    b: Vec<f32>,
    vw: Matrix,
    vb: Vec<f32>,
}

/// The model.
pub struct Mlp {
    pub(crate) config: MlpConfig,
    layers: Vec<Layer>,
}

impl Mlp {
    /// Deterministically initialized model.
    pub fn new(config: MlpConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dims = vec![config.input_dim];
        dims.extend(&config.hidden);
        dims.push(config.classes);
        let layers = dims
            .iter()
            .zip(dims.iter().skip(1))
            .map(|(&fan_in, &fan_out)| {
                let std = (2.0 / fan_in as f32).sqrt();
                Layer {
                    w: Matrix::from_fn(fan_in, fan_out, |_, _| {
                        (rng.gen::<f32>() * 2.0 - 1.0) * std
                    }),
                    b: vec![0.0; fan_out],
                    vw: Matrix::zeros(fan_in, fan_out),
                    vb: vec![0.0; fan_out],
                }
            })
            .collect();
        Mlp { config, layers }
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.w.data.len() + l.b.len()).sum()
    }

    /// Forward pass: returns logits (batch × classes).
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut act = x.clone();
        let n = self.layers.len();
        for (i, layer) in self.layers.iter().enumerate() {
            let mut z = act.matmul(&layer.w);
            z.add_bias(&layer.b);
            if i + 1 < n {
                z.relu();
            }
            act = z;
        }
        act
    }

    /// One SGD step on a mini-batch. Returns the mean loss, or `None`
    /// (and leaves the model untouched) when a label is not below
    /// `classes`.
    #[expect(clippy::indexing_slicing, reason = "acts has n + 1 and pres n entries for n layers")]
    pub fn train_batch(&mut self, x: &Matrix, labels: &[usize]) -> Option<f32> {
        let n = self.layers.len();
        // Forward, keeping pre/post activations.
        let mut acts: Vec<Matrix> = Vec::with_capacity(n + 1); // post-activation inputs
        let mut pres: Vec<Matrix> = Vec::with_capacity(n); // pre-activation z
        acts.push(x.clone());
        for (i, layer) in self.layers.iter().enumerate() {
            let mut z = acts[i].matmul(&layer.w);
            z.add_bias(&layer.b);
            pres.push(z.clone());
            if i + 1 < n {
                z.relu();
            }
            acts.push(z);
        }
        let (loss, mut grad) = softmax_cross_entropy(&acts[n], labels)?;
        // Backward.
        for i in (0..n).rev() {
            let dw = acts[i].t_matmul(&grad);
            let db = grad.col_sums();
            let dx = if i > 0 {
                let mut dx = grad.matmul_t(&self.layers[i].w);
                dx.relu_backward(&pres[i - 1]);
                Some(dx)
            } else {
                None
            };
            let layer = &mut self.layers[i];
            // Momentum: v = m·v − lr·g; w += v.
            layer.vw.scale(self.config.momentum);
            layer.vw.axpy(-self.config.lr, &dw);
            let lr = self.config.lr;
            let mom = self.config.momentum;
            for ((vb, w), &g) in layer.vb.iter_mut().zip(layer.b.iter_mut()).zip(&db) {
                *vb = mom * *vb - lr * g;
                *w += *vb;
            }
            let vw = layer.vw.clone();
            layer.w.axpy(1.0, &vw);
            if let Some(dx) = dx {
                grad = dx;
            }
        }
        Some(loss)
    }

    /// Predicted class per row.
    #[cfg(test)]
    fn predict(&self, x: &Matrix) -> Vec<usize> {
        let logits = self.forward(x);
        (0..logits.rows)
            .map(|r| {
                logits
                    .row(r)
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .map(|(i, _)| i)
                    .unwrap()
            })
            .collect()
    }
}

impl std::fmt::Debug for Mlp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mlp")
            .field("config", &self.config)
            .field("params", &self.param_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_batch() -> (Matrix, Vec<usize>) {
        let x = Matrix { rows: 4, cols: 2, data: vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0] };
        (x, vec![0, 1, 1, 0])
    }

    #[test]
    fn learns_xor() {
        let mut mlp = Mlp::new(
            MlpConfig { input_dim: 2, hidden: vec![16], classes: 2, lr: 0.2, momentum: 0.9 },
            42,
        );
        let (x, y) = xor_batch();
        let first_loss = mlp.train_batch(&x, &y).unwrap();
        let mut last = first_loss;
        for _ in 0..400 {
            last = mlp.train_batch(&x, &y).unwrap();
        }
        assert!(last < first_loss * 0.1, "loss {first_loss} → {last}");
        assert_eq!(mlp.predict(&x), y);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut m = Mlp::new(
                MlpConfig { input_dim: 2, hidden: vec![8], classes: 2, lr: 0.1, momentum: 0.9 },
                seed,
            );
            let (x, y) = xor_batch();
            (0..50).map(|_| m.train_batch(&x, &y).unwrap()).last().unwrap()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn linear_model_trains_separable_data() {
        let mut m = Mlp::new(
            MlpConfig { input_dim: 1, hidden: vec![], classes: 2, lr: 0.5, momentum: 0.0 },
            1,
        );
        let x = Matrix { rows: 4, cols: 1, data: vec![-2.0, -1.0, 1.0, 2.0] };
        let y = vec![0, 0, 1, 1];
        for _ in 0..100 {
            m.train_batch(&x, &y);
        }
        assert_eq!(m.predict(&x), y);
    }

    #[test]
    fn param_count() {
        let m = Mlp::new(
            MlpConfig { input_dim: 10, hidden: vec![20], classes: 5, lr: 0.1, momentum: 0.9 },
            0,
        );
        assert_eq!(m.param_count(), 10 * 20 + 20 + 20 * 5 + 5);
    }

    #[test]
    fn loss_is_finite_under_aggressive_lr() {
        let mut m = Mlp::new(
            MlpConfig { input_dim: 2, hidden: vec![8], classes: 2, lr: 1.5, momentum: 0.9 },
            3,
        );
        let (x, y) = xor_batch();
        for _ in 0..50 {
            let loss = m.train_batch(&x, &y).unwrap();
            assert!(loss.is_finite());
        }
    }
}
