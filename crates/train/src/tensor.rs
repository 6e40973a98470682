//! Minimal dense `f32` matrices with thread-parallel GEMM.
//!
//! Just enough linear algebra for an MLP: matmul in the three layouts a
//! backward pass needs, bias broadcast, and elementwise helpers. Row
//! parallelism follows the hpc-parallel guide's idiom: the outer loop
//! fans out over output rows via the shared
//! [`diesel_exec::global()`] work pool's
//! [`for_each_chunk_mut`](diesel_exec::WorkPool::for_each_chunk_mut)
//! (one contiguous run of rows per worker, global row indices), so GEMM
//! shares workers — and the `DIESEL_EXEC_WORKERS=1` determinism mode —
//! with the rest of the tree.

/// A row-major `rows × cols` matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row-major storage, `rows * cols` long.
    pub data: Vec<f32>,
}

impl Matrix {
    /// An all-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Build from a generator `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Borrow row `r`.
    #[expect(clippy::indexing_slicing, reason = "a row out of range is a caller bug")]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[expect(clippy::indexing_slicing, reason = "a row out of range is a caller bug")]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self @ other` — (m×k) · (k×n) → m×n.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(m, n);
        diesel_exec::global().for_each_chunk_mut(&mut out.data, n, |i, orow| {
            #[expect(clippy::indexing_slicing, reason = "i < m rows of k")]
            let arow = &self.data[i * k..(i + 1) * k];
            for (p, &a) in arow.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                #[expect(clippy::indexing_slicing, reason = "p < k rows of n")]
                let brow = &other.data[p * n..(p + 1) * n];
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
        });
        out
    }

    /// `selfᵀ @ other` — (m×k)ᵀ · (m×n) → k×n (weight gradients).
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "t_matmul shape mismatch");
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(k, n);
        // Parallelize over output rows (columns of self).
        diesel_exec::global().for_each_chunk_mut(&mut out.data, n, |p, orow| {
            for i in 0..m {
                #[expect(clippy::indexing_slicing, reason = "i < m rows of k, p < k")]
                let a = self.data[i * k + p];
                if a == 0.0 {
                    continue;
                }
                #[expect(clippy::indexing_slicing, reason = "i < m rows of n")]
                let brow = &other.data[i * n..(i + 1) * n];
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
        });
        out
    }

    /// `self @ otherᵀ` — (m×k) · (n×k)ᵀ → m×n (input gradients).
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_t shape mismatch");
        let (m, k, n) = (self.rows, self.cols, other.rows);
        let mut out = Matrix::zeros(m, n);
        diesel_exec::global().for_each_chunk_mut(&mut out.data, n, |i, orow| {
            #[expect(clippy::indexing_slicing, reason = "i < m rows of k")]
            let arow = &self.data[i * k..(i + 1) * k];
            for (j, o) in orow.iter_mut().enumerate() {
                #[expect(clippy::indexing_slicing, reason = "j < n rows of k")]
                let brow = &other.data[j * k..(j + 1) * k];
                *o = arow.iter().zip(brow).map(|(&a, &b)| a * b).sum();
            }
        });
        out
    }

    /// Add a length-`cols` bias vector to every row.
    pub fn add_bias(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols);
        for r in 0..self.rows {
            for (v, &b) in self.row_mut(r).iter_mut().zip(bias) {
                *v += b;
            }
        }
    }

    /// In-place ReLU.
    pub fn relu(&mut self) {
        for v in &mut self.data {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
    }

    /// Elementwise multiply by the ReLU mask of `pre` (backward through
    /// ReLU).
    pub fn relu_backward(&mut self, pre: &Matrix) {
        assert_eq!(self.data.len(), pre.data.len());
        for (g, &p) in self.data.iter_mut().zip(&pre.data) {
            if p <= 0.0 {
                *g = 0.0;
            }
        }
    }

    /// Column sums (bias gradients).
    pub fn col_sums(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (o, &v) in out.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
        out
    }

    /// `self += alpha * other` (SGD update).
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(self.data.len(), other.data.len());
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Scale in place.
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }
}

/// Row-wise softmax followed by cross-entropy against integer labels.
/// Returns `(mean loss, dlogits)` where `dlogits = (softmax − onehot)/B`,
/// or `None` when a label is not below the class count (the row width).
pub fn softmax_cross_entropy(logits: &Matrix, labels: &[usize]) -> Option<(f32, Matrix)> {
    assert_eq!(logits.rows, labels.len());
    let b = logits.rows as f32;
    let mut grad = logits.clone();
    let mut loss = 0.0f64;
    for (r, &label) in labels.iter().enumerate() {
        let row = grad.row_mut(r);
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
        let p = row.get_mut(label)?;
        loss -= p.max(1e-12).ln() as f64;
        *p -= 1.0;
        for v in row.iter_mut() {
            *v /= b;
        }
    }
    Some(((loss / b as f64) as f32, grad))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, vals: &[f32]) -> Matrix {
        assert_eq!(vals.len(), rows * cols);
        Matrix { rows, cols, data: vals.to_vec() }
    }

    #[test]
    fn matmul_small_known() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data, vec![58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transposed_variants_agree_with_explicit_transpose() {
        let a = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 4, &(0..12).map(|i| i as f32).collect::<Vec<_>>());
        // aᵀ @ b via t_matmul vs manual transpose.
        let at = Matrix::from_fn(2, 3, |r, c| a.data[c * 2 + r]);
        assert_eq!(a.t_matmul(&b).data, at.matmul(&b).data);
        // a @ cᵀ via matmul_t.
        let c = m(4, 2, &(0..8).map(|i| i as f32).collect::<Vec<_>>());
        let ct = Matrix::from_fn(2, 4, |r, cc| c.data[cc * 2 + r]);
        assert_eq!(a.matmul_t(&c).data, a.matmul(&ct).data);
    }

    #[test]
    fn bias_relu_and_sums() {
        let mut x = m(2, 3, &[-1.0, 2.0, -3.0, 4.0, -5.0, 6.0]);
        x.add_bias(&[1.0, 1.0, 1.0]);
        x.relu();
        assert_eq!(x.data, vec![0.0, 3.0, 0.0, 5.0, 0.0, 7.0]);
        assert_eq!(x.col_sums(), vec![5.0, 3.0, 7.0]);
    }

    #[test]
    fn relu_backward_masks_gradient() {
        let pre = m(1, 4, &[-1.0, 0.0, 0.5, 2.0]);
        let mut g = m(1, 4, &[10.0, 10.0, 10.0, 10.0]);
        g.relu_backward(&pre);
        assert_eq!(g.data, vec![0.0, 0.0, 10.0, 10.0]);
    }

    #[test]
    fn softmax_ce_gradient_sums_to_zero_per_row() {
        let logits = m(2, 3, &[2.0, 1.0, 0.1, 0.0, 0.0, 0.0]);
        let (loss, grad) = softmax_cross_entropy(&logits, &[0, 2]).unwrap();
        assert!(loss > 0.0);
        for r in 0..2 {
            let s: f32 = grad.row(r).iter().sum();
            assert!(s.abs() < 1e-6, "row {r} grad sum {s}");
        }
        // Correct-class gradient is negative.
        assert!(grad.data[0] < 0.0);
        assert!(grad.row(1)[2] < 0.0);
    }

    #[test]
    fn softmax_ce_loss_decreases_with_confidence() {
        let confident = m(1, 2, &[10.0, -10.0]);
        let unsure = m(1, 2, &[0.1, 0.0]);
        let (l1, _) = softmax_cross_entropy(&confident, &[0]).unwrap();
        let (l2, _) = softmax_cross_entropy(&unsure, &[0]).unwrap();
        assert!(l1 < l2);
        assert!(l1 < 1e-4);
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let logits = m(1, 3, &[1e4, 1e4 - 1.0, -1e4]);
        let (loss, grad) = softmax_cross_entropy(&logits, &[0]).unwrap();
        assert!(loss.is_finite());
        assert!(grad.data.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn softmax_ce_rejects_a_label_past_the_last_class() {
        assert!(softmax_cross_entropy(&m(1, 2, &[0.0, 0.0]), &[2]).is_none());
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = m(1, 3, &[1.0, 2.0, 3.0]);
        let b = m(1, 3, &[10.0, 10.0, 10.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.data, vec![6.0, 7.0, 8.0]);
        a.scale(2.0);
        assert_eq!(a.data, vec![12.0, 14.0, 16.0]);
    }

    #[test]
    fn parallel_matmul_matches_serial_reference() {
        let a = Matrix::from_fn(33, 47, |r, c| ((r * 31 + c * 7) % 13) as f32 - 6.0);
        let b = Matrix::from_fn(47, 29, |r, c| ((r * 17 + c * 3) % 11) as f32 - 5.0);
        let c = a.matmul(&b);
        // Serial reference.
        for i in [0usize, 13, 32] {
            for j in [0usize, 11, 28] {
                let expect: f32 = (0..47).map(|p| a.data[i * 47 + p] * b.data[p * 29 + j]).sum();
                let got = c.data[i * 29 + j];
                assert!((got - expect).abs() < 1e-3, "({i},{j}): {got} vs {expect}");
            }
        }
    }
}
