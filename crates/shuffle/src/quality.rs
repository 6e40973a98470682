//! Statistical quality measures for shuffled orders.
//!
//! Fig. 13's empirical claim is that chunk-wise orders train as well as
//! fully shuffled orders. These metrics give the order-level view used
//! by tests and the ablation bench:
//!
//! * [`mean_normalized_displacement`] — how far items move from their
//!   canonical position (1/3 for a uniform permutation, → uniform-like
//!   mixing).
//! * [`epoch_correlation`] — rank correlation between two epochs' orders
//!   (≈ 0 when epochs are independent).
//! * [`chunk_run_fraction`] — fraction of adjacent pairs coming from the
//!   same chunk (reveals how "chunky" an order is; the dataset shuffle is
//!   ≈ 1/#chunks, chunk-wise is ≈ 1/group-chunks).

use crate::plan::{ShuffleItem, ShufflePlan};

/// Mean |position − canonical position| / n over all items, where the
/// canonical position is the item's index in the unshuffled order.
///
/// A uniform random permutation converges to 1/3; a fully sorted order
/// gives 0.
pub fn mean_normalized_displacement(plan: &ShufflePlan, canonical: &[ShuffleItem]) -> f64 {
    let n = plan.items.len();
    if n == 0 {
        return 0.0;
    }
    assert_eq!(canonical.len(), n, "orders must cover the same items");
    let mut canon_pos = std::collections::HashMap::with_capacity(n);
    for (i, &item) in canonical.iter().enumerate() {
        canon_pos.insert(item, i);
    }
    let mut total = 0.0;
    for (i, item) in plan.items.iter().enumerate() {
        let c = canon_pos[item];
        total += (i as f64 - c as f64).abs();
    }
    total / (n as f64 * n as f64)
}

/// Spearman-style rank correlation between the positions of items in two
/// epochs. Independent shuffles give ≈ 0; identical orders give 1.
pub fn epoch_correlation(a: &ShufflePlan, b: &ShufflePlan) -> f64 {
    let n = a.items.len();
    assert_eq!(n, b.items.len(), "epochs must cover the same items");
    if n < 2 {
        return 1.0;
    }
    let mut pos_b = std::collections::HashMap::with_capacity(n);
    for (i, &item) in b.items.iter().enumerate() {
        pos_b.insert(item, i as f64);
    }
    // Pearson correlation of (position in a, position in b).
    let mean = (n as f64 - 1.0) / 2.0;
    let mut cov = 0.0;
    let mut var = 0.0;
    for (i, item) in a.items.iter().enumerate() {
        let x = i as f64 - mean;
        let y = pos_b[item] - mean;
        cov += x * y;
        var += x * x;
    }
    cov / var
}

/// Fraction of adjacent pairs in the order that come from the same chunk.
pub fn chunk_run_fraction(plan: &ShufflePlan) -> f64 {
    let n = plan.items.len();
    if n < 2 {
        return 0.0;
    }
    let same = plan.items.windows(2).filter(|w| w[0].chunk_index == w[1].chunk_index).count();
    same as f64 / (n - 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::tests::table;
    use crate::plan::{canonical_order as canonical, epoch_order, ShuffleKind};
    use diesel_meta::FileTable;

    fn index(chunks: usize, files: usize) -> FileTable {
        table(&vec![files; chunks])
    }

    #[test]
    fn dataset_shuffle_mixes_like_uniform() {
        let idx = index(40, 100);
        let canon = canonical(&idx);
        let plan = epoch_order(&idx, ShuffleKind::DatasetShuffle, 11, 0);
        let d = mean_normalized_displacement(&plan, &canon);
        assert!((d - 1.0 / 3.0).abs() < 0.02, "displacement {d}");
    }

    #[test]
    fn chunk_wise_also_mixes_globally() {
        // Because *chunks* are globally shuffled before grouping, files
        // still travel across the whole epoch — displacement stays near
        // the uniform 1/3 even though reads are chunk-local.
        let idx = index(40, 100);
        let canon = canonical(&idx);
        let plan = epoch_order(&idx, ShuffleKind::ChunkWise { group_size: 5 }, 11, 0);
        let d = mean_normalized_displacement(&plan, &canon);
        assert!((d - 1.0 / 3.0).abs() < 0.05, "displacement {d}");
    }

    #[test]
    fn epochs_are_decorrelated_for_both_strategies() {
        // The effective sample size of the correlation estimate is the
        // number of independently-placed units: files for the dataset
        // shuffle, chunks for the chunk-wise shuffle. Tolerances are set
        // to ≈ 3/√units.
        let idx = index(200, 25);
        for (kind, tol) in [
            (ShuffleKind::DatasetShuffle, 0.05),
            (ShuffleKind::ChunkWise { group_size: 6 }, 3.0 / (200f64).sqrt()),
        ] {
            let e1 = epoch_order(&idx, kind, 5, 1);
            let e2 = epoch_order(&idx, kind, 5, 2);
            let r = epoch_correlation(&e1, &e2);
            assert!(r.abs() < tol, "epochs correlated: r={r} for {kind:?}");
            let self_r = epoch_correlation(&e1, &e1);
            assert!((self_r - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn chunk_runs_reflect_group_size() {
        let idx = index(64, 32);
        let full = epoch_order(&idx, ShuffleKind::DatasetShuffle, 3, 0);
        // Uniform: P(same chunk adjacent) ≈ 1/64.
        let f_full = chunk_run_fraction(&full);
        assert!(f_full < 0.05, "full shuffle runs {f_full}");
        // Group of 4 chunks: ≈ 1/4.
        let cw = epoch_order(&idx, ShuffleKind::ChunkWise { group_size: 4 }, 3, 0);
        let f_cw = chunk_run_fraction(&cw);
        assert!((f_cw - 0.25).abs() < 0.05, "chunk-wise runs {f_cw}");
        // Larger groups look more like the full shuffle.
        let cw16 = epoch_order(&idx, ShuffleKind::ChunkWise { group_size: 16 }, 3, 0);
        assert!(chunk_run_fraction(&cw16) < f_cw);
    }

    #[test]
    fn degenerate_inputs() {
        let idx = index(1, 1);
        let plan = epoch_order(&idx, ShuffleKind::DatasetShuffle, 1, 0);
        assert_eq!(chunk_run_fraction(&plan), 0.0);
        assert_eq!(mean_normalized_displacement(&plan, &canonical(&idx)), 0.0);
        assert_eq!(epoch_correlation(&plan, &plan), 1.0);
    }
}
