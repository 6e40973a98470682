//! Shuffle-order generation.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use diesel_chunk::ChunkId;
use diesel_meta::MetaSnapshot;

/// The files of one chunk, in chunk order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkFiles {
    /// The chunk's ID.
    pub chunk: ChunkId,
    /// Total chunk size in bytes (for working-set accounting).
    pub chunk_bytes: u64,
    /// File paths stored in this chunk (live files only).
    pub files: Vec<String>,
}

/// The dataset layout the shuffler works over: one entry per chunk.
///
/// Built once per task from a metadata snapshot; epochs reuse it.
#[derive(Debug, Clone, Default)]
pub struct DatasetIndex {
    /// Chunk entries, in write order.
    pub chunks: Vec<ChunkFiles>,
}

impl DatasetIndex {
    /// Build from chunk entries.
    pub fn new(chunks: Vec<ChunkFiles>) -> Self {
        DatasetIndex { chunks }
    }

    /// Build from a metadata snapshot: one entry per snapshot chunk, in
    /// snapshot order, each listing its live files in snapshot order.
    /// A file whose chunk the snapshot does not list is left out.
    pub fn from_snapshot(snapshot: &MetaSnapshot) -> Self {
        let mut pos: HashMap<ChunkId, usize> = HashMap::new();
        let mut chunks: Vec<ChunkFiles> = snapshot
            .chunks
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                pos.insert(c, i);
                ChunkFiles { chunk: c, chunk_bytes: 0, files: Vec::new() }
            })
            .collect();
        for f in &snapshot.files {
            if let Some(c) = pos.get(&f.meta.chunk).and_then(|&i| chunks.get_mut(i)) {
                c.chunk_bytes += f.meta.length;
                c.files.push(f.path.clone());
            }
        }
        DatasetIndex { chunks }
    }

    /// Total number of files.
    pub fn file_count(&self) -> usize {
        self.chunks.iter().map(|c| c.files.len()).sum()
    }

    /// Resolve an item to its `(chunk id, path)`.
    pub fn resolve(&self, item: ShuffleItem) -> (&ChunkId, &str) {
        let c = &self.chunks[item.chunk_index as usize];
        (&c.chunk, c.files[item.file_index as usize].as_str())
    }
}

/// One position in a shuffled order: `(chunk, file-within-chunk)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShuffleItem {
    /// Index into [`DatasetIndex::chunks`].
    pub chunk_index: u32,
    /// Index into that chunk's `files`.
    pub file_index: u32,
}

/// Which shuffle strategy to use for an epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShuffleKind {
    /// The conventional baseline: one uniform shuffle over all files
    /// ("shuffle dataset" in Fig. 13).
    DatasetShuffle,
    /// DIESEL's chunk-wise shuffle with groups of `group_size` chunks.
    ChunkWise {
        /// Number of chunks per group (paper uses 100/500 for
        /// ImageNet-1K and 15/30 for CIFAR-10).
        group_size: usize,
    },
}

/// A generated epoch order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShufflePlan {
    /// The file order for this epoch.
    pub items: Vec<ShuffleItem>,
    /// Start index of each group within `items` (always begins with 0
    /// when non-empty; a dataset shuffle is a single group spanning
    /// everything).
    pub group_starts: Vec<usize>,
}

impl ShufflePlan {
    /// Number of files in the epoch.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterate groups as item slices.
    pub fn groups(&self) -> impl Iterator<Item = &[ShuffleItem]> {
        let n = self.items.len();
        self.group_starts.iter().enumerate().map(move |(g, &start)| {
            let end = self.group_starts.get(g + 1).copied().unwrap_or(n);
            &self.items[start..end]
        })
    }

    /// Distinct chunks touched by each group (the cache working set while
    /// that group is being consumed).
    pub fn group_chunk_sets(&self) -> Vec<Vec<u32>> {
        self.groups()
            .map(|g| {
                let mut chunks: Vec<u32> = g.iter().map(|i| i.chunk_index).collect();
                chunks.sort_unstable();
                chunks.dedup();
                chunks
            })
            .collect()
    }

    /// Peak working-set size in bytes: the largest per-group sum of
    /// distinct chunk sizes. This is the "memory footprint" the paper
    /// reports (~2 GB for ImageNet-1K vs the 150 GB dataset).
    pub fn peak_working_set_bytes(&self, index: &DatasetIndex) -> u64 {
        self.group_chunk_sets()
            .iter()
            .map(|chunks| chunks.iter().map(|&c| index.chunks[c as usize].chunk_bytes).sum())
            .max()
            .unwrap_or(0)
    }
}

/// Generate the file order for `(seed, epoch)` under `kind`.
///
/// Deterministic: the same inputs give the same order, and different
/// epochs give independent orders — matching a training framework that
/// re-seeds its sampler per epoch.
///
/// # Examples
///
/// ```
/// use diesel_chunk::{ChunkId, MachineId};
/// use diesel_shuffle::{epoch_order, ChunkFiles, DatasetIndex, ShuffleKind};
///
/// let index = DatasetIndex::new(
///     (0..8u32)
///         .map(|c| ChunkFiles {
///             chunk: ChunkId::new(c, MachineId::from_seed(1), 1, c),
///             chunk_bytes: 4 << 20,
///             files: (0..10).map(|f| format!("c{c}/f{f}")).collect(),
///         })
///         .collect(),
/// );
/// let plan = epoch_order(&index, ShuffleKind::ChunkWise { group_size: 2 }, 7, 0);
/// assert_eq!(plan.len(), 80);                 // a permutation of all files
/// assert_eq!(plan.group_starts.len(), 4);     // 8 chunks / groups of 2
/// // Reading a group touches at most `group_size` chunks at a time.
/// assert!(plan.group_chunk_sets().iter().all(|s| s.len() <= 2));
/// ```
pub fn epoch_order(index: &DatasetIndex, kind: ShuffleKind, seed: u64, epoch: u64) -> ShufflePlan {
    let mut rng = StdRng::seed_from_u64(seed ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    match kind {
        ShuffleKind::DatasetShuffle => {
            let mut items: Vec<ShuffleItem> = all_items(index);
            items.shuffle(&mut rng);
            let group_starts = if items.is_empty() { vec![] } else { vec![0] };
            ShufflePlan { items, group_starts }
        }
        ShuffleKind::ChunkWise { group_size } => {
            assert!(group_size >= 1, "group size must be at least 1");
            // Step 1: shuffle chunk IDs.
            let mut chunk_order: Vec<u32> = (0..index.chunks.len() as u32).collect();
            chunk_order.shuffle(&mut rng);
            // Step 2: split into groups; step 3: shuffle files per group.
            let mut items = Vec::with_capacity(index.file_count());
            let mut group_starts = Vec::new();
            for group in chunk_order.chunks(group_size) {
                group_starts.push(items.len());
                let start = items.len();
                for &ci in group {
                    let files = index.chunks[ci as usize].files.len() as u32;
                    items.extend(
                        (0..files).map(|fi| ShuffleItem { chunk_index: ci, file_index: fi }),
                    );
                }
                items[start..].shuffle(&mut rng);
            }
            // Drop trailing empty groups (possible when chunks held no files).
            while let Some(&last) = group_starts.last() {
                if last >= items.len() && group_starts.len() > 1 {
                    group_starts.pop();
                } else {
                    break;
                }
            }
            if items.is_empty() {
                group_starts.clear();
            }
            ShufflePlan { items, group_starts }
        }
    }
}

fn all_items(index: &DatasetIndex) -> Vec<ShuffleItem> {
    let mut items = Vec::with_capacity(index.file_count());
    for (ci, c) in index.chunks.iter().enumerate() {
        items.extend(
            (0..c.files.len() as u32)
                .map(|fi| ShuffleItem { chunk_index: ci as u32, file_index: fi }),
        );
    }
    items
}

#[cfg(test)]
mod tests {
    use super::*;
    use diesel_chunk::MachineId;
    use std::collections::HashSet;

    fn index(chunks: usize, files_per_chunk: usize) -> DatasetIndex {
        DatasetIndex::new(
            (0..chunks)
                .map(|c| ChunkFiles {
                    chunk: ChunkId::new(c as u32, MachineId::from_seed(1), 1, c as u32),
                    chunk_bytes: 4 << 20,
                    files: (0..files_per_chunk).map(|f| format!("c{c}/f{f}")).collect(),
                })
                .collect(),
        )
    }

    fn is_permutation(plan: &ShufflePlan, index: &DatasetIndex) -> bool {
        let set: HashSet<ShuffleItem> = plan.items.iter().copied().collect();
        set.len() == plan.items.len() && plan.items.len() == index.file_count()
    }

    #[test]
    fn from_snapshot_groups_files_by_chunk_in_snapshot_order() {
        let id = |n: u32| ChunkId::new(n, MachineId::from_seed(1), 1, n);
        let file = |path: &str, chunk: ChunkId, length: u64| diesel_meta::snapshot::SnapshotFile {
            path: path.to_owned(),
            meta: diesel_meta::FileMeta {
                chunk,
                index_in_chunk: 0,
                offset: 0,
                length,
                uploaded_ms: 0,
            },
        };
        let snap = MetaSnapshot {
            dataset: "ds".to_owned(),
            updated_ms: 0,
            chunks: vec![id(0), id(1)],
            files: vec![
                file("b", id(1), 5),
                file("a", id(0), 3),
                file("orphan", id(9), 100),
                file("c", id(1), 7),
            ],
        };
        let idx = DatasetIndex::from_snapshot(&snap);
        let got: Vec<(ChunkId, u64, Vec<String>)> =
            idx.chunks.into_iter().map(|c| (c.chunk, c.chunk_bytes, c.files)).collect();
        assert_eq!(
            got,
            vec![
                (id(0), 3, vec!["a".to_owned()]),
                (id(1), 12, vec!["b".to_owned(), "c".to_owned()])
            ]
        );
    }

    #[test]
    fn dataset_shuffle_is_a_permutation() {
        let idx = index(10, 50);
        let plan = epoch_order(&idx, ShuffleKind::DatasetShuffle, 1, 0);
        assert!(is_permutation(&plan, &idx));
        assert_eq!(plan.group_starts, vec![0]);
    }

    #[test]
    fn chunk_wise_is_a_permutation_with_groups() {
        let idx = index(10, 50);
        let plan = epoch_order(&idx, ShuffleKind::ChunkWise { group_size: 3 }, 1, 0);
        assert!(is_permutation(&plan, &idx));
        assert_eq!(plan.group_starts.len(), 4, "10 chunks / groups of 3 = 4 groups");
        let sizes: Vec<usize> = plan.groups().map(|g| g.len()).collect();
        assert_eq!(sizes, vec![150, 150, 150, 50]);
    }

    #[test]
    fn group_working_set_is_bounded_by_group_size() {
        let idx = index(20, 10);
        let g = 4;
        let plan = epoch_order(&idx, ShuffleKind::ChunkWise { group_size: g }, 7, 3);
        for set in plan.group_chunk_sets() {
            assert!(set.len() <= g, "group touches {} chunks > {g}", set.len());
        }
        assert_eq!(plan.peak_working_set_bytes(&idx), (g as u64) * (4 << 20));
    }

    #[test]
    fn working_set_is_tiny_compared_to_dataset() {
        // The paper's headline: 2 GB footprint for a 150 GB dataset.
        let idx = index(1000, 30); // 1000 × 4 MB ≈ 4 GB dataset
        let plan = epoch_order(&idx, ShuffleKind::ChunkWise { group_size: 10 }, 5, 0);
        let total: u64 = idx.chunks.iter().map(|c| c.chunk_bytes).sum();
        let ws = plan.peak_working_set_bytes(&idx);
        assert!(ws * 50 <= total, "working set {ws} vs dataset {total}");
    }

    #[test]
    fn deterministic_per_seed_and_epoch() {
        let idx = index(8, 20);
        let k = ShuffleKind::ChunkWise { group_size: 2 };
        assert_eq!(epoch_order(&idx, k, 42, 1), epoch_order(&idx, k, 42, 1));
        assert_ne!(epoch_order(&idx, k, 42, 1).items, epoch_order(&idx, k, 42, 2).items);
        assert_ne!(epoch_order(&idx, k, 42, 1).items, epoch_order(&idx, k, 43, 1).items);
    }

    #[test]
    fn group_size_larger_than_chunks_degenerates_to_one_group() {
        let idx = index(5, 10);
        let plan = epoch_order(&idx, ShuffleKind::ChunkWise { group_size: 100 }, 1, 0);
        assert!(is_permutation(&plan, &idx));
        assert_eq!(plan.group_starts, vec![0]);
    }

    #[test]
    fn group_size_one_keeps_chunks_contiguous() {
        let idx = index(6, 25);
        let plan = epoch_order(&idx, ShuffleKind::ChunkWise { group_size: 1 }, 9, 0);
        assert!(is_permutation(&plan, &idx));
        // Every group must touch exactly one chunk.
        for set in plan.group_chunk_sets() {
            assert_eq!(set.len(), 1);
        }
    }

    #[test]
    fn empty_dataset() {
        let idx = DatasetIndex::default();
        for kind in [ShuffleKind::DatasetShuffle, ShuffleKind::ChunkWise { group_size: 4 }] {
            let plan = epoch_order(&idx, kind, 1, 0);
            assert!(plan.is_empty());
            assert!(plan.group_starts.is_empty());
        }
    }

    #[test]
    fn uneven_chunks_are_covered() {
        let mut idx = index(3, 0);
        idx.chunks[0].files = vec!["a".into(), "b".into()];
        idx.chunks[2].files = vec!["c".into()];
        let plan = epoch_order(&idx, ShuffleKind::ChunkWise { group_size: 2 }, 3, 0);
        assert_eq!(plan.len(), 3);
        assert!(is_permutation(&plan, &idx));
    }

    #[test]
    fn resolve_maps_back_to_names() {
        let idx = index(2, 2);
        let plan = epoch_order(&idx, ShuffleKind::DatasetShuffle, 1, 0);
        let names: HashSet<&str> = plan.items.iter().map(|&i| idx.resolve(i).1).collect();
        assert_eq!(names.len(), 4);
        assert!(names.contains("c1/f0"));
    }
}
