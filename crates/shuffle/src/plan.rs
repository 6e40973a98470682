//! Shuffle-order generation.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use diesel_meta::{FileId, FileTable};

/// One position in a shuffled order: a file and its chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShuffleItem {
    /// Index into the table's [`chunks`](FileTable::chunks).
    pub chunk_index: u32,
    /// The file.
    pub file: FileId,
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
    pub fn peak_working_set_bytes(&self, table: &FileTable) -> u64 {
        let chunk_bytes = |c: u32| -> u64 {
            let files = table.chunk_files(c as usize).iter();
            files.filter_map(|&id| table.meta(id)).map(|m| m.length).sum()
        };
        self.group_chunk_sets()
            .iter()
            .map(|chunks| chunks.iter().map(|&c| chunk_bytes(c)).sum())
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
/// use diesel_meta::snapshot::SnapshotFile;
/// use diesel_meta::{FileMeta, FileTable, MetaSnapshot};
/// use diesel_shuffle::{epoch_order, ShuffleKind};
///
/// let id = |c| ChunkId::new(c, MachineId::from_seed(1), 1, c);
/// let file = |i: u32| SnapshotFile {
///     path: format!("f{i:02}"),
///     meta: FileMeta {
///         chunk: id(i / 10),
///         index_in_chunk: i % 10,
///         offset: 0,
///         length: 1,
///         uploaded_ms: 0,
///     },
/// };
/// let chunks = (0..8).map(id).collect();
/// let files = (0..80).map(file).collect();
/// let table = FileTable::new(MetaSnapshot { dataset: "ds".into(), updated_ms: 0, chunks, files });
/// let plan = epoch_order(&table, ShuffleKind::ChunkWise { group_size: 2 }, 7, 0);
/// assert_eq!(plan.len(), 80);                 // a permutation of all files
/// assert_eq!(plan.group_starts.len(), 4);     // 8 chunks / groups of 2
/// // Reading a group touches at most `group_size` chunks at a time.
/// assert!(plan.group_chunk_sets().iter().all(|s| s.len() <= 2));
/// ```
pub fn epoch_order(table: &FileTable, kind: ShuffleKind, seed: u64, epoch: u64) -> ShufflePlan {
    let mut rng = StdRng::seed_from_u64(seed ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    match kind {
        ShuffleKind::DatasetShuffle => {
            let mut items: Vec<ShuffleItem> = canonical_order(table);
            items.shuffle(&mut rng);
            let group_starts = if items.is_empty() { vec![] } else { vec![0] };
            ShufflePlan { items, group_starts }
        }
        ShuffleKind::ChunkWise { group_size } => {
            assert!(group_size >= 1, "group size must be at least 1");
            // Step 1: shuffle chunk IDs.
            let mut chunk_order: Vec<u32> = (0..table.chunks().len() as u32).collect();
            chunk_order.shuffle(&mut rng);
            // Step 2: split into groups; step 3: shuffle files per group.
            let mut items = Vec::with_capacity(table.file_count());
            let mut group_starts = Vec::new();
            for group in chunk_order.chunks(group_size) {
                group_starts.push(items.len());
                let start = items.len();
                for &ci in group {
                    let files = table.chunk_files(ci as usize);
                    items.extend(files.iter().map(|&file| ShuffleItem { chunk_index: ci, file }));
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

/// Every file of `table` unshuffled: chunk by chunk in snapshot order,
/// each chunk's files in path order.
pub fn canonical_order(table: &FileTable) -> Vec<ShuffleItem> {
    let mut items = Vec::with_capacity(table.file_count());
    for ci in 0..table.chunks().len() {
        let files = table.chunk_files(ci).iter();
        items.extend(files.map(|&file| ShuffleItem { chunk_index: ci as u32, file }));
    }
    items
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use diesel_chunk::{ChunkId, MachineId};
    use diesel_meta::snapshot::SnapshotFile;
    use diesel_meta::{FileMeta, MetaSnapshot};
    use std::collections::HashSet;

    /// Every fixture file's length.
    const FILE_BYTES: u64 = 1 << 16;

    /// A table whose chunk `c` holds `files[c]` files named `c{c}/f{f}`.
    pub(crate) fn table(files: &[usize]) -> FileTable {
        let chunks: Vec<ChunkId> = (0..files.len() as u32)
            .map(|c| ChunkId::new(c, MachineId::from_seed(1), 1, c))
            .collect();
        let rows = chunks.iter().zip(files).flat_map(|(&chunk, &n)| {
            (0..n).map(move |f| SnapshotFile {
                path: format!("{chunk:?}/f{f}"),
                meta: FileMeta {
                    chunk,
                    index_in_chunk: f as u32,
                    offset: 0,
                    length: FILE_BYTES,
                    uploaded_ms: 0,
                },
            })
        });
        let snapshot =
            MetaSnapshot { dataset: "ds".into(), updated_ms: 0, files: rows.collect(), chunks };
        FileTable::new(snapshot)
    }

    fn index(chunks: usize, files_per_chunk: usize) -> FileTable {
        table(&vec![files_per_chunk; chunks])
    }

    fn is_permutation(plan: &ShufflePlan, table: &FileTable) -> bool {
        let set: HashSet<ShuffleItem> = plan.items.iter().copied().collect();
        set.len() == plan.items.len() && plan.items.len() == table.file_count()
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
        assert_eq!(plan.peak_working_set_bytes(&idx), (g as u64) * 10 * FILE_BYTES);
    }

    #[test]
    fn working_set_is_tiny_compared_to_dataset() {
        // The paper's headline: 2 GB footprint for a 150 GB dataset.
        let idx = index(1000, 30); // 1000 chunks of ≈ 2 MB
        let plan = epoch_order(&idx, ShuffleKind::ChunkWise { group_size: 10 }, 5, 0);
        let total = idx.file_count() as u64 * FILE_BYTES;
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
        let idx = table(&[]);
        for kind in [ShuffleKind::DatasetShuffle, ShuffleKind::ChunkWise { group_size: 4 }] {
            let plan = epoch_order(&idx, kind, 1, 0);
            assert!(plan.is_empty());
            assert!(plan.group_starts.is_empty());
        }
    }

    #[test]
    fn uneven_chunks_are_covered() {
        let idx = table(&[2, 0, 1]);
        let plan = epoch_order(&idx, ShuffleKind::ChunkWise { group_size: 2 }, 3, 0);
        assert_eq!(plan.len(), 3);
        assert!(is_permutation(&plan, &idx));
        // A chunk's bytes are its files' lengths; the empty chunk costs none.
        let one = epoch_order(&idx, ShuffleKind::ChunkWise { group_size: 1 }, 3, 0);
        assert_eq!(one.peak_working_set_bytes(&idx), 2 * FILE_BYTES);
    }

    #[test]
    fn items_name_their_files_and_chunks() {
        let idx = index(2, 2);
        let plan = epoch_order(&idx, ShuffleKind::DatasetShuffle, 1, 0);
        let names: HashSet<&str> = plan.items.iter().map(|i| idx.path(i.file).unwrap()).collect();
        assert_eq!(names.len(), 4);
        for item in &plan.items {
            let chunk = idx.chunks()[item.chunk_index as usize];
            assert_eq!(idx.meta(item.file).unwrap().chunk, chunk);
        }
        assert_eq!(canonical_order(&idx).len(), 4);
    }
}
