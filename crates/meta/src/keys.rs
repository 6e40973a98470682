//! The key-value key schema (paper Fig. 5b, less its `hash(parent)`
//! directory keys: a listing comes from the snapshot, DESIGN.md §2).
//!
//! All keys are namespaced by dataset:
//!
//! | key                          | value               |
//! |------------------------------|---------------------|
//! | `ds/<dataset>`               | [`DatasetRecord`]   |
//! | `ck/<dataset>/<chunk-id>`    | [`ChunkRecord`]     |
//! | `f/<dataset>/<full path>`    | [`FileMeta`]        |
//!
//! [`DatasetRecord`]: crate::records::DatasetRecord
//! [`ChunkRecord`]: crate::records::ChunkRecord
//! [`FileMeta`]: crate::records::FileMeta

use diesel_chunk::ChunkId;

/// Key of a dataset record.
pub fn dataset_key(dataset: &str) -> String {
    format!("ds/{dataset}")
}

/// Key of a chunk record.
pub fn chunk_key(dataset: &str, id: ChunkId) -> String {
    format!("ck/{dataset}/{}", id.encode())
}

/// Prefix matching all chunk records of a dataset, in chunk-ID order
/// (the encoding is order-preserving, so a sorted pscan is a time scan).
pub fn chunk_prefix(dataset: &str) -> String {
    format!("ck/{dataset}/")
}

/// Key of a file record (point lookup by full path).
pub fn file_key(dataset: &str, path: &str) -> String {
    format!("f/{dataset}/{path}")
}

/// Prefix matching all file records of a dataset.
pub fn file_prefix(dataset: &str) -> String {
    format!("f/{dataset}/")
}

#[cfg(test)]
mod tests {
    use super::*;
    use diesel_chunk::MachineId;

    #[test]
    fn key_shapes() {
        assert_eq!(dataset_key("imagenet"), "ds/imagenet");
        let id = ChunkId::new(7, MachineId::from_seed(1), 2, 3);
        assert!(chunk_key("imagenet", id).starts_with("ck/imagenet/"));
        assert_eq!(file_key("d", "a/b.jpg"), "f/d/a/b.jpg");
    }

    #[test]
    fn chunk_keys_sort_in_write_order() {
        let gen = diesel_chunk::ChunkIdGenerator::deterministic(1, 1, 100);
        let keys: Vec<String> = (0..100).map(|_| chunk_key("ds", gen.next_id())).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }
}
