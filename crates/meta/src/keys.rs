//! The key-value key schema (paper Fig. 5b).
//!
//! All keys are namespaced by dataset. Directory listings use the
//! `hash(parent)` construction from the paper so that one `pscan`
//! enumerates exactly one directory's children of one kind:
//!
//! | key                                          | value               |
//! |----------------------------------------------|---------------------|
//! | `ds/<dataset>`                               | [`DatasetRecord`]   |
//! | `ck/<dataset>/<chunk-id>`                    | [`ChunkRecord`]     |
//! | `f/<dataset>/<full path>`                    | [`FileMeta`]        |
//! | `dir/<dataset>/<hash(parent)>/d/<name>`      | (empty)             |
//! | `dir/<dataset>/<hash(parent)>/f/<name>`      | [`FileMeta`]        |
//!
//! [`DatasetRecord`]: crate::records::DatasetRecord
//! [`ChunkRecord`]: crate::records::ChunkRecord
//! [`FileMeta`]: crate::records::FileMeta

use diesel_chunk::ChunkId;
use diesel_kv::hash::fnv1a_64;

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

/// Hash of a parent directory path, printed as fixed-width hex so keys
/// stay flat and uniformly distributed across KV instances.
pub fn dir_hash(parent: &str) -> String {
    format!("{:016x}", fnv1a_64(parent.as_bytes()))
}

/// Key of a directory-entry record: `kind` is `'d'` or `'f'`.
pub fn dir_entry_key(dataset: &str, parent: &str, kind: char, name: &str) -> String {
    debug_assert!(kind == 'd' || kind == 'f');
    format!("dir/{dataset}/{}/{kind}/{name}", dir_hash(parent))
}

/// Prefix for one directory's children of one kind (the paper's
/// `pscan hash(folder)/d` / `pscan hash(folder)/f`).
pub fn dir_scan_prefix(dataset: &str, parent: &str, kind: char) -> String {
    debug_assert!(kind == 'd' || kind == 'f');
    format!("dir/{dataset}/{}/{kind}/", dir_hash(parent))
}

/// Split a full path into `(parent, basename)`. The root parent is `""`.
pub fn split_path(path: &str) -> (&str, &str) {
    path.rsplit_once('/').unwrap_or(("", path))
}

/// All ancestor (parent, child-component) pairs a file's path implies.
///
/// `a/b/c.jpg` yields `[("", "a"), ("a", "b")]` — the directories that
/// must exist — plus the caller stores the `("a/b", "c.jpg")` file entry.
pub fn ancestor_dirs(path: &str) -> Vec<(&str, &str)> {
    path.match_indices('/')
        .filter_map(|(i, _)| path.get(..i))
        .map(split_path)
        .filter(|(_, name)| !name.is_empty())
        .collect()
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

    #[test]
    fn split_path_cases() {
        assert_eq!(split_path("a/b/c.jpg"), ("a/b", "c.jpg"));
        assert_eq!(split_path("top.txt"), ("", "top.txt"));
        assert_eq!(split_path("a/b/"), ("a/b", ""));
    }

    #[test]
    fn ancestors() {
        assert_eq!(ancestor_dirs("a/b/c.jpg"), vec![("", "a"), ("a", "b")]);
        assert_eq!(ancestor_dirs("plain.txt"), Vec::<(&str, &str)>::new());
        assert_eq!(ancestor_dirs("x/y"), vec![("", "x")]);
    }

    #[test]
    fn dir_keys_differ_by_parent_and_kind() {
        let d1 = dir_entry_key("ds", "a", 'd', "x");
        let d2 = dir_entry_key("ds", "b", 'd', "x");
        let f1 = dir_entry_key("ds", "a", 'f', "x");
        assert_ne!(d1, d2);
        assert_ne!(d1, f1);
        assert!(d1.starts_with(&dir_scan_prefix("ds", "a", 'd')));
        assert!(f1.starts_with(&dir_scan_prefix("ds", "a", 'f')));
    }

    #[test]
    fn dir_hash_is_stable_hex() {
        let h = dir_hash("train/cat");
        assert_eq!(h.len(), 16);
        assert_eq!(h, dir_hash("train/cat"));
        assert_ne!(h, dir_hash("train/dog"));
    }
}
