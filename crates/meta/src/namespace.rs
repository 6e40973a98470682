//! Client-side in-memory namespace: the "metadata cache and interpreter"
//! of libDIESEL.
//!
//! "The folder hierarchy can be built dynamically from the full filenames
//! in the key-value pairs" (§4.1.1) and, with a snapshot loaded, "the
//! file metadata is loaded from the local snapshot into main memory in
//! hashmap. Therefore, the cost of getting the file metadata is O(1)"
//! (§6.3). [`Namespace`] is exactly that structure: a flat
//! `HashMap<path → FileMeta>` for stat plus a directory tree for
//! `readdir` / recursive listing.

use std::collections::{BTreeMap, HashMap};

use crate::records::FileMeta;
use crate::{MetaError, Result};

/// What a directory entry is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryKind {
    /// A sub-directory.
    Dir,
    /// A regular file.
    File,
}

/// One `readdir` result row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// Base name of the entry.
    pub name: String,
    /// Directory or file.
    pub kind: EntryKind,
    /// File size (0 for directories).
    pub size: u64,
}

#[derive(Debug, Default)]
struct DirNode {
    subdirs: BTreeMap<String, DirNode>,
    files: BTreeMap<String, u64>, // name → size
}

/// The in-memory metadata index for one dataset.
#[derive(Debug, Default)]
pub struct Namespace {
    by_path: HashMap<String, FileMeta>,
    root: DirNode,
}

impl Namespace {
    /// An empty namespace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from `(full path, meta)` pairs.
    pub fn from_files(files: impl IntoIterator<Item = (String, FileMeta)>) -> Self {
        let mut ns = Self::new();
        for (path, meta) in files {
            ns.insert(path, meta);
        }
        ns
    }

    /// Insert (or replace) one file.
    pub fn insert(&mut self, path: String, meta: FileMeta) {
        let mut node = &mut self.root;
        let (parent, name) = crate::keys::split_path(&path);
        if !parent.is_empty() {
            for comp in parent.split('/') {
                node = node.subdirs.entry(comp.to_owned()).or_default();
            }
        }
        node.files.insert(name.to_owned(), meta.length);
        self.by_path.insert(path, meta);
    }

    /// Remove one file; prunes now-empty directories. Returns its meta.
    pub fn remove(&mut self, path: &str) -> Option<FileMeta> {
        let meta = self.by_path.remove(path)?;
        let (parent, name) = crate::keys::split_path(path);
        remove_in(&mut self.root, parent, name);
        Some(meta)
    }

    /// O(1) stat by full path.
    pub fn stat(&self, path: &str) -> Option<&FileMeta> {
        self.by_path.get(path)
    }

    /// Number of files.
    pub fn file_count(&self) -> usize {
        self.by_path.len()
    }

    /// Total bytes across files.
    pub fn total_bytes(&self) -> u64 {
        self.by_path.values().map(|m| m.length).sum()
    }

    /// Iterate `(path, meta)` in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &FileMeta)> {
        self.by_path.iter()
    }

    /// Does `path` name an existing directory (root included)?
    pub fn is_dir(&self, path: &str) -> bool {
        self.find_dir(path).is_some()
    }

    fn find_dir(&self, path: &str) -> Option<&DirNode> {
        if path.is_empty() {
            return Some(&self.root);
        }
        let mut node = &self.root;
        for comp in path.split('/') {
            node = node.subdirs.get(comp)?;
        }
        Some(node)
    }

    /// List a directory (sorted: subdirectories then files, each
    /// alphabetical — matching `ls` output grouping used in Fig. 10c).
    pub fn readdir(&self, path: &str) -> Result<Vec<DirEntry>> {
        let node = self.find_dir(path).ok_or_else(|| MetaError::NoSuchFile(path.to_owned()))?;
        let mut out = Vec::with_capacity(node.subdirs.len() + node.files.len());
        for name in node.subdirs.keys() {
            out.push(DirEntry { name: name.clone(), kind: EntryKind::Dir, size: 0 });
        }
        for (name, &size) in &node.files {
            out.push(DirEntry { name: name.clone(), kind: EntryKind::File, size });
        }
        Ok(out)
    }
}

fn remove_in(node: &mut DirNode, parent: &str, name: &str) -> bool {
    if parent.is_empty() {
        node.files.remove(name);
        return node.files.is_empty() && node.subdirs.is_empty();
    }
    let (head, rest) = parent.split_once('/').unwrap_or((parent, ""));
    let mut prune = false;
    if let Some(child) = node.subdirs.get_mut(head) {
        if remove_in(child, rest, name) {
            node.subdirs.remove(head);
            prune = true;
        }
    }
    prune && node.files.is_empty() && node.subdirs.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use diesel_chunk::{ChunkId, MachineId};

    fn meta(len: u64) -> FileMeta {
        FileMeta {
            chunk: ChunkId::new(1, MachineId::from_seed(1), 1, 0),
            index_in_chunk: 0,
            offset: 0,
            length: len,
            uploaded_ms: 0,
        }
    }

    fn sample() -> Namespace {
        Namespace::from_files(vec![
            ("train/cat/1.jpg".to_owned(), meta(10)),
            ("train/cat/2.jpg".to_owned(), meta(20)),
            ("train/dog/3.jpg".to_owned(), meta(30)),
            ("val/4.jpg".to_owned(), meta(40)),
            ("README".to_owned(), meta(5)),
        ])
    }

    #[test]
    fn stat_is_exact() {
        let ns = sample();
        assert_eq!(ns.stat("train/cat/2.jpg").unwrap().length, 20);
        assert!(ns.stat("train/cat").is_none(), "directories are not files");
        assert!(ns.stat("missing").is_none());
        assert_eq!(ns.file_count(), 5);
        assert_eq!(ns.total_bytes(), 105);
    }

    #[test]
    fn readdir_sorted_dirs_then_files() {
        let ns = sample();
        let root = ns.readdir("").unwrap();
        let names: Vec<(&str, EntryKind)> =
            root.iter().map(|e| (e.name.as_str(), e.kind)).collect();
        assert_eq!(
            names,
            vec![("train", EntryKind::Dir), ("val", EntryKind::Dir), ("README", EntryKind::File)]
        );
        let cat = ns.readdir("train/cat").unwrap();
        assert_eq!(cat.len(), 2);
        assert_eq!(cat[0].size, 10);
        assert!(ns.readdir("train/horse").is_err());
    }

    #[test]
    fn remove_prunes_empty_dirs() {
        let mut ns = sample();
        assert!(ns.remove("train/dog/3.jpg").is_some());
        assert!(!ns.is_dir("train/dog"), "empty dir must be pruned");
        assert!(ns.is_dir("train"), "non-empty ancestor stays");
        assert!(ns.remove("train/dog/3.jpg").is_none(), "double remove");
        assert_eq!(ns.file_count(), 4);
    }

    #[test]
    fn insert_replaces_existing() {
        let mut ns = sample();
        ns.insert("README".to_owned(), meta(500));
        assert_eq!(ns.stat("README").unwrap().length, 500);
        assert_eq!(ns.file_count(), 5);
    }

    #[test]
    fn empty_namespace() {
        let ns = Namespace::new();
        assert_eq!(ns.file_count(), 0);
        assert!(ns.readdir("").unwrap().is_empty());
    }
}
