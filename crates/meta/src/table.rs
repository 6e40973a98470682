//! The client's metadata table: a loaded snapshot with each path held
//! once — the "metadata cache and interpreter" of libDIESEL.
//!
//! "The file metadata is loaded from the local snapshot into main memory
//! in hashmap" so that `stat` is O(1) (§6.3). [`FileTable`] is built once
//! from a [`MetaSnapshot`]: one row per file in path order, each a
//! [`FileId`], every path in one arena; a hash index from path to row,
//! confirmed against the arena; every chunk's rows, which the chunk-wise
//! shuffle draws over (§4.3); and `readdir` as a range scan of the sorted
//! paths (§4.1.1). A row whose chunk the snapshot does not list is
//! dropped, so `stat`, `readdir`, the file list and every epoch agree on
//! which files exist.

use std::collections::HashMap;

use diesel_chunk::ChunkId;
use diesel_kv::hash::fnv1a_64;

use crate::records::FileMeta;
use crate::snapshot::MetaSnapshot;
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

/// A file's row in a [`FileTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FileId(u32);

/// A free slot of the hash index.
const EMPTY: u32 = u32::MAX;

/// One dataset's files, indexed for `stat`, `readdir` and the shuffle.
#[derive(Debug)]
pub struct FileTable {
    /// Every path, back to back in row order.
    arena: String,
    /// Row r's path is `arena[bounds[r]..bounds[r + 1]]`.
    bounds: Vec<usize>,
    metas: Vec<FileMeta>,
    /// Open-addressed (linear probing, at most half full) path → row.
    slots: Vec<u32>,
    /// The snapshot's chunks, in snapshot order.
    chunks: Vec<ChunkId>,
    /// Each chunk's rows, in row order (parallel to `chunks`).
    chunk_files: Vec<Vec<FileId>>,
}

impl FileTable {
    /// Build the table of `snapshot` (at most `u32::MAX - 1` files).
    /// `build_snapshot` lists files in path order; any other order is
    /// sorted, and a path listed twice keeps its first row.
    pub fn new(snapshot: MetaSnapshot) -> Self {
        let MetaSnapshot { chunks, mut files, .. } = snapshot;
        if !files.is_sorted_by(|a, b| a.path < b.path) {
            files.sort_by(|a, b| a.path.cmp(&b.path));
            files.dedup_by(|later, first| later.path == first.path);
        }
        Self::build(chunks, files.into_iter().map(|f| (f.path, f.meta)))
    }

    /// `rows` must be in strictly increasing path order.
    fn build<P: AsRef<str>>(
        chunks: Vec<ChunkId>,
        rows: impl ExactSizeIterator<Item = (P, FileMeta)>,
    ) -> Self {
        // A chunk listed twice keeps its last position.
        let pos: HashMap<ChunkId, usize> =
            chunks.iter().enumerate().map(|(i, &c)| (c, i)).collect();
        let mut table = FileTable {
            arena: String::new(),
            bounds: Vec::with_capacity(rows.len() + 1),
            metas: Vec::with_capacity(rows.len()),
            slots: Vec::new(),
            chunk_files: vec![Vec::new(); chunks.len()],
            chunks,
        };
        table.bounds.push(0);
        for (path, meta) in rows {
            if let Some(files) = pos.get(&meta.chunk).and_then(|&c| table.chunk_files.get_mut(c)) {
                files.push(FileId(table.metas.len() as u32));
                table.arena.push_str(path.as_ref());
                table.bounds.push(table.arena.len());
                table.metas.push(meta);
            }
        }
        table.slots = vec![EMPTY; (2 * table.metas.len()).next_power_of_two()];
        let mask = table.slots.len() - 1;
        for row in 0..table.metas.len() {
            let mut at = table.path_at(row).map_or(0, slot_of) & mask;
            while let Some(slot) = table.slots.get_mut(at) {
                if *slot == EMPTY {
                    *slot = row as u32;
                    break;
                }
                at = (at + 1) & mask;
            }
        }
        table
    }

    /// O(1) stat by full path.
    pub fn stat(&self, path: &str) -> Option<&FileMeta> {
        let mask = self.slots.len() - 1;
        let mut at = slot_of(path) & mask;
        loop {
            let row = *self.slots.get(at)? as usize;
            // `EMPTY` is past every row, so it finds no meta.
            if row == EMPTY as usize || self.path_at(row) == Some(path) {
                return self.metas.get(row);
            }
            at = (at + 1) & mask;
        }
    }

    /// Number of files.
    pub fn file_count(&self) -> usize {
        self.metas.len()
    }

    /// A file's path.
    pub fn path(&self, id: FileId) -> Option<&str> {
        self.path_at(id.0 as usize)
    }

    /// A file's metadata.
    pub fn meta(&self, id: FileId) -> Option<&FileMeta> {
        self.metas.get(id.0 as usize)
    }

    fn path_at(&self, row: usize) -> Option<&str> {
        self.arena.get(*self.bounds.get(row)?..*self.bounds.get(row + 1)?)
    }

    /// Every path, sorted.
    pub fn paths(&self) -> impl ExactSizeIterator<Item = &str> {
        (0..self.metas.len()).map(|r| self.path_at(r).unwrap_or_default())
    }

    /// The chunks the snapshot lists, in snapshot order.
    pub fn chunks(&self) -> &[ChunkId] {
        &self.chunks
    }

    /// The files of the chunk at `index` in [`chunks`](Self::chunks), in
    /// path order; empty past the end.
    pub fn chunk_files(&self, index: usize) -> &[FileId] {
        self.chunk_files.get(index).map_or(&[], Vec::as_slice)
    }

    /// List a directory (`""` is the root): subdirectories, then files,
    /// each in name order. A directory no file lies under is
    /// [`MetaError::NoSuchFile`].
    pub fn readdir(&self, dir: &str) -> Result<Vec<DirEntry>> {
        let prefix = if dir.is_empty() { String::new() } else { format!("{dir}/") };
        // The rows under `dir` are the contiguous run starting at the
        // first path not below `prefix`.
        let (mut lo, mut hi) = (0, self.metas.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.path_at(mid).is_some_and(|p| p < prefix.as_str()) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let mut dirs: Vec<&str> = Vec::new();
        let mut files = Vec::new();
        for row in lo..self.metas.len() {
            let (Some(path), Some(meta)) = (self.path_at(row), self.metas.get(row)) else { break };
            let Some(rest) = path.strip_prefix(prefix.as_str()) else { break };
            match rest.split_once('/') {
                // One subdirectory's rows are contiguous.
                Some((name, _)) if dirs.last() != Some(&name) => dirs.push(name),
                Some(_) => {}
                None => files.push(DirEntry {
                    name: rest.to_owned(),
                    kind: EntryKind::File,
                    size: meta.length,
                }),
            }
        }
        if !dir.is_empty() && dirs.is_empty() && files.is_empty() {
            return Err(MetaError::NoSuchFile(dir.to_owned()));
        }
        // Full paths sort `b.x/…` before `b/…`, names sort `b` first.
        dirs.sort_unstable();
        let dirs = dirs.into_iter().map(|name| DirEntry {
            name: name.to_owned(),
            kind: EntryKind::Dir,
            size: 0,
        });
        Ok(dirs.chain(files).collect())
    }

    /// This table with `path`'s row removed and, given `meta`, a row for
    /// it inserted in path order; a chunk the table does not list yet is
    /// appended. O(files): a loaded snapshot is read-mostly.
    pub fn with_file(&self, path: &str, meta: Option<FileMeta>) -> FileTable {
        let mut chunks = self.chunks.clone();
        let rows = self.paths().zip(self.metas.iter().copied());
        let mut rows: Vec<(&str, FileMeta)> = rows.filter(|&(p, _)| p != path).collect();
        if let Some(meta) = meta {
            if !chunks.contains(&meta.chunk) {
                chunks.push(meta.chunk);
            }
            rows.insert(rows.partition_point(|&(p, _)| p < path), (path, meta));
        }
        Self::build(chunks, rows.into_iter())
    }
}

/// Where a path's probe starts (before masking).
fn slot_of(path: &str) -> usize {
    let h = fnv1a_64(path.as_bytes());
    (h ^ (h >> 32)) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotFile;
    use diesel_chunk::MachineId;

    fn cid(n: u32) -> ChunkId {
        ChunkId::new(n, MachineId::from_seed(1), 1, n)
    }

    fn meta(chunk: u32, len: u64) -> FileMeta {
        FileMeta { chunk: cid(chunk), index_in_chunk: 0, offset: 0, length: len, uploaded_ms: 0 }
    }

    fn table(chunks: &[u32], files: &[(&str, u32, u64)]) -> FileTable {
        FileTable::new(MetaSnapshot {
            dataset: "ds".to_owned(),
            updated_ms: 0,
            chunks: chunks.iter().map(|&c| cid(c)).collect(),
            files: files
                .iter()
                .map(|&(path, c, len)| SnapshotFile { path: path.to_owned(), meta: meta(c, len) })
                .collect(),
        })
    }

    fn sample() -> FileTable {
        table(
            &[1, 2],
            &[
                ("README", 2, 5),
                ("train/cat/1.jpg", 1, 10),
                ("train/cat/2.jpg", 2, 20),
                ("train/dog/3.jpg", 1, 30),
                ("val/4.jpg", 2, 40),
            ],
        )
    }

    fn listing(t: &FileTable, dir: &str) -> Vec<(String, EntryKind, u64)> {
        t.readdir(dir).unwrap().into_iter().map(|e| (e.name, e.kind, e.size)).collect()
    }

    #[test]
    fn stat_is_exact() {
        let t = sample();
        assert_eq!(t.stat("train/cat/2.jpg").unwrap().length, 20);
        assert!(t.stat("train/cat").is_none(), "directories are not files");
        assert!(t.stat("missing").is_none());
        assert!(t.stat("train/cat/2.jpgx").is_none());
        assert_eq!(t.paths().count(), 5);
        for path in t.paths() {
            assert!(t.stat(path).is_some(), "{path}");
        }
    }

    #[test]
    fn readdir_lists_dirs_then_files_in_name_order() {
        let t = sample();
        let (dir, file) = (EntryKind::Dir, EntryKind::File);
        assert_eq!(
            listing(&t, ""),
            vec![("train".into(), dir, 0), ("val".into(), dir, 0), ("README".into(), file, 5)]
        );
        assert_eq!(
            listing(&t, "train/cat"),
            vec![("1.jpg".into(), file, 10), ("2.jpg".into(), file, 20)]
        );
        assert!(matches!(t.readdir("train/horse"), Err(MetaError::NoSuchFile(_))));
        assert!(t.readdir("README").is_err(), "a file is not a directory");
        // As full paths `b.x/…` sorts before `b/…`; as names `b` first.
        let t = table(&[1], &[("b.txt", 1, 1), ("b.x/y", 1, 2), ("b/z", 1, 3), ("b0", 1, 4)]);
        assert_eq!(
            listing(&t, ""),
            vec![
                ("b".into(), dir, 0),
                ("b.x".into(), dir, 0),
                ("b.txt".into(), file, 1),
                ("b0".into(), file, 4)
            ]
        );
    }

    #[test]
    fn chunks_keep_snapshot_order_and_drop_unlisted_rows() {
        // Chunk 3 holds no file and stays listed; chunk 9 is not listed,
        // so its file exists nowhere.
        let t = table(&[2, 3, 1], &[("a", 1, 3), ("b", 2, 5), ("c", 2, 7), ("orphan", 9, 100)]);
        assert_eq!(t.chunks(), &[cid(2), cid(3), cid(1)]);
        let files = |c: usize| -> Vec<&str> {
            t.chunk_files(c).iter().map(|&id| t.path(id).unwrap()).collect()
        };
        assert_eq!((files(0), files(1), files(2)), (vec!["b", "c"], vec![], vec!["a"]));
        assert!(files(3).is_empty(), "past the end");
        assert!(t.stat("orphan").is_none());
        assert_eq!(t.paths().collect::<Vec<_>>(), ["a", "b", "c"]);
        assert_eq!(listing(&t, "").len(), 3);
    }

    #[test]
    fn an_unsorted_snapshot_is_sorted_and_a_repeated_path_keeps_its_first_row() {
        let t = table(&[1], &[("z", 1, 1), ("a", 1, 2), ("z", 1, 3)]);
        assert_eq!(t.paths().collect::<Vec<_>>(), ["a", "z"]);
        assert_eq!(t.stat("z").unwrap().length, 1);
        let ids: Vec<&str> = t.chunk_files(0).iter().map(|&id| t.path(id).unwrap()).collect();
        assert_eq!(ids, ["a", "z"]);
    }

    #[test]
    fn with_file_removes_replaces_and_inserts_in_path_order() {
        let t = sample();
        let gone = t.with_file("train/dog/3.jpg", None);
        assert!(gone.stat("train/dog/3.jpg").is_none());
        assert!(gone.readdir("train/dog").is_err(), "an emptied directory is gone");
        assert_eq!(listing(&gone, "train").len(), 1);
        assert!(gone.chunk_files(0).iter().all(|&id| gone.path(id) == Some("train/cat/1.jpg")));
        let same = gone.with_file("train/dog/3.jpg", None);
        assert_eq!(same.paths().count(), 4, "removing a missing path changes nothing");

        let moved = t.with_file("README", Some(meta(7, 500)));
        assert_eq!(moved.stat("README").unwrap().length, 500);
        assert_eq!(moved.paths().count(), 5);
        assert_eq!(moved.chunks(), &[cid(1), cid(2), cid(7)], "a new chunk is appended");
        let of_new: Vec<&str> =
            moved.chunk_files(2).iter().map(|&id| moved.path(id).unwrap()).collect();
        assert_eq!(of_new, ["README"]);
        assert!(moved.chunk_files(1).iter().all(|&id| moved.path(id) != Some("README")));

        let added = t.with_file("train/bird/5.jpg", Some(meta(1, 1)));
        let paths: Vec<&str> = added.paths().collect();
        let mut sorted = paths.clone();
        sorted.sort_unstable();
        assert_eq!(paths, sorted);
        assert_eq!(listing(&added, "train").len(), 3);
    }

    #[test]
    fn empty_table() {
        let t = table(&[], &[]);
        assert_eq!(t.paths().count(), 0);
        assert!(t.stat("").is_none());
        assert!(t.readdir("").unwrap().is_empty());
        assert!(t.readdir("a").is_err());
    }
}
