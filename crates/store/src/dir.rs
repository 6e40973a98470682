//! Directory-backed object store.
//!
//! Objects are stored as regular files under a root directory. Keys are
//! percent-escaped so arbitrary key strings map to safe single-level file
//! names while preserving lexicographic order for the characters DIESEL
//! actually uses (the order-preserving chunk-ID alphabet is untouched by
//! the escaping).

use std::fs;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use diesel_obs::{Counter, Registry, RegistrySnapshot};

use crate::{Bytes, ObjectStore, Result, StoreError};

/// Escape a key into a file name: alphanumerics, `-`, `_`, `.` pass
/// through; everything else becomes `%XX`. `%` itself is escaped, so the
/// mapping is injective. Hex digits are uppercase, keeping escape
/// sequences ordered consistently.
fn escape_key(key: &str) -> String {
    let mut out = String::with_capacity(key.len());
    for &b in key.as_bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' | b'.' => out.push(b as char),
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// Invert [`escape_key`]. A `%` not followed by two hex digits is no
/// escape, so the name is no key: `put`'s tmp files are named that way.
fn unescape_key(name: &str) -> Option<String> {
    let hex = |c: u8| char::from(c).to_digit(16);
    let mut out = Vec::with_capacity(name.len());
    let mut rest = name.as_bytes();
    while let Some((&b, tail)) = rest.split_first() {
        rest = tail;
        if b == b'%' {
            let (&[hi, lo], tail) = rest.split_first_chunk::<2>()?;
            out.push(u8::try_from(hex(hi)? * 16 + hex(lo)?).ok()?);
            rest = tail;
        } else {
            out.push(b);
        }
    }
    String::from_utf8(out).ok()
}

/// An [`ObjectStore`] persisting each object as one file in a directory.
#[derive(Debug)]
pub struct DirObjectStore {
    root: PathBuf,
    registry: Arc<Registry>,
    gets: Counter,
    puts: Counter,
    deletes: Counter,
    bytes_read: Counter,
    bytes_written: Counter,
}

impl DirObjectStore {
    /// Open (creating if needed) a store rooted at `root`.
    pub fn open(root: impl AsRef<Path>) -> Result<Self> {
        Self::open_with_registry(root, Arc::new(Registry::default()))
    }

    /// Open a store whose metrics land in a caller-supplied registry.
    pub fn open_with_registry(root: impl AsRef<Path>, registry: Arc<Registry>) -> Result<Self> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root).map_err(|e| StoreError::Io(e.to_string()))?;
        let labels = [("device", "dir")];
        Ok(DirObjectStore {
            root,
            gets: registry.counter("store.gets", &labels),
            puts: registry.counter("store.puts", &labels),
            deletes: registry.counter("store.deletes", &labels),
            bytes_read: registry.counter("store.bytes_read", &labels),
            bytes_written: registry.counter("store.bytes_written", &labels),
            registry,
        })
    }

    /// The registry holding this store's `store.*{device=dir}` counters.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    fn path_for(&self, key: &str) -> PathBuf {
        self.root.join(escape_key(key))
    }

    /// Where `put` writes `key` before the rename. `%t` is no escape, so
    /// a crash's left-over tmp file never lists as a key.
    fn tmp_path(&self, key: &str) -> PathBuf {
        self.root.join(format!("%tmp-{}-{}", std::process::id(), escape_key(key)))
    }

    fn keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = match fs::read_dir(&self.root) {
            Ok(entries) => entries
                .filter_map(|e| e.ok())
                .filter(|e| e.file_type().map(|t| t.is_file()).unwrap_or(false))
                .filter_map(|e| unescape_key(&e.file_name().to_string_lossy()))
                .collect(),
            Err(_) => Vec::new(),
        };
        keys.sort_unstable();
        keys
    }
}

impl ObjectStore for DirObjectStore {
    fn put(&self, key: &str, value: Bytes) -> Result<()> {
        // Write-then-rename for atomicity under concurrent readers.
        let final_path = self.path_for(key);
        let tmp = self.tmp_path(key);
        fs::write(&tmp, &value).map_err(|e| StoreError::Io(e.to_string()))?;
        fs::rename(&tmp, &final_path).map_err(|e| StoreError::Io(e.to_string()))?;
        self.registry.batch(|| {
            self.puts.inc();
            self.bytes_written.add(value.len() as u64);
        });
        Ok(())
    }

    fn get(&self, key: &str) -> Result<Bytes> {
        match fs::read(self.path_for(key)) {
            Ok(data) => {
                self.registry.batch(|| {
                    self.gets.inc();
                    self.bytes_read.add(data.len() as u64);
                });
                Ok(Bytes::from(data))
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                Err(StoreError::NotFound(key.to_owned()))
            }
            Err(e) => Err(StoreError::Io(e.to_string())),
        }
    }

    fn get_range(&self, key: &str, offset: u64, len: usize) -> Result<Bytes> {
        let mut f = match fs::File::open(self.path_for(key)) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(StoreError::NotFound(key.to_owned()))
            }
            Err(e) => return Err(StoreError::Io(e.to_string())),
        };
        let size = f.metadata().map_err(|e| StoreError::Io(e.to_string()))?.len() as usize;
        if offset as usize > size {
            return Err(StoreError::BadRange { key: key.to_owned(), offset, len, size });
        }
        f.seek(SeekFrom::Start(offset)).map_err(|e| StoreError::Io(e.to_string()))?;
        let take = len.min(size - offset as usize);
        let mut buf = vec![0u8; take];
        f.read_exact(&mut buf).map_err(|e| StoreError::Io(e.to_string()))?;
        self.registry.batch(|| {
            self.gets.inc();
            self.bytes_read.add(buf.len() as u64);
        });
        Ok(Bytes::from(buf))
    }

    fn delete(&self, key: &str) -> Result<bool> {
        match fs::remove_file(self.path_for(key)) {
            Ok(()) => {
                self.deletes.inc();
                Ok(true)
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(StoreError::Io(e.to_string())),
        }
    }

    fn contains(&self, key: &str) -> bool {
        self.path_for(key).is_file()
    }

    fn list_prefix(&self, prefix: &str) -> Vec<String> {
        self.keys().into_iter().filter(|k| k.starts_with(prefix)).collect()
    }

    fn size_of(&self, key: &str) -> Option<usize> {
        fs::metadata(self.path_for(key)).ok().map(|m| m.len() as usize)
    }

    fn len(&self) -> usize {
        self.keys().len()
    }

    fn total_bytes(&self) -> u64 {
        self.keys().iter().filter_map(|k| self.size_of(k)).map(|s| s as u64).sum()
    }

    fn obs_snapshot(&self) -> Option<RegistrySnapshot> {
        Some(self.registry.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("diesel-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn escape_roundtrip() {
        for key in ["plain", "with/slash", "sp ace", "uni-ø", "%percent", "a%2Fb", ""] {
            let esc = escape_key(key);
            assert!(!esc.contains('/'), "escaped key must be flat: {esc}");
            assert_eq!(unescape_key(&esc).as_deref(), Some(key), "key {key:?}");
        }
    }

    #[test]
    fn a_crashed_puts_tmp_file_is_no_key() {
        let s = DirObjectStore::open(tmpdir("tmp")).unwrap();
        fs::write(s.tmp_path("ds/chunk"), b"torn").unwrap();
        assert_eq!(s.len(), 0);
        assert!(s.list_prefix("").is_empty(), "{:?}", s.list_prefix(""));
        s.put(".tmp-x", Bytes::from_static(b"real")).unwrap();
        assert_eq!(s.list_prefix(""), vec![".tmp-x"]);
        assert_eq!(s.get(".tmp-x").unwrap(), Bytes::from_static(b"real"));
    }

    #[test]
    fn put_get_roundtrip_on_disk() {
        let s = DirObjectStore::open(tmpdir("rt")).unwrap();
        s.put("chunk/0001", Bytes::from_static(b"payload")).unwrap();
        assert_eq!(s.get("chunk/0001").unwrap(), Bytes::from_static(b"payload"));
        assert_eq!(s.size_of("chunk/0001"), Some(7));
        assert_eq!(s.get_range("chunk/0001", 3, 2).unwrap(), Bytes::from_static(b"lo"));
        assert_eq!(s.get_range("chunk/0001", 3, 100).unwrap(), Bytes::from_static(b"load"));
        assert!(matches!(s.get_range("chunk/0001", 99, 1), Err(StoreError::BadRange { .. })));
        assert!(s.delete("chunk/0001").unwrap());
        assert!(matches!(s.get("chunk/0001"), Err(StoreError::NotFound(_))));
    }

    #[test]
    fn listing_is_sorted_and_prefix_filtered() {
        let s = DirObjectStore::open(tmpdir("ls")).unwrap();
        for k in ["b", "a/2", "a/1"] {
            s.put(k, Bytes::new()).unwrap();
        }
        assert_eq!(s.list_prefix("a/"), vec!["a/1", "a/2"]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn counters_track_disk_traffic() {
        let s = DirObjectStore::open(tmpdir("obs")).unwrap();
        s.put("k", Bytes::from_static(b"payload")).unwrap();
        s.get("k").unwrap();
        s.get_range("k", 0, 3).unwrap();
        assert!(s.delete("k").unwrap());
        assert!(!s.delete("k").unwrap(), "second delete is a miss");
        let snap = s.obs_snapshot().unwrap();
        assert_eq!(snap.counter("store.puts{device=dir}"), 1);
        assert_eq!(snap.counter("store.bytes_written{device=dir}"), 7);
        assert_eq!(snap.counter("store.gets{device=dir}"), 2);
        assert_eq!(snap.counter("store.bytes_read{device=dir}"), 10);
        assert_eq!(snap.counter("store.deletes{device=dir}"), 1, "misses are not deletes");
    }

    #[test]
    fn overwrite_replaces_content() {
        let s = DirObjectStore::open(tmpdir("ow")).unwrap();
        s.put("k", Bytes::from_static(b"old")).unwrap();
        s.put("k", Bytes::from_static(b"newer")).unwrap();
        assert_eq!(s.get("k").unwrap(), Bytes::from_static(b"newer"));
        assert_eq!(s.total_bytes(), 5);
    }
}
