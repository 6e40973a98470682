//! # diesel-store — shared object storage substrate
//!
//! DIESEL stores data chunks in a shared object store (Ceph via librados,
//! or a POSIX file system such as Lustre, §5). This crate provides the
//! substitutes:
//!
//! * [`ObjectStore`] — the narrow interface DIESEL needs: whole-object
//!   put/get, range get, delete, and *sorted* key listing (chunk IDs are
//!   sortable; recovery scans them in order).
//! * [`MemObjectStore`] — in-memory reference implementation
//!   ([`Bytes`] values, cheap clones).
//! * [`DirObjectStore`] — directory-backed implementation, used by the
//!   examples to persist datasets on local disk.
//! * [`DeviceModel`] — analytic device cost model
//!   (`t = overhead + size / bandwidth`, k-wide) calibrated against the
//!   paper's Table 2.
//! * [`FaultyStore`] — seeded I/O-error and corruption injection over
//!   any `ObjectStore`.

pub mod dir;
pub mod faulty;
pub mod mem;
pub mod model;

pub use diesel_util::Bytes;
pub use dir::DirObjectStore;
pub use faulty::{FaultConfig, FaultyStore};
pub use mem::MemObjectStore;
pub use model::DeviceModel;

/// Errors from object-store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// No object with this key.
    NotFound(String),
    /// Requested range lies outside the object.
    BadRange { key: String, offset: u64, len: usize, size: usize },
    /// Underlying I/O failure (directory-backed store).
    Io(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::NotFound(k) => write!(f, "object not found: {k:?}"),
            StoreError::BadRange { key, offset, len, size } => {
                write!(f, "range {offset}+{len} out of bounds for object {key:?} of {size} bytes")
            }
            StoreError::Io(e) => write!(f, "object store I/O error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StoreError>;

/// The object-storage interface DIESEL runs on.
///
/// Keys are flat strings (encoded chunk IDs, possibly dataset-prefixed);
/// listing returns keys in lexicographic order so that chunk scans follow
/// write order (see `diesel-chunk::id`).
pub trait ObjectStore: Send + Sync {
    /// Store `value` under `key`, replacing any existing object.
    fn put(&self, key: &str, value: Bytes) -> Result<()>;

    /// Fetch a whole object.
    fn get(&self, key: &str) -> Result<Bytes>;

    /// Fetch `len` bytes at `offset`. Implementations must return exactly
    /// the in-bounds prefix if the range extends past the object end, and
    /// error only when `offset` itself is out of bounds.
    fn get_range(&self, key: &str, offset: u64, len: usize) -> Result<Bytes> {
        let whole = self.get(key)?;
        if offset as usize > whole.len() {
            return Err(StoreError::BadRange {
                key: key.to_owned(),
                offset,
                len,
                size: whole.len(),
            });
        }
        let start = offset as usize;
        let end = (start + len).min(whole.len());
        Ok(whole.slice(start..end))
    }

    /// Delete an object; returns whether it existed.
    fn delete(&self, key: &str) -> Result<bool>;

    /// Does `key` exist?
    fn contains(&self, key: &str) -> bool;

    /// All keys starting with `prefix`, in lexicographic order.
    fn list_prefix(&self, prefix: &str) -> Vec<String>;

    /// Size of the object in bytes, if present.
    fn size_of(&self, key: &str) -> Option<usize>;

    /// Number of stored objects.
    fn len(&self) -> usize;

    /// True when the store holds nothing.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total stored bytes (diagnostics).
    fn total_bytes(&self) -> u64;

    /// A snapshot of this store's metric registry, when it keeps one
    /// (e.g. [`DirObjectStore`]'s `store.*{device=dir}` counters). Front-end servers
    /// merge it into their own snapshot so one read shows the whole
    /// pipeline.
    fn obs_snapshot(&self) -> Option<diesel_obs::RegistrySnapshot> {
        None
    }
}
