//! # diesel-meta — metadata storage, processing and snapshots
//!
//! DIESEL's first contribution (§4.1) is decoupling metadata *storage*
//! (a key-value database) from metadata *processing* (performed in DIESEL
//! servers and, via snapshots, in the clients themselves):
//!
//! * [`keys`] — the key schema of Fig. 5b. File-system operations map to
//!   KV operations: `stat` is one `get`, and a snapshot is one `pscan`
//!   of the dataset's file records; `readdir` is served from the
//!   snapshot's [`FileTable`], not from the KV.
//! * [`records`] — compact binary codecs for dataset / chunk / file
//!   records (hand-rolled: versioned, little-endian, no external format
//!   dependency).
//! * [`MetaService`] — the server-side metadata path: ingest a chunk
//!   header into KV pairs, look up files, delete files (bitmap update),
//!   and materialize snapshots.
//! * [`MetaSnapshot`] — the per-dataset snapshot (§4.1.3): dataset update
//!   timestamp, the chunk-ID list, and per-file (chunk, offset, length,
//!   full name). Clients load it once and serve *all* metadata locally —
//!   the mechanism behind the linear scaling of Fig. 10b.
//! * [`FileTable`] — the client-side table built from a snapshot: each
//!   path held once, O(1) `stat` by hash probe, `readdir` by a range scan
//!   of the sorted paths, and every chunk's files for the shuffle.
//! * [`recovery`] — §4.1.2: rebuild the KV contents by scanning
//!   self-contained chunks in ID (= write) order, either from a timestamp
//!   (scenario a, partial loss) or from scratch (scenario b, power loss).

pub mod keys;
pub mod records;
pub mod recovery;
pub mod service;
pub mod snapshot;
pub mod table;

pub use records::{ChunkRecord, DatasetRecord, FileMeta};
pub use recovery::{recover_from_timestamp, recover_full, RecoveryReport};
pub use service::MetaService;
pub use snapshot::MetaSnapshot;
pub use table::{DirEntry, EntryKind, FileId, FileTable};

/// Errors from the metadata layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetaError {
    /// The underlying KV store failed.
    Kv(diesel_kv::KvError),
    /// A stored record could not be decoded (version skew / corruption).
    BadRecord { key: String },
    /// A snapshot buffer could not be decoded.
    BadSnapshot(String),
    /// The named dataset does not exist.
    NoSuchDataset(String),
    /// The named file does not exist in the dataset.
    NoSuchFile(String),
    /// Chunk parsing failed during recovery.
    Chunk(diesel_chunk::ChunkError),
    /// Object-store access failed during recovery.
    Store(String),
}

impl std::fmt::Display for MetaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetaError::Kv(e) => write!(f, "kv error: {e}"),
            MetaError::BadRecord { key } => write!(f, "undecodable record at {key:?}"),
            MetaError::BadSnapshot(why) => write!(f, "bad snapshot: {why}"),
            MetaError::NoSuchDataset(d) => write!(f, "no such dataset: {d:?}"),
            MetaError::NoSuchFile(p) => write!(f, "no such file: {p:?}"),
            MetaError::Chunk(e) => write!(f, "chunk error during recovery: {e}"),
            MetaError::Store(e) => write!(f, "object store error: {e}"),
        }
    }
}

impl std::error::Error for MetaError {}

impl From<diesel_kv::KvError> for MetaError {
    fn from(e: diesel_kv::KvError) -> Self {
        MetaError::Kv(e)
    }
}

impl From<diesel_chunk::ChunkError> for MetaError {
    fn from(e: diesel_chunk::ChunkError) -> Self {
        MetaError::Chunk(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, MetaError>;
