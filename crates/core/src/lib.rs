//! # diesel-core — the DIESEL server and client (libDIESEL)
//!
//! This crate assembles the substrates into the system of Fig. 2:
//!
//! * [`DieselServer`] — "hides the details of the underlying systems and
//!   provides a unified interface to access data as well as metadata":
//!   chunk ingest (write flow, Fig. 3), the read flow of Fig. 4, and the
//!   housekeeping operations (`DL_purge`, `DL_delete_dataset`).
//! * [`executor`] — the *request executor* that "sorts and merges small
//!   file requests to chunk-wise operations".
//! * [`DieselClient`] — libDIESEL (Table 3): `DL_connect`, `DL_put`,
//!   `DL_flush`, `DL_get`, `DL_stat`, `DL_ls`, `DL_delete`,
//!   `DL_save_meta`, `DL_load_meta`, `DL_shuffle`, `DL_close`, expressed
//!   as idiomatic Rust methods. The client holds the loaded snapshot as
//!   one [`FileTable`](diesel_meta::FileTable) ("metadata cache and
//!   interpreter") and optionally attaches to a task-grained distributed
//!   cache.
//! * [`dlcmd`] — the `DLCMD` dataset-management tool (import a directory
//!   tree, export, `du`), mirroring `s3cmd`-style usage; the `dlcmd`
//!   binary wraps it as a CLI.

pub mod admission;
pub mod api;
pub mod client;
pub mod dlcmd;
pub mod executor;
pub mod server;

pub use admission::{AdmissionConfig, AdmissionController, Permit};
pub use api::{ServerConn, ServerReply, ServerRequest, ServerResponse};
pub use client::{ClientConfig, DieselClient};
pub use executor::{plan_chunk_reads, ChunkReadPlan};
pub use server::DieselServer;

/// Errors from the core layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DieselError {
    /// Metadata layer failure.
    Meta(diesel_meta::MetaError),
    /// Object-store failure.
    Store(diesel_store::StoreError),
    /// Chunk parse/build failure.
    Chunk(diesel_chunk::ChunkError),
    /// Distributed-cache failure that could not be recovered by falling
    /// back to the server.
    Cache(diesel_cache::CacheError),
    /// RPC transport failure (timeout, disconnect) talking to a server.
    Net(diesel_net::NetError),
    /// Client misuse (e.g. reading before loading metadata).
    Client(String),
    /// A dataset name that is empty or contains `/`. Keys and chunk
    /// objects are named `…/{dataset}/…`, so such a name would share
    /// keys with another dataset.
    BadDataset(String),
}

impl std::fmt::Display for DieselError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DieselError::Meta(e) => write!(f, "metadata: {e}"),
            DieselError::Store(e) => write!(f, "store: {e}"),
            DieselError::Chunk(e) => write!(f, "chunk: {e}"),
            DieselError::Cache(e) => write!(f, "cache: {e}"),
            DieselError::Net(e) => write!(f, "net: {e}"),
            DieselError::Client(e) => write!(f, "client: {e}"),
            DieselError::BadDataset(name) => {
                write!(f, "bad dataset name {name:?}: it must be non-empty and contain no '/'")
            }
        }
    }
}

impl std::error::Error for DieselError {}

impl From<diesel_meta::MetaError> for DieselError {
    fn from(e: diesel_meta::MetaError) -> Self {
        DieselError::Meta(e)
    }
}
impl From<diesel_store::StoreError> for DieselError {
    fn from(e: diesel_store::StoreError) -> Self {
        DieselError::Store(e)
    }
}
impl From<diesel_chunk::ChunkError> for DieselError {
    fn from(e: diesel_chunk::ChunkError) -> Self {
        DieselError::Chunk(e)
    }
}
impl From<diesel_cache::CacheError> for DieselError {
    fn from(e: diesel_cache::CacheError) -> Self {
        DieselError::Cache(e)
    }
}
impl From<diesel_net::NetError> for DieselError {
    fn from(e: diesel_net::NetError) -> Self {
        DieselError::Net(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DieselError>;
