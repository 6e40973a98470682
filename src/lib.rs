//! # diesel-dlt — a Rust reproduction of DIESEL (ICPP 2020)
//!
//! DIESEL is a dataset-based distributed storage and caching system for
//! large-scale deep-learning training (Wang et al., ICPP 2020). This
//! workspace rebuilds the full system and its evaluation:
//!
//! * self-contained ≥ 4 MB data chunks with time-sortable IDs
//!   ([`chunk`]),
//! * a distributed key-value metadata store with Redis-style slot
//!   routing ([`kv`]) and the metadata service + per-dataset snapshots
//!   on top ([`meta`]),
//! * shared object storage with calibrated device models ([`store`]),
//! * the task-grained distributed cache ([`cache`]),
//! * a typed RPC layer with retries, fault injection and
//!   per-endpoint stats, carrying all inter-node traffic ([`net`]),
//! * a lock-light metrics registry that every serving layer reports
//!   into ([`obs`]),
//! * a work-pool/pipeline executor behind every background thread in
//!   the tree, with a deterministic inline mode ([`exec`]),
//! * the chunk-wise shuffle ([`shuffle`]),
//! * the DIESEL server + libDIESEL client + DLCMD ([`core`]),
//! * baselines (Lustre-like FS, Memcached cluster) ([`baselines`]),
//! * a mini training stack for the accuracy experiments ([`train`]),
//! * and a deterministic cluster simulator ([`simnet`]).
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use diesel_dlt::core::{DieselClient, DieselServer};
//! use diesel_dlt::kv::ShardedKv;
//! use diesel_dlt::store::MemObjectStore;
//!
//! // Deploy a server over a KV store and an object store.
//! let server = Arc::new(DieselServer::new(
//!     Arc::new(ShardedKv::new()),
//!     Arc::new(MemObjectStore::new()),
//! ));
//!
//! // Connect a client (DL_connect), write files (DL_put + DL_flush).
//! let client = DieselClient::connect(server, "my-dataset");
//! client.put("train/cat/1.jpg", b"...jpeg bytes...").unwrap();
//! client.put("train/dog/2.jpg", b"...jpeg bytes...").unwrap();
//! client.flush().unwrap();
//!
//! // Load the metadata snapshot and read (DL_get / DL_stat / DL_ls).
//! client.download_meta().unwrap();
//! assert_eq!(client.stat("train/cat/1.jpg").unwrap().length, 16);
//! assert_eq!(client.ls("train").unwrap().len(), 2);
//! assert_eq!(&client.get("train/dog/2.jpg").unwrap()[..], b"...jpeg bytes...");
//! ```
//!
//! See `examples/` for end-to-end scenarios (distributed training,
//! failure recovery, memory-constrained shuffle) and `crates/bench` for
//! the per-table/figure experiment harness.

pub use diesel_baselines as baselines;
pub use diesel_cache as cache;
pub use diesel_chunk as chunk;
pub use diesel_core as core;
pub use diesel_exec as exec;
pub use diesel_kv as kv;
pub use diesel_meta as meta;
pub use diesel_net as net;
pub use diesel_obs as obs;
pub use diesel_shuffle as shuffle;
pub use diesel_simnet as simnet;
pub use diesel_store as store;
pub use diesel_train as train;
