//! `diesel-util`: the workspace's bottom layer.
//!
//! Every other crate builds on these three pieces:
//!
//! - [`sync`] — `Mutex`/`RwLock`/`Condvar` wrappers that recover from
//!   poisoning instead of unwrapping, plus the free-function
//!   [`lock_or_recover`] family for code holding raw std locks. This is
//!   what makes clippy's panic-freedom lints enforceable: the only
//!   blessed way to acquire a lock never panics.
//! - [`clock`] — the injectable [`Clock`] trait ([`SystemClock`] /
//!   [`MockClock`]). This module is the single place in the tree allowed
//!   to read `Instant::now`/`SystemTime::now` (`clippy.toml`'s
//!   `disallowed-methods`); everything else takes an `Arc<dyn Clock>`.
//! - [`bytes`] — [`Bytes`], a cheaply-cloneable, sliceable, immutable
//!   byte buffer (stand-in for the `bytes` crate).
//! - [`lockdep`] — the lock-order witness behind `Mutex::named` /
//!   `RwLock::named`: a process-global lock-order graph with cycle
//!   detection at edge-insert time, so a potential ABBA deadlock is
//!   reported (or, under `DIESEL_LOCKDEP=fail`, panics) the first time
//!   the inverted *order* occurs — no deadlock needs to fire.
//!
//! Data parallelism lives one layer up in `diesel-exec`
//! (`WorkPool::for_each_chunk_mut` replaces the old `par_chunks_mut`).

pub mod bytes;
pub mod clock;
pub mod lockdep;
pub mod sync;

pub use bytes::Bytes;
pub use clock::{Clock, MockClock, SystemClock};
pub use sync::{
    lock_or_recover, read_or_recover, write_or_recover, Condvar, Mutex, MutexGuard, RwLock,
    RwLockReadGuard, RwLockWriteGuard,
};
