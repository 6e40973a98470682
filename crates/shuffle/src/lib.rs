//! # diesel-shuffle — chunk-wise shuffle (paper §4.3, Fig. 8)
//!
//! DLT frameworks read the dataset in a freshly shuffled order every
//! epoch. A fully random order turns every read into a random small-file
//! read — the worst case for any storage system (Table 2). DIESEL's
//! *chunk-wise shuffle* generates orders that are random enough for SGD
//! but storage-friendly:
//!
//! 1. shuffle the dataset's **chunk IDs**;
//! 2. split the shuffled chunk list into **groups** of `G` chunks;
//! 3. within each group, shuffle the **files** of those chunks;
//! 4. concatenate the per-group file lists.
//!
//! Reading the resulting list touches at most `G` chunks at a time, so a
//! client caches `G × chunk_size` bytes (≈ 2 GB for ImageNet-1K with
//! `G = 500`, vs the 150 GB dataset) and every backing-store read is a
//! full-chunk read.
//!
//! This crate provides:
//!
//! * [`epoch_order`] — generate an epoch's file order for either
//!   strategy ([`ShuffleKind::DatasetShuffle`] baseline or
//!   [`ShuffleKind::ChunkWise`]), deterministically from `(seed, epoch)`,
//!   over the chunks and files of a client's
//!   [`FileTable`](diesel_meta::FileTable).
//! * [`ShuffleItem`] — one position of an order: a file's
//!   [`FileId`](diesel_meta::FileId) beside its chunk's index in the
//!   table; [`canonical_order`] is every item unshuffled.
//! * [`ShufflePlan`] — the generated order plus group boundaries, the
//!   working-set accounting, and conversion of file reads into
//!   chunk-wise reads.
//! * [`quality`] — statistical randomness measures used to validate that
//!   chunk-wise orders stay "random enough" (backing Fig. 13's claim
//!   that accuracy is unaffected).

pub mod plan;
pub mod quality;

pub use plan::{canonical_order, epoch_order, ShuffleItem, ShuffleKind, ShufflePlan};
