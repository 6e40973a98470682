//! `bytes.copied{site=…}` — the payload plane's copy ledger.
//!
//! The zero-copy refactor's contract (DESIGN.md §11) is that payload
//! bytes are copied only at a handful of *deliberate* sites: ingest
//! (client-side chunk aggregation), corruption injection, the
//! decode-into-tensor boundary, and chunk rewrites (file deletion /
//! compaction). Every such site reports here, so "a cache-hit read
//! performs zero payload memcpy" is an asserted invariant — a test
//! snapshots the ledger, drives a traced cache-hit epoch, and demands a
//! zero delta — instead of prose that silently rots.
//!
//! The ledger is process-global on purpose: copy sites live in crates
//! that must not know which `Registry` a caller wired up (e.g.
//! `ChunkBuilder` has no registry at all), and the invariant being
//! asserted is "no copies *anywhere* in the process during a cache-hit
//! read", which a per-component registry could not see.

use std::sync::{Arc, OnceLock};

use diesel_util::SystemClock;

use crate::registry::Registry;

/// Metric name for the ledger's counter cells.
pub const BYTES_COPIED: &str = "bytes.copied";

fn ledger() -> &'static Registry {
    static LEDGER: OnceLock<Registry> = OnceLock::new();
    // Counters never read the clock; SystemClock is only the required
    // constructor argument.
    LEDGER.get_or_init(|| Registry::new(Arc::new(SystemClock::new())))
}

/// Record `n` payload bytes copied at `site` (e.g. `ingest`, `decode`,
/// `corruption`, `delete_rewrite`). Cheap: one map lookup plus an
/// atomic add.
pub fn record_copy(site: &str, n: u64) {
    ledger().counter(BYTES_COPIED, &[("site", site)]).add(n);
}

/// Total payload bytes copied so far across every site.
pub fn copied_total() -> u64 {
    ledger().snapshot().sum_counter(BYTES_COPIED)
}

/// Bytes copied so far at one site (`bytes.copied{site=…}`).
pub fn copied_at(site: &str) -> u64 {
    ledger().snapshot().counter(&format!("{BYTES_COPIED}{{site={site}}}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_accumulates_per_site() {
        // The ledger is global and tests run in one process, so assert
        // on deltas of a site no other test writes to.
        let before = copied_at("obs-test-site");
        record_copy("obs-test-site", 128);
        record_copy("obs-test-site", 2);
        assert_eq!(copied_at("obs-test-site") - before, 130);
        assert!(copied_total() >= copied_at("obs-test-site"));
    }
}
