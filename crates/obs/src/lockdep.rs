//! `lockdep.cycles{a=…,b=…}` — the lock-order witness's reporting plane.
//!
//! The witness itself lives in `diesel_util::lockdep` (util is below
//! obs and cannot reach a registry); this module closes the loop by
//! installing a cycle reporter that counts every detected lock-order
//! cycle into a process-global ledger registry: counter
//! `lockdep.cycles{a=…,b=…}`, one cell per ordered class pair, so tests
//! can count inversions per pair.
//!
//! Like the copy ledger ([`crate::copies`]), the state is process-global
//! on purpose: a cycle can be detected under any lock in any component,
//! far from whichever `Registry` a caller wired up, and the invariant
//! being watched — "no lock-order inversion anywhere in the process" —
//! is a whole-process property.
//!
//! The bridge is installed automatically the first time any [`Registry`]
//! is constructed (every serving component builds one), and explicitly
//! via [`install`] from tests that touch no registry.

use std::sync::{Arc, Once, OnceLock};

use diesel_util::{lockdep, SystemClock};

use crate::registry::Registry;

/// Metric name of the per-pair cycle counter.
pub const LOCKDEP_CYCLES: &str = "lockdep.cycles";

fn ledger() -> &'static Registry {
    static LEDGER: OnceLock<Registry> = OnceLock::new();
    // Counters never read the clock; SystemClock is only the required
    // constructor argument.
    LEDGER.get_or_init(|| Registry::new(Arc::new(SystemClock::new())))
}

/// Install the util→obs reporter bridge (idempotent). Runs implicitly
/// on first `Registry` construction; call it directly from code that
/// wants cycle counts without building any registry.
pub fn install() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        lockdep::set_cycle_reporter(Box::new(|r: &lockdep::CycleReport| {
            // The ledger's own locks are named; diesel_util::lockdep
            // holds a per-thread re-entrancy latch while running this
            // hook, so a cycle detected *here* cannot recurse.
            ledger().counter(LOCKDEP_CYCLES, &[("a", &r.a), ("b", &r.b)]).inc();
        }));
    });
}

/// Cycles reported so far between the ordered pair (`a` held, `b`
/// acquired), per the ledger counter.
pub fn cycles_reported(a: &str, b: &str) -> u64 {
    ledger().snapshot().counter(&format!("{LOCKDEP_CYCLES}{{a={a},b={b}}}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reported_cycles_reach_the_ledger() {
        install();
        // Warn on this thread regardless of DIESEL_LOCKDEP: the suite
        // also runs under `fail`, and this inversion is deliberate.
        lockdep::set_thread_mode(Some(lockdep::Mode::Warn));
        // Unique class names so parallel tests can't interfere.
        let a = lockdep::class("obs-test.a");
        let b = lockdep::class("obs-test.b");
        {
            let ga = lockdep::acquire(a);
            let gb = lockdep::acquire(b);
            drop((ga, gb));
        }
        let before = cycles_reported("obs-test.b", "obs-test.a");
        {
            let gb = lockdep::acquire(b);
            let ga = lockdep::acquire(a); // inversion: reported, not fatal (warn)
            drop((gb, ga));
        }
        lockdep::set_thread_mode(None);
        assert_eq!(cycles_reported("obs-test.b", "obs-test.a"), before + 1);
    }
}
