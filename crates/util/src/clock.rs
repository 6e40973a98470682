//! Injectable time source for backoff, deadlines, and timestamps.
//!
//! Everything in the tree that waits, times out, or stamps data takes an
//! `Arc<dyn Clock>`: production code uses [`SystemClock`], tests use
//! [`MockClock`], where `sleep_ns` simply advances the reading. Chunk
//! IDs additionally need *wall* time (their embedded timestamps order
//! the KV recovery scan, DIESEL §4.1.2), so the trait also exposes
//! [`epoch_ms`](Clock::epoch_ms).
//!
//! This module is the only place in the workspace allowed to call
//! `Instant::now`/`SystemTime::now`: `clippy.toml` disallows both methods
//! everywhere else, which is what guarantees that swapping in a
//! `MockClock` actually controls all of time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// A monotonic nanosecond clock that can also block and tell wall time.
pub trait Clock: Send + Sync {
    /// Nanoseconds since an arbitrary (per-clock) origin. Monotonic.
    fn now_ns(&self) -> u64;

    /// Wait for `ns` nanoseconds (or pretend to).
    fn sleep_ns(&self, ns: u64);

    /// Milliseconds since the Unix epoch (wall clock). Defaults to the
    /// monotonic reading, which gives virtual clocks a coherent epoch
    /// starting at zero.
    fn epoch_ms(&self) -> u64 {
        self.now_ns() / 1_000_000
    }
}

/// Real time: `Instant`-backed readings, `thread::sleep` waits, and
/// `SystemTime`-anchored epoch timestamps.
#[derive(Debug)]
pub struct SystemClock {
    origin: Instant,
    epoch_at_origin_ms: u64,
}

impl SystemClock {
    /// A clock whose monotonic origin is "now".
    #[expect(clippy::disallowed_methods, reason = "the one place that reads real time")]
    pub fn new() -> Self {
        let epoch_at_origin_ms =
            SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis() as u64).unwrap_or(0);
        SystemClock { origin: Instant::now(), epoch_at_origin_ms }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        SystemClock::new()
    }
}

impl Clock for SystemClock {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
    fn sleep_ns(&self, ns: u64) {
        std::thread::sleep(Duration::from_nanos(ns));
    }
    fn epoch_ms(&self) -> u64 {
        // Derived from the monotonic origin so the reading never goes
        // backwards even if the system wall clock is stepped.
        self.epoch_at_origin_ms + self.origin.elapsed().as_millis() as u64
    }
}

/// Virtual time for tests: starts at zero, advances only on demand.
///
/// `sleep_ns` advances the clock instead of blocking, so retry/backoff
/// schedules can be asserted exactly and instantly. The epoch reading is
/// `base_epoch_ms + now_ns/1e6`; set a base with
/// [`at_epoch_ms`](MockClock::at_epoch_ms) when a test needs realistic
/// wall timestamps (e.g. chunk-ID ordering).
#[derive(Debug, Default)]
pub struct MockClock {
    now: AtomicU64,
    base_epoch_ms: AtomicU64,
}

impl MockClock {
    /// A clock reading zero (monotonic and epoch).
    pub fn new() -> Self {
        MockClock { now: AtomicU64::new(0), base_epoch_ms: AtomicU64::new(0) }
    }

    /// A clock whose epoch reading starts at `ms`.
    pub fn at_epoch_ms(ms: u64) -> Self {
        MockClock { now: AtomicU64::new(0), base_epoch_ms: AtomicU64::new(ms) }
    }

    /// Move the clock forward by `ns`.
    pub fn advance(&self, ns: u64) {
        self.now.fetch_add(ns, Ordering::SeqCst);
    }
}

impl Clock for MockClock {
    fn now_ns(&self) -> u64 {
        self.now.load(Ordering::SeqCst)
    }
    fn sleep_ns(&self, ns: u64) {
        self.advance(ns);
    }
    fn epoch_ms(&self) -> u64 {
        self.base_epoch_ms.load(Ordering::SeqCst) + self.now_ns() / 1_000_000
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mock_clock_advances_on_sleep() {
        let c = MockClock::new();
        assert_eq!(c.now_ns(), 0);
        c.sleep_ns(250);
        c.advance(50);
        assert_eq!(c.now_ns(), 300);
    }

    #[test]
    fn mock_clock_epoch_tracks_base_plus_virtual_time() {
        let c = MockClock::at_epoch_ms(1_600_000_000_000);
        assert_eq!(c.epoch_ms(), 1_600_000_000_000);
        c.advance(2_500_000_000); // 2.5 s
        assert_eq!(c.epoch_ms(), 1_600_000_002_500);
    }

    #[test]
    fn system_clock_is_monotonic() {
        let c = SystemClock::new();
        let a = c.now_ns();
        c.sleep_ns(1_000_000);
        let b = c.now_ns();
        assert!(b >= a + 1_000_000, "a={a} b={b}");
    }

    #[test]
    fn system_clock_epoch_is_plausible_and_monotonic() {
        let c = SystemClock::new();
        let a = c.epoch_ms();
        // After 2020-01-01 in any sane environment.
        assert!(a > 1_577_836_800_000, "epoch_ms={a}");
        c.sleep_ns(2_000_000);
        assert!(c.epoch_ms() >= a);
    }
}
