//! Simulated time: a nanosecond-resolution monotonic timestamp.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point (or span) in simulated time, in nanoseconds.
///
/// `SimTime` is used both as an instant and as a duration; the arithmetic
/// is saturating on subtraction so models never wrap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// Build from whole seconds.
    pub fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }
    /// Build from milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }
    /// Build from microseconds.
    pub fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }
    /// Build from nanoseconds.
    pub fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }
    /// Build from fractional seconds. Negative values clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime((s.max(0.0) * 1e9).round() as u64)
    }

    /// Value in fractional seconds.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e9
    }
    /// Value in whole milliseconds.
    pub fn as_millis(&self) -> u64 {
        self.0 / 1_000_000
    }
    /// Value in nanoseconds.
    pub fn as_nanos(&self) -> u64 {
        self.0
    }

    /// The larger of two times.
    pub fn max_of(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Time to move `bytes` at `bytes_per_sec` throughput.
    pub fn for_bytes(bytes: u64, bytes_per_sec: f64) -> SimTime {
        assert!(bytes_per_sec > 0.0, "throughput must be positive");
        SimTime::from_secs_f64(bytes as f64 / bytes_per_sec)
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}µs", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(2), SimTime::from_millis(2000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1000));
        assert_eq!(SimTime::from_secs_f64(0.5), SimTime::from_millis(500));
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
    }

    #[test]
    fn arithmetic_saturates() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(3);
        assert_eq!(a - b, SimTime::ZERO);
        assert_eq!(b - a, SimTime::from_secs(2));
        assert_eq!(SimTime(u64::MAX) + SimTime(5), SimTime(u64::MAX));
    }

    #[test]
    fn bytes_transfer_time() {
        // 1 MiB at 1 MiB/s = 1 s.
        let t = SimTime::for_bytes(1 << 20, (1 << 20) as f64);
        assert_eq!(t, SimTime::from_secs(1));
        // 4 KiB at 4 GiB/s ≈ 954 ns.
        let t = SimTime::for_bytes(4096, 4.0 * (1u64 << 30) as f64);
        assert!(t.as_nanos() > 900 && t.as_nanos() < 1000, "{t}");
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimTime::from_nanos(5)), "5ns");
        assert_eq!(format!("{}", SimTime::from_micros(5)), "5.000µs");
        assert_eq!(format!("{}", SimTime::from_millis(5)), "5.000ms");
        assert_eq!(format!("{}", SimTime::from_secs(5)), "5.000s");
    }

    #[test]
    fn max_of() {
        let a = SimTime(3);
        let b = SimTime(7);
        assert_eq!(a.max_of(b), b);
        assert_eq!(b.max_of(a), b);
    }
}
