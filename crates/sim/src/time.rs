//! Simulated time: a nanosecond-resolution, monotonically non-decreasing
//! clock value.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point on the simulated clock, in nanoseconds since the start of the run.
///
/// `SimTime` is also used for durations (the difference of two points); the
/// arithmetic operators below saturate rather than wrap so that a buggy
/// subtraction surfaces as "zero duration" instead of a 580-year interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Largest representable instant; useful as a sentinel for "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a time from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates a time from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates a time from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Creates a time from fractional seconds, rounding to the nearest
    /// nanosecond. Negative and non-finite inputs clamp to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimTime::ZERO;
        }
        SimTime((s * 1e9).round() as u64)
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Value in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating difference `self - earlier`.
    #[inline]
    pub fn saturating_sub(self, earlier: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Scales a duration by an integer factor (saturating).
    #[inline]
    pub fn scaled(self, factor: u64) -> SimTime {
        SimTime(self.0.saturating_mul(factor))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        self.saturating_sub(rhs)
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
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

/// Computes the service time, in nanoseconds, for moving `bytes` over a link
/// of `bytes_per_sec` bandwidth, rounded up.
#[inline]
pub fn transfer_ns(bytes: u64, bytes_per_sec: u64) -> u64 {
    assert!(bytes_per_sec > 0, "bandwidth must be positive");
    ns_at_rate(bytes, bytes_per_sec)
}

/// Computes the service time, in nanoseconds, for `cycles` CPU cycles at
/// `hz` clock frequency, rounded up.
#[inline]
pub fn cycles_ns(cycles: u64, hz: u64) -> u64 {
    assert!(hz > 0, "clock frequency must be positive");
    ns_at_rate(cycles, hz)
}

/// `ceil(x * 10^9 / per_sec)`, saturated at `u64::MAX`. When `x * 10^9`
/// fits in 64 bits (every page, command and receipt the model charges) the
/// division is a 64-bit one; otherwise the 128-bit formula gives the same
/// result for multi-gigabyte transfers.
#[inline]
fn ns_at_rate(x: u64, per_sec: u64) -> u64 {
    match x.checked_mul(1_000_000_000) {
        Some(n) => n.div_ceil(per_sec),
        None => wide_ns_at_rate(x, per_sec),
    }
}

#[cold]
fn wide_ns_at_rate(x: u64, per_sec: u64) -> u64 {
    let ns = (x as u128 * 1_000_000_000u128).div_ceil(per_sec as u128);
    u64::try_from(ns).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(2), SimTime::from_nanos(2_000_000_000));
        assert_eq!(SimTime::from_millis(5), SimTime::from_micros(5_000));
        assert_eq!(SimTime::from_secs_f64(1.5), SimTime::from_millis(1_500));
    }

    #[test]
    fn from_secs_f64_clamps_bad_input() {
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NEG_INFINITY), SimTime::ZERO);
    }

    #[test]
    fn arithmetic_saturates() {
        assert_eq!(SimTime::ZERO - SimTime::from_secs(1), SimTime::ZERO);
        assert_eq!(SimTime::MAX + SimTime::from_secs(1), SimTime::MAX);
        assert_eq!(SimTime::MAX.scaled(3), SimTime::MAX);
    }

    #[test]
    fn min_max() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn transfer_time_matches_bandwidth() {
        // 550 MB/s moving 550 MB takes exactly one second.
        let ns = transfer_ns(550_000_000, 550_000_000);
        assert_eq!(ns, 1_000_000_000);
        // Rounds up: a single byte on a full-rate link still costs >= 1ns.
        assert!(transfer_ns(1, 1_000_000_000) >= 1);
    }

    #[test]
    fn transfer_time_no_overflow_on_huge_transfers() {
        // 90 GB at 550 MB/s ~ 163.6 s; must not overflow.
        let ns = transfer_ns(90_000_000_000, 550_000_000);
        let secs = ns as f64 / 1e9;
        assert!((secs - 163.6).abs() < 0.1, "got {secs}");
    }

    #[test]
    fn cycle_time_matches_clock() {
        assert_eq!(cycles_ns(400_000_000, 400_000_000), 1_000_000_000);
        assert_eq!(cycles_ns(1, 1_000_000_000), 1);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimTime::from_nanos(10).to_string(), "10ns");
        assert_eq!(SimTime::from_micros(10).to_string(), "10.000us");
        assert_eq!(SimTime::from_millis(10).to_string(), "10.000ms");
        assert_eq!(SimTime::from_secs(10).to_string(), "10.000s");
    }
}
