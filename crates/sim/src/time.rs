//! Simulated time.
//!
//! All simulator timestamps are nanoseconds held in a [`Time`] newtype, and
//! durations are [`Duration`] newtypes, so that wall-clock quantities cannot
//! be confused with byte counts or indices ([C-NEWTYPE]).
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

use serde::{Deserialize, Serialize};

/// An absolute point on the simulated timeline, in nanoseconds since the
/// simulation epoch.
///
/// # Examples
///
/// ```
/// use capuchin_sim::{Duration, Time};
///
/// let t = Time::ZERO + Duration::from_micros(3);
/// assert_eq!(t.as_nanos(), 3_000);
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct Time(u64);

/// A span of simulated time, in nanoseconds.
///
/// # Examples
///
/// ```
/// use capuchin_sim::Duration;
///
/// let d = Duration::from_millis(2) + Duration::from_micros(500);
/// assert_eq!(d.as_micros_f64(), 2_500.0);
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct Duration(u64);

impl Time {
    /// The simulation epoch.
    pub const ZERO: Time = Time(0);

    /// Creates a time from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Time {
        Time(ns)
    }

    /// Creates a time from microseconds.
    pub const fn from_micros(us: u64) -> Time {
        Time(us * 1_000)
    }

    /// Returns the raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the time as fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the time as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Returns the time as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Returns the later of `self` and `other`.
    pub fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }

    /// Returns the earlier of `self` and `other`.
    pub fn min(self, other: Time) -> Time {
        Time(self.0.min(other.0))
    }

    /// Returns the duration elapsed since `earlier`, saturating to zero if
    /// `earlier` is in the future.
    pub fn saturating_since(self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Subtracts a duration, saturating at the epoch.
    pub fn saturating_sub(self, d: Duration) -> Time {
        Time(self.0.saturating_sub(d.0))
    }
}

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Creates a duration from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Duration {
        Duration(ns)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Duration {
        Duration(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Duration {
        Duration(ms * 1_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Duration {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration seconds must be finite and non-negative, got {secs}"
        );
        Duration((secs * 1e9).round() as u64)
    }

    /// Returns the raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the duration as fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the duration as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Returns the duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Returns the longer of `self` and `other`.
    pub fn max(self, other: Duration) -> Duration {
        Duration(self.0.max(other.0))
    }

    /// Scales the duration by a non-negative factor, rounding to nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn mul_f64(self, factor: f64) -> Duration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "duration scale factor must be finite and non-negative, got {factor}"
        );
        Duration((self.0 as f64 * factor).round() as u64)
    }

    /// Subtracts another duration, saturating at zero.
    pub fn saturating_sub(self, other: Duration) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }

    /// Adds another duration, saturating at the largest representable
    /// duration instead of overflowing.
    pub fn saturating_add(self, other: Duration) -> Duration {
        Duration(self.0.saturating_add(other.0))
    }
}

impl Add<Duration> for Time {
    type Output = Time;

    fn add(self, rhs: Duration) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Time {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Time> for Time {
    type Output = Duration;

    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`; use
    /// [`Time::saturating_since`] when ordering is uncertain.
    fn sub(self, rhs: Time) -> Duration {
        debug_assert!(rhs.0 <= self.0, "time subtraction underflow");
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<Duration> for Duration {
    type Output = Duration;

    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for Duration {
    type Output = Duration;

    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl std::iter::Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{:.1}us", self.as_micros_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = Time::from_micros(10) + Duration::from_micros(5);
        assert_eq!(t.as_nanos(), 15_000);
        assert_eq!(t - Time::from_micros(10), Duration::from_micros(5));
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        let early = Time::from_micros(1);
        let late = Time::from_micros(9);
        assert_eq!(early.saturating_since(late), Duration::ZERO);
        assert_eq!(late.saturating_since(early), Duration::from_micros(8));
    }

    #[test]
    fn duration_from_secs_f64_rounds() {
        assert_eq!(Duration::from_secs_f64(1e-9).as_nanos(), 1);
        assert_eq!(Duration::from_secs_f64(0.5).as_nanos(), 500_000_000);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn duration_from_negative_secs_panics() {
        let _ = Duration::from_secs_f64(-1.0);
    }

    #[test]
    fn mul_f64_scales() {
        assert_eq!(
            Duration::from_micros(100).mul_f64(0.25),
            Duration::from_micros(25)
        );
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(Duration::from_micros(12).to_string(), "12.0us");
        assert_eq!(Duration::from_millis(3).to_string(), "3.000ms");
    }

    #[test]
    fn min_max_order() {
        let a = Time::from_micros(1);
        let b = Time::from_micros(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }
}
