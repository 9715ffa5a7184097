//! Virtual time for the simulation kernel.
//!
//! Time is measured in integer **picoseconds**. Architecture models usually
//! reason in clock cycles; [`Frequency`] converts between the two. Integer
//! picoseconds give an exact representation for every clock in the range of
//! interest (1 cycle at 1 GHz = 1000 ps, at 30 MHz = 33 333 ps) and a
//! simulated horizon of ~5 months before `u64` overflow, far beyond any
//! architecture-simulation run.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// An absolute instant in virtual time (picoseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Time(u64);

/// A span of virtual time (picoseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Duration(u64);

/// A clock frequency, used to convert cycle counts to durations and back.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Frequency {
    hz: u64,
}

pub const PS_PER_NS: u64 = 1_000;
pub const PS_PER_US: u64 = 1_000_000;
pub const PS_PER_MS: u64 = 1_000_000_000;
pub const PS_PER_S: u64 = 1_000_000_000_000;

impl Time {
    /// The start of simulated time.
    pub const ZERO: Time = Time(0);
    /// The largest representable instant (used as an "infinity" sentinel).
    pub const MAX: Time = Time(u64::MAX);

    /// Construct from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Time {
        Time(ps)
    }

    /// Construct from nanoseconds since simulation start.
    #[inline]
    pub const fn from_ns(ns: u64) -> Time {
        Time(ns * PS_PER_NS)
    }

    /// Construct from microseconds since simulation start.
    #[inline]
    pub const fn from_us(us: u64) -> Time {
        Time(us * PS_PER_US)
    }

    /// Construct from milliseconds since simulation start.
    #[inline]
    pub const fn from_ms(ms: u64) -> Time {
        Time(ms * PS_PER_MS)
    }

    /// Raw picosecond value.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Elapsed duration since `earlier`. Panics if `earlier` is later.
    #[inline]
    pub fn since(self, earlier: Time) -> Duration {
        Duration(
            self.0
                .checked_sub(earlier.0)
                .expect("Time::since: argument is later than self"),
        )
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: Time) -> Time {
        Time(self.0.min(other.0))
    }

    /// Time as fractional seconds (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }
}

impl Duration {
    pub const ZERO: Duration = Duration(0);
    pub const MAX: Duration = Duration(u64::MAX);

    /// Construct from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Duration {
        Duration(ps)
    }

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Duration {
        Duration(ns * PS_PER_NS)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Duration {
        Duration(us * PS_PER_US)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Duration {
        Duration(ms * PS_PER_MS)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Duration {
        Duration(s * PS_PER_S)
    }

    /// Raw picosecond value.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Duration as fractional seconds (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// Duration as fractional nanoseconds (for reporting only).
    #[inline]
    pub fn as_nanos_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// True if this is the zero duration.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The longer of two durations.
    #[inline]
    pub fn max(self, other: Duration) -> Duration {
        Duration(self.0.max(other.0))
    }

    /// The shorter of two durations.
    #[inline]
    pub fn min(self, other: Duration) -> Duration {
        Duration(self.0.min(other.0))
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: Duration) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }
}

impl Frequency {
    /// Construct from hertz. Panics on zero.
    #[inline]
    pub const fn from_hz(hz: u64) -> Frequency {
        assert!(hz > 0, "Frequency must be non-zero");
        Frequency { hz }
    }

    /// Construct from megahertz.
    #[inline]
    pub const fn from_mhz(mhz: u64) -> Frequency {
        Frequency::from_hz(mhz * 1_000_000)
    }

    /// Construct from gigahertz.
    #[inline]
    pub const fn from_ghz(ghz: u64) -> Frequency {
        Frequency::from_hz(ghz * 1_000_000_000)
    }

    /// Frequency in hertz.
    #[inline]
    pub const fn as_hz(self) -> u64 {
        self.hz
    }

    /// Frequency in megahertz (integer division; reporting only).
    #[inline]
    pub const fn as_mhz(self) -> u64 {
        self.hz / 1_000_000
    }

    /// The period of one clock cycle, rounded to the nearest picosecond.
    ///
    /// All Mermaid machine models use clocks of at most a few GHz, where the
    /// rounding error is below 0.05% per cycle.
    #[inline]
    pub const fn cycle(self) -> Duration {
        Duration((PS_PER_S + self.hz / 2) / self.hz)
    }

    /// The duration of `n` clock cycles.
    ///
    /// Computed as `n * period` with the period pre-rounded, so that cycle
    /// arithmetic inside one clock domain is exact and associative:
    /// `cycles(a) + cycles(b) == cycles(a + b)`.
    #[inline]
    pub const fn cycles(self, n: u64) -> Duration {
        Duration(n * self.cycle().as_ps())
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Duration) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Duration) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl Sub<Time> for Time {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Time) -> Duration {
        self.since(rhs)
    }
}

impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        Duration(
            self.0
                .checked_sub(rhs.0)
                .expect("Duration subtraction underflow"),
        )
    }
}

impl SubAssign for Duration {
    #[inline]
    fn sub_assign(&mut self, rhs: Duration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Mul<Duration> for u64 {
    type Output = Duration;
    #[inline]
    fn mul(self, rhs: Duration) -> Duration {
        Duration(self * rhs.0)
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Div<Duration> for Duration {
    type Output = u64;
    #[inline]
    fn div(self, rhs: Duration) -> u64 {
        self.0 / rhs.0
    }
}

impl Rem<Duration> for Duration {
    type Output = Duration;
    #[inline]
    fn rem(self, rhs: Duration) -> Duration {
        Duration(self.0 % rhs.0)
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", format_ps(self.0))
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&format_ps(self.0))
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&format_ps(self.0))
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&format_ps(self.0))
    }
}

impl fmt::Debug for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.hz.is_multiple_of(1_000_000) {
            write!(f, "{}MHz", self.hz / 1_000_000)
        } else {
            write!(f, "{}Hz", self.hz)
        }
    }
}

/// Render a picosecond count with a human-friendly unit.
fn format_ps(ps: u64) -> String {
    if ps == 0 {
        "0ps".to_string()
    } else if ps.is_multiple_of(PS_PER_S) {
        format!("{}s", ps / PS_PER_S)
    } else if ps.is_multiple_of(PS_PER_MS) {
        format!("{}ms", ps / PS_PER_MS)
    } else if ps.is_multiple_of(PS_PER_US) {
        format!("{}us", ps / PS_PER_US)
    } else if ps.is_multiple_of(PS_PER_NS) {
        format!("{}ns", ps / PS_PER_NS)
    } else {
        format!("{ps}ps")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = Time::from_ps(100);
        let d = Duration::from_ps(40);
        assert_eq!((t + d) - d, t);
        assert_eq!((t + d).since(t), d);
        assert_eq!(t + Duration::ZERO, t);
    }

    #[test]
    fn duration_constructors_scale() {
        assert_eq!(Duration::from_ns(1).as_ps(), 1_000);
        assert_eq!(Duration::from_us(1).as_ps(), 1_000_000);
        assert_eq!(Duration::from_ms(1).as_ps(), 1_000_000_000);
        assert_eq!(Duration::from_secs(1).as_ps(), 1_000_000_000_000);
    }

    #[test]
    fn frequency_cycle_periods() {
        assert_eq!(Frequency::from_mhz(1000).cycle(), Duration::from_ps(1000));
        assert_eq!(Frequency::from_mhz(100).cycle(), Duration::from_ns(10));
        // 30 MHz T805: 33333.3..ps rounds to 33333ps.
        assert_eq!(Frequency::from_mhz(30).cycle(), Duration::from_ps(33333));
    }

    #[test]
    fn cycles_are_associative_within_a_clock() {
        let f = Frequency::from_mhz(143);
        assert_eq!(f.cycles(3) + f.cycles(7), f.cycles(10));
    }

    #[test]
    #[should_panic(expected = "later than self")]
    fn since_panics_on_negative() {
        let _ = Time::from_ps(1).since(Time::from_ps(2));
    }

    #[test]
    fn duration_division_and_remainder() {
        let d = Duration::from_ps(105);
        let q = Duration::from_ps(10);
        assert_eq!(d / q, 10);
        assert_eq!(d % q, Duration::from_ps(5));
        assert_eq!(d / 5, Duration::from_ps(21));
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(Duration::from_ps(5).to_string(), "5ps");
        assert_eq!(Duration::from_ns(5).to_string(), "5ns");
        assert_eq!(Duration::from_secs(2).to_string(), "2s");
        assert_eq!(Time::ZERO.to_string(), "0ps");
    }

    #[test]
    fn sum_of_durations() {
        let total: Duration = (1..=4).map(Duration::from_ns).sum();
        assert_eq!(total, Duration::from_ns(10));
    }
}
