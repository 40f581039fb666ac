//! Simulated time.

use std::ops::{Add, AddAssign, Sub};

/// An instant or duration of simulated time, with nanosecond resolution.
///
/// The simulation treats instants and durations uniformly (both are counts
/// of nanoseconds since the start of the run), which keeps the arithmetic
/// in the event loop simple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time from nanoseconds.
    pub fn from_nanos(ns: u64) -> Self {
        Self(ns)
    }

    /// Creates a time from microseconds.
    pub fn from_micros(us: u64) -> Self {
        Self(us * 1_000)
    }

    /// Creates a time from milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        Self(ms * 1_000_000)
    }

    /// Creates a time from whole seconds.
    pub fn from_secs(s: u64) -> Self {
        Self(s * 1_000_000_000)
    }

    /// Creates a time from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s.is_finite() && s >= 0.0,
            "seconds must be non-negative and finite"
        );
        Self((s * 1e9).round() as u64)
    }

    /// Nanoseconds since the start of the simulation.
    pub fn as_nanos(&self) -> u64 {
        self.0
    }

    /// Value in microseconds (floating point) — the unit of Chrome
    /// trace-event timestamps.
    pub fn as_micros_f64(&self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Value in milliseconds (floating point).
    pub fn as_millis_f64(&self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Value in seconds (floating point).
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The last instant an event fires at. One short of `u64::MAX`, which
    /// the sharded engine could never reach: its windows end exclusively,
    /// and a shard with nothing pending publishes `u64::MAX`.
    pub(crate) const LAST: SimTime = SimTime(u64::MAX - 1);

    /// `self + delay`, stopping at [`SimTime::LAST`] — how the event
    /// core computes the instant of an event. (`+` is for durations that
    /// cannot get there; it traps on overflow in debug builds.)
    pub(crate) fn saturating_add(self, delay: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(delay.0)).min(Self::LAST)
    }

    /// Saturating difference between two instants.
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// Checked difference between two instants: `None` when `other` is
    /// later than `self`. Prefer this over [`SimTime::saturating_sub`]
    /// when a negative difference would mask an event-ordering bug.
    pub fn checked_sub(self, other: SimTime) -> Option<SimTime> {
        self.0.checked_sub(other.0).map(SimTime)
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(2), SimTime::from_millis(2_000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1_000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1_000));
        assert_eq!(SimTime::from_secs_f64(0.5), SimTime::from_millis(500));
    }

    #[test]
    fn arithmetic_and_ordering() {
        let a = SimTime::from_millis(10);
        let b = SimTime::from_millis(3);
        assert_eq!(a + b, SimTime::from_millis(13));
        assert_eq!(a - b, SimTime::from_millis(7));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a.checked_sub(b), Some(SimTime::from_millis(7)));
        assert_eq!(b.checked_sub(a), None, "negative differences surface");
        assert!(a > b);
        let mut c = a;
        c += b;
        assert_eq!(c, SimTime::from_millis(13));
    }

    #[test]
    fn event_instants_saturate_one_short_of_the_maximum() {
        let late = SimTime(u64::MAX - 5);
        assert_eq!(late.saturating_add(SimTime(3)), SimTime(u64::MAX - 2));
        assert_eq!(late.saturating_add(SimTime(5)), SimTime::LAST);
        assert_eq!(late.saturating_add(SimTime(u64::MAX)), SimTime::LAST);
        assert_eq!(SimTime::LAST.saturating_add(SimTime(1)), SimTime::LAST);
    }

    #[test]
    fn float_conversions() {
        let t = SimTime::from_millis(1500);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
        assert!((t.as_millis_f64() - 1500.0).abs() < 1e-9);
        assert!((t.as_micros_f64() - 1_500_000.0).abs() < 1e-6);
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(format!("{}", SimTime::from_nanos(10)), "10ns");
        assert_eq!(format!("{}", SimTime::from_millis(2)), "2.000ms");
        assert_eq!(format!("{}", SimTime::from_secs(3)), "3.000s");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_seconds_rejected() {
        let _ = SimTime::from_secs_f64(-1.0);
    }
}
