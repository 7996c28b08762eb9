//! Simulated time.
//!
//! The measurement pipeline reasons about connection lifetimes ("median
//! lifetime of 122.2 s", endless vs. immediate duration models) and the DNS
//! probe queries resolvers "every 6 minutes over several days". All of that
//! runs on a deterministic simulated clock: [`Instant`] is a millisecond
//! offset from the start of a simulation, [`Duration`] is a millisecond span,
//! and [`SimClock`] is a monotonically advancing clock handed around by the
//! drivers.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A span of simulated time with millisecond resolution.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Duration {
    millis: u64,
}

impl Duration {
    /// Zero-length duration.
    pub const ZERO: Duration = Duration { millis: 0 };

    /// Construct from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        Duration { millis }
    }

    /// Construct from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        Duration { millis: secs * 1000 }
    }

    /// Construct from whole minutes.
    pub const fn from_mins(mins: u64) -> Self {
        Duration::from_secs(mins * 60)
    }

    /// Construct from whole hours.
    pub const fn from_hours(hours: u64) -> Self {
        Duration::from_mins(hours * 60)
    }

    /// Construct from whole days.
    pub const fn from_days(days: u64) -> Self {
        Duration::from_hours(days * 24)
    }

    /// The duration in milliseconds.
    pub const fn as_millis(&self) -> u64 {
        self.millis
    }

    /// The duration in (fractional) seconds.
    pub fn as_secs_f64(&self) -> f64 {
        self.millis as f64 / 1000.0
    }

    /// Saturating subtraction.
    pub const fn saturating_sub(self, other: Duration) -> Duration {
        Duration { millis: self.millis.saturating_sub(other.millis) }
    }

    /// Multiply by an integer factor.
    pub const fn times(self, factor: u64) -> Duration {
        Duration { millis: self.millis * factor }
    }

    /// Multiply by an integer factor, saturating at the representable
    /// maximum (aggregate cost accounting multiplies RTTs by campaign-wide
    /// round-trip counts, which must not wrap).
    pub const fn saturating_mul(self, factor: u64) -> Duration {
        Duration { millis: self.millis.saturating_mul(factor) }
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.millis.is_multiple_of(1000) {
            write!(f, "{}s", self.millis / 1000)
        } else {
            write!(f, "{}ms", self.millis)
        }
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Duration({self})")
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration { millis: self.millis + rhs.millis }
    }
}

/// A point in simulated time, measured from the simulation epoch.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Instant {
    millis: u64,
}

impl Instant {
    /// The simulation epoch (t = 0).
    pub const EPOCH: Instant = Instant { millis: 0 };

    /// Construct from a millisecond offset from the epoch.
    pub const fn from_millis(millis: u64) -> Self {
        Instant { millis }
    }

    /// Millisecond offset from the epoch.
    pub const fn as_millis(&self) -> u64 {
        self.millis
    }

    /// Elapsed time since `earlier`; zero if `earlier` is in the future.
    pub const fn since(&self, earlier: Instant) -> Duration {
        Duration { millis: self.millis.saturating_sub(earlier.millis) }
    }
}

impl fmt::Display for Instant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}ms", self.millis)
    }
}

impl fmt::Debug for Instant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Instant({self})")
    }
}

impl Add<Duration> for Instant {
    type Output = Instant;
    fn add(self, rhs: Duration) -> Instant {
        Instant { millis: self.millis + rhs.as_millis() }
    }
}

impl AddAssign<Duration> for Instant {
    fn add_assign(&mut self, rhs: Duration) {
        self.millis += rhs.as_millis();
    }
}

impl Sub<Instant> for Instant {
    type Output = Duration;
    fn sub(self, rhs: Instant) -> Duration {
        self.since(rhs)
    }
}

/// A monotonically advancing simulated clock.
///
/// Drivers (the browser page loader, the DNS probe) own a `SimClock` and
/// advance it explicitly; every recorded event carries the `Instant` read from
/// the clock, making entire runs reproducible.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimClock {
    now: Instant,
}

impl SimClock {
    /// A clock starting at the simulation epoch.
    pub fn new() -> Self {
        SimClock { now: Instant::EPOCH }
    }

    /// A clock starting at an arbitrary instant (used when replaying traces).
    pub fn starting_at(now: Instant) -> Self {
        SimClock { now }
    }

    /// The current simulated time.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Advance the clock by `d` and return the new time.
    pub fn advance(&mut self, d: Duration) -> Instant {
        self.now += d;
        self.now
    }

    /// Jump the clock forward to `target`; ignored if `target` is in the past
    /// (the clock never moves backwards).
    pub fn advance_to(&mut self, target: Instant) -> Instant {
        if target > self.now {
            self.now = target;
        }
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_compose() {
        assert_eq!(Duration::from_secs(2).as_millis(), 2000);
        assert_eq!(Duration::from_mins(3), Duration::from_secs(180));
        assert_eq!(Duration::from_hours(1), Duration::from_mins(60));
        assert_eq!(Duration::from_days(2), Duration::from_hours(48));
        assert_eq!(Duration::from_secs(1) + Duration::from_millis(500), Duration::from_millis(1500));
        assert_eq!(Duration::from_secs(5).times(3), Duration::from_secs(15));
        assert_eq!(Duration::from_secs(5).saturating_mul(3), Duration::from_secs(15));
        assert_eq!(Duration::from_millis(u64::MAX / 2).saturating_mul(4), Duration::from_millis(u64::MAX));
    }

    #[test]
    fn instant_arithmetic() {
        let t0 = Instant::EPOCH;
        let t1 = t0 + Duration::from_secs(10);
        assert_eq!(t1.as_millis(), 10_000);
        assert_eq!(t1 - t0, Duration::from_secs(10));
        assert_eq!(t0 - t1, Duration::ZERO);
        assert_eq!(t1.since(t0).as_secs_f64(), 10.0);
    }

    #[test]
    fn clock_is_monotonic() {
        let mut clock = SimClock::new();
        assert_eq!(clock.now(), Instant::EPOCH);
        clock.advance(Duration::from_secs(1));
        clock.advance_to(Instant::from_millis(500));
        assert_eq!(clock.now().as_millis(), 1000);
        clock.advance_to(Instant::from_millis(5000));
        assert_eq!(clock.now().as_millis(), 5000);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Duration::from_secs(122).to_string(), "122s");
        assert_eq!(Duration::from_millis(1500).to_string(), "1500ms");
        assert_eq!(Instant::from_millis(42).to_string(), "t+42ms");
    }
}
