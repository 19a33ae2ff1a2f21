//! Virtual time for the discrete-event simulator.
//!
//! The paper's evaluation runs on real AWS datacenters where round-trip
//! times span 19–238 ms (Table I). The reproduction replaces wall-clock
//! time with a deterministic virtual clock in nanoseconds, so a 200 s
//! experiment (Fig 6) replays in milliseconds of host time and every
//! run is bit-identical.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time (nanoseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time (nanoseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Constructs from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Raw nanoseconds since the epoch.
    pub const fn as_nanos(&self) -> u64 {
        self.0
    }

    /// Milliseconds since the epoch, as a float (for reporting).
    pub fn as_millis_f64(&self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Seconds since the epoch, as a float (for reporting).
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration elapsed since `earlier`, saturating at zero.
    pub fn since(&self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Constructs from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Constructs from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Constructs from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Constructs from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Constructs from fractional milliseconds.
    pub fn from_millis_f64(ms: f64) -> Self {
        SimDuration((ms.max(0.0) * 1e6).round() as u64)
    }

    /// Constructs from fractional seconds.
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration((s.max(0.0) * 1e9).round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(&self) -> u64 {
        self.0
    }

    /// Milliseconds as a float.
    pub fn as_millis_f64(&self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Seconds as a float.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e9
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_millis(5);
        assert_eq!(t.as_nanos(), 5_000_000);
        let t2 = t + SimDuration::from_micros(500);
        assert_eq!((t2 - t).as_millis_f64(), 0.5);
        assert_eq!(t.since(t2), SimDuration::ZERO); // saturates
    }

    #[test]
    fn conversions() {
        assert_eq!(SimDuration::from_secs(2).as_secs_f64(), 2.0);
        assert_eq!(SimDuration::from_millis_f64(1.5).as_nanos(), 1_500_000);
        assert_eq!(SimDuration::from_secs_f64(0.25).as_millis_f64(), 250.0);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_nanos(5) < SimTime::from_nanos(6));
        assert!(SimDuration::from_millis(1) > SimDuration::from_micros(999));
    }
}
