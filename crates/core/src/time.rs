//! Virtual time for the deterministic simulation substrate.
//!
//! The paper's bindings carry "the time that the binding becomes invalid"
//! (§3.5). In this reproduction all timestamps are virtual: the
//! discrete-event kernel in `legion-net` advances a [`SimTime`] measured in
//! nanoseconds of simulated wall-clock. Keeping the type here (rather than
//! in `legion-net`) lets the model layer talk about expiry without a
//! dependency on the kernel.

use serde::Serialize;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in simulated nanoseconds since system boot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The origin of virtual time (system boot).
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; used as "never".
    pub const NEVER: SimTime = SimTime(u64::MAX);

    /// Construct from whole simulated nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from whole simulated microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from whole simulated milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from whole simulated seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// The raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This instant expressed in (possibly fractional) milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This instant expressed in (possibly fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating addition of a duration in nanoseconds.
    #[inline]
    pub fn saturating_add(self, ns: u64) -> Self {
        SimTime(self.0.saturating_add(ns))
    }

    /// The elapsed nanoseconds since `earlier`, or zero if `earlier` is later.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: u64) -> SimTime {
        SimTime(self.0 + rhs)
    }
}

impl AddAssign<u64> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = u64;
    #[inline]
    fn sub(self, rhs: SimTime) -> u64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == SimTime::NEVER {
            write!(f, "never")
        } else if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// When a binding (or any cached fact) stops being valid (§3.5).
///
/// `Never` encodes the paper's "field may be set to some value that
/// indicates that the binding will never become explicitly invalid".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Expiry {
    /// The fact never expires of its own accord.
    #[default]
    Never,
    /// The fact is invalid at and after this instant.
    At(SimTime),
}

impl Expiry {
    /// Is the fact still valid at virtual time `now`?
    #[inline]
    pub fn is_valid_at(self, now: SimTime) -> bool {
        match self {
            Expiry::Never => true,
            Expiry::At(t) => now < t,
        }
    }

    /// An expiry `ttl_ns` nanoseconds after `now`.
    #[inline]
    pub fn after(now: SimTime, ttl_ns: u64) -> Self {
        Expiry::At(now.saturating_add(ttl_ns))
    }
}

impl fmt::Display for Expiry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expiry::Never => write!(f, "never"),
            Expiry::At(t) => write!(f, "at {t}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1000));
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_millis(5);
        assert_eq!((t + 1_000_000).as_nanos(), 6_000_000);
        let mut u = t;
        u += 2_000_000;
        assert_eq!(u - t, 2_000_000);
        assert_eq!(t.saturating_since(u), 0);
        assert_eq!(u.saturating_since(t), 2_000_000);
    }

    #[test]
    fn saturating_add_caps_at_never() {
        assert_eq!(SimTime::NEVER.saturating_add(10), SimTime::NEVER);
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(SimTime::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimTime::from_micros(3).to_string(), "3.000us");
        assert_eq!(SimTime::from_millis(3).to_string(), "3.000ms");
        assert_eq!(SimTime::from_secs(2).to_string(), "2.000s");
        assert_eq!(SimTime::NEVER.to_string(), "never");
    }

    #[test]
    fn expiry_never_is_always_valid() {
        assert!(Expiry::Never.is_valid_at(SimTime::ZERO));
        assert!(Expiry::Never.is_valid_at(SimTime::NEVER));
    }

    #[test]
    fn expiry_at_boundary_is_invalid() {
        let e = Expiry::At(SimTime::from_secs(1));
        assert!(e.is_valid_at(SimTime::from_millis(999)));
        assert!(!e.is_valid_at(SimTime::from_secs(1)));
        assert!(!e.is_valid_at(SimTime::from_secs(2)));
    }

    #[test]
    fn expiry_after_builds_ttl() {
        let e = Expiry::after(SimTime::from_secs(1), 500);
        assert_eq!(e, Expiry::At(SimTime(1_000_000_500)));
    }
}
