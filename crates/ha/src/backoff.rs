//! Capped exponential retry backoff.
//!
//! Client stubs whose in-flight requests die with a crashed host retry
//! on this schedule: the first retry is quick (the crash may be a
//! transient refusal), later retries space out so a recovering system
//! is not hammered, and the cap bounds worst-case added latency. No
//! jitter — the simulation's determinism guarantee forbids it, and the
//! discrete-event kernel already de-synchronises clients naturally.

/// A capped exponential backoff schedule.
///
/// Delay for attempt `n` (0-based) is `base_ns * factor^n`, saturating,
/// clamped to `max_delay_ns`; after `max_attempts` delays the schedule
/// is exhausted and the caller should give up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    /// First retry delay (virtual ns).
    pub base_ns: u64,
    /// Multiplier between successive delays.
    pub factor: u32,
    /// Upper clamp on any single delay.
    pub max_delay_ns: u64,
    /// Number of retries before giving up.
    pub max_attempts: u32,
}

impl Backoff {
    /// A doubling schedule: `base_ns`, clamped at `max_delay_ns`, for
    /// `max_attempts` retries.
    pub fn new(base_ns: u64, max_delay_ns: u64, max_attempts: u32) -> Self {
        Backoff {
            base_ns,
            factor: 2,
            max_delay_ns,
            max_attempts,
        }
    }

    /// Delay before retry `attempt` (0-based), or `None` once the
    /// schedule is exhausted.
    pub fn delay_ns(&self, attempt: u32) -> Option<u64> {
        if attempt >= self.max_attempts {
            return None;
        }
        let mut d = self.base_ns;
        for _ in 0..attempt {
            d = d.saturating_mul(u64::from(self.factor));
            if d >= self.max_delay_ns {
                break;
            }
        }
        Some(d.min(self.max_delay_ns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doubles_until_cap_then_exhausts() {
        let b = Backoff::new(1_000, 5_000, 5);
        let delays: Vec<Option<u64>> = (0..6).map(|a| b.delay_ns(a)).collect();
        assert_eq!(
            delays,
            vec![
                Some(1_000),
                Some(2_000),
                Some(4_000),
                Some(5_000),
                Some(5_000),
                None
            ]
        );
    }

    #[test]
    fn saturates_instead_of_overflowing() {
        let b = Backoff::new(u64::MAX / 2, u64::MAX, 10);
        assert_eq!(b.delay_ns(9), Some(u64::MAX));
    }

    #[test]
    fn zero_attempts_never_retries() {
        let b = Backoff::new(1_000, 1_000, 0);
        assert_eq!(b.delay_ns(0), None);
    }
}
