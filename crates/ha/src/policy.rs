//! Pluggable suspicion policies.
//!
//! A [`SuspicionPolicy`] turns "how long has this host been silent"
//! into a health verdict: a small trait object the Magistrate owns,
//! swappable per experiment, and consulted only at sweep time so the
//! choice of policy cannot perturb event ordering.

/// Classified health of a monitored host.
///
/// Ordered: `Alive < Suspect < Dead`, so "worse" compares greater.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Health {
    /// Heartbeats arriving on schedule.
    Alive,
    /// Silent long enough to be suspicious, not long enough to act on.
    Suspect,
    /// Confirmed dead: the recovery driver may act.
    Dead,
}

impl Health {
    /// Short lower-case label (for counters and span notes).
    pub fn label(self) -> &'static str {
        match self {
            Health::Alive => "alive",
            Health::Suspect => "suspect",
            Health::Dead => "dead",
        }
    }
}

/// A pluggable rule classifying heartbeat silence.
///
/// `silence_ns` is virtual time since the last heartbeat (or since
/// registration); `interval_ns` is the heartbeat period the hosts were
/// configured with. Implementations must be pure functions of their
/// arguments — determinism of the whole recovery flow depends on it.
pub trait SuspicionPolicy: Send {
    /// Classify a host that has been silent for `silence_ns`.
    fn classify(&self, silence_ns: u64, interval_ns: u64) -> Health;
    /// Stable name for tables and traces.
    fn name(&self) -> &'static str;
}

/// Declare Suspect/Dead after a number of *missed heartbeats* — the
/// classic φ-less accrual approximation: thresholds scale with the
/// heartbeat period, so retuning the period retunes the detector.
#[derive(Debug, Clone, Copy)]
pub struct MissThreshold {
    /// Consecutive missed intervals before Suspect.
    pub suspect_after: u32,
    /// Consecutive missed intervals before Dead. Must be ≥ `suspect_after`.
    pub dead_after: u32,
}

impl Default for MissThreshold {
    fn default() -> Self {
        MissThreshold {
            suspect_after: 2,
            dead_after: 4,
        }
    }
}

impl SuspicionPolicy for MissThreshold {
    fn classify(&self, silence_ns: u64, interval_ns: u64) -> Health {
        if interval_ns == 0 {
            return Health::Alive;
        }
        let misses = silence_ns / interval_ns;
        if misses >= u64::from(self.dead_after) {
            Health::Dead
        } else if misses >= u64::from(self.suspect_after) {
            Health::Suspect
        } else {
            Health::Alive
        }
    }

    fn name(&self) -> &'static str {
        "miss-threshold"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_orders_by_severity() {
        assert!(Health::Alive < Health::Suspect);
        assert!(Health::Suspect < Health::Dead);
    }

    #[test]
    fn miss_threshold_classifies_by_intervals() {
        let p = MissThreshold::default(); // suspect 2, dead 4
        let iv = 1_000_000;
        assert_eq!(p.classify(0, iv), Health::Alive);
        assert_eq!(p.classify(iv * 2 - 1, iv), Health::Alive);
        assert_eq!(p.classify(iv * 2, iv), Health::Suspect);
        assert_eq!(p.classify(iv * 4 - 1, iv), Health::Suspect);
        assert_eq!(p.classify(iv * 4, iv), Health::Dead);
    }

    #[test]
    fn miss_threshold_zero_interval_never_suspects() {
        let p = MissThreshold::default();
        assert_eq!(p.classify(u64::MAX, 0), Health::Alive);
    }
}
