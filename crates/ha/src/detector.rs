//! The per-Magistrate heartbeat failure detector.
//!
//! A Magistrate registers each Host Object in its jurisdiction, records
//! arriving heartbeats, and periodically *sweeps*: every monitored host
//! is re-classified by the [`SuspicionPolicy`], and each health change
//! is returned as a [`Transition`] for the recovery driver to act on.
//!
//! State lives in a `BTreeMap` keyed by LOID so sweeps visit hosts in a
//! deterministic order — transitions (and therefore every downstream
//! recovery event) replay bit-identically for a given seed.

use crate::policy::{Health, SuspicionPolicy};
use legion_core::loid::Loid;
use legion_core::time::SimTime;
use std::collections::BTreeMap;

/// One health change observed during a sweep (or a resurrection
/// observed when a heartbeat arrives from a non-Alive host).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// The monitored Host Object.
    pub host: Loid,
    /// Health before.
    pub from: Health,
    /// Health after.
    pub to: Health,
    /// Silence at classification time (ns since last heartbeat); zero
    /// for resurrections.
    pub silence_ns: u64,
}

#[derive(Debug, Clone, Copy)]
struct Monitored {
    last_seen: SimTime,
    health: Health,
}

/// Heartbeat bookkeeping for a set of monitored hosts.
pub struct FailureDetector {
    policy: Box<dyn SuspicionPolicy>,
    interval_ns: u64,
    hosts: BTreeMap<Loid, Monitored>,
}

impl FailureDetector {
    /// A detector expecting heartbeats every `interval_ns`, classified
    /// by `policy`.
    pub fn new(policy: Box<dyn SuspicionPolicy>, interval_ns: u64) -> Self {
        FailureDetector {
            policy,
            interval_ns,
            hosts: BTreeMap::new(),
        }
    }

    /// Start monitoring `host`, treating `now` as its first heartbeat.
    pub fn register(&mut self, host: Loid, now: SimTime) {
        self.hosts.entry(host).or_insert(Monitored {
            last_seen: now,
            health: Health::Alive,
        });
    }

    /// Stop monitoring `host` (e.g. after its objects were recovered).
    pub fn deregister(&mut self, host: &Loid) {
        self.hosts.remove(host);
    }

    /// Record a heartbeat. Returns a [`Transition`] if the host was not
    /// Alive (a resurrection — the false-positive path a conservative
    /// policy is meant to make rare). Heartbeats from unregistered
    /// hosts auto-register them.
    pub fn heartbeat(&mut self, host: Loid, now: SimTime) -> Option<Transition> {
        let m = self.hosts.entry(host).or_insert(Monitored {
            last_seen: now,
            health: Health::Alive,
        });
        m.last_seen = now;
        let from = m.health;
        m.health = Health::Alive;
        (from != Health::Alive).then_some(Transition {
            host,
            from,
            to: Health::Alive,
            silence_ns: 0,
        })
    }

    /// Re-classify every monitored host at `now`; return the health
    /// changes in LOID order.
    pub fn sweep(&mut self, now: SimTime) -> Vec<Transition> {
        let mut out = Vec::new();
        for (host, m) in self.hosts.iter_mut() {
            let silence_ns = now.0.saturating_sub(m.last_seen.0);
            let to = self.policy.classify(silence_ns, self.interval_ns);
            if to != m.health {
                out.push(Transition {
                    host: *host,
                    from: m.health,
                    to,
                    silence_ns,
                });
                m.health = to;
            }
        }
        out
    }

    /// Current health of `host`, if monitored.
    pub fn health(&self, host: &Loid) -> Option<Health> {
        self.hosts.get(host).map(|m| m.health)
    }

    /// Number of monitored hosts.
    pub fn monitored(&self) -> usize {
        self.hosts.len()
    }

    /// The heartbeat period this detector expects.
    pub fn interval_ns(&self) -> u64 {
        self.interval_ns
    }
}

impl std::fmt::Debug for FailureDetector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FailureDetector")
            .field("policy", &self.policy.name())
            .field("interval_ns", &self.interval_ns)
            .field("monitored", &self.hosts.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::MissThreshold;

    fn detector() -> FailureDetector {
        FailureDetector::new(Box::new(MissThreshold::default()), 1_000)
    }

    #[test]
    fn silent_host_degrades_then_dies() {
        let mut d = detector();
        let h = Loid::instance(3, 1);
        d.register(h, SimTime(0));
        assert!(d.sweep(SimTime(1_000)).is_empty());
        let t = d.sweep(SimTime(2_000));
        assert_eq!(t.len(), 1);
        assert_eq!((t[0].from, t[0].to), (Health::Alive, Health::Suspect));
        let t = d.sweep(SimTime(4_500));
        assert_eq!((t[0].from, t[0].to), (Health::Suspect, Health::Dead));
        assert_eq!(t[0].silence_ns, 4_500);
        // Already Dead: no further transitions.
        assert!(d.sweep(SimTime(9_000)).is_empty());
        assert_eq!(d.health(&h), Some(Health::Dead));
    }

    #[test]
    fn heartbeats_keep_host_alive_and_resurrect() {
        let mut d = detector();
        let h = Loid::instance(3, 2);
        d.register(h, SimTime(0));
        assert!(d.heartbeat(h, SimTime(1_000)).is_none());
        assert!(d.sweep(SimTime(2_500)).is_empty(), "1.5 intervals silent");
        // Let it die, then hear from it again.
        assert_eq!(d.sweep(SimTime(6_000))[0].to, Health::Dead);
        let res = d.heartbeat(h, SimTime(6_100)).expect("resurrection");
        assert_eq!((res.from, res.to), (Health::Dead, Health::Alive));
        assert_eq!(d.health(&h), Some(Health::Alive));
    }

    #[test]
    fn sweep_reports_transitions_in_loid_order() {
        let mut d = detector();
        let hs: Vec<Loid> = (1..=5).rev().map(|i| Loid::instance(3, i)).collect();
        for h in &hs {
            d.register(*h, SimTime(0));
        }
        let t = d.sweep(SimTime(10_000));
        assert_eq!(t.len(), 5);
        let mut sorted = t.clone();
        sorted.sort_by_key(|x| x.host);
        assert_eq!(t, sorted, "deterministic LOID order");
    }

    #[test]
    fn unknown_heartbeat_auto_registers() {
        let mut d = detector();
        let h = Loid::instance(3, 9);
        assert!(d.heartbeat(h, SimTime(5)).is_none());
        assert_eq!(d.monitored(), 1);
        d.deregister(&h);
        assert_eq!(d.monitored(), 0);
        assert_eq!(d.health(&h), None);
    }
}
