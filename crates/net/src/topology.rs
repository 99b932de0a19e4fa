//! Topology-aware latency model for the simulated wide area (DESIGN.md
//! substitution: the 1995 NII → a three-tier latency model).
//!
//! Legion targets "wide-area assemblies of workstations, supercomputers,
//! and parallel supercomputers" (§1) and assumes "most accesses will be
//! local ... within a department or university campus" (§5.2). The
//! simulator therefore distinguishes three tiers:
//!
//! * **same host** — inter-process, microseconds;
//! * **same jurisdiction** — campus LAN, tens to hundreds of microseconds;
//! * **cross jurisdiction** — WAN, tens of milliseconds.
//!
//! Each tier samples uniformly from `[base, base + jitter]` using the
//! kernel's deterministic RNG.

use legion_core::time::SimTime;
use rand::Rng;

/// Where an endpoint lives, for latency purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Location {
    /// Jurisdiction index.
    pub jurisdiction: u32,
    /// Host index within the jurisdiction.
    pub host: u32,
}

impl Location {
    /// Construct a location.
    pub fn new(jurisdiction: u32, host: u32) -> Self {
        Location { jurisdiction, host }
    }
}

/// One tier's latency: uniform in `[base_ns, base_ns + jitter_ns]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySpec {
    /// Minimum latency in simulated nanoseconds.
    pub base_ns: u64,
    /// Additional uniform jitter in simulated nanoseconds.
    pub jitter_ns: u64,
}

impl LatencySpec {
    /// A fixed latency with no jitter.
    pub const fn fixed(base_ns: u64) -> Self {
        LatencySpec {
            base_ns,
            jitter_ns: 0,
        }
    }

    /// Sample a latency.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        if self.jitter_ns == 0 {
            self.base_ns
        } else {
            self.base_ns + rng.gen_range(0..=self.jitter_ns)
        }
    }
}

/// The three-tier latency model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Two endpoints on the same host.
    pub same_host: LatencySpec,
    /// Same jurisdiction, different hosts (campus LAN).
    pub same_jurisdiction: LatencySpec,
    /// Different jurisdictions (WAN).
    pub cross_jurisdiction: LatencySpec,
}

impl Default for Topology {
    /// Mid-1990s campus/WAN numbers: 5 µs IPC, 100 µs ±50 µs LAN,
    /// 40 ms ±20 ms WAN.
    fn default() -> Self {
        Topology {
            same_host: LatencySpec::fixed(5_000),
            same_jurisdiction: LatencySpec {
                base_ns: 100_000,
                jitter_ns: 50_000,
            },
            cross_jurisdiction: LatencySpec {
                base_ns: 40_000_000,
                jitter_ns: 20_000_000,
            },
        }
    }
}

impl Topology {
    /// A zero-latency topology (pure message-count experiments).
    pub fn zero() -> Self {
        Topology {
            same_host: LatencySpec::fixed(0),
            same_jurisdiction: LatencySpec::fixed(0),
            cross_jurisdiction: LatencySpec::fixed(0),
        }
    }

    /// A fixed-latency topology useful for deterministic latency tests.
    pub fn fixed(same_host: u64, lan: u64, wan: u64) -> Self {
        Topology {
            same_host: LatencySpec::fixed(same_host),
            same_jurisdiction: LatencySpec::fixed(lan),
            cross_jurisdiction: LatencySpec::fixed(wan),
        }
    }

    /// Which tier connects `a` and `b`?
    pub fn tier(&self, a: Location, b: Location) -> LatencySpec {
        if a.jurisdiction != b.jurisdiction {
            self.cross_jurisdiction
        } else if a.host != b.host {
            self.same_jurisdiction
        } else {
            self.same_host
        }
    }

    /// Sample the latency between two locations.
    pub fn latency<R: Rng>(&self, a: Location, b: Location, rng: &mut R) -> SimTime {
        SimTime(self.tier(a, b).sample(rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn tiers_are_selected_correctly() {
        let t = Topology::fixed(1, 10, 100);
        let a = Location::new(0, 0);
        let same_host = Location::new(0, 0);
        let same_jur = Location::new(0, 1);
        let cross = Location::new(1, 0);
        assert_eq!(t.tier(a, same_host).base_ns, 1);
        assert_eq!(t.tier(a, same_jur).base_ns, 10);
        assert_eq!(t.tier(a, cross).base_ns, 100);
    }

    #[test]
    fn default_tiers_are_ordered() {
        let t = Topology::default();
        assert!(t.same_host.base_ns < t.same_jurisdiction.base_ns);
        assert!(
            t.same_jurisdiction.base_ns + t.same_jurisdiction.jitter_ns
                < t.cross_jurisdiction.base_ns
        );
    }

    #[test]
    fn jitter_samples_within_range() {
        let spec = LatencySpec {
            base_ns: 100,
            jitter_ns: 50,
        };
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = spec.sample(&mut rng);
            assert!((100..=150).contains(&v));
        }
    }

    #[test]
    fn fixed_spec_has_no_jitter() {
        let mut rng = SmallRng::seed_from_u64(7);
        assert_eq!(LatencySpec::fixed(42).sample(&mut rng), 42);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let t = Topology::default();
        let sample = |seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..100)
                .map(|i| {
                    t.latency(Location::new(0, 0), Location::new(i % 3, i), &mut rng)
                        .as_nanos()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(sample(1), sample(1));
        assert_ne!(sample(1), sample(2));
    }

    #[test]
    fn zero_topology_is_zero() {
        let t = Topology::zero();
        let mut rng = SmallRng::seed_from_u64(7);
        assert_eq!(
            t.latency(Location::new(0, 0), Location::new(5, 9), &mut rng),
            SimTime::ZERO
        );
    }
}
