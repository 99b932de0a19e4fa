//! Seeded fault-schedule generation.
//!
//! A [`ChaosSchedule`] is the complete adversarial input of one chaos
//! run: ambient fault probabilities, timed delay spikes and partition
//! windows, and endpoint crash events. It is produced from a single
//! `u64` seed ([`ChaosSchedule::generate`]) and converts losslessly into
//! a [`FaultPlan`] for the kernel ([`ChaosSchedule::fault_plan`]), so a
//! printed `(seed, schedule)` pair is a bit-exact reproducer.

use legion_net::faults::{DelaySpike, FaultPlan, PartitionWindow};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// A scheduled endpoint crash: at virtual time `at_ns`, the target kills
/// the host at index `host` (targets map indices onto their own host
/// lists, modulo length).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashEvent {
    /// Virtual time of the kill.
    pub at_ns: u64,
    /// Index into the target's crashable-host list.
    pub host: u32,
}

/// Envelope the generator draws schedules from.
#[derive(Debug, Clone)]
pub struct ScheduleBounds {
    /// Jurisdictions faults may reference (spike/flap endpoints).
    pub jurisdictions: u32,
    /// Crashable-host indices the generator may pick from.
    pub hosts: u32,
    /// Virtual-time horizon: every window and crash lands inside it.
    pub horizon_ns: u64,
    /// Ceiling for the ambient drop probability.
    pub max_drop: f64,
    /// Ceiling for the duplication probability.
    pub max_duplicate: f64,
    /// Ceiling for the reorder probability.
    pub max_reorder: f64,
    /// Ceiling for the reorder jitter window.
    pub max_jitter_ns: u64,
    /// Most delay spikes per schedule.
    pub max_spikes: usize,
    /// Most flapping-partition windows per schedule.
    pub max_flaps: usize,
    /// Most endpoint crashes per schedule.
    pub max_crashes: usize,
}

impl Default for ScheduleBounds {
    fn default() -> Self {
        ScheduleBounds {
            jurisdictions: 3,
            hosts: 4,
            horizon_ns: 2_000_000_000, // 2 virtual seconds
            max_drop: 0.05,
            max_duplicate: 0.10,
            max_reorder: 0.20,
            max_jitter_ns: 5_000_000, // 5 ms
            max_spikes: 2,
            max_flaps: 2,
            max_crashes: 2,
        }
    }
}

/// One run's complete adversarial input.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSchedule {
    /// The seed this schedule was generated from; also seeds the
    /// per-message fault verdicts inside the run.
    pub seed: u64,
    /// Ambient message-drop probability.
    pub drop_probability: f64,
    /// Ambient duplication probability.
    pub duplicate_probability: f64,
    /// Ambient reorder probability.
    pub reorder_probability: f64,
    /// Reorder perturbation window.
    pub reorder_jitter_ns: u64,
    /// Transient latency-multiplier windows.
    pub spikes: Vec<DelaySpike>,
    /// Scheduled partition/heal windows.
    pub flaps: Vec<PartitionWindow>,
    /// Scheduled endpoint crashes, sorted by time.
    pub crashes: Vec<CrashEvent>,
}

impl ChaosSchedule {
    /// A schedule with no faults at all (the shrinker's fixpoint floor).
    pub fn quiet(seed: u64) -> Self {
        ChaosSchedule {
            seed,
            drop_probability: 0.0,
            duplicate_probability: 0.0,
            reorder_probability: 0.0,
            reorder_jitter_ns: 0,
            spikes: Vec::new(),
            flaps: Vec::new(),
            crashes: Vec::new(),
        }
    }

    /// Draw a schedule from `bounds`, deterministically per `seed`.
    pub fn generate(seed: u64, bounds: &ScheduleBounds) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let j = bounds.jurisdictions.max(2);
        let horizon = bounds.horizon_ns.max(2);
        // Each fault family is present in roughly half the schedules, so
        // campaigns cover both isolated faults and their combinations.
        let drop_probability = if rng.gen_bool(0.5) {
            rng.gen::<f64>() * bounds.max_drop
        } else {
            0.0
        };
        let duplicate_probability = if rng.gen_bool(0.5) {
            rng.gen::<f64>() * bounds.max_duplicate
        } else {
            0.0
        };
        let (reorder_probability, reorder_jitter_ns) = if rng.gen_bool(0.5) {
            (
                rng.gen::<f64>() * bounds.max_reorder,
                rng.gen_range(1..=bounds.max_jitter_ns.max(1)),
            )
        } else {
            (0.0, 0)
        };
        let mut spikes = Vec::new();
        for _ in 0..rng.gen_range(0..=bounds.max_spikes) {
            let from_ns = rng.gen_range(0..horizon / 2);
            let until_ns = rng.gen_range(from_ns + 1..=horizon);
            spikes.push(DelaySpike {
                jurisdiction: if rng.gen_bool(0.5) {
                    Some(rng.gen_range(0..j))
                } else {
                    None
                },
                from_ns,
                until_ns,
                multiplier: rng.gen_range(2..=10),
            });
        }
        let mut flaps = Vec::new();
        for _ in 0..rng.gen_range(0..=bounds.max_flaps) {
            let a = rng.gen_range(0..j);
            let b = (a + rng.gen_range(1..j)) % j;
            let from_ns = rng.gen_range(0..horizon / 2);
            // Flaps stay short relative to the horizon so the system has
            // room to heal and quiesce.
            let until_ns = (from_ns + rng.gen_range(1..=horizon / 4)).min(horizon);
            flaps.push(PartitionWindow {
                a,
                b,
                from_ns,
                until_ns,
            });
        }
        let mut crashes = Vec::new();
        if bounds.hosts > 0 {
            for _ in 0..rng.gen_range(0..=bounds.max_crashes) {
                crashes.push(CrashEvent {
                    // Crashes land in the first half so recovery fits
                    // inside the horizon.
                    at_ns: rng.gen_range(1..horizon / 2),
                    host: rng.gen_range(0..bounds.hosts),
                });
            }
        }
        crashes.sort_by_key(|c| (c.at_ns, c.host));
        ChaosSchedule {
            seed,
            drop_probability,
            duplicate_probability,
            reorder_probability,
            reorder_jitter_ns,
            spikes,
            flaps,
            crashes,
        }
    }

    /// The kernel-facing fault plan this schedule prescribes.
    pub fn fault_plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::seeded(self.seed);
        plan.set_drop_probability(self.drop_probability);
        plan.set_duplicate_probability(self.duplicate_probability);
        plan.set_reorder(self.reorder_probability, self.reorder_jitter_ns);
        for s in &self.spikes {
            plan.add_delay_spike(s.clone());
        }
        for f in &self.flaps {
            plan.add_flap(f.clone());
        }
        plan
    }

    /// Does this schedule inject any fault at all?
    pub fn is_quiet(&self) -> bool {
        self.drop_probability == 0.0
            && self.duplicate_probability == 0.0
            && self.reorder_probability == 0.0
            && self.spikes.is_empty()
            && self.flaps.is_empty()
            && self.crashes.is_empty()
    }

    /// How many removable parts the shrinker can attack.
    pub fn weight(&self) -> usize {
        self.spikes.len()
            + self.flaps.len()
            + self.crashes.len()
            + (self.drop_probability > 0.0) as usize
            + (self.duplicate_probability > 0.0) as usize
            + (self.reorder_probability > 0.0) as usize
    }
}

impl fmt::Display for ChaosSchedule {
    /// The schedule grammar printed for reproducers:
    /// `seed=S drop=P dup=P reorder=P/Jns spikes=[jK tA..B xM] flaps=[a~b tA..B] crashes=[hK@Tns]`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed={} drop={:.4} dup={:.4} reorder={:.4}/{}ns",
            self.seed,
            self.drop_probability,
            self.duplicate_probability,
            self.reorder_probability,
            self.reorder_jitter_ns
        )?;
        write!(f, " spikes=[")?;
        for (i, s) in self.spikes.iter().enumerate() {
            let sep = if i > 0 { " " } else { "" };
            match s.jurisdiction {
                Some(j) => write!(
                    f,
                    "{sep}j{j} t{}..{} x{}",
                    s.from_ns, s.until_ns, s.multiplier
                )?,
                None => write!(
                    f,
                    "{sep}all t{}..{} x{}",
                    s.from_ns, s.until_ns, s.multiplier
                )?,
            }
        }
        write!(f, "] flaps=[")?;
        for (i, w) in self.flaps.iter().enumerate() {
            let sep = if i > 0 { " " } else { "" };
            write!(f, "{sep}{}~{} t{}..{}", w.a, w.b, w.from_ns, w.until_ns)?;
        }
        write!(f, "] crashes=[")?;
        for (i, c) in self.crashes.iter().enumerate() {
            let sep = if i > 0 { " " } else { "" };
            write!(f, "{sep}h{}@{}ns", c.host, c.at_ns)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let bounds = ScheduleBounds::default();
        for seed in 0..50 {
            assert_eq!(
                ChaosSchedule::generate(seed, &bounds),
                ChaosSchedule::generate(seed, &bounds)
            );
        }
    }

    #[test]
    fn seeds_disagree() {
        let bounds = ScheduleBounds::default();
        let distinct = (0..20)
            .map(|s| format!("{}", ChaosSchedule::generate(s, &bounds)))
            .collect::<std::collections::BTreeSet<_>>();
        assert!(distinct.len() > 15, "schedules barely vary across seeds");
    }

    #[test]
    fn generated_parts_respect_bounds() {
        let bounds = ScheduleBounds::default();
        for seed in 0..200 {
            let s = ChaosSchedule::generate(seed, &bounds);
            assert!(s.drop_probability <= bounds.max_drop);
            assert!(s.duplicate_probability <= bounds.max_duplicate);
            assert!(s.reorder_probability <= bounds.max_reorder);
            assert!(s.spikes.len() <= bounds.max_spikes);
            assert!(s.flaps.len() <= bounds.max_flaps);
            assert!(s.crashes.len() <= bounds.max_crashes);
            for spike in &s.spikes {
                assert!(spike.from_ns < spike.until_ns);
                assert!(spike.multiplier >= 2);
            }
            for w in &s.flaps {
                assert!(w.a != w.b, "flap must name two jurisdictions");
                assert!(w.from_ns < w.until_ns);
            }
            for c in &s.crashes {
                assert!(c.at_ns < bounds.horizon_ns);
                assert!(c.host < bounds.hosts);
            }
            // Crash order is canonical.
            let mut sorted = s.crashes.clone();
            sorted.sort_by_key(|c| (c.at_ns, c.host));
            assert_eq!(sorted, s.crashes);
        }
    }

    #[test]
    fn fault_plan_round_trips_the_knobs() {
        let s = ChaosSchedule {
            seed: 7,
            drop_probability: 0.01,
            duplicate_probability: 0.02,
            reorder_probability: 0.1,
            reorder_jitter_ns: 1000,
            spikes: vec![DelaySpike {
                jurisdiction: Some(1),
                from_ns: 10,
                until_ns: 20,
                multiplier: 4,
            }],
            flaps: vec![PartitionWindow {
                a: 0,
                b: 2,
                from_ns: 5,
                until_ns: 9,
            }],
            crashes: vec![],
        };
        let plan = s.fault_plan();
        assert_eq!(plan.drop_probability(), 0.01);
        assert_eq!(plan.duplicate_probability(), 0.02);
        assert_eq!(plan.reorder(), (0.1, 1000));
        assert_eq!(plan.delay_spikes().len(), 1);
        assert_eq!(plan.flaps().len(), 1);
    }

    #[test]
    fn quiet_schedule_is_quiet() {
        let q = ChaosSchedule::quiet(3);
        assert!(q.is_quiet());
        assert_eq!(q.weight(), 0);
        let plan = q.fault_plan();
        assert_eq!(plan.duplicate_probability(), 0.0);
        assert!(plan.delay_spikes().is_empty() && plan.flaps().is_empty());
    }

    #[test]
    fn display_prints_the_grammar() {
        let mut s = ChaosSchedule::quiet(42);
        s.duplicate_probability = 0.05;
        s.crashes.push(CrashEvent { at_ns: 99, host: 1 });
        let text = format!("{s}");
        assert!(text.contains("seed=42"), "{text}");
        assert!(text.contains("dup=0.0500"), "{text}");
        assert!(text.contains("h1@99ns"), "{text}");
    }
}
