//! The four workloads and what they share.

pub mod bind_zipf;
pub mod chaos;
pub mod churn;
pub mod overload;

use crate::rig::{Counts, Rig, SetupTimes};
use crate::span::Spans;
use legion_net::sim::SimKernel;

/// How big a run is. Sizes are fixed operation counts calibrated at
/// `--seconds 10` on the reference host (see README) and scale linearly
/// with `--seconds`; `--smoke` divides everything by twenty and is not
/// comparable with anything.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub seconds: f64,
    pub smoke: bool,
}

impl Scale {
    /// Scale an operation count calibrated for a 10 s region.
    pub fn ops(&self, full: u64) -> u64 {
        let n = full as f64 * self.seconds / 10.0 / if self.smoke { 20.0 } else { 1.0 };
        (n as u64).max(1)
    }

    /// Scale a structural size that dominates set-up time (the LOID
    /// space): only `--smoke` shrinks it.
    pub fn size(&self, full: u64) -> u64 {
        if self.smoke {
            (full / 20).max(1)
        } else {
            full
        }
    }
}

pub type SetupFn = fn(u64, &Scale, &mut Spans) -> (Box<dyn Rig>, SetupTimes);

/// Builds a rig that re-executes a recorded run under journal
/// verification, for workloads that journal.
pub type ReplayFn = fn(u64, &Scale, Vec<u8>) -> Box<dyn Rig>;

pub struct Workload {
    pub name: &'static str,
    pub setup: SetupFn,
    pub replay: Option<ReplayFn>,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "bind_zipf_1m",
        setup: bind_zipf::setup,
        replay: None,
    },
    Workload {
        name: "lifecycle_churn",
        setup: churn::setup,
        replay: None,
    },
    Workload {
        name: "overload_open_bursts",
        setup: overload::setup,
        replay: None,
    },
    Workload {
        name: "chaos_journaled",
        setup: chaos::setup,
        replay: Some(chaos::replay),
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The naming layer's protocol counters.
pub const NAMING_COUNTERS: &[&str] = &[
    "client.cache_hit",
    "client.cache_miss",
    "ba.cache_hit",
    "ba.cache_miss",
    "client.stale_detected",
];

/// Copy the kernel's public protocol counters called `names` into `out`.
pub fn copy_counters(kernel: &SimKernel, names: &[&'static str], out: &mut Counts) {
    for name in names {
        out.insert(name, kernel.counters().get(name) as f64);
    }
}

/// [`crate::rig::Probe`] for the program's closed-loop client.
pub fn lookup_probe(c: &legion_sim::LookupClient) -> (u64, u64, u64) {
    (c.report.completed, c.report.latency.sum(), c.report.failed)
}
