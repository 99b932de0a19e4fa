//! The measured region, common to all workloads.
//!
//! The region is a fixed amount of work: slices of [`SLICE_EVENTS`]
//! kernel events until every operation left in the clients' plans has
//! completed. Progress is polled only at slice boundaries, so the region
//! ends after the same event for a given seed on any host, and every
//! count and every simulated quantity taken at its end repeats exactly.
//! Wall time is the slices' own, each restated at the reference host
//! speed (see [`crate::yardstick`]); the time as measured is kept too.

use crate::gen::SplitMix64;
use crate::rig::{Counts, Rig, SLICE_EVENTS};
use crate::span::Spans;
use crate::stats::quantile_sorted;
use crate::yardstick::{self, Yardstick};
use std::time::Instant;

/// Everything observed over the measured region.
pub struct Measured {
    /// Client operations completed successfully.
    pub ops: u64,
    /// Client operations that failed.
    pub failed: u64,
    /// Client operations offered.
    pub offered: u64,
    pub events: u64,
    pub delivered: u64,
    /// Virtual ns covered by the region.
    pub vtime_ns: u64,
    /// Wall ns of the slices as measured.
    pub wall_ns: u64,
    /// The same at the reference host speed.
    pub ref_wall_ns: f64,
    /// Mean yardstick sample over the region, ns.
    pub yardstick_ns: f64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub queue_peak: usize,
    pub peak_rss_mb: f64,
    /// Virtual latencies of the completed ops, ascending.
    pub lat_sorted: Vec<u64>,
    pub counts: Counts,
    /// Hash of events, delivered, completed, failed and final virtual
    /// time: equal across every run of a seed, on any build that claims
    /// to have left the simulation alone.
    pub sim_digest: u64,
    /// `(events, wall ns)` per slice, in order.
    pub slices: Vec<(u64, u64)>,
}

impl Measured {
    pub fn quantile_ms(&self, q: f64) -> f64 {
        quantile_sorted(&self.lat_sorted, q) as f64 / 1e6
    }

    /// Completed operations per second of wall time at the reference
    /// host speed.
    pub fn ops_per_sec(&self) -> f64 {
        if self.ref_wall_ns > 0.0 {
            self.ops as f64 / (self.ref_wall_ns / 1e9)
        } else {
            0.0
        }
    }

    /// Completed operations per second of wall time as measured.
    pub fn raw_ops_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.ops as f64 / (self.wall_ns as f64 / 1e9)
        }
    }
}

/// `VmHWM` of this process in MiB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run the measured region of `rig` to the end of its clients' plans,
/// sampling `yardstick` after every slice.
pub fn run(rig: &mut dyn Rig, spans: &mut Spans, yardstick: &mut Yardstick) -> Measured {
    // Reserved before the region opens so the loop itself allocates
    // nothing: several times the slices the longest region needs.
    let mut slices: Vec<(u64, u64)> = Vec::with_capacity(65_536);
    let mut samples: Vec<u64> = Vec::with_capacity(65_536);
    let vtime0 = rig.kernel_ref().now().as_nanos();
    let root = spans.open("measure", None);
    let (a0, b0) = legion_core::allocs::counts();
    loop {
        let ts = Instant::now();
        let n = rig.kernel().run_until_quiescent(SLICE_EVENTS);
        let dt = ts.elapsed().as_nanos() as u64;
        slices.push((n, dt));
        spans.push_timed("measure.slice", root, ts, dt);
        samples.push(yardstick.sample());
        let completed = rig.log().borrow().lat_ns.len() as u64;
        rig.between_slices(completed);
        // Other endpoints (churn, heartbeats) would keep the kernel busy
        // forever, so the plans' end closes the region, not quiescence.
        let done = completed + rig.log().borrow().failed;
        if done >= rig.planned() || (n < SLICE_EVENTS && rig.kernel_ref().is_quiescent()) {
            break;
        }
    }
    let (a1, b1) = legion_core::allocs::counts();
    spans.close(root);

    let collect = spans.open("teardown.collect", None);
    let k = rig.kernel_ref();
    let stats = k.stats().clone();
    let mut m = Measured {
        ops: rig.log().borrow().lat_ns.len() as u64,
        failed: rig.log().borrow().failed,
        offered: rig.offered(),
        events: stats.events,
        delivered: stats.delivered,
        vtime_ns: k.now().as_nanos() - vtime0,
        wall_ns: slices.iter().map(|s| s.1).sum(),
        ref_wall_ns: yardstick::at_reference_speed(&slices, &samples),
        yardstick_ns: samples.iter().sum::<u64>() as f64 / samples.len().max(1) as f64,
        allocs: a1 - a0,
        alloc_bytes: b1 - b0,
        queue_peak: k.queue_peak_len(),
        // The yardstick's buffer has been resident since before set-up.
        peak_rss_mb: peak_rss_mb() - yardstick::MIB,
        lat_sorted: rig.log().borrow().lat_ns.clone(),
        counts: Counts::new(),
        sim_digest: 0,
        slices,
    };
    rig.collect(&mut m.counts);
    m.lat_sorted.sort_unstable();
    m.sim_digest = [m.events, m.delivered, m.ops, m.failed, m.vtime_ns]
        .into_iter()
        .fold(0x4C45_4749_4F4E, |h, v| SplitMix64::new(h ^ v).next_u64());
    spans.close(collect);
    m
}
