//! Steady-state hot-path measurement for the perf snapshot.
//!
//! Reproduces the E12 (§5.2) measurement discipline — build a full
//! Legion system, run a warm-up client wave to populate caches, reset
//! the kernel metrics, then drive a fresh measured wave — and reports
//! what `BENCH_CORE.json` tracks: messages sent, lookups completed,
//! allocator pressure (via [`crate::alloc_counter`]), and wall time.
//! Allocation counts are deterministic per seed and code version, which
//! makes `allocs_per_message` the one perf metric CI can gate tightly;
//! wall-clock throughput is machine-dependent and only sanity-checked.

use crate::alloc_counter;
use legion_journal::MemSink;
use legion_obs::slo::SloConfig;
use legion_sim::experiments::{e12_scalability, e17_scale, e18_overload};
use legion_sim::harness::{Journal, Watch, SNAP_EVERY};
use std::time::Instant;

/// The seed `legion-exp --quick` uses; keeps snapshot numbers comparable
/// with the committed experiment transcripts.
pub const SNAPSHOT_SEED: u64 = 20260707;

/// One steady-state measurement.
#[derive(Debug, Clone)]
pub struct SteadyStats {
    /// Jurisdictions in the measured system (hosts = 4x this).
    pub jurisdictions: u32,
    /// Messages accepted into the network during the measured wave.
    pub messages: u64,
    /// Client lookups completed during the measured wave.
    pub lookups: u64,
    /// Allocator calls during the measured wave (0 when the counting
    /// allocator is not registered).
    pub allocs: u64,
    /// Bytes requested from the allocator during the measured wave.
    pub alloc_bytes: u64,
    /// Wall-clock nanoseconds for the measured wave.
    pub wall_ns: u64,
}

impl SteadyStats {
    /// Allocator calls per accepted message.
    pub fn allocs_per_message(&self) -> f64 {
        self.allocs as f64 / self.messages.max(1) as f64
    }

    /// Allocated bytes per accepted message.
    pub fn bytes_per_message(&self) -> f64 {
        self.alloc_bytes as f64 / self.messages.max(1) as f64
    }

    /// Simulated messages processed per wall-clock second.
    pub fn messages_per_sec(&self) -> f64 {
        self.messages as f64 / (self.wall_ns.max(1) as f64 / 1e9)
    }
}

/// Run the E12 steady-state inner loop and measure it: warm wave,
/// `reset_metrics`, then a measured wave bracketed by allocator counts.
pub fn e12_steady_state(jurisdictions: u32, seed: u64) -> SteadyStats {
    e12_steady_state_under(jurisdictions, seed, Watch::off())
}

/// [`e12_steady_state`] with the always-on observability surfaces the
/// run report uses — kernel profiler and SLO tracker — enabled for the
/// whole run. The CI gate holds this within the committed
/// `allocs_per_message` budget (+5%): instrumentation must stay free on
/// the steady-state hot path.
pub fn e12_steady_state_instrumented(jurisdictions: u32, seed: u64) -> SteadyStats {
    let watch = Watch {
        instruments: Some(SloConfig::default()),
        ..Watch::off()
    };
    e12_steady_state_under(jurisdictions, seed, watch)
}

/// [`e12_steady_state`] with the event journal recording — every kernel
/// ingress appended to an in-memory sink, content-addressed snapshots
/// every [`SNAP_EVERY`] events — exactly as `--journal-out`
/// configures it. The CI gate holds the journaling tax on the hot path
/// to a fraction of an allocation per message (the writer reuses its
/// encode buffers; the sink growth is amortized).
pub fn e12_steady_state_journaled(jurisdictions: u32, seed: u64) -> SteadyStats {
    e12_steady_state_under(jurisdictions, seed, recording(SNAP_EVERY))
}

/// [`e12_steady_state_journaled`] with snapshots disabled: measures the
/// pure per-record journaling tax on the hot path (append + checksum +
/// sink), without the periodic snapshot's state materialization. This is
/// the number the tight half-an-allocation-per-message gate holds.
pub fn e12_steady_state_journal_only(jurisdictions: u32, seed: u64) -> SteadyStats {
    e12_steady_state_under(jurisdictions, seed, recording(0))
}

/// A watch that only records the journal, into memory.
fn recording(snap_every: u64) -> Watch {
    let sink = Box::new(MemSink::new());
    Watch::journal_only(Journal::Record { sink, snap_every })
}

/// The E17 campaign row, re-exported for the snapshot pipeline.
pub use legion_sim::experiments::e17_scale::Row as E17Row;

/// Run the E17 kernel-scale campaign: the full million-LOID point, or —
/// `quick` (the CI bench-smoke job) — the scaled-down 10k-LOID variant
/// that walks the same layers. Under this crate's counting allocator the
/// row's `allocs_per_message` is real (and deterministic per seed, so the
/// snapshot check gates it).
pub fn e17_scale(quick: bool, seed: u64) -> E17Row {
    if quick {
        e17_scale::quick_campaign(seed)
    } else {
        e17_scale::full_campaign(seed)
    }
}

/// One E18 overload measurement: the auto-scaled flash-crowd campaign,
/// bracketed by allocator counts.
#[derive(Debug, Clone)]
pub struct E18Stats {
    /// Operations offered across all phases (identifies the campaign
    /// size — quick vs full — so the gate only compares like with like).
    pub offered: u64,
    /// Operations that completed successfully.
    pub ok: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Clones the burn-driven policy landed.
    pub clones: u64,
    /// Messages delivered by the kernel.
    pub messages: u64,
    /// Allocator calls over build + campaign (deterministic per seed).
    pub allocs: u64,
}

impl E18Stats {
    /// Allocator calls per delivered message — the admission path, the
    /// service-timer defers, the retry machinery, and the policy loop
    /// all live inside this number, so the +5% snapshot gate holds the
    /// whole overload path to its committed allocation profile.
    pub fn allocs_per_message(&self) -> f64 {
        self.allocs as f64 / self.messages.max(1) as f64
    }
}

/// Run the E18 flash-crowd campaign with the auto-scaler in the loop:
/// the full-scale point, or — `quick` (the CI bench-smoke job) — the
/// scaled-down variant that walks the same layers (admission shed, burn
/// events, `Derive()` clones, the replica front door).
pub fn e18_overload(quick: bool, seed: u64) -> E18Stats {
    let (a0, _) = alloc_counter::counts();
    let (row, _) = e18_overload::flash_campaign(quick, seed, true, Watch::off());
    let (a1, _) = alloc_counter::counts();
    assert!(
        row.violations.is_empty(),
        "E18 invariants violated under measurement: {:?}",
        row.violations
    );
    let total: u64 = row.phases.iter().map(|p| p.offered).sum();
    let ok: u64 = row.phases.iter().map(|p| p.ok).sum();
    E18Stats {
        offered: total,
        ok,
        shed: row.requests_shed,
        clones: row.clones,
        messages: row.messages,
        allocs: a1.saturating_sub(a0),
    }
}

/// The E12 steady state under `watch`, its measured wave bracketed by
/// allocator counts and the wall clock.
fn e12_steady_state_under(jurisdictions: u32, seed: u64, watch: Watch) -> SteadyStats {
    let mut marks = Vec::with_capacity(2);
    let mark = || marks.push((alloc_counter::counts(), Instant::now()));
    let (row, run) = e12_scalability::steady_state(jurisdictions, seed, watch, mark);
    let ((a0, b0), t0) = marks[0];
    let ((a1, b1), t1) = marks[1];
    let stats = run.expect("in-memory sink cannot fail").metrics.stats;
    SteadyStats {
        jurisdictions,
        messages: stats.sent,
        lookups: row.lookups,
        allocs: a1.saturating_sub(a0),
        alloc_bytes: b1.saturating_sub(b0),
        wall_ns: (t1 - t0).as_nanos() as u64,
    }
}
