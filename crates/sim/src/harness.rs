//! The run harness: the whole life of an observed run, in three steps.
//!
//! Every kernel-driving experiment body takes a [`Watch`] — a plain value
//! saying what to attach — and walks one [`Session`] through a fixed
//! sequence, each step with one legal successor:
//!
//! | step | when the body calls it | what it may switch on |
//! |------|------------------------|------------------------|
//! | [`Watch::open`] | once the system is built, before the first event the run should account for | the journal session (record or verify), the profiler, the SLO tracker |
//! | [`Session::measure`] | in place of `kernel.reset_metrics()`, right before the measured phase | resets metrics, then the span sink and windowed counters |
//! | [`Session::close`] | after the measured phase went quiescent | nothing — finishes the journal and collects the [`Observed`] |
//!
//! A run whose own control loop reads the SLO tracker (E18's auto-scaler
//! polls its burn log) puts its objectives in with [`Session::track_slo`]
//! right after `measure`, whatever the watch; the report then judges
//! against those.
//!
//! Sweeps pass [`Watch::off`], for which all three steps reduce to the
//! bare `reset_metrics()` they replace; `legion-exp`'s export flags pass
//! [`Watch::all`]. This file is the only place under `crates/sim/src` and
//! `crates/bench/src` that switches a kernel watcher on or closes a
//! journal (`tools/lint_seam.sh` checks), so the next instrument is wired
//! here once and every experiment with an observed point gets it.
//!
//! None of the watchers perturbs virtual time: an observed run measures
//! the same system its experiment's table reports on.

use legion_journal::{Divergence, JournalError, JournalSink, JournalSummary, ReplayStart};
use legion_net::metrics::MetricsSnapshot;
use legion_net::sim::{FlightEvent, SimKernel};
use legion_obs::profile::Profile;
use legion_obs::slo::{SloConfig, SloObjective, SloReport};
use legion_obs::span::SpanEvent;

/// Span-sink capacity for observed runs — large enough that no observed
/// point evicts (eviction would silently truncate the oldest traces).
pub const TRACE_CAPACITY: usize = 1 << 20;

/// Window width for time-bucketed counters and SLO verdicts (1 virtual ms).
pub const WINDOW_NS: u64 = 1_000_000;

/// Snapshot cadence (in processed events) for `--journal-out` runs and the
/// journaled allocation gate: frequent enough that `--from-snapshot` skips
/// most of a warm-up, coarse enough that snapshot overhead stays invisible
/// next to the workload.
pub const SNAP_EVERY: u64 = 256;

/// Flight-recorder events an [`Observed`] keeps (the most recent N).
pub const FLIGHT_TAIL: usize = 32;

/// How a run uses the kernel's event journal.
pub enum Journal {
    /// No journal session.
    Off,
    /// Record every kernel ingress into `sink`, snapshotting every
    /// `snap_every` processed events (0 = never).
    Record {
        /// Where the journal bytes go.
        sink: Box<dyn JournalSink>,
        /// Snapshot cadence in processed events.
        snap_every: u64,
    },
    /// Verified re-execution: every kernel ingress is compared against the
    /// reference journal, record for record.
    Verify {
        /// The reference journal bytes.
        journal: Vec<u8>,
        /// Where verification begins (origin or a snapshot waypoint).
        start: ReplayStart,
    },
}

/// What to attach to a run.
pub struct Watch {
    /// The journal session.
    pub journal: Journal,
    /// Profiler plus SLO tracker with these objectives, for the whole run.
    pub instruments: Option<SloConfig>,
    /// Span sink plus windowed counters, for the measured phase.
    pub trace: bool,
}

impl Watch {
    /// Nothing attached: what every sweep runs with.
    pub fn off() -> Self {
        Watch {
            journal: Journal::Off,
            instruments: None,
            trace: false,
        }
    }

    /// Only the journal session: what a record/replay determinism check
    /// or a journaling-cost measurement runs with.
    pub fn journal_only(journal: Journal) -> Self {
        Watch {
            journal,
            ..Watch::off()
        }
    }

    /// Everything attached around `journal`: profiler, SLO tracker, span
    /// sink and windowed counters. The objectives are calibrated to the
    /// simulated WAN, where a hop costs tens of virtual milliseconds (the
    /// library default of 2 ms median would mark every window violating
    /// and the verdict table would say nothing): median within 55 ms, tail
    /// within 120 ms, 10% of windows allowed to violate.
    pub fn all(journal: Journal) -> Self {
        Watch {
            journal,
            instruments: Some(SloConfig {
                window_ns: WINDOW_NS,
                objective: SloObjective {
                    p50_ns: 55_000_000,
                    p99_ns: 120_000_000,
                    error_budget: 0.1,
                    burn_threshold: 2.0,
                },
            }),
            trace: true,
        }
    }

    /// Step one: begin the journal session and the whole-run instruments.
    /// An unparseable reference journal does not stop the run; the session
    /// carries the error to [`Session::close`].
    pub fn open(self, kernel: &mut SimKernel) -> Session {
        let failed = match self.journal {
            Journal::Off => None,
            Journal::Record { sink, snap_every } => {
                kernel.enable_journal_record(sink, snap_every);
                None
            }
            Journal::Verify { journal, start } => {
                kernel.enable_journal_verify(journal, start).err()
            }
        };
        if let Some(slo) = self.instruments {
            // Before any warm-up: the profiler's (endpoint, method) map
            // keys fill then, so a measured wave only refills them in place.
            kernel.enable_profiling();
            kernel.enable_slo(slo);
        }
        Session {
            trace: self.trace,
            failed,
        }
    }
}

/// A run between [`Watch::open`] and [`Session::close`].
pub struct Session {
    trace: bool,
    failed: Option<JournalError>,
}

impl Session {
    /// Step two: forget the build and warm-up (`reset_metrics`), then
    /// start what watches only the measured phase.
    pub fn measure(&self, kernel: &mut SimKernel) {
        kernel.reset_metrics();
        if self.trace {
            kernel.enable_tracing(TRACE_CAPACITY);
            kernel.enable_windows(WINDOW_NS);
        }
    }

    /// Track SLO objectives `cfg` from here on, in place of whatever
    /// tracker the watch switched on, even under [`Watch::off`]: for a
    /// run that steers by the tracker's burn log. Call it right after
    /// [`measure`](Self::measure).
    pub fn track_slo(&self, kernel: &mut SimKernel, cfg: SloConfig) {
        kernel.enable_slo(cfg);
    }

    /// Step three: finish the journal and collect what was observed. A
    /// diverged replay dumps the flight-recorder tail to stderr first.
    ///
    /// # Errors
    ///
    /// [`JournalError`] from an unparseable reference journal or a
    /// failing sink.
    pub fn close(self, kernel: &mut SimKernel) -> Closed {
        if let Some(e) = self.failed {
            return Err(e);
        }
        let spans = kernel.drain_trace();
        let journal = if kernel.journal_enabled() {
            Some(kernel.finish_journal()?)
        } else {
            None
        };
        if let Some((_, Some(_))) = &journal {
            eprintln!("{}", kernel.flight_dump("replay diverged", 64));
        }
        Ok(Observed {
            jurisdictions: kernel
                .all_meta()
                .map(|(_, m)| m.location.jurisdiction + 1)
                .max()
                .unwrap_or(0),
            spans,
            metrics: kernel.metrics_snapshot(),
            profile: kernel.profile(),
            slo: kernel.slo_report().unwrap_or(SloReport {
                window_ns: 0,
                endpoints: Vec::new(),
            }),
            flight_tail: kernel.flight().tail(FLIGHT_TAIL),
            flight_total: kernel.flight().total(),
            journal,
        })
    }
}

/// What [`Session::close`] returns, and so what every observed point does.
pub type Closed = Result<Observed, JournalError>;

/// Everything a closed session yields. Empty where the [`Watch`] left an
/// instrument off.
#[derive(Debug, Clone)]
pub struct Observed {
    /// Jurisdictions the kernel hosts endpoints in.
    pub jurisdictions: u32,
    /// Every span event of the measured phase, in recording order.
    pub spans: Vec<SpanEvent>,
    /// The structured metrics snapshot at quiescence.
    pub metrics: MetricsSnapshot,
    /// Per-endpoint × per-method attribution of the measured phase.
    pub profile: Profile,
    /// Windowed p50/p99 verdicts against the watch's objectives.
    pub slo: SloReport,
    /// The flight recorder's most recent events.
    pub flight_tail: Vec<FlightEvent>,
    /// Total events the recorder saw (tail + overwritten).
    pub flight_total: u64,
    /// The journal session's summary and — verifying — its first
    /// divergence; `None` without a session.
    pub journal: Option<(JournalSummary, Option<Divergence>)>,
}

impl Observed {
    /// The first divergence of a verified replay, if it found one.
    pub fn divergence(&self) -> Option<&Divergence> {
        self.journal.as_ref().and_then(|(_, d)| d.as_ref())
    }
}
