//! # legion-obs — causal tracing and trace analysis
//!
//! The paper's scalability argument (§5.2) is an argument about *where
//! requests go*; this crate makes that observable per request. A
//! workload-level operation opens a **trace**; every kernel message hop,
//! timer, and protocol annotation inside it becomes a **span event**
//! recorded into a bounded [`sink::TraceSink`]. The kernel in
//! `legion-net` is the only writer, so traces are exactly as
//! deterministic as the simulation itself: two runs with the same seed
//! produce byte-identical JSONL.
//!
//! | Module | Role |
//! |---|---|
//! | [`span`] | The span-event schema (what gets recorded) |
//! | [`sink`] | Bounded ring-buffer sink + deterministic id allocators |
//! | [`export`] | JSONL rendering of recorded events |
//! | [`analysis`] | Per-request hop reconstruction and latency breakdown |
//! | [`recorder`] | Always-on, allocation-free flight recorder (post-mortem tail) |
//! | [`profile`] | Per-endpoint × per-method cost attribution |
//! | [`slo`] | Windowed exact p50/p99 vs objectives, error budgets, burn events |

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod export;
pub mod profile;
pub mod recorder;
pub mod sink;
pub mod slo;
pub mod span;

pub use analysis::{HopBreakdown, RequestPath, TraceSummary};
pub use profile::{KernelProfiler, MethodStat, Profile, ProfileEntry};
pub use recorder::{FlightEvent, FlightRecorder};
pub use sink::TraceSink;
pub use slo::{SloConfig, SloObjective, SloReport, SloTracker};
pub use span::{SpanEvent, SpanEventKind};
