//! # legion-sim — whole-system simulation, workloads, and experiments
//!
//! Assembles every other crate into a deterministic Legion-in-a-box
//! ([`system::LegionSystem`]), generates the paper's assumed workloads
//! ([`workload`]: locality + Zipf popularity), and drives one experiment
//! per paper figure/claim ([`experiments`], E1–E18 in DESIGN.md §6).
//! There is one runtime: every kernel-driving experiment steps the
//! discrete-event kernel under one [`harness`] — open, measure, close —
//! so tracing, the profiler, SLO verdicts, the flight recorder and the
//! journal attach to any of them the same way. The object model's own
//! rules are unit-tested here too, on the live class endpoints a
//! `LegionSystem` builds: its operations (`model`), its relations
//! (`relations`) and multiple inheritance (`inherit`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod experiments;
pub mod harness;
pub mod judge;
pub mod report;
pub mod run_report;
pub mod system;
pub mod workload;

pub use report::Table;
pub use system::{LegionSystem, SystemConfig};
pub use workload::{ClientReport, LookupClient, WorkloadConfig};

#[cfg(test)]
mod inherit;
#[cfg(test)]
mod model;
#[cfg(test)]
mod relations;
