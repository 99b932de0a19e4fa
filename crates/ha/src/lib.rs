//! # legion-ha — heartbeat failure detection and object recovery
//!
//! The paper's core objects "create, locate, manage, and remove" every
//! other object, and the OPR/vault design (§3.1, Fig. 11) together with
//! binding invalidation (§4.1.4) exist precisely so objects survive the
//! loss of the host they happen to be active on. This crate supplies the
//! mechanism the substrate was missing: *noticing* that a host has died
//! and *healing* the objects it was running.
//!
//! Pieces, bottom-up:
//!
//! - [`policy`] — pluggable [`policy::SuspicionPolicy`] classifying
//!   heartbeat silence as Alive / Suspect / Dead.
//! - [`detector`] — [`detector::FailureDetector`], the bookkeeping a
//!   Magistrate keeps per monitored Host Object: last heartbeat seen,
//!   current health, and the transitions each sweep produces.
//! - [`backoff`] — [`backoff::Backoff`], a deterministic capped
//!   exponential retry schedule for client stubs whose in-flight
//!   requests die with a crashed host.
//! - [`recovery`] — [`recovery::RecoveryTracker`], timing and outcome
//!   accounting for the recovery driver (time-to-detect and
//!   time-to-recover histograms, recovered/lost/false-positive counts).
//! - [`protocol`] — the heartbeat wire method shared by Host Objects
//!   and Magistrates.
//!
//! Everything here is deterministic: detectors iterate `BTreeMap`s,
//! backoff has no jitter, and no wall-clock time is consulted — the same
//! seed replays bit-identically (the property E15 enforces).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backoff;
pub mod detector;
pub mod policy;
pub mod protocol;
pub mod recovery;

pub use backoff::Backoff;
pub use detector::{FailureDetector, Transition};
pub use policy::{Health, MissThreshold, SuspicionPolicy};
pub use recovery::RecoveryTracker;
