//! # legion-security — the §2.4 `MayI()` policies
//!
//! Legion "does not attempt to guarantee security to its users"; it
//! provides *mechanism* — `MayI()`/`Iam()`, the ⟨Responsible Agent,
//! Security Agent, Calling Agent⟩ environment, and user-replaceable
//! policies — and leaves *policy* to the objects themselves ("do no harm;
//! caveat emptor; small is beautiful").
//!
//! * [`mayi`] — pluggable `MayI()` policies, from the empty default
//!   (`AllowAll`) through ACLs and delegated-authority checks to
//!   conjunctions. Every live Magistrate, class, context and object
//!   endpoint gates its member functions through one.
//!
//! The invocation-environment triple itself lives in
//! [`legion_core::env::InvocationEnv`] since every message carries it.
//! The paper's DOE story (§2.1.3) needs no trust registry of its own: a
//! DOE Magistrate's `MayI` refuses everyone but the DOE, its hosts obey
//! only it, and a DOE class names only that Magistrate among its
//! candidates (`legion-runtime`'s `ClassConfig::magistrates`) — see
//! `examples/doe_trust.rs`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod mayi;

pub use mayi::{AllOf, AllowAll, Decision, MayIPolicy, MethodAcl, ResponsibleAgentSet};
