//! # legion-runtime — Magistrates, Host Objects, classes, lifecycle
//!
//! The live half of the reproduction: every §2.1.3 core object runs as a
//! kernel endpoint, and the paper's mechanisms — object creation (§4.2),
//! activation/deactivation (§3.1), migration through storage (Fig. 11),
//! the binding consultation chain (Fig. 17) — execute as real message
//! protocols.
//!
//! * [`protocol`] — wire method names and the activation spec;
//! * [`object`] — the generic Active object endpoint (object-mandatory
//!   functions behind a `MayI` gate);
//! * [`host`] — Host Objects (§2.3, §3.9);
//! * [`magistrate`] — Magistrates (§3.8) over `legion-persist` storage,
//!   placing each activation on the least-loaded live host. A §2.2
//!   Jurisdiction *is* a Magistrate with its `JurisdictionStorage` and
//!   the hosts registered with it; splitting one is a `Move` of objects
//!   to a new Magistrate;
//! * [`class_endpoint`] — class objects and the LegionClass metaclass; a
//!   class places objects only on the Magistrates its `ClassConfig`
//!   names (its Candidate Magistrate List, §3.7);
//! * [`sched_agent`] — Scheduling Agents, the §3.8 scheduling hook: a
//!   suggested host the Magistrate's `Activate(loid, host)` honours;
//! * [`bootstrap`] — the §4.2.1 once-only core bring-up.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod autoscale;
pub mod bootstrap;
pub mod class_endpoint;
pub mod context_endpoint;
pub mod host;
pub mod lifecycle;
pub mod magistrate;
pub mod object;
pub mod protocol;
pub mod sched_agent;

pub use bootstrap::CoreSystem;
pub use class_endpoint::{ClassConfig, ClassEndpoint, LegionClassEndpoint};
pub use context_endpoint::ContextEndpoint;
pub use host::{HostConfig, HostObjectEndpoint, ObjectFactory};
pub use lifecycle::Life;
pub use magistrate::{MagistrateConfig, MagistrateEndpoint};
pub use object::ActiveObjectEndpoint;
pub use protocol::ActivationSpec;
pub use sched_agent::SchedulingAgentEndpoint;
