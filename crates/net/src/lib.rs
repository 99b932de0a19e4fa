//! # legion-net — the simulated wide-area substrate
//!
//! The paper evaluates nothing on real hardware; its claims are about
//! message counts, cache behaviour and component load in a wide-area
//! system of "millions of sites and trillions of objects". This crate
//! provides the substrate those claims can be measured on:
//!
//! * a deterministic discrete-event kernel ([`sim::SimKernel`]) where each
//!   Active Legion object is an endpoint,
//! * method-invocation messages carrying the §2.4 security triple
//!   ([`message`]),
//! * a three-tier latency topology (same host / campus LAN / WAN,
//!   [`topology`]),
//! * fault injection — silent drops, partitions, detectable crashes
//!   ([`faults`]),
//! * traffic accounting per endpoint and per named protocol event
//!   ([`metrics`]).
//!
//! Design rule inherited from the paper: sends to a dead or unknown
//! address fail *detectably* (the §4.1.4 stale-binding signal); random
//! network loss is *silent*.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod dispatch;
pub mod equeue;
pub mod faults;
pub mod message;
pub mod metrics;
pub mod pool;
pub mod sim;
pub mod topology;
mod watch;

pub use faults::FaultPlan;
pub use message::{Body, CallId, Message};
pub use metrics::{Counters, Histogram};
pub use sim::{Ctx, Endpoint, EndpointId, KernelStats, SendReport, SimKernel};
pub use topology::{LatencySpec, Location, Topology};
