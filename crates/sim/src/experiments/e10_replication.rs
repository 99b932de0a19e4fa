//! E10 — object replication via address semantics (paper §4.3, Figure 1).
//!
//! "A Legion object — an entity named by a single LOID — can be
//! implemented as a set of processes without changing the
//! application-level semantics for communicating with the object.
//! Replicating an object at the Legion level is a matter of creating an
//! Object Address with multiple physical addresses in its list, assigning
//! the address semantic appropriately, and binding the LOID of the object
//! to this Object Address."
//!
//! One LOID, `r` replica processes, four semantics, and `c` crashed
//! replicas. Measured: request success rate and messages per request.

use crate::report::{pct, Table};
use legion_core::address::{AddressSemantics, ObjectAddress};
use legion_core::env::InvocationEnv;
use legion_core::interface::Interface;
use legion_core::loid::Loid;
use legion_core::object::methods as obj_m;
use legion_net::message::{Body, Message};
use legion_net::sim::{Ctx, Endpoint, EndpointId, SimKernel};
use legion_net::topology::{Location, Topology};
use legion_net::FaultPlan;
use legion_runtime::object::ActiveObjectEndpoint;

/// A prober that sends `n` Pings through a replicated address and counts
/// distinct answered requests.
struct Prober {
    addr: ObjectAddress,
    target: Loid,
    to_send: u32,
    seq: u32,
    /// Requests that received ≥1 reply.
    pub answered: u32,
    /// Outstanding request tags.
    outstanding: std::collections::HashSet<u64>,
    calls: std::collections::HashMap<legion_net::message::CallId, u64>,
}

const TIMER_SEND: u64 = 1;

impl Endpoint for Prober {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(1_000, TIMER_SEND);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
        if self.seq >= self.to_send {
            return;
        }
        self.seq += 1;
        let req = self.seq as u64;
        self.outstanding.insert(req);
        let id = ctx.fresh_call_id();
        let mut msg = Message::call(
            id,
            self.target,
            obj_m::PING,
            vec![],
            InvocationEnv::anonymous(),
        );
        msg.reply_to = Some(ctx.self_element());
        // Fan out per semantics; remember which request each accepted copy
        // belongs to. All copies share the CallId.
        let report = ctx.send_address(&self.addr.clone(), msg);
        if report.accepted > 0 {
            self.calls.insert(id, req);
        }
        ctx.set_timer(10_000, TIMER_SEND);
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_>, msg: Message) {
        if let Body::Reply { in_reply_to, .. } = &msg.body {
            if let Some(req) = self.calls.get(in_reply_to) {
                if self.outstanding.remove(req) {
                    self.answered += 1;
                }
            }
        }
    }
}

/// One configuration's result.
#[derive(Debug, Clone)]
pub struct Row {
    /// Semantics under test.
    pub semantics: AddressSemantics,
    /// Replica count.
    pub replicas: usize,
    /// Crashed replicas.
    pub crashed: usize,
    /// Requests issued.
    pub requests: u32,
    /// Requests answered at least once.
    pub answered: u32,
    /// Messages accepted into the network per request.
    pub msgs_per_request: f64,
}

/// Run the sweep: semantics × crashed ∈ {0, 1, r-1}.
pub fn run(replicas: usize, requests: u32, seed: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    let semantics = [
        AddressSemantics::Single,
        AddressSemantics::SendToAll,
        AddressSemantics::PickRandom,
        AddressSemantics::KOfN(2),
        AddressSemantics::FirstReachable,
    ];
    for &sem in &semantics {
        for &crashed in &[0usize, 1, replicas - 1] {
            let mut kernel = SimKernel::new(
                Topology::fixed(1_000, 10_000, 1_000_000),
                FaultPlan::none(),
                seed,
            );
            let loid = Loid::instance(16, 1);
            // Figure 1: four processes at different physical addresses.
            let eps: Vec<EndpointId> = (0..replicas)
                .map(|i| {
                    kernel.add_endpoint(
                        Box::new(ActiveObjectEndpoint::new(loid, Interface::new())),
                        Location::new((i % 3) as u32, i as u32),
                        format!("replica{i}"),
                    )
                })
                .collect();
            for ep in eps.iter().take(crashed) {
                kernel.remove_endpoint(*ep);
            }
            let addr = ObjectAddress::replicated(eps.iter().map(|e| e.element()).collect(), sem);
            let prober = kernel.add_endpoint(
                Box::new(Prober {
                    addr,
                    target: loid,
                    to_send: requests,
                    seq: 0,
                    answered: 0,
                    outstanding: Default::default(),
                    calls: Default::default(),
                }),
                Location::new(0, 99),
                "prober",
            );
            kernel.run_until_quiescent(1_000_000);
            let answered = kernel.endpoint::<Prober>(prober).expect("prober").answered;
            rows.push(Row {
                semantics: sem,
                replicas,
                crashed,
                requests,
                answered,
                msgs_per_request: kernel.stats().sent as f64 / requests as f64,
            });
        }
    }
    rows
}

/// What `legion-exp e10` prints.
pub fn tables(quick: bool, seed: u64) -> Vec<Table> {
    let requests = if quick { 20 } else { 100 };
    vec![table(&run(4, requests, seed))]
}

/// Render the EXPERIMENTS.md table.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "E10: replication semantics under crashes (§4.3, Fig. 1)",
        &["semantics", "replicas", "crashed", "answered", "msgs/req"],
    );
    for r in rows {
        t.row(vec![
            format!("{:?}", r.semantics),
            r.replicas.to_string(),
            r.crashed.to_string(),
            pct(r.answered as u64, r.requests as u64),
            format!("{:.1}", r.msgs_per_request),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find(rows: &[Row], sem: AddressSemantics, crashed: usize) -> &Row {
        rows.iter()
            .find(|r| r.semantics == sem && r.crashed == crashed)
            .expect("row exists")
    }

    #[test]
    fn replication_survives_crashes_single_does_not() {
        let rows = run(4, 20, 91);
        // No crashes: everything answers.
        for sem in [
            AddressSemantics::Single,
            AddressSemantics::SendToAll,
            AddressSemantics::PickRandom,
            AddressSemantics::KOfN(2),
            AddressSemantics::FirstReachable,
        ] {
            assert_eq!(find(&rows, sem, 0).answered, 20, "{sem:?} with 0 crashed");
        }
        // First replica crashed: Single (pinned to the first element)
        // answers nothing; SendToAll and FirstReachable still answer all.
        assert_eq!(find(&rows, AddressSemantics::Single, 1).answered, 0);
        assert_eq!(find(&rows, AddressSemantics::SendToAll, 1).answered, 20);
        assert_eq!(
            find(&rows, AddressSemantics::FirstReachable, 1).answered,
            20
        );
        // Three of four crashed: SendToAll and FirstReachable still reach
        // the survivor.
        assert_eq!(find(&rows, AddressSemantics::SendToAll, 3).answered, 20);
        assert_eq!(
            find(&rows, AddressSemantics::FirstReachable, 3).answered,
            20
        );
        // SendToAll costs ~replicas× the messages of FirstReachable.
        let all = find(&rows, AddressSemantics::SendToAll, 0).msgs_per_request;
        let first = find(&rows, AddressSemantics::FirstReachable, 0).msgs_per_request;
        assert!(
            all > first * 2.0,
            "SendToAll {all} vs FirstReachable {first}"
        );
    }
}
