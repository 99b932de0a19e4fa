//! E13 — security-hook overhead (paper §2.4).
//!
//! "Legion provides a model and mechanism that make \[security\] feasible,
//! conceptually simple, and inexpensive in the default case." The default
//! (`MayI` empty) must cost ~nothing; real policies cost what they cost.
//! Measured: wall-clock per `MayI` decision for a policy ladder, plus a
//! live-kernel run counting allowed/denied calls under an ACL.

use crate::report::{pct, Table};
use legion_core::env::InvocationEnv;
use legion_core::interface::Interface;
use legion_core::loid::Loid;
use legion_core::object::methods as obj_m;
use legion_net::message::{Body, Message};
use legion_net::sim::{Ctx, Endpoint, SimKernel};
use legion_net::topology::{Location, Topology};
use legion_net::FaultPlan;
use legion_runtime::object::ActiveObjectEndpoint;
use legion_security::mayi::{AllOf, AllowAll, MayIPolicy, MethodAcl, ResponsibleAgentSet};
use std::time::Instant;

/// One policy's cost.
#[derive(Debug, Clone)]
pub struct Row {
    /// Policy name.
    pub policy: String,
    /// Decisions made.
    pub ops: u64,
    /// Wall-clock ns per decision.
    pub ns_per_decision: f64,
    /// Fraction of decisions that allowed.
    pub allowed: u64,
}

/// Micro-measure a policy ladder.
pub fn run_micro(n: u64) -> Vec<Row> {
    let alice = Loid::instance(20, 1);
    let mallory = Loid::instance(21, 1);
    let mut acl = MethodAcl::deny_by_default();
    acl.grant(obj_m::PING, alice);
    acl.grant_class(obj_m::SAVE_STATE, Loid::class_object(20));
    let composite = AllOf::new(vec![
        Box::new({
            let mut a = MethodAcl::deny_by_default();
            a.grant(obj_m::PING, alice);
            a
        }),
        Box::new(ResponsibleAgentSet::new([alice])),
    ]);

    let policies: Vec<(&str, Box<dyn MayIPolicy>)> = vec![
        ("allow-all (default)", Box::new(AllowAll)),
        ("method-acl", Box::new(acl)),
        ("all-of(acl, ra-set)", Box::new(composite)),
    ];

    let mut rows = Vec::new();
    for (name, policy) in policies {
        let t0 = Instant::now();
        let mut allowed = 0u64;
        for i in 0..n {
            let caller = if i % 2 == 0 { alice } else { mallory };
            let env = InvocationEnv::solo(caller);
            if policy.may_i(&env, obj_m::PING).is_allowed() {
                allowed += 1;
            }
        }
        rows.push(Row {
            policy: name.to_string(),
            ops: n,
            ns_per_decision: t0.elapsed().as_nanos() as f64 / n as f64,
            allowed,
        });
    }
    rows
}

/// A pinger that fires `n` calls at an object and tallies outcomes.
struct Pinger {
    target: Loid,
    to: legion_core::address::ObjectAddressElement,
    caller: Loid,
    n: u32,
    sent: u32,
    /// Ok replies.
    pub ok: u32,
    /// Err replies (denied).
    pub denied: u32,
}

impl Endpoint for Pinger {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(1_000, 1);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
        if self.sent >= self.n {
            return;
        }
        self.sent += 1;
        ctx.call(
            self.to,
            self.target,
            obj_m::PING,
            vec![],
            InvocationEnv::solo(self.caller),
            Some(self.caller),
        );
        ctx.set_timer(1_000, 1);
    }
    fn on_message(&mut self, _ctx: &mut Ctx<'_>, msg: Message) {
        if let Body::Reply { result, .. } = &msg.body {
            match result {
                Ok(_) => self.ok += 1,
                Err(_) => self.denied += 1,
            }
        }
    }
}

/// Live-kernel row.
#[derive(Debug, Clone)]
pub struct LiveRow {
    /// Caller identity.
    pub caller: &'static str,
    /// Calls issued.
    pub calls: u32,
    /// Allowed.
    pub ok: u32,
    /// Denied by MayI.
    pub denied: u32,
}

/// Run the live ACL enforcement check.
pub fn run_live(calls: u32, seed: u64) -> Vec<LiveRow> {
    let alice = Loid::instance(20, 1);
    let mallory = Loid::instance(21, 1);
    let mut rows = Vec::new();
    for (name, caller) in [("granted caller", alice), ("ungranted caller", mallory)] {
        let mut kernel = SimKernel::new(Topology::zero(), FaultPlan::none(), seed);
        let obj_loid = Loid::instance(16, 1);
        let mut acl = MethodAcl::deny_by_default();
        acl.grant(obj_m::PING, alice);
        let obj = kernel.add_endpoint(
            Box::new(
                ActiveObjectEndpoint::new(obj_loid, Interface::new()).with_policy(Box::new(acl)),
            ),
            Location::new(0, 0),
            "guarded",
        );
        let pinger = kernel.add_endpoint(
            Box::new(Pinger {
                target: obj_loid,
                to: obj.element(),
                caller,
                n: calls,
                sent: 0,
                ok: 0,
                denied: 0,
            }),
            Location::new(0, 1),
            "pinger",
        );
        kernel.run_until_quiescent(1_000_000);
        let p = kernel.endpoint::<Pinger>(pinger).expect("pinger");
        rows.push(LiveRow {
            caller: name,
            calls,
            ok: p.ok,
            denied: p.denied,
        });
    }
    rows
}

/// What `legion-exp e13` prints.
pub fn tables(quick: bool, seed: u64) -> Vec<Table> {
    let n = if quick { 100_000 } else { 1_000_000 };
    let (t1, t2) = table(&run_micro(n), &run_live(50, seed));
    vec![t1, t2]
}

/// Render both tables.
pub fn table(micro: &[Row], live: &[LiveRow]) -> (Table, Table) {
    let mut t1 = Table::new(
        "E13a: MayI decision cost (§2.4)",
        &["policy", "decisions", "ns/decision", "allowed"],
    );
    for r in micro {
        t1.row(vec![
            r.policy.clone(),
            r.ops.to_string(),
            format!("{:.1}", r.ns_per_decision),
            pct(r.allowed, r.ops),
        ]);
    }
    let mut t2 = Table::new(
        "E13b: live ACL enforcement",
        &["caller", "calls", "allowed", "denied"],
    );
    for r in live {
        t2.row(vec![
            r.caller.to_string(),
            r.calls.to_string(),
            r.ok.to_string(),
            r.denied.to_string(),
        ]);
    }
    (t1, t2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_cheapest_and_acl_enforces() {
        let micro = run_micro(100_000);
        assert_eq!(micro[0].allowed, 100_000, "allow-all allows everything");
        assert_eq!(micro[1].allowed, 50_000, "acl allows only alice");
        let live = run_live(20, 111);
        assert_eq!(live[0].ok, 20);
        assert_eq!(live[0].denied, 0);
        assert_eq!(live[1].ok, 0);
        assert_eq!(live[1].denied, 20);
    }
}
