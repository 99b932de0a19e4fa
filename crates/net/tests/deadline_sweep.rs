//! Edge cases of the shared continuation deadline sweep.
//!
//! Every endpoint that waits on replies shares one deadline mechanism:
//! [`insert_pending`] records the continuation with `deadline = now + d`
//! and arms a sweep timer; [`sweep_expired`] then resolves everything
//! overdue with the uniform [`timeout_error`]. These tests pin down the
//! boundary behavior that is easy to regress and hard to spot in the
//! end-to-end experiments:
//!
//! * a deadline **exactly equal** to the sweep's `now` has expired
//!   (`<=`, not `<`) — the timer armed with delay `d` fires at `now + d`
//!   and must collect the continuation it was armed for;
//! * several continuations expiring in one sweep all resolve, in
//!   ascending [`CallId`] order, each with the same uniform
//!   `CoreError::Timeout` rendering;
//! * a sweep firing after the *callee* endpoint was removed still times
//!   the waiter out — removal produces a dead letter, never a reply, and
//!   the waiter must not leak the continuation.

use legion_core::env::InvocationEnv;
use legion_core::loid::Loid;
use legion_core::value::LegionValue;
use legion_net::dispatch::{
    cont, insert_pending, is_timeout, sweep_expired, take_reply_result, timeout_error,
    Continuations, TIMER_DEADLINE_SWEEP,
};
use legion_net::faults::FaultPlan;
use legion_net::message::{CallId, Message};
use legion_net::sim::{Ctx, Endpoint, EndpointId, SimKernel};
use legion_net::topology::{Location, Topology};

const TIMEOUT_NS: u64 = 5_000;
const TARGET: Loid = Loid::instance(77, 1);
const WAITER: Loid = Loid::instance(77, 2);

/// Calls `target` `calls` times at start, arming the shared deadline
/// machinery for each call, and records every resolution in order.
struct Waiter {
    target: EndpointId,
    calls: usize,
    conts: Continuations<Waiter>,
    /// `(call_id, error)` per resolved continuation, in resolution order.
    resolved: Vec<(u64, Result<LegionValue, String>)>,
    /// Expired-count returned by each sweep that found something.
    sweeps: Vec<usize>,
}

impl Waiter {
    fn new(target: EndpointId, calls: usize) -> Self {
        Waiter {
            target,
            calls,
            conts: Continuations::new(),
            resolved: Vec::new(),
            sweeps: Vec::new(),
        }
    }
}

impl Endpoint for Waiter {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for _ in 0..self.calls {
            let id = ctx
                .call(
                    self.target.element(),
                    TARGET,
                    "Ping",
                    vec![],
                    InvocationEnv::solo(WAITER),
                    Some(WAITER),
                )
                .expect("send accepted");
            let raw = id.0;
            insert_pending(
                &mut self.conts,
                ctx,
                id,
                cont(move |e: &mut Waiter, _ctx, r| e.resolved.push((raw, r))),
                Some(TIMEOUT_NS),
                TIMER_DEADLINE_SWEEP,
            );
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        if let Some(id) = legion_net::dispatch::reply_id(&msg) {
            if let Some(k) = self.conts.take(&id) {
                k(self, ctx, take_reply_result(msg));
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if tag == TIMER_DEADLINE_SWEEP {
            let n = sweep_expired(self, ctx, |e| &mut e.conts, TIMEOUT_NS);
            if n > 0 {
                self.sweeps.push(n);
            }
        }
    }
}

/// Swallows every call: no reply, ever (the lost-reply worst case).
struct BlackHole;

impl Endpoint for BlackHole {
    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Message) {}
}

fn kernel() -> SimKernel {
    SimKernel::new(
        Topology::fixed(1_000, 10_000, 1_000_000),
        FaultPlan::none(),
        7,
    )
}

/// A deadline exactly equal to the sweep's `now` is overdue: the timer
/// armed by `insert_pending` at delay `d` fires at `now + d`, and that
/// sweep alone must collect the continuation (`deadline <= now`).
#[test]
fn deadline_equal_to_now_expires() {
    let mut k = kernel();
    let hole = k.add_endpoint(Box::new(BlackHole), Location::new(0, 0), "hole");
    let w = k.add_endpoint(
        Box::new(Waiter::new(hole, 1)),
        Location::new(0, 1),
        "waiter",
    );
    k.run_until_quiescent(10_000);
    let waiter = k.endpoint::<Waiter>(w).unwrap();
    assert_eq!(waiter.sweeps, vec![1], "the arming sweep itself collects");
    assert_eq!(waiter.resolved.len(), 1);
    let (_, r) = &waiter.resolved[0];
    assert_eq!(
        r.as_ref().err().map(String::as_str),
        Some(timeout_error(TIMEOUT_NS).as_str())
    );
}

/// Directly at the store level: `take_expired(now)` takes a continuation
/// whose deadline *equals* `now`, and leaves one due a tick later.
#[test]
fn take_expired_boundary_is_inclusive() {
    use legion_core::time::SimTime;
    let mut c: Continuations<Waiter> = Continuations::new();
    c.insert_with_deadline(CallId(1), cont(|_, _, _| {}), SimTime(100));
    c.insert_with_deadline(CallId(2), cont(|_, _, _| {}), SimTime(101));
    assert!(c.take_expired(SimTime(99)).is_empty());
    let due = c.take_expired(SimTime(100));
    assert_eq!(due.len(), 1);
    assert_eq!(due[0].0, CallId(1));
    assert_eq!(c.take_expired(SimTime(101)).len(), 1);
}

/// Several continuations past their deadlines resolve in one sweep, in
/// ascending `CallId` order, each with the identical uniform timeout
/// rendering — the error callers branch on with [`is_timeout`].
#[test]
fn one_sweep_resolves_all_expired_in_call_id_order() {
    let mut k = kernel();
    let hole = k.add_endpoint(Box::new(BlackHole), Location::new(0, 0), "hole");
    let w = k.add_endpoint(
        Box::new(Waiter::new(hole, 3)),
        Location::new(0, 1),
        "waiter",
    );
    k.run_until_quiescent(10_000);
    let waiter = k.endpoint::<Waiter>(w).unwrap();
    // All three calls were armed at the same instant, so the first sweep
    // to reach the shared deadline collects all of them at once.
    assert_eq!(waiter.sweeps.iter().sum::<usize>(), 3);
    assert_eq!(waiter.sweeps[0], 3, "one sweep, three expiries");
    let ids: Vec<u64> = waiter.resolved.iter().map(|(id, _)| *id).collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    assert_eq!(ids, sorted, "resolution follows CallId order");
    for (_, r) in &waiter.resolved {
        let err = r.as_ref().expect_err("timed out");
        assert!(is_timeout(err), "uniform timeout rendering, got {err}");
        assert_eq!(err, &timeout_error(TIMEOUT_NS));
    }
}

/// The callee is removed right after the calls are sent: deliveries
/// become dead letters and no reply can ever arrive. The waiter's sweep
/// must still fire and time the continuations out — endpoint removal
/// must not leak waiters.
#[test]
fn sweep_fires_after_callee_removed() {
    let mut k = kernel();
    let hole = k.add_endpoint(Box::new(BlackHole), Location::new(0, 0), "hole");
    let w = k.add_endpoint(
        Box::new(Waiter::new(hole, 2)),
        Location::new(0, 1),
        "waiter",
    );
    // Run only the start events (calls sent, timers armed), then kill the
    // callee before anything is delivered.
    k.run_until(k.now());
    k.remove_endpoint(hole);
    k.run_until_quiescent(10_000);
    let waiter = k.endpoint::<Waiter>(w).unwrap();
    assert_eq!(waiter.resolved.len(), 2, "both waiters timed out");
    for (_, r) in &waiter.resolved {
        assert!(is_timeout(r.as_ref().expect_err("timed out")));
    }
    assert!(waiter.conts.is_empty(), "no leaked continuations");
}
