//! Edge cases of the shared deadline sweep over parked calls.
//!
//! Every endpoint that waits on replies shares one deadline mechanism:
//! [`Calls::call`] parks the call's wait with `deadline = now + d` and
//! arms a sweep timer; [`tick`] then wakes everything overdue with the
//! uniform [`timeout_error`]. These tests pin down the
//! boundary behavior that is easy to regress and hard to spot in the
//! end-to-end experiments:
//!
//! * a deadline **exactly equal** to the sweep's `now` has expired
//!   (`<=`, not `<`) — the timer armed with delay `d` fires at `now + d`
//!   and must collect the call it was armed for;
//! * several calls expiring in one sweep all resolve, in
//!   ascending `CallId` order, each with the same uniform
//!   `CoreError::Timeout` rendering;
//! * a sweep firing after the *callee* endpoint was removed still times
//!   the waiter out — removal produces a dead letter, never a reply, and
//!   the waiter must not leak the parked call.

use legion_core::loid::Loid;
use legion_core::symbol::Sym;
use legion_core::time::SimTime;
use legion_core::value::LegionValue;
use legion_net::dispatch::{is_timeout, resume, tick, timeout_error, Caller, Calls};
use legion_net::faults::FaultPlan;
use legion_net::message::Message;
use legion_net::sim::{Ctx, Endpoint, EndpointId, RecordKind, SimKernel};
use legion_net::topology::{Location, Topology};

const TIMEOUT_NS: u64 = 5_000;
const TARGET: Loid = Loid::instance(77, 1);
const WAITER: Loid = Loid::instance(77, 2);

/// Calls `target` `n` times at start, each under the shared deadline
/// machinery, and records every resolution in order.
struct Waiter {
    target: EndpointId,
    n: usize,
    /// How much later than the one before each call is due.
    stagger_ns: u64,
    /// Each call waits with its `nth`.
    calls: Calls<usize>,
    /// `(nth call, result)` per resolved call, in resolution order. Call ids ascend with `nth`: the kernel hands them out in
    /// call order.
    resolved: Vec<(usize, Result<LegionValue, String>)>,
    /// How many calls each sweep that found something resolved.
    sweeps: Vec<usize>,
}

impl Waiter {
    fn new(target: EndpointId, n: usize) -> Self {
        let mut calls = Calls::new(WAITER, Sym::intern("waiter.timeouts"));
        calls.set_deadline_ns(Some(TIMEOUT_NS));
        Waiter {
            target,
            n,
            stagger_ns: 0,
            calls,
            resolved: Vec::new(),
            sweeps: Vec::new(),
        }
    }
}

impl Caller for Waiter {
    type Wait = usize;

    fn calls(&mut self) -> &mut Calls<usize> {
        &mut self.calls
    }

    fn wake(&mut self, _ctx: &mut Ctx<'_>, nth: usize, result: Result<LegionValue, String>) {
        self.resolved.push((nth, result));
    }
}

impl Endpoint for Waiter {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for nth in 0..self.n {
            let deadline_ns = TIMEOUT_NS + nth as u64 * self.stagger_ns;
            self.calls.set_deadline_ns(Some(deadline_ns));
            let to = self.target.element();
            let sent = self.calls.call(ctx, to, TARGET, "Ping", vec![], nth);
            assert!(sent, "send accepted");
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        resume(self, ctx, msg);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        let before = self.resolved.len();
        assert!(tick(self, ctx, tag), "the only timers here are sweeps");
        let n = self.resolved.len() - before;
        if n > 0 {
            self.sweeps.push(n);
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
/// armed by `Calls::call` at delay `d` fires at `now + d`, and that
/// sweep alone must collect the call (`deadline <= now`).
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

/// Two calls parked at the same instant, due a nanosecond apart: the
/// sweep at the first deadline takes that call alone, and the one it
/// re-arms takes the other on its own deadline.
#[test]
fn take_expired_boundary_is_inclusive() {
    let mut k = kernel();
    let hole = k.add_endpoint(Box::new(BlackHole), Location::new(0, 0), "hole");
    let mut waiter = Waiter::new(hole, 2);
    waiter.stagger_ns = 1;
    let w = k.add_endpoint(Box::new(waiter), Location::new(0, 1), "waiter");
    let resolved = |k: &SimKernel| -> Vec<usize> {
        let waiter = k.endpoint::<Waiter>(w).unwrap();
        waiter.resolved.iter().map(|(nth, _)| *nth).collect()
    };
    k.run_until(SimTime(TIMEOUT_NS - 1));
    assert!(resolved(&k).is_empty());
    k.run_until(SimTime(TIMEOUT_NS));
    assert_eq!(resolved(&k), [0]);
    k.run_until(SimTime(TIMEOUT_NS + 1));
    assert_eq!(resolved(&k), [0, 1]);
    assert_eq!(k.endpoint::<Waiter>(w).unwrap().sweeps, [1, 1]);
}

/// Several calls past their deadlines resolve in one sweep, in
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
    let order: Vec<usize> = waiter.resolved.iter().map(|(nth, _)| *nth).collect();
    assert_eq!(order, [0, 1, 2], "resolution follows CallId order");
    // ...which the sweep's own record states in call ids: one `Timeout`
    // flight event per expiry, carrying the id it gave up on.
    let timeouts = k.flight().iter().filter(|e| e.kind == RecordKind::Timeout);
    let ids: Vec<u64> = timeouts.map(|e| e.detail).collect();
    assert_eq!(ids.len(), 3);
    assert!(ids.windows(2).all(|w| w[0] < w[1]), "{ids:?}");
    for (_, r) in &waiter.resolved {
        let err = r.as_ref().expect_err("timed out");
        assert!(is_timeout(err), "uniform timeout rendering, got {err}");
        assert_eq!(err, &timeout_error(TIMEOUT_NS));
    }
}

/// The callee is removed right after the calls are sent: deliveries
/// become dead letters and no reply can ever arrive. The waiter's sweep
/// must still fire and time the calls out — endpoint removal
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
    assert_eq!(waiter.calls.outstanding(), 0, "no leaked calls");
}
