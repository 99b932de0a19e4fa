//! Burn-driven auto-scaling: §5.2.2 hot-class cloning as a control loop.
//!
//! The paper's answer to a hot class is organizational — "a class which
//! becomes a bottleneck can be cloned, and the clones can share the
//! load" (§5.2.2) — but it never says *when*. This module closes the
//! loop: the SLO tracker's incremental burn monitor
//! ([`legion_obs::slo`]) turns sustained latency-objective violations
//! into [`BurnEvent`]s, and the [`AutoScaler`] endpoint turns those into
//! `Derive()` calls against the overloaded class — the same E6 cloning
//! machinery a human operator would drive, minus the human.
//!
//! Three pieces, separable on purpose:
//!
//! * [`HysteresisState`] — the pure decision kernel. Clone only after
//!   `burn_streak_to_clone` consecutive burning poll ticks, never while
//!   a previous clone is in flight, never inside the cooldown, never
//!   past `max_clones`. A streak of calm ticks resets the burn streak,
//!   so an isolated spike (one bad window during convergence) cannot
//!   flap the system into an extra clone. Pure state machine, no I/O —
//!   unit-testable without a kernel.
//! * [`AutoScaler`] — a sim endpoint that polls the kernel's burn-event
//!   queue on a timer, feeds the hysteresis, issues `Derive()` when it
//!   says go, and registers each landed clone with the router.
//! * [`ReplicaRouter`] — the front door. Clients address the class
//!   through it; it forwards round-robin over the replica set (the
//!   original class plus every landed clone), preserving `reply_to` so
//!   replies flow directly back to the caller — the router is one hop
//!   on the request path and zero on the reply path.
//!
//! Everything is driven by kernel timers and messages, so the whole
//! loop is bit-deterministic per seed and survives journal replay.

use crate::protocol::AddReplicaArgs;
use legion_core::address::ObjectAddressElement;
use legion_core::dispatch::FromArgs;
use legion_core::env::InvocationEnv;
use legion_core::loid::Loid;
use legion_core::symbol::{self, Sym};
use legion_core::value::LegionValue;
use legion_net::dispatch::{resume, tick, Caller, Calls};
use legion_net::message::Message;
use legion_net::sim::{Ctx, Endpoint};

/// Method name the [`AutoScaler`] uses to register a landed clone with
/// the [`ReplicaRouter`] (a control-plane call, not part of the paper's
/// object protocol).
pub const ROUTER_ADD_REPLICA: &str = "Router.AddReplica";

/// Knobs for the burn→clone control loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoScalePolicy {
    /// Poll period for the burn-event queue, virtual ns.
    pub poll_interval_ns: u64,
    /// Consecutive burning ticks required before cloning (≥ 1).
    pub burn_streak_to_clone: u32,
    /// Consecutive calm ticks that reset the burn streak (≥ 1).
    pub calm_streak_to_reset: u32,
    /// Minimum virtual time between clone decisions.
    pub cooldown_ns: u64,
    /// Hard ceiling on clones this scaler will ever create.
    pub max_clones: u32,
}

impl Default for AutoScalePolicy {
    fn default() -> Self {
        AutoScalePolicy {
            poll_interval_ns: 50_000_000, // one SLO window
            burn_streak_to_clone: 2,
            calm_streak_to_reset: 3,
            cooldown_ns: 200_000_000,
            max_clones: 3,
        }
    }
}

/// The pure clone-decision state machine (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct HysteresisState {
    burn_streak: u32,
    calm_streak: u32,
    last_decision_ns: Option<u64>,
    clones: u32,
    pending: bool,
}

impl HysteresisState {
    /// A fresh state: no streaks, no clones, nothing pending.
    pub fn new() -> Self {
        HysteresisState::default()
    }

    /// Clones landed so far.
    pub fn clones(&self) -> u32 {
        self.clones
    }

    /// Is a clone request currently in flight?
    pub fn pending(&self) -> bool {
        self.pending
    }

    /// Current consecutive burning-tick count.
    pub fn burn_streak(&self) -> u32 {
        self.burn_streak
    }

    /// Feed one poll tick. `burning` = at least one burn event arrived
    /// since the last tick. Returns `true` when the policy says to
    /// issue a clone *now* — the caller must follow up with
    /// [`begin_clone`](Self::begin_clone) once the request is actually
    /// sent (the decision and the send can fail independently).
    pub fn observe(&mut self, policy: &AutoScalePolicy, now_ns: u64, burning: bool) -> bool {
        if !burning {
            self.calm_streak += 1;
            if self.calm_streak >= policy.calm_streak_to_reset.max(1) {
                self.burn_streak = 0;
            }
            return false;
        }
        self.calm_streak = 0;
        self.burn_streak = self.burn_streak.saturating_add(1);
        if self.pending || self.clones >= policy.max_clones {
            return false;
        }
        if self.burn_streak < policy.burn_streak_to_clone.max(1) {
            return false;
        }
        if let Some(t) = self.last_decision_ns {
            if now_ns.saturating_sub(t) < policy.cooldown_ns {
                return false;
            }
        }
        true
    }

    /// A clone request went on the wire: start the cooldown and block
    /// further decisions until it resolves.
    pub fn begin_clone(&mut self, now_ns: u64) {
        self.pending = true;
        self.last_decision_ns = Some(now_ns);
    }

    /// The clone landed: count it and restart the burn streak (the new
    /// capacity deserves a fresh chance before the next decision).
    pub fn clone_landed(&mut self, now_ns: u64) {
        self.pending = false;
        self.clones += 1;
        self.burn_streak = 0;
        self.last_decision_ns = Some(now_ns);
    }

    /// The clone request failed: unblock (the cooldown still applies).
    pub fn clone_failed(&mut self) {
        self.pending = false;
    }
}

/// One landed clone, for the experiment's timeline.
#[derive(Debug, Clone)]
pub struct CloneRecord {
    /// Virtual time the clone's binding arrived.
    pub at_ns: u64,
    /// The clone's class LOID.
    pub loid: Loid,
}

const TIMER_POLL: u64 = 1;

/// The policy-loop endpoint: polls burn events, drives [`HysteresisState`],
/// issues `Derive()` against the watched class, registers landed clones
/// with the [`ReplicaRouter`].
pub struct AutoScaler {
    policy: AutoScalePolicy,
    state: HysteresisState,
    me: Loid,
    /// The scaler's outbound half: the one `Derive()` it may have out.
    calls: Calls<()>,
    /// The class being watched (and cloned).
    class_loid: Loid,
    class_element: ObjectAddressElement,
    /// Front door to register clones with (`None` = decide-only mode).
    router: Option<ObjectAddressElement>,
    router_method: Sym,
    /// Stop polling at this virtual time so the kernel can go quiescent.
    stop_at_ns: u64,
    /// Burn events drained over the scaler's lifetime.
    pub burn_events_seen: u64,
    /// Poll ticks that saw at least one burn event.
    pub burning_ticks: u64,
    /// Landed clones, in landing order.
    pub clone_log: Vec<CloneRecord>,
}

impl AutoScaler {
    /// A scaler watching `class_loid` at `class_element`, registering
    /// clones with `router`, polling until `stop_at_ns`.
    pub fn new(
        me: Loid,
        class_loid: Loid,
        class_element: ObjectAddressElement,
        router: Option<ObjectAddressElement>,
        policy: AutoScalePolicy,
        stop_at_ns: u64,
    ) -> Self {
        AutoScaler {
            policy,
            state: HysteresisState::new(),
            me,
            calls: Calls::new(me, symbol::POLICY_TIMEOUTS),
            class_loid,
            class_element,
            router,
            router_method: Sym::intern(ROUTER_ADD_REPLICA),
            stop_at_ns,
            burn_events_seen: 0,
            burning_ticks: 0,
            clone_log: Vec::new(),
        }
    }

    /// The decision state (tests, experiments).
    pub fn state(&self) -> &HysteresisState {
        &self.state
    }

    fn issue_derive(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now().as_nanos();
        let name = format!("auto{}", self.state.clones() + 1);
        let args = ctx.args([LegionValue::Str(name)]);
        let called = self.calls.call(
            ctx,
            self.class_element,
            self.class_loid,
            symbol::DERIVE,
            args,
            (),
        );
        if called {
            ctx.count(symbol::POLICY_DERIVE_ISSUED);
            self.state.begin_clone(now);
        } else {
            ctx.count(symbol::POLICY_DERIVE_REFUSED);
        }
    }

    /// The class answered `Derive()`: a landed clone is registered with
    /// the router — a notice, the scaler never read the router's answer.
    fn on_derive_reply(&mut self, ctx: &mut Ctx<'_>, result: Result<LegionValue, String>) {
        let now = ctx.now().as_nanos();
        match result {
            Ok(LegionValue::Binding(b)) => {
                ctx.count(symbol::POLICY_AUTOSCALE_CLONE);
                self.clone_log.push(CloneRecord {
                    at_ns: now,
                    loid: b.loid,
                });
                if let (Some(router), Some(_)) = (self.router, b.address.primary()) {
                    let me = self.me;
                    let args = ctx.args([LegionValue::Binding(b)]);
                    ctx.notify(
                        router,
                        self.class_loid,
                        self.router_method,
                        args,
                        InvocationEnv::solo(me),
                        Some(me),
                    );
                }
                self.state.clone_landed(now);
            }
            Ok(_) | Err(_) => {
                ctx.count(symbol::POLICY_DERIVE_FAILED);
                self.state.clone_failed();
            }
        }
    }
}

impl Caller for AutoScaler {
    /// The one call the scaler makes is `Derive()`.
    type Wait = ();

    fn calls(&mut self) -> &mut Calls<()> {
        &mut self.calls
    }

    fn wake(&mut self, ctx: &mut Ctx<'_>, (): (), result: Result<LegionValue, String>) {
        self.on_derive_reply(ctx, result);
    }
}

impl Endpoint for AutoScaler {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.policy.poll_interval_ns, TIMER_POLL);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if tag != TIMER_POLL {
            tick(self, ctx, tag);
            return;
        }
        let events = ctx.drain_burn_events();
        let burning = !events.is_empty();
        self.burn_events_seen += events.len() as u64;
        if burning {
            self.burning_ticks += 1;
        }
        let now = ctx.now().as_nanos();
        if self.state.observe(&self.policy, now, burning) {
            self.issue_derive(ctx);
        }
        if now < self.stop_at_ns {
            ctx.set_timer(self.policy.poll_interval_ns, TIMER_POLL);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        // Anything but the reply to the outstanding `Derive()` is dropped.
        resume(self, ctx, msg);
    }
}

/// The front-door endpoint: round-robin over the replica set, request
/// path only (see the module docs).
pub struct ReplicaRouter {
    replicas: Vec<ObjectAddressElement>,
    next: usize,
    add_replica: Sym,
    /// Data-plane calls forwarded.
    pub forwarded: u64,
    /// Replicas registered after construction.
    pub adds: u64,
}

impl ReplicaRouter {
    /// A router starting with the original class as its only replica.
    pub fn new(class_element: ObjectAddressElement) -> Self {
        ReplicaRouter {
            replicas: vec![class_element],
            next: 0,
            add_replica: Sym::intern(ROUTER_ADD_REPLICA),
            forwarded: 0,
            adds: 0,
        }
    }

    /// Current replica count (original class included).
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }
}

impl Endpoint for ReplicaRouter {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        if msg.is_reply() {
            ctx.recycle_message(msg);
            return;
        }
        if msg.method_sym() == Some(self.add_replica) {
            let verdict = match AddReplicaArgs::from_args(msg.args()) {
                Ok(a) => match a.binding.address.primary() {
                    Some(el) => {
                        self.replicas.push(*el);
                        self.adds += 1;
                        ctx.count(symbol::ROUTER_REPLICA_ADDED);
                        Ok(LegionValue::Uint(self.replicas.len() as u64))
                    }
                    None => Err("AddReplica: binding has an empty address".into()),
                },
                Err(e) => Err(format!("AddReplica: {e}")),
            };
            ctx.reply(&msg, verdict);
            ctx.recycle_message(msg);
            return;
        }
        // Forward, preserving the caller's reply_to: the reply skips us.
        let el = self.replicas[self.next % self.replicas.len()];
        self.next += 1;
        self.forwarded += 1;
        ctx.send(el, msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> AutoScalePolicy {
        AutoScalePolicy {
            poll_interval_ns: 10,
            burn_streak_to_clone: 3,
            calm_streak_to_reset: 2,
            cooldown_ns: 100,
            max_clones: 2,
        }
    }

    #[test]
    fn clone_requires_a_sustained_streak() {
        let p = policy();
        let mut h = HysteresisState::new();
        assert!(!h.observe(&p, 0, true));
        assert!(!h.observe(&p, 10, true));
        assert!(h.observe(&p, 20, true), "third burning tick fires");
    }

    #[test]
    fn isolated_spikes_do_not_flap() {
        let p = policy();
        let mut h = HysteresisState::new();
        // Two burning ticks, then enough calm to reset the streak.
        assert!(!h.observe(&p, 0, true));
        assert!(!h.observe(&p, 10, true));
        assert!(!h.observe(&p, 20, false));
        assert!(!h.observe(&p, 30, false));
        assert_eq!(h.burn_streak(), 0, "calm streak resets the burn streak");
        // The streak must rebuild from scratch.
        assert!(!h.observe(&p, 40, true));
        assert!(!h.observe(&p, 50, true));
        assert!(h.observe(&p, 60, true));
    }

    #[test]
    fn a_single_calm_tick_does_not_reset() {
        let p = policy();
        let mut h = HysteresisState::new();
        assert!(!h.observe(&p, 0, true));
        assert!(!h.observe(&p, 10, true));
        assert!(!h.observe(&p, 20, false), "calm tick never fires");
        assert_eq!(h.burn_streak(), 2, "one calm tick < calm_streak_to_reset");
        assert!(h.observe(&p, 30, true), "streak resumes and fires");
    }

    #[test]
    fn pending_blocks_further_decisions() {
        let p = policy();
        let mut h = HysteresisState::new();
        for t in 0..3 {
            h.observe(&p, t * 10, true);
        }
        h.begin_clone(20);
        // Burning hard while the derive is in flight: no second decision.
        for t in 3..10 {
            assert!(!h.observe(&p, t * 10, true), "pending blocks at t={t}");
        }
        h.clone_landed(100);
        assert_eq!(h.clones(), 1);
        assert_eq!(h.burn_streak(), 0, "landing restarts the streak");
    }

    #[test]
    fn cooldown_spaces_decisions() {
        let p = policy();
        let mut h = HysteresisState::new();
        for t in 0..3 {
            h.observe(&p, t * 10, true);
        }
        h.begin_clone(20);
        h.clone_landed(30);
        // Streak rebuilds immediately but the 100 ns cooldown holds.
        assert!(!h.observe(&p, 40, true));
        assert!(!h.observe(&p, 50, true));
        assert!(!h.observe(&p, 60, true), "streak met but inside cooldown");
        assert!(h.observe(&p, 140, true), "cooldown expired");
    }

    #[test]
    fn max_clones_is_a_hard_ceiling() {
        let p = policy();
        let mut h = HysteresisState::new();
        for round in 0..2u64 {
            let base = round * 1000;
            let mut fired = false;
            for t in 0..10u64 {
                if h.observe(&p, base + t * 10, true) {
                    h.begin_clone(base + t * 10);
                    h.clone_landed(base + t * 10 + 5);
                    fired = true;
                    break;
                }
            }
            assert!(fired, "round {round} should clone");
        }
        assert_eq!(h.clones(), 2);
        // At the ceiling: burn forever, never clone again.
        for t in 0..50u64 {
            assert!(!h.observe(&p, 10_000 + t * 10, true));
        }
    }

    #[test]
    fn failed_clone_unblocks_but_keeps_cooldown() {
        let p = policy();
        let mut h = HysteresisState::new();
        for t in 0..3 {
            h.observe(&p, t * 10, true);
        }
        h.begin_clone(20);
        h.clone_failed();
        assert_eq!(h.clones(), 0);
        // Still burning; the cooldown from the failed attempt applies.
        assert!(!h.observe(&p, 30, true));
        assert!(h.observe(&p, 130, true), "retry after cooldown");
    }
}
