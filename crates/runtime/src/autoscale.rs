//! Burn-driven auto-scaling: §5.2.2 hot-class cloning as a control loop.
//!
//! The paper's answer to a hot class is organizational — "a class which
//! becomes a bottleneck can be cloned, and the clones can share the
//! load" (§5.2.2) — but it never says *when*. This module closes the
//! loop: the SLO tracker (`legion_obs::slo`) judges each latency window
//! once it is final and logs a `BurnEvent` whenever violations burn the
//! error budget too fast, and the [`AutoScaler`] endpoint turns a
//! sustained run of those events into `Derive()` calls against the
//! overloaded class — the same E6 cloning machinery a human operator
//! would drive, minus the human. The scaler reads the very burn log the
//! run's SLO report lists, so a clone decision rests on verdicts the
//! report shows.
//!
//! Two pieces, separable on purpose:
//!
//! * [`HysteresisState`] — the pure decision kernel. Clone only after
//!   [`BURN_STREAK_TO_CLONE`] consecutive burning poll ticks, never
//!   while a previous clone is in flight, never inside the cooldown
//!   ([`COOLDOWN_NS`]), never past [`MAX_CLONES`].
//!   [`CALM_STREAK_TO_RESET`] calm ticks reset the burn streak, so an
//!   isolated spike (one bad window during convergence) cannot flap the
//!   system into an extra clone. Pure state machine, no I/O —
//!   unit-testable without a kernel.
//! * [`AutoScaler`] — a sim endpoint that asks the kernel every
//!   [`POLL_INTERVAL_NS`] how many burn events were judged since its
//!   last poll, feeds the hysteresis, issues `Derive()` when it says go,
//!   and shares each landed clone's load the §4.3 way: it binds the hot
//!   class's LOID to an Object Address listing the class and every
//!   clone under `PickRandom`, and pushes that binding to the class's
//!   callers with `AddBinding` (§3.6). Each caller then picks a replica
//!   per call; no endpoint stands between it and the class.
//!
//! Everything is driven by kernel timers and messages, so the whole
//! loop is bit-deterministic per seed and survives journal replay.

use legion_core::address::{AddressSemantics, ObjectAddress, ObjectAddressElement};
use legion_core::binding::Binding;
use legion_core::loid::Loid;
use legion_core::symbol;
use legion_core::value::LegionValue;
use legion_naming::stale::propagate_binding;
use legion_net::dispatch::{resume, tick, Caller, Calls};
use legion_net::message::Message;
use legion_net::sim::{Ctx, Endpoint};

/// Poll period for the burn count, virtual ns: one E18 SLO window.
pub const POLL_INTERVAL_NS: u64 = 50_000_000;
/// Consecutive burning ticks required before cloning.
pub const BURN_STREAK_TO_CLONE: u32 = 2;
/// Consecutive calm ticks that reset the burn streak.
pub const CALM_STREAK_TO_RESET: u32 = 3;
/// Minimum virtual time between clone decisions.
pub const COOLDOWN_NS: u64 = 200_000_000;
/// Hard ceiling on the clones one scaler will ever create.
pub const MAX_CLONES: u32 = 3;

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
    pub fn observe(&mut self, now_ns: u64, burning: bool) -> bool {
        if !burning {
            self.calm_streak += 1;
            if self.calm_streak >= CALM_STREAK_TO_RESET {
                self.burn_streak = 0;
            }
            return false;
        }
        self.calm_streak = 0;
        self.burn_streak = self.burn_streak.saturating_add(1);
        if self.pending || self.clones >= MAX_CLONES {
            return false;
        }
        if self.burn_streak < BURN_STREAK_TO_CLONE {
            return false;
        }
        if let Some(t) = self.last_decision_ns {
            if now_ns.saturating_sub(t) < COOLDOWN_NS {
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
/// issues `Derive()` against the watched class, and pushes the class's
/// widened binding to its callers as each clone lands.
pub struct AutoScaler {
    state: HysteresisState,
    me: Loid,
    /// The scaler's outbound half: the one `Derive()` it may have out.
    calls: Calls<()>,
    /// The class being watched (and cloned).
    class_loid: Loid,
    /// The class's replica set: the class itself (which `Derive()` goes
    /// to), then each landed clone.
    replicas: Vec<ObjectAddressElement>,
    /// The class's callers, told of each widened binding.
    tenants: Vec<ObjectAddressElement>,
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
    /// A scaler watching `class_loid` at `class_element`, pushing each
    /// widened binding to `tenants`, polling until `stop_at_ns`.
    pub fn new(
        me: Loid,
        class_loid: Loid,
        class_element: ObjectAddressElement,
        tenants: Vec<ObjectAddressElement>,
        stop_at_ns: u64,
    ) -> Self {
        AutoScaler {
            state: HysteresisState::new(),
            me,
            calls: Calls::new(me, symbol::POLICY_TIMEOUTS),
            class_loid,
            replicas: vec![class_element],
            tenants,
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
            self.replicas[0],
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

    /// The class answered `Derive()`: a landed clone joins the class's
    /// Object Address, and the callers are told the widened binding — a
    /// notice each, nobody reads an answer.
    fn on_derive_reply(&mut self, ctx: &mut Ctx<'_>, result: Result<LegionValue, String>) {
        let now = ctx.now().as_nanos();
        match result {
            Ok(LegionValue::Binding(b)) => {
                ctx.count(symbol::POLICY_AUTOSCALE_CLONE);
                self.clone_log.push(CloneRecord {
                    at_ns: now,
                    loid: b.loid,
                });
                if let Some(&clone) = b.address.primary() {
                    self.replicas.push(clone);
                    let address = ObjectAddress::replicated(
                        self.replicas.clone(),
                        AddressSemantics::PickRandom,
                    );
                    let widened = Binding::forever(self.class_loid, address);
                    propagate_binding(ctx, self.me, &self.tenants, &widened);
                }
                ctx.recycle_value(LegionValue::Binding(b));
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
        ctx.set_timer(POLL_INTERVAL_NS, TIMER_POLL);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if tag != TIMER_POLL {
            tick(self, ctx, tag);
            return;
        }
        let events = ctx.drain_burn_events();
        let burning = events > 0;
        self.burn_events_seen += events as u64;
        if burning {
            self.burning_ticks += 1;
        }
        let now = ctx.now().as_nanos();
        if self.state.observe(now, burning) {
            self.issue_derive(ctx);
        }
        if now < self.stop_at_ns {
            ctx.set_timer(POLL_INTERVAL_NS, TIMER_POLL);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        // Anything but the reply to the outstanding `Derive()` is dropped.
        resume(self, ctx, msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The virtual time of poll tick `n`.
    fn tick(n: u32) -> u64 {
        u64::from(n) * POLL_INTERVAL_NS
    }

    /// Feed burning ticks from `from` until the state says clone; the
    /// tick it said so at.
    fn burn_until_decision(h: &mut HysteresisState, from: u32) -> u32 {
        (from..from + 100)
            .find(|&n| h.observe(tick(n), true))
            .expect("a sustained burn decides within 100 ticks")
    }

    #[test]
    fn clone_requires_a_sustained_streak() {
        let mut h = HysteresisState::new();
        for n in 1..BURN_STREAK_TO_CLONE {
            assert!(!h.observe(tick(n), true), "burning tick {n} is too few");
        }
        assert!(
            h.observe(tick(BURN_STREAK_TO_CLONE), true),
            "the streak's last burning tick fires"
        );
    }

    #[test]
    fn isolated_spikes_do_not_flap() {
        let mut h = HysteresisState::new();
        // One tick short of a streak, then enough calm to reset it.
        let mut n = 0;
        for _ in 1..BURN_STREAK_TO_CLONE {
            n += 1;
            assert!(!h.observe(tick(n), true));
        }
        for _ in 0..CALM_STREAK_TO_RESET {
            n += 1;
            assert!(!h.observe(tick(n), false));
        }
        assert_eq!(h.burn_streak(), 0, "calm streak resets the burn streak");
        // The streak must rebuild from scratch.
        for _ in 1..BURN_STREAK_TO_CLONE {
            n += 1;
            assert!(!h.observe(tick(n), true));
        }
        assert!(h.observe(tick(n + 1), true));
    }

    #[test]
    fn a_single_calm_tick_does_not_reset() {
        // Every calm run shorter than the reset streak, the single tick
        // included, leaves the burn streak standing.
        const { assert!(CALM_STREAK_TO_RESET > 1) };
        let mut h = HysteresisState::new();
        let mut n = 0;
        for _ in 1..BURN_STREAK_TO_CLONE {
            n += 1;
            assert!(!h.observe(tick(n), true));
        }
        for _ in 1..CALM_STREAK_TO_RESET {
            n += 1;
            assert!(!h.observe(tick(n), false), "calm tick never fires");
            assert_eq!(
                h.burn_streak(),
                BURN_STREAK_TO_CLONE - 1,
                "fewer than CALM_STREAK_TO_RESET calm ticks"
            );
        }
        assert!(h.observe(tick(n + 1), true), "streak resumes and fires");
    }

    #[test]
    fn pending_blocks_further_decisions() {
        let mut h = HysteresisState::new();
        let n = burn_until_decision(&mut h, 1);
        h.begin_clone(tick(n));
        // Burning hard while the derive is in flight, cooldown long
        // over: no second decision.
        let later = n + 1 + (COOLDOWN_NS / POLL_INTERVAL_NS) as u32;
        for m in n + 1..=later + 5 {
            assert!(!h.observe(tick(m), true), "pending blocks at tick {m}");
        }
        h.clone_landed(tick(later + 5));
        assert_eq!(h.clones(), 1);
        assert_eq!(h.burn_streak(), 0, "landing restarts the streak");
    }

    #[test]
    fn cooldown_spaces_decisions() {
        // A whole streak fits inside the cooldown.
        const { assert!(BURN_STREAK_TO_CLONE as u64 * POLL_INTERVAL_NS < COOLDOWN_NS) };
        let mut h = HysteresisState::new();
        let n = burn_until_decision(&mut h, 1);
        h.begin_clone(tick(n));
        let landed = tick(n + 1);
        h.clone_landed(landed);
        // The streak rebuilds at once, but the cooldown holds.
        for k in 1..=BURN_STREAK_TO_CLONE {
            assert!(!h.observe(landed + tick(k), true), "inside cooldown");
        }
        assert!(h.burn_streak() >= BURN_STREAK_TO_CLONE, "streak met");
        assert!(!h.observe(landed + COOLDOWN_NS - 1, true));
        assert!(h.observe(landed + COOLDOWN_NS, true), "cooldown expired");
    }

    #[test]
    fn max_clones_is_a_hard_ceiling() {
        let mut h = HysteresisState::new();
        // Rounds far enough apart that the cooldown never binds.
        let apart = 2 * (COOLDOWN_NS / POLL_INTERVAL_NS) as u32 + 100;
        for round in 0..MAX_CLONES {
            let n = burn_until_decision(&mut h, round * apart);
            h.begin_clone(tick(n));
            h.clone_landed(tick(n) + 5);
        }
        assert_eq!(h.clones(), MAX_CLONES);
        // At the ceiling: burn forever, never clone again.
        let base = MAX_CLONES * apart;
        for n in base..base + 50 * apart {
            assert!(!h.observe(tick(n), true));
        }
    }

    #[test]
    fn failed_clone_unblocks_but_keeps_cooldown() {
        let mut h = HysteresisState::new();
        let n = burn_until_decision(&mut h, 1);
        h.begin_clone(tick(n));
        h.clone_failed();
        assert_eq!(h.clones(), 0);
        // Still burning; the cooldown from the failed attempt applies.
        assert!(!h.observe(tick(n + 1), true));
        assert!(
            h.observe(tick(n) + COOLDOWN_NS, true),
            "retry after cooldown"
        );
    }
}
