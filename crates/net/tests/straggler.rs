//! At-most-once delivery drops only the network's copies.
//!
//! The kernel knows which of a duplicated message's two events is the
//! copy and drops that one; no receiver remembers what it has seen. A
//! straggler — an original that a delay spike held back while a
//! thousand later sends from the same endpoint overtook it — is not a
//! copy of anything, and must still be delivered, however far behind it
//! falls. Nor may a first copy be lost because a thousand others from
//! the same sender arrived around it.

use legion_core::env::InvocationEnv;
use legion_core::loid::Loid;
use legion_net::faults::{DelaySpike, FaultPlan};
use legion_net::message::Message;
use legion_net::sim::{Ctx, Endpoint, EndpointId, SimKernel};
use legion_net::topology::{Location, Topology};

/// More sends than the 1 024 keys per sender that a receiver-side dedup
/// window would hold, so that a late first copy would fall below its
/// floor.
const SENDS: u32 = 1_101;

/// Sends once at start (inside the spike), then the rest from a timer
/// one nanosecond later (after it).
struct Burst {
    to: EndpointId,
}

impl Burst {
    fn send(&self, ctx: &mut Ctx<'_>) {
        let id = ctx.fresh_call_id();
        let msg = Message::call(
            id,
            Loid::instance(7, 1),
            "Work",
            vec![],
            InvocationEnv::anonymous(),
        );
        assert!(ctx.send(self.to.element(), msg));
    }
}

impl Endpoint for Burst {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.send(ctx);
        ctx.set_timer(1, 0);
    }
    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Message) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
        for _ in 1..SENDS {
            self.send(ctx);
        }
    }
}

#[derive(Default)]
struct Sink {
    got: u32,
}

impl Endpoint for Sink {
    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Message) {
        self.got += 1;
    }
}

#[test]
fn a_straggler_behind_a_full_window_is_delivered() {
    let mut plan = FaultPlan::none();
    plan.add_delay_spike(DelaySpike {
        jurisdiction: None,
        from_ns: 0,
        until_ns: 1,
        multiplier: 1_000,
    });
    let mut k = SimKernel::new(Topology::fixed(1_000, 10_000, 1_000_000), plan, 5);
    let sink = k.add_endpoint(Box::new(Sink::default()), Location::new(0, 0), "sink");
    k.add_endpoint(Box::new(Burst { to: sink }), Location::new(0, 1), "burst");
    k.run_until_quiescent(u64::MAX);
    // The first send paid 10 µs × 1 000 and arrived last, 10 ms in.
    assert_eq!(k.counters().get("net.delayed"), 1);
    assert_eq!(k.now().as_nanos(), 10_000_000);
    assert_eq!(k.endpoint::<Sink>(sink).unwrap().got, SENDS);
    assert_eq!(k.counters().get("net.dedup_dropped"), 0);
}

#[test]
fn every_first_copy_of_a_duplicated_burst_is_delivered() {
    let mut plan = FaultPlan::none();
    plan.set_duplicate_probability(1.0);
    let mut k = SimKernel::new(Topology::default(), plan, 5);
    let sink = k.add_endpoint(Box::new(Sink::default()), Location::new(0, 0), "sink");
    k.add_endpoint(Box::new(Burst { to: sink }), Location::new(0, 1), "burst");
    k.run_until_quiescent(u64::MAX);
    let duplicated = k.counters().get("net.duplicated");
    assert_eq!(duplicated, u64::from(SENDS));
    assert_eq!(k.endpoint::<Sink>(sink).unwrap().got, SENDS);
    assert_eq!(k.counters().get("net.dedup_dropped"), duplicated);
}
