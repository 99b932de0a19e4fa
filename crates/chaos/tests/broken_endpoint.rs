//! The campaign's reason to exist: catch a deliberately broken system.
//!
//! The kernel's at-most-once delivery (it knows which event of a
//! duplicated message is the network's copy, and drops that one)
//! normally shields endpoints from message duplication. Here we disable
//! it — modeling an endpoint that forgot idempotence — run a chaos
//! campaign, and check that (a) the violation is caught, and (b) the
//! shrinker reduces the violating schedule to the single fault family
//! that matters: duplication, nothing else.

use legion_chaos::{
    run_campaign, ChaosSchedule, ChaosTarget, RunOutcome, ScheduleBounds, Violation,
};
use legion_core::env::InvocationEnv;
use legion_core::loid::Loid;
use legion_net::message::Message;
use legion_net::sim::{Ctx, Endpoint, SimKernel};
use legion_net::topology::{Location, Topology};

/// A non-idempotent endpoint: every delivered call executes.
#[derive(Default)]
struct Counter {
    executions: u64,
}

impl Endpoint for Counter {
    fn on_message(&mut self, _ctx: &mut Ctx<'_>, msg: Message) {
        if !msg.is_reply() {
            self.executions += 1;
        }
    }
}

/// Runs `CALLS` logical calls at a `Counter` under the schedule's fault
/// plan and audits at-most-once execution.
struct CounterTarget {
    /// When false, the kernel's at-most-once delivery is switched off —
    /// the "broken endpoint" under test.
    dedup: bool,
}

const CALLS: u64 = 200;

impl ChaosTarget for CounterTarget {
    fn run(&mut self, schedule: &ChaosSchedule) -> RunOutcome {
        let mut k = SimKernel::new(Topology::default(), schedule.fault_plan(), schedule.seed);
        k.set_dedup_enabled(self.dedup);
        let counter = k.add_endpoint(Box::new(Counter::default()), Location::new(0, 0), "counter");
        for _ in 0..CALLS {
            let id = k.fresh_call_id();
            let msg = Message::call(
                id,
                Loid::instance(9, 1),
                "Bump",
                vec![],
                InvocationEnv::anonymous(),
            );
            k.inject(Location::new(1, 0), counter.element(), msg);
        }
        k.run_until_quiescent(100_000);
        let executions = k.endpoint::<Counter>(counter).unwrap().executions;
        let stats = k.stats();
        let digest = executions
            ^ stats.sent.rotate_left(8)
            ^ stats.delivered.rotate_left(16)
            ^ stats.lost.rotate_left(24)
            ^ k.now().0.rotate_left(32);
        let mut violations = Vec::new();
        if executions > CALLS {
            violations.push(Violation::new(
                "at-most-once",
                format!("{executions} executions for {CALLS} logical calls"),
            ));
        }
        RunOutcome { violations, digest }
    }
}

fn bounds() -> ScheduleBounds {
    ScheduleBounds {
        // This target has no crashable hosts and only two locations.
        jurisdictions: 2,
        hosts: 0,
        max_duplicate: 0.15,
        ..ScheduleBounds::default()
    }
}

#[test]
fn dedup_protects_the_endpoint() {
    let mut target = CounterTarget { dedup: true };
    let report = run_campaign(&mut target, 0, 30, &bounds());
    assert!(
        report.clean(),
        "at-most-once delivery must absorb every duplicate: {:?}",
        report
            .violating()
            .flat_map(|s| &s.violations)
            .collect::<Vec<_>>()
    );
    // The campaign did exercise duplication somewhere.
    assert!(
        report
            .seeds
            .iter()
            .any(|s| s.schedule.duplicate_probability > 0.0),
        "campaign never generated duplication — bounds too tight"
    );
}

#[test]
fn broken_endpoint_is_caught_and_shrunk_to_duplication_alone() {
    let mut target = CounterTarget { dedup: false };
    let report = run_campaign(&mut target, 0, 30, &bounds());
    let violating: Vec<_> = report.violating().collect();
    assert!(
        !violating.is_empty(),
        "30 seeds of duplication never double-executed a call"
    );
    for seed in &violating {
        let shrunk = seed.shrunk.as_ref().expect("violating seeds are shrunk");
        let s = &shrunk.schedule;
        assert!(
            s.duplicate_probability > 0.0,
            "minimal reproducer must keep duplication: {s}"
        );
        assert_eq!(s.drop_probability, 0.0, "drops are noise here: {s}");
        assert!(s.flaps.is_empty(), "flaps are noise here: {s}");
        assert!(s.spikes.is_empty(), "spikes are noise here: {s}");
        assert_eq!(s.weight(), 1, "1-minimal reproducer: {s}");
        assert_eq!(s.seed, seed.seed, "reproducer replays under its seed");
        assert_eq!(
            shrunk.violations[0].invariant, "at-most-once",
            "shrunk schedule reproduces the same invariant breach"
        );
    }
}

#[test]
fn campaign_is_bit_reproducible() {
    let mut a = CounterTarget { dedup: false };
    let mut b = CounterTarget { dedup: false };
    let ra = run_campaign(&mut a, 100, 15, &bounds());
    let rb = run_campaign(&mut b, 100, 15, &bounds());
    assert_eq!(ra.campaign_digest(), rb.campaign_digest());
    for (x, y) in ra.seeds.iter().zip(rb.seeds.iter()) {
        assert_eq!(x.digest, y.digest, "seed {} diverged", x.seed);
        assert_eq!(x.violations, y.violations);
    }
}
