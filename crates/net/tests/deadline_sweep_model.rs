//! One armed sweep timer per endpoint must expire exactly what a timer
//! per call would.
//!
//! [`Calls::call`] arms a timer only when none is pending at or before
//! the new deadline, and [`tick`] re-arms for the earliest deadline still
//! outstanding. The reference model here is the rule that replaced: every
//! call arms its own timer and is expired by it. Random programs — calls
//! with random per-call deadlines (many shorter than the one already
//! armed), prompt replies, late replies, silent drops and the callee's
//! removal mid-run — run through both; the `(call, expiry time)` sets
//! must be equal, every expiry must land exactly on its deadline, and
//! nothing may still be waiting once its deadline has passed.

use legion_core::env::InvocationEnv;
use legion_core::loid::Loid;
use legion_core::symbol::Sym;
use legion_core::time::SimTime;
use legion_core::value::LegionValue;
use legion_net::dispatch::{resume, tick, Caller, Calls};
use legion_net::faults::FaultPlan;
use legion_net::message::{Body, Message, ReplyTicket};
use legion_net::sim::{Ctx, Endpoint, EndpointId, SimKernel};
use legion_net::topology::{Location, Topology};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

const CALLEE: Loid = Loid::instance(78, 1);
const ASKER: Loid = Loid::instance(78, 2);
/// One hop between the two hosts, in virtual ns.
const HOP_NS: u64 = 10_000;
/// Per-call timers of the reference model: `REF_TIMER + call id`.
const REF_TIMER: u64 = 1 << 40;

/// What the callee does with one call.
#[derive(Clone, Copy)]
enum Answer {
    Prompt,
    Never,
    After(u64),
}

#[derive(Clone, Copy)]
struct Step {
    /// When the call is made. Even, like every hop and answer delay, so a
    /// reply never arrives on the very nanosecond its (odd) deadline
    /// falls on and the two rules cannot differ by a tie-break.
    at: u64,
    deadline_ns: u64,
    answer: Answer,
}

fn program(rng: &mut SmallRng, steps: usize, lossy: bool) -> Vec<Step> {
    (0..steps)
        .map(|_| Step {
            at: rng.gen_range(0..1_000_000u64) * 2,
            deadline_ns: rng.gen_range(0..200_000u64) * 2 + 1,
            answer: match rng.gen_range(0..4u32) {
                _ if !lossy => Answer::Prompt,
                0 => Answer::Never,
                1 => Answer::After(rng.gen_range(0..300_000u64) * 2),
                _ => Answer::Prompt,
            },
        })
        .collect()
}

/// Which deadline rule the asker runs.
#[derive(Clone, Copy)]
enum Rule {
    /// The code under test.
    OneArmedSweep,
    /// The reference: a timer per call, expiring that call alone.
    TimerPerCall,
}

/// Runs a program under one of the two rules. Every call is known by
/// its step's index in the program, the same under both.
struct Asker {
    rule: Rule,
    callee: EndpointId,
    program: Vec<Step>,
    calls: Calls<Asker>,
    /// The reference rule's waiting calls: call id → step.
    reference: BTreeMap<u64, u64>,
    /// The deadline of every call still waiting, by step.
    waiting: BTreeMap<u64, u64>,
    /// `(step, virtual time)` of every expiry.
    expired: Vec<(u64, u64)>,
    /// The deadline each registered call was given, by step.
    deadlines: BTreeMap<u64, u64>,
    replied: usize,
}

impl Asker {
    fn new(rule: Rule, callee: EndpointId, program: Vec<Step>) -> Self {
        Asker {
            rule,
            callee,
            program,
            calls: Calls::new(ASKER, Sym::intern("asker.timeouts")),
            reference: BTreeMap::new(),
            waiting: BTreeMap::new(),
            expired: Vec::new(),
            deadlines: BTreeMap::new(),
            replied: 0,
        }
    }

    /// Nothing may still be waiting on a deadline the clock has passed.
    fn assert_nothing_overdue(&self, now: SimTime) {
        let earliest = self.waiting.values().min();
        assert!(
            earliest.is_none_or(|d| *d >= now.as_nanos()),
            "a call due at {earliest:?} is still waiting at {now:?}"
        );
    }

    /// The call of program step `i` was answered, or given up on at `now`.
    fn resolve(&mut self, i: u64, answered: bool, now: SimTime) {
        self.waiting.remove(&i);
        if answered {
            self.replied += 1;
        } else {
            self.expired.push((i, now.as_nanos()));
        }
    }

    fn call(&mut self, ctx: &mut Ctx<'_>, i: u64) {
        let step = self.program[i as usize];
        let args = match step.answer {
            Answer::Prompt => vec![LegionValue::Uint(0)],
            Answer::Never => vec![],
            Answer::After(delay) => vec![LegionValue::Uint(delay)],
        };
        let to = self.callee.element();
        // Refused once the callee is gone: nothing to register.
        match self.rule {
            Rule::OneArmedSweep => {
                self.calls.set_deadline_ns(Some(step.deadline_ns));
                let asked = self
                    .calls
                    .call(ctx, to, CALLEE, "Ask", args, move |e, ctx, r| {
                        e.resolve(i, r.is_ok(), ctx.now())
                    });
                if !asked {
                    return;
                }
            }
            Rule::TimerPerCall => {
                let env = InvocationEnv::solo(ASKER);
                let Some(id) = ctx.call(to, CALLEE, "Ask", args, env, Some(ASKER)) else {
                    return;
                };
                self.reference.insert(id.0, i);
                ctx.set_timer(step.deadline_ns, REF_TIMER + id.0);
            }
        }
        let deadline = ctx.now().saturating_add(step.deadline_ns).as_nanos();
        self.deadlines.insert(i, deadline);
        self.waiting.insert(i, deadline);
    }
}

impl Caller for Asker {
    fn calls(&mut self) -> &mut Calls<Self> {
        &mut self.calls
    }
}

impl Endpoint for Asker {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for (i, step) in self.program.iter().enumerate() {
            ctx.set_timer(step.at, i as u64);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        self.assert_nothing_overdue(ctx.now());
        match self.rule {
            Rule::OneArmedSweep => {
                resume(self, ctx, msg);
            }
            Rule::TimerPerCall => {
                let Body::Reply { in_reply_to, .. } = msg.body else {
                    return;
                };
                if let Some(i) = self.reference.remove(&in_reply_to.0) {
                    self.resolve(i, true, ctx.now());
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        self.assert_nothing_overdue(ctx.now());
        if tick(self, ctx, tag) {
            // The rule under test swept.
        } else if tag >= REF_TIMER {
            if let Some(i) = self.reference.remove(&(tag - REF_TIMER)) {
                self.resolve(i, false, ctx.now());
            }
        } else {
            self.call(ctx, tag);
        }
    }
}

/// Answers `Ask(delay)` after `delay`, and `Ask()` never.
#[derive(Default)]
struct Callee {
    held: Vec<ReplyTicket>,
}

impl Endpoint for Callee {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        if let Some(LegionValue::Uint(delay)) = msg.args().first() {
            ctx.set_timer(*delay, self.held.len() as u64);
            self.held.push(msg.reply_ticket());
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        ctx.reply_ticket(self.held[tag as usize], Ok(LegionValue::Void));
    }
}

struct Outcome {
    expired: Vec<(u64, u64)>,
    deadlines: BTreeMap<u64, u64>,
    replied: usize,
    left_waiting: usize,
    quiet_at: SimTime,
}

fn run(rule: Rule, program: &[Step], remove_callee_at: Option<u64>) -> Outcome {
    let mut k = SimKernel::new(
        Topology::fixed(1_000, HOP_NS, 1_000_000),
        FaultPlan::none(),
        7,
    );
    k.set_flight_dump_on_sweep(false);
    let callee = k.add_endpoint(Box::<Callee>::default(), Location::new(0, 0), "callee");
    let caller = k.add_endpoint(
        Box::new(Asker::new(rule, callee, program.to_vec())),
        Location::new(0, 1),
        "asker",
    );
    if let Some(at) = remove_callee_at {
        k.run_until(SimTime(at));
        k.remove_endpoint(callee);
    }
    k.run_until_quiescent(1_000_000);
    assert!(k.is_quiescent());
    let c = k.endpoint::<Asker>(caller).expect("asker is alive");
    let mut expired = c.expired.clone();
    expired.sort_unstable();
    Outcome {
        expired,
        deadlines: c.deadlines.clone(),
        replied: c.replied,
        left_waiting: c.calls.outstanding() + c.reference.len() + c.waiting.len(),
        quiet_at: k.now(),
    }
}

#[test]
fn one_armed_sweep_expires_what_a_timer_per_call_would() {
    let mut total_expired = 0;
    for seed in 0..200u64 {
        let mut rng = SmallRng::seed_from_u64(0xDEAD_11E0 + seed);
        let steps = rng.gen_range(1..60usize);
        let program = program(&mut rng, steps, true);
        let remove_callee_at = rng.gen_bool(0.3).then(|| rng.gen_range(0..2_000_000u64));
        let got = run(Rule::OneArmedSweep, &program, remove_callee_at);
        let want = run(Rule::TimerPerCall, &program, remove_callee_at);
        assert_eq!(got.expired, want.expired, "seed {seed}");
        assert_eq!(got.replied, want.replied, "seed {seed}");
        assert_eq!(got.deadlines, want.deadlines, "seed {seed}");
        for (id, at) in &got.expired {
            assert_eq!(got.deadlines[id], *at, "swept exactly at its deadline");
        }
        assert_eq!(got.left_waiting, 0, "seed {seed}: every call was resolved");
        total_expired += got.expired.len();
    }
    assert!(total_expired > 1_000, "the programs do lose replies");
}

/// No losses: every reply beats its deadline, nothing expires, the store
/// ends empty, and the run goes quiet no later than the last deadline —
/// the last timer pending is the sweep for it, or none.
#[test]
fn a_run_without_losses_ends_empty() {
    for seed in 0..50u64 {
        let mut rng = SmallRng::seed_from_u64(0x0E_A5E + seed);
        let mut program = program(&mut rng, 40, false);
        for step in &mut program {
            step.deadline_ns += 4 * HOP_NS; // past the round trip
        }
        let got = run(Rule::OneArmedSweep, &program, None);
        assert!(got.expired.is_empty(), "seed {seed}");
        assert_eq!(got.replied, program.len());
        assert_eq!(got.left_waiting, 0);
        let last_deadline = got.deadlines.values().max().expect("calls were made");
        assert!(got.quiet_at.as_nanos() <= *last_deadline);
    }
}

/// Three requests, three traces, one sweep: each timeout is resolved
/// under the trace of the call that registered it — not under whichever
/// request armed the timer — and the sweep timer itself belongs to none.
#[test]
fn a_sweep_resolves_each_timeout_under_its_own_trace() {
    use legion_core::trace::TraceId;
    use legion_obs::span::SpanEventKind;

    struct Traced {
        hole: EndpointId,
        collector: EndpointId,
        calls: Calls<Traced>,
        begun: Vec<TraceId>,
    }
    impl Caller for Traced {
        fn calls(&mut self) -> &mut Calls<Self> {
            &mut self.calls
        }
    }
    impl Endpoint for Traced {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.calls.set_deadline_ns(Some(5_001));
            for i in 0..3 {
                self.begun
                    .push(ctx.trace_begin(&format!("request{i}")).trace);
                let (hole, collector) = (self.hole.element(), self.collector.element());
                let sent = self
                    .calls
                    .call(ctx, hole, CALLEE, "Ask", vec![], move |_, ctx, _| {
                        let env = InvocationEnv::solo(ASKER);
                        ctx.call(collector, CALLEE, "TimedOut", vec![], env, None);
                    });
                assert!(sent, "send accepted");
            }
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Message) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
            assert!(tick(self, ctx, tag), "the only timers here are sweeps");
        }
    }
    #[derive(Default)]
    struct Collector(Vec<TraceId>);
    impl Endpoint for Collector {
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, msg: Message) {
            self.0.push(msg.env.trace.trace);
        }
    }

    let mut k = SimKernel::new(
        Topology::fixed(1_000, HOP_NS, 1_000_000),
        FaultPlan::none(),
        7,
    );
    k.enable_tracing(1 << 12);
    k.set_flight_dump_on_sweep(false);
    let hole = k.add_endpoint(Box::<Callee>::default(), Location::new(0, 0), "hole");
    let collector = k.add_endpoint(Box::<Collector>::default(), Location::new(0, 0), "coll");
    let traced = k.add_endpoint(
        Box::new(Traced {
            hole,
            collector,
            calls: Calls::new(ASKER, Sym::intern("traced.timeouts")),
            begun: Vec::new(),
        }),
        Location::new(0, 1),
        "traced",
    );
    k.run_until_quiescent(1_000);
    let begun = &k.endpoint::<Traced>(traced).expect("alive").begun;
    assert_eq!(begun.len(), 3);
    assert!(begun.iter().all(|t| t.is_some()));
    assert_eq!(&k.endpoint::<Collector>(collector).expect("alive").0, begun);
    let timers = k
        .drain_trace()
        .iter()
        .filter(|e| e.kind == SpanEventKind::Timer)
        .count();
    assert_eq!(timers, 0, "the sweep timer fires under no trace");
}
