//! One armed sweep timer per endpoint must expire exactly what a timer
//! per call would.
//!
//! [`Calls::call`] arms a timer only when none is pending at or before
//! the new deadline, and [`tick`] re-arms for the earliest deadline still
//! outstanding. The reference model here is the rule that replaced: every
//! call arms its own timer and is expired by it. Random programs run
//! through both:
//!
//! * calls with random per-call deadlines, many shorter than the one
//!   already armed;
//! * prompt replies, late replies and silent drops, and the callee's
//!   removal mid-run;
//! * replies out of call-id order: the callee holds some calls and
//!   answers a batch of them newest first, then one from the middle;
//! * replies after the call's own expiry, which `resume` hands back
//!   instead of resuming;
//! * calls parked while an expired call wakes, a follow-up the
//!   timeout starts.
//!
//! The `(call, expiry time)` sequences, the replies resumed and the late
//! replies handed back must be equal, each in the order it happened;
//! every expiry must land exactly on its deadline, and nothing may still
//! be waiting once its deadline has passed. (At one instant, whether a
//! reply or an expiry runs first is the kernel's tie-break between two
//! events, not part of the rule, so the two kinds are compared apart.)

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
/// The callee's count of held batches it answered out of call-id order.
const OUT_OF_ORDER: &str = "callee.out_of_order";

/// What the callee does with one call.
#[derive(Clone, Copy)]
enum Answer {
    Prompt,
    Never,
    After(u64),
    /// Held until the callee holds a batch, then answered newest first,
    /// then the one from the middle; the rest are never answered.
    Held,
}

#[derive(Clone, Copy)]
struct Step {
    /// When the call is made. Even, like every hop and answer delay, so a
    /// reply never arrives on the very nanosecond its (odd) deadline
    /// falls on and the two rules cannot differ by a tie-break. Calls and
    /// deadlines fall on a coarse grid, so several calls often fall due
    /// on one nanosecond and one sweep expires them together. A
    /// follow-up is made on an odd nanosecond (an expiry's), so its
    /// replies arrive on odd ones and its deadline is even: it must not
    /// be held, whose answers go out on an even nanosecond.
    at: u64,
    deadline_ns: u64,
    answer: Answer,
    /// If the call expires, waking it makes a follow-up call with
    /// this answer and the same deadline.
    retry: Option<Answer>,
}

/// A random program of `steps` calls; `lossy` adds every answer but the
/// prompt one, and follow-ups.
fn program(rng: &mut SmallRng, steps: usize, lossy: bool) -> Vec<Step> {
    (0..steps)
        .map(|_| Step {
            at: rng.gen_range(0..100u64) * 20_000,
            deadline_ns: rng.gen_range(0..50u64) * 20_000 + 1,
            answer: match rng.gen_range(0..5u32) {
                _ if !lossy => Answer::Prompt,
                0 => Answer::Never,
                1 => Answer::After(rng.gen_range(0..300_000u64) * 2),
                2 => Answer::Held,
                _ => Answer::Prompt,
            },
            retry: match rng.gen_range(0..8u32) {
                _ if !lossy => None,
                0 => Some(Answer::Prompt),
                1 => Some(Answer::Never),
                2 => Some(Answer::After(rng.gen_range(0..300_000u64) * 2)),
                _ => None,
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
/// its step's index in the program, the same under both; the follow-up
/// of step `i` of `n` is call `n + i`.
struct Asker {
    rule: Rule,
    callee: EndpointId,
    program: Vec<Step>,
    /// Each call waits with its index.
    calls: Calls<u64>,
    /// The reference rule's waiting calls: call id → step.
    reference: BTreeMap<u64, u64>,
    /// The deadline of every call still waiting, by step.
    waiting: BTreeMap<u64, u64>,
    /// `(step, virtual time)` of every expiry, in the order they ran.
    expired: Vec<(u64, u64)>,
    /// `(step, virtual time)` of every reply resumed, in order.
    replied: Vec<(u64, u64)>,
    /// `(step, virtual time)` of every reply that came after its call had
    /// expired, in order.
    late: Vec<(u64, u64)>,
    /// The deadline each registered call was given, by step.
    deadlines: BTreeMap<u64, u64>,
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
            replied: Vec::new(),
            late: Vec::new(),
            deadlines: BTreeMap::new(),
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

    /// Call `i` of the program, or a follow-up.
    fn step(&self, i: u64) -> Step {
        let n = self.program.len() as u64;
        match self.program.get(i as usize) {
            Some(step) => *step,
            None => {
                let first = self.program[(i - n) as usize];
                Step {
                    answer: first.retry.expect("only a retrying step has a follow-up"),
                    retry: None,
                    ..first
                }
            }
        }
    }

    /// Call `i` was answered, or given up on — in which case its
    /// follow-up, if it has one, is called from here.
    fn resolve(&mut self, ctx: &mut Ctx<'_>, i: u64, answered: bool) {
        self.waiting.remove(&i);
        let now = ctx.now().as_nanos();
        if answered {
            self.replied.push((i, now));
        } else {
            self.expired.push((i, now));
            if self.step(i).retry.is_some() {
                self.call(ctx, i + self.program.len() as u64);
            }
        }
    }

    /// A reply nothing waits for: its call expired before it came.
    fn late(&mut self, now: SimTime, msg: &Message) {
        let Body::Reply {
            result: Ok(LegionValue::Uint(i)),
            ..
        } = &msg.body
        else {
            panic!("the callee answers every call with its step");
        };
        self.late.push((*i, now.as_nanos()));
    }

    fn call(&mut self, ctx: &mut Ctx<'_>, i: u64) {
        let step = self.step(i);
        let args = match step.answer {
            Answer::Prompt => vec![LegionValue::Uint(i), LegionValue::Uint(0)],
            Answer::Never => vec![LegionValue::Uint(i)],
            Answer::After(delay) => vec![LegionValue::Uint(i), LegionValue::Uint(delay)],
            Answer::Held => vec![LegionValue::Uint(i), LegionValue::Void],
        };
        let to = self.callee.element();
        // Refused once the callee is gone: nothing to register.
        match self.rule {
            Rule::OneArmedSweep => {
                self.calls.set_deadline_ns(Some(step.deadline_ns));
                if !self.calls.call(ctx, to, CALLEE, "Ask", args, i) {
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
    type Wait = u64;

    fn calls(&mut self) -> &mut Calls<u64> {
        &mut self.calls
    }

    fn wake(&mut self, ctx: &mut Ctx<'_>, i: u64, result: Result<LegionValue, String>) {
        self.resolve(ctx, i, result.is_ok());
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
                if let Some(back) = resume(self, ctx, msg) {
                    self.late(ctx.now(), &back);
                }
            }
            Rule::TimerPerCall => {
                let Body::Reply { in_reply_to, .. } = &msg.body else {
                    return;
                };
                match self.reference.remove(&in_reply_to.0) {
                    Some(i) => self.resolve(ctx, i, true),
                    None => self.late(ctx.now(), &msg),
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
                self.resolve(ctx, i, false);
            }
        } else {
            self.call(ctx, tag);
        }
    }
}

/// Answers `Ask(step, delay)` with `step` after `delay`, `Ask(step)` and
/// `Ask()` never, and holds `Ask(step, void)` until it holds `batch` of
/// them.
struct Callee {
    batch: usize,
    delayed: Vec<(ReplyTicket, u64)>,
    held: Vec<(ReplyTicket, u64)>,
}

impl Callee {
    fn new(batch: usize) -> Self {
        Callee {
            batch,
            delayed: Vec::new(),
            held: Vec::new(),
        }
    }
}

impl Endpoint for Callee {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        let args = msg.args();
        let Some(&LegionValue::Uint(step)) = args.first() else {
            return; // a call that names no step is never answered
        };
        match args.get(1) {
            Some(LegionValue::Uint(delay)) => {
                ctx.set_timer(*delay, self.delayed.len() as u64);
                self.delayed.push((msg.reply_ticket(), step));
            }
            Some(_) => {
                self.held.push((msg.reply_ticket(), step));
                if self.held.len() == self.batch {
                    let newest = self.held.len() - 1;
                    for at in [newest, newest / 2] {
                        let (ticket, step) = self.held[at];
                        ctx.reply_ticket(ticket, Ok(LegionValue::Uint(step)));
                    }
                    self.held.clear();
                    ctx.count(OUT_OF_ORDER);
                }
            }
            None => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        let (ticket, step) = self.delayed[tag as usize];
        ctx.reply_ticket(ticket, Ok(LegionValue::Uint(step)));
    }
}

struct Outcome {
    expired: Vec<(u64, u64)>,
    replied: Vec<(u64, u64)>,
    late: Vec<(u64, u64)>,
    deadlines: BTreeMap<u64, u64>,
    left_waiting: usize,
    quiet_at: SimTime,
    out_of_order: u64,
}

fn run(rule: Rule, program: &[Step], batch: usize, remove_callee_at: Option<u64>) -> Outcome {
    let mut k = SimKernel::new(
        Topology::fixed(1_000, HOP_NS, 1_000_000),
        FaultPlan::none(),
        7,
    );
    k.set_flight_dump_on_sweep(false);
    let callee = k.add_endpoint(Box::new(Callee::new(batch)), Location::new(0, 0), "callee");
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
    Outcome {
        expired: c.expired.clone(),
        replied: c.replied.clone(),
        late: c.late.clone(),
        deadlines: c.deadlines.clone(),
        left_waiting: c.calls.outstanding() + c.reference.len() + c.waiting.len(),
        quiet_at: k.now(),
        out_of_order: k.counters().get(OUT_OF_ORDER),
    }
}

#[test]
fn one_armed_sweep_expires_what_a_timer_per_call_would() {
    let (mut total_expired, mut total_late, mut follow_ups, mut out_of_order) = (0, 0, 0, 0);
    let mut expired_together = 0;
    for seed in 0..200u64 {
        let mut rng = SmallRng::seed_from_u64(0xDEAD_11E0 + seed);
        let steps = rng.gen_range(1..60usize);
        let program = program(&mut rng, steps, true);
        let batch = rng.gen_range(3..6usize);
        let remove_callee_at = rng.gen_bool(0.3).then(|| rng.gen_range(0..2_000_000u64));
        let got = run(Rule::OneArmedSweep, &program, batch, remove_callee_at);
        let want = run(Rule::TimerPerCall, &program, batch, remove_callee_at);
        assert_eq!(got.expired, want.expired, "seed {seed}");
        assert_eq!(got.replied, want.replied, "seed {seed}");
        assert_eq!(got.late, want.late, "seed {seed}");
        assert_eq!(got.deadlines, want.deadlines, "seed {seed}");
        for (id, at) in &got.expired {
            assert_eq!(got.deadlines[id], *at, "swept exactly at its deadline");
        }
        for (id, at) in &got.late {
            assert!(
                got.deadlines[id] < *at,
                "seed {seed}: late means after expiry"
            );
            assert!(got.expired.iter().any(|(e, _)| e == id), "seed {seed}");
        }
        assert_eq!(got.left_waiting, 0, "seed {seed}: every call was resolved");
        total_expired += got.expired.len();
        expired_together += got.expired.windows(2).filter(|w| w[0].1 == w[1].1).count();
        total_late += got.late.len();
        follow_ups += got.deadlines.keys().filter(|i| **i >= steps as u64).count();
        out_of_order += got.out_of_order;
    }
    assert!(total_expired > 1_000, "the programs do lose replies");
    assert!(
        expired_together > 100,
        "sweeps expire several calls: {expired_together}"
    );
    assert!(total_late > 100, "replies come after expiry: {total_late}");
    assert!(follow_ups > 100, "expiries park follow-ups: {follow_ups}");
    assert!(out_of_order > 100, "held batches answered: {out_of_order}");
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
        let got = run(Rule::OneArmedSweep, &program, 3, None);
        assert!(got.expired.is_empty(), "seed {seed}");
        assert!(got.late.is_empty(), "seed {seed}");
        assert_eq!(got.replied.len(), program.len());
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
        calls: Calls<()>,
        begun: Vec<TraceId>,
    }
    impl Caller for Traced {
        type Wait = ();

        fn calls(&mut self) -> &mut Calls<()> {
            &mut self.calls
        }

        fn wake(&mut self, ctx: &mut Ctx<'_>, (): (), _: Result<LegionValue, String>) {
            let env = InvocationEnv::solo(ASKER);
            let collector = self.collector.element();
            ctx.call(collector, CALLEE, "TimedOut", vec![], env, None);
        }
    }
    impl Endpoint for Traced {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.calls.set_deadline_ns(Some(5_001));
            for i in 0..3 {
                self.begun
                    .push(ctx.trace_begin(&format!("request{i}")).trace);
                let hole = self.hole.element();
                let sent = self.calls.call(ctx, hole, CALLEE, "Ask", vec![], ());
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
    let hole = k.add_endpoint(Box::new(Callee::new(3)), Location::new(0, 0), "hole");
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
