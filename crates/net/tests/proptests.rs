//! Property-based tests for the substrate: histogram quantiles against
//! exact order statistics, fault-plan symmetry, and kernel determinism
//! under randomized endpoint populations.

use legion_core::env::InvocationEnv;
use legion_core::loid::Loid;
use legion_net::admission::{Admission, AdmissionConfig, AdmissionQueue};
use legion_net::faults::{FaultPlan, Verdict};
use legion_net::message::Message;
use legion_net::metrics::Histogram;
use legion_net::sim::{Ctx, Endpoint, SimKernel};
use legion_net::topology::{LatencySpec, Location, Topology};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeSet;

proptest! {
    /// The log₂ histogram's quantile over-estimates the exact order
    /// statistic by at most 2x and never under-estimates below the
    /// bucket's lower bound.
    #[test]
    fn histogram_quantile_brackets_exact(
        mut samples in proptest::collection::vec(0u64..1_000_000, 1..300),
        q in 0.0f64..=1.0,
    ) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
        let exact = samples[rank - 1];
        let approx = h.quantile(q);
        prop_assert!(approx >= exact, "approx {approx} < exact {exact}");
        prop_assert!(
            approx <= exact.saturating_mul(2).max(1),
            "approx {approx} > 2*exact {exact}"
        );
        prop_assert_eq!(h.count(), samples.len() as u64);
        prop_assert_eq!(h.min(), samples[0]);
        prop_assert_eq!(h.max(), *samples.last().unwrap());
    }

    /// Histogram merge equals recording the concatenation.
    #[test]
    fn histogram_merge_is_concat(
        a in proptest::collection::vec(0u64..1_000_000, 0..100),
        b in proptest::collection::vec(0u64..1_000_000, 0..100),
    ) {
        let mut ha = Histogram::new();
        for &s in &a { ha.record(s); }
        let mut hb = Histogram::new();
        for &s in &b { hb.record(s); }
        ha.merge(&hb);
        let mut hc = Histogram::new();
        for &s in a.iter().chain(b.iter()) { hc.record(s); }
        prop_assert_eq!(ha, hc);
    }

    /// Partitions are symmetric and heal exactly.
    #[test]
    fn partitions_are_symmetric(pairs in proptest::collection::vec((0u32..8, 0u32..8), 0..16)) {
        let mut plan = FaultPlan::none();
        for (a, b) in &pairs {
            plan.partition(*a, *b);
        }
        for a in 0..8u32 {
            for b in 0..8u32 {
                let now = legion_core::time::SimTime::ZERO;
                let ab = plan.judge(1, Location::new(a, 0), Location::new(b, 0), now);
                let ba = plan.judge(1, Location::new(b, 0), Location::new(a, 0), now);
                prop_assert_eq!(ab == Verdict::DropSilently, ba == Verdict::DropSilently);
                let expected = pairs.iter().any(|(x, y)| {
                    (*x.min(y), *x.max(y)) == (a.min(b), a.max(b))
                });
                prop_assert_eq!(ab == Verdict::DropSilently, expected);
            }
        }
        for (a, b) in &pairs {
            plan.heal(*a, *b);
        }
        prop_assert!(!plan.has_partitions());
    }

    /// The low-water retry-after hint under zero-RTT callers that each
    /// re-offer exactly at their hint (ties in caller order): the queue
    /// stays bounded, the hint stays honest, the server never idles
    /// while someone waits one out, and nobody is sent round a herd.
    #[test]
    fn retry_at_hint_callers_meet_room_not_a_herd(
        service_ns in 1u64..=1_000,
        queue_depth in 1u64..=32,
        gaps in proptest::collection::vec(0u64..=400, 1..120),
    ) {
        let mut a = AdmissionQueue::new(AdmissionConfig { service_ns, queue_depth });
        let callers = gaps.len();
        let mut due = BTreeSet::new();
        let mut at = 0;
        for (caller, gap) in gaps.iter().enumerate() {
            at += gap;
            due.insert((at, caller));
        }
        let mut offers = vec![0u64; callers];
        // Per caller, how many *others* were not yet admitted (waiting
        // out a hint, or still to arrive) when it was first shed.
        let mut others_at_first_shed = vec![None; callers];
        while let Some((now, caller)) = due.pop_first() {
            if offers[caller] > 0 && queue_depth >= 2 {
                prop_assert!(!a.idle_at(now), "idle at {now} while caller {caller} waited");
            }
            offers[caller] += 1;
            let before = a;
            let verdict = a.offer(now);
            prop_assert!(a.backlog_at(now) <= queue_depth);
            if let Admission::Shed { retry_after_ns } = verdict {
                // Honest: alone at its hint, this caller would get in.
                let mut alone = before;
                prop_assert!(
                    matches!(alone.offer(now + retry_after_ns), Admission::Admit { .. }),
                    "hint {retry_after_ns} at {now} is not honest"
                );
                others_at_first_shed[caller].get_or_insert(callers as u64 - 1 - a.admitted());
                due.insert((now + retry_after_ns, caller));
            }
        }
        prop_assert_eq!(a.admitted(), callers as u64);
        prop_assert!(a.peak_backlog() <= queue_depth);
        // Between two sheds of one caller the queue went from the
        // low-water mark back to full, so at least ⌈depth/2⌉ of the W
        // others got in: at most ⌈2·W/depth⌉ sheds after the first, plus
        // the first shed and the admission. (Sent back to the instant
        // one slot frees, the bound would be 2 + W.)
        for (caller, waiting) in others_at_first_shed.iter().enumerate() {
            if let Some(w) = waiting {
                let bound = 2 + (2 * w).div_ceil(queue_depth);
                prop_assert!(
                    offers[caller] <= bound,
                    "caller {caller} offered {} times, W = {w}, bound {bound}",
                    offers[caller]
                );
            }
        }
    }

    /// Latency sampling always lands in `[base, base+jitter]` and picks
    /// the right tier.
    #[test]
    fn topology_samples_in_range(
        base in 0u64..10_000,
        jitter in 0u64..10_000,
        aj in 0u32..4, ah in 0u32..4, bj in 0u32..4, bh in 0u32..4,
        seed in any::<u64>(),
    ) {
        let spec = LatencySpec { base_ns: base, jitter_ns: jitter };
        let t = Topology { same_host: spec, same_jurisdiction: spec, cross_jurisdiction: spec };
        let mut rng = SmallRng::seed_from_u64(seed);
        let a = Location::new(aj, ah);
        let b = Location::new(bj, bh);
        for _ in 0..20 {
            let l = t.latency(a, b, &mut rng).as_nanos();
            prop_assert!(l >= base && l <= base + jitter);
        }
    }

    /// At-most-once delivery: under any mix of duplication and reordering
    /// (no drops), each logical call executes exactly once on the callee
    /// and the caller observes exactly one reply — the network's copies of
    /// both the call and the reply are dropped by the kernel at their own
    /// events, and no first copy is lost however the copies interleave.
    #[test]
    fn exactly_once_under_duplication_and_reorder(
        seed in any::<u64>(),
        n_calls in 1u32..6,
        dup in 0.0f64..=1.0,
        reorder_p in 0.0f64..=1.0,
        jitter in 0u64..200_000,
    ) {
        struct Caller {
            target: u64,
            calls: u32,
            replies: u32,
        }
        impl Endpoint for Caller {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                for _ in 0..self.calls {
                    let id = ctx.fresh_call_id();
                    let msg = Message::call(
                        id,
                        Loid::instance(7, 1),
                        "Work",
                        vec![],
                        InvocationEnv::anonymous(),
                    );
                    ctx.send(legion_core::address::ObjectAddressElement::sim(self.target), msg);
                }
            }
            fn on_message(&mut self, _ctx: &mut Ctx<'_>, msg: Message) {
                if msg.is_reply() {
                    self.replies += 1;
                }
            }
        }
        struct Worker {
            executions: u32,
        }
        impl Endpoint for Worker {
            fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
                if !msg.is_reply() {
                    self.executions += 1;
                    ctx.reply(&msg, Ok(legion_core::value::LegionValue::Void));
                }
            }
        }
        let mut k = SimKernel::with_seed(seed);
        let worker = k.add_endpoint(
            Box::new(Worker { executions: 0 }),
            Location::new(1, 0),
            "worker",
        );
        let caller = k.add_endpoint(
            Box::new(Caller { target: worker.0, calls: n_calls, replies: 0 }),
            Location::new(0, 0),
            "caller",
        );
        k.faults_mut().set_seed(seed);
        k.faults_mut().set_duplicate_probability(dup);
        k.faults_mut().set_reorder(reorder_p, jitter);
        k.run_until_quiescent(100_000);
        let executed = k.endpoint::<Worker>(worker).unwrap().executions;
        let replied = k.endpoint::<Caller>(caller).unwrap().replies;
        prop_assert_eq!(executed, n_calls, "each logical call must execute exactly once");
        prop_assert_eq!(replied, n_calls, "each logical call must yield exactly one reply");
        // Every rejection is the twin of a duplicated message: nothing the
        // network only reordered is ever taken for a copy.
        let counters = k.counters();
        prop_assert_eq!(
            counters.get("net.dedup_dropped"),
            counters.get("net.duplicated"),
            "each duplicated message loses exactly one copy"
        );
    }

    /// A served `notify` never puts a reply on the wire, whatever the
    /// handler returns — a value, an error, a refusal by the codec, or
    /// the table's own "no such method" — while the same request sent as
    /// a `call` is answered exactly as before.
    #[test]
    fn a_notice_is_never_answered(
        requests in proptest::collection::vec((0usize..6, any::<bool>()), 1..40),
        seed in any::<u64>(),
    ) {
        use legion_core::interface::ParamType;
        use legion_core::value::LegionValue;
        use legion_net::dispatch::{serve, MethodTable, Outcome, TableBuilder};
        use std::rc::Rc;

        const CALLEE: Loid = Loid::instance(7, 1);
        const SENDER: Loid = Loid::instance(7, 2);
        // (method, does a `call` of it get a reply?)
        const METHODS: [(&str, bool); 6] = [
            ("Value", true),
            ("Error", true),
            ("Later", false),
            ("OneWay", false),
            ("NeedsAnArgument", true), // sent without one: refused by the codec
            ("NoSuchMethod", true),    // refused by the table
        ];

        struct Callee {
            table: Rc<MethodTable<Callee>>,
            served: u32,
        }
        impl Endpoint for Callee {
            fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
                self.served += 1;
                let table = Rc::clone(&self.table);
                serve(&table, self, ctx, msg);
            }
        }
        struct Sender {
            to: legion_core::address::ObjectAddressElement,
            requests: Vec<(usize, bool)>,
            replies: u32,
        }
        impl Endpoint for Sender {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                for &(method, as_notice) in &self.requests {
                    let env = InvocationEnv::solo(SENDER);
                    let name = METHODS[method].0;
                    if as_notice {
                        assert!(ctx.notify(self.to, CALLEE, name, vec![], env, Some(SENDER)));
                    } else {
                        assert!(ctx.call(self.to, CALLEE, name, vec![], env, Some(SENDER)).is_some());
                    }
                }
            }
            fn on_message(&mut self, _ctx: &mut Ctx<'_>, msg: Message) {
                assert!(msg.is_reply());
                self.replies += 1;
            }
        }

        let table = TableBuilder::<Callee>::new("callee", "Callee", CALLEE)
            .method::<(), _>("Value", &[], ParamType::Uint, |_, _, _, ()| {
                Outcome::Reply(Ok(LegionValue::Uint(1)))
            })
            .method::<(), _>("Error", &[], ParamType::Void, |_, _, _, ()| {
                Outcome::Reply(Err("no".into()))
            })
            .method::<(), _>("Later", &[], ParamType::Void, |_, _, _, ()| Outcome::Pending)
            .method::<(), _>("OneWay", &[], ParamType::Void, |_, _, _, ()| Outcome::NoReply)
            .method::<(u64,), _>("NeedsAnArgument", &["n"], ParamType::Void, |_, _, _, (_,)| {
                Outcome::Reply(Ok(LegionValue::Void))
            })
            .seal();
        let mut k = SimKernel::with_seed(seed);
        let callee = k.add_endpoint(Box::new(Callee { table, served: 0 }), Location::new(1, 0), "callee");
        let sender = k.add_endpoint(
            Box::new(Sender { to: callee.element(), requests: requests.clone(), replies: 0 }),
            Location::new(0, 0),
            "sender",
        );
        k.run_until_quiescent(100_000);

        let answered = requests
            .iter()
            .filter(|&&(method, as_notice)| !as_notice && METHODS[method].1)
            .count();
        prop_assert_eq!(k.endpoint::<Callee>(callee).unwrap().served as usize, requests.len());
        prop_assert_eq!(k.endpoint::<Sender>(sender).unwrap().replies as usize, answered);
        prop_assert_eq!(k.stats().sent as usize, requests.len() + answered, "nothing else was sent");
    }

    /// A randomized ping-pong population is deterministic per seed: the
    /// same seed gives identical delivered counts and final time.
    #[test]
    fn kernel_deterministic_for_random_populations(
        n in 1usize..10,
        fanout in 1usize..5,
        seed in any::<u64>(),
    ) {
        struct Pinger {
            peers: Vec<u64>,
            budget: u32,
        }
        impl Endpoint for Pinger {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                for &p in &self.peers.clone() {
                    let id = ctx.fresh_call_id();
                    let msg = Message::call(
                        id,
                        Loid::instance(1, p + 1),
                        "Ping",
                        vec![],
                        InvocationEnv::anonymous(),
                    );
                    ctx.send(legion_core::address::ObjectAddressElement::sim(p), msg);
                }
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
                if self.budget > 0 && !msg.is_reply() {
                    self.budget -= 1;
                    ctx.reply(&msg, Ok(legion_core::value::LegionValue::Void));
                }
            }
        }
        let run = |seed: u64| {
            let mut k = SimKernel::with_seed(seed);
            for i in 0..n {
                let peers = (0..fanout).map(|f| ((i + f + 1) % n) as u64).collect();
                k.add_endpoint(
                    Box::new(Pinger { peers, budget: 3 }),
                    Location::new((i % 3) as u32, i as u32),
                    format!("p{i}"),
                );
            }
            k.run_until_quiescent(100_000);
            (k.now(), k.stats().delivered, k.stats().sent)
        };
        prop_assert_eq!(run(seed), run(seed));
    }
}
