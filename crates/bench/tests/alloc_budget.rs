//! Allocator-pressure gates for the message hot path.
//!
//! Runs with the counting global allocator registered, so every
//! assertion here is about *real* allocator traffic. Everything lives in
//! one test function: the strict zero-allocation brackets below would be
//! polluted by concurrent tests sharing the process-wide counter.

use legion_bench::alloc_counter::{self, CountingAlloc};
use legion_bench::measure::{self, LEDGER_SEED};
use legion_core::symbol::{self, Sym};
use legion_core::time::SimTime;
use legion_net::metrics::{Counters, WindowedCounters};
use legion_net::sim::{FlightEvent, FlightRecorder, RecordKind};
use legion_sim::harness::Watch;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// An endpoint that does nothing with what it is sent.
struct Idle;
impl legion_net::sim::Endpoint for Idle {
    fn on_message(&mut self, _ctx: &mut legion_net::sim::Ctx<'_>, _msg: legion_net::Message) {}
}

fn alloc_delta(f: impl FnOnce()) -> u64 {
    let (a0, _) = alloc_counter::counts();
    f();
    let (a1, _) = alloc_counter::counts();
    a1 - a0
}

/// Minimum delta over a few attempts. The counter is process-wide, so a
/// measurement window can catch an allocation from the libtest harness
/// threads under load; a *real* cost in `f` shows up on every attempt,
/// so the minimum keeps the zero-allocation contract noise-free.
fn alloc_delta_min(mut f: impl FnMut()) -> u64 {
    (0..3).map(|_| alloc_delta(&mut f)).min().unwrap()
}

#[test]
fn hot_path_allocation_budgets() {
    assert!(
        alloc_counter::is_counting(),
        "counting allocator must be registered for this test to mean anything"
    );

    // First touch pays the one-time global-interner seeding; everything
    // after that is what the hot path sees.
    std::hint::black_box(Sym::intern("GetBinding"));

    // Interning a pre-seeded symbol takes the read-lock fast path: no
    // allocation, ever.
    let d = alloc_delta_min(|| {
        for _ in 0..1_000 {
            std::hint::black_box(Sym::intern("GetBinding"));
            std::hint::black_box(symbol::GET_BINDING.as_str());
        }
    });
    assert_eq!(d, 0, "interning a known symbol allocated {d} times");

    // Bumping an existing counter is allocation-free: the symbol key is
    // Copy and the BTreeMap entry already exists. This is the "zero
    // label work" contract the per-delivery metrics ride on.
    let mut counters = Counters::default();
    counters.add_sym(symbol::NET_DELAYED, 1);
    let d = alloc_delta_min(|| {
        for _ in 0..1_000 {
            counters.add_sym(symbol::NET_DELAYED, 1);
        }
    });
    assert_eq!(d, 0, "counter hit path allocated {d} times");

    // The flight recorder is *always on*, so recording — both the fill
    // phase and steady-state ring overwrites — must never allocate. The
    // only allocation is the ring itself, at construction.
    let mut flight = FlightRecorder::new(256);
    let d = alloc_delta_min(|| {
        for i in 0..1_000u64 {
            flight.record(FlightEvent {
                at: SimTime(i),
                kind: RecordKind::Deliver,
                endpoint: i % 7,
                label: symbol::NET_DELAYED,
                detail: i,
                seq: 0,
            });
        }
    });
    assert_eq!(d, 0, "flight recorder allocated {d} times while recording");
    assert_eq!(flight.total(), 3_000);

    // Disabled windowed counters must not touch the allocator at all.
    let mut windows = WindowedCounters::disabled();
    let d = alloc_delta_min(|| {
        for i in 0..1_000u64 {
            windows.record_sym(legion_core::time::SimTime(i), symbol::NET_DUPLICATED, 1);
        }
    });
    assert_eq!(d, 0, "disabled windows allocated {d} times");

    // The message pool's recycle cycle is allocation-free once warm:
    // drawing a pooled arg buffer, pushing into its retained capacity,
    // recycling it, filling a recycled binding shell, and recycling the
    // shell must all stay off the allocator. This is the contract the
    // steady-state E12/E17 numbers stand on.
    {
        use legion_core::address::{ObjectAddress, ObjectAddressElement};
        use legion_core::binding::Binding;
        use legion_core::loid::Loid;
        use legion_core::value::LegionValue;
        use legion_net::pool::MessagePool;
        let mut pool = MessagePool::new();
        let src = Binding::forever(
            Loid::class_object(21),
            ObjectAddress::single(ObjectAddressElement::sim(3)),
        );
        // Warm: seed one arg buffer (with capacity) and one shell.
        let mut warm = pool.take_args();
        warm.push(LegionValue::Loid(src.loid));
        pool.recycle_args(warm);
        pool.recycle_value(LegionValue::from(src.clone()));
        let d = alloc_delta_min(|| {
            for _ in 0..1_000 {
                let mut args = pool.take_args();
                args.push(LegionValue::Loid(src.loid));
                pool.recycle_args(args);
                let v = pool.binding_value(&src);
                pool.recycle_value(v);
            }
        });
        assert_eq!(d, 0, "warm pool recycle path allocated {d} times");
    }

    // A single-element Object Address lives inline, so a binding that is
    // cloned, cached or evicted stays off the allocator: §3.5's "passed
    // around the system and cached within objects" costs copies only.
    {
        use legion_core::address::{ObjectAddress, ObjectAddressElement};
        use legion_core::binding::Binding;
        use legion_core::loid::Loid;
        use legion_naming::cache::BindingCache;
        let at = |i: u64| {
            Binding::forever(
                Loid::class_object(1_000 + i),
                ObjectAddress::single(ObjectAddressElement::sim(i)),
            )
        };
        let src = at(0);
        let d = alloc_delta_min(|| {
            for _ in 0..1_000 {
                std::hint::black_box(src.clone());
            }
        });
        assert_eq!(d, 0, "cloning a single-element binding allocated {d} times");

        // A full cache turning over: each insert evicts the LRU entry and
        // reuses its node; neither the borrowed nor the owned insert, nor
        // the invalidation that hands the binding back, allocates.
        let mut cache = BindingCache::new(64);
        for i in 0..128 {
            cache.insert(at(i));
        }
        let mut next = 128;
        let d = alloc_delta_min(|| {
            for _ in 0..500 {
                cache.insert_ref(&at(next));
                cache.insert(at(next + 1));
                std::hint::black_box(cache.invalidate(&at(next).loid));
                next += 2;
            }
        });
        assert_eq!(
            d, 0,
            "steady-state cache insert + evict allocated {d} times"
        );
        assert!(cache.stats().evictions > 1_000, "{:?}", cache.stats());
    }

    // A binding cache's node slab is one allocation, for its whole
    // capacity, and a refill after `clear` reuses it.
    binding_caches_reserve_their_slab_once();

    // A Binding-Agent miss — request in, upstream call, upstream reply,
    // answer out — allocates nothing per binding and nothing to park.
    agent_misses_allocate_for_the_continuation_only();

    // The allocation ledger: every row of BENCH_CORE.json re-measured and
    // held to its committed counts, both ways.
    let ledger = measure::ledger(LEDGER_SEED);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_CORE.json");
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(path, measure::render(LEDGER_SEED, &ledger)).expect("write the ledger");
    } else {
        let committed = std::fs::read_to_string(path).expect("BENCH_CORE.json at the repo root");
        if let Err(why) = measure::check(&committed, LEDGER_SEED, &ledger) {
            panic!("{why}");
        }
    }
    let row = |name: &str, config: &str| {
        let found = ledger.iter().find(|r| r.name == name && r.config == config);
        found.unwrap_or_else(|| panic!("no ledger row {name} ({config})"))
    };

    // The E12 steady-state loop (metrics sink disabled, the default
    // experiment configuration) stays under the per-message allocation
    // budget. With bindings inline and the pool recycling arg vectors
    // and binding shells the hot path measures 1.01 allocs/message at one
    // jurisdiction; with a `Vec` inside every Object Address it measured
    // ~2.7, unpooled ~4.2 and String-keyed ~8.6 — all fail this gate.
    let stats = row("e12_sweep", "jurisdictions=1");
    assert!(stats.messages > 100, "workload too small: {stats:?}");
    let apm = stats.allocs_per_message();
    assert!(
        apm <= 1.5,
        "allocs/message budget blown: {apm:.2} > 1.5 ({stats:?})"
    );

    // The instrumented run — profiler + SLO tracker enabled, as
    // `--report-out` configures them — stays within 5% of the plain one:
    // always-on observability may not tax the steady-state hot path.
    let plain = row("e12_steady", "jurisdictions=2");
    let plain_apm = plain.allocs_per_message();
    let inst = row("e12_steady_instrumented", "jurisdictions=2");
    let inst_apm = inst.allocs_per_message();
    assert!(
        inst_apm <= plain_apm * 1.05,
        "instrumented allocs/message budget blown: {inst_apm:.2} > {plain_apm:.2} * 1.05 ({inst:?})"
    );

    // Pure journaling — every kernel ingress appended, checksummed, and
    // sunk, snapshots off — may tax the hot path at most half an
    // allocation per message over the plain run: the writer frames in a
    // block buffer it keeps and the sink is given a block per 64 KiB. (The full
    // `--journal-out` configuration, with a snapshot every 256 events, is
    // the ledger's `e12_steady_journaled` row.)
    let jstats = measure::e12_steady("journal only", 2, LEDGER_SEED, measure::recording(0));
    let journal_apm = jstats.allocs_per_message();
    assert!(
        journal_apm <= plain_apm + 0.5,
        "journaling tax budget blown: {journal_apm:.2} > {plain_apm:.2} + 0.5 ({jstats:?})"
    );

    // One snapshot allocates nothing once its buffers are at size: each
    // dirty section is encoded into one reused buffer and hashed, no byte
    // of it is kept, and the mark's root is rendered on the stack —
    // whichever endpoints the events between marks reached, and however
    // many slots there are.
    snapshot_allocations_are_none_at_steady_state();

    // ...and the records between snapshots allocate what the sink keeps.
    steady_appends_allocate_the_sinks_blocks_only();

    // With tracing off, a send the fault plan delays pays no allocation
    // a clean send does not: its span label is never built.
    delayed_sends_allocate_like_clean_ones();

    // A receiver that hears from ten thousand fresh senders keeps
    // nothing per sender, on a fault-free network or on one that
    // duplicates every message: the kernel drops each copy at its own
    // event, and no receiver remembers what it has seen.
    fresh_senders_deliver_without_allocating(false);
    fresh_senders_deliver_without_allocating(true);

    // A network copy of a call is built in pooled buffers, and a copy
    // the kernel suppresses, or a send it drops, hands its buffers back:
    // calls with arguments over a duplicating or a lossy network
    // allocate nothing once the pool is warm.
    faulted_calls_with_arguments_allocate_nothing(true);
    faulted_calls_with_arguments_allocate_nothing(false);

    // A call through an Object Address whose semantics picks one element
    // moves the message to it: no target list, no copy.
    one_target_address_calls_allocate_nothing();

    // The SLO tracker judges windows as the send clock passes them and
    // keeps only the samples of windows not yet judged, in recycled
    // buffers: a warm tracker records without allocating.
    warm_slo_tracker_records_without_allocating();

    // A migration allocates nothing once warm: a Move of an Inert object
    // hands one pooled byte buffer round. And the Host Object's half of
    // an activation and a deactivation.
    inert_moves_allocate_nothing();
    host_activations_build_no_method_table();

    // A busy endpoint keeps one deadline sweep armed, not one per call.
    sweep_timers_follow_timeout_periods_not_calls();

    // A reply finds its parked call and wakes it off the heap, and the
    // next call parks in the capacity the store kept.
    matched_replies_resume_without_allocating();

    // A gated class answers GetInstanceInterface with a copy of a text it
    // keeps, written into a pooled string: one allocation per serve for a
    // caller that drops its replies, none for one that recycles them, and
    // none to admit the call.
    instance_interface_serves_into_pooled_strings(false);
    instance_interface_serves_into_pooled_strings(true);

    // A full class sheds into the string its caller's last refusal
    // returned to the pool.
    sheds_render_hints_into_pooled_strings();

    // Determinism of the measurement itself: the same seed must allocate
    // identically, or the ledger is noise.
    let again = measure::e12_steady(&stats.name, 1, LEDGER_SEED, Watch::off());
    assert_eq!(*stats, again, "the E12 wave must be seed-determined");
}

/// Allocations and bytes `f` makes, the least over a few attempts (see
/// [`alloc_delta_min`]); each attempt starts from what `f` builds itself.
fn alloc_pair_min(mut f: impl FnMut()) -> (u64, u64) {
    let mut attempt = || {
        let (a0, b0) = alloc_counter::counts();
        f();
        let (a1, b1) = alloc_counter::counts();
        (a1 - a0, b1 - b0)
    };
    (0..3).map(|_| attempt()).min().unwrap()
}

/// Filling an empty `BindingCache::new(4096)` makes one allocation of
/// 4 096 nodes of 104 B — the slab, reserved by the first insert — and
/// otherwise only the index's doublings: 16, 32, … 8 192 slots of 8 B,
/// the last one at most half full. A refill after `clear` makes the
/// index's doublings alone. A slab grown by doubling instead would make
/// 11 allocations (4, 8, … 4 096 nodes) and ≈ 2× the bytes, and a
/// `usize`-linked node 4 096 × 8 B more.
fn binding_caches_reserve_their_slab_once() {
    use legion_core::address::{ObjectAddress, ObjectAddressElement};
    use legion_core::binding::Binding;
    use legion_core::loid::Loid;
    use legion_naming::cache::BindingCache;

    const CAPACITY: u64 = 4_096;
    const NODE_BYTES: u64 = 104;
    let doublings: Vec<u64> =
        std::iter::successors(Some(16), |&s| (s < 2 * CAPACITY).then_some(2 * s)).collect();
    let index = (doublings.len() as u64, 8 * doublings.iter().sum::<u64>());
    assert_eq!(index, (10, 130_944));
    let at = |i: u64| {
        Binding::forever(
            Loid::instance(16, i + 1),
            ObjectAddress::single(ObjectAddressElement::sim(i)),
        )
    };

    let fill = alloc_pair_min(|| {
        let mut cache = BindingCache::new(CAPACITY as usize);
        for i in 0..CAPACITY {
            cache.insert(at(i));
        }
        assert_eq!(cache.len() as u64, CAPACITY);
    });
    assert_eq!(
        fill,
        (1 + index.0, CAPACITY * NODE_BYTES + index.1),
        "filling a cache of {CAPACITY}: (allocations, bytes), index {index:?}"
    );

    let mut cache = BindingCache::new(CAPACITY as usize);
    cache.insert(at(0));
    let refill = alloc_pair_min(|| {
        cache.clear();
        for i in 0..CAPACITY {
            cache.insert_ref(&at(i));
        }
        assert_eq!(cache.len() as u64, CAPACITY);
    });
    assert_eq!(
        refill, index,
        "refilling a cleared cache: (allocations, bytes) beyond the index's"
    );
}

/// One root Binding Agent between an asker and a class holding 1 024
/// rows; the asker resolves a different row each time, so every request
/// misses the agent's cache, goes to the class and comes back. Measured
/// after 256 warm-up misses (pool shells, the event queue, the agent's
/// slab and index at size): the reply's binding box is recycled and the
/// answer is built in a pooled one, and the upstream call parks as plain
/// data in the capacity the agent's call store kept. What is left is the
/// cache index's doubling: measured 1 for 512 misses (the slab was
/// reserved whole by the first miss).
fn agent_misses_allocate_for_the_continuation_only() {
    use legion_core::address::{ObjectAddress, ObjectAddressElement};
    use legion_core::binding::Binding;
    use legion_core::env::InvocationEnv;
    use legion_core::loid::Loid;
    use legion_core::value::LegionValue;
    use legion_core::wellknown::LEGION_CLASS;
    use legion_naming::agent::{AgentConfig, BindingAgentEndpoint};
    use legion_naming::stubs::{StaticClassEndpoint, StaticLegionClassEndpoint};
    use legion_net::sim::{Ctx, Endpoint, SimKernel};
    use legion_net::topology::Location;

    const ROWS: u64 = 1_024;
    const WARM: u64 = 256;
    const MEASURED: u64 = 512;
    let class_loid = Loid::class_object(16);

    struct Asker {
        agent: ObjectAddressElement,
        next: u64,
        answered: u64,
    }
    impl Asker {
        fn ask(&mut self, ctx: &mut Ctx<'_>) {
            if self.next < ROWS {
                self.next += 1;
                let me = Loid::instance(99, 1);
                let target = Loid::instance(16, self.next);
                let mut args = ctx.take_args();
                args.push(LegionValue::Loid(target));
                let env = InvocationEnv::solo(me);
                ctx.call(self.agent, target, symbol::GET_BINDING, args, env, Some(me))
                    .expect("agent reachable");
            }
        }
    }
    impl Endpoint for Asker {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.ask(ctx);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: legion_net::Message) {
            let legion_net::message::Body::Reply { result, .. } = msg.body else {
                panic!("the asker is only ever answered");
            };
            let binding = result.expect("a binding");
            assert!(matches!(binding, LegionValue::Binding(_)));
            ctx.recycle_value(binding);
            self.answered += 1;
            self.ask(ctx);
        }
    }

    let mut k = SimKernel::with_seed(LEDGER_SEED);
    let lc = k.add_endpoint(
        Box::new(StaticLegionClassEndpoint::new()),
        Location::new(0, 0),
        "LegionClass",
    );
    let row = |seq: u64| {
        Binding::forever(
            Loid::instance(16, seq),
            ObjectAddress::single(ObjectAddressElement::sim(10_000 + seq)),
        )
    };
    let class = (1..=ROWS).fold(StaticClassEndpoint::new(class_loid), |c, i| c.with(row(i)));
    let class = k.add_endpoint(Box::new(class), Location::new(0, 1), "class");
    {
        let lc = k
            .endpoint_mut::<StaticLegionClassEndpoint>(lc)
            .expect("just attached");
        let at = ObjectAddress::single(class.element());
        lc.class_bindings
            .insert(class_loid, Binding::forever(class_loid, at));
        lc.responsible.insert(class_loid, LEGION_CLASS);
    }
    let agent = k.add_endpoint(
        Box::new(BindingAgentEndpoint::new(AgentConfig::root(
            Loid::instance(5, 1),
            lc.element(),
        ))),
        Location::new(0, 2),
        "agent",
    );
    let asker = k.add_endpoint(
        Box::new(Asker {
            agent: agent.element(),
            next: 0,
            answered: 0,
        }),
        Location::new(0, 3),
        "asker",
    );
    let run_to = |k: &mut SimKernel, answered: u64| {
        while k.endpoint::<Asker>(asker).expect("attached").answered < answered {
            assert!(k.step(), "the asker stalled");
        }
    };
    run_to(&mut k, WARM);
    let d = alloc_delta(|| run_to(&mut k, WARM + MEASURED));
    assert_eq!(k.counters().get("ba.cache_miss"), WARM + MEASURED);
    assert!(
        d <= MEASURED / 8,
        "{MEASURED} agent misses allocated {d} times: more than one in eight"
    );
}

/// An endpoint that calls an echo over and over, each reply making the
/// next call. Bracketed: `resume` — the store's binary search, the
/// payload moved out of the reply, the wait handed to `wake` — and the
/// next call parked behind it, a push into the capacity the store kept.
fn matched_replies_resume_without_allocating() {
    use legion_core::address::ObjectAddressElement;
    use legion_core::loid::Loid;
    use legion_core::value::LegionValue;
    use legion_net::dispatch::{resume, Caller, Calls};
    use legion_net::sim::{Ctx, Endpoint, SimKernel};
    use legion_net::topology::Location;

    const ROUNDS: u64 = 64;
    struct Echo;
    impl Endpoint for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: legion_net::Message) {
            ctx.reply(&msg, Ok(LegionValue::Uint(7)));
        }
    }
    struct Resumer {
        echo: ObjectAddressElement,
        calls: Calls<()>,
        answered: u64,
        /// What each matched `resume` and the park after it allocated.
        deltas: Vec<u64>,
    }
    impl Resumer {
        fn ask(&mut self, ctx: &mut Ctx<'_>) {
            let args = ctx.take_args();
            let echo = Loid::instance(16, 1);
            assert!(self.calls.call(ctx, self.echo, echo, "Ping", args, ()));
        }
    }
    impl Caller for Resumer {
        type Wait = ();

        fn calls(&mut self) -> &mut Calls<()> {
            &mut self.calls
        }

        fn wake(&mut self, _ctx: &mut Ctx<'_>, (): (), result: Result<LegionValue, String>) {
            assert_eq!(result, Ok(LegionValue::Uint(7)));
            self.answered += 1;
        }
    }
    impl Endpoint for Resumer {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.deltas.reserve(ROUNDS as usize);
            self.ask(ctx);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: legion_net::Message) {
            let d = alloc_delta(|| {
                assert!(resume(self, ctx, msg).is_none(), "matched");
                if self.answered < ROUNDS {
                    self.ask(ctx);
                }
            });
            self.deltas.push(d);
        }
    }

    let mut k = SimKernel::with_seed(LEDGER_SEED);
    let echo = k.add_endpoint(Box::new(Echo), Location::new(0, 0), "echo");
    let resumer = Resumer {
        echo: echo.element(),
        calls: Calls::new(Loid::instance(99, 1), Sym::intern("resumer.timeouts")),
        answered: 0,
        deltas: Vec::new(),
    };
    let resumer = k.add_endpoint(Box::new(resumer), Location::new(0, 1), "resumer");
    k.run_until_quiescent(u64::MAX);
    let r = k.endpoint::<Resumer>(resumer).expect("attached");
    assert_eq!((r.answered, r.deltas.len() as u64), (ROUNDS, ROUNDS));
    // The counter is process-wide: take the quietest round, as
    // `alloc_delta_min` does.
    let d = r.deltas.iter().min().expect("rounds ran");
    assert_eq!(
        *d, 0,
        "a matched resume and the next park allocated {d} times"
    );
}

const GATED_CLASS: legion_core::loid::Loid = legion_core::loid::Loid::class_object(16);
const GATED_ROUNDS: u64 = 64;

/// An admission-gated `File` class whose two halves of a call are
/// bracketed apart: `on_message` either admits a call (ledger arithmetic,
/// a push onto the deferred queue, a timer) or sheds it (a retry-after
/// hint rendered into a reply), and `on_timer` serves an admitted one —
/// decode, gate, handler, reply.
struct GatedClass {
    class: legion_runtime::class_endpoint::ClassEndpoint,
    arrivals: Vec<u64>,
    serves: Vec<u64>,
}

impl GatedClass {
    /// Attach a class holding `queue_depth` calls of `service_ns` each.
    fn attach(
        k: &mut legion_net::sim::SimKernel,
        service_ns: u64,
        queue_depth: u64,
    ) -> legion_net::sim::EndpointId {
        use legion_core::address::ObjectAddressElement;
        use legion_core::class::{ClassKind, ClassObject};
        use legion_core::object::object_mandatory_interface;
        use legion_core::wellknown::LEGION_OBJECT;
        use legion_net::admission::AdmissionConfig;
        use legion_net::topology::Location;
        use legion_runtime::class_endpoint::{ClassConfig, ClassEndpoint};

        let mut file = ClassObject::new(GATED_CLASS, "File#clone", ClassKind::NORMAL);
        file.interface = object_mandatory_interface(LEGION_OBJECT);
        let cfg = ClassConfig {
            legion_class: ObjectAddressElement::sim(0),
            magistrates: Vec::new(),
            binding_agent: None,
            binding_ttl_ns: None,
            admission: Some(AdmissionConfig {
                service_ns,
                queue_depth,
            }),
            notify_holders: true,
        };
        let class = GatedClass {
            class: ClassEndpoint::new(file, cfg),
            arrivals: Vec::with_capacity(GATED_ROUNDS as usize + 1),
            serves: Vec::with_capacity(GATED_ROUNDS as usize),
        };
        k.add_endpoint(Box::new(class), Location::new(0, 0), "class:File#clone")
    }

    /// Ask the class at `class` for its instance interface.
    fn ask(ctx: &mut legion_net::sim::Ctx<'_>, class: legion_core::address::ObjectAddressElement) {
        use legion_core::env::InvocationEnv;
        use legion_core::loid::Loid;
        let me = Loid::instance(99, 1);
        let env = InvocationEnv::solo(me);
        let method = symbol::GET_INSTANCE_INTERFACE;
        ctx.call(class, GATED_CLASS, method, vec![], env, Some(me))
            .expect("class reachable");
    }
}

impl legion_net::sim::Endpoint for GatedClass {
    fn on_message(&mut self, ctx: &mut legion_net::sim::Ctx<'_>, msg: legion_net::Message) {
        let d = alloc_delta(|| self.class.on_message(ctx, msg));
        self.arrivals.push(d);
    }
    fn on_timer(&mut self, ctx: &mut legion_net::sim::Ctx<'_>, tag: u64) {
        let d = alloc_delta(|| self.class.on_timer(ctx, tag));
        self.serves.push(d);
    }
}

/// An admission-gated class asked for its instance interface over and
/// over by one caller, each reply making the next call. Admitting a call
/// allocates nothing. The handler copies the rendered text the endpoint
/// keeps into a string from the kernel pool: a caller that drops its
/// replies leaves the pool empty, so each serve allocates that one
/// string; a caller that recycles them hands the last reply's buffer
/// back, and a warm serve allocates nothing.
fn instance_interface_serves_into_pooled_strings(recycle: bool) {
    use legion_core::address::ObjectAddressElement;
    use legion_core::value::LegionValue;
    use legion_net::message::Body;
    use legion_net::sim::{Ctx, Endpoint, SimKernel};
    use legion_net::topology::Location;

    struct Asker {
        class: ObjectAddressElement,
        recycle: bool,
        answered: u64,
    }
    impl Endpoint for Asker {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            GatedClass::ask(ctx, self.class);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: legion_net::Message) {
            let Body::Reply { result, .. } = &msg.body else {
                panic!("the asker is only ever answered");
            };
            assert!(matches!(result, Ok(LegionValue::Str(text)) if text.contains("Ping")));
            if self.recycle {
                ctx.recycle_message(msg);
            }
            self.answered += 1;
            if self.answered < GATED_ROUNDS {
                GatedClass::ask(ctx, self.class);
            }
        }
    }

    let mut k = SimKernel::with_seed(LEDGER_SEED);
    let class = GatedClass::attach(&mut k, 200_000, 16);
    let asker = Asker {
        class: class.element(),
        recycle,
        answered: 0,
    };
    let asker = k.add_endpoint(Box::new(asker), Location::new(0, 1), "asker");
    k.run_until_quiescent(u64::MAX);
    assert_eq!(
        k.endpoint::<Asker>(asker).expect("attached").answered,
        GATED_ROUNDS
    );
    let c = k.endpoint::<GatedClass>(class).expect("attached");
    assert_eq!(
        (c.arrivals.len() as u64, c.serves.len() as u64),
        (GATED_ROUNDS, GATED_ROUNDS)
    );
    // The counter is process-wide: take the quietest round, as
    // `alloc_delta_min` does.
    let admit = c.arrivals.iter().min().expect("rounds ran");
    let serve = c.serves.iter().min().expect("rounds ran");
    assert_eq!(*admit, 0, "admitting a call allocated {admit} times");
    let want = if recycle { 0 } else { 1 };
    assert_eq!(
        *serve, want,
        "a GetInstanceInterface serve allocated {serve} times (recycling replies: {recycle})"
    );
}

/// A class whose admission queue is full — one call in a 10 s service —
/// sheds a caller that asks again as soon as it is refused and hands each
/// refusal back to the kernel pool. The retry-after hint is rendered into
/// the string the last refusal returned, so a warm shed allocates nothing.
fn sheds_render_hints_into_pooled_strings() {
    use legion_core::address::ObjectAddressElement;
    use legion_net::dispatch::is_overloaded;
    use legion_net::message::Body;
    use legion_net::sim::{Ctx, Endpoint, SimKernel};
    use legion_net::topology::Location;

    struct Retrier {
        class: ObjectAddressElement,
        shed: u64,
        answered: u64,
    }
    impl Endpoint for Retrier {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            // The first call fills the queue; the second is shed.
            GatedClass::ask(ctx, self.class);
            GatedClass::ask(ctx, self.class);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: legion_net::Message) {
            let Body::Reply { result, .. } = &msg.body else {
                panic!("the retrier is only ever answered");
            };
            match result {
                Ok(_) => self.answered += 1,
                Err(e) => {
                    assert!(is_overloaded(e).is_some(), "not a shed: {e}");
                    self.shed += 1;
                    if self.shed < GATED_ROUNDS {
                        GatedClass::ask(ctx, self.class);
                    }
                }
            }
            ctx.recycle_message(msg);
        }
    }

    let mut k = SimKernel::with_seed(LEDGER_SEED);
    let class = GatedClass::attach(&mut k, 10_000_000_000, 1);
    let retrier = Retrier {
        class: class.element(),
        shed: 0,
        answered: 0,
    };
    let retrier = k.add_endpoint(Box::new(retrier), Location::new(0, 1), "retrier");
    k.run_until_quiescent(u64::MAX);
    let r = k.endpoint::<Retrier>(retrier).expect("attached");
    assert_eq!((r.shed, r.answered), (GATED_ROUNDS, 1));
    let c = k.endpoint::<GatedClass>(class).expect("attached");
    // Arrival 0 is the admitted call and arrival 1 the cold shed, which
    // finds the pool empty; every later arrival is a warm shed.
    assert_eq!(c.arrivals.len() as u64, GATED_ROUNDS + 1);
    let shed = c.arrivals[2..].iter().min().expect("rounds ran");
    assert_eq!(*shed, 0, "a warm shed allocated {shed} times");
}

/// A fault-free E17-shaped wave (the CI-sized point: 73 agents, 16
/// clients, 3 200 lookups). Its clients arm no timers, so every event
/// that is neither a delivery nor a client's start is a Binding Agent's
/// deadline sweep — and an agent arms one per request-timeout period it
/// is busy in, however many upstream calls it makes meanwhile.
fn sweep_timers_follow_timeout_periods_not_calls() {
    use legion_core::address::ObjectAddressElement;
    use legion_core::loid::Loid;
    use legion_naming::agent::AgentConfig;
    use legion_sim::experiments::e17_scale::quick_campaign;

    let row = quick_campaign(LEDGER_SEED);
    assert_eq!(row.failed, 0, "{row:?}");
    let sweeps = row.events - row.messages - row.clients as u64;
    let timeout_ns =
        AgentConfig::root(Loid::class_object(1), ObjectAddressElement::sim(0)).request_timeout_ns;
    let budget = row.agents as u64 * (1 + row.virtual_ns / timeout_ns);
    assert!(
        sweeps <= budget,
        "{sweeps} deadline-sweep timers over {} virtual ns: more than one per agent per \
         {timeout_ns} ns timeout period ({budget}) ({row:?})",
        row.virtual_ns
    );
}

/// 64 idle endpoints, a snapshot every 8 events; between snapshots,
/// deliveries to exactly `spread` of them. A delivery leaves its slot's
/// section as it was (only creation and a kill change one). Measures
/// the step that takes the snapshot, alone.
fn snapshot_allocations_are_none_at_steady_state() {
    use legion_core::env::InvocationEnv;
    use legion_core::loid::Loid;
    use legion_journal::MemSink;
    use legion_net::message::Message;
    use legion_net::sim::{EndpointId, SimKernel};
    use legion_net::topology::Location;

    const SLOTS: usize = 64;
    const SNAP_EVERY: u64 = 8;

    let mut k = SimKernel::with_seed(LEDGER_SEED);
    k.set_flight_dump_on_sweep(false);
    k.enable_journal_record(Box::new(MemSink::new()), SNAP_EVERY);
    let eps: Vec<EndpointId> = (0..SLOTS)
        .map(|i| {
            k.add_endpoint(
                Box::new(Idle),
                Location::new(0, i as u32),
                format!("idle{i}"),
            )
        })
        .collect();
    k.run_until_quiescent(u64::MAX);

    let ping = |k: &mut SimKernel, to: EndpointId| {
        let id = k.fresh_call_id();
        let msg = Message::call(
            id,
            Loid::instance(16, 1),
            "Ping",
            vec![],
            InvocationEnv::anonymous(),
        );
        assert!(k.inject(Location::new(0, 0), to.element(), msg));
    };
    // Eight events, then the step that finds the snapshot due and the
    // queue empty: deliveries spread over `spread` endpoints, or — for
    // none — timer fires. Minimum of three, as in `alloc_delta_min`.
    let snapshot_allocs = |k: &mut SimKernel, spread: usize| {
        (0..3)
            .map(|_| {
                for i in 0..SNAP_EVERY as usize {
                    match spread {
                        0 => assert!(k.set_timer(eps[i], 1, 0)),
                        _ => ping(k, eps[i % spread]),
                    }
                }
                assert_eq!(k.run_until_quiescent(SNAP_EVERY), SNAP_EVERY);
                // The session keeps no store to count: its summary says
                // how many marks it wrote.
                let taken = |k: &mut SimKernel| k.finish_journal().expect("in memory").0.snapshots;
                let before = taken(k);
                let d =
                    alloc_delta(|| assert!(!k.step(), "nothing queued: the step only snapshots"));
                assert_eq!(taken(k), before + 1);
                d
            })
            .min()
            .unwrap()
    };

    for spread in [0usize, 1, 8] {
        let d = snapshot_allocs(&mut k, spread);
        assert_eq!(
            d, 0,
            "fresh: a snapshot after deliveries to {spread} of {SLOTS} slots allocated {d} times"
        );
    }

    // A thousand deliveries to every endpoint from one sender, then
    // measure again: still nothing.
    for _ in 0..1_030 {
        for ep in &eps {
            ping(&mut k, *ep);
        }
        k.run_until_quiescent(u64::MAX);
    }
    for spread in [0usize, 1, 8] {
        let d = snapshot_allocs(&mut k, spread);
        assert_eq!(
            d, 0,
            "well used: a snapshot after deliveries to {spread} of {SLOTS} slots allocated {d} times"
        );
    }
}

/// Thirty thousand appends through a writer that has already handed a block
/// over: the writer frames in a buffer it keeps, so what is allocated is
/// what the sink keeps — one block per [`legion_journal::journal::BLOCK`]
/// bytes.
fn steady_appends_allocate_the_sinks_blocks_only() {
    use legion_journal::journal::BLOCK;
    use legion_journal::{JournalWriter, MemSink, RecordKind};

    let sink = MemSink::new();
    let mut w = JournalWriter::new(Box::new(sink.clone()), 0);
    let mut next = 0u64;
    let mut append = |w: &mut JournalWriter| {
        w.append(
            next * 1_000,
            RecordKind::Deliver,
            next % 64,
            next,
            40_000,
            "GetBinding",
        );
        next += 1;
    };
    while sink.is_empty() {
        append(&mut w);
    }
    let (held, written) = (sink.len(), w.bytes());
    let (a0, b0) = alloc_counter::counts();
    for _ in 0..30_000 {
        append(&mut w);
    }
    let (a1, b1) = alloc_counter::counts();
    let blocks = ((sink.len() - held) / BLOCK) as u64;
    let written = w.bytes() - written;
    assert!(blocks >= 4, "30 000 records fill several blocks: {blocks}");
    // Measured: 5 allocations, 262 289 bytes for 4 blocks (320 298 bytes
    // appended, 10.7 per record) — the blocks, and the sink's list of
    // them doubling once.
    assert!(
        a1 - a0 <= blocks + 1 && b1 - b0 <= written,
        "{} allocations, {} bytes for {blocks} blocks ({written} bytes appended)",
        a1 - a0,
        b1 - b0
    );
}

/// The same 512 injected sends to one idle endpoint, under no faults and
/// under `set_reorder(1.0, …)` (every send gets a `Delay` verdict), with
/// the span sink off. Messages are built outside the measured bracket.
fn delayed_sends_allocate_like_clean_ones() {
    use legion_core::env::InvocationEnv;
    use legion_core::loid::Loid;
    use legion_net::message::Message;
    use legion_net::sim::SimKernel;
    use legion_net::topology::{Location, Topology};
    use legion_net::FaultPlan;

    const SENDS: u64 = 512;
    let allocs_for = |plan: FaultPlan| {
        let mut k = SimKernel::new(Topology::fixed(1_000, 10_000, 1_000_000), plan, LEDGER_SEED);
        let to = k.add_endpoint(Box::new(Idle), Location::new(0, 0), "idle");
        k.run_until_quiescent(u64::MAX);
        let round = |k: &mut SimKernel| {
            let msgs: Vec<Message> = (0..SENDS)
                .map(|_| {
                    let id = k.fresh_call_id();
                    let env = InvocationEnv::anonymous();
                    Message::call(id, Loid::instance(16, 1), "Ping", vec![], env)
                })
                .collect();
            alloc_delta(|| {
                for msg in msgs {
                    assert!(k.inject(Location::new(0, 1), to.element(), msg));
                }
                assert_eq!(k.run_until_quiescent(u64::MAX), SENDS);
            })
        };
        // A first round grows the queue and the message store to a
        // round's size; then take the quietest of a few rounds.
        round(&mut k);
        (0..8).map(|_| round(&mut k)).min().unwrap()
    };
    let clean = allocs_for(FaultPlan::none());
    let mut plan = FaultPlan::seeded(LEDGER_SEED);
    plan.set_reorder(1.0, 5_000);
    let delayed = allocs_for(plan);
    assert!(
        delayed <= clean,
        "{SENDS} delayed sends allocated {delayed} times, {SENDS} clean ones {clean}"
    );
}

/// Waves of ten thousand fresh endpoints, each of which sends one call
/// to an idle receiver from `on_start` over a fault-free network — or,
/// when `duplicating`, one that duplicates every message, its copy a
/// nanosecond behind: all starts run at one instant, all deliveries
/// land one LAN hop later. Measured: a wave's deliveries (and dropped
/// copies), every one from a sender the receiver has never heard from,
/// once a first wave has grown the event queue to the burst's size; the
/// quietest of three waves.
fn fresh_senders_deliver_without_allocating(duplicating: bool) {
    use legion_core::env::InvocationEnv;
    use legion_core::loid::Loid;
    use legion_net::message::Message;
    use legion_net::sim::{Ctx, Endpoint, EndpointId, SimKernel};
    use legion_net::topology::{Location, Topology};
    use legion_net::FaultPlan;

    struct Once {
        to: EndpointId,
    }
    impl Endpoint for Once {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let id = ctx.fresh_call_id();
            let env = InvocationEnv::anonymous();
            let msg = Message::call(id, Loid::instance(16, 1), "Ping", vec![], env);
            assert!(ctx.send(self.to.element(), msg));
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Message) {}
    }

    const SENDERS: u64 = 10_000;
    let topology = Topology::fixed(1_000, 10_000, 1_000_000);
    let mut plan = FaultPlan::none();
    if duplicating {
        plan.set_duplicate_probability(1.0);
    }
    let copies = if duplicating { SENDERS } else { 0 };
    let mut k = SimKernel::new(topology, plan, LEDGER_SEED);
    let to = k.add_endpoint(Box::new(Idle), Location::new(0, 0), "idle");
    k.run_until_quiescent(u64::MAX);
    let wave = |k: &mut SimKernel| {
        for _ in 0..SENDERS {
            k.add_endpoint(Box::new(Once { to }), Location::new(0, 1), "once");
        }
        let t0 = k.now();
        for _ in 0..SENDERS {
            assert!(k.step());
        }
        assert_eq!(k.now(), t0, "every start runs at one instant");
        alloc_delta(|| assert_eq!(k.run_until_quiescent(u64::MAX), SENDERS + copies))
    };
    wave(&mut k);
    let d = (0..3).map(|_| wave(&mut k)).min().unwrap();
    assert_eq!(k.meta(to).unwrap().received, 4 * SENDERS);
    assert_eq!(k.counters().get("net.dedup_dropped"), 4 * copies);
    assert_eq!(
        d, 0,
        "delivering from fresh senders (duplicating: {duplicating}) allocated {d} times"
    );
}

/// Bursts of 256 calls, each carrying one argument drawn from the kernel
/// pool, from one caller to a receiver that recycles what it is sent —
/// over a network that duplicates every message (`duplicating`) or
/// silently drops half of them. The copy of each call is built in pooled
/// buffers and the kernel suppresses it, or the send is lost; either way
/// the buffers go back to the pool. Measured once a first burst has
/// warmed the pool and the kernel's slabs: the quietest of three bursts.
fn faulted_calls_with_arguments_allocate_nothing(duplicating: bool) {
    use legion_core::env::InvocationEnv;
    use legion_core::loid::Loid;
    use legion_core::value::LegionValue;
    use legion_net::message::Message;
    use legion_net::sim::{Ctx, Endpoint, EndpointId, SimKernel};
    use legion_net::topology::{Location, Topology};
    use legion_net::FaultPlan;

    const BURST: u64 = 256;
    struct Caller {
        to: EndpointId,
    }
    impl Endpoint for Caller {
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Message) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
            for i in 0..BURST {
                let id = ctx.fresh_call_id();
                let env = InvocationEnv::anonymous();
                let args = ctx.args([LegionValue::Uint(i)]);
                let msg = Message::call(id, Loid::instance(16, 1), "Ping", args, env);
                assert!(ctx.send(self.to.element(), msg));
            }
        }
    }
    struct Recycler;
    impl Endpoint for Recycler {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            ctx.recycle_message(msg);
        }
    }

    let mut plan = FaultPlan::seeded(LEDGER_SEED);
    if duplicating {
        plan.set_duplicate_probability(1.0);
    } else {
        plan.set_drop_probability(0.5);
    }
    let mut k = SimKernel::new(Topology::fixed(1_000, 10_000, 1_000_000), plan, LEDGER_SEED);
    let to = k.add_endpoint(Box::new(Recycler), Location::new(0, 0), "recycler");
    let from = k.add_endpoint(Box::new(Caller { to }), Location::new(0, 1), "caller");
    k.run_until_quiescent(u64::MAX);
    let burst = |k: &mut SimKernel| {
        alloc_delta(|| {
            assert!(k.set_timer(from, 0, 0));
            k.run_until_quiescent(u64::MAX);
        })
    };
    burst(&mut k);
    let d = (0..3).map(|_| burst(&mut k)).min().unwrap();
    let received = k.meta(to).unwrap().received;
    if duplicating {
        assert_eq!(received, 4 * BURST);
        assert_eq!(k.counters().get("net.dedup_dropped"), 4 * BURST);
    } else {
        assert!(received > 0 && received < 4 * BURST, "{received}");
    }
    assert_eq!(
        d, 0,
        "{BURST} calls with arguments (duplicating: {duplicating}) allocated {d} times"
    );
}

/// Bursts of 255 calls, each carrying one pooled argument, from one
/// caller through Object Addresses whose semantics pick one element — a
/// one-element `Single` address, a `User` one and a three-element
/// `PickRandom` one, in turn — to receivers that recycle what they are
/// sent. Measured once a first burst has warmed the pool and the
/// kernel's slabs: the quietest of three bursts.
fn one_target_address_calls_allocate_nothing() {
    use legion_core::address::{AddressSemantics, ObjectAddress};
    use legion_core::env::InvocationEnv;
    use legion_core::loid::Loid;
    use legion_core::value::LegionValue;
    use legion_net::message::Message;
    use legion_net::sim::{Ctx, Endpoint, SimKernel};
    use legion_net::topology::{Location, Topology};
    use legion_net::FaultPlan;

    const BURST: u64 = 255;
    struct Caller {
        addrs: [ObjectAddress; 3],
    }
    impl Endpoint for Caller {
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Message) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
            for i in 0..BURST {
                let addr = &self.addrs[(i % 3) as usize];
                let args = ctx.args([LegionValue::Uint(i)]);
                let env = InvocationEnv::anonymous();
                let target = Loid::instance(16, 1);
                let id = ctx.call_address(addr, target, symbol::PING, args, env, None);
                assert!(id.is_some());
            }
        }
    }
    struct Recycler;
    impl Endpoint for Recycler {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            ctx.recycle_message(msg);
        }
    }

    let topology = Topology::fixed(1_000, 10_000, 1_000_000);
    let mut k = SimKernel::new(topology, FaultPlan::none(), LEDGER_SEED);
    let to = [0, 1, 2].map(|host| {
        k.add_endpoint(Box::new(Recycler), Location::new(0, host), "recycler")
            .element()
    });
    let addrs = [
        ObjectAddress::single(to[0]),
        ObjectAddress::replicated(vec![to[1]], AddressSemantics::User(7)),
        ObjectAddress::replicated(to.to_vec(), AddressSemantics::PickRandom),
    ];
    let from = k.add_endpoint(Box::new(Caller { addrs }), Location::new(0, 3), "caller");
    k.run_until_quiescent(u64::MAX);
    let burst = |k: &mut SimKernel| {
        alloc_delta(|| {
            assert!(k.set_timer(from, 0, 0));
            assert_eq!(k.run_until_quiescent(u64::MAX), 1 + BURST);
        })
    };
    burst(&mut k);
    let d = (0..3).map(|_| burst(&mut k)).min().unwrap();
    assert_eq!(
        d, 0,
        "{BURST} one-target calls through addresses allocated {d} times"
    );
}

/// SLO samples in kernel order, 100 000 per 10 000 one-microsecond
/// windows: one sent every 100 ns to one of eight endpoints, each
/// landing 2–5 µs later, so several windows are open at once and
/// arrivals are not monotone. Measured once a first 100 000 have grown
/// the open windows' buffers and the per-endpoint tally: the quietest
/// of three runs of 100 000, 200 000 and 400 000 samples. Each run is
/// longer than all before it, so a store that grows with the samples
/// recorded (a per-delivery log, doubling) allocates in every run.
fn warm_slo_tracker_records_without_allocating() {
    use legion_obs::slo::{SloConfig, SloTracker};

    const SAMPLES: u64 = 100_000;
    let mut t = SloTracker::new(SloConfig {
        window_ns: 1_000,
        ..SloConfig::default()
    });
    let sample = |i: u64| {
        let latency = 2_000 + (i * 7_919) % 3_000;
        (i * 100 + latency, i % 8, latency)
    };
    let (mut next, mut run) = (0u64, SAMPLES);
    let mut wave = |len: u64| {
        for i in next..next + len {
            let (at, endpoint, latency) = sample(i);
            t.record(at, endpoint, latency);
        }
        next += len;
    };
    wave(SAMPLES);
    let d = alloc_delta_min(|| {
        wave(run);
        run *= 2;
    });
    assert_eq!(
        d, 0,
        "a warm SLO tracker allocated {d} times for {SAMPLES} samples"
    );
    let report = t.report(|e| format!("ep{e}")).expect("tracking is on");
    let mut windows = std::collections::BTreeSet::new();
    for (at, endpoint, _) in (0..8 * SAMPLES).map(sample) {
        windows.insert((endpoint, at / 1_000));
    }
    let judged: u64 = report.endpoints.iter().map(|e| e.windows).sum();
    assert_eq!(report.endpoints.len(), 8);
    assert_eq!(
        judged,
        windows.len() as u64,
        "every (endpoint, window) judged once"
    );
    assert!(report.endpoints.iter().all(|e| e.violating == 0));
}

/// The `lifecycle_churn` migration in miniature: a churn driver moves
/// eight objects round and round between two Magistrates, a five-agent
/// tree standing by — `Move` to the source Magistrate, `ReceiveOpr` to
/// the destination, their two replies, and one one-way notice to the
/// class from each (`AddMagistrate`, `RemoveMagistrate`): six messages.
/// Nobody asks for the objects, so after its first move each stays Inert
/// — no address, no holder, and so no agent is told anything: measured
/// once every object has moved many times and every pool is warm.
///
/// The OPR's bytes travel in one buffer: the source copies its stored
/// file into a pooled one, the destination's codec moves it out of the
/// call onto its disk, and the file the source deletes goes back to the
/// pool. The lap is longer than a move's round trip, so no Move finds
/// its object still shipping and none is refused: a refusal renders its
/// reason into a fresh string.
fn inert_moves_allocate_nothing() {
    use legion_core::address::ObjectAddressElement;
    use legion_core::loid::Loid;
    use legion_naming::tree::TreeShape;
    use legion_net::topology::Location;
    use legion_sim::experiments::e08_stale_bindings::ChurnDriver;
    use legion_sim::{LegionSystem, SystemConfig};

    const WARM: u64 = 256;
    const MEASURED: u64 = 128;
    let mut sys = LegionSystem::build(SystemConfig {
        agent_tree: TreeShape::new(4, 5),
        objects_per_class: 8,
        seed: LEDGER_SEED,
        ..SystemConfig::default()
    });
    let magistrates: Vec<(Loid, ObjectAddressElement)> = sys
        .magistrates
        .iter()
        .map(|(loid, ep)| (*loid, ep.element()))
        .collect();
    let churner = ChurnDriver::new(
        magistrates,
        sys.objects.clone(),
        // Longer than a move takes: an object is never asked to move
        // while its last move is still in flight.
        500_000_000,
        WARM + MEASURED,
        Vec::new(),
        true,
    );
    let k = &mut sys.kernel;
    let churner = k.add_endpoint(Box::new(churner), Location::new(0, 800), "churn-driver");
    let run_to = |k: &mut legion_net::sim::SimKernel, moves: u64| {
        while k
            .endpoint::<ChurnDriver>(churner)
            .expect("attached")
            .moves_ok
            < moves
        {
            assert!(k.step(), "the churn driver stalled");
        }
    };
    run_to(k, WARM);
    let sent = k.stats().sent;
    let d = alloc_delta(|| run_to(k, WARM + MEASURED));
    let sent = k.stats().sent - sent;
    assert_eq!(sent, 6 * MEASURED, "{sent} messages: not the Inert path");
    let churner = k.endpoint::<ChurnDriver>(churner).expect("attached");
    assert_eq!(churner.moves_failed, 0, "a Move was refused");
    // The event queue adds none once the warm moves have grown it. The
    // `ReceiveOpr` call parks as data in the capacity the source's call
    // store kept.
    assert_eq!(
        d, 0,
        "{MEASURED} moves of Inert objects allocated {d} times"
    );
}

/// A Host Object starting and reaping object processes: per activation
/// the endpoint, its object and its name; no method table.
fn host_activations_build_no_method_table() {
    use legion_core::env::InvocationEnv;
    use legion_core::loid::Loid;
    use legion_core::value::LegionValue;
    use legion_net::message::Message;
    use legion_net::sim::SimKernel;
    use legion_net::topology::Location;
    use legion_runtime::host::{HostConfig, HostObjectEndpoint};
    use legion_runtime::protocol::{host as host_proto, ActivationSpec};

    const WARM: u64 = 64;
    const MEASURED: u64 = 64;
    let host_loid = Loid::instance(3, 1);
    let mut k = SimKernel::with_seed(LEDGER_SEED);
    let host = k.add_endpoint(
        Box::new(HostObjectEndpoint::new(HostConfig {
            loid: host_loid,
            capacity: 4096,
            magistrate: None,
            class_addr: None,
        })),
        Location::new(0, 0),
        "host",
    );
    let sink = k.add_endpoint(Box::new(Idle), Location::new(0, 1), "magistrate");
    k.run_until_quiescent(u64::MAX);
    // Every call of a round is built before the bracket opens; the round
    // is the injections and the handlers they run.
    type Args<'a> = &'a dyn Fn(u64) -> Vec<LegionValue>;
    let round = |k: &mut SimKernel, method, args: Args<'_>, seqs: std::ops::Range<u64>| {
        let msgs: Vec<Message> = seqs
            .map(|seq| {
                let env = InvocationEnv::solo(Loid::instance(4, 1));
                let mut msg = Message::call(k.fresh_call_id(), host_loid, method, args(seq), env);
                msg.reply_to = Some(sink.element());
                msg
            })
            .collect();
        alloc_delta(|| {
            for msg in msgs {
                assert!(k.inject(Location::new(0, 1), host.element(), msg));
            }
            k.run_until_quiescent(u64::MAX);
        })
    };
    let object = |seq| Loid::instance(16, seq);
    let activate = |seq| {
        let spec = ActivationSpec {
            loid: object(seq),
            class: Loid::class_object(16),
            state: b"v 1\n".to_vec(),
            class_addr: None,
            magistrate_addr: None,
        };
        spec.into_args().into()
    };
    let deactivate = |seq| vec![LegionValue::Loid(object(seq))];
    round(&mut k, host_proto::ACTIVATE, &activate, 0..WARM);
    round(&mut k, host_proto::DEACTIVATE, &deactivate, 0..WARM);
    let up = round(
        &mut k,
        host_proto::ACTIVATE,
        &activate,
        WARM..WARM + MEASURED,
    );
    let down = round(
        &mut k,
        host_proto::DEACTIVATE,
        &deactivate,
        WARM..WARM + MEASURED,
    );
    assert_eq!(k.counters().get("host.activations"), WARM + MEASURED);
    assert_eq!(k.counters().get("host.deactivations"), WARM + MEASURED);
    // Measured 6.44 an activation (103.44 when each built its own table)
    // and 0.36 a deactivation (unchanged: the counter sees no frees, and
    // dropping the table was all a deactivation paid for it).
    assert!(
        up <= 7 * MEASURED,
        "{MEASURED} HostActivate calls allocated {up} times: more than seven each"
    );
    assert!(
        down <= MEASURED / 2,
        "{MEASURED} HostDeactivate calls allocated {down} times"
    );
}
