//! End-to-end tests of the §4.1 binding protocol: client → Binding Agent
//! → (parent agents) → responsible class → LegionClass, with caching,
//! combining, refresh, and failure handling.

use legion_core::address::{ObjectAddress, ObjectAddressElement};
use legion_core::binding::Binding;
use legion_core::loid::Loid;
use legion_core::wellknown::LEGION_CLASS;
use legion_naming::agent::{AgentConfig, BindingAgentEndpoint};
use legion_naming::resolver::{ClientResolver, Lookup};
use legion_naming::stubs::{StaticClassEndpoint, StaticLegionClassEndpoint};
use legion_net::message::Message;
use legion_net::sim::{Ctx, Endpoint, EndpointId, SimKernel};
use legion_net::topology::{Location, Topology};
use legion_net::FaultPlan;

const FILE_CLASS_ID: u64 = 16;

fn file_class() -> Loid {
    Loid::class_object(FILE_CLASS_ID)
}

fn file(seq: u64) -> Loid {
    Loid::instance(FILE_CLASS_ID, seq)
}

fn sim_binding(loid: Loid, ep: EndpointId) -> Binding {
    Binding::forever(loid, ObjectAddress::single(ep.element()))
}

/// A test client that resolves a list of targets through its resolver and
/// records outcomes.
struct TestClient {
    resolver: ClientResolver,
    to_resolve: Vec<Loid>,
    resolved: Vec<(Loid, Result<Binding, String>)>,
}

impl TestClient {
    fn new(me: Loid, agent: ObjectAddressElement, targets: Vec<Loid>) -> Self {
        TestClient {
            resolver: ClientResolver::new(me, agent, 64),
            to_resolve: targets,
            resolved: Vec::new(),
        }
    }

    fn kick(&mut self, ctx: &mut Ctx<'_>) {
        while let Some(t) = self.to_resolve.pop() {
            match self.resolver.lookup(ctx, t) {
                Lookup::Cached(b) => self.resolved.push((t, Ok(b))),
                Lookup::Requested(_) => break, // wait for the reply
                Lookup::AgentUnreachable => {
                    self.resolved.push((t, Err("agent unreachable".into())))
                }
            }
        }
    }
}

impl Endpoint for TestClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.kick(ctx);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        if let Ok(done) = self.resolver.handle_reply_owned(ctx, msg) {
            self.resolved.push(done);
            self.kick(ctx);
        }
    }
}

/// World: LegionClass stub + one file class with `n_files` instances +
/// one Binding Agent (optionally a chain of agents) + helpers.
struct World {
    kernel: SimKernel,
    legion_class: EndpointId,
    class: EndpointId,
    agents: Vec<EndpointId>,
}

fn build_world(n_files: u64, agent_chain: usize, seed: u64) -> World {
    let mut kernel = SimKernel::new(
        Topology::fixed(1_000, 10_000, 1_000_000),
        FaultPlan::none(),
        seed,
    );

    // Object endpoints the bindings will point at (just echoes).
    struct Dummy;
    impl Endpoint for Dummy {
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Message) {}
    }

    // LegionClass lives in jurisdiction 0.
    let legion_class = kernel.add_endpoint(
        Box::new(StaticLegionClassEndpoint::new()),
        Location::new(0, 0),
        "LegionClass",
    );

    // The file class in jurisdiction 0, host 1.
    let mut class_ep = StaticClassEndpoint::new(file_class());
    for i in 1..=n_files {
        let obj = kernel.add_endpoint(Box::new(Dummy), Location::new(0, 2), format!("file{i}"));
        class_ep = class_ep.with(sim_binding(file(i), obj));
    }
    let class = kernel.add_endpoint(Box::new(class_ep), Location::new(0, 1), "FileClass");

    // Register the class binding with LegionClass (chain end: LegionClass
    // maintains bindings for classes whose pairs it holds — here we let
    // the stub hand the class binding out directly).
    {
        let lc = kernel
            .endpoint_mut::<StaticLegionClassEndpoint>(legion_class)
            .unwrap();
        lc.class_bindings
            .insert(file_class(), sim_binding(file_class(), class));
        lc.responsible.insert(file_class(), LEGION_CLASS);
    }

    // A chain of agents: agents[0] is the root (goes to classes), each
    // subsequent agent uses the previous as its parent.
    let mut agents = Vec::new();
    for i in 0..agent_chain {
        let loid = Loid::instance(5, i as u64 + 1);
        let mut cfg = AgentConfig::root(loid, legion_class.element());
        if i > 0 {
            cfg = cfg.with_parent(agents[i - 1]);
        }
        let id = kernel.add_endpoint(
            Box::new(BindingAgentEndpoint::new(cfg)),
            Location::new(0, 3 + i as u32),
            format!("agent{i}"),
        );
        agents.push(id.element());
    }
    let agents = agents
        .iter()
        .map(|e| EndpointId(e.sim_endpoint().unwrap()))
        .collect();

    World {
        kernel,
        legion_class,
        class,
        agents,
    }
}

fn add_client(world: &mut World, seq: u64, targets: Vec<Loid>) -> EndpointId {
    let agent = *world.agents.last().expect("at least one agent");
    world.kernel.add_endpoint(
        Box::new(TestClient::new(
            Loid::instance(99, seq),
            agent.element(),
            targets,
        )),
        Location::new(0, 50 + seq as u32),
        format!("client{seq}"),
    )
}

#[test]
fn full_path_resolution_instance() {
    let mut w = build_world(3, 1, 1);
    let client = add_client(&mut w, 1, vec![file(2)]);
    w.kernel.run_until_quiescent(10_000);
    let c = w.kernel.endpoint::<TestClient>(client).unwrap();
    assert_eq!(c.resolved.len(), 1);
    let (loid, result) = &c.resolved[0];
    assert_eq!(*loid, file(2));
    assert!(result.is_ok(), "{result:?}");
    // The class was consulted exactly once for the instance...
    let cls = w.kernel.endpoint::<StaticClassEndpoint>(w.class).unwrap();
    assert_eq!(cls.requests, 1);
    // ...and LegionClass twice: FindResponsible(class) + GetBinding(class).
    let lc = w
        .kernel
        .endpoint::<StaticLegionClassEndpoint>(w.legion_class)
        .unwrap();
    assert_eq!(lc.total_requests(), 2);
}

#[test]
fn second_lookup_hits_agent_cache() {
    let mut w = build_world(3, 1, 2);
    let c1 = add_client(&mut w, 1, vec![file(1)]);
    w.kernel.run_until_quiescent(10_000);
    let c2 = add_client(&mut w, 2, vec![file(1)]);
    w.kernel.run_until_quiescent(10_000);
    for c in [c1, c2] {
        let cl = w.kernel.endpoint::<TestClient>(c).unwrap();
        assert!(cl.resolved[0].1.is_ok());
    }
    // The class saw only the first request; the agent cache served c2.
    let cls = w.kernel.endpoint::<StaticClassEndpoint>(w.class).unwrap();
    assert_eq!(cls.requests, 1);
    assert_eq!(w.kernel.counters().get("ba.cache_hit"), 1);
}

#[test]
fn client_cache_serves_repeat_lookups_locally() {
    let mut w = build_world(1, 1, 3);
    // Same target twice: second comes from the client's own cache.
    let client = add_client(&mut w, 1, vec![file(1), file(1)]);
    w.kernel.run_until_quiescent(10_000);
    let c = w.kernel.endpoint::<TestClient>(client).unwrap();
    assert_eq!(c.resolved.len(), 2);
    assert!(c.resolved.iter().all(|(_, r)| r.is_ok()));
    assert_eq!(c.resolver.stats().local_hits, 1);
    assert_eq!(c.resolver.stats().agent_requests, 1);
}

#[test]
fn concurrent_requests_are_combined() {
    let mut w = build_world(1, 1, 4);
    // Five clients ask for the same file at the same instant.
    let clients: Vec<_> = (0..5)
        .map(|i| add_client(&mut w, i, vec![file(1)]))
        .collect();
    w.kernel.run_until_quiescent(100_000);
    for c in clients {
        let cl = w.kernel.endpoint::<TestClient>(c).unwrap();
        assert!(cl.resolved[0].1.is_ok());
    }
    // One upstream chain regardless of five concurrent waiters.
    let cls = w.kernel.endpoint::<StaticClassEndpoint>(w.class).unwrap();
    assert_eq!(cls.requests, 1);
    assert!(w.kernel.counters().get("ba.combined") >= 4);
}

/// The agent owns the upstream reply: one binding box comes back from
/// the class, every combined waiter is answered with an equal copy of
/// it, and a reply to a call that is no longer pending is counted and
/// changes nothing.
#[test]
fn combined_waiters_are_answered_from_one_owned_reply() {
    use legion_core::env::InvocationEnv;
    use legion_net::message::CallId;

    const WAITERS: u64 = 7;
    let mut w = build_world(1, 1, 13);
    let clients: Vec<_> = (0..WAITERS)
        .map(|i| add_client(&mut w, i, vec![file(1)]))
        .collect();
    w.kernel.run_until_quiescent(100_000);

    let cls = w.kernel.endpoint::<StaticClassEndpoint>(w.class).unwrap();
    assert_eq!(cls.requests, 1, "one upstream request for all waiters");
    let expected = cls.table[&file(1)].clone();
    for c in &clients {
        let cl = w.kernel.endpoint::<TestClient>(*c).unwrap();
        assert_eq!(cl.resolved, vec![(file(1), Ok(expected.clone()))]);
    }
    assert_eq!(w.kernel.counters().get("ba.combined"), WAITERS - 1);
    let agent = w.agents[0];
    let cached = |w: &World| {
        w.kernel
            .endpoint::<BindingAgentEndpoint>(agent)
            .unwrap()
            .cache_len()
    };
    assert_eq!(cached(&w), 2, "the class's binding and the file's");

    // A second answer to a call the agent has already resolved.
    let stray_call = Message::call(
        CallId(u64::MAX),
        file_class(),
        "GetBinding",
        vec![],
        InvocationEnv::anonymous(),
    );
    let elsewhere = sim_binding(file(2), w.legion_class);
    let late = Message::reply_to(&stray_call, CallId(u64::MAX - 1), Ok(elsewhere.into()));
    assert!(w.kernel.inject(Location::new(0, 1), agent.element(), late));
    w.kernel.run_until_quiescent(100_000);
    assert_eq!(w.kernel.counters().get("ba.late_reply"), 1);
    assert_eq!(cached(&w), 2, "a late reply is not cached");
    for c in &clients {
        let cl = w.kernel.endpoint::<TestClient>(*c).unwrap();
        assert_eq!(cl.resolved.len(), 1, "nobody is answered twice");
    }
}

#[test]
fn agent_chain_resolves_through_parents() {
    let mut w = build_world(2, 3, 5);
    let client = add_client(&mut w, 1, vec![file(2)]);
    w.kernel.run_until_quiescent(100_000);
    let c = w.kernel.endpoint::<TestClient>(client).unwrap();
    assert!(c.resolved[0].1.is_ok());
    // The leaf consulted its parent, which consulted the root.
    assert!(w.kernel.counters().get("ba.to_parent") >= 2);
    // Every agent along the path now caches the binding.
    for a in &w.agents {
        let agent = w.kernel.endpoint::<BindingAgentEndpoint>(*a).unwrap();
        assert!(agent.cache_len() >= 1, "agent should have cached");
    }
}

#[test]
fn unknown_object_fails_cleanly() {
    let mut w = build_world(1, 1, 6);
    let client = add_client(&mut w, 1, vec![file(99)]);
    w.kernel.run_until_quiescent(10_000);
    let c = w.kernel.endpoint::<TestClient>(client).unwrap();
    assert_eq!(c.resolved.len(), 1);
    assert!(c.resolved[0].1.is_err());
}

#[test]
fn unknown_class_fails_cleanly() {
    let mut w = build_world(1, 1, 7);
    // An instance of a class nobody registered.
    let stranger = Loid::instance(777, 1);
    let client = add_client(&mut w, 1, vec![stranger]);
    w.kernel.run_until_quiescent(10_000);
    let c = w.kernel.endpoint::<TestClient>(client).unwrap();
    assert!(c.resolved[0].1.is_err());
}

#[test]
fn class_object_lookup_via_responsibility() {
    let mut w = build_world(1, 1, 8);
    let client = add_client(&mut w, 1, vec![file_class()]);
    w.kernel.run_until_quiescent(10_000);
    let c = w.kernel.endpoint::<TestClient>(client).unwrap();
    let (loid, result) = &c.resolved[0];
    assert_eq!(*loid, file_class());
    let b = result.as_ref().unwrap();
    assert_eq!(b.loid, file_class());
}

#[test]
fn refresh_bypasses_caches_and_reaches_class() {
    let mut w = build_world(1, 2, 9);
    let client = add_client(&mut w, 1, vec![file(1)]);
    w.kernel.run_until_quiescent(100_000);

    // Simulate migration: the class's table now points at a new endpoint.
    struct Dummy;
    impl Endpoint for Dummy {
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Message) {}
    }
    let new_obj = w
        .kernel
        .add_endpoint(Box::new(Dummy), Location::new(0, 40), "file1-v2");
    let fresh = sim_binding(file(1), new_obj);
    {
        let cls = w
            .kernel
            .endpoint_mut::<StaticClassEndpoint>(w.class)
            .unwrap();
        cls.table.insert(file(1), fresh.clone());
    }

    // Client reports its old binding stale → refresh through the
    // GetBinding(binding) overload → straight to the class.
    let class_requests_before = w
        .kernel
        .endpoint::<StaticClassEndpoint>(w.class)
        .unwrap()
        .requests;
    let old = {
        let c = w.kernel.endpoint::<TestClient>(client).unwrap();
        c.resolved[0].1.clone().unwrap()
    };
    // Drive the refresh from a fresh client-side call: reuse the client's
    // resolver by sending it through kernel manipulation.
    struct Refresher {
        resolver: ClientResolver,
        stale: Option<Binding>,
        outcome: Option<Result<Binding, String>>,
    }
    impl Endpoint for Refresher {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let stale = self.stale.take().unwrap();
            self.resolver.report_stale(ctx, stale);
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            if let Ok((_, r)) = self.resolver.handle_reply_owned(ctx, msg) {
                self.outcome = Some(r);
            }
        }
    }
    let leaf_agent = w.agents.last().unwrap().element();
    let refresher = w.kernel.add_endpoint(
        Box::new(Refresher {
            resolver: ClientResolver::new(Loid::instance(99, 9), leaf_agent, 8),
            stale: Some(old),
            outcome: None,
        }),
        Location::new(0, 41),
        "refresher",
    );
    w.kernel.run_until_quiescent(100_000);
    let r = w.kernel.endpoint::<Refresher>(refresher).unwrap();
    let got = r.outcome.clone().expect("refresh completed").expect("ok");
    assert_eq!(
        got.address, fresh.address,
        "refresh returned the new address"
    );
    let class_requests_after = w
        .kernel
        .endpoint::<StaticClassEndpoint>(w.class)
        .unwrap()
        .requests;
    assert!(
        class_requests_after > class_requests_before,
        "refresh must reach the class, not a cache"
    );
    assert!(w.kernel.counters().get("ba.refresh") >= 1);
}

#[test]
fn agent_with_disabled_cache_always_consults_class() {
    let mut kernel = SimKernel::new(Topology::zero(), FaultPlan::none(), 10);
    struct Dummy;
    impl Endpoint for Dummy {
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Message) {}
    }
    let legion_class = kernel.add_endpoint(
        Box::new(StaticLegionClassEndpoint::new()),
        Location::new(0, 0),
        "LegionClass",
    );
    let obj = kernel.add_endpoint(Box::new(Dummy), Location::new(0, 1), "obj");
    let class_ep = StaticClassEndpoint::new(file_class()).with(sim_binding(file(1), obj));
    let class = kernel.add_endpoint(Box::new(class_ep), Location::new(0, 1), "FileClass");
    {
        let lc = kernel
            .endpoint_mut::<StaticLegionClassEndpoint>(legion_class)
            .unwrap();
        lc.class_bindings
            .insert(file_class(), sim_binding(file_class(), class));
        lc.responsible.insert(file_class(), LEGION_CLASS);
    }

    let mut cfg = AgentConfig::root(Loid::instance(5, 1), legion_class.element());
    cfg.cache_enabled = false;
    let agent = kernel.add_endpoint(
        Box::new(BindingAgentEndpoint::new(cfg)),
        Location::new(0, 2),
        "agent",
    );

    for i in 0..3 {
        let client = kernel.add_endpoint(
            Box::new(TestClient::new(
                Loid::instance(99, i),
                agent.element(),
                vec![file(1)],
            )),
            Location::new(0, 3),
            format!("client{i}"),
        );
        kernel.run_until_quiescent(10_000);
        let c = kernel.endpoint::<TestClient>(client).unwrap();
        assert!(c.resolved[0].1.is_ok());
    }
    // Without a cache the class answers every time.
    let cls = kernel.endpoint::<StaticClassEndpoint>(class).unwrap();
    assert_eq!(cls.requests, 3);
    assert_eq!(kernel.counters().get("ba.cache_hit"), 0);
}

#[test]
fn timeouts_retry_and_eventually_fail() {
    // 100% loss between client's jurisdiction and the class's: the agent
    // (same jurisdiction as class) can't be reached by... actually drop
    // all traffic: every upstream request times out; waiters get an error.
    let mut w = build_world(1, 1, 11);
    w.kernel.faults_mut().set_drop_probability(1.0);
    let client = add_client(&mut w, 1, vec![file(1)]);
    // The client's GetBinding to the agent is itself silently lost, so the
    // client never hears back — drive long enough for agent-side timers
    // (none will fire: the agent never got the request).
    w.kernel
        .run_until(legion_core::time::SimTime::from_secs(10));
    let c = w.kernel.endpoint::<TestClient>(client).unwrap();
    assert!(
        c.resolved.is_empty(),
        "silent loss leaves the request pending"
    );
    assert_eq!(c.resolver.pending_count(), 1);

    // Now heal the network and let a fresh client resolve; then partition
    // only agent→class traffic... simpler: drop everything again but let
    // the request reach the agent first.
    w.kernel.faults_mut().set_drop_probability(0.0);
    let client2 = add_client(&mut w, 2, vec![file(1)]);
    w.kernel.run_until_quiescent(100_000);
    let c2 = w.kernel.endpoint::<TestClient>(client2).unwrap();
    assert!(c2.resolved[0].1.is_ok());
}

#[test]
fn agent_timeout_fails_waiters_when_class_dies_midway() {
    let mut w = build_world(1, 1, 12);
    // Kill the class before anyone resolves: LegionClass still hands out
    // the (now stale) class binding; the agent's send to the class is
    // refused; after retries the agent reports failure.
    w.kernel.remove_endpoint(w.class);
    let client = add_client(&mut w, 1, vec![file(1)]);
    w.kernel
        .run_until(legion_core::time::SimTime::from_secs(30));
    let c = w.kernel.endpoint::<TestClient>(client).unwrap();
    assert_eq!(c.resolved.len(), 1);
    assert!(c.resolved[0].1.is_err());
}

#[test]
fn deterministic_given_seed() {
    let run = |seed: u64| {
        let mut w = build_world(5, 2, seed);
        for i in 0..4 {
            add_client(&mut w, i, vec![file(1 + i % 5), file(1), file_class()]);
        }
        w.kernel.run_until_quiescent(1_000_000);
        (
            w.kernel.now(),
            w.kernel.stats().delivered,
            w.kernel.counters().get("ba.cache_hit"),
            w.kernel.counters().get("ba.cache_miss"),
        )
    };
    assert_eq!(run(77), run(77));
}

#[test]
fn add_binding_propagation_preseeds_agent() {
    // §3.6: AddBinding "can be used ... to explicitly propagate binding
    // information for performance purposes."
    let mut w = build_world(1, 1, 13);
    let agent = w.agents[0];
    // Learn the object's true binding from the class, then push it to the
    // agent before any client asks.
    let cls = w.kernel.endpoint::<StaticClassEndpoint>(w.class).unwrap();
    let b = cls.table.get(&file(1)).unwrap().clone();
    #[derive(Default)]
    struct Pusher {
        binding: Option<Binding>,
        agent: Option<legion_core::address::ObjectAddressElement>,
        heard_back: u32,
    }
    impl Endpoint for Pusher {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let b = self.binding.take().unwrap();
            legion_naming::stale::propagate_binding(
                ctx,
                Loid::instance(99, 99),
                &[self.agent.unwrap()],
                &b,
            );
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Message) {
            self.heard_back += 1;
        }
    }
    let pusher = w.kernel.add_endpoint(
        Box::new(Pusher {
            binding: Some(b),
            agent: Some(agent.element()),
            heard_back: 0,
        }),
        Location::new(0, 60),
        "pusher",
    );
    w.kernel.run_until_quiescent(10_000);
    // Now a client lookup is served from the agent cache without any
    // class traffic.
    let class_before = w
        .kernel
        .endpoint::<StaticClassEndpoint>(w.class)
        .unwrap()
        .requests;
    let client = add_client(&mut w, 1, vec![file(1)]);
    w.kernel.run_until_quiescent(10_000);
    let c = w.kernel.endpoint::<TestClient>(client).unwrap();
    assert!(c.resolved[0].1.is_ok());
    let class_after = w
        .kernel
        .endpoint::<StaticClassEndpoint>(w.class)
        .unwrap()
        .requests;
    assert_eq!(class_before, class_after, "AddBinding preseeded the cache");
    assert_eq!(w.kernel.counters().get("stale.bindings_propagated"), 1);
    assert_eq!(
        w.kernel.endpoint::<Pusher>(pusher).unwrap().heard_back,
        0,
        "the push is a notice: the agent sends no acknowledgement"
    );
}

#[test]
fn invalidate_binding_both_overloads_on_the_wire() {
    let mut w = build_world(1, 1, 14);
    let agent = w.agents[0];
    // Warm the agent's cache.
    let client = add_client(&mut w, 1, vec![file(1)]);
    w.kernel.run_until_quiescent(10_000);
    let binding = w.kernel.endpoint::<TestClient>(client).unwrap().resolved[0]
        .1
        .clone()
        .unwrap();
    assert_eq!(
        w.kernel
            .endpoint::<BindingAgentEndpoint>(agent)
            .unwrap()
            .cache_len(),
        2
    );

    // Exact-overload with a WRONG address: must not evict.
    #[derive(Default)]
    struct Invalidator {
        agent: Option<legion_core::address::ObjectAddressElement>,
        arg: Option<legion_core::value::LegionValue>,
        done: bool,
    }
    impl Endpoint for Invalidator {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let id = ctx.fresh_call_id();
            let mut msg = Message::call(
                id,
                Loid::instance(5, 1),
                legion_naming::protocol::INVALIDATE_BINDING,
                vec![self.arg.take().unwrap()],
                legion_core::env::InvocationEnv::anonymous(),
            );
            msg.reply_to = Some(ctx.self_element());
            ctx.send(self.agent.unwrap(), msg);
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Message) {
            self.done = true;
        }
    }
    let mut wrong = binding.clone();
    wrong.address = legion_core::address::ObjectAddress::single(
        legion_core::address::ObjectAddressElement::sim(4040),
    );
    let inv1 = w.kernel.add_endpoint(
        Box::new(Invalidator {
            agent: Some(agent.element()),
            arg: Some(legion_core::value::LegionValue::from(wrong)),
            done: false,
        }),
        Location::new(0, 61),
        "inv1",
    );
    w.kernel.run_until_quiescent(10_000);
    assert!(w.kernel.endpoint::<Invalidator>(inv1).unwrap().done);
    assert_eq!(
        w.kernel
            .endpoint::<BindingAgentEndpoint>(agent)
            .unwrap()
            .cache_len(),
        2,
        "mismatched exact-invalidate leaves the cache alone"
    );

    // LOID overload: evicts.
    let inv2 = w.kernel.add_endpoint(
        Box::new(Invalidator {
            agent: Some(agent.element()),
            arg: Some(legion_core::value::LegionValue::Loid(file(1))),
            done: false,
        }),
        Location::new(0, 62),
        "inv2",
    );
    w.kernel.run_until_quiescent(10_000);
    assert!(w.kernel.endpoint::<Invalidator>(inv2).unwrap().done);
    assert_eq!(
        w.kernel
            .endpoint::<BindingAgentEndpoint>(agent)
            .unwrap()
            .cache_len(),
        1,
        "LOID invalidate evicted the object binding"
    );
}

/// News of a migration can arrive late — after the agent already
/// refreshed. The notice names the binding it is about, and the agent
/// evicts on an exact match only, so the fresher entry stays; and being
/// a notice, nothing is sent back either way.
#[test]
fn a_late_notice_for_the_old_address_leaves_the_fresher_binding() {
    let mut w = build_world(1, 1, 16);
    let agent = w.agents[0];
    let client = add_client(&mut w, 1, vec![file(1)]);
    w.kernel.run_until_quiescent(10_000);
    let held = w.kernel.endpoint::<TestClient>(client).unwrap().resolved[0]
        .1
        .clone()
        .unwrap();

    struct Notifier {
        agent: ObjectAddressElement,
        about: Option<Binding>,
        heard_back: u32,
    }
    impl Endpoint for Notifier {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let about = self.about.take().unwrap();
            let (class, target) = (about.loid.class_loid(), about.loid);
            let args = vec![legion_core::value::LegionValue::from(about)];
            let env = legion_core::env::InvocationEnv::solo(class);
            let method = legion_naming::protocol::INVALIDATE_BINDING;
            assert!(ctx.notify(self.agent, target, method, args, env, Some(class)));
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Message) {
            self.heard_back += 1;
        }
    }
    let notify = |w: &mut World, about: Binding| {
        let notifier = Notifier {
            agent: agent.element(),
            about: Some(about),
            heard_back: 0,
        };
        let id = w
            .kernel
            .add_endpoint(Box::new(notifier), Location::new(0, 70), "class-notice");
        w.kernel.run_until_quiescent(10_000);
        let heard_back = w.kernel.endpoint::<Notifier>(id).unwrap().heard_back;
        assert_eq!(heard_back, 0, "a notice is never answered");
        let a = w.kernel.endpoint::<BindingAgentEndpoint>(agent).unwrap();
        (a.cache_len(), a.cache_stats().invalidations)
    };

    // The object used to live somewhere else; that news is stale.
    let old = Binding::forever(
        file(1),
        ObjectAddress::single(ObjectAddressElement::sim(4040)),
    );
    assert_eq!(
        notify(&mut w, old),
        (2, 0),
        "class and object both still cached"
    );
    // News about the binding the agent does hold evicts it.
    assert_eq!(notify(&mut w, held), (1, 1));
}

#[test]
fn agent_rejects_malformed_requests_on_the_wire() {
    let mut w = build_world(1, 1, 15);
    let agent = w.agents[0];
    #[derive(Default)]
    struct BadCaller {
        agent: Option<legion_core::address::ObjectAddressElement>,
        errors: Vec<String>,
    }
    impl Endpoint for BadCaller {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for (method, args) in [
                (legion_naming::protocol::GET_BINDING, vec![]),
                (
                    legion_naming::protocol::ADD_BINDING,
                    vec![legion_core::value::LegionValue::Uint(1)],
                ),
                (legion_core::symbol::Sym::intern("TotallyBogus"), vec![]),
            ] {
                let id = ctx.fresh_call_id();
                let mut msg = Message::call(
                    id,
                    Loid::instance(5, 1),
                    method,
                    args,
                    legion_core::env::InvocationEnv::anonymous(),
                );
                msg.reply_to = Some(ctx.self_element());
                ctx.send(self.agent.unwrap(), msg);
            }
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, msg: Message) {
            if let legion_net::message::Body::Reply { result: Err(e), .. } = msg.body {
                self.errors.push(e);
            }
        }
    }
    let bad = w.kernel.add_endpoint(
        Box::new(BadCaller {
            agent: Some(agent.element()),
            errors: vec![],
        }),
        Location::new(0, 63),
        "bad-caller",
    );
    w.kernel.run_until_quiescent(10_000);
    let errors = &w.kernel.endpoint::<BadCaller>(bad).unwrap().errors;
    assert_eq!(
        errors.len(),
        3,
        "every malformed request got an error reply: {errors:?}"
    );
}
