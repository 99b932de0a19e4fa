//! Binding expiry end-to-end (paper §3.5): a class that stamps TTLs on
//! the bindings it serves bounds downstream cache staleness — caches
//! refuse expired entries and re-resolve.

use legion_core::class::{ClassKind, ClassObject};
use legion_core::env::InvocationEnv;
use legion_core::loid::Loid;
use legion_core::object::object_mandatory_interface;
use legion_core::symbol::Sym;
use legion_core::time::{Expiry, SimTime};
use legion_core::value::LegionValue;
use legion_core::wellknown::LEGION_OBJECT;
use legion_naming::agent::{AgentConfig, BindingAgentEndpoint};
use legion_naming::protocol::GET_BINDING;
use legion_net::message::{Body, Message};
use legion_net::sim::{Ctx, Endpoint, EndpointId, SimKernel};
use legion_net::topology::{Location, Topology};
use legion_net::FaultPlan;
use legion_runtime::class_endpoint::{ClassConfig, ClassEndpoint, LegionClassEndpoint};
use legion_runtime::magistrate::MagistrateEndpoint;
use legion_runtime::protocol::class as class_proto;
use legion_runtime::CoreSystem;

const FILE_CLASS: Loid = Loid::class_object(16);
const MAG: Loid = Loid::instance(4, 1);
const HOST: Loid = Loid::instance(3, 1);
const TTL_NS: u64 = 2_000_000_000; // 2 virtual seconds

#[derive(Default)]
struct Probe {
    replies: Vec<Result<LegionValue, String>>,
}
impl Endpoint for Probe {
    fn on_message(&mut self, _ctx: &mut Ctx<'_>, msg: Message) {
        if let Body::Reply { result, .. } = msg.body {
            self.replies.push(result);
        }
    }
}

struct World {
    k: SimKernel,
    mag: EndpointId,
    class: EndpointId,
    agent: EndpointId,
    probe: EndpointId,
}

fn build() -> World {
    let mut k = SimKernel::new(
        Topology::fixed(1_000, 10_000, 1_000_000),
        FaultPlan::none(),
        5,
    );
    let core = CoreSystem::bootstrap(&mut k, Location::new(0, 0));
    let mag = core.start_magistrate(&mut k, MAG, Location::new(0, 1), 0, 2, 1 << 20);
    let host = core.start_host(&mut k, HOST, Location::new(0, 2), 8, Some(MAG), None);
    k.endpoint_mut::<MagistrateEndpoint>(mag)
        .unwrap()
        .add_host(HOST, host.element(), 8);

    let mut file = ClassObject::new(FILE_CLASS, "File", ClassKind::NORMAL);
    file.superclass = Some(LEGION_OBJECT);
    file.interface = object_mandatory_interface(LEGION_OBJECT);
    let class = k.add_endpoint(
        Box::new(ClassEndpoint::new(
            file,
            ClassConfig {
                legion_class: core.legion_class_element(),
                magistrates: vec![(MAG, mag.element())],
                binding_agent: None,
                binding_ttl_ns: Some(TTL_NS),
                admission: None,
                notify_holders: true,
            },
        )),
        Location::new(0, 3),
        "class:File",
    );
    k.endpoint_mut::<LegionClassEndpoint>(core.legion_class)
        .unwrap()
        .adopt_class(legion_core::binding::Binding::forever(
            FILE_CLASS,
            legion_core::address::ObjectAddress::single(class.element()),
        ));
    let agent = k.add_endpoint(
        Box::new(BindingAgentEndpoint::new(AgentConfig::root(
            Loid::instance(5, 1),
            core.legion_class_element(),
        ))),
        Location::new(0, 4),
        "agent",
    );
    let probe = k.add_endpoint(Box::new(Probe::default()), Location::new(0, 5), "probe");
    k.run_until_quiescent(100_000);
    World {
        k,
        mag,
        class,
        agent,
        probe,
    }
}

impl World {
    fn call(
        &mut self,
        to: EndpointId,
        target: Loid,
        method: impl Into<Sym>,
        args: Vec<LegionValue>,
    ) -> Result<LegionValue, String> {
        let id = self.k.fresh_call_id();
        let mut msg = Message::call(id, target, method, args, InvocationEnv::anonymous());
        msg.reply_to = Some(self.probe.element());
        let before = self.k.endpoint::<Probe>(self.probe).unwrap().replies.len();
        assert!(self.k.inject(Location::new(0, 5), to.element(), msg));
        self.k.run_until_quiescent(1_000_000);
        self.k
            .endpoint::<Probe>(self.probe)
            .unwrap()
            .replies
            .get(before)
            .cloned()
            .unwrap()
    }
}

#[test]
fn served_bindings_carry_the_configured_ttl() {
    let mut w = build();
    let r = w.call(w.class, FILE_CLASS, class_proto::CREATE, vec![]);
    let Ok(LegionValue::Binding(b)) = r else {
        panic!("create failed: {r:?}");
    };
    match b.expiry {
        Expiry::At(t) => {
            assert!(t > w.k.now(), "expiry is in the future");
            assert!(
                t.as_nanos() <= w.k.now().as_nanos() + TTL_NS,
                "expiry within the TTL"
            );
        }
        Expiry::Never => panic!("binding must carry a TTL"),
    }
}

#[test]
fn caches_re_resolve_after_expiry() {
    let mut w = build();
    let r = w.call(w.class, FILE_CLASS, class_proto::CREATE, vec![]);
    let Ok(LegionValue::Binding(b)) = r else {
        panic!("create failed: {r:?}");
    };
    let obj = b.loid;

    // First agent lookup: goes to the class.
    let class_load = |w: &World| w.k.counters().get("class.get_binding");
    let r = w.call(w.agent, obj, GET_BINDING, vec![LegionValue::Loid(obj)]);
    assert!(matches!(r, Ok(LegionValue::Binding(_))), "{r:?}");
    let after_first = class_load(&w);
    assert!(after_first >= 1);

    // Second lookup immediately: served from the agent cache.
    let r = w.call(w.agent, obj, GET_BINDING, vec![LegionValue::Loid(obj)]);
    assert!(r.is_ok());
    assert_eq!(class_load(&w), after_first, "cache hit, no class traffic");

    // Let the TTL pass in virtual time, then look up again: the expired
    // entry is refused by the cache and the class is consulted anew.
    let deadline = SimTime(w.k.now().as_nanos() + TTL_NS + 1);
    w.k.run_until(deadline);
    let r = w.call(w.agent, obj, GET_BINDING, vec![LegionValue::Loid(obj)]);
    assert!(r.is_ok());
    assert!(
        class_load(&w) > after_first,
        "expired binding forced re-resolution"
    );
    // And the re-served binding is valid again.
    if let Ok(LegionValue::Binding(b2)) = r {
        assert!(b2.is_valid_at(w.k.now()));
    }
}

/// The class's notice names the binding as it was handed out, stamp
/// included, so the exact-match invalidation evicts a TTL-stamped copy —
/// and names the *latest* stamp when the agent asked more than once.
#[test]
fn a_holder_of_a_stamped_binding_is_told_with_its_own_stamp() {
    let mut w = build();
    let r = w.call(w.class, FILE_CLASS, class_proto::CREATE, vec![]);
    let Ok(LegionValue::Binding(b)) = r else {
        panic!("create failed: {r:?}");
    };
    let obj = b.loid;
    let lookup = |w: &mut World| w.call(w.agent, obj, GET_BINDING, vec![LegionValue::Loid(obj)]);
    let Ok(LegionValue::Binding(first)) = lookup(&mut w) else {
        panic!("lookup failed");
    };
    // Past the first stamp, the agent re-resolves and is stamped afresh.
    w.k.run_until(SimTime(w.k.now().as_nanos() + TTL_NS + 1));
    let Ok(LegionValue::Binding(second)) = lookup(&mut w) else {
        panic!("lookup failed");
    };
    assert_eq!(second.address, first.address);
    assert_ne!(second.expiry, first.expiry);

    let agent = |w: &World| {
        let a = w.k.endpoint::<BindingAgentEndpoint>(w.agent).unwrap();
        (a.cache_len(), a.cache_stats().invalidations)
    };
    let (cached, invalidated) = agent(&w);
    let r = w.call(
        w.mag,
        MAG,
        legion_runtime::protocol::magistrate::DEACTIVATE,
        vec![LegionValue::Loid(obj)],
    );
    assert_eq!(r, Ok(LegionValue::Void));
    assert_eq!(w.k.counters().get("class.holders_notified"), 1);
    assert_eq!(agent(&w), (cached - 1, invalidated + 1));
}
