//! Uniform error behaviour at the dispatch boundary, swept across all
//! six core-object endpoints.
//!
//! For every endpoint — Magistrate, ClassEndpoint, Host, ContextEndpoint,
//! SchedulingAgent, and the naming BindingAgent — a call with an unknown
//! method, the wrong arity, or a wrong-typed argument must come back as
//! an `Err` reply: never silence, never a panic. The shared dispatch
//! layer guarantees this once; this test keeps every endpoint on it.
//! Every call here is traced, and each refusal must leave its exact
//! `dispatch.<verdict>:<method or prefix>` note in the trace.

use legion_core::class::{ClassKind, ClassObject};
use legion_core::env::InvocationEnv;
use legion_core::loid::Loid;
use legion_core::symbol::Sym;
use legion_core::value::LegionValue;
use legion_naming::agent::{AgentConfig, BindingAgentEndpoint};
use legion_naming::protocol as naming_proto;
use legion_net::message::{Body, Message};
use legion_net::sim::{Ctx, Endpoint, EndpointId, SimKernel};
use legion_net::topology::{Location, Topology};
use legion_net::FaultPlan;
use legion_runtime::class_endpoint::{ClassConfig, ClassEndpoint};
use legion_runtime::context_endpoint::{methods as ctx_methods, ContextEndpoint};
use legion_runtime::host::{HostConfig, HostObjectEndpoint};
use legion_runtime::magistrate::{MagistrateConfig, MagistrateEndpoint};
use legion_runtime::protocol::{class as class_proto, magistrate as mag_proto};
use legion_runtime::sched_agent::{SchedulingAgentEndpoint, SUGGEST_HOST};
use legion_security::mayi::ResponsibleAgentSet;

const CALLER: Loid = Loid::instance(99, 1);

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

/// One endpoint under test: where it lives, a known method, and the
/// argument lists that must be rejected.
struct Subject {
    name: &'static str,
    counter_prefix: &'static str,
    ep: EndpointId,
    target: Loid,
    known_method: &'static str,
    wrong_arity: Vec<LegionValue>,
    wrong_type: Vec<LegionValue>,
}

fn call(
    k: &mut SimKernel,
    probe: EndpointId,
    subject: &Subject,
    method: impl Into<Sym>,
    args: Vec<LegionValue>,
) -> Option<Result<LegionValue, String>> {
    let id = k.fresh_call_id();
    let env = InvocationEnv::solo(CALLER).with_trace(k.begin_trace("probe"));
    let mut msg = Message::call(id, subject.target, method, args, env);
    msg.reply_to = Some(probe.element());
    msg.sender = Some(CALLER);
    let before = k.endpoint::<Probe>(probe).unwrap().replies.len();
    k.inject(Location::new(0, 0), subject.ep.element(), msg);
    k.run_until_quiescent(100_000);
    let replies = &k.endpoint::<Probe>(probe).unwrap().replies;
    assert!(
        replies.len() <= before + 1,
        "{}: one call produced {} replies",
        subject.name,
        replies.len() - before
    );
    replies.get(before).cloned()
}

/// The `dispatch.…` notes recorded since the last look.
fn dispatch_notes(k: &mut SimKernel) -> Vec<String> {
    let events = k.drain_trace();
    let notes = events.into_iter().map(|e| e.label);
    notes.filter(|l| l.starts_with("dispatch.")).collect()
}

/// Build a kernel holding all six endpoints and the probe.
fn world() -> (SimKernel, EndpointId, Vec<Subject>) {
    let mut k = SimKernel::new(Topology::zero(), FaultPlan::none(), 11);
    k.enable_tracing(1 << 12);
    let loc = Location::new(0, 0);
    let probe = k.add_endpoint(Box::new(Probe::default()), loc, "probe");

    let mag_loid = Loid::instance(4, 1);
    let mag = k.add_endpoint(
        Box::new(MagistrateEndpoint::new(MagistrateConfig {
            loid: mag_loid,
            jurisdiction: 0,
            class_addr: None,
            disks: 1,
            disk_capacity: 1 << 20,
        })),
        loc,
        "magistrate",
    );

    let class_loid = Loid::class_object(16);
    let class = k.add_endpoint(
        Box::new(ClassEndpoint::new(
            ClassObject::new(class_loid, "File", ClassKind::NORMAL),
            ClassConfig {
                legion_class: probe.element(),
                magistrates: vec![],
                binding_agent: None,
                binding_ttl_ns: None,
                admission: None,
                notify_holders: true,
            },
        )),
        loc,
        "class",
    );

    let host_loid = Loid::instance(3, 1);
    let host = k.add_endpoint(
        Box::new(HostObjectEndpoint::new(HostConfig {
            loid: host_loid,
            capacity: 4,
            magistrate: None,
            class_addr: None,
        })),
        loc,
        "host",
    );

    let ctx_loid = Loid::instance(7, 1);
    let context = k.add_endpoint(Box::new(ContextEndpoint::new(ctx_loid)), loc, "context");

    let sched_loid = Loid::instance(8, 1);
    let sched = k.add_endpoint(
        Box::new(SchedulingAgentEndpoint::new(sched_loid, vec![])),
        loc,
        "sched",
    );

    let ba_loid = Loid::instance(9, 1);
    let agent = k.add_endpoint(
        Box::new(BindingAgentEndpoint::new(AgentConfig::root(
            ba_loid,
            probe.element(),
        ))),
        loc,
        "agent",
    );

    let subjects = vec![
        Subject {
            name: "Magistrate",
            counter_prefix: "magistrate",
            ep: mag,
            target: mag_loid,
            known_method: mag_proto::ACTIVATE.as_str(),
            wrong_arity: vec![],
            wrong_type: vec![LegionValue::Str("x".into())],
        },
        Subject {
            name: "ClassEndpoint",
            counter_prefix: "class",
            ep: class,
            target: class_loid,
            known_method: class_proto::DELETE.as_str(),
            wrong_arity: vec![],
            wrong_type: vec![LegionValue::Uint(1)],
        },
        Subject {
            name: "Host",
            counter_prefix: "host",
            ep: host,
            target: host_loid,
            known_method: legion_runtime::protocol::host::DEACTIVATE.as_str(),
            wrong_arity: vec![],
            wrong_type: vec![LegionValue::Uint(1)],
        },
        Subject {
            name: "ContextEndpoint",
            counter_prefix: "context",
            ep: context,
            target: ctx_loid,
            known_method: ctx_methods::LOOKUP_NAME,
            wrong_arity: vec![],
            wrong_type: vec![LegionValue::Uint(1)],
        },
        Subject {
            name: "SchedulingAgent",
            counter_prefix: "sched_agent",
            ep: sched,
            target: sched_loid,
            known_method: SUGGEST_HOST,
            wrong_arity: vec![],
            wrong_type: vec![LegionValue::Str("x".into())],
        },
        Subject {
            name: "BindingAgent",
            counter_prefix: "ba",
            ep: agent,
            target: ba_loid,
            known_method: naming_proto::GET_BINDING.as_str(),
            wrong_arity: vec![],
            wrong_type: vec![LegionValue::Uint(1)],
        },
    ];
    (k, probe, subjects)
}

/// The sweep: unknown method / wrong arity / wrong type must each draw
/// an `Err` reply from every endpoint, with the boundary counters bumped
/// and the refusal noted in the call's trace.
#[test]
fn every_endpoint_rejects_malformed_calls() {
    let (mut k, probe, subjects) = world();
    for s in &subjects {
        // Unknown method.
        let r = call(&mut k, probe, s, "NoSuchMethod", vec![])
            .unwrap_or_else(|| panic!("{}: unknown method drew no reply", s.name));
        let err = r.expect_err(&format!("{}: unknown method must err", s.name));
        assert!(
            err.contains("no method"),
            "{}: uniform unknown-method error, got {err:?}",
            s.name
        );
        assert_eq!(
            dispatch_notes(&mut k),
            ["dispatch.unknown:NoSuchMethod"],
            "{}",
            s.name
        );

        // Wrong arity on a known method.
        let r = call(&mut k, probe, s, s.known_method, s.wrong_arity.clone())
            .unwrap_or_else(|| panic!("{}: wrong arity drew no reply", s.name));
        r.expect_err(&format!("{}: wrong arity must err", s.name));

        // Wrong-typed argument on a known method.
        let r = call(&mut k, probe, s, s.known_method, s.wrong_type.clone())
            .unwrap_or_else(|| panic!("{}: wrong type drew no reply", s.name));
        r.expect_err(&format!("{}: wrong type must err", s.name));
        let badargs = format!("dispatch.badargs:{}", s.known_method);
        assert_eq!(
            dispatch_notes(&mut k),
            [badargs.clone(), badargs],
            "{}",
            s.name
        );

        assert_eq!(
            k.counters()
                .get(&format!("{}.unknown_method", s.counter_prefix)),
            1,
            "{}: unknown_method counter",
            s.name
        );
        assert_eq!(
            k.counters().get(&format!("{}.bad_args", s.counter_prefix)),
            2,
            "{}: bad_args counter (arity + type)",
            s.name
        );
    }
}

/// A call with no method name (empty on the wire) is dead-lettered
/// (counted), not silently dropped — the bugfix, verified on every
/// endpoint.
#[test]
fn calls_without_a_method_are_dead_lettered() {
    let (mut k, probe, subjects) = world();
    for s in &subjects {
        let id = k.fresh_call_id();
        let env = InvocationEnv::solo(CALLER).with_trace(k.begin_trace("probe"));
        let mut msg = Message::call(id, s.target, "", vec![], env);
        msg.reply_to = Some(probe.element());
        msg.sender = Some(CALLER);
        k.inject(Location::new(0, 0), s.ep.element(), msg);
        k.run_until_quiescent(100_000);
        assert_eq!(
            k.counters()
                .get(&format!("{}.dead_letter", s.counter_prefix)),
            1,
            "{}: dead_letter counter",
            s.name
        );
        let dead_letter = format!("dispatch.dead_letter:{}", s.counter_prefix);
        assert_eq!(dispatch_notes(&mut k), [dead_letter], "{}", s.name);
    }
}

/// A gated method refused by the endpoint's MayI policy (§2.4) is
/// answered with the refusal, counted, and noted — the handler never
/// runs. A Magistrate that trusts no Responsible Agent refuses `Activate`.
#[test]
fn a_gated_call_refused_by_mayi_is_noted() {
    let (mut k, probe, _) = world();
    let mag_loid = Loid::instance(4, 2);
    let mag = k.add_endpoint(
        Box::new(
            MagistrateEndpoint::new(MagistrateConfig {
                loid: mag_loid,
                jurisdiction: 0,
                class_addr: None,
                disks: 1,
                disk_capacity: 1 << 20,
            })
            .with_mayi(Box::new(ResponsibleAgentSet::new([]))),
        ),
        Location::new(0, 0),
        "paranoid",
    );
    let subject = Subject {
        name: "paranoid Magistrate",
        counter_prefix: "magistrate",
        ep: mag,
        target: mag_loid,
        known_method: mag_proto::ACTIVATE.as_str(),
        wrong_arity: vec![],
        wrong_type: vec![],
    };
    let args = vec![LegionValue::Loid(Loid::instance(16, 1))];
    let r = call(&mut k, probe, &subject, subject.known_method, args)
        .expect("a refused call is answered");
    let err = r.expect_err("MayI refuses");
    assert!(err.starts_with("MayI refused: "), "{err}");
    assert_eq!(k.counters().get("magistrate.refused"), 1);
    assert_eq!(dispatch_notes(&mut k), ["dispatch.denied:Activate"]);
}
