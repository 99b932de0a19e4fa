//! The outbound half of the invocation layer, swept across the four
//! endpoints that make calls and wait for replies — Magistrate,
//! ClassEndpoint, SchedulingAgent and the naming BindingAgent — the way
//! `dispatch_errors.rs` sweeps the inbound half.
//!
//! Each endpoint's outbound call is aimed at a callee that never answers,
//! under a 50 ms deadline. The requester must hear exactly one reply: the
//! uniform `CoreError::Timeout`, or the endpoint's documented fallback
//! (the Binding Agent retries `max_retries` times first; a scheduling
//! poll counts a silent host as "no answer"). The endpoint's own timeout
//! counter and `net.timeout_expired`
//! both rise by the number of calls given up on, nothing is left
//! outstanding, and the kernel ran one sweep timer per timeout period —
//! not one per call. Then the same four with the callee *removed*: the
//! send is refused, nothing is parked and no timer is armed.

use legion_core::address::ObjectAddressElement;
use legion_core::class::{ClassKind, ClassObject};
use legion_core::env::InvocationEnv;
use legion_core::loid::Loid;
use legion_core::symbol::Sym;
use legion_core::value::LegionValue;
use legion_naming::agent::{AgentConfig, BindingAgentEndpoint};
use legion_naming::protocol as naming_proto;
use legion_net::dispatch::{timeout_error, Caller};
use legion_net::message::{Body, Message};
use legion_net::sim::{Ctx, Endpoint, EndpointId, SimKernel};
use legion_net::topology::{Location, Topology};
use legion_net::FaultPlan;
use legion_persist::opr::Opr;
use legion_runtime::class_endpoint::{ClassConfig, ClassEndpoint};
use legion_runtime::magistrate::{MagistrateConfig, MagistrateEndpoint};
use legion_runtime::protocol::{class as class_proto, magistrate as mag_proto};
use legion_runtime::sched_agent::{SchedulingAgentEndpoint, SUGGEST_HOST};

const DEADLINE_NS: u64 = 50_000_000;
const REQUESTER: Loid = Loid::instance(99, 1);
/// The LOID every callee goes by, whatever the caller takes it for.
const CALLEE: Loid = Loid::instance(98, 1);

/// Collects the replies the endpoint under test sends its requester.
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

/// Swallows every call — no reply, ever — and remembers who each said it
/// was from.
#[derive(Default)]
struct BlackHole {
    senders: Vec<Option<Loid>>,
}

impl Endpoint for BlackHole {
    fn on_message(&mut self, _ctx: &mut Ctx<'_>, msg: Message) {
        self.senders.push(msg.sender);
    }
}

/// One calling endpoint, attached and aimed at the callee.
struct Subject {
    ep: EndpointId,
    loid: Loid,
    /// The request that makes it call the callee.
    method: Sym,
    args: Vec<LegionValue>,
}

struct Case {
    name: &'static str,
    /// The endpoint's own timeout counter.
    counter: &'static str,
    /// Attach the endpoint with its outbound call aimed at the callee.
    build: fn(&mut SimKernel, ObjectAddressElement) -> Subject,
    outstanding: fn(&mut SimKernel, EndpointId) -> usize,
    /// Calls it gives up on before the requester hears, and the timeout
    /// periods they fall in.
    expiries: u64,
    periods: u64,
    /// What the requester hears once the callee stayed silent...
    silent: fn(&Result<LegionValue, String>) -> bool,
    /// ...and, in the error it gets at once, when the callee is gone.
    refused: &'static str,
}

fn outstanding<E: Endpoint + Caller>(k: &mut SimKernel, ep: EndpointId) -> usize {
    k.endpoint_mut::<E>(ep).unwrap().calls().outstanding()
}

fn with_deadline<E: Endpoint + Caller>(k: &mut SimKernel, ep: EndpointId) -> EndpointId {
    let calls = k.endpoint_mut::<E>(ep).unwrap().calls();
    calls.set_deadline_ns(Some(DEADLINE_NS));
    ep
}

/// The uniform timeout, under whatever the endpoint prefixes it with.
fn times_out(r: &Result<LegionValue, String>) -> bool {
    r.as_ref()
        .is_err_and(|e| e.ends_with(&timeout_error(DEADLINE_NS)))
}

/// A Magistrate holding one Inert object, asked to `Move` it to a peer:
/// the `ReceiveOpr` goes to the callee.
fn magistrate(k: &mut SimKernel, callee: ObjectAddressElement) -> Subject {
    let loid = Loid::instance(4, 1);
    let mut m = MagistrateEndpoint::new(MagistrateConfig {
        loid,
        jurisdiction: 0,
        class_addr: None,
        disks: 1,
        disk_capacity: 1 << 20,
    });
    m.add_peer(CALLEE, callee);
    let ep = k.add_endpoint(Box::new(m), Location::new(0, 1), "magistrate");
    let (object, class) = (Loid::instance(16, 1), Loid::class_object(16));
    let opr = Opr::new(object, class, 0, b"state".to_vec())
        .encode()
        .to_vec();
    let receive = Message::call(
        k.fresh_call_id(),
        loid,
        mag_proto::RECEIVE_OPR,
        vec![
            LegionValue::Loid(object),
            LegionValue::Loid(class),
            LegionValue::Bytes(opr),
            LegionValue::Void,
        ],
        InvocationEnv::solo(REQUESTER),
    );
    assert!(k.inject(Location::new(0, 0), ep.element(), receive));
    Subject {
        ep: with_deadline::<MagistrateEndpoint>(k, ep),
        loid,
        method: mag_proto::MOVE,
        args: vec![LegionValue::Loid(object), LegionValue::Loid(CALLEE)],
    }
}

/// A class whose one candidate Magistrate is the callee, asked to
/// `Create` an instance: the `CreateObject` goes to the callee.
fn class(k: &mut SimKernel, callee: ObjectAddressElement) -> Subject {
    let loid = Loid::class_object(16);
    let class = ClassEndpoint::new(
        ClassObject::new(loid, "File", ClassKind::NORMAL),
        ClassConfig {
            legion_class: callee,
            magistrates: vec![(CALLEE, callee)],
            binding_agent: None,
            binding_ttl_ns: None,
            admission: None,
            notify_holders: true,
        },
    );
    let ep = k.add_endpoint(Box::new(class), Location::new(0, 1), "class");
    Subject {
        ep: with_deadline::<ClassEndpoint>(k, ep),
        loid,
        method: class_proto::CREATE,
        args: vec![],
    }
}

/// A Scheduling Agent that knows the callee as both of its hosts: the
/// two `GetState`s of one poll fall in one timeout period.
fn sched_agent(k: &mut SimKernel, callee: ObjectAddressElement) -> Subject {
    let loid = Loid::instance(8, 1);
    let hosts = vec![(CALLEE, callee), (Loid::instance(98, 2), callee)];
    let agent = SchedulingAgentEndpoint::new(loid, hosts);
    let ep = k.add_endpoint(Box::new(agent), Location::new(0, 1), "sched-agent");
    Subject {
        ep: with_deadline::<SchedulingAgentEndpoint>(k, ep),
        loid,
        method: SUGGEST_HOST.into(),
        args: vec![LegionValue::Loid(Loid::instance(16, 1))],
    }
}

/// A root Binding Agent whose LegionClass is the callee, asked for a user
/// class: `FindResponsible` goes to the callee, `max_retries + 1` times.
/// Its deadline is its own configuration's request timeout.
fn binding_agent(k: &mut SimKernel, callee: ObjectAddressElement) -> Subject {
    let loid = Loid::instance(9, 1);
    let cfg = AgentConfig {
        request_timeout_ns: DEADLINE_NS,
        ..AgentConfig::root(loid, callee)
    };
    assert_eq!(cfg.max_retries, 2);
    let agent = BindingAgentEndpoint::new(cfg);
    let ep = k.add_endpoint(Box::new(agent), Location::new(0, 1), "agent");
    Subject {
        ep,
        loid,
        method: naming_proto::GET_BINDING,
        args: vec![LegionValue::Loid(Loid::class_object(16))],
    }
}

fn cases() -> [Case; 4] {
    [
        Case {
            name: "Magistrate",
            counter: "magistrate.timeouts",
            build: magistrate,
            outstanding: outstanding::<MagistrateEndpoint>,
            expiries: 1,
            periods: 1,
            silent: times_out,
            refused: "unreachable",
        },
        Case {
            name: "ClassEndpoint",
            counter: "class.timeouts",
            build: class,
            outstanding: outstanding::<ClassEndpoint>,
            expiries: 1,
            periods: 1,
            silent: times_out,
            refused: "unreachable",
        },
        Case {
            name: "SchedulingAgent",
            counter: "sched_agent.timeouts",
            build: sched_agent,
            outstanding: outstanding::<SchedulingAgentEndpoint>,
            expiries: 2,
            periods: 1,
            silent: |r| r.as_ref().is_err_and(|e| e == "no host answered GetState"),
            refused: "no host reachable",
        },
        Case {
            name: "BindingAgent",
            counter: "ba.timeout",
            build: binding_agent,
            outstanding: outstanding::<BindingAgentEndpoint>,
            expiries: 3,
            periods: 3,
            silent: times_out,
            refused: "LegionClass unreachable",
        },
    ]
}

/// A fresh kernel holding the requester's probe, the callee, and the
/// case's endpoint aimed at it — started, with any set-up call served.
fn world(case: &Case) -> (SimKernel, EndpointId, EndpointId, Subject) {
    let mut k = SimKernel::new(
        Topology::fixed(1_000, 10_000, 1_000_000),
        FaultPlan::none(),
        11,
    );
    k.set_flight_dump_on_sweep(false);
    let probe = k.add_endpoint(Box::new(Probe::default()), Location::new(0, 0), "probe");
    let hole = k.add_endpoint(Box::<BlackHole>::default(), Location::new(0, 3), "hole");
    let subject = (case.build)(&mut k, hole.element());
    k.run_until_quiescent(10_000);
    (k, probe, hole, subject)
}

/// Send the subject its request and run to quiescence. Returns the
/// replies the requester heard and how many timer events the run took —
/// every event that was not a delivery (all endpoints had started).
fn request(
    k: &mut SimKernel,
    probe: EndpointId,
    s: &Subject,
) -> (Vec<Result<LegionValue, String>>, u64) {
    let mut msg = Message::call(
        k.fresh_call_id(),
        s.loid,
        s.method,
        s.args.clone(),
        InvocationEnv::solo(REQUESTER),
    );
    msg.reply_to = Some(probe.element());
    msg.sender = Some(REQUESTER);
    // Timers = events that delivered nothing (dead letters included).
    let idle = |k: &SimKernel| k.stats().events - k.stats().delivered - k.stats().dead_letters;
    let before = idle(k);
    assert!(k.inject(Location::new(0, 0), s.ep.element(), msg));
    k.run_until_quiescent(100_000);
    assert!(k.is_quiescent());
    let timers = idle(k) - before;
    let replies = k.endpoint::<Probe>(probe).unwrap().replies.clone();
    (replies, timers)
}

#[test]
fn a_silent_callee_times_out_once_per_call_and_sweeps_once_per_period() {
    for case in cases() {
        let name = case.name;
        let (mut k, probe, hole, s) = world(&case);
        let asked_at = k.now();
        let (replies, timers) = request(&mut k, probe, &s);

        assert_eq!(replies.len(), 1, "{name}: {replies:?}");
        assert!((case.silent)(&replies[0]), "{name}: heard {:?}", replies[0]);
        assert_eq!(
            k.counters().get(case.counter),
            case.expiries,
            "{name}: {}",
            case.counter
        );
        assert_eq!(
            k.counters().get("net.timeout_expired"),
            case.expiries,
            "{name}: net.timeout_expired"
        );
        assert_eq!((case.outstanding)(&mut k, s.ep), 0, "{name}: outstanding");
        assert_eq!(timers, case.periods, "{name}: sweep timers");
        // The last sweep fired on the last call's deadline, to the
        // nanosecond; the requester heard one hop later.
        let waited = k.now().saturating_since(asked_at);
        assert!(
            (case.periods * DEADLINE_NS..(case.periods + 1) * DEADLINE_NS).contains(&waited),
            "{name}: quiet after {waited} ns"
        );

        // Every call the callee swallowed named its true sender.
        let senders = &k.endpoint::<BlackHole>(hole).unwrap().senders;
        assert_eq!(senders.len() as u64, case.expiries, "{name}");
        assert!(
            senders.iter().all(|from| *from == Some(s.loid)),
            "{name}: calls from {senders:?}, not {}",
            s.loid
        );
    }
}

#[test]
fn a_removed_callee_refuses_the_send_and_nothing_is_parked() {
    for case in cases() {
        let name = case.name;
        let (mut k, probe, hole, s) = world(&case);
        k.remove_endpoint(hole);
        let asked_at = k.now();
        let (replies, timers) = request(&mut k, probe, &s);

        assert_eq!(replies.len(), 1, "{name}: {replies:?}");
        let e = replies[0].as_ref().expect_err(name);
        assert!(e.contains(case.refused), "{name}: {e}");
        assert!(!e.contains("timed out"), "{name}: {e}");
        assert_eq!((case.outstanding)(&mut k, s.ep), 0, "{name}: outstanding");
        assert_eq!(timers, 0, "{name}: no call was parked, no sweep armed");
        assert!(
            k.now().saturating_since(asked_at) < DEADLINE_NS,
            "{name}: the refusal is heard at once"
        );
        assert_eq!(k.counters().get(case.counter), 0, "{name}");
        assert_eq!(k.counters().get("net.timeout_expired"), 0, "{name}");
        assert!(k.stats().refused >= 1, "{name}: the send was refused");
    }
}
