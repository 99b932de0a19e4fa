//! The generic Active object endpoint.
//!
//! An Active Legion object is "running as a process ... on one or more of
//! the hosts in a Jurisdiction" (§3.1). This endpoint wraps a
//! [`GenericObject`] (state + interface) and serves the object-mandatory
//! member functions through the shared dispatch layer, with its `MayI()`
//! policy (§2.4) installed as the table's invocation gate — evaluated
//! against the message's ⟨RA, SA, CA⟩ triple once, at the boundary.
//!
//! `GetInterface()` here deliberately answers with the *stored* interface
//! (the instance's runtime-defined class interface), not the table-derived
//! one: generic objects stand in for user classes created at run time
//! (Derive/InheritFrom), so their published interface is data, not code.
//!
//! Nothing in the table depends on which object it serves — handlers get
//! the endpoint as an argument and the gate reads the endpoint's own
//! policy — so it is sealed once per thread and every activated object
//! holds an `Rc` to it: activating an object builds no table and reaping
//! one drops none.

use crate::protocol::object as obj_methods;
use legion_core::dispatch::InvocationGate;
use legion_core::interface::{Interface, ParamType};
use legion_core::loid::Loid;
use legion_core::object::{methods, GenericObject, ObjectMandatory};
use legion_core::symbol;
use legion_core::value::LegionValue;
use legion_core::wellknown::LEGION_OBJECT;
use legion_core::{address::ObjectAddressElement, idl};
use legion_net::dispatch::{serve, MethodTable, Outcome, TableBuilder};
use legion_net::message::Message;
use legion_net::sim::{Ctx, Endpoint};
use legion_security::mayi::{AllowAll, MayIPolicy};
use std::rc::Rc;

thread_local! {
    /// The object-mandatory method table every [`ActiveObjectEndpoint`] on
    /// this thread dispatches through (`Rc` is not `Send`, hence per
    /// thread; a kernel and its endpoints live on one).
    static TABLE: Rc<MethodTable<ActiveObjectEndpoint>> = ActiveObjectEndpoint::table();
}

/// A generic Active object: state map + interface + security policy.
pub struct ActiveObjectEndpoint {
    obj: GenericObject,
    policy: Box<dyn MayIPolicy>,
    table: Rc<MethodTable<Self>>,
    /// Address of the class endpoint (not used by the object itself, but
    /// part of its persistent knowledge, like the Binding Agent address).
    pub class_addr: Option<ObjectAddressElement>,
}

impl ActiveObjectEndpoint {
    /// A fresh object with the permissive default policy.
    pub fn new(loid: Loid, interface: Interface) -> Self {
        ActiveObjectEndpoint {
            obj: GenericObject::new(loid, interface),
            policy: Box::new(AllowAll),
            table: TABLE.with(Rc::clone),
            class_addr: None,
        }
    }

    /// Replace the `MayI` policy.
    pub fn with_policy(mut self, policy: Box<dyn MayIPolicy>) -> Self {
        self.policy = policy;
        self
    }

    /// Restore state from an OPR payload at construction (activation).
    pub fn with_state(mut self, state: &[u8]) -> Self {
        if !state.is_empty() {
            let _ = self.obj.restore_state(state);
        }
        self
    }

    /// Read access to the wrapped object (tests, host inspection).
    pub fn object(&self) -> &GenericObject {
        &self.obj
    }

    /// The table behind [`TABLE`]. Its provenance LOID is the core class
    /// that confers these methods (§2.1.3) and is never published:
    /// `GetInterface` is a registered handler answering from the object.
    fn table() -> Rc<MethodTable<Self>> {
        TableBuilder::new("object", "Object", LEGION_OBJECT)
            .gate(|e: &Self| &e.policy as &dyn InvocationGate)
            // `MayI` itself answers the question rather than being gated.
            .ungated_method::<(Loid, String), _>(
                methods::MAY_I,
                &["caller", "method"],
                ParamType::Bool,
                |e, _ctx, _msg, (caller, m)| {
                    let env = legion_core::env::InvocationEnv::solo(caller);
                    Outcome::Reply(Ok(LegionValue::Bool(e.policy.may_i(&env, &m).is_allowed())))
                },
            )
            .method::<(), _>(methods::IAM, &[], ParamType::Loid, |e, _ctx, _msg, ()| {
                Outcome::Reply(Ok(LegionValue::Loid(e.obj.iam())))
            })
            .method::<(), _>(methods::PING, &[], ParamType::Uint, |e, _ctx, _msg, ()| {
                Outcome::Reply(Ok(LegionValue::Uint(e.obj.version())))
            })
            .method::<(), _>(
                methods::SAVE_STATE,
                &[],
                ParamType::Bytes,
                |e, _ctx, _msg, ()| Outcome::Reply(Ok(LegionValue::Bytes(e.obj.save_state()))),
            )
            .method::<(Vec<u8>,), _>(
                methods::RESTORE_STATE,
                &["state"],
                ParamType::Void,
                |e, _ctx, _msg, (state,)| {
                    Outcome::Reply(if e.obj.restore_state(&state) {
                        Ok(LegionValue::Void)
                    } else {
                        Err("RestoreState: unintelligible payload".into())
                    })
                },
            )
            // Stored (instance) interface, not the intrinsic table one.
            .method::<(), _>(
                methods::GET_INTERFACE,
                &[],
                ParamType::Str,
                |e, _ctx, _msg, ()| {
                    Outcome::Reply(Ok(LegionValue::Str(idl::render(
                        "Object",
                        &e.obj.get_interface(),
                    ))))
                },
            )
            .method::<(String, LegionValue), _>(
                obj_methods::SET,
                &["key", "value"],
                ParamType::Void,
                |e, _ctx, _msg, (key, value)| {
                    e.obj.set(key, value);
                    Outcome::Reply(Ok(LegionValue::Void))
                },
            )
            .method::<(String,), _>(
                obj_methods::GET,
                &["key"],
                ParamType::Any,
                |e, _ctx, _msg, (key,)| {
                    Outcome::Reply(Ok(e.obj.get(&key).cloned().unwrap_or(LegionValue::Void)))
                },
            )
            .seal()
    }
}

impl Endpoint for ActiveObjectEndpoint {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        if msg.is_reply() {
            return;
        }
        // Misdirected message: the sender's binding is stale and this
        // endpoint now hosts a different object (§4.1.4). Refuse loudly so
        // the caller's communication layer can refresh. This check runs
        // before dispatch — it is about *addressing*, not the interface.
        if let Some(target) = msg.target {
            if target != self.obj.iam() && msg.method() != Some(methods::IAM) {
                ctx.count(symbol::OBJECT_MISDIRECTED);
                ctx.reply(
                    &msg,
                    Err(format!(
                        "stale binding: endpoint hosts {}, not {target}",
                        self.obj.iam()
                    )),
                );
                return;
            }
        }
        let table = Rc::clone(&self.table);
        serve(&table, self, ctx, msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legion_core::env::InvocationEnv;
    use legion_core::object::object_mandatory_interface;
    use legion_core::symbol::Sym;
    use legion_net::message::Body;
    use legion_net::sim::{EndpointId, SimKernel};
    use legion_net::topology::{Location, Topology};
    use legion_net::FaultPlan;
    use legion_security::mayi::MethodAcl;

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

    fn world() -> (SimKernel, EndpointId, EndpointId, Loid) {
        let mut k = SimKernel::new(Topology::zero(), FaultPlan::none(), 1);
        let loid = Loid::instance(16, 1);
        let obj = ActiveObjectEndpoint::new(loid, object_mandatory_interface(LEGION_OBJECT));
        let oid = k.add_endpoint(Box::new(obj), Location::new(0, 0), "obj");
        let probe = k.add_endpoint(
            Box::new(Probe { replies: vec![] }),
            Location::new(0, 0),
            "probe",
        );
        (k, oid, probe, loid)
    }

    fn call(
        k: &mut SimKernel,
        from: EndpointId,
        to: EndpointId,
        target: Loid,
        method: impl Into<Sym>,
        args: Vec<LegionValue>,
    ) {
        let id = k.fresh_call_id();
        let mut msg = Message::call(
            id,
            target,
            method,
            args,
            InvocationEnv::solo(Loid::instance(9, 9)),
        );
        msg.reply_to = Some(from.element());
        msg.sender = Some(Loid::instance(9, 9));
        k.inject(Location::new(0, 0), to.element(), msg);
        k.run_until_quiescent(100);
    }

    fn last_reply(k: &SimKernel, probe: EndpointId) -> Result<LegionValue, String> {
        k.endpoint::<Probe>(probe)
            .unwrap()
            .replies
            .last()
            .cloned()
            .unwrap()
    }

    #[test]
    fn ping_iam_and_interface() {
        let (mut k, oid, probe, loid) = world();
        call(&mut k, probe, oid, loid, methods::PING, vec![]);
        assert_eq!(last_reply(&k, probe), Ok(LegionValue::Uint(0)));
        call(&mut k, probe, oid, loid, methods::IAM, vec![]);
        assert_eq!(last_reply(&k, probe), Ok(LegionValue::Loid(loid)));
        call(&mut k, probe, oid, loid, methods::GET_INTERFACE, vec![]);
        match last_reply(&k, probe) {
            Ok(LegionValue::Str(s)) => assert!(s.contains("SaveState")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn set_get_and_save_restore() {
        let (mut k, oid, probe, loid) = world();
        call(
            &mut k,
            probe,
            oid,
            loid,
            obj_methods::SET,
            vec![LegionValue::Str("x".into()), LegionValue::Uint(42)],
        );
        call(
            &mut k,
            probe,
            oid,
            loid,
            obj_methods::GET,
            vec![LegionValue::Str("x".into())],
        );
        assert_eq!(last_reply(&k, probe), Ok(LegionValue::Uint(42)));
        call(&mut k, probe, oid, loid, methods::SAVE_STATE, vec![]);
        let Ok(LegionValue::Bytes(state)) = last_reply(&k, probe) else {
            panic!("expected bytes");
        };
        // Restore into a second object: it inherits x=42.
        let other = ActiveObjectEndpoint::new(loid, Interface::new()).with_state(&state);
        assert_eq!(other.object().get("x"), Some(&LegionValue::Uint(42)));
    }

    #[test]
    fn missing_key_returns_void_and_unknown_method_errs() {
        let (mut k, oid, probe, loid) = world();
        call(
            &mut k,
            probe,
            oid,
            loid,
            obj_methods::GET,
            vec![LegionValue::Str("absent".into())],
        );
        assert_eq!(last_reply(&k, probe), Ok(LegionValue::Void));
        call(&mut k, probe, oid, loid, "Nonsense", vec![]);
        assert!(last_reply(&k, probe).is_err());
        assert_eq!(k.counters().get("object.unknown_method"), 1);
    }

    #[test]
    fn misdirected_target_is_refused() {
        let (mut k, oid, probe, _) = world();
        let wrong = Loid::instance(16, 999);
        call(&mut k, probe, oid, wrong, methods::PING, vec![]);
        let r = last_reply(&k, probe);
        assert!(r.unwrap_err().contains("stale binding"));
        assert_eq!(k.counters().get("object.misdirected"), 1);
    }

    #[test]
    fn acl_policy_denies_and_mayi_reports() {
        let mut k = SimKernel::new(Topology::zero(), FaultPlan::none(), 1);
        let loid = Loid::instance(16, 1);
        let friend = Loid::instance(9, 9); // the test caller
        let mut acl = MethodAcl::deny_by_default();
        acl.grant(methods::PING, friend);
        let obj = ActiveObjectEndpoint::new(loid, Interface::new()).with_policy(Box::new(acl));
        let oid = k.add_endpoint(Box::new(obj), Location::new(0, 0), "obj");
        let probe = k.add_endpoint(
            Box::new(Probe { replies: vec![] }),
            Location::new(0, 0),
            "probe",
        );
        // Ping is granted to the caller...
        call(&mut k, probe, oid, loid, methods::PING, vec![]);
        assert!(last_reply(&k, probe).is_ok());
        // ...but SaveState is not.
        call(&mut k, probe, oid, loid, methods::SAVE_STATE, vec![]);
        assert!(last_reply(&k, probe).unwrap_err().contains("MayI refused"));
        assert_eq!(k.counters().get("object.refused"), 1);
        // And MayI() itself answers the question without being gated.
        call(
            &mut k,
            probe,
            oid,
            loid,
            methods::MAY_I,
            vec![LegionValue::Loid(friend), LegionValue::Str("Ping".into())],
        );
        assert_eq!(last_reply(&k, probe), Ok(LegionValue::Bool(true)));
        call(
            &mut k,
            probe,
            oid,
            loid,
            methods::MAY_I,
            vec![
                LegionValue::Loid(Loid::instance(8, 8)),
                LegionValue::Str("Ping".into()),
            ],
        );
        assert_eq!(last_reply(&k, probe), Ok(LegionValue::Bool(false)));
    }

    #[test]
    fn objects_share_one_table_and_gate_with_their_own_policy() {
        let mut k = SimKernel::new(Topology::zero(), FaultPlan::none(), 1);
        let (open_loid, locked_loid) = (Loid::instance(16, 1), Loid::instance(16, 2));
        let open = ActiveObjectEndpoint::new(open_loid, Interface::new());
        let locked = ActiveObjectEndpoint::new(locked_loid, Interface::new())
            .with_policy(Box::new(MethodAcl::deny_by_default()));
        assert!(Rc::ptr_eq(&open.table, &locked.table));
        let open = k.add_endpoint(Box::new(open), Location::new(0, 0), "open");
        let locked = k.add_endpoint(Box::new(locked), Location::new(0, 0), "locked");
        let probe = k.add_endpoint(
            Box::new(Probe { replies: vec![] }),
            Location::new(0, 0),
            "probe",
        );
        // One table, two gates: each call is checked against the policy
        // of the object it reached, and answered from that object.
        call(&mut k, probe, open, open_loid, methods::IAM, vec![]);
        assert_eq!(last_reply(&k, probe), Ok(LegionValue::Loid(open_loid)));
        call(&mut k, probe, locked, locked_loid, methods::IAM, vec![]);
        assert!(last_reply(&k, probe).unwrap_err().contains("MayI refused"));
        assert_eq!(k.counters().get("object.refused"), 1);
    }

    #[test]
    fn restore_state_via_message() {
        let (mut k, oid, probe, loid) = world();
        call(
            &mut k,
            probe,
            oid,
            loid,
            obj_methods::SET,
            vec![LegionValue::Str("n".into()), LegionValue::Int(-3)],
        );
        call(&mut k, probe, oid, loid, methods::SAVE_STATE, vec![]);
        let Ok(LegionValue::Bytes(state)) = last_reply(&k, probe) else {
            panic!()
        };
        call(
            &mut k,
            probe,
            oid,
            loid,
            obj_methods::SET,
            vec![LegionValue::Str("n".into()), LegionValue::Int(100)],
        );
        call(
            &mut k,
            probe,
            oid,
            loid,
            methods::RESTORE_STATE,
            vec![LegionValue::Bytes(state)],
        );
        call(
            &mut k,
            probe,
            oid,
            loid,
            obj_methods::GET,
            vec![LegionValue::Str("n".into())],
        );
        assert_eq!(last_reply(&k, probe), Ok(LegionValue::Int(-3)));
        // Garbage restore errors.
        call(
            &mut k,
            probe,
            oid,
            loid,
            methods::RESTORE_STATE,
            vec![LegionValue::Bytes(vec![0xFF])],
        );
        assert!(last_reply(&k, probe).is_err());
    }
}
