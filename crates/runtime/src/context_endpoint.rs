//! A live context object: the string-name service of §4.1.
//!
//! "A user will write a Legion application program ... and will typically
//! name Legion objects with string names. The program is compiled within
//! a particular 'context' ... the context \[maps\] string names to LOID's."
//!
//! [`ContextEndpoint`] wraps a [`Context`] and serves it over the wire:
//! `BindName(path, loid)`, `LookupName(path) → loid`, `UnbindName(path)`,
//! and `ListNames() → list of (path, loid)`. Contexts are ordinary Legion
//! objects: they live on hosts, can be replicated, and their state is the
//! directory.

use legion_core::context::Context;
use legion_core::dispatch::InvocationGate;
use legion_core::interface::ParamType;
use legion_core::loid::Loid;
use legion_core::symbol;
use legion_core::value::LegionValue;
use legion_net::dispatch::{serve, MethodTable, Outcome, TableBuilder};
use legion_net::message::Message;
use legion_net::sim::{Ctx, Endpoint};
use legion_security::MayIPolicy;
use std::rc::Rc;

/// Method names exported by context objects.
pub mod methods {
    /// `BindName(string path, loid target)`.
    pub const BIND_NAME: &str = "BindName";
    /// `loid LookupName(string path)`.
    pub const LOOKUP_NAME: &str = "LookupName";
    /// `UnbindName(string path)`.
    pub const UNBIND_NAME: &str = "UnbindName";
    /// `list ListNames()` — pairs of `(path, loid)`.
    pub const LIST_NAMES: &str = "ListNames";
}

/// The live context object.
pub struct ContextEndpoint {
    loid: Loid,
    context: Context,
    mayi: Box<dyn MayIPolicy>,
    table: Rc<MethodTable<Self>>,
}

impl ContextEndpoint {
    /// An empty named context object.
    pub fn new(loid: Loid) -> Self {
        ContextEndpoint {
            loid,
            context: Context::new(),
            mayi: Box::new(legion_security::AllowAll),
            table: Self::table(loid),
        }
    }

    /// Read access for tests and drivers.
    pub fn context(&self) -> &Context {
        &self.context
    }

    /// This context object's LOID.
    pub fn loid(&self) -> Loid {
        self.loid
    }

    fn table(loid: Loid) -> Rc<MethodTable<Self>> {
        TableBuilder::new("context", "Context", loid)
            .gate(|e: &Self| &e.mayi as &dyn InvocationGate)
            .method::<(String, Loid), _>(
                methods::BIND_NAME,
                &["path", "target"],
                ParamType::Void,
                |e, _ctx, _msg, (path, target)| {
                    Outcome::Reply(
                        e.context
                            .bind_path(&path, target)
                            .map(|_| LegionValue::Void)
                            .map_err(|err| err.to_string()),
                    )
                },
            )
            .method::<(String,), _>(
                methods::LOOKUP_NAME,
                &["path"],
                ParamType::Loid,
                |e, ctx, _msg, (path,)| {
                    ctx.count(symbol::CONTEXT_LOOKUPS);
                    Outcome::Reply(
                        e.context
                            .lookup(&path)
                            .map(LegionValue::Loid)
                            .map_err(|err| err.to_string()),
                    )
                },
            )
            .method::<(String,), _>(
                methods::UNBIND_NAME,
                &["path"],
                ParamType::Void,
                |e, _ctx, _msg, (path,)| {
                    Outcome::Reply(
                        e.context
                            .unbind(&path)
                            .map(|_| LegionValue::Void)
                            .map_err(|err| err.to_string()),
                    )
                },
            )
            .method::<(), _>(
                methods::LIST_NAMES,
                &[],
                ParamType::List,
                |e, _ctx, _msg, ()| {
                    let pairs = e
                        .context
                        .walk()
                        .into_iter()
                        .map(|(path, loid)| {
                            LegionValue::List(vec![LegionValue::Str(path), LegionValue::Loid(loid)])
                        })
                        .collect();
                    Outcome::Reply(Ok(LegionValue::List(pairs)))
                },
            )
            .get_interface()
            .seal()
    }
}

impl Endpoint for ContextEndpoint {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        let table = Rc::clone(&self.table);
        serve(&table, self, ctx, msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legion_core::env::InvocationEnv;
    use legion_core::symbol::Sym;
    use legion_net::message::Body;
    use legion_net::sim::{EndpointId, SimKernel};
    use legion_net::topology::{Location, Topology};
    use legion_net::FaultPlan;

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

    fn call(
        k: &mut SimKernel,
        probe: EndpointId,
        cx: EndpointId,
        method: impl Into<Sym>,
        args: Vec<LegionValue>,
    ) -> Result<LegionValue, String> {
        let id = k.fresh_call_id();
        let mut msg = Message::call(
            id,
            Loid::instance(60, 1),
            method,
            args,
            InvocationEnv::anonymous(),
        );
        msg.reply_to = Some(probe.element());
        k.inject(Location::new(0, 9), cx.element(), msg);
        k.run_until_quiescent(10_000);
        k.endpoint::<Probe>(probe)
            .unwrap()
            .replies
            .last()
            .cloned()
            .unwrap()
    }

    #[test]
    fn bind_lookup_unbind_over_the_wire() {
        let mut k = SimKernel::new(Topology::zero(), FaultPlan::none(), 1);
        let cx = k.add_endpoint(
            Box::new(ContextEndpoint::new(Loid::instance(60, 1))),
            Location::new(0, 0),
            "context",
        );
        let probe = k.add_endpoint(Box::new(Probe::default()), Location::new(0, 9), "probe");
        let target = Loid::instance(16, 5);
        assert_eq!(
            call(
                &mut k,
                probe,
                cx,
                methods::BIND_NAME,
                vec![
                    LegionValue::Str("home/grimshaw/run1".into()),
                    LegionValue::Loid(target),
                ]
            ),
            Ok(LegionValue::Void)
        );
        assert_eq!(
            call(
                &mut k,
                probe,
                cx,
                methods::LOOKUP_NAME,
                vec![LegionValue::Str("home/grimshaw/run1".into())]
            ),
            Ok(LegionValue::Loid(target))
        );
        // ListNames shows the leaf.
        match call(&mut k, probe, cx, methods::LIST_NAMES, vec![]) {
            Ok(LegionValue::List(items)) => assert_eq!(items.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            call(
                &mut k,
                probe,
                cx,
                methods::UNBIND_NAME,
                vec![LegionValue::Str("home/grimshaw/run1".into())]
            ),
            Ok(LegionValue::Void)
        );
        assert!(call(
            &mut k,
            probe,
            cx,
            methods::LOOKUP_NAME,
            vec![LegionValue::Str("home/grimshaw/run1".into())]
        )
        .is_err());
        assert_eq!(k.counters().get("context.lookups"), 2);
    }

    #[test]
    fn malformed_requests_error() {
        let mut k = SimKernel::new(Topology::zero(), FaultPlan::none(), 1);
        let cx = k.add_endpoint(
            Box::new(ContextEndpoint::new(Loid::instance(60, 1))),
            Location::new(0, 0),
            "context",
        );
        let probe = k.add_endpoint(Box::new(Probe::default()), Location::new(0, 9), "probe");
        assert!(call(&mut k, probe, cx, methods::BIND_NAME, vec![]).is_err());
        assert!(call(
            &mut k,
            probe,
            cx,
            methods::LOOKUP_NAME,
            vec![LegionValue::Uint(1)]
        )
        .is_err());
        assert!(call(&mut k, probe, cx, "Nope", vec![]).is_err());
    }
}
