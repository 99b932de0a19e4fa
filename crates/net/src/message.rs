//! Messages: non-blocking method invocations and replies (paper §2).
//!
//! "Legion is an object-oriented system comprised of independent, address
//! space disjoint objects that communicate with one another via method
//! invocation. Method calls are non-blocking and may be accepted in any
//! order by the called object."
//!
//! A [`Message`] is either a method call or a reply correlated by
//! [`CallId`]. Every call carries the security triple of §2.4
//! ([`InvocationEnv`]) and the sender's address element so the callee can
//! reply without a name lookup.

use legion_core::address::ObjectAddressElement;
use legion_core::env::InvocationEnv;
use legion_core::loid::Loid;
use legion_core::symbol::Sym;
use legion_core::value::LegionValue;
use std::fmt;

/// Correlates a reply with its call. Unique per kernel run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CallId(pub u64);

impl fmt::Display for CallId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// The payload of a message.
#[derive(Debug, Clone, PartialEq)]
pub enum Body {
    /// A method invocation.
    Call {
        /// Method name, matching a signature in the callee's interface.
        /// Interned: copying a message never clones the name.
        method: Sym,
        /// Positional arguments.
        args: Vec<LegionValue>,
    },
    /// A reply to an earlier call.
    Reply {
        /// The call being answered.
        in_reply_to: CallId,
        /// The return value, or a rendered error.
        result: Result<LegionValue, String>,
    },
}

/// One message in flight.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    /// Unique id of this message (for replies: its own id, distinct from
    /// `in_reply_to`).
    pub id: CallId,
    /// LOID of the intended receiver, when the sender knows it. Lets the
    /// receiver detect *misdirected* messages — the stale-binding signal
    /// of §4.1.4 (the endpoint at the old address may now host a
    /// different object).
    pub target: Option<Loid>,
    /// The sender's address element, for replies.
    pub reply_to: Option<ObjectAddressElement>,
    /// LOID of the sender, when it has one (Host Objects bootstrapping
    /// from outside Legion may not yet).
    pub sender: Option<Loid>,
    /// The §2.4 security triple.
    pub env: InvocationEnv,
    /// Call or reply.
    pub body: Body,
}

impl Message {
    /// Build a call message.
    pub fn call(
        id: CallId,
        target: Loid,
        method: impl Into<Sym>,
        args: Vec<LegionValue>,
        env: InvocationEnv,
    ) -> Self {
        Message {
            id,
            target: Some(target),
            reply_to: None,
            sender: None,
            env,
            body: Body::Call {
                method: method.into(),
                args,
            },
        }
    }

    /// Build a reply to `call`, keeping its environment.
    pub fn reply_to(call: &Message, id: CallId, result: Result<LegionValue, String>) -> Self {
        call.reply_ticket().reply(id, result)
    }

    /// What answering this call later will need of it.
    pub fn reply_ticket(&self) -> ReplyTicket {
        ReplyTicket {
            id: self.id,
            reply_to: self.reply_to,
            sender: self.sender,
            target: self.target,
            env: self.env,
        }
    }

    /// The method symbol, for calls. Allocation- and lock-free.
    pub fn method_sym(&self) -> Option<Sym> {
        match &self.body {
            Body::Call { method, .. } => Some(*method),
            Body::Reply { .. } => None,
        }
    }

    /// The method name, for calls. Resolves through the interner; prefer
    /// [`Message::method_sym`] on hot paths.
    pub fn method(&self) -> Option<&'static str> {
        self.method_sym().map(Sym::as_str)
    }

    /// The arguments, for calls.
    pub fn args(&self) -> &[LegionValue] {
        match &self.body {
            Body::Call { args, .. } => args,
            Body::Reply { .. } => &[],
        }
    }

    /// Is this a reply?
    pub fn is_reply(&self) -> bool {
        matches!(self.body, Body::Reply { .. })
    }
}

/// The part of a call its reply is built from: an endpoint that answers
/// later (a Binding Agent waiting on its parent) parks this instead of a
/// copy of the call and its argument vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplyTicket {
    id: CallId,
    reply_to: Option<ObjectAddressElement>,
    sender: Option<Loid>,
    target: Option<Loid>,
    env: InvocationEnv,
}

impl ReplyTicket {
    /// Where the reply goes: the caller's address element, if it gave one.
    pub(crate) fn reply_to(&self) -> Option<ObjectAddressElement> {
        self.reply_to
    }

    /// Build the reply to the ticket's call, keeping its environment.
    pub(crate) fn reply(self, id: CallId, result: Result<LegionValue, String>) -> Message {
        Message {
            id,
            target: self.sender,
            reply_to: None,
            sender: self.target,
            env: self.env,
            body: Body::Reply {
                in_reply_to: self.id,
                result,
            },
        }
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.body {
            Body::Call { method, args } => {
                write!(f, "{} call {}({} args)", self.id, method, args.len())
            }
            Body::Reply {
                in_reply_to,
                result,
            } => write!(
                f,
                "{} reply to {} ({})",
                self.id,
                in_reply_to,
                if result.is_ok() { "ok" } else { "err" }
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call() -> Message {
        let mut m = Message::call(
            CallId(1),
            Loid::instance(16, 1),
            "Ping",
            vec![LegionValue::Uint(7)],
            InvocationEnv::solo(Loid::instance(16, 2)),
        );
        m.sender = Some(Loid::instance(16, 2));
        m
    }

    #[test]
    fn call_accessors() {
        let m = call();
        assert_eq!(m.method(), Some("Ping"));
        assert_eq!(m.args().len(), 1);
        assert!(!m.is_reply());
        assert!(m.to_string().contains("Ping"));
    }

    #[test]
    fn reply_correlates_and_swaps_direction() {
        let c = call();
        let r = Message::reply_to(&c, CallId(2), Ok(LegionValue::Void));
        assert!(r.is_reply());
        assert_eq!(r.target, c.sender);
        assert_eq!(r.sender, c.target);
        assert_eq!(r.env, c.env);
        match r.body {
            Body::Reply { in_reply_to, .. } => assert_eq!(in_reply_to, CallId(1)),
            _ => panic!("not a reply"),
        }
        assert_eq!(r.method(), None);
        assert!(r.args().is_empty());
    }

    #[test]
    fn error_reply_displays_err() {
        let c = call();
        let r = Message::reply_to(&c, CallId(3), Err("no such method".into()));
        assert!(r.to_string().contains("err"));
    }
}
