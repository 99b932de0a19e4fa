//! The method-invocation environment (paper §2.4).
//!
//! "Every method invocation is performed in an environment consisting of a
//! triple of object names — those of the operative Responsible Agent, the
//! Security Agent, and the Calling Agent." The triple travels with every
//! message; `legion-security` interprets it.

use crate::loid::Loid;
use crate::trace::TraceContext;
use std::fmt;

/// The ⟨Responsible Agent, Security Agent, Calling Agent⟩ triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct InvocationEnv {
    /// The Responsible Agent: the object on whose behalf the call chain
    /// ultimately acts (e.g. the user's proxy object).
    pub responsible: Loid,
    /// The Security Agent: the object consulted for policy decisions.
    pub security: Loid,
    /// The Calling Agent: the object that issued this particular call.
    pub calling: Loid,
    /// Causal-trace context. Rides with the triple (it follows exactly
    /// the same forwarding rules) but carries no authority; the kernel
    /// stamps it at send time when tracing is enabled.
    pub trace: TraceContext,
}

impl InvocationEnv {
    /// An environment where one object plays all three roles — the common
    /// case for a self-contained caller with no delegated authority.
    pub fn solo(who: Loid) -> Self {
        InvocationEnv {
            responsible: who,
            security: who,
            calling: who,
            trace: TraceContext::NONE,
        }
    }

    /// Derive the environment for a nested call made by `caller` while
    /// servicing a call performed under `self`: the Responsible and
    /// Security Agents are preserved, the Calling Agent becomes `caller`.
    pub fn forwarded_by(&self, caller: Loid) -> Self {
        InvocationEnv {
            responsible: self.responsible,
            security: self.security,
            calling: caller,
            trace: self.trace,
        }
    }

    /// The same environment carrying `trace` (builder-style).
    pub fn with_trace(mut self, trace: TraceContext) -> Self {
        self.trace = trace;
        self
    }

    /// The anonymous environment (all roles nil) — "empty for the case of
    /// no security".
    pub fn anonymous() -> Self {
        InvocationEnv::default()
    }
}

impl fmt::Display for InvocationEnv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "⟨RA={}, SA={}, CA={}⟩",
            self.responsible, self.security, self.calling
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solo_sets_all_roles() {
        let who = Loid::instance(5, 7);
        let env = InvocationEnv::solo(who);
        assert_eq!(env.responsible, who);
        assert_eq!(env.security, who);
        assert_eq!(env.calling, who);
    }

    #[test]
    fn forwarding_preserves_ra_sa() {
        let user = Loid::instance(5, 7);
        let service = Loid::instance(6, 1);
        let env = InvocationEnv::solo(user).forwarded_by(service);
        assert_eq!(env.responsible, user);
        assert_eq!(env.security, user);
        assert_eq!(env.calling, service);
    }

    #[test]
    fn anonymous_is_all_nil() {
        let env = InvocationEnv::anonymous();
        assert!(env.responsible.is_nil());
        assert!(env.security.is_nil());
        assert!(env.calling.is_nil());
    }
}
