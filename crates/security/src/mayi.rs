//! `MayI()` policies (paper §2.4).
//!
//! "Every object provides certain security-related member functions,
//! including `MayI()` and `Iam()`. These functions may default to empty
//! for the case of no security ... in the end, the user has the ultimate
//! responsibility to determine what policy is to be enforced and how
//! vigorous that enforcement will be."
//!
//! A [`MayIPolicy`] decides whether a method invocation, performed in its
//! ⟨RA, SA, CA⟩ environment, may proceed. Policies compose: the paper's
//! philosophy is that objects pick (or write) exactly the policy they
//! want, with "no security" a valid and cheap default.

use legion_core::env::InvocationEnv;
use legion_core::loid::Loid;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The outcome of a `MayI` check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// The call may proceed.
    Allow,
    /// The call is refused, with a reason for the audit log.
    Deny(String),
}

impl Decision {
    /// Is this an allow?
    pub fn is_allowed(&self) -> bool {
        matches!(self, Decision::Allow)
    }
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Decision::Allow => write!(f, "allow"),
            Decision::Deny(r) => write!(f, "deny: {r}"),
        }
    }
}

/// A `MayI()` policy: given the invocation environment and the method
/// name, allow or deny.
pub trait MayIPolicy: Send {
    /// Decide.
    fn may_i(&self, env: &InvocationEnv, method: &str) -> Decision;
    /// A short name for audit logs.
    fn name(&self) -> &str;
}

/// The paper's default: "empty for the case of no security".
#[derive(Debug, Clone, Default)]
pub struct AllowAll;

impl MayIPolicy for AllowAll {
    fn may_i(&self, _env: &InvocationEnv, _method: &str) -> Decision {
        Decision::Allow
    }
    fn name(&self) -> &str {
        "allow-all"
    }
}

/// An access-control list keyed by method name.
///
/// * callers (by Calling Agent LOID) may be granted specific methods;
/// * whole *classes* may be granted methods (any instance qualifies);
/// * methods not mentioned are denied.
///
/// ```
/// use legion_core::env::InvocationEnv;
/// use legion_core::loid::Loid;
/// use legion_security::mayi::{MayIPolicy, MethodAcl};
///
/// let alice = Loid::instance(20, 1);
/// let mut acl = MethodAcl::deny_by_default();
/// acl.grant("Read", alice);
/// assert!(acl.may_i(&InvocationEnv::solo(alice), "Read").is_allowed());
/// assert!(!acl.may_i(&InvocationEnv::solo(alice), "Write").is_allowed());
/// ```
#[derive(Debug, Clone)]
pub struct MethodAcl {
    /// method → callers allowed.
    callers: BTreeMap<String, BTreeSet<Loid>>,
    /// method → caller classes allowed.
    classes: BTreeMap<String, BTreeSet<Loid>>,
}

impl MethodAcl {
    /// An ACL whose unlisted methods are denied.
    pub fn deny_by_default() -> Self {
        MethodAcl {
            callers: BTreeMap::new(),
            classes: BTreeMap::new(),
        }
    }

    /// Grant `caller` the right to invoke `method`.
    pub fn grant(&mut self, method: impl Into<String>, caller: Loid) -> &mut Self {
        self.callers
            .entry(method.into())
            .or_default()
            .insert(caller);
        self
    }

    /// Grant every instance of `class` the right to invoke `method`.
    pub fn grant_class(&mut self, method: impl Into<String>, class: Loid) -> &mut Self {
        self.classes.entry(method.into()).or_default().insert(class);
        self
    }
}

impl MayIPolicy for MethodAcl {
    fn may_i(&self, env: &InvocationEnv, method: &str) -> Decision {
        let listed = self.callers.contains_key(method) || self.classes.contains_key(method);
        if !listed {
            return Decision::Deny(format!("method {method} not in ACL"));
        }
        if self
            .callers
            .get(method)
            .is_some_and(|s| s.contains(&env.calling))
        {
            return Decision::Allow;
        }
        if self
            .classes
            .get(method)
            .is_some_and(|s| s.contains(&env.calling.class_loid()))
        {
            return Decision::Allow;
        }
        Decision::Deny(format!("caller {} not granted {method}", env.calling))
    }
    fn name(&self) -> &str {
        "method-acl"
    }
}

/// Require the *Responsible Agent* to be one of a trusted set — delegated
/// authority: any caller acting on behalf of a trusted RA passes.
#[derive(Debug, Clone)]
pub struct ResponsibleAgentSet {
    trusted: BTreeSet<Loid>,
}

impl ResponsibleAgentSet {
    /// Trust exactly these Responsible Agents.
    pub fn new(trusted: impl IntoIterator<Item = Loid>) -> Self {
        ResponsibleAgentSet {
            trusted: trusted.into_iter().collect(),
        }
    }
}

impl MayIPolicy for ResponsibleAgentSet {
    fn may_i(&self, env: &InvocationEnv, method: &str) -> Decision {
        if self.trusted.contains(&env.responsible) {
            Decision::Allow
        } else {
            Decision::Deny(format!(
                "responsible agent {} not trusted for {method}",
                env.responsible
            ))
        }
    }
    fn name(&self) -> &str {
        "responsible-agent-set"
    }
}

/// Conjunction: every sub-policy must allow.
pub struct AllOf {
    policies: Vec<Box<dyn MayIPolicy>>,
}

impl AllOf {
    /// Compose policies; an empty conjunction allows.
    pub fn new(policies: Vec<Box<dyn MayIPolicy>>) -> Self {
        AllOf { policies }
    }
}

impl MayIPolicy for AllOf {
    fn may_i(&self, env: &InvocationEnv, method: &str) -> Decision {
        for p in &self.policies {
            if let Decision::Deny(r) = p.may_i(env, method) {
                return Decision::Deny(format!("{} denied: {r}", p.name()));
            }
        }
        Decision::Allow
    }
    fn name(&self) -> &str {
        "all-of"
    }
}

/// Adapt a boxed policy to the dispatch boundary's gate hook, so the
/// MayI check runs once, in `legion_net::dispatch::serve`, for every
/// gated method of every endpoint.
impl legion_core::dispatch::InvocationGate for Box<dyn MayIPolicy> {
    fn check(&self, env: &InvocationEnv, method: &str) -> Result<(), String> {
        match self.may_i(env, method) {
            Decision::Allow => Ok(()),
            Decision::Deny(reason) => Err(reason),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(ra: Loid, ca: Loid) -> InvocationEnv {
        InvocationEnv {
            responsible: ra,
            security: ra,
            calling: ca,
            trace: Default::default(),
        }
    }

    #[test]
    fn allow_all_allows() {
        let p = AllowAll;
        assert!(p
            .may_i(&InvocationEnv::anonymous(), "Anything")
            .is_allowed());
        assert_eq!(p.name(), "allow-all");
    }

    #[test]
    fn deny_all_denies_with_reason() {
        let d = MethodAcl::deny_by_default().may_i(&InvocationEnv::anonymous(), "Read");
        assert!(!d.is_allowed());
        assert!(d.to_string().contains("Read"));
    }

    #[test]
    fn acl_grants_specific_caller() {
        let alice = Loid::instance(20, 1);
        let bob = Loid::instance(20, 2);
        let mut acl = MethodAcl::deny_by_default();
        acl.grant("Read", alice);
        assert!(acl.may_i(&env(alice, alice), "Read").is_allowed());
        assert!(!acl.may_i(&env(bob, bob), "Read").is_allowed());
        assert!(!acl.may_i(&env(alice, alice), "Write").is_allowed());
    }

    #[test]
    fn acl_grants_whole_class() {
        let worker1 = Loid::instance(30, 1);
        let worker2 = Loid::instance(30, 2);
        let outsider = Loid::instance(31, 1);
        let mut acl = MethodAcl::deny_by_default();
        acl.grant_class("Render", Loid::class_object(30));
        assert!(acl.may_i(&env(worker1, worker1), "Render").is_allowed());
        assert!(acl.may_i(&env(worker2, worker2), "Render").is_allowed());
        assert!(!acl.may_i(&env(outsider, outsider), "Render").is_allowed());
    }

    #[test]
    fn responsible_agent_delegation() {
        let user = Loid::instance(20, 1);
        let service = Loid::instance(21, 1);
        let policy = ResponsibleAgentSet::new([user]);
        // The service calls on behalf of the trusted user.
        let delegated = env(user, user).forwarded_by(service);
        assert!(policy.may_i(&delegated, "Read").is_allowed());
        // But acting on its own behalf it is refused.
        assert!(!policy
            .may_i(&InvocationEnv::solo(service), "Read")
            .is_allowed());
    }

    #[test]
    fn all_of_composes() {
        let alice = Loid::instance(20, 1);
        let mut acl = MethodAcl::deny_by_default();
        acl.grant("Read", alice);
        let both = AllOf::new(vec![
            Box::new(acl),
            Box::new(ResponsibleAgentSet::new([alice])),
        ]);
        assert!(both.may_i(&env(alice, alice), "Read").is_allowed());
        let eve = Loid::instance(20, 9);
        let d = both.may_i(&env(eve, alice), "Read");
        assert!(!d.is_allowed());
        assert!(d.to_string().contains("responsible-agent-set"));
        // Empty conjunction allows.
        assert!(AllOf::new(vec![])
            .may_i(&InvocationEnv::anonymous(), "X")
            .is_allowed());
    }
}
