//! Stale-binding hygiene (paper §4.1.4).
//!
//! "Legion expects the presence of stale bindings ... When an object
//! attempts to communicate with an invalid Object Address, the Legion
//! communication layer of the object is expected to detect that it has
//! become invalid ... Some classes may even attempt to reduce the number
//! of stale bindings by explicitly propagating news of an object's
//! migration or removal."
//!
//! Detection and refresh live in [`crate::resolver::ClientResolver`] and
//! [`crate::agent::BindingAgentEndpoint`]. News of a migration goes where
//! the binding went: the class tells the agents it answered (see
//! `legion-runtime`'s `ClassEndpoint`). This module covers the bindings
//! no class handed out — a Magistrate *pushes* a recovered object's fresh
//! binding with `AddBinding` "to explicitly propagate binding information
//! for performance purposes" (§3.6), and at the next crash withdraws what
//! it pushed. Both are one-way notices ([`Ctx::notify`]): nobody reads an
//! acknowledgement, so none is sent.

use crate::protocol::{ADD_BINDING, INVALIDATE_BINDING};
use legion_core::address::ObjectAddressElement;
use legion_core::binding::Binding;
use legion_core::env::InvocationEnv;
use legion_core::loid::Loid;
use legion_core::symbol;
use legion_core::value::LegionValue;
use legion_net::sim::Ctx;

/// Tell each of `agents` to drop whatever it holds for `stale`
/// (`InvalidateBinding(loid)`). Returns how many sends were accepted.
pub fn propagate_invalidation(
    ctx: &mut Ctx<'_>,
    sender: Loid,
    agents: &[ObjectAddressElement],
    stale: Loid,
) -> usize {
    let mut accepted = 0;
    for &agent in agents {
        let args = ctx.args([LegionValue::Loid(stale)]);
        let env = InvocationEnv::solo(sender);
        if ctx.notify(agent, stale, INVALIDATE_BINDING, args, env, Some(sender)) {
            accepted += 1;
        }
    }
    ctx.count_n(symbol::STALE_INVALIDATIONS_PROPAGATED, accepted as u64);
    accepted
}

/// Push a fresh binding to each of `agents` with `AddBinding`. Returns
/// how many sends were accepted.
pub fn propagate_binding(
    ctx: &mut Ctx<'_>,
    sender: Loid,
    agents: &[ObjectAddressElement],
    fresh: &Binding,
) -> usize {
    let mut accepted = 0;
    for &agent in agents {
        let binding = ctx.binding_value(fresh);
        let args = ctx.args([binding]);
        let env = InvocationEnv::solo(sender);
        if ctx.notify(agent, fresh.loid, ADD_BINDING, args, env, Some(sender)) {
            accepted += 1;
        }
    }
    ctx.count_n(symbol::STALE_BINDINGS_PROPAGATED, accepted as u64);
    accepted
}
