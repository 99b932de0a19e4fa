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
//! [`crate::agent::BindingAgentEndpoint`]; this module provides the
//! *eager propagation* helpers a class (or Magistrate) uses after a
//! migration or deletion, plus the positive variant — pushing a fresh
//! binding with `AddBinding` "to explicitly propagate binding information
//! for performance purposes" (§3.6).

use crate::protocol::{ADD_BINDING, INVALIDATE_BINDING};
use legion_core::address::ObjectAddressElement;
use legion_core::binding::Binding;
use legion_core::env::InvocationEnv;
use legion_core::loid::Loid;
use legion_core::symbol;
use legion_core::value::LegionValue;
use legion_net::sim::Ctx;

/// Broadcast `InvalidateBinding(loid)` to the given Binding Agents.
/// Returns how many sends were accepted.
pub fn propagate_invalidation(
    ctx: &mut Ctx<'_>,
    sender: Loid,
    agents: &[ObjectAddressElement],
    stale: Loid,
) -> usize {
    let mut accepted = 0;
    for &agent in agents {
        let args = ctx.args([LegionValue::Loid(stale)]);
        let ok = ctx
            .call(
                agent,
                stale,
                INVALIDATE_BINDING,
                args,
                InvocationEnv::solo(sender),
                Some(sender),
            )
            .is_some();
        if ok {
            accepted += 1;
        }
    }
    ctx.count_n(symbol::STALE_INVALIDATIONS_PROPAGATED, accepted as u64);
    accepted
}

/// Broadcast a fresh binding with `AddBinding` to the given agents
/// (post-migration push). Returns how many sends were accepted.
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
        let ok = ctx
            .call(
                agent,
                fresh.loid,
                ADD_BINDING,
                args,
                InvocationEnv::solo(sender),
                Some(sender),
            )
            .is_some();
        if ok {
            accepted += 1;
        }
    }
    ctx.count_n(symbol::STALE_BINDINGS_PROPAGATED, accepted as u64);
    accepted
}
