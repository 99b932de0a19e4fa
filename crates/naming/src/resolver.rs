//! The client-side communication layer (paper §4.1.2, §4.1.4).
//!
//! "Since A is a Legion object, it contains a Legion-aware communication
//! layer which may implement a binding cache. Therefore, A will often have
//! a cached binding for B, and external objects will be unnecessary."
//!
//! [`ClientResolver`] is that layer: a local cache in front of the
//! object's Binding Agent (whose Object Address is "part of its persistent
//! state", §3.6). It also implements stale-binding recovery: when a send
//! through a cached binding is refused, [`ClientResolver::report_stale`]
//! evicts it and requests a refresh via the `GetBinding(binding)` overload.

use crate::cache::{BindingCache, CacheStats};
use crate::protocol::GET_BINDING;
use legion_core::address::ObjectAddressElement;
use legion_core::binding::Binding;
use legion_core::env::InvocationEnv;
use legion_core::fxmap::FxHashMap;
use legion_core::loid::Loid;
use legion_core::symbol;
use legion_core::value::LegionValue;
use legion_net::message::{Body, CallId, Message};
use legion_net::sim::Ctx;

/// Counters for the three §4.1 outcomes at the client tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResolverStats {
    /// Lookups served from the local cache.
    pub local_hits: u64,
    /// Lookups that went to the Binding Agent.
    pub agent_requests: u64,
    /// Refresh requests after stale-binding detection.
    pub refreshes: u64,
    /// Lookups that ultimately failed.
    pub failures: u64,
}

/// Outcome of a lookup attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum Lookup {
    /// Served locally.
    Cached(Binding),
    /// A request to the Binding Agent is in flight under this id.
    Requested(CallId),
    /// The Binding Agent could not be reached.
    AgentUnreachable,
}

/// The Legion-aware communication layer embedded in client objects.
pub struct ClientResolver {
    /// The owning object's LOID (used as the call environment).
    me: Loid,
    /// The Binding Agent's address — persistent state per §3.6.
    agent: ObjectAddressElement,
    cache: BindingCache,
    cache_enabled: bool,
    pending: FxHashMap<CallId, Loid>,
    stats: ResolverStats,
}

impl ClientResolver {
    /// A resolver for object `me` using the agent at `agent`.
    pub fn new(me: Loid, agent: ObjectAddressElement, cache_capacity: usize) -> Self {
        ClientResolver {
            me,
            agent,
            cache: BindingCache::new(cache_capacity),
            cache_enabled: true,
            pending: FxHashMap::default(),
            stats: ResolverStats::default(),
        }
    }

    /// Disable (or re-enable) the local cache — the ablation switch for
    /// experiment E3. A disabled cache neither answers nor stores.
    pub fn set_cache_enabled(&mut self, enabled: bool) {
        self.cache_enabled = enabled;
    }

    /// The owning object's LOID.
    pub fn me(&self) -> Loid {
        self.me
    }

    /// Resolver statistics.
    pub fn stats(&self) -> ResolverStats {
        self.stats
    }

    /// Cache statistics.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Look up a binding for `target`: local cache first, else ask the
    /// Binding Agent.
    pub fn lookup(&mut self, ctx: &mut Ctx<'_>, target: Loid) -> Lookup {
        if self.cache_enabled {
            if let Some(b) = self.cache.get(&target, ctx.now()) {
                self.stats.local_hits += 1;
                ctx.count(symbol::CLIENT_CACHE_HIT);
                if ctx.trace_active() {
                    ctx.trace_note(&format!("client.cache_hit:{target}"));
                }
                return Lookup::Cached(b);
            }
        }
        ctx.count(symbol::CLIENT_CACHE_MISS);
        if ctx.trace_active() {
            ctx.trace_note(&format!("client.cache_miss:{target}"));
        }
        self.request(ctx, target, LegionValue::Loid(target))
    }

    /// Report that a binding failed in use (§4.1.4) and request a refresh
    /// through the `GetBinding(binding)` overload.
    pub fn report_stale(&mut self, ctx: &mut Ctx<'_>, stale: Binding) -> Lookup {
        ctx.count(symbol::CLIENT_STALE_DETECTED);
        if ctx.trace_active() {
            ctx.trace_note(&format!("client.stale_detected:{}", stale.loid));
        }
        self.stats.refreshes += 1;
        self.cache.invalidate_exact(&stale);
        let arg = ctx.binding_value(&stale);
        self.request(ctx, stale.loid, arg)
    }

    fn request(&mut self, ctx: &mut Ctx<'_>, target: Loid, arg: LegionValue) -> Lookup {
        self.stats.agent_requests += 1;
        let env = InvocationEnv::solo(self.me);
        let mut args = ctx.take_args();
        args.push(arg);
        match ctx.call(self.agent, target, GET_BINDING, args, env, Some(self.me)) {
            Some(id) => {
                self.pending.insert(id, target);
                Lookup::Requested(id)
            }
            None => {
                self.stats.failures += 1;
                Lookup::AgentUnreachable
            }
        }
    }

    /// Offer a reply message to the resolver. If it answers one of our
    /// binding requests, returns `Ok((target, result))` and the caller
    /// should not process it further; otherwise returns the message
    /// untouched (`Err`). The message is taken by value: on a match the
    /// reply's binding box is recycled into the kernel pool after one copy
    /// for the caller, and the cache is refreshed in place
    /// ([`BindingCache::insert_ref`]) — no allocation per answered lookup
    /// once the cache is full.
    #[allow(clippy::result_large_err)] // Err is the unconsumed message, by design
    pub fn handle_reply_owned(
        &mut self,
        ctx: &mut Ctx<'_>,
        msg: Message,
    ) -> Result<(Loid, Result<Binding, String>), Message> {
        let Body::Reply { in_reply_to, .. } = &msg.body else {
            return Err(msg);
        };
        let Some(target) = self.pending.remove(in_reply_to) else {
            return Err(msg);
        };
        match msg.body {
            Body::Reply {
                result: Ok(LegionValue::Binding(shell)),
                ..
            } => {
                let b = (*shell).clone();
                if self.cache_enabled {
                    self.cache.insert_ref(&shell);
                }
                ctx.recycle_value(LegionValue::Binding(shell));
                Ok((target, Ok(b)))
            }
            Body::Reply { result, .. } => {
                self.stats.failures += 1;
                let err = match result {
                    Err(e) => e,
                    Ok(v) => {
                        let e = format!("unexpected payload {v}");
                        ctx.recycle_value(v);
                        e
                    }
                };
                Ok((target, Err(err)))
            }
            // The borrow-check prelude above returned `Err(msg)` for calls.
            Body::Call { .. } => unreachable!("checked to be a reply"),
        }
    }

    /// Number of requests awaiting replies.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }
}
