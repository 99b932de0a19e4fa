//! Binding Agents (paper §3.6, §4.1, §5.2.2).
//!
//! A Binding Agent "acts on behalf of other Legion objects to bind LOID's
//! to Object Addresses". This endpoint implements the full §4.1 procedure:
//!
//! 1. answer from its **cache** when possible;
//! 2. otherwise consult its **parent** Binding Agent, if configured — the
//!    k-ary tree of §5.2.2 ("a software combining tree");
//! 3. otherwise locate the **responsible class** (locally for instances by
//!    zeroing the Class Specific field; via LegionClass responsibility
//!    pairs for classes) and ask it with `GetBinding()`.
//!
//! Concurrent requests for the same LOID are **combined**: only one
//! upstream request is in flight per target, and every waiter is answered
//! from the single reply — this is what makes the tree a combining tree.
//!
//! The `GetBinding(binding)` overload is a *refresh*: the stale binding is
//! evicted and the resolution bypasses both cache and parent, going
//! straight to the class ("the Binding Agent might contact the class
//! object for an updated binding", §3.6).
//!
//! Upstream requests go out through the agent's [`Calls`] under the
//! request timeout, each parked as a [`Wait`] naming the target; a reply
//! wakes it, and a call the deadline sweep gives up on wakes it with the
//! uniform timeout error — so the retry policy lives in exactly one
//! place.

use crate::cache::BindingCache;
use crate::protocol::{BindingArg, ADD_BINDING, FIND_RESPONSIBLE, GET_BINDING, INVALIDATE_BINDING};
use legion_core::address::{AddressSemantics, ObjectAddress, ObjectAddressElement};
use legion_core::binding::Binding;
use legion_core::fxmap::FxHashMap;
use legion_core::interface::ParamType;
use legion_core::loid::Loid;
use legion_core::symbol;
use legion_core::time::Expiry;
use legion_core::value::LegionValue;
use legion_core::wellknown::{is_core_class, LEGION_CLASS};
use legion_net::dispatch::{
    is_timeout, resume, serve, tick, Caller, Calls, MethodTable, Outcome, Parked, TableBuilder,
};
use legion_net::message::{Message, ReplyTicket};
use legion_net::sim::{Ctx, Endpoint};
use std::collections::hash_map::Entry;
use std::rc::Rc;

/// Configuration of one Binding Agent.
#[derive(Debug, Clone)]
pub struct AgentConfig {
    /// The agent's own LOID (an instance of `LegionBindingAgent`).
    pub loid: Loid,
    /// Cache capacity (bindings).
    pub cache_capacity: usize,
    /// Parent agent in the k-ary tree; `None` for roots, which go to
    /// classes directly.
    pub parent: Option<ObjectAddressElement>,
    /// Address of the LegionClass endpoint (bootstrap knowledge).
    pub legion_class: ObjectAddressElement,
    /// Per-request upstream timeout.
    pub request_timeout_ns: u64,
    /// Retries after a timeout before failing waiters.
    pub max_retries: u32,
    /// Ablation switch (experiment E3): a disabled cache never answers
    /// and never stores.
    pub cache_enabled: bool,
}

impl AgentConfig {
    /// A root agent with sane defaults.
    pub fn root(loid: Loid, legion_class: ObjectAddressElement) -> Self {
        AgentConfig {
            loid,
            cache_capacity: 4096,
            parent: None,
            legion_class,
            request_timeout_ns: 500_000_000, // 500 ms
            max_retries: 2,
            cache_enabled: true,
        }
    }

    /// Same, but with a parent (an interior/leaf node of the tree).
    pub fn with_parent(mut self, parent: ObjectAddressElement) -> Self {
        self.parent = Some(parent);
        self
    }
}

/// What a completed resolution must service.
// `External` is the common variant, and boxing it is the allocation per
// cache miss the ticket exists to avoid.
#[allow(clippy::large_enum_variant)]
enum Waiter {
    /// Reply to this original external call.
    External(ReplyTicket),
    /// We resolved a *class*; now ask it for `next_target`'s binding.
    Chained { next_target: Loid },
}

/// What an upstream call of a Binding Agent waits to do with its reply
/// (its [`Caller::Wait`]). Both resolve the target they carry; they
/// differ in what the reply holds.
pub enum Wait {
    /// `GetBinding(target)`, to a parent, LegionClass or a class: the
    /// reply is the binding.
    Binding(Loid),
    /// LegionClass's `FindResponsible(target)`: the reply names the
    /// class to ask.
    Responsible(Loid),
}

/// One in-flight resolution (request combining): who waits on the
/// target, and how its single upstream request is going.
struct Resolution {
    /// The waiter that started the resolution and those combined behind
    /// it — a resolution nobody joins costs no waiter-list allocation.
    waiters: Parked<Waiter>,
    attempts: u32,
    /// Refresh resolutions bypass cache & parent.
    force_fresh: bool,
    /// The stale binding that triggered the refresh, forwarded to the
    /// class through the `GetBinding(binding)` overload so the class
    /// knows its own table entry is suspect (§3.6).
    stale: Option<Binding>,
}

/// The Binding Agent endpoint.
pub struct BindingAgentEndpoint {
    cfg: AgentConfig,
    cache: BindingCache,
    resolving: FxHashMap<Loid, Resolution>,
    calls: Calls<Wait>,
    table: Rc<MethodTable<Self>>,
}

impl BindingAgentEndpoint {
    /// Build from config.
    pub fn new(cfg: AgentConfig) -> Self {
        let cache = BindingCache::new(cfg.cache_capacity);
        let table = Self::table(cfg.loid);
        let mut calls = Calls::new(cfg.loid, symbol::BA_TIMEOUT);
        calls.set_deadline_ns(Some(cfg.request_timeout_ns));
        BindingAgentEndpoint {
            cfg,
            cache,
            resolving: FxHashMap::default(),
            calls,
            table,
        }
    }

    /// Cache statistics (for experiments).
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.cache.stats()
    }

    /// Cached binding count.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// The agent's configuration.
    pub fn config(&self) -> &AgentConfig {
        &self.cfg
    }

    fn table(loid: Loid) -> Rc<MethodTable<Self>> {
        TableBuilder::new("ba", "LegionBindingAgent", loid)
            .get_interface()
            .method::<(BindingArg,), _>(
                GET_BINDING,
                &["target"],
                ParamType::Binding,
                |e: &mut Self, ctx, msg, (arg,)| match arg {
                    BindingArg::Loid(l) => e.handle_get(ctx, msg, l, false, None),
                    BindingArg::Binding(stale) => {
                        // Refresh: evict the stale binding and bypass the
                        // cache and parent on the way to the class.
                        ctx.count(symbol::BA_REFRESH);
                        e.cache.invalidate_exact(&stale);
                        let target = stale.loid;
                        e.handle_get(ctx, msg, target, true, Some(stale))
                    }
                },
            )
            .method::<(BindingArg,), _>(
                INVALIDATE_BINDING,
                &["target"],
                ParamType::Void,
                |e: &mut Self, _ctx, _msg, (arg,)| {
                    match arg {
                        BindingArg::Loid(l) => {
                            e.cache.invalidate(&l);
                        }
                        BindingArg::Binding(b) => {
                            e.cache.invalidate_exact(&b);
                        }
                    }
                    Outcome::Reply(Ok(LegionValue::Void))
                },
            )
            .method::<(Binding,), _>(
                ADD_BINDING,
                &["binding"],
                ParamType::Void,
                |e: &mut Self, _ctx, _msg, (b,)| {
                    // "used ... to explicitly propagate binding information
                    // for performance purposes" (§3.6).
                    if e.cfg.cache_enabled {
                        e.cache.insert(b);
                    }
                    Outcome::Reply(Ok(LegionValue::Void))
                },
            )
            .seal()
    }

    // ----- resolution machinery -------------------------------------------

    fn handle_get(
        &mut self,
        ctx: &mut Ctx<'_>,
        msg: &Message,
        target: Loid,
        force_fresh: bool,
        stale: Option<Binding>,
    ) -> Outcome {
        if !force_fresh && self.cfg.cache_enabled {
            // `get_ref` + `binding_value`: a cache hit copies the binding
            // into a recycled shell instead of boxing a fresh clone.
            if let Some(b) = self.cache.get_ref(&target, ctx.now()) {
                ctx.count(symbol::BA_CACHE_HIT);
                if ctx.trace_active() {
                    ctx.trace_note(&format!("ba.cache_hit:{target}"));
                }
                let value = ctx.binding_value(b);
                return Outcome::Reply(Ok(value));
            }
        }
        ctx.count(symbol::BA_CACHE_MISS);
        if ctx.trace_active() {
            ctx.trace_note(&format!("ba.cache_miss:{target}"));
        }
        let waiter = Waiter::External(msg.reply_ticket());
        self.enqueue(ctx, target, waiter, force_fresh, stale);
        Outcome::Pending
    }

    /// Add a waiter for `target`, starting an upstream resolution if none
    /// is in flight (request combining).
    fn enqueue(
        &mut self,
        ctx: &mut Ctx<'_>,
        target: Loid,
        waiter: Waiter,
        force_fresh: bool,
        stale: Option<Binding>,
    ) {
        match self.resolving.entry(target) {
            Entry::Occupied(e) => {
                let r = e.into_mut();
                r.waiters.push(waiter);
                r.force_fresh |= force_fresh;
                if r.stale.is_none() {
                    r.stale = stale;
                }
                ctx.count(symbol::BA_COMBINED);
            }
            Entry::Vacant(e) => {
                e.insert(Resolution {
                    waiters: Parked::new(waiter),
                    attempts: 0,
                    force_fresh,
                    stale,
                });
                self.start_upstream(ctx, target, force_fresh);
            }
        }
    }

    /// A binding reply for `target`: the reply's binding box is handed on
    /// to [`Self::complete`]. Timeouts retry, everything else completes
    /// the resolution.
    fn on_binding(&mut self, ctx: &mut Ctx<'_>, target: Loid, result: Result<LegionValue, String>) {
        let reason = match result {
            Ok(LegionValue::Binding(shell)) => return self.complete(ctx, target, Ok(shell)),
            Ok(v) => format!("unexpected payload {v}"),
            Err(err) => err,
        };
        if is_timeout(&reason) {
            self.retry_or_fail(ctx, target, &reason);
        } else {
            self.complete(ctx, target, Err(reason));
        }
    }

    /// LegionClass's answer to `FindResponsible(target)`.
    fn on_responsible(
        &mut self,
        ctx: &mut Ctx<'_>,
        target: Loid,
        result: Result<LegionValue, String>,
    ) {
        match result {
            Ok(LegionValue::Loid(responsible)) => {
                self.ensure_class_then_ask(ctx, responsible, target);
            }
            Ok(v) => {
                let v = format!("unexpected payload {v}");
                self.complete(ctx, target, Err(v));
            }
            Err(err) => {
                if is_timeout(&err) {
                    self.retry_or_fail(ctx, target, &err);
                } else {
                    self.complete(ctx, target, Err(err));
                }
            }
        }
    }

    /// Issue (or re-issue) the upstream request for `target`.
    fn start_upstream(&mut self, ctx: &mut Ctx<'_>, target: Loid, force_fresh: bool) {
        // Route 1: parent agent — for *class objects* only (unless
        // refreshing). §5.2.2 is explicit about the division of labour:
        // on an instance miss "the Binding Agent consults the class
        // object of the object ... thus, the load is distributed to the
        // class objects", while the k-ary tree exists to "eliminate
        // traffic from 'leaf' Binding Agents to LegionClass" — i.e. the
        // combining tree carries class-object lookups.
        if !force_fresh && target.is_class() {
            if let Some(parent) = self.cfg.parent {
                ctx.count(symbol::BA_TO_PARENT);
                let mut args = ctx.take_args();
                args.push(LegionValue::Loid(target));
                if self.calls.call(
                    ctx,
                    parent,
                    LEGION_CLASS, // nominal target loid of the call frame
                    GET_BINDING,
                    args,
                    Wait::Binding(target),
                ) {
                    return;
                }
                // Parent unreachable: fall through to the class route.
                ctx.count(symbol::BA_PARENT_UNREACHABLE);
            }
        }

        // Route 2: the responsible class.
        if !target.is_class() {
            // §4.1.3: derive the class LOID locally, then ask the class.
            let class = target.class_loid();
            self.ensure_class_then_ask(ctx, class, target);
        } else if target == LEGION_CLASS || is_core_class(&target) {
            // The chain ends at LegionClass, which "simply hands out the
            // appropriate binding".
            ctx.count(symbol::BA_TO_LEGION_CLASS);
            let lc = self.cfg.legion_class;
            let mut args = ctx.take_args();
            args.push(LegionValue::Loid(target));
            if !self.calls.call(
                ctx,
                lc,
                LEGION_CLASS,
                GET_BINDING,
                args,
                Wait::Binding(target),
            ) {
                self.complete(ctx, target, Err("LegionClass unreachable".into()));
            }
        } else {
            // A user class: ask LegionClass who is responsible, then ask
            // that class.
            ctx.count(symbol::BA_TO_LEGION_CLASS);
            let lc = self.cfg.legion_class;
            let mut args = ctx.take_args();
            args.push(LegionValue::Loid(target));
            if !self.calls.call(
                ctx,
                lc,
                LEGION_CLASS,
                FIND_RESPONSIBLE,
                args,
                Wait::Responsible(target),
            ) {
                self.complete(ctx, target, Err("LegionClass unreachable".into()));
            }
        }
    }

    /// Once we hold a binding for `class`, ask it for `next_target`.
    fn ensure_class_then_ask(&mut self, ctx: &mut Ctx<'_>, class: Loid, next_target: Loid) {
        if class == LEGION_CLASS {
            // LegionClass's address is bootstrap knowledge (§4.2.1): no
            // resolution needed, ask it directly — "LegionClass simply
            // hands out the appropriate binding".
            self.ask_class(ctx, LEGION_CLASS, Some(self.cfg.legion_class), next_target);
            return;
        }
        let cached = if self.cfg.cache_enabled {
            self.cache
                .get_ref(&class, ctx.now())
                .map(|b| b.address.primary().copied())
        } else {
            None
        };
        if let Some(primary) = cached {
            ctx.count(symbol::BA_CLASS_ADDR_HIT);
            self.ask_class(ctx, class, primary, next_target);
        } else {
            ctx.count(symbol::BA_CLASS_ADDR_MISS);
            self.enqueue(ctx, class, Waiter::Chained { next_target }, false, None);
        }
    }

    /// Send `GetBinding(next_target)` to a resolved class. A refresh
    /// travels as the `GetBinding(binding)` overload end to end, so the
    /// class bypasses its own (suspect) Object Address column and
    /// consults a Magistrate (§3.6, §4.1.4).
    fn ask_class(
        &mut self,
        ctx: &mut Ctx<'_>,
        class: Loid,
        primary: Option<ObjectAddressElement>,
        next_target: Loid,
    ) {
        ctx.count(symbol::BA_TO_CLASS);
        let Some(primary) = primary else {
            self.complete(ctx, next_target, Err("class has empty address".into()));
            return;
        };
        let arg = match self.resolving.get(&next_target) {
            Some(r) if r.force_fresh => match &r.stale {
                Some(stale) => ctx.binding_value(stale),
                None => LegionValue::from(Binding {
                    loid: next_target,
                    address: ObjectAddress {
                        elements: Default::default(),
                        semantics: AddressSemantics::Single,
                    },
                    expiry: Expiry::Never,
                }),
            },
            _ => LegionValue::Loid(next_target),
        };
        let mut args = ctx.take_args();
        args.push(arg);
        if !self.calls.call(
            ctx,
            primary,
            class,
            GET_BINDING,
            args,
            Wait::Binding(next_target),
        ) {
            // The class endpoint itself is unreachable — its cached
            // binding is stale. Evict and retry through the full path.
            self.cache.invalidate(&class);
            self.retry_or_fail(ctx, next_target, "class unreachable");
        }
    }

    fn retry_or_fail(&mut self, ctx: &mut Ctx<'_>, target: Loid, reason: &str) {
        let Some(r) = self.resolving.get_mut(&target) else {
            return; // already completed
        };
        r.attempts += 1;
        if r.attempts <= self.cfg.max_retries {
            let force_fresh = r.force_fresh;
            ctx.count(symbol::BA_RETRY);
            self.start_upstream(ctx, target, force_fresh);
        } else {
            self.complete(ctx, target, Err(format!("binding failed: {reason}")));
        }
    }

    /// Finish a resolution: refresh the cache from the upstream reply's
    /// binding box, answer every waiter from it, then hand the box back
    /// to the kernel pool.
    fn complete(&mut self, ctx: &mut Ctx<'_>, target: Loid, result: Result<Box<Binding>, String>) {
        if let Ok(b) = &result {
            if self.cfg.cache_enabled {
                self.cache.insert_ref(b);
            }
        }
        if let Some(r) = self.resolving.remove(&target) {
            for w in r.waiters {
                match (w, &result) {
                    (Waiter::External(call), Ok(b)) => {
                        let value = ctx.binding_value(b);
                        ctx.reply_ticket(call, Ok(value));
                    }
                    (Waiter::External(call), Err(e)) => {
                        ctx.reply_ticket(call, Err(format!("GetBinding({target}): {e}")));
                    }
                    (Waiter::Chained { next_target }, Ok(class_binding)) => {
                        let primary = class_binding.address.primary().copied();
                        self.ask_class(ctx, class_binding.loid, primary, next_target);
                    }
                    (Waiter::Chained { next_target }, Err(e)) => {
                        self.complete(ctx, next_target, Err(e.clone()));
                    }
                }
            }
        }
        if let Ok(shell) = result {
            ctx.recycle_value(LegionValue::Binding(shell));
        }
    }
}

impl Caller for BindingAgentEndpoint {
    type Wait = Wait;

    fn calls(&mut self) -> &mut Calls<Wait> {
        &mut self.calls
    }

    fn wake(&mut self, ctx: &mut Ctx<'_>, wait: Wait, result: Result<LegionValue, String>) {
        match wait {
            Wait::Binding(target) => self.on_binding(ctx, target, result),
            Wait::Responsible(target) => self.on_responsible(ctx, target, result),
        }
    }
}

impl Endpoint for BindingAgentEndpoint {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        let Some(msg) = resume(self, ctx, msg) else {
            return;
        };
        if msg.is_reply() {
            ctx.count(symbol::BA_LATE_REPLY);
            return;
        }
        let table = Rc::clone(&self.table);
        serve(&table, self, ctx, msg);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        tick(self, ctx, tag);
    }
}
