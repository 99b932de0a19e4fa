//! Transport binding for the unified invocation layer.
//!
//! [`legion_core::dispatch`] owns the model half of method dispatch —
//! signatures, typed argument codecs, uniform errors, verdicts, and the
//! generic method-table / continuation stores. This module instantiates
//! those generics with the transport types (`Message`, [`Ctx`], `CallId`)
//! and drives the per-message flow every endpoint shares:
//!
//! 1. replies are routed to the endpoint's [`Continuations`] store;
//! 2. a call with **no method name** is *dead-lettered* — counted and
//!    annotated, never silently dropped;
//! 3. unknown methods and signature mismatches are answered with the
//!    uniform `CoreError` rendering;
//! 4. the MayI gate (§2.4) runs once here, for every gated method of
//!    every endpoint — with the heartbeat bypass expressed as an
//!    *ungated, one-way* registration rather than endpoint-specific code;
//! 5. the span annotation `(method, verdict)` is recorded at this
//!    boundary. The kernel's per-delivery span already carries the method
//!    name, so the boundary only adds an explicit `dispatch.…` note for
//!    non-`allowed` verdicts — keeping same-seed traces of healthy runs
//!    byte-identical while making every refusal visible.
//!
//! Endpoints register methods against a [`TableBuilder`] at construction
//! and keep the sealed table in an `Rc`; `on_message` becomes a call to
//! [`serve`] plus a continuation take for replies.
//!
//! Outbound calls that wait for a reply share one deadline mechanism,
//! [`insert_pending`] and [`sweep_expired`]: an endpoint keeps a single
//! sweep timer armed for its earliest outstanding deadline — not a timer
//! per call — and a timeout is resolved under the trace context of the
//! call that registered it.

use crate::message::{Body, CallId, Message};
use crate::sim::{Ctx, FlightKind};
use legion_core::dispatch::{
    self as model, FromArg, FromArgs, InvocationGate, MethodTable as ModelTable, Verdict,
};
use legion_core::error::CoreError;
use legion_core::fxmap::FxHashMap;
use legion_core::idl;
use legion_core::interface::{Interface, MethodSignature, ParamType};
use legion_core::loid::Loid;
use legion_core::symbol::{self, Sym};
use legion_core::time::SimTime;
use legion_core::trace::TraceContext;
use legion_core::value::LegionValue;
use std::collections::hash_map::Entry;
use std::hash::Hash;
use std::rc::Rc;

/// What a method handler tells the dispatch boundary to do next.
pub enum Outcome {
    /// Reply with this result now.
    Reply(Result<LegionValue, String>),
    /// The handler started asynchronous work (registered a continuation
    /// or forwarded the call); a reply is sent later, by someone else.
    Pending,
    /// One-way by design (heartbeats): no reply, ever.
    NoReply,
    /// Internal: the typed codec rejected the arguments (the uniform
    /// signature-mismatch error, pre-rendered). Produced by the codec
    /// wrapper, not by user handlers.
    Invalid(String),
}

/// A type-erased method handler bound to endpoint type `E`.
pub type Handler<E> = Box<dyn Fn(&mut E, &mut Ctx<'_>, &Message, &[LegionValue]) -> Outcome>;

/// A continuation awaiting the reply to one outbound call.
pub type Continuation<E> = Box<dyn FnOnce(&mut E, &mut Ctx<'_>, Result<LegionValue, String>)>;

/// The shared call-id → continuation store, keyed by [`CallId`].
pub type Continuations<E> = model::Continuations<CallId, Continuation<E>>;

/// Box a plain continuation closure.
pub fn cont<E, F>(f: F) -> Continuation<E>
where
    F: FnOnce(&mut E, &mut Ctx<'_>, Result<LegionValue, String>) + 'static,
{
    Box::new(f)
}

/// Box a *typed* continuation: the reply payload is decoded to `T` before
/// the closure runs; a payload of the wrong type becomes an `Err`.
pub fn cont_expecting<E, T: FromArg, F>(f: F) -> Continuation<E>
where
    F: FnOnce(&mut E, &mut Ctx<'_>, Result<T, String>) + 'static,
{
    Box::new(move |e, ctx, r| {
        let typed = match r {
            Err(err) => Err(err),
            Ok(v) => T::from_value(&v).ok_or_else(|| format!("unexpected payload {v}")),
        };
        f(e, ctx, typed)
    })
}

/// The requests parked behind one piece of work in flight (the callers
/// combined behind one activation or one binding resolution, the work
/// queued until an object is Inert): the first stored inline, so the
/// usual case — nobody joins — allocates no list.
pub struct Parked<T> {
    first: T,
    rest: Vec<T>,
}

impl<T> Parked<T> {
    /// The request that starts the work.
    pub fn new(first: T) -> Self {
        Parked {
            first,
            rest: Vec::new(),
        }
    }

    /// A request that joins it.
    pub fn push(&mut self, item: T) {
        self.rest.push(item);
    }

    /// Park `item` under `key` of a waiting map. `true` if nothing was
    /// parked there yet — the caller then starts the work the key waits
    /// for.
    pub fn park<K: Eq + Hash>(map: &mut FxHashMap<K, Parked<T>>, key: K, item: T) -> bool {
        match map.entry(key) {
            Entry::Occupied(e) => {
                e.into_mut().push(item);
                false
            }
            Entry::Vacant(e) => {
                e.insert(Parked::new(item));
                true
            }
        }
    }
}

/// In arrival order.
impl<T> IntoIterator for Parked<T> {
    type Item = T;
    type IntoIter = std::iter::Chain<std::iter::Once<T>, std::vec::IntoIter<T>>;

    fn into_iter(self) -> Self::IntoIter {
        std::iter::once(self.first).chain(self.rest)
    }
}

/// Timer tag endpoints reserve for their continuation deadline sweep.
/// High in the tag space, so it never collides with protocol timers.
pub const TIMER_DEADLINE_SWEEP: u64 = 0x4444_4c53_5745_4550; // "DDLSWEEP"

/// The uniform timeout rendering a deadline sweep substitutes for a reply
/// that never came ([`CoreError::Timeout`] on the wire).
pub fn timeout_error(after_ns: u64) -> String {
    CoreError::Timeout { after_ns }.to_string()
}

/// Does `err` carry the uniform timeout rendering? Continuations that
/// retry on timeout (but fail fast on typed errors) branch on this.
pub fn is_timeout(err: &str) -> bool {
    err.starts_with("call timed out after ")
}

/// The uniform load-shed rendering an overloaded endpoint substitutes
/// for service ([`CoreError::Overloaded`] on the wire). The hint tells
/// the caller when a queue slot is expected to free.
pub fn overload_error(retry_after_ns: u64) -> String {
    CoreError::Overloaded { retry_after_ns }.to_string()
}

/// Parse the uniform overload rendering back out of a reply error,
/// returning the server's retry-after hint in virtual ns. Clients that
/// honor server backpressure (instead of their own backoff schedule)
/// branch on this — the counterpart of [`is_timeout`].
pub fn is_overloaded(err: &str) -> Option<u64> {
    let rest = err.strip_prefix("server overloaded, retry after ")?;
    rest.strip_suffix("ns")?.parse().ok()
}

/// Register a continuation under the endpoint's deadline policy.
///
/// With `deadline_ns = None` the endpoint waits forever (the historical
/// behavior — no timer events are created, so fault-free runs are
/// untouched). With `Some(d)`, the continuation is recorded with deadline
/// `now + d` and the trace context of the call registering it, and the
/// endpoint's `on_timer` calls [`sweep_expired`] on `timer_tag`
/// ([`TIMER_DEADLINE_SWEEP`], which is also what re-arming uses).
///
/// An endpoint keeps **one** sweep timer armed, not one per call:
///
/// * *register* with deadline `D` arms a timer at `D` only if none is
///   pending or `D` is earlier than the pending one;
/// * *fire* at `now` forgets the pending timer if it was due, and expires
///   everything with `deadline <= now`;
/// * *re-arm*, once the expired continuations have run, arms a timer at
///   the earliest deadline still outstanding unless one is pending at or
///   before it — nothing outstanding, nothing armed.
///
/// So while any continuation has a deadline, a sweep timer is pending at
/// or before the earliest one: every continuation is swept at exactly its
/// own deadline, and a busy endpoint pays one timer event per timeout
/// period.
pub fn insert_pending<E>(
    conts: &mut Continuations<E>,
    ctx: &mut Ctx<'_>,
    id: CallId,
    k: Continuation<E>,
    deadline_ns: Option<u64>,
    timer_tag: u64,
) {
    match deadline_ns {
        None => {
            conts.insert(id, k);
        }
        Some(d) => {
            let deadline = ctx.now().saturating_add(d);
            conts.insert_traced(id, k, deadline, ctx.inner.current);
            arm_sweep(conts, ctx, deadline, timer_tag);
        }
    }
}

/// Arm a sweep timer for `at` unless one is already pending at or before
/// it. The timer belongs to the endpoint, not to the request that happens
/// to be running, so it is armed under no trace context.
fn arm_sweep<E>(conts: &mut Continuations<E>, ctx: &mut Ctx<'_>, at: SimTime, timer_tag: u64) {
    if conts.claim_timer(at) {
        let running = std::mem::replace(&mut ctx.inner.current, TraceContext::NONE);
        ctx.set_timer(at.saturating_since(ctx.now()), timer_tag);
        ctx.inner.current = running;
    }
}

/// The deadline sweep: resolve every overdue continuation with the
/// uniform timeout error ([`timeout_error`]), each under the trace context
/// of the call that registered it, then re-arm for the earliest deadline
/// still outstanding (see [`insert_pending`]). Returns how many expired.
///
/// Each expiry bumps the `net.timeout_expired` counter (surfaced as
/// [`MetricsSnapshot::timeouts_expired`](crate::metrics::MetricsSnapshot))
/// and records a `Timeout` flight event carrying the expired call id; a
/// sweep that fired dumps the recorder tail to stderr unless
/// [`SimKernel::set_flight_dump_on_sweep`](crate::sim::SimKernel::set_flight_dump_on_sweep)
/// turned that off — both allocation-free on the no-expiry path.
///
/// `conts` is an accessor (not a borrow) so each continuation can receive
/// `&mut E` without aliasing the store.
pub fn sweep_expired<E>(
    endpoint: &mut E,
    ctx: &mut Ctx<'_>,
    conts: fn(&mut E) -> &mut Continuations<E>,
    after_ns: u64,
) -> usize {
    let store = conts(endpoint);
    store.timer_fired(ctx.now());
    let due = store.take_expired_traced(ctx.now());
    let n = due.len();
    let fired_under = ctx.inner.current;
    for (id, k, trace) in due {
        ctx.inner.current = trace;
        ctx.count(symbol::NET_TIMEOUT_EXPIRED);
        ctx.flight(FlightKind::Timeout, symbol::NET_TIMEOUT_EXPIRED, id.0);
        k(endpoint, ctx, Err(timeout_error(after_ns)));
    }
    ctx.inner.current = fired_under;
    if n > 0 && ctx.flight_dump_on_sweep() {
        ctx.dump_flight("deadline sweep expired continuations", SWEEP_DUMP_TAIL);
    }
    let store = conts(endpoint);
    if let Some(next) = store.next_deadline() {
        arm_sweep(store, ctx, next, TIMER_DEADLINE_SWEEP);
    }
    n
}

/// How many recorder-tail events a fired deadline sweep dumps.
const SWEEP_DUMP_TAIL: usize = 16;

/// If `msg` is a reply, yield the call-id it answers. Endpoints use this
/// to route replies into their [`Continuations`] store before serving.
pub fn reply_id(msg: &Message) -> Option<CallId> {
    match &msg.body {
        Body::Reply { in_reply_to, .. } => Some(*in_reply_to),
        Body::Call { .. } => None,
    }
}

/// The reply payload, for messages [`reply_id`] matched: consumes the
/// message and moves the payload out, so the reply value changes owners
/// instead of being copied (and the consumer can recycle its shell
/// through [`Ctx::recycle_value`] when done).
pub fn take_reply_result(msg: Message) -> Result<LegionValue, String> {
    match msg.body {
        Body::Reply { result, .. } => result,
        Body::Call { .. } => Err("not a reply".into()),
    }
}

/// A sealed per-endpoint method table: the model-layer registry plus the
/// derived interface (rendered once) and the gate accessor.
pub struct MethodTable<E> {
    inner: ModelTable<Handler<E>>,
    gate: Option<fn(&E) -> &dyn InvocationGate>,
    prefix: &'static str,
    interface: Interface,
    interface_idl: String,
    intrinsic_get_interface: bool,
}

impl<E> MethodTable<E> {
    /// The interface derived from the registered methods — exactly what
    /// `GetInterface()` replies (§3.4).
    pub fn interface(&self) -> &Interface {
        &self.interface
    }

    /// The rendered IDL of [`MethodTable::interface`].
    pub fn interface_idl(&self) -> &str {
        &self.interface_idl
    }

    /// The counter namespace (`magistrate`, `host`, …).
    pub fn prefix(&self) -> &'static str {
        self.prefix
    }

    /// The registered signature of `method`, if any. Probes via
    /// [`Sym::try_lookup`], so asking about arbitrary names never grows
    /// the interner.
    pub fn signature(&self, method: &str) -> Option<&MethodSignature> {
        let sym = Sym::try_lookup(method)?;
        self.inner.get(sym).map(|e| e.signature())
    }
}

/// Builds a [`MethodTable`]: registration happens in the endpoint's
/// constructor, `seal()` derives the interface and freezes the table.
pub struct TableBuilder<E> {
    name: String,
    inner: ModelTable<Handler<E>>,
    gate: Option<fn(&E) -> &dyn InvocationGate>,
    prefix: &'static str,
    intrinsic_get_interface: bool,
}

impl<E> TableBuilder<E> {
    /// A builder for an endpoint whose derived interface is rendered as
    /// `interface name` and whose counters live under `prefix.…`;
    /// `owner` is the provenance LOID recorded on interface entries.
    pub fn new(prefix: &'static str, name: impl Into<String>, owner: Loid) -> Self {
        TableBuilder {
            name: name.into(),
            inner: ModelTable::new(owner),
            gate: None,
            prefix,
            intrinsic_get_interface: false,
        }
    }

    /// Install the MayI gate accessor: given the endpoint, return its
    /// gate. Gated methods are checked here, at the boundary, once.
    pub fn gate(mut self, f: fn(&E) -> &dyn InvocationGate) -> Self {
        self.gate = Some(f);
        self
    }

    fn push<A: FromArgs + 'static, F>(mut self, sig: MethodSignature, gated: bool, f: F) -> Self
    where
        F: Fn(&mut E, &mut Ctx<'_>, &Message, A) -> Outcome + 'static,
    {
        let err_sig = sig.clone();
        let handler: Handler<E> = Box::new(move |e, ctx, msg, args| match A::from_args(args) {
            Ok(a) => f(e, ctx, msg, a),
            Err(err) => Outcome::Invalid(model::mismatch(&err_sig, err).to_string()),
        });
        self.inner.define(sig, gated, handler);
        self
    }

    /// Register a gated method. `A` (a [`FromArgs`] type) both decodes the
    /// arguments and publishes the parameter types of the signature.
    pub fn method<A: FromArgs + 'static, F>(
        self,
        name: impl Into<Sym>,
        param_names: &[&str],
        returns: ParamType,
        f: F,
    ) -> Self
    where
        F: Fn(&mut E, &mut Ctx<'_>, &Message, A) -> Outcome + 'static,
    {
        let sig = model::signature_of::<A>(name.into().as_str(), param_names, returns);
        self.push(sig, true, f)
    }

    /// Register an *ungated* method — exempt from the MayI check. Used
    /// for `MayI` itself and for the heartbeat bypass.
    pub fn ungated_method<A: FromArgs + 'static, F>(
        self,
        name: impl Into<Sym>,
        param_names: &[&str],
        returns: ParamType,
        f: F,
    ) -> Self
    where
        F: Fn(&mut E, &mut Ctx<'_>, &Message, A) -> Outcome + 'static,
    {
        let sig = model::signature_of::<A>(name.into().as_str(), param_names, returns);
        self.push(sig, false, f)
    }

    /// Register the intrinsic `GetInterface()`: answered by the table
    /// itself with the interface derived from every registered method —
    /// including this one — so the published interface can never drift
    /// from the dispatch table.
    pub fn get_interface(mut self) -> Self {
        self.intrinsic_get_interface = true;
        self.push::<(), _>(
            MethodSignature::new(symbol::GET_INTERFACE.as_str(), vec![], ParamType::Str),
            true,
            |_, _, _, _| Outcome::NoReply,
        )
    }

    /// Derive the interface, render it, and freeze the table.
    pub fn seal(self) -> Rc<MethodTable<E>> {
        let interface = self.inner.interface();
        let interface_idl = idl::render(&self.name, &interface);
        Rc::new(MethodTable {
            inner: self.inner,
            gate: self.gate,
            prefix: self.prefix,
            interface,
            interface_idl,
            intrinsic_get_interface: self.intrinsic_get_interface,
        })
    }
}

/// How [`serve`] disposed of one incoming message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// A call was dispatched with this verdict.
    Call(Verdict),
    /// The message is a reply — the endpoint resolves its continuations.
    Reply,
}

/// The dispatch boundary: route one incoming message through the table.
///
/// Callers pass a *clone* of the endpoint's `Rc<MethodTable<_>>` so the
/// handler can borrow the endpoint mutably while the table stays alive.
///
/// Takes the message by value: once dispatch is done the body's heap
/// buffers (the call argument vector, an unclaimed reply's payload) go
/// back to the kernel pool via [`Ctx::recycle_message`]. Handlers still
/// see `&Message` — recycling happens strictly after the handler returns.
pub fn serve<E>(
    table: &MethodTable<E>,
    endpoint: &mut E,
    ctx: &mut Ctx<'_>,
    msg: Message,
) -> Served {
    let served = serve_ref(table, endpoint, ctx, &msg);
    ctx.recycle_message(msg);
    served
}

fn serve_ref<E>(
    table: &MethodTable<E>,
    endpoint: &mut E,
    ctx: &mut Ctx<'_>,
    msg: &Message,
) -> Served {
    if msg.is_reply() {
        return Served::Reply;
    }
    let prefix = table.prefix;
    let Some(method) = msg.method_sym().filter(|&m| m != symbol::EMPTY) else {
        // A call with no method name (empty on the wire) used to vanish
        // silently in per-endpoint dispatch; dead-letter it visibly.
        ctx.count(format!("{prefix}.dead_letter"));
        ctx.trace_note(&format!(
            "dispatch.{}:{prefix}",
            Verdict::DeadLetter.label()
        ));
        return Served::Call(Verdict::DeadLetter);
    };
    let entry = match table.inner.resolve(method) {
        Ok(e) => e,
        Err(err) => {
            ctx.count(format!("{prefix}.unknown_method"));
            ctx.trace_note(&format!("dispatch.{}:{method}", Verdict::Unknown.label()));
            ctx.reply(msg, Err(err.to_string()));
            return Served::Call(Verdict::Unknown);
        }
    };
    if entry.gated() {
        if let Some(gate) = table.gate {
            if let Err(reason) = gate(endpoint).check(&msg.env, method.as_str()) {
                ctx.count(format!("{prefix}.refused"));
                ctx.trace_note(&format!("dispatch.{}:{method}", Verdict::Denied.label()));
                ctx.reply(msg, Err(format!("MayI refused: {reason}")));
                return Served::Call(Verdict::Denied);
            }
        }
    }
    if table.intrinsic_get_interface && method == symbol::GET_INTERFACE {
        ctx.reply(msg, Ok(LegionValue::Str(table.interface_idl.clone())));
        return Served::Call(Verdict::Allowed);
    }
    match (entry.handler())(endpoint, ctx, msg, msg.args()) {
        Outcome::Reply(result) => {
            ctx.reply(msg, result);
            Served::Call(Verdict::Allowed)
        }
        Outcome::Pending | Outcome::NoReply => Served::Call(Verdict::Allowed),
        Outcome::Invalid(rendered) => {
            ctx.count(format!("{prefix}.bad_args"));
            ctx.trace_note(&format!("dispatch.{}:{method}", Verdict::BadArgs.label()));
            ctx.reply(msg, Err(rendered));
            Served::Call(Verdict::BadArgs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeout_rendering_round_trips() {
        assert!(is_timeout(&timeout_error(500)));
        assert!(!is_timeout("some other error"));
        assert!(!is_timeout(&overload_error(500)));
    }

    #[test]
    fn parked_items_come_back_in_arrival_order() {
        let mut map: FxHashMap<u8, Parked<&str>> = FxHashMap::default();
        assert!(Parked::park(&mut map, 1, "first"));
        assert!(!Parked::park(&mut map, 1, "second"));
        assert!(Parked::park(&mut map, 2, "other key"));
        assert!(!Parked::park(&mut map, 1, "third"));
        let drained: Vec<_> = map.remove(&1).into_iter().flatten().collect();
        assert_eq!(drained, ["first", "second", "third"]);
        assert!(Parked::park(&mut map, 1, "again"), "the key was emptied");
    }

    #[test]
    fn overload_rendering_round_trips() {
        assert_eq!(is_overloaded(&overload_error(0)), Some(0));
        assert_eq!(is_overloaded(&overload_error(1_250_000)), Some(1_250_000));
        assert_eq!(is_overloaded(&timeout_error(500)), None);
        assert_eq!(is_overloaded("server overloaded, retry after xns"), None);
        assert_eq!(is_overloaded("unrelated"), None);
    }
}
