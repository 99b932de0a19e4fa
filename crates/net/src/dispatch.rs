//! The invocation layer: the one mechanism by which an endpoint is called
//! and calls (paper §2, §3.4, §3.8).
//!
//! "The complete set of method signatures for an object fully describes
//! that object's interface." An endpoint registers each method — name,
//! typed parameters (a [`FromArgs`] codec from
//! [`legion_core::dispatch`]), handler — and its dispatch table, its
//! published interface and its `GetInterface()` reply all come from that
//! one registration, so they cannot drift apart.
//!
//! **Inbound** — [`TableBuilder`] → [`MethodTable`] → [`serve`]. An
//! endpoint registers its methods at construction and keeps the sealed
//! table in an `Rc`; `serve` then drives the flow every endpoint shares:
//!
//! 1. a call with **no method name** is *dead-lettered* — counted and
//!    annotated, never silently dropped;
//! 2. unknown methods and signature mismatches are answered with the
//!    uniform `CoreError` rendering;
//! 3. the MayI gate (§2.4) runs once here, for every gated method of
//!    every endpoint — with the heartbeat bypass expressed as an
//!    *ungated, one-way* registration rather than endpoint-specific code;
//! 4. the kernel's per-delivery span already carries the method name, so
//!    the boundary only adds a note for a refusal —
//!    `dispatch.dead_letter:<prefix>`, `dispatch.unknown:<method>`,
//!    `dispatch.denied:<method>` or `dispatch.badargs:<method>` — keeping
//!    same-seed traces of healthy runs byte-identical while making every
//!    refusal visible.
//!
//! **Outbound** — [`Calls`] → [`resume`] / [`tick`]. An endpoint that
//! waits for replies holds one `Calls` value and hands it out through
//! [`Caller`]; [`Calls::call`] sends and parks a *wait* — a value of the
//! endpoint's own enum of resumption points, carrying what the next step
//! needs — `on_message` offers every message to `resume`, `on_timer`
//! offers every tag to `tick`, and both hand the wait and its result to
//! the endpoint's one [`Caller::wake`] match. Pending work is data: no
//! closure is boxed, and a warm store parks without allocating. The
//! deadline rule lives here and nowhere else: one sweep timer armed for
//! the endpoint's earliest outstanding deadline — not a timer per call —
//! and a timeout resolved under the trace context of the call that
//! parked it.

use crate::message::{Body, CallId, Message};
use crate::sim::{Ctx, FlightKind};
use legion_core::address::ObjectAddressElement;
use legion_core::dispatch::{mismatch, signature_of, FromArgs, InvocationGate};
use legion_core::env::InvocationEnv;
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
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hash::Hash;
use std::rc::Rc;

/// What a method handler tells the dispatch boundary to do next.
pub enum Outcome {
    /// Reply with this result now.
    Reply(Result<LegionValue, String>),
    /// The handler started asynchronous work (parked a call or forwarded
    /// this one); a reply is sent later, by someone else.
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

/// When a parked call stops waiting, with the trace context of the call
/// that parked it; `None` waits forever.
type Due = Option<(SimTime, TraceContext)>;

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

    /// How many are parked — never zero.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        1 + self.rest.len()
    }

    /// Every parked item, in arrival order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        std::iter::once(&mut self.first).chain(&mut self.rest)
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

/// The uniform timeout rendering a deadline sweep substitutes for a reply
/// that never came ([`CoreError::Timeout`] on the wire).
pub fn timeout_error(after_ns: u64) -> String {
    CoreError::Timeout { after_ns }.to_string()
}

/// Does `err` carry the uniform timeout rendering? A [`Caller::wake`]
/// that retries on timeout (but fails fast on typed errors) branches on
/// this.
pub fn is_timeout(err: &str) -> bool {
    err.starts_with("call timed out after ")
}

const OVERLOAD_PREFIX: &str = "server overloaded, retry after ";

/// The uniform load-shed rendering an overloaded endpoint substitutes
/// for service ([`CoreError::Overloaded`]'s text on the wire). The hint
/// tells the caller when to come back (see [`crate::admission`]). A
/// shedding server pays this once per refused call, so the string is
/// built in one exact-capacity allocation instead of grown by `format!`.
pub fn overload_error(retry_after_ns: u64) -> String {
    let digits = retry_after_ns
        .checked_ilog10()
        .map_or(1, |d| d as usize + 1);
    let mut text = String::with_capacity(OVERLOAD_PREFIX.len() + digits + "ns".len());
    text.push_str(OVERLOAD_PREFIX);
    write!(text, "{retry_after_ns}ns").expect("writing to a String cannot fail");
    text
}

/// Parse the uniform overload rendering back out of a reply error,
/// returning the server's retry-after hint in virtual ns. Clients that
/// honor server backpressure (instead of their own backoff schedule)
/// branch on this — the counterpart of [`is_timeout`].
pub fn is_overloaded(err: &str) -> Option<u64> {
    let rest = err.strip_prefix(OVERLOAD_PREFIX)?;
    rest.strip_suffix("ns")?.parse().ok()
}

/// Timer tag of the deadline sweep. High in the tag space, so it never
/// collides with an endpoint's protocol timers.
const TIMER_DEADLINE_SWEEP: u64 = 0x4444_4c53_5745_4550; // "DDLSWEEP"

/// How many recorder-tail events a fired deadline sweep dumps.
const SWEEP_DUMP_TAIL: usize = 16;

/// The outbound half of an endpoint: every call it has made and not yet
/// heard back from, what each waits to do, and the policy for giving up
/// on one. `W` is the endpoint's [`Caller::Wait`].
///
/// With `deadline_ns = None` (the default) the endpoint waits forever and
/// no timer is ever armed, so a fault-free run carries no events, call
/// ids or allocations for the deadline machinery. With `Some(d)` a parked
/// call is due at `now + d`, under the trace context of the call parking
/// it, and the endpoint keeps **one** sweep timer armed, not one per
/// call:
///
/// * *park* with deadline `D` arms a timer at `D` only if none is pending
///   or `D` is earlier than the pending one ([`Calls::arm_sweep`]);
/// * *fire* at `now` forgets the pending timer if it was due, and expires
///   everything with `deadline <= now`, in call-id order ([`tick`]);
/// * *re-arm*, once the expired waits have woken, arms a timer at the
///   earliest deadline still outstanding unless one is pending at or
///   before it — nothing outstanding, nothing armed.
///
/// So while any call has a deadline, a sweep timer is pending at or
/// before the earliest one: every call is swept at exactly its own
/// deadline, and a busy endpoint pays one timer event per timeout period.
pub struct Calls<W> {
    /// Each parked call with its wait and when it is due, in call-id
    /// order. The kernel draws call ids in ascending order, so parking is
    /// a push and a reply a binary search; the vector keeps its capacity,
    /// so a warm store parks and resumes without allocating.
    parked: Vec<(CallId, W, Due)>,
    /// The earliest time a sweep timer is pending for.
    armed: Option<SimTime>,
    /// The endpoint's own LOID: the sender, and the whole environment
    /// triple, of every call it makes.
    loid: Loid,
    deadline_ns: Option<u64>,
    /// The endpoint's own counter, bumped once per expiry.
    timeouts: Sym,
}

impl<W> Calls<W> {
    /// No calls outstanding, no deadline. `timeouts` names the counter
    /// [`tick`] bumps for each call this endpoint gives up on.
    pub fn new(loid: Loid, timeouts: Sym) -> Self {
        Calls {
            parked: Vec::new(),
            armed: None,
            loid,
            deadline_ns: None,
            timeouts,
        }
    }

    /// Give up on calls parked from now on after `deadline_ns` virtual
    /// ns; `None` waits forever.
    pub fn set_deadline_ns(&mut self, deadline_ns: Option<u64>) {
        self.deadline_ns = deadline_ns;
    }

    /// Calls still waiting — zero at quiescence in a healthy run.
    pub fn outstanding(&self) -> usize {
        self.parked.len()
    }

    /// Call `method` on `target` at `to` in this endpoint's own name and
    /// park `wait` for the reply, under the deadline. `false` on a
    /// detectable refusal (§4.1.4: the address is stale): nothing was
    /// parked, nothing armed, `wait` is dropped.
    pub fn call(
        &mut self,
        ctx: &mut Ctx<'_>,
        to: ObjectAddressElement,
        target: Loid,
        method: impl Into<Sym>,
        args: Vec<LegionValue>,
        wait: W,
    ) -> bool {
        let env = InvocationEnv::solo(self.loid);
        let Some(id) = ctx.call(to, target, method, args, env, Some(self.loid)) else {
            return false;
        };
        debug_assert!(
            self.parked.last().is_none_or(|(last, _, _)| *last < id),
            "call ids ascend"
        );
        let deadline = self.deadline_ns.map(|d| ctx.now().saturating_add(d));
        let due = deadline.map(|at| (at, ctx.inner.current));
        // Most endpoints have one call out at a time, and an entry whose
        // wait holds a reply ticket is a few hundred bytes: the first
        // park makes room for one, not the four `push` would.
        if self.parked.capacity() == 0 {
            self.parked.reserve_exact(1);
        }
        self.parked.push((id, wait, due));
        if let Some(at) = deadline {
            self.arm_sweep(ctx, at);
        }
        true
    }

    /// Arm a sweep timer for `at` unless one is already pending at or
    /// before it. The timer belongs to the endpoint, not to the request
    /// that happens to be running, so it is armed under no trace context.
    fn arm_sweep(&mut self, ctx: &mut Ctx<'_>, at: SimTime) {
        if self.armed.is_some_and(|pending| pending <= at) {
            return;
        }
        self.armed = Some(at);
        let running = std::mem::replace(&mut ctx.inner.current, TraceContext::NONE);
        ctx.set_timer(at.saturating_since(ctx.now()), TIMER_DEADLINE_SWEEP);
        ctx.inner.current = running;
    }

    /// Take the wait parked for call `id`, if it is still waiting.
    fn take(&mut self, id: CallId) -> Option<W> {
        let at = self.parked.binary_search_by_key(&id, |(id, _, _)| *id);
        Some(self.parked.remove(at.ok()?).1)
    }

    /// Take the first call no later than `until`, in call-id order, whose
    /// deadline has passed at `now` (`deadline <= now`), with the trace
    /// context of the call that parked it.
    fn take_overdue(&mut self, until: CallId, now: SimTime) -> Option<(CallId, W, TraceContext)> {
        let at = self
            .parked
            .iter()
            .take_while(|(id, _, _)| *id <= until)
            .position(|(_, _, due)| due.is_some_and(|(d, _)| d <= now))?;
        let (id, wait, due) = self.parked.remove(at);
        Some((id, wait, due.expect("overdue").1))
    }

    /// The earliest deadline of any parked call.
    fn next_deadline(&self) -> Option<SimTime> {
        self.parked
            .iter()
            .filter_map(|(_, _, due)| due.map(|(at, _)| at))
            .min()
    }
}

/// An endpoint that makes calls: where its [`Calls`] value lives, and the
/// one place its parked calls wake. [`resume`] and [`tick`] need nothing
/// else — and `calls` is the one way a system builder or an audit reaches
/// an endpoint's deadline and outstanding count.
pub trait Caller {
    /// The endpoint's resumption points: what a parked call waits to do,
    /// with the values that step needs. Plain data — usually an enum, one
    /// variant per step.
    type Wait;

    /// The endpoint's outbound half.
    fn calls(&mut self) -> &mut Calls<Self::Wait>;

    /// Run the step `wait` names with the reply's result, or with the
    /// uniform timeout error ([`timeout_error`]) if the call expired.
    fn wake(&mut self, ctx: &mut Ctx<'_>, wait: Self::Wait, result: Result<LegionValue, String>);
}

/// Offer an incoming message to the endpoint's parked calls. A reply to
/// one of them wakes its wait — the payload moved out, so the value
/// changes owners instead of being copied — and `None` comes back.
/// Anything else is handed back untouched: a call, or a reply nothing is
/// waiting for (late, after its call timed out).
pub fn resume<E: Caller>(e: &mut E, ctx: &mut Ctx<'_>, msg: Message) -> Option<Message> {
    let Body::Reply { in_reply_to, .. } = &msg.body else {
        return Some(msg);
    };
    let Some(wait) = e.calls().take(*in_reply_to) else {
        return Some(msg);
    };
    let Body::Reply { result, .. } = msg.body else {
        unreachable!("matched as a reply above");
    };
    e.wake(ctx, wait, result);
    None
}

/// Offer a fired timer to the endpoint's deadline sweep. `false`, and
/// nothing touched, unless `tag` is the sweep's own; otherwise every
/// overdue call wakes with the uniform timeout error ([`timeout_error`]),
/// in call-id order, each under the trace context of the call that
/// parked it, and the sweep is re-armed for the earliest deadline still
/// outstanding (see [`Calls`]).
///
/// A timer superseded by an earlier one still fires later, finds the
/// earlier one's successor pending and changes nothing. A call a waking
/// step parks is not this sweep's, whatever its deadline.
///
/// Each expiry bumps `net.timeout_expired` (surfaced as
/// [`MetricsSnapshot::timeouts_expired`](crate::metrics::MetricsSnapshot))
/// and the endpoint's own counter, and records a `Timeout` flight event
/// carrying the expired call id; a sweep that expired something dumps the
/// recorder tail to stderr unless
/// [`SimKernel::set_flight_dump_on_sweep`](crate::sim::SimKernel::set_flight_dump_on_sweep)
/// turned that off — all allocation-free on the no-expiry path.
pub fn tick<E: Caller>(e: &mut E, ctx: &mut Ctx<'_>, tag: u64) -> bool {
    if tag != TIMER_DEADLINE_SWEEP {
        return false;
    }
    let now = ctx.now();
    let calls = e.calls();
    if calls.armed.is_some_and(|pending| pending <= now) {
        calls.armed = None;
    }
    let after_ns = calls.deadline_ns.unwrap_or(0);
    let until = calls.parked.last().map_or(CallId(0), |(id, _, _)| *id);
    let mut expired = 0;
    let fired_under = ctx.inner.current;
    while let Some((id, wait, trace)) = e.calls().take_overdue(until, now) {
        expired += 1;
        ctx.inner.current = trace;
        ctx.count(symbol::NET_TIMEOUT_EXPIRED);
        ctx.flight(FlightKind::Timeout, symbol::NET_TIMEOUT_EXPIRED, id.0);
        e.wake(ctx, wait, Err(timeout_error(after_ns)));
    }
    ctx.inner.current = fired_under;
    if expired > 0 && ctx.flight_dump_on_sweep() {
        ctx.dump_flight("deadline sweep expired continuations", SWEEP_DUMP_TAIL);
    }
    let calls = e.calls();
    if let Some(next) = calls.next_deadline() {
        calls.arm_sweep(ctx, next);
    }
    // Under the timer's own (no) trace context, not the expired calls':
    // the endpoint's counter has never annotated their traces.
    if expired > 0 {
        ctx.count_n(calls.timeouts, expired);
    }
    true
}

/// One registered method: its published signature, whether the MayI gate
/// applies to it, and its handler.
type Method<E> = (MethodSignature, bool, Handler<E>);

/// A sealed per-endpoint method table: the endpoint's dispatch table, the
/// gate accessor, and the IDL `GetInterface()` replies with, rendered
/// once from the same registrations (§3.4).
///
/// Keyed by interned [`Sym`]: resolving the method a message carries
/// (already a `Sym`) compares `u32`s instead of strings and never
/// allocates.
pub struct MethodTable<E> {
    entries: BTreeMap<Sym, Method<E>>,
    gate: Option<fn(&E) -> &dyn InvocationGate>,
    prefix: &'static str,
    idl: String,
    intrinsic_get_interface: bool,
}

impl<E> MethodTable<E> {
    /// The registered signature of `method`, if any. Probes via
    /// [`Sym::try_lookup`], so asking about arbitrary names never grows
    /// the interner.
    pub fn signature(&self, method: &str) -> Option<&MethodSignature> {
        let sym = Sym::try_lookup(method)?;
        self.entries.get(&sym).map(|(sig, _, _)| sig)
    }
}

/// Builds a [`MethodTable`]: registration happens in the endpoint's
/// constructor, `seal()` renders the interface and freezes the table.
pub struct TableBuilder<E> {
    name: String,
    owner: Loid,
    entries: BTreeMap<Sym, Method<E>>,
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
            owner,
            entries: BTreeMap::new(),
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

    /// Register `name`. Registering a name twice replaces the earlier
    /// entry (redefinition, as in [`Interface::define`]).
    fn push<A: FromArgs + 'static, F>(
        mut self,
        name: Sym,
        param_names: &[&str],
        returns: ParamType,
        gated: bool,
        f: F,
    ) -> Self
    where
        F: Fn(&mut E, &mut Ctx<'_>, &Message, A) -> Outcome + 'static,
    {
        let sig = signature_of::<A>(name.as_str(), param_names, returns);
        let err_sig = sig.clone();
        let handler: Handler<E> = Box::new(move |e, ctx, msg, args| match A::from_args(args) {
            Ok(a) => f(e, ctx, msg, a),
            Err(err) => Outcome::Invalid(mismatch(&err_sig, err).to_string()),
        });
        self.entries.insert(name, (sig, gated, handler));
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
        self.push(name.into(), param_names, returns, true, f)
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
        self.push(name.into(), param_names, returns, false, f)
    }

    /// Register the intrinsic `GetInterface()`: answered by the table
    /// itself with the interface derived from every registered method —
    /// including this one — so the published interface can never drift
    /// from the dispatch table.
    pub fn get_interface(mut self) -> Self {
        self.intrinsic_get_interface = true;
        self.push::<(), _>(
            symbol::GET_INTERFACE,
            &[],
            ParamType::Str,
            true,
            |_, _, _, _| Outcome::NoReply,
        )
    }

    /// Derive the interface from the registered signatures, render it,
    /// and freeze the table. The interface is name-keyed, so intern order
    /// never leaks into the rendering.
    pub fn seal(self) -> Rc<MethodTable<E>> {
        let mut interface = Interface::new();
        for (sig, _, _) in self.entries.values() {
            interface.define(sig.clone(), self.owner);
        }
        Rc::new(MethodTable {
            idl: idl::render(&self.name, &interface),
            entries: self.entries,
            gate: self.gate,
            prefix: self.prefix,
            intrinsic_get_interface: self.intrinsic_get_interface,
        })
    }
}

/// The dispatch boundary: route one incoming call through the table.
/// A reply is not a call, and is left alone (replies go to [`resume`]).
///
/// Callers pass a *clone* of the endpoint's `Rc<MethodTable<_>>` so the
/// handler can borrow the endpoint mutably while the table stays alive.
///
/// Takes the message by value: once dispatch is done the body's heap
/// buffers (the call argument vector, an unclaimed reply's payload) go
/// back to the kernel pool via [`Ctx::recycle_message`]. Handlers still
/// see `&Message` — recycling happens strictly after the handler returns.
pub fn serve<E>(table: &MethodTable<E>, endpoint: &mut E, ctx: &mut Ctx<'_>, msg: Message) {
    serve_ref(table, endpoint, ctx, &msg);
    ctx.recycle_message(msg);
}

fn serve_ref<E>(table: &MethodTable<E>, endpoint: &mut E, ctx: &mut Ctx<'_>, msg: &Message) {
    if msg.is_reply() {
        return;
    }
    let prefix = table.prefix;
    let Some(method) = msg.method_sym().filter(|&m| m != symbol::EMPTY) else {
        // A call with no method name (empty on the wire) used to vanish
        // silently in per-endpoint dispatch; dead-letter it visibly.
        ctx.count(format!("{prefix}.dead_letter"));
        ctx.trace_note(&format!("dispatch.dead_letter:{prefix}"));
        return;
    };
    let Some((_, gated, handler)) = table.entries.get(&method) else {
        let err = CoreError::UnknownMethod {
            method: method.as_str().to_owned(),
        };
        ctx.count(format!("{prefix}.unknown_method"));
        ctx.trace_note(&format!("dispatch.unknown:{method}"));
        ctx.reply(msg, Err(err.to_string()));
        return;
    };
    if *gated {
        if let Some(gate) = table.gate {
            if let Err(reason) = gate(endpoint).check(&msg.env, method.as_str()) {
                ctx.count(format!("{prefix}.refused"));
                ctx.trace_note(&format!("dispatch.denied:{method}"));
                ctx.reply(msg, Err(format!("MayI refused: {reason}")));
                return;
            }
        }
    }
    if table.intrinsic_get_interface && method == symbol::GET_INTERFACE {
        ctx.reply(msg, Ok(LegionValue::Str(table.idl.clone())));
        return;
    }
    match handler(endpoint, ctx, msg, msg.args()) {
        Outcome::Reply(result) => {
            ctx.reply(msg, result);
        }
        Outcome::Pending | Outcome::NoReply => {}
        Outcome::Invalid(rendered) => {
            ctx.count(format!("{prefix}.bad_args"));
            ctx.trace_note(&format!("dispatch.badargs:{method}"));
            ctx.reply(msg, Err(rendered));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::sim::{Endpoint, EndpointId, SimKernel};
    use crate::topology::{Location, Topology};

    const PINGER: Loid = Loid::instance(70, 1);
    const CALLEE: Loid = Loid::instance(70, 2);
    /// One hop in the test topology, and a deadline well past a round trip.
    const HOP_NS: u64 = 10_000;
    const DEADLINE_NS: u64 = 100 * HOP_NS;

    /// Pings `to` once at start — through its [`Calls`], or with a bare
    /// `ctx.call` — and keeps what `resume` and `tick` hand back.
    struct Pinger {
        to: ObjectAddressElement,
        bare: bool,
        calls: Calls<()>,
        results: Vec<Result<LegionValue, String>>,
        handed_back: Vec<Message>,
        foreign_tags: Vec<u64>,
    }

    impl Pinger {
        fn new(to: EndpointId, deadline_ns: Option<u64>) -> Self {
            let mut calls = Calls::new(PINGER, Sym::intern("pinger.timeouts"));
            calls.set_deadline_ns(deadline_ns);
            Pinger {
                to: to.element(),
                bare: false,
                calls,
                results: Vec::new(),
                handed_back: Vec::new(),
                foreign_tags: Vec::new(),
            }
        }
    }

    impl Caller for Pinger {
        type Wait = ();

        fn calls(&mut self) -> &mut Calls<()> {
            &mut self.calls
        }

        fn wake(&mut self, _ctx: &mut Ctx<'_>, (): (), result: Result<LegionValue, String>) {
            self.results.push(result);
        }
    }

    impl Endpoint for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            if self.bare {
                let env = InvocationEnv::solo(PINGER);
                ctx.call(self.to, CALLEE, "Ping", vec![], env, Some(PINGER));
            } else {
                let sent = self.calls.call(ctx, self.to, CALLEE, "Ping", vec![], ());
                assert!(sent);
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            let back = resume(self, ctx, msg);
            self.handed_back.extend(back);
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
            if !tick(self, ctx, tag) {
                self.foreign_tags.push(tag);
            }
        }
    }

    /// Answers every call with `Ok(Void)`; `Silent` answers none.
    struct Echo;
    impl Endpoint for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            ctx.reply(&msg, Ok(LegionValue::Void));
        }
    }
    struct Silent;
    impl Endpoint for Silent {
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Message) {}
    }

    /// A kernel with `callee` at one end and a pinger at the other.
    fn pair(
        callee: Box<dyn Endpoint>,
        pinger: fn(EndpointId) -> Pinger,
    ) -> (SimKernel, EndpointId) {
        let mut k = SimKernel::new(
            Topology::fixed(1_000, HOP_NS, 1_000_000),
            FaultPlan::none(),
            7,
        );
        k.set_flight_dump_on_sweep(false);
        let callee = k.add_endpoint(callee, Location::new(0, 0), "callee");
        let p = k.add_endpoint(Box::new(pinger(callee)), Location::new(0, 1), "pinger");
        (k, p)
    }

    #[test]
    fn an_unmatched_reply_is_handed_back_untouched() {
        let (mut k, p) = pair(Box::new(Silent), |to| Pinger::new(to, None));
        k.run_until_quiescent(100);
        // A reply to a call the pinger never made, beside the one it did.
        let ask = Message::call(
            CallId(9_999),
            PINGER,
            "Ping",
            vec![],
            InvocationEnv::anonymous(),
        );
        let stray = Message::reply_to(&ask, CallId(10_000), Ok(LegionValue::Uint(7)));
        assert!(k.inject(Location::new(0, 0), p.element(), stray.clone()));
        assert!(k.inject(Location::new(0, 0), p.element(), ask.clone()));
        k.run_until_quiescent(100);
        let pinger = k.endpoint::<Pinger>(p).unwrap();
        assert_eq!(
            pinger.handed_back,
            [stray, ask],
            "a stray reply, then a call"
        );
        assert!(pinger.results.is_empty(), "nothing woke");
        assert_eq!(pinger.calls.outstanding(), 1, "the real call still waits");
    }

    #[test]
    fn tick_leaves_a_foreign_tag_alone() {
        let (mut k, p) = pair(Box::new(Silent), |to| Pinger::new(to, Some(DEADLINE_NS)));
        // A protocol timer of the endpoint's own, due before the deadline
        // and again after the sweep.
        assert!(k.set_timer(p, DEADLINE_NS / 2, 7));
        assert!(k.set_timer(p, DEADLINE_NS * 2, 8));
        k.run_until(SimTime(DEADLINE_NS - 1));
        let pinger = k.endpoint::<Pinger>(p).unwrap();
        assert_eq!(pinger.foreign_tags, [7]);
        assert_eq!(pinger.calls.outstanding(), 1, "nothing swept early");
        assert_eq!(k.counters().get("net.timeout_expired"), 0);
        // The sweep it had armed still fires on the deadline.
        k.run_until(SimTime(DEADLINE_NS));
        let pinger = k.endpoint::<Pinger>(p).unwrap();
        assert_eq!(pinger.results, [Err(timeout_error(DEADLINE_NS))]);
        assert_eq!(k.counters().get("pinger.timeouts"), 1);
        k.run_until_quiescent(100);
        assert_eq!(k.endpoint::<Pinger>(p).unwrap().foreign_tags, [7, 8]);
        assert_eq!(k.counters().get("net.timeout_expired"), 1);
    }

    #[test]
    fn without_a_deadline_a_call_costs_what_a_bare_one_does() {
        let run = |bare: bool| {
            let (mut k, p) = pair(Box::new(Echo), |to| Pinger::new(to, None));
            k.endpoint_mut::<Pinger>(p).unwrap().bare = bare;
            k.run_until_quiescent(100);
            assert!(k.is_quiescent());
            let answered = k.endpoint::<Pinger>(p).unwrap().results == [Ok(LegionValue::Void)];
            assert_eq!(answered, !bare);
            let s = k.stats();
            (s.events, s.sent, s.delivered, k.now(), k.fresh_call_id())
        };
        assert_eq!(run(false), run(true), "events, messages, clock, call ids");
    }

    #[test]
    fn reply_beats_deadline_leaves_nothing_to_expire() {
        let (mut k, p) = pair(Box::new(Echo), |to| Pinger::new(to, Some(DEADLINE_NS)));
        k.run_until_quiescent(100);
        // The reply took the call out of the store, so the sweep armed
        // for its deadline fires, expires nothing and arms no other.
        assert_eq!(k.now(), SimTime(DEADLINE_NS), "the sweep fired");
        let pinger = k.endpoint::<Pinger>(p).unwrap();
        assert_eq!(pinger.results, [Ok(LegionValue::Void)]);
        assert_eq!(pinger.calls.outstanding(), 0);
        assert_eq!(pinger.calls.armed, None);
        assert_eq!(k.counters().get("net.timeout_expired"), 0);
    }

    /// A store holding `(call id, deadline)` calls, in call-id order,
    /// parked under no trace, each waiting with ten times its id.
    fn store(calls: &[(u64, Option<u64>)]) -> Calls<u64> {
        let mut c = Calls::new(PINGER, Sym::intern("store.timeouts"));
        for &(id, deadline) in calls {
            park_traced(&mut c, id, deadline, TraceContext::NONE);
        }
        c
    }

    fn park_traced(c: &mut Calls<u64>, id: u64, deadline: Option<u64>, trace: TraceContext) {
        let due = deadline.map(|d| (SimTime(d), trace));
        c.parked.push((CallId(id), id * 10, due));
    }

    /// `(call id, trace)` of every call a sweep at `now` takes.
    fn expired(c: &mut Calls<u64>, now: u64) -> Vec<(u64, TraceContext)> {
        std::iter::from_fn(|| c.take_overdue(CallId(u64::MAX), SimTime(now)))
            .map(|(id, wait, trace)| {
                assert_eq!(wait, id.0 * 10, "the call's own wait");
                (id.0, trace)
            })
            .collect()
    }

    fn ids(c: &Calls<u64>) -> Vec<u64> {
        c.parked.iter().map(|(id, _, _)| id.0).collect()
    }

    #[test]
    fn continuations_take_and_expire() {
        let mut c = store(&[(1, None), (2, Some(100))]);
        assert_eq!(c.outstanding(), 2);
        assert_eq!(c.next_deadline(), Some(SimTime(100)));
        // Before the deadline, the sweep finds nothing; a deadline equal
        // to the sweep's `now` has passed.
        assert!(expired(&mut c, 99).is_empty());
        assert_eq!(expired(&mut c, 100), [(2, TraceContext::NONE)]);
        assert_eq!(c.outstanding(), 1, "no deadline, never swept");
        assert_eq!(c.next_deadline(), None);
    }

    #[test]
    fn replies_take_calls_in_any_order() {
        let mut c = store(&[(1, None), (2, Some(5)), (3, None), (4, Some(7))]);
        assert_eq!(c.take(CallId(4)), Some(40), "the newest first");
        assert_eq!(c.take(CallId(2)), Some(20), "then one from the middle");
        assert_eq!(c.take(CallId(2)), None, "taken once");
        assert_eq!(c.take(CallId(9)), None, "never parked");
        assert_eq!(ids(&c), [1, 3], "the rest stay in call-id order");
        assert_eq!(c.next_deadline(), None);
    }

    #[test]
    fn expired_sweep_is_ordered_and_partial() {
        let mut c = store(&[(1, Some(10)), (2, Some(99)), (3, Some(30))]);
        let due: Vec<u64> = expired(&mut c, 40).into_iter().map(|(id, _)| id).collect();
        assert_eq!(due, [1, 3]);
        assert_eq!(ids(&c), [2]);
        assert_eq!(c.next_deadline(), Some(SimTime(99)));
    }

    #[test]
    fn a_sweep_stops_at_the_calls_parked_before_it() {
        let mut c = store(&[(1, Some(10)), (2, Some(20)), (3, Some(10))]);
        // A sweep at 20 that began with call 2 the last one parked.
        let mut next = || c.take_overdue(CallId(2), SimTime(20)).map(|(id, ..)| id.0);
        assert_eq!(
            [next(), next(), next()],
            [Some(1), Some(2), None],
            "3 came later"
        );
        assert_eq!(ids(&c), [3]);
    }

    #[test]
    fn expiry_carries_the_registering_trace() {
        use legion_core::trace::{SpanId, TraceId};
        let tc = TraceContext::new(TraceId(3), SpanId(7));
        let mut c = store(&[]);
        park_traced(&mut c, 1, Some(10), tc);
        park_traced(&mut c, 2, Some(10), TraceContext::NONE);
        park_traced(&mut c, 3, None, TraceContext::NONE);
        assert_eq!(expired(&mut c, 10), [(1, tc), (2, TraceContext::NONE)]);
        assert_eq!(c.outstanding(), 1, "no deadline, never swept");
    }

    #[test]
    fn redefinition_replaces_entry() {
        let table = TableBuilder::<()>::new("t", "T", CALLEE)
            .method::<(), _>("F", &[], ParamType::Void, |_, _, _, ()| Outcome::NoReply)
            .ungated_method::<(), _>("F", &[], ParamType::Uint, |_, _, _, ()| Outcome::Pending)
            .seal();
        assert_eq!(table.entries.len(), 1);
        assert_eq!(table.signature("F").unwrap().returns, ParamType::Uint);
        assert!(!table.entries[&Sym::intern("F")].1, "ungated now");
    }

    #[test]
    fn table_resolves_and_derives_interface() {
        let table = TableBuilder::<()>::new("t", "T", CALLEE)
            .method::<(Loid,), _>("Ping", &["target"], ParamType::Uint, |_, _, _, _| {
                Outcome::NoReply
            })
            .ungated_method::<(), _>("Iam", &[], ParamType::Loid, |_, _, _, ()| Outcome::NoReply)
            .get_interface()
            .seal();
        let gated = |m: &str| table.entries[&Sym::intern(m)].1;
        assert!(gated("Ping") && gated("GetInterface") && !gated("Iam"));
        assert!(table.signature("Nope").is_none());
        // What `GetInterface()` replies: every registration, itself too.
        let iface = idl::parse_one(&table.idl).unwrap().into_interface(CALLEE);
        assert_eq!(iface.len(), 3);
        assert_eq!(iface.get("Iam").unwrap().returns, ParamType::Loid);
        assert_eq!(iface.get("Ping"), table.signature("Ping"));
    }

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
        let parked = map.get_mut(&1).expect("parked above");
        assert_eq!(parked.len(), 3);
        assert_eq!(parked.iter_mut().next(), Some(&mut "first"));
        let drained: Vec<_> = map.remove(&1).into_iter().flatten().collect();
        assert_eq!(drained, ["first", "second", "third"]);
        assert!(Parked::park(&mut map, 1, "again"), "the key was emptied");
    }

    #[test]
    fn overload_rendering_is_the_core_error_in_one_allocation() {
        for ns in [0, 9, 10, 1_600_000, u64::MAX] {
            let text = overload_error(ns);
            let core = CoreError::Overloaded { retry_after_ns: ns }.to_string();
            assert_eq!(text, core);
            assert_eq!(text.capacity(), text.len(), "{text}");
        }
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
