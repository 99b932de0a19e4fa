//! Class objects as live endpoints (paper §3.7, §4.1, §4.2).
//!
//! A class object is "responsible for creating and locating its instances
//! and subclasses". The [`ClassEndpoint`] owns the per-class state
//! ([`ClassObject`]: interface, LOID allocator, logical table) and serves
//! the class-mandatory member functions through the shared dispatch layer:
//!
//! * `Create()` — pick a Magistrate (a scheduling decision "left up to the
//!   class"), hand it an activation spec, record the new row;
//! * `GetBinding(loid)` — answer from the logical table's Object Address
//!   column, or consult a Magistrate from the row's Current Magistrate
//!   List via `Activate()` — "referring to the LOID of an Inert object can
//!   cause the object to be activated" (§4.1.2);
//! * `Derive(name[, flags])` — obtain a Class Identifier from LegionClass,
//!   then spawn the new class object with this class's interface;
//! * `InheritFrom(base)` — resolve the base (through the class's own
//!   Binding Agent — classes are objects too), ask it with
//!   `GetBaseInterface()` for its *instance* interface as IDL text and
//!   the classes it inherits from, and merge it unless that set names
//!   this class (a cycle) or a method conflicts;
//! * `Delete(loid)` — an instance through the Magistrate holding it; a
//!   subclass only once it has no children of its own, which its `Ping()`
//!   (its table length) tells;
//! * table-maintenance notifications (`SetAddress`, `Add/RemoveMagistrate`,
//!   `Announce`).
//!
//! The class answered every `GetBinding`, so it knows which Binding
//! Agents hold a row's current address. When that address stops being
//! true it tells exactly those agents, one way — §4.1.4's "some classes
//! may even attempt to reduce the number of stale bindings by explicitly
//! propagating news of an object's migration or removal" (see
//! [`ClassConfig::notify_holders`]).
//!
//! Two interfaces coexist here: `GetInterface()` (a table intrinsic)
//! describes the class object's *own* member functions, while
//! `GetInstanceInterface()` returns the run-time interface the class
//! confers on its instances (§2.1 class data).
//!
//! [`LegionClassEndpoint`] is the metaclass: the Class Identifier
//! authority and the keeper of responsibility pairs (§4.1.3).

use crate::protocol::{
    class as class_proto, magistrate as mag_proto, ActivationSpec, CreateArgs, DeriveArgs,
    SetAddressArgs,
};
use legion_core::address::{ObjectAddress, ObjectAddressElement};
use legion_core::binding::Binding;
use legion_core::class::{ClassKind, ClassObject, TableEntry};
use legion_core::dispatch::InvocationGate;
use legion_core::env::InvocationEnv;
use legion_core::error::CoreError;
use legion_core::fxmap::FxHashMap;
use legion_core::idl;
use legion_core::interface::ParamType;
use legion_core::loid::Loid;
use legion_core::metaclass::LegionClassAuthority;
use legion_core::symbol;
use legion_core::time::Expiry;
use legion_core::value::LegionValue;
use legion_core::wellknown::LEGION_BINDING_AGENT;
use legion_naming::protocol::{
    self as naming_proto, BindingArg, FIND_RESPONSIBLE, GET_BINDING, INVALIDATE_BINDING,
    ISSUE_CLASS_ID,
};
use legion_net::admission::{Admission, AdmissionConfig, AdmissionQueue};
use legion_net::dispatch::{
    is_timeout, overload_error, resume, serve, tick, Caller, Calls, MethodTable, Outcome, Parked,
    TableBuilder,
};
use legion_net::message::{Message, ReplyTicket};
use legion_net::sim::{Ctx, Endpoint, FlightKind};
use legion_security::mayi::{AllowAll, MayIPolicy};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

/// Shared configuration for class endpoints (inherited by subclasses
/// spawned through `Derive`).
#[derive(Clone)]
pub struct ClassConfig {
    /// Address of the LegionClass endpoint.
    pub legion_class: ObjectAddressElement,
    /// The Candidate Magistrate List (§3.7): `Create()` places objects
    /// round-robin on these Magistrates and no others. A class restricted
    /// to trusted Magistrates (the DOE story of §2.1.3) names only them.
    pub magistrates: Vec<(Loid, ObjectAddressElement)>,
    /// The class's Binding Agent, for resolving base classes.
    pub binding_agent: Option<ObjectAddressElement>,
    /// Expiry stamped on served bindings (§3.5's "time that the binding
    /// becomes invalid"). `None` serves never-expiring bindings; a TTL
    /// bounds downstream cache staleness at the price of re-resolution.
    pub binding_ttl_ns: Option<u64>,
    /// Admission control / service model for data-plane calls. `None`
    /// (the default) serves instantaneously and never sheds — the exact
    /// historical behavior. `Some` makes the class a deterministic
    /// single server: admitted calls complete after their modeled queue
    /// wait + service time, offers past the queue budget are shed with
    /// `CoreError::Overloaded` + retry-after. Inherited by subclasses
    /// spawned through `Derive`, so clones of a guarded hot class are
    /// guarded the same way.
    pub admission: Option<AdmissionConfig>,
    /// Ablation switch (experiment E8): tell the Binding Agents holding a
    /// row's address when it stops being true. `true` everywhere but the
    /// E8 rows that measure what the notices buy; `false` records no
    /// holder and sends nothing, leaving stale bindings to be detected in
    /// use (§4.1.4) — which is the correctness mechanism either way.
    pub notify_holders: bool,
}

/// A Binding Agent holding a row's current address — where its requests
/// came from — and the expiry that copy was stamped with, so the notice
/// can name the binding exactly as it was handed out.
type Holder = (ObjectAddressElement, Expiry);

/// A `GetBinding` request waiting on a Magistrate, and the Binding Agent
/// behind it when one is (see [`ClassEndpoint::holder`]).
type BindingWaiter = (ReplyTicket, Option<ObjectAddressElement>);

/// What a call of a class object waits to do with its reply (its
/// [`Caller::Wait`]): the rest of the request that made it, with what
/// that needs. Every variant but `Activate` answers the `requester`.
pub enum Wait {
    /// `CreateObject` is out to the Magistrate placing a new instance.
    Create {
        /// Who asked for `Create()`.
        requester: ReplyTicket,
        /// The new instance's row.
        loid: Loid,
    },
    /// `Activate(target)` is out to a Magistrate for the `GetBinding`
    /// requests parked on `target`.
    Activate {
        /// The row being bound.
        target: Loid,
        /// The Magistrate asked, from the row's Current Magistrate List.
        magistrate: Loid,
    },
    /// `IssueClassId` is out to LegionClass for a `Derive()`.
    IssueClassId {
        /// Who asked for `Derive()`.
        requester: ReplyTicket,
        /// The new class's name.
        name: String,
        /// The new class's kind.
        kind: ClassKind,
    },
    /// `GetBinding(base)` is out to the class's Binding Agent for an
    /// `InheritFrom(base)`.
    LocateBase {
        /// Who asked for `InheritFrom()`.
        requester: ReplyTicket,
        /// The base class.
        base: Loid,
    },
    /// `GetBaseInterface()` is out to the base class of an `InheritFrom`.
    BaseInterface {
        /// Who asked for `InheritFrom()`.
        requester: ReplyTicket,
        /// The base class.
        base: Loid,
    },
    /// `Ping()` is out to a subclass about to be deleted: it replies its
    /// table length.
    Ping {
        /// Who asked for `Delete()`.
        requester: ReplyTicket,
        /// The subclass.
        target: Loid,
    },
    /// `Delete(target)` is out to the Magistrate holding an instance.
    Delete {
        /// Who asked for `Delete()`.
        requester: ReplyTicket,
        /// The instance.
        target: Loid,
    },
}

/// Class names may contain characters illegal in IDL identifiers (clones
/// are named "X#clone"); sanitize before rendering.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// A live class object.
pub struct ClassEndpoint {
    class: ClassObject,
    cfg: ClassConfig,
    policy: Box<dyn MayIPolicy>,
    table: Rc<MethodTable<Self>>,
    calls: Calls<Wait>,
    /// GetBinding requests combined while a Magistrate activates a target.
    binding_waiters: FxHashMap<Loid, Parked<BindingWaiter>>,
    /// Per table row, the Binding Agents its *current* address was handed
    /// to. A row is here only while its address column is `Some`; the set
    /// is deduplicated, so it is bounded by the number of agents, and its
    /// first member is stored inline.
    holders: FxHashMap<Loid, Parked<Holder>>,
    /// Round-robin cursor over candidate magistrates.
    next_magistrate: usize,
    /// The admission ledger, when `cfg.admission` is set.
    admission: Option<AdmissionQueue>,
    /// Admitted data-plane calls awaiting their modeled service-
    /// completion timer, oldest first, each with its deferral sequence
    /// and enqueue time. One deterministic server completes calls in
    /// admission order, so the timer that fires is always the front's.
    /// Length is bounded by the admission queue depth — the ledger sheds
    /// before this queue can grow past it.
    deferred: VecDeque<(u64, Message, u64)>,
    next_deferred: u64,
    deferred_peak: usize,
    /// `GetInstanceInterface`'s reply, rendered on first use and kept
    /// until the class object is handed out mutably or inherits.
    instance_idl: Option<String>,
}

/// Timer-tag bit marking a modeled service completion; the low bits
/// carry the deferral sequence. The top bit keeps the space disjoint
/// from the deadline sweep's tag and protocol timers.
const SERVICE_TIMER_BIT: u64 = 1 << 63;

impl ClassEndpoint {
    /// Wrap a class object.
    pub fn new(class: ClassObject, cfg: ClassConfig) -> Self {
        let table = Self::table(class.loid, &class.name);
        let admission = cfg.admission.map(AdmissionQueue::new);
        ClassEndpoint {
            calls: Calls::new(class.loid, symbol::CLASS_TIMEOUTS),
            class,
            cfg,
            policy: Box::new(AllowAll),
            table,
            binding_waiters: FxHashMap::default(),
            holders: FxHashMap::default(),
            next_magistrate: 0,
            admission,
            deferred: VecDeque::new(),
            next_deferred: 0,
            deferred_peak: 0,
            instance_idl: None,
        }
    }

    /// The admission ledger, when admission control is on.
    pub fn admission(&self) -> Option<&AdmissionQueue> {
        self.admission.as_ref()
    }

    /// High-water mark of the deferred-call queue — must stay within the
    /// admission queue depth (the "no unbounded queue" invariant).
    pub fn deferred_peak(&self) -> usize {
        self.deferred_peak
    }

    /// Is `msg` subject to admission control? Only the data-plane calls
    /// a flash crowd multiplies (§4.1 binding lookups, instance
    /// creation, interface discovery) pay the service model. Control-
    /// plane traffic — `Derive`, table maintenance, liveness probes —
    /// bypasses the queue: an auto-scaling policy must be able to clone
    /// an overloaded class *while* it is overloaded.
    fn admission_gated(msg: &Message) -> bool {
        matches!(
            msg.method_sym(),
            Some(m) if m == symbol::GET_BINDING
                || m == symbol::CREATE
                || m == symbol::GET_INSTANCE_INTERFACE
        )
    }

    /// Run one call through the admission ledger. Returns `None` when
    /// the call was consumed here (shed, or deferred to its service-
    /// completion timer); `Some(msg)` hands it back for immediate serve.
    fn admit(&mut self, ctx: &mut Ctx<'_>, msg: Message) -> Option<Message> {
        let Some(queue) = &mut self.admission else {
            return Some(msg);
        };
        if !Self::admission_gated(&msg) {
            return Some(msg);
        }
        let now = ctx.now().as_nanos();
        match queue.offer(now) {
            Admission::Shed { retry_after_ns } => {
                ctx.count(symbol::NET_REQUESTS_SHED);
                ctx.flight(
                    FlightKind::Shed,
                    msg.method_sym().unwrap_or(symbol::EMPTY),
                    retry_after_ns,
                );
                if ctx.reply(&msg, Err(overload_error(retry_after_ns))) {
                    ctx.count(symbol::NET_OVERLOAD_REPLIES);
                }
                ctx.recycle_message(msg);
                None
            }
            Admission::Admit { delay_ns } => {
                let seq = self.next_deferred;
                self.next_deferred += 1;
                self.deferred.push_back((seq, msg, now));
                self.deferred_peak = self.deferred_peak.max(self.deferred.len());
                ctx.set_timer(delay_ns, SERVICE_TIMER_BIT | seq);
                None
            }
        }
    }

    /// Read access to the wrapped class object (tests, experiments).
    pub fn class(&self) -> &ClassObject {
        &self.class
    }

    /// How many Binding Agents hold each row's current address, for the
    /// rows where any does (audits).
    pub fn holder_counts(&self) -> impl Iterator<Item = (Loid, usize)> + '_ {
        self.holders.iter().map(|(loid, set)| (*loid, set.len()))
    }

    /// Mutable access (bootstrap wiring). The caller may rename the class
    /// or edit its interface, so the kept instance-interface text goes.
    pub fn class_mut(&mut self) -> &mut ClassObject {
        self.instance_idl = None;
        &mut self.class
    }

    fn table(loid: Loid, name: &str) -> Rc<MethodTable<Self>> {
        TableBuilder::new("class", sanitize(name), loid)
            .gate(|e: &Self| &e.policy as &dyn InvocationGate)
            .get_interface()
            .method::<CreateArgs, _>(
                class_proto::CREATE,
                &["state"],
                ParamType::Binding,
                |e, ctx, msg, a| e.handle_create(ctx, msg, a),
            )
            .method::<(BindingArg,), _>(
                GET_BINDING,
                &["target"],
                ParamType::Binding,
                |e, ctx, msg, (arg,)| e.handle_get_binding(ctx, msg, arg),
            )
            .method::<DeriveArgs, _>(
                class_proto::DERIVE,
                &["name", "flags"],
                ParamType::Binding,
                |e, ctx, msg, a| e.handle_derive(ctx, msg, a),
            )
            .method::<(Loid,), _>(
                class_proto::INHERIT_FROM,
                &["base"],
                ParamType::Void,
                |e, ctx, msg, (base,)| e.handle_inherit_from(ctx, msg, base),
            )
            .method::<(Loid,), _>(
                class_proto::DELETE,
                &["target"],
                ParamType::Void,
                |e, ctx, msg, (target,)| e.handle_delete(ctx, msg, target),
            )
            .method::<SetAddressArgs, _>(
                class_proto::SET_ADDRESS,
                &["loid", "address"],
                ParamType::Void,
                |e, ctx, _msg, a| {
                    Outcome::Reply(if e.set_address(ctx, a.loid, a.address) {
                        Ok(LegionValue::Void)
                    } else {
                        Err("SetAddress: no such row".into())
                    })
                },
            )
            .method::<(Loid, Loid), _>(
                class_proto::ADD_MAGISTRATE,
                &["loid", "magistrate"],
                ParamType::Void,
                |e, _ctx, _msg, (l, m)| {
                    Outcome::Reply(if e.class.table.add_magistrate(&l, m) {
                        Ok(LegionValue::Void)
                    } else {
                        Err("AddMagistrate: no such row".into())
                    })
                },
            )
            .method::<(Loid, Loid), _>(
                class_proto::REMOVE_MAGISTRATE,
                &["loid", "magistrate"],
                ParamType::Void,
                |e, _ctx, _msg, (l, m)| {
                    Outcome::Reply(if e.class.table.remove_magistrate(&l, m) {
                        Ok(LegionValue::Void)
                    } else {
                        Err("RemoveMagistrate: no such row".into())
                    })
                },
            )
            // §4.2.1 announcement from an externally started instance
            // (Host Object or Magistrate): record (or refresh) its row.
            .method::<(Loid, ObjectAddress), _>(
                class_proto::ANNOUNCE,
                &["loid", "address"],
                ParamType::Void,
                |e, ctx, _msg, (loid, address)| {
                    ctx.count(symbol::CLASS_ANNOUNCEMENTS);
                    if e.class.table.get(&loid).is_none() {
                        e.class.table.insert(loid, TableEntry::new(false));
                    }
                    e.set_address(ctx, loid, Some(address));
                    Outcome::Reply(Ok(LegionValue::Void))
                },
            )
            // The interface this class confers on its *instances* —
            // run-time data, distinct from the intrinsic GetInterface.
            .method::<(), _>(
                class_proto::GET_INSTANCE_INTERFACE,
                &[],
                ParamType::Str,
                |e, _ctx, _msg, ()| Outcome::Reply(Ok(LegionValue::from(e.instance_idl()))),
            )
            // InheritFrom's call to its base: the same text, then every
            // class this one inherits from.
            .method::<(), _>(
                class_proto::GET_BASE_INTERFACE,
                &[],
                ParamType::List,
                |e, _ctx, _msg, ()| {
                    let mut reply = vec![LegionValue::from(e.instance_idl())];
                    reply.extend(e.class.bases.iter().map(|b| LegionValue::Loid(*b)));
                    Outcome::Reply(Ok(LegionValue::List(reply)))
                },
            )
            .method::<(), _>(
                legion_core::object::methods::PING,
                &[],
                ParamType::Uint,
                |e, _ctx, _msg, ()| {
                    Outcome::Reply(Ok(LegionValue::Uint(e.class.table.len() as u64)))
                },
            )
            .method::<(), _>(
                legion_core::object::methods::IAM,
                &[],
                ParamType::Loid,
                |e, _ctx, _msg, ()| Outcome::Reply(Ok(LegionValue::Loid(e.class.loid))),
            )
            .seal()
    }

    /// The instance interface as IDL text, rendered on first use.
    fn instance_idl(&mut self) -> &str {
        let class = &self.class;
        self.instance_idl
            .get_or_insert_with(|| idl::render(&sanitize(&class.name), &class.interface))
    }

    fn pick_magistrate(&mut self) -> Option<(Loid, ObjectAddressElement)> {
        if self.cfg.magistrates.is_empty() {
            return None;
        }
        let pick = self.cfg.magistrates[self.next_magistrate % self.cfg.magistrates.len()];
        self.next_magistrate += 1;
        Some(pick)
    }

    fn magistrate_element(&self, loid: &Loid) -> Option<ObjectAddressElement> {
        self.cfg
            .magistrates
            .iter()
            .find(|(l, _)| l == loid)
            .map(|(_, e)| *e)
    }

    /// The Binding Agent behind `msg`, if one sent it: where news about a
    /// binding this call is answered with must later go.
    fn holder(&self, msg: &Message) -> Option<ObjectAddressElement> {
        let sender = msg.sender.filter(|_| self.cfg.notify_holders)?;
        let is_agent = !sender.is_class() && sender.class_id == LEGION_BINDING_AGENT.class_id;
        msg.reply_to.filter(|_| is_agent)
    }

    /// `agent` was just handed row `loid`'s current address, stamped
    /// `expiry`.
    fn record_holder(&mut self, loid: Loid, agent: ObjectAddressElement, expiry: Expiry) {
        match self.holders.entry(loid) {
            Entry::Occupied(e) => {
                let set = e.into_mut();
                let known = set.iter_mut().find(|(a, _)| *a == agent);
                if known.map(|holder| holder.1 = expiry).is_none() {
                    set.push((agent, expiry));
                }
            }
            Entry::Vacant(e) => {
                e.insert(Parked::new((agent, expiry)));
            }
        }
    }

    /// Write row `loid`'s Object Address column — the one place it is
    /// written. When the column stops being the address its holders were
    /// given, each of them is sent `InvalidateBinding(binding)` as a
    /// one-way notice and the set is forgotten. The binding overload
    /// evicts on an exact match only, so a notice that arrives after the
    /// agent refreshed cannot evict the fresher entry. `false` if there
    /// is no such row.
    fn set_address(
        &mut self,
        ctx: &mut Ctx<'_>,
        loid: Loid,
        address: Option<ObjectAddress>,
    ) -> bool {
        let Some(row) = self.class.table.get_mut(&loid) else {
            return false;
        };
        if row.address == address {
            return true;
        }
        let was = std::mem::replace(&mut row.address, address);
        let (Some(address), Some(holders)) = (was, self.holders.remove(&loid)) else {
            return true;
        };
        let me = self.class.loid;
        let mut stale = Binding::forever(loid, address);
        let mut notified = 0;
        for (agent, expiry) in holders {
            stale.expiry = expiry;
            let binding = ctx.binding_value(&stale);
            let args = ctx.args([binding]);
            let env = InvocationEnv::solo(me);
            if ctx.notify(agent, loid, INVALIDATE_BINDING, args, env, Some(me)) {
                notified += 1;
            }
        }
        ctx.count_n(symbol::CLASS_HOLDERS_NOTIFIED, notified);
        true
    }

    /// Drop row `target`, telling whoever holds its address first.
    fn forget(&mut self, ctx: &mut Ctx<'_>, target: Loid) {
        self.set_address(ctx, target, None);
        let _ = self.class.delete_child(&target);
    }

    // ----- handlers -------------------------------------------------------

    fn handle_create(&mut self, ctx: &mut Ctx<'_>, msg: &Message, a: CreateArgs) -> Outcome {
        let loid = match self.class.create_instance() {
            Ok(l) => l,
            Err(e) => {
                ctx.count(symbol::CLASS_CREATE_REFUSED);
                return Outcome::Reply(Err(e.to_string()));
            }
        };
        let Some((mag_loid, mag_element)) = self.pick_magistrate() else {
            self.class.table.remove(&loid);
            return Outcome::Reply(Err("class has no candidate magistrates".into()));
        };
        self.class.table.add_magistrate(&loid, mag_loid);
        let spec = ActivationSpec {
            loid,
            class: self.class.loid,
            state: a.state,
            class_addr: Some(ctx.self_element()),
            magistrate_addr: Some(mag_element),
        };
        let args = ctx.args(spec.into_args());
        let requester = msg.reply_ticket();
        let called = self.calls.call(
            ctx,
            mag_element,
            mag_loid,
            mag_proto::CREATE_OBJECT,
            args,
            Wait::Create { requester, loid },
        );
        if called {
            ctx.count(symbol::CLASS_CREATES);
            Outcome::Pending
        } else {
            self.class.table.remove(&loid);
            Outcome::Reply(Err(format!("magistrate {mag_loid} unreachable")))
        }
    }

    fn handle_get_binding(&mut self, ctx: &mut Ctx<'_>, msg: &Message, arg: BindingArg) -> Outcome {
        let (target, refresh) = match arg {
            BindingArg::Loid(l) => (l, false),
            BindingArg::Binding(b) => (b.loid, true),
        };
        ctx.count(symbol::CLASS_GET_BINDING);
        let Some(entry) = self.class.table.get(&target) else {
            return Outcome::Reply(Err(format!("{}: unknown object {target}", self.class.loid)));
        };
        if !refresh {
            if let Some(addr) = &entry.address {
                let b = self.stamp(ctx, Binding::forever(target, addr.clone()));
                if let Some(agent) = self.holder(msg) {
                    self.record_holder(target, agent, b.expiry);
                }
                return Outcome::Reply(Ok(LegionValue::from(b)));
            }
        }
        // The address column is NIL (or suspect): consult a Magistrate
        // from the Current Magistrate List via Activate (§4.1.2).
        let Some(mag_loid) = entry.current_magistrates.first().copied() else {
            return Outcome::Reply(Err(format!(
                "{target} is Inert and has no magistrate on record"
            )));
        };
        if self.magistrate_element(&mag_loid).is_none() {
            return Outcome::Reply(Err(format!("magistrate {mag_loid} has no known address")));
        }
        let waiter = (msg.reply_ticket(), self.holder(msg));
        if Parked::park(&mut self.binding_waiters, target, waiter) {
            ctx.count(symbol::CLASS_ACTIVATES_FOR_BINDING);
            self.consult_magistrate(ctx, target, mag_loid);
        }
        Outcome::Pending
    }

    /// Ask `magistrate` to activate `target` for a pending GetBinding.
    fn consult_magistrate(&mut self, ctx: &mut Ctx<'_>, target: Loid, magistrate: Loid) {
        let Some(mag_element) = self.magistrate_element(&magistrate) else {
            self.finish_binding(
                ctx,
                target,
                Err(format!("magistrate {magistrate} has no known address")),
            );
            return;
        };
        let args = ctx.args([LegionValue::Loid(target)]);
        let called = self.calls.call(
            ctx,
            mag_element,
            magistrate,
            mag_proto::ACTIVATE,
            args,
            Wait::Activate { target, magistrate },
        );
        if !called {
            self.finish_binding(
                ctx,
                target,
                Err(format!("magistrate {magistrate} unreachable")),
            );
        }
    }

    fn on_activate_for_binding(
        &mut self,
        ctx: &mut Ctx<'_>,
        target: Loid,
        magistrate: Loid,
        result: Result<LegionValue, String>,
    ) {
        match naming_proto::binding_from_result(&result) {
            Some(b) => self.finish_binding(ctx, target, Ok(b)),
            None => {
                let e = match result {
                    Err(e) => e,
                    Ok(v) => format!("unexpected magistrate reply {v}"),
                };
                // Self-healing (§3.7 list semantics): a magistrate that
                // disclaims the object leaves the row's Current Magistrate
                // List; try the next one.
                if e.contains("not managed") {
                    ctx.count(symbol::CLASS_MAGISTRATE_DISCLAIMED);
                    self.class.table.remove_magistrate(&target, magistrate);
                    let next = self
                        .class
                        .table
                        .get(&target)
                        .and_then(|row| row.current_magistrates.first().copied());
                    if let Some(next_mag) = next {
                        self.consult_magistrate(ctx, target, next_mag);
                        return;
                    }
                }
                self.finish_binding(ctx, target, Err(e));
            }
        }
    }

    /// Apply the configured TTL to an outgoing binding (§3.5: bindings
    /// carry "the time that the binding becomes invalid").
    fn stamp(&self, ctx: &Ctx<'_>, mut b: Binding) -> Binding {
        if let Some(ttl) = self.cfg.binding_ttl_ns {
            b.expiry = legion_core::time::Expiry::after(ctx.now(), ttl);
        }
        b
    }

    fn finish_binding(&mut self, ctx: &mut Ctx<'_>, target: Loid, result: Result<Binding, String>) {
        // A row deleted while its Magistrate was consulted stays deleted:
        // its waiters still get the answer, but nobody is on record as
        // holding an address the table no longer has.
        let on_record = match &result {
            Ok(b) => self.set_address(ctx, target, Some(b.address.clone())),
            Err(_) => false,
        };
        let result = result.map(|b| self.stamp(ctx, b));
        for (waiter, agent) in self.binding_waiters.remove(&target).into_iter().flatten() {
            if let (Ok(b), Some(agent), true) = (&result, agent, on_record) {
                self.record_holder(target, agent, b.expiry);
            }
            let payload = result.as_ref().map(|b| ctx.binding_value(b));
            ctx.reply_ticket(waiter, payload.map_err(String::clone));
        }
    }

    fn handle_derive(&mut self, ctx: &mut Ctx<'_>, msg: &Message, a: DeriveArgs) -> Outcome {
        if self.class.kind.is_private {
            ctx.count(symbol::CLASS_DERIVE_REFUSED);
            return Outcome::Reply(Err(format!(
                "class {} is Private: Derive() is empty",
                self.class.loid
            )));
        }
        let args = ctx.args([LegionValue::Loid(self.class.loid)]);
        let requester = msg.reply_ticket();
        let DeriveArgs { name, kind } = a;
        let called = self.calls.call(
            ctx,
            self.cfg.legion_class,
            legion_core::wellknown::LEGION_CLASS,
            ISSUE_CLASS_ID,
            args,
            Wait::IssueClassId {
                requester,
                name,
                kind,
            },
        );
        if called {
            ctx.count(symbol::CLASS_DERIVES);
            Outcome::Pending
        } else {
            Outcome::Reply(Err("LegionClass unreachable".into()))
        }
    }

    fn spawn_subclass(
        &mut self,
        ctx: &mut Ctx<'_>,
        class_id: u64,
        name: String,
        kind: ClassKind,
    ) -> Binding {
        let loid = Loid::class_object(class_id);
        let mut sub = ClassObject::new(loid, name.clone(), kind);
        sub.superclass = Some(self.class.loid);
        // "A class that is derived from another class inherits the
        // superclass's member functions" — copy the interface wholesale.
        sub.interface = self.class.interface.clone();
        let endpoint = ClassEndpoint::new(sub, self.cfg.clone());
        let loc = ctx.location();
        let ep = ctx.spawn(Box::new(endpoint), loc, format!("class:{name}"));
        // Record responsibility: our table row + its address.
        self.class
            .record_subclass(loid)
            .expect("Private checked earlier");
        let address = ObjectAddress::single(ep.element());
        self.set_address(ctx, loid, Some(address.clone()));
        Binding::forever(loid, address)
    }

    fn handle_inherit_from(&mut self, ctx: &mut Ctx<'_>, msg: &Message, base: Loid) -> Outcome {
        if self.class.kind.is_fixed {
            ctx.count(symbol::CLASS_INHERIT_REFUSED);
            return Outcome::Reply(Err(format!(
                "class {} is Fixed: InheritFrom() is empty",
                self.class.loid
            )));
        }
        if base == self.class.loid {
            return Outcome::Reply(Err("a class cannot inherit from itself".into()));
        }
        // Resolve the base class, preferring our own table (it may be our
        // subclass), then the Binding Agent.
        let requester = msg.reply_ticket();
        let known = self.class.table.get(&base).and_then(|e| e.address.clone());
        if let Some(address) = known {
            self.fetch_base_interface(ctx, &Binding::forever(base, address), requester);
            return Outcome::Pending;
        }
        let Some(agent) = self.cfg.binding_agent else {
            return Outcome::Reply(Err(format!(
                "cannot locate base {base}: no binding agent configured"
            )));
        };
        let args = ctx.args([LegionValue::Loid(base)]);
        let wait = Wait::LocateBase { requester, base };
        if self.calls.call(ctx, agent, base, GET_BINDING, args, wait) {
            Outcome::Pending
        } else {
            Outcome::Reply(Err("binding agent unreachable".into()))
        }
    }

    /// Fetch the base's *instance* interface and inherited-from set for
    /// an InheritFrom merge. Replies to `requester` itself on every path
    /// (also reached when the `GetBinding` reply wakes, where there is no
    /// dispatch outcome).
    fn fetch_base_interface(
        &mut self,
        ctx: &mut Ctx<'_>,
        base_binding: &Binding,
        requester: ReplyTicket,
    ) {
        let Some(primary) = base_binding.address.primary().copied() else {
            ctx.reply_ticket(requester, Err("base class has an empty address".into()));
            return;
        };
        let base = base_binding.loid;
        let called = self.calls.call(
            ctx,
            primary,
            base,
            class_proto::GET_BASE_INTERFACE,
            vec![],
            Wait::BaseInterface { requester, base },
        );
        if !called {
            ctx.reply_ticket(requester, Err(format!("base class {base} unreachable")));
        }
    }

    fn on_base_interface(
        &mut self,
        ctx: &mut Ctx<'_>,
        requester: ReplyTicket,
        base: Loid,
        result: Result<LegionValue, String>,
    ) {
        let merged = match result {
            Ok(LegionValue::List(reply)) => self.merge_base(base, &reply),
            Ok(v) => Err(format!("unexpected GetBaseInterface reply {v}")),
            Err(e) => Err(format!("GetBaseInterface failed: {e}")),
        };
        if merged.is_ok() {
            self.instance_idl = None;
            ctx.count(symbol::CLASS_INHERITS);
        }
        ctx.reply_ticket(requester, merged.map(|()| LegionValue::Void));
    }

    /// Merge `base` from its `GetBaseInterface` reply: its IDL text, then
    /// the classes it inherits from.
    fn merge_base(&mut self, base: Loid, reply: &[LegionValue]) -> Result<(), String> {
        let Some((LegionValue::Str(text), base_bases)) = reply.split_first() else {
            return Err("base interface reply has no IDL text".into());
        };
        let base_bases = base_bases
            .iter()
            .map(|v| match v {
                LegionValue::Loid(l) => Ok(*l),
                v => Err(format!("unexpected base {v}")),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let parsed =
            idl::parse_one(text).map_err(|e| format!("base interface unparseable: {e}"))?;
        self.class
            .inherit_from(base, &parsed.into_interface(base), &base_bases)
            .map_err(|e| e.to_string())
    }

    fn handle_delete(&mut self, ctx: &mut Ctx<'_>, msg: &Message, target: Loid) -> Outcome {
        let Some(entry) = self.class.table.get(&target) else {
            return Outcome::Reply(Err(format!("{}: unknown object {target}", self.class.loid)));
        };
        let subclass = entry.address.as_ref().filter(|_| entry.is_subclass);
        if let Some(&at) = subclass.and_then(|a| a.primary()) {
            // A subclass goes only once it is empty: its `Ping()` replies
            // its table length.
            let requester = msg.reply_ticket();
            let ping = legion_core::object::methods::PING;
            let wait = Wait::Ping { requester, target };
            if self.calls.call(ctx, at, target, ping, vec![], wait) {
                return Outcome::Pending;
            }
        }
        match entry.current_magistrates.first().copied() {
            Some(mag_loid) => {
                let Some(mag_element) = self.magistrate_element(&mag_loid) else {
                    return Outcome::Reply(Err(format!(
                        "magistrate {mag_loid} has no known address"
                    )));
                };
                let args = ctx.args([LegionValue::Loid(target)]);
                let requester = msg.reply_ticket();
                let called = self.calls.call(
                    ctx,
                    mag_element,
                    mag_loid,
                    mag_proto::DELETE,
                    args,
                    Wait::Delete { requester, target },
                );
                if called {
                    Outcome::Pending
                } else {
                    // Magistrate gone; drop the row anyway.
                    self.forget(ctx, target);
                    Outcome::Reply(Ok(LegionValue::Void))
                }
            }
            None => {
                self.forget(ctx, target);
                Outcome::Reply(Ok(LegionValue::Void))
            }
        }
    }
}

impl Caller for ClassEndpoint {
    type Wait = Wait;

    fn calls(&mut self) -> &mut Calls<Wait> {
        &mut self.calls
    }

    fn wake(&mut self, ctx: &mut Ctx<'_>, wait: Wait, result: Result<LegionValue, String>) {
        match wait {
            Wait::Create { requester, loid } => match naming_proto::binding_from_result(&result) {
                Some(b) => {
                    self.set_address(ctx, b.loid, Some(b.address.clone()));
                    let b = self.stamp(ctx, b);
                    ctx.reply_ticket(requester, Ok(LegionValue::from(b)));
                }
                None => {
                    let err = match result {
                        Err(err) => err,
                        Ok(v) => format!("unexpected magistrate reply {v}"),
                    };
                    // Create is all-or-nothing: a refusal leaves no row. A
                    // timeout keeps it — the object may exist, and a
                    // `GetBinding` through the row's Magistrate finds out.
                    if !is_timeout(&err) {
                        self.class.table.remove(&loid);
                    }
                    ctx.reply_ticket(requester, Err(format!("Create failed: {err}")));
                }
            },
            Wait::Activate { target, magistrate } => {
                self.on_activate_for_binding(ctx, target, magistrate, result)
            }
            Wait::IssueClassId {
                requester,
                name,
                kind,
            } => {
                let reply = match result {
                    Ok(LegionValue::Uint(class_id)) => {
                        let b = self.spawn_subclass(ctx, class_id, name, kind);
                        Ok(LegionValue::from(b))
                    }
                    Ok(v) => Err(format!("unexpected LegionClass reply {v}")),
                    Err(err) => Err(format!("Derive failed: {err}")),
                };
                ctx.reply_ticket(requester, reply);
            }
            Wait::LocateBase { requester, base } => {
                match naming_proto::binding_from_result(&result) {
                    Some(b) => self.fetch_base_interface(ctx, &b, requester),
                    None => {
                        let err = match result {
                            Err(err) => err,
                            Ok(v) => format!("unexpected payload {v}"),
                        };
                        ctx.reply_ticket(
                            requester,
                            Err(format!("cannot locate base {base}: {err}")),
                        );
                    }
                }
            }
            Wait::BaseInterface { requester, base } => {
                self.on_base_interface(ctx, requester, base, result)
            }
            Wait::Ping { requester, target } => {
                let reply = match result {
                    Ok(LegionValue::Uint(0)) => {
                        self.forget(ctx, target);
                        Ok(LegionValue::Void)
                    }
                    Ok(LegionValue::Uint(n)) => Err(CoreError::Invalid(format!(
                        "class {target} still has {n} children; delete them first"
                    ))
                    .to_string()),
                    Ok(v) => Err(format!("unexpected Ping reply {v}")),
                    Err(err) => Err(format!("Delete failed: {err}")),
                };
                ctx.reply_ticket(requester, reply);
            }
            Wait::Delete { requester, target } => match result {
                Ok(_) => {
                    self.forget(ctx, target);
                    ctx.count(symbol::CLASS_DELETES);
                    ctx.reply_ticket(requester, Ok(LegionValue::Void));
                }
                Err(err) => {
                    ctx.reply_ticket(requester, Err(format!("Delete failed: {err}")));
                }
            },
        }
    }
}

impl Endpoint for ClassEndpoint {
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if tag & SERVICE_TIMER_BIT != 0 {
            // Modeled service completion: serve the deferred call now and
            // record the caller-experienced response time (queue wait +
            // service) as this endpoint's SLO sample — the signal burn
            // events, and therefore the auto-scaler, run on.
            if let Some((seq, msg, enqueued_at)) = self.deferred.pop_front() {
                debug_assert_eq!(seq, tag & !SERVICE_TIMER_BIT, "completions out of order");
                let response_ns = ctx.now().as_nanos().saturating_sub(enqueued_at);
                ctx.slo_record(response_ns);
                let table = Rc::clone(&self.table);
                serve(&table, self, ctx, msg);
            }
            return;
        }
        tick(self, ctx, tag);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        if msg.is_reply() {
            // A reply nothing waits for answers a call that timed out.
            resume(self, ctx, msg);
            return;
        }
        let Some(msg) = self.admit(ctx, msg) else {
            return;
        };
        let table = Rc::clone(&self.table);
        serve(&table, self, ctx, msg);
    }
}

/// The LegionClass metaclass endpoint: Class Identifier authority and
/// responsibility-pair keeper (§3.2, §4.1.3).
pub struct LegionClassEndpoint {
    authority: LegionClassAuthority,
    class_bindings: HashMap<Loid, Binding>,
    table: Rc<MethodTable<Self>>,
}

impl Default for LegionClassEndpoint {
    fn default() -> Self {
        Self::new()
    }
}

impl LegionClassEndpoint {
    /// A fresh metaclass endpoint.
    pub fn new() -> Self {
        LegionClassEndpoint {
            authority: LegionClassAuthority::new(),
            class_bindings: HashMap::new(),
            table: Self::table(),
        }
    }

    fn table() -> Rc<MethodTable<Self>> {
        TableBuilder::new(
            "legion_class",
            "LegionClass",
            legion_core::wellknown::LEGION_CLASS,
        )
        .get_interface()
        .method::<(Loid,), _>(
            ISSUE_CLASS_ID,
            &["creator"],
            ParamType::Uint,
            |e: &mut Self, ctx, _msg, (creator,)| {
                ctx.count(symbol::LEGION_CLASS_ISSUE);
                Outcome::Reply(
                    e.authority
                        .issue_class_id(creator)
                        .map(|(id, _)| LegionValue::Uint(id.0))
                        .map_err(|err| err.to_string()),
                )
            },
        )
        .method::<(Loid,), _>(
            FIND_RESPONSIBLE,
            &["target"],
            ParamType::Loid,
            |e, ctx, _msg, (target,)| {
                ctx.count(symbol::LEGION_CLASS_FIND);
                Outcome::Reply(
                    e.authority
                        .find_responsible(&target)
                        .map(LegionValue::Loid)
                        .map_err(|err| err.to_string()),
                )
            },
        )
        .method::<(BindingArg,), _>(
            GET_BINDING,
            &["target"],
            ParamType::Binding,
            |e, ctx, _msg, (arg,)| {
                ctx.count(symbol::LEGION_CLASS_GET_BINDING);
                Outcome::Reply(match e.class_bindings.get(&arg.loid()) {
                    Some(b) => Ok(LegionValue::from(b.clone())),
                    None => Err(format!("LegionClass has no binding for {}", arg.loid())),
                })
            },
        )
        .seal()
    }

    /// Register a class binding LegionClass maintains directly (core
    /// classes at bootstrap).
    pub fn register_class_binding(&mut self, b: Binding) {
        self.class_bindings.insert(b.loid, b);
    }

    /// Adopt an externally started class (§4.2.1): LegionClass becomes the
    /// end of its responsibility chain, maintains its binding directly,
    /// and reserves its Class Identifier against future `IssueClassId`
    /// collisions.
    pub fn adopt_class(&mut self, binding: Binding) {
        let loid = binding.loid;
        self.authority
            .adopt(loid, legion_core::wellknown::LEGION_CLASS)
            .expect("adopting a class object");
        self.class_bindings.insert(loid, binding);
    }
}

impl Endpoint for LegionClassEndpoint {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        if msg.is_reply() {
            return;
        }
        let table = Rc::clone(&self.table);
        serve(&table, self, ctx, msg);
    }
}
