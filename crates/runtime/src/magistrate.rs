//! Magistrates (paper §2.2, §3.8, Figure 11).
//!
//! "A Magistrate is in charge of a Jurisdiction ... The purpose of a
//! Magistrate is to perform the activation, deactivation, and migration of
//! the Legion objects under its control ... member function calls on
//! Magistrates should be thought of as requests rather than commands" —
//! a Magistrate may refuse anything its security policy dislikes.
//!
//! The endpoint implements the §3.8 member functions over the host and
//! object endpoints:
//!
//! * `Activate(LOID[, host])` — load the OPR from jurisdiction storage,
//!   pick a host (the suggested one — §3.8's Scheduling Agent hook — if
//!   it has room, else the least loaded), `HostActivate`, record the
//!   Object Address, notify the class, answer every combined waiter;
//! * `Deactivate(LOID)` — `SaveState` on the object, write the OPR,
//!   `HostDeactivate`, clear the class's address column;
//! * `Delete(LOID)` — remove Active and Inert copies;
//! * `Copy/Move(LOID, LOID)` — deactivate if needed, ship the OPR bytes to
//!   the peer Magistrate (`ReceiveOpr`), optionally delete locally —
//!   exactly Figure 11's migration-through-storage path.
//!
//! What each of those does to an object is decided in one place, the pure
//! reducer [`lifecycle::step`]: the Magistrate is its adapter. A request
//! arrives through the shared dispatch layer (a [`MethodTable`], MayI gate
//! at the boundary — "requests rather than commands"), is decoded into a
//! [`LifeEvent`] and stepped on the object's one [`ObjRecord`]; the
//! Magistrate then performs the row's [`Effect`]s — storage, placement,
//! calls through its [`Calls`], replies. A request that brings an OPR
//! (`CreateObject`, `ReceiveOpr`) has it stored and the record held before
//! its row runs. A call parks a [`Wait`], which holds just what its reply
//! needs to become the next event, and a failed effect is stepped as an
//! event too. The heartbeat bypass (§3.9 liveness is not a request) is an
//! *ungated, one-way* registration on the same table.

use crate::lifecycle::{self, Effect, Life, LifeEvent, Notice, ObjRecord, Waiter, Why};
use crate::protocol::{
    class as class_proto, host as host_proto, magistrate as mag_proto, ActivateArgs,
    ActivationSpec, ReceiveOprArgs,
};
use legion_core::address::{ObjectAddress, ObjectAddressElement};
use legion_core::binding::Binding;
use legion_core::dispatch::InvocationGate;
use legion_core::env::InvocationEnv;
use legion_core::fxmap::FxHashMap;
use legion_core::interface::ParamType;
use legion_core::loid::Loid;
use legion_core::object::methods as obj_methods;
use legion_core::symbol;
use legion_core::value::LegionValue;
use legion_ha::detector::FailureDetector;
use legion_ha::policy::{Health, SuspicionPolicy};
use legion_ha::recovery::RecoveryTracker;
use legion_naming::stale;
use legion_net::dispatch::{
    resume, serve, tick, Caller, Calls, MethodTable, Outcome, Parked, TableBuilder,
};
use legion_net::message::{Message, ReplyTicket};
use legion_net::sim::{Ctx, Endpoint, RecordKind};
use legion_persist::opr::Opr;
use legion_persist::storage::{JurisdictionStorage, PersistentAddress};
use legion_security::mayi::{AllowAll, MayIPolicy};
use std::rc::Rc;

struct HostRecord {
    loid: Loid,
    element: ObjectAddressElement,
    capacity: u32,
    assigned: u32,
    /// Cleared when a send to the host is refused (crashed Host Object);
    /// dead hosts are skipped by placement until re-registered.
    alive: bool,
}

/// Where an activation goes — the Magistrate's "default scheduling
/// behavior" (§3.8): the `hint` (a Scheduling Agent's suggestion) if that
/// host is alive and has room, otherwise the live host with the most free
/// slots, ties to the lowest LOID. `None` when no live host has room.
fn place(hosts: &[HostRecord], hint: Option<Loid>) -> Option<&HostRecord> {
    let free = |h: &HostRecord| h.capacity.saturating_sub(h.assigned);
    let open = || hosts.iter().filter(move |h| h.alive && free(h) > 0);
    open()
        .find(|h| Some(h.loid) == hint)
        .or_else(|| open().max_by(|a, b| free(a).cmp(&free(b)).then(b.loid.cmp(&a.loid))))
}

/// Park `waiter` behind whatever is parked in `slot`.
fn park(slot: &mut Option<Parked<Waiter>>, waiter: Waiter) {
    match slot {
        Some(parked) => parked.push(waiter),
        None => *slot = Some(Parked::new(waiter)),
    }
}

/// A request that carries nothing but its reply ticket.
type Ask = fn(ReplyTicket) -> LifeEvent<'static>;

/// What a call of a Magistrate waits for (its [`Caller::Wait`]): the
/// object, and what the reply needs to become the object's next
/// [`LifeEvent`].
pub struct Wait(Loid, Pending);

/// The call a [`Wait`] parks, with what its reply needs.
pub enum Pending {
    /// `HostActivate` to the host, after that many placements.
    HostActivate(Loid, u32),
    /// `SaveState()`, for the deactivation's requester (`None` for a
    /// Copy/Move's own).
    SaveState(Option<ReplyTicket>),
    /// `HostDeactivate`, the object's fresh OPR already stored at the
    /// address.
    HostDeactivate(Option<ReplyTicket>, PersistentAddress),
    /// `HostDeactivate` for a Delete: whatever the host answers, the
    /// deletion finishes.
    Delete(ReplyTicket),
    /// `ReceiveOpr` to the peer Magistrate, for a Move when the flag is
    /// set.
    Ship(ReplyTicket, bool),
}

/// Timer tag for the periodic failure-detector sweep (armed externally
/// after [`MagistrateEndpoint::enable_ha`]).
pub const TIMER_HA_SWEEP: u64 = 0x5357_4550; // "SWEP"

/// Failure-detection and recovery state (see
/// [`MagistrateEndpoint::enable_ha`]).
struct HaState {
    detector: FailureDetector,
    tracker: RecoveryTracker,
    sweep_interval_ns: u64,
    /// Stop re-arming the sweep once virtual time passes this (keeps
    /// experiment kernels quiescable).
    horizon_ns: u64,
    /// Binding Agents to invalidate through / push fresh bindings to
    /// when a recovered object comes back at a new address (§4.1.4).
    agents: Vec<ObjectAddressElement>,
}

/// Configuration of a Magistrate.
pub struct MagistrateConfig {
    /// The Magistrate's LOID (instance of a `LegionMagistrate` subclass).
    pub loid: Loid,
    /// The jurisdiction it governs.
    pub jurisdiction: u32,
    /// Address of its class, for the §4.2.1 announcement.
    pub class_addr: Option<ObjectAddressElement>,
    /// Disks and capacity of the jurisdiction's storage.
    pub disks: usize,
    /// Per-disk capacity in bytes.
    pub disk_capacity: u64,
}

/// The Magistrate endpoint.
pub struct MagistrateEndpoint {
    cfg: MagistrateConfig,
    storage: JurisdictionStorage,
    hosts: Vec<HostRecord>,
    mayi: Box<dyn MayIPolicy>,
    /// One record per object: its class, its [`Life`] and the requests
    /// parked on it.
    objects: FxHashMap<Loid, ObjRecord>,
    table: Rc<MethodTable<Self>>,
    /// Every outbound call that waits for a reply. Its deadline is `None`
    /// by default — wait forever, no timers armed; chaos campaigns set
    /// one so lost replies surface as timeouts instead of leaked state.
    calls: Calls<Wait>,
    peers: FxHashMap<Loid, ObjectAddressElement>,
    ha: Option<HaState>,
    /// What `SaveState` answered, for the row being performed to store as
    /// the object's fresh OPR.
    saved: Option<Vec<u8>>,
}

impl MagistrateEndpoint {
    /// A Magistrate with the permissive security default.
    pub fn new(cfg: MagistrateConfig) -> Self {
        let storage = JurisdictionStorage::new(cfg.jurisdiction, cfg.disks, cfg.disk_capacity);
        MagistrateEndpoint {
            storage,
            hosts: Vec::new(),
            mayi: Box::new(AllowAll),
            objects: FxHashMap::default(),
            table: Self::table(cfg.loid),
            calls: Calls::new(cfg.loid, symbol::MAGISTRATE_TIMEOUTS),
            peers: FxHashMap::default(),
            ha: None,
            saved: None,
            cfg,
        }
    }

    /// The §3.8 method table. Every member function is gated ("requests
    /// rather than commands"); `Heartbeat` is registered ungated and
    /// one-way — a paranoid policy must not blind the failure detector,
    /// and a dead Magistrate must not wedge its hosts.
    fn table(loid: Loid) -> Rc<MethodTable<Self>> {
        TableBuilder::new("magistrate", "LegionMagistrate", loid)
            .gate(|e: &Self| &e.mayi as &dyn InvocationGate)
            .method::<ActivateArgs, _>(
                mag_proto::ACTIVATE,
                &["target", "host"],
                ParamType::Binding,
                |e, ctx, msg, args| {
                    let ev = LifeEvent::Activate(msg.reply_ticket(), args.host);
                    e.request(ctx, args.loid, ev)
                },
            )
            .method::<(Loid,), _>(
                mag_proto::DEACTIVATE,
                &["target"],
                ParamType::Void,
                |e: &mut Self, ctx, msg, (loid,)| e.ask(ctx, msg, loid, LifeEvent::Deactivate),
            )
            .method::<(Loid,), _>(
                mag_proto::DELETE,
                &["target"],
                ParamType::Void,
                |e: &mut Self, ctx, msg, (loid,)| e.ask(ctx, msg, loid, LifeEvent::Delete),
            )
            .method::<(Loid, Loid), _>(
                mag_proto::COPY,
                &["target", "magistrate"],
                ParamType::Void,
                |e: &mut Self, ctx, msg, ids| e.copy(ctx, msg, ids, false),
            )
            .method::<(Loid, Loid), _>(
                mag_proto::MOVE,
                &["target", "magistrate"],
                ParamType::Void,
                |e: &mut Self, ctx, msg, ids| e.copy(ctx, msg, ids, true),
            )
            .method::<ActivationSpec, _>(
                mag_proto::CREATE_OBJECT,
                &["loid", "class", "state", "class_addr", "magistrate_addr"],
                ParamType::Binding,
                |e, ctx, msg, spec| e.create(ctx, msg, spec),
            )
            .method::<ReceiveOprArgs, _>(
                mag_proto::RECEIVE_OPR,
                &["loid", "class", "opr", "class_addr"],
                ParamType::Void,
                |e, ctx, msg, args| e.receive_opr(ctx, msg, args),
            )
            .ungated_method::<(Loid, u64), _>(
                legion_ha::protocol::HEARTBEAT,
                &["host", "running"],
                ParamType::Void,
                |e: &mut Self, ctx, _msg, (host, _running)| {
                    e.handle_heartbeat(ctx, host);
                    Outcome::NoReply
                },
            )
            .get_interface()
            .seal()
    }

    /// Enable heartbeat failure detection and automatic recovery. Every
    /// currently registered host is monitored from `now`; silence is
    /// classified by `policy` each sweep, and a Dead verdict triggers the
    /// recovery driver (re-activate lost objects from their vault OPRs on
    /// surviving hosts, invalidate stale bindings through `agents`).
    ///
    /// Configuration happens after `on_start` has already run, so the
    /// first sweep timer must be armed externally:
    /// `SimKernel::set_timer(magistrate_ep, sweep_interval_ns,
    /// TIMER_HA_SWEEP)`.
    pub fn enable_ha(
        &mut self,
        policy: Box<dyn SuspicionPolicy>,
        heartbeat_interval_ns: u64,
        sweep_interval_ns: u64,
        horizon_ns: u64,
        agents: Vec<ObjectAddressElement>,
        now: legion_core::time::SimTime,
    ) {
        let mut detector = FailureDetector::new(policy, heartbeat_interval_ns);
        for h in &self.hosts {
            if h.alive {
                detector.register(h.loid, now);
            }
        }
        self.ha = Some(HaState {
            detector,
            tracker: RecoveryTracker::new(),
            sweep_interval_ns,
            horizon_ns,
            agents,
        });
    }

    /// Recovery accounting, when HA is enabled.
    pub fn ha_tracker(&self) -> Option<&RecoveryTracker> {
        self.ha.as_ref().map(|h| &h.tracker)
    }

    /// Replace the security policy — "a Magistrate has the authority to
    /// reject requests".
    pub fn with_mayi(mut self, mayi: Box<dyn MayIPolicy>) -> Self {
        self.mayi = mayi;
        self
    }

    /// Register a host in this jurisdiction (bootstrap wiring).
    pub fn add_host(&mut self, loid: Loid, element: ObjectAddressElement, capacity: u32) {
        self.hosts.push(HostRecord {
            loid,
            element,
            capacity,
            assigned: 0,
            alive: true,
        });
    }

    /// Register a peer magistrate for Copy/Move by LOID.
    pub fn add_peer(&mut self, loid: Loid, element: ObjectAddressElement) {
        self.peers.insert(loid, element);
    }

    /// The Magistrate's LOID.
    pub fn loid(&self) -> Loid {
        self.cfg.loid
    }

    /// Where an object is in its lifecycle, if this Magistrate has a
    /// record of it.
    pub fn object_state(&self, loid: &Loid) -> Option<&Life> {
        self.objects.get(loid).map(ObjRecord::life)
    }

    /// Number of objects held here (Inert or Active).
    pub fn object_count(&self) -> usize {
        let held = |r: &&ObjRecord| !matches!(r.life(), Life::Deleting { .. });
        self.objects.values().filter(held).count()
    }

    /// Jurisdiction storage statistics: `(files, bytes)`.
    pub fn storage_usage(&self) -> (usize, u64) {
        (self.storage.file_count(), self.storage.used())
    }

    // ----- helpers ---------------------------------------------------------

    fn host(&mut self, loid: &Loid) -> Option<&mut HostRecord> {
        self.hosts.iter_mut().find(|h| h.loid == *loid)
    }

    fn host_element(&self, loid: &Loid) -> Option<ObjectAddressElement> {
        self.hosts
            .iter()
            .find(|h| h.loid == *loid)
            .map(|h| h.element)
    }

    /// Table maintenance for the class (§3.7), one way: the Magistrate
    /// never read the acknowledgement.
    fn notify_class(&self, ctx: &mut Ctx<'_>, loid: Loid, notice: Notice) {
        let record = self.objects.get(&loid);
        let Some((record, addr)) = record.and_then(|r| Some((r, r.class_addr?))) else {
            return;
        };
        let me = self.cfg.loid;
        let (method, value) = match notice {
            Notice::SetAddress(Some(e)) => (
                class_proto::SET_ADDRESS,
                LegionValue::Address(ObjectAddress::single(e)),
            ),
            Notice::SetAddress(None) => (class_proto::SET_ADDRESS, LegionValue::Void),
            Notice::AddMagistrate => (class_proto::ADD_MAGISTRATE, LegionValue::Loid(me)),
            Notice::RemoveMagistrate => (class_proto::REMOVE_MAGISTRATE, LegionValue::Loid(me)),
        };
        let args = ctx.args([LegionValue::Loid(loid), value]);
        let env = InvocationEnv::solo(me);
        ctx.notify(addr, record.class, method, args, env, Some(me));
    }

    /// Kill the process `host` started for `loid` that no record refers
    /// to (§2.3: "a Host Object is responsible for ... reaping objects").
    fn reap_orphan(&mut self, ctx: &mut Ctx<'_>, loid: Loid, host: Loid) {
        ctx.count(symbol::MAGISTRATE_ORPHAN_REAPED);
        if let Some(host_element) = self.host_element(&host) {
            let (me, args) = (self.cfg.loid, ctx.args([LegionValue::Loid(loid)]));
            let env = InvocationEnv::solo(me);
            ctx.notify(
                host_element,
                host,
                host_proto::DEACTIVATE,
                args,
                env,
                Some(me),
            );
        }
    }

    /// Call `HostDeactivate(loid)` on `host`, parking `wait`: `None` for a
    /// host not registered here, `Some(false)` when the send is refused.
    fn kill(&mut self, ctx: &mut Ctx<'_>, loid: Loid, host: Loid, wait: Wait) -> Option<bool> {
        let host_element = self.host_element(&host)?;
        let args = ctx.args([LegionValue::Loid(loid)]);
        let method = host_proto::DEACTIVATE;
        Some(self.calls.call(ctx, host_element, host, method, args, wait))
    }

    /// The objects whose life `pick` takes, in LOID order (deterministic,
    /// whatever the map's order).
    fn loids(&self, pick: impl Fn(&Life) -> bool) -> Vec<Loid> {
        let picked = self.objects.iter().filter(|(_, r)| pick(r.life()));
        let mut loids: Vec<Loid> = picked.map(|(l, _)| *l).collect();
        loids.sort();
        loids
    }

    /// The text a [`Why`] stands for.
    fn render(&self, loid: Loid, why: Why<'_>) -> String {
        match why {
            Why::NotManaged => format!("{loid} not managed here"),
            Why::NotManagedBy => format!("{loid} not managed by {}", self.cfg.loid),
            Why::AlreadyManaged => format!("{loid} already managed here"),
            Why::RemovedDuringActivation => format!("{loid} was removed during activation"),
            Why::RemovedDuringDeactivation => format!("{loid} was removed during deactivation"),
            Why::SaveStateUnreachable => format!("{loid} unreachable for SaveState"),
            Why::NoHost => "no host with free capacity".into(),
            Why::EmptyAddress => "host returned empty address".into(),
            Why::UnknownHost(host) => format!("unknown host {host}"),
            Why::HostUnreachable(host) => format!("host {host} unreachable"),
            Why::PeerUnreachable(peer) => format!("magistrate {peer} unreachable"),
            Why::HostRefused(e) => format!("host refused: {e}"),
            Why::SaveStateFailed(e) => format!("SaveState failed: {e}"),
            Why::HostDeactivateFailed(e) => format!("host deactivate failed: {e}"),
            Why::ShipFailed(e) => format!("ship failed: {e}"),
            Why::UnexpectedHostReply(v) => format!("unexpected host reply {v}"),
            Why::UnexpectedSaveStateReply(v) => format!("unexpected SaveState reply {v}"),
            Why::OprLoadFailed(e) => format!("OPR load failed: {e}"),
            Why::OprReloadFailed(e) => format!("OPR reload failed: {e}"),
            Why::OprStoreFailed(e) => format!("OPR store failed: {e}"),
            Why::ReadOprFailed(e) => format!("read OPR failed: {e}"),
        }
    }

    // ----- failure detection and recovery -----------------------------------

    /// A Host Object reported in. Fire-and-forget: no reply.
    fn handle_heartbeat(&mut self, ctx: &mut Ctx<'_>, host: Loid) {
        ctx.count(symbol::MAGISTRATE_HEARTBEATS);
        let Some(ha) = &mut self.ha else {
            return;
        };
        let Some(transition) = ha.detector.heartbeat(host, ctx.now()) else {
            return;
        };
        // A Suspect (or, with message loss, even Dead) host turned out to
        // be alive: re-admit it to placement. Its objects may already
        // have been re-homed elsewhere — the class's address row points at
        // the recovered copies, so any survivors on the resurrected host
        // are unreferenced orphans awaiting the §2.3 reap.
        if transition.from == Health::Dead {
            ha.tracker.false_positive();
            ctx.count(symbol::MAGISTRATE_HA_FALSE_POSITIVE);
            ctx.trace_note("ha.false_positive");
            ctx.flight(RecordKind::HaVerdict, symbol::HA_FALSE_POSITIVE, 0);
            for loid in self.loids(|_| true) {
                self.drive(ctx, loid, LifeEvent::HostBack(host));
            }
        }
        if let Some(h) = self.host(&host) {
            h.alive = true;
        }
    }

    /// Periodic detector sweep: classify every monitored host, recover
    /// the objects of any host newly confirmed Dead.
    fn ha_sweep(&mut self, ctx: &mut Ctx<'_>) {
        let Some(ha) = &mut self.ha else {
            return;
        };
        let now = ctx.now();
        let transitions = ha.detector.sweep(now);
        let sweep_interval = ha.sweep_interval_ns;
        let horizon = ha.horizon_ns;
        for t in transitions {
            match t.to {
                Health::Suspect => {
                    ctx.count(symbol::MAGISTRATE_HA_SUSPECT);
                    ctx.flight(RecordKind::HaVerdict, symbol::HA_SUSPECT, t.silence_ns);
                }
                Health::Dead => self.recover_host(ctx, t.host, t.silence_ns),
                Health::Alive => {}
            }
        }
        if now.0.saturating_add(sweep_interval) <= horizon {
            ctx.set_timer(sweep_interval, TIMER_HA_SWEEP);
        }
    }

    /// A host is confirmed dead: re-activate everything it was running
    /// from the vault OPRs, on surviving hosts.
    fn recover_host(&mut self, ctx: &mut Ctx<'_>, host: Loid, silence_ns: u64) {
        ctx.count(symbol::MAGISTRATE_HA_HOST_DEAD);
        ctx.flight(RecordKind::HaVerdict, symbol::HA_HOST_DEAD, silence_ns);
        if let Some(h) = self.host(&host) {
            h.alive = false;
        }
        if let Some(ha) = &mut self.ha {
            ha.tracker.host_dead(silence_ns);
        }
        // Root span for this host's recovery: the HostActivate calls made
        // below inherit it, so their replies (and the completion notes of
        // `Effect::Conclude`) stay causally linked to the verdict. The
        // labels are rendered only when a sink is actually attached.
        if ctx.tracing_enabled() {
            ctx.trace_begin(&format!("ha.recovery:{host}"));
            ctx.trace_note(&format!("ha.detected:silence={silence_ns}ns"));
        }
        let on_host = |life: &Life| match life {
            Life::Active { host: h, .. } | Life::Deactivating { host: h, .. } => *h == host,
            _ => false,
        };
        for loid in self.loids(on_host) {
            // Duplicated or replayed recovery triggers (a flapping
            // detector, a duplicated host-dead verdict) must not
            // re-activate an object whose recovery is already in flight:
            // exactly one activation per LOID per incident.
            let ha = self.ha.as_ref();
            if ha.is_some_and(|ha| ha.tracker.recovering(&loid)) {
                ctx.count(symbol::MAGISTRATE_HA_DUPLICATE_TRIGGER);
                continue;
            }
            self.drive(ctx, loid, LifeEvent::HostDead(host));
        }
        ctx.trace_end("ha.recovery-dispatched");
    }

    // ----- the lifecycle adapter ---------------------------------------------

    /// A request about `loid`: its row answers it, now or later.
    fn request(&mut self, ctx: &mut Ctx<'_>, loid: Loid, ev: LifeEvent<'_>) -> Outcome {
        self.drive(ctx, loid, ev);
        Outcome::Pending
    }

    /// A request about `loid` that carries nothing but its reply ticket.
    fn ask(&mut self, ctx: &mut Ctx<'_>, msg: &Message, loid: Loid, ev: Ask) -> Outcome {
        self.request(ctx, loid, ev(msg.reply_ticket()))
    }

    /// Step `loid`'s record with `ev` and perform the row's effects, in
    /// order. An object with no record here steps from [`Life::GONE`]; a
    /// record left gone with nothing parked on it is forgotten.
    fn drive(&mut self, ctx: &mut Ctx<'_>, loid: Loid, ev: LifeEvent) {
        let (effects, gone) = match self.objects.get_mut(&loid) {
            Some(record) => (record.step(&ev), *record.life() == Life::GONE),
            None => (lifecycle::step(&Life::GONE, &ev).1, false),
        };
        for effect in effects.iter() {
            self.perform(ctx, loid, &ev, effect);
        }
        if gone && self.objects.get(&loid).is_some_and(|r| r.parked.is_none()) {
            self.objects.remove(&loid);
        }
        self.saved = None;
    }

    /// The record of an object a row found held here.
    fn record(&mut self, loid: Loid) -> &mut ObjRecord {
        self.objects
            .get_mut(&loid)
            .expect("a row's object has a record")
    }

    fn perform(&mut self, ctx: &mut Ctx<'_>, loid: Loid, ev: &LifeEvent, fx: &Effect) {
        use LifeEvent as V;
        match *fx {
            Effect::Count(counter) => ctx.count(counter),
            Effect::Note(note) => ctx.trace_note(note),
            Effect::Reply(answer) => {
                let value = match answer {
                    Some(e) => ctx.binding_value(&Binding::forever(loid, ObjectAddress::single(e))),
                    None => LegionValue::Void,
                };
                _ = ev.requester().map(|to| ctx.reply_ticket(to, Ok(value)));
            }
            Effect::Refuse(why) => {
                let to = ev.requester().expect("a refused request");
                ctx.reply_ticket(to, Err(self.render(loid, why)));
            }
            Effect::Park => {
                let waiter = match *ev {
                    V::Copy(to, mv, requester) => Waiter::Ship(to, mv, requester),
                    _ => Waiter::Activate(ev.requester().expect("a parked request")),
                };
                park(&mut self.record(loid).parked, waiter);
            }
            // The single point every activation — including a crash
            // recovery — ends at, so the HA bookkeeping hooks in here;
            // then every parked `Activate` is answered.
            Effect::Conclude(result) => {
                let result = match result {
                    Ok(element) => Ok(Binding::forever(loid, ObjectAddress::single(element))),
                    Err(why) => Err(self.render(loid, why)),
                };
                let me = self.cfg.loid;
                if let Some(ha) = self.ha.as_mut().filter(|ha| ha.tracker.recovering(&loid)) {
                    match &result {
                        Ok(b) => {
                            ha.tracker.object_recovered(&loid, ctx.now());
                            ctx.count(symbol::MAGISTRATE_HA_RECOVERED);
                            ctx.trace_note("ha.object_recovered");
                            // Push the fresh binding down the agent tree so
                            // clients stop chasing the dead address
                            // (§4.1.4's "explicitly propagating news").
                            stale::propagate_binding(ctx, me, &ha.agents, b);
                        }
                        Err(_) => {
                            ha.tracker.object_lost(&loid);
                            ctx.count(symbol::MAGISTRATE_HA_OBJECT_LOST);
                            ctx.trace_note("ha.object_lost");
                        }
                    }
                }
                for waiter in self.unpark(loid, false).into_iter().flatten() {
                    let (Waiter::Activate(to) | Waiter::Ship(.., to)) = waiter;
                    let payload = result.as_ref().map(|b| ctx.binding_value(b));
                    ctx.reply_ticket(to, payload.map_err(String::clone));
                }
            }
            Effect::FailDeactivation(why) => {
                let why = self.render(loid, why);
                let ships = self.unpark(loid, true).into_iter().flatten();
                for waiter in ev
                    .requester()
                    .into_iter()
                    .map(Waiter::Activate)
                    .chain(ships)
                {
                    let (Waiter::Activate(to) | Waiter::Ship(.., to)) = waiter;
                    ctx.reply_ticket(to, Err(why.clone()));
                }
            }
            // Load the OPR, place a host and send `HostActivate`; a failure
            // is the object's next event.
            Effect::HostActivate(addr, attempts) => {
                let opr = match self.storage.load_opr(&addr) {
                    Ok(opr) => opr,
                    Err(e) => return self.drive(ctx, loid, V::Unreadable(attempts, &e)),
                };
                let hint = match *ev {
                    V::Activate(_, hint) => hint,
                    _ => None,
                };
                let Some((host, host_element)) =
                    place(&self.hosts, hint).map(|h| (h.loid, h.element))
                else {
                    return self.drive(ctx, loid, V::NoHost);
                };
                let record = self.record(loid);
                let spec = ActivationSpec {
                    loid,
                    class: record.class,
                    state: opr.state,
                    class_addr: record.class_addr,
                    magistrate_addr: Some(ctx.self_element()),
                };
                let args = ctx.args(spec.into_args());
                let wait = Wait(loid, Pending::HostActivate(host, attempts));
                let method = host_proto::ACTIVATE;
                if !self.calls.call(ctx, host_element, host, method, args, wait) {
                    // The Host Object is dead (§2.3's "reaping" case): skip
                    // it for placements until it is heard from again.
                    ctx.count(symbol::MAGISTRATE_HOST_DEAD);
                    self.host(&host).expect("placed").alive = false;
                    self.drive(ctx, loid, V::HostDown(host, attempts));
                }
            }
            Effect::SaveState(element, answers) => {
                let requester = ev.requester().filter(|_| answers);
                let wait = Wait(loid, Pending::SaveState(requester));
                let method = obj_methods::SAVE_STATE;
                if !self.calls.call(ctx, element, loid, method, vec![], wait) {
                    let ev = V::DeactivationFailed(requester, Why::SaveStateUnreachable);
                    self.drive(ctx, loid, ev);
                }
            }
            // Store the saved state as the object's fresh OPR, then kill.
            Effect::HostDeactivate(host) => {
                let state = self.saved.take().expect("the saved state");
                let opr = Opr::new(loid, self.record(loid).class, 0, state);
                let requester = ev.requester();
                let failed = |why| V::DeactivationFailed(requester, why);
                let addr = match self.storage.store_opr(&opr) {
                    Ok(addr) => addr,
                    Err(e) => return self.drive(ctx, loid, failed(Why::OprStoreFailed(&e))),
                };
                let wait = Wait(loid, Pending::HostDeactivate(requester, addr));
                match self.kill(ctx, loid, host, wait) {
                    None => self.drive(ctx, loid, failed(Why::UnknownHost(host))),
                    Some(false) => self.drive(ctx, loid, failed(Why::HostUnreachable(host))),
                    Some(true) => {}
                }
            }
            Effect::Kill(host) => {
                let requester = ev.requester().expect("a Delete");
                match self.kill(ctx, loid, host, Wait(loid, Pending::Delete(requester))) {
                    None => _ = ctx.reply_ticket(requester, Err(format!("unknown host {host}"))),
                    // Host gone: drop the record anyway.
                    Some(false) => self.drive(ctx, loid, V::Deleted(requester)),
                    Some(true) => {}
                }
            }
            Effect::Reap(host) => self.reap_orphan(ctx, loid, host),
            Effect::Ship(addr) => {
                for waiter in self.unpark(loid, true).into_iter().flatten() {
                    self.ship(ctx, loid, addr, waiter);
                }
                if let V::Copy(to, delete_after, requester) = *ev {
                    self.ship(ctx, loid, addr, Waiter::Ship(to, delete_after, requester));
                }
            }
            Effect::NotifyClass(notice) => self.notify_class(ctx, loid, notice),
            Effect::Drop(addr) => {
                if let Ok(Some(freed)) = self.storage.delete(&addr) {
                    ctx.recycle_bytes(freed);
                }
            }
            Effect::Slots(host, delta) => {
                if let Some(h) = self.host(&host) {
                    h.assigned = (h.assigned as i64 + delta).max(0) as u32;
                }
            }
            Effect::Recover => {
                if let Some(ha) = &mut self.ha {
                    ha.tracker.begin_object(loid, ctx.now());
                }
                ctx.flight(
                    RecordKind::HaVerdict,
                    symbol::HA_RECOVERED,
                    loid.class_specific,
                );
                // The old binding is now stale everywhere. Clearing the
                // class's address row (the row's next effect) makes the
                // class tell the agents it answered; the agents walked
                // here are the ones this Magistrate *pushed* a binding to
                // after an earlier recovery, which the class never handed
                // out and so cannot know about.
                let agents = self.ha.as_ref().map_or(&[][..], |ha| &ha.agents);
                stale::propagate_invalidation(ctx, self.cfg.loid, agents, loid);
            }
        }
    }

    /// Take the requests parked on `loid` that are ships (or, with
    /// `ships` false, Activates), in arrival order; the others stay.
    fn unpark(&mut self, loid: Loid, ships: bool) -> Option<Parked<Waiter>> {
        let slot = &mut self.objects.get_mut(&loid)?.parked;
        slot.as_ref()?;
        let parked = slot.take()?;
        let kind = |w: &Waiter| matches!(w, Waiter::Ship(..)) == ships;
        if parked.iter().all(kind) {
            return Some(parked);
        }
        let mut out = None;
        for waiter in parked {
            park(if kind(&waiter) { &mut out } else { &mut *slot }, waiter);
        }
        out
    }

    /// Ship the OPR at `addr` to the peer a Copy/Move names (its decoder
    /// refused a peer not registered here); the reply wakes
    /// [`Pending::Ship`].
    fn ship(&mut self, ctx: &mut Ctx<'_>, loid: Loid, addr: PersistentAddress, waiter: Waiter) {
        let Waiter::Ship(to, delete_after, requester) = waiter else {
            return;
        };
        let bytes = match self.storage.read(&addr) {
            Ok(stored) => {
                let mut bytes = ctx.take_bytes();
                bytes.extend_from_slice(stored);
                bytes
            }
            Err(e) => {
                let ev = LifeEvent::ShipFailed(requester, Why::ReadOprFailed(&e));
                return self.drive(ctx, loid, ev);
            }
        };
        let record = self.record(loid);
        let class_addr = match record.class_addr {
            Some(e) => LegionValue::Address(ObjectAddress::single(e)),
            None => LegionValue::Void,
        };
        let class = LegionValue::Loid(record.class);
        let args = ctx.args([
            LegionValue::Loid(loid),
            class,
            LegionValue::Bytes(bytes),
            class_addr,
        ]);
        let wait = Wait(loid, Pending::Ship(requester, delete_after));
        let at = *self.peers.get(&to).expect("a peer the decoder checked");
        let ev = if self
            .calls
            .call(ctx, at, to, mag_proto::RECEIVE_OPR, args, wait)
        {
            LifeEvent::Sent(to, delete_after)
        } else {
            LifeEvent::ShipFailed(requester, Why::PeerUnreachable(to))
        };
        self.drive(ctx, loid, ev);
    }

    // ----- request decoders --------------------------------------------------

    fn copy(&mut self, ctx: &mut Ctx<'_>, msg: &Message, ids: (Loid, Loid), mv: bool) -> Outcome {
        let (loid, to) = ids;
        if !self.peers.contains_key(&to) {
            return Outcome::Reply(Err(format!("unknown peer magistrate {to}")));
        }
        self.request(ctx, loid, LifeEvent::Copy(to, mv, msg.reply_ticket()))
    }

    /// Hold a record of `loid`, an object of `class` (at `class_addr`),
    /// for a request that brought its OPR.
    fn hold(&mut self, loid: Loid, class: Loid, class_addr: Option<ObjectAddressElement>) {
        let record = self.objects.entry(loid);
        let record = record.or_insert_with(|| ObjRecord::new(class, class_addr));
        (record.class, record.class_addr) = (class, class_addr);
    }

    fn create(&mut self, ctx: &mut Ctx<'_>, msg: &Message, spec: ActivationSpec) -> Outcome {
        let opr = Opr::new(spec.loid, spec.class, 0, spec.state);
        let addr = match self.storage.store_opr(&opr) {
            Ok(addr) => addr,
            Err(e) => return Outcome::Reply(Err(format!("initial OPR store failed: {e}"))),
        };
        self.hold(spec.loid, spec.class, spec.class_addr);
        self.request(ctx, spec.loid, LifeEvent::Create(msg.reply_ticket(), addr))
    }

    fn receive_opr(&mut self, ctx: &mut Ctx<'_>, msg: &Message, args: ReceiveOprArgs) -> Outcome {
        let (loid, class, class_addr) = (args.loid, args.class, args.class_addr);
        // Validate before storing: a corrupt OPR is refused here, not at
        // some future activation.
        if let Err(e) = Opr::verify(&args.opr) {
            ctx.count(symbol::MAGISTRATE_RECEIVE_CORRUPT);
            return Outcome::Reply(Err(format!("refused corrupt OPR: {e}")));
        }
        let addr = self.storage.reserve_address(&loid);
        if let Err(e) = self.storage.store_at(&addr, args.opr) {
            return Outcome::Reply(Err(format!("store failed: {e}")));
        }
        ctx.count(symbol::MAGISTRATE_RECEIVED_OPRS);
        self.hold(loid, class, class_addr);
        self.request(ctx, loid, LifeEvent::ReceiveOpr(msg.reply_ticket(), addr))
    }
}

impl Caller for MagistrateEndpoint {
    type Wait = Wait;

    fn calls(&mut self) -> &mut Calls<Wait> {
        &mut self.calls
    }

    /// A reply, or a timeout, becomes the object's next event.
    fn wake(&mut self, ctx: &mut Ctx<'_>, wait: Wait, result: Result<LegionValue, String>) {
        use LifeEvent as V;
        let Wait(loid, pending) = wait;
        let ev = match (pending, &result) {
            (Pending::HostActivate(host, _), Ok(LegionValue::Address(addr))) => {
                match addr.primary() {
                    Some(&element) => V::Activated(host, element, self.ha.is_some()),
                    None => V::ActivationFailed(Why::EmptyAddress),
                }
            }
            (Pending::HostActivate(..), Ok(v)) => V::ActivationFailed(Why::UnexpectedHostReply(v)),
            (Pending::HostActivate(_, attempts), Err(e)) => V::HostRefused(attempts, e),
            (Pending::SaveState(to), Ok(LegionValue::Bytes(_))) => {
                let Ok(LegionValue::Bytes(state)) = result else {
                    unreachable!("a saved state, matched above");
                };
                self.saved = Some(state);
                V::Saved(to)
            }
            (Pending::SaveState(to), Ok(v)) => {
                V::DeactivationFailed(to, Why::UnexpectedSaveStateReply(v))
            }
            (Pending::SaveState(to), Err(e)) => V::DeactivationFailed(to, Why::SaveStateFailed(e)),
            (Pending::HostDeactivate(to, addr), Ok(_)) => V::Killed(to, addr),
            (Pending::HostDeactivate(to, addr), Err(e)) => V::KillFailed(to, addr, e),
            (Pending::Delete(to), _) => V::Deleted(to),
            (Pending::Ship(to, delete_after), Ok(_)) => V::Shipped(to, delete_after),
            (Pending::Ship(to, _), Err(e)) => V::ShipFailed(to, Why::ShipFailed(e)),
        };
        self.drive(ctx, loid, ev);
    }
}

impl Endpoint for MagistrateEndpoint {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // §4.2.1: Magistrates are started outside Legion and contact their
        // class on start.
        if let Some(class) = self.cfg.class_addr {
            let me = self.cfg.loid;
            let args = ctx.args([
                LegionValue::Loid(me),
                LegionValue::Address(ObjectAddress::single(ctx.self_element())),
            ]);
            ctx.notify(
                class,
                me.class_loid(),
                class_proto::ANNOUNCE,
                args,
                InvocationEnv::solo(me),
                Some(me),
            );
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if tag == TIMER_HA_SWEEP {
            self.ha_sweep(ctx);
        } else {
            tick(self, ctx, tag);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        // A reply nothing waits for answers a call that timed out.
        let Some(msg) = resume(self, ctx, msg).filter(|m| !m.is_reply()) else {
            return;
        };
        let table = Rc::clone(&self.table);
        serve(&table, self, ctx, msg);
    }
}

#[cfg(test)]
mod ha_duplication_tests {
    use super::*;
    use legion_core::time::SimTime;
    use legion_ha::policy::MissThreshold;
    use legion_net::sim::SimKernel;
    use legion_net::topology::Location;

    /// A duplicated or replayed host-dead verdict (flapping detector,
    /// duplicated verdict message) must not start a second activation for
    /// an object whose recovery is already in flight: the tracker guard
    /// counts `magistrate.ha_duplicate_trigger` and starts nothing —
    /// exactly one activation per LOID per incident.
    #[test]
    fn duplicated_dead_verdict_starts_no_second_activation() {
        let mut k = SimKernel::with_seed(7);
        let mag_loid = Loid::instance(4, 1);
        let host_loid = Loid::instance(5, 1);
        let obj_loid = Loid::instance(6, 1);
        let mut mag = MagistrateEndpoint::new(MagistrateConfig {
            loid: mag_loid,
            jurisdiction: 0,
            class_addr: None,
            disks: 1,
            disk_capacity: 1 << 20,
        });
        mag.hosts.push(HostRecord {
            loid: host_loid,
            element: ObjectAddressElement::sim(99),
            capacity: 4,
            assigned: 1,
            alive: true,
        });
        let life = Life::Active {
            host: host_loid,
            element: ObjectAddressElement::sim(98),
            vault: None,
        };
        let record = ObjRecord::at(Loid::class_object(16), life);
        mag.objects.insert(obj_loid, record);
        mag.enable_ha(
            Box::new(MissThreshold {
                suspect_after: 2,
                dead_after: 4,
            }),
            1_000_000,
            1_000_000,
            20_000_000,
            Vec::new(),
            SimTime::ZERO,
        );
        // An earlier Dead verdict already put this object's recovery in
        // flight; the silent host below re-confirms Dead (the duplicated
        // trigger) and must be absorbed by the guard.
        mag.ha
            .as_mut()
            .expect("ha enabled")
            .tracker
            .begin_object(obj_loid, SimTime::ZERO);
        let ep = k.add_endpoint(Box::new(mag), Location::new(0, 0), "magistrate");
        k.set_timer(ep, 1_000_000, TIMER_HA_SWEEP);
        k.run_until_quiescent(10_000);
        assert_eq!(k.counters().get("magistrate.ha_host_dead"), 1);
        assert_eq!(k.counters().get("magistrate.ha_duplicate_trigger"), 1);
        assert_eq!(
            k.counters().get("magistrate.ha_recoveries"),
            0,
            "the in-flight recovery must not be restarted"
        );
    }

    /// Answers each `HostActivate` 5 ms late, so a request can reach the
    /// Magistrate while the activation is in flight.
    #[derive(Default)]
    struct SlowHost {
        activations: u32,
        parked: Vec<ReplyTicket>,
    }

    const SLOW_HOST_PROCESS: u64 = 77;

    impl Endpoint for SlowHost {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            if msg.method_sym() == Some(host_proto::ACTIVATE) {
                self.activations += 1;
                self.parked.push(msg.reply_ticket());
                ctx.set_timer(5_000_000, 0);
            } else {
                ctx.reply(&msg, Ok(LegionValue::Void));
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
            let process = ObjectAddress::single(ObjectAddressElement::sim(SLOW_HOST_PROCESS));
            for ticket in self.parked.drain(..) {
                ctx.reply_ticket(ticket, Ok(LegionValue::Address(process.clone())));
            }
        }
    }

    #[derive(Default)]
    struct Asker {
        replies: Vec<Result<LegionValue, String>>,
    }

    impl Endpoint for Asker {
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, msg: Message) {
            if let legion_net::message::Body::Reply { result, .. } = msg.body {
                self.replies.push(result);
            }
        }
    }

    /// An activation in flight is one fact however it started: an
    /// `Activate` that reaches the Magistrate while a crash recovery's
    /// `HostActivate` is out joins that recovery — no second
    /// `HostActivate`, no second process, and the answer is the recovered
    /// binding with the vault checkpoint still on record.
    #[test]
    fn activate_during_recovery_joins_it() {
        let mut k = SimKernel::with_seed(7);
        let mag_loid = Loid::instance(4, 1);
        let dead_host = Loid::instance(5, 1);
        let live_host = Loid::instance(5, 2);
        let obj_loid = Loid::instance(6, 1);
        let class = Loid::class_object(16);
        let mut mag = MagistrateEndpoint::new(MagistrateConfig {
            loid: mag_loid,
            jurisdiction: 0,
            class_addr: None,
            disks: 1,
            disk_capacity: 1 << 20,
        });
        let vault = mag
            .storage
            .store_opr(&Opr::new(obj_loid, class, 0, vec![1, 2, 3]))
            .expect("room for the checkpoint");
        mag.add_host(dead_host, ObjectAddressElement::sim(99), 4);
        let life = Life::Active {
            host: dead_host,
            element: ObjectAddressElement::sim(98),
            vault: Some(vault),
        };
        mag.objects.insert(obj_loid, ObjRecord::at(class, life));
        // Only the host that will fall silent is monitored; the survivor
        // joins after, so the detector never judges it.
        mag.enable_ha(
            Box::new(MissThreshold {
                suspect_after: 2,
                dead_after: 4,
            }),
            1_000_000,
            1_000_000,
            20_000_000,
            Vec::new(),
            SimTime::ZERO,
        );
        let slow = k.add_endpoint(Box::<SlowHost>::default(), Location::new(0, 1), "slow-host");
        mag.add_host(live_host, slow.element(), 4);
        let ep = k.add_endpoint(Box::new(mag), Location::new(0, 0), "magistrate");
        let asker = k.add_endpoint(Box::<Asker>::default(), Location::new(0, 2), "asker");
        k.set_timer(ep, 1_000_000, TIMER_HA_SWEEP);
        while k.counters().get("magistrate.ha_recoveries") == 0 {
            assert!(k.step(), "the silent host is never declared dead");
        }
        // Let the recovery's HostActivate reach the host, then ask.
        k.run_until(SimTime(k.now().0 + 1_000_000));
        assert_eq!(k.endpoint::<SlowHost>(slow).unwrap().activations, 1);
        let mut ask = Message::call(
            k.fresh_call_id(),
            mag_loid,
            mag_proto::ACTIVATE,
            vec![LegionValue::Loid(obj_loid)],
            InvocationEnv::solo(class),
        );
        ask.reply_to = Some(asker.element());
        ask.sender = Some(class);
        assert!(k.inject(Location::new(0, 2), ep.element(), ask));
        k.run_until_quiescent(10_000);

        assert_eq!(
            k.endpoint::<SlowHost>(slow).unwrap().activations,
            1,
            "the request joined the recovery instead of starting a second activation"
        );
        let recovered = Binding::forever(
            obj_loid,
            ObjectAddress::single(ObjectAddressElement::sim(SLOW_HOST_PROCESS)),
        );
        assert_eq!(
            k.endpoint::<Asker>(asker).unwrap().replies,
            [Ok(LegionValue::from(recovered))]
        );
        let mag = k.endpoint::<MagistrateEndpoint>(ep).unwrap();
        assert!(
            matches!(
                mag.object_state(&obj_loid),
                Some(Life::Active { host, vault: Some(_), .. }) if *host == live_host
            ),
            "{:?}",
            mag.object_state(&obj_loid)
        );
        assert_eq!(k.counters().get("magistrate.ha_recovered"), 1);
        assert_eq!(k.counters().get("magistrate.orphan_reaped"), 0);
    }
}

#[cfg(test)]
mod move_path_tests {
    use super::*;
    use legion_core::symbol::Sym;
    use legion_net::message::Body;
    use legion_net::sim::{EndpointId, SimKernel};
    use legion_net::topology::Location;

    const MAG: Loid = Loid::instance(4, 1);
    const PEER: Loid = Loid::instance(4, 2);
    const HOST: Loid = Loid::instance(3, 1);
    pub(super) const OBJ: Loid = Loid::instance(16, 1);
    /// Longer than any request's round trips to the stub, which sits
    /// across the wide area (40–60 ms a hop).
    const HOLD_NS: u64 = 1_000_000_000;

    /// Plays the object, its host and the peer Magistrate at once, and
    /// asks for the migration: logs every call it is sent, answers each as
    /// the callee would, and keeps the replies it gets. The first call of
    /// the method `hold` names is answered [`HOLD_NS`] late, so a request
    /// can reach the Magistrate while that step is in flight.
    #[derive(Default)]
    pub(super) struct Stub {
        pub(super) calls: Vec<Sym>,
        pub(super) replies: Vec<Result<LegionValue, String>>,
        pub(super) hold: Option<Sym>,
        held: Option<(ReplyTicket, LegionValue)>,
    }

    impl Endpoint for Stub {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            let Some(method) = msg.method_sym() else {
                if let Body::Reply { result, .. } = msg.body {
                    self.replies.push(result);
                }
                return;
            };
            self.calls.push(method);
            let answer = if method == symbol::SAVE_STATE {
                LegionValue::Bytes(vec![7, 7])
            } else if method == host_proto::ACTIVATE {
                LegionValue::Address(ObjectAddress::single(ctx.self_element()))
            } else {
                LegionValue::Void
            };
            if self.hold.take_if(|held| *held == method).is_some() {
                self.held = Some((msg.reply_ticket(), answer));
                ctx.set_timer(HOLD_NS, 0);
            } else {
                ctx.reply(&msg, Ok(answer));
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
            if let Some((ticket, answer)) = self.held.take() {
                ctx.reply_ticket(ticket, Ok(answer));
            }
        }
    }

    /// A Magistrate holding `OBJ`, Active (on the stub) or Inert, and the
    /// stub, settled.
    pub(super) fn world(active: bool) -> (SimKernel, EndpointId, EndpointId) {
        let mut k = SimKernel::with_seed(7);
        let stub = k.add_endpoint(Box::<Stub>::default(), Location::new(1, 0), "stub");
        let mut mag = MagistrateEndpoint::new(MagistrateConfig {
            loid: MAG,
            jurisdiction: 0,
            class_addr: None,
            disks: 1,
            disk_capacity: 1 << 20,
        });
        mag.add_host(HOST, stub.element(), 4);
        mag.add_peer(PEER, stub.element());
        let class = Loid::class_object(16);
        let life = if active {
            mag.host(&HOST).expect("added above").assigned = 1;
            Life::Active {
                host: HOST,
                element: stub.element(),
                vault: None,
            }
        } else {
            let opr = Opr::new(OBJ, class, 0, vec![1, 2, 3]);
            let addr = mag.storage.store_opr(&opr).expect("room");
            Life::Inert { addr }
        };
        mag.objects.insert(OBJ, ObjRecord::at(class, life));
        let mag = k.add_endpoint(Box::new(mag), Location::new(0, 0), "magistrate");
        k.run_until_quiescent(100);
        (k, mag, stub)
    }

    /// The stub sends `method` about `OBJ` to the Magistrate, with the
    /// arguments that method takes.
    pub(super) fn send(k: &mut SimKernel, mag: EndpointId, stub: EndpointId, method: Sym) {
        let class = Loid::class_object(16);
        let args = if method == mag_proto::COPY || method == mag_proto::MOVE {
            vec![LegionValue::Loid(OBJ), LegionValue::Loid(PEER)]
        } else if method == mag_proto::RECEIVE_OPR {
            let opr = Opr::new(OBJ, class, 0, vec![9]).encode();
            let opr = LegionValue::Bytes(opr.to_vec());
            vec![
                LegionValue::Loid(OBJ),
                LegionValue::Loid(class),
                opr,
                LegionValue::Void,
            ]
        } else if method == mag_proto::CREATE_OBJECT {
            let spec = ActivationSpec {
                loid: OBJ,
                class,
                state: vec![5],
                class_addr: None,
                magistrate_addr: None,
            };
            spec.into_args().into()
        } else {
            vec![LegionValue::Loid(OBJ)]
        };
        let mut msg = Message::call(
            k.fresh_call_id(),
            MAG,
            method,
            args,
            InvocationEnv::solo(PEER),
        );
        msg.reply_to = Some(stub.element());
        msg.sender = Some(PEER);
        assert!(k.inject(Location::new(1, 0), mag.element(), msg));
    }

    /// The stub asks for `method` (Copy or Move to the peer); the step
    /// that delivers the request is taken, and what the Magistrate then
    /// has parked behind a deactivation is returned.
    fn ask(k: &mut SimKernel, mag: EndpointId, stub: EndpointId, method: Sym) -> usize {
        send(k, mag, stub, method);
        assert!(k.step(), "the request is delivered");
        let m = k.endpoint::<MagistrateEndpoint>(mag).unwrap();
        parked(m, true)
    }

    /// How many requests of one kind (ships, or Activates) are parked on
    /// `OBJ`.
    pub(super) fn parked(m: &MagistrateEndpoint, ships: bool) -> usize {
        let record = m.objects.get(&OBJ);
        let parked = record.and_then(|r| r.parked.as_ref());
        parked
            .into_iter()
            .flat_map(Parked::iter)
            .filter(|w| matches!(w, Waiter::Ship(..)) == ships)
            .count()
    }

    fn stub(k: &SimKernel, stub: EndpointId) -> &Stub {
        k.endpoint::<Stub>(stub).unwrap()
    }

    #[test]
    fn an_inert_object_ships_at_once() {
        let (mut k, mag, peer) = world(false);
        assert_eq!(ask(&mut k, mag, peer, mag_proto::MOVE), 0, "nothing parked");
        k.run_until_quiescent(100);
        assert_eq!(stub(&k, peer).calls, [mag_proto::RECEIVE_OPR]);
        assert_eq!(stub(&k, peer).replies, [Ok(LegionValue::Void)]);
        let m = k.endpoint::<MagistrateEndpoint>(mag).unwrap();
        assert_eq!(parked(m, true), 0);
        assert_eq!(m.object_state(&OBJ), None, "moved away");
        assert_eq!(m.storage_usage().0, 0, "and its OPR with it");
    }

    #[test]
    fn an_active_object_is_deactivated_then_shipped() {
        let (mut k, mag, peer) = world(true);
        assert_eq!(ask(&mut k, mag, peer, mag_proto::MOVE), 1, "parked");
        k.run_until_quiescent(100);
        assert_eq!(
            stub(&k, peer).calls,
            [
                symbol::SAVE_STATE,
                host_proto::DEACTIVATE,
                mag_proto::RECEIVE_OPR
            ]
        );
        assert_eq!(stub(&k, peer).replies, [Ok(LegionValue::Void)]);
        let m = k.endpoint::<MagistrateEndpoint>(mag).unwrap();
        assert_eq!(parked(m, true), 0);
        assert_eq!(m.object_state(&OBJ), None);
        assert_eq!(m.storage_usage().0, 0);
    }

    #[test]
    fn a_copy_keeps_the_source_record() {
        for active in [false, true] {
            let (mut k, mag, peer) = world(active);
            ask(&mut k, mag, peer, mag_proto::COPY);
            k.run_until_quiescent(100);
            assert_eq!(stub(&k, peer).calls.last(), Some(&mag_proto::RECEIVE_OPR));
            assert_eq!(stub(&k, peer).replies, [Ok(LegionValue::Void)]);
            let m = k.endpoint::<MagistrateEndpoint>(mag).unwrap();
            assert!(
                matches!(m.object_state(&OBJ), Some(Life::Inert { .. })),
                "active={active}: {:?}",
                m.object_state(&OBJ)
            );
            assert_eq!(m.storage_usage().0, 1, "active={active}");
        }
    }
}

#[cfg(test)]
mod race_tests {
    //! Every request against every step of the lifecycle in flight: the
    //! table of races, as the Magistrate answers them today. Each case
    //! starts one operation on `OBJ` in the stub world, steps the kernel
    //! until the stub has been sent the call named — whose answer it holds
    //! back a second — sends a second request and runs to quiescence. The rows are pinned in
    //! `tests/goldens/magistrate_races.golden` (rewrite it with
    //! `UPDATE_GOLDENS=1`): a change to the lifecycle that moves a race's
    //! outcome moves its line.

    use super::move_path_tests::{parked, send, world, Stub, OBJ};
    use super::*;
    use legion_core::symbol::Sym;

    /// The operations in flight: what starts one, on an Active object or
    /// an Inert one, and the call the stub must have seen.
    const IN_FLIGHT: [(Sym, bool, Sym); 7] = [
        (mag_proto::ACTIVATE, false, host_proto::ACTIVATE),
        (mag_proto::DEACTIVATE, true, symbol::SAVE_STATE),
        (mag_proto::DEACTIVATE, true, host_proto::DEACTIVATE),
        (mag_proto::MOVE, true, symbol::SAVE_STATE),
        (mag_proto::MOVE, true, host_proto::DEACTIVATE),
        (mag_proto::MOVE, false, mag_proto::RECEIVE_OPR),
        (mag_proto::COPY, false, mag_proto::RECEIVE_OPR),
    ];

    /// The requests sent while it is.
    const REQUESTS: [Sym; 7] = [
        mag_proto::ACTIVATE,
        mag_proto::DEACTIVATE,
        mag_proto::DELETE,
        mag_proto::COPY,
        mag_proto::MOVE,
        mag_proto::RECEIVE_OPR,
        mag_proto::CREATE_OBJECT,
    ];

    /// Where the Magistrate holds `OBJ` at quiescence, and what is still
    /// parked on it.
    fn held(m: &MagistrateEndpoint) -> String {
        let at = match m.object_state(&OBJ) {
            Some(Life::Active { .. } | Life::Deactivating { .. }) => "Active",
            Some(Life::Inert { .. } | Life::Activating { .. } | Life::Shipping { .. }) => "Inert",
            Some(Life::Deleting { .. }) | None => "absent",
        };
        let (waiters, ships) = (parked(m, false), parked(m, true));
        format!("{at}, parked {waiters}+{ships}")
    }

    fn race(first: Sym, active: bool, seen: Sym, second: Sym) -> String {
        let (mut k, mag, stub) = world(active);
        k.endpoint_mut::<Stub>(stub).unwrap().hold = Some(seen);
        send(&mut k, mag, stub, first);
        while k.endpoint::<Stub>(stub).unwrap().calls.last() != Some(&seen) {
            assert!(k.step(), "{first}: the stub never saw {seen}");
        }
        send(&mut k, mag, stub, second);
        k.run_until_quiescent(1_000);
        let s = k.endpoint::<Stub>(stub).unwrap();
        let m = k.endpoint::<MagistrateEndpoint>(mag).unwrap();
        let calls: Vec<&str> = s.calls.iter().map(|c| c.as_str()).collect();
        let replies: Vec<String> = s
            .replies
            .iter()
            .map(|r| match r {
                Ok(v) => format!("Ok {v}"),
                Err(e) => format!("Err {e}"),
            })
            .collect();
        format!(
            "{first} ({}), {seen} out + {second}\n  calls {calls:?}\n  replies {replies:?}\n  \
             {}, files {}, host slots {}, calls out {}\n",
            if active { "Active" } else { "Inert" },
            held(m),
            m.storage_usage().0,
            m.hosts[0].assigned,
            m.calls.outstanding(),
        )
    }

    #[test]
    fn every_request_against_every_step_in_flight() {
        let mut table = String::new();
        for (first, active, seen) in IN_FLIGHT {
            for second in REQUESTS {
                table.push_str(&race(first, active, seen, second));
            }
        }
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/goldens/magistrate_races.golden"
        );
        if std::env::var_os("UPDATE_GOLDENS").is_some() {
            std::fs::write(path, &table).expect("write the golden");
            return;
        }
        let golden = std::fs::read_to_string(path).expect("the race golden (UPDATE_GOLDENS=1)");
        for (i, (want, got)) in golden.lines().zip(table.lines()).enumerate() {
            assert_eq!(want, got, "magistrate_races.golden line {}", i + 1);
        }
        assert_eq!(
            golden, table,
            "magistrate_races.golden: the number of lines"
        );
    }
}

#[cfg(test)]
mod placement_tests {
    use super::*;

    fn host(n: u64, assigned: u32, capacity: u32) -> HostRecord {
        HostRecord {
            loid: Loid::instance(3, n),
            element: ObjectAddressElement::sim(n),
            capacity,
            assigned,
            alive: true,
        }
    }

    fn placed(hosts: &[HostRecord], hint: Option<Loid>) -> Option<Loid> {
        place(hosts, hint).map(|h| h.loid)
    }

    #[test]
    fn most_free_slots_wins() {
        let hosts = [host(1, 5, 10), host(2, 1, 10), host(3, 9, 10)];
        assert_eq!(placed(&hosts, None), Some(Loid::instance(3, 2)));
    }

    #[test]
    fn ties_go_to_the_lowest_loid() {
        let hosts = [host(2, 0, 10), host(1, 0, 10)];
        assert_eq!(placed(&hosts, None), Some(Loid::instance(3, 1)));
    }

    #[test]
    fn full_hosts_are_skipped() {
        let hosts = [host(1, 10, 10), host(2, 10, 10)];
        assert_eq!(placed(&hosts, None), None);
        let hosts = [host(1, 10, 10), host(2, 9, 10)];
        assert_eq!(placed(&hosts, None), Some(Loid::instance(3, 2)));
    }

    #[test]
    fn no_hosts_gives_none() {
        assert_eq!(placed(&[], None), None);
        assert_eq!(placed(&[], Some(Loid::instance(3, 1))), None);
    }

    #[test]
    fn live_hinted_host_with_room_wins() {
        let hosts = [host(1, 0, 10), host(2, 9, 10)];
        let hint = Loid::instance(3, 2);
        assert_eq!(placed(&hosts, Some(hint)), Some(hint));
    }

    #[test]
    fn full_or_dead_hint_falls_back_to_least_load() {
        let mut hosts = [host(1, 2, 10), host(2, 10, 10), host(3, 0, 10)];
        assert_eq!(
            placed(&hosts, Some(Loid::instance(3, 2))),
            Some(Loid::instance(3, 3)),
            "a full hint falls back"
        );
        hosts[2].alive = false;
        assert_eq!(
            placed(&hosts, Some(Loid::instance(3, 3))),
            Some(Loid::instance(3, 1)),
            "a dead hint falls back, and the dead host is not the fallback"
        );
    }
}
