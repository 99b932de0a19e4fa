//! Magistrates (paper §2.2, §3.8, Figure 11).
//!
//! "A Magistrate is in charge of a Jurisdiction ... The purpose of a
//! Magistrate is to perform the activation, deactivation, and migration of
//! the Legion objects under its control ... member function calls on
//! Magistrates should be thought of as requests rather than commands" —
//! a Magistrate may refuse anything its security policy dislikes.
//!
//! The endpoint implements the §3.8 member functions as asynchronous
//! state machines over the host and object endpoints:
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
//! Requests arrive through the shared dispatch layer: a [`MethodTable`]
//! routes them (MayI gate at the boundary — "requests rather than
//! commands"), and each hop of the multi-hop state machines goes out
//! through the Magistrate's [`Calls`] with the next step parked as a
//! [`Wait`], plain data the one `wake` match dispatches on. The
//! heartbeat bypass (§3.9 liveness is not a request) is an *ungated,
//! one-way* registration on the same table.

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
use legion_core::symbol::{self, Sym};
use legion_core::value::LegionValue;
use legion_ha::detector::FailureDetector;
use legion_ha::policy::{Health, SuspicionPolicy};
use legion_ha::recovery::RecoveryTracker;
use legion_naming::stale;
use legion_net::dispatch::{
    resume, serve, tick, Caller, Calls, MethodTable, Outcome, Parked, TableBuilder,
};
use legion_net::message::{Message, ReplyTicket};
use legion_net::sim::{Ctx, Endpoint, FlightKind};
use legion_persist::opr::Opr;
use legion_persist::storage::{JurisdictionStorage, PersistentAddress};
use legion_security::mayi::{AllowAll, MayIPolicy};
use std::rc::Rc;

/// Where an object managed by this Magistrate currently is.
#[derive(Debug, Clone, PartialEq)]
pub enum ObjState {
    /// Running on `host`, reachable at `element`.
    Active {
        /// Host Object the process runs under.
        host: Loid,
        /// The object's endpoint element.
        element: ObjectAddressElement,
        /// With HA enabled: the OPR checkpoint retained at activation
        /// (§3.1's vault), so the object survives its host. `None` when
        /// HA is off — the OPR is consumed by activation as before.
        vault: Option<PersistentAddress>,
    },
    /// Resting in jurisdiction storage.
    Inert {
        /// Where the OPR lives.
        addr: PersistentAddress,
        /// Created here and never yet Active: the OPR is the one
        /// `CreateObject` wrote. If this first activation fails, the
        /// creation is undone (Create is all-or-nothing).
        never_active: bool,
    },
}

/// Per-object record.
#[derive(Debug, Clone)]
struct ObjRecord {
    class: Loid,
    class_addr: Option<ObjectAddressElement>,
    state: ObjState,
}

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

/// Follow-up work queued until an object reaches the Inert state: ship
/// the OPR to a peer magistrate; optionally delete locally (Move).
struct Ship {
    dst_magistrate: Loid,
    dst_element: ObjectAddressElement,
    delete_after: bool,
    requester: ReplyTicket,
}

/// What a call of a Magistrate waits to do with its reply (its
/// [`Caller::Wait`]): the next step of an activation, a deactivation, a
/// deletion or a migration, with what that step needs.
pub enum Wait {
    /// `HostActivate` is out: the host answers with the process address.
    HostActivate {
        /// The object being activated.
        loid: Loid,
        /// The host asked to start it.
        host: Loid,
        /// Placements tried before this one.
        attempts: u32,
    },
    /// `SaveState()` is out to the object being deactivated.
    SaveState {
        /// The object.
        loid: Loid,
        /// Who asked for the deactivation; `None` for a Copy/Move's own.
        requester: Option<ReplyTicket>,
    },
    /// `HostDeactivate` is out, the object's fresh OPR already stored.
    HostDeactivate {
        /// The object.
        loid: Loid,
        /// Where its fresh OPR is.
        addr: PersistentAddress,
        /// Who asked for the deactivation, if anyone.
        requester: Option<ReplyTicket>,
    },
    /// `HostDeactivate` is out for an object being deleted: whatever the
    /// host answers, the deletion finishes.
    Delete {
        /// The object.
        loid: Loid,
        /// Who asked for the deletion.
        requester: ReplyTicket,
    },
    /// `ReceiveOpr` is out to the peer Magistrate.
    Ship {
        /// The object shipped.
        loid: Loid,
        /// A Move: drop the local copy once the peer has it.
        delete_after: bool,
        /// Who asked for the Copy or Move.
        requester: ReplyTicket,
    },
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
    objects: FxHashMap<Loid, ObjRecord>,
    table: Rc<MethodTable<Self>>,
    /// Every outbound call that waits for a reply. Its deadline is `None`
    /// by default — wait forever, no timers armed; chaos campaigns set
    /// one so lost replies surface as timeouts instead of leaked state.
    calls: Calls<Wait>,
    /// Who to answer when an activation in progress concludes. A parked
    /// request is its [`ReplyTicket`], here and below: answering it needs
    /// nothing else of the call.
    activate_waiters: FxHashMap<Loid, Parked<ReplyTicket>>,
    after_inert: FxHashMap<Loid, Parked<Ship>>,
    peers: FxHashMap<Loid, ObjectAddressElement>,
    ha: Option<HaState>,
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
            activate_waiters: FxHashMap::default(),
            after_inert: FxHashMap::default(),
            peers: FxHashMap::default(),
            ha: None,
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
                |e, ctx, msg, args| e.handle_activate(ctx, msg, args),
            )
            .method::<(Loid,), _>(
                mag_proto::DEACTIVATE,
                &["target"],
                ParamType::Void,
                |e: &mut Self, ctx, msg, (loid,)| {
                    e.begin_deactivate(ctx, loid, Some(msg.reply_ticket()));
                    Outcome::Pending
                },
            )
            .method::<(Loid,), _>(
                mag_proto::DELETE,
                &["target"],
                ParamType::Void,
                |e: &mut Self, ctx, msg, (loid,)| e.handle_delete(ctx, msg, loid),
            )
            .method::<(Loid, Loid), _>(
                mag_proto::COPY,
                &["target", "magistrate"],
                ParamType::Void,
                |e: &mut Self, ctx, msg, (loid, dst)| {
                    e.handle_copy_or_move(ctx, msg, loid, dst, false)
                },
            )
            .method::<(Loid, Loid), _>(
                mag_proto::MOVE,
                &["target", "magistrate"],
                ParamType::Void,
                |e: &mut Self, ctx, msg, (loid, dst)| {
                    e.handle_copy_or_move(ctx, msg, loid, dst, true)
                },
            )
            .method::<ActivationSpec, _>(
                mag_proto::CREATE_OBJECT,
                &["loid", "class", "state", "class_addr", "magistrate_addr"],
                ParamType::Binding,
                |e, ctx, msg, spec| e.handle_create_object(ctx, msg, spec),
            )
            .method::<ReceiveOprArgs, _>(
                mag_proto::RECEIVE_OPR,
                &["loid", "class", "opr", "class_addr"],
                ParamType::Void,
                |e, ctx, _msg, args| e.handle_receive_opr(ctx, args),
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

    /// Current state of an object, if managed here.
    pub fn object_state(&self, loid: &Loid) -> Option<&ObjState> {
        self.objects.get(loid).map(|r| &r.state)
    }

    /// Number of managed objects.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Jurisdiction storage statistics: `(files, bytes)`.
    pub fn storage_usage(&self) -> (usize, u64) {
        (self.storage.file_count(), self.storage.used())
    }

    // ----- helpers ---------------------------------------------------------

    fn mark_host_dead(&mut self, loid: &Loid) {
        if let Some(h) = self.hosts.iter_mut().find(|h| h.loid == *loid) {
            h.alive = false;
        }
    }

    fn host_element(&self, loid: &Loid) -> Option<ObjectAddressElement> {
        self.hosts
            .iter()
            .find(|h| h.loid == *loid)
            .map(|h| h.element)
    }

    fn bump_host(&mut self, loid: &Loid, delta: i64) {
        if let Some(h) = self.hosts.iter_mut().find(|h| h.loid == *loid) {
            h.assigned = (h.assigned as i64 + delta).max(0) as u32;
        }
    }

    /// Table maintenance for the class (§3.7), one way: the Magistrate
    /// never read the acknowledgement.
    fn notify_class<const N: usize>(
        &self,
        ctx: &mut Ctx<'_>,
        class_addr: Option<ObjectAddressElement>,
        class: Loid,
        method: impl Into<Sym>,
        args: [LegionValue; N],
    ) {
        if let Some(addr) = class_addr {
            let me = self.cfg.loid;
            let args = ctx.args(args);
            ctx.notify(addr, class, method, args, InvocationEnv::solo(me), Some(me));
        }
    }

    /// Kill the process `host` started for `loid` that no record refers
    /// to (§2.3: "a Host Object is responsible for ... reaping objects").
    fn reap_orphan(&mut self, ctx: &mut Ctx<'_>, loid: Loid, host: Loid) {
        ctx.count(symbol::MAGISTRATE_ORPHAN_REAPED);
        if let Some(host_element) = self.host_element(&host) {
            let me = self.cfg.loid;
            let args = ctx.args([LegionValue::Loid(loid)]);
            ctx.notify(
                host_element,
                host,
                host_proto::DEACTIVATE,
                args,
                InvocationEnv::solo(me),
                Some(me),
            );
        }
    }

    /// Answer every queued Activate waiter for `loid`. This is also the
    /// single point every activation — including a crash recovery —
    /// concludes at, so the HA bookkeeping and the undoing of a failed
    /// creation hook in here.
    fn answer_activate_waiters(
        &mut self,
        ctx: &mut Ctx<'_>,
        loid: Loid,
        result: Result<Binding, String>,
    ) {
        let me = self.cfg.loid;
        if let Some(ha) = &mut self.ha {
            if ha.tracker.recovering(&loid) {
                match &result {
                    Ok(b) => {
                        ha.tracker.object_recovered(&loid, ctx.now());
                        ctx.count(symbol::MAGISTRATE_HA_RECOVERED);
                        ctx.trace_note("ha.object_recovered");
                        // Push the fresh binding down the agent tree so
                        // clients stop chasing the dead address (§4.1.4's
                        // "explicitly propagating news").
                        stale::propagate_binding(ctx, me, &ha.agents, b);
                    }
                    Err(_) => {
                        ha.tracker.object_lost(&loid);
                        ctx.count(symbol::MAGISTRATE_HA_OBJECT_LOST);
                        ctx.trace_note("ha.object_lost");
                    }
                }
            }
        }
        if result.is_err() {
            self.undo_creation(loid);
        }
        for waiter in self.activate_waiters.remove(&loid).into_iter().flatten() {
            let payload = result.as_ref().map(|b| ctx.binding_value(b));
            ctx.reply_ticket(waiter, payload.map_err(String::clone));
        }
    }

    /// Drop a fresh object whose first activation failed, with its
    /// initial OPR: the requester hears an error, so nothing was created.
    fn undo_creation(&mut self, loid: Loid) {
        if let Some(ObjRecord {
            state:
                ObjState::Inert {
                    addr,
                    never_active: true,
                },
            ..
        }) = self.objects.get(&loid)
        {
            let _ = self.storage.delete(addr);
            self.objects.remove(&loid);
        }
    }

    /// Begin activation of an Inert object. Waiters must already be
    /// queued in `activate_waiters[loid]`.
    fn start_activation(&mut self, ctx: &mut Ctx<'_>, loid: Loid, host_hint: Option<Loid>) {
        let Some(record) = self.objects.get(&loid) else {
            self.answer_activate_waiters(ctx, loid, Err(format!("{loid} not managed here")));
            return;
        };
        let ObjState::Inert { addr, .. } = &record.state else {
            // Raced: became Active already.
            if let ObjState::Active { element, .. } = &record.state {
                let b = Binding::forever(loid, ObjectAddress::single(*element));
                self.answer_activate_waiters(ctx, loid, Ok(b));
            }
            return;
        };
        let opr = match self.storage.load_opr(addr) {
            Ok(o) => o,
            Err(e) => {
                ctx.count(symbol::MAGISTRATE_OPR_LOAD_FAILED);
                self.answer_activate_waiters(ctx, loid, Err(format!("OPR load failed: {e}")));
                return;
            }
        };
        let class = record.class;
        let class_addr = record.class_addr;
        self.dispatch_to_host(ctx, loid, class, opr.state, class_addr, host_hint, 0);
    }

    /// Pick a host and send `HostActivate`. The reply wakes
    /// [`Wait::HostActivate`] in [`Self::on_host_activate_reply`].
    #[allow(clippy::too_many_arguments)]
    fn dispatch_to_host(
        &mut self,
        ctx: &mut Ctx<'_>,
        loid: Loid,
        class: Loid,
        state: Vec<u8>,
        class_addr: Option<ObjectAddressElement>,
        host_hint: Option<Loid>,
        attempts: u32,
    ) {
        let Some((host, host_element)) = place(&self.hosts, host_hint).map(|h| (h.loid, h.element))
        else {
            ctx.count(symbol::MAGISTRATE_NO_HOST);
            self.answer_activate_waiters(ctx, loid, Err("no host with free capacity".into()));
            return;
        };
        let spec = ActivationSpec {
            loid,
            class,
            state,
            class_addr,
            magistrate_addr: Some(ctx.self_element()),
        };
        let args = ctx.args(spec.into_args());
        let called = self.calls.call(
            ctx,
            host_element,
            host,
            host_proto::ACTIVATE,
            args,
            Wait::HostActivate {
                loid,
                host,
                attempts,
            },
        );
        if !called {
            // The Host Object is dead (§2.3's "reaping" case): skip it
            // for future placements and try another host.
            ctx.count(symbol::MAGISTRATE_HOST_DEAD);
            self.mark_host_dead(&host);
            if attempts < 3 {
                self.redispatch(ctx, loid, attempts + 1);
            } else {
                self.answer_activate_waiters(ctx, loid, Err(format!("host {host} unreachable")));
            }
        }
    }

    /// Pick another host for an activation whose `HostActivate` was
    /// refused or failed. The state went with that call, so it is read
    /// back from the OPR, which stays in storage until a host accepts.
    fn redispatch(&mut self, ctx: &mut Ctx<'_>, loid: Loid, attempts: u32) {
        let Some(record) = self.objects.get(&loid) else {
            return;
        };
        let ObjState::Inert { addr, .. } = &record.state else {
            return;
        };
        let (class, class_addr) = (record.class, record.class_addr);
        match self.storage.load_opr(addr) {
            Ok(opr) => {
                self.dispatch_to_host(ctx, loid, class, opr.state, class_addr, None, attempts)
            }
            Err(e) => {
                self.answer_activate_waiters(ctx, loid, Err(format!("OPR reload failed: {e}")))
            }
        }
    }

    /// Run queued after-inert work (shipping for Copy/Move).
    fn run_after_inert(&mut self, ctx: &mut Ctx<'_>, loid: Loid) {
        for job in self.after_inert.remove(&loid).into_iter().flatten() {
            self.ship(ctx, loid, job);
        }
    }

    fn ship(&mut self, ctx: &mut Ctx<'_>, loid: Loid, job: Ship) {
        let Ship {
            dst_magistrate,
            dst_element,
            delete_after,
            requester,
        } = job;
        let Some(record) = self.objects.get(&loid) else {
            ctx.reply_ticket(requester, Err(format!("{loid} not managed here")));
            return;
        };
        let ObjState::Inert { addr, .. } = &record.state else {
            ctx.reply_ticket(
                requester,
                Err(format!("{loid} is not Inert after deactivation")),
            );
            return;
        };
        let bytes = match self.storage.read_raw(addr) {
            Ok(b) => b,
            Err(e) => {
                ctx.reply_ticket(requester, Err(format!("read OPR failed: {e}")));
                return;
            }
        };
        let class = record.class;
        let class_addr = record.class_addr;
        let class_addr_val = match class_addr {
            Some(e) => LegionValue::Address(ObjectAddress::single(e)),
            None => LegionValue::Void,
        };
        let args = ctx.args([
            LegionValue::Loid(loid),
            LegionValue::Loid(class),
            LegionValue::Bytes(bytes),
            class_addr_val,
        ]);
        let called = self.calls.call(
            ctx,
            dst_element,
            dst_magistrate,
            mag_proto::RECEIVE_OPR,
            args,
            Wait::Ship {
                loid,
                delete_after,
                requester,
            },
        );
        if !called {
            ctx.reply_ticket(
                requester,
                Err(format!("magistrate {dst_magistrate} unreachable")),
            );
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
            ctx.flight(FlightKind::HaVerdict, symbol::HA_FALSE_POSITIVE, 0);
        }
        if let Some(h) = self.hosts.iter_mut().find(|h| h.loid == host) {
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
                    ctx.flight(FlightKind::HaVerdict, symbol::HA_SUSPECT, t.silence_ns);
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
        ctx.flight(FlightKind::HaVerdict, symbol::HA_HOST_DEAD, silence_ns);
        self.mark_host_dead(&host);
        if let Some(ha) = &mut self.ha {
            ha.tracker.host_dead(silence_ns);
        }
        // Root span for this host's recovery: the HostActivate calls made
        // below inherit it, so their replies (and the completion notes in
        // `answer_activate_waiters`) stay causally linked to the verdict.
        // The labels are rendered only when a sink is actually attached.
        if ctx.tracing_enabled() {
            ctx.trace_begin(&format!("ha.recovery:{host}"));
            ctx.trace_note(&format!("ha.detected:silence={silence_ns}ns"));
        }
        let mut lost: Vec<Loid> = self
            .objects
            .iter()
            .filter(|(_, r)| matches!(&r.state, ObjState::Active { host: h, .. } if *h == host))
            .map(|(l, _)| *l)
            .collect();
        lost.sort(); // deterministic recovery order
        for loid in lost {
            self.recover_object(ctx, loid, host);
        }
        ctx.trace_end("ha.recovery-dispatched");
    }

    /// Re-home one object that died with `dead_host`.
    fn recover_object(&mut self, ctx: &mut Ctx<'_>, loid: Loid, dead_host: Loid) {
        let me = self.cfg.loid;
        // Duplicated or replayed recovery triggers (a flapping detector,
        // a duplicated host-dead verdict) must not re-activate an object
        // whose recovery is already in flight: exactly one activation per
        // LOID per incident.
        if let Some(ha) = &self.ha {
            if ha.tracker.recovering(&loid) {
                ctx.count(symbol::MAGISTRATE_HA_DUPLICATE_TRIGGER);
                return;
            }
        }
        let Some(record) = self.objects.get(&loid) else {
            return;
        };
        let ObjState::Active { vault, .. } = &record.state else {
            return;
        };
        let Some(vault) = *vault else {
            // No checkpoint to restart from (HA was enabled after this
            // activation): the object is gone until someone re-creates it.
            ctx.count(symbol::MAGISTRATE_HA_UNRECOVERABLE);
            ctx.trace_note("ha.unrecoverable");
            self.bump_host(&dead_host, -1);
            return;
        };
        let (class, class_addr) = (record.class, record.class_addr);
        self.bump_host(&dead_host, -1);
        // Back to Inert at the vault checkpoint, then through the normal
        // activation path — placement picks a surviving host.
        self.objects.get_mut(&loid).expect("checked above").state = ObjState::Inert {
            addr: vault,
            never_active: false,
        };
        if let Some(ha) = &mut self.ha {
            ha.tracker.begin_object(loid, ctx.now());
        }
        ctx.count(symbol::MAGISTRATE_HA_RECOVERIES);
        ctx.flight(
            FlightKind::HaVerdict,
            symbol::HA_RECOVERED,
            loid.class_specific,
        );
        // The old binding is now stale everywhere. Clearing the class's
        // address row makes the class tell the agents it answered; the
        // agents walked here are the ones this Magistrate *pushed* a
        // binding to after an earlier recovery, which the class never
        // handed out and so cannot know about.
        let agents = self.ha.as_ref().map_or(&[][..], |ha| &ha.agents);
        stale::propagate_invalidation(ctx, me, agents, loid);
        self.notify_class(
            ctx,
            class_addr,
            class,
            class_proto::SET_ADDRESS,
            [LegionValue::Loid(loid), LegionValue::Void],
        );
        self.start_activation(ctx, loid, None);
    }

    // ----- request handlers --------------------------------------------------

    fn handle_activate(&mut self, ctx: &mut Ctx<'_>, msg: &Message, args: ActivateArgs) -> Outcome {
        let ActivateArgs { loid, host: hint } = args;
        match self.objects.get(&loid) {
            None => Outcome::Reply(Err(format!("{loid} not managed by {}", self.cfg.loid))),
            Some(r) => match &r.state {
                ObjState::Active { element, .. } => {
                    ctx.count(symbol::MAGISTRATE_ACTIVATE_ALREADY_ACTIVE);
                    let b = Binding::forever(loid, ObjectAddress::single(*element));
                    Outcome::Reply(Ok(LegionValue::from(b)))
                }
                ObjState::Inert { .. } => {
                    ctx.count(symbol::MAGISTRATE_ACTIVATIONS);
                    // An activation in flight is one fact however it
                    // started: a crash recovery parks no waiter of its
                    // own, so the first request to arrive while it runs
                    // joins it instead of starting a second activation.
                    let recovering = self
                        .ha
                        .as_ref()
                        .is_some_and(|ha| ha.tracker.recovering(&loid));
                    if Parked::park(&mut self.activate_waiters, loid, msg.reply_ticket())
                        && !recovering
                    {
                        self.start_activation(ctx, loid, hint);
                    }
                    Outcome::Pending
                }
            },
        }
    }

    fn handle_create_object(
        &mut self,
        ctx: &mut Ctx<'_>,
        msg: &Message,
        spec: ActivationSpec,
    ) -> Outcome {
        if self.objects.contains_key(&spec.loid) {
            return Outcome::Reply(Err(format!("{} already managed here", spec.loid)));
        }
        ctx.count(symbol::MAGISTRATE_CREATIONS);
        // Record a provisional Inert entry by writing the initial OPR;
        // then activate it immediately.
        let opr = Opr::new(spec.loid, spec.class, 0, spec.state);
        let addr = match self.storage.store_opr(&opr) {
            Ok(a) => a,
            Err(e) => {
                return Outcome::Reply(Err(format!("initial OPR store failed: {e}")));
            }
        };
        self.objects.insert(
            spec.loid,
            ObjRecord {
                class: spec.class,
                class_addr: spec.class_addr,
                state: ObjState::Inert {
                    addr,
                    never_active: true,
                },
            },
        );
        Parked::park(&mut self.activate_waiters, spec.loid, msg.reply_ticket());
        self.start_activation(ctx, spec.loid, None);
        Outcome::Pending
    }

    /// Start a deactivation; `requester` (if any) gets the final reply.
    fn begin_deactivate(&mut self, ctx: &mut Ctx<'_>, loid: Loid, requester: Option<ReplyTicket>) {
        let Some(record) = self.objects.get(&loid) else {
            self.deactivation_failed(ctx, loid, requester, format!("{loid} not managed here"));
            return;
        };
        let ObjState::Active { element, .. } = &record.state else {
            // Already Inert: fine (idempotent), and after-inert work can run.
            if let Some(req) = requester {
                ctx.reply_ticket(req, Ok(LegionValue::Void));
            }
            self.run_after_inert(ctx, loid);
            return;
        };
        ctx.count(symbol::MAGISTRATE_DEACTIVATIONS);
        let called = self.calls.call(
            ctx,
            *element,
            loid,
            obj_methods::SAVE_STATE,
            vec![],
            Wait::SaveState { loid, requester },
        );
        if !called {
            let why = format!("{loid} unreachable for SaveState");
            self.deactivation_failed(ctx, loid, requester, why);
        }
    }

    /// A deactivation of `loid` ended short of Inert. Whoever asked for it
    /// hears why — and so does every Copy/Move parked behind it, whose
    /// requester no later step would otherwise answer.
    fn deactivation_failed(
        &mut self,
        ctx: &mut Ctx<'_>,
        loid: Loid,
        requester: Option<ReplyTicket>,
        why: String,
    ) {
        let parked = self.after_inert.remove(&loid).into_iter().flatten();
        let parked = parked.map(|ship| ship.requester);
        for waiter in requester.into_iter().chain(parked) {
            ctx.reply_ticket(waiter, Err(why.clone()));
        }
    }

    fn handle_delete(&mut self, ctx: &mut Ctx<'_>, msg: &Message, loid: Loid) -> Outcome {
        let Some(record) = self.objects.get(&loid) else {
            return Outcome::Reply(Err(format!("{loid} not managed here")));
        };
        ctx.count(symbol::MAGISTRATE_DELETIONS);
        let requester = msg.reply_ticket();
        if let ObjState::Active { host, .. } = record.state {
            // Kill the process, then finish deletion on reply.
            let Some(host_element) = self.host_element(&host) else {
                return Outcome::Reply(Err(format!("unknown host {host}")));
            };
            let args = ctx.args([LegionValue::Loid(loid)]);
            let wait = Wait::Delete { loid, requester };
            if self
                .calls
                .call(ctx, host_element, host, host_proto::DEACTIVATE, args, wait)
            {
                return Outcome::Pending;
            }
            // Host gone: drop the record anyway.
        }
        self.finish_delete(ctx, loid, requester);
        Outcome::Pending
    }

    fn finish_delete(&mut self, ctx: &mut Ctx<'_>, loid: Loid, requester: ReplyTicket) {
        if let Some(record) = self.objects.remove(&loid) {
            match &record.state {
                ObjState::Inert { addr, .. } => {
                    let _ = self.storage.delete(addr);
                }
                ObjState::Active { host, vault, .. } => {
                    if let Some(vault) = vault {
                        let _ = self.storage.delete(vault);
                    }
                    self.bump_host(host, -1);
                }
            }
            // The class row update is driven by the class (it called us);
            // still clear the address column defensively.
            self.notify_class(
                ctx,
                record.class_addr,
                record.class,
                class_proto::REMOVE_MAGISTRATE,
                [LegionValue::Loid(loid), LegionValue::Loid(self.cfg.loid)],
            );
        }
        ctx.reply_ticket(requester, Ok(LegionValue::Void));
    }

    fn handle_copy_or_move(
        &mut self,
        ctx: &mut Ctx<'_>,
        msg: &Message,
        loid: Loid,
        dst: Loid,
        delete_after: bool,
    ) -> Outcome {
        let Some(dst_element) = self.peers.get(&dst).copied() else {
            return Outcome::Reply(Err(format!("unknown peer magistrate {dst}")));
        };
        if !self.objects.contains_key(&loid) {
            return Outcome::Reply(Err(format!("{loid} not managed here")));
        }
        ctx.count(if delete_after {
            symbol::MAGISTRATE_MOVES
        } else {
            symbol::MAGISTRATE_COPIES
        });
        Parked::park(
            &mut self.after_inert,
            loid,
            Ship {
                dst_magistrate: dst,
                dst_element,
                delete_after,
                requester: msg.reply_ticket(),
            },
        );
        // "This function causes the Magistrate to deactivate the object,
        // creating an OPR, and to send the OPR to the other Magistrate."
        // An object already Inert ships within this call.
        self.begin_deactivate(ctx, loid, None);
        Outcome::Pending
    }

    fn handle_receive_opr(&mut self, ctx: &mut Ctx<'_>, args: ReceiveOprArgs) -> Outcome {
        let ReceiveOprArgs {
            loid,
            class,
            opr: bytes,
            class_addr,
        } = args;
        // Validate before storing: a corrupt OPR is refused here, not at
        // some future activation.
        if let Err(e) = Opr::verify(&bytes) {
            ctx.count(symbol::MAGISTRATE_RECEIVE_CORRUPT);
            return Outcome::Reply(Err(format!("refused corrupt OPR: {e}")));
        }
        let addr = self.storage.reserve_address(&loid);
        if let Err(e) = self.storage.store_at(&addr, bytes) {
            return Outcome::Reply(Err(format!("store failed: {e}")));
        }
        ctx.count(symbol::MAGISTRATE_RECEIVED_OPRS);
        let record = ObjRecord {
            class,
            class_addr,
            state: ObjState::Inert {
                addr,
                never_active: false,
            },
        };
        // The received OPR supersedes an Inert copy already held here (a
        // Copy, then a Move, to this Magistrate): that copy's file goes
        // with its record. It is dropped only once the new one is stored,
        // so a failed store leaves the old copy whole.
        if let Some(ObjRecord {
            state: ObjState::Inert { addr, .. },
            ..
        }) = self.objects.insert(loid, record)
        {
            let _ = self.storage.delete(&addr);
        }
        // Tell the class this magistrate now holds an OPR (Current
        // Magistrate List maintenance, §3.7).
        self.notify_class(
            ctx,
            class_addr,
            class,
            class_proto::ADD_MAGISTRATE,
            [LegionValue::Loid(loid), LegionValue::Loid(self.cfg.loid)],
        );
        Outcome::Reply(Ok(LegionValue::Void))
    }

    // ----- reply handlers ----------------------------------------------------

    /// The host replied to `HostActivate(loid)`.
    fn on_host_activate_reply(
        &mut self,
        ctx: &mut Ctx<'_>,
        loid: Loid,
        host: Loid,
        attempts: u32,
        result: Result<LegionValue, String>,
    ) {
        match result {
            Ok(LegionValue::Address(addr)) => {
                let element = addr.primary().copied();
                let Some(element) = element else {
                    self.answer_activate_waiters(
                        ctx,
                        loid,
                        Err("host returned empty address".into()),
                    );
                    return;
                };
                // The record may have vanished while the host was
                // starting the process (a racing Move/Delete): the
                // fresh process is an orphan — reap it (§2.3's "a Host
                // Object is responsible for ... reaping objects").
                let Some(record) = self.objects.get(&loid) else {
                    self.reap_orphan(ctx, loid, host);
                    self.answer_activate_waiters(
                        ctx,
                        loid,
                        Err(format!("{loid} was removed during activation")),
                    );
                    return;
                };
                // At-most-once activation: a reply for a record that is
                // already Active never overwrites it. From the host the
                // object runs on it is that same process answering again
                // (HostActivate is idempotent); from any other host it
                // is a second process, reaped like any other orphan.
                if let ObjState::Active {
                    host: running_on,
                    element: running_at,
                    ..
                } = record.state
                {
                    if running_on != host {
                        self.reap_orphan(ctx, loid, host);
                    }
                    let b = Binding::forever(loid, ObjectAddress::single(running_at));
                    self.answer_activate_waiters(ctx, loid, Ok(b));
                    return;
                }
                // Mark Active. With HA on, the Inert OPR is retained
                // as the vault checkpoint the object restarts from if
                // this host dies; without HA it is consumed as before
                // (rewritten at the next deactivation).
                let keep_vault = self.ha.is_some();
                let (class, class_addr) = {
                    let record = self.objects.get_mut(&loid).expect("checked above");
                    let vault = match &record.state {
                        ObjState::Inert { addr, .. } if keep_vault => Some(*addr),
                        ObjState::Inert { addr, .. } => {
                            let _ = self.storage.delete(addr);
                            None
                        }
                        ObjState::Active { .. } => unreachable!("answered above"),
                    };
                    record.state = ObjState::Active {
                        host,
                        element,
                        vault,
                    };
                    (record.class, record.class_addr)
                };
                self.bump_host(&host, 1);
                // Update the class's logical-table Object Address.
                self.notify_class(
                    ctx,
                    class_addr,
                    class,
                    class_proto::SET_ADDRESS,
                    [
                        LegionValue::Loid(loid),
                        LegionValue::Address(ObjectAddress::single(element)),
                    ],
                );
                let b = Binding::forever(loid, ObjectAddress::single(element));
                self.answer_activate_waiters(ctx, loid, Ok(b));
            }
            Ok(v) => {
                self.answer_activate_waiters(ctx, loid, Err(format!("unexpected host reply {v}")));
            }
            Err(e) => {
                // The chosen host refused (capacity, policy): try once
                // more with a different pick.
                if attempts < 2 {
                    ctx.count(symbol::MAGISTRATE_ACTIVATION_RETRY);
                    self.redispatch(ctx, loid, attempts + 1);
                } else {
                    self.answer_activate_waiters(ctx, loid, Err(format!("host refused: {e}")));
                }
            }
        }
    }

    /// The object replied to `SaveState()`.
    fn on_save_state_reply(
        &mut self,
        ctx: &mut Ctx<'_>,
        loid: Loid,
        requester: Option<ReplyTicket>,
        result: Result<LegionValue, String>,
    ) {
        let state = match result {
            Ok(LegionValue::Bytes(state)) => state,
            Ok(v) => {
                let why = format!("unexpected SaveState reply {v}");
                return self.deactivation_failed(ctx, loid, requester, why);
            }
            Err(e) => {
                let why = format!("SaveState failed: {e}");
                return self.deactivation_failed(ctx, loid, requester, why);
            }
        };
        // A racing Delete may have removed the record, or a racing
        // deactivation finished first (and ran the parked work).
        let (class, host) = match self.objects.get(&loid).map(|r| (r.class, &r.state)) {
            Some((class, ObjState::Active { host, .. })) => (class, *host),
            Some((_, ObjState::Inert { .. })) => return,
            None => {
                let why = format!("{loid} was removed during deactivation");
                return self.deactivation_failed(ctx, loid, requester, why);
            }
        };
        let opr = Opr::new(loid, class, 0, state);
        let addr = match self.storage.store_opr(&opr) {
            Ok(a) => a,
            Err(e) => {
                let why = format!("OPR store failed: {e}");
                return self.deactivation_failed(ctx, loid, requester, why);
            }
        };
        let Some(host_element) = self.host_element(&host) else {
            let why = format!("unknown host {host}");
            return self.deactivation_failed(ctx, loid, requester, why);
        };
        let args = ctx.args([LegionValue::Loid(loid)]);
        let called = self.calls.call(
            ctx,
            host_element,
            host,
            host_proto::DEACTIVATE,
            args,
            Wait::HostDeactivate {
                loid,
                addr,
                requester,
            },
        );
        if !called {
            let why = format!("host {host} unreachable");
            self.deactivation_failed(ctx, loid, requester, why);
        }
    }

    /// The host replied to the deactivation kill; the fresh OPR is at
    /// `addr`.
    fn on_host_deactivate_reply(
        &mut self,
        ctx: &mut Ctx<'_>,
        loid: Loid,
        addr: PersistentAddress,
        requester: Option<ReplyTicket>,
        result: Result<LegionValue, String>,
    ) {
        match result {
            Ok(_) => {
                // A racing Delete may have removed the record; the
                // process is already dead, so just clean the OPR.
                if !self.objects.contains_key(&loid) {
                    let _ = self.storage.delete(&addr);
                    let why = format!("{loid} was removed during deactivation");
                    return self.deactivation_failed(ctx, loid, requester, why);
                }
                let (class, class_addr, host) = {
                    let record = self.objects.get_mut(&loid).expect("checked above");
                    let host = match &record.state {
                        ObjState::Active { host, .. } => Some(*host),
                        _ => None,
                    };
                    // The fresh OPR supersedes the activation-time
                    // vault checkpoint.
                    if let ObjState::Active {
                        vault: Some(vault), ..
                    } = &record.state
                    {
                        let _ = self.storage.delete(vault);
                    }
                    record.state = ObjState::Inert {
                        addr,
                        never_active: false,
                    };
                    (record.class, record.class_addr, host)
                };
                if let Some(h) = host {
                    self.bump_host(&h, -1);
                }
                // Clear the class's Object Address column: the row
                // reads NIL while the object is Inert (§3.7).
                self.notify_class(
                    ctx,
                    class_addr,
                    class,
                    class_proto::SET_ADDRESS,
                    [LegionValue::Loid(loid), LegionValue::Void],
                );
                if let Some(req) = requester {
                    ctx.reply_ticket(req, Ok(LegionValue::Void));
                }
                self.run_after_inert(ctx, loid);
            }
            Err(e) => {
                // The object did not become Inert at `addr`, so nothing
                // will ever refer to the OPR written there.
                let _ = self.storage.delete(&addr);
                let why = format!("host deactivate failed: {e}");
                self.deactivation_failed(ctx, loid, requester, why);
            }
        }
    }

    /// The peer magistrate replied to `ReceiveOpr`.
    fn on_ship_reply(
        &mut self,
        ctx: &mut Ctx<'_>,
        loid: Loid,
        delete_after: bool,
        requester: ReplyTicket,
        result: Result<LegionValue, String>,
    ) {
        match result {
            Ok(_) => {
                if delete_after {
                    // Move = Copy then Delete (§3.8).
                    if let Some(record) = self.objects.remove(&loid) {
                        if let ObjState::Inert { addr, .. } = &record.state {
                            let _ = self.storage.delete(addr);
                        }
                        self.notify_class(
                            ctx,
                            record.class_addr,
                            record.class,
                            class_proto::REMOVE_MAGISTRATE,
                            [LegionValue::Loid(loid), LegionValue::Loid(self.cfg.loid)],
                        );
                    }
                }
                ctx.reply_ticket(requester, Ok(LegionValue::Void));
            }
            Err(e) => {
                ctx.reply_ticket(requester, Err(format!("ship failed: {e}")));
            }
        }
    }
}

impl Caller for MagistrateEndpoint {
    type Wait = Wait;

    fn calls(&mut self) -> &mut Calls<Wait> {
        &mut self.calls
    }

    fn wake(&mut self, ctx: &mut Ctx<'_>, wait: Wait, result: Result<LegionValue, String>) {
        match wait {
            Wait::HostActivate {
                loid,
                host,
                attempts,
            } => self.on_host_activate_reply(ctx, loid, host, attempts, result),
            Wait::SaveState { loid, requester } => {
                self.on_save_state_reply(ctx, loid, requester, result)
            }
            Wait::HostDeactivate {
                loid,
                addr,
                requester,
            } => self.on_host_deactivate_reply(ctx, loid, addr, requester, result),
            Wait::Delete { loid, requester } => self.finish_delete(ctx, loid, requester),
            Wait::Ship {
                loid,
                delete_after,
                requester,
            } => self.on_ship_reply(ctx, loid, delete_after, requester, result),
        }
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
        mag.objects.insert(
            obj_loid,
            ObjRecord {
                class: Loid::class_object(16),
                class_addr: None,
                state: ObjState::Active {
                    host: host_loid,
                    element: ObjectAddressElement::sim(98),
                    vault: None,
                },
            },
        );
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
        mag.objects.insert(
            obj_loid,
            ObjRecord {
                class,
                class_addr: None,
                state: ObjState::Active {
                    host: dead_host,
                    element: ObjectAddressElement::sim(98),
                    vault: Some(vault),
                },
            },
        );
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
                Some(ObjState::Active { host, vault: Some(_), .. }) if *host == live_host
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
    use legion_net::message::Body;
    use legion_net::sim::{EndpointId, SimKernel};
    use legion_net::topology::Location;

    const MAG: Loid = Loid::instance(4, 1);
    const PEER: Loid = Loid::instance(4, 2);
    const HOST: Loid = Loid::instance(3, 1);
    const OBJ: Loid = Loid::instance(16, 1);

    /// Plays the object, its host and the peer Magistrate at once, and
    /// asks for the migration: logs every call it is sent, answers each as
    /// the callee would, and keeps the replies it gets.
    #[derive(Default)]
    struct Stub {
        calls: Vec<Sym>,
        replies: Vec<Result<LegionValue, String>>,
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
            } else {
                LegionValue::Void
            };
            ctx.reply(&msg, Ok(answer));
        }
    }

    /// A Magistrate holding `OBJ`, Active (on the stub) or Inert, and the
    /// stub, settled.
    fn world(active: bool) -> (SimKernel, EndpointId, EndpointId) {
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
        let state = if active {
            mag.bump_host(&HOST, 1);
            ObjState::Active {
                host: HOST,
                element: stub.element(),
                vault: None,
            }
        } else {
            let opr = Opr::new(OBJ, class, 0, vec![1, 2, 3]);
            let addr = mag.storage.store_opr(&opr).expect("room");
            ObjState::Inert {
                addr,
                never_active: false,
            }
        };
        let record = ObjRecord {
            class,
            class_addr: None,
            state,
        };
        mag.objects.insert(OBJ, record);
        let mag = k.add_endpoint(Box::new(mag), Location::new(0, 0), "magistrate");
        k.run_until_quiescent(100);
        (k, mag, stub)
    }

    /// The stub asks for `method` (Copy or Move to the peer); the step
    /// that delivers the request is taken, and what the Magistrate then
    /// has parked behind a deactivation is returned.
    fn ask(k: &mut SimKernel, mag: EndpointId, stub: EndpointId, method: Sym) -> usize {
        let args = vec![LegionValue::Loid(OBJ), LegionValue::Loid(PEER)];
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
        assert!(k.step(), "the request is delivered");
        let m = k.endpoint::<MagistrateEndpoint>(mag).unwrap();
        m.after_inert.get(&OBJ).map_or(0, Parked::len)
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
        assert!(m.after_inert.is_empty());
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
        assert!(m.after_inert.is_empty());
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
                matches!(m.object_state(&OBJ), Some(ObjState::Inert { .. })),
                "active={active}: {:?}",
                m.object_state(&OBJ)
            );
            assert_eq!(m.storage_usage().0, 1, "active={active}");
        }
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
