//! The object lifecycle as one pure reducer (paper §3.8, Figure 11).
//!
//! A Magistrate moves an object between Inert and Active and between
//! Jurisdictions, and each call is "a request rather than a command". Every
//! such request, every reply to a call the Magistrate made for one, every
//! failure of an effect it performed, and the HA layer's host verdicts are
//! a [`LifeEvent`]; [`step`] maps an object's [`Life`] and one event to the
//! next `Life` and the [`Effects`] the Magistrate then performs, in order.
//! `step` is pure and allocates nothing: it reads no clock, storage, host
//! table or kernel, and its effects are plain data. The Magistrate
//! ([`crate::magistrate`]) is the adapter: it decodes a request or a reply
//! into an event, steps the object's one [`ObjRecord`], and performs the
//! effects. An OPR that a request brings (`CreateObject`'s initial state,
//! `ReceiveOpr`'s bytes) is stored before its row runs, and the event says
//! where. An effect that fails (an OPR that does not load, no host with
//! room, a send the kernel refuses) comes back as the next event; one that
//! succeeds steps nothing, except a ship, whose `Sent` names the peer.
//!
//! Only `step` assigns a record's `Life` — the field is private to this
//! module. The requests parked on an object (its `Activate`s waiting for an
//! activation in flight, its Copy/Moves waiting for it to be Inert) are
//! reply tickets the adapter keeps in the record, because `step` does not
//! allocate: a row says *park this one* or *answer those*, and the adapter
//! does it.
//!
//! Each race the Magistrate has is a row, the known bugs included, and each
//! bug row names the test that pins it. The rows follow the legal-successor
//! relation of a COM object life-cycle process description (Vassev): a
//! state and an event give the one next state and what it sets off. The
//! in-flight states refine the two resting ones — `Activating` and
//! `Shipping` answer requests as `Inert` does, `Deactivating` as `Active`
//! does, except that an `Activate` joins an activation in flight.

use legion_core::address::ObjectAddressElement;
use legion_core::loid::Loid;
use legion_core::symbol::{self as s, Sym};
use legion_core::value::LegionValue;
use legion_net::dispatch::Parked;
use legion_net::message::ReplyTicket;
use legion_persist::storage::{PersistentAddress, StorageError};

/// Where an object is in its lifecycle, as its Magistrate sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Life {
    /// Resting in jurisdiction storage.
    Inert {
        /// Where the OPR lives.
        addr: PersistentAddress,
    },
    /// Inert, with an activation in flight that every `Activate` joins.
    Activating {
        /// Where the OPR lives until a host accepts it.
        addr: PersistentAddress,
        /// Created here and never yet Active: if this activation fails,
        /// the creation is undone (Create is all-or-nothing).
        never_active: bool,
    },
    /// Running on `host`, reachable at `element`.
    Active {
        /// Host Object the process runs under.
        host: Loid,
        /// The object's endpoint element.
        element: ObjectAddressElement,
        /// With HA enabled: the OPR checkpoint retained at activation
        /// (§3.1's vault), so the object survives its host.
        vault: Option<PersistentAddress>,
    },
    /// Active, with a deactivation in flight (`SaveState` or
    /// `HostDeactivate` out).
    Deactivating {
        /// Host Object the process runs under.
        host: Loid,
        /// The object's endpoint element.
        element: ObjectAddressElement,
        /// The activation-time checkpoint, as for `Active`.
        vault: Option<PersistentAddress>,
    },
    /// Inert, its OPR out to the peer Magistrate `to` (`ReceiveOpr` out).
    Shipping {
        /// Where the OPR lives.
        addr: PersistentAddress,
        /// The peer Magistrate.
        to: Loid,
        /// A Move: the local copy goes once the peer has it.
        delete_after: bool,
    },
    /// Not held here — deleted or moved away — while requests parked on
    /// it are still to be answered. An object this Magistrate never held
    /// steps from [`Life::GONE`].
    Deleting {
        /// An activation started before the deletion is still out.
        activating: bool,
    },
}

impl Life {
    /// Not held here, nothing in flight.
    pub const GONE: Life = Life::Deleting { activating: false };
}

/// A request parked on an object until its lifecycle moves on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Waiter {
    /// An `Activate` (or the `CreateObject`), answered when the activation
    /// in flight concludes.
    Activate(ReplyTicket),
    /// A Copy or Move, shipped once the object is Inert: the peer
    /// Magistrate, whether it is a Move, and who asked.
    Ship(Loid, bool, ReplyTicket),
}

/// The one record a Magistrate keeps per object.
pub struct ObjRecord {
    /// The object's class.
    pub class: Loid,
    /// Where the class is, for the table maintenance notices (§3.7).
    pub class_addr: Option<ObjectAddressElement>,
    /// The requests parked on the object, in arrival order.
    pub parked: Option<Parked<Waiter>>,
    life: Life,
}

impl ObjRecord {
    /// A record for an object of `class` not held here yet.
    pub fn new(class: Loid, class_addr: Option<ObjectAddressElement>) -> Self {
        ObjRecord {
            class,
            class_addr,
            parked: None,
            life: Life::GONE,
        }
    }

    /// A record at `life`, for tests that start mid-lifecycle.
    #[cfg(test)]
    pub fn at(class: Loid, life: Life) -> Self {
        ObjRecord {
            life,
            ..ObjRecord::new(class, None)
        }
    }

    /// Where the object is.
    pub fn life(&self) -> &Life {
        &self.life
    }

    /// Take `ev`: the record moves to the row's next `Life`, and the row's
    /// effects are returned for the adapter to perform.
    pub fn step<'a>(&mut self, ev: &LifeEvent<'a>) -> Effects<'a> {
        let (life, fx) = step(&self.life, ev);
        self.life = life;
        fx
    }
}

/// Why a request or a step failed; the adapter renders each with the
/// object's LOID, one message per variant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Why<'a> {
    /// "`{loid}` not managed here".
    NotManaged,
    /// "`{loid}` not managed by `{magistrate}`".
    NotManagedBy,
    /// "`{loid}` already managed here".
    AlreadyManaged,
    /// "`{loid}` was removed during activation".
    RemovedDuringActivation,
    /// "`{loid}` was removed during deactivation".
    RemovedDuringDeactivation,
    /// "`{loid}` unreachable for SaveState".
    SaveStateUnreachable,
    /// "no host with free capacity".
    NoHost,
    /// "host returned empty address".
    EmptyAddress,
    /// "unknown host `{host}`".
    UnknownHost(Loid),
    /// "host `{host}` unreachable".
    HostUnreachable(Loid),
    /// "magistrate `{peer}` unreachable".
    PeerUnreachable(Loid),
    /// "host refused: `{error}`".
    HostRefused(&'a str),
    /// "SaveState failed: `{error}`".
    SaveStateFailed(&'a str),
    /// "host deactivate failed: `{error}`".
    HostDeactivateFailed(&'a str),
    /// "ship failed: `{error}`".
    ShipFailed(&'a str),
    /// "unexpected host reply `{value}`".
    UnexpectedHostReply(&'a LegionValue),
    /// "unexpected SaveState reply `{value}`".
    UnexpectedSaveStateReply(&'a LegionValue),
    /// "OPR load failed: `{error}`".
    OprLoadFailed(&'a StorageError),
    /// "OPR reload failed: `{error}`".
    OprReloadFailed(&'a StorageError),
    /// "OPR store failed: `{error}`".
    OprStoreFailed(&'a StorageError),
    /// "read OPR failed: `{error}`".
    ReadOprFailed(&'a StorageError),
}

/// Table maintenance for the class (§3.7): one-way notices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Notice {
    /// The row's Object Address: `Some` while Active, NIL while Inert.
    SetAddress(Option<ObjectAddressElement>),
    /// This Magistrate now holds an OPR (Current Magistrate List).
    AddMagistrate,
    /// It no longer does.
    RemoveMagistrate,
}

/// One thing the adapter does for a row, in the row's order. "The
/// request" is the one the event carries, or the one the reply's call
/// was made for ([`LifeEvent::requester`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Effect<'a> {
    /// Bump a counter.
    Count(Sym),
    /// Note a trace annotation.
    Note(&'static str),
    /// Answer the request, if there is one: `Void`, or the object's
    /// binding at the element.
    Reply(Option<ObjectAddressElement>),
    /// Refuse the request.
    Refuse(Why<'a>),
    /// Park the request on the record: an `Activate` (or the
    /// `CreateObject`) until the activation concludes, a Copy/Move until
    /// the object is Inert.
    Park,
    /// The activation in flight concluded: update the HA recovery
    /// accounting and answer every parked `Activate`.
    Conclude(Result<ObjectAddressElement, Why<'a>>),
    /// A deactivation ended short of Inert: the request, if any, and every
    /// parked Copy/Move hear why.
    FailDeactivation(Why<'a>),
    /// Load the OPR at the address, place a host (an `Activate`'s
    /// suggested host first) and send `HostActivate`, after that many
    /// earlier placements; step why that failed, if it did.
    HostActivate(PersistentAddress, u32),
    /// Call `SaveState()` on the object at the element, for the request
    /// when the flag is set (a Copy/Move's own deactivation answers none).
    SaveState(ObjectAddressElement, bool),
    /// Store the saved state as the object's fresh OPR, then call
    /// `HostDeactivate` on the host.
    HostDeactivate(Loid),
    /// Call `HostDeactivate` on the host to finish the Delete.
    Kill(Loid),
    /// Kill the process the host started that no record refers to (§2.3's
    /// reaping).
    Reap(Loid),
    /// Ship the OPR at the address (`ReceiveOpr`) for every parked
    /// Copy/Move, then for the request if it is a Copy/Move; step
    /// [`LifeEvent::Sent`] for each, or why it failed.
    Ship(PersistentAddress),
    /// Tell the class.
    NotifyClass(Notice),
    /// Delete a file from jurisdiction storage.
    Drop(PersistentAddress),
    /// Change a host's count of assigned objects.
    Slots(Loid, i64),
    /// Start the HA recovery of the object: accounting, flight record,
    /// and the invalidation of its old binding (§4.1.4).
    Recover,
}

/// The most effects one row has.
const MAX_EFFECTS: usize = 5;

/// A row's effects, in order: a fixed-capacity list, so stepping
/// allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Effects<'a> {
    len: usize,
    list: [Option<Effect<'a>>; MAX_EFFECTS],
}

impl<'a> Effects<'a> {
    /// Append `e`, if any.
    fn push(&mut self, e: impl Into<Option<Effect<'a>>>) {
        if let Some(e) = e.into() {
            self.list[self.len] = Some(e);
            self.len += 1;
        }
    }

    /// The effects, in order.
    pub fn iter(&self) -> impl Iterator<Item = &Effect<'a>> {
        self.list[..self.len].iter().flatten()
    }
}

/// `fx![a, b, …]`: the effects `a`, `b`, … in order; an `Option` adds
/// its effect only when it is `Some`.
macro_rules! fx {
    ($($e:expr),* $(,)?) => {{ #[allow(unused_mut)] let mut fx = Effects::default(); $(fx.push($e);)* fx }};
}

/// What happens to an object: a request, a reply to a call made for it,
/// the outcome of an effect, or an HA verdict about its host. A request
/// carries its requester's reply ticket.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LifeEvent<'a> {
    /// `Activate(LOID[, host])`, with a Scheduling Agent's suggested host.
    Activate(ReplyTicket, Option<Loid>),
    /// `CreateObject`: the new object's initial OPR is stored at the
    /// address.
    Create(ReplyTicket, PersistentAddress),
    /// `Deactivate(LOID)`.
    Deactivate(ReplyTicket),
    /// `Delete(LOID)`.
    Delete(ReplyTicket),
    /// `Copy(LOID, magistrate)`, or `Move` when the flag is set: the peer
    /// Magistrate, the flag and who asked.
    Copy(Loid, bool, ReplyTicket),
    /// `ReceiveOpr`: a peer's OPR for the object is stored at the address.
    ReceiveOpr(ReplyTicket, PersistentAddress),
    /// The OPR to activate from did not load, after that many placements.
    Unreadable(u32, &'a StorageError),
    /// No live host has room.
    NoHost,
    /// The kernel refused the send to the host (a crashed Host Object,
    /// now skipped by placement), after that many placements.
    HostDown(Loid, u32),
    /// The host answered `HostActivate` with the process's element; HA is
    /// on when the flag is set, and the activated OPR stays as the vault
    /// checkpoint.
    Activated(Loid, ObjectAddressElement, bool),
    /// `HostActivate` was answered with no address.
    ActivationFailed(Why<'a>),
    /// `HostActivate` failed — refused, or timed out — after `attempts`
    /// earlier placements.
    HostRefused(u32, &'a str),
    /// The object answered `SaveState` with its state.
    Saved(Option<ReplyTicket>),
    /// A deactivation step failed.
    DeactivationFailed(Option<ReplyTicket>, Why<'a>),
    /// The host killed the deactivated process; its fresh OPR is at the
    /// address.
    Killed(Option<ReplyTicket>, PersistentAddress),
    /// `HostDeactivate` of a deactivation failed; the fresh OPR at the
    /// address is referred to by nothing.
    KillFailed(Option<ReplyTicket>, PersistentAddress, &'a str),
    /// A Delete's `HostDeactivate` was answered, whatever the answer, or
    /// could not be sent.
    Deleted(ReplyTicket),
    /// The OPR is out to the peer Magistrate, for a Move when the flag is
    /// set.
    Sent(Loid, bool),
    /// The peer has the shipped OPR; for a Move when the flag is set.
    Shipped(ReplyTicket, bool),
    /// The ship failed.
    ShipFailed(ReplyTicket, Why<'a>),
    /// The failure detector declared the host Dead.
    HostDead(Loid),
    /// A host declared Dead was heard from again.
    HostBack(Loid),
}

impl LifeEvent<'_> {
    /// The request the event answers: the one it carries, or the one the
    /// reply's call was made for.
    #[rustfmt::skip]
    pub fn requester(&self) -> Option<ReplyTicket> {
        use LifeEvent as V;
        match *self {
            V::Activate(to, _) | V::Create(to, _) | V::Deactivate(to) => Some(to),
            V::Delete(to) | V::Copy(.., to) | V::ReceiveOpr(to, _) | V::Deleted(to) => Some(to),
            V::Shipped(to, _) | V::ShipFailed(to, _) => Some(to),
            V::Saved(to) | V::DeactivationFailed(to, _) | V::Killed(to, _) | V::KillFailed(to, ..) => to,
            V::Unreadable(..) | V::NoHost | V::HostDown(..) | V::Activated(..) => None,
            V::ActivationFailed(_) | V::HostRefused(..) | V::Sent(..) | V::HostDead(_) | V::HostBack(_) => None,
        }
    }
}

/// The reducer: the row for `life` and `ev`, as the next `Life` and the
/// effects to perform. Every state is named in every event's match; there
/// is no catch-all row. Laid out as a table, one row to a line.
#[rustfmt::skip]
#[inline]
pub fn step<'a>(life: &Life, ev: &LifeEvent<'a>) -> (Life, Effects<'a>) {
    use {Effect as E, Life as L, LifeEvent as V, Notice as N, Why as W};
    let life = *life;
    match *ev {
        V::Activate(..) => match life {
            L::Deleting { .. } => (life, fx![E::Refuse(W::NotManagedBy)]),
            L::Active { element, .. } | L::Deactivating { element, .. } =>
                (life, fx![E::Count(s::MAGISTRATE_ACTIVATE_ALREADY_ACTIVE), E::Reply(Some(element))]),
            // Item 1 (pin: `e08_stale_bindings::tests::churn_leaves_every_object_alive_once`):
            // an object whose OPR is out for a Move is activated again,
            // and the ship's reply then drops the Active record.
            L::Inert { addr } | L::Shipping { addr, .. } => (
                L::Activating { addr, never_active: false },
                fx![E::Count(s::MAGISTRATE_ACTIVATIONS), E::Park, E::HostActivate(addr, 0)],
            ),
            // One activation in flight, however it started (a crash
            // recovery parks nobody): the request joins it.
            L::Activating { .. } => (life, fx![E::Count(s::MAGISTRATE_ACTIVATIONS), E::Park]),
        },
        // Requests still parked on a deleted record join the new
        // activation; a refused `Create` drops the OPR it brought.
        V::Create(_, addr) => match life {
            L::Deleting { .. } => (
                L::Activating { addr, never_active: true },
                fx![E::Count(s::MAGISTRATE_CREATIONS), E::Park, E::HostActivate(addr, 0)],
            ),
            L::Inert { .. } | L::Activating { .. } | L::Shipping { .. } | L::Active { .. } | L::Deactivating { .. } =>
                (life, fx![E::Drop(addr), E::Refuse(W::AlreadyManaged)]),
        },
        V::Deactivate(_) => match life {
            L::Deleting { .. } => (life, fx![E::FailDeactivation(W::NotManaged)]),
            // Already Inert: fine (idempotent), and parked ships can go.
            L::Inert { addr } | L::Activating { addr, .. } | L::Shipping { addr, .. } =>
                (life, fx![E::Reply(None), E::Ship(addr)]),
            // A deactivation while one is out saves the state again. Item 1
            // (join the in-flight deactivation instead): when the first
            // one's HostDeactivate kills the process before this SaveState
            // arrives, the kernel answers the call with an `Err`, and its
            // requester hears "SaveState failed" while the first hears `Ok`.
            L::Active { host, element, vault } | L::Deactivating { host, element, vault } => (
                L::Deactivating { host, element, vault },
                fx![E::Count(s::MAGISTRATE_DEACTIVATIONS), E::SaveState(element, true)],
            ),
        },
        V::Delete(_) => match life {
            L::Deleting { .. } => (life, fx![E::Refuse(W::NotManaged)]),
            L::Active { host, .. } | L::Deactivating { host, .. } =>
                (life, fx![E::Count(s::MAGISTRATE_DELETIONS), E::Kill(host)]),
            L::Inert { .. } | L::Activating { .. } | L::Shipping { .. } =>
                finish_delete(life, fx![E::Count(s::MAGISTRATE_DELETIONS)]),
        },
        V::Copy(_, delete_after, _) => {
            let count = E::Count(if delete_after { s::MAGISTRATE_MOVES } else { s::MAGISTRATE_COPIES });
            match life {
                L::Deleting { .. } => (life, fx![E::Refuse(W::NotManaged)]),
                // "This function causes the Magistrate to deactivate the
                // object, creating an OPR, and to send the OPR to the
                // other Magistrate": an Inert object ships at once.
                L::Inert { addr } | L::Activating { addr, .. } | L::Shipping { addr, .. } =>
                    (life, fx![count, E::Ship(addr)]),
                L::Active { host, element, vault } | L::Deactivating { host, element, vault } => (
                    L::Deactivating { host, element, vault },
                    fx![count, E::Park, E::Count(s::MAGISTRATE_DEACTIVATIONS), E::SaveState(element, false)],
                ),
            }
        }
        V::ReceiveOpr(_, addr) => {
            let done = [E::NotifyClass(N::AddMagistrate), E::Reply(None)];
            match life {
                L::Deleting { activating: false } => (L::Inert { addr }, fx![done[0], done[1]]),
                L::Deleting { activating: true } => (L::Activating { addr, never_active: false }, fx![done[0], done[1]]),
                // The received OPR supersedes the copy held here.
                L::Inert { addr: old } => (L::Inert { addr }, fx![E::Drop(old), done[0], done[1]]),
                L::Shipping { addr: old, to, delete_after } =>
                    (L::Shipping { addr, to, delete_after }, fx![E::Drop(old), done[0], done[1]]),
                L::Activating { addr: old, .. } =>
                    (L::Activating { addr, never_active: false }, fx![E::Drop(old), done[0], done[1]]),
                // Item 1 (pin: `lifecycle::tests::receive_opr_over_active_forgets_the_process`):
                // the running process is never killed, and its host slot
                // and vault are never released.
                L::Active { .. } | L::Deactivating { .. } => (L::Inert { addr }, fx![done[0], done[1]]),
            }
        }
        V::Unreadable(0, error) => conclude(life, W::OprLoadFailed(error), fx![E::Count(s::MAGISTRATE_OPR_LOAD_FAILED)]),
        V::Unreadable(_, error) => conclude(life, W::OprReloadFailed(error), fx![]),
        V::NoHost => conclude(life, W::NoHost, fx![E::Count(s::MAGISTRATE_NO_HOST)]),
        // The host placed is dead: place again, three times at most.
        V::HostDown(_, attempts) if attempts < 3 => replace(life, attempts + 1, fx![]),
        V::HostDown(host, _) => conclude(life, W::HostUnreachable(host), fx![]),
        V::Activated(host, element, vault) => match life {
            // The record went while the host was starting the process (a
            // racing Move or Delete): the fresh process is an orphan.
            L::Deleting { .. } => (L::GONE, fx![E::Reap(host), E::Conclude(Err(W::RemovedDuringActivation))]),
            // At-most-once activation: a reply for an Active record never
            // overwrites it. From the host it runs on, that is the same
            // process answering again (HostActivate is idempotent); from
            // any other host it is a second process, reaped.
            L::Active { host: on, element: at, .. } | L::Deactivating { host: on, element: at, .. } =>
                (life, fx![(on != host).then_some(E::Reap(host)), E::Conclude(Ok(at))]),
            // With HA on, the activated OPR stays as the vault checkpoint;
            // without, it is consumed (rewritten at the next deactivation).
            L::Inert { addr } | L::Activating { addr, .. } | L::Shipping { addr, .. } => (
                L::Active { host, element, vault: vault.then_some(addr) },
                fx![(!vault).then_some(E::Drop(addr)), E::Slots(host, 1),
                    E::NotifyClass(N::SetAddress(Some(element))), E::Conclude(Ok(element))],
            ),
        },
        V::ActivationFailed(why) => conclude(life, why, fx![]),
        // Item 18 (pin: `lifecycle::tests::a_timed_out_host_activate_is_taken_as_a_refusal`):
        // a timeout is taken as a refusal, so if only the reply was lost
        // the first host's process runs on while another host is asked.
        V::HostRefused(attempts, error) => if attempts < 2 {
            replace(life, attempts + 1, fx![E::Count(s::MAGISTRATE_ACTIVATION_RETRY)])
        } else {
            conclude(life, W::HostRefused(error), fx![])
        },
        V::Saved(_) => match life {
            L::Active { host, element, vault } | L::Deactivating { host, element, vault } =>
                (L::Deactivating { host, element, vault }, fx![E::HostDeactivate(host)]),
            // Inert already — a racing deactivation finished first, or a
            // ReceiveOpr overwrote the record — and that is what this one
            // asked for; parked ships can go, as for `Deactivate`.
            L::Inert { addr } | L::Activating { addr, .. } | L::Shipping { addr, .. } =>
                (life, fx![E::Reply(None), E::Ship(addr)]),
            L::Deleting { .. } => (life, fx![E::FailDeactivation(W::RemovedDuringDeactivation)]),
        },
        V::DeactivationFailed(_, why) => match life {
            L::Deactivating { host, element, vault } => (L::Active { host, element, vault }, fx![E::FailDeactivation(why)]),
            L::Inert { .. } | L::Activating { .. } | L::Shipping { .. } | L::Active { .. } | L::Deleting { .. } =>
                (life, fx![E::FailDeactivation(why)]),
        },
        V::Killed(_, addr) => {
            let (cleared, reply) = (E::NotifyClass(N::SetAddress(None)), E::Reply(None));
            match life {
                // The process is already dead: just clean the OPR.
                L::Deleting { .. } => (life, fx![E::Drop(addr), E::FailDeactivation(W::RemovedDuringDeactivation)]),
                // The fresh OPR supersedes the activation-time vault.
                L::Active { host, vault, .. } | L::Deactivating { host, vault, .. } => (
                    L::Inert { addr },
                    fx![vault.map(E::Drop), E::Slots(host, -1), cleared, reply, E::Ship(addr)],
                ),
                L::Inert { .. } => (L::Inert { addr }, fx![cleared, reply, E::Ship(addr)]),
                L::Shipping { to: peer, delete_after, .. } =>
                    (L::Shipping { addr, to: peer, delete_after }, fx![cleared, reply, E::Ship(addr)]),
                L::Activating { .. } => (L::Activating { addr, never_active: false }, fx![cleared, reply, E::Ship(addr)]),
            }
        }
        V::KillFailed(_, addr, error) => {
            let fx = fx![E::Drop(addr), E::FailDeactivation(W::HostDeactivateFailed(error))];
            match life {
                L::Deactivating { host, element, vault } => (L::Active { host, element, vault }, fx),
                L::Inert { .. } | L::Activating { .. } | L::Shipping { .. } | L::Active { .. } | L::Deleting { .. } => (life, fx),
            }
        }
        V::Deleted(_) => finish_delete(life, fx![]),
        V::Sent(to, delete_after) => match life {
            L::Inert { addr } | L::Shipping { addr, .. } => (L::Shipping { addr, to, delete_after }, fx![]),
            L::Activating { .. } | L::Deleting { .. } | L::Active { .. } | L::Deactivating { .. } => (life, fx![]),
        },
        V::Shipped(_, false) => match life {
            L::Shipping { addr, .. } => (L::Inert { addr }, fx![E::Reply(None)]),
            L::Inert { .. } | L::Activating { .. } | L::Deleting { .. } | L::Active { .. } | L::Deactivating { .. } =>
                (life, fx![E::Reply(None)]),
        },
        // Move = Copy then Delete (§3.8).
        V::Shipped(_, true) => {
            let done = [E::NotifyClass(N::RemoveMagistrate), E::Reply(None)];
            match life {
                L::Deleting { .. } => (life, fx![done[1]]),
                L::Inert { addr } | L::Shipping { addr, .. } => (L::GONE, fx![E::Drop(addr), done[0], done[1]]),
                L::Activating { addr, .. } => (L::Deleting { activating: true }, fx![E::Drop(addr), done[0], done[1]]),
                // Item 1 (pin: `e08_stale_bindings::tests::churn_leaves_every_object_alive_once`):
                // the record goes whatever its state, so the process an
                // `Activate` started while the OPR was out runs on,
                // unreferenced, holding its host slot and its vault.
                L::Active { .. } | L::Deactivating { .. } => (L::GONE, fx![done[0], done[1]]),
            }
        }
        V::ShipFailed(_, why) => match life {
            L::Shipping { addr, .. } => (L::Inert { addr }, fx![E::Refuse(why)]),
            L::Inert { .. } | L::Activating { .. } | L::Deleting { .. } | L::Active { .. } | L::Deactivating { .. } =>
                (life, fx![E::Refuse(why)]),
        },
        // Re-home an object that died with its host: back to Inert at the
        // vault checkpoint, then through the normal activation path.
        V::HostDead(dead) => match life {
            L::Active { host, vault: Some(vault), .. } | L::Deactivating { host, vault: Some(vault), .. } if host == dead => (
                L::Activating { addr: vault, never_active: false },
                fx![E::Slots(host, -1), E::Count(s::MAGISTRATE_HA_RECOVERIES), E::Recover,
                    E::NotifyClass(N::SetAddress(None)), E::HostActivate(vault, 0)],
            ),
            // No checkpoint to restart from (HA was enabled after this
            // activation): the object is gone until someone re-creates it.
            L::Active { host, vault: None, .. } | L::Deactivating { host, vault: None, .. } if host == dead => (
                life,
                fx![E::Count(s::MAGISTRATE_HA_UNRECOVERABLE), E::Note("ha.unrecoverable"), E::Slots(host, -1)],
            ),
            L::Active { .. } | L::Deactivating { .. } | L::Deleting { .. } | L::Inert { .. } | L::Activating { .. } | L::Shipping { .. } =>
                (life, fx![]),
        },
        // Item 14 (pin: `e15_crash_recovery::tests::false_positive_dead_verdict_leaves_no_object_running_twice`):
        // a host declared Dead by mistake comes back, and nothing reaps
        // the processes of the objects re-homed from it.
        V::HostBack(_) => match life {
            L::Inert { .. } | L::Activating { .. } | L::Shipping { .. } | L::Active { .. } | L::Deactivating { .. } | L::Deleting { .. } =>
                (life, fx![]),
        },
    }
}

/// Place the object again after a failed `HostActivate`, if it is still
/// Inert: the state went with that call, so it is read back from the OPR,
/// which stays in storage until a host accepts.
#[rustfmt::skip]
fn replace(life: Life, attempts: u32, mut fx: Effects<'_>) -> (Life, Effects<'_>) {
    match life {
        Life::Inert { addr } | Life::Activating { addr, .. } | Life::Shipping { addr, .. } =>
            fx.push(Effect::HostActivate(addr, attempts)),
        Life::Active { .. } | Life::Deactivating { .. } | Life::Deleting { .. } => {}
    }
    (life, fx)
}

/// The activation in flight failed: everyone parked on it hears `why`,
/// and a creation that never was Active is undone with its OPR.
#[rustfmt::skip]
fn conclude<'a>(life: Life, why: Why<'a>, mut fx: Effects<'a>) -> (Life, Effects<'a>) {
    fx.push(Effect::Conclude(Err(why)));
    let next = match life {
        Life::Activating { addr, never_active: true, .. } => { fx.push(Effect::Drop(addr)); Life::GONE }
        Life::Activating { addr, .. } => Life::Inert { addr },
        Life::Deleting { .. } => Life::GONE,
        Life::Inert { .. } | Life::Shipping { .. } | Life::Active { .. } | Life::Deactivating { .. } => life,
    };
    (next, fx)
}

/// The rest of a Delete: remove the object's copies, Active and Inert,
/// and answer. The class row update is driven by the class (it called
/// this Magistrate); the Current Magistrate List is still updated
/// defensively.
#[rustfmt::skip]
fn finish_delete(life: Life, mut fx: Effects<'_>) -> (Life, Effects<'_>) {
    let next = match life {
        Life::Deleting { .. } => life,
        Life::Inert { addr } | Life::Shipping { addr, .. } => { fx.push(Effect::Drop(addr)); Life::GONE }
        Life::Activating { addr, .. } => { fx.push(Effect::Drop(addr)); Life::Deleting { activating: true } }
        Life::Active { host, vault, .. } | Life::Deactivating { host, vault, .. } => {
            fx.push(vault.map(Effect::Drop));
            fx.push(Effect::Slots(host, -1));
            Life::GONE
        }
    };
    if !matches!(life, Life::Deleting { .. }) {
        fx.push(Effect::NotifyClass(Notice::RemoveMagistrate));
    }
    fx.push(Effect::Reply(None));
    (next, fx)
}

#[cfg(test)]
mod tests {
    //! Rows of the reducer, stepped without a kernel. Each known bug has
    //! its row here as it stands today, named after the test that pins
    //! the bug; the fix flips the row and its test together.

    use super::*;
    use legion_core::env::InvocationEnv;
    use legion_net::message::{CallId, Message};
    use legion_persist::storage::FileName;

    const HOST_A: Loid = Loid::instance(3, 1);
    const HOST_B: Loid = Loid::instance(3, 2);
    const PEER: Loid = Loid::instance(4, 2);
    const OBJ: Loid = Loid::instance(16, 1);

    fn ticket(n: u64) -> ReplyTicket {
        let call = Message::call(
            CallId(n),
            OBJ,
            s::ACTIVATE,
            vec![],
            InvocationEnv::solo(PEER),
        );
        call.reply_ticket()
    }

    fn addr(seq: u64) -> PersistentAddress {
        let name = FileName::Opr { loid: OBJ, seq };
        PersistentAddress {
            jurisdiction: 0,
            disk: 0,
            name,
        }
    }

    fn active(host: Loid) -> Life {
        let element = ObjectAddressElement::sim(7);
        Life::Active {
            host,
            element,
            vault: Some(addr(1)),
        }
    }

    fn run<'a>(life: Life, ev: LifeEvent<'a>) -> (Life, Vec<Effect<'a>>) {
        let (life, fx) = step(&life, &ev);
        (life, fx.iter().copied().collect())
    }

    /// Item 1, Move vs. Activate: an `Activate` for an object whose OPR is
    /// out for a Move starts a second activation, and the Move's reply then
    /// drops the Active record without reaping its process, releasing its
    /// host slot or deleting its vault.
    #[test]
    fn churn_leaves_every_object_alive_once() {
        let shipping = Life::Shipping {
            addr: addr(2),
            to: PEER,
            delete_after: true,
        };
        let activating = Life::Activating {
            addr: addr(2),
            never_active: false,
        };
        assert_eq!(
            run(shipping, LifeEvent::Activate(ticket(1), None)),
            (
                activating,
                vec![
                    Effect::Count(s::MAGISTRATE_ACTIVATIONS),
                    Effect::Park,
                    Effect::HostActivate(addr(2), 0),
                ]
            )
        );
        assert_eq!(
            run(active(HOST_A), LifeEvent::Shipped(ticket(2), true)),
            (
                Life::GONE,
                vec![
                    Effect::NotifyClass(Notice::RemoveMagistrate),
                    Effect::Reply(None),
                ]
            )
        );
    }

    /// Item 1, ReceiveOpr over Active: the received OPR overwrites the
    /// record, and the process it described runs on.
    #[test]
    fn receive_opr_over_active_forgets_the_process() {
        assert_eq!(
            run(active(HOST_A), LifeEvent::ReceiveOpr(ticket(3), addr(4))),
            (
                Life::Inert { addr: addr(4) },
                vec![
                    Effect::NotifyClass(Notice::AddMagistrate),
                    Effect::Reply(None),
                ]
            )
        );
    }

    /// Item 14: a host declared Dead by mistake comes back, and the object
    /// re-homed from it to another host is not reaped there.
    #[test]
    fn false_positive_dead_verdict_leaves_no_object_running_twice() {
        let rehomed = active(HOST_B);
        assert_eq!(run(rehomed, LifeEvent::HostBack(HOST_A)), (rehomed, vec![]));
    }

    /// Item 18: a `HostActivate` that timed out is taken as refused, so
    /// another host is placed while the first one's process, if only the
    /// reply was lost, runs on — and after two retries the activation
    /// fails with the process still running.
    #[test]
    fn a_timed_out_host_activate_is_taken_as_a_refusal() {
        let timeout = "call timed out after 500000000ns";
        let asked = Life::Activating {
            addr: addr(2),
            never_active: false,
        };
        assert_eq!(
            run(asked, LifeEvent::HostRefused(0, timeout)),
            (
                asked,
                vec![
                    Effect::Count(s::MAGISTRATE_ACTIVATION_RETRY),
                    Effect::HostActivate(addr(2), 1),
                ]
            )
        );
        assert_eq!(
            run(asked, LifeEvent::HostRefused(2, timeout)),
            (
                Life::Inert { addr: addr(2) },
                vec![Effect::Conclude(Err(Why::HostRefused(timeout)))]
            )
        );
    }

    /// A deactivation whose `SaveState` is answered after the object
    /// became Inert is answered, since the object is Inert as asked, and
    /// the Copy/Moves parked behind it ship.
    #[test]
    fn a_deactivation_that_finds_the_object_inert_is_answered() {
        let inert = Life::Inert { addr: addr(2) };
        let answered = (inert, vec![Effect::Reply(None), Effect::Ship(addr(2))]);
        assert_eq!(run(inert, LifeEvent::Saved(Some(ticket(5)))), answered);
    }

    /// Every state meets every event without overflowing a row's effects
    /// or panicking.
    #[test]
    fn every_row_fits_its_effects() {
        let element = ObjectAddressElement::sim(7);
        let error = StorageError::NoSuchDisk(9);
        let void = LegionValue::Void;
        let lives = [
            Life::Inert { addr: addr(1) },
            Life::Activating {
                addr: addr(1),
                never_active: true,
            },
            Life::Activating {
                addr: addr(1),
                never_active: false,
            },
            active(HOST_A),
            Life::Active {
                host: HOST_A,
                element,
                vault: None,
            },
            Life::Deactivating {
                host: HOST_A,
                element,
                vault: Some(addr(1)),
            },
            Life::Deactivating {
                host: HOST_A,
                element,
                vault: None,
            },
            Life::Shipping {
                addr: addr(1),
                to: PEER,
                delete_after: true,
            },
            Life::Deleting { activating: true },
            Life::GONE,
        ];
        let t = ticket(1);
        let events = [
            LifeEvent::Activate(t, Some(HOST_B)),
            LifeEvent::Create(t, addr(2)),
            LifeEvent::Deactivate(t),
            LifeEvent::Delete(t),
            LifeEvent::Copy(PEER, true, t),
            LifeEvent::Copy(PEER, false, t),
            LifeEvent::ReceiveOpr(t, addr(2)),
            LifeEvent::Unreadable(0, &error),
            LifeEvent::Unreadable(1, &error),
            LifeEvent::NoHost,
            LifeEvent::HostDown(HOST_B, 1),
            LifeEvent::HostDown(HOST_B, 3),
            LifeEvent::Activated(HOST_B, element, true),
            LifeEvent::Activated(HOST_A, element, false),
            LifeEvent::ActivationFailed(Why::UnexpectedHostReply(&void)),
            LifeEvent::HostRefused(0, "refused"),
            LifeEvent::HostRefused(2, "refused"),
            LifeEvent::Saved(Some(t)),
            LifeEvent::DeactivationFailed(None, Why::SaveStateUnreachable),
            LifeEvent::Killed(Some(t), addr(2)),
            LifeEvent::KillFailed(None, addr(2), "refused"),
            LifeEvent::Deleted(t),
            LifeEvent::Sent(PEER, true),
            LifeEvent::Shipped(t, true),
            LifeEvent::Shipped(t, false),
            LifeEvent::ShipFailed(t, Why::PeerUnreachable(PEER)),
            LifeEvent::HostDead(HOST_A),
            LifeEvent::HostBack(HOST_A),
        ];
        for life in lives {
            for ev in events {
                step(&life, &ev);
            }
        }
    }
}
