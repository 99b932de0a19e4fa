//! The deterministic discrete-event kernel.
//!
//! Every Active Legion object (and every Host Object, Magistrate, Binding
//! Agent, and class object) runs as an **endpoint** attached to the
//! kernel. Endpoints interact only through messages — the paper's
//! "independent, address space disjoint objects" — and through timers.
//! The kernel:
//!
//! * delivers messages with topology-sampled latency ([`crate::topology`]),
//! * applies the fault plan ([`crate::faults`]),
//! * counts traffic per endpoint (the §5.2 "distributed systems principle"
//!   measurements) and globally,
//! * is fully deterministic for a given seed (events are ordered by
//!   `(time, sequence)`),
//! * lets handlers spawn and remove endpoints (activation/deactivation).
//!
//! Sends to a *dead or unknown* endpoint fail **detectably** at the sender
//! (connection refused) — this is the §4.1.4 signal that a cached binding
//! has gone stale. Random drops and partitions are *silent*.
//!
//! This file is the **stepper**: ordering, delivery, endpoint lifecycle,
//! and the state snapshots replay starts from. Everything that *watches*
//! events — metrics, traces, flight recorder, profiler, SLO tracker,
//! journal — sits behind the one seam in `watch.rs`, which also holds the
//! observability half of [`SimKernel`]'s and [`Ctx`]'s public surface.

use crate::equeue::EventQueue;
use crate::faults::{DedupState, FaultPlan, Verdict};
use crate::message::{Body, CallId, Message, ReplyTicket};
use crate::metrics::Histogram;
use crate::pool::MessagePool;
use crate::topology::{Location, Topology};
use crate::watch::Watcher;
use legion_core::address::{AddressSemantics, ObjectAddress, ObjectAddressElement};
use legion_core::binding::Binding;
use legion_core::env::InvocationEnv;
use legion_core::loid::Loid;
use legion_core::symbol::{self, Sym};
use legion_core::time::SimTime;
use legion_core::trace::TraceContext;
use legion_core::value::LegionValue;
use legion_journal::{JournalError, JournalSink, KernelJournal, ReplayStart};
use legion_obs::span::SpanEvent;
use legion_persist::cas::ChunkId;
use legion_persist::Writer as StateWriter;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::fmt;

// Re-exported so endpoint crates can record flight events through
// [`Ctx::flight`] without depending on `legion-obs` or `legion-journal`
// directly.
pub use legion_journal::RecordKind;
pub use legion_obs::recorder::{FlightEvent, FlightRecorder};

/// The flight recorder's kind is the journal's: this second name is kept
/// only for `benchmark/`, which names it, and is deleted by the next
/// benchmark change (ROADMAP item 5).
pub use legion_journal::RecordKind as FlightKind;

/// Identifies an endpoint attached to the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EndpointId(pub u64);

impl EndpointId {
    /// The address element for this endpoint.
    pub fn element(self) -> ObjectAddressElement {
        ObjectAddressElement::sim(self.0)
    }

    /// A single-element Object Address for this endpoint.
    pub fn address(self) -> ObjectAddress {
        ObjectAddress::single(self.element())
    }
}

impl fmt::Display for EndpointId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ep{}", self.0)
    }
}

/// A simulated process: receives messages and timer ticks.
///
/// `Any` is a supertrait so tests and drivers can downcast endpoints for
/// inspection (`SimKernel::endpoint::<T>`).
pub trait Endpoint: Any {
    /// Called once, right after the endpoint is attached.
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}
    /// A message arrived.
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message);
    /// A timer set via [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _tag: u64) {}
}

/// Descriptive and accounting data for one endpoint.
#[derive(Debug, Clone)]
pub struct EndpointMeta {
    /// Where the endpoint lives (latency tiers, partitions).
    pub location: Location,
    /// Human-readable name for reports.
    pub name: String,
    /// Messages delivered to this endpoint.
    pub received: u64,
    /// Messages this endpoint attempted to send.
    pub sent: u64,
    /// Latency distribution of messages delivered to this endpoint.
    pub in_latency: Histogram,
    /// Is the endpoint alive? Dead endpoints refuse sends detectably.
    pub alive: bool,
}

/// How many per-sender sequence numbers each receiver remembers for
/// at-most-once delivery. Far larger than any realistic in-flight window,
/// so reordered originals are never mistaken for duplicates.
const DEDUP_WINDOW: usize = 1024;

struct Slot {
    ep: Option<Box<dyn Endpoint>>,
    meta: EndpointMeta,
    /// Next per-sender sequence number stamped onto this endpoint's sends.
    next_seq: u64,
    /// Receiver half of at-most-once delivery: sequence numbers already
    /// admitted, per sender.
    seen: DedupState,
    /// Has anything [`encode_slot`] writes changed since the last
    /// snapshot? Set by the three methods below, the only writers of
    /// that state once the slot exists.
    dirty: bool,
}

impl Slot {
    fn new(meta: EndpointMeta, ep: Box<dyn Endpoint>) -> Self {
        Slot {
            ep: Some(ep),
            meta,
            next_seq: 0,
            seen: DedupState::new(DEDUP_WINDOW),
            dirty: true,
        }
    }

    /// First sight of `(sender, seq_no)` at this receiver?
    fn admit(&mut self, sender: u64, seq_no: u64) -> bool {
        self.dirty = true;
        self.seen.admit(sender, seq_no)
    }

    /// The sequence number for this endpoint's next send.
    fn stamp_seq(&mut self) -> u64 {
        self.dirty = true;
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    fn mark_dead(&mut self) {
        self.dirty = true;
        self.meta.alive = false;
    }
}

/// What every section encode reuses. The section names, and the ids of
/// what the previous snapshot saw, live in the journal session, which
/// hashes on its own thread and hands them on to the next session.
#[derive(Default)]
struct EncodeScratch {
    /// The one buffer every section is written into.
    w: StateWriter,
    /// The pending queue's `(at, seq, handle)` keys, for sorting.
    order: Vec<(SimTime, u64, u32)>,
}

type SectionEncoder = fn(&mut EncodeScratch, &Inner);

/// The kernel-wide state sections, re-encoded at every snapshot (each
/// changes with every event); per-slot sections follow them.
const KERNEL_SECTIONS: [(&str, SectionEncoder); 4] = [
    ("core", encode_core),
    ("rng", encode_rng),
    ("counters", encode_counters),
    ("queue", encode_queue),
];

// `Deliver` holds the message inline: events already live on the heap
// inside the queue's backing storage, so boxing the message again was a
// pure extra allocation on every accepted send. The variant size skew is
// the point — deliveries dominate the queue, so the per-event footprint
// is the message either way, minus the indirection.
#[allow(clippy::large_enum_variant)]
enum EventKind {
    Start,
    Deliver(Message),
    Timer(u64),
}

struct Event {
    at: SimTime,
    seq: u64,
    to: EndpointId,
    /// Trace context the event executes under: the message's context for
    /// deliveries, the context captured when the timer was armed for
    /// timers, none for starts.
    trace: TraceContext,
    /// `(sender, per-sender sequence number)` for deliveries: the key the
    /// receiver's at-most-once window checks. A duplicated message's two
    /// copies share one key. `None` for starts and timers.
    dedup: Option<(u64, u64)>,
    /// The hop latency this delivery paid (sim-time the profiler
    /// attributes to the handling endpoint). Zero for starts and timers.
    lat_ns: u64,
    kind: EventKind,
}

/// Global kernel statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelStats {
    /// Messages accepted into the network.
    pub sent: u64,
    /// Messages delivered to a live endpoint.
    pub delivered: u64,
    /// Messages silently lost (drops, partitions).
    pub lost: u64,
    /// Sends refused detectably (dead/unknown endpoint).
    pub refused: u64,
    /// Deliveries that found the endpoint dead on arrival.
    pub dead_letters: u64,
    /// Events processed.
    pub events: u64,
}

pub(crate) struct Inner {
    now: SimTime,
    seq: u64,
    next_call: u64,
    queue: EventQueue<Event>,
    topology: Topology,
    faults: FaultPlan,
    rng: SmallRng,
    stats: KernelStats,
    /// The trace context of the handler currently executing (stamped onto
    /// outgoing sends and captured by armed timers).
    pub(crate) current: TraceContext,
    /// Sequence counter for sends injected from outside the kernel.
    external_seq: u64,
    /// At-most-once delivery on/off (off only to demonstrate what a
    /// duplicating network does to an unprotected endpoint).
    dedup_enabled: bool,
    /// Free lists for recycled message-body buffers (arg vectors,
    /// binding shells) — see [`crate::pool`].
    pool: MessagePool,
    /// Everything that watches the event flow: told about each event,
    /// read back only by the snapshotter (named counters, journal marks).
    pub(crate) watch: Watcher,
}

/// The outcome of sending through an [`ObjectAddress`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SendReport {
    /// Elements the semantics selected for this send.
    pub attempted: usize,
    /// Sends accepted into the network (silent loss may still occur).
    pub accepted: usize,
}

/// The deterministic discrete-event kernel.
pub struct SimKernel {
    slots: Vec<Slot>,
    pub(crate) inner: Inner,
    scratch: EncodeScratch,
}

impl SimKernel {
    /// A kernel with the given topology, fault plan, and RNG seed.
    pub fn new(topology: Topology, faults: FaultPlan, seed: u64) -> Self {
        SimKernel {
            slots: Vec::new(),
            scratch: EncodeScratch::default(),
            inner: Inner {
                now: SimTime::ZERO,
                seq: 0,
                next_call: 1,
                queue: EventQueue::new(),
                topology,
                faults,
                rng: SmallRng::seed_from_u64(seed),
                stats: KernelStats::default(),
                current: TraceContext::NONE,
                external_seq: 0,
                dedup_enabled: true,
                pool: MessagePool::new(),
                watch: Watcher::default(),
            },
        }
    }

    /// A default-topology, fault-free kernel.
    pub fn with_seed(seed: u64) -> Self {
        SimKernel::new(Topology::default(), FaultPlan::none(), seed)
    }

    /// Attach an endpoint; its `on_start` runs at the current time.
    pub fn add_endpoint(
        &mut self,
        ep: Box<dyn Endpoint>,
        location: Location,
        name: impl Into<String>,
    ) -> EndpointId {
        let inner = &mut self.inner;
        let id = inner.attach(&mut self.slots, ep, location, name.into());
        inner.schedule_start(id);
        id
    }

    /// Remove (kill) an endpoint. Future sends to it are refused; queued
    /// deliveries become dead letters.
    pub fn remove_endpoint(&mut self, id: EndpointId) {
        self.inner.detach(&mut self.slots, id);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.inner.now
    }

    /// Global statistics.
    pub fn stats(&self) -> &KernelStats {
        &self.inner.stats
    }

    /// Reset named counters and per-endpoint traffic (not the clock).
    /// Observability state resets too: the flight recorder's ring, the
    /// profiler's stats and the SLO tracker's windows.
    pub fn reset_metrics(&mut self) {
        self.inner.watch.reset();
        self.inner.stats = KernelStats::default();
        for slot in &mut self.slots {
            slot.meta.received = 0;
            slot.meta.sent = 0;
            slot.meta.in_latency = Histogram::new();
        }
    }

    /// Metadata for an endpoint.
    pub fn meta(&self, id: EndpointId) -> Option<&EndpointMeta> {
        self.slots.get(id.0 as usize).map(|s| &s.meta)
    }

    /// Metadata for every endpoint, in id order.
    pub fn all_meta(&self) -> impl Iterator<Item = (EndpointId, &EndpointMeta)> {
        self.slots
            .iter()
            .enumerate()
            .map(|(i, s)| (EndpointId(i as u64), &s.meta))
    }

    /// Mutable fault plan (inject faults mid-run).
    pub fn faults_mut(&mut self) -> &mut FaultPlan {
        &mut self.inner.faults
    }

    /// Downcast a live endpoint for inspection.
    pub fn endpoint<T: Endpoint>(&self, id: EndpointId) -> Option<&T> {
        let slot = self.slots.get(id.0 as usize)?;
        let ep = slot.ep.as_deref()?;
        (ep as &dyn Any).downcast_ref::<T>()
    }

    /// Downcast a live endpoint for mutation (test setup only; production
    /// interaction goes through messages).
    pub fn endpoint_mut<T: Endpoint>(&mut self, id: EndpointId) -> Option<&mut T> {
        let slot = self.slots.get_mut(id.0 as usize)?;
        let ep = slot.ep.as_deref_mut()?;
        (ep as &mut dyn Any).downcast_mut::<T>()
    }

    /// Send a message from "outside Legion" (bootstrap, drivers, tests).
    /// Delivered at `now + latency from `from_location``.
    pub fn inject(
        &mut self,
        from_location: Location,
        to: ObjectAddressElement,
        msg: Message,
    ) -> bool {
        let inner = &mut self.inner;
        inner.watch.ingress(
            inner.now,
            RecordKind::Inject,
            to.sim_endpoint().unwrap_or(u64::MAX),
            kind_sym(&msg),
            msg.id.0,
            0,
            TraceContext::NONE,
            format_args!(""),
        );
        send_one(inner, &mut self.slots, from_location, None, to, msg)
    }

    /// A fresh call id for drivers injecting calls from outside.
    pub fn fresh_call_id(&mut self) -> CallId {
        self.inner.fresh_call_id()
    }

    /// Arm a timer on `to` from outside any handler (bootstrap and test
    /// harnesses configuring endpoints through `endpoint_mut` after
    /// their `on_start` already ran). Returns `false` if the endpoint is
    /// not alive.
    pub fn set_timer(&mut self, to: EndpointId, delay_ns: u64, tag: u64) -> bool {
        let live = is_live(&self.slots, to);
        if live {
            self.inner.arm_timer(to, delay_ns, tag);
        }
        live
    }

    /// Turn the receiver-side at-most-once window off (or back on).
    /// On by default; switching it off exists solely to demonstrate what
    /// a duplicating network does to an unprotected endpoint.
    pub fn set_dedup_enabled(&mut self, on: bool) {
        self.inner.dedup_enabled = on;
    }

    /// Start journaling every kernel ingress to `sink`, taking a
    /// content-addressed state snapshot every `snap_every` events
    /// (0 = never). Enable right after construction, before attaching
    /// endpoints, so the journal covers the whole run.
    pub fn enable_journal_record(&mut self, sink: Box<dyn JournalSink>, snap_every: u64) {
        let session = KernelJournal::record(sink, snap_every);
        self.inner.watch.journal().restart(session);
    }

    /// Verify this run against a reference journal: every ingress the
    /// re-execution produces is compared against the recorded one.
    /// `start` picks the fast path — from a snapshot mark, the prefix is
    /// skipped with a seq-alignment check and the snapshot's state root
    /// proves the re-executed state matches the recorded state there.
    pub fn enable_journal_verify(
        &mut self,
        data: Vec<u8>,
        start: ReplayStart,
    ) -> Result<(), JournalError> {
        let session = KernelJournal::verify(data, start)?;
        self.inner.watch.journal().restart(session);
        Ok(())
    }

    /// Snapshot the kernel's replay-relevant state as named sections of
    /// content-addressed bytes: [`KERNEL_SECTIONS`], then one per slot.
    /// Pure metrics (histograms, per-endpoint traffic) are excluded: they
    /// are derived observations, not inputs to execution.
    ///
    /// The cost follows what changed since the last snapshot, not what
    /// the kernel holds: a slot nobody touched is not encoded at all and
    /// keeps its remembered id, and what is encoded goes through one
    /// reused buffer into the journal session, which hashes it on its
    /// own thread and keeps no bytes. An id is a content hash, so it
    /// stays good across journal sessions. Recording and verifying run
    /// the same code, so their roots agree.
    fn take_snapshot(&mut self) {
        let SimKernel {
            slots,
            inner,
            scratch,
        } = self;
        let count = KERNEL_SECTIONS.len() + slots.len();
        for pos in 0..count {
            match KERNEL_SECTIONS.get(pos) {
                Some((_, encode)) => {
                    scratch.w.clear();
                    encode(scratch, inner);
                }
                None => {
                    let slot = &mut slots[pos - KERNEL_SECTIONS.len()];
                    if !std::mem::take(&mut slot.dirty) {
                        continue;
                    }
                    scratch.w.clear();
                    encode_slot(&mut scratch.w, slot);
                }
            }
            inner
                .watch
                .journal()
                .snapshot_section(pos, scratch.w.as_bytes());
        }
        let (at, events) = (inner.now.as_nanos(), inner.stats.events);
        inner.watch.journal().on_snapshot(at, events, count, |pos| {
            match KERNEL_SECTIONS.get(pos) {
                Some((name, _)) => (*name).to_owned(),
                None => format!("ep{}", pos - KERNEL_SECTIONS.len()),
            }
        });
    }

    /// The first clean slot whose remembered section id no longer
    /// matches its state — a write that bypassed the dirty mark. Debug
    /// builds ask after every snapshot; it waits for the journal thread's
    /// ids and encodes every clean slot from scratch, which is what
    /// snapshots no longer do.
    fn stale_slot_section(&mut self) -> Option<usize> {
        let SimKernel {
            slots,
            inner,
            scratch,
        } = self;
        let w = &mut scratch.w;
        let journal = inner.watch.journal();
        slots.iter().enumerate().position(|(i, slot)| {
            !slot.dirty && {
                w.clear();
                encode_slot(w, slot);
                journal.section_id(KERNEL_SECTIONS.len() + i) != Some(ChunkId::of(w.as_bytes()))
            }
        })
    }

    /// Process the next event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        // Snapshots land on the cadence boundary *between* events: after
        // the Nth event's handler fully ran, before the next pop. Both
        // the recording and the verifying run hit the same boundaries.
        let events = self.inner.stats.events;
        if self.inner.watch.journal().snapshot_due(events) {
            self.take_snapshot();
            debug_assert_eq!(
                self.stale_slot_section(),
                None,
                "a slot changed without being marked dirty"
            );
        }
        let Some(ev) = self.inner.queue.pop() else {
            return false;
        };
        debug_assert!(ev.at >= self.inner.now, "time must not run backwards");
        let now = ev.at;
        self.inner.now = now;
        self.inner.stats.events += 1;
        let (idx, ep_id) = (ev.to.0 as usize, ev.to.0);
        if !is_live(&self.slots, ev.to) {
            if let EventKind::Deliver(msg) = &ev.kind {
                self.inner.stats.dead_letters += 1;
                self.inner.watch.ingress(
                    now,
                    RecordKind::DeadLetter,
                    ep_id,
                    kind_sym(msg),
                    msg.id.0,
                    0,
                    ev.trace,
                    format_args!("dead_letter:{}", kind_sym(msg)),
                );
            }
            return true;
        }
        // At-most-once: a delivery whose (sender, seq) the receiver has
        // already admitted is suppressed before the endpoint sees it.
        if self.inner.dedup_enabled {
            if let (EventKind::Deliver(msg), Some((sender, seq_no))) = (&ev.kind, ev.dedup) {
                if !self.slots[idx].admit(sender, seq_no) {
                    self.inner.watch.count(now, symbol::NET_DEDUP_DROPPED, 1);
                    self.inner.watch.ingress(
                        now,
                        RecordKind::Dedup,
                        ep_id,
                        kind_sym(msg),
                        msg.id.0,
                        0,
                        ev.trace,
                        format_args!("dedup:{}", kind_sym(msg)),
                    );
                    return true;
                }
            }
        }
        let mut ep = self.slots[idx].ep.take().expect("alive implies present");
        {
            // The handler runs under the event's trace context; sends it
            // makes and timers it arms inherit it.
            self.inner.current = ev.trace;
            let mut ctx = Ctx {
                self_id: ev.to,
                inner: &mut self.inner,
                slots: &mut self.slots,
                spawned: Vec::new(),
            };
            match ev.kind {
                EventKind::Start => {
                    ctx.inner.watch.lifecycle(now, RecordKind::Start, ep_id, "");
                    ep.on_start(&mut ctx)
                }
                EventKind::Deliver(msg) => {
                    ctx.slots[idx].meta.received += 1;
                    ctx.inner.stats.delivered += 1;
                    let method = kind_sym(&msg);
                    ctx.inner.watch.ingress(
                        now,
                        RecordKind::Deliver,
                        ep_id,
                        method,
                        msg.id.0,
                        ev.lat_ns,
                        ev.trace,
                        format_args!("{method}"),
                    );
                    let started = ctx.inner.watch.handler_start();
                    ep.on_message(&mut ctx, msg);
                    ctx.inner
                        .watch
                        .handler_done(started, ep_id, method, ev.lat_ns);
                }
                EventKind::Timer(tag) => {
                    ctx.inner.watch.ingress(
                        now,
                        RecordKind::TimerFire,
                        ep_id,
                        symbol::EMPTY,
                        tag,
                        0,
                        ev.trace,
                        format_args!("tag={tag}"),
                    );
                    ep.on_timer(&mut ctx, tag)
                }
            }
            let spawned = std::mem::take(&mut ctx.spawned);
            drop(ctx);
            self.inner.current = TraceContext::NONE;
            // Schedule Start events for endpoints spawned by the handler.
            for id in spawned {
                self.inner.schedule_start(id);
            }
        }
        // The handler may have killed its own endpoint.
        if self.slots[idx].meta.alive {
            self.slots[idx].ep = Some(ep);
        }
        true
    }

    /// Run until the event queue drains or `max_events` were processed.
    /// Returns the number of events processed.
    pub fn run_until_quiescent(&mut self, max_events: u64) -> u64 {
        let mut n = 0;
        while n < max_events && self.step() {
            n += 1;
        }
        n
    }

    /// Run until virtual time reaches `deadline` (events after it stay
    /// queued) or the queue drains. The boundary check is an O(1) peek
    /// of the wheel's ready lane — no pop/re-push at the deadline.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut n = 0;
        loop {
            match self.inner.queue.peek_key() {
                Some((at, _)) if at <= deadline.as_nanos() => {
                    self.step();
                    n += 1;
                }
                _ => break,
            }
        }
        self.inner.now = self.inner.now.max(deadline);
        n
    }

    /// Number of endpoints ever attached (dead slots included).
    pub fn endpoint_count(&self) -> usize {
        self.slots.len()
    }

    /// Are there pending events?
    pub fn is_quiescent(&self) -> bool {
        self.inner.queue.is_empty()
    }

    /// High-water mark of the pending-event queue over the kernel's
    /// lifetime — the E17 scale campaign's queue-pressure metric.
    /// Derived observability, deliberately *not* part of the serialized
    /// kernel state or metrics snapshot.
    pub fn queue_peak_len(&self) -> usize {
        self.inner.queue.peak_len()
    }
}

impl Inner {
    /// The single ingress into the event wheel: stamps the next insertion
    /// seq onto the event and keys it by `(time, seq)`, the kernel's
    /// deterministic total order. All scheduling goes through here
    /// (`tools/lint_hotpath.sh` holds future code to it).
    fn schedule(
        &mut self,
        at: SimTime,
        to: EndpointId,
        trace: TraceContext,
        dedup: Option<(u64, u64)>,
        lat_ns: u64,
        kind: EventKind,
    ) {
        let seq = self.seq;
        self.seq += 1;
        let ev = Event {
            at,
            seq,
            to,
            trace,
            dedup,
            lat_ns,
            kind,
        };
        self.queue.push(at.as_nanos(), seq, ev);
    }

    /// Run `id`'s `on_start` at the current time.
    fn schedule_start(&mut self, id: EndpointId) {
        self.schedule(self.now, id, TraceContext::NONE, None, 0, EventKind::Start);
    }

    /// Fire `on_timer(tag)` on `to` after `delay_ns`, under the trace
    /// context of the handler arming it (none outside a handler).
    fn arm_timer(&mut self, to: EndpointId, delay_ns: u64, tag: u64) {
        let at = self.now.saturating_add(delay_ns);
        self.schedule(at, to, self.current, None, 0, EventKind::Timer(tag));
    }

    /// Attach `ep` as the next slot. The caller schedules its start.
    fn attach(
        &mut self,
        slots: &mut Vec<Slot>,
        ep: Box<dyn Endpoint>,
        location: Location,
        name: String,
    ) -> EndpointId {
        let id = EndpointId(slots.len() as u64);
        self.watch
            .lifecycle(self.now, RecordKind::Attach, id.0, &name);
        let meta = EndpointMeta {
            location,
            name,
            received: 0,
            sent: 0,
            in_latency: Histogram::new(),
            alive: true,
        };
        slots.push(Slot::new(meta, ep));
        id
    }

    /// Kill `id` and drop its endpoint. An endpoint killing itself is
    /// mid-handler — its box is out of the slot already and is dropped
    /// when the handler returns.
    fn detach(&mut self, slots: &mut [Slot], id: EndpointId) {
        if let Some(slot) = slots.get_mut(id.0 as usize) {
            slot.mark_dead();
            slot.ep = None;
            self.watch.lifecycle(self.now, RecordKind::Detach, id.0, "");
        }
    }

    fn fresh_call_id(&mut self) -> CallId {
        let id = CallId(self.next_call);
        self.next_call += 1;
        id
    }
}

/// Is `id` attached and alive, its endpoint in its slot?
fn is_live(slots: &[Slot], id: EndpointId) -> bool {
    slots
        .get(id.0 as usize)
        .is_some_and(|s| s.meta.alive && s.ep.is_some())
}

fn encode_core(EncodeScratch { w, .. }: &mut EncodeScratch, inner: &Inner) {
    w.put_u64(inner.now.as_nanos());
    w.put_u64(inner.seq);
    w.put_u64(inner.next_call);
    w.put_u64(inner.external_seq);
    w.put_u8(inner.dedup_enabled as u8);
    w.put_u64(inner.stats.sent);
    w.put_u64(inner.stats.delivered);
    w.put_u64(inner.stats.lost);
    w.put_u64(inner.stats.refused);
    w.put_u64(inner.stats.dead_letters);
    w.put_u64(inner.stats.events);
}

fn encode_rng(EncodeScratch { w, .. }: &mut EncodeScratch, inner: &Inner) {
    for word in inner.rng.state() {
        w.put_u64(word);
    }
}

fn encode_counters(EncodeScratch { w, .. }: &mut EncodeScratch, inner: &Inner) {
    for (name, value) in inner.watch.counters().iter() {
        w.put_str(name);
        w.put_u64(value);
    }
}

/// The pending queue, in deterministic (time, seq) order — the wheel's
/// internal layout is not canonical. Varints throughout: most of what a
/// queued event carries is small or zero (an untraced event's trace and
/// span ids are one byte each).
fn encode_queue(EncodeScratch { w, order }: &mut EncodeScratch, inner: &Inner) {
    order.clear();
    order.extend(inner.queue.iter_handles().map(|(h, e)| (e.at, e.seq, h)));
    order.sort_unstable();
    w.put_varint(order.len() as u64);
    for &(_, _, handle) in order.iter() {
        let e = inner.queue.get(handle).expect("a handle just listed");
        w.put_varint(e.at.as_nanos());
        w.put_varint(e.seq);
        w.put_varint(e.to.0);
        put_trace(w, e.trace);
        match e.dedup {
            Some((sender, n)) => {
                w.put_u8(1);
                w.put_varint(sender);
                w.put_varint(n);
            }
            None => w.put_u8(0),
        }
        w.put_varint(e.lat_ns);
        match &e.kind {
            EventKind::Start => w.put_u8(0),
            EventKind::Deliver(m) => {
                w.put_u8(1);
                encode_message(w, m);
            }
            EventKind::Timer(tag) => {
                w.put_u8(2);
                w.put_varint(*tag);
            }
        }
    }
}

fn put_trace(w: &mut StateWriter, trace: TraceContext) {
    w.put_varint(trace.trace.0);
    w.put_varint(trace.span.0);
}

/// One endpoint slot's replay-relevant state. Everything written here
/// is written only through [`Slot`]'s dirty-marking methods.
fn encode_slot(w: &mut StateWriter, slot: &Slot) {
    w.put_u32(slot.meta.location.jurisdiction);
    w.put_u32(slot.meta.location.host);
    w.put_str(&slot.meta.name);
    w.put_u8(slot.meta.alive as u8);
    w.put_varint(slot.next_seq);
    w.put_u64(slot.seen.state_digest());
}

/// Deterministically encode a queued message for a state snapshot, using
/// the OPR codec's primitives. Method names and errors are encoded as
/// strings so the bytes are stable across processes.
fn encode_message(w: &mut StateWriter, m: &Message) {
    w.put_varint(m.id.0);
    match &m.target {
        Some(l) => {
            w.put_u8(1);
            w.put_loid(l);
        }
        None => w.put_u8(0),
    }
    match &m.reply_to {
        Some(e) => {
            w.put_u8(1);
            w.put_element(e);
        }
        None => w.put_u8(0),
    }
    match &m.sender {
        Some(l) => {
            w.put_u8(1);
            w.put_loid(l);
        }
        None => w.put_u8(0),
    }
    w.put_loid(&m.env.responsible);
    w.put_loid(&m.env.security);
    w.put_loid(&m.env.calling);
    put_trace(w, m.env.trace);
    match &m.body {
        Body::Call { method, args } => {
            w.put_u8(0);
            w.put_str(method.as_str());
            w.put_varint(args.len() as u64);
            for a in args {
                w.put_value(a);
            }
        }
        Body::Reply {
            in_reply_to,
            result,
        } => {
            w.put_u8(1);
            w.put_varint(in_reply_to.0);
            match result {
                Ok(v) => {
                    w.put_u8(0);
                    w.put_value(v);
                }
                Err(e) => {
                    w.put_u8(1);
                    w.put_str(e);
                }
            }
        }
    }
}

/// The per-message-kind metrics key: the method symbol for calls,
/// [`symbol::REPLY`] for replies. A `Copy` of a `u32` — zero label work
/// per delivery, whether or not metrics consumers exist.
fn kind_sym(msg: &Message) -> Sym {
    msg.method_sym().unwrap_or(symbol::REPLY)
}

/// Attempt one physical send. Returns `true` if accepted (delivery still
/// subject to silent loss); `false` for a detectable refusal.
fn send_one(
    inner: &mut Inner,
    slots: &mut [Slot],
    from_location: Location,
    from_slot: Option<usize>,
    to: ObjectAddressElement,
    mut msg: Message,
) -> bool {
    if let Some(i) = from_slot {
        slots[i].meta.sent += 1;
    }
    let from_ep = from_slot.map(|i| i as u64).unwrap_or(SpanEvent::EXTERNAL);
    let (kind, id) = (kind_sym(&msg), msg.id.0);
    inner
        .watch
        .hop_sent(inner.now, &mut msg.env.trace, from_ep, kind);
    let trace = msg.env.trace;
    // What became of the send, told to the watcher in one call: `b` is
    // the extra delay a fault verdict imposed, `why` the span label.
    let verdict = |inner: &mut Inner, what: RecordKind, b: u64, why: fmt::Arguments<'_>| {
        inner
            .watch
            .ingress(inner.now, what, from_ep, kind, id, b, trace, why);
    };
    let refuse = |inner: &mut Inner, why: &str| {
        inner.stats.refused += 1;
        verdict(inner, RecordKind::Refuse, 0, format_args!("{why}"));
        false
    };
    let Some(ep) = to.sim_endpoint() else {
        return refuse(inner, "refused:bad-address");
    };
    let Some(dest) = slots.get(ep as usize) else {
        return refuse(inner, "refused:unknown-endpoint");
    };
    if !dest.meta.alive {
        return refuse(inner, "refused:dead-endpoint");
    }
    let dest_location = dest.meta.location;
    inner.stats.sent += 1;
    // Stamp the per-sender sequence number the receiver's at-most-once
    // window will check (kernel-level; endpoints never see it).
    let seq_no = match from_slot {
        Some(i) => slots[i].stamp_seq(),
        None => {
            let s = inner.external_seq;
            inner.external_seq += 1;
            s
        }
    };
    let judged = inner
        .faults
        .judge(id, from_location, dest_location, inner.now);
    if judged == Verdict::DropSilently {
        inner.stats.lost += 1;
        verdict(inner, RecordKind::Drop, 0, format_args!("drop:silent"));
        return true;
    }
    // Latency is sampled only for messages that actually deliver, so the
    // RNG stream of a run without adversarial verdicts is unchanged.
    let mut effective = inner
        .topology
        .latency(from_location, dest_location, &mut inner.rng)
        .as_nanos();
    if let Verdict::Delay { extra_ns, factor } = judged {
        effective = effective
            .saturating_mul(factor as u64)
            .saturating_add(extra_ns);
        inner.watch.count(inner.now, symbol::NET_DELAYED, 1);
        verdict(
            inner,
            RecordKind::Delay,
            extra_ns,
            format_args!("delay:x{factor}+{extra_ns}ns"),
        );
    }
    slots[ep as usize].meta.in_latency.record(effective);
    let at = inner.now.saturating_add(effective);
    inner.watch.hop_latency(at, ep, kind, effective);
    let (dest, dedup) = (EndpointId(ep), Some((from_ep, seq_no)));
    // The duplicate copy shares the original's dedup key: with the
    // at-most-once window on, exactly one of the two reaches the endpoint.
    let copy = if let Verdict::Duplicate { extra_ns } = judged {
        inner.watch.count(inner.now, symbol::NET_DUPLICATED, 1);
        verdict(
            inner,
            RecordKind::Duplicate,
            extra_ns,
            format_args!("dup:+{extra_ns}ns"),
        );
        Some((at.saturating_add(extra_ns), msg.clone()))
    } else {
        None
    };
    inner.schedule(at, dest, trace, dedup, effective, EventKind::Deliver(msg));
    if let Some((copy_at, copy_msg)) = copy {
        let lat_ns = copy_at.as_nanos().saturating_sub(inner.now.as_nanos());
        inner.schedule(
            copy_at,
            dest,
            trace,
            dedup,
            lat_ns,
            EventKind::Deliver(copy_msg),
        );
    }
    true
}

/// The handler-side view of the kernel.
pub struct Ctx<'a> {
    self_id: EndpointId,
    pub(crate) inner: &'a mut Inner,
    slots: &'a mut Vec<Slot>,
    spawned: Vec<EndpointId>,
}

impl Ctx<'_> {
    /// This endpoint's id.
    pub fn self_id(&self) -> EndpointId {
        self.self_id
    }

    /// This endpoint's address element.
    pub fn self_element(&self) -> ObjectAddressElement {
        self.self_id.element()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.inner.now
    }

    /// A fresh call id.
    pub fn fresh_call_id(&mut self) -> CallId {
        self.inner.fresh_call_id()
    }

    /// An empty argument buffer from the kernel pool (capacity recycled
    /// from a spent call when one is available).
    pub fn take_args(&mut self) -> Vec<LegionValue> {
        self.inner.pool.take_args()
    }

    /// `values` as a call's argument list, in a buffer from the kernel
    /// pool: what `vec![…]` builds, without the allocation once a served
    /// call has handed a buffer back.
    pub fn args<const N: usize>(&mut self, values: [LegionValue; N]) -> Vec<LegionValue> {
        let mut args = self.take_args();
        args.extend(values);
        args
    }

    /// Return a spent argument buffer to the kernel pool.
    pub fn recycle_args(&mut self, args: Vec<LegionValue>) {
        self.inner.pool.recycle_args(args);
    }

    /// A `LegionValue::Binding` copy of `src`, built in a recycled shell
    /// when the pool has one (allocation-free on the steady path).
    pub fn binding_value(&mut self, src: &Binding) -> LegionValue {
        self.inner.pool.binding_value(src)
    }

    /// Recycle the heap shells of a consumed value (binding boxes, list
    /// vectors) back into the kernel pool.
    pub fn recycle_value(&mut self, value: LegionValue) {
        self.inner.pool.recycle_value(value);
    }

    /// Recycle a fully-handled message's body buffers back into the
    /// kernel pool (`dispatch::serve` calls this on every served call).
    pub fn recycle_message(&mut self, msg: Message) {
        self.inner.pool.recycle_message(msg);
    }

    /// This endpoint's location.
    pub fn location(&self) -> Location {
        self.slots[self.self_id.0 as usize].meta.location
    }

    /// Send to one address element. `true` = accepted (may still be lost
    /// silently); `false` = detectably refused (stale address, §4.1.4).
    pub fn send(&mut self, to: ObjectAddressElement, mut msg: Message) -> bool {
        if msg.reply_to.is_none() {
            msg.reply_to = Some(self.self_element());
        }
        self.post(to, msg)
    }

    /// Put `msg` on the wire as it stands — [`Ctx::send`] without the
    /// reply address filled in.
    fn post(&mut self, to: ObjectAddressElement, mut msg: Message) -> bool {
        // Stamp the current trace context unless the caller set one
        // explicitly (e.g. a message built from a stored environment).
        if !msg.env.trace.is_active() {
            msg.env.trace = self.inner.current;
        }
        let loc = self.location();
        send_one(
            self.inner,
            self.slots,
            loc,
            Some(self.self_id.0 as usize),
            to,
            msg,
        )
    }

    /// Send through a full [`ObjectAddress`], honouring its semantics
    /// (§3.4, §4.3).
    pub fn send_address(&mut self, addr: &ObjectAddress, msg: Message) -> SendReport {
        let elements = &addr.elements;
        if elements.is_empty() {
            return SendReport::default();
        }
        let targets: Vec<ObjectAddressElement> = match addr.semantics {
            AddressSemantics::Single | AddressSemantics::User(_) => vec![elements[0]],
            AddressSemantics::SendToAll => elements.to_vec(),
            AddressSemantics::PickRandom => {
                let i = self.inner.rng.gen_range(0..elements.len());
                vec![elements[i]]
            }
            AddressSemantics::KOfN(k) => {
                let mut pool = elements.to_vec();
                pool.shuffle(&mut self.inner.rng);
                pool.truncate((k as usize).min(elements.len()));
                pool
            }
            AddressSemantics::FirstReachable => {
                // Try in order until a send is accepted.
                let mut report = SendReport::default();
                for e in elements {
                    report.attempted += 1;
                    if self.send(*e, msg.clone()) {
                        report.accepted += 1;
                        break;
                    }
                }
                return report;
            }
        };
        let mut report = SendReport::default();
        for e in targets {
            report.attempted += 1;
            if self.send(e, msg.clone()) {
                report.accepted += 1;
            }
        }
        report
    }

    /// Issue a method call to `to`, returning the fresh [`CallId`] if the
    /// send was accepted.
    pub fn call(
        &mut self,
        to: ObjectAddressElement,
        target: Loid,
        method: impl Into<Sym>,
        args: Vec<LegionValue>,
        env: InvocationEnv,
        sender: Option<Loid>,
    ) -> Option<CallId> {
        let id = self.fresh_call_id();
        let mut msg = Message::call(id, target, method, args, env);
        msg.sender = sender;
        if self.send(to, msg) {
            Some(id)
        } else {
            None
        }
    }

    /// Tell `to` something without waiting to hear back: a method call
    /// that carries **no reply address**. The callee serves it like any
    /// other call, but whatever its handler returns, nothing is sent back
    /// ([`Ctx::reply_ticket`] has nowhere to send it) — one message where
    /// a [`Ctx::call`] whose reply nobody reads costs two. `false` on a
    /// detectable refusal, as for `call`.
    pub fn notify(
        &mut self,
        to: ObjectAddressElement,
        target: Loid,
        method: impl Into<Sym>,
        args: Vec<LegionValue>,
        env: InvocationEnv,
        sender: Option<Loid>,
    ) -> bool {
        let id = self.fresh_call_id();
        let mut msg = Message::call(id, target, method, args, env);
        msg.sender = sender;
        self.post(to, msg)
    }

    /// Reply to `call` with `result`. Returns `false` if the caller's
    /// address is unknown or refused.
    pub fn reply(&mut self, call: &Message, result: Result<LegionValue, String>) -> bool {
        self.reply_ticket(call.reply_ticket(), result)
    }

    /// [`Ctx::reply`] to a call that was not kept, through the
    /// [`ReplyTicket`] taken from it.
    pub fn reply_ticket(&mut self, call: ReplyTicket, result: Result<LegionValue, String>) -> bool {
        let Some(dest) = call.reply_to() else {
            return false;
        };
        let id = self.fresh_call_id();
        self.send(dest, call.reply(id, result))
    }

    /// Fire `on_timer(tag)` on this endpoint after `delay_ns`. The timer
    /// captures the current trace context, so the firing handler resumes
    /// the same trace (retry/backoff stays attributed to its request).
    pub fn set_timer(&mut self, delay_ns: u64, tag: u64) {
        self.inner.arm_timer(self.self_id, delay_ns, tag);
    }

    /// Spawn a new endpoint (activation); its `on_start` runs right after
    /// the current handler returns.
    pub fn spawn(
        &mut self,
        ep: Box<dyn Endpoint>,
        location: Location,
        name: impl Into<String>,
    ) -> EndpointId {
        let id = self.inner.attach(self.slots, ep, location, name.into());
        self.spawned.push(id);
        id
    }

    /// Kill an endpoint (deactivation). Killing `self` is allowed: the
    /// current handler finishes, then the endpoint is dropped.
    pub fn kill(&mut self, id: EndpointId) {
        self.inner.detach(self.slots, id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Body;
    use legion_core::address::AddressSemantics;
    use legion_obs::span::SpanEventKind;

    /// Echoes every call back as a reply carrying the same args.
    struct Echo {
        loid: Loid,
        got: Vec<String>,
    }

    impl Echo {
        fn new(loid: Loid) -> Self {
            Echo {
                loid,
                got: Vec::new(),
            }
        }
    }

    impl Endpoint for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            if let Some(m) = msg.method() {
                self.got.push(m.to_owned());
                ctx.count("echo_calls");
                let args = msg.args().to_vec();
                ctx.reply(&msg, Ok(LegionValue::List(args)));
            }
            let _ = self.loid;
        }
    }

    /// Records replies it receives.
    #[derive(Default)]
    struct Client {
        replies: Vec<Result<LegionValue, String>>,
    }

    impl Endpoint for Client {
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, msg: Message) {
            if let Body::Reply { result, .. } = msg.body {
                self.replies.push(result);
            }
        }
    }

    fn kernel() -> SimKernel {
        SimKernel::new(
            Topology::fixed(1_000, 10_000, 1_000_000),
            FaultPlan::none(),
            42,
        )
    }

    #[test]
    fn call_and_reply_roundtrip() {
        let mut k = kernel();
        let echo = k.add_endpoint(
            Box::new(Echo::new(Loid::instance(16, 1))),
            Location::new(0, 0),
            "echo",
        );
        let client = k.add_endpoint(Box::new(Client::default()), Location::new(0, 1), "client");
        let id = k.fresh_call_id();
        let mut msg = Message::call(
            id,
            Loid::instance(16, 1),
            "Ping",
            vec![LegionValue::Uint(9)],
            InvocationEnv::anonymous(),
        );
        msg.reply_to = Some(client.element());
        assert!(k.inject(Location::new(0, 1), echo.element(), msg));
        k.run_until_quiescent(100);
        let c = k.endpoint::<Client>(client).unwrap();
        assert_eq!(c.replies.len(), 1);
        assert_eq!(
            c.replies[0],
            Ok(LegionValue::List(vec![LegionValue::Uint(9)]))
        );
        assert_eq!(k.counters().get("echo_calls"), 1);
        assert_eq!(k.meta(echo).unwrap().received, 1);
        assert_eq!(k.stats().delivered, 2); // call + reply
    }

    #[test]
    fn latency_tiers_shape_virtual_time() {
        let mut k = kernel();
        let echo = k.add_endpoint(
            Box::new(Echo::new(Loid::instance(16, 1))),
            Location::new(0, 0),
            "echo",
        );
        // Same-jurisdiction call: 10µs there + 10µs back = 20µs.
        let client = k.add_endpoint(Box::new(Client::default()), Location::new(0, 1), "client");
        let id = k.fresh_call_id();
        let mut msg = Message::call(
            id,
            Loid::instance(16, 1),
            "Ping",
            vec![],
            InvocationEnv::anonymous(),
        );
        msg.reply_to = Some(client.element());
        k.inject(Location::new(0, 1), echo.element(), msg);
        k.run_until_quiescent(100);
        assert_eq!(k.now(), SimTime(20_000));
    }

    #[test]
    fn send_to_dead_endpoint_is_refused() {
        let mut k = kernel();
        let echo = k.add_endpoint(
            Box::new(Echo::new(Loid::instance(16, 1))),
            Location::new(0, 0),
            "echo",
        );
        k.remove_endpoint(echo);
        let id = k.fresh_call_id();
        let msg = Message::call(
            id,
            Loid::instance(16, 1),
            "Ping",
            vec![],
            InvocationEnv::anonymous(),
        );
        assert!(!k.inject(Location::new(0, 0), echo.element(), msg));
        assert_eq!(k.stats().refused, 1);
    }

    #[test]
    fn send_to_unknown_endpoint_is_refused() {
        let mut k = kernel();
        let id = k.fresh_call_id();
        let msg = Message::call(
            id,
            Loid::instance(16, 1),
            "Ping",
            vec![],
            InvocationEnv::anonymous(),
        );
        assert!(!k.inject(
            Location::new(0, 0),
            ObjectAddressElement::sim(999),
            msg.clone()
        ));
        // Non-sim elements are refused too.
        assert!(!k.inject(
            Location::new(0, 0),
            ObjectAddressElement::ipv4([127, 0, 0, 1], 80),
            msg
        ));
        assert_eq!(k.stats().refused, 2);
    }

    /// An endpoint that forwards a call through a replicated address.
    struct Fanout {
        addr: ObjectAddress,
    }

    impl Endpoint for Fanout {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let id = ctx.fresh_call_id();
            let msg = Message::call(
                id,
                Loid::instance(16, 1),
                "Ping",
                vec![],
                InvocationEnv::anonymous(),
            );
            let report = ctx.send_address(&self.addr.clone(), msg);
            ctx.count_n("fanout_accepted", report.accepted as u64);
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Message) {}
    }

    fn replicated_kernel(
        semantics: AddressSemantics,
        replicas: usize,
    ) -> (SimKernel, Vec<EndpointId>) {
        let mut k = kernel();
        let mut eps = Vec::new();
        for i in 0..replicas {
            eps.push(k.add_endpoint(
                Box::new(Echo::new(Loid::instance(16, i as u64 + 1))),
                Location::new(0, i as u32),
                format!("replica{i}"),
            ));
        }
        let addr = ObjectAddress::replicated(eps.iter().map(|e| e.element()).collect(), semantics);
        k.add_endpoint(Box::new(Fanout { addr }), Location::new(0, 99), "fanout");
        (k, eps)
    }

    /// A small fixed workload: `calls` Pings from the client to the echo,
    /// with one arg knob to let tests plant a payload divergence.
    fn journaled_run(cfg: impl FnOnce(&mut SimKernel), calls: u64, arg0: u64) -> SimKernel {
        let mut k = journaled_setup(cfg, calls, arg0);
        k.run_until_quiescent(1_000);
        k
    }

    /// [`journaled_run`] up to the point where the workload is queued
    /// and nothing has run: echo is slot 0, the client slot 1.
    fn journaled_setup(cfg: impl FnOnce(&mut SimKernel), calls: u64, arg0: u64) -> SimKernel {
        let mut k = kernel();
        cfg(&mut k);
        let echo = k.add_endpoint(
            Box::new(Echo::new(Loid::instance(16, 1))),
            Location::new(0, 0),
            "echo",
        );
        let client = k.add_endpoint(Box::new(Client::default()), Location::new(0, 1), "client");
        for i in 0..calls {
            let id = k.fresh_call_id();
            let arg = if i == 0 { arg0 } else { i };
            let mut msg = Message::call(
                id,
                Loid::instance(16, 1),
                "Ping",
                vec![LegionValue::Uint(arg)],
                InvocationEnv::anonymous(),
            );
            msg.reply_to = Some(client.element());
            k.inject(Location::new(0, 1), echo.element(), msg);
        }
        k
    }

    #[test]
    fn journal_record_then_replay_is_identical() {
        use legion_journal::MemSink;
        let sink = MemSink::new();
        let mut k = journaled_run(|k| k.enable_journal_record(Box::new(sink.clone()), 4), 6, 0);
        let (recorded, div) = k.finish_journal().unwrap();
        assert!(div.is_none());
        assert!(recorded.records > 0);
        assert!(recorded.snapshots > 0, "cadence 4 must snapshot");
        let data = sink.contents();

        // Verified re-execution from the origin: every record byte-checked.
        let mut k = journaled_run(
            |k| {
                k.enable_journal_verify(data.clone(), ReplayStart::Origin)
                    .unwrap()
            },
            6,
            0,
        );
        let (s, div) = k.finish_journal().unwrap();
        assert!(div.is_none(), "{}", div.map(|d| d.to_string()).unwrap());
        assert_eq!(s.verified, recorded.records);
        assert_eq!(s.skipped, 0);

        // Snapshot fast path: the prefix is skipped, roots still checked.
        let mut k = journaled_run(
            |k| {
                k.enable_journal_verify(data.clone(), ReplayStart::LatestSnapshot)
                    .unwrap()
            },
            6,
            0,
        );
        let (s, div) = k.finish_journal().unwrap();
        assert!(div.is_none(), "{}", div.map(|d| d.to_string()).unwrap());
        assert!(s.skipped > 0, "snapshot fast path must skip a prefix");
        assert_eq!(s.skipped + s.verified, recorded.records);
    }

    #[test]
    fn journal_replay_catches_payload_divergence_at_snapshot_root() {
        use legion_journal::MemSink;
        let sink = MemSink::new();
        let mut k = journaled_run(|k| k.enable_journal_record(Box::new(sink.clone()), 4), 6, 0);
        k.finish_journal().unwrap();
        let data = sink.contents();

        // Same event timeline, different call argument: record bodies are
        // identical (args never enter the journal), so only the
        // content-addressed state root can catch it.
        let mut k = journaled_run(
            |k| k.enable_journal_verify(data, ReplayStart::Origin).unwrap(),
            6,
            999,
        );
        let (_, div) = k.finish_journal().unwrap();
        let div = div.expect("payload divergence must trip the root check");
        assert!(div.expected.contains("snapshot"), "{div}");
    }

    #[test]
    fn journal_replay_catches_one_extra_admitted_seq_at_snapshot_root() {
        use legion_journal::MemSink;
        let sink = MemSink::new();
        let mut k = journaled_run(|k| k.enable_journal_record(Box::new(sink.clone()), 4), 6, 0);
        k.finish_journal().unwrap();

        // The client's window remembers one (sender, seq) the recording's
        // never saw. Nobody sends as 7777, so no verdict and no journaled
        // ingress differs: only the window digest in the client's section
        // can tell the two states apart.
        let mut k = journaled_setup(
            |k| {
                k.enable_journal_verify(sink.contents(), ReplayStart::Origin)
                    .unwrap()
            },
            6,
            0,
        );
        assert!(k.slots[1].admit(7_777, 0));
        k.run_until_quiescent(1_000);
        let (_, div) = k.finish_journal().unwrap();
        let div = div.expect("a different window must trip the root check");
        assert!(div.expected.contains("snapshot"), "{div}");
    }

    #[test]
    fn a_slot_write_that_skips_the_dirty_mark_is_found() {
        use legion_journal::MemSink;
        let mut k = journaled_run(
            |k| k.enable_journal_record(Box::new(MemSink::new()), 4),
            6,
            0,
        );
        k.take_snapshot();
        assert!(k.slots.iter().all(|s| !s.dirty));
        assert_eq!(k.stale_slot_section(), None);
        // Around `Slot::admit`: the state moves, the mark does not. This
        // is what `step` debug-asserts against after every snapshot.
        assert!(k.slots[1].seen.admit(7_777, 0));
        assert_eq!(k.stale_slot_section(), Some(1));
        // Through it, the slot is merely due for re-encoding.
        assert!(k.slots[1].admit(7_777, 1));
        assert_eq!(k.stale_slot_section(), None);
        let section = KERNEL_SECTIONS.len() + 1;
        let before = k.inner.watch.journal().section_id(section);
        k.take_snapshot();
        assert_ne!(k.inner.watch.journal().section_id(section), before);
        assert_eq!(k.stale_slot_section(), None);
    }

    #[test]
    fn remembered_section_ids_outlive_a_journal_session() {
        use legion_journal::{read_all, MemSink};
        // One kernel, three sessions. A section id is a content hash, so
        // a new session reuses the last one's ids for the slots that did
        // not change, and its mark carries the root a full re-encode gives.
        let mut k = journaled_run(
            |k| k.enable_journal_record(Box::new(MemSink::new()), 4),
            6,
            0,
        );
        k.take_snapshot();
        let roots: Vec<String> = [false, true]
            .into_iter()
            .map(|reencode| {
                let sink = MemSink::new();
                k.enable_journal_record(Box::new(sink.clone()), 4);
                assert!(
                    k.slots.iter().all(|s| !s.dirty),
                    "a session leaves slots be"
                );
                if reencode {
                    k.slots.iter_mut().for_each(|s| s.dirty = true);
                }
                k.take_snapshot();
                k.finish_journal().unwrap();
                let (_, records) = read_all(&sink.contents()).unwrap();
                assert_eq!(records.len(), 1, "the one mark");
                records[0].label.clone()
            })
            .collect();
        assert_eq!(roots[0], roots[1]);
    }

    /// A verifying run takes its marks the way the recording did, so a
    /// post-mortem dump names the last one's seq in either mode.
    #[test]
    fn a_verifying_runs_flight_dump_names_its_last_marks_seq() {
        use legion_journal::{read_all, MemSink};
        let sink = MemSink::new();
        let mut k = journaled_run(|k| k.enable_journal_record(Box::new(sink.clone()), 4), 6, 0);
        k.finish_journal().unwrap();
        let (_, records) = read_all(&sink.contents()).unwrap();
        let marks: Vec<_> = records
            .iter()
            .filter(|r| r.kind == RecordKind::Snapshot)
            .collect();
        let last = marks.last().expect("cadence 4 must snapshot");
        let named = format!(
            "last snapshot #{} at journal seq {}",
            marks.len() - 1,
            last.seq
        );
        assert!(k.flight_dump("recorded", 4).contains(&named));

        let data = sink.contents();
        let k = journaled_run(
            |k| k.enable_journal_verify(data, ReplayStart::Origin).unwrap(),
            6,
            0,
        );
        let dump = k.flight_dump("verified", 4);
        assert!(dump.contains(&named), "{dump}");
    }

    #[test]
    fn journal_replay_catches_missing_workload() {
        use legion_journal::MemSink;
        let sink = MemSink::new();
        let mut k = journaled_run(|k| k.enable_journal_record(Box::new(sink.clone()), 0), 6, 0);
        k.finish_journal().unwrap();
        let data = sink.contents();

        let mut k = journaled_run(
            |k| k.enable_journal_verify(data, ReplayStart::Origin).unwrap(),
            5,
            0,
        );
        let (_, div) = k.finish_journal().unwrap();
        let div = div.expect("a shorter run must diverge");
        assert!(div.got.contains("quiesced") || !div.got.is_empty(), "{div}");
    }

    #[test]
    fn flight_events_carry_journal_seq_and_dump_names_position() {
        use legion_journal::MemSink;
        let sink = MemSink::new();
        let k = journaled_run(|k| k.enable_journal_record(Box::new(sink.clone()), 4), 6, 0);
        assert!(k.flight().iter().all(|e| e.seq > 0));
        // Seqs are strictly increasing in recording order.
        let seqs: Vec<u64> = k.flight().iter().map(|e| e.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "{seqs:?}");
        let dump = k.flight_dump("test", 4);
        assert!(dump.contains("journal: next seq"), "{dump}");
        assert!(dump.contains("last snapshot #"), "{dump}");
        assert!(dump.contains("seq="), "{dump}");
    }

    #[test]
    fn journal_off_leaves_flight_seq_zero() {
        let k = journaled_run(|_| {}, 3, 0);
        assert!(!k.journal_enabled());
        assert!(k.flight().iter().all(|e| e.seq == 0));
    }

    #[test]
    fn send_to_all_reaches_every_replica() {
        let (mut k, eps) = replicated_kernel(AddressSemantics::SendToAll, 4);
        k.run_until_quiescent(100);
        for e in eps {
            assert_eq!(k.meta(e).unwrap().received, 1);
        }
        assert_eq!(k.counters().get("fanout_accepted"), 4);
    }

    #[test]
    fn pick_random_reaches_exactly_one() {
        let (mut k, eps) = replicated_kernel(AddressSemantics::PickRandom, 4);
        k.run_until_quiescent(100);
        let total: u64 = eps.iter().map(|e| k.meta(*e).unwrap().received).sum();
        assert_eq!(total, 1);
    }

    #[test]
    fn k_of_n_reaches_k_distinct() {
        let (mut k, eps) = replicated_kernel(AddressSemantics::KOfN(2), 5);
        k.run_until_quiescent(100);
        let hit: Vec<u64> = eps.iter().map(|e| k.meta(*e).unwrap().received).collect();
        assert_eq!(hit.iter().sum::<u64>(), 2);
        assert!(hit.iter().all(|&h| h <= 1), "distinct replicas: {hit:?}");
    }

    #[test]
    fn first_reachable_skips_dead_replicas() {
        let (mut k, eps) = replicated_kernel(AddressSemantics::FirstReachable, 3);
        k.remove_endpoint(eps[0]);
        k.run_until_quiescent(100);
        assert_eq!(k.meta(eps[1]).unwrap().received, 1);
        assert_eq!(k.meta(eps[2]).unwrap().received, 0);
    }

    #[test]
    fn empty_address_sends_nothing() {
        let mut k = kernel();
        let addr = ObjectAddress {
            elements: Default::default(),
            semantics: AddressSemantics::SendToAll,
        };
        k.add_endpoint(Box::new(Fanout { addr }), Location::new(0, 0), "fanout");
        k.run_until_quiescent(10);
        assert_eq!(k.stats().sent, 0);
    }

    struct TimerBeat {
        fired: Vec<u64>,
    }

    impl Endpoint for TimerBeat {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(500, 1);
            ctx.set_timer(1500, 2);
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Message) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
            self.fired.push(tag);
            if tag == 2 {
                ctx.set_timer(100, 3);
            }
        }
    }

    #[test]
    fn timers_fire_in_order() {
        let mut k = kernel();
        let t = k.add_endpoint(
            Box::new(TimerBeat { fired: vec![] }),
            Location::new(0, 0),
            "timer",
        );
        k.run_until_quiescent(100);
        assert_eq!(k.endpoint::<TimerBeat>(t).unwrap().fired, vec![1, 2, 3]);
        assert_eq!(k.now(), SimTime(1_600));
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut k = kernel();
        let t = k.add_endpoint(
            Box::new(TimerBeat { fired: vec![] }),
            Location::new(0, 0),
            "timer",
        );
        k.run_until(SimTime(600));
        assert_eq!(k.endpoint::<TimerBeat>(t).unwrap().fired, vec![1]);
        assert_eq!(k.now(), SimTime(600));
        k.run_until(SimTime(10_000));
        assert_eq!(k.endpoint::<TimerBeat>(t).unwrap().fired, vec![1, 2, 3]);
    }

    /// Spawner: on start, spawns a child and messages it.
    struct Spawner;
    struct Child {
        started: bool,
        got: u64,
    }

    impl Endpoint for Spawner {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let child = ctx.spawn(
                Box::new(Child {
                    started: false,
                    got: 0,
                }),
                Location::new(0, 0),
                "child",
            );
            let id = ctx.fresh_call_id();
            let msg = Message::call(
                id,
                Loid::instance(16, 1),
                "Hello",
                vec![],
                InvocationEnv::anonymous(),
            );
            assert!(ctx.send(child.element(), msg));
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Message) {}
    }

    impl Endpoint for Child {
        fn on_start(&mut self, _ctx: &mut Ctx<'_>) {
            self.started = true;
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Message) {
            self.got += 1;
        }
    }

    #[test]
    fn handlers_can_spawn_endpoints() {
        let mut k = kernel();
        k.add_endpoint(Box::new(Spawner), Location::new(0, 0), "spawner");
        k.run_until_quiescent(100);
        assert_eq!(k.endpoint_count(), 2);
        let child_id = EndpointId(1);
        let child = k.endpoint::<Child>(child_id).unwrap();
        assert!(child.started);
        assert_eq!(child.got, 1);
    }

    struct SelfKiller;
    impl Endpoint for SelfKiller {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let me = ctx.self_id();
            ctx.kill(me);
        }
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Message) {
            panic!("dead endpoints receive nothing");
        }
    }

    #[test]
    fn self_kill_takes_effect_after_handler() {
        let mut k = kernel();
        let id = k.add_endpoint(Box::new(SelfKiller), Location::new(0, 0), "sk");
        k.run_until_quiescent(10);
        assert!(!k.meta(id).unwrap().alive);
        // Deliveries to it are refused at send time.
        let cid = k.fresh_call_id();
        let msg = Message::call(
            cid,
            Loid::instance(16, 1),
            "Ping",
            vec![],
            InvocationEnv::anonymous(),
        );
        assert!(!k.inject(Location::new(0, 0), id.element(), msg));
    }

    #[test]
    fn drops_are_silent_and_counted() {
        let mut k = SimKernel::new(Topology::zero(), FaultPlan::none(), 7);
        k.faults_mut().set_drop_probability(1.0);
        let echo = k.add_endpoint(
            Box::new(Echo::new(Loid::instance(16, 1))),
            Location::new(0, 0),
            "echo",
        );
        let cid = k.fresh_call_id();
        let msg = Message::call(
            cid,
            Loid::instance(16, 1),
            "Ping",
            vec![],
            InvocationEnv::anonymous(),
        );
        // Accepted (sender can't tell) but never delivered.
        assert!(k.inject(Location::new(0, 0), echo.element(), msg));
        k.run_until_quiescent(10);
        assert_eq!(k.stats().lost, 1);
        assert_eq!(k.meta(echo).unwrap().received, 0);
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        let run = |seed: u64| {
            let (mut k, _) = {
                let mut k = SimKernel::new(Topology::default(), FaultPlan::none(), seed);
                let mut eps = Vec::new();
                for i in 0..5 {
                    eps.push(k.add_endpoint(
                        Box::new(Echo::new(Loid::instance(16, i + 1))),
                        Location::new(i as u32 % 2, i as u32),
                        format!("e{i}"),
                    ));
                }
                let addr = ObjectAddress::replicated(
                    eps.iter().map(|e| e.element()).collect(),
                    AddressSemantics::KOfN(3),
                );
                k.add_endpoint(Box::new(Fanout { addr }), Location::new(0, 9), "f");
                (k, eps)
            };
            k.run_until_quiescent(1000);
            (k.now(), k.stats().delivered, k.latency_histogram().sum())
        };
        assert_eq!(run(123), run(123));
    }

    /// Forwards every call to `next` (same method, no args), so a request
    /// hops across a chain of endpoints under one trace.
    struct Relay {
        next: Option<ObjectAddressElement>,
    }

    impl Endpoint for Relay {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            if let (Some(next), Some(target), Some(m)) = (self.next, msg.target, msg.method()) {
                ctx.call(next, target, m, vec![], InvocationEnv::anonymous(), None);
            }
        }
    }

    /// Build a 3-relay chain, push one traced request through it, and
    /// return the drained span events.
    fn traced_chain_run(seed: u64) -> Vec<SpanEvent> {
        let mut k = SimKernel::new(Topology::default(), FaultPlan::none(), seed);
        k.enable_tracing(1024);
        let c = k.add_endpoint(Box::new(Relay { next: None }), Location::new(1, 2), "c");
        let b = k.add_endpoint(
            Box::new(Relay {
                next: Some(c.element()),
            }),
            Location::new(1, 1),
            "b",
        );
        let a = k.add_endpoint(
            Box::new(Relay {
                next: Some(b.element()),
            }),
            Location::new(0, 1),
            "a",
        );
        let tc = k.begin_trace("chain");
        let cid = k.fresh_call_id();
        let msg = Message::call(
            cid,
            Loid::instance(16, 1),
            "Hop",
            vec![],
            InvocationEnv::anonymous().with_trace(tc),
        );
        assert!(k.inject(Location::new(0, 0), a.element(), msg));
        k.run_until_quiescent(1_000);
        k.end_trace(tc, "ok");
        k.drain_trace()
    }

    #[test]
    fn one_request_across_three_endpoints_is_one_parented_trace() {
        let events = traced_chain_run(5);
        // Every event belongs to the single trace the driver opened.
        let traces: std::collections::BTreeSet<_> = events.iter().map(|e| e.trace).collect();
        assert_eq!(traces.len(), 1, "{events:?}");
        let s = legion_obs::analysis::summarize(&events);
        assert_eq!(s.len(), 1);
        let s = &s[0];
        assert_eq!(s.hops.len(), 3, "{:?}", s.hops);
        // Delivered at three distinct endpoints.
        let visited: std::collections::BTreeSet<_> = s.hops.iter().filter_map(|h| h.to).collect();
        assert_eq!(visited.len(), 3);
        // Parent chain: root span → hop1 → hop2 → hop3.
        let root = events
            .iter()
            .find(|e| e.kind == SpanEventKind::Begin)
            .unwrap()
            .span;
        assert_eq!(s.hops[0].parent, root);
        assert_eq!(s.hops[1].parent, s.hops[0].span);
        assert_eq!(s.hops[2].parent, s.hops[1].span);
        // And the reconstruction accounts (at least) 95% of the latency.
        let b = legion_obs::analysis::hop_breakdown(&events);
        assert_eq!(b.requests, 1);
        assert!(b.min_coverage >= 0.95, "{b:?}");
    }

    #[test]
    fn same_seed_trace_export_is_byte_identical() {
        let a = legion_obs::export::to_jsonl(&traced_chain_run(9));
        let b = legion_obs::export::to_jsonl(&traced_chain_run(9));
        assert!(!a.is_empty());
        assert_eq!(a, b);
    }

    #[test]
    fn dropped_message_records_fault_verdict_span() {
        let mut k = SimKernel::new(Topology::zero(), FaultPlan::none(), 7);
        k.enable_tracing(64);
        k.faults_mut().set_drop_probability(1.0);
        let echo = k.add_endpoint(
            Box::new(Echo::new(Loid::instance(16, 1))),
            Location::new(0, 0),
            "echo",
        );
        let tc = k.begin_trace("doomed");
        let cid = k.fresh_call_id();
        let msg = Message::call(
            cid,
            Loid::instance(16, 1),
            "Ping",
            vec![],
            InvocationEnv::anonymous().with_trace(tc),
        );
        assert!(k.inject(Location::new(0, 0), echo.element(), msg));
        k.run_until_quiescent(10);
        k.end_trace(tc, "lost");
        let events = k.drain_trace();
        let drop = events
            .iter()
            .find(|e| e.kind == SpanEventKind::Kernel(RecordKind::Drop))
            .expect("drop span recorded");
        assert_eq!(drop.label, "drop:silent");
        assert_eq!(drop.trace, tc.trace);
    }

    #[test]
    fn refused_message_records_fault_verdict_span() {
        let mut k = kernel();
        k.enable_tracing(64);
        let echo = k.add_endpoint(
            Box::new(Echo::new(Loid::instance(16, 1))),
            Location::new(0, 0),
            "echo",
        );
        k.remove_endpoint(echo);
        let tc = k.begin_trace("stale");
        let cid = k.fresh_call_id();
        let msg = Message::call(
            cid,
            Loid::instance(16, 1),
            "Ping",
            vec![],
            InvocationEnv::anonymous().with_trace(tc),
        );
        assert!(!k.inject(Location::new(0, 1), echo.element(), msg));
        k.end_trace(tc, "refused");
        let events = k.drain_trace();
        let refuse = events
            .iter()
            .find(|e| e.kind == SpanEventKind::Kernel(RecordKind::Refuse))
            .expect("refuse span recorded");
        assert_eq!(refuse.label, "refused:dead-endpoint");
        assert_eq!(refuse.trace, tc.trace);
    }

    #[test]
    fn untraced_crash_fallout_still_records_fault_spans() {
        // A message without any trace context refused by a crashed
        // endpoint, and one already queued to it when it dies, must both
        // show up in the span stream (trace id NONE) — crash fallout is
        // observable without whole-flow tracing.
        let mut k = kernel();
        k.enable_tracing(64);
        let echo = k.add_endpoint(
            Box::new(Echo::new(Loid::instance(16, 1))),
            Location::new(0, 0),
            "echo",
        );
        let cid = k.fresh_call_id();
        let msg = Message::call(
            cid,
            Loid::instance(16, 1),
            "Ping",
            vec![],
            InvocationEnv::anonymous(),
        );
        // Queued delivery, then the endpoint dies: dead letter.
        assert!(k.inject(Location::new(0, 1), echo.element(), msg.clone()));
        k.remove_endpoint(echo);
        k.run_until_quiescent(10);
        // And a post-crash send: detectable refusal.
        assert!(!k.inject(Location::new(0, 1), echo.element(), msg));
        let events = k.drain_trace();
        let dead = events
            .iter()
            .find(|e| e.kind == SpanEventKind::Kernel(RecordKind::DeadLetter))
            .expect("dead-letter span for untraced message");
        assert_eq!(dead.label, "dead_letter:Ping");
        assert_eq!(dead.trace, legion_core::trace::TraceId::NONE);
        let refuse = events
            .iter()
            .find(|e| e.kind == SpanEventKind::Kernel(RecordKind::Refuse))
            .expect("refuse span for untraced message");
        assert_eq!(refuse.label, "refused:dead-endpoint");
        assert_eq!(refuse.trace, legion_core::trace::TraceId::NONE);
    }

    #[test]
    fn external_set_timer_fires_and_respects_liveness() {
        struct Ticker {
            tags: Vec<u64>,
        }
        impl Endpoint for Ticker {
            fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Message) {}
            fn on_timer(&mut self, _ctx: &mut Ctx<'_>, tag: u64) {
                self.tags.push(tag);
            }
        }
        let mut k = kernel();
        let t = k.add_endpoint(
            Box::new(Ticker { tags: Vec::new() }),
            Location::new(0, 0),
            "ticker",
        );
        assert!(k.set_timer(t, 5_000, 7));
        assert!(k.set_timer(t, 1_000, 3));
        k.run_until_quiescent(10);
        assert_eq!(k.endpoint::<Ticker>(t).unwrap().tags, vec![3, 7]);
        assert_eq!(k.now(), SimTime(5_000));
        k.remove_endpoint(t);
        assert!(!k.set_timer(t, 1_000, 9), "dead endpoint: refused");
    }

    #[test]
    fn duplicated_message_is_delivered_exactly_once() {
        let mut k = SimKernel::new(Topology::zero(), FaultPlan::seeded(3), 7);
        k.enable_tracing(64);
        k.faults_mut().set_duplicate_probability(1.0);
        let echo = k.add_endpoint(
            Box::new(Echo::new(Loid::instance(16, 1))),
            Location::new(0, 0),
            "echo",
        );
        let cid = k.fresh_call_id();
        let msg = Message::call(
            cid,
            Loid::instance(16, 1),
            "Ping",
            vec![],
            InvocationEnv::anonymous(),
        );
        assert!(k.inject(Location::new(0, 1), echo.element(), msg));
        k.run_until_quiescent(20);
        // The copy was queued but the at-most-once window suppressed it.
        assert_eq!(k.meta(echo).unwrap().received, 1);
        assert_eq!(k.counters().get("net.duplicated"), 1);
        assert_eq!(k.counters().get("net.dedup_dropped"), 1);
        assert_eq!(k.endpoint::<Echo>(echo).unwrap().got.len(), 1);
        let events = k.drain_trace();
        assert!(events
            .iter()
            .any(|e| e.kind == SpanEventKind::Kernel(RecordKind::Duplicate)));
        assert!(events
            .iter()
            .any(|e| e.kind == SpanEventKind::Kernel(RecordKind::Dedup)));
    }

    #[test]
    fn dedup_disabled_exposes_endpoints_to_duplicates() {
        let mut k = SimKernel::new(Topology::zero(), FaultPlan::seeded(3), 7);
        k.set_dedup_enabled(false);
        k.faults_mut().set_duplicate_probability(1.0);
        let echo = k.add_endpoint(
            Box::new(Echo::new(Loid::instance(16, 1))),
            Location::new(0, 0),
            "echo",
        );
        let cid = k.fresh_call_id();
        let msg = Message::call(
            cid,
            Loid::instance(16, 1),
            "Ping",
            vec![],
            InvocationEnv::anonymous(),
        );
        assert!(k.inject(Location::new(0, 1), echo.element(), msg));
        k.run_until_quiescent(20);
        // Without the window the endpoint executes the call twice.
        assert_eq!(k.meta(echo).unwrap().received, 2);
        assert_eq!(k.endpoint::<Echo>(echo).unwrap().got.len(), 2);
    }

    #[test]
    fn delay_spike_stretches_delivery_time() {
        let mut plan = FaultPlan::none();
        plan.add_delay_spike(crate::faults::DelaySpike {
            jurisdiction: None,
            from_ns: 0,
            until_ns: 100_000,
            multiplier: 3,
        });
        let mut k = SimKernel::new(Topology::fixed(1_000, 10_000, 1_000_000), plan, 42);
        let echo = k.add_endpoint(
            Box::new(Echo::new(Loid::instance(16, 1))),
            Location::new(0, 0),
            "echo",
        );
        let client = k.add_endpoint(Box::new(Client::default()), Location::new(0, 1), "client");
        let cid = k.fresh_call_id();
        let mut msg = Message::call(
            cid,
            Loid::instance(16, 1),
            "Ping",
            vec![],
            InvocationEnv::anonymous(),
        );
        msg.reply_to = Some(client.element());
        assert!(k.inject(Location::new(0, 1), echo.element(), msg));
        k.run_until_quiescent(20);
        // 10µs LAN × 3 each way instead of 10µs + 10µs.
        assert_eq!(k.now(), SimTime(60_000));
        assert_eq!(k.counters().get("net.delayed"), 2);
        assert_eq!(k.endpoint::<Client>(client).unwrap().replies.len(), 1);
    }

    #[test]
    fn reorder_jitter_delays_but_delivers() {
        let mut k = SimKernel::new(
            Topology::fixed(1_000, 10_000, 1_000_000),
            FaultPlan::seeded(9),
            42,
        );
        k.faults_mut().set_reorder(1.0, 5_000);
        let echo = k.add_endpoint(
            Box::new(Echo::new(Loid::instance(16, 1))),
            Location::new(0, 0),
            "echo",
        );
        let cid = k.fresh_call_id();
        let msg = Message::call(
            cid,
            Loid::instance(16, 1),
            "Ping",
            vec![],
            InvocationEnv::anonymous(),
        );
        assert!(k.inject(Location::new(0, 1), echo.element(), msg));
        k.run_until_quiescent(20);
        assert_eq!(k.meta(echo).unwrap().received, 1);
        assert!(
            k.now() > SimTime(10_000) && k.now() <= SimTime(15_000),
            "perturbed delivery at {:?}",
            k.now()
        );
    }

    #[test]
    fn adversarial_runs_are_reproducible_per_seed() {
        let run = |seed: u64| {
            let mut plan = FaultPlan::seeded(seed);
            plan.set_drop_probability(0.1);
            plan.set_duplicate_probability(0.2);
            plan.set_reorder(0.3, 40_000);
            let mut k = SimKernel::new(Topology::default(), plan, seed);
            let mut eps = Vec::new();
            for i in 0..5 {
                eps.push(k.add_endpoint(
                    Box::new(Echo::new(Loid::instance(16, i + 1))),
                    Location::new(i as u32 % 2, i as u32),
                    format!("e{i}"),
                ));
            }
            let addr = ObjectAddress::replicated(
                eps.iter().map(|e| e.element()).collect(),
                AddressSemantics::SendToAll,
            );
            k.add_endpoint(Box::new(Fanout { addr }), Location::new(0, 9), "f");
            k.run_until_quiescent(1_000);
            (
                k.now(),
                k.stats().clone(),
                k.counters().get("net.duplicated"),
                k.counters().get("net.dedup_dropped"),
                k.latency_histogram().sum(),
            )
        };
        assert_eq!(run(123), run(123));
        assert_ne!(run(123), run(124));
    }
}
