//! Layer probes: tight loops into each layer's public functions.
//!
//! Every probe runs [`BATCHES`] timed batches, each timed as a whole and
//! divided by its size; the reported number is the median batch, with
//! quartiles and the batch size in the printed table. Batches are
//! [`BATCH`] calls (10⁶ calls per probe) except where one call costs
//! microseconds (`legion-persist`), which use [`SLOW_BATCH`] so that all
//! probes together stay within a few seconds. Inputs and results pass
//! through `black_box`. These replace, for benchmark purposes, the
//! single-median Criterion labels of `BENCH_CORE.json`.

use crate::gen::SplitMix64;
use crate::stats::quartiles;
use legion_core::address::{ObjectAddress, ObjectAddressElement};
use legion_core::binding::Binding;
use legion_core::dispatch::FromArgs;
use legion_core::env::InvocationEnv;
use legion_core::interface::ParamType;
use legion_core::loid::Loid;
use legion_core::symbol::Sym;
use legion_core::time::SimTime;
use legion_core::trace::{SpanId, TraceId};
use legion_core::value::LegionValue;
use legion_ha::detector::FailureDetector;
use legion_ha::policy::MissThreshold;
use legion_journal::{JournalWriter, MemSink, RecordKind};
use legion_naming::cache::BindingCache;
use legion_naming::protocol::{BindingArg, GET_BINDING};
use legion_net::admission::{AdmissionConfig, AdmissionQueue};
use legion_net::dispatch::{serve, MethodTable, Outcome, TableBuilder};
use legion_net::equeue::EventQueue;
use legion_net::faults::DedupState;
use legion_net::pool::MessagePool;
use legion_net::sim::{Ctx, Endpoint, FlightEvent, FlightKind, FlightRecorder, SimKernel};
use legion_net::{FaultPlan, Histogram, Location, Message, Topology};
use legion_obs::profile::KernelProfiler;
use legion_obs::sink::TraceSink;
use legion_obs::slo::{SloConfig, SloTracker};
use legion_obs::span::{SpanEvent, SpanEventKind};
use legion_persist::cas::{BlobStore, MemBlobStore};
use legion_persist::opr::Opr;
use legion_persist::storage::JurisdictionStorage;
use legion_security::mayi::{AllOf, MayIPolicy, MethodAcl, ResponsibleAgentSet};
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

pub const BATCHES: usize = 20;
pub const BATCH: usize = 50_000;
/// Batch size for probes whose single call costs microseconds.
pub const SLOW_BATCH: usize = 1_000;

/// One probe's result: ns per call, as `[q1, median, q3]` over batches.
pub struct Probe {
    pub name: &'static str,
    pub ns: [f64; 3],
    /// Calls per timed batch (there are always [`BATCHES`] batches).
    pub batch: usize,
}

/// Time `BATCHES × batch` calls of `f` (which receives the global call
/// index) and return per-call quartiles. `reset` runs untimed before
/// every batch with the index the batch starts at (refill what the
/// batch consumes, drain what it fills).
fn time_batches<S>(
    batch: usize,
    state: &mut S,
    mut reset: impl FnMut(&mut S, u64),
    mut f: impl FnMut(&mut S, u64),
) -> [f64; 3] {
    let mut per_call = Vec::with_capacity(BATCHES);
    let mut i = 0u64;
    // One untimed batch first: fault in pages, size buffers, train
    // predictors.
    for timed in std::iter::once(false).chain(std::iter::repeat_n(true, BATCHES)) {
        reset(state, i);
        let t0 = Instant::now();
        for _ in 0..batch {
            f(state, i);
            i += 1;
        }
        if timed {
            per_call.push(t0.elapsed().as_nanos() as f64 / batch as f64);
        }
    }
    quartiles(&per_call)
}

fn probe(name: &'static str, f: impl FnMut(u64)) -> Probe {
    probe_n(name, BATCH, f)
}

fn probe_n(name: &'static str, batch: usize, mut f: impl FnMut(u64)) -> Probe {
    Probe {
        name,
        ns: time_batches(batch, &mut (), |_, _| (), |_, i| f(i)),
        batch,
    }
}

fn binding(i: u64) -> Binding {
    Binding::forever(
        Loid::class_object(1_000 + i),
        ObjectAddress::single(ObjectAddressElement::sim(i)),
    )
}

// ---- kernel round trips (the only probes that need a `Ctx`) ----------

/// Bounces every message straight back: the kernel's per-event floor.
struct Bouncer {
    peer: ObjectAddressElement,
}

impl Endpoint for Bouncer {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        ctx.send(self.peer, msg);
    }
}

/// Answers `GetBinding` through a sealed method table.
struct Served {
    reply: Binding,
    table: Rc<MethodTable<Self>>,
}

impl Endpoint for Served {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        let table = Rc::clone(&self.table);
        serve(&table, self, ctx, msg);
    }
}

/// Calls `Served` again on every reply.
struct Caller {
    me: Loid,
    server: ObjectAddressElement,
    target: Loid,
}

impl Caller {
    fn call(&self, ctx: &mut Ctx<'_>) {
        let mut args = ctx.take_args();
        args.push(LegionValue::Loid(self.target));
        ctx.call(
            self.server,
            self.target,
            GET_BINDING,
            args,
            InvocationEnv::solo(self.me),
            Some(self.me),
        );
    }
}

impl Endpoint for Caller {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.call(ctx);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        ctx.recycle_message(msg);
        self.call(ctx);
    }
}

/// ns per kernel event of a two-endpoint bounce loop (no dispatch, no
/// reply construction): the kernel's per-event floor.
fn pingpong() -> [f64; 3] {
    let mut k = SimKernel::new(Topology::fixed(1_000, 1_000, 1_000), FaultPlan::none(), 1);
    let a = k.add_endpoint(
        Box::new(Bouncer {
            peer: ObjectAddressElement::sim(1),
        }),
        Location::new(0, 0),
        "a",
    );
    let b = k.add_endpoint(
        Box::new(Bouncer { peer: a.element() }),
        Location::new(0, 1),
        "b",
    );
    let me = Loid::instance(9000, 1);
    let id = k.fresh_call_id();
    let msg = Message::call(id, me, GET_BINDING, vec![], InvocationEnv::solo(me));
    k.inject(Location::new(0, 0), b.element(), msg);
    time_batches(
        1,
        &mut k,
        |_, _| (),
        |k, _| {
            k.run_until_quiescent(BATCH as u64);
        },
    )
    .map(|ns_per_batch| ns_per_batch / BATCH as f64)
}

/// Wall ns the kernel's profiler attributes to one `serve` of a sealed
/// method table (decode, MayI gate, handler, pooled reply) — the same
/// clock the traced pass's `handler_ns_per_msg` uses.
fn served() -> [f64; 3] {
    let mut k = SimKernel::new(Topology::fixed(1_000, 1_000, 1_000), FaultPlan::none(), 1);
    let owner = Loid::class_object(1_000);
    let table = TableBuilder::new("class", "ProbeClass", owner)
        .method::<(BindingArg,), _>(
            GET_BINDING,
            &["target"],
            ParamType::Binding,
            |e: &mut Served, ctx, _msg, (_arg,)| Outcome::Reply(Ok(ctx.binding_value(&e.reply))),
        )
        .seal();
    let server = k.add_endpoint(
        Box::new(Served {
            reply: binding(0),
            table,
        }),
        Location::new(0, 0),
        "server",
    );
    k.add_endpoint(
        Box::new(Caller {
            me: Loid::instance(9000, 1),
            server: server.element(),
            target: owner,
        }),
        Location::new(0, 1),
        "caller",
    );
    k.enable_profiling();
    let mut per_call = Vec::with_capacity(BATCHES);
    for timed in std::iter::once(false).chain(std::iter::repeat_n(true, BATCHES)) {
        k.reset_metrics();
        k.run_until_quiescent(2 * BATCH as u64);
        let (calls, wall_ns) = k
            .profile()
            .entries
            .iter()
            .filter(|e| e.endpoint_name == "server")
            .fold((0, 0), |(c, w), e| (c + e.stat.count, w + e.stat.wall_ns));
        if timed {
            per_call.push(wall_ns as f64 / calls.max(1) as f64);
        }
    }
    quartiles(&per_call)
}

/// Run every probe: about two seconds in all.
pub fn run_all() -> Vec<Probe> {
    let mut out = Vec::new();
    let mut rng = SplitMix64::new(0x9E0B);

    // ---- legion-net ----
    out.push(Probe {
        name: "net.kernel.pingpong_ns_per_event",
        ns: pingpong(),
        batch: BATCH,
    });
    out.push(Probe {
        name: "net.dispatch.serve_ns",
        ns: served(),
        batch: BATCH,
    });
    {
        // Near timers: a standing population of 1 024 events, each pop
        // followed by a push a few LAN hops ahead.
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut now = 0u64;
        for s in 0..1_024u64 {
            q.push(rng.below(200_000), s, s);
        }
        out.push(probe("net.equeue.push_pop_ns", |i| {
            if let Some((at, _)) = q.peek_key() {
                now = at;
            }
            black_box(q.pop());
            q.push(now + 50_000 + (i % 97) * 1_000, 1_024 + i, i);
        }));
    }
    {
        // Far timers: pushed 400–800 ms ahead (client time-outs), so each
        // entry cascades down the wheel's upper levels before it pops.
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut now = 0u64;
        for s in 0..1_024u64 {
            q.push(400_000_000 + rng.below(400_000_000), s, s);
        }
        out.push(probe("net.equeue.timer_far_push_pop_ns", |i| {
            if let Some((at, _)) = q.peek_key() {
                now = at;
            }
            black_box(q.pop());
            q.push(now + 400_000_000 + (i % 97) * 4_000_000, 1_024 + i, i);
        }));
    }
    {
        let mut pool = MessagePool::new();
        out.push(probe("net.pool.cycle_ns", |i| {
            let mut args = pool.take_args();
            args.push(LegionValue::Uint(i));
            pool.recycle_args(black_box(args));
        }));
        let b = binding(1);
        out.push(probe("net.pool.binding_value_ns", |_| {
            let v = pool.binding_value(black_box(&b));
            pool.recycle_value(black_box(v));
        }));
    }
    {
        let mut h = Histogram::new();
        out.push(probe("net.metrics.histogram_record_ns", |i| {
            h.record(black_box(i.wrapping_mul(0x9E37_79B9) & 0xFFF_FFFF));
        }));
        black_box(h.count());
    }
    {
        let mut plan = FaultPlan::seeded(7);
        plan.set_drop_probability(0.02);
        plan.set_duplicate_probability(0.05);
        plan.set_reorder(0.10, 1_000_000);
        let (a, b) = (Location::new(0, 1), Location::new(1, 2));
        out.push(probe("net.faults.judge_ns", |i| {
            black_box(plan.judge(black_box(i), a, b, SimTime(i)));
        }));
    }
    {
        let mut d = DedupState::new(1_024);
        out.push(probe("net.dedup.admit_ns", |i| {
            // Eight senders, in-order sequence numbers, one duplicate in 16.
            let seq = (i / 8) - u64::from(i % 16 == 15);
            black_box(d.admit(i % 8, seq));
        }));
    }
    {
        let mut q = AdmissionQueue::new(AdmissionConfig {
            service_ns: 200_000,
            queue_depth: 16,
        });
        out.push(probe("net.admission.offer_ns", |i| {
            black_box(q.offer(i * 100_000));
        }));
    }

    // ---- legion-core ----
    {
        let names = [
            "GetBinding",
            "Ping",
            "Activate",
            "Deactivate",
            "Move",
            "reply",
        ];
        for n in names {
            Sym::intern(n);
        }
        out.push(probe("core.symbol.lookup_ns", |i| {
            black_box(Sym::try_lookup(black_box(names[(i % 6) as usize])));
        }));
        let args = vec![LegionValue::Loid(Loid::class_object(1_234))];
        out.push(probe("core.dispatch.decode_args_ns", |_| {
            black_box(<(BindingArg,)>::from_args(black_box(&args)).is_ok());
        }));
        let v = LegionValue::from(binding(2));
        out.push(probe("core.value.clone_binding_ns", |_| {
            black_box(black_box(&v).clone());
        }));
    }

    // ---- legion-naming ----
    {
        let mut cache = BindingCache::new(4_096);
        for i in 0..4_096 {
            cache.insert(binding(i));
        }
        out.push(probe("naming.cache.get_hit_ns", |i| {
            let l = Loid::class_object(1_000 + (i.wrapping_mul(2_654_435_761) % 4_096));
            black_box(cache.get_ref(&l, SimTime(i)).is_some());
        }));
        // A full cache: every insert of a fresh LOID evicts the LRU entry.
        let mut fresh = binding(0);
        out.push(probe("naming.cache.insert_evict_ns", |i| {
            fresh.loid = Loid::class_object(10_000 + i);
            cache.insert_ref(black_box(&fresh));
        }));
        // Invalidate resident entries: each batch is refilled, untimed,
        // with the `BATCH` entries it is about to remove.
        out.push(Probe {
            name: "naming.cache.invalidate_ns",
            ns: time_batches(
                BATCH,
                &mut (BindingCache::new(BATCH), fresh),
                |(cache, fresh), from| {
                    for i in from..from + BATCH as u64 {
                        fresh.loid = Loid::class_object(1_000 + i);
                        cache.insert_ref(fresh);
                    }
                },
                |(cache, _), i| {
                    black_box(cache.invalidate(&Loid::class_object(1_000 + i)));
                },
            ),
            batch: BATCH,
        });
    }

    // ---- legion-persist ----
    {
        let state: Vec<u8> = (0..1_024).map(|_| rng.next_u64() as u8).collect();
        let opr = Opr::new(
            Loid::instance(1_000, 1),
            Loid::class_object(1_000),
            0xFEED,
            state,
        );
        out.push(probe_n("persist.opr.encode_ns", SLOW_BATCH, |_| {
            black_box(black_box(&opr).encode());
        }));
        let bytes = opr.encode();
        out.push(probe_n("persist.opr.decode_verify_ns", SLOW_BATCH, |_| {
            black_box(Opr::decode(black_box(&bytes)).is_ok());
        }));
        let mut store = JurisdictionStorage::new(0, 2, 1 << 40);
        out.push(probe_n("persist.storage.write_read_ns", SLOW_BATCH, |_| {
            let addr = store.store_opr(black_box(&opr)).expect("disk has room");
            black_box(store.load_opr(&addr).is_ok());
            store.delete(&addr).expect("just stored");
        }));
        let mut cas = MemBlobStore::new();
        let mut block = vec![0u8; 4_096];
        out.push(probe_n("persist.cas.put_4k_ns", SLOW_BATCH, |i| {
            // Four chunks in rotation: one fresh insert, then dedup hits —
            // the content hash dominates either way.
            block[0] = (i % 4) as u8;
            black_box(cas.put(black_box(&block)));
        }));
    }

    // ---- legion-security ----
    {
        let alice = Loid::instance(20, 1);
        let mut acl = MethodAcl::deny_by_default();
        for m in ["Ping", "Read", "Write", "Activate"] {
            acl.grant(m, alice);
        }
        let env = InvocationEnv::solo(alice);
        out.push(probe("security.mayi.acl_check_ns", |_| {
            black_box(acl.may_i(black_box(&env), "Ping").is_allowed());
        }));
        let both = AllOf::new(vec![
            Box::new(acl.clone()) as Box<dyn MayIPolicy>,
            Box::new(ResponsibleAgentSet::new([alice])),
        ]);
        out.push(probe("security.mayi.composite_check_ns", |_| {
            black_box(both.may_i(black_box(&env), "Ping").is_allowed());
        }));
    }

    // ---- legion-ha ----
    {
        let policy = MissThreshold {
            suspect_after: 4,
            dead_after: 8,
        };
        let mut det = FailureDetector::new(Box::new(policy), 2_000_000);
        let hosts: Vec<Loid> = (0..64).map(|i| Loid::instance(3, i + 1)).collect();
        for h in &hosts {
            det.register(*h, SimTime(0));
        }
        out.push(probe("ha.detector.heartbeat_ns", |i| {
            black_box(det.heartbeat(hosts[(i % 64) as usize], SimTime(i * 31_250)));
        }));
        // A sweep visits all 64 hosts, so 1/50 of the batch size keeps
        // it near 10⁶ host visits in all. Every host was just heard
        // from: the steady-state sweep that finds nothing to report.
        let now = SimTime(BATCH as u64 * 22 * 31_250);
        for h in &hosts {
            det.heartbeat(*h, now);
        }
        out.push(Probe {
            name: "ha.detector.sweep_ns",
            ns: time_batches(
                BATCH / 50,
                &mut det,
                |_, _| (),
                |det, _| {
                    black_box(det.sweep(black_box(now)).len());
                },
            ),
            batch: BATCH / 50,
        });
    }

    // ---- legion-journal ----
    {
        let mut w = JournalWriter::new(Box::new(MemSink::new()), 0);
        out.push(probe("journal.append_ns_per_record", |i| {
            black_box(w.append(
                i * 1_000,
                RecordKind::Deliver,
                i % 64,
                i,
                40_000,
                "GetBinding",
            ));
        }));
    }

    // ---- legion-obs ----
    {
        let mut flight = FlightRecorder::default();
        out.push(probe("obs.flight.record_ns", |i| {
            flight.record(FlightEvent {
                at: SimTime(i),
                kind: FlightKind::Deliver,
                endpoint: i % 64,
                label: GET_BINDING,
                detail: i,
                seq: i,
            });
        }));
        black_box(flight.total());
        let mut slo = SloTracker::new(SloConfig::default());
        out.push(probe("obs.slo.record_ns", |i| {
            slo.record(i * 1_000, i % 8, 150_000 + (i % 1_000));
        }));
        black_box(slo.is_enabled());
        let mut prof = KernelProfiler::enabled();
        out.push(probe("obs.profiler.record_ns", |i| {
            prof.record(i % 64, GET_BINDING, 40_000, 250, 1, 64);
        }));
        black_box(prof.is_enabled());
        // Drained, untimed, between batches: the sink is bounded and a
        // full one takes the cheaper drop path.
        out.push(Probe {
            name: "obs.sink.push_ns",
            ns: time_batches(
                BATCH,
                &mut TraceSink::with_capacity(BATCH),
                |sink, _| drop(sink.drain()),
                |sink, i| {
                    sink.record(SpanEvent {
                        trace: TraceId(1 + i % 1_000),
                        span: SpanId(1 + i),
                        parent: SpanId::NONE,
                        kind: SpanEventKind::Deliver,
                        at: SimTime(i),
                        endpoint: i % 64,
                        label: String::from("GetBinding"),
                    });
                },
            ),
            batch: BATCH,
        });
    }
    out
}
