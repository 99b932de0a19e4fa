//! E17 — the kernel hot path at million-LOID scale.
//!
//! The paper's setting is "millions of sites and trillions of objects"
//! (§1); every prior experiment exercises the naming machinery on systems
//! of tens of endpoints. E17 is the kernel-side stress: a deep k-ary
//! Binding-Agent tree (§5.2.2) serving Zipfian `GetBinding` traffic over
//! a LOID space of **one million class objects**, driven closed-loop by a
//! fleet of clients. What it measures is the cost of the two hot-path
//! layers this repo's kernel overhaul introduced:
//!
//! * the **event queue** ([`legion_net::equeue`]) — reported as wall
//!   nanoseconds per kernel event and the peak queue population
//!   ([`legion_net::sim::SimKernel::queue_peak_len`]);
//! * the **message pool** ([`legion_net::pool`]) — reported as allocator
//!   hits per delivered message (non-zero only when the counting
//!   allocator is registered, i.e. under `legion-bench`).
//!
//! The naming side is the paper's §4.1/§5.2 architecture, scaled: every
//! target is a class object, so lookups combine up the agent tree; the
//! root consults LegionClass (`FindResponsible`: the whole campaign range
//! resolves through one registry class) and asks the registry for the
//! actual binding. The registry and LegionClass *compute* their answers
//! (see [`SynthRegistry`]) — the distributed per-LOID state the campaign
//! exercises lives in the agent and client caches along the tree.
//! Zipf(0.9) popularity means the hot mass is cache-resident at the
//! leaves while the long tail keeps exercising the full resolution path —
//! and the event queue underneath all of it.
//!
//! Reported per sweep point: completed binds/sec and messages/sec
//! (wall-clock), nanoseconds per kernel event, allocations per message,
//! and the peak event-queue length. Sim-time results (lookups, messages,
//! events, queue peak) are seed-deterministic; the wall-clock rates are
//! not and are never gated.

use crate::experiments::common::scale;
use crate::harness::{Closed, Watch};
use crate::report::Table;
use crate::system::agent_loid;
use crate::workload::ZipfSampler;
use legion_core::address::ObjectAddress;
use legion_core::binding::Binding;
use legion_core::interface::ParamType;
use legion_core::loid::Loid;
use legion_core::symbol;
use legion_core::value::LegionValue;
use legion_core::wellknown::{FIRST_USER_CLASS_ID, LEGION_CLASS};
use legion_naming::agent::{AgentConfig, BindingAgentEndpoint};
use legion_naming::protocol::{BindingArg, FIND_RESPONSIBLE, GET_BINDING};
use legion_naming::resolver::{ClientResolver, Lookup};
use legion_naming::tree::TreeShape;
use legion_net::dispatch::{serve, MethodTable, Outcome, TableBuilder};
use legion_net::sim::{Ctx, Endpoint, SimKernel};
use legion_net::{FaultPlan, Location, Message, Topology};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::rc::Rc;

/// The registry class responsible for every campaign target: the §4.1.3
/// "responsible class" relation, collapsed to one well-known class so the
/// LOID space can grow to millions without growing the endpoint count.
const REGISTRY: Loid = Loid::class_object(FIRST_USER_CLASS_ID);

/// First campaign-target class id (right after the registry).
const FIRST_TARGET: u64 = FIRST_USER_CLASS_ID + 1;

/// Per-client local binding-cache capacity. Small against the LOID
/// space: the Zipf head fits, the tail must travel.
const CLIENT_CACHE: usize = 512;

/// Event budget for one campaign (a closed loop cannot run away, but a
/// wiring bug would; this converts a hang into a visible failure).
const MAX_EVENTS: u64 = 200_000_000;

/// One sweep point of the campaign.
#[derive(Debug, Clone)]
pub struct Row {
    /// Campaign LOID-space size.
    pub loids: u64,
    /// Binding Agents in the k-ary tree.
    pub agents: usize,
    /// Closed-loop clients.
    pub clients: usize,
    /// Completed binds (every client finished its plan).
    pub lookups: u64,
    /// Failed lookups (must be zero on a fault-free run).
    pub failed: u64,
    /// Messages delivered by the kernel.
    pub messages: u64,
    /// Kernel events processed (deliveries + timers + starts).
    pub events: u64,
    /// Peak event-queue population (scheduler pressure).
    pub queue_peak: usize,
    /// Virtual time the measured wave spans, attach to quiescence.
    pub virtual_ns: u64,
    /// Completed binds per wall-clock second.
    pub binds_per_sec: f64,
    /// Delivered messages per wall-clock second.
    pub messages_per_sec: f64,
    /// Wall nanoseconds per kernel event (queue-op + dispatch cost).
    pub ns_per_event: f64,
    /// Allocator calls during the measured wave (0 unless the counting
    /// allocator is registered — `legion-bench` does, `legion-exp`
    /// does not).
    pub allocs: u64,
    /// Bytes requested from the allocator during the measured wave.
    pub alloc_bytes: u64,
}

/// Which jurisdiction an agent's cluster lives in: the root (and the
/// naming services) in 0, each depth-1 subtree whole in one of four
/// satellite jurisdictions.
fn cluster(tree: &TreeShape, i: usize) -> u32 {
    if i == 0 {
        return 0;
    }
    let mut a = i;
    while let Some(p) = tree.parent(a) {
        if p == 0 {
            break;
        }
        a = p;
    }
    1 + ((a - 1) as u32) % 4
}

/// Is `l` one of the campaign's target class objects?
fn in_campaign_range(l: &Loid, loids: u64) -> bool {
    l.is_class() && l.class_id.0 >= FIRST_TARGET && l.class_id.0 < FIRST_TARGET + loids
}

/// The campaign registry: the class responsible for the entire target
/// LOID space, answering `GetBinding` *computationally* — every target
/// binds to the registry's own element, so a row is a pure function of
/// the LOID. A stored million-row table (each row carrying a
/// heap-allocated address vector) adds ~400 MB of dead working set and
/// turns the measurement into a test of the host allocator and TLB; the
/// per-LOID state E17 is *about* stays where it is distributed — the
/// agent and client caches along the tree.
struct SynthRegistry {
    loids: u64,
    /// Reusable reply template; the per-request loid is written in place
    /// so answering allocates nothing.
    template: Binding,
    /// `GetBinding` requests served.
    requests: u64,
    dispatch: Rc<MethodTable<Self>>,
}

impl SynthRegistry {
    fn new(loids: u64) -> Self {
        SynthRegistry {
            loids,
            template: Binding::forever(
                REGISTRY,
                ObjectAddress::single(legion_core::address::ObjectAddressElement::sim(0)),
            ),
            requests: 0,
            dispatch: TableBuilder::new("class", "ScaleRegistry", REGISTRY)
                .get_interface()
                .method::<(BindingArg,), _>(
                    GET_BINDING,
                    &["target"],
                    ParamType::Binding,
                    |e: &mut Self, ctx, _msg, (arg,)| {
                        e.requests += 1;
                        ctx.count(symbol::CLASS_GET_BINDING);
                        let target = arg.loid();
                        Outcome::Reply(if in_campaign_range(&target, e.loids) {
                            e.template.loid = target;
                            Ok(ctx.binding_value(&e.template))
                        } else {
                            Err(format!("{REGISTRY}: unknown object {target}"))
                        })
                    },
                )
                .seal(),
        }
    }

    /// Wire in the registry's own (post-attach) address element, the
    /// target every campaign binding points at.
    fn bind_element(&mut self, el: legion_core::address::ObjectAddressElement) {
        self.template.address = ObjectAddress::single(el);
    }
}

impl Endpoint for SynthRegistry {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        if msg.is_reply() {
            return;
        }
        let table = Rc::clone(&self.dispatch);
        serve(&table, self, ctx, msg);
    }
}

/// LegionClass for the campaign: the §4.1.3 responsibility relation over
/// the whole LOID space is a single rule — every campaign target was
/// created by (and resolves through) the registry — so `FindResponsible`
/// and the registry's own `GetBinding` are computed, not stored.
struct SynthLegionClass {
    loids: u64,
    /// The registry's binding (LegionClass is its chain end).
    registry_binding: Binding,
    /// `FindResponsible` requests served.
    find_requests: u64,
    /// `GetBinding` requests served.
    binding_requests: u64,
    dispatch: Rc<MethodTable<Self>>,
}

impl SynthLegionClass {
    fn new(loids: u64) -> Self {
        SynthLegionClass {
            loids,
            registry_binding: Binding::forever(
                REGISTRY,
                ObjectAddress::single(legion_core::address::ObjectAddressElement::sim(0)),
            ),
            find_requests: 0,
            binding_requests: 0,
            dispatch: TableBuilder::new("legion_class", "ScaleLegionClass", LEGION_CLASS)
                .get_interface()
                .method::<(Loid,), _>(
                    FIND_RESPONSIBLE,
                    &["target"],
                    ParamType::Loid,
                    |e: &mut Self, ctx, _msg, (target,)| {
                        e.find_requests += 1;
                        ctx.count(symbol::LEGION_CLASS_FIND);
                        Outcome::Reply(if !target.is_class() {
                            Ok(LegionValue::Loid(target.class_loid()))
                        } else if in_campaign_range(&target, e.loids) {
                            Ok(LegionValue::Loid(REGISTRY))
                        } else if target == REGISTRY || target == LEGION_CLASS {
                            Ok(LegionValue::Loid(LEGION_CLASS))
                        } else {
                            Err(format!("no responsibility pair for {target}"))
                        })
                    },
                )
                .method::<(BindingArg,), _>(
                    GET_BINDING,
                    &["target"],
                    ParamType::Binding,
                    |e: &mut Self, ctx, _msg, (arg,)| {
                        e.binding_requests += 1;
                        ctx.count(symbol::LEGION_CLASS_GET_BINDING);
                        let l = arg.loid();
                        Outcome::Reply(if l == REGISTRY {
                            Ok(ctx.binding_value(&e.registry_binding))
                        } else {
                            Err(format!("LegionClass has no binding for {l}"))
                        })
                    },
                )
                .seal(),
        }
    }

    /// Wire in the registry's post-attach address element.
    fn bind_registry_element(&mut self, el: legion_core::address::ObjectAddressElement) {
        self.registry_binding.address = ObjectAddress::single(el);
    }
}

impl Endpoint for SynthLegionClass {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        if msg.is_reply() {
            return;
        }
        let table = Rc::clone(&self.dispatch);
        serve(&table, self, ctx, msg);
    }
}

/// A lean closed-loop lookup client: resolve the next planned target,
/// wait if the resolution went remote, repeat. No invocation phase, no
/// timers — the measured traffic is purely the binding protocol over the
/// kernel hot path.
struct ScaleClient {
    resolver: ClientResolver,
    plan: Vec<Loid>,
    next: usize,
    completed: u64,
    failed: u64,
}

impl ScaleClient {
    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        while self.next < self.plan.len() {
            let target = self.plan[self.next];
            self.next += 1;
            // One trace per lookup; free when the span sink is off.
            ctx.trace_begin("lookup");
            match self.resolver.lookup(ctx, target) {
                Lookup::Cached(_) => self.settle(ctx, true),
                Lookup::Requested(_) => return, // resume on the reply
                Lookup::AgentUnreachable => self.settle(ctx, false),
            }
        }
    }

    fn settle(&mut self, ctx: &mut Ctx<'_>, ok: bool) {
        ctx.trace_end(if ok { "ok" } else { "failed" });
        if ok {
            self.completed += 1;
        } else {
            self.failed += 1;
        }
    }
}

impl Endpoint for ScaleClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.pump(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        if let Ok((_, result)) = self.resolver.handle_reply_owned(ctx, msg) {
            self.settle(ctx, result.is_ok());
            self.pump(ctx);
        }
    }
}

/// Run one campaign under `watch`: build the system, drive every client
/// to completion, report kernel-level rates. The session opens on the
/// built system, before the warm fleet attaches.
pub fn campaign(
    loids: u64,
    tree: TreeShape,
    clients: usize,
    lookups_per_client: usize,
    seed: u64,
    watch: Watch,
) -> (Row, Closed) {
    let mut kernel = SimKernel::new(Topology::default(), FaultPlan::none(), seed);

    // The registry class: responsible for every one of the `loids`
    // campaign targets, answering `GetBinding` computationally (see
    // [`SynthRegistry`]). Attached first so its own address element can
    // be wired into itself and LegionClass before any traffic flows.
    let registry_ep = kernel.add_endpoint(
        Box::new(SynthRegistry::new(loids)),
        Location::new(0, 0),
        "registry",
    );
    let registry_el = registry_ep.element();
    kernel
        .endpoint_mut::<SynthRegistry>(registry_ep)
        .expect("registry endpoint")
        .bind_element(registry_el);

    // LegionClass: the §4.1.3 responsibility relation over the whole
    // campaign range (every target → the registry), plus the registry's
    // own chain end — computed, for the same reason as the registry.
    let lc_ep = kernel.add_endpoint(
        Box::new(SynthLegionClass::new(loids)),
        Location::new(0, 1),
        "legion-class",
    );
    let lc_el = lc_ep.element();
    kernel
        .endpoint_mut::<SynthLegionClass>(lc_ep)
        .expect("legion-class endpoint")
        .bind_registry_element(registry_el);

    // The k-ary Binding-Agent tree. Placement mirrors a real deployment:
    // the root lives with the naming services in jurisdiction 0, and each
    // depth-1 subtree is clustered whole into one of four satellite
    // jurisdictions — so a tree walk pays LAN prices inside a cluster and
    // crosses the WAN exactly once, at the top of the tree. (Round-robin
    // placement would make *every* hop a 40–60 ms WAN hop and a deep
    // miss path would brush the agents' 500 ms upstream timeout.)
    // Agent caches are provisioned for the LOID space (1.6% of it, vs
    // the 4096 default built for tens-of-endpoint systems): the shared
    // upper levels of the tree see the union of every leaf's tail misses
    // and would thrash a fixed-size cache long before the Zipf head is
    // resident.
    let agent_cache = ((loids / 64) as usize).max(4096);
    let mut agents = Vec::with_capacity(tree.count);
    for i in 0..tree.count {
        let mut cfg = AgentConfig::root(agent_loid(i), lc_el);
        cfg.cache_capacity = agent_cache;
        if let Some(p) = tree.parent(i) {
            let parent_ep: &legion_net::sim::EndpointId = &agents[p];
            cfg = cfg.with_parent(parent_ep.element());
        }
        let ep = kernel.add_endpoint(
            Box::new(BindingAgentEndpoint::new(cfg)),
            Location::new(cluster(&tree, i), 100 + i as u32),
            format!("agent{i}"),
        );
        agents.push(ep);
    }
    let leaves = tree.leaves();

    // Zipf(0.9) plans over the full LOID space: one shared sampler (the
    // rank CDF is the campaign's popularity law), one cheap RNG per
    // client. Plans are pre-generated so the measured loop does no
    // sampling work — every measured cycle is kernel + naming protocol.
    //
    // Measurement follows the E12 steady-state discipline
    // (`legion-bench`'s `measure.rs`): a warm-up fleet first populates the
    // agent caches, then metrics are reset and a *fresh* fleet — cold
    // client caches, same popularity law, independent draws — drives the
    // measured wave. The rates below are steady-state numbers: the head
    // of the Zipf law is agent-cache-resident, the tail still walks the
    // full tree/LegionClass/registry path against the million-entry
    // tables.
    let zipf = ZipfSampler::new(loids as usize, 0.9);
    let attach_fleet = |kernel: &mut SimKernel, salt: u64, host_base: u32| {
        let mut eps = Vec::with_capacity(clients);
        for c in 0..clients {
            let mut rng = SmallRng::seed_from_u64(seed ^ salt ^ (0xC11E57 + c as u64));
            let plan: Vec<Loid> = (0..lookups_per_client)
                .map(|_| Loid::class_object(FIRST_TARGET + zipf.sample(&mut rng) as u64))
                .collect();
            let leaf_idx = leaves[c % leaves.len()];
            let leaf = agents[leaf_idx];
            let client = ScaleClient {
                resolver: ClientResolver::new(
                    Loid::instance(FIRST_TARGET, salt + c as u64 + 1),
                    leaf.element(),
                    CLIENT_CACHE,
                ),
                plan,
                next: 0,
                completed: 0,
                failed: 0,
            };
            // Clients live in the same jurisdiction as their leaf agent.
            let ep = kernel.add_endpoint(
                Box::new(client),
                Location::new(cluster(&tree, leaf_idx), host_base + c as u32),
                format!("scale-client{}", salt + c as u64),
            );
            eps.push(ep);
        }
        eps
    };

    // Warm wave: populate agent caches along every cluster's leaf path.
    let session = watch.open(&mut kernel);
    let warm_eps = attach_fleet(&mut kernel, 0, 1000);
    kernel.run_until_quiescent(MAX_EVENTS);
    for &ep in &warm_eps {
        let c = kernel.endpoint_mut::<ScaleClient>(ep).expect("warm client");
        debug_assert_eq!(c.next, c.plan.len(), "warm client finished its plan");
    }
    session.measure(&mut kernel);

    // Measured wave: wall-clock and allocator deltas bracket only this
    // drive — not the million-entry setup, not the warm-up.
    let (a0, b0) = legion_core::allocs::counts();
    let t0 = std::time::Instant::now();
    let wave_start = kernel.now();
    let client_eps = attach_fleet(&mut kernel, 0x100_000, 10_000);
    kernel.run_until_quiescent(MAX_EVENTS);
    let wall = t0.elapsed();
    let (a1, b1) = legion_core::allocs::counts();

    let mut completed = 0u64;
    let mut failed = 0u64;
    for &ep in &client_eps {
        let c = kernel
            .endpoint_mut::<ScaleClient>(ep)
            .expect("scale client");
        completed += c.completed;
        failed += c.failed;
        debug_assert_eq!(c.next, c.plan.len(), "client finished its plan");
    }
    let stats = kernel.stats();
    let wall_s = wall.as_secs_f64().max(f64::MIN_POSITIVE);
    let row = Row {
        loids,
        agents: agents.len(),
        clients,
        lookups: completed,
        failed,
        messages: stats.delivered,
        events: stats.events,
        queue_peak: kernel.queue_peak_len(),
        virtual_ns: kernel.now().as_nanos() - wave_start.as_nanos(),
        binds_per_sec: completed as f64 / wall_s,
        messages_per_sec: stats.delivered as f64 / wall_s,
        ns_per_event: wall.as_nanos() as f64 / stats.events.max(1) as f64,
        allocs: a1 - a0,
        alloc_bytes: b1 - b0,
    };
    (row, session.close(&mut kernel))
}

/// The CI-scale point: a 3-level tree over a 10k-LOID space. Fast enough
/// for a tier-1 test while still walking every layer the full campaign
/// walks.
pub fn quick_campaign(seed: u64) -> Row {
    quick_point(seed, Watch::off()).0
}

/// The paper-scale point: a million LOIDs behind a 4-level, 585-agent tree.
pub fn full_campaign(seed: u64) -> Row {
    campaign(
        1_000_000,
        TreeShape::new(8, 585),
        64,
        500,
        seed,
        Watch::off(),
    )
    .0
}

fn quick_point(seed: u64, watch: Watch) -> (Row, Closed) {
    campaign(10_000, TreeShape::new(8, 73), 16, 200, seed, watch)
}

/// The observed point: the 10k-LOID campaign at either size — its spans
/// fit the harness's span sink, the million-LOID point's would not.
pub fn observed(_quick: bool, seed: u64, watch: Watch) -> Closed {
    quick_point(seed, watch).1
}

/// What `legion-exp e17` prints.
pub fn tables(quick: bool, seed: u64) -> Vec<Table> {
    vec![table(&run(scale(quick), seed))]
}

/// Run the sweep: quick mode stops at the CI point; full mode grows the
/// LOID space to the paper-scale million.
pub fn run(scale: u32, seed: u64) -> Vec<Row> {
    let mut rows = vec![quick_campaign(seed)];
    if scale > 1 {
        rows.push(campaign(100_000, TreeShape::new(8, 73), 64, 500, seed, Watch::off()).0);
        rows.push(full_campaign(seed));
    }
    rows
}

/// Render the EXPERIMENTS.md table.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "E17: million-LOID Zipfian campaign over the kernel hot path",
        &[
            "loids",
            "agents",
            "clients",
            "binds",
            "msgs",
            "events",
            "queue-peak",
            "binds/s",
            "msgs/s",
            "ns/event",
            "allocs/msg",
        ],
    );
    for r in rows {
        t.row(vec![
            r.loids.to_string(),
            r.agents.to_string(),
            r.clients.to_string(),
            r.lookups.to_string(),
            r.messages.to_string(),
            r.events.to_string(),
            r.queue_peak.to_string(),
            format!("{:.0}", r.binds_per_sec),
            format!("{:.0}", r.messages_per_sec),
            format!("{:.0}", r.ns_per_event),
            format!("{:.2}", r.allocs as f64 / r.messages.max(1) as f64),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64) -> Row {
        campaign(1_000, TreeShape::new(4, 5), 8, 50, seed, Watch::off()).0
    }

    #[test]
    fn campaign_completes_every_lookup() {
        let row = tiny(901);
        assert_eq!(row.lookups, 8 * 50, "{row:?}");
        assert_eq!(row.failed, 0, "{row:?}");
        assert!(row.messages > 0 && row.events > row.messages, "{row:?}");
        assert!(row.queue_peak > 0, "{row:?}");
    }

    #[test]
    fn same_seed_campaigns_are_identical() {
        // The satellite determinism gate: two same-seed campaigns must
        // agree on every sim-time quantity (wall-clock rates are the
        // only nondeterministic fields).
        let a = tiny(902);
        let b = tiny(902);
        assert_eq!(a.lookups, b.lookups);
        assert_eq!(a.failed, b.failed);
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.events, b.events);
        assert_eq!(a.queue_peak, b.queue_peak);
    }

    #[test]
    fn zipf_head_is_cache_resident() {
        // With s = 0.9 the head of the popularity law must hit client
        // caches: messages per bind stays well under the full-path cost.
        let row = tiny(903);
        let msgs_per_bind = row.messages as f64 / row.lookups as f64;
        assert!(
            msgs_per_bind < 6.0,
            "expected cache-absorbed traffic, got {msgs_per_bind:.1} msgs/bind ({row:?})"
        );
    }
}
