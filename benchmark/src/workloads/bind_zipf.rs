//! `bind_zipf_1m` — closed loop: 64 clients resolve Zipf(0.9) targets
//! over one million class LOIDs through a 585-agent 8-ary Binding-Agent
//! tree (the E17 shape, rebuilt from public pieces).
//!
//! Why: `legion-net` (wheel, pool, dispatch) and `legion-naming` (agent
//! and client caches, the combining tree) do almost all the work;
//! runtime, persist, security, ha, journal and the optional observers do
//! none. A kernel or cache optimisation must show here; a lifecycle one
//! must not.

use crate::gen::{SplitMix64, Zipf};
use crate::measure::Measured;
use crate::rig::{phase, shared_log, warm, Counts, Rig, SetupTimes, SharedLog};
use crate::span::Spans;
use crate::workloads::{copy_counters, Scale, NAMING_COUNTERS};
use legion_core::address::{ObjectAddress, ObjectAddressElement};
use legion_core::binding::Binding;
use legion_core::interface::ParamType;
use legion_core::loid::Loid;
use legion_core::time::SimTime;
use legion_core::value::LegionValue;
use legion_core::wellknown::{FIRST_USER_CLASS_ID, LEGION_CLASS};
use legion_naming::agent::{AgentConfig, BindingAgentEndpoint};
use legion_naming::protocol::{BindingArg, FIND_RESPONSIBLE, GET_BINDING};
use legion_naming::resolver::{ClientResolver, Lookup};
use legion_naming::tree::TreeShape;
use legion_net::dispatch::{serve, MethodTable, Outcome, TableBuilder};
use legion_net::sim::{Ctx, Endpoint, EndpointId, SimKernel};
use legion_net::{FaultPlan, Location, Message, Topology};
use legion_sim::system::agent_loid;
use std::rc::Rc;

pub const LOIDS: u64 = 1_000_000;
pub const AGENTS: usize = 585;
pub const CLIENTS: usize = 64;
const ARITY: usize = 8;
const ZIPF_S: f64 = 0.9;
/// Per-client binding cache: the Zipf head fits, the tail must travel.
const CLIENT_CACHE: usize = 512;
/// Completed lookups at full size (`--seconds 10`).
pub const OPS: u64 = 64 * 12_000;
/// Lookups of the warm wave, at full size.
const WARM_OPS: u64 = 64 * 2_500;

/// The class responsible for every target (§4.1.3), collapsed to one
/// well-known class so the LOID space can grow without growing the
/// endpoint count; it and LegionClass *compute* their answers.
const REGISTRY: Loid = Loid::class_object(FIRST_USER_CLASS_ID);
const FIRST_TARGET: u64 = FIRST_USER_CLASS_ID + 1;

fn in_range(l: &Loid, loids: u64) -> bool {
    l.is_class() && l.class_id.0 >= FIRST_TARGET && l.class_id.0 < FIRST_TARGET + loids
}

/// Synthesized registry class: every target binds to the registry's own
/// address element, so a row is a pure function of the LOID.
struct Registry {
    loids: u64,
    template: Binding,
    dispatch: Rc<MethodTable<Self>>,
}

impl Registry {
    fn new(loids: u64) -> Self {
        Registry {
            loids,
            template: Binding::forever(
                REGISTRY,
                ObjectAddress::single(ObjectAddressElement::sim(0)),
            ),
            dispatch: TableBuilder::new("class", "BenchRegistry", REGISTRY)
                .get_interface()
                .method::<(BindingArg,), _>(
                    GET_BINDING,
                    &["target"],
                    ParamType::Binding,
                    |e: &mut Self, ctx, _msg, (arg,)| {
                        ctx.count("class.get_binding");
                        let target = arg.loid();
                        Outcome::Reply(if in_range(&target, e.loids) {
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
}

impl Endpoint for Registry {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        if !msg.is_reply() {
            let table = Rc::clone(&self.dispatch);
            serve(&table, self, ctx, msg);
        }
    }
}

/// Synthesized LegionClass: the responsibility relation over the whole
/// range is one rule (every target → the registry).
struct SynthLegionClass {
    loids: u64,
    registry_binding: Binding,
    dispatch: Rc<MethodTable<Self>>,
}

impl SynthLegionClass {
    fn new(loids: u64, registry: ObjectAddressElement) -> Self {
        SynthLegionClass {
            loids,
            registry_binding: Binding::forever(REGISTRY, ObjectAddress::single(registry)),
            dispatch: TableBuilder::new("legion_class", "BenchLegionClass", LEGION_CLASS)
                .get_interface()
                .method::<(Loid,), _>(
                    FIND_RESPONSIBLE,
                    &["target"],
                    ParamType::Loid,
                    |e: &mut Self, ctx, _msg, (target,)| {
                        ctx.count("legion_class.find");
                        Outcome::Reply(if !target.is_class() {
                            Ok(LegionValue::Loid(target.class_loid()))
                        } else if in_range(&target, e.loids) {
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
                        ctx.count("legion_class.get_binding");
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
}

impl Endpoint for SynthLegionClass {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        if !msg.is_reply() {
            let table = Rc::clone(&self.dispatch);
            serve(&table, self, ctx, msg);
        }
    }
}

/// A lean closed-loop lookup client over the program's `ClientResolver`:
/// resolve the next planned rank, wait if the resolution went remote,
/// repeat. No think time, no invocation phase.
struct ZipfClient {
    resolver: ClientResolver,
    /// Target ranks (the plan stores 4-byte ranks, not 48-byte LOIDs).
    plan: Vec<u32>,
    next: usize,
    issued_at: SimTime,
    log: SharedLog,
}

impl ZipfClient {
    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        while self.next < self.plan.len() {
            let target = Loid::class_object(FIRST_TARGET + u64::from(self.plan[self.next]));
            self.next += 1;
            match self.resolver.lookup(ctx, target) {
                Lookup::Cached(_) => self.log.borrow_mut().lat_ns.push(0),
                Lookup::Requested(_) => {
                    self.issued_at = ctx.now();
                    return;
                }
                Lookup::AgentUnreachable => self.log.borrow_mut().failed += 1,
            }
        }
    }
}

impl Endpoint for ZipfClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.pump(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        if let Ok((_, result)) = self.resolver.handle_reply_owned(ctx, msg) {
            {
                let mut log = self.log.borrow_mut();
                match result {
                    Ok(_) => log.lat_ns.push(ctx.now().saturating_since(self.issued_at)),
                    Err(_) => log.failed += 1,
                }
            }
            self.pump(ctx);
        }
    }
}

/// Which jurisdiction an agent lives in: the root with the naming
/// services in 0, each depth-1 subtree whole in one of four satellite
/// jurisdictions — a tree walk crosses the WAN once, at the top.
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

pub struct BindZipf {
    kernel: SimKernel,
    planned: u64,
    log: SharedLog,
}

pub fn setup(seed: u64, scale: &Scale, spans: &mut Spans) -> (Box<dyn Rig>, SetupTimes) {
    let mut times = SetupTimes::default();
    let root = spans.open("setup", None);
    let loids = scale.size(LOIDS);
    let tree = TreeShape::new(ARITY, if scale.smoke { 73 } else { AGENTS });
    let log = shared_log(scale.ops(WARM_OPS + OPS) as usize);

    let (mut kernel, agents) = phase(spans, "setup.build", root, &mut times.build_s, || {
        let mut kernel = SimKernel::new(Topology::default(), FaultPlan::none(), seed);
        let registry = kernel.add_endpoint(
            Box::new(Registry::new(loids)),
            Location::new(0, 0),
            "registry",
        );
        let el = registry.element();
        kernel
            .endpoint_mut::<Registry>(registry)
            .expect("registry just attached")
            .template
            .address = ObjectAddress::single(el);
        let lc = kernel.add_endpoint(
            Box::new(SynthLegionClass::new(loids, el)),
            Location::new(0, 1),
            "legion-class",
        );
        // Agent caches are provisioned for the LOID space (1/64 of it):
        // the upper tree levels see the union of every leaf's tail misses.
        let agent_cache = ((loids / 64) as usize).max(4096);
        let mut agents: Vec<EndpointId> = Vec::with_capacity(tree.count);
        for i in 0..tree.count {
            let mut cfg = AgentConfig::root(agent_loid(i), lc.element());
            cfg.cache_capacity = agent_cache;
            if let Some(p) = tree.parent(i) {
                cfg = cfg.with_parent(agents[p].element());
            }
            agents.push(kernel.add_endpoint(
                Box::new(BindingAgentEndpoint::new(cfg)),
                Location::new(cluster(&tree, i), 100 + i as u32),
                format!("agent{i}"),
            ));
        }
        (kernel, agents)
    });

    let per_client = (scale.ops(WARM_OPS + OPS) / CLIENTS as u64) as usize;
    let plans: Vec<Vec<u32>> = phase(spans, "setup.plan_gen", root, &mut times.plan_gen_s, || {
        let zipf = Zipf::new(loids as usize, ZIPF_S);
        let base = SplitMix64::new(seed);
        (0..CLIENTS)
            .map(|c| {
                let mut rng = base.fork(c as u64 + 1);
                (0..per_client)
                    .map(|_| zipf.sample(&mut rng) as u32)
                    .collect()
            })
            .collect()
    });

    phase(spans, "setup.attach", root, &mut times.attach_s, || {
        let leaves = tree.leaves();
        for (c, plan) in plans.into_iter().enumerate() {
            let leaf = leaves[c % leaves.len()];
            let client = ZipfClient {
                resolver: ClientResolver::new(
                    Loid::instance(FIRST_TARGET, c as u64 + 1),
                    agents[leaf].element(),
                    CLIENT_CACHE,
                ),
                plan,
                next: 0,
                issued_at: SimTime::ZERO,
                log: Rc::clone(&log),
            };
            kernel.add_endpoint(
                Box::new(client),
                Location::new(cluster(&tree, leaf), 10_000 + c as u32),
                format!("client{c}"),
            );
        }
    });

    let warmed = phase(spans, "setup.warm", root, &mut times.warm_s, || {
        warm(&mut kernel, &log, scale.ops(WARM_OPS))
    });
    spans.close(root);
    let planned = (per_client * CLIENTS) as u64 - warmed;
    (
        Box::new(BindZipf {
            kernel,
            planned,
            log,
        }),
        times,
    )
}

impl Rig for BindZipf {
    fn kernel(&mut self) -> &mut SimKernel {
        &mut self.kernel
    }
    fn kernel_ref(&self) -> &SimKernel {
        &self.kernel
    }
    fn log(&self) -> &SharedLog {
        &self.log
    }
    fn planned(&self) -> u64 {
        self.planned
    }

    fn collect(&mut self, out: &mut Counts) {
        copy_counters(&self.kernel, NAMING_COUNTERS, out);
    }

    fn check(&self, m: &Measured, errs: &mut Vec<String>) {
        if m.failed != 0 {
            errs.push(format!("{} lookups failed on a fault-free run", m.failed));
        }
    }
}
