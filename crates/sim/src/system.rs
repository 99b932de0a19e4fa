//! The whole-system builder: a configurable Legion-in-a-box.
//!
//! Wires everything the paper describes into one deterministic simulation:
//! the §4.2.1 core bootstrap, `J` jurisdictions each with a Magistrate and
//! `H` hosts, a k-ary Binding Agent tree (§5.2.2), `C` user classes
//! adopted by LegionClass, and `O` objects per class created through the
//! real `Create()` protocol. Experiment drivers then attach workload
//! clients and measure.

use legion_core::address::ObjectAddressElement;
use legion_core::binding::Binding;
use legion_core::class::{ClassKind, ClassObject};
use legion_core::env::InvocationEnv;
use legion_core::interface::{MethodSignature, ParamType};
use legion_core::loid::Loid;
use legion_core::object::object_mandatory_interface;
use legion_core::symbol::Sym;
use legion_core::value::LegionValue;
use legion_core::wellknown::{LEGION_BINDING_AGENT, LEGION_OBJECT};
use legion_ha::policy::MissThreshold;
use legion_naming::agent::{AgentConfig, BindingAgentEndpoint};
use legion_naming::tree::TreeShape;
use legion_net::admission::AdmissionConfig;
use legion_net::dispatch::Caller;
use legion_net::message::{Body, Message};
use legion_net::sim::{Ctx, Endpoint, EndpointId, SimKernel};
use legion_net::topology::{Location, Topology};
use legion_net::FaultPlan;
use legion_runtime::class_endpoint::{ClassConfig, ClassEndpoint, LegionClassEndpoint};
use legion_runtime::host::{HostObjectEndpoint, TIMER_HEARTBEAT};
use legion_runtime::magistrate::{MagistrateEndpoint, TIMER_HA_SWEEP};
use legion_runtime::protocol::class as class_proto;
use legion_runtime::CoreSystem;

/// Magistrate LOIDs are instances of the LegionMagistrate class (id 4).
pub fn magistrate_loid(jurisdiction: u32) -> Loid {
    Loid::instance(4, jurisdiction as u64 + 1)
}

/// Host LOIDs are instances of the LegionHost class (id 3).
pub fn host_loid(index: u32) -> Loid {
    Loid::instance(3, index as u64 + 1)
}

/// User class LOIDs start above the core ids.
pub fn user_class_loid(index: u32) -> Loid {
    Loid::class_object(1000 + index as u64)
}

/// Binding Agent LOIDs are instances of LegionBindingAgent (id 5).
pub fn agent_loid(index: usize) -> Loid {
    Loid::instance(LEGION_BINDING_AGENT.class_id.0, index as u64 + 1)
}

/// Configuration for [`LegionSystem::build`].
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Number of jurisdictions (each gets one Magistrate).
    pub jurisdictions: u32,
    /// Hosts per jurisdiction.
    pub hosts_per_jurisdiction: u32,
    /// Object slots per host.
    pub host_capacity: u32,
    /// Shape of the Binding Agent tree (§5.2.2).
    pub agent_tree: TreeShape,
    /// Forest mode (baseline for E4/E12): every agent is a root — no
    /// combining tree; clients attach round-robin over all agents.
    pub agent_forest: bool,
    /// Ablation: disable agent caches entirely (E3).
    pub agent_cache_enabled: bool,
    /// Number of user classes.
    pub classes: u32,
    /// Objects created per class at build time.
    pub objects_per_class: u32,
    /// Enable heartbeat failure detection + automatic recovery
    /// (`legion-ha`) during build, *before* the initial objects are
    /// created — activations then retain their OPR vault checkpoints, so
    /// every build-time object is recoverable. `None` = HA off (the
    /// seed's exact semantics).
    pub ha: Option<HaConfig>,
    /// When set, Magistrates and class endpoints expire outstanding call
    /// continuations after this many virtual ns (the deadline sweep in
    /// `legion-net::dispatch`), so replies lost to an adversarial network
    /// surface as uniform timeouts instead of leaked state. `None` — the
    /// default — arms no timers and preserves the exact event stream of
    /// earlier experiments.
    pub call_deadline_ns: Option<u64>,
    /// Admission control / service model for every class endpoint
    /// (E18). `None` — the default — gates nothing and preserves the
    /// exact event stream of earlier experiments; `Some` bounds each
    /// class's data-plane queue and sheds the excess with retry hints.
    pub class_admission: Option<AdmissionConfig>,
    /// Ablation (E8): class endpoints tell the Binding Agents holding a
    /// binding when its address stops being true
    /// ([`ClassConfig::notify_holders`]). On by default.
    pub notify_holders: bool,
    /// Network model.
    pub topology: Topology,
    /// RNG seed (full determinism per seed).
    pub seed: u64,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            jurisdictions: 2,
            hosts_per_jurisdiction: 2,
            host_capacity: 1024,
            agent_tree: TreeShape::single(),
            agent_forest: false,
            agent_cache_enabled: true,
            classes: 1,
            objects_per_class: 8,
            ha: None,
            call_deadline_ns: None,
            class_admission: None,
            notify_holders: true,
            topology: Topology::default(),
            seed: 42,
        }
    }
}

/// Failure-detection and recovery knobs for [`SystemConfig::ha`].
#[derive(Debug, Clone)]
pub struct HaConfig {
    /// Host → Magistrate heartbeat period (virtual ns).
    pub heartbeat_interval_ns: u64,
    /// Magistrate detector sweep period (virtual ns).
    pub sweep_interval_ns: u64,
    /// Heartbeats and sweeps stop re-arming past this virtual time, so
    /// the kernel can still reach quiescence after the workload drains.
    pub horizon_ns: u64,
    /// Missed heartbeat intervals before a host is Suspect.
    pub suspect_after: u32,
    /// Missed heartbeat intervals before a host is Dead (recovery runs).
    pub dead_after: u32,
}

impl Default for HaConfig {
    fn default() -> Self {
        HaConfig {
            heartbeat_interval_ns: 2_000_000, // 2 ms
            sweep_interval_ns: 2_000_000,
            horizon_ns: 5_000_000_000, // 5 s
            suspect_after: 2,
            dead_after: 4,
        }
    }
}

/// An internal driver endpoint used to issue calls from "outside".
#[derive(Default)]
pub struct Driver {
    replies: Vec<Result<LegionValue, String>>,
}

impl Endpoint for Driver {
    fn on_message(&mut self, _ctx: &mut Ctx<'_>, msg: Message) {
        if let Body::Reply { result, .. } = msg.body {
            self.replies.push(result);
        }
    }
}

/// The assembled system.
pub struct LegionSystem {
    /// The kernel everything runs on.
    pub kernel: SimKernel,
    /// Core endpoints from bootstrap.
    pub core: CoreSystem,
    /// Magistrates, one per jurisdiction, in jurisdiction order.
    pub magistrates: Vec<(Loid, EndpointId)>,
    /// Hosts: `(loid, endpoint, jurisdiction)`.
    pub hosts: Vec<(Loid, EndpointId, u32)>,
    /// Binding Agent endpoints, indexed by tree-node index.
    pub agents: Vec<EndpointId>,
    /// The agent tree shape.
    pub tree: TreeShape,
    /// User classes: `(loid, endpoint)`.
    pub classes: Vec<(Loid, EndpointId)>,
    /// Objects created at build time: `(loid, jurisdiction-of-creation)`.
    pub objects: Vec<(Loid, u32)>,
    driver: EndpointId,
    driver_location: Location,
    config: SystemConfig,
}

impl LegionSystem {
    /// Build a system per `config`. Deterministic for a given seed.
    pub fn build(config: SystemConfig) -> LegionSystem {
        let mut kernel = SimKernel::new(config.topology, FaultPlan::none(), config.seed);
        let core = CoreSystem::bootstrap(&mut kernel, Location::new(0, 0));

        // Magistrates and hosts per jurisdiction.
        let mut magistrates = Vec::new();
        let mut hosts = Vec::new();
        for j in 0..config.jurisdictions {
            let mloid = magistrate_loid(j);
            let m = core.start_magistrate(&mut kernel, mloid, Location::new(j, 0), j, 2, 64 << 20);
            magistrates.push((mloid, m));
        }
        for j in 0..config.jurisdictions {
            for h in 0..config.hosts_per_jurisdiction {
                let idx = j * config.hosts_per_jurisdiction + h;
                let hloid = host_loid(idx);
                let hep = core.start_host(
                    &mut kernel,
                    hloid,
                    Location::new(j, h + 1),
                    config.host_capacity,
                    Some(magistrate_loid(j)),
                    None,
                );
                hosts.push((hloid, hep, j));
                let (_, mep) = magistrates[j as usize];
                kernel
                    .endpoint_mut::<MagistrateEndpoint>(mep)
                    .expect("magistrate exists")
                    .add_host(hloid, hep.element(), config.host_capacity);
            }
        }
        // Peer wiring for Copy/Move.
        for (i, (_, mi)) in magistrates.iter().enumerate() {
            for (jdx, (mloid_j, mj)) in magistrates.iter().enumerate() {
                if i != jdx {
                    let el = mj.element();
                    kernel
                        .endpoint_mut::<MagistrateEndpoint>(*mi)
                        .expect("magistrate exists")
                        .add_peer(*mloid_j, el);
                }
            }
        }

        // The Binding Agent tree: agents are spread round-robin across
        // jurisdictions (host slot 100+ to keep locations distinct).
        let tree = config.agent_tree;
        let mut agents: Vec<EndpointId> = Vec::with_capacity(tree.count);
        for i in 0..tree.count {
            let mut cfg = AgentConfig::root(agent_loid(i), core.legion_class_element());
            cfg.cache_enabled = config.agent_cache_enabled;
            if !config.agent_forest {
                if let Some(p) = tree.parent(i) {
                    cfg = cfg.with_parent(agents[p].element());
                }
            }
            let j = (i as u32) % config.jurisdictions.max(1);
            let ep = kernel.add_endpoint(
                Box::new(BindingAgentEndpoint::new(cfg)),
                Location::new(j, 100 + i as u32),
                format!("agent{i}"),
            );
            agents.push(ep);
        }

        // User classes: each adopted by LegionClass, each with every
        // magistrate as a candidate (round-robin placement).
        let mag_list: Vec<(Loid, ObjectAddressElement)> =
            magistrates.iter().map(|(l, e)| (*l, e.element())).collect();
        let mut classes = Vec::new();
        for c in 0..config.classes {
            let cl = user_class_loid(c);
            let mut class = ClassObject::new(cl, format!("UserClass{c}"), ClassKind::NORMAL);
            class.superclass = Some(LEGION_OBJECT);
            class.interface = object_mandatory_interface(LEGION_OBJECT);
            class
                .interface
                .define(MethodSignature::new("Work", vec![], ParamType::Uint), cl);
            let cfg_c = ClassConfig {
                legion_class: core.legion_class_element(),
                magistrates: mag_list.clone(),
                binding_agent: agents.last().map(|a| a.element()),
                binding_ttl_ns: None,
                admission: config.class_admission,
                notify_holders: config.notify_holders,
            };
            let j = c % config.jurisdictions.max(1);
            let ep = kernel.add_endpoint(
                Box::new(ClassEndpoint::new(class, cfg_c)),
                Location::new(j, 200 + c),
                format!("class:UserClass{c}"),
            );
            kernel
                .endpoint_mut::<LegionClassEndpoint>(core.legion_class)
                .expect("legion class exists")
                .adopt_class(Binding::forever(
                    cl,
                    legion_core::address::ObjectAddress::single(ep.element()),
                ));
            classes.push((cl, ep));
        }

        // Opt-in deadline sweeps: lost replies to Magistrate/class calls
        // resolve as uniform timeouts instead of leaking continuations.
        if let Some(d) = config.call_deadline_ns {
            for (_, mep) in &magistrates {
                kernel
                    .endpoint_mut::<MagistrateEndpoint>(*mep)
                    .expect("magistrate exists")
                    .calls()
                    .set_deadline_ns(Some(d));
            }
            for (_, cep) in &classes {
                kernel
                    .endpoint_mut::<ClassEndpoint>(*cep)
                    .expect("class exists")
                    .calls()
                    .set_deadline_ns(Some(d));
            }
        }

        let driver_location = Location::new(0, 999);
        let driver = kernel.add_endpoint(Box::new(Driver::default()), driver_location, "driver");
        kernel.run_until_quiescent(1_000_000); // announcements settle

        let mut sys = LegionSystem {
            kernel,
            core,
            magistrates,
            hosts,
            agents,
            tree,
            classes,
            objects: Vec::new(),
            driver,
            driver_location,
            config,
        };

        // HA state on before the first activation, so the initial
        // population retains vault checkpoints — but no timers yet
        // (build's run-to-quiescence calls would drain the recurring
        // heartbeats all the way to the horizon).
        if let Some(ha) = sys.config.ha.clone() {
            sys.configure_magistrate_ha(&ha);
        }

        // Create the initial object population through the real protocol.
        for c in 0..sys.config.classes {
            let (cl, cep) = sys.classes[c as usize];
            for _ in 0..sys.config.objects_per_class {
                let r = sys.call(cep.element(), cl, class_proto::CREATE, vec![]);
                match r {
                    Ok(LegionValue::Binding(b)) => {
                        // Round-robin over magistrates matches creation
                        // order; record the jurisdiction for locality
                        // workloads by looking the endpoint up.
                        let j = b
                            .address
                            .primary()
                            .and_then(|e| e.sim_endpoint())
                            .and_then(|id| sys.kernel.meta(EndpointId(id)))
                            .map(|m| m.location.jurisdiction)
                            .unwrap_or(0);
                        sys.objects.push((b.loid, j));
                    }
                    other => panic!("object creation failed: {other:?}"),
                }
            }
        }

        // Now that the population exists, start the heartbeat/sweep
        // machinery (re-registering hosts at this instant).
        if let Some(ha) = sys.config.ha.clone() {
            sys.enable_ha(&ha);
        }
        sys
    }

    /// The build configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Switch on heartbeat failure detection and automatic recovery:
    /// every host reports to its jurisdiction's Magistrate, every
    /// Magistrate sweeps its detector and re-homes the objects of hosts
    /// confirmed dead (`legion-ha`). `build` calls it last (the endpoints
    /// already ran `on_start`, so the first timers are armed here,
    /// externally).
    fn enable_ha(&mut self, ha: &HaConfig) {
        self.configure_magistrate_ha(ha);
        for (_, mep) in self.magistrates.clone() {
            self.kernel
                .set_timer(mep, ha.sweep_interval_ns, TIMER_HA_SWEEP);
        }
        for (_, hep, j) in self.hosts.clone() {
            let (mloid, mep) = self.magistrates[j as usize];
            let mel = mep.element();
            self.kernel
                .endpoint_mut::<HostObjectEndpoint>(hep)
                .expect("host exists")
                .enable_heartbeat(mloid, mel, ha.heartbeat_interval_ns, ha.horizon_ns);
            self.kernel
                .set_timer(hep, ha.heartbeat_interval_ns, TIMER_HEARTBEAT);
        }
    }

    /// Flip each Magistrate into HA mode (detector state, vault
    /// retention) *without* arming any timers. `build` calls this before
    /// object creation so the initial activations retain their vault
    /// checkpoints; [`enable_ha`](Self::enable_ha) calls it again to
    /// re-register hosts at the arming instant (resetting `last_seen` so
    /// build time does not count as heartbeat silence).
    fn configure_magistrate_ha(&mut self, ha: &HaConfig) {
        let agents: Vec<ObjectAddressElement> = self.agents.iter().map(|a| a.element()).collect();
        let now = self.kernel.now();
        for (_, mep) in self.magistrates.clone() {
            self.kernel
                .endpoint_mut::<MagistrateEndpoint>(mep)
                .expect("magistrate exists")
                .enable_ha(
                    Box::new(MissThreshold {
                        suspect_after: ha.suspect_after,
                        dead_after: ha.dead_after,
                    }),
                    ha.heartbeat_interval_ns,
                    ha.sweep_interval_ns,
                    ha.horizon_ns,
                    agents.clone(),
                    now,
                );
        }
    }

    /// Crash the machine behind `self.hosts[host_index]`: the Host Object
    /// endpoint *and* every object process at its location die together
    /// (in the kernel, spawned objects are separate endpoints co-located
    /// with their host). Returns the number of endpoints killed.
    pub fn crash_host(&mut self, host_index: usize) -> usize {
        let (_, hep, _) = self.hosts[host_index];
        let Some(loc) = self.kernel.meta(hep).map(|m| m.location) else {
            return 0;
        };
        let victims: Vec<EndpointId> = self
            .kernel
            .all_meta()
            .filter(|(id, m)| {
                m.alive && m.location == loc && (*id == hep || m.name.starts_with("obj:"))
            })
            .map(|(id, _)| id)
            .collect();
        let n = victims.len();
        for id in victims {
            self.kernel.remove_endpoint(id);
        }
        n
    }

    /// Issue a call from the driver and run to quiescence; returns the
    /// reply (or an error for refused/lost sends).
    pub fn call(
        &mut self,
        to: ObjectAddressElement,
        target: Loid,
        method: impl Into<Sym>,
        args: Vec<LegionValue>,
    ) -> Result<LegionValue, String> {
        self.timed_call(to, target, method, args).0
    }

    /// [`call`](Self::call), also returning the virtual ns from the send
    /// to the reply's arrival (to quiescence if none arrives). Events
    /// after the reply, such as a deadline sweep's timer, still run but
    /// are not timed; the events run are the same as `call`'s.
    pub fn timed_call(
        &mut self,
        to: ObjectAddressElement,
        target: Loid,
        method: impl Into<Sym>,
        args: Vec<LegionValue>,
    ) -> (Result<LegionValue, String>, u64) {
        let id = self.kernel.fresh_call_id();
        let me = Loid::instance(9999, 1);
        let mut msg = Message::call(id, target, method, args, InvocationEnv::solo(me));
        msg.reply_to = Some(self.driver.element());
        msg.sender = Some(me);
        fn replies(sys: &LegionSystem) -> &[Result<LegionValue, String>] {
            &sys.kernel
                .endpoint::<Driver>(sys.driver)
                .expect("driver exists")
                .replies
        }
        let before = replies(self).len();
        let t0 = self.kernel.now();
        if !self.kernel.inject(self.driver_location, to, msg) {
            return (Err("send refused".into()), 0);
        }
        let mut budget: u64 = 10_000_000;
        while budget > 0 && replies(self).len() == before && self.kernel.step() {
            budget -= 1;
        }
        let latency = self.kernel.now().saturating_since(t0);
        self.kernel.run_until_quiescent(budget);
        let reply = replies(self)
            .get(before)
            .cloned()
            .unwrap_or(Err("no reply (message lost)".into()));
        (reply, latency)
    }

    /// Convenience: `call` expecting a binding payload.
    pub fn call_for_binding(
        &mut self,
        to: ObjectAddressElement,
        target: Loid,
        method: impl Into<Sym>,
        args: Vec<LegionValue>,
    ) -> Result<Binding, String> {
        match self.call(to, target, method, args)? {
            LegionValue::Binding(b) => Ok(*b),
            v => Err(format!("expected binding, got {v}")),
        }
    }

    /// The agent that serves client `client_index`: leaves of the tree
    /// round-robin, or any agent round-robin in forest mode.
    pub fn leaf_agent_for(&self, client_index: usize) -> EndpointId {
        if self.config.agent_forest {
            self.agents[client_index % self.agents.len()]
        } else {
            self.agents[self.tree.leaf_for_client(client_index)]
        }
    }

    /// Total objects created at build time.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Messages received by the LegionClass endpoint so far.
    pub fn legion_class_load(&self) -> u64 {
        self.kernel
            .meta(self.core.legion_class)
            .map(|m| m.received)
            .unwrap_or(0)
    }

    /// Messages received by each agent, in tree-node order.
    pub fn agent_loads(&self) -> Vec<u64> {
        self.agents
            .iter()
            .map(|ep| self.kernel.meta(*ep).map(|m| m.received).unwrap_or(0))
            .collect()
    }

    /// The maximum per-endpoint message count over *all* endpoints of a
    /// kind-filtered set — the "distributed systems principle" measure.
    pub fn max_component_load(&self) -> (String, u64) {
        self.kernel
            .all_meta()
            .filter(|(_, m)| !m.name.starts_with("client") && !m.name.starts_with("obj:"))
            .max_by_key(|(_, m)| m.received)
            .map(|(_, m)| (m.name.clone(), m.received))
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legion_naming::protocol::GET_BINDING;

    #[test]
    fn default_system_builds_and_creates_objects() {
        let sys = LegionSystem::build(SystemConfig::default());
        assert_eq!(sys.object_count(), 8);
        assert_eq!(sys.magistrates.len(), 2);
        assert_eq!(sys.hosts.len(), 4);
        assert_eq!(sys.classes.len(), 1);
    }

    #[test]
    fn objects_resolve_through_the_agent_tree() {
        let cfg = SystemConfig {
            agent_tree: TreeShape::new(2, 3),
            ..SystemConfig::default()
        };
        let mut sys = LegionSystem::build(cfg);
        let (obj, _) = sys.objects[0];
        let leaf = sys.leaf_agent_for(0);
        let b = sys
            .call_for_binding(
                leaf.element(),
                agent_loid(0),
                GET_BINDING,
                vec![LegionValue::Loid(obj)],
            )
            .expect("resolution succeeds");
        assert_eq!(b.loid, obj);
    }

    #[test]
    fn determinism_across_identical_builds() {
        let build_fingerprint = |seed: u64| {
            let cfg = SystemConfig {
                seed,
                objects_per_class: 5,
                ..SystemConfig::default()
            };
            let sys = LegionSystem::build(cfg);
            (
                sys.kernel.now(),
                sys.kernel.stats().delivered,
                sys.objects.clone(),
            )
        };
        assert_eq!(build_fingerprint(7), build_fingerprint(7));
    }

    #[test]
    fn loads_are_observable() {
        let cfg = SystemConfig {
            objects_per_class: 4,
            ..SystemConfig::default()
        };
        let mut sys = LegionSystem::build(cfg);
        let (obj, _) = sys.objects[0];
        let leaf = sys.leaf_agent_for(0);
        sys.call_for_binding(
            leaf.element(),
            agent_loid(0),
            GET_BINDING,
            vec![LegionValue::Loid(obj)],
        )
        .unwrap();
        assert!(sys.agent_loads()[0] >= 1);
        let class_ep = sys.classes[0].1;
        assert!(sys.kernel.meta(class_ep).unwrap().received >= 1);
        let (_, max) = sys.max_component_load();
        assert!(max > 0);
    }
}
