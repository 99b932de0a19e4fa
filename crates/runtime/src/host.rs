//! Host Objects (paper §2.3, §3.9).
//!
//! "A Host Object is a host's representative to Legion. It is responsible
//! for executing objects on the host, reaping objects, and reporting
//! object exceptions ... It is likely that a Host Object will implement a
//! security mechanism that will attempt to ensure that its member
//! functions will be invoked only by its Magistrate."
//!
//! Host Objects are started "from outside Legion" (§4.2.1) — here, by the
//! system builder — and announce themselves to their class (`LegionHost`
//! or a subclass) on start.
//!
//! The §3.9 "invoked only by its Magistrate" rule is expressed as an
//! [`InvocationGate`] on the host's method table, so the check runs once
//! at the dispatch boundary for every control method.

use crate::object::ActiveObjectEndpoint;
use crate::protocol::{class as class_proto, host as host_proto, ActivationSpec};
use legion_core::address::{ObjectAddress, ObjectAddressElement};
use legion_core::dispatch::InvocationGate;
use legion_core::env::InvocationEnv;
use legion_core::fxmap::FxHashMap;
use legion_core::interface::{Interface, ParamType};
use legion_core::loid::Loid;
use legion_core::symbol;
use legion_core::value::LegionValue;
use legion_net::dispatch::{serve, MethodTable, Outcome, TableBuilder};
use legion_net::message::Message;
use legion_net::sim::{Ctx, Endpoint, EndpointId};
use std::rc::Rc;

/// Builds the endpoint for an object being activated. The default factory
/// creates an [`ActiveObjectEndpoint`]; examples install custom factories
/// for domain objects.
pub type ObjectFactory = Box<dyn Fn(&ActivationSpec) -> Box<dyn Endpoint>>;

/// Configuration of one Host Object.
pub struct HostConfig {
    /// The Host Object's LOID (instance of a `LegionHost` subclass).
    pub loid: Loid,
    /// Maximum simultaneously Active objects.
    pub capacity: u32,
    /// If set, only this Magistrate may invoke control methods (§3.9's
    /// "invoked only by its Magistrate").
    pub magistrate: Option<Loid>,
    /// Address of the Host Object's class, for the §4.2.1 announcement.
    pub class_addr: Option<ObjectAddressElement>,
}

/// Timer tag for the periodic liveness heartbeat (see
/// [`HostObjectEndpoint::enable_heartbeat`]).
pub const TIMER_HEARTBEAT: u64 = 0x4841_5254; // "HART"

/// Heartbeat settings, configured after construction.
struct Heartbeat {
    magistrate_loid: Loid,
    magistrate: ObjectAddressElement,
    interval_ns: u64,
    /// Stop re-arming once virtual time passes this (keeps experiment
    /// kernels quiescable).
    horizon_ns: u64,
}

/// The §3.9 magistrate lock as a dispatch-boundary gate: when a
/// magistrate is configured, only calls made *as* that magistrate (its
/// LOID in the Calling Agent slot) pass.
struct MagistrateLock {
    host: Loid,
    magistrate: Option<Loid>,
}

impl InvocationGate for MagistrateLock {
    fn check(&self, env: &InvocationEnv, _method: &str) -> Result<(), String> {
        match self.magistrate {
            None => Ok(()),
            Some(m) if env.calling == m => Ok(()),
            Some(_) => Err(format!("host {}: caller is not my magistrate", self.host)),
        }
    }
}

/// The Host Object endpoint.
pub struct HostObjectEndpoint {
    cfg: HostConfig,
    factory: ObjectFactory,
    running: FxHashMap<Loid, EndpointId>,
    cpu_load_limit: u64,
    memory_limit: u64,
    heartbeat: Option<Heartbeat>,
    lock: MagistrateLock,
    table: Rc<MethodTable<Self>>,
    /// Activations refused at capacity.
    pub refused: u64,
    /// Heartbeats sent to the Magistrate.
    pub heartbeats_sent: u64,
}

impl HostObjectEndpoint {
    /// A host with the default object factory.
    pub fn new(cfg: HostConfig) -> Self {
        HostObjectEndpoint::with_factory(
            cfg,
            Box::new(|spec: &ActivationSpec| {
                Box::new(
                    ActiveObjectEndpoint::new(spec.loid, Interface::new()).with_state(&spec.state),
                )
            }),
        )
    }

    /// A host with a custom object factory.
    pub fn with_factory(cfg: HostConfig, factory: ObjectFactory) -> Self {
        let lock = MagistrateLock {
            host: cfg.loid,
            magistrate: cfg.magistrate,
        };
        let table = Self::table(cfg.loid);
        HostObjectEndpoint {
            cfg,
            factory,
            running: FxHashMap::default(),
            cpu_load_limit: 100,
            memory_limit: u64::MAX,
            heartbeat: None,
            lock,
            table,
            refused: 0,
            heartbeats_sent: 0,
        }
    }

    /// Report liveness to `magistrate` every `interval_ns` until virtual
    /// time reaches `horizon_ns` (§3.9: the Host Object is the host's
    /// representative — its silence is the host's silence). Configuration
    /// happens after `on_start` has already run, so the first timer must
    /// be armed externally: `SimKernel::set_timer(host_ep, interval_ns,
    /// TIMER_HEARTBEAT)`.
    pub fn enable_heartbeat(
        &mut self,
        magistrate_loid: Loid,
        magistrate: ObjectAddressElement,
        interval_ns: u64,
        horizon_ns: u64,
    ) {
        self.heartbeat = Some(Heartbeat {
            magistrate_loid,
            magistrate,
            interval_ns,
            horizon_ns,
        });
    }

    /// Objects currently running here.
    pub fn running_count(&self) -> usize {
        self.running.len()
    }

    /// Is `loid` running here?
    pub fn is_running(&self, loid: &Loid) -> bool {
        self.running.contains_key(loid)
    }

    /// The host's LOID.
    pub fn loid(&self) -> Loid {
        self.cfg.loid
    }

    fn table(loid: Loid) -> Rc<MethodTable<Self>> {
        TableBuilder::new("host", "LegionHost", loid)
            .gate(|e: &Self| &e.lock as &dyn InvocationGate)
            .method::<ActivationSpec, _>(
                host_proto::ACTIVATE,
                &["loid", "class", "state", "class_addr", "magistrate_addr"],
                ParamType::Address,
                |e, ctx, _msg, spec| {
                    if e.running.len() as u32 >= e.capacity_now() {
                        e.refused += 1;
                        ctx.count(symbol::HOST_CAPACITY_REFUSED);
                        return Outcome::Reply(Err(format!(
                            "host {} at capacity ({})",
                            e.cfg.loid,
                            e.running.len()
                        )));
                    }
                    if let Some(ep) = e.running.get(&spec.loid) {
                        // Idempotent: already running here.
                        return Outcome::Reply(Ok(LegionValue::Address(ep.address())));
                    }
                    let endpoint = (e.factory)(&spec);
                    let loc = ctx.location();
                    let ep = ctx.spawn(endpoint, loc, format!("obj:{}", spec.loid));
                    e.running.insert(spec.loid, ep);
                    ctx.count(symbol::HOST_ACTIVATIONS);
                    Outcome::Reply(Ok(LegionValue::Address(ep.address())))
                },
            )
            .method::<(Loid,), _>(
                host_proto::DEACTIVATE,
                &["target"],
                ParamType::Void,
                |e, ctx, _msg, (loid,)| {
                    Outcome::Reply(match e.running.remove(&loid) {
                        Some(ep) => {
                            ctx.kill(ep);
                            ctx.count(symbol::HOST_DEACTIVATIONS);
                            Ok(LegionValue::Void)
                        }
                        None => Err(format!("{loid} is not running on {}", e.cfg.loid)),
                    })
                },
            )
            .method::<(u64,), _>(
                host_proto::SET_CPU_LOAD,
                &["percent"],
                ParamType::Void,
                |e, _ctx, _msg, (pct,)| {
                    e.cpu_load_limit = pct.min(100);
                    Outcome::Reply(Ok(LegionValue::Void))
                },
            )
            .method::<(u64,), _>(
                host_proto::SET_MEMORY_USAGE,
                &["bytes"],
                ParamType::Void,
                |e, _ctx, _msg, (bytes,)| {
                    e.memory_limit = bytes;
                    Outcome::Reply(Ok(LegionValue::Void))
                },
            )
            .method::<(), _>(
                host_proto::GET_STATE,
                &[],
                ParamType::List,
                |e, _ctx, _msg, ()| {
                    Outcome::Reply(Ok(LegionValue::List(vec![
                        LegionValue::Uint(e.running.len() as u64),
                        LegionValue::Uint(e.capacity_now() as u64),
                        LegionValue::Uint(e.cpu_load_limit),
                        LegionValue::Uint(e.memory_limit),
                    ])))
                },
            )
            .get_interface()
            .seal()
    }
}

impl Endpoint for HostObjectEndpoint {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // §4.2.1: "When Host Objects come alive, they contact the existing
        // class object named LegionHost to tell it of their existence."
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
        if tag != TIMER_HEARTBEAT {
            return;
        }
        let Some(hb) = &self.heartbeat else {
            return;
        };
        let me = self.cfg.loid;
        // Fire-and-forget: the Magistrate never replies, so a dead
        // Magistrate cannot wedge its hosts.
        let args = ctx.args(legion_ha::protocol::heartbeat_args(me, self.running.len()));
        let mut msg = Message::call(
            ctx.fresh_call_id(),
            hb.magistrate_loid,
            legion_ha::protocol::HEARTBEAT,
            args,
            InvocationEnv::solo(me),
        );
        msg.sender = Some(me);
        let magistrate = hb.magistrate;
        let interval = hb.interval_ns;
        let horizon = hb.horizon_ns;
        ctx.send(magistrate, msg);
        self.heartbeats_sent += 1;
        ctx.count(symbol::HOST_HEARTBEATS);
        if ctx.now().0.saturating_add(interval) <= horizon {
            ctx.set_timer(interval, TIMER_HEARTBEAT);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        let table = Rc::clone(&self.table);
        serve(&table, self, ctx, msg);
    }
}

impl HostObjectEndpoint {
    /// Effective capacity after the CPU-load restriction: `SetCPULoad(50)`
    /// halves the object slots (a simple but monotone model of "restrict
    /// access to the host").
    fn capacity_now(&self) -> u32 {
        ((self.cfg.capacity as u64 * self.cpu_load_limit) / 100).max(1) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legion_core::dispatch::FromArgs;
    use legion_core::symbol::Sym;
    use legion_net::message::Body;
    use legion_net::sim::SimKernel;
    use legion_net::topology::{Location, Topology};
    use legion_net::FaultPlan;

    struct Probe {
        replies: Vec<Result<LegionValue, String>>,
    }
    impl Endpoint for Probe {
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, msg: Message) {
            if let Body::Reply { result, .. } = msg.body {
                self.replies.push(result);
            }
        }
    }

    fn host_loid() -> Loid {
        Loid::instance(3, 1)
    }

    fn magistrate_loid() -> Loid {
        Loid::instance(4, 1)
    }

    fn world(capacity: u32, lock_to_magistrate: bool) -> (SimKernel, EndpointId, EndpointId) {
        let mut k = SimKernel::new(Topology::zero(), FaultPlan::none(), 1);
        let host = HostObjectEndpoint::new(HostConfig {
            loid: host_loid(),
            capacity,
            magistrate: lock_to_magistrate.then(magistrate_loid),
            class_addr: None,
        });
        let h = k.add_endpoint(Box::new(host), Location::new(0, 0), "host");
        let probe = k.add_endpoint(
            Box::new(Probe { replies: vec![] }),
            Location::new(0, 0),
            "probe",
        );
        (k, h, probe)
    }

    fn call_as(
        k: &mut SimKernel,
        probe: EndpointId,
        to: EndpointId,
        caller: Loid,
        method: impl Into<Sym>,
        args: Vec<LegionValue>,
    ) -> Result<LegionValue, String> {
        let id = k.fresh_call_id();
        let mut msg = Message::call(id, host_loid(), method, args, InvocationEnv::solo(caller));
        msg.reply_to = Some(probe.element());
        msg.sender = Some(caller);
        k.inject(Location::new(0, 0), to.element(), msg);
        k.run_until_quiescent(1000);
        k.endpoint::<Probe>(probe)
            .unwrap()
            .replies
            .last()
            .cloned()
            .unwrap()
    }

    fn spec(seq: u64) -> Vec<LegionValue> {
        ActivationSpec {
            loid: Loid::instance(16, seq),
            class: Loid::class_object(16),
            state: vec![],
            class_addr: None,
            magistrate_addr: None,
        }
        .into_args()
        .into()
    }

    #[test]
    fn activate_spawns_and_replies_address() {
        let (mut k, h, probe) = world(4, false);
        let r = call_as(
            &mut k,
            probe,
            h,
            magistrate_loid(),
            host_proto::ACTIVATE,
            spec(1),
        );
        let Ok(LegionValue::Address(addr)) = r else {
            panic!("expected address, got {r:?}");
        };
        // The spawned object answers Ping at that address.
        let ep = EndpointId(addr.primary().unwrap().sim_endpoint().unwrap());
        let id = k.fresh_call_id();
        let mut msg = Message::call(
            id,
            Loid::instance(16, 1),
            legion_core::object::methods::PING,
            vec![],
            InvocationEnv::anonymous(),
        );
        msg.reply_to = Some(probe.element());
        k.inject(Location::new(0, 0), ep.element(), msg);
        k.run_until_quiescent(1000);
        let last = k
            .endpoint::<Probe>(probe)
            .unwrap()
            .replies
            .last()
            .cloned()
            .unwrap();
        assert_eq!(last, Ok(LegionValue::Uint(0)));
        let host = k.endpoint::<HostObjectEndpoint>(h).unwrap();
        assert_eq!(host.running_count(), 1);
        assert!(host.is_running(&Loid::instance(16, 1)));
    }

    #[test]
    fn activate_is_idempotent() {
        let (mut k, h, probe) = world(4, false);
        let r1 = call_as(
            &mut k,
            probe,
            h,
            magistrate_loid(),
            host_proto::ACTIVATE,
            spec(1),
        );
        let r2 = call_as(
            &mut k,
            probe,
            h,
            magistrate_loid(),
            host_proto::ACTIVATE,
            spec(1),
        );
        assert_eq!(r1, r2);
        assert_eq!(
            k.endpoint::<HostObjectEndpoint>(h).unwrap().running_count(),
            1
        );
    }

    #[test]
    fn capacity_is_enforced() {
        let (mut k, h, probe) = world(2, false);
        assert!(call_as(
            &mut k,
            probe,
            h,
            magistrate_loid(),
            host_proto::ACTIVATE,
            spec(1)
        )
        .is_ok());
        assert!(call_as(
            &mut k,
            probe,
            h,
            magistrate_loid(),
            host_proto::ACTIVATE,
            spec(2)
        )
        .is_ok());
        let r = call_as(
            &mut k,
            probe,
            h,
            magistrate_loid(),
            host_proto::ACTIVATE,
            spec(3),
        );
        assert!(r.unwrap_err().contains("capacity"));
        assert_eq!(k.counters().get("host.capacity_refused"), 1);
    }

    #[test]
    fn deactivate_kills_the_process() {
        let (mut k, h, probe) = world(4, false);
        let r = call_as(
            &mut k,
            probe,
            h,
            magistrate_loid(),
            host_proto::ACTIVATE,
            spec(1),
        );
        let Ok(LegionValue::Address(addr)) = r else {
            panic!()
        };
        let obj_ep = EndpointId(addr.primary().unwrap().sim_endpoint().unwrap());
        let r = call_as(
            &mut k,
            probe,
            h,
            magistrate_loid(),
            host_proto::DEACTIVATE,
            vec![LegionValue::Loid(Loid::instance(16, 1))],
        );
        assert_eq!(r, Ok(LegionValue::Void));
        assert!(!k.meta(obj_ep).unwrap().alive, "object process killed");
        // Deactivating again errors.
        let r = call_as(
            &mut k,
            probe,
            h,
            magistrate_loid(),
            host_proto::DEACTIVATE,
            vec![LegionValue::Loid(Loid::instance(16, 1))],
        );
        assert!(r.is_err());
    }

    #[test]
    fn only_the_magistrate_may_command() {
        let (mut k, h, probe) = world(4, true);
        let intruder = Loid::instance(99, 1);
        let r = call_as(&mut k, probe, h, intruder, host_proto::ACTIVATE, spec(1));
        assert!(r.unwrap_err().contains("not my magistrate"));
        assert_eq!(k.counters().get("host.refused"), 1);
        // The real magistrate succeeds.
        let r = call_as(
            &mut k,
            probe,
            h,
            magistrate_loid(),
            host_proto::ACTIVATE,
            spec(1),
        );
        assert!(r.is_ok());
    }

    #[test]
    fn set_cpu_load_restricts_capacity() {
        let (mut k, h, probe) = world(4, false);
        let r = call_as(
            &mut k,
            probe,
            h,
            magistrate_loid(),
            host_proto::SET_CPU_LOAD,
            vec![LegionValue::Uint(50)],
        );
        assert_eq!(r, Ok(LegionValue::Void));
        assert!(call_as(
            &mut k,
            probe,
            h,
            magistrate_loid(),
            host_proto::ACTIVATE,
            spec(1)
        )
        .is_ok());
        assert!(call_as(
            &mut k,
            probe,
            h,
            magistrate_loid(),
            host_proto::ACTIVATE,
            spec(2)
        )
        .is_ok());
        // Half of 4 = 2 slots.
        let r = call_as(
            &mut k,
            probe,
            h,
            magistrate_loid(),
            host_proto::ACTIVATE,
            spec(3),
        );
        assert!(r.is_err());
    }

    #[test]
    fn get_state_reports() {
        let (mut k, h, probe) = world(4, false);
        call_as(
            &mut k,
            probe,
            h,
            magistrate_loid(),
            host_proto::ACTIVATE,
            spec(1),
        )
        .unwrap();
        let r = call_as(
            &mut k,
            probe,
            h,
            magistrate_loid(),
            host_proto::GET_STATE,
            vec![],
        );
        let Ok(LegionValue::List(items)) = r else {
            panic!()
        };
        assert_eq!(items[0], LegionValue::Uint(1)); // running
        assert_eq!(items[1], LegionValue::Uint(4)); // capacity
    }

    #[test]
    fn get_interface_lists_control_methods() {
        let (mut k, h, probe) = world(4, false);
        let r = call_as(
            &mut k,
            probe,
            h,
            magistrate_loid(),
            legion_core::object::methods::GET_INTERFACE,
            vec![],
        );
        let Ok(LegionValue::Str(idl)) = r else {
            panic!("expected IDL string, got {r:?}")
        };
        for m in [
            host_proto::ACTIVATE,
            host_proto::DEACTIVATE,
            host_proto::SET_CPU_LOAD,
            host_proto::SET_MEMORY_USAGE,
            host_proto::GET_STATE,
            legion_core::symbol::GET_INTERFACE,
        ] {
            assert!(idl.contains(m.as_str()), "{m} missing from {idl}");
        }
    }

    #[test]
    fn bad_arguments_error() {
        let (mut k, h, probe) = world(4, false);
        for (m, args) in [
            (host_proto::ACTIVATE, vec![LegionValue::Uint(1)]),
            (host_proto::DEACTIVATE, vec![]),
            (host_proto::SET_CPU_LOAD, vec![LegionValue::Str("x".into())]),
        ] {
            let r = call_as(&mut k, probe, h, magistrate_loid(), m, args);
            assert!(r.is_err(), "{m} should reject bad args");
        }
        let r = call_as(&mut k, probe, h, magistrate_loid(), "Bogus", vec![]);
        assert!(r.unwrap_err().contains("no method"));
        assert_eq!(k.counters().get("host.unknown_method"), 1);
        assert_eq!(k.counters().get("host.bad_args"), 3);
    }

    #[test]
    fn published_signature_matches_codec() {
        let table = HostObjectEndpoint::table(host_loid());
        let sig = table.signature(host_proto::ACTIVATE.as_str()).unwrap();
        assert_eq!(sig.params.len(), ActivationSpec::params().len());
    }
}
