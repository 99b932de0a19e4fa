//! Full-lifecycle integration: bootstrap (§4.2.1), creation (§4.2),
//! deactivation/activation (§3.1), binding-driven reactivation (§4.1.2),
//! and cross-jurisdiction Move (Fig. 11) — all over the message kernel.

use legion_core::address::ObjectAddressElement;
use legion_core::class::{ClassKind, ClassObject};
use legion_core::env::InvocationEnv;
use legion_core::interface::{MethodSignature, ParamType};
use legion_core::loid::Loid;
use legion_core::object::{methods as obj_m, object_mandatory_interface};
use legion_core::symbol::Sym;
use legion_core::value::LegionValue;
use legion_core::wellknown::{
    LEGION_BINDING_AGENT, LEGION_CLASS, LEGION_HOST, LEGION_MAGISTRATE, LEGION_OBJECT,
};
use legion_naming::agent::{AgentConfig, BindingAgentEndpoint};
use legion_naming::protocol::GET_BINDING;
use legion_naming::resolver::{ClientResolver, Lookup};
use legion_net::dispatch::Caller;
use legion_net::message::{Body, Message};
use legion_net::sim::{Ctx, Endpoint, EndpointId, SimKernel};
use legion_net::topology::{Location, Topology};
use legion_net::FaultPlan;
use legion_runtime::class_endpoint::{ClassConfig, ClassEndpoint};
use legion_runtime::magistrate::{MagistrateConfig, MagistrateEndpoint};
use legion_runtime::protocol::{
    class as class_proto, magistrate as mag_proto, object as obj_proto,
};
use legion_runtime::CoreSystem;
use legion_runtime::Life;
use legion_security::mayi::ResponsibleAgentSet;

/// A driver endpoint that issues calls on command and stores replies.
#[derive(Default)]
struct Driver {
    replies: Vec<Result<LegionValue, String>>,
}

impl Endpoint for Driver {
    fn on_message(&mut self, _ctx: &mut Ctx<'_>, msg: Message) {
        if let Body::Reply { result, .. } = msg.body {
            self.replies.push(result);
        }
    }
}

struct World {
    k: SimKernel,
    core: CoreSystem,
    driver: EndpointId,
    mag_a: EndpointId,
    mag_b: EndpointId,
    file_class: EndpointId,
}

const MAG_A: Loid = Loid::instance(4, 1);
const MAG_B: Loid = Loid::instance(4, 2);
const HOST_A1: Loid = Loid::instance(3, 1);
const HOST_A2: Loid = Loid::instance(3, 2);
const HOST_B1: Loid = Loid::instance(3, 3);
const FILE_CLASS: Loid = Loid::class_object(16);

fn build() -> World {
    build_with(true)
}

/// The world, with the File class's holder-directed notices on or off.
fn build_with(notify_holders: bool) -> World {
    let mut k = SimKernel::new(
        Topology::fixed(1_000, 10_000, 1_000_000),
        FaultPlan::none(),
        7,
    );
    let core = CoreSystem::bootstrap(&mut k, Location::new(0, 0));

    // Jurisdiction 0: magistrate A with two hosts. Jurisdiction 1:
    // magistrate B with one host.
    let mag_a = core.start_magistrate(&mut k, MAG_A, Location::new(0, 1), 0, 2, 1 << 20);
    let mag_b = core.start_magistrate(&mut k, MAG_B, Location::new(1, 1), 1, 2, 1 << 20);
    let host_a1 = core.start_host(&mut k, HOST_A1, Location::new(0, 2), 8, Some(MAG_A), None);
    let host_a2 = core.start_host(&mut k, HOST_A2, Location::new(0, 3), 8, Some(MAG_A), None);
    let host_b1 = core.start_host(&mut k, HOST_B1, Location::new(1, 2), 8, Some(MAG_B), None);

    {
        let m = k.endpoint_mut::<MagistrateEndpoint>(mag_a).unwrap();
        m.add_host(HOST_A1, host_a1.element(), 8);
        m.add_host(HOST_A2, host_a2.element(), 8);
        m.add_peer(MAG_B, mag_b.element());
    }
    {
        let m = k.endpoint_mut::<MagistrateEndpoint>(mag_b).unwrap();
        m.add_host(HOST_B1, host_b1.element(), 8);
        m.add_peer(MAG_A, mag_a.element());
    }

    // A user "File" class, derived (at the model level) from LegionObject,
    // with its interface and candidate magistrates.
    let mut file = ClassObject::new(FILE_CLASS, "File", ClassKind::NORMAL);
    file.superclass = Some(LEGION_OBJECT);
    file.interface = object_mandatory_interface(LEGION_OBJECT);
    file.interface.define(
        MethodSignature::new("Read", vec![], ParamType::Bytes),
        FILE_CLASS,
    );
    let cfg = ClassConfig {
        legion_class: core.legion_class_element(),
        magistrates: vec![(MAG_A, mag_a.element()), (MAG_B, mag_b.element())],
        binding_agent: None,
        binding_ttl_ns: None,
        admission: None,
        notify_holders,
    };
    let file_class = k.add_endpoint(
        Box::new(ClassEndpoint::new(file, cfg)),
        Location::new(0, 4),
        "class:File",
    );
    // File was started externally: LegionClass adopts it (records its
    // binding and reserves class id 16 against future IssueClassId).
    k.endpoint_mut::<legion_runtime::class_endpoint::LegionClassEndpoint>(core.legion_class)
        .unwrap()
        .adopt_class(legion_core::binding::Binding::forever(
            FILE_CLASS,
            legion_core::address::ObjectAddress::single(file_class.element()),
        ));

    let driver = k.add_endpoint(Box::new(Driver::default()), Location::new(0, 5), "driver");
    k.run_until_quiescent(10_000); // announcements settle
    World {
        k,
        core,
        driver,
        mag_a,
        mag_b,
        file_class,
    }
}

impl World {
    fn call(
        &mut self,
        to: EndpointId,
        target: Loid,
        method: impl Into<Sym>,
        args: Vec<LegionValue>,
    ) -> Result<LegionValue, String> {
        self.call_raw(to.element(), target, method, args)
    }

    fn call_raw(
        &mut self,
        to: ObjectAddressElement,
        target: Loid,
        method: impl Into<Sym>,
        args: Vec<LegionValue>,
    ) -> Result<LegionValue, String> {
        let n_before = self.replies().len();
        if !self.send(to, target, method, args) {
            return Err("refused".into());
        }
        self.k.run_until_quiescent(100_000);
        self.replies()
            .get(n_before)
            .cloned()
            .unwrap_or(Err("no reply (lost)".into()))
    }

    /// Inject a call from the driver without running the kernel; `false`
    /// if the send was refused.
    fn send(
        &mut self,
        to: ObjectAddressElement,
        target: Loid,
        method: impl Into<Sym>,
        args: Vec<LegionValue>,
    ) -> bool {
        let id = self.k.fresh_call_id();
        let me = Loid::instance(99, 1);
        let mut msg = Message::call(id, target, method, args, InvocationEnv::solo(me));
        msg.reply_to = Some(self.driver.element());
        msg.sender = Some(me);
        self.k.inject(Location::new(0, 5), to, msg)
    }

    fn replies(&self) -> &[Result<LegionValue, String>] {
        &self.k.endpoint::<Driver>(self.driver).unwrap().replies
    }

    /// Start a plain class `loid` whose Candidate Magistrate List is
    /// `magistrates`.
    fn start_class(
        &mut self,
        loid: Loid,
        name: &str,
        magistrates: Vec<(Loid, ObjectAddressElement)>,
    ) -> EndpointId {
        let cfg = ClassConfig {
            legion_class: self.core.legion_class_element(),
            magistrates,
            binding_agent: None,
            binding_ttl_ns: None,
            admission: None,
            notify_holders: true,
        };
        let class = ClassObject::new(loid, name, ClassKind::NORMAL);
        self.k.add_endpoint(
            Box::new(ClassEndpoint::new(class, cfg)),
            Location::new(0, 4),
            format!("class:{name}"),
        )
    }
}

fn expect_binding(r: Result<LegionValue, String>) -> legion_core::binding::Binding {
    match r {
        Ok(LegionValue::Binding(b)) => *b,
        other => panic!("expected binding, got {other:?}"),
    }
}

#[test]
fn announcements_populate_core_class_tables() {
    let mut w = build();
    // LegionHost's table has the three announced hosts.
    let hosts =
        w.k.endpoint::<ClassEndpoint>(w.core.legion_host)
            .unwrap()
            .class()
            .table
            .len();
    assert_eq!(hosts, 3);
    let mags =
        w.k.endpoint::<ClassEndpoint>(w.core.legion_magistrate)
            .unwrap()
            .class()
            .table
            .len();
    assert_eq!(mags, 2);
    // And the hosts are reachable through LegionHost's GetBinding.
    let r = w.call(
        w.core.legion_host,
        LEGION_HOST,
        legion_naming::protocol::GET_BINDING,
        vec![LegionValue::Loid(HOST_A1)],
    );
    let b = expect_binding(r);
    assert_eq!(b.loid, HOST_A1);
    let _ = LEGION_MAGISTRATE;
}

/// §2.1.3, §4.2.1: the core classes come up once, Abstract, with the
/// object-mandatory functions, and every class but LegionObject kind-of
/// LegionClass with the class-mandatory ones too.
#[test]
fn core_classes_come_up_abstract_in_the_paper_hierarchy() {
    let mut w = build();
    let core = [
        (w.core.legion_object, LEGION_OBJECT, None),
        (w.core.legion_host, LEGION_HOST, Some(LEGION_CLASS)),
        (
            w.core.legion_magistrate,
            LEGION_MAGISTRATE,
            Some(LEGION_CLASS),
        ),
        (
            w.core.legion_binding_agent,
            LEGION_BINDING_AGENT,
            Some(LEGION_CLASS),
        ),
    ];
    for (ep, loid, superclass) in core {
        let c = w.k.endpoint::<ClassEndpoint>(ep).unwrap().class();
        assert_eq!((c.loid, c.superclass), (loid, superclass));
        assert!(c.kind.is_abstract, "{}", c.name);
        assert!(c.interface.contains("MayI"), "{}", c.name);
        assert_eq!(c.interface.contains("Derive"), superclass.is_some());
        let r = w.call(ep, loid, class_proto::CREATE, vec![]);
        assert!(r.unwrap_err().contains("Abstract"));
    }
}

#[test]
fn create_then_invoke() {
    let mut w = build();
    let b = expect_binding(w.call(w.file_class, FILE_CLASS, class_proto::CREATE, vec![]));
    assert_eq!(b.loid.class_id.0, 16);
    // Invoke Set/Get on the new object at its bound address.
    let el = *b.address.primary().unwrap();
    let r = w.call_raw(
        el,
        b.loid,
        obj_proto::SET,
        vec![LegionValue::Str("x".into()), LegionValue::Uint(5)],
    );
    assert_eq!(r, Ok(LegionValue::Void));
    let r = w.call_raw(
        el,
        b.loid,
        obj_proto::GET,
        vec![LegionValue::Str("x".into())],
    );
    assert_eq!(r, Ok(LegionValue::Uint(5)));
}

/// The DOE story of §2.1.3, the live way: a class "insist[s] ... that all
/// objects that the DOE owns execute only on Magistrates that it trusts"
/// by naming only those in its Candidate Magistrate List
/// (`ClassConfig::magistrates`). Every instance lands on Magistrate A; B
/// never hears of one.
#[test]
fn a_class_places_only_on_its_candidate_magistrates() {
    let mut w = build();
    let doe = Loid::class_object(17);
    let mag_a = w.mag_a.element();
    let class = w.start_class(doe, "DOE", vec![(MAG_A, mag_a)]);
    const N: usize = 6;
    for _ in 0..N {
        let b = expect_binding(w.call(class, doe, class_proto::CREATE, vec![]));
        let c = w.k.endpoint::<ClassEndpoint>(class).unwrap().class();
        let row = c.table.get(&b.loid).expect("row recorded");
        assert_eq!(row.current_magistrates, vec![MAG_A], "{}", b.loid);
        let ep = EndpointId(b.address.primary().unwrap().sim_endpoint().unwrap());
        assert_eq!(w.k.meta(ep).unwrap().location.jurisdiction, 0);
    }
    let count = |w: &World, ep| {
        w.k.endpoint::<MagistrateEndpoint>(ep)
            .unwrap()
            .object_count()
    };
    assert_eq!(count(&w, w.mag_a), N);
    assert_eq!(count(&w, w.mag_b), 0);
}

/// The DOE story with a choice: of three running Magistrates, the class
/// names the two the DOE certified. Its instances spread over those two;
/// the third — a grad student's, with a host of its own — never hears of
/// one.
#[test]
fn a_class_spreads_over_its_candidates_and_never_a_third() {
    let mut w = build();
    let grad = Loid::instance(4, 3);
    let grad_host = Loid::instance(3, 4);
    let grad_mag = w
        .core
        .start_magistrate(&mut w.k, grad, Location::new(2, 1), 2, 1, 1 << 20);
    let host = w.core.start_host(
        &mut w.k,
        grad_host,
        Location::new(2, 2),
        8,
        Some(grad),
        None,
    );
    w.k.endpoint_mut::<MagistrateEndpoint>(grad_mag)
        .unwrap()
        .add_host(grad_host, host.element(), 8);
    w.k.run_until_quiescent(10_000);

    let doe = Loid::class_object(17);
    let certified = vec![(MAG_A, w.mag_a.element()), (MAG_B, w.mag_b.element())];
    let class = w.start_class(doe, "DOE", certified);
    const N: usize = 6;
    for _ in 0..N {
        let b = expect_binding(w.call(class, doe, class_proto::CREATE, vec![]));
        let c = w.k.endpoint::<ClassEndpoint>(class).unwrap().class();
        let row = c.table.get(&b.loid).expect("row recorded");
        assert!(
            matches!(row.current_magistrates[..], [m] if m == MAG_A || m == MAG_B),
            "{}: {:?}",
            b.loid,
            row.current_magistrates
        );
    }
    let count = |w: &World, ep| {
        w.k.endpoint::<MagistrateEndpoint>(ep)
            .unwrap()
            .object_count()
    };
    let (on_a, on_b) = (count(&w, w.mag_a), count(&w, w.mag_b));
    assert_eq!(on_a + on_b, N);
    assert!(on_a > 0 && on_b > 0, "both certified Magistrates hold some");
    assert_eq!(count(&w, grad_mag), 0);
}

/// Create is all-or-nothing: a Create its only Magistrate refuses leaves
/// no row at the class — `Ping()`, the row count a subclass `Delete`
/// checks, stays 0 — and no record or OPR file at the Magistrate.
fn a_refused_create_leaves_nothing(w: &mut World, mag: EndpointId, mag_loid: Loid, why: &str) {
    let class_loid = Loid::class_object(18);
    let class = w.start_class(class_loid, "Refused", vec![(mag_loid, mag.element())]);
    for _ in 0..2 {
        let err = w
            .call(class, class_loid, class_proto::CREATE, vec![])
            .expect_err("the Magistrate refuses");
        assert!(err.contains(why), "{err}");
        let rows = w.call(class, class_loid, obj_m::PING, vec![]);
        assert_eq!(rows, Ok(LegionValue::Uint(0)));
        let m = w.k.endpoint::<MagistrateEndpoint>(mag).unwrap();
        assert_eq!((m.object_count(), m.storage_usage()), (0, (0, 0)));
    }
}

#[test]
fn a_create_refused_by_mayi_leaves_no_row() {
    let mut w = build();
    let loid = Loid::instance(4, 3);
    let cfg = MagistrateConfig {
        loid,
        jurisdiction: 0,
        class_addr: Some(w.core.legion_magistrate.element()),
        disks: 1,
        disk_capacity: 1 << 20,
    };
    let trusts_nobody = ResponsibleAgentSet::new([]);
    let m = MagistrateEndpoint::new(cfg).with_mayi(Box::new(trusts_nobody));
    let mag =
        w.k.add_endpoint(Box::new(m), Location::new(0, 6), "magistrate:C");
    w.k.run_until_quiescent(10_000);
    a_refused_create_leaves_nothing(&mut w, mag, loid, "MayI refused");
}

#[test]
fn a_create_with_no_host_room_leaves_no_row_and_no_file() {
    let mut w = build();
    let loid = Loid::instance(4, 3);
    let mag = w
        .core
        .start_magistrate(&mut w.k, loid, Location::new(2, 1), 2, 1, 1 << 20);
    w.k.run_until_quiescent(10_000);
    a_refused_create_leaves_nothing(&mut w, mag, loid, "no host");
}

#[test]
fn class_getbinding_serves_active_object() {
    let mut w = build();
    let b = expect_binding(w.call(w.file_class, FILE_CLASS, class_proto::CREATE, vec![]));
    let r = w.call(
        w.file_class,
        FILE_CLASS,
        legion_naming::protocol::GET_BINDING,
        vec![LegionValue::Loid(b.loid)],
    );
    let b2 = expect_binding(r);
    assert_eq!(b2.address, b.address);
}

/// The class answers GetBinding from the row's address column while it
/// holds one; with the column NIL it asks the row's Magistrate and records
/// the answer; an object it never created is an error.
#[test]
fn class_getbinding_reflects_the_row_address() {
    let mut w = build();
    let b = expect_binding(w.call(w.file_class, FILE_CLASS, class_proto::CREATE, vec![]));
    let row_address = |w: &World| {
        let c = w.k.endpoint::<ClassEndpoint>(w.file_class).unwrap().class();
        c.table.get(&b.loid).unwrap().address.clone()
    };
    let get_binding = |w: &mut World, loid: Loid| {
        let class = w.file_class;
        w.call(
            class,
            FILE_CLASS,
            GET_BINDING,
            vec![LegionValue::Loid(loid)],
        )
    };
    let set_address = |w: &mut World, address: LegionValue| {
        let class = w.file_class;
        let args = vec![LegionValue::Loid(b.loid), address];
        w.call(class, FILE_CLASS, class_proto::SET_ADDRESS, args)
    };
    assert_eq!(row_address(&w), Some(b.address.clone()));

    let elsewhere = legion_core::address::ObjectAddress::single(w.driver.element());
    let r = set_address(&mut w, LegionValue::Address(elsewhere.clone()));
    assert_eq!(r, Ok(LegionValue::Void));
    assert_eq!(
        expect_binding(get_binding(&mut w, b.loid)).address,
        elsewhere
    );

    let r = set_address(&mut w, LegionValue::Void);
    assert_eq!(r, Ok(LegionValue::Void));
    assert_eq!(row_address(&w), None);
    assert_eq!(
        expect_binding(get_binding(&mut w, b.loid)).address,
        b.address
    );
    assert_eq!(row_address(&w), Some(b.address.clone()));

    let err = get_binding(&mut w, Loid::instance(16, 999)).unwrap_err();
    assert!(err.contains("unknown object"), "{err}");
}

#[test]
fn deactivate_then_binding_reactivates() {
    let mut w = build();
    let b = expect_binding(w.call(w.file_class, FILE_CLASS, class_proto::CREATE, vec![]));
    let obj = b.loid;
    // Store some state so we can prove it survives the OPR round trip.
    let el = *b.address.primary().unwrap();
    w.call_raw(
        el,
        obj,
        obj_proto::SET,
        vec![LegionValue::Str("n".into()), LegionValue::Uint(77)],
    )
    .unwrap();

    // Deactivate via the magistrate.
    let r = w.call(
        w.mag_a,
        MAG_A,
        mag_proto::DEACTIVATE,
        vec![LegionValue::Loid(obj)],
    );
    assert_eq!(r, Ok(LegionValue::Void));
    {
        let m = w.k.endpoint::<MagistrateEndpoint>(w.mag_a).unwrap();
        assert!(matches!(m.object_state(&obj), Some(Life::Inert { .. })));
        let (files, bytes) = m.storage_usage();
        assert!(
            files >= 1 && bytes > 0,
            "OPR written to jurisdiction storage"
        );
    }
    // The old address is dead (stale binding).
    let r = w.call_raw(el, obj, obj_m::PING, vec![]);
    assert!(r.is_err());

    // §4.1.2: "referring to the LOID of an Inert object can cause the
    // object to be activated" — GetBinding on the class reactivates.
    let r = w.call(
        w.file_class,
        FILE_CLASS,
        legion_naming::protocol::GET_BINDING,
        vec![LegionValue::Loid(obj)],
    );
    let fresh = expect_binding(r);
    assert_ne!(
        fresh.address.primary(),
        Some(&el),
        "new process, new address"
    );
    // State survived through the OPR.
    let el2 = *fresh.address.primary().unwrap();
    let r = w.call_raw(el2, obj, obj_proto::GET, vec![LegionValue::Str("n".into())]);
    assert_eq!(r, Ok(LegionValue::Uint(77)));
}

#[test]
fn move_between_jurisdictions() {
    let mut w = build();
    let b = expect_binding(w.call(w.file_class, FILE_CLASS, class_proto::CREATE, vec![]));
    let obj = b.loid;
    let el = *b.address.primary().unwrap();
    w.call_raw(
        el,
        obj,
        obj_proto::SET,
        vec![
            LegionValue::Str("home".into()),
            LegionValue::Str("uva".into()),
        ],
    )
    .unwrap();

    // Move A → B: deactivates, ships the OPR, deletes locally (Fig. 11).
    let r = w.call(
        w.mag_a,
        MAG_A,
        mag_proto::MOVE,
        vec![LegionValue::Loid(obj), LegionValue::Loid(MAG_B)],
    );
    assert_eq!(r, Ok(LegionValue::Void));
    {
        let a = w.k.endpoint::<MagistrateEndpoint>(w.mag_a).unwrap();
        assert_eq!(a.object_state(&obj), None, "A forgot the object");
        let b_m = w.k.endpoint::<MagistrateEndpoint>(w.mag_b).unwrap();
        assert!(matches!(b_m.object_state(&obj), Some(Life::Inert { .. })));
    }
    // The class's magistrate list now names B (ADD_MAGISTRATE arrived,
    // REMOVE_MAGISTRATE cleared A), so GetBinding activates in B.
    let r = w.call(
        w.file_class,
        FILE_CLASS,
        legion_naming::protocol::GET_BINDING,
        vec![LegionValue::Loid(obj)],
    );
    let fresh = expect_binding(r);
    let el2 = *fresh.address.primary().unwrap();
    let r = w.call_raw(
        el2,
        obj,
        obj_proto::GET,
        vec![LegionValue::Str("home".into())],
    );
    assert_eq!(r, Ok(LegionValue::Str("uva".into())));
    // And it genuinely runs in jurisdiction 1 now.
    let ep = EndpointId(el2.sim_endpoint().unwrap());
    assert_eq!(w.k.meta(ep).unwrap().location.jurisdiction, 1);
}

#[test]
fn copy_leaves_both_magistrates_holding_oprs() {
    let mut w = build();
    let b = expect_binding(w.call(w.file_class, FILE_CLASS, class_proto::CREATE, vec![]));
    let obj = b.loid;
    let r = w.call(
        w.mag_a,
        MAG_A,
        mag_proto::COPY,
        vec![LegionValue::Loid(obj), LegionValue::Loid(MAG_B)],
    );
    assert_eq!(r, Ok(LegionValue::Void));
    let a = w.k.endpoint::<MagistrateEndpoint>(w.mag_a).unwrap();
    assert!(matches!(a.object_state(&obj), Some(Life::Inert { .. })));
    let b_m = w.k.endpoint::<MagistrateEndpoint>(w.mag_b).unwrap();
    assert!(matches!(b_m.object_state(&obj), Some(Life::Inert { .. })));
    // The class's row lists both magistrates.
    let cls = w.k.endpoint::<ClassEndpoint>(w.file_class).unwrap();
    let entry = cls.class().table.get(&obj).unwrap();
    assert!(entry.current_magistrates.contains(&MAG_A));
    assert!(entry.current_magistrates.contains(&MAG_B));
}

#[test]
fn delete_removes_object_everywhere() {
    let mut w = build();
    let b = expect_binding(w.call(w.file_class, FILE_CLASS, class_proto::CREATE, vec![]));
    let obj = b.loid;
    let el = *b.address.primary().unwrap();
    let r = w.call(
        w.file_class,
        FILE_CLASS,
        class_proto::DELETE,
        vec![LegionValue::Loid(obj)],
    );
    assert_eq!(r, Ok(LegionValue::Void));
    // The process is gone, the magistrate forgot it, the class row is gone.
    let r = w.call_raw(el, obj, obj_m::PING, vec![]);
    assert!(r.is_err());
    let m = w.k.endpoint::<MagistrateEndpoint>(w.mag_a).unwrap();
    assert_eq!(m.object_state(&obj), None);
    let cls = w.k.endpoint::<ClassEndpoint>(w.file_class).unwrap();
    assert!(cls.class().table.get(&obj).is_none());
    // Future GetBinding fails ("future attempts to bind the LOID ... will
    // be unsuccessful", §3.8).
    let r = w.call(
        w.file_class,
        FILE_CLASS,
        legion_naming::protocol::GET_BINDING,
        vec![LegionValue::Loid(obj)],
    );
    assert!(r.is_err());
}

#[test]
fn derive_spawns_live_subclass() {
    let mut w = build();
    let r = w.call(
        w.file_class,
        FILE_CLASS,
        class_proto::DERIVE,
        vec![LegionValue::Str("SecureFile".into())],
    );
    let b = expect_binding(r);
    assert!(b.loid.is_class());
    // The subclass is live: it can create instances of its own.
    let sub_el = *b.address.primary().unwrap();
    let r = w.call_raw(sub_el, b.loid, class_proto::CREATE, vec![]);
    let inst = expect_binding(r);
    assert_eq!(inst.loid.class_id, b.loid.class_id);
    // The subclass inherited the File *instance* interface (Read defined
    // on File) — served by GetInstanceInterface, distinct from the class
    // object's own table-derived GetInterface.
    let r = w.call_raw(sub_el, b.loid, class_proto::GET_INSTANCE_INTERFACE, vec![]);
    match r {
        Ok(LegionValue::Str(s)) => assert!(s.contains("Read"), "inherited interface: {s}"),
        other => panic!("unexpected {other:?}"),
    }
    // The parent's table records the subclass; parent GetBinding finds it.
    let r = w.call(
        w.file_class,
        FILE_CLASS,
        legion_naming::protocol::GET_BINDING,
        vec![LegionValue::Loid(b.loid)],
    );
    assert_eq!(expect_binding(r).address, b.address);
}

#[test]
fn derive_flags_abstract() {
    let mut w = build();
    let r = w.call(
        w.file_class,
        FILE_CLASS,
        class_proto::DERIVE,
        vec![
            LegionValue::Str("AbstractFile".into()),
            LegionValue::Str("abstract".into()),
        ],
    );
    let b = expect_binding(r);
    let sub_el = *b.address.primary().unwrap();
    // Abstract classes refuse Create (§2.1.2).
    let r = w.call_raw(sub_el, b.loid, class_proto::CREATE, vec![]);
    assert!(r.unwrap_err().contains("Abstract"));
}

#[test]
fn inherit_from_merges_base_interface_over_the_wire() {
    let mut w = build();
    // Derive two siblings from File; add a method to one at build time is
    // not possible over the wire, so inherit File itself into a fresh
    // class derived from LegionObject-ish sibling: simplest demonstration:
    // SecureFile inherits from Printable (a sibling with its own method).
    let printable = expect_binding(w.call(
        w.file_class,
        FILE_CLASS,
        class_proto::DERIVE,
        vec![LegionValue::Str("Printable".into())],
    ));
    let secure = expect_binding(w.call(
        w.file_class,
        FILE_CLASS,
        class_proto::DERIVE,
        vec![LegionValue::Str("SecureFile".into())],
    ));
    // Give Printable a distinctive method directly (build-time extension).
    let printable_ep = EndpointId(printable.address.primary().unwrap().sim_endpoint().unwrap());
    w.k.endpoint_mut::<ClassEndpoint>(printable_ep)
        .unwrap()
        .class_mut()
        .interface
        .define(
            MethodSignature::new("PrintMe", vec![], ParamType::Void),
            printable.loid,
        );
    // SecureFile.InheritFrom(Printable): SecureFile's class endpoint must
    // locate Printable — it has no binding agent, but Printable is its
    // sibling in the File table... it is NOT in SecureFile's own table, so
    // this must fail cleanly without an agent.
    let secure_el = *secure.address.primary().unwrap();
    let r = w.call_raw(
        secure_el,
        secure.loid,
        class_proto::INHERIT_FROM,
        vec![LegionValue::Loid(printable.loid)],
    );
    assert!(r.unwrap_err().contains("no binding agent"));

    // A class with a Binding Agent: now the full resolution machinery
    // (agent → LegionClass responsibility pairs → File class) kicks in.
    // Printable's responsibility pair exists — it was issued through the
    // live LegionClass during Derive — so the agent finds it under File.
    let agent_cfg = AgentConfig::root(Loid::instance(5, 1), w.core.legion_class_element());
    let agent = w.k.add_endpoint(
        Box::new(BindingAgentEndpoint::new(agent_cfg)),
        Location::new(0, 6),
        "agent",
    );
    let reader_loid = Loid::class_object(77);
    let reader = w.k.add_endpoint(
        Box::new(ClassEndpoint::new(
            ClassObject::new(reader_loid, "Reader", ClassKind::NORMAL),
            ClassConfig {
                legion_class: w.core.legion_class_element(),
                magistrates: vec![],
                binding_agent: Some(agent.element()),
                binding_ttl_ns: None,
                admission: None,
                notify_holders: true,
            },
        )),
        Location::new(0, 7),
        "class:Reader",
    );
    let r = w.call(
        reader,
        reader_loid,
        class_proto::INHERIT_FROM,
        vec![LegionValue::Loid(printable.loid)],
    );
    assert_eq!(r, Ok(LegionValue::Void));
    let c = w.k.endpoint::<ClassEndpoint>(reader).unwrap().class();
    assert!(c.interface.contains("PrintMe"), "base not merged");
    assert!(c.bases.contains(&printable.loid));
}

/// `GetInstanceInterface` answers from a kept rendering. The two ways a
/// live class's instance interface changes — `class_mut()` at build time
/// and a successful `InheritFrom` over the wire — must each drop it.
#[test]
fn instance_interface_text_follows_class_mut_and_inherit_from() {
    fn idl(w: &mut World, el: ObjectAddressElement, class: Loid) -> String {
        match w.call_raw(el, class, class_proto::GET_INSTANCE_INTERFACE, vec![]) {
            Ok(LegionValue::Str(text)) => text,
            other => panic!("unexpected {other:?}"),
        }
    }
    let mut w = build();
    let printable = expect_binding(w.call(
        w.file_class,
        FILE_CLASS,
        class_proto::DERIVE,
        vec![LegionValue::Str("Printable".into())],
    ));
    let printable_el = *printable.address.primary().unwrap();
    let file_el = w.file_class.element();

    // Both classes have served (and so keep) a text without PrintMe.
    let before = idl(&mut w, printable_el, printable.loid);
    assert!(!before.contains("PrintMe"), "{before}");
    assert_eq!(idl(&mut w, printable_el, printable.loid), before);
    assert!(!idl(&mut w, file_el, FILE_CLASS).contains("PrintMe"));

    w.k.endpoint_mut::<ClassEndpoint>(EndpointId(printable_el.sim_endpoint().unwrap()))
        .unwrap()
        .class_mut()
        .interface
        .define(
            MethodSignature::new("PrintMe", vec![], ParamType::Void),
            printable.loid,
        );
    let after = idl(&mut w, printable_el, printable.loid);
    assert!(after.contains("PrintMe"), "stale after class_mut: {after}");

    // File finds Printable in its own table (its subclass), fetches the
    // text just re-rendered, and merges it.
    let r = w.call(
        w.file_class,
        FILE_CLASS,
        class_proto::INHERIT_FROM,
        vec![LegionValue::Loid(printable.loid)],
    );
    assert_eq!(r, Ok(LegionValue::Void));
    let merged = idl(&mut w, file_el, FILE_CLASS);
    assert!(
        merged.contains("PrintMe"),
        "stale after InheritFrom: {merged}"
    );
}

/// One step of an inheritance scenario, naming classes by their row name.
#[derive(Clone, Copy)]
enum Step {
    /// `parent.Derive(child, flags)`; "Root" is the one class built here.
    Derive(&'static str, &'static str, &'static str),
    /// Declare a method on a class at build time (no message).
    Define(&'static str, &'static str, ParamType),
    /// `class.InheritFrom(base)`, the base resolved through the Binding
    /// Agent or the inheritor's own table.
    Inherit(&'static str, &'static str),
}

/// A §2.1.1–§2.1.2 rule: every step but the last must succeed, and the
/// last is refused with a reply naming `refused`, or accepted.
struct Rule {
    rule: &'static str,
    steps: &'static [Step],
    refused: Option<&'static str>,
    /// After an accepted last step: this class's method returns this type.
    then: Option<(&'static str, &'static str, ParamType)>,
}

const RULES: &[Rule] = {
    use ParamType::{Bool, Int, Str, Void};
    use Step::{Define, Derive, Inherit};
    &[
        Rule {
            rule: "Private refuses Derive",
            steps: &[Derive("Root", "P", "private"), Derive("P", "Q", "")],
            refused: Some("Private"),
            then: None,
        },
        Rule {
            rule: "Fixed refuses InheritFrom",
            steps: &[
                Derive("Root", "F", "fixed"),
                Derive("Root", "B", ""),
                Inherit("F", "B"),
            ],
            refused: Some("Fixed"),
            then: None,
        },
        Rule {
            rule: "an incompatible base is refused and changes nothing",
            steps: &[
                Derive("Root", "A", ""),
                Derive("Root", "B", ""),
                Derive("Root", "C", ""),
                Define("B", "f", Int),
                Define("C", "Extra", Void),
                Define("C", "f", Str),
                Inherit("A", "B"),
                Inherit("A", "C"),
            ],
            refused: Some("conflicts"),
            then: None,
        },
        Rule {
            rule: "an own redefinition shadows both bases",
            steps: &[
                Derive("Root", "A", ""),
                Derive("Root", "B", ""),
                Derive("Root", "C", ""),
                Define("B", "f", Int),
                Define("C", "f", Str),
                Define("A", "f", Bool),
                Inherit("A", "B"),
                Inherit("A", "C"),
            ],
            refused: None,
            then: Some(("A", "f", Bool)),
        },
        Rule {
            rule: "a diamond reaches one grand-base twice",
            steps: &[
                Derive("Root", "A", ""),
                Derive("Root", "B", ""),
                Derive("Root", "C", ""),
                Derive("Root", "D", ""),
                Define("D", "g", Void),
                Inherit("B", "D"),
                Inherit("C", "D"),
                Inherit("A", "B"),
                Inherit("A", "C"),
            ],
            refused: None,
            then: Some(("A", "g", Void)),
        },
        Rule {
            rule: "InheritFrom(self) is refused",
            steps: &[Derive("Root", "A", ""), Inherit("A", "A")],
            refused: Some("itself"),
            then: None,
        },
        Rule {
            rule: "a two-class cycle is refused",
            steps: &[
                Derive("Root", "A", ""),
                Derive("Root", "B", ""),
                Inherit("A", "B"),
                Inherit("B", "A"),
            ],
            refused: Some("cycle"),
            then: None,
        },
        Rule {
            rule: "a three-class cycle that closes the flow is refused",
            steps: &[
                Derive("Root", "A", ""),
                Derive("Root", "B", ""),
                Derive("Root", "C", ""),
                Inherit("B", "C"),
                Inherit("A", "B"),
                Inherit("C", "A"),
            ],
            refused: Some("cycle"),
            then: None,
        },
        // A merge copies the base's interface when it runs: A took B's
        // before B took C's, so nothing of C can flow back into C.
        Rule {
            rule: "A->B, B->C, then C->A is no cycle",
            steps: &[
                Derive("Root", "A", ""),
                Derive("Root", "B", ""),
                Derive("Root", "C", ""),
                Define("B", "b", Void),
                Inherit("A", "B"),
                Inherit("B", "C"),
                Inherit("C", "A"),
            ],
            refused: None,
            then: Some(("C", "b", Void)),
        },
        // kind-of is not inherits-from: a subclass copies its superclass's
        // interface, bases included, and starts with no bases of its own.
        Rule {
            rule: "a Derive'd subclass of an inheritor starts with no bases",
            steps: &[
                Derive("Root", "A", ""),
                Derive("Root", "B", ""),
                Define("B", "b", Void),
                Inherit("A", "B"),
                Derive("A", "S", ""),
            ],
            refused: None,
            then: Some(("S", "b", Void)),
        },
    ]
};

/// The live classes of one [`Rule`]: a root class whose Binding Agent can
/// find every class derived from it, and those classes by name.
struct Classes {
    w: World,
    named: Vec<(&'static str, legion_core::binding::Binding)>,
}

impl Classes {
    fn new() -> Classes {
        let mut w = build();
        let agent_cfg = AgentConfig::root(Loid::instance(5, 1), w.core.legion_class_element());
        let agent = w.k.add_endpoint(
            Box::new(BindingAgentEndpoint::new(agent_cfg)),
            Location::new(0, 6),
            "agent",
        );
        let root = Loid::class_object(78);
        let root_ep = w.k.add_endpoint(
            Box::new(ClassEndpoint::new(
                ClassObject::new(root, "Root", ClassKind::NORMAL),
                ClassConfig {
                    legion_class: w.core.legion_class_element(),
                    magistrates: vec![],
                    binding_agent: Some(agent.element()),
                    binding_ttl_ns: None,
                    admission: None,
                    notify_holders: true,
                },
            )),
            Location::new(0, 7),
            "class:Root",
        );
        let binding = legion_core::binding::Binding::forever(
            root,
            legion_core::address::ObjectAddress::single(root_ep.element()),
        );
        w.k.endpoint_mut::<legion_runtime::class_endpoint::LegionClassEndpoint>(
            w.core.legion_class,
        )
        .unwrap()
        .adopt_class(binding.clone());
        Classes {
            w,
            named: vec![("Root", binding)],
        }
    }

    fn binding(&self, name: &str) -> &legion_core::binding::Binding {
        &self.named.iter().find(|(n, _)| *n == name).unwrap().1
    }

    fn endpoint(&self, name: &str) -> EndpointId {
        let element = self.binding(name).address.primary().unwrap();
        EndpointId(element.sim_endpoint().unwrap())
    }

    fn class(&self, name: &str) -> &ClassObject {
        let ep = self.endpoint(name);
        self.w.k.endpoint::<ClassEndpoint>(ep).unwrap().class()
    }

    fn run(&mut self, step: Step) -> Result<LegionValue, String> {
        let (name, to, method, args) = match step {
            Step::Derive(parent, child, flags) => (
                Some(child),
                parent,
                class_proto::DERIVE,
                vec![LegionValue::from(child), LegionValue::from(flags)],
            ),
            Step::Inherit(class, base) => (
                None,
                class,
                class_proto::INHERIT_FROM,
                vec![LegionValue::Loid(self.binding(base).loid)],
            ),
            Step::Define(class, method, returns) => {
                let (ep, loid) = (self.endpoint(class), self.binding(class).loid);
                let c = self.w.k.endpoint_mut::<ClassEndpoint>(ep).unwrap();
                let sig = MethodSignature::new(method, vec![], returns);
                c.class_mut().interface.define(sig, loid);
                return Ok(LegionValue::Void);
            }
        };
        let (el, loid) = (self.endpoint(to).element(), self.binding(to).loid);
        let r = self.w.call_raw(el, loid, method, args);
        if let (Some(child), Ok(LegionValue::Binding(nb))) = (name, &r) {
            self.named.push((child, (**nb).clone()));
        }
        r
    }
}

/// The §2.1.1–§2.1.2 rules, each on fresh live class endpoints and over
/// the wire. Every rule runs and every broken one is reported.
#[test]
fn inheritance_rules_hold_over_the_wire() {
    let mut broken = Vec::new();
    for rule in RULES {
        let mut c = Classes::new();
        let (last, setup) = rule.steps.split_last().unwrap();
        if let Some((i, r)) = setup.iter().enumerate().find_map(|(i, s)| {
            let r = c.run(*s);
            r.is_err().then_some((i, r))
        }) {
            broken.push(format!("{}: setup step {i} failed: {r:?}", rule.rule));
            continue;
        }
        let inheritor = match last {
            Step::Inherit(class, _) => Some(*class),
            _ => None,
        };
        let before = inheritor.map(|n| (c.class(n).interface.clone(), c.class(n).bases.clone()));
        let r = c.run(*last);
        match (rule.refused, &r) {
            (Some(why), Err(e)) if e.contains(why) => {
                let after =
                    inheritor.map(|n| (c.class(n).interface.clone(), c.class(n).bases.clone()));
                if after != before {
                    broken.push(format!("{}: refused, but the inheritor changed", rule.rule));
                }
            }
            (None, Ok(_)) => {
                if let Step::Derive(parent, child, _) = *last {
                    let sub = c.class(child);
                    if sub.superclass != Some(c.binding(parent).loid) || !sub.bases.is_empty() {
                        broken.push(format!("{}: {child} is {sub:?}", rule.rule));
                    }
                }
                if let Some((class, method, returns)) = rule.then {
                    let got = c.class(class).interface.get(method).map(|s| s.returns);
                    if got != Some(returns) {
                        broken.push(format!("{}: {class}.{method} returns {got:?}", rule.rule));
                    }
                }
            }
            _ => broken.push(format!("{}: got {r:?}", rule.rule)),
        }
    }
    assert!(
        broken.is_empty(),
        "broken rules:\n  {}",
        broken.join("\n  ")
    );
}

/// §2.2: "Jurisdictions are potentially non-disjoint; both hosts and
/// persistent storage may be contained in two or more Jurisdictions." A
/// host locked to no Magistrate and registered with both A and B runs
/// objects for each.
#[test]
fn a_host_may_serve_two_jurisdictions() {
    let mut w = build();
    let shared = Loid::instance(3, 9);
    let ep = w
        .core
        .start_host(&mut w.k, shared, Location::new(0, 8), 16, None, None);
    for mag in [w.mag_a, w.mag_b] {
        let m = w.k.endpoint_mut::<MagistrateEndpoint>(mag).unwrap();
        m.add_host(shared, ep.element(), 16); // the most free slots
    }
    w.k.run_until_quiescent(10_000);
    // The File class round-robins: the first Create goes to A, the next
    // to B.
    for mag in [w.mag_a, w.mag_b] {
        let b = expect_binding(w.call(w.file_class, FILE_CLASS, class_proto::CREATE, vec![]));
        let m = w.k.endpoint::<MagistrateEndpoint>(mag).unwrap();
        let host = match m.object_state(&b.loid) {
            Some(Life::Active { host, .. }) => *host,
            other => panic!("{} is not Active: {other:?}", b.loid),
        };
        assert_eq!(host, shared);
    }
}

/// A host locked to Magistrate A (§3.9) is in A's jurisdiction only:
/// registered with B as well, it refuses B's activations, so a Create
/// placed through B fails and leaves B nothing.
#[test]
fn a_host_locked_to_one_magistrate_refuses_the_other() {
    let mut w = build();
    let host_a1 = w.call(
        w.core.legion_host,
        LEGION_HOST,
        GET_BINDING,
        vec![LegionValue::Loid(HOST_A1)],
    );
    let host_a1 = *expect_binding(host_a1).address.primary().unwrap();
    let mag_b = w.mag_b;
    w.k.endpoint_mut::<MagistrateEndpoint>(mag_b)
        .unwrap()
        .add_host(HOST_A1, host_a1, 16); // the most free slots
    a_refused_create_leaves_nothing(&mut w, mag_b, MAG_B, "not my magistrate");
}

/// §2.2: "if a Jurisdiction's resources impose a substantial load on its
/// Magistrate, the Jurisdiction can be split, and a new Magistrate can be
/// created to take over responsibility for some of the resources and
/// objects." A live jurisdiction is a Magistrate with its storage and
/// hosts, so the split is a Move of half the objects to the other
/// Magistrate; they must reactivate under it.
#[test]
fn jurisdiction_split_hands_over_objects() {
    let mut w = build();
    // Create six objects and keep the ones homed on magistrate A
    // (creation round-robins over A and B).
    let mut on_a = Vec::new();
    for _ in 0..6 {
        let b = expect_binding(w.call(w.file_class, FILE_CLASS, class_proto::CREATE, vec![]));
        let ep = EndpointId(b.address.primary().unwrap().sim_endpoint().unwrap());
        if w.k.meta(ep).unwrap().location.jurisdiction == 0 {
            on_a.push(b.loid);
        }
    }
    assert!(
        on_a.len() >= 2,
        "round robin put some objects in jurisdiction 0"
    );

    // Hand over half the objects to the new Magistrate: Move them from A
    // to B.
    let handover: Vec<_> = on_a.iter().take(on_a.len() / 2).copied().collect();
    for obj in &handover {
        let r = w.call(
            w.mag_a,
            MAG_A,
            mag_proto::MOVE,
            vec![LegionValue::Loid(*obj), LegionValue::Loid(MAG_B)],
        );
        assert_eq!(r, Ok(LegionValue::Void), "handover of {obj}");
    }
    // The new Magistrate now owns them; GetBinding reactivates there.
    for obj in &handover {
        let b_m = w.k.endpoint::<MagistrateEndpoint>(w.mag_b).unwrap();
        assert!(matches!(b_m.object_state(obj), Some(Life::Inert { .. })));
        let r = w.call(
            w.file_class,
            FILE_CLASS,
            legion_naming::protocol::GET_BINDING,
            vec![LegionValue::Loid(*obj)],
        );
        let fresh = expect_binding(r);
        let ep = EndpointId(fresh.address.primary().unwrap().sim_endpoint().unwrap());
        assert_eq!(w.k.meta(ep).unwrap().location.jurisdiction, 1);
    }
    // Objects not handed over still answer under A.
    for obj in on_a.iter().skip(handover.len()) {
        let a_m = w.k.endpoint::<MagistrateEndpoint>(w.mag_a).unwrap();
        assert!(a_m.object_state(obj).is_some(), "{obj} stayed with A");
    }
}

/// §2.2's split, the resource half: "a new Magistrate can be created to
/// take over responsibility for some of the resources and objects". The
/// new Magistrate comes up with a host of its own; what A hands over
/// reactivates on that host, and what A keeps stays on A's hosts.
#[test]
fn a_split_off_magistrate_runs_what_it_takes_over_on_its_own_host() {
    let mut w = build();
    let east = Loid::instance(4, 3);
    let east_host = Loid::instance(3, 4);
    let mag_east = w
        .core
        .start_magistrate(&mut w.k, east, Location::new(2, 1), 2, 2, 1 << 20);
    let host_east = w.core.start_host(
        &mut w.k,
        east_host,
        Location::new(2, 2),
        8,
        Some(east),
        None,
    );
    w.k.endpoint_mut::<MagistrateEndpoint>(mag_east)
        .unwrap()
        .add_host(east_host, host_east.element(), 8);
    let mag_a = w.mag_a;
    w.k.endpoint_mut::<MagistrateEndpoint>(mag_a)
        .unwrap()
        .add_peer(east, mag_east.element());
    w.k.run_until_quiescent(10_000);

    // Four objects on A (creation round-robins over A and B).
    let mut on_a = Vec::new();
    while on_a.len() < 4 {
        let b = expect_binding(w.call(w.file_class, FILE_CLASS, class_proto::CREATE, vec![]));
        let m = w.k.endpoint::<MagistrateEndpoint>(mag_a).unwrap();
        if m.object_state(&b.loid).is_some() {
            on_a.push(b.loid);
        }
    }
    let (handover, kept) = on_a.split_at(2);
    for obj in handover {
        let args = vec![LegionValue::Loid(*obj), LegionValue::Loid(east)];
        let r = w.call(mag_a, MAG_A, mag_proto::MOVE, args);
        assert_eq!(r, Ok(LegionValue::Void), "handover of {obj}");
        let r = w.call(
            mag_east,
            east,
            mag_proto::ACTIVATE,
            vec![LegionValue::Loid(*obj)],
        );
        let ep = EndpointId(
            expect_binding(r)
                .address
                .primary()
                .unwrap()
                .sim_endpoint()
                .unwrap(),
        );
        assert_eq!(w.k.meta(ep).unwrap().location.jurisdiction, 2);
        let host =
            w.k.endpoint::<legion_runtime::HostObjectEndpoint>(host_east)
                .unwrap();
        assert!(host.is_running(obj), "{obj} runs on the new host");
    }
    let a = w.k.endpoint::<MagistrateEndpoint>(mag_a).unwrap();
    for obj in handover {
        assert!(a.object_state(obj).is_none(), "{obj} left A");
    }
    for obj in kept {
        match a.object_state(obj) {
            Some(Life::Active { host, .. }) => assert!([HOST_A1, HOST_A2].contains(host)),
            other => panic!("{obj} is not Active under A: {other:?}"),
        }
    }
}

/// The two-argument `Activate(loid, host)` honours a Scheduling Agent's
/// suggestion (§3.8's scheduling hook).
#[test]
fn activate_honours_host_suggestion() {
    let mut w = build();
    let b = expect_binding(w.call(w.file_class, FILE_CLASS, class_proto::CREATE, vec![]));
    let obj = b.loid;
    // Find the object's home magistrate.
    let ep0 = EndpointId(b.address.primary().unwrap().sim_endpoint().unwrap());
    let j = w.k.meta(ep0).unwrap().location.jurisdiction;
    let (mag, mag_ep) = if j == 0 {
        (MAG_A, w.mag_a)
    } else {
        (MAG_B, w.mag_b)
    };
    w.call(
        mag_ep,
        mag,
        mag_proto::DEACTIVATE,
        vec![LegionValue::Loid(obj)],
    )
    .unwrap();
    // Suggest a specific host for reactivation (A2 in jurisdiction 0,
    // B1 in jurisdiction 1).
    let suggestion = if j == 0 { HOST_A2 } else { HOST_B1 };
    let r = w.call(
        mag_ep,
        mag,
        mag_proto::ACTIVATE,
        vec![LegionValue::Loid(obj), LegionValue::Loid(suggestion)],
    );
    let fresh = expect_binding(r);
    // Verify it actually runs on the suggested host by asking the host.
    let host_ep =
        w.k.all_meta()
            .find(|(_, m)| m.name == format!("host:{suggestion}"))
            .map(|(id, _)| id)
            .expect("host endpoint");
    let host =
        w.k.endpoint::<legion_runtime::HostObjectEndpoint>(host_ep)
            .expect("host");
    assert!(
        host.is_running(&obj),
        "object reactivated on the suggested host"
    );
    let _ = fresh;
}

/// A crashed Host Object does not strand its jurisdiction: the Magistrate
/// marks it dead and places the activation on a surviving host.
#[test]
fn magistrate_survives_host_crash() {
    let mut w = build();
    let b = expect_binding(w.call(w.file_class, FILE_CLASS, class_proto::CREATE, vec![]));
    let obj = b.loid;
    // Find the home magistrate and deactivate the object.
    let ep0 = EndpointId(b.address.primary().unwrap().sim_endpoint().unwrap());
    let j = w.k.meta(ep0).unwrap().location.jurisdiction;
    let (mag, mag_ep) = if j == 0 {
        (MAG_A, w.mag_a)
    } else {
        (MAG_B, w.mag_b)
    };
    w.call(
        mag_ep,
        mag,
        mag_proto::DEACTIVATE,
        vec![LegionValue::Loid(obj)],
    )
    .unwrap();

    // Crash the host the object ran on.
    let dead_host_ep =
        w.k.all_meta()
            .find(|(_, m)| m.location.jurisdiction == j && m.name.starts_with("host:") && m.alive)
            .map(|(id, _)| id)
            .expect("a live host");
    w.k.remove_endpoint(dead_host_ep);

    // Reactivation must succeed on the other host of the jurisdiction.
    let r = w.call(
        mag_ep,
        mag,
        mag_proto::ACTIVATE,
        vec![LegionValue::Loid(obj)],
    );
    let fresh = expect_binding(r);
    let new_ep = EndpointId(fresh.address.primary().unwrap().sim_endpoint().unwrap());
    assert!(w.k.meta(new_ep).unwrap().alive);
    assert_eq!(w.k.meta(new_ep).unwrap().location.jurisdiction, j);
    // The magistrate recorded at least one dead-host event iff it tried
    // the dead one first (scheduling-order dependent); either way the
    // object is Active again.
    let m = w.k.endpoint::<MagistrateEndpoint>(mag_ep).unwrap();
    assert!(matches!(m.object_state(&obj), Some(Life::Active { .. })));
}

/// A full jurisdiction store refuses deactivation cleanly (the object
/// stays Active) rather than corrupting state.
#[test]
fn deactivate_with_full_storage_fails_cleanly() {
    // Build a bespoke world with a tiny disk.
    let mut k = SimKernel::new(
        Topology::fixed(1_000, 10_000, 1_000_000),
        FaultPlan::none(),
        9,
    );
    let core = legion_runtime::CoreSystem::bootstrap(&mut k, Location::new(0, 0));
    let mag_loid = Loid::instance(4, 7);
    let host_loid = Loid::instance(3, 7);
    let mag = core.start_magistrate(&mut k, mag_loid, Location::new(0, 1), 0, 1, 64); // 64-byte disk!
    let host = core.start_host(
        &mut k,
        host_loid,
        Location::new(0, 2),
        8,
        Some(mag_loid),
        None,
    );
    k.endpoint_mut::<MagistrateEndpoint>(mag)
        .unwrap()
        .add_host(host_loid, host.element(), 8);
    k.run_until_quiescent(10_000);

    // Bypass the class: hand the magistrate a CreateObject directly. The
    // initial OPR already exceeds 64 bytes, so creation itself reports
    // the storage failure.
    #[derive(Default)]
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
    let probe = k.add_endpoint(Box::new(Probe::default()), Location::new(0, 3), "probe");
    let spec = legion_runtime::protocol::ActivationSpec {
        loid: Loid::instance(16, 1),
        class: Loid::class_object(16),
        state: vec![0u8; 128],
        class_addr: None,
        magistrate_addr: None,
    };
    let id = k.fresh_call_id();
    let mut msg = Message::call(
        id,
        mag_loid,
        mag_proto::CREATE_OBJECT,
        spec.into_args().into(),
        InvocationEnv::anonymous(),
    );
    msg.reply_to = Some(probe.element());
    k.inject(Location::new(0, 3), mag.element(), msg);
    k.run_until_quiescent(100_000);
    let r = k
        .endpoint::<Probe>(probe)
        .unwrap()
        .replies
        .last()
        .cloned()
        .unwrap();
    let err = r.expect_err("tiny disk must refuse the OPR");
    assert!(err.contains("full"), "reported the disk-full cause: {err}");
    // And the magistrate did not keep a phantom record.
    let m = k.endpoint::<MagistrateEndpoint>(mag).unwrap();
    assert_eq!(m.object_count(), 0);
}

/// Magistrate edge cases: unknown objects, unknown peers, idempotent
/// deactivation, and Activate on an already-Active object.
#[test]
fn magistrate_edge_cases() {
    let mut w = build();
    let unknown = Loid::instance(16, 9999);
    // Activate/Deactivate/Delete of an unmanaged object: clean errors.
    for method in [
        mag_proto::ACTIVATE,
        mag_proto::DEACTIVATE,
        mag_proto::DELETE,
    ] {
        let r = w.call(w.mag_a, MAG_A, method, vec![LegionValue::Loid(unknown)]);
        assert!(r.unwrap_err().contains("not managed"), "{method}");
    }
    // Copy to an unknown peer magistrate.
    let b = expect_binding(w.call(w.file_class, FILE_CLASS, class_proto::CREATE, vec![]));
    let obj = b.loid;
    let ep0 = EndpointId(b.address.primary().unwrap().sim_endpoint().unwrap());
    let j = w.k.meta(ep0).unwrap().location.jurisdiction;
    let (mag, mag_ep) = if j == 0 {
        (MAG_A, w.mag_a)
    } else {
        (MAG_B, w.mag_b)
    };
    let stranger = Loid::instance(4, 77);
    let r = w.call(
        mag_ep,
        mag,
        mag_proto::COPY,
        vec![LegionValue::Loid(obj), LegionValue::Loid(stranger)],
    );
    assert!(r.unwrap_err().contains("unknown peer"));
    // Activate while already Active: returns the current binding, no new
    // process.
    let r = w.call(
        mag_ep,
        mag,
        mag_proto::ACTIVATE,
        vec![LegionValue::Loid(obj)],
    );
    let again = expect_binding(r);
    assert_eq!(again.address, b.address);
    // Deactivate twice: second is a clean no-op (already Inert).
    let r1 = w.call(
        mag_ep,
        mag,
        mag_proto::DEACTIVATE,
        vec![LegionValue::Loid(obj)],
    );
    assert_eq!(r1, Ok(LegionValue::Void));
    let r2 = w.call(
        mag_ep,
        mag,
        mag_proto::DEACTIVATE,
        vec![LegionValue::Loid(obj)],
    );
    assert_eq!(r2, Ok(LegionValue::Void));
    // Malformed arguments.
    let r = w.call(mag_ep, mag, mag_proto::ACTIVATE, vec![LegionValue::Uint(1)]);
    assert!(r.is_err());
    let r = w.call(mag_ep, mag, "Bogus", vec![]);
    assert!(r.is_err());
}

/// Deleting an Active object tears down its process too (§3.8: "both
/// Active and Inert copies of the object are removed").
#[test]
fn delete_active_object_kills_process() {
    let mut w = build();
    let b = expect_binding(w.call(w.file_class, FILE_CLASS, class_proto::CREATE, vec![]));
    let obj = b.loid;
    let el = *b.address.primary().unwrap();
    let ep = EndpointId(el.sim_endpoint().unwrap());
    let ep_j = w.k.meta(ep).unwrap().location.jurisdiction;
    let (mag, mag_ep) = if ep_j == 0 {
        (MAG_A, w.mag_a)
    } else {
        (MAG_B, w.mag_b)
    };
    let r = w.call(mag_ep, mag, mag_proto::DELETE, vec![LegionValue::Loid(obj)]);
    assert_eq!(r, Ok(LegionValue::Void));
    assert!(!w.k.meta(ep).unwrap().alive, "the process is gone");
    let m = w.k.endpoint::<MagistrateEndpoint>(mag_ep).unwrap();
    assert_eq!(m.object_state(&obj), None);
    let (files, _) = m.storage_usage();
    assert_eq!(files, 0, "no orphan OPRs");
}

impl World {
    /// A fresh Active `File` object and the magistrate managing it, as
    /// `(object, magistrate, magistrate endpoint, peer, peer endpoint)`.
    fn create_active(&mut self) -> (Loid, Loid, EndpointId, Loid, EndpointId) {
        let b = expect_binding(self.call(self.file_class, FILE_CLASS, class_proto::CREATE, vec![]));
        let ep = EndpointId(b.address.primary().unwrap().sim_endpoint().unwrap());
        if self.k.meta(ep).unwrap().location.jurisdiction == 0 {
            (b.loid, MAG_A, self.mag_a, MAG_B, self.mag_b)
        } else {
            (b.loid, MAG_B, self.mag_b, MAG_A, self.mag_a)
        }
    }
}

/// A `Deactivate` that lands while another's `HostDeactivate` is out
/// sends `SaveState` again (the `(Deactivating, Deactivate)` row), and
/// the process is dead when that call arrives. The kernel answers a call
/// to a killed process, so the second requester hears why as soon as
/// the answer is back, where it heard nothing before (no call deadline
/// is set here). Joining the deactivation in flight, so that both
/// requesters hear `Ok`, is ROADMAP item 1.
#[test]
fn a_second_deactivate_behind_the_kill_hears_the_refusal() {
    let mut w = build();
    let (obj, mag, mag_ep, _, _) = w.create_active();
    let before = w.replies().len();
    let deactivate = |w: &mut World| {
        let args = vec![LegionValue::Loid(obj)];
        assert!(w.send(mag_ep.element(), mag, mag_proto::DEACTIVATE, args));
    };
    // Both requests take the same path to the Magistrate. 25 µs apart,
    // the second lands after the first's state came back (20 µs after
    // the first landed), and its SaveState reaches the process after the
    // kill (30 µs after).
    deactivate(&mut w);
    let now = w.k.now();
    w.k.run_until(now.saturating_add(25_000));
    deactivate(&mut w);
    w.k.run_until_quiescent(100_000);
    let answers = &w.replies()[before..];
    assert_eq!(answers.len(), 2, "{answers:?}");
    assert_eq!(answers[0], Ok(LegionValue::Void));
    let refused = answers[1].as_ref().expect_err("the second is refused");
    assert!(
        refused.starts_with("SaveState failed: no object at ep"),
        "{refused}"
    );
    assert_eq!(w.k.counters().get("net.killed_refusals"), 1);
    let m = w.k.endpoint_mut::<MagistrateEndpoint>(mag_ep).unwrap();
    assert!(matches!(m.object_state(&obj), Some(Life::Inert { .. })));
    assert_eq!(m.calls().outstanding(), 0);
}

/// A Move parks its requester as a ticket behind the deactivation it
/// starts. Whatever a racing `Delete` does to that deactivation — the
/// record gone when the object's state comes back, the host finding
/// nothing to kill, the object dead before `SaveState` reaches it — both
/// requesters hear back, and no OPR is left behind.
#[test]
fn move_racing_a_delete_still_answers_both_requesters() {
    for delete_first in [false, true] {
        let mut w = build();
        let (obj, mag, mag_ep, peer, _) = w.create_active();
        // With the Delete ahead, the object dies before SaveState arrives,
        // and the kernel answers that call for it. The deadline bounds
        // the wait should the answer never come.
        w.k.endpoint_mut::<MagistrateEndpoint>(mag_ep)
            .unwrap()
            .calls()
            .set_deadline_ns(Some(50_000_000));
        w.k.set_flight_dump_on_sweep(false);
        let before = w.replies().len();
        let mut calls = [
            (
                mag_proto::MOVE,
                vec![LegionValue::Loid(obj), LegionValue::Loid(peer)],
            ),
            (mag_proto::DELETE, vec![LegionValue::Loid(obj)]),
        ];
        if delete_first {
            calls.reverse();
        }
        for (method, args) in calls {
            assert!(w.send(mag_ep.element(), mag, method, args));
        }
        w.k.run_until_quiescent(100_000);
        let answers = &w.replies()[before..];
        assert_eq!(answers.len(), 2, "delete_first={delete_first}: {answers:?}");
        assert!(
            answers.contains(&Ok(LegionValue::Void)),
            "the Delete succeeds: {answers:?}"
        );
        let m = w.k.endpoint_mut::<MagistrateEndpoint>(mag_ep).unwrap();
        assert_eq!(m.object_state(&obj), None);
        assert_eq!(m.calls().outstanding(), 0);
        assert_eq!(m.storage_usage().0, 0, "no orphan OPRs");
    }
}

/// A Move to a peer whose endpoint is gone deactivates the object, finds
/// the send refused and says so to the requester; the object stays,
/// Inert, where it was.
#[test]
fn move_to_an_unreachable_peer_answers_and_keeps_the_object() {
    let mut w = build();
    let (obj, mag, mag_ep, peer, peer_ep) = w.create_active();
    w.k.remove_endpoint(peer_ep);
    let r = w.call(
        mag_ep,
        mag,
        mag_proto::MOVE,
        vec![LegionValue::Loid(obj), LegionValue::Loid(peer)],
    );
    assert!(r.unwrap_err().contains("unreachable"));
    let m = w.k.endpoint_mut::<MagistrateEndpoint>(mag_ep).unwrap();
    assert!(matches!(m.object_state(&obj), Some(Life::Inert { .. })));
    assert_eq!(m.calls().outstanding(), 0);
    // A second Move finds it already Inert and is answered the same way.
    let r = w.call(
        mag_ep,
        mag,
        mag_proto::MOVE,
        vec![LegionValue::Loid(obj), LegionValue::Loid(peer)],
    );
    assert!(r.unwrap_err().contains("unreachable"));
}

/// A received OPR that replaces an Inert record replaces its file: after
/// a Copy and then a Move to the same peer (E7's order), the peer holds
/// one file for the one object — the one it activates from — and the
/// source holds none.
#[test]
fn a_move_onto_a_copy_leaves_the_peer_one_file() {
    let mut w = build();
    let (obj, mag, mag_ep, peer, peer_ep) = w.create_active();
    for method in [mag_proto::COPY, mag_proto::MOVE] {
        let args = vec![LegionValue::Loid(obj), LegionValue::Loid(peer)];
        assert_eq!(w.call(mag_ep, mag, method, args), Ok(LegionValue::Void));
    }
    let usage = |w: &World, ep| {
        let m = w.k.endpoint::<MagistrateEndpoint>(ep).unwrap();
        m.storage_usage()
    };
    assert_eq!(usage(&w, mag_ep), (0, 0), "the source kept nothing");
    let (files, bytes) = usage(&w, peer_ep);
    assert_eq!(files, 1, "one object, one file ({bytes} bytes held)");
    let r = w.call(
        peer_ep,
        peer,
        mag_proto::ACTIVATE,
        vec![LegionValue::Loid(obj)],
    );
    expect_binding(r);
}

// ----- news goes where the binding went (§4.1.4) ------------------------------

impl World {
    /// A root Binding Agent in `jurisdiction` (class objects resolve
    /// through LegionClass, instances through their class).
    fn add_agent(&mut self, seq: u64, jurisdiction: u32) -> EndpointId {
        let cfg = AgentConfig::root(Loid::instance(5, seq), self.core.legion_class_element());
        self.k.add_endpoint(
            Box::new(BindingAgentEndpoint::new(cfg)),
            Location::new(jurisdiction, 40 + seq as u32),
            format!("agent{seq}"),
        )
    }

    /// Resolve `obj` through `agent`, as a client of it would.
    fn ask_agent(&mut self, agent: EndpointId, obj: Loid) -> legion_core::binding::Binding {
        let any_agent = Loid::instance(5, 1);
        expect_binding(self.call(agent, any_agent, GET_BINDING, vec![LegionValue::Loid(obj)]))
    }

    fn deactivate(&mut self, mag_ep: EndpointId, mag: Loid, obj: Loid) {
        let r = self.call(
            mag_ep,
            mag,
            mag_proto::DEACTIVATE,
            vec![LegionValue::Loid(obj)],
        );
        assert_eq!(r, Ok(LegionValue::Void));
    }

    /// `(messages received, cache entries explicitly invalidated)`.
    fn agent_seen(&self, agent: EndpointId) -> (u64, u64) {
        let a = self.k.endpoint::<BindingAgentEndpoint>(agent).unwrap();
        (
            self.k.meta(agent).unwrap().received,
            a.cache_stats().invalidations,
        )
    }

    fn notices(&self) -> u64 {
        self.k.counters().get("class.holders_notified")
    }

    fn holders_of(&self, obj: Loid) -> usize {
        let class = self.k.endpoint::<ClassEndpoint>(self.file_class).unwrap();
        let found = class.holder_counts().find(|(l, _)| *l == obj);
        found.map_or(0, |(_, n)| n)
    }
}

/// Of two agents, the one that asked the class hears — once, with the
/// exact binding — when the object deactivates; the other hears nothing.
/// A second cycle notifies only whoever asked again.
#[test]
fn a_deactivation_is_told_to_exactly_the_agents_that_asked() {
    let mut w = build();
    let asked = w.add_agent(1, 0);
    let other = w.add_agent(2, 1);
    let (obj, mag, mag_ep, _, _) = w.create_active();

    let first = w.ask_agent(asked, obj);
    // A refresh that comes back with the address it already had makes
    // the agent no more of a holder.
    let refresh = vec![LegionValue::from(first.clone())];
    let again = w.call(asked, Loid::instance(5, 1), GET_BINDING, refresh);
    assert_eq!(expect_binding(again), first);
    assert_eq!(w.k.counters().get("class.get_binding"), 2);
    assert_eq!(w.holders_of(obj), 1);
    let (asked_before, other_before) = (w.agent_seen(asked), w.agent_seen(other));

    w.deactivate(mag_ep, mag, obj);
    assert_eq!(w.notices(), 1);
    assert_eq!(
        w.agent_seen(asked),
        (asked_before.0 + 1, asked_before.1 + 1),
        "one notice, and it named the binding the agent held"
    );
    assert_eq!(
        w.agent_seen(other),
        other_before,
        "nothing for the agent that never asked"
    );
    assert_eq!(w.holders_of(obj), 0, "the set went with the address");

    // Cycle two: only `other` asks (reactivating the object), so only
    // `other` is told when it deactivates again.
    let second = w.ask_agent(other, obj);
    assert_ne!(second.address, first.address, "new process, new address");
    let (asked_before, other_before) = (w.agent_seen(asked), w.agent_seen(other));
    w.deactivate(mag_ep, mag, obj);
    assert_eq!(w.notices(), 2);
    assert_eq!(w.agent_seen(asked), asked_before);
    assert_eq!(
        w.agent_seen(other),
        (other_before.0 + 1, other_before.1 + 1)
    );
}

/// Every waiter `finish_binding` answers is a holder too: two agents
/// combined behind one activation are both told when it ends.
#[test]
fn agents_combined_behind_one_activation_are_both_holders() {
    let mut w = build();
    let agents = [w.add_agent(1, 0), w.add_agent(2, 1)];
    let (obj, mag, mag_ep, _, _) = w.create_active();
    w.deactivate(mag_ep, mag, obj);
    // Both ask while the object is Inert, before anything runs.
    for agent in agents {
        let args = vec![LegionValue::Loid(obj)];
        assert!(w.send(agent.element(), Loid::instance(5, 1), GET_BINDING, args));
    }
    w.k.run_until_quiescent(100_000);
    assert_eq!(w.k.counters().get("class.activates_for_binding"), 1);
    assert_eq!(w.holders_of(obj), 2);
    w.deactivate(mag_ep, mag, obj);
    assert_eq!(w.notices(), 2);
}

/// An Inert object has no address, so nobody holds one: moving it sends
/// no notice and no `SetAddress` — the class hears only the two
/// Current-Magistrate-List updates.
#[test]
fn moving_an_inert_object_tells_nobody() {
    let mut w = build();
    let agent = w.add_agent(1, 0);
    let (obj, mag, mag_ep, peer, _) = w.create_active();
    w.ask_agent(agent, obj);
    w.deactivate(mag_ep, mag, obj);
    assert_eq!(w.notices(), 1);

    let class_before = w.k.meta(w.file_class).unwrap().received;
    let agent_before = w.agent_seen(agent);
    let r = w.call(
        mag_ep,
        mag,
        mag_proto::MOVE,
        vec![LegionValue::Loid(obj), LegionValue::Loid(peer)],
    );
    assert_eq!(r, Ok(LegionValue::Void));
    assert_eq!(w.notices(), 1, "no notice");
    assert_eq!(w.agent_seen(agent), agent_before);
    assert_eq!(
        w.k.meta(w.file_class).unwrap().received,
        class_before + 2,
        "AddMagistrate from the new home, RemoveMagistrate from the old; no SetAddress"
    );
}

/// `notify_holders: false` records nobody and sends nothing.
#[test]
fn with_notices_off_the_class_sends_nothing() {
    let mut w = build_with(false);
    let agent = w.add_agent(1, 0);
    let (obj, mag, mag_ep, _, _) = w.create_active();
    w.ask_agent(agent, obj);
    assert_eq!(w.holders_of(obj), 0);
    let before = w.agent_seen(agent);
    w.deactivate(mag_ep, mag, obj);
    assert_eq!(w.notices(), 0);
    assert_eq!(
        w.agent_seen(agent),
        before,
        "the agent keeps its stale entry"
    );
}

/// Resolves `target` and pings it each time its timer fires, recovering
/// from a stale binding the §4.1.4 way: detect in use, refresh, retry.
struct PingClient {
    resolver: ClientResolver,
    target: Loid,
    pongs: u32,
    stale_detected: u32,
}

impl PingClient {
    fn ping(&mut self, ctx: &mut Ctx<'_>, binding: legion_core::binding::Binding) {
        let me = self.resolver.me();
        let to = *binding.address.primary().expect("a bound address");
        let sent = ctx.call(
            to,
            self.target,
            obj_m::PING,
            vec![],
            InvocationEnv::solo(me),
            Some(me),
        );
        if sent.is_none() {
            self.stale_detected += 1;
            let refreshing = self.resolver.report_stale(ctx, binding);
            assert!(matches!(refreshing, Lookup::Requested(_)));
        }
    }
}

impl Endpoint for PingClient {
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
        if let Lookup::Cached(b) = self.resolver.lookup(ctx, self.target) {
            self.ping(ctx, b);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        match self.resolver.handle_reply_owned(ctx, msg) {
            Ok((_, Ok(b))) => self.ping(ctx, b),
            Ok((_, Err(e))) => panic!("resolution failed: {e}"),
            Err(_) => self.pongs += 1,
        }
    }
}

/// The notice is an optimisation: with it lost on the wire the client
/// still completes, because a stale binding is detected in use and
/// refreshed (§4.1.4 stays the correctness mechanism).
#[test]
fn a_lost_notice_costs_a_refresh_not_an_operation() {
    let mut w = build();
    // Agent and client in a jurisdiction of their own, so the class →
    // agent link can be cut without touching anything else.
    let agent = w.add_agent(1, 2);
    let (obj, mag, mag_ep, _, _) = w.create_active();
    let client = w.k.add_endpoint(
        Box::new(PingClient {
            resolver: ClientResolver::new(Loid::instance(98, 1), agent.element(), 16),
            target: obj,
            pongs: 0,
            stale_detected: 0,
        }),
        Location::new(2, 60),
        "ping-client",
    );
    assert!(w.k.set_timer(client, 1, 0));
    w.k.run_until_quiescent(100_000);
    assert_eq!(w.k.endpoint::<PingClient>(client).unwrap().pongs, 1);
    assert_eq!(w.holders_of(obj), 1);

    let lost_before = w.k.stats().lost;
    let agent_before = w.agent_seen(agent);
    w.k.faults_mut().partition(0, 2);
    w.deactivate(mag_ep, mag, obj);
    w.k.faults_mut().heal(0, 2);
    assert_eq!(w.notices(), 1, "sent");
    assert_eq!(w.k.stats().lost, lost_before + 1, "and lost");
    assert_eq!(w.agent_seen(agent), agent_before, "the agent never heard");

    assert!(w.k.set_timer(client, 1, 0));
    w.k.run_until_quiescent(100_000);
    let c = w.k.endpoint::<PingClient>(client).unwrap();
    assert_eq!(c.stale_detected, 1, "the dead address refused the ping");
    assert_eq!(c.pongs, 2, "and the operation completed after one refresh");
    assert_eq!(w.k.counters().get("ba.refresh"), 1);
}
