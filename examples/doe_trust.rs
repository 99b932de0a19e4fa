//! The DOE story: site autonomy through user-replaceable Magistrates
//! (paper §2.1.3, §2.2, §2.4, §3.7).
//!
//! "Suppose the Department of Energy does not trust university graduate
//! students to write a Magistrate class that adequately protects its
//! objects. The DOE can write its own Magistrate, and insist via the
//! class mechanism that all objects that the DOE owns execute only on
//! Magistrates that it trusts. Further, it can ensure that their
//! Magistrates only use Host Objects that have been certified by the DOE
//! not to leak information."
//!
//! Each sentence is a live mechanism here, shown over the wire and
//! checked with an assertion:
//! * the DOE Magistrate's `MayI` serves only the DOE (its user and its
//!   class) and refuses a grad student;
//! * the DOE class names only the DOE Magistrate in its Candidate
//!   Magistrate List (`ClassConfig::magistrates`), so every DOE object
//!   lands there, on the DOE-certified host;
//! * a campus class that also lists the DOE Magistrate is refused by it,
//!   and keeps no row for the refused object;
//! * the certified host obeys only the DOE Magistrate.
//!
//! ```text
//! cargo run --example doe_trust
//! ```

use legion::core::class::{ClassKind, ClassObject};
use legion::core::env::InvocationEnv;
use legion::core::loid::Loid;
use legion::core::object::methods as obj_methods;
use legion::core::symbol::Sym;
use legion::core::value::LegionValue;
use legion::net::message::{Body, Message};
use legion::net::sim::{Ctx, Endpoint, EndpointId, SimKernel};
use legion::net::topology::{Location, Topology};
use legion::net::FaultPlan;
use legion::runtime::magistrate::{MagistrateConfig, MagistrateEndpoint, ObjState};
use legion::runtime::protocol::{
    class as class_proto, host as host_proto, magistrate as mag_proto, ActivationSpec,
};
use legion::runtime::{ClassConfig, ClassEndpoint, CoreSystem};
use legion::security::mayi::ResponsibleAgentSet;

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

/// Send `method(args)` to `target` at `to` on behalf of `who`, run the
/// kernel until quiet, and return the reply.
fn request(
    k: &mut SimKernel,
    probe: EndpointId,
    to: EndpointId,
    target: Loid,
    method: impl Into<Sym>,
    args: Vec<LegionValue>,
    who: Loid,
) -> Result<LegionValue, String> {
    let method = method.into();
    let id = k.fresh_call_id();
    let mut msg = Message::call(id, target, method, args, InvocationEnv::solo(who));
    msg.reply_to = Some(probe.element());
    msg.sender = Some(who);
    let before = k.endpoint::<Probe>(probe).expect("probe").replies.len();
    k.inject(Location::new(0, 9), to.element(), msg);
    k.run_until_quiescent(100_000);
    k.endpoint::<Probe>(probe)
        .expect("probe")
        .replies
        .get(before)
        .cloned()
        .unwrap_or_else(|| panic!("no reply to {method}"))
}

/// A plain class placing objects on `magistrates` only.
fn class_endpoint(
    core: &CoreSystem,
    loid: Loid,
    name: &str,
    magistrates: Vec<(Loid, EndpointId)>,
) -> ClassEndpoint {
    let cfg = ClassConfig {
        legion_class: core.legion_class_element(),
        magistrates: magistrates
            .into_iter()
            .map(|(loid, ep)| (loid, ep.element()))
            .collect(),
        binding_agent: None,
        binding_ttl_ns: None,
        admission: None,
        notify_holders: true,
    };
    ClassEndpoint::new(ClassObject::new(loid, name, ClassKind::NORMAL), cfg)
}

fn main() {
    let mut k = SimKernel::new(Topology::default(), FaultPlan::none(), 7);
    let core = CoreSystem::bootstrap(&mut k, Location::new(0, 0));

    // Identities.
    let doe_user = Loid::instance(20, 1); // a DOE scientist's proxy object
    let grad_student = Loid::instance(20, 2); // everyone else
    let doe_magistrate = Loid::instance(4, 1);
    let grad_magistrate = Loid::instance(4, 2);
    let doe_host = Loid::instance(3, 1);
    let grad_host = Loid::instance(3, 2);
    let doe_class = Loid::class_object(1000);
    let campus_class = Loid::class_object(1001);

    // The DOE writes its own Magistrate: §2.4's RA-set policy — only
    // calls made on behalf of the DOE (its user, or its class placing a
    // new object) are serviced. "Member function calls on Magistrates
    // should be thought of as requests rather than commands."
    let doe_mag_ep = {
        let cfg = MagistrateConfig {
            loid: doe_magistrate,
            jurisdiction: 0,
            class_addr: Some(core.legion_magistrate.element()),
            disks: 2,
            disk_capacity: 1 << 20,
        };
        let trusted = ResponsibleAgentSet::new([doe_user, doe_class]);
        let m = MagistrateEndpoint::new(cfg).with_mayi(Box::new(trusted));
        k.add_endpoint(Box::new(m), Location::new(0, 1), "magistrate:DOE")
    };
    // The grad-student Magistrate accepts anything (the default).
    let grad_mag_ep =
        core.start_magistrate(&mut k, grad_magistrate, Location::new(1, 1), 1, 2, 1 << 20);

    // A DOE-certified host, locked to the DOE Magistrate: "Host Objects
    // ... ensure that [their] member functions will be invoked only by
    // [their] Magistrate" (§3.9). The grad Magistrate gets a host of its
    // own.
    let doe_host_ep = core.start_host(
        &mut k,
        doe_host,
        Location::new(0, 2),
        8,
        Some(doe_magistrate),
        None,
    );
    let grad_host_ep = core.start_host(
        &mut k,
        grad_host,
        Location::new(1, 2),
        8,
        Some(grad_magistrate),
        None,
    );
    for (mag, host, host_ep) in [
        (doe_mag_ep, doe_host, doe_host_ep),
        (grad_mag_ep, grad_host, grad_host_ep),
    ] {
        k.endpoint_mut::<MagistrateEndpoint>(mag)
            .expect("magistrate")
            .add_host(host, host_ep.element(), 8);
    }

    // The DOE's class names only the DOE Magistrate as a candidate; a
    // campus class lists the grad Magistrate and, uninvited, the DOE's.
    let doe_class_ep = {
        let c = class_endpoint(
            &core,
            doe_class,
            "DOEData",
            vec![(doe_magistrate, doe_mag_ep)],
        );
        k.add_endpoint(Box::new(c), Location::new(0, 3), "class:DOEData")
    };
    let campus_class_ep = {
        let candidates = vec![(grad_magistrate, grad_mag_ep), (doe_magistrate, doe_mag_ep)];
        let c = class_endpoint(&core, campus_class, "CampusData", candidates);
        k.add_endpoint(Box::new(c), Location::new(1, 3), "class:CampusData")
    };

    let probe = k.add_endpoint(Box::new(Probe::default()), Location::new(0, 9), "probe");
    k.run_until_quiescent(10_000);

    let spec = |loid: Loid, magistrate: Option<EndpointId>| -> Vec<LegionValue> {
        ActivationSpec {
            loid,
            class: doe_class,
            state: vec![],
            class_addr: None,
            magistrate_addr: magistrate.map(|m| m.element()),
        }
        .into_args()
        .into()
    };
    let runs_on = |k: &SimKernel, mag: EndpointId, loid: &Loid| match k
        .endpoint::<MagistrateEndpoint>(mag)
        .expect("magistrate")
        .object_state(loid)
    {
        Some(ObjState::Active { host, .. }) => *host,
        other => panic!("{loid} is not Active: {other:?}"),
    };

    // The grad student asks the DOE Magistrate to run an object: refused.
    println!("[grad-student] asks the DOE magistrate to run an object:");
    let loid = Loid::instance(1000, 900);
    let args = spec(loid, Some(doe_mag_ep));
    let create = mag_proto::CREATE_OBJECT;
    match request(
        &mut k,
        probe,
        doe_mag_ep,
        doe_magistrate,
        create,
        args,
        grad_student,
    ) {
        Err(e) => {
            assert!(
                e.contains("MayI refused"),
                "refused for the wrong reason: {e}"
            );
            println!("  -> REFUSED: {e}");
        }
        Ok(v) => panic!("the DOE magistrate served a grad student: {v}"),
    }

    // The DOE user asks: accepted; the object runs on the certified host.
    println!("[doe-user] asks the DOE magistrate to run an object:");
    let loid = Loid::instance(1000, 901);
    let args = spec(loid, Some(doe_mag_ep));
    match request(
        &mut k,
        probe,
        doe_mag_ep,
        doe_magistrate,
        create,
        args,
        doe_user,
    ) {
        Ok(LegionValue::Binding(b)) => {
            assert_eq!(b.loid, loid);
            assert_eq!(runs_on(&k, doe_mag_ep, &loid), doe_host);
            println!(
                "  -> ACCEPTED: {} active at {} on {doe_host}",
                b.loid, b.address
            );
        }
        other => panic!("the DOE magistrate refused the DOE: {other:?}"),
    }

    // Anyone's Create() on the DOE class lands on the DOE Magistrate and
    // the certified host: the class mechanism is the insistence.
    println!("[anyone] Create() on the DOE class, four times:");
    for _ in 0..4 {
        let r = request(
            &mut k,
            probe,
            doe_class_ep,
            doe_class,
            class_proto::CREATE,
            vec![],
            grad_student,
        );
        let b = match r {
            Ok(LegionValue::Binding(b)) => b,
            other => panic!("DOE class Create failed: {other:?}"),
        };
        let class = k.endpoint::<ClassEndpoint>(doe_class_ep).expect("class");
        let row = class.class().table.get(&b.loid).expect("row");
        assert_eq!(row.current_magistrates, vec![doe_magistrate]);
        assert_eq!(runs_on(&k, doe_mag_ep, &b.loid), doe_host);
        println!("  -> {} on {doe_magistrate}, host {doe_host}", b.loid);
    }
    let grad = k.endpoint::<MagistrateEndpoint>(grad_mag_ep);
    let held = grad.expect("magistrate").object_count();
    assert_eq!(held, 0, "a DOE object reached the grad magistrate");

    // A class the DOE does not own cannot place objects with it: its
    // round-robin puts the first object on the grad Magistrate and asks
    // the DOE one for the second, which refuses. A refused Create leaves
    // no row behind.
    println!("[campus class] Create() twice, round-robin over grad and DOE magistrates:");
    let mut created = 0;
    for _ in 0..2 {
        let method = class_proto::CREATE;
        match request(
            &mut k,
            probe,
            campus_class_ep,
            campus_class,
            method,
            vec![],
            grad_student,
        ) {
            Ok(LegionValue::Binding(b)) => {
                assert_eq!(runs_on(&k, grad_mag_ep, &b.loid), grad_host);
                created += 1;
                println!("  -> {} placed with {grad_magistrate}", b.loid);
            }
            Err(e) => {
                assert!(
                    e.contains("MayI refused"),
                    "refused for the wrong reason: {e}"
                );
                println!("  -> REFUSED by {doe_magistrate}: {e}");
            }
            Ok(v) => panic!("unexpected Create reply: {v}"),
        }
    }
    assert_eq!(created, 1);
    let ping = obj_methods::PING;
    let rows = request(
        &mut k,
        probe,
        campus_class_ep,
        campus_class,
        ping,
        vec![],
        grad_student,
    );
    assert_eq!(
        rows,
        Ok(LegionValue::Uint(1)),
        "the refused Create left a row"
    );

    // And the certified host itself refuses direct commands from anyone
    // but its Magistrate — even a well-formed activation spec.
    println!("[grad-student] tries to bypass the magistrate and talk to the DOE host directly:");
    let args = spec(Loid::instance(1000, 902), None);
    let activate = host_proto::ACTIVATE;
    match request(
        &mut k,
        probe,
        doe_host_ep,
        doe_host,
        activate,
        args,
        grad_student,
    ) {
        Err(e) => {
            assert!(
                e.contains("not my magistrate"),
                "refused for the wrong reason: {e}"
            );
            println!("  -> REFUSED by the host: {e}");
        }
        Ok(v) => panic!("the DOE host obeyed a grad student: {v}"),
    }

    let (mag_refused, host_refused) = (
        k.counters().get("magistrate.refused"),
        k.counters().get("host.refused"),
    );
    assert_eq!((mag_refused, host_refused), (2, 1));
    println!("\nrefusals recorded: magistrate={mag_refused}, host={host_refused}");
}
