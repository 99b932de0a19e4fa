//! The inheritance machinery (paper §2.1): Derive, InheritFrom, Abstract/
//! Private/Fixed classes, multiple inheritance and the IDL — on live
//! class objects, every operation a call over the simulated network.
//!
//! Rebuilds the paper's Figure 8 host hierarchy by `Derive`, then
//! exercises every rule in §2.1.1–§2.1.2.
//!
//! ```text
//! cargo run --example class_zoo
//! ```

use legion::core::address::ObjectAddress;
use legion::core::binding::Binding;
use legion::core::class::ClassObject;
use legion::core::idl;
use legion::core::interface::{MethodSignature, ParamType};
use legion::core::value::LegionValue;
use legion::core::wellknown::{LEGION_CLASS, LEGION_HOST};
use legion::net::sim::EndpointId;
use legion::runtime::class_endpoint::ClassEndpoint;
use legion::runtime::protocol::class as class_proto;
use legion::sim::system::{LegionSystem, SystemConfig};

fn endpoint(b: &Binding) -> EndpointId {
    EndpointId(b.address.primary().and_then(|e| e.sim_endpoint()).unwrap())
}

/// The class object behind a live class endpoint.
fn class<'s>(sys: &'s LegionSystem, b: &Binding) -> &'s ClassObject {
    sys.kernel
        .endpoint::<ClassEndpoint>(endpoint(b))
        .unwrap()
        .class()
}

/// Declare a method on a live class, as its IDL would at start-up.
fn define(sys: &mut LegionSystem, b: &Binding, sig: MethodSignature) {
    let ep = sys
        .kernel
        .endpoint_mut::<ClassEndpoint>(endpoint(b))
        .unwrap();
    ep.class_mut().interface.define(sig, b.loid);
}

/// `parent.Derive(name, flags)` over the wire.
fn derive(
    sys: &mut LegionSystem,
    parent: &Binding,
    name: &str,
    flags: &str,
) -> Result<Binding, String> {
    let args = vec![LegionValue::from(name), LegionValue::from(flags)];
    sys.call_for_binding(
        endpoint(parent).element(),
        parent.loid,
        class_proto::DERIVE,
        args,
    )
}

/// `class.InheritFrom(base)` over the wire.
fn inherit(sys: &mut LegionSystem, class: &Binding, base: &Binding) -> Result<LegionValue, String> {
    let args = vec![LegionValue::Loid(base.loid)];
    sys.call(
        endpoint(class).element(),
        class.loid,
        class_proto::INHERIT_FROM,
        args,
    )
}

fn main() {
    // §4.2.1: the core Abstract classes come up exactly once; one user
    // class has Magistrates to create with and a Binding Agent to find
    // other classes through.
    let mut sys = LegionSystem::build(SystemConfig {
        objects_per_class: 0,
        ..SystemConfig::default()
    });
    let (user_loid, user_ep) = sys.classes[0];
    let user = Binding::forever(user_loid, ObjectAddress::single(user_ep.element()));
    let legion_host = Binding::forever(
        LEGION_HOST,
        ObjectAddress::single(sys.core.legion_host.element()),
    );

    // ---- Figure 8: the Host class hierarchy, by Derive() ----------------
    let unix_host = derive(&mut sys, &legion_host, "UnixHost", "").unwrap();
    let spmd_host = derive(&mut sys, &legion_host, "SPMDHost", "").unwrap();
    let unix_smmp = derive(&mut sys, &unix_host, "UnixSMMP", "").unwrap();
    let cm5 = derive(&mut sys, &spmd_host, "CM-5", "").unwrap();
    let cray = derive(&mut sys, &spmd_host, "CrayT3D", "").unwrap();
    let known = [
        &legion_host,
        &unix_host,
        &spmd_host,
        &unix_smmp,
        &cm5,
        &cray,
    ];
    println!("Figure 8 hierarchy (each class a live endpoint):");
    for c in &known[1..] {
        let mut names = vec![class(&sys, c).name.clone()];
        let mut up = class(&sys, c).superclass;
        while let Some(sup) = up {
            match known.iter().find(|b| b.loid == sup) {
                Some(b) => {
                    names.push(class(&sys, b).name.clone());
                    up = class(&sys, b).superclass;
                }
                None => {
                    assert_eq!(sup, LEGION_CLASS);
                    names.push("LegionClass".into());
                    up = None;
                }
            }
        }
        println!("  {}", names.join(" kind-of "));
    }
    // LegionHost's table has a row for each of its two subclasses beside
    // the announced Host Objects: it is responsible for locating them.
    let rows = class(&sys, &legion_host).table.iter();
    assert_eq!(rows.filter(|(_, row)| row.is_subclass).count(), 2);

    // ---- §2.1.2: Abstract, Private, Fixed -------------------------------
    println!("\nspecial class kinds (§2.1.2):");
    let create = |sys: &mut LegionSystem, c: &Binding| {
        sys.call(endpoint(c).element(), c.loid, class_proto::CREATE, vec![])
    };
    let abstract_c = derive(&mut sys, &user, "AbstractThing", "abstract").unwrap();
    let refused = create(&mut sys, &abstract_c).unwrap_err();
    println!("  Abstract: Create() -> {refused}");
    let private_c = derive(&mut sys, &user, "PrivateThing", "private").unwrap();
    let refused = derive(&mut sys, &private_c, "Nope", "").unwrap_err();
    let created = create(&mut sys, &private_c).is_ok();
    println!("  Private:  Derive() -> {refused}; Create() ok = {created}");
    assert!(created);
    let fixed_c = derive(&mut sys, &user, "FixedThing", "fixed").unwrap();
    let some_base = derive(&mut sys, &user, "SomeBase", "").unwrap();
    let refused = inherit(&mut sys, &fixed_c, &some_base).unwrap_err();
    println!("  Fixed:    InheritFrom() -> {refused}");

    // ---- §2.1: two-step multiple inheritance ----------------------------
    println!("\nmultiple inheritance (§2.1, two steps):");
    // Step 1: Derive. Step 2: InheritFrom two independent bases, each
    // found through the Binding Agent and asked for its interface.
    let worker = derive(&mut sys, &user, "Worker", "").unwrap();
    let printable = derive(&mut sys, &user, "Printable", "").unwrap();
    let idl_text = "interface Printable { void Print(string target); int PageCount(); };";
    for sig in idl::parse_one(idl_text).unwrap().methods {
        define(&mut sys, &printable, sig);
    }
    let persistent = derive(&mut sys, &user, "Persistent", "").unwrap();
    let checkpoint = MethodSignature::new(
        "Checkpoint",
        vec![("dest", ParamType::Str)],
        ParamType::Bool,
    );
    define(&mut sys, &persistent, checkpoint);
    inherit(&mut sys, &worker, &printable).unwrap();
    inherit(&mut sys, &worker, &persistent).unwrap();
    println!("  Worker inherits-from Printable, Persistent");
    let text = sys
        .call(
            endpoint(&worker).element(),
            worker.loid,
            class_proto::GET_INSTANCE_INTERFACE,
            vec![],
        )
        .unwrap();
    let LegionValue::Str(text) = text else {
        panic!("GetInstanceInterface replied {text}")
    };
    println!(
        "  Worker's instances get ({} methods):",
        class(&sys, &worker).interface.len()
    );
    print!("{text}");

    // Conflicting bases are refused whole; an own redefinition shadows both.
    let clash_a = derive(&mut sys, &user, "ClashA", "").unwrap();
    let clash_b = derive(&mut sys, &user, "ClashB", "").unwrap();
    define(
        &mut sys,
        &clash_a,
        MethodSignature::new("Size", vec![], ParamType::Int),
    );
    define(
        &mut sys,
        &clash_b,
        MethodSignature::new("Size", vec![], ParamType::Str),
    );
    let chooser = derive(&mut sys, &user, "Chooser", "").unwrap();
    inherit(&mut sys, &chooser, &clash_a).unwrap();
    let refused = inherit(&mut sys, &chooser, &clash_b).unwrap_err();
    println!("\n  conflicting base refused: {refused}");
    define(
        &mut sys,
        &chooser,
        MethodSignature::new("Size", vec![], ParamType::Uint),
    );
    inherit(&mut sys, &chooser, &clash_b).unwrap();
    let size = class(&sys, &chooser).interface.get("Size").unwrap().returns;
    println!("  after own redefinition, both bases accepted; Size() returns {size}");
    assert_eq!(size, ParamType::Uint);

    // A base that already inherits from the caller is a cycle (§2.1.1):
    // Worker reports Printable among the classes it inherits from.
    let refused = inherit(&mut sys, &printable, &worker).unwrap_err();
    println!("  cycle refused: {refused}");

    // No "late base method propagates" step: an InheritFrom copies the
    // base's interface when it runs, and future instances "reflect the way
    // the class was defined in the inheritance process" (§2.1). A method
    // Printable gains now reaches Worker only by a new InheritFrom.

    println!(
        "\nvirtual time elapsed: {}   messages sent: {}",
        sys.kernel.now(),
        sys.kernel.stats().sent
    );
}
