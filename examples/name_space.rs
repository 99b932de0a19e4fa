//! The single persistent name space, end to end (paper §1, §4.1):
//! human string names → context → LOID → Binding Agent → Object Address →
//! method invocation.
//!
//! "Legion provides ... a single persistent name space [that] unites the
//! objects in the Legion system. This makes remote files and data more
//! easily accessible." A context object maps paths like
//! `/campus-a/datasets/genome` to LOIDs; the usual §4.1 machinery does
//! the rest.
//!
//! ```text
//! cargo run --example name_space
//! ```

use legion::core::loid::Loid;
use legion::core::value::LegionValue;
use legion::naming::protocol::GET_BINDING;
use legion::net::sim::EndpointId;
use legion::net::topology::Location;
use legion::runtime::context_endpoint::{methods as cx, ContextEndpoint};
use legion::runtime::protocol::{class as class_proto, object as obj_proto};
use legion::sim::system::{agent_loid, LegionSystem, SystemConfig};

fn main() {
    let mut sys = LegionSystem::build(SystemConfig {
        jurisdictions: 2,
        objects_per_class: 0,
        ..SystemConfig::default()
    });

    // A context object — itself a Legion object running on the grid.
    let context_loid = Loid::instance(60, 1);
    let context = sys.kernel.add_endpoint(
        Box::new(ContextEndpoint::new(context_loid)),
        Location::new(0, 70),
        "context:/",
    );

    // Create three datasets and bind human names to them.
    let (class_loid, class_ep) = sys.classes[0];
    let names = [
        "campus-a/datasets/genome",
        "campus-a/datasets/climate",
        "campus-b/scratch/tmp042",
    ];
    println!("binding names:");
    let mut bound = Vec::new();
    for name in names {
        let b = sys
            .call_for_binding(class_ep.element(), class_loid, class_proto::CREATE, vec![])
            .expect("create");
        sys.call(
            context.element(),
            context_loid,
            cx::BIND_NAME,
            vec![LegionValue::Str(name.into()), LegionValue::Loid(b.loid)],
        )
        .expect("bind name");
        println!("  /{name} -> {}", b.loid);
        bound.push((name, b.loid));
    }

    // A user somewhere else knows only the string name. Every name
    // resolves to the LOID it was bound to; an unbound one to nothing.
    let mut lookup = |name: &str| {
        sys.call(
            context.element(),
            context_loid,
            cx::LOOKUP_NAME,
            vec![LegionValue::Str(name.into())],
        )
    };
    for (name, loid) in &bound {
        assert_eq!(lookup(name), Ok(LegionValue::Loid(*loid)), "/{name}");
    }
    let missing = lookup("campus-b/scratch/nothing-here");
    assert!(missing.is_err(), "an unbound name resolved: {missing:?}");
    let (wanted, loid) = bound[0];
    println!("\nlookup /{wanted} -> {loid}");

    // LOID → Object Address through the Binding Agent (Fig. 17)...
    let agent = sys.leaf_agent_for(1);
    let binding = sys
        .call_for_binding(
            agent.element(),
            agent_loid(0),
            GET_BINDING,
            vec![LegionValue::Loid(loid)],
        )
        .expect("binding resolution");
    assert_eq!(binding.loid, loid);
    println!("bind   {loid} -> {}", binding.address);

    // ...and invoke.
    let el = *binding.address.primary().expect("address");
    sys.call(
        el,
        loid,
        obj_proto::SET,
        vec![
            LegionValue::Str("title".into()),
            LegionValue::Str("E. coli K-12".into()),
        ],
    )
    .expect("set");
    let title = sys
        .call(
            el,
            loid,
            obj_proto::GET,
            vec![LegionValue::Str("title".into())],
        )
        .expect("get");
    assert_eq!(title, LegionValue::Str("E. coli K-12".into()));
    println!("invoke Get(\"title\") = {title}");

    // The whole directory: exactly the names bound above, in path order.
    println!("\nthe name space:");
    bound.sort();
    let pair = |(name, loid): &(&str, Loid)| {
        LegionValue::List(vec![
            LegionValue::Str(name.to_string()),
            LegionValue::Loid(*loid),
        ])
    };
    let listed = sys.call(context.element(), context_loid, cx::LIST_NAMES, vec![]);
    assert_eq!(
        listed,
        Ok(LegionValue::List(bound.iter().map(pair).collect()))
    );
    for (name, loid) in &bound {
        println!("  /{name} -> {loid}");
    }
    let ep = EndpointId(el.sim_endpoint().unwrap());
    println!(
        "\nthe dataset runs in jurisdiction {} — the name never said so (location transparency)",
        sys.kernel.meta(ep).unwrap().location.jurisdiction
    );
}
