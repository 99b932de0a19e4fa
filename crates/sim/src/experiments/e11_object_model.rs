//! E11 — object-model operation costs (paper §2.1).
//!
//! `Create()`, `Derive()`, and `InheritFrom()` are the primitive
//! operations every Legion program is built from, and inheritance is "an
//! active process that is carried out at run-time" — so what it costs in
//! messages and time matters. Measured on the live class endpoints of a
//! `LegionSystem`, over the wire: virtual latency and messages per
//! operation, and the interface the last class of each row ends with.
//!
//! * `Create()` on one user class;
//! * `Derive()` down a chain, each subclass derived from the last and
//!   given one method of its own;
//! * `InheritFrom()` of a fan of sibling bases, each with one method,
//!   into one sink class that finds each base through its Binding Agent.
//!
//! A method is declared on a live class by editing its `ClassObject`
//! between calls, as a class's IDL would at start-up: no message. The
//! system is one jurisdiction, so every hop is a LAN hop; E7 measures
//! what a WAN hop adds.

use crate::report::{ns, Table};
use crate::system::{LegionSystem, SystemConfig};
use legion_core::binding::Binding;
use legion_core::interface::{MethodSignature, ParamType};
use legion_core::symbol::Sym;
use legion_core::value::LegionValue;
use legion_net::metrics::Histogram;
use legion_net::sim::EndpointId;
use legion_runtime::class_endpoint::ClassEndpoint;
use legion_runtime::protocol::class as class_proto;

/// Aggregate for one operation type.
#[derive(Debug, Clone)]
pub struct Row {
    /// What was measured.
    pub op: String,
    /// Samples.
    pub n: u64,
    /// Virtual latency distribution (ns).
    pub latency: Histogram,
    /// Mean messages per operation.
    pub msgs_per_op: f64,
    /// Methods in the interface of the row's last class, at the end.
    pub interface_methods: usize,
}

/// The class endpoint a class binding names.
fn endpoint(b: &Binding) -> EndpointId {
    EndpointId(
        b.address
            .primary()
            .and_then(|e| e.sim_endpoint())
            .expect("a class binding names a simulated endpoint"),
    )
}

fn class_endpoint<'s>(sys: &'s mut LegionSystem, b: &Binding) -> &'s mut ClassEndpoint {
    sys.kernel
        .endpoint_mut::<ClassEndpoint>(endpoint(b))
        .expect("a live class endpoint")
}

/// Declare a method called `name` on the class `b` names.
fn define(sys: &mut LegionSystem, b: &Binding, name: String) {
    class_endpoint(sys, b)
        .class_mut()
        .interface
        .define(MethodSignature::new(name, vec![], ParamType::Void), b.loid);
}

/// Call `method` on the class `to` names, timed from the send to the
/// reply, and count every message the call caused.
fn measure(
    sys: &mut LegionSystem,
    row: &mut Row,
    to: &Binding,
    method: Sym,
    args: Vec<LegionValue>,
) -> LegionValue {
    let m0 = sys.kernel.stats().sent;
    let (reply, latency) = sys.timed_call(endpoint(to).element(), to.loid, method, args);
    row.latency.record(latency);
    row.msgs_per_op += (sys.kernel.stats().sent - m0) as f64;
    row.n += 1;
    reply.unwrap_or_else(|e| panic!("{}: {e}", row.op))
}

/// `parent.Derive(name)`, returning the new class's binding.
fn derive(sys: &mut LegionSystem, row: &mut Row, parent: &Binding, name: String) -> Binding {
    let args = vec![LegionValue::Str(name)];
    match measure(sys, row, parent, class_proto::DERIVE, args) {
        LegionValue::Binding(b) => *b,
        v => panic!("Derive replied {v}"),
    }
}

fn row(op: String) -> Row {
    Row {
        op,
        n: 0,
        latency: Histogram::new(),
        msgs_per_op: 0.0,
        interface_methods: 0,
    }
}

/// Run `creates` Creates, a Derive chain `depth` deep and an InheritFrom
/// fan `fan` wide on one system.
pub fn run(creates: u64, depth: u32, fan: u32, seed: u64) -> Vec<Row> {
    let cfg = SystemConfig {
        jurisdictions: 1,
        hosts_per_jurisdiction: 2,
        host_capacity: 4096,
        classes: 1,
        objects_per_class: 0,
        seed,
        ..SystemConfig::default()
    };
    let mut sys = LegionSystem::build(cfg);
    let (class_loid, class_ep) = sys.classes[0];
    let user_class = Binding::forever(
        class_loid,
        legion_core::address::ObjectAddress::single(class_ep.element()),
    );

    let mut create = row("Create()".into());
    for _ in 0..creates {
        measure(
            &mut sys,
            &mut create,
            &user_class,
            class_proto::CREATE,
            vec![],
        );
    }

    let mut chain = row(format!("Derive(), chain depth {depth}"));
    let mut last = user_class.clone();
    for d in 0..depth {
        last = derive(&mut sys, &mut chain, &last, format!("D{d}"));
        define(&mut sys, &last, format!("m{d}"));
    }

    // The sink and its bases are siblings: the sink's own table holds
    // none of them, so each InheritFrom resolves its base through the
    // Binding Agent. Their Derives are measured into a row nobody reads.
    let mut unread = row(String::new());
    let sink = derive(&mut sys, &mut unread, &user_class, "Sink".into());
    let bases: Vec<Binding> = (0..fan)
        .map(|b| {
            let base = derive(&mut sys, &mut unread, &user_class, format!("B{b}"));
            define(&mut sys, &base, format!("b{b}"));
            base
        })
        .collect();
    let mut inherit = row(format!("InheritFrom(), fan {fan}"));
    for base in &bases {
        let args = vec![LegionValue::Loid(base.loid)];
        measure(
            &mut sys,
            &mut inherit,
            &sink,
            class_proto::INHERIT_FROM,
            args,
        );
    }

    let mut rows = Vec::new();
    for (mut r, class) in [(create, user_class), (chain, last), (inherit, sink)] {
        r.msgs_per_op /= r.n.max(1) as f64;
        r.interface_methods = class_endpoint(&mut sys, &class).class().interface.len();
        rows.push(r);
    }
    rows
}

/// What `legion-exp e11` prints.
pub fn tables(quick: bool, seed: u64) -> Vec<Table> {
    let rows = if quick {
        run(200, 20, 10, seed)
    } else {
        run(2_000, 200, 100, seed)
    };
    vec![table(&rows)]
}

/// Render the EXPERIMENTS.md table.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "E11: object-model operations on live class objects (§2.1)",
        &[
            "operation",
            "n",
            "p50-latency",
            "p99-latency",
            "msgs/op",
            "iface-methods",
        ],
    );
    for r in rows {
        t.row(vec![
            r.op.clone(),
            r.n.to_string(),
            ns(r.latency.quantile(0.5)),
            ns(r.latency.quantile(0.99)),
            format!("{:.1}", r.msgs_per_op),
            r.interface_methods.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_ops_complete_and_compose() {
        let rows = run(20, 12, 6, 71);
        let [create, chain, fan] = &rows[..] else {
            panic!("three rows: {rows:?}");
        };
        assert_eq!((create.n, chain.n, fan.n), (20, 12, 6));
        // The chain's last class has every level's method, the sink every
        // base's, over the user class's own interface.
        let own = create.interface_methods;
        assert_eq!(chain.interface_methods, own + 12, "{chain:?}");
        assert_eq!(fan.interface_methods, own + 6, "{fan:?}");
        // A base is found through the Binding Agent, then asked for its
        // interface: more messages than a Derive's one LegionClass call.
        assert!(fan.msgs_per_op > chain.msgs_per_op, "{rows:?}");
        assert!(chain.msgs_per_op >= 4.0, "{chain:?}");
    }
}
