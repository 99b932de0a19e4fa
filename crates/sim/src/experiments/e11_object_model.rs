//! E11 — object-model operation costs (paper §2.1).
//!
//! `Create()`, `Derive()`, and `InheritFrom()` are the primitive
//! operations every Legion program is built from, and inheritance is "an
//! active process that is carried out at run-time" — so its cost matters.
//! Measured at the model layer: wall-clock per operation and effective
//! interface sizes as multiple inheritance deepens/widens.

use crate::report::Table;
use legion_core::class::ClassKind;
use legion_core::interface::{MethodSignature, ParamType};
use legion_core::model::ObjectModel;
use legion_core::wellknown::LEGION_CLASS;
use std::time::Instant;

/// One measurement.
#[derive(Debug, Clone)]
pub struct Row {
    /// What was measured.
    pub what: String,
    /// Operations performed.
    pub ops: u64,
    /// Wall-clock ns per operation.
    pub ns_per_op: f64,
    /// Effective interface size at the end (methods).
    pub interface_methods: usize,
}

/// Run the measurements.
pub fn run(n: u64) -> Vec<Row> {
    let mut rows = Vec::new();

    // Create() throughput on one class.
    {
        let mut m = ObjectModel::bootstrap();
        let c = m
            .derive(LEGION_CLASS, "Flat", ClassKind::NORMAL)
            .expect("derive");
        let t0 = Instant::now();
        for _ in 0..n {
            m.create(c).expect("create");
        }
        rows.push(Row {
            what: "Create()".into(),
            ops: n,
            ns_per_op: t0.elapsed().as_nanos() as f64 / n as f64,
            interface_methods: m.class(&c).expect("exists").interface.len(),
        });
    }

    // Derive() down a chain, one method per level.
    {
        let mut m = ObjectModel::bootstrap();
        let depth = (n.min(200)) as u32;
        let mut cur = LEGION_CLASS;
        let t0 = Instant::now();
        for d in 0..depth {
            cur = m
                .derive(cur, format!("D{d}"), ClassKind::NORMAL)
                .expect("derive");
            m.define_method(
                cur,
                MethodSignature::new(format!("m{d}"), vec![], ParamType::Void),
            )
            .expect("define");
        }
        rows.push(Row {
            what: format!("Derive()+define, chain depth {depth}"),
            ops: depth as u64,
            ns_per_op: t0.elapsed().as_nanos() as f64 / depth.max(1) as f64,
            interface_methods: m.class(&cur).expect("exists").interface.len(),
        });
        m.verify().expect("consistent");
    }

    // InheritFrom() fan: one class absorbing many bases.
    {
        let mut m = ObjectModel::bootstrap();
        let fan = (n.min(100)) as u32;
        let sink = m
            .derive(LEGION_CLASS, "Sink", ClassKind::NORMAL)
            .expect("derive");
        let mut bases = Vec::new();
        for b in 0..fan {
            let base = m
                .derive(LEGION_CLASS, format!("B{b}"), ClassKind::NORMAL)
                .expect("derive");
            m.define_method(
                base,
                MethodSignature::new(format!("b{b}"), vec![], ParamType::Void),
            )
            .expect("define");
            bases.push(base);
        }
        let t0 = Instant::now();
        for base in &bases {
            m.inherit_from(sink, *base).expect("inherit");
        }
        rows.push(Row {
            what: format!("InheritFrom(), fan {fan}"),
            ops: fan as u64,
            ns_per_op: t0.elapsed().as_nanos() as f64 / fan.max(1) as f64,
            interface_methods: m.class(&sink).expect("exists").interface.len(),
        });
        m.verify().expect("consistent");
    }

    rows
}

/// What `legion-exp e11` prints.
pub fn tables(quick: bool, _seed: u64) -> Vec<Table> {
    let n = if quick { 1_000 } else { 20_000 };
    vec![table(&run(n))]
}

/// Render the EXPERIMENTS.md table.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "E11: object-model operation costs (§2.1)",
        &["operation", "ops", "ns/op", "iface-methods"],
    );
    for r in rows {
        t.row(vec![
            r.what.clone(),
            r.ops.to_string(),
            format!("{:.0}", r.ns_per_op),
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
        let rows = run(500);
        assert_eq!(rows.len(), 3);
        // The chain class accumulated one method per level plus the
        // mandatory sets.
        let chain = &rows[1];
        assert!(chain.interface_methods > 100, "{chain:?}");
        let fan = &rows[2];
        assert!(fan.interface_methods > 50, "{fan:?}");
    }
}
