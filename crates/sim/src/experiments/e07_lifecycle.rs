//! E7 — activation, deactivation, migration (paper §3.1, Figure 11).
//!
//! Measures virtual latency and message cost of every lifecycle
//! transition: Create, Deactivate (SaveState → OPR → host kill), Activate
//! from Inert (OPR load → HostActivate), intra-system reactivation via
//! `GetBinding`, and cross-jurisdiction Copy and Move (ship the OPR to the
//! peer Magistrate — Fig. 11's migrate-through-storage path).

use crate::report::{ns, Table};
use crate::system::{magistrate_loid, LegionSystem, SystemConfig};

use legion_core::value::LegionValue;
use legion_naming::protocol::GET_BINDING;
use legion_net::metrics::Histogram;
use legion_runtime::protocol::{class as class_proto, magistrate as mag_proto};

/// Aggregate for one operation type.
#[derive(Debug, Clone)]
pub struct Row {
    /// Operation name.
    pub op: &'static str,
    /// Samples.
    pub n: u64,
    /// Virtual latency distribution (ns).
    pub latency: Histogram,
    /// Mean messages per operation.
    pub msgs_per_op: f64,
}

/// Run `n` samples of each lifecycle transition.
pub fn run(n: u64, seed: u64) -> Vec<Row> {
    let cfg = SystemConfig {
        jurisdictions: 2,
        hosts_per_jurisdiction: 2,
        host_capacity: 4096,
        classes: 1,
        objects_per_class: 0,
        seed,
        ..SystemConfig::default()
    };
    let mut sys = LegionSystem::build(cfg);
    let (class_loid, class_ep) = sys.classes[0];

    let mut rows: Vec<Row> = ["Create", "Deactivate", "GetBinding(inert)", "Copy", "Move"]
        .iter()
        .map(|op| Row {
            op,
            n: 0,
            latency: Histogram::new(),
            msgs_per_op: 0.0,
        })
        .collect();
    let mut msg_totals = [0u64; 5];

    let mut timed = |sys: &mut LegionSystem,
                     idx: usize,
                     rows: &mut Vec<Row>,
                     f: &mut dyn FnMut(&mut LegionSystem)| {
        let t0 = sys.kernel.now();
        let m0 = sys.kernel.stats().sent;
        f(sys);
        rows[idx]
            .latency
            .record(sys.kernel.now().saturating_since(t0));
        rows[idx].n += 1;
        msg_totals[idx] += sys.kernel.stats().sent - m0;
    };

    for i in 0..n {
        // Create (lands on magistrate i%2 via round robin).
        let mut created = None;
        timed(&mut sys, 0, &mut rows, &mut |sys| {
            let b = sys
                .call_for_binding(class_ep.element(), class_loid, class_proto::CREATE, vec![])
                .expect("create");
            created = Some(b);
        });
        let obj = created.expect("created").loid;
        let home = magistrate_loid((i % 2) as u32);
        let home_ep = sys
            .magistrates
            .iter()
            .find(|(l, _)| *l == home)
            .map(|(_, e)| *e)
            .expect("magistrate");

        // Deactivate.
        timed(&mut sys, 1, &mut rows, &mut |sys| {
            sys.call(
                home_ep.element(),
                home,
                mag_proto::DEACTIVATE,
                vec![LegionValue::Loid(obj)],
            )
            .expect("deactivate");
        });

        // GetBinding on the Inert object — the §4.1.2 implicit activation.
        timed(&mut sys, 2, &mut rows, &mut |sys| {
            sys.call_for_binding(
                class_ep.element(),
                class_loid,
                GET_BINDING,
                vec![LegionValue::Loid(obj)],
            )
            .expect("reactivation");
        });

        // Copy to the other jurisdiction.
        let other = magistrate_loid(((i + 1) % 2) as u32);
        timed(&mut sys, 3, &mut rows, &mut |sys| {
            sys.call(
                home_ep.element(),
                home,
                mag_proto::COPY,
                vec![LegionValue::Loid(obj), LegionValue::Loid(other)],
            )
            .expect("copy");
        });

        // Move back home-to-other (object is Inert after Copy's
        // deactivation): full migration.
        timed(&mut sys, 4, &mut rows, &mut |sys| {
            sys.call(
                home_ep.element(),
                home,
                mag_proto::MOVE,
                vec![LegionValue::Loid(obj), LegionValue::Loid(other)],
            )
            .expect("move");
        });
    }

    for (i, r) in rows.iter_mut().enumerate() {
        r.msgs_per_op = if r.n == 0 {
            0.0
        } else {
            msg_totals[i] as f64 / r.n as f64
        };
    }
    rows
}

/// What `legion-exp e7` prints.
pub fn tables(quick: bool, seed: u64) -> Vec<Table> {
    let n = if quick { 6 } else { 20 };
    vec![table(&run(n, seed))]
}

/// Render the EXPERIMENTS.md table.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "E7: lifecycle transitions (§3.1, Fig. 11)",
        &["operation", "n", "p50-latency", "p99-latency", "msgs/op"],
    );
    for r in rows {
        t.row(vec![
            r.op.to_string(),
            r.n.to_string(),
            ns(r.latency.quantile(0.5)),
            ns(r.latency.quantile(0.99)),
            format!("{:.1}", r.msgs_per_op),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_transitions_complete_and_migration_costs_wan() {
        let rows = run(6, 71);
        for r in &rows {
            assert_eq!(r.n, 6, "{} must complete all samples", r.op);
            assert!(r.msgs_per_op > 0.0);
        }
        // Copy/Move cross jurisdictions: they pay at least one WAN hop and
        // must be slower than a same-jurisdiction deactivate.
        let deact = rows[1].latency.quantile(0.5);
        let mv = rows[4].latency.quantile(0.5);
        assert!(mv > deact, "Move ({mv}) must exceed Deactivate ({deact})");
    }
}
