//! E5 — locating the responsible class (paper §4.1.3).
//!
//! "The binding process may need to be repeated in order to locate C, and
//! again to locate C's superclass, and so on ... the process can end when
//! the responsible class is LegionClass itself. While this process may
//! seem to scale poorly, extensive caching of both bindings and
//! 'responsibility pairs' ensures that the vast majority of accesses
//! occurs locally."
//!
//! Build derivation chains of growing depth through the *live* `Derive`
//! protocol, then resolve an instance of the deepest class twice: cold
//! (empty agent cache) and warm. Cold cost grows with depth; warm cost is
//! depth-independent.

use crate::report::Table;
use crate::system::{LegionSystem, SystemConfig};
use legion_core::loid::Loid;
use legion_core::value::LegionValue;
use legion_naming::agent::{AgentConfig, BindingAgentEndpoint};
use legion_naming::protocol::GET_BINDING;
use legion_net::sim::EndpointId;
use legion_net::topology::Location;
use legion_runtime::protocol::class as class_proto;

/// One depth point.
#[derive(Debug, Clone)]
pub struct Row {
    /// Derivation depth below the root user class.
    pub depth: u32,
    /// Messages for the cold resolution.
    pub cold_msgs: u64,
    /// LegionClass requests during the cold resolution.
    pub cold_legion_class: u64,
    /// Messages for the warm (cached) resolution.
    pub warm_msgs: u64,
    /// LegionClass requests during the warm resolution.
    pub warm_legion_class: u64,
}

/// Run the sweep.
pub fn run(max_depth: u32, seed: u64) -> Vec<Row> {
    let cfg = SystemConfig {
        jurisdictions: 2,
        classes: 1,
        objects_per_class: 1,
        seed,
        ..SystemConfig::default()
    };
    let mut sys = LegionSystem::build(cfg);

    // Build the derivation chain via live Derive; remember each class.
    let (root_loid, root_ep) = sys.classes[0];
    let mut chain: Vec<(Loid, EndpointId)> = vec![(root_loid, root_ep)];
    for d in 0..max_depth {
        let (parent_loid, parent_ep) = *chain.last().expect("chain nonempty");
        let b = sys
            .call_for_binding(
                parent_ep.element(),
                parent_loid,
                class_proto::DERIVE,
                vec![LegionValue::Str(format!("Depth{d}"))],
            )
            .expect("derive succeeds");
        let ep = EndpointId(
            b.address
                .primary()
                .and_then(|e| e.sim_endpoint())
                .expect("sim element"),
        );
        chain.push((b.loid, ep));
    }

    let mut rows = Vec::new();
    for depth in 1..=max_depth {
        let (class_loid, class_ep) = chain[depth as usize];
        // Create an instance of the class at this depth.
        let inst = sys
            .call_for_binding(class_ep.element(), class_loid, class_proto::CREATE, vec![])
            .expect("create succeeds")
            .loid;

        // A *fresh* agent per depth gives a genuinely cold cache.
        let agent_cfg = AgentConfig::root(
            Loid::instance(5, 100 + depth as u64),
            sys.core.legion_class_element(),
        );
        let agent = sys.kernel.add_endpoint(
            Box::new(BindingAgentEndpoint::new(agent_cfg)),
            Location::new(0, 300 + depth),
            format!("cold-agent{depth}"),
        );
        sys.kernel.run_until_quiescent(1000);

        let resolve = |sys: &mut LegionSystem| -> (u64, u64) {
            let msgs0 = sys.kernel.stats().sent;
            let lc0 = sys.legion_class_load();
            sys.call_for_binding(
                agent.element(),
                inst.class_loid(),
                GET_BINDING,
                vec![LegionValue::Loid(inst)],
            )
            .expect("resolution succeeds");
            (
                sys.kernel.stats().sent - msgs0,
                sys.legion_class_load() - lc0,
            )
        };
        let (cold_msgs, cold_lc) = resolve(&mut sys);
        let (warm_msgs, warm_lc) = resolve(&mut sys);
        rows.push(Row {
            depth,
            cold_msgs,
            cold_legion_class: cold_lc,
            warm_msgs,
            warm_legion_class: warm_lc,
        });
    }
    rows
}

/// What `legion-exp e5` prints.
pub fn tables(quick: bool, seed: u64) -> Vec<Table> {
    let max_depth = if quick { 4 } else { 6 };
    vec![table(&run(max_depth, seed))]
}

/// Render the EXPERIMENTS.md table.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "E5: responsible-class location vs derivation depth (§4.1.3)",
        &[
            "depth",
            "cold-msgs",
            "cold-LC-reqs",
            "warm-msgs",
            "warm-LC-reqs",
        ],
    );
    for r in rows {
        t.row(vec![
            r.depth.to_string(),
            r.cold_msgs.to_string(),
            r.cold_legion_class.to_string(),
            r.warm_msgs.to_string(),
            r.warm_legion_class.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_cost_grows_warm_cost_flat() {
        let rows = run(4, 51);
        assert_eq!(rows.len(), 4);
        // Cold resolution cost grows with depth (longer responsibility
        // chains)...
        assert!(
            rows[3].cold_msgs > rows[0].cold_msgs,
            "deeper chains cost more cold: {rows:?}"
        );
        // ...but the warm path is depth-independent and LegionClass-free:
        // "the vast majority of accesses occurs locally."
        for r in &rows {
            assert_eq!(
                r.warm_legion_class, 0,
                "warm lookups bypass LegionClass: {r:?}"
            );
            assert!(r.warm_msgs <= 2, "warm lookup is one round trip: {r:?}");
            assert!(r.cold_legion_class >= 1);
        }
    }
}
