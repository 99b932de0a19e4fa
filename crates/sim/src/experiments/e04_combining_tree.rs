//! E4 — the combining tree shields LegionClass (paper §5.2.2).
//!
//! "By constructing a k-ary tree of Binding Agents, eliminating traffic
//! from 'leaf' Binding Agents to LegionClass, we can arbitrarily reduce
//! the load placed on LegionClass."
//!
//! Fixed clients and classes; the agent layer is either a *forest* of
//! independent roots (no combining — the baseline) or a k-ary tree.
//! Measured: requests arriving at LegionClass. Expectation: forest load
//! grows with the number of agents; tree load stays at ~O(#classes),
//! independent of leaf count.

use crate::experiments::common::{attach_clients, run_clients};
use crate::report::Table;
use crate::system::{LegionSystem, SystemConfig};
use crate::workload::WorkloadConfig;
use legion_naming::tree::TreeShape;

/// One sweep point.
#[derive(Debug, Clone)]
pub struct Row {
    /// "forest" or "k-ary tree".
    pub config: String,
    /// Number of agents serving clients.
    pub serving_agents: usize,
    /// Distinct classes in the workload.
    pub classes: u32,
    /// Completed lookups.
    pub lookups: u64,
    /// Messages received by the LegionClass endpoint.
    pub legion_class_msgs: u64,
}

fn one(
    config: &str,
    tree: TreeShape,
    forest: bool,
    classes: u32,
    clients: usize,
    seed: u64,
) -> Row {
    let cfg = SystemConfig {
        jurisdictions: 2,
        classes,
        objects_per_class: 8,
        agent_tree: tree,
        agent_forest: forest,
        seed,
        ..SystemConfig::default()
    };
    let mut sys = LegionSystem::build(cfg);
    sys.kernel.reset_metrics();
    let wl = WorkloadConfig {
        lookups_per_client: 30,
        // Tiny client caches: this experiment stresses the agent layer.
        client_cache_capacity: 2,
        zipf_s: 0.2,
        ..WorkloadConfig::default()
    };
    let clients_ep = attach_clients(&mut sys, clients, &wl, seed, None);
    let report = run_clients(&mut sys, &clients_ep);
    let serving = if forest {
        sys.agents.len()
    } else {
        sys.tree.leaves().len()
    };
    Row {
        config: config.to_string(),
        serving_agents: serving,
        classes,
        lookups: report.completed,
        legion_class_msgs: sys.legion_class_load(),
    }
}

/// Run the sweep.
pub fn run(scale: u32, seed: u64) -> Vec<Row> {
    let classes = 4 * scale;
    let clients = (16 * scale) as usize;
    let mut rows = Vec::new();
    for &n in &[1usize, 4, 8] {
        rows.push(one(
            "forest",
            TreeShape::new(1, n),
            true,
            classes,
            clients,
            seed,
        ));
    }
    for &(k, n) in &[(2usize, 7usize), (4, 5), (8, 9)] {
        rows.push(one(
            &format!("{k}-ary tree"),
            TreeShape::new(k, n),
            false,
            classes,
            clients,
            seed,
        ));
    }
    rows
}

/// What `legion-exp e4` prints.
pub fn tables(quick: bool, seed: u64) -> Vec<Table> {
    vec![table(&run(super::common::scale(quick), seed))]
}

/// Render the EXPERIMENTS.md table.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "E4: LegionClass load, forest vs combining tree (§5.2.2)",
        &[
            "config",
            "serving-agents",
            "classes",
            "lookups",
            "LegionClass-msgs",
        ],
    );
    for r in rows {
        t.row(vec![
            r.config.clone(),
            r.serving_agents.to_string(),
            r.classes.to_string(),
            r.lookups.to_string(),
            r.legion_class_msgs.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_caps_legion_class_load_forest_grows_it() {
        let rows = run(1, 41);
        let forest: Vec<&Row> = rows.iter().filter(|r| r.config == "forest").collect();
        let trees: Vec<&Row> = rows.iter().filter(|r| r.config != "forest").collect();
        // Forest load grows with agent count.
        assert!(
            forest.last().unwrap().legion_class_msgs > forest[0].legion_class_msgs,
            "{forest:?}"
        );
        // Every tree keeps LegionClass at (or below) the single-agent
        // level: combining eliminates the growth.
        let single_agent = forest[0].legion_class_msgs;
        for t in &trees {
            assert!(
                t.legion_class_msgs <= single_agent + t.classes as u64,
                "tree must shield LegionClass: {t:?} vs single {single_agent}"
            );
        }
    }
}
