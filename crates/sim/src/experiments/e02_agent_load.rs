//! E2 — object→Binding-Agent traffic (paper §5.2.1).
//!
//! "Each object's Binding Agent will only be consulted on a local cache
//! miss ... As the load on a particular Binding Agent increases ... more
//! Binding Agents may be created. Thus, each Binding Agent can be set up
//! to service a bounded number of clients."
//!
//! Fixed client population, growing agent count (star over `n` leaves):
//! the *maximum per-agent* request count must fall ~1/n.

use crate::experiments::common::{attach_clients, run_clients};
use crate::report::Table;
use crate::system::{LegionSystem, SystemConfig};
use crate::workload::WorkloadConfig;
use legion_naming::tree::TreeShape;

/// One sweep point.
#[derive(Debug, Clone)]
pub struct Row {
    /// Number of leaf agents.
    pub leaf_agents: usize,
    /// Clients in the run.
    pub clients: usize,
    /// Completed lookups.
    pub lookups: u64,
    /// Max messages received by any single leaf agent.
    pub max_leaf_load: u64,
    /// Mean messages per leaf agent.
    pub mean_leaf_load: f64,
}

/// Run the sweep.
pub fn run(scale: u32, seed: u64) -> Vec<Row> {
    let clients = (16 * scale) as usize;
    let mut rows = Vec::new();
    for &leaves in &[1usize, 2, 4, 8] {
        // Star: one root + `leaves` children (a 1-node tree when 1).
        let tree = if leaves == 1 {
            TreeShape::single()
        } else {
            TreeShape::new(leaves, leaves + 1)
        };
        let cfg = SystemConfig {
            jurisdictions: 2,
            objects_per_class: 32,
            classes: 2,
            agent_tree: tree,
            seed,
            ..SystemConfig::default()
        };
        let mut sys = LegionSystem::build(cfg);
        sys.kernel.reset_metrics();
        let wl = WorkloadConfig {
            lookups_per_client: 40,
            // Small client caches force agent traffic — this experiment is
            // about the agent tier.
            client_cache_capacity: 2,
            zipf_s: 0.5,
            ..WorkloadConfig::default()
        };
        let clients_ep = attach_clients(&mut sys, clients, &wl, seed, None);
        let report = run_clients(&mut sys, &clients_ep);
        let loads = sys.agent_loads();
        let leaf_nodes: Vec<usize> = sys.tree.leaves();
        let leaf_loads: Vec<u64> = leaf_nodes.iter().map(|&i| loads[i]).collect();
        let max = leaf_loads.iter().copied().max().unwrap_or(0);
        let mean = if leaf_loads.is_empty() {
            0.0
        } else {
            leaf_loads.iter().sum::<u64>() as f64 / leaf_loads.len() as f64
        };
        rows.push(Row {
            leaf_agents: leaf_loads.len(),
            clients,
            lookups: report.completed,
            max_leaf_load: max,
            mean_leaf_load: mean,
        });
    }
    rows
}

/// What `legion-exp e2` prints.
pub fn tables(quick: bool, seed: u64) -> Vec<Table> {
    vec![table(&run(super::common::scale(quick), seed))]
}

/// Render the EXPERIMENTS.md table.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "E2: per-agent load vs agent count (§5.2.1)",
        &[
            "leaf-agents",
            "clients",
            "lookups",
            "max-agent-msgs",
            "mean-agent-msgs",
        ],
    );
    for r in rows {
        t.row(vec![
            r.leaf_agents.to_string(),
            r.clients.to_string(),
            r.lookups.to_string(),
            r.max_leaf_load.to_string(),
            format!("{:.1}", r.mean_leaf_load),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitting_agents_bounds_per_agent_load() {
        let rows = run(1, 21);
        assert_eq!(rows.len(), 4);
        let one = rows[0].max_leaf_load as f64;
        let eight = rows[3].max_leaf_load as f64;
        assert!(
            eight < one * 0.5,
            "8 agents must cut the max load well below 1 agent: {one} -> {eight}"
        );
        // Every configuration completed the same client workload.
        for r in &rows {
            assert_eq!(r.lookups, rows[0].lookups, "{r:?}");
        }
    }
}
