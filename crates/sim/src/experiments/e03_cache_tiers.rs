//! E3 — cache-tier ablation (paper Fig. 17).
//!
//! Fig. 17 shades three places a binding may be cached: the client's
//! communication layer, the Binding Agent, and the class. This experiment
//! disables the first two tiers one at a time and measures lookup latency
//! and messages per lookup. (The class's "cache" is its authoritative
//! table and cannot be disabled.)

use crate::experiments::common::{attach_clients, run_clients, tier_counts};
use crate::report::{ns, Table};
use crate::system::{LegionSystem, SystemConfig};
use crate::workload::WorkloadConfig;
use legion_naming::tree::TreeShape;

/// One ablation point.
#[derive(Debug, Clone)]
pub struct Row {
    /// Client cache enabled?
    pub client_cache: bool,
    /// Agent cache enabled?
    pub agent_cache: bool,
    /// Completed lookups.
    pub lookups: u64,
    /// Mean virtual latency per lookup (ns).
    pub mean_latency_ns: f64,
    /// p99 virtual latency (ns).
    pub p99_latency_ns: u64,
    /// Messages per lookup.
    pub msgs_per_lookup: f64,
    /// Class-object consultations.
    pub class_consults: u64,
}

/// Run the 2×2 ablation.
pub fn run(scale: u32, seed: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for &(client_cache, agent_cache) in
        &[(true, true), (false, true), (true, false), (false, false)]
    {
        let cfg = SystemConfig {
            jurisdictions: 2,
            classes: 2,
            objects_per_class: 16 * scale,
            agent_tree: TreeShape::new(2, 3),
            agent_cache_enabled: agent_cache,
            seed,
            ..SystemConfig::default()
        };
        let mut sys = LegionSystem::build(cfg);
        sys.kernel.reset_metrics();
        let wl = WorkloadConfig {
            lookups_per_client: 40,
            client_cache_enabled: client_cache,
            ..WorkloadConfig::default()
        };
        let clients = attach_clients(&mut sys, (8 * scale) as usize, &wl, seed, None);
        let report = run_clients(&mut sys, &clients);
        let t = tier_counts(&sys);
        rows.push(Row {
            client_cache,
            agent_cache,
            lookups: report.completed,
            mean_latency_ns: report.latency.mean(),
            p99_latency_ns: report.latency.quantile(0.99),
            msgs_per_lookup: if report.completed == 0 {
                0.0
            } else {
                t.messages as f64 / report.completed as f64
            },
            class_consults: t.class_consults,
        });
    }
    rows
}

/// What `legion-exp e3` prints.
pub fn tables(quick: bool, seed: u64) -> Vec<Table> {
    vec![table(&run(super::common::scale(quick), seed))]
}

/// Render the EXPERIMENTS.md table.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "E3: cache-tier ablation (Fig. 17)",
        &[
            "client$",
            "agent$",
            "lookups",
            "mean-lat",
            "p99-lat",
            "msgs/lookup",
            "class-consults",
        ],
    );
    for r in rows {
        t.row(vec![
            if r.client_cache { "on" } else { "off" }.into(),
            if r.agent_cache { "on" } else { "off" }.into(),
            r.lookups.to_string(),
            ns(r.mean_latency_ns as u64),
            ns(r.p99_latency_ns),
            format!("{:.2}", r.msgs_per_lookup),
            r.class_consults.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabling_caches_costs_latency_and_messages() {
        let rows = run(1, 31);
        let both = &rows[0];
        let none = &rows[3];
        assert!(
            none.mean_latency_ns > both.mean_latency_ns,
            "cacheless must be slower: {both:?} vs {none:?}"
        );
        assert!(
            none.msgs_per_lookup > both.msgs_per_lookup,
            "cacheless must send more: {both:?} vs {none:?}"
        );
        assert!(
            none.class_consults > both.class_consults,
            "cacheless hammers the class"
        );
        // Same workload completes in all configurations.
        for r in &rows {
            assert_eq!(r.lookups, both.lookups);
        }
    }
}
