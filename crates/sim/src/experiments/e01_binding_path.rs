//! E1 — the binding path (paper Fig. 17, §4.1).
//!
//! Measures where lookups are served — client cache, Binding Agent cache,
//! class object, or Magistrate activation — as locality and client cache
//! capacity vary. The paper's claim: "extensive caching of both bindings
//! and responsibility pairs ensures that the vast majority of accesses
//! occurs locally."

use crate::experiments::common::{attach_clients, run_clients, scale, tier_counts};
use crate::harness::{Closed, Journal, Watch};
use crate::report::{pct, Table};
use crate::system::{LegionSystem, SystemConfig};
use crate::workload::WorkloadConfig;
use legion_naming::tree::TreeShape;

/// One sweep point.
#[derive(Debug, Clone)]
pub struct Row {
    /// Fraction of intra-jurisdiction references.
    pub locality: f64,
    /// Client cache capacity.
    pub client_cache: usize,
    /// Total completed lookups.
    pub lookups: u64,
    /// Served by client caches.
    pub client_hits: u64,
    /// Served by agent caches.
    pub agent_hits: u64,
    /// Reached a class object.
    pub class_consults: u64,
    /// Required a Magistrate activation.
    pub activations: u64,
}

/// One sweep point: build, deactivate a quarter of the objects so some
/// lookups walk the *full* Fig. 17 path (class → Magistrate → Activate),
/// then measure one client wave under `watch`.
fn point(scale: u32, seed: u64, locality: f64, client_cache: usize, watch: Watch) -> (Row, Closed) {
    let cfg = SystemConfig {
        jurisdictions: 2 * scale,
        hosts_per_jurisdiction: 2,
        classes: 2,
        objects_per_class: 16 * scale,
        agent_tree: TreeShape::new(2, 3),
        seed,
        ..SystemConfig::default()
    };
    let mut sys = LegionSystem::build(cfg);
    let victims: Vec<(legion_core::loid::Loid, u32)> = sys
        .objects
        .iter()
        .copied()
        .enumerate()
        .filter(|(i, _)| i % 4 == 0)
        .map(|(_, o)| o)
        .collect();
    for (obj, j) in victims {
        let mag = crate::system::magistrate_loid(j);
        let mag_ep = sys
            .magistrates
            .iter()
            .find(|(l, _)| *l == mag)
            .map(|(_, e)| *e)
            .expect("magistrate exists");
        sys.call(
            mag_ep.element(),
            mag,
            legion_runtime::protocol::magistrate::DEACTIVATE,
            vec![legion_core::value::LegionValue::Loid(obj)],
        )
        .expect("deactivation succeeds");
    }
    let session = watch.open(&mut sys.kernel);
    session.measure(&mut sys.kernel);
    let wl = WorkloadConfig {
        lookups_per_client: 50,
        locality,
        client_cache_capacity: client_cache,
        ..WorkloadConfig::default()
    };
    let clients = attach_clients(&mut sys, (4 * scale) as usize, &wl, seed, None);
    let report = run_clients(&mut sys, &clients);
    let t = tier_counts(&sys);
    let row = Row {
        locality,
        client_cache,
        lookups: report.completed,
        client_hits: t.client_hits,
        agent_hits: t.agent_hits,
        class_consults: t.class_consults,
        activations: t.activations,
    };
    (row, session.close(&mut sys.kernel))
}

/// Run the sweep. `scale` grows the system for benches (1 = test size).
pub fn run(scale: u32, seed: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for &locality in &[0.5, 0.8, 0.95] {
        for &client_cache in &[4usize, 64] {
            rows.push(point(scale, seed, locality, client_cache, Watch::off()).0);
        }
    }
    rows
}

/// The observed point: locality 0.8, 64-entry client caches.
pub fn observed(quick: bool, seed: u64, watch: Watch) -> Closed {
    point(scale(quick), seed, 0.8, 64, watch).1
}

/// What `legion-exp e1` prints: the sweep, then the observed point's
/// trace analysis.
pub fn tables(quick: bool, seed: u64) -> Vec<Table> {
    let mut out = vec![table(&run(scale(quick), seed))];
    let traced = observed(quick, seed, Watch::all(Journal::Off)).expect("no journal to fail");
    out.extend(crate::run_report::analysis_tables("E1", &traced.spans));
    out
}

/// Render the EXPERIMENTS.md table.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "E1: binding path — where lookups are served (Fig. 17)",
        &[
            "locality",
            "client$",
            "lookups",
            "client-hit",
            "agent-hit",
            "class",
            "activate",
        ],
    );
    for r in rows {
        t.row(vec![
            format!("{:.2}", r.locality),
            r.client_cache.to_string(),
            r.lookups.to_string(),
            pct(r.client_hits, r.lookups),
            pct(r.agent_hits, r.lookups),
            pct(r.class_consults, r.lookups),
            pct(r.activations, r.lookups),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caching_dominates_and_larger_cache_helps() {
        let rows = run(1, 11);
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(r.lookups > 0);
            // The paper's qualitative claim: most accesses served by the
            // two cache tiers once warm.
            let cached = r.client_hits + r.agent_hits;
            assert!(
                cached * 2 > r.lookups,
                "caches should serve the majority: {r:?}"
            );
        }
        // With a quarter of the population deactivated, some lookups must
        // have walked the full Fig. 17 path through a Magistrate.
        assert!(
            rows.iter().any(|r| r.activations > 0),
            "no lookup triggered an activation: {rows:?}"
        );
        // Larger client cache ⇒ at least as many client hits, same locality.
        for pair in rows.chunks(2) {
            let (small, big) = (&pair[0], &pair[1]);
            assert!(
                big.client_hits >= small.client_hits,
                "bigger cache can't hit less: {small:?} vs {big:?}"
            );
        }
    }
}
