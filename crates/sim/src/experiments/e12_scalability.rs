//! E12 — the headline claim: the distributed systems principle (paper §5.2).
//!
//! "The number of requests to any particular system component must not be
//! an increasing function of the number of hosts in the system. Our claim
//! is that as the number of Legion hosts and objects increases, no
//! component will become a bottleneck."
//!
//! Everything scales together — jurisdictions, hosts, objects, clients,
//! Binding Agents (one leaf per jurisdiction) — while per-client work is
//! fixed. Two configurations:
//!
//! * **legion** — client caches + agent tree + class delegation (the
//!   paper's design);
//! * **central** — every lookup goes to a single directory endpoint (the
//!   strawman the paper argues against).
//!
//! Measured: the maximum per-component message count. Legion's should stay
//! ~flat; the central directory's grows linearly with the system.

use crate::experiments::common::{attach_clients, build_central_directory, run_clients};
use crate::harness::{Closed, Watch};
use crate::report::Table;
use crate::system::{LegionSystem, SystemConfig};
use crate::workload::WorkloadConfig;
use legion_naming::tree::TreeShape;

/// One sweep point.
#[derive(Debug, Clone)]
pub struct Row {
    /// Configuration name.
    pub config: &'static str,
    /// Total hosts in the system.
    pub hosts: u32,
    /// Clients (scaled with hosts).
    pub clients: usize,
    /// Completed lookups.
    pub lookups: u64,
    /// Name of the most-loaded infrastructure component.
    pub hottest: String,
    /// Its message count.
    pub hottest_msgs: u64,
    /// LegionClass message count.
    pub legion_class_msgs: u64,
}

/// Build the E12 system: every component *scales with the system*. One
/// leaf Binding Agent per jurisdiction; instance misses go straight to
/// the (also scaling) class population; class-object lookups combine up
/// a small tree toward LegionClass (§5.2.2). Returns the system and its
/// scaled client count.
fn build(jurisdictions: u32, seed: u64) -> (LegionSystem, usize) {
    let leaves = jurisdictions as usize;
    let tree = if leaves == 1 {
        TreeShape::single()
    } else {
        TreeShape::new(leaves, leaves + 1)
    };
    let cfg = SystemConfig {
        jurisdictions,
        hosts_per_jurisdiction: 4,
        classes: 2 * jurisdictions,
        objects_per_class: 16,
        agent_tree: tree,
        seed,
        ..SystemConfig::default()
    };
    let clients = (4 * jurisdictions) as usize;
    (LegionSystem::build(cfg), clients)
}

/// The legion configuration's steady state at `jurisdictions`, as the
/// §5.2 claim reads: a warm-up wave populates the agent/class caches
/// (cold-start traffic amortizes over the system's lifetime), then a
/// fresh client wave of the same size is measured under `watch` — with
/// `bracket` called right before and right after it, for callers that
/// meter the wave from outside the kernel.
pub fn steady_state(
    jurisdictions: u32,
    seed: u64,
    watch: Watch,
    mut bracket: impl FnMut(),
) -> (Row, Closed) {
    let (mut sys, clients) = build(jurisdictions, seed);
    let session = watch.open(&mut sys.kernel);
    let wl = WorkloadConfig {
        lookups_per_client: 30,
        locality: 0.8,
        ..WorkloadConfig::default()
    };
    let warm = attach_clients(&mut sys, clients, &wl, seed, None);
    run_clients(&mut sys, &warm);
    session.measure(&mut sys.kernel);
    bracket();
    let eps = attach_clients(&mut sys, clients, &wl, seed ^ 0x5555, None);
    let report = run_clients(&mut sys, &eps);
    bracket();
    let (hottest, hottest_msgs) = sys.max_component_load();
    let row = Row {
        config: "legion",
        hosts: jurisdictions * 4,
        clients,
        lookups: report.completed,
        hottest,
        hottest_msgs,
        legion_class_msgs: sys.legion_class_load(),
    };
    (row, session.close(&mut sys.kernel))
}

/// Run the sweep over jurisdiction counts.
pub fn run(points: &[u32], seed: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for &j in points {
        rows.push(steady_state(j, seed, Watch::off(), || ()).0);
        // Central-directory baseline (measured identically: warm wave,
        // then a fresh measured wave — a cacheless central design gains
        // nothing from warmth, which is the point).
        {
            let (mut sys, clients) = build(j, seed);
            let dir = build_central_directory(&mut sys);
            let wl = WorkloadConfig {
                lookups_per_client: 30,
                locality: 0.8,
                // No client caches: the centralized design the paper
                // argues against sends every reference to the directory.
                client_cache_enabled: false,
                ..WorkloadConfig::default()
            };
            let warm = attach_clients(&mut sys, clients, &wl, seed, Some(dir));
            run_clients(&mut sys, &warm);
            sys.kernel.reset_metrics();
            let eps = attach_clients(&mut sys, clients, &wl, seed ^ 0x5555, Some(dir));
            let report = run_clients(&mut sys, &eps);
            let dir_msgs = sys.kernel.meta(dir).map(|m| m.received).unwrap_or(0);
            rows.push(Row {
                config: "central",
                hosts: j * 4,
                clients,
                lookups: report.completed,
                hottest: "central-directory".into(),
                hottest_msgs: dir_msgs,
                legion_class_msgs: sys.legion_class_load(),
            });
        }
    }
    rows
}

/// The observed point: the legion configuration at 2 jurisdictions (8
/// hosts, 8 clients) — the smallest system with real remote traffic.
pub fn observed(_quick: bool, seed: u64, watch: Watch) -> Closed {
    steady_state(2, seed, watch, || ()).1
}

/// What `legion-exp e12` prints.
pub fn tables(quick: bool, seed: u64) -> Vec<Table> {
    let points: &[u32] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    vec![table(&run(points, seed))]
}

/// Render the EXPERIMENTS.md table.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "E12: max per-component load vs system size (§5.2)",
        &[
            "config",
            "hosts",
            "clients",
            "lookups",
            "hottest-component",
            "msgs",
            "LegionClass-msgs",
        ],
    );
    for r in rows {
        t.row(vec![
            r.config.to_string(),
            r.hosts.to_string(),
            r.clients.to_string(),
            r.lookups.to_string(),
            r.hottest.clone(),
            r.hottest_msgs.to_string(),
            r.legion_class_msgs.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legion_stays_flat_central_grows() {
        let rows = run(&[1, 2, 4], 101);
        let legion: Vec<&Row> = rows.iter().filter(|r| r.config == "legion").collect();
        let central: Vec<&Row> = rows.iter().filter(|r| r.config == "central").collect();
        // Central directory load grows with the system (~linearly in the
        // client count).
        let growth_central = central[2].hottest_msgs as f64 / central[0].hottest_msgs as f64;
        assert!(
            growth_central > 2.5,
            "central should grow ~4x: {growth_central}"
        );
        // Legion's hottest component stays ~flat: "the number of requests
        // to any particular system component must not be an increasing
        // function of the number of hosts." The single-jurisdiction point
        // is degenerate (no remote traffic exists at all), so flatness is
        // judged on the doubling from 2 to 4 jurisdictions, where central
        // doubles but Legion must not.
        let growth_legion = legion[2].hottest_msgs as f64 / legion[1].hottest_msgs.max(1) as f64;
        let central_tail = central[2].hottest_msgs as f64 / central[1].hottest_msgs.max(1) as f64;
        assert!(central_tail > 1.8, "central doubles: {central_tail}");
        assert!(
            growth_legion < 1.3,
            "legion's hottest component must stay ~flat as the system doubles: {growth_legion} ({legion:?})"
        );
        // And at the largest size, Legion's hottest component carries far
        // less than the central directory.
        assert!(
            legion[2].hottest_msgs * 2 < central[2].hottest_msgs,
            "legion {} vs central {}",
            legion[2].hottest_msgs,
            central[2].hottest_msgs
        );
    }
}
