//! E6 — hot-class cloning (paper §5.2.2).
//!
//! "The problem of popular class objects becoming bottlenecks can be
//! alleviated by 'cloning' class objects when they become heavily used.
//! The cloned class is derived from the heavily used class without
//! changing the interface in any way."
//!
//! A fixed creation storm is spread over 1, 2, 4, or 8 class endpoints
//! (original + clones derived live); measured: the *maximum* messages any
//! single class endpoint received, and the virtual makespan of the storm.

use crate::report::{ns, Table};
use crate::system::{LegionSystem, SystemConfig};
use legion_core::loid::Loid;
use legion_core::time::SimTime;
use legion_core::value::LegionValue;
use legion_net::sim::EndpointId;
use legion_runtime::protocol::class as class_proto;

/// One sweep point.
#[derive(Debug, Clone)]
pub struct Row {
    /// Members serving the storm (original + clones).
    pub members: usize,
    /// Creations performed.
    pub creates: u64,
    /// Max messages received by one class endpoint.
    pub max_member_msgs: u64,
    /// Virtual makespan of the storm.
    pub makespan: SimTime,
    /// Interfaces identical across members?
    pub interfaces_identical: bool,
}

/// Run the sweep.
pub fn run(creates: u64, seed: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for &members in &[1usize, 2, 4, 8] {
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
        let (hot_loid, hot_ep) = sys.classes[0];

        // Derive the clones live: identical interface by construction.
        let mut set: Vec<(Loid, EndpointId)> = vec![(hot_loid, hot_ep)];
        for i in 1..members {
            let b = sys
                .call_for_binding(
                    hot_ep.element(),
                    hot_loid,
                    class_proto::DERIVE,
                    vec![LegionValue::Str(format!("UserClass0#clone{i}"))],
                )
                .expect("clone derive succeeds");
            let ep = EndpointId(
                b.address
                    .primary()
                    .and_then(|e| e.sim_endpoint())
                    .expect("sim element"),
            );
            set.push((b.loid, ep));
        }

        // Interfaces must be identical ("without changing the interface
        // in any way") — compare via the live class state.
        let hot_if = sys
            .kernel
            .endpoint::<legion_runtime::class_endpoint::ClassEndpoint>(hot_ep)
            .expect("class endpoint")
            .class()
            .interface
            .clone();
        let identical = set.iter().all(|(_, ep)| {
            sys.kernel
                .endpoint::<legion_runtime::class_endpoint::ClassEndpoint>(*ep)
                .map(|c| c.class().interface == hot_if)
                .unwrap_or(false)
        });

        sys.kernel.reset_metrics();
        let t0 = sys.kernel.now();
        // The storm: round-robin creations over the member set — "new
        // instantiation requests are passed to the cloned object".
        for i in 0..creates {
            let (l, ep) = set[(i % members as u64) as usize];
            sys.call_for_binding(ep.element(), l, class_proto::CREATE, vec![])
                .expect("create succeeds");
        }
        let makespan = SimTime(sys.kernel.now().saturating_since(t0));
        let max_member_msgs = set
            .iter()
            .map(|(_, ep)| sys.kernel.meta(*ep).map(|m| m.received).unwrap_or(0))
            .max()
            .unwrap_or(0);
        rows.push(Row {
            members,
            creates,
            max_member_msgs,
            makespan,
            interfaces_identical: identical,
        });
    }
    rows
}

/// What `legion-exp e6` prints.
pub fn tables(quick: bool, seed: u64) -> Vec<Table> {
    let creates = if quick { 32 } else { 128 };
    vec![table(&run(creates, seed))]
}

/// Render the EXPERIMENTS.md table.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "E6: hot-class cloning (§5.2.2)",
        &[
            "members",
            "creates",
            "max-member-msgs",
            "makespan",
            "identical-iface",
        ],
    );
    for r in rows {
        t.row(vec![
            r.members.to_string(),
            r.creates.to_string(),
            r.max_member_msgs.to_string(),
            ns(r.makespan.as_nanos()),
            r.interfaces_identical.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cloning_divides_the_bottleneck() {
        let rows = run(32, 61);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(
                r.interfaces_identical,
                "clones must not change the interface"
            );
        }
        let one = rows[0].max_member_msgs as f64;
        let eight = rows[3].max_member_msgs as f64;
        assert!(
            eight <= one / 4.0,
            "8 members must carry ≤ 1/4 the per-member load of 1: {one} -> {eight}"
        );
    }
}
