//! E8 — stale bindings under migration churn (paper §4.1.4).
//!
//! "Legion expects the presence of stale bindings ... When an object
//! attempts to communicate with an invalid Object Address, the Legion
//! communication layer of the object is expected to detect that it has
//! become invalid ... Some classes may even attempt to reduce the number
//! of stale bindings by explicitly propagating news of an object's
//! migration."
//!
//! Clients continuously resolve-and-`Ping` objects while a churn driver
//! migrates objects between jurisdictions. Swept: churn rate × eager
//! invalidation on/off. Measured: refresh count, messages per completed
//! operation, and operation latency.

use crate::experiments::common::{attach_clients, run_clients};
use crate::report::{ns, Table};
use crate::system::{LegionSystem, SystemConfig};
use crate::workload::WorkloadConfig;
use legion_core::address::ObjectAddressElement;
use legion_core::env::InvocationEnv;
use legion_core::fxmap::FxHashMap;
use legion_core::loid::Loid;
use legion_core::value::LegionValue;
use legion_naming::stale;
use legion_net::message::{Body, CallId, Message};
use legion_net::sim::{Ctx, Endpoint};
use legion_net::topology::Location;
use legion_runtime::protocol::magistrate as mag_proto;

/// Drives a steady stream of `Move` operations between two magistrates,
/// optionally propagating invalidations eagerly after each move.
pub struct ChurnDriver {
    me: Loid,
    magistrates: Vec<(Loid, ObjectAddressElement)>,
    /// Object → index of its current magistrate.
    owner: FxHashMap<Loid, usize>,
    objects: Vec<Loid>,
    next_obj: usize,
    interval_ns: u64,
    moves_target: u64,
    /// Successful migrations so far.
    pub moves_ok: u64,
    /// Failed migration attempts.
    pub moves_failed: u64,
    pending: FxHashMap<CallId, (Loid, usize)>,
    agents: Vec<ObjectAddressElement>,
    eager: bool,
}

impl ChurnDriver {
    /// Build a churner over `objects` whose initial owners are given by
    /// their creation jurisdiction.
    pub fn new(
        magistrates: Vec<(Loid, ObjectAddressElement)>,
        objects: Vec<(Loid, u32)>,
        interval_ns: u64,
        moves_target: u64,
        agents: Vec<ObjectAddressElement>,
        eager: bool,
    ) -> Self {
        let owner = objects
            .iter()
            .map(|(l, j)| (*l, *j as usize % magistrates.len()))
            .collect();
        ChurnDriver {
            me: Loid::instance(9998, 1),
            magistrates,
            owner,
            objects: objects.into_iter().map(|(l, _)| l).collect(),
            next_obj: 0,
            interval_ns,
            moves_target,
            moves_ok: 0,
            moves_failed: 0,
            pending: FxHashMap::default(),
            agents,
            eager,
        }
    }

    fn issue_move(&mut self, ctx: &mut Ctx<'_>) {
        if self.moves_ok + self.moves_failed >= self.moves_target || self.objects.is_empty() {
            return;
        }
        let obj = self.objects[self.next_obj % self.objects.len()];
        self.next_obj += 1;
        let cur = *self.owner.get(&obj).expect("owner known");
        let dst = (cur + 1) % self.magistrates.len();
        let (src_loid, src_el) = self.magistrates[cur];
        let (dst_loid, _) = self.magistrates[dst];
        let args = ctx.args([LegionValue::Loid(obj), LegionValue::Loid(dst_loid)]);
        match ctx.call(
            src_el,
            src_loid,
            mag_proto::MOVE,
            args,
            InvocationEnv::solo(self.me),
            Some(self.me),
        ) {
            Some(id) => {
                self.pending.insert(id, (obj, dst));
            }
            None => {
                self.moves_failed += 1;
            }
        }
        ctx.set_timer(self.interval_ns, 1);
    }
}

impl Endpoint for ChurnDriver {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.interval_ns, 1);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
        self.issue_move(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        let Body::Reply {
            in_reply_to,
            result,
        } = &msg.body
        else {
            return;
        };
        let Some((obj, dst)) = self.pending.remove(in_reply_to) else {
            return;
        };
        match result {
            Ok(_) => {
                self.owner.insert(obj, dst);
                self.moves_ok += 1;
                if self.eager {
                    // §4.1.4: explicitly propagate news of the migration.
                    stale::propagate_invalidation(ctx, self.me, &self.agents, obj);
                }
            }
            Err(_) => {
                self.moves_failed += 1;
            }
        }
    }
}

/// One sweep point.
#[derive(Debug, Clone)]
pub struct Row {
    /// Virtual time between migrations (ns); `u64::MAX` = no churn.
    pub churn_interval_ns: u64,
    /// Eager invalidation propagation on?
    pub eager: bool,
    /// Completed client operations.
    pub completed: u64,
    /// Stale refreshes clients performed.
    pub stale_refreshes: u64,
    /// Successful migrations during the run.
    pub moves: u64,
    /// Mean operation latency (virtual ns).
    pub mean_latency_ns: f64,
    /// Messages per completed operation.
    pub msgs_per_op: f64,
}

/// Run the sweep.
pub fn run(scale: u32, seed: u64) -> Vec<Row> {
    let mut rows = Vec::new();
    for &(interval, eager) in &[
        (u64::MAX, false),
        (20_000_000u64, false), // a move every 20 ms
        (20_000_000, true),
        (5_000_000, false), // every 5 ms: heavy churn
        (5_000_000, true),
    ] {
        let cfg = SystemConfig {
            jurisdictions: 2,
            hosts_per_jurisdiction: 2,
            host_capacity: 4096,
            classes: 1,
            objects_per_class: 8 * scale,
            seed,
            ..SystemConfig::default()
        };
        let mut sys = LegionSystem::build(cfg);
        sys.kernel.reset_metrics();

        if interval != u64::MAX {
            let mags: Vec<(Loid, ObjectAddressElement)> = sys
                .magistrates
                .iter()
                .map(|(l, e)| (*l, e.element()))
                .collect();
            let agents: Vec<ObjectAddressElement> =
                sys.agents.iter().map(|a| a.element()).collect();
            let churner = ChurnDriver::new(mags, sys.objects.clone(), interval, 200, agents, eager);
            // Creation round-robins across magistrates in creation order,
            // matching `owner` initialisation above only if jurisdiction
            // matches; ChurnDriver derives owners from the recorded
            // creation jurisdiction, which is authoritative.
            sys.kernel
                .add_endpoint(Box::new(churner), Location::new(0, 800), "churn-driver");
        }

        let wl = WorkloadConfig {
            lookups_per_client: 40,
            invoke_after_resolve: true,
            inter_arrival_ns: 2_000_000,
            ..WorkloadConfig::default()
        };
        let clients = attach_clients(&mut sys, (6 * scale) as usize, &wl, seed, None);
        let report = run_clients(&mut sys, &clients);
        let moves = sys
            .kernel
            .all_meta()
            .find(|(_, m)| m.name == "churn-driver")
            .map(|(id, _)| {
                sys.kernel
                    .endpoint::<ChurnDriver>(id)
                    .map(|c| c.moves_ok)
                    .unwrap_or(0)
            })
            .unwrap_or(0);
        rows.push(Row {
            churn_interval_ns: interval,
            eager,
            completed: report.completed,
            stale_refreshes: report.stale_refreshes,
            moves,
            mean_latency_ns: report.latency.mean(),
            msgs_per_op: if report.completed == 0 {
                0.0
            } else {
                sys.kernel.stats().sent as f64 / report.completed as f64
            },
        });
    }
    rows
}

/// What `legion-exp e8` prints.
pub fn tables(quick: bool, seed: u64) -> Vec<Table> {
    vec![table(&run(super::common::scale(quick), seed))]
}

/// Render the EXPERIMENTS.md table.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "E8: stale bindings under migration churn (§4.1.4)",
        &[
            "churn",
            "eager",
            "ops",
            "moves",
            "refreshes",
            "mean-lat",
            "msgs/op",
        ],
    );
    for r in rows {
        t.row(vec![
            if r.churn_interval_ns == u64::MAX {
                "none".into()
            } else {
                ns(r.churn_interval_ns)
            },
            r.eager.to_string(),
            r.completed.to_string(),
            r.moves.to_string(),
            r.stale_refreshes.to_string(),
            ns(r.mean_latency_ns as u64),
            format!("{:.2}", r.msgs_per_op),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_causes_refreshes_and_all_ops_complete() {
        let rows = run(1, 81);
        let calm = &rows[0];
        assert_eq!(calm.stale_refreshes, 0, "no churn, no staleness: {calm:?}");
        // Under churn, clients detect staleness and recover — operations
        // still complete (the §4.1.4 guarantee of eventual progress).
        let churned: Vec<&Row> = rows
            .iter()
            .filter(|r| r.churn_interval_ns != u64::MAX)
            .collect();
        assert!(churned.iter().any(|r| r.stale_refreshes > 0), "{churned:?}");
        for r in &rows {
            assert!(
                r.completed >= calm.completed * 9 / 10,
                "ops must still complete under churn: {r:?}"
            );
        }
        // Churn is more expensive per operation than calm.
        assert!(churned
            .iter()
            .any(|r| r.mean_latency_ns > calm.mean_latency_ns));
    }
}
