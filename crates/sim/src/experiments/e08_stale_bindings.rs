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
//! migrates objects between jurisdictions. Swept: churn rate × the
//! class's holder-directed notices on/off
//! (`ClassConfig::notify_holders`). Measured: refresh count, notices
//! sent, `Ping`s whose staleness only the client's timeout caught,
//! messages per completed operation, and operation latency.

use crate::experiments::common::{attach_clients, run_clients};
use crate::report::{ns, Table};
use crate::system::{LegionSystem, SystemConfig};
use crate::workload::WorkloadConfig;
use legion_core::address::ObjectAddressElement;
use legion_core::env::InvocationEnv;
use legion_core::fxmap::FxHashMap;
use legion_core::loid::Loid;
use legion_core::value::LegionValue;
use legion_net::message::{Body, CallId, Message};
use legion_net::sim::{Ctx, Endpoint, EndpointId};
use legion_net::topology::Location;
use legion_runtime::protocol::magistrate as mag_proto;

/// Drives a steady stream of `Move` operations round the magistrates.
/// News of each migration is the class's to spread, not the driver's: it
/// goes to the agents the class answered (`ClassConfig::notify_holders`).
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
}

impl ChurnDriver {
    /// Build a churner over `objects` whose initial owners are given by
    /// their creation jurisdiction.
    ///
    /// The last two parameters are unused: they fed the flat
    /// `InvalidateBinding` broadcast the driver used to send after every
    /// move. They stay because `benchmark/` calls this constructor and a
    /// PR that claims a gain may not edit `benchmark/`; ROADMAP item 5 (g)
    /// drops them.
    pub fn new(
        magistrates: Vec<(Loid, ObjectAddressElement)>,
        objects: Vec<(Loid, u32)>,
        interval_ns: u64,
        moves_target: u64,
        _agents: Vec<ObjectAddressElement>,
        _eager: bool,
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
        }
    }

    /// Each object with the index of the Magistrate it is at now, in the
    /// form [`ChurnDriver::new`] takes: a driver built from it carries on
    /// where this one stopped.
    pub fn placement(&self) -> Vec<(Loid, u32)> {
        self.objects
            .iter()
            .map(|l| (*l, self.owner[l] as u32))
            .collect()
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

    fn on_message(&mut self, _ctx: &mut Ctx<'_>, msg: Message) {
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
    /// Did the class tell the holders of a binding when it went stale
    /// (`ClassConfig::notify_holders`)?
    pub eager: bool,
    /// Completed client operations.
    pub completed: u64,
    /// Stale refreshes clients performed.
    pub stale_refreshes: u64,
    /// `Ping`s given up on when the client's invoke guard fired
    /// (`client.invoke_timeout`): a stale binding caught by timeout,
    /// not in use.
    pub timeouts: u64,
    /// Successful migrations during the run.
    pub moves: u64,
    /// `InvalidateBinding` notices the class sent (`class.holders_notified`).
    pub invalidations: u64,
    /// Mean operation latency (virtual ns).
    pub mean_latency_ns: f64,
    /// Messages per completed operation.
    pub msgs_per_op: f64,
}

/// The sweep's points: virtual time between moves (`u64::MAX`: none) and
/// whether the class tells the holders.
const POINTS: [(u64, bool); 5] = [
    (u64::MAX, false),
    (20_000_000, false), // a move every 20 ms
    (20_000_000, true),
    (5_000_000, false), // every 5 ms: heavy churn
    (5_000_000, true),
];

/// E8's system: 2 jurisdictions × 2 hosts, `8 × scale` objects of one
/// class.
fn build(scale: u32, eager: bool, seed: u64) -> LegionSystem {
    LegionSystem::build(SystemConfig {
        jurisdictions: 2,
        hosts_per_jurisdiction: 2,
        host_capacity: 4096,
        classes: 1,
        objects_per_class: 8 * scale,
        notify_holders: eager,
        seed,
        ..SystemConfig::default()
    })
}

/// One wave on `sys`: `6 × scale` clients resolve and `Ping` while a
/// churn driver (none when `interval` is `u64::MAX`) makes 200 moves
/// `interval` apart, starting from `placement`. The row counts what the
/// kernel saw since its metrics were last reset; the driver is returned
/// with it.
fn wave(
    sys: &mut LegionSystem,
    placement: Vec<(Loid, u32)>,
    (interval, eager): (u64, bool),
    scale: u32,
    seed: u64,
) -> (Row, Option<EndpointId>) {
    let churner = (interval != u64::MAX).then(|| {
        let mags: Vec<(Loid, ObjectAddressElement)> = sys
            .magistrates
            .iter()
            .map(|(l, e)| (*l, e.element()))
            .collect();
        let churner = ChurnDriver::new(mags, placement, interval, 200, vec![], eager);
        sys.kernel
            .add_endpoint(Box::new(churner), Location::new(0, 800), "churn-driver")
    });

    let wl = WorkloadConfig {
        lookups_per_client: 40,
        invoke_after_resolve: true,
        inter_arrival_ns: 2_000_000,
        ..WorkloadConfig::default()
    };
    let clients = attach_clients(sys, (6 * scale) as usize, &wl, seed, None);
    let report = run_clients(sys, &clients);
    let moves = churner
        .and_then(|id| sys.kernel.endpoint::<ChurnDriver>(id))
        .map_or(0, |c| c.moves_ok);
    let row = Row {
        churn_interval_ns: interval,
        eager,
        completed: report.completed,
        stale_refreshes: report.stale_refreshes,
        timeouts: sys.kernel.counters().get("client.invoke_timeout"),
        moves,
        invalidations: sys.kernel.counters().get("class.holders_notified"),
        mean_latency_ns: report.latency.mean(),
        msgs_per_op: if report.completed == 0 {
            0.0
        } else {
            sys.kernel.stats().sent as f64 / report.completed as f64
        },
    };
    (row, churner)
}

/// Run the sweep.
pub fn run(scale: u32, seed: u64) -> Vec<Row> {
    POINTS
        .iter()
        .map(|&point| {
            let mut sys = build(scale, point.1, seed);
            sys.kernel.reset_metrics();
            // The driver takes each object's owner from the jurisdiction
            // it was created in.
            let placement = sys.objects.clone();
            wave(&mut sys, placement, point, scale, seed).0
        })
        .collect()
}

/// The sweep's heaviest point at `--quick` size (a move every 5 ms,
/// notices on) measured as the allocation ledger measures a steady state:
/// a first wave warms every cache, pool and map, the kernel's metrics are
/// reset, and a second wave — fresh clients, and a driver that carries on
/// where the first stopped — is the measured one, with `bracket` called
/// right before and right after it. Returns its row and the messages the
/// kernel carried during it.
pub fn steady_churn(seed: u64, mut bracket: impl FnMut()) -> (Row, u64) {
    let point = POINTS[POINTS.len() - 1];
    let mut sys = build(1, point.1, seed);
    let placement = sys.objects.clone();
    let (_, warm) = wave(&mut sys, placement, point, 1, seed);
    let warm = warm.and_then(|id| sys.kernel.endpoint::<ChurnDriver>(id));
    let placement = warm.expect("the heaviest point churns").placement();
    sys.kernel.reset_metrics();
    bracket();
    let (row, _) = wave(&mut sys, placement, point, 1, seed ^ 0x5555);
    bracket();
    (row, sys.kernel.stats().sent)
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
            "invalidations",
            "refreshes",
            "timeouts",
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
            r.invalidations.to_string(),
            r.stale_refreshes.to_string(),
            r.timeouts.to_string(),
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
        // Only a class told to spreads the news, and to no more agents
        // than it answered: here there is one, and one address per move.
        for r in &churned {
            if r.eager {
                assert!(r.invalidations > 0 && r.invalidations <= r.moves, "{r:?}");
            } else {
                assert_eq!(r.invalidations, 0, "{r:?}");
            }
        }
    }

    /// Every stale binding is detected in use (§4.1.4): a `Ping` that
    /// reaches an object a racing deactivation killed is answered by the
    /// kernel, so no client waits out its invoke guard. There is no loss
    /// and no crash here, the only other things the guard is for.
    #[test]
    fn stale_bindings_are_detected_in_use_not_by_timeout() {
        for seed in [20_260_707, 81, 82, 83] {
            for r in run(1, seed) {
                assert_eq!(r.timeouts, 0, "seed {seed}: {r:?}");
            }
        }
    }

    /// News goes where the binding went, and nowhere else: under heavy
    /// churn through a five-agent tree the class sends at most one notice
    /// per agent per deactivation — an Inert object's move sends none —
    /// where the flat broadcast sent five per move.
    #[test]
    fn notices_are_bounded_by_deactivations_not_moves() {
        let mut sys = LegionSystem::build(SystemConfig {
            jurisdictions: 2,
            hosts_per_jurisdiction: 2,
            host_capacity: 4096,
            agent_tree: legion_naming::tree::TreeShape::new(4, 5),
            classes: 2,
            objects_per_class: 8,
            seed: 83,
            ..SystemConfig::default()
        });
        sys.kernel.reset_metrics();
        let mags = sys
            .magistrates
            .iter()
            .map(|(l, e)| (*l, e.element()))
            .collect();
        let churner = ChurnDriver::new(mags, sys.objects.clone(), 2_000_000, 600, vec![], true);
        let churner =
            sys.kernel
                .add_endpoint(Box::new(churner), Location::new(0, 800), "churn-driver");
        let wl = WorkloadConfig {
            lookups_per_client: 40,
            invoke_after_resolve: true,
            inter_arrival_ns: 1_000_000,
            op_retry_attempts: 8,
            ..WorkloadConfig::default()
        };
        let clients = attach_clients(&mut sys, 8, &wl, 83, None);
        let report = run_clients(&mut sys, &clients);
        assert_eq!(report.failed, 0, "{report:?}");
        let moves = sys
            .kernel
            .endpoint::<ChurnDriver>(churner)
            .unwrap()
            .moves_ok;
        let count = |name: &str| sys.kernel.counters().get(name);
        let (notices, deactivations) =
            (count("class.holders_notified"), count("host.deactivations"));
        assert!(notices > 0 && deactivations > 0 && moves > 2 * deactivations);
        assert!(
            notices <= deactivations * sys.agents.len() as u64,
            "{notices} notices for {deactivations} deactivations"
        );
        assert_eq!(
            count("stale.invalidations_propagated"),
            0,
            "nobody broadcasts"
        );
    }

    /// What the notices buy, over enough seeds to see past one run's
    /// timing: fewer stale bindings reach a client, and the messages the
    /// notices cost are paid back by the refreshes they save (the flat
    /// broadcast they replace cost about one more message per operation
    /// for the same refreshes).
    #[test]
    fn notices_cut_refreshes_and_pay_for_themselves() {
        let (mut refreshes, mut msgs_per_op) = ([0u64; 2], [0f64; 2]);
        for seed in 81..=88 {
            for r in run(1, seed) {
                if r.churn_interval_ns != u64::MAX {
                    refreshes[r.eager as usize] += r.stale_refreshes;
                    msgs_per_op[r.eager as usize] += r.msgs_per_op;
                }
            }
        }
        let ([lazy, told], [lazy_msgs, told_msgs]) = (refreshes, msgs_per_op);
        assert!(
            told * 100 <= lazy * 95,
            "refreshes: {told} told against {lazy} detected in use"
        );
        assert!(
            told_msgs <= lazy_msgs * 1.03,
            "summed msgs/op: {told_msgs:.2} told against {lazy_msgs:.2}"
        );
    }

    /// E8's churn setup (2×2 hosts, 8 objects, 6 clients × 40
    /// lookup+Ping, a Move every 20 ms, notices off), drained to
    /// quiescence, must leave every object alive exactly once. It does
    /// not: when an `Activate` re-activates an object whose OPR a `Move`
    /// has in flight, `on_ship_reply` drops the source record and never
    /// kills the running process, and the orphan keeps answering `Ping`.
    #[test]
    #[ignore = "ROADMAP item 1: a Move leaves the copy an Activate re-activated mid-ship running"]
    fn churn_leaves_every_object_alive_once() {
        let seed = 20_260_707;
        let mut sys = LegionSystem::build(SystemConfig {
            jurisdictions: 2,
            hosts_per_jurisdiction: 2,
            host_capacity: 4096,
            classes: 1,
            objects_per_class: 8,
            notify_holders: false,
            seed,
            ..SystemConfig::default()
        });
        sys.kernel.reset_metrics();
        let mags = sys
            .magistrates
            .iter()
            .map(|(l, e)| (*l, e.element()))
            .collect();
        let churner = ChurnDriver::new(mags, sys.objects.clone(), 20_000_000, 200, vec![], false);
        sys.kernel
            .add_endpoint(Box::new(churner), Location::new(0, 800), "churn-driver");
        let wl = WorkloadConfig {
            lookups_per_client: 40,
            invoke_after_resolve: true,
            inter_arrival_ns: 2_000_000,
            ..WorkloadConfig::default()
        };
        let clients = attach_clients(&mut sys, 6, &wl, seed, None);
        let report = run_clients(&mut sys, &clients);
        sys.kernel.run_until_quiescent(u64::MAX);
        let classes: Vec<_> = sys.classes.iter().map(|(_, ep)| *ep).collect();
        let attempted = report.completed + report.failed;
        let violations = crate::judge::judge(
            &mut sys,
            &classes,
            attempted,
            6 * wl.lookups_per_client as u64,
        );
        assert!(violations.is_empty(), "{violations:?}");
    }
}
