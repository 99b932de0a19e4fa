//! E15 — crash-recovery availability (`legion-ha`).
//!
//! The paper's object model makes persistence a first-class state: every
//! object has an OPR in a vault (§3.1) and "objects may be deactivated
//! and their state saved". Legion's architecture therefore *implies* a
//! recovery story — if a Host Object dies, the objects it ran are not
//! gone, only inert, and their Magistrate can re-activate them elsewhere
//! while the §4.1.4 stale-binding machinery re-routes clients.
//!
//! This experiment measures that story end to end. Hosts heartbeat to
//! their Magistrate; a crash is injected at a fixed virtual time; the
//! detector confirms death after a configurable silence; the recovery
//! driver re-activates every lost object from its retained vault
//! checkpoint on a surviving host, invalidates stale bindings through
//! the Binding Agent tree, and clients ride out the gap on capped
//! exponential backoff. Measured: time-to-detect, time-to-recover, and
//! the fraction of workload operations that ultimately succeed.

use crate::experiments::common::{attach_clients, run_clients, scale};
use crate::harness::{Closed, Watch};
use crate::judge::ha_totals;
use crate::report::{ns, Table};
use crate::system::{HaConfig, LegionSystem, SystemConfig};
use crate::workload::WorkloadConfig;
use legion_core::time::SimTime;

/// One scenario's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Scenario label.
    pub scenario: &'static str,
    /// Hosts crashed during the run.
    pub crashes: u32,
    /// Workload operations that ultimately succeeded.
    pub completed: u64,
    /// Operations that failed permanently (retries exhausted).
    pub failed: u64,
    /// `completed / (completed + failed)`, in percent.
    pub success_pct: f64,
    /// Mean heartbeat silence at the Dead verdict (ns).
    pub detect_mean_ns: f64,
    /// Max heartbeat silence at the Dead verdict (ns).
    pub detect_max_ns: u64,
    /// Mean Dead-verdict → object-reactivated latency (ns).
    pub recover_mean_ns: f64,
    /// Max Dead-verdict → object-reactivated latency (ns).
    pub recover_max_ns: u64,
    /// Objects successfully re-activated on surviving hosts.
    pub recovered: u64,
    /// Objects that could not be recovered.
    pub lost: u64,
    /// Dead verdicts later contradicted by a heartbeat.
    pub false_positives: u64,
    /// Whole-operation client retries (capped exponential backoff).
    pub op_retries: u64,
}

/// The standard E15 failure-detection knobs: 2 ms heartbeats, Dead after
/// four missed intervals, timers re-arming until virtual `horizon_ns`.
pub fn ha_config(horizon_ns: u64) -> HaConfig {
    HaConfig {
        heartbeat_interval_ns: 2_000_000,
        sweep_interval_ns: 2_000_000,
        horizon_ns,
        suspect_after: 2,
        dead_after: 4,
    }
}

/// (label, [(virtual offset from workload start, host index)]): no crash,
/// one crash, and one crash per jurisdiction, staggered 60 ms apart.
const SCENARIOS: [(&str, &[(u64, usize)]); 3] = [
    ("none", &[]),
    ("one-host", &[(30_000_000, 0)]),
    ("two-hosts", &[(30_000_000, 0), (90_000_000, 3)]),
];

/// Run one scenario under `watch`.
fn scenario(
    (label, schedule): (&'static str, &[(u64, usize)]),
    scale: u32,
    seed: u64,
    watch: Watch,
) -> (Row, Closed) {
    let cfg = SystemConfig {
        jurisdictions: 2,
        hosts_per_jurisdiction: 3,
        host_capacity: 4096,
        classes: 1,
        objects_per_class: 8 * scale,
        ha: Some(ha_config(3_000_000_000)),
        seed,
        ..SystemConfig::default()
    };
    let mut sys = LegionSystem::build(cfg);
    let session = watch.open(&mut sys.kernel);
    session.measure(&mut sys.kernel);
    let t0 = sys.kernel.now();

    let wl = WorkloadConfig {
        lookups_per_client: 40,
        invoke_after_resolve: true,
        inter_arrival_ns: 2_000_000,
        op_retry_attempts: 6,
        ..WorkloadConfig::default()
    };
    let clients = attach_clients(&mut sys, (6 * scale) as usize, &wl, seed, None);

    for &(offset_ns, host_index) in schedule {
        sys.kernel.run_until(SimTime(t0.0 + offset_ns));
        sys.crash_host(host_index);
    }
    let report = run_clients(&mut sys, &clients);
    let ha = ha_totals(&sys);

    let attempted = report.completed + report.failed;
    let row = Row {
        scenario: label,
        crashes: schedule.len() as u32,
        completed: report.completed,
        failed: report.failed,
        success_pct: if attempted == 0 {
            0.0
        } else {
            100.0 * report.completed as f64 / attempted as f64
        },
        detect_mean_ns: ha.detect.mean(),
        detect_max_ns: ha.detect.max(),
        recover_mean_ns: ha.recover.mean(),
        recover_max_ns: ha.recover.max(),
        recovered: ha.recovered,
        lost: ha.lost,
        false_positives: ha.false_positives,
        op_retries: sys.kernel.counters().get("client.op_retry"),
    };
    (row, session.close(&mut sys.kernel))
}

/// Run the sweep over [`SCENARIOS`].
pub fn run(scale: u32, seed: u64) -> Vec<Row> {
    SCENARIOS
        .iter()
        .map(|&s| scenario(s, scale, seed, Watch::off()).0)
        .collect()
}

/// The observed point: the `one-host` scenario.
pub fn observed(quick: bool, seed: u64, watch: Watch) -> Closed {
    scenario(SCENARIOS[1], scale(quick), seed, watch).1
}

/// What `legion-exp e15` prints.
pub fn tables(quick: bool, seed: u64) -> Vec<Table> {
    vec![table(&run(scale(quick), seed))]
}

/// Render the EXPERIMENTS.md table.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "E15: crash-recovery availability (legion-ha)",
        &[
            "scenario", "crashes", "ops", "failed", "success", "detect", "recover", "re-homed",
            "lost", "retries",
        ],
    );
    for r in rows {
        t.row(vec![
            r.scenario.to_string(),
            r.crashes.to_string(),
            r.completed.to_string(),
            r.failed.to_string(),
            format!("{:.2}%", r.success_pct),
            if r.detect_max_ns == 0 {
                "-".into()
            } else {
                format!("{}/{}", ns(r.detect_mean_ns as u64), ns(r.detect_max_ns))
            },
            if r.recover_max_ns == 0 {
                "-".into()
            } else {
                format!("{}/{}", ns(r.recover_mean_ns as u64), ns(r.recover_max_ns))
            },
            r.recovered.to_string(),
            r.lost.to_string(),
            r.op_retries.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::judge::judge;
    use legion_net::FaultPlan;
    use legion_runtime::magistrate::MagistrateEndpoint;
    use legion_runtime::Life;

    #[test]
    fn recovery_is_transparent_and_fast() {
        let rows = run(1, 42);
        let calm = &rows[0];
        assert_eq!(calm.failed, 0, "no crash, no failures: {calm:?}");
        assert_eq!(calm.recovered, 0);
        for r in rows.iter().filter(|r| r.crashes > 0) {
            // The E15 acceptance bar: ≥ 99% of operations ultimately
            // succeed despite the injected crashes.
            assert!(
                r.success_pct >= 99.0,
                "availability must survive crashes: {r:?}"
            );
            assert!(r.recovered > 0, "objects were re-homed: {r:?}");
            assert_eq!(r.lost, 0, "nothing unrecoverable: {r:?}");
            assert_eq!(r.false_positives, 0, "{r:?}");
            // Detection latency is bounded by the policy: Dead needs at
            // least 4 missed 2 ms heartbeats, and the sweep lags at most
            // a few intervals behind.
            assert!(r.detect_max_ns >= 8_000_000, "{r:?}");
            assert!(r.detect_max_ns <= 40_000_000, "{r:?}");
            assert!(r.recover_max_ns > 0, "{r:?}");
        }
    }

    #[test]
    fn rows_are_bit_reproducible() {
        // The whole pipeline — heartbeats, sweeps, crash injection,
        // recovery placement, client retries — is deterministic per seed.
        assert_eq!(run(1, 7), run(1, 7));
    }

    #[test]
    fn rebinding_target_crash_is_survivable() {
        // A sweep, not one seed: an `Activate` racing a recovery's
        // `HostActivate` once started a second activation, which only
        // some seeds' timing exposed.
        for seed in 11..=22 {
            rebinding_target_crash(seed);
        }
    }

    fn rebinding_target_crash(seed: u64) {
        // Double failure: crash a host, let recovery re-home its objects,
        // then crash the host the objects were re-homed *to*. Clients
        // holding the refreshed (now stale again) bindings must detect
        // and recover a second time.
        let cfg = SystemConfig {
            jurisdictions: 1,
            hosts_per_jurisdiction: 3,
            host_capacity: 4096,
            classes: 1,
            objects_per_class: 6,
            ha: Some(ha_config(3_000_000_000)),
            seed,
            ..SystemConfig::default()
        };
        let mut sys = LegionSystem::build(cfg);
        sys.kernel.reset_metrics();
        let t0 = sys.kernel.now();
        let wl = WorkloadConfig {
            lookups_per_client: 40,
            invoke_after_resolve: true,
            inter_arrival_ns: 2_000_000,
            op_retry_attempts: 6,
            ..WorkloadConfig::default()
        };
        let clients = attach_clients(&mut sys, 4, &wl, seed, None);

        // First crash, then run long past detection + recovery.
        sys.kernel.run_until(SimTime(t0.0 + 30_000_000));
        assert!(sys.crash_host(0) > 0);
        sys.kernel.run_until(SimTime(t0.0 + 80_000_000));
        let ha = ha_totals(&sys);
        assert_eq!(ha.hosts_lost, 1);
        assert!(ha.recovered > 0, "first recovery finished: {ha:?}");
        assert_eq!(ha.in_flight, 0, "{ha:?}");

        // Find where the re-homed objects landed and crash that host too.
        let mep = sys.magistrates[0].1;
        let crashed = sys.hosts[0].0;
        let mut counts = vec![0usize; sys.hosts.len()];
        {
            let m = sys
                .kernel
                .endpoint::<MagistrateEndpoint>(mep)
                .expect("magistrate alive");
            for (obj, _) in &sys.objects {
                if let Some(Life::Active { host, .. } | Life::Deactivating { host, .. }) =
                    m.object_state(obj)
                {
                    assert_ne!(*host, crashed, "no object still on the dead host");
                    if let Some(i) = sys.hosts.iter().position(|(l, _, _)| l == host) {
                        counts[i] += 1;
                    }
                }
            }
        }
        let target = counts
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| **c)
            .map(|(i, _)| i)
            .expect("some host has objects");
        assert_ne!(target, 0);
        assert!(counts[target] > 0, "rebinding target hosts objects");
        assert!(sys.crash_host(target) > 0);

        let report = run_clients(&mut sys, &clients);
        let ha = ha_totals(&sys);
        assert_eq!(ha.hosts_lost, 2, "second crash detected: {ha:?}");
        assert_eq!(ha.lost, 0, "a surviving host absorbed round two: {ha:?}");
        assert_eq!(ha.false_positives, 0);
        assert_eq!(
            sys.kernel.counters().get("magistrate.ha_unrecoverable"),
            0,
            "seed {seed}: every re-homed object kept its vault checkpoint"
        );
        let attempted = report.completed + report.failed;
        assert!(attempted > 0);
        assert!(
            report.completed as f64 / attempted as f64 >= 0.99,
            "seed {seed}: ops survive the double failure: {report:?}"
        );
    }

    /// Lose 10 % of all messages for the first 200 virtual ms after the
    /// build of a 2×2-host system with HA on and a 400 ms call deadline,
    /// then drain and judge: the false-positive Dead verdicts counted,
    /// and the judge's violations.
    fn lossy_window(seed: u64) -> (u64, Vec<legion_chaos::Violation>) {
        let mut sys = LegionSystem::build(SystemConfig {
            jurisdictions: 2,
            hosts_per_jurisdiction: 2,
            // Heartbeats run past the build (≈ 3.5 virtual s) and the window.
            ha: Some(ha_config(10_000_000_000)),
            call_deadline_ns: Some(400_000_000),
            seed,
            ..SystemConfig::default()
        });
        let t0 = sys.kernel.now().0;
        let mut lossy = FaultPlan::seeded(seed);
        lossy.set_drop_probability(0.1);
        *sys.kernel.faults_mut() = lossy;
        sys.kernel.run_until(SimTime(t0 + 200_000_000));
        *sys.kernel.faults_mut() = FaultPlan::none();
        sys.kernel.run_until_quiescent(u64::MAX);
        let false_positives = ha_totals(&sys).false_positives;
        let classes: Vec<_> = sys.classes.iter().map(|(_, e)| *e).collect();
        (false_positives, judge(&mut sys, &classes, 0, 0))
    }

    /// ROADMAP item 14: a Magistrate that declares a host Dead only
    /// because its heartbeats were lost re-homes the host's objects from
    /// their vault OPRs, then re-admits the host at its next heartbeat
    /// and leaves the old processes running, so the judge finds each
    /// re-homed object alive twice. Of seeds 0–399, these are four of
    /// the 21 in which that happens; each has one false positive.
    #[test]
    #[ignore = "ROADMAP item 14"]
    fn false_positive_dead_verdict_leaves_no_object_running_twice() {
        for seed in [11, 18, 20, 39] {
            let (false_positives, violations) = lossy_window(seed);
            assert!(violations.is_empty(), "seed {seed}: {violations:?}");
            assert!(
                false_positives > 0,
                "seed {seed}: the loss window no longer yields a false positive"
            );
        }
    }
}
