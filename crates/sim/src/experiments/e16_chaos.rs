//! E16 — adversarial delivery semantics under a deterministic chaos
//! campaign (`legion-chaos`).
//!
//! Every earlier experiment runs on a polite network. This one runs the
//! full system — Magistrates, hosts, the agent tree, classes, HA, real
//! workload clients — under seeded adversarial schedules: ambient drops,
//! duplication, reordering jitter, transient delay spikes, flapping
//! partitions, and scheduled host crashes. After each run drains to
//! quiescence the campaign audits global invariants:
//!
//! * **ops-resolved** — every client operation reached a verdict
//!   (success or typed failure); nothing hangs;
//! * **no-duplicate-object** — no LOID is alive as two object endpoints
//!   (duplicated recovery triggers never double-activate);
//! * **no-lost-object** — HA recovered everything a crash took down;
//! * **recovery-drained** — no recovery is still in flight;
//! * **no-leaked-continuations** — Magistrates and classes hold zero
//!   outstanding call continuations (the deadline sweep resolved every
//!   reply the network ate);
//! * **holders-bounded** — a class remembers who holds a row's address
//!   only while the row has one, and never more holders than there are
//!   Binding Agents (the notice bookkeeping cannot leak);
//! * **binding-coherence** — after the dust settles, every object still
//!   resolves through its class and answers a `Ping` at the resolved
//!   address.
//!
//! Each schedule runs twice and must produce bit-identical outcomes; a
//! violating schedule is delta-debugged to a 1-minimal reproducer. The
//! second table demonstrates the loop end to end on a deliberately
//! broken target (kernel dedup disabled): the campaign catches the
//! at-most-once breach and shrinks each violating schedule down to
//! duplication alone.

use crate::experiments::common::{attach_clients, run_clients, scale};
use crate::harness::{Closed, Journal, Watch};
use crate::report::Table;
use crate::system::{HaConfig, LegionSystem, SystemConfig};
use crate::workload::WorkloadConfig;
use legion_chaos::{
    run_campaign, CampaignReport, ChaosSchedule, ChaosTarget, RunOutcome, ScheduleBounds, Violation,
};
use legion_core::env::InvocationEnv;
use legion_core::loid::Loid;
use legion_core::object::methods as obj_m;
use legion_core::time::SimTime;
use legion_journal::{MemSink, ReplayStart};
use legion_naming::protocol::GET_BINDING;
use legion_net::dispatch::Caller;
use legion_net::message::Message;
use legion_net::sim::{Ctx, Endpoint, EndpointId, SimKernel};
use legion_net::topology::{Location, Topology};
use legion_net::FaultPlan;
use legion_runtime::class_endpoint::ClassEndpoint;
use legion_runtime::magistrate::MagistrateEndpoint;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Ops each client issues.
const OPS: u32 = 30;
/// Fault windows and crashes land inside this span after workload start.
const FAULT_HORIZON_NS: u64 = 400_000_000;
/// Outstanding Magistrate/class calls expire after this long.
const CALL_DEADLINE_NS: u64 = 500_000_000;

/// Chaos-tolerant failure-detection knobs: with ambient message drops on
/// the heartbeat path, `dead_after` must make a run of accidental losses
/// astronomically unlikely (p^8 at p ≤ 0.05) while staying far quicker
/// than the fault horizon. The horizon is *absolute* virtual time and
/// must clear the WAN-heavy build (several virtual seconds) plus the
/// workload and its retry tails.
fn chaos_ha() -> HaConfig {
    HaConfig {
        heartbeat_interval_ns: 2_000_000,
        sweep_interval_ns: 2_000_000,
        horizon_ns: 40_000_000_000,
        suspect_after: 4,
        dead_after: 8,
    }
}

/// The campaign's schedule envelope (public so golden/replay tests can
/// regenerate the exact schedules the campaign runs).
pub fn campaign_bounds() -> ScheduleBounds {
    ScheduleBounds {
        jurisdictions: 2,
        hosts: 4,
        horizon_ns: FAULT_HORIZON_NS,
        ..ScheduleBounds::default()
    }
}

/// Snapshot cadence for journaled chaos runs: frequent enough that a
/// reproducer replays from deep inside the run, rare enough to stay
/// cheap against the tens of thousands of events a run processes.
const CHAOS_SNAP_EVERY: u64 = 1024;

/// Per-run accounting the campaign table aggregates (keyed by the
/// schedule's canonical string; identical runs overwrite identically).
#[derive(Debug, Clone, Copy, Default)]
struct RunStats {
    crashes: u64,
    completed: u64,
    failed: u64,
    recovered: u64,
    timeouts: u64,
}

/// SplitMix64-style accumulator for the run digest (E18 folds with it too).
pub fn mix(h: u64, v: u64) -> u64 {
    let mut x = h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^ (x >> 27)
}

/// The state invariants any drained run must satisfy, over the system's
/// Magistrates and the given class endpoints (E18 passes its clones too):
/// no-duplicate-object, no-lost-object, recovery-drained,
/// no-leaked-continuations and holders-bounded.
pub fn audit_state(sys: &mut LegionSystem, classes: &[EndpointId]) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut alive: BTreeMap<String, u32> = BTreeMap::new();
    for (_, m) in sys.kernel.all_meta() {
        if m.alive && m.name.starts_with("obj:") {
            *alive.entry(m.name.clone()).or_insert(0) += 1;
        }
    }
    for (name, n) in alive.iter().filter(|(_, n)| **n > 1) {
        violations.push(Violation::new(
            "no-duplicate-object",
            format!("{name} is alive {n} times"),
        ));
    }

    let ha = super::e15_crash_recovery::ha_totals(sys);
    let unrecoverable = sys.kernel.counters().get("magistrate.ha_unrecoverable");
    if ha.lost > 0 || unrecoverable > 0 {
        violations.push(Violation::new(
            "no-lost-object",
            format!("{} lost, {unrecoverable} unrecoverable", ha.lost),
        ));
    }
    if ha.in_flight > 0 {
        violations.push(Violation::new(
            "recovery-drained",
            format!("{} recoveries still in flight at quiescence", ha.in_flight),
        ));
    }

    let mut leaked = 0;
    for (_, mep) in &sys.magistrates {
        let m = sys.kernel.endpoint_mut::<MagistrateEndpoint>(*mep);
        leaked += m.map_or(0, |m| m.calls().outstanding());
    }
    for cep in classes {
        let c = sys.kernel.endpoint_mut::<ClassEndpoint>(*cep);
        leaked += c.map_or(0, |c| c.calls().outstanding());
    }
    if leaked > 0 {
        violations.push(Violation::new(
            "no-leaked-continuations",
            format!("{leaked} continuations outstanding at quiescence"),
        ));
    }

    let agents = sys.agents.len();
    for cep in classes {
        let Some(c) = sys.kernel.endpoint::<ClassEndpoint>(*cep) else {
            continue;
        };
        for (loid, holders) in c.holder_counts() {
            let bound = c.class().table.get(&loid).map(|row| row.address.is_some());
            if bound != Some(true) || holders > agents {
                violations.push(Violation::new(
                    "holders-bounded",
                    format!(
                        "{loid}: {holders} holders of {agents} agents, address bound: {bound:?}"
                    ),
                ));
            }
        }
    }
    violations
}

/// Resolve `obj` through its class and `Ping` it, following the §4.1.4
/// client protocol: a first-ping failure reports the stale binding back
/// to the class (which re-consults its Magistrate) and retries once.
/// Faults may legitimately leave a class row stale — what must hold is
/// that one detect-and-refresh round restores coherence.
fn resolve_and_ping(
    sys: &mut LegionSystem,
    class_addr: legion_core::address::ObjectAddressElement,
    class_loid: Loid,
    obj: Loid,
) -> Result<(), String> {
    let ping = |sys: &mut LegionSystem, b: &legion_core::binding::Binding| {
        let primary = b
            .address
            .primary()
            .copied()
            .ok_or_else(|| "binding has no address".to_string())?;
        sys.call(primary, obj, obj_m::PING, vec![]).map(|_| ())
    };
    let b = sys.call_for_binding(
        class_addr,
        class_loid,
        GET_BINDING,
        vec![legion_core::value::LegionValue::Loid(obj)],
    )?;
    if ping(sys, &b).is_ok() {
        return Ok(());
    }
    let fresh = sys.call_for_binding(
        class_addr,
        class_loid,
        GET_BINDING,
        vec![legion_core::value::LegionValue::from(b)],
    )?;
    ping(sys, &fresh)
}

/// The full Legion system as a chaos target: one fresh build per run,
/// faults switched on only after the (fault-free) build settles.
pub struct SimChaosTarget {
    clients: usize,
    stats: HashMap<String, RunStats>,
}

impl SimChaosTarget {
    /// A target driving `clients` workload clients per run.
    pub fn new(clients: usize) -> Self {
        SimChaosTarget {
            clients,
            stats: HashMap::new(),
        }
    }
}

impl ChaosTarget for SimChaosTarget {
    fn run(&mut self, schedule: &ChaosSchedule) -> RunOutcome {
        self.run_watched(schedule, Watch::off()).0
    }

    fn run_recorded(&mut self, schedule: &ChaosSchedule) -> (RunOutcome, Option<Vec<u8>>) {
        let sink = MemSink::new();
        let journal = Journal::Record {
            sink: Box::new(sink.clone()),
            snap_every: CHAOS_SNAP_EVERY,
        };
        let (outcome, run) = self.run_watched(schedule, Watch::journal_only(journal));
        run.expect("journal sink failed");
        (outcome, Some(sink.contents()))
    }

    /// Fast-forwards through the latest snapshot's root check.
    fn run_replayed(&mut self, schedule: &ChaosSchedule, journal: &[u8]) -> RunOutcome {
        let journal = Journal::Verify {
            journal: journal.to_vec(),
            start: ReplayStart::LatestSnapshot,
        };
        let (outcome, run) = self.run_watched(schedule, Watch::journal_only(journal));
        if let Some(div) = run.expect("reference journal must parse").divergence() {
            panic!("chaos replay diverged from its recording for {schedule}:\n{div}");
        }
        outcome
    }
}

/// Arm `schedule` on a built system. Its spike and flap windows are
/// relative to the workload start: shift them past the (virtually long)
/// build first. Fault verdicts are a pure function of `seed ^ msg_id`, so
/// a replay armed the same way sees the same ones.
pub fn arm(kernel: &mut SimKernel, schedule: &ChaosSchedule) {
    let t0 = kernel.now().0;
    let mut shifted = schedule.clone();
    for s in &mut shifted.spikes {
        s.from_ns += t0;
        s.until_ns += t0;
    }
    for f in &mut shifted.flaps {
        f.from_ns += t0;
        f.until_ns += t0;
    }
    *kernel.faults_mut() = shifted.fault_plan();
}

impl SimChaosTarget {
    /// One run under `watch`. The session opens after the (identical,
    /// fault-free) build and before any fault is armed; `measure` zeroes
    /// the event counter, so record and replay hit the same snapshot
    /// cadence.
    fn run_watched(&mut self, schedule: &ChaosSchedule, watch: Watch) -> (RunOutcome, Closed) {
        let cfg = SystemConfig {
            jurisdictions: 2,
            hosts_per_jurisdiction: 2,
            host_capacity: 4096,
            classes: 2,
            objects_per_class: 4,
            ha: Some(chaos_ha()),
            call_deadline_ns: Some(CALL_DEADLINE_NS),
            seed: schedule.seed,
            ..SystemConfig::default()
        };
        let mut sys = LegionSystem::build(cfg);
        let session = watch.open(&mut sys.kernel);
        session.measure(&mut sys.kernel);
        let t0 = sys.kernel.now().0;
        arm(&mut sys.kernel, schedule);

        let wl = WorkloadConfig {
            lookups_per_client: OPS,
            invoke_after_resolve: true,
            inter_arrival_ns: 2_000_000,
            op_retry_attempts: 6,
            ..WorkloadConfig::default()
        };
        let clients = attach_clients(&mut sys, self.clients, &wl, schedule.seed, None);

        // Crash at most one host per jurisdiction, so every recovery has
        // a surviving host to land on — losing a whole jurisdiction is
        // legitimately unrecoverable and would only test the generator.
        let mut hit = BTreeSet::new();
        for c in &schedule.crashes {
            let idx = c.host as usize % sys.hosts.len();
            let j = sys.hosts[idx].2;
            if hit.insert(j) {
                sys.kernel.run_until(SimTime(t0 + c.at_ns));
                sys.crash_host(idx);
            }
        }
        let crashes = hit.len() as u64;

        let report = run_clients(&mut sys, &clients);
        sys.kernel.run_until_quiescent(50_000_000);

        // ----- digest: captured at quiescence, before audit probes -----
        let k = &sys.kernel;
        let mut digest = mix(0x45_31_36, schedule.seed); // "E16"
        digest = mix(digest, k.now().0);
        digest = mix(digest, k.stats().sent);
        digest = mix(digest, k.stats().delivered);
        digest = mix(digest, k.stats().lost);
        digest = mix(digest, report.completed);
        digest = mix(digest, report.failed);
        for c in [
            "client.op_retry",
            "client.binding_timeout",
            "magistrate.timeouts",
            "class.timeouts",
            "ba.timeout",
            "magistrate.ha_recoveries",
            "magistrate.ha_duplicate_trigger",
        ] {
            digest = mix(digest, k.counters().get(c));
        }

        // ----- invariants --------------------------------------------
        let mut violations = Vec::new();

        let expected = self.clients as u64 * OPS as u64;
        let attempted = report.completed + report.failed;
        if attempted != expected {
            violations.push(Violation::new(
                "ops-resolved",
                format!("{attempted} of {expected} client operations reached a verdict"),
            ));
        }

        let classes: Vec<EndpointId> = sys.classes.iter().map(|(_, e)| *e).collect();
        violations.extend(audit_state(&mut sys, &classes));

        // Audit probes run on a clean network: the faults were the
        // experiment, the audit must not inherit them.
        *sys.kernel.faults_mut() = FaultPlan::none();
        for (obj, _) in sys.objects.clone() {
            let class_loid = obj.class_loid();
            let Some(cep) = sys
                .classes
                .iter()
                .find(|(l, _)| *l == class_loid)
                .map(|(_, e)| *e)
            else {
                continue;
            };
            if let Err(e) = resolve_and_ping(&mut sys, cep.element(), class_loid, obj) {
                violations.push(Violation::new(
                    "binding-coherence",
                    format!("{obj} does not resolve+ping after the campaign: {e}"),
                ));
            }
        }

        self.stats.insert(
            schedule.to_string(),
            RunStats {
                crashes,
                completed: report.completed,
                failed: report.failed,
                recovered: super::e15_crash_recovery::ha_totals(&sys).recovered,
                timeouts: sys.kernel.counters().get("magistrate.timeouts")
                    + sys.kernel.counters().get("class.timeouts")
                    + sys.kernel.counters().get("ba.timeout"),
            },
        );
        if !violations.is_empty() {
            // Post-mortem context for the failed invariant: the last
            // kernel events leading up to the verdict, stamped with the
            // journal seq and nearest snapshot when a session is live.
            eprintln!("{}", sys.kernel.flight_dump("chaos invariant violated", 64));
        }
        let run = session.close(&mut sys.kernel);
        (RunOutcome { violations, digest }, run)
    }
}

/// One campaign's aggregated row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Campaign label.
    pub campaign: &'static str,
    /// Schedules run.
    pub seeds: u64,
    /// Schedules that injected at least one fault.
    pub faulty: u64,
    /// Hosts actually crashed across the campaign.
    pub crashes: u64,
    /// Client operations that succeeded / permanently failed.
    pub completed: u64,
    /// Permanently failed operations (still a verdict — not a hang).
    pub failed: u64,
    /// Objects HA re-activated after crashes.
    pub recovered: u64,
    /// Deadline-sweep timeouts fired (Magistrate + class + agent).
    pub timeouts: u64,
    /// Invariant violations across every schedule (must be 0).
    pub violations: u64,
    /// XOR-fold of all per-seed digests (bit-reproducibility witness).
    pub digest: u64,
}

fn campaign_row(label: &'static str, report: &CampaignReport, target: &SimChaosTarget) -> Row {
    let mut row = Row {
        campaign: label,
        seeds: report.seeds.len() as u64,
        faulty: report
            .seeds
            .iter()
            .filter(|s| !s.schedule.is_quiet())
            .count() as u64,
        crashes: 0,
        completed: 0,
        failed: 0,
        recovered: 0,
        timeouts: 0,
        violations: report.seeds.iter().map(|s| s.violations.len() as u64).sum(),
        digest: report.campaign_digest(),
    };
    for s in &report.seeds {
        let Some(st) = target.stats.get(&s.schedule.to_string()) else {
            continue;
        };
        row.crashes += st.crashes;
        row.completed += st.completed;
        row.failed += st.failed;
        row.recovered += st.recovered;
        row.timeouts += st.timeouts;
    }
    row
}

// ---------------------------------------------------------------------
// The deliberately broken target for the shrink demonstration.
// ---------------------------------------------------------------------

/// A non-idempotent endpoint: every delivered call executes.
#[derive(Default)]
struct Counter {
    executions: u64,
}

impl Endpoint for Counter {
    fn on_message(&mut self, _ctx: &mut Ctx<'_>, msg: Message) {
        if !msg.is_reply() {
            self.executions += 1;
        }
    }
}

const DEMO_CALLS: u64 = 120;

/// A target whose at-most-once shield (kernel dedup) is switched off —
/// the bug the campaign must catch and shrink.
struct BrokenDedupTarget;

impl ChaosTarget for BrokenDedupTarget {
    fn run(&mut self, schedule: &ChaosSchedule) -> RunOutcome {
        let mut k = SimKernel::new(Topology::default(), schedule.fault_plan(), schedule.seed);
        k.set_dedup_enabled(false);
        let counter = k.add_endpoint(Box::new(Counter::default()), Location::new(0, 0), "counter");
        for _ in 0..DEMO_CALLS {
            let id = k.fresh_call_id();
            let msg = Message::call(
                id,
                Loid::instance(9, 1),
                "Bump",
                vec![],
                InvocationEnv::anonymous(),
            );
            k.inject(Location::new(1, 0), counter.element(), msg);
        }
        k.run_until_quiescent(100_000);
        let executions = k.endpoint::<Counter>(counter).unwrap().executions;
        let digest = mix(mix(0xDED0, executions), k.stats().delivered);
        let mut violations = Vec::new();
        if executions > DEMO_CALLS {
            violations.push(Violation::new(
                "at-most-once",
                format!("{executions} executions for {DEMO_CALLS} logical calls"),
            ));
        }
        RunOutcome { violations, digest }
    }
}

/// One shrunk reproducer from the broken-target demonstration.
#[derive(Debug, Clone, PartialEq)]
pub struct ShrinkRow {
    /// Campaign seed that violated.
    pub seed: u64,
    /// The invariant the minimal schedule still breaches.
    pub invariant: String,
    /// Removable parts before → after shrinking.
    pub weight_before: usize,
    /// Removable parts in the minimal reproducer.
    pub weight_after: usize,
    /// Target re-runs the shrinker spent.
    pub runs: usize,
    /// The minimal reproducer, in the schedule grammar.
    pub reproducer: String,
}

/// Run E16: the hardened campaign (zero violations expected) and the
/// broken-dedup demonstration (violations caught and shrunk).
pub fn run(scale: u32, base_seed: u64) -> (Vec<Row>, Vec<ShrinkRow>) {
    let seeds = if scale <= 1 { 12 } else { 50 };
    let mut target = SimChaosTarget::new(4);
    let report = run_campaign(&mut target, base_seed, seeds, &campaign_bounds());
    let rows = vec![campaign_row("hardened", &report, &target)];

    let demo_bounds = ScheduleBounds {
        jurisdictions: 2,
        hosts: 0,
        max_duplicate: 0.15,
        ..ScheduleBounds::default()
    };
    let demo = run_campaign(&mut BrokenDedupTarget, base_seed, 20, &demo_bounds);
    let shrinks = demo
        .violating()
        .map(|s| {
            let shrunk = s.shrunk.as_ref().expect("violating seeds are shrunk");
            ShrinkRow {
                seed: s.seed,
                invariant: shrunk.violations[0].invariant.clone(),
                weight_before: s.schedule.weight(),
                weight_after: shrunk.schedule.weight(),
                runs: shrunk.runs,
                reproducer: shrunk.schedule.to_string(),
            }
        })
        .collect();
    (rows, shrinks)
}

/// The observed point: the hardened campaign's first schedule.
pub fn observed(_quick: bool, seed: u64, watch: Watch) -> Closed {
    let schedule = ChaosSchedule::generate(seed, &campaign_bounds());
    SimChaosTarget::new(4).run_watched(&schedule, watch).1
}

/// What `legion-exp e16` prints.
pub fn tables(quick: bool, seed: u64) -> Vec<Table> {
    let (rows, shrinks) = run(scale(quick), seed);
    let (t1, t2) = table(&rows, &shrinks);
    vec![t1, t2]
}

/// Render the EXPERIMENTS.md tables.
pub fn table(rows: &[Row], shrinks: &[ShrinkRow]) -> (Table, Table) {
    let mut t = Table::new(
        "E16 — deterministic chaos campaign (drops, duplication, reorder, spikes, flaps, crashes)",
        &[
            "campaign",
            "schedules",
            "faulty",
            "crashes",
            "completed",
            "failed",
            "recovered",
            "timeouts",
            "violations",
            "digest",
        ],
    );
    for r in rows {
        t.row(vec![
            r.campaign.to_string(),
            r.seeds.to_string(),
            r.faulty.to_string(),
            r.crashes.to_string(),
            r.completed.to_string(),
            r.failed.to_string(),
            r.recovered.to_string(),
            r.timeouts.to_string(),
            r.violations.to_string(),
            format!("{:016x}", r.digest),
        ]);
    }
    let mut s = Table::new(
        "E16 — broken dedup caught and shrunk to minimal reproducers",
        &[
            "seed",
            "invariant",
            "weight",
            "shrink runs",
            "minimal reproducer",
        ],
    );
    for r in shrinks {
        s.row(vec![
            r.seed.to_string(),
            r.invariant.clone(),
            format!("{}→{}", r.weight_before, r.weight_after),
            r.runs.to_string(),
            r.reproducer.clone(),
        ]);
    }
    (t, s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use legion_chaos::CrashEvent;

    #[test]
    fn quiet_schedule_is_a_clean_baseline() {
        let mut target = SimChaosTarget::new(2);
        let outcome = target.run(&ChaosSchedule::quiet(7));
        assert!(
            outcome.violations.is_empty(),
            "fault-free run must satisfy every invariant: {:?}",
            outcome.violations
        );
        let st = target.stats.values().next().expect("stats recorded");
        assert_eq!(st.completed, 2 * OPS as u64, "all ops succeed unfaulted");
        assert_eq!(st.failed, 0);
    }

    #[test]
    fn adversarial_campaign_holds_every_invariant() {
        let mut target = SimChaosTarget::new(4);
        let report = run_campaign(&mut target, 3, 6, &campaign_bounds());
        for s in &report.seeds {
            assert!(
                s.violations.is_empty(),
                "seed {} ({}) violated: {:?}",
                s.seed,
                s.schedule,
                s.violations
            );
        }
        assert!(
            report.seeds.iter().any(|s| !s.schedule.is_quiet()),
            "campaign never injected a fault — bounds too tight"
        );
    }

    /// The chaos target must actually journal its runs: the campaign's
    /// reproducibility check is a *verified re-execution* (every kernel
    /// ingress compared, snapshot roots proving mid-run state identity),
    /// not just an outcome comparison.
    #[test]
    fn recorded_run_replays_from_latest_snapshot() {
        let mut target = SimChaosTarget::new(2);
        let schedule = ChaosSchedule::generate(5, &campaign_bounds());
        let (outcome, journal) = target.run_recorded(&schedule);
        let journal = journal.expect("SimChaosTarget records a journal");
        assert!(!journal.is_empty());
        let replay = target.run_replayed(&schedule, &journal);
        assert_eq!(outcome, replay);
    }

    #[test]
    fn campaign_is_bit_reproducible() {
        let a = run_campaign(&mut SimChaosTarget::new(3), 11, 3, &campaign_bounds());
        let b = run_campaign(&mut SimChaosTarget::new(3), 11, 3, &campaign_bounds());
        assert_eq!(a.campaign_digest(), b.campaign_digest());
        for (x, y) in a.seeds.iter().zip(b.seeds.iter()) {
            assert_eq!(x.digest, y.digest, "seed {} diverged", x.seed);
        }
    }

    /// Satellite (d) end to end: a host crash while every message has a
    /// 30% chance of being duplicated. Duplicated heartbeat-silence
    /// verdicts and duplicated activation traffic must still produce
    /// exactly one activation per LOID — checked by the
    /// `no-duplicate-object` invariant over live endpoint names — and
    /// recovery must actually happen.
    #[test]
    fn crash_under_heavy_duplication_activates_each_object_once() {
        let mut target = SimChaosTarget::new(3);
        let schedule = ChaosSchedule {
            duplicate_probability: 0.3,
            crashes: vec![CrashEvent {
                at_ns: 50_000_000,
                host: 1,
            }],
            ..ChaosSchedule::quiet(21)
        };
        let outcome = target.run(&schedule);
        assert!(
            outcome.violations.is_empty(),
            "duplication around a crash violated: {:?}",
            outcome.violations
        );
        let st = target
            .stats
            .get(&schedule.to_string())
            .expect("stats recorded");
        assert!(st.recovered > 0, "the crash was never detected/recovered");
    }

    #[test]
    fn broken_dedup_is_caught_and_shrunk() {
        let (_, shrinks) = {
            let demo_bounds = ScheduleBounds {
                jurisdictions: 2,
                hosts: 0,
                max_duplicate: 0.15,
                ..ScheduleBounds::default()
            };
            let demo = run_campaign(&mut BrokenDedupTarget, 0, 20, &demo_bounds);
            let shrinks: Vec<_> = demo
                .violating()
                .map(|s| s.shrunk.clone().expect("shrunk"))
                .collect();
            ((), shrinks)
        };
        assert!(!shrinks.is_empty(), "20 seeds never double-delivered");
        for s in &shrinks {
            assert_eq!(s.schedule.weight(), 1, "1-minimal: {}", s.schedule);
            assert!(s.schedule.duplicate_probability > 0.0, "{}", s.schedule);
            assert_eq!(s.violations[0].invariant, "at-most-once");
        }
    }
}
