//! The chaos judge: is a drained [`LegionSystem`] healthy?
//!
//! Every campaign that attacks the system — E16's adversarial delivery,
//! E18's overload, E8's migration churn — ends the same way: drain the
//! kernel, then hand the system to [`judge`], which checks the one list
//! of invariants below and names each breach as a [`Violation`]:
//!
//! * **ops-resolved** — every client operation the run was asked for
//!   reached a verdict (success or typed failure); nothing hangs;
//! * **no-duplicate-object** — no LOID is alive as two object endpoints
//!   (Fig. 11: an object is active at most once, so duplicated recovery
//!   triggers never double-activate);
//! * **no-lost-object** — HA recovered everything a crash took down;
//! * **recovery-drained** — no recovery is still in flight;
//! * **no-leaked-continuations** — Magistrates and classes hold zero
//!   outstanding call continuations (the deadline sweep resolved every
//!   reply the network ate);
//! * **holders-bounded** — a class remembers who holds a row's address
//!   only while the row has one, and never more holders than there are
//!   Binding Agents (the notice bookkeeping cannot leak);
//! * **no-unbounded-queue** — an admission-gated class's backlog and
//!   deferred-call high-water marks stay within its queue depth
//!   (overload may shed work, never queue it without bound);
//! * **binding-coherence** — on a fault-free network every object still
//!   resolves through its class and answers a `Ping` at the resolved
//!   address, after at most the one §4.1.4 detect-and-refresh round a
//!   stale binding is owed.
//!
//! When any check fails, the kernel's flight recorder is dumped to
//! stderr. The module also holds what the campaigns share around the
//! verdict: the digest fold [`mix`], fault arming [`arm`] and the HA
//! ledger [`ha_totals`].

use crate::system::LegionSystem;
use legion_chaos::{ChaosSchedule, Violation};
use legion_core::address::ObjectAddressElement;
use legion_core::binding::Binding;
use legion_core::loid::Loid;
use legion_core::object::methods as obj_m;
use legion_core::value::LegionValue;
use legion_naming::protocol::GET_BINDING;
use legion_net::dispatch::Caller;
use legion_net::metrics::Histogram;
use legion_net::sim::{EndpointId, SimKernel};
use legion_net::FaultPlan;
use legion_runtime::class_endpoint::ClassEndpoint;
use legion_runtime::magistrate::MagistrateEndpoint;
use std::collections::BTreeMap;

/// SplitMix64-style accumulator for a run digest.
pub fn mix(h: u64, v: u64) -> u64 {
    let mut x = h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^ (x >> 27)
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

/// Recovery accounting summed over every Magistrate in the system.
#[derive(Debug, Default)]
pub struct HaTotals {
    /// Merged time-to-detect histogram.
    pub detect: Histogram,
    /// Merged time-to-recover histogram.
    pub recover: Histogram,
    /// Hosts confirmed dead.
    pub hosts_lost: u64,
    /// Objects re-activated.
    pub recovered: u64,
    /// Objects lost for good.
    pub lost: u64,
    /// False-positive Dead verdicts.
    pub false_positives: u64,
    /// Recoveries still in flight when the run ended.
    pub in_flight: usize,
}

/// Sum the per-Magistrate [`legion_ha::RecoveryTracker`]s.
pub fn ha_totals(sys: &LegionSystem) -> HaTotals {
    let mut t = HaTotals::default();
    for (_, mep) in &sys.magistrates {
        let Some(tr) = sys
            .kernel
            .endpoint::<MagistrateEndpoint>(*mep)
            .and_then(|m| m.ha_tracker())
        else {
            continue;
        };
        t.detect.merge(&tr.detect);
        t.recover.merge(&tr.recover);
        t.hosts_lost += tr.hosts_lost;
        t.recovered += tr.recovered;
        t.lost += tr.lost;
        t.false_positives += tr.false_positives;
        t.in_flight += tr.in_flight();
    }
    t
}

/// One admission-gated class's high-water marks and the queue depth
/// both must stay within.
#[derive(Debug, Clone, Copy)]
pub struct QueuePeaks {
    /// Calls waiting or in service at the fullest offer.
    pub backlog: u64,
    /// Most calls deferred at once.
    pub deferred: u64,
    /// The class's configured admission queue depth.
    pub depth: u64,
}

/// `class`'s queue marks, or `None` if it is not a live class endpoint
/// with admission control.
pub fn queue_peaks(sys: &LegionSystem, class: EndpointId) -> Option<QueuePeaks> {
    let c = sys.kernel.endpoint::<ClassEndpoint>(class)?;
    let a = c.admission()?;
    Some(QueuePeaks {
        backlog: a.peak_backlog(),
        deferred: c.deferred_peak() as u64,
        depth: a.config().queue_depth,
    })
}

/// Judge a drained system against every invariant in the module docs.
/// `attempted` of the `expected` client operations reached a verdict;
/// `classes` are the class endpoints whose continuations, holders and
/// queues are audited (E18 passes its Derive-spawned clones too). The
/// coherence probes clear the fault plan first — the faults were the
/// experiment, the audit must not inherit them — and send real calls,
/// so judge after the run digest is taken.
pub fn judge(
    sys: &mut LegionSystem,
    classes: &[EndpointId],
    attempted: u64,
    expected: u64,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    if attempted != expected {
        violations.push(Violation::new(
            "ops-resolved",
            format!("{attempted} of {expected} client operations reached a verdict"),
        ));
    }
    violations.extend(audit_state(sys, classes));
    for cep in classes {
        let Some(p) = queue_peaks(sys, *cep) else {
            continue;
        };
        for (what, peak) in [
            ("admission backlog", p.backlog),
            ("deferred calls", p.deferred),
        ] {
            if peak > p.depth {
                violations.push(Violation::new(
                    "no-unbounded-queue",
                    format!("class {cep}: {what} peaked at {peak} > depth {}", p.depth),
                ));
            }
        }
    }

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
        if let Err(e) = resolve_and_ping(sys, cep.element(), class_loid, obj) {
            violations.push(Violation::new(
                "binding-coherence",
                format!("{obj} does not resolve+ping after the campaign: {e}"),
            ));
        }
    }

    if !violations.is_empty() {
        // Post-mortem context for the failed invariant: the last kernel
        // events leading up to the verdict, stamped with the journal seq
        // and nearest snapshot when a session is live.
        eprintln!("{}", sys.kernel.flight_dump("chaos invariant violated", 64));
    }
    violations
}

/// The state invariants, over the system's Magistrates and `classes`:
/// no-duplicate-object, no-lost-object, recovery-drained,
/// no-leaked-continuations and holders-bounded.
fn audit_state(sys: &mut LegionSystem, classes: &[EndpointId]) -> Vec<Violation> {
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

    let ha = ha_totals(sys);
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
    class_addr: ObjectAddressElement,
    class_loid: Loid,
    obj: Loid,
) -> Result<(), String> {
    let ping = |sys: &mut LegionSystem, b: &Binding| {
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
        vec![LegionValue::Loid(obj)],
    )?;
    if ping(sys, &b).is_ok() {
        return Ok(());
    }
    let fresh = sys.call_for_binding(
        class_addr,
        class_loid,
        GET_BINDING,
        vec![LegionValue::from(b)],
    )?;
    ping(sys, &fresh)
}

#[cfg(test)]
mod tests {
    //! One planted breach per invariant the public API can break: each
    //! test judges the healthy system first (quiet), then breaks it and
    //! judges again (the check fires).
    use super::*;
    use crate::system::{HaConfig, SystemConfig};
    use legion_core::address::ObjectAddress;
    use legion_net::message::Message;
    use legion_net::sim::{Ctx, Endpoint};
    use legion_net::topology::Location;
    use legion_runtime::protocol::{class as class_proto, magistrate as mag_proto};

    fn build(ha: Option<HaConfig>) -> (LegionSystem, Vec<EndpointId>) {
        let sys = LegionSystem::build(SystemConfig {
            jurisdictions: 2,
            hosts_per_jurisdiction: 2,
            objects_per_class: 4,
            ha,
            ..SystemConfig::default()
        });
        let classes = sys.classes.iter().map(|(_, e)| *e).collect();
        (sys, classes)
    }

    /// The invariants `judge` names, in its order.
    fn verdict(sys: &mut LegionSystem, classes: &[EndpointId]) -> Vec<String> {
        judge(sys, classes, 0, 0)
            .into_iter()
            .map(|v| v.invariant)
            .collect()
    }

    /// An endpoint that answers nothing.
    struct Mute;

    impl Endpoint for Mute {
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Message) {}
    }

    #[test]
    fn ops_short_of_expected_are_unresolved() {
        let (mut sys, classes) = build(None);
        assert!(judge(&mut sys, &classes, 10, 10).is_empty());
        let v = judge(&mut sys, &classes, 9, 10);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "ops-resolved");
        assert_eq!(v[0].detail, "9 of 10 client operations reached a verdict");
    }

    #[test]
    fn a_second_live_object_endpoint_is_a_duplicate() {
        let (mut sys, classes) = build(None);
        assert!(verdict(&mut sys, &classes).is_empty());
        let obj = sys.objects[0].0;
        sys.kernel
            .add_endpoint(Box::new(Mute), Location::new(1, 900), format!("obj:{obj}"));
        assert_eq!(verdict(&mut sys, &classes), ["no-duplicate-object"]);
    }

    /// HA re-homes a crashed host's objects inside its jurisdiction:
    /// mid-recovery the judge sees the recovery in flight, once drained
    /// it sees nothing (no-lost-object quiet included).
    #[test]
    fn a_recovery_in_flight_is_undrained() {
        let (mut sys, classes) = build(Some(HaConfig::default()));
        sys.crash_host(0);
        let mut steps = 0;
        while ha_totals(&sys).in_flight == 0 && sys.kernel.step() {
            steps += 1;
            assert!(steps < 1_000_000, "the crash was never detected");
        }
        assert!(verdict(&mut sys, &classes).contains(&"recovery-drained".to_string()));
        sys.kernel.run_until_quiescent(u64::MAX);
        assert!(ha_totals(&sys).recovered > 0);
        assert!(verdict(&mut sys, &classes).is_empty());
    }

    /// With both hosts of a jurisdiction down there is nowhere to re-home
    /// their objects. (Judging first would run the kernel past the HA
    /// horizon, so the quiet side is the single crash above.)
    #[test]
    fn a_jurisdiction_without_hosts_loses_its_objects() {
        let (mut sys, classes) = build(Some(HaConfig::default()));
        let doomed: Vec<usize> = (0..sys.hosts.len())
            .filter(|i| sys.hosts[*i].2 == 0)
            .collect();
        assert_eq!(doomed.len(), 2);
        for i in doomed {
            sys.crash_host(i);
        }
        sys.kernel.run_until_quiescent(u64::MAX);
        assert!(verdict(&mut sys, &classes).contains(&"no-lost-object".to_string()));
    }

    /// A class (jurisdiction 0) consults the Magistrate of an object
    /// created in jurisdiction 1 across a partition: the call is eaten,
    /// and with no call deadline set nothing ever expires it.
    #[test]
    fn an_eaten_reply_leaks_a_continuation() {
        let (mut sys, classes) = build(None);
        assert!(verdict(&mut sys, &classes).is_empty());
        let (class_loid, cep) = sys.classes[0];
        let (obj, _) = *sys
            .objects
            .iter()
            .find(|(_, j)| *j == 1)
            .expect("one in j1");
        let stale = Binding::forever(
            obj,
            ObjectAddress::single(ObjectAddressElement::ipv4([10, 0, 0, 1], 4000)),
        );
        sys.kernel.faults_mut().partition(0, 1);
        let refresh = sys.call(
            cep.element(),
            class_loid,
            GET_BINDING,
            vec![LegionValue::from(stale)],
        );
        assert!(refresh.is_err(), "{refresh:?}");
        assert_eq!(verdict(&mut sys, &classes), ["no-leaked-continuations"]);
    }

    /// §4.1.4: a class row pointed at a bogus element answers a binding
    /// that fails in use; the one refresh the probe allows re-consults
    /// the Magistrate and heals the row, so the judge reports nothing.
    #[test]
    fn one_refresh_heals_a_stale_class_row() {
        let (mut sys, classes) = build(None);
        let (class_loid, cep) = sys.classes[0];
        let obj = sys.objects[0].0;
        let bogus = ObjectAddress::single(ObjectAddressElement::ipv4([10, 0, 0, 1], 4000));
        let set = sys.call(
            cep.element(),
            class_loid,
            class_proto::SET_ADDRESS,
            vec![LegionValue::Loid(obj), LegionValue::Address(bogus.clone())],
        );
        assert_eq!(set, Ok(LegionValue::Void));
        let row = |sys: &LegionSystem| {
            let c = sys.kernel.endpoint::<ClassEndpoint>(cep).expect("class");
            c.class().table.get(&obj).and_then(|r| r.address.clone())
        };
        assert_eq!(row(&sys), Some(bogus.clone()));
        let consults =
            |sys: &LegionSystem| sys.kernel.counters().get("class.activates_for_binding");
        let before = consults(&sys);
        assert!(verdict(&mut sys, &classes).is_empty());
        assert_eq!(consults(&sys), before + 1, "the probe refreshed once");
        assert_ne!(row(&sys), Some(bogus));
    }

    #[test]
    fn an_object_deleted_behind_its_class_is_incoherent() {
        let (mut sys, classes) = build(None);
        assert!(verdict(&mut sys, &classes).is_empty());
        let (obj, j) = sys.objects[0];
        let (mag_loid, mep) = sys.magistrates[j as usize];
        let deleted = sys.call(
            mep.element(),
            mag_loid,
            mag_proto::DELETE,
            vec![LegionValue::Loid(obj)],
        );
        assert_eq!(deleted, Ok(LegionValue::Void));
        assert_eq!(verdict(&mut sys, &classes), ["binding-coherence"]);
    }
}
