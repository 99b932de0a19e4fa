//! E18 — overload survival: open-loop traffic, admission control, and
//! burn-driven auto-cloning.
//!
//! Every earlier experiment drives the system *closed-loop*: a client
//! issues its next operation only after the previous one settles, so an
//! overloaded server silently throttles its own offered load and
//! overload is unobservable by construction. E18 switches to open loop
//! ([`crate::workload::OpenLoopConfig`]): seeded Poisson arrivals keep
//! coming at the offered rate regardless of completions — which is what
//! real demand does — against a class endpoint whose admission queue
//! ([`legion_net::admission`]) doubles as its service model (a
//! deterministic M/D/1 server: 200 µs per call, 16 slots, saturation
//! 5000 calls/s).
//!
//! Two measurements:
//!
//! * **Degradation sweep** — a single admission-gated class under flat
//!   open-loop load at multiples of its saturation rate. Below
//!   saturation nothing sheds and latency is flat; past it goodput
//!   plateaus at capacity, the excess sheds with honest retry-after
//!   hints, and the backlog stays bounded at the queue depth. This is
//!   the load-shedding contract: *bounded* degradation, not collapse.
//!
//! * **Flash-crowd campaign** — steady traffic at 0.5× saturation, a
//!   flash crowd at 2× (the §5.2.2 "hot class" moment), then recovery,
//!   run twice: once with admission control alone, once with the
//!   burn-driven auto-scaler ([`legion_runtime::autoscale`]) closing the
//!   loop. In the second run the SLO tracker's online burn monitor turns
//!   sustained p99 violations into [`legion_obs::slo::BurnEvent`]s, the
//!   policy endpoint answers with `Derive()` — the E6 cloning machinery,
//!   unscripted — and each landed clone joins a round-robin front door.
//!   The campaign shows burn events firing, clones landing mid-flash,
//!   the shed fraction falling against the no-scaler baseline, and the
//!   recovery-phase p99 back inside the objective.
//!
//! After each campaign [`crate::judge::judge`] checks the drained system
//! against the one list of invariants E16 uses — no-unbounded-queue
//! among them: every class endpoint's admission backlog and
//! deferred-call high-water marks stay within its queue depth. Runs are
//! bit-deterministic per seed and survive verified journal replay.

use crate::experiments::common::{drive, scale};
use crate::harness::{Closed, Watch};
use crate::judge::{arm, judge, mix, queue_peaks};
use crate::report::Table;
use crate::system::{LegionSystem, SystemConfig};
use crate::workload::{generate_arrivals, FlashCrowd, OpenLoopClient, OpenLoopConfig, PhaseStats};
use legion_chaos::{ChaosSchedule, Violation};
use legion_core::loid::Loid;
use legion_core::symbol;
use legion_net::admission::AdmissionConfig;
use legion_net::sim::EndpointId;
use legion_net::topology::{Location, Topology};
use legion_obs::slo::{SloConfig, SloObjective};
use legion_runtime::autoscale::{AutoScalePolicy, AutoScaler, ReplicaRouter};
use legion_runtime::class_endpoint::ClassEndpoint;

/// The hot class's deterministic service time per data-plane call.
const SERVICE_NS: u64 = 200_000;
/// Admission queue depth (calls waiting or in service).
const QUEUE_DEPTH: u64 = 16;
/// SLO evaluation window.
const SLO_WINDOW_NS: u64 = 50_000_000;
/// The latency objective the burn monitor defends. The p99 bound sits
/// between healthy response times (≤ a few service times) and a full
/// queue (`QUEUE_DEPTH × SERVICE_NS` = 3.2 ms), so only real queueing
/// pressure burns budget.
const OBJECTIVE: SloObjective = SloObjective {
    p50_ns: 1_000_000,
    p99_ns: 2_000_000,
    error_budget: 0.05,
    burn_threshold: 2.0,
};
/// Per-tenant (Jurisdiction) rate weights for the flash campaign.
const TENANT_WEIGHTS: [f64; 4] = [3.0, 2.0, 1.0, 1.0];

/// Tenant `i`'s share of the flash campaign's offered rate: its weight
/// over the sum of [`TENANT_WEIGHTS`].
fn tenant_share(i: usize) -> f64 {
    TENANT_WEIGHTS[i] / TENANT_WEIGHTS.iter().sum::<f64>()
}

/// The admission model every class endpoint in E18 runs.
pub fn admission() -> AdmissionConfig {
    AdmissionConfig {
        service_ns: SERVICE_NS,
        queue_depth: QUEUE_DEPTH,
    }
}

/// Build the E18 system: one admission-gated user class, a µs-scale
/// topology so network hops stay far below the latency objective (the
/// SLO stream must burn on *queueing*, not on WAN crossings).
fn build_system(seed: u64) -> LegionSystem {
    LegionSystem::build(SystemConfig {
        jurisdictions: 2,
        hosts_per_jurisdiction: 2,
        classes: 1,
        objects_per_class: 4,
        class_admission: Some(admission()),
        topology: Topology::fixed(1_000, 20_000, 100_000),
        seed,
        ..SystemConfig::default()
    })
}

/// LOID for open-loop tenant client `i`.
fn tenant_loid(i: usize) -> Loid {
    Loid::instance(9500, i as u64 + 1)
}

/// Every class endpoint currently alive (the built class plus any
/// Derive-spawned clones — clones inherit the admission config).
fn class_endpoints(sys: &LegionSystem) -> Vec<EndpointId> {
    sys.kernel
        .all_meta()
        .filter(|(_, m)| m.alive && m.name.starts_with("class:"))
        .map(|(id, _)| id)
        .filter(|id| sys.kernel.endpoint::<ClassEndpoint>(*id).is_some())
        .collect()
}

// ---------------------------------------------------------------------
// Part A: degradation sweep
// ---------------------------------------------------------------------

/// One point of the degradation curve.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Offered rate as a multiple of the saturation rate.
    pub multiplier: f64,
    /// Offered rate, calls per virtual second.
    pub offered_per_sec: f64,
    /// Operations offered (first issues).
    pub offered: u64,
    /// Operations that completed successfully.
    pub ok: u64,
    /// `Overloaded` replies received.
    pub shed_replies: u64,
    /// Retries issued on the server's hint.
    pub retried: u64,
    /// Operations abandoned after the retry budget.
    pub gave_up: u64,
    /// Shed replies per attempt (first issues + retries).
    pub shed_frac: f64,
    /// Successful completions per virtual second (goodput).
    pub goodput_per_sec: f64,
    /// p50 first-issue → success latency, ms.
    pub p50_ms: f64,
    /// p99 first-issue → success latency, ms.
    pub p99_ms: f64,
    /// Admission backlog high-water mark (must stay ≤ depth).
    pub peak_backlog: u64,
}

/// Retries a sweep client spends on a shed call before abandoning it.
const SWEEP_MAX_RETRIES: u32 = 2;

/// A fresh system and one open-loop client aimed straight at the class,
/// run until every arrival has its verdict: the client's ledger and the
/// class's admission backlog high-water mark.
fn run_one_client(arrivals: Vec<u64>, max_retries: u32, seed: u64) -> (PhaseStats, u64) {
    let mut sys = build_system(seed);
    sys.kernel.reset_metrics();
    let (class_loid, class_ep) = sys.classes[0];
    let client = OpenLoopClient::new(
        tenant_loid(0),
        class_ep.element(),
        class_loid,
        symbol::GET_INSTANCE_INTERFACE,
        arrivals,
        Vec::new(),
        max_retries,
    );
    let cep = sys
        .kernel
        .add_endpoint(Box::new(client), Location::new(0, 700), "open-loop0");
    drive(&mut sys, &[cep], OpenLoopClient::is_done);
    let report = sys
        .kernel
        .endpoint::<OpenLoopClient>(cep)
        .expect("open-loop client")
        .report
        .total();
    let peak_backlog = queue_peaks(&sys, class_ep).map_or(0, |p| p.backlog);
    (report, peak_backlog)
}

/// Run one sweep point: flat rate `multiplier × saturation`.
pub fn sweep_point(multiplier: f64, duration_ns: u64, seed: u64) -> SweepRow {
    let cfg = OpenLoopConfig {
        base_rate_per_sec: admission().saturation_per_sec(),
        duration_ns,
        ..OpenLoopConfig::default()
    };
    let arrivals = generate_arrivals(&cfg, multiplier, seed ^ 0xE18);
    let (report, peak_backlog) = run_one_client(arrivals, SWEEP_MAX_RETRIES, seed);
    let attempts = (report.offered + report.retried).max(1);
    let secs = duration_ns as f64 / 1e9;
    SweepRow {
        multiplier,
        offered_per_sec: multiplier * admission().saturation_per_sec(),
        offered: report.offered,
        ok: report.ok,
        shed_replies: report.shed_replies,
        retried: report.retried,
        gave_up: report.gave_up,
        shed_frac: report.shed_replies as f64 / attempts as f64,
        goodput_per_sec: report.ok as f64 / secs,
        p50_ms: report.latency.quantile(0.50) as f64 / 1e6,
        p99_ms: report.latency.quantile(0.99) as f64 / 1e6,
        peak_backlog,
    }
}

/// The degradation curve: offered rate vs goodput vs shed fraction.
pub fn degradation_sweep(quick: bool, seed: u64) -> Vec<SweepRow> {
    let (multipliers, duration_ns): (&[f64], u64) = if quick {
        (&[0.5, 1.0, 2.0], 300_000_000)
    } else {
        (&[0.25, 0.5, 0.75, 1.0, 1.5, 2.0], 600_000_000)
    };
    multipliers
        .iter()
        .map(|&m| sweep_point(m, duration_ns, seed))
        .collect()
}

// ---------------------------------------------------------------------
// Part B: flash-crowd campaign
// ---------------------------------------------------------------------

/// One phase's ledger, summarized for the table.
#[derive(Debug, Clone)]
pub struct PhaseRow {
    /// Phase label.
    pub phase: &'static str,
    /// Operations first-issued in this phase.
    pub offered: u64,
    /// ... that completed successfully.
    pub ok: u64,
    /// `Overloaded` replies attributed to this phase.
    pub shed_replies: u64,
    /// Hint-scheduled retries.
    pub retried: u64,
    /// Abandoned after the retry budget.
    pub gave_up: u64,
    /// Failed for any other reason.
    pub failed: u64,
    /// Shed replies per attempt.
    pub shed_frac: f64,
    /// p99 first-issue → success latency, ms.
    pub p99_ms: f64,
}

fn phase_row(phase: &'static str, s: &PhaseStats) -> PhaseRow {
    PhaseRow {
        phase,
        offered: s.offered,
        ok: s.ok,
        shed_replies: s.shed_replies,
        retried: s.retried,
        gave_up: s.gave_up,
        failed: s.failed,
        shed_frac: s.shed_replies as f64 / (s.offered + s.retried).max(1) as f64,
        p99_ms: s.latency.quantile(0.99) as f64 / 1e6,
    }
}

/// One flash campaign's outcome.
#[derive(Debug, Clone)]
pub struct FlashRow {
    /// Was the auto-scaler in the loop?
    pub autoscaled: bool,
    /// Steady / flash / recovery ledgers.
    pub phases: Vec<PhaseRow>,
    /// Burn events the scaler drained (0 without a scaler).
    pub burn_events: u64,
    /// Clones the scaler landed.
    pub clones: u64,
    /// Virtual ms from workload start to each clone landing.
    pub clone_at_ms: Vec<f64>,
    /// Replicas behind the front door at the end (original included).
    pub replicas: u64,
    /// Max admission backlog high-water mark over class + clones.
    pub peak_backlog: u64,
    /// Max deferred-call high-water mark over class + clones.
    pub deferred_peak: u64,
    /// Requests shed, from the kernel's metrics snapshot.
    pub requests_shed: u64,
    /// Messages delivered by the kernel over the campaign.
    pub messages: u64,
    /// Order-independent digest of every deterministic quantity.
    pub digest: u64,
    /// The judge's invariant violations (empty on a healthy run).
    pub violations: Vec<Violation>,
}

/// Campaign phase durations (steady, flash, recovery), virtual ns.
fn phase_spans(quick: bool) -> (u64, u64, u64) {
    if quick {
        (200_000_000, 600_000_000, 200_000_000)
    } else {
        (300_000_000, 1_200_000_000, 400_000_000)
    }
}

/// Run one flash campaign. Steady traffic at 0.5× saturation with a
/// mild diurnal swell, a 4× flash crowd (2× saturation) in the middle
/// window, recovery after — four tenants split the rate across the
/// [`TENANT_WEIGHTS`] mix. With `autoscaled`, the burn-driven policy
/// loop and the replica front door are in the path.
pub fn flash_campaign(
    quick: bool,
    seed: u64,
    autoscaled: bool,
    watch: Watch,
) -> (FlashRow, Closed) {
    flash_campaign_with_chaos(quick, seed, autoscaled, watch, None)
}

/// [`flash_campaign`] with an E16 adversarial-delivery schedule armed
/// for the whole campaign: the schedule duplicates, reorders, and
/// delay-spikes messages *while* the system is past saturation, and the
/// judge still demands every invariant. Spike/flap windows in the
/// schedule are relative to the workload start.
pub fn flash_campaign_with_chaos(
    quick: bool,
    seed: u64,
    autoscaled: bool,
    watch: Watch,
    chaos: Option<&ChaosSchedule>,
) -> (FlashRow, Closed) {
    let (steady_ns, flash_ns, recovery_ns) = phase_spans(quick);
    let total_ns = steady_ns + flash_ns + recovery_ns;

    let mut sys = build_system(seed);
    // The session opens after the (identical, fault-free) build, and
    // `measure` zeroes the event counter, so record and verify share
    // their snapshot cadence — same discipline as E16. The online SLO
    // tracker the scaler reads replaces whatever tracker the watch set.
    let session = watch.open(&mut sys.kernel);
    session.measure(&mut sys.kernel);
    sys.kernel.enable_slo_online(SloConfig {
        window_ns: SLO_WINDOW_NS,
        objective: OBJECTIVE,
        per_endpoint: Default::default(),
    });

    let t0 = sys.kernel.now().as_nanos();
    // Chaos schedules arm after the session opens — E16's discipline.
    if let Some(schedule) = chaos {
        arm(&mut sys.kernel, schedule);
    }
    let (class_loid, class_ep) = sys.classes[0];

    // The front door: requests fan out round-robin over the replica set
    // (initially just the class); replies skip the router entirely.
    let router_ep = sys.kernel.add_endpoint(
        Box::new(ReplicaRouter::new(class_ep.element())),
        Location::new(0, 950),
        "replica-router",
    );

    if autoscaled {
        let scaler = AutoScaler::new(
            Loid::instance(9800, 1),
            class_loid,
            class_ep.element(),
            Some(router_ep.element()),
            AutoScalePolicy::default(),
            t0 + total_ns + 100_000_000,
        );
        sys.kernel
            .add_endpoint(Box::new(scaler), Location::new(0, 951), "autoscaler");
    }

    // Four tenants share the offered rate per the weight mix, each with
    // its own seeded arrival stream, spread over the jurisdictions.
    let cfg = OpenLoopConfig {
        base_rate_per_sec: 0.5 * admission().saturation_per_sec(),
        duration_ns: total_ns,
        diurnal_amplitude: 0.1,
        diurnal_period_ns: total_ns,
        flash: Some(FlashCrowd {
            start_ns: steady_ns,
            duration_ns: flash_ns,
            multiplier: 4.0,
        }),
        ..OpenLoopConfig::default()
    };
    let phase_bounds = vec![steady_ns, steady_ns + flash_ns];
    let clients: Vec<EndpointId> = (0..TENANT_WEIGHTS.len())
        .map(|i| {
            let arrivals = generate_arrivals(&cfg, tenant_share(i), seed ^ (0xE18 + i as u64));
            let client = OpenLoopClient::new(
                tenant_loid(i),
                router_ep.element(),
                class_loid,
                symbol::GET_INSTANCE_INTERFACE,
                arrivals,
                phase_bounds.clone(),
                cfg.max_retries,
            );
            sys.kernel.add_endpoint(
                Box::new(client),
                Location::new(i as u32 % 2, 700 + i as u32),
                format!("open-loop{i}"),
            )
        })
        .collect();

    drive(&mut sys, &clients, OpenLoopClient::is_done);

    // ----- collect --------------------------------------------------
    let mut merged = crate::workload::OpenLoopReport::default();
    for c in &clients {
        if let Some(cl) = sys.kernel.endpoint::<OpenLoopClient>(*c) {
            merged.merge(&cl.report);
        }
    }
    let phases: Vec<PhaseRow> = ["steady", "flash", "recovery"]
        .iter()
        .zip(&merged.phases)
        .map(|(name, s)| phase_row(name, s))
        .collect();

    let (burn_events, clones, clone_at_ms) = sys
        .kernel
        .all_meta()
        .find(|(_, m)| m.alive && m.name == "autoscaler")
        .map(|(id, _)| id)
        .and_then(|id| sys.kernel.endpoint::<AutoScaler>(id))
        .map(|s| {
            (
                s.burn_events_seen,
                s.clone_log.len() as u64,
                s.clone_log
                    .iter()
                    .map(|c| (c.at_ns.saturating_sub(t0)) as f64 / 1e6)
                    .collect(),
            )
        })
        .unwrap_or((0, 0, Vec::new()));
    let replicas = sys
        .kernel
        .endpoint::<ReplicaRouter>(router_ep)
        .map(|r| r.replica_count() as u64)
        .unwrap_or(0);

    let classes = class_endpoints(&sys);
    let (peak_backlog, deferred_peak) = classes
        .iter()
        .filter_map(|c| queue_peaks(&sys, *c))
        .fold((0, 0), |(b, d), p| (b.max(p.backlog), d.max(p.deferred)));
    let requests_shed = sys.kernel.metrics_snapshot().requests_shed;
    let messages = sys.kernel.stats().delivered;

    // ----- digest: every sim-time quantity, captured at quiescence ---
    let mut digest = mix(0xE18, seed);
    digest = mix(digest, sys.kernel.now().as_nanos());
    digest = mix(digest, sys.kernel.stats().delivered);
    digest = mix(digest, requests_shed);
    for p in &phases {
        for v in [
            p.offered,
            p.ok,
            p.shed_replies,
            p.retried,
            p.gave_up,
            p.failed,
        ] {
            digest = mix(digest, v);
        }
        digest = mix(digest, p.p99_ms.to_bits());
    }
    digest = mix(digest, burn_events);
    digest = mix(digest, clones);
    digest = mix(digest, replicas);

    let total = merged.total();
    let attempted = total.ok + total.gave_up + total.failed;
    let violations = judge(&mut sys, &classes, attempted, total.offered);

    (
        FlashRow {
            autoscaled,
            phases,
            burn_events,
            clones,
            clone_at_ms,
            replicas,
            peak_backlog,
            deferred_peak,
            requests_shed,
            messages,
            digest,
            violations,
        },
        session.close(&mut sys.kernel),
    )
}

/// Run E18: the degradation sweep plus the flash campaign with and
/// without the auto-scaler.
pub fn run(scale: u32, seed: u64) -> (Vec<SweepRow>, Vec<FlashRow>) {
    let quick = scale <= 1;
    let sweep = degradation_sweep(quick, seed);
    let flash = vec![
        flash_campaign(quick, seed, false, Watch::off()).0,
        flash_campaign(quick, seed, true, Watch::off()).0,
    ];
    (sweep, flash)
}

/// The observed point: the auto-scaled flash campaign.
pub fn observed(quick: bool, seed: u64, watch: Watch) -> Closed {
    flash_campaign(quick, seed, true, watch).1
}

/// What `legion-exp e18` prints.
pub fn tables(quick: bool, seed: u64) -> Vec<Table> {
    let (sweep, flash) = run(scale(quick), seed);
    let (t1, t2) = table(&sweep, &flash);
    vec![t1, t2]
}

/// Render the EXPERIMENTS.md tables.
pub fn table(sweep: &[SweepRow], flash: &[FlashRow]) -> (Table, Table) {
    let mut t1 = Table::new(
        "E18a: open-loop degradation curve (admission-gated class, saturation 5000/s)",
        &[
            "offered/s",
            "offered",
            "ok",
            "shed",
            "retried",
            "gave-up",
            "shed-frac",
            "goodput/s",
            "p50-ms",
            "p99-ms",
            "peak-backlog",
        ],
    );
    for r in sweep {
        t1.row(vec![
            format!("{:.0}", r.offered_per_sec),
            r.offered.to_string(),
            r.ok.to_string(),
            r.shed_replies.to_string(),
            r.retried.to_string(),
            r.gave_up.to_string(),
            format!("{:.3}", r.shed_frac),
            format!("{:.0}", r.goodput_per_sec),
            format!("{:.2}", r.p50_ms),
            format!("{:.2}", r.p99_ms),
            r.peak_backlog.to_string(),
        ]);
    }
    let mut t2 = Table::new(
        "E18b: flash crowd at 2x saturation — admission alone vs burn-driven auto-cloning",
        &[
            "scaler",
            "phase",
            "offered",
            "ok",
            "shed",
            "gave-up",
            "shed-frac",
            "p99-ms",
            "burn-events",
            "clones",
            "replicas",
        ],
    );
    for r in flash {
        for p in &r.phases {
            t2.row(vec![
                if r.autoscaled { "on" } else { "off" }.to_string(),
                p.phase.to_string(),
                p.offered.to_string(),
                p.ok.to_string(),
                p.shed_replies.to_string(),
                p.gave_up.to_string(),
                format!("{:.3}", p.shed_frac),
                format!("{:.2}", p.p99_ms),
                r.burn_events.to_string(),
                r.clones.to_string(),
                r.replicas.to_string(),
            ]);
        }
    }
    (t1, t2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Journal;
    use legion_journal::{MemSink, ReplayStart};

    const SEED: u64 = 181;
    /// Journal snapshot cadence for the record/verify test.
    const SNAP_EVERY: u64 = 2048;

    #[test]
    fn tenant_shares_follow_the_weight_mix() {
        assert_eq!(tenant_share(0), 3.0 / 7.0);
        assert_eq!(tenant_share(3), 1.0 / 7.0);
        let total: f64 = (0..TENANT_WEIGHTS.len()).map(tenant_share).sum();
        assert!((total - 1.0).abs() < 1e-12, "{total}");
    }

    #[test]
    fn sub_saturation_load_sheds_nothing() {
        let r = sweep_point(0.5, 200_000_000, SEED);
        assert_eq!(r.shed_replies, 0, "{r:?}");
        assert_eq!(r.gave_up, 0, "{r:?}");
        assert_eq!(r.ok, r.offered, "{r:?}");
        assert!(r.p99_ms < 2.0, "{r:?}");
    }

    #[test]
    fn past_saturation_degradation_is_bounded() {
        let below = sweep_point(0.5, 200_000_000, SEED);
        let above = sweep_point(2.0, 200_000_000, SEED);
        // Goodput plateaus at capacity instead of collapsing: the 2×
        // point still completes at least what the 0.5× point did.
        assert!(above.ok >= below.ok, "{above:?} vs {below:?}");
        // The excess sheds — visibly, and with honest hints that let
        // some retries through.
        assert!(above.shed_frac > 0.2, "{above:?}");
        assert!(above.retried > 0, "{above:?}");
        // The backlog never exceeds the configured depth: overload is
        // shed, not queued without bound.
        assert!(above.peak_backlog <= QUEUE_DEPTH, "{above:?}");
        // Every operation reached a verdict.
        assert_eq!(above.ok + above.gave_up, above.offered, "{above:?}");

        // The plateau is *at* capacity, and the tail has a stated bound.
        // A shed call waits out at most half a queue per hint (full
        // queue minus the low-water mark) and its admitted attempt at
        // most a full one: (1 + retries/2) × the full-queue sojourn =
        // 2 × 3.2 ms here. The histogram reports the upper edge of a
        // log₂ bucket, so compare against the bound's bucket edge
        // (8.39 ms), which also covers the three µs-scale round trips.
        let sojourn_ns = QUEUE_DEPTH * SERVICE_NS;
        let p99_bound_ns =
            (sojourn_ns + SWEEP_MAX_RETRIES as u64 * sojourn_ns / 2).next_power_of_two();
        let capacity = admission().saturation_per_sec();
        for r in [sweep_point(1.5, 200_000_000, SEED), above] {
            assert!(
                (r.goodput_per_sec - capacity).abs() <= 0.03 * capacity,
                "goodput off the plateau: {r:?}"
            );
            assert!(r.p99_ms * 1e6 <= p99_bound_ns as f64, "{r:?}");
        }
    }

    /// The regime the sweep has no row for, and the only one in which
    /// the hint's shape matters: transient bursts (the benchmark's
    /// `overload_open_bursts` wave — 8 ms at 2× saturation, 12 ms at
    /// 0.25×, mean 0.95×) from a caller that retries until admitted.
    /// Every shed call of a burst is still around when the queue drains,
    /// so a hint that names the instant one slot frees brings the whole
    /// pool back for it: 14.3 refusals per call on this stream. The
    /// low-water hint brings each back to room: 1.8.
    #[test]
    fn transient_bursts_are_absorbed_without_a_herd() {
        const BURST_NS: u64 = 8_000_000;
        const LULL_NS: u64 = 12_000_000;
        let cycle = OpenLoopConfig {
            base_rate_per_sec: 0.25 * admission().saturation_per_sec(),
            duration_ns: BURST_NS + LULL_NS,
            flash: Some(FlashCrowd {
                start_ns: 0,
                duration_ns: BURST_NS,
                multiplier: 8.0,
            }),
            ..OpenLoopConfig::default()
        };
        let arrivals: Vec<u64> = (0..100u64)
            .flat_map(|k| {
                generate_arrivals(&cycle, 1.0, SEED ^ k)
                    .into_iter()
                    .map(move |t| k * cycle.duration_ns + t)
            })
            .collect();
        let (r, peak_backlog) = run_one_client(arrivals, u32::MAX, SEED);
        assert!(r.offered > 9_000, "{r:?}");
        assert_eq!(r.ok, r.offered, "every call is admitted in the end: {r:?}");
        assert_eq!(r.gave_up + r.failed, 0, "{r:?}");
        assert!(
            r.shed_replies > 0,
            "the bursts must overflow the queue: {r:?}"
        );
        assert!(
            r.shed_replies as f64 <= 2.5 * r.offered as f64,
            "{} refusals for {} calls",
            r.shed_replies,
            r.offered
        );
        assert!(peak_backlog <= QUEUE_DEPTH, "backlog {peak_backlog}");
    }

    #[test]
    fn flash_crowd_burns_clones_and_recovers() {
        let (base, _) = flash_campaign(true, SEED, false, Watch::off());
        let (auto, _) = flash_campaign(true, SEED, true, Watch::off());
        assert!(base.violations.is_empty(), "{:?}", base.violations);
        assert!(auto.violations.is_empty(), "{:?}", auto.violations);

        // Steady state is clean in both runs: zero shed below saturation.
        assert_eq!(base.phases[0].shed_replies, 0, "{base:?}");
        assert_eq!(auto.phases[0].shed_replies, 0, "{auto:?}");

        // Without the scaler the 2× flash sheds hard and no clone lands.
        assert_eq!(base.clones, 0);
        assert_eq!(base.replicas, 1);
        assert!(base.phases[1].shed_frac > 0.2, "{base:?}");

        // With the scaler: burn events fire, clones land mid-campaign
        // without any scripted intervention, the front door grows.
        assert!(auto.burn_events > 0, "{auto:?}");
        assert!(auto.clones >= 1, "{auto:?}");
        assert_eq!(auto.replicas, auto.clones + 1, "{auto:?}");
        assert!(
            auto.clone_at_ms.iter().all(|&t| t > 0.0),
            "clones land during the run: {auto:?}"
        );

        // The shed fraction during the spike falls against the baseline,
        // and overall goodput improves.
        assert!(
            auto.phases[1].shed_frac < base.phases[1].shed_frac,
            "auto {:?} vs base {:?}",
            auto.phases[1],
            base.phases[1]
        );
        assert!(auto.phases[1].ok > base.phases[1].ok, "{auto:?}");

        // After convergence the p99 returns inside the objective.
        assert!(
            auto.phases[2].p99_ms * 1e6 < OBJECTIVE.p99_ns as f64,
            "recovery p99 {:.2} ms outside the objective",
            auto.phases[2].p99_ms
        );
        assert_eq!(auto.phases[2].shed_replies, 0, "{auto:?}");

        // Bounded queues throughout, clones included.
        assert!(auto.peak_backlog <= QUEUE_DEPTH, "{auto:?}");
        assert!(auto.deferred_peak <= QUEUE_DEPTH, "{auto:?}");
    }

    #[test]
    fn same_seed_campaigns_are_bit_identical() {
        let (a, _) = flash_campaign(true, SEED ^ 7, true, Watch::off());
        let (b, _) = flash_campaign(true, SEED ^ 7, true, Watch::off());
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.burn_events, b.burn_events);
        assert_eq!(a.clones, b.clones);
        assert_eq!(a.clone_at_ms, b.clone_at_ms);
    }

    #[test]
    fn campaign_survives_verified_journal_replay() {
        let sink = MemSink::new();
        let journal = Journal::Record {
            sink: Box::new(sink.clone()),
            snap_every: SNAP_EVERY,
        };
        let watch = Watch::journal_only(journal);
        let (recorded, run) = flash_campaign(true, SEED ^ 9, true, watch);
        run.expect("journal sink failed");
        let journal = Journal::Verify {
            journal: sink.contents(),
            start: ReplayStart::LatestSnapshot,
        };
        let watch = Watch::journal_only(journal);
        let (replayed, run) = flash_campaign(true, SEED ^ 9, true, watch);
        let run = run.expect("reference journal must parse");
        assert!(run.divergence().is_none(), "{:?}", run.divergence());
        assert_eq!(recorded.digest, replayed.digest);
    }

    /// The judge over an overloaded system: duplication, reordering
    /// jitter, and a mid-flash delay spike while demand sits at 2×
    /// saturation — every invariant must still hold (at-most-once
    /// service under duplicated calls, bounded backlog under delayed
    /// ones), and the chaos-judged run stays bit-deterministic.
    #[test]
    fn overloaded_campaign_survives_adversarial_delivery() {
        use legion_net::faults::DelaySpike;

        let mut schedule = ChaosSchedule::quiet(SEED ^ 11);
        schedule.duplicate_probability = 0.10;
        schedule.reorder_probability = 0.05;
        schedule.reorder_jitter_ns = 500_000;
        // A latency spike squarely inside the flash window, hitting
        // every link: the worst moment for extra queueing pressure.
        let (steady_ns, flash_ns, _) = phase_spans(true);
        schedule.spikes.push(DelaySpike {
            jurisdiction: None,
            from_ns: steady_ns,
            until_ns: steady_ns + flash_ns / 2,
            multiplier: 3,
        });

        let (row, _) =
            flash_campaign_with_chaos(true, SEED ^ 11, true, Watch::off(), Some(&schedule));
        assert!(row.violations.is_empty(), "{:?}", row.violations);
        // The crowd still resolves every operation and the scaler still
        // acts: overload handling is not fair-weather machinery.
        assert!(row.burn_events > 0, "{row:?}");
        assert!(row.clones >= 1, "{row:?}");
        assert!(row.peak_backlog <= QUEUE_DEPTH, "{row:?}");
        assert!(row.deferred_peak <= QUEUE_DEPTH, "{row:?}");

        let (again, _) =
            flash_campaign_with_chaos(true, SEED ^ 11, true, Watch::off(), Some(&schedule));
        assert_eq!(
            row.digest, again.digest,
            "chaos-judged run is deterministic"
        );
    }
}
