//! Property-based tests for the SLO tracker's windowed quantiles.
//!
//! Objectives are contracts, so the tracker's per-window p50/p99 must be
//! *exact* — not the ~2× log-bucket approximation the metrics histograms
//! use. The properties here check the tracker against two independent
//! references: the batch report the tracker used to compute at the end
//! of a run (below, kept as it was), and a brute-force one — samples
//! re-bucketed by hand, quantiles taken by scanning for the smallest
//! value covering the rank.
//!
//! The tracker judges a window once the sender clock passes its end, so
//! every stream here is fed in kernel order: sorted by send time,
//! `at − latency`. The burn count a control loop drains as the run goes
//! is checked against the same report.

use legion_obs::slo::{
    quantile_sorted, BurnEvent, EndpointSlo, SloConfig, SloObjective, SloReport, SloTracker,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Brute-force nearest-rank quantile: the smallest sample `v` such that
/// at least `ceil(q * n)` samples are ≤ `v`. Written without sorting so
/// a shared bug in the sort-based implementation can't hide.
fn reference_quantile(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let need = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    let mut best: Option<u64> = None;
    for &candidate in samples {
        let covered = samples.iter().filter(|&&s| s <= candidate).count();
        if covered >= need && best.is_none_or(|b| candidate < b) {
            best = Some(candidate);
        }
    }
    best.expect("non-empty samples always yield a quantile")
}

/// One window's exact quantiles and verdict, as the batch report kept
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WindowVerdict {
    start: u64,
    count: u64,
    p50_ns: u64,
    p99_ns: u64,
    ok: bool,
}

/// One endpoint's batch evaluation, with its per-window verdicts.
#[derive(Debug, Clone, PartialEq)]
struct BatchEndpoint {
    endpoint: u64,
    name: String,
    objective: SloObjective,
    windows: Vec<WindowVerdict>,
    violating: u64,
    budget_used: f64,
    ok: bool,
    burn_events: Vec<BurnEvent>,
}

/// The batch report: every `(endpoint, window start, latency)` sample
/// logged, sorted once, and judged window by window at the end.
fn batch_report(
    cfg: &SloConfig,
    samples: &[(u64, u64, u64)],
    name_of: impl Fn(u64) -> String,
) -> Vec<BatchEndpoint> {
    // Bucket the flat log: one lexicographic sort groups samples by
    // (endpoint, window start) and leaves each group's latencies
    // ascending, ready for exact nearest-rank quantiles.
    let mut log = samples.to_vec();
    log.sort_unstable();
    let mut endpoints: Vec<BatchEndpoint> = Vec::new();
    let mut current: Option<BatchEndpoint> = None;
    let mut i = 0;
    while i < log.len() {
        let (endpoint, start, _) = log[i];
        let mut j = i;
        while j < log.len() && log[j].0 == endpoint && log[j].1 == start {
            j += 1;
        }
        let sorted: Vec<u64> = log[i..j].iter().map(|&(_, _, lat)| lat).collect();
        i = j;
        if current.as_ref().map(|c| c.endpoint) != Some(endpoint) {
            if let Some(done) = current.take() {
                endpoints.push(finish_endpoint(done));
            }
            current = Some(BatchEndpoint {
                endpoint,
                name: name_of(endpoint),
                objective: cfg.objective,
                windows: Vec::new(),
                violating: 0,
                budget_used: 0.0,
                ok: true,
                burn_events: Vec::new(),
            });
        }
        let slo = current.as_mut().expect("just initialized");
        let seen = slo.windows.len() as u64 + 1;
        let (verdict, burn) =
            judge_window(&slo.objective, start, &sorted, seen, &mut slo.violating);
        slo.windows.push(verdict);
        slo.burn_events.extend(burn);
    }
    if let Some(done) = current.take() {
        endpoints.push(finish_endpoint(done));
    }
    endpoints
}

fn judge_window(
    objective: &SloObjective,
    start: u64,
    sorted: &[u64],
    seen: u64,
    violating: &mut u64,
) -> (WindowVerdict, Option<BurnEvent>) {
    let p50 = quantile_sorted(sorted, 0.50);
    let p99 = quantile_sorted(sorted, 0.99);
    let ok = p50 <= objective.p50_ns && p99 <= objective.p99_ns;
    let verdict = WindowVerdict {
        start,
        count: sorted.len() as u64,
        p50_ns: p50,
        p99_ns: p99,
        ok,
    };
    let mut event = None;
    if !ok {
        *violating += 1;
        if objective.error_budget > 0.0 {
            let burn = (*violating as f64 / seen as f64) / objective.error_budget;
            if burn >= objective.burn_threshold {
                event = Some(BurnEvent {
                    window_start: start,
                    burn_rate: burn,
                });
            }
        }
    }
    (verdict, event)
}

fn finish_endpoint(mut slo: BatchEndpoint) -> BatchEndpoint {
    let windows = slo.windows.len() as f64;
    slo.budget_used = if windows > 0.0 && slo.objective.error_budget > 0.0 {
        (slo.violating as f64 / windows) / slo.objective.error_budget
    } else {
        0.0
    };
    slo.ok = slo.budget_used <= 1.0;
    slo
}

/// `(arrival time, endpoint, latency)` samples in kernel order: sorted
/// (stably) by send time.
fn kernel_order(mut samples: Vec<(u64, u64, u64)>) -> Vec<(u64, u64, u64)> {
    samples.sort_by_key(|&(at, _, latency)| at.saturating_sub(latency));
    samples
}

/// Feed `samples` (in kernel order) to a tracker under `cfg` and report.
fn track(cfg: &SloConfig, samples: &[(u64, u64, u64)]) -> SloReport {
    let mut t = SloTracker::new(cfg.clone());
    for &(at, endpoint, latency) in samples {
        t.record(at, endpoint, latency);
    }
    t.report(|e| format!("ep{e}")).expect("tracker is enabled")
}

/// The batch reference over the same samples, keyed as the kernel keys
/// them: by the window their arrival falls in.
fn reference(cfg: &SloConfig, samples: &[(u64, u64, u64)]) -> Vec<BatchEndpoint> {
    let w = cfg.window_ns.max(1);
    let log: Vec<(u64, u64, u64)> = samples
        .iter()
        .map(|&(at, endpoint, latency)| (endpoint, (at / w) * w, latency))
        .collect();
    batch_report(cfg, &log, |e| format!("ep{e}"))
}

/// The tracker's report equals the reference in every field.
fn assert_same(report: &SloReport, batch: &[BatchEndpoint]) {
    prop_assert_eq!(report.endpoints.len(), batch.len());
    for (got, want) in report.endpoints.iter().zip(batch) {
        let EndpointSlo {
            endpoint,
            name,
            objective,
            windows,
            violating,
            budget_used,
            ok,
            burn_events,
        } = got;
        prop_assert_eq!(*endpoint, want.endpoint);
        prop_assert_eq!(name, &want.name);
        prop_assert_eq!(*objective, want.objective);
        prop_assert_eq!(*windows, want.windows.len() as u64);
        prop_assert_eq!(*violating, want.violating);
        prop_assert_eq!(budget_used.to_bits(), want.budget_used.to_bits());
        prop_assert_eq!(*ok, want.ok);
        prop_assert_eq!(burn_events, &want.burn_events);
    }
}

fn arb_samples() -> impl Strategy<Value = Vec<(u64, u64)>> {
    // (arrival time, latency) pairs; times spread across several windows.
    proptest::collection::vec((0u64..10_000, 0u64..1_000_000), 1..200)
}

fn arb_objective() -> impl Strategy<Value = SloObjective> {
    (0u64..3_000, 0u64..6_000, 1u32..=10, 0u32..=30).prop_map(|(p50, p99, budget, burn)| {
        SloObjective {
            p50_ns: p50,
            p99_ns: p99,
            error_budget: f64::from(budget) / 10.0,
            burn_threshold: f64::from(burn) / 10.0,
        }
    })
}

/// One endpoint's samples as `(at, endpoint 1, latency)`, in kernel order.
fn one_endpoint(samples: &[(u64, u64)]) -> Vec<(u64, u64, u64)> {
    kernel_order(samples.iter().map(|&(at, lat)| (at, 1, lat)).collect())
}

/// Per window (arrival bucket), its latencies.
fn by_window(samples: &[(u64, u64)], window_ns: u64) -> BTreeMap<u64, Vec<u64>> {
    let mut windows: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for &(at, latency) in samples {
        windows
            .entry((at / window_ns) * window_ns)
            .or_default()
            .push(latency);
    }
    windows
}

proptest! {
    /// The sorted nearest-rank quantile matches the brute-force scan for
    /// every probability, including the degenerate ends.
    #[test]
    fn quantile_sorted_matches_reference(
        mut samples in proptest::collection::vec(0u64..1_000_000, 0..200),
        q in 0.0f64..=1.0,
    ) {
        let reference = reference_quantile(&samples, q);
        samples.sort_unstable();
        prop_assert_eq!(quantile_sorted(&samples, q), reference);
    }

    /// Judging each window as the sender clock passes it gives the batch
    /// report in every field, burn events and float bits included — at
    /// the end of the stream and at any point along it, where the
    /// report judges the windows still open on a copy.
    #[test]
    fn streaming_fold_matches_batch_report(
        samples in proptest::collection::vec((0u64..20_000, 0u64..5, 0u64..4_000), 1..300),
        window_ns in 1u64..3_000,
        objective in arb_objective(),
        cut in 0usize..300,
    ) {
        let cfg = SloConfig { window_ns, objective };
        let samples = kernel_order(samples);
        let mut t = SloTracker::new(cfg.clone());
        let cut = cut.min(samples.len());
        for (i, &(at, endpoint, latency)) in samples.iter().enumerate() {
            if i == cut {
                let mid = t.report(|e| format!("ep{e}")).expect("enabled");
                assert_same(&mid, &reference(&cfg, &samples[..cut]));
            }
            t.record(at, endpoint, latency);
        }
        assert_same(&track(&cfg, &samples), &reference(&cfg, &samples));
        let end = t.report(|e| format!("ep{e}")).expect("enabled");
        assert_same(&end, &reference(&cfg, &samples));
    }

    /// The burn cursor counts the report's own events. Drained at
    /// arbitrary points of a stream, the counts never add up to more
    /// than the burn events a report lists at that point; once a late
    /// sample per endpoint has made every window final, they add up to
    /// exactly the report's total. `clear` restarts the count: a second
    /// pass over the stream drains the same total again.
    #[test]
    fn drained_burns_add_up_to_the_report(
        samples in proptest::collection::vec((0u64..20_000, 0u64..5, 0u64..4_000), 1..300),
        window_ns in 1u64..3_000,
        objective in arb_objective(),
        drain_at in proptest::collection::vec(any::<bool>(), 300),
    ) {
        let cfg = SloConfig { window_ns, objective };
        let samples = kernel_order(samples);
        let listed = |report: SloReport| -> usize {
            report.endpoints.iter().map(|e| e.burn_events.len()).sum()
        };
        let listed_now = |t: &SloTracker| listed(t.report(|e| format!("ep{e}")).expect("enabled"));
        let total = listed(track(&cfg, &samples));
        let mut t = SloTracker::new(cfg);
        for pass in 0..2 {
            let mut drained = 0;
            for (&(at, endpoint, latency), &drain) in samples.iter().zip(&drain_at) {
                t.record(at, endpoint, latency);
                if drain {
                    drained += t.drain_burn();
                    let now = listed_now(&t);
                    prop_assert!(drained <= now, "pass {}: drained {} of {}", pass, drained, now);
                }
            }
            // Sent after every window's end, and a latency of 0 meets
            // any objective: the late window itself never burns.
            for endpoint in 0..5 {
                t.record(1 << 40, endpoint, 0);
            }
            drained += t.drain_burn();
            prop_assert_eq!(listed_now(&t), total);
            prop_assert_eq!(drained, total, "pass {}", pass);
            t.clear();
            prop_assert_eq!(t.drain_burn(), 0);
        }
    }

    /// The tracker's per-window p50/p99 equal the reference quantiles of
    /// exactly the samples that landed in that window. The report keeps
    /// no per-window verdict, so each window's quantile is pinned by
    /// objectives: for every window's reference p50 `q`, an objective of
    /// `q` and one of `q − 1` each make exactly the windows whose
    /// reference p50 exceeds it violate (likewise p99) — which fixes
    /// every window's quantile to the nanosecond.
    #[test]
    fn windowed_quantiles_match_reference(
        samples in arb_samples(),
        window_ns in 1u64..5_000,
    ) {
        let stream = one_endpoint(&samples);
        let windows = by_window(&samples, window_ns);
        let p50s: Vec<u64> = windows.values().map(|w| reference_quantile(w, 0.50)).collect();
        let p99s: Vec<u64> = windows.values().map(|w| reference_quantile(w, 0.99)).collect();
        let judged = |p50_ns: u64, p99_ns: u64| {
            let cfg = SloConfig {
                window_ns,
                objective: SloObjective { p50_ns, p99_ns, ..SloObjective::default() },
            };
            let report = track(&cfg, &stream);
            assert_eq!(report.endpoints.len(), 1);
            let ep = &report.endpoints[0];
            (ep.windows, ep.violating)
        };
        let above = |qs: &[u64], objective: u64| qs.iter().filter(|&&q| q > objective).count() as u64;
        for &q in &p50s {
            for objective in [q, q.saturating_sub(1)] {
                let (n, violating) = judged(objective, u64::MAX);
                prop_assert_eq!(n, windows.len() as u64);
                prop_assert_eq!(violating, above(&p50s, objective), "p50 objective {}", objective);
            }
        }
        for &q in &p99s {
            for objective in [q, q.saturating_sub(1)] {
                let (_, violating) = judged(u64::MAX, objective);
                prop_assert_eq!(violating, above(&p99s, objective), "p99 objective {}", objective);
            }
        }
    }

    /// Windows violate exactly when the reference quantiles exceed the
    /// objective, and the violating count + budget verdict follow.
    #[test]
    fn verdicts_follow_reference_quantiles(
        samples in arb_samples(),
        p50_obj in 0u64..1_000_000,
        p99_obj in 0u64..1_000_000,
    ) {
        let window_ns = 1_000;
        let cfg = SloConfig {
            window_ns,
            objective: SloObjective {
                p50_ns: p50_obj,
                p99_ns: p99_obj,
                ..SloObjective::default()
            },
        };
        let report = track(&cfg, &one_endpoint(&samples));
        let ep = &report.endpoints[0];
        let windows = by_window(&samples, window_ns);
        let violating = windows
            .values()
            .filter(|w| {
                reference_quantile(w, 0.50) > p50_obj || reference_quantile(w, 0.99) > p99_obj
            })
            .count() as u64;
        prop_assert_eq!(ep.windows, windows.len() as u64);
        prop_assert_eq!(ep.violating, violating);
        let budget_used =
            (violating as f64 / ep.windows as f64) / ep.objective.error_budget;
        prop_assert!((ep.budget_used - budget_used).abs() < 1e-12);
        prop_assert_eq!(ep.ok, budget_used <= 1.0);
    }
}
