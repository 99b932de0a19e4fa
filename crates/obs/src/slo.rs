//! SLO tracking: windowed p50/p99 per endpoint against configured
//! objectives, with error budgets and burn-rate events.
//!
//! The ROADMAP E18 plan (load-driven class cloning) needs a *signal*:
//! "this endpoint is burning its latency budget faster than it can
//! afford". This module turns the kernel's per-endpoint delivery
//! latencies, bucketed into fixed windows of virtual time, into exactly
//! that: each window gets an **exact** nearest-rank p50/p99 verdict
//! against the endpoint's objective; the fraction of violating windows
//! is charged against the **error budget**; and whenever the cumulative
//! **burn rate** (budget consumed ÷ budget that sustainable consumption
//! would have used by now) crosses the configured threshold on a
//! violating window, a [`BurnEvent`] fires.
//!
//! Quantiles are exact (sorted samples, nearest-rank), not the ~2×
//! log-bucket approximation [`Histogram`](struct@crate::analysis) users
//! get elsewhere — objectives are contracts, and a contract checked
//! against an approximation is no contract. Everything here is a pure
//! function of the simulation's deterministic latencies, so SLO verdicts
//! golden-test cleanly.

use serde::Value;
use std::collections::BTreeMap;

/// Latency objectives for one endpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloObjective {
    /// Window-median objective, ns.
    pub p50_ns: u64,
    /// Window-tail objective, ns.
    pub p99_ns: u64,
    /// Fraction of windows allowed to violate (0, 1].
    pub error_budget: f64,
    /// Burn-rate multiple that fires a [`BurnEvent`] (≥ 1.0 means
    /// "consuming budget faster than sustainable").
    pub burn_threshold: f64,
}

impl Default for SloObjective {
    fn default() -> Self {
        SloObjective {
            p50_ns: 2_000_000,
            p99_ns: 50_000_000,
            error_budget: 0.1,
            burn_threshold: 2.0,
        }
    }
}

/// Tracker configuration: the window width plus a default objective and
/// per-endpoint overrides.
#[derive(Debug, Clone, PartialEq)]
pub struct SloConfig {
    /// Window width in virtual ns.
    pub window_ns: u64,
    /// Objective applied to endpoints without an override.
    pub objective: SloObjective,
    /// Per-endpoint overrides.
    pub per_endpoint: BTreeMap<u64, SloObjective>,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            window_ns: 1_000_000,
            objective: SloObjective::default(),
            per_endpoint: BTreeMap::new(),
        }
    }
}

impl SloConfig {
    /// The objective for `endpoint` (override or default).
    pub fn objective_for(&self, endpoint: u64) -> SloObjective {
        self.per_endpoint
            .get(&endpoint)
            .copied()
            .unwrap_or(self.objective)
    }
}

/// Exact nearest-rank quantile of an ascending-sorted slice: the
/// smallest element such that at least `q` of the samples are ≤ it.
/// Returns 0 for an empty slice.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let q = q.clamp(0.0, 1.0);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Collects per-endpoint latency samples into windows of virtual time.
/// Disabled (the kernel default) until given a config; recording while
/// disabled is a no-op.
///
/// Recording sits on the kernel's delivery path, so the tracker keeps a
/// single flat sample log — one amortized `Vec` push per delivery, no
/// per-window map nodes or per-window buffers. Bucketing into windows
/// happens once, at [`report`](SloTracker::report) time (the cold path).
#[derive(Debug, Clone, Default)]
pub struct SloTracker {
    cfg: Option<SloConfig>,
    /// `(endpoint, window start ns, latency ns)`, in arrival order.
    samples: Vec<(u64, u64, u64)>,
    /// Incremental burn monitor (opt-in; see [`SloTracker::new_online`]).
    online: Option<OnlineMonitor>,
}

/// Incremental per-endpoint window state for the online burn monitor.
///
/// The batch [`report`](SloTracker::report) evaluates windows at the end
/// of a run — too late for a control loop that must react *during* the
/// run. The online monitor closes each endpoint's window as soon as a
/// sample lands in a later one, evaluates it against the objective with
/// the same exact nearest-rank quantiles and cumulative burn arithmetic
/// as the batch path, and queues fired [`BurnEvent`]s for a consumer
/// (the auto-scaling policy) to drain. Storage is bounded by one open
/// window's samples per endpoint.
///
/// One deliberate divergence from the batch report: the kernel records a
/// delivery's SLO sample at *send* time keyed by its future arrival, so
/// per-endpoint window starts are not strictly monotone. The batch sort
/// puts late samples in their true window; the online monitor folds a
/// sample for an already-closed window into the open one (a window, once
/// judged, stays judged). The monitor is a control signal — the batch
/// report remains the contract.
#[derive(Debug, Clone, Default)]
struct OnlineMonitor {
    per_endpoint: BTreeMap<u64, OnlineEndpoint>,
    fired: Vec<(u64, BurnEvent)>,
}

#[derive(Debug, Clone, Default)]
struct OnlineEndpoint {
    window_start: u64,
    /// Samples of the open window, unsorted (sorted once at close).
    pending: Vec<u64>,
    windows_seen: u64,
    violating: u64,
}

impl OnlineMonitor {
    fn observe(&mut self, cfg: &SloConfig, endpoint: u64, start: u64, latency_ns: u64) {
        let state = self.per_endpoint.entry(endpoint).or_default();
        if start > state.window_start && !state.pending.is_empty() {
            state.pending.sort_unstable();
            state.windows_seen += 1;
            let (_, burn) = judge_window(
                &cfg.objective_for(endpoint),
                state.window_start,
                &state.pending,
                state.windows_seen,
                &mut state.violating,
            );
            self.fired.extend(burn.map(|b| (endpoint, b)));
            state.pending.clear();
        }
        state.window_start = state.window_start.max(start);
        state.pending.push(latency_ns);
    }
}

impl SloTracker {
    /// The disabled tracker.
    pub fn disabled() -> Self {
        SloTracker::default()
    }

    /// A tracker with objectives configured (window width is forced to
    /// at least 1 ns).
    pub fn new(mut cfg: SloConfig) -> Self {
        cfg.window_ns = cfg.window_ns.max(1);
        SloTracker {
            cfg: Some(cfg),
            samples: Vec::with_capacity(1024),
            online: None,
        }
    }

    /// A tracker that additionally evaluates windows *incrementally* and
    /// queues fired [`BurnEvent`]s for [`drain_burn`](Self::drain_burn)
    /// — the in-run signal an auto-scaling control loop consumes.
    pub fn new_online(cfg: SloConfig) -> Self {
        let mut t = Self::new(cfg);
        t.online = Some(OnlineMonitor::default());
        t
    }

    /// Take the burn events the online monitor has fired since the last
    /// drain, as `(endpoint, event)` in firing order. Empty without
    /// [`new_online`](Self::new_online).
    pub fn drain_burn(&mut self) -> Vec<(u64, BurnEvent)> {
        match &mut self.online {
            Some(m) => std::mem::take(&mut m.fired),
            None => Vec::new(),
        }
    }

    /// Is the tracker collecting?
    pub fn is_enabled(&self) -> bool {
        self.cfg.is_some()
    }

    /// The active configuration, if any.
    pub fn config(&self) -> Option<&SloConfig> {
        self.cfg.as_ref()
    }

    /// Record a delivery latency observed at virtual time `at_ns` for
    /// `endpoint`.
    #[inline]
    pub fn record(&mut self, at_ns: u64, endpoint: u64, latency_ns: u64) {
        let Some(cfg) = &self.cfg else {
            return;
        };
        let start = (at_ns / cfg.window_ns) * cfg.window_ns;
        self.samples.push((endpoint, start, latency_ns));
        if let Some(online) = &mut self.online {
            online.observe(cfg, endpoint, start, latency_ns);
        }
    }

    /// Drop collected samples and online-monitor state, keeping the
    /// configuration (and the monitor, if one was enabled).
    pub fn clear(&mut self) {
        self.samples.clear();
        if let Some(online) = &mut self.online {
            *online = OnlineMonitor::default();
        }
    }

    /// Evaluate every endpoint's windows against its objective,
    /// resolving endpoint ids to names with `name_of`. Returns `None`
    /// when the tracker is disabled.
    pub fn report(&self, name_of: impl Fn(u64) -> String) -> Option<SloReport> {
        let cfg = self.cfg.as_ref()?;
        // Bucket the flat log: one lexicographic sort groups samples by
        // (endpoint, window start) and leaves each group's latencies
        // ascending, ready for exact nearest-rank quantiles.
        let mut log = self.samples.clone();
        log.sort_unstable();
        let mut endpoints: Vec<EndpointSlo> = Vec::new();
        let mut current: Option<EndpointSlo> = None;
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
                current = Some(EndpointSlo {
                    endpoint,
                    name: name_of(endpoint),
                    objective: cfg.objective_for(endpoint),
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
        Some(SloReport {
            window_ns: cfg.window_ns,
            endpoints,
        })
    }
}

/// Judge one window of ascending latencies starting at `start`: its
/// exact nearest-rank p50/p99 verdict against `objective`, then, if it
/// violated, the cumulative burn check — the fraction of the `seen`
/// windows so far (this one included) that violated, as a multiple of
/// the sustainable rate (= the error budget itself). `violating` counts
/// the violating windows and is bumped here. The batch report and the
/// online monitor both judge through this one function.
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

fn finish_endpoint(mut slo: EndpointSlo) -> EndpointSlo {
    let windows = slo.windows.len() as f64;
    slo.budget_used = if windows > 0.0 && slo.objective.error_budget > 0.0 {
        (slo.violating as f64 / windows) / slo.objective.error_budget
    } else {
        0.0
    };
    slo.ok = slo.budget_used <= 1.0;
    slo
}

/// One window's exact quantiles and verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowVerdict {
    /// Window start, virtual ns.
    pub start: u64,
    /// Samples in the window.
    pub count: u64,
    /// Exact nearest-rank median.
    pub p50_ns: u64,
    /// Exact nearest-rank 99th percentile.
    pub p99_ns: u64,
    /// Did the window meet both objectives?
    pub ok: bool,
}

/// The burn-rate alarm: fired on a violating window once the cumulative
/// burn rate crosses the objective's threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnEvent {
    /// Start of the window that fired the alarm, virtual ns.
    pub window_start: u64,
    /// The cumulative burn rate at that point (1.0 = consuming the
    /// budget exactly as fast as sustainable).
    pub burn_rate: f64,
}

/// One endpoint's SLO evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct EndpointSlo {
    /// Kernel endpoint id.
    pub endpoint: u64,
    /// The endpoint's human-readable name.
    pub name: String,
    /// The objective it was judged against.
    pub objective: SloObjective,
    /// Per-window verdicts, in window order.
    pub windows: Vec<WindowVerdict>,
    /// Windows that violated.
    pub violating: u64,
    /// Violating fraction ÷ error budget (> 1.0 = budget blown).
    pub budget_used: f64,
    /// Did the endpoint stay within budget?
    pub ok: bool,
    /// Burn-rate alarms, in firing order.
    pub burn_events: Vec<BurnEvent>,
}

/// The full SLO evaluation: one entry per endpoint that received
/// traffic, in endpoint order.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// Window width the tracker bucketed by.
    pub window_ns: u64,
    /// Per-endpoint verdicts.
    pub endpoints: Vec<EndpointSlo>,
}

impl SloReport {
    /// The report as JSON. Burn rates and budget fractions are rendered
    /// as millionths (integers) so the document stays byte-stable.
    pub fn to_json_value(&self) -> Value {
        Value::Object(vec![
            ("window_ns".to_string(), Value::U64(self.window_ns)),
            (
                "endpoints".to_string(),
                Value::Array(
                    self.endpoints
                        .iter()
                        .map(|e| {
                            Value::Object(vec![
                                ("endpoint".to_string(), Value::U64(e.endpoint)),
                                ("name".to_string(), Value::Str(e.name.clone())),
                                (
                                    "p50_objective_ns".to_string(),
                                    Value::U64(e.objective.p50_ns),
                                ),
                                (
                                    "p99_objective_ns".to_string(),
                                    Value::U64(e.objective.p99_ns),
                                ),
                                (
                                    "error_budget_ppm".to_string(),
                                    Value::U64(to_ppm(e.objective.error_budget)),
                                ),
                                ("windows".to_string(), Value::U64(e.windows.len() as u64)),
                                ("violating".to_string(), Value::U64(e.violating)),
                                (
                                    "budget_used_ppm".to_string(),
                                    Value::U64(to_ppm(e.budget_used)),
                                ),
                                ("ok".to_string(), Value::Bool(e.ok)),
                                (
                                    "burn_events".to_string(),
                                    Value::Array(
                                        e.burn_events
                                            .iter()
                                            .map(|b| {
                                                Value::Object(vec![
                                                    (
                                                        "window_start".to_string(),
                                                        Value::U64(b.window_start),
                                                    ),
                                                    (
                                                        "burn_rate_ppm".to_string(),
                                                        Value::U64(to_ppm(b.burn_rate)),
                                                    ),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// A non-negative fraction as integer millionths, saturating (keeps the
/// JSON free of float formatting).
fn to_ppm(x: f64) -> u64 {
    if !x.is_finite() || x <= 0.0 {
        return 0;
    }
    (x * 1_000_000.0).round().min(u64::MAX as f64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(window_ns: u64, p50: u64, p99: u64, budget: f64) -> SloConfig {
        SloConfig {
            window_ns,
            objective: SloObjective {
                p50_ns: p50,
                p99_ns: p99,
                error_budget: budget,
                burn_threshold: 2.0,
            },
            per_endpoint: BTreeMap::new(),
        }
    }

    #[test]
    fn quantiles_are_exact_nearest_rank() {
        assert_eq!(quantile_sorted(&[], 0.5), 0);
        assert_eq!(quantile_sorted(&[7], 0.5), 7);
        assert_eq!(quantile_sorted(&[1, 2, 3, 4], 0.5), 2);
        assert_eq!(quantile_sorted(&[1, 2, 3, 4, 5], 0.5), 3);
        assert_eq!(quantile_sorted(&[1, 2, 3, 4, 5], 0.99), 5);
        assert_eq!(quantile_sorted(&[1, 2, 3, 4, 5], 0.0), 1);
        assert_eq!(quantile_sorted(&[1, 2, 3, 4, 5], 1.0), 5);
        // 100 samples: p99 is the 99th element (nearest rank).
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.99), 99);
        assert_eq!(quantile_sorted(&v, 0.50), 50);
    }

    #[test]
    fn disabled_tracker_reports_nothing() {
        let mut t = SloTracker::disabled();
        t.record(0, 1, 100);
        assert!(t.report(|_| String::new()).is_none());
    }

    #[test]
    fn windows_bucket_by_virtual_time() {
        let mut t = SloTracker::new(cfg(100, 50, 90, 0.5));
        // Window [0,100): meets both objectives.
        t.record(10, 1, 40);
        t.record(90, 1, 45);
        // Window [100,200): p50 blows the objective.
        t.record(150, 1, 80);
        t.record(199, 1, 90);
        let r = t.report(|e| format!("ep{e}")).unwrap();
        assert_eq!(r.endpoints.len(), 1);
        let e = &r.endpoints[0];
        assert_eq!(e.windows.len(), 2);
        assert!(e.windows[0].ok);
        assert_eq!(e.windows[0].p50_ns, 40);
        assert!(!e.windows[1].ok);
        assert_eq!(e.violating, 1);
        // 1 of 2 windows violating at budget 0.5 → budget exactly spent.
        assert!((e.budget_used - 1.0).abs() < 1e-9);
        assert!(e.ok);
    }

    #[test]
    fn burn_events_fire_past_threshold() {
        // Budget 0.25, threshold 2.0 → an alarm needs a violating
        // window while ≥ half of the windows so far violated.
        let mut t = SloTracker::new(SloConfig {
            window_ns: 100,
            objective: SloObjective {
                p50_ns: 10,
                p99_ns: 10,
                error_budget: 0.25,
                burn_threshold: 2.0,
            },
            per_endpoint: BTreeMap::new(),
        });
        t.record(10, 1, 100); // window 0: violates, burn 1/0.25 = 4 → fires
        t.record(110, 1, 5); // window 1: ok
        t.record(210, 1, 100); // window 2: violates, burn (2/3)/0.25 ≈ 2.7 → fires
        let r = t.report(|_| String::new()).unwrap();
        let e = &r.endpoints[0];
        assert_eq!(e.burn_events.len(), 2);
        assert_eq!(e.burn_events[0].window_start, 0);
        assert!(e.burn_events[0].burn_rate > 3.9);
        assert_eq!(e.burn_events[1].window_start, 200);
        assert!(!e.ok, "2/3 violating at budget 0.25 blows the budget");
    }

    #[test]
    fn per_endpoint_overrides_apply() {
        let mut c = cfg(100, 10, 10, 0.1);
        c.per_endpoint.insert(
            2,
            SloObjective {
                p50_ns: 1_000,
                p99_ns: 1_000,
                error_budget: 0.1,
                burn_threshold: 2.0,
            },
        );
        let mut t = SloTracker::new(c);
        t.record(10, 1, 500); // violates the default objective
        t.record(10, 2, 500); // within its override
        let r = t.report(|e| format!("ep{e}")).unwrap();
        assert!(!r.endpoints[0].ok);
        assert!(r.endpoints[1].ok);
    }

    #[test]
    fn online_monitor_matches_batch_burn_events() {
        // Monotone arrivals: the online monitor must fire the same burn
        // events as the batch report, one window late (a window closes
        // when the next one opens).
        let cfg = SloConfig {
            window_ns: 100,
            objective: SloObjective {
                p50_ns: 10,
                p99_ns: 10,
                error_budget: 0.25,
                burn_threshold: 2.0,
            },
            per_endpoint: BTreeMap::new(),
        };
        let mut t = SloTracker::new_online(cfg);
        t.record(10, 1, 100); // window 0: violates
        t.record(110, 1, 5); // window 1: ok (closes window 0)
        t.record(210, 1, 100); // window 2: violates (closes window 1)
        t.record(310, 1, 5); // closes window 2
        let online = t.drain_burn();
        let batch = t.report(|_| String::new()).unwrap().endpoints[0]
            .burn_events
            .clone();
        assert_eq!(online.len(), batch.len());
        for ((ep, o), b) in online.iter().zip(batch.iter()) {
            assert_eq!(*ep, 1);
            assert_eq!(o.window_start, b.window_start);
            assert!((o.burn_rate - b.burn_rate).abs() < 1e-9);
        }
        assert!(t.drain_burn().is_empty(), "drain empties the queue");
    }

    #[test]
    fn online_monitor_is_bounded_and_resettable() {
        let mut t = SloTracker::new_online(cfg(100, 1_000, 1_000, 0.5));
        for i in 0..10_000u64 {
            t.record(i * 10, 7, 5);
        }
        assert!(t.drain_burn().is_empty(), "healthy stream fires nothing");
        t.clear();
        assert!(t.report(|_| String::new()).unwrap().endpoints.is_empty());
    }

    #[test]
    fn plain_tracker_has_no_online_events() {
        let mut t = SloTracker::new(cfg(100, 10, 10, 0.1));
        t.record(10, 1, 500);
        t.record(110, 1, 500);
        assert!(t.drain_burn().is_empty());
    }

    #[test]
    fn json_is_float_free() {
        let mut t = SloTracker::new(cfg(100, 10, 10, 0.3));
        t.record(10, 1, 500);
        let r = t.report(|_| "x".into()).unwrap();
        let json = serde::json::to_string(&r.to_json_value());
        assert!(json.contains("\"budget_used_ppm\":3333333"), "{json}");
        assert!(!json.contains('.'), "floats leaked into JSON: {json}");
    }
}
