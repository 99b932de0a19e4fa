//! SLO tracking: windowed p50/p99 per endpoint against configured
//! objectives, with error budgets and burn-rate events.
//!
//! The ROADMAP E18 plan (load-driven class cloning) needs a *signal*:
//! "this endpoint is burning its latency budget faster than it can
//! afford". This module turns the kernel's per-endpoint delivery
//! latencies, bucketed into fixed windows of virtual time, into exactly
//! that: each window gets an **exact** nearest-rank p50/p99 verdict
//! against the objective; the fraction of violating windows is charged
//! against the **error budget**; and whenever the cumulative
//! **burn rate** (budget consumed ÷ budget that sustainable consumption
//! would have used by now) crosses the configured threshold on a
//! violating window, a [`BurnEvent`] fires.
//!
//! Windows are judged as the run goes, not at its end. The kernel
//! records a hop's sample when it sends the message, keyed by its
//! arrival, so no later sample can arrive before the latest send time
//! seen: a window that ends at or before it is final. The tracker keeps
//! the samples of the windows not yet judged and, per endpoint, two
//! counts and the burn events of the judged ones (see [`SloTracker`]).
//! That burn log is the one signal: the report lists it, and a control
//! loop inside the run (E18's auto-scaler) polls how much of it is new
//! ([`SloTracker::drain_burn`]).
//!
//! Quantiles are exact (sorted samples, nearest-rank), not the ~2×
//! log-bucket approximation [`Histogram`](struct@crate::analysis) users
//! get elsewhere — objectives are contracts, and a contract checked
//! against an approximation is no contract. Everything here is a pure
//! function of the simulation's deterministic latencies, so SLO verdicts
//! golden-test cleanly.

use serde::Value;

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

/// Tracker configuration: the window width and the objective every
/// endpoint is judged against.
#[derive(Debug, Clone, PartialEq)]
pub struct SloConfig {
    /// Window width in virtual ns.
    pub window_ns: u64,
    /// The objective.
    pub objective: SloObjective,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            window_ns: 1_000_000,
            objective: SloObjective::default(),
        }
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

/// Collects per-endpoint latency samples into windows of virtual time
/// and judges each window once it has closed. Disabled (the kernel
/// default) until given a config; recording while disabled is a no-op.
///
/// **The close rule.** A sample `(at, endpoint, latency)` was taken at
/// `at − latency`: the kernel records a hop when it sends the message,
/// keyed by its arrival, and `Ctx::slo_record` records a response time at
/// the current instant, later still. The tracker keeps the latest such
/// sender clock. Virtual time never runs backwards, so every later sample
/// arrives no earlier than that clock (debug builds assert it), and a
/// window that ends at or before it is final. Before a sample is filed,
/// its endpoint's windows that the clock has passed are judged, in start
/// order — each window's latencies sorted once, its exact p50/p99 folded
/// into the endpoint's counts (windows, violating) and any burn event
/// into one shared log. Each endpoint's windows are judged in the order a
/// sort of every sample would take them, so the counts and burn rates
/// come out the same bits; [`report`](SloTracker::report) judges the
/// windows still open on a copy.
///
/// Recording sits on the kernel's delivery path, so the tracker keeps
/// only the samples of windows not yet judged, in buffers recycled from
/// judged ones: a warm tracker records without allocating, and its memory
/// is what the messages in flight will land in, not one entry per
/// delivery of the run. Endpoint ids index a flat table, so they should
/// be dense, as the kernel's are.
#[derive(Debug, Clone, Default)]
pub struct SloTracker {
    cfg: Option<SloConfig>,
    fold: WindowFold,
    /// How much of the fold's burn log [`drain_burn`](Self::drain_burn)
    /// has counted.
    drained: usize,
}

/// The exact streaming fold behind [`SloTracker`]: the samples of the
/// windows not yet judged plus what the judged ones came to.
#[derive(Debug, Clone, Default)]
struct WindowFold {
    /// The latest sender clock, `at − latency`, recorded.
    clock: u64,
    /// Indexed by endpoint id.
    endpoints: Vec<EndpointFold>,
    /// Every endpoint's windows not yet judged, each endpoint's linked in
    /// start order from its `head`. A freed slot keeps its buffer.
    slab: Vec<OpenWindow>,
    /// Free slots of `slab`, last freed first.
    free: Vec<u32>,
    /// `(endpoint, event)` in firing order: one endpoint's in window order.
    burns: Vec<(u64, BurnEvent)>,
}

/// The end of an endpoint's list of windows.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct EndpointFold {
    /// Its earliest window not yet judged, or [`NIL`].
    head: u32,
    /// Windows judged.
    windows: u64,
    /// Windows that violated.
    violating: u64,
}

impl Default for EndpointFold {
    fn default() -> Self {
        EndpointFold {
            head: NIL,
            windows: 0,
            violating: 0,
        }
    }
}

#[derive(Debug, Clone)]
struct OpenWindow {
    start: u64,
    /// The endpoint's next window, or [`NIL`].
    next: u32,
    /// Latencies, ns, in arrival order.
    latencies: Vec<u64>,
}

impl WindowFold {
    fn record(&mut self, cfg: &SloConfig, start: u64, at_ns: u64, endpoint: u64, latency_ns: u64) {
        debug_assert!(
            at_ns >= self.clock,
            "an SLO sample arriving at {at_ns} ns was recorded after the sender clock reached {} ns",
            self.clock
        );
        self.clock = self.clock.max(at_ns.saturating_sub(latency_ns));
        let i = usize::try_from(endpoint).expect("an endpoint id indexes the tally");
        if i >= self.endpoints.len() {
            self.endpoints.resize(i + 1, EndpointFold::default());
        }
        self.judge_until(cfg, endpoint, self.clock);
        // Walk to the first window that does not start before the
        // sample's; most samples land in the first one.
        let (mut prev, mut at) = (NIL, self.endpoints[i].head);
        while at != NIL && self.slab[at as usize].start < start {
            prev = at;
            at = self.slab[at as usize].next;
        }
        if at != NIL && self.slab[at as usize].start == start {
            self.slab[at as usize].latencies.push(latency_ns);
            return;
        }
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                let slot = u32::try_from(self.slab.len()).expect("under 2^32 open windows");
                self.slab.push(OpenWindow {
                    start,
                    next: NIL,
                    latencies: Vec::new(),
                });
                slot
            }
        };
        let w = &mut self.slab[slot as usize];
        w.start = start;
        w.next = at;
        w.latencies.push(latency_ns);
        match prev {
            NIL => self.endpoints[i].head = slot,
            prev => self.slab[prev as usize].next = slot,
        }
    }

    /// Judge, in start order, each of `endpoint`'s windows that ends at
    /// or before `clock`, and free its slot.
    fn judge_until(&mut self, cfg: &SloConfig, endpoint: u64, clock: u64) {
        let ep = &mut self.endpoints[endpoint as usize];
        while ep.head != NIL {
            let w = &mut self.slab[ep.head as usize];
            if w.start.saturating_add(cfg.window_ns) > clock {
                break;
            }
            if w.latencies.len() > 1 {
                w.latencies.sort_unstable();
            }
            ep.windows += 1;
            let burn = judge_window(
                &cfg.objective,
                w.start,
                &w.latencies,
                ep.windows,
                &mut ep.violating,
            );
            self.burns.extend(burn.map(|b| (endpoint, b)));
            w.latencies.clear();
            self.free.push(ep.head);
            ep.head = w.next;
        }
    }

    /// Forget every sample and verdict, keeping the buffers.
    fn clear(&mut self) {
        self.clock = 0;
        self.burns.clear();
        self.endpoints.fill(EndpointFold::default());
        self.free.clear();
        for (slot, w) in (0u32..).zip(&mut self.slab) {
            w.latencies.clear();
            self.free.push(slot);
        }
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
            // A table for a thousand endpoints up front (24 KiB): a run
            // that attaches endpoints mid-way, as E12's measured wave
            // does its clients, does not grow it while measured.
            fold: WindowFold {
                endpoints: Vec::with_capacity(1024),
                ..WindowFold::default()
            },
            drained: 0,
        }
    }

    /// How many burn events the tracker has judged since the last drain
    /// (or [`clear`](Self::clear)): a cursor over the log the report
    /// reads, so it allocates nothing. Only final windows are judged, so
    /// the drains of a run never add up to more than its report's burn
    /// events. Always 0 while disabled.
    pub fn drain_burn(&mut self) -> usize {
        let judged = self.fold.burns.len();
        judged - std::mem::replace(&mut self.drained, judged)
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
    /// `endpoint`. The sample was taken at `at_ns − latency_ns`, and no
    /// sample recorded after it may arrive before that instant (the
    /// close rule above).
    #[inline]
    pub fn record(&mut self, at_ns: u64, endpoint: u64, latency_ns: u64) {
        let Some(cfg) = &self.cfg else {
            return;
        };
        let start = (at_ns / cfg.window_ns) * cfg.window_ns;
        self.fold.record(cfg, start, at_ns, endpoint, latency_ns);
    }

    /// Drop collected samples and verdicts, keeping the configuration;
    /// the next [`drain_burn`](Self::drain_burn) counts from here.
    pub fn clear(&mut self) {
        self.fold.clear();
        self.drained = 0;
    }

    /// Evaluate every endpoint's windows against its objective,
    /// resolving endpoint ids to names with `name_of`. Windows still open
    /// are judged on a copy, so recording can go on. Returns `None` when
    /// the tracker is disabled.
    pub fn report(&self, name_of: impl Fn(u64) -> String) -> Option<SloReport> {
        let cfg = self.cfg.as_ref()?;
        let mut fold = self.fold.clone();
        for endpoint in 0..fold.endpoints.len() as u64 {
            fold.judge_until(cfg, endpoint, u64::MAX);
        }
        // A stable sort by endpoint keeps each endpoint's events in
        // window order.
        fold.burns.sort_by_key(|&(endpoint, _)| endpoint);
        let mut burns = fold.burns.into_iter().peekable();
        let endpoints = (0u64..)
            .zip(&fold.endpoints)
            .filter(|(_, ep)| ep.windows > 0)
            .map(|(endpoint, ep)| {
                let mut burn_events = Vec::new();
                while let Some((_, b)) = burns.next_if(|&(e, _)| e == endpoint) {
                    burn_events.push(b);
                }
                finish_endpoint(EndpointSlo {
                    endpoint,
                    name: name_of(endpoint),
                    objective: cfg.objective,
                    windows: ep.windows,
                    violating: ep.violating,
                    budget_used: 0.0,
                    ok: true,
                    burn_events,
                })
            })
            .collect();
        Some(SloReport {
            window_ns: cfg.window_ns,
            endpoints,
        })
    }
}

/// Judge one window of ascending latencies starting at `start`: its
/// exact nearest-rank p50/p99 against `objective`, then, if it violated,
/// the cumulative burn check — the fraction of the `seen` windows so far
/// (this one included) that violated, as a multiple of the sustainable
/// rate (= the error budget itself). `violating` counts the violating
/// windows and is bumped here.
fn judge_window(
    objective: &SloObjective,
    start: u64,
    sorted: &[u64],
    seen: u64,
    violating: &mut u64,
) -> Option<BurnEvent> {
    let ok = quantile_sorted(sorted, 0.50) <= objective.p50_ns
        && quantile_sorted(sorted, 0.99) <= objective.p99_ns;
    if ok {
        return None;
    }
    *violating += 1;
    if objective.error_budget <= 0.0 {
        return None;
    }
    let burn = (*violating as f64 / seen as f64) / objective.error_budget;
    (burn >= objective.burn_threshold).then_some(BurnEvent {
        window_start: start,
        burn_rate: burn,
    })
}

fn finish_endpoint(mut slo: EndpointSlo) -> EndpointSlo {
    let windows = slo.windows as f64;
    slo.budget_used = if windows > 0.0 && slo.objective.error_budget > 0.0 {
        (slo.violating as f64 / windows) / slo.objective.error_budget
    } else {
        0.0
    };
    slo.ok = slo.budget_used <= 1.0;
    slo
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
    /// Windows that received samples.
    pub windows: u64,
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
                                ("windows".to_string(), Value::U64(e.windows)),
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

    /// The four samples of `windows_bucket_by_virtual_time`, judged
    /// against `(p50, p99)` objectives: the report's one endpoint.
    fn two_windows(p50: u64, p99: u64) -> EndpointSlo {
        let mut t = SloTracker::new(cfg(100, p50, p99, 0.5));
        // Window [0,100): latencies 40 and 45.
        t.record(10, 1, 40);
        t.record(90, 1, 45);
        // Window [100,200): latencies 80 and 90.
        t.record(150, 1, 80);
        t.record(199, 1, 90);
        let r = t.report(|e| format!("ep{e}")).unwrap();
        assert_eq!(r.endpoints.len(), 1);
        r.endpoints[0].clone()
    }

    #[test]
    fn windows_bucket_by_virtual_time() {
        // The first window meets (50, 90); the second's p50 blows it.
        let e = two_windows(50, 90);
        assert_eq!(e.windows, 2);
        assert_eq!(e.violating, 1);
        // 1 of 2 windows violating at budget 0.5 → budget exactly spent.
        assert!((e.budget_used - 1.0).abs() < 1e-9);
        assert!(e.ok);
        // Each window's exact quantiles: an objective equal to one
        // passes, one 1 ns below it fails.
        assert_eq!(two_windows(40, 1_000).violating, 1, "p50 of [0,100) is 40");
        assert_eq!(two_windows(39, 1_000).violating, 2);
        assert_eq!(
            two_windows(80, 1_000).violating,
            0,
            "p50 of [100,200) is 80"
        );
        assert_eq!(two_windows(79, 1_000).violating, 1);
        assert_eq!(two_windows(1_000, 45).violating, 1, "p99 of [0,100) is 45");
        assert_eq!(two_windows(1_000, 44).violating, 2);
        assert_eq!(
            two_windows(1_000, 90).violating,
            0,
            "p99 of [100,200) is 90"
        );
        assert_eq!(two_windows(1_000, 89).violating, 1);
    }

    #[test]
    fn windows_are_judged_once_the_sender_clock_passes_them() {
        let mut t = SloTracker::new(cfg(100, 50, 50, 0.5));
        // Endpoint `ep`'s windows not yet judged, by start.
        let open = |t: &SloTracker, ep: usize| {
            let mut starts = Vec::new();
            let mut at = t.fold.endpoints[ep].head;
            while at != NIL {
                starts.push(t.fold.slab[at as usize].start);
                at = t.fold.slab[at as usize].next;
            }
            starts
        };
        t.record(30, 3, 0); // sent at 30: endpoint 3's [0,100) opens
        t.record(250, 1, 200); // sent at 50: endpoint 1's [200,300) opens
        t.record(150, 1, 90); // sent at 60: [100,200) goes first
        t.record(210, 1, 110); // sent at 100: [0,100) is final
        assert_eq!(
            open(&t, 1),
            [100, 200],
            "endpoint 1's windows, in start order"
        );
        assert_eq!(
            open(&t, 3),
            [0],
            "endpoint 3's [0,100) waits for its next sample"
        );
        t.record(250, 3, 140); // sent at 110
        assert_eq!(t.fold.endpoints[3].windows, 1);
        assert_eq!(
            open(&t, 3),
            [200],
            "[200,300) took the judged window's slot"
        );
        assert_eq!(t.fold.slab.len(), 3);
        // The report judges the open windows on a copy.
        let r = t.report(|_| String::new()).unwrap();
        let windows: Vec<(u64, u64)> = r
            .endpoints
            .iter()
            .map(|e| (e.endpoint, e.windows))
            .collect();
        assert_eq!(windows, [(1, 2), (3, 2)]);
        assert_eq!(r.endpoints[0].violating, 2);
        assert_eq!(open(&t, 1), [100, 200], "reporting judges nothing in place");
        t.clear();
        assert!(open(&t, 1).is_empty() && t.fold.endpoints[3].windows == 0);
        assert_eq!(
            t.fold.free.len(),
            3,
            "every slot is free and keeps its buffer"
        );
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
        });
        t.record(10, 1, 100); // window 0: violates, burn 1/0.25 = 4 → fires
        t.record(110, 1, 5); // window 1: ok
        t.record(210, 1, 100); // window 2: violates, burn (2/3)/0.25 ≈ 2.7 → fires
        assert_eq!(
            t.drain_burn(),
            1,
            "sent at 110: window 0 is final, 1 is not"
        );
        assert_eq!(t.drain_burn(), 0, "a drain counts each event once");
        let r = t.report(|_| String::new()).unwrap();
        let e = &r.endpoints[0];
        assert_eq!(e.burn_events.len(), 2);
        assert_eq!(e.burn_events[0].window_start, 0);
        assert!(e.burn_events[0].burn_rate > 3.9);
        assert_eq!(e.burn_events[1].window_start, 200);
        assert!(!e.ok, "2/3 violating at budget 0.25 blows the budget");
    }

    #[test]
    fn drain_cursor_matches_batch_burn_events() {
        // The in-run signal (the drain cursor) counts the same burn
        // events as the report once every window is final.
        let mut t = SloTracker::new(SloConfig {
            window_ns: 100,
            objective: SloObjective {
                p50_ns: 10,
                p99_ns: 10,
                error_budget: 0.25,
                burn_threshold: 2.0,
            },
        });
        t.record(10, 1, 100); // window 0: violates
        t.record(110, 1, 5); // window 1: ok
        t.record(210, 1, 100); // window 2: violates
        t.record(310, 1, 5); // sent at 305: windows 0..=2 are final
        let online = t.drain_burn();
        let batch = &t.report(|_| String::new()).unwrap().endpoints[0].burn_events;
        assert_eq!(online, 2);
        assert_eq!(online, batch.len());
        assert_eq!(t.drain_burn(), 0, "a drain counts each event once");
    }

    #[test]
    fn drain_cursor_is_bounded_and_resettable() {
        let mut t = SloTracker::new(cfg(100, 1_000, 1_000, 0.5));
        for i in 0..10_000u64 {
            t.record(i * 10, 7, 5);
        }
        assert_eq!(t.drain_burn(), 0, "healthy stream fires nothing");
        assert!(
            t.fold.slab.len() <= 2,
            "only the windows not yet judged are held: {} slots",
            t.fold.slab.len()
        );
        // The next drain after a clear counts from the clear.
        let mut t = SloTracker::new(cfg(100, 10, 10, 0.5));
        t.record(10, 7, 500);
        t.record(610, 7, 5); // sent at 605: window 0 is final and fired
        assert_eq!(t.drain_burn(), 1);
        t.clear();
        assert!(t.report(|_| String::new()).unwrap().endpoints.is_empty());
        assert_eq!(t.drain_burn(), 0);
        t.record(10, 7, 500);
        t.record(610, 7, 5);
        assert_eq!(t.drain_burn(), 1, "the cursor restarts after clear");
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
