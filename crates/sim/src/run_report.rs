//! Renderings of an observed run: the unified run report — one document
//! tying the kernel's observability surfaces together — plus the
//! trace-analysis tables and the `--metrics-out` document.
//!
//! `legion-exp <id> --report-out FILE` builds a [`RunReport`] from what
//! the [run harness](crate::harness) observed of that experiment's
//! representative point — profiler, SLO tracker, span sink, and windowed
//! counters all on — and renders it twice: machine-readable JSON
//! ([`RunReport::to_json`]) and a human-readable text digest
//! ([`RunReport::render_text`]).
//!
//! Everything exported here is a pure function of the simulation's
//! deterministic state: the profile keeps only message counts and
//! sim-time (wall-time and allocation deltas vary run-to-run — see
//! [`Profile::to_json_value`](legion_obs::profile::Profile::to_json_value)),
//! SLO fractions are integer millionths, and the flight-recorder tail
//! carries virtual timestamps only. Two runs with the same seed therefore
//! produce byte-identical reports, and `tests/goldens.rs` pins one.
//!
//! The trace-analysis tables are [`Table`] views of the per-request
//! critical paths that [`legion_obs::analysis`] reconstructs from the
//! span stream.

use crate::harness::Observed;
use crate::report::{f, ns, pct, Table};
use legion_obs::analysis::{hop_breakdown, request_path, summarize, HopBreakdown, HopFate};
use legion_obs::profile::{critical_path_profile, PathWeight};
use legion_obs::span::SpanEvent;
use serde::{Serialize, Value};

/// Rows in the hot-method table.
pub const TOP_N: usize = 12;

/// One observed run, ready to render.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Which experiment's observed point this is.
    pub experiment: &'static str,
    /// The seed the run used.
    pub seed: u64,
    /// Critical-path-weighted label profile from the span stream.
    pub critical_path: Vec<PathWeight>,
    /// What the harness collected when the run closed.
    pub run: Observed,
}

impl RunReport {
    /// The report of `experiment`'s observed point.
    pub fn new(experiment: &'static str, seed: u64, run: Observed) -> Self {
        RunReport {
            experiment,
            seed,
            critical_path: critical_path_profile(&run.spans),
            run,
        }
    }

    /// The report as a JSON document (pretty-printed, trailing newline).
    /// Deterministic per seed: no wall-times, no allocation deltas, no
    /// floats.
    pub fn to_json(&self) -> String {
        let hot = Value::Array(
            self.run
                .profile
                .hot_methods(TOP_N)
                .iter()
                .map(|h| {
                    Value::Object(vec![
                        ("method".to_string(), Value::Str(h.method.clone())),
                        ("count".to_string(), Value::U64(h.count)),
                        ("sim_ns".to_string(), Value::U64(h.sim_ns)),
                        ("endpoints".to_string(), Value::U64(h.endpoints)),
                    ])
                })
                .collect(),
        );
        let path = Value::Array(
            self.critical_path
                .iter()
                .map(|(label, hops, time_ns)| {
                    Value::Object(vec![
                        ("label".to_string(), Value::Str(label.clone())),
                        ("hops".to_string(), Value::U64(*hops)),
                        ("time_ns".to_string(), Value::U64(*time_ns)),
                    ])
                })
                .collect(),
        );
        let flight = Value::Object(vec![
            ("total".to_string(), Value::U64(self.run.flight_total)),
            (
                "tail".to_string(),
                Value::Array(
                    self.run
                        .flight_tail
                        .iter()
                        .map(|e| e.to_json_value())
                        .collect(),
                ),
            ),
        ]);
        let doc = Value::Object(vec![
            (
                "experiment".to_string(),
                Value::Str(self.experiment.to_string()),
            ),
            ("seed".to_string(), Value::U64(self.seed)),
            (
                "jurisdictions".to_string(),
                Value::U64(self.run.jurisdictions as u64),
            ),
            ("metrics".to_string(), self.run.metrics.to_json_value()),
            ("profile".to_string(), self.run.profile.to_json_value(false)),
            ("hot_methods".to_string(), hot),
            ("critical_path".to_string(), path),
            ("slo".to_string(), self.run.slo.to_json_value()),
            ("flight".to_string(), flight),
        ]);
        serde::json::to_string_pretty(&doc) + "\n"
    }

    /// The report as a human-readable text digest.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "run report: {} (seed {}, jurisdictions {})\n\n",
            self.experiment, self.seed, self.run.jurisdictions
        ));

        let s = &self.run.metrics.stats;
        let mut kernel = Table::new(
            "kernel at quiescence",
            &[
                "delivered",
                "lost",
                "dead-letters",
                "dispatch-dl",
                "timeouts-expired",
                "requests-shed",
                "overload-replies",
                "trace-dropped",
            ],
        );
        kernel.row(vec![
            s.delivered.to_string(),
            s.lost.to_string(),
            s.dead_letters.to_string(),
            self.run.metrics.dispatch_dead_letters.to_string(),
            self.run.metrics.timeouts_expired.to_string(),
            self.run.metrics.requests_shed.to_string(),
            self.run.metrics.overload_replies.to_string(),
            self.run.metrics.trace_dropped.to_string(),
        ]);
        out.push_str(&kernel.render());
        out.push('\n');

        let mut hot = Table::new(
            format!("hot methods (top {} by sim-time)", TOP_N),
            &["method", "count", "sim-time", "endpoints"],
        );
        for h in self.run.profile.hot_methods(TOP_N) {
            hot.row(vec![
                h.method.clone(),
                h.count.to_string(),
                ns(h.sim_ns),
                h.endpoints.to_string(),
            ]);
        }
        out.push_str(&hot.render());
        out.push('\n');

        let mut path = Table::new(
            "critical-path profile (summed over complete requests)",
            &["label", "hops", "time"],
        );
        for (label, hops, time_ns) in &self.critical_path {
            path.row(vec![label.clone(), hops.to_string(), ns(*time_ns)]);
        }
        out.push_str(&path.render());
        out.push('\n');

        let mut slo = Table::new(
            format!("SLO verdicts (window {})", ns(self.run.slo.window_ns)),
            &[
                "endpoint",
                "windows",
                "violating",
                "budget-used",
                "burn-events",
                "verdict",
            ],
        );
        for e in &self.run.slo.endpoints {
            slo.row(vec![
                e.name.clone(),
                e.windows.len().to_string(),
                e.violating.to_string(),
                format!("{}ppm", (e.budget_used * 1_000_000.0).round() as u64),
                e.burn_events.len().to_string(),
                if e.ok { "ok" } else { "BUDGET BLOWN" }.to_string(),
            ]);
        }
        out.push_str(&slo.render());
        out.push('\n');

        out.push_str(&format!(
            "flight recorder: last {} of {} events\n",
            self.run.flight_tail.len(),
            self.run.flight_total
        ));
        for ev in &self.run.flight_tail {
            out.push_str(&format!("  {ev}\n"));
        }
        out
    }
}

/// Render the aggregate hop breakdown: one row per message kind plus the
/// network/wait/total accounting. Per-kind times are summed hop latencies
/// and may overlap (concurrent hops), so their shares can exceed the
/// network row; the network row is the de-overlapped union.
pub fn breakdown_table(label: &str, b: &HopBreakdown) -> Table {
    let mut t = Table::new(
        format!(
            "{label} traced: hop breakdown over {} requests (min coverage {})",
            b.requests,
            f(b.min_coverage * 100.0, 1) + "%"
        ),
        &["segment", "hops", "time", "share"],
    );
    for (label, hops, time) in &b.by_label {
        t.row(vec![
            label.clone(),
            hops.to_string(),
            ns(*time),
            pct(*time, b.total_ns),
        ]);
    }
    t.row(vec![
        "network (union)".into(),
        "-".into(),
        ns(b.network_ns),
        pct(b.network_ns, b.total_ns),
    ]);
    t.row(vec![
        "wait (queue/backoff)".into(),
        "-".into(),
        ns(b.wait_ns),
        pct(b.wait_ns, b.total_ns),
    ]);
    t.row(vec![
        "total".into(),
        b.faulted_hops.to_string() + " faulted",
        ns(b.total_ns),
        pct(b.network_ns + b.wait_ns, b.total_ns),
    ]);
    t
}

/// Render the `top` slowest requests with their critical-path accounting.
pub fn slowest_requests_table(label: &str, events: &[SpanEvent], top: usize) -> Table {
    let mut paths: Vec<_> = summarize(events)
        .iter()
        .filter(|s| s.begin_at.is_some() && s.end_at.is_some())
        .map(request_path)
        .collect();
    paths.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.trace.cmp(&b.trace)));
    paths.truncate(top);
    let mut t = Table::new(
        format!("{label} traced: slowest requests (critical-path accounting)"),
        &[
            "trace", "op", "hops", "faulted", "network", "wait", "total", "coverage",
        ],
    );
    for p in &paths {
        let hops: u64 = p.by_label.iter().map(|(_, n, _)| n).sum();
        t.row(vec![
            p.trace.to_string(),
            p.label.clone(),
            hops.to_string(),
            p.faulted_hops.to_string(),
            ns(p.network_ns),
            ns(p.wait_ns),
            ns(p.total_ns),
            f(p.coverage * 100.0, 1) + "%",
        ]);
    }
    t
}

/// Render how requests ended, per operation label and outcome, with the
/// fault verdicts observed on their hops.
pub fn outcomes_table(label: &str, events: &[SpanEvent]) -> Table {
    use std::collections::BTreeMap;
    let mut rows: BTreeMap<(String, String), (u64, u64, u64)> = BTreeMap::new();
    for s in summarize(events) {
        if s.begin_at.is_none() || s.end_at.is_none() {
            continue;
        }
        let faulted = s
            .hops
            .iter()
            .filter(|h| !matches!(h.fate, HopFate::Delivered(_)))
            .count() as u64;
        let e = rows
            .entry((s.label.clone(), s.outcome.clone()))
            .or_insert((0, 0, 0));
        e.0 += 1;
        e.1 += faulted;
        e.2 += s.timers;
    }
    let mut t = Table::new(
        format!("{label} traced: request outcomes"),
        &["op", "outcome", "requests", "faulted hops", "timer fires"],
    );
    for ((op, outcome), (n, faulted, timers)) in rows {
        t.row(vec![
            op,
            outcome,
            n.to_string(),
            faulted.to_string(),
            timers.to_string(),
        ]);
    }
    t
}

/// All three trace-analysis tables for an event stream, titled with the
/// experiment's `label` ("E1"). Each stands apart from the table above it.
pub fn analysis_tables(label: &str, events: &[SpanEvent]) -> Vec<Table> {
    vec![
        breakdown_table(label, &hop_breakdown(events)).detached(),
        slowest_requests_table(label, events, 10).detached(),
        outcomes_table(label, events).detached(),
    ]
}

/// The `--metrics-out` document for experiment `id`: the metrics snapshot
/// plus the trace-analysis tables, as one pretty-printed JSON object.
pub fn metrics_doc(id: &str, run: &Observed) -> String {
    let tables = analysis_tables(&id.to_uppercase(), &run.spans);
    serde::json::to_string_pretty(&Value::Object(vec![
        ("experiment".to_string(), Value::Str(id.into())),
        ("metrics".to_string(), run.metrics.to_json_value()),
        (
            "tables".to_string(),
            Value::Array(tables.iter().map(|t| t.to_json()).collect()),
        ),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{e01_binding_path, e12_scalability::steady_state};
    use crate::harness::{Journal, Watch};
    use legion_obs::export::to_jsonl;

    fn traced_e01(seed: u64) -> Observed {
        let watch = Watch::all(Journal::Off);
        e01_binding_path::observed(true, seed, watch).expect("no journal to fail")
    }

    fn generate(jurisdictions: u32, seed: u64) -> RunReport {
        let watch = Watch::all(Journal::Off);
        let run = steady_state(jurisdictions, seed, watch, || ()).1;
        RunReport::new("e12", seed, run.expect("no journal to fail"))
    }

    #[test]
    fn report_has_every_section() {
        let r = generate(1, 33);
        assert!(
            r.run.profile.total_count() > 0,
            "profiler attributed nothing"
        );
        assert!(!r.critical_path.is_empty(), "no critical-path labels");
        assert!(!r.run.slo.endpoints.is_empty(), "no SLO endpoints");
        assert!(r.run.flight_total > 0, "flight recorder saw nothing");
        let json = r.to_json();
        for key in [
            "\"experiment\"",
            "\"metrics\"",
            "\"profile\"",
            "\"hot_methods\"",
            "\"critical_path\"",
            "\"slo\"",
            "\"flight\"",
        ] {
            assert!(json.contains(key), "missing {key}");
        }
        // Non-deterministic cost fields must not leak into the document.
        assert!(!json.contains("wall_ns"), "wall-time leaked into report");
        assert!(!json.contains("alloc"), "alloc deltas leaked into report");
        let text = r.render_text();
        assert!(text.contains("hot methods"));
        assert!(text.contains("SLO verdicts"));
        assert!(text.contains("flight recorder"));
    }

    #[test]
    fn report_is_deterministic_per_seed() {
        let a = generate(1, 44);
        let b = generate(1, 44);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.render_text(), b.render_text());
    }

    #[test]
    fn traced_e01_accounts_at_least_95_percent() {
        let run = traced_e01(11);
        assert!(!run.spans.is_empty());
        let b = hop_breakdown(&run.spans);
        assert!(b.requests > 0, "no complete requests traced");
        assert!(
            b.min_coverage >= 0.95,
            "worst request only {:.1}% accounted",
            b.min_coverage * 100.0
        );
        // The breakdown names the protocol's message kinds.
        assert!(
            b.by_label.iter().any(|(l, _, _)| l == "GetBinding"),
            "{:?}",
            b.by_label
        );
        // Requests cross the client → agent → upstream tiers.
        let multi_endpoint = summarize(&run.spans).iter().any(|s| {
            s.hops
                .iter()
                .filter_map(|h| h.to)
                .collect::<std::collections::BTreeSet<_>>()
                .len()
                >= 3
        });
        assert!(multi_endpoint, "no request crossed three endpoints");
    }

    #[test]
    fn traced_e01_is_deterministic() {
        let a = traced_e01(7);
        let b = traced_e01(7);
        assert_eq!(to_jsonl(&a.spans), to_jsonl(&b.spans));
        assert_eq!(
            serde::json::to_string(&a.metrics.to_json_value()),
            serde::json::to_string(&b.metrics.to_json_value())
        );
    }

    #[test]
    fn tables_render_from_traced_run() {
        let run = traced_e01(11);
        let tables = analysis_tables("E1", &run.spans);
        assert_eq!(tables.len(), 3);
        for t in &tables {
            assert!(!t.is_empty(), "{}", t.render());
        }
        // Snapshot carries per-kind histograms and windowed counters.
        assert!(!run.metrics.by_kind.is_empty());
        assert!(!run.metrics.windows.is_empty());
    }
}
