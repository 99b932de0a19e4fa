//! Per-request critical-path reconstruction.
//!
//! Rebuilds each trace from its flat event list: pairs every `Send` with
//! its `Deliver` (same span id) to recover hop latencies, then accounts
//! the request's end-to-end time into **network** time (the union of
//! in-flight hop intervals) and **wait** time (everything else — queueing
//! at endpoints, timer backoff, inter-phase think time). Because wait is
//! an explicit bucket, the breakdown accounts for 100% of each request's
//! latency; the per-hop-label rows then explain where the network time
//! went.

use crate::span::{SpanEvent, SpanEventKind};
use legion_core::time::SimTime;
use legion_core::trace::{SpanId, TraceId};
use legion_journal::RecordKind;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// How one message hop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HopFate {
    /// Delivered at this virtual time.
    Delivered(SimTime),
    /// Silently dropped by the fault plan.
    Dropped,
    /// Detectably refused at the sender.
    Refused,
    /// Arrived to find the endpoint dead.
    DeadLettered,
    /// No terminal event recorded (still in flight at drain time).
    Pending,
}

/// One reconstructed message hop.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Hop {
    /// The hop's span id.
    pub span: SpanId,
    /// The span that caused this hop.
    pub parent: SpanId,
    /// Method name (or `reply`) of the message.
    pub label: String,
    /// When it left the sender.
    pub sent_at: SimTime,
    /// The sending endpoint.
    pub from: u64,
    /// The receiving endpoint, once known.
    pub to: Option<u64>,
    /// How it ended.
    pub fate: HopFate,
}

impl Hop {
    /// The hop's in-flight latency, for delivered hops.
    pub fn latency(&self) -> Option<u64> {
        match self.fate {
            HopFate::Delivered(at) => Some(at.saturating_since(self.sent_at)),
            _ => None,
        }
    }
}

/// Everything reconstructed about one trace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceSummary {
    /// The trace id.
    pub trace: TraceId,
    /// The `Begin` label (operation name), if a `Begin` was captured.
    pub label: String,
    /// When the root span opened.
    pub begin_at: Option<SimTime>,
    /// When the request ended.
    pub end_at: Option<SimTime>,
    /// The `End` label (outcome), if an `End` was captured.
    pub outcome: String,
    /// Message hops, in send order.
    pub hops: Vec<Hop>,
    /// `Note` annotations as `(at, endpoint, label)`.
    pub notes: Vec<(SimTime, u64, String)>,
    /// Timer firings observed inside the trace.
    pub timers: u64,
}

/// Group a flat event list into per-trace summaries, ordered by trace id.
pub fn summarize(events: &[SpanEvent]) -> Vec<TraceSummary> {
    let mut by_trace: BTreeMap<TraceId, TraceSummary> = BTreeMap::new();
    for e in events {
        if !e.trace.is_some() {
            continue;
        }
        let s = by_trace.entry(e.trace).or_insert_with(|| TraceSummary {
            trace: e.trace,
            label: String::new(),
            begin_at: None,
            end_at: None,
            outcome: String::new(),
            hops: Vec::new(),
            notes: Vec::new(),
            timers: 0,
        });
        match e.kind {
            SpanEventKind::Begin => {
                s.begin_at = Some(e.at);
                s.label = e.label.clone();
            }
            SpanEventKind::End => {
                s.end_at = Some(e.at);
                s.outcome = e.label.clone();
            }
            SpanEventKind::Send => s.hops.push(Hop {
                span: e.span,
                parent: e.parent,
                label: e.label.clone(),
                sent_at: e.at,
                from: e.endpoint,
                to: None,
                fate: HopFate::Pending,
            }),
            SpanEventKind::Kernel(
                kind @ (RecordKind::Deliver
                | RecordKind::Drop
                | RecordKind::Refuse
                | RecordKind::DeadLetter),
            ) => {
                if let Some(h) = s.hops.iter_mut().rev().find(|h| h.span == e.span) {
                    h.fate = match kind {
                        RecordKind::Deliver => HopFate::Delivered(e.at),
                        RecordKind::Drop => HopFate::Dropped,
                        RecordKind::Refuse => HopFate::Refused,
                        _ => HopFate::DeadLettered,
                    };
                    if kind == RecordKind::Deliver {
                        h.to = Some(e.endpoint);
                    }
                }
            }
            SpanEventKind::Kernel(RecordKind::TimerFire) => s.timers += 1,
            // Notes and fault-verdict annotations: the hop's fate is still
            // decided by its eventual Deliver/Drop event, so these read as
            // notes.
            SpanEventKind::Kernel(_) => s.notes.push((e.at, e.endpoint, e.label.clone())),
        }
    }
    by_trace.into_values().collect()
}

/// One trace's latency accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestPath {
    /// The trace id.
    pub trace: TraceId,
    /// The operation name.
    pub label: String,
    /// End-to-end latency in virtual nanoseconds (0 if begin/end missing).
    pub total_ns: u64,
    /// Nanoseconds with at least one hop of this trace in flight.
    pub network_ns: u64,
    /// `total - network`: queueing, timer backoff, think time.
    pub wait_ns: u64,
    /// Per-hop-label `(label, hops, summed latency)` in label order.
    pub by_label: Vec<(String, u64, u64)>,
    /// Hops that never delivered (dropped/refused/dead-lettered/pending).
    pub faulted_hops: u64,
    /// Fraction of `total_ns` accounted by `network + wait` (1.0 by
    /// construction when begin/end were both captured).
    pub coverage: f64,
}

/// Account one trace's end-to-end time. Hops outside `[begin, end]` are
/// clamped into the window.
pub fn request_path(s: &TraceSummary) -> RequestPath {
    let begin = s.begin_at.unwrap_or(SimTime::ZERO);
    let end = s.end_at.unwrap_or(begin);
    let total_ns = end.saturating_since(begin);

    // Union of in-flight intervals, clamped to the request window.
    let mut intervals: Vec<(u64, u64)> = s
        .hops
        .iter()
        .filter_map(|h| {
            let d = match h.fate {
                HopFate::Delivered(at) => at.as_nanos(),
                _ => return None,
            };
            let lo = h.sent_at.as_nanos().max(begin.as_nanos());
            let hi = d.min(end.as_nanos());
            (hi > lo).then_some((lo, hi))
        })
        .collect();
    intervals.sort_unstable();
    let mut network_ns = 0u64;
    let mut cursor = 0u64;
    for (lo, hi) in intervals {
        let lo = lo.max(cursor);
        if hi > lo {
            network_ns += hi - lo;
            cursor = hi;
        }
        cursor = cursor.max(hi);
    }

    let mut by_label: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    let mut faulted = 0u64;
    for h in &s.hops {
        match h.latency() {
            Some(lat) => {
                let e = by_label.entry(h.label.clone()).or_insert((0, 0));
                e.0 += 1;
                e.1 += lat;
            }
            None => faulted += 1,
        }
    }

    let wait_ns = total_ns.saturating_sub(network_ns);
    RequestPath {
        trace: s.trace,
        label: s.label.clone(),
        total_ns,
        network_ns,
        wait_ns,
        by_label: by_label.into_iter().map(|(l, (n, t))| (l, n, t)).collect(),
        faulted_hops: faulted,
        coverage: if total_ns == 0 {
            1.0
        } else {
            (network_ns + wait_ns) as f64 / total_ns as f64
        },
    }
}

/// Aggregate accounting across every trace in an event list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HopBreakdown {
    /// Number of traces with both `Begin` and `End` captured.
    pub requests: u64,
    /// Σ end-to-end latency across those requests.
    pub total_ns: u64,
    /// Σ in-flight (network) time.
    pub network_ns: u64,
    /// Σ wait time.
    pub wait_ns: u64,
    /// Per-label `(label, hops, summed latency)` across all requests.
    pub by_label: Vec<(String, u64, u64)>,
    /// Hops that never delivered.
    pub faulted_hops: u64,
    /// The worst per-request accounted fraction (min over requests).
    pub min_coverage: f64,
}

/// Build the aggregate breakdown for an event list.
pub fn hop_breakdown(events: &[SpanEvent]) -> HopBreakdown {
    let mut agg = HopBreakdown {
        requests: 0,
        total_ns: 0,
        network_ns: 0,
        wait_ns: 0,
        by_label: Vec::new(),
        faulted_hops: 0,
        min_coverage: 1.0,
    };
    let mut labels: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for s in summarize(events) {
        if s.begin_at.is_none() || s.end_at.is_none() {
            continue;
        }
        let p = request_path(&s);
        agg.requests += 1;
        agg.total_ns += p.total_ns;
        agg.network_ns += p.network_ns;
        agg.wait_ns += p.wait_ns;
        agg.faulted_hops += p.faulted_hops;
        agg.min_coverage = agg.min_coverage.min(p.coverage);
        for (l, n, t) in p.by_label {
            let e = labels.entry(l).or_insert((0, 0));
            e.0 += n;
            e.1 += t;
        }
    }
    agg.by_label = labels.into_iter().map(|(l, (n, t))| (l, n, t)).collect();
    agg
}

#[cfg(test)]
mod tests {
    use super::*;
    use legion_core::trace::SpanId;

    fn ev(
        trace: u64,
        span: u64,
        parent: u64,
        kind: SpanEventKind,
        at: u64,
        label: &str,
    ) -> SpanEvent {
        SpanEvent {
            trace: TraceId(trace),
            span: SpanId(span),
            parent: SpanId(parent),
            kind,
            at: SimTime(at),
            endpoint: 0,
            label: label.into(),
        }
    }

    /// begin@0 .. send@0->deliver@10 .. send@10->deliver@30 .. end@40
    fn one_trace() -> Vec<SpanEvent> {
        vec![
            ev(1, 1, 0, SpanEventKind::Begin, 0, "lookup"),
            ev(1, 2, 1, SpanEventKind::Send, 0, "GetBinding"),
            ev(1, 2, 1, SpanEventKind::Kernel(RecordKind::Deliver), 10, ""),
            ev(1, 3, 2, SpanEventKind::Send, 10, "reply"),
            ev(1, 3, 2, SpanEventKind::Kernel(RecordKind::Deliver), 30, ""),
            ev(1, 1, 0, SpanEventKind::End, 40, "ok"),
        ]
    }

    #[test]
    fn hops_pair_send_with_deliver() {
        let s = summarize(&one_trace());
        assert_eq!(s.len(), 1);
        let s = &s[0];
        assert_eq!(s.hops.len(), 2);
        assert_eq!(s.hops[0].latency(), Some(10));
        assert_eq!(s.hops[1].latency(), Some(20));
        assert_eq!(s.label, "lookup");
        assert_eq!(s.outcome, "ok");
    }

    #[test]
    fn path_accounts_everything() {
        let s = summarize(&one_trace());
        let p = request_path(&s[0]);
        assert_eq!(p.total_ns, 40);
        assert_eq!(p.network_ns, 30);
        assert_eq!(p.wait_ns, 10);
        assert_eq!(p.network_ns + p.wait_ns, p.total_ns);
        assert_eq!(p.coverage, 1.0);
        assert_eq!(p.faulted_hops, 0);
    }

    #[test]
    fn overlapping_hops_do_not_double_count() {
        let events = vec![
            ev(1, 1, 0, SpanEventKind::Begin, 0, "fanout"),
            ev(1, 2, 1, SpanEventKind::Send, 0, "Ping"),
            ev(1, 3, 1, SpanEventKind::Send, 0, "Ping"),
            ev(1, 2, 1, SpanEventKind::Kernel(RecordKind::Deliver), 10, ""),
            ev(1, 3, 1, SpanEventKind::Kernel(RecordKind::Deliver), 15, ""),
            ev(1, 1, 0, SpanEventKind::End, 15, "ok"),
        ];
        let p = request_path(&summarize(&events)[0]);
        assert_eq!(p.network_ns, 15, "union, not sum");
        assert_eq!(p.wait_ns, 0);
        // Per-label sums still show both hops.
        assert_eq!(p.by_label, vec![("Ping".to_string(), 2, 25)]);
    }

    #[test]
    fn faulted_hops_are_counted_not_timed() {
        let events = vec![
            ev(1, 1, 0, SpanEventKind::Begin, 0, "op"),
            ev(1, 2, 1, SpanEventKind::Send, 0, "Ping"),
            ev(1, 2, 1, SpanEventKind::Kernel(RecordKind::Drop), 0, "drop"),
            ev(1, 1, 0, SpanEventKind::End, 50, "failed"),
        ];
        let p = request_path(&summarize(&events)[0]);
        assert_eq!(p.faulted_hops, 1);
        assert_eq!(p.network_ns, 0);
        assert_eq!(p.wait_ns, 50);
    }

    #[test]
    fn aggregate_spans_multiple_traces() {
        let mut events = one_trace();
        let mut second = one_trace();
        for e in &mut second {
            e.trace = TraceId(2);
        }
        events.extend(second);
        let b = hop_breakdown(&events);
        assert_eq!(b.requests, 2);
        assert_eq!(b.total_ns, 80);
        assert_eq!(b.network_ns, 60);
        assert_eq!(b.wait_ns, 20);
        assert!(b.min_coverage >= 0.95, "acceptance floor");
    }
}
