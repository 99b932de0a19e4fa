//! The bounded trace sink and its deterministic id allocators.
//!
//! The sink is a ring buffer: once `capacity` events are held, recording
//! another evicts the oldest and bumps `dropped`. Id allocation is a pair
//! of plain counters, so a run's ids depend only on the order of
//! recording — which, under the deterministic kernel, depends only on
//! the seed. A disabled sink records nothing and allocates nothing,
//! keeping untraced runs bit-identical to pre-tracing behaviour.

use crate::span::{SpanEvent, SpanEventKind};
use legion_core::time::SimTime;
use legion_core::trace::{SpanId, TraceContext, TraceId};
use std::collections::VecDeque;

/// A bounded, deterministic recorder of [`SpanEvent`]s.
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    events: VecDeque<SpanEvent>,
    capacity: usize,
    enabled: bool,
    dropped: u64,
    next_trace: u64,
    next_span: u64,
}

impl TraceSink {
    /// A disabled sink (records nothing).
    pub fn disabled() -> Self {
        TraceSink::default()
    }

    /// An enabled sink holding at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceSink {
            events: VecDeque::with_capacity(capacity.min(4096)),
            capacity: capacity.max(1),
            enabled: true,
            dropped: 0,
            next_trace: 0,
            next_span: 0,
        }
    }

    /// Is the sink recording?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Allocate a fresh trace id (deterministic counter).
    pub fn next_trace(&mut self) -> TraceId {
        self.next_trace += 1;
        TraceId(self.next_trace)
    }

    /// Allocate a fresh span id (deterministic counter).
    pub fn next_span(&mut self) -> SpanId {
        self.next_span += 1;
        SpanId(self.next_span)
    }

    /// Open a root span: allocates trace + span ids and records `Begin`.
    /// Returns [`TraceContext::NONE`] when the sink is disabled.
    pub fn begin(&mut self, at: SimTime, endpoint: u64, label: &str) -> TraceContext {
        if !self.enabled {
            return TraceContext::NONE;
        }
        let tc = TraceContext::new(self.next_trace(), self.next_span());
        self.record(SpanEvent {
            trace: tc.trace,
            span: tc.span,
            parent: SpanId::NONE,
            kind: SpanEventKind::Begin,
            at,
            endpoint,
            label: label.to_owned(),
        });
        tc
    }

    /// Record one event (no-op when disabled; evicts the oldest event
    /// when full).
    pub fn record(&mut self, event: SpanEvent) {
        if !self.enabled {
            return;
        }
        if self.events.len() >= self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Events evicted because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Is the buffer empty?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterate held events in recording order.
    pub fn iter(&self) -> impl Iterator<Item = &SpanEvent> {
        self.events.iter()
    }

    /// Take all held events, leaving the sink enabled and empty.
    pub fn drain(&mut self) -> Vec<SpanEvent> {
        self.events.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(trace: u64, span: u64) -> SpanEvent {
        SpanEvent {
            trace: TraceId(trace),
            span: SpanId(span),
            parent: SpanId::NONE,
            kind: SpanEventKind::Kernel(legion_journal::RecordKind::Note),
            at: SimTime(1),
            endpoint: 0,
            label: String::new(),
        }
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let mut s = TraceSink::disabled();
        assert!(!s.is_enabled());
        s.record(ev(1, 1));
        assert!(s.is_empty());
        assert_eq!(s.begin(SimTime(0), 0, "op"), TraceContext::NONE);
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut s = TraceSink::with_capacity(2);
        s.record(ev(1, 1));
        s.record(ev(1, 2));
        s.record(ev(1, 3));
        assert_eq!(s.len(), 2);
        assert_eq!(s.dropped(), 1);
        let spans: Vec<u64> = s.iter().map(|e| e.span.0).collect();
        assert_eq!(spans, vec![2, 3]);
    }

    #[test]
    fn ids_are_sequential_and_nonzero() {
        let mut s = TraceSink::with_capacity(16);
        assert_eq!(s.next_trace(), TraceId(1));
        assert_eq!(s.next_trace(), TraceId(2));
        assert_eq!(s.next_span(), SpanId(1));
        let tc = s.begin(SimTime(5), 9, "op");
        assert!(tc.is_active());
        assert_eq!(tc.trace, TraceId(3));
        assert_eq!(tc.span, SpanId(2));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn drain_empties_but_keeps_recording() {
        let mut s = TraceSink::with_capacity(8);
        s.record(ev(1, 1));
        let drained = s.drain();
        assert_eq!(drained.len(), 1);
        assert!(s.is_empty());
        s.record(ev(1, 2));
        assert_eq!(s.len(), 1);
    }
}
