//! JSONL export of recorded span events.
//!
//! One event per line, in recording order. Because the kernel is
//! deterministic and ids come from counters, two same-seed runs render
//! byte-identical output — which the acceptance tests assert.

use crate::span::SpanEvent;
use serde::{json, Serialize};

/// Render events as JSON Lines (one compact object per line, trailing
/// newline included when non-empty).
pub fn to_jsonl(events: &[SpanEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&json::to_string(&e.to_json_value()));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanEventKind;
    use legion_core::time::SimTime;
    use legion_core::trace::{SpanId, TraceId};
    use serde::Deserialize;

    fn sample() -> Vec<SpanEvent> {
        vec![
            SpanEvent {
                trace: TraceId(1),
                span: SpanId(1),
                parent: SpanId::NONE,
                kind: SpanEventKind::Begin,
                at: SimTime(0),
                endpoint: 7,
                label: "lookup".into(),
            },
            SpanEvent {
                trace: TraceId(1),
                span: SpanId(2),
                parent: SpanId(1),
                kind: SpanEventKind::Send,
                at: SimTime(10),
                endpoint: 7,
                label: "GetBinding".into(),
            },
        ]
    }

    #[test]
    fn jsonl_round_trips() {
        let events = sample();
        let text = to_jsonl(&events);
        assert_eq!(text.lines().count(), 2);
        let back: Vec<SpanEvent> = text
            .lines()
            .map(|l| SpanEvent::from_json_value(&json::from_str(l).expect("json")).expect("event"))
            .collect();
        assert_eq!(back, events);
    }

    #[test]
    fn empty_input_renders_empty() {
        assert_eq!(to_jsonl(&[]), "");
    }
}
