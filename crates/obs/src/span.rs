//! The span-event schema.
//!
//! A trace is a flat, time-ordered list of [`SpanEvent`]s. A message hop
//! is one span: its `Send` event (at the sender, at send time) and its
//! `Deliver` event (at the receiver, at delivery time) share a span id,
//! so hop latency falls out of the event list without any state. Faulted
//! hops get a `Drop`/`Refuse`/`DeadLetter` event instead of a `Deliver`,
//! tagged with the fault verdict in `label`.
//!
//! `Begin`, `End` and `Send` are the span stream's own; every other event
//! is a kernel event, named by the journal's [`RecordKind`]. Its `Display`
//! text and trace-JSON name are the kind's row of
//! `legion_journal::record::KINDS` (`timer` / `Timer` for a timer fire).

use legion_core::time::SimTime;
use legion_core::trace::{SpanId, TraceId};
use legion_journal::RecordKind;
use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;

/// What happened at one point of a trace: the span stream's own
/// bookkeeping, or a kernel event it sees (a [`RecordKind`] whose row
/// says so, or a handler's [`RecordKind::Note`] annotation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanEventKind {
    /// A root span opened (one per workload-level request).
    Begin,
    /// The request finished (successfully or not — see `label`).
    End,
    /// A message hop left its sender.
    Send,
    /// A kernel event: a hop's fate, a fault verdict, a timer or a note.
    Kernel(RecordKind),
}

impl SpanEventKind {
    /// Kept only for `benchmark/`, which names it; deleted by the next
    /// benchmark change (ROADMAP item 5).
    #[allow(non_upper_case_globals)]
    pub const Deliver: SpanEventKind = SpanEventKind::Kernel(RecordKind::Deliver);

    /// The `Display` text and the trace-JSON name.
    fn names(self) -> (&'static str, &'static str) {
        match self {
            SpanEventKind::Begin => ("begin", "Begin"),
            SpanEventKind::End => ("end", "End"),
            SpanEventKind::Send => ("send", "Send"),
            SpanEventKind::Kernel(kind) => (kind.row().text, kind.row().trace_name),
        }
    }
}

impl fmt::Display for SpanEventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.names().0)
    }
}

impl Serialize for SpanEventKind {
    fn to_json_value(&self) -> Value {
        Value::Str(self.names().1.into())
    }
}

impl Deserialize for SpanEventKind {
    fn from_json_value(v: &Value) -> Result<Self, DeError> {
        let name = v
            .as_str()
            .ok_or_else(|| DeError::expected("span kind", v))?;
        let span_only = [
            SpanEventKind::Begin,
            SpanEventKind::End,
            SpanEventKind::Send,
        ];
        let kernel = legion_journal::record::KINDS
            .iter()
            .map(|row| SpanEventKind::Kernel(row.kind));
        span_only
            .into_iter()
            .chain(kernel)
            .find(|kind| kind.names().1 == name)
            .ok_or_else(|| DeError(format!("unknown SpanEventKind variant `{name}`")))
    }
}

/// One recorded event. 72 bytes; the sink stores these by value.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanEvent {
    /// The request this event belongs to.
    pub trace: TraceId,
    /// The span this event describes.
    pub span: SpanId,
    /// The causal parent span (`SpanId::NONE` for roots).
    pub parent: SpanId,
    /// What happened.
    pub kind: SpanEventKind,
    /// When (virtual time).
    pub at: SimTime,
    /// The endpoint where the event was observed (`u64::MAX` when the
    /// event originated outside the kernel, e.g. a driver injection).
    pub endpoint: u64,
    /// Kind-specific detail: method name for hops, counter name for
    /// notes, outcome for `End`, timer tag for `Timer`.
    pub label: String,
}

impl SpanEvent {
    /// The sentinel endpoint for events originating outside the kernel.
    pub const EXTERNAL: u64 = u64::MAX;
}

impl fmt::Display for SpanEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}/{} (parent {}) {} @ep{} [{}]",
            self.kind, self.trace, self.span, self.parent, self.at, self.endpoint, self.label
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn kinds_render_distinctly() {
        let span_only = [
            SpanEventKind::Begin,
            SpanEventKind::End,
            SpanEventKind::Send,
        ];
        let kernel = legion_journal::record::KINDS
            .iter()
            .map(|row| SpanEventKind::Kernel(row.kind));
        let (mut texts, mut names) = (HashSet::new(), HashSet::new());
        for k in span_only.into_iter().chain(kernel) {
            assert!(texts.insert(k.to_string()), "duplicate rendering for {k:?}");
            let v = k.to_json_value();
            assert!(names.insert(v.as_str().unwrap().to_owned()), "{k:?}");
            assert_eq!(SpanEventKind::from_json_value(&v), Ok(k));
        }
        assert!(SpanEventKind::from_json_value(&Value::Str("Nope".into())).is_err());
    }

    /// The sink stores events by value: wrapping a `RecordKind` must not
    /// grow one.
    #[test]
    fn span_event_stays_72_bytes() {
        assert_eq!(std::mem::size_of::<SpanEvent>(), 72);
    }

    #[test]
    fn event_displays_all_parts() {
        let e = SpanEvent {
            trace: TraceId(1),
            span: SpanId(2),
            parent: SpanId::NONE,
            kind: SpanEventKind::Send,
            at: SimTime(10),
            endpoint: 3,
            label: "Ping".into(),
        };
        let s = e.to_string();
        assert!(s.contains("T1") && s.contains("S2") && s.contains("Ping"));
    }
}
