//! Spans recorded by the benchmark's own code around its calls into the
//! program (choosing-metrics §4): name, start, end, parent, one trace id
//! per run. Held in memory; written as JSON lines when the run ends.
//! Recording is off for end-to-end runs and on only in the traced pass.

use std::io::Write;
use std::time::Instant;

/// Index of a span in its [`Spans`] recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    /// `None` while the span is open.
    pub end_ns: Option<u64>,
}

/// An in-memory span recorder. A disabled recorder hands out dummy ids
/// and stores nothing, so untraced runs pay one branch per call.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    trace_id: u64,
    spans: Vec<Span>,
}

impl Spans {
    pub fn disabled() -> Self {
        Spans {
            enabled: false,
            epoch: Instant::now(),
            trace_id: 0,
            spans: Vec::new(),
        }
    }

    /// A recording instance; `capacity` spans are reserved up front so
    /// recording does not allocate inside the measured region.
    pub fn enabled(trace_id: u64, capacity: usize) -> Self {
        Spans {
            enabled: true,
            epoch: Instant::now(),
            trace_id,
            spans: Vec::with_capacity(capacity),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: parent.map(|p| p.0),
            start_ns,
            end_ns: None,
        });
        SpanId(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: SpanId) {
        if self.enabled {
            let end = self.now_ns();
            self.spans[id.0].end_ns = Some(end);
        }
    }

    /// Record an already-timed child span (the measured loop times its
    /// slices itself; this stores them without a second clock read).
    pub fn push_timed(&mut self, name: &'static str, parent: SpanId, start: Instant, dur_ns: u64) {
        if self.enabled {
            let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                name,
                parent: Some(parent.0),
                start_ns,
                end_ns: Some(start_ns + dur_ns),
            });
        }
    }

    /// Duration of the first closed span called `name`, ns.
    pub fn duration_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.end_ns.unwrap_or(s.start_ns) - s.start_ns)
            .unwrap_or(0)
    }

    /// A span's self time: its duration minus the part of that interval
    /// its direct children cover (children are sequential, never
    /// overlapping, in this benchmark; each is clipped to the parent).
    pub fn self_ns(&self, id: SpanId) -> u64 {
        let s = &self.spans[id.0];
        let end = s.end_ns.unwrap_or(s.start_ns);
        let covered: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id.0))
            .map(|c| {
                let c_end = c.end_ns.unwrap_or(c.start_ns).min(end);
                c_end.saturating_sub(c.start_ns.max(s.start_ns))
            })
            .sum();
        (end - s.start_ns).saturating_sub(covered)
    }

    pub fn find(&self, name: &str) -> Option<SpanId> {
        self.spans.iter().position(|s| s.name == name).map(SpanId)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// One JSON object per span: `trace`, `id`, `parent`, `name`,
    /// `start_ns`, `end_ns` (relative to the recorder's epoch).
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"trace\":{},\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                self.trace_id,
                s.name,
                s.start_ns,
                s.end_ns.unwrap_or(s.start_ns),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(spans: Vec<Span>) -> Spans {
        Spans {
            enabled: true,
            epoch: Instant::now(),
            trace_id: 9,
            spans,
        }
    }

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            start_ns: start,
            end_ns: Some(end),
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let s = fixed(vec![
            span("measure", None, 100, 1_100),
            span("measure.slice", Some(0), 100, 400),
            span("measure.slice", Some(0), 450, 900),
            // A grandchild must not be subtracted from the root twice.
            span("inner", Some(2), 500, 600),
            // A child overhanging its parent is clipped to it.
            span("measure.slice", Some(0), 1_000, 1_300),
        ]);
        assert_eq!(s.self_ns(SpanId(0)), 1_000 - 300 - 450 - 100);
        assert_eq!(s.self_ns(SpanId(2)), 450 - 100);
        assert_eq!(s.self_ns(SpanId(1)), 300);
        assert_eq!(s.duration_ns("measure"), 1_000);
        assert_eq!(s.find("inner"), Some(SpanId(3)));
    }

    #[test]
    fn disabled_recorder_stores_nothing() {
        let mut s = Spans::disabled();
        let root = s.open("measure", None);
        s.push_timed("measure.slice", root, Instant::now(), 5);
        s.close(root);
        assert!(s.spans.is_empty());
        let mut buf = Vec::new();
        s.write_jsonl(&mut buf).unwrap();
        assert!(buf.is_empty());
    }

    #[test]
    fn jsonl_has_one_object_per_span_sharing_the_trace_id() {
        let s = fixed(vec![span("a", None, 0, 10), span("b", Some(0), 2, 4)]);
        let mut buf = Vec::new();
        s.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for l in &lines {
            let v = serde::json::from_str(l).expect("valid JSON");
            assert_eq!(v.get("trace").and_then(|t| t.as_u64()), Some(9));
        }
        assert!(lines[1].contains("\"parent\":0"));
    }
}
