//! Every spelling of every kernel event kind, pinned by literal.
//!
//! One kernel event is written out in up to five places: the journal
//! record's rendering, the flight-recorder dump line, the flight event's
//! JSON, the span event's `Display` and the trace JSONL. The goldens see
//! only the spellings their runs happen to produce (deliveries, timers,
//! notes, the span bookkeeping), so a fault verdict could be renamed in
//! one of those places and nothing would notice. This test drives each
//! of the 17 journal kinds through one kernel with the journal, the span
//! sink and the flight recorder on, and compares every rendering it
//! produces against the table below — including which renderings a kind
//! does *not* produce.

use legion_core::env::InvocationEnv;
use legion_core::loid::Loid;
use legion_core::symbol;
use legion_core::trace::TraceContext;
use legion_journal::{JournalRecord, MemSink, RecordKind};
use legion_net::faults::FaultPlan;
use legion_net::message::Message;
use legion_net::sim::{Ctx, Endpoint, EndpointId, FlightEvent, FlightKind, SimKernel};
use legion_net::topology::{Location, Topology};
use legion_obs::export::to_jsonl;
use legion_obs::span::SpanEvent;
use serde::json;

/// A kernel event kind's spellings: the journal label, the flight
/// recorder's (dump and JSON), and the span stream's (`Display` and
/// trace-JSON `kind`). `None`: that watcher never sees the kind.
type Row = (
    RecordKind,
    &'static str,
    Option<&'static str>,
    Option<(&'static str, &'static str)>,
);

#[rustfmt::skip]
const KERNEL_KINDS: [Row; 17] = [
    (RecordKind::Attach,     "attach",      None,                None),
    (RecordKind::Detach,     "detach",      None,                None),
    (RecordKind::Start,      "start",       None,                None),
    (RecordKind::Deliver,    "deliver",     Some("deliver"),     Some(("deliver", "Deliver"))),
    (RecordKind::TimerFire,  "timer-fire",  None,                Some(("timer", "Timer"))),
    (RecordKind::Inject,     "inject",      None,                None),
    (RecordKind::Drop,       "drop",        Some("drop"),        Some(("drop", "Drop"))),
    (RecordKind::Duplicate,  "duplicate",   Some("duplicate"),   Some(("duplicate", "Duplicate"))),
    (RecordKind::Delay,      "delay",       Some("delay"),       Some(("delay", "Delay"))),
    (RecordKind::Dedup,      "dedup",       Some("dedup"),       Some(("dedup", "Dedup"))),
    (RecordKind::DeadLetter, "dead-letter", Some("dead_letter"), Some(("dead_letter", "DeadLetter"))),
    (RecordKind::Refuse,     "refuse",      Some("refuse"),      Some(("refuse", "Refuse"))),
    (RecordKind::Timeout,    "timeout",     Some("timeout"),     None),
    (RecordKind::HaVerdict,  "ha-verdict",  Some("ha_verdict"),  None),
    (RecordKind::Snapshot,   "snapshot",    None,                None),
    (RecordKind::Note,       "note",        Some("note"),        None),
    (RecordKind::Shed,       "shed",        Some("shed"),        None),
];

/// The span stream's own events, as `Display` and trace-JSON `kind`: a
/// root span's open and close, a hop leaving its sender, and a handler's
/// trace annotation.
const SPAN_ONLY: [(&str, &str); 4] = [
    ("begin", "Begin"),
    ("end", "End"),
    ("send", "Send"),
    ("note", "Note"),
];

/// `Arm` arms a timer; `Annotate` raises one flight event of each kind an
/// endpoint raises and annotates the trace; anything else is just
/// delivered.
struct Probe;

impl Endpoint for Probe {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        match msg.method() {
            Some("Arm") => ctx.set_timer(10, 7),
            Some("Annotate") => {
                for kind in [
                    FlightKind::Timeout,
                    FlightKind::HaVerdict,
                    FlightKind::Note,
                    FlightKind::Shed,
                ] {
                    ctx.flight(kind, symbol::PING, 1);
                }
                ctx.trace_note("probe.note");
            }
            _ => {}
        }
    }
}

fn inject(k: &mut SimKernel, tc: TraceContext, to: EndpointId, method: &str) -> bool {
    let id = k.fresh_call_id();
    let env = InvocationEnv::anonymous().with_trace(tc);
    let msg = Message::call(id, Loid::instance(16, 1), method, vec![], env);
    k.inject(Location::new(0, 1), to.element(), msg)
}

fn call(k: &mut SimKernel, tc: TraceContext, to: EndpointId, method: &str) -> bool {
    let accepted = inject(k, tc, to, method);
    k.run_until_quiescent(100);
    accepted
}

/// The word after a rendered line's `[…ns]` timestamp: the kind column
/// of a journal record and of a flight dump line.
fn kind_column(line: &str) -> &str {
    let (_, rest) = line.split_once("ns] ").expect("timestamp column");
    rest.split_whitespace().next().expect("kind column")
}

/// One kernel run that raises every journal kind, inside one trace so
/// the kinds the span stream sees only inside a trace show.
fn run() -> (Vec<JournalRecord>, Vec<FlightEvent>, Vec<SpanEvent>) {
    let sink = MemSink::new();
    let mut k = SimKernel::new(Topology::zero(), FaultPlan::seeded(3), 7);
    k.enable_journal_record(Box::new(sink.clone()), 8);
    k.enable_tracing(1024);
    let tc = k.begin_trace("spellings");

    let probe = k.add_endpoint(Box::new(Probe), Location::new(0, 0), "probe");
    assert!(call(&mut k, tc, probe, "Ping"));
    assert!(call(&mut k, tc, probe, "Arm"));
    assert!(call(&mut k, tc, probe, "Annotate"));
    k.faults_mut().set_drop_probability(1.0);
    assert!(call(&mut k, tc, probe, "Ping"));
    k.faults_mut().set_drop_probability(0.0);
    k.faults_mut().set_duplicate_probability(1.0);
    assert!(call(&mut k, tc, probe, "Ping"));
    k.faults_mut().set_duplicate_probability(0.0);
    k.faults_mut().set_reorder(1.0, 5_000);
    assert!(call(&mut k, tc, probe, "Ping"));
    k.faults_mut().set_reorder(0.0, 0);
    assert!(inject(&mut k, tc, probe, "Ping"));
    k.remove_endpoint(probe);
    k.run_until_quiescent(100);
    assert!(!call(&mut k, tc, probe, "Ping"));
    k.end_trace(tc, "ok");
    k.finish_journal().unwrap();

    let (_, records) = legion_journal::read_all(&sink.contents()).unwrap();
    let flights = k.flight().iter().copied().collect();
    (records, flights, k.drain_trace())
}

#[test]
fn every_kind_is_spelled_as_pinned_everywhere() {
    let (records, flights, spans) = run();

    let mut expected_spans = Vec::new();
    for (kind, journal, flight, _) in KERNEL_KINDS {
        let of_kind: Vec<&JournalRecord> = records.iter().filter(|r| r.kind == kind).collect();
        assert!(!of_kind.is_empty(), "{journal}: the run never raised it");
        for rec in of_kind {
            assert_eq!(kind_column(&rec.to_string()), journal, "{rec}");
            let flown: Vec<&FlightEvent> = flights.iter().filter(|e| e.seq == rec.seq).collect();
            match flight {
                None => assert!(flown.is_empty(), "{journal}: flight saw {flown:?}"),
                Some(label) => {
                    assert_eq!(flown.len(), 1, "{journal}: {flown:?}");
                    assert_eq!(kind_column(&flown[0].to_string()), label);
                    let json = flown[0].to_json_value();
                    assert_eq!(json.get("kind").and_then(|v| v.as_str()), Some(label));
                }
            }
        }
    }
    for rec in &records {
        let row = KERNEL_KINDS.iter().find(|row| row.0 == rec.kind).unwrap();
        expected_spans.extend(row.3);
    }

    let jsonl = to_jsonl(&spans);
    let rendered: Vec<(String, String)> = spans
        .iter()
        .zip(jsonl.lines())
        .map(|(event, line)| {
            let value = json::from_str(line).expect("trace line parses");
            let kind = value.get("kind").and_then(|v| v.as_str()).unwrap();
            let display = event.to_string();
            (
                display.split(' ').next().unwrap().to_owned(),
                kind.to_owned(),
            )
        })
        .collect();
    assert_eq!(rendered.len(), spans.len());
    for (display, trace_json) in SPAN_ONLY {
        assert!(
            rendered.iter().any(|r| r.0 == display && r.1 == trace_json),
            "{display}: the run never recorded it"
        );
    }
    let kernel_spans: Vec<(&str, &str)> = rendered
        .iter()
        .map(|(d, j)| (d.as_str(), j.as_str()))
        .filter(|pair| !SPAN_ONLY.contains(pair))
        .collect();
    assert_eq!(kernel_spans, expected_spans);
}
