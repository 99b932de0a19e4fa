//! The watcher seam: everything that *observes* the kernel's event flow.
//!
//! The stepper ([`crate::sim`]) orders and delivers events. It tells the
//! [`Watcher`] about each one with a single call to one of a handful of
//! event methods and never touches a metric store, the span sink, the
//! flight recorder, the profiler, the SLO tracker or the journal itself
//! (`tools/lint_seam.sh` keeps every recording call in this file). Every
//! event is named by one [`RecordKind`], the journal's, and every watcher
//! records it under that same value: the journal sees every kind, and the
//! kind's row of the event-kind table (`legion_journal::record::KINDS`)
//! says whether the flight recorder and the span stream see it too.
//!
//! The watchers' two public faces live here too, next to the state they
//! switch on and read out: the driver's ([`SimKernel`]: `enable_*`,
//! reports, journal session) and the handler's ([`Ctx`]: counters, trace
//! annotations, flight notes, SLO samples).

use crate::metrics::{Counters, EndpointMetrics, Histogram, MetricsSnapshot, WindowedCounters};
use crate::sim::{Ctx, EndpointId, SimKernel};
use legion_core::symbol::{self, Sym};
use legion_core::time::SimTime;
use legion_core::trace::{SpanId, TraceContext};
use legion_journal::record::{FlightDetail, Spans};
use legion_journal::{Divergence, JournalError, JournalSummary, KernelJournal, RecordKind};
use legion_obs::profile::{KernelProfiler, Profile};
use legion_obs::recorder::{FlightEvent, FlightRecorder};
use legion_obs::sink::TraceSink;
use legion_obs::slo::{SloConfig, SloReport, SloTracker};
use legion_obs::span::{SpanEvent, SpanEventKind};
use std::collections::BTreeMap;
use std::fmt;
use std::time::Instant;

/// The profiler's open bracket around one handler: the process-wide
/// allocation counters and the wall clock when it started.
pub(crate) type HandlerStart = Option<((u64, u64), Instant)>;

/// Everything that watches the kernel: metric stores, span sink, flight
/// recorder, profiler, SLO tracker and journal — all but the flight
/// recorder off by default.
#[derive(Default)]
pub(crate) struct Watcher {
    counters: Counters,
    /// Delivered-message latency per message kind; the overall
    /// distribution is their merge.
    by_kind: BTreeMap<Sym, Histogram>,
    windows: WindowedCounters,
    sink: TraceSink,
    /// Always on: the last-N kernel events, dumped on chaos violations,
    /// deadline sweeps, and panics.
    flight: FlightRecorder,
    /// Per-endpoint × per-method cost attribution (off by default).
    profile: KernelProfiler,
    /// Windowed latency-objective tracking (off by default).
    slo: SloTracker,
    /// Keep deadline sweeps quiet. By default one that expires
    /// continuations dumps the recorder tail to stderr — a fired sweep is
    /// a failure worth post-mortem context.
    quiet_sweeps: bool,
    /// Off (default), recording every kernel ingress, or verifying a
    /// re-execution against a reference journal.
    journal: KernelJournal,
}

/// What the stepper tells the watchers. These are its per-event calls:
/// `#[inline]` lets them be compiled into `step` and `send_one` as they
/// were when written out there (the probe `net.kernel.pingpong` shows
/// the difference).
impl Watcher {
    /// One kernel ingress of `kind` at `endpoint`: journaled as
    /// `(kind, endpoint, a, b, label)`, then recorded wherever the kind's
    /// [`RecordKind::row`] says it is seen. `span_label` is rendered only
    /// if a span is recorded.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn ingress(
        &mut self,
        now: SimTime,
        kind: RecordKind,
        endpoint: u64,
        label: Sym,
        a: u64,
        b: u64,
        trace: TraceContext,
        span_label: fmt::Arguments<'_>,
    ) {
        let seq = self.note(now, kind, endpoint, a, b, || label.as_str());
        let row = kind.row();
        if let Some(detail) = row.flight {
            let detail = match detail {
                FlightDetail::A => a,
                FlightDetail::B => b,
            };
            self.flight(now, kind, endpoint, label, detail, seq);
        }
        let traced = match row.spans {
            Spans::Never => false,
            Spans::InTrace => trace.is_active(),
            Spans::Always => true,
        };
        if traced && self.sink.is_enabled() {
            let label = span_label.to_string();
            let kind = SpanEventKind::Kernel(kind);
            self.record_span(now, trace, SpanId::NONE, kind, endpoint, label);
        }
    }

    /// An endpoint attached (labelled with its name), detached or
    /// started: journaled and nothing else. The label is a plain string —
    /// endpoint names are per-endpoint and never interned.
    #[inline]
    pub(crate) fn lifecycle(&mut self, now: SimTime, kind: RecordKind, endpoint: u64, label: &str) {
        debug_assert!(kind.row().flight.is_none() && kind.row().spans == Spans::Never);
        self.note(now, kind, endpoint, 0, 0, || label);
    }

    /// A message of kind `label` leaves `from`. Inside a trace the hop
    /// becomes the message's new span — the receiver's own sends will
    /// parent under it — and gets its `Send` event; `Refuse`/`Drop` or
    /// `Deliver` follow on the same span.
    #[inline]
    pub(crate) fn hop_sent(
        &mut self,
        now: SimTime,
        trace: &mut TraceContext,
        from: u64,
        label: Sym,
    ) {
        if self.sink.is_enabled() && trace.is_active() {
            let parent = trace.span;
            trace.span = self.sink.next_span();
            let label = label.as_str().to_owned();
            self.record_span(now, *trace, parent, SpanEventKind::Send, from, label);
        }
    }

    /// A message of kind `label` will reach `to` at `arrives`, `ns` after
    /// it was sent. SLO samples are keyed by *arrival* time: the window a
    /// latency counts against is the one the user experienced it in.
    #[inline]
    pub(crate) fn hop_latency(&mut self, arrives: SimTime, to: u64, label: Sym, ns: u64) {
        self.by_kind.entry(label).or_default().record(ns);
        self.slo.record(arrives.as_nanos(), to, ns);
    }

    /// Open the profiler's bracket around a handler (`None` while
    /// profiling is off): wall clock plus the process-wide allocation
    /// counters — live when a counting allocator is registered, zero
    /// otherwise.
    #[inline]
    pub(crate) fn handler_start(&self) -> HandlerStart {
        self.profile
            .is_enabled()
            .then(|| (legion_core::allocs::counts(), Instant::now()))
    }

    /// Close the bracket: attribute the handler's cost to
    /// `(endpoint, method)`. `sim_ns` is the hop latency the delivery
    /// paid.
    #[inline]
    pub(crate) fn handler_done(
        &mut self,
        started: HandlerStart,
        endpoint: u64,
        method: Sym,
        sim_ns: u64,
    ) {
        if let Some(((a0, b0), t0)) = started {
            let wall_ns = t0.elapsed().as_nanos() as u64;
            let (a1, b1) = legion_core::allocs::counts();
            self.profile
                .record(endpoint, method, sim_ns, wall_ns, a1 - a0, b1 - b0);
        }
    }

    /// Bump a named counter in the flat registry and the time windows.
    #[inline]
    pub(crate) fn count(&mut self, now: SimTime, name: Sym, n: u64) {
        self.counters.add_sym(name, n);
        self.windows.record_sym(now, name, n);
    }

    /// Forget what was measured: the flight recorder forgets its ring,
    /// the profiler zeroes its stats in place (keeping warmed-up map
    /// keys), and the SLO tracker drops collected windows.
    pub(crate) fn reset(&mut self) {
        self.counters.reset();
        self.by_kind.clear();
        self.windows.clear();
        self.flight.clear();
        self.profile.reset_values();
        self.slo.clear();
    }

    /// The named counters — part of the state a snapshot covers.
    pub(crate) fn counters(&self) -> &Counters {
        &self.counters
    }

    /// The journal, for session control and the snapshotter's marks.
    /// Events reach it through [`Watcher::ingress`] only.
    pub(crate) fn journal(&mut self) -> &mut KernelJournal {
        &mut self.journal
    }
}

/// The recorders themselves, and what only the two faces below use.
impl Watcher {
    /// Journal one event; returns its seq (0 when off). Labels are
    /// journaled as strings, never `Sym` ids — intern order is
    /// process-local and would not survive replay. The `is_on` gate keeps
    /// the disabled hot path at one enum-tag check and defers resolving
    /// the label.
    #[inline]
    fn note<'a>(
        &mut self,
        now: SimTime,
        kind: RecordKind,
        endpoint: u64,
        a: u64,
        b: u64,
        label: impl FnOnce() -> &'a str,
    ) -> u64 {
        if !self.journal.is_on() {
            return 0;
        }
        self.journal
            .note(now.as_nanos(), kind, endpoint, a, b, label())
    }

    #[inline]
    fn flight(
        &mut self,
        at: SimTime,
        kind: RecordKind,
        endpoint: u64,
        label: Sym,
        detail: u64,
        seq: u64,
    ) {
        self.flight.record(FlightEvent {
            at,
            kind,
            endpoint,
            label,
            detail,
            seq,
        });
    }

    #[inline]
    fn record_span(
        &mut self,
        at: SimTime,
        tc: TraceContext,
        parent: SpanId,
        kind: SpanEventKind,
        endpoint: u64,
        label: String,
    ) {
        self.sink.record(SpanEvent {
            trace: tc.trace,
            span: tc.span,
            parent,
            kind,
            at,
            endpoint,
            label,
        });
    }

    /// An `End` or `Note` event on `tc`'s span (no-op outside a trace or
    /// with the sink disabled).
    fn annotate(
        &mut self,
        now: SimTime,
        tc: TraceContext,
        kind: SpanEventKind,
        endpoint: u64,
        label: &str,
    ) {
        if tc.is_active() && self.sink.is_enabled() {
            self.record_span(now, tc, SpanId::NONE, kind, endpoint, label.to_owned());
        }
    }

    /// The flight-recorder dump, annotated with the journal position and
    /// nearest snapshot when a journal session is live — a post-mortem
    /// names the exact seq to replay to and the snapshot to start from.
    fn flight_dump(&self, reason: &str, n: usize) -> String {
        let mut out = self.flight.dump(reason, n);
        if self.journal.is_on() {
            let snap = match self.journal.last_snapshot() {
                Some((ordinal, seq)) => format!("last snapshot #{ordinal} at journal seq {seq}"),
                None => "no snapshot yet".to_string(),
            };
            out.push_str(&format!(
                "\njournal: next seq {}, {snap}",
                self.journal.next_seq()
            ));
        }
        out
    }
}

/// Resolve endpoint ids to names for the profiler and SLO reports.
fn name_of(kernel: &SimKernel) -> impl Fn(u64) -> String + '_ {
    |ep| match kernel.meta(EndpointId(ep)) {
        Some(meta) => meta.name.clone(),
        None => format!("ep{ep}"),
    }
}

/// The driver's face: the watchers' switches and readouts.
impl SimKernel {
    /// Named protocol counters bumped by endpoints.
    pub fn counters(&self) -> &Counters {
        &self.inner.watch.counters
    }

    /// Delivered-message latency distribution: every message kind's,
    /// merged.
    pub fn latency_histogram(&self) -> Histogram {
        let mut all = Histogram::new();
        for h in self.inner.watch.by_kind.values() {
            all.merge(h);
        }
        all
    }

    /// Start recording span events into a bounded sink.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.inner.watch.sink = TraceSink::with_capacity(capacity);
    }

    /// Is span recording on?
    pub fn tracing_enabled(&self) -> bool {
        self.inner.watch.sink.is_enabled()
    }

    /// Take every recorded span event, leaving tracing enabled.
    pub fn drain_trace(&mut self) -> Vec<SpanEvent> {
        self.inner.watch.sink.drain()
    }

    /// Open a root span from outside the kernel (drivers, tests). The
    /// returned context can be stamped onto an injected message's
    /// environment. Returns [`TraceContext::NONE`] when tracing is off.
    pub fn begin_trace(&mut self, label: &str) -> TraceContext {
        let now = self.now();
        self.inner.watch.sink.begin(now, SpanEvent::EXTERNAL, label)
    }

    /// Close a root span opened with [`SimKernel::begin_trace`].
    pub fn end_trace(&mut self, tc: TraceContext, outcome: &str) {
        let (now, kind) = (self.now(), SpanEventKind::End);
        self.inner
            .watch
            .annotate(now, tc, kind, SpanEvent::EXTERNAL, outcome);
    }

    /// Start bucketing named counters into windows of `window_ns`.
    pub fn enable_windows(&mut self, window_ns: u64) {
        self.inner.watch.windows = WindowedCounters::new(window_ns);
    }

    /// The always-on flight recorder (read the tail, render dumps).
    pub fn flight(&self) -> &FlightRecorder {
        &self.inner.watch.flight
    }

    /// Should a deadline sweep that expires continuations dump the
    /// recorder tail to stderr? On by default.
    pub fn set_flight_dump_on_sweep(&mut self, on: bool) {
        self.inner.watch.quiet_sweeps = !on;
    }

    /// Turn on per-endpoint × per-method cost attribution.
    pub fn enable_profiling(&mut self) {
        self.inner.watch.profile = KernelProfiler::enabled();
    }

    /// Snapshot the profiler with endpoint names resolved (empty when
    /// profiling is off).
    pub fn profile(&self) -> Profile {
        self.inner.watch.profile.snapshot(name_of(self))
    }

    /// Turn on windowed latency-objective tracking.
    pub fn enable_slo(&mut self, cfg: SloConfig) {
        self.inner.watch.slo = SloTracker::new(cfg);
    }

    /// Evaluate the collected SLO windows with endpoint names resolved.
    /// `None` when tracking is off.
    pub fn slo_report(&self) -> Option<SloReport> {
        self.inner.watch.slo.report(name_of(self))
    }

    /// A JSON-exportable snapshot of everything the kernel measures.
    /// The per-kind map is keyed by [`Sym`]; names are materialized only
    /// here, in name order (`Sym` order is intern order).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let watch = &self.inner.watch;
        MetricsSnapshot {
            at: self.now(),
            stats: self.stats().clone(),
            counters: watch.counters.clone(),
            latency: self.latency_histogram(),
            by_kind: watch
                .by_kind
                .iter()
                .map(|(s, h)| (s.as_str().to_owned(), h.clone()))
                .collect(),
            endpoints: self
                .all_meta()
                .map(|(id, meta)| EndpointMetrics {
                    endpoint: id.0,
                    name: meta.name.clone(),
                    sent: meta.sent,
                    received: meta.received,
                    in_latency: meta.in_latency.clone(),
                })
                .collect(),
            windows: watch.windows.clone(),
            trace_dropped: watch.sink.dropped(),
            dispatch_dead_letters: watch
                .counters
                .iter()
                .filter(|(name, _)| name.ends_with(".dead_letter"))
                .map(|(_, n)| n)
                .sum(),
            timeouts_expired: watch.counters.get_sym(symbol::NET_TIMEOUT_EXPIRED),
            requests_shed: watch.counters.get_sym(symbol::NET_REQUESTS_SHED),
            overload_replies: watch.counters.get_sym(symbol::NET_OVERLOAD_REPLIES),
        }
    }

    /// Is a journal session (recording or verifying) live?
    pub fn journal_enabled(&self) -> bool {
        self.inner.watch.journal.is_on()
    }

    /// A barrier on the journal session: wait for its journal thread to
    /// catch up, then flush the sink (recording) or require the whole
    /// reference journal to have been consumed (verifying). The session
    /// stays live. Returns the summary and, in verify mode, the first
    /// divergence.
    pub fn finish_journal(&mut self) -> Result<(JournalSummary, Option<Divergence>), JournalError> {
        self.inner.watch.journal.finish()
    }

    /// The flight-recorder dump annotated with journal position and
    /// nearest snapshot (plain dump when no journal session is live).
    pub fn flight_dump(&self, reason: &str, n: usize) -> String {
        self.inner.watch.flight_dump(reason, n)
    }
}

/// The handler's face: what an endpoint tells the watchers, and the
/// little it reads back.
impl Ctx<'_> {
    /// Bump a named protocol counter. Inside an active trace, the bump
    /// is also recorded as a `Note` span event — counters *are* the
    /// protocol-level events (cache hits, activations, …), so every
    /// instrumented site annotates the request it served for free.
    pub fn count(&mut self, name: impl Into<Sym>) {
        self.count_n(name, 1);
    }

    /// Add to a named protocol counter (traced like [`Ctx::count`]).
    /// In-tree handlers pass `legion_core::symbol` constants, so a bump
    /// costs no interner lookup; a string is interned on the way in.
    pub fn count_n(&mut self, name: impl Into<Sym>, n: u64) {
        let (now, sym) = (self.now(), name.into());
        self.inner.watch.count(now, sym, n);
        if self.trace_active() {
            self.trace_note(sym.as_str());
        }
    }

    /// Open a root span for a new workload-level request and make it the
    /// current context. Returns [`TraceContext::NONE`] when tracing is
    /// off (everything downstream degrades to a no-op).
    pub fn trace_begin(&mut self, label: &str) -> TraceContext {
        let (now, me) = (self.now(), self.self_id().0);
        let tc = self.inner.watch.sink.begin(now, me, label);
        if tc.is_active() {
            self.inner.current = tc;
        }
        tc
    }

    /// Close the current request's trace with an outcome label and leave
    /// the handler untraced.
    pub fn trace_end(&mut self, outcome: &str) {
        self.annotate(SpanEventKind::End, outcome);
        self.inner.current = TraceContext::NONE;
    }

    /// Annotate the current trace with a protocol-level event (cache hit,
    /// activation, …). No-op outside a trace.
    pub fn trace_note(&mut self, label: &str) {
        self.annotate(SpanEventKind::Kernel(RecordKind::Note), label);
    }

    fn annotate(&mut self, kind: SpanEventKind, label: &str) {
        let (now, tc, me) = (self.now(), self.inner.current, self.self_id().0);
        self.inner.watch.annotate(now, tc, kind, me, label);
    }

    /// Is this handler executing under an active trace? Gate `format!`
    /// label construction on this before calling [`Ctx::trace_note`], so
    /// untraced runs pay no allocation for notes that would be dropped.
    pub fn trace_active(&self) -> bool {
        self.inner.current.is_active()
    }

    /// Is the span sink enabled at all? Gate label construction for
    /// *root* spans ([`Ctx::trace_begin`]) on this — a root span records
    /// whenever the sink is on, even outside any current trace.
    pub fn tracing_enabled(&self) -> bool {
        self.inner.watch.sink.is_enabled()
    }

    /// Record an event into the always-on flight recorder, attributed to
    /// this endpoint, and journal it. `kind` is one an endpoint raises:
    /// `Timeout`, `HaVerdict`, `Note` or `Shed` — the kernel raises the
    /// rest itself. Allocation-free (the label is a pre-interned [`Sym`];
    /// `detail` is kind-specific and journaled as `a`).
    pub fn flight(&mut self, kind: RecordKind, label: Sym, detail: u64) {
        use RecordKind::{HaVerdict, Note, Shed, Timeout};
        assert!(
            matches!(kind, Timeout | HaVerdict | Note | Shed),
            "{kind:?} is a kernel event, not one an endpoint raises"
        );
        let (now, me) = (self.now(), self.self_id().0);
        let watch = &mut self.inner.watch;
        let seq = watch.note(now, kind, me, detail, 0, || label.as_str());
        watch.flight(now, kind, me, label, detail, seq);
    }

    /// Should a deadline sweep that expired continuations dump the
    /// recorder tail?
    pub fn flight_dump_on_sweep(&self) -> bool {
        !self.inner.watch.quiet_sweeps
    }

    /// Record an explicit SLO sample for this endpoint at the current
    /// virtual time. The kernel samples *hop* latencies automatically;
    /// endpoints that model service time (admission queues) record their
    /// end-to-end response time here so objectives judge what a caller
    /// actually experienced. No-op while SLO tracking is off.
    pub fn slo_record(&mut self, latency_ns: u64) {
        let (now, me) = (self.now().as_nanos(), self.self_id().0);
        self.inner.watch.slo.record(now, me, latency_ns);
    }

    /// How many burn-rate alarms the SLO tracker has judged since the
    /// last drain: the events its report will list, counted as the run
    /// goes (the signal an auto-scaling policy endpoint closes its
    /// control loop on). Always 0 while SLO tracking is off.
    pub fn drain_burn_events(&mut self) -> usize {
        self.inner.watch.slo.drain_burn()
    }

    /// Dump the flight-recorder tail (newest `n` events) to stderr with
    /// a reason line — post-mortem context for sweeps, invariant
    /// violations, and imminent panics.
    pub fn dump_flight(&self, reason: &str, n: usize) {
        eprintln!("{}", self.inner.watch.flight_dump(reason, n));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::message::Message;
    use crate::sim::Endpoint;
    use crate::topology::{Location, Topology};
    use legion_core::env::InvocationEnv;
    use legion_core::loid::Loid;
    use legion_journal::record::KINDS;
    use legion_journal::MemSink;

    /// `Arm` arms a timer; `Annotate` records one flight event of every
    /// kind endpoints annotate with, and `Misannotate` one of a kind only
    /// the kernel raises; anything else is just delivered.
    struct Probe;

    impl Endpoint for Probe {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            match msg.method() {
                Some("Arm") => ctx.set_timer(10, 7),
                Some("Annotate") => {
                    use RecordKind::{HaVerdict, Note, Shed, Timeout};
                    for kind in [Timeout, HaVerdict, Note, Shed] {
                        ctx.flight(kind, symbol::PING, 1);
                    }
                }
                Some("Misannotate") => ctx.flight(RecordKind::Deliver, symbol::PING, 1),
                _ => {}
            }
        }
    }

    /// Inject one traced call of `method` to `to`.
    fn inject(k: &mut SimKernel, tc: TraceContext, to: EndpointId, method: &str) -> bool {
        let id = k.fresh_call_id();
        let env = InvocationEnv::anonymous().with_trace(tc);
        let msg = Message::call(id, Loid::instance(16, 1), method, vec![], env);
        k.inject(Location::new(0, 1), to.element(), msg)
    }

    /// [`inject`], then run the kernel out.
    fn call(k: &mut SimKernel, tc: TraceContext, to: EndpointId, method: &str) -> bool {
        let accepted = inject(k, tc, to, method);
        k.run_until_quiescent(100);
        accepted
    }

    /// Every event kind, driven once through a kernel with the journal,
    /// the span sink and the flight recorder on: what each record reaches
    /// is exactly its row of the event-kind table — a flight event
    /// carrying the record's seq and the detail field the row names, and
    /// a span if the row's span column lets this traced event through.
    #[test]
    fn every_event_kind_fans_out_as_the_table_says() {
        let sink = MemSink::new();
        let mut k = SimKernel::new(Topology::zero(), FaultPlan::seeded(3), 7);
        k.enable_journal_record(Box::new(sink.clone()), 8);
        k.enable_tracing(1024);
        // Everything runs inside one trace, so the kinds that show only
        // inside a trace (deliveries, timer fires) show.
        let tc = k.begin_trace("seam");

        // Attach, Start, then Inject + Deliver, TimerFire, and the four
        // annotation kinds.
        let probe = k.add_endpoint(Box::new(Probe), Location::new(0, 0), "probe");
        assert!(call(&mut k, tc, probe, "Ping"));
        assert!(call(&mut k, tc, probe, "Arm"));
        assert!(call(&mut k, tc, probe, "Annotate"));
        // Drop; Duplicate, then Dedup when the copy arrives; Delay.
        k.faults_mut().set_drop_probability(1.0);
        assert!(call(&mut k, tc, probe, "Ping"));
        k.faults_mut().set_drop_probability(0.0);
        k.faults_mut().set_duplicate_probability(1.0);
        assert!(call(&mut k, tc, probe, "Ping"));
        k.faults_mut().set_duplicate_probability(0.0);
        k.faults_mut().set_reorder(1.0, 5_000);
        assert!(call(&mut k, tc, probe, "Ping"));
        k.faults_mut().set_reorder(0.0, 0);
        // DeadLetter (queued, then the endpoint goes), Detach, Refuse.
        assert!(inject(&mut k, tc, probe, "Ping"));
        k.remove_endpoint(probe);
        k.run_until_quiescent(100);
        assert!(!call(&mut k, tc, probe, "Ping"));
        k.finish_journal().unwrap();

        let (_, records) = legion_journal::read_all(&sink.contents()).unwrap();
        let all: Vec<RecordKind> = KINDS.iter().map(|row| row.kind).collect();
        let seen: Vec<RecordKind> = all
            .iter()
            .copied()
            .filter(|kind| records.iter().any(|r| r.kind == *kind))
            .collect();
        assert_eq!(seen, all, "a kind never ran");

        let expected_flights: Vec<(RecordKind, u64, u64)> = records
            .iter()
            .filter_map(|r| {
                let detail = match r.kind.row().flight? {
                    FlightDetail::A => r.a,
                    FlightDetail::B => r.b,
                };
                Some((r.kind, r.seq, detail))
            })
            .collect();
        let flights: Vec<(RecordKind, u64, u64)> = k
            .flight()
            .iter()
            .map(|e| (e.kind, e.seq, e.detail))
            .collect();
        assert_eq!(flights, expected_flights);

        // `Begin`/`Send` are trace bookkeeping, not kernel event kinds.
        let expected_spans: Vec<SpanEventKind> = records
            .iter()
            .filter(|r| r.kind.row().spans != Spans::Never)
            .map(|r| SpanEventKind::Kernel(r.kind))
            .collect();
        let spans: Vec<SpanEventKind> = k
            .drain_trace()
            .iter()
            .map(|e| e.kind)
            .filter(|kind| !matches!(kind, SpanEventKind::Begin | SpanEventKind::Send))
            .collect();
        assert_eq!(spans, expected_spans);
    }

    /// An endpoint cannot raise a kernel event kind through `Ctx::flight`:
    /// a `Deliver` there would journal a delivery that never happened.
    #[test]
    #[should_panic(expected = "Deliver is a kernel event")]
    fn ctx_flight_refuses_a_kernel_kind() {
        let mut k = SimKernel::new(Topology::zero(), FaultPlan::seeded(3), 7);
        let probe = k.add_endpoint(Box::new(Probe), Location::new(0, 0), "probe");
        call(&mut k, TraceContext::NONE, probe, "Misannotate");
    }
}
