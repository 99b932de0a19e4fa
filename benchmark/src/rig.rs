//! What every workload hands the measured loop: a kernel to step, an
//! operation log fed from outside the program, and hooks for the few
//! things that differ between workloads.

use crate::span::{SpanId, Spans};
use legion_net::sim::{Ctx, Endpoint, SimKernel};
use legion_net::Message;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// Events per `run_until_quiescent` call in every driven phase. Each
/// slice is timed (`measure.slice` spans, `net.kernel.slice_*`), and
/// progress is polled only at slice boundaries, so a fixed slice size is
/// what makes the end of the measured region repeat exactly.
pub const SLICE_EVENTS: u64 = 20_000;

/// Completed and failed client operations, observed from outside the
/// client endpoints (see [`Tap`]). Shared by all clients of one rig.
#[derive(Default)]
pub struct OpLog {
    /// Virtual first-issue → success latency of each completed op, ns.
    pub lat_ns: Vec<u64>,
    /// Ops that ended in failure (retries exhausted, abandoned after
    /// shedding, agent unreachable).
    pub failed: u64,
}

pub type SharedLog = Rc<RefCell<OpLog>>;

pub fn shared_log(capacity: usize) -> SharedLog {
    Rc::new(RefCell::new(OpLog {
        lat_ns: Vec::with_capacity(capacity),
        failed: 0,
    }))
}

/// Cumulative `(completed ops, summed latency ns, failed ops)` of a
/// client endpoint, read from its public report.
pub type Probe<E> = fn(&E) -> (u64, u64, u64);

/// Wraps one of the program's client endpoints and logs every operation
/// it completes with its *exact* virtual latency: after each handler
/// call the wrapped endpoint's public report is probed, and a completed
/// count that moved by one attributes the moved latency sum to that op.
/// The program's own latency histograms are log₂-bucketed (quantiles
/// are powers of two); reading the running sum from outside recovers
/// exact per-op values without touching the program.
pub struct Tap<E> {
    pub inner: E,
    probe: Probe<E>,
    seen: (u64, u64, u64),
    log: SharedLog,
}

impl<E> Tap<E> {
    pub fn new(inner: E, probe: Probe<E>, log: SharedLog) -> Self {
        Tap {
            inner,
            probe,
            seen: (0, 0, 0),
            log,
        }
    }

    fn observe(&mut self) {
        let now = (self.probe)(&self.inner);
        if now == self.seen {
            return;
        }
        let mut log = self.log.borrow_mut();
        let done = now.0 - self.seen.0;
        if done > 0 {
            // More than one completion per handler call only happens for
            // zero-latency ops (cache hits chained without a wait), whose
            // share of the moved sum is zero; the remainder belongs to
            // the one op that waited.
            for _ in 1..done {
                log.lat_ns.push(0);
            }
            log.lat_ns.push(now.1 - self.seen.1);
        }
        log.failed += now.2 - self.seen.2;
        self.seen = now;
    }
}

impl<E: Endpoint> Endpoint for Tap<E> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.inner.on_start(ctx);
        self.observe();
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        self.inner.on_message(ctx, msg);
        self.observe();
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        self.inner.on_timer(ctx, tag);
        self.observe();
    }
}

/// Named per-layer counts a rig reads from public counters at the end
/// of the measured region.
pub type Counts = BTreeMap<&'static str, f64>;

/// A built, warmed system ready for its measured region.
pub trait Rig {
    fn kernel(&mut self) -> &mut SimKernel;
    fn kernel_ref(&self) -> &SimKernel;
    fn log(&self) -> &SharedLog;
    /// Operations the clients had offered by now (open loop: first
    /// issues; closed loop: completed + failed + in flight is not
    /// observable, so completed + failed).
    fn offered(&self) -> u64 {
        let log = self.log().borrow();
        log.lat_ns.len() as u64 + log.failed
    }
    /// Operations left in the clients' plans when the measured region
    /// opened: the region's fixed size.
    fn planned(&self) -> u64;
    /// Called between slices with the ops completed so far in the
    /// measured region (crash injection keys off it).
    fn between_slices(&mut self, _completed: u64) {}
    /// Per-layer counts, read at the end of the region.
    fn collect(&mut self, out: &mut Counts);
    /// Workload-specific correctness checks on the region.
    fn check(&self, m: &crate::measure::Measured, errs: &mut Vec<String>);
    /// Close the journal session, if the workload has one, returning the
    /// recorded bytes.
    fn finish_journal(&mut self, _errs: &mut Vec<String>) -> Option<JournalOut> {
        None
    }
}

/// What a finished journal session reports.
pub struct JournalOut {
    pub data: Vec<u8>,
    pub records: u64,
    pub snapshots: u64,
    pub bytes: u64,
    /// Records byte-verified against the reference (verify mode).
    pub verified: u64,
    pub finish_ns: u64,
}

/// Wall seconds of the four set-up phases.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub build_s: f64,
    pub plan_gen_s: f64,
    pub attach_s: f64,
    pub warm_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.build_s + self.plan_gen_s + self.attach_s + self.warm_s
    }
}

/// Time one set-up phase and record it as a child span of `parent`.
pub fn phase<T>(
    spans: &mut Spans,
    name: &'static str,
    parent: SpanId,
    slot: &mut f64,
    f: impl FnOnce() -> T,
) -> T {
    let id = spans.open(name, Some(parent));
    let t0 = Instant::now();
    let out = f();
    *slot += t0.elapsed().as_secs_f64();
    spans.close(id);
    out
}

/// The warm wave: drive `kernel` in slices until `ops` operations have
/// completed (or the queue drains), then zero the kernel's metrics and
/// the operation log, so the measured region starts from clean counters
/// on warm caches. Returns the operations the warm wave used up.
pub fn warm(kernel: &mut SimKernel, log: &SharedLog, ops: u64) -> u64 {
    while (log.borrow().lat_ns.len() as u64) < ops {
        if kernel.run_until_quiescent(SLICE_EVENTS) < SLICE_EVENTS {
            break;
        }
    }
    kernel.reset_metrics();
    let mut log = log.borrow_mut();
    let used = log.lat_ns.len() as u64 + log.failed;
    log.lat_ns.clear();
    log.failed = 0;
    used
}
