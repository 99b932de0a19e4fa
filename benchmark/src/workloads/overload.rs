//! `overload_open_bursts` — open loop: one client offers bursts at 2× the
//! saturation rate of an admission-gated class (the E18 model: 200 µs
//! service, 16 slots, 5 000 calls/s) and retries every shed call on the
//! server's retry-after hint until it is admitted.
//!
//! The offered rate is a square wave — [`BURST_NS`] at 10 000/s, then
//! [`LULL_NS`] at 1 250/s — drawn by Lewis–Shedler thinning. Its mean is
//! 0.95× saturation: a burst fills the queue in ≈ 3 ms and leaves a pool
//! of shed calls that the lull only just drains, so the server is busy
//! nearly all the time and goodput sits at the offered rate only while
//! the class serves at its modelled 5 000/s. A class that served 5 %
//! slower would fall behind for good. Sustained load above saturation,
//! as in E18's sweep, abandons the excess by construction; a benchmark
//! workload may not contain failing operations, so the mean stays just
//! below saturation and the retry budget is one nothing exhausts.
//!
//! Arrivals are scheduled in virtual time, so generator lateness is zero
//! by construction; latency runs from each operation's due time (its
//! first issue) to its final success, retries included.
//!
//! Why: the event queue is timer-dominated (service-completion timers,
//! retry timers, arrival timers) rather than message-dominated, and
//! `net::admission` is on every call's path — the same wheel and pool as
//! `bind_zipf_1m`, used differently.

use crate::gen::{thinned_arrivals, SplitMix64};
use crate::measure::Measured;
use crate::rig::{phase, shared_log, warm, Counts, Rig, SetupTimes, SharedLog, Tap};
use crate::span::Spans;
use crate::workloads::Scale;
use legion_core::loid::Loid;
use legion_core::symbol;
use legion_net::admission::AdmissionConfig;
use legion_net::sim::{EndpointId, SimKernel};
use legion_net::{LatencySpec, Location, Topology};
use legion_runtime::class_endpoint::ClassEndpoint;
use legion_sim::workload::OpenLoopClient;
use legion_sim::{LegionSystem, SystemConfig};

pub const ADMISSION: AdmissionConfig = AdmissionConfig {
    service_ns: 200_000,
    queue_depth: 16,
};
const BURST_RATE: f64 = 10_000.0;
const LULL_RATE: f64 = 1_250.0;
pub const BURST_NS: u64 = 8_000_000;
pub const LULL_NS: u64 = 12_000_000;
/// Mean offered rate, calls per virtual second.
pub const MEAN_RATE: f64 =
    (BURST_RATE * BURST_NS as f64 + LULL_RATE * LULL_NS as f64) / (BURST_NS + LULL_NS) as f64;
/// Retries per call: more than any call can use, so none is abandoned.
/// (Every pooled call comes back on the same hint and one wins the free
/// slot, so a call may be shed many times before its turn.)
const MAX_RETRIES: u32 = 1_000_000;
/// Completed calls at full size.
pub const OPS: u64 = 600_000;
const WARM_OPS: u64 = 20_000;

pub fn rate_at(t_ns: u64) -> f64 {
    if t_ns % (BURST_NS + LULL_NS) < BURST_NS {
        BURST_RATE
    } else {
        LULL_RATE
    }
}

type Client = Tap<OpenLoopClient>;

fn probe(c: &OpenLoopClient) -> (u64, u64, u64) {
    let p = &c.report.phases[0];
    (p.ok, p.latency.sum(), p.failed + p.gave_up)
}

pub struct Overload {
    sys: LegionSystem,
    client: EndpointId,
    class: EndpointId,
    /// `(offered, shed replies, retried)` when the measured region opened.
    base: (u64, u64, u64),
    planned: u64,
    log: SharedLog,
}

impl Overload {
    fn ledger(&self) -> (u64, u64, u64) {
        let c = self
            .sys
            .kernel
            .endpoint::<Client>(self.client)
            .expect("open-loop client is never removed");
        let p = &c.inner.report.phases[0];
        (p.offered, p.shed_replies, p.retried)
    }
}

pub fn setup(seed: u64, scale: &Scale, spans: &mut Spans) -> (Box<dyn Rig>, SetupTimes) {
    let mut times = SetupTimes::default();
    let root = spans.open("setup", None);
    let log = shared_log(scale.ops(WARM_OPS + OPS) as usize + 4_096);

    let mut sys = phase(spans, "setup.build", root, &mut times.build_s, || {
        // µs-scale hops, so latency is queueing and retry waits, not WAN
        // crossings; jittered, so simulated latencies are continuous.
        let hop = |base_ns, jitter_ns| LatencySpec { base_ns, jitter_ns };
        LegionSystem::build(SystemConfig {
            jurisdictions: 2,
            hosts_per_jurisdiction: 2,
            classes: 1,
            objects_per_class: 4,
            class_admission: Some(ADMISSION),
            topology: Topology {
                same_host: hop(1_000, 0),
                same_jurisdiction: hop(20_000, 10_000),
                cross_jurisdiction: hop(100_000, 50_000),
            },
            seed,
            ..SystemConfig::default()
        })
    });

    let arrivals: Vec<u64> = phase(spans, "setup.plan_gen", root, &mut times.plan_gen_s, || {
        let calls = scale.ops(WARM_OPS + OPS);
        let horizon_ns = (calls as f64 / MEAN_RATE * 1e9) as u64;
        thinned_arrivals(&mut SplitMix64::new(seed), horizon_ns, BURST_RATE, rate_at)
    });

    let calls = arrivals.len() as u64;
    let (class_loid, class) = sys.classes[0];
    let client = phase(spans, "setup.attach", root, &mut times.attach_s, || {
        let client = OpenLoopClient::new(
            Loid::instance(9500, 1),
            class.element(),
            class_loid,
            symbol::GET_INSTANCE_INTERFACE,
            arrivals,
            Vec::new(),
            MAX_RETRIES,
        );
        sys.kernel.add_endpoint(
            Box::new(Tap::new(client, probe, log.clone())),
            Location::new(0, 700),
            "open-loop0",
        )
    });

    let warmed = phase(spans, "setup.warm", root, &mut times.warm_s, || {
        warm(&mut sys.kernel, &log, scale.ops(WARM_OPS))
    });
    spans.close(root);
    let mut rig = Overload {
        sys,
        client,
        class,
        base: (0, 0, 0),
        planned: calls - warmed,
        log,
    };
    rig.base = rig.ledger();
    (Box::new(rig), times)
}

impl Rig for Overload {
    fn kernel(&mut self) -> &mut SimKernel {
        &mut self.sys.kernel
    }
    fn kernel_ref(&self) -> &SimKernel {
        &self.sys.kernel
    }
    fn log(&self) -> &SharedLog {
        &self.log
    }
    fn planned(&self) -> u64 {
        self.planned
    }
    fn offered(&self) -> u64 {
        self.ledger().0 - self.base.0
    }

    fn collect(&mut self, out: &mut Counts) {
        let (offered, shed, retried) = self.ledger();
        let attempts = (offered - self.base.0) + (retried - self.base.2);
        out.insert("admission.attempts", attempts as f64);
        out.insert("admission.shed_replies", (shed - self.base.1) as f64);
        let peak = self
            .sys
            .kernel
            .endpoint::<ClassEndpoint>(self.class)
            .and_then(|c| c.admission().map(|a| a.peak_backlog()))
            .unwrap_or(0);
        out.insert("admission.peak_backlog", peak as f64);
    }

    fn check(&self, m: &Measured, errs: &mut Vec<String>) {
        if m.failed != 0 {
            errs.push(format!("{} calls failed or were abandoned", m.failed));
        }
        let peak = m.counts["admission.peak_backlog"];
        if peak > ADMISSION.queue_depth as f64 {
            errs.push(format!(
                "admission backlog peaked at {peak}, above the queue depth"
            ));
        }
        // Every offered call is either done or still inside the system
        // (queued, in service, or waiting out a retry hint): a bounded
        // number, or calls are being lost.
        // (Calls offered during the warm wave may complete inside the
        // region, so the difference can be slightly negative.)
        let in_flight = m.offered as i64 - (m.ops + m.failed) as i64;
        if in_flight.abs() > 1_000 {
            errs.push(format!(
                "{in_flight} calls unaccounted for at the end of the region"
            ));
        }
        let goodput = m.ops as f64 / (m.vtime_ns as f64 / 1e9);
        if (goodput - MEAN_RATE).abs() / MEAN_RATE > 0.02 {
            errs.push(format!(
                "goodput {goodput:.0}/vs is not within 2 % of the offered {MEAN_RATE:.0}/vs"
            ));
        }
    }
}
