//! `chaos_journaled` — closed loop: 16 clients resolve-then-`Ping` over
//! an HA-enabled 2 × 4-host system under a fault plan (2 % drop, 5 %
//! duplicate, 10 % reorder, dedup on), one host per jurisdiction crashed
//! at 25 % and 50 % of the region, every kernel ingress journaled to
//! memory with a state snapshot every 1024 events, and the profiler, SLO
//! tracker and flight recorder on.
//!
//! Why: fault judge, dedup window, journal append and snapshot,
//! `legion-obs` writes and `legion-ha` detection and recovery —
//! everything `bind_zipf_1m` bypasses — dominate. This is the fence for
//! the kernel's observer seam.

use crate::gen::SplitMix64;
use crate::measure::Measured;
use crate::rig::{phase, shared_log, warm, Counts, JournalOut, Rig, SetupTimes, SharedLog, Tap};
use crate::span::Spans;
use crate::workloads::{churn, copy_counters, lookup_probe, Scale, NAMING_COUNTERS};
use legion_core::loid::Loid;
use legion_core::symbol;
use legion_journal::{MemSink, ReplayStart};
use legion_net::sim::SimKernel;
use legion_net::{FaultPlan, Location};
use legion_obs::slo::SloConfig;
use legion_runtime::magistrate::MagistrateEndpoint;
use legion_sim::system::HaConfig;
use legion_sim::{LegionSystem, LookupClient, SystemConfig, WorkloadConfig};
use std::time::Instant;

pub const CLIENTS: usize = 16;
/// Completed resolve-then-Ping operations at full size.
pub const OPS: u64 = 16 * 6_000;
const WARM_OPS: u64 = 16 * 2_000;
const SNAP_EVERY: u64 = 1024;
const CALL_DEADLINE_NS: u64 = 500_000_000;
/// Hosts crashed, by index into `LegionSystem::hosts` (one per
/// jurisdiction, so every recovery has a surviving host to land on),
/// and the share of the region's operations after which each dies.
const CRASHES: [(usize, f64); 2] = [(0, 0.25), (4, 0.50)];

/// How a rig uses the kernel journal.
enum Journal {
    Record,
    /// Verified re-execution against a recording of the same seed.
    Verify(Vec<u8>),
}

pub struct Chaos {
    sys: LegionSystem,
    sink: Option<MemSink>,
    /// `(host index, completed ops that trigger the crash)`, pending.
    crashes: Vec<(usize, u64)>,
    planned: u64,
    log: SharedLog,
}

pub fn setup(seed: u64, scale: &Scale, spans: &mut Spans) -> (Box<dyn Rig>, SetupTimes) {
    setup_with(seed, scale, spans, Journal::Record)
}

pub fn replay(seed: u64, scale: &Scale, recording: Vec<u8>) -> Box<dyn Rig> {
    setup_with(
        seed,
        scale,
        &mut Spans::disabled(),
        Journal::Verify(recording),
    )
    .0
}

fn setup_with(
    seed: u64,
    scale: &Scale,
    spans: &mut Spans,
    journal: Journal,
) -> (Box<dyn Rig>, SetupTimes) {
    let mut times = SetupTimes::default();
    let root = spans.open("setup", None);
    let log = shared_log(scale.ops(WARM_OPS + OPS) as usize);

    let mut sys = phase(spans, "setup.build", root, &mut times.build_s, || {
        let mut sys = LegionSystem::build(SystemConfig {
            jurisdictions: 2,
            hosts_per_jurisdiction: 4,
            host_capacity: 4096,
            classes: 2,
            objects_per_class: 32,
            // With ambient drops on the heartbeat path, Dead must need a
            // run of losses that cannot happen by accident (E16's knobs);
            // the horizon is "never" — the benchmark stops on the clock.
            ha: Some(HaConfig {
                heartbeat_interval_ns: 2_000_000,
                sweep_interval_ns: 2_000_000,
                horizon_ns: u64::MAX / 2,
                suspect_after: 4,
                dead_after: 8,
            }),
            call_deadline_ns: Some(CALL_DEADLINE_NS),
            seed,
            ..SystemConfig::default()
        });
        sys.kernel.set_flight_dump_on_sweep(false);
        sys
    });

    let per_client = (scale.ops(WARM_OPS + OPS) / CLIENTS as u64) as usize;
    let plans: Vec<Vec<Loid>> = phase(spans, "setup.plan_gen", root, &mut times.plan_gen_s, || {
        let base = SplitMix64::new(seed);
        (0..CLIENTS)
            .map(|c| {
                churn::plan(
                    &sys.objects,
                    c as u32 % 2,
                    per_client,
                    &mut base.fork(c as u64 + 1),
                )
            })
            .collect()
    });

    phase(spans, "setup.attach", root, &mut times.attach_s, || {
        // A generous whole-operation retry budget: clients must ride out
        // both crash-detection windows and any run of dropped messages,
        // because the workload may not contain failing operations.
        let wl = WorkloadConfig {
            invoke_after_resolve: true,
            inter_arrival_ns: 2_000_000,
            op_retry_attempts: 16,
            ..WorkloadConfig::default()
        };
        for (c, plan) in plans.into_iter().enumerate() {
            let agent = sys.leaf_agent_for(c).element();
            let client = LookupClient::new(Loid::instance(9000, c as u64 + 1), agent, plan, &wl);
            sys.kernel.add_endpoint(
                Box::new(Tap::new(client, lookup_probe, log.clone())),
                Location::new(c as u32 % 2, 500 + c as u32),
                format!("client{c}"),
            );
        }
    });

    let (sink, warmed) = phase(spans, "setup.warm", root, &mut times.warm_s, || {
        // Fault-free, unobserved warm wave; then the journal session, the
        // observers and the fault plan all start at the same instant, so
        // a recording and its replay agree on every snapshot boundary.
        let warmed = warm(&mut sys.kernel, &log, scale.ops(WARM_OPS));
        let sink = match journal {
            Journal::Record => {
                let sink = MemSink::new();
                sys.kernel
                    .enable_journal_record(Box::new(sink.clone()), SNAP_EVERY);
                Some(sink)
            }
            Journal::Verify(data) => {
                sys.kernel
                    .enable_journal_verify(data, ReplayStart::Origin)
                    .expect("a journal this process just recorded parses");
                None
            }
        };
        sys.kernel.enable_profiling();
        sys.kernel.enable_slo(SloConfig::default());
        let mut faults = FaultPlan::seeded(seed);
        faults.set_drop_probability(0.02);
        faults.set_duplicate_probability(0.05);
        faults.set_reorder(0.10, 1_000_000);
        *sys.kernel.faults_mut() = faults;
        (sink, warmed)
    });
    spans.close(root);
    let planned = (per_client * CLIENTS) as u64 - warmed;
    let crashes = CRASHES
        .iter()
        .map(|&(host, share)| (host, (planned as f64 * share) as u64))
        .collect();
    (
        Box::new(Chaos {
            sys,
            sink,
            crashes,
            planned,
            log,
        }),
        times,
    )
}

impl Rig for Chaos {
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

    fn between_slices(&mut self, completed: u64) {
        while let Some(&(host, at)) = self.crashes.first() {
            if completed < at {
                break;
            }
            self.sys.crash_host(host);
            self.crashes.remove(0);
        }
    }

    fn collect(&mut self, out: &mut Counts) {
        let k = &self.sys.kernel;
        copy_counters(k, NAMING_COUNTERS, out);
        copy_counters(k, &["magistrate.activations"], out);
        let c = k.counters();
        out.insert(
            "net.dedup.rejected",
            c.get_sym(symbol::NET_DEDUP_DROPPED) as f64,
        );
        out.insert("net.lost", k.stats().lost as f64);
        let (mut recovered, mut lost, mut hosts_lost) = (0, 0, 0);
        let (mut detect_sum, mut detect_n) = (0u64, 0u64);
        for (_, mep) in &self.sys.magistrates {
            if let Some(t) = k
                .endpoint::<MagistrateEndpoint>(*mep)
                .and_then(|m| m.ha_tracker())
            {
                recovered += t.recovered;
                lost += t.lost;
                hosts_lost += t.hosts_lost;
                detect_sum += t.detect.sum();
                detect_n += t.detect.count();
            }
        }
        out.insert("ha.recoveries", recovered as f64);
        out.insert("ha.objects_lost", lost as f64);
        out.insert("ha.hosts_lost", hosts_lost as f64);
        out.insert(
            "ha.detect_vms",
            detect_sum as f64 / detect_n.max(1) as f64 / 1e6,
        );
        out.insert("chaos.crashes_pending", self.crashes.len() as f64);
    }

    fn check(&self, m: &Measured, errs: &mut Vec<String>) {
        let c = &m.counts;
        if m.failed != 0 {
            errs.push(format!("{} operations failed for good", m.failed));
        }
        if c["chaos.crashes_pending"] != 0.0 {
            errs.push("not every scheduled crash was injected".into());
        }
        if c["net.dedup.rejected"] <= 0.0 {
            errs.push("the dedup window rejected nothing under 5 % duplication".into());
        }
        if c["ha.recoveries"] < 2.0 {
            errs.push(format!(
                "only {} objects were recovered after two crashes",
                c["ha.recoveries"]
            ));
        }
        if c["ha.objects_lost"] != 0.0 {
            errs.push(format!(
                "{} objects were lost for good",
                c["ha.objects_lost"]
            ));
        }
    }

    fn finish_journal(&mut self, errs: &mut Vec<String>) -> Option<JournalOut> {
        let t0 = Instant::now();
        let finished = self.sys.kernel.finish_journal();
        let finish_ns = t0.elapsed().as_nanos() as u64;
        match finished {
            Ok((summary, divergence)) => {
                if let Some(d) = divergence {
                    errs.push(format!("journal replay diverged:\n{d}"));
                }
                Some(JournalOut {
                    data: self.sink.as_ref().map_or_else(Vec::new, |s| s.contents()),
                    records: summary.records,
                    snapshots: summary.snapshots,
                    bytes: summary.bytes,
                    verified: summary.verified,
                    finish_ns,
                })
            }
            Err(e) => {
                errs.push(format!("journal session failed: {e}"));
                None
            }
        }
    }
}
