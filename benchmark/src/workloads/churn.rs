//! `lifecycle_churn` — closed loop: 32 clients resolve-then-`Ping`
//! objects of a full Legion system (4 jurisdictions × 4 hosts, 8 classes
//! × 64 objects, 5-agent tree) while a churn driver migrates one object
//! every 2 virtual ms, eagerly invalidating its bindings.
//!
//! Why: Magistrate `Move` → deactivate (OPR encode, storage write) →
//! activate elsewhere (OPR decode/verify, MayI gate) puts
//! `legion-runtime`, `legion-persist` and `legion-security` on the
//! blocking path, and uses the naming caches for *writes* (invalidate,
//! stale refresh, re-insert) where `bind_zipf_1m` uses them for reads —
//! a cache change that buys hits at the cost of invalidation shows as a
//! loss here.

use crate::gen::{SplitMix64, Zipf};
use crate::measure::Measured;
use crate::rig::{phase, shared_log, warm, Counts, Rig, SetupTimes, SharedLog, Tap};
use crate::span::Spans;
use crate::workloads::{copy_counters, lookup_probe, Scale, NAMING_COUNTERS};
use legion_core::loid::Loid;
use legion_naming::tree::TreeShape;
use legion_net::sim::{EndpointId, SimKernel};
use legion_net::Location;
use legion_sim::experiments::e08_stale_bindings::ChurnDriver;
use legion_sim::{LegionSystem, LookupClient, SystemConfig, WorkloadConfig};

pub const CLIENTS: usize = 32;
/// Completed resolve-then-Ping operations at full size.
pub const OPS: u64 = 32 * 3_000;
const WARM_OPS: u64 = 32 * 250;
const CHURN_INTERVAL_NS: u64 = 2_000_000;
/// Probability a target lives in the client's own jurisdiction (§5.2:
/// "most accesses will be local").
const LOCALITY: f64 = 0.8;
const ZIPF_S: f64 = 0.9;

/// Draw `n` targets for a client in `jurisdiction`: local with
/// probability [`LOCALITY`], Zipf-popular within either set.
pub fn plan(
    objects: &[(Loid, u32)],
    jurisdiction: u32,
    n: usize,
    rng: &mut SplitMix64,
) -> Vec<Loid> {
    let (local, remote): (Vec<_>, Vec<_>) = objects.iter().partition(|(_, j)| *j == jurisdiction);
    let pick = |set: &[(Loid, u32)], zipf: &Zipf, rng: &mut SplitMix64| set[zipf.sample(rng)].0;
    let z_local = Zipf::new(local.len().max(1), ZIPF_S);
    let z_remote = Zipf::new(remote.len().max(1), ZIPF_S);
    (0..n)
        .map(|_| {
            if !local.is_empty() && (remote.is_empty() || rng.next_f64() < LOCALITY) {
                pick(&local, &z_local, rng)
            } else {
                pick(&remote, &z_remote, rng)
            }
        })
        .collect()
}

pub struct Churn {
    sys: LegionSystem,
    churner: EndpointId,
    moves_at_start: u64,
    planned: u64,
    log: SharedLog,
}

fn moves_ok(kernel: &SimKernel, churner: EndpointId) -> u64 {
    kernel
        .endpoint::<ChurnDriver>(churner)
        .map_or(0, |c| c.moves_ok)
}

pub fn setup(seed: u64, scale: &Scale, spans: &mut Spans) -> (Box<dyn Rig>, SetupTimes) {
    let mut times = SetupTimes::default();
    let root = spans.open("setup", None);
    let log = shared_log(scale.ops(WARM_OPS + OPS) as usize);

    let mut sys = phase(spans, "setup.build", root, &mut times.build_s, || {
        LegionSystem::build(SystemConfig {
            jurisdictions: 4,
            hosts_per_jurisdiction: 4,
            host_capacity: 4096,
            agent_tree: TreeShape::new(4, 5),
            classes: 8,
            objects_per_class: 64,
            seed,
            ..SystemConfig::default()
        })
    });

    let per_client = (scale.ops(WARM_OPS + OPS) / CLIENTS as u64) as usize;
    let plans: Vec<Vec<Loid>> = phase(spans, "setup.plan_gen", root, &mut times.plan_gen_s, || {
        let base = SplitMix64::new(seed);
        (0..CLIENTS)
            .map(|c| {
                plan(
                    &sys.objects,
                    c as u32 % 4,
                    per_client,
                    &mut base.fork(c as u64 + 1),
                )
            })
            .collect()
    });

    let churner = phase(spans, "setup.attach", root, &mut times.attach_s, || {
        // A generous whole-operation retry budget: an object that moves
        // again and again while one operation chases it must not turn
        // into a failed operation.
        let wl = WorkloadConfig {
            invoke_after_resolve: true,
            inter_arrival_ns: 1_000_000,
            op_retry_attempts: 8,
            ..WorkloadConfig::default()
        };
        for (c, plan) in plans.into_iter().enumerate() {
            let agent = sys.leaf_agent_for(c).element();
            let client = LookupClient::new(Loid::instance(9000, c as u64 + 1), agent, plan, &wl);
            sys.kernel.add_endpoint(
                Box::new(Tap::new(client, lookup_probe, log.clone())),
                Location::new(c as u32 % 4, 500 + c as u32),
                format!("client{c}"),
            );
        }
        let mags = sys
            .magistrates
            .iter()
            .map(|(l, e)| (*l, e.element()))
            .collect();
        let agents = sys.agents.iter().map(|a| a.element()).collect();
        let churner = ChurnDriver::new(
            mags,
            sys.objects.clone(),
            CHURN_INTERVAL_NS,
            u64::MAX,
            agents,
            true,
        );
        sys.kernel
            .add_endpoint(Box::new(churner), Location::new(0, 800), "churn-driver")
    });

    let warmed = phase(spans, "setup.warm", root, &mut times.warm_s, || {
        warm(&mut sys.kernel, &log, scale.ops(WARM_OPS))
    });
    spans.close(root);
    let moves_at_start = moves_ok(&sys.kernel, churner);
    (
        Box::new(Churn {
            sys,
            churner,
            moves_at_start,
            planned: (per_client * CLIENTS) as u64 - warmed,
            log,
        }),
        times,
    )
}

impl Rig for Churn {
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

    fn collect(&mut self, out: &mut Counts) {
        copy_counters(&self.sys.kernel, NAMING_COUNTERS, out);
        copy_counters(&self.sys.kernel, &["magistrate.activations"], out);
        let moves = moves_ok(&self.sys.kernel, self.churner) - self.moves_at_start;
        out.insert("runtime.moves_ok", moves as f64);
    }

    fn check(&self, m: &Measured, errs: &mut Vec<String>) {
        if m.failed != 0 {
            errs.push(format!("{} operations failed under churn", m.failed));
        }
        if m.counts.get("runtime.moves_ok").copied().unwrap_or(0.0) <= 0.0 {
            errs.push("no object migrated: the churn driver did nothing".into());
        }
        let stale = m
            .counts
            .get("client.stale_detected")
            .copied()
            .unwrap_or(0.0);
        if stale / (m.ops.max(1) as f64) < 0.05 {
            errs.push(format!(
                "stale refreshes per op {:.4} < 0.05: churn is not reaching the clients",
                stale / m.ops.max(1) as f64
            ));
        }
    }
}
