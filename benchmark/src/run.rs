//! One benchmark run: an end-to-end run (`--trace 0`) or a traced run
//! (`--trace 1`), and the result line both end with.

use crate::measure::{self, Measured};
use crate::metrics::{Def, END_TO_END, PER_LAYER};
use crate::probes;
use crate::rig::Rig;
use crate::span::Spans;
use crate::stats::{median, quantile_sorted, tail_quantile};
use crate::workloads::{Scale, Workload};
use crate::yardstick::{self, Yardstick};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Times the whole system is set up in an end-to-end run; `setup_s` is
/// the median. The measured region runs on the first one.
const SETUP_REPS: usize = 5;

/// Yardstick samples on either side of a set-up (0.45 ms each).
const SETUP_SAMPLES: usize = 8;

pub type Values = BTreeMap<&'static str, f64>;

/// What a run reports, whichever kind it was.
pub struct Outcome {
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
    pub sim_digest: u64,
    pub errors: Vec<String>,
}

fn per(n: f64, d: f64) -> f64 {
    if d > 0.0 {
        n / d
    } else {
        0.0
    }
}

/// Checks common to every workload, then the workload's own.
fn check(rig: &dyn Rig, m: &Measured, errors: &mut Vec<String>) {
    if m.ops + m.failed < rig.planned() {
        errors.push(format!(
            "only {} of {} planned operations completed before the system went quiet",
            m.ops,
            rig.planned()
        ));
    }
    rig.check(m, errors);
}

/// `--trace 0`: set up [`SETUP_REPS`] times, measure once with every
/// benchmark-side observer off, report the end-to-end metrics.
pub fn end_to_end(w: &Workload, seed: u64, scale: &Scale) -> Outcome {
    let mut yardstick = Yardstick::new();
    // A set-up is restated at the reference host speed from yardstick
    // samples taken just before and just after it.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut set_up = |yardstick: &mut Yardstick| {
        let before = yardstick.mean_of(SETUP_SAMPLES);
        let (rig, times) = (w.setup)(seed, scale, &mut Spans::disabled());
        let after = yardstick.mean_of(SETUP_SAMPLES);
        setups.push(yardstick::rescale(times.total_s(), (before + after) / 2.0));
        rig
    };
    // The first system built is the one measured — on a fresh heap, so
    // peak memory is one system's — and is dropped before the rest are
    // built for their timing alone.
    let mut rig = set_up(&mut yardstick);
    let m = measure::run(rig.as_mut(), &mut Spans::disabled(), &mut yardstick);
    let mut errors = Vec::new();
    rig.finish_journal(&mut errors);
    check(rig.as_ref(), &m, &mut errors);
    drop(rig);
    for _ in 1..SETUP_REPS {
        set_up(&mut yardstick);
    }

    let ops = m.ops as f64;
    let mut values = Values::new();
    values.insert("setup_s", median(&setups));
    values.insert("ops_per_sec", m.ops_per_sec());
    values.insert("peak_rss_mb", m.peak_rss_mb);
    values.insert("allocs_per_op", per(m.allocs as f64, ops));
    values.insert("alloc_bytes_per_op", per(m.alloc_bytes as f64, ops));
    values.insert("msgs_per_op", per(m.delivered as f64, ops));
    values.insert("sim_p50_ms", m.quantile_ms(0.50));
    values.insert("sim_p99_ms", m.quantile_ms(0.99));
    values.insert("sim_goodput_per_vs", per(ops, m.vtime_ns as f64 / 1e9));

    println!("# {} seed {seed}: end-to-end run", w.name);
    println!(
        "# measured region {:.3} s wall as measured, {:.3} s at the reference host speed (yardstick {:.0} ns): {} ops, {} events, {} slices; set-ups at that speed {}",
        m.wall_ns as f64 / 1e9,
        m.ref_wall_ns / 1e9,
        m.yardstick_ns,
        m.ops,
        m.events,
        m.slices.len(),
        setups
            .iter()
            .map(|s| format!("{s:.3} s"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    print_latency_note(&m);
    outcome(values, &m, errors)
}

fn print_latency_note(p: &Measured) {
    let n = p.lat_sorted.len();
    match tail_quantile(n) {
        Some(q) => println!(
            "# virtual latency over {n} samples; highest percentile with ten samples beyond it: p{} = {:.3} ms",
            q * 100.0,
            quantile_sorted(&p.lat_sorted, q) as f64 / 1e6
        ),
        None => println!("# virtual latency over {n} samples: too few for any percentile"),
    }
}

fn outcome(values: Values, p: &Measured, errors: Vec<String>) -> Outcome {
    Outcome {
        values,
        attempted: p.offered.max(p.ops + p.failed).max(1),
        failed: p.failed,
        sim_digest: p.sim_digest,
        errors,
    }
}

/// The layer a profiler row belongs to, by endpoint-name prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Naming,
    Runtime,
    Sim,
}

pub fn layer_of(endpoint_name: &str) -> Layer {
    const RUNTIME: [&str; 5] = ["class:", "magistrate:", "host:", "obj:", "LegionClass"];
    if endpoint_name.starts_with("agent") {
        Layer::Naming
    } else if RUNTIME.iter().any(|p| endpoint_name.starts_with(p)) {
        Layer::Runtime
    } else {
        // Clients, the open-loop generator, the churn driver, the system
        // driver and the synthesized registry stubs.
        Layer::Sim
    }
}

/// `(messages, handler wall ns, handler allocations)` per layer.
fn handler_totals(rig: &dyn Rig) -> BTreeMap<Layer, (u64, u64, u64)> {
    let mut out = BTreeMap::new();
    for e in rig.kernel_ref().profile().entries {
        let t: &mut (u64, u64, u64) = out.entry(layer_of(&e.endpoint_name)).or_default();
        t.0 += e.stat.count;
        t.1 += e.stat.wall_ns;
        t.2 += e.stat.allocs;
    }
    out
}

/// Per-event cost of each slice, in order.
fn slice_costs(m: &Measured) -> Vec<f64> {
    m.slices
        .iter()
        .filter(|(n, _)| *n > 0)
        .map(|&(n, ns)| ns as f64 / n as f64)
        .collect()
}

/// Mean per-event cost of the last tenth of the slices over the first
/// tenth: 1.0 for a stationary run, above it when the run slows down as
/// it goes.
fn slice_drift(costs_in_order: &[f64]) -> f64 {
    let tenth = (costs_in_order.len() / 10).max(1);
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len().max(1) as f64;
    per(
        mean(&costs_in_order[costs_in_order.len().saturating_sub(tenth)..]),
        mean(&costs_in_order[..tenth.min(costs_in_order.len())]),
    )
}

/// The layer probes, printed with their quartiles; medians by name.
pub fn probe_values() -> Values {
    probes::run_all()
        .into_iter()
        .map(|p| {
            println!(
                "# probe {:<36} median {:>10.3} ns  [q1 {:.3}, q3 {:.3}]  {} batches × {} calls",
                p.name,
                p.ns[1],
                p.ns[0],
                p.ns[2],
                probes::BATCHES,
                p.batch
            );
            (p.name, p.ns[1])
        })
        .collect()
}

/// `--trace 1`: an untraced pass and a traced pass over the measured
/// region (same seed, fresh systems), and — where the
/// workload journals — a verified replay of the traced pass's journal.
/// `values` arrives holding the probe results and leaves holding every
/// per-layer metric.
pub fn traced(
    w: &Workload,
    seed: u64,
    scale: &Scale,
    mut values: Values,
    trace_out: &std::path::Path,
) -> Outcome {
    let mut errors = Vec::new();

    // Untraced pass: every count and the untraced rate.
    let mut off = Spans::disabled();
    let mut yardstick = Yardstick::new();
    let (mut rig, times) = (w.setup)(seed, scale, &mut off);
    let u = measure::run(rig.as_mut(), &mut off, &mut yardstick);
    let journal = rig.finish_journal(&mut errors);
    check(rig.as_ref(), &u, &mut errors);
    drop(rig);

    // Traced pass: benchmark spans on, kernel profiler on.
    let mut spans = Spans::enabled(seed, u.slices.len() + 64);
    let (mut rig, _) = (w.setup)(seed, scale, &mut spans);
    rig.kernel().enable_profiling();
    let t = measure::run(rig.as_mut(), &mut spans, &mut yardstick);
    let handlers = handler_totals(rig.as_ref());
    let finish = spans.open("teardown.journal_finish", None);
    let recorded = rig.finish_journal(&mut errors);
    spans.close(finish);
    drop(rig);
    if t.sim_digest != u.sim_digest || t.counts != u.counts {
        errors.push(format!(
            "tracing changed the simulation: digest {:016x} untraced, {:016x} traced",
            u.sim_digest, t.sim_digest
        ));
    }

    // Verified replay of the traced pass's recording.
    let mut replay_ns_per_event = 0.0;
    if let (Some(replay), Some(rec)) = (w.replay, recorded) {
        let id = spans.open("replay.verify", None);
        let mut rig = replay(seed, scale, rec.data);
        let t0 = Instant::now();
        let r = measure::run(rig.as_mut(), &mut off, &mut yardstick);
        let verified = rig.finish_journal(&mut errors);
        replay_ns_per_event = per(t0.elapsed().as_nanos() as f64, r.events as f64);
        spans.close(id);
        if r.sim_digest != t.sim_digest {
            errors.push("the replayed run ended in a different state than its recording".into());
        }
        if verified.is_none_or(|v| v.verified == 0) {
            errors.push("the replay verified no journal records".into());
        }
    }

    let p = &u;
    let (ops, events) = (p.ops as f64, p.events as f64);
    let c = |k: &str| p.counts.get(k).copied().unwrap_or(0.0);
    let costs = slice_costs(&u);
    let mut sorted = costs.clone();
    sorted.sort_by(f64::total_cmp);
    let at = |q: f64| {
        sorted
            .get(((sorted.len() as f64 * q) as usize).min(sorted.len().saturating_sub(1)))
            .copied()
            .unwrap_or(0.0)
    };

    values.insert("host.yardstick_ns", p.yardstick_ns);
    values.insert("host.raw_ops_per_sec", p.raw_ops_per_sec());
    values.insert("net.kernel.ns_per_event", per(p.wall_ns as f64, events));
    values.insert("net.kernel.events_per_op", per(events, ops));
    values.insert("net.kernel.queue_peak", p.queue_peak as f64);
    values.insert("net.kernel.slice_ns_per_event_p50", at(0.5));
    values.insert("net.kernel.slice_ns_per_event_p90", at(0.9));
    values.insert("net.kernel.slice_drift", slice_drift(&costs));
    values.insert("net.dedup.rejected", c("net.dedup.rejected"));
    values.insert(
        "net.admission.shed_frac",
        per(c("admission.shed_replies"), c("admission.attempts")),
    );
    values.insert(
        "naming.client_hit_ratio",
        per(
            c("client.cache_hit"),
            c("client.cache_hit") + c("client.cache_miss"),
        ),
    );
    values.insert(
        "naming.agent_hit_ratio",
        per(c("ba.cache_hit"), c("ba.cache_hit") + c("ba.cache_miss")),
    );
    values.insert(
        "naming.stale_refreshes_per_op",
        per(c("client.stale_detected"), ops),
    );
    values.insert(
        "runtime.activations_per_op",
        per(c("magistrate.activations"), ops),
    );
    values.insert("runtime.moves_ok", c("runtime.moves_ok"));
    values.insert("ha.recoveries", c("ha.recoveries"));
    values.insert("ha.detect_vms", c("ha.detect_vms"));
    values.insert("sim.build_s", times.build_s);
    values.insert("sim.plan_gen_s", times.plan_gen_s);
    values.insert("sim.warm_s", times.warm_s);
    if let Some(j) = &journal {
        values.insert(
            "journal.bytes_per_record",
            per(j.bytes as f64, j.records as f64),
        );
        values.insert("journal.bytes_per_event", per(j.bytes as f64, events));
        values.insert("journal.snapshots", j.snapshots as f64);
        values.insert("journal.finish_ns", j.finish_ns as f64);
    }
    values.insert("journal.replay_ns_per_event", replay_ns_per_event);

    // Traced pass: where the measured wall time went.
    // The `measure` span's own self time is the benchmark's bookkeeping
    // between slices; what its slices cover is the program's. Kernel
    // self time is that minus the handlers' summed wall time.
    let measure_ns = spans.duration_ns("measure") as f64;
    let bookkeeping_ns = spans.find("measure").map_or(0, |id| spans.self_ns(id));
    let handler_ns: u64 = handlers.values().map(|t| t.1).sum();
    let self_ns = (measure_ns - bookkeeping_ns as f64 - handler_ns as f64).max(0.0);
    values.insert(
        "net.kernel.self_ns_per_event",
        per(self_ns, t.events as f64),
    );
    values.insert("net.kernel.self_share", 100.0 * per(self_ns, measure_ns));
    for (layer, ns_key, allocs_key, share_key) in [
        (
            Layer::Naming,
            "naming.handler_ns_per_msg",
            Some("naming.handler_allocs_per_msg"),
            "naming.handler_share",
        ),
        (
            Layer::Runtime,
            "runtime.handler_ns_per_msg",
            Some("runtime.handler_allocs_per_msg"),
            "runtime.handler_share",
        ),
        (
            Layer::Sim,
            "sim.client_handler_ns_per_msg",
            None,
            "sim.handler_share",
        ),
    ] {
        let (msgs, ns, allocs) = handlers.get(&layer).copied().unwrap_or_default();
        values.insert(ns_key, per(ns as f64, msgs as f64));
        if let Some(k) = allocs_key {
            values.insert(k, per(allocs as f64, msgs as f64));
        }
        values.insert(share_key, 100.0 * per(ns as f64, measure_ns));
    }
    values.insert(
        "obs.trace_overhead_frac",
        1.0 - per(t.ops_per_sec(), u.ops_per_sec()),
    );

    if let Err(e) = write_trace(&spans, trace_out) {
        errors.push(format!("cannot write {}: {e}", trace_out.display()));
    }
    println!("# {} seed {seed}: traced run", w.name);
    println!(
        "# region {} ops, {} events: untraced {:.3} s, traced {:.3} s ({:.3} ms of it benchmark bookkeeping); {} spans in {}",
        p.ops,
        p.events,
        p.wall_ns as f64 / 1e9,
        t.wall_ns as f64 / 1e9,
        bookkeeping_ns as f64 / 1e6,
        spans.len(),
        trace_out.display()
    );
    for d in PER_LAYER {
        values.entry(d.name).or_insert(0.0);
    }
    outcome(values, p, errors)
}

fn write_trace(spans: &Spans, path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    spans.write_jsonl(&mut out)?;
    out.flush()
}

/// Print every metric of `defs` by name with its unit, the digest, the
/// verdict, and — as the last line — the result object the driver reads.
pub fn report(defs: &[Def], o: &Outcome) -> bool {
    for d in defs {
        println!("{:<40} {:>18.6} {}", d.name, o.values[d.name], d.unit);
    }
    println!("sim_digest {:016x}", o.sim_digest);
    for e in &o.errors {
        println!("CHECK FAILED: {e}");
    }
    let correct = o.errors.is_empty();
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = o.values[d.name];
            let v = if v.is_finite() { v } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted,
        o.failed,
        metrics.join(", ")
    );
    correct
}

pub fn defs_for(trace: bool) -> &'static [Def] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    /// The `--smoke` size walks every workload end to end and through
    /// the traced pass (replay included), passes every correctness
    /// check, repeats per seed, and yields every catalogued metric the
    /// passes are responsible for.
    #[test]
    fn smoke_size_walks_all_four_workloads_and_the_traced_pass() {
        let scale = Scale {
            seconds: 10.0,
            smoke: true,
        };
        let dir =
            std::env::temp_dir().join(format!("legion-benchmark-test-{}", std::process::id()));
        for w in WORKLOADS {
            let a = end_to_end(w, 7, &scale);
            assert!(a.errors.is_empty(), "{}: {:?}", w.name, a.errors);
            assert_eq!(a.failed, 0);
            for d in END_TO_END {
                assert!(
                    a.values[d.name] > 0.0,
                    "{}: {} is not positive",
                    w.name,
                    d.name
                );
            }
            let out = dir.join(format!("{}.trace.jsonl", w.name));
            let t = traced(w, 7, &scale, Values::new(), &out);
            assert!(t.errors.is_empty(), "{}: {:?}", w.name, t.errors);
            assert_eq!(
                t.sim_digest, a.sim_digest,
                "{}: same seed, same simulation",
                w.name
            );
            assert!(PER_LAYER.iter().all(|d| t.values.contains_key(d.name)));
            let trace = std::fs::read_to_string(&out).expect("trace written");
            for name in [
                "setup.build",
                "setup.warm",
                "measure",
                "measure.slice",
                "teardown.collect",
            ] {
                assert!(trace.contains(name), "{}: no `{name}` span", w.name);
            }
            assert_eq!(trace.contains("replay.verify"), w.replay.is_some());
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn profiler_rows_group_into_layers_by_name_prefix() {
        for n in ["agent0", "agent584"] {
            assert_eq!(layer_of(n), Layer::Naming);
        }
        for n in [
            "class:UserClass3",
            "magistrate:4.1",
            "host:3.2",
            "obj:1000.7",
            "LegionClass",
        ] {
            assert_eq!(layer_of(n), Layer::Runtime);
        }
        for n in [
            "client12",
            "open-loop0",
            "churn-driver",
            "driver",
            "registry",
            "legion-class",
        ] {
            assert_eq!(layer_of(n), Layer::Sim);
        }
    }

    #[test]
    fn drift_compares_last_tenth_with_first_tenth() {
        let flat = vec![2.0; 40];
        assert!((slice_drift(&flat) - 1.0).abs() < 1e-12);
        let mut rising: Vec<f64> = (0..100).map(|i| 1.0 + i as f64).collect();
        // first tenth mean 5.5, last tenth mean 95.5
        assert!((slice_drift(&rising) - 95.5 / 5.5).abs() < 1e-12);
        rising.truncate(3);
        assert!((slice_drift(&rising) - 3.0).abs() < 1e-12);
        assert_eq!(slice_drift(&[]), 0.0);
    }
}
