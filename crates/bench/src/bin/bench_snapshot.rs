//! `bench-snapshot` — the runner behind `tools/bench_snapshot.sh`.
//!
//! Produces and checks `BENCH_CORE.json`, the committed machine-readable
//! perf snapshot: Criterion medians (parsed from a `cargo bench` log),
//! the E12 steady-state loop's allocations-per-message (from the
//! counting allocator registered in this binary), and messages/sec.
//!
//! Subcommands:
//!
//! * `measure [--sweep 1,2,4]` — run the steady-state measurement and
//!   print its JSON to stdout (used to capture a "pre" point before a
//!   hot-path change).
//! * `emit --out BENCH_CORE.json [--criterion-log F] [--pre F] [--mode m]`
//!   — run the measurement, merge the bench log and the optional "pre"
//!   measurement, and write the snapshot.
//! * `check --against BENCH_CORE.json [--criterion-log F] [--mode m]` — re-measure
//!   and fail (exit 1) if `allocs_per_message` regressed >5% or any
//!   tracked Criterion median regressed >20% against the committed
//!   snapshot. Wall-clock metrics (`messages_per_sec`) are reported but
//!   never gated: they depend on the machine.
//!
//! `--mode quick` measures the CI-sized E17 and E18 campaigns in place of
//! the full ones (the default).

use legion_bench::alloc_counter::{self, CountingAlloc};
use legion_bench::measure;
use serde::Value;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Headline steady-state point: 2 jurisdictions (8 hosts, 8 clients) —
/// the smallest system with real remote traffic.
const HEADLINE_J: u32 = 2;

fn steady_value(s: &measure::SteadyStats) -> Value {
    Value::Object(vec![
        ("jurisdictions".into(), Value::U64(s.jurisdictions as u64)),
        ("messages".into(), Value::U64(s.messages)),
        ("lookups".into(), Value::U64(s.lookups)),
        ("allocs".into(), Value::U64(s.allocs)),
        ("alloc_bytes".into(), Value::U64(s.alloc_bytes)),
        (
            "allocs_per_message".into(),
            Value::F64(round2(s.allocs_per_message())),
        ),
        (
            "bytes_per_message".into(),
            Value::F64(round2(s.bytes_per_message())),
        ),
        (
            "messages_per_sec".into(),
            Value::F64(s.messages_per_sec().round()),
        ),
    ])
}

fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

/// The E17 kernel-scale campaign row (full million-LOID point, or the
/// `--mode quick` variant — `loids` records which).
fn e17_value(r: &measure::E17Row) -> Value {
    Value::Object(vec![
        ("loids".into(), Value::U64(r.loids)),
        ("agents".into(), Value::U64(r.agents as u64)),
        ("clients".into(), Value::U64(r.clients as u64)),
        ("lookups".into(), Value::U64(r.lookups)),
        ("messages".into(), Value::U64(r.messages)),
        ("events".into(), Value::U64(r.events)),
        ("queue_peak".into(), Value::U64(r.queue_peak as u64)),
        (
            "allocs_per_message".into(),
            Value::F64(round2(r.allocs_per_message)),
        ),
        (
            "messages_per_sec".into(),
            Value::F64(r.messages_per_sec.round()),
        ),
        ("binds_per_sec".into(), Value::F64(r.binds_per_sec.round())),
        ("ns_per_event".into(), Value::F64(r.ns_per_event.round())),
    ])
}

/// The E18 overload campaign (full flash crowd, or the `--mode quick`
/// variant — `offered` records which).
fn e18_value(s: &measure::E18Stats) -> Value {
    Value::Object(vec![
        ("offered".into(), Value::U64(s.offered)),
        ("ok".into(), Value::U64(s.ok)),
        ("shed".into(), Value::U64(s.shed)),
        ("clones".into(), Value::U64(s.clones)),
        ("messages".into(), Value::U64(s.messages)),
        ("allocs".into(), Value::U64(s.allocs)),
        (
            "allocs_per_message".into(),
            Value::F64(round2(s.allocs_per_message())),
        ),
    ])
}

/// Parse `bench <label> <ns> ns/iter` lines from a `cargo bench` log.
fn parse_criterion_log(text: &str) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let mut it = line.split_whitespace();
        if it.next() != Some("bench") {
            continue;
        }
        let Some(label) = it.next() else { continue };
        let Some(ns) = it.next().and_then(|n| n.parse::<u64>().ok()) else {
            continue;
        };
        if it.next() == Some("ns/iter") {
            out.push((label.to_owned(), ns));
        }
    }
    out.sort();
    out
}

fn benches_value(benches: &[(String, u64)]) -> Value {
    Value::Object(
        benches
            .iter()
            .map(|(l, ns)| (l.clone(), Value::U64(*ns)))
            .collect(),
    )
}

struct Args {
    cmd: String,
    criterion_log: Option<String>,
    pre: Option<String>,
    out: Option<String>,
    against: Option<String>,
    mode: String,
    sweep: Vec<u32>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cmd: String::new(),
        criterion_log: None,
        pre: None,
        out: None,
        against: None,
        mode: "full".into(),
        sweep: vec![1, 2, 4],
    };
    let mut it = std::env::args().skip(1);
    args.cmd = it.next().ok_or("missing subcommand (measure|emit|check)")?;
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--criterion-log" => args.criterion_log = Some(val("--criterion-log")?),
            "--pre" => args.pre = Some(val("--pre")?),
            "--out" => args.out = Some(val("--out")?),
            "--against" => args.against = Some(val("--against")?),
            "--mode" => args.mode = val("--mode")?,
            "--sweep" => {
                args.sweep = val("--sweep")?
                    .split(',')
                    .map(|p| p.trim().parse::<u32>().map_err(|e| e.to_string()))
                    .collect::<Result<_, _>>()?
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn run_measurement(
    sweep: &[u32],
    quick: bool,
) -> (
    measure::SteadyStats,
    measure::SteadyStats,
    Vec<measure::SteadyStats>,
    measure::E17Row,
    measure::E18Stats,
) {
    assert!(
        alloc_counter::is_counting(),
        "counting allocator not registered"
    );
    let headline = measure::e12_steady_state(HEADLINE_J, measure::SNAPSHOT_SEED);
    let journaled = measure::e12_steady_state_journaled(HEADLINE_J, measure::SNAPSHOT_SEED);
    let sweep = sweep
        .iter()
        .map(|&j| measure::e12_steady_state(j, measure::SNAPSHOT_SEED))
        .collect();
    let e17 = measure::e17_scale(quick, measure::SNAPSHOT_SEED);
    let e18 = measure::e18_overload(quick, measure::SNAPSHOT_SEED);
    (headline, journaled, sweep, e17, e18)
}

fn measurement_value(
    headline: &measure::SteadyStats,
    journaled: &measure::SteadyStats,
    sweep: &[measure::SteadyStats],
    e17: &measure::E17Row,
    e18: &measure::E18Stats,
) -> Value {
    Value::Object(vec![
        ("e12_steady".into(), steady_value(headline)),
        ("e12_steady_journaled".into(), steady_value(journaled)),
        (
            "e12_sweep".into(),
            Value::Array(sweep.iter().map(steady_value).collect()),
        ),
        ("e17_scale".into(), e17_value(e17)),
        ("e18_overload".into(), e18_value(e18)),
    ])
}

fn load_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    serde::json::from_str(&text).map_err(|e| format!("parse {path}: {e:?}"))
}

fn f64_at(v: &Value, path: &[&str]) -> Option<f64> {
    let mut cur = v;
    for k in path {
        cur = cur.get(k)?;
    }
    cur.as_f64().or_else(|| cur.as_u64().map(|u| u as f64))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench-snapshot: {e}");
            return ExitCode::FAILURE;
        }
    };
    let criterion = args
        .criterion_log
        .as_deref()
        .map(|p| std::fs::read_to_string(p).expect("read criterion log"))
        .map(|t| parse_criterion_log(&t))
        .unwrap_or_default();
    // `--mode quick` measures the CI-sized E17/E18 campaigns.
    let quick = args.mode == "quick";
    match args.cmd.as_str() {
        "measure" => {
            let (headline, journaled, sweep, e17, e18) = run_measurement(&args.sweep, quick);
            println!(
                "{}",
                serde::json::to_string_pretty(&measurement_value(
                    &headline, &journaled, &sweep, &e17, &e18
                ))
            );
            ExitCode::SUCCESS
        }
        "emit" => {
            let out = args.out.as_deref().expect("emit needs --out");
            let (headline, journaled, sweep, e17, e18) = run_measurement(&args.sweep, quick);
            let mut doc = vec![
                ("schema".into(), Value::Str("legion-bench-core/v1".into())),
                ("mode".into(), Value::Str(args.mode.clone())),
                ("seed".into(), Value::U64(measure::SNAPSHOT_SEED)),
            ];
            if let Some(pre) = args.pre.as_deref() {
                let pre = load_json(pre).expect("load --pre measurement");
                doc.push(("pre".into(), pre));
            }
            doc.push((
                "post".into(),
                measurement_value(&headline, &journaled, &sweep, &e17, &e18),
            ));
            doc.push(("benches".into(), benches_value(&criterion)));
            let text = serde::json::to_string_pretty(&Value::Object(doc));
            std::fs::write(out, text + "\n").expect("write snapshot");
            eprintln!(
                "bench-snapshot: wrote {out} (allocs/msg {:.2}, msgs/sec {:.0})",
                headline.allocs_per_message(),
                headline.messages_per_sec()
            );
            ExitCode::SUCCESS
        }
        "check" => {
            let against = args.against.as_deref().expect("check needs --against");
            let committed = load_json(against).expect("load committed snapshot");
            let (headline, journaled, _, e17, e18) = run_measurement(&[], quick);
            let mut failed = false;
            // Allocations per message are deterministic per seed: gate at
            // +5%.
            let committed_apm = f64_at(&committed, &["post", "e12_steady", "allocs_per_message"])
                .expect("committed snapshot has post.e12_steady.allocs_per_message");
            let apm = headline.allocs_per_message();
            let apm_ok = apm <= committed_apm * 1.05;
            println!(
                "allocs/msg: committed {committed_apm:.2}, now {apm:.2} {}",
                if apm_ok { "(ok)" } else { "REGRESSED >5%" }
            );
            failed |= !apm_ok;
            // Same +5% discipline for the journaled configuration, once
            // the committed snapshot records it.
            if let Some(committed_japm) = f64_at(
                &committed,
                &["post", "e12_steady_journaled", "allocs_per_message"],
            ) {
                let japm = journaled.allocs_per_message();
                let japm_ok = japm <= committed_japm * 1.05;
                println!(
                    "allocs/msg (journaled): committed {committed_japm:.2}, now {japm:.2} {}",
                    if japm_ok { "(ok)" } else { "REGRESSED >5%" }
                );
                failed |= !japm_ok;
            } else {
                println!("allocs/msg (journaled): not in committed snapshot (not gated)");
            }
            // E17: the same +5% allocs/message discipline — but only when
            // this run's campaign size matches the committed one (the CI
            // bench-smoke job measures the `--mode quick` variant
            // while the snapshot commits the full million-LOID point, and
            // the two have different per-message profiles).
            let committed_e17_loids = f64_at(&committed, &["post", "e17_scale", "loids"]);
            match (
                committed_e17_loids,
                f64_at(&committed, &["post", "e17_scale", "allocs_per_message"]),
            ) {
                (Some(loids), Some(committed_apm)) if loids == e17.loids as f64 => {
                    let apm = e17.allocs_per_message;
                    let ok = apm <= committed_apm * 1.05;
                    println!(
                        "allocs/msg (e17, {} loids): committed {committed_apm:.2}, now {apm:.2} {}",
                        e17.loids,
                        if ok { "(ok)" } else { "REGRESSED >5%" }
                    );
                    failed |= !ok;
                }
                (Some(loids), Some(_)) => println!(
                    "allocs/msg (e17): committed point has {loids:.0} loids, this run {} \
                     (config mismatch, not gated)",
                    e17.loids
                ),
                _ => println!("allocs/msg (e17): not in committed snapshot (not gated)"),
            }
            // E18: same discipline again — +5% allocs/message over the
            // flash-crowd campaign, gated only when the offered-ops count
            // matches the committed point (quick vs full campaigns have
            // different shed/retry profiles per message).
            let committed_e18_offered = f64_at(&committed, &["post", "e18_overload", "offered"]);
            match (
                committed_e18_offered,
                f64_at(&committed, &["post", "e18_overload", "allocs_per_message"]),
            ) {
                (Some(offered), Some(committed_apm)) if offered == e18.offered as f64 => {
                    let apm = e18.allocs_per_message();
                    let ok = apm <= committed_apm * 1.05;
                    println!(
                        "allocs/msg (e18, {} offered): committed {committed_apm:.2}, now {apm:.2} {}",
                        e18.offered,
                        if ok { "(ok)" } else { "REGRESSED >5%" }
                    );
                    failed |= !ok;
                }
                (Some(offered), Some(_)) => println!(
                    "allocs/msg (e18): committed point offered {offered:.0} ops, this run {} \
                     (config mismatch, not gated)",
                    e18.offered
                ),
                _ => println!("allocs/msg (e18): not in committed snapshot (not gated)"),
            }
            // The E17 scale bar: the million-LOID campaign must sustain
            // ≥2x the pre-overhaul e12 steady-state message rate (the
            // frozen `pre` block). Wall-clock, so reported loudly rather
            // than hard-gated — but a shortfall on the full campaign is
            // called out.
            if e17.loids >= 1_000_000 {
                if let Some(pre_mps) =
                    f64_at(&committed, &["pre", "e12_steady", "messages_per_sec"])
                {
                    let ratio = e17.messages_per_sec / pre_mps.max(1.0);
                    println!(
                        "e17 msgs/sec: {:.0} = {ratio:.2}x the pre-overhaul e12 baseline {pre_mps:.0} {}",
                        e17.messages_per_sec,
                        if ratio >= 2.0 { "(>=2x ok)" } else { "BELOW 2x (wall-clock, not gated)" }
                    );
                }
            }
            // Criterion medians are wall-clock, and the whole machine
            // drifts between runs (load, throttling) — so gate each
            // tracked bench at +20% *relative to the fleet-wide drift*:
            // the median now/committed ratio across tracked benches is
            // the machine-speed correction, and a bench fails only when
            // it regresses 20% beyond that (a genuine per-bench
            // slowdown, not uniform noise). Sub-10µs medians jitter well
            // past 20% run to run regardless; they are reported, never
            // gated.
            const GATE_FLOOR_NS: u64 = 10_000;
            let tracked = committed
                .get("benches")
                .and_then(|b| b.as_object())
                .map(|o| o.to_vec())
                .unwrap_or_default();
            let mut gated: Vec<(&String, u64, u64)> = Vec::new();
            for (label, committed_ns) in &tracked {
                let Some(committed_ns) = committed_ns.as_u64() else {
                    continue;
                };
                let Some((_, now_ns)) = criterion.iter().find(|(l, _)| l == label) else {
                    println!("bench {label}: missing from this run (not gated)");
                    continue;
                };
                if committed_ns < GATE_FLOOR_NS {
                    println!(
                        "bench {label}: committed {committed_ns} ns, now {now_ns} ns (below gate floor)"
                    );
                    continue;
                }
                gated.push((label, committed_ns, *now_ns));
            }
            let mut ratios: Vec<f64> = gated
                .iter()
                .map(|&(_, committed_ns, now_ns)| now_ns as f64 / committed_ns as f64)
                .collect();
            ratios.sort_by(f64::total_cmp);
            let drift = ratios.get(ratios.len() / 2).copied().unwrap_or(1.0);
            // Never excuse an absolute regression by a machine that got
            // *faster*: the correction only ever relaxes the gate.
            let threshold = drift.max(1.0) * 1.20;
            if !gated.is_empty() {
                println!(
                    "machine drift (median ratio over {} benches): {drift:.2}x",
                    gated.len()
                );
            }
            for (label, committed_ns, now_ns) in gated {
                let ratio = now_ns as f64 / committed_ns as f64;
                let ok = ratio <= threshold;
                println!(
                    "bench {label}: committed {committed_ns} ns, now {now_ns} ns, {ratio:.2}x {}",
                    if ok {
                        "(ok)"
                    } else {
                        "REGRESSED >20% beyond drift"
                    }
                );
                failed |= !ok;
            }
            if failed {
                eprintln!("bench-snapshot: perf regression detected");
                ExitCode::FAILURE
            } else {
                println!("bench-snapshot: no regression against {against}");
                ExitCode::SUCCESS
            }
        }
        other => {
            eprintln!("bench-snapshot: unknown subcommand {other}");
            ExitCode::FAILURE
        }
    }
}
