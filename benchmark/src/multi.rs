//! Commands that make many runs: `run --workload all` (repetitions of
//! one seed) and `aa` (two sets of runs of the same build, judged against
//! the bounds in `BENCHMARK.json`). Every run is a fresh single-threaded
//! child process of this executable.

use crate::metrics::{Better, Def, END_TO_END};
use crate::stats::{iqr_share, median, quartiles};
use crate::workloads::WORKLOADS;
use serde::Value;
use std::collections::BTreeMap;
use std::process::Command;

/// Metrics that are pure functions of the seed: counts and simulated
/// quantities taken at the end of the measured region. (Allocator
/// calls and bytes are not among them: `std`'s `HashMap` seeds its hasher
/// per process, which moves a rehash here and there, so they repeat to
/// about seven digits, not exactly.)
const EXACT: &[&str] = &[
    "msgs_per_op",
    "sim_p50_ms",
    "sim_p99_ms",
    "sim_goodput_per_vs",
];

pub struct Child {
    pub values: BTreeMap<String, f64>,
    pub sim_digest: String,
    pub correct: bool,
    pub failed: u64,
}

#[derive(Clone, Copy)]
pub struct RunArgs<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: u32,
    pub trace: bool,
    pub smoke: bool,
}

/// Run one child and parse the result object on its last line.
fn child(a: &RunArgs<'_>) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", a.workload])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if a.trace { "1" } else { "0" }]);
    if a.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().unwrap_or("");
    let doc = serde::json::from_str(last).map_err(|e| {
        format!(
            "{} seed {}: no result line ({e:?}); stderr:\n{}",
            a.workload,
            a.seed,
            String::from_utf8_lossy(&out.stderr)
        )
    })?;
    let values = doc
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("result line has no metrics")?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    for line in text.lines().filter(|l| l.starts_with("CHECK FAILED")) {
        eprintln!("{} seed {}: {line}", a.workload, a.seed);
    }
    Ok(Child {
        values,
        sim_digest: text
            .lines()
            .find_map(|l| l.strip_prefix("sim_digest "))
            .unwrap_or("")
            .to_string(),
        correct: doc.get("correct").and_then(Value::as_bool).unwrap_or(false)
            && out.status.success(),
        failed: doc.get("failed").and_then(Value::as_u64).unwrap_or(0),
    })
}

/// Run one child per seed; a run that gives no result is
/// reported and clears `ok`.
fn children(template: &RunArgs<'_>, seeds: impl Iterator<Item = u64>, ok: &mut bool) -> Vec<Child> {
    seeds
        .filter_map(|seed| match child(&RunArgs { seed, ..*template }) {
            Ok(c) => Some(c),
            Err(e) => {
                eprintln!("{e}");
                *ok = false;
                None
            }
        })
        .collect()
}

fn column(runs: &[Child], name: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.values.get(name).copied())
        .collect()
}

fn print_summary(defs: &[Def], runs: &[Child]) {
    for d in defs {
        let v = column(runs, d.name);
        if v.len() >= 2 {
            let [q1, q2, q3] = quartiles(&v);
            println!(
                "  {:<40} median {q2:>16.6} {:<6} [q1 {q1:.6}, q3 {q3:.6}] n={}",
                d.name,
                d.unit,
                v.len()
            );
        } else {
            println!("  {:<40} {:>23.6} {}", d.name, median(&v), d.unit);
        }
    }
}

/// `run --workload all`: every workload, `reps` end-to-end runs of one
/// seed (plus one traced run when asked). Same-seed runs must agree
/// exactly on the digest and on every [`EXACT`] metric.
pub fn all(seed: u64, seconds: u32, reps: usize, traced: bool, smoke: bool) -> bool {
    let mut ok = true;
    if smoke {
        println!("SMOKE SIZE (1/20): walks the code, compares with nothing");
    }
    for w in WORKLOADS {
        println!("{} — seed {seed}, {reps} end-to-end runs", w.name);
        let args = |trace| RunArgs {
            workload: w.name,
            seed,
            seconds,
            trace,
            smoke,
        };
        let runs = children(&args(false), std::iter::repeat_n(seed, reps), &mut ok);
        print_summary(END_TO_END, &runs);
        ok &= runs.iter().all(|r| r.correct);
        if let Some(first) = runs.first() {
            println!("  sim_digest {}", first.sim_digest);
            for r in &runs[1..] {
                let same = r.sim_digest == first.sim_digest
                    && EXACT
                        .iter()
                        .all(|m| r.values.get(*m) == first.values.get(*m));
                if !same {
                    println!(
                        "  NOT REPEATABLE: a run of the same seed gave {}",
                        r.sim_digest
                    );
                    ok = false;
                }
            }
        }
        if traced {
            let run = children(&args(true), std::iter::once(seed), &mut ok);
            println!("  traced run:");
            print_summary(crate::metrics::PER_LAYER, &run);
            ok &= run.iter().all(|r| r.correct);
        }
    }
    ok
}

fn bounds(doc: &Value) -> BTreeMap<String, f64> {
    doc.get("end_to_end")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worse_by(def: &Def, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match def.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// `aa`: two sets of `runs` end-to-end runs per workload (seeds
/// `seed..seed+runs`, the same in both sets) on the same build. For each
/// metric: the inter-quartile spread of each set as a share of its
/// median — the driver's acceptance statistic — and how much worse the
/// second set's median is than the first's, both against the bound.
pub fn aa(
    benchmark_json: &str,
    seed: u64,
    seconds: u32,
    runs: usize,
    smoke: bool,
    out: &std::path::Path,
) -> bool {
    let doc = match serde::json::from_str(benchmark_json) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("BENCHMARK.json does not parse: {e:?}");
            return false;
        }
    };
    let bounds = bounds(&doc);
    let mut ok = true;
    let mut rows = Vec::new();
    for w in WORKLOADS {
        let template = RunArgs {
            workload: w.name,
            seed,
            seconds,
            trace: false,
            smoke,
        };
        let seeds = || seed..seed + runs as u64;
        let sets = [
            children(&template, seeds(), &mut ok),
            children(&template, seeds(), &mut ok),
        ];
        let [a, b] = &sets;
        if a.len() < 2 || b.len() < 2 {
            continue;
        }
        let all_correct = a.iter().chain(b).all(|r| r.correct && r.failed == 0);
        // The same seed must give the same simulation in both sets.
        let repeatable = a.iter().zip(b).all(|(x, y)| {
            x.sim_digest == y.sim_digest
                && EXACT.iter().all(|m| x.values.get(*m) == y.values.get(*m))
        });
        ok &= all_correct && repeatable;
        println!(
            "{} — {} runs per set, checks {}, same-seed runs {}",
            w.name,
            runs,
            if all_correct { "pass" } else { "FAIL" },
            if repeatable { "bit-equal" } else { "DIFFER" },
        );
        println!(
            "  {:<22} {:>14} {:>14} {:>9} {:>9} {:>9} {:>7}  verdict",
            "metric", "median A", "median B", "spread A", "spread B", "B worse", "bound"
        );
        for d in END_TO_END {
            let (va, vb) = (column(a, d.name), column(b, d.name));
            let (sa, sb) = (iqr_share(&va), iqr_share(&vb));
            let shift = worse_by(d, median(&va), median(&vb));
            let bound = bounds.get(d.name).copied().unwrap_or(0.0);
            // The spread of set-up time is reported but not judged (the
            // driver exempts it too); its median shift is.
            let spread = if d.name == "setup_s" { 0.0 } else { sa.max(sb) };
            let verdict = if shift > bound {
                ok = false;
                "FAIL"
            } else if spread > bound {
                ok = false;
                "UNRESOLVED"
            } else {
                "PASS"
            };
            println!(
                "  {:<22} {:>14.6} {:>14.6} {:>8.2}% {:>8.2}% {:>8.2}% {:>6.1}%  {verdict}",
                d.name,
                median(&va),
                median(&vb),
                sa * 100.0,
                sb * 100.0,
                shift * 100.0,
                bound * 100.0
            );
            rows.push(format!(
                "{{\"workload\": \"{}\", \"metric\": \"{}\", \"bound\": {bound}, \"spread_a\": {sa}, \"spread_b\": {sb}, \"median_a\": {}, \"median_b\": {}, \"b_worse_by\": {shift}, \"verdict\": \"{verdict}\"}}",
                w.name,
                d.name,
                median(&va),
                median(&vb)
            ));
        }
    }
    let text = format!(
        "{{\"seed\": {seed}, \"runs_per_set\": {runs}, \"seconds\": {seconds}, \"smoke\": {smoke}, \"rows\": [\n  {}\n]}}\n",
        rows.join(",\n  ")
    );
    if let Some(dir) = out.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(out, text) {
        Ok(()) => println!("spreads written next to their bounds in {}", out.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", out.display());
            ok = false;
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::END_TO_END;

    #[test]
    fn worse_by_follows_the_metric_direction() {
        let lower = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        let higher = END_TO_END.iter().find(|d| d.name == "ops_per_sec").unwrap();
        assert!((worse_by(lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worse_by(lower, 10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((worse_by(higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!((worse_by(higher, 10.0, 11.0) + 0.1).abs() < 1e-12);
        assert_eq!(worse_by(lower, 0.0, 5.0), 0.0);
    }

    #[test]
    fn exact_metrics_are_in_the_catalogue() {
        for m in EXACT {
            assert!(END_TO_END.iter().any(|d| d.name == *m), "{m}");
        }
    }
}
