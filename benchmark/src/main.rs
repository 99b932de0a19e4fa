//! The repo's benchmark: four campaign-sized workloads measured end to
//! end and layer by layer, from outside the program. See README.md.

mod alloc;
mod gen;
mod measure;
mod metrics;
mod multi;
mod probes;
mod rig;
mod run;
mod span;
mod stats;
mod workloads;
mod yardstick;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

const DEFAULT_SEED: u64 = 20260707;
const DEFAULT_SECONDS: u32 = 10;

const USAGE: &str = "\
usage: legion-benchmark <command> [flags]

  run   --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
        [--reps R] [--smoke]
        One run of one workload: end-to-end metrics with --trace 0 (the
        default), per-layer metrics with --trace 1. `all` makes R (default
        3) end-to-end runs of every workload in fresh processes and
        summarises them; with --trace 1 it adds one traced run each.
  probe The layer probes alone.
  aa    [--seed N] [--seconds S] [--runs R] [--smoke]
        Two sets of R (default 10) runs per workload on this build, judged
        against the bounds in BENCHMARK.json.

  --smoke runs everything at 1/20 size; its numbers compare with nothing.
  Exit status is non-zero when any correctness check fails.";

/// Where `benchmark/` is: next to `BENCHMARK.json` when run from the repo
/// root (as the driver does), else where this crate was built from.
fn benchmark_dir() -> PathBuf {
    let cwd = PathBuf::from("benchmark");
    if cwd.join("Cargo.toml").is_file() {
        cwd
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }
}

struct Flags(BTreeMap<String, String>);

impl Flags {
    /// `--key value` pairs and the bare `--smoke` switch (stored as "1").
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument `{a}`"));
            };
            let value = if a == "--smoke" {
                "1".to_string()
            } else {
                it.next().ok_or(format!("`{a}` needs a value"))?.clone()
            };
            map.insert(key.to_string(), value);
        }
        Ok(Flags(map))
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.0.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("`--{key} {v}` is not a valid number")),
        }
    }

    fn on(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }
}

fn command(args: &[String]) -> Result<bool, String> {
    let (cmd, rest) = args.split_first().ok_or("no command given")?;
    let flags = Flags::parse(rest)?;
    let seed = flags.num("seed", DEFAULT_SEED)?;
    let seconds: u32 = flags.num("seconds", DEFAULT_SECONDS)?;
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be between 1 and 60".into());
    }
    let smoke = flags.on("smoke");
    match cmd.as_str() {
        "run" => {
            let name = flags.0.get("workload").ok_or("`run` needs --workload")?;
            let trace = match flags.num("trace", 0u8)? {
                0 => false,
                1 => true,
                _ => return Err("--trace is 0 or 1".into()),
            };
            if name == "all" {
                let reps: usize = flags.num("reps", 3)?;
                if reps < 3 {
                    return Err("--reps must be at least 3".into());
                }
                return Ok(multi::all(seed, seconds, reps, trace, smoke));
            }
            let w = workloads::find(name).ok_or_else(|| {
                let names: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                format!("unknown workload `{name}`; known: {}", names.join(", "))
            })?;
            let scale = workloads::Scale {
                seconds: f64::from(seconds),
                smoke,
            };
            if smoke {
                println!("# SMOKE SIZE (1/20): walks the code, compares with nothing");
            }
            let outcome = if trace {
                let out = benchmark_dir()
                    .join("out")
                    .join(format!("{}.trace.jsonl", w.name));
                run::traced(w, seed, &scale, run::probe_values(), &out)
            } else {
                run::end_to_end(w, seed, &scale)
            };
            Ok(run::report(run::defs_for(trace), &outcome))
        }
        "probe" => {
            run::probe_values();
            Ok(true)
        }
        "aa" => {
            let runs: usize = flags.num("runs", 10)?;
            if runs < 2 {
                return Err("--runs must be at least 2".into());
            }
            let json = benchmark_dir().join("..").join("BENCHMARK.json");
            let text = std::fs::read_to_string(&json)
                .map_err(|e| format!("cannot read {}: {e}", json.display()))?;
            let out = benchmark_dir().join("out").join("aa.json");
            Ok(multi::aa(&text, seed, seconds, runs, smoke, &out))
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match command(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
