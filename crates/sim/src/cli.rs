//! The `legion-exp` command-line driver: parse the flags, look the ids up
//! in [`experiments::ALL`], print each experiment's tables, and export the
//! one named experiment's observed point (see
//! [`experiments::Entry::observed`]) under [`Watch::all`]. [`HELP`] is the
//! usage; the printed tables are the ones recorded in EXPERIMENTS.md.
//! Usage errors exit 2, failed runs 1.

use crate::experiments::{self, Entry};
use crate::harness::{Journal, Watch, SNAP_EVERY};
use crate::run_report::{self, RunReport};
use legion_journal::{bisect, FileSink, ReplayStart};
use std::collections::BTreeMap;

/// The seed every `legion-exp` run uses.
const SEED: u64 = 20260707;

const HELP: &str = "\
usage: legion-exp [--quick] (all | e1 e2 ... e18)
       legion-exp [--quick] ID [--trace-out FILE] [--metrics-out FILE] [--report-out FILE]
                  [--journal-out FILE | --replay-from FILE [--from-snapshot]]
       legion-exp --bisect A B
Runs the Legion reproduction experiments (see EXPERIMENTS.md). The export
flags re-run ID's observed point with every instrument on:
--trace-out     write its spans as JSONL (deterministic per seed)
--metrics-out   write its metrics snapshot and trace-analysis tables as JSON
--report-out    write its unified run report (JSON to FILE, text digest to FILE.txt)
--journal-out   record its event journal, with content-addressed snapshots
--replay-from   re-execute it verified against a journal
                (exits 1 with context if the replay diverges)
--from-snapshot start --replay-from at the journal's last snapshot waypoint
--bisect A B    binary-search two journals to the first differing record";

/// The flags that take a path and export the observed point.
const EXPORTS: [&str; 5] = [
    "--trace-out",
    "--metrics-out",
    "--report-out",
    "--journal-out",
    "--replay-from",
];

/// A parsed command line.
#[derive(Debug, Default)]
pub struct Opts {
    quick: bool,
    help: bool,
    which: Vec<&'static Entry>,
    /// Export flag → its path.
    exports: BTreeMap<String, String>,
    /// `--from-snapshot`: where `--replay-from` starts, if not the origin.
    start: Option<ReplayStart>,
    bisect: Option<(String, String)>,
}

/// Parse `legion-exp`'s arguments (without the program name).
///
/// # Errors
///
/// A usage message for anything not understood: an unknown flag or
/// experiment id, a flag missing its path, conflicting journal flags, or
/// export flags without exactly one experiment that has an observed point.
pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Opts, String> {
    let mut o = Opts::default();
    let mut names = Vec::new();
    while let Some(a) = args.next() {
        let mut path = || args.next().ok_or_else(|| format!("{a} needs a path"));
        match a.as_str() {
            "--quick" | "-q" => o.quick = true,
            "--help" | "-h" => o.help = true,
            "--from-snapshot" => o.start = Some(ReplayStart::LatestSnapshot),
            "--bisect" => o.bisect = Some((path()?, path()?)),
            flag if EXPORTS.contains(&flag) => {
                o.exports.insert(flag.into(), path()?);
            }
            _ => names.push(a),
        }
    }
    o.which = experiments::select(&names)?;
    let replays = o.exports.contains_key("--replay-from");
    if replays && o.exports.contains_key("--journal-out") {
        return Err("--journal-out and --replay-from are mutually exclusive".into());
    }
    if o.start.is_some() && !replays {
        return Err("--from-snapshot only modifies --replay-from".into());
    }
    match (o.exports.is_empty(), &names[..], &o.which[..]) {
        (true, ..) => Ok(o),
        (false, [_], [e]) if e.observed.is_some() => Ok(o),
        (false, [_], [e]) => Err(format!("{} has no observed point to export", e.id)),
        _ => Err("the export flags act on exactly one experiment; name it".into()),
    }
}

fn read(path: &str) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn write(path: &str, contents: String) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Run `entry`'s observed point with every instrument on and write what
/// the flags ask for.
fn export(o: &Opts, entry: &Entry) -> Result<(), String> {
    let given = |flag: &str| o.exports.get(flag);
    let journal = match (given("--journal-out"), given("--replay-from")) {
        (Some(path), _) => Journal::Record {
            sink: Box::new(
                FileSink::create(path).map_err(|e| format!("cannot create {path}: {e}"))?,
            ),
            snap_every: SNAP_EVERY,
        },
        (_, Some(path)) => Journal::Verify {
            journal: read(path)?,
            start: o.start.unwrap_or(ReplayStart::Origin),
        },
        _ => Journal::Off,
    };
    let observed = entry.observed.expect("parse checked the entry has one");
    let run = observed(o.quick, SEED, Watch::all(journal));
    let run = run.map_err(|e| format!("journal error: {e}"))?;
    if let Some(div) = run.divergence() {
        return Err(format!(
            "replay diverged from the reference journal:\n{div}"
        ));
    }
    match (&run.journal, given("--journal-out")) {
        (Some((s, _)), Some(path)) => eprintln!(
            "recorded {} journal records ({} bytes, {} snapshots) to {path}",
            s.records, s.bytes, s.snapshots
        ),
        (Some((s, _)), None) => eprintln!(
            "replay verified: {} of {} records byte-identical ({} skipped via snapshot fast path)",
            s.verified, s.records, s.skipped
        ),
        (None, _) => {}
    }
    if let Some(path) = given("--trace-out") {
        write(path, legion_obs::export::to_jsonl(&run.spans))?;
        eprintln!("wrote {} spans to {path}", run.spans.len());
    }
    if let Some(path) = given("--metrics-out") {
        write(path, run_report::metrics_doc(entry.id, &run))?;
        eprintln!("wrote metrics snapshot to {path}");
    }
    if let Some(path) = given("--report-out") {
        let report = RunReport::new(entry.id, SEED, run);
        let text_path = format!("{path}.txt");
        write(path, report.to_json())?;
        write(&text_path, report.render_text())?;
        eprintln!("wrote run report to {path} (text digest: {text_path})");
    }
    Ok(())
}

fn run(o: &Opts) -> Result<(), String> {
    if let Some((a, b)) = &o.bisect {
        // An honest divergence is a successful answer; only unparseable
        // input fails.
        let report = bisect(&read(a)?, &read(b)?).map_err(|e| format!("bisect failed: {e}"))?;
        print!("{report}");
        return Ok(());
    }
    for entry in &o.which {
        for table in (entry.tables)(o.quick, SEED) {
            table.print();
        }
        println!();
    }
    if !o.exports.is_empty() {
        export(o, o.which[0])?;
    }
    Ok(())
}

/// Entry point of the `legion-exp` binary.
pub fn main() {
    let opts = parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    if opts.help {
        eprintln!("{HELP}");
    } else if let Err(e) = run(&opts) {
        eprintln!("{e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests;
