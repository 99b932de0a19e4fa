//! Determinism golden tests.
//!
//! The experiments are bit-reproducible per seed, and several PRs lean on
//! that: a refactor of the message hot path must leave the E1/E15/E16
//! transcripts, the E1 `MetricsSnapshot` JSON, and the E1 trace JSONL
//! **byte-identical**. These tests pin each of those artifacts against a
//! committed golden file under `tests/goldens/`.
//!
//! To (re)capture the goldens after an *intentional* output change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test goldens
//! ```
//!
//! and commit the diff — the review then sees exactly what changed in the
//! observable output, separately from the code change.

use legion::journal::{MemSink, ReplayStart};
use legion::obs;
use legion::sim::experiments::{Entry, ALL};
use legion::sim::harness::{Journal, Observed, Watch, SNAP_EVERY};
use legion::sim::run_report::{self, RunReport};
use legion::sim::Table;
use std::fs;
use std::path::{Path, PathBuf};

/// The seed `legion-exp` uses, so goldens can be eyeballed against the
/// `--quick` CLI output.
const SEED: u64 = 20260707;

fn entry(id: &str) -> &'static Entry {
    ALL.iter().find(|e| e.id == id).expect("a registered id")
}

/// The tables `legion-exp --quick <id>` prints.
fn quick_tables(id: &str) -> Vec<Table> {
    (entry(id).tables)(true, SEED)
}

/// `id`'s observed point at `--quick`, every instrument on, as the export
/// flags run it.
fn observe(id: &str, journal: Journal) -> Observed {
    let observed = entry(id).observed.expect("an observed point");
    observed(true, SEED, Watch::all(journal)).expect("journal session")
}

fn goldens_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens")
}

/// Compare `actual` against the committed golden `name`, or rewrite the
/// golden when `UPDATE_GOLDENS` is set.
fn check(name: &str, actual: &str) {
    let path = goldens_dir().join(name);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        fs::create_dir_all(path.parent().expect("golden path has a parent")).expect("mkdir");
        fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {name} ({e}); capture with UPDATE_GOLDENS=1 cargo test --test goldens"
        )
    });
    if expected != actual {
        let diverge = expected
            .lines()
            .zip(actual.lines())
            .position(|(e, a)| e != a)
            .map(|i| {
                let e = expected.lines().nth(i).unwrap_or("<eof>");
                let a = actual.lines().nth(i).unwrap_or("<eof>");
                format!(
                    "first divergence at line {}:\n  golden: {e}\n  actual: {a}",
                    i + 1
                )
            })
            .unwrap_or_else(|| {
                format!(
                    "line-prefix identical; lengths differ ({} vs {} bytes)",
                    expected.len(),
                    actual.len()
                )
            });
        panic!("golden {name} diverged — {diverge}");
    }
}

/// The traced E1 run: analysis tables, the span JSONL, and the metrics
/// snapshot document, exactly as `legion-exp e1 --quick --trace-out
/// --metrics-out` writes them.
#[test]
fn e01_traced_artifacts_match_goldens() {
    let traced = observe("e1", Journal::Off);
    let mut analysis = String::new();
    for t in &quick_tables("e1")[1..] {
        analysis.push_str(&t.render());
        analysis.push('\n');
    }
    check("e01_analysis.golden", &analysis);
    check(
        "e01_trace.jsonl.golden",
        &obs::export::to_jsonl(&traced.spans),
    );
    check(
        "e01_metrics.json.golden",
        &run_report::metrics_doc("e1", &traced),
    );
}

/// The unified run report (`legion-exp e12 --report-out`): the
/// instrumented E12 steady state with profiler, SLO tracker, and span
/// sink all enabled. Both renderings must be byte-identical per seed —
/// the JSON document and the text digest — so the report generator runs
/// twice and the outputs are compared before checking the golden.
#[test]
fn e12_run_report_matches_golden() {
    let report = RunReport::new("e12", SEED, observe("e12", Journal::Off));
    let again = RunReport::new("e12", SEED, observe("e12", Journal::Off));
    let json = report.to_json();
    let text = report.render_text();
    assert_eq!(json, again.to_json(), "report JSON not seed-deterministic");
    assert_eq!(
        text,
        again.render_text(),
        "report text not seed-deterministic"
    );
    check("e12_report.json.golden", &json);
    check("e12_report.txt.golden", &text);
}

/// The time-travel acceptance criterion, for every experiment with an
/// observed point: the run records an event journal (with
/// content-addressed snapshots every [`SNAP_EVERY`] events), then replays
/// as a verified re-execution — once from the origin, once from the last
/// mid-run snapshot waypoint — and both replays must reproduce the live
/// run's report byte-for-byte.
#[test]
fn observed_points_replay_byte_identical_from_journal_and_snapshot() {
    for e in ALL.iter().filter(|e| e.observed.is_some()) {
        let id = e.id;
        let sink = MemSink::new();
        let live = observe(
            id,
            Journal::Record {
                sink: Box::new(sink.clone()),
                snap_every: SNAP_EVERY,
            },
        );
        let (summary, _) = live.journal.clone().expect("record summary");
        assert!(summary.snapshots > 0, "{id}: run too short to snapshot");
        let live = RunReport::new(id, SEED, live);
        let journal = sink.contents();
        for start in [ReplayStart::Origin, ReplayStart::LatestSnapshot] {
            let from_snapshot = matches!(start, ReplayStart::LatestSnapshot);
            let replay = observe(
                id,
                Journal::Verify {
                    journal: journal.clone(),
                    start,
                },
            );
            let (summary, divergence) = replay.journal.clone().expect("verify summary");
            assert!(
                divergence.is_none(),
                "{id}: replay diverged: {divergence:?}"
            );
            if from_snapshot {
                assert!(summary.skipped > 0, "{id}: snapshot start skipped nothing");
            } else {
                assert_eq!(summary.verified, summary.records, "{id}");
            }
            let replay = RunReport::new(id, SEED, replay);
            assert_eq!(
                live.to_json(),
                replay.to_json(),
                "{id}: replayed report JSON differs (from_snapshot: {from_snapshot})"
            );
            assert_eq!(
                live.render_text(),
                replay.render_text(),
                "{id}: replayed report text differs (from_snapshot: {from_snapshot})"
            );
        }
    }
}

/// The time-travel acceptance criterion, E16 side: a chaos run under a
/// generated fault schedule records its journal, then replays from the
/// latest snapshot; `run_replayed` panics internally on any divergence,
/// and the outcome (violations + state digest) must come out identical.
#[test]
fn e16_chaos_run_replays_byte_identical() {
    use legion::chaos::{campaign::ChaosTarget, ChaosSchedule};
    use legion::sim::experiments::e16_chaos::{campaign_bounds, SimChaosTarget};
    let mut target = SimChaosTarget::new(2);
    let schedule = ChaosSchedule::generate(SEED, &campaign_bounds());
    let (live, journal) = target.run_recorded(&schedule);
    let journal = journal.expect("SimChaosTarget records a journal");
    assert!(!journal.is_empty());
    let replay = target.run_replayed(&schedule, &journal);
    assert_eq!(live, replay, "chaos replay outcome differs");
}

/// One walk over the registry — the CLI's whole vocabulary. Ids are
/// `e1`…`e18` in order, less `e14`; each entry's first table is the one
/// `experiments_output.txt` records under that experiment's number; and
/// the deterministic experiments' quick-scale transcripts, exactly as
/// `legion-exp --quick <id>` prints their tables (E16's and E18's two back
/// to back), match their goldens. E9, E13a and E17 print wall-clock
/// columns and have none. All but E1's, E11's, E15's and E16's were
/// captured on the hand-written CLI's code paths, before the registry and
/// the run harness replaced them.
#[test]
fn registry_transcripts_match_goldens() {
    let recorded =
        fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("experiments_output.txt"))
            .expect("experiments_output.txt at the repo root");
    // (id, golden name, which of its tables the golden holds)
    let pinned = [
        ("e1", "e01", 0..1),
        ("e2", "e02", 0..1),
        ("e3", "e03", 0..1),
        ("e4", "e04", 0..1),
        ("e5", "e05", 0..1),
        ("e6", "e06", 0..1),
        ("e7", "e07", 0..1),
        ("e8", "e08", 0..1),
        ("e10", "e10", 0..1),
        ("e11", "e11", 0..1),
        ("e12", "e12", 0..1),
        ("e13", "e13b", 1..2),
        ("e15", "e15", 0..1),
        ("e16", "e16", 0..2),
        ("e18", "e18", 0..2),
    ];
    // Literal: ids keep their numbers, and `e14` is absent because the
    // threaded runtime it measured ran no Legion endpoint and was deleted.
    let ids = [
        "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e15",
        "e16", "e17", "e18",
    ];
    assert_eq!(ALL.iter().map(|e| e.id).collect::<Vec<_>>(), ids);
    for e in ALL {
        let number = &e.id[1..];
        let tables = (e.tables)(true, SEED);
        assert!(!tables.is_empty(), "{} prints nothing", e.id);
        let first = tables[0].render();
        let title = first.lines().next().expect("a title line");
        assert!(title.starts_with(&format!("== E{number}")), "{title}");
        assert!(
            recorded.lines().any(|l| l == title),
            "{title} is not in experiments_output.txt"
        );
        if let Some((_, name, held)) = pinned.iter().find(|(id, ..)| *id == e.id) {
            let transcript: String = tables[held.clone()].iter().map(Table::render).collect();
            check(&format!("{name}_transcript.golden"), &transcript);
        }
    }
}
