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

use legion::obs;
use legion::sim::experiments as exp;
use legion::sim::obs_run;
use serde::Serialize;
use std::fs;
use std::path::{Path, PathBuf};

/// The seed and scale `legion-exp --quick` uses, so goldens can be
/// eyeballed against the CLI output.
const SEED: u64 = 20260707;
const SCALE: u32 = 1;

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

#[test]
fn e01_transcript_matches_golden() {
    let table = exp::e01_binding_path::table(&exp::e01_binding_path::run(SCALE, SEED));
    check("e01_transcript.golden", &table.render());
}

/// The traced E1 run: analysis tables, the span JSONL, and the metrics
/// snapshot document, exactly as `legion-exp e1 --quick --trace-out
/// --metrics-out` writes them.
#[test]
fn e01_traced_artifacts_match_goldens() {
    let traced = obs_run::run_e01_traced(SCALE, SEED);
    let tables = obs_run::analysis_tables(&traced.events);
    let mut analysis = String::new();
    for t in &tables {
        analysis.push_str(&t.render());
        analysis.push('\n');
    }
    check("e01_analysis.golden", &analysis);
    check(
        "e01_trace.jsonl.golden",
        &obs::export::to_jsonl(&traced.events),
    );
    let doc = serde::Value::Object(vec![
        ("experiment".to_string(), serde::Value::Str("e1".into())),
        ("metrics".to_string(), traced.metrics.to_json_value()),
        (
            "tables".to_string(),
            serde::Value::Array(tables.iter().map(|t| t.to_json()).collect()),
        ),
    ]);
    check(
        "e01_metrics.json.golden",
        &serde::json::to_string_pretty(&doc),
    );
}

/// The unified run report (`legion-exp e12 --report-out`): the
/// instrumented E12 steady state with profiler, SLO tracker, and span
/// sink all enabled. Both renderings must be byte-identical per seed —
/// the JSON document and the text digest — so the report generator runs
/// twice and the outputs are compared before checking the golden.
#[test]
fn e12_run_report_matches_golden() {
    let report = legion::sim::run_report::generate(2, SEED);
    let again = legion::sim::run_report::generate(2, SEED);
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

/// The time-travel acceptance criterion, E12 side: the instrumented run
/// records an event journal (with content-addressed snapshots every
/// [`run_report::SNAP_EVERY`](legion::sim::run_report::SNAP_EVERY)
/// events), then replays as a verified re-execution — once from the
/// origin, once from the last mid-run snapshot waypoint — and both
/// replays must reproduce the live run's report byte-for-byte.
#[test]
fn e12_report_replays_byte_identical_from_journal_and_snapshot() {
    use legion::journal::{MemSink, ReplayStart};
    use legion::sim::run_report::{generate_with_journal, ReportJournal, SNAP_EVERY};
    let sink = MemSink::new();
    let (live, outcome) = generate_with_journal(
        2,
        SEED,
        ReportJournal::Record {
            sink: Box::new(sink.clone()),
            snap_every: SNAP_EVERY,
        },
    )
    .expect("record session");
    let (summary, _) = outcome.expect("record summary");
    assert!(summary.snapshots > 0, "run too short to snapshot");
    let journal = sink.contents();
    for start in [ReplayStart::Origin, ReplayStart::LatestSnapshot] {
        let from_snapshot = matches!(start, ReplayStart::LatestSnapshot);
        let (replay, outcome) = generate_with_journal(
            2,
            SEED,
            ReportJournal::Verify {
                journal: journal.clone(),
                start,
            },
        )
        .expect("verify session");
        let (summary, divergence) = outcome.expect("verify summary");
        assert!(divergence.is_none(), "replay diverged: {divergence:?}");
        if from_snapshot {
            assert!(summary.skipped > 0, "snapshot start skipped nothing");
        } else {
            assert_eq!(summary.verified, summary.records);
        }
        assert_eq!(
            live.to_json(),
            replay.to_json(),
            "replayed report JSON differs (from_snapshot: {from_snapshot})"
        );
        assert_eq!(
            live.render_text(),
            replay.render_text(),
            "replayed report text differs (from_snapshot: {from_snapshot})"
        );
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

#[test]
fn e15_transcript_matches_golden() {
    let table = exp::e15_crash_recovery::table(&exp::e15_crash_recovery::run(SCALE, SEED));
    check("e15_transcript.golden", &table.render());
}

#[test]
fn e16_transcript_matches_golden() {
    let (rows, shrinks) = exp::e16_chaos::run(SCALE, SEED);
    let (t1, t2) = exp::e16_chaos::table(&rows, &shrinks);
    let mut out = t1.render();
    out.push_str(&t2.render());
    check("e16_transcript.golden", &out);
}

/// Quick-scale transcripts of the deterministic experiments, exactly as
/// `legion-exp --quick <id>` prints their tables (E13's and E18's two
/// tables back to back; E13a is wall-clock and left out). Captured on the
/// hand-written CLI's code paths before the run harness replaced them.
#[test]
fn quick_transcripts_match_goldens() {
    let e13 = exp::e13_security::table(&[], &exp::e13_security::run_live(50, SEED)).1;
    let (sweep, flash) = exp::e18_overload::run(SCALE, SEED);
    let (e18a, e18b) = exp::e18_overload::table(&sweep, &flash);
    let transcripts = [
        (
            "e02",
            exp::e02_agent_load::table(&exp::e02_agent_load::run(SCALE, SEED)).render(),
        ),
        (
            "e03",
            exp::e03_cache_tiers::table(&exp::e03_cache_tiers::run(SCALE, SEED)).render(),
        ),
        (
            "e04",
            exp::e04_combining_tree::table(&exp::e04_combining_tree::run(SCALE, SEED)).render(),
        ),
        (
            "e05",
            exp::e05_find_class::table(&exp::e05_find_class::run(4, SEED)).render(),
        ),
        (
            "e06",
            exp::e06_class_cloning::table(&exp::e06_class_cloning::run(32, SEED)).render(),
        ),
        (
            "e07",
            exp::e07_lifecycle::table(&exp::e07_lifecycle::run(6, SEED)).render(),
        ),
        (
            "e08",
            exp::e08_stale_bindings::table(&exp::e08_stale_bindings::run(SCALE, SEED)).render(),
        ),
        (
            "e10",
            exp::e10_replication::table(&exp::e10_replication::run(4, 20, SEED)).render(),
        ),
        (
            "e12",
            exp::e12_scalability::table(&exp::e12_scalability::run(&[1, 2, 4], SEED)).render(),
        ),
        ("e13b", e13.render()),
        ("e18", e18a.render() + &e18b.render()),
    ];
    for (name, transcript) in transcripts {
        check(&format!("{name}_transcript.golden"), &transcript);
    }
}
