//! End-to-end journal tests over *real* recorded runs: time travel to a
//! snapshot at an arbitrary virtual time, exact-seq divergence
//! bisection, and typed corruption errors — all against journals
//! recorded from the E12 steady state under the run harness, not
//! synthetic record streams.

use legion::journal::journal::index;
use legion::journal::record::decode_body;
use legion::journal::{bisect, read_header, JournalError, JournalWriter, MemSink, ReplayStart};
use legion::sim::experiments::e12_scalability::steady_state;
use legion::sim::harness::{Closed, Journal, Observed, Watch, SNAP_EVERY};
use legion::sim::run_report::RunReport;

const SEED: u64 = 20260707;
const J: u32 = 1;

/// The instrumented E12 run — every instrument on — around `journal`.
fn run_with(journal: Journal) -> Closed {
    steady_state(J, SEED, Watch::all(journal), || ()).1
}

fn report(run: Observed) -> RunReport {
    RunReport::new("e12", SEED, run)
}

/// Record the instrumented E12 run once and return (report, journal).
fn record_run() -> (RunReport, Vec<u8>) {
    let sink = MemSink::new();
    let run = run_with(Journal::Record {
        sink: Box::new(sink.clone()),
        snap_every: SNAP_EVERY,
    })
    .expect("record session");
    let (summary, _) = run.journal.clone().expect("record summary");
    assert!(summary.snapshots > 0, "run too short to snapshot at 256");
    (report(run), sink.contents())
}

/// Re-encode `journal`, replacing the label of the record at index
/// `plant` with a mutant — one divergent event, everything else
/// byte-identical.
fn plant_divergence(journal: &[u8], plant: usize) -> Vec<u8> {
    let header = read_header(journal).expect("journal header");
    let (_, slices) = index(journal).expect("journal indexes");
    assert!(plant < slices.len(), "plant index past end of journal");
    let sink = MemSink::new();
    let mut w = JournalWriter::new(Box::new(sink.clone()), header.snap_every);
    for (i, s) in slices.iter().enumerate() {
        let r = decode_body(s.body(journal), s.offset).expect("record decodes");
        let label = if i == plant {
            "PLANTED-DIVERGENCE"
        } else {
            &r.label
        };
        w.append(r.at, r.kind, r.endpoint, r.a, r.b, label);
    }
    w.finish().expect("re-encoded journal finishes");
    sink.contents()
}

/// Time travel: `SnapshotAtOrBefore(t)` must start verification at a
/// mid-run waypoint (records before it skipped, root-checked) and the
/// re-executed report must still be byte-identical to the live one.
#[test]
fn replay_from_snapshot_at_or_before_time_travels() {
    let (live, journal) = record_run();
    // Pick a virtual time in the middle of the run: the `at` of the
    // last record, halved — late enough to have a snapshot before it.
    let (_, slices) = index(&journal).expect("journal indexes");
    let last = decode_body(slices.last().unwrap().body(&journal), 0).expect("last record");
    let t = last.at / 2;
    let replay = run_with(Journal::Verify {
        journal: journal.clone(),
        start: ReplayStart::SnapshotAtOrBefore(t),
    })
    .expect("verify session");
    let (summary, divergence) = replay.journal.clone().expect("verify summary");
    let replay = report(replay);
    assert!(
        divergence.is_none(),
        "time-travel replay diverged: {divergence:?}"
    );
    assert!(summary.skipped > 0, "no prefix skipped for t={t}");
    assert!(summary.verified > 0, "nothing verified after the waypoint");
    assert_eq!(live.to_json(), replay.to_json());
    assert_eq!(live.render_text(), replay.render_text());
}

/// The bisector acceptance criterion: plant exactly one divergent event
/// in a copy of a real journal and the bisector must name exactly that
/// seq, with both context windows rendered.
#[test]
fn bisect_pinpoints_planted_divergence_to_exact_seq() {
    let (_, journal) = record_run();
    let (_, slices) = index(&journal).expect("journal indexes");
    let total = slices.len();
    assert!(total > 16, "journal too short to make bisection meaningful");
    for plant in [1usize, total / 3, total - 2] {
        let mutant = plant_divergence(&journal, plant);
        let report = bisect(&journal, &mutant).expect("bisect runs");
        assert_eq!(
            report.diverged_seq,
            Some(plant as u64),
            "bisector missed the planted divergence at {plant}"
        );
        assert!(report.context_b.contains("PLANTED-DIVERGENCE"));
        assert!(report.context_a.contains(">>"));
    }
    // And a self-comparison is clean.
    let clean = bisect(&journal, &journal).expect("bisect runs");
    assert_eq!(clean.diverged_seq, None);
}

/// A replayed run whose workload *diverges* from the recording is caught
/// with the exact journal seq and context — here the reference journal
/// carries a planted mutant record, so the live re-execution disagrees
/// at exactly that point.
#[test]
fn verified_replay_reports_divergence_with_context() {
    let (_, journal) = record_run();
    let (_, slices) = index(&journal).expect("journal indexes");
    let plant = slices.len() / 2;
    let mutant = plant_divergence(&journal, plant);
    let replay = run_with(Journal::Verify {
        journal: mutant,
        start: ReplayStart::Origin,
    })
    .expect("verify session runs to completion");
    let (_, divergence) = replay.journal.expect("verify summary");
    let div = divergence.expect("planted mutant must surface as a divergence");
    assert_eq!(div.seq, plant as u64, "divergence seq is the planted one");
    assert!(div.expected.contains("PLANTED-DIVERGENCE"));
    assert!(!div.context.is_empty(), "divergence carries no context");
}

/// The journal thread's timing cannot reach the bytes. The run recorded
/// alone, and again four times at once on scoped threads — four event
/// loops and four journal threads contending for the cores — gives one
/// journal, and each copy verifies, again four at a time, with every
/// record checked and no divergence.
#[test]
fn journals_do_not_depend_on_thread_timing() {
    let (_, alone) = record_run();
    let crowded: Vec<Vec<u8>> = std::thread::scope(|s| {
        let runs: Vec<_> = (0..4).map(|_| s.spawn(|| record_run().1)).collect();
        runs.into_iter().map(|run| run.join().unwrap()).collect()
    });
    assert!(crowded.iter().all(|journal| *journal == alone));
    std::thread::scope(|s| {
        for journal in crowded {
            s.spawn(|| {
                let replay = run_with(Journal::Verify {
                    journal,
                    start: ReplayStart::Origin,
                })
                .expect("verify session runs to completion");
                let (summary, divergence) = replay.journal.expect("verify summary");
                assert!(divergence.is_none(), "{divergence:?}");
                assert_eq!(summary.verified, summary.records);
            });
        }
    });
}

/// Corruption of a *real* journal fails typed, never panics: truncation
/// mid-record and a flipped body byte both surface as the right
/// [`JournalError`] — from both the verifier and the bisector.
#[test]
fn corrupt_journals_fail_typed() {
    let (_, journal) = record_run();
    let (_, slices) = index(&journal).expect("journal indexes");

    // Truncate mid-record (drop the last 3 bytes of the final frame).
    let cut = journal[..journal.len() - 3].to_vec();
    let err = run_with(Journal::Verify {
        journal: cut.clone(),
        start: ReplayStart::Origin,
    })
    .expect_err("truncated journal must not verify");
    assert!(
        matches!(err, JournalError::TruncatedRecord { .. }),
        "got {err:?}"
    );
    assert!(matches!(
        bisect(&journal, &cut),
        Err(JournalError::TruncatedRecord { .. })
    ));

    // Flip one bit inside a record body: checksum catches it.
    let mid = &slices[slices.len() / 2];
    let mut flipped = journal.clone();
    flipped[mid.body_start] ^= 0x40;
    let err = run_with(Journal::Verify {
        journal: flipped.clone(),
        start: ReplayStart::Origin,
    })
    .expect_err("bit-flipped journal must not verify");
    assert!(
        matches!(err, JournalError::BadChecksum { .. }),
        "got {err:?}"
    );
    assert!(matches!(
        bisect(&journal, &flipped),
        Err(JournalError::BadChecksum { .. })
    ));
}
