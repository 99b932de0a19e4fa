//! The writer's bytes against a reference framing written out here:
//! however records are buffered, framed and handed to the sink, the
//! journal is `header · (len ‖ crc32(body) ‖ body)*` and nothing else.
//! A kernel's journal session, which frames on its own thread and
//! computes each snapshot mark's root there, gives the same bytes in
//! the same blocks as the writer.

use legion_journal::journal::BLOCK;
use legion_journal::record::RecordKind;
use legion_journal::{read_all, sections_root, JournalSink, JournalWriter, KernelJournal, MemSink};
use legion_persist::cas::ChunkId;
use legion_persist::checksum::crc32;
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// `(at, kind, endpoint, a, b, label)`.
type Rec = (u64, RecordKind, u64, u64, u64, String);

fn varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// One record as the format document frames it.
fn frame(seq: u64, (at, kind, endpoint, a, b, label): &Rec) -> Vec<u8> {
    let mut body = Vec::new();
    varint(&mut body, seq);
    varint(&mut body, *at);
    body.push(kind.tag());
    for v in [*endpoint, *a, *b, label.len() as u64] {
        varint(&mut body, v);
    }
    body.extend_from_slice(label.as_bytes());
    let mut out = (body.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

fn reference(snap_every: u64, script: &[Rec]) -> Vec<u8> {
    let mut out = b"LJNL\x02".to_vec();
    varint(&mut out, snap_every);
    for (seq, rec) in script.iter().enumerate() {
        out.extend_from_slice(&frame(seq as u64, rec));
    }
    out
}

/// Write `script` and either finish the writer or just drop it.
fn written(snap_every: u64, script: &[Rec], finish: bool) -> Vec<u8> {
    let sink = MemSink::new();
    let mut w = JournalWriter::new(Box::new(sink.clone()), snap_every);
    for (at, kind, endpoint, a, b, label) in script {
        w.append(*at, *kind, *endpoint, *a, *b, label);
    }
    assert_eq!(w.next_seq(), script.len() as u64);
    assert_eq!(w.bytes(), reference(snap_every, script).len() as u64);
    if finish {
        w.finish().unwrap();
    }
    drop(w);
    let clone = sink.clone();
    assert_eq!(clone.len(), sink.contents().len());
    assert_eq!(clone.contents(), sink.contents());
    sink.contents()
}

fn check(snap_every: u64, script: &[Rec]) {
    let expected = reference(snap_every, script);
    assert!(written(snap_every, script, true) == expected, "finished");
    assert!(
        written(snap_every, script, false) == expected,
        "dropped without finish"
    );
    let (header, records) = read_all(&expected).unwrap();
    assert_eq!(header.snap_every, snap_every);
    assert_eq!(records.len(), script.len());
    for (seq, (rec, (at, kind, endpoint, a, b, label))) in records.iter().zip(script).enumerate() {
        assert_eq!(
            (rec.seq, rec.at, rec.kind, rec.endpoint, rec.a, rec.b),
            (seq as u64, *at, *kind, *endpoint, *a, *b)
        );
        assert_eq!(&rec.label, label);
    }
}

fn kind(i: u64) -> RecordKind {
    RecordKind::from_tag((i % 17) as u8).expect("seventeen kinds")
}

/// Every kind in turn, labels from empty to 300 bytes, detail words up
/// to `u64::MAX`, ending with a record sized so that the journal is
/// exactly `total` bytes long.
fn script_of_len(total: usize) -> Vec<Rec> {
    let mut script = Vec::new();
    let mut len = reference(0, &[]).len();
    let filler = |i: u64| -> Rec {
        let label = match i % 5 {
            0 => String::new(),
            1 => "x".repeat(300),
            _ => "BindingLookup".to_owned(),
        };
        let wide = if i.is_multiple_of(3) { u64::MAX } else { i };
        (i * 1_000, kind(i), i % 64, wide, u64::MAX - i, label)
    };
    // Leave the last record between 40 and 127 label bytes to choose
    // from, so its length varint stays one byte.
    while total - len > 400 {
        let rec = filler(script.len() as u64);
        len += frame(script.len() as u64, &rec).len();
        script.push(rec);
    }
    let seq = script.len() as u64;
    let pad = |n: usize| -> Rec { (7, kind(seq), 1, 2, 3, "p".repeat(n)) };
    while total - len > 127 {
        len += frame(script.len() as u64, &pad(40)).len();
        script.push(pad(40));
    }
    let seq = script.len() as u64;
    let empty = frame(seq, &pad(0)).len();
    assert!(total - len >= empty, "room for the last frame");
    script.push(pad(total - len - empty));
    assert_eq!(reference(0, &script).len(), total);
    script
}

#[test]
fn scripts_ending_around_a_block_boundary_are_byte_identical() {
    for blocks in [1, 2] {
        for total in [blocks * BLOCK - 1, blocks * BLOCK, blocks * BLOCK + 1] {
            let script = script_of_len(total);
            check(0, &script);
            // A kernel session cuts its blocks where the writer does,
            // which the record after the boundary shows.
            let mut steps: Vec<Step> = script.into_iter().map(Step::Note).collect();
            steps.push(Step::Note((
                1,
                RecordKind::Deliver,
                2,
                3,
                4,
                "after".into(),
            )));
            check_session(0, &steps);
        }
    }
}

#[test]
fn an_empty_script_is_a_header() {
    check(0, &[]);
    check(u64::MAX, &[]);
    assert_eq!(written(300, &[], false), b"LJNL\x02\xac\x02");
}

fn arb_word() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), Just(u64::MAX), any::<u64>(), 0u64..300]
}

fn arb_label() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        Just("L".repeat(300)),
        "[a-zA-Z0-9:._-]{0,24}",
        "[a-f0-9]{64}",
    ]
}

fn arb_rec() -> impl Strategy<Value = Rec> {
    (
        arb_word(),
        0u64..17,
        arb_word(),
        arb_word(),
        arb_word(),
        arb_label(),
    )
        .prop_map(|(at, k, endpoint, a, b, label)| (at, kind(k), endpoint, a, b, label))
}

proptest! {
    /// Random scripts over every kind; `repeat` stretches some of them
    /// over several blocks.
    #[test]
    fn writer_bytes_equal_the_reference_framing(
        script in proptest::collection::vec(arb_rec(), 0..40),
        repeat in prop_oneof![Just(1usize), Just(1usize), 40usize..120],
        snap_every in arb_word(),
    ) {
        let script: Vec<Rec> = script.iter().cycle().take(script.len() * repeat).cloned().collect();
        check(snap_every, &script);
    }
}

/// One step of a kernel journal session.
#[derive(Debug, Clone)]
enum Step {
    /// An event.
    Note(Rec),
    /// A snapshot mark at `at` over `count` sections, `changed` of them
    /// with new bytes.
    Mark {
        at: u64,
        count: usize,
        changed: Vec<(usize, Vec<u8>)>,
    },
    /// A mid-session `finish`: the block in hand goes to the sink.
    Finish,
}

fn section_name(index: usize) -> String {
    format!("ep{index}")
}

/// A sink that keeps each write as the block it arrived as.
#[derive(Clone, Default)]
struct Blocks(Arc<Mutex<Vec<Vec<u8>>>>);

impl JournalSink for Blocks {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.0.lock().unwrap().push(bytes.to_vec());
        Ok(())
    }
}

impl Blocks {
    fn take(&self) -> Vec<Vec<u8>> {
        std::mem::take(&mut self.0.lock().unwrap())
    }
}

/// The script as plain records, each mark given the root a reference
/// computation of its sections gives, and `None` for each `finish`.
fn flatten(steps: &[Step]) -> Vec<Option<Rec>> {
    let mut ids: Vec<ChunkId> = Vec::new();
    let mut marks = 0u64;
    let mut out = Vec::new();
    for step in steps {
        match step {
            Step::Note(rec) => out.push(Some(rec.clone())),
            Step::Mark { at, count, changed } => {
                ids.resize(*count, ChunkId([0; 32]));
                for (index, bytes) in changed {
                    ids[*index] = ChunkId::of(bytes);
                }
                let names: Vec<String> = (0..*count).map(section_name).collect();
                let root = sections_root(&names, &ids).to_hex();
                out.push(Some((
                    *at,
                    RecordKind::Snapshot,
                    0,
                    *count as u64,
                    marks,
                    root,
                )));
                marks += 1;
            }
            Step::Finish => out.push(None),
        }
    }
    out
}

/// The blocks a [`JournalWriter`] hands its sink for the flattened
/// script, finishing where the session does and at the end.
fn writer_blocks(snap_every: u64, steps: &[Step]) -> Vec<Vec<u8>> {
    let sink = Blocks::default();
    let mut w = JournalWriter::new(Box::new(sink.clone()), snap_every);
    for rec in flatten(steps) {
        match rec {
            Some((at, kind, endpoint, a, b, label)) => {
                w.append(at, kind, endpoint, a, b, &label);
            }
            None => w.finish().unwrap(),
        }
    }
    w.finish().unwrap();
    drop(w);
    sink.take()
}

/// The blocks a recording [`KernelJournal`] hands its sink for the
/// script, then finished or just dropped.
fn session_blocks(snap_every: u64, steps: &[Step], finish: bool) -> Vec<Vec<u8>> {
    let sink = Blocks::default();
    let mut journal = KernelJournal::record(Box::new(sink.clone()), snap_every);
    let (mut records, mut marks) = (0u64, 0u64);
    for step in steps {
        match step {
            Step::Note((at, kind, endpoint, a, b, label)) => {
                assert_eq!(journal.note(*at, *kind, *endpoint, *a, *b, label), records);
                records += 1;
            }
            Step::Mark { at, count, changed } => {
                for (index, bytes) in changed {
                    journal.snapshot_section(*index, bytes);
                }
                journal.on_snapshot(*at, 0, *count, section_name);
                assert_eq!(journal.last_snapshot(), Some((marks, records)));
                (records, marks) = (records + 1, marks + 1);
            }
            Step::Finish => {
                let (summary, div) = journal.finish().unwrap();
                assert!(div.is_none());
                assert_eq!((summary.records, summary.snapshots), (records, marks));
                let landed: u64 = sink.0.lock().unwrap().iter().map(|b| b.len() as u64).sum();
                assert_eq!(summary.bytes, landed, "a barrier lands everything");
            }
        }
    }
    assert_eq!(journal.next_seq(), records);
    if finish {
        journal.finish().unwrap();
    }
    drop(journal);
    sink.take()
}

/// The session's blocks are the writer's, finished or dropped, and the
/// journal is the reference framing of the flattened script.
fn check_session(snap_every: u64, steps: &[Step]) {
    let expected = writer_blocks(snap_every, steps);
    assert!(
        session_blocks(snap_every, steps, true) == expected,
        "finished"
    );
    assert!(
        session_blocks(snap_every, steps, false) == expected,
        "dropped without finish"
    );
    let script: Vec<Rec> = flatten(steps).into_iter().flatten().collect();
    assert!(expected.concat() == reference(snap_every, &script));
}

/// A long script: events with labels of 0 to 300 bytes, a mark every
/// `mark_every` events over a growing set of sections (each new one
/// handed over with its first bytes, a few old ones changing), and a
/// `finish` after `finish_at` events.
fn session_script(events: u64, mark_every: u64, finish_at: u64) -> Vec<Step> {
    let mut steps = Vec::new();
    let mut count = 0;
    for i in 0..events {
        if i > 0 && i.is_multiple_of(mark_every) {
            let grown = count + (i % 3) as usize;
            let changed = (0..grown)
                .filter(|&index| index >= count || index == i as usize % grown)
                .map(|index| {
                    (
                        index,
                        format!("{index}@{i}").repeat(1 + index % 4).into_bytes(),
                    )
                })
                .collect();
            count = grown;
            steps.push(Step::Mark {
                at: i * 1_000,
                count,
                changed,
            });
        }
        if i == finish_at {
            steps.push(Step::Finish);
        }
        let label = "L".repeat([0, 13, 300, 40, 7][i as usize % 5]);
        let wide = if i.is_multiple_of(7) { u64::MAX } else { i };
        steps.push(Step::Note((i * 1_000, kind(i), i % 64, wide, i, label)));
    }
    steps
}

/// How many marks' frames carry a block over the [`BLOCK`] line: the
/// script must exercise the edge case it names.
fn marks_straddling_an_edge(snap_every: u64, steps: &[Step]) -> usize {
    let mut fill = reference(snap_every, &[]).len();
    let (mut seq, mut straddles) = (0, 0);
    for rec in flatten(steps) {
        let Some(rec) = rec else {
            fill = 0;
            continue;
        };
        fill += frame(seq, &rec).len();
        seq += 1;
        if fill >= BLOCK {
            straddles += usize::from(rec.1 == RecordKind::Snapshot && fill > BLOCK);
            fill = 0;
        }
    }
    straddles
}

#[test]
fn a_session_with_marks_frames_what_the_writer_does() {
    // About fifteen blocks, a mark every third event: marks and records
    // both carry blocks over the line.
    let steps = session_script(8_000, 3, 5_000);
    assert!(marks_straddling_an_edge(256, &steps) > 0);
    assert!(
        steps.len() > 2 * 4096,
        "more than two of the session's batches"
    );
    check_session(256, &steps);
}

#[test]
fn a_session_of_marks_alone_and_of_nothing() {
    let marks: Vec<Step> = (0..40)
        .map(|i| Step::Mark {
            at: i,
            count: 2,
            changed: vec![(0, vec![i as u8]), (1, vec![])],
        })
        .collect();
    check_session(4, &marks);
    check_session(0, &[]);
    check_session(0, &[Step::Finish, Step::Finish]);
    assert_eq!(
        session_blocks(300, &[], false),
        [b"LJNL\x02\xac\x02".to_vec()]
    );
}

fn arb_step() -> impl Strategy<Value = Step> {
    let note = || arb_rec().prop_map(Step::Note);
    let mark = || {
        (
            arb_word(),
            0usize..6,
            proptest::collection::vec(any::<u8>(), 0..80),
        )
            .prop_map(|(at, i, bytes)| Step::Mark {
                at,
                count: 6,
                changed: vec![(i, bytes)],
            })
    };
    // Six notes, two marks and a finish in nine.
    prop_oneof![
        note(),
        note(),
        note(),
        note(),
        note(),
        note(),
        mark(),
        mark(),
        Just(Step::Finish),
    ]
}

proptest! {
    /// Random sessions: events of every kind, marks over six sections
    /// (the first one names all six, each later one changes one), and
    /// mid-session `finish`es; `repeat` stretches some over several
    /// blocks.
    #[test]
    fn session_bytes_and_blocks_equal_the_writers(
        steps in proptest::collection::vec(arb_step(), 0..40),
        repeat in prop_oneof![Just(1usize), 40usize..120],
        snap_every in arb_word(),
    ) {
        let first = Step::Mark {
            at: 0,
            count: 6,
            changed: (0..6).map(|i| (i, vec![i as u8; i])).collect(),
        };
        let steps: Vec<Step> = std::iter::once(first)
            .chain(steps.iter().cycle().take(steps.len() * repeat).cloned())
            .collect();
        check_session(snap_every, &steps);
    }
}
