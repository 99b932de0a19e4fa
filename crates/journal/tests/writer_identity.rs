//! The writer's bytes against a reference framing written out here:
//! however records are buffered, framed and handed to the sink, the
//! journal is `header · (len ‖ crc32(body) ‖ body)*` and nothing else.

use legion_journal::journal::BLOCK;
use legion_journal::record::RecordKind;
use legion_journal::{read_all, JournalWriter, MemSink};
use legion_persist::checksum::crc32;
use proptest::prelude::*;

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
            check(0, &script_of_len(total));
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
