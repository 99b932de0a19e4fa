//! Property-based corruption tests for the journal codec: truncation,
//! bit flips, and mid-record EOF must never panic and always surface a
//! typed [`JournalError`] (mirroring the OPR codec proptests in
//! `legion-persist`).

use legion_journal::journal::BLOCK;
use legion_journal::record::{RecordKind, KINDS};
use legion_journal::{bisect, index, read_all, JournalError, JournalWriter, MemSink};
use proptest::prelude::*;

/// A record as (at, kind tag, endpoint, a, b, label).
type Rec = (u64, u8, u64, u64, u64, String);

/// An arbitrary record, of any kind.
fn arb_record() -> impl Strategy<Value = Rec> {
    (
        any::<u64>(),
        0..KINDS.len() as u8,
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        "[a-zA-Z0-9:._-]{0,24}",
    )
}

fn journal_of(records: &[Rec], snap_every: u64) -> Vec<u8> {
    let sink = MemSink::new();
    let mut w = JournalWriter::new(Box::new(sink.clone()), snap_every);
    for (at, tag, ep, a, b, label) in records {
        w.append(*at, RecordKind::from_tag(*tag).unwrap(), *ep, *a, *b, label);
    }
    w.finish().unwrap();
    sink.contents()
}

proptest! {
    /// Round-trip: whatever we write, we read back identically.
    #[test]
    fn journal_roundtrips(
        records in proptest::collection::vec(arb_record(), 0..20),
        snap_every in 0u64..512,
    ) {
        let data = journal_of(&records, snap_every);
        let (header, decoded) = read_all(&data).unwrap();
        prop_assert_eq!(header.snap_every, snap_every);
        prop_assert_eq!(decoded.len(), records.len());
        for (i, (rec, (at, tag, ep, a, b, label))) in
            decoded.iter().zip(records.iter()).enumerate()
        {
            prop_assert_eq!(rec.seq, i as u64);
            prop_assert_eq!(rec.at, *at);
            prop_assert_eq!(rec.kind.tag(), *tag);
            prop_assert_eq!(rec.endpoint, *ep);
            prop_assert_eq!(rec.a, *a);
            prop_assert_eq!(rec.b, *b);
            prop_assert_eq!(&rec.label, label);
        }
    }

    /// Truncation at any byte (torn write, short read) never panics: it
    /// either yields a shorter valid journal (cut on a block boundary)
    /// or a typed error.
    #[test]
    fn truncation_never_panics(
        records in proptest::collection::vec(arb_record(), 1..12),
        cut_seed in any::<usize>(),
    ) {
        let data = journal_of(&records, 8);
        let cut = cut_seed % data.len();
        match read_all(&data[..cut]) {
            Ok((_, decoded)) => prop_assert!(decoded.len() < records.len()),
            Err(
                JournalError::TruncatedHeader
                | JournalError::BadMagic
                | JournalError::TruncatedRecord { .. }
                | JournalError::RecordTooLarge { .. }
                | JournalError::BadChecksum { .. },
            ) => {}
            Err(other) => prop_assert!(false, "unexpected error {other:?}"),
        }
    }

    /// Any single-byte flip is detected: header flips fail header
    /// validation, block flips fail the checksum or framing. A flip
    /// can never silently decode to different records.
    #[test]
    fn single_byte_flip_is_detected(
        records in proptest::collection::vec(arb_record(), 1..12),
        pos_seed in any::<usize>(),
        flip in 1u8..,
    ) {
        let mut data = journal_of(&records, 8);
        let pos = pos_seed % data.len();
        data[pos] ^= flip;
        if let Ok((_header, decoded)) = read_all(&data) {
            // A flip in the snap_every varint of the header leaves
            // every record intact; nothing else may decode cleanly.
            prop_assert!((5..5 + 10).contains(&pos), "flip at {pos} undetected");
            prop_assert_eq!(decoded.len(), records.len());
        }
    }

    /// Multi-byte corruption across the whole buffer never panics.
    #[test]
    fn multi_flip_never_panics(
        records in proptest::collection::vec(arb_record(), 1..10),
        flips in proptest::collection::vec((any::<usize>(), 1u8..), 1..8),
    ) {
        let mut data = journal_of(&records, 4);
        for (pos_seed, flip) in flips {
            let pos = pos_seed % data.len();
            data[pos] ^= flip;
        }
        let _ = read_all(&data); // must not panic
    }

    /// The bisector is total over corrupt input: typed error or report,
    /// never a panic.
    #[test]
    fn bisect_never_panics_on_corrupt_input(
        records in proptest::collection::vec(arb_record(), 1..10),
        pos_seed in any::<usize>(),
        flip in 1u8..,
    ) {
        let a = journal_of(&records, 4);
        let mut b = a.clone();
        let pos = pos_seed % b.len();
        b[pos] ^= flip;
        let _ = bisect(&a, &b); // must not panic
    }
}

/// The labels of a long journal: a handful, repeated, as a kernel's are.
const LABELS: [&str; 5] = ["", "Heartbeat", "reply", "Ping", "BindingLookup"];

/// A record of a long journal: one of [`LABELS`], `at` and the detail
/// words now and then at `u64::MAX`.
fn arb_long_record() -> impl Strategy<Value = Rec> {
    (
        prop_oneof![Just(u64::MAX), 0u64..1 << 40],
        0..KINDS.len() as u8,
        prop_oneof![Just(u64::MAX), 0u64..128],
        prop_oneof![Just(u64::MAX), any::<u64>(), 0u64..1_000],
        prop_oneof![Just(u64::MAX), Just(0u64)],
        (0..LABELS.len()).prop_map(|i| LABELS[i].to_owned()),
    )
}

/// `pattern` cycled until its journal is more than `bytes` long, the
/// i-th record's `at` moved back by `i · step` (wrapping): time runs
/// backwards when `step` is not 0. Returns the records and the journal.
fn long_journal(pattern: &[Rec], step: u64, bytes: u64) -> (Vec<Rec>, Vec<u8>) {
    let sink = MemSink::new();
    let mut w = JournalWriter::new(Box::new(sink.clone()), 8);
    let mut records = Vec::new();
    for (i, rec) in pattern.iter().cycle().enumerate() {
        if w.bytes() > bytes {
            break;
        }
        let mut rec = rec.clone();
        rec.0 = rec.0.wrapping_sub((i as u64).wrapping_mul(step));
        let (at, tag, ep, a, b, label) = &rec;
        w.append(*at, RecordKind::from_tag(*tag).unwrap(), *ep, *a, *b, label);
        records.push(rec);
    }
    w.finish().unwrap();
    (records, sink.contents())
}

proptest! {
    /// A journal of several blocks round-trips; cut at a block boundary
    /// it is a valid journal of the records before that block; with a
    /// block dropped, cut anywhere else, or with any byte of a block
    /// flipped, it fails typed.
    #[test]
    fn long_journals_roundtrip_and_fail_typed(
        pattern in proptest::collection::vec(arb_long_record(), 1..40),
        extra in 0..2 * BLOCK as u64,
        step in prop_oneof![Just(0u64), Just(1u64), Just(u64::MAX / 3), any::<u64>()],
        pos_seed in any::<usize>(),
        flip in 1u8..,
    ) {
        let (records, data) = long_journal(&pattern, step, BLOCK as u64 + extra);
        let (header, blocks) = index(&data).unwrap();
        prop_assert!(blocks.len() >= 2, "{} blocks", blocks.len());

        let (_, decoded) = read_all(&data).unwrap();
        prop_assert_eq!(decoded.len(), records.len());
        for (i, (rec, (at, tag, ep, a, b, label))) in decoded.iter().zip(&records).enumerate() {
            prop_assert_eq!(
                (rec.seq, rec.at, rec.kind.tag(), rec.endpoint, rec.a, rec.b),
                (i as u64, *at, *tag, *ep, *a, *b)
            );
            prop_assert_eq!(&rec.label, label);
        }

        for block in &blocks {
            let (_, prefix) = read_all(&data[..block.offset]).unwrap();
            prop_assert_eq!(prefix.len() as u64, block.first_seq);
            prop_assert!(prefix[..] == decoded[..prefix.len()]);
        }

        // A block dropped from before the last: the next one does not
        // start at the seq the journal had reached.
        let gone = &blocks[pos_seed % (blocks.len() - 1)];
        let gap = [&data[..gone.offset], &data[gone.end..]].concat();
        let got = read_all(&gap);
        prop_assert!(matches!(got, Err(JournalError::BadSeq { .. })), "{got:?}");

        let span = data.len() - header.records_at;
        let cut = header.records_at + pos_seed % span;
        if blocks.iter().all(|b| b.offset != cut) {
            let got = read_all(&data[..cut]);
            prop_assert!(
                matches!(got, Err(JournalError::TruncatedRecord { .. })),
                "cut at {cut}: {got:?}"
            );
        }

        let pos = header.records_at + pos_seed.rotate_left(17) % span;
        let mut flipped = data.clone();
        flipped[pos] ^= flip;
        match read_all(&flipped) {
            Err(
                JournalError::BadChecksum { .. }
                | JournalError::TruncatedRecord { .. }
                | JournalError::RecordTooLarge { .. },
            ) => {}
            other => prop_assert!(false, "flip at {pos}: {other:?}"),
        }
    }
}
