//! The bisector against the obvious answer: decode both journals and
//! compare their records in order. Over random journals paired with an
//! edited copy — one record changed, the tail dropped from a record
//! on, records appended, or nothing changed — `bisect` must name
//! the first index where the decoded records differ, else the shorter
//! length, else no divergence, and render both context windows.

use legion_journal::record::RecordKind;
use legion_journal::{bisect, read_all, JournalWriter, MemSink};
use proptest::collection::vec;
use proptest::prelude::*;

/// A record as (at, kind tag, endpoint, a, b, label).
type Rec = (u64, u8, u64, u64, u64, String);

/// Any record: every kind, labels of 0–40 bytes.
fn arb_record() -> impl Strategy<Value = Rec> {
    let kinds = (0u8..).map_while(RecordKind::from_tag).count() as u8;
    (
        0u64..1 << 40,
        0..kinds,
        0u64..1_000,
        any::<u64>(),
        any::<u64>(),
        "[a-zA-Z0-9:._-]{0,40}",
    )
}

fn journal_of(records: &[Rec]) -> Vec<u8> {
    let sink = MemSink::new();
    let mut w = JournalWriter::new(Box::new(sink.clone()), 0);
    for (at, tag, ep, a, b, label) in records {
        w.append(*at, RecordKind::from_tag(*tag).unwrap(), *ep, *a, *b, label);
    }
    w.finish().unwrap();
    sink.contents()
}

/// How the second journal of a pair is made from the first.
#[derive(Debug, Clone)]
enum Edit {
    /// Change one field of one record; the seed picks which.
    Change(usize),
    /// Drop a record and the rest, as the recording run would have had
    /// it ended there; the seed picks which.
    Cut(usize),
    /// Append records.
    Append(Vec<Rec>),
    Nothing,
}

fn arb_edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        any::<usize>().prop_map(Edit::Change),
        any::<usize>().prop_map(Edit::Cut),
        vec(arb_record(), 1..20).prop_map(Edit::Append),
        Just(Edit::Nothing),
    ]
}

fn edited(records: &[Rec], journal: &[u8], edit: &Edit) -> Vec<u8> {
    match edit {
        Edit::Change(seed) => {
            let (mut records, n) = (records.to_vec(), records.len());
            let rec = &mut records[seed % n];
            match seed / n % 3 {
                0 => rec.0 += 1,
                1 => rec.3 = rec.3.wrapping_add(1),
                _ => rec.5.push('#'),
            }
            journal_of(&records)
        }
        Edit::Cut(seed) => journal_of(&records[..seed % records.len()]),
        Edit::Append(more) => journal_of(&[records, more].concat()),
        Edit::Nothing => journal.to_vec(),
    }
}

proptest! {
    #[test]
    fn bisect_names_the_first_record_that_differs(
        records in vec(arb_record(), 1..=300),
        edit in arb_edit(),
    ) {
        let a = journal_of(&records);
        let b = edited(&records, &a, &edit);
        let (_, ra) = read_all(&a).unwrap();
        let (_, rb) = read_all(&b).unwrap();
        let first = ra.iter().zip(&rb).position(|(x, y)| x != y);
        let expected = first.or((ra.len() != rb.len()).then_some(ra.len().min(rb.len())));
        prop_assert_eq!(matches!(edit, Edit::Nothing), expected.is_none());

        for (x, y) in [(&a, &b), (&b, &a)] {
            let report = bisect(x, y).unwrap();
            prop_assert_eq!(report.diverged_seq, expected.map(|i| i as u64), "{:?}", edit);
            let text = report.to_string();
            match expected {
                None => {
                    prop_assert!(text.starts_with("journals identical"), "{}", text);
                    prop_assert!(report.context_a.is_empty() && report.context_b.is_empty());
                }
                Some(seq) => {
                    let head = format!("journals diverge at seq {seq} ");
                    prop_assert!(text.starts_with(&head), "{}", text);
                    for context in [&report.context_a, &report.context_b] {
                        let marked = context.contains(">>") || context == "<empty journal>\n";
                        prop_assert!(marked, "{}", context);
                        prop_assert!(text.contains(context.lines().next().unwrap()));
                    }
                }
            }
        }
    }
}
