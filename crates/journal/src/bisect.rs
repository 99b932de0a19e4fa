//! Divergence bisection: find the first record where two journals
//! differ.
//!
//! Both journals are indexed (which checks every block's framing and
//! checksum), then their records are decoded and compared field by
//! field, in order, to the end of both — so a record that fails to
//! decode in either is a typed error too. The first difference, or the
//! end of the shorter journal, is reported with a rendered
//! flight-recorder-style context window from each journal.

use crate::journal::{index, render_context, BlockSlice, Walk};
use crate::record::JournalError;

/// Radius of the rendered context windows.
const CONTEXT_RADIUS: u64 = 8;

/// The bisector's verdict on two journals.
#[derive(Debug, Clone)]
pub struct BisectReport {
    /// Records in journal A.
    pub total_a: u64,
    /// Records in journal B.
    pub total_b: u64,
    /// Seq of the first differing record; `None` when the journals are
    /// identical.
    pub diverged_seq: Option<u64>,
    /// Rendered context around the divergence in journal A.
    pub context_a: String,
    /// Rendered context around the divergence in journal B.
    pub context_b: String,
}

impl std::fmt::Display for BisectReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.diverged_seq {
            None => writeln!(f, "journals identical ({} records)", self.total_a),
            Some(seq) => {
                writeln!(
                    f,
                    "journals diverge at seq {seq} ({} vs {} records)",
                    self.total_a, self.total_b
                )?;
                writeln!(f, "journal A context:")?;
                for line in self.context_a.lines() {
                    writeln!(f, "  {line}")?;
                }
                writeln!(f, "journal B context:")?;
                for line in self.context_b.lines() {
                    writeln!(f, "  {line}")?;
                }
                Ok(())
            }
        }
    }
}

/// Find the first record where journals `a` and `b` differ.
pub fn bisect(a: &[u8], b: &[u8]) -> Result<BisectReport, JournalError> {
    let (_, blocks_a) = index(a)?;
    let (_, blocks_b) = index(b)?;
    let (mut walk_a, mut walk_b) = (Walk::new(), Walk::new());
    let mut diverged = None;
    loop {
        let seq = walk_a.seq().max(walk_b.seq());
        let (ra, rb) = (walk_a.next(a, &blocks_a)?, walk_b.next(b, &blocks_b)?);
        if ra.is_none() && rb.is_none() {
            break;
        }
        if ra != rb && diverged.is_none() {
            diverged = Some(seq);
        }
    }
    let (total_a, total_b) = (walk_a.seq(), walk_b.seq());
    let (context_a, context_b) = match diverged {
        None => (String::new(), String::new()),
        Some(seq) => (
            context_or_end(a, &blocks_a, total_a, seq),
            context_or_end(b, &blocks_b, total_b, seq),
        ),
    };
    Ok(BisectReport {
        total_a,
        total_b,
        diverged_seq: diverged,
        context_a,
        context_b,
    })
}

fn context_or_end(data: &[u8], blocks: &[BlockSlice], total: u64, seq: u64) -> String {
    if total == 0 {
        return "<empty journal>\n".to_string();
    }
    if seq >= total {
        let mut out = render_context(data, blocks, total - 1, CONTEXT_RADIUS);
        out.push_str(">> <end of journal>\n");
        return out;
    }
    render_context(data, blocks, seq, CONTEXT_RADIUS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::JournalWriter;
    use crate::record::RecordKind;
    use crate::sink::MemSink;

    fn journal_of(n: u64, mutate_at: Option<u64>) -> Vec<u8> {
        let sink = MemSink::new();
        let mut w = JournalWriter::new(Box::new(sink.clone()), 0);
        for i in 0..n {
            let label = if Some(i) == mutate_at {
                "MUTANT"
            } else {
                "Ping"
            };
            w.append(i * 10, RecordKind::Deliver, i % 5, i, 0, label);
        }
        w.finish().unwrap();
        sink.contents()
    }

    #[test]
    fn identical_journals_report_no_divergence() {
        let a = journal_of(100, None);
        let r = bisect(&a, &a.clone()).unwrap();
        assert_eq!(r.diverged_seq, None);
        assert_eq!(r.total_a, 100);
    }

    #[test]
    fn planted_divergence_found_exactly() {
        for plant in [0u64, 1, 17, 63, 99] {
            let a = journal_of(100, None);
            let b = journal_of(100, Some(plant));
            let r = bisect(&a, &b).unwrap();
            assert_eq!(r.diverged_seq, Some(plant), "plant at {plant}");
            assert!(r.context_a.contains(">>"));
            assert!(r.context_b.contains("MUTANT"));
        }
    }

    #[test]
    fn length_mismatch_diverges_at_common_end() {
        let a = journal_of(50, None);
        let b = journal_of(40, None);
        let r = bisect(&a, &b).unwrap();
        assert_eq!(r.diverged_seq, Some(40));
        assert!(r.context_b.contains("<end of journal>"));
        assert!(r.to_string().contains("diverge at seq 40"));
    }

    #[test]
    fn corrupt_input_is_typed() {
        let a = journal_of(5, None);
        assert!(matches!(
            bisect(&a, b"garbage"),
            Err(JournalError::BadMagic)
        ));
        let mut cut = a.clone();
        cut.truncate(a.len() - 2);
        assert!(matches!(
            bisect(&a, &cut),
            Err(JournalError::TruncatedRecord { .. })
        ));
    }
}
