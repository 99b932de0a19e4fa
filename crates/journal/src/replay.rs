//! Time-travel replay: re-execute a run and verify it against a
//! reference journal, record by record.
//!
//! The kernel's state includes arbitrary user endpoints (`Box<dyn
//! Endpoint>`), which cannot be serialized and restored — so "replay"
//! here is **verified deterministic re-execution**: the same seed and
//! workload re-run from the origin, with every kernel ingress compared
//! field by field with the reference journal's record. Snapshots make
//! this cheap to *check* from the middle: starting [`ReplayStart::LatestSnapshot`]
//! (or [`ReplayStart::SnapshotAtOrBefore`]), the already-snapshotted
//! prefix is decoded but only its snapshot marks are compared — a
//! mark's content-addressed state root proves the re-executed state is
//! byte-identical to the recorded one at that point — and full
//! verification covers only the tail.
//!
//! A mismatch produces a [`Divergence`] naming the exact journal seq,
//! what the journal expected, what the run produced, and a
//! flight-recorder-style context window around the divergent record.
//!
//! Recording and verifying take one path, the session's two stages (the
//! private `pipeline` module). On the event loop [`KernelJournal::note`] assigns
//! the seq and batches the record, and a snapshot hands over the bytes
//! of its changed sections ([`KernelJournal::snapshot_section`]) and
//! ends the batch with its mark ([`KernelJournal::on_snapshot`]). The
//! session's journal thread encodes each record into the writer's
//! checksummed blocks, or decodes the reference's next record and checks
//! it here; it hashes the sections and the root at the mark. The event
//! loop lands the blocks in the sink when it next sends a batch. A
//! verifying session therefore knows its divergence only after a
//! barrier: [`KernelJournal::finish`] returns it.

use crate::journal::{index, render_context, BlockSlice, JournalHeader, Walk};
use crate::pipeline::{Pipeline, THREAD_DIED};
use crate::record::{JournalError, JournalRecord, RecordKind};
use crate::sink::JournalSink;
use legion_persist::cas::ChunkId;

/// Where verification starts within the reference journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayStart {
    /// Verify every record from the beginning.
    Origin,
    /// Skip to the last snapshot mark; verify its state root and the
    /// records after it.
    LatestSnapshot,
    /// Skip to the last snapshot at or before virtual time `t` ns.
    SnapshotAtOrBefore(u64),
}

/// The first difference between a run and its reference journal.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Journal seq of the first differing record.
    pub seq: u64,
    /// What the journal recorded, rendered.
    pub expected: String,
    /// What the re-execution produced, rendered.
    pub got: String,
    /// A rendered window of journal records around the divergence.
    pub context: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "replay diverged at journal seq {}", self.seq)?;
        writeln!(f, "  expected: {}", self.expected)?;
        writeln!(f, "  got:      {}", self.got)?;
        writeln!(f, "  journal context:")?;
        for line in self.context.lines() {
            writeln!(f, "    {line}")?;
        }
        Ok(())
    }
}

/// What a finished journal session reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JournalSummary {
    /// Records written (record mode) or present in the reference
    /// (verify mode).
    pub records: u64,
    /// Snapshot marks among them.
    pub snapshots: u64,
    /// Journal size in bytes.
    pub bytes: u64,
    /// Records verified field by field against the reference (verify
    /// mode).
    pub verified: u64,
    /// Records skipped via the snapshot fast path (verify mode).
    pub skipped: u64,
}

/// Radius of the rendered context window around a divergence.
const CONTEXT_RADIUS: u64 = 8;

/// Verifies a re-execution against a reference journal, on the journal
/// thread: it decodes the reference block by block as the run goes and
/// compares each record's fields with the event the run produced.
pub(crate) struct Verifier {
    data: Vec<u8>,
    header: JournalHeader,
    blocks: Vec<BlockSlice>,
    /// The next reference record to consume.
    walk: Walk,
    /// Records in the reference.
    records: u64,
    /// First seq that gets full verification.
    verify_from: u64,
    verified: u64,
    skipped: u64,
    pub(crate) divergence: Option<Divergence>,
}

impl Verifier {
    /// Index and decode `data` once — every record is checked here, so a
    /// corrupt reference fails typed before the run starts — and resolve
    /// `start` to a seq.
    fn new(data: Vec<u8>, start: ReplayStart) -> Result<Self, JournalError> {
        let (header, blocks) = index(&data)?;
        let cutoff = match start {
            ReplayStart::Origin => None,
            ReplayStart::LatestSnapshot => Some(u64::MAX),
            ReplayStart::SnapshotAtOrBefore(t) => Some(t),
        };
        let mut walk = Walk::new();
        let mut verify_from = 0;
        while let Some(rec) = walk.next(&data, &blocks)? {
            if rec.kind == RecordKind::Snapshot && cutoff.is_some_and(|t| rec.at <= t) {
                verify_from = rec.seq;
            }
        }
        Ok(Verifier {
            records: walk.seq(),
            walk: Walk::new(),
            data,
            header,
            blocks,
            verify_from,
            verified: 0,
            skipped: 0,
            divergence: None,
        })
    }

    fn diverge(&mut self, seq: u64, expected: String, got: String) {
        if self.divergence.is_some() {
            return;
        }
        let center = seq.min(self.records.saturating_sub(1));
        let context = render_context(&self.data, &self.blocks, center, CONTEXT_RADIUS);
        self.divergence = Some(Divergence {
            seq,
            expected,
            got,
            context,
        });
    }

    /// The next reference record, rendered for a divergence.
    fn next_rendered(&mut self) -> String {
        match self.walk.next(&self.data, &self.blocks) {
            Ok(Some(rec)) => rec.to_record().to_string(),
            Ok(None) => "<end of journal>".to_string(),
            Err(e) => format!("<undecodable record: {e}>"),
        }
    }

    /// Consume the next reference record, comparing it with the event the
    /// re-execution just produced.
    ///
    /// Inside the skipped prefix only a snapshot mark is compared — its
    /// root proves the re-executed state is byte-identical to the
    /// recorded state at that point. Only a divergence allocates.
    pub(crate) fn check(
        &mut self,
        at: u64,
        kind: RecordKind,
        endpoint: u64,
        a: u64,
        b: u64,
        label: &[u8],
    ) {
        let seq = self.walk.seq();
        if self.divergence.is_some() {
            return;
        }
        let got = || {
            JournalRecord {
                seq,
                at,
                kind,
                endpoint,
                a,
                b,
                label: String::from_utf8_lossy(label).into_owned(),
            }
            .to_string()
        };
        let expected = match self.walk.next(&self.data, &self.blocks) {
            Ok(Some(rec)) => {
                let same = if seq < self.verify_from {
                    self.skipped += 1;
                    kind != RecordKind::Snapshot || (rec.kind == kind && rec.label == label)
                } else {
                    let same = (rec.at, rec.kind, rec.endpoint, rec.a, rec.b, rec.label)
                        == (at, kind, endpoint, a, b, label);
                    self.verified += u64::from(same);
                    same
                };
                if same {
                    return;
                }
                rec.to_record().to_string()
            }
            Ok(None) => "<end of journal: run produced more events than recorded>".to_string(),
            Err(e) => format!("<undecodable record: {e}>"),
        };
        self.diverge(seq, expected, got());
    }

    /// Quiescence check: the whole reference journal must have been
    /// consumed. Returns the summary, its marks left to the caller (and
    /// sets a divergence if the run stopped short).
    pub(crate) fn finish(&mut self) -> JournalSummary {
        let produced = self.walk.seq();
        if produced < self.records && self.divergence.is_none() {
            let expected = self.next_rendered();
            self.diverge(
                produced,
                expected,
                format!(
                    "<run quiesced after {produced} events; journal has {}>",
                    self.records
                ),
            );
        }
        JournalSummary {
            records: self.records,
            bytes: self.data.len() as u64,
            verified: self.verified,
            skipped: self.skipped,
            ..JournalSummary::default()
        }
    }
}

/// The kernel-facing journal: off, recording, or verifying.
///
/// Off keeps the hot path at one tag check and zero allocations; the
/// kernel calls [`KernelJournal::note`] unconditionally. On, the session
/// is a two-stage pipeline: the event loop batches, and the session's
/// journal thread encodes, hashes, frames and checks. A snapshot is its
/// mark: the session keeps the cadence, where the last mark sits and
/// each section's id, never a section's bytes.
#[derive(Default)]
pub struct KernelJournal {
    pipeline: Option<Pipeline>,
    /// Events between snapshot marks (0 = never).
    snap_every: u64,
    /// Event count at the last mark (dedups the due-check).
    last_snap_events: u64,
    /// Marks so far — the next mark's ordinal.
    marks: u64,
    /// Journal seq of the last mark.
    last_mark_seq: u64,
    /// Seq the next record gets.
    next_seq: u64,
}

impl KernelJournal {
    /// Start recording to `sink`, snapshotting every `snap_every` events
    /// (0 = never).
    pub fn record(sink: Box<dyn JournalSink>, snap_every: u64) -> Self {
        KernelJournal {
            pipeline: Some(Pipeline::record(sink, snap_every)),
            snap_every,
            ..Self::default()
        }
    }

    /// Start verifying against reference journal bytes. The snapshot
    /// cadence is read from the journal header, so the verifying run
    /// snapshots at exactly the recorded points.
    pub fn verify(data: Vec<u8>, start: ReplayStart) -> Result<Self, JournalError> {
        let verifier = Verifier::new(data, start)?;
        Ok(KernelJournal {
            snap_every: verifier.header.snap_every,
            pipeline: Some(Pipeline::verify(verifier)),
            ..Self::default()
        })
    }

    /// End this session — its tail lands, as when it is dropped — and
    /// start `next` in its place. `next` inherits the section names and
    /// ids: an id is a content hash, so a section that has not changed
    /// since keeps it in any session.
    pub fn restart(&mut self, mut next: KernelJournal) {
        if let (Some(old), Some(new)) = (self.pipeline.as_mut(), next.pipeline.as_mut()) {
            std::mem::swap(old.sections(), new.sections());
        }
        *self = next;
    }

    /// Is the journal on (recording or verifying)?
    #[inline]
    pub fn is_on(&self) -> bool {
        self.pipeline.is_some()
    }

    /// Journal one event; returns its seq (0 when off).
    #[inline]
    pub fn note(
        &mut self,
        at: u64,
        kind: RecordKind,
        endpoint: u64,
        a: u64,
        b: u64,
        label: &str,
    ) -> u64 {
        let Some(pipeline) = &mut self.pipeline else {
            return 0;
        };
        pipeline.push(at, kind, endpoint, a, b, label);
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Should a snapshot be taken now, given the kernel has processed
    /// `events` events?
    #[inline]
    pub fn snapshot_due(&self, events: u64) -> bool {
        let every = self.snap_every;
        every != 0 && events > 0 && events.is_multiple_of(every) && events != self.last_snap_events
    }

    /// Hand over the bytes of section `index`, which changed since the
    /// last mark (or is new), for the mark about to be taken. The first
    /// call of a snapshot waits for the journal thread to finish the
    /// batch it has.
    pub fn snapshot_section(&mut self, index: usize, bytes: &[u8]) {
        if let Some(pipeline) = &mut self.pipeline {
            pipeline.section(index, bytes);
        }
    }

    /// Take (recording) or check (verifying) the snapshot mark at virtual
    /// time `at`, after `events` kernel events, over `count` sections:
    /// the ones handed over since the last mark with their new bytes,
    /// the rest with the ids they had. `name` names each section the
    /// session has not seen. The mark ends the batch; the journal thread
    /// hashes and computes the root, and journals the mark like any
    /// other record.
    pub fn on_snapshot(
        &mut self,
        at: u64,
        events: u64,
        count: usize,
        name: impl FnMut(usize) -> String,
    ) {
        let Some(pipeline) = &mut self.pipeline else {
            return;
        };
        pipeline.mark(at, count, self.marks, name);
        self.last_mark_seq = self.next_seq;
        self.next_seq += 1;
        self.marks += 1;
        self.last_snap_events = events;
    }

    /// The id section `index` had at the last mark, once the journal
    /// thread has computed it (this waits for it).
    pub fn section_id(&mut self, index: usize) -> Option<ChunkId> {
        let work = self.pipeline.as_mut()?.work().expect(THREAD_DIED);
        work.sections.id(index)
    }

    /// Seq the next record will get (how many events journaled so far).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// `(ordinal, journal seq)` of the most recent snapshot mark, for
    /// post-mortem dumps.
    pub fn last_snapshot(&self) -> Option<(u64, u64)> {
        let ordinal = self.marks.checked_sub(1)?;
        Some((ordinal, self.last_mark_seq))
    }

    /// A barrier: wait until the journal thread has framed or checked
    /// every record noted so far, then land the tail and flush the sink
    /// (record) or require full consumption (verify). The session stays
    /// usable. Returns the summary and, verifying, the first divergence.
    pub fn finish(&mut self) -> Result<(JournalSummary, Option<Divergence>), JournalError> {
        match &mut self.pipeline {
            None => Ok((JournalSummary::default(), None)),
            Some(pipeline) => pipeline.finish(self.next_seq, self.marks),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemSink;

    /// Drive a toy "kernel": a fixed script of events with snapshots on
    /// the facade's cadence, state = running digest of events seen.
    fn drive(journal: &mut KernelJournal, script: &[(u64, RecordKind, u64, &str)]) {
        let mut state: u64 = 0;
        for (i, (at, kind, a, label)) in script.iter().enumerate() {
            let events = i as u64;
            if journal.snapshot_due(events) {
                journal.snapshot_section(0, &state.to_le_bytes());
                journal.snapshot_section(1, &events.to_le_bytes());
                let names = ["core", "count"];
                journal.on_snapshot(*at, events, 2, |i| names[i].to_owned());
            }
            journal.note(*at, *kind, 1, *a, 0, label);
            state = state.wrapping_mul(31).wrapping_add(*a);
        }
    }

    fn script() -> Vec<(u64, RecordKind, u64, &'static str)> {
        (0..10u64)
            .map(|i| {
                (
                    100 * (i + 1),
                    if i % 3 == 0 {
                        RecordKind::TimerFire
                    } else {
                        RecordKind::Deliver
                    },
                    i * 7,
                    if i % 2 == 0 { "Ping" } else { "Pong" },
                )
            })
            .collect()
    }

    fn record_script() -> Vec<u8> {
        let sink = MemSink::new();
        let mut journal = KernelJournal::record(Box::new(sink.clone()), 4);
        drive(&mut journal, &script());
        let (summary, div) = journal.finish().unwrap();
        assert!(div.is_none());
        assert_eq!(summary.snapshots, 2, "events 4 and 8 snapshot");
        assert_eq!(summary.records, 12, "10 events + 2 snapshot marks");
        sink.contents()
    }

    /// Recording and verifying take the same path to a mark, so both
    /// sessions know where the last one sits: events 0..=3, the mark at
    /// seq 4, events 4..=7, the mark at seq 9.
    #[test]
    fn both_modes_know_where_the_last_mark_sits() {
        let data = record_script();
        let mut recording = KernelJournal::record(Box::new(MemSink::new()), 4);
        let mut verifying = KernelJournal::verify(data, ReplayStart::LatestSnapshot).unwrap();
        for journal in [&mut recording, &mut verifying] {
            assert_eq!(journal.last_snapshot(), None);
            drive(journal, &script());
            assert_eq!(journal.last_snapshot(), Some((1, 9)));
            assert_eq!(journal.next_seq(), 12);
            let (summary, div) = journal.finish().unwrap();
            assert!(div.is_none(), "{div:?}");
            assert_eq!((summary.records, summary.snapshots), (12, 2));
        }
    }

    /// The kernel's event count restarts from zero when its metrics are
    /// reset; a count of zero is never due, whatever the last mark's was.
    #[test]
    fn a_restarted_event_count_is_not_due_at_zero() {
        let mut journal = KernelJournal::record(Box::new(MemSink::new()), 4);
        assert!(journal.snapshot_due(4));
        journal.snapshot_section(0, b"x");
        journal.on_snapshot(0, 4, 1, |_| "core".to_owned());
        assert!(!journal.snapshot_due(4), "one mark per count");
        assert!(!journal.snapshot_due(0));
        assert!(journal.snapshot_due(8));
    }

    #[test]
    fn identical_rerun_verifies_from_origin() {
        let data = record_script();
        let mut journal = KernelJournal::verify(data, ReplayStart::Origin).unwrap();
        drive(&mut journal, &script());
        let (summary, div) = journal.finish().unwrap();
        assert!(div.is_none(), "{div:?}");
        assert_eq!(summary.verified, 12);
        assert_eq!(summary.skipped, 0);
    }

    #[test]
    fn identical_rerun_verifies_from_latest_snapshot() {
        let data = record_script();
        let mut journal = KernelJournal::verify(data, ReplayStart::LatestSnapshot).unwrap();
        drive(&mut journal, &script());
        let (summary, div) = journal.finish().unwrap();
        assert!(div.is_none(), "{div:?}");
        assert!(summary.skipped > 0, "snapshot fast path skipped a prefix");
        assert!(summary.verified < 12);
        assert_eq!(summary.verified + summary.skipped, 12);
    }

    #[test]
    fn divergent_event_is_pinpointed() {
        let data = record_script();
        let mut bad = script();
        bad[6].3 = "Evil"; // plant a divergence at the 7th event
        let mut journal = KernelJournal::verify(data, ReplayStart::Origin).unwrap();
        drive(&mut journal, &bad);
        let (_, div) = journal.finish().unwrap();
        let div = div.expect("must diverge");
        // Events 0..6 plus the snapshot mark at event 4 → journal seq 7.
        assert_eq!(div.seq, 7);
        assert!(div.expected.contains("Ping"));
        assert!(div.got.contains("Evil"));
        assert!(div.context.contains(">>"));
    }

    #[test]
    fn state_divergence_in_skipped_prefix_caught_at_snapshot_root() {
        let data = record_script();
        let mut bad = script();
        bad[1].2 = 999; // different event → different digested state
        let mut journal = KernelJournal::verify(data, ReplayStart::LatestSnapshot).unwrap();
        drive(&mut journal, &bad);
        let (_, div) = journal.finish().unwrap();
        let div = div.expect("root check must catch the divergence");
        assert_eq!(div.seq, 4, "first snapshot mark (after events 0..=3)");
        assert!(div.expected.contains("snapshot"));
    }

    #[test]
    fn short_run_is_a_divergence() {
        let data = record_script();
        let mut journal = KernelJournal::verify(data, ReplayStart::Origin).unwrap();
        let half: Vec<_> = script().into_iter().take(5).collect();
        drive(&mut journal, &half);
        let (_, div) = journal.finish().unwrap();
        let div = div.expect("missing tail must diverge");
        assert!(div.got.contains("quiesced"));
    }

    #[test]
    fn long_run_is_a_divergence() {
        let data = record_script();
        let mut journal = KernelJournal::verify(data, ReplayStart::Origin).unwrap();
        let mut long = script();
        long.push((2000, RecordKind::Deliver, 1, "Extra"));
        drive(&mut journal, &long);
        let (_, div) = journal.finish().unwrap();
        let div = div.expect("extra event must diverge");
        assert!(div.expected.contains("end of journal"));
        assert!(div.got.contains("Extra"));
    }

    #[test]
    fn a_failed_recording_fails_every_time_it_is_finished() {
        struct FailSink;
        impl JournalSink for FailSink {
            fn write(&mut self, _: &[u8]) -> std::io::Result<()> {
                Err(std::io::Error::other("disk gone"))
            }
        }
        let mut journal = KernelJournal::record(Box::new(FailSink), 4);
        drive(&mut journal, &script());
        for _ in 0..2 {
            assert!(matches!(journal.finish(), Err(JournalError::Io(_))));
        }
    }

    /// A journal thread that panics — here on a section past the count
    /// its mark names — surfaces as a panic on the event loop, not a
    /// wait that never ends, and the session still drops.
    #[test]
    fn a_journal_thread_that_panics_is_not_waited_for() {
        let mut journal = KernelJournal::record(Box::new(MemSink::new()), 4);
        journal.snapshot_section(5, b"x");
        journal.on_snapshot(0, 4, 1, |_| "core".to_owned());
        let finished = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| journal.finish()));
        let message = finished
            .expect_err("the thread died")
            .downcast::<String>()
            .unwrap();
        assert!(message.contains(THREAD_DIED), "{message}");
        drop(journal);
    }

    #[test]
    fn off_is_inert() {
        let mut journal = KernelJournal::default();
        assert!(!journal.is_on());
        assert_eq!(journal.note(1, RecordKind::Deliver, 1, 2, 3, "x"), 0);
        assert!(!journal.snapshot_due(100));
        let (summary, div) = journal.finish().unwrap();
        assert_eq!(summary, JournalSummary::default());
        assert!(div.is_none());
    }

    #[test]
    fn time_travel_start_picks_earlier_snapshot() {
        let data = record_script();
        // Snapshot marks land at t=500 (events 0..=3) and t=900.
        let mut journal =
            KernelJournal::verify(data, ReplayStart::SnapshotAtOrBefore(600)).unwrap();
        drive(&mut journal, &script());
        let (summary, div) = journal.finish().unwrap();
        assert!(div.is_none(), "{div:?}");
        assert_eq!(summary.skipped, 4, "events before the t=500 snapshot");
    }
}
