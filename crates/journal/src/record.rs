//! The journal wire format: compact records in checksummed blocks, one
//! record per kernel ingress event.
//!
//! A journal is `header · block*` (format version 3):
//!
//! ```text
//! header : "LJNL" | version u8 | snap_every varint
//! block  : len u32-le | crc32(payload) u32-le | payload
//! payload: first_seq varint | record*
//! record : kind u8 | zigzag(Δat) varint | endpoint varint | a varint
//!        | b varint | label_ref varint [| label_len varint | label utf-8]
//! ```
//!
//! A block is the unit of integrity and of decoding: `len` counts the
//! payload's bytes and the CRC-32 covers them, the writer cuts a block
//! once it holds 64 KiB ([`crate::journal::BLOCK`]) and at every
//! `finish`, and a cut at a block boundary leaves a shorter, valid
//! journal. Inside a block everything is relative to the block:
//!
//! * `seq` is implicit: the block's records are `first_seq`,
//!   `first_seq + 1`, …, and each block starts where the last ended;
//! * `Δat` is the wrapping difference from the previous record's `at`
//!   (from 0 for the block's first record), zigzag-encoded, so any
//!   `u64` round-trips whichever way time moves;
//! * `label_ref` 0 means the label's bytes follow inline, and the label
//!   becomes the next entry of the block's label table while it has
//!   fewer than [`LABELS`]; `label_ref` k > 0 is entry k − 1.
//!
//! Labels are stored as **strings**, never interner ids — symbol ids
//! depend on interning order, which is not stable across processes.

use legion_persist::codec::CodecError;
use std::fmt;

/// Journal magic: "Legion JourNaL".
pub const MAGIC: [u8; 4] = *b"LJNL";

/// Current format version. Version 3 replaced the per-record frame
/// (length, CRC and absolute fields on every record) with checksummed
/// blocks of delta-coded records; version 2 changed what a snapshot
/// mark's root covers. Any other version is refused up front.
pub const VERSION: u8 = 3;

/// Sanity cap on a block's payload.
pub const MAX_BLOCK: usize = 1 << 20;

/// Entries a block's label table holds. A label first met once the
/// table is full is written inline at every use.
pub const LABELS: usize = 256;

/// Everything that can go wrong reading or writing a journal. Corrupt
/// input must surface one of these — never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// The input does not start with [`MAGIC`].
    BadMagic,
    /// Unknown format version.
    BadVersion(u8),
    /// The input ends inside the header.
    TruncatedHeader,
    /// The input ends inside a block's frame or payload.
    TruncatedRecord {
        /// Byte offset of the block that was cut short.
        offset: usize,
    },
    /// A block's payload does not match its stored CRC-32.
    BadChecksum {
        /// Byte offset of the block.
        offset: usize,
        /// CRC stored in the frame.
        stored: u32,
        /// CRC computed over the payload.
        computed: u32,
    },
    /// A block's length exceeds [`MAX_BLOCK`] — almost certainly a
    /// corrupted length field.
    RecordTooLarge {
        /// Byte offset of the block.
        offset: usize,
        /// The (implausible) claimed payload length.
        len: u64,
    },
    /// A record (or a block's `first_seq`) failed to decode.
    BadBody {
        /// Byte offset of the record.
        offset: usize,
        /// The codec-level failure.
        source: CodecError,
    },
    /// A record carries an unknown kind tag.
    BadKind {
        /// Byte offset of the record.
        offset: usize,
        /// The unknown tag.
        tag: u8,
    },
    /// A record refers to a label its block's table does not hold.
    BadLabel {
        /// Byte offset of the record.
        offset: usize,
        /// The label reference.
        label_ref: u64,
    },
    /// A block does not start where the one before it ended.
    BadSeq {
        /// Byte offset of the block.
        offset: usize,
        /// The seq the journal had reached.
        expected: u64,
        /// The block's `first_seq`.
        found: u64,
    },
    /// An I/O failure in a file-backed sink, rendered.
    Io(String),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::BadMagic => write!(f, "not a journal (bad magic)"),
            JournalError::BadVersion(v) => write!(f, "unsupported journal version {v}"),
            JournalError::TruncatedHeader => write!(f, "journal truncated inside header"),
            JournalError::TruncatedRecord { offset } => {
                write!(f, "journal truncated inside block at offset {offset}")
            }
            JournalError::BadChecksum {
                offset,
                stored,
                computed,
            } => write!(
                f,
                "block at offset {offset} fails checksum (stored {stored:#010x}, computed {computed:#010x})"
            ),
            JournalError::RecordTooLarge { offset, len } => {
                write!(f, "block at offset {offset} claims implausible length {len}")
            }
            JournalError::BadBody { offset, source } => {
                write!(f, "record at offset {offset} undecodable: {source}")
            }
            JournalError::BadKind { offset, tag } => {
                write!(f, "record at offset {offset} has unknown kind tag {tag}")
            }
            JournalError::BadLabel { offset, label_ref } => {
                write!(f, "record at offset {offset} refers to missing label {label_ref}")
            }
            JournalError::BadSeq {
                offset,
                expected,
                found,
            } => write!(
                f,
                "block at offset {offset} starts at seq {found}, expected {expected}"
            ),
            JournalError::Io(e) => write!(f, "journal sink I/O error: {e}"),
        }
    }
}

impl std::error::Error for JournalError {}

/// What a journal record describes: every kernel ingress or verdict that
/// can influence the deterministic run. This is the kernel's one
/// event-kind vocabulary: the flight recorder and the span stream name
/// the events they see by the same values, and [`KINDS`] says how each
/// is spelled and who sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum RecordKind {
    /// An endpoint attached to the kernel.
    Attach = 0,
    /// An endpoint detached (or was killed).
    Detach = 1,
    /// An endpoint's `on_start` ran.
    Start = 2,
    /// A message was delivered to an endpoint.
    Deliver = 3,
    /// A timer fired at an endpoint.
    TimerFire = 4,
    /// A message was injected from outside the simulation.
    Inject = 5,
    /// The fault plan dropped a message.
    Drop = 6,
    /// The fault plan duplicated a message.
    Duplicate = 7,
    /// The fault plan delayed a message.
    Delay = 8,
    /// The kernel suppressed the network's copy of a duplicated message.
    Dedup = 9,
    /// A message had no live destination.
    DeadLetter = 10,
    /// The topology refused a send.
    Refuse = 11,
    /// A tracked call timed out.
    Timeout = 12,
    /// The HA layer reached a verdict (suspect/dead/recovered/...).
    HaVerdict = 13,
    /// A snapshot mark: `a` = section count, `b` = snapshot ordinal,
    /// label = content-addressed state root (hex).
    Snapshot = 14,
    /// Anything else worth journaling.
    Note = 15,
    /// Admission control shed a call at an overloaded endpoint.
    /// (Appended after Note: journals written before this tag existed
    /// never contain it, and `from_tag` rejects it when replaying *into*
    /// an older build — append-compatible in the forward direction.)
    Shed = 16,
}

/// Which record field a flight-recorder event carries as its `detail`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightDetail {
    /// `a`: the call id (or timer token, or silence in ns).
    A,
    /// `b`: the extra delay a fault verdict imposed.
    B,
}

/// Whether the span stream records a kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Spans {
    /// Never.
    Never,
    /// Only for an event inside an active trace (hops and timers belong
    /// to a trace or to nothing).
    InTrace,
    /// Whenever the sink is on, traced or not: a crash-eaten delivery
    /// must show without having traced the whole flow.
    Always,
}

/// One row of [`KINDS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KindRow {
    /// The kind; its index in [`KINDS`] is its wire tag.
    pub kind: RecordKind,
    /// The label of a rendered journal record (`dead-letter`).
    pub label: &'static str,
    /// The watchers' text: the flight dump line, the flight JSON `kind`
    /// and the span event's `Display` (`dead_letter`).
    pub text: &'static str,
    /// The span event's `kind` in trace JSON (`DeadLetter`).
    pub trace_name: &'static str,
    /// `Some` if the flight recorder sees the kind, naming the field its
    /// `detail` carries.
    pub flight: Option<FlightDetail>,
    /// Whether the span stream sees the kind.
    pub spans: Spans,
}

/// The event-kind table, in wire-tag order: every spelling of every
/// kernel event kind, and which watchers see it. The journal sees every
/// kind.
#[rustfmt::skip]
pub const KINDS: [KindRow; 17] = {
    use FlightDetail::{A, B};
    use RecordKind::*;
    use Spans::{Always, InTrace, Never};
    const fn row(
        kind: RecordKind,
        label: &'static str,
        text: &'static str,
        trace_name: &'static str,
        flight: Option<FlightDetail>,
        spans: Spans,
    ) -> KindRow {
        KindRow { kind, label, text, trace_name, flight, spans }
    }
    [
        //  kind        journal        watchers       trace JSON    flight   spans
        row(Attach,     "attach",      "attach",      "Attach",     None,    Never),
        row(Detach,     "detach",      "detach",      "Detach",     None,    Never),
        row(Start,      "start",       "start",       "Start",      None,    Never),
        row(Deliver,    "deliver",     "deliver",     "Deliver",    Some(A), InTrace),
        row(TimerFire,  "timer-fire",  "timer",       "Timer",      None,    InTrace),
        row(Inject,     "inject",      "inject",      "Inject",     None,    Never),
        row(Drop,       "drop",        "drop",        "Drop",       Some(A), Always),
        row(Duplicate,  "duplicate",   "duplicate",   "Duplicate",  Some(B), Always),
        row(Delay,      "delay",       "delay",       "Delay",      Some(B), Always),
        row(Dedup,      "dedup",       "dedup",       "Dedup",      Some(A), Always),
        row(DeadLetter, "dead-letter", "dead_letter", "DeadLetter", Some(A), Always),
        row(Refuse,     "refuse",      "refuse",      "Refuse",     Some(A), Always),
        row(Timeout,    "timeout",     "timeout",     "Timeout",    Some(A), Never),
        row(HaVerdict,  "ha-verdict",  "ha_verdict",  "HaVerdict",  Some(A), Never),
        row(Snapshot,   "snapshot",    "snapshot",    "Snapshot",   None,    Never),
        row(Note,       "note",        "note",        "Note",       Some(A), Never),
        row(Shed,       "shed",        "shed",        "Shed",       Some(A), Never),
    ]
};

impl RecordKind {
    /// The wire tag.
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// Decode a wire tag.
    pub fn from_tag(tag: u8) -> Option<Self> {
        KINDS.get(tag as usize).map(|row| row.kind)
    }

    /// The kind's row of [`KINDS`].
    #[inline]
    pub const fn row(self) -> &'static KindRow {
        &KINDS[self as usize]
    }
}

/// One decoded journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// Position in the journal (0-based, dense).
    pub seq: u64,
    /// Virtual time of the event, in nanoseconds.
    pub at: u64,
    /// What happened.
    pub kind: RecordKind,
    /// The kernel endpoint id involved (0 when none).
    pub endpoint: u64,
    /// Kind-specific detail (e.g. message id, timer token).
    pub a: u64,
    /// Second kind-specific detail.
    pub b: u64,
    /// Human-readable tag — method name, verdict name, or state root.
    pub label: String,
}

impl fmt::Display for JournalRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seq {:>6} [{:>12}ns] {:<11} ep{:<4} {} ({},{})",
            self.seq,
            self.at,
            self.kind.row().label,
            self.endpoint,
            self.label,
            self.a,
            self.b
        )
    }
}

/// One decoded record, its label borrowed from the journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RecordRef<'a> {
    pub(crate) seq: u64,
    pub(crate) at: u64,
    pub(crate) kind: RecordKind,
    pub(crate) endpoint: u64,
    pub(crate) a: u64,
    pub(crate) b: u64,
    pub(crate) label: &'a [u8],
}

impl RecordRef<'_> {
    /// The record with its label owned. The decoder checked the label
    /// is UTF-8 where its bytes first appeared, so nothing is replaced.
    pub(crate) fn to_record(self) -> JournalRecord {
        JournalRecord {
            seq: self.seq,
            at: self.at,
            kind: self.kind,
            endpoint: self.endpoint,
            a: self.a,
            b: self.b,
            label: String::from_utf8_lossy(self.label).into_owned(),
        }
    }
}

/// Append a varint to `buf` (no allocation beyond `buf` growth).
pub(crate) fn push_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            break;
        }
        buf.push(byte | 0x80);
    }
}

/// Read the varint at `*pos` and step past it.
pub(crate) fn read_varint(data: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut out = 0u64;
    for shift in (0..64).step_by(7) {
        let byte = *data.get(*pos).ok_or(CodecError::Truncated)?;
        *pos += 1;
        out |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(out);
        }
    }
    Err(CodecError::BadVarint)
}

/// `at − previous`, wrapping, as a zigzag varint value: small either way.
fn zigzag(at: u64, previous: u64) -> u64 {
    let d = at.wrapping_sub(previous) as i64;
    ((d << 1) ^ (d >> 63)) as u64
}

/// The inverse of [`zigzag`].
fn unzigzag(previous: u64, z: u64) -> u64 {
    let d = (z >> 1) as i64 ^ -((z & 1) as i64);
    previous.wrapping_add(d as u64)
}

/// What encoding one block needs: the Δ base and the label table. An
/// entry names label bytes the block already holds inline, by their
/// offset from the block's start, so the table copies nothing and needs
/// no allocation. A label is looked up by scanning the table in entry
/// order: a kernel's few frequent labels enter a block early, so the
/// scan is short.
pub(crate) struct Encoder {
    prev_at: u64,
    /// `(offset from the block's start, len)` of each entry's bytes.
    entries: [(u32, u32); LABELS],
    len: usize,
}

impl Encoder {
    pub(crate) fn new() -> Self {
        Encoder {
            prev_at: 0,
            entries: [(0, 0); LABELS],
            len: 0,
        }
    }

    /// A block starts: Δ from 0, no labels.
    pub(crate) fn reset(&mut self) {
        self.prev_at = 0;
        self.len = 0;
    }

    /// Append one record to `buf`, whose open block starts at `block`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn encode(
        &mut self,
        buf: &mut Vec<u8>,
        block: usize,
        at: u64,
        kind: RecordKind,
        endpoint: u64,
        a: u64,
        b: u64,
        label: &[u8],
    ) {
        buf.push(kind.tag());
        push_varint(buf, zigzag(at, self.prev_at));
        self.prev_at = at;
        push_varint(buf, endpoint);
        push_varint(buf, a);
        push_varint(buf, b);
        for (entry, &(start, len)) in self.entries[..self.len].iter().enumerate() {
            let start = block + start as usize;
            if buf[start..start + len as usize] == *label {
                push_varint(buf, entry as u64 + 1);
                return;
            }
        }
        push_varint(buf, 0);
        push_varint(buf, label.len() as u64);
        if self.len < LABELS {
            self.entries[self.len] = ((buf.len() - block) as u32, label.len() as u32);
            self.len += 1;
        }
        buf.extend_from_slice(label);
    }
}

/// What decoding one block needs: the Δ base and the label table, each
/// entry the span of its bytes in the journal.
pub(crate) struct Decoder {
    prev_at: u64,
    entries: [(usize, usize); LABELS],
    len: usize,
}

impl Decoder {
    pub(crate) fn new() -> Self {
        Decoder {
            prev_at: 0,
            entries: [(0, 0); LABELS],
            len: 0,
        }
    }

    /// A block starts: Δ from 0, no labels.
    pub(crate) fn reset(&mut self) {
        self.prev_at = 0;
        self.len = 0;
    }

    /// Decode the record at `*pos` as record `seq` and step past it.
    /// `data` ends where the record's block does.
    pub(crate) fn decode<'a>(
        &mut self,
        data: &'a [u8],
        pos: &mut usize,
        seq: u64,
    ) -> Result<RecordRef<'a>, JournalError> {
        let offset = *pos;
        let bad = |source| JournalError::BadBody { offset, source };
        let tag = *data.get(offset).ok_or(bad(CodecError::Truncated))?;
        *pos += 1;
        let kind = RecordKind::from_tag(tag).ok_or(JournalError::BadKind { offset, tag })?;
        let mut varint = || read_varint(data, pos).map_err(bad);
        let (delta, endpoint, a, b, label_ref) =
            (varint()?, varint()?, varint()?, varint()?, varint()?);
        let label = if label_ref == 0 {
            let len = read_varint(data, pos).map_err(bad)?;
            if len > (data.len() - *pos) as u64 {
                return Err(bad(CodecError::Truncated));
            }
            let span = (*pos, *pos + len as usize);
            *pos = span.1;
            let bytes = &data[span.0..span.1];
            std::str::from_utf8(bytes).map_err(|_| bad(CodecError::BadUtf8))?;
            if self.len < LABELS {
                self.entries[self.len] = span;
                self.len += 1;
            }
            bytes
        } else {
            let entry = usize::try_from(label_ref - 1).ok();
            let span = entry.and_then(|e| self.entries[..self.len].get(e));
            let &(start, end) = span.ok_or(JournalError::BadLabel { offset, label_ref })?;
            &data[start..end]
        };
        let at = unzigzag(self.prev_at, delta);
        self.prev_at = at;
        Ok(RecordRef {
            seq,
            at,
            kind,
            endpoint,
            a,
            b,
            label,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(at, kind, endpoint, a, b, label)`.
    type Rec<'a> = (u64, RecordKind, u64, u64, u64, &'a str);

    /// Encode `recs` as one block's records, starting at byte 0.
    fn encoded(recs: &[Rec]) -> Vec<u8> {
        let (mut buf, mut enc) = (Vec::new(), Encoder::new());
        for &(at, kind, endpoint, a, b, label) in recs {
            enc.encode(&mut buf, 0, at, kind, endpoint, a, b, label.as_bytes());
        }
        buf
    }

    fn decoded(buf: &[u8]) -> Result<Vec<JournalRecord>, JournalError> {
        let (mut dec, mut pos, mut out) = (Decoder::new(), 0, Vec::new());
        while pos < buf.len() {
            out.push(dec.decode(buf, &mut pos, out.len() as u64)?.to_record());
        }
        Ok(out)
    }

    #[test]
    fn body_roundtrip() {
        let recs: [Rec; 5] = [
            (1_000_000, RecordKind::Deliver, 7, 99, 3, "BindingLookup"),
            (1_000_400, RecordKind::Deliver, 7, 100, 3, "BindingLookup"),
            (5, RecordKind::TimerFire, u64::MAX, u64::MAX, 0, ""),
            (u64::MAX, RecordKind::Shed, 0, 1, u64::MAX, "BindingLookup"),
            (0, RecordKind::Note, 1, 2, 3, ""),
        ];
        let buf = encoded(&recs);
        let records = decoded(&buf).unwrap();
        assert_eq!(records.len(), recs.len());
        for (seq, (rec, &(at, kind, endpoint, a, b, label))) in
            records.iter().zip(&recs).enumerate()
        {
            assert_eq!(
                (rec.seq, rec.at, rec.kind, rec.endpoint, rec.a, rec.b),
                (seq as u64, at, kind, endpoint, a, b)
            );
            assert_eq!(rec.label, label);
        }
        // A repeated label is one byte; a close `at` is a short Δ.
        let one = encoded(&recs[..1]).len();
        assert_eq!(encoded(&recs[..2]).len() - one, 1 + 2 + 1 + 1 + 1 + 1);
    }

    #[test]
    fn every_kind_tags_roundtrip() {
        for tag in 0..=16u8 {
            let kind = RecordKind::from_tag(tag).unwrap();
            assert_eq!(kind.tag(), tag);
            assert_eq!(kind.row().kind, kind);
        }
        assert_eq!(RecordKind::from_tag(17), None);
    }

    #[test]
    fn bad_tag_is_typed() {
        let mut buf = encoded(&[(0, RecordKind::Note, 0, 0, 0, "x"); 2]);
        // The second record starts after the first's seven bytes and label.
        buf[8] = 0xEE;
        assert!(matches!(
            decoded(&buf),
            Err(JournalError::BadKind {
                offset: 8,
                tag: 0xEE
            })
        ));
    }

    #[test]
    fn truncated_body_is_typed() {
        let buf = encoded(&[(2, RecordKind::Start, 3, 4, 5, "hello")]);
        for cut in 0..buf.len() {
            match Decoder::new().decode(&buf[..cut], &mut 0, 0) {
                Err(JournalError::BadBody { offset: 0, .. }) => {}
                other => panic!("cut {cut}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn a_label_outside_the_table_is_typed() {
        let mut buf = encoded(&[(0, RecordKind::Note, 0, 0, 0, "x"); 2]);
        assert_eq!(*buf.last().unwrap(), 1, "the second record names entry 0");
        *buf.last_mut().unwrap() = 2;
        assert_eq!(
            decoded(&buf).unwrap_err(),
            JournalError::BadLabel {
                offset: 8,
                label_ref: 2
            }
        );
        let mut bad_utf8 = encoded(&[(0, RecordKind::Note, 0, 0, 0, "x")]);
        *bad_utf8.last_mut().unwrap() = 0xFF;
        assert!(matches!(
            decoded(&bad_utf8),
            Err(JournalError::BadBody {
                source: CodecError::BadUtf8,
                ..
            })
        ));
    }

    /// Past [`LABELS`] distinct labels a block's table is full: a new
    /// label is written inline at every use, and every label decodes.
    #[test]
    fn a_full_label_table_writes_new_labels_inline() {
        let labels: Vec<String> = (0..LABELS + 40).map(|i| format!("m{i}")).collect();
        let recs: Vec<Rec> = labels
            .iter()
            .chain(&labels)
            .map(|l| (9, RecordKind::Deliver, 1, 2, 3, l.as_str()))
            .collect();
        let buf = encoded(&recs);
        let records = decoded(&buf).unwrap();
        assert!(records.iter().zip(&recs).all(|(r, rec)| r.label == rec.5));
        let once = encoded(&recs[..labels.len()]).len();
        let inline = labels[LABELS..].iter().map(|l| 2 + l.len()).sum::<usize>();
        // Second pass: five fixed bytes, then a 1- or 2-byte ref or the
        // label inline.
        let refs = (0..LABELS)
            .map(|i| if i < 127 { 1 } else { 2 })
            .sum::<usize>();
        assert_eq!(buf.len() - once, labels.len() * 5 + refs + inline);
    }

    #[test]
    fn record_renders() {
        let rec = JournalRecord {
            seq: 9,
            at: 500,
            kind: RecordKind::Snapshot,
            endpoint: 0,
            a: 6,
            b: 1,
            label: "abcd".into(),
        };
        let s = rec.to_string();
        assert!(s.contains("snapshot"));
        assert!(s.contains("seq"));
    }
}
