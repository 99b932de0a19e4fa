//! The journal wire format: one compact, checksummed record per kernel
//! ingress event.
//!
//! A journal is `header · record*`:
//!
//! ```text
//! header : "LJNL" | version u8 | snap_every varint
//! record : body_len u32-le | crc32(body) u32-le | body
//! body   : seq varint | at varint | kind u8 | endpoint varint
//!        | a varint | b varint | label_len varint | label utf-8
//! ```
//!
//! The framing mirrors the OPR container (`legion-persist`): length
//! prefix for skipping, CRC-32 for integrity, varints for density.
//! Labels are stored as **strings**, never interner ids — symbol ids
//! depend on interning order, which is not stable across processes.

use legion_persist::codec::{CodecError, Reader};
use std::fmt;

/// Journal magic: "Legion JourNaL".
pub const MAGIC: [u8; 4] = *b"LJNL";

/// Current format version. Version 2 kept the framing and changed what
/// a snapshot mark's root covers (the `queue` section's encoding), so a
/// version-1 journal is refused rather than left to diverge at its first
/// mark.
pub const VERSION: u8 = 2;

/// Sanity cap on a single record body.
pub const MAX_BODY: usize = 1 << 20;

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
    /// The input ends inside a record frame or body.
    TruncatedRecord {
        /// Byte offset of the frame that was cut short.
        offset: usize,
    },
    /// A record body does not match its stored CRC-32.
    BadChecksum {
        /// Byte offset of the frame.
        offset: usize,
        /// CRC stored in the frame.
        stored: u32,
        /// CRC computed over the body bytes.
        computed: u32,
    },
    /// A length prefix exceeds [`MAX_BODY`] — almost certainly a
    /// corrupted length field.
    RecordTooLarge {
        /// Byte offset of the frame.
        offset: usize,
        /// The (implausible) claimed body length.
        len: u64,
    },
    /// A record body failed to decode.
    BadBody {
        /// Byte offset of the frame.
        offset: usize,
        /// The codec-level failure.
        source: CodecError,
    },
    /// A record carries an unknown kind tag.
    BadKind {
        /// Byte offset of the frame.
        offset: usize,
        /// The unknown tag.
        tag: u8,
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
                write!(f, "journal truncated inside record at offset {offset}")
            }
            JournalError::BadChecksum {
                offset,
                stored,
                computed,
            } => write!(
                f,
                "record at offset {offset} fails checksum (stored {stored:#010x}, computed {computed:#010x})"
            ),
            JournalError::RecordTooLarge { offset, len } => {
                write!(f, "record at offset {offset} claims implausible length {len}")
            }
            JournalError::BadBody { offset, source } => {
                write!(f, "record body at offset {offset} undecodable: {source}")
            }
            JournalError::BadKind { offset, tag } => {
                write!(f, "record at offset {offset} has unknown kind tag {tag}")
            }
            JournalError::Io(e) => write!(f, "journal sink I/O error: {e}"),
        }
    }
}

impl std::error::Error for JournalError {}

/// What a journal record describes: every kernel ingress or verdict that
/// can influence the deterministic run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    /// The receiver's dedup window suppressed a duplicate.
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

impl RecordKind {
    /// The wire tag.
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// Decode a wire tag.
    pub fn from_tag(tag: u8) -> Option<Self> {
        use RecordKind::*;
        Some(match tag {
            0 => Attach,
            1 => Detach,
            2 => Start,
            3 => Deliver,
            4 => TimerFire,
            5 => Inject,
            6 => Drop,
            7 => Duplicate,
            8 => Delay,
            9 => Dedup,
            10 => DeadLetter,
            11 => Refuse,
            12 => Timeout,
            13 => HaVerdict,
            14 => Snapshot,
            15 => Note,
            16 => Shed,
            _ => return None,
        })
    }

    /// Fixed-width label for rendering.
    pub fn label(self) -> &'static str {
        match self {
            RecordKind::Attach => "attach",
            RecordKind::Detach => "detach",
            RecordKind::Start => "start",
            RecordKind::Deliver => "deliver",
            RecordKind::TimerFire => "timer-fire",
            RecordKind::Inject => "inject",
            RecordKind::Drop => "drop",
            RecordKind::Duplicate => "duplicate",
            RecordKind::Delay => "delay",
            RecordKind::Dedup => "dedup",
            RecordKind::DeadLetter => "dead-letter",
            RecordKind::Refuse => "refuse",
            RecordKind::Timeout => "timeout",
            RecordKind::HaVerdict => "ha-verdict",
            RecordKind::Snapshot => "snapshot",
            RecordKind::Note => "note",
            RecordKind::Shed => "shed",
        }
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
            self.kind.label(),
            self.endpoint,
            self.label,
            self.a,
            self.b
        )
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

/// Append a record body to `buf`. Allocation-free once `buf` has warmed
/// to its steady-state capacity.
#[allow(clippy::too_many_arguments)]
pub(crate) fn encode_body(
    buf: &mut Vec<u8>,
    seq: u64,
    at: u64,
    kind: RecordKind,
    endpoint: u64,
    a: u64,
    b: u64,
    label: &[u8],
) {
    push_varint(buf, seq);
    push_varint(buf, at);
    buf.push(kind.tag());
    push_varint(buf, endpoint);
    push_varint(buf, a);
    push_varint(buf, b);
    push_varint(buf, label.len() as u64);
    buf.extend_from_slice(label);
}

/// Decode one record body (the bytes after the frame prefix). `offset`
/// is the frame's byte offset, for error reporting only.
pub fn decode_body(body: &[u8], offset: usize) -> Result<JournalRecord, JournalError> {
    let mut r = Reader::new(body);
    let bad = |source| JournalError::BadBody { offset, source };
    let seq = r.get_varint().map_err(bad)?;
    let at = r.get_varint().map_err(bad)?;
    let tag = r.get_u8().map_err(bad)?;
    let kind = RecordKind::from_tag(tag).ok_or(JournalError::BadKind { offset, tag })?;
    let endpoint = r.get_varint().map_err(bad)?;
    let a = r.get_varint().map_err(bad)?;
    let b = r.get_varint().map_err(bad)?;
    let label = r.get_str().map_err(bad)?;
    Ok(JournalRecord {
        seq,
        at,
        kind,
        endpoint,
        a,
        b,
        label,
    })
}

/// Decode a body's `seq`, kind tag and label without copying — the
/// cheap checks made while skipping an already-snapshotted prefix.
pub(crate) fn decode_head(body: &[u8]) -> Option<(u64, u8, &[u8])> {
    let mut r = Reader::new(body);
    let seq = r.get_varint().ok()?;
    r.get_varint().ok()?;
    let tag = r.get_u8().ok()?;
    for _ in 0..3 {
        r.get_varint().ok()?;
    }
    Some((seq, tag, r.get_byte_slice().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn body_roundtrip() {
        let mut buf = Vec::new();
        encode_body(
            &mut buf,
            42,
            1_000_000,
            RecordKind::Deliver,
            7,
            99,
            3,
            b"BindingLookup",
        );
        let rec = decode_body(&buf, 0).unwrap();
        assert_eq!(rec.seq, 42);
        assert_eq!(rec.at, 1_000_000);
        assert_eq!(rec.kind, RecordKind::Deliver);
        assert_eq!(rec.endpoint, 7);
        assert_eq!(rec.a, 99);
        assert_eq!(rec.b, 3);
        assert_eq!(rec.label, "BindingLookup");
        assert_eq!(
            decode_head(&buf),
            Some((42, RecordKind::Deliver.tag(), &b"BindingLookup"[..]))
        );
    }

    #[test]
    fn every_kind_tags_roundtrip() {
        for tag in 0..=16u8 {
            let kind = RecordKind::from_tag(tag).unwrap();
            assert_eq!(kind.tag(), tag);
            assert!(!kind.label().is_empty());
        }
        assert_eq!(RecordKind::from_tag(17), None);
    }

    #[test]
    fn bad_tag_is_typed() {
        let mut buf = Vec::new();
        encode_body(&mut buf, 0, 0, RecordKind::Note, 0, 0, 0, b"x");
        // The kind tag sits after the two leading varints (both 1 byte).
        buf[2] = 0xEE;
        assert!(matches!(
            decode_body(&buf, 5),
            Err(JournalError::BadKind {
                offset: 5,
                tag: 0xEE
            })
        ));
    }

    #[test]
    fn truncated_body_is_typed() {
        let mut buf = Vec::new();
        encode_body(&mut buf, 1, 2, RecordKind::Start, 3, 4, 5, b"hello");
        for cut in 0..buf.len() {
            match decode_body(&buf[..cut], 0) {
                Err(JournalError::BadBody { .. }) | Err(JournalError::BadKind { .. }) => {}
                other => panic!("cut {cut}: unexpected {other:?}"),
            }
        }
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
