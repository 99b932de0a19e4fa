//! Writing and reading whole journals: header framing, the append-only
//! [`JournalWriter`], and the checked reader/indexer.

use crate::record::{
    decode_body, encode_body, JournalError, JournalRecord, RecordKind, MAGIC, MAX_BODY, VERSION,
};
use crate::sink::JournalSink;
use legion_persist::checksum::crc32;

/// The decoded journal header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalHeader {
    /// Format version.
    pub version: u8,
    /// Snapshot cadence the recording run used (events between snapshot
    /// marks; 0 = no snapshots). Stored in the journal so a verifying
    /// run snapshots at exactly the same points.
    pub snap_every: u64,
    /// Byte offset of the first record frame.
    pub records_at: usize,
}

/// Read and validate the header.
pub fn read_header(data: &[u8]) -> Result<JournalHeader, JournalError> {
    if data.len() < 4 {
        return Err(if data.is_empty() || MAGIC.starts_with(data) {
            JournalError::TruncatedHeader
        } else {
            JournalError::BadMagic
        });
    }
    if data[..4] != MAGIC {
        return Err(JournalError::BadMagic);
    }
    let version = *data.get(4).ok_or(JournalError::TruncatedHeader)?;
    if version != VERSION {
        return Err(JournalError::BadVersion(version));
    }
    // Inline varint: the header predates any Reader framing.
    let mut snap_every: u64 = 0;
    for (i, shift) in (0..64).step_by(7).enumerate() {
        let byte = *data.get(5 + i).ok_or(JournalError::TruncatedHeader)?;
        snap_every |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(JournalHeader {
                version,
                snap_every,
                records_at: 5 + i + 1,
            });
        }
    }
    Err(JournalError::TruncatedHeader)
}

/// The location of one framed record inside a journal byte buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordSlice {
    /// Byte offset of the frame (length prefix).
    pub offset: usize,
    /// Byte offset of the body.
    pub body_start: usize,
    /// Body length in bytes.
    pub body_len: usize,
    /// The stored (and verified) CRC-32 of the body.
    pub crc: u32,
}

impl RecordSlice {
    /// The body bytes within `data`.
    pub fn body<'a>(&self, data: &'a [u8]) -> &'a [u8] {
        &data[self.body_start..self.body_start + self.body_len]
    }
}

/// Walk the whole journal, verifying framing and checksums, returning
/// the header and the location of every record. This is the integrity
/// pass — every error a corrupt journal can produce is typed.
pub fn index(data: &[u8]) -> Result<(JournalHeader, Vec<RecordSlice>), JournalError> {
    let header = read_header(data)?;
    let mut slices = Vec::new();
    let mut pos = header.records_at;
    while pos < data.len() {
        let offset = pos;
        if data.len() - pos < 8 {
            return Err(JournalError::TruncatedRecord { offset });
        }
        let body_len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
        let stored = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().unwrap());
        if body_len > MAX_BODY {
            return Err(JournalError::RecordTooLarge {
                offset,
                len: body_len as u64,
            });
        }
        pos += 8;
        if data.len() - pos < body_len {
            return Err(JournalError::TruncatedRecord { offset });
        }
        let body = &data[pos..pos + body_len];
        let computed = crc32(body);
        if computed != stored {
            return Err(JournalError::BadChecksum {
                offset,
                stored,
                computed,
            });
        }
        slices.push(RecordSlice {
            offset,
            body_start: pos,
            body_len,
            crc: stored,
        });
        pos += body_len;
    }
    Ok((header, slices))
}

/// Index and fully decode every record.
pub fn read_all(data: &[u8]) -> Result<(JournalHeader, Vec<JournalRecord>), JournalError> {
    let (header, slices) = index(data)?;
    let mut records = Vec::with_capacity(slices.len());
    for s in &slices {
        records.push(decode_body(s.body(data), s.offset)?);
    }
    Ok((header, records))
}

/// Render the records around `center` (± `radius`), flight-recorder
/// style, marking the center line. Used for divergence and bisect
/// post-mortems.
pub fn render_context(data: &[u8], slices: &[RecordSlice], center: usize, radius: usize) -> String {
    let lo = center.saturating_sub(radius);
    let hi = (center + radius + 1).min(slices.len());
    let mut out = String::new();
    for (i, s) in slices.iter().enumerate().take(hi).skip(lo) {
        let marker = if i == center { ">>" } else { "  " };
        match decode_body(s.body(data), s.offset) {
            Ok(rec) => out.push_str(&format!("{marker} {rec}\n")),
            Err(e) => out.push_str(&format!("{marker} <undecodable record: {e}>\n")),
        }
    }
    out
}

/// Bytes the writer frames before it hands them to the sink: the sink
/// sees the journal a block at a time, and a reader of a live journal
/// file lags the run by less than one block and one record.
pub const BLOCK: usize = 64 * 1024;

/// A block buffer's capacity: room for the record that carries a block
/// over the line.
pub(crate) const BLOCK_CAPACITY: usize = BLOCK + 256;

/// The most bytes a frame takes besides its label: the length and CRC
/// words, six varints of at most ten bytes, and the kind tag.
pub(crate) const MAX_FRAME_FIXED: usize = 8 + 6 * 10 + 1;

/// The journal header: magic, version, snapshot cadence.
pub(crate) fn push_header(buf: &mut Vec<u8>, snap_every: u64) {
    buf.extend_from_slice(&MAGIC);
    buf.push(VERSION);
    crate::record::push_varint(buf, snap_every);
}

/// Frame one record at the end of `buf`: `len ‖ crc32(body) ‖ body`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn push_frame(
    buf: &mut Vec<u8>,
    seq: u64,
    at: u64,
    kind: RecordKind,
    endpoint: u64,
    a: u64,
    b: u64,
    label: &[u8],
) {
    let frame = buf.len();
    buf.extend_from_slice(&[0; 8]);
    encode_body(buf, seq, at, kind, endpoint, a, b, label);
    let body = &buf[frame + 8..];
    let (len, crc) = (body.len() as u32, crc32(body));
    buf[frame..frame + 4].copy_from_slice(&len.to_le_bytes());
    buf[frame + 4..frame + 8].copy_from_slice(&crc.to_le_bytes());
}

/// Where framed blocks meet the sink. A refused block is dropped —
/// nothing after a gap could be read back — and so is every block after
/// it: the first error is latched and reported by every later `finish`.
pub(crate) struct Landing {
    sink: Box<dyn JournalSink>,
    /// Bytes the sink has accepted.
    accepted: u64,
    error: Option<JournalError>,
}

impl Landing {
    pub(crate) fn new(sink: Box<dyn JournalSink>) -> Self {
        Landing {
            sink,
            accepted: 0,
            error: None,
        }
    }

    /// Bytes the sink has accepted.
    pub(crate) fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Give the sink `block`, unless an earlier one was refused.
    pub(crate) fn land(&mut self, block: &[u8]) {
        if block.is_empty() || self.error.is_some() {
            return;
        }
        match self.sink.write(block) {
            Ok(()) => self.accepted += block.len() as u64,
            Err(e) => self.error = Some(JournalError::Io(e.to_string())),
        }
    }

    /// Flush the sink, surfacing any latched or flush-time error.
    pub(crate) fn finish(&mut self) -> Result<(), JournalError> {
        if self.error.is_none() {
            if let Err(e) = self.sink.flush() {
                self.error = Some(JournalError::Io(e.to_string()));
            }
        }
        self.error.clone().map_or(Ok(()), Err)
    }
}

/// The append-only journal writer.
///
/// Records are framed in place in one block buffer, which goes to the
/// sink when it reaches [`BLOCK`] bytes, at [`JournalWriter::finish`],
/// and when the writer is dropped (a panicking run still lands its
/// tail). `append` is infallible on the hot path: the first sink error
/// is latched and surfaced by [`JournalWriter::error`] / `finish` rather
/// than plumbed through the caller, one block after the write it
/// refused. A kernel's journal session ([`crate::KernelJournal`])
/// frames with the same code on its journal thread, cuts its blocks at
/// the same records and lands the same bytes.
pub struct JournalWriter {
    next_seq: u64,
    /// The header, then frames, not yet handed to the sink.
    block: Vec<u8>,
    landing: Landing,
}

impl JournalWriter {
    /// Start a journal on `sink` with the header.
    pub fn new(sink: Box<dyn JournalSink>, snap_every: u64) -> Self {
        let mut block = Vec::with_capacity(BLOCK_CAPACITY);
        push_header(&mut block, snap_every);
        JournalWriter {
            next_seq: 0,
            block,
            landing: Landing::new(sink),
        }
    }

    /// Sequence number the next record will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Total bytes written (header + frames), counted as they are
    /// appended; once the sink has failed, the bytes it accepted.
    pub fn bytes(&self) -> u64 {
        self.landing.accepted + self.block.len() as u64
    }

    /// The first sink error, if any occurred.
    pub fn error(&self) -> Option<&JournalError> {
        self.landing.error.as_ref()
    }

    /// Append one record; returns its sequence number.
    #[allow(clippy::too_many_arguments)]
    pub fn append(
        &mut self,
        at: u64,
        kind: RecordKind,
        endpoint: u64,
        a: u64,
        b: u64,
        label: &str,
    ) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.landing.error.is_some() {
            return seq;
        }
        push_frame(
            &mut self.block,
            seq,
            at,
            kind,
            endpoint,
            a,
            b,
            label.as_bytes(),
        );
        if self.block.len() >= BLOCK {
            self.hand_over();
        }
        seq
    }

    /// Give the sink the block. Once an error is latched none is framed
    /// after it, so the block stays empty.
    fn hand_over(&mut self) {
        self.landing.land(&self.block);
        self.block.clear();
    }

    /// Hand over the last block and flush the sink, surfacing any
    /// latched or flush-time error. The error is sticky: every later
    /// `finish` reports it again.
    pub fn finish(&mut self) -> Result<(), JournalError> {
        self.hand_over();
        self.landing.finish()
    }
}

impl Drop for JournalWriter {
    /// A run that ends without `finish` — a panic, an early return —
    /// still lands what it framed. Errors have nowhere to go from here.
    fn drop(&mut self) {
        let _ = self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemSink;

    fn sample_journal() -> (Vec<u8>, usize) {
        let sink = MemSink::new();
        let mut w = JournalWriter::new(Box::new(sink.clone()), 4);
        w.append(10, RecordKind::Attach, 1, 0, 0, "magistrate");
        w.append(20, RecordKind::Deliver, 1, 77, 0, "BindingLookup");
        w.append(30, RecordKind::TimerFire, 2, 5, 0, "heartbeat");
        w.finish().unwrap();
        (sink.contents(), 3)
    }

    #[test]
    fn write_read_roundtrip() {
        let (data, n) = sample_journal();
        let (header, records) = read_all(&data).unwrap();
        assert_eq!(header.version, VERSION);
        assert_eq!(header.snap_every, 4);
        assert_eq!(records.len(), n);
        assert_eq!(records[0].kind, RecordKind::Attach);
        assert_eq!(records[0].label, "magistrate");
        assert_eq!(records[1].a, 77);
        assert_eq!(records[2].at, 30);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.seq, i as u64, "seqs are dense from 0");
        }
    }

    #[test]
    fn header_errors_are_typed() {
        assert_eq!(read_header(b"").unwrap_err(), JournalError::TruncatedHeader);
        assert_eq!(
            read_header(b"LJ").unwrap_err(),
            JournalError::TruncatedHeader
        );
        assert_eq!(read_header(b"NOPE!!").unwrap_err(), JournalError::BadMagic);
        assert_eq!(
            read_header(b"LJNL\x63\x00").unwrap_err(),
            JournalError::BadVersion(0x63)
        );
        assert_eq!(
            read_header(b"LJNL\x02").unwrap_err(),
            JournalError::TruncatedHeader
        );
    }

    /// A journal recorded before the `queue` section was re-encoded
    /// carries roots this build cannot reproduce: refused by its header.
    #[test]
    fn a_version_1_journal_is_refused() {
        let (mut data, _) = sample_journal();
        assert_eq!(read_header(&data).unwrap().version, 2);
        data[4] = 1;
        assert_eq!(read_all(&data).unwrap_err(), JournalError::BadVersion(1));
        assert_eq!(
            crate::KernelJournal::verify(data, crate::ReplayStart::Origin).err(),
            Some(JournalError::BadVersion(1))
        );
    }

    #[test]
    fn truncation_is_typed_at_every_cut() {
        let (data, _) = sample_journal();
        let (header, _) = read_all(&data).unwrap();
        for cut in header.records_at..data.len() {
            if cut == data.len() {
                continue;
            }
            match read_all(&data[..cut]) {
                Ok((_, records)) => {
                    // A cut exactly on a frame boundary yields a shorter
                    // but valid journal.
                    assert!(records.len() < 3);
                }
                Err(
                    JournalError::TruncatedRecord { .. }
                    | JournalError::TruncatedHeader
                    | JournalError::RecordTooLarge { .. }
                    | JournalError::BadChecksum { .. },
                ) => {}
                Err(other) => panic!("cut {cut}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn bit_flip_in_body_is_caught_by_checksum() {
        let (mut data, _) = sample_journal();
        let last = data.len() - 1; // inside the final record's label
        data[last] ^= 0x01;
        assert!(matches!(
            read_all(&data),
            Err(JournalError::BadChecksum { .. })
        ));
    }

    #[test]
    fn implausible_length_is_rejected() {
        let (mut data, _) = sample_journal();
        let (header, slices) = index(&data).unwrap();
        let _ = header;
        let off = slices[1].offset;
        data[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_all(&data),
            Err(JournalError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn sink_error_is_latched_not_panicked() {
        let sink = FailingSink {
            accepted: MemSink::new(),
            writes: 0,
            fail_at: 0,
        };
        let mut w = JournalWriter::new(Box::new(sink), 0);
        w.append(1, RecordKind::Note, 0, 0, 0, "x");
        assert!(w.error().is_none(), "nothing has reached the sink yet");
        assert!(matches!(w.finish(), Err(JournalError::Io(_))));
        assert!(w.error().is_some());
        assert_eq!(w.bytes(), 0, "the sink accepted nothing");
    }

    /// A sink that refuses its `fail_at`-th write (0-based) and every
    /// one after, keeping what it accepted.
    struct FailingSink {
        accepted: MemSink,
        writes: usize,
        fail_at: usize,
    }

    impl JournalSink for FailingSink {
        fn write(&mut self, bytes: &[u8]) -> std::io::Result<()> {
            let n = self.writes;
            self.writes += 1;
            if n >= self.fail_at {
                return Err(std::io::Error::other("disk full"));
            }
            self.accepted.write(bytes)
        }
    }

    #[test]
    fn latched_sink_error_is_sticky_and_refused_bytes_are_not_counted() {
        let accepted = MemSink::new();
        let sink = FailingSink {
            accepted: accepted.clone(),
            writes: 0,
            fail_at: 2,
        };
        let mut w = JournalWriter::new(Box::new(sink), 0);
        // Enough for two whole blocks and part of a third, which the
        // sink refuses when it arrives.
        let label = "x".repeat(100);
        let mut appended = 0u64;
        while w.error().is_none() {
            w.append(appended, RecordKind::Note, 0, appended, 0, &label);
            appended += 1;
        }
        assert_eq!(accepted.len() / BLOCK, 2, "two blocks got through");
        let refused_at = w.next_seq();
        for i in 0..10 {
            w.append(i, RecordKind::Note, 0, i, 0, &label);
        }
        assert_eq!(w.next_seq(), refused_at + 10, "seqs advance whatever");
        assert_eq!(w.bytes(), accepted.len() as u64, "only accepted bytes");
        for _ in 0..3 {
            assert!(matches!(w.finish(), Err(JournalError::Io(_))), "sticky");
        }
        assert_eq!(w.bytes(), accepted.len() as u64);
        // Everything before the refused block is an intact journal: a
        // block ends on a frame boundary.
        let data = accepted.contents();
        let (_, slices) = index(&data).unwrap();
        let (_, records) = read_all(&data).unwrap();
        assert_eq!(slices.len(), records.len());
        assert!(records.len() as u64 > 1_000 && (records.len() as u64) < appended);
        for (i, r) in records.iter().enumerate() {
            assert_eq!((r.seq, r.a), (i as u64, i as u64));
        }
    }

    /// The sink sees the journal a block at a time: nothing until
    /// `BLOCK` bytes are framed, whole frames only, the tail at `finish`.
    #[test]
    fn the_sink_is_handed_blocks_not_records() {
        struct Sizes(std::sync::Arc<std::sync::Mutex<Vec<usize>>>);
        impl JournalSink for Sizes {
            fn write(&mut self, bytes: &[u8]) -> std::io::Result<()> {
                self.0.lock().unwrap().push(bytes.len());
                Ok(())
            }
        }
        let sizes = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut w = JournalWriter::new(Box::new(Sizes(sizes.clone())), 0);
        let frame = {
            let before = w.bytes();
            w.append(0, RecordKind::Deliver, 1, 77, 0, "BindingLookup");
            (w.bytes() - before) as usize
        };
        while w.bytes() < BLOCK as u64 {
            assert!(sizes.lock().unwrap().is_empty(), "a block is not full yet");
            w.append(0, RecordKind::Deliver, 1, 77, 0, "BindingLookup");
        }
        assert_eq!(sizes.lock().unwrap().len(), 1, "full: handed over");
        while w.bytes() < 2 * BLOCK as u64 + 1_000 {
            w.append(0, RecordKind::Deliver, 1, 77, 0, "BindingLookup");
        }
        w.finish().unwrap();
        let sizes = sizes.lock().unwrap();
        assert_eq!(sizes.len(), 3, "two blocks and the tail: {sizes:?}");
        assert!(sizes[..2]
            .iter()
            .all(|n| (BLOCK..BLOCK + frame).contains(n)));
        assert_eq!(sizes.iter().sum::<usize>() as u64, w.bytes());
    }

    #[test]
    fn context_renders_window() {
        let (data, _) = sample_journal();
        let (_, slices) = index(&data).unwrap();
        let ctx = render_context(&data, &slices, 1, 1);
        assert_eq!(ctx.lines().count(), 3);
        assert!(ctx.contains(">> seq      1"));
        assert!(ctx.contains("BindingLookup"));
    }
}
