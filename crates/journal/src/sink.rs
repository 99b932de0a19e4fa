//! Pluggable journal byte sinks.
//!
//! The writer frames records into blocks; where the blocks go is a
//! [`JournalSink`]: in-memory for tests and same-process replay
//! ([`MemSink`]), a file for `--journal-out` ([`FileSink`]).

use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Destination for journal bytes. Implementations must preserve append
/// order; the writer never seeks. Writes arrive a block at a time
/// ([`crate::journal::BLOCK`]), so a sink need not buffer.
pub trait JournalSink: Send {
    /// Append `bytes`.
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<()>;

    /// Flush any buffering to the backing store.
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// What a [`MemSink`] holds: each write as the block it arrived as — no
/// buffer that doubles, and copies itself, as the journal grows.
#[derive(Default)]
struct Blocks {
    list: Vec<Box<[u8]>>,
    len: usize,
}

/// An in-memory sink. Cloning shares the same blocks, so a test can keep
/// one handle and hand the other to the kernel, then read
/// [`MemSink::contents`] once the journal is finished (or its writer or
/// session dropped) — before that, the last block, and in a kernel's
/// session up to one batch of records, have not reached the sink.
#[derive(Default, Clone)]
pub struct MemSink {
    blocks: Arc<Mutex<Blocks>>,
}

impl MemSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of everything written so far, concatenated.
    pub fn contents(&self) -> Vec<u8> {
        let blocks = self.blocks.lock().expect("journal sink poisoned");
        let mut out = Vec::with_capacity(blocks.len);
        for block in &blocks.list {
            out.extend_from_slice(block);
        }
        out
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.blocks.lock().expect("journal sink poisoned").len
    }

    /// Has nothing been written?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl JournalSink for MemSink {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let mut blocks = self.blocks.lock().expect("journal sink poisoned");
        blocks.list.push(bytes.into());
        blocks.len += bytes.len();
        Ok(())
    }
}

/// A file sink for `--journal-out`. Unbuffered: the writer's blocks are
/// the buffering, and each reaches the file in one `write_all`.
pub struct FileSink {
    file: std::fs::File,
}

impl FileSink {
    /// Create (truncating) the journal file at `path`.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(FileSink {
            file: std::fs::File::create(path)?,
        })
    }
}

impl JournalSink for FileSink {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.file.write_all(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_sink_shares_buffer_across_clones() {
        let sink = MemSink::new();
        let mut handle = sink.clone();
        assert!(sink.is_empty());
        handle.write(b"abc").unwrap();
        handle.write(b"def").unwrap();
        assert_eq!(sink.contents(), b"abcdef");
        assert_eq!(sink.len(), 6);
    }

    #[test]
    fn file_sink_writes_through() {
        let path = std::env::temp_dir().join(format!("legion-journal-sink-{}", std::process::id()));
        {
            let mut sink = FileSink::create(&path).unwrap();
            sink.write(b"hello ").unwrap();
            sink.write(b"journal").unwrap();
            sink.flush().unwrap();
        }
        assert_eq!(std::fs::read(&path).unwrap(), b"hello journal");
        let _ = std::fs::remove_file(&path);
    }
}
