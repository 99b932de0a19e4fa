//! # legion-journal — the journaled kernel substrate
//!
//! The durability and reproducibility story for the Legion simulator,
//! following the AgentOS journal/snapshotter/CAS architecture: **the
//! journal is authoritative, snapshots are a cache** — the same journal
//! always produces the same state.
//!
//! * [`record`] — the wire format: one compact, length-prefixed,
//!   CRC-checksummed record per kernel ingress (delivery, timer fire,
//!   chaos verdict, HA verdict…), with a typed [`JournalError`] for
//!   every way a corrupt journal can fail to parse;
//! * [`sink`] — pluggable byte sinks ([`MemSink`], [`FileSink`]);
//! * [`journal`] — the append-only [`JournalWriter`], which frames
//!   records in place and hands the sink a block at a time, and the
//!   checked reader/indexer;
//! * [`snapshot`] — the SHA-256 **state root** over content-addressed
//!   state sections, which names the whole kernel state; a snapshot is
//!   its mark, and no section's bytes are kept once hashed;
//! * [`replay`] — [`KernelJournal`], the kernel-facing facade
//!   (off / record / verify), whose time-travel verifier re-executes a
//!   run and checks every event byte-for-byte against the reference
//!   journal, starting from the origin or from a snapshot (skipped
//!   prefix, root-checked waypoint, byte-verified tail);
//! * [`bisect`] — scan two journals in order to the first differing
//!   record and dump flight-recorder-style context around it.
//!
//! The simulator kernel (`legion-net`) embeds a [`KernelJournal`] and
//! calls [`KernelJournal::note`] at every ingress; `legion-exp` exposes
//! it as `--journal-out` / `--replay-from`.
//!
//! A session runs in two stages (the private `pipeline` module). The
//! kernel's event loop only batches: a note pushes a fixed-size record,
//! a snapshot copies its changed sections' bytes. One journal thread
//! per session encodes, CRCs and frames the records (or verifies them),
//! hashes the sections and frames each mark in stream order. The event
//! loop hands the sink the thread's 64 KiB blocks when it next sends a
//! batch, and does every allocation, at points fixed by the event
//! count — so the bytes, the blocks and the allocation counts are the
//! same however the two threads are scheduled.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bisect;
pub mod journal;
mod pipeline;
pub mod record;
pub mod replay;
pub mod sink;
pub mod snapshot;

pub use bisect::{bisect, BisectReport};
pub use journal::{index, read_all, read_header, JournalHeader, JournalWriter, RecordSlice};
pub use record::{JournalError, JournalRecord, RecordKind};
pub use replay::{Divergence, JournalSummary, KernelJournal, ReplayStart};
pub use sink::{FileSink, JournalSink, MemSink};
pub use snapshot::sections_root;
