//! # legion-journal — the journaled kernel substrate
//!
//! The durability and reproducibility story for the Legion simulator,
//! following the AgentOS journal/snapshotter/CAS architecture: **the
//! journal is authoritative, snapshots are a cache** — the same journal
//! always produces the same state.
//!
//! * [`record`] — the wire format (version 3): one compact record per
//!   kernel ingress (delivery, timer fire, chaos verdict, HA verdict…),
//!   in 64 KiB blocks that are each length-prefixed and CRC-checksummed
//!   — `seq` implicit, `at` a delta within the block, each label a
//!   reference into the block's label table or inline bytes — with a
//!   typed [`JournalError`] for every way a corrupt journal can fail to
//!   parse, and the event-kind
//!   table ([`record::KINDS`]): [`RecordKind`] names every kernel event
//!   for the journal, the flight recorder and the span stream, and its
//!   row spells the kind for each and says which of them see it;
//! * [`sink`] — pluggable byte sinks ([`MemSink`], [`FileSink`]);
//! * [`journal`] — the append-only [`JournalWriter`], which encodes
//!   records in place and hands the sink a sealed block at a time, and
//!   the checked reader, whose index holds one slice per block;
//! * [`snapshot`] — the SHA-256 **state root** over content-addressed
//!   state sections, which names the whole kernel state; a snapshot is
//!   its mark, and no section's bytes are kept once hashed;
//! * [`replay`] — [`KernelJournal`], the kernel-facing facade
//!   (off / record / verify), whose time-travel verifier re-executes a
//!   run and checks every event field by field against the reference
//!   journal, decoded block by block, starting from the origin or from a
//!   snapshot (skipped prefix, root-checked waypoint, verified tail);
//! * [`bisect`] — decode two journals in order to the first differing
//!   record and dump flight-recorder-style context around it.
//!
//! The simulator kernel (`legion-net`) embeds a [`KernelJournal`] and
//! calls [`KernelJournal::note`] at every ingress; `legion-exp` exposes
//! it as `--journal-out` / `--replay-from`.
//!
//! A session runs in two stages (the private `pipeline` module). The
//! kernel's event loop only batches: a note pushes a fixed-size record,
//! a snapshot copies its changed sections' bytes. One journal thread
//! per session encodes the records into blocks — keeping each block's
//! label table, delta base and running CRC — (or verifies them), hashes
//! the sections and encodes each mark in stream order. The event
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
pub use journal::{index, read_all, read_header, BlockSlice, JournalHeader, JournalWriter};
pub use record::{JournalError, JournalRecord, RecordKind};
pub use replay::{Divergence, JournalSummary, KernelJournal, ReplayStart};
pub use sink::{FileSink, JournalSink, MemSink};
pub use snapshot::sections_root;
