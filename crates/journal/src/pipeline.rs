//! The journal thread: the second stage of every journal session.
//!
//! A session runs in two stages. On the event loop (the kernel's
//! stepping thread) [`Pipeline::push`] only appends a fixed-size [`Raw`]
//! record to a [`Batch`], its label to the batch's byte arena, and a
//! snapshot only copies the bytes of the sections that changed into the
//! session's [`Sections`]. One journal thread per session does the rest,
//! in stream order: it encodes each record into the open block with the
//! writer's [`Framer`] — the block's Δ base, label table and running
//! CRC live here, not on the event loop — and seals each block it
//! completes, as [`crate::JournalWriter`] does, or decodes the reference
//! journal's next record and compares it field by field ([`Verifier`]);
//! and at a mark, which always ends its batch, it
//! hashes the changed sections, computes the state root over every
//! section's id and frames or checks the mark right there, after the
//! records noted before it. Nothing is back-filled.
//!
//! The two stages hand one [`Work`] back and forth through a one-slot
//! [`Mailbox`], which each side polls for a while before it sleeps
//! ([`POLL`]). A batch is sent when it holds [`BATCH`] records, at
//! every mark and at every barrier, and before sending the event loop
//! waits for the work to come back with the last batch done. It then
//! lands the 64 KiB blocks the thread sealed in the sink, moves the
//! unfinished block's bytes to the front of the buffer, reserves what
//! the next batch can need and lets the work go again. A barrier also
//! seals and lands the unfinished block.
//!
//! Bytes and allocation counts cannot depend on thread timing. The
//! thread sees the batches in the order they were filled, and one at a
//! time, so it encodes or checks exactly the stream a single thread
//! would, and seals blocks where [`crate::JournalWriter`] would. Only the
//! event loop touches the sink and allocates. It lands blocks and grows
//! buffers only while it holds the work, at a send or a barrier, and
//! which sends come when is fixed by the event count. The thread writes
//! into capacity the event loop reserved before each send. It allocates
//! only to render a divergence.

use crate::journal::{
    push_header, Framer, Landing, BLOCK, BLOCK_CAPACITY, MAX_BLOCK_OPEN, MAX_RECORD_FIXED,
};
use crate::record::{JournalError, RecordKind};
use crate::replay::{Divergence, JournalSummary, Verifier};
use crate::sink::JournalSink;
use crate::snapshot::sections_root;
use legion_persist::cas::ChunkId;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Records in a full batch.
const BATCH: usize = 4096;

/// Label bytes a batch's arena starts with room for, per record.
const LABEL_BYTES: usize = 16;

/// A mark's label: the state root in hex.
const ROOT_HEX: usize = 64;

/// What the journal thread cannot do without: a thread that died
/// panicking has taken the session's work with it.
pub(crate) const THREAD_DIED: &str = "the journal thread panicked";

/// One noted event, as the event loop hands it over: everything but the
/// seq (the thread counts) and the label, which ends at `label_end` in
/// the batch's arena and starts where the previous record's ended.
#[derive(Clone, Copy)]
struct Raw {
    at: u64,
    endpoint: u64,
    a: u64,
    b: u64,
    label_end: u32,
    kind: RecordKind,
}

/// The records noted since the last send.
struct Batch {
    records: Vec<Raw>,
    labels: Vec<u8>,
    /// The snapshot mark that ends the batch, if one does: its label is
    /// the state root, computed on the thread.
    mark: Option<Raw>,
}

impl Batch {
    fn new() -> Self {
        Batch {
            records: Vec::with_capacity(BATCH),
            labels: Vec::with_capacity(BATCH * LABEL_BYTES),
            mark: None,
        }
    }

    fn clear(&mut self) {
        self.records.clear();
        self.labels.clear();
        self.mark = None;
    }

    /// The most bytes these records and the mark can encode to, besides
    /// the blocks they open.
    fn frame_bound(&self) -> usize {
        (self.records.len() + 1) * MAX_RECORD_FIXED + self.labels.len() + ROOT_HEX
    }
}

/// The state sections a mark's root covers, kept across marks — and
/// across sessions, by [`crate::KernelJournal::restart`]: an id is a
/// content hash, good in any session.
#[derive(Default)]
pub(crate) struct Sections {
    names: Vec<String>,
    /// Each section's id at the last mark.
    ids: Vec<ChunkId>,
    /// The sections that changed since the last mark, as `(index, end)`:
    /// each one's bytes end at `end` in `bytes` and start where the
    /// previous one's ended.
    changed: Vec<(usize, usize)>,
    bytes: Vec<u8>,
}

impl Sections {
    /// Section `index` changed; these are its bytes now.
    fn push(&mut self, index: usize, bytes: &[u8]) {
        self.bytes.extend_from_slice(bytes);
        self.changed.push((index, self.bytes.len()));
    }

    /// There are `count` sections; name the new ones.
    fn grow(&mut self, count: usize, mut name: impl FnMut(usize) -> String) {
        for index in self.names.len()..count {
            self.names.push(name(index));
            self.ids.push(ChunkId([0; 32]));
        }
    }

    /// Hash the changed sections and compute the root over every id.
    fn root(&mut self) -> ChunkId {
        let mut start = 0;
        for &(index, end) in &self.changed {
            self.ids[index] = ChunkId::of(&self.bytes[start..end]);
            start = end;
        }
        self.changed.clear();
        self.bytes.clear();
        sections_root(&self.names, &self.ids)
    }

    /// Section `index`'s id at the last mark.
    pub(crate) fn id(&self, index: usize) -> Option<ChunkId> {
        self.ids.get(index).copied()
    }
}

/// A recording's blocks. The thread frames records into `out` and seals
/// each block it completes; the event loop lands the sealed blocks
/// while it holds the work, so the landing travels with it but only the
/// event loop touches the sink.
struct Recording {
    next_seq: u64,
    /// The unfinished block (the first one after the header), then this
    /// batch's records.
    out: Vec<u8>,
    /// Offsets in `out` where a sealed block ends.
    cuts: Vec<usize>,
    framer: Framer,
    landing: Landing,
}

impl Recording {
    fn new(sink: Box<dyn JournalSink>, snap_every: u64) -> Self {
        let full = BATCH * (MAX_RECORD_FIXED + LABEL_BYTES) + ROOT_HEX;
        let mut out = Vec::with_capacity(BLOCK_CAPACITY + full);
        push_header(&mut out, snap_every);
        Recording {
            next_seq: 0,
            out,
            cuts: Vec::with_capacity(full / BLOCK + 2),
            framer: Framer::new(),
            landing: Landing::new(sink),
        }
    }

    /// Thread: frame one record; a block that reaches [`BLOCK`] bytes is
    /// sealed after it, as it would be in [`crate::JournalWriter`].
    fn frame(&mut self, raw: &Raw, label: &[u8]) {
        let Raw {
            at,
            endpoint,
            a,
            b,
            kind,
            ..
        } = *raw;
        let seq = self.next_seq;
        self.next_seq += 1;
        let out = &mut self.out;
        self.framer.push(out, seq, at, kind, endpoint, a, b, label);
        if out.len() - self.cuts.last().unwrap_or(&0) >= BLOCK {
            self.framer.seal(out);
            self.cuts.push(out.len());
        }
    }

    /// Event loop: land every block the last batch sealed, and move the
    /// unfinished one to the front.
    fn land(&mut self) {
        let mut from = 0;
        for &cut in &self.cuts {
            self.landing.land(&self.out[from..cut]);
            from = cut;
        }
        self.out.drain(..from);
        self.framer.shift(from);
        self.cuts.clear();
    }

    /// Event loop, after [`Recording::land`]: seal and land the
    /// unfinished block too; the next record opens a new one.
    fn land_tail(&mut self) {
        self.framer.seal(&mut self.out);
        self.landing.land(&self.out);
        self.out.clear();
    }

    /// Event loop: room for `bound` more bytes of records and the blocks
    /// they open. The unfinished block in `out` is under [`BLOCK`], so
    /// they seal at most `bound / BLOCK + 2` blocks (counting the bytes
    /// of the frames they open) and open one more.
    fn reserve(&mut self, bound: usize) {
        let opens = bound / BLOCK + 3;
        self.out.reserve(bound + opens * MAX_BLOCK_OPEN);
        self.cuts.reserve(opens);
    }
}

/// What the thread does with each record. Either role carries its
/// block's tables inline; the role lives in the boxed [`Work`], one per
/// session, and is moved once, when the session starts.
#[allow(clippy::large_enum_variant)]
enum Role {
    Record(Recording),
    Verify(Verifier),
}

impl Role {
    fn take(&mut self, raw: &Raw, label: &[u8]) {
        match self {
            Role::Record(recording) => recording.frame(raw, label),
            Role::Verify(verifier) => {
                verifier.check(raw.at, raw.kind, raw.endpoint, raw.a, raw.b, label)
            }
        }
    }
}

/// Everything the journal thread works on. It is with the event loop or
/// with the thread, never both.
pub(crate) struct Work {
    batch: Batch,
    pub(crate) sections: Sections,
    role: Role,
}

impl Work {
    /// The thread's side: frame or check the batch, in order.
    fn run(&mut self) {
        let Work {
            batch,
            sections,
            role,
        } = self;
        let mut start = 0;
        for raw in &batch.records {
            let end = raw.label_end as usize;
            role.take(raw, &batch.labels[start..end]);
            start = end;
        }
        if let Some(mark) = &batch.mark {
            let mut hex = [0; ROOT_HEX];
            role.take(mark, sections.root().hex_into(&mut hex).as_bytes());
        }
    }
}

/// Where the work waits between the stages.
enum Post {
    /// With the event loop.
    Empty,
    ToThread(Box<Work>),
    ToLoop(Box<Work>),
    /// The session is over: the thread returns.
    Close,
    /// The thread panicked; the work is gone.
    Died,
}

/// How long a side polls the mailbox, yielding its CPU between looks,
/// before it sleeps on the condition variable. A batch arrives at every
/// mark — every ≈ 0.5 ms of `chaos_journaled` — and a thread that slept
/// can take longer than that to wake when its CPU went idle (on a
/// two-vCPU virtual machine, mostly 10–100 µs and now and then several
/// ms), so a session that is busy never puts its journal thread to
/// sleep.
const POLL: Duration = Duration::from_millis(1);

/// The one-slot channel between the event loop and its journal thread.
/// Only one side ever waits, so one condition variable serves both.
struct Mailbox {
    post: Mutex<Post>,
    bell: Condvar,
}

impl Mailbox {
    fn lock(&self) -> MutexGuard<'_, Post> {
        self.post.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn put(&self, post: Post) {
        *self.lock() = post;
        self.bell.notify_one();
    }

    /// Wait until `pick` takes what is posted (it leaves what it does
    /// not want in place): poll for [`POLL`], then sleep.
    fn wait<T>(&self, mut pick: impl FnMut(&mut Post) -> Option<T>) -> T {
        let start = Instant::now();
        while start.elapsed() < POLL {
            if let Ok(mut post) = self.post.try_lock() {
                if let Some(taken) = pick(&mut post) {
                    return taken;
                }
            }
            std::thread::yield_now();
        }
        let mut post = self.lock();
        loop {
            if let Some(taken) = pick(&mut post) {
                return taken;
            }
            post = self.bell.wait(post).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Posts `Died` if the thread unwinds, so the event loop stops waiting.
struct DiesLoudly<'a>(&'a Mailbox);

impl Drop for DiesLoudly<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.put(Post::Died);
        }
    }
}

/// The journal thread's loop: take the work, run its batch, give it back.
fn serve(mailbox: &Mailbox) {
    let _loud = DiesLoudly(mailbox);
    while let Some(mut work) = mailbox.wait(|post| match std::mem::replace(post, Post::Empty) {
        Post::ToThread(work) => Some(Some(work)),
        Post::Close => Some(None),
        other => {
            *post = other;
            None
        }
    }) {
        work.run();
        mailbox.put(Post::ToLoop(work));
    }
}

/// The event loop's side of a session.
pub(crate) struct Pipeline {
    /// The batch being filled.
    filling: Batch,
    /// The work, while the event loop holds it.
    home: Option<Box<Work>>,
    mailbox: Arc<Mailbox>,
    thread: Option<JoinHandle<()>>,
}

impl Pipeline {
    /// Record to `sink`.
    pub(crate) fn record(sink: Box<dyn JournalSink>, snap_every: u64) -> Self {
        Self::start(Role::Record(Recording::new(sink, snap_every)))
    }

    /// Check against a reference journal.
    pub(crate) fn verify(verifier: Verifier) -> Self {
        Self::start(Role::Verify(verifier))
    }

    fn start(role: Role) -> Self {
        let mailbox = Arc::new(Mailbox {
            post: Mutex::new(Post::Empty),
            bell: Condvar::new(),
        });
        let theirs = mailbox.clone();
        let thread = std::thread::Builder::new()
            .name("legion-journal".into())
            .spawn(move || serve(&theirs))
            .expect("spawn the journal thread");
        let mut pipeline = Pipeline {
            filling: Batch::new(),
            home: Some(Box::new(Work {
                batch: Batch::new(),
                sections: Sections::default(),
                role,
            })),
            mailbox,
            thread: Some(thread),
        };
        // One empty round trip: whatever the thread does on its first
        // run is done before the session notes anything.
        pipeline.dispatch();
        pipeline.work().expect(THREAD_DIED);
        pipeline
    }

    /// Note one record. Not inlined into the kernel's step: the step
    /// stays the size it is with the journal off.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn push(
        &mut self,
        at: u64,
        kind: RecordKind,
        endpoint: u64,
        a: u64,
        b: u64,
        label: &str,
    ) {
        let batch = &mut self.filling;
        batch.labels.extend_from_slice(label.as_bytes());
        batch.records.push(Raw {
            at,
            endpoint,
            a,
            b,
            label_end: batch.labels.len() as u32,
            kind,
        });
        if batch.records.len() >= BATCH {
            self.send().expect(THREAD_DIED);
        }
    }

    /// The work, waiting for the thread to give it back if it has it;
    /// `None` if the thread died.
    pub(crate) fn work(&mut self) -> Option<&mut Work> {
        if self.home.is_none() {
            self.home = self
                .mailbox
                .wait(|post| match std::mem::replace(post, Post::Empty) {
                    Post::ToLoop(work) => Some(Some(work)),
                    Post::Died => {
                        *post = Post::Died;
                        Some(None)
                    }
                    other => {
                        *post = other;
                        None
                    }
                });
        }
        self.home.as_deref_mut()
    }

    fn dispatch(&mut self) {
        let work = self.home.take().expect("the event loop holds the work");
        self.mailbox.put(Post::ToThread(work));
    }

    /// Land what the last batch framed, make room for the filling one,
    /// and send it.
    fn send(&mut self) -> Option<()> {
        self.land()?;
        let Pipeline { filling, home, .. } = self;
        let work = home.as_deref_mut()?;
        if let Role::Record(recording) = &mut work.role {
            recording.reserve(filling.frame_bound());
        }
        work.batch.clear();
        std::mem::swap(&mut work.batch, filling);
        self.dispatch();
        Some(())
    }

    /// Take the work back and land the blocks its last batch completed.
    fn land(&mut self) -> Option<&mut Work> {
        let work = self.work()?;
        if let Role::Record(recording) = &mut work.role {
            recording.land();
        }
        Some(work)
    }

    /// A changed section's bytes, for the mark being taken.
    pub(crate) fn section(&mut self, index: usize, bytes: &[u8]) {
        self.work().expect(THREAD_DIED).sections.push(index, bytes);
    }

    /// End the batch with a mark over `count` sections, naming new ones
    /// with `name`, and send it.
    pub(crate) fn mark(
        &mut self,
        at: u64,
        count: usize,
        ordinal: u64,
        name: impl FnMut(usize) -> String,
    ) {
        let work = self.work().expect(THREAD_DIED);
        work.sections.grow(count, name);
        self.filling.mark = Some(Raw {
            at,
            endpoint: 0,
            a: count as u64,
            b: ordinal,
            label_end: 0,
            kind: RecordKind::Snapshot,
        });
        self.send().expect(THREAD_DIED);
    }

    /// Barrier: everything noted so far is framed and landed, or
    /// checked. The session goes on from here.
    fn barrier(&mut self) -> Option<&mut Work> {
        self.send()?;
        let work = self.land()?;
        if let Role::Record(recording) = &mut work.role {
            recording.land_tail();
        }
        Some(work)
    }

    /// Barrier, then flush the sink (recording) or require the whole
    /// reference journal to have been consumed (verifying). `records`
    /// and `snapshots` are the event loop's counts.
    pub(crate) fn finish(
        &mut self,
        records: u64,
        snapshots: u64,
    ) -> Result<(JournalSummary, Option<Divergence>), JournalError> {
        match &mut self.barrier().expect(THREAD_DIED).role {
            Role::Verify(verifier) => {
                let summary = JournalSummary {
                    snapshots,
                    ..verifier.finish()
                };
                Ok((summary, verifier.divergence.clone()))
            }
            Role::Record(recording) => {
                recording.landing.finish()?;
                let summary = JournalSummary {
                    records,
                    snapshots,
                    bytes: recording.landing.accepted(),
                    ..JournalSummary::default()
                };
                Ok((summary, None))
            }
        }
    }

    /// The section table, to hand to the next session.
    pub(crate) fn sections(&mut self) -> &mut Sections {
        &mut self.work().expect(THREAD_DIED).sections
    }
}

impl Drop for Pipeline {
    /// A session that ends without `finish` — a panic, an early return —
    /// still lands what it framed; then the thread is told to stop.
    /// Errors have nowhere to go from here.
    fn drop(&mut self) {
        if let Some(Role::Record(recording)) = self.barrier().map(|work| &mut work.role) {
            let _ = recording.landing.finish();
        }
        self.mailbox.put(Post::Close);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}
