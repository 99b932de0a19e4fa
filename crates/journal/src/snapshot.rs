//! Content-addressed state snapshots.
//!
//! A snapshot materializes the kernel's deterministic state as named
//! **sections** (core counters, RNG, event queue, one per endpoint…),
//! each stored as a chunk in a content-addressed blob store. Sections
//! that did not change between snapshots hash to the same [`ChunkId`]
//! and are stored once — snapshots are incremental by construction, the
//! same trick the OPR vault uses for unchanged object checkpoints.
//!
//! The **state root** — a hash over the ordered (section name, chunk id)
//! list — names the whole state in one value. Two runs whose roots match
//! at a snapshot point have byte-identical serialized state there; the
//! journal stores the root in the snapshot mark record, which is how a
//! replay proves it has reconstructed the recorded state.

use legion_persist::cas::{BlobStore, ChunkId, MemBlobStore, Sha256};
use std::sync::Arc;

/// Metadata for one snapshot.
#[derive(Debug, Clone)]
pub struct SnapshotMeta {
    /// 0-based snapshot number within the run.
    pub ordinal: u64,
    /// Virtual time the snapshot was taken.
    pub at: u64,
    /// Journal seq of the snapshot mark record.
    pub seq: u64,
    /// Hash over the ordered (section, chunk) list.
    pub root: ChunkId,
    /// Section names in order — one list, shared by every consecutive
    /// snapshot with the same sections.
    pub names: Arc<[String]>,
    /// The chunk id of each section, aligned with `names`.
    pub ids: Vec<ChunkId>,
    /// Chunks this snapshot added to the store.
    pub new_chunks: u64,
    /// Chunks shared with earlier snapshots (the incremental win).
    pub deduped: u64,
}

impl SnapshotMeta {
    /// Every section with its chunk id, in order.
    pub fn sections(&self) -> impl Iterator<Item = (&str, ChunkId)> {
        self.names
            .iter()
            .map(String::as_str)
            .zip(self.ids.iter().copied())
    }
}

fn root_of<'a>(sections: impl Iterator<Item = (&'a str, ChunkId)>) -> ChunkId {
    let mut h = Sha256::new();
    for (name, id) in sections {
        h.update(&(name.len() as u64).to_le_bytes());
        h.update(name.as_bytes());
        h.update(&id.0);
    }
    ChunkId(h.finish())
}

/// Compute the state root of ordered section names and the chunk ids of
/// their bytes (`ids[i]` belongs to `names[i]`).
pub fn sections_root<N: AsRef<str>>(names: &[N], ids: &[ChunkId]) -> ChunkId {
    assert_eq!(names.len(), ids.len(), "one chunk id per section name");
    root_of(names.iter().map(AsRef::as_ref).zip(ids.iter().copied()))
}

/// Hash raw sections straight to a root without storing anything.
pub fn state_root<N: AsRef<str>, B: AsRef<[u8]>>(sections: &[(N, B)]) -> ChunkId {
    root_of(
        sections
            .iter()
            .map(|(name, bytes)| (name.as_ref(), ChunkId::of(bytes.as_ref()))),
    )
}

/// A run's snapshots plus the chunk store deduplicating their content.
///
/// A snapshot is taken in two steps so that a caller who knows which
/// sections changed pays only for those: [`SnapshotStore::put`] each
/// changed section's bytes, keeping the returned id, then
/// [`SnapshotStore::take`] the full list of names and ids — fresh ids
/// for what changed, remembered ones for what did not.
#[derive(Debug, Default, Clone)]
pub struct SnapshotStore {
    blobs: MemBlobStore,
    snaps: Vec<SnapshotMeta>,
    /// Chunks `put` added to the store since the last `take`.
    fresh_chunks: u64,
}

impl SnapshotStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store one section's bytes ahead of [`SnapshotStore::take`].
    pub fn put(&mut self, bytes: &[u8]) -> ChunkId {
        let (id, dup) = self.blobs.put(bytes);
        self.fresh_chunks += u64::from(!dup);
        id
    }

    /// Record a snapshot taken at virtual time `at`, whose mark record
    /// will be journal seq `seq`, of sections `names` whose bytes —
    /// already `put` into this store, now or for an earlier snapshot —
    /// have the chunk ids `ids`. Returns the new snapshot's metadata.
    pub fn take<N: AsRef<str>>(
        &mut self,
        at: u64,
        seq: u64,
        names: &[N],
        ids: &[ChunkId],
    ) -> &SnapshotMeta {
        debug_assert!(
            ids.iter().all(|id| self.blobs.contains(id)),
            "every section must have been put"
        );
        let root = sections_root(names, ids);
        let names = match self.snaps.last() {
            Some(prev)
                if prev
                    .names
                    .iter()
                    .map(String::as_str)
                    .eq(names.iter().map(N::as_ref)) =>
            {
                Arc::clone(&prev.names)
            }
            _ => names.iter().map(|n| n.as_ref().to_owned()).collect(),
        };
        let new_chunks = std::mem::take(&mut self.fresh_chunks);
        self.snaps.push(SnapshotMeta {
            ordinal: self.snaps.len() as u64,
            at,
            seq,
            root,
            names,
            ids: ids.to_vec(),
            new_chunks,
            deduped: (ids.len() as u64).saturating_sub(new_chunks),
        });
        self.snaps.last().expect("just pushed")
    }

    /// All snapshots in order.
    pub fn snapshots(&self) -> &[SnapshotMeta] {
        &self.snaps
    }

    /// The most recent snapshot.
    pub fn latest(&self) -> Option<&SnapshotMeta> {
        self.snaps.last()
    }

    /// The most recent snapshot at or before virtual time `t`.
    pub fn latest_at_or_before(&self, t: u64) -> Option<&SnapshotMeta> {
        self.snaps.iter().rev().find(|s| s.at <= t)
    }

    /// The backing chunk store.
    pub fn blobs(&self) -> &MemBlobStore {
        &self.blobs
    }

    /// Fetch one section of one snapshot.
    pub fn section(&self, ordinal: u64, name: &str) -> Option<Vec<u8>> {
        let snap = self.snaps.get(ordinal as usize)?;
        let (_, id) = snap.sections().find(|(n, _)| *n == name)?;
        self.blobs.get(&id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Snapshot two sections the way a caller that tracks nothing does:
    /// put both, take both.
    fn take(store: &mut SnapshotStore, at: u64, seq: u64, core: &str, queue: &str) -> SnapshotMeta {
        let ids = [store.put(core.as_bytes()), store.put(queue.as_bytes())];
        store.take(at, seq, &["core", "queue"], &ids).clone()
    }

    #[test]
    fn snapshots_dedup_unchanged_sections() {
        let mut store = SnapshotStore::new();
        let s0 = take(&mut store, 100, 5, "state-a", "q1");
        assert_eq!(s0.new_chunks, 2);
        assert_eq!(s0.deduped, 0);
        // Only the queue changed: core is shared with snapshot 0.
        let s1 = take(&mut store, 200, 9, "state-a", "q2");
        assert_eq!(s1.new_chunks, 1);
        assert_eq!(s1.deduped, 1);
        assert_ne!(s0.root, s1.root);
        assert_eq!(store.blobs().len(), 3);
        // Identical state later: fully deduplicated, same root.
        let s2 = take(&mut store, 300, 14, "state-a", "q1");
        assert_eq!(s2.new_chunks, 0);
        assert_eq!(s2.deduped, 2);
        assert_eq!(s2.root, s0.root);
    }

    #[test]
    fn remembered_ids_stand_in_for_unchanged_sections() {
        let mut store = SnapshotStore::new();
        let s0 = take(&mut store, 100, 5, "state-a", "q1");
        // The caller knows core did not change: it puts the queue alone
        // and hands back the id it remembers for core.
        let ids = [s0.ids[0], store.put(b"q2")];
        let s1 = store.take(200, 9, &["core", "queue"], &ids).clone();
        assert_eq!((s1.new_chunks, s1.deduped), (1, 1));
        assert_eq!(s1.root, state_root(&[("core", "state-a"), ("queue", "q2")]));
        assert_eq!(store.section(1, "core").unwrap(), b"state-a");
        assert!(Arc::ptr_eq(&s0.names, &s1.names), "one shared name list");
        // A new section ends the sharing.
        let ids = [ids[0], ids[1], store.put(b"e")];
        let s2 = store.take(300, 14, &["core", "queue", "ep0"], &ids).clone();
        assert!(!Arc::ptr_eq(&s1.names, &s2.names));
        assert_eq!(s2.sections().last(), Some(("ep0", ids[2])));
    }

    #[test]
    fn root_depends_on_names_order_and_content() {
        let a = state_root(&[("core", "x"), ("queue", "y")]);
        let b = state_root(&[("core", "y"), ("queue", "x")]);
        assert_ne!(a, b);
        assert_ne!(state_root(&[("kore", "x")]), state_root(&[("core", "x")]));
        assert_eq!(
            state_root(&[("core", "x")]),
            sections_root(&["core"], &[ChunkId::of(b"x")])
        );
    }

    #[test]
    fn time_travel_lookup() {
        let mut store = SnapshotStore::new();
        take(&mut store, 100, 1, "a", "1");
        take(&mut store, 200, 2, "b", "2");
        take(&mut store, 300, 3, "c", "3");
        assert_eq!(store.latest().unwrap().at, 300);
        assert_eq!(store.latest_at_or_before(250).unwrap().at, 200);
        assert_eq!(store.latest_at_or_before(200).unwrap().at, 200);
        assert!(store.latest_at_or_before(50).is_none());
        assert_eq!(store.section(1, "core").unwrap(), b"b");
        assert_eq!(store.section(1, "missing"), None);
    }
}
