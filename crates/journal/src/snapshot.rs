//! Content-addressed state snapshots.
//!
//! A snapshot materializes the kernel's deterministic state as named
//! **sections** (core counters, RNG, event queue, one per endpoint…),
//! each hashed to a [`ChunkId`]. A section that did not change between
//! snapshots keeps its id and is neither re-encoded nor re-hashed —
//! snapshots are incremental by construction.
//!
//! The **state root** — a hash over the ordered (section name, chunk id)
//! list — names the whole state in one value. Two runs whose roots match
//! at a snapshot point have byte-identical serialized state there; the
//! journal stores the root in the snapshot mark record, which is how a
//! replay proves it has reconstructed the recorded state.
//!
//! The journal is authoritative and a snapshot is a cache of it, so the
//! recorder keeps **one generation**: the section bytes of the latest
//! snapshot (what a restore would read) and, of every earlier one, its
//! [`SnapshotMeta`] alone. What a run retains is bounded by the size of
//! its state, not by how long it ran.

use legion_persist::cas::{ChunkId, Sha256};

/// What a run keeps of every snapshot it took: where the mark sits and
/// the root it carries. Fixed size — no section list, no bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// 0-based snapshot number within the run.
    pub ordinal: u64,
    /// Virtual time the snapshot was taken.
    pub at: u64,
    /// Journal seq of the snapshot mark record.
    pub seq: u64,
    /// Hash over the ordered (section, chunk) list.
    pub root: ChunkId,
    /// Sections whose bytes this snapshot replaced in the store.
    pub new_chunks: u64,
    /// Sections carried over from the previous snapshot as they were.
    pub unchanged: u64,
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

/// One section of the latest generation: its id and the bytes behind it,
/// in a buffer the next generation overwrites.
#[derive(Debug, Clone)]
struct Held {
    id: ChunkId,
    bytes: Vec<u8>,
}

/// A run's snapshot marks plus the section bytes of the latest one.
///
/// Sections are **positional**: position `i` is the same section in
/// every snapshot of a run, and new sections are appended. A snapshot is
/// taken in two steps so that a caller who knows which sections changed
/// pays only for those: [`SnapshotStore::put`] each changed section's
/// bytes at its position, keeping the returned id, then
/// [`SnapshotStore::take`] the full list of names and ids.
#[derive(Debug, Default, Clone)]
pub struct SnapshotStore {
    /// Section names by position; grown, never rebuilt.
    names: Vec<String>,
    /// The latest generation, by position.
    held: Vec<Held>,
    snaps: Vec<SnapshotMeta>,
    /// Sections `put` replaced since the last `take`.
    fresh_chunks: u64,
}

impl SnapshotStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hold `bytes` as the section at position `pos` (an existing one,
    /// or the next new one) ahead of [`SnapshotStore::take`]. Bytes that
    /// hash to the id already held there are not copied.
    pub fn put(&mut self, pos: usize, bytes: &[u8]) -> ChunkId {
        let id = ChunkId::of(bytes);
        match self.held.get_mut(pos) {
            Some(held) if held.id == id => return id,
            Some(held) => {
                held.id = id;
                held.bytes.clear();
                held.bytes.extend_from_slice(bytes);
            }
            None => {
                assert_eq!(pos, self.held.len(), "sections are appended in order");
                self.held.push(Held {
                    id,
                    bytes: bytes.to_vec(),
                });
            }
        }
        self.fresh_chunks += 1;
        id
    }

    /// Record a snapshot taken at virtual time `at`, whose mark record
    /// will be journal seq `seq`, of sections `names` whose bytes — `put`
    /// at their positions, now or for an earlier snapshot — have the
    /// chunk ids `ids`. Names beyond those already known are new
    /// sections; the known prefix is not compared again.
    pub fn take<N: AsRef<str>>(
        &mut self,
        at: u64,
        seq: u64,
        names: &[N],
        ids: &[ChunkId],
    ) -> &SnapshotMeta {
        assert_eq!(ids.len(), self.held.len(), "every section must be put");
        debug_assert!(
            self.held.iter().zip(ids).all(|(held, id)| held.id == *id),
            "the ids taken are the ids held"
        );
        let known = self.names.len();
        self.names
            .extend(names[known..].iter().map(|n| n.as_ref().to_owned()));
        let new_chunks = std::mem::take(&mut self.fresh_chunks);
        self.snaps.push(SnapshotMeta {
            ordinal: self.snaps.len() as u64,
            at,
            seq,
            root: sections_root(names, ids),
            new_chunks,
            unchanged: ids.len() as u64 - new_chunks,
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

    /// Section names by position.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Section bytes held — the latest generation's, whatever the number
    /// of snapshots taken.
    pub fn stored_bytes(&self) -> u64 {
        self.held.iter().map(|h| h.bytes.len() as u64).sum()
    }

    /// The bytes of one section of the **latest** snapshot. Earlier
    /// generations are not kept; their ordinals answer `None`.
    pub fn section(&self, ordinal: u64, name: &str) -> Option<&[u8]> {
        if ordinal + 1 != self.snaps.len() as u64 {
            return None;
        }
        let pos = self.names.iter().position(|n| n == name)?;
        Some(&self.held[pos].bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Snapshot two sections the way a caller that tracks nothing does:
    /// put both, take both.
    fn take(store: &mut SnapshotStore, at: u64, seq: u64, core: &str, queue: &str) -> SnapshotMeta {
        let ids = [
            store.put(0, core.as_bytes()),
            store.put(1, queue.as_bytes()),
        ];
        *store.take(at, seq, &["core", "queue"], &ids)
    }

    #[test]
    fn snapshots_dedup_unchanged_sections() {
        let mut store = SnapshotStore::new();
        let s0 = take(&mut store, 100, 5, "state-a", "q1");
        assert_eq!((s0.new_chunks, s0.unchanged), (2, 0));
        // Only the queue changed: core's bytes are not stored again.
        let s1 = take(&mut store, 200, 9, "state-a", "q2");
        assert_eq!((s1.new_chunks, s1.unchanged), (1, 1));
        assert_ne!(s0.root, s1.root);
        assert_eq!(store.section(1, "queue").unwrap(), b"q2");
        // One generation is held: the queue's earlier bytes are gone,
        // and so is the ordinal that named them.
        assert_eq!(store.stored_bytes(), ("state-a".len() + "q2".len()) as u64);
        assert_eq!(store.section(0, "queue"), None);
        // The earlier state again: the same root, and the queue — which
        // differs from the generation held — is stored again.
        let s2 = take(&mut store, 300, 14, "state-a", "q1");
        assert_eq!((s2.new_chunks, s2.unchanged), (1, 1));
        assert_eq!(s2.root, s0.root);
        assert_eq!(store.section(2, "queue").unwrap(), b"q1");
    }

    #[test]
    fn remembered_ids_stand_in_for_unchanged_sections() {
        let mut store = SnapshotStore::new();
        let s0 = take(&mut store, 100, 5, "state-a", "q1");
        // The caller knows core did not change: it puts the queue alone
        // and hands back the id it remembers for core.
        let ids = [ChunkId::of(b"state-a"), store.put(1, b"q2")];
        let s1 = *store.take(200, 9, &["core", "queue"], &ids);
        assert_eq!((s1.new_chunks, s1.unchanged), (1, 1));
        assert_eq!(s1.root, state_root(&[("core", "state-a"), ("queue", "q2")]));
        assert_ne!(s1.root, s0.root);
        assert_eq!(store.section(1, "core").unwrap(), b"state-a");
        // A new section is appended; the known names are not re-read.
        let ids = [ids[0], ids[1], store.put(2, b"e")];
        let s2 = *store.take(300, 14, &["core", "queue", "ep0"], &ids);
        assert_eq!((s2.new_chunks, s2.unchanged), (1, 2));
        assert_eq!(store.names(), ["core", "queue", "ep0"]);
        assert_eq!(store.section(2, "ep0").unwrap(), b"e");
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
        let s1 = take(&mut store, 200, 2, "b", "2");
        take(&mut store, 300, 3, "c", "3");
        assert_eq!(store.latest().unwrap().at, 300);
        // Time travel works from the metas: the root to verify against
        // outlives the bytes it was computed from.
        assert_eq!(store.latest_at_or_before(250), Some(&s1));
        assert_eq!(s1.root, state_root(&[("core", "b"), ("queue", "2")]));
        assert_eq!(store.latest_at_or_before(200).unwrap().at, 200);
        assert!(store.latest_at_or_before(50).is_none());
        assert_eq!(store.section(2, "core").unwrap(), b"c");
        assert_eq!(store.section(1, "core"), None, "one generation is held");
        assert_eq!(store.section(2, "missing"), None);
    }

    /// Ten thousand snapshots of a state whose queue differs every time
    /// and changes size: the store holds the last generation's bytes and
    /// a fixed-size mark per snapshot, nothing that grows with the run.
    #[test]
    fn ten_thousand_snapshots_hold_one_generation() {
        fn fixed_size<T: Copy>() {}
        fixed_size::<SnapshotMeta>();

        let mut store = SnapshotStore::new();
        let queue_at = |i: u64| format!("queue-{i}-{}", "x".repeat((i % 97) as usize));
        let mut roots = Vec::new();
        for i in 0..10_000u64 {
            let core = if i % 10 == 0 { "core-a" } else { "core-b" };
            roots.push(take(&mut store, 100 * i, 7 * i, core, &queue_at(i)).root);
        }
        assert_eq!(store.snapshots().len(), 10_000);
        let last = queue_at(9_999);
        assert_eq!(store.stored_bytes(), ("core-b".len() + last.len()) as u64);
        assert_eq!(store.section(9_999, "queue").unwrap(), last.as_bytes());
        // Every generation's root is still there to verify against.
        for t in [0, 4_321, 9_999] {
            let meta = store.latest_at_or_before(100 * t + 50).unwrap();
            assert_eq!(
                (meta.ordinal, meta.seq, meta.root),
                (t, 7 * t, roots[t as usize])
            );
            assert_eq!(
                meta.root,
                state_root(&[
                    ("core", if t % 10 == 0 { "core-a" } else { "core-b" }),
                    ("queue", &queue_at(t)),
                ])
            );
        }
    }
}
