//! Binding caches (paper §3.5, §3.6, §4.1).
//!
//! "Bindings are first class entities that can be passed around the system
//! and cached within objects." Caches appear at three tiers (Fig. 17):
//! inside every object's communication layer, inside Binding Agents, and
//! inside class objects. All three use this [`BindingCache`]: an LRU with
//! per-entry expiry and hit/miss/stale accounting.
//!
//! The LRU is implemented as a slab-backed doubly linked list plus a hash
//! index — O(1) lookup, insert and eviction, suitable for the large agent
//! caches in the scalability experiments.

use legion_core::binding::Binding;
use legion_core::fxmap::FxBuildHasher;
use legion_core::loid::Loid;
use legion_core::time::SimTime;
use std::hash::BuildHasher;

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a live binding.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Lookups that found an entry but it had expired (counted as miss).
    pub expired: u64,
    /// Entries evicted for capacity.
    pub evictions: u64,
    /// Entries explicitly invalidated.
    pub invalidations: u64,
}

const NIL: usize = usize::MAX;

struct Node {
    binding: Binding,
    prev: usize,
    next: usize,
}

impl Node {
    fn new(binding: Binding) -> Self {
        Node {
            binding,
            prev: NIL,
            next: NIL,
        }
    }
}

/// The LOID → node index: open addressing with linear probing over
/// 8-byte slots, `0` for empty, else a 32-bit hash tag above the node's
/// slab position plus one. The keys stay in the slab, so a probe that
/// misses reads one line of 8-byte slots where a map keyed by 32-byte
/// LOIDs has 41-byte buckets; a tag match is confirmed against the node.
/// At most half full; deletion shifts the run back, so there are no
/// tombstones to slow the misses that dominate a cache under churn.
#[derive(Default)]
struct Index {
    slots: Vec<u64>,
    len: usize,
}

impl Index {
    const MIN_SLOTS: usize = 16;

    fn tag(loid: &Loid) -> u32 {
        // The multiply-rotate hash mixes upwards: keep the high word.
        (FxBuildHasher::default().hash_one(loid) >> 32) as u32
    }

    fn pack(tag: u32, node: usize) -> u64 {
        let node = u32::try_from(node + 1).expect("cache slab outgrew the index");
        u64::from(tag) << 32 | u64::from(node)
    }

    fn node(slot: u64) -> usize {
        (slot as u32 - 1) as usize
    }

    /// Walk the run that starts at `tag`'s home slot: the position and
    /// node of the first entry with this tag that `is_it` accepts, or
    /// the position of the empty slot that ends the run.
    fn probe(&self, tag: u32, is_it: impl Fn(usize) -> bool) -> Result<(usize, usize), usize> {
        let mask = self.slots.len() - 1;
        let mut pos = tag as usize & mask;
        loop {
            let slot = self.slots[pos];
            if slot == 0 {
                return Err(pos);
            }
            if (slot >> 32) as u32 == tag && is_it(Self::node(slot)) {
                return Ok((pos, Self::node(slot)));
            }
            pos = (pos + 1) & mask;
        }
    }

    /// The empty slot that ends `tag`'s run.
    fn vacancy(&self, tag: u32) -> usize {
        match self.probe(tag, |_| false) {
            Err(at) => at,
            Ok(_) => unreachable!("the predicate accepts nothing"),
        }
    }

    /// Make room for one more entry (before probing for its slot).
    fn reserve_one(&mut self) {
        if (self.len + 1) * 2 <= self.slots.len() {
            return;
        }
        let wider = (self.slots.len() * 2).max(Self::MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![0; wider]);
        for slot in old.into_iter().filter(|&s| s != 0) {
            let at = self.vacancy((slot >> 32) as u32);
            self.slots[at] = slot;
        }
    }

    /// Fill the empty slot a failed [`Index::probe`] ended at.
    fn fill(&mut self, at: usize, tag: u32, node: usize) {
        self.slots[at] = Self::pack(tag, node);
        self.len += 1;
    }

    /// Empty slot `at`, moving each later entry of the run that may
    /// move back to the hole (its home is not after the hole).
    fn remove_at(&mut self, mut at: usize) {
        let mask = self.slots.len() - 1;
        let mut next = (at + 1) & mask;
        while self.slots[next] != 0 {
            let home = (self.slots[next] >> 32) as usize & mask;
            if (next.wrapping_sub(home) & mask) >= (next.wrapping_sub(at) & mask) {
                self.slots[at] = self.slots[next];
                at = next;
            }
            next = (next + 1) & mask;
        }
        self.slots[at] = 0;
        self.len -= 1;
    }
}

/// An LRU + TTL cache from LOID to [`Binding`].
///
/// ```
/// use legion_core::address::{ObjectAddress, ObjectAddressElement};
/// use legion_core::binding::Binding;
/// use legion_core::loid::Loid;
/// use legion_core::time::SimTime;
/// use legion_naming::cache::BindingCache;
///
/// let mut cache = BindingCache::new(128);
/// let b = Binding::forever(
///     Loid::instance(16, 1),
///     ObjectAddress::single(ObjectAddressElement::sim(9)),
/// );
/// cache.insert(b.clone());
/// assert_eq!(cache.get(&b.loid, SimTime::ZERO), Some(b));
/// assert_eq!(cache.stats().hits, 1);
/// ```
pub struct BindingCache {
    index: Index,
    nodes: Vec<Node>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
    stats: CacheStats,
}

impl BindingCache {
    /// A cache holding at most `capacity` bindings (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        BindingCache {
            index: Index::default(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            stats: CacheStats::default(),
        }
    }

    /// Number of cached bindings (including not-yet-expired-checked ones).
    pub fn len(&self) -> usize {
        self.index.len
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.index.len == 0
    }

    /// Capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Reset statistics (not contents).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    // ----- linked-list plumbing ------------------------------------------

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Where `loid` sits in the index and in the slab.
    fn find(&self, loid: &Loid) -> Option<(usize, usize)> {
        if self.index.len == 0 {
            return None;
        }
        self.index
            .probe(Index::tag(loid), |n| self.nodes[n].binding.loid == *loid)
            .ok()
    }

    /// Take the node at index position `at` out of the list and the
    /// index and put it on the free list. Its binding stays in the slab
    /// until the node is reused, so dropping an entry clones nothing.
    fn unlink(&mut self, at: usize, idx: usize) {
        self.detach(idx);
        self.index.remove_at(at);
        self.free.push(idx);
    }

    /// The node an insert of `loid` writes to, detached and indexed
    /// under `loid`: the resident one, else a free one, else — at
    /// capacity — the LRU entry's, evicted in place. `nodes.len()`
    /// means the slab has to grow. Below capacity that is one probe.
    fn claim(&mut self, loid: Loid) -> usize {
        self.index.reserve_one();
        let tag = Index::tag(&loid);
        let nodes = &self.nodes;
        let at = match self.index.probe(tag, |n| nodes[n].binding.loid == loid) {
            Ok((_, idx)) => {
                self.detach(idx);
                return idx;
            }
            Err(at) => at,
        };
        if self.index.len < self.capacity {
            let idx = self.free.pop().unwrap_or(self.nodes.len());
            self.index.fill(at, tag, idx);
            return idx;
        }
        // Full (capacity ≥ 1), so there is a tail to evict; it is found
        // by its slab position, without reading its key back.
        let lru = self.tail;
        self.detach(lru);
        let (victim, _) = self
            .index
            .probe(Index::tag(&self.nodes[lru].binding.loid), |n| n == lru)
            .expect("the LRU node is indexed");
        self.index.remove_at(victim);
        self.stats.evictions += 1;
        self.index.fill(self.index.vacancy(tag), tag, lru);
        lru
    }

    // ----- public API ------------------------------------------------------

    /// Look up a live binding, refreshing its LRU position. Expired
    /// entries are removed and counted.
    pub fn get(&mut self, loid: &Loid, now: SimTime) -> Option<Binding> {
        let Some((at, idx)) = self.find(loid) else {
            self.stats.misses += 1;
            return None;
        };
        if !self.nodes[idx].binding.is_valid_at(now) {
            self.stats.expired += 1;
            self.unlink(at, idx);
            return None;
        }
        self.stats.hits += 1;
        self.detach(idx);
        self.push_front(idx);
        Some(self.nodes[idx].binding.clone())
    }

    /// [`BindingCache::get`] without the clone: same LRU refresh and
    /// stats, but hands back a borrow. The §5.2 hot path pairs this with
    /// `Ctx::binding_value` so a cache hit copies into a recycled shell
    /// instead of allocating a fresh one.
    pub fn get_ref(&mut self, loid: &Loid, now: SimTime) -> Option<&Binding> {
        let Some((at, idx)) = self.find(loid) else {
            self.stats.misses += 1;
            return None;
        };
        if !self.nodes[idx].binding.is_valid_at(now) {
            self.stats.expired += 1;
            self.unlink(at, idx);
            return None;
        }
        self.stats.hits += 1;
        self.detach(idx);
        self.push_front(idx);
        Some(&self.nodes[idx].binding)
    }

    /// Peek without touching LRU order or stats (for tests/inspection).
    pub fn peek(&self, loid: &Loid) -> Option<&Binding> {
        self.find(loid).map(|(_, idx)| &self.nodes[idx].binding)
    }

    /// [`BindingCache::insert`] from a borrow: the binding is copied
    /// field-wise into the node it lands in, so only a cache still
    /// growing its slab clones (and a replicated address refills the
    /// node's resident element buffer).
    pub fn insert_ref(&mut self, binding: &Binding) {
        let idx = self.claim(binding.loid);
        match self.nodes.get_mut(idx) {
            Some(node) => {
                node.binding.loid = binding.loid;
                node.binding.expiry = binding.expiry;
                node.binding.address.semantics = binding.address.semantics;
                let elements = &mut node.binding.address.elements;
                elements.clone_from(&binding.address.elements);
            }
            None => self.nodes.push(Node::new(binding.clone())),
        }
        self.push_front(idx);
    }

    /// Insert or replace a binding (`AddBinding`). Evicts the LRU entry
    /// when at capacity.
    pub fn insert(&mut self, binding: Binding) {
        let idx = self.claim(binding.loid);
        match self.nodes.get_mut(idx) {
            Some(node) => node.binding = binding,
            None => self.nodes.push(Node::new(binding)),
        }
        self.push_front(idx);
    }

    /// Remove any binding for `loid` (`InvalidateBinding(LOID)`).
    /// Returns the removed binding.
    pub fn invalidate(&mut self, loid: &Loid) -> Option<Binding> {
        let (at, idx) = self.find(loid)?;
        self.stats.invalidations += 1;
        self.unlink(at, idx);
        Some(self.nodes[idx].binding.clone())
    }

    /// Remove a binding only if it *exactly matches* the argument
    /// (`InvalidateBinding(binding)` — the paper's second overload).
    pub fn invalidate_exact(&mut self, binding: &Binding) -> bool {
        let Some((at, idx)) = self.find(&binding.loid) else {
            return false;
        };
        if &self.nodes[idx].binding != binding {
            return false;
        }
        self.stats.invalidations += 1;
        self.unlink(at, idx);
        true
    }

    /// Drop every entry.
    pub fn clear(&mut self) {
        self.index = Index::default();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// LOIDs currently cached, most recently used first.
    pub fn loids_mru_order(&self) -> Vec<Loid> {
        let mut out = Vec::with_capacity(self.len());
        let mut cur = self.head;
        while cur != NIL {
            out.push(self.nodes[cur].binding.loid);
            cur = self.nodes[cur].next;
        }
        out
    }
}

impl std::fmt::Debug for BindingCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BindingCache")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legion_core::address::{ObjectAddress, ObjectAddressElement};
    use legion_core::time::Expiry;

    fn b(seq: u64, ep: u64) -> Binding {
        Binding::forever(
            Loid::instance(16, seq),
            ObjectAddress::single(ObjectAddressElement::sim(ep)),
        )
    }

    /// The index alone, on tags picked to collide: every home is one of
    /// the last two slots of a 16-slot table, so runs wrap past the end,
    /// and removals from the front, middle and back of a run must leave
    /// every survivor reachable.
    #[test]
    fn index_runs_wrap_and_close_up_after_removal() {
        let tag = |n: usize| ((n as u32) << 8) | (14 + (n as u32 & 1));
        for gone in 0..6 {
            let mut ix = Index::default();
            for n in 0..6 {
                ix.reserve_one();
                let at = ix.probe(tag(n), |m| m == n).expect_err("absent");
                ix.fill(at, tag(n), n);
            }
            assert_eq!((ix.len, ix.slots.len()), (6, 16));
            let (at, n) = ix.probe(tag(gone), |m| m == gone).expect("present");
            assert_eq!(n, gone);
            ix.remove_at(at);
            assert_eq!(ix.len, 5);
            for n in 0..6 {
                let found = ix.probe(tag(n), |m| m == n).ok().map(|(_, m)| m);
                assert_eq!(
                    found,
                    (n != gone).then_some(n),
                    "node {n} after removing {gone}"
                );
            }
        }
    }

    #[test]
    fn index_grows_by_rehashing_tags() {
        let tag = |n: usize| (n as u32).wrapping_mul(0x9e37_79b9);
        let mut ix = Index::default();
        for n in 0..1000 {
            ix.reserve_one();
            let at = ix.probe(tag(n), |m| m == n).expect_err("absent");
            ix.fill(at, tag(n), n);
        }
        assert!(ix.slots.len() >= 2000 && ix.slots.len().is_power_of_two());
        for n in 0..1000 {
            assert_eq!(ix.probe(tag(n), |m| m == n).map(|(_, m)| m), Ok(n));
        }
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut c = BindingCache::new(4);
        c.insert(b(1, 10));
        let got = c.get(&Loid::instance(16, 1), SimTime::ZERO).unwrap();
        assert_eq!(got, b(1, 10));
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn miss_is_counted() {
        let mut c = BindingCache::new(4);
        assert!(c.get(&Loid::instance(16, 9), SimTime::ZERO).is_none());
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn expired_entries_are_removed_and_counted() {
        let mut c = BindingCache::new(4);
        let mut binding = b(1, 10);
        binding.expiry = Expiry::At(SimTime::from_secs(1));
        c.insert(binding);
        assert!(c
            .get(&Loid::instance(16, 1), SimTime::from_millis(500))
            .is_some());
        assert!(c
            .get(&Loid::instance(16, 1), SimTime::from_secs(2))
            .is_none());
        assert_eq!(c.stats().expired, 1);
        assert!(c.is_empty());
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = BindingCache::new(3);
        c.insert(b(1, 1));
        c.insert(b(2, 2));
        c.insert(b(3, 3));
        // Touch 1 so 2 becomes LRU.
        c.get(&Loid::instance(16, 1), SimTime::ZERO);
        c.insert(b(4, 4));
        assert_eq!(c.len(), 3);
        assert!(c.peek(&Loid::instance(16, 2)).is_none(), "2 evicted");
        assert!(c.peek(&Loid::instance(16, 1)).is_some());
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(
            c.loids_mru_order(),
            vec![
                Loid::instance(16, 4),
                Loid::instance(16, 1),
                Loid::instance(16, 3)
            ]
        );
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut c = BindingCache::new(2);
        c.insert(b(1, 1));
        c.insert(b(2, 2));
        c.insert(b(1, 99)); // replace, no eviction
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(
            c.get(&Loid::instance(16, 1), SimTime::ZERO).unwrap(),
            b(1, 99)
        );
    }

    #[test]
    fn invalidate_by_loid() {
        let mut c = BindingCache::new(4);
        c.insert(b(1, 1));
        assert_eq!(c.invalidate(&Loid::instance(16, 1)), Some(b(1, 1)));
        assert_eq!(c.invalidate(&Loid::instance(16, 1)), None);
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn invalidate_exact_requires_match() {
        let mut c = BindingCache::new(4);
        c.insert(b(1, 1));
        // Same LOID, different address: not removed.
        assert!(!c.invalidate_exact(&b(1, 99)));
        assert_eq!(c.len(), 1);
        assert!(c.invalidate_exact(&b(1, 1)));
        assert!(c.is_empty());
    }

    #[test]
    fn capacity_one_works() {
        let mut c = BindingCache::new(1);
        c.insert(b(1, 1));
        c.insert(b(2, 2));
        assert_eq!(c.len(), 1);
        assert!(c.peek(&Loid::instance(16, 2)).is_some());
    }

    #[test]
    fn clear_empties_everything() {
        let mut c = BindingCache::new(4);
        c.insert(b(1, 1));
        c.insert(b(2, 2));
        c.clear();
        assert!(c.is_empty());
        assert!(c.loids_mru_order().is_empty());
        // And the cache still works after clearing.
        c.insert(b(3, 3));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn heavy_churn_preserves_invariants() {
        let mut c = BindingCache::new(16);
        for i in 0..1000u64 {
            c.insert(b(i % 64, i));
            if i % 3 == 0 {
                c.get(&Loid::instance(16, i % 64), SimTime::ZERO);
            }
            if i % 7 == 0 {
                c.invalidate(&Loid::instance(16, (i + 1) % 64));
            }
            assert!(c.len() <= 16);
            assert_eq!(c.loids_mru_order().len(), c.len());
        }
    }
}
