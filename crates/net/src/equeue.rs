//! # The kernel event queue — a binary heap of keys over a value slab
//!
//! The DES kernel's hottest structure. Every accepted send, timer, and
//! start lands here and is popped back out in deterministic
//! `(time, insertion seq)` order.
//!
//! ## Layout: keys in the heap, values in a slab
//!
//! What the heap orders and sifts is a 24-byte key — `(at, seq)` plus
//! the index of a slab slot. The value itself (the kernel's `Event`, 64
//! bytes; a delivery names its message by a handle into the kernel's
//! message store rather than carrying it) is written into its slab slot
//! once by `push` and taken out once by `pop`; nothing in between
//! touches it. Freed slots go on a LIFO free list and are reused before
//! the slab grows, so the slab is bounded by the queue's own peak and
//! the slot handed out next is the one most recently warm.
//!
//! A heap is enough here: the queue holds at most a few hundred events
//! even when a million LOIDs pass through the kernel (E17), so a push or
//! pop costs a handful of 24-byte key comparisons and moves. Two choices
//! keep that handful small, and each was measured on the benchmark's
//! `chaos_journaled` workload, whose set-up (a warm wave of 560 000
//! kernel events over about 300 pending ones) a plain
//! `BinaryHeap<Reverse<(at, seq, slot)>>` slowed by about a quarter
//! against the hierarchical timer wheel this queue replaced:
//!
//! * a key compares `(at, seq)` as one `u128`, without a branch;
//! * `pop` leaves its key on top of the heap, and a push straight after
//!   it (a handler's send, the kernel's common case) overwrites that key
//!   and sifts it down from the top, once.
//!
//! With both, that set-up reads within a few percent of the wheel's.
//!
//! ## Determinism contract
//!
//! The pop order is **exactly** ascending `(at, seq)`: the kernel's
//! `seq` is unique, so the key order is total. Every golden transcript,
//! trace, metrics snapshot, and journal byte depends on this; the
//! property tests at the bottom pit the queue against a `BTreeMap`
//! reference model over randomized schedules to hold the line. A push
//! may key an entry before the last one popped (an event injected after
//! `run_until` moved the clock); it pops next, in key order like any
//! other.
//!
//! ## Allocation contract
//!
//! The heap, the slab and its free list all retain their capacity across
//! waves (none ever shrinks): in steady state a push/pop cycle touches no
//! allocator. `alloc_budget` gates this transitively through the
//! per-message budget; the queue itself allocates only while a fresh
//! capacity high-water mark is being established, and then holds one
//! key and one value per entry of that peak.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What the heap orders: an entry's `(at, seq)` and the index of its
/// value in [`EventQueue::slab`]. `seq` is unique, so no two keys in one
/// queue compare equal.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Key {
    at: u64,
    seq: u64,
    slot: u32,
}

impl Key {
    /// `(at, seq)` as one number. Comparing it takes no branch, where the
    /// pair's comparison branches on `at`, a branch a sift mispredicts.
    fn order(self) -> u128 {
        u128::from(self.at) << 64 | u128::from(self.seq)
    }
}

/// Reversed: `BinaryHeap` is a max-heap, and the least `(at, seq)` pops
/// first.
impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        other.order().cmp(&self.order())
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A total-order event queue keyed by `(at, seq)`, both `u64`, popping
/// in strictly ascending key order. `seq` must be unique per queue
/// lifetime (the kernel's insertion sequence number), which makes the
/// order total and the pop sequence deterministic.
pub struct EventQueue<T> {
    /// The pending entries' keys, under a stale top while `stale_top`.
    heap: BinaryHeap<Key>,
    /// The pending values, each at the index its key carries; `None`
    /// marks a free slot.
    slab: Vec<Option<T>>,
    /// Free slab slots, reused last-freed-first.
    free: Vec<u32>,
    /// The heap's top is the key of the entry `pop` took last. `pop`
    /// leaves it there because the kernel mostly pushes next (a handler
    /// sends): a push then replaces it with one sift down from the top,
    /// where removing it would have sifted the heap's full depth first.
    stale_top: bool,
    /// High-water mark of `len` over the queue's lifetime.
    peak: usize,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue; nothing is allocated until the first push.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            stale_top: false,
            peak: 0,
        }
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.heap.len() - usize::from(self.stale_top)
    }

    /// Is the queue empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The most entries the queue has ever held at once.
    pub fn peak_len(&self) -> usize {
        self.peak
    }

    /// Insert `value` keyed `(at, seq)`. `seq` must be unique.
    pub fn push(&mut self, at: u64, seq: u64, value: T) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(value);
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("under 2^32 pending events");
                self.slab.push(Some(value));
                slot
            }
        };
        let key = Key { at, seq, slot };
        if std::mem::take(&mut self.stale_top) {
            *self.heap.peek_mut().expect("a stale top is on the heap") = key;
        } else {
            self.heap.push(key);
        }
        self.peak = self.peak.max(self.len());
    }

    /// Key of the next entry to pop.
    pub fn peek_key(&mut self) -> Option<(u64, u64)> {
        self.drop_stale_top();
        self.heap.peek().map(|k| (k.at, k.seq))
    }

    /// Remove and return the entry with the smallest `(at, seq)`.
    pub fn pop(&mut self) -> Option<T> {
        self.drop_stale_top();
        let slot = self.heap.peek()?.slot;
        self.stale_top = true;
        self.free.push(slot);
        let value = self.slab[slot as usize].take();
        debug_assert!(value.is_some(), "a queued key's slot is occupied");
        value
    }

    /// Every pending entry with its handle, in unspecified order:
    /// [`EventQueue::get`] finds the entry again while the queue is not
    /// mutated, so a caller can sort handles in a buffer of its own that
    /// borrows nothing (snapshots sort by their own embedded keys).
    pub(crate) fn iter_handles(&self) -> impl Iterator<Item = (u32, &T)> {
        (0u32..)
            .zip(&self.slab)
            .filter_map(|(i, v)| Some((i, v.as_ref()?)))
    }

    /// The pending entry behind a handle from [`EventQueue::iter_handles`].
    pub(crate) fn get(&self, handle: u32) -> Option<&T> {
        self.slab.get(handle as usize)?.as_ref()
    }

    fn drop_stale_top(&mut self) {
        if std::mem::take(&mut self.stale_top) {
            self.heap.pop();
        }
    }
}

#[cfg(test)]
impl<T> EventQueue<T> {
    /// Heap bytes the queue holds on to, as `(keys, values)`: the
    /// heap's capacity, and the slab's plus its free list's.
    fn retained_bytes(&self) -> (usize, usize) {
        (
            self.heap.capacity() * std::mem::size_of::<Key>(),
            self.slab.capacity() * std::mem::size_of::<Option<T>>()
                + self.free.capacity() * std::mem::size_of::<u32>(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::{BTreeMap, BTreeSet};

    /// The reference model: the pending entries in a sorted map keyed by
    /// `(at, seq)`, each value its seq. Pops take the first key.
    type Model = BTreeMap<(u64, u64), u64>;

    fn push(q: &mut EventQueue<u64>, model: &mut Model, at: u64, seq: u64) {
        q.push(at, seq, seq);
        model.insert((at, seq), seq);
    }

    /// Peek and pop one entry from both, asserting they agree; the key
    /// popped, if any.
    fn pop_both(q: &mut EventQueue<u64>, model: &mut Model) -> Option<(u64, u64)> {
        let expect = model.pop_first();
        assert_eq!(q.peek_key(), expect.map(|(k, _)| k), "peek diverged");
        assert_eq!(q.pop(), expect.map(|(_, v)| v), "pop diverged");
        expect.map(|(k, _)| k)
    }

    fn drain(q: &mut EventQueue<u64>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some((at, seq)) = q.peek_key() {
            let v = q.pop().unwrap();
            assert_eq!(v, seq, "value rides with its key");
            out.push((at, seq));
        }
        out
    }

    /// The pending values as `iter_handles` lists them, each handle
    /// resolving through `get` to the value listed with it.
    fn pending(q: &EventQueue<u64>) -> BTreeSet<u64> {
        q.iter_handles()
            .map(|(h, v)| {
                assert_eq!(q.get(h), Some(v), "a listed handle finds its entry");
                *v
            })
            .collect()
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = EventQueue::new();
        // Distinct times and seqs, one time shared, inserted out of order.
        q.push(5_000, 2, 2);
        q.push(1_000, 7, 7);
        q.push(1_000, 3, 3);
        q.push(0, 9, 9);
        assert_eq!(
            drain(&mut q),
            vec![(0, 9), (1_000, 3), (1_000, 7), (5_000, 2)]
        );
        assert!(q.is_empty());
        assert_eq!(q.peak_len(), 4);
    }

    /// Keys anywhere in `u64`, up to a `u64::MAX` sentinel deadline,
    /// pushed latest first, pop earliest first.
    #[test]
    fn spans_the_whole_time_range() {
        let mut q = EventQueue::new();
        let mut expect: Vec<(u64, u64)> = (0..64u32).map(|b| (1u64 << b, u64::from(b))).collect();
        expect.push((u64::MAX, 99));
        for &(at, seq) in expect.iter().rev() {
            q.push(at, seq, seq);
        }
        assert_eq!(drain(&mut q), expect);
    }

    /// A push keyed before the last popped key (the kernel's clock may
    /// sit past it after `run_until`) pops next, still in key order.
    #[test]
    fn push_at_or_before_cursor_lands_in_order() {
        let mut q = EventQueue::new();
        q.push(100_000, 1, 1);
        q.push(200_000, 4, 4);
        assert_eq!(q.pop(), Some(1));
        q.push(50_000, 2, 2);
        q.push(100_000, 5, 5);
        q.push(100_001, 3, 3);
        assert_eq!(
            drain(&mut q),
            vec![(50_000, 2), (100_000, 5), (100_001, 3), (200_000, 4)]
        );
    }

    #[test]
    fn interleaved_drain_and_refill() {
        let mut q = EventQueue::new();
        for i in 0..10u64 {
            q.push(i * 10_000, i, i);
        }
        for i in 0..5u64 {
            assert_eq!(q.pop(), Some(i));
        }
        // Refill behind, among, and far ahead of what is pending.
        q.push(1, 100, 100);
        q.push(50_000, 101, 101);
        q.push(1 << 40, 102, 102);
        let rest = drain(&mut q);
        assert_eq!(
            rest.iter().map(|&(_, s)| s).collect::<Vec<_>>(),
            vec![100, 5, 101, 6, 7, 8, 9, 102]
        );
    }

    #[test]
    fn iter_visits_everything_once() {
        let mut q = EventQueue::new();
        for i in 0..100u64 {
            q.push(i * 3_000, i, i);
        }
        for i in 0..10u64 {
            assert_eq!(q.pop(), Some(i));
        }
        q.push(u64::MAX - 1, 100, 100);
        let listed: Vec<u64> = q.iter_handles().map(|(_, &v)| v).collect();
        assert_eq!(listed.len(), 91, "each pending entry once");
        assert_eq!(pending(&q), (10..=100).collect());
        assert_eq!(q.len(), 91);
    }

    /// The determinism contract: against the sorted-map model, over
    /// randomized interleaved push/pop schedules with bursts of equal
    /// timestamps and far-future outliers, the pop order is identical.
    /// Seeded `SmallRng` keeps the schedule reproducible.
    #[test]
    fn matches_btree_map_reference_model() {
        for seed in 0..20u64 {
            let mut rng = SmallRng::seed_from_u64(0xE0_0E + seed);
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut model = Model::new();
            let mut seq = 0u64;
            let mut clock = 0u64; // popped times are monotone; pushes land >= clock
            for _ in 0..400 {
                match rng.gen_range(0..10u32) {
                    // Push burst: a few entries, often sharing one time.
                    0..=5 => {
                        // Saturating: popping a u64::MAX sentinel parks
                        // `clock` at the top of the range.
                        let base = clock.saturating_add(rng.gen_range(0..200_000u64));
                        for _ in 0..rng.gen_range(1..6usize) {
                            let at = if rng.gen_bool(0.5) {
                                base // equal-timestamp burst
                            } else {
                                base.saturating_add(rng.gen_range(0..5_000u64))
                            };
                            push(&mut q, &mut model, at, seq);
                            seq += 1;
                        }
                    }
                    // Far-future outlier, sometimes a `u64::MAX` sentinel.
                    6 => {
                        let at = if rng.gen_bool(0.2) {
                            u64::MAX - rng.gen_range(0..3u64)
                        } else {
                            clock.saturating_add(1u64 << rng.gen_range(20..60u32))
                        };
                        push(&mut q, &mut model, at, seq);
                        seq += 1;
                    }
                    // Pop a few.
                    _ => {
                        for _ in 0..rng.gen_range(1..6usize) {
                            if let Some((at, _)) = pop_both(&mut q, &mut model) {
                                clock = at;
                            }
                        }
                    }
                }
                assert_eq!(q.len(), model.len(), "seed {seed}");
            }
            // Drain: the tails must match too.
            while pop_both(&mut q, &mut model).is_some() {}
            assert!(q.is_empty());
            assert_eq!(q.pop(), None);
        }
    }

    /// The same contract with slot reuse in play: a long interleaved
    /// schedule whose queue stays small while tens of thousands of
    /// entries pass through, so every slot is recycled many times over.
    /// After every step the pop order, `len`, `peak_len` and the exact
    /// pending set seen through `iter_handles` match the model, and no
    /// handle reaches the peak: the slab is bounded by it.
    #[test]
    fn recycled_slots_keep_order_len_peak_and_iter() {
        let mut rng = SmallRng::seed_from_u64(0x51AB);
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut model = Model::new();
        let (mut seq, mut clock, mut peak) = (0u64, 0u64, 0usize);
        for step in 0..6_000 {
            // Pushes and pops balance around a few dozen pending entries.
            let pushes = if model.len() < 40 { 6usize } else { 2 };
            for _ in 0..rng.gen_range(0..=pushes) {
                let at = match rng.gen_range(0..20u32) {
                    0 => u64::MAX - rng.gen_range(0..3u64),
                    1..=3 => clock.saturating_add(1u64 << rng.gen_range(14..44u32)),
                    _ => clock.saturating_add(rng.gen_range(0..300_000u64)),
                };
                push(&mut q, &mut model, at, seq);
                seq += 1;
            }
            peak = peak.max(model.len());
            for _ in 0..rng.gen_range(0..5usize) {
                // A popped far-future sentinel would pin the clock at the
                // top of the range; keep scheduling relative to real time.
                if let Some((at, _)) =
                    pop_both(&mut q, &mut model).filter(|&(at, _)| at < u64::MAX / 2)
                {
                    clock = at;
                }
            }
            assert_eq!(q.len(), model.len(), "len at step {step}");
            assert_eq!(q.peak_len(), peak, "peak at step {step}");
            assert_eq!(
                pending(&q),
                model.values().copied().collect(),
                "pending set at step {step}"
            );
            assert!(
                q.iter_handles().all(|(h, _)| (h as usize) < peak),
                "a handle at or past the peak {peak} (step {step})"
            );
        }
        assert!(
            seq as usize > 100 * peak,
            "{seq} entries through {peak} slots: each recycled many times"
        );
    }

    /// The heap's element is the 24-byte key, whatever the value's size.
    #[test]
    fn heap_entry_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Key>(), 24);
    }

    /// A burst of timers drained back out leaves the queue holding one
    /// key per entry of its peak in the heap and one value per entry in
    /// the slab: nothing is kept twice.
    #[test]
    fn drained_burst_keeps_one_key_and_one_value_footprint() {
        type Fat = [u64; 45]; // a 360-byte value, what an inline message made an event
        const BURST: usize = 10_000;
        let mut q: EventQueue<Fat> = EventQueue::new();
        for i in 0..BURST as u64 {
            // ~500 virtual ms out, spread over a few times.
            q.push(500_000_000 + (i % 7) * 1_000, i, [i; 45]);
        }
        let mut last = None;
        while let Some(v) = q.pop() {
            let key = Some((v[0] % 7, v[0]));
            assert!(key > last, "ascending (at, seq)");
            last = key;
        }
        assert_eq!(q.peak_len(), BURST);
        let (keys, values) = q.retained_bytes();
        let per_value = std::mem::size_of::<Option<Fat>>() + std::mem::size_of::<u32>();
        // `Vec` growth doubles, so each container holds under 2x its peak.
        assert!(
            (BURST * 24..2 * BURST * 24).contains(&keys),
            "one key footprint: {keys} B for {BURST} x 24 B"
        );
        assert!(
            (BURST * per_value..2 * BURST * per_value).contains(&values),
            "one value footprint: {values} B for {BURST} x {per_value} B"
        );
    }

    /// `run_until`-shaped usage: peek-bounded draining at a deadline,
    /// then injection of new work at or before the deadline.
    #[test]
    fn deadline_bounded_drain_matches_model() {
        let mut rng = SmallRng::seed_from_u64(77);
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut model = Model::new();
        for seq in 0..300u64 {
            push(&mut q, &mut model, rng.gen_range(0..3_000_000u64), seq);
        }
        let mut seq = 300u64;
        for deadline in [250_000u64, 900_000, 900_000, 2_100_000, u64::MAX] {
            while q.peek_key().is_some_and(|(at, _)| at <= deadline) {
                let (at, _) = pop_both(&mut q, &mut model).expect("peeked");
                // Handlers re-arm work relative to "now".
                if rng.gen_bool(0.3) {
                    push(&mut q, &mut model, at + rng.gen_range(0..2_000_000u64), seq);
                    seq += 1;
                }
            }
            assert!(model
                .first_key_value()
                .is_none_or(|(&(at, _), _)| at > deadline));
            // Post-deadline injection behind the clock, as a driver
            // attaching endpoints after `run_until` does.
            let at = deadline.saturating_sub(rng.gen_range(0..100_000u64));
            push(&mut q, &mut model, at, seq);
            seq += 1;
        }
        while pop_both(&mut q, &mut model).is_some() {}
        assert!(q.is_empty());
    }
}
