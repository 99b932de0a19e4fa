//! # The kernel event queue — a hierarchical timer wheel
//!
//! The DES kernel's hottest structure. Every accepted send, timer, and
//! start lands here and is popped back out in deterministic
//! `(time, insertion seq)` order. The previous implementation was a
//! `BinaryHeap<Reverse<Event>>`: correct, but every push and pop pays
//! `O(log n)` full-key comparisons and sift traffic, and `peek` on the
//! deadline boundary re-ran the comparison chain per event.
//!
//! This module replaces it with a classic hierarchical timer wheel
//! (Varghese & Lauck's hashed/hierarchical wheels, the shape tokio and
//! kernel timer subsystems use), adapted for a *total-order* queue:
//!
//! * Virtual time is bucketed into ticks of `2^12` ns (4.096 µs). A hop
//!   in the simulated topology is ≥ 1 µs, so a tick holds a handful of
//!   co-scheduled events, not thousands.
//! * Eight levels of 64 slots each cover `2^48` ticks (≈ 36 simulated
//!   years) relative to the wheel cursor; the rare timer beyond that
//!   horizon (e.g. a `u64::MAX` sentinel deadline) parks in an unsorted
//!   `far` overflow list.
//! * A `ready` deque holds the entries of the *current* tick, sorted by
//!   `(at, seq)`. `pop` takes its front; `peek` is O(1) once the wheel
//!   has advanced to the next occupied tick (amortized O(1): each entry
//!   cascades down at most once per level).
//!
//! ## Layout: keys in the wheel, values in a slab
//!
//! What the wheel files, cascades, sorts and splices is a 24-byte
//! [`Key`] — `(at, seq)` plus the index of a slab slot. The value itself
//! (the kernel's `Event`, 88 bytes; a delivery names its message by a
//! handle into the kernel's message store rather than carrying it) is
//! written into its slab slot once by `push` and taken out once by
//! `pop`; nothing in between touches it. Freed slots go on a LIFO free
//! list and are reused before the slab grows, so the slab is bounded by
//! the queue's own peak and the slot handed out next is the one most
//! recently warm.
//!
//! ## Determinism contract
//!
//! The pop order is **exactly** ascending `(at, seq)` — the same total
//! order the `BinaryHeap` produced (the kernel's `seq` is unique, so the
//! heap's partial order was already total). Every golden transcript,
//! trace, metrics snapshot, and journal byte depends on this; the
//! property tests at the bottom pit the wheel against a `BinaryHeap`
//! reference model over randomized schedules to hold the line.
//!
//! Pushes at or before the cursor's tick (a handler scheduling work for
//! *now*, or an event injected after `run_until` advanced the clock)
//! binary-insert directly into `ready`, preserving the order contract
//! without rewinding the wheel.
//!
//! ## Allocation contract
//!
//! Slot vectors, the ready deque, the cascade scratch buffer, the slab
//! and its free list all retain their capacity across waves (none ever
//! shrinks): in steady state a push/pop cycle touches no allocator.
//! `alloc_budget` gates this transitively through the per-message budget;
//! the wheel itself allocates only while a fresh capacity high-water mark
//! is being established — and a burst that passes through several wheel
//! slots on its way down leaves 24 bytes per entry behind in each, while
//! the values' storage is retained once.

use std::collections::VecDeque;

/// log2 of the tick width in nanoseconds: 4096 ns per tick.
const TICK_SHIFT: u32 = 12;
/// log2 of the slots per level.
const LEVEL_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Wheel levels. `LEVELS * LEVEL_BITS` bits of tick horizon.
const LEVELS: usize = 8;
/// Bits of tick space the wheel spans; ticks at or beyond
/// `cursor + 2^HORIZON_BITS` overflow to `far`.
const HORIZON_BITS: u32 = (LEVELS as u32) * LEVEL_BITS;

/// What the wheel moves: the ordering key and where the value waits.
#[derive(Clone, Copy)]
struct Key {
    at: u64,
    seq: u64,
    /// Index into [`EventQueue::slab`].
    slot: u32,
}

/// A total-order event queue keyed by `(at, seq)`, both `u64`, popping
/// in strictly ascending key order. `seq` must be unique per queue
/// lifetime (the kernel's insertion sequence number), which makes the
/// order total and the pop sequence deterministic.
pub struct EventQueue<T> {
    /// Tick the wheel has advanced to; `ready` holds this tick's entries.
    cursor: u64,
    /// Entries with `tick(at) <= cursor`, sorted ascending by `(at, seq)`.
    ready: VecDeque<Key>,
    /// `LEVELS x SLOTS` buckets of future entries, unsorted within a slot.
    slots: Vec<Vec<Key>>,
    /// Per-level occupancy bitmap: bit `s` set iff `slots[level*SLOTS+s]`
    /// is non-empty.
    occupied: [u64; LEVELS],
    /// Entries beyond the wheel horizon (≈ 36 simulated years out).
    far: Vec<Key>,
    /// Scratch buffer reused by cascades to re-place a slot's entries.
    scratch: Vec<Key>,
    /// The pending values, each at the index its key carries; `None`
    /// marks a free slot.
    slab: Vec<Option<T>>,
    /// Free slab slots, reused last-freed-first.
    free: Vec<u32>,
    /// Live entry count.
    len: usize,
    /// High-water mark of `len` over the queue's lifetime.
    peak: usize,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue. Allocates the (empty) slot table; individual slot
    /// vectors allocate lazily on first use and keep their capacity.
    pub fn new() -> Self {
        let mut slots = Vec::with_capacity(LEVELS * SLOTS);
        slots.resize_with(LEVELS * SLOTS, Vec::new);
        EventQueue {
            cursor: 0,
            ready: VecDeque::new(),
            slots,
            occupied: [0; LEVELS],
            far: Vec::new(),
            scratch: Vec::new(),
            slab: Vec::new(),
            free: Vec::new(),
            len: 0,
            peak: 0,
        }
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the queue empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The most entries the queue has ever held at once.
    pub fn peak_len(&self) -> usize {
        self.peak
    }

    /// Insert `value` keyed `(at, seq)`. `seq` must be unique.
    pub fn push(&mut self, at: u64, seq: u64, value: T) {
        self.len += 1;
        if self.len > self.peak {
            self.peak = self.len;
        }
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
        self.place(Key { at, seq, slot });
    }

    /// Key of the next entry to pop, advancing the wheel to it.
    /// O(1) when `ready` is already populated.
    pub fn peek_key(&mut self) -> Option<(u64, u64)> {
        self.advance();
        self.ready.front().map(|e| (e.at, e.seq))
    }

    /// Remove and return the entry with the smallest `(at, seq)`.
    pub fn pop(&mut self) -> Option<T> {
        self.advance();
        let key = self.ready.pop_front()?;
        self.len -= 1;
        self.free.push(key.slot);
        let value = self.slab[key.slot as usize].take();
        debug_assert!(value.is_some(), "a filed key's slot is occupied");
        value
    }

    /// Visit every pending entry in unspecified order (snapshots sort by
    /// their own embedded keys).
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.slab.iter().flatten()
    }

    /// [`EventQueue::iter`] with each entry's handle: [`EventQueue::get`]
    /// finds the entry again while the queue is not mutated, so a caller
    /// can sort handles in a buffer of its own that borrows nothing.
    pub(crate) fn iter_handles(&self) -> impl Iterator<Item = (u32, &T)> {
        (0u32..)
            .zip(&self.slab)
            .filter_map(|(i, v)| Some((i, v.as_ref()?)))
    }

    /// The pending entry behind a handle from [`EventQueue::iter_handles`].
    pub(crate) fn get(&self, handle: u32) -> Option<&T> {
        self.slab.get(handle as usize)?.as_ref()
    }

    /// Route one entry to `ready`, a wheel slot, or `far`.
    fn place(&mut self, e: Key) {
        let t = e.at >> TICK_SHIFT;
        if t <= self.cursor {
            // Current (or past — e.g. injected after `run_until` moved
            // the clock) tick: keep `ready` sorted by binary insertion.
            let key = (e.at, e.seq);
            let idx = self.ready.partition_point(|r| (r.at, r.seq) < key);
            self.ready.insert(idx, e);
            return;
        }
        // Highest bit where the target tick differs from the cursor
        // decides the level; the slot is the tick's digit at that level.
        let diff = t ^ self.cursor;
        let high = 63 - diff.leading_zeros();
        if high >= HORIZON_BITS {
            self.far.push(e);
            return;
        }
        let level = (high / LEVEL_BITS) as usize;
        let slot = ((t >> (level as u32 * LEVEL_BITS)) as usize) & (SLOTS - 1);
        self.occupied[level] |= 1 << slot;
        self.slots[level * SLOTS + slot].push(e);
    }

    /// Advance the cursor to the next occupied tick and fill `ready`
    /// with that tick's entries, sorted. No-op while `ready` is
    /// non-empty; leaves `ready` empty only when the queue is empty.
    fn advance(&mut self) {
        while self.ready.is_empty() && self.len > 0 {
            let Some(level) = self.occupied.iter().position(|&o| o != 0) else {
                // Wheel empty: everything pending lives beyond the
                // horizon. Jump the cursor to the earliest far tick and
                // re-place; at least its entries land in `ready`.
                debug_assert!(!self.far.is_empty());
                let min_tick = self
                    .far
                    .iter()
                    .map(|e| e.at >> TICK_SHIFT)
                    .min()
                    .expect("far is non-empty");
                self.cursor = min_tick;
                let mut pending = std::mem::take(&mut self.far);
                for e in pending.drain(..) {
                    self.place(e);
                }
                self.far = pending; // keep the (now empty) buffer
                continue;
            };
            // Occupied slot indices at `level` are strictly greater than
            // the cursor's digit there (placement puts them ahead; the
            // cursor only catches up by landing *on* a slot, emptying
            // it), so the lowest set bit is the next stop.
            let slot = self.occupied[level].trailing_zeros() as usize;
            let level_shift = level as u32 * LEVEL_BITS;
            debug_assert!(slot > ((self.cursor >> level_shift) as usize) & (SLOTS - 1));
            // Move the cursor onto that slot's sub-block: digits above
            // stay, this level's digit becomes `slot`, digits below
            // reset to zero (the sub-block's start).
            let above = self.cursor >> (level_shift + LEVEL_BITS) << (level_shift + LEVEL_BITS);
            self.cursor = above | ((slot as u64) << level_shift);
            self.occupied[level] &= !(1 << slot);
            if level == 0 {
                // Level-0 slots are exact ticks: these entries *are* the
                // current tick. Sort and splice into the empty `ready`.
                let bucket = &mut self.slots[slot];
                bucket.sort_unstable_by_key(|e| (e.at, e.seq));
                self.ready.extend(bucket.drain(..));
            } else {
                // Higher levels cover a range of ticks: cascade the slot
                // down (each entry re-places at a strictly lower level,
                // or into `ready` when its tick equals the new cursor).
                std::mem::swap(&mut self.scratch, &mut self.slots[level * SLOTS + slot]);
                let mut pending = std::mem::take(&mut self.scratch);
                for e in pending.drain(..) {
                    self.place(e);
                }
                self.scratch = pending; // keep capacity for the next cascade
            }
        }
    }
}

#[cfg(test)]
impl<T> EventQueue<T> {
    /// Heap bytes the queue holds on to, as `(keys, values)`: the
    /// capacity of every key container, and of the slab plus its free
    /// list.
    fn retained_bytes(&self) -> (usize, usize) {
        let key_slots = self.ready.capacity()
            + self.slots.iter().map(Vec::capacity).sum::<usize>()
            + self.far.capacity()
            + self.scratch.capacity();
        (
            key_slots * std::mem::size_of::<Key>(),
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
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn drain(q: &mut EventQueue<u64>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some((at, seq)) = q.peek_key() {
            let v = q.pop().unwrap();
            assert_eq!(v, seq, "value rides with its key");
            out.push((at, seq));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = EventQueue::new();
        // Same tick, distinct times and seqs, inserted out of order.
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

    #[test]
    fn spans_levels_and_horizon() {
        let mut q = EventQueue::new();
        // One entry per level, plus the far overflow (u64::MAX).
        let mut expect = Vec::new();
        for level in 0..LEVELS as u32 {
            let at = 1u64 << (TICK_SHIFT + level * LEVEL_BITS);
            q.push(at, level as u64, level as u64);
            expect.push((at, level as u64));
        }
        q.push(u64::MAX, 99, 99);
        expect.push((u64::MAX, 99));
        assert_eq!(drain(&mut q), expect);
    }

    #[test]
    fn push_at_or_before_cursor_lands_in_order() {
        let mut q = EventQueue::new();
        q.push(100_000, 1, 1);
        assert_eq!(q.peek_key(), Some((100_000, 1)));
        // The wheel has advanced to tick(100_000); a later push for an
        // earlier time (allowed: the kernel clock may sit past it after
        // run_until) must still pop first.
        q.push(50_000, 2, 2);
        q.push(100_001, 3, 3);
        assert_eq!(drain(&mut q), vec![(50_000, 2), (100_000, 1), (100_001, 3)]);
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
        // Refill behind, at, and ahead of the cursor.
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
        let mut seqs = Vec::new();
        for i in 0..100u64 {
            q.push(i * 3_000, i, i);
            seqs.push(i);
        }
        q.peek_key(); // populate ready so iteration crosses regions
        q.push(u64::MAX - 1, 100, 100);
        seqs.push(100);
        let mut seen: Vec<u64> = q.iter().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, seqs);
        assert_eq!(q.len(), 101);
    }

    /// The determinism contract: against a `BinaryHeap` reference model,
    /// over randomized interleaved push/pop schedules with bursts of
    /// equal timestamps, the pop order is identical. Seeded `SmallRng`
    /// keeps the schedule reproducible.
    #[test]
    fn matches_binary_heap_reference_model() {
        for seed in 0..20u64 {
            let mut rng = SmallRng::seed_from_u64(0xE0_0E + seed);
            let mut wheel: EventQueue<u64> = EventQueue::new();
            let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
            let mut seq = 0u64;
            let mut clock = 0u64; // popped times are monotone; pushes land >= clock
            for _ in 0..400 {
                match rng.gen_range(0..10u32) {
                    // Push burst: a few entries, often sharing one time.
                    0..=5 => {
                        // Saturating: popping a u64::MAX far-future entry
                        // parks `clock` at the top of the range.
                        let base = clock.saturating_add(rng.gen_range(0..200_000u64));
                        let burst = rng.gen_range(1..6usize);
                        for _ in 0..burst {
                            let at = if rng.gen_bool(0.5) {
                                base // equal-timestamp burst
                            } else {
                                base.saturating_add(rng.gen_range(0..5_000u64))
                            };
                            wheel.push(at, seq, seq);
                            heap.push(Reverse((at, seq)));
                            seq += 1;
                        }
                    }
                    // Far-future outlier, sometimes past the horizon.
                    6 => {
                        let at = if rng.gen_bool(0.2) {
                            u64::MAX - rng.gen_range(0..3u64)
                        } else {
                            clock.saturating_add(1u64 << rng.gen_range(20..60u32))
                        };
                        wheel.push(at, seq, seq);
                        heap.push(Reverse((at, seq)));
                        seq += 1;
                    }
                    // Pop a few.
                    _ => {
                        for _ in 0..rng.gen_range(1..6usize) {
                            let expect = heap.pop().map(|Reverse(k)| k);
                            let got = wheel.peek_key();
                            assert_eq!(got, expect, "peek diverged (seed {seed})");
                            match (wheel.pop(), expect) {
                                (Some(v), Some((at, s))) => {
                                    assert_eq!(v, s);
                                    clock = at;
                                }
                                (None, None) => {}
                                (a, b) => panic!("pop diverged: {a:?} vs {b:?}"),
                            }
                        }
                    }
                }
                assert_eq!(wheel.len(), heap.len());
            }
            // Drain: the tails must match too.
            while let Some(Reverse((at, s))) = heap.pop() {
                assert_eq!(wheel.peek_key(), Some((at, s)));
                assert_eq!(wheel.pop(), Some(s));
            }
            assert!(wheel.is_empty());
            assert_eq!(wheel.pop(), None);
        }
    }

    /// The same contract with the slab in play: a long interleaved
    /// schedule whose queue stays small while tens of thousands of
    /// entries pass through, so every slab slot is recycled many times
    /// over. After every step the pop order, `len`, `peak_len` and the
    /// exact pending set seen through `iter()` match the model.
    #[test]
    fn recycled_slots_keep_order_len_peak_and_iter() {
        let mut rng = SmallRng::seed_from_u64(0x51AB);
        let mut wheel: EventQueue<u64> = EventQueue::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let (mut seq, mut clock, mut peak) = (0u64, 0u64, 0usize);
        for step in 0..6_000 {
            // Pushes and pops balance around a few dozen pending entries.
            let pushes = if heap.len() < 40 { 6usize } else { 2 };
            for _ in 0..rng.gen_range(0..=pushes) {
                let at = match rng.gen_range(0..20u32) {
                    0 => u64::MAX - rng.gen_range(0..3u64),
                    1..=3 => clock.saturating_add(1u64 << rng.gen_range(14..44u32)),
                    _ => clock.saturating_add(rng.gen_range(0..300_000u64)),
                };
                wheel.push(at, seq, seq);
                heap.push(Reverse((at, seq)));
                seq += 1;
            }
            peak = peak.max(heap.len());
            for _ in 0..rng.gen_range(0..5usize) {
                let expect = heap.pop().map(|Reverse(k)| k);
                assert_eq!(wheel.peek_key(), expect, "peek diverged at step {step}");
                assert_eq!(wheel.pop(), expect.map(|(_, s)| s));
                // A popped far-future sentinel would pin the clock at the
                // top of the range; keep scheduling relative to real time.
                if let Some((at, _)) = expect.filter(|&(at, _)| at < u64::MAX / 2) {
                    clock = at;
                }
            }
            assert_eq!(wheel.len(), heap.len());
            assert_eq!(wheel.peak_len(), peak);
            let mut seen: Vec<u64> = wheel.iter().copied().collect();
            seen.sort_unstable();
            let mut pending: Vec<u64> = heap.iter().map(|Reverse((_, s))| *s).collect();
            pending.sort_unstable();
            assert_eq!(seen, pending, "iter() is the pending set (step {step})");
        }
        assert!(
            seq as usize > 100 * wheel.slab.len(),
            "{seq} entries through {} slab slots: each recycled many times",
            wheel.slab.len()
        );
        assert_eq!(wheel.slab.len(), peak, "the slab is bounded by the peak");
    }

    /// The wheel's entry is the 24-byte key, whatever the value's size.
    #[test]
    fn wheel_entry_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Key>(), 24);
    }

    /// A burst of far timers cascades through several wheel levels on
    /// its way to `ready`. What each visited container keeps afterwards
    /// is key capacity; the values' storage is retained once.
    #[test]
    fn drained_burst_retains_keys_per_slot_and_values_once() {
        type Fat = [u64; 45]; // a 360-byte value, what an inline message made an event
        const BURST: usize = 10_000;
        let mut q: EventQueue<Fat> = EventQueue::new();
        for i in 0..BURST as u64 {
            // ~500 virtual ms out: level 2 or 3, spread over a few ticks.
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
            values <= 2 * BURST * per_value,
            "values retained once: {values} B for {BURST} x {per_value} B"
        );
        assert!(
            keys <= 2 * BURST * 24 * (LEVELS + 3),
            "keys retained per visited container: {keys} B"
        );
        assert!(
            keys + values < 3 * BURST * std::mem::size_of::<Fat>(),
            "fat entries left behind in every cascaded slot would be more"
        );
    }

    /// `run_until`-shaped usage: peek-bounded draining at a deadline,
    /// then injection of new work at or before the advanced cursor.
    #[test]
    fn deadline_bounded_drain_matches_model() {
        let mut rng = SmallRng::seed_from_u64(77);
        let mut wheel: EventQueue<u64> = EventQueue::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        for seq in 0..300u64 {
            let at = rng.gen_range(0..3_000_000u64);
            wheel.push(at, seq, seq);
            heap.push(Reverse((at, seq)));
        }
        let mut seq = 300u64;
        for deadline in [250_000u64, 900_000, 900_000, 2_100_000, u64::MAX] {
            loop {
                match wheel.peek_key() {
                    Some((at, _)) if at <= deadline => {
                        let Some(Reverse((hat, hseq))) = heap.pop() else {
                            panic!("model empty while wheel has events")
                        };
                        assert_eq!(wheel.pop(), Some(hseq));
                        assert_eq!(hat, at);
                        // Handlers re-arm work relative to "now".
                        if rng.gen_bool(0.3) {
                            let nat = at + rng.gen_range(0..2_000_000u64);
                            wheel.push(nat, seq, seq);
                            heap.push(Reverse((nat, seq)));
                            seq += 1;
                        }
                    }
                    _ => break,
                }
            }
            // Post-deadline injection behind the cursor, as a driver
            // attaching endpoints after `run_until` does.
            let nat = deadline.saturating_sub(rng.gen_range(0..100_000u64));
            wheel.push(nat, seq, seq);
            heap.push(Reverse((nat, seq)));
            seq += 1;
        }
        while let Some(Reverse((_, s))) = heap.pop() {
            assert_eq!(wheel.pop(), Some(s));
        }
        assert!(wheel.is_empty());
    }
}
