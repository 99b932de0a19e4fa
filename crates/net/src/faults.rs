//! Fault injection for the simulated network.
//!
//! The stale-binding mechanism (§4.1.4) and address-semantics replication
//! (§4.3) only matter in the presence of failures. The fault plan supports:
//!
//! * **message drops** — a global loss probability (silent: the sender
//!   does not learn of the loss, as with a datagram network);
//! * **duplication** — a probability that a message is delivered twice,
//!   the copy arriving a bounded interval after the original;
//! * **reordering** — a probability that a message's delivery time is
//!   perturbed by a bounded jitter, letting later sends overtake it;
//! * **delay spikes** — transient latency multipliers on a jurisdiction
//!   (or every link) over a scheduled time window;
//! * **partitions** — pairs of jurisdictions whose traffic is silently
//!   discarded, either statically or over scheduled *flapping* windows;
//! * **endpoint crashes** — deliveries to crashed endpoints fail
//!   *detectably*, modelling a connection refused (the paper's
//!   communication layer "is expected to detect" a dead Object Address).
//!
//! Verdicts are **deterministic per message**: [`FaultPlan::judge`] hashes
//! the plan seed with the message id and the link, never the kernel RNG
//! stream, so the fate of a message does not depend on how many unrelated
//! random draws preceded it. Replaying the same seed and schedule replays
//! the same faults even when call order shifts.
//!
//! Duplication is tamed at the receiver by [`DedupState`]: the kernel
//! stamps every physical send with a per-sender sequence number and each
//! endpoint keeps a bounded window of sequence numbers it has already
//! accepted — at-most-once delivery with bounded memory. A straggler
//! older than the window is rejected conservatively (never delivered
//! twice, possibly not delivered at all — exactly the datagram contract).

use crate::topology::Location;
use legion_core::fxmap::FxHashMap;
use legion_core::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, VecDeque};

/// What happened to an attempted delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Deliver normally.
    Deliver,
    /// Silently lose the message (drop or partition).
    DropSilently,
    /// Deliver the original on time *and* a duplicate copy `extra_ns`
    /// after it.
    Duplicate {
        /// How long after the original the duplicate arrives.
        extra_ns: u64,
    },
    /// Deliver one copy, later than the topology latency alone: the
    /// sampled latency is multiplied by `factor` (an active delay spike)
    /// and then `extra_ns` is added (reorder jitter).
    Delay {
        /// Additional absolute delay (reorder perturbation), ns.
        extra_ns: u64,
        /// Multiplier on the sampled topology latency (≥ 1).
        factor: u32,
    },
}

/// A transient latency multiplier on part of the network (a "delay
/// spike"): while `from_ns <= now < until_ns`, affected links deliver at
/// `multiplier ×` their sampled latency.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DelaySpike {
    /// Affected jurisdiction (either end of the link); `None` hits every
    /// link.
    pub jurisdiction: Option<u32>,
    /// Window start (inclusive, virtual ns).
    pub from_ns: u64,
    /// Window end (exclusive, virtual ns).
    pub until_ns: u64,
    /// Latency multiplier while the window is active (≥ 1).
    pub multiplier: u32,
}

impl DelaySpike {
    fn active(&self, from: Location, to: Location, now: SimTime) -> bool {
        if now.0 < self.from_ns || now.0 >= self.until_ns {
            return false;
        }
        match self.jurisdiction {
            None => true,
            Some(j) => from.jurisdiction == j || to.jurisdiction == j,
        }
    }
}

/// A scheduled partition window (one leg of a *flapping* partition): the
/// jurisdiction pair `{a, b}` is partitioned while `from_ns <= now <
/// until_ns` and healed outside it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionWindow {
    /// One jurisdiction of the pair.
    pub a: u32,
    /// The other jurisdiction.
    pub b: u32,
    /// Window start (inclusive, virtual ns).
    pub from_ns: u64,
    /// Window end (exclusive, virtual ns).
    pub until_ns: u64,
}

impl PartitionWindow {
    fn covers(&self, a: u32, b: u32, now: SimTime) -> bool {
        let (x, y) = (a.min(b), a.max(b));
        (self.a.min(self.b), self.a.max(self.b)) == (x, y)
            && now.0 >= self.from_ns
            && now.0 < self.until_ns
    }
}

// Distinct salts so the drop, duplicate and reorder decisions for one
// message are independent draws.
const SALT_DROP: u64 = 0x9e37_79b9_7f4a_7c15;
const SALT_DUP: u64 = 0xc2b2_ae3d_27d4_eb4f;
const SALT_DUP_OFFSET: u64 = 0x1656_67b1_9e37_79f9;
const SALT_REORDER: u64 = 0x27d4_eb2f_1656_67c5;
const SALT_JITTER: u64 = 0x85eb_ca6b_c2b2_ae35;

/// SplitMix64 finalizer: a cheap, well-distributed 64-bit mix.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn loc_key(l: Location) -> u64 {
    ((l.jurisdiction as u64) << 32) | l.host as u64
}

/// The active fault plan.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Probability in `[0, 1]` that any message is silently lost.
    drop_probability: f64,
    /// Unordered jurisdiction pairs whose traffic is discarded.
    partitions: BTreeSet<(u32, u32)>,
    /// Probability in `[0, 1]` that a message is delivered twice.
    duplicate_probability: f64,
    /// Probability in `[0, 1]` that a message's delivery is perturbed.
    reorder_probability: f64,
    /// Bound on the reorder perturbation (and the duplicate offset), ns.
    reorder_jitter_ns: u64,
    /// Scheduled latency-multiplier windows.
    delay_spikes: Vec<DelaySpike>,
    /// Scheduled partition/heal windows (flapping partitions).
    flaps: Vec<PartitionWindow>,
    /// Seed for the per-message verdict hash.
    seed: u64,
}

impl FaultPlan {
    /// No faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A fault-free plan whose per-message verdict hash uses `seed`.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Set the seed of the per-message verdict hash.
    pub fn set_seed(&mut self, seed: u64) {
        self.seed = seed;
    }

    /// Set the global message-loss probability (clamped to `[0, 1]`).
    pub fn set_drop_probability(&mut self, p: f64) {
        self.drop_probability = p.clamp(0.0, 1.0);
    }

    /// The current loss probability.
    pub fn drop_probability(&self) -> f64 {
        self.drop_probability
    }

    /// Set the message-duplication probability (clamped to `[0, 1]`).
    pub fn set_duplicate_probability(&mut self, p: f64) {
        self.duplicate_probability = p.clamp(0.0, 1.0);
    }

    /// The current duplication probability.
    pub fn duplicate_probability(&self) -> f64 {
        self.duplicate_probability
    }

    /// Perturb delivery times: with probability `p`, a message arrives up
    /// to `jitter_ns` late — enough for later sends to overtake it.
    pub fn set_reorder(&mut self, p: f64, jitter_ns: u64) {
        self.reorder_probability = p.clamp(0.0, 1.0);
        self.reorder_jitter_ns = jitter_ns;
    }

    /// The current `(probability, jitter_ns)` reorder setting.
    pub fn reorder(&self) -> (f64, u64) {
        (self.reorder_probability, self.reorder_jitter_ns)
    }

    /// Schedule a transient latency-multiplier window.
    pub fn add_delay_spike(&mut self, spike: DelaySpike) {
        if spike.multiplier > 1 && spike.until_ns > spike.from_ns {
            self.delay_spikes.push(spike);
        }
    }

    /// Scheduled delay spikes.
    pub fn delay_spikes(&self) -> &[DelaySpike] {
        &self.delay_spikes
    }

    /// Schedule a partition window (one leg of a flapping partition).
    pub fn add_flap(&mut self, window: PartitionWindow) {
        if window.a != window.b && window.until_ns > window.from_ns {
            self.flaps.push(window);
        }
    }

    /// Scheduled partition windows.
    pub fn flaps(&self) -> &[PartitionWindow] {
        &self.flaps
    }

    /// Partition two jurisdictions (idempotent; order-insensitive).
    pub fn partition(&mut self, a: u32, b: u32) {
        self.partitions.insert((a.min(b), a.max(b)));
    }

    /// Heal a partition.
    pub fn heal(&mut self, a: u32, b: u32) {
        self.partitions.remove(&(a.min(b), a.max(b)));
    }

    /// Are two jurisdictions statically partitioned from each other?
    pub fn is_partitioned(&self, a: u32, b: u32) -> bool {
        self.partitions.contains(&(a.min(b), a.max(b)))
    }

    /// Are two jurisdictions partitioned at `now` (statically or by an
    /// active flap window)?
    pub fn is_partitioned_at(&self, a: u32, b: u32, now: SimTime) -> bool {
        self.is_partitioned(a, b) || self.flaps.iter().any(|w| w.covers(a, b, now))
    }

    /// Any partitions currently active?
    pub fn has_partitions(&self) -> bool {
        !self.partitions.is_empty()
    }

    /// A uniform draw in `[0, 1)` for message `msg_id` on this link.
    fn roll(&self, msg_id: u64, from: Location, to: Location, salt: u64) -> f64 {
        (self.draw(msg_id, from, to, salt) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A deterministic 64-bit draw for message `msg_id` on this link.
    fn draw(&self, msg_id: u64, from: Location, to: Location, salt: u64) -> u64 {
        mix(self.seed ^ mix(msg_id ^ salt) ^ mix(loc_key(from).rotate_left(17) ^ loc_key(to)))
    }

    /// The largest latency multiplier of any spike active on this link.
    fn spike_multiplier(&self, from: Location, to: Location, now: SimTime) -> u64 {
        self.delay_spikes
            .iter()
            .filter(|s| s.active(from, to, now))
            .map(|s| s.multiplier as u64)
            .max()
            .unwrap_or(1)
    }

    /// Decide the fate of message `msg_id` from `from` to `to` at `now`.
    /// Deterministic per `(seed, msg_id, link)` — independent of call
    /// order and of the kernel RNG stream. Verdicts express delay
    /// *relative* to the (not-yet-sampled) topology latency so the kernel
    /// only samples latency for messages that actually deliver, exactly
    /// as it did before adversarial semantics existed.
    pub fn judge(&self, msg_id: u64, from: Location, to: Location, now: SimTime) -> Verdict {
        if self.is_partitioned_at(from.jurisdiction, to.jurisdiction, now) {
            return Verdict::DropSilently;
        }
        if self.drop_probability > 0.0
            && self.roll(msg_id, from, to, SALT_DROP) < self.drop_probability
        {
            return Verdict::DropSilently;
        }
        if self.duplicate_probability > 0.0
            && self.roll(msg_id, from, to, SALT_DUP) < self.duplicate_probability
        {
            // The copy trails the original by a bounded, hash-derived
            // offset: at least 1 ns (strictly later), at most the
            // reorder jitter.
            let span = self.reorder_jitter_ns.max(1);
            let extra_ns = 1 + self.draw(msg_id, from, to, SALT_DUP_OFFSET) % span;
            return Verdict::Duplicate { extra_ns };
        }
        let factor = self.spike_multiplier(from, to, now) as u32;
        let mut extra_ns = 0;
        if self.reorder_probability > 0.0
            && self.reorder_jitter_ns > 0
            && self.roll(msg_id, from, to, SALT_REORDER) < self.reorder_probability
        {
            extra_ns = 1 + self.draw(msg_id, from, to, SALT_JITTER) % self.reorder_jitter_ns;
        }
        if factor > 1 || extra_ns > 0 {
            Verdict::Delay { extra_ns, factor }
        } else {
            Verdict::Deliver
        }
    }
}

// ---------------------------------------------------------------------------
// At-most-once dedup window
// ---------------------------------------------------------------------------

/// A bounded window of per-sender sequence numbers one receiver has
/// accepted. `admit` answers "first sight?" with bounded memory: the
/// newest `capacity` sequence numbers are remembered exactly; anything
/// older than the remembered range is rejected conservatively.
#[derive(Debug, Clone)]
struct SenderWindow {
    /// Sequence numbers below this are rejected without consulting `seen`.
    floor: u64,
    /// Remembered sequence numbers, ascending, at most `capacity` of
    /// them. A ring: in-order arrivals append at the back, eviction pops
    /// the front, and only a reordered arrival pays a binary search and
    /// a shift. Grows by doubling from empty — a pair that exchanged
    /// three messages holds four slots, not the capacity.
    seen: VecDeque<u64>,
    /// `mix(sender)`, the per-sender half of every digest term.
    key: u64,
}

impl SenderWindow {
    /// The digest term for remembering `seq`.
    fn seq_term(&self, seq: u64) -> u64 {
        mix(self.key ^ seq)
    }

    /// The digest term for the current floor (salted apart from the
    /// sequence-number terms).
    fn floor_term(&self) -> u64 {
        mix(self.key.rotate_left(32) ^ self.floor)
    }
}

/// Per-sender dedup windows for one receiving endpoint — the receiver
/// half of the kernel's at-most-once delivery.
#[derive(Debug, Clone)]
pub struct DedupState {
    capacity: usize,
    /// One window per sender ever heard from, found in one probe: sender
    /// ids are kernel endpoint indices, and a receiver that outlives its
    /// senders (every activation is a fresh endpoint) accumulates
    /// thousands. Never iterated outside tests — the digest below is kept
    /// by `admit` — so the map's order is nobody's business.
    per_sender: FxHashMap<u64, SenderWindow>,
    rejected: u64,
    /// Wrapping sum of one term per remembered `(sender, seq)` and one
    /// per `(sender, floor)`, kept current by `admit`. A sum is
    /// order-independent, so it is a function of the windows' *state*
    /// (which numbers are remembered, where each floor stands), never of
    /// the order they arrived in.
    windows_sum: u64,
}

impl DedupState {
    /// Windows remembering the last `capacity` sequence numbers per sender.
    pub fn new(capacity: usize) -> Self {
        DedupState {
            capacity: capacity.max(1),
            per_sender: FxHashMap::default(),
            rejected: 0,
            windows_sum: 0,
        }
    }

    /// Admit `(sender, seq)` if this is its first delivery; reject
    /// duplicates and out-of-window stragglers.
    pub fn admit(&mut self, sender: u64, seq: u64) -> bool {
        let sum = &mut self.windows_sum;
        let w = self.per_sender.entry(sender).or_insert_with(|| {
            let w = SenderWindow {
                floor: 0,
                seen: VecDeque::new(),
                key: mix(sender),
            };
            *sum = sum.wrapping_add(w.floor_term());
            w
        });
        if seq < w.floor {
            self.rejected += 1;
            return false;
        }
        // Where `seq` belongs among the remembered numbers; the common
        // case (a new highest) skips the search.
        let pos = match w.seen.back() {
            Some(&newest) if seq <= newest => match w.seen.binary_search(&seq) {
                Ok(_) => {
                    self.rejected += 1;
                    return false;
                }
                Err(pos) => pos,
            },
            _ => w.seen.len(),
        };
        if w.seen.len() < self.capacity {
            w.seen.insert(pos, seq);
            *sum = sum.wrapping_add(w.seq_term(seq));
            return true;
        }
        // A full window forgets its oldest number and raises the floor
        // past it. When `seq` sorts below everything remembered, that
        // oldest number is `seq` itself: admitted now, never again.
        let oldest = if pos == 0 {
            seq
        } else {
            let oldest = w.seen.pop_front().expect("capacity is at least 1");
            *sum = sum.wrapping_sub(w.seq_term(oldest));
            w.seen.insert(pos - 1, seq);
            *sum = sum.wrapping_add(w.seq_term(seq));
            oldest
        };
        *sum = sum.wrapping_sub(w.floor_term());
        w.floor = w.floor.max(oldest + 1);
        *sum = sum.wrapping_add(w.floor_term());
        true
    }

    /// Deliveries rejected as duplicates or stragglers.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// `(floor, remembered numbers)` of one sender's window.
    #[cfg(test)]
    fn window(&self, sender: u64) -> Option<(u64, Vec<u64>)> {
        let w = self.per_sender.get(&sender)?;
        Some((w.floor, w.seen.iter().copied().collect()))
    }

    /// `(sender, floor, remembered numbers)` per window, ascending.
    #[cfg(test)]
    fn windows(&self) -> Vec<(u64, u64, Vec<u64>)> {
        let mut windows: Vec<_> = self
            .per_sender
            .iter()
            .map(|(s, w)| (*s, w.floor, w.seen.iter().copied().collect()))
            .collect();
        windows.sort_unstable_by_key(|(sender, ..)| *sender);
        windows
    }

    /// A deterministic digest of the full state (capacity, reject count,
    /// every floor, every remembered number), for content-addressed
    /// kernel snapshots. O(1): `admit` maintains the per-window part.
    /// It depends on the state alone — any two histories that remember
    /// the same numbers above the same floors with the same reject count
    /// agree — so a state restored from elsewhere can recompute it.
    pub fn state_digest(&self) -> u64 {
        mix(mix(self.windows_sum ^ self.capacity as u64) ^ self.rejected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn loc(j: u32) -> Location {
        Location::new(j, 0)
    }

    fn judge_quiet(plan: &FaultPlan, id: u64, from: Location, to: Location) -> Verdict {
        plan.judge(id, from, to, SimTime::ZERO)
    }

    #[test]
    fn no_faults_always_delivers() {
        let plan = FaultPlan::none();
        for id in 0..100 {
            assert_eq!(judge_quiet(&plan, id, loc(0), loc(1)), Verdict::Deliver);
        }
    }

    #[test]
    fn partition_blocks_both_directions() {
        let mut plan = FaultPlan::none();
        plan.partition(2, 5);
        assert_eq!(judge_quiet(&plan, 1, loc(2), loc(5)), Verdict::DropSilently);
        assert_eq!(judge_quiet(&plan, 2, loc(5), loc(2)), Verdict::DropSilently);
        assert_eq!(judge_quiet(&plan, 3, loc(2), loc(3)), Verdict::Deliver);
        assert!(plan.is_partitioned(5, 2));
        assert!(plan.has_partitions());
    }

    #[test]
    fn heal_restores_traffic() {
        let mut plan = FaultPlan::none();
        plan.partition(0, 1);
        plan.heal(1, 0);
        assert_eq!(judge_quiet(&plan, 1, loc(0), loc(1)), Verdict::Deliver);
        assert!(!plan.has_partitions());
    }

    #[test]
    fn drop_probability_is_respected_statistically() {
        let mut plan = FaultPlan::seeded(42);
        plan.set_drop_probability(0.3);
        let drops = (0..10_000u64)
            .filter(|id| judge_quiet(&plan, *id, loc(0), loc(0)) == Verdict::DropSilently)
            .count();
        assert!((2_700..3_300).contains(&drops), "drops={drops}");
    }

    #[test]
    fn drop_probability_clamps() {
        let mut plan = FaultPlan::none();
        plan.set_drop_probability(7.0);
        assert_eq!(plan.drop_probability(), 1.0);
        plan.set_drop_probability(-1.0);
        assert_eq!(plan.drop_probability(), 0.0);
    }

    #[test]
    fn intra_jurisdiction_traffic_ignores_partitions() {
        let mut plan = FaultPlan::none();
        plan.partition(0, 1);
        assert_eq!(
            judge_quiet(&plan, 1, Location::new(0, 0), Location::new(0, 7)),
            Verdict::Deliver
        );
    }

    #[test]
    fn verdicts_are_deterministic_per_message() {
        let mut plan = FaultPlan::seeded(7);
        plan.set_drop_probability(0.4);
        plan.set_duplicate_probability(0.3);
        plan.set_reorder(0.5, 40_000);
        let first: Vec<Verdict> = (0..200u64)
            .map(|id| judge_quiet(&plan, id, loc(0), loc(1)))
            .collect();
        // Judging again — in reverse order — yields identical verdicts:
        // the fate of a message does not depend on call order.
        let second: Vec<Verdict> = (0..200u64)
            .rev()
            .map(|id| judge_quiet(&plan, id, loc(0), loc(1)))
            .collect();
        let second: Vec<Verdict> = second.into_iter().rev().collect();
        assert_eq!(first, second);
        // And a different seed decides differently somewhere.
        let mut other = plan.clone();
        other.set_seed(8);
        assert!((0..200u64).any(|id| judge_quiet(&other, id, loc(0), loc(1)) != first[id as usize]));
    }

    #[test]
    fn duplication_yields_bounded_duplicate_offsets() {
        let mut plan = FaultPlan::seeded(11);
        plan.set_duplicate_probability(0.5);
        plan.set_reorder(0.0, 25_000);
        let mut dups = 0;
        for id in 0..2_000u64 {
            if let Verdict::Duplicate { extra_ns } = judge_quiet(&plan, id, loc(0), loc(1)) {
                dups += 1;
                assert!((1..=25_000).contains(&extra_ns), "offset {extra_ns}");
            }
        }
        assert!((800..1_200).contains(&dups), "dups={dups}");
    }

    #[test]
    fn reorder_jitter_is_bounded() {
        let mut plan = FaultPlan::seeded(3);
        plan.set_reorder(1.0, 5_000);
        for id in 0..500u64 {
            match judge_quiet(&plan, id, loc(0), loc(1)) {
                Verdict::Delay { extra_ns, factor } => {
                    assert!((1..=5_000).contains(&extra_ns), "jitter {extra_ns}");
                    assert_eq!(factor, 1, "no spike scheduled");
                }
                v => panic!("expected Delay, got {v:?}"),
            }
        }
    }

    #[test]
    fn delay_spike_multiplies_inside_its_window() {
        let mut plan = FaultPlan::none();
        plan.add_delay_spike(DelaySpike {
            jurisdiction: Some(1),
            from_ns: 1_000,
            until_ns: 2_000,
            multiplier: 4,
        });
        // Inside the window, on the spiked jurisdiction: latency × 4.
        let v = plan.judge(1, loc(0), loc(1), SimTime(1_500));
        assert_eq!(
            v,
            Verdict::Delay {
                extra_ns: 0,
                factor: 4
            }
        );
        // Outside the window: normal.
        assert_eq!(
            plan.judge(1, loc(0), loc(1), SimTime(2_000)),
            Verdict::Deliver
        );
        // Inside the window, but the link avoids jurisdiction 1: normal.
        assert_eq!(
            plan.judge(1, loc(0), loc(2), SimTime(1_500)),
            Verdict::Deliver
        );
    }

    #[test]
    fn flap_windows_partition_then_heal() {
        let mut plan = FaultPlan::none();
        plan.add_flap(PartitionWindow {
            a: 0,
            b: 1,
            from_ns: 100,
            until_ns: 200,
        });
        assert_eq!(plan.judge(1, loc(0), loc(1), SimTime(50)), Verdict::Deliver);
        assert_eq!(
            plan.judge(1, loc(0), loc(1), SimTime(150)),
            Verdict::DropSilently
        );
        assert_eq!(
            plan.judge(1, loc(1), loc(0), SimTime(150)),
            Verdict::DropSilently
        );
        assert_eq!(
            plan.judge(1, loc(0), loc(1), SimTime(200)),
            Verdict::Deliver
        );
        assert!(plan.is_partitioned_at(0, 1, SimTime(150)));
        assert!(!plan.is_partitioned_at(0, 1, SimTime(250)));
    }

    #[test]
    fn degenerate_spikes_and_flaps_are_ignored() {
        let mut plan = FaultPlan::none();
        plan.add_delay_spike(DelaySpike {
            jurisdiction: None,
            from_ns: 0,
            until_ns: 100,
            multiplier: 1, // no-op multiplier
        });
        plan.add_flap(PartitionWindow {
            a: 2,
            b: 2, // intra-jurisdiction: meaningless
            from_ns: 0,
            until_ns: 100,
        });
        assert!(plan.delay_spikes().is_empty());
        assert!(plan.flaps().is_empty());
    }

    #[test]
    fn dedup_admits_first_sight_and_rejects_duplicates() {
        let mut d = DedupState::new(64);
        assert!(d.admit(1, 0));
        assert!(d.admit(1, 1));
        assert!(!d.admit(1, 0), "duplicate rejected");
        assert!(!d.admit(1, 1), "duplicate rejected");
        assert!(d.admit(2, 0), "windows are per sender");
        assert_eq!(d.rejected(), 2);
    }

    #[test]
    fn dedup_handles_reordered_arrivals() {
        let mut d = DedupState::new(64);
        for seq in [3u64, 0, 2, 1] {
            assert!(d.admit(9, seq));
        }
        for seq in [3u64, 0, 2, 1] {
            assert!(!d.admit(9, seq));
        }
    }

    #[test]
    fn dedup_window_is_bounded_and_conservative() {
        let mut d = DedupState::new(4);
        for seq in 0..10u64 {
            assert!(d.admit(1, seq));
        }
        // Only the newest 4 are remembered; anything older than the
        // remembered range is rejected conservatively (at-most-once,
        // possibly not-at-all — the datagram contract).
        assert!(!d.admit(1, 3), "below the window floor");
        assert!(!d.admit(1, 9), "still remembered");
        assert!(d.admit(1, 10), "fresh sequence numbers still admitted");
    }

    /// The `BTreeSet` window this module shipped before the ring: the
    /// reference the ring must agree with verdict for verdict.
    struct ReferenceDedup {
        capacity: usize,
        per_sender: BTreeMap<u64, (u64, BTreeSet<u64>)>,
        rejected: u64,
    }

    impl ReferenceDedup {
        fn new(capacity: usize) -> Self {
            ReferenceDedup {
                capacity: capacity.max(1),
                per_sender: BTreeMap::new(),
                rejected: 0,
            }
        }

        fn admit(&mut self, sender: u64, seq: u64) -> bool {
            let (floor, seen) = self.per_sender.entry(sender).or_default();
            if seq < *floor || !seen.insert(seq) {
                self.rejected += 1;
                return false;
            }
            while seen.len() > self.capacity {
                let oldest = seen.pop_first().expect("non-empty");
                *floor = (*floor).max(oldest + 1);
            }
            true
        }

        fn window(&self, sender: u64) -> Option<(u64, Vec<u64>)> {
            let (floor, seen) = self.per_sender.get(&sender)?;
            Some((*floor, seen.iter().copied().collect()))
        }

        fn windows(&self) -> Vec<(u64, u64, Vec<u64>)> {
            self.per_sender
                .iter()
                .map(|(s, (floor, seen))| (*s, *floor, seen.iter().copied().collect()))
                .collect()
        }
    }

    /// How many senders the generated streams interleave: enough that the
    /// per-sender map grows through several sizes within one stream.
    const SENDERS: u64 = 4_096;

    /// Arrival streams from [`SENDERS`] senders, every other step drawn
    /// from the `hot` lowest-numbered ones so that some windows run deep
    /// while most hold a number or two: mostly increasing per sender,
    /// with duplicates, reordered arrivals and stragglers from far below
    /// the floor. Built by walking a per-sender cursor so the sequence
    /// numbers cluster the way a real sender's do.
    fn admit_stream(
        hot: u64,
        len: std::ops::Range<usize>,
    ) -> impl Strategy<Value = Vec<(u64, u64)>> {
        let step = (0..2 * SENDERS, 0u8..10, 0u64..40);
        proptest::collection::vec(step, len).prop_map(move |steps| {
            let mut next = vec![0u64; SENDERS as usize];
            let mut out = Vec::with_capacity(steps.len());
            for (pick, kind, amount) in steps {
                let sender = if pick < SENDERS { pick } else { pick % hot };
                let cursor = &mut next[sender as usize];
                let seq = match kind {
                    // In order.
                    0..=4 => {
                        *cursor += 1;
                        *cursor - 1
                    }
                    // A gap: later numbers overtake, the skipped ones
                    // arrive reordered (or never).
                    5 => {
                        *cursor += amount + 1;
                        *cursor - 1
                    }
                    // A duplicate or reordered arrival near the head.
                    6 | 7 => cursor.saturating_sub(amount % 8),
                    // A straggler from well back, often below the floor.
                    8 => cursor.saturating_sub(amount * 30),
                    // Anything at all.
                    _ => amount * 50,
                };
                out.push((sender, seq));
            }
            out
        })
    }

    /// Drive the ring and the reference side by side: verdicts and
    /// reject counts at every step, the floor and remembered set of every
    /// window touched since the last look every `compare_every` steps,
    /// the whole state at the end — which must show a window that filled
    /// and evicted, or the stream was too short to test much.
    fn assert_ring_matches_reference(
        stream: Vec<(u64, u64)>,
        capacity: usize,
        compare_every: usize,
    ) {
        let mut ring = DedupState::new(capacity);
        let mut reference = ReferenceDedup::new(capacity);
        let mut touched = BTreeSet::new();
        let last = stream.len() - 1;
        for (i, (sender, seq)) in stream.into_iter().enumerate() {
            assert_eq!(
                ring.admit(sender, seq),
                reference.admit(sender, seq),
                "step {i}: admit({sender}, {seq})"
            );
            assert_eq!(ring.rejected(), reference.rejected);
            touched.insert(sender);
            if i % compare_every == 0 || i == last {
                for sender in std::mem::take(&mut touched) {
                    let (ring, reference) = (ring.window(sender), reference.window(sender));
                    assert_eq!(ring, reference, "sender {sender} after step {i}");
                }
            }
        }
        let windows = ring.windows();
        assert_eq!(windows, reference.windows());
        let evicted =
            |(_, floor, seen): &(u64, u64, Vec<u64>)| *floor > 0 && seen.len() == capacity;
        assert!(windows.iter().any(evicted), "no window filled and evicted");
    }

    proptest! {
        /// The ring window gives the verdicts, reject counts, floors and
        /// remembered sets of the `BTreeSet` window, at every step, on
        /// streams long enough for a hot sender to fill a 64-number
        /// window and evict from it.
        #[test]
        fn ring_window_matches_btreeset_reference(
            stream in admit_stream(2, 1_000..2_000),
            capacity in prop_oneof![Just(1usize), Just(4), Just(64)],
        ) {
            assert_ring_matches_reference(stream, capacity, 1);
        }

        /// The same at the kernel's capacity, where filling a window
        /// takes a stream ten times as long.
        #[test]
        fn ring_window_matches_reference_at_kernel_capacity(
            stream in admit_stream(2, 8_000..12_000),
        ) {
            assert_ring_matches_reference(stream, 1024, 101);
        }

        /// The digest is a function of the state: the incrementally
        /// maintained value equals the one a fresh `DedupState` reaches
        /// when handed the same final state by a different history.
        #[test]
        fn digest_is_a_function_of_the_state(
            stream in admit_stream(4, 1..400),
            capacity in prop_oneof![Just(1usize), Just(4), Just(64)],
        ) {
            let mut d = DedupState::new(capacity);
            for (sender, seq) in stream {
                d.admit(sender, seq);
            }
            prop_assert_eq!(d.state_digest(), rebuilt(&d).state_digest());
        }
    }

    /// A `DedupState` equal to `d` built without replaying its history:
    /// floors, remembered numbers and the reject count set directly, the
    /// digest sum recomputed from them.
    fn rebuilt(d: &DedupState) -> DedupState {
        let mut out = DedupState::new(d.capacity);
        out.rejected = d.rejected;
        for (sender, floor, seen) in d.windows() {
            let w = SenderWindow {
                floor,
                seen: seen.into_iter().collect(),
                key: mix(sender),
            };
            out.windows_sum = w
                .seen
                .iter()
                .fold(out.windows_sum.wrapping_add(w.floor_term()), |sum, s| {
                    sum.wrapping_add(w.seq_term(*s))
                });
            out.per_sender.insert(sender, w);
        }
        out
    }

    #[test]
    fn digest_agrees_across_histories_and_separates_states() {
        // Two histories, one state: in-order against reordered arrival,
        // and both against eviction reaching {4..8} above floor 4.
        let mut in_order = DedupState::new(4);
        let mut shuffled = DedupState::new(4);
        for seq in 0..8u64 {
            assert!(in_order.admit(1, seq));
        }
        for seq in [1u64, 0, 3, 2, 5, 4, 7, 6] {
            assert!(shuffled.admit(1, seq));
        }
        assert_eq!(in_order.windows(), vec![(1, 4, vec![4, 5, 6, 7])]);
        assert_eq!(in_order.windows(), shuffled.windows());
        assert_eq!(in_order.state_digest(), shuffled.state_digest());

        // One remembered number more.
        let base = in_order.state_digest();
        let mut one_more_seq = in_order.clone();
        assert!(one_more_seq.admit(2, 0));
        let mut other_sender = in_order.clone();
        assert!(other_sender.admit(3, 0));
        assert_ne!(one_more_seq.state_digest(), base);
        assert_ne!(one_more_seq.state_digest(), other_sender.state_digest());

        // Same remembered numbers, floor one higher: {5,6,7,9} both ways,
        // but skipping 8 after the window filled leaves the floor at 5,
        // while a straggling 4 that evicts itself never moves it.
        let mut a = in_order.clone();
        assert!(a.admit(1, 9));
        let mut b = DedupState::new(4);
        for seq in [5u64, 6, 7, 9] {
            assert!(b.admit(1, seq));
        }
        assert_eq!(a.windows()[0].2, b.windows()[0].2);
        assert_ne!(a.windows()[0].1, b.windows()[0].1);
        assert_ne!(a.state_digest(), b.state_digest());

        // A rejection is state too (`rejected()` is observable).
        let mut rejected_once = in_order.clone();
        assert!(!rejected_once.admit(1, 7));
        assert_eq!(rejected_once.windows(), in_order.windows());
        assert_ne!(rejected_once.state_digest(), base);
    }
}
