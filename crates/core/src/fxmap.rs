//! A fast, deterministic hasher for the kernel/naming hot path.
//!
//! The naming layer keys its hot maps — binding caches, pending-request
//! tables, the registry/LegionClass tables that reach a million rows in
//! E17 — by [`Loid`](crate::loid::Loid) (32 bytes) or small integer ids.
//! `std`'s default SipHash is DoS-resistant but pays tens of nanoseconds
//! per 32-byte key, which the E17 profile shows as pure overhead: every
//! key here is program-generated, never attacker-chosen, so collision
//! flooding is not a threat model the simulator has.
//!
//! [`FxHasher`] is the classic multiply-rotate word hasher (the
//! Firefox/rustc "FxHash" construction — fold each word in with a rotate,
//! xor, and multiply by a 64-bit odd constant), written out here because
//! the workspace vendors no hashing crate. It is **deterministic across
//! processes** (no random seed), which is strictly more reproducible than
//! `RandomState` — but note that nothing golden-visible may depend on
//! hash-map iteration order anyway (with `RandomState` that order already
//! varied run to run).
//!
//! Use the [`FxHashMap`]/[`FxHashSet`] aliases for hot-path maps; keep
//! `std`'s default for anything that could ever key on external input.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// 2^64 / φ, forced odd: the classic Fibonacci-hashing multiplier.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// The multiply-rotate word hasher. Cheap (a handful of ALU ops per
/// 8-byte word), deterministic, and plenty well-mixed for
/// program-generated keys.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut rest = bytes;
        while rest.len() >= 8 {
            let (head, tail) = rest.split_at(8);
            self.fold(u64::from_le_bytes(head.try_into().expect("8 bytes")));
            rest = tail;
        }
        if !rest.is_empty() {
            // The tail as a zero-padded little-endian word, folded in
            // byte by byte: copying a run-time length into a buffer is a
            // `memcpy` call, dearer than the hash of a short name.
            let word = rest
                .iter()
                .rev()
                .fold(0u64, |w, &b| (w << 8) | u64::from(b));
            self.fold(word);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.fold(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.fold(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.fold(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.fold(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.fold(i as u64);
        self.fold((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.fold(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`]; zero-sized, no per-map seed.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed through [`FxHasher`]. Drop-in for hot-path maps with
/// program-generated keys (LOIDs, call ids, endpoint indices).
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` hashed through [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loid::Loid;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_hasher_instances() {
        let l = Loid::instance(17, 42);
        assert_eq!(hash_of(&l), hash_of(&l.clone()));
        assert_eq!(hash_of(&1234u64), hash_of(&1234u64));
    }

    #[test]
    fn distinguishes_loid_fields() {
        let a = Loid::instance(17, 42);
        let b = Loid::instance(17, 43);
        let c = Loid::instance(18, 42);
        assert_ne!(hash_of(&a), hash_of(&b));
        assert_ne!(hash_of(&a), hash_of(&c));
        assert_ne!(hash_of(&b), hash_of(&c));
    }

    #[test]
    fn sequential_keys_spread_over_buckets() {
        // Sequential class ids (exactly the E17 key population) must not
        // pile into a few buckets of a power-of-two table.
        let mask = (1 << 12) - 1; // 4096 buckets
        let mut hit = FxHashSet::default();
        for i in 0..4096u64 {
            hit.insert(hash_of(&Loid::class_object(i)) & mask);
        }
        assert!(
            hit.len() > 2500,
            "sequential LOIDs landed in only {} of 4096 buckets",
            hit.len()
        );
    }

    #[test]
    fn a_short_tail_hashes_as_its_zero_padded_word() {
        for len in 1..8 {
            let bytes = &b"GetBinding"[..len];
            let mut padded = [0u8; 8];
            padded[..len].copy_from_slice(bytes);
            let (mut by_bytes, mut by_word) = (FxHasher::default(), FxHasher::default());
            by_bytes.write(bytes);
            by_word.write_u64(u64::from_le_bytes(padded));
            assert_eq!(by_bytes.finish(), by_word.finish(), "tail of {len}");
        }
    }

    #[test]
    fn map_alias_works_with_loid_keys() {
        let mut m: FxHashMap<Loid, u64> = FxHashMap::default();
        for i in 0..1_000 {
            m.insert(Loid::class_object(i), i);
        }
        assert_eq!(m.len(), 1_000);
        assert_eq!(m.get(&Loid::class_object(517)), Some(&517));
        assert_eq!(m.get(&Loid::class_object(1_000)), None);
    }
}
