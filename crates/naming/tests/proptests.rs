//! Property-based tests: the binding cache against a reference model, and
//! tree-shape invariants.

use legion_core::address::{ObjectAddress, ObjectAddressElement};
use legion_core::binding::Binding;
use legion_core::loid::Loid;
use legion_core::time::{Expiry, SimTime};
use legion_naming::cache::BindingCache;
use legion_naming::tree::TreeShape;
use proptest::prelude::*;
use std::collections::HashMap;

/// A slow but obviously-correct LRU+TTL reference: map + recency list.
#[derive(Default)]
struct ModelCache {
    capacity: usize,
    map: HashMap<Loid, Binding>,
    recency: Vec<Loid>, // most recent last
    evictions: u64,
}

impl ModelCache {
    fn new(capacity: usize) -> Self {
        ModelCache {
            capacity: capacity.max(1),
            ..Default::default()
        }
    }

    fn touch(&mut self, loid: Loid) {
        self.recency.retain(|l| *l != loid);
        self.recency.push(loid);
    }

    fn get(&mut self, loid: &Loid, now: SimTime) -> Option<Binding> {
        let b = self.map.get(loid)?.clone();
        if !b.is_valid_at(now) {
            self.map.remove(loid);
            self.recency.retain(|l| l != loid);
            return None;
        }
        self.touch(*loid);
        Some(b)
    }

    fn insert(&mut self, b: Binding) {
        if let std::collections::hash_map::Entry::Occupied(mut e) = self.map.entry(b.loid) {
            e.insert(b.clone());
            self.touch(b.loid);
            return;
        }
        if self.map.len() >= self.capacity {
            let lru = self.recency.remove(0);
            self.map.remove(&lru);
            self.evictions += 1;
        }
        self.touch(b.loid);
        self.map.insert(b.loid, b);
    }

    fn invalidate(&mut self, loid: &Loid) -> Option<Binding> {
        let b = self.map.remove(loid)?;
        self.recency.retain(|l| l != loid);
        Some(b)
    }
}

#[derive(Debug, Clone)]
enum Op {
    Insert {
        key: u64,
        ep: u64,
        ttl: Option<u64>,
        by_ref: bool,
    },
    Get {
        key: u64,
        now: u64,
    },
    Invalidate {
        key: u64,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    arb_op_over(32)
}

fn arb_op_over(keys: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        (
            0..keys,
            any::<u64>(),
            proptest::option::of(1u64..1000),
            any::<bool>()
        )
            .prop_map(|(key, ep, ttl, by_ref)| Op::Insert {
                key,
                ep,
                ttl,
                by_ref
            }),
        (0..keys, 0u64..2000).prop_map(|(key, now)| Op::Get { key, now }),
        (0..keys).prop_map(|key| Op::Invalidate { key }),
    ]
}

/// Run `ops` against the cache and the model, comparing every answer,
/// the recency order and the eviction count as it goes.
fn check_against_model(capacity: usize, ops: Vec<Op>) {
    let mut real = BindingCache::new(capacity);
    let mut model = ModelCache::new(capacity);
    for op in ops {
        match op {
            Op::Insert {
                key,
                ep,
                ttl,
                by_ref,
            } => {
                let b = binding(key, ep, ttl);
                if by_ref {
                    real.insert_ref(&b);
                } else {
                    real.insert(b.clone());
                }
                model.insert(b);
            }
            Op::Get { key, now } => {
                let loid = Loid::instance(16, key + 1);
                let now = SimTime(now);
                assert_eq!(real.get(&loid, now), model.get(&loid, now));
            }
            Op::Invalidate { key } => {
                let loid = Loid::instance(16, key + 1);
                assert_eq!(real.invalidate(&loid), model.invalidate(&loid));
            }
        }
        assert_eq!(real.len(), model.map.len());
        assert!(real.len() <= capacity);
        let mru: Vec<Loid> = model.recency.iter().rev().copied().collect();
        assert_eq!(real.loids_mru_order(), mru);
        assert_eq!(real.stats().evictions, model.evictions);
        for (loid, b) in &model.map {
            assert_eq!(real.peek(loid), Some(b));
        }
    }
}

fn binding(key: u64, ep: u64, ttl: Option<u64>) -> Binding {
    Binding {
        loid: Loid::instance(16, key + 1),
        address: ObjectAddress::single(ObjectAddressElement::sim(ep)),
        expiry: match ttl {
            None => Expiry::Never,
            Some(t) => Expiry::At(SimTime(t)),
        },
    }
}

proptest! {
    /// The slab LRU behaves exactly like the reference model under any
    /// operation sequence and any capacity.
    #[test]
    fn cache_matches_reference_model(
        capacity in 1usize..12,
        ops in proptest::collection::vec(arb_op(), 1..200),
    ) {
        check_against_model(capacity, ops);
    }

    /// The same over a key space wide enough that the index grows, its
    /// probe runs wrap and collide, and removals shift entries back.
    #[test]
    fn cache_matches_reference_model_at_size(
        capacity in 1usize..96,
        ops in proptest::collection::vec(arb_op_over(400), 1..600),
    ) {
        check_against_model(capacity, ops);
    }

    /// The cache never returns an expired binding, whatever happened
    /// before.
    #[test]
    fn cache_never_serves_expired(
        ops in proptest::collection::vec(arb_op(), 1..100),
        probe_now in 0u64..3000,
    ) {
        let mut real = BindingCache::new(8);
        for op in ops {
            if let Op::Insert { key, ep, ttl, .. } = op {
                real.insert(binding(key, ep, ttl));
            }
        }
        for key in 0..32u64 {
            let loid = Loid::instance(16, key + 1);
            if let Some(b) = real.get(&loid, SimTime(probe_now)) {
                prop_assert!(b.is_valid_at(SimTime(probe_now)));
            }
        }
    }

    /// Tree shapes: parents decrease, children invert parents, every path
    /// reaches the root, and leaves partition correctly.
    #[test]
    fn tree_shape_invariants(arity in 1usize..9, count in 1usize..80) {
        let t = TreeShape::new(arity, count);
        for i in 0..count {
            if let Some(p) = t.parent(i) {
                prop_assert!(p < i);
                prop_assert!(t.children(p).contains(&i));
            } else {
                prop_assert_eq!(i, 0);
            }
            prop_assert_eq!(*t.path_to_root(i).last().unwrap(), 0usize);
            prop_assert!(t.depth(i) <= t.height());
            prop_assert_eq!(t.is_leaf(i), t.children(i).is_empty());
        }
        // Children sets partition 1..count.
        let mut seen = vec![false; count];
        seen[0] = true;
        for i in 0..count {
            for c in t.children(i) {
                prop_assert!(!seen[c], "child {c} reached twice");
                seen[c] = true;
            }
        }
        prop_assert!(seen.into_iter().all(|x| x));
        // Leaves are exactly the childless nodes.
        let leaves = t.leaves();
        prop_assert!(!leaves.is_empty());
        for &l in &leaves {
            prop_assert!(t.is_leaf(l));
        }
    }
}
