//! Property-based tests for the core object model invariants.

use legion_core::class::{ClassKind, ClassObject};
use legion_core::error::CoreError;
use legion_core::idl;
use legion_core::interface::{Interface, MethodSignature, Param, ParamType};
use legion_core::loid::{ClassId, Loid, LoidAllocator};
use legion_core::metaclass::LegionClassAuthority;
use legion_core::time::{Expiry, SimTime};
use legion_core::wellknown::LEGION_CLASS;
use proptest::prelude::*;

fn arb_param_type() -> impl Strategy<Value = ParamType> {
    prop_oneof![
        Just(ParamType::Bool),
        Just(ParamType::Int),
        Just(ParamType::Uint),
        Just(ParamType::Float),
        Just(ParamType::Str),
        Just(ParamType::Bytes),
        Just(ParamType::Loid),
        Just(ParamType::Address),
        Just(ParamType::Binding),
        Just(ParamType::List),
    ]
}

fn arb_ident() -> impl Strategy<Value = String> {
    "[A-Za-z_][A-Za-z0-9_]{0,12}"
}

fn arb_signature() -> impl Strategy<Value = MethodSignature> {
    (
        arb_ident(),
        proptest::collection::vec((arb_ident(), arb_param_type()), 0..4),
        prop_oneof![Just(ParamType::Void), arb_param_type()],
    )
        .prop_map(|(name, params, returns)| MethodSignature {
            name,
            params: params
                .into_iter()
                .map(|(name, ty)| Param { name, ty })
                .collect(),
            returns,
        })
}

proptest! {
    /// LOID display → parse is the identity.
    #[test]
    fn loid_display_parse_roundtrip(class_id in 0u64.., specific in 0u64..) {
        let loid = Loid::instance(class_id, specific);
        let parsed: Loid = loid.to_string().parse().unwrap();
        prop_assert_eq!(parsed, loid);
    }

    /// The responsible-class rule: class_loid zeroes the specific field and
    /// preserves the class id, and is idempotent.
    #[test]
    fn class_loid_idempotent(class_id in 0u64.., specific in 0u64..) {
        let loid = Loid::instance(class_id, specific);
        let c = loid.class_loid();
        prop_assert!(c.is_class());
        prop_assert_eq!(c.class_id, loid.class_id);
        prop_assert_eq!(c.class_loid(), c);
    }

    /// Allocators never repeat a LOID and never emit a class LOID.
    #[test]
    fn allocator_unique(n in 1usize..200, class_id in 1u64..1_000_000) {
        let mut alloc = LoidAllocator::new(ClassId(class_id));
        let mut seen = std::collections::HashSet::new();
        for _ in 0..n {
            let l = alloc.next().unwrap();
            prop_assert!(!l.is_class());
            prop_assert!(seen.insert(l));
        }
    }

    /// Expiry::is_valid_at agrees with plain comparison.
    #[test]
    fn expiry_matches_comparison(at in 0u64.., now in 0u64..) {
        let e = Expiry::At(SimTime(at));
        prop_assert_eq!(e.is_valid_at(SimTime(now)), now < at);
        prop_assert!(Expiry::Never.is_valid_at(SimTime(now)));
    }

    /// Interface merge: merged set is the union of names; merging is
    /// idempotent; self definitions survive.
    #[test]
    fn interface_merge_union(
        sigs_a in proptest::collection::vec(arb_signature(), 0..8),
        sigs_b in proptest::collection::vec(arb_signature(), 0..8),
    ) {
        let ca = Loid::class_object(100);
        let cb = Loid::class_object(101);
        let mut a = Interface::new();
        for s in &sigs_a { a.define(s.clone(), ca); }
        let mut b = Interface::new();
        for s in &sigs_b { b.define(s.clone(), cb); }
        let before: Vec<String> = a.iter().map(|s| s.name.clone()).collect();
        if a.clone().merge_from(&b).is_ok() {
            let mut merged = a.clone();
            merged.merge_from(&b).unwrap();
            // Union of names.
            for s in a.iter() {
                prop_assert!(merged.contains(&s.name));
            }
            for s in b.iter() {
                prop_assert!(merged.contains(&s.name));
            }
            // Names that were in `a` keep `a`'s signature (shadowing).
            for name in &before {
                prop_assert_eq!(merged.get(name), a.get(name));
            }
            // Idempotent.
            let mut again = merged.clone();
            again.merge_from(&b).unwrap();
            prop_assert_eq!(&again, &merged);
        }
    }

    /// IDL render → parse roundtrips any generated interface.
    #[test]
    fn idl_render_parse_roundtrip(
        sigs in proptest::collection::vec(arb_signature(), 0..8),
    ) {
        let owner = Loid::class_object(42);
        let mut iface = Interface::new();
        for s in sigs {
            iface.define(s, owner);
        }
        let text = idl::render("Gen", &iface);
        let parsed = idl::parse_one(&text).unwrap().into_interface(owner);
        prop_assert_eq!(parsed, iface);
    }

    /// Random Derive / define / InheritFrom sequences on class objects,
    /// each InheritFrom handed the base's interface and inherited-from
    /// set as the live base sends them: no class ever lands in its own
    /// set, a refusal as a cycle names a real one and, like every
    /// refusal, changes nothing, and an accepted base brings its methods
    /// and its set.
    #[test]
    fn model_stays_consistent(ops in proptest::collection::vec((0u8..3, 0usize..8, 0usize..8), 1..40)) {
        let mut authority = LegionClassAuthority::new();
        let mut classes = vec![ClassObject::new(LEGION_CLASS, "LegionClass", ClassKind::NORMAL)];
        let mut method_n = 0u32;
        for (op, i, j) in ops {
            let (a, b) = (i % classes.len(), j % classes.len());
            match op {
                0 => {
                    let (_, loid) = authority.issue_class_id(classes[a].loid).unwrap();
                    let mut sub = ClassObject::new(loid, "P", ClassKind::NORMAL);
                    sub.superclass = Some(classes[a].loid);
                    sub.interface = classes[a].interface.clone();
                    classes[a].record_subclass(loid).unwrap();
                    prop_assert!(sub.bases.is_empty());
                    classes.push(sub);
                }
                1 => {
                    method_n += 1;
                    let owner = classes[a].loid;
                    classes[a].interface.define(
                        MethodSignature::new(format!("m{method_n}"), vec![], ParamType::Void),
                        owner,
                    );
                }
                _ => {
                    let base = classes[b].clone();
                    let before = classes[a].clone();
                    match classes[a].inherit_from(base.loid, &base.interface, &base.bases) {
                        Ok(()) => {
                            let c = &classes[a];
                            prop_assert!(c.bases.contains(&base.loid));
                            prop_assert!(base.bases.iter().all(|x| c.bases.contains(x)));
                            prop_assert!(base.interface.iter().all(|m| c.interface.contains(&m.name)));
                        }
                        Err(e) => {
                            if let CoreError::InheritanceCycle { .. } = e {
                                prop_assert!(a == b || base.bases.contains(&before.loid));
                            }
                            prop_assert_eq!(&classes[a].interface, &before.interface);
                            prop_assert_eq!(&classes[a].bases, &before.bases);
                        }
                    }
                }
            }
            for c in &classes {
                prop_assert!(!c.bases.contains(&c.loid), "{} inherits from itself", c.loid);
            }
        }
    }

    /// Instances created by class objects always name exactly one class,
    /// their own, and their LOIDs never collide.
    #[test]
    fn created_instances_unique(counts in proptest::collection::vec(1usize..20, 1..5)) {
        let mut authority = LegionClassAuthority::new();
        let mut all = std::collections::HashSet::new();
        for (k, n) in counts.iter().enumerate() {
            let (_, c) = authority.issue_class_id(LEGION_CLASS).unwrap();
            let mut class = ClassObject::new(c, format!("C{k}"), ClassKind::NORMAL);
            for _ in 0..*n {
                let o = class.create_instance().unwrap();
                prop_assert!(all.insert(o));
                prop_assert_eq!(o.class_loid(), c);
                prop_assert!(class.table.get(&o).is_some());
            }
        }
    }
}
