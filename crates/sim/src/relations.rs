//! The relations of §2.1.1 as live class objects hold them: *is-a* is an
//! instance's LOID and its class's table row, *kind-of* a class's
//! `superclass` and its parent's table row, and *inherits-from* the
//! `bases` a class gathers through `InheritFrom()`.

#[cfg(test)]
mod tests {
    use crate::model::tests::Live;
    use legion_core::binding::Binding;
    use legion_core::loid::Loid;
    use legion_core::value::LegionValue;
    use legion_core::wellknown::{LEGION_CLASS, LEGION_HOST, LEGION_OBJECT};

    /// The host hierarchy of the paper's Figure 8, derived live from
    /// LegionHost: UnixHost and SPMDHost, and UnixSMMP under UnixHost.
    fn host_hierarchy(live: &mut Live) -> (Binding, Binding, Binding) {
        let legion_host = live.core(LEGION_HOST).unwrap();
        let unix_host = live.sub(&legion_host, "UnixHost");
        let spmd_host = live.sub(&legion_host, "SPMDHost");
        let unix_smmp = live.sub(&unix_host, "UnixSMMP");
        (unix_host, spmd_host, unix_smmp)
    }

    #[test]
    fn is_a_is_a_function() {
        let mut live = Live::new();
        let root = live.root.clone();
        let c = live.sub(&root, "C");
        let d = live.sub(&root, "D");
        let o = live.create(&c).unwrap().loid;
        assert_eq!(o.class_loid(), c.loid);
        // Exactly one class holds the instance's row.
        let holders: Vec<Loid> = [root.loid, c.loid, d.loid]
            .into_iter()
            .filter(|k| live.class(*k).unwrap().table.get(&o).is_some())
            .collect();
        assert_eq!(holders, vec![c.loid]);
        let instances = live.class(c.loid).unwrap().table.iter();
        assert_eq!(instances.filter(|(_, e)| !e.is_subclass).count(), 1);
    }

    #[test]
    fn kind_of_is_a_function_and_irreflexive() {
        let mut live = Live::new();
        let root = live.root.clone();
        let a = live.sub(&root, "A");
        let b = live.sub(&a, "B");
        assert_eq!(live.class(a.loid).unwrap().superclass, Some(root.loid));
        assert_eq!(live.class(b.loid).unwrap().superclass, Some(a.loid));
        // The parent's table holds its one subclass; none is its own.
        let subclasses: Vec<Loid> = live
            .class(root.loid)
            .unwrap()
            .table
            .iter()
            .filter(|(_, e)| e.is_subclass)
            .map(|(l, _)| *l)
            .collect();
        assert_eq!(subclasses, vec![a.loid]);
        for k in [root.loid, a.loid, b.loid] {
            assert_ne!(live.class(k).unwrap().superclass, Some(k));
        }
    }

    #[test]
    fn superclass_chain_reaches_root() {
        let mut live = Live::new();
        let root = live.root.clone();
        let a = live.sub(&root, "A");
        let b = live.sub(&a, "B");
        assert_eq!(
            live.superclass_chain(b.loid),
            vec![b.loid, a.loid, root.loid, LEGION_OBJECT]
        );
    }

    #[test]
    fn is_kind_of_is_transitive_and_reflexive() {
        let mut live = Live::new();
        let (unix_host, spmd_host, unix_smmp) = host_hierarchy(&mut live);
        let smmp_kinds = live.superclass_chain(unix_smmp.loid);
        assert_eq!(
            smmp_kinds,
            vec![unix_smmp.loid, unix_host.loid, LEGION_HOST, LEGION_CLASS]
        );
        assert!(!smmp_kinds.contains(&spmd_host.loid));
        assert!(!live
            .superclass_chain(unix_host.loid)
            .contains(&unix_smmp.loid));
    }

    #[test]
    fn inherits_from_allows_many_bases() {
        let mut live = Live::new();
        let root = live.root.clone();
        let c = live.sub(&root, "C");
        let b1 = live.sub(&root, "B1");
        let b2 = live.sub(&root, "B2");
        for base in [&b1, &b2, &b1] {
            assert_eq!(live.inherit_from(&c, base), Ok(LegionValue::Void));
        }
        assert_eq!(live.class(c.loid).unwrap().bases, vec![b1.loid, b2.loid]);
    }

    #[test]
    fn inherits_from_rejects_self_and_cycles() {
        let mut live = Live::new();
        let root = live.root.clone();
        let a = live.sub(&root, "A");
        let b = live.sub(&root, "B");
        let c = live.sub(&root, "C");
        let refused = live.inherit_from(&a, &a).unwrap_err();
        assert!(refused.contains("itself"), "{refused}");
        // C's declarations reach A through B, so C → A would close a
        // cycle. (A → B before B → C copies nothing of C into A, and
        // then C → A is no cycle.)
        live.inherit_from(&b, &c).unwrap();
        live.inherit_from(&a, &b).unwrap();
        let refused = live.inherit_from(&c, &a).unwrap_err();
        assert!(refused.contains("cycle"), "{refused}");
        // Diamonds are fine (not cycles).
        let d = live.sub(&root, "D");
        live.inherit_from(&d, &b).unwrap();
        live.inherit_from(&d, &c).unwrap();
    }

    #[test]
    fn all_ancestors_covers_chain_and_bases() {
        let mut live = Live::new();
        let root = live.root.clone();
        let base1 = live.sub(&root, "Base1");
        let base2 = live.sub(&root, "Base2");
        live.define(&base1, "b1", legion_core::interface::ParamType::Void);
        live.define(&base2, "b2", legion_core::interface::ParamType::Void);
        let sup = live.sub(&root, "Sup");
        live.inherit_from(&sup, &base2).unwrap();
        let c = live.sub(&sup, "C");
        live.inherit_from(&c, &base1).unwrap();
        // Ancestors: the kind-of chain, and each chain class's bases.
        let mut ancestors = live.superclass_chain(c.loid);
        for k in ancestors.clone() {
            for b in live.class(k).map(|x| x.bases.clone()).unwrap_or_default() {
                if !ancestors.contains(&b) {
                    ancestors.push(b);
                }
            }
        }
        assert_eq!(ancestors[0], c.loid, "self first");
        for x in [base1.loid, sup.loid, base2.loid, root.loid, LEGION_OBJECT] {
            assert!(ancestors.contains(&x), "missing ancestor {x}");
        }
        assert_eq!(ancestors.len(), 6, "no duplicates");
        // Both inherits-from edges reach C's interface.
        let iface = &live.class(c.loid).unwrap().interface;
        assert!(iface.contains("b1") && iface.contains("b2"));
    }
}
