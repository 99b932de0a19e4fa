//! The object model of §2.1, tested where it runs: `Create()`, `Derive()`,
//! `InheritFrom()` and `Delete()` on the live class endpoints of a
//! [`LegionSystem`], over the wire. [`tests::Live`] drives one such system;
//! the `relations` and `inherit` tests use it for the §2.1.1 relations and
//! for multiple inheritance.

#[cfg(test)]
pub(crate) mod tests {
    use crate::system::{LegionSystem, SystemConfig};
    use legion_core::address::ObjectAddress;
    use legion_core::binding::Binding;
    use legion_core::class::ClassObject;
    use legion_core::interface::{MethodSignature, ParamType};
    use legion_core::loid::Loid;
    use legion_core::symbol::Sym;
    use legion_core::value::LegionValue;
    use legion_core::wellknown::{
        CORE_CLASSES, LEGION_BINDING_AGENT, LEGION_CLASS, LEGION_HOST, LEGION_MAGISTRATE,
        LEGION_OBJECT,
    };
    use legion_naming::protocol::{FIND_RESPONSIBLE, GET_BINDING};
    use legion_runtime::class_endpoint::ClassEndpoint;
    use legion_runtime::protocol::class as class_proto;

    /// One live system, and the calls the object-model tests make on it.
    pub(crate) struct Live {
        pub(crate) sys: LegionSystem,
        /// The system's one user class, kind-of LegionObject. Classes derived
        /// from it find each other through its Binding Agent.
        pub(crate) root: Binding,
    }

    impl Live {
        pub(crate) fn new() -> Live {
            let sys = LegionSystem::build(SystemConfig {
                jurisdictions: 1,
                hosts_per_jurisdiction: 2,
                classes: 1,
                objects_per_class: 0,
                ..SystemConfig::default()
            });
            let (loid, ep) = sys.classes[0];
            let root = Binding::forever(loid, ObjectAddress::single(ep.element()));
            Live { sys, root }
        }

        /// Call `method` on the object `to` binds.
        pub(crate) fn call(
            &mut self,
            to: &Binding,
            method: Sym,
            args: Vec<LegionValue>,
        ) -> Result<LegionValue, String> {
            let el = *to.address.primary().expect("a binding with an address");
            self.sys.call(el, to.loid, method, args)
        }

        fn call_for_binding(
            &mut self,
            to: &Binding,
            method: Sym,
            args: Vec<LegionValue>,
        ) -> Result<Binding, String> {
            match self.call(to, method, args)? {
                LegionValue::Binding(b) => Ok(*b),
                v => Err(format!("expected a binding, got {v}")),
            }
        }

        /// A core class, located by LegionClass's `GetBinding`.
        pub(crate) fn core(&mut self, class: Loid) -> Result<Binding, String> {
            let el = self.sys.core.legion_class_element();
            let args = vec![LegionValue::Loid(class)];
            self.sys
                .call_for_binding(el, LEGION_CLASS, GET_BINDING, args)
        }

        /// `parent.Derive(name, flags)`, flags as Derive parses them: "",
        /// "abstract", "private" or "fixed".
        pub(crate) fn derive(
            &mut self,
            parent: &Binding,
            name: &str,
            flags: &str,
        ) -> Result<Binding, String> {
            let args = vec![LegionValue::from(name), LegionValue::from(flags)];
            self.call_for_binding(parent, class_proto::DERIVE, args)
        }

        /// `parent.Derive(name)` of a Normal class, which must succeed.
        pub(crate) fn sub(&mut self, parent: &Binding, name: &str) -> Binding {
            self.derive(parent, name, "")
                .unwrap_or_else(|e| panic!("Derive {name}: {e}"))
        }

        pub(crate) fn create(&mut self, class: &Binding) -> Result<Binding, String> {
            self.call_for_binding(class, class_proto::CREATE, vec![])
        }

        pub(crate) fn inherit_from(
            &mut self,
            class: &Binding,
            base: &Binding,
        ) -> Result<LegionValue, String> {
            let args = vec![LegionValue::Loid(base.loid)];
            self.call(class, class_proto::INHERIT_FROM, args)
        }

        pub(crate) fn delete(
            &mut self,
            class: &Binding,
            target: Loid,
        ) -> Result<LegionValue, String> {
            let args = vec![LegionValue::Loid(target)];
            self.call(class, class_proto::DELETE, args)
        }

        /// Declare `name() -> returns` on a live class, as its IDL would at
        /// start-up: no message.
        pub(crate) fn define(&mut self, class: &Binding, name: &str, returns: ParamType) {
            let ep = legion_net::sim::EndpointId(
                class
                    .address
                    .primary()
                    .and_then(|e| e.sim_endpoint())
                    .expect("a class binding names a simulated endpoint"),
            );
            self.sys
                .kernel
                .endpoint_mut::<ClassEndpoint>(ep)
                .expect("a live class endpoint")
                .class_mut()
                .interface
                .define(MethodSignature::new(name, vec![], returns), class.loid);
        }

        /// The live class object of `loid`, if a class endpoint serves one
        /// (LegionClass is the metaclass endpoint and serves none).
        pub(crate) fn class(&self, loid: Loid) -> Option<&ClassObject> {
            let k = &self.sys.kernel;
            k.all_meta().find_map(|(id, _)| {
                let c = k.endpoint::<ClassEndpoint>(id)?.class();
                (c.loid == loid).then_some(c)
            })
        }

        /// `loid` and its superclasses, nearest first, up to the first class
        /// with no superclass or no live class object.
        pub(crate) fn superclass_chain(&self, loid: Loid) -> Vec<Loid> {
            let mut chain = vec![loid];
            while let Some(up) = self
                .class(*chain.last().unwrap())
                .and_then(|c| c.superclass)
            {
                chain.push(up);
            }
            chain
        }

        /// The IDL text a class's `GetInstanceInterface` serves.
        pub(crate) fn instance_idl(&mut self, class: &Binding) -> String {
            match self.call(class, class_proto::GET_INSTANCE_INTERFACE, vec![]) {
                Ok(LegionValue::Str(text)) => text,
                other => panic!("GetInstanceInterface replied {other:?}"),
            }
        }
    }

    #[test]
    fn bootstrap_registers_core_classes() {
        let mut live = Live::new();
        for c in CORE_CLASSES {
            let b = live
                .core(c)
                .unwrap_or_else(|e| panic!("core class {c} missing: {e}"));
            assert_eq!(b.loid, c);
            // LegionClass is the metaclass endpoint; the rest are class
            // objects.
            assert_eq!(live.class(c).is_some(), c != LEGION_CLASS, "{c}");
        }
    }

    #[test]
    fn core_hierarchy_matches_paper() {
        let live = Live::new();
        assert_eq!(live.class(LEGION_OBJECT).unwrap().superclass, None);
        for c in [LEGION_HOST, LEGION_MAGISTRATE, LEGION_BINDING_AGENT] {
            assert_eq!(live.class(c).unwrap().superclass, Some(LEGION_CLASS));
        }
        assert_eq!(
            live.superclass_chain(live.root.loid),
            vec![live.root.loid, LEGION_OBJECT]
        );
    }

    #[test]
    fn classes_inherit_object_and_class_mandatory_functions() {
        let mut live = Live::new();
        let host = live.core(LEGION_HOST).unwrap();
        let unix_host = live.sub(&host, "UnixHost");
        let idl = live.instance_idl(&unix_host);
        for method in ["MayI", "SaveState", "RestoreState", "Create", "Derive"] {
            assert!(live.class(LEGION_HOST).unwrap().interface.contains(method));
            assert!(idl.contains(method), "UnixHost lacks {method}: {idl}");
        }
    }

    #[test]
    fn core_classes_are_abstract() {
        let mut live = Live::new();
        for c in CORE_CLASSES {
            let b = live.core(c).unwrap();
            let refused = live.create(&b).unwrap_err();
            if c != LEGION_CLASS {
                assert!(live.class(c).unwrap().kind.is_abstract, "{c}");
                assert!(refused.contains("Abstract"), "{c}: {refused}");
            }
        }
    }

    #[test]
    fn derive_then_create_full_path() {
        let mut live = Live::new();
        let root = live.root.clone();
        let file = live.sub(&root, "File");
        let f1 = live.create(&file).unwrap();
        assert_eq!(f1.loid.class_loid(), file.loid);
        let class = live.class(file.loid).unwrap();
        assert_eq!(class.superclass, Some(root.loid));
        assert!(class.table.get(&f1.loid).is_some());
        // The instances export the inherited interface.
        let idl = live.instance_idl(&file);
        assert!(idl.contains("MayI") && idl.contains("Work"), "{idl}");
    }

    #[test]
    fn derive_records_responsibility_pair() {
        let mut live = Live::new();
        let host = live.core(LEGION_HOST).unwrap();
        let d = live.sub(&host, "UnixHost");
        let el = live.sys.core.legion_class_element();
        let r = live.sys.call(
            el,
            LEGION_CLASS,
            FIND_RESPONSIBLE,
            vec![LegionValue::Loid(d.loid)],
        );
        assert_eq!(r, Ok(LegionValue::Loid(LEGION_HOST)));
    }

    #[test]
    fn derive_from_private_class_fails() {
        let mut live = Live::new();
        let root = live.root.clone();
        let p = live.derive(&root, "Sealed", "private").unwrap();
        let issued = |live: &Live| live.sys.kernel.counters().get("legion_class.issue");
        let before = issued(&live);
        for name in ["Sub", "Sub2"] {
            let refused = live.derive(&p, name, "").unwrap_err();
            assert!(refused.contains("Private"), "{refused}");
        }
        // No Class Identifier was burned by the refused Derives.
        assert_eq!(issued(&live), before);
    }

    #[test]
    fn inherit_from_composes_interfaces() {
        let mut live = Live::new();
        let root = live.root.clone();
        let a = live.sub(&root, "A");
        let b = live.sub(&root, "B");
        live.define(&b, "Render", ParamType::Void);
        assert_eq!(live.inherit_from(&a, &b), Ok(LegionValue::Void));
        let a = live.class(a.loid).unwrap();
        assert!(a.interface.contains("Render"));
        assert_eq!(a.bases, vec![b.loid]);
    }

    #[test]
    fn inherit_from_rejects_cycle_without_side_effects() {
        let mut live = Live::new();
        let root = live.root.clone();
        let a = live.sub(&root, "A");
        let b = live.sub(&root, "B");
        live.inherit_from(&a, &b).unwrap();
        let before = live.class(b.loid).unwrap().clone();
        let refused = live.inherit_from(&b, &a).unwrap_err();
        assert!(refused.contains("cycle"), "{refused}");
        let after = live.class(b.loid).unwrap();
        assert_eq!(after.bases, Vec::<Loid>::new());
        assert_eq!(after.interface, before.interface);
    }

    #[test]
    fn inherit_from_conflict_leaves_graph_clean() {
        let mut live = Live::new();
        let root = live.root.clone();
        let a = live.sub(&root, "A");
        let b = live.sub(&root, "B");
        let c = live.sub(&root, "C");
        live.define(&b, "f", ParamType::Int);
        live.define(&c, "f", ParamType::Str);
        live.inherit_from(&a, &b).unwrap();
        let before = live.class(a.loid).unwrap().interface.clone();
        let refused = live.inherit_from(&a, &c).unwrap_err();
        assert!(refused.contains("conflicts"), "{refused}");
        let a = live.class(a.loid).unwrap();
        assert_eq!(a.bases, vec![b.loid], "a refused merge adds no base");
        assert_eq!(a.interface, before);
    }

    #[test]
    fn own_redefinition_resolves_conflict() {
        let mut live = Live::new();
        let root = live.root.clone();
        let a = live.sub(&root, "A");
        let b = live.sub(&root, "B");
        let c = live.sub(&root, "C");
        live.define(&b, "f", ParamType::Int);
        live.define(&c, "f", ParamType::Str);
        // A declares f itself: its definition shadows both bases.
        live.define(&a, "f", ParamType::Bool);
        live.inherit_from(&a, &b).unwrap();
        live.inherit_from(&a, &c).unwrap();
        let a = live.class(a.loid).unwrap();
        assert_eq!(a.interface.get("f").unwrap().returns, ParamType::Bool);
        assert_eq!(a.bases, vec![b.loid, c.loid]);
    }

    #[test]
    fn delete_instance() {
        let mut live = Live::new();
        let root = live.root.clone();
        let c = live.sub(&root, "C");
        let o = live.create(&c).unwrap().loid;
        assert_eq!(live.delete(&c, o), Ok(LegionValue::Void));
        assert!(live.class(c.loid).unwrap().table.get(&o).is_none());
        let refused = live.delete(&c, o).unwrap_err();
        assert!(refused.contains("unknown object"), "{refused}");
    }

    #[test]
    fn delete_class_requires_empty_table() {
        let mut live = Live::new();
        let root = live.root.clone();
        let c = live.sub(&root, "C");
        let o = live.create(&c).unwrap().loid;
        let refused = live.delete(&root, c.loid).unwrap_err();
        assert!(refused.contains("still has 1 children"), "{refused}");
        assert!(live.class(root.loid).unwrap().table.get(&c.loid).is_some());
        live.delete(&c, o).unwrap();
        assert_eq!(live.delete(&root, c.loid), Ok(LegionValue::Void));
        assert!(live.class(root.loid).unwrap().table.get(&c.loid).is_none());
    }

    #[test]
    fn fixed_class_cannot_inherit() {
        let mut live = Live::new();
        let root = live.root.clone();
        let f = live.derive(&root, "F", "fixed").unwrap();
        let b = live.sub(&root, "B");
        let refused = live.inherit_from(&f, &b).unwrap_err();
        assert!(refused.contains("Fixed"), "{refused}");
    }

    #[test]
    fn deep_hierarchy_stays_consistent() {
        let mut live = Live::new();
        let mut cur = live.root.clone();
        for depth in 0..20 {
            cur = live.sub(&cur, &format!("Depth{depth}"));
            live.define(&cur, &format!("m{depth}"), ParamType::Void);
        }
        let leaf = &live.class(cur.loid).unwrap().interface;
        for depth in 0..20 {
            assert!(leaf.contains(&format!("m{depth}")), "m{depth}");
        }
        // 20 levels, the root user class and LegionObject.
        assert_eq!(live.superclass_chain(cur.loid).len(), 22);
    }
}
