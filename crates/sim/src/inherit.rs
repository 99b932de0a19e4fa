//! Multiple inheritance on live class objects (§2.1): an `InheritFrom()`
//! merges the base's interface as it is at call time, refuses a base
//! whose method is incompatible with an inherited one, and lets the
//! class's own definition shadow any base's.

#[cfg(test)]
mod tests {
    use crate::model::tests::Live;
    use legion_core::binding::Binding;
    use legion_core::interface::ParamType;

    /// C derived from S, and two bases B1 and B2; all under the root.
    fn diamondish(live: &mut Live) -> (Binding, Binding, Binding, Binding) {
        let root = live.root.clone();
        let s = live.sub(&root, "S");
        let c = live.sub(&s, "C");
        let b1 = live.sub(&root, "B1");
        let b2 = live.sub(&root, "B2");
        (s, c, b1, b2)
    }

    #[test]
    fn compose_nearest_wins() {
        let mut live = Live::new();
        let root = live.root.clone();
        let s = live.sub(&root, "S");
        live.define(&s, "g", ParamType::Void);
        let c = live.sub(&s, "C");
        let b1 = live.sub(&root, "B1");
        live.define(&c, "f", ParamType::Int);
        live.define(&b1, "f", ParamType::Void); // shadowed by C's
        let before = live.class(c.loid).unwrap().interface.len();
        live.inherit_from(&c, &b1).unwrap();
        let eff = &live.class(c.loid).unwrap().interface;
        assert_eq!(eff.get("f").unwrap().returns, ParamType::Int);
        assert_eq!(eff.provider("f"), Some(c.loid));
        assert!(eff.contains("g"));
        assert_eq!(eff.len(), before);
    }

    #[test]
    fn ambiguity_between_unrelated_bases() {
        let mut live = Live::new();
        let (_, c, b1, b2) = diamondish(&mut live);
        live.define(&b1, "f", ParamType::Int);
        live.define(&b2, "f", ParamType::Void);
        live.inherit_from(&c, &b1).unwrap();
        let refused = live.inherit_from(&c, &b2).unwrap_err();
        assert!(refused.contains("conflicts"), "{refused}");
        let c = live.class(c.loid).unwrap();
        assert_eq!(c.interface.provider("f"), Some(b1.loid));
        assert_eq!(c.bases, vec![b1.loid]);
    }

    #[test]
    fn own_declaration_disambiguates() {
        let mut live = Live::new();
        let (_, c, b1, b2) = diamondish(&mut live);
        live.define(&c, "f", ParamType::Str);
        live.define(&b1, "f", ParamType::Int);
        live.define(&b2, "f", ParamType::Void);
        live.inherit_from(&c, &b1).unwrap();
        live.inherit_from(&c, &b2).unwrap();
        let eff = &live.class(c.loid).unwrap().interface;
        assert_eq!(eff.get("f").unwrap().returns, ParamType::Str);
    }

    #[test]
    fn compatible_duplicates_are_not_ambiguous() {
        let mut live = Live::new();
        let (_, c, b1, b2) = diamondish(&mut live);
        live.define(&b1, "f", ParamType::Int);
        live.define(&b2, "f", ParamType::Int);
        live.inherit_from(&c, &b1).unwrap();
        live.inherit_from(&c, &b2).unwrap();
        let c = live.class(c.loid).unwrap();
        assert_eq!(c.interface.get("f").unwrap().returns, ParamType::Int);
        assert_eq!(c.bases, vec![b1.loid, b2.loid]);
    }

    #[test]
    fn diamond_single_grandbase_not_ambiguous() {
        // B1 and B2 both inherit from D; D's method reaches C twice but
        // from the same declaring class: no conflict.
        let mut live = Live::new();
        let (_, c, b1, b2) = diamondish(&mut live);
        let root = live.root.clone();
        let d = live.sub(&root, "D");
        live.define(&d, "f", ParamType::Int);
        live.inherit_from(&b1, &d).unwrap();
        live.inherit_from(&b2, &d).unwrap();
        live.inherit_from(&c, &b1).unwrap();
        live.inherit_from(&c, &b2).unwrap();
        let c = live.class(c.loid).unwrap();
        assert_eq!(c.interface.get("f").unwrap().returns, ParamType::Int);
        assert_eq!(c.bases, vec![b1.loid, d.loid, b2.loid], "D once");
    }
}
