//! The `LegionClass` authority (paper §3.2, §4.1.3).
//!
//! `LegionClass` plays two system-wide roles:
//!
//! 1. **Class Identifier authority** — "LegionClass is responsible for
//!    handing out unique Class Identifiers to each new class" (§3.2).
//! 2. **Class-location authority** — it maintains **responsibility pairs**
//!    ⟨X, Y⟩ meaning "X is responsible for locating Y". When class C
//!    derives D, LegionClass records ⟨C, D⟩; objects looking for D are
//!    pointed toward C (§4.1.3). For a *non-class* object the responsible
//!    class is derived locally by zeroing the Class Specific field — no
//!    LegionClass traffic at all.

use crate::error::{CoreError, CoreResult};
use crate::loid::{ClassId, Loid};
use crate::wellknown::{FIRST_USER_CLASS_ID, LEGION_CLASS};
use std::collections::BTreeMap;

/// The LegionClass metaclass state: the Class Identifier counter and the
/// responsibility-pair map.
#[derive(Debug, Clone)]
pub struct LegionClassAuthority {
    next_class_id: u64,
    /// created-class → creating-class (the pair ⟨creator, created⟩ keyed
    /// by the created class for O(log n) lookup).
    responsible_for: BTreeMap<Loid, Loid>,
}

impl Default for LegionClassAuthority {
    fn default() -> Self {
        Self::new()
    }
}

impl LegionClassAuthority {
    /// A fresh authority; user class ids start at
    /// [`FIRST_USER_CLASS_ID`], core ids are pre-reserved.
    pub fn new() -> Self {
        LegionClassAuthority {
            next_class_id: FIRST_USER_CLASS_ID,
            responsible_for: BTreeMap::new(),
        }
    }

    /// Issue the next unique Class Identifier and record that `creator` is
    /// responsible for locating the new class (§4.1.3: "When a new class
    /// object D is created, the creating class C contacts LegionClass for
    /// a new Class Identifier ... At this time, LegionClass can record
    /// that C is responsible for locating D").
    pub fn issue_class_id(&mut self, creator: Loid) -> CoreResult<(ClassId, Loid)> {
        if !creator.is_class() {
            return Err(CoreError::NotAClass(creator));
        }
        if self.next_class_id == u64::MAX {
            return Err(CoreError::ClassIdExhausted);
        }
        let id = ClassId(self.next_class_id);
        self.next_class_id += 1;
        let new_class = Loid::class_object(id.0);
        self.responsible_for.insert(new_class, creator);
        Ok((id, new_class))
    }

    /// Who is responsible for locating `target`?
    ///
    /// * non-class object → its class, derived locally (`class_loid`);
    /// * class object with a recorded pair → the creating class;
    /// * a core class (or LegionClass itself) → `LegionClass`, which "simply
    ///   hands out the appropriate binding which, as a class object, it is
    ///   responsible for maintaining".
    pub fn find_responsible(&self, target: &Loid) -> CoreResult<Loid> {
        if !target.is_class() {
            return Ok(target.class_loid());
        }
        match self.responsible_for.get(target) {
            Some(creator) => Ok(*creator),
            None => {
                if crate::wellknown::is_core_class(target) {
                    Ok(LEGION_CLASS)
                } else {
                    Err(CoreError::UnknownLoid(*target))
                }
            }
        }
    }

    /// Adopt an *externally created* class (bootstrap, §4.2.1): record
    /// that `responsible` locates it, and reserve its Class Identifier so
    /// future `IssueClassId` calls cannot collide with it.
    pub fn adopt(&mut self, created: Loid, responsible: Loid) -> CoreResult<()> {
        if !created.is_class() {
            return Err(CoreError::NotAClass(created));
        }
        if !responsible.is_class() {
            return Err(CoreError::NotAClass(responsible));
        }
        self.responsible_for.insert(created, responsible);
        if created.class_id.0 >= self.next_class_id {
            self.next_class_id = created.class_id.0 + 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wellknown::{LEGION_HOST, LEGION_OBJECT};

    /// §4.1.3's repeated lookup, as a Binding Agent walks it over the
    /// wire: "the binding process may need to be repeated in order to
    /// locate C, and again to locate C's superclass ... the process can
    /// end when the responsible class is LegionClass itself."
    fn chain(a: &LegionClassAuthority, target: Loid) -> Vec<Loid> {
        let mut chain = vec![a.find_responsible(&target).unwrap()];
        while chain[chain.len() - 1] != LEGION_CLASS {
            chain.push(a.find_responsible(&chain[chain.len() - 1]).unwrap());
        }
        chain
    }

    #[test]
    fn issues_unique_sequential_ids() {
        let mut a = LegionClassAuthority::new();
        let creator = LEGION_CLASS;
        let (id1, l1) = a.issue_class_id(creator).unwrap();
        let (id2, l2) = a.issue_class_id(creator).unwrap();
        assert_eq!(id1.0, FIRST_USER_CLASS_ID);
        assert_eq!(id2.0, FIRST_USER_CLASS_ID + 1);
        assert_ne!(l1, l2);
        assert!(l1.is_class() && l2.is_class());
    }

    #[test]
    fn rejects_non_class_creator() {
        let mut a = LegionClassAuthority::new();
        assert!(matches!(
            a.issue_class_id(Loid::instance(16, 1)),
            Err(CoreError::NotAClass(_))
        ));
    }

    #[test]
    fn non_class_target_resolves_locally() {
        let a = LegionClassAuthority::new();
        let o = Loid::instance(77, 5);
        assert_eq!(a.find_responsible(&o).unwrap(), Loid::class_object(77));
    }

    #[test]
    fn class_target_resolves_via_pair() {
        let mut a = LegionClassAuthority::new();
        let (_, d) = a.issue_class_id(LEGION_HOST).unwrap();
        assert_eq!(a.find_responsible(&d).unwrap(), LEGION_HOST);
    }

    #[test]
    fn core_classes_resolve_to_legion_class() {
        let a = LegionClassAuthority::new();
        assert_eq!(a.find_responsible(&LEGION_HOST).unwrap(), LEGION_CLASS);
        assert_eq!(a.find_responsible(&LEGION_OBJECT).unwrap(), LEGION_CLASS);
        assert_eq!(a.find_responsible(&LEGION_CLASS).unwrap(), LEGION_CLASS);
    }

    #[test]
    fn unknown_class_is_an_error() {
        let a = LegionClassAuthority::new();
        assert!(matches!(
            a.find_responsible(&Loid::class_object(9999)),
            Err(CoreError::UnknownLoid(_))
        ));
    }

    #[test]
    fn responsibility_chain_ends_at_legion_class() {
        let mut a = LegionClassAuthority::new();
        // LegionHost derives UnixHost derives MyHost.
        let (_, unix_host) = a.issue_class_id(LEGION_HOST).unwrap();
        let (_, my_host) = a.issue_class_id(unix_host).unwrap();
        assert_eq!(
            chain(&a, my_host),
            vec![unix_host, LEGION_HOST, LEGION_CLASS]
        );
    }

    #[test]
    fn chain_for_instance_starts_at_its_class() {
        let mut a = LegionClassAuthority::new();
        let (_, c) = a.issue_class_id(LEGION_CLASS).unwrap();
        let o = Loid::instance(c.class_id.0, 3);
        assert_eq!(chain(&a, o), vec![c, LEGION_CLASS]);
    }
}
