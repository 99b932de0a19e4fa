//! Class objects and the logical table (paper §2.1.2, §3.7).
//!
//! Every Legion object belongs to a class, and each class is itself a
//! Legion object. Class objects export the **class-mandatory** member
//! functions — `Create()`, `Derive()`, `InheritFrom()`, `Delete()`,
//! `GetBinding()`, `GetInterface()` — and each *logically* maintains a
//! table with one row per object it created (instance or subclass).
//! Figure 16 gives a row five columns; the live table keeps the three a
//! running class reads: LOID, Object Address and Current Magistrate List.
//! The Candidate Magistrate List is the class's configuration
//! (`legion-runtime`'s `ClassConfig::magistrates`: a class places objects
//! only on the Magistrates it names), and the Scheduling Agent acts
//! through the Magistrate's `Activate(loid, host)` hint.
//!
//! This module is the per-class state and the rules of §2.1.1–§2.1.2 that
//! one class can check alone: Abstract refuses `Create`, Private refuses
//! `Derive`, Fixed refuses `InheritFrom`, an incompatible base is refused
//! whole, and a base that already inherits from this class is refused as
//! a cycle. The calls across classes (a Class Identifier from LegionClass,
//! a base's interface and inherited-from set from the base itself) are
//! made by the live class endpoint in `legion-runtime`.

use crate::address::ObjectAddress;
use crate::error::{CoreError, CoreResult};
use crate::interface::{Interface, MethodSignature, ParamType};
use crate::loid::{Loid, LoidAllocator};
use std::collections::BTreeMap;
use std::fmt;

/// Canonical class-mandatory method names.
pub mod methods {
    /// Instantiate a new non-class object (is-a relation).
    pub const CREATE: &str = "Create";
    /// Create a new subclass (kind-of relation).
    pub const DERIVE: &str = "Derive";
    /// Add a base class (inherits-from relation).
    pub const INHERIT_FROM: &str = "InheritFrom";
    /// Remove an instance or subclass from existence.
    pub const DELETE: &str = "Delete";
    /// Return a binding for an instance/subclass this class created.
    pub const GET_BINDING: &str = "GetBinding";
    /// Return the interface instances of this class will export.
    pub const GET_INTERFACE: &str = "GetInterface";
}

/// The class-mandatory interface, attributed to `provider` (normally the
/// `LegionClass` metaclass — all classes eventually derive from it, §2.1.3).
pub fn class_mandatory_interface(provider: Loid) -> Interface {
    let mut i = Interface::new();
    i.define(
        MethodSignature::new(methods::CREATE, vec![], ParamType::Loid),
        provider,
    );
    i.define(
        MethodSignature::new(
            methods::DERIVE,
            vec![("name", ParamType::Str)],
            ParamType::Loid,
        ),
        provider,
    );
    i.define(
        MethodSignature::new(
            methods::INHERIT_FROM,
            vec![("base", ParamType::Loid)],
            ParamType::Void,
        ),
        provider,
    );
    i.define(
        MethodSignature::new(
            methods::DELETE,
            vec![("target", ParamType::Loid)],
            ParamType::Void,
        ),
        provider,
    );
    i.define(
        MethodSignature::new(
            methods::GET_BINDING,
            vec![("target", ParamType::Loid)],
            ParamType::Binding,
        ),
        provider,
    );
    i.define(
        MethodSignature::new(methods::GET_INTERFACE, vec![], ParamType::Str),
        provider,
    );
    i
}

/// The three "special types of Legion classes" (§2.1.2), expressed as
/// independent flags: a class may be any combination of Abstract, Private,
/// and Fixed (each is "an overload to a possibly empty member function").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ClassKind {
    /// `Create()` is empty: no direct instances can exist.
    pub is_abstract: bool,
    /// `Derive()` is empty: no subclasses, only instances.
    pub is_private: bool,
    /// `InheritFrom()` is empty: inherits only from its superclass.
    pub is_fixed: bool,
}

impl ClassKind {
    /// A plain class: instances, subclasses, and bases all allowed.
    pub const NORMAL: ClassKind = ClassKind {
        is_abstract: false,
        is_private: false,
        is_fixed: false,
    };
    /// An Abstract class (empty `Create`).
    pub const ABSTRACT: ClassKind = ClassKind {
        is_abstract: true,
        is_private: false,
        is_fixed: false,
    };
    /// A Private class (empty `Derive`).
    pub const PRIVATE: ClassKind = ClassKind {
        is_abstract: false,
        is_private: true,
        is_fixed: false,
    };
    /// A Fixed class (empty `InheritFrom`).
    pub const FIXED: ClassKind = ClassKind {
        is_abstract: false,
        is_private: false,
        is_fixed: true,
    };
}

impl fmt::Display for ClassKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        if self.is_abstract {
            parts.push("Abstract");
        }
        if self.is_private {
            parts.push("Private");
        }
        if self.is_fixed {
            parts.push("Fixed");
        }
        if parts.is_empty() {
            write!(f, "Normal")
        } else {
            write!(f, "{}", parts.join("+"))
        }
    }
}

/// One row of the logical table (§3.7, Figure 16).
#[derive(Debug, Clone, PartialEq)]
pub struct TableEntry {
    /// Object Address of the object if Active and known to the class;
    /// `None` if Inert or unknown ("NIL" in the paper).
    pub address: Option<ObjectAddress>,
    /// Magistrates currently holding an OPR for the object ("typically,
    /// only one Magistrate will have a copy").
    pub current_magistrates: Vec<Loid>,
    /// Whether the row names a subclass (vs an instance).
    pub is_subclass: bool,
}

impl TableEntry {
    /// A fresh row for a newly created object.
    pub fn new(is_subclass: bool) -> Self {
        TableEntry {
            address: None,
            current_magistrates: Vec::new(),
            is_subclass,
        }
    }
}

/// The logical table a class object maintains about the objects it created.
///
/// "In practice, the class object may employ other Legion objects, such as
/// database servers, to maintain some or all of the information" — here it
/// is an in-memory map, but the interface is the paper's.
#[derive(Debug, Clone, Default)]
pub struct LogicalTable {
    rows: BTreeMap<Loid, TableEntry>,
}

impl LogicalTable {
    /// An empty table.
    pub fn new() -> Self {
        LogicalTable::default()
    }

    /// Number of rows (objects this class is responsible for).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Insert a row for a newly created object.
    pub fn insert(&mut self, loid: Loid, entry: TableEntry) {
        self.rows.insert(loid, entry);
    }

    /// Fetch a row.
    pub fn get(&self, loid: &Loid) -> Option<&TableEntry> {
        self.rows.get(loid)
    }

    /// Fetch a row mutably.
    pub fn get_mut(&mut self, loid: &Loid) -> Option<&mut TableEntry> {
        self.rows.get_mut(loid)
    }

    /// Remove a row (the object was deleted).
    pub fn remove(&mut self, loid: &Loid) -> Option<TableEntry> {
        self.rows.remove(loid)
    }

    /// Record that `magistrate` holds an OPR for `loid` (idempotent).
    pub fn add_magistrate(&mut self, loid: &Loid, magistrate: Loid) -> bool {
        match self.rows.get_mut(loid) {
            Some(e) => {
                if !e.current_magistrates.contains(&magistrate) {
                    e.current_magistrates.push(magistrate);
                }
                true
            }
            None => false,
        }
    }

    /// Record that `magistrate` no longer holds an OPR for `loid`.
    pub fn remove_magistrate(&mut self, loid: &Loid, magistrate: Loid) -> bool {
        match self.rows.get_mut(loid) {
            Some(e) => {
                e.current_magistrates.retain(|m| *m != magistrate);
                true
            }
            None => false,
        }
    }

    /// Iterate over rows in LOID order.
    pub fn iter(&self) -> impl Iterator<Item = (&Loid, &TableEntry)> {
        self.rows.iter()
    }
}

/// A Legion class object: per-class state behind the class-mandatory
/// member functions.
#[derive(Debug, Clone)]
pub struct ClassObject {
    /// The class object's own LOID (Class Specific = 0).
    pub loid: Loid,
    /// Human-readable name (from the IDL or Derive call).
    pub name: String,
    /// Abstract / Private / Fixed flags.
    pub kind: ClassKind,
    /// The superclass this class was derived from (`None` only for
    /// `LegionObject`, the sink of the kind-of ∪ is-a graph).
    pub superclass: Option<Loid>,
    /// Every class whose declarations reached this one through
    /// `InheritFrom`: each base, and what that base had inherited from
    /// when it was merged, once each, in discovery order. Only
    /// inherits-from edges count, so a `Derive`'d subclass starts empty.
    pub bases: Vec<Loid>,
    /// The interface this class's *instances* export: own methods merged
    /// with the superclass's interface at Derive time and with each base's
    /// at InheritFrom time.
    pub interface: Interface,
    /// Allocator for instance LOIDs.
    allocator: LoidAllocator,
    /// The logical table of §3.7.
    pub table: LogicalTable,
}

impl ClassObject {
    /// Construct a class object shell with an empty interface; its
    /// creator sets the superclass and the interface.
    pub fn new(loid: Loid, name: impl Into<String>, kind: ClassKind) -> Self {
        assert!(
            loid.is_class(),
            "class object LOIDs have Class Specific = 0"
        );
        ClassObject {
            name: name.into(),
            kind,
            superclass: None,
            bases: Vec::new(),
            interface: Interface::new(),
            allocator: LoidAllocator::new(loid.class_id),
            table: LogicalTable::new(),
            loid,
        }
    }

    /// `Create()`'s local half: allocate an instance LOID and add its
    /// table row. Fails on Abstract classes (§2.1.2).
    pub fn create_instance(&mut self) -> CoreResult<Loid> {
        if self.kind.is_abstract {
            return Err(CoreError::AbstractClass(self.loid));
        }
        let loid = self.allocator.next()?;
        self.table.insert(loid, TableEntry::new(false));
        Ok(loid)
    }

    /// `Derive()`'s local half: record responsibility for a subclass whose
    /// LOID was issued by LegionClass. Fails on Private classes (§2.1.2).
    pub fn record_subclass(&mut self, subclass: Loid) -> CoreResult<()> {
        if self.kind.is_private {
            return Err(CoreError::PrivateClass(self.loid));
        }
        self.table.insert(subclass, TableEntry::new(true));
        Ok(())
    }

    /// `InheritFrom()`'s local half: merge `base_interface` into this
    /// class's interface and add `base` and `base_bases` (the base's own
    /// [`ClassObject::bases`]) to [`ClassObject::bases`]. Fails on Fixed
    /// classes, on a base that is this class or already inherits from it
    /// ([`CoreError::InheritanceCycle`]), and on a base with a method
    /// that conflicts with an inherited one; a failure changes nothing.
    ///
    /// The merge copies the base's interface as it is now: a method the
    /// base gains later does not reach this class. So A→B, B→C, then
    /// C→A is no cycle: C is not in A's set, and nothing of C's reaches
    /// C through A.
    pub fn inherit_from(
        &mut self,
        base: Loid,
        base_interface: &Interface,
        base_bases: &[Loid],
    ) -> CoreResult<()> {
        if self.kind.is_fixed {
            return Err(CoreError::FixedClass(self.loid));
        }
        if !base.is_class() {
            return Err(CoreError::NotAClass(base));
        }
        if base == self.loid || base_bases.contains(&self.loid) {
            return Err(CoreError::InheritanceCycle {
                class: self.loid,
                base,
            });
        }
        self.interface
            .merge_from_with_owner(base_interface, self.loid)?;
        for b in std::iter::once(&base).chain(base_bases) {
            if !self.bases.contains(b) {
                self.bases.push(*b);
            }
        }
        Ok(())
    }

    /// `Delete()`'s local half: drop the table row for `target`.
    pub fn delete_child(&mut self, target: &Loid) -> CoreResult<TableEntry> {
        self.table
            .remove(target)
            .ok_or(CoreError::UnknownLoid(*target))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wellknown;

    fn fresh(kind: ClassKind) -> ClassObject {
        ClassObject::new(Loid::class_object(30), "TestClass", kind)
    }

    #[test]
    fn class_mandatory_interface_is_complete() {
        let i = class_mandatory_interface(wellknown::LEGION_CLASS);
        for m in [
            methods::CREATE,
            methods::DERIVE,
            methods::INHERIT_FROM,
            methods::DELETE,
            methods::GET_BINDING,
            methods::GET_INTERFACE,
        ] {
            assert!(i.contains(m), "missing {m}");
        }
    }

    #[test]
    fn create_allocates_sequential_instances() {
        let mut c = fresh(ClassKind::NORMAL);
        let a = c.create_instance().unwrap();
        let b = c.create_instance().unwrap();
        assert_eq!(a.class_id, c.loid.class_id);
        assert_eq!(a.class_specific, 1);
        assert_eq!(b.class_specific, 2);
        assert_eq!(c.table.len(), 2);
        assert!(!c.table.get(&a).unwrap().is_subclass);
    }

    #[test]
    fn abstract_class_refuses_create() {
        let mut c = fresh(ClassKind::ABSTRACT);
        assert_eq!(c.create_instance(), Err(CoreError::AbstractClass(c.loid)));
    }

    #[test]
    fn private_class_refuses_derive() {
        let mut c = fresh(ClassKind::PRIVATE);
        assert_eq!(
            c.record_subclass(Loid::class_object(31)),
            Err(CoreError::PrivateClass(c.loid))
        );
        // But instances are fine: "Private class objects can have no
        // derived classes, just instances."
        assert!(c.create_instance().is_ok());
    }

    #[test]
    fn fixed_class_refuses_inherit_from() {
        let mut c = fresh(ClassKind::FIXED);
        let base = Interface::new();
        assert_eq!(
            c.inherit_from(Loid::class_object(31), &base, &[]),
            Err(CoreError::FixedClass(c.loid))
        );
    }

    #[test]
    fn inherit_from_merges_interface_and_records_base() {
        let mut c = fresh(ClassKind::NORMAL);
        let base_cls = Loid::class_object(31);
        let grand = Loid::class_object(32);
        let mut base_if = Interface::new();
        base_if.define(
            MethodSignature::new("Render", vec![], ParamType::Void),
            base_cls,
        );
        c.inherit_from(base_cls, &base_if, &[grand]).unwrap();
        assert!(c.interface.contains("Render"));
        // The base and what it inherits from, each once.
        assert_eq!(c.bases, vec![base_cls, grand]);
        c.inherit_from(base_cls, &base_if, &[grand]).unwrap();
        c.inherit_from(grand, &Interface::new(), &[]).unwrap();
        assert_eq!(c.bases, vec![base_cls, grand]);
    }

    #[test]
    fn inherit_from_refuses_itself_and_its_inheritors() {
        let mut c = fresh(ClassKind::NORMAL);
        let me = c.loid;
        let other = Loid::class_object(31);
        for (base, base_bases) in [(me, &[][..]), (other, &[me][..])] {
            assert_eq!(
                c.inherit_from(base, &Interface::new(), base_bases),
                Err(CoreError::InheritanceCycle { class: me, base })
            );
        }
        assert!(c.bases.is_empty());
    }

    #[test]
    fn a_refused_base_changes_nothing() {
        let mut c = fresh(ClassKind::NORMAL);
        let (b, d) = (Loid::class_object(31), Loid::class_object(32));
        let mut b_if = Interface::new();
        b_if.define(MethodSignature::new("f", vec![], ParamType::Int), b);
        c.inherit_from(b, &b_if, &[]).unwrap();
        let before = c.clone();
        // "Extra" is new and sorts before the conflicting "f".
        let mut d_if = Interface::new();
        d_if.define(MethodSignature::new("Extra", vec![], ParamType::Void), d);
        d_if.define(MethodSignature::new("f", vec![], ParamType::Str), d);
        assert!(matches!(
            c.inherit_from(d, &d_if, &[]),
            Err(CoreError::InterfaceConflict { .. })
        ));
        assert_eq!(c.interface, before.interface);
        assert_eq!(c.bases, before.bases);
        // An own redefinition shadows both bases.
        c.interface
            .define(MethodSignature::new("f", vec![], ParamType::Bool), c.loid);
        c.inherit_from(d, &d_if, &[]).unwrap();
        assert_eq!(c.interface.get("f").unwrap().returns, ParamType::Bool);
        assert_eq!(c.bases, vec![b, d]);
    }

    #[test]
    fn inherit_from_rejects_non_class() {
        let mut c = fresh(ClassKind::NORMAL);
        let inst = Loid::instance(31, 5);
        assert_eq!(
            c.inherit_from(inst, &Interface::new(), &[]),
            Err(CoreError::NotAClass(inst))
        );
    }

    #[test]
    fn magistrate_list_add_remove() {
        let mut c = fresh(ClassKind::NORMAL);
        let o = c.create_instance().unwrap();
        let m = Loid::instance(wellknown::LEGION_MAGISTRATE_CLASS_ID, 1);
        assert!(c.table.add_magistrate(&o, m));
        assert!(c.table.add_magistrate(&o, m), "idempotent add");
        assert_eq!(c.table.get(&o).unwrap().current_magistrates, vec![m]);
        assert!(c.table.remove_magistrate(&o, m));
        assert!(c.table.get(&o).unwrap().current_magistrates.is_empty());
        assert!(!c.table.add_magistrate(&Loid::instance(30, 99), m));
    }

    #[test]
    fn delete_child_removes_row() {
        let mut c = fresh(ClassKind::NORMAL);
        let o = c.create_instance().unwrap();
        assert!(c.delete_child(&o).is_ok());
        assert!(matches!(c.delete_child(&o), Err(CoreError::UnknownLoid(_))));
    }

    #[test]
    fn class_kind_display() {
        assert_eq!(ClassKind::NORMAL.to_string(), "Normal");
        assert_eq!(ClassKind::ABSTRACT.to_string(), "Abstract");
        let combo = ClassKind {
            is_abstract: true,
            is_private: false,
            is_fixed: true,
        };
        assert_eq!(combo.to_string(), "Abstract+Fixed");
    }
}
