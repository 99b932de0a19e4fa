//! Interfaces and method signatures (paper §2).
//!
//! "Each method has a signature that describes the parameters and return
//! value, if any, of the method. The complete set of method signatures for
//! an object fully describes that object's interface, which is inherited
//! from its class."
//!
//! Interfaces here are *run-time values*: `Derive()` copies them,
//! `InheritFrom()` merges them (with conflict detection), and
//! `GetInterface()` returns them. The textual syntax is handled by
//! [`crate::idl`].

use crate::error::{CoreError, CoreResult};
use crate::loid::Loid;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// The type of a parameter or return value in a method signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ParamType {
    /// No value (void return).
    Void,
    /// Boolean.
    Bool,
    /// Signed 64-bit integer.
    Int,
    /// Unsigned 64-bit integer.
    Uint,
    /// 64-bit float.
    Float,
    /// UTF-8 string.
    Str,
    /// Raw byte payload.
    Bytes,
    /// A Legion Object Identifier.
    Loid,
    /// An Object Address.
    Address,
    /// A binding triple.
    Binding,
    /// A (homogeneously erased) list of values.
    List,
    /// Any value: the parameter is deliberately untyped (generic
    /// key/value state methods). Every wire value conforms.
    Any,
}

impl ParamType {
    /// The IDL keyword for this type.
    pub fn idl_name(self) -> &'static str {
        match self {
            ParamType::Void => "void",
            ParamType::Bool => "bool",
            ParamType::Int => "int",
            ParamType::Uint => "uint",
            ParamType::Float => "float",
            ParamType::Str => "string",
            ParamType::Bytes => "bytes",
            ParamType::Loid => "loid",
            ParamType::Address => "address",
            ParamType::Binding => "binding",
            ParamType::List => "list",
            ParamType::Any => "any",
        }
    }

    /// Parse an IDL type keyword.
    pub fn from_idl_name(s: &str) -> Option<ParamType> {
        Some(match s {
            "void" => ParamType::Void,
            "bool" => ParamType::Bool,
            "int" => ParamType::Int,
            "uint" => ParamType::Uint,
            "float" => ParamType::Float,
            "string" => ParamType::Str,
            "bytes" => ParamType::Bytes,
            "loid" => ParamType::Loid,
            "address" => ParamType::Address,
            "binding" => ParamType::Binding,
            "list" => ParamType::List,
            "any" => ParamType::Any,
            _ => return None,
        })
    }
}

impl fmt::Display for ParamType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.idl_name())
    }
}

/// One named, typed parameter of a method.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Param {
    /// Parameter name (documentation only; matching is positional).
    pub name: String,
    /// Parameter type.
    pub ty: ParamType,
}

/// A method signature: name, parameters, return type.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MethodSignature {
    /// The method name; unique within an interface.
    pub name: String,
    /// Ordered parameter list.
    pub params: Vec<Param>,
    /// Return type; `Void` if the method returns nothing.
    pub returns: ParamType,
}

impl MethodSignature {
    /// Convenience constructor.
    pub fn new(
        name: impl Into<String>,
        params: Vec<(&str, ParamType)>,
        returns: ParamType,
    ) -> Self {
        MethodSignature {
            name: name.into(),
            params: params
                .into_iter()
                .map(|(n, ty)| Param {
                    name: n.to_owned(),
                    ty,
                })
                .collect(),
            returns,
        }
    }

    /// Two signatures are *compatible* when their parameter types and
    /// return type agree (parameter names are documentation only).
    /// Compatible duplicate methods arriving via multiple inheritance are
    /// merged silently; incompatible ones are conflicts.
    pub fn compatible_with(&self, other: &MethodSignature) -> bool {
        self.name == other.name
            && self.returns == other.returns
            && self.params.len() == other.params.len()
            && self
                .params
                .iter()
                .zip(&other.params)
                .all(|(a, b)| a.ty == b.ty)
    }
}

impl fmt::Display for MethodSignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}(", self.returns, self.name)?;
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {}", p.ty, p.name)?;
        }
        write!(f, ")")
    }
}

/// A full object interface: a set of method signatures, each tagged with
/// the class that contributed it (its *provenance*, used for conflict
/// reporting and for the paper's "re-inheriting" of implementations).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct Interface {
    methods: BTreeMap<String, (MethodSignature, Loid)>,
}

impl Interface {
    /// The empty interface.
    pub fn new() -> Self {
        Interface::default()
    }

    /// Number of methods.
    pub fn len(&self) -> usize {
        self.methods.len()
    }

    /// Is the interface empty?
    pub fn is_empty(&self) -> bool {
        self.methods.is_empty()
    }

    /// Add or overwrite a method, recording `provider` as its provenance.
    /// Overwriting models the paper's "classes may alter the functionality
    /// of ... member functions by overloading them \[or\] redefining them".
    pub fn define(&mut self, sig: MethodSignature, provider: Loid) {
        self.methods.insert(sig.name.clone(), (sig, provider));
    }

    /// Look up a method by name.
    pub fn get(&self, name: &str) -> Option<&MethodSignature> {
        self.methods.get(name).map(|(s, _)| s)
    }

    /// The provenance (defining class) of a method, if present.
    pub fn provider(&self, name: &str) -> Option<Loid> {
        self.methods.get(name).map(|(_, p)| *p)
    }

    /// Does the interface include a method named `name`?
    pub fn contains(&self, name: &str) -> bool {
        self.methods.contains_key(name)
    }

    /// Remove a method (used to model "possibly empty member functions").
    pub fn remove(&mut self, name: &str) -> bool {
        self.methods.remove(name).is_some()
    }

    /// Iterate over signatures in deterministic (name) order.
    pub fn iter(&self) -> impl Iterator<Item = &MethodSignature> {
        self.methods.values().map(|(s, _)| s)
    }

    /// Merge `other` into `self` (the `InheritFrom()` interface effect).
    ///
    /// * methods new to `self` are added with their original provenance;
    /// * identical/compatible duplicates are kept (first definition wins —
    ///   the subclass's own definitions shadow the base's);
    /// * incompatible duplicates are an [`CoreError::InterfaceConflict`].
    pub fn merge_from(&mut self, other: &Interface) -> CoreResult<usize> {
        let mut added = 0;
        for (name, (sig, provider)) in &other.methods {
            match self.methods.get(name) {
                None => {
                    self.methods.insert(name.clone(), (sig.clone(), *provider));
                    added += 1;
                }
                Some((existing, existing_provider)) => {
                    if !existing.compatible_with(sig) {
                        return Err(CoreError::InterfaceConflict {
                            method: name.clone(),
                            first: *existing_provider,
                            second: *provider,
                        });
                    }
                    // Compatible: existing (subclass) definition shadows.
                }
            }
        }
        Ok(added)
    }

    /// Like [`Interface::merge_from`], but methods already defined by
    /// `owner` itself shadow incoming definitions unconditionally — the
    /// paper allows a class to *redefine* inherited member functions, and a
    /// deliberate redefinition must not be reported as a conflict.
    /// Incompatible duplicates contributed by two *different* ancestors
    /// still conflict, and a conflict refuses `other` whole: nothing of it
    /// is merged.
    pub fn merge_from_with_owner(&mut self, other: &Interface, owner: Loid) -> CoreResult<usize> {
        for (name, (sig, provider)) in &other.methods {
            match self.methods.get(name) {
                // The owner's own (re)definition shadows the base's.
                Some((existing, existing_provider))
                    if *existing_provider != owner && !existing.compatible_with(sig) =>
                {
                    return Err(CoreError::InterfaceConflict {
                        method: name.clone(),
                        first: *existing_provider,
                        second: *provider,
                    });
                }
                _ => {}
            }
        }
        let mut added = 0;
        for (name, (sig, provider)) in &other.methods {
            if !self.methods.contains_key(name) {
                self.methods.insert(name.clone(), (sig.clone(), *provider));
                added += 1;
            }
        }
        Ok(added)
    }
}

impl fmt::Display for Interface {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for sig in self.iter() {
            writeln!(f, "  {sig};")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(name: &str, ret: ParamType) -> MethodSignature {
        MethodSignature::new(name, vec![("x", ParamType::Int)], ret)
    }

    #[test]
    fn param_type_idl_roundtrip() {
        for t in [
            ParamType::Void,
            ParamType::Bool,
            ParamType::Int,
            ParamType::Uint,
            ParamType::Float,
            ParamType::Str,
            ParamType::Bytes,
            ParamType::Loid,
            ParamType::Address,
            ParamType::Binding,
            ParamType::List,
        ] {
            assert_eq!(ParamType::from_idl_name(t.idl_name()), Some(t));
        }
        assert_eq!(ParamType::from_idl_name("wibble"), None);
    }

    #[test]
    fn signature_display() {
        let s = MethodSignature::new(
            "GetBinding",
            vec![("target", ParamType::Loid)],
            ParamType::Binding,
        );
        assert_eq!(s.to_string(), "binding GetBinding(loid target)");
    }

    #[test]
    fn compatibility_ignores_param_names() {
        let a = MethodSignature::new("f", vec![("x", ParamType::Int)], ParamType::Void);
        let b = MethodSignature::new("f", vec![("y", ParamType::Int)], ParamType::Void);
        assert!(a.compatible_with(&b));
    }

    #[test]
    fn compatibility_requires_types() {
        let a = sig("f", ParamType::Void);
        let b = sig("f", ParamType::Int);
        assert!(!a.compatible_with(&b));
        let c = MethodSignature::new("f", vec![], ParamType::Void);
        assert!(!a.compatible_with(&c));
        let d = sig("g", ParamType::Void);
        assert!(!a.compatible_with(&d));
    }

    #[test]
    fn define_get_remove() {
        let mut i = Interface::new();
        let owner = Loid::class_object(10);
        assert!(i.is_empty());
        i.define(sig("f", ParamType::Void), owner);
        assert_eq!(i.len(), 1);
        assert!(i.contains("f"));
        assert_eq!(i.provider("f"), Some(owner));
        assert!(i.get("f").is_some());
        assert!(i.remove("f"));
        assert!(!i.remove("f"));
        assert!(i.is_empty());
    }

    #[test]
    fn redefinition_overwrites() {
        let mut i = Interface::new();
        let a = Loid::class_object(10);
        let b = Loid::class_object(11);
        i.define(sig("f", ParamType::Void), a);
        i.define(sig("f", ParamType::Int), b);
        assert_eq!(i.get("f").unwrap().returns, ParamType::Int);
        assert_eq!(i.provider("f"), Some(b));
    }

    #[test]
    fn merge_adds_new_methods() {
        let a_cls = Loid::class_object(10);
        let b_cls = Loid::class_object(11);
        let mut a = Interface::new();
        a.define(sig("f", ParamType::Void), a_cls);
        let mut b = Interface::new();
        b.define(sig("g", ParamType::Void), b_cls);
        let added = a.merge_from(&b).unwrap();
        assert_eq!(added, 1);
        assert!(a.contains("f") && a.contains("g"));
        assert_eq!(a.provider("g"), Some(b_cls));
    }

    #[test]
    fn merge_keeps_subclass_definition_on_compatible_duplicate() {
        let a_cls = Loid::class_object(10);
        let b_cls = Loid::class_object(11);
        let mut a = Interface::new();
        a.define(sig("f", ParamType::Void), a_cls);
        let mut b = Interface::new();
        b.define(sig("f", ParamType::Void), b_cls);
        let added = a.merge_from(&b).unwrap();
        assert_eq!(added, 0);
        assert_eq!(a.provider("f"), Some(a_cls), "subclass definition shadows");
    }

    #[test]
    fn merge_detects_conflicts() {
        let a_cls = Loid::class_object(10);
        let b_cls = Loid::class_object(11);
        let mut a = Interface::new();
        a.define(sig("f", ParamType::Void), a_cls);
        let mut b = Interface::new();
        b.define(sig("f", ParamType::Int), b_cls);
        match a.merge_from(&b) {
            Err(CoreError::InterfaceConflict {
                method,
                first,
                second,
            }) => {
                assert_eq!(method, "f");
                assert_eq!(first, a_cls);
                assert_eq!(second, b_cls);
            }
            other => panic!("expected conflict, got {other:?}"),
        }
    }

    #[test]
    fn iteration_is_name_ordered() {
        let owner = Loid::class_object(10);
        let mut i = Interface::new();
        i.define(sig("zeta", ParamType::Void), owner);
        i.define(sig("alpha", ParamType::Void), owner);
        let names: Vec<_> = i.iter().map(|s| s.name.clone()).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }
}
