//! Dynamic values carried by Legion method invocations.
//!
//! Legion method calls are non-blocking messages whose parameters and
//! return values are described by method signatures (§2). Because classes
//! and interfaces are created *at run time* (Derive/InheritFrom), parameter
//! values must be dynamically typed: [`LegionValue`] is the tagged union
//! the reproduction uses on the wire and in persistent state.

use crate::address::ObjectAddress;
use crate::binding::Binding;
use crate::interface::ParamType;
use crate::loid::Loid;
use std::fmt;

/// A dynamically typed Legion value.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum LegionValue {
    /// The absence of a value (void returns).
    #[default]
    Void,
    /// A boolean.
    Bool(bool),
    /// A signed 64-bit integer.
    Int(i64),
    /// An unsigned 64-bit integer.
    Uint(u64),
    /// A 64-bit float.
    Float(f64),
    /// A UTF-8 string.
    Str(String),
    /// Raw bytes (e.g. an Object Persistent Representation payload).
    Bytes(Vec<u8>),
    /// A Legion Object Identifier.
    Loid(Loid),
    /// An Object Address.
    Address(ObjectAddress),
    /// A first-class binding triple (§3.5: "bindings ... can be passed
    /// around the system").
    Binding(Box<Binding>),
    /// An ordered list of values.
    List(Vec<LegionValue>),
}

impl LegionValue {
    /// The [`ParamType`] this value inhabits.
    pub fn param_type(&self) -> ParamType {
        match self {
            LegionValue::Void => ParamType::Void,
            LegionValue::Bool(_) => ParamType::Bool,
            LegionValue::Int(_) => ParamType::Int,
            LegionValue::Uint(_) => ParamType::Uint,
            LegionValue::Float(_) => ParamType::Float,
            LegionValue::Str(_) => ParamType::Str,
            LegionValue::Bytes(_) => ParamType::Bytes,
            LegionValue::Loid(_) => ParamType::Loid,
            LegionValue::Address(_) => ParamType::Address,
            LegionValue::Binding(_) => ParamType::Binding,
            LegionValue::List(_) => ParamType::List,
        }
    }

    /// Extract a LOID, if that is what this value is.
    pub fn as_loid(&self) -> Option<Loid> {
        match self {
            LegionValue::Loid(l) => Some(*l),
            _ => None,
        }
    }

    /// Extract a binding, if that is what this value is.
    pub fn as_binding(&self) -> Option<&Binding> {
        match self {
            LegionValue::Binding(b) => Some(b),
            _ => None,
        }
    }

    /// Extract a string slice, if this value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            LegionValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Extract an unsigned integer (accepting non-negative `Int` too).
    pub fn as_uint(&self) -> Option<u64> {
        match self {
            LegionValue::Uint(u) => Some(*u),
            LegionValue::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// Extract a boolean, if that is what this value is.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            LegionValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Extract a list slice, if this value is a list.
    pub fn as_list(&self) -> Option<&[LegionValue]> {
        match self {
            LegionValue::List(v) => Some(v),
            _ => None,
        }
    }

    /// Does this value conform to `ty`? Lists conform structurally
    /// (every element checked against `List`'s erased element type —
    /// Legion's IDL subset uses homogeneous erased lists).
    pub fn conforms_to(&self, ty: &ParamType) -> bool {
        *ty == ParamType::Any
            || self.param_type() == *ty
            || matches!((self, ty), (LegionValue::Int(i), ParamType::Uint) if *i >= 0)
    }
}

impl fmt::Display for LegionValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LegionValue::Void => write!(f, "void"),
            LegionValue::Bool(b) => write!(f, "{b}"),
            LegionValue::Int(i) => write!(f, "{i}"),
            LegionValue::Uint(u) => write!(f, "{u}u"),
            LegionValue::Float(x) => write!(f, "{x}"),
            LegionValue::Str(s) => write!(f, "{s:?}"),
            LegionValue::Bytes(b) => write!(f, "bytes[{}]", b.len()),
            LegionValue::Loid(l) => write!(f, "{l}"),
            LegionValue::Address(a) => write!(f, "{a}"),
            LegionValue::Binding(b) => write!(f, "{b}"),
            LegionValue::List(v) => {
                write!(f, "(")?;
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl From<bool> for LegionValue {
    fn from(b: bool) -> Self {
        LegionValue::Bool(b)
    }
}
impl From<i64> for LegionValue {
    fn from(i: i64) -> Self {
        LegionValue::Int(i)
    }
}
impl From<u64> for LegionValue {
    fn from(u: u64) -> Self {
        LegionValue::Uint(u)
    }
}
impl From<f64> for LegionValue {
    fn from(x: f64) -> Self {
        LegionValue::Float(x)
    }
}
impl From<&str> for LegionValue {
    fn from(s: &str) -> Self {
        LegionValue::Str(s.to_owned())
    }
}
impl From<String> for LegionValue {
    fn from(s: String) -> Self {
        LegionValue::Str(s)
    }
}
impl From<Loid> for LegionValue {
    fn from(l: Loid) -> Self {
        LegionValue::Loid(l)
    }
}
impl From<ObjectAddress> for LegionValue {
    fn from(a: ObjectAddress) -> Self {
        LegionValue::Address(a)
    }
}
impl From<Binding> for LegionValue {
    fn from(b: Binding) -> Self {
        LegionValue::Binding(Box::new(b))
    }
}
impl From<Vec<LegionValue>> for LegionValue {
    fn from(v: Vec<LegionValue>) -> Self {
        LegionValue::List(v)
    }
}
impl From<Vec<u8>> for LegionValue {
    fn from(b: Vec<u8>) -> Self {
        LegionValue::Bytes(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::ObjectAddressElement;

    #[test]
    fn param_types_match_variants() {
        assert_eq!(LegionValue::Void.param_type(), ParamType::Void);
        assert_eq!(LegionValue::from(true).param_type(), ParamType::Bool);
        assert_eq!(LegionValue::from(-1i64).param_type(), ParamType::Int);
        assert_eq!(LegionValue::from(1u64).param_type(), ParamType::Uint);
        assert_eq!(LegionValue::from(1.5f64).param_type(), ParamType::Float);
        assert_eq!(LegionValue::from("x").param_type(), ParamType::Str);
        assert_eq!(
            LegionValue::Bytes(vec![1, 2]).param_type(),
            ParamType::Bytes
        );
        assert_eq!(
            LegionValue::from(Loid::instance(1, 1)).param_type(),
            ParamType::Loid
        );
    }

    #[test]
    fn accessors() {
        let l = Loid::instance(4, 5);
        assert_eq!(LegionValue::from(l).as_loid(), Some(l));
        assert_eq!(LegionValue::from("hi").as_str(), Some("hi"));
        assert_eq!(LegionValue::from(9u64).as_uint(), Some(9));
        assert_eq!(LegionValue::from(9i64).as_uint(), Some(9));
        assert_eq!(LegionValue::from(-9i64).as_uint(), None);
        assert_eq!(LegionValue::from(true).as_bool(), Some(true));
        assert!(LegionValue::from("hi").as_loid().is_none());
    }

    #[test]
    fn conformance_allows_nonneg_int_as_uint() {
        assert!(LegionValue::Int(3).conforms_to(&ParamType::Uint));
        assert!(!LegionValue::Int(-3).conforms_to(&ParamType::Uint));
        assert!(LegionValue::Uint(3).conforms_to(&ParamType::Uint));
        assert!(!LegionValue::Str("x".into()).conforms_to(&ParamType::Uint));
    }

    #[test]
    fn binding_value_roundtrip() {
        let b = Binding::forever(
            Loid::instance(1, 2),
            ObjectAddress::single(ObjectAddressElement::sim(3)),
        );
        let v = LegionValue::from(b.clone());
        assert_eq!(v.as_binding(), Some(&b));
    }

    /// The inline element list is paid for in these three sizes (they
    /// were 32 / 80 / 40 with a `Vec`): every message body and every
    /// cache node holds one, so growth here is growth everywhere.
    #[test]
    fn binding_path_types_stay_small() {
        use std::mem::size_of;
        assert!(size_of::<ObjectAddress>() <= 48);
        assert!(size_of::<Binding>() <= 96);
        assert!(size_of::<LegionValue>() <= 48);
    }

    #[test]
    fn list_display() {
        let v = LegionValue::List(vec![1i64.into(), "a".into()]);
        assert_eq!(v.to_string(), "(1, \"a\")");
        assert_eq!(v.as_list().unwrap().len(), 2);
    }
}
