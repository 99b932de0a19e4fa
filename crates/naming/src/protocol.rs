//! The naming wire protocol: method names and argument helpers.
//!
//! Method names follow the paper exactly. `GetBinding` is *overloaded* —
//! "passed an LOID or a binding" (§3.6) — so the wire dispatch inspects
//! the argument type rather than the name, mirroring the paper's
//! overloading.

use legion_core::binding::Binding;
use legion_core::dispatch::FromArg;
use legion_core::interface::ParamType;
use legion_core::loid::Loid;
use legion_core::symbol::{self, Sym};
use legion_core::value::LegionValue;

/// `binding GetBinding(LOID)` / `binding GetBinding(binding)` (§3.6).
pub const GET_BINDING: Sym = symbol::GET_BINDING;
/// `InvalidateBinding(LOID)` / `InvalidateBinding(binding)` (§3.6).
pub const INVALIDATE_BINDING: Sym = symbol::INVALIDATE_BINDING;
/// `AddBinding(binding)` (§3.6).
pub const ADD_BINDING: Sym = symbol::ADD_BINDING;
/// LegionClass: issue a Class Identifier to a deriving class (§3.2).
pub const ISSUE_CLASS_ID: Sym = symbol::ISSUE_CLASS_ID;
/// LegionClass: who is responsible for locating this LOID? (§4.1.3).
pub const FIND_RESPONSIBLE: Sym = symbol::FIND_RESPONSIBLE;

/// The argument forms of the overloaded `GetBinding`/`InvalidateBinding`.
#[derive(Debug, Clone, PartialEq)]
pub enum BindingArg {
    /// The LOID overload.
    Loid(Loid),
    /// The binding overload (refresh / exact-invalidate).
    Binding(Binding),
}

impl BindingArg {
    /// The LOID the argument is about, whichever overload.
    pub fn loid(&self) -> Loid {
        match self {
            BindingArg::Loid(l) => *l,
            BindingArg::Binding(b) => b.loid,
        }
    }
}

/// Codec impl for the overload: the *published* parameter type is `loid`
/// (the common case), but a `binding` value is accepted too — exactly the
/// paper's "passed an LOID or a binding". A binding is copied out of its
/// box, which stays in the call for the kernel's pool of shells.
impl FromArg for BindingArg {
    const PARAM: ParamType = ParamType::Loid;

    fn from_value(v: &mut LegionValue) -> Option<Self> {
        match v {
            LegionValue::Loid(l) => Some(BindingArg::Loid(*l)),
            LegionValue::Binding(b) => Some(BindingArg::Binding((**b).clone())),
            _ => None,
        }
    }
}

/// Extract a binding from a reply payload.
pub fn binding_from_result(result: &Result<LegionValue, String>) -> Option<Binding> {
    match result {
        Ok(LegionValue::Binding(b)) => Some((**b).clone()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legion_core::address::{ObjectAddress, ObjectAddressElement};

    fn binding() -> Binding {
        Binding::forever(
            Loid::instance(16, 2),
            ObjectAddress::single(ObjectAddressElement::sim(4)),
        )
    }

    #[test]
    fn loid_overload_parses() {
        let mut v = LegionValue::Loid(Loid::instance(16, 2));
        match BindingArg::from_value(&mut v) {
            Some(BindingArg::Loid(l)) => assert_eq!(l, Loid::instance(16, 2)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn binding_overload_parses() {
        let b = binding();
        let mut v = LegionValue::from(b.clone());
        match BindingArg::from_value(&mut v) {
            Some(BindingArg::Binding(got)) => assert_eq!(got, b),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(BindingArg::from_value(&mut v).unwrap().loid(), b.loid);
    }

    #[test]
    fn wrong_type_is_rejected() {
        assert_eq!(BindingArg::from_value(&mut LegionValue::Uint(1)), None);
        let mut text = LegionValue::Str("x".into());
        assert_eq!(BindingArg::from_value(&mut text), None);
        assert_eq!(text, LegionValue::Str("x".into()), "a refused value stays");
        assert_eq!(BindingArg::PARAM, ParamType::Loid);
    }

    #[test]
    fn binding_from_result_extracts() {
        let b = binding();
        assert_eq!(
            binding_from_result(&Ok(LegionValue::from(b.clone()))),
            Some(b)
        );
        assert_eq!(binding_from_result(&Ok(LegionValue::Void)), None);
        assert_eq!(binding_from_result(&Err("x".into())), None);
    }
}
