//! The typed argument codec and the security gate of the invocation
//! layer (paper §2, §2.4).
//!
//! "The complete set of method signatures for an object fully describes
//! that object's interface." `legion_net::dispatch` makes that sentence
//! operational: an endpoint registers each method there, and the type
//! that decodes a method's arguments also publishes its signature. This
//! module holds the parts other crates implement or call:
//!
//! * **Typed argument codecs** ([`FromArg`]/[`FromArgs`]) decode the
//!   wire's `LegionValue` argument lists into real Rust types, checking
//!   arity and per-position conformance against the method's declared
//!   signature ([`signature_of`]). Handlers receive `(Loid, Option<Loid>)`,
//!   not slices; a list that fails is answered with the uniform
//!   [`CoreError::SignatureMismatch`] rendering ([`mismatch`]), identical
//!   across every endpoint. Protocol modules implement [`FromArgs`] by
//!   hand for their request structs.
//! * **One security gate** ([`InvocationGate`]): the MayI check (§2.4)
//!   runs once, at the dispatch boundary, for every gated method of every
//!   endpoint, instead of being hand-wired into some endpoints and
//!   forgotten in others. `legion-security` adapts its policies to it.
//!
//! `legion-core` sits *below* the transport, so nothing here names
//! `Message` or the simulation context.

use crate::address::ObjectAddress;
use crate::binding::Binding;
use crate::env::InvocationEnv;
use crate::error::CoreError;
use crate::interface::{MethodSignature, ParamType};
use crate::loid::Loid;
use crate::value::LegionValue;
use std::fmt;

// ---------------------------------------------------------------------------
// Argument codec
// ---------------------------------------------------------------------------

/// Why an argument list failed to decode against a signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgsError {
    /// Wrong number of arguments.
    Arity {
        /// Arguments supplied on the wire.
        got: usize,
        /// Minimum accepted (required parameters).
        min: usize,
        /// Maximum accepted (all parameters, optionals included).
        max: usize,
    },
    /// An argument did not conform to its declared parameter type.
    Type {
        /// Zero-based argument position.
        index: usize,
        /// The wire value's actual type.
        got: ParamType,
        /// The declared parameter type.
        want: ParamType,
    },
}

impl fmt::Display for ArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgsError::Arity { got, min, max } if min == max => {
                write!(f, "got {got} arguments, want {min}")
            }
            ArgsError::Arity { got, min, max } => {
                write!(f, "got {got} arguments, want {min}..={max}")
            }
            ArgsError::Type { index, got, want } => {
                write!(f, "argument {index} is {got}, want {want}")
            }
        }
    }
}

/// A single wire value decodable into one Rust type.
///
/// The `PARAM` constant ties the Rust type to its IDL [`ParamType`], so a
/// registered handler's parameter list *is* its published signature.
pub trait FromArg: Sized {
    /// The IDL parameter type this Rust type decodes from.
    const PARAM: ParamType;
    /// Decode, honouring the same conformance rules as
    /// [`LegionValue::conforms_to`] (a non-negative `Int` conforms to
    /// `Uint`).
    fn from_value(v: &LegionValue) -> Option<Self>;
}

impl FromArg for () {
    const PARAM: ParamType = ParamType::Void;
    fn from_value(v: &LegionValue) -> Option<Self> {
        matches!(v, LegionValue::Void).then_some(())
    }
}

impl FromArg for bool {
    const PARAM: ParamType = ParamType::Bool;
    fn from_value(v: &LegionValue) -> Option<Self> {
        v.as_bool()
    }
}

impl FromArg for i64 {
    const PARAM: ParamType = ParamType::Int;
    fn from_value(v: &LegionValue) -> Option<Self> {
        match v {
            LegionValue::Int(i) => Some(*i),
            _ => None,
        }
    }
}

impl FromArg for u64 {
    const PARAM: ParamType = ParamType::Uint;
    fn from_value(v: &LegionValue) -> Option<Self> {
        v.as_uint()
    }
}

impl FromArg for f64 {
    const PARAM: ParamType = ParamType::Float;
    fn from_value(v: &LegionValue) -> Option<Self> {
        match v {
            LegionValue::Float(x) => Some(*x),
            _ => None,
        }
    }
}

impl FromArg for String {
    const PARAM: ParamType = ParamType::Str;
    fn from_value(v: &LegionValue) -> Option<Self> {
        v.as_str().map(str::to_owned)
    }
}

impl FromArg for Vec<u8> {
    const PARAM: ParamType = ParamType::Bytes;
    fn from_value(v: &LegionValue) -> Option<Self> {
        match v {
            LegionValue::Bytes(b) => Some(b.clone()),
            _ => None,
        }
    }
}

impl FromArg for Loid {
    const PARAM: ParamType = ParamType::Loid;
    fn from_value(v: &LegionValue) -> Option<Self> {
        v.as_loid()
    }
}

impl FromArg for ObjectAddress {
    const PARAM: ParamType = ParamType::Address;
    fn from_value(v: &LegionValue) -> Option<Self> {
        match v {
            LegionValue::Address(a) => Some(a.clone()),
            _ => None,
        }
    }
}

impl FromArg for Binding {
    const PARAM: ParamType = ParamType::Binding;
    fn from_value(v: &LegionValue) -> Option<Self> {
        v.as_binding().cloned()
    }
}

impl FromArg for Vec<LegionValue> {
    const PARAM: ParamType = ParamType::List;
    fn from_value(v: &LegionValue) -> Option<Self> {
        v.as_list().map(<[LegionValue]>::to_vec)
    }
}

impl FromArg for LegionValue {
    const PARAM: ParamType = ParamType::Any;
    fn from_value(v: &LegionValue) -> Option<Self> {
        Some(v.clone())
    }
}

/// Decode the required argument at `index`.
pub fn decode_at<T: FromArg>(args: &[LegionValue], index: usize) -> Result<T, ArgsError> {
    let v = args.get(index).ok_or(ArgsError::Arity {
        got: args.len(),
        min: index + 1,
        max: index + 1,
    })?;
    T::from_value(v).ok_or(ArgsError::Type {
        index,
        got: v.param_type(),
        want: T::PARAM,
    })
}

/// Decode the optional (trailing) argument at `index`, if present.
pub fn decode_opt<T: FromArg>(args: &[LegionValue], index: usize) -> Result<Option<T>, ArgsError> {
    match args.get(index) {
        None => Ok(None),
        Some(v) => T::from_value(v).map(Some).ok_or(ArgsError::Type {
            index,
            got: v.param_type(),
            want: T::PARAM,
        }),
    }
}

/// Check the argument count against an inclusive `[min, max]` arity range.
pub fn expect_arity(args: &[LegionValue], min: usize, max: usize) -> Result<(), ArgsError> {
    if args.len() < min || args.len() > max {
        return Err(ArgsError::Arity {
            got: args.len(),
            min,
            max,
        });
    }
    Ok(())
}

/// A full argument list decodable into one Rust value (usually a tuple).
///
/// Implemented for tuples of [`FromArg`] types up to arity 4; protocol
/// structs with optional or overloaded parameters implement it by hand
/// (composing [`decode_at`]/[`decode_opt`]) — such hand impls are part of
/// the codec and keep the published signature in `params()` honest.
pub trait FromArgs: Sized {
    /// The canonical (full-form) parameter types, in order.
    fn params() -> Vec<ParamType>;
    /// Minimum required arity; parameters past this index are optional.
    fn min_args() -> usize {
        Self::params().len()
    }
    /// Decode and type-check the wire argument list.
    fn from_args(args: &[LegionValue]) -> Result<Self, ArgsError>;
}

impl FromArgs for () {
    fn params() -> Vec<ParamType> {
        Vec::new()
    }
    fn from_args(args: &[LegionValue]) -> Result<Self, ArgsError> {
        expect_arity(args, 0, 0)
    }
}

macro_rules! tuple_from_args {
    ($n:expr; $($t:ident $i:tt),+) => {
        impl<$($t: FromArg),+> FromArgs for ($($t,)+) {
            fn params() -> Vec<ParamType> {
                vec![$($t::PARAM),+]
            }
            fn from_args(args: &[LegionValue]) -> Result<Self, ArgsError> {
                expect_arity(args, $n, $n)?;
                Ok(($(decode_at::<$t>(args, $i)?,)+))
            }
        }
    };
}

tuple_from_args!(1; A 0);
tuple_from_args!(2; A 0, B 1);
tuple_from_args!(3; A 0, B 1, C 2);
tuple_from_args!(4; A 0, B 1, C 2, D 3);

/// Build the [`MethodSignature`] a `FromArgs` implementation publishes.
/// Missing parameter names are filled as `arg0`, `arg1`, ….
pub fn signature_of<A: FromArgs>(
    name: &str,
    param_names: &[&str],
    returns: ParamType,
) -> MethodSignature {
    let params = A::params()
        .into_iter()
        .enumerate()
        .map(|(i, ty)| {
            let n = param_names.get(i).copied().map(str::to_owned);
            (n.unwrap_or_else(|| format!("arg{i}")), ty)
        })
        .collect::<Vec<_>>();
    MethodSignature::new(
        name,
        params.iter().map(|(n, t)| (n.as_str(), *t)).collect(),
        returns,
    )
}

/// The uniform wire error for a call whose arguments fail the codec.
pub fn mismatch(sig: &MethodSignature, err: ArgsError) -> CoreError {
    CoreError::SignatureMismatch {
        signature: sig.to_string(),
        detail: err.to_string(),
    }
}

// ---------------------------------------------------------------------------
// Security gate
// ---------------------------------------------------------------------------

/// The MayI check at the dispatch boundary (§2.4). `legion-security`
/// adapts its `MayIPolicy` objects to this; the boundary only needs
/// allow-or-deny.
pub trait InvocationGate {
    /// `Ok(())` to admit the call, `Err(reason)` to refuse it.
    fn check(&self, env: &InvocationEnv, method: &str) -> Result<(), String>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_tuple_checks_arity_and_types() {
        let args = vec![
            LegionValue::from(Loid::instance(7, 1)),
            LegionValue::from(3u64),
        ];
        let (l, n) = <(Loid, u64)>::from_args(&args).unwrap();
        assert_eq!(l, Loid::instance(7, 1));
        assert_eq!(n, 3);

        match <(Loid, u64)>::from_args(&args[..1]) {
            Err(ArgsError::Arity {
                got: 1,
                min: 2,
                max: 2,
            }) => {}
            other => panic!("unexpected {other:?}"),
        }
        let bad = vec![LegionValue::from("x"), LegionValue::from(3u64)];
        match <(Loid, u64)>::from_args(&bad) {
            Err(ArgsError::Type {
                index: 0,
                got: ParamType::Str,
                want: ParamType::Loid,
            }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn int_conforms_to_uint_like_the_wire() {
        // Mirror LegionValue::conforms_to: non-negative Int decodes as Uint.
        assert_eq!(u64::from_value(&LegionValue::Int(4)), Some(4));
        assert_eq!(u64::from_value(&LegionValue::Int(-4)), None);
        assert_eq!(i64::from_value(&LegionValue::Uint(4)), None);
    }

    #[test]
    fn optional_tail_decodes() {
        let one = vec![LegionValue::from(Loid::instance(7, 1))];
        assert_eq!(decode_opt::<Loid>(&one, 1).unwrap(), None);
        let two = vec![
            LegionValue::from(Loid::instance(7, 1)),
            LegionValue::from(Loid::instance(3, 1)),
        ];
        assert_eq!(
            decode_opt::<Loid>(&two, 1).unwrap(),
            Some(Loid::instance(3, 1))
        );
        let bad = vec![
            LegionValue::from(Loid::instance(7, 1)),
            LegionValue::from("oops"),
        ];
        assert!(decode_opt::<Loid>(&bad, 1).is_err());
    }

    #[test]
    fn signature_of_names_params() {
        let sig = signature_of::<(Loid, u64)>("Activate", &["target"], ParamType::Binding);
        assert_eq!(sig.to_string(), "binding Activate(loid target, uint arg1)");
    }

    #[test]
    fn mismatch_renders_signature_and_detail() {
        let sig = signature_of::<(Loid,)>("Activate", &["target"], ParamType::Binding);
        let e = mismatch(
            &sig,
            ArgsError::Arity {
                got: 0,
                min: 1,
                max: 1,
            },
        );
        let s = e.to_string();
        assert!(s.contains("binding Activate(loid target)"), "{s}");
        assert!(s.contains("got 0 arguments, want 1"), "{s}");
    }
}
