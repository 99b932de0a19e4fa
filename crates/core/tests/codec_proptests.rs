//! Property-based round-trips for the typed argument codec
//! ([`FromArgs`]): every [`LegionValue`] variant — including nested
//! `List` — survives encode → decode unchanged, typed tuples decode
//! exactly the values they were built from, and wrong-typed values are
//! rejected rather than coerced.

use legion_core::address::{
    AddressKind, AddressSemantics, ObjectAddress, ObjectAddressElement, ADDRESS_INFO_BYTES,
};
use legion_core::binding::Binding;
use legion_core::dispatch::FromArgs;
use legion_core::interface::ParamType;
use legion_core::loid::Loid;
use legion_core::time::{Expiry, SimTime};
use legion_core::value::LegionValue;
use proptest::prelude::*;

fn arb_loid() -> impl Strategy<Value = Loid> {
    (any::<u64>(), any::<u64>()).prop_map(|(class, specific)| Loid::instance(class, specific))
}

fn arb_element() -> impl Strategy<Value = ObjectAddressElement> {
    (
        prop_oneof![
            Just(AddressKind::Ipv4),
            Just(AddressKind::Xtp),
            Just(AddressKind::Ipv4Node),
            Just(AddressKind::Sim),
            any::<u32>().prop_map(AddressKind::Other),
        ],
        proptest::collection::vec(any::<u8>(), ADDRESS_INFO_BYTES),
    )
        .prop_map(|(kind, bytes)| {
            let mut info = [0u8; ADDRESS_INFO_BYTES];
            info.copy_from_slice(&bytes);
            ObjectAddressElement { kind, info }
        })
}

fn arb_address() -> impl Strategy<Value = ObjectAddress> {
    (
        proptest::collection::vec(arb_element(), 0..3),
        prop_oneof![
            Just(AddressSemantics::Single),
            Just(AddressSemantics::SendToAll),
            Just(AddressSemantics::PickRandom),
        ],
    )
        .prop_map(|(elements, semantics)| ObjectAddress::replicated(elements, semantics))
}

fn arb_binding() -> impl Strategy<Value = Binding> {
    (
        arb_loid(),
        arb_address(),
        prop_oneof![
            Just(Expiry::Never),
            any::<u64>().prop_map(|ns| Expiry::At(SimTime::from_nanos(ns))),
        ],
    )
        .prop_map(|(loid, address, expiry)| Binding {
            loid,
            address,
            expiry,
        })
}

/// Every variant as a leaf, then `List` layered recursively on top —
/// nested lists of lists are exercised, not just flat ones.
fn arb_value() -> impl Strategy<Value = LegionValue> {
    let leaf = prop_oneof![
        Just(LegionValue::Void),
        any::<bool>().prop_map(LegionValue::Bool),
        any::<i64>().prop_map(LegionValue::Int),
        any::<u64>().prop_map(LegionValue::Uint),
        // NaN never compares equal to itself, so it can't round-trip
        // under `==`; fold it to zero.
        any::<f64>().prop_map(|f| LegionValue::Float(if f.is_nan() { 0.0 } else { f })),
        "[A-Za-z0-9 _.-]{0,12}".prop_map(LegionValue::Str),
        proptest::collection::vec(any::<u8>(), 0..16).prop_map(LegionValue::Bytes),
        arb_loid().prop_map(LegionValue::Loid),
        arb_address().prop_map(LegionValue::Address),
        arb_binding().prop_map(|b| LegionValue::Binding(Box::new(b))),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        proptest::collection::vec(inner, 0..4).prop_map(LegionValue::List)
    })
}

proptest! {
    /// Any single value — every variant, including nested `List` —
    /// encoded through the `Any`-typed 1-tuple decodes back to itself.
    #[test]
    fn any_value_roundtrips(v in arb_value()) {
        let (back,) = <(LegionValue,)>::from_args(&mut [v.clone()]).unwrap();
        prop_assert_eq!(back, v);
    }

    /// A whole argument list nested as a `List` value decodes intact
    /// from a single `Any` slot.
    #[test]
    fn arg_lists_roundtrip(vs in proptest::collection::vec(arb_value(), 0..5)) {
        let (back,) = <(LegionValue,)>::from_args(&mut [LegionValue::List(vs.clone())]).unwrap();
        prop_assert_eq!(back, LegionValue::List(vs));
    }

    /// Typed scalar tuple: encode → decode is the identity, and the
    /// published params match the wire types.
    #[test]
    fn scalar_tuple_roundtrips(
        b in any::<bool>(),
        i in any::<i64>(),
        u in any::<u64>(),
        s in "[A-Za-z0-9 _.-]{0,12}",
    ) {
        let mut args = vec![b.into(), i.into(), u.into(), s.clone().into()];
        let tup = (b, i, u, s);
        let back = <(bool, i64, u64, String)>::from_args(&mut args).unwrap();
        prop_assert_eq!(back, tup);
        prop_assert_eq!(
            <(bool, i64, u64, String)>::params(),
            vec![ParamType::Bool, ParamType::Int, ParamType::Uint, ParamType::Str]
        );
    }

    /// Typed object tuple: Bytes, Loid, Address, and Binding all
    /// round-trip through the wire encoding.
    #[test]
    fn object_tuple_roundtrips(
        bytes in proptest::collection::vec(any::<u8>(), 0..16),
        loid in arb_loid(),
        addr in arb_address(),
        binding in arb_binding(),
    ) {
        let mut args = vec![
            bytes.clone().into(),
            loid.into(),
            addr.clone().into(),
            binding.clone().into(),
        ];
        let (b2, l2, a2, bd2) =
            <(Vec<u8>, Loid, ObjectAddress, Binding)>::from_args(&mut args).unwrap();
        prop_assert_eq!(b2, bytes);
        prop_assert_eq!(l2, loid);
        prop_assert_eq!(a2, addr);
        prop_assert_eq!(bd2, binding);
    }

    /// Floats round-trip bit-exactly — any bit pattern at all, NaN
    /// payloads included, since this one compares bits rather than `==`.
    #[test]
    fn float_roundtrips(f in any::<f64>()) {
        let (back,) = <(f64,)>::from_args(&mut [f.into()]).unwrap();
        prop_assert_eq!(back.to_bits(), f.to_bits());
    }

    /// Wrong-typed values are rejected, not coerced: nothing but `Str`
    /// decodes as `String`.
    #[test]
    fn wrong_type_is_rejected(v in arb_value()) {
        if v.param_type() != ParamType::Str {
            prop_assert!(<(String,)>::from_args(&mut [v]).is_err());
        }
    }
}
