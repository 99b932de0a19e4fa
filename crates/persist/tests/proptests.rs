//! Property-based tests: codec and OPR roundtrips over arbitrary values,
//! and corruption detection over arbitrary byte flips.

use legion_core::address::{AddressKind, AddressSemantics, ObjectAddress, ObjectAddressElement};
use legion_core::binding::Binding;
use legion_core::loid::Loid;
use legion_core::time::{Expiry, SimTime};
use legion_core::value::LegionValue;
use legion_persist::codec::{decode_value, encode_value, CodecError, Reader, Writer};
use legion_persist::crc32;
use legion_persist::opr::Opr;
use legion_persist::storage::JurisdictionStorage;
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

fn arb_loid() -> impl Strategy<Value = Loid> {
    (any::<u64>(), any::<u64>()).prop_map(|(c, s)| Loid::instance(c, s))
}

fn arb_element() -> impl Strategy<Value = ObjectAddressElement> {
    prop_oneof![
        any::<u64>().prop_map(ObjectAddressElement::sim),
        (any::<[u8; 4]>(), any::<u16>()).prop_map(|(a, p)| ObjectAddressElement::ipv4(a, p)),
        (any::<[u8; 4]>(), any::<u16>(), any::<u32>())
            .prop_map(|(a, p, n)| ObjectAddressElement::ipv4_node(a, p, n)),
        (any::<u32>(), any::<[u8; 32]>()).prop_map(|(tag, info)| ObjectAddressElement {
            kind: AddressKind::from_tag(tag),
            info,
        }),
    ]
}

fn arb_semantics() -> impl Strategy<Value = AddressSemantics> {
    prop_oneof![
        Just(AddressSemantics::Single),
        Just(AddressSemantics::SendToAll),
        Just(AddressSemantics::PickRandom),
        any::<u32>().prop_map(AddressSemantics::KOfN),
        Just(AddressSemantics::FirstReachable),
        any::<u32>().prop_map(AddressSemantics::User),
    ]
}

fn arb_address() -> impl Strategy<Value = ObjectAddress> {
    (
        proptest::collection::vec(arb_element(), 0..5),
        arb_semantics(),
    )
        .prop_map(|(elements, semantics)| ObjectAddress::replicated(elements, semantics))
}

fn arb_expiry() -> impl Strategy<Value = Expiry> {
    prop_oneof![
        Just(Expiry::Never),
        any::<u64>().prop_map(|t| Expiry::At(SimTime(t))),
    ]
}

fn arb_binding() -> impl Strategy<Value = Binding> {
    (arb_loid(), arb_address(), arb_expiry()).prop_map(|(loid, address, expiry)| Binding {
        loid,
        address,
        expiry,
    })
}

fn arb_value() -> impl Strategy<Value = LegionValue> {
    let leaf = prop_oneof![
        Just(LegionValue::Void),
        any::<bool>().prop_map(LegionValue::Bool),
        any::<i64>().prop_map(LegionValue::Int),
        any::<u64>().prop_map(LegionValue::Uint),
        any::<f64>().prop_map(LegionValue::Float),
        ".{0,24}".prop_map(LegionValue::Str),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(LegionValue::Bytes),
        arb_loid().prop_map(LegionValue::Loid),
        arb_address().prop_map(LegionValue::Address),
        arb_binding().prop_map(|b| LegionValue::Binding(Box::new(b))),
    ];
    leaf.prop_recursive(3, 32, 4, |inner| {
        proptest::collection::vec(inner, 0..4).prop_map(LegionValue::List)
    })
}

/// Structural equality that treats NaN floats as equal (the codec is
/// bit-preserving but `PartialEq` on f64 is not reflexive for NaN).
fn eq_mod_nan(a: &LegionValue, b: &LegionValue) -> bool {
    match (a, b) {
        (LegionValue::Float(x), LegionValue::Float(y)) => {
            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
        }
        (LegionValue::List(xs), LegionValue::List(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| eq_mod_nan(x, y))
        }
        _ => a == b,
    }
}

fn hash_of(v: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// What an Object Address over `model` looked like when its element list
/// was a plain `Vec`: `Display` and the persist bytes, written out from
/// the list itself.
fn vec_model(model: &[ObjectAddressElement], semantics: AddressSemantics) -> (String, Vec<u8>) {
    let shown: Vec<String> = model.iter().map(|e| e.to_string()).collect();
    let display = format!("[{}] {semantics:?}", shown.join(", "));
    let mut w = Writer::new();
    w.put_varint(model.len() as u64);
    for e in model {
        w.put_element(e);
    }
    w.put_semantics(&semantics);
    (display, w.as_bytes().to_vec())
}

proptest! {
    /// The inline element list is indistinguishable from the `Vec` it
    /// replaced, at zero, one, two and many elements: as a slice, under
    /// `==` and `Hash`, in `Display` and `Debug` and in persist bytes —
    /// and `clone_from` lands on the source from every shape.
    #[test]
    fn elements_match_a_plain_vec(
        pool in proptest::collection::vec(arb_element(), 6),
        semantics in arb_semantics(),
    ) {
        let shapes: Vec<Vec<ObjectAddressElement>> =
            [0, 1, 2, 6].iter().map(|&n| pool[..n].to_vec()).collect();
        for model in &shapes {
            let addr = ObjectAddress::replicated(model.clone(), semantics);
            prop_assert_eq!(&addr.elements[..], &model[..]);
            prop_assert_eq!(addr.len(), model.len());
            prop_assert_eq!(addr.primary(), model.first());
            prop_assert_eq!(hash_of(&addr.elements), hash_of(model));
            prop_assert_eq!(format!("{:?}", addr.elements), format!("{model:?}"));
            let collected: ObjectAddress = ObjectAddress {
                elements: model.iter().copied().collect(),
                semantics,
            };
            prop_assert_eq!(&collected, &addr);
            if let [only] = model[..] {
                prop_assert_eq!(&ObjectAddress::single(only).elements, &addr.elements);
            }

            let (display, bytes) = vec_model(model, semantics);
            prop_assert_eq!(addr.to_string(), display);
            let mut w = Writer::new();
            w.put_address(&addr);
            prop_assert_eq!(w.as_bytes(), &bytes[..]);
            prop_assert_eq!(Reader::new(&bytes).get_address().expect("decode"), addr.clone());

            for other in &shapes {
                let mut dst = ObjectAddress::replicated(other.clone(), AddressSemantics::Single);
                prop_assert_eq!(dst.elements == addr.elements, other == model);
                dst.elements.clone_from(&addr.elements);
                prop_assert_eq!(&dst.elements[..], &model[..]);
                prop_assert_eq!(hash_of(&dst.elements), hash_of(&addr.elements));
            }
        }
    }

    /// Any value encodes and decodes to itself.
    #[test]
    fn codec_roundtrip(v in arb_value()) {
        let bytes = encode_value(&v);
        let back = decode_value(&bytes).expect("decode");
        prop_assert!(eq_mod_nan(&v, &back), "{v:?} != {back:?}");
    }

    /// Every strict prefix of an encoding fails to decode (no silent
    /// truncation), except prefixes that are themselves complete — which
    /// cannot happen because decode_value demands full consumption.
    #[test]
    fn codec_prefixes_fail(v in arb_value()) {
        let bytes = encode_value(&v);
        for cut in 0..bytes.len() {
            prop_assert!(decode_value(&bytes[..cut]).is_err(), "prefix {cut} decoded");
        }
    }

    /// Garbage after a valid encoding is rejected.
    #[test]
    fn codec_trailing_garbage_fails(v in arb_value(), junk in 1u8..) {
        let mut bytes = encode_value(&v).to_vec();
        bytes.push(junk);
        prop_assert!(matches!(
            decode_value(&bytes),
            Err(CodecError::Truncated) | Err(CodecError::BadTag(_)) | Err(CodecError::LengthTooLarge(_))
        ));
    }

    /// OPRs roundtrip for arbitrary state payloads and LOIDs.
    #[test]
    fn opr_roundtrip(
        class_id in 1u64..,
        seq in 1u64..,
        hash in any::<u64>(),
        state in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let opr = Opr::new(
            Loid::instance(class_id, seq),
            Loid::class_object(class_id),
            hash,
            state,
        );
        let back = Opr::decode(&opr.encode()).expect("decode");
        prop_assert_eq!(back, opr);
    }

    /// Flipping any single byte of an encoded OPR is detected.
    #[test]
    fn opr_detects_any_single_byte_flip(
        state in proptest::collection::vec(any::<u8>(), 0..128),
        pos_seed in any::<usize>(),
        flip in 1u8..,
    ) {
        let opr = Opr::new(Loid::instance(5, 6), Loid::class_object(5), 1, state);
        let mut bytes = opr.encode().to_vec();
        let pos = pos_seed % bytes.len();
        bytes[pos] ^= flip;
        prop_assert!(Opr::decode(&bytes).is_err(), "flip at {pos} undetected");
    }

    /// Every strict prefix of an encoded OPR fails to decode cleanly —
    /// a truncated vault record (torn write, short read during crash
    /// recovery) is always an `Err`, never a panic and never a silently
    /// shortened object state.
    #[test]
    fn opr_truncation_always_errs(
        class_id in 1u64..,
        seq in 1u64..,
        state in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        let opr = Opr::new(
            Loid::instance(class_id, seq),
            Loid::class_object(class_id),
            7,
            state,
        );
        let bytes = opr.encode();
        for cut in 0..bytes.len() {
            prop_assert!(Opr::decode(&bytes[..cut]).is_err(), "prefix {cut} decoded");
        }
    }

    /// Decoding arbitrary byte soup as an OPR returns an error rather
    /// than panicking (no index-out-of-bounds, no allocation from a
    /// corrupt length prefix).
    #[test]
    fn opr_decode_of_garbage_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        // The checksum makes an accidental pass astronomically unlikely,
        // but the property under test is "no panic", so a rare Ok on
        // adversarially-shaped input is tolerated by construction.
        let _ = Opr::decode(&bytes);
    }

    /// Multi-byte corruption (not just single flips) of a valid OPR is
    /// rejected without panicking.
    #[test]
    fn opr_multi_flip_errs_or_roundtrips(
        state in proptest::collection::vec(any::<u8>(), 0..128),
        flips in proptest::collection::vec((any::<usize>(), 1u8..), 1..8),
    ) {
        let opr = Opr::new(Loid::instance(5, 6), Loid::class_object(5), 1, state);
        let original = opr.encode().to_vec();
        let mut bytes = original.clone();
        for (pos_seed, flip) in flips {
            let pos = pos_seed % bytes.len();
            bytes[pos] ^= flip;
        }
        // Flips at the same position can cancel out; only a net change
        // must be detected.
        if bytes != original {
            prop_assert!(Opr::decode(&bytes).is_err(), "corruption undetected");
        }
    }

    /// `Opr::verify` is `Opr::decode` without the OPR: the same `Ok`, the
    /// same error variant, on a valid encoding, on every prefix of it, on
    /// a flipped bit, on a body damaged *under a matching checksum* (the
    /// only way past the CRC to the version, field and length checks)
    /// and on arbitrary bytes.
    #[test]
    fn opr_verify_agrees_with_decode(
        class_id in 1u64..,
        seq in 1u64..,
        state in proptest::collection::vec(any::<u8>(), 0..200),
        pos_seed in any::<usize>(),
        flip in 1u8..,
        junk in proptest::collection::vec(any::<u8>(), 0..64),
        soup in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let agree = |bytes: &[u8]| {
            assert_eq!(Opr::verify(bytes), Opr::decode(bytes).map(drop), "on {bytes:?}");
        };
        let opr = Opr::new(Loid::instance(class_id, seq), Loid::class_object(class_id), 7, state);
        let valid = opr.encode().to_vec();
        prop_assert_eq!(Opr::verify(&valid), Ok(()));
        for cut in 0..valid.len() {
            agree(&valid[..cut]);
        }
        let pos = pos_seed % valid.len();
        let mut flipped = valid.clone();
        flipped[pos] ^= flip;
        agree(&flipped);
        // The same damage, then a longer and a shorter body, re-sealed.
        let reseal = |body: &[u8]| [body, &crc32(body).to_le_bytes()[..]].concat();
        let body = &flipped[..flipped.len() - 4];
        agree(&reseal(body));
        agree(&reseal(&[body, &junk[..]].concat()));
        agree(&reseal(&body[..pos.min(body.len())]));
        agree(&soup);
        agree(&reseal(&soup));
        agree(&reseal(&[&b"LOPR"[..], &soup[..]].concat()));
    }

    /// The value codec also never panics on arbitrary input (the OPR
    /// state payload may embed encoded values).
    #[test]
    fn value_decode_of_garbage_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = decode_value(&bytes);
    }

    /// Storage: store → load returns the same OPR; delete frees exactly
    /// what was used.
    #[test]
    fn storage_roundtrip_and_accounting(
        states in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 1..8),
    ) {
        let mut s = JurisdictionStorage::new(1, 2, 1 << 20);
        let mut addrs = Vec::new();
        for (i, state) in states.iter().enumerate() {
            let opr = Opr::new(
                Loid::instance(9, i as u64 + 1),
                Loid::class_object(9),
                0,
                state.clone(),
            );
            let addr = s.store_opr(&opr).expect("store");
            prop_assert_eq!(s.load_opr(&addr).expect("load"), opr);
            addrs.push(addr);
        }
        prop_assert_eq!(s.file_count(), states.len());
        for addr in &addrs {
            s.delete(addr).expect("delete");
        }
        prop_assert_eq!(s.used(), 0);
        prop_assert_eq!(s.file_count(), 0);
    }
}
