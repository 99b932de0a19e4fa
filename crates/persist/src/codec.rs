//! Binary wire/disk codec for Legion values.
//!
//! Object Persistent Representations are "a sequential set of bytes"
//! (§3.1.1); this module defines the byte format used for OPR payloads
//! and for any value that crosses a jurisdiction boundary. The format is
//! self-describing per field (tag byte + body), little-endian, with LEB128
//! varints for lengths.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use legion_core::address::{
    AddressKind, AddressSemantics, ObjectAddress, ObjectAddressElement, ADDRESS_INFO_BYTES,
};
use legion_core::binding::Binding;
use legion_core::loid::{ClassId, Loid, PUBLIC_KEY_BYTES};
use legion_core::time::{Expiry, SimTime};
use legion_core::value::LegionValue;
use std::fmt;

/// Codec failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Ran out of bytes mid-field.
    Truncated,
    /// Unknown tag byte for the expected kind.
    BadTag(u8),
    /// A length prefix exceeded the sanity limit.
    LengthTooLarge(u64),
    /// String bytes were not UTF-8.
    BadUtf8,
    /// A varint ran past its maximum width.
    BadVarint,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "input truncated"),
            CodecError::BadTag(t) => write!(f, "unknown tag byte {t:#04x}"),
            CodecError::LengthTooLarge(n) => write!(f, "length {n} exceeds sanity limit"),
            CodecError::BadUtf8 => write!(f, "invalid UTF-8 in string"),
            CodecError::BadVarint => write!(f, "varint too long"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Result alias for codec operations.
pub type CodecResult<T> = Result<T, CodecError>;

/// Sanity limit for length prefixes (16 MiB) — an OPR field larger than
/// this is corruption, not data.
pub const MAX_LEN: u64 = 16 * 1024 * 1024;

/// Encoded width of a LOID ([`Writer::put_loid`]): fixed.
pub const LOID_LEN: usize = 8 + 8 + PUBLIC_KEY_BYTES;

// ----- writer ------------------------------------------------------------

/// Append-only encoder over a `BytesMut`.
#[derive(Debug, Default)]
pub struct Writer {
    buf: BytesMut,
}

impl Writer {
    /// A fresh writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Finish, returning the encoded bytes.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }

    /// The bytes encoded so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Forget the encoded bytes, keeping the buffer's capacity — for a
    /// writer reused across many small encodings.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Current encoded length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Is the buffer empty?
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write a raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Write a little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.put_u32_le(v);
    }

    /// Write a little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }

    /// Write an LEB128 varint.
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.put_u8(byte);
                break;
            }
            self.buf.put_u8(byte | 0x80);
        }
    }

    /// Write length-prefixed bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_varint(v.len() as u64);
        self.buf.put_slice(v);
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Write a LOID (fixed width: 8 + 8 + key bytes).
    pub fn put_loid(&mut self, l: &Loid) {
        self.put_u64(l.class_id.0);
        self.put_u64(l.class_specific);
        self.buf.put_slice(&l.public_key);
    }

    /// Write an Object Address Element (tag + 256-bit info).
    pub fn put_element(&mut self, e: &ObjectAddressElement) {
        self.put_u32(e.kind.tag());
        self.buf.put_slice(&e.info);
    }

    /// Write address semantics.
    pub fn put_semantics(&mut self, s: &AddressSemantics) {
        match s {
            AddressSemantics::Single => self.put_u8(0),
            AddressSemantics::SendToAll => self.put_u8(1),
            AddressSemantics::PickRandom => self.put_u8(2),
            AddressSemantics::KOfN(k) => {
                self.put_u8(3);
                self.put_u32(*k);
            }
            AddressSemantics::FirstReachable => self.put_u8(4),
            AddressSemantics::User(tag) => {
                self.put_u8(5);
                self.put_u32(*tag);
            }
        }
    }

    /// Write a full Object Address.
    pub fn put_address(&mut self, a: &ObjectAddress) {
        self.put_varint(a.elements.len() as u64);
        for e in &a.elements {
            self.put_element(e);
        }
        self.put_semantics(&a.semantics);
    }

    /// Write an expiry.
    pub fn put_expiry(&mut self, e: &Expiry) {
        match e {
            Expiry::Never => self.put_u8(0),
            Expiry::At(t) => {
                self.put_u8(1);
                self.put_u64(t.as_nanos());
            }
        }
    }

    /// Write a binding triple.
    pub fn put_binding(&mut self, b: &Binding) {
        self.put_loid(&b.loid);
        self.put_address(&b.address);
        self.put_expiry(&b.expiry);
    }

    /// Write a dynamic value (tag + body).
    pub fn put_value(&mut self, v: &LegionValue) {
        match v {
            LegionValue::Void => self.put_u8(0),
            LegionValue::Bool(b) => {
                self.put_u8(1);
                self.put_u8(u8::from(*b));
            }
            LegionValue::Int(i) => {
                self.put_u8(2);
                self.put_u64(*i as u64);
            }
            LegionValue::Uint(u) => {
                self.put_u8(3);
                self.put_u64(*u);
            }
            LegionValue::Float(x) => {
                self.put_u8(4);
                self.put_u64(x.to_bits());
            }
            LegionValue::Str(s) => {
                self.put_u8(5);
                self.put_str(s);
            }
            LegionValue::Bytes(b) => {
                self.put_u8(6);
                self.put_bytes(b);
            }
            LegionValue::Loid(l) => {
                self.put_u8(7);
                self.put_loid(l);
            }
            LegionValue::Address(a) => {
                self.put_u8(8);
                self.put_address(a);
            }
            LegionValue::Binding(b) => {
                self.put_u8(9);
                self.put_binding(b);
            }
            LegionValue::List(items) => {
                self.put_u8(10);
                self.put_varint(items.len() as u64);
                for item in items {
                    self.put_value(item);
                }
            }
        }
    }
}

// ----- reader ------------------------------------------------------------

/// Decoder over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Read from `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// Have all bytes been consumed?
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    fn take(&mut self, n: usize) -> CodecResult<&'a [u8]> {
        if self.buf.len() < n {
            return Err(CodecError::Truncated);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> CodecResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian u32.
    pub fn get_u32(&mut self) -> CodecResult<u32> {
        let mut b = self.take(4)?;
        Ok(b.get_u32_le())
    }

    /// Read a little-endian u64.
    pub fn get_u64(&mut self) -> CodecResult<u64> {
        let mut b = self.take(8)?;
        Ok(b.get_u64_le())
    }

    /// Read an LEB128 varint.
    pub fn get_varint(&mut self) -> CodecResult<u64> {
        let mut out: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.get_u8()?;
            out |= ((byte & 0x7F) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(out);
            }
        }
        Err(CodecError::BadVarint)
    }

    /// Read length-prefixed bytes, borrowed from the input.
    pub fn get_byte_slice(&mut self) -> CodecResult<&'a [u8]> {
        let len = self.get_varint()?;
        if len > MAX_LEN {
            return Err(CodecError::LengthTooLarge(len));
        }
        self.take(len as usize)
    }

    /// Read length-prefixed bytes.
    pub fn get_bytes(&mut self) -> CodecResult<Vec<u8>> {
        Ok(self.get_byte_slice()?.to_vec())
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> CodecResult<String> {
        String::from_utf8(self.get_bytes()?).map_err(|_| CodecError::BadUtf8)
    }

    /// Read a LOID.
    pub fn get_loid(&mut self) -> CodecResult<Loid> {
        let class_id = self.get_u64()?;
        let class_specific = self.get_u64()?;
        let key = self.take(PUBLIC_KEY_BYTES)?;
        let mut public_key = [0u8; PUBLIC_KEY_BYTES];
        public_key.copy_from_slice(key);
        Ok(Loid {
            class_id: ClassId(class_id),
            class_specific,
            public_key,
        })
    }

    /// Read an Object Address Element.
    pub fn get_element(&mut self) -> CodecResult<ObjectAddressElement> {
        let tag = self.get_u32()?;
        let info_bytes = self.take(ADDRESS_INFO_BYTES)?;
        let mut info = [0u8; ADDRESS_INFO_BYTES];
        info.copy_from_slice(info_bytes);
        Ok(ObjectAddressElement {
            kind: AddressKind::from_tag(tag),
            info,
        })
    }

    /// Read address semantics.
    pub fn get_semantics(&mut self) -> CodecResult<AddressSemantics> {
        match self.get_u8()? {
            0 => Ok(AddressSemantics::Single),
            1 => Ok(AddressSemantics::SendToAll),
            2 => Ok(AddressSemantics::PickRandom),
            3 => Ok(AddressSemantics::KOfN(self.get_u32()?)),
            4 => Ok(AddressSemantics::FirstReachable),
            5 => Ok(AddressSemantics::User(self.get_u32()?)),
            t => Err(CodecError::BadTag(t)),
        }
    }

    /// Read a full Object Address.
    pub fn get_address(&mut self) -> CodecResult<ObjectAddress> {
        let n = self.get_varint()?;
        if n > MAX_LEN {
            return Err(CodecError::LengthTooLarge(n));
        }
        let elements = (0..n)
            .map(|_| self.get_element())
            .collect::<CodecResult<_>>()?;
        let semantics = self.get_semantics()?;
        Ok(ObjectAddress {
            elements,
            semantics,
        })
    }

    /// Read an expiry.
    pub fn get_expiry(&mut self) -> CodecResult<Expiry> {
        match self.get_u8()? {
            0 => Ok(Expiry::Never),
            1 => Ok(Expiry::At(SimTime(self.get_u64()?))),
            t => Err(CodecError::BadTag(t)),
        }
    }

    /// Read a binding triple.
    pub fn get_binding(&mut self) -> CodecResult<Binding> {
        Ok(Binding {
            loid: self.get_loid()?,
            address: self.get_address()?,
            expiry: self.get_expiry()?,
        })
    }

    /// Read a dynamic value.
    pub fn get_value(&mut self) -> CodecResult<LegionValue> {
        match self.get_u8()? {
            0 => Ok(LegionValue::Void),
            1 => Ok(LegionValue::Bool(self.get_u8()? != 0)),
            2 => Ok(LegionValue::Int(self.get_u64()? as i64)),
            3 => Ok(LegionValue::Uint(self.get_u64()?)),
            4 => Ok(LegionValue::Float(f64::from_bits(self.get_u64()?))),
            5 => Ok(LegionValue::Str(self.get_str()?)),
            6 => Ok(LegionValue::Bytes(self.get_bytes()?)),
            7 => Ok(LegionValue::Loid(self.get_loid()?)),
            8 => Ok(LegionValue::Address(self.get_address()?)),
            9 => Ok(LegionValue::Binding(Box::new(self.get_binding()?))),
            10 => {
                let n = self.get_varint()?;
                if n > MAX_LEN {
                    return Err(CodecError::LengthTooLarge(n));
                }
                let mut items = Vec::with_capacity((n as usize).min(1024));
                for _ in 0..n {
                    items.push(self.get_value()?);
                }
                Ok(LegionValue::List(items))
            }
            t => Err(CodecError::BadTag(t)),
        }
    }
}

/// Encode one value to bytes.
pub fn encode_value(v: &LegionValue) -> Bytes {
    let mut w = Writer::new();
    w.put_value(v);
    w.finish()
}

/// Decode one value, requiring full consumption.
pub fn decode_value(bytes: &[u8]) -> CodecResult<LegionValue> {
    let mut r = Reader::new(bytes);
    let v = r.get_value()?;
    if !r.is_empty() {
        return Err(CodecError::Truncated); // trailing garbage
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &LegionValue) -> LegionValue {
        decode_value(&encode_value(v)).expect("roundtrip decode")
    }

    #[test]
    fn scalar_roundtrips() {
        for v in [
            LegionValue::Void,
            LegionValue::Bool(true),
            LegionValue::Bool(false),
            LegionValue::Int(-12345),
            LegionValue::Int(i64::MIN),
            LegionValue::Uint(u64::MAX),
            LegionValue::Float(3.25),
            LegionValue::Float(f64::NEG_INFINITY),
            LegionValue::Str("héllo".into()),
            LegionValue::Str(String::new()),
            LegionValue::Bytes(vec![0, 255, 1, 2]),
            LegionValue::Loid(Loid::instance(77, 88)),
        ] {
            assert_eq!(roundtrip(&v), v);
        }
    }

    #[test]
    fn nan_roundtrips_bitwise() {
        let v = LegionValue::Float(f64::NAN);
        match roundtrip(&v) {
            LegionValue::Float(x) => assert!(x.is_nan()),
            other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn address_and_binding_roundtrip() {
        let addr = ObjectAddress::replicated(
            vec![
                ObjectAddressElement::sim(7),
                ObjectAddressElement::ipv4([10, 1, 2, 3], 8080),
                ObjectAddressElement::ipv4_node([10, 1, 2, 4], 9090, 17),
            ],
            AddressSemantics::KOfN(2),
        );
        let b = Binding {
            loid: Loid::instance(5, 6),
            address: addr.clone(),
            expiry: Expiry::At(SimTime::from_secs(12)),
        };
        assert_eq!(
            roundtrip(&LegionValue::Address(addr.clone())),
            LegionValue::Address(addr)
        );
        assert_eq!(
            roundtrip(&LegionValue::Binding(Box::new(b.clone()))),
            LegionValue::Binding(Box::new(b))
        );
    }

    #[test]
    fn nested_list_roundtrip() {
        let v = LegionValue::List(vec![
            LegionValue::List(vec![LegionValue::Uint(1), LegionValue::Str("x".into())]),
            LegionValue::Void,
            LegionValue::Binding(Box::new(Binding::forever(
                Loid::instance(1, 2),
                ObjectAddress::single(ObjectAddressElement::sim(3)),
            ))),
        ]);
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            let mut w = Writer::new();
            w.put_varint(v);
            let bytes = w.finish();
            let mut r = Reader::new(&bytes);
            assert_eq!(r.get_varint().unwrap(), v);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn truncation_is_detected_everywhere() {
        let full = encode_value(&LegionValue::List(vec![
            LegionValue::Str("hello".into()),
            LegionValue::Loid(Loid::instance(9, 9)),
        ]));
        for cut in 0..full.len() {
            let r = decode_value(&full[..cut]);
            assert!(r.is_err(), "decode of {cut}-byte prefix must fail");
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = encode_value(&LegionValue::Uint(7)).to_vec();
        bytes.push(0);
        assert_eq!(decode_value(&bytes), Err(CodecError::Truncated));
    }

    #[test]
    fn bad_tags_are_rejected() {
        assert_eq!(decode_value(&[99]), Err(CodecError::BadTag(99)));
        let mut r = Reader::new(&[9]);
        assert!(r.get_semantics().is_err());
        let mut r = Reader::new(&[7]);
        assert!(r.get_expiry().is_err());
    }

    #[test]
    fn oversized_length_is_rejected() {
        // Claim a 1 TiB string.
        let mut w = Writer::new();
        w.put_u8(5); // Str tag
        w.put_varint(1 << 40);
        let bytes = w.finish();
        assert!(matches!(
            decode_value(&bytes),
            Err(CodecError::LengthTooLarge(_))
        ));
    }

    #[test]
    fn bad_utf8_is_rejected() {
        let mut w = Writer::new();
        w.put_u8(5); // Str tag
        w.put_bytes(&[0xFF, 0xFE]);
        assert_eq!(decode_value(&w.finish()), Err(CodecError::BadUtf8));
    }

    #[test]
    fn overlong_varint_is_rejected() {
        let bytes = [0x80u8; 11];
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_varint(), Err(CodecError::BadVarint));
    }
}
