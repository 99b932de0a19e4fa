//! Object Persistent Representations (paper §3.1.1).
//!
//! "An Object Persistent Representation is a sequential set of bytes that
//! represents an Inert object, and that can be used by a Magistrate to
//! activate the object." Every object exports `SaveState`/`RestoreState`;
//! Magistrates call them to produce and interpret OPRs.
//!
//! On-disk layout (all multi-byte fields little-endian):
//!
//! ```text
//! magic   "LOPR"            4 bytes
//! version u8                currently 1
//! loid                      the object's LOID
//! class   loid              the object's class (activation needs the
//!                           class to re-establish the interface)
//! iface   u64               interface shape hash at save time — drift
//!                           detection between an OPR and its class
//! state   varint + bytes    the SaveState() payload
//! crc     u32               CRC-32 over everything above
//! ```

use crate::checksum::crc32;
use crate::codec::{CodecError, Reader, Writer, LOID_LEN};
use bytes::Bytes;
use legion_core::loid::Loid;
use std::fmt;

/// The 4-byte magic prefix.
pub const MAGIC: &[u8; 4] = b"LOPR";
/// Current format version.
pub const VERSION: u8 = 1;

/// A decoded Object Persistent Representation.
///
/// ```
/// use legion_core::loid::Loid;
/// use legion_persist::opr::Opr;
///
/// let opr = Opr::new(
///     Loid::instance(16, 1),
///     Loid::class_object(16),
///     0xABCD,
///     b"v 1\ncount\tu 42\n".to_vec(),
/// );
/// let bytes = opr.encode();
/// assert_eq!(Opr::decode(&bytes).unwrap(), opr);
/// // Any corruption is detected.
/// let mut bad = bytes.to_vec();
/// bad[10] ^= 0xFF;
/// assert!(Opr::decode(&bad).is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Opr {
    /// The Inert object's LOID.
    pub loid: Loid,
    /// The LOID of the object's class.
    pub class: Loid,
    /// Interface shape hash at save time.
    pub interface_hash: u64,
    /// The object's `SaveState()` payload.
    pub state: Vec<u8>,
}

/// OPR decode failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OprError {
    /// The magic prefix was wrong — not an OPR.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u8),
    /// The checksum did not match — corruption in storage or transfer.
    BadChecksum {
        /// Checksum stored in the OPR.
        stored: u32,
        /// Checksum computed over the payload.
        computed: u32,
    },
    /// A field failed to decode.
    Codec(CodecError),
}

impl fmt::Display for OprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OprError::BadMagic => write!(f, "not an OPR (bad magic)"),
            OprError::BadVersion(v) => write!(f, "unsupported OPR version {v}"),
            OprError::BadChecksum { stored, computed } => write!(
                f,
                "OPR checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
            OprError::Codec(e) => write!(f, "OPR field error: {e}"),
        }
    }
}

impl std::error::Error for OprError {}

impl From<CodecError> for OprError {
    fn from(e: CodecError) -> Self {
        OprError::Codec(e)
    }
}

impl Opr {
    /// Build an OPR for `loid` (an instance of `class`) from its saved
    /// state.
    pub fn new(loid: Loid, class: Loid, interface_hash: u64, state: Vec<u8>) -> Self {
        Opr {
            loid,
            class,
            interface_hash,
            state,
        }
    }

    /// Encode to the on-disk byte format.
    pub fn encode(&self) -> Bytes {
        let state = self.state.len();
        let len = 4 + 1 + 2 * LOID_LEN + 8 + Writer::varint_len(state as u64) + state + 4;
        let mut w = Writer::with_capacity(len);
        w.put_u8(MAGIC[0]);
        w.put_u8(MAGIC[1]);
        w.put_u8(MAGIC[2]);
        w.put_u8(MAGIC[3]);
        w.put_u8(VERSION);
        w.put_loid(&self.loid);
        w.put_loid(&self.class);
        w.put_u64(self.interface_hash);
        w.put_bytes(&self.state);
        let crc = crc32(w.as_bytes());
        w.put_u32(crc);
        debug_assert_eq!(w.len(), len, "an OPR's buffer is sized exactly");
        w.finish()
    }

    /// Decode and verify an OPR from bytes.
    pub fn decode(bytes: &[u8]) -> Result<Opr, OprError> {
        let (loid, class, interface_hash, state) = Self::fields(bytes)?;
        Ok(Opr {
            loid,
            class,
            interface_hash,
            state: state.to_vec(),
        })
    }

    /// Would [`Opr::decode`] accept `bytes`? Makes every check it makes
    /// — same verdict, same error — and materialises nothing: what a
    /// Magistrate receiving a shipped OPR needs before storing the bytes
    /// as they are.
    pub fn verify(bytes: &[u8]) -> Result<(), OprError> {
        Self::fields(bytes).map(drop)
    }

    /// Every check on an encoded OPR, yielding its fields with the state
    /// still borrowed from `bytes`.
    fn fields(bytes: &[u8]) -> Result<(Loid, Loid, u64, &[u8]), OprError> {
        if bytes.len() < 4 + 1 + 4 {
            return Err(OprError::Codec(CodecError::Truncated));
        }
        if &bytes[..4] != MAGIC {
            return Err(OprError::BadMagic);
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
        let computed = crc32(body);
        if stored != computed {
            return Err(OprError::BadChecksum { stored, computed });
        }
        let mut r = Reader::new(&body[4..]);
        let version = r.get_u8()?;
        if version != VERSION {
            return Err(OprError::BadVersion(version));
        }
        let loid = r.get_loid()?;
        let class = r.get_loid()?;
        let interface_hash = r.get_u64()?;
        let state = r.get_byte_slice()?;
        if !r.is_empty() {
            return Err(OprError::Codec(CodecError::Truncated));
        }
        Ok((loid, class, interface_hash, state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::LOID_LEN;

    fn sample() -> Opr {
        Opr::new(
            Loid::instance(16, 42),
            Loid::class_object(16),
            0xDEAD_BEEF_0BAD_F00D,
            b"v 3\ncount\tu 42\n".to_vec(),
        )
    }

    #[test]
    fn encode_decode_roundtrip() {
        let opr = sample();
        let bytes = opr.encode();
        let back = Opr::decode(&bytes).unwrap();
        assert_eq!(back, opr);
    }

    #[test]
    fn empty_state_roundtrips() {
        let opr = Opr::new(Loid::instance(1, 1), Loid::class_object(1), 0, vec![]);
        assert_eq!(Opr::decode(&opr.encode()).unwrap(), opr);
    }

    #[test]
    fn corruption_is_detected() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.to_vec();
            bad[i] ^= 0x40;
            let res = Opr::decode(&bad);
            assert!(res.is_err(), "flipping byte {i} must be detected");
        }
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(Opr::decode(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn bad_magic_is_not_an_opr() {
        let mut bytes = sample().encode().to_vec();
        bytes[0] = b'X';
        assert_eq!(Opr::decode(&bytes), Err(OprError::BadMagic));
    }

    #[test]
    fn bad_version_is_rejected() {
        let opr = sample();
        // Re-encode manually with a bumped version byte and fixed CRC.
        let bytes = opr.encode();
        let mut body = bytes[..bytes.len() - 4].to_vec();
        body[4] = 99;
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(Opr::decode(&body), Err(OprError::BadVersion(99)));
    }

    #[test]
    fn trailing_garbage_inside_body_is_rejected() {
        let opr = sample();
        let bytes = opr.encode();
        let mut body = bytes[..bytes.len() - 4].to_vec();
        body.push(0xAB); // junk inside the checksummed region
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            Opr::decode(&body),
            Err(OprError::Codec(CodecError::Truncated))
        ));
    }

    #[test]
    fn verify_gives_decodes_verdict_for_every_kind_of_error() {
        let good = sample().encode().to_vec();
        let reseal = |body: &[u8]| {
            let mut out = body.to_vec();
            out.extend_from_slice(&crc32(body).to_le_bytes());
            out
        };
        let body = &good[..good.len() - 4];
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        let mut bad_crc = good.clone();
        bad_crc[10] ^= 1;
        let mut bad_version = body.to_vec();
        bad_version[4] = 99;
        // The state's length prefix replaced by a varint past MAX_LEN.
        let prefix_at = 4 + 1 + 2 * LOID_LEN + 8;
        let mut huge_len = body[..prefix_at].to_vec();
        huge_len.extend_from_slice(&[0xFF, 0xFF, 0xFF, 0xFF, 0x7F]);
        let cases = [
            (good.clone(), Ok(())),
            (bad_magic, Err(OprError::BadMagic)),
            (
                good[..6].to_vec(),
                Err(OprError::Codec(CodecError::Truncated)),
            ),
            (reseal(&bad_version), Err(OprError::BadVersion(99))),
            (
                reseal(&body[..body.len() - 1]),
                Err(OprError::Codec(CodecError::Truncated)),
            ),
            (
                reseal(&[body, &[0xAB][..]].concat()),
                Err(OprError::Codec(CodecError::Truncated)),
            ),
            (
                reseal(&huge_len),
                Err(OprError::Codec(CodecError::LengthTooLarge(0x7_FFFF_FFFF))),
            ),
        ];
        for (bytes, want) in cases {
            assert_eq!(Opr::verify(&bytes), want);
            assert_eq!(Opr::decode(&bytes).map(drop), want);
        }
        assert!(matches!(
            Opr::verify(&bad_crc),
            Err(OprError::BadChecksum { .. })
        ));
        assert_eq!(Opr::verify(&bad_crc), Opr::decode(&bad_crc).map(drop));
    }

    #[test]
    fn error_display() {
        let e = OprError::BadChecksum {
            stored: 1,
            computed: 2,
        };
        assert!(e.to_string().contains("mismatch"));
    }
}
