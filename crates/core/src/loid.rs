//! Legion Object Identifiers (paper §3.2).
//!
//! Every Legion object is named by a **LOID**. The 128 high-order bits are
//! split into a 64-bit **Class Identifier** and a 64-bit **Class Specific**
//! field; the low-order `P` bits are the object's **Public Key**. In this
//! reproduction `P = 128` (the paper leaves `P` "a constant whose size has
//! yet to be determined").
//!
//! Conventions from the paper that this module enforces:
//!
//! * the Class Specific field of every *class object's* LOID is zero;
//! * `LegionClass` hands out unique Class Identifiers ([`crate::metaclass`]);
//! * a class may use the Class Specific field however it likes — the
//!   default [`LoidAllocator`] uses it as a sequence number;
//! * the responsible class of any non-class LOID is derivable *locally* by
//!   zeroing the Class Specific field (§4.1.3) — see [`Loid::class_loid`].

use crate::error::{CoreError, CoreResult};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// Number of bits in the Public Key field (`P` in the paper).
pub const PUBLIC_KEY_BITS: usize = 128;
/// Number of bytes in the Public Key field.
pub const PUBLIC_KEY_BYTES: usize = PUBLIC_KEY_BITS / 8;

/// A 64-bit Class Identifier, unique per class, issued by LegionClass.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct ClassId(pub u64);

impl fmt::Display for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:x}", self.0)
    }
}

/// A Legion Object Identifier.
///
/// Ordering and hashing consider all three fields, so LOIDs can key maps
/// and be sorted deterministically. The public key participates in equality
/// — two LOIDs with identical class/specific fields but different keys are
/// different names (the key is the identity anchor for security, §3.2).
///
/// ```
/// use legion_core::loid::Loid;
///
/// let class = Loid::class_object(16);
/// let instance = Loid::instance(16, 7);
/// assert!(class.is_class());
/// assert!(!instance.is_class());
/// // §4.1.3: the responsible class is derivable locally.
/// assert_eq!(instance.class_loid(), class);
/// // Names round-trip through text.
/// let parsed: Loid = instance.to_string().parse().unwrap();
/// assert_eq!(parsed, instance);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Loid {
    /// 64-bit Class Identifier, assigned by LegionClass.
    pub class_id: ClassId,
    /// 64-bit Class Specific field; zero for class objects.
    pub class_specific: u64,
    /// `P`-bit public key (here: 128 bits).
    pub public_key: [u8; PUBLIC_KEY_BYTES],
}

impl Loid {
    /// The all-zero LOID, used as a sentinel for "no object".
    pub const NIL: Loid = Loid {
        class_id: ClassId(0),
        class_specific: 0,
        public_key: [0; PUBLIC_KEY_BYTES],
    };

    /// Construct a LOID with an explicit key.
    pub const fn new(
        class_id: u64,
        class_specific: u64,
        public_key: [u8; PUBLIC_KEY_BYTES],
    ) -> Self {
        Loid {
            class_id: ClassId(class_id),
            class_specific,
            public_key,
        }
    }

    /// Construct a *class object* LOID (Class Specific = 0) with a key
    /// derived deterministically from the class id.
    pub const fn class_object(class_id: u64) -> Self {
        Loid {
            class_id: ClassId(class_id),
            class_specific: 0,
            public_key: derive_key(class_id, 0),
        }
    }

    /// Construct an *instance* LOID within `class_id` with the given
    /// sequence number and a deterministically derived key.
    pub const fn instance(class_id: u64, seq: u64) -> Self {
        Loid {
            class_id: ClassId(class_id),
            class_specific: seq,
            public_key: derive_key(class_id, seq),
        }
    }

    /// Is this a class object? (Class Specific field is zero, §3.7.)
    #[inline]
    pub const fn is_class(&self) -> bool {
        self.class_specific == 0
    }

    /// Is this the nil sentinel?
    #[inline]
    pub fn is_nil(&self) -> bool {
        *self == Loid::NIL
    }

    /// The LOID of the class *responsible for locating this object*
    /// (paper §4.1.3): same Class Identifier, Class Specific zeroed.
    ///
    /// For a class object this returns the LOID unchanged — locating the
    /// responsible class of a class object requires LegionClass's
    /// responsibility pairs instead ([`crate::metaclass`]).
    #[inline]
    pub const fn class_loid(&self) -> Loid {
        Loid::class_object(self.class_id.0)
    }
}

/// Derive a deterministic 128-bit pseudo-key from the identifying fields.
///
/// This stands in for the paper's (unspecified) public-key generation: the
/// model only requires that the key be stable and collision-resistant
/// enough to anchor identity. We use two rounds of SplitMix64, which is
/// adequate for a simulation substrate (documented substitution, DESIGN.md).
const fn derive_key(class_id: u64, specific: u64) -> [u8; PUBLIC_KEY_BYTES] {
    let a = splitmix64(class_id ^ 0x9e37_79b9_7f4a_7c15);
    let b = splitmix64(specific ^ a);
    let c = splitmix64(a ^ b ^ 0x6a09_e667_f3bc_c908);
    let d = splitmix64(b ^ c);
    let mut out = [0u8; PUBLIC_KEY_BYTES];
    let ab = ((a ^ c) as u128) << 64 | (b ^ d) as u128;
    let bytes = ab.to_be_bytes();
    let mut i = 0;
    while i < PUBLIC_KEY_BYTES {
        out[i] = bytes[i];
        i += 1;
    }
    out
}

const fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl fmt::Display for Loid {
    /// Format: `L<class_id>.<class_specific>.<first 4 key bytes>` in hex.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "L{:x}.{:x}.{:02x}{:02x}{:02x}{:02x}",
            self.class_id.0,
            self.class_specific,
            self.public_key[0],
            self.public_key[1],
            self.public_key[2],
            self.public_key[3]
        )
    }
}

impl FromStr for Loid {
    type Err = CoreError;

    /// Parse the `Display` form. The key prefix is informational: the full
    /// key is re-derived from the class/specific fields (keys are
    /// deterministic in this reproduction) and the prefix is validated.
    fn from_str(s: &str) -> CoreResult<Self> {
        let body = s
            .strip_prefix('L')
            .ok_or_else(|| CoreError::Invalid(format!("LOID must start with 'L': {s}")))?;
        let mut parts = body.split('.');
        let (cid, spec, key) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some(a), Some(b), Some(c), None) => (a, b, c),
            _ => {
                return Err(CoreError::Invalid(format!(
                    "LOID must have three dot-separated fields: {s}"
                )))
            }
        };
        let class_id = u64::from_str_radix(cid, 16)
            .map_err(|e| CoreError::Invalid(format!("bad class id {cid:?}: {e}")))?;
        let class_specific = u64::from_str_radix(spec, 16)
            .map_err(|e| CoreError::Invalid(format!("bad class specific {spec:?}: {e}")))?;
        let loid = Loid::instance(class_id, class_specific);
        let expect = format!(
            "{:02x}{:02x}{:02x}{:02x}",
            loid.public_key[0], loid.public_key[1], loid.public_key[2], loid.public_key[3]
        );
        if key != expect {
            return Err(CoreError::Invalid(format!(
                "LOID key prefix mismatch: got {key}, derived {expect}"
            )));
        }
        Ok(loid)
    }
}

/// Allocates instance and subclass LOIDs on behalf of one class object.
///
/// Implements the convention of §3.7: "the class object ... assigns the
/// Class Identifier portion to match its own Class Identifier, and uses the
/// Class Specific field ... most likely as a sequence number". Sequence
/// number zero is reserved (it denotes the class object itself), so the
/// first instance receives Class Specific = 1.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoidAllocator {
    class_id: ClassId,
    next_specific: u64,
}

impl LoidAllocator {
    /// A fresh allocator for the class with identifier `class_id`.
    pub fn new(class_id: ClassId) -> Self {
        LoidAllocator {
            class_id,
            next_specific: 1,
        }
    }

    /// The class this allocator serves.
    pub fn class_id(&self) -> ClassId {
        self.class_id
    }

    /// How many LOIDs have been handed out so far.
    pub fn allocated(&self) -> u64 {
        self.next_specific - 1
    }

    /// Allocate the next unique instance LOID.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> CoreResult<Loid> {
        if self.next_specific == u64::MAX {
            return Err(CoreError::LoidSpaceExhausted(Loid::class_object(
                self.class_id.0,
            )));
        }
        let seq = self.next_specific;
        self.next_specific += 1;
        Ok(Loid::instance(self.class_id.0, seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn class_object_has_zero_specific() {
        let c = Loid::class_object(7);
        assert!(c.is_class());
        assert_eq!(c.class_specific, 0);
        assert_eq!(c.class_id, ClassId(7));
    }

    #[test]
    fn instance_is_not_class() {
        let o = Loid::instance(7, 3);
        assert!(!o.is_class());
    }

    #[test]
    fn class_loid_zeroes_specific_and_matches_class_object() {
        let o = Loid::instance(9, 1234);
        assert_eq!(o.class_loid(), Loid::class_object(9));
    }

    #[test]
    fn nil_is_nil() {
        assert!(Loid::NIL.is_nil());
        assert!(!Loid::class_object(1).is_nil());
    }

    #[test]
    fn keys_are_deterministic_and_distinct() {
        let a = Loid::instance(1, 1);
        let b = Loid::instance(1, 1);
        let c = Loid::instance(1, 2);
        let d = Loid::instance(2, 1);
        assert_eq!(a.public_key, b.public_key);
        assert_ne!(a.public_key, c.public_key);
        assert_ne!(a.public_key, d.public_key);
        assert_ne!(c.public_key, d.public_key);
    }

    #[test]
    fn display_roundtrip() {
        for loid in [
            Loid::class_object(0x1f),
            Loid::instance(0xdead, 0xbeef),
            Loid::instance(1, u64::MAX),
        ] {
            let s = loid.to_string();
            let back: Loid = s.parse().expect("parse");
            assert_eq!(back, loid, "roundtrip of {s}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<Loid>().is_err());
        assert!("X1.2.00000000".parse::<Loid>().is_err());
        assert!("L1".parse::<Loid>().is_err());
        assert!("L1.2".parse::<Loid>().is_err());
        assert!("L1.2.3.4".parse::<Loid>().is_err());
        assert!("Lzz.2.00000000".parse::<Loid>().is_err());
    }

    #[test]
    fn parse_rejects_key_mismatch() {
        let good = Loid::instance(5, 6).to_string();
        // Corrupt the key prefix.
        let bad = format!("{}{}", &good[..good.len() - 8], "00000000");
        if bad != good {
            assert!(bad.parse::<Loid>().is_err());
        }
    }

    #[test]
    fn a_genuine_key_is_its_derivation_and_parses_back() {
        for loid in [Loid::instance(16, 7), Loid::class_object(16)] {
            let key = derive_key(loid.class_id.0, loid.class_specific);
            assert_eq!(loid.public_key, key);
            let back: Loid = loid.to_string().parse().expect("parse");
            assert_eq!(back, loid);
        }
    }

    #[test]
    fn a_forged_key_is_refused_at_parse() {
        let mut forged = Loid::instance(16, 7);
        forged.public_key[0] ^= 0xFF;
        assert!(forged.to_string().parse::<Loid>().is_err());
    }

    #[test]
    fn a_transplanted_key_is_refused_at_parse() {
        // Key from one object, identity fields of another.
        let donor = Loid::instance(16, 1);
        let mut forged = Loid::instance(16, 2);
        forged.public_key = donor.public_key;
        assert!(forged.to_string().parse::<Loid>().is_err());
    }

    #[test]
    fn allocator_is_sequential_and_unique() {
        let mut alloc = LoidAllocator::new(ClassId(3));
        let mut seen = HashSet::new();
        for i in 1..=100u64 {
            let l = alloc.next().unwrap();
            assert_eq!(l.class_specific, i);
            assert_eq!(l.class_id, ClassId(3));
            assert!(!l.is_class());
            assert!(seen.insert(l));
        }
        assert_eq!(alloc.allocated(), 100);
    }

    #[test]
    fn allocator_exhaustion() {
        let mut alloc = LoidAllocator {
            class_id: ClassId(1),
            next_specific: u64::MAX,
        };
        assert!(matches!(
            alloc.next(),
            Err(CoreError::LoidSpaceExhausted(_))
        ));
    }

    #[test]
    fn ordering_is_lexicographic_by_fields() {
        let a = Loid::instance(1, 2);
        let b = Loid::instance(1, 3);
        let c = Loid::instance(2, 0);
        assert!(a < b);
        assert!(b < c);
    }
}
