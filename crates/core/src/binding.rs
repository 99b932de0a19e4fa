//! Bindings (paper §3.5): first-class ⟨LOID, Object Address, expiry⟩ triples.
//!
//! "Bindings from LOID's to Object Addresses in Legion are implemented as
//! simple triples ... Bindings are first class entities that can be passed
//! around the system and cached within objects." The caches, Binding
//! Agents and the resolution protocol live in `legion-naming`; the triple
//! itself is core model vocabulary and lives here so that class objects,
//! Magistrates and the value type can all speak it.

use crate::address::ObjectAddress;
use crate::loid::Loid;
use crate::time::{Expiry, SimTime};
use std::fmt;

/// A binding triple: the LOID, the Object Address it maps to, and the time
/// at which the binding becomes invalid (§3.5).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Binding {
    /// The Legion name being bound.
    pub loid: Loid,
    /// The physical address(es) the name maps to.
    pub address: ObjectAddress,
    /// When the binding stops being valid; `Expiry::Never` means it will
    /// "never become explicitly invalid".
    pub expiry: Expiry,
}

impl Binding {
    /// A binding that never explicitly expires.
    pub fn forever(loid: Loid, address: ObjectAddress) -> Self {
        Binding {
            loid,
            address,
            expiry: Expiry::Never,
        }
    }

    /// Is the binding still valid at virtual time `now`?
    #[inline]
    pub fn is_valid_at(&self, now: SimTime) -> bool {
        self.expiry.is_valid_at(now)
    }
}

impl fmt::Display for Binding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -> {} (expires {})",
            self.loid, self.address, self.expiry
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::ObjectAddressElement;

    fn addr(ep: u64) -> ObjectAddress {
        ObjectAddress::single(ObjectAddressElement::sim(ep))
    }

    #[test]
    fn forever_binding_never_expires() {
        let b = Binding::forever(Loid::instance(1, 1), addr(9));
        assert!(b.is_valid_at(SimTime::ZERO));
        assert!(b.is_valid_at(SimTime::NEVER));
    }

    #[test]
    fn ttl_binding_expires() {
        let now = SimTime::from_secs(10);
        let b = Binding {
            loid: Loid::instance(1, 1),
            address: addr(9),
            expiry: Expiry::after(now, 1_000_000),
        };
        assert!(b.is_valid_at(now));
        assert!(b.is_valid_at(now + 999_999));
        assert!(!b.is_valid_at(now + 1_000_000));
    }

    #[test]
    fn display_mentions_all_parts() {
        let b = Binding::forever(Loid::instance(2, 3), addr(4));
        let s = b.to_string();
        assert!(s.contains("->") && s.contains("sim:4") && s.contains("never"));
    }

    #[test]
    fn bindings_are_first_class_values() {
        // Clone + Eq + Hash: can be cached, compared, and passed around.
        use std::collections::HashSet;
        let b = Binding::forever(Loid::instance(2, 3), addr(4));
        let mut set = HashSet::new();
        set.insert(b.clone());
        assert!(set.contains(&b));
    }
}
