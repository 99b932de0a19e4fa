//! Object Addresses (paper §3.4) and address semantics (§4.3).
//!
//! An **Object Address Element** is a 32-bit *address type* plus 256 bits
//! of address-specific information (IP + port, XTP, multiprocessor node
//! numbers, or — in this reproduction — a simulator endpoint id). An
//! **Object Address** is a list of elements together with *semantic
//! information that describes how to utilize the list*: send to all,
//! pick one at random, use `k` of `N`, and so on. The semantics field is
//! what makes system-level object replication possible without changing
//! application-level communication (§4.3).

use std::fmt;

/// Number of bytes of address-specific information in an element (256 bits).
pub const ADDRESS_INFO_BYTES: usize = 32;

/// The 32-bit address type tag of an [`ObjectAddressElement`].
///
/// The paper envisions IP as "the first and most common type"; this
/// reproduction adds a `Sim` type for discrete-event endpoints and keeps
/// the tag space open for user extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AddressKind {
    /// IPv4 address + 16-bit port (48 of 256 bits used).
    Ipv4,
    /// XTP transport address.
    Xtp,
    /// IPv4 + port + 32-bit platform-specific node number (multiprocessors).
    Ipv4Node,
    /// A simulator endpoint (this reproduction's substrate).
    Sim,
    /// An extension type identified by its raw 32-bit tag.
    Other(u32),
}

impl AddressKind {
    /// The raw 32-bit tag.
    pub fn tag(self) -> u32 {
        match self {
            AddressKind::Ipv4 => 1,
            AddressKind::Xtp => 2,
            AddressKind::Ipv4Node => 3,
            AddressKind::Sim => 100,
            AddressKind::Other(t) => t,
        }
    }

    /// Reconstruct from a raw tag.
    pub fn from_tag(tag: u32) -> Self {
        match tag {
            1 => AddressKind::Ipv4,
            2 => AddressKind::Xtp,
            3 => AddressKind::Ipv4Node,
            100 => AddressKind::Sim,
            t => AddressKind::Other(t),
        }
    }
}

/// One physical address: a type tag plus 256 bits of information.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObjectAddressElement {
    /// What kind of address the info bytes encode.
    pub kind: AddressKind,
    /// 256 bits of address-specific information.
    pub info: [u8; ADDRESS_INFO_BYTES],
}

impl ObjectAddressElement {
    /// Build an IPv4 element: 32-bit address + 16-bit port (48 bits used,
    /// exactly as the paper describes).
    pub fn ipv4(addr: [u8; 4], port: u16) -> Self {
        let mut info = [0u8; ADDRESS_INFO_BYTES];
        info[..4].copy_from_slice(&addr);
        info[4..6].copy_from_slice(&port.to_be_bytes());
        ObjectAddressElement {
            kind: AddressKind::Ipv4,
            info,
        }
    }

    /// Build an IPv4+node element for multiprocessors: the extra 32-bit
    /// platform-specific internal node number distinguishes processors.
    pub fn ipv4_node(addr: [u8; 4], port: u16, node: u32) -> Self {
        let mut info = [0u8; ADDRESS_INFO_BYTES];
        info[..4].copy_from_slice(&addr);
        info[4..6].copy_from_slice(&port.to_be_bytes());
        info[6..10].copy_from_slice(&node.to_be_bytes());
        ObjectAddressElement {
            kind: AddressKind::Ipv4Node,
            info,
        }
    }

    /// Build a simulator-endpoint element from a 64-bit endpoint id.
    pub fn sim(endpoint: u64) -> Self {
        let mut info = [0u8; ADDRESS_INFO_BYTES];
        info[..8].copy_from_slice(&endpoint.to_be_bytes());
        ObjectAddressElement {
            kind: AddressKind::Sim,
            info,
        }
    }

    /// Extract the simulator endpoint id, if this is a `Sim` element.
    pub fn sim_endpoint(&self) -> Option<u64> {
        if self.kind == AddressKind::Sim {
            let mut b = [0u8; 8];
            b.copy_from_slice(&self.info[..8]);
            Some(u64::from_be_bytes(b))
        } else {
            None
        }
    }

    /// Extract `(addr, port)` if this is an IPv4 or IPv4+node element.
    pub fn ipv4_parts(&self) -> Option<([u8; 4], u16)> {
        match self.kind {
            AddressKind::Ipv4 | AddressKind::Ipv4Node => {
                let mut a = [0u8; 4];
                a.copy_from_slice(&self.info[..4]);
                let port = u16::from_be_bytes([self.info[4], self.info[5]]);
                Some((a, port))
            }
            _ => None,
        }
    }
}

impl fmt::Debug for ObjectAddressElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            AddressKind::Ipv4 => {
                let (a, p) = self.ipv4_parts().expect("ipv4 parts");
                write!(f, "ipv4:{}.{}.{}.{}:{}", a[0], a[1], a[2], a[3], p)
            }
            AddressKind::Ipv4Node => {
                let (a, p) = self.ipv4_parts().expect("ipv4 parts");
                let mut n = [0u8; 4];
                n.copy_from_slice(&self.info[6..10]);
                write!(
                    f,
                    "ipv4:{}.{}.{}.{}:{}#{}",
                    a[0],
                    a[1],
                    a[2],
                    a[3],
                    p,
                    u32::from_be_bytes(n)
                )
            }
            AddressKind::Sim => write!(f, "sim:{}", self.sim_endpoint().expect("sim endpoint")),
            AddressKind::Xtp => write!(f, "xtp:{:02x?}", &self.info[..6]),
            AddressKind::Other(t) => write!(f, "other({t}):{:02x?}", &self.info[..8]),
        }
    }
}

impl fmt::Display for ObjectAddressElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// How the element list of an [`ObjectAddress`] is to be used (§3.4, §4.3).
///
/// "The address semantic is intended to encapsulate various forms of
/// multicast communication ... all addresses should be sent to, one of the
/// addresses should be chosen at random, k of the N addresses in the list
/// should be used" — with provisions for user-definable options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AddressSemantics {
    /// Send to exactly the first (and typically only) element.
    #[default]
    Single,
    /// Send to every element in the list.
    SendToAll,
    /// Send to one element chosen uniformly at random.
    PickRandom,
    /// Send to `k` distinct elements chosen at random.
    KOfN(u32),
    /// Try elements in order until one succeeds (failover).
    FirstReachable,
    /// A user-defined semantic identified by a 32-bit tag; the transport
    /// layer must be taught how to interpret it.
    User(u32),
}

impl AddressSemantics {
    /// Given `n` available elements, how many a single send fans out to.
    /// `FirstReachable` counts as one attempt (retries are accounted
    /// separately by the transport).
    pub fn fanout(&self, n: usize) -> usize {
        match self {
            AddressSemantics::Single => usize::from(n > 0),
            AddressSemantics::SendToAll => n,
            AddressSemantics::PickRandom => usize::from(n > 0),
            AddressSemantics::KOfN(k) => (*k as usize).min(n),
            AddressSemantics::FirstReachable => usize::from(n > 0),
            AddressSemantics::User(_) => usize::from(n > 0),
        }
    }
}

/// The element list of an [`ObjectAddress`].
///
/// §3.4's "first and most common" Object Address has exactly one element,
/// and §3.5 makes the bindings that carry it "first class entities that
/// can be passed around the system and cached within objects" — so zero
/// or one element is stored inline and only a replicated address (§4.3)
/// spills to a `Vec`. Cloning, caching or dropping a single-element
/// address never touches the allocator. It reads as a slice; equality,
/// hashing, `Debug` and the persist codec's form are the slice's,
/// whatever the storage.
#[derive(Default)]
pub struct Elements(Repr);

#[derive(Clone, Default)]
enum Repr {
    #[default]
    Empty,
    One(ObjectAddressElement),
    Many(Vec<ObjectAddressElement>),
}

impl Elements {
    /// An empty list.
    pub const fn new() -> Self {
        Elements(Repr::Empty)
    }

    /// A one-element list, stored inline.
    pub const fn one(element: ObjectAddressElement) -> Self {
        Elements(Repr::One(element))
    }
}

impl Clone for Elements {
    fn clone(&self) -> Self {
        Elements(self.0.clone())
    }

    /// A replicated list refills its resident buffer; every other pair
    /// of shapes is a plain copy.
    fn clone_from(&mut self, src: &Self) {
        match (&mut self.0, &src.0) {
            (Repr::Many(dst), Repr::Many(src)) => dst.clone_from(src),
            _ => *self = src.clone(),
        }
    }
}

impl std::ops::Deref for Elements {
    type Target = [ObjectAddressElement];

    #[inline]
    fn deref(&self) -> &[ObjectAddressElement] {
        match &self.0 {
            Repr::Empty => &[],
            Repr::One(e) => std::slice::from_ref(e),
            Repr::Many(v) => v,
        }
    }
}

impl From<Vec<ObjectAddressElement>> for Elements {
    fn from(v: Vec<ObjectAddressElement>) -> Self {
        match v[..] {
            [] => Elements::new(),
            [e] => Elements::one(e),
            _ => Elements(Repr::Many(v)),
        }
    }
}

impl FromIterator<ObjectAddressElement> for Elements {
    /// Collects inline; allocates only on the second element.
    fn from_iter<I: IntoIterator<Item = ObjectAddressElement>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        let Some(first) = iter.next() else {
            return Elements::new();
        };
        let Some(second) = iter.next() else {
            return Elements::one(first);
        };
        let mut v = vec![first, second];
        v.extend(iter);
        Elements(Repr::Many(v))
    }
}

impl<'a> IntoIterator for &'a Elements {
    type Item = &'a ObjectAddressElement;
    type IntoIter = std::slice::Iter<'a, ObjectAddressElement>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for Elements {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Elements {}

impl std::hash::Hash for Elements {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self[..].hash(state);
    }
}

impl fmt::Debug for Elements {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self[..], f)
    }
}

/// A full Object Address: element list + usage semantics (§3.4).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ObjectAddress {
    /// The physical address elements.
    pub elements: Elements,
    /// How to use the list.
    pub semantics: AddressSemantics,
}

impl ObjectAddress {
    /// A single-element address with [`AddressSemantics::Single`].
    pub fn single(element: ObjectAddressElement) -> Self {
        ObjectAddress {
            elements: Elements::one(element),
            semantics: AddressSemantics::Single,
        }
    }

    /// A replicated address over `elements` with the given semantics.
    pub fn replicated(elements: Vec<ObjectAddressElement>, semantics: AddressSemantics) -> Self {
        ObjectAddress {
            elements: elements.into(),
            semantics,
        }
    }

    /// Is the element list empty?
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// Number of elements (replica count).
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// The first element, if any — the common single-process case.
    pub fn primary(&self) -> Option<&ObjectAddressElement> {
        self.elements.first()
    }
}

impl fmt::Display for ObjectAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, e) in self.elements.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "] {:?}", self.semantics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipv4_element_roundtrip() {
        let e = ObjectAddressElement::ipv4([10, 0, 0, 7], 8080);
        assert_eq!(e.ipv4_parts(), Some(([10, 0, 0, 7], 8080)));
        assert_eq!(e.sim_endpoint(), None);
        assert_eq!(format!("{e}"), "ipv4:10.0.0.7:8080");
    }

    #[test]
    fn ipv4_node_element_roundtrip() {
        let e = ObjectAddressElement::ipv4_node([192, 168, 1, 2], 9000, 17);
        assert_eq!(e.ipv4_parts(), Some(([192, 168, 1, 2], 9000)));
        assert_eq!(format!("{e}"), "ipv4:192.168.1.2:9000#17");
    }

    #[test]
    fn sim_element_roundtrip() {
        let e = ObjectAddressElement::sim(123_456);
        assert_eq!(e.sim_endpoint(), Some(123_456));
        assert_eq!(e.ipv4_parts(), None);
    }

    #[test]
    fn kind_tag_roundtrip() {
        for k in [
            AddressKind::Ipv4,
            AddressKind::Xtp,
            AddressKind::Ipv4Node,
            AddressKind::Sim,
            AddressKind::Other(7777),
        ] {
            assert_eq!(AddressKind::from_tag(k.tag()), k);
        }
    }

    #[test]
    fn fanout_semantics() {
        assert_eq!(AddressSemantics::Single.fanout(4), 1);
        assert_eq!(AddressSemantics::Single.fanout(0), 0);
        assert_eq!(AddressSemantics::SendToAll.fanout(4), 4);
        assert_eq!(AddressSemantics::PickRandom.fanout(4), 1);
        assert_eq!(AddressSemantics::KOfN(3).fanout(4), 3);
        assert_eq!(AddressSemantics::KOfN(9).fanout(4), 4);
        assert_eq!(AddressSemantics::FirstReachable.fanout(4), 1);
    }

    #[test]
    fn single_address() {
        let a = ObjectAddress::single(ObjectAddressElement::sim(1));
        assert_eq!(a.len(), 1);
        assert!(!a.is_empty());
        assert_eq!(a.primary().unwrap().sim_endpoint(), Some(1));
        assert_eq!(a.semantics, AddressSemantics::Single);
    }

    #[test]
    fn replicated_address_display() {
        let a = ObjectAddress::replicated(
            vec![ObjectAddressElement::sim(1), ObjectAddressElement::sim(2)],
            AddressSemantics::SendToAll,
        );
        let s = a.to_string();
        assert!(s.contains("sim:1") && s.contains("sim:2") && s.contains("SendToAll"));
    }

    #[test]
    fn empty_address() {
        let a = ObjectAddress {
            elements: Elements::new(),
            semantics: AddressSemantics::Single,
        };
        assert!(a.is_empty());
        assert!(a.primary().is_none());
    }
}
