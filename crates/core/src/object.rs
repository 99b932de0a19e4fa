//! The object-mandatory member functions (paper §2.1, §2.4, §3.1).
//!
//! "All Legion objects export a common set of OBJECT-MANDATORY member
//! functions, including `MayI()`, `SaveState()`, and `RestoreState()`."
//! This module defines:
//!
//! * the canonical method names and their signatures
//!   ([`object_mandatory_interface`]),
//! * the two object states — **Active** and **Inert** (§3.1),
//! * the [`ObjectMandatory`] trait that in-process object implementations
//!   fulfil, and
//! * [`GenericObject`], a ready-made implementation with a key/value state
//!   used by examples and tests.

use crate::interface::{Interface, MethodSignature, ParamType};
use crate::loid::Loid;
use crate::value::LegionValue;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Canonical object-mandatory method names.
pub mod methods {
    /// Security check: may `caller` invoke `method` on me? (§2.4)
    pub const MAY_I: &str = "MayI";
    /// Identity assertion used by the security model (§2.4).
    pub const IAM: &str = "Iam";
    /// Serialize state for deactivation into an OPR (§3.1.1).
    pub const SAVE_STATE: &str = "SaveState";
    /// Restore state from an OPR on activation (§3.1.1).
    pub const RESTORE_STATE: &str = "RestoreState";
    /// Liveness probe.
    pub const PING: &str = "Ping";
    /// Return the object's interface (§3.7 lists `GetInterface()`).
    pub const GET_INTERFACE: &str = "GetInterface";
}

/// Whether an object currently runs as a process or rests in storage (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ObjectState {
    /// Running as a process (or set of processes) on one or more hosts;
    /// described by an Object Address.
    Active,
    /// Resting in persistent storage as an Object Persistent
    /// Representation; located by an Object Persistent Address.
    Inert,
}

impl fmt::Display for ObjectState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjectState::Active => write!(f, "Active"),
            ObjectState::Inert => write!(f, "Inert"),
        }
    }
}

/// The object-mandatory interface, attributed to `provider` (normally the
/// `LegionObject` core class — every object inherits these, §2.1.3).
pub fn object_mandatory_interface(provider: Loid) -> Interface {
    let mut i = Interface::new();
    i.define(
        MethodSignature::new(
            methods::MAY_I,
            vec![("caller", ParamType::Loid), ("method", ParamType::Str)],
            ParamType::Bool,
        ),
        provider,
    );
    i.define(
        MethodSignature::new(methods::IAM, vec![], ParamType::Loid),
        provider,
    );
    i.define(
        MethodSignature::new(methods::SAVE_STATE, vec![], ParamType::Bytes),
        provider,
    );
    i.define(
        MethodSignature::new(
            methods::RESTORE_STATE,
            vec![("state", ParamType::Bytes)],
            ParamType::Void,
        ),
        provider,
    );
    i.define(
        MethodSignature::new(methods::PING, vec![], ParamType::Uint),
        provider,
    );
    i.define(
        MethodSignature::new(methods::GET_INTERFACE, vec![], ParamType::Str),
        provider,
    );
    i
}

/// The behaviour every in-process Legion object implementation fulfils.
///
/// Method *invocation* is message-based and handled by the runtime; this
/// trait is the local contract the runtime calls through. The default
/// `MayI` is permissive — the paper's "functions may default to empty for
/// the case of no security" (§2.4); `legion-security` supplies real
/// policies.
pub trait ObjectMandatory {
    /// The object's own LOID (`Iam()`).
    fn iam(&self) -> Loid;

    /// May `caller` invoke `method`? Defaults to yes (no security).
    fn may_i(&self, _caller: Loid, _method: &str) -> bool {
        true
    }

    /// Serialize the object's state for an OPR payload (`SaveState()`).
    fn save_state(&self) -> Vec<u8>;

    /// Restore the object's state from an OPR payload (`RestoreState()`).
    /// Returns `false` if the payload is unintelligible.
    fn restore_state(&mut self, state: &[u8]) -> bool;

    /// The object's interface (`GetInterface()`).
    fn get_interface(&self) -> Interface;
}

/// A generic Legion object: a LOID, an interface, and a string-keyed
/// [`LegionValue`] state map with a line-oriented `SaveState` encoding.
///
/// Real deployments would generate object implementations from IDL; the
/// reproduction's examples and tests use `GenericObject` wherever the
/// paper says "an object".
#[derive(Debug, Clone, PartialEq)]
pub struct GenericObject {
    loid: Loid,
    interface: Interface,
    state: BTreeMap<String, LegionValue>,
    /// Monotone counter bumped by every mutation; exposed via `Ping`.
    version: u64,
}

impl GenericObject {
    /// A new object named `loid` exporting `interface`.
    pub fn new(loid: Loid, interface: Interface) -> Self {
        GenericObject {
            loid,
            interface,
            state: BTreeMap::new(),
            version: 0,
        }
    }

    /// Set a state field.
    pub fn set(&mut self, key: impl Into<String>, value: LegionValue) {
        self.state.insert(key.into(), value);
        self.version += 1;
    }

    /// Read a state field.
    pub fn get(&self, key: &str) -> Option<&LegionValue> {
        self.state.get(key)
    }

    /// The mutation counter.
    pub fn version(&self) -> u64 {
        self.version
    }
}

impl ObjectMandatory for GenericObject {
    fn iam(&self) -> Loid {
        self.loid
    }

    fn save_state(&self) -> Vec<u8> {
        // Line format: version, then `key=Display(value)` pairs for the
        // scalar types. Only scalars survive a save/restore cycle — enough
        // for the model-layer experiments; richer objects override this.
        let mut out = format!("v {}\n", self.version);
        for (k, v) in &self.state {
            let enc = match v {
                LegionValue::Bool(b) => format!("b {b}"),
                LegionValue::Int(i) => format!("i {i}"),
                LegionValue::Uint(u) => format!("u {u}"),
                LegionValue::Float(x) => format!("f {x}"),
                LegionValue::Str(s) => format!("s {s}"),
                LegionValue::Loid(l) => format!("l {l}"),
                _ => continue,
            };
            out.push_str(&format!("{k}\t{enc}\n"));
        }
        out.into_bytes()
    }

    fn restore_state(&mut self, state: &[u8]) -> bool {
        let Ok(text) = std::str::from_utf8(state) else {
            return false;
        };
        let mut lines = text.lines();
        let Some(vline) = lines.next() else {
            return false;
        };
        let Some(v) = vline.strip_prefix("v ").and_then(|s| s.parse().ok()) else {
            return false;
        };
        let mut new_state = BTreeMap::new();
        for line in lines {
            let Some((k, enc)) = line.split_once('\t') else {
                return false;
            };
            let Some((tag, body)) = enc.split_once(' ') else {
                return false;
            };
            let value = match tag {
                "b" => body.parse().map(LegionValue::Bool).ok(),
                "i" => body.parse().map(LegionValue::Int).ok(),
                "u" => body.parse().map(LegionValue::Uint).ok(),
                "f" => body.parse().map(LegionValue::Float).ok(),
                "s" => Some(LegionValue::Str(body.to_owned())),
                "l" => body.parse().map(LegionValue::Loid).ok(),
                _ => None,
            };
            let Some(value) = value else {
                return false;
            };
            new_state.insert(k.to_owned(), value);
        }
        self.version = v;
        self.state = new_state;
        true
    }

    fn get_interface(&self) -> Interface {
        self.interface.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj() -> GenericObject {
        GenericObject::new(
            Loid::instance(20, 1),
            object_mandatory_interface(crate::wellknown::LEGION_OBJECT),
        )
    }

    #[test]
    fn mandatory_interface_has_all_methods() {
        let i = object_mandatory_interface(crate::wellknown::LEGION_OBJECT);
        for m in [
            methods::MAY_I,
            methods::IAM,
            methods::SAVE_STATE,
            methods::RESTORE_STATE,
            methods::PING,
            methods::GET_INTERFACE,
        ] {
            assert!(i.contains(m), "missing {m}");
        }
        assert_eq!(i.len(), 6);
    }

    #[test]
    fn iam_returns_own_loid() {
        let o = obj();
        assert_eq!(o.iam(), Loid::instance(20, 1));
    }

    #[test]
    fn default_may_i_is_permissive() {
        let o = obj();
        assert!(o.may_i(Loid::instance(99, 9), "anything"));
    }

    #[test]
    fn save_restore_roundtrip() {
        let mut o = obj();
        o.set("count", LegionValue::Uint(42));
        o.set("name", LegionValue::Str("renderer".into()));
        o.set("owner", LegionValue::Loid(Loid::instance(3, 4)));
        o.set("flag", LegionValue::Bool(true));
        o.set("temp", LegionValue::Float(36.6));
        o.set("delta", LegionValue::Int(-5));
        let saved = o.save_state();

        let mut p = obj();
        assert!(p.restore_state(&saved));
        assert_eq!(p.get("count"), Some(&LegionValue::Uint(42)));
        assert_eq!(p.get("name"), Some(&LegionValue::Str("renderer".into())));
        assert_eq!(
            p.get("owner"),
            Some(&LegionValue::Loid(Loid::instance(3, 4)))
        );
        assert_eq!(p.get("flag"), Some(&LegionValue::Bool(true)));
        assert_eq!(p.get("delta"), Some(&LegionValue::Int(-5)));
        assert_eq!(p.version(), o.version());
    }

    #[test]
    fn restore_rejects_garbage() {
        let mut o = obj();
        assert!(!o.restore_state(b"\xff\xfe"));
        assert!(!o.restore_state(b""));
        assert!(!o.restore_state(b"not a version line\n"));
        assert!(!o.restore_state(b"v 1\nmissing-tab\n"));
        assert!(!o.restore_state(b"v 1\nk\tz bogus-tag\n"));
    }

    #[test]
    fn restore_replaces_state_atomically() {
        let mut o = obj();
        o.set("a", LegionValue::Uint(1));
        let saved = o.save_state();
        let mut p = obj();
        p.set("b", LegionValue::Uint(2));
        assert!(p.restore_state(&saved));
        assert!(p.get("b").is_none(), "old state must be replaced");
        assert_eq!(p.get("a"), Some(&LegionValue::Uint(1)));
    }

    #[test]
    fn version_bumps_on_mutation() {
        let mut o = obj();
        assert_eq!(o.version(), 0);
        o.set("x", LegionValue::Uint(1));
        o.set("x", LegionValue::Uint(2));
        assert_eq!(o.version(), 2);
    }

    #[test]
    fn object_state_display() {
        assert_eq!(ObjectState::Active.to_string(), "Active");
        assert_eq!(ObjectState::Inert.to_string(), "Inert");
    }
}
