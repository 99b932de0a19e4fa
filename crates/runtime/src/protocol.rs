//! Runtime wire protocol: method names and the activation spec.
//!
//! Method names come straight from the paper where it names them
//! (Magistrate §3.8, Host Object §3.9, class objects §3.7); the handful of
//! internal notifications (`ReceiveOpr`, `SetAddress`, `Announce`) are the
//! glue the paper describes in prose (Fig. 11 shipping, logical-table
//! maintenance, §4.2.1 host announcement).

use legion_core::address::{ObjectAddress, ObjectAddressElement};
use legion_core::class::ClassKind;
use legion_core::dispatch::{decode_at, decode_opt, expect_arity, ArgsError, FromArgs};
use legion_core::interface::ParamType;
use legion_core::loid::Loid;
use legion_core::value::LegionValue;

/// Magistrate member functions (paper §3.8).
pub mod magistrate {
    use legion_core::symbol::{self, Sym};

    /// `binding Activate(LOID)` / `binding Activate(LOID, LOID host)`.
    pub const ACTIVATE: Sym = symbol::ACTIVATE;
    /// `Deactivate(LOID)`.
    pub const DEACTIVATE: Sym = symbol::DEACTIVATE;
    /// `Delete(LOID)`.
    pub const DELETE: Sym = symbol::DELETE;
    /// `Copy(LOID, LOID magistrate)`.
    pub const COPY: Sym = symbol::COPY;
    /// `Move(LOID, LOID magistrate)` — Copy then Delete.
    pub const MOVE: Sym = symbol::MOVE;
    /// Internal: create a brand-new object (class → magistrate).
    pub const CREATE_OBJECT: Sym = symbol::CREATE_OBJECT;
    /// Internal: receive a shipped OPR (magistrate → magistrate, Fig. 11).
    pub const RECEIVE_OPR: Sym = symbol::RECEIVE_OPR;
}

/// Host Object member functions (paper §3.9).
pub mod host {
    use legion_core::symbol::{self, Sym};

    /// Start an object process on this host.
    pub const ACTIVATE: Sym = symbol::HOST_ACTIVATE;
    /// Kill an object process on this host.
    pub const DEACTIVATE: Sym = symbol::HOST_DEACTIVATE;
    /// Restrict CPU available to Legion objects.
    pub const SET_CPU_LOAD: Sym = symbol::SET_CPU_LOAD;
    /// Restrict memory available to Legion objects.
    pub const SET_MEMORY_USAGE: Sym = symbol::SET_MEMORY_USAGE;
    /// Report host state (running objects, capacity, load).
    pub const GET_STATE: Sym = symbol::GET_STATE;
}

/// Class-object maintenance notifications (logical table, §3.7).
pub mod class {
    use legion_core::symbol::{self, Sym};

    /// `Create()` — class-mandatory (§3.7); returns the new binding.
    pub const CREATE: Sym = symbol::CREATE;
    /// `Derive(name)` — returns the new class binding.
    pub const DERIVE: Sym = symbol::DERIVE;
    /// `InheritFrom(base)`.
    pub const INHERIT_FROM: Sym = symbol::INHERIT_FROM;
    /// `Delete(target)`.
    pub const DELETE: Sym = symbol::DELETE;
    /// Internal: set/clear the Object Address column for a row.
    pub const SET_ADDRESS: Sym = symbol::SET_ADDRESS;
    /// Internal: add a magistrate to a row's Current Magistrate List.
    pub const ADD_MAGISTRATE: Sym = symbol::ADD_MAGISTRATE;
    /// Internal: remove a magistrate from a row's list.
    pub const REMOVE_MAGISTRATE: Sym = symbol::REMOVE_MAGISTRATE;
    /// §4.2.1: externally started objects (Host Objects, Magistrates)
    /// "contact the existing class object ... to tell it of their
    /// existence".
    pub const ANNOUNCE: Sym = symbol::ANNOUNCE;
    /// The interface *instances* of this class support (run-time class
    /// data, §2.1) — distinct from `GetInterface()`, which describes the
    /// class object's own member functions.
    pub const GET_INSTANCE_INTERFACE: Sym = symbol::GET_INSTANCE_INTERFACE;
    /// Internal: what `InheritFrom` needs from its base — a list of the
    /// base's instance interface as IDL text, then every class the base
    /// inherits from, so the inheritor can refuse a cycle (§2.1.1).
    pub const GET_BASE_INTERFACE: Sym = symbol::GET_BASE_INTERFACE;
}

/// Object-level methods beyond the object-mandatory set: a generic
/// key/value state interface used by examples and workloads.
pub mod object {
    use legion_core::symbol::{self, Sym};

    /// `Set(key, value)`.
    pub const SET: Sym = symbol::SET;
    /// `value Get(key)`.
    pub const GET: Sym = symbol::GET;
}

/// Everything a Host Object needs to start an object process
/// (paper §4.2: "the actual creation of the object is carried out by the
/// Magistrate and Host Object, which are given enough information ... to
/// allow them to create the new object").
#[derive(Debug, Clone, PartialEq)]
pub struct ActivationSpec {
    /// The object's LOID.
    pub loid: Loid,
    /// Its class's LOID.
    pub class: Loid,
    /// `RestoreState` payload (empty for a fresh object).
    pub state: Vec<u8>,
    /// Address of the class endpoint (for table notifications).
    pub class_addr: Option<ObjectAddressElement>,
    /// Address of the managing magistrate.
    pub magistrate_addr: Option<ObjectAddressElement>,
}

impl ActivationSpec {
    /// Encode as a [`LegionValue`] argument list (for
    /// [`Ctx::args`](legion_net::sim::Ctx::args), or `.into()` a `Vec`),
    /// giving up the state buffer rather than copying it.
    pub fn into_args(self) -> [LegionValue; 5] {
        let addr = |o: Option<ObjectAddressElement>| match o {
            Some(e) => LegionValue::Address(ObjectAddress::single(e)),
            None => LegionValue::Void,
        };
        [
            LegionValue::Loid(self.loid),
            LegionValue::Loid(self.class),
            LegionValue::Bytes(self.state),
            addr(self.class_addr),
            addr(self.magistrate_addr),
        ]
    }
}

/// Hand-written codec impl: the two trailing address parameters are
/// *nullable* on the wire (`Void` stands for "none"), which the tuple
/// codecs cannot express. The published signature stays the canonical
/// five-parameter form.
impl FromArgs for ActivationSpec {
    fn params() -> Vec<ParamType> {
        vec![
            ParamType::Loid,
            ParamType::Loid,
            ParamType::Bytes,
            ParamType::Address,
            ParamType::Address,
        ]
    }

    fn decode(args: &mut [LegionValue]) -> Result<Self, ArgsError> {
        expect_arity(args, 5, 5)?;
        Ok(ActivationSpec {
            loid: decode_at(args, 0)?,
            class: decode_at(args, 1)?,
            state: decode_at(args, 2)?,
            class_addr: nullable_element(args, 3)?,
            magistrate_addr: nullable_element(args, 4)?,
        })
    }
}

/// The nullable address argument at `index` (`Void` stands for "none"),
/// as its primary element.
fn nullable_element(
    args: &[LegionValue],
    index: usize,
) -> Result<Option<ObjectAddressElement>, ArgsError> {
    match &args[index] {
        LegionValue::Void => Ok(None),
        LegionValue::Address(a) => Ok(a.primary().copied()),
        v => Err(ArgsError::Type {
            index,
            got: v.param_type(),
            want: ParamType::Address,
        }),
    }
}

/// `Activate(loid[, host])` — the optional second argument is a
/// scheduling hint naming a preferred Host Object (§3.8).
#[derive(Debug, Clone, PartialEq)]
pub struct ActivateArgs {
    /// Object to activate.
    pub loid: Loid,
    /// Optional preferred host.
    pub host: Option<Loid>,
}

impl FromArgs for ActivateArgs {
    fn params() -> Vec<ParamType> {
        vec![ParamType::Loid, ParamType::Loid]
    }

    fn min_args() -> usize {
        1
    }

    fn decode(args: &mut [LegionValue]) -> Result<Self, ArgsError> {
        expect_arity(args, 1, 2)?;
        Ok(ActivateArgs {
            loid: decode_at(args, 0)?,
            host: decode_opt(args, 1)?,
        })
    }
}

/// `ReceiveOpr(loid, class, opr, class_addr)` — Fig. 11 OPR shipping
/// between magistrates. The class address is nullable on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct ReceiveOprArgs {
    /// Object whose OPR is being shipped.
    pub loid: Loid,
    /// Its class's LOID.
    pub class: Loid,
    /// The serialized Object Persistent Representation.
    pub opr: Vec<u8>,
    /// Address of the class endpoint, for table notifications.
    pub class_addr: Option<ObjectAddressElement>,
}

impl FromArgs for ReceiveOprArgs {
    fn params() -> Vec<ParamType> {
        vec![
            ParamType::Loid,
            ParamType::Loid,
            ParamType::Bytes,
            ParamType::Address,
        ]
    }

    fn decode(args: &mut [LegionValue]) -> Result<Self, ArgsError> {
        expect_arity(args, 4, 4)?;
        let class_addr = nullable_element(args, 3)?;
        Ok(ReceiveOprArgs {
            loid: decode_at(args, 0)?,
            class: decode_at(args, 1)?,
            opr: decode_at(args, 2)?,
            class_addr,
        })
    }
}

/// `Create([state])` — class-mandatory creation with optional initial
/// `RestoreState` payload.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateArgs {
    /// Initial object state (empty for a fresh object).
    pub state: Vec<u8>,
}

impl FromArgs for CreateArgs {
    fn params() -> Vec<ParamType> {
        vec![ParamType::Bytes]
    }

    fn min_args() -> usize {
        0
    }

    fn decode(args: &mut [LegionValue]) -> Result<Self, ArgsError> {
        expect_arity(args, 0, 1)?;
        Ok(CreateArgs {
            state: decode_opt::<Vec<u8>>(args, 0)?.unwrap_or_default(),
        })
    }
}

/// `Derive(name[, flags])` — flags is a comma/space-separated list that
/// may contain `abstract`, `private`, and/or `fixed` (§3.7 class kinds).
#[derive(Debug, Clone, PartialEq)]
pub struct DeriveArgs {
    /// Name for the new subclass.
    pub name: String,
    /// The class kind derived from the flags string.
    pub kind: ClassKind,
}

impl FromArgs for DeriveArgs {
    fn params() -> Vec<ParamType> {
        vec![ParamType::Str, ParamType::Str]
    }

    fn min_args() -> usize {
        1
    }

    fn decode(args: &mut [LegionValue]) -> Result<Self, ArgsError> {
        expect_arity(args, 1, 2)?;
        let name: String = decode_at(args, 0)?;
        let flags = decode_opt::<String>(args, 1)?.unwrap_or_default();
        let kind = ClassKind {
            is_abstract: flags.contains("abstract"),
            is_private: flags.contains("private"),
            is_fixed: flags.contains("fixed"),
        };
        Ok(DeriveArgs { name, kind })
    }
}

/// `SetAddress(loid, address|void)` — logical-table maintenance; `Void`
/// clears the Object Address column for the row.
#[derive(Debug, Clone, PartialEq)]
pub struct SetAddressArgs {
    /// The row's LOID.
    pub loid: Loid,
    /// The new address, or `None` to clear the column.
    pub address: Option<ObjectAddress>,
}

impl FromArgs for SetAddressArgs {
    fn params() -> Vec<ParamType> {
        vec![ParamType::Loid, ParamType::Address]
    }

    fn decode(args: &mut [LegionValue]) -> Result<Self, ArgsError> {
        expect_arity(args, 2, 2)?;
        let address = match &args[1] {
            LegionValue::Void => None,
            LegionValue::Address(a) => Some(a.clone()),
            v => {
                return Err(ArgsError::Type {
                    index: 1,
                    got: v.param_type(),
                    want: ParamType::Address,
                })
            }
        };
        Ok(SetAddressArgs {
            loid: decode_at(args, 0)?,
            address,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_roundtrip_full() {
        let spec = ActivationSpec {
            loid: Loid::instance(16, 3),
            class: Loid::class_object(16),
            state: vec![1, 2, 3],
            class_addr: Some(ObjectAddressElement::sim(9)),
            magistrate_addr: Some(ObjectAddressElement::sim(10)),
        };
        let back = ActivationSpec::from_args(&mut spec.clone().into_args()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn spec_roundtrip_minimal() {
        let spec = ActivationSpec {
            loid: Loid::instance(16, 3),
            class: Loid::class_object(16),
            state: vec![],
            class_addr: None,
            magistrate_addr: None,
        };
        let back = ActivationSpec::from_args(&mut spec.clone().into_args()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn malformed_args_rejected() {
        assert!(ActivationSpec::from_args(&mut []).is_err());
        assert!(ActivationSpec::from_args(&mut [LegionValue::Uint(1)]).is_err());
        let spec = ActivationSpec {
            loid: Loid::instance(16, 3),
            class: Loid::class_object(16),
            state: vec![],
            class_addr: None,
            magistrate_addr: None,
        };
        let mut args = spec.clone().into_args();
        assert!(ActivationSpec::from_args(&mut args[..4]).is_err());
        // Wrong type in a nullable slot is a type error, not "none".
        let mut args = spec.into_args();
        args[4] = LegionValue::Uint(7);
        assert!(ActivationSpec::from_args(&mut args).is_err());
    }

    #[test]
    fn activate_args_optional_hint() {
        let l = Loid::instance(16, 3);
        let h = Loid::instance(1, 2);
        let got = ActivateArgs::from_args(&mut [LegionValue::Loid(l)]).unwrap();
        assert_eq!(
            got,
            ActivateArgs {
                loid: l,
                host: None
            }
        );
        let got =
            ActivateArgs::from_args(&mut [LegionValue::Loid(l), LegionValue::Loid(h)]).unwrap();
        assert_eq!(got.host, Some(h));
        assert!(ActivateArgs::from_args(&mut []).is_err());
        assert!(ActivateArgs::from_args(&mut [LegionValue::Uint(1)]).is_err());
    }

    #[test]
    fn receive_opr_args_nullable_class_addr() {
        let l = Loid::instance(16, 3);
        let c = Loid::class_object(16);
        let base = vec![
            LegionValue::Loid(l),
            LegionValue::Loid(c),
            LegionValue::Bytes(vec![9]),
        ];
        let mut with_void = base.clone();
        with_void.push(LegionValue::Void);
        let got = ReceiveOprArgs::from_args(&mut with_void).unwrap();
        assert_eq!(got.class_addr, None);
        let mut with_addr = base.clone();
        with_addr.push(LegionValue::Address(ObjectAddress::single(
            ObjectAddressElement::sim(4),
        )));
        let got = ReceiveOprArgs::from_args(&mut with_addr).unwrap();
        assert_eq!(got.class_addr, Some(ObjectAddressElement::sim(4)));
        let mut bad = base;
        bad.push(LegionValue::Uint(1));
        assert!(ReceiveOprArgs::from_args(&mut bad).is_err());
    }

    /// The three requests that carry an OPR or a state give their
    /// decoded struct the call's own buffer.
    #[test]
    fn bytes_move_out_of_the_call() {
        fn taken<A: FromArgs>(mut args: Vec<LegionValue>, at: usize, bytes: fn(&A) -> &[u8]) {
            let LegionValue::Bytes(b) = &args[at] else {
                panic!("bytes at {at}");
            };
            let ptr = b.as_ptr();
            let decoded = A::from_args(&mut args).unwrap();
            assert_eq!(bytes(&decoded).as_ptr(), ptr, "moved, not copied");
            assert_eq!(args[at], LegionValue::Bytes(Vec::new()));
        }
        let (l, c) = (Loid::instance(16, 3), Loid::class_object(16));
        let spec = ActivationSpec {
            loid: l,
            class: c,
            state: vec![1, 2, 3],
            class_addr: None,
            magistrate_addr: None,
        };
        taken::<ActivationSpec>(spec.into_args().into(), 2, |s| &s.state);
        let opr = vec![
            l.into(),
            c.into(),
            LegionValue::Bytes(vec![9]),
            LegionValue::Void,
        ];
        taken::<ReceiveOprArgs>(opr, 2, |r| &r.opr);
        taken::<CreateArgs>(vec![LegionValue::Bytes(vec![7])], 0, |c| &c.state);
    }

    #[test]
    fn create_and_derive_args() {
        assert_eq!(
            CreateArgs::from_args(&mut []).unwrap().state,
            Vec::<u8>::new()
        );
        assert_eq!(
            CreateArgs::from_args(&mut [LegionValue::Bytes(vec![1])])
                .unwrap()
                .state,
            vec![1]
        );
        assert!(CreateArgs::from_args(&mut [LegionValue::Uint(1)]).is_err());

        let d = DeriveArgs::from_args(&mut [LegionValue::from("Sub")]).unwrap();
        assert_eq!(d.name, "Sub");
        assert_eq!(d.kind, ClassKind::NORMAL);
        let d = DeriveArgs::from_args(&mut [
            LegionValue::from("Sub"),
            LegionValue::from("abstract,fixed"),
        ])
        .unwrap();
        assert!(d.kind.is_abstract && d.kind.is_fixed && !d.kind.is_private);
    }

    #[test]
    fn set_address_args_void_clears() {
        let l = Loid::instance(16, 3);
        let got =
            SetAddressArgs::from_args(&mut [LegionValue::Loid(l), LegionValue::Void]).unwrap();
        assert_eq!(got.address, None);
        let addr = ObjectAddress::single(ObjectAddressElement::sim(4));
        let got = SetAddressArgs::from_args(&mut [
            LegionValue::Loid(l),
            LegionValue::Address(addr.clone()),
        ])
        .unwrap();
        assert_eq!(got.address, Some(addr));
        assert!(
            SetAddressArgs::from_args(&mut [LegionValue::Loid(l), LegionValue::Uint(1)]).is_err()
        );
    }
}
