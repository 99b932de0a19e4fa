//! # legion-core — the Core Legion Object Model
//!
//! This crate holds the data types and per-object rules of Lewis &
//! Grimshaw's *Core Legion Object Model* (HPDC 1996). Everything in Legion
//! is an object; classes are objects too, and the relationships between
//! them (**is-a**, **kind-of**, **inherits-from**) are made at run time by
//! calls on live class objects.
//!
//! The crate is free of any transport or runtime machinery. There is one
//! object model, and it runs: `legion-runtime` serves `Create`, `Derive`,
//! `InheritFrom` and `Delete` from class endpoints that each own a
//! [`ClassObject`], over `legion-net`, with naming (`legion-naming`) and
//! persistence (`legion-persist`) beside it.
//!
//! ## Map from the paper
//!
//! | Paper section | Module |
//! |---|---|
//! | §3.2 Legion Object Identifiers | [`loid`] |
//! | §2.1.3 core Abstract classes | [`wellknown`] |
//! | §2 interfaces & IDL | [`interface`], [`idl`] |
//! | §3.4 Object Addresses | [`address`] |
//! | §2.1 object-mandatory functions | [`object`] |
//! | §2.1.1–2.1.2, §3.7 class objects, inheritance & the logical table | [`class`] |
//! | §4.1.3 LegionClass & responsibility pairs | [`metaclass`] |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod address;
pub mod allocs;
pub mod binding;
pub mod class;
pub mod context;
pub mod dispatch;
pub mod env;
pub mod error;
pub mod fxmap;
pub mod idl;
pub mod interface;
pub mod loid;
pub mod metaclass;
pub mod object;
pub mod symbol;
pub mod time;
pub mod trace;
pub mod value;
pub mod wellknown;

pub use address::{AddressKind, AddressSemantics, ObjectAddress, ObjectAddressElement};
pub use binding::Binding;
pub use class::{ClassKind, ClassObject, LogicalTable, TableEntry};
pub use context::{Context, ContextEntry};
pub use env::InvocationEnv;
pub use error::{CoreError, CoreResult};
pub use interface::{Interface, MethodSignature, ParamType};
pub use loid::{ClassId, Loid, LoidAllocator};
pub use metaclass::LegionClassAuthority;
pub use object::ObjectState;
pub use symbol::Sym;
pub use time::{Expiry, SimTime};
pub use trace::{SpanId, TraceContext, TraceId};
pub use value::LegionValue;
