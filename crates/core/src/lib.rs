//! # legion-core — the Core Legion Object Model
//!
//! This crate implements the *model* layer of the Legion reproduction: the
//! data structures and rules of Lewis & Grimshaw's *Core Legion Object
//! Model* (HPDC 1996). Everything in Legion is an object; classes are
//! objects too, and the relationships between them (**is-a**, **kind-of**,
//! **inherits-from**) are first-class, run-time entities.
//!
//! The crate is deliberately free of any transport or runtime machinery so
//! that the model can be tested and benchmarked in isolation. The sibling
//! crates layer networking (`legion-net`), persistence (`legion-persist`),
//! naming (`legion-naming`) and the live runtime (`legion-runtime`) on top.
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
//! | §3.7 class objects & the logical table | [`class`] |
//! | §2.1.1 relations | [`relations`] |
//! | §2.1 multiple inheritance | [`inherit`] |
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
pub mod inherit;
pub mod interface;
pub mod loid;
pub mod metaclass;
pub mod model;
pub mod object;
pub mod relations;
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
pub use model::ObjectModel;
pub use object::{ObjectMandatory, ObjectState};
pub use relations::RelationGraph;
pub use symbol::Sym;
pub use time::{Expiry, SimTime};
pub use trace::{SpanId, TraceContext, TraceId};
pub use value::LegionValue;
