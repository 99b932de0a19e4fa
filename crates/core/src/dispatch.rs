//! The unified typed invocation layer (paper §2, §3.4).
//!
//! "The complete set of method signatures for an object fully describes
//! that object's interface." This module makes that sentence operational:
//! an endpoint *registers* its methods — name, typed parameters, handler —
//! in a [`MethodTable`], and everything the paper derives from the
//! interface falls out of the registration:
//!
//! * **Typed argument codecs** ([`FromArg`]/[`FromArgs`]/[`IntoArgs`])
//!   decode the wire's `LegionValue` argument lists into real Rust types
//!   and back, checking arity and per-position conformance against the
//!   method's declared signature. Handlers receive `(Loid, Option<Loid>)`,
//!   not slices.
//! * **Uniform errors**: an unknown method or a signature mismatch is
//!   answered with a canonical [`CoreError`] rendering
//!   ([`CoreError::UnknownMethod`] / [`CoreError::SignatureMismatch`]),
//!   identical across every endpoint.
//! * **`GetInterface()` for free**: the table derives the endpoint's
//!   run-time [`Interface`] from the registered signatures, so the reply
//!   to `GetInterface()` *is* the dispatch table — the two can never
//!   drift apart.
//! * **The continuation store** ([`Continuations`]) is the model half of
//!   outbound calls: a call-id maps to a boxed continuation that receives
//!   the decoded reply — and, in the same map entry, the deadline the
//!   endpoint stops waiting at and the trace context of the call that
//!   registered it. No endpoint holds one: `legion_net::dispatch::Calls`
//!   owns the store and is the only code that sends, parks, resumes and
//!   sweeps.
//! * **One security gate** ([`InvocationGate`]): the MayI check (§2.4)
//!   runs once, at the dispatch boundary, for every gated method of every
//!   endpoint, instead of being hand-wired into some endpoints and
//!   forgotten in others.
//!
//! ### Layering
//!
//! `legion-core` sits *below* the transport (`legion-net` depends on this
//! crate), so nothing here names `Message` or the simulation context. The
//! table is generic over the handler payload `H` and the continuation
//! store over the key `K` and continuation `C`; `legion_net::dispatch`
//! instantiates both with transport-aware closure types and drives the
//! actual message loop. The split keeps the model layer pure: signatures,
//! codecs, verdicts and errors here; I/O there.

use crate::address::ObjectAddress;
use crate::binding::Binding;
use crate::env::InvocationEnv;
use crate::error::CoreError;
use crate::interface::{Interface, MethodSignature, ParamType};
use crate::loid::Loid;
use crate::symbol::Sym;
use crate::time::SimTime;
use crate::trace::TraceContext;
use crate::value::LegionValue;
use std::collections::BTreeMap;
use std::fmt;

// ---------------------------------------------------------------------------
// Argument codec
// ---------------------------------------------------------------------------

/// Why an argument list failed to decode against a signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgsError {
    /// Wrong number of arguments.
    Arity {
        /// Arguments supplied on the wire.
        got: usize,
        /// Minimum accepted (required parameters).
        min: usize,
        /// Maximum accepted (all parameters, optionals included).
        max: usize,
    },
    /// An argument did not conform to its declared parameter type.
    Type {
        /// Zero-based argument position.
        index: usize,
        /// The wire value's actual type.
        got: ParamType,
        /// The declared parameter type.
        want: ParamType,
    },
}

impl fmt::Display for ArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgsError::Arity { got, min, max } if min == max => {
                write!(f, "got {got} arguments, want {min}")
            }
            ArgsError::Arity { got, min, max } => {
                write!(f, "got {got} arguments, want {min}..={max}")
            }
            ArgsError::Type { index, got, want } => {
                write!(f, "argument {index} is {got}, want {want}")
            }
        }
    }
}

/// A single wire value decodable into one Rust type.
///
/// The `PARAM` constant ties the Rust type to its IDL [`ParamType`], so a
/// registered handler's parameter list *is* its published signature.
pub trait FromArg: Sized {
    /// The IDL parameter type this Rust type decodes from.
    const PARAM: ParamType;
    /// Decode, honouring the same conformance rules as
    /// [`LegionValue::conforms_to`] (a non-negative `Int` conforms to
    /// `Uint`).
    fn from_value(v: &LegionValue) -> Option<Self>;
}

impl FromArg for () {
    const PARAM: ParamType = ParamType::Void;
    fn from_value(v: &LegionValue) -> Option<Self> {
        matches!(v, LegionValue::Void).then_some(())
    }
}

impl FromArg for bool {
    const PARAM: ParamType = ParamType::Bool;
    fn from_value(v: &LegionValue) -> Option<Self> {
        v.as_bool()
    }
}

impl FromArg for i64 {
    const PARAM: ParamType = ParamType::Int;
    fn from_value(v: &LegionValue) -> Option<Self> {
        match v {
            LegionValue::Int(i) => Some(*i),
            _ => None,
        }
    }
}

impl FromArg for u64 {
    const PARAM: ParamType = ParamType::Uint;
    fn from_value(v: &LegionValue) -> Option<Self> {
        v.as_uint()
    }
}

impl FromArg for f64 {
    const PARAM: ParamType = ParamType::Float;
    fn from_value(v: &LegionValue) -> Option<Self> {
        match v {
            LegionValue::Float(x) => Some(*x),
            _ => None,
        }
    }
}

impl FromArg for String {
    const PARAM: ParamType = ParamType::Str;
    fn from_value(v: &LegionValue) -> Option<Self> {
        v.as_str().map(str::to_owned)
    }
}

impl FromArg for Vec<u8> {
    const PARAM: ParamType = ParamType::Bytes;
    fn from_value(v: &LegionValue) -> Option<Self> {
        match v {
            LegionValue::Bytes(b) => Some(b.clone()),
            _ => None,
        }
    }
}

impl FromArg for Loid {
    const PARAM: ParamType = ParamType::Loid;
    fn from_value(v: &LegionValue) -> Option<Self> {
        v.as_loid()
    }
}

impl FromArg for ObjectAddress {
    const PARAM: ParamType = ParamType::Address;
    fn from_value(v: &LegionValue) -> Option<Self> {
        match v {
            LegionValue::Address(a) => Some(a.clone()),
            _ => None,
        }
    }
}

impl FromArg for Binding {
    const PARAM: ParamType = ParamType::Binding;
    fn from_value(v: &LegionValue) -> Option<Self> {
        v.as_binding().cloned()
    }
}

impl FromArg for Vec<LegionValue> {
    const PARAM: ParamType = ParamType::List;
    fn from_value(v: &LegionValue) -> Option<Self> {
        v.as_list().map(<[LegionValue]>::to_vec)
    }
}

impl FromArg for LegionValue {
    const PARAM: ParamType = ParamType::Any;
    fn from_value(v: &LegionValue) -> Option<Self> {
        Some(v.clone())
    }
}

/// Decode the required argument at `index`.
pub fn decode_at<T: FromArg>(args: &[LegionValue], index: usize) -> Result<T, ArgsError> {
    let v = args.get(index).ok_or(ArgsError::Arity {
        got: args.len(),
        min: index + 1,
        max: index + 1,
    })?;
    T::from_value(v).ok_or(ArgsError::Type {
        index,
        got: v.param_type(),
        want: T::PARAM,
    })
}

/// Decode the optional (trailing) argument at `index`, if present.
pub fn decode_opt<T: FromArg>(args: &[LegionValue], index: usize) -> Result<Option<T>, ArgsError> {
    match args.get(index) {
        None => Ok(None),
        Some(v) => T::from_value(v).map(Some).ok_or(ArgsError::Type {
            index,
            got: v.param_type(),
            want: T::PARAM,
        }),
    }
}

/// Check the argument count against an inclusive `[min, max]` arity range.
pub fn expect_arity(args: &[LegionValue], min: usize, max: usize) -> Result<(), ArgsError> {
    if args.len() < min || args.len() > max {
        return Err(ArgsError::Arity {
            got: args.len(),
            min,
            max,
        });
    }
    Ok(())
}

/// A full argument list decodable into one Rust value (usually a tuple).
///
/// Implemented for tuples of [`FromArg`] types up to arity 4; protocol
/// structs with optional or overloaded parameters implement it by hand
/// (composing [`decode_at`]/[`decode_opt`]) — such hand impls are part of
/// the codec and keep the published signature in `params()` honest.
pub trait FromArgs: Sized {
    /// The canonical (full-form) parameter types, in order.
    fn params() -> Vec<ParamType>;
    /// Minimum required arity; parameters past this index are optional.
    fn min_args() -> usize {
        Self::params().len()
    }
    /// Decode and type-check the wire argument list.
    fn from_args(args: &[LegionValue]) -> Result<Self, ArgsError>;
}

impl FromArgs for () {
    fn params() -> Vec<ParamType> {
        Vec::new()
    }
    fn from_args(args: &[LegionValue]) -> Result<Self, ArgsError> {
        expect_arity(args, 0, 0)
    }
}

macro_rules! tuple_from_args {
    ($n:expr; $($t:ident $i:tt),+) => {
        impl<$($t: FromArg),+> FromArgs for ($($t,)+) {
            fn params() -> Vec<ParamType> {
                vec![$($t::PARAM),+]
            }
            fn from_args(args: &[LegionValue]) -> Result<Self, ArgsError> {
                expect_arity(args, $n, $n)?;
                Ok(($(decode_at::<$t>(args, $i)?,)+))
            }
        }
    };
}

tuple_from_args!(1; A 0);
tuple_from_args!(2; A 0, B 1);
tuple_from_args!(3; A 0, B 1, C 2);
tuple_from_args!(4; A 0, B 1, C 2, D 3);

/// A Rust value encodable as a wire argument list — the inverse of
/// [`FromArgs`]. `x.into_args()` then `FromArgs::from_args` round-trips.
pub trait IntoArgs {
    /// Encode as an ordered `LegionValue` argument list.
    fn into_args(self) -> Vec<LegionValue>;
}

impl IntoArgs for () {
    fn into_args(self) -> Vec<LegionValue> {
        Vec::new()
    }
}

impl IntoArgs for Vec<LegionValue> {
    fn into_args(self) -> Vec<LegionValue> {
        self
    }
}

macro_rules! tuple_into_args {
    ($($t:ident $i:tt),+) => {
        impl<$($t: Into<LegionValue>),+> IntoArgs for ($($t,)+) {
            fn into_args(self) -> Vec<LegionValue> {
                vec![$(self.$i.into()),+]
            }
        }
    };
}

tuple_into_args!(A 0);
tuple_into_args!(A 0, B 1);
tuple_into_args!(A 0, B 1, C 2);
tuple_into_args!(A 0, B 1, C 2, D 3);

/// Build the [`MethodSignature`] a `FromArgs` implementation publishes.
/// Missing parameter names are filled as `arg0`, `arg1`, ….
pub fn signature_of<A: FromArgs>(
    name: &str,
    param_names: &[&str],
    returns: ParamType,
) -> MethodSignature {
    let params = A::params()
        .into_iter()
        .enumerate()
        .map(|(i, ty)| {
            let n = param_names.get(i).copied().map(str::to_owned);
            (n.unwrap_or_else(|| format!("arg{i}")), ty)
        })
        .collect::<Vec<_>>();
    MethodSignature::new(
        name,
        params.iter().map(|(n, t)| (n.as_str(), *t)).collect(),
        returns,
    )
}

/// The uniform wire error for a call whose arguments fail the codec.
pub fn mismatch(sig: &MethodSignature, err: ArgsError) -> CoreError {
    CoreError::SignatureMismatch {
        signature: sig.to_string(),
        detail: err.to_string(),
    }
}

// ---------------------------------------------------------------------------
// Security gate + verdicts
// ---------------------------------------------------------------------------

/// The MayI check at the dispatch boundary (§2.4). `legion-security`
/// adapts its `MayIPolicy` objects to this; the model layer only needs
/// allow-or-deny.
pub trait InvocationGate {
    /// `Ok(())` to admit the call, `Err(reason)` to refuse it.
    fn check(&self, env: &InvocationEnv, method: &str) -> Result<(), String>;
}

/// What the dispatch boundary decided about one incoming call — the
/// `verdict` half of the `(method, verdict)` span annotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Gate passed (or method ungated); the handler ran.
    Allowed,
    /// The MayI gate refused the call.
    Denied,
    /// No such method in the registered table.
    Unknown,
    /// Arguments failed the signature check.
    BadArgs,
    /// The message named no method at all (dead-lettered).
    DeadLetter,
}

impl Verdict {
    /// Stable lower-case label used in span annotations and counters.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Allowed => "allowed",
            Verdict::Denied => "denied",
            Verdict::Unknown => "unknown",
            Verdict::BadArgs => "badargs",
            Verdict::DeadLetter => "dead_letter",
        }
    }
}

// ---------------------------------------------------------------------------
// Method table
// ---------------------------------------------------------------------------

/// One registered method: its published signature, gating flag, and the
/// transport-level handler payload.
#[derive(Debug)]
pub struct MethodEntry<H> {
    sig: MethodSignature,
    gated: bool,
    handler: H,
}

impl<H> MethodEntry<H> {
    /// The published signature.
    pub fn signature(&self) -> &MethodSignature {
        &self.sig
    }
    /// Does the MayI gate apply to this method?
    pub fn gated(&self) -> bool {
        self.gated
    }
    /// The handler payload.
    pub fn handler(&self) -> &H {
        &self.handler
    }
}

/// A per-endpoint registry of methods: the endpoint's interface and its
/// dispatch table in one structure, so they cannot drift apart.
///
/// Generic over the handler payload `H` (the transport layer stores its
/// message-handling closures here; pure-model tests can use `()`).
///
/// Keyed by interned [`Sym`]: resolving a method carried by a message
/// (already a `Sym`) compares `u32`s instead of strings and never
/// allocates. Name-ordered views ([`MethodTable::names`],
/// [`MethodTable::interface`]) sort at render time.
#[derive(Debug, Default)]
pub struct MethodTable<H> {
    owner: Loid,
    entries: BTreeMap<Sym, MethodEntry<H>>,
}

impl<H> MethodTable<H> {
    /// An empty table owned (for interface provenance) by `owner`.
    pub fn new(owner: Loid) -> Self {
        MethodTable {
            owner,
            entries: BTreeMap::new(),
        }
    }

    /// The provenance LOID recorded on derived interface entries.
    pub fn owner(&self) -> Loid {
        self.owner
    }

    /// Register a method. Registering the same name twice replaces the
    /// earlier entry (redefinition, as in [`Interface::define`]).
    pub fn define(&mut self, sig: MethodSignature, gated: bool, handler: H) {
        self.entries.insert(
            Sym::intern(&sig.name),
            MethodEntry {
                sig,
                gated,
                handler,
            },
        );
    }

    /// Look up a method by symbol or name (a `&str` is interned).
    pub fn get(&self, method: impl Into<Sym>) -> Option<&MethodEntry<H>> {
        self.entries.get(&method.into())
    }

    /// Look up a method, yielding the uniform unknown-method error.
    pub fn resolve(&self, method: impl Into<Sym>) -> Result<&MethodEntry<H>, CoreError> {
        let method = method.into();
        self.entries
            .get(&method)
            .ok_or_else(|| CoreError::UnknownMethod {
                method: method.as_str().to_owned(),
            })
    }

    /// Number of registered methods.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Registered method names, in name order (the entries are stored in
    /// intern order, so this sorts).
    pub fn names(&self) -> impl Iterator<Item = &'static str> {
        let mut names: Vec<&'static str> = self.entries.keys().map(|s| s.as_str()).collect();
        names.sort_unstable();
        names.into_iter()
    }

    /// Derive the endpoint's run-time [`Interface`] from the registered
    /// signatures — the `GetInterface()` payload (§3.4). The interface is
    /// name-keyed, so intern order never leaks into it.
    pub fn interface(&self) -> Interface {
        let mut iface = Interface::new();
        for e in self.entries.values() {
            iface.define(e.sig.clone(), self.owner);
        }
        iface
    }
}

// ---------------------------------------------------------------------------
// Continuations
// ---------------------------------------------------------------------------

/// The call-id → continuation store behind `legion_net::dispatch::Calls`.
///
/// Generic over the key `K` (the transport's call-id type) and the stored
/// continuation `C` (a transport-level `FnOnce` closure). A `BTreeMap`
/// keeps any iteration deterministic.
///
/// A continuation registered with a deadline also records the trace
/// context of the call that registered it; the endpoint's deadline sweep
/// ([`Continuations::take_expired`]) collects every overdue continuation
/// so it can be resolved with a uniform timeout error instead of leaking
/// forever when the reply was lost.
///
/// The store also remembers the earliest time the endpoint has a sweep
/// timer pending for ([`Continuations::claim_timer`],
/// [`Continuations::timer_fired`]), which is what lets the transport keep
/// one armed timer per endpoint instead of one per call.
#[derive(Debug)]
pub struct Continuations<K: Ord, C> {
    /// Each continuation with its deadline and the trace context of the
    /// call that registered it, if it has a deadline.
    map: BTreeMap<K, (C, Option<(SimTime, TraceContext)>)>,
    /// The earliest time a sweep timer is pending for.
    armed: Option<SimTime>,
}

impl<K: Ord, C> Default for Continuations<K, C> {
    fn default() -> Self {
        Continuations {
            map: BTreeMap::new(),
            armed: None,
        }
    }
}

impl<K: Ord, C> Continuations<K, C> {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register the continuation for a call-id. With `due = None` the
    /// endpoint waits forever; with `Some((deadline, trace))` it stops
    /// waiting at `deadline`, and remembers the trace context of the
    /// registering call: a timeout is resolved under the request it
    /// belongs to, whichever timer's sweep finds it. Returns the displaced
    /// continuation if the id was (erroneously) reused.
    pub fn insert(&mut self, key: K, cont: C, due: Option<(SimTime, TraceContext)>) -> Option<C> {
        self.map.insert(key, (cont, due)).map(|(c, _)| c)
    }

    /// Take the continuation awaiting `key`, if any — the caller then
    /// invokes it with the decoded reply. (Two steps, so the endpoint can
    /// pass `&mut self` to the continuation without aliasing the store.)
    pub fn take(&mut self, key: &K) -> Option<C> {
        self.map.remove(key).map(|(c, _)| c)
    }

    /// Collect every continuation whose deadline has passed at `now`
    /// (`deadline <= now`), in key order, each with its registering trace
    /// context. The caller resolves each with a uniform timeout error —
    /// overdue calls produce a reply, they do not leak.
    pub fn take_expired(&mut self, now: SimTime) -> Vec<(K, C, TraceContext)> {
        let mut out = Vec::new();
        // `BTreeMap::extract_if` is newer than the workspace's declared
        // Rust version: split the due entries off by rebuilding the map,
        // and only when something is actually overdue.
        if self.next_deadline().is_some_and(|d| d <= now) {
            for (k, (c, deadline)) in std::mem::take(&mut self.map) {
                match deadline {
                    Some((d, trace)) if d <= now => out.push((k, c, trace)),
                    _ => {
                        self.map.insert(k, (c, deadline));
                    }
                }
            }
        }
        out
    }

    /// The earliest recorded deadline, if any continuation has one.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.map
            .values()
            .filter_map(|(_, d)| Some(d.as_ref()?.0))
            .min()
    }

    /// Does the endpoint need a new sweep timer at `at` — is none pending
    /// at or before it? If so, `at` is recorded as pending and the caller
    /// must arm one. Holding every deadline to this keeps the invariant
    /// *while any continuation has a deadline, a sweep timer is pending
    /// at or before the earliest one*.
    pub fn claim_timer(&mut self, at: SimTime) -> bool {
        let needed = self.armed.is_none_or(|pending| at < pending);
        if needed {
            self.armed = Some(at);
        }
        needed
    }

    /// A sweep timer fired at `now`: if it was the earliest one pending,
    /// none is remembered any more. (A timer superseded by an earlier one
    /// still fires later; it finds the earlier one's successor pending and
    /// changes nothing.)
    pub fn timer_fired(&mut self, now: SimTime) {
        if self.armed.is_some_and(|pending| pending <= now) {
            self.armed = None;
        }
    }

    /// Number of outstanding continuations.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Are there no outstanding continuations?
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_tuple_checks_arity_and_types() {
        let args = vec![
            LegionValue::from(Loid::instance(7, 1)),
            LegionValue::from(3u64),
        ];
        let (l, n) = <(Loid, u64)>::from_args(&args).unwrap();
        assert_eq!(l, Loid::instance(7, 1));
        assert_eq!(n, 3);

        match <(Loid, u64)>::from_args(&args[..1]) {
            Err(ArgsError::Arity {
                got: 1,
                min: 2,
                max: 2,
            }) => {}
            other => panic!("unexpected {other:?}"),
        }
        let bad = vec![LegionValue::from("x"), LegionValue::from(3u64)];
        match <(Loid, u64)>::from_args(&bad) {
            Err(ArgsError::Type {
                index: 0,
                got: ParamType::Str,
                want: ParamType::Loid,
            }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn int_conforms_to_uint_like_the_wire() {
        // Mirror LegionValue::conforms_to: non-negative Int decodes as Uint.
        assert_eq!(u64::from_value(&LegionValue::Int(4)), Some(4));
        assert_eq!(u64::from_value(&LegionValue::Int(-4)), None);
        assert_eq!(i64::from_value(&LegionValue::Uint(4)), None);
    }

    #[test]
    fn optional_tail_decodes() {
        let one = vec![LegionValue::from(Loid::instance(7, 1))];
        assert_eq!(decode_opt::<Loid>(&one, 1).unwrap(), None);
        let two = vec![
            LegionValue::from(Loid::instance(7, 1)),
            LegionValue::from(Loid::instance(3, 1)),
        ];
        assert_eq!(
            decode_opt::<Loid>(&two, 1).unwrap(),
            Some(Loid::instance(3, 1))
        );
        let bad = vec![
            LegionValue::from(Loid::instance(7, 1)),
            LegionValue::from("oops"),
        ];
        assert!(decode_opt::<Loid>(&bad, 1).is_err());
    }

    #[test]
    fn signature_of_names_params() {
        let sig = signature_of::<(Loid, u64)>("Activate", &["target"], ParamType::Binding);
        assert_eq!(sig.to_string(), "binding Activate(loid target, uint arg1)");
    }

    #[test]
    fn table_resolves_and_derives_interface() {
        let owner = Loid::class_object(9);
        let mut t: MethodTable<u32> = MethodTable::new(owner);
        t.define(
            signature_of::<(Loid,)>("Ping", &["target"], ParamType::Uint),
            true,
            1,
        );
        t.define(signature_of::<()>("Iam", &[], ParamType::Loid), false, 2);
        assert_eq!(t.len(), 2);
        assert!(t.resolve("Ping").unwrap().gated());
        assert!(!t.resolve("Iam").unwrap().gated());
        let err = t.resolve("Nope").unwrap_err();
        assert!(err.to_string().contains("no method Nope"), "{err}");

        let iface = t.interface();
        assert_eq!(iface.len(), 2);
        assert_eq!(iface.provider("Ping"), Some(owner));
        assert_eq!(iface.get("Iam").unwrap().returns, ParamType::Loid);
    }

    #[test]
    fn redefinition_replaces_entry() {
        let mut t: MethodTable<u32> = MethodTable::new(Loid::class_object(9));
        t.define(signature_of::<()>("F", &[], ParamType::Void), true, 1);
        t.define(signature_of::<()>("F", &[], ParamType::Uint), false, 2);
        assert_eq!(t.len(), 1);
        assert_eq!(*t.get("F").unwrap().handler(), 2);
        assert!(!t.get("F").unwrap().gated());
    }

    /// A deadline registered under no trace.
    fn untraced(deadline: u64) -> Option<(SimTime, TraceContext)> {
        Some((SimTime(deadline), TraceContext::NONE))
    }

    /// What a sweep at `now` takes, as `(key, continuation)` pairs.
    fn expired(c: &mut Continuations<u64, &'static str>, now: u64) -> Vec<(u64, &'static str)> {
        let due = c.take_expired(SimTime(now));
        due.into_iter().map(|(k, c, _)| (k, c)).collect()
    }

    #[test]
    fn continuations_take_and_expire() {
        let mut c: Continuations<u64, &'static str> = Continuations::new();
        assert!(c.is_empty());
        assert!(c.insert(1, "a", None).is_none());
        assert!(c.insert(2, "b", untraced(100)).is_none());
        assert_eq!(c.len(), 2);
        assert_eq!(c.next_deadline(), Some(SimTime(100)));
        assert_eq!(c.take(&1), Some("a"));
        assert_eq!(c.take(&1), None);
        // Before the deadline, the sweep finds nothing; a deadline equal
        // to the sweep's `now` has passed.
        assert!(expired(&mut c, 99).is_empty());
        assert_eq!(expired(&mut c, 100), vec![(2, "b")]);
        assert!(c.is_empty());
        assert_eq!(c.next_deadline(), None);
    }

    #[test]
    fn reply_beats_deadline_leaves_nothing_to_expire() {
        let mut c: Continuations<u64, &'static str> = Continuations::new();
        c.insert(7, "x", untraced(50));
        // The reply arrives first: taking the continuation clears its
        // deadline, so a later sweep must not double-resolve the call.
        assert_eq!(c.take(&7), Some("x"));
        assert!(expired(&mut c, 1_000).is_empty());
    }

    #[test]
    fn expired_sweep_is_ordered_and_partial() {
        let mut c: Continuations<u64, &'static str> = Continuations::new();
        c.insert(3, "c", untraced(30));
        c.insert(1, "a", untraced(10));
        c.insert(2, "b", untraced(99));
        assert_eq!(expired(&mut c, 40), vec![(1, "a"), (3, "c")]);
        assert_eq!(c.len(), 1);
        assert_eq!(c.next_deadline(), Some(SimTime(99)));
    }

    #[test]
    fn one_timer_is_claimed_per_earliest_deadline() {
        let mut c: Continuations<u64, &'static str> = Continuations::new();
        assert!(c.claim_timer(SimTime(100)), "none pending");
        assert!(!c.claim_timer(SimTime(100)), "one pending at that time");
        assert!(!c.claim_timer(SimTime(150)), "one pending before that time");
        assert!(c.claim_timer(SimTime(40)), "earlier than the pending one");
        // The superseded timer for 100 fires after the one for 40 did.
        c.timer_fired(SimTime(40));
        assert!(c.claim_timer(SimTime(120)), "the due timer was forgotten");
        c.timer_fired(SimTime(100));
        assert!(!c.claim_timer(SimTime(120)), "a stale fire changes nothing");
    }

    #[test]
    fn expiry_carries_the_registering_trace() {
        use crate::trace::{SpanId, TraceId};
        let tc = TraceContext::new(TraceId(3), SpanId(7));
        let mut c: Continuations<u64, &'static str> = Continuations::new();
        c.insert(1, "a", Some((SimTime(10), tc)));
        c.insert(2, "b", untraced(10));
        c.insert(3, "c", None);
        assert_eq!(
            c.take_expired(SimTime(10)),
            vec![(1, "a", tc), (2, "b", TraceContext::NONE)]
        );
        assert_eq!(c.len(), 1, "no deadline, never swept");
    }

    #[test]
    fn mismatch_renders_signature_and_detail() {
        let sig = signature_of::<(Loid,)>("Activate", &["target"], ParamType::Binding);
        let e = mismatch(
            &sig,
            ArgsError::Arity {
                got: 0,
                min: 1,
                max: 1,
            },
        );
        let s = e.to_string();
        assert!(s.contains("binding Activate(loid target)"), "{s}");
        assert!(s.contains("got 0 arguments, want 1"), "{s}");
    }

    #[test]
    fn verdict_labels_are_stable() {
        assert_eq!(Verdict::Allowed.label(), "allowed");
        assert_eq!(Verdict::Denied.label(), "denied");
        assert_eq!(Verdict::Unknown.label(), "unknown");
        assert_eq!(Verdict::BadArgs.label(), "badargs");
        assert_eq!(Verdict::DeadLetter.label(), "dead_letter");
    }

    #[test]
    fn into_args_round_trips_tuples() {
        let args = (Loid::instance(5, 5), 9u64, "hi".to_owned()).into_args();
        let (l, n, s) = <(Loid, u64, String)>::from_args(&args).unwrap();
        assert_eq!((l, n, s.as_str()), (Loid::instance(5, 5), 9, "hi"));
    }
}
