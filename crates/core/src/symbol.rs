//! Symbol interning for the message hot path.
//!
//! Every message in the system names a method ("Ping", "GetBinding", …),
//! and the kernel keys its dispatch tables and per-kind metrics maps by
//! that name. Carrying the name as a heap `String` made every call
//! construction — and every per-kind metrics record — allocate. A
//! [`Sym`] is a `u32` handle into a process-wide, insertion-ordered
//! interner: constructing, copying, comparing and hashing one is free,
//! and the string itself is materialized only at snapshot/export time.
//!
//! ## Determinism contract
//!
//! Interned ids are assigned in **first-intern order**, so two processes
//! (or two runs) that intern the same sequence of new strings assign the
//! same ids. The well-known names below are seeded into the interner at
//! fixed indices before anything else, so their ids are stable across
//! processes regardless of what a run interns afterwards — those ids may
//! be compared, stored, and baked into match tables. Ids of *other*
//! strings depend on a run's intern order and must never be persisted;
//! everything serialized renders a `Sym` back to its string (a `Sym`
//! serializes as a JSON string, never as its id).
//!
//! ## Adding a new well-known symbol
//!
//! Append it to the `well_known!` list below — **never insert in the
//! middle**, existing indices are load-bearing for pre-seeded-id
//! stability — and use the generated constant. The
//! `pre_seeded_symbols_are_stable` tests (unit + proptest) pin the full
//! list.
//!
//! Interned strings are leaked (the interner is append-only and
//! process-wide); the set of distinct method and counter names in a run
//! is small and bounded by the codebase, not by traffic — which is also
//! why the name index hashes with [`crate::fxmap`] rather than SipHash:
//! the keys are the program's own vocabulary.

use crate::fxmap::FxHashMap;
use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;
use std::sync::{OnceLock, RwLock};

/// An interned string handle. `Copy`, 4 bytes, allocation-free to
/// construct from an already-interned name, and ordered by intern order
/// (**not** lexicographically — sort by [`Sym::as_str`] when name order
/// matters).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(u32);

/// A deterministic, insertion-ordered string interner.
///
/// The process-wide instance behind [`Sym`] is pre-seeded with the
/// well-known names; standalone instances (tests, tools) start empty.
/// Ids are dense, starting at 0, in first-intern order.
#[derive(Debug, Default)]
pub struct Interner {
    names: Vec<&'static str>,
    ids: FxHashMap<&'static str, u32>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Intern `s`, returning its id (existing or freshly assigned).
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let id = u32::try_from(self.names.len()).expect("interner overflow");
        self.names.push(leaked);
        self.ids.insert(leaked, id);
        id
    }

    /// The id of `s` if it is already interned (never interns).
    pub fn lookup(&self, s: &str) -> Option<u32> {
        self.ids.get(s).copied()
    }

    /// The string for `id`, if assigned.
    pub fn resolve(&self, id: u32) -> Option<&'static str> {
        self.names.get(id as usize).copied()
    }

    /// Number of interned strings.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Is the interner empty?
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// Defines the pre-seeded well-known symbols: `$name` becomes a
/// `pub const $name: Sym` with the fixed index `$idx`.
macro_rules! well_known {
    ($($idx:expr => $name:ident = $text:literal;)+) => {
        $(
            #[doc = concat!("Pre-seeded symbol `", $text, "` (id ", stringify!($idx), ").")]
            pub const $name: Sym = Sym($idx);
        )+

        /// Every pre-seeded `(Sym, name)` pair, in id order.
        pub const WELL_KNOWN: &[(Sym, &str)] = &[$((Sym($idx), $text)),+];
    };
}

well_known! {
    // Kernel kinds and counters.
    0 => REPLY = "reply";
    1 => EMPTY = "";
    // Object-mandatory methods (§2.1).
    2 => MAY_I = "MayI";
    3 => IAM = "Iam";
    4 => SAVE_STATE = "SaveState";
    5 => RESTORE_STATE = "RestoreState";
    6 => PING = "Ping";
    7 => GET_INTERFACE = "GetInterface";
    // Naming protocol.
    8 => GET_BINDING = "GetBinding";
    9 => INVALIDATE_BINDING = "InvalidateBinding";
    10 => ADD_BINDING = "AddBinding";
    11 => ISSUE_CLASS_ID = "IssueClassId";
    12 => FIND_RESPONSIBLE = "FindResponsible";
    // HA protocol.
    13 => HEARTBEAT = "Heartbeat";
    // Runtime protocol: magistrate ("Delete" is shared with class).
    14 => ACTIVATE = "Activate";
    15 => DEACTIVATE = "Deactivate";
    16 => DELETE = "Delete";
    17 => COPY = "Copy";
    18 => MOVE = "Move";
    19 => CREATE_OBJECT = "CreateObject";
    20 => RECEIVE_OPR = "ReceiveOpr";
    // Runtime protocol: host objects.
    21 => HOST_ACTIVATE = "HostActivate";
    22 => HOST_DEACTIVATE = "HostDeactivate";
    23 => SET_CPU_LOAD = "SetCPULoad";
    24 => SET_MEMORY_USAGE = "SetMemoryUsage";
    25 => GET_STATE = "GetState";
    // Runtime protocol: class objects.
    26 => CREATE = "Create";
    27 => DERIVE = "Derive";
    28 => INHERIT_FROM = "InheritFrom";
    29 => SET_ADDRESS = "SetAddress";
    30 => ADD_MAGISTRATE = "AddMagistrate";
    31 => REMOVE_MAGISTRATE = "RemoveMagistrate";
    32 => ANNOUNCE = "Announce";
    33 => GET_INSTANCE_INTERFACE = "GetInstanceInterface";
    // Runtime protocol: instance objects.
    34 => SET = "Set";
    35 => GET = "Get";
    // Kernel fault counters (hot when chaos is on).
    36 => NET_DELAYED = "net.delayed";
    37 => NET_DUPLICATED = "net.duplicated";
    38 => NET_DEDUP_DROPPED = "net.dedup_dropped";
    // Dispatch deadline sweeps (timeout accounting + flight-recorder label).
    39 => NET_TIMEOUT_EXPIRED = "net.timeout_expired";
    // HA verdict labels (flight recorder).
    40 => HA_SUSPECT = "ha.suspect";
    41 => HA_HOST_DEAD = "ha.host_dead";
    42 => HA_FALSE_POSITIVE = "ha.false_positive";
    43 => HA_RECOVERED = "ha.recovered";
    // Admission control (hot when an endpoint is overloaded).
    44 => NET_REQUESTS_SHED = "net.requests_shed";
    45 => NET_OVERLOAD_REPLIES = "net.overload_replies";
    // Auto-scaling policy (flight-recorder label for clone decisions).
    46 => POLICY_AUTOSCALE_CLONE = "policy.autoscale_clone";
    // Binding Agent counters.
    47 => BA_REFRESH = "ba.refresh";
    48 => BA_CACHE_HIT = "ba.cache_hit";
    49 => BA_CACHE_MISS = "ba.cache_miss";
    50 => BA_COMBINED = "ba.combined";
    51 => BA_TO_PARENT = "ba.to_parent";
    52 => BA_PARENT_UNREACHABLE = "ba.parent_unreachable";
    53 => BA_TO_LEGION_CLASS = "ba.to_legion_class";
    54 => BA_CLASS_ADDR_HIT = "ba.class_addr_hit";
    55 => BA_CLASS_ADDR_MISS = "ba.class_addr_miss";
    56 => BA_TO_CLASS = "ba.to_class";
    57 => BA_RETRY = "ba.retry";
    58 => BA_LATE_REPLY = "ba.late_reply";
    59 => BA_TIMEOUT = "ba.timeout";
    // Client communication-layer counters.
    60 => CLIENT_CACHE_HIT = "client.cache_hit";
    61 => CLIENT_CACHE_MISS = "client.cache_miss";
    62 => CLIENT_STALE_DETECTED = "client.stale_detected";
    // Stale-binding propagation counters.
    63 => STALE_INVALIDATIONS_PROPAGATED = "stale.invalidations_propagated";
    64 => STALE_BINDINGS_PROPAGATED = "stale.bindings_propagated";
    // Class / LegionClass counters.
    65 => CLASS_GET_BINDING = "class.get_binding";
    66 => LEGION_CLASS_FIND = "legion_class.find";
    67 => LEGION_CLASS_GET_BINDING = "legion_class.get_binding";
    68 => CLASS_ANNOUNCEMENTS = "class.announcements";
    69 => CLASS_CREATE_REFUSED = "class.create_refused";
    70 => CLASS_CREATES = "class.creates";
    71 => CLASS_ACTIVATES_FOR_BINDING = "class.activates_for_binding";
    72 => CLASS_MAGISTRATE_DISCLAIMED = "class.magistrate_disclaimed";
    73 => CLASS_DERIVE_REFUSED = "class.derive_refused";
    74 => CLASS_DERIVES = "class.derives";
    75 => CLASS_INHERIT_REFUSED = "class.inherit_refused";
    76 => CLASS_INHERITS = "class.inherits";
    77 => CLASS_DELETES = "class.deletes";
    78 => CLASS_TIMEOUTS = "class.timeouts";
    79 => LEGION_CLASS_ISSUE = "legion_class.issue";
    // Magistrate counters.
    80 => MAGISTRATE_HA_RECOVERED = "magistrate.ha_recovered";
    81 => MAGISTRATE_HA_OBJECT_LOST = "magistrate.ha_object_lost";
    82 => MAGISTRATE_OPR_LOAD_FAILED = "magistrate.opr_load_failed";
    83 => MAGISTRATE_NO_HOST = "magistrate.no_host";
    84 => MAGISTRATE_HOST_DEAD = "magistrate.host_dead";
    85 => MAGISTRATE_HEARTBEATS = "magistrate.heartbeats";
    86 => MAGISTRATE_HA_FALSE_POSITIVE = "magistrate.ha_false_positive";
    87 => MAGISTRATE_HA_SUSPECT = "magistrate.ha_suspect";
    88 => MAGISTRATE_HA_HOST_DEAD = "magistrate.ha_host_dead";
    89 => MAGISTRATE_HA_DUPLICATE_TRIGGER = "magistrate.ha_duplicate_trigger";
    90 => MAGISTRATE_HA_UNRECOVERABLE = "magistrate.ha_unrecoverable";
    91 => MAGISTRATE_HA_RECOVERIES = "magistrate.ha_recoveries";
    92 => MAGISTRATE_ACTIVATE_ALREADY_ACTIVE = "magistrate.activate_already_active";
    93 => MAGISTRATE_ACTIVATIONS = "magistrate.activations";
    94 => MAGISTRATE_CREATIONS = "magistrate.creations";
    95 => MAGISTRATE_DEACTIVATIONS = "magistrate.deactivations";
    96 => MAGISTRATE_DELETIONS = "magistrate.deletions";
    97 => MAGISTRATE_MOVES = "magistrate.moves";
    98 => MAGISTRATE_COPIES = "magistrate.copies";
    99 => MAGISTRATE_RECEIVE_CORRUPT = "magistrate.receive_corrupt";
    100 => MAGISTRATE_RECEIVED_OPRS = "magistrate.received_oprs";
    101 => MAGISTRATE_ORPHAN_REAPED = "magistrate.orphan_reaped";
    102 => MAGISTRATE_ACTIVATION_RETRY = "magistrate.activation_retry";
    103 => MAGISTRATE_TIMEOUTS = "magistrate.timeouts";
    // Host Object counters.
    104 => HOST_CAPACITY_REFUSED = "host.capacity_refused";
    105 => HOST_ACTIVATIONS = "host.activations";
    106 => HOST_DEACTIVATIONS = "host.deactivations";
    107 => HOST_HEARTBEATS = "host.heartbeats";
    // Instance, context and scheduling-agent counters.
    108 => OBJECT_MISDIRECTED = "object.misdirected";
    109 => CONTEXT_LOOKUPS = "context.lookups";
    110 => SCHED_AGENT_SUGGESTIONS = "sched_agent.suggestions";
    111 => SCHED_AGENT_TIMEOUTS = "sched_agent.timeouts";
    // Auto-scaling policy counters.
    112 => POLICY_DERIVE_ISSUED = "policy.derive_issued";
    113 => POLICY_DERIVE_REFUSED = "policy.derive_refused";
    114 => POLICY_DERIVE_FAILED = "policy.derive_failed";
    115 => ROUTER_REPLICA_ADDED = "router.replica_added";
    // Workload-client counters.
    116 => CLIENT_OP_RETRY = "client.op_retry";
    117 => CLIENT_OVERLOAD_BACKOFF = "client.overload_backoff";
    118 => CLIENT_STALE_GAVE_UP = "client.stale_gave_up";
    119 => CLIENT_STALE_REFUSED = "client.stale_refused";
    120 => CLIENT_INVOKE_TIMEOUT = "client.invoke_timeout";
    121 => CLIENT_BINDING_TIMEOUT = "client.binding_timeout";
    122 => CLIENT_STALE_REPLY = "client.stale_reply";
    // Holder-directed invalidation and the auto-scaler's outbound half.
    123 => CLASS_HOLDERS_NOTIFIED = "class.holders_notified";
    124 => POLICY_TIMEOUTS = "policy.timeouts";
    // Runtime protocol: InheritFrom's call from the inheritor to its base.
    125 => GET_BASE_INTERFACE = "GetBaseInterface";
}

fn global() -> &'static RwLock<Interner> {
    static GLOBAL: OnceLock<RwLock<Interner>> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let mut interner = Interner::new();
        for &(sym, name) in WELL_KNOWN {
            let id = interner.intern(name);
            debug_assert_eq!(id, sym.0, "well-known seed order broken for {name:?}");
        }
        RwLock::new(interner)
    })
}

impl Sym {
    /// Intern `s` in the process-wide interner.
    pub fn intern(s: &str) -> Sym {
        if let Some(id) = global().read().expect("interner poisoned").lookup(s) {
            return Sym(id);
        }
        Sym(global().write().expect("interner poisoned").intern(s))
    }

    /// The symbol for `s` if it is already interned. Use on read paths
    /// (counter queries, signature probes) so unknown names don't grow
    /// the interner.
    pub fn try_lookup(s: &str) -> Option<Sym> {
        global()
            .read()
            .expect("interner poisoned")
            .lookup(s)
            .map(Sym)
    }

    /// The interned string. The returned reference is `'static`: interned
    /// strings live for the process. A pre-seeded symbol's id is its index
    /// in [`WELL_KNOWN`], so its string is read from that table without
    /// the interner's lock — the journal renders one per record.
    pub fn as_str(self) -> &'static str {
        if let Some(&(_, name)) = WELL_KNOWN.get(self.0 as usize) {
            return name;
        }
        global()
            .read()
            .expect("interner poisoned")
            .resolve(self.0)
            .expect("Sym id not in the process interner")
    }

    /// The raw id (intern order). Stable across processes only for the
    /// pre-seeded [`WELL_KNOWN`] symbols; never persist ids of anything
    /// else.
    pub fn id(self) -> u32 {
        self.0
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Sym {
        Sym::intern(s)
    }
}

impl From<&String> for Sym {
    fn from(s: &String) -> Sym {
        Sym::intern(s)
    }
}

impl From<String> for Sym {
    fn from(s: String) -> Sym {
        Sym::intern(&s)
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sym({:?})", self.as_str())
    }
}

// On the wire and in every exported artifact a symbol is its string —
// ids are a process-local encoding and never serialized.
impl Serialize for Sym {
    fn to_json_value(&self) -> Value {
        Value::Str(self.as_str().to_owned())
    }
}

impl Deserialize for Sym {
    fn from_json_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(Sym::intern(s)),
            other => Err(DeError(format!("expected string for Sym, got {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_resolves() {
        let a = Sym::intern("symbol-tests.alpha");
        let b = Sym::intern("symbol-tests.alpha");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "symbol-tests.alpha");
    }

    #[test]
    fn distinct_strings_get_distinct_syms() {
        let a = Sym::intern("symbol-tests.one");
        let b = Sym::intern("symbol-tests.two");
        assert_ne!(a, b);
    }

    #[test]
    fn pre_seeded_symbols_are_stable() {
        // The indices are a cross-process contract: pin every one.
        for &(sym, name) in WELL_KNOWN {
            assert_eq!(Sym::intern(name), sym, "seed moved for {name:?}");
            assert_eq!(sym.as_str(), name);
        }
        assert_eq!(REPLY.id(), 0);
        assert_eq!(PING.as_str(), "Ping");
        assert_eq!(GET_INTERFACE.as_str(), "GetInterface");
        // The list is dense, in id order and free of duplicates, and
        // additions went on the end: the protocol names keep the ids
        // they had before the counter names were appended.
        for (i, &(sym, _)) in WELL_KNOWN.iter().enumerate() {
            assert_eq!(sym.id() as usize, i);
        }
        assert_eq!(POLICY_AUTOSCALE_CLONE.id(), 46);
        assert_eq!(BA_REFRESH.id(), 47);
        assert_eq!(BA_CACHE_HIT.as_str(), "ba.cache_hit");
        assert_eq!(CLIENT_STALE_REPLY.id(), 122);
        assert_eq!(POLICY_TIMEOUTS.id(), 124);
        assert_eq!(WELL_KNOWN.len(), 126);
    }

    #[test]
    fn try_lookup_never_interns() {
        assert_eq!(Sym::try_lookup("symbol-tests.never-interned"), None);
        assert_eq!(Sym::try_lookup("Ping"), Some(PING));
    }

    #[test]
    fn standalone_interner_assigns_dense_insertion_ordered_ids() {
        let mut i = Interner::new();
        assert!(i.is_empty());
        assert_eq!(i.intern("x"), 0);
        assert_eq!(i.intern("y"), 1);
        assert_eq!(i.intern("x"), 0);
        assert_eq!(i.len(), 2);
        assert_eq!(i.resolve(1), Some("y"));
        assert_eq!(i.resolve(2), None);
        assert_eq!(i.lookup("y"), Some(1));
        assert_eq!(i.lookup("z"), None);
    }

    #[test]
    fn sym_serializes_as_its_string() {
        let v = PING.to_json_value();
        assert_eq!(v.as_str(), Some("Ping"));
        let back = Sym::from_json_value(&v).unwrap();
        assert_eq!(back, PING);
        assert!(Sym::from_json_value(&Value::U64(6)).is_err());
    }

    #[test]
    fn display_and_debug_render_the_name() {
        assert_eq!(PING.to_string(), "Ping");
        assert_eq!(format!("{REPLY:?}"), "Sym(\"reply\")");
    }
}
