//! Causal-trace identifiers carried by every invocation.
//!
//! A workload-level request is one **trace**; every message hop, timer,
//! and annotation inside it is a **span**. The identifiers live here in
//! the model layer because they travel inside [`crate::env::InvocationEnv`]
//! — the same vehicle the paper uses for the §2.4 security triple — so
//! that causality survives arbitrary forwarding chains without any
//! endpoint cooperating beyond passing the environment along.
//!
//! Identifier `0` is reserved as "no trace" ([`TraceId::NONE`]); untraced
//! runs pay nothing beyond copying two `u64`s per message.

use serde::Serialize;
use std::fmt;

/// Identifies one workload-level request end to end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Default)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The reserved "not part of any trace" id.
    pub const NONE: TraceId = TraceId(0);

    /// Is this a real trace id?
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Identifies one hop or annotation within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Default)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The reserved "no span" id (root spans have this as their parent).
    pub const NONE: SpanId = SpanId(0);

    /// Is this a real span id?
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// The `(trace, span)` pair propagated with every invocation: which
/// request this work belongs to, and which span is its causal parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TraceContext {
    /// The request this work belongs to.
    pub trace: TraceId,
    /// The span that caused this work (parent of any child spans).
    pub span: SpanId,
}

impl TraceContext {
    /// The empty context: not part of any trace.
    pub const NONE: TraceContext = TraceContext {
        trace: TraceId::NONE,
        span: SpanId::NONE,
    };

    /// A context rooted at `trace` / `span`.
    pub fn new(trace: TraceId, span: SpanId) -> Self {
        TraceContext { trace, span }
    }

    /// Is this context part of a real trace?
    pub fn is_active(self) -> bool {
        self.trace.is_some()
    }
}

impl fmt::Display for TraceContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_active() {
            write!(f, "{}/{}", self.trace, self.span)
        } else {
            write!(f, "untraced")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inactive() {
        assert!(!TraceContext::NONE.is_active());
        assert!(!TraceContext::default().is_active());
        assert!(!TraceId::NONE.is_some());
        assert!(!SpanId::NONE.is_some());
    }

    #[test]
    fn real_ids_are_active() {
        let tc = TraceContext::new(TraceId(3), SpanId(7));
        assert!(tc.is_active());
        assert_eq!(tc.to_string(), "T3/S7");
        assert_eq!(TraceContext::NONE.to_string(), "untraced");
    }
}
