//! Error types shared across the Legion model layer.

use crate::loid::Loid;
use std::fmt;

/// Result alias used throughout `legion-core`.
pub type CoreResult<T> = Result<T, CoreError>;

/// Errors produced by the core object model.
///
/// These map onto the failure modes the paper describes informally: calling
/// `Create()` on an Abstract class, `Derive()` on a Private class,
/// `InheritFrom()` on a Fixed class, unknown LOIDs, interface conflicts
/// arising from multiple inheritance, and malformed IDL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// `Create()` was invoked on an Abstract class (empty `Create`, §2.1.2).
    AbstractClass(Loid),
    /// `Derive()` was invoked on a Private class (empty `Derive`, §2.1.2).
    PrivateClass(Loid),
    /// `InheritFrom()` was invoked on a Fixed class (empty `InheritFrom`, §2.1.2).
    FixedClass(Loid),
    /// The named LOID is not known to the component that was asked.
    UnknownLoid(Loid),
    /// The LOID names a non-class object where a class was required.
    NotAClass(Loid),
    /// The LOID names a class object where a non-class instance was required.
    NotAnInstance(Loid),
    /// Adding an inherits-from edge would create a cycle.
    InheritanceCycle {
        /// The class whose `InheritFrom()` was invoked.
        class: Loid,
        /// The proposed base class that closes the cycle.
        base: Loid,
    },
    /// Two base classes define the same method with conflicting signatures.
    InterfaceConflict {
        /// Name of the conflicting method.
        method: String,
        /// First class contributing the method.
        first: Loid,
        /// Second, conflicting class.
        second: Loid,
    },
    /// A class has exhausted its 64-bit Class Specific namespace.
    LoidSpaceExhausted(Loid),
    /// The Class Identifier namespace itself is exhausted.
    ClassIdExhausted,
    /// Malformed IDL text.
    IdlParse {
        /// 1-based line number of the error.
        line: usize,
        /// Human-readable message.
        message: String,
    },
    /// A malformed or out-of-range value was supplied.
    Invalid(String),
    /// A call named a method absent from the receiving interface
    /// (the uniform unknown-method reply of `legion_core::dispatch`).
    UnknownMethod {
        /// The method name that failed to resolve.
        method: String,
    },
    /// A call's arguments did not match the method's declared signature
    /// (the uniform bad-arguments reply of `legion_core::dispatch`).
    SignatureMismatch {
        /// Canonical rendering of the declared signature.
        signature: String,
        /// What was wrong: arity, or a positional type mismatch.
        detail: String,
    },
    /// A pending call produced no reply before the caller's deadline (the
    /// uniform reply a deadline sweep substitutes for a lost response).
    Timeout {
        /// How long the caller waited, in virtual nanoseconds.
        after_ns: u64,
    },
    /// The receiving endpoint's admission budget is full and the call was
    /// shed (load shedding, not failure). The hint tells a well-behaved
    /// caller how long to back off before retrying — the server knows
    /// when a queue slot frees, the client does not.
    Overloaded {
        /// Server's retry hint, in virtual nanoseconds.
        retry_after_ns: u64,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::AbstractClass(l) => {
                write!(f, "class {l} is Abstract: Create() is empty")
            }
            CoreError::PrivateClass(l) => {
                write!(f, "class {l} is Private: Derive() is empty")
            }
            CoreError::FixedClass(l) => {
                write!(f, "class {l} is Fixed: InheritFrom() is empty")
            }
            CoreError::UnknownLoid(l) => write!(f, "unknown LOID {l}"),
            CoreError::NotAClass(l) => write!(f, "{l} is not a class object"),
            CoreError::NotAnInstance(l) => write!(f, "{l} is not an instance object"),
            CoreError::InheritanceCycle { class, base } => {
                write!(f, "InheritFrom({base}) on {class} would create a cycle")
            }
            CoreError::InterfaceConflict {
                method,
                first,
                second,
            } => write!(
                f,
                "method `{method}` conflicts between base classes {first} and {second}"
            ),
            CoreError::LoidSpaceExhausted(l) => {
                write!(f, "class {l} exhausted its Class Specific LOID space")
            }
            CoreError::ClassIdExhausted => write!(f, "Class Identifier space exhausted"),
            CoreError::IdlParse { line, message } => {
                write!(f, "IDL parse error at line {line}: {message}")
            }
            CoreError::Invalid(msg) => write!(f, "invalid value: {msg}"),
            CoreError::UnknownMethod { method } => {
                write!(f, "no method {method} in interface")
            }
            CoreError::SignatureMismatch { signature, detail } => {
                write!(f, "bad arguments: expected {signature} ({detail})")
            }
            CoreError::Timeout { after_ns } => {
                write!(f, "call timed out after {after_ns}ns")
            }
            CoreError::Overloaded { retry_after_ns } => {
                write!(f, "server overloaded, retry after {retry_after_ns}ns")
            }
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loid::Loid;

    #[test]
    fn display_formats_are_informative() {
        let l = Loid::class_object(42);
        let cases: Vec<(CoreError, &str)> = vec![
            (CoreError::AbstractClass(l), "Abstract"),
            (CoreError::PrivateClass(l), "Private"),
            (CoreError::FixedClass(l), "Fixed"),
            (CoreError::UnknownLoid(l), "unknown"),
            (CoreError::NotAClass(l), "not a class"),
            (CoreError::ClassIdExhausted, "exhausted"),
            (
                CoreError::Timeout { after_ns: 500 },
                "timed out after 500ns",
            ),
            (
                CoreError::Overloaded {
                    retry_after_ns: 250,
                },
                "overloaded, retry after 250ns",
            ),
        ];
        for (err, needle) in cases {
            assert!(
                err.to_string().contains(needle),
                "{err} should mention {needle}"
            );
        }
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_e: &dyn std::error::Error) {}
        takes_err(&CoreError::ClassIdExhausted);
    }

    #[test]
    fn idl_error_carries_line() {
        let e = CoreError::IdlParse {
            line: 7,
            message: "expected `;`".into(),
        };
        assert!(e.to_string().contains("line 7"));
    }
}
