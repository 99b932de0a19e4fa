//! # The kernel message pool — recycled message-body buffers
//!
//! The second half of the hot-path overhaul (the first is the
//! [`crate::equeue`] event queue): stop paying malloc/free per delivery
//! for the heap parts of a [`Message`] body. Four shapes dominate the
//! §5.2 traffic and the Figure 11 migrations:
//!
//! * the **argument vector** of a call (`GetBinding(loid)` is one
//!   element), allocated by the caller and dropped by the callee,
//! * the **binding box** of a reply (`LegionValue::Binding(Box<Binding>)`;
//!   the one-element Object Address inside it is stored inline, only a
//!   replicated one owns an element buffer), allocated by the responder
//!   and dropped by the requester, and
//! * the **reply string** — an `Err` text (a shed call's retry-after
//!   hint, §5.2.2) or a `LegionValue::Str` result (a class's
//!   `GetInstanceInterface` IDL), written by the responder and dropped
//!   by the requester, and
//! * the **byte buffer** of a shipped OPR (`LegionValue::Bytes`): the
//!   source Magistrate copies the stored file into one, the destination
//!   moves it onto its disk, and the file the source deletes after a
//!   Move comes back here — so a migration hands one buffer round
//!   instead of allocating two.
//!
//! Every cycle closes through the kernel: the producer draws a spent
//! buffer from the pool ([`Ctx::take_args`](crate::sim::Ctx::take_args),
//! [`Ctx::binding_value`](crate::sim::Ctx::binding_value),
//! [`Ctx::take_string`](crate::sim::Ctx::take_string),
//! [`Ctx::take_bytes`](crate::sim::Ctx::take_bytes)), and the
//! consumer returns the shell after extracting what it needs
//! (`dispatch::serve` recycles served call bodies automatically, the
//! binding boxes and byte buffers in their argument vectors included;
//! reply consumers recycle through
//! [`Ctx::recycle_value`](crate::sim::Ctx::recycle_value)). In steady
//! state a request/reply round trip touches the allocator only where a
//! value genuinely changes owners (e.g. a fresh cache entry).
//!
//! ## Recycling rules (the invariants DESIGN.md documents)
//!
//! * Recycling is **semantically invisible**: a pooled buffer carries
//!   capacity, never contents. `take_args`, `take_string` and
//!   `take_bytes` return an empty buffer; `binding_value` overwrites
//!   every field of a recycled shell.
//! * The pool is **bounded** ([`POOL_CAP`] buffers per shape, and no
//!   byte buffer over [`BYTES_CAP`]): a burst can't turn the free lists
//!   into a leak.
//! * Recycling **never allocates**: a full pool drops the buffer
//!   (deallocation only), an empty pool falls back to a plain
//!   allocation. `alloc_budget` asserts the recycle path is zero-alloc.

use crate::message::{Body, Message};
use legion_core::binding::Binding;
use legion_core::value::LegionValue;

/// Upper bound on retained buffers per shape. Generous for the widest
/// experiment (hundreds of in-flight lookups), small enough that the
/// retained memory is trivial (a few hundred KiB).
pub const POOL_CAP: usize = 1024;

/// The largest byte buffer the pool keeps: an OPR of the experiments is
/// a few hundred bytes, and the pool's bytes stay under 4 MiB.
pub const BYTES_CAP: usize = 4096;

/// Free lists for the message-body heap shapes the hot path recycles.
#[derive(Default)]
pub struct MessagePool {
    /// Spent call argument vectors, cleared, capacity retained.
    args: Vec<Vec<LegionValue>>,
    /// Spent reply binding boxes; a shell that held a replicated address
    /// keeps that element buffer's capacity, so refilling one is
    /// allocation-free.
    /// The box itself is the pooled unit — `LegionValue::Binding` wraps
    /// a `Box<Binding>`, so unboxing here would re-allocate on reuse.
    #[allow(clippy::vec_box)]
    shells: Vec<Box<Binding>>,
    /// Spent reply strings (`Err` texts, `Str` results), cleared,
    /// capacity retained.
    strings: Vec<String>,
    /// Spent byte buffers (shipped OPRs, deleted files), cleared,
    /// capacity retained.
    bytes: Vec<Vec<u8>>,
}

impl MessagePool {
    /// An empty pool.
    pub fn new() -> Self {
        MessagePool::default()
    }

    /// An empty argument buffer: recycled if one is pooled, fresh
    /// (unallocated until first push) otherwise.
    pub fn take_args(&mut self) -> Vec<LegionValue> {
        self.args.pop().unwrap_or_default()
    }

    /// Return a spent argument buffer. Its values are recycled
    /// ([`MessagePool::recycle_value`]: binding boxes, byte buffers,
    /// strings, lists); capacity is what the pool keeps of the vector.
    pub fn recycle_args(&mut self, mut args: Vec<LegionValue>) {
        for value in args.drain(..) {
            self.recycle_value(value);
        }
        if args.capacity() > 0 && self.args.len() < POOL_CAP {
            self.args.push(args);
        }
    }

    /// An empty string buffer: recycled if one is pooled, fresh
    /// (unallocated until first write) otherwise.
    pub fn take_string(&mut self) -> String {
        self.strings.pop().unwrap_or_default()
    }

    /// Return a spent reply string. Contents are dropped here; capacity
    /// is what the pool keeps.
    fn recycle_string(&mut self, mut text: String) {
        if text.capacity() > 0 && self.strings.len() < POOL_CAP {
            text.clear();
            self.strings.push(text);
        }
    }

    /// An empty byte buffer: recycled if one is pooled, fresh
    /// (unallocated until first write) otherwise.
    pub fn take_bytes(&mut self) -> Vec<u8> {
        self.bytes.pop().unwrap_or_default()
    }

    /// Return a spent byte buffer. Contents are dropped here; capacity
    /// is what the pool keeps, unless it is over [`BYTES_CAP`].
    pub fn recycle_bytes(&mut self, mut bytes: Vec<u8>) {
        let cap = bytes.capacity();
        if cap > 0 && cap <= BYTES_CAP && self.bytes.len() < POOL_CAP {
            bytes.clear();
            self.bytes.push(bytes);
        }
    }

    /// A `LegionValue::Binding` carrying a copy of `src`, built in a
    /// recycled shell when one is available (no allocation for a
    /// one-element address, or if the shell's element buffer is wide
    /// enough for a replicated one), boxed fresh otherwise.
    pub fn binding_value(&mut self, src: &Binding) -> LegionValue {
        match self.shells.pop() {
            Some(mut shell) => {
                shell.loid = src.loid;
                shell.expiry = src.expiry;
                shell.address.semantics = src.address.semantics;
                shell.address.elements.clone_from(&src.address.elements);
                LegionValue::Binding(shell)
            }
            None => LegionValue::from(src.clone()),
        }
    }

    /// Recycle the heap shells of a spent value: binding boxes (with
    /// their element buffers), list vectors, strings and byte buffers.
    /// Scalar values are simply dropped.
    pub fn recycle_value(&mut self, value: LegionValue) {
        match value {
            LegionValue::Binding(shell) if self.shells.len() < POOL_CAP => {
                self.shells.push(shell);
            }
            LegionValue::List(list) => self.recycle_args(list),
            LegionValue::Str(text) => self.recycle_string(text),
            LegionValue::Bytes(bytes) => self.recycle_bytes(bytes),
            _ => {}
        }
    }

    /// Decompose a fully-handled or discarded message and recycle its
    /// body's buffers: a call's argument vector, a reply's result value
    /// or error text.
    #[inline]
    pub fn recycle_message(&mut self, msg: Message) {
        match msg.body {
            Body::Call { args, .. } => self.recycle_args(args),
            Body::Reply { result: Ok(v), .. } => self.recycle_value(v),
            Body::Reply { result: Err(e), .. } => self.recycle_string(e),
        }
    }

    /// A copy of `msg` (the network's duplicate) built in pooled
    /// buffers: equal to `msg.clone()`, without its allocations while
    /// the pool holds spent bodies.
    pub(crate) fn copy_message(&mut self, msg: &Message) -> Message {
        let body = match &msg.body {
            Body::Call { method, args } => Body::Call {
                method: *method,
                args: self.copy_list(args),
            },
            Body::Reply {
                in_reply_to,
                result,
            } => Body::Reply {
                in_reply_to: *in_reply_to,
                result: match result {
                    Ok(v) => Ok(self.copy_value(v)),
                    Err(e) => Err(self.copy_string(e)),
                },
            },
        };
        Message {
            id: msg.id,
            target: msg.target,
            reply_to: msg.reply_to,
            sender: msg.sender,
            env: msg.env,
            body,
        }
    }

    fn copy_value(&mut self, value: &LegionValue) -> LegionValue {
        match value {
            LegionValue::Binding(b) => self.binding_value(b),
            LegionValue::List(list) => LegionValue::List(self.copy_list(list)),
            LegionValue::Str(text) => LegionValue::Str(self.copy_string(text)),
            LegionValue::Bytes(bytes) => {
                let mut copy = self.take_bytes();
                copy.extend_from_slice(bytes);
                LegionValue::Bytes(copy)
            }
            scalar => scalar.clone(),
        }
    }

    fn copy_list(&mut self, list: &[LegionValue]) -> Vec<LegionValue> {
        let mut copy = self.take_args();
        for value in list {
            let value = self.copy_value(value);
            copy.push(value);
        }
        copy
    }

    fn copy_string(&mut self, text: &str) -> String {
        let mut copy = self.take_string();
        copy.push_str(text);
        copy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legion_core::address::ObjectAddress;
    use legion_core::loid::Loid;
    use legion_core::time::Expiry;

    fn binding(ep: u64) -> Binding {
        Binding {
            loid: Loid::class_object(20 + ep),
            address: ObjectAddress::single(legion_core::address::ObjectAddressElement::sim(ep)),
            expiry: Expiry::Never,
        }
    }

    #[test]
    fn args_round_trip_keeps_capacity_and_clears() {
        let mut pool = MessagePool::new();
        let mut v = pool.take_args();
        assert!(v.is_empty());
        v.push(LegionValue::Uint(7));
        v.push(LegionValue::Uint(8));
        let cap = v.capacity();
        pool.recycle_args(v);
        let v2 = pool.take_args();
        assert!(v2.is_empty(), "recycled buffer must come back empty");
        assert_eq!(v2.capacity(), cap, "capacity survives the round trip");
        // Capacity-less buffers are not worth pooling.
        pool.recycle_args(Vec::new());
        assert_eq!(pool.args.len(), 0);
    }

    #[test]
    fn binding_value_matches_plain_construction() {
        let mut pool = MessagePool::new();
        let b1 = binding(3);
        let fresh = pool.binding_value(&b1); // pool empty: plain path
        assert_eq!(fresh, LegionValue::from(b1.clone()));
        pool.recycle_value(fresh);
        assert_eq!(pool.shells.len(), 1);
        let b2 = binding(9);
        let reused = pool.binding_value(&b2); // pooled shell, overwritten
        assert_eq!(reused, LegionValue::from(b2.clone()));
        assert_eq!(pool.shells.len(), 0);
    }

    #[test]
    fn pool_is_bounded() {
        let mut pool = MessagePool::new();
        for i in 0..POOL_CAP + 10 {
            pool.recycle_value(LegionValue::from(binding(i as u64)));
            let mut v = Vec::with_capacity(2);
            v.push(LegionValue::Uint(i as u64));
            pool.recycle_args(v);
            pool.recycle_string(i.to_string());
            pool.recycle_bytes(vec![i as u8; 8]);
        }
        let lens = (
            pool.args.len(),
            pool.shells.len(),
            pool.strings.len(),
            pool.bytes.len(),
        );
        assert_eq!(lens, (POOL_CAP, POOL_CAP, POOL_CAP, POOL_CAP));
    }

    #[test]
    fn string_round_trip_keeps_capacity_and_clears() {
        let mut pool = MessagePool::new();
        let mut text = pool.take_string();
        assert_eq!(text.capacity(), 0, "an empty pool hands out no buffer");
        text.push_str("server overloaded, retry after 1250000ns");
        let cap = text.capacity();
        pool.recycle_string(text);
        let again = pool.take_string();
        assert!(again.is_empty(), "recycled string must come back empty");
        assert_eq!(again.capacity(), cap, "capacity survives the round trip");
        // Capacity-less strings are not worth pooling.
        pool.recycle_string(String::new());
        assert_eq!(pool.strings.len(), 0);
    }

    #[test]
    fn recycle_message_routes_both_bodies() {
        let mut pool = MessagePool::new();
        let call = Message::call(
            crate::message::CallId(1),
            Loid::class_object(21),
            legion_core::class::methods::GET_BINDING,
            vec![LegionValue::Uint(1)],
            legion_core::env::InvocationEnv::default(),
        );
        let reply = Message::reply_to(
            &call,
            crate::message::CallId(2),
            Ok(LegionValue::from(binding(4))),
        );
        pool.recycle_message(call);
        pool.recycle_message(reply);
        assert_eq!((pool.args.len(), pool.shells.len()), (1, 1));
    }

    #[test]
    fn recycle_message_routes_reply_strings() {
        let mut pool = MessagePool::new();
        let call = Message::call(
            crate::message::CallId(1),
            Loid::class_object(21),
            legion_core::class::methods::GET_BINDING,
            Vec::new(),
            legion_core::env::InvocationEnv::default(),
        );
        let id = crate::message::CallId(2);
        let shed = Message::reply_to(&call, id, Err("server overloaded".to_owned()));
        let idl = Message::reply_to(&call, id, Ok(LegionValue::from("interface File {}")));
        pool.recycle_message(shed);
        pool.recycle_message(idl);
        assert_eq!(pool.strings.len(), 2);
        assert!(pool.take_string().is_empty());
    }

    #[test]
    fn copies_equal_clones_and_draw_from_the_pool() {
        let mut pool = MessagePool::new();
        let args = vec![
            LegionValue::Uint(1),
            LegionValue::from(binding(2)),
            LegionValue::List(vec![LegionValue::from("a"), LegionValue::Bool(true)]),
            LegionValue::Bytes(vec![7; 16]),
        ];
        let call = Message::call(
            crate::message::CallId(1),
            Loid::class_object(21),
            legion_core::class::methods::GET_BINDING,
            args,
            legion_core::env::InvocationEnv::default(),
        );
        let id = crate::message::CallId(2);
        let shed = Message::reply_to(&call, id, Err("server overloaded".to_owned()));
        let bound = Message::reply_to(&call, id, Ok(LegionValue::from(binding(4))));
        let messages = [call, shed, bound];
        for msg in &messages {
            let copy = pool.copy_message(msg);
            assert_eq!(&copy, msg);
            pool.recycle_message(copy);
        }
        // Every buffer came back: the call's argument vector and its
        // list's, its binding shell (which the bound reply's copy drew
        // again), its string (which the shed hint's copy drew again) and
        // its bytes; a second round takes them again and leaves the pool
        // as it found it.
        let held = |p: &MessagePool| (p.args.len(), p.shells.len(), p.strings.len(), p.bytes.len());
        let first = held(&pool);
        assert_eq!(first, (2, 1, 1, 1));
        for msg in &messages {
            let copy = pool.copy_message(msg);
            assert_eq!(&copy, msg);
            pool.recycle_message(copy);
        }
        assert_eq!(held(&pool), first);
    }

    #[test]
    fn bytes_round_trip_keeps_capacity_and_clears() {
        let mut pool = MessagePool::new();
        let mut bytes = pool.take_bytes();
        assert_eq!(bytes.capacity(), 0, "an empty pool hands out no buffer");
        bytes.extend_from_slice(b"LOPR an object's persistent representation");
        let (cap, ptr) = (bytes.capacity(), bytes.as_ptr());
        pool.recycle_bytes(bytes);
        let again = pool.take_bytes();
        assert!(again.is_empty(), "recycled bytes must come back empty");
        assert_eq!((again.capacity(), again.as_ptr()), (cap, ptr));
        // Capacity-less buffers are not worth pooling, and one over the
        // cap is dropped rather than kept.
        pool.recycle_bytes(Vec::new());
        pool.recycle_bytes(Vec::with_capacity(BYTES_CAP + 1));
        assert_eq!(pool.bytes.len(), 0);
        pool.recycle_bytes(Vec::with_capacity(BYTES_CAP));
        assert_eq!(pool.bytes.len(), 1, "a buffer at the cap is kept");
    }

    #[test]
    fn spent_arguments_give_back_their_shells_and_bytes() {
        let mut pool = MessagePool::new();
        let bytes = vec![1u8; 32];
        let ptr = bytes.as_ptr();
        let args = vec![
            LegionValue::from(binding(5)),
            LegionValue::Bytes(bytes),
            LegionValue::Loid(Loid::class_object(9)),
        ];
        pool.recycle_args(args);
        let held = (pool.args.len(), pool.shells.len(), pool.bytes.len());
        assert_eq!(held, (1, 1, 1));
        let again = pool.take_bytes();
        assert_eq!(again.as_ptr(), ptr, "the call's own buffer");
        assert!(pool.take_args().is_empty());
    }

    #[test]
    fn a_duplicated_calls_bytes_come_from_the_pool() {
        let mut pool = MessagePool::new();
        let spent = Vec::with_capacity(64);
        let ptr = spent.as_ptr();
        pool.recycle_bytes(spent);
        let call = Message::call(
            crate::message::CallId(1),
            Loid::class_object(21),
            legion_core::symbol::RECEIVE_OPR,
            vec![LegionValue::Bytes(vec![3; 48])],
            legion_core::env::InvocationEnv::default(),
        );
        let copy = pool.copy_message(&call);
        assert_eq!(copy, call);
        match copy.args() {
            [LegionValue::Bytes(b)] => assert_eq!(b.as_ptr(), ptr, "drawn from the pool"),
            other => panic!("unexpected {other:?}"),
        }
        assert!(pool.bytes.is_empty());
    }
}
