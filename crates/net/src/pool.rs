//! # The kernel message pool — recycled message-body buffers
//!
//! The second half of the hot-path overhaul (the first is the
//! [`crate::equeue`] timer wheel): stop paying malloc/free per delivery
//! for the heap parts of a [`Message`] body. Two shapes dominate the
//! §5.2 lookup traffic:
//!
//! * the **argument vector** of a call (`GetBinding(loid)` is one
//!   element), allocated by the caller and dropped by the callee, and
//! * the **binding box** of a reply (`LegionValue::Binding(Box<Binding>)`;
//!   the one-element Object Address inside it is stored inline, only a
//!   replicated one owns an element buffer), allocated by the responder
//!   and dropped by the requester.
//!
//! Both cycles close through the kernel: the caller draws a spent buffer
//! from the pool ([`Ctx::take_args`](crate::sim::Ctx::take_args),
//! [`Ctx::binding_value`](crate::sim::Ctx::binding_value)), and the
//! consumer returns the shell after extracting what it needs
//! (`dispatch::serve` recycles served call bodies automatically;
//! reply consumers recycle through
//! [`Ctx::recycle_value`](crate::sim::Ctx::recycle_value)). In steady
//! state a request/reply round trip touches the allocator only where a
//! value genuinely changes owners (e.g. a fresh cache entry).
//!
//! ## Recycling rules (the invariants DESIGN.md documents)
//!
//! * Recycling is **semantically invisible**: a pooled buffer carries
//!   capacity, never contents. `take_args` returns an empty vector;
//!   `binding_value` overwrites every field of a recycled shell.
//! * The pool is **bounded** ([`POOL_CAP`] buffers per shape): a burst
//!   can't turn the free lists into a leak.
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

    /// Return a spent argument buffer. Contents are dropped here;
    /// capacity is what the pool keeps.
    pub fn recycle_args(&mut self, mut args: Vec<LegionValue>) {
        if args.capacity() > 0 && self.args.len() < POOL_CAP {
            args.clear();
            self.args.push(args);
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
    /// their element buffers) and list vectors. Scalar values are
    /// simply dropped.
    pub fn recycle_value(&mut self, value: LegionValue) {
        match value {
            LegionValue::Binding(shell) if self.shells.len() < POOL_CAP => {
                self.shells.push(shell);
            }
            LegionValue::List(list) => self.recycle_args(list),
            _ => {}
        }
    }

    /// Decompose a fully-handled message and recycle its body's buffers:
    /// a call's argument vector, a reply's result value.
    pub fn recycle_message(&mut self, msg: Message) {
        match msg.body {
            Body::Call { args, .. } => self.recycle_args(args),
            Body::Reply { result: Ok(v), .. } => self.recycle_value(v),
            Body::Reply { result: Err(_), .. } => {}
        }
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
        }
        assert_eq!((pool.args.len(), pool.shells.len()), (POOL_CAP, POOL_CAP));
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
}
