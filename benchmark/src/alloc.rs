//! The benchmark's counting global allocator.
//!
//! `legion_core::allocs` holds the process-wide counters (core forbids
//! unsafe code, so the `GlobalAlloc` impl cannot live there); the
//! benchmark registers its own allocator feeding them, so allocator calls
//! and bytes per operation are measured from outside the program, and the
//! kernel profiler's per-handler allocation columns light up in the
//! traced pass.

use std::alloc::{GlobalAlloc, Layout, System};

/// Wraps the system allocator, reporting every `alloc`/`realloc` to
/// [`legion_core::allocs::on_alloc`]. Frees are not subtracted: the
/// metric is allocator pressure, not live bytes.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only added work is a
// relaxed atomic add that neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        legion_core::allocs::on_alloc(layout.size() as u64);
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        legion_core::allocs::on_alloc(layout.size() as u64);
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout`
        // (every allocating method above forwards to `System`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        legion_core::allocs::on_alloc(new_size as u64);
        // SAFETY: as in `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
