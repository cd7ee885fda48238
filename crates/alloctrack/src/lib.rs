//! Test-only crate: a counting global allocator used to verify the
//! zero-allocation invariant of `reno-sim`'s steady-state `run()` loop and
//! the allocation budget of kernel construction.
//!
//! See `tests/steady_state.rs` and `tests/kernel_build.rs`. This crate
//! intentionally opts out of the workspace's `unsafe_code = "forbid"` lint
//! (a `GlobalAlloc` impl cannot be written without `unsafe`); it contains no
//! other code and is a dev-dependency sink only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of heap allocations since process start.
pub static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Bytes requested from the heap since process start: each allocation's
/// size, and the new size of each reallocation.
pub static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

/// A [`System`] allocator wrapper that counts allocations and the bytes
/// they request (not frees — the invariants under test are about acquiring
/// memory).
pub struct CountingAlloc;

fn count(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    ALLOCATED_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; the counters touch no memory
// the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `alloc` contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    // Forwarded rather than left to the default (alloc plus memset), so a
    // zeroed buffer keeps the system allocator's untouched fresh pages.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `alloc_zeroed` contract is `System.alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` with `layout`, and the caller's
        // `realloc` contract is `System.realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Current allocation count.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Bytes requested so far (see [`ALLOCATED_BYTES`]).
pub fn allocated_bytes() -> u64 {
    ALLOCATED_BYTES.load(Ordering::Relaxed)
}
