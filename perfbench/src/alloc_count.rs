//! A counting global allocator for `machine.allocs_per_reduction`.
//!
//! Unlike `bench::counting_alloc` this one counts only while switched on:
//! an always-on shared counter is a cache line bouncing between every
//! allocating thread, which would tax exactly the multi-threaded
//! workloads whose end-to-end numbers are measured with tracing off. Off,
//! the cost is one relaxed load of a line nobody writes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Switch counting on or off (traced runs only).
pub fn enable(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

pub fn is_enabled() -> bool {
    COUNTING.load(Ordering::Relaxed)
}

/// Allocations (reallocs included) counted so far.
pub fn total() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

pub struct CountingAllocator;

impl CountingAllocator {
    fn note(&self) {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: defers entirely to `System`; the counter is a statistic that
// publishes no other data and has no allocator side effects.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.note();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which
        // is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.note();
        // SAFETY: `ptr` came from this allocator, hence from `System`, with
        // `layout`; the caller upholds the rest of `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}
