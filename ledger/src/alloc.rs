//! A counting allocator: the system allocator plus one counter, armed only
//! around the traced blocks of a `--trace 1` run. Unarmed it costs one
//! relaxed load per allocation, the same on every revision measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The process-wide allocator of the ledger binary.
pub struct Counting;

fn count() {
    // Relaxed: a statistic that publishes no other data.
    if ARMED.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator
// state and cannot unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations for `alloc_zeroed` are passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, which only ever hands out
        // `System` blocks; the caller's obligations are passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which only ever hands out
        // `System` blocks; the caller's obligations are passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Starts counting allocations (all threads).
pub fn arm() {
    ARMED.store(true, Ordering::Relaxed);
}

/// Stops counting and returns the allocations seen since the last call.
pub fn disarm() -> u64 {
    ARMED.store(false, Ordering::Relaxed);
    ALLOCATIONS.swap(0, Ordering::Relaxed)
}
