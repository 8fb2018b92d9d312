//! A counting global allocator for allocation-regression tests.
//!
//! Wraps [`System`] and counts every `alloc`/`alloc_zeroed`/`realloc`
//! call with a relaxed atomic, so a test can assert that a hot path is
//! allocation-free after warmup:
//!
//! ```ignore
//! use hpm_check::alloc::CountingAllocator;
//!
//! #[global_allocator]
//! static ALLOC: CountingAllocator = CountingAllocator::new();
//!
//! warm_up();
//! let before = ALLOC.allocations();
//! hot_path();
//! assert_eq!(ALLOC.allocations() - before, 0);
//! ```
//!
//! Beyond call counts, the allocator tracks **bytes**: the live
//! (currently outstanding) byte total. That lets a steady-state test
//! bound *retained growth* (diff two `live_bytes` readings around a
//! window that should retain almost nothing).
//!
//! Install it with `#[global_allocator]` in a dedicated integration
//! test file holding a *single* test function — the counters are
//! process-global, so unrelated concurrent tests (the libtest harness
//! runs them on threads) would otherwise bleed into the window being
//! measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Global allocator that delegates to [`System`] and counts
/// allocations and live bytes (frees decrement the live total but
/// are not counted as calls: a regression test for an allocation-free
/// path only cares about acquisitions).
#[derive(Debug)]
pub struct CountingAllocator {
    allocations: AtomicU64,
    live_bytes: AtomicU64,
}

impl CountingAllocator {
    /// A fresh counter at zero.
    pub const fn new() -> Self {
        CountingAllocator {
            allocations: AtomicU64::new(0),
            live_bytes: AtomicU64::new(0),
        }
    }

    /// Total `alloc` + `alloc_zeroed` + `realloc` calls so far, across
    /// all threads. Diff two readings to count a window.
    pub fn allocations(&self) -> u64 {
        self.allocations.load(Ordering::Relaxed)
    }

    /// Bytes currently allocated and not yet freed, across all
    /// threads. Diff two readings around a window to measure retained
    /// (steady-state) growth.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes.load(Ordering::Relaxed)
    }

    fn on_alloc(&self, size: usize) {
        self.allocations.fetch_add(1, Ordering::Relaxed);
        self.live_bytes.fetch_add(size as u64, Ordering::Relaxed);
    }

    fn on_dealloc(&self, size: usize) {
        self.live_bytes.fetch_sub(size as u64, Ordering::Relaxed);
    }
}

impl Default for CountingAllocator {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: delegates every operation unchanged to `System`; the counters
// have no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            self.on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.on_dealloc(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            self.on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            // Count the realloc as one acquisition; adjust live bytes
            // by the size delta.
            self.on_dealloc(layout.size());
            self.on_alloc(new_size);
        }
        new_ptr
    }
}
