//! A counting global allocator: exact host-work counters with no timing
//! involved. Every allocation call (`alloc`, `alloc_zeroed`, `realloc`)
//! bumps a call counter and adds the requested size to a byte counter;
//! spans read both at their boundaries.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counted.
pub struct Counting;

#[inline]
fn count(size: usize) {
    // Relaxed: plain statistics that publish no other data.
    CALLS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's guarantees for `layout` carry over unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout` (every
        // allocation above forwards to it).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr`/`layout` came from `System` as for `dealloc`; the
        // caller guarantees `new_size` is valid for `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation counters at one instant (or the difference of two).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Heap {
    /// Allocation calls.
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

impl Heap {
    /// The counters now.
    pub fn now() -> Heap {
        Heap {
            allocs: CALLS.load(Relaxed),
            bytes: BYTES.load(Relaxed),
        }
    }

    /// Counts accumulated since `earlier`.
    pub fn since(self, earlier: Heap) -> Heap {
        Heap {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }

    /// Component-wise sum.
    pub fn plus(self, o: Heap) -> Heap {
        Heap {
            allocs: self.allocs + o.allocs,
            bytes: self.bytes + o.bytes,
        }
    }
}
