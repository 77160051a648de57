//! A counting global allocator for the traced binary.
//!
//! Only `perfbench-traced` installs [`CountingAlloc`] as its
//! `#[global_allocator]`; in any other binary [`snapshot`] reads zeros.
//! Counts are kept in cache-line-padded stripes, one per thread slot, so
//! the two shard threads never contend on one counter line while they
//! allocate on the session hot path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

const STRIPES: usize = 16;

#[repr(align(64))]
struct Stripe {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

static COUNTS: [Stripe; STRIPES] =
    [const { Stripe { allocs: AtomicU64::new(0), bytes: AtomicU64::new(0) } }; STRIPES];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // `const` initialised and free of destructors, so reading it from
    // inside the allocator never allocates.
    static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn count(bytes: usize) {
    let slot = SLOT.with(|s| {
        if s.get() == usize::MAX {
            s.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % STRIPES);
        }
        s.get()
    });
    // Relaxed: these are statistics and publish no other data.
    COUNTS[slot].allocs.fetch_add(1, Ordering::Relaxed);
    COUNTS[slot].bytes.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// `(allocations, bytes requested)` so far, summed over every thread.
pub fn snapshot() -> (u64, u64) {
    COUNTS.iter().fold((0, 0), |(n, b), s| {
        (n + s.allocs.load(Ordering::Relaxed), b + s.bytes.load(Ordering::Relaxed))
    })
}

/// The system allocator plus an allocation and byte count. A `realloc`
/// counts as one allocation of its new size.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// atomics and a destructor-free thread-local, neither of which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as for `dealloc`, plus the caller's guarantee on
        // `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
