//! The counting global allocator of the allocation tests. A binary has
//! one global allocator, so each test that pins what an operation
//! allocates is a test binary of its own and includes this file:
//!
//! ```ignore
//! #[path = "../../types/tests/support/counting_alloc.rs"]
//! mod counting_alloc;
//! ```
//!
//! It is the one place in the workspace that needs `unsafe`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread (the harness has others), and
    /// the bytes they asked for.
    static PAID: Cell<Paid> = const { Cell::new(Paid { allocations: 0, bytes: 0 }) };
}

/// What a stretch of code allocated: the calls that handed out memory
/// and the bytes requested by them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Paid {
    pub allocations: u64,
    pub bytes: u64,
}

fn pay(bytes: usize) {
    PAID.with(|paid| {
        let mut sum = paid.get();
        sum.allocations += 1;
        sum.bytes += bytes as u64;
        paid.set(sum);
    });
}

/// The system allocator, counting calls that hand out memory and the
/// bytes they ask for.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// const-initialised thread-local `Cell` without a destructor, so
// touching it neither allocates nor reads the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        pay(layout.size());
        // SAFETY: the caller's obligations for `alloc` are passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        pay(new_size);
        // SAFETY: `ptr`/`layout` describe a live block of this
        // allocator and `new_size` is valid, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What `f` allocated on this thread.
pub fn paid(f: impl FnOnce()) -> Paid {
    let before = PAID.with(Cell::get);
    f();
    let after = PAID.with(Cell::get);
    Paid {
        allocations: after.allocations - before.allocations,
        bytes: after.bytes - before.bytes,
    }
}
