//! A counting global allocator.
//!
//! Installed with `#[global_allocator]` by the `perf` binary (and the
//! determinism test) only; the counters are process-wide, which is
//! exact because the load generator is single-threaded.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

// Relaxed: the counters are statistics and publish no other data.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting calls and requested bytes.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters do not touch
// the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's obligations for `alloc` are passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growth is one more allocation of the added bytes; a shrink
        // allocates nothing.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(
            new_size.saturating_sub(layout.size()) as u64,
            Ordering::Relaxed,
        );
        // SAFETY: `ptr`/`layout` describe a live block of this
        // allocator and `new_size` is valid, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation totals since process start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocSnapshot {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub allocations: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

impl AllocSnapshot {
    /// The current totals (all zero unless [`CountingAlloc`] is the
    /// global allocator).
    pub fn now() -> Self {
        Self {
            allocations: ALLOCATIONS.load(Ordering::Relaxed),
            bytes: ALLOCATED_BYTES.load(Ordering::Relaxed),
        }
    }

    /// The totals accumulated since `earlier`.
    pub fn since(self, earlier: Self) -> Self {
        Self {
            allocations: self.allocations - earlier.allocations,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_each_kind_of_request() {
        let a = CountingAlloc;
        let before = AllocSnapshot::now();
        let layout = Layout::from_size_align(64, 8).unwrap();
        // SAFETY: the layout is non-zero-sized; each block is freed
        // once with the layout it currently has.
        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            let p = a.realloc(p, layout, 256);
            assert!(!p.is_null());
            a.dealloc(p, Layout::from_size_align(256, 8).unwrap());
            let z = a.alloc_zeroed(layout);
            assert_eq!(*z, 0);
            a.dealloc(z, layout);
        }
        let delta = AllocSnapshot::now().since(before);
        // Other tests may allocate concurrently through the same
        // counters only when this allocator is installed globally,
        // which the unit tests do not do.
        assert_eq!(delta.allocations, 3);
        assert_eq!(delta.bytes, 64 + 192 + 64);
    }
}
