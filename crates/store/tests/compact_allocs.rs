//! A log that has reached its steady size allocates nothing to stay
//! there: its capacity is reserved up to the next compaction's bound,
//! and the table a compaction files keys in is kept, emptied, for the
//! next one.
//!
//! A test binary of its own, because it installs a counting global
//! allocator.

use dedisys_store::WriteAheadLog;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Allocations made by this thread (the harness has others).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting calls that hand out memory.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// const-initialised thread-local `Cell` without a destructor, so
// touching it neither allocates nor reads the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations for `alloc` are passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr`/`layout` describe a live block of this
        // allocator and `new_size` is valid, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// One test, so nothing else runs on this thread's counter.
#[test]
fn a_log_at_its_steady_size_allocates_nothing_across_ten_compactions() {
    // 64 live keys, rewritten in turn, and 16 keys only ever deleted:
    // every compaction keeps the same 64 entries.
    let live: Vec<Arc<str>> = (0..64).map(|k| format!("Item#k{k}").into()).collect();
    let gone: Vec<Arc<str>> = (0..16).map(|k| format!("Item#d{k}").into()).collect();
    let record: Arc<str> = r#"{"v":1}"#.into();
    let mut wal = WriteAheadLog::new();
    let mut n = 0usize;
    // Appends one entry; returns whether the log compacted.
    let mut step = |wal: &mut WriteAheadLog| {
        let before = wal.len();
        if n % 5 == 4 {
            wal.append_delete("entities", Arc::clone(&gone[n % gone.len()]));
        } else {
            wal.append_put(
                "entities",
                Arc::clone(&live[n % live.len()]),
                Arc::clone(&record),
            );
        }
        n += 1;
        wal.len() < before
    };
    // Two compactions reach the steady size: the first reserves room
    // up to the bound the next is paid for by.
    let mut compactions = 0;
    while compactions < 2 {
        compactions += usize::from(step(&mut wal));
    }
    assert_eq!(wal.len(), live.len());

    let before = ALLOCATIONS.with(Cell::get);
    let mut compactions = 0;
    while compactions < 10 {
        compactions += usize::from(step(&mut wal));
    }
    let allocated = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(wal.len(), live.len());
    assert_eq!(allocated, 0, "allocations across ten compactions");
}
