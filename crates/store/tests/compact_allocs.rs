//! A log that has reached its steady size allocates nothing to stay
//! there: its capacity is reserved up to the next compaction's bound,
//! and the table a compaction files keys in is kept, emptied, for the
//! next one.
//!
//! A test binary of its own, because it installs the counting global
//! allocator (`crates/types/tests/support/counting_alloc.rs`).

use dedisys_store::WriteAheadLog;
use std::sync::Arc;

#[path = "../../types/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::paid;

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

    let allocated = paid(|| {
        let mut compactions = 0;
        while compactions < 10 {
            compactions += usize::from(step(&mut wal));
        }
    })
    .allocations;
    assert_eq!(wal.len(), live.len());
    assert_eq!(allocated, 0, "allocations across ten compactions");
}
