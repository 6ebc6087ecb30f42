//! The determinism self-check of `perf all --check-repeat`, at small
//! size: every workload is set up, run twice with one seed and once
//! with another, and passes its correctness checks each time.
//!
//! One test in its own binary, because the allocation counters are
//! process-wide.

use dedisys_perf::harness::alloc::CountingAlloc;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn every_workload_repeats_exactly_and_depends_on_its_seed() {
    if let Err(disagreement) = dedisys_perf::cli::check_repeat(1, 0.05) {
        panic!("{disagreement}");
    }
}
