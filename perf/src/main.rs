//! The `perf` binary: installs the counting allocator and hands the
//! command line to [`dedisys_perf::cli`].

use dedisys_perf::harness::alloc::CountingAlloc;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(failure) = dedisys_perf::cli::main(&args) {
        eprintln!("perf: {failure}");
        std::process::exit(failure.code());
    }
}
