//! Std-only measurement instruments.
//!
//! Nothing here knows about the middleware: a seeded generator, a
//! counting allocator, order statistics, a span recorder and a JSON
//! reader/writer. The module compiles and tests on its own
//! (`rustc --edition 2021 --test perf/src/harness/mod.rs`), so the
//! instruments can be checked even where the product does not build.

pub mod alloc;
pub mod json;
pub mod rng;
pub mod spans;
pub mod stats;

use std::time::Instant;

/// Nanoseconds since `origin`, saturating at `u64::MAX`.
pub fn nanos_since(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Peak resident set size of this process in KiB (`VmHWM` of
/// `/proc/self/status`); `None` where procfs is absent.
pub fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm(&status)
}

fn parse_vm_hwm(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse().ok())
}

/// FNV-1a over a byte stream: the `state_digest` of a run.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Folds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one integer (little-endian) into the digest.
    pub fn write_u64(&mut self, n: u64) {
        self.write(&n.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_parsed_from_status_text() {
        let status = "Name:\tperf\nVmPeak:\t  9000 kB\nVmHWM:\t    4212 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(4212));
        assert_eq!(parse_vm_hwm("Name:\tperf\n"), None);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        let mut h = Fnv1a::default();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::default();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn elapsed_time_is_monotonic() {
        let origin = Instant::now();
        let a = nanos_since(origin);
        let b = nanos_since(origin);
        assert!(b >= a);
    }
}
