//! The six workloads.

pub mod degraded;
pub mod fed;
pub mod validate;
pub mod xshard;

use crate::workload::Spec;

/// Every workload, in the order results are reported.
///
/// The rates were calibrated once (2 vCPU sandbox, release profile,
/// rustc 1.95) so that `--seconds s` gives a timed region of about `s`
/// seconds; they are constants so that op counts — and with them
/// allocation counts, the virtual clock and the state digest — repeat
/// exactly.
pub const WORKLOADS: [Spec; 6] = [
    Spec {
        name: "fed_write",
        why: "whole write path: route, admission, session, interception, lookup, 1 check, lock, container, WAL, 2 replica ships, metrics",
        ops_per_second: 36_000,
        unit: 1,
        build: fed::build_write,
    },
    Spec {
        name: "fed_read",
        why: "95% reads skip locks, validation, WAL and ships, so per-request fixed cost dominates; replication/WAL changes must not move it",
        ops_per_second: 170_000,
        unit: 1,
        build: fed::build_read,
    },
    Spec {
        name: "validate_heavy",
        why: "8 constraints per write on one cluster, 10% designed violations: lookup, context gathering and the expression engine dominate",
        ops_per_second: 26_000,
        unit: 1,
        build: validate::build,
    },
    Spec {
        name: "degraded_cycle",
        why: "partition, 400 degraded writes with threat negotiation, heal, reconcile with repair: the only workload with faults injected",
        ops_per_second: 19_000,
        unit: degraded::CYCLE_OPS,
        build: degraded::build,
    },
    Spec {
        name: "xshard_transfer",
        why: "cross-shard transfers as explicit 2PC (begin, stage x2, prepare, commit), every 16th aborted after prepare",
        ops_per_second: 28_000,
        unit: xshard::ABORT_PERIOD,
        build: xshard::build,
    },
    Spec {
        name: "fed_write_traced",
        why: "the fed_write stream with JSONL exporters attached: telemetry enabled, event construction and JSON encoding (the perf/shims stand-in's, not serde_json's) dominate",
        ops_per_second: 36_000,
        unit: 1,
        build: fed::build_write_traced,
    },
];

/// The workload named `name`.
pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}
