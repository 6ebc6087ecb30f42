//! # dedisys-perf
//!
//! The wall-clock benchmark of the DeDiSys middleware stack: a
//! closed-loop, single-thread load generator that drives the stack
//! from outside, through public functions only, and reports
//! end-to-end metrics (throughput, latency percentiles, allocations,
//! memory, set-up time) on six workloads plus per-layer metrics
//! (harness-side spans, layer probes, Fig. 2.3 slice rungs, exact
//! per-op counts). See `perf/README.md` for the workloads, the metric
//! tables and the list of product items the benchmark pins.

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod app;
pub mod cli;
pub mod compare;
pub mod harness;
pub mod layers;
pub mod report;
pub mod slices;
pub mod workload;
pub mod workloads;
