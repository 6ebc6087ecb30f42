//! # dedisys-bench
//!
//! The reproduction harness: one entry point per table and figure of
//! the dissertation's evaluation. The `repro` binary
//! (`cargo run -p dedisys-bench --bin repro -- <experiment>`) prints
//! each experiment's rows next to the values the paper reports;
//! EXPERIMENTS.md records a full run.
//!
//! * [`ch2`] — the constraint-validation comparison (Figures 2.1–2.6
//!   and the lookup-time study), measured in wall-clock time.
//! * [`ch5`] — the middleware evaluation (Figures 5.1–5.4, 5.6, 5.8
//!   and the §5.5 improvement studies), measured in deterministic
//!   virtual time.
//! * [`chaos_soak`] — the seeded chaos soak (`repro chaos-soak`):
//!   random fault schedules against the full middleware stack with
//!   invariant checking after every injected fault; `--shards K` runs
//!   the cross-shard transfer mix.
//! * [`fig_compile`] — the constraint-engine study (`repro
//!   fig-compile`): interpreted vs compiled vs compiled+verdict-cache
//!   validation cost in deterministic virtual time, with the
//!   verdict-transparency contract checked on every run.
//! * [`flap_sweep`] — the failure-detection damping study (`repro
//!   flap-sweep`): spurious mode transitions under link flapping,
//!   fixed-timeout + passthrough baseline vs the φ-accrual detector
//!   with flap-damped view stabilization, per flap period and
//!   damping window.
//! * [`overload_sweep`] — the request-plane overload study (`repro
//!   overload-sweep`): goodput and Critical-class p99 latency per
//!   offered load and system mode, token-bucket admission + priority
//!   shedding vs a no-admission FIFO baseline, with the
//!   strictly-better-tail contract checked on every run.
//! * [`shard_sweep`] — the federation study (`repro shard-sweep`):
//!   goodput and cross-shard abort rate per shard count, offered load
//!   and partition pattern under the `RejectDegraded` routing policy,
//!   with the cross-shard value-conservation contract checked in
//!   every cell.

pub mod ch2;
pub mod ch5;
pub mod chaos_soak;
pub mod fig_compile;
pub mod flap_sweep;
pub mod overload_sweep;
pub mod shard_sweep;
pub mod table;

/// Appends the typed event stream of `telemetry` to the JSONL file at
/// `path` — how every driver honours `--trace`. The file is opened in
/// append mode, so the clusters of one run accumulate in one file that
/// `repro` truncated up front.
pub fn attach_jsonl(telemetry: &dedisys_core::Telemetry, path: &std::path::Path) {
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .expect("open trace file");
    telemetry.attach(Box::new(dedisys_core::JsonlExporter::new(Box::new(file))));
}
