//! The `chaos-soak` driver behind `repro chaos-soak`: one seeded
//! chaos run (optionally traced to JSONL) or a multi-seed sweep.
//!
//! A fixed seed reproduces the run exactly — same fault schedule,
//! same workload, same virtual-time trajectory, byte-identical trace
//! file. The CI smoke job runs one seed twice and diffs the traces,
//! then sweeps a seed range asserting the invariant checker stays
//! silent.

use dedisys_chaos::{ChaosConfig, ChaosEngine, ChaosReport};
use std::path::PathBuf;

/// CLI options of `repro chaos-soak`.
#[derive(Debug, Clone)]
pub struct SoakOptions {
    /// Master seed of a single run (ignored during sweeps).
    pub seed: u64,
    /// Cluster size.
    pub nodes: u32,
    /// Workload operations per run.
    pub ops: u64,
    /// Fault steps scheduled per run.
    pub faults: usize,
    /// Run seeds `0..n` instead of one seed.
    pub sweep: Option<u64>,
    /// JSONL trace destination (single runs only).
    pub trace: Option<PathBuf>,
    /// Drive membership through the adaptive failure-detection
    /// pipeline (φ-accrual + flap damping) and draw
    /// faults from the extended vocabulary.
    pub detector: bool,
}

impl Default for SoakOptions {
    fn default() -> Self {
        Self {
            seed: 0,
            nodes: 4,
            ops: 300,
            faults: 24,
            sweep: None,
            trace: None,
            detector: false,
        }
    }
}

fn config(opts: &SoakOptions, seed: u64) -> ChaosConfig {
    ChaosConfig {
        nodes: opts.nodes,
        ops: opts.ops,
        faults: opts.faults,
        seed,
        detector: opts.detector,
        ..ChaosConfig::default()
    }
}

/// Runs the soak per `opts`; exits the process with status 1 on any
/// invariant violation.
pub fn run(opts: &SoakOptions) {
    match opts.sweep {
        Some(n) => sweep(opts, n),
        None => single(opts),
    }
}

fn single(opts: &SoakOptions) {
    let engine = ChaosEngine::new(config(opts, opts.seed)).expect("chaos engine");
    if let Some(path) = &opts.trace {
        crate::attach_jsonl(engine.cluster().telemetry(), path);
    }
    let report = engine.run().expect("chaos run");
    print_report(&report, opts);
    if !report.clean() {
        for v in &report.violations {
            eprintln!("invariant violation: {v}");
        }
        std::process::exit(1);
    }
}

fn sweep(opts: &SoakOptions, seeds: u64) {
    let mut dirty = 0u64;
    for seed in 0..seeds {
        let report = ChaosEngine::new(config(opts, seed))
            .expect("chaos engine")
            .run()
            .expect("chaos run");
        if !report.clean() {
            dirty += 1;
            for v in &report.violations {
                eprintln!("seed {seed}: invariant violation: {v}");
            }
        }
    }
    println!(
        "chaos-soak sweep{}: {seeds} seeds x {} ops x {} faults — {dirty} seed(s) with violations",
        if opts.detector { " (detector)" } else { "" },
        opts.ops,
        opts.faults
    );
    if dirty > 0 {
        std::process::exit(1);
    }
}

fn print_report(report: &ChaosReport, opts: &SoakOptions) {
    println!(
        "chaos-soak seed {} ({} nodes{})",
        report.seed,
        opts.nodes,
        if opts.detector { ", detector" } else { "" }
    );
    println!(
        "  workload: {} ok, {} failed (expected under faults)",
        report.ops_ok, report.ops_failed
    );
    println!(
        "  faults:   {} applied, {} skipped",
        report.faults_applied, report.faults_skipped
    );
    println!(
        "  2pc:      {} in-doubt transaction(s) resolved by presumed abort",
        report.in_doubt_resolved
    );
    println!(
        "  tx:       {} begun = {} committed + {} rolled back",
        report.final_stats.tx.begun,
        report.final_stats.tx.committed,
        report.final_stats.tx.rolled_back
    );
    println!(
        "  ship:     {} retries, {} exhausted, {} lag skips",
        report.final_stats.replication.ship_retries,
        report.final_stats.replication.ship_failures,
        report.final_stats.replication.lagged_skips
    );
    println!(
        "  virtual time: {:.3} s, {} trace events",
        report.final_stats.now_ns as f64 / 1e9,
        report.final_stats.events_emitted
    );
    println!(
        "  invariants: {}",
        if report.clean() {
            "all held".to_string()
        } else {
            format!("{} VIOLATION(S)", report.violations.len())
        }
    );
}
