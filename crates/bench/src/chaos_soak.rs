//! The `chaos-soak` driver behind `repro chaos-soak`: one seeded
//! chaos run (optionally traced to JSONL) or a multi-seed sweep, of
//! either workload mix — the item mix on one shard, or the cross-shard
//! transfer mix with `--shards K`.
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
    /// Master seed of a single run, first seed of a sweep.
    pub seed: u64,
    /// Shards: 1 runs the item mix, more the cross-shard transfer mix.
    pub shards: u32,
    /// Nodes per shard (default: 4 in the item mix, 3 in the transfer
    /// mix).
    pub nodes: Option<u32>,
    /// Workload operations per run (default: 300 in the item mix, 200
    /// in the transfer mix).
    pub ops: Option<u64>,
    /// Fault steps scheduled per item-mix run.
    pub faults: usize,
    /// Run seeds `seed..seed + n` instead of one seed.
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
            shards: 1,
            nodes: None,
            ops: None,
            faults: 24,
            sweep: None,
            trace: None,
            detector: false,
        }
    }
}

fn config(opts: &SoakOptions, seed: u64) -> ChaosConfig {
    let items = opts.shards == 1;
    ChaosConfig {
        nodes: opts.nodes.unwrap_or(if items { 4 } else { 3 }),
        ops: opts.ops.unwrap_or(if items { 300 } else { 200 }),
        faults: opts.faults,
        seed,
        shards: opts.shards,
        detector: opts.detector,
        ..ChaosConfig::default()
    }
}

/// The engine for `seed`; an invalid shape exits the process with
/// status 2.
fn engine(opts: &SoakOptions, seed: u64) -> ChaosEngine {
    ChaosEngine::new(config(opts, seed)).unwrap_or_else(|e| {
        eprintln!("chaos-soak: {e}");
        std::process::exit(2);
    })
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
    let engine = engine(opts, opts.seed);
    if let Some(path) = &opts.trace {
        crate::attach_jsonl(engine.telemetry(), path);
    }
    let bus = engine.telemetry().clone();
    let report = engine.run().expect("chaos run");
    let events = bus.events_emitted();
    // The last handle on the traced bus: dropping it flushes the trace.
    drop(bus);
    print_report(&report, opts, events);
    if !report.clean() {
        for v in &report.violations {
            eprintln!("invariant violation: {v}");
        }
        std::process::exit(1);
    }
}

fn sweep(opts: &SoakOptions, seeds: u64) {
    let mut dirty = 0u64;
    for seed in opts.seed..opts.seed + seeds {
        let report = engine(opts, seed).run().expect("chaos run");
        let mut line = format!(
            "  seed {seed:>4}: {} ok, {} failed, {} faults applied",
            report.ops_ok, report.ops_failed, report.faults_applied
        );
        if opts.shards > 1 {
            line += &format!(", xshard {}", xshard(&report));
        }
        let verdict = if report.clean() { "clean" } else { "VIOLATED" };
        println!("{line}: {verdict}");
        if !report.clean() {
            dirty += 1;
            for v in &report.violations {
                eprintln!("seed {seed}: invariant violation: {v}");
            }
        }
    }
    println!(
        "chaos-soak sweep ({}): {seeds} seeds x {} ops — {dirty} seed(s) with violations",
        shape(opts),
        config(opts, opts.seed).ops
    );
    if dirty > 0 {
        std::process::exit(1);
    }
}

/// `4 nodes`, `4 nodes, detector` or `3 shards x 3 nodes`.
fn shape(opts: &SoakOptions) -> String {
    let nodes = config(opts, opts.seed).nodes;
    match (opts.shards, opts.detector) {
        (1, false) => format!("{nodes} nodes"),
        (1, true) => format!("{nodes} nodes, detector"),
        (shards, _) => format!("{shards} shards x {nodes} nodes"),
    }
}

/// The cross-shard outcomes of a transfer run.
fn xshard(report: &ChaosReport) -> String {
    let x = &report.federation;
    format!(
        "{} begun = {} committed + {} aborted ({} presumed)",
        x.xshard_begun, x.xshard_committed, x.xshard_aborted, x.xshard_presumed_aborted
    )
}

fn print_report(report: &ChaosReport, opts: &SoakOptions, events: u64) {
    println!("chaos-soak seed {} ({})", report.seed, shape(opts));
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
    if opts.shards > 1 {
        println!("  xshard:   {}", xshard(report));
    } else {
        let stats = &report.final_stats;
        println!(
            "  tx:       {} begun = {} committed + {} rolled back",
            stats.tx.begun, stats.tx.committed, stats.tx.rolled_back
        );
        println!(
            "  ship:     {} retries, {} exhausted, {} lag skips",
            stats.replication.ship_retries,
            stats.replication.ship_failures,
            stats.replication.lagged_skips
        );
    }
    println!(
        "  virtual time: {:.3} s, {events} trace events",
        report.final_stats.now_ns as f64 / 1e9
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
