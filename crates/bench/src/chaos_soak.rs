//! `repro chaos-soak`: one seeded chaos run (optionally traced to
//! JSONL) or a multi-seed sweep, of either workload mix — the item mix
//! on one shard, or the cross-shard transfer mix with `--shards K`.
//!
//! A fixed seed reproduces the run exactly — same fault schedule,
//! same workload, same virtual-time trajectory, byte-identical trace
//! file; `receipts.txt` pins single seeds and sweeps of both mixes.
//! Contract: the invariant checker stays silent on every seed.

use crate::{BadFlags, Run, Verdict};
use dedisys_chaos::{ChaosConfig, ChaosEngine, ChaosReport};

/// The engine configuration for `seed`. One shard runs the item mix
/// (4 nodes, 300 ops by default), more the cross-shard transfer mix
/// (3 nodes, 200 ops).
fn config(run: &Run, seed: u64) -> ChaosConfig {
    let default = ChaosConfig::default();
    let shards = run.shards.unwrap_or(default.shards);
    let items = shards == 1;
    ChaosConfig {
        nodes: run.nodes.unwrap_or(if items { default.nodes } else { 3 }),
        ops: run.ops.unwrap_or(if items { default.ops } else { 200 }),
        faults: run.faults.unwrap_or(default.faults),
        seed,
        shards,
        detector: run.detector,
        ..default
    }
}

/// The engine for `seed`; an invalid shape is a bad command line.
fn engine(run: &Run, seed: u64) -> Result<ChaosEngine, BadFlags> {
    ChaosEngine::new(config(run, seed)).map_err(|e| BadFlags(e.to_string()))
}

/// Whether `--shards` selects the cross-shard transfer mix.
fn transfers(run: &Run) -> bool {
    run.shards.is_some_and(|shards| shards > 1)
}

fn violations(report: &ChaosReport) -> Vec<String> {
    let violations = report.violations.iter();
    violations
        .map(|v| format!("invariant violation: {v}"))
        .collect()
}

/// Runs one seed, or the seeds of `--sweep` with one line each.
pub fn run(run: &Run) -> Verdict {
    let Some(seeds) = run.sweep else {
        return single(run);
    };
    let (failures, dirty) = run.sweep_seeds(seeds, |seed| {
        let report = engine(run, seed)?.run().expect("chaos run");
        let mut line = format!(
            "  seed {seed:>4}: {} ok, {} failed, {} faults applied",
            report.ops_ok, report.ops_failed, report.faults_applied
        );
        if transfers(run) {
            line += &format!(", xshard {}", xshard(&report));
        }
        let verdict = if report.clean() { "clean" } else { "VIOLATED" };
        println!("{line}: {verdict}");
        Ok(violations(&report))
    })?;
    println!(
        "chaos-soak sweep ({}): {seeds} seeds x {} ops — {dirty} seed(s) with violations",
        shape(run),
        config(run, run.seed).ops
    );
    Ok(failures)
}

fn single(run: &Run) -> Verdict {
    let engine = engine(run, run.seed)?;
    run.trace.attach(engine.telemetry());
    let bus = engine.telemetry().clone();
    let report = engine.run().expect("chaos run");
    let events = bus.events_emitted();
    // The last handle on the traced bus: dropping it flushes the trace.
    drop(bus);
    print_report(&report, run, events);
    Ok(violations(&report))
}

/// `4 nodes`, `4 nodes, detector` or `3 shards x 3 nodes`.
fn shape(run: &Run) -> String {
    let config = config(run, run.seed);
    match (config.shards, config.detector) {
        (1, false) => format!("{} nodes", config.nodes),
        (1, true) => format!("{} nodes, detector", config.nodes),
        (shards, _) => format!("{shards} shards x {} nodes", config.nodes),
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

fn print_report(report: &ChaosReport, run: &Run, events: u64) {
    println!("chaos-soak seed {} ({})", report.seed, shape(run));
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
    if transfers(run) {
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
