//! `repro chaos-soak`: one seeded chaos run (optionally traced to
//! JSONL) or a multi-seed sweep, of either workload mix — the
//! application mix on one shard (the paper's three applications under
//! their constraints), or the cross-shard transfer mix with
//! `--shards K`.
//!
//! A fixed seed reproduces the run exactly — same schedule, same
//! draws, same workload, same virtual-time trajectory, byte-identical
//! trace file; `receipts.txt` pins single seeds and sweeps of both
//! mixes. A single seed that breaks an invariant is shrunk: its
//! schedule is cut down to the steps a violation of that invariant
//! needs, and the minimal schedule is printed with the runs it took.
//!
//! Contract: the invariant checker stays silent on every seed — the
//! threat-completeness audit (`Cluster::audit`) included, which finds
//! every violation of an enabled invariant in the committed state
//! explained at every checkpoint, none after the final repair, and no
//! threat standing whose constraint holds. An application-mix sweep must also be
//! constrained: summed over its seeds, threats are stored, threats are
//! negotiated under both timings, the repairing handler is called and
//! the rollback search tries candidates.

use crate::{require, BadFlags, Run, Verdict};
use dedisys_chaos::{
    ChaosConfig, ChaosEngine, ChaosReport, ConstraintActivity, InvariantViolation,
};
use dedisys_core::NegotiationTiming;

/// The engine configuration for `seed`. One shard runs the application
/// mix (4 nodes, 300 ops by default), more the cross-shard transfer mix
/// (3 nodes, 200 ops).
fn config(run: &Run, seed: u64) -> ChaosConfig {
    let default = ChaosConfig::default();
    let shards = run.shards.unwrap_or(default.shards);
    let apps = shards == 1;
    ChaosConfig {
        nodes: run.nodes.unwrap_or(if apps { default.nodes } else { 3 }),
        ops: run.ops.unwrap_or(if apps { default.ops } else { 200 }),
        faults: run.faults.unwrap_or(default.faults),
        seed,
        shards,
        detector: run.detector,
    }
}

/// The engine for `seed`; an invalid shape is a bad command line, and
/// so is `--faults` on the transfer mix, whose ops draw their faults.
fn engine(run: &Run, seed: u64) -> Result<ChaosEngine, BadFlags> {
    require(
        !(transfers(run) && run.faults.is_some()),
        "--faults is for the application mix: the transfer mix draws its faults per op",
    )?;
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
    // Constraint activity summed over the seeds, negotiations split by
    // the timing each seed drew: [Immediate, Deferred].
    let mut total = ConstraintActivity::default();
    let mut negotiated = [0; 2];
    let (mut failures, dirty) = run.sweep_seeds(seeds, |seed| {
        let report = engine(run, seed)?.run().expect("chaos run");
        let c = report.constraints;
        total.threats_stored += c.threats_stored;
        total.handler_calls += c.handler_calls;
        total.rollback_candidates += c.rollback_candidates;
        if let Some(draws) = &report.draws {
            let deferred = draws.negotiation_timing == NegotiationTiming::Deferred;
            negotiated[usize::from(deferred)] += c.negotiations;
        }
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
    if !transfers(run) {
        let [immediate, deferred] = negotiated;
        println!(
            "  constraints: {} threats stored, {immediate} negotiated immediate + {deferred} \
             deferred, {} repairs, {} rollback candidates",
            total.threats_stored, total.handler_calls, total.rollback_candidates
        );
        let constrained = [
            total.threats_stored,
            immediate,
            deferred,
            total.handler_calls,
            total.rollback_candidates,
        ];
        if constrained.contains(&0) {
            failures.push("the sweep is not constrained: a constraint count is zero".into());
        }
    }
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
    if let Some(first) = report.violations.first() {
        shrink(run, &report, first.invariant);
    }
    Ok(violations(&report))
}

/// Shrinks `report`'s schedule against "a violation of `invariant`" and
/// prints the minimal schedule, the runs that took and the minimal
/// run's first violation of `invariant`.
fn shrink(run: &Run, report: &ChaosReport, invariant: &str) {
    let first = |violations: &[InvariantViolation]| {
        violations
            .iter()
            .find(|v| v.invariant == invariant)
            .cloned()
    };
    let mut finding = first(&report.violations);
    let (minimal, runs) = report.schedule.shrink(|schedule| {
        let engine = engine(run, run.seed).expect("the shape ran once");
        let found = first(&engine.run_schedule(schedule).expect("chaos run").violations);
        let fails = found.is_some();
        if fails {
            finding = found;
        }
        fails
    });
    println!(
        "  shrunk:   {} -> {} steps in {runs} runs",
        report.schedule.steps.len(),
        minimal.steps.len()
    );
    println!("  schedule: {minimal}");
    if let Some(finding) = finding {
        println!("  first:    {finding}");
    }
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
        let c = report.constraints;
        let lost = report.violations.iter();
        let lost = lost.filter(|v| v.invariant.starts_with("threat_")).count();
        println!(
            "  oracle:   {} threats stored, {} negotiated, {} repairs, {} rollback candidates; \
             {lost} unexplained",
            c.threats_stored, c.negotiations, c.handler_calls, c.rollback_candidates
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

#[cfg(test)]
mod tests {
    use crate::{BadFlags, Run};
    use dedisys_chaos::SoakDraws;
    use dedisys_core::{NegotiationTiming, ReconcileInstructions};
    use dedisys_types::SatisfactionDegree;

    /// The single-seed application-mix lines of `receipts.txt` together
    /// draw the request plane, both negotiation timings and a
    /// non-default value of every setting the seed draws, so the
    /// receipts pin a trajectory through each.
    #[test]
    fn pinned_seeds_draw_every_setting() {
        let draws: Vec<SoakDraws> = include_str!("../receipts.txt")
            .lines()
            .filter(|line| line.starts_with("chaos-soak --seed ") && !line.contains("--shards"))
            .map(|line| {
                let seed = line.split_whitespace().nth(2).expect("a seed");
                SoakDraws::of(seed.parse().expect("a numeric seed"), 4)
            })
            .collect();
        assert_eq!(draws.len(), 3, "42, 7 and 11 --detector");
        assert!(draws.iter().any(|d| d.plane));
        for timing in [NegotiationTiming::Immediate, NegotiationTiming::Deferred] {
            assert!(draws.iter().any(|d| d.negotiation_timing == timing));
        }
        assert!(draws
            .iter()
            .any(|d| d.app_default_min_degree != SatisfactionDegree::Satisfied));
        assert!(draws.iter().any(|d| d.weights.is_some()));
        assert!(draws
            .iter()
            .any(|d| d.instructions != ReconcileInstructions::default()));
    }

    /// `--faults` sets the application mix's fault count; the transfer
    /// mix draws its faults per op, so there it is refused, not ignored.
    #[test]
    fn faults_on_the_transfer_mix_are_a_bad_command_line() {
        let transfer = |faults| Run {
            shards: Some(3),
            faults,
            ..Run::default()
        };
        assert!(matches!(
            super::engine(&transfer(Some(0)), 3),
            Err(BadFlags(_))
        ));
        assert!(super::engine(&transfer(None), 3).is_ok());
        let apps = Run {
            faults: Some(0),
            ..Run::default()
        };
        assert!(super::engine(&apps, 3).is_ok());
    }
}
