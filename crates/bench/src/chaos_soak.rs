//! `repro chaos-soak`: one seeded chaos run (optionally traced to
//! JSONL) or a multi-seed sweep, over one shard or, with `--shards K`,
//! a federation of K — every shard runs the paper's three applications
//! under their constraints and its share of the planned faults, and
//! cross-shard transfers run among them.
//!
//! A fixed seed reproduces the run exactly — same schedule, same
//! draws, same workload, same virtual-time trajectory, byte-identical
//! trace file (the federation's bus and every shard's); `receipts.txt`
//! pins single seeds and sweeps on one shard and on three. A single
//! seed that breaks an invariant is shrunk: its schedule is cut down to
//! the steps a violation of that invariant needs, and the minimal
//! schedule is printed with the runs it took.
//!
//! Contract: the invariant checker stays silent on every seed — the
//! threat-completeness audit (`Cluster::audit`) included, which finds
//! every violation of an enabled invariant in the committed state
//! explained at every checkpoint, none after the final repair, and no
//! threat standing whose constraint holds. A sweep must also be
//! constrained: summed over its seeds, threats are stored, threats are
//! negotiated under both timings, the repairing handler is called and
//! the rollback search tries candidates.

use crate::engine::{ChaosConfig, ChaosEngine, ChaosReport, ConstraintActivity};
use crate::invariant::InvariantViolation;
use crate::{BadFlags, Run, Verdict};
use dedisys_core::{NegotiationTiming, StatsSnapshot};
use dedisys_federation::FederationStats;

/// The engine configuration for `seed`: the flags given, the engine's
/// defaults for the rest.
fn config(run: &Run, seed: u64) -> ChaosConfig {
    let default = ChaosConfig::default();
    ChaosConfig {
        nodes: run.nodes.unwrap_or(default.nodes),
        ops: run.ops.unwrap_or(default.ops),
        faults: run.faults.unwrap_or(default.faults),
        seed,
        shards: run.shards.unwrap_or(default.shards),
        detector: run.detector,
    }
}

/// The engine for `seed`; an invalid shape is a bad command line.
fn engine(run: &Run, seed: u64) -> Result<ChaosEngine, BadFlags> {
    ChaosEngine::new(config(run, seed)).map_err(|e| BadFlags(e.to_string()))
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
    let mut x = FederationStats::default();
    let (mut failures, dirty) = run.sweep_seeds(seeds, |seed| {
        let report = engine(run, seed)?.run().expect("chaos run");
        let c = report.constraints;
        total.threats_stored += c.threats_stored;
        total.handler_calls += c.handler_calls;
        total.rollback_candidates += c.rollback_candidates;
        let deferred = report.draws.negotiation_timing == NegotiationTiming::Deferred;
        negotiated[usize::from(deferred)] += c.negotiations;
        let f = report.federation;
        x.xshard_begun += f.xshard_begun;
        x.xshard_committed += f.xshard_committed;
        x.xshard_aborted += f.xshard_aborted;
        x.xshard_presumed_aborted += f.xshard_presumed_aborted;
        let verdict = if report.clean() { "clean" } else { "VIOLATED" };
        println!(
            "  seed {seed:>4}: {} ok, {} failed, {} faults applied: {verdict}",
            report.ops_ok, report.ops_failed, report.faults_applied
        );
        Ok(violations(&report))
    })?;
    println!(
        "chaos-soak sweep ({}): {seeds} seeds x {} ops — {dirty} seed(s) with violations",
        shape(run),
        config(run, run.seed).ops
    );
    let [immediate, deferred] = negotiated;
    println!(
        "  constraints: {} threats stored, {immediate} negotiated immediate + {deferred} \
         deferred, {} repairs, {} rollback candidates",
        total.threats_stored, total.handler_calls, total.rollback_candidates
    );
    println!("  xshard: {}", xshard(&x));
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
    Ok(failures)
}

fn single(run: &Run) -> Verdict {
    let engine = engine(run, run.seed)?;
    let buses: Vec<_> = engine.buses().cloned().collect();
    for bus in &buses {
        run.trace.attach(bus);
    }
    let report = engine.run().expect("chaos run");
    let events = buses.iter().map(|bus| bus.events_emitted()).sum();
    // The last handles on the traced buses: dropping them flushes the
    // trace.
    drop(buses);
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

/// `4 nodes`, `3 shards x 4 nodes`, either with `, detector`.
fn shape(run: &Run) -> String {
    let config = config(run, run.seed);
    let mut shape = format!("{} nodes", config.nodes);
    if config.shards > 1 {
        shape = format!("{} shards x {shape}", config.shards);
    }
    if config.detector {
        shape += ", detector";
    }
    shape
}

/// The cross-shard outcomes `x` counts.
fn xshard(x: &FederationStats) -> String {
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
    println!("  xshard:   {}", xshard(&report.federation));
    let shards = report.final_stats.iter();
    let sum = |count: fn(&StatsSnapshot) -> u64| shards.clone().map(count).sum::<u64>();
    println!(
        "  tx:       {} begun = {} committed + {} rolled back",
        sum(|s| s.tx.begun),
        sum(|s| s.tx.committed),
        sum(|s| s.tx.rolled_back)
    );
    println!(
        "  ship:     {} retries, {} exhausted, {} lag skips",
        sum(|s| s.replication.ship_retries),
        sum(|s| s.replication.ship_failures),
        sum(|s| s.replication.lagged_skips)
    );
    let c = report.constraints;
    let lost = report.violations.iter();
    let lost = lost.filter(|v| v.invariant.starts_with("threat_")).count();
    println!(
        "  oracle:   {} threats stored, {} negotiated, {} repairs, {} rollback candidates; \
         {lost} unexplained",
        c.threats_stored, c.negotiations, c.handler_calls, c.rollback_candidates
    );
    println!(
        "  virtual time: {:.3} s, {events} trace events",
        report.final_stats[0].now_ns as f64 / 1e9
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
    use crate::engine::SoakDraws;
    use crate::{BadFlags, Run};
    use dedisys_core::{NegotiationTiming, ReconcileInstructions};
    use dedisys_types::SatisfactionDegree;

    /// The single-seed one-shard lines of `receipts.txt` together
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

    /// `--faults` and `--detector` shape a federation's run as they do
    /// one shard's; a shape the engine cannot build is still a bad
    /// command line.
    #[test]
    fn faults_and_the_detector_are_accepted_on_a_federation() {
        let federation = |shards| Run {
            shards: Some(shards),
            faults: Some(0),
            detector: true,
            ..Run::default()
        };
        assert!(super::engine(&federation(3), 3).is_ok());
        assert!(matches!(super::engine(&federation(0), 3), Err(BadFlags(_))));
    }
}
