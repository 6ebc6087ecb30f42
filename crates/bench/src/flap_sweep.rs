//! `repro flap-sweep`: quantifies how much spurious mode churn the
//! adaptive failure detector and the flap-damping view stabilizer
//! absorb, against the fixed-timeout detector with a passthrough
//! stabilizer on the same seed.
//!
//! For each flap period the driver runs one detector-driven cluster
//! per stabilizer setting, flaps the last node's physical links
//! `--flaps` times (with a majority-side write per cycle, so the write
//! path runs under whatever view is installed), lets the pipeline
//! quiesce, and reads the `gms.detector.transitions` counter —
//! detector-caused mode transitions, all of them spurious because the
//! cluster is healthy again at the end. Contract ([`contract`]): the
//! baseline fires, the adaptive column with the default damping window
//! damps and comes out strictly below it, and no cell ends with
//! standing suspicions.
//!
//! Everything runs on the virtual clock with seeded jitter draws:
//! the same seed reproduces the table — and a `--trace` JSONL file —
//! byte for byte.

use crate::table::print_verdict;
use crate::{require, Run, Verdict};
use dedisys_core::{ClusterBuilder, DetectorKind, MembershipConfig};
use dedisys_object::{AppDescriptor, ClassDescriptor, EntityState};
use dedisys_types::{NodeId, ObjectId, SimDuration, Value};

/// Flap half-cycle lengths swept by the table, in milliseconds. All
/// exceed the fixed detector's 350 ms suspect timeout, so the
/// baseline suspects (and reinstalls views) on every single flap.
const PERIODS_MS: &[u64] = &[400, 600, 900];

/// Stabilizer settle windows swept per period, in milliseconds. The
/// middle value is [`MembershipConfig`]'s default `settle`.
const SETTLES_MS: &[u64] = &[150, 300, 600];

/// Standing heartbeat jitter, so different seeds draw different
/// arrival patterns and the φ estimator has a spread to adapt to.
const HEARTBEAT_JITTER_MICROS: u64 = 20_000;

/// `--nodes` (default 5: the last node flaps, the rest stay a quorum)
/// and `--flaps` (default 8 down/up cycles per cell).
fn size(run: &Run) -> (u32, u32) {
    (run.nodes.unwrap_or(5), run.flaps.unwrap_or(8))
}

/// What one cluster run of the sweep table produced.
pub(crate) struct CellOutcome {
    /// Detector-caused mode transitions (`gms.detector.transitions`).
    pub(crate) transitions: u64,
    /// Suspicion flips absorbed by flap damping.
    pub(crate) damped: u64,
    /// Standing suspicions after quiescence (must be zero).
    pub(crate) standing: usize,
}

fn run_cell(
    run: &Run,
    seed: u64,
    period: SimDuration,
    kind: DetectorKind,
    settle: SimDuration,
) -> CellOutcome {
    let (nodes, flaps) = size(run);
    let app = AppDescriptor::new("flap-sweep")
        .with_class(ClassDescriptor::new("Item").with_field("n", Value::Int(0)));
    let mut cluster = run.cluster(ClusterBuilder::new(nodes, app).configure(|c| {
        c.membership.detector_enabled = true;
        c.membership.detector = kind;
        c.membership.settle = settle;
        c.membership.seed = seed;
    }));
    cluster
        .set_default_link_jitter(HEARTBEAT_JITTER_MICROS)
        .expect("pipeline enabled");
    let id = ObjectId::new("Item", "I-0");
    let seed_id = id.clone();
    cluster
        .run_tx(NodeId(0), move |c, tx| {
            c.create(NodeId(0), tx, EntityState::for_class(c.app(), &seed_id)?)
        })
        .expect("seed item");
    let flapper = NodeId(nodes - 1);
    let rest: Vec<NodeId> = (0..nodes - 1).map(NodeId).collect();
    for round in 0..flaps {
        cluster
            .drop_links(&[vec![flapper], rest.clone()])
            .expect("drop links");
        cluster.run_detector_for(period);
        // One majority-side write per cycle, under whatever view the
        // detector has installed by now.
        let wid = id.clone();
        let value = Value::Int(i64::from(round));
        let _ = cluster.run_tx(NodeId(0), move |c, tx| {
            c.set_field(NodeId(0), tx, &wid, "n", value)
        });
        cluster.heal_links().expect("heal links");
        // Healing clears standing link faults including the default
        // jitter — re-arm it so every cycle draws from the same
        // seeded spread.
        cluster
            .set_default_link_jitter(HEARTBEAT_JITTER_MICROS)
            .expect("pipeline enabled");
        cluster.run_detector_for(period);
    }
    // Quiesce: decay the damping penalties and settle the healthy view.
    let mut rounds = 0;
    while rounds < 120 && (cluster.standing_suspicions() > 0 || !cluster.topology().is_healthy()) {
        cluster.run_detector_for(SimDuration::from_secs(1));
        rounds += 1;
    }
    let metrics = cluster.telemetry().metrics();
    CellOutcome {
        transitions: metrics.counter("gms.detector.transitions"),
        damped: metrics.counter("gms.detector.flaps_damped"),
        standing: cluster.standing_suspicions(),
    }
}

/// The damping contract over one flap period's cells — the
/// fixed-timeout baseline first, then adaptive cells, `default` the
/// one with the default window: the baseline fires, the default-window
/// cell damps and stays strictly below it, and no cell ends with a
/// standing suspicion.
pub(crate) fn contract(cells: &[CellOutcome], default: usize) -> Vec<String> {
    let (baseline, adaptive) = (&cells[0], &cells[default]);
    let mut failures = Vec::new();
    if baseline.transitions == 0 {
        failures.push("baseline produced no transitions — nothing to damp".to_owned());
    } else if adaptive.transitions >= baseline.transitions {
        failures.push(format!(
            "adaptive {} >= fixed-timeout {}",
            adaptive.transitions, baseline.transitions
        ));
    }
    if adaptive.damped == 0 {
        failures.push("the default-window cell damped no flap".to_owned());
    }
    for (i, cell) in cells.iter().enumerate().filter(|(_, c)| c.standing != 0) {
        failures.push(format!(
            "cell {i}: {} standing suspicion(s) after quiescence",
            cell.standing
        ));
    }
    failures
}

/// The period × damping-window table for one seed, or the default
/// period over the seeds of `--sweep`.
pub fn run(run: &Run) -> Verdict {
    let (nodes, flaps) = size(run);
    require(
        nodes >= 3,
        "needs a quorum-capable cluster (--nodes 3 or more)",
    )?;
    // A zero settle window is the passthrough baseline: no hold, no
    // damping.
    let fixed = |seed, period| {
        run_cell(
            run,
            seed,
            period,
            DetectorKind::FixedTimeout,
            SimDuration::ZERO,
        )
    };
    let adaptive =
        |seed, period, settle| run_cell(run, seed, period, DetectorKind::Adaptive, settle);
    if let Some(seeds) = run.sweep {
        let period = SimDuration::from_millis(600);
        let settle = MembershipConfig::default().settle;
        let (failures, dirty) = run.sweep_seeds(seeds, |seed| {
            Ok(contract(
                &[fixed(seed, period), adaptive(seed, period, settle)],
                1,
            ))
        })?;
        println!(
            "flap-sweep sweep: {seeds} seeds x {flaps} flaps at 600ms — {dirty} seed(s) with failures"
        );
        return Ok(failures);
    }
    println!(
        "flap-sweep seed {} ({nodes} nodes, {flaps} flaps per cell, flapping n{})",
        run.seed,
        nodes - 1
    );
    println!("  spurious mode transitions by flap period x damping window:");
    println!(
        "  period | fixed+passthrough | settle=150ms | settle=300ms | settle=600ms | damped@300ms"
    );
    let mut failures = Vec::new();
    for &period_ms in PERIODS_MS {
        let period = SimDuration::from_millis(period_ms);
        let mut cells = vec![fixed(run.seed, period)];
        for &settle_ms in SETTLES_MS {
            cells.push(adaptive(
                run.seed,
                period,
                SimDuration::from_millis(settle_ms),
            ));
        }
        println!(
            "  {period_ms:>4}ms | {:>17} | {:>12} | {:>12} | {:>12} | {:>12}",
            cells[0].transitions,
            cells[1].transitions,
            cells[2].transitions,
            cells[3].transitions,
            cells[2].damped
        );
        let broken = contract(&cells, 2);
        failures.extend(broken.iter().map(|f| format!("period {period_ms}ms: {f}")));
    }
    print_verdict(
        &failures,
        "adaptive + damping strictly below fixed-timeout on every row",
    );
    Ok(failures)
}
