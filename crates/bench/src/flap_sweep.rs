//! The `flap-sweep` driver behind `repro flap-sweep`: quantifies how
//! much spurious mode churn the adaptive failure detector and the
//! flap-damping view stabilizer absorb, against the fixed-timeout
//! detector with a passthrough stabilizer on the same seed.
//!
//! For each flap period the driver runs one detector-driven cluster
//! per stabilizer setting, flaps the last node's physical links
//! `flaps` times (with a majority-side write per cycle, so the write
//! path runs under whatever view is installed), lets the pipeline
//! quiesce, and reads the `gms.detector.transitions` counter —
//! detector-caused mode transitions, all of them spurious because the
//! cluster is healthy again at the end. The adaptive column with the default damping
//! window must come out strictly below the fixed-timeout baseline,
//! and no cell may end with standing suspicions (exit 1 otherwise).
//!
//! Everything runs on the virtual clock with seeded jitter draws:
//! the same seed reproduces the table — and a `--trace` JSONL file —
//! byte for byte.

use dedisys_core::{ClusterBuilder, DetectorKind, StabilizerConfig};
use dedisys_object::{AppDescriptor, ClassDescriptor, EntityState};
use dedisys_types::{NodeId, ObjectId, SimDuration, Value};
use std::path::{Path, PathBuf};

/// Flap half-cycle lengths swept by the table, in milliseconds. All
/// exceed the fixed detector's 350 ms suspect timeout, so the
/// baseline suspects (and reinstalls views) on every single flap.
const PERIODS_MS: &[u64] = &[400, 600, 900];

/// Stabilizer settle windows swept per period, in milliseconds. The
/// middle value is [`StabilizerConfig::default`]'s window.
const SETTLES_MS: &[u64] = &[150, 300, 600];

/// Standing heartbeat jitter, so different seeds draw different
/// arrival patterns and the φ estimator has a spread to adapt to.
const HEARTBEAT_JITTER_MICROS: u64 = 20_000;

/// CLI options of `repro flap-sweep`.
#[derive(Debug, Clone)]
pub struct FlapSweepOptions {
    /// Seed of the pipeline's deterministic loss/jitter draws.
    pub seed: u64,
    /// Cluster size (the last node flaps; the rest stay a quorum).
    pub nodes: u32,
    /// Down/up cycles per table cell.
    pub flaps: u32,
    /// Run seeds `0..n` at the default period instead of one table.
    pub sweep: Option<u64>,
    /// JSONL trace destination (single runs only; cells append).
    pub trace: Option<PathBuf>,
}

impl Default for FlapSweepOptions {
    fn default() -> Self {
        Self {
            seed: 0,
            nodes: 5,
            flaps: 8,
            sweep: None,
            trace: None,
        }
    }
}

/// What one cluster run of the sweep table produced.
struct CellOutcome {
    /// Detector-caused mode transitions (`gms.detector.transitions`).
    transitions: u64,
    /// Suspicion flips absorbed by flap damping.
    damped: u64,
    /// Standing suspicions after quiescence (must be zero).
    standing: usize,
}

fn run_cell(
    opts: &FlapSweepOptions,
    period: SimDuration,
    kind: DetectorKind,
    stabilizer: StabilizerConfig,
    trace: Option<&Path>,
) -> CellOutcome {
    let app = AppDescriptor::new("flap-sweep")
        .with_class(ClassDescriptor::new("Item").with_field("n", Value::Int(0)));
    let mut cluster = ClusterBuilder::new(opts.nodes, app)
        .configure(|c| {
            c.membership.detector_enabled = true;
            c.membership.detector = kind;
            c.membership.stabilizer = stabilizer;
            c.membership.seed = opts.seed;
        })
        .build()
        .expect("flap-sweep cluster");
    if let Some(path) = trace {
        crate::attach_jsonl(cluster.telemetry(), path);
    }
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
    let flapper = NodeId(opts.nodes - 1);
    let rest: Vec<NodeId> = (0..opts.nodes - 1).map(NodeId).collect();
    for round in 0..opts.flaps {
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

/// Runs the sweep per `opts`; exits the process with status 1 when
/// the adaptive pipeline fails to beat the baseline or an invariant
/// breaks.
pub fn run(opts: &FlapSweepOptions) {
    match opts.sweep {
        Some(n) => sweep(opts, n),
        None => single(opts),
    }
}

fn check_cell(label: &str, cell: &CellOutcome, failures: &mut u64) {
    if cell.standing != 0 {
        eprintln!(
            "flap-sweep: {label}: {} standing suspicion(s) after quiescence",
            cell.standing
        );
        *failures += 1;
    }
}

fn single(opts: &FlapSweepOptions) {
    println!(
        "flap-sweep seed {} ({} nodes, {} flaps per cell, flapping n{})",
        opts.seed,
        opts.nodes,
        opts.flaps,
        opts.nodes - 1
    );
    println!("  spurious mode transitions by flap period x damping window:");
    println!(
        "  period | fixed+passthrough | settle=150ms | settle=300ms | settle=600ms | damped@300ms"
    );
    let mut failures = 0u64;
    for &period_ms in PERIODS_MS {
        let period = SimDuration::from_millis(period_ms);
        let baseline = run_cell(
            opts,
            period,
            DetectorKind::FixedTimeout,
            StabilizerConfig::passthrough(),
            opts.trace.as_deref(),
        );
        let adaptives: Vec<CellOutcome> = SETTLES_MS
            .iter()
            .map(|&settle_ms| {
                run_cell(
                    opts,
                    period,
                    DetectorKind::Adaptive,
                    StabilizerConfig {
                        settle: SimDuration::from_millis(settle_ms),
                        ..StabilizerConfig::default()
                    },
                    opts.trace.as_deref(),
                )
            })
            .collect();
        println!(
            "  {period_ms:>4}ms | {:>17} | {:>12} | {:>12} | {:>12} | {:>12}",
            baseline.transitions,
            adaptives[0].transitions,
            adaptives[1].transitions,
            adaptives[2].transitions,
            adaptives[1].damped
        );
        let default_adaptive = &adaptives[1];
        if baseline.transitions == 0 {
            eprintln!(
                "flap-sweep: period {period_ms}ms: baseline produced no transitions — nothing to damp"
            );
            failures += 1;
        } else if default_adaptive.transitions >= baseline.transitions {
            eprintln!(
                "flap-sweep: period {period_ms}ms: adaptive {} >= fixed-timeout {}",
                default_adaptive.transitions, baseline.transitions
            );
            failures += 1;
        }
        check_cell(
            &format!("period {period_ms}ms baseline"),
            &baseline,
            &mut failures,
        );
        for (settle_ms, cell) in SETTLES_MS.iter().zip(&adaptives) {
            check_cell(
                &format!("period {period_ms}ms settle {settle_ms}ms"),
                cell,
                &mut failures,
            );
        }
    }
    println!(
        "  verdict: {}",
        if failures == 0 {
            "adaptive + damping strictly below fixed-timeout on every row".to_string()
        } else {
            format!("{failures} FAILURE(S)")
        }
    );
    if failures > 0 {
        std::process::exit(1);
    }
}

fn sweep(opts: &FlapSweepOptions, seeds: u64) {
    let period = SimDuration::from_millis(600);
    let mut dirty = 0u64;
    for seed in 0..seeds {
        let cell_opts = FlapSweepOptions {
            seed,
            trace: None,
            ..opts.clone()
        };
        let baseline = run_cell(
            &cell_opts,
            period,
            DetectorKind::FixedTimeout,
            StabilizerConfig::passthrough(),
            None,
        );
        let adaptive = run_cell(
            &cell_opts,
            period,
            DetectorKind::Adaptive,
            StabilizerConfig::default(),
            None,
        );
        let mut failures = 0u64;
        if baseline.transitions == 0 {
            eprintln!("flap-sweep: seed {seed}: baseline produced no transitions");
            failures += 1;
        } else if adaptive.transitions >= baseline.transitions {
            eprintln!(
                "flap-sweep: seed {seed}: adaptive {} >= fixed-timeout {}",
                adaptive.transitions, baseline.transitions
            );
            failures += 1;
        }
        check_cell(&format!("seed {seed} baseline"), &baseline, &mut failures);
        check_cell(&format!("seed {seed} adaptive"), &adaptive, &mut failures);
        if failures > 0 {
            dirty += 1;
        }
    }
    println!(
        "flap-sweep sweep: {seeds} seeds x {} flaps at 600ms — {dirty} seed(s) with failures",
        opts.flaps
    );
    if dirty > 0 {
        std::process::exit(1);
    }
}
