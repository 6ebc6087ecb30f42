//! Seeded-schedule properties of the adaptive failure-detection pipeline
//! (8 drawn scenarios each; a failure names its scenario): seeded
//! determinism (byte-identical JSONL traces) and convergence back to
//! healthy with zero standing suspicions after heal + quiescence.

use dedisys_core::{
    nodes, Cluster, ClusterBuilder, DeferAll, DetectorKind, HighestVersionWins, JsonlExporter,
    RingRecorder, SharedBuf,
};
use dedisys_object::{AppDescriptor, ClassDescriptor, EntityState};
use dedisys_types::{ChaosRng, NodeId, ObjectId, SimDuration, SystemMode, Value};

#[path = "../crates/core/tests/promise/mod.rs"]
mod promise;

fn app() -> AppDescriptor {
    AppDescriptor::new("adaptive")
        .with_class(ClassDescriptor::new("Item").with_field("n", Value::Int(0)))
}

/// Builds a detector-driven cluster: φ-accrual detection, default
/// flap damping.
fn build(nodes: u32, seed: u64) -> Cluster {
    ClusterBuilder::new(nodes, app())
        .configure(|c| {
            c.membership.detector_enabled = true;
            c.membership.detector = DetectorKind::Adaptive;
            c.membership.seed = seed;
        })
        .build()
        .expect("detector cluster")
}

/// Runs a seeded flap scenario purely through the physical link layer
/// (the pipeline has to detect everything itself), then heals,
/// quiesces, and reconciles. Returns the cluster for final assertions.
fn run_scenario(
    seed: u64,
    nodes: u32,
    flaps: u32,
    period_ms: u64,
    trace: Option<SharedBuf>,
) -> Cluster {
    let mut cluster = build(nodes, seed);
    if let Some(buf) = trace {
        cluster
            .telemetry()
            .attach(Box::new(JsonlExporter::new(Box::new(buf))));
    }
    cluster
        .set_default_link_jitter(15_000)
        .expect("pipeline enabled");
    let id = ObjectId::new("Item", "I-0");
    let seed_id = id.clone();
    cluster
        .run_tx(NodeId(0), move |c, tx| {
            c.create(NodeId(0), tx, EntityState::for_class(c.app(), &seed_id)?)
        })
        .expect("seed item");
    let victim = NodeId(1 + (seed % u64::from(nodes - 1)) as u32);
    let rest: Vec<NodeId> = (0..nodes).map(NodeId).filter(|n| *n != victim).collect();
    let period = SimDuration::from_millis(period_ms);
    for round in 0..flaps {
        cluster
            .drop_links(&[vec![victim], rest.clone()])
            .expect("drop links");
        cluster.run_detector_for(period);
        // A write on each side of the physical cut: degraded-mode
        // residue on both sides once the cut was detected.
        for &writer in &[NodeId(0), victim] {
            let wid = id.clone();
            let value = Value::Int(i64::from(round));
            let _ = cluster.run_tx(writer, move |c, tx| {
                c.set_field(writer, tx, &wid, "n", value)
            });
        }
        cluster.heal_links().expect("heal links");
        cluster
            .set_default_link_jitter(15_000)
            .expect("pipeline enabled");
        cluster.run_detector_for(period);
    }
    // Heal and quiesce: penalties decay, the healthy view settles.
    cluster.heal_links().expect("heal links");
    let mut rounds = 0;
    while rounds < 120 && (cluster.standing_suspicions() > 0 || !cluster.topology().is_healthy()) {
        cluster.run_detector_for(SimDuration::from_secs(1));
        rounds += 1;
    }
    if cluster.needs_reconciliation() {
        cluster.reconcile(&mut HighestVersionWins, &mut DeferAll);
        promise::assert_kept(&cluster);
    }
    cluster
}

/// The scenario shape of case `case`: `(seed, nodes, flaps, period_ms)`.
/// Each property below draws its eight from a range of its own.
fn scenario_of(case: u64) -> (u64, u32, u32, u64) {
    let mut rng = ChaosRng::new(case);
    (
        rng.below(1_000),
        4 + rng.below(2) as u32,
        1 + rng.below(4) as u32,
        300 + rng.below(500),
    )
}

/// Same seed, same scenario ⇒ byte-identical JSONL traces. The
/// pipeline's suspicion, damping and install events are a pure
/// function of the seed and the virtual clock.
#[test]
fn same_seed_produces_byte_identical_traces() {
    for case in 0..8 {
        let (seed, _, _, period_ms) = scenario_of(case);
        let capture = || {
            let buf = SharedBuf::default();
            // Dropping the cluster drops the exporter, which flushes.
            drop(run_scenario(seed, 4, 4, period_ms, Some(buf.clone())));
            buf.bytes()
        };
        let (a, b) = (capture(), capture());
        assert!(!a.is_empty(), "seed {seed}: scenario produced no trace");
        assert_eq!(
            a, b,
            "seed {seed} period {period_ms} ms: same-seed traces must match byte for byte"
        );
    }
}

/// After healing every physical link and letting the detector
/// quiesce, no node suspects any other and the cluster is back in
/// healthy mode — the flap damping may delay reintegration but
/// never wedges it.
#[test]
fn healed_quiescent_cluster_is_healthy_with_zero_suspicions() {
    for case in 8..16 {
        let scenario @ (seed, nodes, flaps, period_ms) = scenario_of(case);
        let cluster = run_scenario(seed, nodes, flaps, period_ms, None);
        assert_eq!(
            cluster.standing_suspicions(),
            0,
            "{scenario:?}: standing suspicions after quiescence"
        );
        assert!(
            cluster.topology().is_healthy(),
            "{scenario:?}: topology still split"
        );
        assert_eq!(cluster.mode(), SystemMode::Healthy, "{scenario:?}");
    }
}

/// The cluster installs each view the pipeline stabilizes before the
/// pipeline runs on, so a trace reads as the paper's GMS notification
/// (Figure 4.6): within one `run_detector_for` window that covers node
/// 2's heal and node 3's cut, every `view_stabilized` is followed by its
/// `view_change`s and `mode_transition` before any later `suspicion_*`
/// or `flap_damped` event, and the call counts both installs.
#[test]
fn each_stabilized_view_is_installed_before_the_pipeline_runs_on() {
    let mut cluster = ClusterBuilder::new(4, app())
        .configure(|c| {
            c.membership.detector_enabled = true;
            c.membership.detector = DetectorKind::Adaptive;
            // No hold and no damping: a view stabilizes at the tick
            // that sees it.
            c.membership.settle = SimDuration::ZERO;
        })
        .build()
        .expect("detector cluster");
    cluster
        .drop_links(&[nodes![0, 1, 3], nodes![2]])
        .expect("drop links");
    assert_eq!(cluster.run_detector_for(SimDuration::from_secs(1)), 1);
    assert_eq!(cluster.mode(), SystemMode::Degraded);
    let ring = RingRecorder::new(1024);
    cluster.telemetry().attach(Box::new(ring.clone()));
    // Node 2 back, node 3 cut: the heal stabilizes at the next tick,
    // the cut once node 3 has been silent long enough.
    cluster
        .drop_links(&[nodes![0, 1, 2], nodes![3]])
        .expect("drop links");
    assert_eq!(cluster.run_detector_for(SimDuration::from_secs(1)), 2);
    assert_eq!(cluster.mode(), SystemMode::Degraded);

    let kinds = ring.kinds();
    let detector = |kind: &str| kind.starts_with("suspicion_") || kind == "flap_damped";
    let stabilized: Vec<usize> = (0..kinds.len())
        .filter(|&i| kinds[i] == "view_stabilized")
        .collect();
    assert_eq!(stabilized.len(), 2, "{kinds:?}");
    for &at in &stabilized {
        let install: Vec<&str> = kinds[at + 1..]
            .iter()
            .copied()
            .take_while(|&kind| !detector(kind) && kind != "view_stabilized")
            .collect();
        assert!(install.contains(&"view_change"), "{kinds:?}");
        assert_eq!(
            install
                .iter()
                .filter(|&&kind| kind == "mode_transition")
                .count(),
            1,
            "{kinds:?}"
        );
    }
    // The cut's suspicions come after the heal's install: the order
    // above is one the pipeline could have broken.
    assert!(
        kinds[stabilized[0]..stabilized[1]]
            .iter()
            .any(|&kind| detector(kind)),
        "{kinds:?}"
    );
}
