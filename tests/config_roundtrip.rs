//! The consolidated [`ClusterConfig`] API round-trips: any typed
//! configuration given to the builder is the configuration observed on
//! the running cluster (per-subsystem getters read back from the live
//! components, not from the config copy), runtime deltas applied via
//! [`Cluster::reconfigure`] land atomically with one `reconfigure`
//! event, and the two typed builder spellings (`with_config` and
//! `configure`) are behaviourally identical — byte-identical traces on
//! the same workload.

use dedisys_constraints::LookupMode;
use dedisys_core::{
    nodes, Cluster, ClusterBuilder, ClusterConfig, ConstraintEngine, DetectorKind, HistoryPolicy,
    JsonlExporter, MinorityWriteHandling, NegotiationTiming, PrimaryPartitionPolicy,
    ReconcileStrategy, RingRecorder,
};
use dedisys_object::{AppDescriptor, ClassDescriptor, EntityState};
use dedisys_types::{Error, NodeId, ObjectId, SatisfactionDegree, SimDuration, Value};
use proptest::prelude::*;
use std::io::Write;
use std::sync::{Arc, Mutex};

fn app() -> AppDescriptor {
    AppDescriptor::new("config-roundtrip")
        .with_class(ClassDescriptor::new("Item").with_field("v", Value::Int(0)))
}

fn arb_engine() -> impl Strategy<Value = ConstraintEngine> {
    prop_oneof![
        Just(ConstraintEngine::Interpreted),
        Just(ConstraintEngine::Compiled),
    ]
}

fn arb_lookup() -> impl Strategy<Value = LookupMode> {
    prop_oneof![Just(LookupMode::Cached), Just(LookupMode::Scan)]
}

fn arb_timing() -> impl Strategy<Value = NegotiationTiming> {
    prop_oneof![
        Just(NegotiationTiming::Immediate),
        Just(NegotiationTiming::Deferred),
    ]
}

fn arb_degree() -> impl Strategy<Value = SatisfactionDegree> {
    prop_oneof![
        Just(SatisfactionDegree::Satisfied),
        Just(SatisfactionDegree::PossiblySatisfied),
        Just(SatisfactionDegree::PossiblyViolated),
        Just(SatisfactionDegree::Uncheckable),
    ]
}

fn arb_threat_policy() -> impl Strategy<Value = HistoryPolicy> {
    prop_oneof![
        Just(HistoryPolicy::IdenticalOnce),
        Just(HistoryPolicy::FullHistory),
        Just(HistoryPolicy::Reduced),
    ]
}

fn arb_reconcile() -> impl Strategy<Value = ReconcileStrategy> {
    prop_oneof![
        Just(ReconcileStrategy::FullScan),
        Just(ReconcileStrategy::Incremental),
    ]
}

fn arb_primary_policy() -> impl Strategy<Value = PrimaryPartitionPolicy> {
    prop_oneof![
        Just(PrimaryPartitionPolicy::AlwaysPrimary),
        Just(PrimaryPartitionPolicy::MajorityNodes),
        Just(PrimaryPartitionPolicy::WeightedQuorum),
    ]
}

fn arb_minority() -> impl Strategy<Value = MinorityWriteHandling> {
    prop_oneof![
        Just(MinorityWriteHandling::Degrade),
        Just(MinorityWriteHandling::Refuse),
    ]
}

fn arb_detector() -> impl Strategy<Value = (bool, DetectorKind, u64)> {
    (
        any::<bool>(),
        prop_oneof![
            Just(DetectorKind::FixedTimeout),
            Just(DetectorKind::Adaptive)
        ],
        0u64..1_000,
    )
}

fn arb_deadline() -> impl Strategy<Value = Option<SimDuration>> {
    prop_oneof![
        Just(None),
        (1u64..=2_000).prop_map(|ms| Some(SimDuration::from_millis(ms))),
    ]
}

/// One strategy per config section, combined as a nested tuple (flat
/// tuples of strategies stop at 12 fields).
fn arb_config() -> impl Strategy<Value = ClusterConfig> {
    let validation = (
        arb_engine(),
        any::<bool>(),
        arb_lookup(),
        arb_timing(),
        arb_degree(),
    );
    let membership = (arb_detector(), arb_primary_policy(), arb_minority());
    let durability = (
        arb_threat_policy(),
        arb_reconcile(),
        0usize..64,
        any::<bool>(),
    );
    let plane = (
        1u32..=64,
        1u64..=10_000,
        1u32..=64,
        any::<bool>(),
        arb_deadline(),
    );
    (validation, membership, durability, plane).prop_map(|(v, m, d, p)| {
        let mut config = ClusterConfig::default();
        let (engine, verdict_cache, lookup_mode, timing, degree) = v;
        config.validation.engine = engine;
        config.validation.verdict_cache = verdict_cache;
        config.validation.lookup_mode = lookup_mode;
        config.validation.negotiation_timing = timing;
        config.validation.app_default_min_degree = degree;
        let ((enabled, kind, seed), primary_policy, minority_writes) = m;
        config.membership.detector_enabled = enabled;
        config.membership.detector = kind;
        config.membership.seed = seed;
        config.membership.primary_policy = primary_policy;
        config.membership.minority_writes = minority_writes;
        let (threat_policy, reconcile_strategy, compaction_threshold, reduced) = d;
        config.durability.threat_policy = threat_policy;
        config.durability.reconcile_strategy = reconcile_strategy;
        config.durability.compaction_threshold = compaction_threshold;
        config.durability.reduced_replica_history = reduced;
        let (queue_capacity, refill_per_second, burst, shed, deadline_normal) = p;
        config.plane.queue_capacity = queue_capacity;
        config.plane.refill_per_second = refill_per_second;
        config.plane.burst = burst;
        config.plane.shed_background_when_degraded = shed;
        config.plane.deadline_normal = deadline_normal;
        config
    })
}

/// What the builder is documented to normalize before the config
/// reaches the running cluster.
fn clamped(mut config: ClusterConfig) -> ClusterConfig {
    config.durability.compaction_threshold = config.durability.compaction_threshold.max(1);
    config
}

/// Asserts that a *running* cluster reports the config it was
/// promised: every field through `config()` (the only spelling for the
/// fields the cluster itself consults), and — where a subsystem keeps
/// its own copy — the value read back from the CCM, the replication
/// manager, the threat store and the membership pipeline.
fn assert_observed_matches(cluster: &Cluster, expected: &ClusterConfig) {
    assert_eq!(cluster.config(), expected);
    assert_eq!(
        cluster.negotiation_timing(),
        expected.validation.negotiation_timing
    );
    assert_eq!(
        cluster.app_default_min_degree(),
        expected.validation.app_default_min_degree
    );
    assert_eq!(
        cluster.reduced_replica_history(),
        expected.durability.reduced_replica_history
    );
    assert_eq!(
        cluster.threats().policy(),
        expected.durability.threat_policy
    );
    assert_eq!(
        cluster.detector_enabled(),
        expected.membership.detector_enabled
    );
    if expected.membership.detector_enabled {
        let observed = cluster.config().membership;
        assert_eq!(observed.detector, expected.membership.detector);
        assert_eq!(
            observed.detector_config,
            expected.membership.detector_config
        );
        assert_eq!(observed.adaptive, expected.membership.adaptive);
        assert_eq!(observed.stabilizer, expected.membership.stabilizer);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any typed config given to the builder is the config observed on
    /// the running cluster, including after a committed operation.
    #[test]
    fn config_round_trips_from_builder_to_running_cluster(config in arb_config()) {
        let mut cluster = ClusterBuilder::new(3, app())
            .with_config(config)
            .build()
            .expect("build");
        // Exercise the cluster so "observed" means a *running* system,
        // not a freshly wired one. The full topology is primary under
        // every policy, so the write is admitted regardless of knobs.
        let id = ObjectId::new("Item", "i0");
        cluster
            .run_tx(NodeId(0), move |c, tx| {
                c.create(NodeId(0), tx, EntityState::for_class(c.app(), &id)?)
            })
            .expect("seed write");
        assert_observed_matches(&cluster, &clamped(config));
    }

    /// Runtime deltas via `reconfigure` land in the live subsystems,
    /// return exactly the changed dotted paths, and emit one
    /// `reconfigure` event (none when nothing changed).
    #[test]
    fn reconfigure_applies_and_reports_runtime_deltas(
        timing in arb_timing(),
        degree in arb_degree(),
        cache in any::<bool>(),
        strategy in arb_reconcile(),
        reduced in any::<bool>(),
        burst in 1u32..=64,
    ) {
        let mut cluster = ClusterBuilder::new(3, app()).build().expect("build");
        let ring = RingRecorder::new(256);
        cluster.telemetry().attach(Box::new(ring.clone()));
        let changed = cluster
            .reconfigure(|c| {
                c.validation.negotiation_timing = timing;
                c.validation.app_default_min_degree = degree;
                c.validation.verdict_cache = cache;
                c.durability.reconcile_strategy = strategy;
                c.durability.reduced_replica_history = reduced;
                c.plane.burst = burst;
            })
            .expect("runtime-only delta");
        prop_assert_eq!(cluster.negotiation_timing(), timing);
        prop_assert_eq!(cluster.app_default_min_degree(), degree);
        prop_assert_eq!(cluster.config().validation.verdict_cache, cache);
        prop_assert_eq!(cluster.config().durability.reconcile_strategy, strategy);
        prop_assert_eq!(cluster.reduced_replica_history(), reduced);
        prop_assert_eq!(cluster.config().plane.burst, burst);
        // The returned paths are exactly the fields that now differ
        // from the default the cluster started with.
        let expected_paths = ClusterConfig::default().diff(cluster.config());
        prop_assert_eq!(&changed, &expected_paths);
        let events = ring.records_of_kind("reconfigure");
        prop_assert_eq!(events.len(), usize::from(!changed.is_empty()));
        // Applying the same delta again is a no-op: no paths, no event.
        let again = cluster
            .reconfigure(|c| {
                c.validation.negotiation_timing = timing;
                c.plane.burst = burst;
            })
            .expect("idempotent delta");
        prop_assert!(again.is_empty());
        prop_assert_eq!(ring.records_of_kind("reconfigure").len(), events.len());
    }
}

#[test]
fn reconfigure_refuses_build_time_fields_atomically() {
    let mut cluster = ClusterBuilder::new(2, app()).build().expect("build");
    let before = *cluster.config();
    let err = cluster
        .reconfigure(|c| {
            c.membership.seed = 9;
            // Bundled runtime-legal change must NOT be applied either.
            c.plane.burst = 1;
        })
        .expect_err("membership.seed is build-time only");
    assert!(matches!(err, Error::Config(_)));
    assert_eq!(*cluster.config(), before, "rejected delta applies nothing");
}

/// The knob set both builder spellings below configure — one
/// representative knob per config section.
fn exercised(config: &mut ClusterConfig) {
    config.validation.lookup_mode = LookupMode::Scan;
    config.validation.engine = ConstraintEngine::Compiled;
    config.validation.verdict_cache = true;
    config.validation.negotiation_timing = NegotiationTiming::Deferred;
    config.validation.app_default_min_degree = SatisfactionDegree::PossiblySatisfied;
    config.membership.primary_policy = PrimaryPartitionPolicy::MajorityNodes;
    config.membership.minority_writes = MinorityWriteHandling::Refuse;
    config.durability.threat_policy = HistoryPolicy::Reduced;
    config.durability.reconcile_strategy = ReconcileStrategy::FullScan;
    config.durability.compaction_threshold = 4;
    config.durability.reduced_replica_history = true;
}

/// Spelling one: hand the builder a ready-made config value.
fn valued_builder() -> ClusterBuilder {
    let mut config = ClusterConfig::default();
    exercised(&mut config);
    ClusterBuilder::new(3, app()).with_config(config)
}

/// Spelling two: mutate the builder's config in place.
fn mutated_builder() -> ClusterBuilder {
    ClusterBuilder::new(3, app()).configure(exercised)
}

#[test]
fn both_typed_spellings_build_the_identical_config() {
    let valued = valued_builder().build().expect("with_config build");
    let mutated = mutated_builder().build().expect("configure build");
    assert_eq!(valued.config(), mutated.config());
    let mut expected = ClusterConfig::default();
    exercised(&mut expected);
    assert_observed_matches(&valued, &expected);
    assert_observed_matches(&mutated, &expected);
}

/// A `Write` sink into a shared buffer (see
/// `tests/engine_transparency.rs`).
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One mixed workload — committed writes on both sides of a
/// partition/heal cycle, including a refused minority write — against
/// a traced cluster built by `make`. Returns the raw JSONL bytes plus
/// the serde-independent `(seq, at, kind)` stream.
fn traced_workload(make: fn() -> ClusterBuilder) -> (Vec<u8>, Vec<(u64, u64, &'static str)>) {
    let buf = SharedBuf::default();
    let mut cluster = make().build().expect("build");
    cluster
        .telemetry()
        .attach(Box::new(JsonlExporter::new(Box::new(buf.clone()))));
    let ring = RingRecorder::new(8192);
    cluster.telemetry().attach(Box::new(ring.clone()));
    for i in 0..3 {
        let id = ObjectId::new("Item", format!("i{i}"));
        cluster
            .run_tx(NodeId(0), move |c, tx| {
                c.create(NodeId(0), tx, EntityState::for_class(c.app(), &id)?)
            })
            .expect("seed item");
    }
    for round in 0i64..6 {
        let node = NodeId((round % 3) as u32);
        let id = ObjectId::new("Item", format!("i{}", round % 3));
        let mut session = cluster.session(node);
        let write = session
            .set_field(&id, "v", Value::Int(round))
            .and_then(|()| session.commit());
        // Round 2 hits node 2 while it is alone under MajorityNodes +
        // Refuse; both spellings must refuse identically.
        assert_eq!(write.is_err(), round == 2, "round {round}");
        if round == 1 {
            cluster
                .partition(&[nodes![0, 1], nodes![2]])
                .expect("split");
        }
        if round == 3 {
            cluster.heal();
        }
        cluster.clock().advance(SimDuration::from_millis(20));
    }
    let stream: Vec<(u64, u64, &'static str)> = ring
        .records()
        .iter()
        .map(|r| (r.seq, r.at.as_nanos(), r.event.kind()))
        .collect();
    drop(cluster);
    let bytes = buf.0.lock().unwrap().clone();
    (bytes, stream)
}

#[test]
fn both_typed_spellings_trace_byte_identically() {
    let (valued_bytes, valued_stream) = traced_workload(valued_builder);
    let (mutated_bytes, mutated_stream) = traced_workload(mutated_builder);
    assert!(!valued_bytes.is_empty());
    assert_eq!(
        valued_bytes, mutated_bytes,
        "with_config- and configure-built clusters must write identical JSONL"
    );
    assert_eq!(
        valued_stream, mutated_stream,
        "with_config- and configure-built clusters must emit identical events"
    );
}
