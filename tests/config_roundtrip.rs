//! The consolidated [`ClusterConfig`] API round-trips: any typed
//! configuration given to the builder is the configuration observed on
//! the running cluster (and, where a subsystem is wired from it at
//! build time, the value read back from that subsystem), runtime
//! deltas applied via [`Cluster::reconfigure`] land atomically with one
//! `reconfigure` event.

use dedisys_core::{
    Cluster, ClusterBuilder, ClusterConfig, ConstraintEngine, DetectorKind, HistoryPolicy,
    NegotiationTiming, ProtocolKind, RingRecorder,
};
use dedisys_object::{AppDescriptor, ClassDescriptor, EntityState};
use dedisys_types::{ChaosRng, Error, NodeId, ObjectId, SatisfactionDegree, SimDuration, Value};

fn app() -> AppDescriptor {
    AppDescriptor::new("config-roundtrip")
        .with_class(ClassDescriptor::new("Item").with_field("v", Value::Int(0)))
}

const TIMINGS: [NegotiationTiming; 2] = [NegotiationTiming::Immediate, NegotiationTiming::Deferred];
const DEGREES: [SatisfactionDegree; 4] = [
    SatisfactionDegree::Satisfied,
    SatisfactionDegree::PossiblySatisfied,
    SatisfactionDegree::PossiblyViolated,
    SatisfactionDegree::Uncheckable,
];

/// A uniform draw in `lo..=hi`.
fn within(rng: &mut ChaosRng, lo: u64, hi: u64) -> u64 {
    lo + rng.below(hi - lo + 1)
}

/// A configuration with every one of the 10 values the builder accepts
/// drawn from `rng`, section by section.
fn config_of(rng: &mut ChaosRng) -> ClusterConfig {
    let mut config = ClusterConfig::default();
    config.validation.engine =
        *rng.pick(&[ConstraintEngine::Interpreted, ConstraintEngine::Compiled]);
    config.validation.verdict_cache = rng.chance(50);
    config.validation.negotiation_timing = *rng.pick(&TIMINGS);
    config.validation.app_default_min_degree = *rng.pick(&DEGREES);
    config.membership.detector_enabled = rng.chance(50);
    config.membership.detector = *rng.pick(&[DetectorKind::FixedTimeout, DetectorKind::Adaptive]);
    config.membership.settle = SimDuration::from_millis(within(rng, 0, 1_000));
    config.membership.seed = rng.below(1_000);
    config.durability.threat_policy =
        *rng.pick(&[HistoryPolicy::IdenticalOnce, HistoryPolicy::FullHistory]);
    config.plane.burst = within(rng, 1, 64) as u32;
    config
}

/// Asserts that a *running* cluster reports the config it was
/// promised: every field through `config()` (the one copy of the
/// fields the cluster itself consults), and — where a subsystem is
/// wired from it at build time — the value read back from the threat
/// store and the membership pipeline.
fn assert_observed_matches(case: &str, cluster: &Cluster, expected: &ClusterConfig) {
    assert_eq!(cluster.config(), expected, "{case}");
    assert_eq!(
        cluster.threats().policy(),
        expected.durability.threat_policy,
        "{case}"
    );
    assert_eq!(
        cluster.detector_enabled(),
        expected.membership.detector_enabled,
        "{case}"
    );
}

/// An in-place edit of the builder's config.
fn edit(config: &mut ClusterConfig) {
    config.validation.engine = ConstraintEngine::Compiled;
    config.validation.verdict_cache = true;
    config.validation.negotiation_timing = NegotiationTiming::Deferred;
    config.validation.app_default_min_degree = SatisfactionDegree::PossiblySatisfied;
    config.durability.threat_policy = HistoryPolicy::FullHistory;
}

/// Any typed config given to the builder is the config observed on
/// the running cluster, including after a committed operation — over
/// 32 seeded configurations, and a config edited in place under the
/// primary-partition protocol.
#[test]
fn config_round_trips_from_builder_to_running_cluster() {
    for seed in 0..32 {
        let config = config_of(&mut ChaosRng::new(seed));
        let mut cluster = ClusterBuilder::new(3, app())
            .configure(|c| *c = config)
            .build()
            .unwrap_or_else(|e| panic!("seed {seed}: build: {e}"));
        // Exercise the cluster so "observed" means a *running* system,
        // not a freshly wired one.
        let id = ObjectId::new("Item", "i0");
        cluster
            .run_tx(NodeId(0), move |c, tx| {
                c.create(NodeId(0), tx, EntityState::for_class(c.app(), &id)?)
            })
            .unwrap_or_else(|e| panic!("seed {seed}: seed write: {e}"));
        assert_observed_matches(&format!("seed {seed}"), &cluster, &config);
    }
    let edited = ClusterBuilder::new(3, app())
        .protocol(ProtocolKind::PrimaryPartition)
        .configure(edit)
        .build()
        .expect("configure build");
    let mut expected = ClusterConfig::default();
    edit(&mut expected);
    assert_observed_matches("configure", &edited, &expected);
}

/// Runtime deltas via `reconfigure` land in the live subsystems,
/// return exactly the changed dotted paths, and emit one
/// `reconfigure` event (none when nothing changed) — over 32 seeded
/// deltas.
#[test]
fn reconfigure_applies_and_reports_runtime_deltas() {
    for seed in 0..32 {
        let mut rng = ChaosRng::new(seed);
        let timing = *rng.pick(&TIMINGS);
        let degree = *rng.pick(&DEGREES);
        let cache = rng.chance(50);
        let burst = within(&mut rng, 1, 64) as u32;
        let mut cluster = ClusterBuilder::new(3, app()).build().expect("build");
        let ring = RingRecorder::new(256);
        cluster.telemetry().attach(Box::new(ring.clone()));
        let changed = cluster
            .reconfigure(|c| {
                c.validation.negotiation_timing = timing;
                c.validation.app_default_min_degree = degree;
                c.validation.verdict_cache = cache;
                c.plane.burst = burst;
            })
            .unwrap_or_else(|e| panic!("seed {seed}: runtime-only delta: {e}"));
        let observed = (
            cluster.config().validation.negotiation_timing,
            cluster.config().validation.app_default_min_degree,
            cluster.config().validation.verdict_cache,
            cluster.config().plane.burst,
        );
        assert_eq!(observed, (timing, degree, cache, burst), "seed {seed}");
        // The returned paths are exactly the fields that now differ
        // from the default the cluster started with.
        let expected_paths = ClusterConfig::default().diff(cluster.config());
        assert_eq!(changed, expected_paths, "seed {seed}");
        let events = ring.records_of_kind("reconfigure");
        assert_eq!(
            events.len(),
            usize::from(!changed.is_empty()),
            "seed {seed}"
        );
        // Applying the same delta again is a no-op: no paths, no event.
        let again = cluster
            .reconfigure(|c| {
                c.validation.negotiation_timing = timing;
                c.plane.burst = burst;
            })
            .unwrap_or_else(|e| panic!("seed {seed}: idempotent delta: {e}"));
        assert!(again.is_empty(), "seed {seed}");
        assert_eq!(
            ring.records_of_kind("reconfigure").len(),
            events.len(),
            "seed {seed}"
        );
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
