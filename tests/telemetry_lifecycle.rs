//! Telemetry lifecycle integration tests: a full partition → degraded
//! writes → heal → reconciliation scenario observed through the trace
//! bus, plus the hard determinism requirement — two identically-seeded
//! runs export byte-identical JSONL.

use dedisys_constraints::{
    expr::ExprConstraint, ConstraintMeta, ContextPreparation, RegisteredConstraint,
};
use dedisys_core::ConstraintChange::{Add, Enable};
use dedisys_core::{
    Cluster, ClusterBuilder, DeferAll, HighestVersionWins, JsonlExporter, RingRecorder, SharedBuf,
    TraceEvent, TraceRecord,
};
use dedisys_object::{AppDescriptor, ClassDescriptor, EntityState};
use dedisys_types::{NodeId, ObjectId, SatisfactionDegree, SystemMode, Value};
use std::sync::Arc;

#[path = "../crates/core/tests/promise/mod.rs"]
mod promise;

fn app() -> AppDescriptor {
    AppDescriptor::new("inv").with_class(
        ClassDescriptor::new("Counter")
            .with_field("n", Value::Int(0))
            .with_field("max", Value::Int(100)),
    )
}

fn bounded_constraint(name: &str) -> RegisteredConstraint {
    RegisteredConstraint::new(
        ConstraintMeta::new(name).tradeable(SatisfactionDegree::PossiblySatisfied),
        Arc::new(ExprConstraint::parse("self.n <= self.max").unwrap()),
    )
    .context_class("Counter")
    .affects("Counter", "setN", ContextPreparation::CalledObject)
}

fn build() -> Cluster {
    ClusterBuilder::new(3, app())
        .constraint(bounded_constraint("Bounded-00"))
        .build()
        .unwrap()
}

/// Creates the counter `key` from node 0.
fn create_counter(cluster: &mut Cluster, key: &str) -> ObjectId {
    let id = ObjectId::new("Counter", key);
    let node = NodeId(0);
    let e = id.clone();
    cluster
        .run_tx(node, move |c, tx| {
            c.create(node, tx, EntityState::for_class(c.app(), &e)?)
        })
        .unwrap();
    id
}

/// The canonical degraded-mode lifecycle: healthy writes, a 1/2 split,
/// threat-recording writes in the majority-less partition, repair and
/// two-step reconciliation.
fn run_lifecycle(cluster: &mut Cluster) {
    let id = create_counter(cluster, "c1");
    let node = NodeId(0);

    assert_eq!(
        cluster
            .partition(&[vec![NodeId(0)], vec![NodeId(1), NodeId(2)]])
            .unwrap(),
        SystemMode::Degraded
    );
    cluster
        .run_tx(node, |c, tx| c.set_field(node, tx, &id, "n", Value::Int(5)))
        .unwrap();
    assert!(
        !cluster.threats().is_empty(),
        "degraded write records threat"
    );

    assert_eq!(cluster.heal(), SystemMode::Reconciliation);
    let summary = cluster.reconcile(&mut HighestVersionWins, &mut DeferAll);
    promise::assert_kept(cluster);
    assert!(summary.constraints.re_evaluated >= 1);
    assert_eq!(cluster.mode(), SystemMode::Healthy);
}

#[test]
fn lifecycle_emits_the_expected_event_stream() {
    let mut cluster = build();
    let ring = RingRecorder::new(4096);
    cluster.telemetry().attach(Box::new(ring.clone()));

    run_lifecycle(&mut cluster);

    // Every stage of the lifecycle is witnessed by a typed event.
    for kind in [
        "invocation_start",
        "invocation_end",
        "trigger_point",
        "constraint_validated",
        "tx_begin",
        "tx_commit",
        "threat_recorded",
        "mode_transition",
        "reconcile_replica_phase",
        "reconcile_constraint_phase",
    ] {
        assert!(
            !ring.records_of_kind(kind).is_empty(),
            "expected at least one '{kind}' event; got kinds {:?}",
            ring.kinds()
        );
    }

    // The mode walks Figure 1.4: Healthy → Degraded → Reconciliation →
    // Healthy, each edge announced exactly once.
    let modes: Vec<(SystemMode, SystemMode)> = ring
        .records_of_kind("mode_transition")
        .iter()
        .map(|r| match r.event {
            TraceEvent::ModeTransition { from, to, .. } => (from, to),
            _ => unreachable!(),
        })
        .collect();
    assert_eq!(
        modes,
        vec![
            (SystemMode::Healthy, SystemMode::Degraded),
            (SystemMode::Degraded, SystemMode::Reconciliation),
            (SystemMode::Reconciliation, SystemMode::Healthy),
        ]
    );

    // Constraint reconciliation found the accepted threat satisfied.
    let recon = ring.records_of_kind("reconcile_constraint_phase");
    assert_eq!(recon.len(), 1);
    match recon[0].event {
        TraceEvent::ReconcileConstraintPhase {
            re_evaluated,
            satisfied_removed,
            ..
        } => {
            assert!(re_evaluated >= 1);
            assert!(satisfied_removed >= 1);
        }
        _ => unreachable!(),
    }

    // Sequence numbers are gapless and monotonic — the bus stamps them.
    let records = ring.records();
    for (i, r) in records.iter().enumerate() {
        assert_eq!(r.seq, i as u64, "seq gap at index {i}");
    }

    // The unified snapshot agrees with the bus and serializes cleanly.
    let stats = cluster.stats();
    assert_eq!(stats.events_emitted, records.len() as u64);
    assert_eq!(stats.mode, SystemMode::Healthy);
    assert!(stats.cluster.invocations >= 1);
    assert_eq!(stats.cluster.creates, 1);
    let json = serde_json::to_string(&stats).unwrap();
    assert!(json.contains("\"mode\""), "{json}");
}

/// Validation is one pass per candidate: with the verdict cache on, a
/// §3.3 sweep probes, evaluates and records one context object before
/// it looks at the next — every probe record directly precedes its own
/// `constraint_validated` — and a second sweep answers each from the
/// cache in the same rhythm.
#[test]
fn each_cache_probe_directly_precedes_its_own_validation() {
    let mut cluster = ClusterBuilder::new(3, app())
        .configure(|c| c.validation.verdict_cache = true)
        .build()
        .unwrap();
    for key in ["c1", "c2", "c3"] {
        create_counter(&mut cluster, key);
    }
    let ring = RingRecorder::new(64);
    cluster.telemetry().attach(Box::new(ring.clone()));
    // The probe and validation records emitted since record `from`.
    let validation_kinds = |from: usize| -> Vec<&'static str> {
        ring.records()[from..]
            .iter()
            .map(|r| r.event.kind())
            .filter(|k| k.starts_with("verdict_cache_") || *k == "constraint_validated")
            .collect()
    };

    let bounded = bounded_constraint("Bounded");
    let name = bounded.name().clone();
    let violating = cluster.change_constraint(Add(bounded, None)).unwrap();
    assert!(violating.is_empty());
    assert_eq!(
        validation_kinds(0),
        ["verdict_cache_miss", "constraint_validated"].repeat(3),
        "first sweep"
    );
    let seen = ring.records().len();
    cluster.change_constraint(Enable(name, None)).unwrap();
    assert_eq!(
        validation_kinds(seen),
        ["verdict_cache_hit", "constraint_validated"].repeat(3),
        "second sweep"
    );
}

/// A commit ships its writes in (node, id) order, then its deletes, and
/// drops the cached verdicts of everything it touched once per object,
/// in id order — whatever order the transaction wrote in.
#[test]
fn a_commit_ships_writes_then_deletes_and_invalidates_in_id_order() {
    let mut cluster = ClusterBuilder::new(3, app())
        .configure(|c| c.validation.verdict_cache = true)
        .build()
        .unwrap();
    let ids: Vec<ObjectId> = ["c1", "c2", "c3", "c4"]
        .into_iter()
        .map(|key| create_counter(&mut cluster, key))
        .collect();
    // The §3.3 sweep caches one verdict per counter.
    let violating = cluster
        .change_constraint(Add(bounded_constraint("Bounded"), None))
        .unwrap();
    assert!(violating.is_empty());
    let ring = RingRecorder::new(256);
    cluster.telemetry().attach(Box::new(ring.clone()));

    let node = NodeId(0);
    cluster
        .run_tx(node, |c, tx| {
            for k in [3, 0, 2] {
                c.set_field(node, tx, &ids[k], "n", Value::Int(k as i64))?;
            }
            c.delete(node, tx, &ids[1])
        })
        .unwrap();
    let commit: Vec<String> = ring
        .records()
        .iter()
        .filter_map(|r| match &r.event {
            TraceEvent::ReplicationUpdate { object, .. } => Some(format!("ship {object}")),
            TraceEvent::VerdictCacheInvalidate { object, entries } => {
                Some(format!("invalidate {object} {entries}"))
            }
            _ => None,
        })
        .collect();
    assert_eq!(
        commit,
        [
            "ship Counter#c1",
            "ship Counter#c3",
            "ship Counter#c4",
            "ship Counter#c2",
            "invalidate Counter#c1 1",
            "invalidate Counter#c2 1",
            "invalidate Counter#c3 1",
            "invalidate Counter#c4 1",
        ]
    );
}

fn export_lifecycle() -> Vec<u8> {
    let buf = SharedBuf::default();
    {
        let mut cluster = build();
        cluster
            .telemetry()
            .attach(Box::new(JsonlExporter::new(Box::new(buf.clone()))));
        run_lifecycle(&mut cluster);
        // Dropping the cluster drops the exporter, which flushes.
    }
    buf.bytes()
}

#[test]
fn same_seed_exports_byte_identical_jsonl() {
    let first = export_lifecycle();
    let second = export_lifecycle();
    assert!(!first.is_empty(), "exporter wrote nothing");
    assert_eq!(first, second, "trace streams diverged between runs");

    // Each line round-trips as a typed record and the stream covers a
    // representative slice of the event vocabulary.
    let text = String::from_utf8(first).unwrap();
    let mut kinds = std::collections::BTreeSet::new();
    for (expected_seq, line) in (0u64..).zip(text.lines()) {
        let record: TraceRecord = serde_json::from_str(line).unwrap();
        assert_eq!(record.seq, expected_seq);
        kinds.insert(record.event.kind());
    }
    assert!(
        kinds.len() >= 8,
        "expected >= 8 distinct event kinds, got {kinds:?}"
    );
}
