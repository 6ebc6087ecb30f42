//! A count has one home (DESIGN.md §5, "One book per request"): where a
//! component owns a typed counter, that field is the count and the
//! metrics registry holds nothing under the name it used to be copied
//! to. This drives one cluster through every site that used to copy —
//! healthy and failing invocations, the request plane's five outcomes,
//! degraded writes with an accepted, a rejected and an unvalidated
//! (async) threat, a retried ship, a reconciliation with a conflict —
//! checks on the typed fields that each site was reached, and fails if
//! the registry reports any of them a second time. A histogram has a
//! reader or is not kept: the registry's only histograms are the
//! plane's per-class latencies, one observation per completed request.

use dedisys_constraints::{
    expr::ExprConstraint, ConstraintKind, ConstraintMeta, ContextPreparation, RegisteredConstraint,
};
use dedisys_core::plane::{latency_metric, DEFAULT_DEADLINE, QUEUE_CAPACITY};
use dedisys_core::{nodes, ClusterBuilder, DeferAll, HighestVersionWins, RequestPlane};
use dedisys_object::{AppDescriptor, ClassDescriptor, EntityState};
use dedisys_types::{
    Error, NodeId, ObjectId, PriorityClass, SatisfactionDegree, SimDuration, Value,
};
use std::sync::Arc;

mod promise;

/// The registry names that copied a typed field. The `federation.*`
/// ones lived on the federation's own bus; `tests/federation_layer.rs`
/// holds that bus to the same rule. (Of the pair
/// `gms.detector.flaps_damped` / `ViewStabilizer::flaps_damped` the
/// registry name is the one that stayed: `flap-sweep` reads it.)
const COUNTED_ELSEWHERE: [&str; 26] = [
    "cluster.invocations",
    "cluster.failed_invocations",
    "ccm.validations",
    "ccm.threats_rejected",
    "ccm.async_shortcuts",
    "plane.admitted",
    "plane.admitted.critical",
    "plane.admitted.normal",
    "plane.admitted.background",
    "plane.completed",
    "plane.rejected",
    "plane.shed",
    "plane.deadline_missed",
    "federation.routed",
    "federation.rejected_degraded",
    "federation.migrated",
    "federation.xshard.begun",
    "federation.xshard.prepared",
    "federation.xshard.committed",
    "federation.xshard.aborted",
    "federation.xshard.presumed_abort",
    "replication.propagations",
    "replication.messages",
    "replication.ship_retries",
    "reconcile.conflicts",
    "reconcile.missed_updates",
];

fn invariant(setter: &str, meta: ConstraintMeta) -> RegisteredConstraint {
    RegisteredConstraint::new(
        meta,
        Arc::new(ExprConstraint::parse("self.n <= self.max").unwrap()),
    )
    .context_class("Counter")
    .affects("Counter", setter, ContextPreparation::CalledObject)
}

#[test]
fn no_registry_counter_repeats_a_typed_one() {
    let app = AppDescriptor::new("once").with_class(
        ClassDescriptor::new("Counter")
            .with_field("n", Value::Int(0))
            .with_field("max", Value::Int(100))
            .with_field("note", Value::Int(0)),
    );
    let tradeable = ConstraintMeta::new("Bounded").tradeable(SatisfactionDegree::PossiblyViolated);
    let strict = ConstraintMeta::new("Strict");
    let lazy = ConstraintMeta::new("Lazy")
        .kind(ConstraintKind::AsyncInvariant)
        .tradeable(SatisfactionDegree::Uncheckable);
    let mut cluster = ClusterBuilder::new(3, app)
        .constraint(invariant("setN", tradeable))
        .constraint(invariant("setMax", strict))
        .constraint(invariant("setNote", lazy))
        .configure(|c| c.plane.burst = QUEUE_CAPACITY + 2)
        .build()
        .unwrap();
    let node = NodeId(0);
    let ids: Vec<ObjectId> = (0..2)
        .map(|i| ObjectId::new("Counter", format!("c{i}")))
        .collect();
    for id in &ids {
        cluster
            .run_tx(node, |c, tx| {
                c.create(node, tx, EntityState::for_class(c.app(), id)?)
            })
            .unwrap();
    }

    // Healthy: a write that validates, and a call that fails.
    cluster
        .run_tx(node, |c, tx| {
            c.set_field(node, tx, &ids[0], "n", Value::Int(1))
        })
        .unwrap();
    let missing = ObjectId::new("Counter", "missing");
    assert!(cluster
        .run_tx(node, |c, tx| c.get_field(node, tx, &missing, "n"))
        .is_err());

    // The plane: completed (Normal and Critical), rejected at the queue
    // bound, missed.
    let mut plane = RequestPlane::new();
    let write = |value: i64| {
        let id = ObjectId::new("Counter", "c1");
        move |mut session: dedisys_core::Session<'_>| {
            session.set_field(&id, "n", Value::Int(value))?;
            session.commit()
        }
    };
    for value in (2..).take(QUEUE_CAPACITY as usize) {
        plane
            .submit(&mut cluster, node, PriorityClass::Normal, write(value))
            .unwrap();
    }
    let full = plane.submit(&mut cluster, node, PriorityClass::Background, write(4));
    assert!(matches!(full, Err(Error::Overloaded { .. })));
    plane.run_until_idle(&mut cluster);
    plane
        .submit(&mut cluster, node, PriorityClass::Normal, write(5))
        .unwrap();
    plane
        .submit(&mut cluster, node, PriorityClass::Critical, write(3))
        .unwrap();
    let normal = DEFAULT_DEADLINE[PriorityClass::Normal.rank()].expect("Normal has a deadline");
    cluster
        .clock()
        .advance(normal + SimDuration::from_millis(1));
    plane.run_until_idle(&mut cluster);

    // Degraded: background work queued before the split is shed; one
    // backup refuses its first install; both sides write `c0`; the
    // strict constraint's threat is rejected, the async one is
    // recorded unvalidated.
    plane
        .submit_with_deadline(
            &mut cluster,
            node,
            PriorityClass::Background,
            None,
            write(6),
        )
        .unwrap();
    cluster.partition(&[nodes![0, 1], nodes![2]]).unwrap();
    plane.run_until_idle(&mut cluster);
    cluster.inject_write_fault(NodeId(1), 1);
    for (side, value) in [(NodeId(0), 7), (NodeId(2), 8)] {
        cluster
            .run_tx(side, |c, tx| {
                c.set_field(side, tx, &ids[0], "n", Value::Int(value))
            })
            .unwrap();
    }
    let rejected = cluster.run_tx(node, |c, tx| {
        c.set_field(node, tx, &ids[0], "max", Value::Int(90))
    });
    assert!(matches!(rejected, Err(Error::ThreatRejected { .. })));
    cluster
        .run_tx(node, |c, tx| {
            c.set_field(node, tx, &ids[1], "note", Value::Int(1))
        })
        .unwrap();
    cluster.heal();
    cluster.reconcile(&mut HighestVersionWins, &mut DeferAll);
    promise::assert_kept(&cluster);

    // Every site was reached, by the count its owner keeps …
    let stats = cluster.stats();
    let per_class = *plane.stats();
    let plane = per_class.total();
    let reached = [
        ("cluster.invocations", stats.cluster.invocations),
        (
            "cluster.failed_invocations",
            stats.cluster.failed_invocations,
        ),
        ("ccm.validations", stats.ccm.validations),
        ("ccm.threats_rejected", stats.ccm.threats_rejected),
        ("ccm.async_shortcuts", stats.ccm.async_shortcuts),
        ("plane.admitted", plane.admitted),
        ("plane.completed", plane.completed),
        ("plane.rejected", plane.rejected),
        ("plane.shed", plane.shed),
        ("plane.deadline_missed", plane.deadline_missed),
        ("replication.propagations", stats.replication.propagations),
        ("replication.messages", stats.replication.messages),
        ("replication.ship_retries", stats.replication.ship_retries),
        ("reconcile.conflicts", stats.replication.conflicts),
        ("reconcile.missed_updates", stats.replication.missed_updates),
    ];
    for (site, count) in reached {
        assert!(count > 0, "{site}: the workload never got there");
    }
    // … and by no second one.
    let twice: Vec<&String> = stats
        .telemetry
        .counters
        .keys()
        .filter(|name| COUNTED_ELSEWHERE.contains(&name.as_str()))
        .collect();
    assert!(twice.is_empty(), "counted a second time: {twice:?}");
    // What has no typed home is still counted where it was.
    for kept in ["ccm.threats_recorded", "negotiation.static"] {
        assert!(stats.telemetry.counters.contains_key(kept), "{kept}");
    }
    // One book for histograms: each class the plane completed has its
    // latency histogram, one observation per completion, and nothing
    // else is kept.
    let completed: Vec<(&str, u64)> = PriorityClass::ALL
        .into_iter()
        .map(|class| (latency_metric(class), per_class.class(class).completed))
        .filter(|&(_, n)| n > 0)
        .collect();
    let histograms: Vec<(&str, u64)> = stats
        .telemetry
        .histograms
        .iter()
        .map(|(name, h)| (name.as_str(), h.count))
        .collect();
    assert_eq!(completed.len(), 2, "{completed:?}");
    assert_eq!(histograms, completed);
}
