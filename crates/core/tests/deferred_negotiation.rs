//! §5.4 deferred negotiation: threats detected during a transaction
//! are collected; the transaction continues under the assumption that
//! they will be accepted and blocks before commit until every decision
//! is available.

use dedisys_constraints::{
    expr::ExprConstraint, ConstraintMeta, ContextPreparation, RegisteredConstraint,
};
use dedisys_core::nodes;
use dedisys_core::{Cluster, ClusterBuilder, ConsistencyThreat, NegotiationTiming, ThreatDecision};
use dedisys_object::{AppDescriptor, ClassDescriptor, EntityState};
use dedisys_types::{Error, NodeId, ObjectId, SatisfactionDegree, Value};
use std::sync::Arc;

fn app() -> AppDescriptor {
    AppDescriptor::new("inv").with_class(
        ClassDescriptor::new("Counter")
            .with_field("n", Value::Int(0))
            .with_field("max", Value::Int(100)),
    )
}

fn constraint() -> RegisteredConstraint {
    RegisteredConstraint::new(
        ConstraintMeta::new("Bounded").tradeable(SatisfactionDegree::PossiblySatisfied),
        Arc::new(ExprConstraint::parse("self.n <= self.max").unwrap()),
    )
    .context_class("Counter")
    .affects("Counter", "setN", ContextPreparation::CalledObject)
}

fn degraded_cluster() -> (Cluster, ObjectId) {
    let mut cluster = ClusterBuilder::new(2, app())
        .constraint(constraint())
        .configure(|c| c.validation.negotiation_timing = NegotiationTiming::Deferred)
        .build()
        .unwrap();
    let id = ObjectId::new("Counter", "c1");
    let e = id.clone();
    cluster
        .run_tx(NodeId(0), move |c, tx| {
            c.create(NodeId(0), tx, EntityState::for_class(c.app(), &e)?)
        })
        .unwrap();
    cluster.partition(&[nodes![0], nodes![1]]).unwrap();
    (cluster, id)
}

#[test]
fn operations_continue_and_threats_are_stored_at_commit() {
    let (mut cluster, id) = degraded_cluster();
    let node = NodeId(0);
    let mut session = cluster.session(node);
    // Two threatened writes within one transaction: neither negotiates
    // yet.
    session.set_field(&id, "n", Value::Int(1)).unwrap();
    session.set_field(&id, "n", Value::Int(2)).unwrap();
    assert_eq!(
        session.cluster().threats().len(),
        0,
        "nothing stored before commit"
    );
    session.commit().unwrap();
    // Identical threats deduplicate to one record, accepted via the
    // static declaration.
    assert_eq!(cluster.threats().identities().len(), 1);
    assert!(cluster.stats().ccm.threats_accepted >= 2);
}

#[test]
fn rejection_at_commit_rolls_back_the_whole_transaction() {
    let (mut cluster, id) = degraded_cluster();
    let node = NodeId(0);
    let mut session = cluster.session(node);
    session
        .register_negotiation_handler(Box::new(|_: &mut ConsistencyThreat| ThreatDecision::Reject))
        .unwrap();
    session.set_field(&id, "n", Value::Int(5)).unwrap();
    let result = session.commit();
    assert!(matches!(result, Err(Error::ThreatRejected { .. })));
    assert_eq!(
        cluster.entity_on(node, &id).unwrap().field("n"),
        &Value::Int(0),
        "write rolled back"
    );
    assert!(cluster.threats().is_empty());
}

#[test]
fn dynamic_handler_sees_every_deferred_threat() {
    let (mut cluster, id) = degraded_cluster();
    let node = NodeId(0);
    let mut session = cluster.session(node);
    let seen = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let seen_in_handler = Arc::clone(&seen);
    session
        .register_negotiation_handler(Box::new(move |threat: &mut ConsistencyThreat| {
            seen_in_handler.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            threat.app_data = Some(Value::from("deferred"));
            ThreatDecision::Accept
        }))
        .unwrap();
    session.set_field(&id, "n", Value::Int(1)).unwrap();
    session.set_field(&id, "n", Value::Int(2)).unwrap();
    assert_eq!(seen.load(std::sync::atomic::Ordering::SeqCst), 0);
    session.commit().unwrap();
    assert_eq!(seen.load(std::sync::atomic::Ordering::SeqCst), 2);
    assert_eq!(
        cluster.threats().threats()[0].app_data,
        Some(Value::from("deferred"))
    );
}

#[test]
fn healthy_mode_is_unaffected_by_deferred_timing() {
    let mut cluster = ClusterBuilder::new(2, app())
        .constraint(constraint())
        .configure(|c| c.validation.negotiation_timing = NegotiationTiming::Deferred)
        .build()
        .unwrap();
    let id = ObjectId::new("Counter", "c1");
    let e = id.clone();
    cluster
        .run_tx(NodeId(0), move |c, tx| {
            c.create(NodeId(0), tx, EntityState::for_class(c.app(), &e)?)
        })
        .unwrap();
    // Violations still abort immediately in healthy mode (no threat, a
    // definite violation).
    let result = cluster.run_tx(NodeId(0), |c, tx| {
        c.set_field(NodeId(0), tx, &id, "n", Value::Int(500))
    });
    assert!(matches!(result, Err(Error::ConstraintViolated { .. })));
}
