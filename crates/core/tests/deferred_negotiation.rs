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
use dedisys_types::Result;
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

fn degraded_cluster(timing: NegotiationTiming) -> (Cluster, ObjectId) {
    let mut cluster = ClusterBuilder::new(2, app())
        .constraint(constraint())
        .configure(|c| c.validation.negotiation_timing = timing)
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
    let (mut cluster, id) = degraded_cluster(NegotiationTiming::Deferred);
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
    let (mut cluster, id) = degraded_cluster(NegotiationTiming::Deferred);
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
    let (mut cluster, id) = degraded_cluster(NegotiationTiming::Deferred);
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

/// A threat's negotiation is charged once, when the threat is
/// detected, whatever the timing: a transaction whose one threat is
/// accepted takes the same virtual time under both.
#[test]
fn an_accepted_threat_costs_the_same_under_both_timings() {
    let elapsed = |timing| {
        let (mut cluster, id) = degraded_cluster(timing);
        let start = cluster.now();
        cluster
            .run_tx(NodeId(0), |c, tx| {
                c.set_field(NodeId(0), tx, &id, "n", Value::Int(1))
            })
            .unwrap();
        assert_eq!(cluster.threats().len(), 1, "{timing:?}");
        cluster.now().since(start)
    };
    assert_eq!(
        elapsed(NegotiationTiming::Immediate),
        elapsed(NegotiationTiming::Deferred)
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

/// A threat of `Defaulted` has no static declaration, so the
/// application-wide default floor decides it.
fn defaulted() -> RegisteredConstraint {
    RegisteredConstraint::new(
        ConstraintMeta::new("Defaulted").tradeable(SatisfactionDegree::Satisfied),
        Arc::new(ExprConstraint::parse("self.n <= self.max").unwrap()),
    )
    .context_class("Counter")
    .affects("Counter", "setMax", ContextPreparation::CalledObject)
}

/// Both negotiation settings act from the one configuration the
/// cluster holds, so a runtime `reconfigure` changes what the next
/// threat meets, and reconfiguring back restores it: under `Deferred` a
/// rejected threat fails the commit instead of the call, and a lowered
/// default floor lets a threat without a static declaration through.
#[test]
fn reconfigured_negotiation_settings_take_effect_at_once() {
    let mut cluster = ClusterBuilder::new(2, app())
        .constraint(constraint())
        .constraint(defaulted())
        .build()
        .unwrap();
    let node = NodeId(0);
    let id = ObjectId::new("Counter", "c1");
    cluster
        .run_tx(node, |c, tx| {
            c.create(node, tx, EntityState::for_class(c.app(), &id)?)
        })
        .unwrap();
    cluster.partition(&[nodes![0], nodes![1]]).unwrap();
    // (the call, the commit) of a write whose threat a handler rejects.
    let rejected = |cluster: &mut Cluster| -> (Result<()>, Result<()>) {
        let mut session = cluster.session(node);
        session
            .register_negotiation_handler(Box::new(|_: &mut ConsistencyThreat| {
                ThreatDecision::Reject
            }))
            .unwrap();
        let call = session.set_field(&id, "n", Value::Int(5));
        (call, session.commit())
    };
    let defaulted_write = |cluster: &mut Cluster| {
        cluster.run_tx(node, |c, tx| {
            c.set_field(node, tx, &id, "max", Value::Int(90))
        })
    };
    let at_call = |(call, commit): (Result<()>, Result<()>)| {
        matches!(call, Err(Error::ThreatRejected { .. }))
            && matches!(commit, Err(Error::RollbackOnly(_)))
    };
    let at_commit = |(call, commit): (Result<()>, Result<()>)| {
        call.is_ok() && matches!(commit, Err(Error::ThreatRejected { .. }))
    };
    let refused = |write: Result<()>| matches!(write, Err(Error::ThreatRejected { .. }));

    assert!(at_call(rejected(&mut cluster)), "built immediate");
    assert!(
        refused(defaulted_write(&mut cluster)),
        "built with floor Satisfied"
    );

    cluster
        .reconfigure(|c| {
            c.validation.app_default_min_degree = SatisfactionDegree::PossiblySatisfied;
        })
        .unwrap();
    defaulted_write(&mut cluster).expect("lowered floor accepts at the call");
    cluster
        .reconfigure(|c| c.validation.negotiation_timing = NegotiationTiming::Deferred)
        .unwrap();
    assert!(at_commit(rejected(&mut cluster)), "deferred");
    defaulted_write(&mut cluster).expect("lowered floor accepts at the commit");

    cluster
        .reconfigure(|c| {
            c.validation.negotiation_timing = NegotiationTiming::Immediate;
            c.validation.app_default_min_degree = SatisfactionDegree::Satisfied;
        })
        .unwrap();
    assert!(at_call(rejected(&mut cluster)), "immediate again");
    assert!(
        refused(defaulted_write(&mut cluster)),
        "floor Satisfied again"
    );
    assert_eq!(cluster.tx_record_count(), 0);
}

/// A prepared transaction keeps the threats its vote accepted until its
/// outcome: presumed abort after its coordinator crashed drops them, so
/// the store is as it was.
#[test]
fn a_presumed_abort_drops_the_threats_its_vote_accepted() {
    let (mut cluster, id) = degraded_cluster(NegotiationTiming::Deferred);
    let node = NodeId(0);
    let mut session = cluster.session(node);
    session.set_field(&id, "n", Value::Int(1)).unwrap();
    let tx = session.prepare().unwrap();
    assert!(
        cluster.threats().is_empty(),
        "accepted, awaiting the outcome"
    );

    cluster.crash(node).unwrap();
    assert_eq!(cluster.in_doubt_count(), 1);
    // The coordinator's restart resolves it by presumed abort.
    cluster.restart(node).unwrap();
    assert!(!cluster.tx_is_open(tx));
    assert!(cluster.threats().is_empty());
}
