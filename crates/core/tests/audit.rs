//! The threat-completeness audit through the public API: a violation
//! the CCMgr never saw is reported as exactly its (constraint, object)
//! pair, and the same violation under a standing threat is explained.

use dedisys_constraints::{
    expr::ExprConstraint, ConstraintMeta, ContextPreparation, RegisteredConstraint,
};
use dedisys_core::{Cluster, ClusterBuilder, DeferAll, Explanation, Finding, HighestVersionWins};
use dedisys_object::{AppDescriptor, ClassDescriptor, EntityState};
use dedisys_types::{ConstraintName, NodeId, ObjectId, SatisfactionDegree, Value};
use std::sync::Arc;

mod promise;

const BOUNDED: &str = "Bounded";

/// Three counters under `n <= max`, tradeable down to `uncheckable`,
/// so a degraded write that possibly violates it is accepted and its
/// threat stored.
fn cluster() -> (Cluster, Vec<ObjectId>) {
    let app = AppDescriptor::new("audit").with_class(
        ClassDescriptor::new("Counter")
            .with_field("n", Value::Int(0))
            .with_field("max", Value::Int(100)),
    );
    let bounded = RegisteredConstraint::new(
        ConstraintMeta::new(BOUNDED).tradeable(SatisfactionDegree::Uncheckable),
        Arc::new(ExprConstraint::parse("self.n <= self.max").unwrap()),
    )
    .context_class("Counter")
    .affects("Counter", "setN", ContextPreparation::CalledObject);
    let mut cluster = ClusterBuilder::new(3, app)
        .constraint(bounded)
        .build()
        .unwrap();
    let ids: Vec<ObjectId> = (0..3)
        .map(|i| ObjectId::new("Counter", format!("c{i}")))
        .collect();
    for id in &ids {
        let id = id.clone();
        cluster
            .run_tx(NodeId(0), move |c, tx| {
                c.create(NodeId(0), tx, EntityState::for_class(c.app(), &id)?)
            })
            .unwrap();
    }
    (cluster, ids)
}

fn set_n(cluster: &mut Cluster, node: NodeId, id: &ObjectId, n: i64) {
    cluster
        .run_tx(node, |c, tx| c.set_field(node, tx, id, "n", Value::Int(n)))
        .unwrap();
}

/// Commits `n = 150` on `id` while the constraint is disabled, then
/// re-enables it without the §3.3 check of every context object.
fn sneak_in_a_violation(cluster: &mut Cluster, id: &ObjectId) {
    let name = ConstraintName::from(BOUNDED);
    cluster.set_constraint_enabled(&name, false).unwrap();
    set_n(cluster, NodeId(0), id, 150);
    cluster.set_constraint_enabled(&name, true).unwrap();
}

/// Breaks the promise on purpose: the violation is committed behind a
/// disabled constraint, so no threat records it and the audit reports
/// it as lost.
#[test]
fn a_planted_violation_breaks_the_promise_on_purpose_and_is_reported_lost() {
    let (mut cluster, ids) = cluster();
    assert!(
        cluster.audit().is_empty(),
        "a fresh cluster violates nothing"
    );
    sneak_in_a_violation(&mut cluster, &ids[1]);
    let findings = cluster.audit();
    assert_eq!(
        findings,
        vec![Finding {
            constraint: ConstraintName::from(BOUNDED),
            object: Some(ids[1].clone()),
            node: NodeId(0),
            explanation: None,
        }]
    );
    assert_eq!(findings[0].to_string(), "(Bounded, Counter#c1) on n0");
}

#[test]
fn a_violation_on_an_object_with_degraded_writes_awaits_reconciliation() {
    let (mut cluster, ids) = cluster();
    cluster
        .partition(&[vec![NodeId(0)], vec![NodeId(1), NodeId(2)]])
        .unwrap();
    sneak_in_a_violation(&mut cluster, &ids[2]);
    let findings = cluster.audit();
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].object.as_ref(), Some(&ids[2]));
    assert_eq!(
        findings[0].explanation,
        Some(Explanation::PendingReconciliation)
    );
}

#[test]
fn the_same_violation_under_a_standing_threat_is_explained() {
    let (mut cluster, ids) = cluster();
    sneak_in_a_violation(&mut cluster, &ids[1]);
    // A degraded write of the same object possibly violates the
    // constraint: the threat is accepted and stored.
    cluster
        .partition(&[vec![NodeId(0)], vec![NodeId(1), NodeId(2)]])
        .unwrap();
    set_n(&mut cluster, NodeId(0), &ids[1], 160);
    cluster.heal();
    // Reconciliation finds the violation; the handler defers it, so the
    // threat stands and nothing awaits reconciliation any more.
    let summary = cluster.reconcile(&mut HighestVersionWins, &mut DeferAll);
    promise::assert_kept(&cluster);
    assert_eq!(summary.constraints.deferred, 1);
    assert_eq!(cluster.threats().identity_count(), 1);
    let findings = cluster.audit();
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].object.as_ref(), Some(&ids[1]));
    assert_eq!(findings[0].explanation, Some(Explanation::StandingThreat));
    assert!(
        cluster.stale_threats().is_empty(),
        "the threat is not stale"
    );

    // Repaired outside the CCMgr, the threat outlives its violation.
    let name = ConstraintName::from(BOUNDED);
    cluster.set_constraint_enabled(&name, false).unwrap();
    set_n(&mut cluster, NodeId(0), &ids[1], 10);
    cluster.set_constraint_enabled(&name, true).unwrap();
    assert!(cluster.audit().is_empty());
    assert_eq!(cluster.stale_threats().len(), 1);
}
