//! The threat-completeness audit through the public API: a violation
//! the CCMgr never saw is reported as exactly its (constraint, object)
//! pair, and the same violation under a standing threat is explained.

use dedisys_constraints::{
    expr::ExprConstraint, ConstraintMeta, ContextPreparation, RegisteredConstraint,
};
use dedisys_core::{
    Cluster, ClusterBuilder, DeferAll, Explanation, Finding, HighestVersionWins, RingRecorder,
    TraceEvent,
};
use dedisys_object::{AppDescriptor, ClassDescriptor, EntityState, Snapshot};
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

/// Installs `n` on every live copy of `id` as a migration does
/// ([`Cluster::install_object`]): past the CCMgr, with no check.
fn install_n(cluster: &mut Cluster, id: &ObjectId, n: i64) {
    let mut state = cluster.entity_on(NodeId(0), id).unwrap().clone();
    state.set_field("n", Value::Int(n), cluster.now());
    let snapshot = Snapshot::encode(state, &mut String::new());
    cluster.install_object(snapshot).unwrap();
}

/// Breaks §3.2's promise on purpose: `n = 150` goes in past every
/// check, so no threat records the violation.
fn sneak_in_a_violation(cluster: &mut Cluster, id: &ObjectId) {
    install_n(cluster, id, 150);
}

/// Breaks the promise on purpose: the violation is installed past the
/// CCMgr, so no threat records it and the audit reports it as lost.
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
    // A degraded write no constraint checks (`max` triggers none).
    cluster
        .run_tx(NodeId(0), |c, tx| {
            c.set_field(NodeId(0), tx, &ids[2], "max", Value::Int(100))
        })
        .unwrap();
    assert!(cluster.threats().is_empty());
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
    install_n(&mut cluster, &ids[1], 10);
    assert!(cluster.audit().is_empty());
    assert_eq!(cluster.stale_threats().len(), 1);
}

/// Splits n0 from the rest, as every degraded write below needs.
fn cut_off_n0(cluster: &mut Cluster) {
    cluster
        .partition(&[vec![NodeId(0)], vec![NodeId(1), NodeId(2)]])
        .unwrap();
}

/// §4.4's clean-up is the decision of a transaction: a satisfied check
/// in one that rolls back removes no standing threat, so the violation
/// that threat records stays explained.
#[test]
fn a_satisfied_check_in_a_rolled_back_transaction_keeps_the_standing_threat() {
    let (mut cluster, ids) = cluster();
    cut_off_n0(&mut cluster);
    set_n(&mut cluster, NodeId(0), &ids[1], 160);
    assert_eq!(cluster.threats().len(), 1);
    cluster.heal();
    let summary = cluster.reconcile(&mut HighestVersionWins, &mut DeferAll);
    assert_eq!(summary.constraints.deferred, 1);
    assert_eq!(cluster.threats().len(), 1, "the deferred threat stands");
    promise::assert_kept(&cluster);

    let mut session = cluster.session(NodeId(0));
    session.set_field(&ids[1], "n", Value::Int(10)).unwrap();
    session.rollback().unwrap();
    assert_eq!(
        cluster.entity_on(NodeId(0), &ids[1]).unwrap().field("n"),
        &Value::Int(160),
        "the repair rolled back"
    );
    assert_eq!(cluster.threats().len(), 1, "and its clean-up with it");
    promise::assert_kept(&cluster);
}

/// An accepted threat records an operation that happened (§3.2): one
/// whose transaction rolls back never reaches the store or its journal,
/// so a restart has nothing to re-activate.
#[test]
fn a_rolled_back_threat_leaves_the_store_and_its_journal_as_they_were() {
    let (mut cluster, ids) = cluster();
    cut_off_n0(&mut cluster);
    let mut session = cluster.session(NodeId(0));
    session.set_field(&ids[1], "n", Value::Int(160)).unwrap();
    session.rollback().unwrap();
    assert_eq!(cluster.threats().len(), 0);

    cluster.crash(NodeId(0)).unwrap();
    let ring = RingRecorder::new(64);
    cluster.telemetry().attach(Box::new(ring.clone()));
    cluster.restart(NodeId(0)).unwrap();
    let restarts: Vec<TraceEvent> = ring
        .records_of_kind("node_restart")
        .into_iter()
        .map(|r| r.event)
        .collect();
    assert!(
        matches!(
            restarts[..],
            [TraceEvent::NodeRestart {
                reactivated_threats: 0,
                ..
            }]
        ),
        "{restarts:?}"
    );
    assert_eq!(cluster.threats().len(), 0);
}

const PAIR: &str = "Pair";

/// Two counters, each the other's peer, under `n + peer.m <= max`:
/// writing `n` checks the written counter, writing `m` its peer, so two
/// transactions threaten one identity while holding different locks.
fn pair_cluster() -> (Cluster, [ObjectId; 2]) {
    let app = AppDescriptor::new("pair").with_class(
        ClassDescriptor::new("Counter")
            .with_field("n", Value::Int(0))
            .with_field("m", Value::Int(0))
            .with_field("max", Value::Int(100))
            .with_field("peer", Value::Null),
    );
    let pair = RegisteredConstraint::new(
        ConstraintMeta::new(PAIR).tradeable(SatisfactionDegree::Uncheckable),
        Arc::new(ExprConstraint::parse("self.n + self.peer.m <= self.max").unwrap()),
    )
    .context_class("Counter")
    .affects("Counter", "setN", ContextPreparation::CalledObject)
    .affects(
        "Counter",
        "setM",
        ContextPreparation::ReferenceField("peer".into()),
    );
    let mut cluster = ClusterBuilder::new(3, app)
        .constraint(pair)
        .build()
        .unwrap();
    let ids = [0, 1].map(|i| ObjectId::new("Counter", format!("c{i}")));
    for (id, peer) in [(&ids[0], &ids[1]), (&ids[1], &ids[0])] {
        cluster
            .run_tx(NodeId(0), |c, tx| {
                let mut entity = EntityState::for_class(c.app(), id)?;
                entity.set_field("peer", Value::Ref(peer.clone()), c.now());
                c.create(NodeId(0), tx, entity)
            })
            .unwrap();
    }
    (cluster, ids)
}

/// Under identical-once history, a threat folds into a stored one of
/// its identity. Two open transactions threaten one identity through
/// different objects, so they hold different locks: the one that
/// commits is recorded, whichever staged first, and the other's
/// rollback takes nothing with it.
#[test]
fn a_threat_folded_into_a_rolled_back_transactions_identity_is_recorded_by_its_own_commit() {
    let (mut cluster, ids) = pair_cluster();
    cut_off_n0(&mut cluster);

    // A writes c0 and B writes c1; both threaten (Pair, c0).
    let a = cluster.session(NodeId(0)).detach();
    cluster
        .set_field(NodeId(0), a, &ids[0], "n", Value::Int(10))
        .unwrap();
    let b = cluster.session(NodeId(0)).detach();
    cluster
        .set_field(NodeId(0), b, &ids[1], "m", Value::Int(20))
        .unwrap();
    cluster.commit(b).unwrap();
    cluster.rollback(a).unwrap();

    let stored = cluster.threats().threats();
    assert_eq!(stored.len(), 1, "{stored:?}");
    assert_eq!(stored[0].constraint, ConstraintName::from(PAIR));
    assert_eq!(stored[0].context_object.as_ref(), Some(&ids[0]));
    assert_eq!(stored[0].tx, b, "the record is the committed write's");
}

/// A satisfied check's clean-up waits for its commit, and then covers
/// only what the check saw: a threat of the same identity journalled in
/// between — a degraded write while the checking transaction is
/// prepared — is not cleaned up with it.
#[test]
fn a_threat_journalled_after_a_satisfied_check_outlives_its_clean_up() {
    let (mut cluster, ids) = pair_cluster();
    // A standing threat of (Pair, c0): a violation deferred at
    // reconciliation.
    cut_off_n0(&mut cluster);
    let c0 = &ids[0];
    cluster
        .run_tx(NodeId(0), |c, tx| {
            c.set_field(NodeId(0), tx, c0, "n", Value::Int(160))
        })
        .unwrap();
    cluster.heal();
    let summary = cluster.reconcile(&mut HighestVersionWins, &mut DeferAll);
    assert_eq!(summary.constraints.deferred, 1);

    // A repairs c0: its check is satisfied and stages the clean-up.
    let a = cluster.session(NodeId(0)).detach();
    cluster
        .set_field(NodeId(0), a, c0, "n", Value::Int(10))
        .unwrap();
    cluster.prepare(a).unwrap();
    // A degraded write of c1's `m` threatens (Pair, c0) again.
    cut_off_n0(&mut cluster);
    let c1 = &ids[1];
    cluster
        .run_tx(NodeId(1), |c, tx| {
            c.set_field(NodeId(1), tx, c1, "m", Value::Int(200))
        })
        .unwrap();
    cluster.commit(a).unwrap();
    assert_eq!(cluster.threats().len(), 1, "the later threat stands");

    cluster.heal();
    let summary = cluster.reconcile(&mut HighestVersionWins, &mut DeferAll);
    assert_eq!(summary.constraints.deferred, 1, "10 + 200 > 100");
    promise::assert_kept(&cluster);
}
