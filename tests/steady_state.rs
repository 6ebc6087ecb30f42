//! Nothing but the journals grows with work that has ended.
//!
//! Degraded mode has to remember three things — the threats it
//! accepted, the states it committed, the transactions it has open —
//! and each of them ends: a reconciled threat is removed, a reconciled
//! cycle's history is cleared, a finished transaction leaves the three
//! tables that held a record of it (the transaction manager's, the
//! nodes' write buffers, the cluster's — the CCMgr's part of the
//! record included). This drives whole
//! cycles of all three — ten thousand healthy transactions among them —
//! and checks that what is left after a cycle is what was there before
//! it.

use dedisys_constraints::{
    expr::ExprConstraint, ConstraintMeta, ContextPreparation, RegisteredConstraint,
};
use dedisys_core::nodes;
use dedisys_core::{
    Cluster, ClusterBuilder, ConsistencyThreat, HighestVersionWins, ReconOps, ThreatDecision,
    ViolationReport,
};
use dedisys_object::{AppDescriptor, ClassDescriptor, EntityState};
use dedisys_types::{
    ConstraintName, Error, NodeId, ObjectId, SatisfactionDegree, SystemMode, TxId, Value,
};
use std::sync::Arc;

#[path = "../crates/core/tests/promise/mod.rs"]
mod promise;

const CYCLES: usize = 5;
const OBJECTS: usize = 20;
const DEGRADED_WRITES: usize = 60;
const HEALTHY_TXS: usize = 2_000;

fn cluster() -> (Cluster, Vec<ObjectId>) {
    let app = AppDescriptor::new("steady").with_class(
        ClassDescriptor::new("Counter")
            .with_field("n", Value::Int(0))
            .with_field("max", Value::Int(100)),
    );
    let bounded = RegisteredConstraint::new(
        ConstraintMeta::new("Bounded").tradeable(SatisfactionDegree::PossiblyViolated),
        Arc::new(ExprConstraint::parse("self.n <= self.max").unwrap()),
    )
    .context_class("Counter")
    .affects("Counter", "setN", ContextPreparation::CalledObject);
    let mut cluster = ClusterBuilder::new(3, app)
        .constraint(bounded)
        .configure(|c| c.validation.verdict_cache = true)
        .build()
        .unwrap();
    let ids: Vec<ObjectId> = (0..OBJECTS)
        .map(|i| ObjectId::new("Counter", format!("c{i}")))
        .collect();
    for id in &ids {
        cluster
            .run_tx(NodeId(0), |c, tx| {
                c.create(NodeId(0), tx, EntityState::for_class(c.app(), id)?)
            })
            .unwrap();
    }
    (cluster, ids)
}

/// `HEALTHY_TXS` transactions, every other one rolled back, and one 2PC
/// whose coordinator crashes after prepare and is presumed aborted when
/// it restarts; leaves the verdict cache filled. Returns the first
/// transaction it began.
fn healthy_work(cluster: &mut Cluster, ids: &[ObjectId], round: usize) -> TxId {
    let mut first = None;
    for i in 0..HEALTHY_TXS {
        let mut session = cluster.session(NodeId((i % 3) as u32));
        first.get_or_insert(session.tx());
        session
            .set_field(&ids[i % OBJECTS], "n", Value::Int((round + i) as i64 % 90))
            .unwrap();
        if i % 2 == 0 {
            session.commit().unwrap();
        } else {
            session.rollback().unwrap();
        }
    }

    let coordinator = NodeId(2);
    let mut session = cluster.session(coordinator);
    session.set_field(&ids[0], "n", Value::Int(1)).unwrap();
    let prepared = session.prepare().unwrap();
    assert_eq!(cluster.tx_record_count(), 3, "one per table");
    cluster.crash(coordinator).unwrap();
    assert_eq!(cluster.in_doubt_count(), 1);
    assert!(cluster.tx_is_open(prepared));
    assert_eq!(cluster.tx_record_count(), 3, "in doubt is still open");
    cluster.restart(coordinator).unwrap();
    assert!(!cluster.tx_is_open(prepared), "presumed abort");
    assert_eq!(cluster.tx_record_count(), 0, "presumed abort");
    if cluster.mode() != SystemMode::Healthy {
        cluster.reconcile(&mut HighestVersionWins, &mut repair);
        promise::assert_kept(cluster);
    }

    // Re-checking the constraint memoizes one verdict per counter, for
    // the cycle's reconciliation to drop.
    let bounded = ConstraintName::from("Bounded");
    cluster.set_constraint_enabled(&bounded, false).unwrap();
    cluster.set_constraint_enabled(&bounded, true).unwrap();
    assert_eq!(cluster.verdict_cache_len(), OBJECTS);
    first.expect("began at least one transaction")
}

/// Resets a violating counter to its bound.
fn repair(violation: &ViolationReport, ops: &mut ReconOps<'_>) -> bool {
    let id = violation
        .identity
        .context_object
        .as_ref()
        .expect("Bounded has a context object");
    ops.read(id, "max")
        .and_then(|max| ops.write(id, "n", max))
        .is_ok()
}

/// One partition → degraded writes on both sides → heal → reconcile.
/// Every write raises an accepted threat; rollback is allowed on every
/// other one; the last write of side {2} is above the bound, which
/// degraded mode lets through and reconciliation has to repair.
fn degraded_cycle(cluster: &mut Cluster, ids: &[ObjectId]) {
    cluster.partition(&[nodes![0, 1], nodes![2]]).unwrap();
    for i in 0..DEGRADED_WRITES {
        let node = NodeId(if i % 2 == 0 { 0 } else { 2 });
        let violating = i == DEGRADED_WRITES - 1;
        let n = if violating { 150 } else { (i % 90) as i64 };
        let mut session = cluster.session(node);
        session
            .register_negotiation_handler(Box::new(move |threat: &mut ConsistencyThreat| {
                threat.instructions.allow_rollback = i % 4 < 2;
                ThreatDecision::Accept
            }))
            .unwrap();
        session
            .set_field(&ids[(i / 2 * 7) % OBJECTS], "n", Value::Int(n))
            .unwrap();
        session.commit().unwrap();
    }
    assert!(!cluster.threats().is_empty());
    assert!(cluster.needs_reconciliation());

    cluster.heal();
    let summary = cluster.reconcile(&mut HighestVersionWins, &mut repair);
    promise::assert_kept(cluster);
    let c = &summary.constraints;
    assert_eq!(c.violations, 1, "the one designed violation");
    assert_eq!(c.resolved_by_rollback + c.resolved_by_handler, 1);
    assert_eq!((c.deferred, c.postponed), (0, 0));
    assert!(!summary.replica.conflicts.is_empty());
}

#[test]
fn nothing_but_the_journals_grows_with_work_that_has_ended() {
    let (mut cluster, ids) = cluster();
    let mut first_tx = None;
    for cycle in 0..CYCLES {
        let began = healthy_work(&mut cluster, &ids, cycle);
        first_tx.get_or_insert(began);
        degraded_cycle(&mut cluster, &ids);

        let at = format!("after cycle {cycle}");
        assert_eq!(cluster.mode(), SystemMode::Healthy, "{at}");
        assert!(cluster.threats().is_empty(), "{at}");
        assert_eq!(cluster.threats().identity_count(), 0, "{at}");
        assert!(!cluster.needs_reconciliation(), "{at}");
        assert_eq!(cluster.open_tx_count(), 0, "{at}");
        assert_eq!(cluster.tx_record_count(), 0, "{at}");
        assert!(cluster.held_locks().is_empty(), "{at}");
        assert_eq!(cluster.in_doubt_count(), 0, "{at}");
        assert_eq!(cluster.verdict_cache_len(), 0, "{at}");
        // Every replica converged on the bound or below it.
        for id in &ids {
            let n = cluster.entity_on(NodeId(0), id).unwrap().field("n");
            assert!(n.as_int().unwrap() <= 100, "{at}: {id} = {n:?}");
            for node in [NodeId(1), NodeId(2)] {
                assert_eq!(cluster.entity_on(node, id).unwrap().field("n"), n, "{at}");
            }
        }
        // A transaction that ended in the first cycle is not merely
        // closed: nothing is left of it to commit.
        let old = first_tx.expect("set in cycle 0");
        assert!(!cluster.tx_is_open(old), "{at}");
        assert_eq!(
            cluster.commit(old),
            Err(Error::NoSuchTransaction(old)),
            "{at}"
        );
        // Nor is there a record to hang a negotiation handler on — for
        // a transaction that ended, or one that never began.
        for closed in [old, TxId::new(NodeId(1), u64::MAX)] {
            let accept = Box::new(|_: &mut ConsistencyThreat| ThreatDecision::Accept);
            assert_eq!(
                cluster.register_negotiation_handler(closed, accept),
                Err(Error::NoSuchTransaction(closed)),
                "{at}"
            );
        }
        assert_eq!(cluster.tx_record_count(), 0, "{at}");
    }
    let stats = cluster.stats();
    assert_eq!(stats.tx.begun, stats.tx.committed + stats.tx.rolled_back);
}
