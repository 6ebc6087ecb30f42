//! Robustness integration tests: the node crash/restart lifecycle, 2PC
//! in-doubt recovery (presumed abort), §5.5.1 threat re-activation, and
//! the typed topology error paths. The seeded chaos engine's own
//! schedules are tested beside it, in `dedisys-bench`.

use dedisys_constraints::{
    expr::ExprConstraint, ConstraintMeta, ContextPreparation, RegisteredConstraint,
};
use dedisys_core::{
    nodes, Cluster, ClusterBuilder, CostModel, DeferAll, HighestVersionWins, RingRecorder,
};
use dedisys_object::{AppDescriptor, ClassDescriptor, EntityState};
use dedisys_types::{Error, NodeId, ObjectId, SatisfactionDegree, TxId, Value};
use std::sync::Arc;

#[path = "../crates/core/tests/promise/mod.rs"]
mod promise;

fn app() -> AppDescriptor {
    AppDescriptor::new("robust").with_class(
        ClassDescriptor::new("Counter")
            .with_field("n", Value::Int(0))
            .with_field("max", Value::Int(100)),
    )
}

fn bounded_constraint() -> RegisteredConstraint {
    RegisteredConstraint::new(
        ConstraintMeta::new("Bounded").tradeable(SatisfactionDegree::PossiblySatisfied),
        Arc::new(ExprConstraint::parse("self.n <= self.max").unwrap()),
    )
    .context_class("Counter")
    .affects("Counter", "setN", ContextPreparation::CalledObject)
}

fn cluster(nodes: u32) -> Cluster {
    ClusterBuilder::new(nodes, app()).build().unwrap()
}

fn seed_object(cluster: &mut Cluster) -> ObjectId {
    let id = ObjectId::new("Counter", "c1");
    let node = NodeId(0);
    let e = id.clone();
    cluster
        .run_tx(node, move |c, tx| {
            c.create(node, tx, EntityState::for_class(c.app(), &e)?)
        })
        .unwrap();
    id
}

/// Begins a transaction on `node`, updates the object, and drives it
/// through the prepare phase, leaving a prepared (hanging) 2PC
/// coordinator — the setup of every in-doubt scenario.
fn prepare_hanging_tx(cluster: &mut Cluster, node: NodeId, id: &ObjectId) -> TxId {
    let mut session = cluster.session(node);
    session.set_field(id, "n", Value::Int(7)).unwrap();
    session.prepare().unwrap()
}

// ---------------------------------------------------------------------
// 2PC in-doubt recovery
// ---------------------------------------------------------------------

/// Regression — a coordinator crash between prepare and commit used to
/// leave the transaction's locks held forever. Now the transaction
/// parks in the in-doubt registry (blocking both commit and rollback),
/// and the presumed-abort timeout releases everything.
#[test]
fn crash_during_prepare_parks_in_doubt_and_presumed_abort_releases_locks() {
    let mut c = cluster(3);
    let id = seed_object(&mut c);
    let tx = prepare_hanging_tx(&mut c, NodeId(1), &id);
    assert_eq!(c.held_locks().len(), 1, "prepared tx holds its lock");

    c.crash(NodeId(1)).unwrap();
    assert_eq!(c.in_doubt_count(), 1);
    assert!(c.tx_is_open(tx), "in-doubt stays open until resolution");
    assert_eq!(
        c.held_locks().len(),
        1,
        "in-doubt locks are retained, not leaked to nobody"
    );
    // The outcome is unknowable: neither commit nor rollback may run.
    assert!(matches!(c.commit(tx), Err(Error::TxInDoubt(t)) if t == tx));
    assert!(matches!(c.rollback(tx), Err(Error::TxInDoubt(t)) if t == tx));

    // Before the timeout nothing resolves…
    assert_eq!(c.resolve_in_doubt(), 0);
    // …after it, presumed abort drains the registry and the locks.
    c.clock().advance(CostModel::default().in_doubt_timeout);
    assert_eq!(c.resolve_in_doubt(), 1);
    assert_eq!(c.in_doubt_count(), 0);
    assert_eq!(c.open_tx_count(), 0, "no open transaction survives");
    assert!(c.held_locks().is_empty(), "lock leak after presumed abort");
    assert_eq!(c.in_doubt_resolved(), 1);

    // The object is writable again by the survivors.
    c.run_tx(NodeId(0), |c, tx| {
        c.set_field(NodeId(0), tx, &id, "n", Value::Int(3))
    })
    .unwrap();
    assert_eq!(
        c.entity_on(NodeId(0), &id).unwrap().field("n"),
        &Value::Int(3)
    );
}

/// The deadline path of `resolve_in_doubt` announces itself: each
/// transaction resolved by timeout emits one dedicated
/// `in_doubt_timeout` event (naming the dead coordinator and how
/// overdue the deadline was) *before* its presumed-abort
/// `two_pc_resolved`.
#[test]
fn deadline_resolution_emits_a_dedicated_in_doubt_timeout_event() {
    let mut c = cluster(3);
    let ring = RingRecorder::new(1024);
    c.telemetry().attach(Box::new(ring.clone()));
    let id = seed_object(&mut c);
    prepare_hanging_tx(&mut c, NodeId(1), &id);
    c.crash(NodeId(1)).unwrap();

    // Resolving before the deadline emits nothing.
    assert_eq!(c.resolve_in_doubt(), 0);
    assert!(ring.records_of_kind("in_doubt_timeout").is_empty());

    let overdue = CostModel::default().in_doubt_timeout * 2;
    c.clock().advance(overdue);
    assert_eq!(c.resolve_in_doubt(), 1);
    let timeouts = ring.records_of_kind("in_doubt_timeout");
    assert_eq!(timeouts.len(), 1, "one timeout event per resolved tx");
    match &timeouts[0].event {
        dedisys_core::TraceEvent::InDoubtTimeout {
            coordinator,
            overdue_ns,
            ..
        } => {
            assert_eq!(*coordinator, NodeId(1), "names the dead coordinator");
            assert!(*overdue_ns > 0, "deadline was actually overdue");
        }
        other => panic!("wrong event payload: {other:?}"),
    }
    let resolved = ring.records_of_kind("two_pc_resolved");
    assert_eq!(resolved.len(), 1);
    assert!(
        timeouts[0].seq < resolved[0].seq,
        "timeout announces before the resolution"
    );
    // Restart-path resolution (no deadline involved) stays silent.
    assert_eq!(c.resolve_in_doubt(), 0);
    assert_eq!(ring.records_of_kind("in_doubt_timeout").len(), 1);
}

/// Coordinator restart resolves its in-doubt transactions immediately
/// (no commit record survived the crash ⇒ presumed abort), and the
/// journal replay restores the node's committed state.
#[test]
fn coordinator_restart_presumes_abort_and_replays_journal() {
    let mut c = cluster(3);
    let id = seed_object(&mut c);
    prepare_hanging_tx(&mut c, NodeId(1), &id);

    c.crash(NodeId(1)).unwrap();
    assert!(c.is_crashed(NodeId(1)));
    assert_eq!(c.in_doubt_count(), 1);
    assert!(
        c.journal_len_on(NodeId(1)) > 0,
        "journal survives the crash"
    );

    c.restart(NodeId(1)).unwrap();
    assert!(!c.is_crashed(NodeId(1)));
    assert_eq!(c.in_doubt_count(), 0, "restart resolves own in-doubt txs");
    assert!(c.held_locks().is_empty());
    assert_eq!(c.in_doubt_resolved(), 1);
    // Journal replay restored the committed object; the prepared (never
    // committed) update is gone.
    assert_eq!(
        c.entity_on(NodeId(1), &id).unwrap().field("n"),
        &Value::Int(0),
        "uncommitted update must not survive presumed abort"
    );
    assert!(c.topology().is_healthy(), "restarted node rejoined via GMS");
}

// ---------------------------------------------------------------------
// §5.5.1 — threat records survive a middleware crash
// ---------------------------------------------------------------------

#[test]
fn threat_records_are_reactivated_after_crash_and_restart() {
    let mut c = ClusterBuilder::new(3, app())
        .constraint(bounded_constraint())
        .build()
        .unwrap();
    let id = seed_object(&mut c);
    // A degraded write records a consistency threat.
    c.partition(&[vec![NodeId(0)], vec![NodeId(1), NodeId(2)]])
        .unwrap();
    c.run_tx(NodeId(0), |c, tx| {
        c.set_field(NodeId(0), tx, &id, "n", Value::Int(9))
    })
    .unwrap();
    let before = c.threats().len();
    assert!(before > 0, "degraded write should raise a threat");

    c.heal();
    c.crash(NodeId(2)).unwrap();
    c.restart(NodeId(2)).unwrap();
    assert_eq!(
        c.threats().len(),
        before,
        "threats must be re-activated from the WAL after restart (§5.5.1)"
    );
    // And reconciliation still converges afterwards.
    c.reconcile(&mut HighestVersionWins, &mut DeferAll);
    promise::assert_kept(&c);
    assert!(!c.needs_reconciliation());
}

// ---------------------------------------------------------------------
// Typed topology / lifecycle error paths
// ---------------------------------------------------------------------

#[test]
fn partition_rejects_unknown_duplicate_and_crashed_nodes() {
    let mut c = cluster(3);
    assert!(matches!(
        c.partition(&[vec![NodeId(0), NodeId(9)], vec![NodeId(1), NodeId(2)]]),
        Err(Error::UnknownNode(NodeId(9)))
    ));
    assert!(matches!(
        c.partition(&[vec![NodeId(0), NodeId(1)], vec![NodeId(1), NodeId(2)]]),
        Err(Error::DuplicateNode(NodeId(1)))
    ));
    c.crash(NodeId(2)).unwrap();
    assert!(matches!(
        c.partition(&[vec![NodeId(0)], vec![NodeId(1), NodeId(2)]]),
        Err(Error::NodeCrashed(NodeId(2)))
    ));
    // Valid splits still work, crashed node excluded.
    c.partition(&[vec![NodeId(0)], vec![NodeId(1)]]).unwrap();
}

#[test]
fn isolate_crash_and_restart_validate_their_node() {
    let mut c = cluster(2);
    assert!(matches!(
        c.partition(&[nodes![7]]),
        Err(Error::UnknownNode(NodeId(7)))
    ));
    assert!(matches!(
        c.crash(NodeId(7)),
        Err(Error::UnknownNode(NodeId(7)))
    ));
    assert!(matches!(
        c.restart(NodeId(7)),
        Err(Error::UnknownNode(NodeId(7)))
    ));
    assert!(
        c.restart(NodeId(1)).is_err(),
        "restarting a live node is refused"
    );
    c.crash(NodeId(1)).unwrap();
    assert!(matches!(
        c.crash(NodeId(1)),
        Err(Error::NodeCrashed(NodeId(1)))
    ));
    c.restart(NodeId(1)).unwrap();
}

#[test]
fn crashed_node_rejects_requests_until_restarted() {
    let mut c = cluster(3);
    let id = seed_object(&mut c);
    c.crash(NodeId(2)).unwrap();
    let tx = c.session(NodeId(0)).detach();
    assert!(matches!(
        c.set_field(NodeId(2), tx, &id, "n", Value::Int(1)),
        Err(Error::NodeCrashed(NodeId(2)))
    ));
    c.rollback(tx).unwrap();
    c.restart(NodeId(2)).unwrap();
    c.run_tx(NodeId(2), |c, tx| {
        c.set_field(NodeId(2), tx, &id, "n", Value::Int(1))
    })
    .unwrap();
}
