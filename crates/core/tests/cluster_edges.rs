//! Edge-case behaviour of the cluster façade: locking, deployment
//! checks, remote reads of bound objects, metrics and naming.

use dedisys_constraints::{
    expr::ExprConstraint, ConstraintKind, ConstraintMeta, ContextPreparation, RegisteredConstraint,
};
use dedisys_core::nodes;
use dedisys_core::{
    Cluster, ClusterBuilder, ConsistencyThreat, CostModel, RingRecorder, ThreatDecision, TraceEvent,
};
use dedisys_object::{AppDescriptor, ClassDescriptor, EntityState};
use dedisys_types::{Error, NodeId, ObjectId, SystemMode, TxId, Value};
use std::sync::Arc;

fn app() -> AppDescriptor {
    AppDescriptor::new("edges")
        .with_class(ClassDescriptor::new("Item").with_field("v", Value::Int(0)))
}

fn cluster(nodes: u32) -> dedisys_core::Cluster {
    ClusterBuilder::new(nodes, app()).build().unwrap()
}

fn seed(c: &mut dedisys_core::Cluster, key: &str) -> ObjectId {
    let id = ObjectId::new("Item", key);
    let e = id.clone();
    c.run_tx(NodeId(0), move |c, tx| {
        c.create(NodeId(0), tx, EntityState::for_class(c.app(), &e)?)
    })
    .unwrap();
    id
}

#[test]
fn concurrent_transactions_conflict_on_the_same_object() {
    let mut c = cluster(2);
    let id = seed(&mut c, "a");
    // Two live transactions need raw ids: detach them from their RAII
    // sessions.
    let tx1 = c.session(NodeId(0)).detach();
    let tx2 = c.session(NodeId(1)).detach();
    c.set_field(NodeId(0), tx1, &id, "v", Value::Int(1))
        .unwrap();
    // Entity-bean locking: the second transaction cannot write.
    let conflict = c.set_field(NodeId(1), tx2, &id, "v", Value::Int(2));
    assert!(matches!(conflict, Err(Error::LockConflict { .. })));
    // After commit the lock is released.
    c.commit(tx1).unwrap();
    c.set_field(NodeId(1), tx2, &id, "v", Value::Int(2))
        .unwrap();
    c.commit(tx2).unwrap();
    assert_eq!(
        c.entity_on(NodeId(0), &id).unwrap().field("v"),
        &Value::Int(2)
    );
}

#[test]
fn unknown_classes_and_objects_are_rejected() {
    let mut c = cluster(1);
    let mut session = c.session(NodeId(0));
    let ghost_class = ObjectId::new("Ghost", "g");
    assert!(matches!(
        session.invoke(&ghost_class, "setV", vec![Value::Int(1)]),
        Err(Error::ClassNotDeployed(_))
    ));
    let missing = ObjectId::new("Item", "missing");
    assert!(matches!(
        session.invoke(&missing, "setV", vec![Value::Int(1)]),
        Err(Error::ObjectNotFound(_))
    ));
}

#[test]
fn terminated_transactions_cannot_be_reused() {
    let mut c = cluster(1);
    let id = seed(&mut c, "a");
    let tx = c.session(NodeId(0)).detach();
    c.commit(tx).unwrap();
    assert!(matches!(c.commit(tx), Err(Error::NoSuchTransaction(_))));
    assert!(matches!(c.rollback(tx), Err(Error::NoSuchTransaction(_))));
    assert!(matches!(
        c.set_field(NodeId(0), tx, &id, "v", Value::Int(1)),
        Err(Error::NoSuchTransaction(_))
    ));
}

/// A negotiation handler lives in the one record of an open
/// transaction: one that never began, or has ended — committed or
/// rolled back — has nowhere to hold it.
#[test]
fn a_transaction_that_is_not_open_takes_no_handler() {
    let mut c = cluster(1);
    let accept = || Box::new(|_: &mut ConsistencyThreat| ThreatDecision::Accept);
    let committed = c.session(NodeId(0)).detach();
    c.register_negotiation_handler(committed, accept()).unwrap();
    c.commit(committed).unwrap();
    let rolled_back = c.session(NodeId(0)).detach();
    c.register_negotiation_handler(rolled_back, accept())
        .unwrap();
    c.rollback(rolled_back).unwrap();
    let never = TxId::new(NodeId(0), u64::MAX);
    for tx in [never, committed, rolled_back] {
        assert_eq!(
            c.register_negotiation_handler(tx, accept()),
            Err(Error::NoSuchTransaction(tx))
        );
    }
    assert_eq!(c.tx_record_count(), 0);
}

/// `Item.v` under `limit`, checked by the CCMgr as `kind`.
fn ceiling(name: &str, kind: ConstraintKind, limit: i64) -> RegisteredConstraint {
    let source = format!("self.v <= {limit}");
    RegisteredConstraint::new(
        ConstraintMeta::new(name).kind(kind),
        Arc::new(ExprConstraint::parse(&source).unwrap()),
    )
    .context_class("Item")
    .affects("Item", "setV", ContextPreparation::CalledObject)
}

/// Every way an open transaction ends. Each runs on a fresh three-node
/// cluster whose `Item`s have their primary on node 0: the transaction
/// begins on node 1 and writes one of them, so node 0 is a participant
/// and node 1 the coordinator.
#[derive(Debug, Clone, Copy)]
enum End {
    Commit,
    Rollback,
    /// A call the hard invariant refuses, then a commit.
    Vetoed,
    /// A write the soft invariant refuses at the commit's vote.
    RefusedVote,
    PreparedRollback,
    ParticipantCrash,
    /// Coordinator crash after prepare, presumed abort at the deadline.
    InDoubtTimeout,
    /// Coordinator crash after prepare, presumed abort at its restart.
    InDoubtRestart,
}

impl End {
    /// Drives `tx`, which has written nothing yet, to this end.
    fn drive(self, c: &mut Cluster, tx: TxId, id: &ObjectId) {
        let (coordinator, participant) = (NodeId(1), NodeId(0));
        let value = match self {
            Self::Vetoed => 11,
            Self::RefusedVote => 8,
            _ => 1,
        };
        let write = c.set_field(coordinator, tx, id, "v", Value::Int(value));
        assert_eq!(write.is_err(), matches!(self, Self::Vetoed), "{self:?}");
        match self {
            Self::Commit => c.commit(tx).unwrap(),
            Self::Rollback => c.rollback(tx).unwrap(),
            Self::Vetoed => assert_eq!(c.commit(tx), Err(Error::RollbackOnly(tx))),
            Self::RefusedVote => {
                assert!(matches!(
                    c.commit(tx),
                    Err(Error::ConstraintViolated { .. })
                ));
            }
            Self::PreparedRollback => {
                c.prepare(tx).unwrap();
                c.rollback(tx).unwrap();
            }
            Self::ParticipantCrash => {
                c.crash(participant).unwrap();
            }
            Self::InDoubtTimeout | Self::InDoubtRestart => {
                c.prepare(tx).unwrap();
                c.crash(coordinator).unwrap();
                assert_eq!(c.in_doubt_count(), 1);
                if matches!(self, Self::InDoubtTimeout) {
                    c.clock().advance(CostModel::default().in_doubt_timeout);
                    assert_eq!(c.resolve_in_doubt(), 1);
                } else {
                    c.restart(coordinator).unwrap();
                }
                assert_eq!(c.in_doubt_resolved(), 1);
            }
        }
    }
}

/// Whichever way a transaction ends, it leaves no record, buffer or
/// lock behind, and its end is counted and traced exactly once.
#[test]
fn every_way_a_transaction_ends_leaves_nothing_and_is_counted_once() {
    use End::*;
    let ends = [
        (Commit, "tx_commit"),
        (Rollback, "tx_rollback"),
        (Vetoed, "tx_rollback"),
        (RefusedVote, "tx_rollback"),
        (PreparedRollback, "tx_rollback"),
        (ParticipantCrash, "tx_rollback"),
        (InDoubtTimeout, "tx_rollback"),
        (InDoubtRestart, "tx_rollback"),
    ];
    for (end, kind) in ends {
        let mut c = ClusterBuilder::new(3, app())
            .constraint(ceiling("Hard", ConstraintKind::HardInvariant, 10))
            .constraint(ceiling("Soft", ConstraintKind::SoftInvariant, 7))
            .build()
            .unwrap();
        let id = seed(&mut c, "a");
        let ring = RingRecorder::new(4096);
        c.telemetry().attach(Box::new(ring.clone()));
        let tx = c.session(NodeId(1)).detach();
        end.drive(&mut c, tx, &id);

        assert!(!c.tx_is_open(tx), "{end:?}");
        assert_eq!(c.tx_record_count(), 0, "{end:?}");
        assert!(c.held_locks().is_empty(), "{end:?}");
        let stats = c.stats().tx;
        assert_eq!(stats.begun, stats.committed + stats.rolled_back, "{end:?}");
        let ends_of_tx: Vec<&str> = ring
            .records()
            .iter()
            .filter_map(|r| match r.event {
                TraceEvent::TxCommit { tx: t } | TraceEvent::TxRollback { tx: t } if t == tx => {
                    Some(r.event.kind())
                }
                _ => None,
            })
            .collect();
        assert_eq!(ends_of_tx, [kind], "{end:?}");
    }
}

#[test]
fn session_rolls_back_on_drop_and_raw_begin_still_works() {
    let mut c = cluster(1);
    let id = seed(&mut c, "a");
    {
        let mut session = c.session(NodeId(0));
        session.set_field(&id, "v", Value::Int(9)).unwrap();
        // Dropped without commit: the buffered write must vanish.
    }
    assert_eq!(
        c.entity_on(NodeId(0), &id).unwrap().field("v"),
        &Value::Int(0),
        "dropped session rolled back"
    );
    // The raw TxId surface stays reachable via a detached session.
    let tx = c.session(NodeId(0)).detach();
    c.set_field(NodeId(0), tx, &id, "v", Value::Int(3)).unwrap();
    c.commit(tx).unwrap();
    assert_eq!(
        c.entity_on(NodeId(0), &id).unwrap().field("v"),
        &Value::Int(3)
    );
}

#[test]
fn bound_objects_are_read_remotely_within_the_partition() {
    let mut c = cluster(3);
    // An object living only on node 2.
    let id = ObjectId::new("Item", "bound");
    let e = id.clone();
    c.run_tx(NodeId(0), move |c, tx| {
        let mut state = EntityState::for_class(c.app(), &e)?;
        state.set_field("v", Value::Int(42), c.now());
        c.create_bound(NodeId(0), tx, state, vec![NodeId(2)], NodeId(2))
    })
    .unwrap();
    // Node 0 holds no replica but can read through the partition.
    let got = c
        .run_tx(NodeId(0), |c, tx| c.get_field(NodeId(0), tx, &id, "v"))
        .unwrap();
    assert_eq!(got, Value::Int(42));
    // After isolating node 2, the object is unreachable from node 0.
    c.partition(&[nodes![0, 1], nodes![2]]).unwrap();
    let gone = c.run_tx(NodeId(0), |c, tx| c.get_field(NodeId(0), tx, &id, "v"));
    assert!(matches!(gone, Err(Error::ObjectUnreachable(_))));
}

#[test]
fn empty_methods_do_not_propagate() {
    let app = AppDescriptor::new("edges").with_class(
        ClassDescriptor::new("Item")
            .with_field("v", Value::Int(0))
            .with_method(dedisys_object::MethodDescriptor::with_kind(
                "poke",
                dedisys_object::MethodKind::Write,
            )),
    );
    let mut c = ClusterBuilder::new(2, app).build().unwrap();
    let id = seed(&mut c, "a");
    let before = c.stats().replication.propagations;
    c.run_tx(NodeId(0), |c, tx| {
        c.invoke(NodeId(0), tx, &id, "poke", vec![])
    })
    .unwrap();
    assert_eq!(
        c.stats().replication.propagations,
        before,
        "no state change, nothing propagated (§5.1)"
    );
}

#[test]
fn metrics_count_attempts_and_failures() {
    let mut c = cluster(1);
    let id = seed(&mut c, "a");
    let _ = c.run_tx(NodeId(0), |c, tx| {
        c.set_field(NodeId(0), tx, &id, "v", Value::Int(1))
    });
    let missing = ObjectId::new("Item", "missing");
    let _ = c.run_tx(NodeId(0), |c, tx| c.get_field(NodeId(0), tx, &missing, "v"));
    let m = c.stats().cluster;
    assert_eq!(m.invocations, 2);
    assert_eq!(m.failed_invocations, 1);
    assert_eq!(m.creates, 1);
}

#[test]
fn views_track_partition_membership_per_node() {
    let mut c = cluster(4);
    assert_eq!(c.view_of(NodeId(0)).size(), 4);
    c.partition(&[nodes![0, 1], nodes![2, 3]]).unwrap();
    assert_eq!(c.view_of(NodeId(0)).size(), 2);
    assert_eq!(c.view_of(NodeId(3)).size(), 2);
    assert!(!c.view_of(NodeId(0)).contains(NodeId(2)));
    assert_eq!(c.mode(), SystemMode::Degraded);
    c.heal();
    assert_eq!(c.view_of(NodeId(2)).size(), 4);
}

#[test]
fn partition_fraction_reflects_weights() {
    let mut c = ClusterBuilder::new(4, app())
        .weights(dedisys_gms::NodeWeights::explicit(vec![3, 1, 1, 1]))
        .build()
        .unwrap();
    c.partition(&[nodes![0], nodes![1, 2, 3]]).unwrap();
    assert!((c.partition_fraction(NodeId(0)) - 0.5).abs() < 1e-9);
    assert!((c.partition_fraction(NodeId(1)) - 0.5).abs() < 1e-9);
}

#[test]
fn the_objects_create_places_share_one_replica_set() {
    let mut c = cluster(3);
    let ids: Vec<ObjectId> = (0..1_000)
        .map(|k| ObjectId::new("Item", format!("i{k}")))
        .collect();
    for (k, id) in ids.iter().enumerate() {
        let node = NodeId(k as u32 % 3);
        let e = id.clone();
        c.run_tx(node, move |c, tx| {
            c.create(node, tx, EntityState::for_class(c.app(), &e)?)
        })
        .unwrap();
    }
    // Two bound creates name one set between them, whatever order it
    // is spelled in and whichever member is primary.
    let bound = [ObjectId::new("Item", "b0"), ObjectId::new("Item", "b1")];
    let (b0, b1) = (bound[0].clone(), bound[1].clone());
    c.run_tx(NodeId(1), move |c, tx| {
        let e0 = EntityState::for_class(c.app(), &b0)?;
        c.create_bound(NodeId(1), tx, e0, vec![NodeId(1), NodeId(2)], NodeId(1))?;
        let e1 = EntityState::for_class(c.app(), &b1)?;
        c.create_bound(NodeId(1), tx, e1, vec![NodeId(2), NodeId(1)], NodeId(2))
    })
    .unwrap();

    let everywhere = c.replicas_of(&ids[0]).unwrap();
    assert!(everywhere.iter().copied().eq(nodes![0, 1, 2]));
    assert!(ids
        .iter()
        .all(|id| std::ptr::eq(c.replicas_of(id).unwrap(), everywhere)));
    let pair = c.replicas_of(&bound[0]).unwrap();
    assert!(pair.iter().copied().eq(nodes![1, 2]));
    assert!(!std::ptr::eq(pair, everywhere));
    assert!(std::ptr::eq(c.replicas_of(&bound[1]).unwrap(), pair));
}
