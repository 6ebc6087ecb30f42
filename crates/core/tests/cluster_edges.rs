//! Edge-case behaviour of the cluster façade: locking, deployment
//! checks, remote reads of bound objects, metrics and naming.

use dedisys_core::nodes;
use dedisys_core::{ClusterBuilder, ConsistencyThreat, ThreatDecision};
use dedisys_object::{AppDescriptor, ClassDescriptor, EntityState};
use dedisys_types::{Error, NodeId, ObjectId, SystemMode, TxId, Value};

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
