//! Freshness criteria through the whole middleware (§4.2.3, Figure
//! 4.3): an entity's expected update interval survives create, commit
//! and replication, so a copy that has not been updated for a while
//! estimates the updates it missed; a constraint whose static
//! declaration bounds them rejects the threat on such a stale copy and
//! accepts it on a fresh one.

use dedisys_constraints::{
    expr::ExprConstraint, ConstraintMeta, ContextPreparation, FreshnessCriterion,
    RegisteredConstraint,
};
use dedisys_core::{nodes, ClusterBuilder};
use dedisys_object::{AppDescriptor, ClassDescriptor, EntityState};
use dedisys_types::{Error, NodeId, ObjectId, SatisfactionDegree, SimDuration, Value};
use std::sync::Arc;

fn app() -> AppDescriptor {
    AppDescriptor::new("fresh").with_class(
        ClassDescriptor::new("Counter")
            .with_field("n", Value::Int(0))
            .with_field("max", Value::Int(100))
            .with_field("peer", Value::Null),
    )
}

/// `self.n` is bounded by the peer's `max`, and the peer's copy may
/// have missed at most two updates.
fn peer_bounded() -> RegisteredConstraint {
    RegisteredConstraint::new(
        ConstraintMeta::new("PeerBounded")
            .tradeable(SatisfactionDegree::PossiblySatisfied)
            .with_freshness(FreshnessCriterion::new("Counter", 2)),
        Arc::new(ExprConstraint::parse("self.n <= self.peer.max").unwrap()),
    )
    .context_class("Counter")
    .affects("Counter", "setN", ContextPreparation::CalledObject)
}

#[test]
fn a_freshness_criterion_rejects_a_stale_copy_and_accepts_a_fresh_one() {
    let mut cluster = ClusterBuilder::new(3, app())
        .constraint(peer_bounded())
        .build()
        .unwrap();
    let a = ObjectId::new("Counter", "a");
    let b = ObjectId::new("Counter", "b");
    let interval = SimDuration::from_millis(1_000);
    // Both are created on node 2; nodes 0 and 1 hold copies shipped to
    // them. Only `b` is usually updated once a second.
    let creator = NodeId(2);
    cluster
        .run_tx(creator, |c, tx| {
            let mut first = EntityState::for_class(c.app(), &a)?;
            first.set_field("peer", Value::Ref(b.clone()), c.now());
            c.create(creator, tx, first)?;
            let mut peer = EntityState::for_class(c.app(), &b)?;
            peer.set_expected_update_interval(interval);
            c.create(creator, tx, peer)
        })
        .unwrap();
    let later = cluster.now() + interval * 5;
    for node in [0, 1, 2].map(NodeId) {
        let copy = cluster.entity_on(node, &b).unwrap();
        assert_eq!(copy.version_info(later).missed_updates(), 5, "{node}");
    }

    cluster.partition(&[nodes![0, 1], nodes![2]]).unwrap();
    let node = NodeId(0);
    let write = |cluster: &mut dedisys_core::Cluster, n: i64| {
        cluster.run_tx(node, |c, tx| c.set_field(node, tx, &a, "n", Value::Int(n)))
    };
    write(&mut cluster, 1).expect("b was updated just now: fresh");

    cluster.clock().advance(interval * 5);
    assert!(
        matches!(write(&mut cluster, 2), Err(Error::ThreatRejected { .. })),
        "b's copy missed an estimated five updates"
    );

    // Updating `b` within the partition makes its copies fresh again.
    cluster
        .run_tx(node, |c, tx| {
            c.set_field(node, tx, &b, "max", Value::Int(100))
        })
        .unwrap();
    write(&mut cluster, 3).expect("b was updated just now: fresh again");
    assert_eq!(cluster.stats().ccm.threats_rejected, 1);
}
