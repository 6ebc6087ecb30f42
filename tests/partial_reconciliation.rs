//! §3.3 partial re-unification: when only some partitions merge,
//! reconciliation proceeds for the objects it can reach and postpones
//! the rest until further partitions re-unify.

use dedisys_constraints::{
    expr::ExprConstraint, ConstraintMeta, ContextPreparation, RegisteredConstraint,
    ValidationContext,
};
use dedisys_core::nodes;
use dedisys_core::{ClusterBuilder, DeferAll, HighestVersionWins, ReconcileInstructions};
use dedisys_object::{AppDescriptor, ClassDescriptor, EntityState};
use dedisys_types::{NodeId, ObjectId, SatisfactionDegree, SystemMode, Value};
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::sync::Arc;

#[path = "../crates/core/tests/promise/mod.rs"]
mod promise;

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

#[test]
fn partial_merge_reconciles_reachable_and_postpones_the_rest() {
    let mut cluster = ClusterBuilder::new(4, app())
        .constraint(constraint())
        .build()
        .unwrap();
    let id = ObjectId::new("Counter", "c1");
    // Written only on the side that stays away.
    let far = ObjectId::new("Counter", "c2");
    for e in [id.clone(), far.clone()] {
        cluster
            .run_tx(NodeId(0), move |c, tx| {
                c.create(NodeId(0), tx, EntityState::for_class(c.app(), &e)?)
            })
            .unwrap();
    }

    // Three-way split; every partition writes c1, {2,3} writes c2 too.
    cluster
        .partition(&[nodes![0], nodes![1], nodes![2, 3]])
        .unwrap();
    for (node, id, value) in [(0u32, &id, 1i64), (1, &id, 2), (2, &id, 3), (2, &far, 50)] {
        let id = id.clone();
        cluster
            .run_tx(NodeId(node), move |c, tx| {
                c.set_field(NodeId(node), tx, &id, "n", Value::Int(value))
            })
            .unwrap();
    }
    assert_eq!(cluster.threats().identities().len(), 2);

    // Partitions {0} and {1} merge; {2,3} stays away.
    cluster.partition(&[nodes![0, 1], nodes![2, 3]]).unwrap();
    let summary = cluster.reconcile_partial(NodeId(0), &mut HighestVersionWins, &mut DeferAll);
    promise::assert_kept(&cluster);

    // The {0}/{1} conflict was resolved within the merged partition…
    assert_eq!(summary.replica.conflicts.len(), 1);
    assert_eq!(
        cluster.entity_on(NodeId(0), &id).unwrap().field("n"),
        cluster.entity_on(NodeId(1), &id).unwrap().field("n"),
    );
    // …but both constraint threats are re-evaluated and postponed: the
    // {2,3} side is still unreachable and possibly diverging, and it
    // alone wrote c2.
    assert_eq!(summary.constraints.re_evaluated, 2);
    assert_eq!(summary.constraints.postponed, 2);
    assert_eq!(cluster.threats().identities().len(), 2, "threats retained");
    assert_eq!(cluster.mode(), SystemMode::Degraded);
    // {2,3} never saw the merge, and {0,1} never saw c2's write.
    assert_eq!(
        cluster.entity_on(NodeId(2), &id).unwrap().field("n"),
        &Value::Int(3)
    );
    assert_eq!(
        cluster.entity_on(NodeId(0), &far).unwrap().field("n"),
        &Value::Int(0)
    );

    // Full heal: the remaining divergence reconciles and both threats
    // are re-evaluated for good.
    cluster.heal();
    let summary = cluster.reconcile(&mut HighestVersionWins, &mut DeferAll);
    promise::assert_kept(&cluster);
    assert!(!summary.replica.conflicts.is_empty());
    assert_eq!(summary.constraints.re_evaluated, 2);
    assert_eq!(summary.constraints.postponed, 0);
    assert!(cluster.threats().is_empty());
    assert_eq!(cluster.mode(), SystemMode::Healthy);
    let reference = cluster
        .entity_on(NodeId(0), &id)
        .unwrap()
        .field("n")
        .clone();
    for n in 1..4 {
        assert_eq!(
            cluster.entity_on(NodeId(n), &id).unwrap().field("n"),
            &reference
        );
        assert_eq!(
            cluster.entity_on(NodeId(n), &far).unwrap().field("n"),
            &Value::Int(50)
        );
    }
}

#[test]
fn partial_merge_with_all_writers_reachable_resolves_threats() {
    let mut cluster = ClusterBuilder::new(3, app())
        .constraint(constraint())
        .build()
        .unwrap();
    let id = ObjectId::new("Counter", "c1");
    let e = id.clone();
    cluster
        .run_tx(NodeId(0), move |c, tx| {
            c.create(NodeId(0), tx, EntityState::for_class(c.app(), &e)?)
        })
        .unwrap();
    cluster
        .partition(&[nodes![0], nodes![1], nodes![2]])
        .unwrap();
    // Only partitions {0} and {1} write.
    for (node, value) in [(0u32, 5i64), (1, 6)] {
        let id = id.clone();
        cluster
            .run_tx(NodeId(node), move |c, tx| {
                c.set_field(NodeId(node), tx, &id, "n", Value::Int(value))
            })
            .unwrap();
    }
    // {0} and {1} merge — every writer partition is now reachable, but
    // node 2 still holds a (stale, never-written) replica, so the
    // object remains tracked and the threat stays (P4: possibly stale
    // while any partition remains).
    cluster.partition(&[nodes![0, 1], nodes![2]]).unwrap();
    let summary = cluster.reconcile_partial(NodeId(0), &mut HighestVersionWins, &mut DeferAll);
    promise::assert_kept(&cluster);
    assert_eq!(
        summary.replica.conflicts.len(),
        1,
        "writer conflict resolved"
    );
    assert_eq!(
        summary.constraints.postponed, 1,
        "object still stale: threat kept"
    );
    assert_eq!(
        cluster.entity_on(NodeId(1), &id).unwrap().field("n"),
        &Value::Int(6),
        "merged partition consistent (highest version wins)"
    );

    cluster.heal();
    cluster.reconcile(&mut HighestVersionWins, &mut DeferAll);
    promise::assert_kept(&cluster);
    assert!(cluster.threats().is_empty());
    assert_eq!(
        cluster.entity_on(NodeId(2), &id).unwrap().field("n"),
        &Value::Int(6)
    );
}

/// Regression — rollback scoping during partial reconciliation
/// observed from a node other than `NodeId(0)`.
///
/// `try_rollback` used to read the restore-on-failure state through a
/// hardcoded `NodeId(0)`. For objects bound to replicas `{2, 3}` that
/// read yields nothing, so a failed rollback search over one affected
/// object silently left the last *rejected* candidate installed
/// instead of restoring the merged state. The search must be scoped to
/// the observer's partition.
#[test]
fn rollback_during_partial_merge_scopes_to_the_observer() {
    let a_id = ObjectId::new("Counter", "a1");
    let c_id = ObjectId::new("Counter", "c1");
    // SumBounded: a1.n + c1.n ≤ 160 — evaluated on every Counter write.
    let (a, c) = (a_id.clone(), c_id.clone());
    let sum_bounded = RegisteredConstraint::new(
        ConstraintMeta::new("SumBounded").tradeable(SatisfactionDegree::PossiblySatisfied),
        Arc::new(move |ctx: &mut ValidationContext<'_>| {
            let left = ctx.field(&a, "n")?.as_int().unwrap_or(0);
            let right = ctx.field(&c, "n")?.as_int().unwrap_or(0);
            Ok(left + right <= 160)
        }),
    )
    .context_class("Counter")
    .affects("Counter", "setN", ContextPreparation::CalledObject);

    let mut cluster = ClusterBuilder::new(4, app())
        .constraint(sum_bounded)
        .default_instructions(ReconcileInstructions {
            allow_rollback: true,
            notify_on_replica_conflict: false,
        })
        .build()
        .unwrap();
    // Both objects live only on nodes {2, 3}, primary 2 — NodeId(0)
    // never holds a replica.
    let owner = NodeId(2);
    for id in [&a_id, &c_id] {
        let e = id.clone();
        cluster
            .run_tx(owner, move |cl, tx| {
                let entity = EntityState::for_class(cl.app(), &e)?;
                cl.create_bound(owner, tx, entity, vec![NodeId(2), NodeId(3)], owner)
            })
            .unwrap();
    }
    for (id, value) in [(&a_id, 20i64), (&c_id, 60)] {
        let id = id.clone();
        cluster
            .run_tx(owner, move |cl, tx| {
                cl.set_field(owner, tx, &id, "n", Value::Int(value))
            })
            .unwrap();
    }

    // Three-way split: {2} and {3} write independently.
    cluster
        .partition(&[nodes![0, 1], nodes![2], nodes![3]])
        .unwrap();
    for (node, id, value) in [
        (NodeId(2), &a_id, 30i64), // a1 history in {2}: 30, then 50
        (NodeId(2), &a_id, 50),
        (NodeId(2), &c_id, 70), // c1 diverges: 70 in {2} …
        (NodeId(3), &c_id, 70), // … and 70 in {3}
    ] {
        let id = id.clone();
        cluster
            .run_tx(node, move |cl, tx| {
                cl.set_field(node, tx, &id, "n", Value::Int(value))
            })
            .unwrap();
    }

    // {2, 3} re-unify; {0, 1} stays away. Node 2 observes. The additive
    // merge drives c1 to 140, so a1.n + c1.n = 190 > 160 — an actual
    // violation whose rollback search runs entirely inside {2, 3}.
    cluster.partition(&[nodes![0, 1], nodes![2, 3]]).unwrap();
    let mut additive = |conflict: &dedisys_core::ReplicaConflict| {
        let total: i64 = conflict
            .candidates
            .iter()
            .filter_map(|(_, s)| s.as_ref())
            .filter_map(|s| s.field("n").as_int())
            .sum();
        let mut merged = conflict.candidates[0].1.clone().unwrap();
        merged.set_field("n", Value::Int(total), dedisys_types::SimTime::ZERO);
        Some(merged)
    };
    let summary = cluster.reconcile_partial(owner, &mut additive, &mut DeferAll);
    promise::assert_kept(&cluster);

    assert_eq!(summary.replica.conflicts.len(), 1, "c1 diverged");
    assert_eq!(summary.constraints.violations, 1);
    assert_eq!(summary.constraints.resolved_by_rollback, 1);
    assert_eq!(summary.constraints.deferred, 0);
    // No a1 history state satisfies the constraint against c1 = 140,
    // so a1 must be *restored* to its merged state (50) before the c1
    // candidate (70) resolves the violation. The old NodeId(0) read
    // found no state and left a1 at the rejected candidate 30.
    for node in [NodeId(2), NodeId(3)] {
        assert_eq!(
            cluster.entity_on(node, &a_id).unwrap().field("n"),
            &Value::Int(50),
            "a1 restored on {node:?}"
        );
        assert_eq!(
            cluster.entity_on(node, &c_id).unwrap().field("n"),
            &Value::Int(70),
            "c1 rolled back on {node:?}"
        );
    }
    // The away partition never held the bound objects.
    assert!(cluster.entity_on(NodeId(0), &a_id).is_none());
    assert!(cluster.threats().is_empty(), "both threats resolved");
}

/// §4.4: reconciliation re-evaluates each stored threat once. Four
/// threats that all turn out violated — and stay so, under `DeferAll` —
/// cost four evaluations, not a pre-pass plus a live pass.
#[test]
fn every_stored_threat_is_re_evaluated_exactly_once() {
    let limit = Arc::new(AtomicI64::new(100));
    let evaluations = Arc::new(AtomicUsize::new(0));
    let (l, e) = (Arc::clone(&limit), Arc::clone(&evaluations));
    let mut bounded = constraint();
    bounded.implementation = Arc::new(move |ctx: &mut ValidationContext<'_>| {
        e.fetch_add(1, Ordering::Relaxed);
        Ok(ctx.self_field("n")?.as_int() <= Some(l.load(Ordering::Relaxed)))
    });
    let mut cluster = ClusterBuilder::new(3, app())
        .constraint(bounded)
        .build()
        .unwrap();
    let node = NodeId(0);
    let ids = ["c1", "c2", "c3", "c4"].map(|key| ObjectId::new("Counter", key));
    for id in &ids {
        cluster
            .run_tx(node, |c, tx| {
                c.create(node, tx, EntityState::for_class(c.app(), id)?)
            })
            .unwrap();
    }
    cluster.partition(&[nodes![0, 1], nodes![2]]).unwrap();
    for id in &ids {
        cluster
            .run_tx(node, |c, tx| c.set_field(node, tx, id, "n", Value::Int(5)))
            .unwrap();
    }
    assert_eq!(cluster.threats().identities().len(), 4);

    cluster.heal();
    limit.store(0, Ordering::Relaxed);
    evaluations.store(0, Ordering::Relaxed);
    let outcome = cluster
        .reconcile(&mut HighestVersionWins, &mut DeferAll)
        .constraints;
    assert_eq!(
        (outcome.re_evaluated, outcome.violations, outcome.deferred),
        (4, 4, 4)
    );
    assert_eq!(evaluations.load(Ordering::Relaxed), 4);
    // After the counted window: the audit evaluates the constraint too.
    promise::assert_kept(&cluster);
}
