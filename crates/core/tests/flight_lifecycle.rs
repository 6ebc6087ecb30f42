//! End-to-end reproduction of the motivating scenario of §1.3:
//! 80 seats, 70 sold in healthy mode; a partition splits the system;
//! 7 tickets are sold in partition A and 8 in partition B under
//! accepted consistency threats; after re-unification the merged state
//! (85 sold) violates the ticket constraint and reconciliation rebooks
//! 5 passengers.

use dedisys_constraints::{
    expr::ExprConstraint, ConstraintMeta, ContextPreparation, RegisteredConstraint,
};
use dedisys_core::nodes;
use dedisys_core::{
    ClusterBuilder, ReconOps, ReconcileInstructions, ReplicaConflict, ViolationReport,
};
use dedisys_object::{AppDescriptor, ClassDescriptor, EntityState};
use dedisys_types::{NodeId, ObjectId, SatisfactionDegree, SystemMode, Value};
use std::sync::Arc;

mod promise;

fn booking_app() -> AppDescriptor {
    AppDescriptor::new("booking").with_class(
        ClassDescriptor::new("Flight")
            .with_field("seats", Value::Int(0))
            .with_field("sold", Value::Int(0)),
    )
}

fn ticket_constraint() -> RegisteredConstraint {
    RegisteredConstraint::new(
        ConstraintMeta::new("TicketConstraint")
            .tradeable(SatisfactionDegree::PossiblySatisfied)
            .describe("sold tickets must not exceed seats"),
        Arc::new(ExprConstraint::parse("self.sold <= self.seats").unwrap()),
    )
    .context_class("Flight")
    .affects("Flight", "setSold", ContextPreparation::CalledObject)
}

#[test]
fn flight_booking_partition_threat_reconciliation() {
    let mut cluster = ClusterBuilder::new(3, booking_app())
        .constraint(ticket_constraint())
        .default_instructions(ReconcileInstructions {
            allow_rollback: false,
            notify_on_replica_conflict: true,
        })
        .build()
        .unwrap();
    let flight = ObjectId::new("Flight", "LH-441");
    let a = NodeId(0);
    let b = NodeId(1);

    // Healthy mode: create the flight and sell 70 of 80 seats.
    cluster
        .run_tx(a, |c, tx| {
            c.create(a, tx, EntityState::for_class(c.app(), &flight)?)?;
            c.set_field(a, tx, &flight, "seats", Value::Int(80))?;
            c.set_field(a, tx, &flight, "sold", Value::Int(70))
        })
        .unwrap();
    assert_eq!(cluster.mode(), SystemMode::Healthy);
    // Replication propagated the state to all three nodes.
    for n in 0..3 {
        assert_eq!(
            cluster.entity_on(NodeId(n), &flight).unwrap().field("sold"),
            &Value::Int(70)
        );
    }

    // Network partition: {0} vs {1, 2}.
    cluster.partition(&[nodes![0], nodes![1, 2]]).unwrap();
    assert_eq!(cluster.mode(), SystemMode::Degraded);

    // Partition A sells 7 (70 → 77 ≤ 80: possibly satisfied, accepted
    // by the static declaration).
    cluster
        .run_tx(a, |c, tx| {
            c.set_field(a, tx, &flight, "sold", Value::Int(77))
        })
        .unwrap();
    // Partition B sells 8 (70 → 78 ≤ 80 from its stale copy).
    cluster
        .run_tx(b, |c, tx| {
            c.set_field(b, tx, &flight, "sold", Value::Int(78))
        })
        .unwrap();

    assert_eq!(cluster.threats().identities().len(), 1, "identical-once");
    assert!(cluster.stats().ccm.threats_accepted >= 2);

    // Reunification.
    cluster.heal();
    assert_eq!(cluster.mode(), SystemMode::Reconciliation);

    // Replica reconciliation: additive merge of the two partitions'
    // sales (the application knows sales are increments).
    let mut merge_sales = |conflict: &ReplicaConflict| {
        let healthy_sold = 70;
        let total_increment: i64 = conflict
            .candidates
            .iter()
            .filter_map(|(_, s)| s.as_ref())
            .filter_map(|s| s.field("sold").as_int())
            .map(|sold| sold - healthy_sold)
            .sum();
        let mut merged = conflict.candidates[0].1.clone().expect("live state");
        merged.set_field(
            "sold",
            Value::Int(healthy_sold + total_increment),
            dedisys_types::SimTime::ZERO,
        );
        Some(merged)
    };

    // Constraint reconciliation: rebook the overbooked passengers.
    let notified_conflicts;
    let mut rebooked = 0i64;
    {
        let mut constraint_handler = |violation: &ViolationReport, ops: &mut ReconOps<'_>| {
            assert_eq!(violation.identity.constraint.as_str(), "TicketConstraint");
            let sold = ops.read(&flight, "sold").unwrap().as_int().unwrap();
            let seats = ops.read(&flight, "seats").unwrap().as_int().unwrap();
            rebooked = sold - seats;
            ops.write(&flight, "sold", Value::Int(seats)).unwrap();
            true // resolved immediately
        };
        let summary = cluster.reconcile(&mut merge_sales, &mut constraint_handler);
        promise::assert_kept(&cluster);
        assert_eq!(summary.replica.conflicts.len(), 1, "write-write conflict");
        assert_eq!(summary.constraints.re_evaluated, 1);
        assert_eq!(summary.constraints.violations, 1);
        assert_eq!(summary.constraints.resolved_by_handler, 1);
        notified_conflicts = summary.constraints.conflict_notifications;
    }
    // 70 + 7 + 8 = 85 sold on an 80-seat plane → 5 rebooked.
    assert_eq!(rebooked, 5);
    let _ = notified_conflicts; // constraint was violated, not satisfied ⇒ no notification

    assert_eq!(cluster.mode(), SystemMode::Healthy);
    assert!(cluster.threats().is_empty());
    for n in 0..3 {
        assert_eq!(
            cluster.entity_on(NodeId(n), &flight).unwrap().field("sold"),
            &Value::Int(80),
            "node {n} consistent after reconciliation"
        );
    }
}

#[test]
fn non_tradeable_constraints_block_degraded_writes() {
    let mut constraint = ticket_constraint();
    constraint.meta.priority = dedisys_constraints::ConstraintPriority::NonTradeable;
    let mut cluster = ClusterBuilder::new(2, booking_app())
        .constraint(constraint)
        .build()
        .unwrap();
    let flight = ObjectId::new("Flight", "F1");
    let node = NodeId(0);
    cluster
        .run_tx(node, |c, tx| {
            c.create(node, tx, EntityState::for_class(c.app(), &flight)?)?;
            c.set_field(node, tx, &flight, "seats", Value::Int(10))
        })
        .unwrap();
    cluster.partition(&[nodes![0], nodes![1]]).unwrap();
    // Fallback to conventional behaviour: the system blocks (§3.2).
    let result = cluster.run_tx(node, |c, tx| {
        c.set_field(node, tx, &flight, "sold", Value::Int(1))
    });
    assert!(matches!(
        result,
        Err(dedisys_types::Error::ThreatRejected { .. })
    ));
    assert_eq!(
        cluster.entity_on(node, &flight).unwrap().field("sold"),
        &Value::Int(0)
    );
}

#[test]
fn deferred_reconciliation_is_cleaned_up_by_business_operations() {
    let mut cluster = ClusterBuilder::new(2, booking_app())
        .constraint(ticket_constraint())
        .build()
        .unwrap();
    let flight = ObjectId::new("Flight", "F1");
    let a = NodeId(0);
    let b = NodeId(1);
    cluster
        .run_tx(a, |c, tx| {
            c.create(a, tx, EntityState::for_class(c.app(), &flight)?)?;
            c.set_field(a, tx, &flight, "seats", Value::Int(10))?;
            c.set_field(a, tx, &flight, "sold", Value::Int(9))
        })
        .unwrap();
    cluster.partition(&[nodes![0], nodes![1]]).unwrap();
    cluster
        .run_tx(a, |c, tx| {
            c.set_field(a, tx, &flight, "sold", Value::Int(10))
        })
        .unwrap();
    cluster
        .run_tx(b, |c, tx| {
            c.set_field(b, tx, &flight, "sold", Value::Int(10))
        })
        .unwrap();
    cluster.heal();

    // Defer every violation (asynchronous reconciliation, §5.4).
    let mut merge = |conflict: &ReplicaConflict| {
        // 9 → 10 in both partitions: one extra ticket each ⇒ 11 total.
        let mut merged = conflict.candidates[0].1.clone().unwrap();
        merged.set_field("sold", Value::Int(11), dedisys_types::SimTime::ZERO);
        Some(merged)
    };
    let summary = cluster.reconcile(&mut merge, &mut dedisys_core::DeferAll);
    promise::assert_kept(&cluster);
    assert_eq!(summary.constraints.violations, 1);
    assert_eq!(summary.constraints.deferred, 1);
    assert_eq!(cluster.threats().identities().len(), 1, "threat retained");
    assert_eq!(cluster.mode(), SystemMode::Healthy);

    // The operator later cancels two bookings through a normal
    // business operation; the satisfied validation cleans up the
    // deferred threat (§4.4).
    cluster
        .run_tx(a, |c, tx| {
            c.set_field(a, tx, &flight, "sold", Value::Int(9))
        })
        .unwrap();
    assert!(cluster.threats().is_empty(), "threat removed by cleanup");
}
