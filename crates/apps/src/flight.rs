//! The flight booking system of §1.3.

use dedisys_constraints::{
    expr::ExprConstraint, ConstraintMeta, ContextPreparation, RegisteredConstraint,
};
use dedisys_core::partition_sensitive::PartitionSensitiveTicketConstraint;
use dedisys_core::{Cluster, ClusterBuilder};
use dedisys_object::{AppDescriptor, ClassDescriptor, EntityState, MethodBody, MethodTable};
use dedisys_types::{NodeId, ObjectId, Result, SatisfactionDegree, Value};
use std::sync::Arc;

/// The booking application: flights with seats and sold tickets, and
/// passengers.
pub fn flight_app() -> AppDescriptor {
    AppDescriptor::new("flight-booking")
        .with_class(
            ClassDescriptor::new("Flight")
                .with_field("seats", Value::Int(0))
                .with_field("sold", Value::Int(0))
                .with_method(dedisys_object::MethodDescriptor::with_kind(
                    "sellTickets",
                    dedisys_object::MethodKind::Write,
                )),
        )
        .with_class(
            ClassDescriptor::new("Person")
                .with_field("name", Value::Null)
                .with_field("bookedFlight", Value::Null),
        )
}

/// The business methods: `Flight::sellTickets(count)` increments the
/// sold counter and returns the new total (Listing 1.2 — the business
/// logic holds no constraint code).
pub fn flight_methods() -> MethodTable {
    let mut table = MethodTable::new();
    table.register(
        "Flight",
        "sellTickets",
        MethodBody::custom(|cx| {
            let count = cx.invocation.arg0().and_then(Value::as_int).unwrap_or(1);
            let sold = cx.read_own("sold")?.as_int().unwrap_or(0);
            cx.write_own("sold", Value::Int(sold + count))?;
            Ok(Value::Int(sold + count))
        }),
    );
    table
}

/// The ticket constraint (Figure 1.6): sold ≤ seats, tradeable during
/// degraded mode with `possibly satisfied` as the acceptance floor
/// (§3.1: overselling slightly is acceptable, knowing tickets are
/// mainly sold and rarely returned).
pub fn ticket_constraint() -> RegisteredConstraint {
    RegisteredConstraint::new(
        ConstraintMeta::new("TicketConstraint")
            .tradeable(SatisfactionDegree::PossiblySatisfied)
            .describe("number of sold tickets must not exceed the seats of the flight"),
        Arc::new(ExprConstraint::parse("self.sold <= self.seats").expect("valid expression")),
    )
    .context_class("Flight")
    .affects("Flight", "setSold", ContextPreparation::CalledObject)
    .affects("Flight", "sellTickets", ContextPreparation::CalledObject)
}

/// The §5.5.2 partition-sensitive variant: each partition may only
/// sell its weight share of the remaining tickets, so (almost) no
/// inconsistency is introduced at all.
pub fn partition_sensitive_ticket_constraint() -> RegisteredConstraint {
    RegisteredConstraint::new(
        ConstraintMeta::new("PartitionSensitiveTicketConstraint")
            .tradeable(SatisfactionDegree::PossiblySatisfied)
            .describe("per-partition ticket quota by partition weight"),
        Arc::new(PartitionSensitiveTicketConstraint::new("seats", "sold")),
    )
    .context_class("Flight")
    .affects("Flight", "setSold", ContextPreparation::CalledObject)
    .affects("Flight", "sellTickets", ContextPreparation::CalledObject)
}

/// Sold tickets never go negative: a refund cannot return more
/// tickets than were sold. Non-tradeable (the default priority), so a
/// degraded-mode check that cannot be decided rejects the operation
/// instead of storing a threat (§3.2).
pub fn non_negative_sales_constraint() -> RegisteredConstraint {
    RegisteredConstraint::new(
        ConstraintMeta::new("NonNegativeSales")
            .describe("a flight never has fewer than zero sold tickets"),
        Arc::new(ExprConstraint::parse("self.sold >= 0").expect("valid expression")),
    )
    .context_class("Flight")
    .affects("Flight", "setSold", ContextPreparation::CalledObject)
    .affects("Flight", "sellTickets", ContextPreparation::CalledObject)
}

/// Builds a booking cluster of `nodes` nodes with the plain ticket
/// constraint.
///
/// # Errors
///
/// Propagates cluster-construction failures.
pub fn booking_cluster(nodes: u32) -> Result<Cluster> {
    ClusterBuilder::new(nodes, flight_app())
        .methods(flight_methods())
        .constraint(ticket_constraint())
        .build()
}

/// Creates a flight with `seats` seats and `sold` pre-sold tickets.
///
/// # Errors
///
/// Propagates transaction failures.
pub fn create_flight(
    cluster: &mut Cluster,
    node: NodeId,
    key: &str,
    seats: i64,
    sold: i64,
) -> Result<ObjectId> {
    let id = ObjectId::new("Flight", key);
    let flight = id.clone();
    cluster.run_tx(node, move |c, tx| {
        c.create(node, tx, EntityState::for_class(c.app(), &flight)?)?;
        c.set_field(node, tx, &flight, "seats", Value::Int(seats))?;
        c.set_field(node, tx, &flight, "sold", Value::Int(sold))
    })?;
    Ok(id)
}

/// Sells `count` tickets via the business method; returns the new
/// total.
///
/// # Errors
///
/// Fails when the ticket constraint is violated or the resulting
/// threat is rejected.
pub fn sell_tickets(
    cluster: &mut Cluster,
    node: NodeId,
    flight: &ObjectId,
    count: i64,
) -> Result<i64> {
    let flight = flight.clone();
    cluster
        .run_tx(node, move |c, tx| {
            c.invoke(node, tx, &flight, "sellTickets", vec![Value::Int(count)])
        })
        .map(|v| v.as_int().unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dedisys_core::nodes;

    #[test]
    fn selling_within_capacity_succeeds() {
        let mut cluster = booking_cluster(2).unwrap();
        let node = NodeId(0);
        let flight = create_flight(&mut cluster, node, "LH-441", 80, 70).unwrap();
        assert_eq!(sell_tickets(&mut cluster, node, &flight, 5).unwrap(), 75);
        assert_eq!(
            cluster.entity_on(NodeId(1), &flight).unwrap().field("sold"),
            &Value::Int(75),
            "propagated to the backup"
        );
    }

    #[test]
    fn overselling_is_rejected_in_healthy_mode() {
        let mut cluster = booking_cluster(2).unwrap();
        let node = NodeId(0);
        let flight = create_flight(&mut cluster, node, "LH-441", 80, 70).unwrap();
        assert!(sell_tickets(&mut cluster, node, &flight, 11).is_err());
        assert_eq!(
            cluster.entity_on(node, &flight).unwrap().field("sold"),
            &Value::Int(70)
        );
    }

    #[test]
    fn degraded_sales_produce_accepted_threats() {
        let mut cluster = booking_cluster(3).unwrap();
        let node = NodeId(0);
        let flight = create_flight(&mut cluster, node, "LH-441", 80, 70).unwrap();
        cluster.partition(&[nodes![0], nodes![1, 2]]).unwrap();
        sell_tickets(&mut cluster, NodeId(0), &flight, 7).unwrap();
        sell_tickets(&mut cluster, NodeId(1), &flight, 8).unwrap();
        assert_eq!(cluster.threats().identities().len(), 1);
    }

    #[test]
    fn partition_sensitive_variant_bounds_each_partition() {
        let mut cluster = ClusterBuilder::new(2, flight_app())
            .methods(flight_methods())
            .constraint(partition_sensitive_ticket_constraint())
            .build()
            .unwrap();
        let node = NodeId(0);
        let flight = create_flight(&mut cluster, node, "F", 80, 70).unwrap();
        cluster.partition(&[nodes![0], nodes![1]]).unwrap();
        // 10 remaining, weight 1/2 each → 5 per partition.
        assert!(sell_tickets(&mut cluster, NodeId(0), &flight, 5).is_ok());
        assert!(sell_tickets(&mut cluster, NodeId(0), &flight, 1).is_err());
        assert!(sell_tickets(&mut cluster, NodeId(1), &flight, 5).is_ok());
        assert!(sell_tickets(&mut cluster, NodeId(1), &flight, 1).is_err());
    }
}
