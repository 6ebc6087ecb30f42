//! The motivating scenario of §1.3, end to end: a replicated flight
//! booking system keeps selling tickets in *both* halves of a network
//! partition; reconciliation detects the overbooking (85 sold / 80
//! seats) and the application rebooks five passengers.
//!
//! Also demonstrates dynamic (algorithmic) threat negotiation and the
//! §5.5.2 partition-sensitive variant that avoids the inconsistency
//! altogether.
//!
//! Run with: `cargo run --example flight_booking`

use dedisys_apps::flight::{
    booking_cluster, create_flight, flight_app, flight_methods,
    partition_sensitive_ticket_constraint, sell_tickets,
};
use dedisys_core::nodes;
use dedisys_core::{ClusterBuilder, ReconOps, ThreatDecision, ViolationReport};
use dedisys_types::{NodeId, Result, Value};

fn main() -> Result<()> {
    plain_ticket_constraint_scenario()?;
    partition_sensitive_scenario()?;
    Ok(())
}

fn plain_ticket_constraint_scenario() -> Result<()> {
    println!("=== §1.3: trading integrity for availability ===");
    let mut cluster = booking_cluster(4)?;
    let flight = create_flight(&mut cluster, NodeId(0), "LH-441", 80, 70)?;
    println!("healthy: flight LH-441 with 80 seats, 70 sold");

    // Partition: {0,1} (side A) vs {2,3} (side B).
    cluster.partition(&[nodes![0, 1], nodes![2, 3]]).unwrap();
    println!("partition: {}", cluster.topology());

    // Side A registers a dynamic negotiation handler for its sale —
    // accept anything but attach booking data for reconciliation.
    let mut session = cluster.session(NodeId(0));
    session.register_negotiation_handler(Box::new(
        |threat: &mut dedisys_core::ConsistencyThreat| {
            threat.app_data = Some(Value::from("sold by agent A"));
            println!(
                "  [negotiation] {} is {} — accepting",
                threat.constraint, threat.degree
            );
            ThreatDecision::Accept
        },
    ))?;
    let f = flight.clone();
    session.invoke(&f, "sellTickets", vec![Value::Int(7)])?;
    session.commit()?;
    println!("side A: sold 7 (77/80 on its copies)");

    sell_tickets(&mut cluster, NodeId(2), &flight, 8)?;
    println!("side B: sold 8 (78/80 on its copies)");

    // Reunification.
    cluster.heal();
    println!("healed — reconciling…");

    // Replica reconciliation: sales are increments, so merge them.
    let mut merge_sales = |conflict: &dedisys_core::ReplicaConflict| {
        let healthy_sold = 70;
        let total: i64 = conflict
            .candidates
            .iter()
            .filter_map(|(_, s)| s.as_ref())
            .filter_map(|s| s.field("sold").as_int())
            .map(|sold| sold - healthy_sold)
            .sum();
        let mut merged = conflict.candidates[0].1.clone().expect("live state");
        merged.set_field(
            "sold",
            Value::Int(healthy_sold + total),
            dedisys_types::SimTime::ZERO,
        );
        println!(
            "  [replica handler] merged sales: {} total",
            healthy_sold + total
        );
        Some(merged)
    };
    // Constraint reconciliation: rebook the surplus passengers.
    let flight_for_fix = flight.clone();
    let mut rebook = move |violation: &ViolationReport, ops: &mut ReconOps<'_>| {
        let sold = ops.read(&flight_for_fix, "sold").unwrap().as_int().unwrap();
        let seats = ops
            .read(&flight_for_fix, "seats")
            .unwrap()
            .as_int()
            .unwrap();
        println!(
            "  [reconciliation handler] {} violated: {sold} sold / {seats} seats — rebooking {}",
            violation.identity.constraint,
            sold - seats
        );
        ops.write(&flight_for_fix, "sold", Value::Int(seats))
            .unwrap();
        true
    };
    let summary = cluster.reconcile(&mut merge_sales, &mut rebook);
    // §3.2's promise: every violation the committed state still holds
    // is explained, and no threat outlives its violation.
    assert!(cluster.audit().iter().all(|f| f.explanation.is_some()));
    assert!(cluster.stale_threats().is_empty());
    println!(
        "summary: {} conflict(s), {} violation(s), {} resolved by handler",
        summary.replica.conflicts.len(),
        summary.constraints.violations,
        summary.constraints.resolved_by_handler
    );
    println!(
        "final: {} sold / 80 seats, mode = {}\n",
        cluster.entity_on(NodeId(3), &flight).unwrap().field("sold"),
        cluster.mode()
    );
    Ok(())
}

fn partition_sensitive_scenario() -> Result<()> {
    println!("=== §5.5.2: partition-sensitive ticket constraint ===");
    let mut cluster = ClusterBuilder::new(4, flight_app())
        .methods(flight_methods())
        .constraint(partition_sensitive_ticket_constraint())
        .build()?;
    let flight = create_flight(&mut cluster, NodeId(0), "LH-441", 80, 70)?;
    cluster.partition(&[nodes![0, 1], nodes![2, 3]]).unwrap();
    println!("partition: each side holds weight 1/2 → 5 of the 10 remaining tickets");

    for node in [NodeId(0), NodeId(2)] {
        let sold = sell_tickets(&mut cluster, node, &flight, 5);
        println!(
            "  {node}: sell 5 → {:?}",
            sold.map(|s| format!("ok ({s} on local copy)"))
        );
        let denied = sell_tickets(&mut cluster, node, &flight, 1);
        println!("  {node}: sell 1 more → {}", denied.unwrap_err());
    }
    println!("no overbooking possible: 70 + 5 + 5 = 80 = seats");
    Ok(())
}
