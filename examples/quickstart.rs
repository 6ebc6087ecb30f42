//! Quickstart: explicit runtime integrity constraints in five minutes.
//!
//! Builds a three-node cluster, deploys a class with a declarative
//! constraint, watches the middleware enforce it in healthy mode,
//! trade it during a partition, and re-establish consistency during
//! reconciliation.
//!
//! Run with: `cargo run --example quickstart`

use dedisys_constraints::{
    expr::ExprConstraint, ConstraintMeta, ContextPreparation, RegisteredConstraint,
};
use dedisys_core::nodes;
use dedisys_core::{ClusterBuilder, DeferAll, HighestVersionWins};
use dedisys_object::{AppDescriptor, ClassDescriptor, EntityState};
use dedisys_types::{NodeId, ObjectId, Result, SatisfactionDegree, Value};
use std::sync::Arc;

fn main() -> Result<()> {
    // 1. The application model: an account that must never overdraw.
    let app = AppDescriptor::new("bank").with_class(
        ClassDescriptor::new("Account")
            .with_field("balance", Value::Int(0))
            .with_field("limit", Value::Int(0)),
    );

    // 2. The integrity constraint — explicit, declarative, tradeable
    //    during degraded mode down to "possibly satisfied".
    let no_overdraft = RegisteredConstraint::new(
        ConstraintMeta::new("NoOverdraft")
            .tradeable(SatisfactionDegree::PossiblySatisfied)
            .describe("balance must not fall below the limit"),
        Arc::new(ExprConstraint::parse("self.balance >= self.limit")?),
    )
    .context_class("Account")
    .affects("Account", "setBalance", ContextPreparation::CalledObject);

    // 3. A three-node replicated cluster (primary-per-partition).
    let mut cluster = ClusterBuilder::new(3, app)
        .constraint(no_overdraft)
        .build()?;
    let account = ObjectId::new("Account", "alice");
    let node = NodeId(0);

    cluster.run_tx(node, |c, tx| {
        c.create(node, tx, EntityState::for_class(c.app(), &account)?)?;
        c.set_field(node, tx, &account, "limit", Value::Int(-100))?;
        c.set_field(node, tx, &account, "balance", Value::Int(50))
    })?;
    println!("healthy: balance set to 50 — replicated to all 3 nodes");

    // Healthy mode: a violating write aborts the transaction.
    let overdraw = cluster.run_tx(node, |c, tx| {
        c.set_field(node, tx, &account, "balance", Value::Int(-200))
    });
    println!("healthy: overdraw rejected: {}", overdraw.unwrap_err());

    // 4. Degraded mode: a partition splits the cluster; both sides stay
    //    available, trading consistency threats.
    cluster.partition(&[nodes![0], nodes![1, 2]]).unwrap();
    println!(
        "\npartition installed: {:?} — mode = {}",
        cluster.topology(),
        cluster.mode()
    );
    cluster.run_tx(NodeId(0), |c, tx| {
        c.set_field(NodeId(0), tx, &account, "balance", Value::Int(20))
    })?;
    cluster.run_tx(NodeId(1), |c, tx| {
        c.set_field(NodeId(1), tx, &account, "balance", Value::Int(10))
    })?;
    println!(
        "degraded: both partitions wrote; {} consistency threat(s) stored",
        cluster.threats().identities().len()
    );

    // 5. Reconciliation: repair the network and re-establish replica
    //    and constraint consistency.
    cluster.heal();
    let summary = cluster.reconcile(&mut HighestVersionWins, &mut DeferAll);
    // §3.2's promise: every violation the committed state still holds
    // is explained, and no threat outlives its violation.
    assert!(cluster.audit().iter().all(|f| f.explanation.is_some()));
    assert!(cluster.stale_threats().is_empty());
    println!(
        "\nreconciled: {} replica conflict(s), {} threat(s) re-evaluated, {} violation(s)",
        summary.replica.conflicts.len(),
        summary.constraints.re_evaluated,
        summary.constraints.violations,
    );
    println!(
        "final balance everywhere: {}",
        cluster
            .entity_on(NodeId(2), &account)
            .unwrap()
            .field("balance")
    );
    println!("mode = {}", cluster.mode());
    Ok(())
}
