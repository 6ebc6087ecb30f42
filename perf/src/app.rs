//! The benchmark's application model: classes, constraints and ids
//! shared by the workloads, the layer probes and the slice rungs.

use crate::harness::Fnv1a;
use dedisys_constraints::{
    expr::ExprConstraint, ConstraintMeta, ContextPreparation, RegisteredConstraint,
};
use dedisys_core::Cluster;
use dedisys_federation::{FederatedCluster, ShardId};
use dedisys_object::{AppDescriptor, ClassDescriptor, EntityState};
use dedisys_types::{NodeId, ObjectId, Result, SatisfactionDegree, Value};
use std::rc::Rc;
use std::sync::Arc;

/// `Account { balance, floor }` — the write target of every workload
/// but `validate_heavy`.
pub fn bank_app() -> AppDescriptor {
    AppDescriptor::new("bank").with_class(
        ClassDescriptor::new("Account")
            .with_field("balance", Value::Int(0))
            .with_field("floor", Value::Int(0)),
    )
}

/// `Account#a00042`-style ids, `n` of them, in key order.
pub fn account_ids(n: usize) -> Rc<[ObjectId]> {
    (0..n)
        .map(|i| ObjectId::new("Account", format!("a{i:06}")))
        .collect()
}

/// How [`floor_constraint`] is classified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FloorKind {
    /// Intra-object and non-tradeable: one definite check per write,
    /// never a threat (the healthy-mode workloads).
    IntraObject,
    /// Inter-object scope and tradeable down to *possibly violated*:
    /// in degraded mode every check becomes a negotiated, stored
    /// threat, and optimistic overdrafts are let through to be
    /// repaired at reconciliation (`degraded_cycle`).
    Tradeable,
}

/// The invariant `self.balance >= self.floor` on `Account.setBalance`.
pub fn floor_constraint(kind: FloorKind) -> RegisteredConstraint {
    let meta = match kind {
        FloorKind::IntraObject => ConstraintMeta::new("Floor").intra_object(),
        FloorKind::Tradeable => {
            ConstraintMeta::new("Floor").tradeable(SatisfactionDegree::PossiblyViolated)
        }
    };
    RegisteredConstraint::new(meta, Arc::new(expr("self.balance >= self.floor")))
        .context_class("Account")
        .affects("Account", "setBalance", ContextPreparation::CalledObject)
}

/// Parses a constraint expression written in this crate.
pub fn expr(source: &str) -> ExprConstraint {
    ExprConstraint::parse(source).expect("benchmark constraint expressions parse")
}

/// Creates `id` on `cluster` with class defaults overridden by
/// `fields`, in its own transaction on node 0.
pub fn create_with(cluster: &mut Cluster, id: &ObjectId, fields: &[(&str, Value)]) -> Result<()> {
    let node = NodeId(0);
    cluster.run_tx(node, |c, tx| {
        let mut entity = EntityState::for_class(c.app(), id)?;
        for (field, value) in fields {
            entity.set_field(*field, value.clone(), c.now());
        }
        c.create(node, tx, entity)
    })
}

/// A federation of `shards` × `nodes` running [`bank_app`] with the
/// intra-object `Floor` invariant on every shard, populated with
/// `accounts` accounts.
pub fn bank_federation(
    shards: u32,
    nodes: u32,
    accounts: usize,
) -> Result<(FederatedCluster, Rc<[ObjectId]>)> {
    let mut fed = FederatedCluster::builder(shards, nodes, bank_app()).build()?;
    for shard in (0..shards).map(ShardId) {
        fed.shard_mut(shard)
            .add_constraint_with_check(floor_constraint(FloorKind::IntraObject))?;
    }
    let ids = account_ids(accounts);
    for id in ids.iter() {
        fed.create(id)?;
    }
    Ok((fed, ids))
}

/// End-of-run check of one object: every node of `cluster` must hold
/// `expected` in the integer `field` of `id`. Folds the object into
/// `digest` (key, value, version).
///
/// # Errors
///
/// The first replica that disagrees with the model, in words.
pub fn check_replicas(
    cluster: &Cluster,
    id: &ObjectId,
    field: &str,
    expected: i64,
    digest: &mut Fnv1a,
) -> std::result::Result<(), String> {
    let mut version = 0;
    for node in (0..cluster.node_count()).map(NodeId) {
        let entity = cluster
            .entity_on(node, id)
            .ok_or_else(|| format!("{id} is missing on {node}"))?;
        match entity.field(field).as_int() {
            Some(found) if found == expected => version = entity.version().0,
            found => {
                return Err(format!(
                    "{id} on {node}: {field} is {found:?}, the model says {expected}"
                ))
            }
        }
    }
    digest.write(id.key().as_bytes());
    digest.write_u64(expected as u64);
    digest.write_u64(version);
    Ok(())
}

/// End-of-run check: no transaction open, no lock held.
///
/// # Errors
///
/// Says which it was.
pub fn check_quiescent(cluster: &Cluster) -> std::result::Result<(), String> {
    if cluster.open_tx_count() != 0 {
        return Err(format!(
            "{} transactions were left open",
            cluster.open_tx_count()
        ));
    }
    if !cluster.held_locks().is_empty() {
        return Err(format!(
            "{} locks were left held",
            cluster.held_locks().len()
        ));
    }
    Ok(())
}
