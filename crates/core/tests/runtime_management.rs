//! Runtime constraint management at the cluster level: adding and
//! re-enabling constraints triggers a full check over all context
//! objects (§3.3) whose violations are negotiated as threats or refuse
//! the change whole, and threat persistence survives middleware
//! crashes.

use dedisys_constraints::{
    expr::ExprConstraint, ConstraintMeta, ContextPreparation, RegisteredConstraint,
    ValidationContext,
};
use dedisys_core::ConstraintChange::{Add, Disable, Enable, Remove};
use dedisys_core::{
    nodes, Cluster, ClusterBuilder, ConsistencyThreat, ConstraintReconcileReport, DeferAll,
    HighestVersionWins, NegotiationHandler, RingRecorder, ThreatDecision, ThreatIdentity,
    TraceEvent,
};
use dedisys_object::{AppDescriptor, ClassDescriptor, EntityState};
use dedisys_types::{
    ClassName, ConstraintName, Error, NodeId, ObjectId, SatisfactionDegree, SystemMode, TxId, Value,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

mod promise;

fn app() -> AppDescriptor {
    AppDescriptor::new("stocks").with_class(
        ClassDescriptor::new("Warehouse")
            .with_field("stock", Value::Int(0))
            .with_field("capacity", Value::Int(100)),
    )
}

fn capacity_constraint() -> RegisteredConstraint {
    RegisteredConstraint::new(
        ConstraintMeta::new("Capacity"),
        Arc::new(ExprConstraint::parse("self.stock <= self.capacity").unwrap()),
    )
    .context_class("Warehouse")
    .affects("Warehouse", "setStock", ContextPreparation::CalledObject)
}

#[test]
fn adding_a_constraint_checks_all_existing_context_objects() {
    let mut cluster = ClusterBuilder::new(2, app()).build().unwrap();
    let node = NodeId(0);
    // Three warehouses created *before* the constraint exists — one of
    // them already over capacity.
    for (key, stock) in [("W1", 50), ("W2", 150), ("W3", 99)] {
        let id = ObjectId::new("Warehouse", key);
        cluster
            .run_tx(node, move |c, tx| {
                c.create(node, tx, EntityState::for_class(c.app(), &id)?)?;
                c.set_field(node, tx, &id, "stock", Value::Int(stock))
            })
            .unwrap();
    }
    // W2 violates the non-tradeable constraint: the Add is refused.
    let w2 = ObjectId::new("Warehouse", "W2");
    assert_eq!(
        cluster.change_constraint(Add(capacity_constraint(), None)),
        Err(Error::ConstraintChangeRejected {
            constraint: ConstraintName::from("Capacity"),
            violators: vec![w2.clone()],
        })
    );
    assert!(cluster.repository().is_empty());
    cluster
        .run_tx(node, |c, tx| {
            c.set_field(node, tx, &w2, "stock", Value::Int(100))
        })
        .unwrap();
    let violating = cluster
        .change_constraint(Add(capacity_constraint(), None))
        .unwrap();
    assert!(violating.is_empty());
    // The constraint is live from now on.
    let w3 = ObjectId::new("Warehouse", "W3");
    let result = cluster.run_tx(node, |c, tx| {
        c.set_field(node, tx, &w3, "stock", Value::Int(101))
    });
    assert!(result.is_err());
}

#[test]
fn re_enabling_checks_context_objects_again() {
    let mut cluster = ClusterBuilder::new(2, app())
        .constraint(capacity_constraint())
        .build()
        .unwrap();
    let node = NodeId(0);
    let id = ObjectId::new("Warehouse", "W1");
    cluster
        .run_tx(node, move |c, tx| {
            c.create(
                node,
                tx,
                EntityState::for_class(c.app(), &ObjectId::new("Warehouse", "W1"))?,
            )
        })
        .unwrap();
    // Disable for a bulk import that exceeds capacity.
    let name = ConstraintName::from("Capacity");
    cluster.change_constraint(Disable(name.clone())).unwrap();
    cluster
        .run_tx(node, |c, tx| {
            c.set_field(node, tx, &id, "stock", Value::Int(500))
        })
        .unwrap();
    // Re-enable: the full check surfaces the violation introduced
    // while the constraint was off, and refuses the change.
    assert_eq!(
        cluster.change_constraint(Enable(name.clone(), None)),
        Err(Error::ConstraintChangeRejected {
            constraint: name.clone(),
            violators: vec![id.clone()],
        })
    );
    assert!(!cluster.repository().get(&name).unwrap().enabled);
    // Duplicate registration is still rejected.
    assert!(matches!(
        cluster.change_constraint(Add(capacity_constraint(), None)),
        Err(Error::Config(_))
    ));
}

/// A constraint whose full check cannot be evaluated is rejected
/// whole: not registered, and its check transaction does not linger.
#[test]
fn a_constraint_that_cannot_be_checked_is_not_added() {
    let mut cluster = ClusterBuilder::new(2, app()).build().unwrap();
    let node = NodeId(0);
    let id = ObjectId::new("Warehouse", "W1");
    let e = id.clone();
    cluster
        .run_tx(node, move |c, tx| {
            c.create(node, tx, EntityState::for_class(c.app(), &e)?)
        })
        .unwrap();
    // `reserved` is no field of Warehouse: null cannot be compared.
    let broken = RegisteredConstraint::new(
        ConstraintMeta::new("Reserved"),
        Arc::new(ExprConstraint::parse("self.reserved <= self.capacity").unwrap()),
    )
    .context_class("Warehouse")
    .affects("Warehouse", "setStock", ContextPreparation::CalledObject);
    assert!(cluster.change_constraint(Add(broken, None)).is_err());
    assert_eq!(cluster.open_tx_count(), 0);
    assert!(cluster
        .repository()
        .get(&ConstraintName::from("Reserved"))
        .is_none());
    cluster
        .run_tx(node, |c, tx| {
            c.set_field(node, tx, &id, "stock", Value::Int(5))
        })
        .unwrap();
}

/// Re-enabling is rejected whole too: a constraint whose full check
/// cannot be evaluated, or may not run outside healthy mode, stays as
/// it was.
#[test]
fn a_constraint_that_cannot_be_checked_is_not_re_enabled() {
    // `reserved` is no field of Warehouse: null cannot be compared.
    let broken = RegisteredConstraint::new(
        ConstraintMeta::new("Reserved"),
        Arc::new(ExprConstraint::parse("self.reserved <= self.capacity").unwrap()),
    )
    .context_class("Warehouse")
    .affects("Warehouse", "setStock", ContextPreparation::CalledObject);
    let mut cluster = ClusterBuilder::new(2, app())
        .constraint(broken)
        .constraint(capacity_constraint())
        .build()
        .unwrap();
    let node = NodeId(0);
    let name = ConstraintName::from("Reserved");
    cluster.change_constraint(Disable(name.clone())).unwrap();
    let id = ObjectId::new("Warehouse", "W1");
    let e = id.clone();
    cluster
        .run_tx(node, move |c, tx| {
            c.create(node, tx, EntityState::for_class(c.app(), &e)?)
        })
        .unwrap();
    let enabled = |c: &Cluster, name| c.repository().get(name).unwrap().enabled;

    assert!(cluster
        .change_constraint(Enable(name.clone(), None))
        .is_err());
    assert!(!enabled(&cluster, &name), "still disabled");
    assert_eq!(cluster.open_tx_count(), 0);
    // …so writes it would have made uncheckable still go through.
    cluster
        .run_tx(node, |c, tx| {
            c.set_field(node, tx, &id, "stock", Value::Int(5))
        })
        .unwrap();

    // A crashed node's copies cannot be checked: refused the same way.
    // A refused re-check of an already enabled constraint leaves it on…
    let capacity = ConstraintName::from("Capacity");
    cluster.crash(NodeId(1)).unwrap();
    assert!(matches!(
        cluster.change_constraint(Enable(capacity.clone(), None)),
        Err(Error::ModeRestriction(_))
    ));
    assert!(enabled(&cluster, &capacity));
    // …and one of a disabled constraint leaves it off; disabling
    // checks nothing, so it goes through in any mode.
    cluster
        .change_constraint(Disable(capacity.clone()))
        .unwrap();
    assert!(matches!(
        cluster.change_constraint(Enable(capacity.clone(), None)),
        Err(Error::ModeRestriction(_))
    ));
    assert!(!enabled(&cluster, &capacity));
    assert_eq!(cluster.open_tx_count(), 0);
}

/// The full check reads every copy, so it waits until every node is
/// up: with node 0 down the Add is refused and changes nothing; once
/// node 0 is back, the check reads its replica too.
#[test]
fn a_checked_add_waits_until_every_node_is_up() {
    let mut cluster = ClusterBuilder::new(3, app()).build().unwrap();
    let node = NodeId(0);
    let id = ObjectId::new("Warehouse", "W1");
    let e = id.clone();
    cluster
        .run_tx(node, move |c, tx| {
            c.create(node, tx, EntityState::for_class(c.app(), &e)?)?;
            c.set_field(node, tx, &e, "stock", Value::Int(150))
        })
        .unwrap();
    cluster.crash(node).unwrap();
    let intra_object = || {
        let mut constraint = capacity_constraint();
        constraint.meta = constraint.meta.intra_object();
        constraint
    };
    assert!(matches!(
        cluster.change_constraint(Add(intra_object(), None)),
        Err(Error::ModeRestriction(_))
    ));
    assert!(cluster.repository().is_empty());
    assert_eq!(cluster.open_tx_count(), 0);
    cluster.restart(node).unwrap();
    assert_eq!(cluster.mode(), SystemMode::Healthy);
    assert_eq!(
        cluster.change_constraint(Add(intra_object(), None)),
        Err(Error::ConstraintChangeRejected {
            constraint: ConstraintName::from("Capacity"),
            violators: vec![id],
        })
    );
    assert_eq!(cluster.open_tx_count(), 0);
}

/// A tradeable capacity constraint: its static rule accepts nothing
/// below `possibly satisfied`, so only a handler accepts a violation.
fn tradeable_capacity() -> RegisteredConstraint {
    let mut constraint = capacity_constraint();
    constraint.meta = constraint
        .meta
        .tradeable(SatisfactionDegree::PossiblySatisfied);
    constraint
}

/// A handler that decides `decision` and counts what it was asked.
fn handler(decision: ThreatDecision, asked: &Arc<AtomicUsize>) -> Box<dyn NegotiationHandler> {
    let asked = Arc::clone(asked);
    Box::new(move |_: &mut ConsistencyThreat| {
        asked.fetch_add(1, Ordering::Relaxed);
        decision
    })
}

/// Everything a refused change must leave as it was: the repository,
/// the threat store (its journal included) and every node's journal.
fn refusable_state(cluster: &Cluster) -> String {
    let journals: Vec<_> = (0..cluster.node_count())
        .map(|n| cluster.journal_on(NodeId(n)).entries().to_vec())
        .collect();
    format!(
        "{:?}\n{:?}\n{journals:?}",
        cluster.repository(),
        cluster.threats()
    )
}

fn warehouses(cluster: &mut Cluster, stocks: &[(&str, i64)]) -> Vec<ObjectId> {
    let node = NodeId(0);
    (stocks.iter())
        .map(|&(key, stock)| {
            let id = ObjectId::new("Warehouse", key);
            cluster
                .run_tx(node, |c, tx| {
                    c.create(node, tx, EntityState::for_class(c.app(), &id)?)?;
                    c.set_field(node, tx, &id, "stock", Value::Int(stock))
                })
                .unwrap();
            id
        })
        .collect()
}

fn set_stock(cluster: &mut Cluster, node: NodeId, id: &ObjectId, stock: i64) {
    cluster
        .run_tx(node, |c, tx| {
            c.set_field(node, tx, id, "stock", Value::Int(stock))
        })
        .unwrap();
}

/// §3.3 with §3.2's promise: an Add or Enable whose check finds
/// violators negotiates each one. Accepted, they are stored as threats
/// with the change's commit and the audit explains them; rejected, the
/// change is refused whole and names them. A repair then cleans each
/// threat up like any other.
#[test]
fn a_checked_change_records_its_accepted_violators_or_is_refused_whole() {
    let mut cluster = ClusterBuilder::new(2, app()).build().unwrap();
    let ids = warehouses(&mut cluster, &[("W1", 50), ("W2", 150)]);
    let name = ConstraintName::from("Capacity");
    let asked = Arc::new(AtomicUsize::new(0));
    let refused = |violators: &[ObjectId]| {
        Err(Error::ConstraintChangeRejected {
            constraint: name.clone(),
            violators: violators.to_vec(),
        })
    };

    // Refused by the static rule, then by a handler: nothing changes.
    let before = refusable_state(&cluster);
    let add = |h| Add(tradeable_capacity(), h);
    assert_eq!(cluster.change_constraint(add(None)), refused(&ids[1..]));
    assert_eq!(refusable_state(&cluster), before);
    let reject = Some(handler(ThreatDecision::Reject, &asked));
    assert_eq!(cluster.change_constraint(add(reject)), refused(&ids[1..]));
    assert_eq!(asked.swap(0, Ordering::Relaxed), 1);
    assert_eq!(refusable_state(&cluster), before);

    // Accepted: W2's violation is a standing threat.
    let accept = Some(handler(ThreatDecision::Accept, &asked));
    assert_eq!(
        cluster.change_constraint(add(accept)),
        Ok(ids[1..].to_vec())
    );
    assert_eq!(cluster.threats().identity_count(), 1);
    promise::assert_kept(&cluster);

    // A bulk import behind the disabled constraint, then Enable.
    cluster.change_constraint(Disable(name.clone())).unwrap();
    set_stock(&mut cluster, NodeId(0), &ids[0], 500);
    let before = refusable_state(&cluster);
    let reject = Some(handler(ThreatDecision::Reject, &asked));
    let enable = |h| Enable(name.clone(), h);
    assert_eq!(cluster.change_constraint(enable(reject)), refused(&ids));
    assert_eq!(refusable_state(&cluster), before);
    assert!(!cluster.repository().get(&name).unwrap().enabled);
    let accept = Some(handler(ThreatDecision::Accept, &asked));
    assert_eq!(cluster.change_constraint(enable(accept)), Ok(ids.clone()));
    assert_eq!(cluster.threats().identity_count(), 2);
    promise::assert_kept(&cluster);

    // Repairing writes clean the threats up; none goes stale.
    set_stock(&mut cluster, NodeId(1), &ids[0], 40);
    assert_eq!(cluster.threats().identity_count(), 1);
    set_stock(&mut cluster, NodeId(0), &ids[1], 90);
    assert!(cluster.threats().is_empty());
    assert!(cluster.stale_threats().is_empty());
    promise::assert_kept(&cluster);
}

/// Asserts that `change` was refused for want of a quiescent point,
/// naming `object` and the open `tx` that holds its lock.
fn assert_waits_for(change: Result<Vec<ObjectId>, Error>, object: &ObjectId, tx: TxId) {
    match change {
        Err(Error::ModeRestriction(why)) => {
            let blocker = format!("{object} is locked by open {tx}");
            assert!(why.contains(&blocker), "{why}");
        }
        other => panic!("expected a refusal naming {object} and {tx}, got {other:?}"),
    }
}

/// §3.3 at a quiescent point: the check reads committed copies, so an
/// Add waits while an open transaction holds a write. Checked then,
/// the stock written before the constraint existed would commit
/// unchecked and break §3.2's promise with no fault at all.
#[test]
fn an_add_waits_for_an_open_write() {
    let mut cluster = ClusterBuilder::new(2, app()).build().unwrap();
    let ids = warehouses(&mut cluster, &[("W1", 0)]);
    let node = NodeId(0);
    let (refused, tx) = cluster
        .run_tx(node, |c, tx| {
            c.set_field(node, tx, &ids[0], "stock", Value::Int(150))?;
            Ok((c.change_constraint(Add(capacity_constraint(), None)), tx))
        })
        .unwrap();
    assert_waits_for(refused, &ids[0], tx);
    assert!(cluster.repository().is_empty());
    // Quiescent again: the check reads the committed 150.
    assert_eq!(
        cluster.change_constraint(Add(capacity_constraint(), None)),
        Err(Error::ConstraintChangeRejected {
            constraint: ConstraintName::from("Capacity"),
            violators: ids,
        })
    );
    promise::assert_kept(&cluster);
}

/// Enable waits the same way; Disable and Remove check nothing, so
/// they go through while the write is open.
#[test]
fn an_enable_waits_for_an_open_write_and_disable_and_remove_do_not() {
    let limit = RegisteredConstraint::new(
        ConstraintMeta::new("Limit"),
        Arc::new(ExprConstraint::parse("self.stock <= 1000").unwrap()),
    )
    .context_class("Warehouse")
    .affects("Warehouse", "setStock", ContextPreparation::CalledObject);
    let mut cluster = ClusterBuilder::new(2, app())
        .constraint(tradeable_capacity())
        .constraint(limit)
        .build()
        .unwrap();
    let ids = warehouses(&mut cluster, &[("W1", 0)]);
    let (capacity, limit) = (
        ConstraintName::from("Capacity"),
        ConstraintName::from("Limit"),
    );
    cluster
        .change_constraint(Disable(capacity.clone()))
        .unwrap();
    let node = NodeId(0);
    let (refused, tx) = cluster
        .run_tx(node, |c, tx| {
            c.set_field(node, tx, &ids[0], "stock", Value::Int(150))?;
            let refused = c.change_constraint(Enable(capacity.clone(), None));
            c.change_constraint(Disable(limit.clone()))?;
            c.change_constraint(Remove(limit.clone()))?;
            Ok((refused, tx))
        })
        .unwrap();
    assert_waits_for(refused, &ids[0], tx);
    assert!(!cluster.repository().get(&capacity).unwrap().enabled);
    assert!(cluster.repository().get(&limit).is_none());
    // Quiescent again: the check negotiates the committed 150.
    let asked = Arc::new(AtomicUsize::new(0));
    let accept = Some(handler(ThreatDecision::Accept, &asked));
    assert_eq!(
        cluster.change_constraint(Enable(capacity, accept)),
        Ok(ids.clone())
    );
    assert_eq!(cluster.threats().identity_count(), 1);
    promise::assert_kept(&cluster);
}

/// A prepared transaction still holds its locks: an Add between its
/// prepare and its commit, through a detached session, waits too.
#[test]
fn an_add_waits_between_prepare_and_commit() {
    let mut cluster = ClusterBuilder::new(2, app()).build().unwrap();
    let ids = warehouses(&mut cluster, &[("W1", 0)]);
    let mut session = cluster.session(NodeId(0));
    session
        .set_field(&ids[0], "stock", Value::Int(150))
        .unwrap();
    let tx = session.detach();
    cluster.prepare(tx).unwrap();
    let asked = Arc::new(AtomicUsize::new(0));
    let accept = Some(handler(ThreatDecision::Accept, &asked));
    let refused = cluster.change_constraint(Add(tradeable_capacity(), accept));
    assert_waits_for(refused, &ids[0], tx);
    assert_eq!(asked.load(Ordering::Relaxed), 0);
    cluster.commit(tx).unwrap();
    let accept = Some(handler(ThreatDecision::Accept, &asked));
    assert_eq!(
        cluster.change_constraint(Add(tradeable_capacity(), accept)),
        Ok(ids.clone())
    );
    assert_eq!(cluster.threats().identity_count(), 1);
    promise::assert_kept(&cluster);
}

/// An object created in an open transaction is no committed context
/// object yet, so the check could not see it: the Add waits for it.
#[test]
fn an_add_waits_for_an_open_create() {
    let mut cluster = ClusterBuilder::new(2, app()).build().unwrap();
    let w9 = ObjectId::new("Warehouse", "W9");
    let node = NodeId(0);
    let (refused, tx) = cluster
        .run_tx(node, |c, tx| {
            c.create(node, tx, EntityState::for_class(c.app(), &w9)?)?;
            c.set_field(node, tx, &w9, "stock", Value::Int(150))?;
            Ok((c.change_constraint(Add(capacity_constraint(), None)), tx))
        })
        .unwrap();
    assert_waits_for(refused, &w9, tx);
    assert_eq!(
        cluster.change_constraint(Add(capacity_constraint(), None)),
        Err(Error::ConstraintChangeRejected {
            constraint: ConstraintName::from("Capacity"),
            violators: vec![w9],
        })
    );
    promise::assert_kept(&cluster);
}

/// A query-based invariant has no context object: its violation is
/// still negotiated, stored and explained, though no violator is named.
#[test]
fn a_query_based_violation_is_recorded_without_a_context_object() {
    let mut cluster = ClusterBuilder::new(2, app()).build().unwrap();
    warehouses(&mut cluster, &[("W1", 80), ("W2", 70)]);
    let total = RegisteredConstraint::new(
        ConstraintMeta::new("TotalStock")
            .query_based()
            .tradeable(SatisfactionDegree::PossiblySatisfied),
        Arc::new(|ctx: &mut ValidationContext<'_>| {
            let mut total = 0;
            for id in ctx.objects_of_class(&ClassName::from("Warehouse")) {
                total += ctx.field(&id, "stock")?.as_int().unwrap_or(0);
            }
            Ok(total <= 100)
        }),
    );
    let asked = Arc::new(AtomicUsize::new(0));
    let accept = Some(handler(ThreatDecision::Accept, &asked));
    assert_eq!(cluster.change_constraint(Add(total, accept)), Ok(vec![]));
    assert_eq!(asked.load(Ordering::Relaxed), 1);
    let identity = ThreatIdentity {
        constraint: ConstraintName::from("TotalStock"),
        context_object: None,
    };
    assert_eq!(cluster.threats().identities(), vec![identity]);
    promise::assert_kept(&cluster);
}

/// The check reads every copy, so a checked change waits for a healthy
/// cluster: a re-enable inside a partition would read only the copies
/// on its node's side and miss what the other side committed.
#[test]
fn a_checked_enable_is_refused_in_a_partition_and_negotiates_once_reconciled() {
    let mut cluster = ClusterBuilder::new(3, app())
        .constraint(tradeable_capacity())
        .build()
        .unwrap();
    let ids = warehouses(&mut cluster, &[("W1", 50)]);
    let name = ConstraintName::from("Capacity");
    let asked = Arc::new(AtomicUsize::new(0));
    cluster.partition(&[nodes![0], nodes![1, 2]]).unwrap();
    cluster.change_constraint(Disable(name.clone())).unwrap();
    set_stock(&mut cluster, NodeId(1), &ids[0], 150);

    let before = refusable_state(&cluster);
    let accept = Some(handler(ThreatDecision::Accept, &asked));
    assert!(matches!(
        cluster.change_constraint(Enable(name.clone(), accept)),
        Err(Error::ModeRestriction(_))
    ));
    assert_eq!(refusable_state(&cluster), before);
    assert_eq!(asked.load(Ordering::Relaxed), 0);
    assert_eq!(cluster.open_tx_count(), 0);

    cluster.heal();
    cluster.reconcile(&mut HighestVersionWins, &mut DeferAll);
    promise::assert_kept(&cluster);
    let accept = Some(handler(ThreatDecision::Accept, &asked));
    assert_eq!(
        cluster.change_constraint(Enable(name, accept)),
        Ok(ids.clone())
    );
    assert_eq!(asked.load(Ordering::Relaxed), 1);
    assert_eq!(cluster.threats().identity_count(), 1);
    promise::assert_kept(&cluster);
}

/// A split two-node cluster holding warehouse `W1`, whose capacity
/// constraint is tradeable: a write on node 0 raises a threat.
fn degraded_tradeable_cluster() -> (Cluster, ObjectId) {
    let mut constraint = capacity_constraint();
    constraint.meta = constraint
        .meta
        .tradeable(SatisfactionDegree::PossiblySatisfied);
    let mut cluster = ClusterBuilder::new(2, app())
        .constraint(constraint)
        .build()
        .unwrap();
    let id = ObjectId::new("Warehouse", "W1");
    let e = id.clone();
    cluster
        .run_tx(NodeId(0), move |c, tx| {
            c.create(NodeId(0), tx, EntityState::for_class(c.app(), &e)?)
        })
        .unwrap();
    cluster.partition(&[nodes![0], nodes![1]]).unwrap();
    (cluster, id)
}

#[test]
fn accepted_threats_survive_a_middleware_crash() {
    let (mut cluster, id) = degraded_tradeable_cluster();
    let node = NodeId(0);
    cluster
        .run_tx(node, |c, tx| {
            c.set_field(node, tx, &id, "stock", Value::Int(10))
        })
        .unwrap();
    assert_eq!(cluster.threats().len(), 1);
    // Crash the node: the restart recovers the threat store from its
    // write-ahead log (§5.5.1) and reports what it re-activated.
    cluster.crash(node).unwrap();
    let ring = RingRecorder::new(64);
    cluster.telemetry().attach(Box::new(ring.clone()));
    cluster.restart(node).unwrap();
    let restarts: Vec<TraceEvent> = ring
        .records_of_kind("node_restart")
        .into_iter()
        .map(|r| r.event)
        .collect();
    assert!(
        matches!(
            restarts[..],
            [TraceEvent::NodeRestart {
                node: n,
                reactivated_threats: 1,
                ..
            }] if n == node
        ),
        "{restarts:?}"
    );
    assert_eq!(cluster.threats().len(), 1);
    assert_eq!(
        cluster.threats().threats()[0].constraint,
        ConstraintName::from("Capacity")
    );
}

/// A threat whose constraint was removed at runtime is moot: the next
/// reconciliation re-evaluates it, drops it and counts it `dropped`,
/// in its report and in its `reconcile_constraint_phase` event.
#[test]
fn a_removed_constraints_threat_is_dropped_and_counted() {
    let (mut cluster, id) = degraded_tradeable_cluster();
    set_stock(&mut cluster, NodeId(0), &id, 10);
    assert_eq!(cluster.threats().len(), 1);
    let capacity = ConstraintName::from("Capacity");
    cluster.change_constraint(Remove(capacity)).unwrap();
    cluster.heal();
    let ring = RingRecorder::new(64);
    cluster.telemetry().attach(Box::new(ring.clone()));
    let summary = cluster.reconcile(&mut HighestVersionWins, &mut DeferAll);
    let expected = ConstraintReconcileReport {
        re_evaluated: 1,
        dropped: 1,
        ..ConstraintReconcileReport::default()
    };
    assert_eq!(summary.constraints, expected);
    let phases = ring.records_of_kind("reconcile_constraint_phase");
    assert!(
        matches!(
            phases[..],
            [ref r] if matches!(r.event, TraceEvent::ReconcileConstraintPhase {
                re_evaluated: 1,
                dropped: 1,
                ..
            })
        ),
        "{phases:?}"
    );
    assert!(cluster.threats().is_empty());
    promise::assert_kept(&cluster);
}

/// §3.2.1 lets a negotiation handler attach application data to the
/// threat it accepts. Data the threat journal could not give back used
/// to be stored, journalled as `null` and silently dropped at the next
/// recovery — an accepted threat that reconciliation never saw again.
/// The operation is refused instead, and nothing is stored.
#[test]
fn app_data_the_journal_cannot_give_back_refuses_the_operation() {
    let (mut cluster, id) = degraded_tradeable_cluster();
    let node = NodeId(0);
    let mut accept_with = |data: Value, stock: i64| {
        cluster.run_tx(node, |c, tx| {
            c.register_negotiation_handler(
                tx,
                Box::new(move |threat: &mut ConsistencyThreat| {
                    threat.app_data = Some(data.clone());
                    ThreatDecision::Accept
                }),
            )?;
            c.set_field(node, tx, &id, "stock", Value::Int(stock))
        })
    };
    for bad in [f64::NAN, f64::INFINITY] {
        let refused = accept_with(Value::Float(bad), 10);
        assert!(
            matches!(&refused, Err(Error::IllTypedField { name, expected })
                if name == "app_data" && expected == "finite float"),
            "{bad}: {refused:?}"
        );
    }
    accept_with(Value::Float(0.5), 20).expect("finite app data is accepted");
    assert_eq!(cluster.threats().len(), 1);
    // Every restart recovers the threat store from its journal: what
    // was stored comes back, app data included.
    cluster.crash(NodeId(1)).unwrap();
    cluster.restart(NodeId(1)).expect("restart");
    assert_eq!(cluster.threats().len(), 1);
    assert_eq!(
        cluster.threats().threats()[0].app_data,
        Some(Value::Float(0.5))
    );
}

#[test]
fn deployed_interceptors_wrap_every_invocation() {
    use dedisys_core::HookInfo;
    use dedisys_object::{Interceptor, Invocation};
    use std::sync::atomic::{AtomicUsize, Ordering};

    static CALLS: AtomicUsize = AtomicUsize::new(0);

    struct Auditor;
    impl Interceptor<HookInfo> for Auditor {
        fn name(&self) -> &str {
            "auditor"
        }
        fn before(
            &mut self,
            _cx: &mut HookInfo,
            _inv: &mut Invocation,
        ) -> dedisys_types::Result<()> {
            CALLS.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }
    }

    struct Security;
    impl Interceptor<HookInfo> for Security {
        fn name(&self) -> &str {
            "security"
        }
        fn before(
            &mut self,
            _cx: &mut HookInfo,
            inv: &mut Invocation,
        ) -> dedisys_types::Result<()> {
            if inv.method.as_str() == "setCapacity" {
                return Err(dedisys_types::Error::ModeRestriction(
                    "capacity changes require the admin role".into(),
                ));
            }
            Ok(())
        }
    }

    let mut cluster = ClusterBuilder::new(1, app()).build().unwrap();
    cluster.add_interceptor(Box::new(Auditor));
    cluster.add_interceptor(Box::new(Security));
    let node = NodeId(0);
    let id = ObjectId::new("Warehouse", "W1");
    let e = id.clone();
    cluster
        .run_tx(node, move |c, tx| {
            c.create(node, tx, EntityState::for_class(c.app(), &e)?)
        })
        .unwrap();
    cluster
        .run_tx(node, |c, tx| {
            c.set_field(node, tx, &id, "stock", Value::Int(5))
        })
        .unwrap();
    assert!(CALLS.load(Ordering::SeqCst) >= 1);
    // The security interceptor vetoes before the container is touched.
    let denied = cluster.run_tx(node, |c, tx| {
        c.set_field(node, tx, &id, "capacity", Value::Int(1))
    });
    assert!(matches!(
        denied,
        Err(dedisys_types::Error::ModeRestriction(_))
    ));
    assert_eq!(
        cluster.entity_on(node, &id).unwrap().field("capacity"),
        &Value::Int(100)
    );
}

/// A hard invariant `stock <= limit` that counts its evaluations.
fn counting_limit(name: &str, limit: i64, evaluations: &Arc<AtomicUsize>) -> RegisteredConstraint {
    let evaluations = Arc::clone(evaluations);
    let mut constraint = capacity_constraint();
    constraint.meta.name = ConstraintName::from(name);
    constraint.implementation = Arc::new(move |ctx: &mut ValidationContext<'_>| {
        evaluations.fetch_add(1, Ordering::Relaxed);
        Ok(ctx.self_field("stock")?.as_int() <= Some(limit))
    });
    constraint
}

#[test]
fn a_refused_write_evaluates_nothing_past_the_violated_invariant() {
    let evaluations = Arc::new(AtomicUsize::new(0));
    let mut cluster = ClusterBuilder::new(2, app())
        .constraint(counting_limit("Limit-0", 10, &evaluations))
        .constraint(counting_limit("Limit-1", 1000, &evaluations))
        .constraint(counting_limit("Limit-2", 1000, &evaluations))
        .build()
        .unwrap();
    let node = NodeId(0);
    let id = ObjectId::new("Warehouse", "W1");
    // A write all three accept evaluates all three …
    cluster
        .run_tx(node, |c, tx| {
            c.create(node, tx, EntityState::for_class(c.app(), &id)?)?;
            c.set_field(node, tx, &id, "stock", Value::Int(5))
        })
        .unwrap();
    assert_eq!(evaluations.swap(0, Ordering::Relaxed), 3);
    // … one the first refuses stops right there.
    let mut expected = cluster.stats().ccm;
    let mut session = cluster.session(node);
    let tx = session.tx();
    assert_eq!(
        session.set_field(&id, "stock", Value::Int(50)),
        Err(Error::ConstraintViolated {
            constraint: ConstraintName::from("Limit-0")
        })
    );
    assert_eq!(session.commit(), Err(Error::RollbackOnly(tx)));
    assert_eq!(evaluations.load(Ordering::Relaxed), 1);
    expected.validations += 1;
    expected.violations += 1;
    assert_eq!(cluster.stats().ccm, expected);
}
