//! Runtime constraint management at the cluster level: adding and
//! re-enabling constraints triggers a full check over all context
//! objects (§3.3), and threat persistence survives middleware crashes.

use dedisys_constraints::{
    expr::ExprConstraint, ConstraintMeta, ContextPreparation, RegisteredConstraint,
    ValidationContext,
};
use dedisys_core::{nodes, Cluster, ClusterBuilder, ConsistencyThreat, ThreatDecision};
use dedisys_object::{AppDescriptor, ClassDescriptor, EntityState};
use dedisys_types::{ConstraintName, Error, NodeId, ObjectId, SatisfactionDegree, Value};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

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
    let violating = cluster
        .add_constraint_with_check(capacity_constraint())
        .unwrap();
    assert_eq!(violating, vec![ObjectId::new("Warehouse", "W2")]);
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
    cluster.set_constraint_enabled(&name, false).unwrap();
    cluster
        .run_tx(node, |c, tx| {
            c.set_field(node, tx, &id, "stock", Value::Int(500))
        })
        .unwrap();
    // Re-enable: the full check surfaces the violation introduced
    // while the constraint was off.
    let violating = cluster.set_constraint_enabled(&name, true).unwrap();
    assert_eq!(violating, vec![id.clone()]);
    // Duplicate registration is still rejected.
    assert!(cluster
        .add_constraint_with_check(capacity_constraint())
        .is_err());
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
    assert!(cluster.add_constraint_with_check(broken).is_err());
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
/// cannot be evaluated, or cannot run at all, stays as it was.
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
    cluster.set_constraint_enabled(&name, false).unwrap();
    let id = ObjectId::new("Warehouse", "W1");
    let e = id.clone();
    cluster
        .run_tx(node, move |c, tx| {
            c.create(node, tx, EntityState::for_class(c.app(), &e)?)
        })
        .unwrap();
    let enabled = |c: &Cluster, name| c.repository().get(name).unwrap().enabled;

    assert!(cluster.set_constraint_enabled(&name, true).is_err());
    assert!(!enabled(&cluster, &name), "still disabled");
    assert_eq!(cluster.open_tx_count(), 0);
    // …so writes it would have made uncheckable still go through.
    cluster
        .run_tx(node, |c, tx| {
            c.set_field(node, tx, &id, "stock", Value::Int(5))
        })
        .unwrap();

    // No node up to run the check: rejected the same way. A failed
    // check of an already enabled constraint leaves it on…
    let capacity = ConstraintName::from("Capacity");
    for n in [NodeId(0), NodeId(1)] {
        cluster.crash(n).unwrap();
    }
    assert!(matches!(
        cluster.set_constraint_enabled(&capacity, true),
        Err(Error::NodeCrashed(_))
    ));
    assert!(enabled(&cluster, &capacity));
    // …and one of a disabled constraint leaves it off.
    cluster.set_constraint_enabled(&capacity, false).unwrap();
    assert!(matches!(
        cluster.set_constraint_enabled(&capacity, true),
        Err(Error::NodeCrashed(_))
    ));
    assert!(!enabled(&cluster, &capacity));
}

/// The full check runs from a live node: with node 0 down, the
/// replicas on nodes 1–2 are still checked.
#[test]
fn the_full_check_runs_from_a_live_node() {
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
    // Intra-object, so possibly stale replicas do not soften the
    // definite violation into a threat.
    let mut constraint = capacity_constraint();
    constraint.meta = constraint.meta.intra_object();
    let violating = cluster.add_constraint_with_check(constraint).unwrap();
    assert_eq!(violating, vec![id]);
    assert_eq!(cluster.open_tx_count(), 0);
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
    // Crash-recover the threat store from its write-ahead log.
    let recovered = cluster.recover_threats();
    assert_eq!(recovered, Ok(1));
    assert_eq!(cluster.threats().len(), 1);
    assert_eq!(
        cluster.threats().threats()[0].constraint,
        ConstraintName::from("Capacity")
    );
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
