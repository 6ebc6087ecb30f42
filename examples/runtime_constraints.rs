//! Explicit *runtime* management of integrity constraints (§2.1.4):
//! constraints loaded from a deployment descriptor, then disabled,
//! re-enabled and removed while the system runs — the capability that
//! motivates the repository-based design despite its overhead (Chapter
//! 2). Every change is one `Cluster::change_constraint`; an added or
//! re-enabled constraint is checked for all context objects (§3.3), at
//! a quiescent point, and each violator is negotiated or the change
//! refused.
//!
//! Run with: `cargo run --example runtime_constraints`

use dedisys_constraints::{ConstraintConfigSet, ImplRegistry};
use dedisys_core::ConstraintChange::{Add, Disable, Enable, Remove};
use dedisys_core::{Cluster, ClusterBuilder, ConsistencyThreat, ThreatDecision};
use dedisys_object::{AppDescriptor, ClassDescriptor, EntityState};
use dedisys_types::{ConstraintName, Error, NodeId, ObjectId, Result, Value};

/// The deployment descriptor (the Listing 4.1 equivalent, as JSON).
const DESCRIPTOR: &str = r#"{
  "constraints": [
    {
      "name": "StockNonNegative",
      "type": "HARD",
      "priority": "RELAXABLE",
      "minSatisfactionDegree": "POSSIBLY_SATISFIED",
      "contextClass": "Warehouse",
      "expr": "self.stock >= 0",
      "affectedMethods": [
        { "class": "Warehouse", "method": "setStock",
          "preparation": { "kind": "calledObject" } }
      ]
    },
    {
      "name": "StockBelowCapacity",
      "type": "HARD",
      "contextClass": "Warehouse",
      "expr": "self.stock <= self.capacity",
      "affectedMethods": [
        { "class": "Warehouse", "method": "setStock",
          "preparation": { "kind": "calledObject" } }
      ]
    }
  ]
}"#;

fn main() -> Result<()> {
    let app = AppDescriptor::new("inventory").with_class(
        ClassDescriptor::new("Warehouse")
            .with_field("stock", Value::Int(0))
            .with_field("capacity", Value::Int(100)),
    );

    // Load constraints from the descriptor at deployment (§4.2.2).
    let configs = ConstraintConfigSet::from_json(DESCRIPTOR)?;
    let constraints = configs.resolve(&ImplRegistry::new())?;
    println!(
        "deployed {} constraints from the descriptor",
        constraints.len()
    );

    let mut cluster = ClusterBuilder::new(2, app)
        .constraints(constraints)
        .build()?;
    let wh = ObjectId::new("Warehouse", "W1");
    let node = NodeId(0);
    cluster.run_tx(node, |c, tx| {
        c.create(node, tx, EntityState::for_class(c.app(), &wh)?)
    })?;

    // Both constraints enforce.
    let too_much = cluster.run_tx(node, |c, tx| {
        c.set_field(node, tx, &wh, "stock", Value::Int(150))
    });
    println!("stock=150 → {}", too_much.unwrap_err());

    // Disable the capacity constraint at runtime (e.g. for a bulk
    // import, cf. [OCS01] in §6.2) …
    let capacity = ConstraintName::from("StockBelowCapacity");
    cluster.change_constraint(Disable(capacity.clone()))?;
    set_stock(&mut cluster, &wh, 150)?;
    println!("constraint disabled: stock=150 accepted");

    // … re-enable it: §3.3's check of every warehouse finds the one the
    // import left over capacity. The constraint is not tradeable, so
    // the violation cannot be accepted: the change is refused whole and
    // the constraint stays off.
    let refused = cluster.change_constraint(Enable(capacity.clone(), None));
    assert_eq!(
        refused,
        Err(Error::ConstraintChangeRejected {
            constraint: capacity.clone(),
            violators: vec![wh.clone()],
        }),
        "the import's warehouse"
    );
    println!("re-enable refused: {}", refused.unwrap_err());
    set_stock(&mut cluster, &wh, 90)?;
    assert!(cluster
        .change_constraint(Enable(capacity.clone(), None))?
        .is_empty());
    println!("stock=90: constraint re-enabled, no violator");
    let still_over = set_stock(&mut cluster, &wh, 160);
    println!(
        "constraint re-enabled: stock=160 → {}",
        still_over.unwrap_err()
    );

    // Remove it entirely.
    cluster.change_constraint(Remove(capacity.clone()))?;
    set_stock(&mut cluster, &wh, 160)?;
    println!("constraint removed: stock=160 accepted");

    // Add it back. The check reads committed copies, so it waits for a
    // quiescent point: while a session holds a write, the Add is
    // refused, typed, and changes nothing …
    let again = configs.resolve(&ImplRegistry::new())?;
    let again = again.into_iter().find(|c| c.name() == &capacity);
    let again = again.expect("the descriptor declares it");
    let mut session = cluster.session(node);
    session.set_field(&wh, "stock", Value::Int(80))?;
    let open = session.detach();
    let waiting = cluster.change_constraint(Add(again.clone(), None));
    assert!(
        matches!(&waiting, Err(Error::ModeRestriction(_))),
        "{waiting:?}"
    );
    println!("add while {open} is open → {}", waiting.unwrap_err());
    // … and goes through once the session has ended.
    cluster.commit(open)?;
    assert!(cluster.change_constraint(Add(again, None))?.is_empty());
    println!("{open} committed stock=80: constraint added back, no violator");

    // A tradeable constraint's violators can be accepted instead: the
    // change's handler negotiates each one, and the change's commit
    // stores it as a consistency threat for reconciliation (§3.2).
    let non_negative = ConstraintName::from("StockNonNegative");
    cluster.change_constraint(Disable(non_negative.clone()))?;
    set_stock(&mut cluster, &wh, -5)?;
    let accept = Box::new(|threat: &mut ConsistencyThreat| {
        println!(
            "negotiating {} on {} ({}): accepted",
            threat.constraint,
            threat.context_object.as_ref().expect("a context object"),
            threat.degree
        );
        ThreatDecision::Accept
    });
    let accepted = cluster.change_constraint(Enable(non_negative, Some(accept)))?;
    assert_eq!(accepted, std::slice::from_ref(&wh));
    println!(
        "constraint re-enabled: {} threat(s) stored",
        cluster.threats().len()
    );
    // A write that satisfies it again cleans its threat up.
    set_stock(&mut cluster, &wh, 10)?;
    assert!(cluster.threats().is_empty());
    println!("stock=10: the threat is cleaned up");

    println!(
        "repository now holds {} constraint(s); lookup stats: {:?}",
        cluster.repository().len(),
        cluster.repository().stats()
    );
    // §3.2's promise: every violation the committed state still holds
    // is explained, and no threat outlives its violation.
    assert!(cluster.audit().iter().all(|f| f.explanation.is_some()));
    assert!(cluster.stale_threats().is_empty());
    Ok(())
}

/// Sets the stock of `wh` in a transaction of its own on node 0.
fn set_stock(cluster: &mut Cluster, wh: &ObjectId, stock: i64) -> Result<()> {
    let node = NodeId(0);
    cluster.run_tx(node, |c, tx| {
        c.set_field(node, tx, wh, "stock", Value::Int(stock))
    })
}
