//! Explicit *runtime* management of integrity constraints (§2.1.4):
//! constraints loaded from a deployment descriptor, then added,
//! disabled, re-enabled and removed while the system runs — the
//! capability that motivates the repository-based design despite its
//! overhead (Chapter 2).
//!
//! Run with: `cargo run --example runtime_constraints`

use dedisys_constraints::{ConstraintConfigSet, ImplRegistry};
use dedisys_core::ClusterBuilder;
use dedisys_object::{AppDescriptor, ClassDescriptor, EntityState};
use dedisys_types::{ConstraintName, NodeId, ObjectId, Result, Value};

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
    cluster.set_constraint_enabled(&capacity, false)?;
    cluster.run_tx(node, |c, tx| {
        c.set_field(node, tx, &wh, "stock", Value::Int(150))
    })?;
    println!("constraint disabled: stock=150 accepted");

    // … re-enable it: §3.3's check of every warehouse finds the one
    // the import left over capacity, and the constraint bites again.
    let violators = cluster.set_constraint_enabled(&capacity, true)?;
    assert_eq!(
        violators,
        std::slice::from_ref(&wh),
        "the import's warehouse"
    );
    println!("constraint re-enabled: violated by {}", violators[0]);
    let still_over = cluster.run_tx(node, |c, tx| {
        c.set_field(node, tx, &wh, "stock", Value::Int(160))
    });
    println!(
        "constraint re-enabled: stock=160 → {}",
        still_over.unwrap_err()
    );

    // Remove it entirely.
    cluster.remove_constraint(&capacity);
    cluster.run_tx(node, |c, tx| {
        c.set_field(node, tx, &wh, "stock", Value::Int(160))
    })?;
    println!("constraint removed: stock=160 accepted");
    println!(
        "repository now holds {} constraint(s); lookup stats: {:?}",
        cluster.repository().len(),
        cluster.repository().stats()
    );
    Ok(())
}
