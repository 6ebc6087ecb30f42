//! Integration: a full deployment descriptor exercising every
//! constraint kind, preparation kind and negotiation metadata, resolved
//! and validated end to end against a `MapAccess` world.

use dedisys_constraints::{
    ConstraintConfigSet, ConstraintKind, ConstraintPriority, ImplRegistry, MapAccess,
    ValidationContext,
};
use dedisys_types::{ChaosRng, ObjectId, SatisfactionDegree, Value};
use std::sync::Arc;

const DESCRIPTOR: &str = r#"{
  "constraints": [
    {
      "name": "OrderTotalNonNegative",
      "type": "HARD",
      "priority": "RELAXABLE",
      "minSatisfactionDegree": "POSSIBLY_SATISFIED",
      "contextClass": "Order",
      "intraObject": true,
      "expr": "self.total >= 0",
      "affectedMethods": [
        { "class": "Order", "method": "setTotal" }
      ]
    },
    {
      "name": "OrderWithinCredit",
      "type": "SOFT",
      "priority": "RELAXABLE",
      "minSatisfactionDegree": "UNCHECKABLE",
      "contextClass": "Order",
      "expr": "self.total <= self.customer.creditLimit",
      "affectedMethods": [
        { "class": "Order", "method": "setTotal",
          "preparation": { "kind": "calledObject" } },
        { "class": "Customer", "method": "setCreditLimit",
          "preparation": { "kind": "referenceField", "field": "lastOrder" } }
      ],
      "freshness": [ { "class": "Customer", "maxAge": 3 } ]
    },
    {
      "name": "PositiveAmountArgument",
      "type": "PRE",
      "contextClass": "Order",
      "expr": "arg(0) > 0",
      "affectedMethods": [ { "class": "Order", "method": "addItem" } ]
    },
    {
      "name": "TotalIncreasedByAmount",
      "type": "POST",
      "contextClass": "Order",
      "expr": "result() >= arg(0)",
      "affectedMethods": [ { "class": "Order", "method": "addItem" } ]
    },
    {
      "name": "AuditTrailPresent",
      "type": "ASYNC",
      "priority": "RELAXABLE",
      "contextObject": false,
      "expr": "count(\"Order\") >= 0",
      "affectedMethods": [ { "class": "Order", "method": "setTotal",
        "preparation": { "kind": "none" } } ]
    },
    {
      "name": "HandRolled",
      "type": "HARD",
      "implementation": "HandRolled",
      "contextClass": "Order",
      "affectedMethods": [ { "class": "Order", "method": "setTotal" } ]
    }
  ]
}"#;

fn world() -> (MapAccess, ObjectId, ObjectId) {
    let order = ObjectId::new("Order", "O1");
    let customer = ObjectId::new("Customer", "C1");
    let mut w = MapAccess::new();
    w.put_field(&order, "total", Value::Int(250));
    w.put_field(&order, "customer", Value::Ref(customer.clone()));
    w.put_field(&customer, "creditLimit", Value::Int(1000));
    w.put_field(&customer, "lastOrder", Value::Ref(order.clone()));
    (w, order, customer)
}

#[test]
fn full_descriptor_resolves_with_all_kinds() {
    let set = ConstraintConfigSet::from_json(DESCRIPTOR).unwrap();
    let mut impls = ImplRegistry::new();
    impls.register(
        "HandRolled",
        Arc::new(|ctx: &mut ValidationContext<'_>| {
            Ok(ctx.self_field("total")?.as_int().unwrap_or(0) % 5 == 0)
        }),
    );
    let constraints = set.resolve(&impls).unwrap();
    assert_eq!(constraints.len(), 6);

    let kinds: Vec<ConstraintKind> = constraints.iter().map(|c| c.meta.kind).collect();
    assert!(kinds.contains(&ConstraintKind::HardInvariant));
    assert!(kinds.contains(&ConstraintKind::SoftInvariant));
    assert!(kinds.contains(&ConstraintKind::AsyncInvariant));
    assert!(kinds.contains(&ConstraintKind::Precondition));
    assert!(kinds.contains(&ConstraintKind::Postcondition));

    let credit = constraints
        .iter()
        .find(|c| c.name().as_str() == "OrderWithinCredit")
        .unwrap();
    assert_eq!(credit.meta.priority, ConstraintPriority::Tradeable);
    assert_eq!(
        credit.meta.min_satisfaction_degree,
        SatisfactionDegree::Uncheckable
    );
    assert_eq!(credit.meta.freshness.len(), 1);
    assert_eq!(credit.affected_methods.len(), 2);
}

#[test]
fn resolved_constraints_validate_against_the_world() {
    let set = ConstraintConfigSet::from_json(DESCRIPTOR).unwrap();
    let mut impls = ImplRegistry::new();
    impls.register(
        "HandRolled",
        Arc::new(|ctx: &mut ValidationContext<'_>| {
            Ok(ctx.self_field("total")?.as_int().unwrap_or(0) % 5 == 0)
        }),
    );
    let constraints = set.resolve(&impls).unwrap();
    let (mut w, order, _) = world();

    for c in &constraints {
        if !c.meta.kind.is_invariant() {
            continue;
        }
        let ctx_obj = if c.meta.needs_context_object {
            Some(order.clone())
        } else {
            None
        };
        let mut ctx = match ctx_obj {
            Some(id) => ValidationContext::for_invariant(id, &mut w),
            None => ValidationContext::for_query(&mut w),
        };
        assert_eq!(
            c.implementation.validate(&mut ctx),
            Ok(true),
            "{}",
            c.name()
        );
    }
}

#[test]
fn cross_class_trigger_reaches_the_context_via_the_reference() {
    let set = ConstraintConfigSet::from_json(DESCRIPTOR).unwrap();
    let mut impls = ImplRegistry::new();
    impls.register(
        "HandRolled",
        Arc::new(|_: &mut ValidationContext<'_>| Ok(true)),
    );
    let constraints = set.resolve(&impls).unwrap();
    let credit = constraints
        .iter()
        .find(|c| c.name().as_str() == "OrderWithinCredit")
        .unwrap();

    let (mut w, order, customer) = world();
    let sig = dedisys_types::MethodSignature::new("Customer", "setCreditLimit");
    let prep = credit.preparation_for(&sig).unwrap();
    // The preparation follows Customer.lastOrder to the Order context.
    let resolved = prep.resolve(&customer, &mut w).unwrap();
    assert_eq!(resolved, Some(order));
}

#[test]
fn violations_are_detected_through_the_descriptor_constraints() {
    let set = ConstraintConfigSet::from_json(DESCRIPTOR).unwrap();
    let mut impls = ImplRegistry::new();
    impls.register(
        "HandRolled",
        Arc::new(|_: &mut ValidationContext<'_>| Ok(true)),
    );
    let constraints = set.resolve(&impls).unwrap();
    let credit = constraints
        .iter()
        .find(|c| c.name().as_str() == "OrderWithinCredit")
        .unwrap();

    let (mut w, order, customer) = world();
    w.put_field(&order, "total", Value::Int(2000)); // over the limit
    let mut ctx = ValidationContext::for_invariant(order.clone(), &mut w);
    assert_eq!(credit.implementation.validate(&mut ctx), Ok(false));
    // Unreachable customer ⇒ uncheckable (error propagates).
    let mut w2 = {
        let (mut w2, o, c) = world();
        let _ = o;
        w2.set_unreachable(&c, true);
        let _ = customer;
        w2
    };
    let mut ctx = ValidationContext::for_invariant(order, &mut w2);
    assert!(matches!(
        credit.implementation.validate(&mut ctx),
        Err(dedisys_types::Error::ObjectUnreachable(_))
    ));
}

/// The bytes a mutation draws from: JSON's punctuation and whitespace,
/// the escape, and what numbers and the three literals are spelled with.
const JSON_ALPHABET: &[u8] = b"{}[]\":, \n\\-+.0123456789eEtrufalsn";

/// `DESCRIPTOR` with one to four seeded byte edits: each replaces,
/// inserts or deletes one byte.
fn mutant(seed: u64) -> String {
    let mut rng = ChaosRng::new(seed);
    let mut bytes = DESCRIPTOR.as_bytes().to_vec();
    for _ in 0..1 + rng.below(4) {
        let at = rng.below(bytes.len() as u64) as usize;
        let byte = *rng.pick(JSON_ALPHABET);
        match rng.below(3) {
            0 => bytes[at] = byte,
            1 => bytes.insert(at, byte),
            _ => {
                bytes.remove(at);
            }
        }
    }
    String::from_utf8(bytes).expect("ASCII edits of ASCII text")
}

/// A damaged descriptor is refused with an error or loads, and whatever
/// loads validates against the world: no mutant reaches a panic.
#[test]
fn mutated_descriptors_load_or_fail_without_panicking() {
    let mut impls = ImplRegistry::new();
    impls.register(
        "HandRolled",
        Arc::new(|ctx: &mut ValidationContext<'_>| {
            Ok(ctx.self_field("total")?.as_int().unwrap_or(0) % 5 == 0)
        }),
    );
    let (mut parsed, mut resolved) = (0, 0);
    for seed in 0..3_000 {
        let Ok(set) = ConstraintConfigSet::from_json(&mutant(seed)) else {
            continue;
        };
        parsed += 1;
        let Ok(constraints) = set.resolve(&impls) else {
            continue;
        };
        resolved += 1;
        let (mut w, order, _) = world();
        for c in &constraints {
            let mut ctx = if c.meta.needs_context_object {
                let args = vec![Value::Int(5)];
                let mut ctx =
                    ValidationContext::for_method(order.clone(), "addItem".into(), args, &mut w);
                ctx.set_result(Value::Int(255));
                ctx
            } else {
                ValidationContext::for_query(&mut w)
            };
            let _verdict = c.implementation.validate(&mut ctx);
        }
    }
    // The edits land both in structure and in values: some mutants
    // parse, and some of those still resolve.
    assert!(parsed > resolved && resolved > 0, "{parsed} {resolved}");
}
