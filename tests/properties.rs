//! Seeded-schedule properties over the core data structures and
//! invariants. Every property runs `CASES` cases (the reconciliation
//! one 48), each with its inputs drawn from `ChaosRng::new(seed)`; a
//! failure names its seed, which replays it.

use dedisys_constraints::expr::{self, ExprConstraint};
use dedisys_constraints::{MapAccess, ValidationContext};
use dedisys_core::nodes;
use dedisys_core::partition_sensitive::partition_share_weighted;
use dedisys_net::Topology;
use dedisys_types::{ChaosRng, NodeId, ObjectId, SatisfactionDegree, Value};
use std::collections::BTreeSet;

#[path = "../crates/core/tests/promise/mod.rs"]
mod promise;

const CASES: u64 = 256;

/// A uniform draw in `lo..hi`.
fn between(rng: &mut ChaosRng, lo: u64, hi: u64) -> u64 {
    lo + rng.below(hi - lo)
}

/// `min..max` items, each drawn by `item`.
fn vec_of<T>(
    rng: &mut ChaosRng,
    min: u64,
    max: u64,
    mut item: impl FnMut(&mut ChaosRng) -> T,
) -> Vec<T> {
    (0..between(rng, min, max)).map(|_| item(rng)).collect()
}

/// A string of `min..=max` characters of `alphabet`.
fn string_of(rng: &mut ChaosRng, alphabet: &[u8], min: u64, max: u64) -> String {
    (0..between(rng, min, max + 1))
        .map(|_| char::from(*rng.pick(alphabet)))
        .collect()
}

/// §3.1: combining a set of validation results equals the meet of
/// the satisfaction-degree lattice — order-independent and
/// associative.
#[test]
fn degree_combination_is_the_lattice_meet() {
    for seed in 0..CASES {
        let mut rng = ChaosRng::new(seed);
        let mut degrees = vec_of(&mut rng, 1, 8, |r| *r.pick(&SatisfactionDegree::ALL));
        let combined = SatisfactionDegree::combine(degrees.clone());
        assert_eq!(combined, *degrees.iter().min().unwrap(), "seed {seed}");
        // Order independence.
        degrees.reverse();
        assert_eq!(
            SatisfactionDegree::combine(degrees.clone()),
            combined,
            "seed {seed}"
        );
        // Adding a satisfied constraint never changes the outcome.
        degrees.push(SatisfactionDegree::Satisfied);
        assert_eq!(
            SatisfactionDegree::combine(degrees),
            combined,
            "seed {seed}"
        );
    }
}

/// Staleness degradation turns exactly the definite results into
/// threats (Satisfied → PossiblySatisfied, Violated →
/// PossiblyViolated) and is idempotent. The domain has five values, so
/// it is checked whole; `Violated`, the one failure this property ever
/// recorded, comes first.
#[test]
fn staleness_degradation_properties() {
    assert_eq!(SatisfactionDegree::ALL[0], SatisfactionDegree::Violated);
    for d in SatisfactionDegree::ALL {
        let degraded = d.degrade_for_staleness();
        if d.is_threat() {
            assert_eq!(degraded, d);
        } else {
            assert!(degraded.is_threat(), "{d:?}");
        }
        // Idempotent: a second degradation changes nothing.
        assert_eq!(degraded.degrade_for_staleness(), degraded, "{d:?}");
        // Degradation never reaches Uncheckable — that only stems from
        // unreachable objects (NCC), not staleness (LCC).
        assert!(
            d == SatisfactionDegree::Uncheckable || degraded != SatisfactionDegree::Uncheckable,
            "{d:?}"
        );
    }
}

/// Integer-rational shares (§5.5.2 bugfix): over *any* disjoint
/// weighting of the cluster the shares never sum above the
/// remainder, each share is within bounds, and the undivided
/// cluster receives exactly the remainder — properties the float
/// path cannot guarantee under unlucky rounding.
#[test]
fn weighted_partition_shares_are_conservative() {
    for seed in 0..CASES {
        let mut rng = ChaosRng::new(seed);
        let remaining = rng.below(1_000_000) as i64;
        let weights = vec_of(&mut rng, 1, 6, |r| r.below(1_000) as u32);
        let total: u32 = weights.iter().sum();
        let shares: Vec<i64> = weights
            .iter()
            .map(|&w| partition_share_weighted(remaining, w, total))
            .collect();
        for &share in &shares {
            assert!(share >= 0, "seed {seed}");
            assert!(share <= remaining.max(0), "seed {seed}");
        }
        assert!(
            shares.iter().sum::<i64>() <= remaining.max(0),
            "seed {seed}"
        );
        if total > 0 {
            assert_eq!(
                partition_share_weighted(remaining, total, total),
                remaining.max(0),
                "seed {seed}"
            );
        }
    }
}

/// Topology splits partition the node set: every node is in exactly
/// one partition; reachability is reflexive and symmetric; healing
/// restores a single partition.
#[test]
fn topology_split_partitions_the_nodes() {
    for seed in 0..CASES {
        let mut rng = ChaosRng::new(seed);
        let n = between(&mut rng, 2, 8) as u32;
        let seed_groups = vec_of(&mut rng, 0, 4, |r| vec_of(r, 0, 4, |r| r.below(8) as u32));
        let mut topo = Topology::fully_connected(n);
        // Deduplicate node indices across groups, dropping out-of-range.
        let mut seen = BTreeSet::new();
        let groups: Vec<Vec<u32>> = seed_groups
            .into_iter()
            .map(|g| g.into_iter().filter(|&x| x < n && seen.insert(x)).collect())
            .collect();
        let refs: Vec<&[u32]> = groups.iter().map(Vec::as_slice).collect();
        topo.split(&refs);
        let total: usize = topo.partitions().iter().map(BTreeSet::len).sum();
        assert_eq!(total, n as usize, "seed {seed}");
        for a in topo.nodes() {
            assert!(topo.reachable(a, a), "seed {seed}");
            for b in topo.nodes() {
                assert_eq!(topo.reachable(a, b), topo.reachable(b, a), "seed {seed}");
            }
        }
        topo.heal();
        assert!(topo.is_healthy(), "seed {seed}");
    }
}

/// The expression parser never panics on arbitrary input, and
/// parseable expressions evaluate deterministically.
#[test]
fn expr_parser_total_and_eval_deterministic() {
    for seed in 0..CASES {
        let mut rng = ChaosRng::new(seed);
        let input = string_of(
            &mut rng,
            b"abcdefghijklmnopqrstuvwxyz0123456789 ()+*<=.\"-",
            0,
            40,
        );
        let parsed = ExprConstraint::parse(&input);
        if parsed.is_ok() {
            let id = ObjectId::new("X", "1");
            let mut w1 = MapAccess::new();
            w1.put_field(&id, "a", Value::Int(1));
            let mut w2 = w1.clone();
            let mut c1 = ValidationContext::for_invariant(id.clone(), &mut w1);
            let mut c2 = ValidationContext::for_invariant(id, &mut w2);
            let r1 = expr::eval_str(&input, &mut c1);
            let r2 = expr::eval_str(&input, &mut c2);
            assert_eq!(r1, r2, "seed {seed}: {input:?}");
        }
    }
}

/// Arithmetic in the expression language matches Rust semantics
/// for integers.
#[test]
fn expr_integer_arithmetic_matches_rust() {
    for seed in 0..CASES {
        let mut rng = ChaosRng::new(seed);
        let a = rng.below(2000) as i64 - 1000;
        let b = between(&mut rng, 1, 1000) as i64;
        let id = ObjectId::new("X", "1");
        let mut w = MapAccess::new();
        let mut ctx = ValidationContext::for_invariant(id, &mut w);
        let sum = expr::eval_str(&format!("{a} + {b}"), &mut ctx).unwrap();
        assert_eq!(sum, Value::Int(a + b), "seed {seed}");
        let div = expr::eval_str(&format!("{a} / {b}"), &mut ctx).unwrap();
        assert_eq!(div, Value::Int(a / b), "seed {seed}");
        let cmp = expr::eval_str(&format!("{a} < {b}"), &mut ctx).unwrap();
        assert_eq!(cmp, Value::Bool(a < b), "seed {seed}");
    }
}

mod expr_roundtrip {
    use super::*;
    use dedisys_constraints::expr::{parse, BinOp, Expr, UnaryOp};

    const LOWER: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
    const UPPER: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZ";
    const OPS: [BinOp; 11] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::And,
        BinOp::Or,
        BinOp::Implies,
    ];

    fn ident(rng: &mut ChaosRng) -> String {
        string_of(rng, LOWER, 1, 6)
    }

    /// A parser-reachable leaf (non-negative numeric literals,
    /// identifier-shaped names).
    fn leaf(rng: &mut ChaosRng) -> Expr {
        match rng.below(12) {
            0 => Expr::Literal(Value::Int(rng.below(1000) as i64)),
            1 => Expr::Literal(Value::Float(rng.below(1000) as f64 + 0.5)),
            2 => Expr::Literal(Value::Str(ident(rng))),
            3 => Expr::Literal(Value::Bool(true)),
            4 => Expr::Literal(Value::Bool(false)),
            5 => Expr::Literal(Value::Null),
            6 => Expr::SelfRef,
            7 => Expr::MethodResult,
            8 => Expr::Arg(rng.below(4) as usize),
            9 => Expr::Env(ident(rng)),
            10 => Expr::Pre(ident(rng)),
            _ => Expr::Count((string_of(rng, UPPER, 1, 1) + &ident(rng)).into()),
        }
    }

    /// A parser-reachable AST at most `depth` operators deep.
    fn expr_of(rng: &mut ChaosRng, depth: u32) -> Expr {
        if depth == 0 || rng.chance(30) {
            return leaf(rng);
        }
        let inner = |rng: &mut ChaosRng| Box::new(expr_of(rng, depth - 1));
        match rng.below(4) {
            0 => Expr::Binary(*rng.pick(&OPS), inner(rng), inner(rng)),
            1 => Expr::Unary(UnaryOp::Not, inner(rng)),
            2 => Expr::Size(inner(rng)),
            _ => Expr::Field(inner(rng), ident(rng)),
        }
    }

    /// Pretty-printing and re-parsing reproduces the same AST.
    #[test]
    fn print_parse_roundtrip() {
        for seed in 0..CASES {
            let e = expr_of(&mut ChaosRng::new(seed), 4);
            let printed = e.to_string();
            let reparsed = parse(&printed).unwrap_or_else(|err| {
                panic!("seed {seed}: printed '{printed}' failed to parse: {err}")
            });
            assert_eq!(reparsed, e, "seed {seed}: '{printed}'");
        }
    }
}

mod reconciliation_accounting {
    use super::*;
    use dedisys_constraints::{
        expr::ExprConstraint, ConstraintMeta, ContextPreparation, RegisteredConstraint,
    };
    use dedisys_core::ConstraintChange::{Add, Remove};
    use dedisys_core::{ClusterBuilder, ConstraintReconcileReport, DeferAll, ReplicaConflict};
    use dedisys_object::{AppDescriptor, ClassDescriptor, EntityState};
    use dedisys_types::{ConstraintName, SimTime};
    use std::sync::Arc;

    fn app() -> AppDescriptor {
        AppDescriptor::new("inv").with_class(
            ClassDescriptor::new("Counter")
                .with_field("n", Value::Int(0))
                .with_field("max", Value::Int(100)),
        )
    }

    fn constraint() -> RegisteredConstraint {
        RegisteredConstraint::new(
            ConstraintMeta::new("Bounded").tradeable(SatisfactionDegree::PossiblySatisfied),
            Arc::new(ExprConstraint::parse("self.n <= self.max").unwrap()),
        )
        .context_class("Counter")
        .affects("Counter", "setN", ContextPreparation::CalledObject)
    }

    /// The §4.4 accounting identities every reconciliation run must
    /// satisfy, full or partial: every stored identity is re-evaluated
    /// (Figure 4.6), and each re-evaluation has one outcome.
    fn check_counters(seed: u64, c: &ConstraintReconcileReport, identities_before: usize) {
        assert_eq!(
            c.violations,
            c.resolved_by_rollback + c.resolved_by_handler + c.deferred,
            "seed {seed}: violations must balance: {c:?}"
        );
        assert_eq!(
            c.re_evaluated, identities_before,
            "seed {seed}: every identity is re-evaluated: {c:?}"
        );
        assert_eq!(
            c.re_evaluated,
            c.satisfied_removed + c.violations + c.postponed + c.dropped,
            "seed {seed}: re-evaluations partition into outcomes: {c:?}"
        );
    }

    /// Across 48 seeded partition/write/heal schedules, full and
    /// partial merges alike, the counter identities of
    /// [`ConstraintReconcileReport`] always balance (the
    /// handler-retry accounting bug made `violations` exceed the
    /// sum of its resolutions). A round may also delete the object it
    /// wrote or remove the constraint at runtime, so moot threats are
    /// dropped too.
    #[test]
    fn reconciliation_counters_balance() {
        let bounded = ConstraintName::from("Bounded");
        for seed in 0..48 {
            let mut rng = ChaosRng::new(seed);
            // `(writer, object, value, full heal, then)` per round;
            // `then` 0 deletes the object, 1 removes the constraint.
            let schedule = vec_of(&mut rng, 1, 8, |r| {
                (
                    r.below(3) as u32,
                    r.below(4) as usize,
                    r.below(80) as i64,
                    r.chance(50),
                    r.below(8),
                )
            });
            let mut cluster = ClusterBuilder::new(3, app())
                .constraint(constraint())
                .build()
                .unwrap();
            let objects: Vec<ObjectId> = (0..4)
                .map(|i| ObjectId::new("Counter", format!("c{i}")))
                .collect();
            for id in &objects {
                let e = id.clone();
                cluster
                    .run_tx(NodeId(0), move |c, tx| {
                        c.create(NodeId(0), tx, EntityState::for_class(c.app(), &e)?)
                    })
                    .unwrap();
            }
            // Divergent replicas merge additively (sum of the copies),
            // so individually accepted degraded writes can combine
            // into actual violations at reconciliation time (§1.3).
            let mut merge = |conflict: &ReplicaConflict| {
                let total: i64 = conflict
                    .candidates
                    .iter()
                    .filter_map(|(_, s)| s.as_ref())
                    .filter_map(|s| s.field("n").as_int())
                    .sum();
                let mut merged = conflict
                    .candidates
                    .iter()
                    .find_map(|(_, s)| s.clone())
                    .expect("live candidate");
                merged.set_field("n", Value::Int(total), SimTime::ZERO);
                Some(merged)
            };
            for (writer, obj, value, full_heal, then) in schedule {
                cluster
                    .partition(&[nodes![0], nodes![1], nodes![2]])
                    .unwrap();
                let node = NodeId(writer);
                let id = &objects[obj];
                // Degraded writes may abort (e.g. negotiation refuses);
                // the accounting must hold either way.
                let _ = cluster.run_tx(node, |c, tx| {
                    c.set_field(node, tx, id, "n", Value::Int(value))
                });
                match then {
                    0 => {
                        let _ = cluster.run_tx(node, |c, tx| c.delete(node, tx, id));
                    }
                    1 => {
                        let _ = cluster.change_constraint(Remove(bounded.clone()));
                    }
                    _ => {}
                }
                let identities_before = cluster.threats().identities().len();
                let summary = if full_heal {
                    cluster.heal();
                    cluster.reconcile(&mut merge, &mut DeferAll)
                } else {
                    // Partial re-unification: {0,1} merge, {2} away.
                    cluster.partition(&[nodes![0, 1], nodes![2]]).unwrap();
                    cluster.reconcile_partial(NodeId(0), &mut merge, &mut DeferAll)
                };
                promise::assert_kept(&cluster);
                check_counters(seed, &summary.constraints, identities_before);
                // Healthy again: a removed constraint comes back when
                // its check finds no violator.
                if full_heal && cluster.repository().get(&bounded).is_none() {
                    let _ = cluster.change_constraint(Add(constraint(), None));
                }
            }
            // Drain: a full heal re-evaluates whatever is left.
            cluster.heal();
            let identities_before = cluster.threats().identities().len();
            let summary = cluster.reconcile(&mut merge, &mut DeferAll);
            promise::assert_kept(&cluster);
            check_counters(seed, &summary.constraints, identities_before);
        }
    }
}

#[test]
fn degree_lattice_is_total_order() {
    for (i, a) in SatisfactionDegree::ALL.iter().enumerate() {
        for (j, b) in SatisfactionDegree::ALL.iter().enumerate() {
            assert_eq!(a < b, i < j);
        }
    }
}
