//! Property-based tests over the core data structures and invariants.

use dedisys_constraints::expr::{self, ExprConstraint};
use dedisys_constraints::{MapAccess, ValidationContext};
use dedisys_core::nodes;
use dedisys_core::partition_sensitive::partition_share_weighted;
use dedisys_gms::NodeWeights;
use dedisys_net::Topology;
use dedisys_types::{NodeId, ObjectId, SatisfactionDegree, Value};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn degree_strategy() -> impl Strategy<Value = SatisfactionDegree> {
    prop::sample::select(SatisfactionDegree::ALL.to_vec())
}

proptest! {
    /// §3.1: combining a set of validation results equals the meet of
    /// the satisfaction-degree lattice — order-independent and
    /// associative.
    #[test]
    fn degree_combination_is_the_lattice_meet(
        mut degrees in prop::collection::vec(degree_strategy(), 1..8)
    ) {
        let combined = SatisfactionDegree::combine(degrees.clone());
        prop_assert_eq!(combined, *degrees.iter().min().unwrap());
        // Order independence.
        degrees.reverse();
        prop_assert_eq!(SatisfactionDegree::combine(degrees.clone()), combined);
        // Adding a satisfied constraint never changes the outcome.
        degrees.push(SatisfactionDegree::Satisfied);
        prop_assert_eq!(SatisfactionDegree::combine(degrees), combined);
    }

    /// Staleness degradation turns exactly the definite results into
    /// threats (Satisfied → PossiblySatisfied, Violated →
    /// PossiblyViolated) and is idempotent.
    #[test]
    fn staleness_degradation_properties(d in degree_strategy()) {
        let degraded = d.degrade_for_staleness();
        if d.is_threat() {
            prop_assert_eq!(degraded, d);
        } else {
            prop_assert!(degraded.is_threat());
        }
        // Idempotent: a second degradation changes nothing.
        prop_assert_eq!(degraded.degrade_for_staleness(), degraded);
        // Degradation never reaches Uncheckable — that only stems from
        // unreachable objects (NCC), not staleness (LCC).
        prop_assert!(d == SatisfactionDegree::Uncheckable || degraded != SatisfactionDegree::Uncheckable);
    }

    /// Weight apportioning always conserves the total (t = Σ tₓ) and
    /// never hands a partition more than everything.
    #[test]
    fn apportion_conserves_total(
        amount in 0u64..10_000,
        split_at in 1u32..4,
        weights in prop::collection::vec(1u32..5, 4)
    ) {
        let w = NodeWeights::explicit(weights);
        let left: BTreeSet<NodeId> = (0..split_at).map(NodeId).collect();
        let right: BTreeSet<NodeId> = (split_at..4).map(NodeId).collect();
        let shares = w.apportion(amount, &[left, right]);
        prop_assert_eq!(shares.iter().sum::<u64>(), amount);
        prop_assert!(shares.iter().all(|&s| s <= amount));
    }

    /// Integer-rational shares (§5.5.2 bugfix): over *any* disjoint
    /// weighting of the cluster the shares never sum above the
    /// remainder, each share is within bounds, and the undivided
    /// cluster receives exactly the remainder — properties the float
    /// path cannot guarantee under unlucky rounding.
    #[test]
    fn weighted_partition_shares_are_conservative(
        remaining in 0i64..1_000_000,
        weights in prop::collection::vec(0u32..1_000, 1..6),
    ) {
        let total: u32 = weights.iter().sum();
        let shares: Vec<i64> = weights
            .iter()
            .map(|&w| partition_share_weighted(remaining, w, total))
            .collect();
        for &share in &shares {
            prop_assert!(share >= 0);
            prop_assert!(share <= remaining.max(0));
        }
        prop_assert!(shares.iter().sum::<i64>() <= remaining.max(0));
        if total > 0 {
            prop_assert_eq!(
                partition_share_weighted(remaining, total, total),
                remaining.max(0)
            );
        }
    }

    /// Topology splits partition the node set: every node is in exactly
    /// one partition; reachability is reflexive and symmetric; healing
    /// restores a single partition.
    #[test]
    fn topology_split_partitions_the_nodes(
        n in 2u32..8,
        seed_groups in prop::collection::vec(prop::collection::vec(0u32..8, 0..4), 0..4)
    ) {
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
        prop_assert_eq!(total, n as usize);
        for a in topo.nodes() {
            prop_assert!(topo.reachable(a, a));
            for b in topo.nodes() {
                prop_assert_eq!(topo.reachable(a, b), topo.reachable(b, a));
            }
        }
        topo.heal();
        prop_assert!(topo.is_healthy());
    }

    /// The expression parser never panics on arbitrary input, and
    /// parseable expressions evaluate deterministically.
    #[test]
    fn expr_parser_total_and_eval_deterministic(input in "[a-z0-9 ()+*<=.\"-]{0,40}") {
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
            prop_assert_eq!(r1, r2);
        }
    }

    /// Arithmetic in the expression language matches Rust semantics
    /// for integers.
    #[test]
    fn expr_integer_arithmetic_matches_rust(a in -1000i64..1000, b in 1i64..1000) {
        let id = ObjectId::new("X", "1");
        let mut w = MapAccess::new();
        let mut ctx = ValidationContext::for_invariant(id, &mut w);
        let sum = expr::eval_str(&format!("{a} + {b}"), &mut ctx).unwrap();
        prop_assert_eq!(sum, Value::Int(a + b));
        let div = expr::eval_str(&format!("{a} / {b}"), &mut ctx).unwrap();
        prop_assert_eq!(div, Value::Int(a / b));
        let cmp = expr::eval_str(&format!("{a} < {b}"), &mut ctx).unwrap();
        prop_assert_eq!(cmp, Value::Bool(a < b));
    }
}

mod expr_roundtrip {
    use super::*;
    use dedisys_constraints::expr::{parse, BinOp, Expr, UnaryOp};

    /// Strategy producing parser-reachable ASTs (non-negative numeric
    /// literals, identifier-shaped field names).
    fn expr_strategy() -> impl Strategy<Value = Expr> {
        let leaf = prop_oneof![
            (0i64..1000).prop_map(|n| Expr::Literal(Value::Int(n))),
            (0u32..1000).prop_map(|n| Expr::Literal(Value::Float(f64::from(n) + 0.5))),
            "[a-z]{1,6}".prop_map(|s| Expr::Literal(Value::Str(s))),
            Just(Expr::Literal(Value::Bool(true))),
            Just(Expr::Literal(Value::Bool(false))),
            Just(Expr::Literal(Value::Null)),
            Just(Expr::SelfRef),
            Just(Expr::MethodResult),
            (0usize..4).prop_map(Expr::Arg),
            "[a-z]{1,6}".prop_map(Expr::Env),
            "[a-z]{1,6}".prop_map(Expr::Pre),
            "[A-Z][a-z]{1,6}".prop_map(|c| Expr::Count(c.into())),
        ];
        leaf.prop_recursive(4, 32, 3, |inner| {
            let op = prop::sample::select(vec![
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
            ]);
            prop_oneof![
                (op, inner.clone(), inner.clone()).prop_map(|(op, l, r)| Expr::Binary(
                    op,
                    Box::new(l),
                    Box::new(r)
                )),
                inner
                    .clone()
                    .prop_map(|e| Expr::Unary(UnaryOp::Not, Box::new(e))),
                inner.clone().prop_map(|e| Expr::Size(Box::new(e))),
                (inner, "[a-z]{1,6}").prop_map(|(e, f)| Expr::Field(Box::new(e), f)),
            ]
        })
    }

    proptest! {
        /// Pretty-printing and re-parsing reproduces the same AST.
        #[test]
        fn print_parse_roundtrip(e in expr_strategy()) {
            let printed = e.to_string();
            let reparsed = parse(&printed)
                .unwrap_or_else(|err| panic!("printed '{printed}' failed to parse: {err}"));
            prop_assert_eq!(reparsed, e);
        }
    }
}

mod reconciliation_accounting {
    use super::*;
    use dedisys_constraints::{
        expr::ExprConstraint, ConstraintMeta, ContextPreparation, RegisteredConstraint,
    };
    use dedisys_core::{
        ClusterBuilder, ConstraintReconcileReport, DeferAll, ReconcileStrategy, ReplicaConflict,
    };
    use dedisys_object::{AppDescriptor, ClassDescriptor, EntityState};
    use dedisys_types::SimTime;
    use proptest::test_runner::TestCaseError;
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
    /// satisfy, regardless of schedule or strategy.
    fn check_counters(
        c: &ConstraintReconcileReport,
        identities_before: usize,
        incremental: bool,
    ) -> Result<(), TestCaseError> {
        prop_assert_eq!(
            c.violations,
            c.resolved_by_rollback + c.resolved_by_handler + c.deferred,
            "violations must balance: {:?}",
            c
        );
        prop_assert_eq!(
            c.re_evaluated + c.skipped,
            identities_before,
            "every identity is re-evaluated or skipped: {:?}",
            c
        );
        prop_assert!(c.postponed >= c.skipped, "skipped ⊆ postponed: {c:?}");
        prop_assert_eq!(
            c.re_evaluated,
            c.satisfied_removed + c.violations + (c.postponed - c.skipped),
            "re-evaluations partition into outcomes: {:?}",
            c
        );
        if !incremental {
            prop_assert_eq!(c.skipped, 0, "full scan never skips");
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Across random partition/write/heal schedules — under both
        /// reconciliation strategies — the counter identities of
        /// [`ConstraintReconcileReport`] always balance (the
        /// handler-retry accounting bug made `violations` exceed the
        /// sum of its resolutions).
        #[test]
        fn reconciliation_counters_balance(
            incremental in any::<bool>(),
            schedule in prop::collection::vec(
                (0u32..3, 0usize..4, 0i64..80, any::<bool>()),
                1..8,
            ),
        ) {
            let strategy = if incremental {
                ReconcileStrategy::Incremental
            } else {
                ReconcileStrategy::FullScan
            };
            let mut cluster = ClusterBuilder::new(3, app())
                .constraint(constraint())
                .configure(|c| c.durability.reconcile_strategy = strategy)
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
            for (writer, obj, value, full_heal) in schedule {
                cluster.partition(&[nodes![0], nodes![1], nodes![2]]).unwrap();
                let node = NodeId(writer);
                let id = objects[obj].clone();
                // Degraded writes may abort (e.g. negotiation refuses);
                // the accounting must hold either way.
                let _ = cluster.run_tx(node, move |c, tx| {
                    c.set_field(node, tx, &id, "n", Value::Int(value))
                });
                let identities_before = cluster.threats().identities().len();
                let summary = if full_heal {
                    cluster.heal();
                    cluster.reconcile(&mut merge, &mut DeferAll)
                } else {
                    // Partial re-unification: {0,1} merge, {2} away.
                    cluster.partition(&[nodes![0, 1], nodes![2]]).unwrap();
                    cluster.reconcile_partial(NodeId(0), &mut merge, &mut DeferAll)
                };
                check_counters(&summary.constraints, identities_before, incremental)?;
            }
            // Drain: after a full heal the two strategies converge —
            // nothing is skipped because everything is checkable.
            cluster.heal();
            let identities_before = cluster.threats().identities().len();
            let summary = cluster.reconcile(&mut merge, &mut DeferAll);
            check_counters(&summary.constraints, identities_before, incremental)?;
            prop_assert_eq!(summary.constraints.skipped, 0);
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
