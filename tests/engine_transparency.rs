//! Verdict transparency of the constraint engines and the verdict
//! cache: across `{Interpreted, Compiled} × {cache on, off}`, every
//! observable *verdict* — satisfaction degrees, threat identities,
//! accepted/aborted operations, the cluster/CCM/replication/transaction
//! counters, the final state of every replica — is identical. Only
//! virtual time (checks get cheaper) and the cache's own telemetry may
//! differ, which is exactly what the fingerprint below excludes.

use dedisys_constraints::{
    expr::ExprConstraint, Constraint, ConstraintKind, ConstraintMeta, ContextPreparation,
    RegisteredConstraint, ValidationContext,
};
use dedisys_core::{nodes, ClusterBuilder, ConstraintEngine, DeferAll, HighestVersionWins};
use dedisys_object::{AppDescriptor, ClassDescriptor, EntityState};
use dedisys_types::{ChaosRng, ConstraintName, NodeId, ObjectId, SatisfactionDegree, Value};
use std::sync::Arc;

#[path = "../crates/core/tests/promise/mod.rs"]
mod promise;

fn app() -> AppDescriptor {
    AppDescriptor::new("engines").with_class(
        ClassDescriptor::new("Counter")
            .with_field("n", Value::Int(0))
            .with_field("max", Value::Int(100))
            .with_field("peer", Value::Null),
    )
}

/// Twelve copies of the bounded constraint: every write validates a
/// batch of twelve, every constraint sweep re-checks all objects
/// (the verdict cache's bread-and-butter), and tradeability makes
/// degraded runs produce threats and negotiation traffic too.
fn constraints() -> Vec<RegisteredConstraint> {
    (0..12)
        .map(|i| {
            RegisteredConstraint::new(
                ConstraintMeta::new(format!("Bounded-{i:02}"))
                    .tradeable(SatisfactionDegree::PossiblySatisfied),
                Arc::new(ExprConstraint::parse("self.n <= self.max").unwrap()),
            )
            .context_class("Counter")
            .affects("Counter", "setN", ContextPreparation::CalledObject)
        })
        .collect()
}

/// An expression postcondition that snapshots `n` before the call.
struct Delta(ExprConstraint);

impl Constraint for Delta {
    fn validate(&self, ctx: &mut ValidationContext<'_>) -> dedisys_types::Result<bool> {
        self.0.validate(ctx)
    }

    fn validate_with(
        &self,
        engine: ConstraintEngine,
        ctx: &mut ValidationContext<'_>,
    ) -> dedisys_types::Result<bool> {
        self.0.validate_with(engine, ctx)
    }

    fn before_method_invocation(&self, ctx: &mut ValidationContext<'_>) {
        if let Ok(n) = ctx.self_field("n") {
            ctx.store_pre("n", n);
        }
    }
}

/// The shapes the engines resolve differently from a plain `self.f`:
/// navigation past the context object (`self.a.b`, whose first hop is
/// the fused self-field read and whose second goes through a
/// materialised reference), a method argument and an `@pre` snapshot.
/// Only the schedules use them; the cache test below counts probes of
/// the twelve `Bounded-*` constraints alone.
fn call_and_navigation_constraints() -> Vec<RegisteredConstraint> {
    let on_set_n = |meta: ConstraintMeta, implementation: Arc<dyn Constraint>| {
        RegisteredConstraint::new(
            meta.tradeable(SatisfactionDegree::PossiblySatisfied),
            implementation,
        )
        .context_class("Counter")
        .affects("Counter", "setN", ContextPreparation::CalledObject)
    };
    let expr = |source: &str| ExprConstraint::parse(source).unwrap();
    vec![
        on_set_n(
            ConstraintMeta::new("PeerBounded"),
            Arc::new(expr("self.peer.n <= self.peer.max")),
        ),
        on_set_n(
            ConstraintMeta::new("ArgInRange").kind(ConstraintKind::Precondition),
            Arc::new(expr("arg(0) >= 0 and arg(0) < 180")),
        ),
        on_set_n(
            ConstraintMeta::new("StepBound").kind(ConstraintKind::Postcondition),
            Arc::new(Delta(expr("self.n - pre(\"n\") <= 90"))),
        ),
    ]
}

/// One step of a workload schedule: `(action, node, object, value)`.
type Step = (u8, u32, usize, i64);

/// The schedule of `seed`: 1–23 steps of writes, partitions, heals,
/// reconciliations and constraint sweeps.
fn schedule(seed: u64) -> Vec<Step> {
    let mut rng = ChaosRng::new(seed);
    (0..1 + rng.below(23))
        .map(|_| {
            (
                rng.below(256) as u8,
                rng.below(3) as u32,
                rng.below(12) as usize,
                rng.below(200) as i64,
            )
        })
        .collect()
}

/// Everything a run may legitimately *not* vary across engine/cache
/// configurations: mode + cluster/CCM/replication/tx counters (virtual
/// time, the telemetry registry and the event count are excluded — the
/// cache's probe charges and hit/miss events differ by design), the
/// stored threat identities, and the violating-object lists returned
/// by every constraint sweep, and the committed state of every object
/// on every node (which write was refused decides it).
fn fingerprint(
    cluster: &dedisys_core::Cluster,
    sweeps: &[(String, Vec<ObjectId>)],
    objects: &[ObjectId],
) -> String {
    let stats = cluster.stats();
    let verdicts = (
        stats.mode,
        stats.cluster,
        stats.ccm,
        stats.replication,
        stats.tx,
    );
    let states: Vec<_> = objects
        .iter()
        .flat_map(|id| (0..3).map(move |n| (id, n)))
        .map(|(id, n)| {
            cluster
                .entity_on(NodeId(n), id)
                .map(|e| e.field("n").clone())
        })
        .collect();
    format!(
        "{verdicts:?}\nthreats: {:?}\nsweeps: {sweeps:?}\nstates: {states:?}",
        cluster.threats().identities()
    )
}

/// Runs `schedule` on a fresh cluster under the given configuration;
/// returns the verdict fingerprint.
fn run_schedule(engine: ConstraintEngine, cache: bool, schedule: &[Step]) -> String {
    let mut cluster = ClusterBuilder::new(3, app())
        .constraints(constraints())
        .constraints(call_and_navigation_constraints())
        .configure(|c| {
            c.validation.engine = engine;
            c.validation.verdict_cache = cache;
        })
        .build()
        .unwrap();
    let objects: Vec<ObjectId> = (0..4)
        .map(|i| ObjectId::new("Counter", format!("c{i}")))
        .collect();
    for (i, id) in objects.iter().enumerate() {
        // Every counter's peer is the next one, round the ring.
        let peer = objects[(i + 1) % objects.len()].clone();
        cluster
            .run_tx(NodeId(0), |c, tx| {
                let mut entity = EntityState::for_class(c.app(), id)?;
                entity.set_field("peer", Value::Ref(peer), c.now());
                c.create(NodeId(0), tx, entity)
            })
            .unwrap();
    }
    let mut sweeps: Vec<(String, Vec<ObjectId>)> = Vec::new();
    for &(action, node_raw, obj, value) in schedule {
        match action % 8 {
            0 => {
                let _ = cluster.partition(&[nodes![0], nodes![1], nodes![2]]);
            }
            1 => {
                cluster.heal();
                cluster.reconcile(&mut HighestVersionWins, &mut DeferAll);
                promise::assert_kept(&cluster);
            }
            2 => {
                // A §3.3 constraint sweep: disable + re-enable with the
                // mandated full re-check over every context object.
                // Repeated sweeps over unchanged objects are where the
                // verdict cache answers from memo — the violating list
                // must nevertheless be identical.
                let name = ConstraintName::from(format!("Bounded-{:02}", obj % 12));
                let _ = cluster.set_constraint_enabled(&name, false);
                if let Ok(violating) = cluster.set_constraint_enabled(&name, true) {
                    sweeps.push((name.to_string(), violating));
                }
            }
            _ => {
                let node = NodeId(node_raw % 3);
                let id = objects[obj % objects.len()].clone();
                // Degraded or over-limit writes may abort; transparency
                // covers failures too.
                let _ = cluster.run_tx(node, move |c, tx| {
                    c.set_field(node, tx, &id, "n", Value::Int(value))
                });
            }
        }
    }
    cluster.heal();
    cluster.reconcile(&mut HighestVersionWins, &mut DeferAll);
    promise::assert_kept(&cluster);
    fingerprint(&cluster, &sweeps, &objects)
}

/// Every engine/cache configuration yields the same verdict
/// fingerprint as the interpreted, uncached baseline over 48 seeded
/// schedules.
#[test]
fn engines_and_cache_are_verdict_transparent() {
    for seed in 0..48 {
        let steps = schedule(seed);
        let baseline = run_schedule(ConstraintEngine::Interpreted, false, &steps);
        for (engine, cache) in [
            (ConstraintEngine::Interpreted, true),
            (ConstraintEngine::Compiled, false),
            (ConstraintEngine::Compiled, true),
        ] {
            assert_eq!(
                baseline,
                run_schedule(engine, cache, &steps),
                "seed {seed}: verdicts diverged under {engine:?} cache={cache}"
            );
        }
    }
}

/// Repeated sweeps over unchanged objects actually hit the cache, a
/// write invalidates exactly the touched object, and the cached run
/// spends less virtual time than the uncached one on the same
/// workload.
#[test]
fn verdict_cache_hits_invalidation_and_speedup() {
    let build = |cache: bool| {
        let mut cluster = ClusterBuilder::new(3, app())
            .constraints(constraints())
            .configure(|c| {
                c.validation.engine = ConstraintEngine::Compiled;
                c.validation.verdict_cache = cache;
            })
            .build()
            .unwrap();
        for i in 0..4 {
            let id = ObjectId::new("Counter", format!("c{i}"));
            cluster
                .run_tx(NodeId(0), move |c, tx| {
                    c.create(NodeId(0), tx, EntityState::for_class(c.app(), &id)?)
                })
                .unwrap();
        }
        cluster
    };
    let sweep = |cluster: &mut dedisys_core::Cluster| {
        for i in 0..12 {
            let name = ConstraintName::from(format!("Bounded-{i:02}"));
            cluster.set_constraint_enabled(&name, false).unwrap();
            cluster.set_constraint_enabled(&name, true).unwrap();
        }
    };

    let mut cached = build(true);
    sweep(&mut cached); // cold: 12 constraints × 4 objects miss + fill
    let after_cold = cached.stats();
    let misses = after_cold.telemetry.counters["ccm.verdict_cache.miss"];
    assert_eq!(
        misses, 48,
        "cold sweep misses once per (constraint, object)"
    );
    assert!(cached.verdict_cache_len() > 0);
    sweep(&mut cached); // warm: answered from memo
    let after_warm = cached.stats();
    assert_eq!(
        after_warm.telemetry.counters["ccm.verdict_cache.hit"], 48,
        "warm sweep hits once per (constraint, object)"
    );
    assert_eq!(
        after_warm.telemetry.counters["ccm.verdict_cache.miss"], misses,
        "warm sweep adds no misses"
    );

    // A committed write invalidates the touched object's entries only.
    let id = ObjectId::new("Counter", "c0");
    let before = cached.verdict_cache_len();
    cached
        .run_tx(NodeId(0), {
            let id = id.clone();
            move |c, tx| c.set_field(NodeId(0), tx, &id, "n", Value::Int(5))
        })
        .unwrap();
    let after = cached.verdict_cache_len();
    assert!(after < before, "write invalidates the object's entries");
    assert!(after > 0, "other objects' entries survive");

    // Same workload without the cache: more virtual time, same verdicts.
    let mut uncached = build(false);
    sweep(&mut uncached);
    sweep(&mut uncached);
    assert_eq!(after_warm.ccm.validations, uncached.stats().ccm.validations);
    assert!(
        after_warm.now_ns < uncached.stats().now_ns,
        "cached sweeps must be cheaper in virtual time"
    );
}
