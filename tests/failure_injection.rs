//! Failure-injection integration tests: node crashes, cascading
//! partitions, rollback-based reconciliation, threat-history policies
//! and crash recovery of the persistence substrate.

use dedisys_constraints::{
    expr::ExprConstraint, ConstraintMeta, ContextPreparation, RegisteredConstraint,
    ValidationContext,
};
use dedisys_core::nodes;
use dedisys_core::{
    ClusterBuilder, DeferAll, DetectorKind, HighestVersionWins, HistoryPolicy,
    ReconcileInstructions, RingRecorder, TraceEvent,
};
use dedisys_net::SimClock;
use dedisys_object::{AppDescriptor, ClassDescriptor, EntityState};
use dedisys_store::{Persistence, StoreCosts};
use dedisys_types::{Error, NodeId, ObjectId, SatisfactionDegree, SimDuration, SystemMode, Value};
use std::sync::Arc;

#[path = "../crates/core/tests/promise/mod.rs"]
mod promise;

fn app() -> AppDescriptor {
    AppDescriptor::new("inv").with_class(
        ClassDescriptor::new("Counter")
            .with_field("n", Value::Int(0))
            .with_field("max", Value::Int(100)),
    )
}

fn bounded_constraint() -> RegisteredConstraint {
    RegisteredConstraint::new(
        ConstraintMeta::new("Bounded").tradeable(SatisfactionDegree::PossiblySatisfied),
        Arc::new(ExprConstraint::parse("self.n <= self.max").unwrap()),
    )
    .context_class("Counter")
    .affects("Counter", "setN", ContextPreparation::CalledObject)
}

fn seed(cluster: &mut dedisys_core::Cluster) -> ObjectId {
    let id = ObjectId::new("Counter", "c1");
    let node = NodeId(0);
    let e = id.clone();
    cluster
        .run_tx(node, move |c, tx| {
            c.create(node, tx, EntityState::for_class(c.app(), &e)?)
        })
        .unwrap();
    id
}

/// Splits a two-node cluster, raises `n` to 75 on each side (fine on
/// its own: 75 ≤ 100) and heals — what [`additive`] then overflows.
fn diverge(cluster: &mut dedisys_core::Cluster, id: &ObjectId) {
    cluster.partition(&[nodes![0], nodes![1]]).unwrap();
    for node in [NodeId(0), NodeId(1)] {
        cluster
            .run_tx(node, |c, tx| c.set_field(node, tx, id, "n", Value::Int(75)))
            .unwrap();
    }
    cluster.heal();
}

/// A replica-consistency handler merging the two sides of [`diverge`]
/// additively: 110 > 100, so the merged state violates the bound.
fn additive(conflict: &dedisys_core::ReplicaConflict) -> Option<EntityState> {
    let mut merged = conflict.candidates[0].1.clone().unwrap();
    merged.set_field("n", Value::Int(110), dedisys_types::SimTime::ZERO);
    Some(merged)
}

#[test]
fn node_crash_is_a_singleton_partition_and_recovery_reconciles() {
    let mut cluster = ClusterBuilder::new(3, app())
        .constraint(bounded_constraint())
        .build()
        .unwrap();
    let id = seed(&mut cluster);
    // Node 2 crashes (pause-crash): the survivors keep operating.
    cluster.partition(&[nodes![0, 1], nodes![2]]).unwrap();
    cluster
        .run_tx(NodeId(0), |c, tx| {
            c.set_field(NodeId(0), tx, &id, "n", Value::Int(5))
        })
        .unwrap();
    assert_eq!(
        cluster.entity_on(NodeId(2), &id).unwrap().field("n"),
        &Value::Int(0),
        "crashed node missed the update"
    );
    // Recovery: the node re-joins and is brought up to date.
    cluster.heal();
    cluster.reconcile(&mut HighestVersionWins, &mut DeferAll);
    promise::assert_kept(&cluster);
    assert_eq!(
        cluster.entity_on(NodeId(2), &id).unwrap().field("n"),
        &Value::Int(5)
    );
}

#[test]
fn cascading_partitions_merge_step_by_step() {
    let mut cluster = ClusterBuilder::new(4, app())
        .constraint(bounded_constraint())
        .build()
        .unwrap();
    let id = seed(&mut cluster);
    // First a 2/2 split, then one side splits again.
    cluster.partition(&[nodes![0, 1], nodes![2, 3]]).unwrap();
    cluster
        .run_tx(NodeId(2), |c, tx| {
            c.set_field(NodeId(2), tx, &id, "n", Value::Int(7))
        })
        .unwrap();
    cluster
        .partition(&[nodes![0], nodes![1], nodes![2, 3]])
        .unwrap();
    cluster
        .run_tx(NodeId(0), |c, tx| {
            c.set_field(NodeId(0), tx, &id, "n", Value::Int(3))
        })
        .unwrap();
    assert_eq!(cluster.topology().partitions().len(), 3);
    // Full heal and reconcile: highest version wins deterministically.
    cluster.heal();
    let summary = cluster.reconcile(&mut HighestVersionWins, &mut DeferAll);
    promise::assert_kept(&cluster);
    assert_eq!(summary.replica.conflicts.len(), 1);
    let reference = cluster
        .entity_on(NodeId(0), &id)
        .unwrap()
        .field("n")
        .clone();
    for n in 1..4 {
        assert_eq!(
            cluster.entity_on(NodeId(n), &id).unwrap().field("n"),
            &reference
        );
    }
}

#[test]
fn rollback_based_reconciliation_restores_a_consistent_state() {
    let mut cluster = ClusterBuilder::new(2, app())
        .constraint(bounded_constraint())
        .default_instructions(ReconcileInstructions {
            allow_rollback: true,
            notify_on_replica_conflict: false,
        })
        .build()
        .unwrap();
    let id = seed(&mut cluster);
    cluster
        .run_tx(NodeId(0), |c, tx| {
            c.set_field(NodeId(0), tx, &id, "n", Value::Int(40))
        })
        .unwrap();
    // Each side adds 35: individually fine (75 ≤ 100), merged by an
    // additive handler it overflows (110 > 100).
    diverge(&mut cluster, &id);
    let summary = cluster.reconcile(&mut additive, &mut DeferAll);
    promise::assert_kept(&cluster);
    assert_eq!(summary.constraints.violations, 1);
    // The rollback search found a historical degraded-mode state (75)
    // that satisfies the constraint — availability retrospectively
    // reduced, but no handler needed.
    assert_eq!(summary.constraints.resolved_by_rollback, 1);
    assert_eq!(summary.constraints.deferred, 0);
    let n = cluster
        .entity_on(NodeId(0), &id)
        .unwrap()
        .field("n")
        .as_int()
        .unwrap();
    assert!(n <= 100, "rolled back to a consistent state, got {n}");
    assert!(cluster.threats().is_empty());
}

/// The rollback search restores *which* state, not just *a* state: per
/// affected object (`a0` first — it was never written, so it has no
/// history and the search moves on), partition keys ascending, newest
/// applied first. Partition {1} cannot reach the limit `a0` holds, so
/// its three states were accepted unchecked, the last one above the
/// limit; partition {2} can, so its three are all valid. The additive
/// merge overflows; the search rejects 130 and installs 40 — the very
/// snapshot node 1 shipped — on every replica it can reach. Oldest
/// first would find 45, partition {2} first would find 70.
#[test]
fn rollback_search_restores_the_newest_satisfying_state_in_partition_order() {
    for partial in [false, true] {
        let a0 = ObjectId::new("Counter", "a0");
        let c1 = ObjectId::new("Counter", "c1");
        let (limit, counter) = (a0.clone(), c1.clone());
        let within_limit = RegisteredConstraint::new(
            ConstraintMeta::new("WithinLimit").tradeable(SatisfactionDegree::Uncheckable),
            Arc::new(move |ctx: &mut ValidationContext<'_>| {
                let n = ctx.field(&counter, "n")?.as_int().unwrap_or(0);
                let max = ctx.field(&limit, "max")?.as_int().unwrap_or(0);
                Ok(n <= max)
            }),
        )
        .context_class("Counter")
        .affects("Counter", "setN", ContextPreparation::CalledObject);
        let mut cluster = ClusterBuilder::new(3, app())
            .constraint(within_limit)
            .default_instructions(ReconcileInstructions {
                allow_rollback: true,
                notify_on_replica_conflict: false,
            })
            .build()
            .unwrap();
        // Node 0 holds neither object; the limit lives on node 2 only.
        for (id, replicas) in [(&a0, nodes![2]), (&c1, nodes![1, 2])] {
            let id = id.clone();
            cluster
                .run_tx(NodeId(2), move |c, tx| {
                    let entity = EntityState::for_class(c.app(), &id)?;
                    c.create_bound(NodeId(2), tx, entity, replicas, NodeId(2))
                })
                .unwrap();
        }
        let untouched = cluster.journal_len_on(NodeId(0));

        cluster
            .partition(&[nodes![0], nodes![1], nodes![2]])
            .unwrap();
        let mut shipped = None;
        for (node, values) in [(NodeId(1), [45, 40, 130]), (NodeId(2), [30, 50, 70])] {
            for n in values {
                cluster
                    .run_tx(node, |c, tx| c.set_field(node, tx, &c1, "n", Value::Int(n)))
                    .unwrap();
                if n == 40 {
                    shipped = Some(tail_record(&cluster, node));
                }
            }
        }
        let shipped = shipped.expect("node 1 committed 40");

        let mut additive = |conflict: &dedisys_core::ReplicaConflict| {
            let total: i64 = conflict
                .candidates
                .iter()
                .filter_map(|(_, s)| s.as_ref()?.field("n").as_int())
                .sum();
            let mut merged = conflict.candidates[0].1.clone()?;
            merged.set_field("n", Value::Int(total), dedisys_types::SimTime::ZERO);
            Some(merged)
        };
        let summary = if partial {
            cluster.partition(&[nodes![0], nodes![1, 2]]).unwrap();
            cluster.reconcile_partial(NodeId(1), &mut additive, &mut DeferAll)
        } else {
            cluster.heal();
            cluster.reconcile(&mut additive, &mut DeferAll)
        };
        promise::assert_kept(&cluster);

        assert_eq!(summary.replica.conflicts.len(), 1, "partial: {partial}");
        assert_eq!(summary.constraints.violations, 1);
        assert_eq!(summary.constraints.resolved_by_rollback, 1);
        assert_eq!(summary.constraints.deferred, 0);
        assert!(cluster.threats().is_empty());
        for node in [NodeId(1), NodeId(2)] {
            assert_eq!(
                cluster.entity_on(node, &c1).unwrap().field("n"),
                &Value::Int(40),
                "{node:?}, partial: {partial}"
            );
            assert!(
                Arc::ptr_eq(&tail_record(&cluster, node), &shipped),
                "{node:?} journals the record node 1 encoded, not a re-encoding"
            );
        }
        // The node outside the replica sets — unreachable in the partial
        // run — is left exactly as it was.
        assert!(cluster.entity_on(NodeId(0), &c1).is_none());
        assert_eq!(cluster.journal_len_on(NodeId(0)), untouched);
    }
}

/// The record of the last journal entry on `node`.
fn tail_record(cluster: &dedisys_core::Cluster, node: NodeId) -> Arc<str> {
    match &cluster.journal_on(node).entries().last().unwrap().op {
        dedisys_store::LogOp::Put { record } => Arc::clone(record),
        dedisys_store::LogOp::Delete => panic!("{node:?}: journal tail is a delete"),
    }
}

/// Regression — violation accounting when the handler exhausts its
/// retries. A handler may claim immediate success without actually
/// repairing the state; after three failed re-validations the CCMgr
/// gives up. Such violations used to vanish from every counter —
/// they must be accounted as deferred so that
/// `violations == resolved_by_rollback + resolved_by_handler + deferred`.
#[test]
fn exhausted_handler_retries_are_accounted_as_deferred() {
    let mut cluster = ClusterBuilder::new(2, app())
        .constraint(bounded_constraint())
        .build()
        .unwrap();
    let id = seed(&mut cluster);
    diverge(&mut cluster, &id);
    // The handler lies: it reports the violation as resolved but never
    // touches the state, so every re-validation still sees 110 > 100.
    let mut calls = 0usize;
    let mut lying = |_v: &dedisys_core::ViolationReport, _ops: &mut dedisys_core::ReconOps<'_>| {
        calls += 1;
        true
    };
    let summary = cluster.reconcile(&mut additive, &mut lying);
    promise::assert_kept(&cluster);
    assert_eq!(calls, 3, "bounded retries (§4.4)");
    let c = &summary.constraints;
    assert_eq!(c.violations, 1);
    assert_eq!(c.resolved_by_handler, 0);
    assert_eq!(c.resolved_by_rollback, 0);
    assert_eq!(
        c.deferred, 1,
        "exhausted retries must surface as deferred, not disappear"
    );
    assert_eq!(
        c.violations,
        c.resolved_by_rollback + c.resolved_by_handler + c.deferred
    );
    // The unresolved threat is retained for later reconciliation runs.
    assert!(!cluster.threats().is_empty());
}

#[test]
fn full_history_policy_stores_every_occurrence() {
    for (policy, expected_records) in [
        (HistoryPolicy::IdenticalOnce, 1),
        (HistoryPolicy::FullHistory, 5),
    ] {
        let mut cluster = ClusterBuilder::new(2, app())
            .constraint(bounded_constraint())
            .configure(|c| c.durability.threat_policy = policy)
            .build()
            .unwrap();
        let id = seed(&mut cluster);
        cluster.partition(&[nodes![0], nodes![1]]).unwrap();
        for i in 1..=5 {
            cluster
                .run_tx(NodeId(0), |c, tx| {
                    c.set_field(NodeId(0), tx, &id, "n", Value::Int(i))
                })
                .unwrap();
        }
        assert_eq!(cluster.threats().len(), expected_records, "{policy:?}");
        assert_eq!(cluster.threats().identities().len(), 1, "{policy:?}");
    }
}

#[test]
fn async_constraints_skip_degraded_validation() {
    let mut constraint = bounded_constraint();
    constraint.meta.kind = dedisys_constraints::ConstraintKind::AsyncInvariant;
    let mut cluster = ClusterBuilder::new(2, app())
        .constraint(constraint)
        .build()
        .unwrap();
    let id = seed(&mut cluster);
    let validations_before = cluster.stats().ccm.validations;
    cluster.partition(&[nodes![0], nodes![1]]).unwrap();
    cluster
        .run_tx(NodeId(0), |c, tx| {
            c.set_field(NodeId(0), tx, &id, "n", Value::Int(5))
        })
        .unwrap();
    // No validation, no negotiation — the threat was recorded directly.
    assert_eq!(cluster.stats().ccm.validations, validations_before);
    assert_eq!(cluster.stats().ccm.async_shortcuts, 1);
    assert_eq!(cluster.threats().len(), 1);
    // Reconciliation evaluates it for the first time.
    cluster.heal();
    let summary = cluster.reconcile(&mut HighestVersionWins, &mut DeferAll);
    promise::assert_kept(&cluster);
    assert_eq!(summary.constraints.satisfied_removed, 1);
}

/// Regression — a non-finite float used to commit, reach the journal
/// as `null`, and make every later restart of a replica fail with the
/// node's whole committed map already cleared. The write is refused
/// where it enters, so the journal only ever holds what it can replay.
#[test]
fn non_finite_float_write_is_refused_and_the_journal_stays_replayable() {
    let mut cluster = ClusterBuilder::new(3, app()).build().unwrap();
    let id = seed(&mut cluster);
    let sibling = ObjectId::new("Counter", "c2");
    let e = sibling.clone();
    cluster
        .run_tx(NodeId(0), move |c, tx| {
            c.create(NodeId(0), tx, EntityState::for_class(c.app(), &e)?)
        })
        .unwrap();
    let version = cluster.entity_on(NodeId(0), &id).unwrap().version();
    for bad in [
        Value::Float(f64::NAN),
        Value::Float(f64::INFINITY),
        Value::Float(f64::NEG_INFINITY),
        Value::List(vec![Value::Int(1), Value::Float(f64::NAN)]),
    ] {
        let write = cluster.run_tx(NodeId(0), |c, tx| {
            c.set_field(NodeId(0), tx, &id, "n", bad.clone())
        });
        assert!(
            matches!(&write, Err(Error::IllTypedField { name, expected })
                if name == "n" && expected == "finite float"),
            "{bad:?}: {write:?}"
        );
        for node in (0..3).map(NodeId) {
            let held = cluster.entity_on(node, &id).unwrap();
            assert_eq!(held.field("n"), &Value::Int(0), "{bad:?} on {node}");
            assert_eq!(held.version(), version, "{bad:?} on {node}");
        }
    }
    assert_eq!(cluster.open_tx_count(), 0);
    assert!(cluster.held_locks().is_empty());
    // A backup crashes and comes back from its journal alone.
    cluster.crash(NodeId(1)).unwrap();
    cluster.restart(NodeId(1)).unwrap();
    for held in [&id, &sibling] {
        assert_eq!(
            cluster.entity_on(NodeId(1), held).unwrap().field("n"),
            &Value::Int(0),
            "{held} after restart"
        );
    }
}

/// Regression — the same hole on the reconciliation side: a repair
/// written through `ReconOps::write` bypasses the container's
/// transactional write path, so it has to apply the journal's rule
/// itself. A non-finite repair is refused typed, nothing is installed,
/// and every replica still comes back from its journal.
#[test]
fn non_finite_reconciliation_repair_is_refused_and_every_replica_restarts() {
    let mut cluster = ClusterBuilder::new(2, app())
        .constraint(bounded_constraint())
        .build()
        .unwrap();
    let id = seed(&mut cluster);
    // The merge breaks the bound, so the repair handler gets to run.
    diverge(&mut cluster, &id);
    let mut refused = Vec::new();
    let mut repair = |v: &dedisys_core::ViolationReport, ops: &mut dedisys_core::ReconOps<'_>| {
        let id = v.threat.context_object.as_ref().expect("context object");
        refused.push(ops.write(id, "n", Value::Float(f64::NAN)));
        assert_eq!(ops.read(id, "n"), Ok(Value::Int(110)), "nothing installed");
        ops.write(id, "n", Value::Int(100)).expect("finite repair");
        true
    };
    let summary = cluster.reconcile(&mut additive, &mut repair);
    promise::assert_kept(&cluster);
    assert_eq!(summary.constraints.resolved_by_handler, 1);
    assert_eq!(refused.len(), 1);
    assert!(
        matches!(&refused[0], Err(Error::IllTypedField { name, expected })
            if name == "n" && expected == "finite float"),
        "{refused:?}"
    );
    for node in [NodeId(0), NodeId(1)] {
        cluster.crash(node).unwrap();
        cluster.restart(node).unwrap();
        if cluster.needs_reconciliation() {
            cluster.reconcile(&mut HighestVersionWins, &mut DeferAll);
            promise::assert_kept(&cluster);
        }
        assert_eq!(
            cluster.entity_on(node, &id).unwrap().field("n"),
            &Value::Int(100),
            "{node} after restart"
        );
    }
}

#[test]
fn wal_recovery_restores_store_state_after_crash() {
    let clock = SimClock::new();
    let mut persistence = Persistence::new(clock, StoreCosts::default());
    for i in 0..50 {
        persistence.put("threats", &format!("t{i}"), format!("{{\"id\":{i}}}"));
    }
    for i in 0..25 {
        persistence.delete("threats", &format!("t{i}"));
    }
    let before: Vec<(String, String)> = persistence.scan("threats");
    let report = persistence.recover_from_wal();
    assert_eq!(report.replayed, 75);
    assert_eq!(report.truncated, 0);
    assert_eq!(persistence.scan("threats"), before);
    assert_eq!(persistence.store().table_len("threats"), 25);
}

/// The torn tail of an interrupted write is dropped, not replayed: the
/// checksummed WAL catches the half-written entry and recovery keeps
/// only the intact prefix.
#[test]
fn wal_recovery_truncates_a_torn_tail() {
    let clock = SimClock::new();
    let mut persistence = Persistence::new(clock, StoreCosts::default());
    for i in 0..10 {
        persistence.put("threats", &format!("t{i}"), format!("{{\"id\":{i}}}"));
    }
    assert_eq!(persistence.corrupt_wal_tail(3), 3);
    let report = persistence.recover_from_wal();
    assert_eq!(report.replayed, 7);
    assert_eq!(report.truncated, 3);
    assert_eq!(persistence.store().table_len("threats"), 7);
    assert!(persistence.store().get("threats", "t6").is_some());
    assert!(persistence.store().get("threats", "t7").is_none());
}

/// The scripted-partition lifecycle of
/// `node_crash_is_a_singleton_partition_and_recovery_reconciles` run
/// once more the way a real deployment enters degraded mode: links are
/// physically cut, the φ-accrual detector notices, the stabilized view
/// is installed with `cause: detector`, and healing the links converges
/// the pipeline back to one healthy view with zero standing suspicions.
/// Under the default damping the cut's and the heal's suspicion flips
/// suppress node 2, which rejoins once its penalty has decayed.
#[test]
fn detector_driven_partition_matches_scripted_behaviour() {
    let mut cluster = ClusterBuilder::new(3, app())
        .constraint(bounded_constraint())
        .configure(|c| {
            c.membership.detector_enabled = true;
            c.membership.detector = DetectorKind::Adaptive;
            c.membership.seed = 7;
        })
        .build()
        .unwrap();
    let ring = RingRecorder::new(1024);
    cluster.telemetry().attach(Box::new(ring.clone()));
    let id = seed(&mut cluster);

    // Physically cut node 2 off — the cluster is NOT told.
    cluster.drop_links(&[nodes![0, 1], nodes![2]]).unwrap();
    assert_eq!(
        cluster.mode(),
        SystemMode::Healthy,
        "nothing detected yet without running the pipeline"
    );
    let installed = cluster.run_detector_for(SimDuration::from_secs(2));
    assert!(installed >= 1, "detector installed the degraded view");
    assert_eq!(cluster.mode(), SystemMode::Degraded);
    assert_eq!(cluster.topology().partitions().len(), 2);

    // Majority-side write records a threat, exactly as when scripted.
    cluster
        .run_tx(NodeId(0), |c, tx| {
            c.set_field(NodeId(0), tx, &id, "n", Value::Int(5))
        })
        .unwrap();
    assert!(!cluster.threats().is_empty());

    // Physical repair: detection clears suspicion at once, but the
    // flips damp node 2, which stays apart while suppressed.
    cluster.heal_links().unwrap();
    cluster.run_detector_for(SimDuration::from_secs(1));
    assert_eq!(cluster.standing_suspicions(), 0, "suspicion cleared");
    assert!(
        ring.records().iter().any(|r| matches!(
            r.event,
            TraceEvent::FlapDamped {
                node: NodeId(2),
                ..
            }
        )),
        "node 2 was damped"
    );
    assert_eq!(cluster.mode(), SystemMode::Degraded, "node 2 held apart");
    // Its penalty decays below the reuse threshold in two half-lives:
    // released, it rejoins the full view; degraded residue sends the
    // system to reconciliation.
    cluster.run_detector_for(SimDuration::from_secs(7));
    assert_eq!(cluster.standing_suspicions(), 0, "healed + quiescent");
    assert_eq!(cluster.topology().partitions().len(), 1, "node 2 released");
    assert_eq!(cluster.mode(), SystemMode::Reconciliation);

    cluster.reconcile(&mut HighestVersionWins, &mut DeferAll);
    promise::assert_kept(&cluster);
    assert_eq!(cluster.mode(), SystemMode::Healthy);
    assert_eq!(
        cluster.entity_on(NodeId(2), &id).unwrap().field("n"),
        &Value::Int(5),
        "late node caught up after detector-driven heal"
    );
}

#[test]
fn repartition_without_heal_lets_a_stale_replica_repeat_a_version() {
    let mut cluster = ClusterBuilder::new(3, app())
        .constraint(bounded_constraint())
        .build()
        .unwrap();
    // Node 2 creates the counter and is its static primary.
    let id = ObjectId::new("Counter", "c2");
    let e = id.clone();
    cluster
        .run_tx(NodeId(2), move |c, tx| {
            c.create(NodeId(2), tx, EntityState::for_class(c.app(), &e)?)
        })
        .unwrap();
    // Cut off from its primary, {0,1} writes through a temporary one:
    // partition key 0 records the next version, which node 2 misses.
    cluster.partition(&[nodes![0, 1], nodes![2]]).unwrap();
    cluster
        .run_tx(NodeId(0), |c, tx| {
            c.set_field(NodeId(0), tx, &id, "n", Value::Int(5))
        })
        .unwrap();
    // Re-partition with no heal + reconcile in between: the static
    // primary is reachable from node 0 again and executes the next
    // write on its stale state, producing the version partition key 0
    // already holds.
    cluster.partition(&[nodes![0, 2], nodes![1]]).unwrap();
    cluster
        .run_tx(NodeId(0), |c, tx| {
            c.set_field(NodeId(0), tx, &id, "n", Value::Int(9))
        })
        .unwrap();

    cluster.heal();
    cluster.reconcile(&mut HighestVersionWins, &mut DeferAll);
    promise::assert_kept(&cluster);
    assert_eq!(cluster.mode(), SystemMode::Healthy);
    let reference = cluster.entity_on(NodeId(0), &id).unwrap().clone();
    for n in 1..3 {
        assert_eq!(
            cluster.entity_on(NodeId(n), &id).unwrap(),
            &reference,
            "replicas converge after the repeated version"
        );
    }
}

/// A 3-node cluster with one counter. `residue` leaves it split
/// `{0,1}|{2}` after a degraded-mode write: a threat and an unsynced
/// replica stand.
/// A delete committed while a replica is away used to drop the
/// object's placement on the spot, so replica reconciliation had no
/// replica set left to carry the outcome to: the absent node kept the
/// object forever (and a surviving update from the other side reached
/// nobody). Found by `crates/core/tests/journal_durability.rs`.
#[test]
fn degraded_delete_reaches_the_replica_that_was_away() {
    // Delete on one side only: everyone ends up without the object.
    let mut cluster = ClusterBuilder::new(3, app()).build().unwrap();
    let id = seed(&mut cluster);
    cluster.partition(&[nodes![0, 1], nodes![2]]).unwrap();
    cluster
        .run_tx(NodeId(0), |c, tx| c.delete(NodeId(0), tx, &id))
        .unwrap();
    assert!(cluster.entity_on(NodeId(2), &id).is_some(), "2 was away");
    cluster.heal();
    cluster.reconcile(&mut HighestVersionWins, &mut DeferAll);
    promise::assert_kept(&cluster);
    for n in 0..3 {
        assert!(cluster.entity_on(NodeId(n), &id).is_none(), "node {n}");
    }
    assert_eq!(cluster.mode(), SystemMode::Healthy);

    // Delete on one side, update on the other: the live state wins
    // (`HighestVersionWins`) and comes back on the deleting side too.
    let mut cluster = ClusterBuilder::new(3, app()).build().unwrap();
    let id = seed(&mut cluster);
    cluster.partition(&[nodes![0, 1], nodes![2]]).unwrap();
    cluster
        .run_tx(NodeId(0), |c, tx| c.delete(NodeId(0), tx, &id))
        .unwrap();
    cluster
        .run_tx(NodeId(2), |c, tx| {
            c.set_field(NodeId(2), tx, &id, "n", Value::Int(7))
        })
        .unwrap();
    cluster.heal();
    cluster.reconcile(&mut HighestVersionWins, &mut DeferAll);
    promise::assert_kept(&cluster);
    for n in 0..3 {
        assert_eq!(
            cluster.entity_on(NodeId(n), &id).map(|e| e.field("n")),
            Some(&Value::Int(7)),
            "node {n}"
        );
    }
}

fn cluster_with(detector: bool, residue: bool) -> dedisys_core::Cluster {
    let mut cluster = ClusterBuilder::new(3, app())
        .constraint(bounded_constraint())
        .configure(|c| c.membership.detector_enabled = detector)
        .build()
        .unwrap();
    let id = seed(&mut cluster);
    if residue {
        cluster.partition(&[nodes![0, 1], nodes![2]]).unwrap();
        cluster
            .run_tx(NodeId(0), |c, tx| {
                c.set_field(NodeId(0), tx, &id, "n", Value::Int(5))
            })
            .unwrap();
    }
    cluster
}

#[test]
fn regrouping_every_node_with_degraded_residue_enters_reconciliation() {
    let mut cluster = cluster_with(false, true);
    // One group of all nodes repairs the network like `heal()` does:
    // the threat and the stale replica still stand (Figure 1.4).
    assert_eq!(
        cluster.partition(&[nodes![0, 1, 2]]).unwrap(),
        SystemMode::Reconciliation
    );
    cluster.reconcile(&mut HighestVersionWins, &mut DeferAll);
    promise::assert_kept(&cluster);
    assert_eq!(cluster.mode(), SystemMode::Healthy);
}

#[test]
fn every_topology_change_settles_the_mode_by_the_same_rule() {
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Via {
        Partition,
        Heal,
        /// Node 1 goes down and comes back.
        Restart,
        /// A view the detector installs after the links are repaired.
        Detector,
    }
    // (network split, node 2 down, degraded residue, the call that settles the mode)
    let rows = [
        (false, false, false, Via::Partition),
        (false, false, true, Via::Detector),
        (false, true, false, Via::Heal),
        (false, true, true, Via::Restart),
        (true, false, false, Via::Partition),
        (true, false, true, Via::Partition),
        (true, true, false, Via::Partition),
        (true, true, true, Via::Partition),
    ];
    for row @ (split, down, residue, via) in rows {
        let mut cluster = cluster_with(via == Via::Detector, residue);
        if residue {
            assert_eq!(cluster.heal(), SystemMode::Reconciliation, "{row:?}");
        }
        if down {
            cluster.crash(NodeId(2)).unwrap();
        }
        let mode = match via {
            Via::Partition if split => cluster.partition(&[nodes![0], nodes![1]]).unwrap(),
            Via::Partition => cluster.partition(&[nodes![0, 1, 2]]).unwrap(),
            Via::Heal => cluster.heal(),
            Via::Restart => {
                cluster.crash(NodeId(1)).unwrap();
                cluster.restart(NodeId(1)).unwrap()
            }
            Via::Detector => {
                cluster.drop_links(&[nodes![0, 1], nodes![2]]).unwrap();
                cluster.run_detector_for(SimDuration::from_secs(2));
                assert_eq!(cluster.mode(), SystemMode::Degraded, "{row:?}");
                cluster.heal_links().unwrap();
                // The third view change in a row: flap damping holds
                // the whole view back for a few seconds.
                cluster.run_detector_for(SimDuration::from_secs(10));
                cluster.mode()
            }
        };
        let expected = if split || down {
            SystemMode::Degraded
        } else if residue {
            SystemMode::Reconciliation
        } else {
            SystemMode::Healthy
        };
        assert_eq!(mode, expected, "{row:?}");
        assert_eq!(cluster.mode(), mode, "{row:?}");
    }
}

#[test]
fn physical_fault_calls_share_one_error_without_the_detector() {
    let mut cluster = cluster_with(false, false);
    let errors = [
        cluster.drop_links(&[nodes![0, 1], nodes![2]]).unwrap_err(),
        cluster.heal_links().unwrap_err(),
        cluster
            .set_link_fault(NodeId(0), NodeId(1), dedisys_core::LinkFault::default())
            .unwrap_err(),
        cluster.set_default_link_jitter(50).unwrap_err(),
    ];
    assert!(
        matches!(&errors[0], dedisys_types::Error::Config(m) if m.contains("detector_enabled"))
    );
    assert!(errors.iter().all(|e| *e == errors[0]), "{errors:?}");
}
