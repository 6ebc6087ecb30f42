//! The reconciliation phase (§3.3, §4.4, Figure 4.6).
//!
//! Two steps: the replication service first re-establishes replica
//! consistency (missed-update propagation, write-write conflict
//! resolution via the replica-consistency handler), then the CCMgr
//! re-evaluates accepted consistency threats and — for actual
//! violations — runs the rollback search and/or the application's
//! constraint-reconciliation handler, which may resolve immediately or
//! defer (§4.4).

use super::Cluster;
use crate::ccm::{evaluate_candidate, ReplicaAccess, ValidationCandidate};
use crate::threat::{ConsistencyThreat, ThreatIdentity};
use dedisys_constraints::{ObjectAccess, ObjectScope};
use dedisys_object::{EntityContainer, Snapshot};
use dedisys_replication::{ReconcileReport, ReplicaConflict, ReplicaConsistencyHandler};
use dedisys_telemetry::{TraceEvent, TransitionCause};
use dedisys_types::{
    Error, NodeId, ObjectId, Result, SatisfactionDegree, SimDuration, SystemMode, TxId, Value,
};

/// A constraint violation detected during reconciliation.
#[derive(Debug, Clone)]
pub struct ViolationReport {
    /// The violated constraint + context object.
    pub identity: ThreatIdentity,
    /// The first stored threat record (carries app data and
    /// instructions).
    pub threat: ConsistencyThreat,
}

/// Direct repair operations offered to the reconciliation handler.
///
/// Writes bypass transactions and apply cluster-wide (the system is
/// re-unified at this point); they model the compensating actions of
/// the roll-forward approach (§5.2).
pub struct ReconOps<'a> {
    containers: &'a mut [EntityContainer],
    clock: &'a dedisys_net::SimClock,
    costs: &'a crate::CostModel,
    node_count: u32,
}

impl ReconOps<'_> {
    /// Reads a field of `id`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ObjectNotFound`] if no node holds the object.
    pub fn read(&mut self, id: &ObjectId, field: &str) -> Result<Value> {
        self.clock.advance(self.costs.db_read);
        self.containers
            .iter()
            .find_map(|c| c.committed_entity(id))
            .map(|e| e.field(field).clone())
            .ok_or_else(|| Error::ObjectNotFound(id.clone()))
    }

    /// Writes a field of `id` on every node holding it.
    ///
    /// # Errors
    ///
    /// * [`Error::IllTypedField`] — `value` holds a non-finite float
    ///   ([`Value::check_journalable`]); nothing is written or charged.
    /// * [`Error::ObjectNotFound`] — no node holds the object.
    pub fn write(&mut self, id: &ObjectId, field: &str, value: Value) -> Result<()> {
        value.check_journalable(field)?;
        self.clock.advance(self.costs.db_write);
        self.clock.advance(
            self.costs
                .propagation(self.node_count.saturating_sub(1) as usize),
        );
        let (holder, mut state) = self
            .containers
            .iter()
            .enumerate()
            .find_map(|(node, c)| Some((node, c.committed_entity(id)?.clone())))
            .ok_or_else(|| Error::ObjectNotFound(id.clone()))?;
        state.set_field(field, value, self.clock.now());
        let everywhere = 0..self.containers.len();
        let snapshot = self.containers[holder].encode(state);
        install_where_held(self.containers, everywhere, &snapshot);
        Ok(())
    }

    /// Deletes `id` on every node (a compensating cancellation).
    pub fn delete(&mut self, id: &ObjectId) {
        self.clock.advance(self.costs.db_write);
        for c in self.containers.iter_mut() {
            c.remove_committed(id);
        }
    }
}

/// The application's constraint-reconciliation callback (Figure 4.6).
pub trait ConstraintReconciliationHandler {
    /// Called for each violated constraint. Return `true` when the
    /// violation has been cleaned up immediately (the CCMgr re-validates
    /// and removes the threat); return `false` to defer — the
    /// middleware keeps the threat and later business operations that
    /// satisfy the constraint clean it up (§4.4).
    fn reconcile(&mut self, violation: &ViolationReport, ops: &mut ReconOps<'_>) -> bool;

    /// Notification that a replica conflict touched the objects of a
    /// threat whose constraint turned out *satisfied* (§3.3), requested
    /// via [`crate::ReconcileInstructions::notify_on_replica_conflict`].
    fn on_replica_conflict(&mut self, identity: &ThreatIdentity, conflict: &ReplicaConflict) {
        let _ = (identity, conflict);
    }
}

/// A handler that defers every violation (pure asynchronous
/// reconciliation — the usual case per §5.4).
#[derive(Debug, Clone, Copy, Default)]
pub struct DeferAll;

impl ConstraintReconciliationHandler for DeferAll {
    fn reconcile(&mut self, _violation: &ViolationReport, _ops: &mut ReconOps<'_>) -> bool {
        false
    }
}

impl<F> ConstraintReconciliationHandler for F
where
    F: FnMut(&ViolationReport, &mut ReconOps<'_>) -> bool,
{
    fn reconcile(&mut self, violation: &ViolationReport, ops: &mut ReconOps<'_>) -> bool {
        self(violation, ops)
    }
}

/// Outcome counters of the constraint-reconciliation step.
///
/// Invariants (enforced by debug assertions and the property tests):
/// `re_evaluated == satisfied_removed + violations + postponed +
/// dropped` and `violations == resolved_by_rollback +
/// resolved_by_handler + deferred`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConstraintReconcileReport {
    /// Distinct threat identities re-evaluated.
    pub re_evaluated: usize,
    /// Threats whose constraints were satisfied (removed).
    pub satisfied_removed: usize,
    /// Actual violations detected.
    pub violations: usize,
    /// Violations resolved by rollback to a historical state.
    pub resolved_by_rollback: usize,
    /// Historical states the rollback search installed and
    /// re-validated, over every violation it ran for.
    pub rollback_candidates: usize,
    /// Violations resolved immediately by the handler.
    pub resolved_by_handler: usize,
    /// Violations deferred to later application-driven cleanup.
    pub deferred: usize,
    /// Threats still threatened (postponed — partitions remain).
    pub postponed: usize,
    /// Moot threats dropped: their constraint was removed at runtime,
    /// or — the system whole again — their context object was deleted.
    pub dropped: usize,
    /// Replica-conflict notifications delivered for satisfied
    /// constraints.
    pub conflict_notifications: usize,
}

/// Summary of one full reconciliation run.
#[derive(Debug, Clone, Default)]
pub struct ReconciliationSummary {
    /// Replica-reconciliation outcome.
    pub replica: ReconcileReport,
    /// Constraint-reconciliation outcome.
    pub constraints: ConstraintReconcileReport,
    /// Virtual time the replica step took.
    pub replica_duration: SimDuration,
    /// Virtual time the constraint step took.
    pub constraint_duration: SimDuration,
}

impl Cluster {
    /// Runs the two-step reconciliation phase. Call after
    /// [`Cluster::heal`].
    ///
    /// Replica consistency is re-established *before* constraint
    /// consistency (§5.2 justifies the ordering); conflict details are
    /// forwarded to the constraint step.
    pub fn reconcile(
        &mut self,
        replica_handler: &mut dyn ReplicaConsistencyHandler,
        constraint_handler: &mut dyn ConstraintReconciliationHandler,
    ) -> ReconciliationSummary {
        assert!(
            self.topology().is_healthy(),
            "reconcile after heal — for partial re-unifications use reconcile_partial (§3.3)"
        );
        self.reconcile_partial(NodeId(0), replica_handler, constraint_handler)
    }

    /// Reconciliation after a *partial* re-unification (§3.3): some
    /// partitions merged while others remain. Every object with a
    /// degraded-mode writer partition reachable from `observer` has its
    /// reachable writers merged and the outcome installed on its
    /// replicas in the observer's partition; it stays tracked for a
    /// later merge while one of its writer partitions or replicas is
    /// still away (`ReplicationManager::reconcile_replicas_scoped`).
    /// Every stored threat is then re-evaluated; one whose constraint
    /// is still threatened (objects stale or unreachable) is postponed
    /// until further partitions re-unify. The system returns to
    /// degraded mode afterwards unless the topology is whole.
    pub fn reconcile_partial(
        &mut self,
        observer: NodeId,
        replica_handler: &mut dyn ReplicaConsistencyHandler,
        constraint_handler: &mut dyn ConstraintReconciliationHandler,
    ) -> ReconciliationSummary {
        self.set_mode(SystemMode::Reconciliation, TransitionCause::Scripted);
        let mut summary = ReconciliationSummary::default();

        // Step 1: replica reconciliation.
        let t0 = self.clock().now();
        let replica_report = self.replication.reconcile_replicas_scoped(
            &self.topology,
            observer,
            &mut self.containers,
            replica_handler,
        );
        // The replica phase rewrites committed states wholesale
        // (missed updates, conflict resolutions) without bumping
        // through the commit path — memoized verdicts are stale.
        self.clear_verdict_cache_with_event();
        // Charge: every missed update/conflict resolution is one
        // propagation round; conflict resolution additionally reads the
        // divergent states.
        let per_install = self
            .costs()
            .propagation(self.node_count().saturating_sub(1) as usize);
        let installs = replica_report.missed_updates + replica_report.conflicts.len() as u64;
        self.clock().advance(per_install * installs);
        let conflict_reads: u64 = replica_report
            .conflicts
            .iter()
            .map(|(c, _)| c.candidates.len() as u64)
            .sum();
        self.clock().advance(self.costs().db_read * conflict_reads);
        // Missed updates *include the consistency threats* gathered in
        // the other partitions (§4.4): every stored threat record is
        // synchronized, which is why replica reconciliation scales
        // worse under the full-history policy (Figure 5.6). Shipping
        // is batched per identity group — one network round per group,
        // per-record database volume — instead of a full
        // write-plus-round per record.
        let threat_records = self.ccm.threat_store.len() as u64;
        let threat_groups = self.ccm.threat_store.identity_count() as u64;
        self.clock().advance(
            self.costs().db_write * threat_records + self.costs().net_hop * 2 * threat_groups,
        );
        summary.replica_duration = self.clock().now().since(t0);
        self.telemetry().emit(|| TraceEvent::ReconcileReplicaPhase {
            missed_updates: replica_report.missed_updates,
            conflicts: replica_report.conflicts.len() as u32,
            duration_ns: summary.replica_duration.as_nanos(),
        });

        // Step 2: constraint reconciliation.
        let t1 = self.clock().now();
        summary.constraints =
            self.reconcile_constraints(observer, &replica_report, constraint_handler);
        summary.constraint_duration = self.clock().now().since(t1);
        summary.replica = replica_report;
        let constraints = summary.constraints;
        let duration_ns = summary.constraint_duration.as_nanos();
        self.telemetry()
            .emit(|| TraceEvent::ReconcileConstraintPhase {
                re_evaluated: constraints.re_evaluated as u64,
                satisfied_removed: constraints.satisfied_removed as u64,
                violations: constraints.violations as u64,
                resolved_by_rollback: constraints.resolved_by_rollback as u64,
                resolved_by_handler: constraints.resolved_by_handler as u64,
                deferred: constraints.deferred as u64,
                postponed: constraints.postponed as u64,
                dropped: constraints.dropped as u64,
                duration_ns,
            });
        let metrics = self.telemetry().metrics();
        metrics.add("reconcile.re_evaluated", constraints.re_evaluated as u64);
        metrics.add("reconcile.postponed", constraints.postponed as u64);
        metrics.add("reconcile.deferred", constraints.deferred as u64);

        // Fully healed: drop the degraded bookkeeping and return to
        // healthy. After a partial re-unification the system stays
        // degraded and keeps its histories for the remaining objects.
        if self.topology().is_healthy() {
            self.replication.clear_degraded_state();
            self.set_mode(SystemMode::Healthy, TransitionCause::Scripted);
        } else {
            self.set_mode(SystemMode::Degraded, TransitionCause::Scripted);
        }
        summary
    }

    fn reconcile_constraints(
        &mut self,
        observer: NodeId,
        replica_report: &ReconcileReport,
        handler: &mut dyn ConstraintReconciliationHandler,
    ) -> ConstraintReconcileReport {
        let mut report = ConstraintReconcileReport::default();
        let recon_tx = self.begin_tx(observer);
        // Every accepted threat is re-evaluated (Figure 4.6); one whose
        // objects stay unreachable or stale re-validates to a threat
        // degree and is postponed.
        let identities = self.ccm.threat_store.identities();
        for identity in identities {
            report.re_evaluated += 1;
            // Load the threat record (database read).
            self.clock().advance(self.costs().db_read);
            // A threat is moot once its constraint was removed at
            // runtime, or once — the system whole again — its context
            // object exists on no node: it was deleted.
            let context_gone = identity.context_object.as_ref().is_some_and(|object| {
                self.topology.is_healthy()
                    && self
                        .containers
                        .iter()
                        .all(|c| c.committed_entity(object).is_none())
            });
            let constraint = self.repository().get(&identity.constraint).cloned();
            let Some(constraint) = constraint.filter(|_| !context_gone) else {
                report.dropped += 1;
                self.drop_threats(&identity);
                continue;
            };
            match self.revalidate(observer, recon_tx, &constraint, &identity) {
                SatisfactionDegree::Satisfied => {
                    report.satisfied_removed += 1;
                    // Capture the notification flag and, if it is set,
                    // the affected objects *before* the store is purged:
                    // asked after `remove_identity`, every record's flag
                    // is gone.
                    let store = &self.ccm.threat_store;
                    let affected = store
                        .any_wants_conflict_notification(&identity)
                        .then(|| store.objects_of(&identity));
                    self.drop_threats(&identity);
                    // Notify about replica conflicts if requested.
                    if let Some(affected) = affected {
                        for (conflict, _) in &replica_report.conflicts {
                            if affected.contains(&conflict.object) {
                                report.conflict_notifications += 1;
                                handler.on_replica_conflict(&identity, conflict);
                            }
                        }
                    }
                }
                SatisfactionDegree::Violated => {
                    // The first record, copied for the rollback search
                    // and the handler, which read it while the cluster
                    // changes.
                    let first = self
                        .ccm
                        .threat_store
                        .first_of(&identity)
                        .cloned()
                        .expect("a stored identity; revalidating leaves the store as it was");
                    report.violations += 1;
                    let mut resolved = false;
                    // Rollback search if permitted (§3.3).
                    if self.ccm.threat_store.any_allows_rollback(&identity)
                        && self.try_rollback(
                            observer,
                            recon_tx,
                            &constraint,
                            &identity,
                            &first,
                            &mut report.rollback_candidates,
                        )
                    {
                        report.resolved_by_rollback += 1;
                        resolved = true;
                    }
                    if !resolved {
                        // Handler callback, bounded retries (§4.4: the
                        // CCMgr re-validates and contacts the handler
                        // again until resolved or deferred).
                        let violation = ViolationReport {
                            identity: identity.clone(),
                            threat: first,
                        };
                        let mut deferred = false;
                        for _attempt in 0..3 {
                            let mut ops = ReconOps {
                                containers: &mut self.containers,
                                clock: &self.clock,
                                costs: &self.costs,
                                node_count: self.topology.node_count(),
                            };
                            let immediate = handler.reconcile(&violation, &mut ops);
                            if !immediate {
                                deferred = true;
                                break;
                            }
                            if self.revalidate(observer, recon_tx, &constraint, &identity)
                                == SatisfactionDegree::Satisfied
                            {
                                report.resolved_by_handler += 1;
                                resolved = true;
                                break;
                            }
                        }
                        // A handler that claims immediate success three
                        // times without the constraint ever becoming
                        // satisfied exhausts its retries: account the
                        // violation as deferred so the invariant
                        // `violations == rollback + handler + deferred`
                        // holds (previously such violations vanished
                        // from every counter).
                        if deferred || !resolved {
                            report.deferred += 1;
                        }
                    }
                    if resolved {
                        self.drop_threats(&identity);
                    }
                }
                _ => {
                    // Still threatened: affected objects remain
                    // unreachable (bound placement on crashed nodes) —
                    // postpone (§3.3).
                    report.postponed += 1;
                }
            }
        }
        let _ = self.rollback(recon_tx);
        debug_assert_eq!(
            report.re_evaluated,
            report.satisfied_removed + report.violations + report.postponed + report.dropped,
            "every re-evaluation has an outcome"
        );
        debug_assert_eq!(
            report.violations,
            report.resolved_by_rollback + report.resolved_by_handler + report.deferred,
            "violation accounting must balance (§4.4)"
        );
        report
    }

    /// Removes the threat records of a settled `identity` as one
    /// batched delete: one database write for the identity group plus
    /// the marginal scan cost per additional record.
    fn drop_threats(&mut self, identity: &ThreatIdentity) {
        let removed = self.ccm.threat_store.remove_identity(identity);
        self.clock.advance(
            self.costs.db_write
                + self.costs.threat_scan_per_identity * removed.saturating_sub(1) as u64,
        );
    }

    fn revalidate(
        &mut self,
        observer: NodeId,
        recon_tx: TxId,
        constraint: &dedisys_constraints::RegisteredConstraint,
        identity: &ThreatIdentity,
    ) -> SatisfactionDegree {
        let env = self.partition_env(observer);
        let engine = self.config().validation.engine;
        let mut access = ReplicaAccess::new(
            &self.containers,
            &self.replication,
            &self.topology,
            observer,
            Some(recon_tx),
        );
        let candidate =
            ValidationCandidate::invariant(constraint, identity.context_object.as_ref());
        // Live and uncached: the replica step just rewrote state.
        let gathered = std::mem::take(&mut self.gathered);
        let (outcome, accessed) =
            evaluate_candidate(&candidate, &mut access, env, engine, gathered);
        self.ccm
            .finish_validation(constraint, outcome, accessed, &access)
            .map_or(SatisfactionDegree::Uncheckable, |verdict| {
                self.gathered = verdict.accessed;
                verdict.degree
            })
    }

    /// Attempts rollback to a historical degraded-mode state of the
    /// threat's affected objects (latest first). Returns `true` when a
    /// consistent state was found and installed; counts every candidate
    /// tried into `tried`.
    fn try_rollback(
        &mut self,
        observer: NodeId,
        recon_tx: TxId,
        constraint: &dedisys_constraints::RegisteredConstraint,
        identity: &ThreatIdentity,
        threat: &ConsistencyThreat,
        tried: &mut usize,
    ) -> bool {
        let node_count = self.node_count();
        // Scope everything to the observer's partition: reading the
        // restore-on-failure state from a hardcoded `NodeId(0)` is
        // wrong (or yields nothing) during `reconcile_partial` when
        // node 0 sits in an unmerged partition, and installing
        // candidates across the partition boundary would overwrite
        // states the unreachable side still relies on.
        let reachable: Vec<NodeId> = self
            .topology()
            .partition_of(observer)
            .iter()
            .copied()
            .collect();
        for object in &threat.affected_objects {
            // Current (post-replica-reconciliation) state within the
            // observer's partition, to restore on failure.
            let original = reachable
                .iter()
                .find_map(|&n| self.containers[n.index()].committed_snapshot(object))
                .cloned();
            for pkey in 0..node_count {
                let states = self.replication.partition_history(object, pkey).to_vec();
                for candidate in states.iter().rev() {
                    *tried += 1;
                    self.clock().advance(self.costs().db_read);
                    self.install_reachable(&reachable, candidate);
                    if self.revalidate(observer, recon_tx, constraint, identity)
                        == SatisfactionDegree::Satisfied
                        && self.violates_none_other(observer, recon_tx, identity, object)
                    {
                        return true;
                    }
                }
            }
            if let Some(original) = original {
                self.install_reachable(&reachable, &original);
            }
        }
        false
    }

    /// Whether the state just installed for `object` violates no
    /// enabled invariant of its class's context objects that reads it,
    /// `identity` aside — a rollback candidate must not trade one
    /// violation for another that no threat records (the other
    /// endpoint of a pair, say). The check is silent: the candidate's
    /// own revalidation is the one a trace shows.
    fn violates_none_other(
        &mut self,
        observer: NodeId,
        recon_tx: TxId,
        identity: &ThreatIdentity,
        object: &ObjectId,
    ) -> bool {
        let others: Vec<_> = self
            .repository()
            .enabled()
            .filter(|c| c.meta.kind.is_invariant())
            .filter(|c| c.context_class.as_ref() == Some(object.class()))
            .cloned()
            .collect();
        let env = self.partition_env(observer);
        let engine = self.config().validation.engine;
        for other in &others {
            let mut access = ReplicaAccess::new(
                &self.containers,
                &self.replication,
                &self.topology,
                observer,
                Some(recon_tx),
            );
            let contexts = if other.meta.scope == ObjectScope::IntraObject {
                vec![object.clone()]
            } else {
                access.objects_of_class(object.class())
            };
            for context in &contexts {
                if other.name() == &identity.constraint
                    && identity.context_object.as_ref() == Some(context)
                {
                    continue;
                }
                let gathered = std::mem::take(&mut self.gathered);
                let candidate = ValidationCandidate::invariant(other, Some(context));
                let (outcome, accessed) =
                    evaluate_candidate(&candidate, &mut access, env, engine, gathered);
                let reads = context == object || accessed.contains(object);
                self.gathered = accessed;
                if reads && outcome == Ok(SatisfactionDegree::Violated) {
                    return false;
                }
            }
        }
        true
    }

    /// Installs `state` on every reachable node already holding the
    /// object (the rollback search never crosses the partition
    /// boundary).
    fn install_reachable(&mut self, nodes: &[NodeId], snapshot: &Snapshot) {
        self.clock().advance(self.costs().db_write);
        let nodes = nodes.iter().map(|n| n.index());
        install_where_held(&mut self.containers, nodes, snapshot);
    }
}

/// Installs `snapshot` on each of `nodes` that already holds the
/// object — every one of them shares the one snapshot.
fn install_where_held(
    containers: &mut [EntityContainer],
    nodes: impl Iterator<Item = usize>,
    snapshot: &Snapshot,
) {
    for node in nodes {
        let c = &mut containers[node];
        if c.committed_entity(snapshot.state().id()).is_some() {
            c.install(snapshot.clone());
        }
    }
}
