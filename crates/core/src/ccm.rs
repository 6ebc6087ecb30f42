//! The Constraint Consistency Manager (CCMgr, §4.2.3).
//!
//! The CCMgr is notified before and after method invocations (through
//! the invocation interception of the middleware node), looks up
//! affected constraints, triggers validation, gathers accessed objects,
//! degrades the satisfaction degree when possibly stale objects were
//! involved (LCC) or objects were unreachable (NCC), and negotiates the
//! resulting consistency threats (Figure 4.4). As a transactional
//! resource it vetoes commits of transactions with violated soft
//! constraints.
//!
//! This file holds replica access, evaluation and the staleness merge;
//! [`negotiation`] holds Figure 3.3 end to end, from a verdict to a
//! staged, tolerated or rejected threat. What the CCMgr knows about an
//! open transaction lives in the cluster's one record of it.

mod negotiation;

pub(crate) use negotiation::{DeferredThreat, TxThreats};
pub use negotiation::{NegotiationHandler, NegotiationTiming, ThreatDecision};

use crate::threat::{HistoryPolicy, ReconcileInstructions, ThreatStore};
use dedisys_constraints::{
    ConstraintEngine, ObjectAccess, ObjectScope, RegisteredConstraint, ValidationContext,
};
use dedisys_net::{SimClock, Topology};
use dedisys_object::{EntityContainer, EntityState, Invocation};
use dedisys_replication::ReplicationManager;
use dedisys_telemetry::{Telemetry, TraceEvent};
use dedisys_types::{
    ClassName, Error, NodeId, ObjectId, Result, SatisfactionDegree, TxId, Value, VersionInfo,
};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::BTreeSet;

/// CCM counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CcmStats {
    /// Constraint validations triggered.
    pub validations: u64,
    /// Consistency threats detected.
    pub threats_detected: u64,
    /// Threats accepted (stored or tolerated).
    pub threats_accepted: u64,
    /// Threats rejected (operations aborted).
    pub threats_rejected: u64,
    /// Definite violations detected.
    pub violations: u64,
    /// Async-invariant fast-path threats recorded without validation
    /// (§5.5.3).
    pub async_shortcuts: u64,
}

/// Replica-aware object access used during validation: local
/// transactional view first, then the committed state of any reachable
/// replica; unreachable objects error (⇒ NCC). Without a transaction
/// it reads the committed state alone — what the audit checks.
///
/// Holds only shared references — validation never mutates middleware
/// state.
pub(crate) struct ReplicaAccess<'a> {
    containers: &'a [EntityContainer],
    replication: &'a ReplicationManager,
    topology: &'a Topology,
    node: NodeId,
    tx: Option<TxId>,
}

impl<'a> ReplicaAccess<'a> {
    /// Creates replica-aware access for validation on `node` in `tx`,
    /// or outside any transaction.
    pub(crate) fn new(
        containers: &'a [EntityContainer],
        replication: &'a ReplicationManager,
        topology: &'a Topology,
        node: NodeId,
        tx: Option<TxId>,
    ) -> Self {
        Self {
            containers,
            replication,
            topology,
            node,
            tx,
        }
    }

    /// The copy of `id` a validation on this node in this transaction
    /// reads — also what the verdict cache keys its version on.
    pub(crate) fn find_entity(&self, id: &ObjectId) -> Option<&EntityState> {
        if let Some(tx) = self.tx {
            // A distributed transaction's buffered writes live on the
            // nodes that executed them — prefer those anywhere in the
            // partition (read-your-writes across nodes).
            for n in self.topology.partition_of(self.node) {
                if let Some(e) = self.containers[n.index()].buffered_view(tx, id) {
                    return Some(e);
                }
            }
        }
        self.local_copy(id)
    }

    /// The context objects `constraint` is checked for, as this node sees
    /// them: each instance of its context class, or one query-based `None`.
    pub(crate) fn contexts(&mut self, constraint: &RegisteredConstraint) -> Vec<Option<ObjectId>> {
        match &constraint.context_class {
            Some(class) if constraint.meta.needs_context_object => {
                self.objects_of_class(class).into_iter().map(Some).collect()
            }
            _ => vec![None],
        }
    }

    /// The copy of `id` this node reads past other nodes' write
    /// buffers: its own view, else the committed state of the first
    /// node of its partition holding one.
    fn local_copy(&self, id: &ObjectId) -> Option<&EntityState> {
        let own = &self.containers[self.node.index()];
        let own = match self.tx {
            Some(tx) => own.view(tx, id).ok(),
            None => own.committed_entity(id),
        };
        own.or_else(|| {
            let partition = self.topology.partition_of(self.node);
            partition
                .iter()
                .find_map(|n| self.containers[n.index()].committed_entity(id))
        })
    }
}

impl ObjectAccess for ReplicaAccess<'_> {
    fn field(&mut self, id: &ObjectId, field: &str) -> Result<Value> {
        if !self.replication.is_reachable(id, self.node, self.topology) {
            return Err(Error::ObjectUnreachable(id.clone()));
        }
        match self.find_entity(id) {
            Some(e) => Ok(e.field(field).clone()),
            None => Err(Error::ObjectNotFound(id.clone())),
        }
    }

    fn objects_of_class(&mut self, class: &ClassName) -> Vec<ObjectId> {
        let mut ids: BTreeSet<ObjectId> = BTreeSet::new();
        for n in self.topology.partition_of(self.node) {
            ids.extend(
                self.containers[n.index()]
                    .entities_of_class(class)
                    .map(|e| e.id().clone()),
            );
        }
        ids.into_iter().collect()
    }
}

/// The partition-environment values the middleware exposes to
/// constraints via `env(..)` (§5.5.2): the partition weight both as a
/// legacy fraction and as the exact integer units the GMS counts, so
/// partition-sensitive constraints can compute shares without float
/// rounding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PartitionEnv {
    /// `weight / total` as a fraction (`partitionWeight`).
    pub fraction: f64,
    /// Weight units present in the observer's partition
    /// (`partitionWeightUnits`).
    pub weight: u32,
    /// Total weight units across the cluster (`totalWeightUnits`).
    pub total: u32,
    /// Whether the topology is one partition (`healthy`).
    pub healthy: bool,
}

/// One validation candidate: a constraint and what it is validated
/// against, all of it borrowed — from the repository, and from the
/// invocation that was built once at the session boundary.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ValidationCandidate<'a> {
    /// The constraint to validate.
    pub constraint: &'a RegisteredConstraint,
    /// The resolved context object (`None` for query-based checks; a
    /// pre-/postcondition defaults to the called object).
    pub context_object: Option<&'a ObjectId>,
    /// The call under validation (pre-/postconditions only).
    pub call: Option<&'a Invocation>,
    /// The result of the call (postconditions only).
    pub result: Option<&'a Value>,
    /// The `@pre` snapshot taken before the call (postconditions only).
    pub pre_state: Option<&'a [(Cow<'static, str>, Value)]>,
}

impl<'a> ValidationCandidate<'a> {
    /// An invariant check starting from `context_object`.
    pub(crate) fn invariant(
        constraint: &'a RegisteredConstraint,
        context_object: Option<&'a ObjectId>,
    ) -> Self {
        Self {
            constraint,
            context_object,
            call: None,
            result: None,
            pre_state: None,
        }
    }
}

/// The pure evaluation of one candidate — the part of a validation the
/// verdict cache can answer instead: runs the constraint through the
/// selected engine and returns the satisfaction degree before staleness
/// adjustment (or the non-availability failure) with the objects
/// accessed, gathered into the lent `gathered` buffer. Emits no
/// telemetry, advances no clock, touches no CCM state.
///
/// Constraints are predicates and must not trigger further constraint
/// validation (§5.3). No runtime guard enforces that: `access` holds the
/// containers by shared reference for the whole evaluation, so nothing a
/// constraint can reach is able to invoke, write or commit — re-entry is
/// unrepresentable.
pub(crate) fn evaluate_candidate(
    candidate: &ValidationCandidate<'_>,
    access: &mut dyn ObjectAccess,
    env: PartitionEnv,
    engine: ConstraintEngine,
    gathered: Vec<ObjectId>,
) -> (Result<SatisfactionDegree>, Vec<ObjectId>) {
    let mut ctx = ValidationContext::borrowing(
        candidate.context_object,
        candidate.call,
        candidate.result,
        candidate.pre_state,
        access,
    );
    ctx.gather_into(gathered);
    ctx.set_env("partitionWeight", Value::Float(env.fraction));
    ctx.set_env("partitionWeightUnits", Value::Int(env.weight as i64));
    ctx.set_env("totalWeightUnits", Value::Int(env.total as i64));
    ctx.set_env("healthy", Value::Bool(env.healthy));

    let raw = candidate
        .constraint
        .implementation
        .validate_with(engine, &mut ctx);
    let accessed = ctx.take_accessed_objects();
    drop(ctx);

    let outcome = match raw {
        Ok(true) => Ok(SatisfactionDegree::Satisfied),
        Ok(false) => Ok(SatisfactionDegree::Violated),
        Err(Error::ObjectUnreachable(_)) => Ok(SatisfactionDegree::Uncheckable),
        Err(other) => Err(other),
    };
    (outcome, accessed)
}

/// A kept copy of gathered ids — a stored threat's affected objects, a
/// verdict-cache entry's read set — built by insertion: `collect()`
/// sorts through a scratch `Vec` first, a block the copy does not keep.
pub(crate) fn kept_set(ids: &[ObjectId]) -> BTreeSet<ObjectId> {
    let mut set = BTreeSet::new();
    set.extend(ids.iter().cloned());
    set
}

/// The result of validating one constraint, after staleness
/// adjustment.
#[derive(Debug, Clone)]
pub(crate) struct ValidationVerdict {
    /// Final satisfaction degree.
    pub degree: SatisfactionDegree,
    /// Objects the validation accessed, sorted and each once: the
    /// buffer the cluster lent the check, handed back after the verdict
    /// is processed.
    pub accessed: Vec<ObjectId>,
    /// Class and freshness of each accessed object — what the static
    /// path's freshness criteria read, so gathered only for a threat of
    /// a constraint that declares one.
    pub freshness: Vec<(ClassName, VersionInfo)>,
}

/// A soft/async invariant registered during a transaction, validated
/// at commit time.
#[derive(Debug, Clone)]
pub(crate) struct PendingCheck {
    /// The constraint.
    pub constraint: std::sync::Arc<RegisteredConstraint>,
    /// The resolved context object.
    pub context_object: Option<ObjectId>,
}

/// The constraint consistency manager: the threat store and the
/// counters. The settings it negotiates by are the cluster's
/// configuration, handed in per call.
pub(crate) struct Ccm {
    /// Written by commits, reconciliation and restarts only.
    pub(crate) threat_store: ThreatStore,
    default_instructions: ReconcileInstructions,
    stats: CcmStats,
    clock: SimClock,
    telemetry: Telemetry,
}

impl Ccm {
    /// Creates a CCM with the given threat-history policy, attaching
    /// `default_instructions` to new threats, reading the time off the
    /// cluster's `clock` and emitting `constraint_validated`,
    /// `staleness_hit` and `threat_rejected` on `telemetry`.
    pub(crate) fn new(
        policy: HistoryPolicy,
        default_instructions: ReconcileInstructions,
        clock: SimClock,
        telemetry: Telemetry,
    ) -> Self {
        Self {
            threat_store: ThreatStore::new(policy),
            default_instructions,
            stats: CcmStats::default(),
            clock,
            telemetry,
        }
    }

    /// CCM counters.
    pub(crate) fn stats(&self) -> CcmStats {
        self.stats
    }

    /// The second half of a validation: staleness adjustment (LCC),
    /// freshness gathering, stats and telemetry, on the
    /// [`evaluate_candidate`] result or the memoized verdict standing
    /// in for it.
    ///
    /// # Errors
    ///
    /// Propagates the evaluation failure in `outcome` (the validation
    /// is still counted) — unreachable objects were already mapped to
    /// [`SatisfactionDegree::Uncheckable`].
    pub(crate) fn finish_validation(
        &mut self,
        constraint: &RegisteredConstraint,
        outcome: Result<SatisfactionDegree>,
        accessed: Vec<ObjectId>,
        access: &ReplicaAccess<'_>,
    ) -> Result<ValidationVerdict> {
        self.stats.validations += 1;
        let node = access.node;
        let mut degree = outcome?;

        // LCC: degrade definite results when possibly stale objects
        // were accessed — except intra-object constraints (§3.1). An
        // object awaiting reconciliation is possibly stale however the
        // topology looks: after a heal its replicas disagree until the
        // replica step picks the state that stays, so a definite
        // verdict (and a satisfied one's removal of standing threats)
        // would be read off a copy that may lose. The first such object
        // is reported as a staleness hit if the topology makes it stale.
        if degree.is_definite() && constraint.meta.scope != ObjectScope::IntraObject {
            let replication = access.replication;
            let first = accessed.iter().find_map(|id| {
                let stale = replication.is_possibly_stale(id, node, access.topology);
                (stale || replication.is_degraded_tracked(id)).then_some((id, stale))
            });
            if let Some((id, stale)) = first {
                if stale {
                    self.telemetry.metrics().incr("replication.staleness_hits");
                    self.telemetry.emit(|| TraceEvent::StalenessHit {
                        object: id.text().into(),
                        node,
                    });
                }
                degree = degree.degrade_for_staleness();
            }
        }

        // Gather freshness info of the accessed objects — only a
        // freshness criterion on the static path reads it.
        let mut freshness = Vec::new();
        if degree.is_threat() && !constraint.meta.freshness.is_empty() {
            for id in &accessed {
                if let Some(entity) = access.local_copy(id) {
                    freshness.push((id.class().clone(), entity.version_info(self.clock.now())));
                }
            }
        }

        if degree.is_threat() {
            self.stats.threats_detected += 1;
        } else if degree == SatisfactionDegree::Violated {
            self.stats.violations += 1;
        }

        self.telemetry.emit(|| TraceEvent::ConstraintValidated {
            constraint: constraint.name().text().into(),
            degree,
            accessed: accessed.len() as u32,
        });

        Ok(ValidationVerdict {
            degree,
            accessed,
            freshness,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ValidationConfig;
    use crate::threat::ConsistencyThreat;
    use dedisys_constraints::expr::ExprConstraint;
    use dedisys_constraints::{ConstraintMeta, ContextPreparation, FreshnessCriterion};
    use dedisys_gms::NodeWeights;
    use dedisys_object::{AppDescriptor, ClassDescriptor, EntityState};
    use dedisys_replication::ProtocolKind;
    use dedisys_types::SimTime;
    use std::sync::Arc;

    fn app() -> AppDescriptor {
        AppDescriptor::new("t").with_class(
            ClassDescriptor::new("Flight")
                .with_field("seats", Value::Int(0))
                .with_field("sold", Value::Int(0)),
        )
    }

    fn ticket_constraint(tradeable: bool) -> RegisteredConstraint {
        let mut meta = ConstraintMeta::new("Ticket");
        if tradeable {
            meta = meta.tradeable(SatisfactionDegree::PossiblySatisfied);
        }
        RegisteredConstraint::new(
            meta,
            Arc::new(ExprConstraint::parse("self.sold <= self.seats").unwrap()),
        )
        .context_class("Flight")
        .affects("Flight", "setSold", ContextPreparation::CalledObject)
    }

    struct World {
        containers: Vec<EntityContainer>,
        replication: ReplicationManager,
        topology: Topology,
        ccm: Ccm,
        /// The CCMgr's part of the record of `tx`.
        threats: TxThreats,
        id: ObjectId,
        tx: TxId,
    }

    fn setup(n: u32, sold: i64, seats: i64) -> World {
        let mut replication =
            ReplicationManager::new(ProtocolKind::PrimaryPerPartition, NodeWeights::uniform(n));
        let id = ObjectId::new("Flight", "F1");
        replication
            .register_object(id.clone(), (0..n).map(NodeId), NodeId(0))
            .unwrap();
        let mut containers: Vec<EntityContainer> =
            (0..n).map(|_| EntityContainer::new(&app())).collect();
        for c in containers.iter_mut() {
            let tx = TxId::new(NodeId(0), 99);
            let mut e = EntityState::for_class(&app(), &id).unwrap();
            e.set_field("seats", Value::Int(seats), SimTime::ZERO);
            e.set_field("sold", Value::Int(sold), SimTime::ZERO);
            c.create(tx, e).unwrap();
            c.commit(tx);
        }
        World {
            containers,
            replication,
            topology: Topology::fully_connected(n),
            ccm: Ccm::new(
                HistoryPolicy::IdenticalOnce,
                ReconcileInstructions::default(),
                SimClock::new(),
                Telemetry::new(SimClock::new()),
            ),
            threats: TxThreats::default(),
            id,
            tx: TxId::new(NodeId(0), 1),
        }
    }

    /// Evaluation plus staleness merge, live and uncached, on node 0.
    fn validate(world: &mut World, constraint: &RegisteredConstraint) -> ValidationVerdict {
        let mut access = ReplicaAccess::new(
            &world.containers,
            &world.replication,
            &world.topology,
            NodeId(0),
            Some(world.tx),
        );
        let env = PartitionEnv {
            fraction: 1.0,
            weight: 1,
            total: 1,
            healthy: world.topology.is_healthy(),
        };
        let candidate = ValidationCandidate::invariant(constraint, Some(&world.id));
        let (outcome, accessed) = evaluate_candidate(
            &candidate,
            &mut access,
            env,
            ConstraintEngine::Interpreted,
            Vec::new(),
        );
        world
            .ccm
            .finish_validation(constraint, outcome, accessed, &access)
            .unwrap()
    }

    /// Immediate negotiation of `verdict` under the default settings,
    /// staging into `world.threats`.
    fn process(
        world: &mut World,
        constraint: &RegisteredConstraint,
        verdict: ValidationVerdict,
    ) -> Result<()> {
        world.ccm.process_verdict(
            &ValidationCandidate::invariant(constraint, Some(&world.id)),
            &verdict,
            &ValidationConfig::default(),
            &mut world.threats,
            world.tx,
        )
    }

    #[test]
    fn healthy_validation_is_definite() {
        let mut w = setup(2, 70, 80);
        let c = ticket_constraint(true);
        let v = validate(&mut w, &c);
        assert_eq!(v.degree, SatisfactionDegree::Satisfied);
        assert!(v.accessed.contains(&w.id));
        assert!(
            v.freshness.is_empty(),
            "nothing negotiates a satisfied verdict"
        );
    }

    #[test]
    fn threat_verdicts_carry_freshness_only_for_a_criterion() {
        let mut w = setup(2, 70, 80);
        w.topology.split(&[&[0], &[1]]);
        let v = validate(&mut w, &ticket_constraint(true));
        assert!(v.degree.is_threat());
        assert!(v.freshness.is_empty(), "no criterion, nothing gathered");

        let mut c = ticket_constraint(true);
        c.meta = c.meta.with_freshness(FreshnessCriterion::new("Flight", 2));
        let v = validate(&mut w, &c);
        assert!(v.degree.is_threat());
        let held = w.containers[0].committed_entity(&w.id).unwrap();
        assert_eq!(
            v.freshness,
            [(w.id.class().clone(), held.version_info(SimTime::ZERO))],
            "one entry per accessed object"
        );
    }

    #[test]
    fn degraded_validation_degrades_to_possibly() {
        let mut w = setup(2, 70, 80);
        w.topology.split(&[&[0], &[1]]);
        let c = ticket_constraint(true);
        let v = validate(&mut w, &c);
        assert_eq!(v.degree, SatisfactionDegree::PossiblySatisfied);
        // And a violated result degrades to possibly violated.
        let mut w = setup(2, 90, 80);
        w.topology.split(&[&[0], &[1]]);
        let v = validate(&mut w, &c);
        assert_eq!(v.degree, SatisfactionDegree::PossiblyViolated);
    }

    #[test]
    fn intra_object_constraints_stay_definite_under_lcc() {
        let mut w = setup(2, 70, 80);
        w.topology.split(&[&[0], &[1]]);
        let mut c = ticket_constraint(true);
        c.meta.scope = ObjectScope::IntraObject;
        let v = validate(&mut w, &c);
        assert_eq!(v.degree, SatisfactionDegree::Satisfied);
    }

    #[test]
    fn unreachable_objects_make_constraints_uncheckable() {
        let mut w = setup(3, 70, 80);
        // Bind the object to nodes {1,2} only; validate from node 0
        // after a partition.
        w.replication
            .register_object(w.id.clone(), [NodeId(1), NodeId(2)], NodeId(1))
            .unwrap();
        w.topology.split(&[&[0], &[1, 2]]);
        let c = ticket_constraint(true);
        let v = validate(&mut w, &c);
        assert_eq!(v.degree, SatisfactionDegree::Uncheckable);
    }

    #[test]
    fn process_verdict_paths() {
        let mut w = setup(2, 70, 80);
        let c = ticket_constraint(true);

        // Satisfied: no error, nothing staged.
        let v = validate(&mut w, &c);
        assert_eq!(process(&mut w, &c, v), Ok(()));
        assert!(w.threats.accepted.is_empty() && w.threats.cleaned.is_empty());

        // Threat (accepted statically): staged for the commit, not
        // stored.
        w.topology.split(&[&[0], &[1]]);
        let v = validate(&mut w, &c);
        assert_eq!(process(&mut w, &c, v), Ok(()));
        assert_eq!(w.threats.accepted.len(), 1);
        assert!(w.ccm.threat_store.is_empty());

        // Identical threat: staged too; the store deduplicates at the
        // commit.
        let v = validate(&mut w, &c);
        assert_eq!(process(&mut w, &c, v), Ok(()));
        assert_eq!(w.threats.accepted.len(), 2);
        assert!(w.ccm.threat_store.is_empty());
    }

    #[test]
    fn non_tradeable_threats_reject() {
        let mut w = setup(2, 70, 80);
        w.topology.split(&[&[0], &[1]]);
        let c = ticket_constraint(false);
        let v = validate(&mut w, &c);
        let err = process(&mut w, &c, v).unwrap_err();
        assert!(matches!(err, Error::ThreatRejected { .. }));
        assert_eq!(w.ccm.stats().threats_rejected, 1);
        assert!(w.threats.accepted.is_empty());
    }

    #[test]
    fn violation_in_healthy_mode_errors() {
        let mut w = setup(2, 90, 80);
        let c = ticket_constraint(true);
        let v = validate(&mut w, &c);
        let err = process(&mut w, &c, v).unwrap_err();
        assert!(matches!(err, Error::ConstraintViolated { .. }));
    }

    #[test]
    fn dynamic_handler_enriches_threat() {
        let mut w = setup(2, 70, 80);
        w.topology.split(&[&[0], &[1]]);
        // A non-tradeable constraint rejects before the handler is
        // asked: a tradeable one shows the app data landing in the
        // staged threat.
        let c = ticket_constraint(true);
        let handler = |threat: &mut ConsistencyThreat| {
            threat.app_data = Some(Value::from("sold-in-partition"));
            threat.instructions.allow_rollback = true;
            ThreatDecision::Accept
        };
        w.threats.handler = Some(Box::new(handler));
        let v = validate(&mut w, &c);
        process(&mut w, &c, v).unwrap();
        let staged = &w.threats.accepted[0];
        assert_eq!(staged.app_data, Some(Value::from("sold-in-partition")));
        assert!(staged.instructions.allow_rollback);
    }

    #[test]
    fn satisfied_validation_cleans_up_deferred_threats() {
        let mut w = setup(2, 70, 80);
        let c = ticket_constraint(true);
        w.topology.split(&[&[0], &[1]]);
        let v = validate(&mut w, &c);
        process(&mut w, &c, v).unwrap();
        assert_eq!(w.threats.accepted.len(), 1);
        w.topology.heal();
        let v = validate(&mut w, &c);
        process(&mut w, &c, v).unwrap();
        assert!(
            w.threats.accepted.is_empty(),
            "the transaction's own threat is cleaned up by its later check"
        );
        assert!(
            w.threats.cleaned.is_empty(),
            "the store holds nothing for the commit to remove"
        );
    }

    #[test]
    fn async_fast_path_records_without_validation() {
        let mut w = setup(2, 70, 80);
        let c = ticket_constraint(true);
        let threat = w.ccm.record_async_threat(&c, Some(&w.id), w.tx);
        assert_eq!(threat.degree, SatisfactionDegree::Uncheckable);
        assert_eq!(w.ccm.stats().validations, 0);
        assert_eq!(w.ccm.stats().async_shortcuts, 1);
    }
}
