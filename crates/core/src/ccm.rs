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

use crate::negotiation::{negotiate, NegotiationHandler, NegotiationPath, ThreatDecision};
use crate::threat::{
    ConsistencyThreat, HistoryPolicy, ReconcileInstructions, StoreOutcome, ThreatStore,
};
use dedisys_constraints::{
    ConstraintEngine, ObjectAccess, ObjectScope, RegisteredConstraint, ValidationContext,
};
use dedisys_net::Topology;
use dedisys_object::{EntityContainer, Invocation};
use dedisys_replication::ReplicationManager;
use dedisys_telemetry::{Telemetry, ThreatStorage, TraceEvent};
use dedisys_types::{
    ClassName, ConstraintName, Error, NodeId, ObjectId, Result, SatisfactionDegree, SimTime,
    TxBuildHasher, TxId, Value, Version, VersionInfo,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap};

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
/// replica; unreachable objects error (⇒ NCC).
///
/// Holds only shared references — validation never mutates middleware
/// state.
pub struct ReplicaAccess<'a> {
    containers: &'a [EntityContainer],
    replication: &'a ReplicationManager,
    topology: &'a Topology,
    node: NodeId,
    tx: TxId,
}

impl<'a> ReplicaAccess<'a> {
    /// Creates replica-aware access for validation on `node` in `tx`.
    pub fn new(
        containers: &'a [EntityContainer],
        replication: &'a ReplicationManager,
        topology: &'a Topology,
        node: NodeId,
        tx: TxId,
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
    pub(crate) fn find_entity(&self, id: &ObjectId) -> Option<&dedisys_object::EntityState> {
        // A distributed transaction's buffered writes live on the nodes
        // that executed them — prefer those anywhere in the partition
        // (read-your-writes across nodes).
        for n in self.topology.partition_of(self.node) {
            if let Some(e) = self.containers[n.index()].buffered_view(self.tx, id) {
                return Some(e);
            }
        }
        if let Ok(e) = self.containers[self.node.index()].view(self.tx, id) {
            return Some(e);
        }
        for n in self.topology.partition_of(self.node) {
            if let Some(e) = self.containers[n.index()].committed_entity(id) {
                return Some(e);
            }
        }
        None
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
pub struct PartitionEnv {
    /// `weight / total` as a fraction (`partitionWeight`).
    pub fraction: f64,
    /// Weight units present in the observer's partition
    /// (`partitionWeightUnits`).
    pub weight: u32,
    /// Total weight units across the cluster (`totalWeightUnits`).
    pub total: u32,
}

impl PartitionEnv {
    /// The environment of an undivided cluster (tests, single node).
    pub fn full() -> Self {
        Self {
            fraction: 1.0,
            weight: 1,
            total: 1,
        }
    }
}

/// One validation candidate: a constraint and what it is validated
/// against, all of it borrowed — from the repository, and from the
/// invocation that was built once at the session boundary.
#[derive(Debug, Clone, Copy)]
pub struct ValidationCandidate<'a> {
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
    pub pre_state: Option<&'a BTreeMap<String, Value>>,
}

impl<'a> ValidationCandidate<'a> {
    /// An invariant check starting from `context_object`.
    pub fn invariant(
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
/// accessed. Emits no telemetry, advances no clock, touches no CCM state.
pub(crate) fn evaluate_candidate(
    candidate: &ValidationCandidate<'_>,
    access: &mut ReplicaAccess<'_>,
    env: PartitionEnv,
    engine: ConstraintEngine,
) -> (Result<SatisfactionDegree>, BTreeSet<ObjectId>) {
    let topology_healthy = access.topology.is_healthy();
    let mut ctx = ValidationContext::borrowing(
        candidate.context_object,
        candidate.call,
        candidate.result,
        candidate.pre_state,
        access,
    );
    ctx.set_env("partitionWeight", Value::Float(env.fraction));
    ctx.set_env("partitionWeightUnits", Value::Int(env.weight as i64));
    ctx.set_env("totalWeightUnits", Value::Int(env.total as i64));
    ctx.set_env("healthy", Value::Bool(topology_healthy));

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

/// The result of validating one constraint, after staleness
/// adjustment.
#[derive(Debug, Clone)]
pub struct ValidationVerdict {
    /// Final satisfaction degree.
    pub degree: SatisfactionDegree,
    /// Objects the validation accessed.
    pub accessed: BTreeSet<ObjectId>,
    /// Freshness info of the accessed objects, for static negotiation —
    /// gathered for threat degrees only, nothing else reads it.
    pub version_infos: BTreeMap<String, (ClassName, VersionInfo)>,
}

/// A soft/async invariant registered during a transaction, validated
/// at commit time.
#[derive(Debug, Clone)]
pub struct PendingCheck {
    /// The constraint.
    pub constraint: std::sync::Arc<RegisteredConstraint>,
    /// The resolved context object.
    pub context_object: Option<ObjectId>,
}

/// When consistency threats are negotiated (§5.4): immediately when
/// they occur, or deferred until the end of the transaction — the
/// operation continues under the assumption that all threats will be
/// accepted, and the transaction blocks before commit until every
/// decision is available.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NegotiationTiming {
    /// Negotiate as soon as the threat arises.
    #[default]
    Immediate,
    /// Collect threats during the transaction; negotiate at commit.
    Deferred,
}

/// A threat awaiting deferred negotiation.
struct DeferredThreat {
    constraint: RegisteredConstraint,
    threat: ConsistencyThreat,
    version_infos: BTreeMap<String, (ClassName, VersionInfo)>,
}

/// What the CCMgr remembers about one open transaction: the record is
/// there from [`Ccm::begin_tx`] to [`Ccm::clear_tx`] and not a moment
/// longer.
#[derive(Default)]
struct TxChecks {
    /// Soft/async invariants awaiting the commit-time vote.
    pending: Vec<PendingCheck>,
    /// The transaction's dynamic negotiation handler (§3.2.1).
    handler: Option<Box<dyn NegotiationHandler>>,
    /// Threats awaiting deferred negotiation (§5.4).
    deferred: Vec<DeferredThreat>,
}

/// One memoized verdict of the version-keyed cache: valid while the
/// committed version of the context object is unchanged. Only definite
/// raw outcomes are cached (`Satisfied`/`Violated`) — staleness
/// degradation and unreachability depend on topology and are recomputed
/// at every use.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedVerdict {
    /// Committed version of the context object at evaluation time.
    pub version: Version,
    /// The raw (pre-staleness) satisfaction degree.
    pub degree: SatisfactionDegree,
    /// Objects the original evaluation accessed.
    pub accessed: BTreeSet<ObjectId>,
}

/// The constraint consistency manager.
pub struct Ccm {
    threat_store: ThreatStore,
    txs: HashMap<TxId, TxChecks, TxBuildHasher>,
    timing: NegotiationTiming,
    app_default_min_degree: SatisfactionDegree,
    default_instructions: ReconcileInstructions,
    /// Version-keyed verdict cache: context object → (observing node,
    /// constraint) → memoized verdict. Object-first so a write
    /// invalidates every dependent entry with one range removal.
    verdict_cache: BTreeMap<ObjectId, BTreeMap<(NodeId, ConstraintName), CachedVerdict>>,
    stats: CcmStats,
    telemetry: Option<Telemetry>,
}

/// Maps a threat-store outcome onto its telemetry representation.
fn storage_kind(outcome: StoreOutcome) -> ThreatStorage {
    match outcome {
        StoreOutcome::Stored => ThreatStorage::Stored,
        StoreOutcome::LinkedOccurrence => ThreatStorage::LinkedOccurrence,
        StoreOutcome::Deduplicated => ThreatStorage::Deduplicated,
    }
}

impl std::fmt::Debug for Ccm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ccm")
            .field("threats", &self.threat_store.len())
            .field("open_txs", &self.txs.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Ccm {
    /// Creates a CCM with the given threat-history policy.
    pub fn new(policy: HistoryPolicy) -> Self {
        Self {
            threat_store: ThreatStore::new(policy),
            txs: HashMap::default(),
            timing: NegotiationTiming::Immediate,
            app_default_min_degree: SatisfactionDegree::Satisfied,
            default_instructions: ReconcileInstructions::default(),
            verdict_cache: BTreeMap::new(),
            stats: CcmStats::default(),
            telemetry: None,
        }
    }

    /// Looks up a memoized verdict for (`object`, `node`, `constraint`)
    /// whose cached version matches `version`.
    pub fn cached_verdict(
        &self,
        object: &ObjectId,
        node: NodeId,
        constraint: &ConstraintName,
        version: Version,
    ) -> Option<&CachedVerdict> {
        self.verdict_cache
            .get(object)?
            .get(&(node, constraint.clone()))
            .filter(|c| c.version == version)
    }

    /// Memoizes a verdict. Callers only store definite raw outcomes of
    /// committed state (never buffered transactional views), so abort
    /// paths need no invalidation.
    pub fn store_verdict(
        &mut self,
        object: ObjectId,
        node: NodeId,
        constraint: ConstraintName,
        verdict: CachedVerdict,
    ) {
        debug_assert!(matches!(
            verdict.degree,
            SatisfactionDegree::Satisfied | SatisfactionDegree::Violated
        ));
        self.verdict_cache
            .entry(object)
            .or_default()
            .insert((node, constraint), verdict);
    }

    /// Drops every cached verdict that depends on `object` (as context
    /// object or as an object the evaluation accessed). Returns the
    /// number of entries removed.
    pub fn invalidate_object(&mut self, object: &ObjectId) -> usize {
        let mut removed = self
            .verdict_cache
            .remove(object)
            .map_or(0, |entries| entries.len());
        // Cacheable read-sets never navigate across objects, so the
        // accessed set normally only holds the context object itself —
        // this sweep is a backstop for constraints whose dynamic reads
        // exceeded their static read-set.
        self.verdict_cache.retain(|_, entries| {
            entries.retain(|_, v| {
                let depends = v.accessed.contains(object);
                if depends {
                    removed += 1;
                }
                !depends
            });
            !entries.is_empty()
        });
        removed
    }

    /// Drops every cached verdict of `constraint` (constraint removed
    /// or redefined at runtime). Returns the number of entries removed.
    pub fn invalidate_constraint(&mut self, constraint: &ConstraintName) -> usize {
        let mut removed = 0;
        self.verdict_cache.retain(|_, entries| {
            entries.retain(|(_, name), _| {
                let matches = name == constraint;
                if matches {
                    removed += 1;
                }
                !matches
            });
            !entries.is_empty()
        });
        removed
    }

    /// Clears the whole verdict cache (reconciliation rewrote replica
    /// state, a node restarted, or the cache was toggled off). Returns
    /// the number of entries removed.
    pub fn clear_verdict_cache(&mut self) -> usize {
        let removed = self.verdict_cache.values().map(BTreeMap::len).sum();
        self.verdict_cache.clear();
        removed
    }

    /// Number of memoized verdicts currently held.
    pub fn verdict_cache_len(&self) -> usize {
        self.verdict_cache.values().map(BTreeMap::len).sum()
    }

    /// Wires a telemetry bus; `constraint_validated`, `threat_recorded`
    /// and `threat_rejected` events are emitted from now on.
    pub fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = Some(telemetry);
    }

    fn emit_threat_recorded(
        &self,
        constraint: &RegisteredConstraint,
        context: Option<&ObjectId>,
        degree: SatisfactionDegree,
        outcome: StoreOutcome,
    ) {
        if let Some(t) = &self.telemetry {
            t.metrics().incr("ccm.threats_recorded");
            t.emit(|| TraceEvent::ThreatRecorded {
                constraint: constraint.name().text().into(),
                context: context.map(|object| object.text().into()),
                degree,
                storage: storage_kind(outcome),
            });
        }
    }

    /// Counts which §3.2 negotiation mechanism decided a threat.
    fn note_negotiation_path(&self, path: NegotiationPath) {
        if let Some(t) = &self.telemetry {
            t.metrics().incr(match path {
                NegotiationPath::NonTradeable => "negotiation.non_tradeable",
                NegotiationPath::Dynamic => "negotiation.dynamic",
                NegotiationPath::Static => "negotiation.static",
                NegotiationPath::Default => "negotiation.default",
            });
        }
    }

    /// CCM counters.
    pub fn stats(&self) -> CcmStats {
        self.stats
    }

    /// The threat store.
    pub fn threat_store(&self) -> &ThreatStore {
        &self.threat_store
    }

    /// Mutable threat store (reconciliation).
    pub fn threat_store_mut(&mut self) -> &mut ThreatStore {
        &mut self.threat_store
    }

    /// Sets the application-wide default minimum satisfaction degree
    /// (lowest-priority negotiation mechanism).
    pub fn set_app_default_min_degree(&mut self, degree: SatisfactionDegree) {
        self.app_default_min_degree = degree;
    }

    /// The application-wide default minimum satisfaction degree.
    pub fn app_default_min_degree(&self) -> SatisfactionDegree {
        self.app_default_min_degree
    }

    /// Selects immediate or deferred negotiation (§5.4).
    pub fn set_negotiation_timing(&mut self, timing: NegotiationTiming) {
        self.timing = timing;
    }

    /// The negotiation timing in force.
    pub fn negotiation_timing(&self) -> NegotiationTiming {
        self.timing
    }

    /// Sets the default reconciliation instructions attached to new
    /// threats.
    pub fn set_default_instructions(&mut self, instructions: ReconcileInstructions) {
        self.default_instructions = instructions;
    }

    /// Opens the record of `tx`; [`Ccm::clear_tx`] ends it.
    pub fn begin_tx(&mut self, tx: TxId) {
        self.txs.insert(tx, TxChecks::default());
    }

    /// Transactions the CCMgr holds a record of.
    pub(crate) fn open_tx_count(&self) -> usize {
        self.txs.len()
    }

    /// The record of `tx` — there is one exactly while it is open.
    fn open_record(&mut self, tx: TxId) -> Result<&mut TxChecks> {
        self.txs.get_mut(&tx).ok_or(Error::NoSuchTransaction(tx))
    }

    /// Registers a dynamic negotiation handler for `tx` (§3.2.1).
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoSuchTransaction`] unless `tx` is open.
    pub fn register_negotiation_handler(
        &mut self,
        tx: TxId,
        handler: Box<dyn NegotiationHandler>,
    ) -> Result<()> {
        self.open_record(tx)?.handler = Some(handler);
        Ok(())
    }

    /// Registers a soft/async invariant for commit-time validation.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NoSuchTransaction`] unless `tx` is open.
    pub fn register_pending(&mut self, tx: TxId, check: PendingCheck) -> Result<()> {
        self.open_record(tx)?.pending.push(check);
        Ok(())
    }

    /// Takes the pending checks of `tx`.
    pub fn take_pending(&mut self, tx: TxId) -> Vec<PendingCheck> {
        self.txs
            .get_mut(&tx)
            .map(|record| std::mem::take(&mut record.pending))
            .unwrap_or_default()
    }

    /// Ends the record of `tx` (commit/rollback).
    pub fn clear_tx(&mut self, tx: TxId) {
        self.txs.remove(&tx);
    }

    /// Validates one constraint — evaluation, then the staleness
    /// adjustment of §4.2.3, statistics and `constraint_validated` —
    /// live and uncached, as reconciliation re-evaluates stored threats.
    ///
    /// Constraints are predicates and must not trigger further
    /// constraint validation (§5.3). No runtime guard enforces that:
    /// `access` holds the containers by shared reference for the whole
    /// evaluation, so nothing a constraint can reach is able to invoke,
    /// write or commit — re-entry is unrepresentable.
    ///
    /// # Errors
    ///
    /// Propagates non-availability validation failures (configuration
    /// or expression errors) — unreachable objects are mapped to
    /// [`SatisfactionDegree::Uncheckable`] instead.
    pub fn validate_constraint(
        &mut self,
        candidate: &ValidationCandidate<'_>,
        access: &mut ReplicaAccess<'_>,
        env: PartitionEnv,
        engine: ConstraintEngine,
        now: SimTime,
    ) -> Result<ValidationVerdict> {
        let (outcome, accessed) = evaluate_candidate(candidate, access, env, engine);
        self.finish_validation(candidate.constraint, outcome, accessed, access, now)
    }

    /// The second half of a validation: staleness adjustment (LCC),
    /// freshness gathering, stats and telemetry, on the
    /// [`evaluate_candidate`] result or the memoized verdict standing
    /// in for it.
    ///
    /// # Errors
    ///
    /// Propagates the evaluation failure in `outcome` (the validation
    /// is still counted).
    pub(crate) fn finish_validation(
        &mut self,
        constraint: &RegisteredConstraint,
        outcome: Result<SatisfactionDegree>,
        accessed: BTreeSet<ObjectId>,
        access: &ReplicaAccess<'_>,
        now: SimTime,
    ) -> Result<ValidationVerdict> {
        self.stats.validations += 1;
        let node = access.node;
        let tx = access.tx;
        let mut degree = outcome?;

        // LCC: degrade definite results when possibly stale objects
        // were accessed — except intra-object constraints (§3.1).
        if degree.is_definite() && constraint.meta.scope != ObjectScope::IntraObject {
            let any_stale = accessed.iter().any(|id| {
                access
                    .replication
                    .is_possibly_stale(id, node, access.topology)
            });
            if any_stale {
                degree = degree.degrade_for_staleness();
            }
        }

        // Gather freshness info of the accessed objects — only static
        // negotiation of a threat reads it.
        let mut version_infos = BTreeMap::new();
        if degree.is_threat() {
            for id in &accessed {
                let entity = access.containers[node.index()]
                    .view(tx, id)
                    .ok()
                    .or_else(|| {
                        access
                            .topology
                            .partition_of(node)
                            .iter()
                            .find_map(|n| access.containers[n.index()].committed_entity(id))
                    });
                if let Some(entity) = entity {
                    version_infos.insert(
                        id.to_string(),
                        (id.class().clone(), entity.version_info(now)),
                    );
                }
            }
        }

        if degree.is_threat() {
            self.stats.threats_detected += 1;
        } else if degree == SatisfactionDegree::Violated {
            self.stats.violations += 1;
        }

        if let Some(t) = &self.telemetry {
            t.emit(|| TraceEvent::ConstraintValidated {
                constraint: constraint.name().text().into(),
                degree,
                accessed: accessed.len() as u32,
            });
        }

        Ok(ValidationVerdict {
            degree,
            accessed,
            version_infos,
        })
    }

    /// Processes a validation verdict: satisfied → continue (and clean
    /// up matching deferred threats, §4.4); violated → abort; threat →
    /// negotiate and either store (invariants) or tolerate (pre/post,
    /// §3) or abort.
    ///
    /// Returns the store outcome when a threat was persisted (the
    /// cluster charges persistence costs accordingly).
    ///
    /// # Errors
    ///
    /// * [`Error::ConstraintViolated`] — definite violation.
    /// * [`Error::ThreatRejected`] — threat not accepted.
    /// * [`Error::NoSuchTransaction`] — a threat to defer, and `tx` is
    ///   not open.
    pub fn process_verdict(
        &mut self,
        constraint: &RegisteredConstraint,
        context_object: Option<&ObjectId>,
        verdict: ValidationVerdict,
        tx: TxId,
        now: SimTime,
    ) -> Result<Option<StoreOutcome>> {
        match verdict.degree {
            SatisfactionDegree::Satisfied => {
                // A satisfied validation cleans up deferred threats of
                // the same identity (§4.4).
                self.threat_store
                    .remove_identity(constraint.name(), context_object);
                Ok(None)
            }
            SatisfactionDegree::Violated => Err(Error::ConstraintViolated {
                constraint: constraint.name().clone(),
            }),
            degree => {
                let threat = ConsistencyThreat {
                    constraint: constraint.name().clone(),
                    context_object: context_object.cloned(),
                    degree,
                    affected_objects: verdict.accessed,
                    app_data: None,
                    instructions: self.default_instructions,
                    occurred_at: now,
                    tx,
                };
                if self.timing == NegotiationTiming::Deferred {
                    // §5.4: continue under the assumption that the
                    // threat will be accepted; the decision is made at
                    // commit time.
                    self.open_record(tx)?.deferred.push(DeferredThreat {
                        constraint: constraint.clone(),
                        threat,
                        version_infos: verdict.version_infos,
                    });
                    return Ok(None);
                }
                self.negotiate_threat(constraint, context_object, threat, &verdict.version_infos)
            }
        }
    }

    /// The one negotiation of a threat (§3.2), immediate or deferred. A
    /// rejection is counted and reported; an accepted invariant threat
    /// is persisted and its store outcome returned (`context_object`,
    /// the threat's own, names it in the record once the store owns
    /// it); an accepted pre-/postcondition threat is only tolerated: it
    /// cannot be re-evaluated later (§3), so invariants must cover it.
    /// Accepting with `app_data` the threat journal could not give back
    /// ([`Value::check_journalable`]) refuses the operation with
    /// [`Error::IllTypedField`] (`name: "app_data"`) and stores nothing.
    fn negotiate_threat(
        &mut self,
        constraint: &RegisteredConstraint,
        context_object: Option<&ObjectId>,
        mut threat: ConsistencyThreat,
        version_infos: &BTreeMap<String, (ClassName, VersionInfo)>,
    ) -> Result<Option<StoreOutcome>> {
        let degree = threat.degree;
        let handler = self
            .txs
            .get_mut(&threat.tx)
            .and_then(|record| record.handler.as_mut())
            .map(|h| &mut **h as &mut dyn NegotiationHandler);
        let (decision, path) = negotiate(
            constraint,
            &mut threat,
            handler,
            version_infos,
            self.app_default_min_degree,
        );
        self.note_negotiation_path(path);
        match decision {
            ThreatDecision::Reject => {
                self.stats.threats_rejected += 1;
                if let Some(t) = &self.telemetry {
                    t.emit(|| TraceEvent::ThreatRejected {
                        constraint: constraint.name().text().into(),
                        degree,
                    });
                }
                Err(Error::ThreatRejected {
                    constraint: constraint.name().clone(),
                    degree,
                })
            }
            ThreatDecision::Accept => {
                if let Some(data) = &threat.app_data {
                    data.check_journalable("app_data")?;
                }
                self.stats.threats_accepted += 1;
                if !constraint.meta.kind.is_invariant() {
                    return Ok(None);
                }
                let outcome = self.threat_store.store(threat)?;
                self.emit_threat_recorded(constraint, context_object, degree, outcome);
                Ok(Some(outcome))
            }
        }
    }

    /// Negotiates every threat deferred during `tx` (called by the
    /// middleware before commit). Returns the storage outcomes of the
    /// accepted invariant threats so the caller can charge persistence
    /// costs.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ThreatRejected`] for the first rejected threat;
    /// the transaction must then be rolled back.
    pub fn negotiate_deferred(&mut self, tx: TxId) -> Result<Vec<StoreOutcome>> {
        let deferred = self
            .txs
            .get_mut(&tx)
            .map(|record| std::mem::take(&mut record.deferred))
            .unwrap_or_default();
        let mut outcomes = Vec::new();
        for DeferredThreat {
            constraint,
            threat,
            version_infos,
        } in deferred
        {
            let context = threat.context_object.clone();
            outcomes.extend(self.negotiate_threat(
                &constraint,
                context.as_ref(),
                threat,
                &version_infos,
            )?);
        }
        Ok(outcomes)
    }

    /// Number of threats currently awaiting deferred negotiation in
    /// `tx`.
    pub fn deferred_len(&self, tx: TxId) -> usize {
        self.txs.get(&tx).map_or(0, |record| record.deferred.len())
    }

    /// The §5.5.3 asynchronous-constraint fast path: in degraded mode
    /// the constraint is not validated and not negotiated; a threat is
    /// recorded directly for reconciliation-time evaluation.
    ///
    /// # Errors
    ///
    /// As [`ThreatStore::store`].
    pub fn record_async_threat(
        &mut self,
        constraint: &RegisteredConstraint,
        context_object: Option<&ObjectId>,
        tx: TxId,
        now: SimTime,
    ) -> Result<StoreOutcome> {
        self.stats.async_shortcuts += 1;
        self.stats.threats_detected += 1;
        self.stats.threats_accepted += 1;
        let outcome = self.threat_store.store(ConsistencyThreat {
            constraint: constraint.name().clone(),
            context_object: context_object.cloned(),
            degree: SatisfactionDegree::Uncheckable,
            affected_objects: BTreeSet::new(),
            app_data: None,
            instructions: self.default_instructions,
            occurred_at: now,
            tx,
        })?;
        self.emit_threat_recorded(
            constraint,
            context_object,
            SatisfactionDegree::Uncheckable,
            outcome,
        );
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dedisys_constraints::expr::ExprConstraint;
    use dedisys_constraints::{ConstraintMeta, ContextPreparation};
    use dedisys_gms::NodeWeights;
    use dedisys_object::{AppDescriptor, ClassDescriptor, EntityState};
    use dedisys_replication::ProtocolKind;
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
            ccm: Ccm::new(HistoryPolicy::IdenticalOnce),
            id,
            tx: TxId::new(NodeId(0), 1),
        }
    }

    fn validate(world: &mut World, constraint: &RegisteredConstraint) -> ValidationVerdict {
        let mut access = ReplicaAccess::new(
            &world.containers,
            &world.replication,
            &world.topology,
            NodeId(0),
            world.tx,
        );
        world
            .ccm
            .validate_constraint(
                &ValidationCandidate::invariant(constraint, Some(&world.id)),
                &mut access,
                PartitionEnv::full(),
                ConstraintEngine::Interpreted,
                SimTime::ZERO,
            )
            .unwrap()
    }

    #[test]
    fn healthy_validation_is_definite() {
        let mut w = setup(2, 70, 80);
        let c = ticket_constraint(true);
        let v = validate(&mut w, &c);
        assert_eq!(v.degree, SatisfactionDegree::Satisfied);
        assert!(v.accessed.contains(&w.id));
        assert!(
            v.version_infos.is_empty(),
            "nothing negotiates a satisfied verdict"
        );
    }

    #[test]
    fn threat_verdicts_carry_freshness_of_every_accessed_object() {
        let mut w = setup(2, 70, 80);
        w.topology.split(&[&[0], &[1]]);
        let v = validate(&mut w, &ticket_constraint(true));
        assert!(v.degree.is_threat());
        assert_eq!(
            v.version_infos.keys().cloned().collect::<Vec<_>>(),
            v.accessed
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
        );
        let (class, info) = &v.version_infos[&w.id.to_string()];
        assert_eq!(class, w.id.class());
        let held = w.containers[0].committed_entity(&w.id).unwrap();
        assert_eq!(*info, held.version_info(SimTime::ZERO));
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

        // Satisfied: no error, nothing stored.
        let v = validate(&mut w, &c);
        let outcome = w
            .ccm
            .process_verdict(&c, Some(&w.id), v, w.tx, SimTime::ZERO)
            .unwrap();
        assert!(outcome.is_none());

        // Threat (accepted statically): stored.
        w.topology.split(&[&[0], &[1]]);
        let v = validate(&mut w, &c);
        let outcome = w
            .ccm
            .process_verdict(&c, Some(&w.id), v, w.tx, SimTime::ZERO)
            .unwrap();
        assert_eq!(outcome, Some(StoreOutcome::Stored));
        assert_eq!(w.ccm.threat_store().len(), 1);

        // Identical threat: deduplicated.
        let v = validate(&mut w, &c);
        let outcome = w
            .ccm
            .process_verdict(&c, Some(&w.id), v, w.tx, SimTime::ZERO)
            .unwrap();
        assert_eq!(outcome, Some(StoreOutcome::Deduplicated));
    }

    #[test]
    fn non_tradeable_threats_reject() {
        let mut w = setup(2, 70, 80);
        w.topology.split(&[&[0], &[1]]);
        let c = ticket_constraint(false);
        let v = validate(&mut w, &c);
        let err = w
            .ccm
            .process_verdict(&c, Some(&w.id), v, w.tx, SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, Error::ThreatRejected { .. }));
        assert_eq!(w.ccm.stats().threats_rejected, 1);
    }

    #[test]
    fn violation_in_healthy_mode_errors() {
        let mut w = setup(2, 90, 80);
        let c = ticket_constraint(true);
        let v = validate(&mut w, &c);
        let err = w
            .ccm
            .process_verdict(&c, Some(&w.id), v, w.tx, SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, Error::ConstraintViolated { .. }));
    }

    #[test]
    fn dynamic_handler_enriches_threat() {
        let mut w = setup(2, 70, 80);
        w.topology.split(&[&[0], &[1]]);
        let c = ticket_constraint(false); // would auto-reject…
                                          // …but wait: non-tradeable rejects before the handler. Use a
                                          // tradeable one and verify app data lands in the store.
        let c = {
            let _ = c;
            ticket_constraint(true)
        };
        w.ccm.begin_tx(w.tx);
        w.ccm
            .register_negotiation_handler(
                w.tx,
                Box::new(|threat: &mut ConsistencyThreat| {
                    threat.app_data = Some(Value::from("sold-in-partition"));
                    threat.instructions.allow_rollback = true;
                    ThreatDecision::Accept
                }),
            )
            .unwrap();
        let v = validate(&mut w, &c);
        w.ccm
            .process_verdict(&c, Some(&w.id), v, w.tx, SimTime::ZERO)
            .unwrap();
        let stored = &w.ccm.threat_store().threats()[0];
        assert_eq!(stored.app_data, Some(Value::from("sold-in-partition")));
        assert!(stored.instructions.allow_rollback);
    }

    /// Handler, pending checks and deferred threats live in the one
    /// record of an open transaction: before `begin_tx` and after
    /// `clear_tx` there is nowhere to put them.
    #[test]
    fn a_transaction_that_is_not_open_takes_no_registration() {
        let mut w = setup(2, 70, 80);
        let accept = || Box::new(|_: &mut ConsistencyThreat| ThreatDecision::Accept);
        let pending = || PendingCheck {
            constraint: Arc::new(ticket_constraint(true)),
            context_object: None,
        };
        let closed = Err(Error::NoSuchTransaction(w.tx));
        for round in ["never begun", "ended"] {
            assert_eq!(w.ccm.register_negotiation_handler(w.tx, accept()), closed);
            assert_eq!(w.ccm.register_pending(w.tx, pending()), closed, "{round}");
            assert_eq!(w.ccm.open_tx_count(), 0, "{round}");
            w.ccm.begin_tx(w.tx);
            w.ccm.register_negotiation_handler(w.tx, accept()).unwrap();
            w.ccm.register_pending(w.tx, pending()).unwrap();
            w.ccm.clear_tx(w.tx);
        }
        assert!(w.ccm.take_pending(w.tx).is_empty());
    }

    #[test]
    fn satisfied_validation_cleans_up_deferred_threats() {
        let mut w = setup(2, 70, 80);
        let c = ticket_constraint(true);
        w.topology.split(&[&[0], &[1]]);
        let v = validate(&mut w, &c);
        w.ccm
            .process_verdict(&c, Some(&w.id), v, w.tx, SimTime::ZERO)
            .unwrap();
        assert_eq!(w.ccm.threat_store().len(), 1);
        w.topology.heal();
        let v = validate(&mut w, &c);
        w.ccm
            .process_verdict(&c, Some(&w.id), v, w.tx, SimTime::ZERO)
            .unwrap();
        assert!(w.ccm.threat_store().is_empty(), "cleaned up by business op");
    }

    #[test]
    fn verdict_cache_probe_store_invalidate() {
        let mut ccm = Ccm::new(HistoryPolicy::IdenticalOnce);
        let id = ObjectId::new("Flight", "F1");
        let other = ObjectId::new("Flight", "F2");
        let name = ConstraintName::from("Ticket");
        let verdict = CachedVerdict {
            version: Version(3),
            degree: SatisfactionDegree::Satisfied,
            accessed: BTreeSet::from([id.clone()]),
        };
        ccm.store_verdict(id.clone(), NodeId(0), name.clone(), verdict.clone());
        assert_eq!(
            ccm.cached_verdict(&id, NodeId(0), &name, Version(3)),
            Some(&verdict)
        );
        // Stale version, other node, other constraint: all misses.
        assert!(ccm
            .cached_verdict(&id, NodeId(0), &name, Version(4))
            .is_none());
        assert!(ccm
            .cached_verdict(&id, NodeId(1), &name, Version(3))
            .is_none());
        assert!(ccm
            .cached_verdict(&id, NodeId(0), &ConstraintName::from("Other"), Version(3))
            .is_none());

        // Invalidating an unrelated object leaves the entry alone.
        assert_eq!(ccm.invalidate_object(&other), 0);
        assert_eq!(ccm.verdict_cache_len(), 1);
        assert_eq!(ccm.invalidate_object(&id), 1);
        assert!(ccm
            .cached_verdict(&id, NodeId(0), &name, Version(3))
            .is_none());

        // An entry whose accessed set includes another object is also
        // dropped when that object is invalidated.
        let cross = CachedVerdict {
            accessed: BTreeSet::from([id.clone(), other.clone()]),
            ..verdict.clone()
        };
        ccm.store_verdict(id.clone(), NodeId(0), name.clone(), cross);
        assert_eq!(ccm.invalidate_object(&other), 1);
        assert_eq!(ccm.verdict_cache_len(), 0);

        // Constraint-keyed and wholesale invalidation.
        ccm.store_verdict(id.clone(), NodeId(0), name.clone(), verdict.clone());
        ccm.store_verdict(
            id.clone(),
            NodeId(1),
            ConstraintName::from("Other"),
            verdict.clone(),
        );
        assert_eq!(ccm.invalidate_constraint(&name), 1);
        assert_eq!(ccm.clear_verdict_cache(), 1);
        assert_eq!(ccm.verdict_cache_len(), 0);
    }

    #[test]
    fn async_fast_path_records_without_validation() {
        let mut w = setup(2, 70, 80);
        let c = ticket_constraint(true);
        let outcome = w
            .ccm
            .record_async_threat(&c, Some(&w.id), w.tx, SimTime::ZERO);
        assert_eq!(outcome, Ok(StoreOutcome::Stored));
        assert_eq!(w.ccm.stats().validations, 0);
        assert_eq!(w.ccm.stats().async_shortcuts, 1);
    }
}
