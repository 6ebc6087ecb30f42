//! The cluster façade: a simulated DeDiSys deployment.
//!
//! A [`Cluster`] assembles every middleware service of Figure 4.1 for
//! `n` nodes — entity containers, transaction manager + lock table,
//! constraint repository + CCMgr, replication manager, group
//! membership (view trackers + partition weights) — over the shared
//! virtual clock and cost model. Clients drive it synchronously:
//! operations execute depth-first through the node stacks while the
//! clock advances per the cost model (see DESIGN.md §1).

use crate::batch;
use crate::ccm::{
    Ccm, NegotiationTiming, PartitionEnv, PendingCheck, RawEvaluation, ReplicaAccess,
    ValidationCandidate, ValidationVerdict,
};
use crate::config::ClusterConfig;
use crate::negotiation::NegotiationHandler;
use crate::session::Session;
use crate::threat::{HistoryPolicy, ReconcileInstructions, StoreOutcome, ThreatStore};
use crate::CostModel;
use dedisys_constraints::{
    ConstraintEngine, ConstraintKind, ConstraintRepository, ContextPreparation, LookupKind,
    RegisteredConstraint, ValidationContext,
};
use dedisys_gms::{
    AdaptiveConfig, DetectorConfig, DetectorKind, LinkFault,
    MembershipConfig as GmsMembershipConfig, MembershipEvent, MembershipSim, MinorityWriteHandling,
    NodeWeights, StabilizerConfig, ViewTracker,
};
use dedisys_net::{SimClock, Topology};
use dedisys_object::{
    AppDescriptor, EntityContainer, EntityState, InterceptorChain, Invocation, MethodKind,
    MethodTable, NamingService,
};
use dedisys_replication::{ProtocolKind, ReplicationManager};
use dedisys_telemetry::{
    CostBreakdown, InvocationOutcome, MetricsSnapshot, Telemetry, TraceEvent, TransitionCause,
    TriggerKind, TwoPcPhase,
};
use dedisys_tx::{LockTable, TransactionManager};
use dedisys_types::{
    ConstraintName, Error, MethodName, MethodSignature, NodeId, ObjectId, Result,
    SatisfactionDegree, SimDuration, SimTime, SystemMode, TxId, Value,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Cluster-level counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ClusterMetrics {
    /// Business invocations attempted.
    pub invocations: u64,
    /// Invocations that failed (constraint, threat, availability).
    pub failed_invocations: u64,
    /// Entities created.
    pub creates: u64,
    /// Entities deleted.
    pub deletes: u64,
}

/// One serializable snapshot of every cluster-level statistic — the
/// single aggregate returned by [`Cluster::stats`].
///
/// Serializes cleanly to JSON (`serde_json::to_string(&cluster.stats())`)
/// so benches and operators can dump the full state of a run in one
/// line instead of stitching four accessor calls together.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Current system mode (Figure 1.4).
    pub mode: SystemMode,
    /// Virtual time of the snapshot, in nanoseconds.
    pub now_ns: u64,
    /// Cluster-level counters (invocations, creates, deletes).
    pub cluster: ClusterMetrics,
    /// CCM counters (validations, threats, violations).
    pub ccm: crate::ccm::CcmStats,
    /// Replication counters (propagations, messages, conflicts).
    pub replication: dedisys_replication::ReplStats,
    /// Transaction counters (begun, committed, rolled back).
    pub tx: dedisys_tx::TxStats,
    /// Telemetry metrics registry (named counters + histograms).
    pub telemetry: MetricsSnapshot,
    /// Total trace events emitted on the telemetry bus.
    pub events_emitted: u64,
}

/// Context handed to application/operator interceptors registered via
/// [`Cluster::add_interceptor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HookInfo {
    /// Node the client issued the invocation on.
    pub node: NodeId,
    /// System mode at invocation time.
    pub mode: SystemMode,
    /// Virtual time at invocation start.
    pub at: SimTime,
}

#[derive(Debug, Default, Clone)]
struct TxInfo {
    involved: BTreeSet<NodeId>,
    /// Objects created in this tx with their chosen placement.
    created: BTreeMap<ObjectId, (Vec<NodeId>, NodeId)>,
}

/// A prepared transaction whose coordinator crashed between prepare
/// and commit (§2PC in-doubt state). Locks and buffers are retained
/// until the recovery protocol resolves it by presumed abort (timeout
/// or coordinator restart).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InDoubtTx {
    /// The crashed coordinator node.
    pub coordinator: NodeId,
    /// Virtual time at which the presumed-abort timeout fires.
    pub deadline: SimTime,
}

/// How one validation candidate's answer was produced — decides the
/// virtual-time charge taken in the serial merge phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ValidationCharge {
    /// Full interpreted evaluation ([`CostModel::constraint_check`]).
    Interpreted,
    /// Compiled stack-VM evaluation
    /// ([`CostModel::compiled_constraint_check`]).
    Compiled,
    /// Version-keyed verdict-cache hit
    /// ([`CostModel::verdict_cache_probe`]).
    CacheHit,
}

/// Builder for [`Cluster`] (C-BUILDER).
///
/// Behavioural knobs live in one typed [`ClusterConfig`] reached via
/// [`ClusterBuilder::config`] / [`ClusterBuilder::configure`]; the
/// remaining builder methods cover structure that is not
/// configuration (nodes, application, methods, constraints, protocol,
/// weights, cost model).
pub struct ClusterBuilder {
    nodes: u32,
    protocol: ProtocolKind,
    weights: Option<NodeWeights>,
    clock: Option<SimClock>,
    costs: CostModel,
    config: ClusterConfig,
    ccm_enabled: bool,
    replication_enabled: bool,
    app: AppDescriptor,
    methods: MethodTable,
    constraints: Vec<RegisteredConstraint>,
    default_instructions: ReconcileInstructions,
}

impl std::fmt::Debug for ClusterBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterBuilder")
            .field("nodes", &self.nodes)
            .field("protocol", &self.protocol)
            .field("ccm", &self.ccm_enabled)
            .field("replication", &self.replication_enabled)
            .field("constraints", &self.constraints.len())
            .finish()
    }
}

impl ClusterBuilder {
    /// Starts a builder for `nodes` nodes running `app`.
    pub fn new(nodes: u32, app: AppDescriptor) -> Self {
        Self {
            nodes,
            protocol: ProtocolKind::PrimaryPerPartition,
            weights: None,
            clock: None,
            costs: CostModel::default(),
            config: ClusterConfig::default(),
            ccm_enabled: true,
            replication_enabled: true,
            app,
            methods: MethodTable::new(),
            constraints: Vec::new(),
            default_instructions: ReconcileInstructions::default(),
        }
    }

    /// Mutable access to the typed configuration — the primary way to
    /// set behavioural knobs:
    ///
    /// ```no_run
    /// # use dedisys_core::ClusterBuilder;
    /// # use dedisys_object::AppDescriptor;
    /// let mut builder = ClusterBuilder::new(3, AppDescriptor::new("app"));
    /// builder.config().validation.verdict_cache = true;
    /// builder.config().durability.compaction_threshold = 8;
    /// let cluster = builder.build()?;
    /// # Ok::<(), dedisys_types::Error>(())
    /// ```
    pub fn config(&mut self) -> &mut ClusterConfig {
        &mut self.config
    }

    /// Chainable variant of [`ClusterBuilder::config`]:
    ///
    /// ```no_run
    /// # use dedisys_core::ClusterBuilder;
    /// # use dedisys_object::AppDescriptor;
    /// let cluster = ClusterBuilder::new(3, AppDescriptor::new("app"))
    ///     .configure(|c| c.validation.verdict_cache = true)
    ///     .build()?;
    /// # Ok::<(), dedisys_types::Error>(())
    /// ```
    pub fn configure(mut self, f: impl FnOnce(&mut ClusterConfig)) -> Self {
        f(&mut self.config);
        self
    }

    /// Replaces the entire configuration (e.g. one prepared offline or
    /// taken from another cluster via [`Cluster::config`]).
    pub fn with_config(mut self, config: ClusterConfig) -> Self {
        self.config = config;
        self
    }

    /// Selects the replication protocol (default: P4).
    pub fn protocol(mut self, protocol: ProtocolKind) -> Self {
        self.protocol = protocol;
        self
    }

    /// Sets explicit node weights (default: uniform).
    pub fn weights(mut self, weights: NodeWeights) -> Self {
        self.weights = Some(weights);
        self
    }

    /// Overrides the cost model.
    pub fn costs(mut self, costs: CostModel) -> Self {
        self.costs = costs;
        self
    }

    /// Shares an externally owned virtual clock instead of creating a
    /// fresh one — the federation layer builds every shard on one
    /// clock so cross-shard timelines (2PC deadlines, detector
    /// heartbeats, trace timestamps) stay mutually consistent.
    pub fn clock(mut self, clock: SimClock) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Disables the DeDiSys enhancement entirely — the "No DeDiSys"
    /// baseline of Chapter 5 (no CCM, no replication).
    pub fn without_dedisys(mut self) -> Self {
        self.ccm_enabled = false;
        self.replication_enabled = false;
        self
    }

    /// Enables only explicit constraint consistency management without
    /// the replication service — the Figure 5.1 configuration.
    pub fn ccm_only(mut self) -> Self {
        self.ccm_enabled = true;
        self.replication_enabled = false;
        self
    }

    /// Registers custom method bodies.
    pub fn methods(mut self, methods: MethodTable) -> Self {
        self.methods = methods;
        self
    }

    /// Adds a constraint.
    pub fn constraint(mut self, constraint: RegisteredConstraint) -> Self {
        self.constraints.push(constraint);
        self
    }

    /// Adds several constraints.
    pub fn constraints(
        mut self,
        constraints: impl IntoIterator<Item = RegisteredConstraint>,
    ) -> Self {
        self.constraints.extend(constraints);
        self
    }

    /// Sets the default reconciliation instructions.
    pub fn default_instructions(mut self, instructions: ReconcileInstructions) -> Self {
        self.default_instructions = instructions;
        self
    }

    /// Builds the cluster.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] on invalid configuration (zero nodes,
    /// duplicate constraint names, weight/node-count mismatch).
    pub fn build(self) -> Result<Cluster> {
        if self.nodes == 0 {
            return Err(Error::Config("a cluster needs at least one node".into()));
        }
        let mut config = self.config;
        // A zero threshold would compact on every duplicate; the old
        // setter clamped, the typed field clamps at build time.
        config.durability.compaction_threshold = config.durability.compaction_threshold.max(1);
        let weights = self
            .weights
            .unwrap_or_else(|| NodeWeights::uniform(self.nodes));
        if weights.node_count() != self.nodes {
            return Err(Error::Config(format!(
                "weights cover {} nodes, cluster has {}",
                weights.node_count(),
                self.nodes
            )));
        }
        let clock = self.clock.unwrap_or_default();
        // One telemetry bus per cluster, stamped from the shared
        // virtual clock — every subsystem below observes the same
        // deterministic timeline.
        let telemetry = Telemetry::new(clock.clone());
        let topology = Topology::fully_connected(self.nodes);
        let mut repository = ConstraintRepository::new(config.validation.lookup_mode);
        for c in self.constraints {
            repository.register(c)?;
        }
        let mut ccm = Ccm::new(config.durability.threat_policy);
        ccm.set_app_default_min_degree(config.validation.app_default_min_degree);
        ccm.set_default_instructions(self.default_instructions);
        ccm.set_negotiation_timing(config.validation.negotiation_timing);
        ccm.attach_telemetry(telemetry.clone());
        let mut replication = ReplicationManager::new(self.protocol, weights.clone());
        replication.set_reduced_history(config.durability.reduced_replica_history);
        replication.attach_telemetry(telemetry.clone());
        let mut tx_manager = TransactionManager::new();
        tx_manager.attach_telemetry(telemetry.clone());
        let view_trackers = (0..self.nodes)
            .map(|n| {
                let mut tracker = ViewTracker::new(NodeId(n), &topology);
                tracker.attach_telemetry(telemetry.clone());
                tracker
            })
            .collect();
        if config.validation.engine == ConstraintEngine::Compiled {
            // Lower every registered constraint up front so the first
            // validation doesn't pay the (lazy) compile, and charge the
            // one-time lowering cost on the virtual clock.
            for c in repository.enabled() {
                if let Some(info) = c.implementation.compiled() {
                    telemetry.emit(|| TraceEvent::ConstraintCompiled {
                        constraint: c.meta.name.to_string(),
                        ops: info.ops,
                        reads: info.reads,
                    });
                    clock.advance(self.costs.constraint_compile);
                }
            }
        }
        let membership = config.membership.detector_enabled.then(|| {
            MembershipSim::new(
                self.nodes,
                GmsMembershipConfig {
                    kind: config.membership.detector,
                    detector: config.membership.detector_config,
                    adaptive: config.membership.adaptive,
                    stabilizer: config.membership.stabilizer,
                    seed: config.membership.seed,
                    ..GmsMembershipConfig::default()
                },
                clock.clone(),
            )
        });
        Ok(Cluster {
            clock,
            telemetry,
            topology,
            membership,
            config,
            primary_witness: BTreeMap::new(),
            primary_conflicts: 0,
            weights,
            containers: (0..self.nodes)
                .map(|_| EntityContainer::new(&self.app))
                .collect(),
            app: self.app,
            methods: self.methods,
            tx_manager,
            tx_infos: BTreeMap::new(),
            in_doubt: BTreeMap::new(),
            in_doubt_resolved: 0,
            crashed: BTreeSet::new(),
            locks: LockTable::new(),
            replication,
            repository,
            ccm,
            naming: NamingService::new(),
            costs: self.costs,
            mode: SystemMode::Healthy,
            view_trackers,
            metrics: ClusterMetrics::default(),
            inv_cost: CostBreakdown::default(),
            hooks: InterceptorChain::new(),
            ccm_enabled: self.ccm_enabled,
            replication_enabled: self.replication_enabled,
        })
    }
}

/// A simulated DeDiSys cluster.
pub struct Cluster {
    clock: SimClock,
    telemetry: Telemetry,
    topology: Topology,
    /// The detector-driven membership pipeline; `None` when topology
    /// changes are scripted only.
    membership: Option<MembershipSim>,
    /// The typed configuration in force ([`Cluster::config`]); runtime
    /// deltas land here through [`Cluster::reconfigure`].
    config: ClusterConfig,
    /// Per-topology-epoch witness of the one partition whose
    /// primary-mode writes were admitted — the safety invariant is that
    /// no *second*, different partition ever witnesses at the same
    /// epoch.
    primary_witness: BTreeMap<u64, BTreeSet<NodeId>>,
    /// Times a second partition was caught accepting primary-mode
    /// writes at an epoch that already had a primary (must stay 0).
    primary_conflicts: u64,
    weights: NodeWeights,
    containers: Vec<EntityContainer>,
    app: AppDescriptor,
    methods: MethodTable,
    tx_manager: TransactionManager,
    tx_infos: BTreeMap<TxId, TxInfo>,
    /// Prepared transactions whose coordinator crashed (awaiting
    /// presumed-abort recovery).
    in_doubt: BTreeMap<TxId, InDoubtTx>,
    /// Transactions resolved by the in-doubt recovery protocol so far.
    in_doubt_resolved: u64,
    /// Nodes currently crashed: volatile state torn down, persistent
    /// journal kept, topology-isolated until restarted.
    crashed: BTreeSet<NodeId>,
    locks: LockTable,
    pub(crate) replication: ReplicationManager,
    repository: ConstraintRepository,
    pub(crate) ccm: Ccm,
    naming: NamingService,
    costs: CostModel,
    pub(crate) mode: SystemMode,
    view_trackers: Vec<ViewTracker>,
    metrics: ClusterMetrics,
    /// Scratch R1–R5 breakdown of the invocation in flight.
    inv_cost: CostBreakdown,
    hooks: InterceptorChain<HookInfo>,
    ccm_enabled: bool,
    replication_enabled: bool,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("nodes", &self.topology.node_count())
            .field("mode", &self.mode)
            .field("topology", &self.topology.to_string())
            .field("ccm", &self.ccm_enabled)
            .field("replication", &self.replication_enabled)
            .finish()
    }
}

impl Cluster {
    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// The shared clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The current system mode (Figure 1.4).
    pub fn mode(&self) -> SystemMode {
        self.mode
    }

    /// The current topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Number of nodes.
    pub fn node_count(&self) -> u32 {
        self.topology.node_count()
    }

    /// The deployed application.
    pub fn app(&self) -> &AppDescriptor {
        &self.app
    }

    /// The cost model in force.
    pub fn costs(&self) -> &CostModel {
        &self.costs
    }

    /// The cluster's telemetry bus: attach a sink (JSONL exporter,
    /// ring recorder) to capture the typed event stream of a run.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// One serializable snapshot of every statistic the cluster keeps:
    /// cluster/CCM/replication/transaction counters plus the telemetry
    /// metrics registry, stamped with the current mode and virtual
    /// time.
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot {
            mode: self.mode,
            now_ns: self.clock.now().as_nanos(),
            cluster: self.metrics,
            ccm: self.ccm.stats(),
            replication: self.replication.stats(),
            tx: self.tx_manager.stats(),
            telemetry: self.telemetry.metrics().snapshot(),
            events_emitted: self.telemetry.events_emitted(),
        }
    }

    /// The stored consistency threats.
    pub fn threats(&self) -> &ThreatStore {
        self.ccm.threat_store()
    }

    /// The typed configuration in force. This is the same value the
    /// builder was given (modulo clamping), updated by every
    /// [`Cluster::reconfigure`] since.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Applies a configuration delta to the running cluster.
    ///
    /// `f` receives a copy of the current config to mutate; the
    /// changed fields are then applied atomically — with their side
    /// effects (an engine switch lowers constraints and clears the
    /// verdict cache; a cache toggle clears it; negotiation timing,
    /// default degree and replica history are pushed into their
    /// subsystems) — and one `reconfigure` trace event naming the
    /// dotted paths that changed is emitted. Returns those paths
    /// (empty when `f` changed nothing; no event is emitted then).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] — without applying *any* field — if
    /// `f` touched a build-time field (`validation.lookup_mode`,
    /// `durability.threat_policy`, or anything under
    /// `membership.detector*` / `membership.adaptive` /
    /// `membership.stabilizer` / `membership.seed`).
    pub fn reconfigure(&mut self, f: impl FnOnce(&mut ClusterConfig)) -> Result<Vec<String>> {
        let mut next = self.config;
        f(&mut next);
        next.durability.compaction_threshold = next.durability.compaction_threshold.max(1);
        let immutable = self.config.immutable_diff(&next);
        if !immutable.is_empty() {
            return Err(Error::Config(format!(
                "cannot reconfigure build-time field(s): {}",
                immutable.join(", ")
            )));
        }
        let changed = self.config.diff(&next);
        if changed.is_empty() {
            return Ok(changed);
        }
        let prev = self.config;
        self.config = next;
        if prev.validation.engine != next.validation.engine {
            if next.validation.engine == ConstraintEngine::Compiled {
                let mut compiled = Vec::new();
                for c in self.repository.enabled() {
                    if let Some(info) = c.implementation.compiled() {
                        compiled.push((c.meta.name.to_string(), info));
                    }
                }
                for (name, info) in compiled {
                    self.telemetry.emit(|| TraceEvent::ConstraintCompiled {
                        constraint: name.clone(),
                        ops: info.ops,
                        reads: info.reads,
                    });
                    self.clock.advance(self.costs.constraint_compile);
                }
            }
            self.clear_verdict_cache_with_event();
        }
        if prev.validation.verdict_cache != next.validation.verdict_cache {
            self.clear_verdict_cache_with_event();
        }
        if prev.validation.negotiation_timing != next.validation.negotiation_timing {
            self.ccm
                .set_negotiation_timing(next.validation.negotiation_timing);
        }
        if prev.validation.app_default_min_degree != next.validation.app_default_min_degree {
            self.ccm
                .set_app_default_min_degree(next.validation.app_default_min_degree);
        }
        if prev.durability.reduced_replica_history != next.durability.reduced_replica_history {
            self.replication
                .set_reduced_history(next.durability.reduced_replica_history);
        }
        let paths = changed.clone();
        self.telemetry
            .emit(move || TraceEvent::Reconfigure { changed: paths });
        Ok(changed)
    }

    /// The threat-negotiation timing in force, read back from the CCM
    /// (not from the config copy) so tests can check the two agree.
    pub fn negotiation_timing(&self) -> NegotiationTiming {
        self.ccm.negotiation_timing()
    }

    /// The application-wide default minimum satisfaction degree in
    /// force, read back from the CCM.
    pub fn app_default_min_degree(&self) -> SatisfactionDegree {
        self.ccm.app_default_min_degree()
    }

    /// Whether replicas keep only the latest state, read back from the
    /// replication manager.
    pub fn reduced_replica_history(&self) -> bool {
        self.replication.reduced_history()
    }

    /// Entries currently held by the verdict cache.
    pub fn verdict_cache_len(&self) -> usize {
        self.ccm.verdict_cache_len()
    }

    pub(crate) fn clear_verdict_cache_with_event(&mut self) {
        let entries = self.ccm.clear_verdict_cache();
        if entries > 0 {
            self.telemetry
                .metrics()
                .add("ccm.verdict_cache.invalidate", entries as u64);
            self.telemetry.emit(|| TraceEvent::VerdictCacheInvalidate {
                object: "*".into(),
                entries: entries as u32,
            });
        }
    }

    /// Enables or disables a registered constraint at runtime (§3.3).
    /// Disabling merely stops lookups from returning it; re-enabling
    /// *with* the mandated full re-check is
    /// [`Cluster::enable_constraint_with_check`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for unknown constraint names.
    pub fn set_constraint_enabled(&mut self, name: &ConstraintName, enabled: bool) -> Result<()> {
        self.repository.set_enabled(name, enabled)
    }

    /// Removes a constraint at runtime (§3.3). Returns whether the
    /// constraint existed. Cached verdicts of the removed constraint
    /// are dropped.
    pub fn remove_constraint(&mut self, name: &ConstraintName) -> bool {
        let existed = self.repository.remove(name).is_some();
        if existed {
            let entries = self.ccm.invalidate_constraint(name);
            if entries > 0 {
                self.telemetry
                    .metrics()
                    .add("ccm.verdict_cache.invalidate", entries as u64);
                self.telemetry.emit(|| TraceEvent::VerdictCacheInvalidate {
                    object: "*".into(),
                    entries: entries as u32,
                });
            }
        }
        existed
    }

    /// Re-activates every deactivated threat record after a CCM crash
    /// (§5.5.1 recovery). Returns the number of recovered records.
    pub fn recover_threats(&mut self) -> usize {
        self.ccm.threat_store_mut().recover()
    }

    /// Adds a new constraint at runtime and — per §3.3 — immediately
    /// validates it against *every* existing context object. Returns
    /// the context objects that currently violate it (the application
    /// decides whether to clean them up or remove the constraint
    /// again).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for duplicate names.
    pub fn add_constraint_with_check(
        &mut self,
        constraint: RegisteredConstraint,
    ) -> Result<Vec<ObjectId>> {
        let name = constraint.name().clone();
        self.repository.register(constraint)?;
        self.check_all_context_objects(&name)
    }

    /// Re-enables a previously disabled constraint and validates it
    /// against every context object (§3.3: re-enabled constraints have
    /// to be checked for all context objects). Returns the violating
    /// context objects.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for unknown constraint names.
    pub fn enable_constraint_with_check(
        &mut self,
        name: &dedisys_types::ConstraintName,
    ) -> Result<Vec<ObjectId>> {
        self.repository.set_enabled(name, true)?;
        self.check_all_context_objects(name)
    }

    fn check_all_context_objects(
        &mut self,
        name: &dedisys_types::ConstraintName,
    ) -> Result<Vec<ObjectId>> {
        let Some(constraint) = self.repository.get(name).cloned() else {
            return Ok(Vec::new());
        };
        if !constraint.meta.kind.is_invariant() {
            return Ok(Vec::new());
        }
        // Collect the context objects: all instances of the context
        // class, or a single query-based evaluation.
        let contexts: Vec<Option<ObjectId>> = match (
            &constraint.context_class,
            constraint.meta.needs_context_object,
        ) {
            (Some(class), true) => {
                let mut ids: BTreeSet<ObjectId> = BTreeSet::new();
                for container in &self.containers {
                    ids.extend(container.entities_of_class(class).map(|e| e.id().clone()));
                }
                ids.into_iter().map(Some).collect()
            }
            _ => vec![None],
        };
        let node = NodeId(0);
        let check_tx = self.begin_tx(node);
        let candidates: Vec<ValidationCandidate<'_>> = contexts
            .iter()
            .map(|context| ValidationCandidate::invariant(&constraint, context.as_ref()))
            .collect();
        let evals = self.evaluate_candidates(&candidates, node, check_tx);
        let mut violating = Vec::new();
        for (context, eval) in contexts.into_iter().zip(evals) {
            let verdict = self.merge_validation(&constraint, eval, node, check_tx)?;
            if verdict.degree == SatisfactionDegree::Violated {
                if let Some(ctx) = context {
                    violating.push(ctx);
                }
            }
        }
        let _ = self.rollback(check_tx);
        Ok(violating)
    }

    /// The constraint repository.
    pub fn repository(&self) -> &ConstraintRepository {
        &self.repository
    }

    /// The naming service.
    pub fn naming_mut(&mut self) -> &mut NamingService {
        &mut self.naming
    }

    /// Fraction of total system weight reachable from `node` (§5.5.2).
    pub fn partition_fraction(&self, node: NodeId) -> f64 {
        self.weights
            .partition_fraction(self.topology.partition_of(node))
    }

    /// The full partition environment observed from `node`: the weight
    /// fraction plus the exact integer weight units (§5.5.2).
    pub(crate) fn partition_env(&self, node: NodeId) -> PartitionEnv {
        let members = self.topology.partition_of(node);
        PartitionEnv {
            fraction: self.weights.partition_fraction(members),
            weight: self.weights.partition_weight(members),
            total: self.weights.total(),
        }
    }

    /// The node weights.
    pub fn weights(&self) -> &NodeWeights {
        &self.weights
    }

    /// The committed state of `id` as stored on `node` (inspection).
    pub fn entity_on(&self, node: NodeId, id: &ObjectId) -> Option<&EntityState> {
        self.containers[node.index()].committed_entity(id)
    }

    // ------------------------------------------------------------------
    // Failure injection / repair
    // ------------------------------------------------------------------

    /// Splits the network into the given groups of typed node ids
    /// (unmentioned nodes become singletons), installs the new views
    /// and returns the resulting system mode. The [`crate::nodes!`]
    /// macro keeps literal scenarios terse:
    /// `cluster.partition(&[nodes![0, 1], nodes![2]])`.
    ///
    /// # Errors
    ///
    /// * [`Error::UnknownNode`] — a group names a node outside the
    ///   cluster.
    /// * [`Error::DuplicateNode`] — a node appears in more than one
    ///   group (or twice within one group).
    /// * [`Error::NodeCrashed`] — a crashed node cannot be placed in
    ///   a group; it stays isolated until [`Cluster::restart`].
    pub fn partition(&mut self, groups: &[Vec<NodeId>]) -> Result<SystemMode> {
        let count = self.topology.node_count();
        let mut seen: BTreeSet<NodeId> = BTreeSet::new();
        for group in groups {
            for &node in group {
                if node.0 >= count {
                    return Err(Error::UnknownNode(node));
                }
                if !seen.insert(node) {
                    return Err(Error::DuplicateNode(node));
                }
                if self.crashed.contains(&node) {
                    return Err(Error::NodeCrashed(node));
                }
            }
        }
        let raw: Vec<Vec<u32>> = groups
            .iter()
            .map(|g| g.iter().map(|n| n.0).collect())
            .collect();
        let refs: Vec<&[u32]> = raw.iter().map(Vec::as_slice).collect();
        self.topology.split(&refs);
        self.install_views();
        self.sync_membership_scripted();
        let to = if self.topology.is_healthy() {
            SystemMode::Healthy
        } else {
            SystemMode::Degraded
        };
        Ok(self.set_mode(to, TransitionCause::Scripted))
    }

    /// Isolates one node (connectivity loss — the node keeps running)
    /// and returns the resulting system mode.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownNode`] for node ids outside the
    /// cluster.
    pub fn isolate(&mut self, node: NodeId) -> Result<SystemMode> {
        if node.0 >= self.topology.node_count() {
            return Err(Error::UnknownNode(node));
        }
        self.topology.isolate(node);
        self.install_views();
        self.sync_membership_scripted();
        Ok(self.set_mode(SystemMode::Degraded, TransitionCause::Scripted))
    }

    /// Repairs all connectivity failures; the system enters the
    /// reconciliation phase (run [`Cluster::reconcile`] to return to
    /// healthy). Crashed nodes stay isolated — only
    /// [`Cluster::restart`] brings them back. Returns the resulting
    /// system mode.
    pub fn heal(&mut self) -> SystemMode {
        if self.crashed.is_empty() {
            self.topology.heal();
        } else {
            // Reunite only the live nodes; crashed ones remain
            // singleton partitions until they restart.
            let live: Vec<u32> = self
                .topology
                .nodes()
                .filter(|n| !self.crashed.contains(n))
                .map(|n| n.0)
                .collect();
            self.topology.split(&[&live]);
        }
        self.install_views();
        // A scripted heal repairs the physical layer too — standing
        // link faults would otherwise make detection re-partition the
        // cluster immediately.
        if let Some(membership) = self.membership.as_mut() {
            membership.clear_link_faults();
        }
        self.sync_membership_scripted();
        let to = if !self.crashed.is_empty() {
            SystemMode::Degraded
        } else if self.needs_reconciliation() {
            SystemMode::Reconciliation
        } else {
            SystemMode::Healthy
        };
        self.set_mode(to, TransitionCause::Scripted)
    }

    // ------------------------------------------------------------------
    // Node lifecycle: crash / restart
    // ------------------------------------------------------------------

    /// Crashes `node`: volatile container state is torn down (buffered
    /// writes lost, committed in-memory cache dropped), the persistent
    /// journal survives on disk, and the node leaves the topology
    /// until [`Cluster::restart`].
    ///
    /// Transactions touching the node are resolved immediately:
    ///
    /// * transactions *coordinated* by the node that had already
    ///   prepared enter the in-doubt registry — their locks are
    ///   retained until the presumed-abort timeout fires
    ///   ([`Cluster::resolve_in_doubt`]) or the coordinator restarts;
    /// * every other affected transaction is force-rolled-back and
    ///   its locks released.
    ///
    /// # Errors
    ///
    /// * [`Error::UnknownNode`] — node id outside the cluster.
    /// * [`Error::NodeCrashed`] — the node is already down.
    pub fn crash(&mut self, node: NodeId) -> Result<SystemMode> {
        if node.0 >= self.topology.node_count() {
            return Err(Error::UnknownNode(node));
        }
        if !self.crashed.insert(node) {
            return Err(Error::NodeCrashed(node));
        }
        let affected: Vec<TxId> = self
            .tx_infos
            .iter()
            .filter(|(tx, info)| tx.node == node || info.involved.contains(&node))
            .map(|(tx, _)| *tx)
            .collect();
        let mut aborted: u32 = 0;
        let mut in_doubt: u32 = 0;
        let deadline = self.clock.now() + self.costs.in_doubt_timeout;
        for tx in affected {
            if tx.node == node && self.tx_manager.is_prepared(tx) {
                // Coordinator crashed between prepare and commit: the
                // outcome is locally unknowable. Locks and remote
                // buffers are retained; the recovery protocol presumes
                // abort once the timeout expires (presumed-abort 2PC).
                self.in_doubt.insert(
                    tx,
                    InDoubtTx {
                        coordinator: node,
                        deadline,
                    },
                );
                in_doubt += 1;
                self.telemetry.emit(|| TraceEvent::TwoPcInDoubt {
                    tx,
                    coordinator: node,
                });
            } else {
                self.tx_manager.force_rollback(tx);
                self.abort_cleanup(tx);
                aborted += 1;
            }
        }
        let _lost_buffers = self.containers[node.index()].crash_volatile();
        self.topology.isolate(node);
        self.install_views();
        self.sync_membership_scripted();
        self.telemetry.emit(|| TraceEvent::NodeCrash {
            node,
            aborted_txs: aborted,
            in_doubt_txs: in_doubt,
        });
        Ok(self.set_mode(SystemMode::Degraded, TransitionCause::Scripted))
    }

    /// Restarts a crashed node: replays the persistent journal into a
    /// fresh container (charging
    /// [`CostModel::wal_replay_per_entry`][crate::CostModel] per
    /// entry), re-activates deactivated threat records (§5.5.1
    /// recovery), resolves every in-doubt transaction the node
    /// coordinated by presumed abort, and rejoins the partition of the
    /// lowest-numbered live node. Returns the resulting system mode.
    ///
    /// # Errors
    ///
    /// * [`Error::UnknownNode`] — node id outside the cluster.
    /// * [`Error::Config`] — the node is not crashed.
    /// * Journal corruption surfaces as the replay error.
    pub fn restart(&mut self, node: NodeId) -> Result<SystemMode> {
        if node.0 >= self.topology.node_count() {
            return Err(Error::UnknownNode(node));
        }
        if !self.crashed.contains(&node) {
            return Err(Error::Config(format!(
                "node {node} is not crashed; nothing to restart"
            )));
        }
        let report = self.containers[node.index()].recover_from_journal()?;
        let replayed = report.replayed;
        self.crashed.remove(&node);
        self.clock
            .advance(self.costs.wal_replay_per_entry * replayed);
        if report.truncated > 0 {
            // A journal write was torn by the crash; the checksummed
            // tail was dropped and the lost state will be resynced by
            // reconciliation like any missed update.
            self.telemetry
                .metrics()
                .add("store.wal.truncated", report.truncated);
            self.telemetry.emit(|| TraceEvent::WalTruncated {
                node,
                truncated: report.truncated,
            });
        }
        // The journal replay may have rewritten entity state wholesale;
        // memoized verdicts are no longer trustworthy.
        self.clear_verdict_cache_with_event();
        // §5.5.1: threat records deactivated by the crash come back.
        let reactivated = self.ccm.threat_store_mut().recover() as u64;
        // Coordinator recovery: no commit record survived the crash,
        // so its in-doubt transactions abort (presumed abort).
        let mine: Vec<TxId> = self
            .in_doubt
            .iter()
            .filter(|(_, info)| info.coordinator == node)
            .map(|(tx, _)| *tx)
            .collect();
        for tx in mine {
            self.presume_abort(tx);
        }
        // Rejoin the lowest-numbered live node's partition via GMS.
        let rejoin_target = self
            .topology
            .nodes()
            .find(|n| *n != node && !self.crashed.contains(n));
        if let Some(target) = rejoin_target {
            if !self.topology.reachable(node, target) {
                self.topology.merge(node, target);
            }
            if report.truncated > 0 {
                // The torn tail dropped committed state the rest of
                // the group still holds. Replica reconciliation only
                // tracks degraded-mode writes, so transfer the rejoin
                // target's committed image outright; installs go
                // through the journal, so the transfer survives a
                // further crash.
                let reference: Vec<EntityState> = {
                    let source = &self.containers[target.index()];
                    source
                        .committed_ids()
                        .filter_map(|id| source.committed_entity(id).cloned())
                        .collect()
                };
                let stale: Vec<ObjectId> = {
                    let source = &self.containers[target.index()];
                    self.containers[node.index()]
                        .committed_ids()
                        .filter(|id| source.committed_entity(id).is_none())
                        .cloned()
                        .collect()
                };
                let mut transferred = 0u64;
                let container = &mut self.containers[node.index()];
                for entity in reference {
                    if container.committed_entity(entity.id()) != Some(&entity) {
                        container.install_committed(entity);
                        transferred += 1;
                    }
                }
                for id in &stale {
                    container.remove_committed(id);
                    transferred += 1;
                }
                self.clock
                    .advance(self.costs.wal_replay_per_entry * transferred);
                self.telemetry
                    .metrics()
                    .add("store.wal.resynced", transferred);
            }
        }
        self.install_views();
        self.sync_membership_scripted();
        self.telemetry.emit(|| TraceEvent::NodeRestart {
            node,
            replayed_entries: replayed,
            reactivated_threats: reactivated,
        });
        let to = if !self.topology.is_healthy() {
            SystemMode::Degraded
        } else if self.needs_reconciliation() {
            SystemMode::Reconciliation
        } else {
            SystemMode::Healthy
        };
        Ok(self.set_mode(to, TransitionCause::Scripted))
    }

    /// Runs the in-doubt recovery protocol: every in-doubt transaction
    /// whose presumed-abort deadline has passed in virtual time is
    /// rolled back and its locks released. Returns the number of
    /// transactions resolved.
    pub fn resolve_in_doubt(&mut self) -> usize {
        let now = self.clock.now();
        let due: Vec<TxId> = self
            .in_doubt
            .iter()
            .filter(|(_, info)| info.deadline <= now)
            .map(|(tx, _)| *tx)
            .collect();
        let resolved = due.len();
        for tx in due {
            // The deadline path gets its own event before the shared
            // presumed-abort resolution: operators alerting on abandoned
            // coordinators need to tell "timed out waiting" apart from
            // "resolved at coordinator restart" (both emit
            // `two_pc_resolved`).
            if let Some(info) = self.in_doubt.get(&tx) {
                let coordinator = info.coordinator;
                let overdue_ns = now.since(info.deadline).as_nanos();
                self.telemetry.emit(|| TraceEvent::InDoubtTimeout {
                    tx,
                    coordinator,
                    overdue_ns,
                });
                self.telemetry.metrics().incr("two_pc.in_doubt_timeout");
            }
            self.presume_abort(tx);
        }
        resolved
    }

    fn presume_abort(&mut self, tx: TxId) {
        self.in_doubt.remove(&tx);
        self.tx_manager.force_rollback(tx);
        self.abort_cleanup(tx);
        self.in_doubt_resolved += 1;
        self.telemetry.emit(|| TraceEvent::TwoPcResolved {
            tx,
            presumed_abort: true,
        });
    }

    /// Installs `to` as the system mode, emitting a `mode_transition`
    /// trace event (tagged with who drove it — a scripted call or the
    /// failure-detection pipeline) on actual change. Returns the (new)
    /// current mode.
    pub(crate) fn set_mode(&mut self, to: SystemMode, cause: TransitionCause) -> SystemMode {
        let from = self.mode;
        if from != to {
            self.mode = to;
            if cause == TransitionCause::Detector {
                self.telemetry.metrics().incr("gms.detector.transitions");
            }
            self.telemetry
                .emit(|| TraceEvent::ModeTransition { from, to, cause });
        }
        to
    }

    /// Re-aligns the detector pipeline with a scripted topology change
    /// so detection does not "undo" an explicit fault-injection call
    /// while it converges on its own.
    fn sync_membership_scripted(&mut self) {
        if let Some(membership) = self.membership.as_mut() {
            for node in self.topology.nodes() {
                membership.set_crashed(node, self.crashed.contains(&node));
            }
            membership.force_partitions(self.topology.partitions());
        }
    }

    /// Whether degraded-mode residue (threats, unsynced replicas)
    /// awaits reconciliation.
    pub fn needs_reconciliation(&self) -> bool {
        !self.ccm.threat_store().is_empty() || !self.replication.degraded_write_map().is_empty()
    }

    fn install_views(&mut self) {
        for tracker in &mut self.view_trackers {
            tracker.observe(&self.topology);
        }
    }

    /// The installed view of `node`.
    pub fn view_of(&self, node: NodeId) -> &dedisys_gms::View {
        self.view_trackers[node.index()].current()
    }

    // ------------------------------------------------------------------
    // Fault injection (chaos engine hooks)
    // ------------------------------------------------------------------

    /// Makes the next `failures` replica installs on `node` fail — a
    /// store write-failure window exercising the ship path's bounded
    /// retry/backoff.
    pub fn inject_write_fault(&mut self, node: NodeId, failures: u32) {
        self.replication.inject_write_fault(node, failures);
    }

    /// Makes `node` skip (lag behind) the next `updates` propagated
    /// updates; the lagged replica is recorded for reconciliation.
    pub fn inject_replica_lag(&mut self, node: NodeId, updates: u32) {
        self.replication.inject_replica_lag(node, updates);
    }

    /// Corrupts the checksum of the last `entries` journal entries on
    /// `node` — a torn write the next [`Cluster::restart`] detects and
    /// truncates. Returns the number of entries corrupted.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownNode`] for node ids outside the cluster.
    pub fn corrupt_journal_tail(&mut self, node: NodeId, entries: usize) -> Result<usize> {
        if node.0 >= self.topology.node_count() {
            return Err(Error::UnknownNode(node));
        }
        Ok(self.containers[node.index()].corrupt_journal_tail(entries))
    }

    // ------------------------------------------------------------------
    // Detector-driven membership (φ-accrual / fixed, flap damping)
    // ------------------------------------------------------------------

    /// Whether the detector-driven membership pipeline is running
    /// ([`ClusterBuilder::detector`]).
    pub fn detector_enabled(&self) -> bool {
        self.membership.is_some()
    }

    /// The detector kind in force (meaningful only with the pipeline
    /// enabled; returns the builder default otherwise).
    pub fn detector_kind(&self) -> DetectorKind {
        self.membership
            .as_ref()
            .map(|m| m.config().kind)
            .unwrap_or_default()
    }

    /// The heartbeat/timeout configuration in force.
    pub fn detector_config(&self) -> DetectorConfig {
        self.membership
            .as_ref()
            .map(|m| m.config().detector)
            .unwrap_or_default()
    }

    /// The φ-accrual configuration in force.
    pub fn adaptive_config(&self) -> AdaptiveConfig {
        self.membership
            .as_ref()
            .map(|m| m.config().adaptive)
            .unwrap_or_default()
    }

    /// The view-stabilizer configuration in force.
    pub fn stabilizer_config(&self) -> StabilizerConfig {
        self.membership
            .as_ref()
            .map(|m| m.config().stabilizer)
            .unwrap_or_default()
    }

    /// Read access to the membership pipeline (inspection).
    pub fn membership(&self) -> Option<&MembershipSim> {
        self.membership.as_ref()
    }

    /// Live-observer → live-peer suspicions currently standing in the
    /// pipeline (0 when disabled). A healed, quiescent cluster must
    /// converge back to 0.
    pub fn standing_suspicions(&self) -> usize {
        self.membership
            .as_ref()
            .map_or(0, MembershipSim::standing_suspicions)
    }

    /// Times a second, different partition was caught accepting
    /// primary-mode writes at a topology epoch that already had a
    /// primary. Under any quorum policy this must stay 0 — the
    /// chaos invariant checker asserts it.
    pub fn primary_conflicts(&self) -> u64 {
        self.primary_conflicts
    }

    /// Whether `node`'s current partition classifies as primary under
    /// the configured [`PrimaryPartitionPolicy`].
    pub fn is_primary(&self, node: NodeId) -> bool {
        self.config
            .membership
            .primary_policy
            .is_primary(self.topology.partition_of(node), &self.weights)
    }

    /// Severs the physical links *between* the given groups without
    /// telling the cluster — the failure-detection pipeline has to
    /// notice on its own (contrast [`Cluster::partition`], which is
    /// authoritative and instant).
    ///
    /// # Errors
    ///
    /// * [`Error::Config`] — the pipeline is disabled.
    /// * [`Error::UnknownNode`] / [`Error::DuplicateNode`] — malformed
    ///   groups.
    pub fn drop_links(&mut self, groups: &[Vec<NodeId>]) -> Result<()> {
        if self.membership.is_none() {
            return Err(Error::Config(
                "detector pipeline disabled; enable it via ClusterBuilder::detector".into(),
            ));
        }
        let count = self.topology.node_count();
        let mut seen: BTreeSet<NodeId> = BTreeSet::new();
        for group in groups {
            for &node in group {
                if node.0 >= count {
                    return Err(Error::UnknownNode(node));
                }
                if !seen.insert(node) {
                    return Err(Error::DuplicateNode(node));
                }
            }
        }
        let raw: Vec<Vec<u32>> = groups
            .iter()
            .map(|g| g.iter().map(|n| n.0).collect())
            .collect();
        let refs: Vec<&[u32]> = raw.iter().map(Vec::as_slice).collect();
        self.membership
            .as_mut()
            .expect("checked above")
            .drop_links(&refs);
        Ok(())
    }

    /// Repairs every physical link and clears standing link faults —
    /// detection then converges back to one healthy view (contrast
    /// [`Cluster::heal`], which is authoritative and instant).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] when the pipeline is disabled.
    pub fn heal_links(&mut self) -> Result<()> {
        let Some(membership) = self.membership.as_mut() else {
            return Err(Error::Config(
                "detector pipeline disabled; enable it via ClusterBuilder::detector".into(),
            ));
        };
        membership.clear_link_faults();
        membership.heal_links();
        Ok(())
    }

    /// Sets a directed physical link fault (down / deterministic loss
    /// rate / jitter) for the pipeline to detect.
    ///
    /// # Errors
    ///
    /// * [`Error::Config`] — the pipeline is disabled.
    /// * [`Error::UnknownNode`] — an endpoint is outside the cluster.
    pub fn set_link_fault(&mut self, from: NodeId, to: NodeId, fault: LinkFault) -> Result<()> {
        let count = self.topology.node_count();
        for node in [from, to] {
            if node.0 >= count {
                return Err(Error::UnknownNode(node));
            }
        }
        let Some(membership) = self.membership.as_mut() else {
            return Err(Error::Config(
                "detector pipeline disabled; enable it via ClusterBuilder::detector".into(),
            ));
        };
        membership.set_link_fault(from, to, fault);
        Ok(())
    }

    /// Sets the default heartbeat jitter on every physical link.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] when the pipeline is disabled.
    pub fn set_default_link_jitter(&mut self, jitter_micros: u64) -> Result<()> {
        let Some(membership) = self.membership.as_mut() else {
            return Err(Error::Config(
                "detector pipeline disabled; enable it via ClusterBuilder::detector".into(),
            ));
        };
        membership.set_default_jitter(jitter_micros);
        Ok(())
    }

    /// Runs the membership pipeline up to the current virtual time,
    /// translating its observations into telemetry and installing every
    /// stabilized partitioning (topology + views + mode, with
    /// `cause: detector`). Returns the number of views installed.
    ///
    /// A no-op (returning 0) when the pipeline is disabled.
    pub fn poll_detector(&mut self) -> usize {
        let Some(membership) = self.membership.as_mut() else {
            return 0;
        };
        let events = membership.poll();
        let mut installed = 0;
        for event in events {
            match event {
                MembershipEvent::SuspicionRaised { observer, suspect } => {
                    self.telemetry
                        .metrics()
                        .incr("gms.detector.suspicions_raised");
                    self.telemetry
                        .emit(|| TraceEvent::SuspicionRaised { observer, suspect });
                }
                MembershipEvent::SuspicionCleared { observer, peer } => {
                    self.telemetry
                        .metrics()
                        .incr("gms.detector.suspicions_cleared");
                    self.telemetry
                        .emit(|| TraceEvent::SuspicionCleared { observer, peer });
                }
                MembershipEvent::FlapDamped {
                    node,
                    penalty_milli,
                } => {
                    self.telemetry.metrics().incr("gms.detector.flaps_damped");
                    self.telemetry.emit(|| TraceEvent::FlapDamped {
                        node,
                        penalty_milli,
                    });
                }
                MembershipEvent::ViewStabilized { partitions } => {
                    self.telemetry
                        .metrics()
                        .incr("gms.detector.views_stabilized");
                    let count = partitions.len() as u32;
                    let largest = partitions.iter().map(BTreeSet::len).max().unwrap_or(0) as u32;
                    self.telemetry.emit(|| TraceEvent::ViewStabilized {
                        partitions: count,
                        largest,
                    });
                    self.install_detected_partitions(&partitions);
                    installed += 1;
                }
            }
        }
        installed
    }

    /// Advances the shared clock by `duration` and then polls the
    /// detector ([`Cluster::poll_detector`]). Returns the number of
    /// stabilized views installed.
    pub fn run_detector_for(&mut self, duration: SimDuration) -> usize {
        self.clock.advance(duration);
        self.poll_detector()
    }

    /// Installs a stabilized partitioning detected by the pipeline:
    /// topology, per-node views, and the mode transition the paper's
    /// replication service would trigger (Figure 1.4), tagged
    /// `cause: detector`.
    fn install_detected_partitions(&mut self, partitions: &[BTreeSet<NodeId>]) {
        let raw: Vec<Vec<u32>> = partitions
            .iter()
            .map(|g| g.iter().map(|n| n.0).collect())
            .collect();
        let refs: Vec<&[u32]> = raw.iter().map(Vec::as_slice).collect();
        self.topology.split(&refs);
        self.install_views();
        let to = if !self.topology.is_healthy() || !self.crashed.is_empty() {
            SystemMode::Degraded
        } else if self.needs_reconciliation() {
            SystemMode::Reconciliation
        } else {
            SystemMode::Healthy
        };
        self.set_mode(to, TransitionCause::Detector);
    }

    /// Gate for write-path operations under a quorum-based primary
    /// policy: refuses (or admits as degraded) writes issued in a
    /// minority partition, and witnesses primary-classified writes per
    /// topology epoch for the exclusivity invariant.
    fn check_primary_write(&mut self, node: NodeId) -> Result<()> {
        if !self.config.membership.primary_policy.is_quorum() {
            return Ok(());
        }
        if self.is_primary(node) {
            let epoch = self.topology.epoch();
            let members = self.topology.partition_of(node);
            let unseen = match self.primary_witness.get(&epoch) {
                Some(existing) if existing != members => {
                    self.primary_conflicts += 1;
                    self.telemetry
                        .metrics()
                        .incr("gms.detector.primary_conflicts");
                    false
                }
                Some(_) => false,
                None => true,
            };
            if unseen {
                self.primary_witness.insert(epoch, members.clone());
            }
            return Ok(());
        }
        match self.config.membership.minority_writes {
            MinorityWriteHandling::Refuse => {
                self.telemetry
                    .metrics()
                    .incr("gms.detector.minority_writes_refused");
                Err(Error::NotPrimary {
                    node,
                    partition_size: self.topology.partition_of(node).len() as u32,
                })
            }
            // Admitted: the write runs under degraded-mode rules and
            // records consistency threats like any partition write.
            MinorityWriteHandling::Degrade => Ok(()),
        }
    }

    // ------------------------------------------------------------------
    // Robustness / invariant inspection
    // ------------------------------------------------------------------

    /// Transactions currently open (active or prepared). Together with
    /// [`Cluster::stats`] this asserts transaction conservation:
    /// `begun == committed + rolled_back + open`.
    pub fn open_tx_count(&self) -> usize {
        self.tx_manager.open_count()
    }

    /// Every lock currently held, sorted by object id — invariant
    /// checkers assert that each holder is still an open transaction
    /// (no orphaned locks).
    pub fn held_locks(&self) -> Vec<(ObjectId, TxId)> {
        let mut held: Vec<(ObjectId, TxId)> = self
            .locks
            .holders()
            .map(|(id, tx)| (id.clone(), tx))
            .collect();
        held.sort();
        held
    }

    /// Whether `tx` is still open (active or prepared).
    pub fn tx_is_open(&self, tx: TxId) -> bool {
        self.tx_manager.is_active(tx) || self.tx_manager.is_prepared(tx)
    }

    /// In-doubt transactions awaiting presumed-abort recovery.
    pub fn in_doubt_txs(&self) -> impl Iterator<Item = (TxId, &InDoubtTx)> + '_ {
        self.in_doubt.iter().map(|(tx, info)| (*tx, info))
    }

    /// Number of in-doubt transactions.
    pub fn in_doubt_count(&self) -> usize {
        self.in_doubt.len()
    }

    /// Transactions resolved by the in-doubt recovery protocol so far.
    pub fn in_doubt_resolved(&self) -> u64 {
        self.in_doubt_resolved
    }

    /// Nodes currently crashed.
    pub fn crashed_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.crashed.iter().copied()
    }

    /// Whether `node` is currently crashed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.crashed.contains(&node)
    }

    /// Entries in `node`'s persistent journal (survives crashes).
    pub fn journal_len_on(&self, node: NodeId) -> usize {
        self.containers[node.index()].journal_len()
    }

    /// Sorted committed object ids on `node` — replica-convergence
    /// checks compare these across a healed partition.
    pub fn committed_ids_on(&self, node: NodeId) -> Vec<ObjectId> {
        self.containers[node.index()]
            .committed_ids()
            .cloned()
            .collect()
    }

    // ------------------------------------------------------------------
    // Object migration (federation state transfer)
    // ------------------------------------------------------------------

    /// The committed state of `id` on the first live replica — the
    /// read half of a cross-cluster object migration. Returns `None`
    /// when no live node holds a committed image.
    pub fn export_object(&self, id: &ObjectId) -> Option<EntityState> {
        self.topology
            .nodes()
            .filter(|n| !self.crashed.contains(n))
            .find_map(|n| self.containers[n.index()].committed_entity(id).cloned())
    }

    /// Removes every live committed replica of `id` plus its placement
    /// metadata — the source-side cleanup of a migration. Each removal
    /// is journalled (a crashed source cannot resurrect the object),
    /// and one WAL entry is charged per touched replica. Returns the
    /// number of replicas dropped.
    pub fn evict_object(&mut self, id: &ObjectId) -> u64 {
        let nodes: Vec<NodeId> = self
            .topology
            .nodes()
            .filter(|n| !self.crashed.contains(n))
            .collect();
        let mut dropped = 0u64;
        for node in nodes {
            if self.containers[node.index()].remove_committed(id).is_some() {
                dropped += 1;
            }
        }
        self.replication.unregister_object(id);
        if dropped > 0 {
            self.clock
                .advance(self.costs.wal_replay_per_entry * dropped);
            self.telemetry
                .metrics()
                .add("store.migrate.evicted", dropped);
        }
        dropped
    }

    /// Installs `entity` as committed state on every live node — the
    /// write half of a migration, riding the same journalled install
    /// path the WAL resync uses ([`Cluster::restart`]). The object is
    /// registered with the live nodes as its replica set and the
    /// lowest-numbered one as primary; `wal_replay_per_entry` is
    /// charged per install. Returns the number of replicas written.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] when every node is crashed (nothing
    /// can accept the transfer).
    pub fn install_object(&mut self, entity: EntityState) -> Result<u64> {
        let nodes: Vec<NodeId> = self
            .topology
            .nodes()
            .filter(|n| !self.crashed.contains(n))
            .collect();
        let Some(primary) = nodes.first().copied() else {
            return Err(Error::Config(format!(
                "{}: no live node to install the migrated object on",
                entity.id()
            )));
        };
        let installed = nodes.len() as u64;
        let id = entity.id().clone();
        for node in &nodes {
            self.containers[node.index()].install_committed(entity.clone());
        }
        if self.replication_enabled {
            self.replication
                .register_object(id, nodes.iter().copied(), primary)?;
        }
        self.clock
            .advance(self.costs.wal_replay_per_entry * installed);
        self.telemetry
            .metrics()
            .add("store.migrate.installed", installed);
        Ok(installed)
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    /// Opens a transactional [`Session`] on `node` — the RAII handle
    /// for the begin/invoke/commit lifecycle. A session that is
    /// dropped without [`Session::commit`] or [`Session::prepare`]
    /// rolls its transaction back.
    ///
    /// ```no_run
    /// # use dedisys_core::ClusterBuilder;
    /// # use dedisys_object::AppDescriptor;
    /// # use dedisys_types::NodeId;
    /// # let mut cluster = ClusterBuilder::new(3, AppDescriptor::new("app")).build()?;
    /// let mut session = cluster.session(NodeId(0));
    /// // session.invoke(&id, "reserve", vec![])?;
    /// session.commit()?;
    /// # Ok::<(), dedisys_types::Error>(())
    /// ```
    pub fn session(&mut self, node: NodeId) -> Session<'_> {
        let tx = self.begin_tx(node);
        Session::new(self, tx)
    }

    pub(crate) fn begin_tx(&mut self, node: NodeId) -> TxId {
        let tx = self.tx_manager.begin(node);
        self.tx_infos.insert(tx, TxInfo::default());
        tx
    }

    /// Registers a dynamic negotiation handler for `tx` (§4.2.3).
    pub fn register_negotiation_handler(&mut self, tx: TxId, handler: Box<dyn NegotiationHandler>) {
        self.ccm.register_negotiation_handler(tx, handler);
    }

    /// Rolls back `tx`, discarding all buffered changes.
    ///
    /// # Errors
    ///
    /// * [`Error::NoSuchTransaction`] — unknown or terminated.
    /// * [`Error::TxInDoubt`] — only the in-doubt recovery protocol
    ///   may resolve a transaction whose coordinator crashed.
    pub fn rollback(&mut self, tx: TxId) -> Result<()> {
        if self.in_doubt.contains_key(&tx) {
            return Err(Error::TxInDoubt(tx));
        }
        self.tx_manager.rollback(tx)?;
        self.abort_cleanup(tx);
        Ok(())
    }

    fn abort_cleanup(&mut self, tx: TxId) {
        self.in_doubt.remove(&tx);
        if let Some(info) = self.tx_infos.remove(&tx) {
            for node in info.involved {
                self.containers[node.index()].rollback(tx);
            }
        }
        self.locks.release_all(tx);
        self.ccm.clear_tx(tx);
    }

    /// Phase 1 of an explicit two-phase commit: validates pending
    /// soft/async constraints (the CCMgr's prepare vote) and moves
    /// `tx` to the prepared state. A prepared transaction keeps its
    /// locks and buffers until phase 2 ([`Cluster::commit`]); if its
    /// coordinator crashes first it becomes *in-doubt* and is resolved
    /// by presumed abort ([`Cluster::resolve_in_doubt`]).
    ///
    /// # Errors
    ///
    /// * [`Error::NoSuchTransaction`] — unknown or terminated.
    /// * [`Error::RollbackOnly`] — the transaction was vetoed earlier;
    ///   it is rolled back.
    /// * Constraint errors from the prepare vote (everything rolled
    ///   back).
    pub fn prepare(&mut self, tx: TxId) -> Result<()> {
        if !self.tx_manager.is_active(tx) {
            return Err(Error::NoSuchTransaction(tx));
        }
        if self.tx_manager.is_rollback_only(tx) {
            let _ = self.tx_manager.commit(tx); // transitions to rolled back
            self.abort_cleanup(tx);
            return Err(Error::RollbackOnly(tx));
        }
        if self.ccm_enabled {
            if let Err(e) = self.prepare_constraints(tx) {
                let _ = self.tx_manager.rollback(tx);
                self.abort_cleanup(tx);
                return Err(e);
            }
        }
        self.tx_manager.mark_prepared(tx)?;
        self.telemetry.emit(|| TraceEvent::TwoPc {
            tx,
            phase: TwoPcPhase::Prepare,
            participant: None,
            prepared: Some(true),
        });
        Ok(())
    }

    /// Commits `tx`: validates pending soft/async constraints (the
    /// CCMgr's prepare vote), applies buffered writes and propagates
    /// updates to reachable backups.
    ///
    /// # Errors
    ///
    /// * [`Error::RollbackOnly`] — the transaction was vetoed earlier.
    /// * [`Error::ConstraintViolated`] / [`Error::ThreatRejected`] — a
    ///   soft constraint failed at prepare; everything is rolled back.
    /// * [`Error::TxInDoubt`] — the coordinator crashed after prepare;
    ///   only the in-doubt recovery protocol may resolve the
    ///   transaction.
    pub fn commit(&mut self, tx: TxId) -> Result<()> {
        if self.in_doubt.contains_key(&tx) {
            return Err(Error::TxInDoubt(tx));
        }
        if self.tx_manager.is_prepared(tx) {
            // Phase 2 of an explicit 2PC: constraints already voted at
            // prepare time; just apply.
            self.telemetry.emit(|| TraceEvent::TwoPc {
                tx,
                phase: TwoPcPhase::Commit,
                participant: None,
                prepared: None,
            });
            return self.apply_commit(tx);
        }
        if !self.tx_manager.is_active(tx) {
            return Err(Error::NoSuchTransaction(tx));
        }
        if self.tx_manager.is_rollback_only(tx) {
            let _ = self.tx_manager.commit(tx); // transitions to rolled back
            self.abort_cleanup(tx);
            return Err(Error::RollbackOnly(tx));
        }
        // CCM prepare: soft and async invariants (§4.2.3, soft
        // constraints checked at the end of the transaction).
        if self.ccm_enabled {
            if let Err(e) = self.prepare_constraints(tx) {
                let _ = self.tx_manager.rollback(tx);
                self.abort_cleanup(tx);
                return Err(e);
            }
        }
        self.apply_commit(tx)
    }

    /// Applies a voted transaction: flips the manager state, installs
    /// buffered writes, persists, propagates to reachable backups
    /// (charging propagation plus any ship-retry backoff) and releases
    /// locks.
    fn apply_commit(&mut self, tx: TxId) -> Result<()> {
        self.tx_manager.commit(tx)?;
        let info = self.tx_infos.remove(&tx).unwrap_or_default();
        // Apply buffers and collect written objects per node.
        let mut all_written: Vec<(NodeId, ObjectId, bool)> = Vec::new();
        let mut all_deleted: Vec<(NodeId, ObjectId)> = Vec::new();
        for node in &info.involved {
            let (written, deleted) = self.containers[node.index()].commit(tx);
            for id in written {
                let created = info.created.contains_key(&id);
                all_written.push((*node, id, created));
            }
            for id in deleted {
                all_deleted.push((*node, id));
            }
        }
        // Persist + propagate.
        for (node, id, created) in &all_written {
            self.clock.advance(self.costs.db_write);
            if *created {
                self.clock.advance(self.costs.create_extra);
                self.metrics.creates += 1;
                if self.replication_enabled {
                    // Replica metadata (JNDI name, key, creation
                    // request) is persisted too (§5.1).
                    self.clock.advance(self.costs.db_write);
                    if let Some((replicas, primary)) = info.created.get(id) {
                        self.replication.register_object(
                            id.clone(),
                            replicas.iter().copied(),
                            *primary,
                        )?;
                    }
                }
            }
            if self.replication_enabled {
                let report = self.replication.propagate_update(
                    id,
                    *node,
                    &self.topology,
                    &mut self.containers,
                    self.clock.now(),
                );
                self.clock
                    .advance(self.costs.propagation(report.recipients.len()));
                self.clock
                    .advance(self.costs.ship_retry_backoff * report.backoff_units);
            }
        }
        for (node, id) in &all_deleted {
            self.clock.advance(self.costs.db_write);
            self.metrics.deletes += 1;
            if self.replication_enabled {
                let report = self.replication.propagate_update(
                    id,
                    *node,
                    &self.topology,
                    &mut self.containers,
                    self.clock.now(),
                );
                self.clock
                    .advance(self.costs.propagation(report.recipients.len()));
                self.clock
                    .advance(self.costs.ship_retry_backoff * report.backoff_units);
                self.replication.unregister_object(id);
            }
        }
        // Committed writes advance object versions — drop every cached
        // verdict that depended on the old state.
        let mut touched: BTreeSet<ObjectId> = BTreeSet::new();
        touched.extend(all_written.iter().map(|(_, id, _)| id.clone()));
        touched.extend(all_deleted.iter().map(|(_, id)| id.clone()));
        for id in touched {
            let entries = self.ccm.invalidate_object(&id);
            if entries > 0 {
                self.telemetry
                    .metrics()
                    .add("ccm.verdict_cache.invalidate", entries as u64);
                self.telemetry.emit(|| TraceEvent::VerdictCacheInvalidate {
                    object: id.to_string(),
                    entries: entries as u32,
                });
            }
        }
        self.locks.release_all(tx);
        self.ccm.clear_tx(tx);
        Ok(())
    }

    fn prepare_constraints(&mut self, tx: TxId) -> Result<()> {
        let origin = tx.node;
        let pending = self.ccm.take_pending(tx);
        self.telemetry.emit(|| TraceEvent::TriggerPoint {
            trigger: TriggerKind::CommitPrepare,
            signature: format!("commit:{tx}"),
            matches: pending.len() as u32,
        });
        // §5.5.3: degraded-mode async invariants take the record-only
        // fast path; everything else forms the commit-time validation
        // batch, evaluated on the pool and merged in pending order.
        let degraded =
            self.topology.partition_of(origin).len() < self.topology.node_count() as usize;
        let shortcut = |check: &PendingCheck| {
            degraded && check.constraint.meta.kind == ConstraintKind::AsyncInvariant
        };
        let candidates: Vec<ValidationCandidate<'_>> = pending
            .iter()
            .filter(|check| !shortcut(check))
            .map(|check| {
                ValidationCandidate::invariant(&check.constraint, check.context_object.as_ref())
            })
            .collect();
        let mut evals = self
            .evaluate_candidates(&candidates, origin, tx)
            .into_iter();
        for check in &pending {
            let constraint = check.constraint.as_ref();
            let context_object = check.context_object.as_ref();
            if shortcut(check) {
                // §5.5.3: degraded mode — no validation, no
                // negotiation; record the threat directly.
                let outcome =
                    self.ccm
                        .record_async_threat(constraint, context_object, tx, self.clock.now());
                self.charge_threat_storage(outcome);
            } else {
                let eval = evals.next().ok_or_else(|| unevaluated(constraint))?;
                self.merge_one_validation(origin, tx, constraint, context_object, eval)?;
            }
        }
        // §5.4: the transaction blocks before commit until all deferred
        // negotiation decisions are available.
        let deferred_count = self.ccm.deferred_len(tx) as u64;
        let outcomes = self.ccm.negotiate_deferred(tx)?;
        self.clock.advance(self.costs.negotiation * deferred_count);
        for outcome in outcomes {
            self.charge_threat_storage(outcome);
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Entity operations
    // ------------------------------------------------------------------

    /// Creates `entity` within `tx`, replicated on every node with the
    /// creating node as primary.
    ///
    /// # Errors
    ///
    /// Propagates container failures (unknown class, duplicate id).
    pub fn create(&mut self, node: NodeId, tx: TxId, entity: EntityState) -> Result<()> {
        let replicas: Vec<NodeId> = self.topology.nodes().collect();
        self.create_bound(node, tx, entity, replicas, node)
    }

    /// Creates `entity` with an explicit replica set and primary — the
    /// DTMS "strong ownership" case (§1.4).
    ///
    /// # Errors
    ///
    /// Propagates container failures; [`Error::NoSuchTransaction`] for
    /// unknown transactions.
    pub fn create_bound(
        &mut self,
        node: NodeId,
        tx: TxId,
        entity: EntityState,
        replicas: Vec<NodeId>,
        primary: NodeId,
    ) -> Result<()> {
        if !self.tx_manager.is_active(tx) {
            return Err(Error::NoSuchTransaction(tx));
        }
        if self.crashed.contains(&node) {
            return Err(Error::NodeCrashed(node));
        }
        self.check_primary_write(node)?;
        self.clock.advance(self.costs.base_invocation);
        if self.replication_enabled {
            self.clock.advance(self.costs.replication_interceptor);
        }
        if self.ccm_enabled {
            self.clock.advance(self.costs.ccm_interceptor);
        }
        let id = entity.id().clone();
        // The create executes on the object's primary — a node outside
        // the replica set never materializes a copy.
        let exec = if self.replication_enabled {
            if !self.topology.reachable(node, primary) {
                return Err(Error::NodeUnreachable(primary));
            }
            primary
        } else {
            node
        };
        if exec != node {
            self.clock.advance(self.costs.net_hop * 2);
        }
        self.locks.acquire(tx, &id)?;
        self.containers[exec.index()].create(tx, entity)?;
        let info = self.tx_infos.entry(tx).or_default();
        info.involved.insert(exec);
        info.created.insert(id, (replicas, primary));
        Ok(())
    }

    /// Deletes `id` within `tx`.
    ///
    /// # Errors
    ///
    /// Propagates lock conflicts and container failures.
    pub fn delete(&mut self, node: NodeId, tx: TxId, id: &ObjectId) -> Result<()> {
        if !self.tx_manager.is_active(tx) {
            return Err(Error::NoSuchTransaction(tx));
        }
        if self.crashed.contains(&node) {
            return Err(Error::NodeCrashed(node));
        }
        self.check_primary_write(node)?;
        self.clock.advance(self.costs.base_invocation);
        if self.replication_enabled {
            self.clock.advance(self.costs.replication_interceptor);
        }
        if self.ccm_enabled {
            self.clock.advance(self.costs.ccm_interceptor);
        }
        let exec = if self.replication_enabled {
            self.replication.write_target(id, node, &self.topology)?
        } else {
            node
        };
        if exec != node {
            self.clock.advance(self.costs.net_hop * 2);
        }
        self.locks.acquire(tx, id)?;
        self.containers[exec.index()].delete(tx, id)?;
        self.tx_infos.entry(tx).or_default().involved.insert(exec);
        Ok(())
    }

    /// Invokes `method` on `target` within `tx` — the central
    /// client-facing operation, passing through interception,
    /// constraint consistency management and replication.
    ///
    /// # Errors
    ///
    /// * Availability errors (unreachable object, blocked writes, no
    ///   quorum) depending on the protocol and topology.
    /// * [`Error::ConstraintViolated`] / [`Error::ThreatRejected`] —
    ///   the transaction is marked rollback-only.
    pub fn invoke(
        &mut self,
        node: NodeId,
        tx: TxId,
        target: &ObjectId,
        method: impl Into<MethodName>,
        args: Vec<Value>,
    ) -> Result<Value> {
        self.metrics.invocations += 1;
        self.inv_cost = CostBreakdown::default();
        // The one place the call is reified: everything below borrows
        // this invocation.
        let mut inv = Invocation::new(tx, target.clone(), method, args);
        self.telemetry.emit(|| TraceEvent::InvocationStart {
            node,
            tx,
            target: target.to_string(),
            method: inv.method.to_string(),
        });
        // Pass the reified invocation through the deployed interceptor
        // chain (Figure 4.5) around the middleware pipeline. The chain
        // is configurable at runtime — the `standardjboss.xml`
        // extension point the original prototype hooked into.
        let mut chain = std::mem::take(&mut self.hooks);
        let mut info = HookInfo {
            node,
            mode: self.mode,
            at: self.clock.now(),
        };
        // Interceptors may rewrite the invocation; the end event names
        // the method the client called.
        let called = (!chain.is_empty()).then(|| inv.method.clone());
        let result = chain.invoke(&mut info, &mut inv, |_, inv| self.invoke_inner(node, inv));
        self.hooks = chain;
        let outcome = if result.is_err() {
            self.metrics.failed_invocations += 1;
            InvocationOutcome::Failed
        } else {
            InvocationOutcome::Ok
        };
        let cost = self.inv_cost;
        self.telemetry.metrics().incr("cluster.invocations");
        if result.is_err() {
            self.telemetry.metrics().incr("cluster.failed_invocations");
        }
        self.telemetry
            .metrics()
            .observe("invocation.total", cost.total());
        self.telemetry.emit(|| TraceEvent::InvocationEnd {
            node,
            tx,
            target: target.to_string(),
            method: called.as_ref().unwrap_or(&inv.method).to_string(),
            outcome,
            cost,
        });
        result
    }

    /// Appends an application/operator interceptor to the invocation
    /// chain (runs around every [`Cluster::invoke`] — auditing,
    /// security vetoes, custom payload attachment, …).
    pub fn add_interceptor(
        &mut self,
        interceptor: Box<dyn dedisys_object::Interceptor<HookInfo> + Send>,
    ) {
        self.hooks.push(interceptor);
    }

    fn invoke_inner(&mut self, node: NodeId, inv: &Invocation) -> Result<Value> {
        let tx = inv.tx;
        let target = &inv.target;
        if !self.tx_manager.is_active(tx) {
            return Err(Error::NoSuchTransaction(tx));
        }
        if self.crashed.contains(&node) {
            return Err(Error::NodeCrashed(node));
        }
        // Deployment check + method kind.
        let class = self
            .app
            .class(target.class())
            .ok_or_else(|| Error::ClassNotDeployed(target.class().to_string()))?;
        let kind = class
            .method(&inv.method)
            .map(dedisys_object::MethodDescriptor::kind)
            .unwrap_or(MethodKind::Write); // safe side (§5.1)

        // Base invocation + interceptor costs (R2 — interception).
        let t_r2 = self.clock.now();
        self.clock.advance(self.costs.base_invocation);
        if self.replication_enabled {
            self.clock.advance(self.costs.replication_interceptor);
        }
        if self.ccm_enabled {
            self.clock.advance(self.costs.ccm_interceptor);
        }
        self.inv_cost.r2_interception_ns += self.clock.now().since(t_r2).as_nanos();

        // Choose the executing node (R3 — target routing + locks).
        let t_r3 = self.clock.now();
        let exec = match kind {
            MethodKind::Write => {
                self.check_primary_write(node)?;
                if self.replication_enabled {
                    self.replication
                        .write_target(target, node, &self.topology)?
                } else {
                    node
                }
            }
            MethodKind::Read => self.read_target(node, tx, target)?,
        };
        if exec != node {
            self.clock.advance(self.costs.net_hop * 2);
        }
        if kind == MethodKind::Write {
            self.locks.acquire(tx, target)?;
        }
        self.tx_infos.entry(tx).or_default().involved.insert(exec);
        self.inv_cost.r3_preparation_ns += self.clock.now().since(t_r3).as_nanos();

        // The one signature every trigger point of this call looks up.
        let sig = inv.signature();

        // --- CCM before-invocation: preconditions + @pre snapshots ---
        let pre_states = if self.ccm_enabled {
            self.ccm_phase(tx, |cluster| cluster.check_before(exec, inv, &sig))?
        } else {
            Vec::new()
        };

        // --- Dispatch (R1 — application/database work) ---
        let t_r1 = self.clock.now();
        let result =
            self.methods
                .dispatch(&mut self.containers[exec.index()], inv, self.clock.now());
        if kind == MethodKind::Read {
            self.clock.advance(self.costs.db_read);
        }
        self.inv_cost.r1_application_ns += self.clock.now().since(t_r1).as_nanos();
        let value = match result {
            Ok(v) => v,
            Err(e) => {
                let _ = self.tx_manager.set_rollback_only(tx);
                return Err(e);
            }
        };

        // --- CCM after-invocation: postconditions + invariants ---
        if self.ccm_enabled {
            self.ccm_phase(tx, |cluster| {
                cluster.check_after(exec, inv, &sig, &value, &pre_states)
            })?;
        }
        Ok(value)
    }

    /// Runs one CCM phase of an invocation: its virtual time goes to
    /// the R5 slice of the invocation in flight, and a failure marks
    /// the transaction rollback-only (§4.2.3).
    fn ccm_phase<T>(&mut self, tx: TxId, phase: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        let t_r5 = self.clock.now();
        let result = phase(self);
        self.inv_cost.r5_checks_ns += self.clock.now().since(t_r5).as_nanos();
        if result.is_err() {
            let _ = self.tx_manager.set_rollback_only(tx);
        }
        result
    }

    /// Before the call runs: validates the preconditions of `sig` and
    /// lets its postconditions snapshot their `@pre` state. Returns one
    /// snapshot per postcondition, in lookup order.
    fn check_before(
        &mut self,
        exec: NodeId,
        inv: &Invocation,
        sig: &MethodSignature,
    ) -> Result<Vec<BTreeMap<String, Value>>> {
        let tx = inv.tx;
        let pres = self.repository.lookup(sig, LookupKind::Precondition);
        self.telemetry.emit(|| TraceEvent::TriggerPoint {
            trigger: TriggerKind::Precondition,
            signature: sig.to_string(),
            matches: pres.len() as u32,
        });
        let candidates: Vec<ValidationCandidate<'_>> = pres
            .iter()
            .map(|constraint| ValidationCandidate {
                constraint,
                context_object: Some(&inv.target),
                call: Some(inv),
                result: None,
                pre_state: None,
            })
            .collect();
        let evals = self.evaluate_candidates(&candidates, exec, tx);
        for (constraint, eval) in pres.iter().zip(evals) {
            self.merge_one_validation(exec, tx, constraint, Some(&inv.target), eval)?;
        }
        let posts = self.repository.lookup(sig, LookupKind::Postcondition);
        let mut pre_states = Vec::with_capacity(posts.len());
        for constraint in posts.iter() {
            let mut access = ReplicaAccess::new(
                &self.containers,
                &self.replication,
                &self.topology,
                exec,
                tx,
            );
            let mut ctx = ValidationContext::borrowing(None, Some(inv), None, None, &mut access);
            constraint.implementation.before_method_invocation(&mut ctx);
            pre_states.push(ctx.take_pre_state());
        }
        Ok(pre_states)
    }

    /// After the call returned `value`: validates the postconditions
    /// of `sig` against their `pre_states` (as [`Cluster::check_before`]
    /// returned them), then its hard invariants; soft and async
    /// invariants are registered for commit-time validation.
    fn check_after(
        &mut self,
        exec: NodeId,
        inv: &Invocation,
        sig: &MethodSignature,
        value: &Value,
        pre_states: &[BTreeMap<String, Value>],
    ) -> Result<()> {
        let tx = inv.tx;
        let target = &inv.target;
        let posts = self.repository.lookup(sig, LookupKind::Postcondition);
        self.telemetry.emit(|| TraceEvent::TriggerPoint {
            trigger: TriggerKind::Postcondition,
            signature: sig.to_string(),
            matches: posts.len() as u32,
        });
        let candidates: Vec<ValidationCandidate<'_>> = posts
            .iter()
            .zip(pre_states)
            .map(|(constraint, pre_state)| ValidationCandidate {
                constraint,
                context_object: Some(target),
                call: Some(inv),
                result: Some(value),
                pre_state: Some(pre_state),
            })
            .collect();
        let evals = self.evaluate_candidates(&candidates, exec, tx);
        for (constraint, eval) in posts.iter().zip(evals) {
            self.merge_one_validation(exec, tx, constraint, Some(target), eval)?;
        }
        let invariants = self.repository.lookup(sig, LookupKind::Invariant);
        self.telemetry.emit(|| TraceEvent::TriggerPoint {
            trigger: TriggerKind::Invariant,
            signature: sig.to_string(),
            matches: invariants.len() as u32,
        });
        // Resolve every context object first (§4.2.2), then batch
        // the hard invariants; soft/async invariants are only
        // registered for commit-time validation.
        let mut resolved: Vec<Option<ObjectId>> = Vec::with_capacity(invariants.len());
        for constraint in invariants.iter() {
            let preparation = constraint
                .preparation_for(sig)
                .unwrap_or(&ContextPreparation::CalledObject);
            let mut access = ReplicaAccess::new(
                &self.containers,
                &self.replication,
                &self.topology,
                exec,
                tx,
            );
            resolved.push(match preparation.resolve(target, &mut access) {
                Ok(context_object) => context_object,
                // Context preparation itself hit an unreachable
                // object: treat the constraint as uncheckable via a
                // no-context check.
                Err(Error::ObjectUnreachable(_)) => None,
                Err(e) => return Err(e),
            });
        }
        let candidates: Vec<ValidationCandidate<'_>> = invariants
            .iter()
            .zip(&resolved)
            .filter(|(constraint, _)| constraint.meta.kind == ConstraintKind::HardInvariant)
            .map(|(constraint, context_object)| {
                ValidationCandidate::invariant(constraint, context_object.as_ref())
            })
            .collect();
        let mut evals = self.evaluate_candidates(&candidates, exec, tx).into_iter();
        for (constraint, context_object) in invariants.iter().zip(resolved) {
            match constraint.meta.kind {
                ConstraintKind::HardInvariant => {
                    let eval = evals.next().ok_or_else(|| unevaluated(constraint))?;
                    self.merge_one_validation(exec, tx, constraint, context_object.as_ref(), eval)?;
                }
                ConstraintKind::SoftInvariant | ConstraintKind::AsyncInvariant => {
                    self.ccm.register_pending(
                        tx,
                        PendingCheck {
                            constraint: Arc::clone(constraint),
                            context_object,
                        },
                    );
                }
                _ => {}
            }
        }
        Ok(())
    }

    fn read_target(&self, node: NodeId, tx: TxId, target: &ObjectId) -> Result<NodeId> {
        if self.containers[node.index()].exists(tx, target) {
            return Ok(node);
        }
        let partition = self.topology.partition_of(node);
        partition
            .iter()
            .find(|n| {
                self.containers[n.index()]
                    .committed_entity(target)
                    .is_some()
            })
            .copied()
            .ok_or_else(|| Error::ObjectUnreachable(target.clone()))
    }

    /// Probes whether `candidate` is answerable from the verdict
    /// cache (which the caller has found switched on): the candidate is
    /// an invariant check on committed state (no call info, no `@pre`
    /// snapshot, no buffered transactional write shadowing the object
    /// anywhere in the partition), the constraint's static read-set is
    /// cacheable, and
    /// the object is reachable. Returns the cache key — context object
    /// and its committed version — or `None` when the candidate must
    /// be evaluated without touching the cache.
    fn cacheable_probe<'a>(
        &self,
        candidate: &ValidationCandidate<'a>,
        exec: NodeId,
        tx: TxId,
    ) -> Option<(&'a ObjectId, dedisys_types::Version)> {
        if candidate.call.is_some() || candidate.pre_state.is_some_and(|pre| !pre.is_empty()) {
            return None;
        }
        let object = candidate.context_object?;
        let read_set = candidate.constraint.implementation.read_set()?;
        if !read_set.cacheable() {
            return None;
        }
        if !self.replication.is_reachable(object, exec, &self.topology) {
            return None;
        }
        let members = self.topology.partition_of(exec);
        for n in members {
            if self.containers[n.index()]
                .buffered_view(tx, object)
                .is_some()
            {
                return None;
            }
        }
        // Mirror the evaluation's entity lookup (minus the buffered
        // views excluded above) so the version keyed on is exactly the
        // state the evaluation would read.
        let version = if let Ok(e) = self.containers[exec.index()].view(tx, object) {
            e.version()
        } else {
            members
                .iter()
                .find_map(|n| self.containers[n.index()].committed_entity(object))?
                .version()
        };
        Some((object, version))
    }

    /// Runs the evaluation phase for a batch of validation candidates
    /// and returns one raw evaluation per candidate, in candidate
    /// order, each tagged with how it was answered (full evaluation or
    /// verdict-cache hit) so the serial merge phase can take the right
    /// virtual-time charge.
    ///
    /// The cache probe and any insertions happen here, serially, in
    /// candidate order — workers never touch the cache, so parallel
    /// runs stay byte-identical to serial ones. Only candidates the
    /// probe cannot answer are dispatched to the configured pool
    /// (`config().validation.parallelism`); with the cache off
    /// that is the batch as it stands.
    ///
    /// Multi-candidate batches are recorded as `validation_batch`
    /// trace events; the reported `shards`/`pool` figures are a pure
    /// function of the batch size, so traces stay byte-identical
    /// across parallelism settings.
    pub(crate) fn evaluate_candidates(
        &mut self,
        candidates: &[ValidationCandidate<'_>],
        exec: NodeId,
        tx: TxId,
    ) -> Vec<(RawEvaluation, ValidationCharge)> {
        if candidates.is_empty() {
            return Vec::new();
        }
        if candidates.len() > 1 {
            let shards = batch::shard_count(candidates.len());
            self.telemetry.metrics().incr("ccm.batches");
            self.telemetry.emit(|| TraceEvent::ValidationBatch {
                candidates: candidates.len() as u32,
                shards,
                pool: shards,
            });
        }
        let miss_charge = match self.config.validation.engine {
            ConstraintEngine::Interpreted => ValidationCharge::Interpreted,
            ConstraintEngine::Compiled => ValidationCharge::Compiled,
        };
        if !self.config.validation.verdict_cache {
            return self
                .evaluate_on_pool(candidates, exec, tx)
                .into_iter()
                .map(|eval| (eval, miss_charge))
                .collect();
        }
        // Every answer carries its candidate's position, so hits and
        // evaluated misses fall back into candidate order by sorting.
        let mut answers: Vec<(usize, RawEvaluation, ValidationCharge)> =
            Vec::with_capacity(candidates.len());
        // Misses, each with the cache key to insert under once it
        // evaluates to a definite degree (`None`: not cacheable).
        let mut misses = Vec::new();
        for (i, candidate) in candidates.iter().enumerate() {
            let key = self.cacheable_probe(candidate, exec, tx);
            let hit = key.and_then(|(object, version)| {
                self.ccm
                    .cached_verdict(object, exec, candidate.constraint.name(), version)
                    .cloned()
            });
            if let (Some((object, _)), Some(hit)) = (key, hit) {
                self.telemetry.metrics().incr("ccm.verdict_cache.hit");
                self.telemetry.emit(|| TraceEvent::VerdictCacheHit {
                    constraint: candidate.constraint.name().to_string(),
                    object: object.to_string(),
                });
                let eval = RawEvaluation {
                    outcome: Ok(hit.degree),
                    accessed: hit.accessed,
                };
                answers.push((i, eval, ValidationCharge::CacheHit));
                continue;
            }
            if let Some((object, _)) = key {
                self.telemetry.metrics().incr("ccm.verdict_cache.miss");
                self.telemetry.emit(|| TraceEvent::VerdictCacheMiss {
                    constraint: candidate.constraint.name().to_string(),
                    object: object.to_string(),
                });
            }
            misses.push((i, *candidate, key));
        }
        let miss_candidates: Vec<ValidationCandidate<'_>> =
            misses.iter().map(|(_, candidate, _)| *candidate).collect();
        let evals = self.evaluate_on_pool(&miss_candidates, exec, tx);
        for ((i, candidate, key), eval) in misses.into_iter().zip(evals) {
            if let (
                Some((object, version)),
                Ok(degree @ (SatisfactionDegree::Satisfied | SatisfactionDegree::Violated)),
            ) = (key, &eval.outcome)
            {
                self.ccm.store_verdict(
                    object.clone(),
                    exec,
                    candidate.constraint.name().clone(),
                    crate::ccm::CachedVerdict {
                        version,
                        degree: *degree,
                        accessed: eval.accessed.clone(),
                    },
                );
            }
            answers.push((i, eval, miss_charge));
        }
        answers.sort_unstable_by_key(|(i, ..)| *i);
        answers
            .into_iter()
            .map(|(_, eval, charge)| (eval, charge))
            .collect()
    }

    /// The pure evaluation of `candidates` on the configured pool, one
    /// result per candidate in candidate order.
    fn evaluate_on_pool(
        &self,
        candidates: &[ValidationCandidate<'_>],
        exec: NodeId,
        tx: TxId,
    ) -> Vec<RawEvaluation> {
        batch::evaluate_batch(
            candidates,
            &self.containers,
            &self.replication,
            &self.topology,
            exec,
            tx,
            self.partition_env(exec),
            self.config.validation.engine,
            self.config.validation.parallelism,
        )
    }

    /// Serial merge phase for one evaluated candidate: staleness
    /// degradation, statistics, telemetry and the virtual-time charge
    /// for the check (per the candidate's [`ValidationCharge`]).
    pub(crate) fn merge_validation(
        &mut self,
        constraint: &RegisteredConstraint,
        eval: (RawEvaluation, ValidationCharge),
        exec: NodeId,
        tx: TxId,
    ) -> Result<ValidationVerdict> {
        let (eval, charge) = eval;
        let now = self.clock.now();
        let verdict = {
            let access = ReplicaAccess::new(
                &self.containers,
                &self.replication,
                &self.topology,
                exec,
                tx,
            );
            self.ccm.finish_validation(constraint, eval, &access, now)?
        };
        self.clock.advance(match charge {
            ValidationCharge::Interpreted => self.costs.constraint_check,
            ValidationCharge::Compiled => self.costs.compiled_constraint_check,
            ValidationCharge::CacheHit => self.costs.verdict_cache_probe,
        });
        Ok(verdict)
    }

    /// Merge + verdict processing for one evaluated candidate:
    /// [`Cluster::merge_validation`] followed by negotiation and
    /// threat storage.
    pub(crate) fn merge_one_validation(
        &mut self,
        exec: NodeId,
        tx: TxId,
        constraint: &RegisteredConstraint,
        context_object: Option<&ObjectId>,
        eval: (RawEvaluation, ValidationCharge),
    ) -> Result<()> {
        let verdict = self.merge_validation(constraint, eval, exec, tx)?;
        let was_threat = verdict.degree.is_threat();
        let outcome =
            self.ccm
                .process_verdict(constraint, context_object, verdict, tx, self.clock.now())?;
        if was_threat {
            self.clock.advance(self.costs.negotiation);
        }
        if let Some(outcome) = outcome {
            self.charge_threat_storage(outcome);
        }
        Ok(())
    }

    pub(crate) fn charge_threat_storage(&mut self, outcome: StoreOutcome) {
        let identities = self.ccm.threat_store().identity_count() as u64;
        match outcome {
            StoreOutcome::Stored => {
                self.clock.advance(self.costs.threat_new_fixed);
                self.clock
                    .advance(self.costs.threat_scan_per_identity * identities.saturating_sub(1));
            }
            StoreOutcome::LinkedOccurrence => {
                self.clock.advance(self.costs.threat_link_fixed);
                self.clock
                    .advance(self.costs.threat_scan_per_identity * identities.saturating_sub(1));
                self.maybe_compact_threats();
            }
            StoreOutcome::Deduplicated => {
                self.clock.advance(self.costs.threat_dedup_read);
            }
        }
    }

    /// Folds duplicate threat records *during* degraded mode under
    /// [`HistoryPolicy::Reduced`], once the duplicate volume crosses
    /// the threshold — so heal-time reconciliation ships one folded
    /// record per identity instead of the occurrence history (§5.5.1).
    fn maybe_compact_threats(&mut self) {
        if self.ccm.threat_store().policy() != HistoryPolicy::Reduced {
            return;
        }
        if self.ccm.threat_store().duplicate_records() < self.config.durability.compaction_threshold
        {
            return;
        }
        let report = self.ccm.threat_store_mut().compact();
        if report.folded == 0 {
            return;
        }
        // One batched rewrite per folded identity group, plus the
        // marginal scan cost per removed record.
        self.clock.advance(
            self.costs.db_write * report.retained
                + self.costs.threat_scan_per_identity * report.folded,
        );
        self.telemetry
            .metrics()
            .add("reconcile.threats_folded", report.folded);
        self.telemetry.emit(|| TraceEvent::ThreatCompaction {
            folded: report.folded,
            retained: report.retained,
        });
    }

    // ------------------------------------------------------------------
    // Convenience accessors used by examples and benches
    // ------------------------------------------------------------------

    /// Invokes the conventional setter for `field`.
    ///
    /// # Errors
    ///
    /// As [`Cluster::invoke`].
    pub fn set_field(
        &mut self,
        node: NodeId,
        tx: TxId,
        target: &ObjectId,
        field: &str,
        value: Value,
    ) -> Result<()> {
        self.invoke(node, tx, target, setter_name(field), vec![value])
            .map(|_| ())
    }

    /// Invokes the conventional getter for `field`.
    ///
    /// # Errors
    ///
    /// As [`Cluster::invoke`].
    pub fn get_field(
        &mut self,
        node: NodeId,
        tx: TxId,
        target: &ObjectId,
        field: &str,
    ) -> Result<Value> {
        self.invoke(node, tx, target, getter_name(field), vec![])
    }

    pub(crate) fn replication_and_containers(
        &mut self,
    ) -> (&mut ReplicationManager, &mut [EntityContainer]) {
        (&mut self.replication, &mut self.containers)
    }

    pub(crate) fn recon_env(&mut self) -> (&SimClock, &CostModel, &mut [EntityContainer]) {
        (&self.clock, &self.costs, &mut self.containers)
    }

    pub(crate) fn validation_env(
        &mut self,
    ) -> (&ReplicationManager, &[EntityContainer], &Topology, &mut Ccm) {
        (
            &self.replication,
            &self.containers,
            &self.topology,
            &mut self.ccm,
        )
    }

    /// Runs `f` inside a fresh transaction on `node`, committing on
    /// success and rolling back on failure.
    ///
    /// # Errors
    ///
    /// Propagates the closure's error (after rollback) or the commit
    /// failure.
    pub fn run_tx<T>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut Cluster, TxId) -> Result<T>,
    ) -> Result<T> {
        let tx = self.begin_tx(node);
        match f(self, tx) {
            Ok(value) => {
                self.commit(tx)?;
                Ok(value)
            }
            Err(e) => {
                let _ = self.rollback(tx);
                Err(e)
            }
        }
    }
}

/// The conventional setter name for a field (`sold` → `setSold`).
pub fn setter_name(field: &str) -> String {
    accessor_name("set", field)
}

/// The conventional getter name for a field (`sold` → `getSold`).
pub fn getter_name(field: &str) -> String {
    accessor_name("get", field)
}

/// `prefix` + `field` with its first character upper-cased, built in
/// the one string the invocation then owns.
fn accessor_name(prefix: &str, field: &str) -> String {
    let mut name = String::with_capacity(prefix.len() + field.len());
    name.push_str(prefix);
    let mut chars = field.chars();
    if let Some(first) = chars.next() {
        name.extend(first.to_uppercase());
        name.push_str(chars.as_str());
    }
    name
}

/// The typed failure for a candidate the evaluation phase produced no
/// result for. Evaluations pair with candidates one to one, so this is
/// a broken internal condition — reported to the caller rather than
/// panicking on the request path.
fn unevaluated(constraint: &RegisteredConstraint) -> Error {
    Error::ConstraintUncheckable {
        constraint: constraint.name().clone(),
    }
}
