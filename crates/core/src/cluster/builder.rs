//! Assembly: the builder wires every service of Figure 4.1 onto one
//! clock, one telemetry bus and one cost model.

use super::admin::compile_constraints;
use super::validation::VerdictCache;
use super::{Cluster, ClusterMetrics};
use crate::ccm::Ccm;
use crate::config::ClusterConfig;
use crate::threat::ReconcileInstructions;
use crate::CostModel;
use dedisys_constraints::{
    ConstraintEngine, ConstraintRepository, LookupMode, RegisteredConstraint,
};
use dedisys_gms::{MembershipSim, NodeWeights, ViewTracker};
use dedisys_net::{SimClock, Topology};
use dedisys_object::{AppDescriptor, EntityContainer, InterceptorChain, MethodTable};
use dedisys_replication::{ProtocolKind, ReplicationManager};
use dedisys_telemetry::{CostBreakdown, Telemetry};
use dedisys_tx::{LockTable, TransactionManager};
use dedisys_types::{Error, NodeId, Result, SystemMode};
use std::collections::BTreeSet;

/// Builder for [`Cluster`] (C-BUILDER).
///
/// Behavioural knobs live in one typed [`ClusterConfig`] edited through
/// [`ClusterBuilder::configure`]; the remaining builder methods cover
/// structure that is not configuration (nodes, application, methods,
/// constraints, protocol, weights, cost model).
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

    /// Edits the typed configuration — the one way to set behavioural
    /// knobs at build time:
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
        let config = self.config;
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
        let mut repository = ConstraintRepository::new(LookupMode::Cached);
        for c in self.constraints {
            repository.register(c)?;
        }
        let ccm = Ccm::new(
            config.durability.threat_policy,
            self.default_instructions,
            clock.clone(),
            telemetry.clone(),
        );
        let mut replication = ReplicationManager::new(self.protocol, weights.clone());
        replication.attach_telemetry(telemetry.clone());
        let mut txs = TransactionManager::default();
        txs.attach_telemetry(telemetry.clone());
        let view_trackers = (0..self.nodes)
            .map(|n| ViewTracker::new(NodeId(n), &topology, telemetry.clone()))
            .collect();
        if config.validation.engine == ConstraintEngine::Compiled {
            compile_constraints(&repository, &telemetry, &clock, &self.costs);
        }
        let membership = config.membership.detector_enabled.then(|| {
            MembershipSim::new(
                self.nodes,
                config.membership.detector,
                config.membership.settle,
                config.membership.seed,
                clock.clone(),
                telemetry.clone(),
            )
        });
        Ok(Cluster {
            clock,
            telemetry,
            topology,
            membership,
            config,
            weights,
            containers: (0..self.nodes)
                .map(|_| EntityContainer::new(&self.app))
                .collect(),
            app: self.app,
            methods: self.methods,
            txs,
            spare_txs: Vec::new(),
            in_doubt_resolved: 0,
            crashed: BTreeSet::new(),
            locks: LockTable::new(),
            replication,
            repository,
            ccm,
            verdict_cache: VerdictCache::default(),
            costs: self.costs,
            mode: SystemMode::Healthy,
            view_trackers,
            metrics: ClusterMetrics::default(),
            inv_cost: CostBreakdown::default(),
            changes: Vec::new(),
            contexts: Vec::new(),
            gathered: Vec::new(),
            pre_states: Vec::new(),
            setter_args: Vec::new(),
            hooks: InterceptorChain::new(),
            ccm_enabled: self.ccm_enabled,
            replication_enabled: self.replication_enabled,
        })
    }
}
