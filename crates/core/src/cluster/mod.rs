//! The cluster façade: a simulated DeDiSys deployment.
//!
//! A [`Cluster`] assembles every middleware service of Figure 4.1 for
//! `n` nodes — entity containers, transaction manager + lock table,
//! constraint repository + CCMgr, replication manager, group
//! membership (view trackers + partition weights) — over the shared
//! virtual clock and cost model. Clients drive it synchronously:
//! operations execute depth-first through the node stacks while the
//! clock advances per the cost model (see DESIGN.md §1).
//!
//! One `impl Cluster` block per file, cut along the services of Figure
//! 4.1 (DESIGN.md §2 has the map); the fields are private to this
//! module tree, and a rule that several services apply — the mode after
//! a topology change, who may write, what a check costs — is defined in
//! the file of the service that owns it and called from the others.

mod admin;
mod audit;
mod builder;
mod invocation;
mod lifecycle;
mod membership;
mod reconciliation;
mod transactions;
mod validation;

pub use audit::{Explanation, Finding};
pub use builder::ClusterBuilder;
pub use reconciliation::{
    ConstraintReconcileReport, ConstraintReconciliationHandler, DeferAll, ReconOps,
    ReconciliationSummary, ViolationReport,
};

use crate::ccm::{Ccm, NegotiationHandler, PartitionEnv, PendingCheck, TxThreats};
use crate::config::ClusterConfig;
use crate::threat::ThreatStore;
use crate::CostModel;
use dedisys_constraints::{ConstraintRepository, PreState, RegisteredConstraint};
use dedisys_gms::{MembershipSim, NodeWeights, ViewTracker};
use dedisys_net::{SimClock, Topology};
use dedisys_object::{AppDescriptor, EntityContainer, EntityState, InterceptorChain, MethodTable};
use dedisys_replication::ReplicationManager;
use dedisys_telemetry::{CostBreakdown, MetricsSnapshot, Telemetry};
use dedisys_tx::{LockTable, TransactionManager};
use dedisys_types::{
    ConstraintName, Error, MethodName, NodeId, ObjectId, Result, SimTime, SystemMode, TxId, Value,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

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
    /// Telemetry metrics registry: histograms, and the named counters
    /// that repeat none of the typed fields above.
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

/// One runtime change of the constraint set (§3.3), for
/// [`Cluster::change_constraint`]; Add and Enable carry its handler.
pub enum ConstraintChange {
    /// Registers a new constraint.
    Add(RegisteredConstraint, Option<Box<dyn NegotiationHandler>>),
    /// Enables a registered constraint (or re-checks an enabled one).
    Enable(ConstraintName, Option<Box<dyn NegotiationHandler>>),
    /// Disables a registered constraint.
    Disable(ConstraintName),
    /// Removes a registered constraint.
    Remove(ConstraintName),
}

/// What the middleware remembers about one open transaction — the
/// cluster's and the CCMgr's alike, carried by the transaction
/// manager's record: it is taken by `begin_tx` and leaves in `abort` or
/// `apply_commit`, nowhere else, for the cluster's spare list (emptied,
/// its buffers kept).
#[derive(Default)]
struct TxInfo {
    /// The nodes the transaction executed on, in id order.
    involved: Vec<NodeId>,
    /// Objects created in this tx with their chosen placement.
    created: BTreeMap<ObjectId, (Vec<NodeId>, NodeId)>,
    /// Set when the coordinator crashed after prepare (awaiting
    /// presumed-abort recovery).
    in_doubt: Option<InDoubtTx>,
    /// Soft/async invariants awaiting the commit-time vote.
    pending: Vec<PendingCheck>,
    /// Its handler, its deferred threats and the threat changes it
    /// stages for `apply_commit`.
    threats: TxThreats,
}

impl TxInfo {
    /// Records that the transaction executed on `node`.
    fn involve(&mut self, node: NodeId) {
        if let Err(at) = self.involved.binary_search(&node) {
            self.involved.insert(at, node);
        }
    }

    /// Empties the record for the next transaction.
    fn clear(&mut self) {
        let Self {
            involved,
            created,
            in_doubt,
            pending,
            threats:
                TxThreats {
                    handler,
                    deferred,
                    accepted,
                    cleaned,
                },
        } = self;
        involved.clear();
        created.clear();
        *in_doubt = None;
        pending.clear();
        *handler = None;
        deferred.clear();
        accepted.clear();
        cleaned.clear();
    }
}

/// What a commit did to one object on one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Change {
    Created,
    Written,
    Deleted,
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
    weights: NodeWeights,
    containers: Vec<EntityContainer>,
    app: AppDescriptor,
    methods: MethodTable,
    /// One record per open transaction: its status, its veto and its
    /// `TxInfo`. Hashed without a seed, so whatever walks it towards a
    /// trace sorts by `TxId` first.
    txs: TransactionManager<TxInfo>,
    /// Records of ended transactions, emptied, for the next `begin_tx`:
    /// never more than were ever open at once.
    spare_txs: Vec<TxInfo>,
    /// Transactions resolved by the in-doubt recovery protocol so far.
    in_doubt_resolved: u64,
    /// Nodes currently crashed: volatile state torn down, persistent
    /// journal kept, topology-isolated until restarted.
    crashed: BTreeSet<NodeId>,
    locks: LockTable,
    replication: ReplicationManager,
    repository: ConstraintRepository,
    ccm: Ccm,
    verdict_cache: validation::VerdictCache,
    costs: CostModel,
    mode: SystemMode,
    view_trackers: Vec<ViewTracker>,
    metrics: ClusterMetrics,
    /// Scratch R1–R5 breakdown of the invocation in flight.
    inv_cost: CostBreakdown,
    /// Scratch of `apply_commit`: what the commit did on which node.
    /// Taken, filled, cleared and put back, so a commit reuses it.
    changes: Vec<(NodeId, ObjectId, Change)>,
    /// Scratch of `check_after`: each invariant's resolved context
    /// object, reused like `changes`.
    contexts: Vec<Option<ObjectId>>,
    /// Scratch of every check: the objects it gathers. Lent to the
    /// validation context, carried by the verdict, put back once the
    /// verdict is processed.
    gathered: Vec<ObjectId>,
    /// Scratch of `invoke`: one `@pre` snapshot slot per postcondition
    /// of the call in flight, filled in place by the before-hook and
    /// borrowed by the after-check.
    pre_states: Vec<PreState>,
    /// Scratch of `set_field`: its one argument, taken back from the
    /// invocation after the call.
    setter_args: Vec<Value>,
    hooks: InterceptorChain<HookInfo>,
    ccm_enabled: bool,
    replication_enabled: bool,
}

// `Cluster` is `Send`, a public promise: a caller may build a cluster
// on one thread and drive it from another.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Cluster>();
};

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

    /// The nodes that are up (not crashed), in id order.
    ///
    /// ```
    /// # use dedisys_core::ClusterBuilder;
    /// # use dedisys_object::AppDescriptor;
    /// # use dedisys_types::NodeId;
    /// let mut cluster = ClusterBuilder::new(3, AppDescriptor::new("app")).build()?;
    /// cluster.crash(NodeId(1))?;
    /// assert!(cluster.live_nodes().eq([NodeId(0), NodeId(2)]));
    /// # Ok::<(), dedisys_types::Error>(())
    /// ```
    pub fn live_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.topology
            .nodes()
            .filter(|node| !self.crashed.contains(node))
    }

    fn check_known(&self, node: NodeId) -> Result<()> {
        if node.0 < self.topology.node_count() {
            Ok(())
        } else {
            Err(Error::UnknownNode(node))
        }
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
            tx: self.txs.stats(),
            telemetry: self.telemetry.metrics().snapshot(),
            events_emitted: self.telemetry.events_emitted(),
        }
    }

    /// The stored consistency threats.
    pub fn threats(&self) -> &ThreatStore {
        &self.ccm.threat_store
    }

    /// The typed configuration in force. This is the same value the
    /// builder was given (modulo clamping), updated by every
    /// [`Cluster::reconfigure`] since.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The constraint repository.
    pub fn repository(&self) -> &ConstraintRepository {
        &self.repository
    }

    /// Fraction of total system weight reachable from `node` (§5.5.2).
    pub fn partition_fraction(&self, node: NodeId) -> f64 {
        self.weights
            .partition_fraction(self.topology.partition_of(node))
    }

    /// The full partition environment observed from `node`: the weight
    /// fraction plus the exact integer weight units (§5.5.2), and
    /// whether the topology is healthy.
    fn partition_env(&self, node: NodeId) -> PartitionEnv {
        let members = self.topology.partition_of(node);
        PartitionEnv {
            fraction: self.weights.partition_fraction(members),
            weight: self.weights.partition_weight(members),
            total: self.weights.total(),
            healthy: self.topology.is_healthy(),
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

    /// The installed view of `node`.
    pub fn view_of(&self, node: NodeId) -> &dedisys_gms::View {
        self.view_trackers[node.index()].current()
    }

    /// Transactions currently open (active or prepared). Together with
    /// [`Cluster::stats`] this asserts transaction conservation:
    /// `begun == committed + rolled_back + open`.
    pub fn open_tx_count(&self) -> usize {
        self.txs.open_count()
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
        self.txs.info(tx).is_some()
    }

    /// Records held per open transaction, over both tables keyed by
    /// `TxId` (the transaction manager's, every node's write buffers):
    /// zero whenever no transaction is open.
    pub fn tx_record_count(&self) -> usize {
        let buffers: usize = self.containers.iter().map(|c| c.buffer_count()).sum();
        self.txs.open_count() + buffers
    }

    /// Entries `node`'s persistent journal holds (it survives crashes):
    /// what a restart replays and is charged for. Not a count of
    /// appends — the journal compacts itself to each object's newest
    /// committed state, so this stays within twice the objects it held
    /// at its last compaction plus a fixed floor however long the node
    /// runs, and may fall between two reads.
    pub fn journal_len_on(&self, node: NodeId) -> usize {
        self.journal_on(node).len()
    }

    /// `node`'s persistent journal (inspection) — what a restart of
    /// that node replays, and nothing else.
    pub fn journal_on(&self, node: NodeId) -> &dedisys_store::WriteAheadLog {
        self.containers[node.index()].journal()
    }

    /// Sorted committed object ids on `node` — replica-convergence
    /// checks compare these across a healed partition.
    pub fn committed_ids_on(&self, node: NodeId) -> Vec<ObjectId> {
        self.containers[node.index()]
            .committed_ids()
            .cloned()
            .collect()
    }

    /// The nodes `id` is replicated on: every node, or the subset it
    /// was created bound to. `None` for an object the replication
    /// service does not place (a delete every replica has seen).
    pub fn replicas_of(&self, id: &ObjectId) -> Option<&BTreeSet<NodeId>> {
        self.replication.replicas_of(id)
    }

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
        let setter = self.app.class(target.class()).and_then(|c| c.setter(field));
        let method = setter.cloned().unwrap_or_else(|| setter_name(field));
        let mut args = std::mem::take(&mut self.setter_args);
        args.push(value);
        let result = self.invoke_named(node, tx, target, method, &mut args);
        args.clear();
        self.setter_args = args;
        result.map(|_| ())
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
        let getter = self.app.class(target.class()).and_then(|c| c.getter(field));
        let method = getter.cloned().unwrap_or_else(|| getter_name(field));
        self.invoke_named(node, tx, target, method, &mut Vec::new())
    }
}

/// The conventional setter name for a field (`sold` → `setSold`). A
/// deployed field's name is minted at deploy time
/// ([`ClassDescriptor::setter`](dedisys_object::ClassDescriptor::setter));
/// this builds the name of one that is not.
pub(crate) fn setter_name(field: &str) -> MethodName {
    accessor_name("set", field)
}

/// The conventional getter name for a field (`sold` → `getSold`); see
/// [`setter_name`].
pub(crate) fn getter_name(field: &str) -> MethodName {
    accessor_name("get", field)
}

/// `prefix` + `field` with its first character upper-cased.
fn accessor_name(prefix: &str, field: &str) -> MethodName {
    let mut name = String::with_capacity(prefix.len() + field.len());
    name.push_str(prefix);
    let mut chars = field.chars();
    if let Some(first) = chars.next() {
        name.extend(first.to_uppercase());
        name.push_str(chars.as_str());
    }
    name.into()
}
