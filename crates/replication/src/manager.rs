//! The replication manager: placement, propagation, staleness and
//! degraded-mode tracking.

use crate::ProtocolKind;
use dedisys_gms::NodeWeights;
use dedisys_net::Topology;
use dedisys_object::{EntityContainer, Snapshot};
use dedisys_telemetry::{Telemetry, TraceEvent};
use dedisys_types::{Error, IdBuildHasher, NodeId, ObjectId, Result, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Placement of one logical object: two 32-bit words. The replica set is
/// named by its index into the manager's interned sets — the objects a
/// cluster places on every node all name one — so no object owns a
/// tree of its own.
#[derive(Debug, Clone, Copy)]
struct Placement {
    replicas: u32,
    primary: NodeId,
}

/// Upper bound on install attempts per backup on the ship path (one
/// initial try plus bounded retries with exponential backoff).
pub(crate) const MAX_SHIP_ATTEMPTS: u32 = 4;

/// What the ship path charges for one synchronous update propagation.
/// Messages and retries are counted in [`ReplStats`]; the backups that
/// missed the update are in
/// [`ReplicationManager::degraded_write_map`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PropagationReport {
    /// Backups the update reached (excluding the executing node).
    pub recipients: usize,
    /// Total exponential-backoff units waited (1 + 2 + 4 + … per
    /// retried backup).
    pub backoff_units: u64,
}

/// Counters kept by the manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ReplStats {
    /// Updates propagated (create/write/delete commits).
    pub propagations: u64,
    /// Point-to-point messages sent for propagation.
    pub messages: u64,
    /// Writes executed while the system was degraded.
    pub degraded_writes: u64,
    /// Write-write conflicts detected during reconciliation.
    pub conflicts: u64,
    /// Missed updates pushed during reconciliation.
    pub missed_updates: u64,
    /// Backup installs retried after injected write failures.
    pub ship_retries: u64,
    /// Backup installs abandoned after exhausting the retry budget.
    pub ship_failures: u64,
    /// Propagations skipped on a backup due to injected replica lag.
    pub lagged_skips: u64,
}

/// The replication service of a cluster.
///
/// Owns placement metadata and degraded-mode bookkeeping; entity state
/// itself lives in the per-node [`EntityContainer`]s, which the manager
/// writes through during propagation.
#[derive(Debug)]
pub struct ReplicationManager {
    protocol: ProtocolKind,
    weights: NodeWeights,
    placements: HashMap<ObjectId, Placement, IdBuildHasher>,
    /// Every distinct replica set a placement has named, each once, in
    /// first-registration order: [`Placement::replicas`] indexes it. A
    /// cluster of `n` nodes has at most `2ⁿ − 1` of them, and in
    /// practice one per binding the application asks for, so a set is
    /// never dropped.
    replica_sets: Vec<BTreeSet<NodeId>>,
    /// Objects written during degraded mode: object → (partition key →
    /// representative node of that partition).
    degraded_writes: BTreeMap<ObjectId, BTreeMap<u32, NodeId>>,
    /// Every state committed during degraded mode, as shipped: partition
    /// key → (object → snapshots in application order). Kept until
    /// [`ReplicationManager::clear_degraded_state`] — the rollback
    /// search of constraint reconciliation (§3.3) may need any of them.
    /// Versions need not advance along a chain: a replica that missed a
    /// version behind one partition writes that version again behind
    /// the next.
    history: BTreeMap<u32, HashMap<ObjectId, Vec<Snapshot>, IdBuildHasher>>,
    /// Injected store write-failure windows: remaining failing install
    /// attempts per backup node (chaos engine fault).
    write_faults: BTreeMap<NodeId, u32>,
    /// Injected replica lag: number of upcoming propagations each
    /// backup node silently misses (chaos engine fault).
    lag: BTreeMap<NodeId, u32>,
    stats: ReplStats,
    telemetry: Option<Telemetry>,
}

impl ReplicationManager {
    /// Creates a manager for `protocol` with per-node `weights`.
    pub fn new(protocol: ProtocolKind, weights: NodeWeights) -> Self {
        Self {
            protocol,
            weights,
            placements: HashMap::default(),
            replica_sets: Vec::new(),
            degraded_writes: BTreeMap::new(),
            history: BTreeMap::new(),
            write_faults: BTreeMap::new(),
            lag: BTreeMap::new(),
            stats: ReplStats::default(),
            telemetry: None,
        }
    }

    /// Injects a store write-failure window on `node`: the next
    /// `failures` backup-install attempts on that node fail, forcing
    /// the ship path into bounded retry with exponential backoff.
    pub fn inject_write_fault(&mut self, node: NodeId, failures: u32) {
        if failures > 0 {
            *self.write_faults.entry(node).or_insert(0) += failures;
        }
    }

    /// Injects replica lag on `node`: the next `updates` propagations
    /// skip that backup entirely; the missed states are recorded as
    /// degraded writes so reconciliation converges the replica later.
    pub fn inject_replica_lag(&mut self, node: NodeId, updates: u32) {
        if updates > 0 {
            *self.lag.entry(node).or_insert(0) += updates;
        }
    }

    /// Wires a telemetry bus; `replication_update` events are emitted
    /// from now on.
    pub fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = Some(telemetry);
    }

    /// The protocol in force.
    pub fn protocol(&self) -> ProtocolKind {
        self.protocol
    }

    /// The node weights.
    pub fn weights(&self) -> &NodeWeights {
        &self.weights
    }

    /// Accumulated counters.
    pub fn stats(&self) -> ReplStats {
        self.stats
    }

    /// The degraded-mode states of `object` committed in partition
    /// `pkey`, oldest applied first — input to the rollback search of
    /// constraint reconciliation (§3.3). They are the snapshots that
    /// were shipped: installing one re-encodes nothing.
    pub fn partition_history(&self, object: &ObjectId, pkey: u32) -> &[Snapshot] {
        self.history
            .get(&pkey)
            .and_then(|objects| objects.get(object))
            .map_or(&[], Vec::as_slice)
    }

    /// Registers `object` with the given replica set and primary.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] if `primary` is not in `replicas` or
    /// the replica set is empty.
    pub fn register_object(
        &mut self,
        object: ObjectId,
        replicas: impl IntoIterator<Item = NodeId>,
        primary: NodeId,
    ) -> Result<()> {
        let replicas: BTreeSet<NodeId> = replicas.into_iter().collect();
        if replicas.is_empty() {
            return Err(Error::Config(format!("{object}: empty replica set")));
        }
        if !replicas.contains(&primary) {
            return Err(Error::Config(format!(
                "{object}: primary {primary} not in replica set"
            )));
        }
        let interned = match self.replica_sets.iter().position(|set| *set == replicas) {
            Some(at) => at,
            None => {
                self.replica_sets.push(replicas);
                self.replica_sets.len() - 1
            }
        };
        let replicas = u32::try_from(interned).expect("fewer than 2³² replica sets");
        self.placements
            .insert(object, Placement { replicas, primary });
        Ok(())
    }

    /// The replica set `placement` names.
    fn replicas(&self, placement: &Placement) -> &BTreeSet<NodeId> {
        &self.replica_sets[placement.replicas as usize]
    }

    /// Removes placement metadata (object migration, a reconciled
    /// delete; a delete that reaches every replica drops its own in
    /// [`ReplicationManager::propagate_update`]).
    pub fn unregister_object(&mut self, object: &ObjectId) {
        self.placements.remove(object);
    }

    /// The replica set of `object`, if registered.
    pub fn replicas_of(&self, object: &ObjectId) -> Option<&BTreeSet<NodeId>> {
        self.placements.get(object).map(|p| self.replicas(p))
    }

    /// Every object with a replica on `node`, in no particular order.
    pub fn objects_placed_on(&self, node: NodeId) -> impl Iterator<Item = &ObjectId> + '_ {
        self.placements
            .iter()
            .filter(move |(_, p)| self.replicas(p).contains(&node))
            .map(|(id, _)| id)
    }

    /// Tracks `object` as awaiting reconciliation among the replicas on
    /// `nodes`, each its own writer, when they may hold different
    /// committed states no ship will align — a torn journal tail on one
    /// of them while the others were out of reach. Replica
    /// reconciliation then compares their copies once they are back.
    pub fn track_divergence(&mut self, object: &ObjectId, nodes: impl IntoIterator<Item = NodeId>) {
        let writers = self.degraded_writes.entry(object.clone()).or_default();
        for node in nodes {
            writers.entry(node.0).or_insert(node);
        }
    }

    /// The node a write to `object` must execute on (§4.3).
    ///
    /// # Errors
    ///
    /// See [`ProtocolKind::write_target`]; unregistered objects execute
    /// locally.
    pub fn write_target(
        &self,
        object: &ObjectId,
        requester: NodeId,
        topology: &Topology,
    ) -> Result<NodeId> {
        match self.placements.get(object) {
            None => Ok(requester),
            Some(p) => self.protocol.write_target(
                object,
                requester,
                self.replicas(p),
                p.primary,
                topology,
                &self.weights,
            ),
        }
    }

    /// Whether a read of `object` on `requester` may be stale (LCC).
    /// Silent: the validation that acts on the answer reports it.
    pub fn is_possibly_stale(
        &self,
        object: &ObjectId,
        requester: NodeId,
        topology: &Topology,
    ) -> bool {
        match self.placements.get(object) {
            None => false,
            Some(p) => self.protocol.is_possibly_stale(
                requester,
                self.replicas(p),
                p.primary,
                topology,
                &self.weights,
            ),
        }
    }

    /// Whether `object` still has unreconciled degraded-mode writes
    /// (its committed state may change once the remaining writer
    /// partitions become reachable).
    pub fn is_degraded_tracked(&self, object: &ObjectId) -> bool {
        self.degraded_writes.contains_key(object)
    }

    /// Whether any replica of `object` is reachable from `requester`
    /// (false ⇒ NCC / uncheckable).
    pub fn is_reachable(&self, object: &ObjectId, requester: NodeId, topology: &Topology) -> bool {
        match self.placements.get(object) {
            None => true,
            Some(p) => {
                let partition = topology.partition_of(requester);
                self.replicas(p).iter().any(|r| partition.contains(r))
            }
        }
    }

    /// Synchronously propagates the committed state of `object` from
    /// `executed_on` to every reachable backup replica, recording
    /// degraded-mode bookkeeping when partitions are present. What is
    /// shipped is the primary's committed
    /// [`Snapshot`]: backups, their journals and the degraded-mode
    /// history share its state and its one encoding. An object no longer committed on `executed_on` is
    /// propagated as a delete.
    ///
    /// Injected faults harden the ship path: a backup inside a *write-
    /// failure window* (see [`ReplicationManager::inject_write_fault`])
    /// rejects installs; an install is tried at most `MAX_SHIP_ATTEMPTS`
    /// (4) times, with exponential backoff (1, 2, 4, … units); a *lagged*
    /// backup ([`ReplicationManager::inject_replica_lag`]) silently
    /// misses the propagation. Backups that miss the update either way
    /// are recorded as degraded writes so the reconciliation phase
    /// converges them once the fault clears.
    ///
    /// `_now` is read by nothing since the history keeps snapshots, not
    /// timestamped entries; the parameter stays because `perf/` drives
    /// this signature (ROADMAP item 3(c) drops it).
    pub fn propagate_update(
        &mut self,
        object: &ObjectId,
        executed_on: NodeId,
        topology: &Topology,
        containers: &mut [EntityContainer],
        _now: SimTime,
    ) -> PropagationReport {
        self.stats.propagations += 1;
        // The snapshot the primary's commit produced: every backup
        // installs this very value, nothing is cloned or re-encoded.
        let snapshot = containers[executed_on.index()]
            .committed_snapshot(object)
            .cloned();
        let partition = topology.partition_of(executed_on);
        // The reachable backups, walked in place: the replica set is read
        // while the loop writes the fault tables and counters beside it.
        let replica_sets = &self.replica_sets;
        let backups = self
            .placements
            .get(object)
            .into_iter()
            .flat_map(|p| &replica_sets[p.replicas as usize])
            .filter(|&&r| r != executed_on && partition.contains(&r));
        let mut recipients = 0;
        // Whether a backup missed the update (injected lag, or the
        // retry budget ran out): it is then tracked as a degraded write
        // so reconciliation converges it later.
        let mut missed = false;
        let mut messages = 0u64;
        let mut backoff_units = 0u64;
        for &r in backups {
            // Replica lag: the backup misses this propagation entirely.
            if let Some(remaining) = self.lag.get_mut(&r) {
                *remaining -= 1;
                if *remaining == 0 {
                    self.lag.remove(&r);
                }
                self.stats.lagged_skips += 1;
                missed = true;
                continue;
            }
            // Store write-failure window: attempts fail while fault
            // budget remains; retry with exponential backoff, bounded.
            // A window holds at least one failure: it is opened with
            // one or more and closed when it reaches zero.
            if let Some(left) = self.write_faults.get_mut(&r) {
                let failing = (*left).min(MAX_SHIP_ATTEMPTS);
                *left -= failing;
                if *left == 0 {
                    self.write_faults.remove(&r);
                }
                // One message per failed attempt (update sent, no
                // confirmation), backoff doubling before each retry.
                messages += u64::from(failing);
                let node_retries = u64::from(failing.min(MAX_SHIP_ATTEMPTS - 1));
                self.stats.ship_retries += node_retries;
                let node_backoff = (1u64 << node_retries) - 1;
                backoff_units += node_backoff;
                let succeeded = failing < MAX_SHIP_ATTEMPTS;
                if let Some(t) = &self.telemetry {
                    t.emit(|| TraceEvent::ReplicaShipRetry {
                        object: object.text().into(),
                        backup: r,
                        attempts: failing + u32::from(succeeded),
                        backoff_units: node_backoff,
                        succeeded,
                    });
                }
                if !succeeded {
                    self.stats.ship_failures += 1;
                    missed = true;
                    continue;
                }
            }
            match &snapshot {
                Some(snapshot) => containers[r.index()].install(snapshot.clone()),
                // The object was deleted on the executing node.
                None => {
                    containers[r.index()].remove_committed(object);
                }
            }
            messages += 2; // update + confirmation
            recipients += 1;
        }
        self.stats.messages += messages;
        let degraded = !topology.is_healthy();
        if let Some(t) = &self.telemetry {
            t.emit(|| TraceEvent::ReplicationUpdate {
                object: object.text().into(),
                from: executed_on,
                recipients: recipients as u32,
                messages,
                degraded,
            });
        }

        if !topology.is_healthy() || missed {
            self.stats.degraded_writes += 1;
            let pkey = partition_key(executed_on, topology);
            self.degraded_writes
                .entry(object.clone())
                .or_default()
                .insert(pkey, executed_on);
            if let Some(snapshot) = &snapshot {
                self.history
                    .entry(pkey)
                    .or_default()
                    .entry(object.clone())
                    .or_default()
                    .push(snapshot.clone());
            }
        }
        if snapshot.is_none() && !self.degraded_writes.contains_key(object) {
            // A delete every replica has seen: the placement goes with
            // it. One that some replica missed keeps its placement —
            // replica reconciliation needs the replica set to carry the
            // delete (or a surviving update) there, and drops it then.
            self.placements.remove(object);
        }
        PropagationReport {
            recipients,
            backoff_units,
        }
    }

    /// Objects written in at least one partition during degraded mode,
    /// with the per-partition representative nodes.
    pub fn degraded_write_map(&self) -> &BTreeMap<ObjectId, BTreeMap<u32, NodeId>> {
        &self.degraded_writes
    }

    /// Takes the degraded-write map (used by replica reconciliation).
    pub(crate) fn take_degraded_writes(&mut self) -> BTreeMap<ObjectId, BTreeMap<u32, NodeId>> {
        std::mem::take(&mut self.degraded_writes)
    }

    /// Puts postponed entries back (partial reconciliation, §3.3).
    pub(crate) fn restore_degraded_writes(
        &mut self,
        entries: BTreeMap<ObjectId, BTreeMap<u32, NodeId>>,
    ) {
        for (object, partitions) in entries {
            self.degraded_writes
                .entry(object)
                .or_default()
                .extend(partitions);
        }
    }

    pub(crate) fn count_conflict(&mut self) {
        self.stats.conflicts += 1;
    }

    pub(crate) fn count_missed_updates(&mut self, n: u64, messages: u64) {
        self.stats.missed_updates += n;
        self.stats.messages += messages;
    }

    /// Clears degraded-mode bookkeeping (after reconciliation
    /// completes).
    pub fn clear_degraded_state(&mut self) {
        self.degraded_writes.clear();
        self.history.clear();
    }
}

/// Partition key: the lowest node id in the partition.
pub(crate) fn partition_key(node: NodeId, topology: &Topology) -> u32 {
    topology
        .partition_of(node)
        .iter()
        .next()
        .expect("partitions are non-empty")
        .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use dedisys_object::{AppDescriptor, ClassDescriptor, EntityState};
    use dedisys_store::{LogEntry, LogOp};
    use dedisys_types::{TxId, Value};
    use std::sync::Arc;

    fn app() -> AppDescriptor {
        AppDescriptor::new("t")
            .with_class(ClassDescriptor::new("Flight").with_field("seats", Value::Int(0)))
    }

    fn containers(n: usize) -> Vec<EntityContainer> {
        (0..n).map(|_| EntityContainer::new(&app())).collect()
    }

    fn obj() -> ObjectId {
        ObjectId::new("Flight", "F1")
    }

    fn mgr(n: u32) -> ReplicationManager {
        let mut m =
            ReplicationManager::new(ProtocolKind::PrimaryPerPartition, NodeWeights::uniform(n));
        m.register_object(obj(), (0..n).map(NodeId), NodeId(0))
            .unwrap();
        m
    }

    fn seed(containers: &mut [EntityContainer], node: usize, seats: i64) {
        let tx = TxId::new(NodeId(node as u32), 999);
        let mut e = EntityState::for_class(&app(), &obj()).unwrap();
        e.set_field("seats", Value::Int(seats), SimTime::ZERO);
        containers[node].create(tx, e).unwrap();
        containers[node].commit(tx);
    }

    #[test]
    fn propagation_installs_on_reachable_backups() {
        let mut m = mgr(3);
        let topo = Topology::fully_connected(3);
        let mut cs = containers(3);
        seed(&mut cs, 0, 80);
        let report = m.propagate_update(&obj(), NodeId(0), &topo, &mut cs, SimTime::ZERO);
        assert_eq!(report.recipients, 2);
        for backup in &cs[1..] {
            assert_eq!(
                backup.committed_entity(&obj()).unwrap().field("seats"),
                &Value::Int(80)
            );
        }
        assert_eq!(m.stats().messages, 4);
        assert!(m.degraded_write_map().is_empty(), "healthy: no tracking");
    }

    fn write(containers: &mut [EntityContainer], node: usize, seats: i64, seq: u64) {
        let tx = TxId::new(NodeId(node as u32), seq);
        containers[node]
            .write_field(tx, &obj(), "seats", Value::Int(seats), SimTime::ZERO)
            .unwrap();
        containers[node].commit(tx);
    }

    fn last_record(c: &EntityContainer) -> Arc<str> {
        match &c.journal().entries().last().expect("journal entry").op {
            LogOp::Put { record } => Arc::clone(record),
            LogOp::Delete => panic!("last entry is a delete"),
        }
    }

    #[test]
    fn a_ship_shares_one_snapshot_and_one_record_across_all_replicas() {
        let mut m = mgr(3);
        let topo = Topology::fully_connected(3);
        let mut cs = containers(3);
        seed(&mut cs, 0, 80);
        m.propagate_update(&obj(), NodeId(0), &topo, &mut cs, SimTime::ZERO);
        let shipped = cs[0].committed_snapshot(&obj()).unwrap().clone();
        for c in &cs {
            assert!(c.committed_snapshot(&obj()).unwrap().ptr_eq(&shipped));
            assert!(Arc::ptr_eq(&last_record(c), shipped.record()));
        }

        // Node 2 lags behind the next update: it keeps the old
        // snapshot, untouched by the primary's later write.
        m.inject_replica_lag(NodeId(2), 1);
        write(&mut cs, 0, 81, 1);
        m.propagate_update(&obj(), NodeId(0), &topo, &mut cs, SimTime::ZERO);
        let newer = cs[0].committed_snapshot(&obj()).unwrap().clone();
        assert!(!newer.ptr_eq(&shipped));
        assert!(cs[1].committed_snapshot(&obj()).unwrap().ptr_eq(&newer));
        assert!(cs[2].committed_snapshot(&obj()).unwrap().ptr_eq(&shipped));
        assert_eq!(shipped.state().field("seats"), &Value::Int(80));
        assert!(Arc::ptr_eq(&last_record(&cs[2]), shipped.record()));
        // The missed state went into the degraded-mode history by
        // reference as well.
        assert!(m.partition_history(&obj(), 0)[0].ptr_eq(&newer));
    }

    #[test]
    fn a_torn_tail_on_one_backup_is_that_backups_alone() {
        let mut m = mgr(3);
        let topo = Topology::fully_connected(3);
        let mut cs = containers(3);
        seed(&mut cs, 0, 80);
        m.propagate_update(&obj(), NodeId(0), &topo, &mut cs, SimTime::ZERO);
        write(&mut cs, 0, 81, 1);
        m.propagate_update(&obj(), NodeId(0), &topo, &mut cs, SimTime::ZERO);

        // The last journal write of node 2 is torn by a crash.
        assert_eq!(cs[2].corrupt_journal_tail(1), 1);
        cs[2].crash_volatile();
        let report = cs[2].recover_from_journal().unwrap();
        assert_eq!((report.replayed, report.truncated), (1, 1));
        assert_eq!(
            cs[2].committed_entity(&obj()).unwrap().field("seats"),
            &Value::Int(80),
            "node 2 falls back to its intact prefix"
        );
        // The entries that shared the torn record still verify and
        // replay on the other nodes: seq and checksum are per entry.
        for c in &mut cs[..2] {
            assert!(c.journal().entries().iter().all(LogEntry::is_intact));
            assert_eq!(c.journal().len(), 2);
            c.crash_volatile();
            let report = c.recover_from_journal().unwrap();
            assert_eq!((report.replayed, report.truncated), (2, 0));
            assert_eq!(
                c.committed_entity(&obj()).unwrap().field("seats"),
                &Value::Int(81)
            );
        }
    }

    #[test]
    fn degraded_propagation_is_tracked_with_history() {
        let mut m = mgr(3);
        let mut topo = Topology::fully_connected(3);
        topo.split(&[&[0], &[1, 2]]);
        let mut cs = containers(3);
        seed(&mut cs, 1, 70);
        let report = m.propagate_update(&obj(), NodeId(1), &topo, &mut cs, SimTime::ZERO);
        assert_eq!(report.recipients, 1);
        assert!(cs[2].committed_entity(&obj()).is_some());
        assert!(cs[0].committed_entity(&obj()).is_none(), "node 0 is away");
        assert_eq!(m.degraded_write_map().len(), 1);
        assert_eq!(m.stats().degraded_writes, 1);
        assert_eq!(m.partition_history(&obj(), 1).len(), 1);
        assert!(m.partition_history(&obj(), 0).is_empty());
    }

    #[test]
    fn delete_propagates_as_removal() {
        let mut m = mgr(2);
        let topo = Topology::fully_connected(2);
        let mut cs = containers(2);
        seed(&mut cs, 0, 1);
        m.propagate_update(&obj(), NodeId(0), &topo, &mut cs, SimTime::ZERO);
        assert!(cs[1].committed_entity(&obj()).is_some());
        // Delete on node 0, then propagate.
        let tx = TxId::new(NodeId(0), 1000);
        cs[0].delete(tx, &obj()).unwrap();
        cs[0].commit(tx);
        m.propagate_update(&obj(), NodeId(0), &topo, &mut cs, SimTime::ZERO);
        assert!(cs[1].committed_entity(&obj()).is_none());
        assert!(m.replicas_of(&obj()).is_none(), "placement went with it");
    }

    #[test]
    fn write_fault_window_retries_with_backoff() {
        let mut m = mgr(2);
        let topo = Topology::fully_connected(2);
        let mut cs = containers(2);
        seed(&mut cs, 0, 80);
        m.inject_write_fault(NodeId(1), 2); // two failures, then success
        let report = m.propagate_update(&obj(), NodeId(0), &topo, &mut cs, SimTime::ZERO);
        assert_eq!(report.recipients, 1);
        assert_eq!(report.backoff_units, 3); // 1 + 2
        assert_eq!(m.stats().ship_retries, 2);
        assert_eq!(m.stats().ship_failures, 0);
        assert!(m.degraded_write_map().is_empty(), "nothing missed");
        assert_eq!(
            cs[1].committed_entity(&obj()).unwrap().field("seats"),
            &Value::Int(80)
        );
        assert!(!m.write_faults.contains_key(&NodeId(1)), "window closed");
    }

    #[test]
    fn exhausted_retry_budget_defers_to_reconciliation() {
        let mut m = mgr(2);
        let topo = Topology::fully_connected(2);
        let mut cs = containers(2);
        seed(&mut cs, 0, 80);
        m.inject_write_fault(NodeId(1), 10);
        let report = m.propagate_update(&obj(), NodeId(0), &topo, &mut cs, SimTime::ZERO);
        assert_eq!(report.recipients, 0);
        assert_eq!(m.stats().ship_failures, 1);
        assert!(cs[1].committed_entity(&obj()).is_none());
        assert!(
            m.is_degraded_tracked(&obj()),
            "missed install tracked for reconciliation"
        );
        // One bounded burst of MAX_SHIP_ATTEMPTS consumed.
        assert_eq!(m.write_faults[&NodeId(1)], 10 - MAX_SHIP_ATTEMPTS);
    }

    #[test]
    fn replica_lag_skips_backup_until_window_closes() {
        let mut m = mgr(3);
        let topo = Topology::fully_connected(3);
        let mut cs = containers(3);
        seed(&mut cs, 0, 80);
        m.inject_replica_lag(NodeId(2), 1);
        let report = m.propagate_update(&obj(), NodeId(0), &topo, &mut cs, SimTime::ZERO);
        assert_eq!(report.recipients, 1);
        assert!(cs[1].committed_entity(&obj()).is_some());
        assert_eq!(m.stats().lagged_skips, 1);
        assert!(cs[2].committed_entity(&obj()).is_none());
        assert!(m.is_degraded_tracked(&obj()));
        // Window consumed: the next propagation reaches node 2 again.
        m.clear_degraded_state();
        let report = m.propagate_update(&obj(), NodeId(0), &topo, &mut cs, SimTime::ZERO);
        assert_eq!(report.recipients, 2);
        assert_eq!(m.stats().lagged_skips, 1);
        assert!(!m.is_degraded_tracked(&obj()), "nothing missed");
        assert!(cs[2].committed_entity(&obj()).is_some());
    }

    #[test]
    fn placement_validation() {
        let mut m = ReplicationManager::new(ProtocolKind::PrimaryBackup, NodeWeights::uniform(2));
        assert!(m.register_object(obj(), [], NodeId(0)).is_err());
        assert!(m.register_object(obj(), [NodeId(1)], NodeId(0)).is_err());
        assert!(m.register_object(obj(), [NodeId(0)], NodeId(0)).is_ok());
    }

    #[test]
    fn reachability_with_bound_placement() {
        let mut m =
            ReplicationManager::new(ProtocolKind::PrimaryPerPartition, NodeWeights::uniform(3));
        m.register_object(obj(), [NodeId(0), NodeId(1)], NodeId(0))
            .unwrap();
        let mut topo = Topology::fully_connected(3);
        topo.split(&[&[0, 1], &[2]]);
        assert!(m.is_reachable(&obj(), NodeId(0), &topo));
        assert!(!m.is_reachable(&obj(), NodeId(2), &topo));
    }

    #[test]
    fn interned_replica_sets_answer_as_a_set_per_object_would() {
        use dedisys_types::ChaosRng;
        let protocols = [
            ProtocolKind::PrimaryBackup,
            ProtocolKind::PrimaryPartition,
            ProtocolKind::PrimaryPerPartition,
        ];
        let ids: Vec<ObjectId> = (0..24)
            .map(|k| ObjectId::new("Flight", format!("F{k}")))
            .collect();
        let mut steps = [0u32; 4];
        for seed in 0..32 {
            let mut rng = ChaosRng::new(seed);
            let n = 2 + rng.below(3) as u32;
            let nodes: Vec<NodeId> = (0..n).map(NodeId).collect();
            let protocol = protocols[seed as usize % protocols.len()];
            let mut m = ReplicationManager::new(protocol, NodeWeights::uniform(n));
            let mut topo = Topology::fully_connected(n);
            // Each placed object with a replica set of its own.
            let mut oracle: BTreeMap<ObjectId, (BTreeSet<NodeId>, NodeId)> = BTreeMap::new();
            for step in 0..200 {
                let id = rng.pick(&ids).clone();
                let kind = rng.below(4) as usize;
                steps[kind] += 1;
                match kind {
                    // A create: every node, primary the creating node.
                    0 => {
                        let primary = *rng.pick(&nodes);
                        m.register_object(id.clone(), nodes.iter().copied(), primary)
                            .unwrap();
                        oracle.insert(id, (nodes.iter().copied().collect(), primary));
                    }
                    // A bound create: a nonempty subset, primary in it.
                    1 => {
                        let mut set: BTreeSet<NodeId> =
                            nodes.iter().copied().filter(|_| rng.chance(50)).collect();
                        set.insert(*rng.pick(&nodes));
                        let members: Vec<NodeId> = set.iter().copied().collect();
                        let primary = *rng.pick(&members);
                        m.register_object(id.clone(), members, primary).unwrap();
                        oracle.insert(id, (set, primary));
                    }
                    2 => {
                        m.unregister_object(&id);
                        oracle.remove(&id);
                    }
                    // A partition: some nodes split off, or a heal.
                    _ => {
                        if rng.chance(30) {
                            topo.heal();
                        } else {
                            topo.isolate(*rng.pick(&nodes));
                        }
                    }
                }
                let at = format!("seed {seed} step {step}");
                for id in &ids {
                    let placed = oracle.get(id);
                    assert_eq!(m.replicas_of(id), placed.map(|(set, _)| set), "{at}");
                    for &node in &nodes {
                        let expected_target = match placed {
                            None => Ok(node),
                            Some((set, primary)) => {
                                protocol.write_target(id, node, set, *primary, &topo, m.weights())
                            }
                        };
                        assert_eq!(m.write_target(id, node, &topo), expected_target, "{at}");
                        let expected_stale = placed.is_some_and(|(set, primary)| {
                            protocol.is_possibly_stale(node, set, *primary, &topo, m.weights())
                        });
                        assert_eq!(m.is_possibly_stale(id, node, &topo), expected_stale, "{at}");
                    }
                }
                for &node in &nodes {
                    let mut placed_on: Vec<&ObjectId> = m.objects_placed_on(node).collect();
                    placed_on.sort_unstable();
                    let expected: Vec<&ObjectId> = oracle
                        .iter()
                        .filter(|(_, (set, _))| set.contains(&node))
                        .map(|(id, _)| id)
                        .collect();
                    assert_eq!(placed_on, expected, "{at}");
                }
            }
            // Each distinct set interned once.
            let distinct: BTreeSet<&BTreeSet<NodeId>> = m.replica_sets.iter().collect();
            assert_eq!(distinct.len(), m.replica_sets.len(), "seed {seed}");
        }
        assert!(
            steps.iter().all(|&n| n > 0),
            "every kind of step drawn: {steps:?}"
        );
    }

    #[test]
    fn unregistered_objects_are_local() {
        let m = ReplicationManager::new(ProtocolKind::PrimaryPerPartition, NodeWeights::uniform(2));
        let topo = Topology::fully_connected(2);
        assert_eq!(m.write_target(&obj(), NodeId(1), &topo), Ok(NodeId(1)));
        assert!(!m.is_possibly_stale(&obj(), NodeId(1), &topo));
        assert!(m.is_reachable(&obj(), NodeId(1), &topo));
    }
}
