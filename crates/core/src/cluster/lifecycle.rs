//! Node lifecycle: crash and restart (journal replay, state transfer),
//! the in-doubt registry of presumed-abort 2PC, the chaos engine's
//! store fault hooks and cross-cluster object migration.

use super::{Cluster, InDoubtTx};
use dedisys_object::Snapshot;
use dedisys_telemetry::{TraceEvent, TransitionCause};
use dedisys_types::{Error, NodeId, ObjectId, Result, SystemMode, TxId};
use std::collections::BTreeMap;

impl Cluster {
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
        self.check_known(node)?;
        if !self.crashed.insert(node) {
            return Err(Error::NodeCrashed(node));
        }
        let mut affected: Vec<TxId> = self
            .txs
            .iter()
            .filter(|(tx, info)| tx.node == node || info.involved.contains(&node))
            .map(|(tx, _)| tx)
            .collect();
        affected.sort_unstable();
        let mut aborted: u32 = 0;
        let mut in_doubt: u32 = 0;
        let deadline = self.clock.now() + self.costs.in_doubt_timeout;
        for tx in affected {
            if tx.node == node && self.txs.is_prepared(tx) {
                // Coordinator crashed between prepare and commit: the
                // outcome is locally unknowable. Locks and remote
                // buffers are retained; the recovery protocol presumes
                // abort once the timeout expires (presumed-abort 2PC).
                if let Ok(info) = self.txs.info_mut(tx) {
                    info.in_doubt = Some(InDoubtTx {
                        coordinator: node,
                        deadline,
                    });
                }
                in_doubt += 1;
                self.telemetry.emit(|| TraceEvent::TwoPcInDoubt {
                    tx,
                    coordinator: node,
                });
            } else {
                let _ = self.abort(tx);
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
    /// * Journal corruption — the node's or the threat store's —
    ///   surfaces as the replay error.
    pub fn restart(&mut self, node: NodeId) -> Result<SystemMode> {
        self.check_known(node)?;
        if !self.crashed.contains(&node) {
            return Err(Error::Config(format!(
                "node {node} is not crashed; nothing to restart"
            )));
        }
        let report = self.containers[node.index()].recover_from_journal()?;
        // §5.5.1: threat records deactivated by the crash come back.
        // Both journals are read before the node counts as live.
        let reactivated = self.ccm.threat_store.recover()? as u64;
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
        // Coordinator recovery: no commit record survived the crash,
        // so its in-doubt transactions abort (presumed abort).
        let mine: Vec<TxId> = self
            .in_doubt_txs()
            .filter(|(_, info)| info.coordinator == node)
            .map(|(tx, _)| tx)
            .collect();
        for tx in mine {
            self.presume_abort(tx);
        }
        // Rejoin the lowest-numbered live node's partition via GMS.
        let rejoin_target = self.live_nodes().find(|n| *n != node);
        if let Some(target) = rejoin_target {
            if !self.topology.reachable(node, target) {
                self.topology.merge(node, target);
            }
            if report.truncated > 0 {
                self.resync_torn(node);
            }
        }
        self.install_views();
        self.sync_membership_scripted();
        self.telemetry.emit(|| TraceEvent::NodeRestart {
            node,
            replayed_entries: replayed,
            reactivated_threats: reactivated,
        });
        Ok(self.settle_mode(TransitionCause::Scripted))
    }

    /// Gives `node`, whose torn journal tail dropped committed state,
    /// back what the tail held: each object it replicates, from the
    /// first other node of its partition that replicates it too, and
    /// the removal of each object whose delete every other replica
    /// saw. Replica reconciliation only tracks degraded-mode writes, so
    /// this is the one way back for the lost state; installs go through
    /// the journal, so the transfer survives a further crash. What the
    /// partition lacks is not removed: after a split it may be state
    /// the partition never saw, not state that was deleted. An object
    /// awaiting reconciliation, or whose other replicas are all out of
    /// reach, is left to reconciliation, which compares this node's
    /// copy with the others.
    fn resync_torn(&mut self, node: NodeId) {
        let sources: Vec<NodeId> = self
            .topology
            .partition_of(node)
            .iter()
            .copied()
            .filter(|&n| n != node && !self.crashed.contains(&n))
            .collect();
        let own = &self.containers[node.index()];
        let mut lost: BTreeMap<&ObjectId, &Snapshot> = BTreeMap::new();
        // Objects awaiting reconciliation whose copies here and on a
        // source differ: reconciliation compares the two.
        let mut diverged: Vec<(ObjectId, NodeId)> = Vec::new();
        for &source in &sources {
            let container = &self.containers[source.index()];
            for id in container.committed_ids() {
                let placed = self.replication.replicas_of(id);
                if placed.is_some_and(|replicas| !replicas.contains(&node)) {
                    continue;
                }
                let Some(snapshot) = container.committed_snapshot(id) else {
                    continue;
                };
                // What survived the truncation is the very snapshot the
                // source holds (same ship), so most objects are skipped
                // by pointer; deep equality is the fallback.
                if own.committed_snapshot(id) == Some(snapshot) {
                    continue;
                }
                if self.replication.is_degraded_tracked(id) {
                    diverged.push((id.clone(), source));
                } else {
                    lost.entry(id).or_insert(snapshot);
                }
            }
        }
        let held_elsewhere = |id: &ObjectId| {
            let mut holders = sources.iter().map(|s| &self.containers[s.index()]);
            holders.any(|c| c.committed_entity(id).is_some())
        };
        let deleted: Vec<ObjectId> = own
            .committed_ids()
            .filter(|id| self.replication.replicas_of(id).is_none() && !held_elsewhere(id))
            .cloned()
            .collect();
        // An object no partition member replicates with this node may
        // have lost a state only its unreachable replicas hold:
        // reconciliation compares the copies once they are back.
        let unsynced: Vec<(ObjectId, Vec<NodeId>)> = self
            .replication
            .objects_placed_on(node)
            .filter_map(|id| {
                let replicas = self.replication.replicas_of(id)?;
                let others: Vec<NodeId> = replicas.iter().copied().filter(|&n| n != node).collect();
                let away = !others.is_empty() && !others.iter().any(|n| sources.contains(n));
                away.then(|| (id.clone(), others))
            })
            .collect();
        let lost: Vec<Snapshot> = lost.into_values().cloned().collect();
        let transferred = (lost.len() + deleted.len()) as u64;
        let container = &mut self.containers[node.index()];
        for snapshot in lost {
            container.install(snapshot);
        }
        for id in &deleted {
            container.remove_committed(id);
        }
        for (id, others) in unsynced {
            let copies = std::iter::once(node).chain(others);
            self.replication.track_divergence(&id, copies);
        }
        for (id, source) in diverged {
            self.replication.track_divergence(&id, [node, source]);
        }
        self.clock
            .advance(self.costs.wal_replay_per_entry * transferred);
        self.telemetry
            .metrics()
            .add("store.wal.resynced", transferred);
    }

    /// Runs the in-doubt recovery protocol: every in-doubt transaction
    /// whose presumed-abort deadline has passed in virtual time is
    /// rolled back and its locks released. Returns the number of
    /// transactions resolved.
    pub fn resolve_in_doubt(&mut self) -> usize {
        let now = self.clock.now();
        let due: Vec<(TxId, InDoubtTx)> = self
            .in_doubt_txs()
            .filter(|(_, info)| info.deadline <= now)
            .map(|(tx, info)| (tx, *info))
            .collect();
        let resolved = due.len();
        for (tx, info) in due {
            // The deadline path gets its own event before the shared
            // presumed-abort resolution: operators alerting on abandoned
            // coordinators need to tell "timed out waiting" apart from
            // "resolved at coordinator restart" (both emit
            // `two_pc_resolved`).
            self.telemetry.emit(|| TraceEvent::InDoubtTimeout {
                tx,
                coordinator: info.coordinator,
                overdue_ns: now.since(info.deadline).as_nanos(),
            });
            self.telemetry.metrics().incr("two_pc.in_doubt_timeout");
            self.presume_abort(tx);
        }
        resolved
    }

    fn presume_abort(&mut self, tx: TxId) {
        let _ = self.abort(tx);
        self.in_doubt_resolved += 1;
        self.telemetry.emit(|| TraceEvent::TwoPcResolved {
            tx,
            presumed_abort: true,
        });
    }

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
        self.check_known(node)?;
        Ok(self.containers[node.index()].corrupt_journal_tail(entries))
    }

    /// In-doubt transactions awaiting presumed-abort recovery, in
    /// `TxId` order.
    pub fn in_doubt_txs(&self) -> impl Iterator<Item = (TxId, &InDoubtTx)> + '_ {
        let mut in_doubt: Vec<(TxId, &InDoubtTx)> = self
            .txs
            .iter()
            .filter_map(|(tx, info)| Some((tx, info.in_doubt.as_ref()?)))
            .collect();
        in_doubt.sort_unstable_by_key(|(tx, _)| *tx);
        in_doubt.into_iter()
    }

    /// Number of in-doubt transactions.
    pub fn in_doubt_count(&self) -> usize {
        self.txs
            .iter()
            .filter(|(_, info)| info.in_doubt.is_some())
            .count()
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

    /// Removes every live committed replica of `id` plus its placement
    /// metadata — the source half of a migration. Each removal is
    /// journalled (a crashed source cannot resurrect the object), and
    /// one WAL entry is charged per touched replica. Returns the state
    /// removed, `None` when no live node held it; the caller moves it
    /// only while the cluster is quiescent, when every replica holds
    /// the same.
    pub fn evict_object(&mut self, id: &ObjectId) -> Option<Snapshot> {
        let nodes: Vec<NodeId> = self.live_nodes().collect();
        let mut removed = None;
        let mut dropped = 0u64;
        for node in nodes {
            let container = &mut self.containers[node.index()];
            removed = removed.or_else(|| container.committed_snapshot(id).cloned());
            dropped += u64::from(container.remove_committed(id));
        }
        self.replication.unregister_object(id);
        if dropped > 0 {
            self.clock
                .advance(self.costs.wal_replay_per_entry * dropped);
            self.telemetry
                .metrics()
                .add("store.migrate.evicted", dropped);
        }
        removed
    }

    /// Installs `snapshot` as committed state on every live node — the
    /// write half of a migration, riding the same journalled install
    /// path the WAL resync uses ([`Cluster::restart`]); the nodes (and
    /// the evicting cluster's journals) share the one snapshot. The
    /// object is
    /// registered with the live nodes as its replica set and the
    /// lowest-numbered one as primary; `wal_replay_per_entry` is
    /// charged per install. Returns the number of replicas written.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] when every node is crashed (nothing
    /// can accept the transfer).
    pub fn install_object(&mut self, snapshot: Snapshot) -> Result<u64> {
        let nodes: Vec<NodeId> = self.live_nodes().collect();
        let Some(primary) = nodes.first().copied() else {
            return Err(Error::Config(format!(
                "{}: no live node to install the migrated object on",
                snapshot.state().id()
            )));
        };
        let installed = nodes.len() as u64;
        let id = snapshot.state().id().clone();
        for node in &nodes {
            self.containers[node.index()].install(snapshot.clone());
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
}
