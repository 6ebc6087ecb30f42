//! Replica reconciliation — the first half of the reconciliation phase
//! (Figure 4.6).
//!
//! After the GMS reports re-unification, missed updates are propagated
//! between the former partitions. Write-write conflicts (the same
//! object updated in two or more partitions) are handed to the
//! application-provided replica-consistency handler; the selected state
//! is then applied to all nodes.

use crate::manager::ReplicationManager;
use dedisys_net::Topology;
use dedisys_object::{EntityContainer, EntityState, Snapshot};
use dedisys_types::{NodeId, ObjectId};
use std::collections::{BTreeMap, BTreeSet};

/// A write-write replica conflict: divergent states of the same logical
/// object from different partitions.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaConflict {
    /// The conflicted object.
    pub object: ObjectId,
    /// One candidate per partition: (representative node, its state —
    /// `None` when the partition deleted the object).
    pub candidates: Vec<(NodeId, Option<EntityState>)>,
}

/// Application callback producing a replica-consistent state for a
/// conflict (Figure 4.6, "replica consistency handler").
pub trait ReplicaConsistencyHandler {
    /// Chooses (or merges) the surviving state; `None` keeps the object
    /// deleted.
    ///
    /// The returned state is installed and journalled as it stands —
    /// there is no error channel here — so a merge must not put a
    /// non-finite float into a field: unlike every other write path
    /// (`dedisys_types::Value::check_journalable`), nothing refuses it,
    /// and the replicas that journal it could not restart.
    fn resolve(&mut self, conflict: &ReplicaConflict) -> Option<EntityState>;
}

/// The generic default of §4.4: the replica with the most updates
/// (highest version) wins; a deletion only wins if no live state
/// exists.
#[derive(Debug, Clone, Copy, Default)]
pub struct HighestVersionWins;

impl ReplicaConsistencyHandler for HighestVersionWins {
    fn resolve(&mut self, conflict: &ReplicaConflict) -> Option<EntityState> {
        conflict
            .candidates
            .iter()
            .filter_map(|(_, state)| state.as_ref())
            .max_by_key(|s| s.version())
            .cloned()
    }
}

impl<F> ReplicaConsistencyHandler for F
where
    F: FnMut(&ReplicaConflict) -> Option<EntityState>,
{
    fn resolve(&mut self, conflict: &ReplicaConflict) -> Option<EntityState> {
        self(conflict)
    }
}

/// Outcome of replica reconciliation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReconcileReport {
    /// Conflicts detected and how they were resolved (forwarded to
    /// constraint reconciliation, §5.2: conflict details should be
    /// available there too).
    pub conflicts: Vec<(ReplicaConflict, Option<EntityState>)>,
    /// Objects whose (conflict-free) missed updates were propagated.
    pub missed_updates: u64,
    /// Point-to-point messages exchanged.
    pub messages: u64,
}

impl ReplicationManager {
    /// Runs replica reconciliation over the partition `observer` sees.
    ///
    /// For every object written during degraded mode the per-partition
    /// states are compared: a single writer partition (or identical
    /// states) yields plain missed-update propagation; divergent states
    /// are resolved through `handler` and the result installed on every
    /// replica node. Degraded bookkeeping is consumed; the state
    /// history is retained for constraint reconciliation (rollback
    /// search) until [`ReplicationManager::clear_degraded_state`].
    ///
    /// After a *partial* re-unification (§3.3) every object with at
    /// least one degraded-mode writer partition reachable from
    /// `observer` has its reachable writers merged, and the outcome is
    /// installed on its replicas in the observer's partition. An object
    /// stays in the degraded bookkeeping while one of its writer
    /// partitions or one of its replicas is still away (the unreachable
    /// side may still diverge, or missed the merge); an object with no
    /// reachable writer is left there as it was.
    pub fn reconcile_replicas_scoped(
        &mut self,
        topology: &Topology,
        observer: NodeId,
        containers: &mut [EntityContainer],
        handler: &mut dyn ReplicaConsistencyHandler,
    ) -> ReconcileReport {
        let reachable = topology.partition_of(observer);
        let mut report = ReconcileReport::default();
        let degraded = self.take_degraded_writes();
        let mut postponed = BTreeMap::new();
        for (object, partitions) in degraded {
            // Split the writer partitions into those now reachable
            // from the observer and those still away.
            let mut here = partitions;
            let away: BTreeMap<u32, NodeId> = here
                .iter()
                .filter(|(_, rep)| !reachable.contains(rep))
                .map(|(&pkey, &rep)| (pkey, rep))
                .collect();
            here.retain(|_, rep| reachable.contains(rep));
            if here.is_empty() {
                // Nothing of this object is reachable: postpone as is.
                postponed.insert(object, away);
                continue;
            }
            // Reconcile the reachable writers among each other — the
            // merged partition must agree internally even while other
            // partitions remain (P4 elects a temporary primary for it).
            let survives =
                self.reconcile_one(&object, &here, reachable, containers, handler, &mut report);
            let fully_replicated_here = self
                .replicas_of(&object)
                .map(|set| set.iter().all(|r| reachable.contains(r)))
                .unwrap_or(true);
            if !away.is_empty() || !fully_replicated_here {
                // Keep tracking: unreachable writers may still diverge,
                // and replicas outside the partition missed the merge.
                let pkey = reachable.iter().next().expect("non-empty").0;
                let rep = *reachable
                    .iter()
                    .find(|n| self.replicas_of(&object).is_some_and(|set| set.contains(n)))
                    .unwrap_or(&observer);
                let mut remaining = away;
                remaining.insert(pkey, rep);
                postponed.insert(object, remaining);
            } else if !survives {
                // Deleted on every replica: the placement a degraded
                // delete had to keep for this step goes now.
                self.unregister_object(&object);
            }
        }
        self.restore_degraded_writes(postponed);
        report
    }

    /// Reconciles `object` among the reachable writer partitions and
    /// installs the outcome on every reachable replica. Returns whether
    /// the object survives (`false`: the outcome is its deletion). The
    /// writers' states and the replicas are read in place; only a
    /// conflict copies states, for the report that keeps them.
    fn reconcile_one(
        &mut self,
        object: &ObjectId,
        partitions: &BTreeMap<u32, NodeId>,
        reachable: &BTreeSet<NodeId>,
        containers: &mut [EntityContainer],
        handler: &mut dyn ReplicaConsistencyHandler,
        report: &mut ReconcileReport,
    ) -> bool {
        let writer = *partitions.values().next().expect("a reachable writer");
        let state_on = |rep: &NodeId| containers[rep.index()].committed_snapshot(object);
        let first = state_on(&writer);
        let winner: Option<Snapshot> = if partitions.values().all(|rep| state_on(rep) == first) {
            // No conflict: a single partition wrote, or all wrote
            // identical states. The writer's snapshot is handed on as is.
            report.missed_updates += 1;
            first.cloned()
        } else {
            self.count_conflict();
            let conflict = ReplicaConflict {
                object: object.clone(),
                candidates: partitions
                    .values()
                    .map(|rep| (*rep, state_on(rep).map(|s| s.state().clone())))
                    .collect(),
            };
            let resolved = handler.resolve(&conflict);
            // The handler may have merged a new state: encode it once
            // for all replicas.
            let winner = resolved
                .clone()
                .map(|state| containers[writer.index()].encode(state));
            report.conflicts.push((conflict, resolved));
            winner
        };
        // Install the winner on every *reachable* replica node (all of
        // them after a full heal), the messages counted first.
        let replicas = self.replicas_of(object).into_iter().flatten();
        let reached = replicas.filter(|n| reachable.contains(n)).count();
        let messages = reached.saturating_sub(1) as u64 * 2;
        report.messages += messages;
        self.count_missed_updates(1, messages);
        let replicas = self.replicas_of(object).into_iter().flatten();
        for &node in replicas.filter(|n| reachable.contains(n)) {
            match &winner {
                Some(snapshot) => containers[node.index()].install(snapshot.clone()),
                None => {
                    containers[node.index()].remove_committed(object);
                }
            }
        }
        winner.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProtocolKind;
    use dedisys_gms::NodeWeights;
    use dedisys_object::{AppDescriptor, ClassDescriptor};
    use dedisys_types::{SimTime, TxId, Value};

    fn app() -> AppDescriptor {
        AppDescriptor::new("t")
            .with_class(ClassDescriptor::new("Flight").with_field("sold", Value::Int(0)))
    }

    fn obj() -> ObjectId {
        ObjectId::new("Flight", "F1")
    }

    fn setup(n: u32) -> (ReplicationManager, Vec<EntityContainer>, Topology) {
        let mut m =
            ReplicationManager::new(ProtocolKind::PrimaryPerPartition, NodeWeights::uniform(n));
        m.register_object(obj(), (0..n).map(NodeId), NodeId(0))
            .unwrap();
        let mut cs: Vec<EntityContainer> = (0..n).map(|_| EntityContainer::new(&app())).collect();
        // Seed the object on every node (healthy-mode create).
        for (i, c) in cs.iter_mut().enumerate() {
            let tx = TxId::new(NodeId(i as u32), 500);
            let e = EntityState::for_class(&app(), &obj()).unwrap();
            c.create(tx, e).unwrap();
            c.commit(tx);
        }
        (m, cs, Topology::fully_connected(n))
    }

    fn write_on(
        m: &mut ReplicationManager,
        cs: &mut [EntityContainer],
        topo: &Topology,
        node: u32,
        sold: i64,
        seq: u64,
    ) {
        let tx = TxId::new(NodeId(node), seq);
        cs[node as usize]
            .write_field(tx, &obj(), "sold", Value::Int(sold), SimTime::ZERO)
            .unwrap();
        cs[node as usize].commit(tx);
        m.propagate_update(&obj(), NodeId(node), topo, cs, SimTime::ZERO);
    }

    /// Reconciles what node 0 sees.
    fn reconcile(
        m: &mut ReplicationManager,
        topo: &Topology,
        cs: &mut [EntityContainer],
        handler: &mut dyn ReplicaConsistencyHandler,
    ) -> ReconcileReport {
        m.reconcile_replicas_scoped(topo, NodeId(0), cs, handler)
    }

    #[test]
    fn single_partition_writes_propagate_without_conflict() {
        let (mut m, mut cs, mut topo) = setup(3);
        topo.split(&[&[0], &[1, 2]]);
        write_on(&mut m, &mut cs, &topo, 1, 7, 1);
        topo.heal();
        let report = reconcile(&mut m, &topo, &mut cs, &mut HighestVersionWins);
        assert!(report.conflicts.is_empty());
        assert_eq!(report.missed_updates, 1);
        assert_eq!(
            cs[0].committed_entity(&obj()).unwrap().field("sold"),
            &Value::Int(7)
        );
    }

    #[test]
    fn divergent_writes_conflict_and_highest_version_wins() {
        let (mut m, mut cs, mut topo) = setup(3);
        topo.split(&[&[0], &[1, 2]]);
        write_on(&mut m, &mut cs, &topo, 0, 5, 1); // version 1 in {0}
        write_on(&mut m, &mut cs, &topo, 1, 7, 1); // version 1 in {1,2}
        write_on(&mut m, &mut cs, &topo, 1, 8, 2); // version 2 in {1,2}
        topo.heal();
        let report = reconcile(&mut m, &topo, &mut cs, &mut HighestVersionWins);
        assert_eq!(report.conflicts.len(), 1);
        assert_eq!(m.stats().conflicts, 1);
        for c in &cs {
            assert_eq!(
                c.committed_entity(&obj()).unwrap().field("sold"),
                &Value::Int(8)
            );
        }
    }

    #[test]
    fn custom_handler_can_merge_states() {
        let (mut m, mut cs, mut topo) = setup(2);
        topo.split(&[&[0], &[1]]);
        write_on(&mut m, &mut cs, &topo, 0, 5, 1);
        write_on(&mut m, &mut cs, &topo, 1, 7, 1);
        topo.heal();
        // Additive merge: both partitions' sales count.
        let mut merger = |conflict: &ReplicaConflict| {
            let total: i64 = conflict
                .candidates
                .iter()
                .filter_map(|(_, s)| s.as_ref())
                .filter_map(|s| s.field("sold").as_int())
                .sum();
            let mut merged = conflict.candidates[0].1.clone().expect("live state");
            merged.set_field("sold", Value::Int(total), SimTime::ZERO);
            Some(merged)
        };
        let report = reconcile(&mut m, &topo, &mut cs, &mut merger);
        assert_eq!(report.conflicts.len(), 1);
        assert_eq!(
            cs[1].committed_entity(&obj()).unwrap().field("sold"),
            &Value::Int(12)
        );
    }

    #[test]
    fn deletion_vs_update_conflict() {
        let (mut m, mut cs, mut topo) = setup(2);
        topo.split(&[&[0], &[1]]);
        // Partition {0} deletes, partition {1} updates.
        let tx = TxId::new(NodeId(0), 1);
        cs[0].delete(tx, &obj()).unwrap();
        cs[0].commit(tx);
        m.propagate_update(&obj(), NodeId(0), &topo, &mut cs, SimTime::ZERO);
        write_on(&mut m, &mut cs, &topo, 1, 7, 1);
        topo.heal();
        let report = reconcile(&mut m, &topo, &mut cs, &mut HighestVersionWins);
        assert_eq!(report.conflicts.len(), 1);
        // HighestVersionWins prefers the live state.
        assert!(cs[0].committed_entity(&obj()).is_some());
    }

    #[test]
    fn history_supports_rollback_search() {
        let (mut m, mut cs, mut topo) = setup(2);
        topo.split(&[&[0], &[1]]);
        write_on(&mut m, &mut cs, &topo, 1, 7, 1);
        write_on(&mut m, &mut cs, &topo, 1, 9, 2);
        write_on(&mut m, &mut cs, &topo, 0, 3, 1);
        // A second object, written behind partition {0} only.
        let other = ObjectId::new("Flight", "F2");
        m.register_object(other.clone(), [NodeId(0), NodeId(1)], NodeId(0))
            .unwrap();
        let tx = TxId::new(NodeId(0), 2);
        cs[0]
            .create(tx, EntityState::for_class(&app(), &other).unwrap())
            .unwrap();
        cs[0].commit(tx);
        m.propagate_update(&other, NodeId(0), &topo, &mut cs, SimTime::ZERO);

        let states = m.partition_history(&obj(), 1);
        assert_eq!(states.len(), 2);
        assert_eq!(states[0].state().field("sold"), &Value::Int(7));
        assert_eq!(states[1].state().field("sold"), &Value::Int(9));
        // What is kept is what was shipped, not a copy of it.
        assert!(states[1].ptr_eq(cs[1].committed_snapshot(&obj()).unwrap()));
        assert_eq!(m.partition_history(&obj(), 0).len(), 1);
        assert_eq!(m.partition_history(&other, 0).len(), 1);
        assert!(m.partition_history(&other, 1).is_empty());

        m.clear_degraded_state();
        for object in [&obj(), &other] {
            for pkey in 0..2 {
                assert!(m.partition_history(object, pkey).is_empty());
            }
        }
    }

    #[test]
    fn writers_out_of_reach_stay_tracked() {
        let (mut m, mut cs, mut topo) = setup(2);
        topo.split(&[&[0], &[1]]);
        write_on(&mut m, &mut cs, &topo, 1, 7, 1);
        let report = reconcile(&mut m, &topo, &mut cs, &mut HighestVersionWins);
        assert_eq!(report.missed_updates, 0);
        assert!(m.is_degraded_tracked(&obj()), "postponed until it heals");
        topo.heal();
        let report = reconcile(&mut m, &topo, &mut cs, &mut HighestVersionWins);
        assert_eq!(report.missed_updates, 1);
        assert!(!m.is_degraded_tracked(&obj()));
    }
}
