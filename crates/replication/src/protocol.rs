//! Replication protocol selection and placement rules.

use dedisys_gms::NodeWeights;
use dedisys_net::Topology;
use dedisys_types::{Error, NodeId, ObjectId, Result};
use std::collections::BTreeSet;

/// The replication protocol in force.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProtocolKind {
    /// Primary/backup: writes go to the static primary; blocked when it
    /// is unreachable.
    PrimaryBackup,
    /// Primary-partition \[RSB93\]: writes allowed only in the primary
    /// partition (majority weight; ties broken towards the partition
    /// containing the lowest node id).
    PrimaryPartition,
    /// Primary-per-partition (P4) \[BBG+06\]: every partition elects a
    /// temporary primary per object, trading consistency threats for
    /// availability.
    #[default]
    PrimaryPerPartition,
}

impl ProtocolKind {
    /// The node on which a write to `object` must execute for a request
    /// issued on `requester`, or an error if writes are blocked.
    ///
    /// `replicas` is the object's replica set, `primary` its static
    /// primary (always a member of `replicas`).
    ///
    /// # Errors
    ///
    /// * [`Error::ObjectUnreachable`] — no replica reachable.
    /// * [`Error::ModeRestriction`] — protocol blocks writes here.
    pub fn write_target(
        self,
        object: &ObjectId,
        requester: NodeId,
        replicas: &BTreeSet<NodeId>,
        primary: NodeId,
        topology: &Topology,
        weights: &NodeWeights,
    ) -> Result<NodeId> {
        let partition = topology.partition_of(requester);
        let mut walk = replicas.iter().filter(|r| partition.contains(r));
        let Some(&lowest) = walk.next() else {
            return Err(Error::ObjectUnreachable(object.clone()));
        };
        // The static primary when it is reachable; otherwise the lowest
        // reachable replica stands in (a crashed primary's successor,
        // P4's temporary per-partition primary).
        let target = if lowest == primary || walk.any(|&r| r == primary) {
            primary
        } else {
            lowest
        };
        match self {
            ProtocolKind::PrimaryBackup => {
                if target == primary {
                    Ok(primary)
                } else {
                    Err(Error::ModeRestriction(format!(
                        "primary {primary} of {object} unreachable under primary-backup"
                    )))
                }
            }
            ProtocolKind::PrimaryPartition => {
                if is_primary_partition(partition, weights) {
                    Ok(target)
                } else {
                    Err(Error::ModeRestriction(format!(
                        "writes to {object} blocked outside the primary partition"
                    )))
                }
            }
            ProtocolKind::PrimaryPerPartition => Ok(target),
        }
    }

    /// Whether a read of `object` on `requester` may observe stale
    /// state under the current topology (feeding LCC classification,
    /// §3.1).
    pub fn is_possibly_stale(
        self,
        requester: NodeId,
        replicas: &BTreeSet<NodeId>,
        primary: NodeId,
        topology: &Topology,
        weights: &NodeWeights,
    ) -> bool {
        if topology.is_healthy() {
            return false;
        }
        let partition = topology.partition_of(requester);
        let all_replicas_here = replicas.iter().all(|r| partition.contains(r));
        match self {
            // Primary-backup blocks writes elsewhere, so a copy is stale
            // only if the primary is in another partition (it may have
            // been updated there when the primary's partition is the
            // writable one). If the primary is reachable, reads are
            // authoritative.
            ProtocolKind::PrimaryBackup => !partition.contains(&primary),
            // Only the primary partition takes writes: every object
            // accessed in a non-primary partition is possibly stale
            // [RSB93].
            ProtocolKind::PrimaryPartition => !is_primary_partition(partition, weights),
            // P4: a temporary primary may write in *any* partition, so
            // objects are possibly stale in every partition [BBG+06] —
            // unless every replica of the object lives in this
            // partition (no other partition holds a copy to diverge).
            ProtocolKind::PrimaryPerPartition => !all_replicas_here,
        }
    }
}

/// Whether `partition` is the primary partition: strictly more than
/// half the total weight, or exactly half and containing node 0 (tie
/// break).
fn is_primary_partition(partition: &BTreeSet<NodeId>, weights: &NodeWeights) -> bool {
    let w = u64::from(weights.partition_weight(partition));
    let total = u64::from(weights.total());
    w * 2 > total || (w * 2 == total && partition.contains(&NodeId(0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn replicas(n: u32) -> BTreeSet<NodeId> {
        (0..n).map(NodeId).collect()
    }

    fn obj() -> ObjectId {
        ObjectId::new("Flight", "F1")
    }

    #[test]
    fn primary_backup_blocks_without_primary() {
        let mut topo = Topology::fully_connected(3);
        let w = NodeWeights::uniform(3);
        let p = ProtocolKind::PrimaryBackup;
        assert_eq!(
            p.write_target(&obj(), NodeId(2), &replicas(3), NodeId(0), &topo, &w),
            Ok(NodeId(0))
        );
        topo.split(&[&[0], &[1, 2]]);
        assert!(matches!(
            p.write_target(&obj(), NodeId(2), &replicas(3), NodeId(0), &topo, &w),
            Err(Error::ModeRestriction(_))
        ));
        // The primary's own partition still writes.
        assert_eq!(
            p.write_target(&obj(), NodeId(0), &replicas(3), NodeId(0), &topo, &w),
            Ok(NodeId(0))
        );
    }

    #[test]
    fn primary_partition_allows_majority_side_only() {
        let mut topo = Topology::fully_connected(3);
        topo.split(&[&[0], &[1, 2]]);
        let w = NodeWeights::uniform(3);
        let p = ProtocolKind::PrimaryPartition;
        // Majority partition {1,2} writes (primary crashed -> lowest).
        assert_eq!(
            p.write_target(&obj(), NodeId(1), &replicas(3), NodeId(0), &topo, &w),
            Ok(NodeId(1))
        );
        // Minority partition {0} blocked.
        assert!(matches!(
            p.write_target(&obj(), NodeId(0), &replicas(3), NodeId(0), &topo, &w),
            Err(Error::ModeRestriction(_))
        ));
    }

    /// Partitions of `topo` in which a primary-partition write to a
    /// fully replicated object is allowed.
    fn writable_partitions(topo: &Topology, w: &NodeWeights) -> Vec<BTreeSet<NodeId>> {
        let all = replicas(w.node_count());
        topo.partitions()
            .iter()
            .filter(|side| {
                let requester = *side.first().expect("partitions are non-empty");
                ProtocolKind::PrimaryPartition
                    .write_target(&obj(), requester, &all, NodeId(0), topo, w)
                    .is_ok()
            })
            .cloned()
            .collect()
    }

    #[test]
    fn primary_partition_writes_on_exactly_one_side_of_every_split() {
        for w in [
            // Odd total (11): one side always holds a strict majority.
            NodeWeights::explicit(vec![2, 3, 1, 1, 4]),
            // Even total (4): the 2–2 splits tie, node 0's side wins.
            NodeWeights::uniform(4),
        ] {
            let n = w.node_count();
            for mask in 0u32..(1 << n) {
                let (a, b): (Vec<u32>, Vec<u32>) = (0..n).partition(|i| mask & (1 << i) != 0);
                let mut topo = Topology::fully_connected(n);
                // Two sides covering every node: exactly one may write.
                topo.split(&[&a, &b]);
                let writable = writable_partitions(&topo, &w);
                assert_eq!(writable.len(), 1, "{a:?} | {b:?}: {writable:?}");
                let weight = |side: &[u32]| side.iter().map(|&i| w.weight_of(NodeId(i))).sum();
                let (wa, wb): (u32, u32) = (weight(&a), weight(&b));
                if wa == wb {
                    assert!(writable[0].contains(&NodeId(0)), "{a:?} | {b:?}: tie");
                }
                // `a` against the rest as singletons: never more than one.
                topo.split(&[&a]);
                let writable = writable_partitions(&topo, &w);
                assert!(writable.len() <= 1, "{a:?} | singletons: {writable:?}");
            }
        }
    }

    #[test]
    fn p4_writes_in_every_partition() {
        let mut topo = Topology::fully_connected(3);
        topo.split(&[&[0], &[1, 2]]);
        let w = NodeWeights::uniform(3);
        let p = ProtocolKind::PrimaryPerPartition;
        assert_eq!(
            p.write_target(&obj(), NodeId(0), &replicas(3), NodeId(0), &topo, &w),
            Ok(NodeId(0))
        );
        // Temporary primary in {1,2} is the lowest reachable replica.
        assert_eq!(
            p.write_target(&obj(), NodeId(2), &replicas(3), NodeId(0), &topo, &w),
            Ok(NodeId(1))
        );
    }

    #[test]
    fn unreachable_object_with_bound_placement() {
        // DTMS-style: object only on nodes {0,1}.
        let mut topo = Topology::fully_connected(3);
        topo.split(&[&[0, 1], &[2]]);
        let w = NodeWeights::uniform(3);
        let bound: BTreeSet<NodeId> = [NodeId(0), NodeId(1)].into();
        for p in [
            ProtocolKind::PrimaryBackup,
            ProtocolKind::PrimaryPerPartition,
        ] {
            assert!(matches!(
                p.write_target(&obj(), NodeId(2), &bound, NodeId(0), &topo, &w),
                Err(Error::ObjectUnreachable(_))
            ));
        }
    }

    /// The implementation before PR 25, which collected the reachable
    /// replicas into a set: the oracle the in-place walk must match.
    fn write_target_collected(
        p: ProtocolKind,
        object: &ObjectId,
        requester: NodeId,
        replicas: &BTreeSet<NodeId>,
        primary: NodeId,
        topology: &Topology,
        weights: &NodeWeights,
    ) -> Result<NodeId> {
        let partition = topology.partition_of(requester);
        let reachable: BTreeSet<NodeId> = replicas.intersection(partition).copied().collect();
        let Some(&lowest) = reachable.first() else {
            return Err(Error::ObjectUnreachable(object.clone()));
        };
        let target = if reachable.contains(&primary) {
            primary
        } else {
            lowest
        };
        match p {
            ProtocolKind::PrimaryBackup if target == primary => Ok(primary),
            ProtocolKind::PrimaryBackup => Err(Error::ModeRestriction(format!(
                "primary {primary} of {object} unreachable under primary-backup"
            ))),
            ProtocolKind::PrimaryPartition if is_primary_partition(partition, weights) => {
                Ok(target)
            }
            ProtocolKind::PrimaryPartition => Err(Error::ModeRestriction(format!(
                "writes to {object} blocked outside the primary partition"
            ))),
            ProtocolKind::PrimaryPerPartition => Ok(target),
        }
    }

    #[test]
    fn the_walk_picks_what_the_collected_set_picked() {
        let protocols = [
            ProtocolKind::PrimaryBackup,
            ProtocolKind::PrimaryPartition,
            ProtocolKind::PrimaryPerPartition,
        ];
        let mut checked = 0u32;
        for n in 1..=4u32 {
            let explicit = NodeWeights::explicit([2, 0, 3, 1][..n as usize].to_vec());
            for weights in [NodeWeights::uniform(n), explicit] {
                // Every partitioning into at most three sides: node i
                // goes to side `labels / 3^i % 3`.
                for labels in 0..3u32.pow(n) {
                    let mut sides: [Vec<u32>; 3] = Default::default();
                    for i in 0..n {
                        sides[(labels / 3u32.pow(i) % 3) as usize].push(i);
                    }
                    let mut topo = Topology::fully_connected(n);
                    topo.split(&[&sides[0], &sides[1], &sides[2]]);
                    for mask in 1..(1u32 << n) {
                        let set: BTreeSet<NodeId> = (0..n)
                            .filter(|i| mask & (1 << i) != 0)
                            .map(NodeId)
                            .collect();
                        for &primary in &set {
                            for requester in (0..n).map(NodeId) {
                                for p in protocols {
                                    let (o, w) = (obj(), &weights);
                                    assert_eq!(
                                        p.write_target(&o, requester, &set, primary, &topo, w),
                                        write_target_collected(
                                            p, &o, requester, &set, primary, &topo, w
                                        ),
                                        "{p:?} {sides:?} {set:?} primary {primary} from {requester}"
                                    );
                                    checked += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        // Σ_n 2 weightings × 3^n sides × n·2^(n-1) (replicas, primary)
        // × n requesters × 3 protocols.
        assert_eq!(checked, 2 * 3 * (3 + 9 * 8 + 27 * 36 + 81 * 128));
    }

    #[test]
    fn staleness_per_protocol() {
        let mut topo = Topology::fully_connected(3);
        let w = NodeWeights::uniform(3);
        let all = replicas(3);
        // Healthy: nothing stale.
        assert!(!ProtocolKind::PrimaryPerPartition.is_possibly_stale(
            NodeId(1),
            &all,
            NodeId(0),
            &topo,
            &w
        ));
        topo.split(&[&[0], &[1, 2]]);
        // Primary-backup: stale only away from the primary.
        assert!(!ProtocolKind::PrimaryBackup.is_possibly_stale(
            NodeId(0),
            &all,
            NodeId(0),
            &topo,
            &w
        ));
        assert!(ProtocolKind::PrimaryBackup.is_possibly_stale(
            NodeId(1),
            &all,
            NodeId(0),
            &topo,
            &w
        ));
        // Primary-partition: stale only in the minority partition.
        assert!(ProtocolKind::PrimaryPartition.is_possibly_stale(
            NodeId(0),
            &all,
            NodeId(0),
            &topo,
            &w
        ));
        assert!(!ProtocolKind::PrimaryPartition.is_possibly_stale(
            NodeId(1),
            &all,
            NodeId(0),
            &topo,
            &w
        ));
        // P4: stale in every partition.
        assert!(ProtocolKind::PrimaryPerPartition.is_possibly_stale(
            NodeId(0),
            &all,
            NodeId(0),
            &topo,
            &w
        ));
        assert!(ProtocolKind::PrimaryPerPartition.is_possibly_stale(
            NodeId(2),
            &all,
            NodeId(0),
            &topo,
            &w
        ));
    }

    #[test]
    fn p4_not_stale_when_all_replicas_local() {
        // Object bound to {1,2}, both in the same partition: no other
        // partition can diverge it.
        let mut topo = Topology::fully_connected(3);
        topo.split(&[&[0], &[1, 2]]);
        let w = NodeWeights::uniform(3);
        let bound: BTreeSet<NodeId> = [NodeId(1), NodeId(2)].into();
        assert!(!ProtocolKind::PrimaryPerPartition.is_possibly_stale(
            NodeId(1),
            &bound,
            NodeId(1),
            &topo,
            &w
        ));
    }
}
