//! Cross-crate integration: behaviour of the three replication
//! protocols under partitions, and their interaction with constraint
//! consistency management.

use dedisys_core::nodes;
use dedisys_core::{ClusterBuilder, DeferAll, HighestVersionWins, ProtocolKind};
use dedisys_object::{AppDescriptor, ClassDescriptor, EntityState};
use dedisys_types::{Error, NodeId, ObjectId, SystemMode, Value};

#[path = "../crates/core/tests/promise/mod.rs"]
mod promise;

fn app() -> AppDescriptor {
    AppDescriptor::new("kv").with_class(ClassDescriptor::new("Item").with_field("v", Value::Int(0)))
}

fn cluster_with(protocol: ProtocolKind, nodes: u32) -> dedisys_core::Cluster {
    ClusterBuilder::new(nodes, app())
        .protocol(protocol)
        .build()
        .unwrap()
}

fn seed_item(cluster: &mut dedisys_core::Cluster, key: &str) -> ObjectId {
    let id = ObjectId::new("Item", key);
    let node = NodeId(0);
    let e = id.clone();
    cluster
        .run_tx(node, move |c, tx| {
            c.create(node, tx, EntityState::for_class(c.app(), &e)?)
        })
        .unwrap();
    id
}

fn write(
    cluster: &mut dedisys_core::Cluster,
    node: NodeId,
    id: &ObjectId,
    v: i64,
) -> Result<(), Error> {
    let id = id.clone();
    cluster.run_tx(node, move |c, tx| {
        c.set_field(node, tx, &id, "v", Value::Int(v))
    })
}

#[test]
fn primary_backup_blocks_writes_away_from_primary() {
    let mut cluster = cluster_with(ProtocolKind::PrimaryBackup, 3);
    let id = seed_item(&mut cluster, "a"); // primary = creator = n0
    cluster.partition(&[nodes![0], nodes![1, 2]]).unwrap();
    // Primary's side writes; the other side is blocked.
    assert!(write(&mut cluster, NodeId(0), &id, 1).is_ok());
    assert!(matches!(
        write(&mut cluster, NodeId(1), &id, 2),
        Err(Error::ModeRestriction(_))
    ));
    // Reads stay possible everywhere (local replicas).
    let got = cluster
        .run_tx(NodeId(1), |c, tx| c.get_field(NodeId(1), tx, &id, "v"))
        .unwrap();
    assert_eq!(got, Value::Int(0), "stale but available");
}

#[test]
fn primary_partition_allows_only_majority_side() {
    let mut cluster = cluster_with(ProtocolKind::PrimaryPartition, 3);
    let id = seed_item(&mut cluster, "a");
    cluster.partition(&[nodes![0], nodes![1, 2]]).unwrap();
    assert!(matches!(
        write(&mut cluster, NodeId(0), &id, 1),
        Err(Error::ModeRestriction(_))
    ));
    assert!(write(&mut cluster, NodeId(1), &id, 2).is_ok());
    // No write-write conflicts possible: reconciliation has only
    // missed updates.
    cluster.heal();
    let summary = cluster.reconcile(&mut HighestVersionWins, &mut DeferAll);
    promise::assert_kept(&cluster);
    assert!(summary.replica.conflicts.is_empty());
    assert_eq!(
        cluster.entity_on(NodeId(0), &id).unwrap().field("v"),
        &Value::Int(2)
    );
}

#[test]
fn p4_writes_everywhere_and_reconciles_conflicts() {
    let mut cluster = cluster_with(ProtocolKind::PrimaryPerPartition, 3);
    let id = seed_item(&mut cluster, "a");
    cluster.partition(&[nodes![0], nodes![1, 2]]).unwrap();
    assert!(write(&mut cluster, NodeId(0), &id, 1).is_ok());
    assert!(write(&mut cluster, NodeId(1), &id, 2).is_ok());
    assert!(write(&mut cluster, NodeId(2), &id, 3).is_ok());
    // Within a partition the temporary primary propagates to reachable
    // backups: n2 sees n1/n2-side value.
    assert_eq!(
        cluster.entity_on(NodeId(2), &id).unwrap().field("v"),
        &Value::Int(3)
    );
    cluster.heal();
    let summary = cluster.reconcile(&mut HighestVersionWins, &mut DeferAll);
    promise::assert_kept(&cluster);
    assert_eq!(summary.replica.conflicts.len(), 1);
    // Highest version wins: side {1,2} wrote twice (v=2 then v=3).
    for n in 0..3 {
        assert_eq!(
            cluster.entity_on(NodeId(n), &id).unwrap().field("v"),
            &Value::Int(3)
        );
    }
}

#[test]
fn mode_transitions_follow_figure_1_4() {
    let mut cluster = cluster_with(ProtocolKind::PrimaryPerPartition, 2);
    let id = seed_item(&mut cluster, "a");
    assert_eq!(cluster.mode(), SystemMode::Healthy);
    cluster.partition(&[nodes![0], nodes![1]]).unwrap();
    assert_eq!(cluster.mode(), SystemMode::Degraded);
    write(&mut cluster, NodeId(0), &id, 1).unwrap();
    cluster.heal();
    assert_eq!(cluster.mode(), SystemMode::Reconciliation);
    cluster.reconcile(&mut HighestVersionWins, &mut DeferAll);
    promise::assert_kept(&cluster);
    assert_eq!(cluster.mode(), SystemMode::Healthy);
}

#[test]
fn repeated_partition_cycles_stay_consistent() {
    let mut cluster = cluster_with(ProtocolKind::PrimaryPerPartition, 4);
    let id = seed_item(&mut cluster, "a");
    let mut expected = 0;
    for round in 0..5 {
        cluster.partition(&[nodes![0, 1], nodes![2, 3]]).unwrap();
        expected = round * 10 + 1;
        write(&mut cluster, NodeId(0), &id, expected).unwrap();
        write(&mut cluster, NodeId(2), &id, round * 10 + 2).unwrap();
        cluster.heal();
        cluster.reconcile(&mut HighestVersionWins, &mut DeferAll);
        promise::assert_kept(&cluster);
        // Same number of degraded writes per side → deterministic
        // winner; all replicas agree afterwards.
        let reference = cluster
            .entity_on(NodeId(0), &id)
            .unwrap()
            .field("v")
            .clone();
        for n in 1..4 {
            assert_eq!(
                cluster.entity_on(NodeId(n), &id).unwrap().field("v"),
                &reference,
                "round {round}, node {n}"
            );
        }
    }
    let _ = expected;
    assert!(cluster.threats().is_empty());
}

#[test]
fn no_dedisys_baseline_has_no_replication_or_ccm() {
    let mut cluster = ClusterBuilder::new(1, app())
        .without_dedisys()
        .build()
        .unwrap();
    let id = seed_item(&mut cluster, "a");
    write(&mut cluster, NodeId(0), &id, 5).unwrap();
    assert_eq!(cluster.stats().replication.propagations, 0);
    assert_eq!(cluster.stats().ccm.validations, 0);
}

#[test]
fn virtual_time_advances_deterministically() {
    let run = || {
        let mut cluster = cluster_with(ProtocolKind::PrimaryPerPartition, 3);
        let id = seed_item(&mut cluster, "a");
        for i in 0..10 {
            write(&mut cluster, NodeId(0), &id, i).unwrap();
        }
        cluster.now()
    };
    let t1 = run();
    let t2 = run();
    assert_eq!(t1, t2, "same workload, same virtual time");
    assert!(t1.as_nanos() > 0);
}
