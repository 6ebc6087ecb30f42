//! Every acknowledged write is readable after a restart from the
//! journal only — stated once, over seeded schedules.
//!
//! 24 seeds × 300 steps of create / write / delete / partition / heal /
//! reconcile / crash / restart, drawn from `ChaosRng`.
//! Checked along the way:
//!
//! * an acknowledged write is held by every live replica in the
//!   writer's partition (P4 ships synchronously);
//! * after **every restart** the node's committed map equals what
//!   replaying *its own journal alone* yields — the test replays the
//!   entries itself, last operation per key, torn tail excluded;
//! * after heal + reconcile all replicas are equal, and every node's
//!   map still equals its journal's replay.
//!
//! Journals share their records across nodes; the middle property is
//! what says a shared record is still each node's own durable copy.
//! The torn-backup test says it once more without the schedule: tearing
//! one backup's journal costs that backup alone. The last test runs
//! long enough for the journals to compact themselves, and restarts
//! from the compacted journals.

use dedisys_core::{Cluster, ClusterBuilder, CostModel, DeferAll, HighestVersionWins};
use dedisys_object::{AppDescriptor, ClassDescriptor, EntityState};
use dedisys_store::LogOp;
use dedisys_types::{ChaosRng, NodeId, ObjectId, SimDuration, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

mod promise;

const NODES: u32 = 3;
const KEYS: u64 = 8;
const SEEDS: u64 = 24;
const STEPS: u32 = 300;

fn app() -> AppDescriptor {
    AppDescriptor::new("durability")
        .with_class(ClassDescriptor::new("Item").with_field("v", Value::Int(0)))
}

fn item(key: u64) -> ObjectId {
    ObjectId::new("Item", format!("k{key}"))
}

/// What `node`'s journal alone says its committed state is: the last
/// operation per key over the intact prefix, decoded from the record.
fn replay_journal(c: &Cluster, node: NodeId) -> BTreeMap<ObjectId, EntityState> {
    let mut last: BTreeMap<&str, &LogOp> = BTreeMap::new();
    for entry in c.journal_on(node).entries() {
        if !entry.is_intact() {
            break;
        }
        last.insert(&entry.key, &entry.op);
    }
    last.values()
        .filter_map(|op| match op {
            LogOp::Put { record } => Some(EntityState::from_json(record).expect("record decodes")),
            LogOp::Delete => None,
        })
        .map(|e| (e.id().clone(), e))
        .collect()
}

fn committed_map(c: &Cluster, node: NodeId) -> BTreeMap<ObjectId, EntityState> {
    c.committed_ids_on(node)
        .into_iter()
        .map(|id| {
            let state = c.entity_on(node, &id).expect("listed id is held").clone();
            (id, state)
        })
        .collect()
}

fn assert_map_is_journal(c: &Cluster, node: NodeId, seed: u64, step: u32, when: &str) {
    assert_eq!(
        committed_map(c, node),
        replay_journal(c, node),
        "seed {seed} step {step}: {node} {when}: committed map differs from its journal's replay"
    );
}

/// Restarts every crashed node, heals, reconciles, and checks that all
/// replicas agree and still equal their journals.
fn converge(c: &mut Cluster, seed: u64, step: u32) {
    for n in (0..NODES).map(NodeId) {
        if c.is_crashed(n) {
            c.restart(n).expect("crashed node restarts");
            assert_map_is_journal(c, n, seed, step, "after restart");
        }
    }
    c.heal();
    c.reconcile(&mut HighestVersionWins, &mut DeferAll);
    promise::assert_kept(c);
    let reference = committed_map(c, NodeId(0));
    for n in (0..NODES).map(NodeId) {
        assert_eq!(
            committed_map(c, n),
            reference,
            "seed {seed} step {step}: {n} differs from node 0 after heal + reconcile"
        );
        assert_map_is_journal(c, n, seed, step, "after reconcile");
    }
}

fn run_schedule(seed: u64) {
    let mut rng = ChaosRng::new(seed);
    let mut c = ClusterBuilder::new(NODES, app())
        .build()
        .expect("cluster builds");
    let mut acknowledged = 0u32;
    for step in 0..STEPS {
        let nodes: Vec<NodeId> = c.live_nodes().collect();
        let via = nodes[rng.below(nodes.len() as u64) as usize];
        let id = item(rng.below(KEYS));
        match rng.below(100) {
            0..=14 => {
                let e = id.clone();
                let _ = c.run_tx(via, move |c, tx| {
                    c.create(via, tx, EntityState::for_class(c.app(), &e)?)
                });
            }
            15..=64 => {
                let value = Value::Int(i64::from(step));
                let (w, v) = (id.clone(), value.clone());
                if c.run_tx(via, move |c, tx| c.set_field(via, tx, &w, "v", v))
                    .is_ok()
                {
                    acknowledged += 1;
                    // Synchronous propagation: every live replica the
                    // writer can reach holds the acknowledged value.
                    for n in c.topology().partition_of(via).clone() {
                        if c.is_crashed(n) {
                            continue;
                        }
                        if let Some(held) = c.entity_on(n, &id) {
                            assert_eq!(
                                held.field("v"),
                                &value,
                                "seed {seed} step {step}: write via {via} not on {n}"
                            );
                        }
                    }
                }
            }
            65..=69 => {
                let d = id.clone();
                let _ = c.run_tx(via, move |c, tx| c.delete(via, tx, &d));
            }
            70..=76 => {
                // Two non-empty groups over the live nodes.
                if nodes.len() >= 2 {
                    let cut = 1 + rng.below(nodes.len() as u64 - 1) as usize;
                    let _ = c.partition(&[nodes[..cut].to_vec(), nodes[cut..].to_vec()]);
                }
            }
            77..=81 => {
                c.heal();
            }
            82..=86 => {
                if c.topology().is_healthy() && c.crashed_nodes().next().is_none() {
                    c.reconcile(&mut HighestVersionWins, &mut DeferAll);
                    promise::assert_kept(&c);
                }
            }
            87..=92 => {
                if nodes.len() > 1 {
                    if rng.below(4) == 0 {
                        // A journal write torn by the crash.
                        c.corrupt_journal_tail(via, 1).expect("known node");
                    }
                    c.crash(via).expect("live node crashes");
                }
            }
            93..=97 => {
                let down = c.crashed_nodes().next();
                if let Some(down) = down {
                    c.restart(down).expect("crashed node restarts");
                    assert_map_is_journal(&c, down, seed, step, "after restart");
                }
            }
            _ => converge(&mut c, seed, step),
        }
    }
    converge(&mut c, seed, STEPS);
    assert!(
        acknowledged > 0,
        "seed {seed}: schedule acknowledged no write"
    );
}

#[test]
fn acknowledged_writes_survive_restart_from_the_journal_alone() {
    for seed in 0..SEEDS {
        run_schedule(seed);
    }
}

/// The records of `node`'s journal puts, in append order.
fn put_records(c: &Cluster, node: NodeId) -> Vec<Arc<str>> {
    c.journal_on(node)
        .entries()
        .iter()
        .filter_map(|e| match &e.op {
            LogOp::Put { record } => Some(Arc::clone(record)),
            LogOp::Delete => None,
        })
        .collect()
}

/// A committed write is one record (hashed once, where it was encoded)
/// that three journals point at, each under its own checksum. Tearing
/// the last `k` entries of one backup is therefore that backup's loss
/// alone: its restart truncates them and the rejoin catches it up,
/// while the primary and the other backup — holding the same `Arc`s —
/// recover every entry.
#[test]
fn a_torn_backup_journal_is_that_backups_loss_alone() {
    const ITEMS: u64 = 4;
    let (primary, other, torn) = (NodeId(0), NodeId(1), NodeId(2));
    for k in 1..=ITEMS as usize {
        let mut c = ClusterBuilder::new(NODES, app())
            .build()
            .expect("cluster builds");
        for key in 0..ITEMS {
            c.run_tx(primary, |c, tx| {
                c.create(primary, tx, EntityState::for_class(c.app(), &item(key))?)
            })
            .expect("fresh id");
        }
        for round in 0..3 {
            for key in 0..ITEMS {
                let v = Value::Int((round * ITEMS + key) as i64);
                c.run_tx(primary, |c, tx| {
                    c.set_field(primary, tx, &item(key), "v", v)
                })
                .expect("healthy write");
            }
        }
        let shared = put_records(&c, primary);
        for n in [other, torn] {
            let records = put_records(&c, n);
            assert_eq!(records.len(), shared.len());
            assert!(
                records.iter().zip(&shared).all(|(a, b)| Arc::ptr_eq(a, b)),
                "k {k}: {n} journals copies, not the primary's records"
            );
        }
        let reference = committed_map(&c, primary);
        let len = c.journal_len_on(torn);

        assert_eq!(c.corrupt_journal_tail(torn, k).expect("known node"), k);
        let broken = |c: &Cluster, n| {
            let entries = c.journal_on(n).entries();
            entries.iter().filter(|e| !e.is_intact()).count()
        };
        assert_eq!(
            (broken(&c, primary), broken(&c, other), broken(&c, torn)),
            (0, 0, k),
            "k {k}: a torn entry is torn where it was torn"
        );

        c.crash(torn).expect("live node crashes");
        c.restart(torn).expect("crashed node restarts");
        let truncated = |c: &Cluster| c.telemetry().metrics().counter("store.wal.truncated");
        assert_eq!(truncated(&c), k as u64);
        // The last k writes went to k different items: the rejoin
        // re-installs exactly those, as the snapshots the group holds.
        assert_eq!(c.journal_len_on(torn), len, "k {k}: k lost, k re-shipped");
        assert_eq!(broken(&c, torn), 0);
        let tail = &shared[shared.len() - k..];
        for record in &put_records(&c, torn)[len - k..] {
            assert!(
                tail.iter().any(|r| Arc::ptr_eq(r, record)),
                "k {k}: catch-up installed a copy"
            );
        }
        assert_eq!(committed_map(&c, torn), reference);
        assert_map_is_journal(&c, torn, 0, k as u32, "after restart");

        for n in [other, primary] {
            c.crash(n).expect("live node crashes");
            c.restart(n).expect("crashed node restarts");
            assert_eq!(truncated(&c), k as u64, "k {k}: {n} lost nothing");
            assert_eq!(c.journal_len_on(n), len, "k {k}: {n} recovers every entry");
            assert_eq!(committed_map(&c, n), reference);
        }
        assert!(put_records(&c, primary)
            .iter()
            .zip(&shared)
            .all(|(a, b)| Arc::ptr_eq(a, b)));
        converge(&mut c, 0, k as u32);
        assert_eq!(committed_map(&c, torn), reference);
    }
}

/// Three thousand writes to four objects append three thousand entries
/// to every journal; each journal keeps at most twice its live keys
/// plus the log's compaction floor (1 024). A restart right after a
/// compaction replays — and is charged for — the survivors alone, and
/// recovers the same state; a torn entry after a compaction is
/// truncated and resynced like any other.
#[test]
fn compacted_journals_stay_bounded_and_recover() {
    const ITEMS: u64 = 4;
    const WRITES: u64 = 3_000;
    const BOUND: usize = 2 * ITEMS as usize + 1_024;
    let per_entry = SimDuration::from_micros(350);
    let mut c = ClusterBuilder::new(NODES, app())
        .costs(CostModel {
            wal_replay_per_entry: per_entry,
            ..CostModel::free()
        })
        .build()
        .expect("cluster builds");
    let primary = NodeId(0);
    for key in 0..ITEMS {
        c.run_tx(primary, |c, tx| {
            c.create(primary, tx, EntityState::for_class(c.app(), &item(key))?)
        })
        .expect("fresh id");
    }
    // Every journal gets the same entries in the same order, so they
    // compact on the same write; stop right after one, when what the
    // journals hold is the compaction's survivors alone.
    let mut n = 0;
    while n < WRITES || c.journal_len_on(primary) > ITEMS as usize {
        let v = Value::Int(n as i64);
        c.run_tx(primary, |c, tx| {
            c.set_field(primary, tx, &item(n % ITEMS), "v", v)
        })
        .expect("healthy write");
        for node in (0..NODES).map(NodeId) {
            let len = c.journal_len_on(node);
            assert!(len <= BOUND, "write {n}: {node} holds {len} entries");
        }
        n += 1;
    }

    let reference = committed_map(&c, primary);
    for node in (0..NODES).map(NodeId) {
        let held = c.journal_len_on(node);
        assert_eq!(held, ITEMS as usize, "{node}: each object's newest put");
        let before = c.now();
        c.crash(node).expect("live node crashes");
        c.restart(node).expect("crashed node restarts");
        assert_eq!(
            c.now().since(before),
            per_entry * held as u64,
            "{node}: charged for the entries it holds"
        );
        assert_eq!(c.journal_len_on(node), held, "{node}: nothing truncated");
        assert_eq!(committed_map(&c, node), reference, "{node}");
        assert_map_is_journal(&c, node, 0, 0, "after restart");
    }

    // The newest entry of a compacted journal, torn by the crash: the
    // older puts of its key are gone, so the restart truncates it and
    // the rejoin transfers the group's state back.
    let torn = NodeId(2);
    assert_eq!(c.corrupt_journal_tail(torn, 1).expect("known node"), 1);
    c.crash(torn).expect("live node crashes");
    c.restart(torn).expect("crashed node restarts");
    let metrics = c.telemetry().metrics();
    assert_eq!(metrics.counter("store.wal.truncated"), 1);
    assert_eq!(metrics.counter("store.wal.resynced"), 1);
    assert_eq!(committed_map(&c, torn), reference);
    assert_map_is_journal(&c, torn, 0, 0, "after a torn restart");
    converge(&mut c, 0, 0);
}
