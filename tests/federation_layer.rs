//! The sharded federation layer end to end: consistent-hash routing
//! over live shards, the two degraded-shard routing policies,
//! cross-shard 2PC (commit, abort, participant refusal, federation
//! coordinator crash + presumed abort) and explicit rebalancing over
//! the WAL/state-transfer path, whole or refused.

use dedisys_constraints::{
    expr::ExprConstraint, ConstraintMeta, ContextPreparation, RegisteredConstraint,
};
use dedisys_core::{
    nodes, DeferAll, HighestVersionWins, ReconOps, RingRecorder, TraceEvent, ViolationReport,
};
use dedisys_federation::{FederatedCluster, RoutingPolicy, ShardId, ShardMap, XSHARD_TIMEOUT};
use dedisys_object::{AppDescriptor, ClassDescriptor};
use dedisys_types::{
    Error, NodeId, ObjectId, PriorityClass, SatisfactionDegree, SystemMode, Value,
};
use std::sync::Arc;

#[path = "../crates/core/tests/promise/mod.rs"]
mod promise;

fn app() -> AppDescriptor {
    AppDescriptor::new("federation")
        .with_class(ClassDescriptor::new("Item").with_field("v", Value::Int(0)))
}

/// The first `Item` id with the given hint prefix that the map routes
/// to `shard` — deterministic per seed, so tests can aim writes at a
/// chosen shard.
fn id_on(map: &ShardMap, shard: ShardId, hint: &str) -> ObjectId {
    (0..10_000)
        .map(|i| ObjectId::new("Item", format!("{hint}{i}")))
        .find(|id| map.shard_of(id) == shard)
        .expect("some id routes to every shard")
}

fn federation(shards: u32, policy: RoutingPolicy) -> FederatedCluster {
    FederatedCluster::builder(shards, 3, app())
        .seed(7)
        .policy(policy)
        .build()
        .expect("build federation")
}

fn write(fed: &mut FederatedCluster, id: &ObjectId, v: i64) -> dedisys_types::Result<()> {
    fed.run_routed(id, |mut session| {
        session.set_field(id, "v", Value::Int(v))?;
        session.commit()
    })
}

/// The same write, submitted through the target shard's request plane.
fn submit_write(fed: &mut FederatedCluster, id: &ObjectId, v: i64) -> dedisys_types::Result<u64> {
    let target = id.clone();
    fed.submit(id, PriorityClass::Normal, move |mut session| {
        session.set_field(&target, "v", Value::Int(v))?;
        session.commit()
    })
}

fn read(fed: &FederatedCluster, shard: ShardId, id: &ObjectId) -> Option<Value> {
    let node = fed.coordinator_node(shard)?;
    Some(fed.shard(shard).entity_on(node, id)?.field("v").clone())
}

/// The `(committed, presumed_abort)` of every `xshard_resolved` event
/// `ring` saw, in order.
fn resolutions(ring: &RingRecorder) -> Vec<(bool, bool)> {
    ring.records_of_kind("xshard_resolved")
        .into_iter()
        .map(|r| match r.event {
            TraceEvent::XShardResolved {
                committed,
                presumed_abort,
                ..
            } => (committed, presumed_abort),
            other => panic!("not a resolution: {other:?}"),
        })
        .collect()
}

// ---------------------------------------------------------------------
// Quick start: routing + single-shard writes
// ---------------------------------------------------------------------

#[test]
fn three_shard_quick_start_routes_creates_and_writes() {
    let mut fed = federation(3, RoutingPolicy::RouteAnyway);
    assert_eq!(fed.shard_count(), 3);
    for shard in 0..3 {
        assert_eq!(fed.shard(ShardId(shard)).mode(), SystemMode::Healthy);
    }

    // Create enough objects that every shard owns at least one, then
    // write through the router and read back on the owning shard.
    let mut owners = std::collections::BTreeSet::new();
    for i in 0..12 {
        let id = ObjectId::new("Item", format!("qs{i}"));
        let shard = fed.create(&id).expect("create");
        assert_eq!(shard, fed.map().shard_of(&id), "placement follows the map");
        owners.insert(shard);
        write(&mut fed, &id, i).expect("routed write");
        assert_eq!(read(&fed, shard, &id), Some(Value::Int(i)));
    }
    assert_eq!(owners.len(), 3, "12 keys cover all 3 shards at seed 7");
    assert!(fed.stats().routed >= 12);

    // Routing is deterministic: an identically-seeded federation agrees
    // on every placement.
    let twin = federation(3, RoutingPolicy::RouteAnyway);
    for i in 0..12 {
        let id = ObjectId::new("Item", format!("qs{i}"));
        assert_eq!(fed.map().shard_of(&id), twin.map().shard_of(&id));
    }
}

// ---------------------------------------------------------------------
// Routing policies
// ---------------------------------------------------------------------

/// One row of the router's table, policy × target shard mode.
fn check_router_row(policy: RoutingPolicy) {
    use SystemMode::{Degraded, Healthy, Reconciliation};
    for mode in [Healthy, Degraded, Reconciliation] {
        check_router_cell(policy, mode);
    }
}

/// One cell: a request is routed, except under `RejectDegraded` while
/// its shard is not healthy, which is refused with
/// `Error::ModeRestriction`, counted in `rejected_degraded` and never
/// shown to the shard's plane. Shard 0 is brought into `mode`; shard 1
/// stays healthy and keeps serving.
fn check_router_cell(policy: RoutingPolicy, mode: SystemMode) {
    let cell = format!("{policy:?} x {mode:?}");
    let mut fed = federation(3, policy);
    let id = id_on(fed.map(), ShardId(0), "rt");
    let elsewhere = id_on(fed.map(), ShardId(1), "rt");
    fed.create(&id).unwrap();
    fed.create(&elsewhere).unwrap();
    let shard = fed.shard_mut(ShardId(0));
    if mode != SystemMode::Healthy {
        shard.partition(&[nodes![0, 1], nodes![2]]).expect("split");
    }
    if mode == SystemMode::Reconciliation {
        // Degraded-mode residue, then the repair.
        let id = id.clone();
        shard
            .run_tx(NodeId(0), move |c, tx| {
                c.set_field(NodeId(0), tx, &id, "v", Value::Int(-1))
            })
            .expect("degraded write");
        shard.heal();
    }
    let modes: Vec<SystemMode> = (0..3).map(|s| fed.shard(ShardId(s)).mode()).collect();
    assert_eq!(modes, [mode, SystemMode::Healthy, SystemMode::Healthy]);

    // The direct path, then the admission path.
    let routed = write(&mut fed, &id, 1);
    let submitted = submit_write(&mut fed, &id, 2).map(drop);
    write(&mut fed, &elsewhere, 3).expect("healthy shard serves");
    fed.run_until_idle();
    let plane = fed.plane(ShardId(0)).stats().total();
    if policy == RoutingPolicy::RejectDegraded && mode != SystemMode::Healthy {
        for refused in [routed, submitted] {
            assert!(
                matches!(refused, Err(Error::ModeRestriction(_))),
                "{cell}: {refused:?}"
            );
        }
        assert_eq!(fed.stats().rejected_degraded, 2, "{cell}");
        assert_eq!(plane.offered, 0, "{cell}: refused before the plane");
    } else {
        assert_eq!((routed, submitted), (Ok(()), Ok(())), "{cell}");
        assert_eq!(fed.stats().rejected_degraded, 0, "{cell}");
        assert_eq!((plane.admitted, plane.completed, plane.failed), (1, 1, 0));
        assert_eq!(read(&fed, ShardId(0), &id), Some(Value::Int(2)), "{cell}");
    }
    assert_eq!(read(&fed, ShardId(1), &elsewhere), Some(Value::Int(3)));
}

#[test]
fn reject_degraded_refuses_work_for_degraded_shards_only() {
    check_router_row(RoutingPolicy::RejectDegraded);
}

#[test]
fn route_anyway_serves_degraded_shards_with_threatened_consistency() {
    check_router_row(RoutingPolicy::RouteAnyway);
}

#[test]
fn sticky_policy_follows_migrations_not_stale_pins() {
    let mut fed = federation(3, RoutingPolicy::RouteAnyway);
    let id = id_on(fed.map(), ShardId(2), "st");
    fed.create(&id).unwrap();
    write(&mut fed, &id, 1).expect("routed to the original owner");

    // Shrinking to 2 shards migrates everything S2 owned; routing must
    // follow the migration, not the original placement.
    assert_eq!(fed.rebalance(2), Ok(1));
    let new_owner = fed.map().shard_of(&id);
    assert_ne!(new_owner, ShardId(2));
    write(&mut fed, &id, 5).expect("write lands on the new owner");
    assert_eq!(read(&fed, new_owner, &id), Some(Value::Int(5)));
    assert_eq!(read(&fed, ShardId(2), &id), None, "evicted from the source");
}

// ---------------------------------------------------------------------
// Cross-shard 2PC
// ---------------------------------------------------------------------

#[test]
fn xshard_commit_applies_atomically_on_every_participant() {
    let mut fed = federation(3, RoutingPolicy::RouteAnyway);
    let ring = RingRecorder::new(512);
    fed.telemetry().attach(Box::new(ring.clone()));
    let a = id_on(fed.map(), ShardId(0), "xc");
    let b = id_on(fed.map(), ShardId(1), "xc");
    fed.create(&a).unwrap();
    fed.create(&b).unwrap();

    let xtx = fed.xshard_begin();
    assert_eq!(
        fed.xshard_set_field(xtx, &a, "v", Value::Int(10)),
        Ok(ShardId(0))
    );
    assert_eq!(
        fed.xshard_set_field(xtx, &b, "v", Value::Int(20)),
        Ok(ShardId(1))
    );
    fed.xshard_prepare(xtx).expect("prepare everywhere");
    assert_eq!(fed.stats().xshard_prepared, 1);
    fed.xshard_commit(xtx).expect("commit everywhere");

    assert_eq!(read(&fed, ShardId(0), &a), Some(Value::Int(10)));
    assert_eq!(read(&fed, ShardId(1), &b), Some(Value::Int(20)));
    assert_eq!(fed.open_xshard_count(), 0);
    assert!(fed.shard(ShardId(0)).held_locks().is_empty());
    assert!(fed.shard(ShardId(1)).held_locks().is_empty());
    let stats = fed.stats();
    assert_eq!((stats.xshard_committed, stats.xshard_aborted), (1, 0));
    // Each shard committed the create, then the participant.
    for shard in (0..2).map(ShardId) {
        assert_eq!(fed.shard(shard).stats().tx.committed, 2, "{shard}");
    }

    let prepared = ring.records_of_kind("xshard_prepared");
    let resolved = ring.records_of_kind("xshard_resolved");
    assert_eq!(prepared.len(), 1);
    assert_eq!(resolved.len(), 1);
    assert!(prepared[0].seq < resolved[0].seq);
    assert_eq!(resolutions(&ring), [(true, false)]);
}

/// A cross-shard write the router refuses before anything is staged is
/// a routing refusal, not a 2PC abort: it counts in `rejected_degraded`
/// and leaves the cross-shard books and the bus's `xshard_resolved`
/// records as they were. A refusal after a participant has staged is a
/// real abort: its write is rolled back. `begun == committed + aborted
/// + open` holds throughout.
#[test]
fn a_routing_refusal_before_any_write_is_not_a_2pc_abort() {
    let mut fed = federation(2, RoutingPolicy::RejectDegraded);
    let ring = RingRecorder::new(512);
    fed.telemetry().attach(Box::new(ring.clone()));
    let healthy = id_on(fed.map(), ShardId(0), "rr");
    let cut = id_on(fed.map(), ShardId(1), "rr");
    fed.create(&healthy).unwrap();
    fed.create(&cut).unwrap();
    fed.shard_mut(ShardId(1))
        .partition(&[nodes![0, 1], nodes![2]])
        .expect("split");
    let balanced = |fed: &FederatedCluster| {
        let stats = fed.stats();
        stats.xshard_begun
            == stats.xshard_committed + stats.xshard_aborted + fed.open_xshard_count() as u64
    };

    let xtx = fed.xshard_begin();
    let refused = fed.xshard_set_field(xtx, &cut, "v", Value::Int(1));
    assert!(
        matches!(refused, Err(Error::ModeRestriction(_))),
        "{refused:?}"
    );
    assert_eq!(fed.open_xshard_count(), 0, "nothing staged");
    assert!(balanced(&fed));
    fed.xshard_abort(xtx).expect("abort");
    let stats = *fed.stats();
    assert_eq!(stats.rejected_degraded, 1);
    assert_eq!((stats.xshard_begun, stats.xshard_aborted), (0, 0));
    assert!(ring.records_of_kind("xshard_resolved").is_empty());
    assert!(balanced(&fed));

    // Staged on the healthy shard first, then refused: one begun, one
    // aborted, the staged write rolled back.
    let xtx = fed.xshard_begin();
    fed.xshard_set_field(xtx, &healthy, "v", Value::Int(2))
        .expect("healthy shard stages");
    assert_eq!(fed.open_xshard_count(), 1);
    assert!(balanced(&fed));
    let refused = fed.xshard_set_field(xtx, &cut, "v", Value::Int(3));
    assert!(
        matches!(refused, Err(Error::ModeRestriction(_))),
        "{refused:?}"
    );
    fed.xshard_abort(xtx).expect("abort");
    let stats = *fed.stats();
    assert_eq!(stats.rejected_degraded, 2);
    assert_eq!((stats.xshard_begun, stats.xshard_aborted), (1, 1));
    assert_eq!(resolutions(&ring), [(false, false)]);
    assert_eq!(read(&fed, ShardId(0), &healthy), Some(Value::Int(0)));
    assert!(balanced(&fed));
}

#[test]
fn xshard_abort_rolls_back_every_participant() {
    let mut fed = federation(3, RoutingPolicy::RouteAnyway);
    let ring = RingRecorder::new(512);
    fed.telemetry().attach(Box::new(ring.clone()));
    let a = id_on(fed.map(), ShardId(0), "xa");
    let b = id_on(fed.map(), ShardId(2), "xa");
    fed.create(&a).unwrap();
    fed.create(&b).unwrap();

    let xtx = fed.xshard_begin();
    fed.xshard_set_field(xtx, &a, "v", Value::Int(1)).unwrap();
    fed.xshard_set_field(xtx, &b, "v", Value::Int(2)).unwrap();
    fed.xshard_abort(xtx).expect("abort");

    assert_eq!(read(&fed, ShardId(0), &a), Some(Value::Int(0)));
    assert_eq!(read(&fed, ShardId(2), &b), Some(Value::Int(0)));
    assert!(fed.shard(ShardId(0)).held_locks().is_empty());
    assert!(fed.shard(ShardId(2)).held_locks().is_empty());
    assert_eq!(fed.stats().xshard_aborted, 1);
    assert_eq!(fed.stats().xshard_presumed_aborted, 0);
    for shard in [ShardId(0), ShardId(2)] {
        assert_eq!(fed.shard(shard).stats().tx.rolled_back, 1, "{shard}");
    }
    assert_eq!(resolutions(&ring), [(false, false)]);
}

#[test]
fn participant_refusal_during_prepare_aborts_the_whole_transaction() {
    let mut fed = federation(3, RoutingPolicy::RouteAnyway);
    let ring = RingRecorder::new(512);
    fed.telemetry().attach(Box::new(ring.clone()));
    let a = id_on(fed.map(), ShardId(0), "xr");
    let b = id_on(fed.map(), ShardId(1), "xr");
    fed.create(&a).unwrap();
    fed.create(&b).unwrap();

    let xtx = fed.xshard_begin();
    fed.xshard_set_field(xtx, &a, "v", Value::Int(1)).unwrap();
    let staged_on = fed.xshard_set_field(xtx, &b, "v", Value::Int(2)).unwrap();
    // Crash the node carrying shard 1's participant transaction: its
    // prepare vote becomes a refusal, which must unwind shard 0 too.
    let node = fed.coordinator_node(staged_on).unwrap();
    fed.shard_mut(staged_on).crash(node).unwrap();
    assert!(fed.xshard_prepare(xtx).is_err(), "one no vote aborts");

    assert_eq!(read(&fed, ShardId(0), &a), Some(Value::Int(0)));
    assert!(fed.shard(ShardId(0)).held_locks().is_empty());
    assert_eq!(fed.open_xshard_count(), 0);
    let stats = fed.stats();
    assert_eq!((stats.xshard_prepared, stats.xshard_aborted), (0, 1));
    assert!(ring.records_of_kind("xshard_prepared").is_empty());
    assert_eq!(resolutions(&ring), [(false, false)]);
}

#[test]
fn coordinator_crash_presumes_abort_after_the_deadline() {
    let mut fed = FederatedCluster::builder(3, 3, app())
        .seed(7)
        .build()
        .unwrap();
    let ring = RingRecorder::new(512);
    fed.telemetry().attach(Box::new(ring.clone()));
    let a = id_on(fed.map(), ShardId(0), "cc");
    let b = id_on(fed.map(), ShardId(1), "cc");
    fed.create(&a).unwrap();
    fed.create(&b).unwrap();

    let xtx = fed.xshard_begin();
    fed.xshard_set_field(xtx, &a, "v", Value::Int(3)).unwrap();
    fed.xshard_set_field(xtx, &b, "v", Value::Int(4)).unwrap();
    fed.xshard_prepare(xtx).unwrap();
    fed.crash_coordinator(xtx)
        .expect("prepared tx goes in doubt");
    assert_eq!(fed.xshard_in_doubt_count(), 1);
    // Participants stay prepared — locks held, outcome unknowable.
    assert_eq!(fed.shard(ShardId(0)).held_locks().len(), 1);

    // Before the deadline nothing resolves…
    assert_eq!(fed.resolve_xshard_in_doubt(), 0);
    // …after it, presumed abort rolls back every participant.
    fed.clock().advance(XSHARD_TIMEOUT);
    assert_eq!(fed.resolve_xshard_in_doubt(), 1);
    assert_eq!(fed.xshard_in_doubt_count(), 0);
    assert_eq!(fed.open_xshard_count(), 0);
    assert_eq!(read(&fed, ShardId(0), &a), Some(Value::Int(0)));
    assert_eq!(read(&fed, ShardId(1), &b), Some(Value::Int(0)));
    assert!(fed.shard(ShardId(0)).held_locks().is_empty());
    assert!(fed.shard(ShardId(1)).held_locks().is_empty());
    assert_eq!(fed.stats().xshard_aborted, 1);
    assert_eq!(fed.stats().xshard_presumed_aborted, 1);
    // Counted once: routed, begun, prepared, aborted and presumed-aborted
    // are `FederationStats` fields, and the bus's registry holds only
    // what has no field there.
    let registry = fed.telemetry().metrics().snapshot().counters;
    assert_eq!(
        registry.keys().collect::<Vec<_>>(),
        ["federation.xshard.in_doubt"]
    );
    assert_eq!(resolutions(&ring), [(false, true)]);
}

/// The participant list is kept in shard order however it was staged —
/// the higher shard first here — as the `xshard_prepared` event shows,
/// whichever way the transaction then finishes.
#[test]
fn outcome_participants_come_out_in_shard_order() {
    let mut fed = federation(3, RoutingPolicy::RouteAnyway);
    let ring = RingRecorder::new(512);
    fed.telemetry().attach(Box::new(ring.clone()));
    let low = id_on(fed.map(), ShardId(0), "so");
    let high = id_on(fed.map(), ShardId(2), "so");
    fed.create(&low).unwrap();
    fed.create(&high).unwrap();
    let stage = |fed: &mut FederatedCluster| {
        let xtx = fed.xshard_begin();
        fed.xshard_set_field(xtx, &high, "v", Value::Int(1))
            .unwrap();
        fed.xshard_set_field(xtx, &low, "v", Value::Int(2)).unwrap();
        xtx
    };

    let committed = stage(&mut fed);
    fed.xshard_prepare(committed).unwrap();
    fed.xshard_commit(committed).unwrap();
    let aborted = stage(&mut fed);
    fed.xshard_prepare(aborted).unwrap();
    fed.xshard_abort(aborted).unwrap();
    let presumed = stage(&mut fed);
    fed.xshard_prepare(presumed).unwrap();
    fed.crash_coordinator(presumed).unwrap();
    fed.clock().advance(XSHARD_TIMEOUT);
    assert_eq!(fed.resolve_xshard_in_doubt(), 1);

    let prepared: Vec<TraceEvent> = ring
        .records_of_kind("xshard_prepared")
        .into_iter()
        .map(|r| r.event)
        .collect();
    let expected: Vec<TraceEvent> = [committed, aborted, presumed]
        .into_iter()
        .map(|xtx| TraceEvent::XShardPrepared {
            xtx,
            shards: vec![0, 2],
        })
        .collect();
    assert_eq!(prepared, expected);
    assert_eq!(
        resolutions(&ring),
        [(true, false), (false, false), (false, true)]
    );
    assert_eq!(read(&fed, ShardId(2), &high), Some(Value::Int(1)));
    assert_eq!(read(&fed, ShardId(0), &low), Some(Value::Int(2)));
}

// ---------------------------------------------------------------------
// Rebalancing
// ---------------------------------------------------------------------

/// Everything a refused rebalance must leave as it was: the map, the
/// federation's counters and, per shard, every node's committed ids
/// and journal and the threat store with its journal.
fn untouched(fed: &FederatedCluster) -> String {
    let mut state = format!("{:?} {:?}", fed.map(), fed.stats());
    for s in 0..fed.shard_count() {
        let shard = fed.shard(ShardId(s));
        for node in (0..shard.node_count()).map(NodeId) {
            let (ids, journal) = (shard.committed_ids_on(node), shard.journal_on(node));
            state += &format!(" {ids:?} {journal:?}");
        }
        state += &format!(" {:?}", shard.threats());
    }
    state
}

/// Runs `fed.rebalance(shards)`, which must be refused naming
/// `blocker`, and checks that the refusal changed nothing: no state
/// (see [`untouched`]) and no `shard_migrated` on the federation bus.
fn assert_refused(fed: &mut FederatedCluster, shards: u32, blocker: &str) {
    let before = untouched(fed);
    let ring = RingRecorder::new(64);
    fed.telemetry().attach(Box::new(ring.clone()));
    match fed.rebalance(shards) {
        Err(Error::ModeRestriction(why)) => assert!(why.contains(blocker), "{why}"),
        other => panic!("rebalance to {shards} was not refused: {other:?}"),
    }
    assert_eq!(untouched(fed), before, "a refused rebalance changed state");
    assert!(ring.records_of_kind("shard_migrated").is_empty());
}

/// Every committed object on every node lives on the shard the map
/// names, and nowhere else.
fn assert_one_owner_each(fed: &FederatedCluster) {
    for s in 0..fed.shard_count() {
        let shard = fed.shard(ShardId(s));
        for node in shard.live_nodes() {
            for id in shard.committed_ids_on(node) {
                assert_eq!(fed.map().shard_of(&id), ShardId(s), "{id} on {node}");
            }
        }
    }
}

#[test]
fn rebalance_moves_committed_state_over_the_wal_path() {
    let mut fed = federation(4, RoutingPolicy::RouteAnyway);
    let ring = RingRecorder::new(1024);
    fed.telemetry().attach(Box::new(ring.clone()));
    let mut values = std::collections::BTreeMap::new();
    for i in 0..20 {
        let id = ObjectId::new("Item", format!("rb{i}"));
        fed.create(&id).unwrap();
        write(&mut fed, &id, 100 + i).unwrap();
        values.insert(id, 100 + i);
    }

    let on_s3 = values
        .keys()
        .filter(|id| fed.map().shard_of(id) == ShardId(3));
    let expected_moves = on_s3.count() as u64;
    assert!(expected_moves > 0, "S3's keys must move");
    assert_eq!(fed.rebalance(3), Ok(expected_moves));
    assert_eq!(fed.map().shards(), 3);
    assert_eq!(fed.stats().migrated, expected_moves);
    assert_eq!(
        ring.records_of_kind("shard_migrated").len(),
        expected_moves as usize
    );

    // Every object survives with its committed value, at its new owner.
    for (id, v) in &values {
        let owner = fed.map().shard_of(id);
        assert!(owner.0 < 3);
        assert_eq!(read(&fed, owner, id), Some(Value::Int(*v)), "{id}");
        write(&mut fed, id, v + 1).expect("writable after migration");
    }
}

/// A transaction holding a moving object's lock refuses the whole
/// rebalance: migrating pessimistically locked state would tear an open
/// transaction in half. Once the lock clears, the same call moves the
/// object with its committed value. (The two-call rebalance deferred
/// the step and still flipped the map, so the object was left on a
/// shard nothing routed to.)
#[test]
fn rebalance_is_refused_while_a_moving_object_is_locked() {
    let mut fed = federation(3, RoutingPolicy::RouteAnyway);
    let id = id_on(fed.map(), ShardId(2), "df");
    fed.create(&id).unwrap();
    write(&mut fed, &id, 7).unwrap();

    let node = fed.coordinator_node(ShardId(2)).unwrap();
    let holder = {
        let mut session = fed.shard_mut(ShardId(2)).session(node);
        session.set_field(&id, "v", Value::Int(8)).unwrap();
        session.prepare().unwrap()
    };
    assert_refused(&mut fed, 2, &format!("{id} is locked by {holder} on S2"));
    assert_eq!(fed.map().shards(), 3);

    fed.shard_mut(ShardId(2)).rollback(holder).unwrap();
    assert_eq!(fed.rebalance(2), Ok(1));
    let owner = fed.map().shard_of(&id);
    assert_ne!(owner, ShardId(2));
    assert_eq!(read(&fed, owner, &id), Some(Value::Int(7)));
    assert_one_owner_each(&fed);
}

/// `Counter`s under `n <= max`, tradeable down to `uncheckable`, on
/// every shard: a degraded write that possibly violates it is accepted
/// and its threat stored.
fn bounded_federation(shards: u32) -> FederatedCluster {
    let app = AppDescriptor::new("bounded").with_class(
        ClassDescriptor::new("Counter")
            .with_field("n", Value::Int(0))
            .with_field("max", Value::Int(100)),
    );
    FederatedCluster::builder(shards, 3, app)
        .seed(7)
        .configure(|b| {
            b.constraint(
                RegisteredConstraint::new(
                    ConstraintMeta::new("Bounded").tradeable(SatisfactionDegree::Uncheckable),
                    Arc::new(ExprConstraint::parse("self.n <= self.max").unwrap()),
                )
                .context_class("Counter")
                .affects("Counter", "setN", ContextPreparation::CalledObject),
            )
        })
        .build()
        .unwrap()
}

/// A partitioned source shard refuses the rebalance, and so does the
/// same shard once healed but not yet reconciled: its threat must not
/// be left behind. The two-call rebalance migrated the object out of
/// the partitioned shard; after heal and reconcile, S0's audit found
/// `(Bounded, Counter#…) on n0` unexplained, with both threat stores
/// empty. After a repairing reconciliation the rebalance goes through
/// and the promise holds on every shard.
#[test]
fn a_partitioned_source_is_refused_until_reconciled() {
    let mut fed = bounded_federation(2);
    let id = (0..1000)
        .map(|i| ObjectId::new("Counter", format!("c{i}")))
        .find(|id| fed.map().shard_of(id) == ShardId(1))
        .unwrap();
    fed.create(&id).unwrap();
    let s1 = fed.shard_mut(ShardId(1));
    s1.partition(&[nodes![0], nodes![1, 2]]).unwrap();
    s1.run_tx(NodeId(0), |c, tx| {
        c.set_field(NodeId(0), tx, &id, "n", Value::Int(160))
    })
    .unwrap();
    assert_eq!(fed.shard(ShardId(1)).threats().len(), 1);
    assert_refused(&mut fed, 1, "S1 is Degraded");

    fed.shard_mut(ShardId(1)).heal();
    assert_refused(&mut fed, 1, "S1 is Reconciliation");
    // Reconciled but deferred: the shard is healthy, its threat stands.
    fed.shard_mut(ShardId(1))
        .reconcile(&mut HighestVersionWins, &mut DeferAll);
    assert_eq!(fed.shard(ShardId(1)).mode(), SystemMode::Healthy);
    assert_refused(&mut fed, 1, "S1 awaits reconciliation");

    let mut repair = |violation: &ViolationReport, ops: &mut ReconOps<'_>| {
        let id = violation.identity.context_object.as_ref().unwrap();
        ops.read(id, "max")
            .and_then(|max| ops.write(id, "n", max))
            .is_ok()
    };
    fed.shard_mut(ShardId(1))
        .reconcile(&mut HighestVersionWins, &mut repair);
    assert_eq!(fed.rebalance(1), Ok(1));
    for s in 0..2 {
        promise::assert_kept(fed.shard(ShardId(s)));
    }
    let n = fed
        .shard(ShardId(0))
        .entity_on(NodeId(0), &id)
        .unwrap()
        .field("n")
        .clone();
    assert_eq!(n, Value::Int(100));
    assert_one_owner_each(&fed);
}

/// A crashed node on the source shard refuses the whole rebalance: the
/// map stays, so the routed write still lands on the object's one
/// owner and a second create of the id is refused. The two-call
/// rebalance deferred the step but flipped the map: the routed write
/// failed with `ObjectNotFound` and a second create committed the id
/// on the other shard too.
#[test]
fn a_crashed_node_refuses_the_whole_rebalance() {
    let mut fed = federation(2, RoutingPolicy::RouteAnyway);
    let id = id_on(fed.map(), ShardId(1), "cr");
    fed.create(&id).unwrap();
    write(&mut fed, &id, 7).unwrap();
    fed.shard_mut(ShardId(1)).crash(NodeId(2)).unwrap();

    assert_refused(&mut fed, 1, "S1 is Degraded");
    write(&mut fed, &id, 8).expect("the routed write still lands");
    assert_eq!(read(&fed, ShardId(1), &id), Some(Value::Int(8)));
    assert_eq!(fed.create(&id), Err(Error::ObjectExists(id.clone())));
    assert_one_owner_each(&fed);
}

/// Across shrinks and grows with objects created between them, every
/// committed object lives only on the shard the map names and keeps
/// its value. With the two-call rebalance, an object created between
/// `plan_rebalance_to` and `rebalance(plan)` stayed on a shard nothing
/// routed to any more, and a second create committed it elsewhere.
#[test]
fn shrinks_and_grows_keep_every_object_on_the_shard_the_map_names() {
    let mut fed = federation(4, RoutingPolicy::RouteAnyway);
    let ring = RingRecorder::new(1024);
    fed.telemetry().attach(Box::new(ring.clone()));
    let mut values = std::collections::BTreeMap::new();
    for (round, shards) in [3, 1, 4, 2, 3, 4].into_iter().enumerate() {
        for i in 0..6 {
            let id = ObjectId::new("Item", format!("sg{round}-{i}"));
            fed.create(&id).unwrap();
            write(&mut fed, &id, (10 * round + i) as i64).unwrap();
            values.insert(id, (10 * round + i) as i64);
        }
        fed.rebalance(shards)
            .expect("a quiescent federation rebalances");
        assert_eq!(fed.map().shards(), shards);
        assert_one_owner_each(&fed);
        for (id, v) in &values {
            let owner = fed.map().shard_of(id);
            assert_eq!(read(&fed, owner, id), Some(Value::Int(*v)), "{id}");
            assert_eq!(fed.create(id), Err(Error::ObjectExists(id.clone())));
        }
    }
    let migrated = ring.records_of_kind("shard_migrated").len() as u64;
    assert_eq!(fed.stats().migrated, migrated);
    assert!(migrated > 0);
}

/// A migration is journalled on both sides: a source node that crashes
/// and restarts does not bring the object back, a target node keeps
/// its value, and the new owner takes routed writes.
#[test]
fn a_migration_survives_restarts_on_both_sides() {
    let mut fed = federation(2, RoutingPolicy::RouteAnyway);
    let id = id_on(fed.map(), ShardId(1), "mv");
    fed.create(&id).unwrap();
    write(&mut fed, &id, 7).unwrap();
    assert_eq!(fed.rebalance(1), Ok(1));

    for (shard, held) in [(ShardId(1), None), (ShardId(0), Some(Value::Int(7)))] {
        for node in (0..3).map(NodeId) {
            let cluster = fed.shard_mut(shard);
            cluster.crash(node).unwrap();
            cluster.restart(node).unwrap();
            let after = cluster.entity_on(node, &id).map(|e| e.field("v").clone());
            assert_eq!(after, held, "{id} on {shard}/{node} after a restart");
        }
    }
    write(&mut fed, &id, 9).expect("the new owner takes routed writes");
    assert_eq!(read(&fed, ShardId(0), &id), Some(Value::Int(9)));
    assert_one_owner_each(&fed);
}
