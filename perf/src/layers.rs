//! Layer probes: one public entry point of one layer, driven alone.
//!
//! A probe answers "what does this layer cost by itself", so that a
//! change to a layer can be predicted to move (or not move) an
//! end-to-end metric before the workloads are run. Each probe runs a
//! fixed number of iterations in [`BATCHES`] batches and reports the
//! fastest batch in ns per iteration (disturbance from the host only
//! ever slows a batch).

use crate::app::{account_ids, bank_app, create_with, expr, floor_constraint, FloorKind};
use crate::harness::nanos_since;
use crate::report::Value;
use crate::workloads::validate;
use dedisys_constraints::{
    Constraint, ConstraintEngine, ConstraintRepository, LookupKind, LookupMode, MapAccess,
    ValidationContext,
};
use dedisys_core::{ClusterBuilder, RequestPlane};
use dedisys_federation::ShardMap;
use dedisys_gms::NodeWeights;
use dedisys_net::{SimClock, Topology};
use dedisys_object::{EntityContainer, EntityState};
use dedisys_replication::{ProtocolKind, ReplicationManager};
use dedisys_store::{Persistence, StoreCosts};
use dedisys_telemetry::{JsonlExporter, Telemetry, TraceEvent, TriggerKind};
use dedisys_tx::{LockTable, TransactionManager};
use dedisys_types::{
    MethodSignature, NodeId, ObjectId, PriorityClass, SimDuration, SimTime, Value as V,
};
use std::hint::black_box;
use std::time::Instant;

/// Batches per probe; the reported value is the fastest.
pub const BATCHES: usize = 7;

/// The smallest result of [`BATCHES`] calls of `batch`, each returning
/// ns per iteration.
fn fastest_batch(mut batch: impl FnMut() -> f64) -> f64 {
    (0..BATCHES).map(|_| batch()).fold(f64::INFINITY, f64::min)
}

/// ns per iteration of `f`: the fastest of [`BATCHES`] batches of
/// `iters` calls each. `f` receives a running iteration number.
fn per_iter(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let mut i = 0;
    fastest_batch(|| {
        let started = Instant::now();
        for _ in 0..iters {
            f(i);
            i += 1;
        }
        nanos_since(started) as f64 / iters as f64
    })
}

/// The eight `validate_heavy` expression shapes, with the object they
/// are evaluated on held in a [`MapAccess`].
struct ExprBench {
    world: MapAccess,
    booking: ObjectId,
}

impl ExprBench {
    fn new() -> Self {
        let booking = ObjectId::new("Booking", "b");
        let flight = ObjectId::new("Flight", "f");
        let mut world = MapAccess::new();
        world.put_field(&flight, "seats", V::Int(40));
        world.put_field(&flight, "sold", V::Int(12));
        world.put_field(&booking, "flight", V::Ref(flight));
        world.put_field(&booking, "count", V::Int(7));
        world.put_field(&booking, "limit", V::Int(30));
        world.put_field(&booking, "paid", V::Int(700));
        Self { world, booking }
    }

    /// ns to evaluate one expression under `engine`, averaged over the
    /// eight shapes.
    fn eval_ns(&mut self, engine: ConstraintEngine) -> f64 {
        let constraints = validate::EXPRESSIONS.map(expr);
        let per_round = per_iter(4_000, |_| {
            for c in &constraints {
                let mut ctx = ValidationContext::for_method(
                    self.booking.clone(),
                    "setCount".into(),
                    vec![V::Int(7)],
                    &mut self.world,
                );
                ctx.store_pre("count", V::Int(3));
                black_box(c.validate_with(engine, &mut ctx).expect("shapes evaluate"));
            }
        });
        per_round / constraints.len() as f64
    }
}

fn probe_shard_map() -> f64 {
    let map = ShardMap::new(4, 32, 0).expect("valid ring");
    let ids = account_ids(1_024);
    per_iter(200_000, |i| {
        black_box(map.shard_of(&ids[i as usize % ids.len()]));
    })
}

fn probe_plane_noop() -> f64 {
    // An empty request takes no virtual time, so nothing refills the
    // token bucket: give it room for every request of the probe.
    let mut cluster = ClusterBuilder::new(3, bank_app())
        .configure(|c| c.plane.burst = 1_000_000_000)
        .build()
        .expect("cluster builds");
    let mut plane = RequestPlane::new();
    per_iter(20_000, |_| {
        plane
            .submit(&mut cluster, NodeId(0), PriorityClass::Normal, |session| {
                session.commit()
            })
            .expect("admitted");
        while plane.step(&mut cluster) {}
    })
}

fn probe_repository_lookup() -> f64 {
    let mut repository = ConstraintRepository::new(LookupMode::Cached);
    for c in validate::constraints() {
        repository.register(c).expect("distinct names");
    }
    let sig = MethodSignature::new("Booking", "setCount");
    per_iter(100_000, |i| {
        let kind = match i % 3 {
            0 => LookupKind::Precondition,
            1 => LookupKind::Postcondition,
            _ => LookupKind::Invariant,
        };
        black_box(repository.lookup(&sig, kind));
    })
}

fn probe_parse_compile() -> f64 {
    let per_round = per_iter(1_000, |_| {
        for source in validate::EXPRESSIONS {
            black_box(expr(source).compiled());
        }
    });
    per_round / validate::EXPRESSIONS.len() as f64
}

fn probe_locks() -> f64 {
    let mut locks = LockTable::new();
    let mut txs = TransactionManager::new();
    let ids = account_ids(1_024);
    per_iter(100_000, |i| {
        let tx = txs.begin(NodeId(0));
        locks
            .acquire(tx, &ids[i as usize % ids.len()])
            .expect("uncontended");
        black_box(locks.release_all(tx));
        txs.commit(tx).expect("active");
    })
}

fn probe_txmgr() -> f64 {
    let mut txs = TransactionManager::new();
    per_iter(200_000, |_| {
        let tx = txs.begin(NodeId(0));
        txs.commit(tx).expect("active");
    })
}

fn sample_entity(i: usize) -> EntityState {
    let mut e = EntityState::for_class(&bank_app(), &ObjectId::new("Account", format!("a{i:06}")))
        .expect("class deployed");
    e.set_field("balance", V::Int(123_456), SimTime::ZERO);
    e
}

fn probe_container() -> f64 {
    let mut container = EntityContainer::new(&bank_app());
    let mut txs = TransactionManager::new();
    let ids = account_ids(1_024);
    let tx = txs.begin(NodeId(0));
    for i in 0..ids.len() {
        container.create(tx, sample_entity(i)).expect("fresh id");
    }
    container.commit(tx);
    per_iter(20_000, |i| {
        let tx = txs.begin(NodeId(0));
        container
            .write_field(
                tx,
                &ids[i as usize % ids.len()],
                "balance",
                V::Int(i as i64),
                SimTime::ZERO,
            )
            .expect("exists");
        black_box(container.commit(tx));
    })
}

fn probe_json() -> (f64, f64) {
    let entity = sample_entity(1);
    let json = entity.to_json().expect("serializes");
    let to = per_iter(50_000, |_| {
        black_box(entity.to_json().expect("serializes"));
    });
    let from = per_iter(20_000, |_| {
        black_box(EntityState::from_json(&json).expect("parses"));
    });
    (to, from)
}

fn probe_persistence() -> (f64, f64, f64) {
    const KEYS: usize = 1_024;
    let record = sample_entity(1).to_json().expect("serializes");
    let keys: Vec<String> = (0..KEYS).map(|i| format!("Account#a{i:06}")).collect();
    let mut store = Persistence::new(SimClock::new(), StoreCosts::default());
    let put = per_iter(20_000, |i| {
        store.put("entities", &keys[i as usize % KEYS], record.clone());
    });
    let get = per_iter(100_000, |i| {
        black_box(store.get("entities", &keys[i as usize % KEYS]));
    });
    let replay = fastest_batch(|| {
        let started = Instant::now();
        let report = store.recover_from_wal();
        nanos_since(started) as f64 / report.replayed.max(1) as f64
    });
    (put, get, replay)
}

fn probe_restart() -> f64 {
    const OBJECTS: usize = 2_000;
    let mut cluster = ClusterBuilder::new(3, bank_app())
        .build()
        .expect("cluster builds");
    for id in account_ids(OBJECTS).iter() {
        create_with(&mut cluster, id, &[]).expect("fresh id");
    }
    let entries = cluster.journal_len_on(NodeId(2)).max(1) as f64;
    fastest_batch(|| {
        cluster.crash(NodeId(2)).expect("node was up");
        let started = Instant::now();
        cluster.restart(NodeId(2)).expect("node was down");
        nanos_since(started) as f64 / entries
    })
}

fn probe_propagate() -> f64 {
    const OBJECTS: usize = 1_024;
    let app = bank_app();
    let topology = Topology::fully_connected(3);
    let mut containers: Vec<EntityContainer> = (0..3).map(|_| EntityContainer::new(&app)).collect();
    let mut replication =
        ReplicationManager::new(ProtocolKind::PrimaryPerPartition, NodeWeights::uniform(3));
    let ids = account_ids(OBJECTS);
    let mut txs = TransactionManager::new();
    let tx = txs.begin(NodeId(0));
    for (i, id) in ids.iter().enumerate() {
        containers[0]
            .create(tx, sample_entity(i))
            .expect("fresh id");
        replication
            .register_object(id.clone(), (0..3).map(NodeId), NodeId(0))
            .expect("valid placement");
    }
    containers[0].commit(tx);
    per_iter(20_000, |i| {
        black_box(replication.propagate_update(
            &ids[i as usize % OBJECTS],
            NodeId(0),
            &topology,
            &mut containers,
            SimTime::ZERO,
        ));
    })
}

fn probe_telemetry() -> (f64, f64, f64, f64) {
    let event = |i: u64| TraceEvent::TriggerPoint {
        trigger: TriggerKind::Invariant,
        signature: "Account::setBalance".to_owned(),
        matches: i as u32,
    };
    let disabled = Telemetry::new(SimClock::new());
    let emit_disabled = per_iter(500_000, |i| disabled.emit(|| event(i)));
    assert_eq!(disabled.events_emitted(), 0, "no sink, no events");
    let exporting = Telemetry::new(SimClock::new());
    exporting.attach(Box::new(JsonlExporter::new(Box::new(std::io::sink()))));
    let emit_jsonl = per_iter(50_000, |i| exporting.emit(|| event(i)));
    let metrics = disabled.metrics();
    let incr = per_iter(500_000, |_| metrics.incr("probe.counter"));
    let observe = per_iter(500_000, |i| {
        metrics.observe("probe.histogram", SimDuration::from_nanos(i));
    });
    black_box(metrics.snapshot());
    (emit_disabled, emit_jsonl, incr, observe)
}

fn probe_detector() -> f64 {
    let mut cluster = ClusterBuilder::new(3, bank_app())
        .constraint(floor_constraint(FloorKind::IntraObject))
        .configure(|c| c.membership.detector_enabled = true)
        .build()
        .expect("cluster builds");
    per_iter(200, |_| {
        black_box(cluster.run_detector_for(SimDuration::from_secs(1)));
    })
}

/// Runs every probe. About three seconds.
pub fn run() -> Vec<Value> {
    let ns = |name, value| Value::new(name, value, "ns");
    let mut bench = ExprBench::new();
    let (to_json, from_json) = probe_json();
    let (put, get, replay) = probe_persistence();
    let (emit_disabled, emit_jsonl, incr, observe) = probe_telemetry();
    vec![
        ns("shard_map.shard_of_ns", probe_shard_map()),
        ns("plane.noop_request_ns", probe_plane_noop()),
        ns("repository.lookup_ns", probe_repository_lookup()),
        ns("expr.parse_compile_ns", probe_parse_compile()),
        ns(
            "expr.eval_interpreted_ns",
            bench.eval_ns(ConstraintEngine::Interpreted),
        ),
        ns(
            "expr.eval_compiled_ns",
            bench.eval_ns(ConstraintEngine::Compiled),
        ),
        ns("locks.acquire_release_ns", probe_locks()),
        ns("txmgr.begin_commit_ns", probe_txmgr()),
        ns("container.write_commit_ns", probe_container()),
        ns("entity.to_json_ns", to_json),
        ns("entity.from_json_ns", from_json),
        ns("persistence.put_ns", put),
        ns("persistence.get_ns", get),
        ns("wal.replay_ns_per_entry", replay),
        ns("cluster.restart_ns_per_entry", probe_restart()),
        ns("replication.propagate_ns", probe_propagate()),
        ns("telemetry.emit_disabled_ns", emit_disabled),
        ns("telemetry.emit_jsonl_ns", emit_jsonl),
        ns("metrics.incr_ns", incr),
        ns("metrics.observe_ns", observe),
        ns("gms.detector_ns_per_virtual_s", probe_detector()),
    ]
}
