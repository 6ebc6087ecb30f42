//! Runtime-slice attribution (Fig. 2.3 of the dissertation) and the
//! cost-model calibration.
//!
//! The paper attributes validation overhead to slices by running the
//! same calls with successive layers switched off. Here the same
//! seeded write stream runs on eight configurations, each adding one
//! layer to the previous one; a *rung* is the ns/op a configuration
//! adds. Every configuration is run [`REPETITIONS`] times, interleaved
//! with the others so drift in machine speed hits them alike, and its
//! cost is the fastest chunk seen in any repetition — disturbance from
//! the host only ever slows a chunk. The median and quartiles of the
//! per-repetition paired differences are printed next to each rung as
//! its error bar. A rung can come out negative; it is reported as
//! measured.
//!
//! The calibration re-runs the stream with the engine, the verdict
//! cache or the topology changed and puts the wall-clock ratio next to
//! the ratio of virtual time the `CostModel` charges for the same
//! work, so drift between the model and the code is visible.

use crate::app::{
    account_ids, bank_app, bank_federation, create_with, expr, floor_constraint, FloorKind,
};
use crate::harness::nanos_since;
use crate::harness::rng::SplitMix64;
use crate::harness::stats::quartiles;
use crate::report::Value;
use dedisys_constraints::{
    ConstraintEngine, ConstraintMeta, ContextPreparation, RegisteredConstraint,
};
use dedisys_core::{Cluster, ClusterBuilder, RequestPlane};
use dedisys_federation::{FederatedCluster, ShardId};
use dedisys_object::{AppDescriptor, ClassDescriptor};
use dedisys_telemetry::JsonlExporter;
use dedisys_types::{NodeId, ObjectId, PriorityClass, Result, Value as V};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Objects the stream writes to.
const OBJECTS: usize = 500;
/// Untimed writes before the timed ones.
const WARMUP: usize = 300;
/// Timed writes per run of a configuration, in [`CHUNKS`] chunks; the
/// run's cost is its fastest chunk.
const WRITES: usize = 6_000;
const CHUNKS: usize = 10;
/// Interleaved repetitions of every configuration.
pub const REPETITIONS: usize = 5;

/// One configuration's measurement: wall and virtual time per write.
#[derive(Debug, Clone, Copy)]
struct PerOp {
    wall_ns: f64,
    virt_ns: f64,
}

/// The accounts the stream writes to, shared with request closures.
type Ids = Rc<[ObjectId]>;

/// A system the write stream can be applied to. Built a few dozen
/// times per run and never stored in bulk, so the size of the variants
/// does not matter.
#[allow(clippy::large_enum_variant)]
enum System {
    /// Sessions opened directly on node 0 of a cluster.
    Direct(Cluster),
    /// The same through a request plane.
    Plane(Cluster, RequestPlane),
    /// The same through a one-shard federation.
    Federation(FederatedCluster),
}

impl System {
    fn write(&mut self, ids: &Ids, k: usize, balance: i64) -> Result<()> {
        match self {
            System::Direct(cluster) => {
                let mut session = cluster.session(NodeId(0));
                session.set_field(&ids[k], "balance", V::Int(balance))?;
                session.commit()
            }
            System::Plane(cluster, plane) => {
                let ids = ids.clone();
                plane.submit(
                    cluster,
                    NodeId(0),
                    PriorityClass::Normal,
                    move |mut session| {
                        session.set_field(&ids[k], "balance", V::Int(balance))?;
                        session.commit()
                    },
                )?;
                while plane.step(cluster) {}
                Ok(())
            }
            System::Federation(fed) => {
                let closure_ids = ids.clone();
                fed.submit(&ids[k], PriorityClass::Normal, move |mut session| {
                    session.set_field(&closure_ids[k], "balance", V::Int(balance))?;
                    session.commit()
                })?;
                while fed.step() {}
                Ok(())
            }
        }
    }

    fn virt_ns(&self) -> u64 {
        match self {
            System::Direct(cluster) | System::Plane(cluster, _) => cluster.now().as_nanos(),
            System::Federation(fed) => fed.now().as_nanos(),
        }
    }
}

/// Populates `cluster` with the stream's accounts.
fn populated(mut cluster: Cluster, ids: &Ids) -> Cluster {
    for id in ids.iter() {
        create_with(&mut cluster, id, &[]).expect("fresh id");
    }
    cluster
}

/// Builds `builder` and populates the cluster.
fn bare(builder: ClusterBuilder, ids: &Ids) -> Cluster {
    populated(builder.build().expect("cluster builds"), ids)
}

/// A `Floor` look-alike that no method of the stream triggers: the
/// repository is searched on every call and matches nothing.
fn unmatched_constraint() -> RegisteredConstraint {
    RegisteredConstraint::new(
        ConstraintMeta::new("Unmatched").intra_object(),
        Arc::new(expr("self.balance >= self.floor")),
    )
    .context_class("Account")
    .affects("Account", "setFloor", ContextPreparation::CalledObject)
}

fn full_cluster(nodes: u32, ids: &Ids) -> Cluster {
    populated(
        ClusterBuilder::new(nodes, bank_app())
            .constraint(floor_constraint(FloorKind::IntraObject))
            .build()
            .expect("cluster builds"),
        ids,
    )
}

fn one_shard_federation(ids: &Ids, export: bool) -> FederatedCluster {
    let (fed, _) = bank_federation(1, 3, ids.len()).expect("federation builds");
    if export {
        let sink = || Box::new(JsonlExporter::new(Box::new(std::io::sink())));
        fed.telemetry().attach(sink());
        fed.shard(ShardId(0)).telemetry().attach(sink());
    }
    fed
}

/// Applies the seeded stream to `system` and returns its cost per write.
fn measure(mut system: System, ids: &Ids, seed: u64) -> PerOp {
    let mut rng = SplitMix64::new(seed);
    let draw = |rng: &mut SplitMix64| {
        (
            rng.below(OBJECTS as u64) as usize,
            rng.between(0, 1_000_000),
        )
    };
    for _ in 0..WARMUP {
        let (k, balance) = draw(&mut rng);
        system.write(ids, k, balance).expect("legal write");
    }
    let virt_before = system.virt_ns();
    let mut chunk_ns = Vec::with_capacity(CHUNKS);
    for _ in 0..CHUNKS {
        let started = Instant::now();
        for _ in 0..WRITES / CHUNKS {
            let (k, balance) = draw(&mut rng);
            system.write(ids, k, balance).expect("legal write");
        }
        chunk_ns.push(nanos_since(started) as f64 / (WRITES / CHUNKS) as f64);
    }
    PerOp {
        wall_ns: chunk_ns.iter().copied().fold(f64::INFINITY, f64::min),
        virt_ns: (system.virt_ns() - virt_before) as f64 / WRITES as f64,
    }
}

/// `Account { balance, group }` and `Group { cap }`: the calibration
/// stream for engines. The invariant's context object is the account's
/// group, reached by context preparation and never written, so its
/// verdict is cacheable — a constraint on the written object itself
/// never is.
fn grouped_app() -> AppDescriptor {
    AppDescriptor::new("grouped")
        .with_class(
            ClassDescriptor::new("Account")
                .with_field("balance", V::Int(0))
                .with_field("group", V::Null),
        )
        .with_class(ClassDescriptor::new("Group").with_field("cap", V::Int(0)))
}

fn grouped_cluster(engine: ConstraintEngine, verdict_cache: bool, ids: &Ids) -> Cluster {
    let group_cap = RegisteredConstraint::new(
        ConstraintMeta::new("GroupCap").intra_object(),
        Arc::new(expr("self.cap >= 0 and self.cap <= 1000000")),
    )
    .context_class("Group")
    .affects(
        "Account",
        "setBalance",
        ContextPreparation::ReferenceField("group".into()),
    );
    let mut cluster = ClusterBuilder::new(3, grouped_app())
        .constraint(group_cap)
        .configure(|c| {
            c.validation.engine = engine;
            c.validation.verdict_cache = verdict_cache;
        })
        .build()
        .expect("cluster builds");
    let groups: Vec<ObjectId> = (0..10)
        .map(|g| ObjectId::new("Group", format!("g{g}")))
        .collect();
    for group in &groups {
        create_with(&mut cluster, group, &[("cap", V::Int(1_000))]).expect("fresh id");
    }
    for (i, id) in ids.iter().enumerate() {
        create_with(
            &mut cluster,
            id,
            &[("group", V::Ref(groups[i % groups.len()].clone()))],
        )
        .expect("fresh id");
    }
    cluster
}

/// The 3-node stream with a tradeable constraint, optionally with node
/// 2 partitioned away (every check then becomes a stored threat).
fn tradeable_cluster(degraded: bool, ids: &Ids) -> Cluster {
    let mut cluster = populated(
        ClusterBuilder::new(3, bank_app())
            .constraint(floor_constraint(FloorKind::Tradeable))
            .build()
            .expect("cluster builds"),
        ids,
    );
    if degraded {
        cluster
            .partition(&[vec![NodeId(0), NodeId(1)], vec![NodeId(2)]])
            .expect("valid groups");
    }
    cluster
}

/// A configuration of the stack the stream is run on.
type Configuration = fn(&Ids) -> System;

/// The eight rungs, each one layer more than the one before, with the
/// metric the rung is reported as; then the calibration variants.
const RUNGS: [(&str, Configuration); 8] = [
    ("slice.r1_base_ns", |ids| {
        System::Direct(bare(
            ClusterBuilder::new(3, bank_app()).without_dedisys(),
            ids,
        ))
    }),
    ("slice.ccm_intercept_ns", |ids| {
        let builder = ClusterBuilder::new(3, bank_app())
            .ccm_only()
            .constraint(unmatched_constraint());
        System::Direct(bare(builder, ids))
    }),
    ("slice.validation_ns", |ids| {
        let builder = ClusterBuilder::new(3, bank_app())
            .ccm_only()
            .constraint(floor_constraint(FloorKind::IntraObject));
        System::Direct(bare(builder, ids))
    }),
    ("slice.replication_1n_ns", |ids| {
        System::Direct(full_cluster(1, ids))
    }),
    ("slice.replication_3n_ns", |ids| {
        System::Direct(full_cluster(3, ids))
    }),
    ("slice.plane_ns", |ids| {
        System::Plane(full_cluster(3, ids), RequestPlane::new())
    }),
    ("slice.federation_ns", |ids| {
        System::Federation(one_shard_federation(ids, false))
    }),
    ("slice.telemetry_jsonl_ns", |ids| {
        System::Federation(one_shard_federation(ids, true))
    }),
];
const NODES_1: usize = 3;
const NODES_3: usize = 4;

const CALIBRATIONS: [Configuration; 5] = [
    |ids| System::Direct(grouped_cluster(ConstraintEngine::Interpreted, false, ids)),
    |ids| System::Direct(grouped_cluster(ConstraintEngine::Compiled, false, ids)),
    |ids| System::Direct(grouped_cluster(ConstraintEngine::Interpreted, true, ids)),
    |ids| System::Direct(tradeable_cluster(false, ids)),
    |ids| System::Direct(tradeable_cluster(true, ids)),
];
const INTERPRETED: usize = RUNGS.len();
const COMPILED: usize = RUNGS.len() + 1;
const CACHED: usize = RUNGS.len() + 2;
const HEALTHY: usize = RUNGS.len() + 3;
const DEGRADED: usize = RUNGS.len() + 4;

/// Every repetition of every configuration: `samples[config][rep]`.
struct Samples(Vec<Vec<PerOp>>);

impl Samples {
    /// The configuration's cost: its fastest repetition, ns per write.
    fn cost(&self, config: usize) -> f64 {
        self.0[config]
            .iter()
            .map(|s| s.wall_ns)
            .fold(f64::INFINITY, f64::min)
    }

    /// `f(a, b)` for each repetition of configurations `a` and `b`.
    fn paired(&self, a: usize, b: usize, f: impl Fn(f64, f64) -> f64) -> Vec<f64> {
        self.0[a]
            .iter()
            .zip(&self.0[b])
            .map(|(x, y)| f(x.wall_ns, y.wall_ns))
            .collect()
    }

    /// Virtual time per write; deterministic, so any repetition will do.
    fn virt(&self, config: usize) -> f64 {
        self.0[config][0].virt_ns
    }
}

/// Reports `value` under `name` and prints the spread of the paired
/// per-repetition `samples` as its error bar.
fn report(
    name: &'static str,
    value: f64,
    paired: &[f64],
    unit: &'static str,
    out: &mut Vec<Value>,
) {
    let [q1, q2, q3] = quartiles(paired).expect("at least two repetitions");
    println!(
        "# {name}: {value:.3} {unit} from the fastest chunks; paired per repetition: \
         median {q2:.3}, quartiles {q1:.3} .. {q3:.3} over {} repetitions",
        paired.len()
    );
    out.push(Value::new(name, value, unit));
}

/// Runs the slice rungs and the calibration. About ten seconds.
pub fn run(seed: u64) -> Vec<Value> {
    let ids = account_ids(OBJECTS);
    let configurations: Vec<Configuration> = RUNGS
        .iter()
        .map(|(_, build)| *build)
        .chain(CALIBRATIONS)
        .collect();
    let mut samples = Samples(vec![Vec::with_capacity(REPETITIONS); configurations.len()]);
    for _ in 0..REPETITIONS {
        // Interleaved: one pass over all configurations per repetition.
        for (config, build) in configurations.iter().enumerate() {
            samples.0[config].push(measure(build(&ids), &ids, seed));
        }
    }

    let mut out = Vec::new();
    for (rung, (name, _)) in RUNGS.iter().enumerate() {
        // The first rung stands on nothing: its cost is its own.
        let (value, paired) = match rung.checked_sub(1) {
            None => (samples.cost(rung), samples.paired(rung, rung, |x, _| x)),
            Some(below) => (
                samples.cost(rung) - samples.cost(below),
                samples.paired(rung, below, |x, y| x - y),
            ),
        };
        report(name, value, &paired, "ns", &mut out);
    }
    // Ratios: wall clock next to what the cost model charges.
    for (wall, model, over, under) in [
        (
            "calib.interp_over_compiled.wall",
            "calib.interp_over_compiled.model",
            INTERPRETED,
            COMPILED,
        ),
        (
            "calib.interp_over_cached.wall",
            "calib.interp_over_cached.model",
            INTERPRETED,
            CACHED,
        ),
        (
            "calib.degraded_over_healthy.wall",
            "calib.degraded_over_healthy.model",
            DEGRADED,
            HEALTHY,
        ),
        (
            "calib.nodes3_over_nodes1.wall",
            "calib.nodes3_over_nodes1.model",
            NODES_3,
            NODES_1,
        ),
    ] {
        report(
            wall,
            samples.cost(over) / samples.cost(under),
            &samples.paired(over, under, |x, y| x / y),
            "ratio",
            &mut out,
        );
        out.push(Value::new(
            model,
            samples.virt(over) / samples.virt(under),
            "ratio",
        ));
    }
    out
}
