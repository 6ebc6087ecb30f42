//! `repro fig-compile` — validation cost of the interpreted expression
//! walker vs the compiled constraint programs vs the compiled programs
//! with the version-keyed verdict cache, with the verdict-transparency
//! contract checked on every run.
//!
//! One deterministic invariant-heavy workload (Chapter-2-style write
//! rounds interleaved with §3.3 full constraint sweeps, followed by a
//! Figure-5-6-style degraded-mode episode) is driven three times from
//! the same seed state, once per engine configuration. The table
//! reports the deterministic *virtual-time* cost of validation — the
//! quantity the `CostModel` charges per check (1000 µs interpreted,
//! 120 µs compiled, 20 µs per cache probe); the wall-clock cost is
//! `perf`'s `calib.interp_over_compiled.wall`. Verdicts must be
//! **transparent**: mode, cluster/CCM/replication/tx counters, threat
//! identities and every sweep's violating-object list are identical
//! across the three runs. The contracts also want each cheaper engine
//! strictly cheaper in virtual time, the cache to hit and to
//! invalidate, and the lowering events where they belong.
//!
//! With `--trace <path>` the three JSONL traces are written to
//! `<path>.interp`, `<path>.compiled` and `<path>.cached`. The traces
//! are *not* expected to match across configurations — compiled runs
//! emit `constraint_compiled` events and cached runs emit hit/miss/
//! invalidate events at different virtual times by design.

use crate::table::{f2, print_table};
use crate::{broken, Run, Verdict};
use dedisys_constraints::{
    expr::ExprConstraint, ConstraintMeta, ContextPreparation, RegisteredConstraint,
};
use dedisys_core::{
    nodes, Cluster, ClusterBuilder, ConstraintEngine, DeferAll, HighestVersionWins, JsonlExporter,
    SharedBuf, StatsSnapshot,
};
use dedisys_object::{AppDescriptor, ClassDescriptor, EntityState};
use dedisys_types::{ConstraintName, NodeId, ObjectId, SatisfactionDegree, Value};
use std::sync::Arc;

/// Constraints registered on the counter class.
const CONSTRAINTS: usize = 12;

/// Objects in the workload pool.
const OBJECTS: usize = 16;

fn app() -> AppDescriptor {
    AppDescriptor::new("fig-compile").with_class(
        ClassDescriptor::new("Counter")
            .with_field("n", Value::Int(0))
            .with_field("reserve", Value::Int(0))
            .with_field("max", Value::Int(1000)),
    )
}

/// Twelve expression constraints over the counter, cycling through
/// arithmetic shapes so the compiled programs have real work (constant
/// folding, multi-op stacks) — all satisfied by the workload's writes
/// except when a round deliberately overshoots.
fn constraints() -> Vec<RegisteredConstraint> {
    let shapes = [
        "self.n <= self.max",
        "self.n + self.reserve <= self.max",
        "self.n * 2 <= self.max * 2",
        "self.n + 1 <= self.max + 1",
    ];
    (0..CONSTRAINTS)
        .map(|i| {
            RegisteredConstraint::new(
                ConstraintMeta::new(format!("Budget-{i:02}"))
                    .tradeable(SatisfactionDegree::PossiblySatisfied),
                Arc::new(ExprConstraint::parse(shapes[i % shapes.len()]).unwrap()),
            )
            .context_class("Counter")
            .affects("Counter", "setN", ContextPreparation::CalledObject)
            .affects("Counter", "setReserve", ContextPreparation::CalledObject)
        })
        .collect()
}

/// The engine configurations of the study: label, engine, verdict
/// cache.
const CONFIGS: [(&str, ConstraintEngine, bool); 3] = [
    ("Interpreted", ConstraintEngine::Interpreted, false),
    ("Compiled", ConstraintEngine::Compiled, false),
    ("Compiled+cache", ConstraintEngine::Compiled, true),
];

/// The trace file of each configuration, as a suffix of `--trace`.
pub(crate) const TRACES: &[&str] = &[".interp", ".compiled", ".cached"];

/// The outcome of one configuration's run.
struct ModeRun {
    /// The full statistics snapshot.
    stats: StatsSnapshot,
    /// Verdict-cache hits / misses / entries invalidated
    /// (`ccm.verdict_cache.*`).
    hits: u64,
    misses: u64,
    invalidated: u64,
    /// The verdict fingerprint — everything that must be identical
    /// across configurations.
    fingerprint: String,
    /// The JSONL telemetry trace, byte for byte.
    trace: Vec<u8>,
}

/// Every verdict-level observable: mode plus the cluster/CCM/
/// replication/tx counters (virtual time, the telemetry registry and
/// the event count legitimately differ across engines), the threat
/// identities, and the violating-object list of every sweep.
fn fingerprint(cluster: &Cluster, sweeps: &[(String, Vec<ObjectId>)]) -> String {
    let stats = cluster.stats();
    let verdicts = (
        stats.mode,
        stats.cluster,
        stats.ccm,
        stats.replication,
        stats.tx,
    );
    format!(
        "{verdicts:?}\nthreats: {:?}\nsweeps: {sweeps:?}",
        cluster.threats().identities()
    )
}

/// A §3.3 full sweep: disable + re-enable every constraint with the
/// mandated re-check over all context objects. On the cached
/// configuration, sweeps over unchanged objects answer from the memo.
fn sweep(cluster: &mut Cluster, sweeps: &mut Vec<(String, Vec<ObjectId>)>) {
    for i in 0..CONSTRAINTS {
        let name = ConstraintName::from(format!("Budget-{i:02}"));
        cluster
            .set_constraint_enabled(&name, false)
            .expect("disable");
        let violating = cluster
            .set_constraint_enabled(&name, true)
            .expect("re-enable sweep");
        sweeps.push((name.to_string(), violating));
    }
}

/// Runs the workload under one engine configuration.
fn measure(engine: ConstraintEngine, cache: bool, rounds: usize) -> ModeRun {
    let buf = SharedBuf::default();
    let mut cluster = ClusterBuilder::new(3, app())
        .constraints(constraints())
        .build()
        .expect("cluster");
    cluster
        .telemetry()
        .attach(Box::new(JsonlExporter::new(Box::new(buf.clone()))));
    // Switch engines with the exporter already listening: the runtime
    // path lowers (and charges for) the constraints exactly as a
    // compiled build does, and the trace shows it.
    cluster
        .reconfigure(|c| {
            c.validation.engine = engine;
            c.validation.verdict_cache = cache;
        })
        .expect("engine and cache are runtime-reconfigurable");
    let node = NodeId(0);
    let pool: Vec<ObjectId> = (0..OBJECTS)
        .map(|i| {
            let id = ObjectId::new("Counter", format!("ctr-{i:02}"));
            let e = id.clone();
            cluster
                .run_tx(node, move |c, tx| {
                    c.create(node, tx, EntityState::for_class(c.app(), &e)?)
                })
                .expect("pool creation");
            id
        })
        .collect();
    let mut sweeps: Vec<(String, Vec<ObjectId>)> = Vec::new();
    // Chapter-2-style rounds: a few writes, then a full sweep. Only a
    // sliver of the pool changes per round, so most sweep checks are
    // re-validations of unchanged committed state — the verdict
    // cache's target case.
    for round in 0..rounds {
        for w in 0..3 {
            let id = pool[(round * 3 + w) % pool.len()].clone();
            let value = ((round + w) % 900) as i64;
            cluster
                .run_tx(node, move |c, tx| {
                    c.set_field(node, tx, &id, "n", Value::Int(value))
                })
                .expect("write");
        }
        sweep(&mut cluster, &mut sweeps);
    }
    // Figure-5-6-style degraded episode: a minority partition keeps
    // writing under tradeable constraints (threats accrue), then the
    // cluster heals and reconciles.
    let _ = cluster.partition(&[nodes![0, 1], nodes![2]]);
    for (i, id) in pool.iter().take(4).cloned().enumerate() {
        let _ = cluster.run_tx(node, move |c, tx| {
            c.set_field(node, tx, &id, "reserve", Value::Int(10 + i as i64))
        });
        let id = pool[(i + 4) % pool.len()].clone();
        let _ = cluster.run_tx(NodeId(2), move |c, tx| {
            c.set_field(NodeId(2), tx, &id, "reserve", Value::Int(20 + i as i64))
        });
    }
    cluster.heal();
    cluster.reconcile(&mut HighestVersionWins, &mut DeferAll);
    // Two closing sweeps: the second touches no changed state at all,
    // so on the cached configuration it runs entirely from the memo.
    sweep(&mut cluster, &mut sweeps);
    sweep(&mut cluster, &mut sweeps);
    let stats = cluster.stats();
    let counter = |name: &str| stats.telemetry.counters.get(name).copied().unwrap_or(0);
    let hits = counter("ccm.verdict_cache.hit");
    let misses = counter("ccm.verdict_cache.miss");
    let invalidated = counter("ccm.verdict_cache.invalidate");
    let print = fingerprint(&cluster, &sweeps);
    // Dropping the cluster flushes the exporter's buffered writer into
    // the shared buffer.
    drop(cluster);
    ModeRun {
        stats,
        hits,
        misses,
        invalidated,
        fingerprint: print,
        trace: buf.bytes(),
    }
}

/// Runs the three configurations, prints the table and writes the
/// three traces.
pub fn run(run: &Run) -> Verdict {
    let rounds = 12;
    let runs = CONFIGS.map(|(_, engine, cache)| measure(engine, cache, rounds));
    let base_virtual = runs[0].stats.now_ns as f64;
    let rows = CONFIGS
        .iter()
        .zip(&runs)
        .map(|((label, ..), r)| {
            vec![
                label.to_string(),
                format!("{:.1}", r.stats.now_ns as f64 / 1e6),
                f2(base_virtual / r.stats.now_ns as f64),
                r.hits.to_string(),
                r.misses.to_string(),
                r.trace.len().to_string(),
            ]
        })
        .collect::<Vec<_>>();
    print_table(
        &format!(
            "fig-compile — constraint engines, {rounds} write/sweep rounds × \
             {CONSTRAINTS} constraints over {OBJECTS} objects + degraded episode"
        ),
        &[
            "engine",
            "virtual ms",
            "speedup",
            "cache hits",
            "misses",
            "trace bytes",
        ],
        &rows,
    );
    let transparent = runs.iter().all(|r| r.fingerprint == runs[0].fingerprint);
    println!(
        "  verdicts: {}; Compiled+cache virtual-time speedup: {:.2}×",
        if transparent {
            "transparent across all engines"
        } else {
            "DIVERGED"
        },
        base_virtual / runs[2].stats.now_ns as f64,
    );
    let [interp, compiled, cached] = runs.each_ref().map(|r| r.stats.now_ns);
    // The cache hits where it is on, and only there; every constraint
    // is lowered once per compiled run, with the exporter listening.
    let counted = CONFIGS.iter().zip(&runs).all(|((_, engine, cache), r)| {
        let lowered = String::from_utf8_lossy(&r.trace)
            .matches("\"kind\":\"constraint_compiled\"")
            .count();
        let compiles = *engine == ConstraintEngine::Compiled;
        (r.hits > 0) == *cache && lowered == if compiles { CONSTRAINTS } else { 0 }
    });
    let mut failures = broken(&[
        (transparent, "verdicts diverged across the engines"),
        (
            interp > compiled && compiled > cached,
            "a cheaper engine costs no less",
        ),
        (
            counted,
            "cache hits or lowering events where they do not belong",
        ),
        (
            runs[2].invalidated > 0,
            "the cached configuration never invalidated a verdict",
        ),
    ]);
    for (r, suffix) in runs.iter().zip(TRACES) {
        if let Err(e) = run.trace.write(suffix, &r.trace) {
            failures.push(format!("trace {suffix}: {e}"));
        }
    }
    Ok(failures)
}
