//! `repro fig-par` — wall-clock speedup of the sharded batch-validation
//! pool, with the determinism contract checked on every run.
//!
//! A validation-heavy workload (64 CPU-bound constraints attached to
//! one write method) is driven twice from the same seed state: once
//! with [`ValidationParallelism::Serial`], once with
//! `ValidationParallelism::Threads(8)`. The table reports the
//! wall-clock speedup; virtual time, the full [`StatsSnapshot`] and
//! the JSONL telemetry trace must be **byte-identical** across the two
//! runs — the run exits non-zero if they diverge.
//!
//! With `--trace <path>` the two traces are additionally written to
//! `<path>.serial` and `<path>.parallel` so external tooling (the CI
//! smoke job) can diff them.

use crate::table::{f2, print_table};
use dedisys_constraints::{
    ConstraintMeta, ContextPreparation, RegisteredConstraint, ValidationContext,
};
use dedisys_core::{Cluster, ClusterBuilder, JsonlExporter, StatsSnapshot, ValidationParallelism};
use dedisys_object::{AppDescriptor, ClassDescriptor, EntityState, MethodDescriptor, MethodKind};
use dedisys_types::{NodeId, ObjectId, Value};
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Constraints attached to the `stir` method — the batch size of every
/// post-validation (64 candidates ⇒ 8 canonical shards).
const CONSTRAINTS: usize = 64;

/// Objects in the workload pool.
const OBJECTS: usize = 32;

/// A `Write` sink into a shared byte buffer, so the JSONL trace of a
/// cluster can be inspected after the cluster (and the `BufWriter`
/// inside its exporter) is dropped.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("trace buffer poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn app() -> AppDescriptor {
    AppDescriptor::new("fig-par").with_class(
        ClassDescriptor::new("Cell")
            .with_field("load", Value::Int(0))
            .with_method(MethodDescriptor::with_kind("stir", MethodKind::Write)),
    )
}

/// One always-satisfied constraint that burns a deterministic amount
/// of CPU (`spin` mixing rounds) — validation cost without validation
/// outcome variance.
fn spin_constraint(index: usize, spin: u32) -> RegisteredConstraint {
    RegisteredConstraint::new(
        ConstraintMeta::new(format!("Spin-{index:02}")),
        Arc::new(move |ctx: &mut ValidationContext<'_>| {
            let base = ctx.self_field("load")?.as_int().unwrap_or(0) as u64;
            let mut h = 0xcbf2_9ce4_8422_2325_u64 ^ base.wrapping_add(index as u64);
            for round in 0..spin {
                h ^= u64::from(round);
                h = h.wrapping_mul(0x0100_0000_01b3);
                h = std::hint::black_box(h.rotate_left(17));
            }
            // Always true, but opaque enough that the mixing loop is
            // not optimized away.
            Ok(std::hint::black_box(h) | 1 != 0)
        }),
    )
    .context_class("Cell")
    .affects("Cell", "stir", ContextPreparation::CalledObject)
}

/// The outcome of one mode's run.
pub struct ModeRun {
    /// Mode label.
    pub label: String,
    /// Wall-clock time of the invocation loop.
    pub wall: Duration,
    /// Multi-candidate batches the run recorded (`ccm.batches`).
    pub batches: u64,
    /// The full statistics snapshot, for cross-mode comparison.
    pub stats: StatsSnapshot,
    /// The JSONL telemetry trace, byte for byte.
    pub trace: Vec<u8>,
}

/// Runs the workload under one parallelism setting.
pub fn measure(parallelism: ValidationParallelism, label: &str, ops: usize, spin: u32) -> ModeRun {
    let buf = SharedBuf::default();
    let mut builder =
        ClusterBuilder::new(3, app()).configure(|c| c.validation.parallelism = parallelism);
    for i in 0..CONSTRAINTS {
        builder = builder.constraint(spin_constraint(i, spin));
    }
    let mut cluster: Cluster = builder.build().expect("cluster");
    cluster
        .telemetry()
        .attach(Box::new(JsonlExporter::new(Box::new(buf.clone()))));
    let node = NodeId(0);
    let pool: Vec<ObjectId> = (0..OBJECTS)
        .map(|i| {
            let id = ObjectId::new("Cell", format!("cell-{i}"));
            let e = id.clone();
            cluster
                .run_tx(node, move |c, tx| {
                    c.create(node, tx, EntityState::for_class(c.app(), &e)?)
                })
                .expect("pool creation");
            id
        })
        .collect();
    let start = Instant::now();
    for i in 0..ops {
        let id = pool[i % pool.len()].clone();
        cluster
            .run_tx(node, move |c, tx| c.invoke(node, tx, &id, "stir", vec![]))
            .expect("stir");
    }
    let wall = start.elapsed();
    let stats = cluster.stats();
    let batches = stats
        .telemetry
        .counters
        .get("ccm.batches")
        .copied()
        .unwrap_or(0);
    // Dropping the cluster flushes the exporter's buffered writer into
    // the shared buffer.
    drop(cluster);
    let trace = buf.0.lock().expect("trace buffer poisoned").clone();
    ModeRun {
        label: label.to_owned(),
        wall,
        batches,
        stats,
        trace,
    }
}

/// Serializes a snapshot for cross-mode equality checking (the type
/// deliberately has no `PartialEq`; JSON is its canonical form).
fn stats_json(stats: &StatsSnapshot) -> String {
    serde_json::to_string(stats).expect("stats serialize")
}

/// Runs both modes, prints the speedup table and enforces the
/// determinism contract. Returns the runs for the unit tests.
pub fn fig_par(ops: usize, spin: u32) -> (ModeRun, ModeRun) {
    let serial = measure(ValidationParallelism::Serial, "Serial", ops, spin);
    let parallel = measure(ValidationParallelism::Threads(8), "Threads(8)", ops, spin);
    (serial, parallel)
}

/// Runs and prints the experiment; writes `<path>.serial` /
/// `<path>.parallel` when a trace path is given. Exits non-zero when
/// the two runs are not byte-identical.
pub fn run(trace: Option<&Path>) {
    let ops = 200;
    let spin = 30_000;
    let (serial, parallel) = fig_par(ops, spin);
    let speedup = serial.wall.as_secs_f64() / parallel.wall.as_secs_f64();
    let trace_matches = serial.trace == parallel.trace;
    let stats_match = stats_json(&serial.stats) == stats_json(&parallel.stats);
    let rows = [&serial, &parallel]
        .iter()
        .map(|run| {
            vec![
                run.label.clone(),
                format!("{:.1}", run.wall.as_secs_f64() * 1_000.0),
                f2(serial.wall.as_secs_f64() / run.wall.as_secs_f64()),
                run.batches.to_string(),
                format!("{:.1}", run.stats.now_ns as f64 / 1e6),
                run.trace.len().to_string(),
            ]
        })
        .collect::<Vec<_>>();
    print_table(
        &format!(
            "fig-par — batch validation pool, {ops} ops × {CONSTRAINTS} constraints \
             ({spin} spin rounds each)"
        ),
        &[
            "mode",
            "wall ms",
            "speedup",
            "batches",
            "virtual ms",
            "trace bytes",
        ],
        &rows,
    );
    println!(
        "  Threads(8) speedup: {speedup:.2}×; trace: {}; stats: {}",
        if trace_matches {
            "byte-identical across modes"
        } else {
            "DIVERGED"
        },
        if stats_match { "identical" } else { "DIVERGED" },
    );
    if let Some(path) = trace {
        let write = |suffix: &str, bytes: &[u8]| {
            let mut file = path.as_os_str().to_owned();
            file.push(suffix);
            std::fs::write(&file, bytes).expect("write trace file");
        };
        write(".serial", &serial.trace);
        write(".parallel", &parallel.trace);
        eprintln!(
            "traces written to {}.serial / {}.parallel",
            path.display(),
            path.display()
        );
    }
    if !trace_matches || !stats_match {
        eprintln!("fig-par: determinism contract violated (serial vs Threads(8))");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The determinism contract on a small instance: identical stats
    /// and byte-identical traces across all parallelism settings.
    #[test]
    fn parallel_runs_are_byte_identical_to_serial() {
        let serial = measure(ValidationParallelism::Serial, "s", 6, 10);
        for workers in [2, 4, 8] {
            let parallel = measure(ValidationParallelism::Threads(workers), "p", 6, 10);
            assert_eq!(
                stats_json(&serial.stats),
                stats_json(&parallel.stats),
                "stats diverged at Threads({workers})"
            );
            assert_eq!(
                serial.trace, parallel.trace,
                "trace diverged at Threads({workers})"
            );
        }
        assert!(!serial.trace.is_empty(), "trace captured");
        assert!(serial.batches > 0, "multi-candidate batches recorded");
    }
}
