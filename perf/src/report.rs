//! Metric definitions and the shapes results are printed in: one
//! `metric workload value unit` line per value, a JSON result file,
//! and the one-line JSON object of the driver contract.

use crate::harness::json::Json;
use crate::workload::RunResult;

/// Which direction of an end-to-end metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

/// An end-to-end metric: what a user of the middleware would see.
#[derive(Clone, Copy)]
pub struct EndToEnd {
    /// Name in result files and `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the baseline by which the metric may worsen before
    /// `perf compare` fails — the same number as in `BENCHMARK.json`.
    pub bound: f64,
    /// Reads the metric off a run.
    pub value: fn(&RunResult) -> f64,
}

/// Bound of the wall-clock metrics. The reference sandbox itself moves
/// by this much: between two sets of ten runs minutes apart the same
/// binary differed by up to 21 % in throughput (`perf/README.md`,
/// "Steadiness"). Tighter claims need the paired procedure described
/// there, not a single comparison.
const TIMING_BOUND: f64 = 0.25;

/// The end-to-end metrics, reported per workload by an untraced run.
///
/// `fail_share` is not listed: it is the `failed`/`attempted` pair of
/// every result and must be 0. `reconcile_ms` exists on one workload
/// only, and the 99th-percentile latency spreads between runs by as
/// much as the widest bound the contract allows; both are reported
/// with the per-layer metrics.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: TIMING_BOUND,
        value: RunResult::ops_per_s,
    },
    EndToEnd {
        name: "p50_us",
        unit: "us",
        better: Better::Lower,
        bound: TIMING_BOUND,
        value: RunResult::p50_us,
    },
    EndToEnd {
        name: "allocs_per_op",
        unit: "count",
        better: Better::Lower,
        bound: 0.01,
        value: |run| run.allocs_per_op,
    },
    EndToEnd {
        name: "alloc_bytes_per_op",
        unit: "B",
        better: Better::Lower,
        bound: 0.01,
        value: |run| run.alloc_bytes_per_op,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.05,
        value: |run| run.peak_rss_mb,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: TIMING_BOUND,
        value: RunResult::setup_s,
    },
];

/// The end-to-end metric named `name`.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// Metric name.
    pub name: &'static str,
    /// The measurement.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Value {
    /// A value.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// The end-to-end values of `run`, in [`END_TO_END`] order.
pub fn end_to_end_values(run: &RunResult) -> Vec<Value> {
    END_TO_END
        .iter()
        .map(|m| Value::new(m.name, (m.value)(run), m.unit))
        .collect()
}

/// Span names and the per-op self-time metric each becomes.
pub const SPAN_METRICS: [(&str, &str); 11] = [
    ("federation.submit", "federation.submit_ns"),
    ("federation.step", "federation.step_self_ns"),
    ("session.invoke", "session.invoke_ns"),
    ("session.commit", "session.commit_ns"),
    ("federation.xshard_stage", "federation.xshard_stage_ns"),
    ("federation.xshard_prepare", "federation.xshard_prepare_ns"),
    ("federation.xshard_commit", "federation.xshard_commit_ns"),
    ("cluster.partition", "cluster.partition_ns"),
    ("cluster.heal", "cluster.heal_ns"),
    ("cluster.reconcile", "cluster.reconcile_ns"),
    ("op", "harness.op_self_ns"),
];

/// The per-layer values a traced run of one workload yields: span
/// self times, tracing overhead, tail latency, `reconcile_ms` and the
/// exact counts.
///
/// Request spans (`federation.*`, `session.*`, `op`) are self time per
/// traced operation; cycle spans (`cluster.*`) are per cycle.
pub fn traced_values(run: &RunResult) -> Vec<Value> {
    let traced_ops = run.traced_ops().max(1) as f64;
    let mut values = Vec::new();
    for (span, metric) in SPAN_METRICS {
        let totals = run.spans.get(span).copied().unwrap_or_default();
        let per = if span.starts_with("cluster.") {
            totals.count.max(1) as f64
        } else {
            traced_ops
        };
        values.push(Value::new(metric, totals.self_ns as f64 / per, "ns"));
    }
    // Every span, listed above or not (the abort and rollback paths,
    // the cycle work between ops), belongs to the per-op total that
    // `trace.op_wall_ns` is compared with.
    let self_sum = run.spans.values().map(|t| t.self_ns as f64).sum::<f64>() / traced_ops;
    values.push(Value::new("trace.span_self_sum_ns", self_sum, "ns"));
    values.push(Value::new(
        "trace.op_wall_ns",
        run.traced_wall_ns_per_op(),
        "ns",
    ));
    values.push(Value::new(
        "trace.overhead_pct",
        run.trace_overhead_pct(),
        "%",
    ));
    values.push(Value::new("latency.p99_us", run.p99_us(), "us"));
    values.push(Value::new("reconcile_ms", run.reconcile_ms(), "ms"));
    for (name, value) in &run.counts {
        let (_, unit) = PER_LAYER
            .iter()
            .find(|(listed, _)| listed == name)
            .expect("every count is a listed per-layer metric");
        values.push(Value::new(name, *value, unit));
    }
    values
}

/// Every per-layer metric a traced run (`--trace 1`) reports, with its
/// unit, in output order: span self times, the instrument's own error
/// bars, exact counts, layer probes, slice rungs, calibration ratios.
/// `BENCHMARK.json` lists the same names.
pub const PER_LAYER: [(&str, &str); 68] = [
    ("federation.submit_ns", "ns"),
    ("federation.step_self_ns", "ns"),
    ("session.invoke_ns", "ns"),
    ("session.commit_ns", "ns"),
    ("federation.xshard_stage_ns", "ns"),
    ("federation.xshard_prepare_ns", "ns"),
    ("federation.xshard_commit_ns", "ns"),
    ("cluster.partition_ns", "ns"),
    ("cluster.heal_ns", "ns"),
    ("cluster.reconcile_ns", "ns"),
    ("harness.op_self_ns", "ns"),
    ("trace.span_self_sum_ns", "ns"),
    ("trace.op_wall_ns", "ns"),
    ("trace.overhead_pct", "%"),
    ("latency.p99_us", "us"),
    ("reconcile_ms", "ms"),
    ("ccm.validations_per_op", "count"),
    ("ccm.threats_per_op", "count"),
    ("repository.lookups_per_op", "count"),
    ("repository.cache_hit_ratio", "ratio"),
    ("replication.ships_per_op", "count"),
    ("replication.ship_retries_per_op", "count"),
    ("store.wal_entries_per_op", "count"),
    ("tx.commits_per_op", "count"),
    ("tx.rollbacks_per_op", "count"),
    ("plane.admitted_per_op", "count"),
    ("telemetry.events_per_op", "count"),
    ("telemetry.bytes_per_op", "B"),
    ("reconcile.threats_reevaluated_per_cycle", "count"),
    ("reconcile.conflicts_per_cycle", "count"),
    ("virt_us_per_op", "us"),
    ("shard_map.shard_of_ns", "ns"),
    ("plane.noop_request_ns", "ns"),
    ("repository.lookup_ns", "ns"),
    ("expr.parse_compile_ns", "ns"),
    ("expr.eval_interpreted_ns", "ns"),
    ("expr.eval_compiled_ns", "ns"),
    ("locks.acquire_release_ns", "ns"),
    ("txmgr.begin_commit_ns", "ns"),
    ("container.write_commit_ns", "ns"),
    ("entity.to_json_ns", "ns"),
    ("entity.from_json_ns", "ns"),
    ("persistence.put_ns", "ns"),
    ("persistence.get_ns", "ns"),
    ("wal.replay_ns_per_entry", "ns"),
    ("cluster.restart_ns_per_entry", "ns"),
    ("replication.propagate_ns", "ns"),
    ("telemetry.emit_disabled_ns", "ns"),
    ("telemetry.emit_jsonl_ns", "ns"),
    ("metrics.incr_ns", "ns"),
    ("metrics.observe_ns", "ns"),
    ("gms.detector_ns_per_virtual_s", "ns"),
    ("slice.r1_base_ns", "ns"),
    ("slice.ccm_intercept_ns", "ns"),
    ("slice.validation_ns", "ns"),
    ("slice.replication_1n_ns", "ns"),
    ("slice.replication_3n_ns", "ns"),
    ("slice.plane_ns", "ns"),
    ("slice.federation_ns", "ns"),
    ("slice.telemetry_jsonl_ns", "ns"),
    ("calib.interp_over_compiled.wall", "ratio"),
    ("calib.interp_over_compiled.model", "ratio"),
    ("calib.interp_over_cached.wall", "ratio"),
    ("calib.interp_over_cached.model", "ratio"),
    ("calib.degraded_over_healthy.wall", "ratio"),
    ("calib.degraded_over_healthy.model", "ratio"),
    ("calib.nodes3_over_nodes1.wall", "ratio"),
    ("calib.nodes3_over_nodes1.model", "ratio"),
];

/// Prints `metric workload value unit`, one line per value.
pub fn print_lines(workload: &str, values: &[Value]) {
    for v in values {
        println!(
            "{} {workload} {} {}",
            v.name,
            Json::Num(v.value).render(),
            v.unit
        );
    }
}

/// `{"name": {"value": v, "unit": u}, …}` in the order given.
pub fn values_json(values: &[Value]) -> Json {
    Json::Obj(
        values
            .iter()
            .map(|v| {
                (
                    v.name.to_owned(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(v.value)),
                        ("unit".into(), Json::Str(v.unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

fn numbers(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|v| Json::Num(*v)).collect())
}

/// One workload's entry in a result file: the values plus what
/// `perf compare` needs to judge them (per-chunk samples, counts,
/// digest).
pub fn run_json(run: &RunResult, values: &[Value]) -> Json {
    Json::Obj(vec![
        ("seed".into(), Json::Num(run.plan.seed as f64)),
        ("ops".into(), Json::Num(run.plan.ops as f64)),
        ("warmup_ops".into(), Json::Num(run.plan.warmup as f64)),
        ("attempted".into(), Json::Num(run.attempted() as f64)),
        ("failed".into(), Json::Num(run.failed as f64)),
        ("correct".into(), Json::Bool(run.error().is_none())),
        ("wall_s".into(), Json::Num(run.wall_s)),
        (
            "sustained_ops_per_s".into(),
            Json::Num(run.sustained_ops_per_s()),
        ),
        (
            "latency_samples".into(),
            Json::Num(run.latency.samples as f64),
        ),
        ("p99_us".into(), Json::Num(run.p99_us())),
        ("max_us".into(), Json::Num(run.latency.max_ns as f64 / 1e3)),
        ("cycles".into(), Json::Num(run.cycle_ms.len() as f64)),
        (
            "state_digest".into(),
            Json::Str(format!("{:016x}", run.state_digest)),
        ),
        ("metrics".into(), values_json(values)),
        (
            "chunks".into(),
            Json::Obj(vec![
                ("ops_per_s".into(), numbers(&run.chunk_ops_per_s)),
                (
                    "p50_us".into(),
                    numbers(&run.chunk_p50_ns.iter().map(|n| n / 1e3).collect::<Vec<_>>()),
                ),
                (
                    "p99_us".into(),
                    numbers(&run.chunk_p99_ns.iter().map(|n| n / 1e3).collect::<Vec<_>>()),
                ),
                ("setup_s".into(), numbers(&run.setup_s)),
            ]),
        ),
        (
            "counts".into(),
            Json::Obj(
                run.counts
                    .iter()
                    .map(|(name, value)| ((*name).to_owned(), Json::Num(*value)))
                    .collect(),
            ),
        ),
    ])
}

/// The last line of a driver run: exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn contract_line(correct: bool, attempted: u64, failed: u64, values: &[Value]) -> String {
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        ("metrics".into(), values_json(values)),
    ])
    .render()
}

/// What every result must say about the build it came from: the
/// product's registry dependencies are not the real ones here.
pub const STAND_IN_NOTE: &str = "product built against the std-only stand-ins in perf/shims, \
    not crates.io serde/serde_json/parking_lot/crossbeam: JSON encoding and decoding \
    (time, allocations) are the stand-in's, not serde_json's";

/// The machine and the build a result was measured on.
pub fn machine_json() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    Json::Obj(vec![
        (
            "nproc".into(),
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("cpu".into(), Json::Str(cpu)),
        // Exported by `perf/run.sh`; the binary cannot ask the compiler.
        (
            "rustc".into(),
            Json::Str(std::env::var("PERF_RUSTC_VERSION").unwrap_or_else(|_| "unknown".into())),
        ),
        (
            "profile".into(),
            Json::Str("release: opt-level=3, debug=false, no LTO, default codegen-units".into()),
        ),
        ("third_party".into(), Json::Str(STAND_IN_NOTE.into())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let line = contract_line(true, 1_000, 0, &[Value::new("setup_s", 0.8127, "s")]);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":1000,\"failed\":0,\
             \"metrics\":{\"setup_s\":{\"value\":0.8127,\"unit\":\"s\"}}}"
        );
    }

    #[test]
    fn every_bound_is_within_the_contract() {
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(end_to_end(m.name).is_some());
        }
        assert!(end_to_end("fail_share").is_none());
    }
}
