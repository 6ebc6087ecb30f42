//! `repro overload-sweep`: goodput
//! and Critical-class tail latency under rising offered load, with
//! the request plane (token-bucket admission, priority queues,
//! deadline shedding) against a no-admission FIFO baseline on the
//! same workload.
//!
//! Both sides see identical arrivals: every tick, `load` requests
//! spread round-robin over the nodes with a seed-derived 20/50/30
//! Critical/Normal/Background class mix, and at most
//! `SERVICE_PER_TICK` requests *execute* before the virtual clock
//! jumps to the next tick boundary. The baseline queues everything in
//! one unbounded FIFO (no classes, no admission, no deadlines) — every
//! arrival eventually executes, however stale. The plane refuses at
//! admission past the token rate, bounds each node's queues, serves
//! strictly by class, and drops expired work before paying for it.
//!
//! The table prints, per offered load × {healthy, degraded} × side:
//! goodput (completed Critical+Normal requests per tick) and the
//! Critical p99 latency in virtual milliseconds. The contract checked
//! on every run: at the highest offered load the plane both rejects and
//! sheds, and its Critical p99 is *strictly* below the baseline's, in
//! both modes — the paper-level claim that admission control plus
//! priority shedding protects critical work under overload, not just on
//! average but in the tail.
//!
//! Everything runs on the virtual clock; the same seed reproduces the
//! table — and a `--trace` JSONL file — byte for byte.

use crate::engine::chaos_app;
use crate::table::print_verdict;
use crate::{require, Run, Verdict};
use dedisys_core::plane::latency_metric;
use dedisys_core::{
    nodes, ClassCounters, Cluster, ClusterBuilder, Histogram, RequestPlane, Session,
};
use dedisys_object::EntityState;
use dedisys_types::{NodeId, ObjectId, PriorityClass, SimDuration, SimTime, Value};
use std::collections::VecDeque;

/// Offered loads swept by the table, in requests per tick. Service
/// capacity is [`SERVICE_PER_TICK`]: the first row is underload, the
/// last is ~8x sustained overload.
const LOADS: &[u32] = &[4, 16, 64];

/// Requests that may *execute* per tick, across all nodes — the
/// simulated service capacity. Shedding is deliberately not charged
/// against it: dropping work cheaply instead of executing it late is
/// the mechanism under test.
const SERVICE_PER_TICK: u64 = 8;

/// Virtual length of one arrival tick.
const TICK: SimDuration = SimDuration::from_millis(10);

/// `--nodes` (default 3) and `--ticks` (arrival ticks per cell,
/// default 40).
fn size(run: &Run) -> (u32, u32) {
    (run.nodes.unwrap_or(3), run.ticks.unwrap_or(40))
}

/// Measured outcome of one cell (one side, one load, one mode).
struct CellOutcome {
    /// Completed Critical+Normal requests per tick.
    goodput: f64,
    /// Critical-class p99 latency (admission to completion).
    critical_p99: SimDuration,
    /// Requests completed, all classes.
    completed: u64,
    /// The plane's counters over all classes (all zero for the
    /// baseline, which refuses and drops nothing).
    counters: ClassCounters,
}

impl CellOutcome {
    /// Requests refused at admission or shed/expired in the queue.
    fn dropped(&self) -> u64 {
        self.counters.rejected + self.counters.shed + self.counters.deadline_missed
    }
}

fn build_cluster(run: &Run, degraded: bool) -> Cluster {
    let nodes = size(run).0;
    let mut cluster = run.cluster(ClusterBuilder::new(nodes, chaos_app()));
    for i in 0..4 {
        let id = ObjectId::new("Item", format!("I-{i}"));
        cluster
            .run_tx(NodeId(0), move |c, tx| {
                c.create(NodeId(0), tx, EntityState::for_class(c.app(), &id)?)
            })
            .expect("seed item");
    }
    if degraded {
        let split: Vec<NodeId> = (1..nodes).map(NodeId).collect();
        cluster
            .partition(&[nodes![0], split])
            .expect("degrade cluster");
    }
    cluster
}

/// The deterministic mix of the `i`-th arrival of a run (shared with
/// `shard-sweep`): a splitmix-style hash of the seed, so different
/// seeds shuffle the interleaving, and the class its bits draw
/// (20/50/30 Critical/Normal/Background).
pub(crate) fn arrival(seed: u64, i: u64) -> (u64, PriorityClass) {
    let mut h = seed.wrapping_add(i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    let class = match (h >> 8) % 10 {
        0 | 1 => PriorityClass::Critical,
        2..=6 => PriorityClass::Normal,
        _ => PriorityClass::Background,
    };
    (h, class)
}

/// The node, class and payload of the `i`-th request.
fn request(run: &Run, i: u64) -> (NodeId, PriorityClass, i64) {
    let (h, class) = arrival(run.seed, i);
    let node = NodeId((h % u64::from(size(run).0)) as u32);
    (node, class, (h >> 16) as i64 % 1_000)
}

/// The request body both sides run: one committed write.
fn request_work(
    payload: i64,
) -> impl for<'a> FnOnce(Session<'a>) -> dedisys_types::Result<()> + 'static {
    let id = ObjectId::new("Item", format!("I-{}", payload.rem_euclid(4)));
    move |mut session| {
        session.set_field(&id, "n", Value::Int(payload))?;
        session.commit()
    }
}

/// One run with the request plane in front: admission, priority
/// dispatch, deadline shedding. Latency is the plane's own
/// admission-to-completion histogram.
fn run_plane(run: &Run, load: u32, degraded: bool) -> CellOutcome {
    let mut cluster = build_cluster(run, degraded);
    let mut plane = RequestPlane::new();
    let start = cluster.clock().now();
    let mut arrivals = 0u64;
    for tick in 0..size(run).1 {
        for _ in 0..load {
            let (node, class, payload) = request(run, arrivals);
            arrivals += 1;
            let _ = plane.submit(&mut cluster, node, class, request_work(payload));
        }
        let served_before = plane.stats().total().completed;
        while plane.stats().total().completed < served_before + SERVICE_PER_TICK
            && plane.step(&mut cluster)
        {}
        cluster
            .clock()
            .advance_to(start + TICK * u64::from(tick + 1));
    }
    // Sustained-overload tail: everything still queued either completes
    // or expires now that arrivals stopped.
    plane.run_until_idle(&mut cluster);
    let stats = plane.stats();
    let succeeded = |c: &ClassCounters| c.completed - c.failed;
    let good = succeeded(&stats.critical) + succeeded(&stats.normal);
    let critical = latency_metric(PriorityClass::Critical);
    CellOutcome {
        goodput: good as f64 / f64::from(size(run).1),
        critical_p99: cluster
            .telemetry()
            .metrics()
            .histogram(critical)
            .percentile(99),
        completed: succeeded(&stats.total()),
        counters: stats.total(),
    }
}

/// The no-admission baseline: one unbounded FIFO, every arrival
/// executes eventually, in arrival order, whatever its class or age.
fn run_baseline(run: &Run, load: u32, degraded: bool) -> CellOutcome {
    let mut cluster = build_cluster(run, degraded);
    let mut fifo: VecDeque<(NodeId, PriorityClass, SimTime, i64)> = VecDeque::new();
    let mut critical = Histogram::default();
    let (mut completed, mut good) = (0u64, 0u64);
    let start = cluster.clock().now();
    let mut arrivals = 0u64;
    let mut serve = |cluster: &mut Cluster, fifo: &mut VecDeque<_>| {
        for _ in 0..SERVICE_PER_TICK {
            let Some((node, class, submitted, payload)) = fifo.pop_front() else {
                break;
            };
            let ok = request_work(payload)(cluster.session(node)).is_ok();
            if class == PriorityClass::Critical {
                critical.record(cluster.clock().now().since(submitted));
            }
            if ok {
                completed += 1;
                good += u64::from(class != PriorityClass::Background);
            }
        }
    };
    for tick in 0..size(run).1 {
        for _ in 0..load {
            let (node, class, payload) = request(run, arrivals);
            arrivals += 1;
            fifo.push_back((node, class, cluster.clock().now(), payload));
        }
        serve(&mut cluster, &mut fifo);
        cluster
            .clock()
            .advance_to(start + TICK * u64::from(tick + 1));
    }
    // Drain the backlog at the same service rate — late, but served.
    while !fifo.is_empty() {
        serve(&mut cluster, &mut fifo);
        cluster.clock().advance(TICK);
    }
    CellOutcome {
        goodput: good as f64 / f64::from(size(run).1),
        critical_p99: critical.percentile(99),
        completed,
        counters: ClassCounters::default(),
    }
}

fn fmt_ms(d: SimDuration) -> String {
    format!("{:.1}", d.as_nanos() as f64 / 1_000_000.0)
}

/// The load × mode table; contract: at the highest offered load the
/// plane rejects and sheds and its Critical p99 is strictly below the
/// baseline's, and no side of any cell completes nothing.
pub fn run(run: &Run) -> Verdict {
    let (nodes, ticks) = size(run);
    require(nodes >= 2, "needs at least two nodes")?;
    require(ticks >= 1, "needs at least one tick")?;
    println!(
        "overload-sweep seed {} ({nodes} nodes, {ticks} ticks, {SERVICE_PER_TICK} executions/tick)",
        run.seed
    );
    println!("  goodput = completed Critical+Normal per tick; p99 in virtual ms");
    println!(
        "  load/tick | mode     | baseline goodput | baseline crit-p99 | plane goodput | plane crit-p99 | plane dropped"
    );
    let mut failures = Vec::new();
    let top_load = *LOADS.last().expect("nonempty load sweep");
    for &load in LOADS {
        for degraded in [false, true] {
            let mode = if degraded { "degraded" } else { "healthy" };
            let baseline = run_baseline(run, load, degraded);
            let plane = run_plane(run, load, degraded);
            let (base_p99, plane_p99) = (fmt_ms(baseline.critical_p99), fmt_ms(plane.critical_p99));
            println!(
                "  {load:>9} | {mode:<8} | {:>16.1} | {base_p99:>15}ms | {:>13.1} | {plane_p99:>12}ms | {:>13}",
                baseline.goodput,
                plane.goodput,
                plane.dropped(),
            );
            if load == top_load && plane.critical_p99 >= baseline.critical_p99 {
                failures.push(format!(
                    "load {load} {mode}: plane Critical p99 {plane_p99}ms >= baseline {base_p99}ms"
                ));
            }
            if load == top_load && (plane.counters.rejected == 0 || plane.counters.shed == 0) {
                failures.push(format!(
                    "load {load} {mode}: the plane rejected {} and shed {}",
                    plane.counters.rejected, plane.counters.shed
                ));
            }
            if baseline.completed == 0 || plane.completed == 0 {
                failures.push(format!("load {load} {mode}: a side completed nothing"));
            }
        }
    }
    print_verdict(
        &failures,
        "plane Critical p99 strictly below the no-admission baseline at the top load",
    );
    Ok(failures)
}
