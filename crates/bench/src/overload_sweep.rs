//! The `overload-sweep` driver behind `repro overload-sweep`: goodput
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
//! on every run (exit 1 otherwise): at the highest offered load the
//! plane's Critical p99 is *strictly* below the baseline's, in both
//! modes — the paper-level claim that admission control plus priority
//! shedding protects critical work under overload, not just on
//! average but in the tail.
//!
//! Everything runs on the virtual clock; the same seed reproduces the
//! table — and a `--trace` JSONL file — byte for byte.

use dedisys_chaos::chaos_app;
use dedisys_core::{nodes, Cluster, ClusterBuilder, RequestPlane, Session};
use dedisys_object::EntityState;
use dedisys_types::{NodeId, ObjectId, PriorityClass, SimDuration, Value};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

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

/// CLI options of `repro overload-sweep`.
#[derive(Debug, Clone)]
pub struct OverloadOptions {
    /// Seed of the class/node mixing draws.
    pub seed: u64,
    /// Cluster size.
    pub nodes: u32,
    /// Arrival ticks per table cell.
    pub ticks: u32,
    /// JSONL trace destination (cells append).
    pub trace: Option<PathBuf>,
}

impl Default for OverloadOptions {
    fn default() -> Self {
        Self {
            seed: 0,
            nodes: 3,
            ticks: 40,
            trace: None,
        }
    }
}

/// Measured outcome of one cell (one side, one load, one mode).
struct CellOutcome {
    /// Completed Critical+Normal requests per tick.
    goodput: f64,
    /// Critical-class p99 latency (admission to completion).
    critical_p99: SimDuration,
    /// Requests completed, all classes.
    completed: u64,
    /// Requests refused at admission or shed/expired in the queue
    /// (always 0 for the baseline).
    dropped: u64,
}

/// One completed request's class and latency, recorded by the request
/// closure itself so both sides measure identically.
type LatencySink = Arc<Mutex<Vec<(PriorityClass, SimDuration)>>>;

fn build_cluster(opts: &OverloadOptions, degraded: bool) -> Cluster {
    let mut cluster = ClusterBuilder::new(opts.nodes, chaos_app())
        .build()
        .expect("overload-sweep cluster");
    if let Some(path) = &opts.trace {
        crate::attach_jsonl(cluster.telemetry(), path);
    }
    for i in 0..4 {
        let id = ObjectId::new("Item", format!("I-{i}"));
        cluster
            .run_tx(NodeId(0), move |c, tx| {
                c.create(NodeId(0), tx, EntityState::for_class(c.app(), &id)?)
            })
            .expect("seed item");
    }
    if degraded {
        let split: Vec<NodeId> = (1..opts.nodes).map(NodeId).collect();
        cluster
            .partition(&[nodes![0], split])
            .expect("degrade cluster");
    }
    cluster
}

/// The deterministic per-request mix: node, class and payload for the
/// `i`-th arrival of a run, derived from a splitmix-style hash of the
/// seed so different seeds shuffle the interleaving.
fn arrival(opts: &OverloadOptions, i: u64) -> (NodeId, PriorityClass, i64) {
    let mut h = opts
        .seed
        .wrapping_add(i)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    let node = NodeId((h % u64::from(opts.nodes)) as u32);
    let class = match (h >> 8) % 10 {
        0 | 1 => PriorityClass::Critical,
        2..=6 => PriorityClass::Normal,
        _ => PriorityClass::Background,
    };
    (node, class, (h >> 16) as i64 % 1_000)
}

/// The request body both sides run: one committed write, stamping its
/// own admission-to-completion latency into the shared sink.
fn request_work(
    cluster: &Cluster,
    sink: &LatencySink,
    class: PriorityClass,
    payload: i64,
) -> impl for<'a> FnOnce(Session<'a>) -> dedisys_types::Result<()> + 'static {
    let clock = cluster.clock().clone();
    let submitted = clock.now();
    let sink = Arc::clone(sink);
    let id = ObjectId::new("Item", format!("I-{}", payload.rem_euclid(4)));
    move |mut session| {
        session.set_field(&id, "n", Value::Int(payload))?;
        session.commit()?;
        sink.lock()
            .unwrap()
            .push((class, clock.now().since(submitted)));
        Ok(())
    }
}

fn percentile_99(mut latencies: Vec<SimDuration>) -> SimDuration {
    if latencies.is_empty() {
        return SimDuration::ZERO;
    }
    latencies.sort_unstable();
    latencies[(latencies.len() - 1) * 99 / 100]
}

fn cell_outcome(opts: &OverloadOptions, sink: &LatencySink, dropped: u64) -> CellOutcome {
    let recorded = sink.lock().unwrap();
    let good = recorded
        .iter()
        .filter(|(c, _)| *c != PriorityClass::Background)
        .count() as f64;
    let criticals: Vec<SimDuration> = recorded
        .iter()
        .filter(|(c, _)| *c == PriorityClass::Critical)
        .map(|(_, l)| *l)
        .collect();
    CellOutcome {
        goodput: good / f64::from(opts.ticks),
        critical_p99: percentile_99(criticals),
        completed: recorded.len() as u64,
        dropped,
    }
}

/// One run with the request plane in front: admission, priority
/// dispatch, deadline shedding.
fn run_plane(opts: &OverloadOptions, load: u32, degraded: bool) -> CellOutcome {
    let mut cluster = build_cluster(opts, degraded);
    let mut plane = RequestPlane::new();
    let sink: LatencySink = Arc::default();
    let start = cluster.clock().now();
    let mut arrivals = 0u64;
    for tick in 0..opts.ticks {
        for _ in 0..load {
            let (node, class, payload) = arrival(opts, arrivals);
            arrivals += 1;
            let work = request_work(&cluster, &sink, class, payload);
            let _ = plane.submit(&mut cluster, node, class, work);
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
    let t = plane.stats().total();
    cell_outcome(opts, &sink, t.rejected + t.shed + t.deadline_missed)
}

/// The no-admission baseline: one unbounded FIFO, every arrival
/// executes eventually, in arrival order, whatever its class or age.
fn run_baseline(opts: &OverloadOptions, load: u32, degraded: bool) -> CellOutcome {
    type QueuedWork = Box<dyn for<'a> FnOnce(Session<'a>) -> dedisys_types::Result<()>>;
    let mut cluster = build_cluster(opts, degraded);
    let mut fifo: VecDeque<(NodeId, QueuedWork)> = VecDeque::new();
    let sink: LatencySink = Arc::default();
    let start = cluster.clock().now();
    let mut arrivals = 0u64;
    let serve = |cluster: &mut Cluster, fifo: &mut VecDeque<(NodeId, QueuedWork)>| {
        for _ in 0..SERVICE_PER_TICK {
            let Some((node, work)) = fifo.pop_front() else {
                break;
            };
            let _ = work(cluster.session(node));
        }
    };
    for tick in 0..opts.ticks {
        for _ in 0..load {
            let (node, class, payload) = arrival(opts, arrivals);
            arrivals += 1;
            let work = request_work(&cluster, &sink, class, payload);
            fifo.push_back((node, Box::new(work)));
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
    cell_outcome(opts, &sink, 0)
}

fn fmt_ms(d: SimDuration) -> String {
    format!("{:.1}", d.as_nanos() as f64 / 1_000_000.0)
}

/// Runs the sweep per `opts`; exits the process with status 1 when
/// the plane fails to strictly beat the baseline's Critical p99 at
/// the highest offered load.
pub fn run(opts: &OverloadOptions) {
    println!(
        "overload-sweep seed {} ({} nodes, {} ticks, {} executions/tick)",
        opts.seed, opts.nodes, opts.ticks, SERVICE_PER_TICK
    );
    println!("  goodput = completed Critical+Normal per tick; p99 in virtual ms");
    println!(
        "  load/tick | mode     | baseline goodput | baseline crit-p99 | plane goodput | plane crit-p99 | plane dropped"
    );
    let mut failures = 0u64;
    let top_load = *LOADS.last().expect("nonempty load sweep");
    for &load in LOADS {
        for degraded in [false, true] {
            let mode = if degraded { "degraded" } else { "healthy" };
            let baseline = run_baseline(opts, load, degraded);
            let plane = run_plane(opts, load, degraded);
            println!(
                "  {load:>9} | {mode:<8} | {:>16.1} | {:>15}ms | {:>13.1} | {:>12}ms | {:>13}",
                baseline.goodput,
                fmt_ms(baseline.critical_p99),
                plane.goodput,
                fmt_ms(plane.critical_p99),
                plane.dropped,
            );
            if load == top_load && plane.critical_p99 >= baseline.critical_p99 {
                eprintln!(
                    "overload-sweep: load {load} {mode}: plane Critical p99 {}ms >= baseline {}ms",
                    fmt_ms(plane.critical_p99),
                    fmt_ms(baseline.critical_p99)
                );
                failures += 1;
            }
            if baseline.completed == 0 || plane.completed == 0 {
                eprintln!("overload-sweep: load {load} {mode}: a side completed nothing");
                failures += 1;
            }
        }
    }
    println!(
        "  verdict: {}",
        if failures == 0 {
            "plane Critical p99 strictly below the no-admission baseline at the top load"
                .to_string()
        } else {
            format!("{failures} FAILURE(S)")
        }
    );
    if failures > 0 {
        std::process::exit(1);
    }
}
