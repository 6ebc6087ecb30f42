//! The workload contract and the closed-loop runner.
//!
//! One client, one thread: the next operation is issued only after the
//! previous one has returned, because the middleware is a synchronous
//! library whose callers wait for the reply. A run is
//! set-up (build + populate + warm-up) → timed region in [`CHUNKS`]
//! equal chunks → correctness checks. Op counts are fixed by the
//! workload's calibrated rate and `--seconds`, never by the clock, so
//! counts, allocations, the virtual clock and the state digest repeat
//! exactly for a given seed.
//!
//! Every timing is built from *fastest* chunks. The sandbox the
//! benchmark was built on flips, every few hundred milliseconds to
//! seconds, between two speeds about 1.5× apart for memory-bound code
//! (a neighbour on the host); the disturbance only ever slows a chunk.
//! Over ten runs the median chunk and the whole-region rate spread by
//! 11–41 % between runs, the fastest chunk by 3–12 %
//! (`perf/README.md`, "Steadiness"). So that the gated numbers still
//! cover the whole region — the systems grow while they run, and the
//! fastest chunk of all falls early — the region is cut into two
//! halves and each half counts at the rate of *its* fastest chunk.

use crate::harness::alloc::AllocSnapshot;
use crate::harness::json::Json;
use crate::harness::spans::{Recorder, SpanTotals};
use crate::harness::stats::{self, LatencySummary};
use crate::harness::{nanos_since, peak_rss_kib};
use dedisys_core::Cluster;
use dedisys_federation::{FederatedCluster, ShardId};
use dedisys_types::NodeId;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// The span recorder a workload shares with its request closures.
pub type SharedRecorder = Rc<RefCell<Recorder>>;

/// Chunks the timed region is split into, each about 0.2 s at the
/// calibrated rates: short enough that some fall entirely into the
/// machine's undisturbed state, long enough for a 99th percentile
/// (3 600 operations or more).
pub const CHUNKS: u64 = 40;

/// Whether chunk `chunk` of a traced run records spans. The pattern
/// `-++--++-…` puts traced and untraced chunks at nearly the same mean
/// position, so a throughput trend over the run (the journals grow)
/// does not show up as tracing overhead.
pub fn chunk_is_traced(chunk: u64) -> bool {
    matches!(chunk % 4, 1 | 2)
}

/// Monotonic totals read from the stack's own statistics. Per-op
/// counts are differences of two snapshots over the timed region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counters {
    /// `CcmStats::validations`.
    pub validations: u64,
    /// `CcmStats::threats_detected`.
    pub threats: u64,
    /// `RepositoryStats::lookups`.
    pub lookups: u64,
    /// `RepositoryStats::cache_hits`.
    pub cache_hits: u64,
    /// `ReplStats::messages` (update + confirmation per shipped copy).
    pub repl_messages: u64,
    /// `ReplStats::ship_retries`.
    pub ship_retries: u64,
    /// Journal entries summed over every node.
    pub wal_entries: u64,
    /// `TxStats::committed`.
    pub commits: u64,
    /// `TxStats::rolled_back`.
    pub rollbacks: u64,
    /// Requests admitted by request planes.
    pub plane_admitted: u64,
    /// Requests a plane rejected, shed, expired or saw fail.
    pub plane_lost: u64,
    /// Events emitted on telemetry buses.
    pub events: u64,
    /// Bytes the JSONL exporters wrote.
    pub telemetry_bytes: u64,
    /// Virtual time, ns.
    pub virt_ns: u64,
    /// Threat identities re-evaluated by reconciliations.
    pub threats_reevaluated: u64,
    /// Replica conflicts resolved by reconciliations.
    pub conflicts: u64,
    /// Partition → heal → reconcile cycles completed.
    pub cycles: u64,
}

impl Counters {
    /// The totals of one cluster (the harness-side fields are left for
    /// the caller).
    pub fn of_cluster(cluster: &Cluster) -> Self {
        let stats = cluster.stats();
        let repository = cluster.repository().stats();
        Self {
            validations: stats.ccm.validations,
            threats: stats.ccm.threats_detected,
            lookups: repository.lookups,
            cache_hits: repository.cache_hits,
            repl_messages: stats.replication.messages,
            ship_retries: stats.replication.ship_retries,
            wal_entries: (0..cluster.node_count())
                .map(|n| cluster.journal_len_on(NodeId(n)) as u64)
                .sum(),
            commits: stats.tx.committed,
            rollbacks: stats.tx.rolled_back,
            events: stats.events_emitted,
            virt_ns: stats.now_ns,
            ..Self::default()
        }
    }

    /// The totals of a federation: every shard and its request plane,
    /// the federation bus, the shared virtual clock.
    pub fn of_federation(fed: &FederatedCluster) -> Self {
        fed.telemetry().flush();
        let mut total = Self {
            events: fed.telemetry().events_emitted(),
            virt_ns: fed.now().as_nanos(),
            ..Self::default()
        };
        for shard in (0..fed.shard_count()).map(ShardId) {
            fed.shard(shard).telemetry().flush();
            let mut c = Self::of_cluster(fed.shard(shard));
            let plane = fed.plane(shard).stats().total();
            c.plane_admitted = plane.admitted;
            c.plane_lost = plane.rejected + plane.shed + plane.deadline_missed + plane.failed;
            total.absorb(&c);
        }
        total
    }

    /// Field-wise sum of the per-cluster fields (shards of a
    /// federation).
    fn absorb(&mut self, other: &Counters) {
        self.validations += other.validations;
        self.threats += other.threats;
        self.lookups += other.lookups;
        self.cache_hits += other.cache_hits;
        self.repl_messages += other.repl_messages;
        self.ship_retries += other.ship_retries;
        self.wal_entries += other.wal_entries;
        self.commits += other.commits;
        self.rollbacks += other.rollbacks;
        self.plane_admitted += other.plane_admitted;
        self.plane_lost += other.plane_lost;
        self.events += other.events;
    }

    /// The per-op (and per-cycle) counts between `earlier` and `self`
    /// over `ops` operations, by metric name.
    pub fn per_op(&self, earlier: &Counters, ops: u64) -> Vec<(&'static str, f64)> {
        let per = |now: u64, then: u64| (now - then) as f64 / ops as f64;
        let lookups = self.lookups - earlier.lookups;
        let cycles = self.cycles - earlier.cycles;
        let per_cycle = |now: u64, then: u64| {
            if cycles == 0 {
                0.0
            } else {
                (now - then) as f64 / cycles as f64
            }
        };
        vec![
            (
                "ccm.validations_per_op",
                per(self.validations, earlier.validations),
            ),
            ("ccm.threats_per_op", per(self.threats, earlier.threats)),
            (
                "repository.lookups_per_op",
                per(self.lookups, earlier.lookups),
            ),
            (
                "repository.cache_hit_ratio",
                if lookups == 0 {
                    0.0
                } else {
                    (self.cache_hits - earlier.cache_hits) as f64 / lookups as f64
                },
            ),
            // One ship is an update plus its confirmation.
            (
                "replication.ships_per_op",
                per(self.repl_messages, earlier.repl_messages) / 2.0,
            ),
            (
                "replication.ship_retries_per_op",
                per(self.ship_retries, earlier.ship_retries),
            ),
            (
                "store.wal_entries_per_op",
                per(self.wal_entries, earlier.wal_entries),
            ),
            ("tx.commits_per_op", per(self.commits, earlier.commits)),
            (
                "tx.rollbacks_per_op",
                per(self.rollbacks, earlier.rollbacks),
            ),
            (
                "plane.admitted_per_op",
                per(self.plane_admitted, earlier.plane_admitted),
            ),
            ("telemetry.events_per_op", per(self.events, earlier.events)),
            (
                "telemetry.bytes_per_op",
                per(self.telemetry_bytes, earlier.telemetry_bytes),
            ),
            (
                "reconcile.threats_reevaluated_per_cycle",
                per_cycle(self.threats_reevaluated, earlier.threats_reevaluated),
            ),
            (
                "reconcile.conflicts_per_cycle",
                per_cycle(self.conflicts, earlier.conflicts),
            ),
            ("virt_us_per_op", per(self.virt_ns, earlier.virt_ns) / 1e3),
        ]
    }
}

/// One system under load plus the generator's sequential model of it.
pub trait Workload {
    /// Work between operations that belongs to the workload's cycle but
    /// not to any one request (install a partition, reconcile). Runs
    /// inside the throughput clock, outside the latency clock.
    fn before_op(&mut self, _i: u64) {}

    /// Generates operation `i` from the seeded stream, executes it and
    /// updates the model. Returns whether the outcome was the expected
    /// one — a designed violation that is refused is expected, one
    /// that is accepted is not.
    fn op(&mut self, i: u64) -> bool;

    /// Completes any multi-op unit in flight (an open cycle).
    fn settle(&mut self) {}

    /// Current totals of the stack's statistics.
    fn counters(&self) -> Counters;

    /// End-of-run checks: final state equals the model on every
    /// replica, nothing left open or locked, counts as expected.
    /// Returns the state digest.
    ///
    /// # Errors
    ///
    /// The first check that failed, in words.
    fn verify(&self) -> Result<u64, String>;

    /// Wall times of the `heal()+reconcile()` of each completed cycle,
    /// ms (only `degraded_cycle` has cycles).
    fn cycle_ms(&self) -> &[f64] {
        &[]
    }
}

/// Builds and populates a workload's system for a seed.
pub type BuildFn = fn(u64, &SharedRecorder) -> Result<Box<dyn Workload>, String>;

/// A workload's entry in the table.
pub struct Spec {
    /// Name on the command line and in result files.
    pub name: &'static str,
    /// Why the workload is in the benchmark, in one line.
    pub why: &'static str,
    /// Timed operations per second of `--seconds`, calibrated once on
    /// the reference sandbox so the timed region lasts about
    /// `--seconds` there. A constant, not a measurement: a faster
    /// stack finishes the same work sooner.
    pub ops_per_second: u64,
    /// Operations per indivisible unit (a cycle, an abort period);
    /// chunk and warm-up lengths are multiples of it.
    pub unit: u64,
    /// Builds and populates the system for `seed`.
    pub build: BuildFn,
}

/// How much to run.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Seed of the op stream.
    pub seed: u64,
    /// Timed operations (a multiple of `CHUNKS × unit`).
    pub ops: u64,
    /// Untimed warm-up operations before them (a multiple of `unit`).
    pub warmup: u64,
    /// Record spans on half of the chunks (see [`chunk_is_traced`]).
    pub traced: bool,
    /// Times to set up (build + populate + warm up); `setup_s` is the
    /// fastest.
    pub setups: usize,
    /// Keep every span for `--spans-out`, not only the totals.
    pub keep_spans: bool,
}

impl Plan {
    /// The plan for `seconds` of `spec` at its calibrated rate: the
    /// first 5 % of the stream runs untimed as warm-up.
    pub fn for_seconds(spec: &Spec, seed: u64, seconds: f64, traced: bool) -> Self {
        let grain = CHUNKS * spec.unit;
        let wanted = (spec.ops_per_second as f64 * seconds) as u64;
        let ops = (wanted / grain).max(1) * grain;
        let warmup = (ops / 20).div_ceil(spec.unit) * spec.unit;
        Self {
            seed,
            ops,
            warmup,
            traced,
            setups: if traced { 1 } else { 5 },
            keep_spans: false,
        }
    }
}

/// Everything one run measured.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Workload name.
    pub workload: &'static str,
    /// The plan that was run.
    pub plan: Plan,
    /// Wall time of the timed region, s.
    pub wall_s: f64,
    /// Throughput of each chunk, 1/s.
    pub chunk_ops_per_s: Vec<f64>,
    /// Per-op latency over the whole timed region.
    pub latency: LatencySummary,
    /// Median latency of each chunk, ns.
    pub chunk_p50_ns: Vec<f64>,
    /// 99th-percentile latency of each chunk, ns.
    pub chunk_p99_ns: Vec<f64>,
    /// Allocator calls per timed op.
    pub allocs_per_op: f64,
    /// Allocated bytes per timed op.
    pub alloc_bytes_per_op: f64,
    /// `VmHWM`, MiB.
    pub peak_rss_mb: f64,
    /// Each set-up's wall time, s.
    pub setup_s: Vec<f64>,
    /// `heal()+reconcile()` wall time per cycle, ms (timed region).
    pub cycle_ms: Vec<f64>,
    /// Operations, warm-up included, whose outcome was not the expected
    /// one (`fail_share` = `failed` ÷ `attempted`).
    pub failed: u64,
    /// The end-of-run check that failed, if one did.
    pub check_failure: Option<String>,
    /// FNV-1a over the final object states and the virtual clock; 0 if
    /// a check failed.
    pub state_digest: u64,
    /// Exact counts per op / per cycle.
    pub counts: Vec<(&'static str, f64)>,
    /// Span totals of the traced chunks (traced runs only).
    pub spans: BTreeMap<&'static str, SpanTotals>,
    /// Every span, when the plan asked to keep them; else `null`.
    pub spans_json: Json,
}

impl RunResult {
    /// Operations attempted, warm-up included.
    pub fn attempted(&self) -> u64 {
        self.plan.ops + self.plan.warmup
    }

    /// Why the measurements do not count, if they do not: unexpected
    /// outcomes first, then a failed check.
    pub fn error(&self) -> Option<RunError> {
        if self.failed > 0 {
            Some(RunError::Failed {
                failed: self.failed,
                attempted: self.attempted(),
            })
        } else {
            self.check_failure.clone().map(RunError::Check)
        }
    }

    /// Throughput with the machine's disturbance taken out, 1/s: timed
    /// ops ÷ the time the region takes when each half runs at the rate
    /// of its fastest chunk (the harmonic mean of the two rates). A
    /// cost that grows with the state slows the late half and shows.
    pub fn ops_per_s(&self) -> f64 {
        let (early, late) = halves(&self.chunk_ops_per_s);
        let fastest = |chunks: &[f64]| chunks.iter().copied().fold(0.0, f64::max);
        2.0 / (1.0 / fastest(early) + 1.0 / fastest(late))
    }

    /// Timed ops ÷ wall time of the whole timed region, 1/s, disturbed
    /// chunks and all: reported beside `ops_per_s`, too unsteady on the
    /// reference sandbox to be gated.
    pub fn sustained_ops_per_s(&self) -> f64 {
        self.plan.ops as f64 / self.wall_s
    }

    /// Median latency, µs: the mean over the two halves of the timed
    /// region of the chunk median where it was lowest.
    pub fn p50_us(&self) -> f64 {
        let (early, late) = halves(&self.chunk_p50_ns);
        (lowest(early) + lowest(late)) / 2.0 / 1e3
    }

    /// 99th-percentile latency of the untraced chunk where it was
    /// lowest, µs. Not an end-to-end metric: between runs it spreads by
    /// up to 25 % on the reference sandbox, as wide as any bound the
    /// contract allows.
    pub fn p99_us(&self) -> f64 {
        self.chunks(&self.chunk_p99_ns, false)
            .reduce(f64::min)
            .unwrap_or(0.0)
            / 1e3
    }

    /// Fastest set-up, s.
    pub fn setup_s(&self) -> f64 {
        lowest(&self.setup_s)
    }

    /// Lower quartile of the per-cycle `heal()+reconcile()` times, ms:
    /// with hundreds of cycles per run it sits in the machine's
    /// undisturbed state without being an extreme value.
    pub fn reconcile_ms(&self) -> f64 {
        stats::quartiles(&self.cycle_ms).map_or(0.0, |[q1, _, _]| q1)
    }

    /// The per-chunk `values` of the chunks that recorded spans
    /// (`traced`) or did not; an untraced run has only the latter.
    fn chunks<'a>(&'a self, values: &'a [f64], traced: bool) -> impl Iterator<Item = f64> + 'a {
        values
            .iter()
            .enumerate()
            .filter(move |(i, _)| (self.plan.traced && chunk_is_traced(*i as u64)) == traced)
            .map(|(_, v)| *v)
    }

    /// Timed ops in the traced chunks of a traced run.
    pub fn traced_ops(&self) -> u64 {
        self.plan.ops / CHUNKS * self.chunks(&self.chunk_ops_per_s, true).count() as u64
    }

    /// Throughput of the fastest traced, or the fastest untraced,
    /// chunk, 1/s.
    pub fn chunk_rate(&self, traced: bool) -> f64 {
        self.chunks(&self.chunk_ops_per_s, traced)
            .fold(0.0, f64::max)
    }

    /// Mean wall time per op over the traced chunks, ns — the same ops
    /// the span totals cover, so the two can be compared.
    pub fn traced_wall_ns_per_op(&self) -> f64 {
        let chunks = self.chunks(&self.chunk_ops_per_s, true).count();
        if chunks == 0 {
            return 0.0;
        }
        self.chunks(&self.chunk_ops_per_s, true)
            .map(|rate| 1e9 / rate)
            .sum::<f64>()
            / chunks as f64
    }

    /// Throughput lost to span recording, %: one minus the fastest
    /// traced chunk over the fastest untraced one.
    pub fn trace_overhead_pct(&self) -> f64 {
        let (untraced, traced) = (self.chunk_rate(false), self.chunk_rate(true));
        if traced == 0.0 || untraced == 0.0 {
            0.0
        } else {
            (1.0 - traced / untraced) * 100.0
        }
    }
}

/// The per-chunk `values` of the first and of the second half of the
/// timed region.
fn halves(values: &[f64]) -> (&[f64], &[f64]) {
    values.split_at(values.len() / 2)
}

/// The smallest of `values`, or 0 if there are none.
fn lowest(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Why a run does not count. Only a failed set-up yields no
/// [`RunResult`]; the other two are read off one with
/// [`RunResult::error`], so the failure is on record with its counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// Set-up failed.
    Setup(String),
    /// An end-of-run correctness check failed.
    Check(String),
    /// Operations had unexpected outcomes (`fail_share` > 0).
    Failed {
        /// How many.
        failed: u64,
        /// Of how many attempted.
        attempted: u64,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Setup(why) => write!(f, "set-up failed: {why}"),
            RunError::Check(why) => write!(f, "correctness check failed: {why}"),
            RunError::Failed { failed, attempted } => write!(
                f,
                "{failed} of {attempted} operations had an unexpected outcome (fail_share > 0)"
            ),
        }
    }
}

/// Builds the system and runs the warm-up; returns it with the wall
/// time that took, s, and the warm-up ops with an unexpected outcome.
fn set_up(
    spec: &Spec,
    plan: &Plan,
    rec: &SharedRecorder,
) -> Result<(Box<dyn Workload>, f64, u64), RunError> {
    let started = Instant::now();
    let mut w = (spec.build)(plan.seed, rec).map_err(RunError::Setup)?;
    let mut failed = 0;
    for i in 0..plan.warmup {
        w.before_op(i);
        failed += u64::from(!w.op(i));
    }
    w.settle();
    Ok((w, started.elapsed().as_secs_f64(), failed))
}

/// Runs `spec` under `plan`.
///
/// # Errors
///
/// [`RunError::Setup`]. Unexpected outcomes and failed checks are part
/// of the result ([`RunResult::error`]).
pub fn run(spec: &Spec, plan: &Plan) -> Result<RunResult, RunError> {
    let per_chunk = plan.ops / CHUNKS;
    assert!(
        per_chunk > 0
            && per_chunk.is_multiple_of(spec.unit)
            && plan.warmup.is_multiple_of(spec.unit),
        "plan lengths must be multiples of the workload's unit"
    );
    // Room for the deepest span tree (root + 4) on every traced op, so
    // the recorder never reallocates inside the timed region.
    let span_room = if plan.traced {
        (plan.ops / 2 * 6) as usize + 1024
    } else {
        0
    };
    let rec: SharedRecorder = Rc::new(RefCell::new(Recorder::with_capacity(span_room)));

    // Half of the extra set-ups, timed only, run before the measured
    // system is built and half after the timed region: seconds apart,
    // so that one slow phase of the machine does not cover them all.
    let mut setup_s = Vec::with_capacity(plan.setups);
    for _ in 0..plan.setups.saturating_sub(1) / 2 {
        let (extra, seconds, _) = set_up(spec, plan, &rec)?;
        setup_s.push(seconds);
        drop(extra);
    }
    let (mut w, seconds, mut failed) = set_up(spec, plan, &rec)?;
    setup_s.push(seconds);

    let mut latencies: Vec<u64> = Vec::with_capacity(plan.ops as usize);
    let mut chunk_ops_per_s = Vec::with_capacity(CHUNKS as usize);
    let cycles_before = w.cycle_ms().len();
    let counters_before = w.counters();
    let allocs_before = AllocSnapshot::now();
    let region = Instant::now();
    for chunk in 0..CHUNKS {
        rec.borrow_mut()
            .set_enabled(plan.traced && chunk_is_traced(chunk));
        let chunk_started = Instant::now();
        for j in 0..per_chunk {
            let i = plan.warmup + chunk * per_chunk + j;
            w.before_op(i);
            rec.borrow_mut().next_request();
            let op_started = Instant::now();
            let root = rec.borrow_mut().enter("op");
            let ok = w.op(i);
            rec.borrow_mut().exit(root);
            latencies.push(nanos_since(op_started));
            failed += u64::from(!ok);
        }
        w.settle();
        let ns = nanos_since(chunk_started).max(1);
        chunk_ops_per_s.push(per_chunk as f64 * 1e9 / ns as f64);
    }
    let wall_s = region.elapsed().as_secs_f64();
    let allocs = AllocSnapshot::now().since(allocs_before);
    let counters_after = w.counters();
    rec.borrow_mut().set_enabled(false);

    let (state_digest, check_failure) = match w.verify() {
        Ok(digest) => (digest, None),
        Err(why) => (0, Some(why)),
    };
    let cycle_ms = w.cycle_ms()[cycles_before..].to_vec();
    // Percentiles per chunk first (the samples are still in op order),
    // then over the whole region.
    let per_chunk_latency: Vec<LatencySummary> = latencies
        .chunks_mut(per_chunk as usize)
        .map(|chunk| LatencySummary::of(chunk).expect("chunks are not empty"))
        .collect();
    let latency = LatencySummary::of(&mut latencies).expect("at least one timed op");
    let spans = rec.borrow().totals();
    let spans_json = if plan.keep_spans {
        rec.borrow().to_json()
    } else {
        Json::Null
    };
    let peak_rss_mb = peak_rss_kib().unwrap_or(0) as f64 / 1024.0;
    drop(w);

    // The remaining set-ups: `setup_s` is the fastest of them all.
    while setup_s.len() < plan.setups {
        let (extra, seconds, _) = set_up(spec, plan, &rec)?;
        setup_s.push(seconds);
        drop(extra);
    }

    Ok(RunResult {
        workload: spec.name,
        plan: *plan,
        wall_s,
        chunk_ops_per_s,
        latency,
        chunk_p50_ns: per_chunk_latency.iter().map(|l| l.p50_ns as f64).collect(),
        chunk_p99_ns: per_chunk_latency.iter().map(|l| l.p99_ns as f64).collect(),
        allocs_per_op: allocs.allocations as f64 / plan.ops as f64,
        alloc_bytes_per_op: allocs.bytes as f64 / plan.ops as f64,
        peak_rss_mb,
        setup_s,
        cycle_ms,
        failed,
        check_failure,
        state_digest,
        counts: counters_after.per_op(&counters_before, plan.ops),
        spans,
        spans_json,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Op `i` has an unexpected outcome when `i % 1000 == 7`, if
    /// `failing`; the final check fails if `broken`.
    struct Fake {
        failing: bool,
        broken: bool,
    }

    impl Workload for Fake {
        fn op(&mut self, i: u64) -> bool {
            !(self.failing && i % 1000 == 7)
        }

        fn counters(&self) -> Counters {
            Counters::default()
        }

        fn verify(&self) -> Result<u64, String> {
            if self.broken {
                Err("replicas differ".into())
            } else {
                Ok(0xfeed)
            }
        }
    }

    fn run_fake(build: BuildFn) -> RunResult {
        let spec = Spec {
            name: "fake",
            why: "",
            ops_per_second: 4_000,
            unit: 1,
            build,
        };
        let mut plan = Plan::for_seconds(&spec, 1, 1.0, false);
        plan.setups = 1;
        run(&spec, &plan).expect("set-up succeeds")
    }

    #[test]
    fn a_failed_run_is_on_record_with_its_counts() {
        let ok = run_fake(|_, _| {
            Ok(Box::new(Fake {
                failing: false,
                broken: false,
            }))
        });
        assert_eq!((ok.failed, ok.error(), ok.state_digest), (0, None, 0xfeed));
        assert_eq!(ok.attempted(), 4_200);

        // Ops 7, 1007, 2007, 3007 and 4007 of the 200 + 4 000.
        let failing = run_fake(|_, _| {
            Ok(Box::new(Fake {
                failing: true,
                broken: true,
            }))
        });
        assert_eq!(
            failing.error(),
            Some(RunError::Failed {
                failed: 5,
                attempted: 4_200
            })
        );
        assert_eq!(failing.chunk_ops_per_s.len(), CHUNKS as usize);

        let broken = run_fake(|_, _| {
            Ok(Box::new(Fake {
                failing: false,
                broken: true,
            }))
        });
        assert_eq!(
            broken.error(),
            Some(RunError::Check("replicas differ".into()))
        );
        assert_eq!((broken.failed, broken.state_digest), (0, 0));
    }

    #[test]
    fn both_halves_of_the_region_count() {
        let mut run = run_fake(|_, _| {
            Ok(Box::new(Fake {
                failing: false,
                broken: false,
            }))
        });
        let half = CHUNKS as usize / 2;
        // One fast chunk early, every late chunk at half its rate.
        run.chunk_ops_per_s = vec![80.0; half];
        run.chunk_ops_per_s[3] = 100.0;
        run.chunk_ops_per_s.extend(vec![50.0; half]);
        assert!((run.ops_per_s() - 2.0 / (1.0 / 100.0 + 1.0 / 50.0)).abs() < 1e-9);
        run.chunk_p50_ns = vec![12_000.0; half];
        run.chunk_p50_ns[3] = 10_000.0;
        run.chunk_p50_ns.extend(vec![20_000.0; half]);
        assert!((run.p50_us() - 15.0).abs() < 1e-9);
    }
}
