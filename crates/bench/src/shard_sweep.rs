//! The `shard-sweep` driver behind `repro shard-sweep`: federated
//! goodput and cross-shard abort rate per shard count × offered load
//! × partition pattern.
//!
//! Every cell builds a [`FederatedCluster`] under the
//! consistency-first `RejectDegraded` routing policy: single-shard
//! writes arrive through the per-shard request planes (token-bucket
//! admission + priority dispatch, mode-gated), and a steady trickle of
//! cross-shard balance transfers exercises the federation 2PC — with
//! every seventh transfer losing its federation coordinator and
//! recovering by presumed abort. Mid-run the partition pattern splits
//! zero, one, or half of the shards, so the table shows how shard-local
//! degradation converts offered load into routing rejections and
//! cross-shard aborts while the healthy shards keep serving.
//!
//! The contract checked on every run (exit 1 otherwise): transferred
//! value is conserved across all shards in every cell (the chaos
//! engine's `xshard_conservation` invariant), every cell commits work,
//! the unpartitioned pattern rejects nothing, and the partitioned
//! patterns reject degraded-shard work.
//!
//! `--sweep K` runs the federation chaos soak instead — K seeds of the
//! cross-shard transfer workload under random shard partitions and
//! coordinator crashes — and exits 1 on any invariant violation.
//!
//! Everything runs on the federation's shared virtual clock; the same
//! seed reproduces the table — and a `--trace` JSONL file — byte for
//! byte.

use dedisys_chaos::{check_federation, FederationChaosConfig, FederationChaosEngine};
use dedisys_federation::{FederatedCluster, RoutingPolicy, ShardId};
use dedisys_object::{AppDescriptor, ClassDescriptor};
use dedisys_types::{NodeId, ObjectId, PriorityClass, SimDuration, Value};
use std::path::PathBuf;

/// Shard counts swept by the table.
const SHARDS: &[u32] = &[2, 3, 4];

/// Offered single-shard loads, in requests per tick across the whole
/// federation.
const LOADS: &[u32] = &[4, 16];

/// Federation dispatch steps per tick (each step serves one plane
/// action per shard) — the simulated service capacity.
const STEPS_PER_TICK: u32 = 4;

/// Virtual length of one arrival tick.
const TICK: SimDuration = SimDuration::from_millis(10);

/// Items receiving single-shard writes.
const ITEMS: u32 = 16;

/// Accounts moving balance in cross-shard transfers.
const ACCOUNTS: u32 = 8;

/// Starting balance per account; `ACCOUNTS * BALANCE` is the conserved
/// total.
const BALANCE: i64 = 100;

/// CLI options of `repro shard-sweep`.
#[derive(Debug, Clone)]
pub struct ShardSweepOptions {
    /// Seed of the ring, the arrival mix, and (in `--sweep` mode) the
    /// chaos schedules.
    pub seed: u64,
    /// Nodes per shard.
    pub nodes: u32,
    /// Arrival ticks per table cell.
    pub ticks: u32,
    /// JSONL trace destination (cells append; federation bus only).
    pub trace: Option<PathBuf>,
    /// Run the K-seed federation chaos soak instead of the table.
    pub sweep: Option<u64>,
}

impl Default for ShardSweepOptions {
    fn default() -> Self {
        Self {
            seed: 0,
            nodes: 3,
            ticks: 30,
            trace: None,
            sweep: None,
        }
    }
}

/// Which shards the pattern partitions mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pattern {
    None,
    SingleShard,
    HalfShards,
}

impl Pattern {
    fn label(self) -> &'static str {
        match self {
            Pattern::None => "none",
            Pattern::SingleShard => "one-shard",
            Pattern::HalfShards => "half-shards",
        }
    }

    /// The shards this pattern splits, for a federation of `shards`.
    fn targets(self, shards: u32) -> Vec<ShardId> {
        match self {
            Pattern::None => Vec::new(),
            Pattern::SingleShard => vec![ShardId(0)],
            Pattern::HalfShards => (0..(shards / 2).max(1)).map(ShardId).collect(),
        }
    }
}

/// Measured outcome of one cell.
struct CellOutcome {
    /// Completed plane requests per tick.
    goodput: f64,
    /// Cross-shard transfers begun / aborted.
    xshard_begun: u64,
    xshard_aborted: u64,
    /// Requests refused by the degraded-shard routing policy.
    rejected_degraded: u64,
    /// Conservation (and other federation invariant) violations.
    violations: usize,
}

impl CellOutcome {
    fn abort_rate(&self) -> f64 {
        if self.xshard_begun == 0 {
            return 0.0;
        }
        self.xshard_aborted as f64 / self.xshard_begun as f64
    }
}

fn sweep_app() -> AppDescriptor {
    AppDescriptor::new("shard-sweep")
        .with_class(ClassDescriptor::new("Item").with_field("n", Value::Int(0)))
        .with_class(ClassDescriptor::new("Account").with_field("v", Value::Int(0)))
}

fn item(i: u64) -> ObjectId {
    ObjectId::new("Item", format!("I-{}", i % u64::from(ITEMS)))
}

fn account(i: u64) -> ObjectId {
    ObjectId::new("Account", format!("A-{}", i % u64::from(ACCOUNTS)))
}

fn build_federation(opts: &ShardSweepOptions, shards: u32) -> FederatedCluster {
    let mut fed = FederatedCluster::builder(shards, opts.nodes, sweep_app())
        .seed(opts.seed)
        .policy(RoutingPolicy::RejectDegraded)
        .xshard_timeout(SimDuration::from_millis(50))
        .build()
        .expect("shard-sweep federation");
    if let Some(path) = &opts.trace {
        crate::attach_jsonl(fed.telemetry(), path);
    }
    for i in 0..u64::from(ITEMS) {
        fed.create(&item(i)).expect("seed item");
    }
    for i in 0..u64::from(ACCOUNTS) {
        let id = account(i);
        fed.create(&id).expect("seed account");
        let target = id.clone();
        fed.run_routed(&id, |mut session| {
            session.set_field(&target, "v", Value::Int(BALANCE))?;
            session.commit()
        })
        .expect("fund account");
    }
    fed
}

/// The deterministic per-request mix (cf. `overload-sweep`): item and
/// class of the `i`-th arrival, derived from a splitmix-style hash of
/// the seed.
fn arrival(seed: u64, i: u64) -> (u64, PriorityClass) {
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

/// The committed balance of `id` on its owning shard.
fn balance(fed: &FederatedCluster, id: &ObjectId) -> Option<i64> {
    let owner = fed.map().shard_of(id);
    let node = fed.coordinator_node(owner)?;
    match fed.shard(owner).entity_on(node, id)?.field("v") {
        Value::Int(v) => Some(*v),
        _ => None,
    }
}

/// One cross-shard transfer; every seventh loses its coordinator and
/// is recovered by presumed abort at a later tick.
fn transfer(fed: &mut FederatedCluster, counter: u64) {
    let a = account(counter);
    let b = account(counter + 1 + counter / u64::from(ACCOUNTS));
    if a == b {
        return;
    }
    let (Some(cur_a), Some(cur_b)) = (balance(fed, &a), balance(fed, &b)) else {
        return;
    };
    let amount = 1 + (counter % 5) as i64;
    let xtx = fed.xshard_begin();
    let staged = fed
        .xshard_set_field(xtx, &a, "v", Value::Int(cur_a - amount))
        .and_then(|_| fed.xshard_set_field(xtx, &b, "v", Value::Int(cur_b + amount)));
    if staged.is_err() {
        let _ = fed.xshard_abort(xtx);
        return;
    }
    if fed.xshard_prepare(xtx).is_err() {
        return;
    }
    if counter % 7 == 6 {
        let _ = fed.crash_coordinator(xtx);
    } else {
        let _ = fed.xshard_commit(xtx);
    }
}

fn run_cell(opts: &ShardSweepOptions, shards: u32, load: u32, pattern: Pattern) -> CellOutcome {
    let mut fed = build_federation(opts, shards);
    let partition_tick = opts.ticks / 3;
    let start = fed.clock().now();
    let mut arrivals = 0u64;
    let mut transfers = 0u64;
    for tick in 0..opts.ticks {
        if tick == partition_tick {
            for s in pattern.targets(shards) {
                let cut = opts.nodes / 2 + 1;
                let majority: Vec<NodeId> = (0..cut).map(NodeId).collect();
                let minority: Vec<NodeId> = (cut..opts.nodes).map(NodeId).collect();
                if !minority.is_empty() {
                    fed.shard_mut(s)
                        .partition(&[majority, minority])
                        .expect("pattern partition");
                }
            }
        }
        for _ in 0..load {
            let (h, class) = arrival(opts.seed, arrivals);
            arrivals += 1;
            let id = item(h);
            let target = id.clone();
            let payload = (h >> 16) as i64 % 1_000;
            let _ = fed.submit(&id, class, move |mut session| {
                session.set_field(&target, "n", Value::Int(payload))?;
                session.commit()
            });
        }
        for _ in 0..2 {
            transfer(&mut fed, transfers);
            transfers += 1;
        }
        for _ in 0..STEPS_PER_TICK {
            if !fed.step() {
                break;
            }
        }
        fed.clock().advance_to(start + TICK * u64::from(tick + 1));
        fed.resolve_xshard_in_doubt();
    }
    // Drain: serve the backlog, then let every pending presumed-abort
    // deadline pass.
    fed.run_until_idle();
    fed.clock().advance(SimDuration::from_millis(100));
    fed.resolve_xshard_in_doubt();

    let accounts: Vec<ObjectId> = (0..u64::from(ACCOUNTS)).map(account).collect();
    let violations = check_federation(&fed, &accounts, BALANCE * i64::from(ACCOUNTS));
    for v in &violations {
        eprintln!(
            "shard-sweep: {shards} shards, load {load}, {}: {v}",
            pattern.label()
        );
    }
    let completed: u64 = (0..shards)
        .map(|s| fed.plane(ShardId(s)).stats().total().completed)
        .sum();
    let stats = fed.stats();
    CellOutcome {
        goodput: completed as f64 / f64::from(opts.ticks),
        xshard_begun: stats.xshard_begun,
        xshard_aborted: stats.xshard_aborted,
        rejected_degraded: stats.rejected_degraded,
        violations: violations.len(),
    }
}

/// The K-seed federation chaos soak behind `--sweep`.
fn run_soak(opts: &ShardSweepOptions, seeds: u64) {
    println!("shard-sweep soak: {seeds} seed(s) of the cross-shard transfer chaos workload");
    let mut failures = 0u64;
    for seed in 0..seeds {
        let report = FederationChaosEngine::new(FederationChaosConfig {
            seed: opts.seed.wrapping_add(seed),
            nodes_per_shard: opts.nodes,
            ..FederationChaosConfig::default()
        })
        .expect("soak federation")
        .run();
        let verdict = if report.clean() { "clean" } else { "VIOLATED" };
        println!(
            "  seed {:>4}: {} transfers ({} committed, {} aborted, {} presumed), {} partition(s), {} coordinator crash(es): {verdict}",
            report.seed,
            report.transfers,
            report.committed,
            report.aborted,
            report.presumed_aborted,
            report.partitions,
            report.coordinator_crashes,
        );
        for v in &report.violations {
            eprintln!("    {v}");
            failures += 1;
        }
    }
    if failures > 0 {
        eprintln!("shard-sweep soak: {failures} invariant violation(s)");
        std::process::exit(1);
    }
    println!("  verdict: value conserved and no orphaned cross-shard locks on every seed");
}

/// Runs the sweep (or the `--sweep` soak) per `opts`; exits the
/// process with status 1 when the contract fails.
pub fn run(opts: &ShardSweepOptions) {
    if let Some(seeds) = opts.sweep {
        run_soak(opts, seeds);
        return;
    }
    println!(
        "shard-sweep seed {} ({} nodes/shard, {} ticks, {} dispatch steps/tick)",
        opts.seed, opts.nodes, opts.ticks, STEPS_PER_TICK
    );
    println!(
        "  goodput = completed plane requests per tick; xshard aborts include presumed aborts"
    );
    println!("  shards | load/tick | partition    | goodput | xshard begun | xshard abort-rate | rejected");
    let mut failures = 0u64;
    for &shards in SHARDS {
        for &load in LOADS {
            for pattern in [Pattern::None, Pattern::SingleShard, Pattern::HalfShards] {
                let cell = run_cell(opts, shards, load, pattern);
                println!(
                    "  {shards:>6} | {load:>9} | {:<12} | {:>7.1} | {:>12} | {:>17.2} | {:>8}",
                    pattern.label(),
                    cell.goodput,
                    cell.xshard_begun,
                    cell.abort_rate(),
                    cell.rejected_degraded,
                );
                failures += cell.violations as u64;
                if cell.goodput <= 0.0 {
                    eprintln!(
                        "shard-sweep: {shards} shards, load {load}, {}: nothing completed",
                        pattern.label()
                    );
                    failures += 1;
                }
                if pattern == Pattern::None && cell.rejected_degraded > 0 {
                    eprintln!(
                        "shard-sweep: {shards} shards, load {load}: rejected {} request(s) with no partition",
                        cell.rejected_degraded
                    );
                    failures += 1;
                }
                if pattern != Pattern::None && cell.rejected_degraded == 0 {
                    eprintln!(
                        "shard-sweep: {shards} shards, load {load}, {}: partitioned shards rejected nothing",
                        pattern.label()
                    );
                    failures += 1;
                }
            }
        }
    }
    println!(
        "  verdict: {}",
        if failures == 0 {
            "value conserved in every cell; degraded shards reject, healthy shards serve"
                .to_string()
        } else {
            format!("{failures} FAILURE(S)")
        }
    );
    if failures > 0 {
        std::process::exit(1);
    }
}
