//! `repro shard-sweep`: federated
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
//! The contract checked on every run: transferred
//! value is conserved across all shards in every cell (the chaos
//! engine's `xshard_conservation` invariant), every cell commits work,
//! the unpartitioned pattern rejects nothing, and the partitioned
//! patterns reject degraded-shard work. (The seeded cross-shard chaos
//! soak is `repro chaos-soak --shards K`.)
//!
//! Everything runs on the federation's shared virtual clock; the same
//! seed reproduces the table — and a `--trace` JSONL file — byte for
//! byte.

use crate::engine::{account_balance, chaos_app, fund_accounts, prepare_transfer};
use crate::invariant::InvariantChecker;
use crate::overload_sweep::arrival;
use crate::table::print_verdict;
use crate::{require, Run, Verdict};
use dedisys_federation::{FederatedCluster, RoutingPolicy, ShardId};
use dedisys_types::{NodeId, ObjectId, SimDuration, Value};

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

/// `--nodes` per shard (default 3) and `--ticks` (arrival ticks per
/// cell, default 30).
fn size(run: &Run) -> (u32, u32) {
    (run.nodes.unwrap_or(3), run.ticks.unwrap_or(30))
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
    violations: Vec<String>,
}

impl CellOutcome {
    fn abort_rate(&self) -> f64 {
        if self.xshard_begun == 0 {
            return 0.0;
        }
        self.xshard_aborted as f64 / self.xshard_begun as f64
    }
}

fn item(i: u64) -> ObjectId {
    ObjectId::new("Item", format!("I-{}", i % u64::from(ITEMS)))
}

fn account(i: u64) -> ObjectId {
    ObjectId::new("Account", format!("A-{}", i % u64::from(ACCOUNTS)))
}

fn build_federation(run: &Run, shards: u32, accounts: &[ObjectId]) -> FederatedCluster {
    let mut fed = FederatedCluster::builder(shards, size(run).0, chaos_app())
        .seed(run.seed)
        .policy(RoutingPolicy::RejectDegraded)
        .build()
        .expect("shard-sweep federation");
    run.trace.attach(fed.telemetry());
    for i in 0..u64::from(ITEMS) {
        fed.create(&item(i)).expect("seed item");
    }
    fund_accounts(&mut fed, accounts, BALANCE).expect("fund accounts");
    fed
}

/// One cross-shard transfer; every seventh loses its coordinator and
/// is recovered by presumed abort at a later tick.
fn transfer(fed: &mut FederatedCluster, counter: u64) {
    let a = account(counter);
    let b = account(counter + 1 + counter / u64::from(ACCOUNTS));
    if a == b {
        return;
    }
    let Ok(xtx) = prepare_transfer(fed, &a, &b, 1 + (counter % 5) as i64) else {
        return;
    };
    if counter % 7 == 6 {
        let _ = fed.crash_coordinator(xtx);
    } else {
        let _ = fed.xshard_commit(xtx);
    }
}

fn run_cell(run: &Run, shards: u32, load: u32, pattern: Pattern) -> CellOutcome {
    let (nodes, ticks) = size(run);
    let accounts: Vec<ObjectId> = (0..u64::from(ACCOUNTS)).map(account).collect();
    let mut fed = build_federation(run, shards, &accounts);
    let partition_tick = ticks / 3;
    let start = fed.clock().now();
    let mut arrivals = 0u64;
    let mut transfers = 0u64;
    for tick in 0..ticks {
        if tick == partition_tick {
            for s in pattern.targets(shards) {
                let cut = nodes / 2 + 1;
                let majority: Vec<NodeId> = (0..cut).map(NodeId).collect();
                let minority: Vec<NodeId> = (cut..nodes).map(NodeId).collect();
                if !minority.is_empty() {
                    fed.shard_mut(s)
                        .partition(&[majority, minority])
                        .expect("pattern partition");
                }
            }
        }
        for _ in 0..load {
            let (h, class) = arrival(run.seed, arrivals);
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

    let mut violations: Vec<_> = (0..shards)
        .flat_map(|s| InvariantChecker::check_running(fed.shard(ShardId(s))))
        .collect();
    let balances: Vec<_> = (accounts.iter())
        .map(|id| (id.clone(), account_balance(&fed, id)))
        .collect();
    violations.extend(InvariantChecker::check_federation(
        &fed,
        &balances,
        BALANCE * i64::from(ACCOUNTS),
        &[],
    ));
    let completed: u64 = (0..shards)
        .map(|s| fed.plane(ShardId(s)).stats().total().completed)
        .sum();
    let stats = fed.stats();
    CellOutcome {
        goodput: completed as f64 / f64::from(ticks),
        xshard_begun: stats.xshard_begun,
        xshard_aborted: stats.xshard_aborted,
        rejected_degraded: stats.rejected_degraded,
        violations: violations.iter().map(|v| v.to_string()).collect(),
    }
}

/// The shards × load × pattern table; contract: value is conserved
/// (and every federation invariant holds) in every cell, every cell
/// completes work, the unpartitioned pattern rejects nothing and the
/// partitioned patterns reject degraded-shard work.
pub fn run(run: &Run) -> Verdict {
    let (nodes, ticks) = size(run);
    require(nodes >= 2, "needs at least two nodes per shard")?;
    require(ticks >= 3, "needs at least three ticks")?;
    println!(
        "shard-sweep seed {} ({nodes} nodes/shard, {ticks} ticks, {STEPS_PER_TICK} dispatch steps/tick)",
        run.seed
    );
    println!(
        "  goodput = completed plane requests per tick; xshard aborts include presumed aborts"
    );
    println!("  shards | load/tick | partition    | goodput | xshard begun | xshard abort-rate | rejected");
    let mut failures = Vec::new();
    for &shards in SHARDS {
        for &load in LOADS {
            for pattern in [Pattern::None, Pattern::SingleShard, Pattern::HalfShards] {
                let cell = run_cell(run, shards, load, pattern);
                let (label, rejected) = (pattern.label(), cell.rejected_degraded);
                println!(
                    "  {shards:>6} | {load:>9} | {label:<12} | {:>7.1} | {:>12} | {:>17.2} | {rejected:>8}",
                    cell.goodput,
                    cell.xshard_begun,
                    cell.abort_rate(),
                );
                let at = format!("{shards} shards, load {load}, {label}");
                failures.extend(cell.violations.iter().map(|v| format!("{at}: {v}")));
                if cell.goodput <= 0.0 {
                    failures.push(format!("{at}: nothing completed"));
                }
                if (pattern == Pattern::None) == (rejected > 0) {
                    failures.push(format!("{at}: rejected {rejected} request(s)"));
                }
            }
        }
    }
    print_verdict(
        &failures,
        "value conserved in every cell; degraded shards reject, healthy shards serve",
    );
    Ok(failures)
}
