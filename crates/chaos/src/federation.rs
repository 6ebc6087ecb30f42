//! Federation chaos: a seeded cross-shard *transfer* workload driven
//! against a [`FederatedCluster`] under shard-local partitions and
//! federation-coordinator crashes, with conservation invariants
//! checked after every operation.
//!
//! The workload moves balance between accounts that live on different
//! shards, so every committed transaction is a genuine cross-shard
//! 2PC. Two invariants make atomicity violations visible as data:
//!
//! * **value conservation** — the committed balances across all
//!   shards always sum to the initial total. A transfer that commits
//!   its debit but loses its credit (or vice versa) breaks the sum
//!   immediately, in whatever partition state the federation is in.
//! * **transaction conservation** — every begun cross-shard
//!   transaction is committed, aborted, or still open, and no
//!   *resolved* transaction's participant still holds a lock.
//!
//! Like the node-level [`ChaosEngine`](crate::ChaosEngine), a run is a
//! reproducible artifact: all decisions flow from one seed through
//! [`ChaosRng`], all time from the federation's shared virtual clock.

use crate::invariant::{InvariantChecker, InvariantViolation};
use dedisys_core::{DeferAll, HighestVersionWins};
use dedisys_federation::{FederatedCluster, RoutingPolicy, ShardId};
use dedisys_object::{AppDescriptor, ClassDescriptor};
use dedisys_telemetry::Telemetry;
use dedisys_types::{ChaosRng, NodeId, ObjectId, Result, SimDuration, SystemMode, Value};

/// Configuration of one federation chaos run. Every field participates
/// in determinism: equal configs (and seeds) yield equal runs.
#[derive(Debug, Clone)]
pub struct FederationChaosConfig {
    /// Seed of every random decision.
    pub seed: u64,
    /// Shards in the federation.
    pub shards: u32,
    /// Nodes per shard.
    pub nodes_per_shard: u32,
    /// Accounts created up front (spread over the shards by the ring).
    pub objects: u32,
    /// Transfer operations to attempt.
    pub ops: u64,
    /// Starting balance of every account; `objects * initial_balance`
    /// is the conserved total.
    pub initial_balance: i64,
    /// Per-op percent chance to partition one healthy shard.
    pub partition_pct: u64,
    /// Per-op percent chance to heal (and reconcile) one faulted
    /// shard.
    pub heal_pct: u64,
    /// Percent of prepared transfers explicitly aborted.
    pub abort_pct: u64,
    /// Percent of prepared transfers whose federation coordinator
    /// crashes (recovered later by presumed abort).
    pub coordinator_crash_pct: u64,
    /// Presumed-abort deadline for coordinator-crashed transfers.
    pub xshard_timeout: SimDuration,
}

impl Default for FederationChaosConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            shards: 3,
            nodes_per_shard: 3,
            objects: 12,
            ops: 200,
            initial_balance: 100,
            partition_pct: 15,
            heal_pct: 30,
            abort_pct: 10,
            coordinator_crash_pct: 10,
            xshard_timeout: SimDuration::from_millis(50),
        }
    }
}

/// Outcome of one federation chaos run.
#[derive(Debug, Clone)]
pub struct FederationChaosReport {
    /// The seed that produced this run.
    pub seed: u64,
    /// Transfers attempted.
    pub transfers: u64,
    /// Transfers committed on every participant.
    pub committed: u64,
    /// Transfers aborted (explicitly, by refusal, or presumed).
    pub aborted: u64,
    /// Aborts recovered by federation-level presumed abort.
    pub presumed_aborted: u64,
    /// Shard partitions injected.
    pub partitions: u64,
    /// Shard heal/reconcile cycles run.
    pub heals: u64,
    /// Federation coordinator crashes injected.
    pub coordinator_crashes: u64,
    /// Every invariant violation observed, in order.
    pub violations: Vec<InvariantViolation>,
}

impl FederationChaosReport {
    /// `true` when no invariant was violated at any point.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The federation-wide invariants (see the module docs): per-shard
/// running invariants, cross-shard value conservation over `accounts`,
/// cross-shard transaction conservation, and zero orphaned locks for
/// resolved cross-shard transactions.
pub fn check_federation(
    fed: &FederatedCluster,
    accounts: &[ObjectId],
    expected_total: i64,
) -> Vec<InvariantViolation> {
    let mut out = Vec::new();
    for s in 0..fed.shard_count() {
        out.extend(InvariantChecker::check_running(fed.shard(ShardId(s))));
    }

    let mut total = 0i64;
    for id in accounts {
        let owner = fed.map().shard_of(id);
        let value = fed
            .coordinator_node(owner)
            .and_then(|node| fed.shard(owner).entity_on(node, id))
            .map(|entity| entity.field("v").clone());
        match value {
            Some(Value::Int(v)) => total += v,
            other => out.push(InvariantViolation {
                invariant: "xshard_conservation",
                detail: format!("account {id} unreadable on {owner}: {other:?}"),
            }),
        }
    }
    if total != expected_total {
        out.push(InvariantViolation {
            invariant: "xshard_conservation",
            detail: format!("committed balances sum to {total}, expected {expected_total}"),
        });
    }

    let stats = fed.stats();
    let open = fed.open_xshard_count() as u64;
    if stats.xshard_begun != stats.xshard_committed + stats.xshard_aborted + open {
        out.push(InvariantViolation {
            invariant: "xshard_tx_conservation",
            detail: format!(
                "begun={} != committed={} + aborted={} + open={open}",
                stats.xshard_begun, stats.xshard_committed, stats.xshard_aborted
            ),
        });
    }

    for (xtx, outcome) in fed.xshard_outcomes() {
        for (shard, tx) in &outcome.participants {
            let cluster = fed.shard(*shard);
            let shard_in_doubt = cluster.in_doubt_txs().any(|(t, _)| t == *tx);
            if !shard_in_doubt && cluster.held_locks().iter().any(|(_, t)| t == tx) {
                out.push(InvariantViolation {
                    invariant: "xshard_no_orphaned_locks",
                    detail: format!("resolved xtx {xtx}: participant {tx} on {shard} holds a lock"),
                });
            }
        }
    }
    out
}

/// Drives the seeded cross-shard transfer workload. See the module
/// docs.
pub struct FederationChaosEngine {
    config: FederationChaosConfig,
    rng: ChaosRng,
    fed: FederatedCluster,
    accounts: Vec<ObjectId>,
    expected_total: i64,
}

impl FederationChaosEngine {
    /// Builds the federation and seeds every account.
    ///
    /// # Errors
    ///
    /// Invalid federation shape, or a failed seeding write.
    pub fn new(config: FederationChaosConfig) -> Result<Self> {
        let mut fed = FederatedCluster::builder(config.shards, config.nodes_per_shard, chaos_app())
            .seed(config.seed)
            .policy(RoutingPolicy::RouteAnyway)
            .xshard_timeout(config.xshard_timeout)
            .build()?;
        let mut accounts = Vec::with_capacity(config.objects as usize);
        for i in 0..config.objects {
            let id = ObjectId::new("Account", format!("acct-{i}"));
            fed.create(&id)?;
            let balance = config.initial_balance;
            let target = id.clone();
            fed.run_routed(&id, |mut session| {
                session.set_field(&target, "v", Value::Int(balance))?;
                session.commit()
            })?;
            accounts.push(id);
        }
        let expected_total = config.initial_balance * i64::from(config.objects);
        Ok(Self {
            rng: ChaosRng::new(config.seed),
            config,
            fed,
            accounts,
            expected_total,
        })
    }

    /// The federation telemetry bus (for attaching exporters before
    /// [`FederationChaosEngine::run`]).
    pub fn telemetry(&self) -> &Telemetry {
        self.fed.telemetry()
    }

    /// Runs the configured number of operations and returns the
    /// report. Never panics on a violation — violations are data.
    pub fn run(mut self) -> FederationChaosReport {
        let mut violations = Vec::new();
        let mut partitions = 0u64;
        let mut heals = 0u64;
        let mut crashes = 0u64;
        for _ in 0..self.config.ops {
            self.fed.clock().advance(SimDuration::from_millis(1));
            self.inject_shard_faults(&mut partitions, &mut heals);
            self.transfer(&mut crashes);
            self.fed.resolve_xshard_in_doubt();
            for s in 0..self.fed.shard_count() {
                self.fed.shard_mut(ShardId(s)).resolve_in_doubt();
            }
            violations.extend(check_federation(
                &self.fed,
                &self.accounts,
                self.expected_total,
            ));
        }

        // Drain: let every pending presumed-abort deadline pass, then
        // heal the world and check once more from a quiet state.
        self.fed.clock().advance(self.config.xshard_timeout * 2);
        self.fed.resolve_xshard_in_doubt();
        for s in 0..self.fed.shard_count() {
            let shard = self.fed.shard_mut(ShardId(s));
            shard.resolve_in_doubt();
            if shard.mode() != SystemMode::Healthy {
                shard.heal();
                shard.reconcile(&mut HighestVersionWins, &mut DeferAll);
            }
        }
        if self.fed.open_xshard_count() != 0 {
            violations.push(InvariantViolation {
                invariant: "xshard_drained",
                detail: format!(
                    "{} cross-shard transaction(s) still open after the drain",
                    self.fed.open_xshard_count()
                ),
            });
        }
        for s in 0..self.fed.shard_count() {
            let locks = self.fed.shard(ShardId(s)).held_locks();
            if !locks.is_empty() {
                violations.push(InvariantViolation {
                    invariant: "xshard_no_orphaned_locks",
                    detail: format!(
                        "shard S{s} still holds {} lock(s) after the drain",
                        locks.len()
                    ),
                });
            }
        }
        violations.extend(check_federation(
            &self.fed,
            &self.accounts,
            self.expected_total,
        ));

        let stats = *self.fed.stats();
        FederationChaosReport {
            seed: self.config.seed,
            transfers: stats.xshard_begun,
            committed: stats.xshard_committed,
            aborted: stats.xshard_aborted,
            presumed_aborted: stats.xshard_presumed_aborted,
            partitions,
            heals,
            coordinator_crashes: crashes,
            violations,
        }
    }

    /// Maybe partitions one healthy shard (majority/minority split)
    /// and maybe heals + reconciles one degraded shard.
    fn inject_shard_faults(&mut self, partitions: &mut u64, heals: &mut u64) {
        let shard_count = self.fed.shard_count();
        if self.rng.chance(self.config.partition_pct) {
            let s = ShardId(self.rng.below(u64::from(shard_count)) as u32);
            if self.fed.shard(s).mode() == SystemMode::Healthy {
                let nodes = self.config.nodes_per_shard;
                let cut = nodes / 2 + 1; // strict majority keeps node 0 writable
                let majority: Vec<NodeId> = (0..cut).map(NodeId).collect();
                let minority: Vec<NodeId> = (cut..nodes).map(NodeId).collect();
                if !minority.is_empty()
                    && self
                        .fed
                        .shard_mut(s)
                        .partition(&[majority, minority])
                        .is_ok()
                {
                    *partitions += 1;
                }
            }
        }
        if self.rng.chance(self.config.heal_pct) {
            let s = ShardId(self.rng.below(u64::from(shard_count)) as u32);
            if self.fed.shard(s).mode() == SystemMode::Degraded {
                let shard = self.fed.shard_mut(s);
                shard.heal();
                shard.reconcile(&mut HighestVersionWins, &mut DeferAll);
                *heals += 1;
            }
        }
    }

    /// One cross-shard transfer: debit one account, credit another,
    /// then commit, abort, or crash the coordinator per the dice.
    fn transfer(&mut self, crashes: &mut u64) {
        let n = self.accounts.len() as u64;
        let ai = self.rng.below(n) as usize;
        let mut bi = self.rng.below(n) as usize;
        if bi == ai {
            bi = (bi + 1) % self.accounts.len();
        }
        let a = self.accounts[ai].clone();
        let b = self.accounts[bi].clone();
        let amount = 1 + self.rng.below(5) as i64;
        let (Some(cur_a), Some(cur_b)) = (self.balance(&a), self.balance(&b)) else {
            return;
        };
        let xtx = self.fed.xshard_begin();
        let staged = self
            .fed
            .xshard_set_field(xtx, &a, "v", Value::Int(cur_a - amount))
            .and_then(|_| {
                self.fed
                    .xshard_set_field(xtx, &b, "v", Value::Int(cur_b + amount))
            });
        if staged.is_err() {
            let _ = self.fed.xshard_abort(xtx);
            return;
        }
        if self.fed.xshard_prepare(xtx).is_err() {
            return; // already resolved aborted by the prepare path
        }
        if self.rng.chance(self.config.abort_pct) {
            let _ = self.fed.xshard_abort(xtx);
        } else if self.rng.chance(self.config.coordinator_crash_pct) {
            if self.fed.crash_coordinator(xtx).is_ok() {
                *crashes += 1;
            }
        } else {
            let _ = self.fed.xshard_commit(xtx);
        }
    }

    /// The committed balance of `id` on its owning shard.
    fn balance(&self, id: &ObjectId) -> Option<i64> {
        let owner = self.fed.map().shard_of(id);
        let node = self.fed.coordinator_node(owner)?;
        match self.fed.shard(owner).entity_on(node, id)?.field("v") {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }
}

fn chaos_app() -> AppDescriptor {
    AppDescriptor::new("federation-chaos")
        .with_class(ClassDescriptor::new("Account").with_field("v", Value::Int(0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(seed: u64) -> FederationChaosReport {
        FederationChaosEngine::new(FederationChaosConfig {
            seed,
            ops: 80,
            ..FederationChaosConfig::default()
        })
        .unwrap()
        .run()
    }

    #[test]
    fn runs_are_clean_and_exercise_every_outcome() {
        let r = report(3);
        assert!(r.clean(), "{:?}", r.violations);
        assert!(r.committed > 0, "no transfer committed");
        assert!(r.aborted > 0, "no transfer aborted");
        assert_eq!(r.transfers, r.committed + r.aborted);
    }

    #[test]
    fn equal_seeds_equal_reports() {
        let (a, b) = (report(7), report(7));
        assert_eq!(a.transfers, b.transfers);
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.aborted, b.aborted);
        assert_eq!(a.presumed_aborted, b.presumed_aborted);
        assert_eq!(a.partitions, b.partitions);
        assert_eq!(a.coordinator_crashes, b.coordinator_crashes);
    }

    #[test]
    fn small_seed_sweep_conserves_value_everywhere() {
        for seed in 0..6 {
            let r = report(seed);
            assert!(r.clean(), "seed {seed}: {:?}", r.violations);
        }
    }
}
