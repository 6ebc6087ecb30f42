//! `xshard_transfer`: cross-shard transfers as explicit two-phase
//! commits through the federation coordinator.
//!
//! A 4 × 3 federation with 4 000 accounts. An operation moves an amount
//! between two accounts on different shards with
//! `xshard_begin / xshard_set_field ×2 / xshard_prepare /
//! xshard_commit`; every 16th is aborted after a successful prepare
//! and must leave both accounts untouched.

use crate::app::{bank_federation, check_quiescent, check_replicas};
use crate::harness::rng::SplitMix64;
use crate::harness::Fnv1a;
use crate::workload::{Counters, SharedRecorder, Workload};
use dedisys_federation::{FederatedCluster, ShardId};
use dedisys_types::{ObjectId, Result, Value};
use std::rc::Rc;

const SHARDS: u32 = 4;
const NODES: u32 = 3;
const ACCOUNTS: usize = 4_000;
/// Balance every account starts with.
const OPENING: i64 = 1_000;
/// One transfer in this many is aborted after prepare.
pub const ABORT_PERIOD: u64 = 16;

/// The federation under load and its sequential model.
pub struct XShardTransfer {
    fed: FederatedCluster,
    ids: Rc<[ObjectId]>,
    /// Owning shard of each account, fixed for the run.
    shard_of: Vec<ShardId>,
    model: Vec<i64>,
    rng: SplitMix64,
    rec: SharedRecorder,
    committed: u64,
    aborted: u64,
    after_setup: Counters,
}

/// Builds `xshard_transfer`.
pub fn build(seed: u64, rec: &SharedRecorder) -> std::result::Result<Box<dyn Workload>, String> {
    let (mut fed, ids) = bank_federation(SHARDS, NODES, ACCOUNTS).map_err(|e| e.to_string())?;
    for id in ids.iter() {
        fed.run_routed(id, |mut session| {
            session.set_field(id, "balance", Value::Int(OPENING))?;
            session.commit()
        })
        .map_err(|e| e.to_string())?;
    }
    let shard_of = ids.iter().map(|id| fed.map().shard_of(id)).collect();
    let mut this = XShardTransfer {
        fed,
        ids,
        shard_of,
        model: vec![OPENING; ACCOUNTS],
        rng: SplitMix64::new(seed),
        rec: rec.clone(),
        committed: 0,
        aborted: 0,
        after_setup: Counters::default(),
    };
    this.after_setup = this.counters();
    Ok(Box::new(this))
}

impl XShardTransfer {
    /// Stages both writes and prepares; the caller decides the outcome.
    fn stage_and_prepare(&mut self, xtx: u64, from: usize, to: usize, amount: i64) -> Result<()> {
        let span = self.rec.borrow_mut().enter("federation.xshard_stage");
        let staged = self
            .fed
            .xshard_set_field(
                xtx,
                &self.ids[from],
                "balance",
                Value::Int(self.model[from] - amount),
            )
            .and_then(|_| {
                self.fed.xshard_set_field(
                    xtx,
                    &self.ids[to],
                    "balance",
                    Value::Int(self.model[to] + amount),
                )
            });
        self.rec.borrow_mut().exit(span);
        staged?;
        let span = self.rec.borrow_mut().enter("federation.xshard_prepare");
        let prepared = self.fed.xshard_prepare(xtx);
        self.rec.borrow_mut().exit(span);
        prepared
    }
}

impl Workload for XShardTransfer {
    fn op(&mut self, i: u64) -> bool {
        let from = self.rng.below(ACCOUNTS as u64) as usize;
        // The partner is the next account in key order on another
        // shard: with four shards it is a few steps away at most.
        let mut to = self.rng.below(ACCOUNTS as u64) as usize;
        while self.shard_of[to] == self.shard_of[from] {
            to = (to + 1) % ACCOUNTS;
        }
        // Never below the floor of 0, so no transfer is a violation.
        let amount = self.rng.between(0, self.model[from]);

        let xtx = self.fed.xshard_begin();
        if self.stage_and_prepare(xtx, from, to, amount).is_err() {
            let _ = self.fed.xshard_abort(xtx);
            return false;
        }
        if i % ABORT_PERIOD == ABORT_PERIOD - 1 {
            let span = self.rec.borrow_mut().enter("federation.xshard_abort");
            let aborted = self.fed.xshard_abort(xtx);
            self.rec.borrow_mut().exit(span);
            self.aborted += 1;
            aborted.is_ok()
        } else {
            let span = self.rec.borrow_mut().enter("federation.xshard_commit");
            let committed = self.fed.xshard_commit(xtx);
            self.rec.borrow_mut().exit(span);
            self.committed += 1;
            self.model[from] -= amount;
            self.model[to] += amount;
            committed.is_ok()
        }
    }

    fn counters(&self) -> Counters {
        Counters::of_federation(&self.fed)
    }

    fn verify(&self) -> std::result::Result<u64, String> {
        let mut digest = Fnv1a::default();
        for (k, id) in self.ids.iter().enumerate() {
            let shard = self.fed.shard(self.shard_of[k]);
            check_replicas(shard, id, "balance", self.model[k], &mut digest)?;
        }
        let sum: i64 = self.model.iter().sum();
        if sum != OPENING * ACCOUNTS as i64 {
            return Err(format!("transfers did not conserve money: total {sum}"));
        }
        for shard in (0..SHARDS).map(ShardId) {
            check_quiescent(self.fed.shard(shard)).map_err(|e| format!("{shard}: {e}"))?;
        }
        let stats = self.fed.stats();
        if stats.xshard_committed != self.committed || stats.xshard_aborted != self.aborted {
            return Err(format!(
                "{} transfers committed and {} aborted, the federation counts {} and {}",
                self.committed, self.aborted, stats.xshard_committed, stats.xshard_aborted
            ));
        }
        // Two participant transactions per transfer.
        let totals = self.counters();
        let commits = totals.commits - self.after_setup.commits;
        let rollbacks = totals.rollbacks - self.after_setup.rollbacks;
        if commits != 2 * self.committed || rollbacks != 2 * self.aborted {
            return Err(format!(
                "participants: {commits} commits and {rollbacks} rollbacks for {} transfers and {} aborts",
                self.committed, self.aborted
            ));
        }
        digest.write_u64(totals.virt_ns);
        Ok(digest.finish())
    }
}
