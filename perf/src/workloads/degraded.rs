//! `degraded_cycle`: degraded mode and the reconciliation phase.
//!
//! One 3-node cluster, 2 000 accounts, a tradeable `Floor` constraint.
//! A cycle is `partition({0,1},{2})` → 200 writes per side → `heal()`
//! → `reconcile(HighestVersionWins, repair)`. Side A writes 200
//! distinct keys once; side B writes 100 keys twice, 50 of them also
//! written by A, so every conflict has a strictly higher version on
//! side B and the model needs no tie-break. One write in ten is an
//! optimistic overdraft (`balance < floor`): degraded mode lets it
//! through as a *possibly violated* threat, and if it survives the
//! merge the reconciliation handler repairs it to the floor.

use crate::app::{
    account_ids, bank_app, check_quiescent, check_replicas, create_with, floor_constraint,
    FloorKind,
};
use crate::harness::rng::SplitMix64;
use crate::harness::{nanos_since, Fnv1a};
use crate::workload::{Counters, SharedRecorder, Workload};
use dedisys_core::{Cluster, ClusterBuilder, HighestVersionWins, ReconOps, ViolationReport};
use dedisys_types::{NodeId, ObjectId, Value};
use std::rc::Rc;
use std::time::Instant;

const NODES: u32 = 3;
const ACCOUNTS: usize = 2_000;
/// Writes per side per cycle.
const SIDE_WRITES: usize = 200;
/// Keys side B writes (twice each).
const SIDE_B_KEYS: usize = SIDE_WRITES / 2;
/// Keys written on both sides.
const OVERLAP: usize = 50;
/// Degraded writes per cycle.
pub const CYCLE_OPS: u64 = 2 * SIDE_WRITES as u64;
/// `floor` of every account.
const FLOOR: i64 = 0;
const MAX_BALANCE: i64 = 1_000_000;

/// The cluster under load, its sequential model and the open cycle.
pub struct DegradedCycle {
    cluster: Cluster,
    ids: Rc<[ObjectId]>,
    /// The balance every replica must hold once the cycle is reconciled.
    model: Vec<i64>,
    rng: SplitMix64,
    rec: SharedRecorder,
    /// A permutation of the key space; a cycle uses its first
    /// `SIDE_WRITES + SIDE_B_KEYS - OVERLAP` entries.
    keys: Vec<usize>,
    /// Last value each side wrote to a key in the open cycle.
    side_a: Vec<(usize, i64)>,
    side_b: Vec<(usize, i64)>,
    cycle_open: bool,
    cycle_ms: Vec<f64>,
    reevaluated: u64,
    conflicts: u64,
    /// Violations the handler repaired, and how many the model expects.
    repaired: u64,
    expected_repairs: u64,
    writes: u64,
    after_setup: Counters,
    /// First cycle whose reconciliation summary disagreed with the
    /// model, if any.
    mismatch: Option<String>,
}

/// Builds `degraded_cycle`.
pub fn build(seed: u64, rec: &SharedRecorder) -> Result<Box<dyn Workload>, String> {
    let mut cluster = ClusterBuilder::new(NODES, bank_app())
        .constraint(floor_constraint(FloorKind::Tradeable))
        .build()
        .map_err(|e| e.to_string())?;
    let ids = account_ids(ACCOUNTS);
    for id in ids.iter() {
        create_with(&mut cluster, id, &[("floor", Value::Int(FLOOR))])
            .map_err(|e| e.to_string())?;
    }
    let mut this = DegradedCycle {
        cluster,
        ids,
        model: vec![0; ACCOUNTS],
        rng: SplitMix64::new(seed),
        rec: rec.clone(),
        keys: (0..ACCOUNTS).collect(),
        side_a: Vec::with_capacity(SIDE_WRITES),
        side_b: Vec::with_capacity(SIDE_B_KEYS),
        cycle_open: false,
        cycle_ms: Vec::new(),
        reevaluated: 0,
        conflicts: 0,
        repaired: 0,
        expected_repairs: 0,
        writes: 0,
        after_setup: Counters::default(),
        mismatch: None,
    };
    this.after_setup = this.counters();
    Ok(Box::new(this))
}

impl DegradedCycle {
    fn begin_cycle(&mut self) {
        // Partial Fisher–Yates: the keys of this cycle, all distinct.
        let used = SIDE_WRITES + SIDE_B_KEYS - OVERLAP;
        for i in 0..used {
            let j = i + self.rng.below((ACCOUNTS - i) as u64) as usize;
            self.keys.swap(i, j);
        }
        self.side_a.clear();
        self.side_b.clear();
        let span = self.rec.borrow_mut().enter("cluster.partition");
        let partitioned = self
            .cluster
            .partition(&[vec![NodeId(0), NodeId(1)], vec![NodeId(2)]]);
        self.rec.borrow_mut().exit(span);
        if let Err(e) = partitioned {
            self.mismatch
                .get_or_insert(format!("partition refused: {e}"));
        }
        self.cycle_open = true;
    }

    fn end_cycle(&mut self) {
        let started = Instant::now();
        let span = self.rec.borrow_mut().enter("cluster.heal");
        self.cluster.heal();
        self.rec.borrow_mut().exit(span);

        let mut repaired = 0u64;
        let mut repair = |violation: &ViolationReport, ops: &mut ReconOps<'_>| {
            let Some(id) = violation.identity.context_object.as_ref() else {
                return false;
            };
            repaired += 1;
            ops.read(id, "floor")
                .and_then(|floor| ops.write(id, "balance", floor))
                .is_ok()
        };
        let span = self.rec.borrow_mut().enter("cluster.reconcile");
        let summary = self.cluster.reconcile(&mut HighestVersionWins, &mut repair);
        self.rec.borrow_mut().exit(span);
        self.cycle_ms.push(nanos_since(started) as f64 / 1e6);

        // The model: side B wins every key it wrote (higher version on
        // conflicts, missed update otherwise), side A the rest; a
        // surviving overdraft is repaired to the floor.
        let mut expected_repairs = 0u64;
        for &(k, balance) in self.side_a.iter().chain(&self.side_b) {
            self.model[k] = balance;
        }
        // A key written on both sides is visited twice but is at the
        // floor, not below it, the second time.
        for &(k, _) in self.side_a.iter().chain(&self.side_b) {
            if self.model[k] < FLOOR {
                self.model[k] = FLOOR;
                expected_repairs += 1;
            }
        }

        self.reevaluated += summary.constraints.re_evaluated as u64;
        self.conflicts += summary.replica.conflicts.len() as u64;
        self.repaired += repaired;
        self.expected_repairs += expected_repairs;
        let written = SIDE_WRITES + SIDE_B_KEYS - OVERLAP;
        if summary.replica.conflicts.len() != OVERLAP
            || summary.constraints.re_evaluated != written
            || summary.constraints.violations as u64 != expected_repairs
            || summary.constraints.resolved_by_handler as u64 != expected_repairs
            || repaired != expected_repairs
        {
            self.mismatch.get_or_insert(format!(
                "cycle {}: expected {OVERLAP} conflicts, {written} threats re-evaluated and \
                 {expected_repairs} repairs; reconciliation reports {} / {} / {} (handler ran {repaired}×)",
                self.cycle_ms.len(),
                summary.replica.conflicts.len(),
                summary.constraints.re_evaluated,
                summary.constraints.resolved_by_handler,
            ));
        }
        self.cycle_open = false;
    }

    /// A balance to write: one in ten below the floor.
    fn draw_balance(&mut self) -> i64 {
        if self.rng.below(10) == 0 {
            FLOOR - 1 - self.rng.between(0, 99)
        } else {
            self.rng.between(FLOOR, MAX_BALANCE)
        }
    }
}

impl Workload for DegradedCycle {
    fn before_op(&mut self, i: u64) {
        if i.is_multiple_of(CYCLE_OPS) {
            if self.cycle_open {
                self.end_cycle();
            }
            self.begin_cycle();
        }
    }

    fn op(&mut self, i: u64) -> bool {
        // The sides alternate. Side A (nodes 0, 1) walks its 200 keys
        // once; side B (node 2) walks its 100 keys twice, the first 50
        // of which are the last 50 of side A.
        let turn = (i % CYCLE_OPS) as usize / 2;
        let balance = self.draw_balance();
        let (node, k) = if i.is_multiple_of(2) {
            let k = self.keys[turn];
            self.side_a.push((k, balance));
            (NodeId(0), k)
        } else {
            let slot = turn % SIDE_B_KEYS;
            let k = self.keys[SIDE_WRITES - OVERLAP + slot];
            if turn < SIDE_B_KEYS {
                self.side_b.push((k, balance));
            } else {
                self.side_b[slot] = (k, balance);
            }
            (NodeId(2), k)
        };
        self.writes += 1;
        let mut session = self.cluster.session(node);
        let span = self.rec.borrow_mut().enter("session.invoke");
        let invoked = session.set_field(&self.ids[k], "balance", Value::Int(balance));
        self.rec.borrow_mut().exit(span);
        if invoked.is_err() {
            return false;
        }
        let span = self.rec.borrow_mut().enter("session.commit");
        let committed = session.commit();
        self.rec.borrow_mut().exit(span);
        committed.is_ok()
    }

    fn settle(&mut self) {
        if self.cycle_open {
            self.end_cycle();
        }
    }

    fn counters(&self) -> Counters {
        let mut c = Counters::of_cluster(&self.cluster);
        c.threats_reevaluated = self.reevaluated;
        c.conflicts = self.conflicts;
        c.cycles = self.cycle_ms.len() as u64;
        c
    }

    fn verify(&self) -> Result<u64, String> {
        if let Some(mismatch) = &self.mismatch {
            return Err(mismatch.clone());
        }
        if self.cycle_open {
            return Err("a cycle was left open".into());
        }
        let mut digest = Fnv1a::default();
        for (k, id) in self.ids.iter().enumerate() {
            if self.model[k] < FLOOR {
                return Err(format!("the model itself keeps {id} below the floor"));
            }
            check_replicas(&self.cluster, id, "balance", self.model[k], &mut digest)?;
        }
        check_quiescent(&self.cluster)?;
        if self.repaired != self.expected_repairs {
            return Err(format!(
                "{} overdrafts repaired, model expects {}",
                self.repaired, self.expected_repairs
            ));
        }
        let totals = self.counters();
        // Every degraded write commits; reconciliation itself opens one
        // checking transaction per cycle that it never commits.
        let commits = totals.commits - self.after_setup.commits;
        if commits != self.writes {
            return Err(format!("{} writes, but {commits} commits", self.writes));
        }
        digest.write_u64(totals.virt_ns);
        Ok(digest.finish())
    }

    fn cycle_ms(&self) -> &[f64] {
        &self.cycle_ms
    }
}
