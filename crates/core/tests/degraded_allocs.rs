//! Degraded mode allocates only what reconciliation reads back, and
//! reconciliation copies nothing per identity: a threat's journal key
//! and record are written into the store's buffer and allocated once
//! each, and re-evaluating a threat reads its record in place.
//!
//! A test binary of its own, because it installs the counting global
//! allocator (`crates/types/tests/support/counting_alloc.rs`).

use dedisys_constraints::{
    expr::ExprConstraint, ConstraintMeta, ContextPreparation, RegisteredConstraint,
};
use dedisys_core::{Cluster, ClusterBuilder, HighestVersionWins, ReconOps, ViolationReport};
use dedisys_object::{AppDescriptor, ClassDescriptor, EntityState};
use dedisys_types::{NodeId, ObjectId, SatisfactionDegree, Value};
use std::sync::Arc;

mod promise;

#[path = "../../types/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::paid;

/// What most of the rounds paid, and none paid less: the operation's
/// own allocations. The amortized growth of the tables that keep its
/// results (journals, indexes) lands on a round now and then.
fn least_paid_by_most(counts: &[u64]) -> u64 {
    let least = *counts.iter().min().expect("at least one round");
    let paying_least = counts.iter().filter(|&&n| n == least).count();
    assert!(2 * paying_least > counts.len(), "{counts:?}");
    least
}

/// Identities one degraded phase leaves to reconcile.
const IDENTITIES: usize = 64;
/// One write in this many is an overdraft the handler repairs.
const OVERDRAFT_EVERY: usize = 8;

/// A warm 3-node bank whose `Floor` invariant is tradeable down to
/// *possibly violated* (so in degraded mode every write stores a
/// threat), and its accounts.
fn bank() -> (Cluster, Vec<ObjectId>) {
    let app = AppDescriptor::new("bank").with_class(
        ClassDescriptor::new("Account")
            .with_field("balance", Value::Int(0))
            .with_field("floor", Value::Int(0)),
    );
    let floor = ExprConstraint::parse("self.balance >= self.floor").unwrap();
    let meta = ConstraintMeta::new("Floor").tradeable(SatisfactionDegree::PossiblyViolated);
    let constraint = RegisteredConstraint::new(meta, Arc::new(floor))
        .context_class("Account")
        .affects("Account", "setBalance", ContextPreparation::CalledObject);
    let mut cluster = ClusterBuilder::new(3, app)
        .constraint(constraint)
        .build()
        .unwrap();
    let ids: Vec<ObjectId> = (0..IDENTITIES)
        .map(|i| ObjectId::new("Account", format!("a{i:02}")))
        .collect();
    for id in &ids {
        cluster
            .run_tx(NodeId(0), |c, tx| {
                c.create(NodeId(0), tx, EntityState::for_class(c.app(), id)?)
            })
            .unwrap();
    }
    (cluster, ids)
}

/// One committed write of `balance` to `id`, issued on node 0.
fn write(cluster: &mut Cluster, id: &ObjectId, balance: i64) {
    let mut session = cluster.session(NodeId(0));
    session
        .set_field(id, "balance", Value::Int(balance))
        .unwrap();
    session.commit().unwrap();
}

/// One degraded phase: node 2 cut off, then one write to every account
/// from the majority side; every `OVERDRAFT_EVERY`th goes below the
/// floor. Returns what each write allocated.
fn degraded_phase(cluster: &mut Cluster, ids: &[ObjectId], round: usize) -> Vec<u64> {
    cluster
        .partition(&[vec![NodeId(0), NodeId(1)], vec![NodeId(2)]])
        .unwrap();
    let counts = ids
        .iter()
        .enumerate()
        .map(|(i, id)| {
            let balance = if i % OVERDRAFT_EVERY == 0 {
                -1
            } else {
                (round * IDENTITIES + i) as i64
            };
            paid(|| write(cluster, id, balance)).allocations
        })
        .collect();
    assert_eq!(cluster.threats().identity_count(), ids.len());
    counts
}

/// Heals and reconciles; the handler repairs an overdraft to the floor.
/// Returns what that allocated.
fn heal_and_reconcile(cluster: &mut Cluster) -> u64 {
    let mut repair = |violation: &ViolationReport, ops: &mut ReconOps<'_>| {
        let id = violation.identity.context_object.as_ref().unwrap();
        ops.read(id, "floor")
            .and_then(|floor| ops.write(id, "balance", floor))
            .is_ok()
    };
    let mut summary = None;
    let paid = paid(|| {
        cluster.heal();
        summary = Some(cluster.reconcile(&mut HighestVersionWins, &mut repair));
    })
    .allocations;
    let summary = summary.unwrap();
    assert_eq!(summary.constraints.re_evaluated, IDENTITIES);
    assert_eq!(
        summary.constraints.resolved_by_handler,
        IDENTITIES / OVERDRAFT_EVERY
    );
    assert!(cluster.threats().is_empty());
    paid
}

/// One test, so nothing else runs on this thread's counter.
#[test]
fn degraded_mode_allocates_only_what_reconciliation_reads() {
    let (mut cluster, ids) = bank();
    // Warm-up: every table a cycle fills and empties reaches its
    // working size.
    for round in 0..4 {
        degraded_phase(&mut cluster, &ids, round);
        heal_and_reconcile(&mut cluster);
    }
    let writes = degraded_phase(&mut cluster, &ids, 4);
    let reconciled = heal_and_reconcile(&mut cluster);

    // A degraded write that stores a new threat allocates 10 times,
    // every block kept until reconciliation reads it or later:
    //  - the copy-on-write clone of the account (its field list),
    //    which the commit keeps as the new state;
    //  - the threat's affected set, `{account}`;
    //  - the threat's journal key and its record, each an `Arc<str>`
    //    written into the store's buffer first;
    //  - the threat's filing: the record list of its identity, and the
    //    object index's set of identities touching the account;
    //  - the committed record as the `Arc<str>` every journal shares,
    //    and the `Arc` of the state;
    //  - the degraded-write entry naming the writer partition, and the
    //    history the rollback search may read.
    // The transaction's record and write buffer and `set_field`'s
    // argument list are spares of the transactions before.
    assert_eq!(least_paid_by_most(&writes), 10, "one degraded write");

    // Healing and reconciling the 64 identities allocates 72 times:
    //  - 32 for the repair of the 8 overdrafts: the violated threat's
    //    record, copied for the handler (its affected set), and the
    //    state written back (its copy, record and `Arc`);
    //  - 22 for the cycle's lists, a node or a buffer at a time: the
    //    identities to re-evaluate, those the dirty set touches, and
    //    the dirty set itself;
    //  - 18 for the healed topology and the views it installs.
    // A threat that re-evaluates to satisfied is read in place, and an
    // object's writer states and replicas too.
    assert!(
        reconciled <= 5 * IDENTITIES as u64 / 4,
        "{reconciled} allocations reconciling {IDENTITIES} identities"
    );
    // After the counted window: the audit allocates.
    promise::assert_kept(&cluster);
}
