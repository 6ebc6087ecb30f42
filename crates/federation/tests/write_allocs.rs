//! A write allocates only what it keeps: the routed replicated write
//! and the cross-shard 2PC path build no scratch set, vector or unused
//! error text, an entity's copy is exactly its fields and shares their
//! names with its class, and a commit encodes its record into the container's buffer.
//!
//! A test binary of its own, because it installs the counting global
//! allocator (`crates/types/tests/support/counting_alloc.rs`).

use dedisys_constraints::{
    expr::ExprConstraint, ConstraintMeta, ContextPreparation, RegisteredConstraint,
};
use dedisys_federation::{FederatedCluster, ShardId};
use dedisys_object::{AppDescriptor, ClassDescriptor};
use dedisys_types::{FieldName, ObjectId, PriorityClass, Value};
use std::sync::Arc;

#[path = "../../types/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{paid, Paid};

/// What most of `rounds` runs of `op` allocate, and none allocates
/// less: the operation's own allocations. The amortized growth of the
/// tables that keep its results (the journals) lands on a run now and
/// then.
fn per_op(rounds: usize, mut op: impl FnMut(usize)) -> Paid {
    let mut paid_by_round = vec![Paid::default(); rounds];
    for (round, paid_here) in paid_by_round.iter_mut().enumerate() {
        *paid_here = paid(|| op(round));
    }
    let least = *paid_by_round.iter().min().expect("at least one round");
    let paying_least = paid_by_round.iter().filter(|&&p| p == least).count();
    assert!(2 * paying_least > rounds, "{paid_by_round:?}");
    least
}

/// A warm 2-shard × 3-node bank federation carrying the intra-object
/// `Floor` invariant, and two accounts on different shards.
fn bank() -> (FederatedCluster, ObjectId, ObjectId) {
    let app = AppDescriptor::new("bank").with_class(
        ClassDescriptor::new("Account")
            .with_field("balance", Value::Int(0))
            .with_field("floor", Value::Int(0)),
    );
    let mut fed = FederatedCluster::builder(2, 3, app).build().unwrap();
    for shard in (0..2).map(ShardId) {
        let floor = ExprConstraint::parse("self.balance >= self.floor").unwrap();
        let constraint =
            RegisteredConstraint::new(ConstraintMeta::new("Floor").intra_object(), Arc::new(floor))
                .context_class("Account")
                .affects("Account", "setBalance", ContextPreparation::CalledObject);
        fed.shard_mut(shard)
            .add_constraint_with_check(constraint)
            .unwrap();
    }
    let ids: Vec<ObjectId> = (0..16)
        .map(|i| ObjectId::new("Account", format!("a{i:02}")))
        .collect();
    for id in &ids {
        fed.create(id).unwrap();
    }
    let a = ids[0].clone();
    let b = ids
        .iter()
        .find(|id| fed.map().shard_of(id) != fed.map().shard_of(&a))
        .expect("both shards own an account")
        .clone();
    (fed, a, b)
}

/// One routed write through the request plane, committed.
fn write(fed: &mut FederatedCluster, id: &ObjectId, balance: i64) {
    let target = id.clone();
    fed.submit(id, PriorityClass::Normal, move |mut session| {
        session.set_field(&target, "balance", Value::Int(balance))?;
        session.commit()
    })
    .unwrap();
    fed.run_until_idle();
}

/// Stages a transfer between `from` and `to` (of 1 in odd rounds, of 0
/// in even ones) and prepares it.
fn stage(fed: &mut FederatedCluster, from: &ObjectId, to: &ObjectId, round: usize) -> u64 {
    let xtx = fed.xshard_begin();
    let moved = round as i64 & 1;
    fed.xshard_set_field(xtx, from, "balance", Value::Int(100 - moved))
        .unwrap();
    fed.xshard_set_field(xtx, to, "balance", Value::Int(100 + moved))
        .unwrap();
    fed.xshard_prepare(xtx).unwrap();
    xtx
}

/// One test, so nothing else runs on this thread's counter.
#[test]
fn a_write_allocates_only_what_it_keeps() {
    const ROUNDS: usize = 64;
    let (mut fed, a, b) = bank();
    // Warm-up: every buffer a write reuses reaches its working size.
    for round in 0..ROUNDS {
        write(&mut fed, &a, 100);
        write(&mut fed, &b, 100);
        let xtx = stage(&mut fed, &a, &b, round);
        fed.xshard_commit(xtx).unwrap();
        let xtx = stage(&mut fed, &a, &b, round);
        fed.xshard_abort(xtx).unwrap();
    }

    // A staged write allocates once: the copy-on-write clone of the
    // account, its field list only (the field names are the class's),
    // which a commit keeps as the new state. The list is exactly the
    // account's two fields. `set_field`'s argument
    // list, the transaction's record (`TxInfo`, with the nodes it
    // touched) and its write buffer are reused from the transactions
    // before, and the `Floor` check gathers into the cluster's reused
    // buffer (`crates/core/tests/invoke_allocs.rs` pins a whole checked
    // call).
    const STAGED: u64 = 1;
    const STAGED_BYTES: u64 = 2 * std::mem::size_of::<(FieldName, Value)>() as u64;
    // Committing it adds 2, both kept by the replicas: the record as
    // the `Arc<str>` every journal shares, encoded into the container's
    // buffer first, and the `Arc` of the state. The ship returns a
    // count, not a list.
    const COMMITTED: u64 = STAGED + 2;

    // (a) One routed `set_field` + commit, plus the plane's boxed
    // request.
    let routed = per_op(ROUNDS, |round| write(&mut fed, &a, 100 + round as i64));
    assert_eq!(routed.allocations, 1 + COMMITTED, "one routed write");

    // The federation keeps no outcome, and staging reuses the
    // participant list of the transaction before: begin, prepare,
    // commit and abort allocate nothing of their own.

    // (b) One cross-shard transfer — begin, stage ×2, prepare, commit.
    let committed = per_op(ROUNDS, |round| {
        let xtx = stage(&mut fed, &a, &b, round);
        fed.xshard_commit(xtx).unwrap();
    });
    assert_eq!(
        committed.allocations,
        2 * COMMITTED,
        "one committed transfer"
    );

    // (c) The same transfer aborted after prepare: the staged writes
    // are dropped, so neither snapshot nor ship is paid.
    let aborted = per_op(ROUNDS, |round| {
        let xtx = stage(&mut fed, &a, &b, round);
        fed.xshard_abort(xtx).unwrap();
    });
    assert_eq!(aborted.allocations, 2 * STAGED, "one aborted transfer");
    assert_eq!(
        aborted.bytes,
        2 * STAGED_BYTES,
        "one aborted transfer's bytes"
    );

    assert_eq!(fed.stats().xshard_committed, 2 * ROUNDS as u64);
    assert_eq!(fed.stats().xshard_aborted, 2 * ROUNDS as u64);
}
