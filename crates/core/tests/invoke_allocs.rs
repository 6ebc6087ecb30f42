//! A checked call allocates only what it keeps: validating a call's
//! precondition, its postcondition with an `@pre` snapshot and its
//! invariants gathers into buffers the cluster reuses, snapshots into a
//! reused slot under a literal key, and shares the method name its
//! class declares; the transaction's record and write buffer are
//! reused, and its commit encodes into the container's buffer.
//!
//! A test binary of its own, because it installs a counting global
//! allocator (the idiom of `crates/federation/tests/write_allocs.rs`).

use dedisys_constraints::{
    expr::ExprConstraint, Constraint, ConstraintEngine, ConstraintKind, ConstraintMeta,
    ContextPreparation, RegisteredConstraint, ValidationContext,
};
use dedisys_core::{Cluster, ClusterBuilder};
use dedisys_object::{AppDescriptor, ClassDescriptor, EntityState};
use dedisys_types::{NodeId, ObjectId, Result, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Allocations made by this thread (the harness has others).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting calls that hand out memory.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// const-initialised thread-local `Cell` without a destructor, so
// touching it neither allocates nor reads the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations for `alloc` are passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr`/`layout` describe a live block of this
        // allocator and `new_size` is valid, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// What most of the rounds paid, and none paid less: the operation's
/// own allocations. The amortized growth of the tables that keep its
/// results (the journals) lands on a round now and then.
fn least_paid_by_most(counts: &[u64]) -> u64 {
    let least = *counts.iter().min().expect("at least one round");
    let paying_least = counts.iter().filter(|&&n| n == least).count();
    assert!(2 * paying_least > counts.len(), "{counts:?}");
    least
}

/// A postcondition that snapshots `count` before the call, as an
/// application-supplied constraint class would.
struct StepBound(ExprConstraint);

impl Constraint for StepBound {
    fn validate(&self, ctx: &mut ValidationContext<'_>) -> Result<bool> {
        self.0.validate(ctx)
    }

    fn validate_with(
        &self,
        engine: ConstraintEngine,
        ctx: &mut ValidationContext<'_>,
    ) -> Result<bool> {
        self.0.validate_with(engine, ctx)
    }

    fn before_method_invocation(&self, ctx: &mut ValidationContext<'_>) {
        if let Ok(count) = ctx.self_field("count") {
            ctx.store_pre("count", count);
        }
    }
}

/// A warm 3-node cluster whose `Booking.setCount` triggers a
/// precondition, a postcondition over `@pre`, two intra-object
/// invariants and one that navigates to the booking's flight; and the
/// booking.
fn airline() -> (Cluster, ObjectId) {
    let app = AppDescriptor::new("airline")
        .with_class(ClassDescriptor::new("Flight").with_field("seats", Value::Int(40)))
        .with_class(
            ClassDescriptor::new("Booking")
                .with_field("flight", Value::Null)
                .with_field("count", Value::Int(0))
                .with_field("limit", Value::Int(30)),
        );
    let on_set_count = |meta: ConstraintMeta, implementation: Arc<dyn Constraint>| {
        RegisteredConstraint::new(meta, implementation)
            .context_class("Booking")
            .affects("Booking", "setCount", ContextPreparation::CalledObject)
    };
    let expr = |source: &str| Arc::new(ExprConstraint::parse(source).unwrap());
    let constraints = vec![
        on_set_count(
            ConstraintMeta::new("ArgNonNegative").kind(ConstraintKind::Precondition),
            expr("arg(0) >= 0"),
        ),
        on_set_count(
            ConstraintMeta::new("StepBound").kind(ConstraintKind::Postcondition),
            Arc::new(StepBound(
                ExprConstraint::parse("self.count - pre(\"count\") <= 9").unwrap(),
            )),
        ),
        on_set_count(
            ConstraintMeta::new("CountNonNegative").intra_object(),
            expr("self.count >= 0"),
        ),
        on_set_count(
            ConstraintMeta::new("CountWithinLimit").intra_object(),
            expr("self.count <= self.limit"),
        ),
        on_set_count(
            ConstraintMeta::new("FitsFlight"),
            expr("self.count <= self.flight.seats"),
        ),
    ];
    let mut cluster = ClusterBuilder::new(3, app)
        .constraints(constraints)
        .build()
        .unwrap();
    let flight = ObjectId::new("Flight", "f1");
    let booking = ObjectId::new("Booking", "b1");
    cluster
        .run_tx(NodeId(0), |c, tx| {
            c.create(NodeId(0), tx, EntityState::for_class(c.app(), &flight)?)?;
            let mut entity = EntityState::for_class(c.app(), &booking)?;
            entity.set_field("flight", Value::Ref(flight.clone()), c.now());
            c.create(NodeId(0), tx, entity)
        })
        .unwrap();
    (cluster, booking)
}

/// One test, so nothing else runs on this thread's counter.
#[test]
fn a_checked_call_allocates_only_what_it_keeps() {
    const ROUNDS: usize = 64;
    let (mut cluster, booking) = airline();
    let mut invoked = Vec::with_capacity(ROUNDS);
    let mut committed = Vec::with_capacity(ROUNDS);
    // The first half warms up: every buffer a call reuses reaches its
    // working size.
    for round in 0..2 * ROUNDS {
        let tx = cluster.session(NodeId(0)).detach();
        let args = vec![Value::Int(round as i64 % 9)];
        let call = allocations(|| {
            cluster
                .invoke(NodeId(0), tx, &booking, "setCount", args)
                .unwrap();
        });
        let commit = allocations(|| cluster.commit(tx).unwrap());
        if round >= ROUNDS {
            invoked.push(call);
            committed.push(commit);
        }
    }
    assert_eq!(cluster.stats().ccm.validations, 2 * ROUNDS as u64 * 5);

    // The call allocates once: the copy-on-write clone of the booking,
    // its field list only (the field names are the class's), which
    // the commit keeps as the new state. The transaction's record
    // (`TxInfo`, with the nodes it touched) and its write buffer are
    // spares of the transactions before; five checks gather nothing of
    // their own, the `@pre` snapshot fills a reused slot under a
    // literal key, and `"setCount"` is the name `with_field` minted.
    assert_eq!(least_paid_by_most(&invoked), 1, "one checked call");
    // Committing it adds 2, both kept by the replicas: the record as
    // the `Arc<str>` every journal shares, encoded into the container's
    // buffer first, and the `Arc` of the state.
    assert_eq!(least_paid_by_most(&committed), 2, "its commit");
}
