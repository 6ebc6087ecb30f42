//! `validate_heavy`: one 3-node cluster, direct sessions, eight
//! expression constraints on every write, one write in ten built to
//! violate one of them.
//!
//! `Booking.setCount(n)` triggers a precondition on the argument, a
//! postcondition over an `@pre` snapshot, four intra-object invariants
//! and two invariants that navigate to the booking's `Flight`. The
//! federation and the request plane are not involved, so their
//! optimisations must not move this workload.

use crate::app::{check_quiescent, check_replicas, create_with, expr};
use crate::harness::rng::SplitMix64;
use crate::harness::Fnv1a;
use crate::workload::{Counters, SharedRecorder, Workload};
use dedisys_constraints::{
    Constraint, ConstraintKind, ConstraintMeta, ContextPreparation, RegisteredConstraint,
    ValidationContext,
};
use dedisys_core::{Cluster, ClusterBuilder};
use dedisys_object::{AppDescriptor, ClassDescriptor};
use dedisys_types::{Error, NodeId, ObjectId, Result, Value};
use std::sync::Arc;

const FLIGHTS: usize = 200;
const BOOKINGS: usize = 1_800;
const NODES: u32 = 3;
/// Seats on every flight.
const SEATS: i64 = 40;
/// `limit` of every booking; below `SEATS`, so the limit binds first.
const LIMIT: i64 = 30;
/// Largest increase the postcondition allows in one call.
const MAX_STEP: i64 = 9;

/// An expression postcondition that snapshots `count` before the call,
/// as an application-supplied constraint class would.
struct StepBound(dedisys_constraints::expr::ExprConstraint);

impl Constraint for StepBound {
    fn validate(&self, ctx: &mut ValidationContext<'_>) -> Result<bool> {
        self.0.validate(ctx)
    }

    fn before_method_invocation(&self, ctx: &mut ValidationContext<'_>) {
        if let Ok(count) = ctx.self_field("count") {
            ctx.store_pre("count", count);
        }
    }
}

fn app() -> AppDescriptor {
    AppDescriptor::new("airline")
        .with_class(
            ClassDescriptor::new("Flight")
                .with_field("seats", Value::Int(0))
                .with_field("sold", Value::Int(0)),
        )
        .with_class(
            ClassDescriptor::new("Booking")
                .with_field("flight", Value::Null)
                .with_field("count", Value::Int(0))
                .with_field("limit", Value::Int(0))
                .with_field("paid", Value::Int(0)),
        )
}

/// The eight expression shapes, in the order [`constraints`] uses
/// them; the `expr.*` layer probes evaluate the same ones.
pub const EXPRESSIONS: [&str; 8] = [
    "arg(0) >= 0",
    "self.count - pre(\"count\") <= 9",
    "self.count >= 0",
    "self.count <= self.limit",
    "self.paid >= 0",
    "self.paid <= self.limit * 100",
    "self.flight.sold <= self.flight.seats",
    "self.count <= self.flight.seats",
];

/// The eight constraints `Booking.setCount` triggers.
pub fn constraints() -> Vec<RegisteredConstraint> {
    let on_set_count = |meta: ConstraintMeta, implementation: Arc<dyn Constraint>| {
        RegisteredConstraint::new(meta, implementation)
            .context_class("Booking")
            .affects("Booking", "setCount", ContextPreparation::CalledObject)
    };
    let intra = |name: &str, source: &str| {
        on_set_count(
            ConstraintMeta::new(name).intra_object(),
            Arc::new(expr(source)),
        )
    };
    let cross =
        |name: &str, source: &str| on_set_count(ConstraintMeta::new(name), Arc::new(expr(source)));
    vec![
        on_set_count(
            ConstraintMeta::new("ArgNonNegative").kind(ConstraintKind::Precondition),
            Arc::new(expr(EXPRESSIONS[0])),
        ),
        on_set_count(
            ConstraintMeta::new("StepBound").kind(ConstraintKind::Postcondition),
            Arc::new(StepBound(expr(EXPRESSIONS[1]))),
        ),
        intra("CountNonNegative", EXPRESSIONS[2]),
        intra("CountWithinLimit", EXPRESSIONS[3]),
        intra("PaidNonNegative", EXPRESSIONS[4]),
        intra("PaidWithinLimit", EXPRESSIONS[5]),
        cross("FlightNotOversold", EXPRESSIONS[6]),
        cross("FitsFlight", EXPRESSIONS[7]),
    ]
}

/// The cluster under load and its sequential model.
pub struct ValidateHeavy {
    cluster: Cluster,
    flights: Vec<ObjectId>,
    bookings: Vec<ObjectId>,
    /// `count` of every booking.
    model: Vec<i64>,
    rng: SplitMix64,
    rec: SharedRecorder,
    expected_commits: u64,
    expected_rollbacks: u64,
    after_setup: Counters,
}

/// Builds `validate_heavy`.
pub fn build(seed: u64, rec: &SharedRecorder) -> std::result::Result<Box<dyn Workload>, String> {
    let mut cluster = ClusterBuilder::new(NODES, app())
        .constraints(constraints())
        .build()
        .map_err(|e| e.to_string())?;
    let flights: Vec<ObjectId> = (0..FLIGHTS)
        .map(|i| ObjectId::new("Flight", format!("f{i:04}")))
        .collect();
    let bookings: Vec<ObjectId> = (0..BOOKINGS)
        .map(|i| ObjectId::new("Booking", format!("b{i:05}")))
        .collect();
    for flight in &flights {
        create_with(&mut cluster, flight, &[("seats", Value::Int(SEATS))])
            .map_err(|e| e.to_string())?;
    }
    for (i, booking) in bookings.iter().enumerate() {
        let fields = [
            ("flight", Value::Ref(flights[i % FLIGHTS].clone())),
            ("limit", Value::Int(LIMIT)),
        ];
        create_with(&mut cluster, booking, &fields).map_err(|e| e.to_string())?;
    }
    let mut this = ValidateHeavy {
        cluster,
        flights,
        bookings,
        model: vec![0; BOOKINGS],
        rng: SplitMix64::new(seed),
        rec: rec.clone(),
        expected_commits: 0,
        expected_rollbacks: 0,
        after_setup: Counters::default(),
    };
    this.after_setup = this.counters();
    Ok(Box::new(this))
}

impl Workload for ValidateHeavy {
    fn op(&mut self, _i: u64) -> bool {
        let k = self.rng.below(BOOKINGS as u64) as usize;
        let current = self.model[k];
        // One op in ten is built to break exactly one constraint; which
        // one is the first the middleware evaluates for that value.
        let (count, refused_by) = if self.rng.below(10) == 0 {
            match self.rng.below(3) {
                0 => (-1 - self.rng.between(0, 5), Some("ArgNonNegative")),
                1 => (current + MAX_STEP + 1, Some("StepBound")),
                // Over the limit within the step bound, where the
                // current count allows it; else over the step bound.
                _ if current + MAX_STEP > LIMIT => (LIMIT + 1, Some("CountWithinLimit")),
                _ => (current + MAX_STEP + 1, Some("StepBound")),
            }
        } else {
            let up = self.rng.between(0, MAX_STEP);
            let count = if current + up <= LIMIT {
                current + up
            } else {
                self.rng.between(0, current)
            };
            (count, None)
        };

        let mut session = self.cluster.session(NodeId(0));
        let span = self.rec.borrow_mut().enter("session.invoke");
        let invoked = session.invoke(&self.bookings[k], "setCount", vec![Value::Int(count)]);
        self.rec.borrow_mut().exit(span);
        match (invoked, refused_by) {
            (Ok(_), None) => {
                let span = self.rec.borrow_mut().enter("session.commit");
                let committed = session.commit();
                self.rec.borrow_mut().exit(span);
                self.expected_commits += 1;
                self.model[k] = count;
                committed.is_ok()
            }
            (Err(Error::ConstraintViolated { constraint }), Some(expected)) => {
                let span = self.rec.borrow_mut().enter("session.rollback");
                let rolled_back = session.rollback();
                self.rec.borrow_mut().exit(span);
                self.expected_rollbacks += 1;
                constraint.as_str() == expected && rolled_back.is_ok()
            }
            // A designed violation that was accepted, or a legal write
            // that was refused.
            _ => false,
        }
    }

    fn counters(&self) -> Counters {
        Counters::of_cluster(&self.cluster)
    }

    fn verify(&self) -> std::result::Result<u64, String> {
        let mut digest = Fnv1a::default();
        for (k, id) in self.bookings.iter().enumerate() {
            check_replicas(&self.cluster, id, "count", self.model[k], &mut digest)?;
        }
        for id in &self.flights {
            // Never written.
            check_replicas(&self.cluster, id, "sold", 0, &mut digest)?;
        }
        check_quiescent(&self.cluster)?;
        let totals = self.counters();
        let commits = totals.commits - self.after_setup.commits;
        let rollbacks = totals.rollbacks - self.after_setup.rollbacks;
        if commits != self.expected_commits || rollbacks != self.expected_rollbacks {
            return Err(format!(
                "expected {} commits and {} refusals, the cluster counts {commits} and {rollbacks}",
                self.expected_commits, self.expected_rollbacks
            ));
        }
        digest.write_u64(totals.virt_ns);
        Ok(digest.finish())
    }
}
