//! Partition-sensitive integrity constraints (§5.5.2).
//!
//! With Gifford-style node weights, the GMS exposes the weight of the
//! current partition relative to the whole system (the middleware sets
//! the `"partitionWeight"` fraction and the exact
//! `"partitionWeightUnits"`/`"totalWeightUnits"` integers on every
//! validation context). Data can then be partitioned at runtime: the
//! ticket constraint saves the number of tickets sold in healthy mode
//! and, in degraded mode, grants each partition a share `tₓ` of the
//! remaining tickets proportional to its weight (`t = Σ tₓ`) — so
//! overbooking is (almost) never introduced even though every
//! partition keeps selling.

use dedisys_constraints::{Constraint, ValidationContext};
use dedisys_types::{Error, Result, Value};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Share of a quantity granted to a partition holding `weight` of
/// `total_weight` integer weight units (rounded down — conservative).
///
/// Computed in exact integer arithmetic (`⌊remaining · weight /
/// total_weight⌋`), matching the integer weights the GMS counts: over
/// any disjoint weighting of the cluster the shares never sum above
/// `remaining`, and the full partition (`weight == total_weight`)
/// receives exactly `remaining` — guarantees a float fraction cannot
/// make (e.g. `10 · (1/3 + 1/3 + 1/3)` truncates to 9 units or, with
/// an unlucky rounding of the fraction, hands out one unit too many).
pub fn partition_share_weighted(remaining: i64, weight: u32, total_weight: u32) -> i64 {
    if remaining <= 0 || total_weight == 0 {
        return 0;
    }
    let exact = i128::from(remaining) * i128::from(weight) / i128::from(total_weight);
    i64::try_from(exact).unwrap_or(i64::MAX)
}

fn int_field(ctx: &mut ValidationContext<'_>, name: &str) -> Result<i64> {
    ctx.self_field(name)?
        .as_int()
        .ok_or_else(|| Error::IllTypedField {
            name: name.into(),
            expected: "int".into(),
        })
}

fn weight_units(ctx: &ValidationContext<'_>, key: &str) -> Result<u32> {
    ctx.env(key)
        .and_then(Value::as_int)
        .and_then(|v| u32::try_from(v).ok())
        .ok_or_else(|| Error::IllTypedField {
            name: key.into(),
            expected: "non-negative int".into(),
        })
}

/// The partition-sensitive variant of the ticket constraint.
///
/// * Healthy mode: plain `sold ≤ seats`, additionally snapshotting the
///   healthy sales level when — and only when — the check passes.
/// * Degraded mode: `sold − sold_healthy ≤ ⌊(seats − sold_healthy) ·
///   w / W⌋` where `w`/`W` are the partition's and the cluster's
///   integer weight units — each partition sells only its share.
///
/// Missing or mis-typed fields and environment values surface as
/// [`Error::IllTypedField`] instead of validating against a default —
/// a misconfigured deployment must not pass (or fail) spuriously.
#[derive(Debug)]
pub struct PartitionSensitiveTicketConstraint {
    seats_field: String,
    sold_field: String,
    healthy_sold: Mutex<i64>,
}

impl PartitionSensitiveTicketConstraint {
    /// Creates the constraint over the given fields.
    pub fn new(seats_field: impl Into<String>, sold_field: impl Into<String>) -> Self {
        Self {
            seats_field: seats_field.into(),
            sold_field: sold_field.into(),
            healthy_sold: Mutex::new(0),
        }
    }

    /// The last healthy-mode sales snapshot.
    pub fn healthy_sold(&self) -> i64 {
        *self.snapshot()
    }

    /// The snapshot is one integer, valid after any store: a lock
    /// poisoned by a panicking validation thread is still usable.
    fn snapshot(&self) -> MutexGuard<'_, i64> {
        self.healthy_sold
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl Constraint for PartitionSensitiveTicketConstraint {
    fn validate(&self, ctx: &mut ValidationContext<'_>) -> Result<bool> {
        let seats = int_field(ctx, &self.seats_field)?;
        let sold = int_field(ctx, &self.sold_field)?;
        let healthy = match ctx.env("healthy") {
            None => true,
            Some(v) => v.as_bool().ok_or_else(|| Error::IllTypedField {
                name: "healthy".into(),
                expected: "bool".into(),
            })?,
        };
        if healthy {
            let ok = sold <= seats;
            // Snapshot only a state the constraint accepts: an
            // overbooked healthy state must not become the
            // degraded-mode baseline, or the shares of every later
            // partition would be computed from the very state this
            // check just rejected.
            if ok {
                *self.snapshot() = sold;
            }
            return Ok(ok);
        }
        let weight = weight_units(ctx, "partitionWeightUnits")?;
        let total = weight_units(ctx, "totalWeightUnits")?;
        let baseline = *self.snapshot();
        let remaining = seats - baseline;
        let share = partition_share_weighted(remaining, weight, total);
        Ok(sold - baseline <= share)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dedisys_constraints::MapAccess;
    use dedisys_types::ObjectId;

    fn world(sold: i64, seats: i64) -> (MapAccess, ObjectId) {
        let id = ObjectId::new("Flight", "F1");
        let mut w = MapAccess::new();
        w.put_field(&id, "seats", Value::Int(seats));
        w.put_field(&id, "sold", Value::Int(sold));
        (w, id)
    }

    #[test]
    fn weighted_shares_are_exact() {
        assert_eq!(partition_share_weighted(10, 1, 3), 3);
        assert_eq!(partition_share_weighted(10, 2, 3), 6);
        assert_eq!(partition_share_weighted(10, 3, 3), 10);
        assert_eq!(partition_share_weighted(0, 1, 2), 0);
        assert_eq!(partition_share_weighted(-5, 1, 2), 0);
        assert_eq!(partition_share_weighted(10, 1, 0), 0);
        // Disjoint weightings never sum above the remainder.
        let shares: i64 = [5, 4, 3]
            .iter()
            .map(|&w| partition_share_weighted(100, w, 12))
            .sum();
        assert!(shares <= 100);
    }

    #[test]
    fn healthy_mode_checks_plain_capacity_and_snapshots() {
        let c = PartitionSensitiveTicketConstraint::new("seats", "sold");
        let (mut w, id) = world(70, 80);
        let mut ctx = ValidationContext::for_invariant(id, &mut w);
        ctx.set_env("healthy", Value::Bool(true));
        assert_eq!(c.validate(&mut ctx), Ok(true));
        assert_eq!(c.healthy_sold(), 70);
    }

    #[test]
    fn violating_healthy_check_keeps_the_previous_snapshot() {
        let c = PartitionSensitiveTicketConstraint::new("seats", "sold");
        // Establish a consistent baseline of 70.
        {
            let (mut w, id) = world(70, 80);
            let mut ctx = ValidationContext::for_invariant(id, &mut w);
            ctx.set_env("healthy", Value::Bool(true));
            assert_eq!(c.validate(&mut ctx), Ok(true));
        }
        // An overbooked healthy state is rejected — and must not move
        // the baseline the degraded-mode shares are computed from.
        {
            let (mut w, id) = world(90, 80);
            let mut ctx = ValidationContext::for_invariant(id, &mut w);
            ctx.set_env("healthy", Value::Bool(true));
            assert_eq!(c.validate(&mut ctx), Ok(false));
        }
        assert_eq!(c.healthy_sold(), 70);
        // Degraded-mode shares still start from the consistent 70.
        let (mut w, id) = world(75, 80);
        let mut ctx = ValidationContext::for_invariant(id, &mut w);
        ctx.set_env("healthy", Value::Bool(false));
        ctx.set_env("partitionWeightUnits", Value::Int(1));
        ctx.set_env("totalWeightUnits", Value::Int(2));
        assert_eq!(c.validate(&mut ctx), Ok(true), "75 ≤ 70 + 5");
    }

    #[test]
    fn degraded_partition_limited_to_its_share() {
        let c = PartitionSensitiveTicketConstraint::new("seats", "sold");
        // Healthy snapshot at 70 of 80 → 10 remaining.
        {
            let (mut w, id) = world(70, 80);
            let mut ctx = ValidationContext::for_invariant(id, &mut w);
            ctx.set_env("healthy", Value::Bool(true));
            c.validate(&mut ctx).unwrap();
        }
        // Partition with 1 of 2 weight units may sell 5 more.
        let (mut w, id) = world(75, 80);
        let mut ctx = ValidationContext::for_invariant(id.clone(), &mut w);
        ctx.set_env("healthy", Value::Bool(false));
        ctx.set_env("partitionWeightUnits", Value::Int(1));
        ctx.set_env("totalWeightUnits", Value::Int(2));
        assert_eq!(c.validate(&mut ctx), Ok(true), "75 ≤ 70 + 5");

        let (mut w, id) = world(76, 80);
        let mut ctx = ValidationContext::for_invariant(id, &mut w);
        ctx.set_env("healthy", Value::Bool(false));
        ctx.set_env("partitionWeightUnits", Value::Int(1));
        ctx.set_env("totalWeightUnits", Value::Int(2));
        assert_eq!(c.validate(&mut ctx), Ok(false), "76 > 70 + 5");
    }

    #[test]
    fn missing_or_mistyped_inputs_error_instead_of_defaulting() {
        let c = PartitionSensitiveTicketConstraint::new("seats", "sold");
        // Mis-typed field.
        {
            let id = ObjectId::new("Flight", "F1");
            let mut w = MapAccess::new();
            w.put_field(&id, "seats", Value::Str("eighty".into()));
            w.put_field(&id, "sold", Value::Int(70));
            let mut ctx = ValidationContext::for_invariant(id, &mut w);
            ctx.set_env("healthy", Value::Bool(true));
            assert_eq!(
                c.validate(&mut ctx),
                Err(Error::IllTypedField {
                    name: "seats".into(),
                    expected: "int".into(),
                })
            );
        }
        // Degraded mode without the integer weight units.
        {
            let (mut w, id) = world(75, 80);
            let mut ctx = ValidationContext::for_invariant(id, &mut w);
            ctx.set_env("healthy", Value::Bool(false));
            assert_eq!(
                c.validate(&mut ctx),
                Err(Error::IllTypedField {
                    name: "partitionWeightUnits".into(),
                    expected: "non-negative int".into(),
                })
            );
        }
        // Mis-typed healthy flag.
        {
            let (mut w, id) = world(75, 80);
            let mut ctx = ValidationContext::for_invariant(id, &mut w);
            ctx.set_env("healthy", Value::Int(1));
            assert_eq!(
                c.validate(&mut ctx),
                Err(Error::IllTypedField {
                    name: "healthy".into(),
                    expected: "bool".into(),
                })
            );
        }
    }
}
