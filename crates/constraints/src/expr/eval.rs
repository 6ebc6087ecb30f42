//! The expression interpreter.

use super::ast::{BinOp, Expr, UnaryOp};
use super::expr_err;
use crate::ValidationContext;
use dedisys_types::{Result, Value};
use std::cmp::Ordering;

/// Evaluates `expr` against the validation context.
///
/// # Errors
///
/// * [`dedisys_types::Error::Expr`] — type errors, division by zero,
///   navigation from non-references, missing `self`.
/// * Object-access failures (unreachable objects) propagate unchanged,
///   making the surrounding constraint uncheckable.
pub fn evaluate(expr: &Expr, ctx: &mut ValidationContext<'_>) -> Result<Value> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::SelfRef => {
            let id = ctx.context_object().cloned().ok_or_else(missing_self)?;
            Ok(Value::Ref(id))
        }
        Expr::Env(key) => Ok(ctx.env(key).cloned().unwrap_or(Value::Null)),
        Expr::Pre(key) => Ok(ctx.pre(key).cloned().unwrap_or(Value::Null)),
        Expr::Arg(i) => Ok(ctx.args().get(*i).cloned().unwrap_or(Value::Null)),
        Expr::MethodResult => Ok(ctx.result().cloned().unwrap_or(Value::Null)),
        Expr::Count(class) => Ok(Value::Int(ctx.objects_of_class(class).len() as i64)),
        Expr::Size(inner) => {
            let v = evaluate(inner, ctx)?;
            size_value(v)
        }
        // `self.f`: read through the context without building the
        // `Value::Ref` the general case below navigates from.
        Expr::Field(inner, field) if matches!(**inner, Expr::SelfRef) => ctx
            .context_field(field)
            .unwrap_or_else(|| Err(missing_self())),
        Expr::Field(inner, field) => {
            let v = evaluate(inner, ctx)?;
            match v {
                Value::Ref(id) => ctx.field(&id, field),
                other => Err(nav_error(field, &other)),
            }
        }
        Expr::Unary(op, inner) => {
            let v = evaluate(inner, ctx)?;
            match op {
                UnaryOp::Not => Ok(Value::Bool(!v.truthy())),
                UnaryOp::Neg => negate_value(v),
            }
        }
        Expr::Binary(op, left, right) => eval_binary(*op, left, right, ctx),
    }
}

/// The `'self' used without a context object` error — shared between
/// interpreter and VM so the two engines fail identically.
pub(super) fn missing_self() -> dedisys_types::Error {
    expr_err("'self' used without a context object")
}

/// `size(v)` semantics, shared between interpreter and VM.
pub(super) fn size_value(v: Value) -> Result<Value> {
    match v {
        Value::List(items) => Ok(Value::Int(items.len() as i64)),
        Value::Str(s) => Ok(Value::Int(s.chars().count() as i64)),
        other => Err(expr_err(format!(
            "size() expects a list or string, found {}",
            other.type_name()
        ))),
    }
}

fn overflow() -> dedisys_types::Error {
    expr_err("integer overflow")
}

/// Unary minus semantics, shared between interpreter and VM.
pub(super) fn negate_value(v: Value) -> Result<Value> {
    match v {
        Value::Int(n) => n.checked_neg().map(Value::Int).ok_or_else(overflow),
        Value::Float(f) => Ok(Value::Float(-f)),
        other => Err(expr_err(format!("cannot negate {}", other.type_name()))),
    }
}

/// The navigation error for a non-reference base, shared between
/// interpreter and VM.
pub(super) fn nav_error(field: &str, v: &Value) -> dedisys_types::Error {
    match v {
        Value::Null => expr_err(format!("navigation '.{field}' on null")),
        other => expr_err(format!(
            "navigation '.{field}' on {}, expected an object reference",
            other.type_name()
        )),
    }
}

fn eval_binary(
    op: BinOp,
    left: &Expr,
    right: &Expr,
    ctx: &mut ValidationContext<'_>,
) -> Result<Value> {
    // Short-circuit boolean forms first.
    match op {
        BinOp::And => {
            let l = evaluate(left, ctx)?;
            if !l.truthy() {
                return Ok(Value::Bool(false));
            }
            return Ok(Value::Bool(evaluate(right, ctx)?.truthy()));
        }
        BinOp::Or => {
            let l = evaluate(left, ctx)?;
            if l.truthy() {
                return Ok(Value::Bool(true));
            }
            return Ok(Value::Bool(evaluate(right, ctx)?.truthy()));
        }
        BinOp::Implies => {
            let l = evaluate(left, ctx)?;
            if !l.truthy() {
                return Ok(Value::Bool(true));
            }
            return Ok(Value::Bool(evaluate(right, ctx)?.truthy()));
        }
        _ => {}
    }

    let l = evaluate(left, ctx)?;
    let r = evaluate(right, ctx)?;
    apply_eager(op, &l, &r)
}

/// Applies a non-short-circuiting binary operator to two evaluated
/// operands — the single definition of eager binary semantics, used by
/// the interpreter, the stack VM and the constant folder.
pub(super) fn apply_eager(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    match op {
        BinOp::Add => match (l, r) {
            (Value::Str(a), Value::Str(b)) => Ok(Value::Str(format!("{a}{b}"))),
            _ => numeric(op, l, r),
        },
        BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => numeric(op, l, r),
        BinOp::Eq => Ok(Value::Bool(values_equal(l, r))),
        BinOp::Ne => Ok(Value::Bool(!values_equal(l, r))),
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let ord = l.compare(r).ok_or_else(|| {
                expr_err(format!(
                    "cannot compare {} with {}",
                    l.type_name(),
                    r.type_name()
                ))
            })?;
            let result = match op {
                BinOp::Lt => ord == Ordering::Less,
                BinOp::Le => ord != Ordering::Greater,
                BinOp::Gt => ord == Ordering::Greater,
                BinOp::Ge => ord != Ordering::Less,
                _ => unreachable!("comparison op"),
            };
            Ok(Value::Bool(result))
        }
        BinOp::And | BinOp::Or | BinOp::Implies => unreachable!("handled above"),
    }
}

fn values_equal(l: &Value, r: &Value) -> bool {
    if l == r {
        return true;
    }
    // Numeric cross-type equality: 1 = 1.0
    matches!((l.as_float(), r.as_float()), (Some(a), Some(b)) if a == b)
}

fn numeric(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    if let (&Value::Int(a), &Value::Int(b)) = (l, r) {
        if b == 0 && matches!(op, BinOp::Div | BinOp::Rem) {
            return Err(expr_err("division by zero"));
        }
        // Checked: a constraint over attacker-chosen numbers fails
        // typed, in debug and release builds alike.
        let result = match op {
            BinOp::Add => a.checked_add(b),
            BinOp::Sub => a.checked_sub(b),
            BinOp::Mul => a.checked_mul(b),
            BinOp::Div => a.checked_div(b),
            // `MIN % -1` is 0; only the machine instruction overflows.
            BinOp::Rem => Some(a.wrapping_rem(b)),
            _ => unreachable!("numeric op"),
        };
        return result.map(Value::Int).ok_or_else(overflow);
    }
    let (a, b) = match (l.as_float(), r.as_float()) {
        (Some(a), Some(b)) => (a, b),
        _ => {
            return Err(expr_err(format!(
                "arithmetic on {} and {}",
                l.type_name(),
                r.type_name()
            )))
        }
    };
    match op {
        BinOp::Add => Ok(Value::Float(a + b)),
        BinOp::Sub => Ok(Value::Float(a - b)),
        BinOp::Mul => Ok(Value::Float(a * b)),
        BinOp::Div => {
            if b == 0.0 {
                Err(expr_err("division by zero"))
            } else {
                Ok(Value::Float(a / b))
            }
        }
        BinOp::Rem => Err(expr_err("remainder on floats is not supported")),
        _ => unreachable!("numeric op"),
    }
}

#[cfg(test)]
mod tests {
    use super::super::eval_str;
    use crate::{MapAccess, ValidationContext};
    use dedisys_types::{Error, MethodName, ObjectId, Value};

    fn flight_world(sold: i64, seats: i64) -> (MapAccess, ObjectId) {
        let id = ObjectId::new("Flight", "F1");
        let mut w = MapAccess::new();
        w.put_field(&id, "soldTickets", Value::Int(sold));
        w.put_field(&id, "seats", Value::Int(seats));
        (w, id)
    }

    #[test]
    fn ticket_constraint_evaluates() {
        let (mut w, id) = flight_world(70, 80);
        let mut ctx = ValidationContext::for_invariant(id, &mut w);
        assert_eq!(
            eval_str("self.soldTickets <= self.seats", &mut ctx).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_str("self.soldTickets + 11 <= self.seats", &mut ctx).unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn navigation_through_references() {
        let alarm = ObjectId::new("Alarm", "A1");
        let report = ObjectId::new("RepairReport", "R1");
        let mut w = MapAccess::new();
        w.put_field(&alarm, "repairReport", Value::Ref(report.clone()));
        w.put_field(&report, "componentKind", Value::from("Signal Cable"));
        let mut ctx = ValidationContext::for_invariant(alarm, &mut w);
        assert_eq!(
            eval_str(
                "self.repairReport.componentKind = \"Signal Cable\"",
                &mut ctx
            )
            .unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn unreachable_objects_propagate() {
        let (mut w, id) = flight_world(1, 2);
        w.set_unreachable(&id, true);
        let mut ctx = ValidationContext::for_invariant(id.clone(), &mut w);
        assert_eq!(
            eval_str("self.seats > 0", &mut ctx),
            Err(Error::ObjectUnreachable(id))
        );
    }

    #[test]
    fn short_circuit_avoids_unreachable_branch() {
        let (mut w, id) = flight_world(1, 2);
        let ghost = ObjectId::new("Flight", "GONE");
        w.put_field(&ghost, "seats", Value::Int(1));
        w.set_unreachable(&ghost, true);
        w.put_field(&id, "other", Value::Ref(ghost));
        let mut ctx = ValidationContext::for_invariant(id, &mut w);
        // Left side true → right side (unreachable) never evaluated.
        assert_eq!(
            eval_str("self.seats > 0 or self.other.seats > 0", &mut ctx).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn implies_semantics() {
        let (mut w, id) = flight_world(0, 0);
        let mut ctx = ValidationContext::for_invariant(id, &mut w);
        assert_eq!(
            eval_str("false implies false", &mut ctx).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_str("true implies false", &mut ctx).unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn arithmetic_and_division_by_zero() {
        let (mut w, id) = flight_world(0, 0);
        let mut ctx = ValidationContext::for_invariant(id, &mut w);
        assert_eq!(eval_str("7 / 2", &mut ctx).unwrap(), Value::Int(3));
        assert_eq!(eval_str("7.0 / 2", &mut ctx).unwrap(), Value::Float(3.5));
        assert_eq!(eval_str("7 % 3", &mut ctx).unwrap(), Value::Int(1));
        assert!(eval_str("1 / 0", &mut ctx).is_err());
        // Overflow is an error, not a panic (debug) or a wrap (release).
        let min = "(0 - 9223372036854775807 - 1)";
        for overflowing in [
            "9223372036854775807 + 1",
            "MIN - 1",
            "MIN * 2",
            "MIN / (0 - 1)",
            "-MIN",
        ] {
            let source = overflowing.replace("MIN", min);
            let overflow = Err(Error::Expr("integer overflow".into()));
            assert_eq!(eval_str(&source, &mut ctx), overflow, "{source}");
        }
        let source = format!("{min} % (0 - 1)");
        assert_eq!(eval_str(&source, &mut ctx).unwrap(), Value::Int(0));
        assert_eq!(
            eval_str("\"a\" + \"b\"", &mut ctx).unwrap(),
            Value::from("ab")
        );
    }

    #[test]
    fn numeric_cross_type_equality() {
        let (mut w, id) = flight_world(0, 0);
        let mut ctx = ValidationContext::for_invariant(id, &mut w);
        assert_eq!(eval_str("1 = 1.0", &mut ctx).unwrap(), Value::Bool(true));
        assert_eq!(eval_str("1 <> 2", &mut ctx).unwrap(), Value::Bool(true));
    }

    #[test]
    fn builtins_in_method_context() {
        let (mut w, id) = flight_world(5, 10);
        let mut ctx = ValidationContext::for_method(
            id,
            MethodName::from("sellTickets"),
            vec![Value::Int(3)],
            &mut w,
        );
        ctx.set_result(Value::Int(8));
        ctx.store_pre("sold", Value::Int(5));
        ctx.set_env("partitionWeight", Value::Float(0.5));
        assert_eq!(eval_str("arg(0)", &mut ctx).unwrap(), Value::Int(3));
        assert_eq!(eval_str("result()", &mut ctx).unwrap(), Value::Int(8));
        assert_eq!(
            eval_str("result() = pre(\"sold\") + arg(0)", &mut ctx).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_str("env(\"partitionWeight\") >= 0.5", &mut ctx).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn count_and_size() {
        let (mut w, id) = flight_world(0, 0);
        w.put_field(&ObjectId::new("Flight", "F2"), "seats", Value::Int(1));
        w.put_field(
            &id,
            "codes",
            Value::List(vec![Value::Int(1), Value::Int(2)]),
        );
        let mut ctx = ValidationContext::for_invariant(id, &mut w);
        assert_eq!(
            eval_str("count(\"Flight\")", &mut ctx).unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            eval_str("size(self.codes)", &mut ctx).unwrap(),
            Value::Int(2)
        );
        assert_eq!(eval_str("size(\"abc\")", &mut ctx).unwrap(), Value::Int(3));
        assert!(eval_str("size(1)", &mut ctx).is_err());
    }

    #[test]
    fn type_errors_are_reported() {
        let (mut w, id) = flight_world(0, 0);
        let mut ctx = ValidationContext::for_invariant(id, &mut w);
        assert!(eval_str("1 + \"a\"", &mut ctx).is_err());
        assert!(eval_str("1 < \"a\"", &mut ctx).is_err());
        assert!(eval_str("null.field", &mut ctx).is_err());
        assert!(eval_str("-\"a\"", &mut ctx).is_err());
    }
}
