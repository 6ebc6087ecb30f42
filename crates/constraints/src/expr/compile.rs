//! Constraint compilation: lowering the [`Expr`] AST to a flat program
//! run by a small stack VM.
//!
//! Chapter 2 attributes the Dresden-OCL toolkit's ~405× validation
//! overhead to *interpretive*, tool-generated checking. Re-walking the
//! AST on every trigger re-pays that interpretation cost each time;
//! [`compile`] pays it once per constraint instead:
//!
//! * the tree is linearized into postorder `Op`s over arena pools
//!   (constants, names, classes) — no per-evaluation allocation or
//!   recursion;
//! * constant subexpressions are folded at compile time (through the
//!   same short-circuit semantics the interpreter uses, so `false and
//!   self.gone.x` folds to `false` without touching `gone`);
//! * the static [`ReadSet`] — which `self` fields and env keys the
//!   program can read, whether it navigates across objects or depends
//!   on per-call inputs — is precomputed for the CCM verdict cache.
//!
//! [`Program::evaluate`] is a drop-in replacement for
//! [`super::evaluate`]: same values, same error messages, same
//! evaluation and short-circuit order, same accessed-object tracking
//! through the [`ValidationContext`]. The eager binary semantics are
//! literally shared (one `apply_eager` definition), and the
//! `interpreter_equivalence` test below pins the rest.

use super::ast::{BinOp, Expr, UnaryOp};
use super::eval::{apply_eager, missing_self, nav_error, negate_value, size_value};
use crate::constraint::{CompiledInfo, ReadSet};
use crate::ValidationContext;
use dedisys_types::{ClassName, Result, Value};

/// One instruction of a compiled constraint program.
#[derive(Debug, Clone, PartialEq)]
enum Op {
    /// Push `consts[i]`.
    Const(u32),
    /// Push `Value::Ref(context object)`; error without one.
    SelfVal,
    /// Push the env value named `names[i]`, or `Null`.
    Env(u32),
    /// Push the `@pre` snapshot value named `names[i]`, or `Null`.
    Pre(u32),
    /// Push method argument `i`, or `Null`.
    Arg(u32),
    /// Push the method result, or `Null`.
    MethodResult,
    /// Push the number of reachable `classes[i]` instances.
    Count(u32),
    /// Pop a list/string, push its length.
    Size,
    /// Pop an object reference, push its field `names[i]`.
    Field(u32),
    /// Push field `names[i]` of the context object (`self.f` fused, so
    /// no reference to it is materialised); error without one.
    SelfField(u32),
    /// Pop a value, push its boolean negation.
    Not,
    /// Pop a number, push its arithmetic negation.
    Neg,
    /// Pop rhs then lhs, push the eager binary result.
    Bin(BinOp),
    /// Pop the condition; when falsy push `Bool(short)` and jump to
    /// `target` (short-circuit for `and` — `short: false` — and
    /// `implies` — `short: true`).
    JumpIfFalsy { target: u32, short: bool },
    /// Pop the condition; when truthy push `Bool(true)` and jump to
    /// `target` (short-circuit for `or`).
    JumpIfTruthy { target: u32 },
    /// Pop a value, push `Bool(v.truthy())` (boolean result coercion).
    Truthy,
}

/// A compiled constraint program: flat ops over arena pools, plus the
/// precomputed static read-set.
#[derive(Debug, Clone)]
pub(crate) struct Program {
    ops: Vec<Op>,
    consts: Vec<Value>,
    names: Vec<String>,
    classes: Vec<ClassName>,
    read_set: ReadSet,
    /// Upper bound on operand-stack depth, for one up-front allocation.
    max_stack: usize,
}

impl Program {
    /// The static read-set of the program.
    pub fn read_set(&self) -> &ReadSet {
        &self.read_set
    }

    /// The telemetry summary of this program.
    pub fn info(&self) -> CompiledInfo {
        CompiledInfo {
            ops: self.ops.len() as u32,
            reads: (self.read_set.self_fields.len() + self.read_set.env_keys.len()) as u32,
            cacheable: self.read_set.cacheable(),
        }
    }

    /// Runs the program against `ctx`.
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`super::evaluate`] on the source AST:
    /// type errors, division by zero, navigation from non-references,
    /// missing `self`, and propagated object-access failures.
    pub fn evaluate(&self, ctx: &mut ValidationContext<'_>) -> Result<Value> {
        let mut stack: Vec<Value> = Vec::with_capacity(self.max_stack.max(1));
        let mut pc = 0usize;
        while pc < self.ops.len() {
            match &self.ops[pc] {
                Op::Const(i) => stack.push(self.consts[*i as usize].clone()),
                Op::SelfVal => {
                    let id = ctx.context_object().cloned().ok_or_else(missing_self)?;
                    stack.push(Value::Ref(id));
                }
                Op::Env(i) => stack.push(
                    ctx.env(&self.names[*i as usize])
                        .cloned()
                        .unwrap_or(Value::Null),
                ),
                Op::Pre(i) => stack.push(
                    ctx.pre(&self.names[*i as usize])
                        .cloned()
                        .unwrap_or(Value::Null),
                ),
                Op::Arg(i) => {
                    stack.push(ctx.args().get(*i as usize).cloned().unwrap_or(Value::Null))
                }
                Op::MethodResult => stack.push(ctx.result().cloned().unwrap_or(Value::Null)),
                Op::Count(i) => stack.push(Value::Int(
                    ctx.objects_of_class(&self.classes[*i as usize]).len() as i64,
                )),
                Op::Size => {
                    let v = stack.pop().expect("size operand");
                    stack.push(size_value(v)?);
                }
                Op::Field(i) => {
                    let field = &self.names[*i as usize];
                    let v = stack.pop().expect("navigation base");
                    match v {
                        Value::Ref(id) => stack.push(ctx.field(&id, field)?),
                        other => return Err(nav_error(field, &other)),
                    }
                }
                Op::SelfField(i) => stack.push(
                    ctx.context_field(&self.names[*i as usize])
                        .unwrap_or_else(|| Err(missing_self()))?,
                ),
                Op::Not => {
                    let v = stack.pop().expect("not operand");
                    stack.push(Value::Bool(!v.truthy()));
                }
                Op::Neg => {
                    let v = stack.pop().expect("neg operand");
                    stack.push(negate_value(v)?);
                }
                Op::Bin(op) => {
                    let r = stack.pop().expect("binary rhs");
                    let l = stack.pop().expect("binary lhs");
                    stack.push(apply_eager(*op, &l, &r)?);
                }
                Op::JumpIfFalsy { target, short } => {
                    let v = stack.pop().expect("short-circuit condition");
                    if !v.truthy() {
                        stack.push(Value::Bool(*short));
                        pc = *target as usize;
                        continue;
                    }
                }
                Op::JumpIfTruthy { target } => {
                    let v = stack.pop().expect("short-circuit condition");
                    if v.truthy() {
                        stack.push(Value::Bool(true));
                        pc = *target as usize;
                        continue;
                    }
                }
                Op::Truthy => {
                    let v = stack.pop().expect("coercion operand");
                    stack.push(Value::Bool(v.truthy()));
                }
            }
            pc += 1;
        }
        Ok(stack.pop().expect("a program leaves exactly one value"))
    }
}

/// Lowers `expr` into a [`Program`].
pub(crate) fn compile(expr: &Expr) -> Program {
    let mut read_set = ReadSet::default();
    analyze(expr, &mut read_set);
    let mut c = Compiler {
        program: Program {
            ops: Vec::new(),
            consts: Vec::new(),
            names: Vec::new(),
            classes: Vec::new(),
            read_set,
            max_stack: 0,
        },
        depth: 0,
    };
    c.emit(expr);
    c.program
}

/// Collects the static read-set of `expr` — conservative over both
/// short-circuit branches, on the *unfolded* tree.
fn analyze(expr: &Expr, rs: &mut ReadSet) {
    match expr {
        Expr::Literal(_) | Expr::SelfRef => {}
        Expr::Env(key) => {
            rs.env_keys.insert(key.clone());
        }
        Expr::Pre(_) | Expr::Arg(_) | Expr::MethodResult => rs.call_dependent = true,
        Expr::Count(_) => rs.cross_object = true,
        Expr::Size(inner) | Expr::Unary(_, inner) => analyze(inner, rs),
        Expr::Field(base, field) => {
            if matches!(**base, Expr::SelfRef) {
                rs.self_fields.insert(field.clone());
            } else {
                // `self.a.b` and friends reach past the context object.
                rs.cross_object = true;
                analyze(base, rs);
            }
        }
        Expr::Binary(_, left, right) => {
            analyze(left, rs);
            analyze(right, rs);
        }
    }
}

/// Evaluates a context-free subexpression at compile time, through the
/// interpreter's exact semantics (including short-circuiting). `None`
/// when the value depends on the context or when evaluation would
/// error — runtime errors must stay runtime errors.
fn fold(expr: &Expr) -> Option<Value> {
    match expr {
        Expr::Literal(v) => Some(v.clone()),
        Expr::Unary(op, inner) => {
            let v = fold(inner)?;
            match op {
                UnaryOp::Not => Some(Value::Bool(!v.truthy())),
                UnaryOp::Neg => negate_value(v).ok(),
            }
        }
        Expr::Size(inner) => size_value(fold(inner)?).ok(),
        Expr::Binary(op, left, right) => {
            let l = fold(left)?;
            match op {
                BinOp::And => {
                    if !l.truthy() {
                        return Some(Value::Bool(false));
                    }
                    Some(Value::Bool(fold(right)?.truthy()))
                }
                BinOp::Or => {
                    if l.truthy() {
                        return Some(Value::Bool(true));
                    }
                    Some(Value::Bool(fold(right)?.truthy()))
                }
                BinOp::Implies => {
                    if !l.truthy() {
                        return Some(Value::Bool(true));
                    }
                    Some(Value::Bool(fold(right)?.truthy()))
                }
                _ => {
                    let r = fold(right)?;
                    apply_eager(*op, &l, &r).ok()
                }
            }
        }
        _ => None,
    }
}

struct Compiler {
    program: Program,
    depth: usize,
}

impl Compiler {
    fn push(&mut self, n: usize) {
        self.depth += n;
        self.program.max_stack = self.program.max_stack.max(self.depth);
    }

    fn pop(&mut self, n: usize) {
        self.depth -= n;
    }

    fn const_idx(&mut self, v: Value) -> u32 {
        match self.program.consts.iter().position(|c| *c == v) {
            Some(i) => i as u32,
            None => {
                self.program.consts.push(v);
                (self.program.consts.len() - 1) as u32
            }
        }
    }

    fn name_idx(&mut self, name: &str) -> u32 {
        match self.program.names.iter().position(|n| n == name) {
            Some(i) => i as u32,
            None => {
                self.program.names.push(name.to_owned());
                (self.program.names.len() - 1) as u32
            }
        }
    }

    fn class_idx(&mut self, class: &ClassName) -> u32 {
        match self.program.classes.iter().position(|c| c == class) {
            Some(i) => i as u32,
            None => {
                self.program.classes.push(class.clone());
                (self.program.classes.len() - 1) as u32
            }
        }
    }

    fn emit_const(&mut self, v: Value) {
        let idx = self.const_idx(v);
        self.program.ops.push(Op::Const(idx));
        self.push(1);
    }

    /// Emits ops evaluating `expr`, leaving exactly one value on the
    /// stack.
    fn emit(&mut self, expr: &Expr) {
        if !matches!(expr, Expr::Literal(_)) {
            if let Some(v) = fold(expr) {
                self.emit_const(v);
                return;
            }
        }
        match expr {
            Expr::Literal(v) => self.emit_const(v.clone()),
            Expr::SelfRef => {
                self.program.ops.push(Op::SelfVal);
                self.push(1);
            }
            Expr::Env(key) => {
                let idx = self.name_idx(key);
                self.program.ops.push(Op::Env(idx));
                self.push(1);
            }
            Expr::Pre(key) => {
                let idx = self.name_idx(key);
                self.program.ops.push(Op::Pre(idx));
                self.push(1);
            }
            Expr::Arg(i) => {
                self.program.ops.push(Op::Arg(*i as u32));
                self.push(1);
            }
            Expr::MethodResult => {
                self.program.ops.push(Op::MethodResult);
                self.push(1);
            }
            Expr::Count(class) => {
                let idx = self.class_idx(class);
                self.program.ops.push(Op::Count(idx));
                self.push(1);
            }
            Expr::Size(inner) => {
                self.emit(inner);
                self.program.ops.push(Op::Size);
            }
            Expr::Field(inner, field) if matches!(**inner, Expr::SelfRef) => {
                let idx = self.name_idx(field);
                self.program.ops.push(Op::SelfField(idx));
                self.push(1);
            }
            Expr::Field(inner, field) => {
                self.emit(inner);
                let idx = self.name_idx(field);
                self.program.ops.push(Op::Field(idx));
            }
            Expr::Unary(op, inner) => {
                self.emit(inner);
                self.program.ops.push(match op {
                    UnaryOp::Not => Op::Not,
                    UnaryOp::Neg => Op::Neg,
                });
            }
            Expr::Binary(op, left, right) => match op {
                BinOp::And => self.emit_short_circuit(left, right, false, false),
                BinOp::Or => self.emit_short_circuit(left, right, true, true),
                BinOp::Implies => self.emit_short_circuit(left, right, false, true),
                _ => {
                    self.emit(left);
                    self.emit(right);
                    self.program.ops.push(Op::Bin(*op));
                    self.pop(1);
                }
            },
        }
    }

    /// `and` / `or` / `implies`: evaluate the left side; when it
    /// decides the result (`on_truthy` selects the polarity), push the
    /// constant `short` and skip the right side; otherwise evaluate the
    /// right side and coerce it to a boolean.
    fn emit_short_circuit(&mut self, left: &Expr, right: &Expr, on_truthy: bool, short: bool) {
        self.emit(left);
        let jump_at = self.program.ops.len();
        // Placeholder target, patched once the right side is emitted.
        self.program.ops.push(if on_truthy {
            Op::JumpIfTruthy { target: 0 }
        } else {
            Op::JumpIfFalsy { target: 0, short }
        });
        // The condition is consumed; both continuations push one value.
        self.pop(1);
        self.emit(right);
        self.program.ops.push(Op::Truthy);
        let target = self.program.ops.len() as u32;
        match &mut self.program.ops[jump_at] {
            Op::JumpIfTruthy { target: t } | Op::JumpIfFalsy { target: t, .. } => *t = target,
            _ => unreachable!("patched op is the jump just pushed"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{evaluate, parse, ExprConstraint};
    use super::*;
    use crate::{Constraint, ConstraintEngine, MapAccess, ValidationContext};
    use dedisys_types::{Error, MethodName, ObjectId};

    fn world() -> (MapAccess, ObjectId) {
        let id = ObjectId::new("Flight", "F1");
        let mut w = MapAccess::new();
        w.put_field(&id, "soldTickets", Value::Int(70));
        w.put_field(&id, "seats", Value::Int(80));
        w.put_field(
            &id,
            "codes",
            Value::List(vec![Value::Int(1), Value::Int(2)]),
        );
        let report = ObjectId::new("RepairReport", "R1");
        w.put_field(&id, "repairReport", Value::Ref(report.clone()));
        w.put_field(&report, "componentKind", Value::from("Signal Cable"));
        (w, id)
    }

    /// Compiled evaluation must be indistinguishable from the
    /// interpreter: same value or same error, and the same accessed
    /// object set, for every expression form of the language.
    #[test]
    fn interpreter_equivalence() {
        let sources = [
            "self.soldTickets <= self.seats",
            "self.soldTickets + 11 <= self.seats",
            "self.repairReport.componentKind = \"Signal Cable\"",
            "self.seats > 0 or self.missing.seats > 0",
            "false and self.missing.seats > 0",
            "true implies self.soldTickets < self.seats",
            "false implies self.missing.seats > 0",
            "not (self.soldTickets > self.seats)",
            "-self.soldTickets < 0",
            "7 / 2 = 3 and 7.0 / 2 = 3.5 and 7 % 3 = 1",
            "1 / 0",
            "1 = 1.0",
            "1 <> 2",
            "\"a\" + \"b\" = \"ab\"",
            "size(self.codes) = 2",
            "size(\"abc\") = 3",
            "size(1)",
            "count(\"Flight\") = 1",
            "env(\"partitionWeight\") >= 0.5",
            "env(\"missing\") = null",
            "arg(0) = 3",
            "result() = pre(\"sold\") + arg(0)",
            "1 + \"a\"",
            "1 < \"a\"",
            "null.field",
            "-\"a\"",
            "self.seats = 80 and self.soldTickets = 70 or 1 / 0 > 0",
        ];
        for source in sources {
            let ast = parse(source).unwrap();
            let program = compile(&ast);

            let (mut w, id) = world();
            let mut ctx = ValidationContext::for_method(
                id.clone(),
                MethodName::from("sellTickets"),
                vec![Value::Int(3)],
                &mut w,
            );
            ctx.set_result(Value::Int(8));
            ctx.store_pre("sold", Value::Int(5));
            ctx.set_env("partitionWeight", Value::Float(0.5));
            let interpreted = evaluate(&ast, &mut ctx);
            let interpreted_accessed = ctx.take_accessed_objects();
            drop(ctx);

            let (mut w, id) = world();
            let mut ctx = ValidationContext::for_method(
                id,
                MethodName::from("sellTickets"),
                vec![Value::Int(3)],
                &mut w,
            );
            ctx.set_result(Value::Int(8));
            ctx.store_pre("sold", Value::Int(5));
            ctx.set_env("partitionWeight", Value::Float(0.5));
            let compiled = program.evaluate(&mut ctx);
            let compiled_accessed = ctx.take_accessed_objects();

            assert_eq!(interpreted, compiled, "value diverged for `{source}`");
            assert_eq!(
                interpreted_accessed, compiled_accessed,
                "accessed set diverged for `{source}`"
            );
        }
    }

    /// Validates `source` under both engines, each on a fresh world
    /// prepared by `setup`; per engine, the verdict and the gathered
    /// objects.
    fn under_both_engines(
        source: &str,
        context: Option<&ObjectId>,
        setup: impl Fn(&mut MapAccess),
    ) -> [(Result<bool>, Vec<ObjectId>); 2] {
        let constraint = ExprConstraint::parse(source).unwrap();
        [ConstraintEngine::Interpreted, ConstraintEngine::Compiled].map(|engine| {
            let (mut w, _) = world();
            setup(&mut w);
            let mut ctx = match context {
                Some(id) => ValidationContext::for_invariant(id.clone(), &mut w),
                None => ValidationContext::for_query(&mut w),
            };
            let verdict = constraint.validate_with(engine, &mut ctx);
            (verdict, ctx.take_accessed_objects())
        })
    }

    #[test]
    fn missing_context_object_errors_identically() {
        // The fused `self.f` path, a bare `self`, and `self.a.b`.
        for source in [
            "self.seats > 0",
            "self = self",
            "self.repairReport.componentKind = 1",
        ] {
            let [interpreted, compiled] = under_both_engines(source, None, |_| {});
            assert_eq!(
                interpreted,
                (
                    Err(Error::Expr("'self' used without a context object".into())),
                    vec![]
                ),
                "`{source}`"
            );
            assert_eq!(interpreted, compiled, "`{source}`");
        }
    }

    #[test]
    fn unreachable_context_object_is_still_gathered() {
        let id = world().1;
        for source in ["self.seats > 0", "self.repairReport.componentKind = 1"] {
            let [interpreted, compiled] =
                under_both_engines(source, Some(&id), |w| w.set_unreachable(&id, true));
            assert_eq!(
                interpreted,
                (Err(Error::ObjectUnreachable(id.clone())), vec![id.clone()]),
                "`{source}`"
            );
            assert_eq!(interpreted, compiled, "`{source}`");
        }
    }

    #[test]
    fn self_fields_compile_to_one_fused_op() {
        let program = compile(&parse("self.soldTickets <= self.seats").unwrap());
        assert_eq!(
            program.ops,
            vec![Op::SelfField(0), Op::SelfField(1), Op::Bin(BinOp::Le)]
        );
        assert_eq!(program.max_stack, 2);
        // Navigation past the context object fuses its first hop only.
        let program = compile(&parse("self.repairReport.componentKind").unwrap());
        assert_eq!(program.ops, vec![Op::SelfField(0), Op::Field(1)]);
        // A bare `self` still materialises the reference.
        let program = compile(&parse("self = self").unwrap());
        assert_eq!(program.ops[0], Op::SelfVal);
    }

    #[test]
    fn short_circuit_skips_unreachable_branch() {
        let (mut w, id) = world();
        let ghost = ObjectId::new("Flight", "GONE");
        w.put_field(&ghost, "seats", Value::Int(1));
        w.set_unreachable(&ghost, true);
        w.put_field(&id, "other", Value::Ref(ghost));
        let program = compile(&parse("self.seats > 0 or self.other.seats > 0").unwrap());
        let mut ctx = ValidationContext::for_invariant(id, &mut w);
        assert_eq!(program.evaluate(&mut ctx), Ok(Value::Bool(true)));
    }

    #[test]
    fn constant_subexpressions_fold() {
        let program = compile(&parse("1 + 2 * 3 = 7").unwrap());
        // The whole expression is context-free: one Const op.
        assert!(matches!(program.ops[..], [Op::Const(_)]));
        let mut w = MapAccess::new();
        let mut ctx = ValidationContext::for_query(&mut w);
        assert_eq!(program.evaluate(&mut ctx), Ok(Value::Bool(true)));

        // Short-circuit folding never folds a division by zero away
        // from the evaluated path…
        let program = compile(&parse("1 / 0 > 0").unwrap());
        let mut w = MapAccess::new();
        let mut ctx = ValidationContext::for_query(&mut w);
        assert!(program.evaluate(&mut ctx).is_err());

        // …but a short-circuited error branch folds to the constant.
        let program = compile(&parse("false and 1 / 0 > 0").unwrap());
        assert!(matches!(program.ops[..], [Op::Const(_)]));
    }

    #[test]
    fn read_set_analysis() {
        let rs = |source: &str| compile(&parse(source).unwrap()).read_set().clone();

        let simple = rs("self.soldTickets <= self.seats");
        assert_eq!(simple.self_fields.len(), 2);
        assert!(simple.self_fields.contains("seats"));
        assert!(!simple.cross_object);
        assert!(!simple.call_dependent);
        assert!(simple.cacheable());

        assert!(rs("self.repairReport.componentKind = \"x\"").cross_object);
        assert!(!rs("self.repairReport.componentKind = \"x\"").cacheable());
        assert!(rs("count(\"Flight\") > 0").cross_object);
        assert!(rs("arg(0) > 0").call_dependent);
        assert!(rs("pre(\"sold\") > 0").call_dependent);
        assert!(rs("result() > 0").call_dependent);

        let env = rs("env(\"quota\") > 0");
        assert!(env.env_keys.contains("quota"));
        assert!(env.cacheable(), "non-volatile env keys stay cacheable");
        assert!(!rs("env(\"partitionWeight\") > 0.5").cacheable());
        assert!(!rs("env(\"healthy\")").cacheable());
        assert!(!rs("env(\"partitionWeightUnits\") > 0").cacheable());
    }

    #[test]
    fn arena_pools_deduplicate() {
        let program = compile(&parse("self.a = self.b and self.a = self.a").unwrap());
        // `a` and `b` once each in the name pool.
        assert_eq!(program.names.len(), 2);
        assert!(program.max_stack >= 2);
    }
}
