//! The 78 integrity constraints of the reference application, in the
//! representations the different strategies need:
//!
//! * native function pointers over `&Company` (handcrafted-style
//!   strategies),
//! * explicit constraint classes validating through a
//!   [`ValidationContext`] (repository strategies),
//! * interpreted [`ExprConstraint`]s (the Dresden-OCL analogue).

use crate::model::{Company, Op};
use dedisys_constraints::expr::ExprConstraint;
use dedisys_constraints::{
    Constraint, ConstraintKind, ConstraintMeta, ContextPreparation, ObjectAccess,
    RegisteredConstraint, ValidationContext,
};
use dedisys_types::{ClassName, ObjectId, Result, Value};
use std::sync::Arc;

/// Snapshot taken before an operation for postconditions.
#[derive(Debug, Clone, Copy, Default)]
pub struct PreSnapshot {
    /// `dailyMinutes` of the target employee (recordWork).
    pub daily_before: i64,
    /// Total budget before (transferBudget).
    pub total_before: i64,
}

impl PreSnapshot {
    /// Captures the snapshot relevant to `op`.
    pub fn capture(op: Op, company: &Company) -> Self {
        match op {
            Op::RecordWork { emp, .. } => PreSnapshot {
                daily_before: company.employees[emp].daily_minutes,
                total_before: 0,
            },
            Op::TransferBudget { .. } => PreSnapshot {
                daily_before: 0,
                total_before: company.projects.iter().map(|p| p.budget_minutes).sum(),
            },
            _ => PreSnapshot::default(),
        }
    }
}

/// Context passed to native checks.
#[derive(Debug, Clone, Copy)]
pub struct OpCtx {
    /// The operation.
    pub op: Op,
    /// The method result (postconditions; 0 before execution).
    pub result: i64,
    /// The `@pre` snapshot.
    pub pre: PreSnapshot,
}

/// A constraint as a plain function over the company.
#[derive(Debug, Clone, Copy)]
pub struct NativeConstraint {
    /// Constraint name.
    pub name: &'static str,
    /// The predicate.
    pub check: fn(&Company, &OpCtx) -> bool,
}

/// The native checks attached to one method; the slice a check sits
/// in says when it runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct MethodChecks {
    /// Preconditions.
    pub pres: &'static [NativeConstraint],
    /// Postconditions.
    pub posts: &'static [NativeConstraint],
    /// Invariants (checked before *and* after public methods, §2.1.6).
    pub invs: &'static [NativeConstraint],
}

macro_rules! nc {
    ($name:literal, $check:expr) => {
        NativeConstraint {
            name: $name,
            check: $check,
        }
    };
}

// --- Native predicate functions -------------------------------------

fn e1(c: &Company, x: &OpCtx) -> bool {
    let emp = target_emp(x.op);
    c.employees[emp].daily_minutes <= c.employees[emp].workload_limit
}

fn e2(c: &Company, x: &OpCtx) -> bool {
    c.employees[target_emp(x.op)].daily_minutes >= 0
}

fn e4(c: &Company, x: &OpCtx) -> bool {
    c.employees[target_emp(x.op)].workload_limit <= 1440
}

fn r1(c: &Company, x: &OpCtx) -> bool {
    let proj = target_proj(x.op);
    c.projects[proj].consumed_minutes <= c.projects[proj].budget_minutes
}

fn r2(c: &Company, x: &OpCtx) -> bool {
    c.projects[target_proj(x.op)].budget_minutes >= 0
}

fn c1(c: &Company, _x: &OpCtx) -> bool {
    c.projects.iter().map(|p| p.budget_minutes).sum::<i64>() == c.total_budget
}

fn c2(c: &Company, _x: &OpCtx) -> bool {
    c.projects
        .iter()
        .flat_map(|p| p.members.iter())
        .all(|&m| m < c.employees.len())
}

fn p1(_c: &Company, x: &OpCtx) -> bool {
    match x.op {
        Op::RecordWork { minutes, .. } => minutes > 0,
        _ => true,
    }
}

fn p2(_c: &Company, x: &OpCtx) -> bool {
    match x.op {
        Op::RecordWork { minutes, .. } => minutes <= 480,
        _ => true,
    }
}

fn p3(_c: &Company, x: &OpCtx) -> bool {
    match x.op {
        Op::SetWorkloadLimit { limit, .. } => limit >= 0,
        _ => true,
    }
}

fn t1(_c: &Company, x: &OpCtx) -> bool {
    match x.op {
        Op::TransferBudget { amount, .. } => amount > 0,
        _ => true,
    }
}

fn t2(_c: &Company, x: &OpCtx) -> bool {
    match x.op {
        Op::TransferBudget { amount, .. } => amount <= 10_000,
        _ => true,
    }
}

fn q1(c: &Company, x: &OpCtx) -> bool {
    match x.op {
        Op::RecordWork { emp, minutes, .. } => {
            c.employees[emp].daily_minutes == x.pre.daily_before + minutes
        }
        _ => true,
    }
}

fn q2(c: &Company, x: &OpCtx) -> bool {
    match x.op {
        Op::SetWorkloadLimit { emp, limit } => c.employees[emp].workload_limit == limit,
        _ => true,
    }
}

fn q3(c: &Company, x: &OpCtx) -> bool {
    match x.op {
        Op::ResetDay { emp } => c.employees[emp].daily_minutes == 0,
        _ => true,
    }
}

fn t3(c: &Company, x: &OpCtx) -> bool {
    match x.op {
        Op::TransferBudget { .. } => {
            c.projects.iter().map(|p| p.budget_minutes).sum::<i64>() == x.pre.total_before
        }
        _ => true,
    }
}

fn t4(c: &Company, x: &OpCtx) -> bool {
    match x.op {
        Op::TransferBudget { to, .. } => c.projects[to].budget_minutes == x.result,
        _ => true,
    }
}

/// Employee index an op targets (0 if none).
fn target_emp(op: Op) -> usize {
    match op {
        Op::RecordWork { emp, .. } | Op::SetWorkloadLimit { emp, .. } | Op::ResetDay { emp } => emp,
        _ => 0,
    }
}

/// Project index an op targets (0 if none).
fn target_proj(op: Op) -> usize {
    match op {
        Op::RecordWork { proj, .. } => proj,
        Op::TransferBudget { from, .. } => from,
        _ => 0,
    }
}

// --- Per-method native check tables (mirrors the aspect pointcuts) ---

static RECORD_WORK: MethodChecks = MethodChecks {
    pres: &[nc!("P1_minutesPositive", p1), nc!("P2_minutesBounded", p2)],
    posts: &[nc!("Q1_dailyIncreased", q1)],
    invs: &[
        nc!("E1_workloadLimit", e1),
        nc!("R1_consumedWithinBudget", r1),
    ],
};

static SET_WORKLOAD_LIMIT: MethodChecks = MethodChecks {
    pres: &[nc!("P3_limitNonNegative", p3)],
    posts: &[nc!("Q2_limitApplied", q2)],
    invs: &[nc!("E1_workloadLimit", e1), nc!("E4_limitBounded", e4)],
};

static RESET_DAY: MethodChecks = MethodChecks {
    pres: &[],
    posts: &[nc!("Q3_dayCleared", q3)],
    invs: &[nc!("E2_dailyNonNegative", e2)],
};

static TRANSFER_BUDGET: MethodChecks = MethodChecks {
    pres: &[nc!("T1_amountPositive", t1), nc!("T2_amountBounded", t2)],
    posts: &[nc!("T3_totalPreserved", t3), nc!("T4_destIncreased", t4)],
    invs: &[nc!("R2_budgetNonNegative", r2), nc!("C1_totalMatches", c1)],
};

static AUDIT: MethodChecks = MethodChecks {
    pres: &[],
    posts: &[],
    invs: &[nc!("C1_totalMatches", c1), nc!("C2_membersValid", c2)],
};

/// The native checks for a method.
pub fn native_checks_for(method: &str) -> MethodChecks {
    match method {
        "recordWork" => RECORD_WORK,
        "setWorkloadLimit" => SET_WORKLOAD_LIMIT,
        "resetDay" => RESET_DAY,
        "transferBudget" => TRANSFER_BUDGET,
        "audit" => AUDIT,
        _ => MethodChecks::default(),
    }
}

// --- Repository / explicit-constraint-class representations ----------

/// Field access over the company, used by the explicit constraint
/// classes and the interpreted constraints: values are boxed into
/// [`Value`]s the way the Java implementations moved through
/// reflection.
pub struct CompanyAccess<'a> {
    /// The company being validated.
    pub company: &'a Company,
}

impl ObjectAccess for CompanyAccess<'_> {
    fn field(&mut self, id: &ObjectId, field: &str) -> Result<Value> {
        let c = self.company;
        let v = match id.class().as_str() {
            "Employee" => {
                let i: usize = id.key().parse().unwrap_or(0);
                let e = &c.employees[i % c.employees.len()];
                match field {
                    "dailyMinutes" => Value::Int(e.daily_minutes),
                    "workloadLimit" => Value::Int(e.workload_limit),
                    "vacationDays" => Value::Int(e.vacation_days),
                    "assignedCount" => Value::Int(e.assigned.len() as i64),
                    _ => Value::Null,
                }
            }
            "Project" => {
                let i: usize = id.key().parse().unwrap_or(0);
                let p = &c.projects[i % c.projects.len()];
                match field {
                    "budgetMinutes" => Value::Int(p.budget_minutes),
                    "consumedMinutes" => Value::Int(p.consumed_minutes),
                    "membersCount" => Value::Int(p.members.len() as i64),
                    _ => Value::Null,
                }
            }
            "Company" => match field {
                "totalBudget" => Value::Int(c.total_budget),
                "sumBudgets" => Value::Int(c.projects.iter().map(|p| p.budget_minutes).sum()),
                "membersValid" => Value::Bool(
                    c.projects
                        .iter()
                        .flat_map(|p| p.members.iter())
                        .all(|&m| m < c.employees.len()),
                ),
                "projectCount" => Value::Int(c.projects.len() as i64),
                _ => Value::Null,
            },
            _ => Value::Null,
        };
        Ok(v)
    }

    fn objects_of_class(&mut self, class: &ClassName) -> Vec<ObjectId> {
        match class.as_str() {
            "Employee" => (0..self.company.employees.len())
                .map(|i| ObjectId::new("Employee", i.to_string()))
                .collect(),
            "Project" => (0..self.company.projects.len())
                .map(|i| ObjectId::new("Project", i.to_string()))
                .collect(),
            "Company" => vec![ObjectId::new("Company", "0")],
            _ => Vec::new(),
        }
    }
}

/// Wraps a constraint with `@pre` snapshotting of self fields.
pub struct SnapshotWrapper<C> {
    fields: Vec<(String, String)>,
    inner: C,
}

impl<C: Constraint> Constraint for SnapshotWrapper<C> {
    fn validate(&self, ctx: &mut ValidationContext<'_>) -> Result<bool> {
        self.inner.validate(ctx)
    }

    fn before_method_invocation(&self, ctx: &mut ValidationContext<'_>) {
        for (key, field) in &self.fields {
            if let Ok(v) = ctx.self_field(field) {
                ctx.store_pre(key.clone(), v);
            }
        }
    }
}

/// The constraint source expressions: (name, kind, context class,
/// affected methods, expression, snapshot fields).
#[allow(clippy::type_complexity)]
fn constraint_specs() -> Vec<(
    &'static str,
    ConstraintKind,
    &'static str,
    Vec<(&'static str, &'static str)>,
    &'static str,
    Vec<(&'static str, &'static str)>,
)> {
    use ConstraintKind::{HardInvariant as Inv, Postcondition as Post, Precondition as Pre};
    let mut specs = vec![
        // Core invariants.
        (
            "E1_workloadLimit",
            Inv,
            "Employee",
            vec![("Employee", "recordWork"), ("Employee", "setWorkloadLimit")],
            "self.dailyMinutes <= self.workloadLimit",
            vec![],
        ),
        (
            "E2_dailyNonNegative",
            Inv,
            "Employee",
            vec![("Employee", "resetDay")],
            "self.dailyMinutes >= 0",
            vec![],
        ),
        (
            "E4_limitBounded",
            Inv,
            "Employee",
            vec![("Employee", "setWorkloadLimit")],
            "self.workloadLimit <= 1440",
            vec![],
        ),
        (
            "R1_consumedWithinBudget",
            Inv,
            "Project",
            vec![("Employee", "recordWork")],
            "self.consumedMinutes <= self.budgetMinutes",
            vec![],
        ),
        (
            "R2_budgetNonNegative",
            Inv,
            "Project",
            vec![("Project", "transferBudget")],
            "self.budgetMinutes >= 0",
            vec![],
        ),
        (
            "C1_totalMatches",
            Inv,
            "Company",
            vec![("Project", "transferBudget"), ("Company", "audit")],
            "self.totalBudget = self.sumBudgets",
            vec![],
        ),
        (
            "C2_membersValid",
            Inv,
            "Company",
            vec![("Company", "audit")],
            "self.membersValid",
            vec![],
        ),
        // Preconditions.
        (
            "P1_minutesPositive",
            Pre,
            "Employee",
            vec![("Employee", "recordWork")],
            "arg(1) > 0",
            vec![],
        ),
        (
            "P2_minutesBounded",
            Pre,
            "Employee",
            vec![("Employee", "recordWork")],
            "arg(1) <= 480",
            vec![],
        ),
        (
            "P3_limitNonNegative",
            Pre,
            "Employee",
            vec![("Employee", "setWorkloadLimit")],
            "arg(0) >= 0",
            vec![],
        ),
        (
            "T1_amountPositive",
            Pre,
            "Project",
            vec![("Project", "transferBudget")],
            "arg(1) > 0",
            vec![],
        ),
        (
            "T2_amountBounded",
            Pre,
            "Project",
            vec![("Project", "transferBudget")],
            "arg(1) <= 10000",
            vec![],
        ),
        // Postconditions.
        (
            "Q1_dailyIncreased",
            Post,
            "Employee",
            vec![("Employee", "recordWork")],
            "self.dailyMinutes = pre(\"daily\") + arg(1)",
            vec![("daily", "dailyMinutes")],
        ),
        (
            "Q2_limitApplied",
            Post,
            "Employee",
            vec![("Employee", "setWorkloadLimit")],
            "self.workloadLimit = arg(0)",
            vec![],
        ),
        (
            "Q3_dayCleared",
            Post,
            "Employee",
            vec![("Employee", "resetDay")],
            "self.dailyMinutes = 0",
            vec![],
        ),
        (
            "T3_totalPreserved",
            Post,
            "Company",
            vec![("Project", "transferBudget")],
            "self.totalBudget = self.sumBudgets",
            vec![],
        ),
        (
            "T4_destIncreased",
            Post,
            "Project",
            vec![("Project", "transferBudget")],
            "self.budgetMinutes >= 0",
            vec![],
        ),
    ];
    debug_assert_eq!(specs.len(), 17);
    specs.reserve(61);
    specs
}

/// Names of the generated filler invariants completing the set of 78
/// (real applications carry many similar threshold constraints; these
/// are registered — and scanned by the non-cached repository — but
/// attached to methods the scenario rarely calls).
const FILLER_COUNT: usize = 61;

fn filler_expr(i: usize) -> (&'static str, String) {
    match i % 3 {
        0 => ("Employee", format!("self.vacationDays <= {}", 40 + i)),
        1 => ("Project", format!("self.membersCount <= {}", 20 + i)),
        _ => ("Company", format!("self.projectCount <= {}", 100 + i)),
    }
}

fn build_all(interpreted: bool) -> Vec<RegisteredConstraint> {
    let mut out = Vec::new();
    for (name, kind, context_class, methods, expr, snaps) in constraint_specs() {
        let implementation: Arc<dyn Constraint> = make_impl(name, expr, &snaps, interpreted);
        let mut rc =
            RegisteredConstraint::new(ConstraintMeta::new(name).kind(kind), implementation)
                .context_class(context_class);
        for (class, method) in methods {
            rc = rc.affects(class, method, ContextPreparation::CalledObject);
        }
        out.push(rc);
    }
    for i in 0..FILLER_COUNT {
        let (class, expr) = filler_expr(i);
        let name = format!("F{i}_threshold");
        let implementation: Arc<dyn Constraint> = make_impl(&name, &expr, &[], interpreted);
        out.push(
            RegisteredConstraint::new(
                ConstraintMeta::new(name).kind(ConstraintKind::HardInvariant),
                implementation,
            )
            .context_class(class)
            .affects(class, "maintenance", ContextPreparation::CalledObject),
        );
    }
    debug_assert_eq!(out.len(), 78);
    out
}

/// The Dresden-OCL-analogue evaluation: the tool-generated machinery
/// runs the whole front end (tokenize + parse) plus the interpreter on
/// *every* check — modelling the heavyweight generated OCL library
/// code whose 405× overhead §2.3.2 measured.
struct ToolGeneratedCheck {
    source: String,
}

impl Constraint for ToolGeneratedCheck {
    fn validate(&self, ctx: &mut ValidationContext<'_>) -> Result<bool> {
        // The generated OCL library made several passes over the
        // expression per check (type conformance, @pre resolution,
        // collection wrapping, evaluation) — modelled as repeated
        // front-end + interpreter runs.
        let mut result = false;
        for _pass in 0..4 {
            result = dedisys_constraints::expr::eval_str(&self.source, ctx)?.truthy();
        }
        Ok(result)
    }
}

fn make_impl(
    name: &str,
    expr: &str,
    snaps: &[(&'static str, &'static str)],
    interpreted: bool,
) -> Arc<dyn Constraint> {
    // Validate the expression eagerly in both modes.
    let _parsed = ExprConstraint::parse(expr).expect("constraint expressions are valid");
    let inner: Arc<dyn Constraint> = if interpreted {
        Arc::new(ToolGeneratedCheck {
            source: expr.to_owned(),
        })
    } else {
        // Explicit constraint class (§2.1.4): the predicate is compiled
        // code reading through the validation context.
        closure_impl(name)
    };
    if snaps.is_empty() {
        inner
    } else {
        Arc::new(SnapshotWrapper {
            fields: snaps
                .iter()
                .map(|(k, f)| ((*k).to_owned(), (*f).to_owned()))
                .collect(),
            inner: ArcConstraint(inner),
        })
    }
}

/// Adapter so `SnapshotWrapper` can wrap an `Arc<dyn Constraint>`.
struct ArcConstraint(Arc<dyn Constraint>);

impl Constraint for ArcConstraint {
    fn validate(&self, ctx: &mut ValidationContext<'_>) -> Result<bool> {
        self.0.validate(ctx)
    }

    fn before_method_invocation(&self, ctx: &mut ValidationContext<'_>) {
        self.0.before_method_invocation(ctx);
    }
}

fn int(v: Value) -> i64 {
    v.as_int().unwrap_or(0)
}

/// The hand-written explicit-constraint-class bodies (one closure per
/// named constraint, matching the declarative expressions exactly).
fn closure_impl(name: &str) -> Arc<dyn Constraint> {
    type Ctx<'a, 'b> = &'a mut ValidationContext<'b>;
    match name {
        "E1_workloadLimit" => Arc::new(|ctx: Ctx| {
            Ok(int(ctx.self_field("dailyMinutes")?) <= int(ctx.self_field("workloadLimit")?))
        }),
        "E2_dailyNonNegative" => Arc::new(|ctx: Ctx| Ok(int(ctx.self_field("dailyMinutes")?) >= 0)),
        "E4_limitBounded" => Arc::new(|ctx: Ctx| Ok(int(ctx.self_field("workloadLimit")?) <= 1440)),
        "R1_consumedWithinBudget" => Arc::new(|ctx: Ctx| {
            Ok(int(ctx.self_field("consumedMinutes")?) <= int(ctx.self_field("budgetMinutes")?))
        }),
        "R2_budgetNonNegative" => {
            Arc::new(|ctx: Ctx| Ok(int(ctx.self_field("budgetMinutes")?) >= 0))
        }
        "C1_totalMatches" | "T3_totalPreserved" => Arc::new(|ctx: Ctx| {
            Ok(int(ctx.self_field("totalBudget")?) == int(ctx.self_field("sumBudgets")?))
        }),
        "C2_membersValid" => Arc::new(|ctx: Ctx| Ok(ctx.self_field("membersValid")?.truthy())),
        "P1_minutesPositive" => {
            Arc::new(|ctx: Ctx| Ok(ctx.args().get(1).is_none_or(|v| int(v.clone()) > 0)))
        }
        "P2_minutesBounded" => {
            Arc::new(|ctx: Ctx| Ok(ctx.args().get(1).is_none_or(|v| int(v.clone()) <= 480)))
        }
        "P3_limitNonNegative" => {
            Arc::new(|ctx: Ctx| Ok(ctx.args().first().is_none_or(|v| int(v.clone()) >= 0)))
        }
        "T1_amountPositive" => {
            Arc::new(|ctx: Ctx| Ok(ctx.args().get(1).is_none_or(|v| int(v.clone()) > 0)))
        }
        "T2_amountBounded" => {
            Arc::new(|ctx: Ctx| Ok(ctx.args().get(1).is_none_or(|v| int(v.clone()) <= 10_000)))
        }
        "Q1_dailyIncreased" => Arc::new(|ctx: Ctx| {
            let pre = ctx.pre("daily").cloned().map_or(0, int);
            let arg = ctx.args().get(1).cloned().map_or(0, int);
            Ok(int(ctx.self_field("dailyMinutes")?) == pre + arg)
        }),
        "Q2_limitApplied" => Arc::new(|ctx: Ctx| {
            let arg = ctx.args().first().cloned().map_or(0, int);
            Ok(int(ctx.self_field("workloadLimit")?) == arg)
        }),
        "Q3_dayCleared" => Arc::new(|ctx: Ctx| Ok(int(ctx.self_field("dailyMinutes")?) == 0)),
        "T4_destIncreased" => Arc::new(|ctx: Ctx| Ok(int(ctx.self_field("budgetMinutes")?) >= 0)),
        other => {
            // Filler threshold invariants F<i>_threshold.
            let i: usize = other
                .trim_start_matches('F')
                .split('_')
                .next()
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| panic!("unknown constraint '{other}'"));
            match i % 3 {
                0 => Arc::new(move |ctx: Ctx| {
                    Ok(int(ctx.self_field("vacationDays")?) <= (40 + i) as i64)
                }),
                1 => Arc::new(move |ctx: Ctx| {
                    Ok(int(ctx.self_field("membersCount")?) <= (20 + i) as i64)
                }),
                _ => Arc::new(move |ctx: Ctx| {
                    Ok(int(ctx.self_field("projectCount")?) <= (100 + i) as i64)
                }),
            }
        }
    }
}

/// Builds the 78 constraints as explicit constraint classes (for the
/// repository strategies).
pub fn build_registered_constraints() -> Vec<RegisteredConstraint> {
    build_all(false)
}

/// Builds the 78 constraints as interpreted expressions (for the
/// Dresden-OCL-analogue strategy).
pub fn build_expr_constraints() -> Vec<RegisteredConstraint> {
    build_all(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seventy_eight_constraints() {
        assert_eq!(build_registered_constraints().len(), 78);
        assert_eq!(build_expr_constraints().len(), 78);
    }

    #[test]
    fn native_checks_hold_on_fresh_company() {
        let c = Company::generate();
        let ctx = OpCtx {
            op: Op::RecordWork {
                emp: 0,
                proj: 0,
                minutes: 60,
            },
            result: 0,
            pre: PreSnapshot::default(),
        };
        for method in [
            "recordWork",
            "setWorkloadLimit",
            "resetDay",
            "transferBudget",
            "audit",
        ] {
            for check in native_checks_for(method).invs {
                assert!((check.check)(&c, &ctx), "{method}: {}", check.name);
            }
        }
    }

    #[test]
    fn company_access_boxes_fields() {
        let c = Company::generate();
        let mut access = CompanyAccess { company: &c };
        let emp = ObjectId::new("Employee", "3");
        assert_eq!(
            access.field(&emp, "workloadLimit").unwrap(),
            Value::Int(480)
        );
        let comp = ObjectId::new("Company", "0");
        assert_eq!(
            access.field(&comp, "totalBudget").unwrap(),
            Value::Int(10_000_000)
        );
        assert_eq!(
            access.objects_of_class(&ClassName::from("Project")).len(),
            10
        );
    }

    #[test]
    fn registered_constraints_validate_against_company() {
        let c = Company::generate();
        for rc in build_registered_constraints() {
            if rc.meta.kind != ConstraintKind::HardInvariant {
                continue;
            }
            let class = rc.context_class.clone().unwrap();
            let mut access = CompanyAccess { company: &c };
            let ctx_obj = ObjectId::new(class, "0");
            let mut ctx = ValidationContext::for_invariant(ctx_obj, &mut access);
            assert_eq!(
                rc.implementation.validate(&mut ctx),
                Ok(true),
                "{}",
                rc.name()
            );
        }
    }
}
