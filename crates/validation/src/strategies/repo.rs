//! The repository-based strategies (explicit constraint classes behind
//! generic interception, §2.1.4/§2.1.5) and the wrapper-based
//! interpreted strategy (Dresden-OCL analogue, §2.1.2).

use super::{CheckCounts, Mechanism, SliceLevel};
use crate::constraints_def::{build_expr_constraints, build_registered_constraints, CompanyAccess};
use crate::model::{Company, Op};
use dedisys_constraints::{
    ConstraintKind, ConstraintRepository, LookupKind, LookupMode, Matches, PreState,
    RegisteredConstraint, ValidationContext,
};
use dedisys_types::{MethodName, MethodSignature, ObjectId, Value};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// A reified invocation passed through the dynamic interceptor chain
/// (the JBoss-AOP invocation object).
struct DynInvocation {
    class: &'static str,
    method: &'static str,
    args: Vec<Value>,
}

/// A link of the lab's dynamic interceptor chain (virtual dispatch).
trait LabInterceptor: Send {
    fn invoke(&self, inv: &DynInvocation) -> u64;
}

struct Forwarder(u64);

impl LabInterceptor for Forwarder {
    fn invoke(&self, inv: &DynInvocation) -> u64 {
        // Touch the invocation so the call cannot be optimized away.
        self.0 + inv.args.len() as u64 + inv.method.len() as u64 + inv.class.len() as u64
    }
}

/// Pre-bound checks of one method (wrapper-based instrumentation).
struct MethodBinding {
    pres: Matches,
    posts: Matches,
    invs: Matches,
}

/// The prepared engine shared by repository and interpreted
/// strategies.
pub struct RepoEngine {
    mechanism: Mechanism,
    slice: SliceLevel,
    wrapper_based: bool,
    repo: ConstraintRepository,
    /// `"Class" → [(method name, signature)]` — the `getMethod` table
    /// the static mechanism scans linearly (§2.3.2: AspectJ's costly
    /// `Object.getClass().getMethod(..)`).
    class_methods: HashMap<&'static str, Vec<(String, MethodSignature)>>,
    /// `"Class::method" → handler id` — the reflective dispatch table.
    handler_table: HashMap<String, usize>,
    sig_by_id: Vec<MethodSignature>,
    chain: Vec<Box<dyn LabInterceptor>>,
    bindings: HashMap<&'static str, MethodBinding>,
}

const METHODS: [(&str, &str); 5] = [
    ("Employee", "recordWork"),
    ("Employee", "setWorkloadLimit"),
    ("Employee", "resetDay"),
    ("Project", "transferBudget"),
    ("Company", "audit"),
];

impl RepoEngine {
    /// Prepares a repository engine.
    pub fn new(mechanism: Mechanism, cached: bool, slice: SliceLevel, interpreted: bool) -> Self {
        let constraints = if interpreted {
            build_expr_constraints()
        } else {
            build_registered_constraints()
        };
        let mut repo = ConstraintRepository::new(if cached {
            LookupMode::Cached
        } else {
            LookupMode::Scan
        });
        for c in &constraints {
            repo.register(c.clone()).expect("unique constraint names");
        }
        let mut class_methods: HashMap<&'static str, Vec<(String, MethodSignature)>> =
            HashMap::new();
        let mut handler_table = HashMap::new();
        let mut sig_by_id = Vec::new();
        for (class, method) in METHODS {
            let sig = MethodSignature::new(class, method);
            class_methods
                .entry(class)
                .or_default()
                .push((method.to_owned(), sig.clone()));
            handler_table.insert(format!("{class}::{method}"), sig_by_id.len());
            sig_by_id.push(sig);
        }
        // Pre-bind per-method constraint lists (wrapper-based
        // instrumentation resolves trigger points at build time).
        let mut bindings: HashMap<&'static str, MethodBinding> = HashMap::new();
        for (class, method) in METHODS {
            let sig = MethodSignature::new(class, method);
            let (mut pres, mut posts, mut invs) = (Vec::new(), Vec::new(), Vec::new());
            for c in &constraints {
                if c.preparation_for(&sig).is_none() {
                    continue;
                }
                let list = match c.meta.kind {
                    ConstraintKind::Precondition => &mut pres,
                    ConstraintKind::Postcondition => &mut posts,
                    _ => &mut invs,
                };
                list.push(Arc::new(c.clone()));
            }
            let binding = MethodBinding {
                pres: pres.into(),
                posts: posts.into(),
                invs: invs.into(),
            };
            bindings.insert(method, binding);
        }
        Self {
            mechanism,
            slice,
            wrapper_based: interpreted,
            repo,
            class_methods,
            handler_table,
            sig_by_id,
            chain: vec![
                Box::new(Forwarder(1)),
                Box::new(Forwarder(2)),
                Box::new(Forwarder(3)),
            ],
            bindings,
        }
    }

    /// The interpreted (Dresden-OCL analogue) configuration:
    /// wrapper-based instrumentation, no repository search, interpreted
    /// constraint expressions.
    pub fn wrapper_based() -> Self {
        Self::new(Mechanism::Static, true, SliceLevel::R5, true)
    }

    /// Runs the scenario.
    pub fn run(&mut self, company: &mut Company, ops: &[Op], counts: &mut CheckCounts) {
        for &op in ops {
            counts.intercepted += 1;
            if self.wrapper_based {
                // Wrapper-based: the instrumented method body embeds
                // its (interpreted) checks directly.
                let binding = &self.bindings[op.method_name()];
                let args = op_args(op);
                run_checks(binding, company, op, &args, counts);
                continue;
            }
            // --- R2: invocation interception ---
            let class = op.target_class().name();
            let method = op.method_name();
            let dyn_args: Option<Vec<Value>> = match self.mechanism {
                Mechanism::Static => {
                    // Statically dispatched advice: nothing to build.
                    None
                }
                Mechanism::Dyn => {
                    // Build the invocation object and pass it through
                    // the interceptor chain.
                    let inv = Box::new(DynInvocation {
                        class,
                        method,
                        args: op_args(op),
                    });
                    let mut acc = 0u64;
                    for link in &self.chain {
                        acc = acc.wrapping_add(link.invoke(&inv));
                    }
                    std::hint::black_box(acc);
                    Some(inv.args)
                }
                Mechanism::Reflective => {
                    // Name-based dispatch: format the key and resolve
                    // the handler reflectively.
                    let key = format!("{class}::{method}");
                    let id = self.handler_table.get(&key).copied().unwrap_or(0);
                    std::hint::black_box(id);
                    Some(op_args(op))
                }
            };
            if self.slice == SliceLevel::R2 {
                std::hint::black_box(op.apply(company));
                continue;
            }
            // --- R3: parameter extraction ---
            let (sig, args) = match self.mechanism {
                Mechanism::Static => {
                    // AspectJ analogue: the join point only exposes the
                    // plain object — resolving the Method handle costs
                    // a `getClass().getMethod(..)`, which formats and
                    // compares full signatures across the class's
                    // method table (§2.3.2: this is where AspectJ's
                    // interception advantage is lost, Figure 2.6).
                    let wanted = format!("{class}::{method}");
                    let methods = &self.class_methods[class];
                    let sig = methods
                        .iter()
                        .find(|(name, _)| format!("{class}::{name}") == wanted)
                        .map(|(_, sig)| sig.clone())
                        .expect("method deployed");
                    (sig, op_args(op))
                }
                Mechanism::Dyn => (
                    MethodSignature::new(class, method),
                    dyn_args.expect("built during interception"),
                ),
                Mechanism::Reflective => {
                    let key = format!("{class}::{method}");
                    let id = self.handler_table[&key];
                    (
                        self.sig_by_id[id].clone(),
                        dyn_args.expect("built during interception"),
                    )
                }
            };
            if self.slice == SliceLevel::R3 {
                std::hint::black_box((&sig, &args));
                std::hint::black_box(op.apply(company));
                continue;
            }
            // --- R4: repository search ---
            let pres = self.repo.lookup(&sig, LookupKind::Precondition);
            let posts = self.repo.lookup(&sig, LookupKind::Postcondition);
            let invs_before = self.repo.lookup(&sig, LookupKind::Invariant);
            let invs_after = self.repo.lookup(&sig, LookupKind::Invariant);
            counts.searches += 4;
            if self.slice == SliceLevel::R4 {
                std::hint::black_box((&pres, &posts, &invs_before, &invs_after));
                std::hint::black_box(op.apply(company));
                continue;
            }
            // --- R5: constraint checks ---
            let binding = MethodBinding {
                pres,
                posts,
                invs: invs_before,
            };
            std::hint::black_box(&invs_after);
            run_checks(&binding, company, op, &args, counts);
        }
    }
}

/// Executes the checks of one invocation against the company.
fn run_checks(
    binding: &MethodBinding,
    company: &mut Company,
    op: Op,
    args: &[Value],
    counts: &mut CheckCounts,
) {
    let method = MethodName::from(op.method_name());
    // Preconditions.
    for c in binding.pres.iter() {
        counts.pres += 1;
        let ctx_obj = context_for(c, op);
        let mut access = CompanyAccess { company };
        let mut ctx =
            ValidationContext::for_method(ctx_obj, method.clone(), args.to_vec(), &mut access);
        if !c.implementation.validate(&mut ctx).unwrap_or(false) {
            counts.violations += 1;
        }
    }
    // Invariants before + postcondition @pre snapshots.
    let mut pre_states: BTreeMap<String, PreState> = BTreeMap::new();
    for c in binding.posts.iter() {
        let ctx_obj = context_for(c, op);
        let mut access = CompanyAccess { company };
        let mut ctx =
            ValidationContext::for_method(ctx_obj, method.clone(), args.to_vec(), &mut access);
        c.implementation.before_method_invocation(&mut ctx);
        pre_states.insert(c.name().to_string(), ctx.take_pre_state());
    }
    for c in binding.invs.iter() {
        counts.invariants += 1;
        let ctx_obj = context_for(c, op);
        let mut access = CompanyAccess { company };
        let mut ctx = ValidationContext::for_invariant(ctx_obj, &mut access);
        if !c.implementation.validate(&mut ctx).unwrap_or(false) {
            counts.violations += 1;
        }
    }
    // Business logic.
    let result = op.apply(company);
    // Postconditions.
    for c in binding.posts.iter() {
        counts.posts += 1;
        let ctx_obj = context_for(c, op);
        let mut access = CompanyAccess { company };
        let mut ctx =
            ValidationContext::for_method(ctx_obj, method.clone(), args.to_vec(), &mut access);
        ctx.set_result(Value::Int(result));
        if let Some(pre) = pre_states.remove(c.name().as_str()) {
            ctx.set_pre_state(pre);
        }
        if !c.implementation.validate(&mut ctx).unwrap_or(false) {
            counts.violations += 1;
        }
    }
    // Invariants after.
    for c in binding.invs.iter() {
        counts.invariants += 1;
        let ctx_obj = context_for(c, op);
        let mut access = CompanyAccess { company };
        let mut ctx = ValidationContext::for_invariant(ctx_obj, &mut access);
        if !c.implementation.validate(&mut ctx).unwrap_or(false) {
            counts.violations += 1;
        }
    }
}

/// Boxes an operation's arguments the way the generic mechanisms see
/// them.
fn op_args(op: Op) -> Vec<Value> {
    match op {
        Op::RecordWork { proj, minutes, .. } => {
            vec![Value::Int(proj as i64), Value::Int(minutes)]
        }
        Op::SetWorkloadLimit { limit, .. } => vec![Value::Int(limit)],
        Op::ResetDay { .. } => Vec::new(),
        Op::TransferBudget { to, amount, .. } => {
            vec![Value::Int(to as i64), Value::Int(amount)]
        }
        Op::Audit => Vec::new(),
    }
}

/// Resolves a constraint's context object from the operation (the
/// lab's context preparation).
fn context_for(constraint: &RegisteredConstraint, op: Op) -> ObjectId {
    let class = constraint
        .context_class
        .as_ref()
        .map(|c| c.as_str())
        .unwrap_or("Company");
    match class {
        "Employee" => {
            let emp = match op {
                Op::RecordWork { emp, .. }
                | Op::SetWorkloadLimit { emp, .. }
                | Op::ResetDay { emp } => emp,
                _ => 0,
            };
            ObjectId::new("Employee", emp.to_string())
        }
        "Project" => {
            let proj = match op {
                Op::RecordWork { proj, .. } => proj,
                Op::TransferBudget { from, .. } => from,
                _ => 0,
            };
            ObjectId::new("Project", proj.to_string())
        }
        _ => ObjectId::new("Company", "0"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TargetClass as _TC;

    #[test]
    fn engine_binds_expected_checks_per_method() {
        let engine = RepoEngine::new(Mechanism::Dyn, true, SliceLevel::R5, false);
        let record = &engine.bindings["recordWork"];
        assert_eq!(record.pres.len(), 2);
        assert_eq!(record.posts.len(), 1);
        assert_eq!(record.invs.len(), 2);
        let audit = &engine.bindings["audit"];
        assert_eq!(audit.invs.len(), 2);
        assert!(audit.pres.is_empty());
    }

    #[test]
    fn repository_holds_all_78() {
        let engine = RepoEngine::new(Mechanism::Static, false, SliceLevel::R5, false);
        assert_eq!(engine.repo.len(), 78);
    }

    #[test]
    fn target_class_names_cover_dispatch_tables() {
        for tc in [_TC::Employee, _TC::Project, _TC::Company] {
            assert!(!tc.name().is_empty());
        }
    }
}
