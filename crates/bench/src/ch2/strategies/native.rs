//! Natively compiled strategies: no-checks, handcrafted,
//! interceptor-inline (AspectJ) and generated (JML).

use super::CheckCounts;
use crate::constraints_def::{native_checks_for, OpCtx, PreSnapshot};
use crate::model::{Company, Op};

/// R1: the plain application.
pub fn run_no_checks(company: &mut Company, ops: &[Op]) {
    for &op in ops {
        std::hint::black_box(op.apply(company));
    }
}

#[inline(always)]
fn record_violation(counts: &mut CheckCounts, ok: bool) {
    if !ok {
        counts.violations += 1;
    }
}

/// Handcrafted checks (§2.1.1): constraint logic tangled directly into
/// each operation as literal `if` statements — the fastest checking
/// approach and the baseline of Figures 2.1/2.2.
pub fn run_handcrafted(company: &mut Company, ops: &[Op], counts: &mut CheckCounts) {
    for &op in ops {
        counts.intercepted += 1;
        match op {
            Op::RecordWork { emp, proj, minutes } => {
                // Preconditions.
                counts.pres += 2;
                record_violation(counts, minutes > 0);
                record_violation(counts, minutes <= 480);
                // Invariants before.
                counts.invariants += 2;
                record_violation(
                    counts,
                    company.employees[emp].daily_minutes <= company.employees[emp].workload_limit,
                );
                record_violation(
                    counts,
                    company.projects[proj].consumed_minutes
                        <= company.projects[proj].budget_minutes,
                );
                let daily_before = company.employees[emp].daily_minutes;
                let result = op.apply(company);
                // Postcondition.
                counts.posts += 1;
                record_violation(
                    counts,
                    company.employees[emp].daily_minutes == daily_before + minutes,
                );
                // Invariants after.
                counts.invariants += 2;
                record_violation(
                    counts,
                    company.employees[emp].daily_minutes <= company.employees[emp].workload_limit,
                );
                record_violation(
                    counts,
                    company.projects[proj].consumed_minutes
                        <= company.projects[proj].budget_minutes,
                );
                std::hint::black_box(result);
            }
            Op::SetWorkloadLimit { emp, limit } => {
                counts.pres += 1;
                record_violation(counts, limit >= 0);
                counts.invariants += 2;
                record_violation(
                    counts,
                    company.employees[emp].daily_minutes <= company.employees[emp].workload_limit,
                );
                record_violation(counts, company.employees[emp].workload_limit <= 1440);
                let result = op.apply(company);
                counts.posts += 1;
                record_violation(counts, company.employees[emp].workload_limit == limit);
                counts.invariants += 2;
                record_violation(
                    counts,
                    company.employees[emp].daily_minutes <= company.employees[emp].workload_limit,
                );
                record_violation(counts, company.employees[emp].workload_limit <= 1440);
                std::hint::black_box(result);
            }
            Op::ResetDay { emp } => {
                counts.invariants += 1;
                record_violation(counts, company.employees[emp].daily_minutes >= 0);
                let result = op.apply(company);
                counts.posts += 1;
                record_violation(counts, company.employees[emp].daily_minutes == 0);
                counts.invariants += 1;
                record_violation(counts, company.employees[emp].daily_minutes >= 0);
                std::hint::black_box(result);
            }
            Op::TransferBudget { from, to, amount } => {
                counts.pres += 2;
                record_violation(counts, amount > 0);
                record_violation(counts, amount <= 10_000);
                counts.invariants += 2;
                record_violation(counts, company.projects[from].budget_minutes >= 0);
                record_violation(
                    counts,
                    company
                        .projects
                        .iter()
                        .map(|p| p.budget_minutes)
                        .sum::<i64>()
                        == company.total_budget,
                );
                let total_before: i64 = company.projects.iter().map(|p| p.budget_minutes).sum();
                let result = op.apply(company);
                counts.posts += 2;
                record_violation(
                    counts,
                    company
                        .projects
                        .iter()
                        .map(|p| p.budget_minutes)
                        .sum::<i64>()
                        == total_before,
                );
                record_violation(counts, company.projects[to].budget_minutes == result);
                counts.invariants += 2;
                record_violation(counts, company.projects[from].budget_minutes >= 0);
                record_violation(
                    counts,
                    company
                        .projects
                        .iter()
                        .map(|p| p.budget_minutes)
                        .sum::<i64>()
                        == company.total_budget,
                );
                std::hint::black_box(result);
            }
            Op::Audit => {
                counts.invariants += 2;
                record_violation(
                    counts,
                    company
                        .projects
                        .iter()
                        .map(|p| p.budget_minutes)
                        .sum::<i64>()
                        == company.total_budget,
                );
                record_violation(
                    counts,
                    company
                        .projects
                        .iter()
                        .flat_map(|p| p.members.iter())
                        .all(|&m| m < company.employees.len()),
                );
                let result = op.apply(company);
                counts.invariants += 2;
                record_violation(
                    counts,
                    company
                        .projects
                        .iter()
                        .map(|p| p.budget_minutes)
                        .sum::<i64>()
                        == company.total_budget,
                );
                record_violation(
                    counts,
                    company
                        .projects
                        .iter()
                        .flat_map(|p| p.members.iter())
                        .all(|&m| m < company.employees.len()),
                );
                std::hint::black_box(result);
            }
        }
    }
}

/// Constraints encoded in statically dispatched interceptors — the
/// AspectJ-Interceptor configuration (§2.2.5): a generic advice wraps
/// every operation, resolving the method's checks from a static table
/// and executing them as direct function calls.
pub fn run_interceptor_inline(company: &mut Company, ops: &[Op], counts: &mut CheckCounts) {
    for &op in ops {
        counts.intercepted += 1;
        let checks = native_checks_for(op.method_name());
        let mut ctx = OpCtx {
            op,
            result: 0,
            pre: PreSnapshot::capture(op, company),
        };
        for c in checks.pres {
            counts.pres += 1;
            record_violation(counts, (c.check)(company, &ctx));
        }
        for c in checks.invs {
            counts.invariants += 1;
            record_violation(counts, (c.check)(company, &ctx));
        }
        ctx.result = op.apply(company);
        for c in checks.posts {
            counts.posts += 1;
            record_violation(counts, (c.check)(company, &ctx));
        }
        for c in checks.invs {
            counts.invariants += 1;
            record_violation(counts, (c.check)(company, &ctx));
        }
    }
}

/// One evaluated assertion of the generated (JML-style) machinery:
/// carries a descriptive label like the generated assertion objects of
/// the original tools.
struct JmlAssertion {
    label: String,
    holds: bool,
}

/// Compiler-generated checks — the JML analogue (§2.2.4): wrapper
/// methods snapshot the full pre-state of the touched objects, evaluate
/// each contract across the (three-level) specification-inheritance
/// chain — preconditions OR-composed, postconditions and invariants
/// AND-composed (§2.3.1) — and materialize assertion objects.
pub fn run_generated(company: &mut Company, ops: &[Op], counts: &mut CheckCounts) {
    const INHERITANCE_LEVELS: usize = 3;
    let mut assertions: Vec<JmlAssertion> = Vec::new();
    for &op in ops {
        counts.intercepted += 1;
        assertions.clear();
        let checks = native_checks_for(op.method_name());
        // Full pre-state snapshot (JML's \old machinery copies state).
        let old_employees = company.employees.clone();
        let old_projects = company.projects.clone();
        let mut ctx = OpCtx {
            op,
            result: 0,
            pre: PreSnapshot::capture(op, company),
        };
        for c in checks.pres {
            counts.pres += 1;
            // Preconditions of the inheritance chain are OR-composed.
            let mut holds = false;
            for level in 0..INHERITANCE_LEVELS {
                let level_holds = (c.check)(company, &ctx);
                assertions.push(JmlAssertion {
                    label: format!("{}@pre level {level}", c.name),
                    holds: level_holds,
                });
                holds |= level_holds;
            }
            record_violation(counts, holds);
        }
        for c in checks.invs {
            counts.invariants += 1;
            let mut holds = true;
            for level in 0..INHERITANCE_LEVELS {
                let level_holds = (c.check)(company, &ctx);
                assertions.push(JmlAssertion {
                    label: format!("{}@inv-entry level {level}", c.name),
                    holds: level_holds,
                });
                holds &= level_holds;
            }
            record_violation(counts, holds);
        }
        ctx.result = op.apply(company);
        for c in checks.posts {
            counts.posts += 1;
            let mut holds = true;
            for level in 0..INHERITANCE_LEVELS {
                let level_holds = (c.check)(company, &ctx);
                assertions.push(JmlAssertion {
                    label: format!("{}@post level {level}", c.name),
                    holds: level_holds,
                });
                holds &= level_holds;
            }
            record_violation(counts, holds);
        }
        for c in checks.invs {
            counts.invariants += 1;
            let mut holds = true;
            for level in 0..INHERITANCE_LEVELS {
                let level_holds = (c.check)(company, &ctx);
                assertions.push(JmlAssertion {
                    label: format!("{}@inv-exit level {level}", c.name),
                    holds: level_holds,
                });
                holds &= level_holds;
            }
            record_violation(counts, holds);
        }
        // The generated code keeps the old-state copies alive until the
        // method exit checks completed and reports failed assertions.
        debug_assert!(assertions.iter().all(|a| a.holds && !a.label.is_empty()));
        std::hint::black_box((&old_employees, &old_projects, &assertions));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::default_ops;

    #[test]
    fn handcrafted_and_inline_agree_on_counts() {
        let ops = default_ops();
        let mut c1 = Company::generate();
        let mut c2 = Company::generate();
        let mut n1 = CheckCounts::default();
        let mut n2 = CheckCounts::default();
        run_handcrafted(&mut c1, &ops, &mut n1);
        run_interceptor_inline(&mut c2, &ops, &mut n2);
        assert_eq!(n1, n2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn generated_counts_match_but_allocates_assertions() {
        let ops = default_ops();
        let mut c1 = Company::generate();
        let mut c2 = Company::generate();
        let mut n1 = CheckCounts::default();
        let mut n2 = CheckCounts::default();
        run_handcrafted(&mut c1, &ops, &mut n1);
        run_generated(&mut c2, &ops, &mut n2);
        assert_eq!(
            (n1.pres, n1.posts, n1.invariants),
            (n2.pres, n2.posts, n2.invariants)
        );
        assert_eq!(n2.violations, 0);
    }

    #[test]
    fn violations_are_detected() {
        // Force a violation: negative minutes precondition.
        let ops = vec![Op::RecordWork {
            emp: 0,
            proj: 0,
            minutes: -5,
        }];
        let mut company = Company::generate();
        let mut counts = CheckCounts::default();
        run_handcrafted(&mut company, &ops, &mut counts);
        assert!(counts.violations > 0);
    }
}
