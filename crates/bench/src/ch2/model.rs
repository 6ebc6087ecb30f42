//! The §2.3 reference application: project and employee management.
//!
//! Kept deliberately lightweight (plain integers, no I/O) so the
//! *validation* overheads dominate — in the paper the handcrafted
//! checks alone already ran 35× the unchecked application.

/// Which class an operation targets (drives constraint lookup).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TargetClass {
    /// An employee.
    Employee,
    /// A project.
    Project,
    /// The company itself.
    Company,
}

impl TargetClass {
    /// The class name used in repository signatures.
    pub fn name(self) -> &'static str {
        match self {
            TargetClass::Employee => "Employee",
            TargetClass::Project => "Project",
            TargetClass::Company => "Company",
        }
    }
}

/// One employee record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Employee {
    /// Daily workload limit in minutes.
    pub workload_limit: i64,
    /// Minutes worked today.
    pub daily_minutes: i64,
    /// Projects the employee participates in.
    pub assigned: Vec<usize>,
    /// Accumulated vacation days.
    pub vacation_days: i64,
}

/// One project record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Project {
    /// Budgeted effort in minutes.
    pub budget_minutes: i64,
    /// Effort consumed so far.
    pub consumed_minutes: i64,
    /// Member employees.
    pub members: Vec<usize>,
}

/// The whole company state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Company {
    /// All employees.
    pub employees: Vec<Employee>,
    /// All projects.
    pub projects: Vec<Project>,
    /// Total budget across projects (invariant: stays constant under
    /// transfers).
    pub total_budget: i64,
}

impl Company {
    /// Generates the deterministic reference company: 25 employees,
    /// 10 projects.
    pub fn generate() -> Self {
        let employees = (0..25)
            .map(|i| Employee {
                workload_limit: 480,
                daily_minutes: 0,
                assigned: vec![i % 10],
                vacation_days: 25,
            })
            .collect();
        let projects = (0..10)
            .map(|_| Project {
                budget_minutes: 1_000_000,
                consumed_minutes: 0,
                members: Vec::new(),
            })
            .collect();
        let mut company = Company {
            employees,
            projects,
            total_budget: 10_000_000,
        };
        for e in 0..25 {
            company.projects[e % 10].members.push(e);
        }
        company
    }
}

/// An operation of the measured scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `Employee::recordWork(project, minutes)` — precondition
    /// `minutes > 0`, postcondition "consumed increased by minutes",
    /// invariants on the employee and the project.
    RecordWork {
        /// Employee index.
        emp: usize,
        /// Project index.
        proj: usize,
        /// Minutes worked.
        minutes: i64,
    },
    /// `Employee::setWorkloadLimit(limit)` — precondition `limit ≥ 0`.
    SetWorkloadLimit {
        /// Employee index.
        emp: usize,
        /// New limit.
        limit: i64,
    },
    /// `Employee::resetDay()` — clears daily minutes (no
    /// preconditions; invariants still triggered).
    ResetDay {
        /// Employee index.
        emp: usize,
    },
    /// `Project::transferBudget(to, amount)` — precondition
    /// `amount > 0`, postcondition "total budget unchanged",
    /// invariants on both projects.
    TransferBudget {
        /// Source project.
        from: usize,
        /// Destination project.
        to: usize,
        /// Amount in minutes.
        amount: i64,
    },
    /// `Company::audit()` — a read-mostly operation touching every
    /// project (query-style invariants).
    Audit,
}

impl Op {
    /// The class whose method this operation invokes.
    pub fn target_class(self) -> TargetClass {
        match self {
            Op::RecordWork { .. } | Op::SetWorkloadLimit { .. } | Op::ResetDay { .. } => {
                TargetClass::Employee
            }
            Op::TransferBudget { .. } => TargetClass::Project,
            Op::Audit => TargetClass::Company,
        }
    }

    /// The invoked method name.
    pub fn method_name(self) -> &'static str {
        match self {
            Op::RecordWork { .. } => "recordWork",
            Op::SetWorkloadLimit { .. } => "setWorkloadLimit",
            Op::ResetDay { .. } => "resetDay",
            Op::TransferBudget { .. } => "transferBudget",
            Op::Audit => "audit",
        }
    }

    /// Applies the raw business logic (no checks). Returns the
    /// method's "result" (used by postconditions).
    pub fn apply(self, company: &mut Company) -> i64 {
        match self {
            Op::RecordWork { emp, proj, minutes } => {
                company.employees[emp].daily_minutes += minutes;
                company.projects[proj].consumed_minutes += minutes;
                company.employees[emp].daily_minutes
            }
            Op::SetWorkloadLimit { emp, limit } => {
                company.employees[emp].workload_limit = limit;
                limit
            }
            Op::ResetDay { emp } => {
                company.employees[emp].daily_minutes = 0;
                0
            }
            Op::TransferBudget { from, to, amount } => {
                company.projects[from].budget_minutes -= amount;
                company.projects[to].budget_minutes += amount;
                company.projects[to].budget_minutes
            }
            Op::Audit => company
                .projects
                .iter()
                .map(|p| p.consumed_minutes)
                .sum::<i64>(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_company_shape() {
        let c = Company::generate();
        assert_eq!(c.employees.len(), 25);
        assert_eq!(c.projects.len(), 10);
        assert_eq!(
            c.projects.iter().map(|p| p.members.len()).sum::<usize>(),
            25
        );
    }

    #[test]
    fn ops_apply_business_logic() {
        let mut c = Company::generate();
        let after = Op::RecordWork {
            emp: 0,
            proj: 0,
            minutes: 60,
        }
        .apply(&mut c);
        assert_eq!(after, 60);
        assert_eq!(c.projects[0].consumed_minutes, 60);

        Op::TransferBudget {
            from: 0,
            to: 1,
            amount: 100,
        }
        .apply(&mut c);
        assert_eq!(c.projects[0].budget_minutes, 999_900);
        assert_eq!(c.projects[1].budget_minutes, 1_000_100);

        Op::ResetDay { emp: 0 }.apply(&mut c);
        assert_eq!(c.employees[0].daily_minutes, 0);
    }

    #[test]
    fn op_metadata() {
        assert_eq!(Op::Audit.target_class(), TargetClass::Company);
        assert_eq!(
            Op::RecordWork {
                emp: 0,
                proj: 0,
                minutes: 1
            }
            .method_name(),
            "recordWork"
        );
    }
}
