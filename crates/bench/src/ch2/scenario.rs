//! The measured scenario and measurement helpers (§2.3).

use crate::model::{Company, Op};
use crate::strategies::{CheckCounts, Strategy};
use dedisys_constraints::{
    ConstraintMeta, ConstraintRepository, ContextPreparation, LookupKind, LookupMode,
    RegisteredConstraint, ValidationContext,
};
use dedisys_types::MethodSignature;
use std::sync::Arc;
use std::time::Instant;

/// The deterministic operation mix of one scenario run: 1600
/// constrained method invocations (the paper's run intercepted 1605).
pub fn default_ops() -> Vec<Op> {
    let mut ops = Vec::with_capacity(1600);
    // 32 working rounds over 25 employees: record work, with periodic
    // day resets keeping everyone under the workload limit.
    for round in 0..32 {
        for emp in 0..25 {
            ops.push(Op::RecordWork {
                emp,
                proj: emp % 10,
                minutes: 12,
            });
        }
        if round % 8 == 7 {
            for emp in 0..25 {
                ops.push(Op::ResetDay { emp });
            }
        }
    }
    // 12 administrative rounds adjusting workload limits.
    for _ in 0..12 {
        for emp in 0..25 {
            ops.push(Op::SetWorkloadLimit { emp, limit: 480 });
        }
    }
    // 250 budget transfers.
    for i in 0..250 {
        ops.push(Op::TransferBudget {
            from: i % 10,
            to: (i + 1) % 10,
            amount: 100,
        });
    }
    // 150 audits.
    for _ in 0..150 {
        ops.push(Op::Audit);
    }
    debug_assert_eq!(ops.len(), 1600);
    ops
}

/// Measures `strategy` over the default scenario in wall-clock time:
/// unmeasured warm-up runs (the paper's JIT warm-up, §2.3.2), then the
/// measured runs, each on a freshly generated company. Returns the mean
/// nanoseconds per measured run; slower strategies get fewer runs.
pub fn measure(strategy: Strategy) -> f64 {
    let (warmup, runs) = match strategy {
        Strategy::Interpreted | Strategy::Repository { cached: false, .. } => (3, 10),
        _ => (10, 40),
    };
    let ops = default_ops();
    let mut runner = strategy.runner();
    let mut run = || runner.run(&mut Company::generate(), &ops, &mut CheckCounts::default());
    for _ in 0..warmup {
        run();
    }
    let start = Instant::now();
    for _ in 0..runs {
        run();
    }
    start.elapsed().as_nanos() as f64 / f64::from(runs)
}

/// One row of the §2.3.2 lookup-time study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LookupStudyRow {
    /// Number of classes in the repository.
    pub classes: u32,
    /// Methods per class.
    pub methods_per_class: u32,
    /// Total registered constraints.
    pub constraints: u32,
    /// Average nanoseconds per (warm, cached) lookup.
    pub nanos_per_lookup: f64,
}

/// Reproduces the §2.3.2 lookup study: repositories of 25/50/100
/// classes × 10/25/50 methods (≥ one constraint per method), fully
/// warmed cache, measuring the per-lookup time — the paper found
/// 0.25–0.52 µs independent of the entry count.
pub fn lookup_time_study() -> Vec<LookupStudyRow> {
    let mut rows = Vec::new();
    for (classes, methods) in [(25u32, 10u32), (50, 25), (100, 50)] {
        let mut repo = ConstraintRepository::new(LookupMode::Cached);
        for class in 0..classes {
            for method in 0..methods {
                let constraint = RegisteredConstraint::new(
                    ConstraintMeta::new(format!("C_{class}_{method}")),
                    Arc::new(|_: &mut ValidationContext<'_>| Ok(true)),
                )
                .context_class(format!("Class{class}"))
                .affects(
                    format!("Class{class}"),
                    format!("method{method}"),
                    ContextPreparation::CalledObject,
                );
                repo.register(constraint).expect("unique names");
            }
        }
        let sigs: Vec<MethodSignature> = (0..classes)
            .flat_map(|c| {
                (0..methods)
                    .map(move |m| MethodSignature::new(format!("Class{c}"), format!("method{m}")))
            })
            .collect();
        // Warm the cache (the study assumes a fully initialized
        // repository).
        for sig in &sigs {
            std::hint::black_box(repo.lookup(sig, LookupKind::Invariant));
        }
        let iterations = 200_000usize;
        let start = Instant::now();
        for i in 0..iterations {
            let sig = &sigs[i % sigs.len()];
            std::hint::black_box(repo.lookup(sig, LookupKind::Invariant));
        }
        let elapsed = start.elapsed();
        rows.push(LookupStudyRow {
            classes,
            methods_per_class: methods,
            constraints: classes * methods,
            nanos_per_lookup: elapsed.as_nanos() as f64 / iterations as f64,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_has_1600_ops_and_never_violates() {
        let ops = default_ops();
        assert_eq!(ops.len(), 1600);
        let mut company = Company::generate();
        let mut counts = CheckCounts::default();
        Strategy::Handcrafted
            .runner()
            .run(&mut company, &ops, &mut counts);
        assert_eq!(counts.violations, 0);
        assert_eq!(counts.intercepted, 1600);
        // The paper's run: 4875 invariants, 1097 posts, 433 pres —
        // ours is the same order of magnitude.
        assert!(counts.invariants > 2000, "{counts:?}");
        assert!(counts.posts > 500, "{counts:?}");
        assert!(counts.pres > 300, "{counts:?}");
    }

    #[test]
    fn measure_returns_sane_report() {
        let handcrafted = measure(Strategy::Handcrafted);
        assert!(handcrafted > 0.0);
        assert!(handcrafted / measure(Strategy::NoChecks) >= 1.0);
    }

    #[test]
    fn lookup_study_rows() {
        // Smoke-check the smallest configuration only (fast).
        let rows = lookup_time_study();
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(row.nanos_per_lookup > 0.0);
            assert_eq!(row.constraints, row.classes * row.methods_per_class);
        }
    }
}
