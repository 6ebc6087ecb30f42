//! The constraint-validation strategies under comparison (§2.2.1).

mod native;
mod repo;

use crate::model::{Company, Op};
use std::fmt;

/// Check/search counters of one scenario run (the per-run numbers of
/// §2.3.2: the paper's run triggered 4875 invariant, 1097
/// postcondition and 433 precondition checks over 1605 intercepted
/// methods and 7677 repository searches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckCounts {
    /// Intercepted method invocations.
    pub intercepted: u64,
    /// Precondition checks.
    pub pres: u64,
    /// Postcondition checks.
    pub posts: u64,
    /// Invariant checks (before + after).
    pub invariants: u64,
    /// Constraint-repository search operations.
    pub searches: u64,
    /// Violations observed (the scenario is designed for zero).
    pub violations: u64,
}

/// Interception mechanism of the repository strategies — the analogues
/// of AspectJ, JBoss AOP and `java.lang.reflect.Proxy` (§2.1.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mechanism {
    /// Statically dispatched advice (AspectJ analogue): near-free
    /// interception, but expensive parameter extraction (the
    /// `getClass().getMethod(..)` lookup, §2.3.2).
    Static,
    /// Invocation objects through a dynamic interceptor chain (JBoss
    /// AOP analogue): heap-allocated invocation + virtual dispatch, but
    /// the method handle comes with the invocation.
    Dyn,
    /// Name-based dispatch through a handler table (Java-proxy
    /// analogue): reflective lookup per call.
    Reflective,
}

impl Mechanism {
    /// The three mechanisms.
    pub const ALL: [Mechanism; 3] = [Mechanism::Static, Mechanism::Dyn, Mechanism::Reflective];

    /// Paper-facing label.
    pub fn label(self) -> &'static str {
        match self {
            Mechanism::Static => "AspectJ",
            Mechanism::Dyn => "JBossAOP",
            Mechanism::Reflective => "Java-Proxy",
        }
    }
}

/// How far down the runtime slices of Figure 2.3 a repository strategy
/// executes (cumulative; R1 alone, the plain application, is
/// [`Strategy::NoChecks`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SliceLevel {
    /// R1 + R2: invocation interception.
    R2,
    /// + R3: parameter extraction.
    R3,
    /// + R4: repository search.
    R4,
    /// + R5: constraint checks (the full strategy).
    R5,
}

/// A constraint-validation strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// The application without any constraint checks.
    NoChecks,
    /// Checks tangled into the business code (§2.1.1).
    Handcrafted,
    /// Checks encoded in statically dispatched interceptors — the
    /// AspectJ-Interceptor configuration (§2.2.1).
    InterceptorInline,
    /// Compiler-generated checking machinery with pre-state snapshots
    /// and contract inheritance — the JML analogue (§2.1.3).
    Generated,
    /// Explicit constraint classes behind a repository and a generic
    /// interception mechanism (§2.1.4/§2.1.5).
    Repository {
        /// Interception mechanism.
        mechanism: Mechanism,
        /// Optimized (cached) repository or search-per-invocation.
        cached: bool,
        /// Slice gate (use [`SliceLevel::R5`] for the full strategy).
        slice: SliceLevel,
    },
    /// Tool-generated, runtime-interpreted checks — the Dresden-OCL
    /// analogue (§2.1.2).
    Interpreted,
}

impl Strategy {
    /// The full repository strategy for a mechanism.
    pub fn repository(mechanism: Mechanism, cached: bool) -> Strategy {
        Strategy::Repository {
            mechanism,
            cached,
            slice: SliceLevel::R5,
        }
    }

    /// Paper-facing label.
    pub fn label(&self) -> String {
        match self {
            Strategy::NoChecks => "No checks".into(),
            Strategy::Handcrafted => "Handcrafted".into(),
            Strategy::InterceptorInline => "AspectJ-Interceptor".into(),
            Strategy::Generated => "JML".into(),
            Strategy::Repository {
                mechanism, cached, ..
            } => format!(
                "{}-Rep{}",
                mechanism.label(),
                if *cached { "-Opt" } else { "" }
            ),
            Strategy::Interpreted => "Dresden-OCL".into(),
        }
    }

    /// Prepares a reusable runner (repository construction, constraint
    /// parsing and registration happen once, like class-loading in the
    /// original).
    pub fn runner(&self) -> Runner {
        Runner::new(*self)
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// A prepared strategy executor.
pub struct Runner {
    strategy: Strategy,
    repo_engine: Option<repo::RepoEngine>,
}

impl fmt::Debug for Runner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Runner({})", self.strategy)
    }
}

impl Runner {
    /// Prepares the runner.
    pub fn new(strategy: Strategy) -> Self {
        let repo_engine = match strategy {
            Strategy::Repository {
                mechanism,
                cached,
                slice,
            } => Some(repo::RepoEngine::new(mechanism, cached, slice, false)),
            Strategy::Interpreted => Some(repo::RepoEngine::wrapper_based()),
            _ => None,
        };
        Self {
            strategy,
            repo_engine,
        }
    }

    /// Executes the scenario once.
    pub fn run(&mut self, company: &mut Company, ops: &[Op], counts: &mut CheckCounts) {
        match self.strategy {
            Strategy::NoChecks => native::run_no_checks(company, ops),
            Strategy::Handcrafted => native::run_handcrafted(company, ops, counts),
            Strategy::InterceptorInline => native::run_interceptor_inline(company, ops, counts),
            Strategy::Generated => native::run_generated(company, ops, counts),
            Strategy::Repository { .. } | Strategy::Interpreted => self
                .repo_engine
                .as_mut()
                .expect("prepared")
                .run(company, ops, counts),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::default_ops;

    fn run(strategy: Strategy) -> (CheckCounts, Company) {
        let ops = default_ops();
        let mut company = Company::generate();
        let mut counts = CheckCounts::default();
        strategy.runner().run(&mut company, &ops, &mut counts);
        (counts, company)
    }

    #[test]
    fn all_strategies_produce_identical_final_state() {
        let (_, reference) = run(Strategy::NoChecks);
        for strategy in [
            Strategy::Handcrafted,
            Strategy::InterceptorInline,
            Strategy::Generated,
            Strategy::repository(Mechanism::Static, true),
            Strategy::repository(Mechanism::Dyn, true),
            Strategy::repository(Mechanism::Reflective, true),
            Strategy::repository(Mechanism::Dyn, false),
            Strategy::Interpreted,
        ] {
            let (counts, company) = run(strategy);
            assert_eq!(company, reference, "{strategy}");
            assert_eq!(counts.violations, 0, "{strategy}");
        }
    }

    #[test]
    fn checking_strategies_count_identical_checks() {
        let (reference, _) = run(Strategy::Handcrafted);
        assert!(reference.pres + reference.posts + reference.invariants > 0);
        for strategy in [
            Strategy::InterceptorInline,
            Strategy::Generated,
            Strategy::repository(Mechanism::Static, true),
            Strategy::repository(Mechanism::Reflective, false),
            Strategy::Interpreted,
        ] {
            let (counts, _) = run(strategy);
            assert_eq!(counts.pres, reference.pres, "{strategy}");
            assert_eq!(counts.posts, reference.posts, "{strategy}");
            assert_eq!(counts.invariants, reference.invariants, "{strategy}");
        }
    }

    #[test]
    fn slice_gating_stops_early() {
        let ops = default_ops();
        for slice in [SliceLevel::R2, SliceLevel::R3, SliceLevel::R4] {
            let mut company = Company::generate();
            let mut counts = CheckCounts::default();
            Strategy::Repository {
                mechanism: Mechanism::Dyn,
                cached: true,
                slice,
            }
            .runner()
            .run(&mut company, &ops, &mut counts);
            assert_eq!(
                counts.pres + counts.posts + counts.invariants,
                0,
                "{slice:?} runs no checks"
            );
            if slice < SliceLevel::R4 {
                assert_eq!(counts.searches, 0);
            } else {
                assert!(counts.searches > 0);
            }
        }
    }

    #[test]
    fn scan_mode_searches_cost_more_examinations() {
        // Verified indirectly: scan mode still yields the same counts
        // (searches count queries, not constraints examined).
        let (cached, _) = run(Strategy::repository(Mechanism::Dyn, true));
        let (scanned, _) = run(Strategy::repository(Mechanism::Dyn, false));
        assert_eq!(cached.searches, scanned.searches);
    }

    #[test]
    fn labels_match_paper_vocabulary() {
        assert_eq!(
            Strategy::repository(Mechanism::Dyn, true).label(),
            "JBossAOP-Rep-Opt"
        );
        assert_eq!(
            Strategy::repository(Mechanism::Reflective, false).label(),
            "Java-Proxy-Rep"
        );
        assert_eq!(Strategy::Interpreted.label(), "Dresden-OCL");
    }
}
