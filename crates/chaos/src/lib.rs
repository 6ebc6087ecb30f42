//! # dedisys-chaos — deterministic chaos engine
//!
//! Robustness harness for the DeDiSys reproduction: seeded schedules
//! of workload ops and faults ([`Schedule`]), one engine that runs them
//! ([`ChaosEngine`]) — the paper's applications under their
//! constraints on one shard, a cross-shard transfer mix on several —
//! and safety invariants ([`InvariantChecker`]) checked after every
//! injected fault. Among them is threat completeness, checked by
//! [`Cluster::audit`](dedisys_core::Cluster::audit): dissertation §3.2
//! promises that no integrity violation goes unnoticed, so every
//! violation of an enabled invariant in the committed state must be
//! explained by a standing threat or a pending reconciliation.
//!
//! Everything runs on the shared virtual clock, and every random
//! decision flows from one explicit seed through [`ChaosRng`]
//! (SplitMix64, defined in `dedisys-types`), so a chaos run is a
//! *reproducible artifact*: the seed of a failing soak is the bug
//! report, and two runs of the same seed write byte-identical JSONL
//! traces. A run hands back its schedule with every draw recorded
//! ([`ChaosReport::schedule`]); [`Schedule::shrink`] cuts a failing one
//! down to the few steps the failure needs.
//!
//! ```
//! use dedisys_chaos::{ChaosConfig, ChaosEngine};
//!
//! let report = ChaosEngine::new(ChaosConfig {
//!     seed: 42,
//!     ops: 60,
//!     faults: 6,
//!     ..ChaosConfig::default()
//! })
//! .unwrap()
//! .run()
//! .unwrap();
//! assert!(report.clean(), "{:?}", report.violations);
//! ```

#![warn(missing_docs)]

mod engine;
mod invariant;
mod plan;

pub use engine::{
    account_balance, chaos_app, fund_accounts, prepare_transfer, ChaosConfig, ChaosEngine,
    ChaosReport, ConstraintActivity, SoakDraws,
};
pub use invariant::{InvariantChecker, InvariantViolation};
pub use plan::{FaultStep, Schedule, Step};

// The workspace's one seeded generator lives in `dedisys-types`, so the
// layers below this crate (`gms`, `apps`) draw from the same definition.
pub use dedisys_types::ChaosRng;
