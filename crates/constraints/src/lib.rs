//! # dedisys-constraints
//!
//! Explicit runtime integrity constraints — the constraint runtime model
//! of Figure 4.3 made into first-class Rust citizens.
//!
//! The dissertation's central requirement is that data integrity
//! constraints be *explicitly available and manageable during runtime*
//! (§1.5): encapsulated one-per-class, registered in a repository that
//! can be queried by class/method/kind, and add/remove/enable/disable-
//! able while the system runs. This crate provides:
//!
//! * [`Constraint`] — the `validate(ctx)` contract between middleware
//!   and application, plus `before_method_invocation` for `@pre`-style
//!   postconditions.
//! * [`ConstraintMeta`] / [`RegisteredConstraint`] — metadata: kind
//!   (pre/post/hard/soft/**async** invariant), tradeable priority,
//!   minimum satisfaction degree, context class, affected methods with
//!   context preparation, freshness criteria, intra-/inter-object scope.
//! * [`ConstraintRepository`] — runtime registry with two lookup
//!   implementations: **per-invocation search** and the **optimized
//!   (cached)** variant whose difference Chapter 2 quantifies.
//! * [`expr`] — a small OCL-like expression language (lexer, parser,
//!   interpreter) so constraints can also be given declaratively, e.g.
//!   `self.soldTickets <= self.seats`.
//! * [`ConstraintConfigSet`] — the JSON deployment descriptor (the
//!   Listing 4.1 equivalent) and its loader.
//!
//! ## Example
//!
//! ```
//! use dedisys_constraints::{
//!     expr::ExprConstraint, ConstraintKind, ConstraintMeta, ConstraintPriority,
//!     MapAccess, ValidationContext,
//! };
//! use dedisys_types::{ObjectId, Value};
//!
//! // The ticket constraint of Listing 1.2, declaratively:
//! let constraint = ExprConstraint::parse("self.soldTickets <= self.seats").unwrap();
//!
//! let flight = ObjectId::new("Flight", "LH-441");
//! let mut world = MapAccess::new();
//! world.put_field(&flight, "seats", Value::Int(80));
//! world.put_field(&flight, "soldTickets", Value::Int(77));
//!
//! let mut ctx = ValidationContext::for_invariant(flight, &mut world);
//! use dedisys_constraints::Constraint;
//! assert_eq!(constraint.validate(&mut ctx), Ok(true));
//! ```

mod config;
mod constraint;
mod context;
pub mod expr;
mod freshness;
mod preparation;
mod repository;

pub use config::{ConstraintConfigSet, ImplRegistry};
pub use constraint::{
    CompiledInfo, Constraint, ConstraintEngine, ConstraintKind, ConstraintMeta, ConstraintPriority,
    ObjectScope, ReadSet, RegisteredConstraint,
};
pub use context::{MapAccess, ObjectAccess, PreState, ValidationContext};
pub use freshness::FreshnessCriterion;
pub use preparation::ContextPreparation;
pub use repository::{ConstraintRepository, LookupKind, LookupMode, Matches, RepositoryStats};
