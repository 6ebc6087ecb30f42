//! An OCL-like constraint expression language.
//!
//! Constraints are usually attached to design models as OCL (§1.5,
//! Figure 1.6). This module provides a runtime-interpreted equivalent
//! so constraints can be stated declaratively in the deployment
//! descriptor:
//!
//! ```text
//! self.soldTickets <= self.seats
//! self.repairReport.componentKind = "Signal Controller" or
//!     self.repairReport.componentKind = "Signal Cable"
//! pre("size") + 1 = size(self.items)
//! ```
//!
//! Supported forms: literals (`1`, `2.5`, `"x"`, `true`, `null`),
//! `self` navigation through reference fields (`self.a.b`), arithmetic
//! (`+ - * / %`), comparison (`< <= > >= = <> != ==`), boolean
//! `and`/`or`/`not`/`implies`, `size(e)` for lists and strings,
//! `count("Class")` (number of reachable objects of a class), `arg(i)`
//! (method argument), `result()` (method result, postconditions),
//! `pre("key")` (value snapshotted before the invocation) and
//! `env("key")` (middleware-provided environment values such as the
//! partition weight, §5.5.2).
//!
//! The interpreter doubles as the *slow, tool-generated* validation
//! strategy of Chapter 2's comparison (the Dresden-OCL analogue).

mod ast;
mod compile;
mod eval;
mod lexer;
mod parser;

pub use ast::{BinOp, Expr, UnaryOp};
pub use eval::evaluate;
pub use lexer::{tokenize, Token};
pub use parser::parse;

use crate::constraint::{CompiledInfo, ConstraintEngine, ReadSet};
use crate::{Constraint, ValidationContext};
use compile::{compile, Program};
use dedisys_types::{Error, Result};
use std::sync::OnceLock;

/// A constraint whose validation logic is an expression — interpreted
/// over the AST, or lowered once to a `Program` and run by the stack
/// VM (see [`ConstraintEngine`]).
#[derive(Debug, Clone)]
pub struct ExprConstraint {
    ast: Expr,
    /// Lazily-compiled program; populated on first compiled-engine use
    /// (or eagerly by the cluster at build time).
    program: OnceLock<Program>,
}

impl ExprConstraint {
    /// Parses `source` into an expression constraint.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Expr`] on lexical or syntax errors.
    ///
    /// ```
    /// use dedisys_constraints::expr::ExprConstraint;
    /// assert!(ExprConstraint::parse("self.soldTickets <= self.seats").is_ok());
    /// assert!(ExprConstraint::parse("self.soldTickets <=").is_err());
    /// ```
    pub fn parse(source: &str) -> Result<Self> {
        let ast = parse(source)?;
        Ok(Self {
            ast,
            program: OnceLock::new(),
        })
    }

    /// The compiled program, lowering the AST on first use.
    fn program(&self) -> &Program {
        self.program.get_or_init(|| compile(&self.ast))
    }
}

impl Constraint for ExprConstraint {
    fn validate(&self, ctx: &mut ValidationContext<'_>) -> Result<bool> {
        let value = evaluate(&self.ast, ctx)?;
        Ok(value.truthy())
    }

    fn validate_with(
        &self,
        engine: ConstraintEngine,
        ctx: &mut ValidationContext<'_>,
    ) -> Result<bool> {
        match engine {
            ConstraintEngine::Interpreted => self.validate(ctx),
            ConstraintEngine::Compiled => Ok(self.program().evaluate(ctx)?.truthy()),
        }
    }

    fn read_set(&self) -> Option<&ReadSet> {
        Some(self.program().read_set())
    }

    fn compiled(&self) -> Option<CompiledInfo> {
        Some(self.program().info())
    }
}

/// Parses and immediately evaluates `source` (tests, REPL-style use).
///
/// # Errors
///
/// Propagates parse and evaluation failures.
pub fn eval_str(source: &str, ctx: &mut ValidationContext<'_>) -> Result<dedisys_types::Value> {
    let ast = parse(source)?;
    evaluate(&ast, ctx)
}

/// Helper constructing an [`Error::Expr`].
pub(crate) fn expr_err(msg: impl Into<String>) -> Error {
    Error::Expr(msg.into())
}

// The interpreter is a pure function over the AST; a cluster that runs
// on another thread (the §4.5 Web gateway's workers) relies on
// `ExprConstraint` being shareable across threads.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ExprConstraint>();
    assert_send_sync::<Expr>();
};
