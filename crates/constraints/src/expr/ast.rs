//! Abstract syntax of constraint expressions.

use dedisys_types::{ClassName, Value};

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+` (numeric addition; string concatenation).
    Add,
    /// `-`.
    Sub,
    /// `*`.
    Mul,
    /// `/`.
    Div,
    /// `%`.
    Rem,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
    /// `=` / `==`.
    Eq,
    /// `<>` / `!=`.
    Ne,
    /// `and` (short-circuit).
    And,
    /// `or` (short-circuit).
    Or,
    /// `implies` (short-circuit: false antecedent ⇒ true).
    Implies,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// `not`.
    Not,
    /// Numeric negation.
    Neg,
}

/// A constraint expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value.
    Literal(Value),
    /// The context object (`self`).
    SelfRef,
    /// `env("key")` — middleware-provided environment value.
    Env(String),
    /// `pre("key")` — value snapshotted by `before_method_invocation`.
    Pre(String),
    /// `arg(i)` — i-th method argument.
    Arg(usize),
    /// `result()` — the method result (postconditions).
    MethodResult,
    /// `count("Class")` — number of reachable objects of the class.
    Count(ClassName),
    /// `size(e)` — length of a list or string.
    Size(Box<Expr>),
    /// Field navigation `e.field` (on object references).
    Field(Box<Expr>, String),
    /// Unary operation.
    Unary(UnaryOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
}

impl std::fmt::Display for BinOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Implies => "implies",
        };
        f.write_str(s)
    }
}

impl std::fmt::Display for Expr {
    /// Pretty-prints the expression with full parenthesization, so
    /// `parse(expr.to_string())` reproduces the same AST.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Expr::Literal(Value::Str(s)) => write!(f, "{:?}", s),
            Expr::Literal(Value::Float(x)) => write!(f, "{x:?}"),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::SelfRef => f.write_str("self"),
            Expr::Env(k) => write!(f, "env({k:?})"),
            Expr::Pre(k) => write!(f, "pre({k:?})"),
            Expr::Arg(i) => write!(f, "arg({i})"),
            Expr::MethodResult => f.write_str("result()"),
            Expr::Count(class) => write!(f, "count({:?})", class.as_str()),
            Expr::Size(e) => write!(f, "size({e})"),
            Expr::Field(e, field) => write!(f, "{e}.{field}"),
            Expr::Unary(UnaryOp::Not, e) => write!(f, "(not {e})"),
            Expr::Unary(UnaryOp::Neg, e) => write!(f, "(-{e})"),
            Expr::Binary(op, l, r) => write!(f, "({l} {op} {r})"),
        }
    }
}
