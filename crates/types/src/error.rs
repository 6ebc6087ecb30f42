//! The workspace error type.

use crate::{ConstraintName, MethodSignature, NodeId, ObjectId, SatisfactionDegree, TxId};
use std::fmt;

/// Convenience result alias using [`enum@Error`].
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced across the DeDiSys-RS workspace.
///
/// Following C-GOOD-ERR, this type implements [`std::error::Error`],
/// [`fmt::Display`], and is `Send + Sync`.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// An application object (or all of its replicas) is unreachable
    /// from the current partition.
    ObjectUnreachable(ObjectId),
    /// No object with the given id exists.
    ObjectNotFound(ObjectId),
    /// An object with the given id already exists.
    ObjectExists(ObjectId),
    /// The class or method is not part of the deployed application.
    MethodNotDeployed(MethodSignature),
    /// The class is not part of the deployed application.
    ClassNotDeployed(String),
    /// A constraint was violated in healthy mode; the operation was
    /// aborted (§4.2.3 — the CCMgr sets the transaction rollback-only).
    ConstraintViolated {
        /// The violated constraint.
        constraint: ConstraintName,
    },
    /// A consistency threat was not accepted during negotiation; the
    /// operation was aborted (§3.2.1).
    ThreatRejected {
        /// The threatened constraint.
        constraint: ConstraintName,
        /// The satisfaction degree that was rejected.
        degree: SatisfactionDegree,
    },
    /// An added or re-enabled constraint is violated by context objects
    /// whose threats negotiation rejected (§3.3): the change was
    /// refused whole.
    ConstraintChangeRejected {
        /// The constraint the change added or enabled.
        constraint: ConstraintName,
        /// The context objects that violate it, in id order.
        violators: Vec<ObjectId>,
    },
    /// The transaction does not exist or already terminated.
    NoSuchTransaction(TxId),
    /// The transaction was marked rollback-only and cannot commit.
    RollbackOnly(TxId),
    /// A lock on an object is held by another transaction.
    LockConflict {
        /// The contended object.
        object: ObjectId,
        /// The transaction holding the lock.
        holder: TxId,
    },
    /// The target node is not reachable from the caller's partition.
    NodeUnreachable(NodeId),
    /// The node id does not exist in the cluster topology.
    UnknownNode(NodeId),
    /// The node id appears more than once in a topology description.
    DuplicateNode(NodeId),
    /// The node has crashed and cannot serve requests until restarted.
    NodeCrashed(NodeId),
    /// A transaction whose coordinator crashed between prepare and
    /// commit; its outcome is unknown until in-doubt resolution runs.
    TxInDoubt(TxId),
    /// A field or environment value a constraint reads is missing or
    /// has the wrong type. Surfacing this instead of validating
    /// against a default prevents misconfigured constraints from
    /// passing spuriously.
    IllTypedField {
        /// The field or env key that was read.
        name: String,
        /// What the constraint expected to find (e.g. `"int"`).
        expected: String,
    },
    /// Invalid configuration (constraint descriptor, cluster setup, …).
    Config(String),
    /// A constraint-expression parse or evaluation error.
    Expr(String),
    /// The invoked operation is not permitted in the current system
    /// mode (e.g. writes blocked in a non-primary partition).
    ModeRestriction(String),
    /// Serialization/persistence failure.
    Persistence(String),
    /// The request plane refused admission: the node's token bucket
    /// is empty or its queue for the request's priority class is full
    /// and nothing lower-priority could be displaced.
    Overloaded {
        /// The node whose plane refused the request.
        node: NodeId,
        /// Queue depth across all classes at refusal time.
        depth: u32,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::ObjectUnreachable(id) => write!(f, "object {id} is unreachable"),
            Error::ObjectNotFound(id) => write!(f, "object {id} not found"),
            Error::ObjectExists(id) => write!(f, "object {id} already exists"),
            Error::MethodNotDeployed(sig) => write!(f, "method {sig} is not deployed"),
            Error::ClassNotDeployed(c) => write!(f, "class {c} is not deployed"),
            Error::ConstraintViolated { constraint } => {
                write!(f, "constraint {constraint} violated")
            }
            Error::ThreatRejected { constraint, degree } => {
                write!(f, "consistency threat on {constraint} ({degree}) rejected")
            }
            Error::ConstraintChangeRejected {
                constraint,
                violators,
            } => {
                write!(f, "change of constraint {constraint} refused: violated")?;
                let by = |at| if at == 0 { " by" } else { "," };
                (violators.iter().enumerate()).try_for_each(|(at, id)| write!(f, "{} {id}", by(at)))
            }
            Error::NoSuchTransaction(tx) => write!(f, "no such transaction {tx}"),
            Error::RollbackOnly(tx) => write!(f, "transaction {tx} is rollback-only"),
            Error::LockConflict { object, holder } => {
                write!(f, "lock on {object} held by {holder}")
            }
            Error::NodeUnreachable(n) => write!(f, "node {n} unreachable"),
            Error::UnknownNode(n) => write!(f, "node {n} does not exist in the cluster"),
            Error::DuplicateNode(n) => {
                write!(f, "node {n} appears more than once in the topology")
            }
            Error::NodeCrashed(n) => write!(f, "node {n} has crashed"),
            Error::TxInDoubt(tx) => {
                write!(f, "transaction {tx} is in doubt (coordinator crashed)")
            }
            Error::IllTypedField { name, expected } => {
                write!(f, "field or env value {name} is missing or not {expected}")
            }
            Error::Config(msg) => write!(f, "configuration error: {msg}"),
            Error::Expr(msg) => write!(f, "constraint expression error: {msg}"),
            Error::ModeRestriction(msg) => write!(f, "operation not allowed: {msg}"),
            Error::Persistence(msg) => write!(f, "persistence error: {msg}"),
            Error::Overloaded { node, depth } => write!(
                f,
                "node {node} is overloaded ({depth} request(s) queued); admission refused"
            ),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn error_is_send_sync() {
        assert_send_sync::<Error>();
    }

    #[test]
    fn display_messages_are_lowercase_and_nonempty() {
        let errors = [
            Error::ObjectUnreachable(ObjectId::new("A", "1")),
            Error::ConstraintViolated {
                constraint: ConstraintName::from("TicketConstraint"),
            },
            Error::ThreatRejected {
                constraint: ConstraintName::from("TicketConstraint"),
                degree: SatisfactionDegree::PossiblyViolated,
            },
            Error::ConstraintChangeRejected {
                constraint: ConstraintName::from("Capacity"),
                violators: vec![ObjectId::new("Warehouse", "W1")],
            },
        ];
        for e in errors {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(!msg.ends_with('.'));
        }
    }
}
