//! The threat-completeness audit (dissertation §3.2: no integrity
//! violation goes unnoticed).
//!
//! The audit re-evaluates every enabled invariant on every context
//! object, with the interpreter, against the committed state each live
//! node sees — read through the [`ReplicaAccess`] validation uses,
//! without a transaction. It bypasses the CCMgr, the verdict cache and
//! the transaction buffers, and it writes nothing. Every violation it
//! finds must be explained: by a standing threat of the same
//! (constraint, context object) identity — the record an accepted
//! negotiation stored, or one a reconciliation handler deferred — or by
//! a pending reconciliation of an object the evaluation read.

use super::Cluster;
use crate::ccm::{evaluate_candidate, PartitionEnv, ReplicaAccess, ValidationCandidate};
use crate::threat::ThreatIdentity;
use dedisys_constraints::{ConstraintEngine, RegisteredConstraint};
use dedisys_types::{ConstraintName, NodeId, ObjectId, Result, SatisfactionDegree};
use std::collections::BTreeSet;
use std::fmt;

/// Why a violation the audit found is not a lost one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Explanation {
    /// A threat of the same (constraint, context object) identity
    /// stands in the threat store.
    StandingThreat,
    /// An object the evaluation read has degraded-mode writes or missed
    /// ships that the next reconciliation converges.
    PendingReconciliation,
}

/// One (constraint, context object) pair the committed state violates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The violated constraint.
    pub constraint: ConstraintName,
    /// Its context object (`None` for a query-based invariant).
    pub object: Option<ObjectId>,
    /// The first node whose view violates it unexplained, or else the
    /// first whose view violates it.
    pub node: NodeId,
    /// What accounts for it; `None` is a lost violation.
    pub explanation: Option<Explanation>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, ", self.constraint)?;
        match &self.object {
            Some(object) => write!(f, "{object}")?,
            None => f.write_str("-")?,
        }
        write!(f, ") on {}", self.node)
    }
}

impl Cluster {
    /// Every (constraint, context object) pair that some live node's
    /// committed view violates, once each, in constraint-registration
    /// and then object order; a pair is unexplained if any view
    /// violates it unexplained. An empty list, or one whose every
    /// finding has an explanation, keeps §3.2's promise.
    pub fn audit(&self) -> Vec<Finding> {
        let invariants: Vec<&RegisteredConstraint> = self
            .repository
            .enabled()
            .map(|c| &**c)
            .filter(|c| c.meta.kind.is_invariant())
            .collect();
        let mut findings: Vec<Finding> = Vec::new();
        if invariants.is_empty() {
            return findings;
        }
        let mut audited = BTreeSet::new();
        for first in self.live_nodes() {
            if !audited.insert(first) {
                continue;
            }
            let members = self.topology.partition_of(first);
            audited.extend(members);
            // The partition's first live node runs every check, and
            // what each read is kept.
            let mut base = self.committed_access(first);
            let mut checks = Vec::new();
            for &constraint in &invariants {
                for context in base.contexts(constraint) {
                    let (outcome, read) = self.check(constraint, context.as_ref(), &mut base);
                    if outcome == Ok(SatisfactionDegree::Violated) {
                        self.note(&mut findings, constraint, &context, first, &read);
                    }
                    checks.push((constraint, context, read));
                }
            }
            // Another member reads its own copy where it has one, else
            // what the first reads; so only a check that read an object
            // whose own copy differs can come out differently there.
            // Shared snapshots compare by address, the rest by value.
            for &node in members.iter().filter(|&&n| n != first) {
                let own = &self.containers[node.index()];
                let differs = |o: &ObjectId| {
                    let (Some(own), Some(read)) = (own.committed_entity(o), base.find_entity(o))
                    else {
                        return false;
                    };
                    !std::ptr::eq(own, read) && own != read
                };
                let mut access = self.committed_access(node);
                for (constraint, context, read) in &checks {
                    if !read.iter().any(differs) {
                        continue;
                    }
                    let (outcome, read) = self.check(constraint, context.as_ref(), &mut access);
                    if outcome == Ok(SatisfactionDegree::Violated) {
                        self.note(&mut findings, constraint, context, node, &read);
                    }
                }
            }
        }
        findings
    }

    /// The standing threats whose constraint holds on every live node's
    /// committed view — after the final reconciliation there must be
    /// none.
    pub fn stale_threats(&self) -> Vec<ThreatIdentity> {
        let threats = &self.ccm.threat_store;
        let mut stale = threats.identities();
        stale.retain(|identity| {
            let Some(constraint) = self.repository.get(&identity.constraint) else {
                return false;
            };
            self.live_nodes().all(|node| {
                let context = identity.context_object.as_ref();
                let mut access = self.committed_access(node);
                self.check(constraint, context, &mut access).0 == Ok(SatisfactionDegree::Satisfied)
            })
        });
        stale
    }

    /// The committed state `node` reads, outside any transaction.
    pub(super) fn committed_access(&self, node: NodeId) -> ReplicaAccess<'_> {
        ReplicaAccess::new(
            &self.containers,
            &self.replication,
            &self.topology,
            node,
            None,
        )
    }

    /// Evaluates `constraint` on `context` with the interpreter, as the
    /// one partition that holds every weight unit, outside healthy
    /// mode: a constraint that remembers healthy-mode state (§5.5.2's
    /// partition-sensitive ticket constraint) is read, never written.
    /// Returns the outcome and the objects read, `context` among them.
    fn check(
        &self,
        constraint: &RegisteredConstraint,
        context: Option<&ObjectId>,
        access: &mut ReplicaAccess<'_>,
    ) -> (Result<SatisfactionDegree>, Vec<ObjectId>) {
        let total = self.weights.total();
        let env = PartitionEnv {
            fraction: 1.0,
            weight: total,
            total,
            healthy: false,
        };
        let candidate = ValidationCandidate::invariant(constraint, context);
        let engine = ConstraintEngine::Interpreted;
        let (outcome, mut read) = evaluate_candidate(&candidate, access, env, engine, Vec::new());
        read.extend(context.cloned());
        (outcome, read)
    }

    /// Records that `node`'s view violates `constraint` on `context`
    /// having read `read`, with what explains it; a pair already found
    /// stays once, unexplained if any view violates it unexplained.
    fn note(
        &self,
        findings: &mut Vec<Finding>,
        constraint: &RegisteredConstraint,
        context: &Option<ObjectId>,
        node: NodeId,
        read: &[ObjectId],
    ) {
        let identity = ThreatIdentity {
            constraint: constraint.name().clone(),
            context_object: context.clone(),
        };
        let explanation = if self.ccm.threat_store.first_of(&identity).is_some() {
            Some(Explanation::StandingThreat)
        } else if read.iter().any(|o| self.awaits_reconciliation(o)) {
            Some(Explanation::PendingReconciliation)
        } else {
            None
        };
        let known = findings
            .iter_mut()
            .find(|f| f.constraint == identity.constraint && f.object == identity.context_object);
        match known {
            Some(f) if f.explanation.is_some() && explanation.is_none() => {
                f.node = node;
                f.explanation = None;
            }
            Some(_) => {}
            None => findings.push(Finding {
                constraint: identity.constraint,
                object: identity.context_object,
                node,
                explanation,
            }),
        }
    }
}
