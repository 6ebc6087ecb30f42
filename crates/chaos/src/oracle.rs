//! The threat-completeness oracle (dissertation §3.2: no integrity
//! violation goes unnoticed).
//!
//! The oracle re-evaluates every enabled invariant on every context
//! object, with the interpreter, against the committed state each live
//! node sees — its own replica first, else the first node of its
//! partition that holds the object, as a validation on that node would
//! read it. It bypasses the CCMgr, the verdict cache and the
//! transaction buffers, and it writes nothing. Every violation it finds
//! must be explained: by a standing threat of the same (constraint,
//! context object) identity — the record an accepted negotiation
//! stored, or one a reconciliation handler deferred — or by a pending
//! reconciliation of an object the evaluation read.

use dedisys_constraints::{
    ConstraintEngine, ObjectAccess, RegisteredConstraint, ValidationContext,
};
use dedisys_core::{Cluster, ThreatIdentity};
use dedisys_object::EntityState;
use dedisys_types::{ClassName, ConstraintName, Error, NodeId, ObjectId, Result, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Why a violation the oracle found is not a lost one.
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

/// Every (constraint, context object) pair that some live node's
/// committed view violates, once each, in constraint-registration and
/// then object order; a pair is unexplained if any view violates it
/// unexplained.
pub fn audit(cluster: &Cluster) -> Vec<Finding> {
    let invariants: Vec<&RegisteredConstraint> = cluster
        .repository()
        .enabled()
        .map(|c| &**c)
        .filter(|c| c.meta.kind.is_invariant())
        .collect();
    let mut findings: Vec<Finding> = Vec::new();
    if invariants.is_empty() {
        return findings;
    }
    let total = i64::from(cluster.weights().total());
    let live: Vec<NodeId> = cluster.live_nodes().collect();
    let mut audited = BTreeSet::new();
    for &first in &live {
        if !audited.insert(first) {
            continue;
        }
        let members = partition_members(cluster, &live, first);
        audited.extend(&members);
        // The partition's first live node reads each object from its
        // first holder; every check runs on its view, and what each
        // read is kept.
        let mut base = CommittedView::of(cluster, &members);
        let mut checks = Vec::new();
        for &constraint in &invariants {
            for context in contexts(constraint, &mut base) {
                let (outcome, read) = evaluate(constraint, context.as_ref(), &mut base, total);
                if outcome == Ok(false) {
                    note(&mut findings, cluster, constraint, &context, first, &read);
                }
                checks.push((constraint, context, read));
            }
        }
        // Another member's view differs only where its own copy does,
        // so only a check that read such an object can come out
        // differently there.
        for &node in &members[1..] {
            let (mut view, differs) = base.with_own(cluster, node);
            for (constraint, context, read) in &checks {
                if !read.iter().any(|o| differs.contains(o)) {
                    continue;
                }
                let (outcome, read) = evaluate(constraint, context.as_ref(), &mut view, total);
                if outcome == Ok(false) {
                    note(&mut findings, cluster, constraint, context, node, &read);
                }
            }
        }
    }
    findings
}

/// The context objects `constraint` is checked on in `view`.
fn contexts(
    constraint: &RegisteredConstraint,
    view: &mut CommittedView<'_>,
) -> Vec<Option<ObjectId>> {
    match (
        &constraint.context_class,
        constraint.meta.needs_context_object,
    ) {
        (Some(class), true) => view.objects_of_class(class).into_iter().map(Some).collect(),
        _ => vec![None],
    }
}

/// Records that `node`'s view violates `constraint` on `context`
/// having read `read`, with what explains it; a pair already found
/// stays once, unexplained if any view violates it unexplained.
fn note(
    findings: &mut Vec<Finding>,
    cluster: &Cluster,
    constraint: &RegisteredConstraint,
    context: &Option<ObjectId>,
    node: NodeId,
    read: &[ObjectId],
) {
    let identity = ThreatIdentity {
        constraint: constraint.name().clone(),
        context_object: context.clone(),
    };
    let explanation = if cluster.threats().first_of(&identity).is_some() {
        Some(Explanation::StandingThreat)
    } else if read.iter().any(|o| cluster.awaits_reconciliation(o)) {
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

/// The standing threats whose constraint holds on every live node's
/// committed view — after the final reconciliation there must be none.
pub fn stale_threats(cluster: &Cluster) -> Vec<ThreatIdentity> {
    let total = i64::from(cluster.weights().total());
    let nodes: Vec<NodeId> = cluster.live_nodes().collect();
    cluster
        .threats()
        .identities()
        .into_iter()
        .filter(|identity| {
            let Some(constraint) = cluster.repository().get(&identity.constraint) else {
                return false;
            };
            nodes.iter().all(|&node| {
                let members = partition_members(cluster, &nodes, node);
                let mut access = CommittedView::of(cluster, &members);
                let context = identity.context_object.as_ref();
                evaluate(constraint, context, &mut access, total).0 == Ok(true)
            })
        })
        .collect()
}

/// `node`, then the other live nodes of its partition in order.
fn partition_members(cluster: &Cluster, live: &[NodeId], node: NodeId) -> Vec<NodeId> {
    let partition = cluster.topology().partition_of(node);
    let others = live.iter().filter(|n| **n != node && partition.contains(n));
    std::iter::once(node).chain(others.copied()).collect()
}

/// Evaluates `constraint` on `context` with the interpreter, as the
/// one partition that holds every weight unit, outside healthy mode: a
/// constraint that remembers healthy-mode state (§5.5.2's
/// partition-sensitive ticket constraint) is read, never written.
/// Returns the outcome and the objects read.
fn evaluate(
    constraint: &RegisteredConstraint,
    context: Option<&ObjectId>,
    access: &mut CommittedView<'_>,
    total: i64,
) -> (Result<bool>, Vec<ObjectId>) {
    let mut ctx = match context {
        Some(object) => ValidationContext::for_invariant(object.clone(), access),
        None => ValidationContext::for_query(access),
    };
    ctx.set_env("partitionWeight", Value::Float(1.0));
    ctx.set_env("partitionWeightUnits", Value::Int(total));
    ctx.set_env("totalWeightUnits", Value::Int(total));
    ctx.set_env("healthy", Value::Bool(false));
    let outcome = constraint
        .implementation
        .validate_with(ConstraintEngine::Interpreted, &mut ctx);
    let mut read = ctx.take_accessed_objects();
    read.extend(context.cloned());
    (outcome, read)
}

/// The committed state a node reads: its own replica, else the first
/// live node of its partition holding the object.
struct CommittedView<'a> {
    states: BTreeMap<&'a ObjectId, &'a EntityState>,
}

impl<'a> CommittedView<'a> {
    /// What `nodes[0]` reads when `nodes` is its partition's live nodes,
    /// itself first: each object from the first of them holding it.
    fn of(cluster: &'a Cluster, nodes: &[NodeId]) -> Self {
        let mut states = BTreeMap::new();
        for &node in nodes {
            for id in cluster.committed_ids_on(node) {
                if let Some(state) = cluster.entity_on(node, &id) {
                    states.entry(state.id()).or_insert(state);
                }
            }
        }
        Self { states }
    }

    /// What `node`, a member of this view's partition, reads: this view
    /// with its own copies in place. Also returns the objects whose
    /// state that changes — shared snapshots compare by address, the
    /// rest by value.
    fn with_own(&self, cluster: &'a Cluster, node: NodeId) -> (Self, BTreeSet<&'a ObjectId>) {
        let mut states = self.states.clone();
        let mut differing = BTreeSet::new();
        for (id, state) in &mut states {
            if let Some(own) = cluster.entity_on(node, id) {
                if !std::ptr::eq(own, *state) && own != *state {
                    *state = own;
                    differing.insert(*id);
                }
            }
        }
        (Self { states }, differing)
    }
}

impl ObjectAccess for CommittedView<'_> {
    fn field(&mut self, id: &ObjectId, field: &str) -> Result<Value> {
        self.states
            .get(id)
            .map(|e| e.field(field).clone())
            .ok_or_else(|| Error::ObjectUnreachable(id.clone()))
    }

    fn objects_of_class(&mut self, class: &ClassName) -> Vec<ObjectId> {
        let ids = self.states.keys().filter(|id| id.class() == class);
        ids.map(|&id| id.clone()).collect()
    }
}
