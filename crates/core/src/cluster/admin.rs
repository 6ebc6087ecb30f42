//! Configuration and administration: runtime reconfiguration and the
//! §3.3 runtime constraint management (add, remove, enable, disable).

use super::Cluster;
use crate::ccm::ValidationCandidate;
use crate::config::ClusterConfig;
use crate::CostModel;
use dedisys_constraints::{ConstraintEngine, ConstraintRepository, RegisteredConstraint};
use dedisys_net::SimClock;
use dedisys_telemetry::{Telemetry, TraceEvent};
use dedisys_types::{ConstraintName, Error, NodeId, ObjectId, Result, SatisfactionDegree, TxId};
use std::collections::BTreeSet;

/// Lowers every enabled constraint for the compiled engine up front, so
/// the first validation doesn't pay the (lazy) compile: one
/// `constraint_compiled` event and one [`CostModel::constraint_compile`]
/// charge per constraint.
pub(super) fn compile_constraints(
    repository: &ConstraintRepository,
    telemetry: &Telemetry,
    clock: &SimClock,
    costs: &CostModel,
) {
    for c in repository.enabled() {
        if let Some(info) = c.implementation.compiled() {
            telemetry.emit(|| TraceEvent::ConstraintCompiled {
                constraint: c.meta.name.text().into(),
                ops: info.ops,
                reads: info.reads,
            });
            clock.advance(costs.constraint_compile);
        }
    }
}

impl Cluster {
    /// Applies a configuration delta to the running cluster.
    ///
    /// `f` receives a copy of the current config to mutate; the
    /// changed fields are then applied atomically — with their side
    /// effects (an engine switch lowers constraints and clears the
    /// verdict cache; a cache toggle clears it) — and one `reconfigure`
    /// trace event naming the dotted paths that changed is emitted.
    /// Every other field takes effect at its next read.
    /// Returns those paths (empty when `f` changed nothing; no event is
    /// emitted then).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] — without applying *any* field — if
    /// `f` touched a build-time field (`durability.threat_policy` or
    /// anything under `membership`).
    pub fn reconfigure(&mut self, f: impl FnOnce(&mut ClusterConfig)) -> Result<Vec<String>> {
        let mut next = self.config;
        f(&mut next);
        let immutable = self.config.immutable_diff(&next);
        if !immutable.is_empty() {
            return Err(Error::Config(format!(
                "cannot reconfigure build-time field(s): {}",
                immutable.join(", ")
            )));
        }
        let changed = self.config.diff(&next);
        if changed.is_empty() {
            return Ok(changed);
        }
        let prev = self.config;
        self.config = next;
        if prev.validation.engine != next.validation.engine {
            if next.validation.engine == ConstraintEngine::Compiled {
                compile_constraints(&self.repository, &self.telemetry, &self.clock, &self.costs);
            }
            self.clear_verdict_cache_with_event();
        }
        if prev.validation.verdict_cache != next.validation.verdict_cache {
            self.clear_verdict_cache_with_event();
        }
        let paths = changed.clone();
        self.telemetry
            .emit(move || TraceEvent::Reconfigure { changed: paths });
        Ok(changed)
    }

    /// Enables or disables a registered constraint at runtime (§3.3).
    /// Disabling merely stops lookups from returning it and returns no
    /// object. Enabling validates the constraint against every context
    /// object (§3.3: re-enabled constraints have to be checked for all
    /// context objects) and returns the violating ones.
    ///
    /// # Errors
    ///
    /// * [`Error::Config`] — unknown constraint name.
    /// * [`Error::NodeCrashed`] — no node is up to run the check.
    /// * Evaluation failures (an ill-typed or unknown field, …).
    ///
    /// A constraint whose check fails stays as it was: the change is
    /// rejected whole.
    pub fn set_constraint_enabled(
        &mut self,
        name: &ConstraintName,
        enabled: bool,
    ) -> Result<Vec<ObjectId>> {
        if !enabled {
            self.repository.set_enabled(name, false)?;
            return Ok(Vec::new());
        }
        let was_enabled = self.repository.get(name).is_some_and(|c| c.enabled);
        self.repository.set_enabled(name, true)?;
        let checked = self.check_all_context_objects(name);
        if checked.is_err() {
            self.repository.set_enabled(name, was_enabled)?;
        }
        checked
    }

    /// Removes a constraint at runtime (§3.3). Returns whether the
    /// constraint existed. Cached verdicts of the removed constraint
    /// are dropped.
    pub fn remove_constraint(&mut self, name: &ConstraintName) -> bool {
        let existed = self.repository.remove(name).is_some();
        if existed {
            self.invalidate_verdicts_for(name);
        }
        existed
    }

    /// Adds a new constraint at runtime and — per §3.3 — immediately
    /// validates it against *every* existing context object. Returns
    /// the context objects that currently violate it (the application
    /// decides whether to clean them up or remove the constraint
    /// again).
    ///
    /// # Errors
    ///
    /// * [`Error::Config`] — duplicate name.
    /// * [`Error::NodeCrashed`] — no node is up to run the check.
    /// * Evaluation failures (an ill-typed or unknown field, …).
    ///
    /// A constraint whose check fails is not registered: the change
    /// is rejected whole.
    pub fn add_constraint_with_check(
        &mut self,
        constraint: RegisteredConstraint,
    ) -> Result<Vec<ObjectId>> {
        let name = constraint.name().clone();
        self.repository.register(constraint)?;
        let checked = self.check_all_context_objects(&name);
        if checked.is_err() {
            self.remove_constraint(&name);
        }
        checked
    }

    /// The §3.3 full check of `name`, run from the lowest-numbered
    /// live node in a transaction of its own that is rolled back
    /// whatever the outcome.
    fn check_all_context_objects(&mut self, name: &ConstraintName) -> Result<Vec<ObjectId>> {
        let Some(constraint) = self.repository.get(name).cloned() else {
            return Ok(Vec::new());
        };
        if !constraint.meta.kind.is_invariant() {
            return Ok(Vec::new());
        }
        // Collect the context objects: all instances of the context
        // class, or a single query-based evaluation.
        let contexts: Vec<Option<ObjectId>> = match (
            &constraint.context_class,
            constraint.meta.needs_context_object,
        ) {
            (Some(class), true) => {
                let mut ids: BTreeSet<ObjectId> = BTreeSet::new();
                for container in &self.containers {
                    ids.extend(container.entities_of_class(class).map(|e| e.id().clone()));
                }
                ids.into_iter().map(Some).collect()
            }
            _ => vec![None],
        };
        let node = self
            .live_nodes()
            .next()
            .ok_or(Error::NodeCrashed(NodeId(0)))?;
        let check_tx = self.begin_tx(node);
        let violating = self.violating_contexts(&constraint, contexts, node, check_tx);
        let _ = self.rollback(check_tx);
        violating
    }

    /// Validates `constraint` against each of `contexts` and returns
    /// those that definitely violate it.
    fn violating_contexts(
        &mut self,
        constraint: &RegisteredConstraint,
        contexts: Vec<Option<ObjectId>>,
        node: NodeId,
        check_tx: TxId,
    ) -> Result<Vec<ObjectId>> {
        let mut violating = Vec::new();
        for context in contexts {
            let candidate = ValidationCandidate::invariant(constraint, context.as_ref());
            let verdict = self.validate(&candidate, node, check_tx)?;
            self.gathered = verdict.accessed;
            if verdict.degree == SatisfactionDegree::Violated {
                if let Some(ctx) = context {
                    violating.push(ctx);
                }
            }
        }
        Ok(violating)
    }
}
