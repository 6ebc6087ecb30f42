//! Configuration and administration: runtime reconfiguration and the
//! §3.3 runtime constraint management (one checked change).

use super::Cluster;
use super::ConstraintChange::{self, Add, Disable, Enable, Remove};
use crate::ccm::ValidationCandidate;
use crate::config::ClusterConfig;
use crate::CostModel;
use dedisys_constraints::{ConstraintEngine, ConstraintRepository, RegisteredConstraint};
use dedisys_net::SimClock;
use dedisys_telemetry::{Telemetry, TraceEvent};
use dedisys_types::{
    ConstraintName, Error, NodeId, ObjectId, Result, SatisfactionDegree, SystemMode, TxId,
};

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

    /// Applies one runtime change of the constraint set (§3.3). Add and
    /// Enable check every context object in one transaction and
    /// negotiate each violation as a threat; once all are accepted the
    /// commit stores them, and the violators are returned.
    ///
    /// Add and Enable run only at a quiescent point: the cluster
    /// healthy, so the check reads every copy, and no open transaction
    /// holding a write lock. The check reads committed copies, so an
    /// open write — a create included, or a write to an object an
    /// inter-object constraint reads — would commit unchecked.
    ///
    /// # Errors
    ///
    /// Refused whole, changing nothing: [`Error::ModeRestriction`]
    /// naming each blocker (Add or Enable outside healthy mode, or
    /// while an open transaction holds a write lock),
    /// [`Error::ConstraintChangeRejected`], [`Error::Config`] (duplicate
    /// or unknown name) or an evaluation's.
    pub fn change_constraint(&mut self, change: ConstraintChange) -> Result<Vec<ObjectId>> {
        if matches!(change, Add(..) | Enable(..)) {
            let mode = (self.mode != SystemMode::Healthy).then(|| format!("in {} mode", self.mode));
            let locked = (self.held_locks().into_iter())
                .map(|(object, tx)| format!("while {object} is locked by open {tx}"));
            let blockers: Vec<String> = mode.into_iter().chain(locked).collect();
            if !blockers.is_empty() {
                let why = format!("checking a constraint {}", blockers.join(", "));
                return Err(Error::ModeRestriction(why));
            }
        }
        let before = self.repository.clone();
        let (name, handler) = match change {
            Add(constraint, handler) => {
                let name = constraint.name().clone();
                self.repository.register(constraint)?;
                (name, handler)
            }
            Enable(name, handler) => {
                self.repository.set_enabled(&name, true)?;
                (name, handler)
            }
            Disable(name) => {
                self.repository.set_enabled(&name, false)?;
                return Ok(Vec::new());
            }
            Remove(name) => {
                self.repository.set_enabled(&name, false)?; // refuses an unknown name
                self.repository.remove(&name);
                self.invalidate_verdicts_for(&name);
                return Ok(Vec::new());
            }
        };
        // Healthy: node 0 is up and its partition holds every copy.
        let tx = self.begin_tx(NodeId(0));
        self.txs.info_mut(tx)?.threats.handler = handler;
        let checked = self.check_context_objects(&name, tx);
        let info = self.txs.info(tx);
        let staged = info.is_some_and(|info| !info.threats.accepted.is_empty());
        match checked {
            Ok(violators) if staged => {
                self.apply_commit(tx)?;
                Ok(violators)
            }
            checked => {
                let _ = self.abort(tx);
                if checked.is_err() {
                    // What the check cached under the name goes too.
                    self.repository = before;
                    self.invalidate_verdicts_for(&name);
                }
                checked
            }
        }
    }

    /// [`Cluster::change_constraint`] of [`ConstraintChange::Add`]
    /// without a handler.
    pub fn add_constraint_with_check(
        &mut self,
        constraint: RegisteredConstraint,
    ) -> Result<Vec<ObjectId>> {
        self.change_constraint(ConstraintChange::Add(constraint, None))
    }

    /// The §3.3 check of `name` in `tx`: every context object validated,
    /// each violation negotiated as a deferred threat of `tx`.
    fn check_context_objects(&mut self, name: &ConstraintName, tx: TxId) -> Result<Vec<ObjectId>> {
        let constraint = self.repository.get(name).cloned();
        let Some(constraint) = constraint.filter(|c| c.meta.kind.is_invariant()) else {
            return Ok(Vec::new());
        };
        let contexts = self.committed_access(tx.node).contexts(&constraint);
        let mut violators = Vec::new();
        for context in contexts {
            let candidate = ValidationCandidate::invariant(&constraint, context.as_ref());
            let verdict = self.validate(&candidate, tx.node, tx)?;
            if verdict.degree != SatisfactionDegree::Satisfied {
                let threats = &mut self.txs.info_mut(tx)?.threats;
                self.ccm.defer(&candidate, &verdict, threats, tx);
                self.clock.advance(self.costs.negotiation);
                violators.extend(context);
            }
            self.gathered = verdict.accessed;
        }
        let (threats, settings) = (&mut self.txs.info_mut(tx)?.threats, &self.config.validation);
        match self.ccm.negotiate_deferred(threats, settings) {
            Err(Error::ThreatRejected { .. }) => Err(Error::ConstraintChangeRejected {
                constraint: name.clone(),
                violators,
            }),
            negotiated => negotiated.map(|()| violators),
        }
    }
}
