//! Validation (CCMgr): the evaluation phase of a batch of candidates
//! — verdict-cache probe, then evaluation in candidate order — and
//! the merge phase with its virtual-time charges, threat storage and
//! cache invalidation.

use super::Cluster;
use crate::ccm::{
    evaluate_candidate, CachedVerdict, PartitionEnv, RawEvaluation, ReplicaAccess,
    ValidationCandidate, ValidationVerdict,
};
use crate::threat::{HistoryPolicy, StoreOutcome};
use dedisys_constraints::{ConstraintEngine, RegisteredConstraint};
use dedisys_telemetry::TraceEvent;
use dedisys_types::{Error, NodeId, ObjectId, Result, SatisfactionDegree, TxId, Version};

/// How one validation candidate's answer was produced — decides the
/// virtual-time charge taken in the merge phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum ValidationCharge {
    /// Full interpreted evaluation ([`crate::CostModel::constraint_check`]).
    Interpreted,
    /// Compiled stack-VM evaluation
    /// ([`crate::CostModel::compiled_constraint_check`]).
    Compiled,
    /// Version-keyed verdict-cache hit
    /// ([`crate::CostModel::verdict_cache_probe`]).
    CacheHit,
}

/// What the verdict cache said about one candidate.
enum Probe<'a> {
    /// The memoized answer.
    Hit(RawEvaluation),
    /// Evaluate; insert under the key (context object and committed
    /// version) if the degree comes out definite. `None`: not
    /// cacheable.
    Miss(Option<(&'a ObjectId, Version)>),
}

impl Cluster {
    /// Probes whether `candidate` is answerable from the verdict
    /// cache (which the caller has found switched on): the candidate is
    /// an invariant check on committed state (no call info, no `@pre`
    /// snapshot, no buffered transactional write shadowing the object
    /// anywhere in the partition), the constraint's static read-set is
    /// cacheable, and
    /// the object is reachable. Returns the cache key — context object
    /// and its committed version — or `None` when the candidate must
    /// be evaluated without touching the cache.
    fn cacheable_probe<'a>(
        &self,
        candidate: &ValidationCandidate<'a>,
        exec: NodeId,
        tx: TxId,
    ) -> Option<(&'a ObjectId, Version)> {
        if candidate.call.is_some() || candidate.pre_state.is_some_and(|pre| !pre.is_empty()) {
            return None;
        }
        let object = candidate.context_object?;
        let read_set = candidate.constraint.implementation.read_set()?;
        if !read_set.cacheable() {
            return None;
        }
        if !self.replication.is_reachable(object, exec, &self.topology) {
            return None;
        }
        let members = self.topology.partition_of(exec);
        for n in members {
            if self.containers[n.index()]
                .buffered_view(tx, object)
                .is_some()
            {
                return None;
            }
        }
        // Mirror the evaluation's entity lookup (minus the buffered
        // views excluded above) so the version keyed on is exactly the
        // state the evaluation would read.
        let version = if let Ok(e) = self.containers[exec.index()].view(tx, object) {
            e.version()
        } else {
            members
                .iter()
                .find_map(|n| self.containers[n.index()].committed_entity(object))?
                .version()
        };
        Some((object, version))
    }

    /// Runs the evaluation phase for a batch of validation candidates
    /// and returns one raw evaluation per candidate, in candidate
    /// order, each tagged with how it was answered (full evaluation or
    /// verdict-cache hit) so the merge phase can take the right
    /// virtual-time charge.
    ///
    /// With the verdict cache on, every candidate is probed first —
    /// all hit/miss records of a batch precede its evaluations — and
    /// only then are the candidates the probe could not answer
    /// evaluated and, where cacheable, memoized.
    ///
    /// Multi-candidate batches are recorded as `validation_batch`
    /// trace events; the `shards`/`pool` figures are the batch size in
    /// units of eight candidates.
    pub(super) fn evaluate_candidates(
        &mut self,
        candidates: &[ValidationCandidate<'_>],
        exec: NodeId,
        tx: TxId,
    ) -> Vec<(RawEvaluation, ValidationCharge)> {
        if candidates.is_empty() {
            return Vec::new();
        }
        if candidates.len() > 1 {
            let shards = candidates.len().div_ceil(8) as u32;
            self.telemetry.emit(|| TraceEvent::ValidationBatch {
                candidates: candidates.len() as u32,
                shards,
                pool: shards,
            });
        }
        let miss_charge = match self.config.validation.engine {
            ConstraintEngine::Interpreted => ValidationCharge::Interpreted,
            ConstraintEngine::Compiled => ValidationCharge::Compiled,
        };
        let env = self.partition_env(exec);
        if !self.config.validation.verdict_cache {
            return candidates
                .iter()
                .map(|candidate| (self.evaluate(candidate, exec, tx, env), miss_charge))
                .collect();
        }
        let mut probes = Vec::with_capacity(candidates.len());
        for candidate in candidates {
            let key = self.cacheable_probe(candidate, exec, tx);
            let hit = key.and_then(|(object, version)| {
                self.ccm
                    .cached_verdict(object, exec, candidate.constraint.name(), version)
                    .cloned()
            });
            if let (Some((object, _)), Some(hit)) = (key, hit) {
                self.telemetry.metrics().incr("ccm.verdict_cache.hit");
                self.telemetry.emit(|| TraceEvent::VerdictCacheHit {
                    constraint: candidate.constraint.name().to_string(),
                    object: object.to_string(),
                });
                probes.push(Probe::Hit(RawEvaluation {
                    outcome: Ok(hit.degree),
                    accessed: hit.accessed,
                }));
                continue;
            }
            if let Some((object, _)) = key {
                self.telemetry.metrics().incr("ccm.verdict_cache.miss");
                self.telemetry.emit(|| TraceEvent::VerdictCacheMiss {
                    constraint: candidate.constraint.name().to_string(),
                    object: object.to_string(),
                });
            }
            probes.push(Probe::Miss(key));
        }
        candidates
            .iter()
            .zip(probes)
            .map(|(candidate, probe)| {
                let key = match probe {
                    Probe::Hit(eval) => return (eval, ValidationCharge::CacheHit),
                    Probe::Miss(key) => key,
                };
                let eval = self.evaluate(candidate, exec, tx, env);
                if let (
                    Some((object, version)),
                    Ok(degree @ (SatisfactionDegree::Satisfied | SatisfactionDegree::Violated)),
                ) = (key, &eval.outcome)
                {
                    self.ccm.store_verdict(
                        object.clone(),
                        exec,
                        candidate.constraint.name().clone(),
                        CachedVerdict {
                            version,
                            degree: *degree,
                            accessed: eval.accessed.clone(),
                        },
                    );
                }
                (eval, miss_charge)
            })
            .collect()
    }

    /// The pure evaluation of one candidate as seen from `exec`
    /// within `tx`.
    fn evaluate(
        &self,
        candidate: &ValidationCandidate<'_>,
        exec: NodeId,
        tx: TxId,
        env: PartitionEnv,
    ) -> RawEvaluation {
        let mut access = ReplicaAccess::new(
            &self.containers,
            &self.replication,
            &self.topology,
            exec,
            tx,
        );
        evaluate_candidate(candidate, &mut access, env, self.config.validation.engine)
    }

    /// Merge phase for one evaluated candidate: staleness
    /// degradation, statistics and telemetry.
    pub(super) fn finish_validation(
        &mut self,
        constraint: &RegisteredConstraint,
        eval: RawEvaluation,
        exec: NodeId,
        tx: TxId,
    ) -> Result<ValidationVerdict> {
        let access = ReplicaAccess::new(
            &self.containers,
            &self.replication,
            &self.topology,
            exec,
            tx,
        );
        self.ccm
            .finish_validation(constraint, eval, &access, self.clock.now())
    }

    /// [`Cluster::finish_validation`] plus the virtual-time charge for
    /// the check (per the candidate's [`ValidationCharge`]).
    pub(super) fn merge_validation(
        &mut self,
        constraint: &RegisteredConstraint,
        eval: (RawEvaluation, ValidationCharge),
        exec: NodeId,
        tx: TxId,
    ) -> Result<ValidationVerdict> {
        let (eval, charge) = eval;
        let verdict = self.finish_validation(constraint, eval, exec, tx)?;
        self.clock.advance(match charge {
            ValidationCharge::Interpreted => self.costs.constraint_check,
            ValidationCharge::Compiled => self.costs.compiled_constraint_check,
            ValidationCharge::CacheHit => self.costs.verdict_cache_probe,
        });
        Ok(verdict)
    }

    /// Merge + verdict processing for one evaluated candidate:
    /// [`Cluster::merge_validation`] followed by negotiation and
    /// threat storage.
    pub(super) fn merge_one_validation(
        &mut self,
        exec: NodeId,
        tx: TxId,
        constraint: &RegisteredConstraint,
        context_object: Option<&ObjectId>,
        eval: (RawEvaluation, ValidationCharge),
    ) -> Result<()> {
        let verdict = self.merge_validation(constraint, eval, exec, tx)?;
        let was_threat = verdict.degree.is_threat();
        let outcome =
            self.ccm
                .process_verdict(constraint, context_object, verdict, tx, self.clock.now())?;
        if was_threat {
            self.clock.advance(self.costs.negotiation);
        }
        if let Some(outcome) = outcome {
            self.charge_threat_storage(outcome);
        }
        Ok(())
    }

    pub(super) fn charge_threat_storage(&mut self, outcome: StoreOutcome) {
        let identities = self.ccm.threat_store().identity_count() as u64;
        match outcome {
            StoreOutcome::Stored => {
                self.clock.advance(self.costs.threat_new_fixed);
                self.clock
                    .advance(self.costs.threat_scan_per_identity * identities.saturating_sub(1));
            }
            StoreOutcome::LinkedOccurrence => {
                self.clock.advance(self.costs.threat_link_fixed);
                self.clock
                    .advance(self.costs.threat_scan_per_identity * identities.saturating_sub(1));
                self.maybe_compact_threats();
            }
            StoreOutcome::Deduplicated => {
                self.clock.advance(self.costs.threat_dedup_read);
            }
        }
    }

    /// Drops every memoized verdict — whatever just happened rewrote
    /// committed state outside the commit path.
    pub(super) fn clear_verdict_cache_with_event(&mut self) {
        let entries = self.ccm.clear_verdict_cache();
        self.verdict_cache_invalidated("*", entries);
    }

    /// Accounts for `entries` cached verdicts dropped for `object`
    /// (`"*"`: not tied to one object); silent when nothing was cached.
    pub(super) fn verdict_cache_invalidated(&self, object: impl std::fmt::Display, entries: usize) {
        if entries > 0 {
            self.telemetry
                .metrics()
                .add("ccm.verdict_cache.invalidate", entries as u64);
            self.telemetry.emit(|| TraceEvent::VerdictCacheInvalidate {
                object: object.to_string(),
                entries: entries as u32,
            });
        }
    }

    /// Folds duplicate threat records *during* degraded mode under
    /// [`HistoryPolicy::Reduced`], once the duplicate volume crosses
    /// the threshold — so heal-time reconciliation ships one folded
    /// record per identity instead of the occurrence history (§5.5.1).
    fn maybe_compact_threats(&mut self) {
        if self.ccm.threat_store().policy() != HistoryPolicy::Reduced {
            return;
        }
        if self.ccm.threat_store().duplicate_records() < self.config.durability.compaction_threshold
        {
            return;
        }
        let report = self.ccm.threat_store_mut().compact();
        if report.folded == 0 {
            return;
        }
        // One batched rewrite per folded identity group, plus the
        // marginal scan cost per removed record.
        self.clock.advance(
            self.costs.db_write * report.retained
                + self.costs.threat_scan_per_identity * report.folded,
        );
        self.telemetry
            .metrics()
            .add("reconcile.threats_folded", report.folded);
        self.telemetry.emit(|| TraceEvent::ThreatCompaction {
            folded: report.folded,
            retained: report.retained,
        });
    }
}

/// The typed failure for a candidate the evaluation phase produced no
/// result for. Evaluations pair with candidates one to one, so this is
/// a broken internal condition — reported to the caller rather than
/// panicking on the request path.
pub(super) fn unevaluated(constraint: &RegisteredConstraint) -> Error {
    Error::ConstraintUncheckable {
        constraint: constraint.name().clone(),
    }
}
