//! Validation (CCMgr): one call per candidate — verdict-cache probe,
//! evaluation, memoization, staleness merge and the virtual-time
//! charge, in that order — with negotiation and threat storage on top,
//! plus verdict-cache invalidation. A trigger point loops over its
//! candidates and stops at the first refusal.

use super::Cluster;
use crate::ccm::{
    evaluate_candidate, CachedVerdict, ReplicaAccess, ValidationCandidate, ValidationVerdict,
};
use crate::threat::{HistoryPolicy, StoreOutcome};
use dedisys_constraints::ConstraintEngine;
use dedisys_telemetry::TraceEvent;
use dedisys_types::{NodeId, ObjectId, Result, SatisfactionDegree, TxId, Version};

/// Duplicate threat records tolerated before a
/// [`HistoryPolicy::Reduced`] store folds them.
const COMPACTION_THRESHOLD: usize = 32;

impl Cluster {
    /// Probes whether `candidate` is answerable from the verdict
    /// cache: the cache is on, the candidate is an invariant check on
    /// committed state (no call info, no `@pre` snapshot, no buffered
    /// transactional write shadowing the object anywhere in the
    /// partition), the constraint's static read-set is cacheable, and
    /// the object is reachable. Returns the cache key — context object
    /// and its committed version — or `None` when the candidate must
    /// be evaluated without touching the cache.
    fn cacheable_probe<'a>(
        &self,
        candidate: &ValidationCandidate<'a>,
        node: NodeId,
        tx: TxId,
    ) -> Option<(&'a ObjectId, Version)> {
        if !self.config.validation.verdict_cache
            || candidate.call.is_some()
            || candidate.pre_state.is_some_and(|pre| !pre.is_empty())
        {
            return None;
        }
        let object = candidate.context_object?;
        let read_set = candidate.constraint.implementation.read_set()?;
        if !read_set.cacheable() {
            return None;
        }
        if !self.replication.is_reachable(object, node, &self.topology) {
            return None;
        }
        for n in self.topology.partition_of(node) {
            if self.containers[n.index()]
                .buffered_view(tx, object)
                .is_some()
            {
                return None;
            }
        }
        // Key on the version of the very copy the evaluation reads.
        let access = ReplicaAccess::new(
            &self.containers,
            &self.replication,
            &self.topology,
            node,
            tx,
        );
        Some((object, access.find_entity(object)?.version()))
    }

    /// Validates one candidate as seen from `node` within `tx`, in a
    /// single pass. A cacheable candidate is probed first and a hit
    /// stands in for the evaluation; otherwise the candidate is
    /// evaluated and a definite raw outcome memoized. Either answer
    /// goes through the staleness merge, statistics and
    /// `constraint_validated`, and is charged for how it was produced:
    /// a cache probe, or the selected engine's check.
    ///
    /// # Errors
    ///
    /// Propagates the evaluation failure (counted, not charged).
    pub(super) fn validate(
        &mut self,
        candidate: &ValidationCandidate<'_>,
        node: NodeId,
        tx: TxId,
    ) -> Result<ValidationVerdict> {
        let constraint = candidate.constraint;
        let key = self.cacheable_probe(candidate, node, tx);
        let hit = key.and_then(|(object, version)| {
            self.ccm
                .cached_verdict(object, node, constraint.name(), version)
                .cloned()
        });
        if let Some((object, _)) = key {
            if hit.is_some() {
                self.telemetry.metrics().incr("ccm.verdict_cache.hit");
                self.telemetry.emit(|| TraceEvent::VerdictCacheHit {
                    constraint: constraint.name().text().into(),
                    object: object.text().into(),
                });
            } else {
                self.telemetry.metrics().incr("ccm.verdict_cache.miss");
                self.telemetry.emit(|| TraceEvent::VerdictCacheMiss {
                    constraint: constraint.name().text().into(),
                    object: object.text().into(),
                });
            }
        }
        let engine = self.config.validation.engine;
        let mut access = ReplicaAccess::new(
            &self.containers,
            &self.replication,
            &self.topology,
            node,
            tx,
        );
        let (outcome, accessed, charge) = match hit {
            Some(hit) => (Ok(hit.degree), hit.accessed, self.costs.verdict_cache_probe),
            None => {
                let env = self.partition_env(node);
                let (outcome, accessed) = evaluate_candidate(candidate, &mut access, env, engine);
                if let (
                    Some((object, version)),
                    Ok(degree @ (SatisfactionDegree::Satisfied | SatisfactionDegree::Violated)),
                ) = (key, &outcome)
                {
                    self.ccm.store_verdict(
                        object.clone(),
                        node,
                        constraint.name().clone(),
                        CachedVerdict {
                            version,
                            degree: *degree,
                            accessed: accessed.clone(),
                        },
                    );
                }
                let charge = match engine {
                    ConstraintEngine::Interpreted => self.costs.constraint_check,
                    ConstraintEngine::Compiled => self.costs.compiled_constraint_check,
                };
                (outcome, accessed, charge)
            }
        };
        let verdict =
            self.ccm
                .finish_validation(constraint, outcome, accessed, &access, self.clock.now())?;
        self.clock.advance(charge);
        Ok(verdict)
    }

    /// [`Cluster::validate`] plus verdict processing: negotiation of a
    /// threat, threat storage, and their charges. Refuses with the
    /// errors of [`crate::Ccm::process_verdict`].
    pub(super) fn validate_and_process(
        &mut self,
        candidate: &ValidationCandidate<'_>,
        node: NodeId,
        tx: TxId,
    ) -> Result<()> {
        let verdict = self.validate(candidate, node, tx)?;
        let was_threat = verdict.degree.is_threat();
        let outcome = self.ccm.process_verdict(
            candidate.constraint,
            candidate.context_object,
            verdict,
            tx,
            self.clock.now(),
        )?;
        if was_threat {
            self.clock.advance(self.costs.negotiation);
        }
        if let Some(outcome) = outcome {
            self.charge_threat_storage(outcome)?;
        }
        Ok(())
    }

    pub(super) fn charge_threat_storage(&mut self, outcome: StoreOutcome) -> Result<()> {
        let others = (self.ccm.threat_store().identity_count() as u64).saturating_sub(1);
        let scan = self.costs.threat_scan_per_identity * others;
        self.clock.advance(match outcome {
            StoreOutcome::Stored => self.costs.threat_new_fixed + scan,
            StoreOutcome::LinkedOccurrence => self.costs.threat_link_fixed + scan,
            StoreOutcome::Deduplicated => self.costs.threat_dedup_read,
        });
        if outcome == StoreOutcome::LinkedOccurrence {
            self.maybe_compact_threats()?;
        }
        Ok(())
    }

    /// Drops every memoized verdict — whatever just happened rewrote
    /// committed state outside the commit path.
    pub(super) fn clear_verdict_cache_with_event(&mut self) {
        let entries = self.ccm.clear_verdict_cache();
        self.verdict_cache_invalidated(None, entries);
    }

    /// Accounts for `entries` cached verdicts dropped for `object`
    /// (`None`, shown as `"*"`: not tied to one object); silent when
    /// nothing was cached.
    pub(super) fn verdict_cache_invalidated(&self, object: Option<&ObjectId>, entries: usize) {
        if entries > 0 {
            self.telemetry
                .metrics()
                .add("ccm.verdict_cache.invalidate", entries as u64);
            self.telemetry.emit(|| TraceEvent::VerdictCacheInvalidate {
                object: object.map_or_else(|| "*".into(), |id| id.text().into()),
                entries: entries as u32,
            });
        }
    }

    /// Folds duplicate threat records *during* degraded mode under
    /// [`HistoryPolicy::Reduced`], once [`COMPACTION_THRESHOLD`]
    /// duplicates have piled up — so heal-time reconciliation ships one
    /// folded record per identity instead of the occurrence history
    /// (§5.5.1).
    fn maybe_compact_threats(&mut self) -> Result<()> {
        let store = self.ccm.threat_store();
        if store.policy() != HistoryPolicy::Reduced
            || store.duplicate_records() < COMPACTION_THRESHOLD
        {
            return Ok(());
        }
        let report = self.ccm.threat_store_mut().compact()?;
        if report.folded == 0 {
            return Ok(());
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
        Ok(())
    }
}
