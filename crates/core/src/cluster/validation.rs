//! Validation (CCMgr): one call per candidate — verdict-cache probe,
//! evaluation, memoization, staleness merge and the virtual-time
//! charge, in that order — with negotiation and threat storage on top,
//! plus the verdict cache itself: its key, its entries and their
//! invalidation. A trigger point loops over its candidates and stops at
//! the first refusal.

use super::Cluster;
use crate::ccm::{
    evaluate_candidate, kept_set, ReplicaAccess, ValidationCandidate, ValidationVerdict,
};
use dedisys_constraints::ConstraintEngine;
use dedisys_telemetry::TraceEvent;
use dedisys_types::{ConstraintName, NodeId, ObjectId, Result, SatisfactionDegree, TxId, Version};
use std::collections::{BTreeMap, BTreeSet};

/// The version-keyed verdict cache: context object → (observing node,
/// constraint) → memoized verdict. Object-first so a write invalidates
/// every dependent entry with one range removal.
#[derive(Default)]
pub(super) struct VerdictCache {
    entries: BTreeMap<ObjectId, BTreeMap<(NodeId, ConstraintName), CachedVerdict>>,
}

/// One memoized verdict: valid while the committed version of the
/// context object is unchanged. Only definite raw outcomes are cached
/// (`Satisfied`/`Violated`) — staleness degradation and unreachability
/// depend on topology and are recomputed at every use.
#[derive(Debug, Clone, PartialEq)]
struct CachedVerdict {
    /// Committed version of the context object at evaluation time.
    version: Version,
    /// The raw (pre-staleness) satisfaction degree.
    degree: SatisfactionDegree,
    /// Objects the original evaluation accessed.
    accessed: BTreeSet<ObjectId>,
}

impl VerdictCache {
    /// The memoized verdict for (`object`, `node`, `constraint`) whose
    /// cached version matches `version`.
    fn get(
        &self,
        object: &ObjectId,
        node: NodeId,
        constraint: &ConstraintName,
        version: Version,
    ) -> Option<&CachedVerdict> {
        self.entries
            .get(object)?
            .get(&(node, constraint.clone()))
            .filter(|c| c.version == version)
    }

    /// Memoizes a verdict. Only definite raw outcomes of committed
    /// state are stored (never buffered transactional views), so abort
    /// paths need no invalidation.
    fn store(
        &mut self,
        object: ObjectId,
        node: NodeId,
        constraint: ConstraintName,
        verdict: CachedVerdict,
    ) {
        debug_assert!(matches!(
            verdict.degree,
            SatisfactionDegree::Satisfied | SatisfactionDegree::Violated
        ));
        self.entries
            .entry(object)
            .or_default()
            .insert((node, constraint), verdict);
    }

    /// Drops every verdict that depends on `object` (as context object
    /// or as an object the evaluation accessed). Returns the number of
    /// entries removed.
    fn invalidate_object(&mut self, object: &ObjectId) -> usize {
        let mut removed = self.entries.remove(object).map_or(0, |e| e.len());
        // Cacheable read-sets never navigate across objects, so the
        // accessed set normally only holds the context object itself —
        // this sweep is a backstop for constraints whose dynamic reads
        // exceeded their static read-set.
        self.entries.retain(|_, entries| {
            entries.retain(|_, v| {
                let depends = v.accessed.contains(object);
                if depends {
                    removed += 1;
                }
                !depends
            });
            !entries.is_empty()
        });
        removed
    }

    /// Drops every verdict of `constraint`. Returns the number of
    /// entries removed.
    fn invalidate_constraint(&mut self, constraint: &ConstraintName) -> usize {
        let mut removed = 0;
        self.entries.retain(|_, entries| {
            entries.retain(|(_, name), _| {
                let matches = name == constraint;
                if matches {
                    removed += 1;
                }
                !matches
            });
            !entries.is_empty()
        });
        removed
    }

    /// Drops every verdict. Returns the number of entries removed.
    fn clear(&mut self) -> usize {
        let removed = self.len();
        self.entries.clear();
        removed
    }

    /// Number of memoized verdicts.
    fn len(&self) -> usize {
        self.entries.values().map(BTreeMap::len).sum()
    }
}

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
            Some(tx),
        );
        Some((object, access.find_entity(object)?.version()))
    }

    /// Validates one candidate as seen from `node` within `tx`, in a
    /// single pass. A cacheable candidate is probed first and a hit
    /// stands in for the evaluation; otherwise the candidate is
    /// evaluated and a definite raw outcome memoized. Either answer
    /// goes through the staleness merge, statistics and
    /// `constraint_validated`, and is charged for how it was produced:
    /// a cache probe, or the selected engine's check. The objects are
    /// gathered into the cluster's `gathered` buffer, which the verdict
    /// carries: whoever takes the verdict puts it back.
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
        let mut gathered = std::mem::take(&mut self.gathered);
        // A hit copies the memoized objects into the lent buffer.
        let hit = key.and_then(|(object, version)| {
            let hit = self
                .verdict_cache
                .get(object, node, constraint.name(), version)?;
            gathered.clear();
            gathered.extend(hit.accessed.iter().cloned());
            Some(hit.degree)
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
            Some(tx),
        );
        let (outcome, accessed, charge) = match hit {
            Some(degree) => (Ok(degree), gathered, self.costs.verdict_cache_probe),
            None => {
                let env = self.partition_env(node);
                let (outcome, accessed) =
                    evaluate_candidate(candidate, &mut access, env, engine, gathered);
                if let (
                    Some((object, version)),
                    Ok(degree @ (SatisfactionDegree::Satisfied | SatisfactionDegree::Violated)),
                ) = (key, &outcome)
                {
                    self.verdict_cache.store(
                        object.clone(),
                        node,
                        constraint.name().clone(),
                        CachedVerdict {
                            version,
                            degree: *degree,
                            accessed: kept_set(&accessed),
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
        let verdict = self
            .ccm
            .finish_validation(constraint, outcome, accessed, &access)?;
        self.clock.advance(charge);
        Ok(verdict)
    }

    /// [`Cluster::validate`] plus verdict processing: negotiation of a
    /// threat — with the handler of `tx`'s record, by the validation
    /// settings in force — and its charge; what the verdict stages goes
    /// into the record for the commit. Refuses with the errors of
    /// `process_verdict`; the gathered buffer comes back either way.
    pub(super) fn validate_and_process(
        &mut self,
        candidate: &ValidationCandidate<'_>,
        node: NodeId,
        tx: TxId,
    ) -> Result<()> {
        let verdict = self.validate(candidate, node, tx)?;
        let outcome = self.txs.info_mut(tx).and_then(|info| {
            self.ccm.process_verdict(
                candidate,
                &verdict,
                &self.config.validation,
                &mut info.threats,
                tx,
            )
        });
        self.gathered = verdict.accessed;
        outcome?;
        if verdict.degree.is_threat() {
            self.clock.advance(self.costs.negotiation);
        }
        Ok(())
    }

    /// Entries currently held by the verdict cache.
    pub fn verdict_cache_len(&self) -> usize {
        self.verdict_cache.len()
    }

    /// Drops every memoized verdict — whatever just happened rewrote
    /// committed state outside the commit path.
    pub(super) fn clear_verdict_cache_with_event(&mut self) {
        let entries = self.verdict_cache.clear();
        self.verdict_cache_invalidated(None, entries);
    }

    /// Drops every memoized verdict that depends on `object`: a commit
    /// moved its version.
    pub(super) fn invalidate_verdicts_of(&mut self, object: &ObjectId) {
        let entries = self.verdict_cache.invalidate_object(object);
        self.verdict_cache_invalidated(Some(object), entries);
    }

    /// Drops every memoized verdict of `constraint`: it was removed, or
    /// a refused change's check cached them.
    pub(super) fn invalidate_verdicts_for(&mut self, constraint: &ConstraintName) {
        let entries = self.verdict_cache.invalidate_constraint(constraint);
        self.verdict_cache_invalidated(None, entries);
    }

    /// Accounts for `entries` cached verdicts dropped for `object`
    /// (`None`, shown as `"*"`: not tied to one object); silent when
    /// nothing was cached.
    fn verdict_cache_invalidated(&self, object: Option<&ObjectId>, entries: usize) {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_cache_probe_store_invalidate() {
        let mut cache = VerdictCache::default();
        let id = ObjectId::new("Flight", "F1");
        let other = ObjectId::new("Flight", "F2");
        let name = ConstraintName::from("Ticket");
        let verdict = CachedVerdict {
            version: Version(3),
            degree: SatisfactionDegree::Satisfied,
            accessed: BTreeSet::from([id.clone()]),
        };
        cache.store(id.clone(), NodeId(0), name.clone(), verdict.clone());
        assert_eq!(cache.get(&id, NodeId(0), &name, Version(3)), Some(&verdict));
        // Stale version, other node, other constraint: all misses.
        assert!(cache.get(&id, NodeId(0), &name, Version(4)).is_none());
        assert!(cache.get(&id, NodeId(1), &name, Version(3)).is_none());
        let other_name = ConstraintName::from("Other");
        assert!(cache.get(&id, NodeId(0), &other_name, Version(3)).is_none());

        // Invalidating an unrelated object leaves the entry alone.
        assert_eq!(cache.invalidate_object(&other), 0);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.invalidate_object(&id), 1);
        assert!(cache.get(&id, NodeId(0), &name, Version(3)).is_none());

        // An entry whose accessed set includes another object is also
        // dropped when that object is invalidated.
        let cross = CachedVerdict {
            accessed: BTreeSet::from([id.clone(), other.clone()]),
            ..verdict.clone()
        };
        cache.store(id.clone(), NodeId(0), name.clone(), cross);
        assert_eq!(cache.invalidate_object(&other), 1);
        assert_eq!(cache.len(), 0);

        // Constraint-keyed and wholesale invalidation.
        cache.store(id.clone(), NodeId(0), name.clone(), verdict.clone());
        cache.store(id.clone(), NodeId(1), other_name, verdict);
        assert_eq!(cache.invalidate_constraint(&name), 1);
        assert_eq!(cache.clear(), 1);
        assert_eq!(cache.len(), 0);
    }
}
