//! Consistency-threat negotiation (§3.2.1, Figure 3.3), end to end:
//! a validation verdict becomes a continued operation, a refusal, or a
//! threat that is negotiated — now or at commit (§5.4) — and then
//! staged for its transaction's commit, tolerated or rejected.

use super::{kept_set, Ccm, ValidationCandidate, ValidationVerdict};
use crate::config::ValidationConfig;
use crate::threat::{ConsistencyThreat, ThreatIdentity};
use dedisys_constraints::RegisteredConstraint;
use dedisys_telemetry::TraceEvent;
use dedisys_types::{ClassName, Error, ObjectId, Result, SatisfactionDegree, TxId, VersionInfo};

/// Outcome of negotiating one threat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreatDecision {
    /// Continue the operation; the threat is persisted for
    /// reconciliation.
    Accept,
    /// Abort the current operation/transaction.
    Reject,
}

/// Dynamic (algorithmic) negotiation callback, registered per
/// transaction (§4.2.3) — with or without user intervention.
pub trait NegotiationHandler: Send {
    /// Decides whether to accept the threat. The handler may enrich
    /// the threat with application data and reconciliation
    /// instructions before it is persisted (§3.2.2).
    fn negotiate(&mut self, threat: &mut ConsistencyThreat) -> ThreatDecision;
}

impl<F> NegotiationHandler for F
where
    F: FnMut(&mut ConsistencyThreat) -> ThreatDecision + Send,
{
    fn negotiate(&mut self, threat: &mut ConsistencyThreat) -> ThreatDecision {
        self(threat)
    }
}

/// When consistency threats are negotiated (§5.4): immediately when
/// they occur, or deferred until the end of the transaction — the
/// operation continues under the assumption that all threats will be
/// accepted, and the transaction blocks before commit until every
/// decision is available.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NegotiationTiming {
    /// Negotiate as soon as the threat arises.
    #[default]
    Immediate,
    /// Collect threats during the transaction; negotiate at commit.
    Deferred,
}

/// Which mechanism produced a decision (for diagnostics/metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NegotiationPath {
    /// Non-tradeable constraint: rejected automatically.
    NonTradeable,
    /// Dynamic handler bound to the transaction.
    Dynamic,
    /// Static (descriptive) per-constraint declaration.
    Static,
    /// Application-wide default minimum satisfaction degree.
    Default,
}

/// The CCMgr's part of an open transaction's record. The threat changes
/// it stages — accepted threats (§3.2), a satisfied check's clean-up
/// (§4.4) — are the transaction's decisions: its commit applies them
/// with its writes, its abort drops them.
#[derive(Default)]
pub(crate) struct TxThreats {
    /// The transaction's dynamic negotiation handler (§3.2.1).
    pub(crate) handler: Option<Box<dyn NegotiationHandler>>,
    /// Threats awaiting deferred negotiation (§5.4).
    pub(crate) deferred: Vec<DeferredThreat>,
    /// Accepted invariant threats, in acceptance order.
    pub(crate) accepted: Vec<ConsistencyThreat>,
    /// Stored identities satisfied checks cleaned up.
    pub(crate) cleaned: Vec<ThreatIdentity>,
}

/// A threat awaiting deferred negotiation, kept in the record of its
/// transaction.
pub(crate) struct DeferredThreat {
    constraint: RegisteredConstraint,
    threat: ConsistencyThreat,
    freshness: Vec<(ClassName, VersionInfo)>,
}

impl DeferredThreat {
    /// The threat, if the dynamic handler will be asked about it: a
    /// threat to a non-tradeable constraint is rejected without asking
    /// (Figure 3.3).
    pub(crate) fn askable(&self) -> Option<&ConsistencyThreat> {
        self.constraint.is_tradeable().then_some(&self.threat)
    }
}

/// Performs the prioritized negotiation of Figure 3.3:
/// dynamic handler ≻ static declaration ≻ application default.
///
/// `freshness` supplies the class and freshness information of the
/// threat's accessed objects for the static path's freshness criteria.
pub(crate) fn negotiate(
    constraint: &RegisteredConstraint,
    threat: &mut ConsistencyThreat,
    dynamic: &mut Option<Box<dyn NegotiationHandler>>,
    freshness: &[(ClassName, VersionInfo)],
    app_default_min_degree: SatisfactionDegree,
) -> (ThreatDecision, NegotiationPath) {
    // Non-tradeable constraints reject automatically (§3.2).
    if !constraint.is_tradeable() {
        return (ThreatDecision::Reject, NegotiationPath::NonTradeable);
    }
    // Dynamic negotiation has priority.
    if let Some(handler) = dynamic {
        return (handler.negotiate(threat), NegotiationPath::Dynamic);
    }
    // Static (descriptive): satisfaction degree + freshness criteria.
    let meta = &constraint.meta;
    let statically_declared =
        meta.min_satisfaction_degree != SatisfactionDegree::Satisfied || !meta.freshness.is_empty();
    if statically_declared {
        let degree_ok = threat.degree >= meta.min_satisfaction_degree;
        let freshness_ok = meta.freshness.iter().all(|criterion| {
            freshness
                .iter()
                .filter(|(class, _)| class == &criterion.class)
                .all(|(_, info)| criterion.accepts(*info))
        });
        let decision = if degree_ok && freshness_ok {
            ThreatDecision::Accept
        } else {
            ThreatDecision::Reject
        };
        return (decision, NegotiationPath::Static);
    }
    // Application-wide default.
    let decision = if threat.degree >= app_default_min_degree {
        ThreatDecision::Accept
    } else {
        ThreatDecision::Reject
    };
    (decision, NegotiationPath::Default)
}

impl Ccm {
    /// Processes a validation verdict of `tx`, whose record's CCMgr
    /// part is `threats`: satisfied → continue, and clean up threats of
    /// the same identity (§4.4); violated → abort; threat → negotiate —
    /// now, or under [`NegotiationTiming::Deferred`] at the vote — and
    /// either stage (invariants) or tolerate (pre/post, §3) or abort.
    /// The verdict is borrowed: its gathered ids are the cluster's
    /// buffer, and a threat keeps a copy.
    ///
    /// # Errors
    ///
    /// * [`Error::ConstraintViolated`] — definite violation.
    /// * [`Error::ThreatRejected`] — threat not accepted.
    pub(crate) fn process_verdict(
        &mut self,
        candidate: &ValidationCandidate<'_>,
        verdict: &ValidationVerdict,
        settings: &ValidationConfig,
        threats: &mut TxThreats,
        tx: TxId,
    ) -> Result<()> {
        let constraint = candidate.constraint;
        match verdict.degree {
            SatisfactionDegree::Satisfied => {
                // Nothing stored or staged (every healthy check): no clean-up.
                if self.threat_store.is_empty() && threats.accepted.is_empty() {
                    return Ok(());
                }
                let identity = ThreatIdentity {
                    constraint: constraint.name().clone(),
                    context_object: candidate.context_object.cloned(),
                };
                threats
                    .accepted
                    .retain(|threat| threat.identity() != identity);
                if self.threat_store.first_of(&identity).is_some() {
                    threats.cleaned.push(identity);
                }
                Ok(())
            }
            SatisfactionDegree::Violated => Err(Error::ConstraintViolated {
                constraint: constraint.name().clone(),
            }),
            _ if settings.negotiation_timing == NegotiationTiming::Deferred => {
                self.defer(candidate, verdict, threats, tx);
                Ok(())
            }
            _ => {
                let threat = self.threat(candidate, verdict.degree, &verdict.accessed, tx);
                self.negotiate_threat(
                    constraint,
                    threat,
                    threats,
                    &verdict.freshness,
                    settings.app_default_min_degree,
                )
            }
        }
    }

    /// Stages the threat `verdict` raises on `candidate` in `tx` for
    /// negotiation at the vote (§5.4).
    pub(crate) fn defer(
        &self,
        candidate: &ValidationCandidate<'_>,
        verdict: &ValidationVerdict,
        threats: &mut TxThreats,
        tx: TxId,
    ) {
        threats.deferred.push(DeferredThreat {
            constraint: candidate.constraint.clone(),
            threat: self.threat(candidate, verdict.degree, &verdict.accessed, tx),
            freshness: verdict.freshness.clone(),
        });
    }

    /// The threat a check of `candidate` in `tx` raises at `degree`,
    /// holding a copy of what the check read.
    fn threat(
        &self,
        candidate: &ValidationCandidate<'_>,
        degree: SatisfactionDegree,
        read: &[ObjectId],
        tx: TxId,
    ) -> ConsistencyThreat {
        ConsistencyThreat {
            constraint: candidate.constraint.name().clone(),
            context_object: candidate.context_object.cloned(),
            degree,
            affected_objects: kept_set(read),
            app_data: None,
            instructions: self.default_instructions,
            occurred_at: self.clock.now(),
            tx,
        }
    }

    /// The one negotiation of a threat (§3.2), immediate or deferred,
    /// under the handler in `threats`. A rejection is counted and
    /// reported; an accepted invariant threat is staged in `threats` for
    /// the commit; an accepted pre-/postcondition threat is only
    /// tolerated: it cannot be re-evaluated later (§3), so invariants
    /// must cover it. Accepting with `app_data` the threat journal could
    /// not give back
    /// ([`Value::check_journalable`](dedisys_types::Value::check_journalable))
    /// refuses the operation with [`Error::IllTypedField`]
    /// (`name: "app_data"`) and stages nothing.
    fn negotiate_threat(
        &mut self,
        constraint: &RegisteredConstraint,
        mut threat: ConsistencyThreat,
        threats: &mut TxThreats,
        freshness: &[(ClassName, VersionInfo)],
        app_default_min_degree: SatisfactionDegree,
    ) -> Result<()> {
        let degree = threat.degree;
        let (decision, path) = negotiate(
            constraint,
            &mut threat,
            &mut threats.handler,
            freshness,
            app_default_min_degree,
        );
        self.note_negotiation_path(path);
        match decision {
            ThreatDecision::Reject => {
                self.stats.threats_rejected += 1;
                self.telemetry.emit(|| TraceEvent::ThreatRejected {
                    constraint: constraint.name().text().into(),
                    degree,
                });
                Err(Error::ThreatRejected {
                    constraint: constraint.name().clone(),
                    degree,
                })
            }
            ThreatDecision::Accept => {
                if let Some(data) = &threat.app_data {
                    data.check_journalable("app_data")?;
                }
                self.stats.threats_accepted += 1;
                if constraint.meta.kind.is_invariant() {
                    threats.accepted.push(threat);
                }
                Ok(())
            }
        }
    }

    /// Negotiates the threats deferred during a transaction, under its
    /// dynamic handler (called by the middleware before commit), and
    /// stages the accepted ones in `threats`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ThreatRejected`] for the first rejected threat;
    /// the transaction must then be rolled back.
    pub(crate) fn negotiate_deferred(
        &mut self,
        threats: &mut TxThreats,
        settings: &ValidationConfig,
    ) -> Result<()> {
        for DeferredThreat {
            constraint,
            threat,
            freshness,
        } in std::mem::take(&mut threats.deferred)
        {
            self.negotiate_threat(
                &constraint,
                threat,
                threats,
                &freshness,
                settings.app_default_min_degree,
            )?;
        }
        Ok(())
    }

    /// The §5.5.3 asynchronous-constraint fast path: in degraded mode
    /// the constraint is not validated and not negotiated; the accepted
    /// threat it returns is staged directly for reconciliation-time
    /// evaluation.
    pub(crate) fn record_async_threat(
        &mut self,
        constraint: &RegisteredConstraint,
        context_object: Option<&ObjectId>,
        tx: TxId,
    ) -> ConsistencyThreat {
        self.stats.async_shortcuts += 1;
        self.stats.threats_detected += 1;
        self.stats.threats_accepted += 1;
        let candidate = ValidationCandidate::invariant(constraint, context_object);
        self.threat(&candidate, SatisfactionDegree::Uncheckable, &[], tx)
    }

    /// Counts which §3.2 negotiation mechanism decided a threat.
    fn note_negotiation_path(&self, path: NegotiationPath) {
        self.telemetry.metrics().incr(match path {
            NegotiationPath::NonTradeable => "negotiation.non_tradeable",
            NegotiationPath::Dynamic => "negotiation.dynamic",
            NegotiationPath::Static => "negotiation.static",
            NegotiationPath::Default => "negotiation.default",
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dedisys_constraints::{ConstraintMeta, FreshnessCriterion, ValidationContext};
    use dedisys_types::{ConstraintName, NodeId, SimTime, Version};
    use std::collections::BTreeSet;
    use std::sync::Arc;

    fn threat(degree: SatisfactionDegree) -> ConsistencyThreat {
        ConsistencyThreat {
            constraint: ConstraintName::from("C"),
            context_object: Some(ObjectId::new("Flight", "F1")),
            degree,
            affected_objects: BTreeSet::new(),
            app_data: None,
            instructions: Default::default(),
            occurred_at: SimTime::ZERO,
            tx: TxId::new(NodeId(0), 1),
        }
    }

    fn constraint(meta: ConstraintMeta) -> RegisteredConstraint {
        RegisteredConstraint::new(meta, Arc::new(|_: &mut ValidationContext<'_>| Ok(true)))
    }

    #[test]
    fn non_tradeable_rejects_automatically() {
        let c = constraint(ConstraintMeta::new("C"));
        let (d, path) = negotiate(
            &c,
            &mut threat(SatisfactionDegree::PossiblySatisfied),
            &mut None,
            &[],
            SatisfactionDegree::Uncheckable,
        );
        assert_eq!(d, ThreatDecision::Reject);
        assert_eq!(path, NegotiationPath::NonTradeable);
    }

    #[test]
    fn dynamic_handler_takes_priority() {
        let c = constraint(
            ConstraintMeta::new("C").tradeable(SatisfactionDegree::Satisfied), // static would reject
        );
        let handler = |_: &mut ConsistencyThreat| ThreatDecision::Accept;
        let (d, path) = negotiate(
            &c,
            &mut threat(SatisfactionDegree::Uncheckable),
            &mut Some(Box::new(handler)),
            &[],
            SatisfactionDegree::Satisfied,
        );
        assert_eq!(d, ThreatDecision::Accept);
        assert_eq!(path, NegotiationPath::Dynamic);
    }

    #[test]
    fn static_declaration_compares_degrees() {
        let c =
            constraint(ConstraintMeta::new("C").tradeable(SatisfactionDegree::PossiblySatisfied));
        let accept = negotiate(
            &c,
            &mut threat(SatisfactionDegree::PossiblySatisfied),
            &mut None,
            &[],
            SatisfactionDegree::Satisfied,
        );
        assert_eq!(accept.0, ThreatDecision::Accept);
        assert_eq!(accept.1, NegotiationPath::Static);
        let reject = negotiate(
            &c,
            &mut threat(SatisfactionDegree::PossiblyViolated),
            &mut None,
            &[],
            SatisfactionDegree::Satisfied,
        );
        assert_eq!(reject.0, ThreatDecision::Reject);
    }

    #[test]
    fn static_freshness_criteria_bound_acceptance() {
        let c = constraint(
            ConstraintMeta::new("C")
                .tradeable(SatisfactionDegree::Uncheckable)
                .with_freshness(FreshnessCriterion::new("Flight", 2)),
        );
        let flight = |estimated: u64| {
            [(
                ClassName::from("Flight"),
                VersionInfo::new(Version(3), Version(estimated)),
            )]
        };
        let (d, _) = negotiate(
            &c,
            &mut threat(SatisfactionDegree::PossiblySatisfied),
            &mut None,
            &flight(5),
            SatisfactionDegree::Satisfied,
        );
        assert_eq!(d, ThreatDecision::Accept, "2 missed updates ≤ 2");
        let (d, _) = negotiate(
            &c,
            &mut threat(SatisfactionDegree::PossiblySatisfied),
            &mut None,
            &flight(8),
            SatisfactionDegree::Satisfied,
        );
        assert_eq!(d, ThreatDecision::Reject, "5 missed updates > 2");
    }

    #[test]
    fn app_default_applies_without_declarations() {
        let mut meta = ConstraintMeta::new("C");
        meta.priority = dedisys_constraints::ConstraintPriority::Tradeable;
        // min degree stays Satisfied and no freshness: not "statically
        // declared", falls through to the app default.
        let c = constraint(meta);
        let (d, path) = negotiate(
            &c,
            &mut threat(SatisfactionDegree::Uncheckable),
            &mut None,
            &[],
            SatisfactionDegree::Uncheckable,
        );
        assert_eq!(d, ThreatDecision::Accept);
        assert_eq!(path, NegotiationPath::Default);
    }
}
