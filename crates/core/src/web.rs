//! Negotiation callbacks for Web (request/response) clients (§4.5,
//! Figure 4.8).
//!
//! HTTP cannot call back into the browser. The solution the
//! dissertation implemented for its Struts front-end maps the callback
//! onto the request/response stream:
//!
//! 1. the business request is submitted; when a consistency threat
//!    needs negotiation, the server *parks the request* and ships the
//!    negotiation request as the HTTP **response** to the business
//!    request;
//! 2. the user's decision arrives as a **new HTTP request**, which
//!    resumes the parked request;
//! 3. the business result (or the next negotiation request) is
//!    returned as the response to the decision request.
//!
//! [`WebGateway`] parks a *transaction*, not a thread. Its cluster
//! negotiates under [`NegotiationTiming::Deferred`] (§5.4): the
//! business operation and its commit-time checks run at once, and the
//! still-open transaction, holding only its object locks, waits while
//! the user answers its threats one request at a time. The last answer
//! commits it with a negotiation handler that replays the recorded
//! answers. A rejection commits at once, and so does a question left
//! unanswered for 5 s on the cluster's virtual clock, checked at the
//! next gateway call (the paper's guard against indefinitely blocked
//! negotiations; a browser that leaves sends nothing). Either way the
//! CCMgr counts and traces the rejection.

use crate::ccm::{DeferredThreat, NegotiationTiming, ThreatDecision};
use crate::threat::ConsistencyThreat;
use crate::Cluster;
use dedisys_types::{NodeId, Result, SimDuration, SimTime, TxId, Value};
use std::collections::BTreeMap;

/// How long a parked transaction waits on the virtual clock for the
/// user's decision before the threat is rejected.
const NEGOTIATION_TIMEOUT: SimDuration = SimDuration::from_secs(5);

/// What the "browser" receives in answer to a request.
#[derive(Debug)]
pub enum WebResponse {
    /// The business operation finished.
    BusinessResult(Result<Value>),
    /// A consistency threat must be negotiated; answer via
    /// [`WebGateway::decide`] with the given id.
    NegotiationRequired {
        /// Session id for the pending negotiation.
        negotiation_id: u64,
        /// The threat to decide on.
        threat: ConsistencyThreat,
    },
}

/// A user's answer to a negotiation request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WebDecision {
    /// Accept the threat and continue the business operation.
    pub accept: bool,
}

/// A business transaction waiting for the user.
struct Parked {
    tx: TxId,
    /// What the operation returned: the business result once committed.
    value: Value,
    /// The user's answers so far, in the order the commit asks for them.
    answers: Vec<ThreatDecision>,
    /// When the open question is rejected unanswered.
    deadline: SimTime,
}

/// The server-side gateway of Figure 4.8.
pub struct WebGateway {
    cluster: Cluster,
    node: NodeId,
    next_id: u64,
    /// Parked transactions by negotiation id, in id order.
    pending: BTreeMap<u64, Parked>,
}

impl std::fmt::Debug for WebGateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WebGateway")
            .field("node", &self.node)
            .field("pending", &self.pending.len())
            .finish()
    }
}

impl WebGateway {
    /// Creates a gateway submitting requests through `node`. The
    /// cluster negotiates under [`NegotiationTiming::Deferred`] from
    /// now on.
    pub fn new(mut cluster: Cluster, node: NodeId) -> Self {
        cluster
            .reconfigure(|c| c.validation.negotiation_timing = NegotiationTiming::Deferred)
            .expect("the negotiation timing is a runtime setting");
        Self {
            cluster,
            node,
            next_id: 0,
            pending: BTreeMap::new(),
        }
    }

    /// The cluster (for request handlers and tests).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Submits a business request. `op` runs at once in a fresh
    /// transaction, followed by the transaction's commit-time checks;
    /// the call returns either the business result or the first
    /// negotiation request.
    pub fn submit(&mut self, op: impl FnOnce(&mut Cluster, TxId) -> Result<Value>) -> WebResponse {
        self.expire();
        let tx = self.cluster.begin_tx(self.node);
        let value = match op(&mut self.cluster, tx) {
            Ok(value) => value,
            Err(e) => {
                let _ = self.cluster.rollback(tx);
                return WebResponse::BusinessResult(Err(e));
            }
        };
        if let Err(e) = self.cluster.check_pending(tx) {
            return WebResponse::BusinessResult(Err(e));
        }
        self.ask(Parked {
            tx,
            value,
            answers: Vec::new(),
            deadline: SimTime::ZERO,
        })
    }

    /// Delivers the user's decision for a pending negotiation; returns
    /// the business result or the next negotiation request. A stale,
    /// duplicated or expired decision (an unknown `negotiation_id`) is
    /// answered with a failed business result.
    pub fn decide(&mut self, negotiation_id: u64, decision: WebDecision) -> WebResponse {
        self.expire();
        let Some(mut parked) = self.pending.remove(&negotiation_id) else {
            return WebResponse::BusinessResult(Err(dedisys_types::Error::Config(format!(
                "unknown negotiation id {negotiation_id}"
            ))));
        };
        if decision.accept {
            parked.answers.push(ThreatDecision::Accept);
            self.ask(parked)
        } else {
            parked.answers.push(ThreatDecision::Reject);
            WebResponse::BusinessResult(self.commit(parked))
        }
    }

    /// Shows the user the first deferred threat of `parked` that the
    /// commit will put to its handler and that has no answer yet. With
    /// none left, or a non-tradeable threat first (rejected without
    /// asking), it commits now.
    fn ask(&mut self, mut parked: Parked) -> WebResponse {
        let next = self
            .cluster
            .deferred_threats(parked.tx)
            .iter()
            .map_while(DeferredThreat::askable)
            .nth(parked.answers.len())
            .cloned();
        let Some(threat) = next else {
            return WebResponse::BusinessResult(self.commit(parked));
        };
        let negotiation_id = self.next_id;
        self.next_id += 1;
        parked.deadline = self.cluster.now() + NEGOTIATION_TIMEOUT;
        self.pending.insert(negotiation_id, parked);
        WebResponse::NegotiationRequired {
            negotiation_id,
            threat,
        }
    }

    /// Commits `parked` under a handler that replays the user's answers.
    fn commit(&mut self, parked: Parked) -> Result<Value> {
        let Parked {
            tx, value, answers, ..
        } = parked;
        let mut answers = answers.into_iter();
        let replay =
            move |_: &mut ConsistencyThreat| answers.next().unwrap_or(ThreatDecision::Reject);
        self.cluster
            .register_negotiation_handler(tx, Box::new(replay))?;
        self.cluster.commit(tx).map(|()| value)
    }

    /// Rejects each question past its deadline, in id order: its user
    /// never answered.
    fn expire(&mut self) {
        let now = self.cluster.now();
        let (expired, live): (BTreeMap<_, _>, _) = std::mem::take(&mut self.pending)
            .into_iter()
            .partition(|(_, parked)| parked.deadline <= now);
        self.pending = live;
        for mut parked in expired.into_values() {
            parked.answers.push(ThreatDecision::Reject);
            let _ = self.commit(parked);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{nodes, ClusterBuilder};
    use dedisys_constraints::{
        expr::ExprConstraint, ConstraintMeta, ContextPreparation, RegisteredConstraint,
    };
    use dedisys_object::{AppDescriptor, ClassDescriptor, EntityState};
    use dedisys_types::{Error, ObjectId, SatisfactionDegree};
    use std::sync::Arc;

    fn gateway() -> (WebGateway, ObjectId) {
        let app = AppDescriptor::new("booking").with_class(
            ClassDescriptor::new("Flight")
                .with_field("seats", Value::Int(0))
                .with_field("sold", Value::Int(0)),
        );
        let ticket = RegisteredConstraint::new(
            ConstraintMeta::new("Ticket").tradeable(SatisfactionDegree::PossiblySatisfied),
            Arc::new(ExprConstraint::parse("self.sold <= self.seats").unwrap()),
        )
        .context_class("Flight")
        .affects("Flight", "setSold", ContextPreparation::CalledObject);
        let mut cluster = ClusterBuilder::new(2, app)
            .constraint(ticket)
            .build()
            .unwrap();
        let flight = ObjectId::new("Flight", "F1");
        let node = NodeId(0);
        cluster
            .run_tx(node, |c, tx| {
                c.create(node, tx, EntityState::for_class(c.app(), &flight)?)?;
                c.set_field(node, tx, &flight, "seats", Value::Int(80))?;
                c.set_field(node, tx, &flight, "sold", Value::Int(70))
            })
            .unwrap();
        (WebGateway::new(cluster, node), flight)
    }

    /// A degraded gateway whose first request, a sale, is parked on
    /// its threat; returns the negotiation id.
    fn parked_sale() -> (WebGateway, ObjectId, u64) {
        let (mut gw, flight) = gateway();
        gw.cluster.partition(&[nodes![0], nodes![1]]).unwrap();
        let f = flight.clone();
        let response = gw.submit(move |c, tx| {
            c.set_field(NodeId(0), tx, &f, "sold", Value::Int(71))
                .map(|()| Value::Null)
        });
        match response {
            WebResponse::NegotiationRequired {
                negotiation_id,
                threat,
            } => {
                assert_eq!(threat.constraint.as_str(), "Ticket");
                (gw, flight, negotiation_id)
            }
            other => panic!("expected negotiation, got {other:?}"),
        }
    }

    fn sold(gw: &WebGateway, flight: &ObjectId) -> Value {
        gw.cluster()
            .entity_on(NodeId(0), flight)
            .unwrap()
            .field("sold")
            .clone()
    }

    #[test]
    fn healthy_request_returns_business_result_directly() {
        let (mut gw, flight) = gateway();
        let response = gw.submit(|c, tx| c.get_field(NodeId(0), tx, &flight, "sold"));
        match response {
            WebResponse::BusinessResult(Ok(v)) => assert_eq!(v, Value::Int(70)),
            other => panic!("unexpected response: {other:?}"),
        }
    }

    #[test]
    fn degraded_write_ships_negotiation_over_the_response() {
        let (mut gw, flight, id) = parked_sale();
        assert_eq!(gw.cluster().threats().len(), 0, "nothing stored yet");
        // The decision request's response carries the business result.
        let response = gw.decide(id, WebDecision { accept: true });
        match response {
            WebResponse::BusinessResult(Ok(_)) => {}
            other => panic!("expected business result, got {other:?}"),
        }
        assert_eq!(gw.cluster().threats().len(), 1, "accepted threat persisted");
        assert_eq!(sold(&gw, &flight), Value::Int(71));
    }

    #[test]
    fn rejected_decision_aborts_the_business_operation() {
        let (mut gw, flight, id) = parked_sale();
        let response = gw.decide(id, WebDecision { accept: false });
        match response {
            WebResponse::BusinessResult(Err(e)) => {
                assert!(matches!(e, Error::ThreatRejected { .. }));
            }
            other => panic!("expected rejected result, got {other:?}"),
        }
        assert_eq!(sold(&gw, &flight), Value::Int(70), "write rolled back");
        assert_eq!(gw.cluster().stats().ccm.threats_rejected, 1);
    }

    #[test]
    fn unanswered_negotiation_expires_on_virtual_time() {
        let (mut gw, flight, id) = parked_sale();
        // The user leaves: nothing arrives, and the virtual clock runs
        // past the deadline. The next request finds the question
        // expired, rejects its threat and frees the lock.
        gw.cluster().clock().advance(NEGOTIATION_TIMEOUT);
        let f = flight.clone();
        let response = gw.submit(move |c, tx| {
            c.set_field(NodeId(0), tx, &f, "sold", Value::Int(72))
                .map(|()| Value::Null)
        });
        let next = match response {
            WebResponse::NegotiationRequired { negotiation_id, .. } => negotiation_id,
            other => panic!("expected the lock free and a new negotiation, got {other:?}"),
        };
        assert_eq!(gw.cluster().stats().ccm.threats_rejected, 1);
        assert_eq!(
            sold(&gw, &flight),
            Value::Int(70),
            "expired write rolled back"
        );
        match gw.decide(id, WebDecision { accept: true }) {
            WebResponse::BusinessResult(Err(Error::Config(msg))) => {
                assert!(msg.contains("unknown negotiation id"), "{msg}");
            }
            other => panic!("expected a typed error, got {other:?}"),
        }
        assert!(matches!(
            gw.decide(next, WebDecision { accept: true }),
            WebResponse::BusinessResult(Ok(_))
        ));
        assert_eq!(sold(&gw, &flight), Value::Int(72));
    }

    #[test]
    fn a_crash_behind_the_gateway_ends_the_parked_transaction() {
        let (mut gw, flight, id) = parked_sale();
        // An operator crashes the gateway's node while the sale waits:
        // its transaction dies with the node's volatile state.
        gw.cluster.crash(NodeId(0)).unwrap();
        match gw.decide(id, WebDecision { accept: true }) {
            WebResponse::BusinessResult(Err(Error::NoSuchTransaction(_))) => {}
            other => panic!("expected the transaction gone, got {other:?}"),
        }
        gw.cluster.restart(NodeId(0)).unwrap();
        gw.cluster.heal();
        assert_eq!(sold(&gw, &flight), Value::Int(70), "the sale never landed");
        let response = gw.submit(|c, tx| c.get_field(NodeId(0), tx, &flight, "sold"));
        match response {
            WebResponse::BusinessResult(Ok(v)) => assert_eq!(v, Value::Int(70)),
            other => panic!("unexpected response: {other:?}"),
        }
    }

    #[test]
    fn stale_decisions_fail_typed_and_the_gateway_keeps_serving() {
        let (mut gw, flight, id) = parked_sale();
        let accept = WebDecision { accept: true };
        assert!(matches!(
            gw.decide(id, accept),
            WebResponse::BusinessResult(Ok(_))
        ));
        // The duplicated decision request.
        match gw.decide(id, accept) {
            WebResponse::BusinessResult(Err(Error::Config(msg))) => {
                assert!(msg.contains("unknown negotiation id"), "{msg}");
            }
            other => panic!("expected a typed error, got {other:?}"),
        }
        let response = gw.submit(|c, tx| c.get_field(NodeId(0), tx, &flight, "sold"));
        match response {
            WebResponse::BusinessResult(Ok(v)) => assert_eq!(v, Value::Int(71)),
            other => panic!("unexpected response: {other:?}"),
        }
    }
}
