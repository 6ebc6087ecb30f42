//! Negotiation callbacks for Web (request/response) clients (§4.5,
//! Figure 4.8).
//!
//! HTTP cannot call back into the browser. The solution the
//! dissertation implemented for its Struts front-end maps the callback
//! onto the request/response stream:
//!
//! 1. the business request is submitted; when a consistency threat
//!    needs negotiation, the server *parks the working thread* and
//!    ships the negotiation request as the HTTP **response** to the
//!    business request;
//! 2. the user's decision arrives as a **new HTTP request**, which
//!    resumes the parked thread;
//! 3. the business result (or the next negotiation request) is
//!    returned as the response to the decision request.
//!
//! [`WebGateway`] reproduces exactly that: business operations run on a
//! worker thread holding the cluster; its negotiation handler blocks on
//! a channel that [`WebGateway::decide`] feeds. A timeout rejects the
//! threat if the user never answers (the paper's guard against
//! indefinitely blocked negotiation threads).

use crate::ccm::{NegotiationHandler, ThreatDecision};
use crate::threat::ConsistencyThreat;
use crate::Cluster;
use dedisys_types::{NodeId, Result, TxId, Value};
use std::collections::HashMap;
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How long a parked worker waits for the user's decision before it
/// rejects the threat (real time); the gateway waits four times as
/// long for the worker itself.
const NEGOTIATION_TIMEOUT: Duration = Duration::from_secs(5);

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

enum WorkerMsg {
    Threat(ConsistencyThreat),
    Done(Result<Value>),
}

/// Negotiation handler bridging into the request/response world: sends
/// the threat to the gateway and blocks until the decision request
/// arrives (or the timeout rejects).
struct ChannelNegotiationHandler {
    threat_tx: SyncSender<WorkerMsg>,
    decision_rx: Receiver<WebDecision>,
}

impl NegotiationHandler for ChannelNegotiationHandler {
    fn negotiate(&mut self, threat: &mut ConsistencyThreat) -> ThreatDecision {
        if self
            .threat_tx
            .send(WorkerMsg::Threat(threat.clone()))
            .is_err()
        {
            return ThreatDecision::Reject;
        }
        match self.decision_rx.recv_timeout(NEGOTIATION_TIMEOUT) {
            Ok(decision) if decision.accept => ThreatDecision::Accept,
            // Timeout or explicit rejection: do not block forever
            // (§4.5) — the threat is rejected.
            _ => ThreatDecision::Reject,
        }
    }
}

struct PendingSession {
    decision_tx: SyncSender<WebDecision>,
    inbox: Receiver<WorkerMsg>,
}

/// The server-side gateway of Figure 4.8.
pub struct WebGateway {
    cluster: Arc<Mutex<Cluster>>,
    node: NodeId,
    next_id: u64,
    pending: HashMap<u64, PendingSession>,
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
    /// Creates a gateway submitting requests through `node`.
    pub fn new(cluster: Arc<Mutex<Cluster>>, node: NodeId) -> Self {
        Self {
            cluster,
            node,
            next_id: 0,
            pending: HashMap::new(),
        }
    }

    /// Shared access to the cluster (for request handlers and tests).
    pub fn cluster(&self) -> Arc<Mutex<Cluster>> {
        Arc::clone(&self.cluster)
    }

    /// Submits a business request. `op` runs in a fresh transaction on
    /// a worker thread; the call returns either the business result or
    /// the first negotiation request.
    pub fn submit(
        &mut self,
        op: impl FnOnce(&mut Cluster, TxId) -> Result<Value> + Send + 'static,
    ) -> WebResponse {
        let (inbox_tx, inbox_rx) = sync_channel::<WorkerMsg>(1);
        let (decision_tx, decision_rx) = sync_channel::<WebDecision>(1);
        let cluster = Arc::clone(&self.cluster);
        let node = self.node;
        let worker_inbox = inbox_tx.clone();
        std::thread::spawn(move || {
            let mut cluster = cluster.lock().expect("cluster mutex poisoned");
            let tx = cluster.begin_tx(node);
            let handler = Box::new(ChannelNegotiationHandler {
                threat_tx: worker_inbox,
                decision_rx,
            });
            let registered = cluster.register_negotiation_handler(tx, handler);
            let result = match registered.and_then(|()| op(&mut cluster, tx)) {
                Ok(value) => cluster.commit(tx).map(|()| value),
                Err(e) => {
                    let _ = cluster.rollback(tx);
                    Err(e)
                }
            };
            let _ = inbox_tx.send(WorkerMsg::Done(result));
        });
        self.wait_for_worker(inbox_rx, decision_tx)
    }

    /// Delivers the user's decision for a pending negotiation; returns
    /// the business result or the next negotiation request. A stale or
    /// duplicated decision (an unknown `negotiation_id`) is answered
    /// with a failed business result.
    pub fn decide(&mut self, negotiation_id: u64, decision: WebDecision) -> WebResponse {
        let Some(session) = self.pending.remove(&negotiation_id) else {
            return unknown_negotiation(negotiation_id);
        };
        // The decision request resumes the parked worker…
        let _ = session.decision_tx.send(decision);
        // …and its response carries the business result (or the next
        // negotiation request).
        let (decision_tx, _unused_rx) = sync_channel::<WebDecision>(1);
        drop(_unused_rx);
        let PendingSession { inbox, .. } = session;
        self.wait_for_worker(inbox, decision_tx)
    }

    /// Abandons a pending negotiation without ever delivering a
    /// decision — the request/response analogue of the user closing
    /// the browser. Dropping the decision channel resumes the parked
    /// worker deterministically (its receive fails with a disconnect
    /// instead of expiring a wall-clock timeout), the threat is
    /// rejected, and the returned response carries the failed
    /// business result. An unknown `negotiation_id` is answered as in
    /// [`WebGateway::decide`].
    pub fn abandon(&mut self, negotiation_id: u64) -> WebResponse {
        let Some(session) = self.pending.remove(&negotiation_id) else {
            return unknown_negotiation(negotiation_id);
        };
        let PendingSession { decision_tx, inbox } = session;
        drop(decision_tx);
        let (next_decision_tx, _unused_rx) = sync_channel::<WebDecision>(1);
        drop(_unused_rx);
        self.wait_for_worker(inbox, next_decision_tx)
    }

    fn wait_for_worker(
        &mut self,
        inbox: Receiver<WorkerMsg>,
        decision_tx: SyncSender<WebDecision>,
    ) -> WebResponse {
        match inbox.recv_timeout(NEGOTIATION_TIMEOUT.saturating_mul(4)) {
            Ok(WorkerMsg::Done(result)) => WebResponse::BusinessResult(result),
            Ok(WorkerMsg::Threat(threat)) => {
                let id = self.next_id;
                self.next_id += 1;
                self.pending
                    .insert(id, PendingSession { decision_tx, inbox });
                WebResponse::NegotiationRequired {
                    negotiation_id: id,
                    threat,
                }
            }
            Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => {
                WebResponse::BusinessResult(Err(dedisys_types::Error::Config(
                    "web worker did not respond".into(),
                )))
            }
        }
    }
}

/// The answer to a decision request naming no pending negotiation.
fn unknown_negotiation(negotiation_id: u64) -> WebResponse {
    WebResponse::BusinessResult(Err(dedisys_types::Error::Config(format!(
        "unknown negotiation id {negotiation_id}"
    ))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{nodes, ClusterBuilder};
    use dedisys_constraints::{
        expr::ExprConstraint, ConstraintMeta, ContextPreparation, RegisteredConstraint,
    };
    use dedisys_object::{AppDescriptor, ClassDescriptor, EntityState};
    use dedisys_types::{ObjectId, SatisfactionDegree};
    use std::sync::Arc as StdArc;

    fn gateway() -> (WebGateway, ObjectId) {
        let app = AppDescriptor::new("booking").with_class(
            ClassDescriptor::new("Flight")
                .with_field("seats", Value::Int(0))
                .with_field("sold", Value::Int(0)),
        );
        let ticket = RegisteredConstraint::new(
            ConstraintMeta::new("Ticket").tradeable(SatisfactionDegree::PossiblySatisfied),
            StdArc::new(ExprConstraint::parse("self.sold <= self.seats").unwrap()),
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
        (WebGateway::new(Arc::new(Mutex::new(cluster)), node), flight)
    }

    #[test]
    fn healthy_request_returns_business_result_directly() {
        let (mut gw, flight) = gateway();
        let f = flight.clone();
        let response = gw.submit(move |c, tx| c.get_field(NodeId(0), tx, &f, "sold"));
        match response {
            WebResponse::BusinessResult(Ok(v)) => assert_eq!(v, Value::Int(70)),
            other => panic!("unexpected response: {other:?}"),
        }
    }

    #[test]
    fn degraded_write_ships_negotiation_over_the_response() {
        let (mut gw, flight) = gateway();
        gw.cluster()
            .lock()
            .unwrap()
            .partition(&[nodes![0], nodes![1]])
            .unwrap();
        let f = flight.clone();
        let response = gw.submit(move |c, tx| {
            c.set_field(NodeId(0), tx, &f, "sold", Value::Int(71))
                .map(|()| Value::Null)
        });
        let (id, threat) = match response {
            WebResponse::NegotiationRequired {
                negotiation_id,
                threat,
            } => (negotiation_id, threat),
            other => panic!("expected negotiation, got {other:?}"),
        };
        assert_eq!(threat.constraint.as_str(), "Ticket");
        // The decision request's response carries the business result.
        let response = gw.decide(id, WebDecision { accept: true });
        match response {
            WebResponse::BusinessResult(Ok(_)) => {}
            other => panic!("expected business result, got {other:?}"),
        }
        let cluster = gw.cluster();
        let cluster = cluster.lock().unwrap();
        assert_eq!(cluster.threats().len(), 1, "accepted threat persisted");
    }

    #[test]
    fn rejected_decision_aborts_the_business_operation() {
        let (mut gw, flight) = gateway();
        gw.cluster()
            .lock()
            .unwrap()
            .partition(&[nodes![0], nodes![1]])
            .unwrap();
        let f = flight.clone();
        let response = gw.submit(move |c, tx| {
            c.set_field(NodeId(0), tx, &f, "sold", Value::Int(71))
                .map(|()| Value::Null)
        });
        let id = match response {
            WebResponse::NegotiationRequired { negotiation_id, .. } => negotiation_id,
            other => panic!("expected negotiation, got {other:?}"),
        };
        let response = gw.decide(id, WebDecision { accept: false });
        match response {
            WebResponse::BusinessResult(Err(e)) => {
                assert!(matches!(e, dedisys_types::Error::ThreatRejected { .. }));
            }
            other => panic!("expected rejected result, got {other:?}"),
        }
        let cluster = gw.cluster();
        let cluster = cluster.lock().unwrap();
        assert_eq!(
            cluster.entity_on(NodeId(0), &flight).unwrap().field("sold"),
            &Value::Int(70),
            "write rolled back"
        );
    }

    #[test]
    fn abandoned_negotiation_rejects_without_wall_clock_waits() {
        let (mut gw, flight) = gateway();
        gw.cluster()
            .lock()
            .unwrap()
            .partition(&[nodes![0], nodes![1]])
            .unwrap();
        let f = flight.clone();
        let response = gw.submit(move |c, tx| {
            c.set_field(NodeId(0), tx, &f, "sold", Value::Int(71))
                .map(|()| Value::Null)
        });
        let id = match response {
            WebResponse::NegotiationRequired { negotiation_id, .. } => negotiation_id,
            other => panic!("expected negotiation, got {other:?}"),
        };
        // Never answer: dropping the decision channel resumes the
        // parked worker via a channel disconnect — deterministic, no
        // wall-clock sleep racing the worker's timeout.
        let response = gw.abandon(id);
        match response {
            WebResponse::BusinessResult(Err(e)) => {
                assert!(matches!(e, dedisys_types::Error::ThreatRejected { .. }));
            }
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn stale_decisions_fail_typed_and_the_gateway_keeps_serving() {
        let (mut gw, flight) = gateway();
        gw.cluster()
            .lock()
            .unwrap()
            .partition(&[nodes![0], nodes![1]])
            .unwrap();
        let f = flight.clone();
        let response = gw.submit(move |c, tx| {
            c.set_field(NodeId(0), tx, &f, "sold", Value::Int(71))
                .map(|()| Value::Null)
        });
        let id = match response {
            WebResponse::NegotiationRequired { negotiation_id, .. } => negotiation_id,
            other => panic!("expected negotiation, got {other:?}"),
        };
        let accept = WebDecision { accept: true };
        assert!(matches!(
            gw.decide(id, accept),
            WebResponse::BusinessResult(Ok(_))
        ));
        // The duplicated decision request and a late abandon of the
        // answered negotiation.
        for stale in [gw.decide(id, accept), gw.abandon(id)] {
            match stale {
                WebResponse::BusinessResult(Err(dedisys_types::Error::Config(msg))) => {
                    assert!(msg.contains("unknown negotiation id"), "{msg}");
                }
                other => panic!("expected a typed error, got {other:?}"),
            }
        }
        let response = gw.submit(move |c, tx| c.get_field(NodeId(0), tx, &flight, "sold"));
        match response {
            WebResponse::BusinessResult(Ok(v)) => assert_eq!(v, Value::Int(71)),
            other => panic!("unexpected response: {other:?}"),
        }
    }
}
