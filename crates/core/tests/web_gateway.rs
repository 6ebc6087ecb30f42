//! The §4.5 Web gateway parks transactions, not threads: several
//! browser sessions negotiate at once, a request that needs a parked
//! session's lock is refused at once, and a threat the commit-time
//! checks find is shown before the commit.

use dedisys_constraints::{
    expr::ExprConstraint, ConstraintKind, ConstraintMeta, ContextPreparation, RegisteredConstraint,
};
use dedisys_core::nodes;
use dedisys_core::web::{WebDecision, WebGateway, WebResponse};
use dedisys_core::ClusterBuilder;
use dedisys_object::{AppDescriptor, ClassDescriptor, EntityState};
use dedisys_types::{Error, NodeId, ObjectId, Result, SatisfactionDegree, TxId, Value};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NODE: NodeId = NodeId(0);

/// A degraded gateway on node 0 over flights `F1` and `F2` (70 of 80
/// seats sold), guarded by the tradeable `Ticket` invariant of `kind`.
fn degraded_gateway(kind: ConstraintKind) -> WebGateway {
    let app = AppDescriptor::new("booking").with_class(
        ClassDescriptor::new("Flight")
            .with_field("seats", Value::Int(0))
            .with_field("sold", Value::Int(0)),
    );
    let ticket = RegisteredConstraint::new(
        ConstraintMeta::new("Ticket")
            .kind(kind)
            .tradeable(SatisfactionDegree::PossiblySatisfied),
        Arc::new(ExprConstraint::parse("self.sold <= self.seats").unwrap()),
    )
    .context_class("Flight")
    .affects("Flight", "setSold", ContextPreparation::CalledObject);
    let mut cluster = ClusterBuilder::new(2, app)
        .constraint(ticket)
        .build()
        .unwrap();
    for flight in [flight(1), flight(2)] {
        cluster
            .run_tx(NODE, |c, tx| {
                c.create(NODE, tx, EntityState::for_class(c.app(), &flight)?)?;
                c.set_field(NODE, tx, &flight, "seats", Value::Int(80))?;
                c.set_field(NODE, tx, &flight, "sold", Value::Int(70))
            })
            .unwrap();
    }
    cluster.partition(&[nodes![0], nodes![1]]).unwrap();
    WebGateway::new(cluster, NODE)
}

fn flight(n: u32) -> ObjectId {
    ObjectId::new("Flight", format!("F{n}"))
}

/// The business operation "sell `flight` up to `sold` seats".
fn sell(
    flight: ObjectId,
    sold: i64,
) -> impl FnOnce(&mut dedisys_core::Cluster, TxId) -> Result<Value> {
    move |c, tx| {
        c.set_field(NODE, tx, &flight, "sold", Value::Int(sold))
            .map(|()| Value::Null)
    }
}

fn negotiation_id(response: WebResponse) -> u64 {
    match response {
        WebResponse::NegotiationRequired {
            negotiation_id,
            threat,
        } => {
            assert_eq!(threat.constraint.as_str(), "Ticket");
            negotiation_id
        }
        other => panic!("expected a negotiation request, got {other:?}"),
    }
}

fn sold(gw: &WebGateway, n: u32) -> Value {
    let entity = gw.cluster().entity_on(NODE, &flight(n)).unwrap();
    entity.field("sold").clone()
}

#[test]
fn two_browser_sessions_negotiate_at_once() {
    let started = Instant::now();
    let mut gw = degraded_gateway(ConstraintKind::HardInvariant);
    let a = negotiation_id(gw.submit(sell(flight(1), 71)));
    let b = negotiation_id(gw.submit(sell(flight(2), 72)));
    assert_eq!(gw.cluster().open_tx_count(), 2, "both sessions parked");

    // A third request for F1 meets session A's lock and is refused at
    // once.
    match gw.submit(sell(flight(1), 73)) {
        WebResponse::BusinessResult(Err(Error::LockConflict { object, .. })) => {
            assert_eq!(object, flight(1));
        }
        other => panic!("expected a lock conflict, got {other:?}"),
    }

    // B answers first, and each session commits with its own answer.
    match gw.decide(b, WebDecision { accept: false }) {
        WebResponse::BusinessResult(Err(Error::ThreatRejected { .. })) => {}
        other => panic!("expected B's rejection, got {other:?}"),
    }
    match gw.decide(a, WebDecision { accept: true }) {
        WebResponse::BusinessResult(Ok(_)) => {}
        other => panic!("expected A's sale, got {other:?}"),
    }
    assert_eq!(sold(&gw, 1), Value::Int(71));
    assert_eq!(sold(&gw, 2), Value::Int(70), "B's sale rolled back");
    let ccm = gw.cluster().stats().ccm;
    assert_eq!((ccm.threats_accepted, ccm.threats_rejected), (1, 1));
    assert_eq!(gw.cluster().threats().len(), 1);
    assert_eq!(gw.cluster().tx_record_count(), 0);
    // No request waited on the wall clock for another.
    assert!(started.elapsed() < Duration::from_secs(1));
}

#[test]
fn a_soft_invariant_threat_is_shown_before_commit() {
    let mut gw = degraded_gateway(ConstraintKind::SoftInvariant);
    let id = negotiation_id(gw.submit(sell(flight(1), 71)));
    // The commit-time check found the threat; the transaction is still
    // open and nothing is committed or stored.
    assert_eq!(gw.cluster().open_tx_count(), 1);
    assert_eq!(sold(&gw, 1), Value::Int(70));
    assert!(gw.cluster().threats().is_empty());

    match gw.decide(id, WebDecision { accept: true }) {
        WebResponse::BusinessResult(Ok(_)) => {}
        other => panic!("expected the sale, got {other:?}"),
    }
    assert_eq!(sold(&gw, 1), Value::Int(71));
    assert_eq!(gw.cluster().threats().len(), 1);
    assert_eq!(gw.cluster().open_tx_count(), 0);
}
