//! Negotiation callbacks for Web clients (§4.5, Figure 4.8).
//!
//! HTTP cannot call back into a browser, so the negotiation request is
//! shipped as the *response* to the business request, the user's
//! decision arrives as a *new request*, and the business result rides
//! on that request's response. This example plays the browser side of
//! the flight-booking front-end.
//!
//! Run with: `cargo run --example web_negotiation`

use dedisys::apps::flight::{booking_cluster, create_flight};
use dedisys_core::nodes;
use dedisys_core::web::{WebDecision, WebGateway, WebResponse};
use dedisys_types::{Error, NodeId, Result, Value};

fn main() -> Result<()> {
    let mut cluster = booking_cluster(2)?;
    let flight = create_flight(&mut cluster, NodeId(0), "LH-441", 80, 78)?;
    cluster.partition(&[nodes![0], nodes![1]]).unwrap();
    println!("degraded flight-booking system; browser talks to node 0\n");

    let mut gateway = WebGateway::new(cluster, NodeId(0));

    // Browser: POST /buy?flight=LH-441&count=1
    println!("browser → POST /buy (1 ticket)");
    let f = flight.clone();
    let response = gateway
        .submit(move |c, tx| c.invoke(NodeId(0), tx, &f, "sellTickets", vec![Value::Int(1)]));

    // Server: the HTTP response carries a negotiation request.
    let (id, threat) = match response {
        WebResponse::NegotiationRequired {
            negotiation_id,
            threat,
        } => (negotiation_id, threat),
        WebResponse::BusinessResult(r) => return Err(unexpected(r)),
    };
    println!(
        "server → 200 OK with negotiation form: constraint '{}' is {} — proceed?",
        threat.constraint, threat.degree
    );

    // Browser: the user clicks "yes" → POST /negotiate?id=…&accept=1
    println!("browser → POST /negotiate (accept)");
    let response = gateway.decide(id, WebDecision { accept: true });
    match response {
        WebResponse::BusinessResult(Ok(total)) => {
            println!("server → 200 OK: ticket sold, {total} seats now taken");
        }
        other => return Err(unexpected(other)),
    }

    let cluster = gateway.cluster();
    println!(
        "\nserver state: sold={} threats stored={}",
        cluster.entity_on(NodeId(0), &flight).unwrap().field("sold"),
        cluster.threats().len()
    );
    Ok(())
}

/// A response the browser side did not expect: the example fails.
fn unexpected(response: impl std::fmt::Debug) -> Error {
    Error::Config(format!("unexpected response: {response:?}"))
}
