//! The distributed telecommunication management system (DTMS) of
//! §1.4 — the dissertation's primary motivating application.
//!
//! Channel endpoints are *bound* to their site's node (strong
//! ownership, no cross-site replication), so a partition makes the
//! peer genuinely unreachable: constraint checks become `uncheckable`
//! (NCC) rather than merely unreliable (LCC).
//!
//! Run with: `cargo run --example telecom_channels`

use dedisys_apps::dtms::{create_channel, dtms_cluster, retune};
use dedisys_core::nodes;
use dedisys_core::{HighestVersionWins, ReconOps, ViolationReport};
use dedisys_types::{NodeId, Result, SatisfactionDegree, Value};

fn main() -> Result<()> {
    let mut cluster = dtms_cluster(3)?;
    let vienna = NodeId(0);
    let graz = NodeId(1);

    let (ep_v, ep_g) = create_channel(&mut cluster, "tower-ops", vienna, graz, 121_500)?;
    println!("channel 'tower-ops': endpoints bound to Vienna (n0) and Graz (n1), 121.500 MHz");

    // Coordinated retune within one transaction: allowed (soft
    // constraint validates at commit, when both ends agree again).
    cluster.run_tx(vienna, |c, tx| {
        c.set_field(vienna, tx, &ep_v, "frequency", Value::Int(122_000))?;
        c.set_field(vienna, tx, &ep_g, "frequency", Value::Int(122_000))
    })?;
    println!("healthy: coordinated retune to 122.000 MHz committed");

    // Lone retune: violates at commit.
    let lone = retune(&mut cluster, vienna, &ep_v, 123_000);
    println!("healthy: lone retune rejected: {}", lone.unwrap_err());

    // Vienna loses its link to the other sites.
    cluster.partition(&[nodes![0], nodes![1, 2]]).unwrap();
    println!("\nVienna isolated: {}", cluster.topology());

    // The Graz endpoint is unreachable from Vienna — the constraint is
    // uncheckable (NCC), accepted per the DTMS policy so the site
    // stays operable.
    retune(&mut cluster, vienna, &ep_v, 123_000)?;
    let threat = &cluster.threats().threats()[0];
    println!(
        "degraded: Vienna retuned to 123.000 MHz — threat degree = {} (peer unreachable)",
        threat.degree
    );
    assert_eq!(threat.degree, SatisfactionDegree::Uncheckable);

    // Repair: reconciliation re-validates with full reach and finds the
    // real violation; the operator fixes it by retuning Graz.
    cluster.heal();
    let ep_g_fix = ep_g.clone();
    let mut fix = move |violation: &ViolationReport, ops: &mut ReconOps<'_>| {
        println!(
            "  [reconciliation] {} violated — retuning the Graz endpoint to match",
            violation.identity.constraint
        );
        ops.write(&ep_g_fix, "frequency", Value::Int(123_000))
            .unwrap();
        true
    };
    let summary = cluster.reconcile(&mut HighestVersionWins, &mut fix);
    // §3.2's promise: every violation the committed state still holds
    // is explained, and no threat outlives its violation.
    assert!(cluster.audit().iter().all(|f| f.explanation.is_some()));
    assert!(cluster.stale_threats().is_empty());
    println!(
        "reconciled: {} violation(s), {} resolved immediately",
        summary.constraints.violations, summary.constraints.resolved_by_handler
    );
    println!(
        "final: Vienna={} Hz, Graz={} Hz",
        cluster.entity_on(vienna, &ep_v).unwrap().field("frequency"),
        cluster.entity_on(graz, &ep_g).unwrap().field("frequency"),
    );
    Ok(())
}
