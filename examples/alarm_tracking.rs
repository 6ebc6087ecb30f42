//! The distributed alarm tracking system (ATS) of §1.4 / Figure 1.5.
//!
//! Administrative operators (managing alarms) and technical operators
//! (filing repair reports) work at different locations against
//! different servers. A network split between those servers must not
//! stop either of them — the `ComponentKindReferenceConsistency`
//! constraint is traded during the split and re-evaluated afterwards.
//!
//! Run with: `cargo run --example alarm_tracking`

use dedisys::apps::ats::{ats_cluster, create_alarm_with_report};
use dedisys_core::nodes;
use dedisys_core::{DeferAll, HighestVersionWins};
use dedisys_types::{NodeId, Result, Value};

fn main() -> Result<()> {
    let mut cluster = ats_cluster(2)?;
    let admin = NodeId(0); // administrative operators' server
    let tech = NodeId(1); // technical operators' server

    let (alarm, report) = create_alarm_with_report(&mut cluster, admin, "A-17")?;
    println!("healthy: alarm A-17 (kind=Signal) with linked repair report");

    // Healthy mode: an inconsistent repair is rejected outright.
    let bad = cluster.run_tx(tech, |c, tx| {
        c.set_field(tech, tx, &report, "componentKind", Value::from("Fuse"))
    });
    println!(
        "healthy: repairing a Signal alarm with a Fuse → {}",
        bad.unwrap_err()
    );

    // The split between the two sites.
    cluster.partition(&[nodes![0], nodes![1]]).unwrap();
    println!("\nsplit between the sites: {}", cluster.topology());

    // Admin changes the alarm kind on its side…
    cluster.run_tx(admin, |c, tx| {
        c.set_field(admin, tx, &alarm, "alarmKind", Value::from("Power"))
    })?;
    println!("admin side: alarmKind → Power (threat accepted)");

    // …while the technician — still seeing the stale "Signal" alarm —
    // files a Fuse repair. Locally this looks *possibly violated*, but
    // the ATS policy accepts it: the technician knows the component.
    cluster.run_tx(tech, |c, tx| {
        c.set_field(tech, tx, &report, "componentKind", Value::from("Fuse"))
    })?;
    println!("tech side: componentKind → Fuse (possibly-violated threat accepted)");
    println!(
        "stored threats: {} identity/ies from {} accepted threat(s)",
        cluster.threats().identities().len(),
        cluster.stats().ccm.threats_accepted
    );

    // Repair the link; reconciliation discovers that the merged state
    // (Power alarm + Fuse component) actually satisfies the constraint.
    cluster.heal();
    let summary = cluster.reconcile(&mut HighestVersionWins, &mut DeferAll);
    // §3.2's promise: every violation the committed state still holds
    // is explained, and no threat outlives its violation.
    assert!(cluster.audit().iter().all(|f| f.explanation.is_some()));
    assert!(cluster.stale_threats().is_empty());
    println!(
        "\nreconciled: {} re-evaluated, {} satisfied (removed), {} violation(s)",
        summary.constraints.re_evaluated,
        summary.constraints.satisfied_removed,
        summary.constraints.violations
    );
    println!(
        "final state: alarmKind={} componentKind={} — no inconsistency to clean up",
        cluster.entity_on(admin, &alarm).unwrap().field("alarmKind"),
        cluster
            .entity_on(admin, &report)
            .unwrap()
            .field("componentKind"),
    );
    Ok(())
}
