//! The distributed telecommunication management system (DTMS) of
//! §1.4.
//!
//! Each site runs its own DTMS instance managing the local voice
//! communication system; the hardware is represented by objects
//! *bound* to their site (strong ownership — a site failure must not
//! have effects beyond the site). Integrity constraints span sites:
//! the two endpoints of a voice channel must agree on their
//! configuration (frequency) to enable communication.
//!
//! Because endpoint objects are replicated only on their own site's
//! node, a partition makes the *peer* endpoint genuinely unreachable —
//! producing `uncheckable` (NCC) threats rather than the stale-read
//! (LCC) threats of the fully replicated scenarios.

use dedisys_constraints::{
    expr::ExprConstraint, ConstraintKind, ConstraintMeta, ContextPreparation, RegisteredConstraint,
};
use dedisys_core::{Cluster, ClusterBuilder};
use dedisys_object::{AppDescriptor, ClassDescriptor, EntityState};
use dedisys_types::{NodeId, ObjectId, Result, SatisfactionDegree, Value};
use std::sync::Arc;

/// The DTMS application model: sites and channel endpoints.
pub fn dtms_app() -> AppDescriptor {
    AppDescriptor::new("dtms")
        .with_class(
            ClassDescriptor::new("Site")
                .with_field("name", Value::from(""))
                .with_field("online", Value::Bool(true)),
        )
        .with_class(
            ClassDescriptor::new("ChannelEndpoint")
                .with_field("channel", Value::from(""))
                .with_field("frequency", Value::Int(0))
                .with_field("peer", Value::Null),
        )
}

/// The cross-site channel-configuration constraint: both endpoints of
/// a channel must use the same frequency. A **soft** invariant
/// (\[JQ92\], §1.6): a coordinated retune of both endpoints within one
/// business transaction passes through an inconsistent intermediate
/// state, so validation happens at the end of the transaction.
/// Tradeable: during a split a site may retune its endpoint, accepting
/// an `uncheckable` threat that reconciliation re-evaluates.
pub fn channel_config_constraint() -> RegisteredConstraint {
    RegisteredConstraint::new(
        ConstraintMeta::new("ChannelConfigConsistency")
            .kind(ConstraintKind::SoftInvariant)
            .tradeable(SatisfactionDegree::Uncheckable)
            .describe("channel endpoints must agree on the frequency"),
        Arc::new(
            ExprConstraint::parse("self.frequency = self.peer.frequency")
                .expect("valid expression"),
        ),
    )
    .context_class("ChannelEndpoint")
    .affects(
        "ChannelEndpoint",
        "setFrequency",
        ContextPreparation::CalledObject,
    )
}

/// Every endpoint stays inside the licensed band, 100 to 199. An
/// **asynchronous** invariant (§5.5.3): in healthy mode it is checked
/// at the end of the transaction; in degraded mode it is not checked at
/// all, and a threat is recorded directly for reconciliation to decide.
/// Tradeable with no declared floor, so a threat raised while replicas
/// await reconciliation is negotiated by the application-wide default
/// degree (§3.2.1).
pub fn frequency_band_constraint() -> RegisteredConstraint {
    RegisteredConstraint::new(
        ConstraintMeta::new("FrequencyBand")
            .kind(ConstraintKind::AsyncInvariant)
            .tradeable(SatisfactionDegree::Satisfied)
            .intra_object()
            .describe("channel endpoints stay inside the licensed band"),
        Arc::new(
            ExprConstraint::parse("self.frequency >= 100 and self.frequency <= 199")
                .expect("valid expression"),
        ),
    )
    .context_class("ChannelEndpoint")
    .affects(
        "ChannelEndpoint",
        "setFrequency",
        ContextPreparation::CalledObject,
    )
}

/// Builds a DTMS cluster with one node per site.
///
/// # Errors
///
/// Propagates cluster-construction failures.
pub fn dtms_cluster(sites: u32) -> Result<Cluster> {
    ClusterBuilder::new(sites, dtms_app())
        .constraint(channel_config_constraint())
        .build()
}

/// Creates a voice channel between two sites: one endpoint per site,
/// each **bound to its site's node** (no replication across sites).
///
/// # Errors
///
/// Propagates transaction failures.
pub fn create_channel(
    cluster: &mut Cluster,
    channel: &str,
    site_a: NodeId,
    site_b: NodeId,
    frequency: i64,
) -> Result<(ObjectId, ObjectId)> {
    let ep_a = ObjectId::new("ChannelEndpoint", format!("{channel}@{site_a}"));
    let ep_b = ObjectId::new("ChannelEndpoint", format!("{channel}@{site_b}"));
    let (a, b) = (ep_a.clone(), ep_b.clone());
    let ch = channel.to_owned();
    cluster.run_tx(site_a, move |c, tx| {
        let mut ea = EntityState::for_class(c.app(), &a)?;
        ea.set_field("channel", Value::from(ch.as_str()), c.now());
        ea.set_field("frequency", Value::Int(frequency), c.now());
        ea.set_field("peer", Value::Ref(b.clone()), c.now());
        c.create_bound(site_a, tx, ea, vec![site_a], site_a)?;
        let mut eb = EntityState::for_class(c.app(), &b)?;
        eb.set_field("channel", Value::from(ch.as_str()), c.now());
        eb.set_field("frequency", Value::Int(frequency), c.now());
        eb.set_field("peer", Value::Ref(a.clone()), c.now());
        c.create_bound(site_a, tx, eb, vec![site_b], site_b)?;
        Ok(())
    })?;
    Ok((ep_a, ep_b))
}

/// Retunes an endpoint to a new frequency.
///
/// # Errors
///
/// Fails on violation or rejected threat.
pub fn retune(
    cluster: &mut Cluster,
    site: NodeId,
    endpoint: &ObjectId,
    frequency: i64,
) -> Result<()> {
    let ep = endpoint.clone();
    cluster.run_tx(site, move |c, tx| {
        c.set_field(site, tx, &ep, "frequency", Value::Int(frequency))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dedisys_core::nodes;

    #[test]
    fn endpoints_are_bound_to_their_sites() {
        let mut cluster = dtms_cluster(2).unwrap();
        let (ep_a, ep_b) = create_channel(&mut cluster, "ch1", NodeId(0), NodeId(1), 120).unwrap();
        assert!(cluster.entity_on(NodeId(0), &ep_a).is_some());
        assert!(
            cluster.entity_on(NodeId(1), &ep_a).is_none(),
            "not replicated"
        );
        assert!(cluster.entity_on(NodeId(1), &ep_b).is_some());
    }

    #[test]
    fn consistent_retune_of_both_endpoints_succeeds() {
        let mut cluster = dtms_cluster(2).unwrap();
        let (ep_a, ep_b) = create_channel(&mut cluster, "ch1", NodeId(0), NodeId(1), 120).unwrap();
        // Retuning one endpoint alone violates; a coordinated change
        // within one transaction keeps the invariant.
        let result = cluster.run_tx(NodeId(0), |c, tx| {
            c.set_field(NodeId(0), tx, &ep_a, "frequency", Value::Int(121))?;
            c.set_field(NodeId(0), tx, &ep_b, "frequency", Value::Int(121))
        });
        assert!(result.is_ok(), "{result:?}");
    }

    #[test]
    fn lone_retune_violates_in_healthy_mode() {
        let mut cluster = dtms_cluster(2).unwrap();
        let (ep_a, _) = create_channel(&mut cluster, "ch1", NodeId(0), NodeId(1), 120).unwrap();
        let result = retune(&mut cluster, NodeId(0), &ep_a, 130);
        assert!(matches!(
            result,
            Err(dedisys_types::Error::ConstraintViolated { .. })
        ));
    }

    #[test]
    fn partition_makes_peer_unreachable_and_threat_uncheckable() {
        let mut cluster = dtms_cluster(2).unwrap();
        let (ep_a, ep_b) = create_channel(&mut cluster, "ch1", NodeId(0), NodeId(1), 120).unwrap();
        cluster.partition(&[nodes![0], nodes![1]]).unwrap();
        // The peer endpoint is genuinely unreachable (bound object):
        // NCC — uncheckable — accepted per the constraint policy.
        retune(&mut cluster, NodeId(0), &ep_a, 130).unwrap();
        let threat = &cluster.threats().threats()[0];
        assert_eq!(
            threat.degree,
            dedisys_types::SatisfactionDegree::Uncheckable
        );
        // After repair, reconciliation detects the violation; the
        // operator retunes the peer (immediate reconciliation).
        cluster.heal();
        let ep_b2 = ep_b.clone();
        let mut fix = move |violation: &dedisys_core::ViolationReport,
                            ops: &mut dedisys_core::ReconOps<'_>| {
            assert_eq!(
                violation.identity.constraint.as_str(),
                "ChannelConfigConsistency"
            );
            ops.write(&ep_b2, "frequency", Value::Int(130)).unwrap();
            true
        };
        let summary = cluster.reconcile(&mut dedisys_core::HighestVersionWins, &mut fix);
        assert_eq!(summary.constraints.violations, 1);
        assert_eq!(summary.constraints.resolved_by_handler, 1);
        assert!(cluster.threats().is_empty());
        assert_eq!(
            cluster
                .entity_on(NodeId(1), &ep_b)
                .unwrap()
                .field("frequency"),
            &Value::Int(130)
        );
    }
}
