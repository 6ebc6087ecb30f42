//! Dissertation §3.2's promise, checked after a reconciliation: no
//! integrity violation goes unnoticed. A test file that reconciles
//! includes this module and calls [`assert_kept`] afterwards.

use dedisys_core::Cluster;

/// Panics unless every violation [`Cluster::audit`] finds is explained
/// and, once the topology is whole again, no threat stands whose
/// constraint holds ([`Cluster::stale_threats`]).
pub fn assert_kept(cluster: &Cluster) {
    let lost: Vec<String> = cluster
        .audit()
        .iter()
        .filter(|finding| finding.explanation.is_none())
        .map(ToString::to_string)
        .collect();
    assert!(lost.is_empty(), "unexplained violations: {lost:?}");
    if cluster.topology().is_healthy() {
        let stale = cluster.stale_threats();
        assert!(
            stale.is_empty(),
            "stale threats after a full heal: {stale:?}"
        );
    }
}
