//! Group membership (GMS): scripted topology changes, the
//! detector-driven pipeline with its physical link faults and the
//! system mode of Figure 1.4.

use super::Cluster;
use dedisys_gms::{LinkFault, MembershipSim};
use dedisys_telemetry::{TraceEvent, TransitionCause};
use dedisys_types::{Error, NodeId, ObjectId, Result, SimDuration, SystemMode};
use std::collections::BTreeSet;

impl Cluster {
    /// Splits the network into the given groups of typed node ids
    /// (unmentioned nodes become singletons), installs the new views
    /// and returns the resulting system mode. The [`crate::nodes!`]
    /// macro keeps literal scenarios terse:
    /// `cluster.partition(&[nodes![0, 1], nodes![2]])`. One group of
    /// every node is a repair like [`Cluster::heal`].
    ///
    /// # Errors
    ///
    /// * [`Error::UnknownNode`] — a group names a node outside the
    ///   cluster.
    /// * [`Error::DuplicateNode`] — a node appears in more than one
    ///   group (or twice within one group).
    /// * [`Error::NodeCrashed`] — a crashed node cannot be placed in
    ///   a group; it stays isolated until [`Cluster::restart`].
    pub fn partition(&mut self, groups: &[Vec<NodeId>]) -> Result<SystemMode> {
        let raw = self.raw_groups(groups, true)?;
        self.topology.split(&as_slices(&raw));
        self.install_views();
        self.sync_membership_scripted();
        Ok(self.settle_mode(TransitionCause::Scripted))
    }

    /// Repairs all connectivity failures; the system enters the
    /// reconciliation phase (run [`Cluster::reconcile`] to return to
    /// healthy). Crashed nodes stay isolated — only
    /// [`Cluster::restart`] brings them back. Returns the resulting
    /// system mode.
    pub fn heal(&mut self) -> SystemMode {
        if self.crashed.is_empty() {
            self.topology.heal();
        } else {
            // Reunite only the live nodes; crashed ones remain
            // singleton partitions until they restart.
            let live: Vec<u32> = self.live_nodes().map(|n| n.0).collect();
            self.topology.split(&[&live]);
        }
        self.install_views();
        // A scripted heal repairs the physical layer too — standing
        // link faults would otherwise make detection re-partition the
        // cluster immediately.
        if let Some(membership) = self.membership.as_mut() {
            membership.clear_link_faults();
        }
        self.sync_membership_scripted();
        self.settle_mode(TransitionCause::Scripted)
    }

    /// Installs the mode a topology change leaves the system in
    /// (Figure 1.4): degraded while the network is split or a node is
    /// down, reconciliation once it is whole again with degraded-mode
    /// residue standing, healthy otherwise.
    pub(super) fn settle_mode(&mut self, cause: TransitionCause) -> SystemMode {
        let to = if !self.topology.is_healthy() || !self.crashed.is_empty() {
            SystemMode::Degraded
        } else if self.needs_reconciliation() {
            SystemMode::Reconciliation
        } else {
            SystemMode::Healthy
        };
        self.set_mode(to, cause)
    }

    /// Installs `to` as the system mode, emitting a `mode_transition`
    /// trace event (tagged with who drove it — a scripted call or the
    /// failure-detection pipeline) on actual change. Returns the (new)
    /// current mode.
    pub(super) fn set_mode(&mut self, to: SystemMode, cause: TransitionCause) -> SystemMode {
        let from = self.mode;
        if from != to {
            self.mode = to;
            if cause == TransitionCause::Detector {
                self.telemetry.metrics().incr("gms.detector.transitions");
            }
            self.telemetry
                .emit(|| TraceEvent::ModeTransition { from, to, cause });
        }
        to
    }

    /// Re-aligns the detector pipeline with a scripted topology change
    /// so detection does not "undo" an explicit fault-injection call
    /// while it converges on its own.
    pub(super) fn sync_membership_scripted(&mut self) {
        if let Some(membership) = self.membership.as_mut() {
            for node in self.topology.nodes() {
                membership.set_crashed(node, self.crashed.contains(&node));
            }
            membership.force_partitions(self.topology.partitions());
        }
    }

    /// Whether degraded-mode residue (threats, unsynced replicas)
    /// awaits reconciliation.
    pub fn needs_reconciliation(&self) -> bool {
        !self.ccm.threat_store.is_empty() || !self.replication.degraded_write_map().is_empty()
    }

    /// Whether `object` has degraded-mode writes or missed ships that
    /// the next reconciliation converges — its replicas may disagree
    /// until then.
    pub(crate) fn awaits_reconciliation(&self, object: &ObjectId) -> bool {
        self.replication.is_degraded_tracked(object)
    }

    pub(super) fn install_views(&mut self) {
        for tracker in &mut self.view_trackers {
            tracker.observe(&self.topology);
        }
    }

    /// Whether the detector-driven membership pipeline is running
    /// (`config().membership.detector_enabled`, a build-time field).
    pub fn detector_enabled(&self) -> bool {
        self.membership.is_some()
    }

    /// Live-observer → live-peer suspicions currently standing in the
    /// pipeline (0 when disabled). A healed, quiescent cluster must
    /// converge back to 0.
    pub fn standing_suspicions(&self) -> usize {
        self.membership
            .as_ref()
            .map_or(0, MembershipSim::standing_suspicions)
    }

    /// Severs the physical links *between* the given groups without
    /// telling the cluster — the failure-detection pipeline has to
    /// notice on its own (contrast [`Cluster::partition`], which is
    /// authoritative and instant).
    ///
    /// # Errors
    ///
    /// * [`Error::Config`] — the pipeline is disabled.
    /// * [`Error::UnknownNode`] / [`Error::DuplicateNode`] — malformed
    ///   groups.
    pub fn drop_links(&mut self, groups: &[Vec<NodeId>]) -> Result<()> {
        self.require_membership()?;
        let raw = self.raw_groups(groups, false)?;
        self.require_membership()?.drop_links(&as_slices(&raw));
        Ok(())
    }

    /// Repairs every physical link and clears standing link faults —
    /// detection then converges back to one healthy view (contrast
    /// [`Cluster::heal`], which is authoritative and instant).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] when the pipeline is disabled.
    pub fn heal_links(&mut self) -> Result<()> {
        let membership = self.require_membership()?;
        membership.clear_link_faults();
        membership.heal_links();
        Ok(())
    }

    /// Sets a directed physical link fault (down / deterministic loss
    /// rate / jitter) for the pipeline to detect.
    ///
    /// # Errors
    ///
    /// * [`Error::Config`] — the pipeline is disabled.
    /// * [`Error::UnknownNode`] — an endpoint is outside the cluster.
    pub fn set_link_fault(&mut self, from: NodeId, to: NodeId, fault: LinkFault) -> Result<()> {
        self.check_known(from)?;
        self.check_known(to)?;
        self.require_membership()?.set_link_fault(from, to, fault);
        Ok(())
    }

    /// Sets the default heartbeat jitter on every physical link.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] when the pipeline is disabled.
    pub fn set_default_link_jitter(&mut self, jitter_micros: u64) -> Result<()> {
        self.require_membership()?.set_default_jitter(jitter_micros);
        Ok(())
    }

    /// Runs the membership pipeline up to the current virtual time,
    /// installing each stabilized partitioning before the pipeline runs
    /// on: topology, per-node views, and the mode transition the
    /// paper's replication service would trigger (Figure 1.4), tagged
    /// `cause: detector`. The pipeline reports its own observations on
    /// the cluster's bus. Returns the number of views installed.
    ///
    /// A no-op (returning 0) when the pipeline is disabled.
    pub fn poll_detector(&mut self) -> usize {
        let mut installed = 0;
        while let Some(partitions) = self.membership.as_mut().and_then(MembershipSim::poll) {
            let raw = self
                .raw_groups(&partitions, false)
                .expect("a stabilized view names known nodes, each at most once");
            self.topology.split(&as_slices(&raw));
            self.install_views();
            self.settle_mode(TransitionCause::Detector);
            installed += 1;
        }
        installed
    }

    /// Advances the shared clock by `duration` and then polls the
    /// detector ([`Cluster::poll_detector`]). Returns the number of
    /// stabilized views installed.
    pub fn run_detector_for(&mut self, duration: SimDuration) -> usize {
        self.clock.advance(duration);
        self.poll_detector()
    }

    /// The pipeline, or the one error every physical-fault call
    /// returns on a cluster built without it.
    fn require_membership(&mut self) -> Result<&mut MembershipSim> {
        self.membership.as_mut().ok_or_else(|| {
            Error::Config(
                "detector pipeline disabled; build the cluster with \
                 config().membership.detector_enabled = true"
                    .into(),
            )
        })
    }

    /// Typed node groups in the raw form
    /// [`dedisys_net::Topology::split`] and [`MembershipSim::drop_links`]
    /// take, after the check both assert: every node is known and named
    /// once. `live_only` also refuses crashed nodes.
    fn raw_groups<'a, G>(&self, groups: &'a [G], live_only: bool) -> Result<Vec<Vec<u32>>>
    where
        &'a G: IntoIterator<Item = &'a NodeId>,
    {
        let mut seen: BTreeSet<NodeId> = BTreeSet::new();
        let mut raw = Vec::with_capacity(groups.len());
        for group in groups {
            for &node in group {
                self.check_known(node)?;
                if !seen.insert(node) {
                    return Err(Error::DuplicateNode(node));
                }
                if live_only && self.crashed.contains(&node) {
                    return Err(Error::NodeCrashed(node));
                }
            }
            raw.push(group.into_iter().map(|node| node.0).collect());
        }
        Ok(raw)
    }
}

fn as_slices(raw: &[Vec<u32>]) -> Vec<&[u32]> {
    raw.iter().map(Vec::as_slice).collect()
}
