//! Membership views and per-node view tracking.

use dedisys_net::Topology;
use dedisys_telemetry::{Telemetry, TraceEvent};
use dedisys_types::{NodeId, ViewId};
use std::collections::BTreeSet;
use std::fmt;

/// An installed membership view: the set of nodes a given node can
/// currently communicate with (including itself), stamped with a
/// monotonically increasing view id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct View {
    id: ViewId,
    members: BTreeSet<NodeId>,
}

impl View {
    /// Creates a view.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty — a node is always a member of its
    /// own view.
    pub fn new(id: ViewId, members: BTreeSet<NodeId>) -> Self {
        assert!(!members.is_empty(), "a view must have at least one member");
        Self { id, members }
    }

    /// The view id.
    pub fn id(&self) -> ViewId {
        self.id
    }

    /// The member set.
    pub fn members(&self) -> &BTreeSet<NodeId> {
        &self.members
    }

    /// Whether `node` is a member of this view.
    pub fn contains(&self, node: NodeId) -> bool {
        self.members.contains(&node)
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.members.len()
    }
}

impl fmt::Display for View {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{{", self.id)?;
        for (i, m) in self.members.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{m}")?;
        }
        write!(f, "}}")
    }
}

/// Tracks the view of a single node across topology changes.
///
/// The tracker polls the topology's epoch; when the node's membership
/// changed, a new view is installed and a `view_change` event (who
/// joined, who left) goes out on the cluster's bus — the synchronous
/// equivalent of the GMS notification in Figure 4.6. Nodes joining is
/// the merge that triggers the reconciliation phase (§4.4).
#[derive(Debug, Clone)]
pub struct ViewTracker {
    node: NodeId,
    current: View,
    last_epoch: u64,
    telemetry: Telemetry,
}

impl ViewTracker {
    /// Creates a tracker for `node` reporting on `telemetry`,
    /// installing the initial view from the current topology.
    pub fn new(node: NodeId, topology: &Topology, telemetry: Telemetry) -> Self {
        let members = topology.reachable_from(node);
        Self {
            node,
            current: View::new(ViewId(0), members),
            last_epoch: topology.epoch(),
            telemetry,
        }
    }

    /// The currently installed view.
    pub fn current(&self) -> &View {
        &self.current
    }

    /// Observes the topology; if its epoch advanced and the membership
    /// actually changed, installs the next view and emits its
    /// `view_change`.
    pub fn observe(&mut self, topology: &Topology) {
        if topology.epoch() == self.last_epoch {
            return;
        }
        self.last_epoch = topology.epoch();
        let members = topology.reachable_from(self.node);
        let old = self.current.members();
        if members == *old {
            return;
        }
        let joined = members.difference(old).count() as u32;
        let left = old.difference(&members).count() as u32;
        self.current = View::new(self.current.id().next(), members);
        self.telemetry.emit(|| TraceEvent::ViewChange {
            node: self.node,
            view: self.current.id(),
            members: self.current.size() as u32,
            joined,
            left,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dedisys_net::SimClock;
    use dedisys_telemetry::RingRecorder;

    #[test]
    fn view_basics() {
        let v = View::new(ViewId(1), BTreeSet::from([NodeId(2), NodeId(0)]));
        assert_eq!(v.size(), 2);
        assert!(v.contains(NodeId(0)));
        assert_eq!(v.members.first(), Some(&NodeId(0)));
        assert_eq!(v.to_string(), "v1{n0,n2}");
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_view_rejected() {
        View::new(ViewId(0), BTreeSet::new());
    }

    /// A bus with a recorder attached, for the tracker to report on.
    fn bus() -> (Telemetry, RingRecorder) {
        let telemetry = Telemetry::new(SimClock::new());
        let ring = RingRecorder::new(16);
        telemetry.attach(Box::new(ring.clone()));
        (telemetry, ring)
    }

    /// `(joined, left)` of every `view_change` the recorder saw.
    fn changes(ring: &RingRecorder) -> Vec<(u32, u32)> {
        ring.records()
            .into_iter()
            .filter_map(|r| match r.event {
                TraceEvent::ViewChange { joined, left, .. } => Some((joined, left)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn tracker_detects_degradation_and_merge() {
        let (telemetry, ring) = bus();
        let mut topo = Topology::fully_connected(3);
        let mut tracker = ViewTracker::new(NodeId(1), &topo, telemetry);
        assert_eq!(tracker.current().size(), 3);

        topo.split(&[&[0], &[1, 2]]);
        tracker.observe(&topo);
        assert_eq!(changes(&ring), [(0, 1)]);
        assert_eq!(
            tracker.current().members(),
            &BTreeSet::from([NodeId(1), NodeId(2)])
        );
        assert_eq!(tracker.current().id(), ViewId(1));

        topo.heal();
        tracker.observe(&topo);
        assert_eq!(changes(&ring), [(0, 1), (1, 0)]);
        assert!(tracker.current().contains(NodeId(0)));
        assert_eq!(tracker.current().id(), ViewId(2));
    }

    #[test]
    fn tracker_ignores_irrelevant_changes() {
        let (telemetry, ring) = bus();
        let mut topo = Topology::fully_connected(4);
        let mut tracker = ViewTracker::new(NodeId(0), &topo, telemetry);
        topo.split(&[&[0, 1], &[2, 3]]);
        tracker.observe(&topo);
        assert_eq!(changes(&ring), [(0, 2)]);
        // Splitting the *other* partition does not change n0's view.
        topo.split(&[&[0, 1], &[2], &[3]]);
        tracker.observe(&topo);
        assert_eq!(changes(&ring).len(), 1);
        assert_eq!(tracker.current().id(), ViewId(1));
    }

    #[test]
    fn tracker_no_change_without_epoch_advance() {
        let (telemetry, ring) = bus();
        let topo = Topology::fully_connected(2);
        let mut tracker = ViewTracker::new(NodeId(0), &topo, telemetry);
        tracker.observe(&topo);
        assert!(ring.is_empty());
        assert_eq!(tracker.current().id(), ViewId(0));
    }
}
