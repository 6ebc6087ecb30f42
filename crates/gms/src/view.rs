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

/// The difference between two consecutive views.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewChange {
    /// The previous view.
    pub old: View,
    /// The newly installed view.
    pub new: View,
    /// Nodes present in `new` but not in `old` (re-joins / recoveries):
    /// when not empty, the change re-unifies split partitions — the
    /// trigger for the reconciliation phase (§4.4).
    pub joined: BTreeSet<NodeId>,
    /// Nodes present in `old` but not in `new` (crashes / partitions).
    pub left: BTreeSet<NodeId>,
}

/// Tracks the view of a single node across topology changes.
///
/// The tracker polls the topology's epoch; when it changed, a new view
/// is installed and the [`ViewChange`] is reported — the synchronous
/// equivalent of the GMS notification in Figure 4.6.
#[derive(Debug, Clone)]
pub struct ViewTracker {
    node: NodeId,
    current: View,
    last_epoch: u64,
    telemetry: Option<Telemetry>,
}

impl ViewTracker {
    /// Creates a tracker for `node`, installing the initial view from
    /// the current topology.
    pub fn new(node: NodeId, topology: &Topology) -> Self {
        let members = topology.reachable_from(node);
        Self {
            node,
            current: View::new(ViewId(0), members),
            last_epoch: topology.epoch(),
            telemetry: None,
        }
    }

    /// Wires a telemetry bus; `view_change` events are emitted on each
    /// installed view from now on.
    pub fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = Some(telemetry);
    }

    /// The node this tracker belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The currently installed view.
    pub fn current(&self) -> &View {
        &self.current
    }

    /// Observes the topology; if its epoch advanced and the membership
    /// actually changed, installs the next view and returns the change.
    pub fn observe(&mut self, topology: &Topology) -> Option<ViewChange> {
        if topology.epoch() == self.last_epoch {
            return None;
        }
        self.last_epoch = topology.epoch();
        let members = topology.reachable_from(self.node);
        if members == *self.current.members() {
            return None;
        }
        let old = self.current.clone();
        let new = View::new(old.id().next(), members);
        let joined = new.members().difference(old.members()).copied().collect();
        let left = old.members().difference(new.members()).copied().collect();
        self.current = new.clone();
        let change = ViewChange {
            old,
            new,
            joined,
            left,
        };
        if let Some(t) = &self.telemetry {
            t.emit(|| TraceEvent::ViewChange {
                node: self.node,
                view: change.new.id(),
                members: change.new.size() as u32,
                joined: change.joined.len() as u32,
                left: change.left.len() as u32,
            });
        }
        Some(change)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn tracker_detects_degradation_and_merge() {
        let mut topo = Topology::fully_connected(3);
        let mut tracker = ViewTracker::new(NodeId(1), &topo);
        assert_eq!(tracker.current().size(), 3);

        topo.split(&[&[0], &[1, 2]]);
        let change = tracker.observe(&topo).unwrap();
        assert!(change.joined.is_empty());
        assert_eq!(change.left, BTreeSet::from([NodeId(0)]));
        assert_eq!(tracker.current().id(), ViewId(1));

        topo.heal();
        let change = tracker.observe(&topo).unwrap();
        assert!(change.left.is_empty());
        assert_eq!(change.joined, BTreeSet::from([NodeId(0)]));
        assert_eq!(tracker.current().id(), ViewId(2));
    }

    #[test]
    fn tracker_ignores_irrelevant_changes() {
        let mut topo = Topology::fully_connected(4);
        let mut tracker = ViewTracker::new(NodeId(0), &topo);
        topo.split(&[&[0, 1], &[2, 3]]);
        assert!(tracker.observe(&topo).is_some());
        // Splitting the *other* partition does not change n0's view.
        topo.split(&[&[0, 1], &[2], &[3]]);
        assert!(tracker.observe(&topo).is_none());
    }

    #[test]
    fn tracker_no_change_without_epoch_advance() {
        let topo = Topology::fully_connected(2);
        let mut tracker = ViewTracker::new(NodeId(0), &topo);
        assert!(tracker.observe(&topo).is_none());
    }
}
