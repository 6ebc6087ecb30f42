//! Node weights for partition-sensitive constraints (§5.5.2).
//!
//! Similar to Gifford's weighted voting, every server node carries a
//! weight; the GMS exposes the weight of the current partition relative
//! to the whole system so applications can partition data (e.g. the
//! remaining tickets of a flight) proportionally during degraded mode.

use dedisys_types::NodeId;
use std::collections::BTreeSet;

/// Per-node weights.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeWeights {
    weights: Vec<u32>,
}

impl NodeWeights {
    /// Every node carries weight 1.
    pub fn uniform(node_count: u32) -> Self {
        Self {
            weights: vec![1; node_count as usize],
        }
    }

    /// Explicit weights; index = node id.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or the total weight is zero.
    pub fn explicit(weights: Vec<u32>) -> Self {
        assert!(!weights.is_empty(), "need at least one node weight");
        assert!(
            weights.iter().any(|&w| w > 0),
            "total system weight must be positive"
        );
        Self { weights }
    }

    /// Number of nodes covered.
    pub fn node_count(&self) -> u32 {
        self.weights.len() as u32
    }

    /// Weight of a single node (zero for unknown nodes).
    pub fn weight_of(&self, node: NodeId) -> u32 {
        self.weights.get(node.index()).copied().unwrap_or(0)
    }

    /// Total system weight.
    pub fn total(&self) -> u32 {
        self.weights.iter().sum()
    }

    /// Combined weight of a partition (set of nodes).
    pub fn partition_weight<'a>(&self, members: impl IntoIterator<Item = &'a NodeId>) -> u32 {
        members.into_iter().map(|&n| self.weight_of(n)).sum()
    }

    /// Fraction of the total system weight held by `members` — the
    /// value provided to partition-sensitive constraints.
    pub fn partition_fraction(&self, members: &BTreeSet<NodeId>) -> f64 {
        f64::from(self.partition_weight(members)) / f64::from(self.total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> BTreeSet<NodeId> {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn uniform_weights() {
        let w = NodeWeights::uniform(4);
        assert_eq!(w.total(), 4);
        assert_eq!(w.partition_weight(&set(&[0, 2])), 2);
        assert!((w.partition_fraction(&set(&[0, 2])) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn explicit_weights() {
        let w = NodeWeights::explicit(vec![3, 1, 1]);
        assert_eq!(w.total(), 5);
        assert_eq!(w.weight_of(NodeId(0)), 3);
        assert_eq!(w.weight_of(NodeId(9)), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_total_weight_rejected() {
        NodeWeights::explicit(vec![0, 0]);
    }
}
