//! Per-key version histories — the degraded-mode state history.
//!
//! The P4 replication protocol stores intermediate states applied
//! during degraded mode so reconciliation can roll back to a previous
//! consistent state (§4.3). Every state is kept until reconciliation
//! clears the history: the rollback search (§3.3) may need any of them.

use dedisys_types::{SimTime, Version};
use std::collections::HashMap;
use std::sync::Arc;

/// One recorded state of a key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryEntry {
    /// Version of the state.
    pub version: Version,
    /// Serialized state — the record the committing node encoded
    /// once, shared with its journal entries rather than re-encoded.
    pub state: Arc<str>,
    /// Virtual time at which the state was applied.
    pub at: SimTime,
}

/// Version chains for a set of keys.
#[derive(Debug, Clone, Default)]
pub struct VersionHistory {
    chains: HashMap<String, Vec<HistoryEntry>>,
}

impl VersionHistory {
    /// Creates an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a state for `key`, in application order. Versions need
    /// not advance: a replica that missed a version behind one
    /// partition writes that version again behind the next, and the
    /// rollback search tries every recorded state, newest applied
    /// first.
    pub fn record(
        &mut self,
        key: impl Into<String>,
        version: Version,
        state: Arc<str>,
        at: SimTime,
    ) {
        self.chains
            .entry(key.into())
            .or_default()
            .push(HistoryEntry { version, state, at });
    }

    /// The full chain for `key`, oldest applied first.
    pub fn chain(&self, key: &str) -> &[HistoryEntry] {
        self.chains.get(key).map_or(&[], Vec::as_slice)
    }

    /// Total number of retained entries across all keys.
    pub fn total_entries(&self) -> usize {
        self.chains.values().map(Vec::len).sum()
    }

    /// Drops every chain (after successful reconciliation).
    pub fn clear(&mut self) {
        self.chains.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    fn states(h: &VersionHistory, key: &str) -> Vec<String> {
        h.chain(key).iter().map(|e| e.state.to_string()).collect()
    }

    #[test]
    fn full_history_keeps_chains() {
        let mut h = VersionHistory::new();
        h.record("k", Version(1), "s1".into(), t(1));
        h.record("k", Version(2), "s2".into(), t(2));
        assert_eq!(states(&h, "k"), ["s1", "s2"]);
        assert_eq!(h.total_entries(), 2);
    }

    #[test]
    fn repeated_version_is_retained_in_application_order() {
        let mut h = VersionHistory::new();
        h.record("k", Version(2), "a".into(), t(1));
        h.record("k", Version(2), "b".into(), t(2));
        h.record("k", Version(1), "c".into(), t(3));
        assert_eq!(states(&h, "k"), ["a", "b", "c"]);
        assert_eq!(h.chain("k")[1].version, Version(2));
    }

    #[test]
    fn clear_drops_every_chain() {
        let mut h = VersionHistory::new();
        h.record("b", Version(1), "x".into(), t(1));
        h.record("a", Version(1), "y".into(), t(1));
        h.clear();
        assert_eq!(h.total_entries(), 0);
        assert!(h.chain("a").is_empty());
    }
}
