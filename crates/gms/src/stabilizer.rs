//! View stabilization: hysteresis and flap damping between raw
//! suspicion and installed membership views.
//!
//! Raw suspicion output is noisy — a single lost heartbeat burst can
//! suspect-then-clear a peer within two check intervals, and a flapping
//! link does so periodically. Installing a view (and with it a
//! [`SystemMode`](dedisys_types::SystemMode) transition, replica
//! regrouping and possibly a reconciliation round) on every wiggle is
//! exactly the pathology BGP route damping addresses, so the stabilizer
//! borrows that design:
//!
//! * **Hysteresis**: a proposed partitioning must survive unchanged for
//!   a settle window before it is emitted as stabilized.
//! * **Flap damping**: every suspicion flip charges the flapping node a
//!   penalty that decays with a half-life in virtual time. Above the
//!   suppress threshold the node's connectivity changes are frozen
//!   (held at the last stabilized state) until the penalty decays below
//!   the reuse threshold.
//!
//! All arithmetic is integer (penalties in milli-units, decay by whole
//! half-lives), keeping same-seed runs bit-identical.

use dedisys_types::{NodeId, SimDuration, SimTime};
use std::collections::{BTreeSet, HashMap};

/// Penalty (milli-units) charged per suspicion flip.
const FLAP_PENALTY_MILLI: u64 = 1000;

/// Penalty decay half-life in virtual time.
const HALF_LIFE: SimDuration = SimDuration::from_secs(2);

/// A node at or above this penalty is suppressed (its connectivity is
/// frozen at the last stabilized state).
const SUPPRESS_MILLI: u64 = 3000;

/// A suppressed node is reused once its penalty decays to or below
/// this value.
const REUSE_MILLI: u64 = 1500;

/// Decaying per-node flap penalty.
#[derive(Debug, Clone, Copy)]
struct Penalty {
    value_milli: u64,
    updated: SimTime,
}

/// Debounces raw membership observations into stabilized views.
///
/// Feed every raw partitioning through [`ViewStabilizer::observe`];
/// it returns `Some(partitioning)` only when a *new* partitioning has
/// survived the settle window. Suspicion flips are reported through
/// [`ViewStabilizer::record_flap`], which answers whether the node just
/// crossed into suppression. A zero settle window turns both off:
/// every raw change is emitted at once and no flip is damped.
#[derive(Debug, Clone)]
pub(crate) struct ViewStabilizer {
    settle: SimDuration,
    penalties: HashMap<NodeId, Penalty>,
    suppressed: BTreeSet<NodeId>,
    candidate: Option<Vec<BTreeSet<NodeId>>>,
    candidate_since: SimTime,
    stable: Option<Vec<BTreeSet<NodeId>>>,
}

impl ViewStabilizer {
    /// Creates a stabilizer with no installed view yet that holds a
    /// candidate for `settle` before emitting it.
    pub(crate) fn new(settle: SimDuration) -> Self {
        Self {
            settle,
            penalties: HashMap::new(),
            suppressed: BTreeSet::new(),
            candidate: None,
            candidate_since: SimTime::ZERO,
            stable: None,
        }
    }

    /// The last stabilized partitioning, if any was emitted.
    pub(crate) fn stable(&self) -> Option<&[BTreeSet<NodeId>]> {
        self.stable.as_deref()
    }

    /// Overwrites the stabilized state (scripted topology changes are
    /// authoritative and bypass the debounce).
    pub(crate) fn force_stable(&mut self, partitions: Vec<BTreeSet<NodeId>>) {
        self.stable = Some(partitions);
        self.candidate = None;
    }

    /// Nodes currently suppressed by flap damping.
    pub(crate) fn suppressed(&self) -> &BTreeSet<NodeId> {
        &self.suppressed
    }

    /// Current decayed penalty of `node` in milli-units.
    pub(crate) fn penalty_milli(&self, node: NodeId, now: SimTime) -> u64 {
        self.penalties
            .get(&node)
            .map(|p| decay(p, now))
            .unwrap_or(0)
    }

    /// Charges one suspicion flip to `node` at `now`. Returns `true`
    /// if the node crossed into suppression with this flip. With a zero
    /// settle window nothing is charged.
    pub(crate) fn record_flap(&mut self, node: NodeId, now: SimTime) -> bool {
        if self.settle == SimDuration::ZERO {
            return false;
        }
        let entry = self.penalties.entry(node).or_insert(Penalty {
            value_milli: 0,
            updated: now,
        });
        entry.value_milli = decay(entry, now).saturating_add(FLAP_PENALTY_MILLI);
        entry.updated = now;
        if self.suppressed.contains(&node) {
            return false;
        }
        if entry.value_milli >= SUPPRESS_MILLI {
            self.suppressed.insert(node);
            return true;
        }
        false
    }

    /// Decays penalties and releases nodes whose penalty dropped to the
    /// reuse threshold.
    pub(crate) fn release_due(&mut self, now: SimTime) {
        let penalties = &self.penalties;
        self.suppressed
            .retain(|node| penalties.get(node).map_or(0, |p| decay(p, now)) > REUSE_MILLI);
    }

    /// Observes a raw partitioning at `now`. Returns the partitioning
    /// once it has survived the settle window and differs from the last
    /// stabilized one.
    pub(crate) fn observe(
        &mut self,
        observed: Vec<BTreeSet<NodeId>>,
        now: SimTime,
    ) -> Option<Vec<BTreeSet<NodeId>>> {
        if Some(&observed) == self.stable.as_ref() {
            self.candidate = None;
            return None;
        }
        match &self.candidate {
            Some(candidate) if *candidate == observed => {
                if now.since(self.candidate_since) >= self.settle {
                    self.stable = Some(observed.clone());
                    self.candidate = None;
                    return Some(observed);
                }
                None
            }
            _ => {
                if self.settle == SimDuration::ZERO {
                    self.stable = Some(observed.clone());
                    self.candidate = None;
                    return Some(observed);
                }
                self.candidate = Some(observed);
                self.candidate_since = now;
                None
            }
        }
    }
}

/// Penalty after decaying by the whole half-lives elapsed since its
/// last update (integer shift — deterministic, monotone).
fn decay(p: &Penalty, now: SimTime) -> u64 {
    if now <= p.updated {
        return p.value_milli;
    }
    let lives = now.since(p.updated).as_nanos() / HALF_LIFE.as_nanos();
    if lives >= 64 {
        0
    } else {
        p.value_milli >> lives
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cluster's default settle window.
    const SETTLE: SimDuration = SimDuration::from_millis(300);

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    fn parts(groups: &[&[u32]]) -> Vec<BTreeSet<NodeId>> {
        groups
            .iter()
            .map(|g| g.iter().map(|&n| NodeId(n)).collect())
            .collect()
    }

    #[test]
    fn candidate_must_survive_settle_window() {
        let mut s = ViewStabilizer::new(SETTLE);
        s.force_stable(parts(&[&[0, 1, 2]]));
        let split = parts(&[&[0, 1], &[2]]);
        assert!(s.observe(split.clone(), t(0)).is_none(), "just proposed");
        assert!(s.observe(split.clone(), t(100)).is_none(), "still settling");
        assert_eq!(s.observe(split.clone(), t(300)), Some(split));
    }

    #[test]
    fn oscillation_never_stabilizes() {
        let mut s = ViewStabilizer::new(SETTLE);
        s.force_stable(parts(&[&[0, 1]]));
        let split = parts(&[&[0], &[1]]);
        let whole = parts(&[&[0, 1]]);
        for i in 0..10 {
            assert!(s.observe(split.clone(), t(i * 200)).is_none());
            assert!(s.observe(whole.clone(), t(i * 200 + 100)).is_none());
        }
        assert_eq!(s.stable(), Some(&whole[..]));
    }

    #[test]
    fn passthrough_emits_immediately() {
        let mut s = ViewStabilizer::new(SimDuration::ZERO);
        let split = parts(&[&[0], &[1]]);
        assert_eq!(s.observe(split.clone(), t(0)), Some(split));
        // ... and damps nothing.
        for ms in 0..5 {
            assert!(!s.record_flap(NodeId(1), t(ms)));
        }
        assert!(s.suppressed().is_empty());
    }

    #[test]
    fn repeated_flips_suppress_then_decay_releases() {
        let mut s = ViewStabilizer::new(SETTLE);
        assert!(!s.record_flap(NodeId(1), t(0)));
        assert!(!s.record_flap(NodeId(1), t(10)));
        // Third flip reaches 3000 milli = suppress threshold.
        assert!(s.record_flap(NodeId(1), t(20)));
        assert!(s.suppressed().contains(&NodeId(1)));
        // Further flips while suppressed only add to the penalty.
        assert!(!s.record_flap(NodeId(1), t(30)));
        // ~4000 milli decays below reuse (1500) after two half-lives.
        s.release_due(t(30 + 2_000));
        assert!(
            s.suppressed().contains(&NodeId(1)),
            "one half-life: 2000 > 1500"
        );
        s.release_due(t(30 + 4_000));
        assert!(s.suppressed().is_empty());
    }

    #[test]
    fn penalty_decays_by_half_lives() {
        let mut s = ViewStabilizer::new(SETTLE);
        s.record_flap(NodeId(0), t(0));
        assert_eq!(s.penalty_milli(NodeId(0), t(0)), 1000);
        assert_eq!(s.penalty_milli(NodeId(0), t(2_000)), 500);
        assert_eq!(s.penalty_milli(NodeId(0), t(4_000)), 250);
        assert_eq!(s.penalty_milli(NodeId(0), t(400_000)), 0);
    }
}
