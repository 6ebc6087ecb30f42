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

/// Tuning of the [`ViewStabilizer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StabilizerConfig {
    /// How long a candidate partitioning must hold before installation.
    pub settle: SimDuration,
    /// Penalty (milli-units) charged per suspicion flip.
    pub flap_penalty_milli: u64,
    /// Penalty decay half-life in virtual time.
    pub half_life: SimDuration,
    /// A node at or above this penalty is suppressed (its connectivity
    /// is frozen at the last stabilized state).
    pub suppress_milli: u64,
    /// A suppressed node is reused once its penalty decays to or below
    /// this value.
    pub reuse_milli: u64,
}

impl Default for StabilizerConfig {
    fn default() -> Self {
        Self {
            settle: SimDuration::from_millis(300),
            flap_penalty_milli: 1000,
            half_life: SimDuration::from_secs(2),
            suppress_milli: 3000,
            reuse_milli: 1500,
        }
    }
}

impl StabilizerConfig {
    /// A do-nothing configuration: no hold window, no damping. Every
    /// raw membership change is emitted immediately — the baseline the
    /// flap-sweep experiment compares against.
    pub fn passthrough() -> Self {
        Self {
            settle: SimDuration::ZERO,
            flap_penalty_milli: 0,
            half_life: SimDuration::from_secs(1),
            suppress_milli: u64::MAX,
            reuse_milli: 0,
        }
    }
}

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
/// crossed into suppression.
#[derive(Debug, Clone)]
pub struct ViewStabilizer {
    config: StabilizerConfig,
    penalties: HashMap<NodeId, Penalty>,
    suppressed: BTreeSet<NodeId>,
    candidate: Option<Vec<BTreeSet<NodeId>>>,
    candidate_since: SimTime,
    stable: Option<Vec<BTreeSet<NodeId>>>,
}

impl ViewStabilizer {
    /// Creates a stabilizer with no installed view yet.
    pub fn new(config: StabilizerConfig) -> Self {
        Self {
            config,
            penalties: HashMap::new(),
            suppressed: BTreeSet::new(),
            candidate: None,
            candidate_since: SimTime::ZERO,
            stable: None,
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &StabilizerConfig {
        &self.config
    }

    /// The last stabilized partitioning, if any was emitted.
    pub fn stable(&self) -> Option<&[BTreeSet<NodeId>]> {
        self.stable.as_deref()
    }

    /// Overwrites the stabilized state (scripted topology changes are
    /// authoritative and bypass the debounce).
    pub fn force_stable(&mut self, partitions: Vec<BTreeSet<NodeId>>) {
        self.stable = Some(partitions);
        self.candidate = None;
    }

    /// Nodes currently suppressed by flap damping.
    pub fn suppressed(&self) -> &BTreeSet<NodeId> {
        &self.suppressed
    }

    /// Current decayed penalty of `node` in milli-units.
    pub fn penalty_milli(&self, node: NodeId, now: SimTime) -> u64 {
        self.penalties
            .get(&node)
            .map(|p| decay(p, now, self.config.half_life))
            .unwrap_or(0)
    }

    /// Charges one suspicion flip to `node` at `now`. Returns `true`
    /// if the node crossed into suppression with this flip.
    pub fn record_flap(&mut self, node: NodeId, now: SimTime) -> bool {
        let half_life = self.config.half_life;
        let entry = self.penalties.entry(node).or_insert(Penalty {
            value_milli: 0,
            updated: now,
        });
        let decayed = decay(entry, now, half_life);
        entry.value_milli = decayed.saturating_add(self.config.flap_penalty_milli);
        entry.updated = now;
        if self.suppressed.contains(&node) {
            return false;
        }
        if entry.value_milli >= self.config.suppress_milli {
            self.suppressed.insert(node);
            return true;
        }
        false
    }

    /// Decays penalties and releases nodes whose penalty dropped to the
    /// reuse threshold. Returns the nodes released at this call.
    pub fn release_due(&mut self, now: SimTime) -> Vec<NodeId> {
        let mut released = Vec::new();
        let reuse = self.config.reuse_milli;
        let half_life = self.config.half_life;
        let suppressed: Vec<NodeId> = self.suppressed.iter().copied().collect();
        for node in suppressed {
            let current = self
                .penalties
                .get(&node)
                .map(|p| decay(p, now, half_life))
                .unwrap_or(0);
            if current <= reuse {
                self.suppressed.remove(&node);
                released.push(node);
            }
        }
        released
    }

    /// Observes a raw partitioning at `now`. Returns the partitioning
    /// once it has survived the settle window and differs from the last
    /// stabilized one.
    pub fn observe(
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
                if now.since(self.candidate_since) >= self.config.settle {
                    self.stable = Some(observed.clone());
                    self.candidate = None;
                    return Some(observed);
                }
                None
            }
            _ => {
                if self.config.settle == SimDuration::ZERO {
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
fn decay(p: &Penalty, now: SimTime, half_life: SimDuration) -> u64 {
    if now <= p.updated || half_life == SimDuration::ZERO {
        return p.value_milli;
    }
    let lives = now.since(p.updated).as_nanos() / half_life.as_nanos().max(1);
    if lives >= 64 {
        0
    } else {
        p.value_milli >> lives
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut s = ViewStabilizer::new(StabilizerConfig {
            settle: SimDuration::from_millis(300),
            ..StabilizerConfig::default()
        });
        s.force_stable(parts(&[&[0, 1, 2]]));
        let split = parts(&[&[0, 1], &[2]]);
        assert!(s.observe(split.clone(), t(0)).is_none(), "just proposed");
        assert!(s.observe(split.clone(), t(100)).is_none(), "still settling");
        assert_eq!(s.observe(split.clone(), t(300)), Some(split));
    }

    #[test]
    fn oscillation_never_stabilizes() {
        let mut s = ViewStabilizer::new(StabilizerConfig {
            settle: SimDuration::from_millis(300),
            ..StabilizerConfig::default()
        });
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
        let mut s = ViewStabilizer::new(StabilizerConfig::passthrough());
        let split = parts(&[&[0], &[1]]);
        assert_eq!(s.observe(split.clone(), t(0)), Some(split));
    }

    #[test]
    fn repeated_flips_suppress_then_decay_releases() {
        let config = StabilizerConfig::default();
        let mut s = ViewStabilizer::new(config);
        assert!(!s.record_flap(NodeId(1), t(0)));
        assert!(!s.record_flap(NodeId(1), t(10)));
        // Third flip reaches 3000 milli = suppress threshold.
        assert!(s.record_flap(NodeId(1), t(20)));
        assert!(s.suppressed().contains(&NodeId(1)));
        // Further flips while suppressed only add to the penalty.
        assert!(!s.record_flap(NodeId(1), t(30)));
        // ~4000 milli decays below reuse (1500) after two half-lives.
        assert!(
            s.release_due(t(30 + 2_000)).is_empty(),
            "one half-life: 2000 > 1500"
        );
        assert_eq!(s.release_due(t(30 + 4_000)), vec![NodeId(1)]);
        assert!(s.suppressed().is_empty());
    }

    #[test]
    fn penalty_decays_by_half_lives() {
        let mut s = ViewStabilizer::new(StabilizerConfig::default());
        s.record_flap(NodeId(0), t(0));
        assert_eq!(s.penalty_milli(NodeId(0), t(0)), 1000);
        assert_eq!(s.penalty_milli(NodeId(0), t(2_000)), 500);
        assert_eq!(s.penalty_milli(NodeId(0), t(4_000)), 250);
        assert_eq!(s.penalty_milli(NodeId(0), t(400_000)), 0);
    }
}
