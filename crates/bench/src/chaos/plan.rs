//! Schedules: what a chaos run does, in order.
//!
//! A [`Schedule`] is a list of [`Step`]s, each a workload op or a
//! [`FaultStep`] — "op, op, crash node 2, op". Schedules are either
//! written out explicitly ([`Schedule::with_faults`] places faults
//! before op indices) or generated reproducibly from a seed
//! ([`Schedule::random`]): equal seeds yield equal schedules. An op
//! holds the random draws it took; a run hands back its schedule with
//! every draw recorded, so running that schedule again replays the run
//! exactly, and [`Schedule::shrink`] drops steps of a failing one
//! without re-rolling the draws of the rest.

use dedisys_types::{ChaosRng, NodeId};
use std::collections::BTreeSet;
use std::fmt;

/// One injectable fault (or repair) action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum FaultStep {
    /// Crash a node: volatile state lost, journal kept, topology exit.
    Crash(NodeId),
    /// Restart a crashed node: journal replay + GMS rejoin.
    Restart(NodeId),
    /// Split the live nodes into the given groups.
    Partition(Vec<Vec<NodeId>>),
    /// Repair all connectivity failures (crashed nodes stay down).
    Heal,
    /// The next `failures` replica installs on `node` fail (store
    /// write-failure window) — exercises ship retry/backoff.
    WriteFaultWindow {
        /// The faulty backup.
        node: NodeId,
        /// Consecutive install failures to inject.
        failures: u32,
    },
    /// `node` lags behind the next `updates` propagated updates.
    ReplicaLag {
        /// The lagging backup.
        node: NodeId,
        /// Updates the backup misses.
        updates: u32,
    },
    /// A standing jitter floor on the failure-detector fabric: every
    /// heartbeat is delayed by a deterministic extra in
    /// `0..=micros` µs. Requires the detector pipeline.
    LinkJitter {
        /// Maximum extra heartbeat delay, in microseconds.
        micros: u64,
    },
    /// Repeatedly severs and restores `node`'s physical links, letting
    /// the detector observe every transition — the stabilizer's flap
    /// damping must absorb most of them. Requires the detector
    /// pipeline.
    LinkFlap {
        /// The flapping node.
        node: NodeId,
        /// Down/up cycles.
        flaps: u32,
        /// Virtual time spent in each half-cycle, in milliseconds.
        period_millis: u64,
    },
    /// One-directional heartbeat loss `from → to` while the reverse
    /// direction keeps delivering — the classic asymmetric-failure
    /// detector trap. Requires the detector pipeline.
    AsymmetricLoss {
        /// Sender whose heartbeats are dropped.
        from: NodeId,
        /// Receiver that stops hearing `from`.
        to: NodeId,
        /// Loss rate on the faulty direction (0–1000).
        per_mille: u16,
    },
    /// Tears `node`'s last journal write (checksum corruption) and
    /// crashes it — recovery must truncate the torn tail and
    /// reconciliation must resync the lost state.
    WalTornWrite {
        /// The node whose journal tail is torn.
        node: NodeId,
    },
}

impl fmt::Display for FaultStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultStep::Crash(n) => write!(f, "crash({n})"),
            FaultStep::Restart(n) => write!(f, "restart({n})"),
            FaultStep::Partition(groups) => {
                write!(f, "partition(")?;
                for (i, g) in groups.iter().enumerate() {
                    if i > 0 {
                        write!(f, "|")?;
                    }
                    for (j, n) in g.iter().enumerate() {
                        if j > 0 {
                            write!(f, ",")?;
                        }
                        write!(f, "{n}")?;
                    }
                }
                write!(f, ")")
            }
            FaultStep::Heal => write!(f, "heal"),
            FaultStep::WriteFaultWindow { node, failures } => {
                write!(f, "write_fault({node},{failures})")
            }
            FaultStep::ReplicaLag { node, updates } => {
                write!(f, "replica_lag({node},{updates})")
            }
            FaultStep::LinkJitter { micros } => write!(f, "link_jitter({micros}us)"),
            FaultStep::LinkFlap {
                node,
                flaps,
                period_millis,
            } => write!(f, "link_flap({node},{flaps}x{period_millis}ms)"),
            FaultStep::AsymmetricLoss {
                from,
                to,
                per_mille,
            } => write!(f, "asym_loss({from}->{to},{per_mille}‰)"),
            FaultStep::WalTornWrite { node } => write!(f, "wal_torn({node})"),
        }
    }
}

/// One step of a [`Schedule`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Step {
    /// A workload op. It takes its random draws from this list first,
    /// then from the seed's stream.
    Op(Vec<u64>),
    /// An injected fault (or repair), acting on shard 0.
    Fault(FaultStep),
}

/// What a chaos run does, in order: workload ops and faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Schedule {
    /// The steps, run first to last.
    pub(crate) steps: Vec<Step>,
}

impl Schedule {
    /// `ops` workload ops with no recorded draws, and `faults` placed
    /// among them: `(at, step)` runs before op `at`, or after the last
    /// op when `at >= ops`; faults at one index keep their order.
    pub(crate) fn with_faults(
        ops: u64,
        faults: impl IntoIterator<Item = (u64, FaultStep)>,
    ) -> Self {
        let mut faults: Vec<(u64, FaultStep)> = faults.into_iter().collect();
        faults.sort_by_key(|fault| fault.0);
        let mut faults = faults.into_iter().peekable();
        let mut steps = Vec::new();
        for op in 0..ops {
            while let Some((_, fault)) = faults.next_if(|fault| fault.0 <= op) {
                steps.push(Step::Fault(fault));
            }
            steps.push(Step::Op(Vec::new()));
        }
        steps.extend(faults.map(|(_, fault)| Step::Fault(fault)));
        Self { steps }
    }

    /// Generates a reproducible random schedule: `faults` steps spread
    /// over `ops` workload operations against `nodes` nodes. The
    /// generator tracks which nodes its own schedule has crashed so
    /// restarts target crashed nodes, crashes target live ones, and at
    /// least one node always survives. Every step is one the engine
    /// applies to a cluster without the detector pipeline.
    ///
    /// Equal seeds yield equal schedules within a release; a change to
    /// its draw table re-rolls every classic schedule once and is
    /// recorded in `CHANGELOG.md`.
    pub(crate) fn random(seed: u64, nodes: u32, ops: u64, faults: usize) -> Self {
        let rng = ChaosRng::new(seed);
        Self::with_faults(ops, generate(rng, nodes, ops, faults, classic_draw))
    }

    /// Like [`Schedule::random`], but drawing from the full fault
    /// vocabulary of the adaptive failure-detection pipeline: link
    /// flaps, asymmetric loss, heartbeat jitter and torn journal
    /// writes join the classic crash/partition mix. A separate draw
    /// table (and a perturbed seed stream), so a change to either
    /// table leaves the other generator's schedules byte-identical.
    pub(crate) fn random_adaptive(seed: u64, nodes: u32, ops: u64, faults: usize) -> Self {
        let rng = ChaosRng::new(seed ^ 0xADA7_71FE_0000_5EED);
        Self::with_faults(ops, generate(rng, nodes, ops, faults, adaptive_draw))
    }

    /// Drops runs of steps while `fails` still holds of what is left:
    /// runs half the schedule long first, halving down to single steps.
    /// Returns the shrunk schedule and how many times `fails` ran.
    pub(crate) fn shrink(&self, mut fails: impl FnMut(&Schedule) -> bool) -> (Schedule, u32) {
        let mut kept = self.clone();
        let mut runs = 0;
        let mut len = kept.steps.len().div_ceil(2);
        while len > 0 {
            let mut at = 0;
            while at < kept.steps.len() {
                let end = (at + len).min(kept.steps.len());
                let mut candidate = kept.clone();
                candidate.steps.drain(at..end);
                runs += 1;
                if fails(&candidate) {
                    kept = candidate;
                } else {
                    at = end;
                }
            }
            len /= 2;
        }
        (kept, runs)
    }
}

/// The steps in [`FaultStep`]'s syntax, an op as `op`.
impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, step) in self.steps.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            match step {
                Step::Op(_) => write!(f, "op")?,
                Step::Fault(fault) => write!(f, "{fault}")?,
            }
        }
        Ok(())
    }
}

/// The body both generators share: `faults` sorted op indices, then one
/// `draw` per index against the schedule so far. The crashed set
/// follows the drawn steps, so restarts target crashed nodes and
/// crashes live ones; the tables keep at least one survivor.
fn generate(
    mut rng: ChaosRng,
    nodes: u32,
    ops: u64,
    faults: usize,
    draw: fn(&mut ChaosRng, &SoFar<'_>) -> FaultStep,
) -> Vec<(u64, FaultStep)> {
    let mut crashed: BTreeSet<NodeId> = BTreeSet::new();
    let mut indices: Vec<u64> = (0..faults).map(|_| rng.below(ops.max(1))).collect();
    indices.sort_unstable();
    let mut drawn = Vec::with_capacity(faults);
    for at_op in indices {
        let (down, live): (Vec<NodeId>, Vec<NodeId>) =
            (0..nodes).map(NodeId).partition(|n| crashed.contains(n));
        let step = draw(
            &mut rng,
            &SoFar {
                nodes,
                live: &live,
                crashed: &down,
            },
        );
        match step {
            FaultStep::Crash(node) | FaultStep::WalTornWrite { node } => {
                crashed.insert(node);
            }
            FaultStep::Restart(node) => {
                crashed.remove(&node);
            }
            _ => {}
        }
        drawn.push((at_op, step));
    }
    drawn
}

/// The schedule so far, as a draw table sees it.
struct SoFar<'a> {
    /// Cluster size.
    nodes: u32,
    /// Nodes the plan has not crashed, in id order.
    live: &'a [NodeId],
    /// Nodes the plan has crashed and not restarted, in id order.
    crashed: &'a [NodeId],
}

impl SoFar<'_> {
    /// Any node, crashed or not.
    fn any_node(&self, rng: &mut ChaosRng) -> NodeId {
        NodeId(rng.below(u64::from(self.nodes)) as u32)
    }

    fn write_fault_window(&self, rng: &mut ChaosRng) -> FaultStep {
        FaultStep::WriteFaultWindow {
            node: self.any_node(rng),
            failures: 1 + rng.below(5) as u32,
        }
    }

    fn replica_lag(&self, rng: &mut ChaosRng) -> FaultStep {
        FaultStep::ReplicaLag {
            node: self.any_node(rng),
            updates: 1 + rng.below(3) as u32,
        }
    }
}

/// [`Schedule::random`]'s table.
fn classic_draw(rng: &mut ChaosRng, s: &SoFar<'_>) -> FaultStep {
    match rng.below(100) {
        // Crash a live node (keep at least one survivor).
        0..=19 if s.live.len() > 1 => FaultStep::Crash(*rng.pick(s.live)),
        // Restart a crashed node.
        20..=37 if !s.crashed.is_empty() => FaultStep::Restart(*rng.pick(s.crashed)),
        38..=52 if s.live.len() >= 2 => split(rng, s.live),
        53..=64 => FaultStep::Heal,
        // A lossy ship, then a slow one: the link faults a scripted
        // (detector-less) cluster can feel.
        65..=82 => s.write_fault_window(rng),
        _ => s.replica_lag(rng),
    }
}

/// [`Schedule::random_adaptive`]'s table.
fn adaptive_draw(rng: &mut ChaosRng, s: &SoFar<'_>) -> FaultStep {
    match rng.below(100) {
        // Crash a live node (keep at least one survivor).
        0..=11 if s.live.len() > 1 => FaultStep::Crash(*rng.pick(s.live)),
        // Tear the journal tail, then crash (same survivor rule).
        12..=19 if s.live.len() > 1 => FaultStep::WalTornWrite {
            node: *rng.pick(s.live),
        },
        // Restart a crashed node.
        20..=35 if !s.crashed.is_empty() => FaultStep::Restart(*rng.pick(s.crashed)),
        // Flap a live node's links — the damping stressor.
        36..=49 if s.live.len() > 1 => FaultStep::LinkFlap {
            node: *rng.pick(s.live),
            flaps: 2 + rng.below(4) as u32,
            period_millis: 100 + rng.below(300),
        },
        // One-directional heartbeat loss between two live nodes.
        50..=59 if s.live.len() > 1 => {
            let from = *rng.pick(s.live);
            let rest: Vec<NodeId> = s.live.iter().copied().filter(|n| *n != from).collect();
            FaultStep::AsymmetricLoss {
                from,
                to: *rng.pick(&rest),
                per_mille: 200 + rng.below(700) as u16,
            }
        }
        // Raise (or clear, at 0) the standing heartbeat jitter.
        60..=67 => FaultStep::LinkJitter {
            micros: rng.below(4) * 10_000,
        },
        68..=77 if s.live.len() >= 2 => split(rng, s.live),
        78..=87 => FaultStep::Heal,
        88..=93 => s.write_fault_window(rng),
        _ => s.replica_lag(rng),
    }
}

/// Splits `live` (at least two nodes) into two non-empty groups, one
/// coin flip per node.
fn split(rng: &mut ChaosRng, live: &[NodeId]) -> FaultStep {
    let (mut a, mut b): (Vec<NodeId>, Vec<NodeId>) =
        live.iter().copied().partition(|_| rng.chance(50));
    if a.is_empty() {
        a.push(b.pop().expect("live >= 2"));
    }
    if b.is_empty() {
        b.push(a.pop().expect("live >= 2"));
    }
    FaultStep::Partition(vec![a, b])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The faults of `schedule`, in order.
    fn faults(schedule: &Schedule) -> impl Iterator<Item = &FaultStep> {
        schedule.steps.iter().filter_map(|step| match step {
            Step::Fault(fault) => Some(fault),
            Step::Op(_) => None,
        })
    }

    #[test]
    fn dsl_orders_steps_by_op() {
        let schedule = Schedule::with_faults(
            3,
            [
                (20, FaultStep::Heal),
                (1, FaultStep::Crash(NodeId(1))),
                (1, FaultStep::Restart(NodeId(1))),
            ],
        );
        assert_eq!(schedule.to_string(), "op crash(n1) restart(n1) op op heal");
    }

    #[test]
    fn random_plans_are_seed_reproducible() {
        let a = Schedule::random(99, 4, 200, 24);
        let b = Schedule::random(99, 4, 200, 24);
        assert_eq!(a, b);
        let c = Schedule::random(100, 4, 200, 24);
        assert_ne!(a, c, "different seeds should diverge");
    }

    #[test]
    fn random_plans_never_crash_the_last_node() {
        for seed in 0..50 {
            let schedule = Schedule::random(seed, 3, 100, 30);
            let mut crashed = 0u32;
            for fault in faults(&schedule) {
                match fault {
                    FaultStep::Crash(_) => {
                        crashed += 1;
                        assert!(crashed < 3, "seed {seed} crashed every node");
                    }
                    FaultStep::Restart(_) => crashed -= 1,
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn random_plans_draw_only_steps_a_scripted_cluster_applies() {
        for seed in 0..50 {
            for fault in faults(&Schedule::random(seed, 4, 200, 24)) {
                assert!(
                    matches!(
                        fault,
                        FaultStep::Crash(_)
                            | FaultStep::Restart(_)
                            | FaultStep::Partition(_)
                            | FaultStep::Heal
                            | FaultStep::WriteFaultWindow { .. }
                            | FaultStep::ReplicaLag { .. }
                    ),
                    "seed {seed} drew {fault}, which needs the detector pipeline"
                );
            }
        }
    }

    #[test]
    fn display_is_compact() {
        let s = FaultStep::Partition(vec![vec![NodeId(0), NodeId(1)], vec![NodeId(2)]]);
        assert_eq!(s.to_string(), "partition(n0,n1|n2)");
        assert_eq!(FaultStep::Crash(NodeId(7)).to_string(), "crash(n7)");
        let flap = FaultStep::LinkFlap {
            node: NodeId(2),
            flaps: 3,
            period_millis: 150,
        };
        assert_eq!(flap.to_string(), "link_flap(n2,3x150ms)");
        assert_eq!(
            FaultStep::WalTornWrite { node: NodeId(1) }.to_string(),
            "wal_torn(n1)"
        );
    }

    #[test]
    fn adaptive_plans_are_seed_reproducible_and_distinct() {
        let a = Schedule::random_adaptive(99, 4, 200, 24);
        let b = Schedule::random_adaptive(99, 4, 200, 24);
        assert_eq!(a, b);
        let classic = Schedule::random(99, 4, 200, 24);
        assert_ne!(a, classic, "adaptive schedules draw from their own stream");
    }

    /// Each fault as `<ops before it>:<fault>`.
    fn render(schedule: &Schedule) -> String {
        let mut ops = 0;
        let mut rendered = Vec::new();
        for step in &schedule.steps {
            match step {
                Step::Op(_) => ops += 1,
                Step::Fault(fault) => rendered.push(format!("{ops}:{fault}")),
            }
        }
        rendered.join(" ")
    }

    /// Both generators draw exactly the schedules they drew before
    /// their partition draw became one function: a changed draw table
    /// would re-roll every seed's schedule.
    #[test]
    fn generators_keep_their_schedules() {
        let classic = Schedule::random(99, 4, 200, 24);
        assert_eq!(classic.steps.len(), 224);
        assert_eq!(
            render(&classic),
            "3:replica_lag(n1,2) 7:write_fault(n1,3) 18:write_fault(n0,3) \
             18:partition(n0,n1,n3|n2) 27:heal 35:replica_lag(n0,3) 41:replica_lag(n2,1) \
             43:crash(n3) 52:heal 76:replica_lag(n1,1) 78:restart(n3) 86:replica_lag(n1,3) \
             86:partition(n0|n1,n2,n3) 96:partition(n0,n2|n1,n3) 99:replica_lag(n0,1) \
             112:replica_lag(n3,1) 117:write_fault(n3,4) 140:replica_lag(n2,1) 158:crash(n1) \
             164:crash(n0) 179:replica_lag(n3,1) 186:replica_lag(n0,2) 187:restart(n1) \
             195:restart(n0)"
        );
        assert_eq!(
            render(&Schedule::random_adaptive(99, 4, 200, 24)),
            "7:wal_torn(n3) 18:asym_loss(n2->n1,494‰) 21:link_flap(n1,5x216ms) 22:crash(n1) \
             33:asym_loss(n2->n0,320‰) 39:restart(n3) 46:asym_loss(n2->n3,216‰) \
             60:asym_loss(n0->n2,288‰) 79:restart(n1) 96:partition(n1,n2|n0,n3) \
             98:asym_loss(n1->n0,462‰) 105:replica_lag(n0,3) 111:asym_loss(n2->n3,333‰) \
             114:heal 116:heal 134:write_fault(n2,1) 143:replica_lag(n3,1) \
             143:partition(n3|n0,n1,n2) 148:link_flap(n2,3x355ms) 172:link_jitter(0us) \
             172:crash(n3) 180:wal_torn(n0) 181:heal 196:heal"
        );
    }

    #[test]
    fn both_generators_crash_live_nodes_and_restart_crashed_ones() {
        for seed in 0..50 {
            for schedule in [
                Schedule::random(seed, 4, 200, 40),
                Schedule::random_adaptive(seed, 4, 200, 40),
            ] {
                let mut crashed = BTreeSet::new();
                for fault in faults(&schedule) {
                    match fault {
                        FaultStep::Crash(node) | FaultStep::WalTornWrite { node } => {
                            assert!(crashed.insert(*node), "seed {seed}: {node} crashed twice");
                        }
                        FaultStep::Restart(node) => {
                            assert!(crashed.remove(node), "seed {seed}: {node} was up");
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    #[test]
    fn adaptive_plans_never_crash_the_last_node() {
        for seed in 0..50 {
            let schedule = Schedule::random_adaptive(seed, 3, 100, 30);
            let mut crashed = 0u32;
            for fault in faults(&schedule) {
                match fault {
                    FaultStep::Crash(_) | FaultStep::WalTornWrite { .. } => {
                        crashed += 1;
                        assert!(crashed < 3, "seed {seed} crashed every node");
                    }
                    FaultStep::Restart(_) => crashed -= 1,
                    _ => {}
                }
            }
        }
    }

    /// A stand-in for a failing run: it fails iff a crash of n1 comes
    /// before a heal.
    fn crash_then_heal(schedule: &Schedule) -> bool {
        let mut crashed = false;
        faults(schedule).any(|fault| {
            crashed |= *fault == FaultStep::Crash(NodeId(1));
            crashed && *fault == FaultStep::Heal
        })
    }

    #[test]
    fn shrink_keeps_only_the_steps_the_failure_needs() {
        let schedule = Schedule::with_faults(
            50,
            [
                (3, FaultStep::Heal),
                (7, FaultStep::Crash(NodeId(2))),
                (12, FaultStep::Crash(NodeId(1))),
                (
                    20,
                    FaultStep::Partition(vec![vec![NodeId(0)], vec![NodeId(3)]]),
                ),
                (26, FaultStep::Restart(NodeId(2))),
                (33, FaultStep::Heal),
                (38, FaultStep::Restart(NodeId(1))),
                (
                    41,
                    FaultStep::ReplicaLag {
                        node: NodeId(0),
                        updates: 2,
                    },
                ),
                (
                    45,
                    FaultStep::WriteFaultWindow {
                        node: NodeId(3),
                        failures: 1,
                    },
                ),
                (49, FaultStep::Crash(NodeId(3))),
            ],
        );
        assert_eq!(schedule.steps.len(), 60);
        assert!(crash_then_heal(&schedule));
        let (shrunk, runs) = schedule.shrink(crash_then_heal);
        assert_eq!(shrunk.to_string(), "crash(n1) heal");
        for dropped in 0..2 {
            let mut less = shrunk.clone();
            less.steps.remove(dropped);
            assert!(!crash_then_heal(&less), "the failure needs step {dropped}");
        }
        assert_eq!(runs, 22);
        assert_eq!(schedule.shrink(crash_then_heal), (shrunk, runs));
    }
}
