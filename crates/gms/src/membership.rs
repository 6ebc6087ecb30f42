//! The adaptive membership pipeline: per-link heartbeat observation →
//! suspicion (fixed or φ-accrual) → flap damping / hysteresis →
//! stabilized partitionings.
//!
//! [`MembershipSim`] owns the *physical* connectivity (what links are
//! actually up, how lossy and how jittery they are) separately from
//! whatever topology the cluster has *installed*. Scripted failure
//! injection ([`MembershipSim::force_partitions`]) remains
//! authoritative and bypasses detection; fault injection on links
//! ([`MembershipSim::drop_links`], [`MembershipSim::set_link_fault`])
//! only changes the physical layer and lets suspicion do the work —
//! the path every real deployment takes into degraded mode.
//!
//! The pipeline reports on the cluster's bus as it goes —
//! `suspicion_raised`, `suspicion_cleared`, `flap_damped`,
//! `view_stabilized` and their `gms.detector.*` counters — and hands
//! each stabilized partitioning back to the cluster to install.
//!
//! Everything runs on the shared virtual clock with a seeded
//! [`ChaosRng`] stream for loss/jitter draws, so same-seed runs are
//! bit-identical.

use crate::adaptive::{AdaptiveDetector, DetectorKind};
use crate::stabilizer::ViewStabilizer;
use dedisys_net::{SimClock, Topology};
use dedisys_telemetry::{Telemetry, TraceEvent};
use dedisys_types::{ChaosRng, NodeId, SimDuration, SimTime};
use std::collections::{BTreeSet, HashMap};

/// Per-directed-link physical fault state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkFault {
    /// The link delivers nothing while down.
    pub down: bool,
    /// Deterministic heartbeat loss rate (0–1000).
    pub loss_per_mille: u16,
    /// Uniform extra delivery delay in `0..=jitter_micros`.
    pub jitter_micros: u64,
}

/// Interval between heartbeats.
const HEARTBEAT_INTERVAL: SimDuration = SimDuration::from_millis(100);

/// One-way heartbeat latency before jitter.
const BASE_LATENCY: SimDuration = SimDuration::from_micros(500);

/// The failure-detection and view-stabilization pipeline over every
/// node, sharing the cluster's virtual clock.
#[derive(Debug)]
pub struct MembershipSim {
    kind: DetectorKind,
    clock: SimClock,
    telemetry: Telemetry,
    node_count: u32,
    physical: Topology,
    faults: HashMap<(NodeId, NodeId), LinkFault>,
    default_jitter_micros: u64,
    rng: ChaosRng,
    /// Keyed `(observer, peer)` — the observer's accrual window for
    /// that peer (also carries last-heard for the fixed detector).
    detectors: HashMap<(NodeId, NodeId), AdaptiveDetector>,
    suspected: HashMap<NodeId, BTreeSet<NodeId>>,
    crashed: BTreeSet<NodeId>,
    stabilizer: ViewStabilizer,
    next_tick: SimTime,
}

impl MembershipSim {
    /// Creates the pipeline over `node_count` nodes sharing `clock` and
    /// reporting on `telemetry`: `kind` suspects per link, a partitioning
    /// must hold for `settle` before it is stabilized (zero: at once,
    /// and no flap damping), and `seed` drives the loss/jitter draws.
    pub fn new(
        node_count: u32,
        kind: DetectorKind,
        settle: SimDuration,
        seed: u64,
        clock: SimClock,
        telemetry: Telemetry,
    ) -> Self {
        let now = clock.now();
        let mut detectors = HashMap::new();
        for a in 0..node_count {
            for b in 0..node_count {
                if a != b {
                    let mut d = AdaptiveDetector::default();
                    d.mark_heard(now);
                    detectors.insert((NodeId(a), NodeId(b)), d);
                }
            }
        }
        let all: BTreeSet<NodeId> = (0..node_count).map(NodeId).collect();
        let mut stabilizer = ViewStabilizer::new(settle);
        stabilizer.force_stable(vec![all]);
        let next_tick = now + HEARTBEAT_INTERVAL;
        Self {
            kind,
            clock,
            telemetry,
            node_count,
            physical: Topology::fully_connected(node_count),
            faults: HashMap::new(),
            default_jitter_micros: 0,
            // `^ GAMMA` is part of the stream's definition: the flap-sweep
            // tables and `--detector` traces the receipts pin depend on it.
            rng: ChaosRng::new(seed ^ ChaosRng::GAMMA),
            detectors,
            suspected: (0..node_count)
                .map(|n| (NodeId(n), BTreeSet::new()))
                .collect(),
            crashed: BTreeSet::new(),
            stabilizer,
            next_tick,
        }
    }

    /// Total number of standing raw suspicions held by live nodes
    /// against live nodes — zero on a healed, quiescent system.
    pub fn standing_suspicions(&self) -> usize {
        self.suspected
            .iter()
            .filter(|(observer, _)| !self.crashed.contains(observer))
            .map(|(_, suspects)| {
                suspects
                    .iter()
                    .filter(|s| !self.crashed.contains(s))
                    .count()
            })
            .sum()
    }

    /// Severs the physical links between the given groups (nodes not
    /// mentioned become singletons), leaving detection to notice.
    pub fn drop_links(&mut self, groups: &[&[u32]]) {
        self.physical.split(groups);
    }

    /// Physically restores every link (suspicion clears as heartbeats
    /// come back).
    pub fn heal_links(&mut self) {
        self.physical.heal();
    }

    /// Sets the fault state of the directed link `from → to`.
    pub fn set_link_fault(&mut self, from: NodeId, to: NodeId, fault: LinkFault) {
        if fault == LinkFault::default() {
            self.faults.remove(&(from, to));
        } else {
            self.faults.insert((from, to), fault);
        }
    }

    /// Applies `jitter_micros` of delivery jitter to every link that
    /// has no explicit per-link fault entry.
    pub fn set_default_jitter(&mut self, jitter_micros: u64) {
        self.default_jitter_micros = jitter_micros;
    }

    /// Clears every per-link fault and the default jitter.
    pub fn clear_link_faults(&mut self) {
        self.faults.clear();
        self.default_jitter_micros = 0;
    }

    /// Marks `node` crashed (it stops emitting and observing) or
    /// restarted.
    pub fn set_crashed(&mut self, node: NodeId, crashed: bool) {
        if crashed {
            self.crashed.insert(node);
        } else {
            self.crashed.remove(&node);
        }
    }

    /// Installs a scripted partitioning authoritatively: physical
    /// connectivity, raw suspicion and the stabilized view all jump to
    /// `partitions` immediately (the GMS has spoken; detection resumes
    /// from this state).
    pub fn force_partitions(&mut self, partitions: &[BTreeSet<NodeId>]) {
        let now = self.clock.now();
        let groups: Vec<Vec<u32>> = partitions
            .iter()
            .map(|p| p.iter().map(|n| n.0).collect())
            .collect();
        let refs: Vec<&[u32]> = groups.iter().map(|g| g.as_slice()).collect();
        self.physical.split(&refs);
        for a in 0..self.node_count {
            let a = NodeId(a);
            let mut suspects = BTreeSet::new();
            for b in 0..self.node_count {
                let b = NodeId(b);
                if a == b {
                    continue;
                }
                if self.physical.reachable(a, b) {
                    self.detectors
                        .get_mut(&(a, b))
                        .expect("pair present")
                        .mark_heard(now);
                } else {
                    suspects.insert(b);
                }
            }
            self.suspected.insert(a, suspects);
        }
        self.stabilizer.force_stable(partitions.to_vec());
    }

    /// Runs the heartbeat ticks due up to `self.clock.now()` (the clock
    /// itself is owned by the cluster and not advanced here), stopping
    /// right after a tick that stabilizes a view: returns that
    /// partitioning for the caller to install before it polls again,
    /// `None` once every due tick has run. What each tick observes goes
    /// out on the bus as it happens.
    pub fn poll(&mut self) -> Option<Vec<BTreeSet<NodeId>>> {
        let now = self.clock.now();
        while self.next_tick <= now {
            let t = self.next_tick;
            self.next_tick = t + HEARTBEAT_INTERVAL;
            if let Some(partitions) = self.tick(t) {
                return Some(partitions);
            }
        }
        None
    }

    fn link_fault(&self, from: NodeId, to: NodeId) -> LinkFault {
        self.faults.get(&(from, to)).copied().unwrap_or(LinkFault {
            down: false,
            loss_per_mille: 0,
            jitter_micros: self.default_jitter_micros,
        })
    }

    /// One heartbeat round at `t`; returns the partitioning it
    /// stabilized, if any.
    fn tick(&mut self, t: SimTime) -> Option<Vec<BTreeSet<NodeId>>> {
        // 1. Heartbeat exchange: every live sender to every live peer,
        //    in fixed (sender, receiver) order so the draw stream is
        //    deterministic.
        for a in 0..self.node_count {
            let from = NodeId(a);
            if self.crashed.contains(&from) {
                continue;
            }
            for b in 0..self.node_count {
                let to = NodeId(b);
                if from == to || self.crashed.contains(&to) {
                    continue;
                }
                if !self.physical.reachable(from, to) {
                    continue;
                }
                let fault = self.link_fault(from, to);
                if fault.down {
                    continue;
                }
                if fault.loss_per_mille > 0
                    && self.rng.below(1000) < u64::from(fault.loss_per_mille)
                {
                    continue;
                }
                let jitter = SimDuration::from_micros(self.rng.below(fault.jitter_micros + 1));
                let arrival = t + BASE_LATENCY + jitter;
                self.detectors
                    .get_mut(&(to, from))
                    .expect("pair present")
                    .record_arrival(arrival);
            }
        }
        // 2. Suspicion evaluation per live observer.
        for a in 0..self.node_count {
            let observer = NodeId(a);
            if self.crashed.contains(&observer) {
                continue;
            }
            for b in 0..self.node_count {
                let peer = NodeId(b);
                if observer == peer {
                    continue;
                }
                let detector = &self.detectors[&(observer, peer)];
                let suspect = match self.kind {
                    DetectorKind::FixedTimeout => detector.timed_out(t),
                    DetectorKind::Adaptive => detector.is_suspect(t),
                };
                let was = self.suspected[&observer].contains(&peer);
                if suspect == was {
                    continue;
                }
                let suspects = self.suspected.get_mut(&observer).expect("present");
                let metrics = self.telemetry.metrics();
                if suspect {
                    suspects.insert(peer);
                    metrics.incr("gms.detector.suspicions_raised");
                    self.telemetry.emit(|| TraceEvent::SuspicionRaised {
                        observer,
                        suspect: peer,
                    });
                } else {
                    suspects.remove(&peer);
                    metrics.incr("gms.detector.suspicions_cleared");
                    self.telemetry
                        .emit(|| TraceEvent::SuspicionCleared { observer, peer });
                }
                // Charge the flip to the node whose reachability flapped.
                let was_suppressed = self.stabilizer.suppressed().contains(&peer);
                let crossed = self.stabilizer.record_flap(peer, t);
                if crossed || was_suppressed {
                    let penalty_milli = self.stabilizer.penalty_milli(peer, t);
                    metrics.incr("gms.detector.flaps_damped");
                    self.telemetry.emit(|| TraceEvent::FlapDamped {
                        node: peer,
                        penalty_milli,
                    });
                }
            }
        }
        // 3. Damping decay releases.
        self.stabilizer.release_due(t);
        // 4. Candidate partitioning through the hysteresis window.
        let observed = self.effective_partitions();
        let partitions = self.stabilizer.observe(observed, t)?;
        self.telemetry
            .metrics()
            .incr("gms.detector.views_stabilized");
        let largest = partitions.iter().map(BTreeSet::len).max().unwrap_or(0) as u32;
        self.telemetry.emit(|| TraceEvent::ViewStabilized {
            partitions: partitions.len() as u32,
            largest,
        });
        Some(partitions)
    }

    /// The partitioning implied by the effective suspicion state:
    /// connected components of the undirected graph where live nodes
    /// `a`–`b` share an edge iff neither suspects the other. Suppressed
    /// nodes are pinned to their group in the last stabilized view;
    /// crashed nodes are singletons.
    fn effective_partitions(&self) -> Vec<BTreeSet<NodeId>> {
        let n = self.node_count as usize;
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], i: usize) -> usize {
            let mut root = i;
            while parent[root] != root {
                root = parent[root];
            }
            let mut cur = i;
            while parent[cur] != root {
                let next = parent[cur];
                parent[cur] = root;
                cur = next;
            }
            root
        }
        let stable = self.stabilizer.stable().unwrap_or_default();
        let same_stable_group =
            |a: NodeId, b: NodeId| stable.iter().any(|g| g.contains(&a) && g.contains(&b));
        for a in 0..self.node_count {
            for b in (a + 1)..self.node_count {
                let (na, nb) = (NodeId(a), NodeId(b));
                if self.crashed.contains(&na) || self.crashed.contains(&nb) {
                    continue;
                }
                let suppressed = self.stabilizer.suppressed().contains(&na)
                    || self.stabilizer.suppressed().contains(&nb);
                let connected = if suppressed {
                    same_stable_group(na, nb)
                } else {
                    !self.suspected[&na].contains(&nb) && !self.suspected[&nb].contains(&na)
                };
                if connected {
                    let ra = find(&mut parent, a as usize);
                    let rb = find(&mut parent, b as usize);
                    parent[ra] = rb;
                }
            }
        }
        let mut groups: HashMap<usize, BTreeSet<NodeId>> = HashMap::new();
        for i in 0..n {
            let root = find(&mut parent, i);
            groups.entry(root).or_default().insert(NodeId(i as u32));
        }
        let mut partitions: Vec<BTreeSet<NodeId>> = groups.into_values().collect();
        partitions.sort_by(|x, y| x.iter().next().cmp(&y.iter().next()));
        partitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dedisys_telemetry::RingRecorder;

    /// The cluster's default settle window.
    const SETTLE: SimDuration = SimDuration::from_millis(300);

    /// A pipeline over `n` nodes with a recorder on its bus.
    fn sim_with(
        n: u32,
        kind: DetectorKind,
        settle: SimDuration,
        seed: u64,
    ) -> (MembershipSim, SimClock, RingRecorder) {
        let clock = SimClock::new();
        let telemetry = Telemetry::new(clock.clone());
        let ring = RingRecorder::new(4096);
        telemetry.attach(Box::new(ring.clone()));
        let sim = MembershipSim::new(n, kind, settle, seed, clock.clone(), telemetry);
        (sim, clock, ring)
    }

    fn sim(n: u32, kind: DetectorKind) -> (MembershipSim, SimClock, RingRecorder) {
        sim_with(n, kind, SETTLE, 0)
    }

    /// Advances the clock by `d` and polls until every due tick has
    /// run; returns the partitionings stabilized on the way.
    fn run(
        sim: &mut MembershipSim,
        clock: &SimClock,
        d: SimDuration,
    ) -> Vec<Vec<BTreeSet<NodeId>>> {
        clock.advance(d);
        std::iter::from_fn(|| sim.poll()).collect()
    }

    fn parts(groups: &[&[u32]]) -> Vec<BTreeSet<NodeId>> {
        groups
            .iter()
            .map(|g| g.iter().map(|&n| NodeId(n)).collect())
            .collect()
    }

    #[test]
    fn healthy_system_stays_stable() {
        for kind in [DetectorKind::FixedTimeout, DetectorKind::Adaptive] {
            let (mut sim, clock, ring) = sim(4, kind);
            let views = run(&mut sim, &clock, SimDuration::from_secs(3));
            assert!(views.is_empty(), "{kind:?}: {views:?}");
            assert!(ring.is_empty(), "{kind:?}: {:?}", ring.kinds());
            assert_eq!(sim.standing_suspicions(), 0);
        }
    }

    #[test]
    fn dropped_links_are_detected_and_stabilized() {
        for kind in [DetectorKind::FixedTimeout, DetectorKind::Adaptive] {
            let (mut sim, clock, _) = sim(4, kind);
            run(&mut sim, &clock, SimDuration::from_secs(2));
            sim.drop_links(&[&[0, 1], &[2, 3]]);
            let views = run(&mut sim, &clock, SimDuration::from_secs(3));
            assert!(!views.is_empty(), "{kind:?} never stabilized");
            assert_eq!(views.last(), Some(&parts(&[&[0, 1], &[2, 3]])), "{kind:?}");
        }
    }

    #[test]
    fn heal_clears_all_suspicion_and_restabilizes() {
        let (mut sim, clock, _) = sim(3, DetectorKind::Adaptive);
        run(&mut sim, &clock, SimDuration::from_secs(2));
        sim.drop_links(&[&[0], &[1, 2]]);
        run(&mut sim, &clock, SimDuration::from_secs(3));
        assert!(sim.standing_suspicions() > 0);
        sim.heal_links();
        let views = run(&mut sim, &clock, SimDuration::from_secs(5));
        assert_eq!(sim.standing_suspicions(), 0);
        assert_eq!(views.last(), Some(&parts(&[&[0, 1, 2]])));
    }

    #[test]
    fn scripted_force_is_authoritative_and_quiet() {
        let (mut sim, clock, _) = sim(4, DetectorKind::Adaptive);
        run(&mut sim, &clock, SimDuration::from_secs(1));
        let groups = parts(&[&[0, 1], &[2, 3]]);
        sim.force_partitions(&groups);
        // Detection agrees with the scripted state: no further view
        // change, suspicion already in place.
        let views = run(&mut sim, &clock, SimDuration::from_secs(3));
        assert!(views.is_empty(), "{views:?}");
        assert!(sim.suspected[&NodeId(0)].contains(&NodeId(2)));
        assert_eq!(sim.stabilizer.stable(), Some(&groups[..]));
    }

    #[test]
    fn crashed_node_is_a_singleton_and_silent() {
        let (mut sim, clock, _) = sim(3, DetectorKind::FixedTimeout);
        run(&mut sim, &clock, SimDuration::from_secs(1));
        sim.set_crashed(NodeId(2), true);
        let views = run(&mut sim, &clock, SimDuration::from_secs(2));
        assert_eq!(views.last(), Some(&parts(&[&[0, 1], &[2]])));
        // Crashed observers hold no standing suspicions.
        assert_eq!(sim.standing_suspicions(), 0);
    }

    #[test]
    fn adaptive_with_damping_flaps_less_than_fixed_passthrough() {
        // A flapping node: node 2 cut off from both peers for 400 ms,
        // back for 400 ms, 40 times. (Views are the connected
        // components of mutual non-suspicion, so flapping the single
        // link 0–2 never changes a view: node 1 keeps bridging.)
        let run_with = |kind: DetectorKind, settle: SimDuration| -> usize {
            let (mut sim, clock, _) = sim_with(3, kind, settle, 0);
            // Warm-up on healthy links: the detectors learn the cadence.
            assert!(run(&mut sim, &clock, SimDuration::from_secs(2)).is_empty());
            let mut views = 0;
            for _ in 0..40 {
                sim.drop_links(&[&[0, 1], &[2]]);
                views += run(&mut sim, &clock, SimDuration::from_millis(400)).len();
                sim.heal_links();
                views += run(&mut sim, &clock, SimDuration::from_millis(400)).len();
            }
            views
        };
        let noisy = run_with(DetectorKind::FixedTimeout, SimDuration::ZERO);
        let damped = run_with(DetectorKind::Adaptive, SETTLE);
        assert!(noisy >= 40, "passthrough follows every flap, got {noisy}");
        assert!(
            damped < noisy,
            "damped ({damped}) must flap less than passthrough ({noisy})"
        );
    }

    #[test]
    fn same_seed_same_events_under_loss_and_jitter() {
        let run_once = || {
            let (mut sim, clock, ring) = sim_with(4, DetectorKind::Adaptive, SETTLE, 7);
            sim.set_default_jitter(30_000);
            sim.set_link_fault(
                NodeId(0),
                NodeId(3),
                LinkFault {
                    down: false,
                    loss_per_mille: 900,
                    jitter_micros: 60_000,
                },
            );
            let mut views = Vec::new();
            for _ in 0..50 {
                views.extend(run(&mut sim, &clock, SimDuration::from_millis(137)));
            }
            (views, ring.records())
        };
        let (a, b) = (run_once(), run_once());
        assert!(!a.1.is_empty(), "the lossy link raised no suspicion");
        assert_eq!(a, b);
    }

    /// `poll` hands back each stabilized view right after the tick that
    /// stabilized it, so the cluster installs it before any later
    /// tick's observation goes out on the bus.
    #[test]
    fn two_views_stabilized_in_one_advance_come_back_one_poll_each() {
        let (mut sim, clock, ring) = sim_with(4, DetectorKind::FixedTimeout, SimDuration::ZERO, 0);
        sim.drop_links(&[&[0, 1, 3], &[2]]);
        let views = run(&mut sim, &clock, SimDuration::from_secs(1));
        assert_eq!(views, [parts(&[&[0, 1, 3], &[2]])]);
        // Node 2 back, node 3 cut: the heal shows at the next tick, the
        // cut once node 3 has been silent for the suspect timeout.
        sim.drop_links(&[&[0, 1, 2], &[3]]);
        ring.clear();
        clock.advance(SimDuration::from_secs(1));
        assert_eq!(sim.poll(), Some(parts(&[&[0, 1, 2, 3]])));
        // No later tick has run yet: only the heal's clears and its view.
        let kinds = ring.kinds();
        let (last, before) = kinds.split_last().expect("the heal was reported");
        assert_eq!(*last, "view_stabilized");
        assert!(
            before.iter().all(|&k| k == "suspicion_cleared"),
            "{kinds:?}"
        );
        assert_eq!(sim.poll(), Some(parts(&[&[0, 1, 2], &[3]])));
        assert_eq!(sim.poll(), None);
    }
}
