//! The chaos engine: interleaves a seeded fault schedule with a
//! seeded workload on the virtual clock, checks invariants after
//! every fault, and finishes with the full repair sequence
//! (restart → heal → resolve in-doubt → reconcile → convergence
//! check).
//!
//! Everything is derived from [`ChaosConfig::seed`]: the fault plan
//! and the workload mix. Two runs with the same config produce the same
//! virtual-time trajectory and — with a JSONL exporter attached —
//! byte-identical trace files.

use crate::invariant::{InvariantChecker, InvariantViolation};
use crate::plan::{FaultPlan, FaultStep};
use dedisys_core::{
    Cluster, ClusterBuilder, DeferAll, DetectorKind, HighestVersionWins, LinkFault, PlaneStats,
    RequestPlane, StatsSnapshot,
};
use dedisys_object::{AppDescriptor, ClassDescriptor, EntityState};
use dedisys_telemetry::TraceEvent;
use dedisys_types::{ChaosRng, NodeId, ObjectId, PriorityClass, Result, SimDuration, TxId, Value};

/// Configuration of one chaos-soak run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Cluster size (at least 2).
    pub nodes: u32,
    /// Workload operations to run.
    pub ops: u64,
    /// Fault steps to schedule across the run.
    pub faults: usize,
    /// Master seed: fixes plan and workload.
    pub seed: u64,
    /// Entities created up front as the workload's working set.
    pub item_pool: usize,
    /// Drive membership through the adaptive failure-detection
    /// pipeline: the cluster runs a φ-accrual detector with flap
    /// damping, and the random plan draws from the extended fault
    /// vocabulary (link flaps, asymmetric loss, jitter, torn journal
    /// writes). Off by default so classic seeds keep their historical
    /// schedules.
    pub detector: bool,
    /// Route the read/write share of the workload through a
    /// [`RequestPlane`]: requests are admitted under token-bucket and
    /// queue-bound control, carry seed-derived priority classes, and
    /// drain interleaved with the fault schedule. The invariant
    /// checker then also asserts request conservation (no admitted
    /// request is lost) and the per-node queue bound after every
    /// fault. Off by default so classic seeds keep their historical
    /// schedules.
    pub workload_plane: bool,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            nodes: 4,
            ops: 300,
            faults: 24,
            seed: 0,
            item_pool: 12,
            detector: false,
            workload_plane: false,
        }
    }
}

/// Outcome of a chaos-soak run.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The seed the run was derived from.
    pub seed: u64,
    /// Workload operations that succeeded.
    pub ops_ok: u64,
    /// Workload operations that failed (availability, locks, vetoes —
    /// expected under faults).
    pub ops_failed: u64,
    /// Fault steps applied.
    pub faults_applied: u64,
    /// Fault steps skipped (inapplicable when reached).
    pub faults_skipped: u64,
    /// In-doubt transactions resolved by presumed abort.
    pub in_doubt_resolved: u64,
    /// Every invariant violation observed (must be empty).
    pub violations: Vec<InvariantViolation>,
    /// Request-plane counters (all zero unless
    /// [`ChaosConfig::workload_plane`] was set).
    pub plane: PlaneStats,
    /// Final cluster statistics snapshot.
    pub final_stats: StatsSnapshot,
}

impl ChaosReport {
    /// Whether every invariant held throughout the run.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The minimal soak application: one entity class with an integer
/// field, conventional accessors dispatched by the method table.
fn chaos_app() -> AppDescriptor {
    AppDescriptor::new("chaos-soak")
        .with_class(ClassDescriptor::new("Item").with_field("n", Value::Int(0)))
}

/// Drives one seeded chaos run against a dedicated cluster.
pub struct ChaosEngine {
    config: ChaosConfig,
    cluster: Cluster,
    /// Workload RNG — a distinct stream from the plan generator so
    /// adding plan entropy does not shift the workload.
    rng: ChaosRng,
    /// The request plane the read/write workload routes through when
    /// [`ChaosConfig::workload_plane`] is set (idle otherwise).
    plane: RequestPlane,
    items: Vec<ObjectId>,
    created: u64,
    open_prepared: Vec<TxId>,
    ops_ok: u64,
    ops_failed: u64,
    faults_applied: u64,
    faults_skipped: u64,
    in_doubt_resolved: u64,
    violations: Vec<InvariantViolation>,
}

impl ChaosEngine {
    /// Builds the soak cluster and seeds the working set.
    ///
    /// # Errors
    ///
    /// Propagates cluster-construction and seeding failures.
    pub fn new(config: ChaosConfig) -> Result<Self> {
        assert!(config.nodes >= 2, "chaos needs at least two nodes");
        let mut builder = ClusterBuilder::new(config.nodes, chaos_app());
        if config.detector {
            builder = builder.configure(|c| {
                c.membership.detector_enabled = true;
                c.membership.detector = DetectorKind::Adaptive;
                c.membership.seed = config.seed;
            });
        }
        let cluster = builder.build()?;
        Ok(Self {
            rng: ChaosRng::new(config.seed ^ 0xC0FF_EE00_C0FF_EE00),
            plane: RequestPlane::new(),
            cluster,
            items: Vec::new(),
            created: 0,
            open_prepared: Vec::new(),
            ops_ok: 0,
            ops_failed: 0,
            faults_applied: 0,
            faults_skipped: 0,
            in_doubt_resolved: 0,
            violations: Vec::new(),
            config,
        })
    }

    /// The cluster under test — attach telemetry sinks here *before*
    /// [`ChaosEngine::run`] to capture the trace.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Runs the seed-derived random plan to completion.
    ///
    /// # Errors
    ///
    /// Propagates workload-seeding failures; fault application and
    /// workload errors are absorbed into the report.
    pub fn run(self) -> Result<ChaosReport> {
        let plan = if self.config.detector {
            FaultPlan::random_adaptive(
                self.config.seed,
                self.config.nodes,
                self.config.ops,
                self.config.faults,
            )
        } else {
            FaultPlan::random(
                self.config.seed,
                self.config.nodes,
                self.config.ops,
                self.config.faults,
            )
        };
        self.run_plan(&plan)
    }

    /// Runs an explicit fault plan to completion.
    ///
    /// # Errors
    ///
    /// Propagates workload-seeding failures.
    pub fn run_plan(mut self, plan: &FaultPlan) -> Result<ChaosReport> {
        self.seed_items()?;
        let mut steps = plan.steps().iter().peekable();
        let mut step_no: u32 = 0;
        for op in 0..self.config.ops {
            while steps.peek().is_some_and(|p| p.at_op <= op) {
                let planned = steps.next().expect("peeked");
                self.apply_step(step_no, &planned.step);
                step_no += 1;
                self.check_invariants();
            }
            self.one_op();
            // Dispatch one queued request per workload op, so plane
            // traffic drains interleaved with faults and new arrivals.
            if self.config.workload_plane {
                self.plane.step(&mut self.cluster);
            }
            self.in_doubt_resolved += self.cluster.resolve_in_doubt() as u64;
            // The workload advanced the virtual clock; let the
            // failure detector process whatever heartbeats landed.
            self.cluster.poll_detector();
        }
        for planned in steps {
            self.apply_step(step_no, &planned.step);
            step_no += 1;
            self.check_invariants();
        }
        self.finish();
        let final_stats = self.cluster.stats();
        Ok(ChaosReport {
            seed: self.config.seed,
            ops_ok: self.ops_ok,
            ops_failed: self.ops_failed,
            faults_applied: self.faults_applied,
            faults_skipped: self.faults_skipped,
            in_doubt_resolved: self.in_doubt_resolved,
            violations: self.violations,
            plane: *self.plane.stats(),
            final_stats,
        })
    }

    /// The post-fault invariant sweep: the running-cluster checks,
    /// plus request accounting when the plane carries the workload.
    fn check_invariants(&mut self) {
        self.violations
            .extend(InvariantChecker::check_running(&self.cluster));
        if self.config.workload_plane {
            self.violations
                .extend(InvariantChecker::check_plane(&self.plane, &self.cluster));
        }
    }

    fn seed_items(&mut self) -> Result<()> {
        for i in 0..self.config.item_pool {
            let node = NodeId((i as u32) % self.config.nodes);
            let id = ObjectId::new("Item", format!("I-{i}"));
            let entity_id = id.clone();
            self.cluster.run_tx(node, move |c, tx| {
                c.create(node, tx, EntityState::for_class(c.app(), &entity_id)?)
            })?;
            self.items.push(id);
        }
        Ok(())
    }

    fn live_nodes(&self) -> Vec<NodeId> {
        self.cluster
            .topology()
            .nodes()
            .filter(|n| !self.cluster.is_crashed(*n))
            .collect()
    }

    fn one_op(&mut self) {
        let live = self.live_nodes();
        if live.is_empty() {
            return;
        }
        let node = *self.rng.pick(&live);
        let roll = self.rng.below(100);
        let result: Result<()> = if roll < 10 {
            // Start an explicit 2PC and leave it hanging in prepared
            // state — a later crash of `node` makes it in-doubt. The
            // transaction outlives the session borrow, so detach it.
            let tx = self.cluster.session(node).detach();
            let id = self.rng.pick(&self.items).clone();
            let value = Value::Int(self.rng.below(1_000) as i64);
            let r = self
                .cluster
                .set_field(node, tx, &id, "n", value)
                .and_then(|()| self.cluster.prepare(tx));
            match r {
                Ok(()) => {
                    self.open_prepared.push(tx);
                    Ok(())
                }
                Err(e) => {
                    let _ = self.cluster.rollback(tx);
                    Err(e)
                }
            }
        } else if roll < 25 && !self.open_prepared.is_empty() {
            // Finish a hanging 2PC: phase 2 commit, or rollback.
            let idx = self.rng.below(self.open_prepared.len() as u64) as usize;
            let tx = self.open_prepared.swap_remove(idx);
            if self.rng.chance(50) {
                self.cluster.commit(tx)
            } else {
                self.cluster.rollback(tx)
            }
        } else if roll < 40 {
            let key = format!("C-{}", self.created);
            self.created += 1;
            let id = ObjectId::new("Item", key);
            let entity_id = id.clone();
            let r = self.cluster.run_tx(node, move |c, tx| {
                c.create(node, tx, EntityState::for_class(c.app(), &entity_id)?)
            });
            if r.is_ok() {
                self.items.push(id);
            }
            r
        } else if roll < 75 {
            let id = self.rng.pick(&self.items).clone();
            let value = Value::Int(self.rng.below(1_000) as i64);
            if self.config.workload_plane {
                self.submit_plane(node, move |mut session| {
                    session.set_field(&id, "n", value)?;
                    session.commit()
                })
            } else {
                self.cluster
                    .run_tx(node, move |c, tx| c.set_field(node, tx, &id, "n", value))
            }
        } else {
            let id = self.rng.pick(&self.items).clone();
            if self.config.workload_plane {
                self.submit_plane(node, move |mut session| {
                    session.get_field(&id, "n").map(|_| ())
                })
            } else {
                self.cluster
                    .run_tx(node, move |c, tx| c.get_field(node, tx, &id, "n"))
                    .map(|_| ())
            }
        };
        match result {
            Ok(()) => self.ops_ok += 1,
            Err(_) => self.ops_failed += 1,
        }
    }

    /// Submits one workload closure through the request plane under a
    /// seed-derived priority class. Admission errors (empty bucket,
    /// full queue) surface as failed ops; the execution outcome lands
    /// in the plane counters when the request is dispatched later.
    fn submit_plane(
        &mut self,
        node: NodeId,
        work: impl for<'a> FnOnce(dedisys_core::Session<'a>) -> Result<()> + 'static,
    ) -> Result<()> {
        let class_roll = self.rng.below(100);
        let class = if class_roll < 15 {
            PriorityClass::Critical
        } else if class_roll < 70 {
            PriorityClass::Normal
        } else {
            PriorityClass::Background
        };
        self.plane
            .submit(&mut self.cluster, node, class, work)
            .map(|_| ())
    }

    fn apply_step(&mut self, step_no: u32, step: &FaultStep) {
        let label = step.to_string();
        self.cluster.telemetry().emit(|| TraceEvent::ChaosFault {
            step: step_no,
            fault: label.clone(),
        });
        let applied = match step {
            FaultStep::Crash(node) => {
                // Never take down the last live node.
                self.live_nodes().len() > 1 && self.cluster.crash(*node).is_ok()
            }
            FaultStep::Restart(node) => self.cluster.restart(*node).is_ok(),
            FaultStep::Partition(groups) => self.cluster.partition(groups).is_ok(),
            FaultStep::Heal => {
                self.cluster.heal();
                true
            }
            FaultStep::WriteFaultWindow { node, failures } => {
                self.cluster.inject_write_fault(*node, *failures);
                true
            }
            FaultStep::ReplicaLag { node, updates } => {
                self.cluster.inject_replica_lag(*node, *updates);
                true
            }
            FaultStep::LinkJitter { micros } => {
                self.cluster.set_default_link_jitter(*micros).is_ok()
            }
            FaultStep::LinkFlap {
                node,
                flaps,
                period_millis,
            } => self.link_flap(*node, *flaps, *period_millis),
            FaultStep::AsymmetricLoss {
                from,
                to,
                per_mille,
            } => self
                .cluster
                .set_link_fault(
                    *from,
                    *to,
                    LinkFault {
                        loss_per_mille: *per_mille,
                        ..LinkFault::default()
                    },
                )
                .is_ok(),
            FaultStep::WalTornWrite { node } => {
                self.live_nodes().len() > 1
                    && !self.cluster.is_crashed(*node)
                    && self.cluster.corrupt_journal_tail(*node, 1).is_ok()
                    && self.cluster.crash(*node).is_ok()
            }
        };
        if applied {
            self.faults_applied += 1;
        } else {
            self.faults_skipped += 1;
        }
    }

    /// Severs and restores `node`'s physical links `flaps` times,
    /// advancing the detector through each half-cycle — the
    /// stabilizer's flap damping is what keeps this from translating
    /// into `2 × flaps` installed views.
    fn link_flap(&mut self, node: NodeId, flaps: u32, period_millis: u64) -> bool {
        if !self.cluster.detector_enabled() || self.cluster.is_crashed(node) {
            return false;
        }
        let others: Vec<NodeId> = self
            .cluster
            .topology()
            .nodes()
            .filter(|n| *n != node)
            .collect();
        let period = SimDuration::from_millis(period_millis);
        for _ in 0..flaps {
            if self
                .cluster
                .drop_links(&[vec![node], others.clone()])
                .is_err()
            {
                return false;
            }
            self.cluster.run_detector_for(period);
            if self.cluster.heal_links().is_err() {
                return false;
            }
            self.cluster.run_detector_for(period);
        }
        true
    }

    /// The final repair sequence: drain hanging 2PC transactions,
    /// restart every crashed node, heal, time out any remaining
    /// in-doubt transactions, reconcile, and check convergence.
    fn finish(&mut self) {
        for tx in std::mem::take(&mut self.open_prepared) {
            if self.cluster.tx_is_open(tx) {
                match self.cluster.commit(tx) {
                    Ok(()) => self.ops_ok += 1,
                    Err(_) => self.ops_failed += 1,
                }
            }
        }
        let crashed: Vec<NodeId> = self.cluster.crashed_nodes().collect();
        for node in crashed {
            let _ = self.cluster.restart(node);
        }
        self.cluster.heal();
        if self.cluster.detector_enabled() {
            // Give the pipeline time to observe the healed fabric and
            // decay any accumulated flap penalties, then insist on
            // quiescence: zero standing suspicions, one partition.
            let _ = self.cluster.set_default_link_jitter(0);
            self.cluster.run_detector_for(SimDuration::from_secs(2));
            let mut rounds = 0;
            while rounds < 120
                && (self.cluster.standing_suspicions() > 0 || !self.cluster.topology().is_healthy())
            {
                self.cluster.run_detector_for(SimDuration::from_secs(1));
                rounds += 1;
            }
        }
        // With every node restarted and the fabric healed, drain the
        // plane: whatever survived admission must now complete, shed
        // or miss its deadline — nothing may simply vanish.
        if self.config.workload_plane {
            let report = self.plane.run_until_idle(&mut self.cluster);
            if report.queued != 0 {
                self.violations.push(InvariantViolation {
                    invariant: "plane_drained",
                    detail: format!("{} requests still queued after repair", report.queued),
                });
            }
            self.violations
                .extend(InvariantChecker::check_plane(&self.plane, &self.cluster));
        }
        let timeout = self.cluster.costs().in_doubt_timeout;
        self.cluster.clock().advance(timeout);
        self.in_doubt_resolved += self.cluster.resolve_in_doubt() as u64;
        if self.cluster.needs_reconciliation() {
            let mut replica_handler = HighestVersionWins;
            let mut constraint_handler = DeferAll;
            let _ = self
                .cluster
                .reconcile(&mut replica_handler, &mut constraint_handler);
        }
        self.violations
            .extend(InvariantChecker::check_converged(&self.cluster));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultStep;

    fn run_seed(seed: u64) -> ChaosReport {
        let engine = ChaosEngine::new(ChaosConfig {
            seed,
            ops: 200,
            faults: 16,
            ..ChaosConfig::default()
        })
        .expect("engine");
        engine.run().expect("run")
    }

    #[test]
    fn fixed_seed_is_reproducible() {
        let a = run_seed(7);
        let b = run_seed(7);
        assert_eq!(a.ops_ok, b.ops_ok);
        assert_eq!(a.ops_failed, b.ops_failed);
        assert_eq!(a.faults_applied, b.faults_applied);
        assert_eq!(a.final_stats.now_ns, b.final_stats.now_ns);
        assert_eq!(a.final_stats.events_emitted, b.final_stats.events_emitted);
    }

    #[test]
    fn random_schedules_keep_invariants() {
        for seed in 0..20 {
            let report = run_seed(seed);
            assert!(
                report.clean(),
                "seed {seed} violated invariants: {:?}",
                report.violations
            );
        }
    }

    fn run_detector_seed(seed: u64) -> ChaosReport {
        let engine = ChaosEngine::new(ChaosConfig {
            seed,
            ops: 150,
            faults: 12,
            detector: true,
            ..ChaosConfig::default()
        })
        .expect("engine");
        engine.run().expect("run")
    }

    #[test]
    fn detector_runs_are_reproducible() {
        let a = run_detector_seed(11);
        let b = run_detector_seed(11);
        assert_eq!(a.ops_ok, b.ops_ok);
        assert_eq!(a.ops_failed, b.ops_failed);
        assert_eq!(a.faults_applied, b.faults_applied);
        assert_eq!(a.final_stats.now_ns, b.final_stats.now_ns);
        assert_eq!(a.final_stats.events_emitted, b.final_stats.events_emitted);
    }

    #[test]
    fn detector_schedules_keep_invariants() {
        for seed in 0..10 {
            let report = run_detector_seed(seed);
            assert!(
                report.clean(),
                "seed {seed} violated invariants: {:?}",
                report.violations
            );
        }
    }

    fn run_plane_seed(seed: u64, ops: u64, faults: usize) -> ChaosReport {
        let engine = ChaosEngine::new(ChaosConfig {
            seed,
            ops,
            faults,
            workload_plane: true,
            ..ChaosConfig::default()
        })
        .expect("engine");
        engine.run().expect("run")
    }

    #[test]
    fn plane_runs_are_reproducible() {
        let a = run_plane_seed(13, 200, 16);
        let b = run_plane_seed(13, 200, 16);
        assert_eq!(a.ops_ok, b.ops_ok);
        assert_eq!(a.ops_failed, b.ops_failed);
        assert_eq!(a.plane, b.plane);
        assert_eq!(a.final_stats.now_ns, b.final_stats.now_ns);
        assert_eq!(a.final_stats.events_emitted, b.final_stats.events_emitted);
    }

    #[test]
    fn plane_workload_conserves_requests_across_seeds() {
        // The issue-level contract: request conservation (no admitted
        // request lost) and the queue bound hold across a wide seed
        // sweep, checked after every fault and after the final drain.
        for seed in 0..200 {
            let report = run_plane_seed(seed, 60, 6);
            assert!(
                report.clean(),
                "seed {seed} violated invariants: {:?}",
                report.violations
            );
            let t = report.plane;
            let total = t.critical.offered + t.normal.offered + t.background.offered;
            assert!(total > 0, "seed {seed} routed nothing through the plane");
        }
    }

    #[test]
    fn torn_journal_write_recovers_and_converges() {
        let plan = FaultPlan::new()
            .at(60, FaultStep::WalTornWrite { node: NodeId(1) })
            .at(120, FaultStep::Restart(NodeId(1)));
        let engine = ChaosEngine::new(ChaosConfig {
            seed: 5,
            ops: 200,
            ..ChaosConfig::default()
        })
        .expect("engine");
        let report = engine.run_plan(&plan).expect("run");
        assert!(report.clean(), "violations: {:?}", report.violations);
        assert_eq!(report.faults_applied, 2);
    }

    #[test]
    fn explicit_crash_during_prepare_resolves_in_doubt() {
        // Hand-written schedule: crash node 1 early and often enough
        // that a hanging prepared transaction coordinated there goes
        // in-doubt, then restart and let the run finish.
        let plan = FaultPlan::new()
            .at(40, FaultStep::Crash(NodeId(1)))
            .at(90, FaultStep::Restart(NodeId(1)))
            .at(120, FaultStep::Crash(NodeId(2)))
            .at(160, FaultStep::Heal);
        let engine = ChaosEngine::new(ChaosConfig {
            seed: 3,
            ops: 200,
            ..ChaosConfig::default()
        })
        .expect("engine");
        let report = engine.run_plan(&plan).expect("run");
        assert!(report.clean(), "violations: {:?}", report.violations);
    }
}
