//! The chaos engine behind `repro chaos-soak`, a deterministic
//! robustness harness: seeded schedules of workload ops and faults
//! ([`Schedule`]), one engine that runs them against a federation of
//! one or more shards ([`ChaosEngine`]), and safety invariants
//! ([`InvariantChecker`]) checked after every step. Among them is
//! threat completeness, checked by [`Cluster::audit`]: dissertation
//! §3.2 promises that no integrity violation goes unnoticed, so every
//! violation of an enabled invariant in the committed state must be
//! explained by a standing threat or a pending reconciliation.
//!
//! Every shard runs the paper's three applications under their
//! constraints: flights sold and refunded (`sellTickets`, the ticket
//! constraint, its §5.5.2 partition-sensitive variant and the
//! non-tradeable `NonNegativeSales`), alarms and repair reports (the
//! inter-object `ComponentKindReferenceConsistency`), and site-bound
//! channel endpoints retuned alone or in pairs (the soft
//! `ChannelConfigConsistency` and the asynchronous `FrequencyBand`).
//! Creates, reads, writes with designed violations and hanging
//! explicit 2PC run under crashes, partitions, heals and store faults,
//! each fault on one shard, each op on a live (shard, node) pair drawn
//! from the whole federation; every heal reconciles with a handler that
//! repairs each violation it is shown. The seed also draws the
//! settings every shard runs with ([`SoakDraws`]). From two shards on, a
//! cross-shard balance transfer is one more op kind: it commits, aborts
//! or loses its federation coordinator, and two invariants make an
//! atomicity violation visible as data — the committed balances always
//! sum to the initial total (value conservation), and every begun
//! cross-shard transaction is committed, aborted or still open.
//! Transfers route under [`RoutingPolicy::RejectDegraded`], so an
//! account is written only while its shard is healthy and has one
//! history. A run ends with one repair sequence on every shard
//! (restart → heal → resolve in-doubt → reconcile → convergence check).
//!
//! Everything runs on the shared virtual clock and flows from
//! [`ChaosConfig::seed`] through [`ChaosRng`] (SplitMix64, defined in
//! `dedisys-types`), so a chaos run is a *reproducible artifact*: the
//! seed of a failing soak is the bug report, and two runs of the same
//! seed write byte-identical JSONL traces of every bus. A run is one
//! loop over its schedule's steps: a fault is applied and the
//! invariants checked; an op runs on the draws it recorded, then on the
//! seed's stream (`Draws`), and hands back every draw it took, so
//! [`ChaosReport::schedule`] run again replays the run exactly and
//! [`Schedule::shrink`] cuts a failing one down to the few steps the
//! failure needs.

use crate::invariant::{InvariantChecker, InvariantViolation};
use crate::plan::{FaultStep, Schedule, Step};
use dedisys::apps::{ats, dtms, flight};
use dedisys_constraints::RegisteredConstraint;
use dedisys_core::{
    Cluster, ClusterBuilder, ConstraintChange, DetectorKind, HighestVersionWins, LinkFault,
    NegotiationTiming, NodeWeights, ReconOps, ReconcileInstructions, RequestPlane, Session,
    StatsSnapshot, Telemetry, TraceEvent, ViolationReport,
};
use dedisys_federation::{FederatedCluster, FederationStats, RoutingPolicy, ShardId};
use dedisys_object::{AppDescriptor, ClassDescriptor, EntityState};
use dedisys_types::{
    ChaosRng, Error, NodeId, ObjectId, PriorityClass, Result, SatisfactionDegree, SimDuration,
    SystemMode, TxId, Value,
};

/// Flights each shard creates up front.
const FLIGHTS: u32 = 4;
/// Alarm / repair-report pairs each shard creates up front.
const ALARMS: u32 = 4;
/// Voice channels — two site-bound endpoints each — each shard creates
/// up front.
const CHANNELS: u32 = 3;
/// The component kinds a repair report is set to: the first two keep a
/// signal alarm consistent, the last two violate it.
const COMPONENT_KINDS: [&str; 4] = ["Signal Controller", "Signal Cable", "Fuse", "Antenna"];
/// The alarm kinds an alarm is set to.
const ALARM_KINDS: [&str; 2] = ["Signal", "Power"];
/// Accounts a federation of two or more shards funds up front.
const ACCOUNTS: u32 = 12;
/// Starting balance of every account; `ACCOUNTS * INITIAL_BALANCE` is
/// the conserved total.
const INITIAL_BALANCE: i64 = 100;
/// Percent of prepared transfers explicitly aborted.
const ABORT_PCT: u64 = 10;
/// Percent of prepared transfers whose federation coordinator crashes.
const COORDINATOR_CRASH_PCT: u64 = 10;

/// Configuration of one chaos-soak run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ChaosConfig {
    /// Nodes per shard (at least 2).
    pub(crate) nodes: u32,
    /// Workload operations [`ChaosEngine::run`] schedules, across the
    /// federation.
    pub(crate) ops: u64,
    /// Fault steps [`ChaosEngine::run`] schedules, across the
    /// federation.
    pub(crate) faults: usize,
    /// Master seed: fixes schedule, draws and workload.
    pub(crate) seed: u64,
    /// Shards in the federation; from two on, transfers join the ops.
    pub(crate) shards: u32,
    /// Drive membership through the adaptive failure-detection
    /// pipeline: every shard runs a φ-accrual detector with flap
    /// damping, and the random schedule draws from the extended fault
    /// vocabulary (link flaps, asymmetric loss, jitter, torn journal
    /// writes). Off by default so classic seeds keep their historical
    /// schedules.
    pub(crate) detector: bool,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            nodes: 4,
            ops: 300,
            faults: 24,
            seed: 0,
            shards: 1,
            detector: false,
        }
    }
}

/// What a seed draws besides its schedule and workload: the settings
/// the paper leaves to the application, the same on every shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SoakDraws {
    /// Whether reads and writes route through a [`RequestPlane`] —
    /// admitted under token-bucket and queue-bound control with
    /// seed-derived priority classes, drained interleaved with the
    /// fault schedule. The invariant checker then also asserts request
    /// conservation and the per-node queue bound after every fault.
    pub(crate) plane: bool,
    /// `validation.negotiation_timing` (§5.4).
    pub(crate) negotiation_timing: NegotiationTiming,
    /// `validation.app_default_min_degree` (§3.2.1): it negotiates the
    /// threats of `FrequencyBand`, the one constraint without a floor
    /// of its own.
    pub(crate) app_default_min_degree: SatisfactionDegree,
    /// Node weights (§5.5.2) — `None` is one unit each.
    pub(crate) weights: Option<Vec<u32>>,
    /// The reconciliation instructions every threat carries (§3.2.2).
    pub(crate) instructions: ReconcileInstructions,
}

impl SoakDraws {
    /// The draws of `seed` for `nodes` nodes, from a stream of their
    /// own; the plane comes first, so it does not depend on `nodes`.
    pub(crate) fn of(seed: u64, nodes: u32) -> Self {
        let mut rng = ChaosRng::new(seed ^ 0x5EED_D4A7_5EED_D4A7);
        let plane = rng.chance(50);
        let negotiation_timing = if rng.chance(50) {
            NegotiationTiming::Deferred
        } else {
            NegotiationTiming::Immediate
        };
        let app_default_min_degree = *rng.pick(&[
            SatisfactionDegree::Satisfied,
            SatisfactionDegree::PossiblySatisfied,
            SatisfactionDegree::Uncheckable,
        ]);
        let weights = rng
            .chance(50)
            .then(|| (0..nodes).map(|_| 1 + rng.below(3) as u32).collect());
        let instructions = ReconcileInstructions {
            allow_rollback: rng.chance(50),
            notify_on_replica_conflict: rng.chance(50),
        };
        Self {
            plane,
            negotiation_timing,
            app_default_min_degree,
            weights,
            instructions,
        }
    }

    /// Sets the draws, and the flight methods, on a shard's builder.
    fn apply(&self, builder: ClusterBuilder) -> ClusterBuilder {
        let builder = builder
            .methods(flight::flight_methods())
            .default_instructions(self.instructions)
            .configure(|c| {
                c.validation.negotiation_timing = self.negotiation_timing;
                c.validation.app_default_min_degree = self.app_default_min_degree;
            });
        match &self.weights {
            Some(weights) => builder.weights(NodeWeights::explicit(weights.clone())),
            None => builder,
        }
    }
}

/// How much constraint management a run exercised, summed over the
/// shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct ConstraintActivity {
    /// Accepted threats stored in the threat store (§5.5.1).
    pub(crate) threats_stored: u64,
    /// Threats negotiated (§3.2.1), whichever mechanism decided.
    pub(crate) negotiations: u64,
    /// Calls of the repairing reconciliation handler.
    pub(crate) handler_calls: u64,
    /// Historical states the rollback search tried (§3.3).
    pub(crate) rollback_candidates: u64,
}

/// Outcome of a chaos-soak run.
#[derive(Debug, Clone)]
pub(crate) struct ChaosReport {
    /// The seed the run was derived from.
    pub(crate) seed: u64,
    /// What the seed drew.
    pub(crate) draws: SoakDraws,
    /// Workload operations that succeeded.
    pub(crate) ops_ok: u64,
    /// Workload operations that failed (availability, locks, vetoes,
    /// designed violations, refused or aborted transfers — expected
    /// under faults).
    pub(crate) ops_failed: u64,
    /// Fault steps applied, transfer coordinator crashes among them.
    pub(crate) faults_applied: u64,
    /// Fault steps skipped (inapplicable when reached).
    pub(crate) faults_skipped: u64,
    /// Shard-level in-doubt transactions resolved by presumed abort.
    pub(crate) in_doubt_resolved: u64,
    /// Every invariant violation observed (must be empty).
    pub(crate) violations: Vec<InvariantViolation>,
    /// Constraint-management counters.
    pub(crate) constraints: ConstraintActivity,
    /// Cross-shard transaction counters (all zero on one shard).
    pub(crate) federation: FederationStats,
    /// Final statistics snapshot of every shard, in shard order.
    pub(crate) final_stats: Vec<StatsSnapshot>,
    /// The schedule as run, every op with every draw it took: run
    /// again, it replays this run.
    pub(crate) schedule: Schedule,
}

impl ChaosReport {
    /// Whether every invariant held throughout the run.
    pub(crate) fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The application `shard-sweep` and `overload-sweep` borrow: an
/// `Item` with an integer field `n` and an `Account` with an integer
/// balance `v`, conventional accessors dispatched by the method table.
pub(crate) fn chaos_app() -> AppDescriptor {
    AppDescriptor::new("chaos-soak")
        .with_class(ClassDescriptor::new("Item").with_field("n", Value::Int(0)))
        .with_class(ClassDescriptor::new("Account").with_field("v", Value::Int(0)))
}

/// The soak's application: the classes of the flight booking, alarm
/// tracking and telecommunication management systems, and the
/// transfers' accounts.
fn soak_app() -> AppDescriptor {
    let apps = [
        flight::flight_app(),
        ats::ats_app(),
        dtms::dtms_app(),
        chaos_app(),
    ];
    let classes = apps.iter().flat_map(|app| app.classes()).cloned();
    classes.fold(AppDescriptor::new("chaos-soak"), AppDescriptor::with_class)
}

/// Every shard's constraints, in registration order.
fn soak_constraints() -> [RegisteredConstraint; 6] {
    [
        flight::ticket_constraint(),
        flight::partition_sensitive_ticket_constraint(),
        flight::non_negative_sales_constraint(),
        ats::component_kind_constraint(),
        dtms::channel_config_constraint(),
        dtms::frequency_band_constraint(),
    ]
}

/// The committed balance `v` of account `id`, read on its owning
/// shard's coordinator node.
pub(crate) fn account_balance(fed: &FederatedCluster, id: &ObjectId) -> Option<i64> {
    let owner = fed.map().shard_of(id);
    let node = fed.coordinator_node(owner)?;
    match fed.shard(owner).entity_on(node, id)?.field("v") {
        Value::Int(v) => Some(*v),
        _ => None,
    }
}

/// Creates every account of `ids` on its owning shard and funds it with
/// `balance` in a routed transaction.
///
/// # Errors
///
/// The first failed create or funding write.
pub(crate) fn fund_accounts(
    fed: &mut FederatedCluster,
    ids: &[ObjectId],
    balance: i64,
) -> Result<()> {
    for id in ids {
        fed.create(id)?;
        fed.run_routed(id, |mut session| {
            session.set_field(id, "v", Value::Int(balance))?;
            session.commit()
        })?;
    }
    Ok(())
}

/// The staging half of a transfer of `amount` from account `from` to
/// account `to`: reads both committed balances, stages both new ones in
/// one cross-shard transaction and prepares it on every participant.
/// Returns the prepared transaction; the caller commits, aborts or
/// crashes its coordinator.
///
/// # Errors
///
/// [`Error::ObjectUnreachable`] when a balance cannot be read (nothing
/// is begun), a staging error (the transaction is aborted), or the
/// prepare refusal (the transaction resolved aborted).
pub(crate) fn prepare_transfer(
    fed: &mut FederatedCluster,
    from: &ObjectId,
    to: &ObjectId,
    amount: i64,
) -> Result<u64> {
    let read = |id: &ObjectId| {
        account_balance(fed, id).ok_or_else(|| Error::ObjectUnreachable(id.clone()))
    };
    let (from_balance, to_balance) = (read(from)?, read(to)?);
    let xtx = fed.xshard_begin();
    let staged = fed
        .xshard_set_field(xtx, from, "v", Value::Int(from_balance - amount))
        .and_then(|_| fed.xshard_set_field(xtx, to, "v", Value::Int(to_balance + amount)));
    if let Err(e) = staged {
        let _ = fed.xshard_abort(xtx);
        return Err(e);
    }
    fed.xshard_prepare(xtx)?;
    Ok(xtx)
}

/// Reconciles what degraded mode left on a healed `cluster` — the last
/// step of every heal the engine performs — with a handler that repairs
/// each violation it is shown ([`repair`]), adds the handler calls and
/// rollback candidates to `activity`, and records in `violations` a
/// report whose counters do not balance.
fn reconcile(
    cluster: &mut Cluster,
    activity: &mut ConstraintActivity,
    violations: &mut Vec<InvariantViolation>,
) {
    if !cluster.needs_reconciliation() {
        return;
    }
    let mut calls = 0;
    let mut handler = |violation: &ViolationReport, ops: &mut ReconOps<'_>| {
        calls += 1;
        repair(violation, ops).is_ok()
    };
    let summary = cluster.reconcile(&mut HighestVersionWins, &mut handler);
    activity.handler_calls += calls;
    activity.rollback_candidates += summary.constraints.rollback_candidates as u64;
    violations.extend(InvariantChecker::check_reconcile(&summary.constraints));
}

/// The application's compensating action for a violated constraint
/// (§5.2's roll-forward): sell no more than the seats and refund no
/// more than was sold, repair with a signal component, and tune both
/// endpoints of a channel to one frequency inside the band.
fn repair(violation: &ViolationReport, ops: &mut ReconOps<'_>) -> Result<()> {
    let Some(object) = &violation.identity.context_object else {
        return Err(Error::Config("no repair without a context object".into()));
    };
    match violation.identity.constraint.as_str() {
        "TicketConstraint" | "PartitionSensitiveTicketConstraint" => {
            let seats = ops.read(object, "seats")?;
            ops.write(object, "sold", seats)
        }
        "NonNegativeSales" => ops.write(object, "sold", Value::Int(0)),
        "ComponentKindReferenceConsistency" => {
            ops.write(object, "componentKind", Value::from(COMPONENT_KINDS[1]))
        }
        "ChannelConfigConsistency" | "FrequencyBand" => {
            let frequency = ops.read(object, "frequency")?.as_int().unwrap_or(150);
            let frequency = Value::Int(frequency.clamp(100, 199));
            if let Value::Ref(peer) = ops.read(object, "peer")? {
                ops.write(&peer, "frequency", frequency.clone())?;
            }
            ops.write(object, "frequency", frequency)
        }
        other => Err(Error::Config(format!("no repair for {other}"))),
    }
}

/// Creates voice channel `i` (§1.4's DTMS): two endpoints tuned to 150,
/// on neighbouring sites, each bound to its site and the next — a torn
/// journal tail on one replica is then not the endpoint's loss.
fn create_channel(cluster: &mut Cluster, i: u32, nodes: u32) -> Result<(ObjectId, ObjectId)> {
    let site = |k: u32| NodeId((i + k) % nodes);
    let ends = [0, 1].map(|k| ObjectId::new("ChannelEndpoint", format!("ch{i}@{}", site(k))));
    let [a, b] = ends.clone();
    cluster.run_tx(site(0), |c, tx| {
        for (k, (end, peer)) in [(0, (&a, &b)), (1, (&b, &a))] {
            let mut state = EntityState::for_class(c.app(), end)?;
            state.set_field("channel", Value::from(format!("ch{i}")), c.now());
            state.set_field("frequency", Value::Int(150), c.now());
            state.set_field("peer", Value::Ref(peer.clone()), c.now());
            c.create_bound(site(0), tx, state, vec![site(k), site(k + 1)], site(k))?;
        }
        Ok(())
    })?;
    let [a, b] = ends;
    Ok((a, b))
}

/// The shards of `fed`, in order.
fn shard_ids(fed: &FederatedCluster) -> impl Iterator<Item = ShardId> {
    (0..fed.shard_count()).map(ShardId)
}

/// One request of the workload, run in a session directly or through
/// the request plane.
type Work = Box<dyn for<'a> FnOnce(Session<'a>) -> Result<()>>;

/// What one shard's ops work on: its request plane, which reads and
/// writes route through when the seed drew it (idle otherwise), and its
/// application objects.
#[derive(Default)]
struct WorkingSet {
    plane: RequestPlane,
    flights: Vec<ObjectId>,
    /// Alarm / repair-report pairs.
    alarms: Vec<(ObjectId, ObjectId)>,
    /// The two endpoints of each channel.
    channels: Vec<(ObjectId, ObjectId)>,
}

/// Drives one seeded chaos run against a dedicated federation.
pub(crate) struct ChaosEngine {
    config: ChaosConfig,
    draws: SoakDraws,
    fed: FederatedCluster,
    /// Workload draws — a distinct stream from the schedule generator,
    /// so adding schedule entropy does not shift the workload.
    rng: Draws,
    /// Each shard's working set, in shard order.
    sets: Vec<WorkingSet>,
    /// The funded accounts transfers move value between, each with the
    /// balance its shard last served (`None`: unreadable there).
    accounts: Vec<(ObjectId, Option<i64>)>,
    created: u64,
    /// Hanging explicit 2PC sales, each with its shard.
    open_prepared: Vec<(ShardId, TxId)>,
    ops_ok: u64,
    ops_failed: u64,
    faults_applied: u64,
    faults_skipped: u64,
    in_doubt_resolved: u64,
    activity: ConstraintActivity,
    violations: Vec<InvariantViolation>,
}

impl ChaosEngine {
    /// Builds the soak federation: `shards` shards of `nodes` nodes,
    /// each with the seed's draws and the constraints registered
    /// through the §3.3 check.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] for fewer than two nodes or zero shards;
    /// propagates federation-construction failures.
    pub(crate) fn new(config: ChaosConfig) -> Result<Self> {
        if config.nodes < 2 {
            return Err(Error::Config("chaos needs at least two nodes".into()));
        }
        let draws = SoakDraws::of(config.seed, config.nodes);
        let shard_draws = draws.clone();
        let detector = config.detector;
        let mut fed = FederatedCluster::builder(config.shards, config.nodes, soak_app())
            .seed(config.seed)
            .policy(RoutingPolicy::RejectDegraded)
            .configure(move |shard| {
                // The membership seed is the federation's, plus the
                // shard.
                shard_draws.apply(shard).configure(|c| {
                    if detector {
                        c.membership.detector_enabled = true;
                        c.membership.detector = DetectorKind::Adaptive;
                    }
                })
            })
            .build()?;
        for s in shard_ids(&fed) {
            for constraint in soak_constraints() {
                fed.shard_mut(s)
                    .change_constraint(ConstraintChange::Add(constraint, None))?;
            }
        }
        Ok(Self {
            rng: Draws {
                stream: ChaosRng::new(config.seed ^ 0xC0FF_EE00_C0FF_EE00),
                recorded: Vec::new().into_iter(),
                taken: Vec::new(),
            },
            sets: shard_ids(&fed).map(|_| WorkingSet::default()).collect(),
            draws,
            fed,
            accounts: Vec::new(),
            created: 0,
            open_prepared: Vec::new(),
            ops_ok: 0,
            ops_failed: 0,
            faults_applied: 0,
            faults_skipped: 0,
            in_doubt_resolved: 0,
            activity: ConstraintActivity::default(),
            violations: Vec::new(),
            config,
        })
    }

    /// The buses a trace of this run records — attach sinks here before
    /// [`ChaosEngine::run`]: the federation's (routing and cross-shard
    /// 2PC), then each shard's.
    pub(crate) fn buses(&self) -> impl Iterator<Item = &Telemetry> {
        let shards = shard_ids(&self.fed).map(|s| self.fed.shard(s).telemetry());
        std::iter::once(self.fed.telemetry()).chain(shards)
    }

    /// Runs the seed-derived random schedule to completion: `ops` ops
    /// with `faults` faults among them.
    ///
    /// # Errors
    ///
    /// Propagates workload-seeding failures; fault application and
    /// workload errors are absorbed into the report.
    pub(crate) fn run(self) -> Result<ChaosReport> {
        let schedule = Schedule::random(&self.config);
        self.run_schedule(&schedule)
    }

    /// Runs an explicit schedule to completion.
    ///
    /// # Errors
    ///
    /// Propagates workload-seeding failures.
    pub(crate) fn run_schedule(mut self, schedule: &Schedule) -> Result<ChaosReport> {
        self.seed_objects()?;
        let mut ran = Vec::with_capacity(schedule.steps.len());
        let mut fault_no: u32 = 0;
        for step in &schedule.steps {
            match step {
                Step::Fault(shard, fault) => {
                    self.apply_step(fault_no, *shard, fault);
                    fault_no += 1;
                    self.check_invariants(*shard);
                    ran.push(step.clone());
                }
                Step::Op(draws) => {
                    self.rng.recorded = draws.clone().into_iter();
                    self.op();
                    ran.push(Step::Op(std::mem::take(&mut self.rng.taken)));
                }
            }
        }
        self.finish();
        let final_stats: Vec<StatsSnapshot> = (shard_ids(&self.fed))
            .map(|s| self.fed.shard(s).stats())
            .collect();
        for counters in final_stats.iter().map(|s| &s.telemetry.counters) {
            // One `negotiation.<mechanism>` counter per deciding mechanism.
            let negotiated = counters.iter().filter(|c| c.0.starts_with("negotiation."));
            self.activity.negotiations += negotiated.map(|c| c.1).sum::<u64>();
            self.activity.threats_stored += counters.get("ccm.threats_recorded").unwrap_or(&0);
        }
        Ok(ChaosReport {
            seed: self.config.seed,
            final_stats,
            draws: self.draws,
            ops_ok: self.ops_ok,
            ops_failed: self.ops_failed,
            faults_applied: self.faults_applied,
            faults_skipped: self.faults_skipped,
            in_doubt_resolved: self.in_doubt_resolved,
            violations: self.violations,
            constraints: self.activity,
            federation: *self.fed.stats(),
            schedule: Schedule { steps: ran },
        })
    }

    /// One workload op and the housekeeping after it: on every shard,
    /// one queued request dispatched (so plane traffic drains
    /// interleaved with faults and new arrivals), in-doubt transactions
    /// resolved and the failure detector polled.
    fn op(&mut self) {
        match self.workload_op() {
            Ok(()) => self.ops_ok += 1,
            Err(_) => self.ops_failed += 1,
        }
        self.fed.resolve_xshard_in_doubt();
        for s in shard_ids(&self.fed) {
            let cluster = self.fed.shard_mut(s);
            if self.draws.plane {
                self.sets[s.index()].plane.step(cluster);
            }
            self.in_doubt_resolved += cluster.resolve_in_doubt() as u64;
            cluster.poll_detector();
        }
        self.check_federation();
    }

    /// The post-fault invariant sweep: the running-cluster checks on
    /// the faulted shard (the threat-completeness audit among them) and
    /// its request accounting when the plane carries the workload, then
    /// the cross-shard invariants. A fault changes no other shard: each
    /// is checked after its own faults, as a one-shard run is.
    fn check_invariants(&mut self, shard: ShardId) {
        let cluster = self.fed.shard(shard);
        self.violations
            .extend(InvariantChecker::check_running(cluster));
        if self.draws.plane {
            let plane = &self.sets[shard.index()].plane;
            let found = InvariantChecker::check_plane(plane, cluster);
            self.violations.extend(found);
        }
        self.check_federation();
    }

    /// The cross-shard invariants, checked after every step. An
    /// account counts at the balance its shard serves while the shard
    /// is healthy, and at the one it last served while it is not: a
    /// transfer reaches a shard only while it is healthy, so that is
    /// the balance reconciliation will keep — where the shard's live
    /// nodes may hold only a lagged copy, the newest one sitting in a
    /// crashed node's journal.
    fn check_federation(&mut self) {
        let fed = &self.fed;
        for (id, served) in &mut self.accounts {
            if fed.shard(fed.map().shard_of(id)).mode() == SystemMode::Healthy {
                *served = account_balance(fed, id);
            }
        }
        self.violations.extend(InvariantChecker::check_federation(
            fed,
            &self.accounts,
            INITIAL_BALANCE * self.accounts.len() as i64,
            &self.open_prepared,
        ));
    }

    /// Creates the working set: on every shard flights, alarms with
    /// their repair reports, and channels whose endpoints are bound to
    /// neighbouring sites, numbered on across the shards; with two or
    /// more shards, the funded accounts.
    fn seed_objects(&mut self) -> Result<()> {
        let nodes = self.config.nodes;
        for s in shard_ids(&self.fed) {
            let cluster = self.fed.shard_mut(s);
            let set = &mut self.sets[s.index()];
            for i in s.0 * FLIGHTS..(s.0 + 1) * FLIGHTS {
                let seats = 6 + 2 * i64::from(i);
                let id =
                    flight::create_flight(cluster, NodeId(i % nodes), &format!("F-{i}"), seats, 0)?;
                set.flights.push(id);
            }
            for i in s.0 * ALARMS..(s.0 + 1) * ALARMS {
                let node = NodeId(i % nodes);
                let pair = ats::create_alarm_with_report(cluster, node, &format!("A-{i}"))?;
                set.alarms.push(pair);
            }
            for i in s.0 * CHANNELS..(s.0 + 1) * CHANNELS {
                let ends = create_channel(cluster, i, nodes)?;
                set.channels.push(ends);
            }
        }
        if self.fed.shard_count() > 1 {
            let ids: Vec<ObjectId> = (0..ACCOUNTS)
                .map(|i| ObjectId::new("Account", format!("acct-{i}")))
                .collect();
            fund_accounts(&mut self.fed, &ids, INITIAL_BALANCE)?;
            let served = ids.iter().map(|id| account_balance(&self.fed, id));
            self.accounts = ids.iter().cloned().zip(served).collect();
        }
        Ok(())
    }

    fn count_fault(&mut self, applied: bool) {
        if applied {
            self.faults_applied += 1;
        } else {
            self.faults_skipped += 1;
        }
    }

    /// One op on a live (shard, node) pair drawn from the whole
    /// federation: a hanging or finished 2PC sale, a created flight or
    /// alarm, a write (some of which violate on purpose), a read, or —
    /// with two or more shards — a cross-shard transfer.
    fn workload_op(&mut self) -> Result<()> {
        let fed = &self.fed;
        let live: Vec<(ShardId, NodeId)> = shard_ids(fed)
            .flat_map(|s| fed.shard(s).live_nodes().map(move |n| (s, n)))
            .collect();
        if live.is_empty() {
            return Err(Error::NodeCrashed(NodeId(0)));
        }
        let (shard, node) = *self.rng.pick(&live);
        let set = &self.sets[shard.index()];
        let roll = self.rng.below(100);
        if roll < 10 {
            // Sell one ticket in an explicit 2PC and leave it hanging
            // in prepared state — a later crash of `node` makes it
            // in-doubt. The transaction outlives the session borrow, so
            // detach it.
            let cluster = self.fed.shard_mut(shard);
            let tx = cluster.session(node).detach();
            let id = self.rng.pick(&set.flights).clone();
            let r = cluster
                .invoke(node, tx, &id, "sellTickets", vec![Value::Int(1)])
                .and_then(|_| cluster.prepare(tx));
            match r {
                Ok(()) => self.open_prepared.push((shard, tx)),
                Err(_) => {
                    let _ = cluster.rollback(tx);
                }
            }
            r
        } else if roll < 25 && !self.open_prepared.is_empty() {
            // Finish a hanging 2PC, on whichever shard it hangs: phase
            // 2 commit, or rollback.
            let idx = self.rng.below(self.open_prepared.len() as u64) as usize;
            let (on, tx) = self.open_prepared.swap_remove(idx);
            let cluster = self.fed.shard_mut(on);
            if self.rng.chance(50) {
                cluster.commit(tx)
            } else {
                cluster.rollback(tx)
            }
        } else if roll < 40 {
            let key = format!("C-{}", self.created);
            self.created += 1;
            let cluster = self.fed.shard_mut(shard);
            let set = &mut self.sets[shard.index()];
            if self.rng.chance(50) {
                let seats = 4 + self.rng.below(8) as i64;
                let id = flight::create_flight(cluster, node, &key, seats, 0)?;
                set.flights.push(id);
            } else {
                let pair = ats::create_alarm_with_report(cluster, node, &key)?;
                set.alarms.push(pair);
            }
            Ok(())
        } else if roll < 75 {
            let work = self.write(shard);
            self.submit(shard, node, work)
        } else if roll < 85 || self.accounts.is_empty() {
            // Without two shards there are no accounts to transfer between.
            let id = match self.rng.below(3) {
                0 => self.rng.pick(&set.flights).clone(),
                1 => self.rng.pick(&set.alarms).1.clone(),
                _ => self.rng.pick(&set.channels).0.clone(),
            };
            let field = match id.class().as_str() {
                "Flight" => "sold",
                "RepairReport" => "componentKind",
                _ => "frequency",
            };
            self.submit(
                shard,
                node,
                Box::new(move |mut session| session.get_field(&id, field).map(|_| ())),
            )
        } else {
            self.transfer()
        }
    }

    /// One write on `shard`. About a third of them violate a constraint
    /// when run in healthy mode: overselling a flight or refunding more
    /// than it sold, a component kind that does not fit a signal alarm
    /// (or a signal alarm over such a component), a channel endpoint
    /// retuned alone or out of the band.
    fn write(&mut self, shard: ShardId) -> Work {
        let set = &self.sets[shard.index()];
        match self.rng.below(4) {
            0 => {
                let id = self.rng.pick(&set.flights).clone();
                let count = self.rng.below(5) as i64 - 1;
                Box::new(move |mut session| {
                    session.invoke(&id, "sellTickets", vec![Value::Int(count)])?;
                    session.commit()
                })
            }
            1 => {
                let report = self.rng.pick(&set.alarms).1.clone();
                let kind = *self.rng.pick(&COMPONENT_KINDS);
                Box::new(move |mut session| {
                    session.set_field(&report, "componentKind", Value::from(kind))?;
                    session.commit()
                })
            }
            2 => {
                let alarm = self.rng.pick(&set.alarms).0.clone();
                let kind = *self.rng.pick(&ALARM_KINDS);
                Box::new(move |mut session| {
                    session.set_field(&alarm, "alarmKind", Value::from(kind))?;
                    session.commit()
                })
            }
            _ => {
                let (a, b) = self.rng.pick(&set.channels).clone();
                let frequency = Value::Int(95 + self.rng.below(110) as i64);
                let ends = match self.rng.below(3) {
                    0 => vec![a],
                    1 => vec![b],
                    _ => vec![a, b],
                };
                Box::new(move |mut session| {
                    for end in &ends {
                        session.set_field(end, "frequency", frequency.clone())?;
                    }
                    session.commit()
                })
            }
        }
    }

    /// Runs `work` on `node` of `shard`: in a session of its own, or
    /// submitted to the shard's request plane under a seed-derived
    /// priority class when the seed drew the plane. Admission errors
    /// (empty bucket, full queue) surface as failed ops; a queued
    /// request's execution outcome lands in the plane counters when it
    /// is dispatched later.
    fn submit(&mut self, shard: ShardId, node: NodeId, work: Work) -> Result<()> {
        let cluster = self.fed.shard_mut(shard);
        if !self.draws.plane {
            return work(cluster.session(node));
        }
        let class_roll = self.rng.below(100);
        let class = if class_roll < 15 {
            PriorityClass::Critical
        } else if class_roll < 70 {
            PriorityClass::Normal
        } else {
            PriorityClass::Background
        };
        self.sets[shard.index()]
            .plane
            .submit(cluster, node, class, work)
            .map(|_| ())
    }

    /// One cross-shard transfer between two accounts: it commits,
    /// aborts, or loses its coordinator (recovered later by presumed
    /// abort).
    fn transfer(&mut self) -> Result<()> {
        let n = self.accounts.len() as u64;
        let from = self.rng.below(n) as usize;
        let mut to = self.rng.below(n) as usize;
        if to == from {
            to = (to + 1) % self.accounts.len();
        }
        let amount = 1 + self.rng.below(5) as i64;
        let xtx = prepare_transfer(
            &mut self.fed,
            &self.accounts[from].0,
            &self.accounts[to].0,
            amount,
        )?;
        if self.rng.chance(ABORT_PCT) {
            self.fed.xshard_abort(xtx)
        } else if self.rng.chance(COORDINATOR_CRASH_PCT) {
            let crashed = self.fed.crash_coordinator(xtx);
            self.count_fault(crashed.is_ok());
            crashed
        } else {
            self.fed.xshard_commit(xtx)
        }
    }

    fn apply_step(&mut self, step_no: u32, shard: ShardId, step: &FaultStep) {
        let label = step.to_string();
        let cluster = self.fed.shard_mut(shard);
        cluster.telemetry().emit(|| TraceEvent::ChaosFault {
            step: step_no,
            fault: label.clone(),
        });
        let survivors = cluster.live_nodes().count() > 1;
        let applied = match step {
            // Never take down the last live node.
            FaultStep::Crash(node) => survivors && cluster.crash(*node).is_ok(),
            FaultStep::Restart(node) => cluster.restart(*node).is_ok(),
            FaultStep::Partition(groups) => cluster.partition(groups).is_ok(),
            FaultStep::Heal => {
                cluster.heal();
                if cluster.topology().is_healthy() {
                    reconcile(cluster, &mut self.activity, &mut self.violations);
                }
                true
            }
            FaultStep::WriteFaultWindow { node, failures } => {
                cluster.inject_write_fault(*node, *failures);
                true
            }
            FaultStep::ReplicaLag { node, updates } => {
                cluster.inject_replica_lag(*node, *updates);
                true
            }
            FaultStep::LinkJitter { micros } => cluster.set_default_link_jitter(*micros).is_ok(),
            FaultStep::LinkFlap {
                node,
                flaps,
                period_millis,
            } => link_flap(cluster, *node, *flaps, *period_millis),
            FaultStep::AsymmetricLoss {
                from,
                to,
                per_mille,
            } => cluster
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
                survivors
                    && !cluster.is_crashed(*node)
                    && cluster.corrupt_journal_tail(*node, 1).is_ok()
                    && cluster.crash(*node).is_ok()
            }
        };
        self.count_fault(applied);
    }

    /// The repair sequence that ends every run: drain hanging 2PC
    /// transactions, then on every shard restart each crashed node,
    /// heal, let the detector quiesce and drain the plane; wait out
    /// every presumed-abort deadline, shard-level and cross-shard; then
    /// on every shard reconcile and check convergence.
    fn finish(&mut self) {
        for (shard, tx) in std::mem::take(&mut self.open_prepared) {
            let cluster = self.fed.shard_mut(shard);
            if cluster.tx_is_open(tx) {
                match cluster.commit(tx) {
                    Ok(()) => self.ops_ok += 1,
                    Err(_) => self.ops_failed += 1,
                }
            }
        }
        for s in shard_ids(&self.fed) {
            let cluster = self.fed.shard_mut(s);
            let crashed: Vec<NodeId> = cluster.crashed_nodes().collect();
            for node in crashed {
                let _ = cluster.restart(node);
            }
            cluster.heal();
            if cluster.detector_enabled() {
                quiesce(cluster);
            }
            // With every node restarted and the fabric healed, drain
            // the plane: whatever survived admission must now complete,
            // shed or miss its deadline — nothing may simply vanish.
            if self.draws.plane {
                let plane = &mut self.sets[s.index()].plane;
                let queued = plane.run_until_idle(cluster).queued;
                if queued != 0 {
                    self.violations.push(InvariantViolation {
                        invariant: "plane_drained",
                        detail: format!("{queued} requests still queued on {s} after repair"),
                    });
                }
                let drained = InvariantChecker::check_plane(plane, cluster);
                self.violations.extend(drained);
            }
        }
        let timeout = shard_ids(&self.fed)
            .map(|s| self.fed.shard(s).costs().in_doubt_timeout)
            .max()
            .unwrap_or_default();
        self.fed.clock().advance(timeout);
        self.fed.resolve_xshard_in_doubt();
        if self.fed.open_xshard_count() != 0 {
            self.violations.push(InvariantViolation {
                invariant: "xshard_drained",
                detail: format!(
                    "{} cross-shard transaction(s) still open after the repair",
                    self.fed.open_xshard_count()
                ),
            });
        }
        for s in shard_ids(&self.fed) {
            let cluster = self.fed.shard_mut(s);
            self.in_doubt_resolved += cluster.resolve_in_doubt() as u64;
            reconcile(cluster, &mut self.activity, &mut self.violations);
            let converged = InvariantChecker::check_converged(cluster);
            self.violations.extend(converged);
        }
        self.check_federation();
    }
}

/// The engine's random draws, with [`ChaosRng`]'s calls: an op takes
/// them from the draws it recorded first, then from the seed's stream,
/// and every draw it takes is kept for the schedule it hands back.
struct Draws {
    stream: ChaosRng,
    /// The current op's recorded draws not yet taken.
    recorded: std::vec::IntoIter<u64>,
    /// The draws the current op has taken.
    taken: Vec<u64>,
}

impl Draws {
    /// A draw in `0..bound`; `bound == 0` returns 0 without a draw.
    fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        let draw = self
            .recorded
            .next()
            .unwrap_or_else(|| self.stream.next_u64());
        self.taken.push(draw);
        draw % bound
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

/// Severs and restores `node`'s physical links `flaps` times,
/// advancing the detector through each half-cycle — the stabilizer's
/// flap damping is what keeps this from translating into `2 × flaps`
/// installed views.
fn link_flap(cluster: &mut Cluster, node: NodeId, flaps: u32, period_millis: u64) -> bool {
    if !cluster.detector_enabled() || cluster.is_crashed(node) {
        return false;
    }
    let others: Vec<NodeId> = cluster.topology().nodes().filter(|n| *n != node).collect();
    let period = SimDuration::from_millis(period_millis);
    for _ in 0..flaps {
        if cluster.drop_links(&[vec![node], others.clone()]).is_err() {
            return false;
        }
        cluster.run_detector_for(period);
        if cluster.heal_links().is_err() {
            return false;
        }
        cluster.run_detector_for(period);
    }
    true
}

/// Gives the detector pipeline of a healed `cluster` time to observe
/// the fabric and decay any accumulated flap penalties, then insists on
/// quiescence: zero standing suspicions, one partition.
fn quiesce(cluster: &mut Cluster) {
    let _ = cluster.set_default_link_jitter(0);
    cluster.run_detector_for(SimDuration::from_secs(2));
    let mut rounds = 0;
    while rounds < 120 && (cluster.standing_suspicions() > 0 || !cluster.topology().is_healthy()) {
        cluster.run_detector_for(SimDuration::from_secs(1));
        rounds += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dedisys_core::{Histogram, JsonlExporter, SharedBuf};

    const S0: ShardId = ShardId(0);

    /// `seed` on one shard of the default size: `ops` ops, `faults`
    /// faults among them.
    fn config(seed: u64, ops: u64, faults: usize) -> ChaosConfig {
        ChaosConfig {
            seed,
            ops,
            faults,
            ..ChaosConfig::default()
        }
    }

    fn detector(seed: u64) -> ChaosConfig {
        ChaosConfig {
            detector: true,
            ..config(seed, 150, 12)
        }
    }

    /// `seed` on three shards of the default size.
    fn sharded(seed: u64) -> ChaosConfig {
        ChaosConfig {
            shards: 3,
            ..config(seed, 300, 24)
        }
    }

    /// Runs `config` on `schedule`, or on the seed's own.
    fn run(config: ChaosConfig, schedule: Option<&Schedule>) -> ChaosReport {
        let engine = ChaosEngine::new(config).expect("engine");
        let report = match schedule {
            Some(schedule) => engine.run_schedule(schedule),
            None => engine.run(),
        };
        report.expect("run")
    }

    /// What two runs of one configuration must agree on.
    fn outcome(r: &ChaosReport) -> [u64; 6] {
        let s = &r.final_stats[0];
        let (ok, failed, applied) = (r.ops_ok, r.ops_failed, r.faults_applied);
        [
            ok,
            failed,
            applied,
            r.faults_skipped,
            s.now_ns,
            s.events_emitted,
        ]
    }

    fn assert_clean(configs: impl IntoIterator<Item = ChaosConfig>) {
        for config in configs {
            let report = run(config, None);
            assert!(report.clean(), "{config:?}: {:?}", report.violations);
        }
    }

    #[test]
    fn fixed_seed_is_reproducible() {
        let (a, b) = (run(config(7, 200, 16), None), run(config(7, 200, 16), None));
        assert_eq!(outcome(&a), outcome(&b));
    }

    #[test]
    fn random_schedules_keep_invariants() {
        assert_clean((0..20).map(|seed| config(seed, 200, 16)));
    }

    #[test]
    fn detector_runs_are_reproducible() {
        assert_eq!(
            outcome(&run(detector(11), None)),
            outcome(&run(detector(11), None))
        );
    }

    #[test]
    fn detector_schedules_keep_invariants() {
        assert_clean((0..10).map(detector));
    }

    /// The first `n` seeds that draw the request plane.
    fn plane_seeds(n: usize) -> Vec<u64> {
        (0..)
            .filter(|&s| SoakDraws::of(s, 4).plane)
            .take(n)
            .collect()
    }

    /// The plane's traffic as the registry saw it: the
    /// `plane.latency.*` histograms, one observation per served request.
    fn plane_latencies(report: &ChaosReport) -> Vec<(&String, &Histogram)> {
        let histograms = &report.final_stats[0].telemetry.histograms;
        histograms
            .iter()
            .filter(|(name, _)| name.starts_with("plane.latency."))
            .collect()
    }

    #[test]
    fn plane_runs_are_reproducible() {
        let config = config(plane_seeds(1)[0], 200, 16);
        let (a, b) = (run(config, None), run(config, None));
        assert_eq!(outcome(&a), outcome(&b));
        assert_eq!(plane_latencies(&a), plane_latencies(&b));
    }

    #[test]
    fn plane_workload_conserves_requests_across_seeds() {
        // Request conservation (no admitted request lost) and the queue
        // bound hold on every seed that draws the plane, checked after
        // every fault and after the final drain.
        for seed in plane_seeds(100) {
            let report = run(config(seed, 60, 6), None);
            assert!(report.clean(), "seed {seed}: {:?}", report.violations);
            let served: u64 = plane_latencies(&report).iter().map(|(_, h)| h.count).sum();
            assert!(served > 0, "seed {seed} routed nothing through the plane");
        }
    }

    #[test]
    fn torn_journal_write_recovers_and_converges() {
        let schedule = Schedule::with_faults(
            200,
            [
                (60, S0, FaultStep::WalTornWrite { node: NodeId(1) }),
                (120, S0, FaultStep::Restart(NodeId(1))),
            ],
        );
        let report = run(config(5, 200, 0), Some(&schedule));
        assert!(report.clean(), "violations: {:?}", report.violations);
        assert_eq!(report.faults_applied, 2);
    }

    #[test]
    fn explicit_crash_during_prepare_resolves_in_doubt() {
        // Hand-written schedule: crash node 1 early and often enough
        // that a hanging prepared transaction coordinated there goes
        // in-doubt, then restart and let the run finish.
        let schedule = Schedule::with_faults(
            200,
            [
                (40, S0, FaultStep::Crash(NodeId(1))),
                (90, S0, FaultStep::Restart(NodeId(1))),
                (120, S0, FaultStep::Crash(NodeId(2))),
                (160, S0, FaultStep::Heal),
            ],
        );
        let report = run(config(3, 200, 0), Some(&schedule));
        assert!(report.clean(), "violations: {:?}", report.violations);
    }

    #[test]
    fn invalid_shapes_fail_typed() {
        let rejects =
            |config: ChaosConfig| matches!(ChaosEngine::new(config), Err(Error::Config(_)));
        let base = ChaosConfig::default();
        assert!(rejects(ChaosConfig { nodes: 1, ..base }));
        assert!(rejects(ChaosConfig { nodes: 0, ..base }));
        assert!(rejects(ChaosConfig { shards: 0, ..base }));
        assert!(ChaosEngine::new(ChaosConfig { nodes: 2, ..base }).is_ok());
    }

    /// Transfers run beside the constraints, the planned faults and the
    /// request plane on every shard: over a few seeds every transfer
    /// outcome occurs, every shard is faulted and constrained, and
    /// every run is clean.
    #[test]
    fn transfer_runs_are_clean_and_exercise_every_outcome() {
        let mut x = FederationStats::default();
        let (mut faulted, mut threats) = ([0; 3], [0; 3]);
        for seed in 0..4 {
            let r = run(sharded(seed), None);
            assert!(r.clean(), "seed {seed}: {:?}", r.violations);
            let f = r.federation;
            assert_eq!(f.xshard_begun, f.xshard_committed + f.xshard_aborted);
            x.xshard_committed += f.xshard_committed;
            x.xshard_aborted += f.xshard_aborted;
            x.xshard_presumed_aborted += f.xshard_presumed_aborted;
            for step in &r.schedule.steps {
                if let Step::Fault(shard, _) = step {
                    faulted[shard.index()] += 1;
                }
            }
            for (s, stats) in r.final_stats.iter().enumerate() {
                threats[s] += stats
                    .telemetry
                    .counters
                    .get("ccm.threats_recorded")
                    .unwrap_or(&0);
            }
        }
        assert!(x.xshard_committed > 0, "no transfer committed");
        assert!(x.xshard_aborted > x.xshard_presumed_aborted, "none aborted");
        assert!(x.xshard_presumed_aborted > 0, "no coordinator crashed");
        assert!(
            !faulted.contains(&0),
            "a shard was never faulted: {faulted:?}"
        );
        assert!(
            !threats.contains(&0),
            "a shard stored no threat: {threats:?}"
        );
    }

    #[test]
    fn transfer_runs_are_reproducible() {
        let (a, b) = (run(sharded(7), None), run(sharded(7), None));
        assert_eq!((outcome(&a), a.federation), (outcome(&b), b.federation));
    }

    /// Runs `config` traced, on `schedule` or on the seed's own, and
    /// returns the trace bytes with the report. A given schedule runs
    /// on a stream other than the seed's: every draw it needs must be
    /// recorded in it.
    fn traced(config: ChaosConfig, schedule: Option<&Schedule>) -> (Vec<u8>, ChaosReport) {
        let mut engine = ChaosEngine::new(config).expect("engine");
        let buffer = SharedBuf::default();
        for bus in engine.buses() {
            bus.attach(Box::new(JsonlExporter::new(Box::new(buffer.clone()))));
        }
        let report = match schedule {
            Some(schedule) => {
                engine.rng.stream = ChaosRng::new(!config.seed);
                engine.run_schedule(schedule)
            }
            None => engine.run(),
        };
        // The run dropped the engine, and the exporters flushed with it.
        (buffer.bytes(), report.expect("run"))
    }

    /// A run's schedule, run again, writes the run's trace byte for
    /// byte: the single-seed `chaos-soak` receipts' configurations
    /// (seeds 42 and 7, 11 under the detector, 3 on three shards), and
    /// three shards under the detector.
    #[test]
    fn a_run_replays_from_the_schedule_it_hands_back() {
        let base = ChaosConfig::default();
        let configs = [
            ChaosConfig { seed: 42, ..base },
            ChaosConfig { seed: 7, ..base },
            ChaosConfig {
                seed: 11,
                detector: true,
                ..base
            },
            sharded(3),
            ChaosConfig {
                detector: true,
                ..sharded(3)
            },
        ];
        for config in configs {
            let (trace, report) = traced(config, None);
            assert!(!trace.is_empty());
            let (again, replayed) = traced(config, Some(&report.schedule));
            assert!(trace == again, "{config:?}: the replay's trace differs");
            assert_eq!(replayed.schedule, report.schedule, "{config:?}");
        }
    }

    /// Shrinking a three-shard schedule against a planted failure — a
    /// fault on S1, an op, then a fault on S2 — keeps just those steps,
    /// each fault on its own shard, and what it keeps replays: its run
    /// hands back a schedule that rewrites the run's trace.
    #[test]
    fn a_sharded_schedule_shrinks_shard_by_shard_and_replays() {
        let config = sharded(3);
        let (_, report) = traced(config, None);
        let steps = &report.schedule.steps;
        let on = |shard| move |step: &Step| matches!(step, Step::Fault(s, _) if s.0 == shard);
        let first = steps.iter().position(on(1)).expect("a fault on S1");
        let last = steps.iter().rposition(on(2)).expect("a fault on S2");
        assert!(first < last, "S1 is faulted before S2's last fault");
        let planted = [steps[first].clone(), steps[last].clone()];
        // Fails iff the planted faults come in order with an op between.
        let fails = |schedule: &Schedule| {
            let mut rest = schedule.steps.iter();
            rest.any(|s| *s == planted[0])
                && rest.any(|s| matches!(s, Step::Op(_)))
                && rest.any(|s| *s == planted[1])
        };
        let (shrunk, _) = report.schedule.shrink(fails);
        assert_eq!(shrunk.steps.len(), 3, "{shrunk}");
        assert_eq!(shrunk.steps[0], planted[0]);
        assert!(matches!(shrunk.steps[1], Step::Op(_)));
        assert_eq!(shrunk.steps[2], planted[1]);
        let (trace, run) = traced(config, Some(&shrunk));
        let (again, replayed) = traced(config, Some(&run.schedule));
        assert!(trace == again, "the shrunk run's replay differs");
        assert_eq!(replayed.schedule, run.schedule);
    }
}
