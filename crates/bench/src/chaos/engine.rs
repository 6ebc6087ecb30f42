//! The chaos engine behind `repro chaos-soak`, a deterministic
//! robustness harness: seeded schedules of workload ops and faults
//! ([`Schedule`]), one engine that runs them ([`ChaosEngine`]) — the
//! paper's applications under their constraints on one shard, a
//! cross-shard transfer mix on several — and safety invariants
//! ([`InvariantChecker`]) checked after every injected fault. Among
//! them is threat completeness, checked by [`Cluster::audit`]:
//! dissertation §3.2 promises that no integrity violation goes
//! unnoticed, so every violation of an enabled invariant in the
//! committed state must be explained by a standing threat or a pending
//! reconciliation.
//!
//! Everything runs on the shared virtual clock, and every random
//! decision flows from one explicit seed through [`ChaosRng`]
//! (SplitMix64, defined in `dedisys-types`), so a chaos run is a
//! *reproducible artifact*: the seed of a failing soak is the bug
//! report, and two runs of the same seed write byte-identical JSONL
//! traces. A run hands back its schedule with every draw recorded
//! ([`ChaosReport::schedule`]); [`Schedule::shrink`] cuts a failing one
//! down to the few steps the failure needs.
//!
//! The engine interleaves seeded faults with a seeded workload on the
//! virtual clock, checks invariants after every fault, and finishes
//! with one repair sequence on every shard (restart → heal → resolve
//! in-doubt → reconcile → convergence check).
//!
//! The engine always drives a [`FederatedCluster`]; the shard count
//! picks the workload:
//!
//! * **application mix** (one shard, the classic soak) — the paper's
//!   three applications on shard 0 under their constraints: flights
//!   sold and refunded (`sellTickets`, the ticket constraint, its
//!   §5.5.2 partition-sensitive variant and the non-tradeable
//!   `NonNegativeSales`), alarms and repair reports (the inter-object
//!   `ComponentKindReferenceConsistency`), and site-bound channel
//!   endpoints retuned alone or in pairs (the soft
//!   `ChannelConfigConsistency` and the asynchronous `FrequencyBand`).
//!   Creates, reads, writes with designed violations and hanging
//!   explicit 2PC run under a [`Schedule`] of crashes, partitions,
//!   heals and store faults; every heal reconciles with a handler that
//!   repairs each violation it is shown. The seed also draws the
//!   validation and reconciliation settings ([`SoakDraws`]): whether
//!   the request plane carries the reads and writes, the negotiation
//!   timing, the application-wide default degree, node weights and the
//!   instructions every threat carries.
//! * **transfer mix** (two or more shards) — cross-shard balance
//!   transfers that commit, abort or lose their federation coordinator,
//!   under shard partitions and heals each op draws. Every committed
//!   transaction is a genuine cross-shard 2PC, and two invariants make
//!   atomicity violations visible as data: the committed balances
//!   always sum to the initial total (value conservation), and every
//!   begun cross-shard transaction is committed, aborted or still open
//!   (transaction conservation).
//!
//! Everything is derived from [`ChaosConfig::seed`]: the schedule, the
//! draws and the workload. Two runs with the same config produce the
//! same virtual-time trajectory and — with a JSONL exporter attached —
//! byte-identical trace files. A run is one loop over its schedule's
//! steps: a fault is applied and the invariants checked; an op runs on
//! the draws it recorded, then on the seed's stream (`Draws`), and
//! hands back every draw it took, so [`ChaosReport::schedule`] run
//! again replays the run exactly.

use crate::invariant::{InvariantChecker, InvariantViolation};
use crate::plan::{FaultStep, Schedule, Step};
use dedisys::apps::{ats, dtms, flight};
use dedisys_constraints::RegisteredConstraint;
use dedisys_core::{
    Cluster, ClusterBuilder, DetectorKind, HighestVersionWins, LinkFault, NegotiationTiming,
    NodeWeights, PlaneStats, ReconOps, ReconcileInstructions, RequestPlane, Session, StatsSnapshot,
    Telemetry, TraceEvent, ViolationReport,
};
use dedisys_federation::{FederatedCluster, FederationStats, RoutingPolicy, ShardId};
use dedisys_object::{AppDescriptor, ClassDescriptor, EntityState};
use dedisys_types::{
    ChaosRng, Error, NodeId, ObjectId, PriorityClass, Result, SatisfactionDegree, SimDuration,
    SystemMode, TxId, Value,
};

/// Flights the application mix creates up front.
const FLIGHTS: u32 = 4;
/// Alarm / repair-report pairs the application mix creates up front.
const ALARMS: u32 = 4;
/// Voice channels — two site-bound endpoints each — created up front.
const CHANNELS: u32 = 3;
/// The component kinds a repair report is set to: the first two keep a
/// signal alarm consistent, the last two violate it.
const COMPONENT_KINDS: [&str; 4] = ["Signal Controller", "Signal Cable", "Fuse", "Antenna"];
/// The alarm kinds an alarm is set to.
const ALARM_KINDS: [&str; 2] = ["Signal", "Power"];
/// Accounts the transfer mix funds up front.
const ACCOUNTS: u32 = 12;
/// Starting balance of every account; `ACCOUNTS * INITIAL_BALANCE` is
/// the conserved total.
const INITIAL_BALANCE: i64 = 100;
/// Per-op percent chance to partition one healthy shard.
const PARTITION_PCT: u64 = 15;
/// Per-op percent chance to heal (and reconcile) one degraded shard.
const HEAL_PCT: u64 = 30;
/// Percent of prepared transfers explicitly aborted.
const ABORT_PCT: u64 = 10;
/// Percent of prepared transfers whose federation coordinator crashes.
const COORDINATOR_CRASH_PCT: u64 = 10;
/// Virtual time between two transfer-mix ops.
const OP_TICK: SimDuration = SimDuration::from_millis(1);
/// The shard the application mix and the schedule's faults act on.
const SHARD0: ShardId = ShardId(0);

/// Configuration of one chaos-soak run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ChaosConfig {
    /// Nodes per shard (at least 2).
    pub(crate) nodes: u32,
    /// Workload operations [`ChaosEngine::run`] schedules.
    pub(crate) ops: u64,
    /// Fault steps [`ChaosEngine::run`] schedules across an
    /// application-mix run (the transfer mix's ops draw their shard
    /// faults).
    pub(crate) faults: usize,
    /// Master seed: fixes schedule, draws and workload.
    pub(crate) seed: u64,
    /// Shards in the federation: 1 runs the application mix, more run
    /// the cross-shard transfer mix.
    pub(crate) shards: u32,
    /// Drive membership through the adaptive failure-detection
    /// pipeline: the cluster runs a φ-accrual detector with flap
    /// damping, and the random schedule draws from the extended fault
    /// vocabulary (link flaps, asymmetric loss, jitter, torn journal
    /// writes). Off by default so classic seeds keep their historical
    /// schedules. Application mix only.
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

/// What an application-mix seed draws besides its schedule and
/// workload: the settings the paper leaves to the application.
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

/// How much constraint management a run exercised on shard 0.
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
    /// What the seed drew (`None` in the transfer mix).
    pub(crate) draws: Option<SoakDraws>,
    /// Workload operations that succeeded.
    pub(crate) ops_ok: u64,
    /// Workload operations that failed (availability, locks, vetoes,
    /// designed violations, refused or aborted transfers — expected
    /// under faults).
    pub(crate) ops_failed: u64,
    /// Fault steps applied (in the transfer mix: shard partitions,
    /// heals and coordinator crashes).
    pub(crate) faults_applied: u64,
    /// Fault steps skipped (inapplicable when reached).
    pub(crate) faults_skipped: u64,
    /// Shard-level in-doubt transactions resolved by presumed abort.
    pub(crate) in_doubt_resolved: u64,
    /// Every invariant violation observed (must be empty).
    pub(crate) violations: Vec<InvariantViolation>,
    /// Request-plane counters (all zero unless the seed drew the
    /// plane). Only the engine's tests read them: `chaos-soak` prints
    /// no plane line.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) plane: PlaneStats,
    /// Constraint-management counters (all zero in the transfer mix,
    /// which registers no constraint).
    pub(crate) constraints: ConstraintActivity,
    /// Cross-shard transaction counters (all zero in the application
    /// mix).
    pub(crate) federation: FederationStats,
    /// Final statistics snapshot of shard 0 — the whole cluster in the
    /// application mix.
    pub(crate) final_stats: StatsSnapshot,
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

/// The transfer mix's application, shared with `shard-sweep` and
/// `overload-sweep`: an `Item` with an integer field `n` and an
/// `Account` with an integer balance `v`, conventional accessors
/// dispatched by the method table.
pub(crate) fn chaos_app() -> AppDescriptor {
    AppDescriptor::new("chaos-soak")
        .with_class(ClassDescriptor::new("Item").with_field("n", Value::Int(0)))
        .with_class(ClassDescriptor::new("Account").with_field("v", Value::Int(0)))
}

/// The application mix's application: the classes of the flight
/// booking, alarm tracking and telecommunication management systems.
fn soak_app() -> AppDescriptor {
    let apps = [flight::flight_app(), ats::ats_app(), dtms::dtms_app()];
    let classes = apps.iter().flat_map(|app| app.classes()).cloned();
    classes.fold(AppDescriptor::new("chaos-soak"), AppDescriptor::with_class)
}

/// The application mix's constraints, in registration order.
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
/// each violation it is shown ([`repair`]), and adds the handler calls
/// and rollback candidates to `activity`.
fn reconcile(cluster: &mut Cluster, activity: &mut ConstraintActivity) {
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
}

/// The application's compensating action for a violated constraint of
/// the application mix (§5.2's roll-forward): sell no more than the
/// seats and refund no more than was sold, repair with a signal
/// component, and tune both endpoints of a channel to one frequency
/// inside the band.
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

/// One request of the application mix, run in a session directly or
/// through the request plane.
type Work = Box<dyn for<'a> FnOnce(Session<'a>) -> Result<()>>;

/// Drives one seeded chaos run against a dedicated federation.
pub(crate) struct ChaosEngine {
    config: ChaosConfig,
    draws: Option<SoakDraws>,
    fed: FederatedCluster,
    /// Workload draws — in the application mix a distinct stream from
    /// the schedule generator, so adding schedule entropy does not
    /// shift the workload.
    rng: Draws,
    /// The request plane the reads and writes route through when the
    /// seed drew it (idle otherwise).
    plane: RequestPlane,
    flights: Vec<ObjectId>,
    /// Alarm / repair-report pairs.
    alarms: Vec<(ObjectId, ObjectId)>,
    /// The two endpoints of each channel.
    channels: Vec<(ObjectId, ObjectId)>,
    accounts: Vec<ObjectId>,
    created: u64,
    open_prepared: Vec<TxId>,
    ops_ok: u64,
    ops_failed: u64,
    faults_applied: u64,
    faults_skipped: u64,
    in_doubt_resolved: u64,
    activity: ConstraintActivity,
    violations: Vec<InvariantViolation>,
}

impl ChaosEngine {
    /// Builds the soak federation: one shard of `nodes` nodes for the
    /// application mix, with its constraints registered on shard 0
    /// through the §3.3 check; `shards` of them for the transfer mix.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] for fewer than two nodes, zero shards, or the
    /// detector on a transfer mix; propagates federation-construction
    /// failures.
    pub(crate) fn new(config: ChaosConfig) -> Result<Self> {
        if config.nodes < 2 {
            return Err(Error::Config("chaos needs at least two nodes".into()));
        }
        if config.shards > 1 && config.detector {
            return Err(Error::Config(
                "the transfer mix runs without the detector".into(),
            ));
        }
        let transfers = config.shards > 1;
        let draws = (!transfers).then(|| SoakDraws::of(config.seed, config.nodes));
        let app = if transfers { chaos_app() } else { soak_app() };
        let mut builder = FederatedCluster::builder(config.shards, config.nodes, app)
            .seed(config.seed)
            .policy(RoutingPolicy::RouteAnyway);
        if let Some(draws) = draws.clone() {
            let detector = config.detector;
            builder = builder.configure(move |shard| {
                // The membership seed is the federation's, plus the
                // shard.
                draws.apply(shard).configure(|c| {
                    if detector {
                        c.membership.detector_enabled = true;
                        c.membership.detector = DetectorKind::Adaptive;
                    }
                })
            });
        }
        let mut fed = builder.build()?;
        if !transfers {
            for constraint in soak_constraints() {
                fed.shard_mut(SHARD0)
                    .add_constraint_with_check(constraint)?;
            }
        }
        let stream = if transfers {
            config.seed
        } else {
            config.seed ^ 0xC0FF_EE00_C0FF_EE00
        };
        Ok(Self {
            rng: Draws {
                stream: ChaosRng::new(stream),
                recorded: Vec::new().into_iter(),
                taken: Vec::new(),
            },
            plane: RequestPlane::new(),
            draws,
            fed,
            flights: Vec::new(),
            alarms: Vec::new(),
            channels: Vec::new(),
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

    /// The bus a trace of this run records — attach sinks here before
    /// [`ChaosEngine::run`]. In the application mix that is shard 0's
    /// bus, where every event happens; in the transfer mix it is the
    /// federation's (routing and cross-shard 2PC).
    pub(crate) fn telemetry(&self) -> &Telemetry {
        if self.transfers() {
            self.fed.telemetry()
        } else {
            self.fed.shard(SHARD0).telemetry()
        }
    }

    fn transfers(&self) -> bool {
        self.config.shards > 1
    }

    /// Whether the seed routes reads and writes through the plane.
    fn through_plane(&self) -> bool {
        self.draws.as_ref().is_some_and(|d| d.plane)
    }

    /// Runs the seed-derived random schedule to completion: `ops` ops
    /// with `faults` faults among them in the application mix, `ops`
    /// ops alone in the transfer mix, whose ops draw their faults.
    ///
    /// # Errors
    ///
    /// Propagates workload-seeding failures; fault application and
    /// workload errors are absorbed into the report.
    pub(crate) fn run(self) -> Result<ChaosReport> {
        let c = &self.config;
        let schedule = if self.transfers() {
            Schedule::with_faults(c.ops, [])
        } else if c.detector {
            Schedule::random_adaptive(c.seed, c.nodes, c.ops, c.faults)
        } else {
            Schedule::random(c.seed, c.nodes, c.ops, c.faults)
        };
        self.run_schedule(&schedule)
    }

    /// Runs an explicit schedule, whose faults act on shard 0, to
    /// completion.
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
                Step::Fault(fault) => {
                    self.apply_step(fault_no, fault);
                    fault_no += 1;
                    self.check_invariants();
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
        let shard0 = self.fed.shard(SHARD0);
        let metrics = shard0.telemetry().metrics();
        self.activity.threats_stored = metrics.counter("ccm.threats_recorded");
        self.activity.negotiations = [
            "negotiation.non_tradeable",
            "negotiation.dynamic",
            "negotiation.static",
            "negotiation.default",
        ]
        .into_iter()
        .map(|name| metrics.counter(name))
        .sum();
        Ok(ChaosReport {
            seed: self.config.seed,
            draws: self.draws,
            ops_ok: self.ops_ok,
            ops_failed: self.ops_failed,
            faults_applied: self.faults_applied,
            faults_skipped: self.faults_skipped,
            in_doubt_resolved: self.in_doubt_resolved,
            violations: self.violations,
            plane: *self.plane.stats(),
            constraints: self.activity,
            federation: *self.fed.stats(),
            final_stats: shard0.stats(),
            schedule: Schedule { steps: ran },
        })
    }

    /// One workload op and the housekeeping after it.
    fn op(&mut self) {
        let result = if self.transfers() {
            self.transfer_op()
        } else {
            self.app_op()
        };
        match result {
            Ok(()) => self.ops_ok += 1,
            Err(_) => self.ops_failed += 1,
        }
        // Dispatch one queued request per workload op, so plane
        // traffic drains interleaved with faults and new arrivals.
        if self.through_plane() {
            self.plane.step(self.fed.shard_mut(SHARD0));
        }
        self.fed.resolve_xshard_in_doubt();
        for s in shard_ids(&self.fed) {
            let cluster = self.fed.shard_mut(s);
            self.in_doubt_resolved += cluster.resolve_in_doubt() as u64;
            // The workload advanced the virtual clock; let the
            // failure detector process whatever heartbeats landed.
            cluster.poll_detector();
        }
        // Every transfer-mix op may have faulted a shard.
        if self.transfers() {
            self.check_invariants();
        }
    }

    /// The post-fault invariant sweep: the running-cluster checks on
    /// every shard (the threat-completeness audit among them),
    /// request accounting when the plane carries the workload, and the
    /// cross-shard invariants in the transfer mix.
    fn check_invariants(&mut self) {
        for s in shard_ids(&self.fed) {
            self.violations
                .extend(InvariantChecker::check_running(self.fed.shard(s)));
        }
        if self.through_plane() {
            self.violations.extend(InvariantChecker::check_plane(
                &self.plane,
                self.fed.shard(SHARD0),
            ));
        }
        self.check_federation();
    }

    /// The cross-shard invariants, in the transfer mix (the application
    /// mix holds single-shard locks between ops).
    fn check_federation(&mut self) {
        if self.transfers() {
            self.violations.extend(InvariantChecker::check_federation(
                &self.fed,
                &self.accounts,
                INITIAL_BALANCE * self.accounts.len() as i64,
            ));
        }
    }

    /// Creates the working set: funded accounts in the transfer mix;
    /// flights, alarms with their repair reports, and channels whose
    /// endpoints are bound to neighbouring sites in the application
    /// mix.
    fn seed_objects(&mut self) -> Result<()> {
        if self.transfers() {
            self.accounts = (0..ACCOUNTS)
                .map(|i| ObjectId::new("Account", format!("acct-{i}")))
                .collect();
            return fund_accounts(&mut self.fed, &self.accounts, INITIAL_BALANCE);
        }
        let nodes = self.config.nodes;
        let cluster = self.fed.shard_mut(SHARD0);
        for i in 0..FLIGHTS {
            let seats = 6 + 2 * i64::from(i);
            let id =
                flight::create_flight(cluster, NodeId(i % nodes), &format!("F-{i}"), seats, 0)?;
            self.flights.push(id);
        }
        for i in 0..ALARMS {
            let node = NodeId(i % nodes);
            let pair = ats::create_alarm_with_report(cluster, node, &format!("A-{i}"))?;
            self.alarms.push(pair);
        }
        for i in 0..CHANNELS {
            let ends = create_channel(cluster, i, nodes)?;
            self.channels.push(ends);
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

    /// One application-mix op on shard 0: a hanging or finished 2PC
    /// sale, a created flight or alarm, a write (some of which violate
    /// on purpose) or a read.
    fn app_op(&mut self) -> Result<()> {
        let live: Vec<NodeId> = self.fed.shard(SHARD0).live_nodes().collect();
        if live.is_empty() {
            return Err(Error::NodeCrashed(NodeId(0)));
        }
        let node = *self.rng.pick(&live);
        let roll = self.rng.below(100);
        let cluster = self.fed.shard_mut(SHARD0);
        if roll < 10 {
            // Sell one ticket in an explicit 2PC and leave it hanging
            // in prepared state — a later crash of `node` makes it
            // in-doubt. The transaction outlives the session borrow, so
            // detach it.
            let tx = cluster.session(node).detach();
            let id = self.rng.pick(&self.flights).clone();
            let r = cluster
                .invoke(node, tx, &id, "sellTickets", vec![Value::Int(1)])
                .and_then(|_| cluster.prepare(tx));
            match r {
                Ok(()) => self.open_prepared.push(tx),
                Err(_) => {
                    let _ = cluster.rollback(tx);
                }
            }
            r
        } else if roll < 25 && !self.open_prepared.is_empty() {
            // Finish a hanging 2PC: phase 2 commit, or rollback.
            let idx = self.rng.below(self.open_prepared.len() as u64) as usize;
            let tx = self.open_prepared.swap_remove(idx);
            if self.rng.chance(50) {
                cluster.commit(tx)
            } else {
                cluster.rollback(tx)
            }
        } else if roll < 40 {
            let key = format!("C-{}", self.created);
            self.created += 1;
            if self.rng.chance(50) {
                let seats = 4 + self.rng.below(8) as i64;
                let id = flight::create_flight(cluster, node, &key, seats, 0)?;
                self.flights.push(id);
            } else {
                let pair = ats::create_alarm_with_report(cluster, node, &key)?;
                self.alarms.push(pair);
            }
            Ok(())
        } else if roll < 75 {
            let work = self.write();
            self.submit(node, work)
        } else {
            let id = match self.rng.below(3) {
                0 => self.rng.pick(&self.flights).clone(),
                1 => self.rng.pick(&self.alarms).1.clone(),
                _ => self.rng.pick(&self.channels).0.clone(),
            };
            let field = match id.class().as_str() {
                "Flight" => "sold",
                "RepairReport" => "componentKind",
                _ => "frequency",
            };
            self.submit(
                node,
                Box::new(move |mut session| session.get_field(&id, field).map(|_| ())),
            )
        }
    }

    /// One write of the application mix. About a third of them violate
    /// a constraint when run in healthy mode: overselling a flight or
    /// refunding more than it sold, a component kind that does not fit
    /// a signal alarm (or a signal alarm over such a component), a
    /// channel endpoint retuned alone or out of the band.
    fn write(&mut self) -> Work {
        match self.rng.below(4) {
            0 => {
                let id = self.rng.pick(&self.flights).clone();
                let count = self.rng.below(5) as i64 - 1;
                Box::new(move |mut session| {
                    session.invoke(&id, "sellTickets", vec![Value::Int(count)])?;
                    session.commit()
                })
            }
            1 => {
                let report = self.rng.pick(&self.alarms).1.clone();
                let kind = *self.rng.pick(&COMPONENT_KINDS);
                Box::new(move |mut session| {
                    session.set_field(&report, "componentKind", Value::from(kind))?;
                    session.commit()
                })
            }
            2 => {
                let alarm = self.rng.pick(&self.alarms).0.clone();
                let kind = *self.rng.pick(&ALARM_KINDS);
                Box::new(move |mut session| {
                    session.set_field(&alarm, "alarmKind", Value::from(kind))?;
                    session.commit()
                })
            }
            _ => {
                let (a, b) = self.rng.pick(&self.channels).clone();
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

    /// Runs `work` on `node`: in a session of its own, or submitted to
    /// the request plane under a seed-derived priority class when the
    /// seed drew the plane. Admission errors (empty bucket, full queue)
    /// surface as failed ops; a queued request's execution outcome
    /// lands in the plane counters when it is dispatched later.
    fn submit(&mut self, node: NodeId, work: Work) -> Result<()> {
        if !self.through_plane() {
            return work(self.fed.shard_mut(SHARD0).session(node));
        }
        let class_roll = self.rng.below(100);
        let class = if class_roll < 15 {
            PriorityClass::Critical
        } else if class_roll < 70 {
            PriorityClass::Normal
        } else {
            PriorityClass::Background
        };
        self.plane
            .submit(self.fed.shard_mut(SHARD0), node, class, work)
            .map(|_| ())
    }

    /// One transfer-mix op: a tick of virtual time, the shard faults it
    /// draws, then one cross-shard transfer that commits, aborts or
    /// loses its coordinator (recovered later by presumed abort).
    fn transfer_op(&mut self) -> Result<()> {
        self.fed.clock().advance(OP_TICK);
        self.shard_faults();
        let n = self.accounts.len() as u64;
        let from = self.rng.below(n) as usize;
        let mut to = self.rng.below(n) as usize;
        if to == from {
            to = (to + 1) % self.accounts.len();
        }
        let amount = 1 + self.rng.below(5) as i64;
        let xtx = prepare_transfer(
            &mut self.fed,
            &self.accounts[from],
            &self.accounts[to],
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

    /// Maybe partitions one healthy shard (a strict majority keeps node
    /// 0, where the shard's transactions run, writable) and maybe heals
    /// one degraded shard.
    fn shard_faults(&mut self) {
        let shards = u64::from(self.fed.shard_count());
        let nodes = self.config.nodes;
        if self.rng.chance(PARTITION_PCT) {
            let shard = self.fed.shard_mut(ShardId(self.rng.below(shards) as u32));
            let cut = nodes / 2 + 1;
            let applied = shard.mode() == SystemMode::Healthy
                && cut < nodes
                && shard
                    .partition(&[
                        (0..cut).map(NodeId).collect(),
                        (cut..nodes).map(NodeId).collect(),
                    ])
                    .is_ok();
            self.count_fault(applied);
        }
        if self.rng.chance(HEAL_PCT) {
            let shard = self.fed.shard_mut(ShardId(self.rng.below(shards) as u32));
            let applied = shard.mode() == SystemMode::Degraded;
            if applied {
                shard.heal();
                reconcile(shard, &mut self.activity);
            }
            self.count_fault(applied);
        }
    }

    fn apply_step(&mut self, step_no: u32, step: &FaultStep) {
        let label = step.to_string();
        self.telemetry().emit(|| TraceEvent::ChaosFault {
            step: step_no,
            fault: label.clone(),
        });
        let survivors = self.fed.shard(SHARD0).live_nodes().count() > 1;
        let cluster = self.fed.shard_mut(SHARD0);
        let applied = match step {
            // Never take down the last live node.
            FaultStep::Crash(node) => survivors && cluster.crash(*node).is_ok(),
            FaultStep::Restart(node) => cluster.restart(*node).is_ok(),
            FaultStep::Partition(groups) => cluster.partition(groups).is_ok(),
            FaultStep::Heal => {
                cluster.heal();
                if cluster.topology().is_healthy() {
                    reconcile(cluster, &mut self.activity);
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
    /// heal and let the detector quiesce; drain the plane; wait out
    /// every presumed-abort deadline, shard-level and cross-shard;
    /// reconcile; and check convergence.
    fn finish(&mut self) {
        let cluster = self.fed.shard_mut(SHARD0);
        for tx in std::mem::take(&mut self.open_prepared) {
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
        }
        // With every node restarted and the fabric healed, drain the
        // plane: whatever survived admission must now complete, shed
        // or miss its deadline — nothing may simply vanish.
        if self.through_plane() {
            let cluster = self.fed.shard_mut(SHARD0);
            let report = self.plane.run_until_idle(cluster);
            if report.queued != 0 {
                self.violations.push(InvariantViolation {
                    invariant: "plane_drained",
                    detail: format!("{} requests still queued after repair", report.queued),
                });
            }
            self.violations
                .extend(InvariantChecker::check_plane(&self.plane, cluster));
        }
        let timeout = self.fed.shard(SHARD0).costs().in_doubt_timeout;
        self.fed.clock().advance(timeout);
        self.fed.resolve_xshard_in_doubt();
        for s in shard_ids(&self.fed) {
            let cluster = self.fed.shard_mut(s);
            self.in_doubt_resolved += cluster.resolve_in_doubt() as u64;
            reconcile(cluster, &mut self.activity);
        }
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
            self.violations
                .extend(InvariantChecker::check_converged(self.fed.shard(s)));
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
    use dedisys_core::{JsonlExporter, SharedBuf};

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

    /// The first `n` seeds that draw the request plane.
    fn plane_seeds(n: usize) -> Vec<u64> {
        (0..)
            .filter(|&s| SoakDraws::of(s, 4).plane)
            .take(n)
            .collect()
    }

    fn run_plane_seed(seed: u64, ops: u64, faults: usize) -> ChaosReport {
        let engine = ChaosEngine::new(ChaosConfig {
            seed,
            ops,
            faults,
            ..ChaosConfig::default()
        })
        .expect("engine");
        engine.run().expect("run")
    }

    #[test]
    fn plane_runs_are_reproducible() {
        let seed = plane_seeds(1)[0];
        let a = run_plane_seed(seed, 200, 16);
        let b = run_plane_seed(seed, 200, 16);
        assert_eq!(a.ops_ok, b.ops_ok);
        assert_eq!(a.ops_failed, b.ops_failed);
        assert_eq!(a.plane, b.plane);
        assert_eq!(a.final_stats.now_ns, b.final_stats.now_ns);
        assert_eq!(a.final_stats.events_emitted, b.final_stats.events_emitted);
    }

    #[test]
    fn plane_workload_conserves_requests_across_seeds() {
        // Request conservation (no admitted request lost) and the queue
        // bound hold on every seed that draws the plane, checked after
        // every fault and after the final drain.
        for seed in plane_seeds(100) {
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
        let schedule = Schedule::with_faults(
            200,
            [
                (60, FaultStep::WalTornWrite { node: NodeId(1) }),
                (120, FaultStep::Restart(NodeId(1))),
            ],
        );
        let engine = ChaosEngine::new(ChaosConfig {
            seed: 5,
            ops: 200,
            ..ChaosConfig::default()
        })
        .expect("engine");
        let report = engine.run_schedule(&schedule).expect("run");
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
                (40, FaultStep::Crash(NodeId(1))),
                (90, FaultStep::Restart(NodeId(1))),
                (120, FaultStep::Crash(NodeId(2))),
                (160, FaultStep::Heal),
            ],
        );
        let engine = ChaosEngine::new(ChaosConfig {
            seed: 3,
            ops: 200,
            ..ChaosConfig::default()
        })
        .expect("engine");
        let report = engine.run_schedule(&schedule).expect("run");
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
        assert!(rejects(ChaosConfig {
            shards: 3,
            detector: true,
            ..base
        }));
        assert!(ChaosEngine::new(ChaosConfig { nodes: 2, ..base }).is_ok());
    }

    fn transfer_run(seed: u64) -> ChaosReport {
        ChaosEngine::new(ChaosConfig {
            seed,
            shards: 3,
            nodes: 3,
            ops: 80,
            ..ChaosConfig::default()
        })
        .expect("engine")
        .run()
        .expect("run")
    }

    #[test]
    fn transfer_runs_are_clean_and_exercise_every_outcome() {
        let r = transfer_run(3);
        assert!(r.clean(), "{:?}", r.violations);
        let x = r.federation;
        assert!(x.xshard_committed > 0, "no transfer committed");
        assert!(x.xshard_aborted > 0, "no transfer aborted");
        assert!(x.xshard_presumed_aborted > 0, "no coordinator crashed");
        assert_eq!(x.xshard_begun, x.xshard_committed + x.xshard_aborted);
        assert!(r.faults_applied > 0, "no shard faulted");
    }

    #[test]
    fn transfer_runs_are_reproducible() {
        let (a, b) = (transfer_run(7), transfer_run(7));
        assert_eq!(a.federation, b.federation);
        assert_eq!(
            (a.ops_ok, a.ops_failed, a.faults_applied, a.faults_skipped),
            (b.ops_ok, b.ops_failed, b.faults_applied, b.faults_skipped)
        );
        assert_eq!(a.final_stats.now_ns, b.final_stats.now_ns);
    }

    /// Runs `config` traced, on `schedule` or on the seed's own, and
    /// returns the trace bytes with the report. A given schedule runs
    /// on a stream other than the seed's: every draw it needs must be
    /// recorded in it.
    fn traced(config: ChaosConfig, schedule: Option<&Schedule>) -> (Vec<u8>, ChaosReport) {
        let mut engine = ChaosEngine::new(config).expect("engine");
        let buffer = SharedBuf::default();
        let exporter = JsonlExporter::new(Box::new(buffer.clone()));
        engine.telemetry().attach(Box::new(exporter));
        let report = match schedule {
            Some(schedule) => {
                engine.rng.stream = ChaosRng::new(!config.seed);
                engine.run_schedule(schedule)
            }
            None => engine.run(),
        };
        // The run dropped the engine, and the exporter flushed with it.
        (buffer.bytes(), report.expect("run"))
    }

    /// A run's schedule, run again, writes the run's trace byte for
    /// byte: the single-seed `chaos-soak` receipts' configurations
    /// (seeds 42 and 7, 11 under the detector, 3 on three shards).
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
            ChaosConfig {
                seed: 3,
                shards: 3,
                nodes: 3,
                ops: 200,
                ..base
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
}
