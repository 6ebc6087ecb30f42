//! The deterministic request plane: admission control, priority
//! queues and deadline-based shedding in front of a [`Cluster`].
//!
//! Every client interaction so far called straight into the cluster;
//! under overload that means every request executes, critical or not,
//! and latency grows without bound. The [`RequestPlane`] puts the
//! classic dependability front-end from the paper's middleware stack
//! in between:
//!
//! * **Admission control** — one token bucket per node
//!   ([`REFILL_PER_SECOND`] / [`PlaneConfig::burst`]), refilled on the
//!   *virtual* clock. An empty bucket refuses the request at admission
//!   with [`Error::Overloaded`].
//! * **Priority queues** — per node, one FIFO per [`PriorityClass`],
//!   [`QUEUE_CAPACITY`] requests in all. An arrival at the bound
//!   displaces the newest queued strictly-lower-priority request (shed
//!   with cause `displaced`) or is rejected.
//! * **Deadline shedding** — expired work is dropped *before*
//!   execution, never after paying for it
//!   (`request_deadline_missed`); a request's deadline is its class's
//!   [`DEFAULT_DEADLINE`] unless it was submitted with its own.
//! * **Mode-coupled backpressure** — while the system is not healthy
//!   (degraded or reconciling), queued `Background` work is shed before
//!   anything is dispatched. This is the plane's one mode rule: the
//!   system mode never refuses at admission. Where a write may run is
//!   the replication protocol's decision, taken when the request
//!   executes, and a router in front of several clusters (the
//!   federation) applies its policy before it submits.
//!
//! Requests are closures over the [`Session`] API: the plane opens the
//! session on the request's node and the closure drives
//! invoke/commit/rollback itself. Dispatch is deterministic — strict
//! priority order, FIFO within a class, ties broken by global
//! admission sequence — so two same-seed runs produce byte-identical
//! traces. The plane reads [`Cluster::config`] live at every admission
//! and dispatch, so [`Cluster::reconfigure`] takes effect mid-run.

use crate::cluster::Cluster;
use crate::config::PlaneConfig;
use crate::session::Session;
use dedisys_telemetry::{AdmissionReject, InvocationOutcome, ShedCause, TraceEvent};
use dedisys_types::{Error, NodeId, PriorityClass, Result, SimDuration, SimTime, SystemMode};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};

/// A queued unit of work: the closure receives an owned [`Session`] on
/// the request's node and drives commit/rollback itself.
type RequestWork = Box<dyn for<'a> FnOnce(Session<'a>) -> Result<()>>;

/// Per-node bound on the total queued requests across all priority
/// classes. An arrival at the bound displaces queued lower-priority
/// work or is rejected.
pub const QUEUE_CAPACITY: u32 = 16;

/// Token-bucket refill rate, in admissions per virtual second.
pub const REFILL_PER_SECOND: u64 = 2_000;

/// The relative deadline of a request submitted without one, indexed by
/// [`PriorityClass::rank`]: none for `Critical`, 250 ms for `Normal`,
/// 1 s for `Background`.
pub const DEFAULT_DEADLINE: [Option<SimDuration>; 3] = [
    None,
    Some(SimDuration::from_millis(250)),
    Some(SimDuration::from_millis(1_000)),
];

/// Token-bucket scaling: one token = `SCALE` bucket units, so refill
/// arithmetic stays in integers (floats would break determinism).
const SCALE: u64 = 1_000_000_000;

struct Queued {
    id: u64,
    /// Global admission sequence — the deterministic FIFO tiebreaker
    /// across nodes within one priority class.
    seq: u64,
    node: NodeId,
    class: PriorityClass,
    admitted_at: SimTime,
    deadline: Option<SimTime>,
    work: RequestWork,
}

struct NodeQueues {
    classes: [VecDeque<Queued>; 3],
    /// Bucket level in `SCALE` units of a token.
    bucket: u64,
    last_refill: SimTime,
}

impl NodeQueues {
    fn new(config: &PlaneConfig, now: SimTime) -> Self {
        Self {
            classes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            bucket: u64::from(config.burst) * SCALE,
            last_refill: now,
        }
    }

    fn refill(&mut self, config: &PlaneConfig, now: SimTime) {
        let elapsed = now.since(self.last_refill).as_nanos();
        self.last_refill = now;
        // `REFILL_PER_SECOND` tokens over 1e9 ns, in `SCALE` (= 1e9)
        // units per token: the factors cancel to ns × tokens/s.
        let earned = u128::from(elapsed) * u128::from(REFILL_PER_SECOND);
        let cap = u128::from(config.burst) * u128::from(SCALE);
        self.bucket = (u128::from(self.bucket) + earned).min(cap) as u64;
    }

    fn depth(&self) -> u32 {
        self.classes.iter().map(|q| q.len() as u32).sum()
    }
}

/// Per-class admission/execution counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ClassCounters {
    /// Requests submitted (admitted or not).
    pub offered: u64,
    /// Requests that passed admission into a queue.
    pub admitted: u64,
    /// Requests refused at admission (bucket empty, queue full).
    pub rejected: u64,
    /// Admitted requests that executed (successfully or not).
    pub completed: u64,
    /// Executed requests whose closure returned an error.
    pub failed: u64,
    /// Admitted requests dropped before execution (displacement or
    /// mode pressure).
    pub shed: u64,
    /// Admitted requests dropped because their deadline passed while
    /// queued.
    pub deadline_missed: u64,
}

impl ClassCounters {
    fn absorb(&mut self, other: &ClassCounters) {
        self.offered += other.offered;
        self.admitted += other.admitted;
        self.rejected += other.rejected;
        self.completed += other.completed;
        self.failed += other.failed;
        self.shed += other.shed;
        self.deadline_missed += other.deadline_missed;
    }
}

/// The plane's counters, split by [`PriorityClass`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PlaneStats {
    /// Counters for [`PriorityClass::Critical`].
    pub critical: ClassCounters,
    /// Counters for [`PriorityClass::Normal`].
    pub normal: ClassCounters,
    /// Counters for [`PriorityClass::Background`].
    pub background: ClassCounters,
}

impl PlaneStats {
    /// The counters for `class`.
    pub fn class(&self, class: PriorityClass) -> &ClassCounters {
        match class {
            PriorityClass::Critical => &self.critical,
            PriorityClass::Normal => &self.normal,
            PriorityClass::Background => &self.background,
        }
    }

    fn class_mut(&mut self, class: PriorityClass) -> &mut ClassCounters {
        match class {
            PriorityClass::Critical => &mut self.critical,
            PriorityClass::Normal => &mut self.normal,
            PriorityClass::Background => &mut self.background,
        }
    }

    /// All classes summed.
    pub fn total(&self) -> ClassCounters {
        let mut t = ClassCounters::default();
        for class in PriorityClass::ALL {
            t.absorb(self.class(class));
        }
        t
    }

    /// The conservation invariant the chaos checker asserts:
    /// every offered request is accounted for —
    /// `offered == admitted + rejected` and
    /// `admitted == completed + shed + deadline_missed + queued`.
    pub fn conserves(&self, queued: u64) -> bool {
        let t = self.total();
        t.offered == t.admitted + t.rejected
            && t.admitted == t.completed + t.shed + t.deadline_missed + queued
    }
}

/// What [`RequestPlane::run_until_idle`] drained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlaneReport {
    /// Dispatch steps taken (executions + sheds + deadline drops).
    pub steps: u64,
    /// Requests still queued afterwards (0 unless a queue was refilled
    /// concurrently — `run_until_idle` drains everything).
    pub queued: u64,
    /// Counter snapshot at completion.
    pub stats: PlaneStats,
}

/// The deterministic request plane in front of one [`Cluster`]. See
/// the module docs for the admission/dispatch contract.
///
/// The plane holds no clock or telemetry of its own — every operation
/// takes `&mut Cluster` and reads the shared virtual clock, the
/// telemetry bus and the live [`PlaneConfig`] from it.
#[derive(Default)]
pub struct RequestPlane {
    queues: BTreeMap<NodeId, NodeQueues>,
    next_id: u64,
    next_seq: u64,
    stats: PlaneStats,
}

impl std::fmt::Debug for RequestPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RequestPlane")
            .field("queued", &self.queued_total())
            .field("stats", &self.stats)
            .finish()
    }
}

impl RequestPlane {
    /// An empty plane.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counters so far.
    pub fn stats(&self) -> &PlaneStats {
        &self.stats
    }

    /// Requests currently queued on `node`.
    pub fn queue_depth(&self, node: NodeId) -> u32 {
        self.queues.get(&node).map_or(0, NodeQueues::depth)
    }

    /// Requests currently queued across all nodes.
    pub fn queued_total(&self) -> u64 {
        self.queues.values().map(|q| u64::from(q.depth())).sum()
    }

    /// Whether the conservation invariant holds right now (see
    /// [`PlaneStats::conserves`]).
    pub fn conserves(&self) -> bool {
        self.stats.conserves(self.queued_total())
    }

    /// Submits `work` on `node` under `class` with the class's
    /// [`DEFAULT_DEADLINE`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Overloaded`] when the node's token bucket is
    /// empty, or its queues are full and nothing lower-priority could
    /// be displaced.
    pub fn submit(
        &mut self,
        cluster: &mut Cluster,
        node: NodeId,
        class: PriorityClass,
        work: impl for<'a> FnOnce(Session<'a>) -> Result<()> + 'static,
    ) -> Result<u64> {
        self.submit_with_deadline(cluster, node, class, DEFAULT_DEADLINE[class.rank()], work)
    }

    /// Submits `work` with an explicit relative deadline (`None`: no
    /// deadline), overriding the class default.
    ///
    /// # Errors
    ///
    /// As [`RequestPlane::submit`].
    pub fn submit_with_deadline(
        &mut self,
        cluster: &mut Cluster,
        node: NodeId,
        class: PriorityClass,
        deadline: Option<SimDuration>,
        work: impl for<'a> FnOnce(Session<'a>) -> Result<()> + 'static,
    ) -> Result<u64> {
        let config = cluster.config().plane;
        let now = cluster.clock().now();
        self.next_id += 1;
        let id = self.next_id;
        self.stats.class_mut(class).offered += 1;

        let entry = self
            .queues
            .entry(node)
            .or_insert_with(|| NodeQueues::new(&config, now));
        entry.refill(&config, now);
        if entry.bucket < SCALE {
            let depth = entry.depth();
            self.reject(cluster, id, node, class, AdmissionReject::Overloaded);
            return Err(Error::Overloaded { node, depth });
        }

        if entry.depth() >= QUEUE_CAPACITY {
            // Displace the newest queued request of the lowest class
            // strictly below the arrival — or reject.
            let victim_rank = (class.rank() + 1..PriorityClass::ALL.len())
                .rev()
                .find(|&r| !entry.classes[r].is_empty());
            match victim_rank {
                Some(r) => {
                    let victim = entry.classes[r].pop_back().expect("victim queue nonempty");
                    self.shed(cluster, victim, ShedCause::Displaced);
                }
                None => {
                    let depth = self.queues[&node].depth();
                    self.reject(cluster, id, node, class, AdmissionReject::QueueFull);
                    return Err(Error::Overloaded { node, depth });
                }
            }
        }

        let entry = self.queues.get_mut(&node).expect("queue entry just made");
        entry.bucket -= SCALE;
        self.next_seq += 1;
        entry.classes[class.rank()].push_back(Queued {
            id,
            seq: self.next_seq,
            node,
            class,
            admitted_at: now,
            deadline: deadline.map(|d| now + d),
            work: Box::new(work),
        });
        let depth = entry.depth();
        self.stats.class_mut(class).admitted += 1;
        cluster.telemetry().emit(|| TraceEvent::RequestAdmitted {
            request: id,
            node,
            class,
            depth,
        });
        Ok(id)
    }

    /// Takes one deterministic dispatch action: sheds one queued
    /// `Background` request under mode pressure, drops one expired
    /// request, or executes the highest-priority oldest request.
    /// Returns `false` when every queue is empty.
    pub fn step(&mut self, cluster: &mut Cluster) -> bool {
        // Backpressure coupled to the system mode: while the system is
        // not healthy, Background work is drained without running it.
        if cluster.mode() != SystemMode::Healthy {
            let victim = self
                .queues
                .values_mut()
                .find_map(|q| q.classes[PriorityClass::Background.rank()].pop_front());
            if let Some(victim) = victim {
                self.shed(cluster, victim, ShedCause::ModePressure);
                return true;
            }
        }

        // Strict priority, FIFO within a class, admission sequence as
        // the cross-node tiebreaker: the unique minimal (rank, seq).
        let next = self
            .queues
            .iter()
            .flat_map(|(node, q)| {
                q.classes
                    .iter()
                    .enumerate()
                    .filter_map(|(rank, queue)| queue.front().map(|h| ((rank, h.seq), *node)))
            })
            .min();
        let Some(((rank, _), node)) = next else {
            return false;
        };
        let request = self
            .queues
            .get_mut(&node)
            .expect("selected node exists")
            .classes[rank]
            .pop_front()
            .expect("selected queue nonempty");

        let now = cluster.clock().now();
        if request.deadline.is_some_and(|d| d < now) {
            let waited = now.since(request.admitted_at);
            self.stats.class_mut(request.class).deadline_missed += 1;
            let telemetry = cluster.telemetry();
            let (id, class) = (request.id, request.class);
            telemetry.emit(move || TraceEvent::RequestDeadlineMissed {
                request: id,
                node,
                class,
                waited_ns: waited.as_nanos(),
            });
            return true;
        }

        let Queued {
            id,
            class,
            admitted_at,
            work,
            ..
        } = request;
        let session = cluster.session(node);
        let result = work(session);
        let finished = cluster.clock().now();
        let queued_ns = now.since(admitted_at).as_nanos();
        let service_ns = finished.since(now).as_nanos();
        let outcome = match result {
            Ok(()) => InvocationOutcome::Ok,
            Err(_) => InvocationOutcome::Failed,
        };
        let counters = self.stats.class_mut(class);
        counters.completed += 1;
        if outcome == InvocationOutcome::Failed {
            counters.failed += 1;
        }
        let telemetry = cluster.telemetry();
        telemetry
            .metrics()
            .observe(latency_metric(class), finished.since(admitted_at));
        telemetry.emit(move || TraceEvent::RequestCompleted {
            request: id,
            node,
            class,
            outcome,
            queued_ns,
            service_ns,
        });
        true
    }

    /// Dispatches until every queue is empty, polling the failure
    /// detector between steps when the membership pipeline is enabled
    /// — plane traffic and detector events interleave on the one
    /// virtual clock.
    pub fn run_until_idle(&mut self, cluster: &mut Cluster) -> PlaneReport {
        let mut steps = 0u64;
        loop {
            if cluster.detector_enabled() {
                cluster.poll_detector();
            }
            if !self.step(cluster) {
                break;
            }
            steps += 1;
        }
        PlaneReport {
            steps,
            queued: self.queued_total(),
            stats: self.stats,
        }
    }

    fn reject(
        &mut self,
        cluster: &Cluster,
        id: u64,
        node: NodeId,
        class: PriorityClass,
        reason: AdmissionReject,
    ) {
        self.stats.class_mut(class).rejected += 1;
        let telemetry = cluster.telemetry();
        telemetry.emit(move || TraceEvent::RequestRejected {
            request: id,
            node,
            class,
            reason,
        });
    }

    fn shed(&mut self, cluster: &Cluster, victim: Queued, cause: ShedCause) {
        self.stats.class_mut(victim.class).shed += 1;
        let telemetry = cluster.telemetry();
        let (id, node, class) = (victim.id, victim.node, victim.class);
        telemetry.emit(move || TraceEvent::RequestShed {
            request: id,
            node,
            class,
            cause,
        });
    }
}

/// The registry histogram of `class`'s admission-to-completion
/// latency: one observation per executed request, failed or not.
pub fn latency_metric(class: PriorityClass) -> &'static str {
    match class {
        PriorityClass::Critical => "plane.latency.critical",
        PriorityClass::Normal => "plane.latency.normal",
        PriorityClass::Background => "plane.latency.background",
    }
}
